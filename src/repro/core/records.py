"""Off-target hit records and the output format.

The host program "selects potential off-target sites ... and saves the
results (chromosome number, position, direction, the number of mismatched
bases and potential off-target DNA sequence with mismatched bases) in a
file for analysis" (Section II.A).  :class:`OffTargetHit` is that record;
:func:`write_hits` emits the classic Cas-OFFinder tab-separated format
with mismatched bases shown in lowercase.

A hit is a :class:`typing.NamedTuple`, so building one costs a tuple
allocation: result sets run to thousands of hits per guide, and the
served path builds every one of them.  Tuple semantics give the record
its sort order (field by field, in declaration order), equality,
hashing and immutability.  :meth:`OffTargetHit.from_site` renders one
site at a time and is kept as the reference the vectorized per-chunk
renderer (:func:`repro.core.pipeline.render_hits`) is tested against.
"""

from __future__ import annotations

import io
import os
from typing import Iterable, List, NamedTuple, Union

import numpy as np

from .patterns import MISMATCH_LUT, reverse_complement


class OffTargetHit(NamedTuple):
    """One reported off-target site."""

    query: str          # query sequence as given (forward orientation)
    chrom: str
    position: int       # 0-based site start on the forward strand
    strand: str         # "+" or "-"
    mismatches: int
    site: str           # site sequence, query orientation, mismatches lower

    @classmethod
    def from_site(cls, query: str, chrom: str, position: int, strand: str,
                  mismatches: int, window: np.ndarray,
                  query_codes: np.ndarray) -> "OffTargetHit":
        """Build a hit, rendering the display sequence.

        ``window`` is the forward-strand genome window; ``query_codes``
        is the query in the orientation that was compared against the
        window (i.e. the reverse complement of the query for ``-`` hits).
        """
        site_fwd = np.asarray(window, dtype=np.uint8)
        q = np.asarray(query_codes, dtype=np.uint8)
        mism = MISMATCH_LUT[q, site_fwd].astype(bool)
        if strand == "-":
            display = reverse_complement(site_fwd)
            mism = mism[::-1]
        else:
            display = site_fwd.copy()
        lower = mism & (display >= ord("A")) & (display <= ord("Z"))
        display[lower] += 32
        return cls(query, chrom, int(position), strand, int(mismatches),
                   display.tobytes().decode("ascii"))

    def to_tsv(self) -> str:
        return (f"{self.query}\t{self.chrom}\t{self.position}\t"
                f"{self.site}\t{self.strand}\t{self.mismatches}")


def sort_hits(hits: Iterable[OffTargetHit]) -> List[OffTargetHit]:
    """Canonical deterministic order for comparing result sets."""
    return sorted(hits)


HEADER = "#Query\tChromosome\tPosition\tSite\tDirection\tMismatches"


def write_hits(hits: Iterable[OffTargetHit],
               destination: Union[str, os.PathLike, io.TextIOBase],
               header: bool = True) -> None:
    """Write hits in Cas-OFFinder's tab-separated output format.

    Path destinations are written crash-safely: the rows go to a
    ``.part`` temp file in the destination directory, fsynced, and
    atomically renamed into place — a reader never observes a
    truncated hits file, only the previous one or the complete new one.
    """
    if isinstance(destination, (str, os.PathLike)):
        path = os.fspath(destination)
        part = path + ".part"
        try:
            with open(part, "w", encoding="ascii") as handle:
                write_hits(hits, handle, header)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(part, path)
        except BaseException:
            try:
                os.unlink(part)
            except OSError:
                pass
            raise
        return
    if header:
        destination.write(HEADER + "\n")
    for hit in hits:
        destination.write(hit.to_tsv() + "\n")


def read_hits(source: Union[str, os.PathLike, io.TextIOBase]
              ) -> List[OffTargetHit]:
    """Parse a hits file written by :func:`write_hits`."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="ascii") as handle:
            return read_hits(handle)
    hits: List[OffTargetHit] = []
    for lineno, line in enumerate(source, 1):
        line = line.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 6:
            raise ValueError(
                f"line {lineno}: expected 6 tab-separated fields, "
                f"got {len(fields)}")
        query, chrom, position, site, strand, mismatches = fields
        hits.append(OffTargetHit(query, chrom, int(position), strand,
                                 int(mismatches), site))
    return hits
