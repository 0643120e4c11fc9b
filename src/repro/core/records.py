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

The served path never needs a record per hit, so it carries
:class:`HitColumns` instead: one query's hits as numpy columns, from
the renderer to the wire, where :meth:`HitColumns.json_rows` writes
the JSON rows straight from the arrays.  Records are built only when
a caller indexes or iterates the columns.
"""

from __future__ import annotations

import io
import json
import os
from collections.abc import Sequence
from functools import lru_cache
from itertools import chain, repeat
from typing import Iterable, List, NamedTuple, Optional, Tuple, Union

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


_NEW_HIT = tuple.__new__

#: Below this many rows ``json.dumps`` of the records is the cheaper
#: writer: the byte matrix costs ~30 numpy calls whatever its size
#: (~30-50 us), ``json.dumps`` ~1 us per row plus the records.
_MATRIX_MIN_ROWS = 32

_NO_INTS = np.empty(0, dtype=np.int64)
_NO_BYTES = np.empty(0, dtype=np.uint8)
_NO_SITES = np.empty((0, 0), dtype=np.uint8)
for _array in (_NO_INTS, _NO_BYTES, _NO_SITES):
    _array.flags.writeable = False

#: ``", "``-separated pieces of one JSON row after the position.
_SITE_OPEN = np.frombuffer(b', "', dtype=np.uint8)
_SITE_CLOSE = np.frombuffer(b'", "', dtype=np.uint8)
_STRAND_CLOSE = np.frombuffer(b'", ', dtype=np.uint8)


def _needs_escape(block: np.ndarray) -> bool:
    """Whether any byte of ``block`` is not written verbatim inside a
    JSON string by ``json.dumps``: control bytes, DEL, non-ASCII,
    ``"`` and ``\\``."""
    return bool(block.size) and bool(
        block.min() < 0x20 or block.max() > 0x7E
        or np.count_nonzero((block == 0x22) | (block == 0x5C)))


def _fill_digits(out: np.ndarray, values: np.ndarray) -> None:
    """Write non-negative ``values`` as right-aligned decimal ASCII
    into the ``(n, width)`` block ``out``; the unused leading columns
    of shorter numbers get NUL bytes."""
    rest = values
    width = out.shape[1]
    for k in range(width):
        rest, digit = np.divmod(rest, 10)
        out[:, width - 1 - k] = digit + 0x30
        if k:
            out[values < 10 ** k, width - 1 - k] = 0


class HitColumns(Sequence):
    """One query's hits as columns: a read-only ``Sequence[OffTargetHit]``.

    ``runs`` lists ``(chrom, row_count)`` in row order (adjacent runs
    name different chromosomes); ``position``/``mismatches`` are int64,
    ``strand`` holds the ``+``/``-`` bytes and ``sites`` is the rendered
    ``(n, plen)`` uint8 site block.  The constructor marks the arrays
    read-only in place (the cached records must not go stale), so give
    it arrays nothing else writes.  Indexing and iteration build the
    :class:`OffTargetHit` records once, on first use, and keep them;
    ``==`` compares record by record with any sequence of hits.
    """

    __slots__ = ("query", "runs", "position", "strand", "mismatches",
                 "sites", "_records")

    def __init__(self, query: str, runs: Tuple[Tuple[str, int], ...],
                 position: np.ndarray, strand: np.ndarray,
                 mismatches: np.ndarray, sites: np.ndarray):
        self.query = query
        self.runs = tuple(runs)
        self.position = position.astype(np.int64, copy=False)
        self.strand = strand.astype(np.uint8, copy=False)
        self.mismatches = mismatches.astype(np.int64, copy=False)
        self.sites = sites
        for array in (self.position, self.strand, self.mismatches,
                      self.sites):
            array.flags.writeable = False
        self._records: Optional[List[OffTargetHit]] = None

    @staticmethod
    def empty(query: str) -> "HitColumns":
        """The result of ``query`` with no hits, shared per query.

        Most chunks hold no hit for most queries, and a batch keeps
        every chunk's per-query result until it joins them: sharing
        the empty one keeps that from allocating (and from waking the
        cyclic garbage collector) once per chunk and query.
        """
        return _empty_columns(query)

    @classmethod
    def concat(cls, query: str, parts: Iterable["HitColumns"]
               ) -> "HitColumns":
        """Join ``parts`` (one query's hits, e.g. per chunk) in order."""
        parts = [part for part in parts if part.position.size]
        for part in parts:
            if part.query != query:
                raise ValueError(f"cannot join hits of {part.query!r} "
                                 f"into hits of {query!r}")
        if not parts:
            return cls.empty(query)
        if len(parts) == 1:
            return parts[0]
        runs: List[List] = []
        for chrom, count in chain.from_iterable(p.runs for p in parts):
            if runs and runs[-1][0] == chrom:
                runs[-1][1] += count
            else:
                runs.append([chrom, count])
        return cls(query, tuple(map(tuple, runs)),
                   *(np.concatenate([getattr(p, name) for p in parts])
                     for name in ("position", "strand", "mismatches",
                                  "sites")))

    def select(self, chromosomes) -> "HitColumns":
        """The rows on ``chromosomes``, in their current order."""
        keep = [chrom in chromosomes for chrom, _ in self.runs]
        if all(keep):
            return self
        rows = np.repeat(keep, [count for _, count in self.runs])
        return HitColumns(
            self.query,
            tuple(run for run, kept in zip(self.runs, keep) if kept),
            self.position[rows], self.strand[rows],
            self.mismatches[rows], self.sites[rows])

    # -- records --------------------------------------------------------

    def _hits(self) -> List[OffTargetHit]:
        if self._records is None:
            n = len(self.position)
            plen = self.sites.shape[1]
            text = self.sites.tobytes().decode("ascii")
            chroms = chain.from_iterable(
                repeat(chrom, count) for chrom, count in self.runs)
            self._records = [_NEW_HIT(OffTargetHit, row) for row in zip(
                repeat(self.query, n), chroms, self.position.tolist(),
                self.strand.tobytes().decode("ascii"),
                self.mismatches.tolist(),
                [text[i:i + plen] for i in range(0, n * plen, plen or 1)])]
        return self._records

    def __len__(self) -> int:
        return len(self.position)

    def __getitem__(self, item):
        return self._hits()[item]

    def __iter__(self):
        return iter(self._hits())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence) or \
                isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and self._hits() == list(other)

    __hash__ = None  # type: ignore[assignment]

    def __reduce__(self):
        return (HitColumns, (self.query, self.runs, self.position,
                             self.strand, self.mismatches, self.sites))

    def __repr__(self) -> str:
        return (f"HitColumns({self.query!r}, {len(self)} hits on "
                f"{len(self.runs)} chromosome runs)")

    # -- wire -----------------------------------------------------------

    def json_rows(self) -> bytes:
        """``json.dumps`` of this query's wire rows, as ASCII bytes.

        A wire row is ``[query, chrom, position, site, strand,
        mismatches]``.  Every row is laid out in one ``(n, width)``
        byte matrix, the fields at fixed columns: the run's
        ``[query, chrom,`` head, the position digits, the site block,
        the strand byte and the mismatch digits.  Shorter heads and
        numbers are padded with NUL bytes, stripped after
        ``tobytes()``; nothing else can hold a NUL, because a site or
        strand byte JSON would escape sends the whole list through
        ``json.dumps`` instead (which also raises, as the records do,
        on a non-ASCII site byte), and so does a list shorter than
        :data:`_MATRIX_MIN_ROWS` rows.
        """
        n = len(self)
        position, mismatches = self.position, self.mismatches
        if (n < _MATRIX_MIN_ROWS
                or position.min() < 0 or mismatches.min() < 0
                or _needs_escape(self.sites)
                or _needs_escape(self.strand)):
            return json.dumps([[h.query, h.chrom, h.position, h.site,
                                h.strand, h.mismatches]
                               for h in self]).encode("ascii")
        heads = [b", [" + json.dumps(self.query).encode("ascii") + b", "
                 + json.dumps(chrom).encode("ascii") + b", "
                 for chrom, _ in self.runs]
        head_w = max(map(len, heads))
        pos_w = len(str(int(position.max())))
        mm_w = len(str(int(mismatches.max())))
        plen = self.sites.shape[1]
        site_at = head_w + pos_w + len(_SITE_OPEN)
        strand_at = site_at + plen + len(_SITE_CLOSE)
        mm_at = strand_at + 1 + len(_STRAND_CLOSE)
        block = np.empty((n, mm_at + mm_w + 1), dtype=np.uint8)
        row = 0
        for head, (_, count) in zip(heads, self.runs):
            block[row:row + count, :head_w] = np.frombuffer(
                head.rjust(head_w, b"\0"), dtype=np.uint8)
            row += count
        _fill_digits(block[:, head_w:head_w + pos_w], position)
        block[:, site_at - len(_SITE_OPEN):site_at] = _SITE_OPEN
        block[:, site_at:site_at + plen] = self.sites
        block[:, strand_at - len(_SITE_CLOSE):strand_at] = _SITE_CLOSE
        block[:, strand_at] = self.strand
        block[:, strand_at + 1:mm_at] = _STRAND_CLOSE
        _fill_digits(block[:, mm_at:mm_at + mm_w], mismatches)
        block[:, -1] = ord("]")
        # Without padding, replace() finds no NUL and returns the
        # bytes it was given.  Every row opened with ", [": the first
        # row's ", " becomes the list's "[".
        body = block.tobytes().replace(b"\0", b"")
        return b"[" + body[2:] + b"]"


@lru_cache(maxsize=1024)
def _empty_columns(query: str) -> HitColumns:
    return HitColumns(query, (), _NO_INTS, _NO_BYTES, _NO_INTS, _NO_SITES)


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
