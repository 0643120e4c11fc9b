"""Seeded input sampling from an index's resident candidate sites.

Every guide the benchmark sends is taken from a real candidate site of
the served index, so every guide hits at least its own source site at
0 mismatches and no guide pool can come back empty.

The finder's strand ``flags`` are ``1`` = forward, ``2`` = reverse and
``0`` = both (a window whose pattern matches on both strands).  They are
*not* ``ord('+')``/``ord('-')``: a reverse site's guide is the reverse
complement of its forward-strand window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.patterns import reverse_complement
from repro.genome.synthetic import HG38_SATELLITE_MONOMER

#: Finder strand flag of a reverse-strand site (1 = forward, 0 = both).
FLAG_REVERSE = 2


@dataclass(frozen=True)
class SampledSite:
    """One candidate site and the guide derived from it."""

    chrom: str
    position: int   # 0-based forward-strand start of the window
    strand: str     # "+" or "-": orientation the guide matches in
    window: str     # the window in guide orientation (guide + PAM)
    guide: str      # guide region + "N" over the PAM: the query

    @property
    def pam_length(self) -> int:
        return len(self.guide) - len(self.guide.rstrip("N"))


def _satellite_windows(plen: int) -> frozenset:
    """Every ``plen``-mer of the hg38 satellite tiling, both strands."""
    monomer = HG38_SATELLITE_MONOMER
    tiled = monomer * (plen // len(monomer) + 2)
    rc = reverse_complement(tiled).tobytes().decode("ascii")
    return frozenset(s[k:k + plen] for s in (tiled, rc)
                     for k in range(len(monomer)))


class SiteSampler:
    """Uniform, seeded sampling over an index's candidate sites.

    ``guide_length`` is the pattern's guide region; the remaining
    positions (the PAM) become ``N`` in the sampled query, as in the
    Cas-OFFinder input format.
    """

    def __init__(self, index, guide_length: int):
        self.plen = index.compiled_pattern.plen
        self.guide_length = int(guide_length)
        self._entries = [e for e in index.entries if e.loci.size]
        counts = np.array([e.loci.size for e in self._entries])
        self._ends = np.cumsum(counts)
        self._satellite = _satellite_windows(self.plen)

    @property
    def site_count(self) -> int:
        return int(self._ends[-1]) if self._ends.size else 0

    def site(self, flat: int) -> SampledSite:
        """The site at global candidate number ``flat``."""
        slot = int(np.searchsorted(self._ends, flat, side="right"))
        entry = self._entries[slot]
        i = flat - (int(self._ends[slot - 1]) if slot else 0)
        lo = int(entry.loci[i])
        window = np.asarray(entry.data[lo:lo + self.plen])
        strand = "+"
        if int(entry.flags[i]) == FLAG_REVERSE:
            window = reverse_complement(window)
            strand = "-"
        text = window.tobytes().decode("ascii")
        guide = (text[:self.guide_length]
                 + "N" * (self.plen - self.guide_length))
        return SampledSite(chrom=entry.chrom, position=entry.start + lo,
                           strand=strand, window=text, guide=guide)

    def is_satellite(self, site: SampledSite) -> bool:
        """The whole window is an unmutated satellite-tiling window."""
        return site.window in self._satellite

    def satellite_distance(self, site: SampledSite) -> int:
        """Fewest guide-region mismatches to any satellite window."""
        g = site.window[:self.guide_length]
        return min(sum(a != b for a, b in zip(g, w))
                   for w in self._satellite)

    def sample(self, rng: np.random.Generator, n: int,
               accept: Optional[Callable[[SampledSite], bool]] = None,
               max_draws: int = 200_000) -> List[SampledSite]:
        """``n`` sites with concrete A/C/G/T guide regions.

        ``accept`` narrows the pool further (satellite or not); the
        draw is rejection sampling, so a predicate no site meets fails
        loudly instead of looping.
        """
        out: List[SampledSite] = []
        for _ in range(max_draws):
            if len(out) == n:
                return out
            site = self.site(int(rng.integers(self.site_count)))
            if set(site.window[:self.guide_length]) - set("ACGT"):
                continue
            if accept is not None and not accept(site):
                continue
            out.append(site)
        if len(out) == n:
            return out
        raise RuntimeError(
            f"sampled {len(out)} of {n} sites in {max_draws} draws")


def iupac_guide(site: SampledSite, rng: np.random.Generator) -> str:
    """The site's guide with one A/G of the guide region set to ``R``.

    ``R`` (A or G) still matches the source site, but the guide can no
    longer be packed into two bits, so it takes the byte comparer.
    """
    spots = [i for i, base in enumerate(site.guide[:-site.pam_length])
             if base in "AG"]
    at = spots[int(rng.integers(len(spots)))]
    return site.guide[:at] + "R" + site.guide[at + 1:]


def design_region(assembly, site: SampledSite, width: int) -> Dict:
    """A ``width``-bp region centred on ``site``, inside its chromosome."""
    length = len(assembly[site.chrom])
    start = max(0, min(site.position - width // 2, length - width))
    return {"chrom": site.chrom, "start": int(start),
            "end": int(start + width)}


def haplotypes(assembly, sites: Sequence[SampledSite],
               rng: np.random.Generator, count: int) -> List[Dict]:
    """``count`` haplotypes, one variant per site in ``sites``.

    The first site is the guide's own source site: haplotype 0 puts an
    SNV in its guide region (a lost off-target); the other sites get an
    SNV or a 2-base deletion, alternating.  ``ref`` always equals the
    assembly bases, which the variant layer checks.
    """
    rows = []
    for h in range(count):
        variants = []
        for k, site in enumerate(sites):
            seq = assembly[site.chrom].sequence
            pos = site.position + int(rng.integers(3, 17))
            ref = seq[pos:pos + 3].tobytes().decode("ascii")
            if set(ref) - set("ACGT"):
                continue
            if (h + k) % 2 == 0:
                alt = "ACGT"[("ACGT".index(ref[0]) + 1) % 4]
                variants.append([site.chrom, pos, ref[0], alt])
            else:
                variants.append([site.chrom, pos, ref, ref[0]])
        variants.sort(key=lambda v: (v[0], v[1]))
        kept = []
        for v in variants:
            # Variants of one haplotype may not overlap.
            if kept and kept[-1][0] == v[0] and \
                    v[1] < kept[-1][1] + len(kept[-1][2]):
                continue
            kept.append(v)
        rows.append({"name": f"hap{h}", "variants": kept})
    return rows
