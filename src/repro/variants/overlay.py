"""Haplotype diff-layer overlay and variant-aware off-target search.

The naive way to search K haplotypes is to splice K full genome
copies and build K full site indexes — K+1 finder scans, K+1 packed
re-packs, K+1 resident copies, for genomes that differ from the
reference in a handful of bases.  This module does the incremental
version:

* :class:`HaplotypeOverlay` is a *diff layer* over one chromosome:
  piecewise segments that reference the assembly's bytes zero-copy
  outside variant intervals and small alt arrays inside them, plus
  monotone coordinate maps between reference and haplotype positions.
  Fetching a window only materializes the bytes of that window —
  untouched chunks are never copied, never re-scanned, never
  re-packed;
* :func:`search_variants` classifies which reference chunks a
  haplotype's variants can possibly affect (a variant at ``pos``
  replacing ``ref`` perturbs exactly the site starts in
  ``[pos - plen + 1, pos + len(ref))``), builds **patch entries** for
  only those chunks — finder scan + 2-bit re-pack over the fetched
  window — and rides reference chunks *and* all patches through one
  batched comparer pass
  (:meth:`GenomeSiteIndex.query_batch_with_extras`);
* hits from patch chunks are projected back to reference coordinates
  through the overlay's coordinate map, so hits that merely *shifted*
  downstream of an indel cancel against their reference twins and the
  report contains only real per-haplotype **gained**/**lost**
  off-targets, each with provenance: the haplotype and the causal
  variant whose interval the site's window overlaps.

The wire payload (:func:`variant_payload`) is the single source of
key order for the ``variant`` op, shared by the in-process API, the
server, and the router, so responses are byte-identical across
serving tiers.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import (Any, Dict, FrozenSet, List, Optional, Sequence,
                    Tuple)

import numpy as np

from ..core.bitparallel import (MAX_CHECKED_POSITIONS, acgtn_only,
                                pack_site_windows, seed_layout)
from ..core.config import Query
from ..core.pipeline import ResidentChunk
from ..core.records import OffTargetHit
from ..genome.assembly import Chunk
from .model import Haplotype, Variant, VariantError

#: Wire row layout for one gained/lost event.  ``position`` is the
#: site's reference-projected coordinate (what you would compare
#: against a reference search); ``hap_position`` the coordinate on the
#: haplotype sequence, ``-1`` for lost sites (they have no haplotype
#: locus).  ``variant`` indexes the causal variant within the
#: haplotype's normalized variant list, ``-1`` when no single variant's
#: interval overlaps the site window.
EVENT_FIELDS = ("haplotype", "variant", "change", "query", "chrom",
                "position", "hap_position", "strand", "mismatches",
                "site")

_CHANGE_RANK = {"gained": 0, "lost": 1}


class HaplotypeOverlay:
    """One chromosome with one haplotype's variants applied, lazily.

    Maintains piecewise segments: reference spans are *views* into the
    assembly's byte array (zero-copy), variant spans are small alt
    arrays.  :meth:`fetch` materializes only the requested window;
    :attr:`materialized_bases` counts the bytes actually copied, which
    is how the overlay's central claim — untouched chunks are shared
    by reference, not duplicated — is audited.
    """

    def __init__(self, chrom: str, sequence: np.ndarray,
                 variants: Sequence[Variant]):
        self.chrom = chrom
        self.reference = sequence
        self.materialized_bases = 0
        n = int(sequence.size)
        ordered = sorted(variants, key=lambda v: (v.position, v.end))
        for prev, cur in zip(ordered, ordered[1:]):
            if cur.position < prev.end:
                raise VariantError(
                    f"variants {prev.describe()} and {cur.describe()} "
                    f"overlap on {chrom!r}")
        for variant in ordered:
            if variant.chrom != chrom:
                raise VariantError(
                    f"variant {variant.describe()} does not belong to "
                    f"chromosome {chrom!r}")
            if variant.end > n:
                raise VariantError(
                    f"variant {variant.describe()} runs past the end "
                    f"of {chrom!r} (length {n})")
            found = sequence[variant.position:variant.end] \
                .tobytes().decode("ascii")
            if found != variant.ref:
                raise VariantError(
                    f"variant {variant.describe()}: reference bases at "
                    f"{chrom}:{variant.position} are {found!r}, not "
                    f"{variant.ref!r}")
        self.variants: Tuple[Variant, ...] = tuple(ordered)

        # Interval tables for the coordinate maps.
        self._ref_starts: List[int] = []
        self._ref_ends: List[int] = []
        self._hap_starts: List[int] = []
        self._hap_ends: List[int] = []
        # Piecewise segments: (hap_start, hap_end, ref_start, alt).
        # ``alt is None`` marks a reference span starting at
        # ``ref_start``; otherwise ``alt`` holds the variant bytes.
        self._segments: List[Tuple[int, int, int,
                                   Optional[np.ndarray]]] = []
        self._segment_starts: List[int] = []
        shift = 0
        ref_cursor = 0
        for variant in self.variants:
            if variant.position > ref_cursor:
                hap_lo = ref_cursor + shift
                self._segments.append(
                    (hap_lo, variant.position + shift, ref_cursor, None))
            hap_lo = variant.position + shift
            alt = np.frombuffer(variant.alt.encode("ascii"),
                                dtype=np.uint8)
            self._ref_starts.append(variant.position)
            self._ref_ends.append(variant.end)
            self._hap_starts.append(hap_lo)
            self._hap_ends.append(hap_lo + alt.size)
            self._segments.append(
                (hap_lo, hap_lo + alt.size, variant.position, alt))
            shift += variant.shift
            ref_cursor = variant.end
        if ref_cursor < n:
            self._segments.append(
                (ref_cursor + shift, n + shift, ref_cursor, None))
        self.length = n + shift
        self._segment_starts = [seg[0] for seg in self._segments]

    # -- coordinate maps ------------------------------------------------

    def map_ref_to_hap(self, position: int) -> int:
        """Monotone reference -> haplotype coordinate map.

        Positions strictly inside a variant's replaced interval clamp
        to the corresponding offset of its alt span — there is no
        exact image for a deleted base, and a clamped monotone map is
        all boundary translation needs.
        """
        j = bisect_right(self._ref_starts, position)
        if j == 0:
            return position
        v = j - 1
        if position >= self._ref_ends[v]:
            return position + (self._hap_ends[v] - self._ref_ends[v])
        offset = min(position - self._ref_starts[v],
                     self._hap_ends[v] - self._hap_starts[v])
        return self._hap_starts[v] + offset

    def map_hap_to_ref(self, position: int) -> int:
        """Monotone haplotype -> reference coordinate map (clamped)."""
        j = bisect_right(self._hap_starts, position)
        if j == 0:
            return position
        v = j - 1
        if position >= self._hap_ends[v]:
            return position - (self._hap_ends[v] - self._ref_ends[v])
        offset = min(position - self._hap_starts[v],
                     self._ref_ends[v] - self._ref_starts[v])
        return self._ref_starts[v] + offset

    # -- byte access ----------------------------------------------------

    def fetch(self, start: int, end: int) -> np.ndarray:
        """Haplotype bytes ``[start, end)``, materializing lazily.

        A window falling entirely inside one reference span returns a
        zero-copy view of the assembly's array; windows crossing a
        variant concatenate just the pieces they cover.
        """
        if not 0 <= start <= end <= self.length:
            raise VariantError(
                f"window [{start}, {end}) outside haplotype "
                f"{self.chrom!r} of length {self.length}")
        if start == end:
            return np.zeros(0, dtype=np.uint8)
        j = bisect_right(self._segment_starts, start) - 1
        pieces: List[np.ndarray] = []
        cursor = start
        while cursor < end:
            hap_lo, hap_hi, ref_lo, alt = self._segments[j]
            take = min(hap_hi, end)
            lo = cursor - hap_lo
            hi = take - hap_lo
            if alt is None:
                pieces.append(self.reference[ref_lo + lo:ref_lo + hi])
            else:
                pieces.append(alt[lo:hi])
            cursor = take
            j += 1
        if len(pieces) == 1:
            return pieces[0]
        window = np.concatenate(pieces)
        self.materialized_bases += int(window.size)
        return window


def affected_site_interval(variant: Variant, plen: int
                           ) -> Tuple[int, int]:
    """Reference site-start interval a variant can perturb.

    A site starting at ``s`` reads window ``[s, s + plen)``; it
    overlaps the replaced interval ``[pos, pos + len(ref))`` exactly
    when ``s`` lies in ``[pos - plen + 1, pos + len(ref))``.  Sites
    outside carry unchanged bytes (possibly shifted), which the
    projection step cancels.
    """
    return (max(0, variant.position - plen + 1), variant.end)


def reference_scan_bounds(length: int, chunk_size: int, plen: int
                          ) -> List[Tuple[int, int]]:
    """Per-chunk ``[scan_start, scan_end)`` bounds of one chromosome.

    Replicates :meth:`Assembly.chunks` exactly, so patch chunks align
    one-to-one with the chunks the resident index was built from.
    """
    overlap = plen - 1
    bounds: List[Tuple[int, int]] = []
    if length < plen:
        return bounds
    start = 0
    while start < length - overlap:
        end = min(start + chunk_size, length)
        scan_end = min(end - overlap, length - overlap)
        if scan_end - start <= 0:
            break
        bounds.append((start, scan_end))
        start = scan_end
    return bounds


@dataclass
class _PatchChunk:
    """One rebuilt chunk of one haplotype, ready for the comparer."""

    hap_index: int
    chrom: str
    ref_bounds: Tuple[int, int]     # the reference chunk it replaces
    entry: ResidentChunk            # loci/flags/packed over hap bytes


def _build_patches(index: Any, haplotypes: Sequence[Haplotype],
                   allowed: FrozenSet[str],
                   ) -> Tuple[List[_PatchChunk],
                              Dict[Tuple[int, str], HaplotypeOverlay]]:
    """Overlays plus patch entries for every touched chunk."""
    assembly = index.assembly
    compiled = index.compiled_pattern
    plen = compiled.plen
    layout = seed_layout(compiled)
    chunk_size = index.chunk_size
    overlap = plen - 1
    patches: List[_PatchChunk] = []
    overlays: Dict[Tuple[int, str], HaplotypeOverlay] = {}
    chrom_order = [c.name for c in assembly.chromosomes]
    for hap_index, haplotype in enumerate(haplotypes):
        by_chrom: Dict[str, List[Variant]] = {}
        for variant in haplotype.variants:
            if variant.chrom in allowed:
                by_chrom.setdefault(variant.chrom, []).append(variant)
        for chrom in chrom_order:
            variants = by_chrom.get(chrom)
            if not variants:
                continue
            sequence = assembly[chrom].sequence
            overlay = HaplotypeOverlay(chrom, sequence, variants)
            overlays[(hap_index, chrom)] = overlay
            bounds = reference_scan_bounds(sequence.size, chunk_size,
                                           plen)
            if not bounds or overlay.length < plen:
                continue
            affected = [affected_site_interval(v, plen)
                        for v in overlay.variants]
            hap_scan_end = overlay.length - overlap
            final_ref_end = bounds[-1][1]
            for ref_lo, ref_hi in bounds:
                touched = any(lo < ref_hi and hi > ref_lo
                              for lo, hi in affected)
                if not touched:
                    continue
                hap_lo = min(overlay.map_ref_to_hap(ref_lo),
                             hap_scan_end)
                if ref_hi == final_ref_end:
                    # The last chunk owns the haplotype's tail: an
                    # insertion near the chromosome end creates site
                    # starts past the image of the reference bound.
                    hap_hi = hap_scan_end
                else:
                    hap_hi = min(overlay.map_ref_to_hap(ref_hi),
                                 hap_scan_end)
                if hap_hi <= hap_lo:
                    continue
                data = overlay.fetch(hap_lo, hap_hi + overlap)
                chunk = Chunk(chrom=chrom, start=hap_lo, data=data,
                              scan_length=hap_hi - hap_lo)
                _count, loci, flags = index.pipeline.find_candidates(
                    chunk, compiled)
                packed = None
                if plen <= MAX_CHECKED_POSITIONS and acgtn_only(data):
                    packed = pack_site_windows(data, loci, flags, layout)
                patches.append(_PatchChunk(
                    hap_index=hap_index, chrom=chrom,
                    ref_bounds=(ref_lo, ref_hi),
                    entry=ResidentChunk(
                        chrom=chrom, start=hap_lo,
                        scan_length=hap_hi - hap_lo, data=data,
                        loci=loci, flags=flags, packed=packed)))
    return patches, overlays


def _causal_variant(variants: Sequence[Variant], span_lo: int,
                    span_hi: int) -> int:
    """Index of the first variant whose interval overlaps the span."""
    for vi, variant in enumerate(variants):
        if variant.position < span_hi and variant.end > span_lo:
            return vi
    return -1


@dataclass
class VariantSearchResult:
    """Everything the ``variant`` op reports, tier-independent."""

    pattern: str
    queries: List[Query]
    haplotypes: List[Haplotype]
    #: Sorted wire rows, one per gained/lost site (``EVENT_FIELDS``).
    events: List[List[Any]]
    #: Per-query reference hit counts (observability).
    reference_hits: List[int]
    patched_chunks: int
    reference_chunks: int

    def payload(self) -> Dict[str, Any]:
        return variant_payload(
            self.pattern, len(self.queries),
            [h.to_payload() for h in self.haplotypes], self.events,
            self.reference_hits, self.patched_chunks,
            self.reference_chunks)


def event_sort_key(row: Sequence[Any], hap_rank: Dict[str, int],
                   query_rank: Dict[str, int],
                   chrom_rank: Dict[str, int]) -> Tuple:
    """Global deterministic order for event rows.

    Shared by :func:`search_variants` and the router's merge so a
    routed response's event list is byte-identical to a single
    server's.
    """
    return (hap_rank.get(row[0], len(hap_rank)),
            query_rank.get(row[3], len(query_rank)),
            chrom_rank.get(row[4], len(chrom_rank)),
            row[5], row[6], row[7],
            _CHANGE_RANK.get(row[2], len(_CHANGE_RANK)),
            row[8], row[9])


def sort_event_rows(rows: List[List[Any]],
                    haplotype_names: Sequence[str],
                    query_sequences: Sequence[str],
                    chromosome_order: Sequence[str]
                    ) -> List[List[Any]]:
    hap_rank = {name: i for i, name in enumerate(haplotype_names)}
    query_rank: Dict[str, int] = {}
    for sequence in query_sequences:
        query_rank.setdefault(sequence, len(query_rank))
    chrom_rank = {name: i for i, name in enumerate(chromosome_order)}
    rows.sort(key=lambda row: event_sort_key(row, hap_rank, query_rank,
                                             chrom_rank))
    return rows


def variant_payload(pattern: str, n_queries: int,
                    haplotype_rows: List[Dict[str, Any]],
                    events: List[List[Any]],
                    reference_hits: Sequence[int], patched_chunks: int,
                    reference_chunks: int) -> Dict[str, Any]:
    """The ``variant`` op's response body — single source of key order.

    Every tier (in-process, server, sharded server, router) builds its
    response through this function, which is what makes the responses
    byte-identical on the wire.
    """
    summary = []
    for hap_row in haplotype_rows:
        name = hap_row["name"]
        gained = sum(1 for row in events
                     if row[0] == name and row[2] == "gained")
        lost = sum(1 for row in events
                   if row[0] == name and row[2] == "lost")
        summary.append({"haplotype": name,
                        "variants": len(hap_row["variants"]),
                        "gained": gained, "lost": lost})
    return {
        "pattern": pattern,
        "queries": int(n_queries),
        "haplotypes": haplotype_rows,
        "reference_chunks": int(reference_chunks),
        "patched_chunks": int(patched_chunks),
        "reference_hits": [int(count) for count in reference_hits],
        "summary": summary,
        "event_fields": list(EVENT_FIELDS),
        "events": events,
    }


def validate_haplotypes(index: Any, haplotypes: Sequence[Haplotype],
                        chromosomes: Optional[FrozenSet[str]]
                        ) -> FrozenSet[str]:
    """Chromosome-level validation with the partition skip rule.

    Returns the set of chromosome names variants may be applied to.  A
    variant naming a chromosome the assembly lacks raises
    :class:`VariantError` — *unless* a ``chromosomes`` filter is
    present and excludes that chromosome, in which case the variant is
    silently skipped: in a routed deployment the partition that owns
    the chromosome computes its events, and every other partition must
    not error on it.
    """
    known = {c.name for c in index.assembly.chromosomes}
    if chromosomes is None:
        allowed = known
    else:
        allowed = known & set(chromosomes)
    for haplotype in haplotypes:
        for variant in haplotype.variants:
            if variant.chrom in known:
                continue
            if chromosomes is not None and \
                    variant.chrom not in chromosomes:
                continue
            raise VariantError(
                f"variant {variant.describe()} names unknown "
                f"chromosome {variant.chrom!r}; assembly "
                f"{index.assembly.name!r} has {sorted(known)}")
    return frozenset(allowed)


def search_variants(index: Any, queries: Sequence[Query],
                    haplotypes: Sequence[Haplotype],
                    chromosomes: Optional[FrozenSet[str]] = None
                    ) -> VariantSearchResult:
    """Guide x {reference + K haplotypes} in one comparer batch.

    ``index`` is a :class:`~repro.service.index.GenomeSiteIndex` or
    anything duck-typing its surface (the sharded tier does): it must
    expose ``assembly``, ``pattern``, ``compiled_pattern``,
    ``chunk_size``, ``pipeline``, ``entries`` and
    ``query_batch_with_extras``.

    Only chunks a variant touches are re-fetched, re-scanned and
    re-packed; everything else is served from the resident reference
    index.  Patch hits are projected to reference coordinates, so the
    returned events are exactly the sites each haplotype gains or
    loses relative to the reference — downstream shifts cancel.
    """
    queries = list(queries)
    if not queries:
        raise ValueError("a variant search needs at least one query")
    haplotypes = list(haplotypes)
    if not haplotypes:
        raise VariantError(
            "a variant search needs at least one haplotype")
    allowed = validate_haplotypes(index, haplotypes, chromosomes)
    plen = index.compiled_pattern.plen

    patches, overlays = _build_patches(index, haplotypes, allowed)
    extras = [patch.entry for patch in patches]
    ref_hits, extra_hits, reference_chunks = \
        index.query_batch_with_extras(queries, extras)
    if chromosomes is not None:
        ref_hits = [per_query.select(chromosomes)
                    for per_query in ref_hits]
        # Scope the chunk count to the filter too: a routed partition
        # reports only its own chromosomes' chunks, so the router's
        # per-partition sums reproduce the single-server totals.
        reference_chunks = sum(
            1 for entry in index.entries
            if entry.loci.size and entry.chrom in chromosomes)

    # Group patch entries and touched reference intervals by layer.
    patch_of_layer: Dict[Tuple[int, str], List[int]] = {}
    touched_of_layer: Dict[Tuple[int, str],
                           List[Tuple[int, int]]] = {}
    for pi, patch in enumerate(patches):
        layer = (patch.hap_index, patch.chrom)
        patch_of_layer.setdefault(layer, []).append(pi)
        touched_of_layer.setdefault(layer, []).append(patch.ref_bounds)

    events: List[List[Any]] = []
    for (hap_index, chrom), overlay in overlays.items():
        layer = (hap_index, chrom)
        haplotype = haplotypes[hap_index]
        intervals = touched_of_layer.get(layer, [])
        if not intervals:
            continue
        for qi in range(len(queries)):
            ref_keys: Dict[Tuple[int, str, str, int],
                           OffTargetHit] = {}
            for hit in ref_hits[qi]:
                if hit.chrom != chrom:
                    continue
                if any(lo <= hit.position < hi
                       for lo, hi in intervals):
                    key = (hit.position, hit.strand, hit.site,
                           hit.mismatches)
                    ref_keys.setdefault(key, hit)
            hap_keys: Dict[Tuple[int, str, str, int],
                           OffTargetHit] = {}
            for pi in patch_of_layer[layer]:
                for hit in extra_hits[pi][qi]:
                    projected = overlay.map_hap_to_ref(hit.position)
                    key = (projected, hit.strand, hit.site,
                           hit.mismatches)
                    hap_keys.setdefault(key, hit)
            for key, hit in hap_keys.items():
                if key in ref_keys:
                    continue
                span_lo = overlay.map_hap_to_ref(hit.position)
                span_hi = overlay.map_hap_to_ref(
                    hit.position + plen - 1) + 1
                events.append([
                    haplotype.name,
                    _causal_variant(haplotype.variants, span_lo,
                                    span_hi),
                    "gained", hit.query, chrom, int(key[0]),
                    int(hit.position), hit.strand,
                    int(hit.mismatches), hit.site])
            for key, hit in ref_keys.items():
                if key in hap_keys:
                    continue
                events.append([
                    haplotype.name,
                    _causal_variant(haplotype.variants, hit.position,
                                    hit.position + plen),
                    "lost", hit.query, chrom, int(hit.position), -1,
                    hit.strand, int(hit.mismatches), hit.site])

    sort_event_rows(events, [h.name for h in haplotypes],
                    [q.sequence for q in queries],
                    [c.name for c in index.assembly.chromosomes])
    return VariantSearchResult(
        pattern=index.pattern, queries=queries, haplotypes=haplotypes,
        events=events,
        reference_hits=[len(per_query) for per_query in ref_hits],
        patched_chunks=len(patches),
        reference_chunks=int(reference_chunks))
