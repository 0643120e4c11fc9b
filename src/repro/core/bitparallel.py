"""Bit-parallel mismatch counting: the 2-bit baseline of related work.

The paper's related-work section describes two relevant systems: the
Cas-OFFinder authors' own optimization round ("a 2-bit sequence format,
shared local memory and atomic operations ... improving the performance
by a factor of 30 approximately") and FlashFry, a CPU tool "two to three
orders of magnitude faster" built on packed-integer comparisons.  This
module implements that algorithm, both as an offline baseline engine and
as the serving tier's resident hot path:

* each candidate window is packed into a 64-bit word, two bits per base
  (A=0, C=1, G=2, T=3);
* mismatches against a packed query are counted in O(1) per window with
  the classic trick: ``x = a ^ b; m = (x | x >> 1) & 0x5555...;
  popcount(m)`` — every differing 2-bit group contributes exactly one
  set bit to ``m``;
* genome ``N`` (or any non-ACGT byte) at a checked position is forced to
  mismatch through a separate invalid-position mask, matching the
  comparer kernel's behaviour for concrete query bases.

Two packings coexist.  :func:`pack_query_strand` packs only a query's
*checked* positions (compact, per-site gather at compare time) and backs
the offline :class:`BitParallelCasOffinder`.  :func:`pack_site_windows` /
:func:`pack_query_window` pack *full windows* at fixed 2-bit offsets —
the site words are query-independent, so a resident index computes them
once at build time and :func:`compare_packed_batched` then serves any
number of queries with pure XOR/popcount over the stored planes, no
genome gather at all.  Emission order replicates the batched vectorized
kernel block-for-block, so demultiplexed results are byte-identical.

The resident form also carries a *pigeonhole seed prefilter*, after
FlashFry's binning.  :func:`seed_layout` cuts the PAM pattern's longest
``N`` run into 4-nt blocks counted from its start (``N``x21 + ``RG``
gives forward starts 0, 4, 8, 12, 16; reverse-strand blocks are the
mirror, ``plen - 4 - start``).  :func:`build_seed_tables` stores, per
chunk and strand, the strand's candidate indices once plus, per block,
one order array stably sorted by the block's 8-bit code and 257 + 1
bucket bounds.  A block holding a non-ACGT genome base goes to a
sentinel bucket no query looks up; that is exact, because the invalid
plane makes genome ``N`` mismatch every concrete query base.  Index
arrays are ``uint16`` for chunks of at most 65,536 candidates and
``uint32`` above, so the tables cost about 12 B per site-strand (24 B
at ``uint32``) plus 10 KB of bounds per chunk and strand.  A query with
``k`` fully checked blocks and ``max_mismatches <= k - 1`` must match
one of them exactly, so it compares only the union of its ``k``
buckets; a query with fewer usable blocks compares the strand's whole
candidate list.  Both feed the same XOR/popcount lines.

The restriction, shared with FlashFry: query *checked* positions must be
concrete A/C/G/T (ambiguity codes other than the skipped ``N`` cannot be
expressed in two bits).  The PAM pattern is unrestricted — candidate
selection still uses the mask-based finder.  Queries that do carry
ambiguity codes fall back to the byte comparer (see
:meth:`repro.core.pipeline._BasePipeline.compare_resident`), keeping
responses byte-identical in all cases.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..genome.assembly import Assembly
from .config import Query, SearchRequest
from .patterns import CompiledPattern, PatternError, compile_pattern
from .pipeline import (DEFAULT_CHUNK_SIZE, PackedSites, PipelineResult,
                       SyclCasOffinder)
from .records import OffTargetHit

# 2-bit base codes; non-ACGT bytes map to 0 and are tracked separately.
_CODE = np.zeros(256, dtype=np.uint64)
_CODE[ord("A")] = 0
_CODE[ord("C")] = 1
_CODE[ord("G")] = 2
_CODE[ord("T")] = 3

_VALID = np.zeros(256, dtype=bool)
for _b in b"ACGT":
    _VALID[_b] = True

#: Byte-wide twins of ``_CODE`` and ``~_VALID`` for whole-chunk lookups.
_CODE8 = _CODE.astype(np.uint8)
_INVALID8 = (~_VALID).astype(np.uint8)

#: Per-byte popcount lookup.
_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)],
                      dtype=np.uint8)

_ODD_BITS = np.uint64(0x5555555555555555)

#: A 64-bit word holds 32 two-bit bases.
MAX_CHECKED_POSITIONS = 32


@dataclass(frozen=True)
class PackedQuery:
    """One strand of one query, packed for bit-parallel comparison."""

    word: np.uint64
    checked: np.ndarray        # int64 offsets into the site window
    weights: np.ndarray        # uint64 shift multipliers per position
    codes: np.ndarray          # uint64 2-bit code per checked position


def pack_query_strand(cq: CompiledPattern, offset: int) -> PackedQuery:
    """Pack one strand (offset 0 = forward, plen = reverse)."""
    indices = cq.comp_index[offset:offset + cq.plen]
    checked = indices[indices >= 0].astype(np.int64)
    if checked.size > MAX_CHECKED_POSITIONS:
        raise PatternError(
            f"bit-parallel comparer supports up to "
            f"{MAX_CHECKED_POSITIONS} checked positions, got "
            f"{checked.size}")
    chars = cq.comp[checked + offset]
    if not _VALID[chars].all():
        bad = sorted({chr(c) for c in chars[~_VALID[chars]]})
        raise PatternError(
            f"bit-parallel comparer requires concrete A/C/G/T at checked "
            f"query positions; found {bad}")
    weights = (np.uint64(1) << (2 * np.arange(checked.size,
                                              dtype=np.uint64)))
    codes = _CODE[chars]
    word = np.uint64((codes * weights).sum())
    return PackedQuery(word=word, checked=checked, weights=weights,
                       codes=codes)


def _popcount64_lut(values: np.ndarray) -> np.ndarray:
    """Byte-LUT population count; works for any numpy without
    ``bitwise_count`` and any array shape."""
    values = np.ascontiguousarray(values, dtype=np.uint64)
    as_bytes = values.view(np.uint8).reshape(values.shape + (8,))
    return _POPCOUNT8[as_bytes].sum(axis=-1, dtype=np.int64)


def _popcount64_native(values: np.ndarray) -> np.ndarray:
    """Hardware-popcount path via ``np.bitwise_count`` (numpy >= 2)."""
    return np.bitwise_count(values).astype(np.int64)


#: Vectorized population count of a uint64 array (any shape).  Bound to
#: the native ``np.bitwise_count`` ufunc when this numpy has it, with
#: the byte-LUT kept as the fallback (micro-benched side by side in
#: ``benchmarks/test_micro_kernels.py``).
popcount64 = (_popcount64_native if hasattr(np, "bitwise_count")
              else _popcount64_lut)


def count_mismatches_packed(chunk: np.ndarray, loci: np.ndarray,
                            packed: PackedQuery) -> np.ndarray:
    """Mismatch counts for all candidate windows against one strand."""
    if loci.size == 0:
        return np.zeros(0, dtype=np.int64)
    if packed.checked.size == 0:
        return np.zeros(loci.size, dtype=np.int64)
    sites = chunk[loci[:, None] + packed.checked[None, :]]
    codes = _CODE[sites]
    words = (codes * packed.weights[None, :]).sum(
        axis=1, dtype=np.uint64)
    x = words ^ packed.word
    mm_mask = (x | (x >> np.uint64(1))) & _ODD_BITS
    counts = popcount64(mm_mask)
    # Non-ACGT genome bytes packed as code 0 may collide with a query
    # 'A'; force them to count as mismatches.
    invalid = ~_VALID[sites]
    if invalid.any():
        # A position was counted already iff its 2-bit group differs;
        # recover per-position equality to add the colliding cases
        # (invalid byte packed as code 0 matching a query 'A').
        equal = codes == packed.codes[None, :]
        counts = counts + (invalid & equal).sum(axis=1, dtype=np.int64)
    return counts


# ---------------------------------------------------------------------------
# Full-window packing: the resident form of the serving index
# ---------------------------------------------------------------------------
#
# The compact per-checked-position packing above needs a genome gather
# per (site, query-strand) at compare time.  The serving tier instead
# packs every candidate window once, at a fixed two bits per window
# position, so the per-batch work is XOR + mask + popcount over arrays
# that already live in memory.  The invalid plane marks non-ACGT window
# positions on the same odd-bit lattice the mismatch indicator lands on,
# so OR-ing it in forces those positions to count as mismatches exactly
# as ``MISMATCH_LUT`` does for concrete query bases.

def acgtn_only(data: np.ndarray) -> bool:
    """True when every byte is uppercase A/C/G/T/N.

    The packed resident form requires this: 2-bit decode then maps every
    flagged position back to ``N`` losslessly, which keeps hit site
    strings (and the byte-comparer fallback) identical to the raw bytes.
    """
    return bool(_ACGTN[data].all())


_ACGTN = np.zeros(256, dtype=bool)
for _b in b"ACGTN":
    _ACGTN[_b] = True


def pack_site_windows(chunk_data: np.ndarray, loci: np.ndarray,
                      flags: np.ndarray, layout: SeedLayout
                      ) -> PackedSites:
    """Pack all candidate windows of one chunk into resident planes.

    Returns :class:`~repro.core.pipeline.PackedSites` with ``words[i] =
    sum(code(window[p]) << 2p)``, ``invalid[i]`` carrying bit ``2p``
    for every non-ACGT window position ``p``, and the chunk's seed
    tables (:func:`build_seed_tables`).  Query-independent, so the
    index computes this once per chunk at build time.
    """
    plen = layout.plen
    if plen > MAX_CHECKED_POSITIONS:
        raise PatternError(
            f"packed windows hold at most {MAX_CHECKED_POSITIONS} "
            f"positions, pattern has {plen}")
    # One pass per window position keeps temporaries at O(sites),
    # not O(sites x plen).
    loci = loci.astype(np.intp)
    codes = _CODE8[chunk_data]
    invalid_bases = _INVALID8[chunk_data]
    words = np.zeros(loci.size, np.uint64)
    invalid = np.zeros(loci.size, np.uint64)
    for p in range(plen):
        at = loci + p
        shift = np.uint64(2 * p)
        words |= codes[at].astype(np.uint64) << shift
        invalid |= invalid_bases[at].astype(np.uint64) << shift
    return PackedSites(words=words, invalid=invalid,
                       seeds=build_seed_tables(words, invalid, flags,
                                               layout))


@dataclass(frozen=True)
class PackedWindowQuery:
    """One query strand packed against full windows: code word + care
    mask (bit ``2p`` set for every checked window position ``p``)."""

    word: np.uint64
    care: np.uint64


def pack_query_window(cq: CompiledPattern, offset: int
                      ) -> PackedWindowQuery:
    """Pack one strand at full-window offsets (0 = forward, plen =
    reverse).  Raises :class:`PatternError` for patterns longer than 32
    or ambiguity codes at checked positions."""
    if cq.plen > MAX_CHECKED_POSITIONS:
        raise PatternError(
            f"packed windows hold at most {MAX_CHECKED_POSITIONS} "
            f"positions, pattern has {cq.plen}")
    indices = cq.comp_index[offset:offset + cq.plen]
    checked = indices[indices >= 0].astype(np.int64)
    chars = cq.comp[checked + offset]
    if not _VALID[chars].all():
        bad = sorted({chr(c) for c in chars[~_VALID[chars]]})
        raise PatternError(
            f"bit-parallel comparer requires concrete A/C/G/T at checked "
            f"query positions; found {bad}")
    shifts = (2 * checked).astype(np.uint64)
    word = np.uint64(np.sum(_CODE[chars] << shifts, dtype=np.uint64))
    care = np.uint64(np.sum(np.uint64(1) << shifts, dtype=np.uint64))
    return PackedWindowQuery(word=word, care=care)


# ---------------------------------------------------------------------------
# Pigeonhole seed tables: compare bucket survivors, not every site
# ---------------------------------------------------------------------------
#
# A site within ``k - 1`` mismatches of a guide matches at least one of
# ``k`` disjoint, fully checked 4-nt blocks exactly.  Each chunk keeps,
# per strand and block, its candidates sorted by the block's 8-bit code,
# so a guide's survivors are the union of its ``k`` buckets (about
# ``k / 256`` of the strand's sites on random sequence).

#: Bases per seed block: one block's 2-bit codes fill one byte.
SEED_BLOCK = 4

#: Bucket for blocks holding a non-ACGT genome base.  No guide code
#: selects it: such a block mismatches every concrete guide base, so
#: it can never be the block that matches exactly.
_SENTINEL_BUCKET = 256

#: Buckets per block: the 256 codes plus the sentinel.
_BUCKETS = _SENTINEL_BUCKET + 1


@dataclass(frozen=True)
class SeedLayout:
    """Where one pattern's seed blocks sit in the site window.

    ``forward`` holds the block starts on the forward strand: the
    pattern's longest ``N`` run cut into 4-nt blocks from its start.
    Reverse-strand windows hold the reverse complement, so their blocks
    are the mirror images, ``plen - 4 - start``.
    """

    plen: int
    forward: Tuple[int, ...]

    @property
    def reverse(self) -> Tuple[int, ...]:
        return tuple(self.plen - SEED_BLOCK - s for s in self.forward)

    def starts(self, strand: int) -> Tuple[int, ...]:
        """Block starts of strand ``0`` (forward) or ``1`` (reverse)."""
        return self.reverse if strand else self.forward


def seed_layout(pattern: CompiledPattern) -> SeedLayout:
    """The seed layout of a PAM pattern (``N``x21 + ``RG`` gives
    forward starts 0, 4, 8, 12, 16; a pattern without a 4-``N`` run
    gets no blocks, and every query then takes the full scan)."""
    runs = [m.span() for m in re.finditer("N+", pattern.decode())]
    start, end = max(runs, key=lambda run: run[1] - run[0],
                     default=(0, 0))
    return SeedLayout(plen=pattern.plen, forward=tuple(
        range(start, end - SEED_BLOCK + 1, SEED_BLOCK)))


def _block_shifts(layout: SeedLayout, strand: int) -> np.ndarray:
    """Bit offsets of one strand's seed blocks in a packed word."""
    return 2 * np.asarray(layout.starts(strand), dtype=np.uint64)


@dataclass(frozen=True)
class StrandSeeds:
    """One strand's seed tables for one chunk.

    ``index`` lists the strand's candidate indices in ascending order
    (the full-scan candidate set).  Row ``b`` of ``order`` holds the
    same indices stably sorted by block ``b``'s code.  With ``k = 257
    * b + c``, bucket ``c`` of block ``b`` is
    ``order.ravel()[offsets[k]:offsets[k + 1]]``.
    """

    index: np.ndarray    # (n,) uint16/uint32 candidate indices
    order: np.ndarray    # (blocks, n) same dtype, bucket-sorted
    offsets: np.ndarray  # (257 * blocks + 1,) int64 bucket bounds


@dataclass(frozen=True)
class SeedTables:
    """Per-chunk seed tables: the layout plus forward/reverse strands."""

    layout: SeedLayout
    strands: Tuple[StrandSeeds, StrandSeeds]

    @property
    def nbytes(self) -> int:
        return sum(array.nbytes for strand in self.strands
                   for array in (strand.index, strand.order,
                                 strand.offsets))


def build_seed_tables(words: np.ndarray, invalid: np.ndarray,
                      flags: np.ndarray, layout: SeedLayout
                      ) -> SeedTables:
    """Bucket one chunk's packed windows by every seed block's code.

    Index arrays are ``uint16`` when the chunk has at most 65,536
    candidates and ``uint32`` otherwise.  Each block's 8-bit codes are
    sorted with one stable (radix) argsort over the strand's sites,
    block by block, so the build's temporaries stay a few arrays of
    the strand's size rather than ``blocks`` of them.
    """
    dtype = np.uint16 if words.size <= 1 << 16 else np.uint32
    strands = []
    for strand in (0, 1):
        # Flag 0 sites are on both strands, 1 forward only, 2 reverse.
        index = np.flatnonzero((flags == 0) | (flags == strand + 1)
                               ).astype(dtype)
        strand_words = words[index]
        # Sites with a non-ACGT base are few: keep only theirs.
        bad = np.flatnonzero(invalid[index])
        bad_bits = invalid[index[bad]]
        shifts = _block_shifts(layout, strand)
        order = np.empty((shifts.size, index.size), dtype=dtype)
        counts = np.empty((shifts.size, _BUCKETS), dtype=np.int64)
        # One block at a time, so the temporaries stay O(sites).
        for b, shift in enumerate(shifts):
            keys = ((strand_words >> shift) & np.uint64(0xFF)
                    ).astype(np.uint16)
            keys[bad[((bad_bits >> shift) & np.uint64(0x55)) != 0]] = \
                _SENTINEL_BUCKET
            order[b] = index[np.argsort(keys, kind="stable")]
            counts[b] = np.bincount(keys, minlength=_BUCKETS)
        # Bucket k = 257 b + c of the flattened order starts after
        # every bucket before it, across blocks.
        offsets = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts.ravel(), out=offsets[1:])
        strands.append(StrandSeeds(index=index, order=order,
                                   offsets=offsets))
    return SeedTables(layout=layout, strands=tuple(strands))


@dataclass(frozen=True)
class GuideBatch:
    """One batch of guides packed for the resident comparer.

    Rows follow the batch's query order.  Rows of guides that cannot be
    packed (``packable`` false) hold zeros and are never compared.
    A block is *usable* for a guide when all of its positions are
    checked; a packable guide is *seeded* when it has more usable
    blocks than its mismatch budget, so the union of its usable
    blocks' buckets holds every hit.  Each ``(seeded row, usable
    block)`` pair is one bucket lookup, ``bucket[strand]`` being its
    position in a chunk's :attr:`StrandSeeds.offsets`.
    """

    packable: np.ndarray    # (nq,) bool
    words: np.ndarray       # (2, nq) uint64 forward/reverse words
    cares: np.ndarray       # (2, nq) uint64 checked-position masks
    thresholds: np.ndarray  # (nq,) int64 mismatch budgets
    seeded: np.ndarray      # (nq,) bool
    full_rows: np.ndarray   # (f,) int64 packable rows not seeded
    lookup_rows: np.ndarray  # (p,) int64 row of each bucket lookup
    bucket: np.ndarray      # (2, p) int64 ``257 * block + code``


@lru_cache(maxsize=64)
def guide_batch(specs: Tuple[Tuple[str, int], ...],
                layout: SeedLayout) -> GuideBatch:
    """Pack a batch of ``(sequence, max_mismatches)`` guides once.

    The comparer runs once per chunk with the same batch, so the packed
    words, care masks and usable-block codes are computed for the
    first chunk (or the index's batch counters) and every later chunk
    reuses them.  Both strands have the same usable blocks, because
    the reverse layout mirrors the forward one.  The arrays are shared
    and read-only.
    """
    nq = len(specs)
    words = np.zeros((2, nq), dtype=np.uint64)
    cares = np.zeros((2, nq), dtype=np.uint64)
    packable = np.zeros(nq, dtype=bool)
    for row, (sequence, _) in enumerate(specs):
        cq = compile_pattern(sequence)
        try:
            strands = (pack_query_window(cq, 0),
                       pack_query_window(cq, cq.plen))
        except PatternError:
            continue
        packable[row] = True
        for strand, packed in enumerate(strands):
            words[strand, row] = packed.word
            cares[strand, row] = packed.care
    usable = ((cares[0][:, None] >> _block_shifts(layout, 0))
              & np.uint64(0x55)) == 0x55
    thresholds = np.array([mm for _, mm in specs], dtype=np.int64)
    seeded = packable & (usable.sum(axis=1) > thresholds)
    lookup_rows, blocks = np.nonzero(usable & seeded[:, None])
    bucket = np.stack([
        blocks * _BUCKETS
        + ((words[strand, lookup_rows]
            >> _block_shifts(layout, strand)[blocks])
           & np.uint64(0xFF)).astype(np.int64)
        for strand in (0, 1)])
    batch = GuideBatch(
        packable=packable, words=words, cares=cares,
        thresholds=thresholds, seeded=seeded,
        full_rows=np.flatnonzero(packable & ~seeded),
        lookup_rows=lookup_rows, bucket=bucket)
    for array in vars(batch).values():
        array.flags.writeable = False
    return batch


def batch_specs(queries: Sequence[Query]) -> Tuple[Tuple[str, int], ...]:
    """The :func:`guide_batch` cache key of a query list."""
    return tuple((q.sequence, int(q.max_mismatches)) for q in queries)


#: Mirrors :meth:`repro.runtime.executor.NDRangeExecutor.run_vectorized`:
#: vectorized kernels are fused into blocks of this many work-items, and
#: each block emits forward-strand hits then reverse-strand hits.  The
#: packed comparer replays the same block structure so its per-query
#: triples are element-identical to the kernel path.
_VECTORIZED_BLOCK_ITEMS = 1 << 20


def _mismatches(words: np.ndarray, invalid: np.ndarray,
                qwords: np.ndarray, qcares: np.ndarray) -> np.ndarray:
    """Checked mismatches of site windows against query strands (any
    broadcastable shapes): XOR, odd-bit fold, invalid positions forced
    on, care mask, popcount."""
    x = words ^ qwords
    m = ((x | (x >> np.uint64(1))) & _ODD_BITS) | invalid
    m &= qcares
    return popcount64(m)


def _strand_hits(packed: PackedSites, strand: int, guides: GuideBatch
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(row, candidate, mismatches)`` of one strand's hits.

    Seeded rows compare the union of their usable blocks' buckets,
    deduplicated and ascending per row: every bucket is gathered at
    once with one offsets lookup and a ``repeat`` + ``arange`` index.
    The other packable rows compare the strand's whole candidate list.
    Both go through :func:`_mismatches`.
    """
    seeds = packed.seeds.strands[strand]
    count = packed.words.size
    qwords, qcares = guides.words[strand], guides.cares[strand]
    lo = seeds.offsets[guides.bucket[strand]]
    lengths = seeds.offsets[guides.bucket[strand] + 1] - lo
    ends = np.cumsum(lengths)
    flat = (np.repeat(lo - ends + lengths, lengths)
            + np.arange(ends[-1] if ends.size else 0))
    keys = (np.repeat(guides.lookup_rows * count, lengths)
            + seeds.order.ravel()[flat])
    keys.sort()
    keys = np.concatenate((keys[:1], keys[1:][keys[1:] != keys[:-1]]))
    q, c = np.divmod(keys, count)
    counts = _mismatches(packed.words[c], packed.invalid[c], qwords[q],
                         qcares[q])
    keep = counts <= guides.thresholds[q]
    full = guides.full_rows
    if not full.size:
        return q[keep], c[keep], counts[keep]
    index = seeds.index.astype(np.int64)
    full_counts = _mismatches(packed.words[index][None, :],
                              packed.invalid[index][None, :],
                              qwords[full, None], qcares[full, None])
    r, col = np.nonzero(full_counts <= guides.thresholds[full, None])
    return (np.concatenate([q[keep], full[r]]),
            np.concatenate([c[keep], index[col]]),
            np.concatenate([counts[keep], full_counts[r, col]]))


def compare_packed_batched(packed: PackedSites, loci: np.ndarray,
                           guides: GuideBatch
                           ) -> List[Tuple[np.ndarray, np.ndarray,
                                           np.ndarray]]:
    """All-queries comparer over resident packed planes, one chunk.

    Returns one ``(mm_loci, mm_count, direction)`` triple per row of
    ``guides`` in the exact emission order of the batched vectorized
    kernel (per work-item block: ascending forward-strand candidates,
    then reverse), filtered to each query's mismatch budget.  Rows that
    are not packable get empty triples; the caller routes those queries
    to the byte comparer.
    """
    count = int(loci.size)
    parts = []
    for strand in (0, 1):
        q, c, counts = _strand_hits(packed, strand, guides)
        parts.append((q, c, counts, np.full(q.size, strand)))
    q, c, counts, strand = (np.concatenate(p) for p in zip(*parts))
    blocks = count // _VECTORIZED_BLOCK_ITEMS + 1
    order = np.argsort(
        ((q * blocks + c // _VECTORIZED_BLOCK_ITEMS) * 2 + strand)
        * count + c)
    bounds = np.searchsorted(q[order], np.arange(len(guides.seeded) + 1))
    c, strand = c[order], strand[order]
    mm_loci = loci[c].astype(np.uint32)
    mm_count = counts[order].astype(np.uint16)
    direction = np.where(strand == 0, ord("+"), ord("-")).astype(np.uint8)
    return [(mm_loci[lo:hi], mm_count[lo:hi], direction[lo:hi])
            for lo, hi in zip(bounds[:-1], bounds[1:])]


class BitParallelComparer:
    """Precompiled bit-parallel comparer for one query set."""

    def __init__(self, queries: Sequence[Union[str, Query]]):
        self.packed: List[Tuple[PackedQuery, PackedQuery]] = []
        for query in queries:
            text = query.sequence if isinstance(query, Query) else query
            cq = compile_pattern(text)
            self.packed.append((pack_query_strand(cq, 0),
                                pack_query_strand(cq, cq.plen)))

    def counts(self, query_index: int, chunk: np.ndarray,
               loci: np.ndarray, strand: str) -> np.ndarray:
        forward, reverse = self.packed[query_index]
        packed = forward if strand == "+" else reverse
        return count_mismatches_packed(chunk, loci.astype(np.int64),
                                       packed)


class BitParallelCasOffinder(SyclCasOffinder):
    """The SYCL pipeline with the comparer swapped for the 2-bit packed
    algorithm — the related-work baseline as a drop-in engine."""

    api = "sycl-bitparallel"

    def _run_comparer(self, chr_buf, loci_buf, flag_buf, count, cq,
                      threshold, vector_mode):
        if count == 0:
            return (np.zeros(0, np.uint32), np.zeros(0, np.uint16),
                    np.zeros(0, np.uint8))
        from ..runtime.sycl import sycl_read
        chunk = chr_buf.get_host_access(sycl_read).data
        loci = loci_buf.get_host_access(sycl_read).data[:count] \
            .astype(np.int64)
        flags = flag_buf.get_host_access(sycl_read).data[:count]
        fwd = pack_query_strand(cq, 0)
        rev = pack_query_strand(cq, cq.plen)
        out_loci: List[np.ndarray] = []
        out_counts: List[np.ndarray] = []
        out_dirs: List[np.ndarray] = []
        for packed, direction, selector in (
                (fwd, ord("+"), (flags == 0) | (flags == 1)),
                (rev, ord("-"), (flags == 0) | (flags == 2))):
            sub = loci[selector]
            if sub.size == 0:
                continue
            counts = count_mismatches_packed(chunk, sub, packed)
            keep = counts <= threshold
            kept = int(keep.sum())
            if not kept:
                continue
            out_loci.append(sub[keep].astype(np.uint32))
            out_counts.append(counts[keep].astype(np.uint16))
            out_dirs.append(np.full(kept, direction, dtype=np.uint8))
        if not out_loci:
            return (np.zeros(0, np.uint32), np.zeros(0, np.uint16),
                    np.zeros(0, np.uint8))
        return (np.concatenate(out_loci), np.concatenate(out_counts),
                np.concatenate(out_dirs))


def bitparallel_search(assembly: Assembly, request: SearchRequest,
                       device: str = "MI100",
                       chunk_size: int = DEFAULT_CHUNK_SIZE
                       ) -> PipelineResult:
    """Run a search with the bit-parallel comparer baseline."""
    pipeline = BitParallelCasOffinder(device=device,
                                      chunk_size=chunk_size)
    return pipeline.search(assembly, request)
