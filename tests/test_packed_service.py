"""Packed 2-bit resident index: equivalence, persistence, degrade.

The packed comparer is an optimization, never a semantic change: every
test here pins packed-mode output byte-identical to the byte comparer —
across random genomes with N runs, ambiguity-code queries riding the
per-query fallback, the sharded serving tier, and save/load
roundtrips.  Degrade paths (non-ACGTN genome bytes, over-long
patterns, stale on-disk versions) must fall back loudly, not serve
wrong answers.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitparallel import seed_layout
from repro.core.config import Query
from repro.core.patterns import compile_pattern, reverse_complement
from repro.genome.assembly import Assembly, Chromosome
from repro.service import (BatchScheduler, GenomeSiteIndex,
                           ShardedSiteIndex, SiteIndexVersionError)

PATTERN = "NNNNNNRG"
QUERIES = [Query("GACGTCNN", 3), Query("TTACGANN", 2)]
#: R at a checked position: packed rejects it, per-query fallback runs.
FALLBACK_QUERY = Query("GRCGTCNN", 3)
CHUNK = 1 << 12

_ACGT = np.frombuffer(b"ACGT", dtype=np.uint8)


def _random_genome(seed: int, n: int) -> Assembly:
    rng = np.random.default_rng(seed)
    seq = rng.choice(_ACGT, n)
    lo = int(rng.integers(0, max(1, n - 60)))
    seq[lo:lo + 50] = ord("N")  # an unsequenced run
    return Assembly(f"rand-{seed}", [Chromosome("c", seq)])


def _pair(assembly, pattern=PATTERN, chunk_size=CHUNK):
    byte_idx = GenomeSiteIndex.build(assembly, pattern,
                                     chunk_size=chunk_size,
                                     packed=False)
    packed_idx = GenomeSiteIndex.build(assembly, pattern,
                                       chunk_size=chunk_size,
                                       packed=True)
    return byte_idx, packed_idx


class TestEquivalence:
    def test_modes_report_correctly(self, small_assembly):
        byte_idx, packed_idx = _pair(small_assembly)
        assert not byte_idx.packed
        assert packed_idx.packed
        assert packed_idx.packed_disabled_reason is None
        assert all(e.packed is not None for e in packed_idx.entries
                   if e.loci.size)

    def test_fallback_query_identical(self, small_assembly):
        byte_idx, packed_idx = _pair(small_assembly)
        queries = QUERIES + [FALLBACK_QUERY]
        assert packed_idx.query_batch(queries) == \
            byte_idx.query_batch(queries)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10 ** 6),
           sequences=st.lists(
               st.text(alphabet="ACGTRN", min_size=8, max_size=8),
               min_size=1, max_size=3))
    def test_packed_matches_byte_property(self, seed, sequences):
        """Packed == byte over random genomes, N runs, IUPAC queries."""
        assembly = _random_genome(seed, 1500 + seed % 700)
        byte_idx, packed_idx = _pair(assembly, chunk_size=600)
        queries = [Query(seq, mm) for mm, seq
                   in enumerate(sequences, start=2)]
        assert packed_idx.query_batch(queries) == \
            byte_idx.query_batch(queries)


class TestCrossTier:
    def test_sharded_packed_matches_inprocess_byte(self,
                                                   small_assembly):
        """serve --packed --shards 2 == in-process unpacked."""
        byte_idx, packed_idx = _pair(small_assembly)
        queries = QUERIES + [FALLBACK_QUERY]
        reference = byte_idx.query_batch(queries)
        sharded = ShardedSiteIndex(packed_idx, shards=2)
        try:
            assert sharded.packed
            assert sharded.query_batch(queries) == reference
            stats = sharded.comparer_stats()
        finally:
            sharded.close()
        assert stats["mode"] == "packed"
        assert stats["queries_packed"] == len(QUERIES)
        assert stats["queries_fallback"] == 1

    def test_packed_segments_are_smaller(self, small_assembly):
        byte_idx, packed_idx = _pair(small_assembly)
        sharded_packed = ShardedSiteIndex(packed_idx, shards=2,
                                          start=False)
        try:
            packed_bytes = sharded_packed.segment_bytes()
        finally:
            sharded_packed.close()
        sharded_byte = ShardedSiteIndex(byte_idx, shards=2,
                                        start=False)
        try:
            byte_bytes = sharded_byte.segment_bytes()
        finally:
            sharded_byte.close()
        assert packed_bytes["mode"] == "packed"
        assert packed_bytes["genome"] == 0, \
            "packed layout publishes no genome segment"
        assert byte_bytes["total"] >= 2 * packed_bytes["total"]


class TestPersistence:
    def test_roundtrip_reuses_stored_planes(self, small_assembly,
                                            tmp_path):
        byte_idx, packed_idx = _pair(small_assembly)
        packed_idx.save(str(tmp_path))
        loaded = GenomeSiteIndex.load(str(tmp_path), small_assembly,
                                      packed=True)
        assert loaded.packed
        for ours, theirs in zip(loaded.entries, packed_idx.entries):
            if ours.packed is None:
                assert theirs.packed is None
                continue
            np.testing.assert_array_equal(ours.packed.words,
                                          theirs.packed.words)
            np.testing.assert_array_equal(ours.packed.invalid,
                                          theirs.packed.invalid)
        queries = QUERIES + [FALLBACK_QUERY]
        assert loaded.query_batch(queries) == \
            byte_idx.query_batch(queries)

    def test_load_unpacked_from_packed_save(self, small_assembly,
                                            tmp_path):
        byte_idx, packed_idx = _pair(small_assembly)
        packed_idx.save(str(tmp_path))
        loaded = GenomeSiteIndex.load(str(tmp_path), small_assembly,
                                      packed=False)
        assert not loaded.packed
        assert loaded.query_batch(QUERIES) == \
            byte_idx.query_batch(QUERIES)

    def test_load_packs_fresh_from_byte_save(self, small_assembly,
                                             tmp_path):
        """A v2 byte-mode save carries no planes; load repacks them."""
        byte_idx, _ = _pair(small_assembly)
        byte_idx.save(str(tmp_path))
        loaded = GenomeSiteIndex.load(str(tmp_path), small_assembly,
                                      packed=True)
        assert loaded.packed
        assert loaded.query_batch(QUERIES) == \
            byte_idx.query_batch(QUERIES)

    def test_old_version_raises_version_error(self, small_assembly,
                                              tmp_path):
        _, packed_idx = _pair(small_assembly)
        packed_idx.save(str(tmp_path))
        manifest = tmp_path / "index.json"
        header = json.loads(manifest.read_text())
        header["version"] = 1
        manifest.write_text(json.dumps(header))
        with pytest.raises(SiteIndexVersionError, match="rebuild"):
            GenomeSiteIndex.load(str(tmp_path), small_assembly)


class TestDegrade:
    def test_non_acgtn_genome_degrades_to_byte(self):
        rng = np.random.default_rng(11)
        seq = rng.choice(_ACGT, 2000)
        seq[500] = ord("R")  # a real-world IUPAC base in the reference
        assembly = Assembly("iupac", [Chromosome("c", seq)])
        byte_idx, packed_idx = _pair(assembly, chunk_size=600)
        assert not packed_idx.packed
        assert "A/C/G/T/N" in packed_idx.packed_disabled_reason
        assert packed_idx.query_batch(QUERIES) == \
            byte_idx.query_batch(QUERIES)

    def test_long_pattern_degrades_to_byte(self, small_assembly):
        pattern = "N" * 31 + "RG"  # 33 > 32 packed-window positions
        idx = GenomeSiteIndex.build(small_assembly, pattern,
                                    chunk_size=CHUNK, packed=True)
        assert not idx.packed
        assert "32" in idx.packed_disabled_reason
        query = Query("GACGTC" + "A" * 25 + "NN", 20)
        byte_idx = GenomeSiteIndex.build(small_assembly, pattern,
                                         chunk_size=CHUNK,
                                         packed=False)
        assert idx.query_batch([query]) == \
            byte_idx.query_batch([query])

    def test_comparer_stats_counters(self, small_assembly):
        _, packed_idx = _pair(small_assembly)
        packed_idx.query_batch(QUERIES + [FALLBACK_QUERY])
        stats = packed_idx.comparer_stats()
        assert stats["mode"] == "packed"
        assert stats["queries_packed"] == len(QUERIES)
        assert stats["queries_fallback"] == 1

    def test_scheduler_stats_carry_comparer_section(self,
                                                    small_assembly):
        _, packed_idx = _pair(small_assembly)
        scheduler = BatchScheduler(packed_idx, max_batch=4,
                                   max_wait_ms=1.0)
        try:
            scheduler.submit(QUERIES).result(timeout=30.0)
            stats = scheduler.stats()
        finally:
            scheduler.close()
        assert stats["comparer"]["mode"] == "packed"
        assert stats["comparer"]["queries_packed"] >= len(QUERIES)
        # One 4-nt block under NNNNNNRG: budgets 3 and 2 take the full
        # scan, and the stats op says so.
        assert stats["comparer"]["queries_prefiltered"] == 0


# ---------------------------------------------------------------------------
# Pigeonhole seed prefilter
# ---------------------------------------------------------------------------

SPCAS9 = "N" * 21 + "RG"
CAS12A = "TTTV" + "N" * 23
#: A site both strands select (flag 0), per pattern: forward PAM and
#: the reverse complement of one in the same window.
_BOTH_STRANDS = {SPCAS9: ("CC", "GG"), CAS12A: ("TTTA", "TAAA")}
#: Query positions outside the spacer, left as N in every guide.
_PAM = {SPCAS9: slice(20, 23), CAS12A: slice(0, 4)}


def _seeded_genome(seed: int, pattern: str, n: int) -> Assembly:
    """Random ACGT with N runs and one planted flag-0 site."""
    rng = np.random.default_rng(seed)
    seq = rng.choice(_ACGT, n)
    for _ in range(2):
        lo = int(rng.integers(0, n - 40))
        seq[lo:lo + int(rng.integers(1, 30))] = ord("N")
    head, tail = _BOTH_STRANDS[pattern]
    at = int(rng.integers(0, n - len(pattern)))
    seq[at:at + len(head)] = np.frombuffer(head.encode(), np.uint8)
    end = at + len(pattern)
    seq[end - len(tail):end] = np.frombuffer(tail.encode(), np.uint8)
    return Assembly(f"seeded-{seed}", [Chromosome("c", seq)])


def _guide_from_site(index, pick: int, reverse: bool, edits: int,
                     n_in_spacer: bool, seed: int) -> str:
    """A guide aimed at one candidate site: the site in query
    orientation with the PAM masked to N, then ``edits`` substitutions
    and optionally one N inside the spacer."""
    rng = np.random.default_rng(seed)
    sites = [(e, i) for e in index.entries for i in range(e.loci.size)]
    entry, i = sites[pick % len(sites)]
    plen = index.compiled_pattern.plen
    guide = entry.data[int(entry.loci[i]):int(entry.loci[i]) + plen]
    flag = int(entry.flags[i])
    if flag == 2 or (flag == 0 and reverse):
        guide = reverse_complement(guide)
    guide = guide.copy()
    guide[_PAM[index.pattern]] = ord("N")
    spacer = np.flatnonzero(guide != ord("N"))
    for p in rng.choice(spacer, min(edits, spacer.size), replace=False):
        guide[p] = rng.choice(_ACGT[_ACGT != guide[p]])
    if n_in_spacer:
        guide[rng.choice(spacer)] = ord("N")
    return guide.tobytes().decode("ascii")


def _triples(index, queries):
    from repro.core.pipeline import ResidentChunk
    compiled = [compile_pattern(q.sequence) for q in queries]
    return [index.pipeline.compare_resident_triples(
                ResidentChunk(chrom=e.chrom, start=e.start,
                              scan_length=e.scan_length, data=e.data,
                              loci=e.loci, flags=e.flags,
                              packed=e.packed),
                queries, compiled)
            for e in index.entries]


def _assert_triples_equal(ours, theirs):
    assert len(ours) == len(theirs)
    for a, b in zip(ours, theirs):
        if a is None or b is None:
            assert a is None and b is None
            continue
        for x, y in zip(a, b):
            for u, v in zip(x, y):
                assert u.dtype == v.dtype
                np.testing.assert_array_equal(u, v)


class TestSeedLayout:
    @pytest.mark.parametrize("pattern,forward,reverse", [
        (SPCAS9, (0, 4, 8, 12, 16), (19, 15, 11, 7, 3)),
        (CAS12A, (4, 8, 12, 16, 20), (19, 15, 11, 7, 3)),
        (PATTERN, (0,), (4,)),
        ("NNNRG", (), ()),
    ])
    def test_blocks_cut_longest_n_run(self, pattern, forward, reverse):
        layout = seed_layout(compile_pattern(pattern))
        assert layout.forward == forward
        assert layout.reverse == reverse

    @pytest.mark.parametrize("pattern", [SPCAS9, CAS12A])
    def test_buckets_match_per_site_codes(self, pattern):
        """Every bucket lists, in ascending order, exactly the strand's
        candidates whose block reads that code; a block holding a
        genome N goes to the sentinel bucket 256."""
        index = GenomeSiteIndex.build(_seeded_genome(3, pattern, 3000),
                                      pattern, chunk_size=1000,
                                      packed=True)
        value = {ord(b): v for v, b in enumerate("ACGT")}
        sentinel_seen = False
        for entry in index.entries:
            tables = entry.packed.seeds
            for strand, (seeds, starts) in enumerate(zip(
                    tables.strands, (tables.layout.forward,
                                     tables.layout.reverse))):
                assert seeds.index.dtype == np.uint16
                wanted = (1, 2)[strand]
                assert seeds.index.tolist() == [
                    i for i, f in enumerate(entry.flags.tolist())
                    if f in (0, wanted)]
                for b, start in enumerate(starts):
                    buckets = {}
                    for i in seeds.index.tolist():
                        lo = int(entry.loci[i]) + start
                        block = entry.data[lo:lo + 4].tolist()
                        code = (256 if any(x not in value for x in block)
                                else sum(value[x] << 2 * j
                                         for j, x in enumerate(block)))
                        sentinel_seen |= code == 256
                        buckets.setdefault(code, []).append(i)
                    for code in range(257):
                        k = 257 * b + code
                        got = seeds.order.ravel()[
                            seeds.offsets[k]:seeds.offsets[k + 1]]
                        assert got.tolist() == buckets.get(code, [])
        assert sentinel_seen


def _seed_tables_all_blocks(words, invalid, flags, layout):
    """The one-pass construction the block-by-block build replaced:
    every block's keys in one ``(blocks, n)`` array, one argsort."""
    from repro.core.bitparallel import _block_shifts

    dtype = np.uint16 if words.size <= 1 << 16 else np.uint32
    strands = []
    for strand in (0, 1):
        index = np.flatnonzero((flags == 0) | (flags == strand + 1)
                               ).astype(dtype)
        shifts = _block_shifts(layout, strand)[:, None]
        keys = ((words[index][None, :] >> shifts)
                & np.uint64(0xFF)).astype(np.uint16)
        keys[((invalid[index][None, :] >> shifts)
              & np.uint64(0x55)) != 0] = 256
        keys += (257 * np.arange(shifts.size, dtype=np.uint16))[:, None]
        offsets = np.zeros(257 * shifts.size + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys.ravel(), minlength=offsets.size - 1),
                  out=offsets[1:])
        strands.append((index, index[np.argsort(keys, axis=1,
                                                kind="stable")],
                        offsets))
    return strands


class TestSeedTableBuild:
    @pytest.mark.parametrize("n", [5000, (1 << 16) + 1, 150_000])
    @pytest.mark.parametrize("pattern", [SPCAS9, CAS12A])
    def test_matches_all_blocks_construction(self, n, pattern):
        """Block-by-block tables equal the one-pass construction
        element for element, under both index dtypes, with genome-N
        blocks in the sentinel bucket."""
        from repro.core.bitparallel import build_seed_tables

        rng = np.random.default_rng(n)
        words = rng.integers(0, 1 << 63, n, dtype=np.uint64) \
            | rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63)
        invalid = np.zeros(n, dtype=np.uint64)
        bad = rng.integers(0, n, n // 50)
        invalid[bad] = np.uint64(1) << (
            2 * rng.integers(0, 23, bad.size)).astype(np.uint64)
        flags = rng.integers(0, 3, n).astype(np.uint8)
        layout = seed_layout(compile_pattern(pattern))
        got = build_seed_tables(words, invalid, flags, layout)
        want = _seed_tables_all_blocks(words, invalid, flags, layout)
        dtype = np.uint16 if n <= 1 << 16 else np.uint32
        for seeds, (index, order, offsets) in zip(got.strands, want):
            assert seeds.index.dtype == seeds.order.dtype == dtype
            for u, v in ((seeds.index, index), (seeds.order, order),
                         (seeds.offsets, offsets)):
                assert u.dtype == v.dtype and u.shape == v.shape
                np.testing.assert_array_equal(u, v)
            sentinel = 257 * np.arange(len(layout.forward)) + 256
            assert (offsets[sentinel + 1] > offsets[sentinel]).all()


class TestPrefilterEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10 ** 6),
           pattern=st.sampled_from([SPCAS9, CAS12A]),
           guides=st.lists(st.tuples(
               st.integers(0, 10 ** 6),    # which candidate site
               st.booleans(),              # reverse orientation (flag 0)
               st.integers(0, 3),          # substitutions
               st.booleans(),              # an N inside the spacer
               st.integers(0, 6)),         # mismatch budget
               min_size=1, max_size=5),
           chunk_size=st.sampled_from([500, 1200, 4000]))
    def test_prefiltered_matches_byte_comparer(self, seed, pattern,
                                               guides, chunk_size):
        """Seeded packed index == byte comparer: hits and triples,
        budgets 0-6 (5 and 6 take the full scan), N runs, N inside the
        spacer (a dropped block), flag-0 sites and empty buckets."""
        assembly = _seeded_genome(seed, pattern, 2500 + seed % 1500)
        byte_idx, packed_idx = _pair(assembly, pattern=pattern,
                                     chunk_size=chunk_size)
        assert packed_idx.packed
        if not packed_idx.site_count:
            return
        queries = [Query(_guide_from_site(packed_idx, pick, rev, edits,
                                          n_in, seed + k), mm)
                   for k, (pick, rev, edits, n_in, mm)
                   in enumerate(guides)]
        assert packed_idx.query_batch(queries) == \
            byte_idx.query_batch(queries)
        _assert_triples_equal(_triples(packed_idx, queries),
                              _triples(byte_idx, queries))

    def test_n_in_spacer_drops_a_block(self):
        """An N inside the spacer leaves 4 usable blocks: budget 3 is
        prefiltered, budget 4 takes the full scan and still finds a
        site with one mismatch in each usable block."""
        rng = np.random.default_rng(9)
        seq = rng.choice(_ACGT, 3000)
        guide = rng.choice(_ACGT, 20)
        site = guide.copy()
        site[1] = ord("C")  # under the guide's N: not a mismatch
        for p in (5, 9, 13, 17):  # one mismatch per usable block
            site[p] = rng.choice(_ACGT[_ACGT != site[p]])
        seq[1000:1023] = np.concatenate(
            [site, np.frombuffer(b"AGG", np.uint8)])
        guide[1] = ord("N")
        sequence = guide.tobytes().decode("ascii") + "NNN"
        assembly = Assembly("n-spacer", [Chromosome("c", seq)])
        byte_idx, packed_idx = _pair(assembly, pattern=SPCAS9)
        queries = [Query(sequence, 4), Query(sequence, 3)]
        hits = packed_idx.query_batch(queries)
        assert hits == byte_idx.query_batch(queries)
        assert (1000, "+", 4) in [(h.position, h.strand, h.mismatches)
                                  for h in hits[0]]
        assert packed_idx.comparer_stats()["queries_prefiltered"] == 1

    @pytest.mark.slow
    def test_block_replay_over_a_million_candidates(self):
        """One chunk with more than 1 << 20 candidates: bucket
        survivors re-emit per work-item block, forward then reverse,
        exactly as the kernel path does."""
        rng = np.random.default_rng(5)
        n = 1_250_000
        seq = np.full(n, ord("G"), np.uint8)
        other = rng.random(n) < 0.03
        seq[other] = rng.choice(np.frombuffer(b"ACT", np.uint8),
                                int(other.sum()))
        guide = "ACGTTGCAACGTAGCTAGCA"
        for pos, reverse, edits in ((1000, False, ()),
                                    (5000, True, (3,)),
                                    (1_180_000, True, ()),
                                    (1_200_000, False, (1, 9)),
                                    (1_230_000, True, (17,))):
            site = np.frombuffer((guide + "AGG").encode(),
                                 np.uint8).copy()
            for p in edits:
                site[p] = ord("T") if site[p] != ord("T") else ord("C")
            if reverse:
                site = reverse_complement(site)
            seq[pos:pos + 23] = site
        assembly = Assembly("g-rich", [Chromosome("c", seq)])
        byte_idx, packed_idx = _pair(assembly, pattern=SPCAS9,
                                     chunk_size=1 << 22)
        (entry,) = packed_idx.entries
        assert entry.loci.size > 1 << 20
        assert entry.packed.seeds.strands[0].index.dtype == np.uint32
        queries = [Query(guide + "NNN", mm) for mm in (0, 2, 4, 6)]
        hits = packed_idx.query_batch(queries)
        assert hits == byte_idx.query_batch(queries)
        assert [(h.position, h.strand) for h in hits[2]] == [
            (1000, "+"), (5000, "-"),  # block 0: forward, then reverse
            (1_200_000, "+"), (1_180_000, "-"), (1_230_000, "-")]
        _assert_triples_equal(_triples(packed_idx, queries[1:3]),
                              _triples(byte_idx, queries[1:3]))
        assert packed_idx.comparer_stats()["queries_prefiltered"] == 3


class TestPrefilterCrossTier:
    """23-nt pattern at 4 mismatches: every tier prefilters and equals
    the in-process byte index."""

    @pytest.fixture(scope="class")
    def indexes(self, small_assembly):
        return _pair(small_assembly, pattern=SPCAS9)

    @pytest.fixture(scope="class")
    def queries(self, indexes):
        _, packed_idx = indexes
        return [Query(_guide_from_site(packed_idx, pick, False, edits,
                                       False, pick), 4)
                for pick, edits in ((11, 0), (400, 2), (1500, 3),
                                    (2200, 4))]

    def test_sharded_prefilters(self, indexes, queries):
        byte_idx, packed_idx = indexes
        reference = byte_idx.query_batch(queries)
        assert sum(map(len, reference)) >= len(queries)
        with ShardedSiteIndex(packed_idx, shards=2) as sharded:
            assert sharded.query_batch(queries) == reference
            stats = sharded.comparer_stats()
        assert stats["batches_sharded"] == 1
        assert stats["queries_prefiltered"] == len(queries)

    def test_loaded_index_prefilters(self, indexes, queries, tmp_path):
        byte_idx, packed_idx = indexes
        packed_idx.save(str(tmp_path))
        loaded = GenomeSiteIndex.load(str(tmp_path), packed_idx.assembly)
        for ours, theirs in zip(loaded.entries, packed_idx.entries):
            for a, b in zip(ours.packed.seeds.strands,
                            theirs.packed.seeds.strands):
                for name in ("index", "order", "offsets"):
                    x, y = getattr(a, name), getattr(b, name)
                    assert x.dtype == y.dtype
                    np.testing.assert_array_equal(x, y)
        assert loaded.query_batch(queries) == \
            byte_idx.query_batch(queries)
        assert loaded.comparer_stats()["queries_prefiltered"] == \
            len(queries)

    def test_budget_past_blocks_takes_full_scan(self, indexes, queries):
        byte_idx, _ = indexes
        _, packed_idx = _pair(byte_idx.assembly, pattern=SPCAS9)
        wide = [Query(q.sequence, 5) for q in queries]
        assert packed_idx.query_batch(wide) == byte_idx.query_batch(wide)
        stats = packed_idx.comparer_stats()
        assert stats["queries_packed"] == len(wide)
        assert stats["queries_prefiltered"] == 0
