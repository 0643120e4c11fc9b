"""Unit tests for off-target hit records and the output format."""

import io
import json
import pickle
from itertools import repeat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import Query
from repro.core.patterns import (PatternError, compile_pattern,
                                 reverse_complement)
from repro.core.pipeline import render_hits
from repro.core.records import (HEADER, HitColumns, OffTargetHit,
                                read_hits, sort_hits, write_hits)
from repro.genome.fasta import sequence_to_array


def seq(text):
    return sequence_to_array(text)


class TestFromSite:
    def test_forward_hit_marks_mismatches_lowercase(self):
        window = seq("ACGTAGG")
        query = seq("ACCTNGG")  # mismatch at position 2 only
        hit = OffTargetHit.from_site("ACCTNGG", "chr1", 10, "+", 1,
                                     window, query)
        assert hit.site == "ACgTAGG"
        assert hit.position == 10
        assert hit.mismatches == 1

    def test_reverse_hit_displayed_in_query_orientation(self):
        window = seq("ACGTAGG")
        rc_query = reverse_complement(seq("CCTNACG"))  # compared vs window
        hit = OffTargetHit.from_site("CCTNACG", "chr1", 5, "-", 0,
                                     window, rc_query)
        # Display = revcomp(window), mismatch flags reversed.
        assert hit.site.upper() == "CCTACGT"
        assert hit.strand == "-"

    def test_no_mismatch_all_uppercase(self):
        window = seq("ACGT")
        hit = OffTargetHit.from_site("ACGT", "c", 0, "+", 0, window,
                                     seq("ACGT"))
        assert hit.site == "ACGT"

    def test_n_in_genome_marked_against_concrete_query(self):
        window = seq("ANGT")
        hit = OffTargetHit.from_site("ACGT", "c", 0, "+", 1, window,
                                     seq("ACGT"))
        # N is not a letter change candidate for lowercase (N stays N).
        assert hit.site[1] in ("N", "n")


class TestIO:
    def make_hits(self):
        return [
            OffTargetHit("ACGT", "chr2", 5, "+", 1, "ACgT"),
            OffTargetHit("ACGT", "chr1", 9, "-", 0, "ACGT"),
            OffTargetHit("ACGT", "chr1", 2, "+", 2, "AcgT"),
        ]

    def test_tsv_roundtrip_stream(self):
        hits = self.make_hits()
        out = io.StringIO()
        write_hits(hits, out)
        text = out.getvalue()
        assert text.startswith(HEADER)
        back = read_hits(io.StringIO(text))
        assert back == hits

    def test_tsv_roundtrip_file(self, tmp_path):
        path = tmp_path / "hits.tsv"
        hits = self.make_hits()
        write_hits(hits, path)
        assert read_hits(path) == hits

    def test_header_optional(self):
        out = io.StringIO()
        write_hits(self.make_hits(), out, header=False)
        assert not out.getvalue().startswith("#")

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="6 tab-separated"):
            read_hits(io.StringIO("a\tb\tc\n"))

    def test_sort_hits_canonical(self):
        ordered = sort_hits(self.make_hits())
        assert [(h.chrom, h.position) for h in ordered] == \
            [("chr1", 2), ("chr1", 9), ("chr2", 5)]

    def test_to_tsv_fields(self):
        hit = OffTargetHit("Q", "chr1", 3, "-", 2, "site")
        assert hit.to_tsv() == "Q\tchr1\t3\tsite\t-\t2"


class TestAtomicWrite:
    def make_hits(self):
        return TestIO.make_hits(self)

    def test_no_part_file_left_behind(self, tmp_path):
        path = tmp_path / "hits.tsv"
        write_hits(self.make_hits(), path)
        assert read_hits(path) == self.make_hits()
        assert list(tmp_path.iterdir()) == [path]

    def test_failed_write_preserves_previous_output(self, tmp_path):
        path = tmp_path / "hits.tsv"
        write_hits(self.make_hits(), path)
        before = path.read_bytes()

        def poisoned():
            yield self.make_hits()[0]
            raise RuntimeError("boom mid-iteration")

        with pytest.raises(RuntimeError, match="boom"):
            write_hits(poisoned(), path)
        # A crashed write never truncates the existing file, and the
        # temp file is cleaned up.
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_failed_write_leaves_no_file_when_none_existed(self,
                                                           tmp_path):
        path = tmp_path / "hits.tsv"

        def poisoned():
            raise RuntimeError("boom")
            yield  # pragma: no cover

        with pytest.raises(RuntimeError):
            write_hits(poisoned(), path)
        assert list(tmp_path.iterdir()) == []


FIELDS = ("query", "chrom", "position", "strand", "mismatches", "site")


def field_tuple(hit):
    return tuple(getattr(hit, name) for name in FIELDS)


class TestRecordSemantics:
    """The record keeps the semantics of a frozen, ordered dataclass
    over the same six fields."""

    def mixed_hits(self):
        return [
            OffTargetHit("GGCA", "chr2", 5, "+", 1, "GgCA"),
            OffTargetHit("ACGT", "chr1", 9, "-", 0, "ACGT"),
            OffTargetHit("ACGT", "chr1", 9, "+", 0, "ACGT"),
            OffTargetHit("ACGT", "chr1", 9, "+", 2, "AcgT"),
            OffTargetHit("ACGT", "chr1", 9, "+", 2, "ACgt"),
            OffTargetHit("ACGT", "chr10", 2, "+", 2, "AcgT"),
            OffTargetHit("ACGT", "chr1", 10, "-", 1, "ACGa"),
        ]

    def test_sorted_matches_field_tuple_order(self):
        hits = self.mixed_hits()
        assert sorted(hits) == sorted(hits, key=field_tuple)
        assert sort_hits(hits) == sorted(hits)

    def test_hashable_and_equal_by_fields(self):
        a = OffTargetHit("ACGT", "chr1", 9, "+", 0, "ACGT")
        b = OffTargetHit("ACGT", "chr1", 9, "+", 0, "ACGT")
        c = OffTargetHit("ACGT", "chr1", 9, "-", 0, "ACGT")
        assert a == b and hash(a) == hash(b)
        assert a != c
        assert len({a, b, c}) == 2

    def test_fields_are_immutable(self):
        hit = OffTargetHit("ACGT", "chr1", 9, "+", 0, "ACGT")
        for name in FIELDS:
            with pytest.raises(AttributeError):
                setattr(hit, name, getattr(hit, name))

    def test_pickle_round_trip(self):
        for hit in self.mixed_hits():
            back = pickle.loads(pickle.dumps(hit))
            assert back == hit and type(back) is OffTargetHit

    def test_tsv_round_trip(self):
        out = io.StringIO()
        write_hits(self.mixed_hits(), out)
        assert read_hits(io.StringIO(out.getvalue())) == self.mixed_hits()

    def test_positional_and_keyword_construction_agree(self):
        positional = OffTargetHit("ACGT", "chr1", 9, "-", 1, "ACGa")
        keyword = OffTargetHit(site="ACGa", mismatches=1, strand="-",
                               position=9, chrom="chr1", query="ACGT")
        assert positional == keyword
        assert field_tuple(positional) == ("ACGT", "chr1", 9, "-", 1,
                                           "ACGa")


def oracle_hits(data, chrom, start, query, cq, loci, counts, strands):
    """The per-hit reference rendering the vectorized pass must equal."""
    plen = cq.plen
    return [OffTargetHit.from_site(
                query.sequence, chrom, start + lo, strand, mm,
                data[lo:lo + plen],
                cq.sequence if strand == "+" else cq.rc_sequence)
            for lo, mm, strand in zip(loci, counts, strands)]


def triple(loci, counts, strands):
    return (np.asarray(loci, dtype=np.uint32),
            np.asarray(counts, dtype=np.uint8),
            np.frombuffer("".join(strands).encode("ascii"), np.uint8))


# Bases weighted towards ACGT, with N, the other IUPAC codes and a few
# soft-masked (lowercase) bases mixed in.
GENOME_ALPHABET = "ACGT" * 4 + "N" * 3 + "RYSWKMBDHV" + "acgtn"


@st.composite
def render_cases(draw):
    concrete = draw(st.booleans())
    guide_alphabet = "ACGT" if concrete else "ACGTRN"
    guide = draw(st.text(alphabet=guide_alphabet, min_size=1, max_size=12))
    plen = len(guide)
    genome = draw(st.text(alphabet=GENOME_ALPHABET, min_size=plen,
                          max_size=plen + 60))
    last = len(genome) - plen
    rows = draw(st.lists(st.tuples(st.integers(0, last),
                                   st.sampled_from("+-"),
                                   st.integers(0, plen)),
                         max_size=12))
    if draw(st.booleans()):
        # A window ending exactly at the end of the chunk data.
        rows.append((last, draw(st.sampled_from("+-")), 0))
    start = draw(st.integers(0, 10_000))
    return guide, genome, start, rows


class TestRenderHits:
    @settings(max_examples=200, deadline=None)
    @given(case=render_cases())
    def test_matches_per_hit_oracle(self, case):
        guide, genome, start, rows = case
        data = sequence_to_array(genome)
        query = Query(guide, 3)
        cq = compile_pattern(guide)
        loci = [row[0] for row in rows]
        strands = [row[1] for row in rows]
        counts = [row[2] for row in rows]
        got = render_hits(data, "chrQ", start, query, cq,
                          *triple(loci, counts, strands))
        want = oracle_hits(data, "chrQ", start, query, cq, loci, counts,
                           strands)
        assert got == want
        assert [field_tuple(h) for h in got] == \
            [field_tuple(h) for h in want]
        for hit in got:
            assert type(hit.position) is int
            assert type(hit.mismatches) is int

    def test_empty_triple(self):
        cq = compile_pattern("ACGT")
        assert render_hits(seq("ACGTACGT"), "c", 0, Query("ACGT", 1), cq,
                           *triple([], [], [])) == []

    def test_non_iupac_raises_on_reverse_row_only(self):
        data = seq("ACGTACGT").copy()
        data[6] = ord("!")
        cq = compile_pattern("ACGT")
        args = (data, "c", 0, Query("ACGT", 1), cq)
        # On a "+" row the byte is shown as it is, as the oracle does.
        assert render_hits(*args, *triple([0, 4], [0, 1], ["+", "+"])) \
            == oracle_hits(*args, [0, 4], [0, 1], ["+", "+"])
        with pytest.raises(PatternError):
            oracle_hits(*args, [0, 4], [0, 1], ["+", "-"])
        with pytest.raises(PatternError):
            render_hits(*args, *triple([0, 4], [0, 1], ["+", "-"]))

    def test_window_past_data_raises(self):
        cq = compile_pattern("ACGT")
        with pytest.raises(IndexError):
            render_hits(seq("ACGTACG"), "c", 0, Query("ACGT", 1), cq,
                        *triple([4], [0], ["+"]))


def wire_rows(hits):
    return [[h.query, h.chrom, h.position, h.site, h.strand, h.mismatches]
            for h in hits]


def make_columns(query, runs, rows):
    """HitColumns from ``(position, strand, mismatches, site)`` rows."""
    plen = len(rows[0][3]) if rows else 0
    return HitColumns(
        query, runs,
        np.array([r[0] for r in rows], dtype=np.int64),
        np.frombuffer("".join(r[1] for r in rows).encode(), np.uint8),
        np.array([r[2] for r in rows], dtype=np.int64),
        np.frombuffer(b"".join(r[3] for r in rows),
                      np.uint8).reshape(len(rows), plen))


SITE_BYTES = b"ACGTNan"
#: Bytes json.dumps escapes (a "+" row shows genome bytes as they are),
#: alone and together, in half of the cases.
ESCAPED_BYTES = st.one_of(st.just(b""), st.sampled_from(
    [b'"', b"\\", b"\x01", b'"\\\x01']))


@st.composite
def column_cases(draw):
    """Runs, row counts and value ranges from hypothesis; the bulk
    arrays from a numpy generator it seeds, so cases reach the row
    counts that take the byte-matrix writer."""
    plen = draw(st.integers(1, 40))
    query = draw(st.text(alphabet="ACGTN", min_size=plen, max_size=plen))
    runs = []
    for chrom in draw(st.lists(st.text(max_size=6), max_size=4)):
        if not runs or runs[-1][0] != chrom:
            runs.append((chrom, draw(st.integers(1, 80))))
    n = sum(count for _, count in runs)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    alphabet = SITE_BYTES + draw(ESCAPED_BYTES)
    # Positions around one power of ten cross a digit-count change
    # inside a run; wide ranges mix many widths.
    k = draw(st.integers(0, 15))
    positions = (np.maximum(10 ** k + rng.integers(-3, 4, n), 0)
                 if draw(st.booleans()) else rng.integers(0, 10 ** k + 1, n))
    top = plen if draw(st.booleans()) else min(plen, 3)
    return HitColumns(
        query, tuple(runs), positions,
        rng.choice(np.frombuffer(b"+-", np.uint8), n),
        rng.integers(0, top + 1, n),
        rng.choice(np.frombuffer(alphabet, np.uint8), (n, plen)))


class TestHitColumnsWire:
    @settings(max_examples=300, deadline=None)
    @given(columns=column_cases())
    def test_json_rows_equal_json_dumps(self, columns):
        assert columns.json_rows() == \
            json.dumps(wire_rows(columns)).encode()
        chroms = [chrom for chrom, count in columns.runs
                  for _ in range(count)]
        assert field_tuple_rows(columns) == list(zip(
            repeat(columns.query), chroms, columns.position.tolist(),
            columns.strand.tobytes().decode(),
            columns.mismatches.tolist(),
            [row.tobytes().decode() for row in columns.sites]))

    @pytest.mark.parametrize("positions,mismatches", [
        (range(100, 140), [1] * 40),                  # fixed widths
        (range(9_990, 10_030), range(40)),            # widths change
        ([0] * 20 + [10 ** 15] * 20, [0, 99] * 20),
    ])
    def test_matrix_writer_padding(self, positions, mismatches):
        """Rows past the small-list cutoff, whose numbers change digit
        count inside one run and whose runs have heads of different
        lengths, write json.dumps's bytes."""
        for runs in ((("chr1", 40),),
                     (("chr1", 15), ('c"h\u00e9', 25))):
            columns = make_columns("ACGTN", runs, [
                (pos, "+-"[i % 2], mm, b"ACGTa")
                for i, (pos, mm) in enumerate(zip(positions,
                                                  mismatches))])
            assert len(columns) >= 32
            raw = columns.json_rows()
            assert columns._records is None, \
                "the matrix writer builds no records"
            assert raw == json.dumps(wire_rows(columns)).encode()

    def test_empty(self):
        assert HitColumns.empty("ACGT").json_rows() == b"[]"
        assert make_columns("ACGT", (), []).json_rows() == b"[]"

    def test_non_ascii_site_raises(self):
        columns = make_columns("ACGT", (("c", 1),),
                               [(0, "+", 0, b"AC\xe9T")])
        with pytest.raises(UnicodeDecodeError):
            columns.json_rows()
        with pytest.raises(UnicodeDecodeError):
            list(columns)

    def test_render_rejects_non_ascii_site(self):
        data = seq("ACGTACGT").copy()
        data[1] = 0xE9
        cq = compile_pattern("ACGT")
        with pytest.raises(UnicodeDecodeError):
            render_hits(data, "c", 0, Query("ACGT", 1), cq,
                        *triple([0], [1], ["+"]))


def field_tuple_rows(hits):
    return [field_tuple(h) for h in hits]


class TestHitColumnsSequence:
    def columns(self):
        return make_columns("ACGT", (("chr1", 2), ("chr2", 1)), [
            (5, "+", 0, b"ACGT"), (17, "-", 2, b"AcgT"),
            (3, "+", 1, b"aCGT")])

    def records(self):
        return [OffTargetHit("ACGT", "chr1", 5, "+", 0, "ACGT"),
                OffTargetHit("ACGT", "chr1", 17, "-", 2, "AcgT"),
                OffTargetHit("ACGT", "chr2", 3, "+", 1, "aCGT")]

    def test_sequence_semantics(self):
        columns, records = self.columns(), self.records()
        assert len(columns) == 3
        assert columns[-1] == records[-1] and columns[0] == records[0]
        assert columns[1:] == records[1:]
        assert list(columns) == records
        assert columns == records and records == columns
        assert columns != records[:2] and records[:2] != columns
        assert columns == tuple(records)
        assert records[1] in columns
        for hit in columns:
            assert type(hit) is OffTargetHit
            assert type(hit.position) is int
            assert type(hit.mismatches) is int
        with pytest.raises(IndexError):
            columns[3]

    def test_records_built_once(self):
        columns = self.columns()
        assert columns[0] is columns[0]
        assert next(iter(columns)) is columns[0]

    def test_read_only(self):
        columns = self.columns()
        with pytest.raises(ValueError):
            columns.position[0] = 1
        with pytest.raises(TypeError):
            hash(columns)

    def test_concat_joins_in_order(self):
        columns = self.columns()
        tail = make_columns("ACGT", (("chr2", 1), ("chr3", 1)), [
            (40, "+", 0, b"ACGT"), (1, "-", 1, b"ACGt")])
        joined = HitColumns.concat(
            "ACGT", [columns, HitColumns.empty("ACGT"), tail])
        assert joined == list(columns) + list(tail)
        assert joined.runs == (("chr1", 2), ("chr2", 2), ("chr3", 1))
        assert HitColumns.concat("ACGT", [columns]) is columns
        assert HitColumns.concat("ACGT", []) == []
        with pytest.raises(ValueError):
            HitColumns.concat("TTTT", [columns])

    def test_select_keeps_order(self):
        columns = make_columns("ACGT", (("chr1", 1), ("chr2", 1),
                                        ("chr1", 1)), [
            (5, "+", 0, b"ACGT"), (7, "+", 0, b"ACGT"),
            (9, "-", 0, b"ACGT")])
        assert [h.position for h in columns.select({"chr1"})] == [5, 9]
        assert columns.select({"chr1", "chr2"}) is columns
        assert columns.select({"chrX"}) == []
        assert columns.select({"chr2"}).json_rows() == \
            json.dumps(wire_rows(columns.select({"chr2"}))).encode()

    def test_pickle_round_trip(self):
        columns = self.columns()
        list(columns)
        back = pickle.loads(pickle.dumps(columns))
        assert type(back) is HitColumns
        assert back == columns and back.runs == columns.runs
        assert back.json_rows() == columns.json_rows()
