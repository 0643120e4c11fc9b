"""The shared JSON-lines front end, checked on both of its users.

The server and the router run one connection loop, one op table
dispatch and one exception-to-error-code mapping
(:mod:`repro.service.frontend`), so every test here runs against a
whole-genome server and against a router over a two-backend fleet.
Both host a 5'-PAM ``MiniCas12`` enzyme beside the default pattern,
which also pins that the router forwards ``enzyme`` on every
sub-request.
"""

from __future__ import annotations

import gc
import json
import logging
import socket
import weakref

import numpy as np
import pytest

from repro.core.records import HitColumns
from repro.enzymes import enzyme_from_mapping
from repro.genome.assembly import Assembly, Chromosome
from repro.service import (GenomeSiteIndex, OffTargetRouter,
                           OffTargetServer, ServiceClient, ServiceError,
                           partition_chromosomes)
from repro.service.frontend import MAX_LINE_BYTES, encode_response

PATTERN = "NNNNNNRG"
CHUNK = 1 << 12
MINI_CAS12 = enzyme_from_mapping({
    "name": "MiniCas12", "guide_length": 6, "pam": "TTV",
    "pam_side": "5prime", "scoring": "cfd"})
CAS12_QUERIES = [["TTV" + "N" * 6, 1], ["TTVACGTCA", 2]]
KINDS = ("server", "router")


@pytest.fixture(scope="module")
def assembly() -> Assembly:
    rng = np.random.default_rng(4242)
    alphabet = np.frombuffer(b"ACGT", dtype=np.uint8)
    return Assembly("test-frontend", [
        Chromosome(name, rng.choice(alphabet, size=n))
        for name, n in (("chrA", 5000), ("chrB", 3000),
                        ("chrC", 4000))])


def _server(assembly: Assembly) -> OffTargetServer:
    return OffTargetServer(
        GenomeSiteIndex.build(assembly, PATTERN, chunk_size=CHUNK),
        max_wait_ms=1.0,
        enzymes=[(MINI_CAS12, GenomeSiteIndex.build(
            assembly, MINI_CAS12.pattern, chunk_size=CHUNK))])


@pytest.fixture(scope="module")
def front_ends(assembly):
    """kind -> (front end, running handle)."""
    server = _server(assembly)
    direct = server.start_background()
    backends = [_server(assembly.subset(part)).start_background()
                for part in partition_chromosomes(assembly, 2)]
    router = OffTargetRouter(
        [f"{h.host}:{h.port}" for h in backends],
        chromosome_order=[c.name for c in assembly.chromosomes],
        probe_interval_s=0.1)
    routed = router.start_background()
    yield {"server": (server, direct), "router": (router, routed)}
    routed.stop()
    for handle in backends:
        handle.stop()
    direct.stop()


class _LineClient:
    """Raw JSON lines over one socket (no client-side validation)."""

    def __init__(self, handle):
        self.sock = socket.create_connection((handle.host, handle.port),
                                             timeout=30)
        self.file = self.sock.makefile("rwb")

    def send(self, payload: bytes) -> bytes:
        self.file.write(payload)
        self.file.flush()
        return self.file.readline()

    def call(self, request: dict) -> dict:
        return json.loads(self.send(json.dumps(request).encode() + b"\n"))

    def close(self) -> None:
        self.file.close()
        self.sock.close()


@pytest.mark.parametrize("kind", KINDS)
def test_over_long_line_gets_typed_error(front_ends, kind, caplog):
    _, handle = front_ends[kind]
    line = json.dumps({"op": "query",
                       "queries": [["A" * (2 << 20), 0]]}).encode()
    with caplog.at_level(logging.WARNING, logger="asyncio"):
        client = _LineClient(handle)
        try:
            response = json.loads(client.send(line + b"\n"))
            assert client.file.readline() == b"", \
                "the connection closes after the typed reply"
        finally:
            client.close()
        with ServiceClient(handle.host, handle.port) as fresh:
            assert fresh.health()["ok"]
    assert response["ok"] is False
    assert response["error"] == "bad-request"
    assert "MAX_LINE_BYTES" in response["message"]
    assert str(MAX_LINE_BYTES) in response["message"]
    assert [r for r in caplog.records if r.name == "asyncio"] == []


@pytest.mark.parametrize("kind", KINDS)
def test_every_op_types_wrong_field_types(front_ends, kind):
    front_end, handle = front_ends[kind]
    wrong = {"queries": 7, "chrom": 7, "haplotypes": 7, "canaries": 7}
    client = _LineClient(handle)
    try:
        for op in front_end.ops:
            response = client.call(dict(wrong, op=op, id=op))
            assert response["id"] == op
            assert response["ok"] or response["error"] not in (
                None, "internal"), (op, response)
        assert client.call({"op": "health"})["ok"]
    finally:
        client.close()


@pytest.mark.parametrize("kind", KINDS)
def test_stopped_front_end_is_freed_by_refcount(front_ends, assembly,
                                                kind):
    """A stopped front end holds no reference cycle, so its index is
    freed as soon as the last reference goes, not whenever the cyclic
    collector next runs (stacks built and torn down in one process
    would otherwise stay resident together)."""
    _, backend = front_ends["server"]
    gc.collect()
    gc.disable()
    try:
        front_end = (_server(assembly) if kind == "server" else
                     OffTargetRouter([f"{backend.host}:{backend.port}"]))
        handle = front_end.start_background()
        with ServiceClient(handle.host, handle.port) as client:
            assert client.health()["ok"]
            with pytest.raises(ServiceError):
                client._call({"op": "nope"})
        handle.stop()
        freed = weakref.ref(front_end)
        del front_end, handle
        assert freed() is None
    finally:
        gc.enable()


class TestRoutedEnzyme:
    def test_enzyme_query_matches_direct(self, front_ends):
        answers = []
        for kind in KINDS:
            _, handle = front_ends[kind]
            with ServiceClient(handle.host, handle.port) as client:
                answers.append(client._call({
                    "op": "query", "queries": CAS12_QUERIES,
                    "enzyme": "MiniCas12"})["hits"])
        assert answers[0][0], "the all-N guide must hit something"
        assert answers[1] == answers[0]

    def test_unknown_enzyme_is_bad_request(self, front_ends):
        _, routed = front_ends["router"]
        with ServiceClient(routed.host, routed.port) as client:
            with pytest.raises(ServiceError) as info:
                client._call({"op": "query",
                              "queries": [["GACGTCNN", 3]],
                              "enzyme": "NoSuchCas"})
        assert info.value.code == "bad-request"
        assert "MiniCas12" in str(info.value)

    def test_design_with_5prime_enzyme_is_bad_request(self, front_ends):
        _, routed = front_ends["router"]
        with ServiceClient(routed.host, routed.port) as client:
            with pytest.raises(ServiceError) as info:
                client._call({"op": "design", "chrom": "chrA",
                              "start": 0, "end": 300, "mismatches": 1,
                              "enzyme": "MiniCas12"})
        assert info.value.code == "bad-request"
        assert "5prime" in str(info.value)


def _columns(query, chrom, positions):
    n = len(positions)
    return HitColumns(
        query, ((chrom, n),) if n else (),
        np.array(positions, dtype=np.int64),
        np.full(n, ord("-"), dtype=np.uint8), np.arange(n) % 4,
        np.full((n, len(query)), ord("a"), dtype=np.uint8))


def _plain(response):
    """The response with every HitColumns as its list of wire rows."""
    def rows(per):
        if not isinstance(per, HitColumns):
            return per
        return [[h.query, h.chrom, h.position, h.site, h.strand,
                 h.mismatches] for h in per]
    return {key: [rows(per) for per in value] if key == "hits" else value
            for key, value in response.items()}


def test_encode_response_equals_json_dumps():
    with_fragments = [
        {"ok": True, "hits": [_columns("ACGTN", "chr1", [9, 10, 123]),
                              _columns("ACGTN", "chr2", []),
                              _columns("TTTTN", 'x"\u00e9', [0])],
         "id": "r-1"},
        {"ok": True, "hits": [_columns("ACGTN", "chr1", [5])], "id": 7},
        {"ok": True, "hits": [[["ACGTN", "c", 1, "ACGTA", "+", 0]],
                              _columns("ACGTN", "chr1", [42])]},
    ]
    without = [
        {"ok": True, "hits": [[["ACGTN", "c", 1, "ACGTA", "+", 0]], []],
         "id": {"nested": ["\u00e9", 1.5, None]}},
        {"ok": True, "hits": []},
        {"ok": False, "error": "bad-request", "message": "caf\u00e9"},
        {"ok": True, "stats": {"hits": [1, 2]}},
    ]
    for response in with_fragments:
        assert encode_response(response) == \
            json.dumps(_plain(response)).encode()
    for response in without:
        assert encode_response(response) == json.dumps(response).encode()
