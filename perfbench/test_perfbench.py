"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import math
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.core.pipeline as core_pipeline
import repro.service.server as server_module
from repro.core.config import Query
from repro.core.patterns import reverse_complement
from repro.genome.synthetic import synthetic_assembly
from repro.observability.tracing import Span
from repro.service import GenomeSiteIndex

import diff
import layers
import sampler
import stats
import workloads
from loadgen import wire_request
from run import raw_call

HERE = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def hg38_index():
    assembly = synthetic_assembly("hg38", 0.0002, cache=False)
    return GenomeSiteIndex.build(assembly, workloads.PATTERN,
                                 chunk_size=workloads.CHUNK_SIZE)


def _hits_source(index, sites, guides):
    results = index.query_batch([Query(g, 0) for g in guides])
    for site, per in zip(sites, results):
        assert any(h.chrom == site.chrom and h.position == site.position
                   and h.strand == site.strand and h.mismatches == 0
                   for h in per), site


# -- guide sampler ----------------------------------------------------------

def test_every_sampled_guide_hits_its_source_site(hg38_index):
    pool = sampler.SiteSampler(hg38_index, workloads.GUIDE_LENGTH)
    sites = pool.sample(np.random.default_rng(5), 60)
    assert {s.strand for s in sites} == {"+", "-"}
    _hits_source(hg38_index, sites, [s.guide for s in sites])


def test_reverse_sites_are_reverse_complemented(hg38_index):
    """Flag 2 marks a reverse site; flags are not ord('+')/ord('-')."""
    pool = sampler.SiteSampler(hg38_index, workloads.GUIDE_LENGTH)
    site = next(s for s in pool.sample(np.random.default_rng(8), 40)
                if s.strand == "-")
    forward = hg38_index.assembly.fetch(
        site.chrom, site.position, site.position + pool.plen)
    assert site.window == reverse_complement(forward).tobytes().decode()
    assert site.window[-2] in "AG" and site.window[-1] == "G"


def test_satellite_and_iupac_guides_hit_their_source_site(hg38_index):
    pool = sampler.SiteSampler(hg38_index, workloads.GUIDE_LENGTH)
    rng = np.random.default_rng(11)
    satellite = pool.sample(rng, 8, pool.is_satellite)
    _hits_source(hg38_index, satellite, [s.guide for s in satellite])
    plain = pool.sample(rng, 8)
    iupac = [sampler.iupac_guide(s, rng) for s in plain]
    assert all("R" in g[:workloads.GUIDE_LENGTH] for g in iupac)
    _hits_source(hg38_index, plain, iupac)


def test_a_predicate_no_site_meets_fails_loudly(hg38_index):
    pool = sampler.SiteSampler(hg38_index, workloads.GUIDE_LENGTH)
    with pytest.raises(RuntimeError):
        pool.sample(np.random.default_rng(1), 1, lambda s: False,
                    max_draws=50)


# -- statistics -------------------------------------------------------------

def test_percentile_matches_inclusive_quantiles():
    values = list(np.random.default_rng(2).exponential(10.0, 37))
    cuts = statistics.quantiles(values, n=10, method="inclusive")
    for i, expected in enumerate(cuts, start=1):
        assert stats.percentile(values, i / 10) == pytest.approx(expected)


def test_failed_requests_count_as_infinitely_slow():
    values = [1.0, 2.0, 3.0, math.inf]
    assert stats.percentile(values, 1.0) == math.inf
    assert stats.percentile(values, 0.9) == math.inf
    assert stats.summary(values)["max"] == stats.INFINITE


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert stats.tail_quantile(99) is None
    assert stats.tail_quantile(100) == 0.9
    assert stats.tail_quantile(1000) == 0.99


# -- traced-run analysis ----------------------------------------------------

def _span(name, start, end, sid, parent=None):
    return Span(name, "t", start, end, 0, "t",
                {"sid": sid, "parent": parent, "rid": None})


def test_self_time_subtracts_the_union_of_children():
    spans = [_span("p", 0.0, 10.0, 1), _span("a", 1.0, 4.0, 2, 1),
             _span("b", 3.0, 6.0, 3, 1), _span("c", 9.0, 12.0, 4, 1)]
    selfs = layers.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0)


def test_diff_reports_delta_ratio_and_each_ratio_base():
    base = {"layers": {"busy_s": 2.0, "share": 0.5, "gone": 1.0,
                       "zero": 0.0},
            "bases": {"share": "busy_s / total_s"}}
    new = {"layers": {"busy_s": 1.0, "share": 0.25, "zero": 3.0,
                      "added": 4.0}}
    rows = {r["metric"]: r for r in diff.diff_layers(base, new)}
    assert rows["busy_s"]["delta"] == -1.0
    assert rows["busy_s"]["ratio"] == 0.5
    assert rows["share"]["base_of"] == "busy_s / total_s"
    assert rows["gone"]["new"] is None and rows["gone"]["delta"] is None
    assert rows["added"]["base"] is None
    assert rows["zero"]["ratio"] is None
    text = diff.render(list(rows.values()), base, new)
    assert "busy_s / total_s" in text


def test_diff_cli_refuses_different_workloads(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"workload": "scan", "layers": {}}))
    b.write_text(json.dumps({"workload": "hits", "layers": {}}))
    assert diff.main([str(a), str(b)]) == 2


# -- the wrappers change no response ----------------------------------------

def test_layer_wrappers_leave_responses_byte_identical():
    stack = workloads.build_stack(workloads.WORKLOADS["routed-mix"])
    try:
        stack.reference = GenomeSiteIndex.build(
            stack.assembly, workloads.PATTERN,
            chunk_size=workloads.CHUNK_SIZE)
        plan = workloads.plan_routed(stack, np.random.default_rng(3), 1.0)
        picks = {}
        for i, template in enumerate(plan.templates):
            picks.setdefault(template["kind"], i)
        lines = [wire_request(plan.templates[i], f"t{i}")
                 for i in picks.values()]
        host, port = stack.front.host, stack.front.port

        def answers():
            return [raw_call(host, port, line) for line in lines]

        before = answers()
        original_hits = core_pipeline.build_entry_hits
        tracer = layers.LayerTracer()
        tracer.install_modules()
        for server in stack.servers:
            tracer.install_server(server)
        tracer.install_router(stack.router)
        try:
            during = answers()
        finally:
            tracer.uninstall()
        after = answers()
    finally:
        stack.stop()
    assert all(json.loads(line)["ok"] for line in before)
    assert before == during == after
    names = {span.name for span in tracer.spans()}
    assert {"service.router.handle", "service.router.subrequest",
            "service.server.handle", "service.scheduler.request",
            "service.scheduler.batch", "service.index.query",
            "core.comparer", "core.hitbuild", "design.enumerate",
            "design.rank", "variants.search"} <= names
    assert core_pipeline.build_entry_hits is original_hits
    assert "search_variants" in vars(server_module)
    for server in stack.servers:
        assert "_handle_request" not in vars(server)
        assert "query_batch" not in vars(server.index)
        assert "submit" not in vars(server.scheduler)


# -- the command ------------------------------------------------------------

def test_command_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and perfbench/: exit non-zero, no result."""
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
