"""The repository benchmark: one workload, one seed, one JSON result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload scan --seed 1 --seconds 25 --trace 0

``--workload`` is ``scan``, ``hits`` or ``routed-mix`` (see
``workloads.py`` and README.md for what each stresses and why).  The
workload's inputs are generated from ``--seed``; the serving stack
only ever sees those generated requests.

``--trace 0`` sets the stack up several times (``setup_s`` is the
median), runs the workload for ``--seconds`` and prints every
end-to-end metric.  ``--trace 1`` runs the workload twice for half of
``--seconds`` each, untraced and then with per-layer timers installed
(``layers.py``), and prints the per-layer metrics plus the tracing
overhead; it also writes a Chrome trace and the full layer report to
``perfbench/out/``.  ``perfbench/diff.py`` compares two such reports.

Both modes check the outputs: every guide must hit (each was sampled
from a real candidate site), a seeded subset of responses must equal an
independent answer, and on ``hits`` the all-``N`` guide's served count
must equal the in-process count.  Human-readable lines come first; the
last line of stdout is the JSON result.  The exit status is 0 only when
every check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

#: Load-generator time allowed beyond the planned phases.
LOADGEN_SLACK_S = 60.0
#: The all-N guide: every candidate site, on both strands where the
#: window matches both.  A correctness case only, never timed.
ALL_N = "N" * 23

#: Decode errors that mean a wrong answer rather than a failed request.
WRONG_ANSWERS = {"empty-hits", "wrong-query", "wrong-query-count",
                 "no-reports"}


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["scan", "hits", "routed-mix"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Load generation
# ---------------------------------------------------------------------------

class Row:
    """One request as the load generator saw it."""

    __slots__ = ("template", "rid", "scheduled", "sent", "received",
                 "decoded", "ok", "error", "hits", "empty", "decode_s",
                 "raw", "phase", "wall0")

    def __init__(self, raw_row: List[Any], phase: str, wall0: float):
        (self.template, self.rid, self.scheduled, self.sent,
         self.received, self.decoded, self.ok, self.error, self.hits,
         self.empty, self.decode_s, self.raw) = raw_row
        self.phase = phase
        self.wall0 = wall0

    def latency_s(self, from_schedule: bool = False) -> float:
        """Send (or scheduled send) to decoded; inf if it failed."""
        if not self.ok:
            return math.inf
        start = self.scheduled if from_schedule else self.sent
        return self.decoded - start


class LoadResult:
    def __init__(self, raw: Dict[str, Any], pid: int):
        self.pid = pid
        self.elapsed = {p["name"]: p["elapsed_s"] for p in raw["phases"]}
        self.wall0 = {p["name"]: p["wall0"] for p in raw["phases"]}
        self.rows: List[Row] = [Row(r, p["name"], p["wall0"])
                                for p in raw["phases"] for r in p["rows"]]

    def phase(self, name: str) -> List[Row]:
        return [r for r in self.rows if r.phase == name]


def run_loadgen(front, plan, keep_raw: List[int],
                seconds: float) -> LoadResult:
    """Run the plan from a fresh load-generating process."""
    import workloads

    request = {"host": front.host, "port": front.port,
               "connections": workloads.CONNECTIONS, "timeout_s": 60.0,
               "templates": plan.templates, "phases": plan.phases,
               "keep_raw": keep_raw}
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    proc = subprocess.Popen([sys.executable, str(HERE / "loadgen.py")],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            env=env)
    try:
        out, _ = proc.communicate(json.dumps(request).encode("ascii"),
                                  timeout=seconds + LOADGEN_SLACK_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"load generator exited {proc.returncode}")
    return LoadResult(json.loads(out), proc.pid)


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------

def raw_call(host: str, port: int, line: bytes,
             timeout_s: float = 60.0) -> bytes:
    with socket.create_connection((host, port), timeout=timeout_s) as sock:
        with sock.makefile("rwb") as stream:
            stream.write(line)
            stream.flush()
            return stream.readline()


def choose_checked(plan, rng) -> List[int]:
    """A seeded subset of templates sent early enough to be seen.

    One of each kind first (so ``routed-mix`` checks query, IUPAC,
    design and variant responses), then random others.
    """
    import workloads

    early: List[int] = []
    for spec in plan.phases:
        order = ([t for t, _ in spec["schedule"]] if "schedule" in spec
                 else spec["sequence"])
        early += order[:24]
    early = [t for t in dict.fromkeys(early)
             if plan.templates[t]["op"] in plan.checked_ops]
    by_kind: Dict[str, List[int]] = {}
    for t in early:
        by_kind.setdefault(plan.templates[t]["kind"], []).append(t)
    chosen = [int(rng.choice(ts)) for ts in by_kind.values()]
    rest = [t for t in early if t not in chosen]
    extra = workloads.CHECKED_RESPONSES - len(chosen)
    if extra > 0 and rest:
        chosen += [int(t) for t in
                   rng.choice(rest, min(extra, len(rest)), replace=False)]
    return chosen


def check_responses(stack, plan, load: LoadResult) -> List[str]:
    """Compare kept raw responses with an independent answer.

    ``scan``/``hits``: the hit rows of in-process
    ``GenomeSiteIndex.query_batch``.  ``routed-mix``: the raw bytes a
    single whole-genome server returns for the same request line.
    """
    from loadgen import wire_request
    from repro.core.config import Query
    from repro.service import OffTargetServer

    problems: List[str] = []
    kept = [r for r in load.rows if r.raw is not None]
    if not kept:
        return ["no response was kept for checking"]
    reference = None
    try:
        if stack.router is not None:
            reference = OffTargetServer(stack.reference).start_background()
        for row in kept:
            template = plan.templates[row.template]
            if reference is not None:
                line = raw_call(reference.host, reference.port,
                                wire_request(template, row.rid))
                if line.decode("ascii") != row.raw:
                    problems.append(
                        f"{row.rid} ({template['kind']}): routed response "
                        f"differs from the single whole-genome server")
                continue
            expected = stack.reference.query_batch(
                [Query(g, m) for g, m in template["queries"]])
            rows = [[[h.query, h.chrom, h.position, h.site, h.strand,
                      h.mismatches] for h in per] for per in expected]
            if json.loads(row.raw)["hits"] != rows:
                problems.append(f"{row.rid}: served hits differ from "
                                f"in-process query_batch")
    finally:
        if reference is not None:
            reference.stop()
    return problems


def check_all_n(stack) -> Tuple[List[str], Dict[str, Any]]:
    """Served all-N hit count == in-process count (outside timing)."""
    from repro.core.config import Query

    started = time.perf_counter()
    line = raw_call(stack.front.host, stack.front.port,
                    json.dumps({"op": "query", "queries": [[ALL_N, 0]],
                                "id": "all-n"}).encode("ascii") + b"\n")
    served_s = time.perf_counter() - started
    response = json.loads(line)
    served = len(response["hits"][0]) if response.get("ok") else -1
    expected = len(stack.reference.query_batch([Query(ALL_N, 0)])[0])
    info = {"served": served, "in_process": expected,
            "served_s": served_s}
    if served != expected:
        return [f"all-N guide: served {served} hits, in-process "
                f"{expected}"], info
    return [], info


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def phase_accounting(load: LoadResult) -> Dict[str, Dict[str, Any]]:
    """Requests sent, succeeded and failed per phase, and lateness."""
    import stats

    out: Dict[str, Dict[str, Any]] = {}
    for name, elapsed in load.elapsed.items():
        rows = load.phase(name)
        entry: Dict[str, Any] = {
            "sent": len(rows), "succeeded": sum(r.ok for r in rows),
            "failed": sum(not r.ok for r in rows),
            "elapsed_s": elapsed}
        late = [(r.sent - r.scheduled) * 1000.0 for r in rows
                if r.scheduled is not None]
        if late:
            entry["late_ms"] = stats.summary(late)
        out[name] = entry
    return out


def end_to_end(plan, load: LoadResult) -> Dict[str, Dict[str, Any]]:
    """Latency, throughput and per-op figures, each with its samples."""
    import stats

    kinds = [t["kind"] for t in plan.templates]
    lat = [r.latency_s(plan.from_schedule) * 1000.0
           for r in load.phase(plan.latency_phase)
           if kinds[r.template] in plan.latency_kinds]
    tput_rows = load.phase(plan.throughput_phase)
    elapsed = load.elapsed[plan.throughput_phase]
    design = [r.latency_s() * 1000.0 for r in tput_rows
              if kinds[r.template] == "design"]
    variant = [r.latency_s() * 1000.0 for r in tput_rows
               if kinds[r.template] == "variant"]
    return {
        "latency_ms": stats.summary(lat),
        "throughput_rps": {"value": sum(r.ok for r in tput_rows) / elapsed,
                           "n": len(tput_rows), "elapsed_s": elapsed},
        "hits_per_s": {"value": sum(r.hits for r in tput_rows if r.ok)
                       / elapsed, "n": len(tput_rows)},
        "design_ms": stats.summary(design),
        "variant_ms": stats.summary(variant),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_info() -> Dict[str, Any]:
    import numpy

    return {"host.cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__}


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------

def _start(workload, repeats: int):
    """Set the stack up ``repeats`` times; keep the last one running."""
    import workloads

    times: List[Dict[str, float]] = []
    for attempt in range(repeats):
        stack = workloads.build_stack(workload)
        times.append(stack.timings)
        if attempt + 1 < repeats:
            stack.stop()
            # Free this stack before the next is built, or both are
            # resident at once and inflate peak_rss_mb.
            del stack
    if workload.routed:
        from repro.service import GenomeSiteIndex
        stack.reference = GenomeSiteIndex.build(
            stack.assembly, workloads.PATTERN,
            chunk_size=workloads.CHUNK_SIZE)
    else:
        stack.reference = stack.indexes[0]
    return stack, times


def _correctness(stack, plan, load: LoadResult,
                 workload) -> Tuple[List[str], Dict[str, Any]]:
    problems = [f"{r.rid}: {r.error}" for r in load.rows
                if r.error in WRONG_ANSWERS]
    problems += check_responses(stack, plan, load)
    info: Dict[str, Any] = {
        "checked_responses": sum(r.raw is not None for r in load.rows)}
    if workload.name == "hits":
        all_n_problems, info["all_n"] = check_all_n(stack)
        problems += all_n_problems
    return problems, info


def run_untraced(args, workload, plan_fn, rng) -> Dict[str, Any]:
    import stats
    import workloads

    stack, setups = _start(workload, workload.setup_repeats)
    try:
        plan = plan_fn(stack, rng, args.seconds)
        keep = choose_checked(plan, rng)
        load = run_loadgen(stack.front, plan, keep, args.seconds)
        rss = peak_rss_mb()
        problems, info = _correctness(stack, plan, load, workload)
    finally:
        stack.stop()
    e2e = end_to_end(plan, load)
    setup = [s["setup_s"] for s in setups]
    metrics = {
        "setup_s": (stats.median(setup), "s"),
        "latency_p50_ms": (e2e["latency_ms"]["p50"], "ms"),
        "latency_p90_ms": (e2e["latency_ms"]["p90"], "ms"),
        "throughput_rps": (e2e["throughput_rps"]["value"], "1/s"),
        "peak_rss_mb": (rss, "MB"),
    }
    attempted = len(load.rows)
    failed = sum(not r.ok for r in load.rows)
    # Printed, not gated: zero on a healthy run, or defined on one
    # workload only (BENCHMARK.json gates metrics every workload has).
    extra = {"error_rate": (failed / attempted, "ratio"),
             "hits_per_s": (e2e["hits_per_s"]["value"], "1/s")}
    for name, key in (("design_p50_ms", "design_ms"),
                      ("variant_p50_ms", "variant_ms")):
        if e2e[key]["n"]:
            extra[name] = (e2e[key]["p50"], "ms")
    return {"metrics": metrics, "extra": extra, "attempted": attempted,
            "failed": failed, "problems": problems,
            "report": {"setups": setups, "end_to_end": e2e,
                       "phases": phase_accounting(load),
                       "correctness": info}}


def run_traced(args, workload, plan_fn, rng) -> Dict[str, Any]:
    import layers
    import stats

    stack, setups = _start(workload, 1)
    tracer = layers.LayerTracer()
    try:
        plan = plan_fn(stack, rng, args.seconds / 2.0)
        keep = choose_checked(plan, rng)
        untraced = run_loadgen(stack.front, plan, keep, args.seconds)
        before = _program_counters(stack)
        tracer.install_modules()
        for server in stack.servers:
            tracer.install_server(server)
        if stack.router is not None:
            tracer.install_router(stack.router)
        try:
            traced = run_loadgen(stack.front, plan, keep, args.seconds)
        finally:
            tracer.uninstall()
        after = _program_counters(stack)
        problems, info = _correctness(stack, plan, traced, workload)
    finally:
        stack.stop()
    for key, value in after.items():
        tracer.counts[key] += value - before[key]
    spans = tracer.spans()
    main = (plan.latency_phase, plan.throughput_phase)
    windows = [(traced.wall0[name], traced.wall0[name] + traced.elapsed[name])
               for name in set(main)]
    main_spans = [s for s in spans
                  if any(lo <= s.start_s <= hi for lo, hi in windows)]
    kinds = [t["kind"] for t in plan.templates]
    query_rows = [
        {"rid": r.rid, "latency_s": r.latency_s(), "decode_s": r.decode_s,
         "recv_s": r.received - r.sent}
        for r in traced.rows
        if r.ok and plan.templates[r.template]["op"] == "query"
        and r.phase in main]
    tracer.counts["client_decode_us"] = int(
        sum(r.decode_s for r in traced.rows if r.phase in main) * 1e6)
    paths = layers.request_paths(spans, query_rows)
    values = layers.layer_metrics(
        main_spans, tracer.counts, paths,
        sum(traced.elapsed[name] for name in set(main)))
    values["genome.synth_s"] = setups[-1]["genome.synth_s"]
    values["service.index.build_s"] = setups[-1]["service.index.build_s"]
    values["service.index.sites"] = sum(ix.site_count
                                        for ix in stack.indexes)
    lat = {}
    for name, load in (("untraced", untraced), ("traced", traced)):
        lat[name] = stats.median([
            r.latency_s(plan.from_schedule) * 1000.0
            for r in load.phase(plan.latency_phase)
            if kinds[r.template] in plan.latency_kinds])
    values["trace.overhead_p50_ms"] = lat["traced"] - lat["untraced"]
    values["trace.overhead_share"] = stats.ratio(
        values["trace.overhead_p50_ms"], lat["untraced"])
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}"
    _merge_client_spans(tracer, traced)
    tracer.recorder.save(str(OUT / f"trace-{stem}.json"))
    report = {"workload": workload.name, "seed": args.seed,
              "host": host_info(), "layers": values,
              "bases": layers.RATIO_BASES, "latency_p50_ms": lat,
              "phases": phase_accounting(traced), "correctness": info}
    with open(OUT / f"layers-{stem}.json", "w", encoding="ascii") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    metrics = {name: (value, layers.unit_of(name))
               for name, value in values.items()}
    return {"metrics": metrics, "attempted": len(traced.rows),
            "failed": sum(not r.ok for r in traced.rows),
            "problems": problems, "report": report}


def _program_counters(stack) -> Dict[str, int]:
    """Counters the program keeps itself, read through public calls."""
    fallback = sum(ix.comparer_stats()["queries_fallback"]
                   for ix in stack.indexes)
    counters = {"queries_fallback": fallback, "hedges_launched": 0,
                "retries": 0}
    if stack.router is not None:
        from repro.service import ServiceClient
        with ServiceClient(stack.front.host, stack.front.port) as client:
            router = client.stats()
        counters["hedges_launched"] = router["hedges"]["launched"]
        counters["retries"] = router["retries"]
    return counters


def _merge_client_spans(tracer, load: LoadResult) -> None:
    """Client-side request and decode spans, in the load generator's
    process lane of the Chrome trace."""
    from repro.observability.tracing import Span

    spans = []
    for r in load.rows:
        base = r.wall0
        spans.append(Span("service.client.request", "perfbench",
                          base + r.sent, base + r.decoded, load.pid,
                          "loadgen", {"rid": r.rid, "ok": r.ok}))
        spans.append(Span("service.client.decode", "perfbench",
                          base + r.received, base + r.decoded, load.pid,
                          "loadgen", {"rid": r.rid}))
    tracer.recorder.merge(spans)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: {SRC} holds no repro package; run from the "
              f"root of a repository checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    plan_fn = {"scan": workloads.plan_scan, "hits": workloads.plan_hits,
               "routed-mix": workloads.plan_routed}[args.workload]
    rng = np.random.default_rng(args.seed)
    mode = run_traced if args.trace else run_untraced
    result = mode(args, workload, plan_fn, rng)
    info = host_info()
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} " +
          " ".join(f"{k}={v}" for k, v in info.items()))
    report = result["report"]
    report.setdefault("host", info)
    for name, (value, unit) in sorted(result["metrics"].items()):
        print(f"{name:44s} {value:14.4f} {unit}")
    for name, (value, unit) in sorted(result.get("extra", {}).items()):
        print(f"{name:44s} {value:14.4f} {unit}  (not gated)")
    print("# detail " + json.dumps(report, sort_keys=True, default=str))
    for problem in result["problems"]:
        print(f"# MISMATCH {problem}")
    correct = not result["problems"]
    print(json.dumps({
        "correct": correct, "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
