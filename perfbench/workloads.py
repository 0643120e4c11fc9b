"""The benchmark's three workloads: set-up, request plans, checks.

Every workload runs the real serving stack in this process (one
``OffTargetServer``, or an ``OffTargetRouter`` over in-process
backends) and drives it from one load-generating process
(``loadgen.py``) over at most two connections.

* ``scan``: few hits, many independent users.  Open-loop Poisson
  arrivals (8 req/s) of 4-guide queries at 4 mismatches over hg19 at
  scale 0.001, then a short closed-loop saturation phase.  The comparer and
  scheduler batching do almost all the work; hit construction is a few
  per cent, so a comparer or batching change shows here and a hit-path
  change should not.
* ``hits``: repeat-derived guides with large results.  Closed loop,
  one connection, over hg38 at scale 0.0002; 3 in 4 requests carry a
  satellite-tiling guide that returns ~8,000 hits.  Hit construction,
  JSON encode, socket write and client decode dominate.
* ``routed-mix``: a 3-backend, replication-2 fleet over hg19 at scale
  0.0002 behind a router, closed loop over two connections cycling
  single-guide and 8-guide queries, an IUPAC guide (byte-comparer
  fallback), guide design and variant search.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.design.ranking import decode_design_spec, enumerate_for_design
from repro.genome.synthetic import synthetic_assembly
from repro.service import (GenomeSiteIndex, OffTargetRouter,
                           OffTargetServer, ServiceClient,
                           partition_chromosomes, replica_plan)

import sampler

PATTERN = "NNNNNNNNNNNNNNNNNNNNNRG"
CHUNK_SIZE = 65536
GUIDE_LENGTH = 20
#: Connections the load generator opens: the host's CPU count (2).
CONNECTIONS = 2
#: Responses per run compared against an independent answer.
CHECKED_RESPONSES = 6
#: Untimed requests sent first, so lazy first-call work is not timed.
WARMUP_REQUESTS = 4

#: ``scan`` open-loop arrival rate (requests/s), about a third of the
#: 2-connection saturated throughput (21-26 req/s) on a shared 2-CPU
#: host.  hg19 at scale 0.002 with 4-6 req/s was tried first: its
#: ~100 ms requests allowed only 80-135 arrivals per run, and p90
#: latency spread across seeds reached 0.3-0.5.
SCAN_RATE = 8.0
SCAN_GUIDES_PER_REQUEST = 4
SCAN_MISMATCHES = 4
#: ``hits``: 3 of every 4 requests carry a satellite guide.
HITS_MISMATCHES = 3
HITS_SATELLITE_PER_4 = 3
#: Design requests: region width, mismatches, top-N, estimator.  A
#: region is used only if it yields a candidate count in the band, so
#: every design request does about the same work (a stated input size).
DESIGN_WIDTH = 600
DESIGN_CANDIDATES = (110, 130)
DESIGN_MISMATCHES = 3
DESIGN_TOP = 5
DESIGN_ESTIMATOR = "mit"
VARIANT_HAPLOTYPES = 2
VARIANT_SITES = 3
QUERY_MISMATCHES = 4
#: Guides in the ``routed-mix`` multi-guide query.
MIX_MULTI_GUIDES = 8
#: One ``routed-mix`` block.  Closed-loop connection ``c`` sends every
#: second position, so one connection cycles single-guide lookups and
#: the other the heavier ops: the singles' latency shows what the heavy
#: ops cost their neighbours on the shared backends.  The order is
#: fixed; the seed picks every request's contents.
MIX_BLOCK = ("single", "multi", "single", "iupac", "single", "design",
             "single", "variant")
#: Blocks per cycle: enough that a run sends no design twice.
MIX_BLOCKS = 48


@dataclass(frozen=True)
class Workload:
    name: str
    profile: str
    scale: float
    #: Set-ups per run; ``setup_s`` is their median.  Fewer where one
    #: set-up costs seconds.
    setup_repeats: int
    routed: bool = False


WORKLOADS = {
    "scan": Workload("scan", "hg19", 0.001, setup_repeats=3),
    "hits": Workload("hits", "hg38", 0.0002, setup_repeats=5),
    "routed-mix": Workload("routed-mix", "hg19", 0.0002,
                           setup_repeats=5, routed=True),
}


# ---------------------------------------------------------------------------
# Set-up: genome, index(es), server(s), router, first healthy answer
# ---------------------------------------------------------------------------

@dataclass
class Stack:
    """A running serving stack and how long each set-up step took."""

    assembly: Any
    indexes: List[GenomeSiteIndex]
    servers: List[OffTargetServer]
    handles: List[Any]
    router: Optional[OffTargetRouter]
    front: Any  # the handle clients talk to (server or router)
    timings: Dict[str, float] = field(default_factory=dict)
    #: Whole-genome index: guide sampling and routed-mix's reference.
    reference: Optional[GenomeSiteIndex] = None

    def stop(self) -> None:
        if self.router is not None:
            self.front.stop()
        for handle in self.handles:
            handle.stop()


def wait_healthy(host: str, port: int, timeout_s: float = 30.0) -> None:
    """Poll ``health`` until the front end reports ``serving``."""
    deadline = time.perf_counter() + timeout_s
    while True:
        try:
            with ServiceClient(host, port, retries=0) as client:
                if client.health().get("status") == "serving":
                    return
        except OSError:
            pass
        if time.perf_counter() > deadline:
            raise RuntimeError(f"{host}:{port} not healthy after "
                               f"{timeout_s} s")
        time.sleep(0.01)


def build_stack(workload: Workload) -> Stack:
    t0 = time.perf_counter()
    assembly = synthetic_assembly(workload.profile, workload.scale,
                                  cache=False)
    t1 = time.perf_counter()
    if workload.routed:
        held = replica_plan(partition_chromosomes(assembly, 3),
                            replication=2)
        indexes = [GenomeSiteIndex.build(assembly.subset(chroms),
                                         PATTERN, chunk_size=CHUNK_SIZE)
                   for chroms in held]
    else:
        indexes = [GenomeSiteIndex.build(assembly, PATTERN,
                                         chunk_size=CHUNK_SIZE)]
    t2 = time.perf_counter()
    servers = [OffTargetServer(index) for index in indexes]
    handles = [server.start_background() for server in servers]
    router = None
    front = handles[0]
    if workload.routed:
        router = OffTargetRouter(
            [f"{h.host}:{h.port}" for h in handles],
            chromosome_order=[c.name for c in assembly.chromosomes])
        front = router.start_background()
    stack = Stack(assembly, indexes, servers, handles, router, front)
    try:
        wait_healthy(front.host, front.port)
    except BaseException:
        stack.stop()
        raise
    t3 = time.perf_counter()
    stack.timings = {"genome.synth_s": t1 - t0,
                     "service.index.build_s": t2 - t1,
                     "service.start_s": t3 - t2, "setup_s": t3 - t0}
    return stack


# ---------------------------------------------------------------------------
# Request plans
# ---------------------------------------------------------------------------

def query_template(guides: Sequence[str], mismatches: int,
                   kind: str) -> Dict[str, Any]:
    return {"op": "query", "queries": [[g, mismatches] for g in guides],
            "kind": kind}


def design_template(assembly, pool: sampler.SiteSampler,
                    rng: np.random.Generator,
                    max_tries: int = 1000) -> Dict[str, Any]:
    """A design request centred on a sampled site, sized by the band."""
    lo, hi = DESIGN_CANDIDATES
    for _ in range(max_tries):
        site, = pool.sample(rng, 1)
        template = {"op": "design", "kind": "design",
                    **sampler.design_region(assembly, site, DESIGN_WIDTH),
                    "mismatches": DESIGN_MISMATCHES, "top": DESIGN_TOP,
                    "estimator": DESIGN_ESTIMATOR}
        _, candidates, _ = enumerate_for_design(
            assembly, PATTERN, decode_design_spec(template))
        if lo <= len(candidates) <= hi:
            return template
    raise RuntimeError(f"no {DESIGN_WIDTH}-bp region with {lo}-{hi} "
                       f"design candidates in {max_tries} tries")


def variant_template(assembly, sites: Sequence[sampler.SampledSite],
                     rng: np.random.Generator) -> Dict[str, Any]:
    return {"op": "variant", "kind": "variant",
            "queries": [[sites[0].guide, QUERY_MISMATCHES]],
            "haplotypes": sampler.haplotypes(assembly, sites, rng,
                                             VARIANT_HAPLOTYPES)}


def warmup(sequence: Sequence[int]) -> Dict[str, Any]:
    return {"name": "warmup", "mode": "closed", "connections": 1,
            "count": WARMUP_REQUESTS, "sequence": list(sequence)}


@dataclass
class Plan:
    """Templates (request bodies) and the phases that send them."""

    templates: List[Dict[str, Any]]
    phases: List[Dict[str, Any]]
    #: Phase supplying each end-to-end figure.
    latency_phase: str
    throughput_phase: str
    #: Template kinds the latency percentiles are taken over.
    latency_kinds: Tuple[str, ...]
    #: Latency from the scheduled send time (open loop) or not.
    from_schedule: bool = False
    #: Ops whose responses the correctness check can answer itself.
    checked_ops: Tuple[str, ...] = ("query",)


def plan_scan(stack: Stack, rng: np.random.Generator,
              seconds: float) -> Plan:
    pool = sampler.SiteSampler(stack.indexes[0], GUIDE_LENGTH)
    # Enough guides that one pass of the pool is a fair sample of the
    # per-guide hit counts (1-4 each).
    sites = pool.sample(rng, 400)
    templates = []
    for k in range(0, len(sites), SCAN_GUIDES_PER_REQUEST):
        templates.append(query_template(
            [s.guide for s in sites[k:k + SCAN_GUIDES_PER_REQUEST]],
            SCAN_MISMATCHES, "scan"))
    n_query = len(templates)
    open_s = 0.7 * seconds
    arrivals = np.cumsum(rng.exponential(1.0 / SCAN_RATE,
                                         int(open_s * SCAN_RATE * 3)))
    schedule = [[int(rng.integers(n_query)), float(at)]
                for at in arrivals if at < open_s]
    return Plan(
        templates=templates,
        phases=[
            warmup(range(n_query)),
            {"name": "open", "mode": "open", "schedule": schedule,
             "connections": CONNECTIONS},
            {"name": "sat", "mode": "closed",
             "duration_s": 0.3 * seconds, "connections": CONNECTIONS,
             "sequence": [int(i) for i in rng.permutation(n_query)]},
        ],
        latency_phase="open", throughput_phase="sat",
        latency_kinds=("scan",),
        from_schedule=True)


def plan_hits(stack: Stack, rng: np.random.Generator,
              seconds: float) -> Plan:
    pool = sampler.SiteSampler(stack.indexes[0], GUIDE_LENGTH)
    sat = pool.sample(rng, 24, pool.is_satellite)
    plain = lambda s: pool.satellite_distance(s) > 8  # noqa: E731
    rand = pool.sample(rng, 8, plain)
    templates = ([query_template([s.guide], HITS_MISMATCHES, "satellite")
                  for s in sat]
                 + [query_template([s.guide], HITS_MISMATCHES, "random")
                    for s in rand])
    sequence = []
    for block in range(len(rand)):
        group = [block * HITS_SATELLITE_PER_4 + j
                 for j in range(HITS_SATELLITE_PER_4)]
        group.insert(int(rng.integers(len(group) + 1)), len(sat) + block)
        sequence += group
    return Plan(
        templates=templates,
        phases=[
            warmup(sequence),
            {"name": "main", "mode": "closed", "duration_s": seconds,
             "connections": 1, "sequence": sequence},
        ],
        latency_phase="main", throughput_phase="main",
        latency_kinds=("satellite", "random"))


def plan_routed(stack: Stack, rng: np.random.Generator,
                seconds: float) -> Plan:
    pool = sampler.SiteSampler(stack.reference, GUIDE_LENGTH)
    templates: List[Dict[str, Any]] = []
    sequence: List[int] = []
    for _ in range(MIX_BLOCKS):
        for kind in MIX_BLOCK:
            if kind == "single":
                site, = pool.sample(rng, 1)
                t = query_template([site.guide], QUERY_MISMATCHES, kind)
            elif kind == "multi":
                t = query_template(
                    [s.guide for s in pool.sample(rng, MIX_MULTI_GUIDES)],
                    QUERY_MISMATCHES, kind)
            elif kind == "iupac":
                site, = pool.sample(rng, 1)
                t = query_template([sampler.iupac_guide(site, rng)],
                                   QUERY_MISMATCHES, kind)
            elif kind == "design":
                t = design_template(stack.assembly, pool, rng)
            else:
                t = variant_template(
                    stack.assembly, pool.sample(rng, VARIANT_SITES), rng)
            sequence.append(len(templates))
            templates.append(t)
    return Plan(
        templates=templates,
        phases=[warmup(sequence),
                {"name": "main", "mode": "closed",
                 "duration_s": seconds, "connections": CONNECTIONS,
                 "sequence": sequence}],
        latency_phase="main", throughput_phase="main",
        latency_kinds=("single",),
        checked_ops=("query", "design", "variant"))
