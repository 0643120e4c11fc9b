"""Per-layer timers wrapped around the serving stack's entry points.

:class:`LayerTracer` replaces each layer's entry point with a timing
wrapper *where its caller looks it up* (an instance attribute, or a
module global for functions called by bare name) and puts the original
back on :meth:`LayerTracer.uninstall`.  No program code changes.

Every wrapper records one span into a :class:`~repro.observability.
tracing.TraceRecorder` with ``sid`` (span id), ``parent`` (the span
whose wrapper was running in the same context) and ``rid`` (the wire
request id, taken from the request a server or router handles).  Spans
stay in memory until the run ends; :func:`request_paths` and
:func:`layer_metrics` then turn them,
plus the load generator's client-side rows, into per-layer metrics and
per-layer self times (a span's duration minus what its children cover).

Layers and their entry points:

==========================  ===========================================
``service.server.handle``   ``OffTargetServer._handle_request``
``service.scheduler.*``     ``BatchScheduler.submit`` (submit -> future
                            done) and ``BatchScheduler._execute`` (one
                            batch; queue wait = batch start - enqueue)
``service.index.query``     ``GenomeSiteIndex.query_batch`` and
                            ``query_batch_with_extras``
``core.comparer``           ``pipeline.compare_resident_triples``
``core.hitbuild``           ``repro.core.pipeline.build_entry_hits``
``service.router.*``        ``OffTargetRouter._handle_request`` and
                            ``_timed_rpc`` (one backend sub-request)
``design.*``                ``enumerate_for_design``, ``rank_candidates``
                            as ``repro.service.server``/``router`` call
                            them
``variants.search``         ``search_variants`` as the server calls it
==========================  ===========================================
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import os
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

import repro.core.pipeline as core_pipeline
import repro.service.router as router_module
import repro.service.server as server_module
from repro.observability.tracing import Span, TraceRecorder
from repro.service.scheduler import ServiceOverloaded

import stats

#: ``(span id, request id)`` of the innermost wrapper running here.
_CURRENT: contextvars.ContextVar[Optional[Tuple[int, Optional[str]]]] = \
    contextvars.ContextVar("perfbench_span", default=None)


def _hit_total(per_query: Iterable[List[Any]]) -> int:
    """Hits in a result holding one hit list per query."""
    return sum(len(hits) for hits in per_query)


class LayerTracer:
    """Installs the layer wrappers and keeps their spans and counts."""

    def __init__(self):
        self.recorder = TraceRecorder()
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any, bool]] = []

    # -- recording ------------------------------------------------------

    def _record(self, name: str, start: float, end: float, sid: int,
                parent: Optional[int], rid: Optional[str],
                **args: Any) -> None:
        args.update(sid=sid, parent=parent, rid=rid)
        self.recorder.merge([Span(
            name=name, cat="perfbench", start_s=start, end_s=end,
            pid=os.getpid(), tid=threading.current_thread().name,
            args=args)])

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def spans(self) -> List[Span]:
        return self.recorder.spans()

    # -- patching -------------------------------------------------------

    def _patch(self, owner: Any, attr: str,
               make: Callable[[Any], Any]) -> None:
        own = attr in vars(owner)
        original = getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._patches.append((owner, attr, original, own))

    def uninstall(self) -> None:
        """Put every wrapped entry point back as it was."""
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def _timed(self, name: str,
               after: Optional[Callable[..., Dict[str, Any]]] = None
               ) -> Callable[[Any], Any]:
        """Wrapper factory for a synchronous entry point."""
        tracer = self

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                outer = _CURRENT.get()
                sid = next(tracer._ids)
                rid = outer[1] if outer else None
                token = _CURRENT.set((sid, rid))
                start = time.time()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = time.time()
                    _CURRENT.reset(token)
                extra = after(args, result) if after else {}
                tracer._record(name, start, end, sid,
                               outer[0] if outer else None, rid, **extra)
                return result
            return wrapper
        return make

    def _timed_async(self, name: str,
                     rid_of: Callable[[tuple], Optional[str]],
                     after: Callable[..., Dict[str, Any]]
                     ) -> Callable[[Any], Any]:
        """Wrapper factory for a coroutine entry point."""
        tracer = self

        def make(fn):
            @functools.wraps(fn)
            async def wrapper(*args, **kwargs):
                outer = _CURRENT.get()
                sid = next(tracer._ids)
                rid = rid_of(args) or (outer[1] if outer else None)
                token = _CURRENT.set((sid, rid))
                start = time.time()
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    end = time.time()
                    _CURRENT.reset(token)
                tracer._record(name, start, end, sid,
                               outer[0] if outer else None, rid,
                               **after(args, result))
                return result
            return wrapper
        return make

    # -- layers ---------------------------------------------------------

    def install_modules(self) -> None:
        """Functions the stack calls by bare module-global name."""
        self._patch(core_pipeline, "build_entry_hits", self._timed(
            "core.hitbuild", lambda a, r: {"hits": _hit_total(r)}))
        self._patch(server_module, "enumerate_for_design", self._timed(
            "design.enumerate", lambda a, r: {"candidates": len(r[1])}))
        for module in (server_module, router_module):
            self._patch(module, "rank_candidates",
                        self._timed("design.rank"))
        self._patch(server_module, "search_variants", self._timed(
            "variants.search",
            lambda a, r: {"patched_chunks": r.patched_chunks}))

    def install_index(self, index) -> None:
        queries = lambda a, r: {"queries": len(a[0])}  # noqa: E731
        self._patch(index, "query_batch",
                    self._timed("service.index.query", queries))
        self._patch(index, "query_batch_with_extras",
                    self._timed("service.index.query", queries))
        self._patch(index.pipeline, "compare_resident_triples",
                    self._timed("core.comparer",
                                lambda a, r: {"queries": len(a[1]),
                                              "scanned": r is not None}))

    def install_server(self, server) -> None:
        self.install_index(server.index)
        self._patch(server, "_handle_request", self._timed_async(
            "service.server.handle",
            lambda a: a[0].get("id"),
            lambda a, r: {"op": a[0].get("op"),
                          "sent_hits": (_hit_total(r["hits"])
                                        if r and a[0].get("op") == "query"
                                        and r.get("ok") else 0)}))
        self._install_scheduler(server.scheduler)

    def _install_scheduler(self, scheduler) -> None:
        tracer = self

        def make_submit(fn):
            @functools.wraps(fn)
            def submit(queries, *args, **kwargs):
                outer = _CURRENT.get()
                sid = next(tracer._ids)
                start = time.time()
                try:
                    future = fn(queries, *args, **kwargs)
                except ServiceOverloaded:
                    tracer.count("service.scheduler.rejected")
                    raise
                kind = kwargs.get("kind", "query")

                def done(f) -> None:
                    hits = 0
                    if not f.cancelled() and f.exception() is None:
                        hits = _hit_total(f.result())
                    tracer._record(
                        "service.scheduler.request", start, time.time(),
                        sid, outer[0] if outer else None,
                        outer[1] if outer else None, kind=kind,
                        future=id(f), index_hits=hits)
                future.add_done_callback(done)
                return future
            return submit

        def make_execute(fn):
            @functools.wraps(fn)
            def execute(batch):
                sid = next(tracer._ids)
                token = _CURRENT.set((sid, None))
                start = time.time()
                try:
                    fn(batch)
                finally:
                    end = time.time()
                    _CURRENT.reset(token)
                tracer._record(
                    "service.scheduler.batch", start, end, sid, None,
                    None, queries=sum(len(p.queries) for p in batch),
                    members=[[id(p.future), p.enqueued_wall]
                             for p in batch])
            return execute

        self._patch(scheduler, "submit", make_submit)
        self._patch(scheduler, "_execute", make_execute)

    def install_router(self, router) -> None:
        self._patch(router, "_handle_request", self._timed_async(
            "service.router.handle", lambda a: a[0].get("id"),
            lambda a, r: {"op": a[0].get("op")}))
        self._patch(router, "_timed_rpc", self._timed_async(
            "service.router.subrequest", lambda a: None,
            lambda a, r: {"sub": a[1].get("id"),
                          "op": a[1].get("op")}))


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------

def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the union of its children's spans."""
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        parent = span.args.get("parent")
        if parent is not None:
            children[parent].append(span)
    out: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start_s
        for child in sorted(children.get(span.args["sid"], ()),
                            key=lambda s: s.start_s):
            lo = max(child.start_s, cursor)
            hi = min(child.end_s, span.end_s)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.args["sid"]] = span.duration_s - covered
    return out


#: Components of one query request's latency, in path order.
PATH_COMPONENTS = ("client_decode", "wire", "router_self",
                   "backend_wire", "server_handle_self", "queue_wait",
                   "batch_self", "index_self", "comparer", "hitbuild")


class _Index:
    """Spans grouped for the per-request path walk."""

    def __init__(self, spans: List[Span]):
        self.by_name: Dict[str, List[Span]] = defaultdict(list)
        self.children: Dict[int, List[Span]] = defaultdict(list)
        self.handle_by_rid: Dict[str, Span] = {}
        self.router_by_rid: Dict[str, Span] = {}
        self.batches_of_future: Dict[int, List[Tuple[Span, float]]] = \
            defaultdict(list)
        for span in spans:
            self.by_name[span.name].append(span)
            parent = span.args.get("parent")
            if parent is not None:
                self.children[parent].append(span)
            rid = span.args.get("rid")
            if span.name == "service.server.handle" and rid:
                # A hedged sub-request reaches two backends under one
                # id; the first to finish is the one the router used.
                seen = self.handle_by_rid.get(rid)
                if seen is None or span.end_s < seen.end_s:
                    self.handle_by_rid[rid] = span
            elif span.name == "service.router.handle" and rid:
                self.router_by_rid[rid] = span
        for batch in self.by_name["service.scheduler.batch"]:
            for future, enqueued in batch.args["members"]:
                self.batches_of_future[future].append((batch, enqueued))

    def child(self, span: Span, name: str) -> Optional[Span]:
        return next((c for c in self.children[span.args["sid"]]
                     if c.name == name), None)

    def batch_for(self, request: Span) -> Optional[Tuple[Span, float]]:
        """The batch that ran ``request``: same future, in its window."""
        # Future ids repeat once a future is freed, so match the batch
        # that started while this request was outstanding.
        for batch, enqueued in self.batches_of_future[
                request.args["future"]]:
            if request.start_s <= batch.start_s <= request.end_s:
                return batch, enqueued
        return None


def _server_path(ix: _Index, handle: Span,
                 selfs: Dict[int, float]) -> Optional[Dict[str, float]]:
    """Split one server-side request (handle span) into components."""
    request = ix.child(handle, "service.scheduler.request")
    if request is None:
        return None
    found = ix.batch_for(request)
    if found is None:
        return None
    batch, enqueued = found
    parts = {"server_handle_self": handle.duration_s - request.duration_s,
             "queue_wait": batch.start_s - enqueued,
             "batch_self": selfs[batch.args["sid"]],
             "index_self": 0.0, "comparer": 0.0, "hitbuild": 0.0}
    for query in ix.children[batch.args["sid"]]:
        if query.name != "service.index.query":
            continue
        parts["index_self"] += selfs[query.args["sid"]]
        for leaf in ix.children[query.args["sid"]]:
            if leaf.name == "core.comparer":
                parts["comparer"] += leaf.duration_s
            elif leaf.name == "core.hitbuild":
                parts["hitbuild"] += leaf.duration_s
    return parts


def request_paths(spans: List[Span], rows: List[Dict[str, Any]]
                  ) -> List[Dict[str, float]]:
    """Per-request latency split for client query rows.

    ``rows`` are the load generator's decoded rows (dicts with ``rid``,
    ``latency_s`` send->decoded, ``recv_s`` send->line received and
    ``decode_s``).  ``wire`` is client latency minus the time the next
    hop held the request (server handle, or router handle); a routed
    request adds router self time (router handle minus its slowest
    sub-request) and the backend hop's wire time.
    """
    ix = _Index(spans)
    selfs = self_times(spans)
    out: List[Dict[str, float]] = []
    for row in rows:
        parts = dict.fromkeys(PATH_COMPONENTS, 0.0)
        parts["client_decode"] = row["decode_s"]
        router = ix.router_by_rid.get(row["rid"])
        if router is not None:
            subs = ix.children[router.args["sid"]]
            if not subs:
                continue
            slowest = max(subs, key=lambda s: s.duration_s)
            handle = ix.handle_by_rid.get(slowest.args["sub"])
            if handle is None:
                continue
            parts["wire"] = row["recv_s"] - router.duration_s
            parts["router_self"] = router.duration_s - slowest.duration_s
            parts["backend_wire"] = slowest.duration_s - handle.duration_s
        else:
            handle = ix.handle_by_rid.get(row["rid"])
            if handle is None:
                continue
            parts["wire"] = row["recv_s"] - handle.duration_s
        server = _server_path(ix, handle, selfs)
        if server is None:
            continue
        parts.update(server)
        parts["latency"] = row["latency_s"]
        out.append(parts)
    return out


def layer_metrics(spans: List[Span], counts: Counter,
                  paths: List[Dict[str, float]],
                  elapsed_s: float) -> Dict[str, float]:
    """Busy times, counts and ratios per layer (see BENCHMARK.json).

    ``spans`` are the main phases' spans and ``elapsed_s`` those
    phases' wall time; ``paths`` come from :func:`request_paths`.
    """
    ix = _Index(spans)
    selfs = self_times(spans)

    def busy(name: str) -> float:
        return sum(s.duration_s for s in ix.by_name[name])

    def total(name: str, key: str) -> float:
        return sum(s.args.get(key, 0) for s in ix.by_name[name])

    m: Dict[str, float] = {}
    batches = ix.by_name["service.scheduler.batch"]
    waits = [b.start_s - enq for b in batches
             for _, enq in b.args["members"]]
    m["service.scheduler.queue_wait_p50_ms"] = (
        stats.median(waits) * 1000.0 if waits else 0.0)
    m["service.scheduler.queries_per_batch"] = stats.ratio(
        total("service.scheduler.batch", "queries"), len(batches))
    m["service.scheduler.batches"] = len(batches)
    m["service.scheduler.rejected"] = counts["service.scheduler.rejected"]

    m["service.index.query_busy_s"] = busy("service.index.query")
    m["service.index.query_calls"] = len(ix.by_name["service.index.query"])

    comparer = ix.by_name["core.comparer"]
    m["core.comparer.busy_s"] = busy("core.comparer")
    pairs = sum(s.args["queries"] for s in comparer if s.args["scanned"])
    m["core.comparer.entries_scanned"] = sum(
        1 for s in comparer if s.args["scanned"])
    m["core.comparer.entries_per_query"] = stats.ratio(
        pairs, total("service.index.query", "queries"))
    m["core.comparer.queries_fallback"] = counts["queries_fallback"]

    m["core.hitbuild.busy_s"] = busy("core.hitbuild")
    m["core.hitbuild.hits"] = total("core.hitbuild", "hits")
    m["core.hitbuild.share_of_query"] = stats.ratio(
        m["core.hitbuild.busy_s"], m["service.index.query_busy_s"])

    requests = [s for s in ix.by_name["service.scheduler.request"]
                if s.args["kind"] == "query"]
    handles = ix.by_name["service.server.handle"]
    wires = [p["wire"] for p in paths]
    m["service.server.wire_p50_ms"] = (
        stats.median(wires) * 1000.0 if wires else 0.0)
    m["service.server.filter_kept_ratio"] = stats.ratio(
        total("service.server.handle", "sent_hits"),
        sum(s.args["index_hits"] for s in requests))
    m["service.server.handle_self_s"] = sum(
        selfs[s.args["sid"]] for s in handles)

    m["service.client.decode_busy_s"] = counts["client_decode_us"] / 1e6

    # Layers a workload may lack (router, design, variants) report
    # shares and counts, not times: 0 then means "not on this path".
    routed = ix.by_name["service.router.handle"]
    router_self = 0.0
    for handle in routed:
        subs = ix.children[handle.args["sid"]]
        router_self += handle.duration_s - max(
            (s.duration_s for s in subs), default=0.0)
    m["service.router.subrequests_per_request"] = stats.ratio(
        len(ix.by_name["service.router.subrequest"]), len(routed))
    m["service.router.self_share"] = stats.ratio(
        router_self, busy("service.router.handle"))
    m["service.router.hedges_launched"] = counts["hedges_launched"]
    m["service.router.retries"] = counts["retries"]

    m["design.busy_share"] = stats.ratio(
        busy("design.enumerate") + busy("design.rank"), elapsed_s)
    m["design.candidates_per_request"] = stats.ratio(
        total("design.enumerate", "candidates"),
        len(ix.by_name["design.enumerate"]))
    m["variants.busy_share"] = stats.ratio(busy("variants.search"),
                                           elapsed_s)
    m["variants.patched_chunks"] = total("variants.search",
                                         "patched_chunks")

    for name in ("service.scheduler.batch", "service.index.query"):
        m[f"{name}.self_s"] = sum(selfs[s.args["sid"]]
                                  for s in ix.by_name[name])

    latency = sum(p["latency"] for p in paths)
    for comp in PATH_COMPONENTS:
        m[f"path.{comp}_share"] = stats.ratio(
            sum(p[comp] for p in paths), latency)
    m["path.accounted_ratio"] = sum(m[f"path.{comp}_share"]
                                    for comp in PATH_COMPONENTS)
    m["path.latency_ms"] = stats.mean(
        [p["latency"] for p in paths]) * 1000.0
    m["path.requests"] = len(paths)
    return m


def unit_of(name: str) -> str:
    """A layer metric's unit, from its name's suffix."""
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share", "share_of_query")):
        return "ratio"
    return "count"


#: What each ratio among the layer metrics is a ratio *of*.
RATIO_BASES = {
    "core.hitbuild.share_of_query":
        "core.hitbuild.busy_s / service.index.query_busy_s",
    "core.comparer.entries_per_query":
        "sum over comparer calls of guides compared / guides queried",
    "service.server.filter_kept_ratio":
        "hits sent after the chromosomes filter / hits the index "
        "returned, query ops",
    "service.scheduler.queries_per_batch":
        "guides batched / service.scheduler.batches",
    "service.router.subrequests_per_request":
        "backend sub-requests / routed requests",
    "design.candidates_per_request":
        "enumerated candidates / enumerate calls",
    "path.accounted_ratio":
        "sum of the path.*_share values",
    "path.*_share":
        "component time / client latency, summed over the main "
        "phases' query requests",
    "service.router.self_share":
        "router handle time minus its slowest sub-request / router "
        "handle time",
    "design.busy_share":
        "enumerate_for_design + rank_candidates time / main-phase "
        "wall time",
    "variants.busy_share":
        "search_variants time / main-phase wall time",
    "trace.overhead_share":
        "trace.overhead_p50_ms / untraced latency p50",
}
