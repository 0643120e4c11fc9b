"""Asyncio JSON-lines TCP front end over the batch scheduler.

Stdlib only.  The JSON-lines connection loop, the serve/drain
lifecycle and the exception-to-error-code mapping live in
:mod:`repro.service.frontend`; this module declares the server's op
table.  Requests carry an ``op`` —

* ``query``: ``{"op": "query", "queries": [["GACGTCNN", 3], ...],
  "deadline_s": 0.5}`` → per-query hit lists; an optional
  ``"chromosomes": [...]`` list restricts hits to those chromosomes
  (order-preserving — the routing tier uses this so replicated
  backends can each serve a disjoint partition of a request);
* ``design``: ``{"op": "design", "chrom": "chrA", "start": 0,
  "end": 2000, "mismatches": 3, "top": 5, "estimator": "mit"}`` →
  ranked guide-design reports for the region; every enumerated
  candidate rides one scheduler submission (one batched comparer
  pass — see :mod:`repro.design`);
* ``enumerate``: the design op's first stage alone — candidate
  protospacers and their query sequences for a region (the routing
  tier uses this to enumerate on a backend that holds the target
  chromosome);
* ``variant``: guide × {reference + K haplotypes} — per-haplotype
  gained/lost off-targets with causal-variant provenance (see
  :mod:`repro.variants`): only variant-touched chunks are re-scanned,
  and the patches ride the resident chunks through one batched
  comparer pass;
* ``enzymes``: the declarative Cas enzyme registry this server hosts;
  ``query``/``design``/``enumerate``/``variant`` take an optional
  ``"enzyme": name`` field to run against that enzyme's own resident
  index instead of the default;
* ``stats``: scheduler counters, queue depth, batch-size histogram and
  latency percentiles (see :meth:`BatchScheduler.stats`);
* ``health``: liveness plus index identity (genome, pattern, sites,
  chromosome list, manifest fingerprint);
* ``reload``: zero-downtime index rollover — a configured ``reloader``
  callable builds/loads a fresh index off-loop, optional canary
  queries warm it, then :meth:`BatchScheduler.swap_index` swaps it in
  between batches and the old index is drained and released.  Any
  failure (reloader error, pattern mismatch, canary failure) leaves
  the old index serving untouched.

Responses echo the request's ``id`` (if any) and carry ``ok``; failures
carry a machine-readable ``error`` code (``bad-json``, ``bad-request``,
``unknown-op``, ``overloaded``, ``deadline``, ``closed``, ``internal``,
``no-reloader``, ``reload-failed``) so clients can distinguish
back-off-and-retry from bugs.

The accept loop never blocks on the comparer: each connection awaits
its scheduler future via :func:`asyncio.wrap_future`, so slow batches
only delay their own requesters while other connections keep being
served.  ``start_background`` runs the whole server in a daemon thread
with its own event loop — the shape the tests and the load generator
use.

Two robustness hooks serve the routing tier:

* ``request_fault_plan`` applies :mod:`repro.observability.faults`
  plans at the *request* level (index = per-server query ordinal):
  ``stall`` sleeps on the event loop (a slow backend), ``disconnect``
  drops the connection without responding (half-open), ``crash``
  terminates the process (a dead backend).
* SIGTERM (or :meth:`ServerHandle.drain`) triggers a graceful drain:
  stop accepting, finish requests already admitted within the
  ``drain_s`` budget, remove the ready file, exit 0.
"""

from __future__ import annotations

import asyncio
import os
import threading
from typing import (Any, Callable, Dict, FrozenSet, List, Optional,
                    Sequence, Tuple)

from ..core.config import Query
from ..core.records import HitColumns
from ..design.ranking import (decode_design_spec, design_payload,
                              enumerate_for_design, enumerate_payload,
                              rank_candidates, scoring_guide_length)
from ..design.estimators import get_estimator
from ..enzymes import CasEnzyme
from ..observability import faults, tracing
from ..variants.model import decode_haplotypes
from ..variants.overlay import search_variants
from .frontend import (JsonLinesFrontEnd, WireError, decode_chromosomes,
                       decode_deadline, decode_queries)
from .index import GenomeSiteIndex
from .scheduler import BatchScheduler, DeadlineExceeded, SchedulerClosed


class OffTargetServer(JsonLinesFrontEnd):
    """JSON-lines TCP server over one resident :class:`GenomeSiteIndex`."""

    def __init__(self, index: GenomeSiteIndex, host: str = "127.0.0.1",
                 port: int = 0, max_batch: int = 8,
                 max_wait_ms: float = 5.0, max_queue: int = 64,
                 adaptive: bool = False, direct_below: int = 0,
                 reloader: Optional[Callable[[], Any]] = None,
                 request_fault_plan: Optional[str] = None,
                 drain_s: float = 5.0,
                 enzymes: Optional[Sequence[
                     Tuple[CasEnzyme, GenomeSiteIndex]]] = None):
        super().__init__(host, port)
        self.index = index
        self.scheduler = BatchScheduler(index, max_batch=max_batch,
                                        max_wait_ms=max_wait_ms,
                                        max_queue=max_queue,
                                        adaptive=adaptive,
                                        direct_below=direct_below)
        self._closed = False
        #: Builds/loads a replacement index for the ``reload`` op.
        self._reloader = reloader
        self._reload_lock = threading.Lock()
        self._reloads = 0
        #: Request-level fault plan (indices are query ordinals).
        self._request_injector = (
            faults.FaultInjector(faults.parse_fault_plan(
                request_fault_plan))
            if request_fault_plan else None)
        self._request_seq = 0
        self.drain_s = float(drain_s)
        #: Alternate enzymes: name -> (enzyme, index, scheduler).
        #: Requests naming no enzyme keep hitting the default index.
        self._enzymes: Dict[str, Tuple[CasEnzyme, GenomeSiteIndex,
                                       BatchScheduler]] = {}
        for enzyme, enzyme_index in (enzymes or ()):
            if enzyme.name in self._enzymes:
                raise ValueError(
                    f"duplicate enzyme {enzyme.name!r}")
            if enzyme_index.pattern != enzyme.pattern:
                raise ValueError(
                    f"enzyme {enzyme.name!r} declares pattern "
                    f"{enzyme.pattern!r} but its index was built for "
                    f"{enzyme_index.pattern!r}")
            self._enzymes[enzyme.name] = (
                enzyme, enzyme_index,
                BatchScheduler(enzyme_index, max_batch=max_batch,
                               max_wait_ms=max_wait_ms,
                               max_queue=max_queue, adaptive=adaptive,
                               direct_below=direct_below))
        #: Serializes variant patch scans: the variant op runs on
        #: executor threads (off-loop), which would otherwise race
        #: compare_resident on one pipeline (the scheduler's single
        #: worker serializes every other comparer entry point).
        self._variant_lock = threading.Lock()

    # -- request handling ----------------------------------------------

    async def _handle_health(self, request: Dict[str, Any]
                             ) -> Dict[str, Any]:
        response = {"ok": True,
                    "status": ("draining" if self._draining
                               else "serving"),
                    "genome": self.index.assembly.name,
                    "pattern": self.index.pattern,
                    "chunks": self.index.chunk_count,
                    "sites": self.index.site_count}
        chroms = getattr(self.index, "chromosomes", None)
        if chroms is not None:
            response["chromosomes"] = list(chroms)
        fingerprint = getattr(self.index, "fingerprint", None)
        if callable(fingerprint):
            response["fingerprint"] = fingerprint()
        shard_health = getattr(self.index, "shard_health", None)
        if shard_health is not None:
            response["shards"] = shard_health()
        degraded = getattr(self.index, "degraded", None)
        if degraded is not None:
            response["degraded"] = bool(degraded)
            if degraded:
                response["degrade_reason"] = getattr(
                    self.index, "degrade_reason", None)
        if self._enzymes:
            response["enzymes"] = sorted(self._enzymes)
        return response

    async def _handle_stats(self, request: Dict[str, Any]
                            ) -> Dict[str, Any]:
        return {"ok": True, "stats": self.scheduler.stats()}

    async def _handle_query(self, request: Dict[str, Any]
                            ) -> Optional[Dict[str, Any]]:
        if self._request_injector is not None and \
                await self._apply_request_fault():
            return None  # half-open: close without responding
        _, _, scheduler = self._resolve_enzyme(request)
        queries = decode_queries(request.get("queries"))
        allowed = decode_chromosomes(request.get("chromosomes"))
        results = await self._run_batch(scheduler, queries,
                                        decode_deadline(request))
        if allowed is not None:
            # Order-preserving subsequence: hits of the allowed
            # chromosomes keep their single-server relative order,
            # which is what lets a router reassemble partitions
            # byte-identically.
            results = [per.select(allowed) for per in results]
        # The front end writes each HitColumns as its JSON rows.
        return {"ok": True, "hits": results}

    @staticmethod
    async def _run_batch(scheduler: BatchScheduler,
                         queries: List[Query], deadline: Optional[float],
                         kind: str = "query"
                         ) -> List[HitColumns]:
        """Submit one request to ``scheduler`` and await its hits.

        Submit-time failures keep their own type (bad request,
        overload, expired deadline, closed); a batch failure other
        than an in-queue expiry or a close is a server fault, reported
        as ``internal`` even when its type is a ``ValueError``.
        """
        future = scheduler.submit(queries, deadline_s=deadline, kind=kind)
        try:
            return await asyncio.wrap_future(future)
        except (DeadlineExceeded, SchedulerClosed):
            raise
        except Exception as exc:  # noqa: BLE001 - report, keep serving
            raise WireError(f"{type(exc).__name__}: {exc}") from exc

    # -- enzyme registry ------------------------------------------------

    def _resolve_enzyme(self, request: Dict[str, Any]
                        ) -> Tuple[Optional[CasEnzyme], GenomeSiteIndex,
                                   BatchScheduler]:
        """(enzyme, index, scheduler) for the request's ``enzyme`` field.

        Absent/None selects the default index; unknown names raise
        ValueError, which every op maps to ``bad-request``.
        """
        name = request.get("enzyme")
        if name is None:
            return None, self.index, self.scheduler
        if not isinstance(name, str):
            raise ValueError(
                f"'enzyme' must be a string, got {name!r}")
        entry = self._enzymes.get(name)
        if entry is None:
            known = ", ".join(sorted(self._enzymes)) or "none"
            raise ValueError(
                f"unknown enzyme {name!r}; this server hosts: {known}")
        return entry

    def _enumerate(self, request: Dict[str, Any]) -> Tuple[Any, ...]:
        """The design ops' shared first stage: (scheduler, spec,
        anatomy, candidates, queries) for the request's region, on the
        index of its enzyme — which must have a 3prime PAM."""
        enzyme, index, scheduler = self._resolve_enzyme(request)
        if enzyme is not None and not enzyme.designable:
            raise ValueError(
                f"enzyme {enzyme.name!r} has a 5prime PAM; guide "
                f"design requires a 3prime-PAM pattern")
        spec = decode_design_spec(request)
        return (scheduler, spec,
                *enumerate_for_design(index.assembly, index.pattern, spec))

    async def _handle_enzymes(self, request: Dict[str, Any]
                              ) -> Dict[str, Any]:
        """Declarative registry listing — the ``enzymes`` op."""
        entries = []
        for name in sorted(self._enzymes):
            enzyme, enzyme_index, _ = self._enzymes[name]
            entry = {**enzyme.to_payload(),
                     "sites": enzyme_index.site_count,
                     "chunks": enzyme_index.chunk_count}
            fingerprint = getattr(enzyme_index, "fingerprint", None)
            if callable(fingerprint):
                entry["fingerprint"] = fingerprint()
            entries.append(entry)
        return {"ok": True, "default_pattern": self.index.pattern,
                "enzymes": entries}

    # -- variant-aware search -------------------------------------------

    async def _handle_variant(self, request: Dict[str, Any]
                              ) -> Dict[str, Any]:
        """Per-haplotype gained/lost off-targets — the ``variant`` op.

        Patch scans plus the single batched comparer pass run in an
        executor thread (the reload pattern), so the accept loop keeps
        serving other connections; ``_variant_lock`` serializes the
        comparer work because executor threads bypass the scheduler's
        one-worker serialization.
        """
        _, _, scheduler = self._resolve_enzyme(request)
        queries = decode_queries(request.get("queries"))
        haplotypes = decode_haplotypes(request.get("haplotypes"))
        allowed = decode_chromosomes(request.get("chromosomes"))
        result = await asyncio.get_running_loop().run_in_executor(
            None, self._variant_sync, scheduler, queries, haplotypes,
            allowed)
        scheduler.count_request("variant")
        return {"ok": True, **result.payload()}

    def _variant_sync(self, scheduler: BatchScheduler,
                      queries: List[Query], haplotypes: Sequence[Any],
                      allowed: Optional[FrozenSet[str]]) -> Any:
        # scheduler.index is the live (possibly reload-swapped) index.
        with self._variant_lock:
            return search_variants(scheduler.index, queries,
                                   haplotypes, chromosomes=allowed)

    # -- guide design ---------------------------------------------------

    async def _handle_enumerate(self, request: Dict[str, Any]
                                ) -> Dict[str, Any]:
        """Candidate protospacers for a region, on the wire.

        Pure and synchronous (no comparer work): the routing tier
        calls this on a backend that holds the target chromosome,
        then fans the returned queries out like any query batch.
        """
        _, _, anatomy, candidates, queries = self._enumerate(request)
        return {"ok": True,
                **enumerate_payload(anatomy, candidates, queries)}

    async def _handle_design(self, request: Dict[str, Any]
                             ) -> Dict[str, Any]:
        """Enumerate, scan once, rank — the ``design`` op.

        All unique candidate queries ride ONE scheduler submission,
        i.e. one batched comparer pass over the resident index — the
        same single-scan invariant :func:`repro.design.design_guides`
        keeps in-process.
        """
        deadline = decode_deadline(request)
        scheduler, spec, anatomy, candidates, queries = \
            self._enumerate(request)
        estimator = get_estimator(spec.estimator,
                                  scoring_guide_length(anatomy))
        hits_by_query: Dict[str, HitColumns] = {}
        if queries:
            results = await self._run_batch(
                scheduler,
                [Query(sequence=query, max_mismatches=spec.max_mismatches)
                 for query in queries],
                deadline, kind="design")
            hits_by_query = dict(zip(queries, results))
        reports = rank_candidates(candidates, hits_by_query, estimator,
                                  spec.top_n)
        return {"ok": True,
                **design_payload(anatomy, estimator, candidates,
                                 queries, reports)}

    async def _apply_request_fault(self) -> bool:
        """Fire the next request-level fault, if the plan names one.

        Returns True when the connection should be dropped without a
        response (``disconnect``); ``stall`` sleeps first and returns
        False, ``raise`` raises an ``internal`` error and ``crash``
        does not return.
        """
        ordinal = self._request_seq
        self._request_seq += 1
        spec = self._request_injector.fire(ordinal)
        if spec is None:
            return False
        tracing.instant("request_fault", cat="fault", request=ordinal,
                        kind=spec.kind)
        if spec.kind == "crash":
            os._exit(1)
        if spec.kind == "disconnect":
            return True
        if spec.kind == "stall":
            await asyncio.sleep(spec.stall_s)
            return False
        raise WireError(f"injected fault on request {ordinal}")

    async def _handle_reload(self, request: Dict[str, Any]
                             ) -> Dict[str, Any]:
        if self._reloader is None:
            raise WireError("this server was started without a "
                            "reloader; it cannot roll its index",
                            "no-reloader")
        raw = request.get("canaries")
        canaries = decode_queries(raw) if raw is not None else []
        loop = asyncio.get_running_loop()
        try:
            # Build + warm + swap off-loop: other connections keep
            # being served by the old index the whole time.
            summary = await loop.run_in_executor(
                None, self._reload_sync, canaries)
        except Exception as exc:  # noqa: BLE001 - old index kept
            tracing.instant("index_reload_failed", cat="service",
                            error=type(exc).__name__)
            raise WireError(f"{type(exc).__name__}: {exc}",
                            "reload-failed") from exc
        return {"ok": True, **summary}

    def _reload_sync(self, canaries: Sequence[Query]
                     ) -> Dict[str, Any]:
        """Build, canary-warm and atomically swap a fresh index.

        Runs in an executor thread.  Any exception propagates to
        :meth:`_handle_reload` *before* the swap, so a failed reload
        never interrupts serving on the old index.
        """
        with self._reload_lock:
            old = self.scheduler.index
            with tracing.span("index_reload", cat="service"):
                new = self._reloader()
                if new is None:
                    raise RuntimeError("reloader returned no index")
                plen = new.compiled_pattern.plen
                for query in canaries:
                    if len(query.sequence) != plen:
                        raise ValueError(
                            f"canary {query.sequence!r} has length "
                            f"{len(query.sequence)}; the new index "
                            f"requires {plen}")
                if canaries:
                    # Canary warm: run the new index end to end before
                    # it can see real traffic.
                    new.query_batch(list(canaries))
                old_fp = self._fingerprint_of(old)
                new_fp = self._fingerprint_of(new)
                drained = True
                try:
                    previous = self.scheduler.swap_index(new)
                except TimeoutError:
                    # Swap took effect; the old index is still running
                    # one last batch, so just don't release it.
                    previous, drained = old, False
                self.index = new
                self._reloads += 1
                if drained and previous is not new:
                    closer = getattr(previous, "close", None)
                    if callable(closer):
                        closer()
            tracing.instant("index_reloaded", cat="service",
                            fingerprint=new_fp, changed=new_fp != old_fp)
            return {"swapped": True,
                    "fingerprint": new_fp,
                    "previous_fingerprint": old_fp,
                    "changed": new_fp != old_fp,
                    "sites": new.site_count,
                    "canaries": len(canaries),
                    "drained": drained,
                    "reloads": self._reloads}

    @staticmethod
    def _fingerprint_of(index: Any) -> Optional[str]:
        fingerprint = getattr(index, "fingerprint", None)
        return fingerprint() if callable(fingerprint) else None

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self.scheduler.close()
            for _, _, scheduler in self._enzymes.values():
                scheduler.close()

    ops = {"query": _handle_query, "design": _handle_design,
           "enumerate": _handle_enumerate, "variant": _handle_variant,
           "enzymes": _handle_enzymes, "stats": _handle_stats,
           "health": _handle_health, "reload": _handle_reload}
