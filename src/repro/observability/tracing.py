"""Span/trace recorder: per-launch visibility for engine and runtimes.

The PR-1 engine exposed five aggregate stage timers; production SYCL and
OpenCL codes instead attribute cost per kernel launch through event
profiling.  This module provides the Python analog: a
:class:`TraceRecorder` that instrumentation sites write *spans* into
(chunk stage-in, every kernel launch, merge, cache hits/misses), cheap
enough to leave compiled in.

Design points:

* **Per-thread buffers.**  Each recording thread appends to its own
  list, so the hot path takes no lock; buffers are merged on export.
* **Process-safe by shipping.**  :class:`Span` is a plain picklable
  dataclass; process-pool workers record into their own recorder and
  ship the drained spans back with each chunk result, which the parent
  folds in via :func:`merge`.
* **Module-level activation.**  Instrumentation sites call the
  module-level :func:`span` / :func:`instant` helpers, which are no-ops
  (a shared null context manager) unless a recorder has been activated
  with :func:`recording` — so the pipelines and runtime models pay
  nearly nothing when tracing is off.
* **Chrome-trace export.**  :meth:`TraceRecorder.chrome_trace` emits the
  Trace Event Format understood by ``chrome://tracing`` and Perfetto:
  complete events (``ph: "X"``) for spans, instant events (``ph: "i"``)
  for cache hits/misses and fault firings, and thread-name metadata.

Timestamps use ``time.time()`` (not ``perf_counter``) so spans recorded
in different processes share a clock.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence

_CLOCK = time.time


@dataclass
class Span:
    """One traced interval (or instant event, when ``phase == "i"``)."""

    name: str
    cat: str
    start_s: float
    end_s: float
    pid: int
    tid: str
    args: Dict[str, Any] = field(default_factory=dict)
    #: Chrome-trace phase: "X" complete event, "i" instant event,
    #: "M" metadata event (process/thread naming), "s"/"f" flow
    #: start/finish (arrows between lanes, e.g. router -> backend).
    phase: str = "X"
    #: Correlates "s"/"f" flow events; ignored for other phases.
    flow_id: Optional[int] = None

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


class TraceRecorder:
    """Thread- and process-safe span recorder.

    Threads write lock-free into per-thread buffers; spans from worker
    processes arrive via :meth:`merge`.  ``spans()`` returns everything
    recorded so far in start-time order.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._buffers: List[List[Span]] = []
        self._merged: List[Span] = []

    # -- recording ------------------------------------------------------

    def _buffer(self) -> List[Span]:
        buf = getattr(self._local, "buffer", None)
        if buf is None:
            buf = []
            self._local.buffer = buf
            with self._lock:
                self._buffers.append(buf)
        return buf

    @contextmanager
    def span(self, name: str, cat: str = "", **args) -> Iterator[Span]:
        """Record a complete event around the ``with`` body.

        The yielded :class:`Span` is live — callers may add ``args``
        entries (e.g. a chunk index learned inside the body).  An
        exception in the body is recorded as ``args["error"]`` and
        re-raised.
        """
        entry = Span(name=name, cat=cat, start_s=_CLOCK(), end_s=0.0,
                     pid=os.getpid(),
                     tid=threading.current_thread().name,
                     args=dict(args))
        try:
            yield entry
        except BaseException as exc:
            entry.args["error"] = type(exc).__name__
            raise
        finally:
            entry.end_s = _CLOCK()
            self._buffer().append(entry)

    def instant(self, name: str, cat: str = "", **args) -> Span:
        """Record a zero-duration instant event (cache hit, fault)."""
        now = _CLOCK()
        entry = Span(name=name, cat=cat, start_s=now, end_s=now,
                     pid=os.getpid(),
                     tid=threading.current_thread().name,
                     args=dict(args), phase="i")
        self._buffer().append(entry)
        return entry

    def flow(self, name: str, flow_id: int, cat: str = "",
             end: bool = False, **args) -> Span:
        """Record a flow start (``ph: "s"``) or finish (``ph: "f"``).

        Flow events draw arrows between lanes in Chrome-trace viewers;
        the routing tier emits a start when it dispatches a sub-request
        and a finish when the answering backend's response lands, so a
        hedged request's fan-out is visible as arrows from the router
        span to each backend span sharing the same ``flow_id``.
        """
        now = _CLOCK()
        entry = Span(name=name, cat=cat, start_s=now, end_s=now,
                     pid=os.getpid(),
                     tid=threading.current_thread().name,
                     args=dict(args), phase="f" if end else "s",
                     flow_id=int(flow_id))
        self._buffer().append(entry)
        return entry

    def set_process_name(self, label: str) -> Span:
        """Record a ``process_name`` metadata event for this process.

        Shard workers call this so their spans group under a readable
        lane (``shard-0``, ``shard-1``, ...) in Chrome-trace viewers
        instead of a bare pid.  The span is picklable like any other,
        so workers ship it back with their drained spans.
        """
        now = _CLOCK()
        entry = Span(name="process_name", cat="__metadata",
                     start_s=now, end_s=now, pid=os.getpid(),
                     tid=threading.current_thread().name,
                     args={"name": label}, phase="M")
        self._buffer().append(entry)
        return entry

    # -- collection -----------------------------------------------------

    def merge(self, spans: Sequence[Span]) -> None:
        """Fold spans shipped from another process (or recorder) in."""
        with self._lock:
            self._merged.extend(spans)

    def drain(self) -> List[Span]:
        """Remove and return everything recorded so far.

        Process-pool workers drain after each chunk so only the new
        slice crosses the pool boundary.
        """
        with self._lock:
            out: List[Span] = []
            for buf in self._buffers:
                out.extend(buf)
                del buf[:]
            out.extend(self._merged)
            del self._merged[:]
        out.sort(key=lambda s: s.start_s)
        return out

    def spans(self) -> List[Span]:
        with self._lock:
            out = [s for buf in self._buffers for s in buf]
            out.extend(self._merged)
        out.sort(key=lambda s: s.start_s)
        return out

    # -- export ---------------------------------------------------------

    def chrome_trace(self) -> Dict[str, Any]:
        """The trace in Chrome Trace Event Format (JSON object form)."""
        spans = self.spans()
        origin = min((s.start_s for s in spans), default=0.0)
        tids: Dict[tuple, int] = {}
        events: List[Dict[str, Any]] = []
        for span in spans:
            key = (span.pid, span.tid)
            if key not in tids:
                tids[key] = len(tids)
                events.append({
                    "name": "thread_name", "ph": "M", "pid": span.pid,
                    "tid": tids[key], "args": {"name": span.tid}})
            if span.phase == "M":
                events.append({
                    "name": span.name, "ph": "M", "pid": span.pid,
                    "tid": tids[key], "args": span.args})
                continue
            event: Dict[str, Any] = {
                "name": span.name,
                "cat": span.cat or "default",
                "ph": span.phase,
                "ts": (span.start_s - origin) * 1e6,
                "pid": span.pid,
                "tid": tids[key],
                "args": span.args,
            }
            if span.phase == "X":
                event["dur"] = span.duration_s * 1e6
            elif span.phase == "i":
                event["s"] = "t"
            elif span.phase in ("s", "f"):
                event["id"] = span.flow_id or 0
                if span.phase == "f":
                    # Bind the arrow head to the enclosing slice.
                    event["bp"] = "e"
            events.append(event)
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def save(self, path: str) -> None:
        """Write the Chrome-trace JSON to ``path``."""
        with open(path, "w", encoding="ascii") as handle:
            json.dump(self.chrome_trace(), handle)


# ---------------------------------------------------------------------------
# Module-level activation: instrumentation sites go through these
# helpers so they cost almost nothing when no recorder is active.
# ---------------------------------------------------------------------------

_active: Optional[TraceRecorder] = None
_active_lock = threading.Lock()


class _NullSpan:
    """Stand-in yielded when tracing is inactive; swallows arg writes."""

    __slots__ = ("args",)

    def __init__(self):
        self.args: Dict[str, Any] = {}


@contextmanager
def _null_span() -> Iterator[_NullSpan]:
    yield _NullSpan()


def active() -> Optional[TraceRecorder]:
    """The currently active recorder, or None."""
    return _active


def activate(recorder: Optional[TraceRecorder]) -> None:
    """Install ``recorder`` as the process-wide active recorder."""
    global _active
    with _active_lock:
        _active = recorder


@contextmanager
def recording(recorder: Optional[TraceRecorder] = None
              ) -> Iterator[TraceRecorder]:
    """Activate a recorder for the duration of the ``with`` block.

    Creates a fresh :class:`TraceRecorder` when none is given; restores
    the previously active recorder (usually None) on exit.
    """
    if recorder is None:
        recorder = TraceRecorder()
    previous = _active
    activate(recorder)
    try:
        yield recorder
    finally:
        activate(previous)


def span(name: str, cat: str = "", **args):
    """Record a span on the active recorder; no-op context otherwise."""
    recorder = _active
    if recorder is None:
        return _null_span()
    return recorder.span(name, cat, **args)


def instant(name: str, cat: str = "", **args) -> None:
    """Record an instant event on the active recorder, if any."""
    recorder = _active
    if recorder is not None:
        recorder.instant(name, cat, **args)


def flow(name: str, flow_id: int, cat: str = "", end: bool = False,
         **args) -> None:
    """Record a flow start/finish on the active recorder, if any."""
    recorder = _active
    if recorder is not None:
        recorder.flow(name, flow_id, cat, end=end, **args)


def merge(spans: Sequence[Span]) -> None:
    """Fold shipped spans into the active recorder, if any."""
    recorder = _active
    if recorder is not None and spans:
        recorder.merge(spans)


def set_process_name(label: str) -> None:
    """Name this process in trace exports, if a recorder is active."""
    recorder = _active
    if recorder is not None:
        recorder.set_process_name(label)


def drain_active() -> List[Span]:
    """Drain the active recorder (for shipping across a pool boundary)."""
    recorder = _active
    if recorder is None:
        return []
    return recorder.drain()
