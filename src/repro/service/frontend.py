"""One JSON-lines TCP front end, shared by the server and the router.

:class:`JsonLinesFrontEnd` owns everything a front end does besides
answering ops:

* the connection loop — one JSON object per line in each direction,
  the request's ``id`` echoed on its response, a line longer than
  :data:`MAX_LINE_BYTES` discarded through its newline and answered
  with one ``bad-request`` before the connection closes;
* the lifecycle — SIGTERM (or :meth:`ServerHandle.drain`) starts a
  graceful drain: stop accepting, give admitted requests up to
  ``drain_s`` to finish, remove the ready file; ``run`` serves on the
  calling thread, ``start_background`` on a daemon thread;
* dispatch — a subclass declares its op table (op name → async
  handler method) and one :meth:`_handle_request` routes every request
  through it;
* errors — handlers raise, and :func:`error_response` maps the
  exception to the wire code, so every op fails the same way;
* encoding — :func:`encode_response` writes every response line,
  splicing a ``query`` response's :class:`~repro.core.records.HitColumns`
  in as their own JSON rows.

A subclass may override :meth:`_starting` (before the listener opens)
and :meth:`_stopping` (after the drain) — the router uses them to
probe its fleet and to close its backend connection pools.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import threading
from dataclasses import dataclass
from typing import (Any, Awaitable, Callable, Dict, FrozenSet, List,
                    Mapping, Optional)

from ..core.config import Query
from ..core.records import HitColumns
from ..observability import tracing
from .scheduler import DeadlineExceeded, SchedulerClosed, ServiceOverloaded

#: Refuse absurd single lines before json.loads sees them.
MAX_LINE_BYTES = 1 << 20

#: How long ``start_background`` waits for the listener (the router
#: probes its whole fleet first).
START_TIMEOUT_S = 30.0

Handler = Callable[[Any, Dict[str, Any]],
                   Awaitable[Optional[Dict[str, Any]]]]


class WireError(RuntimeError):
    """A failure that reaches the client as ``code`` plus ``message``."""

    code = "internal"

    def __init__(self, message: str, code: Optional[str] = None):
        super().__init__(message)
        self.message = message
        if code is not None:
            self.code = code


#: Exception type -> wire code, first match wins.  ``ValueError``
#: (which covers ``VariantError`` and ``EnzymeError``) is malformed
#: client input.
_ERROR_CODES = ((ServiceOverloaded, "overloaded"),
                (DeadlineExceeded, "deadline"),
                (SchedulerClosed, "closed"),
                (ValueError, "bad-request"))


def error_response(exc: Exception) -> Dict[str, Any]:
    """The wire response for a request that failed with ``exc``."""
    if isinstance(exc, WireError):
        return {"ok": False, "error": exc.code, "message": exc.message}
    for kind, code in _ERROR_CODES:
        if isinstance(exc, kind):
            return {"ok": False, "error": code, "message": str(exc)}
    return {"ok": False, "error": "internal",
            "message": f"{type(exc).__name__}: {exc}"}


def encode_response(response: Dict[str, Any]) -> bytes:
    """The wire bytes of ``response``, without the newline.

    Equal to ``json.dumps(response)`` with every
    :class:`~repro.core.records.HitColumns` under ``"hits"`` taken as
    its list of wire rows: each one's :meth:`~repro.core.records.
    HitColumns.json_rows` fragment is spliced into an envelope written
    the way ``json.dumps`` writes a dict (``{"key": value, ...}``).
    """
    hits = response.get("hits")
    if not isinstance(hits, list) or \
            not any(isinstance(per, HitColumns) for per in hits):
        return json.dumps(response).encode("ascii", "replace")
    items = []
    for key, value in response.items():
        if key == "hits":
            fragment = b"[" + b", ".join(
                per.json_rows() if isinstance(per, HitColumns)
                else json.dumps(per).encode("ascii") for per in value
            ) + b"]"
        else:
            fragment = json.dumps(value).encode("ascii", "replace")
        items.append(json.dumps(key).encode("ascii") + b": " + fragment)
    return b"{" + b", ".join(items) + b"}"


def decode_queries(raw: Any) -> List[Query]:
    if not isinstance(raw, list) or not raw:
        raise ValueError("'queries' must be a non-empty list of "
                         "[sequence, max_mismatches] pairs")
    queries = []
    for item in raw:
        if (not isinstance(item, (list, tuple)) or len(item) != 2
                or not isinstance(item[0], str)
                or isinstance(item[1], bool)
                or not isinstance(item[1], int)):
            raise ValueError(
                f"bad query entry {item!r}: expected "
                f"[sequence, max_mismatches]")
        if item[1] < 0:
            raise ValueError(
                f"max_mismatches must be >= 0, got {item[1]}")
        queries.append(Query(sequence=item[0].upper(),
                             max_mismatches=item[1]))
    return queries


def decode_chromosomes(raw: Any) -> Optional[FrozenSet[str]]:
    """Validate an optional per-request chromosome filter."""
    if raw is None:
        return None
    if (not isinstance(raw, list) or not raw
            or not all(isinstance(c, str) for c in raw)):
        raise ValueError("'chromosomes' must be a non-empty list of "
                         "chromosome names")
    return frozenset(raw)


def decode_deadline(request: Mapping[str, Any]) -> Optional[float]:
    """The request's optional ``deadline_s`` (seconds), validated."""
    deadline = request.get("deadline_s")
    if deadline is not None and (isinstance(deadline, bool)
                                 or not isinstance(deadline,
                                                   (int, float))):
        raise ValueError(
            f"deadline_s must be a number, got {deadline!r}")
    return deadline


async def _read_line(reader: asyncio.StreamReader) -> Optional[bytes]:
    """The next request line; ``b""`` at EOF, None if over-long.

    An over-long line is read and dropped through its newline before
    returning, so the caller's error reply is not lost to a reset from
    unread bytes when it closes the connection.
    """
    try:
        return await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:
        return exc.partial
    except asyncio.LimitOverrunError:
        pass
    while True:
        chunk = await reader.read(MAX_LINE_BYTES)
        if not chunk or b"\n" in chunk:
            return None


@dataclass
class ServerHandle:
    """A running background front end: address plus a way to stop it."""

    host: str
    port: int
    _server: "JsonLinesFrontEnd"
    _thread: threading.Thread
    _loop: asyncio.AbstractEventLoop

    def stop(self) -> None:
        self._shutdown(self._server._request_stop, 10.0)

    def drain(self, timeout_s: float = 15.0) -> None:
        """Gracefully drain: stop accepting, finish admitted requests.

        The in-process analog of sending the process SIGTERM; used by
        tests and the router smoke to exercise the drain path without
        a subprocess.
        """
        self._shutdown(self._server._begin_drain, timeout_s)

    def _shutdown(self, trigger: Callable[[], None],
                  timeout_s: float) -> None:
        if self._thread.is_alive():
            try:
                self._loop.call_soon_threadsafe(trigger)
            except RuntimeError:
                pass  # loop already closed: the thread is finishing
            self._thread.join(timeout=timeout_s)
        self._server.close()


class JsonLinesFrontEnd:
    """Connection loop, lifecycle and dispatch over an op table."""

    #: Graceful-shutdown budget for admitted requests (seconds).
    drain_s = 5.0

    #: The op table: wire op name -> handler, declared by each subclass
    #: on the class (bound methods held by the instance would form a
    #: reference cycle that keeps a stopped front end's index alive
    #: until the cyclic collector runs).
    ops: Dict[str, Handler] = {}

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port  # 0 = ephemeral; bound port set once listening
        self._stop_event: Optional[asyncio.Event] = None
        self._draining = False
        self._inflight = 0

    # -- dispatch -------------------------------------------------------

    async def _handle_request(self, request: Dict[str, Any]
                              ) -> Optional[Dict[str, Any]]:
        """Answer one decoded request; None drops the connection."""
        op = request.get("op")
        handler = self.ops.get(op) if isinstance(op, str) else None
        try:
            if handler is None:
                names = list(self.ops)
                raise WireError(
                    f"unknown op {op!r}; expected "
                    f"{', '.join(names[:-1])} or {names[-1]}",
                    "unknown-op")
            return await handler(self, request)
        except Exception as exc:  # noqa: BLE001 - report, keep serving
            return error_response(exc)

    async def _respond(self, line: Optional[bytes]
                       ) -> Optional[Dict[str, Any]]:
        if line is None:
            return error_response(ValueError(
                f"request line exceeds MAX_LINE_BYTES "
                f"({MAX_LINE_BYTES} bytes)"))
        try:
            request = json.loads(line)
            if not isinstance(request, dict):
                raise ValueError("request must be a JSON object")
        except (ValueError, RecursionError) as exc:
            return {"ok": False, "error": "bad-json", "message": str(exc)}
        response = await self._handle_request(request)
        if response is not None and "id" in request:
            response["id"] = request["id"]
        return response

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    line = await _read_line(reader)
                except ConnectionError:
                    break
                if line == b"":
                    break
                self._inflight += 1
                try:
                    response = await self._respond(line)
                    if response is None:
                        break  # injected disconnect: no response
                    writer.write(encode_response(response) + b"\n")
                    try:
                        await writer.drain()
                    except ConnectionError:
                        break
                finally:
                    self._inflight -= 1
                if line is None:
                    break  # the rest of the stream is not trusted
        except asyncio.CancelledError:
            pass  # shutdown: drop the connection quietly
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    # -- lifecycle ------------------------------------------------------

    async def _starting(self) -> None:
        """Hook: runs on the loop before the listener opens."""

    async def _stopping(self) -> None:
        """Hook: runs after the drain, before leftover tasks are
        cancelled."""

    def close(self) -> None:
        """Release what the front end owns once serving has stopped."""

    def _request_stop(self) -> None:
        if self._stop_event is not None:
            self._stop_event.set()

    def _begin_drain(self) -> None:
        """Graceful shutdown: stop accepting, finish admitted work.

        Called from the event loop (SIGTERM handler or
        :meth:`ServerHandle.drain` via ``call_soon_threadsafe``).
        """
        if not self._draining:
            self._draining = True
            tracing.instant("server_drain_begin", cat="service",
                            inflight=self._inflight)
        self._request_stop()

    async def _serve(self, ready: Optional[threading.Event] = None,
                     duration_s: Optional[float] = None,
                     ready_file: Optional[str] = None) -> None:
        self._stop_event = asyncio.Event()
        loop = asyncio.get_running_loop()
        signal_installed = False
        try:
            # A supervisor's SIGTERM triggers the graceful drain
            # instead of killing mid-batch.  Installation fails off
            # the main thread (start_background); those callers use
            # ServerHandle.drain instead.
            loop.add_signal_handler(signal.SIGTERM, self._begin_drain)
            signal_installed = True
        except (NotImplementedError, RuntimeError, ValueError):
            pass
        try:
            await self._starting()
            server = await asyncio.start_server(
                self._handle_connection, host=self.host, port=self.port,
                limit=MAX_LINE_BYTES)
            self.port = server.sockets[0].getsockname()[1]
            if ready is not None:
                ready.set()
            if ready_file:
                # Atomic publish: a supervisor polls for the file's
                # existence, so it must never observe the empty window
                # between create and write.
                part = ready_file + ".part"
                with open(part, "w", encoding="ascii") as handle:
                    handle.write(f"{self.host} {self.port}\n")
                os.replace(part, ready_file)
            async with server:
                try:
                    await asyncio.wait_for(self._stop_event.wait(),
                                           timeout=duration_s)
                except asyncio.TimeoutError:
                    pass
        finally:
            self._stop_event = None
            if signal_installed:
                loop.remove_signal_handler(signal.SIGTERM)
            if self._draining:
                # The listener is closed (async with exited): no new
                # connections.  Give requests already admitted up to
                # drain_s to finish; the scheduler queue drains
                # transitively because each request holds _inflight
                # until its response is written.
                deadline = loop.time() + self.drain_s
                while self._inflight > 0 and loop.time() < deadline:
                    await asyncio.sleep(0.02)
                tracing.instant("server_drained", cat="service",
                                remaining=self._inflight)
            await self._stopping()
            # Cancel connection handlers still blocked in readline so
            # the loop shuts down without pending-task warnings.
            current = asyncio.current_task()
            pending = [task for task in asyncio.all_tasks()
                       if task is not current and not task.done()]
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)

    def run(self, duration_s: Optional[float] = None,
            ready_file: Optional[str] = None) -> None:
        """Serve on the calling thread until stopped (or SIGTERM).

        ``ready_file`` (if given) is written with ``"host port"`` once
        the socket is listening — so a supervisor (or smoke test) can
        find an ephemeral port — and removed again on shutdown
        (including error paths), so a dead front end never keeps
        announcing a port it no longer holds.  ``duration_s`` bounds
        the run, which lets ``repro serve --duration-s 5`` act as its
        own smoke test.
        """
        try:
            asyncio.run(self._serve(duration_s=duration_s,
                                    ready_file=ready_file))
        except KeyboardInterrupt:
            pass
        finally:
            self.close()
            if ready_file:
                try:
                    os.unlink(ready_file)
                except OSError:
                    pass

    def start_background(self) -> ServerHandle:
        """Serve on a daemon thread; returns a handle with the port."""
        ready = threading.Event()
        loop = asyncio.new_event_loop()

        def _run() -> None:
            asyncio.set_event_loop(loop)
            try:
                loop.run_until_complete(self._serve(ready=ready))
            finally:
                loop.close()

        name = type(self).__name__
        thread = threading.Thread(target=_run, name=name, daemon=True)
        thread.start()
        if not ready.wait(timeout=START_TIMEOUT_S):
            raise RuntimeError(f"{name} failed to start within "
                               f"{START_TIMEOUT_S:g} s")
        return ServerHandle(host=self.host, port=self.port, _server=self,
                            _thread=thread, _loop=loop)
