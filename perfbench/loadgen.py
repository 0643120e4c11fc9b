"""Load-generating process: replays a request plan over TCP.

Run as ``python3 perfbench/loadgen.py`` with ``PYTHONPATH`` naming the
repository's ``src``.  The plan arrives as one JSON object on stdin::

    {"host": ..., "port": ..., "connections": 2, "timeout_s": 60,
     "templates": [{"op": "query", ...}, ...],
     "phases": [{"name": "open", "mode": "open",
                 "schedule": [[template, at_s], ...]},
                {"name": "sat", "mode": "closed", "duration_s": 4,
                 "sequence": [template, ...]}]}

A closed phase may also stop after ``count`` requests, and any phase
may use fewer than ``connections`` connections.  A template's ``kind``
labels it for the reports and is not sent.

An *open* phase sends each request at its scheduled offset from the
phase start (or as soon as a connection frees up, if both are busy);
latency is then counted from the scheduled time.  A *closed* phase has
every connection send its next request as soon as the previous one is
answered, cycling its share of ``sequence``, until ``duration_s`` has
passed.

The result is one JSON object on stdout: per phase, its wall-clock
start (``time.time``) and one row per request, with times in seconds
from the phase start::

    [template, id, scheduled, sent, received, decoded, ok, error,
     hits, empty_lists, decode_s, raw_line_or_null]

``raw_line`` is kept only for templates listed in ``keep_raw`` (the
first time each is sent), for the byte-for-byte correctness checks.
"""

from __future__ import annotations

import json
import socket
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.design.ranking import decode_reports
from repro.service.client import _decode_hits


class _Connection:
    """One blocking JSON-lines connection that reconnects on loss."""

    def __init__(self, host: str, port: int, timeout_s: float):
        self.address = (host, port)
        self.timeout_s = timeout_s
        self._sock: Optional[socket.socket] = None
        self._file = None

    def _open(self) -> None:
        self._sock = socket.create_connection(self.address,
                                              timeout=self.timeout_s)
        self._file = self._sock.makefile("rwb")

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._file.close()
            finally:
                self._sock.close()
            self._sock = self._file = None

    def call(self, payload: bytes) -> bytes:
        if self._sock is None:
            self._open()
        try:
            self._file.write(payload)
            self._file.flush()
            line = self._file.readline()
        except OSError:
            self.close()
            raise
        if not line:
            self.close()
            raise ConnectionResetError("server closed the connection")
        return line


def decode(template: Dict[str, Any], line: bytes
           ) -> Tuple[bool, str, int, int]:
    """Decode one response the way a client library would.

    Returns ``(ok, error, hits, empty_lists)``.  A query response must
    carry one non-empty hit list per guide whose rows name that guide:
    every guide was sampled from a real candidate site, so an empty
    list is a wrong answer, not a miss.
    """
    response = json.loads(line)
    if not response.get("ok"):
        return False, str(response.get("error", "unknown")), 0, 0
    op = template["op"]
    if op == "query":
        lists = [_decode_hits(per) for per in response["hits"]]
        if len(lists) != len(template["queries"]):
            return False, "wrong-query-count", 0, 0
        empty = 0
        for hits, (guide, _) in zip(lists, template["queries"]):
            if not hits:
                empty += 1
            elif hits[0].query != guide:
                return False, "wrong-query", 0, 0
        return (empty == 0, "" if empty == 0 else "empty-hits",
                sum(len(h) for h in lists), empty)
    if op == "design":
        reports = decode_reports(response["reports"])
        return bool(reports), "" if reports else "no-reports", 0, 0
    if op == "variant":
        return isinstance(response.get("events"), list), "", 0, 0
    return True, "", 0, 0


def wire_request(template: Dict[str, Any], rid: str) -> bytes:
    """The request line for ``template``: its body minus ``kind``."""
    body = {k: v for k, v in template.items() if k != "kind"}
    body["id"] = rid
    return json.dumps(body).encode("ascii") + b"\n"


class _Phase:
    """Shared state of one phase: the next request and the rows."""

    def __init__(self, spec: Dict[str, Any], templates: List[Dict],
                 keep_raw: set):
        self.spec = spec
        self.templates = templates
        self.keep_raw = keep_raw
        self.lock = threading.Lock()
        self.next = 0
        self.sent = [0] * spec.get("connections", 1)
        self.rows: List[List[Any]] = []
        self.t0 = 0.0
        self.wall0 = 0.0

    def take(self, conn: int, conns: int
             ) -> Optional[Tuple[int, int, Optional[float]]]:
        """The next ``(sequence number, template, scheduled)``.

        Open phases hand out the schedule in order to whichever
        connection is free.  Closed phases give connection ``conn`` of
        ``conns`` every ``conns``-th position of the cycled sequence, so
        each connection replays the same requests whatever the timing.
        """
        with self.lock:
            if self.spec["mode"] == "open":
                n = self.next
                if n >= len(self.spec["schedule"]):
                    return None
                template, at = self.spec["schedule"][n]
            else:
                if self.next >= self.spec.get("count", self.next + 1):
                    return None
                if time.perf_counter() - self.t0 >= \
                        self.spec.get("duration_s", float("inf")):
                    return None
                n = conn + conns * self.sent[conn]
                self.sent[conn] += 1
                seq = self.spec["sequence"]
                template, at = seq[n % len(seq)], None
            self.next += 1
            return n, template, at

    def keep(self, template: int) -> bool:
        with self.lock:
            if template in self.keep_raw:
                self.keep_raw.discard(template)
                return True
            return False


def _worker(phase: _Phase, conn: _Connection, index: int,
            conns: int) -> None:
    name = phase.spec["name"]
    while True:
        item = phase.take(index, conns)
        if item is None:
            return
        n, template_i, at = item
        template = phase.templates[template_i]
        if at is not None:
            delay = phase.t0 + at - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
        rid = f"{name}-{n}"
        payload = wire_request(template, rid)
        sent = time.perf_counter()
        raw = None
        try:
            line = conn.call(payload)
            received = time.perf_counter()
            ok, error, hits, empty = decode(template, line)
            decoded = time.perf_counter()
            if phase.keep(template_i):
                raw = line.decode("ascii")
        except (OSError, ValueError, KeyError, TypeError) as exc:
            received = decoded = time.perf_counter()
            ok, error, hits, empty = False, type(exc).__name__, 0, 0
        row = [template_i, rid, at, sent - phase.t0,
               received - phase.t0, decoded - phase.t0, ok, error, hits,
               empty, decoded - received, raw]
        with phase.lock:
            phase.rows.append(row)


def run(plan: Dict[str, Any]) -> Dict[str, Any]:
    conns = [_Connection(plan["host"], plan["port"], plan["timeout_s"])
             for _ in range(plan["connections"])]
    keep_raw = set(plan.get("keep_raw", ()))
    out = []
    try:
        for spec in plan["phases"]:
            spec = dict(spec)
            used = conns[:spec.setdefault("connections", len(conns))]
            phase = _Phase(spec, plan["templates"], keep_raw)
            threads = [threading.Thread(target=_worker,
                                        args=(phase, conn, i, len(used)),
                                        daemon=True)
                       for i, conn in enumerate(used)]
            phase.wall0 = time.time()
            phase.t0 = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            elapsed = time.perf_counter() - phase.t0
            phase.rows.sort(key=lambda row: row[3])
            out.append({"name": spec["name"], "wall0": phase.wall0,
                        "elapsed_s": elapsed, "rows": phase.rows})
    finally:
        for conn in conns:
            conn.close()
    return {"phases": out}


def main() -> int:
    plan = json.load(sys.stdin)
    json.dump(run(plan), sys.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
