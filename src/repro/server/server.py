"""Threaded JSON-over-TCP server fronting the smart-array query engine.

One accept thread, one session thread per connection (the classic
thread-per-session layout), and **a query runs on its session thread**:
the default pool is a ``serial`` :class:`WorkerPool`, whose worker
contexts take their turns on the calling thread (the first drains the
morsel counter), so parallelism comes *across* queries, from the
session threads.  Morsel parallelism *within* a query lost to that on
every measurement: pool threads decode in NumPy but claim, pin, fold
and merge in Python under one GIL, and spawning and joining four of
them per query cost more than a point query's plan and kernel together
(empty dispatch 0.4-1.1 ms; a 50 %-span scan ran 0.50-0.73x the speed
of the serial run, and a 2-thread pool still lost; DESIGN.md has the
end-to-end numbers).  An explicit
``pool=`` (any mode) still wins; threads inside a query come back when
they are processes (ROADMAP "make parallelism real", step 2) and
``runtime.pool_speedup`` reads above 1.  The
wire format is length-prefixed JSON frames (:mod:`repro.server.
protocol`); requests are objects with an ``op`` key:

``{"op": "sql", "sql": "...", "id"?, "timeout_s"?, "codegen"?}``
    Parse, bind against the catalog, and execute (on this session's
    thread unless the server was given a threaded ``pool=``).
    Responses carry the result (aggregates / groups / rows+columns)
    plus executor stats.  Frontend failures come back as *structured
    error frames* — ``{"ok": false, "error": {"type": "parse"|"bind",
    "message", "position", "line", "column", "context"}}`` — never as
    a traceback on the session thread.
``{"op": "explain", "sql": "..."}``
    The physical plan as text, without executing.
``{"op": "cancel", "id": "..."}``
    Cooperatively cancel an in-flight query (any session's).
``{"op": "ping"}`` / ``{"op": "tables"}`` / ``{"op": "metrics"}``
    Liveness, catalog schema, and a prometheus text exposition of the
    process-wide :mod:`repro.obs` registry (the ``/metrics`` analogue).

Every query runs with a cancel event and a deadline wired into the
executor's morsel-boundary checks, and every session/query updates
global and per-session counters in the observability registry plus a
``server.query`` trace span.  ``shutdown(drain=True)`` stops accepting,
lets in-flight queries finish and flush their responses, then closes
the remaining sessions.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Dict, Optional

from ..obs.export import prometheus_text
from ..obs.registry import registry as _obs_registry
from ..obs.trace import trace
from ..query.executor import QueryCancelled, QueryTimeout
from ..runtime.loops import default_pool
from ..runtime.workers import WorkerPool
from ..sql import SqlError, compile_sql
from .catalog import Catalog
from .protocol import FrameError, recv_frame, send_frame

#: Default per-query deadline; requests may lower or raise it.
DEFAULT_TIMEOUT_S = 30.0


def _error_frame(kind: str, message: str, **extra) -> dict:
    error = {"type": kind, "message": message}
    error.update(extra)
    return {"ok": False, "error": error}


def _result_frame(result, query_id: str) -> dict:
    """Serialize a :class:`QueryResult` for the wire.

    Groups are shipped as sorted ``[key, aggs]`` pairs (JSON objects
    cannot have int keys); row queries ship the matching row indices
    plus projected column values as plain int lists — uint64 survives
    JSON exactly because Python ints are unbounded on both ends.
    """
    stats = result.stats
    frame = {
        "ok": True,
        "id": query_id,
        "kind": result.kind,
        "stats": {
            "mode": stats.mode,
            "wall_time_s": stats.wall_time_s,
            "rows_scanned": stats.rows_scanned,
            "rows_matched": stats.rows_matched,
            "morsels_executed": stats.morsels_executed,
            "morsels_pruned": stats.morsels_pruned,
            "decoded_chunks": dict(stats.decoded_chunks),
        },
    }
    if result.kind == "aggregate":
        frame["aggregates"] = dict(result.aggregates)
    elif result.kind == "groups":
        frame["groups"] = [
            [key, dict(aggs)] for key, aggs in sorted(result.groups.items())
        ]
    else:
        frame["rows"] = [int(i) for i in result.rows]
        frame["columns"] = {
            name: [int(v) for v in values]
            for name, values in result.columns.items()
        }
    return frame


class _Session:
    """One connected client: a socket, a thread, per-session metrics."""

    def __init__(self, server: "SmartArrayServer", sock: socket.socket,
                 session_id: int) -> None:
        self.server = server
        self.sock = sock
        self.id = session_id
        self.label = f"s{session_id}"
        self.thread = threading.Thread(
            target=self.run, name=f"repro-session-{session_id}", daemon=True
        )

    def run(self) -> None:
        reg = self.server.registry
        try:
            while True:
                try:
                    request = recv_frame(self.sock)
                except FrameError as exc:
                    # Malformed peer: report once, then hang up — the
                    # stream is no longer in a known state.
                    reg.counter("server.frame_errors").add(1)
                    self._send_best_effort(
                        _error_frame("bad_frame", str(exc))
                    )
                    break
                except OSError:
                    break
                if request is None:  # clean EOF
                    break
                reg.counter("server.frames", direction="in").add(1)
                # The busy window spans handle+send so a draining
                # shutdown never closes the socket under a response.
                self.server._frame_begin()
                try:
                    try:
                        response = self.handle(request)
                    except Exception as exc:  # noqa: BLE001 - must not escape
                        # The contract: no request ever turns into a
                        # traceback on the session thread.
                        reg.counter(
                            "server.queries", status="internal"
                        ).add(1)
                        response = _error_frame(
                            "internal", f"{type(exc).__name__}: {exc}"
                        )
                    sent = self._send_best_effort(response)
                finally:
                    self.server._frame_end()
                if not sent:
                    break
        finally:
            try:
                self.sock.close()
            except OSError:
                pass
            self.server._session_closed(self)

    def _send_best_effort(self, frame: dict) -> bool:
        """Send a frame; a client that vanished mid-query is not an
        error condition for the server."""
        try:
            send_frame(self.sock, frame)
            self.server.registry.counter(
                "server.frames", direction="out"
            ).add(1)
            return True
        except (OSError, FrameError):
            self.server.registry.counter("server.send_failures").add(1)
            return False

    # -- request dispatch ---------------------------------------------
    def handle(self, request: dict) -> dict:
        op = request.get("op")
        if op == "ping":
            return {"ok": True, "op": "ping"}
        if op == "tables":
            return {"ok": True, "tables": self.server.catalog.schema()}
        if op == "metrics":
            return {"ok": True, "metrics": prometheus_text(self.server.registry)}
        if op == "cancel":
            cancelled = self.server.cancel_query(str(request.get("id", "")))
            return {"ok": True, "cancelled": cancelled}
        if op == "explain":
            return self._handle_explain(request)
        if op == "sql":
            return self._handle_sql(request)
        return _error_frame(
            "bad_request",
            f"unknown op {op!r}; expected one of "
            f"ping, tables, metrics, explain, sql, cancel",
        )

    def _compile(self, request: dict):
        sql = request.get("sql")
        if not isinstance(sql, str):
            return None, _error_frame(
                "bad_request", "the 'sql' field must be a string"
            )
        try:
            query = compile_sql(sql, self.server.catalog.tables())
        except SqlError as exc:
            self.server.registry.counter(
                "server.queries", status=f"{exc.kind}_error"
            ).add(1)
            return None, {"ok": False, "error": exc.to_dict()}
        codegen = request.get("codegen")
        if codegen is not None:
            try:
                query.codegen(str(codegen))
            except ValueError as exc:
                return None, _error_frame("bad_request", str(exc))
        return query, None

    def _handle_explain(self, request: dict) -> dict:
        query, error = self._compile(request)
        if error is not None:
            return error
        return {
            "ok": True,
            "logical": query.describe(),
            "physical": query.explain(pool=self.server.pool),
        }

    def _handle_sql(self, request: dict) -> dict:
        server = self.server
        reg = server.registry
        query, error = self._compile(request)
        if error is not None:
            return error
        if server._stopping.is_set():
            reg.counter("server.queries", status="shutting_down").add(1)
            return _error_frame(
                "shutting_down", "server is draining; not accepting queries"
            )
        timeout_s = request.get("timeout_s", server.default_timeout_s)
        if timeout_s is not None:
            timeout_s = float(timeout_s)
        query_id = str(request.get("id") or server._next_query_id())
        cancel = server._register_query(query_id)
        t0 = time.perf_counter()
        try:
            with trace("server.query", session=self.label,
                       table=request.get("sql", "")[:40]):
                result = query.run(
                    pool=server.pool, cancel=cancel, timeout_s=timeout_s
                )
        except QueryTimeout as exc:
            reg.counter("server.queries", status="timeout").add(1)
            return _error_frame("timeout", str(exc), id=query_id)
        except QueryCancelled as exc:
            reg.counter("server.queries", status="cancelled").add(1)
            return _error_frame("cancelled", str(exc), id=query_id)
        finally:
            server._unregister_query(query_id)
        reg.counter("server.queries", status="ok").add(1)
        reg.counter("server.session_queries", session=self.label).add(1)
        reg.histogram("server.query_seconds").observe(
            time.perf_counter() - t0
        )
        return _result_frame(result, query_id)


class SmartArrayServer:
    """The wire server: catalog + thread-per-session.

    ::

        server = SmartArrayServer(catalog, port=0).start()
        ... clients connect to server.port ...
        server.shutdown(drain=True)

    ``port=0`` binds an ephemeral port (read it back from ``.port``).
    Each query executes on its session's thread: the default pool is
    ``default_pool(n_workers, mode="serial")``, so ``n_workers`` shapes
    the worker contexts (which sockets' replicas a static distribution
    reads) and starts no thread.  Pass ``pool=`` to share a threaded
    :class:`WorkerPool` between sessions instead.
    """

    def __init__(self, catalog: Catalog, host: str = "127.0.0.1",
                 port: int = 0, n_workers: int = 4,
                 pool: Optional[WorkerPool] = None,
                 default_timeout_s: Optional[float] = DEFAULT_TIMEOUT_S,
                 ) -> None:
        self.catalog = catalog
        self.host = host
        self._requested_port = port
        self.pool = (pool if pool is not None
                     else default_pool(n_workers, mode="serial"))
        self.default_timeout_s = default_timeout_s
        self.registry = _obs_registry()

        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._stopping = threading.Event()
        self._lock = threading.Lock()
        self._sessions: Dict[int, _Session] = {}
        self._next_session_id = 0
        self._query_counter = 0
        self._inflight: Dict[str, threading.Event] = {}
        self._busy_sessions = 0
        self._drained = threading.Condition(self._lock)

    # -- lifecycle ----------------------------------------------------
    def start(self) -> "SmartArrayServer":
        if self._listener is not None:
            raise RuntimeError("server already started")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self._requested_port))
        listener.listen(64)
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-server-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    @property
    def port(self) -> int:
        if self._listener is None:
            raise RuntimeError("server not started")
        return self._listener.getsockname()[1]

    def _accept_loop(self) -> None:
        reg = self.registry
        while not self._stopping.is_set():
            try:
                sock, _addr = self._listener.accept()
            except OSError:
                break  # listener closed by shutdown()
            reg.counter("server.connections_total").add(1)
            with self._lock:
                if self._stopping.is_set():
                    sock.close()
                    break
                session_id = self._next_session_id
                self._next_session_id += 1
                session = _Session(self, sock, session_id)
                self._sessions[session_id] = session
            reg.gauge("server.sessions_active").add(1)
            session.thread.start()

    def _session_closed(self, session: _Session) -> None:
        with self._lock:
            self._sessions.pop(session.id, None)
        self.registry.gauge("server.sessions_active").add(-1)

    def shutdown(self, drain: bool = True,
                 timeout_s: float = 10.0) -> None:
        """Stop the server.

        With ``drain=True`` (the default), queries already executing
        finish and their responses are flushed before the sessions are
        closed; new ``sql`` requests arriving during the drain are
        refused with a ``shutting_down`` error frame.  ``drain=False``
        cancels in-flight queries cooperatively instead of waiting.
        """
        self._stopping.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        deadline = time.monotonic() + timeout_s
        if not drain:
            with self._lock:
                for event in self._inflight.values():
                    event.set()
        with self._drained:
            while self._busy_sessions and time.monotonic() < deadline:
                self._drained.wait(timeout=0.05)
        # Unblock sessions parked in recv_frame().
        with self._lock:
            sessions = list(self._sessions.values())
        for session in sessions:
            try:
                session.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                session.sock.close()
            except OSError:
                pass
        for session in sessions:
            session.thread.join(timeout=max(0.0, deadline - time.monotonic()))
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=1.0)

    def __enter__(self) -> "SmartArrayServer":
        return self.start() if self._listener is None else self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # -- in-flight query registry -------------------------------------
    def _next_query_id(self) -> str:
        with self._lock:
            self._query_counter += 1
            return f"q{self._query_counter}"

    def _register_query(self, query_id: str) -> threading.Event:
        event = threading.Event()
        with self._lock:
            self._inflight[query_id] = event
        return event

    def _unregister_query(self, query_id: str) -> None:
        with self._lock:
            self._inflight.pop(query_id, None)

    def _frame_begin(self) -> None:
        with self._lock:
            self._busy_sessions += 1

    def _frame_end(self) -> None:
        with self._drained:
            self._busy_sessions -= 1
            if not self._busy_sessions:
                self._drained.notify_all()

    def cancel_query(self, query_id: str) -> bool:
        """Set the cancel flag of an in-flight query; ``False`` when the
        id is unknown or the query already finished."""
        with self._lock:
            event = self._inflight.get(query_id)
        if event is None:
            return False
        event.set()
        return True

    @property
    def inflight_queries(self) -> int:
        with self._lock:
            return len(self._inflight)

    @property
    def active_sessions(self) -> int:
        with self._lock:
            return len(self._sessions)


def serve(catalog: Catalog, **kwargs) -> SmartArrayServer:
    """Build and start a :class:`SmartArrayServer` in one call."""
    return SmartArrayServer(catalog, **kwargs).start()
