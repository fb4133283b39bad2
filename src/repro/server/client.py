"""Small blocking client for the wire server.

::

    from repro.server.client import connect

    with connect(port=server.port) as conn:
        result = conn.sql("SELECT SUM(amount) FROM events "
                          "WHERE ts >= 268435456 AND ts < 536870912")
        result.aggregates["sum(amount)"]
        conn.metrics()          # prometheus text

One request, one response, in order — the client is a thin veneer over
:mod:`repro.server.protocol`.  Error frames raise :class:`ServerError`
carrying the server's structured error (type, message, and for SQL
frontend failures the position/line/column/context of the offending
token), so callers never have to parse strings to find out what broke.
"""

from __future__ import annotations

import socket
from typing import Dict, List, Optional

import numpy as np

from .protocol import recv_frame, send_frame


class ServerError(RuntimeError):
    """An ``{"ok": false}`` response, as a structured exception."""

    def __init__(self, error: dict) -> None:
        self.type = str(error.get("type", "unknown"))
        self.error = dict(error)
        message = str(error.get("message", "unknown server error"))
        where = ""
        if "line" in error and "column" in error:
            where = f" at {error['line']}:{error['column']}"
        super().__init__(f"{self.type} error{where}: {message}")

    @property
    def context(self) -> Optional[str]:
        """The server's caret-rendered source context, if any."""
        return self.error.get("context")


class SqlResult:
    """A successful ``sql`` response, with NumPy-shaped row access."""

    def __init__(self, frame: dict) -> None:
        self.raw = frame
        self.id: str = frame.get("id", "")
        self.kind: str = frame["kind"]
        self.stats: dict = frame.get("stats", {})
        self.aggregates: Dict[str, object] = frame.get("aggregates", {})
        #: ``{int_key: {agg_name: value}}``, rebuilt from the wire pairs.
        self.groups: Dict[int, Dict[str, object]] = {
            int(key): aggs for key, aggs in frame.get("groups", [])
        }
        self.rows: np.ndarray = np.asarray(
            frame.get("rows", []), dtype=np.int64
        )
        self.columns: Dict[str, np.ndarray] = {
            name: np.asarray(values, dtype=np.uint64)
            for name, values in frame.get("columns", {}).items()
        }

    def scalar(self):
        """The single aggregate value (errors if there isn't exactly 1)."""
        if self.kind != "aggregate" or len(self.aggregates) != 1:
            raise ValueError(
                f"scalar() needs exactly one aggregate, have "
                f"{sorted(self.aggregates)} (kind={self.kind})"
            )
        return next(iter(self.aggregates.values()))

    def __getitem__(self, name: str):
        return self.aggregates[name]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        body = (self.aggregates if self.kind == "aggregate"
                else f"{len(self.groups)} groups" if self.kind == "groups"
                else f"{self.rows.size} rows")
        return f"<SqlResult {self.kind}: {body}>"


class Connection:
    """One open session with the server (context-manager friendly)."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock

    def request(self, obj: dict) -> dict:
        """Send one frame, wait for its response frame."""
        send_frame(self._sock, obj)
        response = recv_frame(self._sock)
        if response is None:
            raise ConnectionError("server closed the connection")
        return response

    def _checked(self, obj: dict) -> dict:
        response = self.request(obj)
        if not response.get("ok", False):
            raise ServerError(response.get("error", {}))
        return response

    def ping(self) -> bool:
        return self._checked({"op": "ping"})["ok"]

    def tables(self) -> Dict[str, dict]:
        return self._checked({"op": "tables"})["tables"]

    def metrics(self) -> str:
        """Prometheus text exposition of the server-side registry."""
        return self._checked({"op": "metrics"})["metrics"]

    def explain(self, sql: str) -> str:
        response = self._checked({"op": "explain", "sql": sql})
        return response["physical"]

    def sql(self, sql: str, timeout_s: Optional[float] = None,
            query_id: Optional[str] = None) -> SqlResult:
        """Execute one SELECT; raises :class:`ServerError` on failure."""
        request: dict = {"op": "sql", "sql": sql}
        if timeout_s is not None:
            request["timeout_s"] = timeout_s
        if query_id is not None:
            request["id"] = query_id
        return SqlResult(self._checked(request))

    def cancel(self, query_id: str) -> bool:
        """Cancel an in-flight query by id (usable from any session)."""
        return self._checked({"op": "cancel", "id": query_id})["cancelled"]

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def connect(host: str = "127.0.0.1", port: int = 0,
            timeout_s: float = 30.0) -> Connection:
    """Open a blocking connection to a running server."""
    sock = socket.create_connection((host, port), timeout=timeout_s)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return Connection(sock)
