"""Wire-protocol server: smart arrays for out-of-process clients.

The paper's pitch is *language-independent* adaptive data; this package
is the network face of it.  A :class:`SmartArrayServer` fronts a
:class:`Catalog` of :class:`~repro.core.table.SmartTable`\\ s over a
length-prefixed JSON-over-TCP protocol — SQL in, results out — with
one session thread per connection, each query running on its session's
thread (see :mod:`repro.server.server` for why not on pool threads)::

    from repro.server import SmartArrayServer, demo_catalog
    from repro.server.client import connect

    server = SmartArrayServer(demo_catalog(), port=0).start()
    with connect(port=server.port) as conn:
        total = conn.sql("SELECT SUM(amount) FROM events").scalar()
    server.shutdown()

Sessions get query timeouts, cooperative cancellation, structured
error frames (never tracebacks), per-session+global observability
counters, a prometheus ``metrics`` command, and drain-on-shutdown.
"""

from .catalog import Catalog, demo_catalog
from .client import Connection, ServerError, SqlResult, connect
from .protocol import (
    FrameError,
    HEADER,
    MAX_FRAME_BYTES,
    recv_frame,
    send_frame,
)
from .server import DEFAULT_TIMEOUT_S, SmartArrayServer, serve

__all__ = [
    "Catalog",
    "Connection",
    "DEFAULT_TIMEOUT_S",
    "FrameError",
    "HEADER",
    "MAX_FRAME_BYTES",
    "ServerError",
    "SmartArrayServer",
    "SqlResult",
    "connect",
    "demo_catalog",
    "recv_frame",
    "send_frame",
    "serve",
]
