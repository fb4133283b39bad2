"""Server behaviour over a real socket: ops, structured errors,
timeouts/cancellation, malformed peers, disconnects, shutdown."""

import socket
import threading
import time

import numpy as np
import pytest

from repro.core.table import SmartTable
from repro.obs.registry import registry
from repro.server import (
    Catalog,
    HEADER,
    MAX_FRAME_BYTES,
    ServerError,
    SmartArrayServer,
    demo_catalog,
)
from repro.server.client import connect
from repro.server.protocol import recv_frame, send_frame

N_ROWS = 20_000
KEY_BITS = 16


def build_catalog():
    rng = np.random.default_rng(3)
    data = {
        "ts": np.sort(
            rng.integers(0, 1 << KEY_BITS, N_ROWS)
        ).astype(np.uint64),
        "amount": rng.integers(0, 1 << 12, N_ROWS).astype(np.uint64),
    }
    table = SmartTable.from_arrays(data, replicated=True)
    table.build_zone_map("ts")
    catalog = Catalog()
    catalog.register("events", table)
    return catalog, data


@pytest.fixture(scope="module")
def server_and_data():
    catalog, data = build_catalog()
    with SmartArrayServer(catalog, port=0) as server:
        yield server, data


@pytest.fixture()
def conn(server_and_data):
    server, _ = server_and_data
    with connect(port=server.port) as c:
        yield c


@pytest.fixture()
def excepthook_capture():
    """Record uncaught exceptions on any thread — the server's
    no-traceback contract says this list must stay empty."""
    uncaught = []
    previous = threading.excepthook
    threading.excepthook = lambda hook_args: uncaught.append(hook_args)
    try:
        yield uncaught
    finally:
        threading.excepthook = previous


class TestBasicOps:
    def test_ping(self, conn):
        assert conn.ping() is True

    def test_tables_schema(self, conn):
        tables = conn.tables()
        assert tables["events"]["rows"] == N_ROWS
        assert set(tables["events"]["columns"]) == {"ts", "amount"}
        assert tables["events"]["columns"]["ts"]["bits"] <= KEY_BITS

    def test_metrics_prometheus_text(self, conn):
        conn.ping()
        text = conn.metrics()
        assert "repro_server_frames" in text

    def test_explain(self, conn):
        physical = conn.explain(
            "SELECT sum(amount) FROM events WHERE ts < 100"
        )
        assert "morsel" in physical.lower() or "chunk" in physical.lower()

    def test_unknown_op_is_bad_request(self, conn):
        with pytest.raises(ServerError, match="unknown op"):
            conn._checked({"op": "wat"})

    def test_non_string_sql_is_bad_request(self, conn):
        with pytest.raises(ServerError, match="must be a string"):
            conn._checked({"op": "sql", "sql": 123})


class TestSqlResults:
    def test_aggregate_matches_oracle(self, conn, server_and_data):
        _, data = server_and_data
        lo, hi = 1000, 30000
        mask = (data["ts"] >= lo) & (data["ts"] < hi)
        expected = int(data["amount"][mask].astype(object).sum())
        result = conn.sql(
            f"SELECT sum(amount) FROM events "
            f"WHERE ts >= {lo} AND ts < {hi}"
        )
        assert result.scalar() == expected
        assert result.kind == "aggregate"
        assert result.stats["rows_scanned"] >= int(mask.sum())
        assert result.id  # server assigned an id

    def test_groups_round_trip_int_keys(self, conn, server_and_data):
        _, data = server_and_data
        small = data["ts"] < 64
        expected = {}
        for k, v in zip(data["ts"][small].tolist(),
                        data["amount"][small].tolist()):
            expected[k] = expected.get(k, 0) + v
        result = conn.sql(
            "SELECT ts, sum(amount) FROM events WHERE ts < 64 "
            "GROUP BY ts"
        )
        got = {k: aggs["sum(amount)"] for k, aggs in result.groups.items()}
        assert got == expected
        assert all(isinstance(k, int) for k in result.groups)

    def test_row_query_numpy_shapes(self, conn, server_and_data):
        _, data = server_and_data
        rows = np.nonzero(data["ts"] < 32)[0]
        result = conn.sql("SELECT amount FROM events WHERE ts < 32")
        assert result.kind == "rows"
        np.testing.assert_array_equal(result.rows, rows.astype(np.int64))
        np.testing.assert_array_equal(
            result.columns["amount"], data["amount"][rows]
        )

    def test_former_codegen_field_is_an_unread_key(self, conn):
        # Every plan runs its kernel; the old switch is ignored like
        # any key the server does not read.
        frame = conn._checked({"op": "sql", "codegen": "off",
                               "sql": "SELECT amount FROM events LIMIT 3"})
        assert frame["stats"]["mode"] == "compiled"
        assert frame["rows"] == [0, 1, 2]

    def test_explicit_query_id_echoed(self, conn):
        result = conn.sql("SELECT count(*) FROM events", query_id="mine")
        assert result.id == "mine"


class TestStructuredErrors:
    """The bugfix contract: frontend failures come back as structured
    error frames with position info — never tracebacks on the session
    thread — and the session stays usable afterwards."""

    def test_parse_error_frame(self, conn, excepthook_capture):
        with pytest.raises(ServerError) as info:
            conn.sql("SELEC sum(amount) FROM events")
        err = info.value
        assert err.type == "parse"
        assert {"position", "line", "column"} <= err.error.keys()
        assert "^" in err.context
        assert not excepthook_capture

    @pytest.mark.parametrize("digits", ["²", "١٢"])
    def test_non_ascii_digit_is_a_parse_frame_not_internal(
            self, conn, excepthook_capture, digits):
        sql = f"SELECT count(*) FROM events WHERE ts >= {digits}"
        with pytest.raises(ServerError) as info:
            conn.sql(sql)
        err = info.value
        assert err.type == "parse"
        assert err.error["position"] == sql.index(digits)
        assert not excepthook_capture

    def test_bind_error_frame_points_at_column(self, conn,
                                               excepthook_capture):
        sql = "SELECT sum(wat) FROM events"
        with pytest.raises(ServerError) as info:
            conn.sql(sql)
        err = info.value
        assert err.type == "bind"
        assert err.error["position"] == sql.index("wat")
        assert not excepthook_capture

    def test_session_survives_error_burst(self, conn, server_and_data):
        _, data = server_and_data
        for bad in ("", "SELECT", "SELECT wat FROM events",
                    "SELECT v FROM missing", "SELECT * FROM events WHERE"):
            with pytest.raises(ServerError):
                conn.sql(bad)
        assert conn.sql(
            "SELECT count(*) FROM events"
        ).scalar() == N_ROWS

    def test_internal_error_is_a_frame_not_a_traceback(
            self, server_and_data, excepthook_capture, monkeypatch):
        server, _ = server_and_data
        monkeypatch.setattr(
            type(server.catalog), "schema",
            lambda self: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        with connect(port=server.port) as c:
            with pytest.raises(ServerError, match="internal"):
                c.tables()
            monkeypatch.undo()
            assert c.ping()  # same session still alive
        assert not excepthook_capture

    def test_error_counters_by_status(self, server_and_data):
        server, _ = server_and_data
        reg = server.registry
        before = reg.value("server.queries", status="parse_error")
        with connect(port=server.port) as c:
            with pytest.raises(ServerError):
                c.sql("SELEC")
        assert reg.value(
            "server.queries", status="parse_error"
        ) == before + 1


class TestTimeoutAndCancel:
    def test_zero_timeout_times_out(self, conn, excepthook_capture):
        with pytest.raises(ServerError, match="deadline") as info:
            conn.sql("SELECT sum(amount) FROM events", timeout_s=0.0)
        assert info.value.type == "timeout"
        assert not excepthook_capture
        # the session is still usable after a timeout
        assert conn.sql("SELECT count(*) FROM events").scalar() == N_ROWS

    def test_cancel_unknown_id_is_false(self, conn, server_and_data):
        server, _ = server_and_data
        assert conn.cancel("nope") is False
        assert server.cancel_query("nope") is False

    def test_pre_cancelled_query_returns_cancelled_frame(
            self, server_and_data):
        server, _ = server_and_data
        original = server._register_query

        def register_pre_cancelled(query_id):
            event = original(query_id)
            event.set()
            return event

        server._register_query = register_pre_cancelled
        try:
            with connect(port=server.port) as c:
                with pytest.raises(ServerError, match="cancel") as info:
                    c.sql("SELECT sum(amount) FROM events")
                assert info.value.type == "cancelled"
        finally:
            server._register_query = original

    def test_inflight_registry_empties(self, conn, server_and_data):
        server, _ = server_and_data
        conn.sql("SELECT count(*) FROM events")
        assert server.inflight_queries == 0


class TestMalformedPeers:
    def raw_socket(self, server):
        return socket.create_connection(("127.0.0.1", server.port),
                                        timeout=5.0)

    def test_garbage_header_gets_bad_frame_then_close(
            self, server_and_data, excepthook_capture):
        server, _ = server_and_data
        with self.raw_socket(server) as sock:
            sock.sendall(HEADER.pack(MAX_FRAME_BYTES + 5))
            response = recv_frame(sock)
            assert response["ok"] is False
            assert response["error"]["type"] == "bad_frame"
            assert recv_frame(sock) is None  # server hung up
        assert not excepthook_capture

    def test_bad_json_payload(self, server_and_data, excepthook_capture):
        server, _ = server_and_data
        with self.raw_socket(server) as sock:
            sock.sendall(HEADER.pack(9) + b"not json!")
            response = recv_frame(sock)
            assert response["error"]["type"] == "bad_frame"
        assert not excepthook_capture

    def test_truncated_frame_then_disconnect(self, server_and_data,
                                             excepthook_capture):
        server, _ = server_and_data
        sock = self.raw_socket(server)
        sock.sendall(HEADER.pack(1000) + b"only a little")
        sock.close()
        deadline = time.monotonic() + 5.0
        reg = server.registry
        while time.monotonic() < deadline:
            if reg.value("server.frame_errors") > 0:
                break
            time.sleep(0.01)
        assert not excepthook_capture
        # new connections still served
        with connect(port=server.port) as c:
            assert c.ping()

    def test_mid_query_disconnect_does_not_kill_server(
            self, server_and_data, excepthook_capture):
        server, _ = server_and_data
        sock = self.raw_socket(server)
        send_frame(sock, {"op": "sql",
                          "sql": "SELECT sum(amount) FROM events"})
        sock.close()  # vanish before reading the response
        deadline = time.monotonic() + 5.0
        while server.inflight_queries and time.monotonic() < deadline:
            time.sleep(0.01)
        assert server.inflight_queries == 0
        assert not excepthook_capture
        with connect(port=server.port) as c:
            assert c.sql("SELECT count(*) FROM events").scalar() == N_ROWS


class TestLifecycle:
    def test_drain_shutdown_flushes_responses(self):
        catalog, _ = build_catalog()
        server = SmartArrayServer(catalog, port=0).start()
        with connect(port=server.port) as c:
            assert c.ping()
            server.shutdown(drain=True)
            assert server.active_sessions == 0

    def test_queries_refused_while_draining(self):
        catalog, _ = build_catalog()
        server = SmartArrayServer(catalog, port=0).start()
        try:
            with connect(port=server.port) as c:
                assert c.ping()  # session fully established first —
                # otherwise the accept loop may see _stopping and close
                # the socket before the session thread starts
                server._stopping.set()
                with pytest.raises(ServerError, match="draining") as info:
                    c.sql("SELECT count(*) FROM events")
                assert info.value.type == "shutting_down"
        finally:
            server.shutdown()

    def test_double_start_rejected(self):
        catalog, _ = build_catalog()
        with SmartArrayServer(catalog, port=0) as server:
            with pytest.raises(RuntimeError, match="already started"):
                server.start()

    def test_port_before_start_rejected(self):
        catalog, _ = build_catalog()
        server = SmartArrayServer(catalog, port=0)
        with pytest.raises(RuntimeError, match="not started"):
            server.port

    def test_demo_catalog_servable(self):
        with SmartArrayServer(demo_catalog(rows=5_000), port=0) as server:
            with connect(port=server.port) as c:
                assert c.sql(
                    "SELECT count(*) FROM events"
                ).scalar() == 5_000


class TestObservability:
    def test_session_and_global_counters(self, server_and_data):
        server, _ = server_and_data
        reg = server.registry
        ok_before = reg.value("server.queries", status="ok")
        with connect(port=server.port) as c:
            c.sql("SELECT count(*) FROM events")
            c.sql("SELECT count(*) FROM events")
        assert reg.value("server.queries", status="ok") == ok_before + 2
        per_session = reg.values("server.session_queries")
        assert per_session and sum(per_session.values()) >= 2

    def test_gauge_tracks_sessions(self, server_and_data):
        server, _ = server_and_data
        reg = server.registry
        with connect(port=server.port) as c:
            c.ping()
            assert reg.value("server.sessions_active") >= 1


class MorselGate:
    """Holds a query inside its first morsel — past the boundary checks,
    before anything is pinned — until ``release`` is set, and records
    which threads ran morsels."""

    def __init__(self, server, column="amount", hold=True):
        self.array = server.catalog.tables()["events"][column]
        self.entered = threading.Event()
        self.release = threading.Event()
        if not hold:
            self.release.set()
        self.pins = 0
        self.threads = set()

    def __enter__(self):
        pin = self.array.pin_generation

        def gated():
            self.pins += 1
            self.threads.add(threading.current_thread().name)
            if self.pins == 1:
                self.entered.set()
                assert self.release.wait(10)
            return pin()

        self.array.pin_generation = gated
        return self

    def __exit__(self, *exc):
        self.release.set()
        del self.array.pin_generation


def run_in_thread(fn):
    """Start ``fn`` on a thread; ``join()`` returns its result or the
    exception it raised."""
    box = {}

    def target():
        try:
            box["result"] = fn()
        except Exception as exc:  # noqa: BLE001 - handed to the caller
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()

    def join():
        thread.join(10)
        assert not thread.is_alive()
        return box.get("result"), box.get("error")

    return join


class TestSessionThreadDefault:
    """The default server runs a query on its session thread (a serial
    pool): every bound on a query still bites at morsel boundaries."""

    #: Five morsels of 4096 rows over one column: a LIMIT plan keeps
    #: one-superchunk morsels, and this budget outlasts the table.
    SCAN = f"SELECT amount FROM events LIMIT {5 * 4096}"

    def test_default_pool_is_serial_and_explicit_pool_wins(self):
        from repro.runtime import default_pool

        catalog, _ = build_catalog()
        server = SmartArrayServer(catalog, port=0, n_workers=3)
        assert (server.pool.mode, server.pool.n_workers) == ("serial", 3)
        pool = default_pool(2)
        assert SmartArrayServer(catalog, port=0, pool=pool).pool is pool

    def test_morsels_run_on_the_session_thread(self, conn, server_and_data):
        server, data = server_and_data
        with MorselGate(server, hold=False) as gate:
            result = conn.sql(self.SCAN)
        np.testing.assert_array_equal(result.columns["amount"],
                                      data["amount"])
        assert gate.pins == result.stats["morsels_executed"] == 5
        (name,) = gate.threads
        assert name.startswith("repro-session-")

    def test_cancel_op_stops_at_the_next_morsel(self, server_and_data):
        server, _ = server_and_data
        with MorselGate(server) as gate, connect(port=server.port) as victim, \
                connect(port=server.port) as other:
            join = run_in_thread(lambda: victim.sql(
                self.SCAN, query_id="held"))
            assert gate.entered.wait(10)
            assert other.cancel("held") is True
            gate.release.set()
            result, error = join()
            assert result is None and error.type == "cancelled"
            assert gate.pins == 1  # the second morsel never started
            assert gate.array.generation.pin_count == 0
            assert server.inflight_queries == 0
            assert victim.sql("SELECT count(*) FROM events").scalar() \
                == N_ROWS

    def test_deadline_expires_between_morsels(self, server_and_data):
        server, _ = server_and_data
        with MorselGate(server) as gate, connect(port=server.port) as c:
            join = run_in_thread(lambda: c.sql(
                self.SCAN, timeout_s=0.05))
            assert gate.entered.wait(10)
            time.sleep(0.1)
            gate.release.set()
            result, error = join()
            assert result is None and error.type == "timeout"
            assert gate.pins == 1
            assert gate.array.generation.pin_count == 0

    def test_drain_waits_for_the_query_on_its_session_thread(self):
        catalog, data = build_catalog()
        server = SmartArrayServer(catalog, port=0).start()
        with MorselGate(server) as gate, connect(port=server.port) as c:
            join = run_in_thread(lambda: c.sql(self.SCAN))
            assert gate.entered.wait(10)
            join_shutdown = run_in_thread(
                lambda: server.shutdown(drain=True))
            assert server._stopping.wait(10)
            time.sleep(0.05)
            assert server.active_sessions == 1  # still draining
            gate.release.set()
            result, error = join()
            assert error is None
            np.testing.assert_array_equal(result.columns["amount"],
                                          data["amount"])
            assert join_shutdown() == (None, None)
        assert server.active_sessions == 0
