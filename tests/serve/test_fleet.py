"""Fleet unit + integration tests: addresses, sharding, TCP, rerouting.

The cheap layers get exhaustive unit coverage (address classification,
the consistent-hash ring).  The fleet tests run real forked shards, as
every fleet does: solves bit-identical to a standalone engine, sticky
routing, stats, drain and quotas, plus start-up that fails fast on a
dead shard, idle shards that keep their heartbeat, and a SIGKILLed
shard that respawns while requests reroute.
"""

import os
import signal
import socket
import threading
import time

import numpy as np
import pytest

from repro.core.engine import ParmaEngine
from repro.mea.synthetic import paper_like_spec
from repro.mea.wetlab import quick_device_data, run_campaign
from repro.parallel.pymp import fork_available
from repro.serve import (
    STATUS_DRAINING,
    STATUS_INVALID,
    STATUS_OK,
    STATUS_QUOTA,
    FleetConfig,
    ServeConnectionError,
    ServiceConfig,
    ShardMap,
    SolveClient,
    SolveFleet,
    SolveService,
)
from repro.serve import fleet as fleet_mod
from repro.serve import server as server_mod
from repro.serve.fleet import MAX_REROUTES, ROUTE_LABEL
from repro.serve.queue import MAX_BYPASS_AGE
from repro.serve.protocol import (
    MAX_MESSAGE_BYTES,
    Response,
    connect_address,
    encode_message,
    format_address,
    parse_address,
    recv_message,
    send_message,
)


class TestParseAddress:
    def test_host_port_is_tcp(self):
        assert parse_address("127.0.0.1:7433") == ("tcp", ("127.0.0.1", 7433))

    def test_explicit_scheme(self):
        assert parse_address("tcp://box:9000") == ("tcp", ("box", 9000))

    def test_empty_host_defaults_to_loopback(self):
        assert parse_address(":7433") == ("tcp", ("127.0.0.1", 7433))
        assert parse_address("tcp://:9000") == ("tcp", ("127.0.0.1", 9000))

    def test_paths_are_unix(self):
        assert parse_address("/tmp/parma.sock") == ("unix", "/tmp/parma.sock")
        assert parse_address("relative.sock") == ("unix", "relative.sock")

    def test_slash_beats_colon(self):
        # A path may legally contain a colon; the slash disambiguates.
        assert parse_address("/tmp/weird:1234") == ("unix", "/tmp/weird:1234")

    def test_bound_tuple_is_tcp(self):
        # getsockname() form, as held by SolveService.tcp_address.
        assert parse_address(("127.0.0.1", 33183)) == (
            "tcp",
            ("127.0.0.1", 33183),
        )

    def test_malformed_explicit_tcp_rejected(self):
        with pytest.raises(ValueError, match="malformed tcp"):
            parse_address("tcp://nocolon")

    def test_format_round_trip(self):
        assert format_address("tcp://:9000") == "127.0.0.1:9000"
        assert format_address(("10.0.0.5", 80)) == "10.0.0.5:80"
        assert format_address("/tmp/parma.sock") == "/tmp/parma.sock"


class TestShardMap:
    def test_deterministic_across_instances(self):
        a, b = ShardMap(4), ShardMap(4)
        for n in (8, 10, 12, 16, 24):
            for formation in ("geodesic", "direct"):
                key = a.route_key(n, formation)
                assert a.shard_for(n, formation) == b.shard_for(n, formation)
                assert list(a.preference(key)) == list(b.preference(key))

    def test_preference_covers_every_shard_once(self):
        ring = ShardMap(5)
        key = ring.route_key(12, "geodesic")
        order = list(ring.preference(key))
        assert sorted(order) == list(range(5))
        assert order[0] == ring.shard_for(12, "geodesic")

    def test_keys_spread_over_shards(self):
        ring = ShardMap(4)
        hit = {ring.shard_for(n, "geodesic") for n in range(4, 64)}
        assert hit == set(range(4))

    def test_resize_moves_a_minority_of_keys(self):
        # Consistent hashing's point: growing 4 -> 5 shards should
        # remap roughly 1/5 of keys, not reshuffle everything.
        before, after = ShardMap(4), ShardMap(5)
        keys = [(n, f) for n in range(4, 104) for f in ("geodesic", "direct")]
        moved = sum(
            before.shard_for(n, f) != after.shard_for(n, f) for n, f in keys
        )
        assert moved < len(keys) // 2

    def test_route_label_keeps_placement(self):
        # The front hashes n with a fixed label; with it, sizes keep
        # the shards they had when the key also carried the formation
        # mode (default "cached").  A bare str(n) key would move most.
        ring = ShardMap(2)
        placed = {n: ring.shard_for(n, ROUTE_LABEL) for n in (8, 12, 16, 20)}
        assert placed == {8: 1, 12: 1, 16: 0, 20: 1}
        moved = sum(ring.preference(str(n))[0] != placed[n] for n in placed)
        assert moved == 3

    def test_dead_shard_skipped(self):
        ring = ShardMap(3)
        assert ring.shard_for(8, "geodesic", alive={1}) == 1

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            ShardMap(0)


def _template(tmp_path, **fields) -> ServiceConfig:
    """A shard template; the fleet replaces both paths per shard."""
    fields.setdefault("executor", "thread")
    return ServiceConfig(
        socket_path=tmp_path / "template.sock",
        results_dir=tmp_path / "template",
        **fields,
    )


class TestFleetConfig:
    @pytest.mark.parametrize(
        "bad", [{"serve_workers": 0}, {"executor": "fork"}]
    )
    def test_bad_shard_values_raise_at_construction(self, tmp_path, bad):
        with pytest.raises(ValueError):
            FleetConfig(
                listen="127.0.0.1:0",
                results_dir=tmp_path,
                service=_template(tmp_path, **bad),
            )

    def test_default_shard_config_is_unchanged(self, tmp_path):
        config = FleetConfig(listen="127.0.0.1:0", results_dir=tmp_path)
        # Field by field, the shard config the fleet has always run
        # (and e2ebench's fleet-mixed workload runs).
        assert config.shard_service_config(0) == ServiceConfig(
            socket_path=tmp_path / "shard-0" / "shard.sock",
            results_dir=tmp_path / "shard-0",
            tcp=None,
            max_queue_depth=64,
            serve_workers=1,
            max_deadline=None,
            observer=None,
            executor="thread",
            stall_timeout=30.0,
            term_grace=1.0,
            max_salvage=1,
            quota_rate=None,
            quota_burst=8.0,
            max_queue_seconds=None,
            faults=None,
            catalog_path=None,
        )
        # The settings that are module constants now, at the values
        # the fields had.
        assert MAX_BYPASS_AGE == 5.0
        assert server_mod._IDEMPOTENCY_CACHE == 128
        assert MAX_REROUTES == 2

    def test_template_fields_reach_every_shard(self, tmp_path):
        config = FleetConfig(
            listen="127.0.0.1:0",
            results_dir=tmp_path,
            shards=3,
            service=_template(tmp_path, max_queue_seconds=2.0),
        )
        for index in range(3):
            shard = config.shard_service_config(index)
            assert shard.max_queue_seconds == 2.0
            assert shard.socket_path == config.shard_socket(index)
            assert shard.results_dir == config.shard_dir(index)

    def test_template_with_tcp_raises(self, tmp_path):
        with pytest.raises(ValueError, match="only listener"):
            FleetConfig(
                listen="127.0.0.1:0",
                results_dir=tmp_path,
                service=_template(tmp_path, tcp="127.0.0.1:0"),
            )


def _scripted_tcp_server(steps):
    """A real TCP listener whose connections run ``steps`` in order.

    Each step handles one accepted connection; the listener closes
    after the last.  Returns (address-string, connection-counter).
    """
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(8)
    host, port = listener.getsockname()[:2]
    seen = []

    def serve():
        for step in steps:
            conn, _ = listener.accept()
            seen.append(1)
            try:
                step(conn)
            finally:
                conn.close()
        listener.close()

    threading.Thread(target=serve, daemon=True).start()
    return f"{host}:{port}", seen


def _z(n: int = 4) -> list:
    rng = np.random.default_rng(7)
    return rng.uniform(2000.0, 11000.0, size=(n, n)).tolist()


class TestClientOverTcp:
    def test_connect_refused_names_the_address(self):
        # Bind-then-close guarantees a port nothing listens on.
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        host, port = probe.getsockname()[:2]
        probe.close()
        client = SolveClient(f"{host}:{port}", timeout=5.0)
        with pytest.raises(ServeConnectionError) as err:
            client.ping()
        assert f"{host}:{port}" in str(err.value)
        assert "parma fleet" in str(err.value)

    def test_retry_reconnects_after_dropped_connection(self):
        def drop(conn):
            pass  # close without replying: mid-stream failure

        def answer(conn):
            message = recv_message(conn)
            send_message(
                conn,
                Response(
                    id=str(message.get("id") or ""),
                    status=STATUS_OK,
                    summary="ok",
                ).to_dict(),
            )

        address, seen = _scripted_tcp_server([drop, answer])
        client = SolveClient(address, timeout=5.0, retries=2, backoff=0.01)
        response = client.solve(_z())
        assert response.ok
        assert len(seen) == 2  # first connection dropped, second answered

    def test_connect_address_opens_tcp(self):
        def answer(conn):
            send_message(conn, {"kind": "pong"})

        address, _ = _scripted_tcp_server([answer])
        sock = connect_address(address, timeout=5.0)
        try:
            assert sock.family == socket.AF_INET
        finally:
            sock.close()


@pytest.fixture(scope="module")
def measurement():
    run = run_campaign(paper_like_spec(8, seed=7), seed=7)
    return run.campaign.measurements[0]


def _standalone(measurement):
    return ParmaEngine(strategy="single", threshold_sigmas=3.0).parametrize(
        measurement
    )


@pytest.fixture()
def reference(measurement):
    """The standalone solve of ``measurement``."""
    return _standalone(measurement)


@pytest.fixture()
def fleet(tmp_path, reference):
    """A two-shard forked fleet behind a TCP front on port 0.

    Forked after ``reference``, so the shards inherit its Laplacian
    factors: a shard runs on its BLAS share of the CPUs, and a factor
    built at another thread count can differ in the last bits.
    """
    if not fork_available():
        pytest.skip("needs os.fork")
    config = FleetConfig(
        listen="127.0.0.1:0",
        results_dir=tmp_path / "fleet",
        shards=2,
    )
    f = SolveFleet(config)
    f.start()
    client = SolveClient(format_address(f.tcp_address), timeout=60.0)
    assert client.wait_ready(timeout=10.0)
    yield f, client
    f.stop()


class TestFleetInProcess:
    def test_ping_reports_fleet_shape(self, fleet):
        _, client = fleet
        pong = client.ping()
        assert pong["fleet"]["shards"] == 2
        assert sorted(pong["fleet"]["alive"]) == [0, 1]

    def test_solve_bit_identical_to_standalone(
        self, fleet, reference, measurement
    ):
        _, client = fleet
        response = client.solve(
            measurement.z_kohm,
            voltage=measurement.voltage,
            hour=measurement.hour,
            want_field=True,
        )
        assert response.status == STATUS_OK
        assert np.array_equal(response.resistance_array(), reference.resistance)

    def test_same_key_routes_sticky(self, fleet, measurement):
        f, client = fleet
        for _ in range(3):
            assert client.solve(measurement.z_kohm).ok
        stats = client.stats()
        routed = stats["fleet"]["routed"]
        # One n -> one home shard; the other stays cold.
        assert sorted(routed) in ([0, 3], [3, 0])

    def test_stats_aggregate_across_shards(self, fleet, measurement):
        _, client = fleet
        assert client.solve(measurement.z_kohm).ok
        stats = client.stats()
        assert stats["executor"] == "fleet"
        assert len(stats["shards"]) == 2
        assert stats["requests"] >= 1
        assert "queue_depths" in stats

    def test_drain_rejects_retriably_and_wait_completes(self, fleet):
        f, client = fleet
        f.request_drain()
        response = client.solve(_z(8))
        assert response.status == STATUS_DRAINING
        assert response.retriable
        assert f.wait(timeout=10.0)

    def test_template_quota_rejects_with_retriable_status(
        self, tmp_path, measurement
    ):
        config = FleetConfig(
            listen="127.0.0.1:0",
            results_dir=tmp_path / "quota-fleet",
            shards=2,
            service=_template(tmp_path, quota_rate=0.001, quota_burst=1.0),
        )
        f = SolveFleet(config)
        f.start()
        try:
            client = SolveClient(format_address(f.tcp_address), timeout=60.0)
            assert client.wait_ready(timeout=10.0)
            first = client.solve(measurement.z_kohm, client_id="greedy")
            second = client.solve(measurement.z_kohm, client_id="greedy")
            assert first.ok
            assert second.status == STATUS_QUOTA
            assert second.retriable
            # Anonymous clients are exempt: past the burst, still admitted.
            for _ in range(2):
                assert client.solve(measurement.z_kohm).ok
        finally:
            f.stop()

    def test_quota_is_metered_per_shard(self, tmp_path):
        config = FleetConfig(
            listen="127.0.0.1:0",
            results_dir=tmp_path / "per-shard-fleet",
            shards=2,
            service=_template(tmp_path, quota_rate=0.001, quota_burst=1.0),
        )
        f = SolveFleet(config)
        assert f.map.shard_for(12, ROUTE_LABEL) != f.map.shard_for(
            16, ROUTE_LABEL
        )
        f.start()
        try:
            client = SolveClient(format_address(f.tcp_address), timeout=60.0)
            assert client.wait_ready(timeout=10.0)
            # Burst 1, yet one request per home shard is admitted.
            z = {n: quick_device_data(n, seed=n)[1] for n in (12, 16)}
            for n in (12, 16):
                assert client.solve(z[n], client_id="spread").ok
            again = client.solve(z[12], client_id="spread")
            assert again.status == STATUS_QUOTA
        finally:
            f.stop()


#: Solver and validate names outside ``SOLVER_METHODS``/``VALIDATE_MODES``;
#: ``full`` is the joint system, which is a test oracle, not a solver.
_UNKNOWN_NAMES = [
    {"solver": "full"},
    {"solver": "alchemy"},
    {"validate": "bogus"},
]

#: Frames a typed client never sends; each must be answered ``invalid``.
_MALFORMED_FIELDS = [
    {"voltage": None},
    {"hour": [0.0]},
    {"hour": {"h": 0}},
    {"threshold_sigmas": [3.0]},
    {"threshold_sigmas": {"s": 3}},
    {"want_field": "false"},
    {"deadline": False},
    *_UNKNOWN_NAMES,
]


@pytest.fixture()
def thread_service(tmp_path):
    """A started thread-mode service on a tmp socket."""
    svc = SolveService(ServiceConfig(
        socket_path=tmp_path / "svc.sock",
        results_dir=tmp_path / "svc",
        executor="thread",
    ))
    svc.start()
    yield svc
    svc.stop()


def _raw_roundtrip(address, message: dict) -> dict:
    return _raw_frame_roundtrip(address, encode_message(message))


def _raw_frame_roundtrip(address, frame: bytes) -> dict:
    sock = connect_address(address, timeout=30.0)
    try:
        sock.sendall(frame)
        reply = recv_message(sock)
    finally:
        sock.close()
    assert reply is not None, "host closed the connection without a reply"
    return reply


def _frame(payload: bytes) -> bytes:
    return len(payload).to_bytes(4, "big") + payload


#: Frames no client sends; both hosts must answer each ``invalid``.
_BAD_FRAMES = {
    "undecodable-payload": _frame(b"\xff!!!"),
    "over-limit-prefix": (MAX_MESSAGE_BYTES + 1).to_bytes(4, "big"),
    "non-object-json": _frame(b"[1, 2, 3]"),
    "unknown-kind": encode_message({"kind": "frobnicate", "id": "x"}),
}


@pytest.fixture(params=["service", "fleet"])
def host(request):
    """``(host, address)``: a thread-mode service or a 2-shard fleet."""
    if request.param == "service":
        svc = request.getfixturevalue("thread_service")
        return svc, svc.config.socket_path
    f, _ = request.getfixturevalue("fleet")
    return f, format_address(f.tcp_address)


class TestMalformedFrames:
    @pytest.mark.parametrize("field", _MALFORMED_FIELDS, ids=str)
    def test_service_and_fleet_both_answer_invalid(
        self, field, thread_service, fleet
    ):
        f, _ = fleet
        message = {"kind": "solve", "z": _z(4), **field}
        for address in (
            thread_service.config.socket_path,
            format_address(f.tcp_address),
        ):
            reply = _raw_roundtrip(address, message)
            assert reply["status"] == STATUS_INVALID, (address, reply)
            assert reply["exit_status"] == 2
            assert next(iter(field)) in reply["error"]

    @pytest.mark.skipif(not fork_available(), reason="needs os.fork")
    def test_subprocess_service_answers_unknown_names_invalid(self, tmp_path):
        svc = SolveService(ServiceConfig(
            socket_path=tmp_path / "proc.sock",
            results_dir=tmp_path / "proc",
            executor="subprocess",
        ))
        svc.start()
        try:
            assert svc.executor_mode == "subprocess"
            for field in _UNKNOWN_NAMES:
                message = {"kind": "solve", "z": _z(4), **field}
                reply = _raw_roundtrip(svc.config.socket_path, message)
                assert reply["status"] == STATUS_INVALID, (field, reply)
                assert reply["exit_status"] == 2
                assert next(iter(field)) in reply["error"]
        finally:
            svc.stop()

    @pytest.mark.parametrize("name", sorted(_BAD_FRAMES))
    def test_bad_frames_answer_invalid(self, name, host):
        _, address = host
        reply = _raw_frame_roundtrip(address, _BAD_FRAMES[name])
        assert reply["status"] == STATUS_INVALID, reply
        assert reply["exit_status"] == 2


class TestDrainKeepsAnswering:
    def test_solve_after_drain_is_rejected_at_once(self, host):
        h, address = host
        h.request_drain()
        time.sleep(0.3)  # past one acceptor poll
        client = SolveClient(address, timeout=2.0)
        response = client.solve(_z(8))
        assert response.status == STATUS_DRAINING
        assert response.retriable and response.exit_status == 75
        pong = client.ping()
        assert pong["kind"] == "pong"
        assert pong["draining"] is True


@pytest.mark.skipif(not fork_available(), reason="needs os.fork")
class TestFleetProcesses:
    def test_shard_kill_reroutes_and_respawns(self, tmp_path, measurement):
        config = FleetConfig(
            listen="127.0.0.1:0",
            results_dir=tmp_path / "proc-fleet",
            shards=2,
            service=_template(tmp_path, term_grace=0.2),
        )
        # Solved before the shards fork (see the ``fleet`` fixture).
        reference = _standalone(measurement)
        f = SolveFleet(config)
        f.start()
        try:
            client = SolveClient(
                format_address(f.tcp_address),
                timeout=60.0,
                retries=3,
                backoff=0.05,
            )
            assert client.wait_ready(timeout=10.0)
            assert client.solve(measurement.z_kohm, id="before").ok

            home = f.map.shard_for(8, "geodesic")
            victim = f._shards[home].pid
            assert victim is not None
            os.kill(victim, signal.SIGKILL)

            # The next solve must land despite the dead home shard —
            # either rerouted to the survivor or served by the respawn.
            after = client.solve(measurement.z_kohm, id="after")
            assert after.ok

            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                stats = client.stats()
                if (
                    stats["fleet"]["shard_respawns"] >= 1
                    and sorted(stats["fleet"]["alive"]) == [0, 1]
                ):
                    break
                time.sleep(0.1)
            else:
                pytest.fail("killed shard never respawned")
            assert np.array_equal(
                after.resistance_array(), reference.resistance
            )
        finally:
            f.stop()

    def test_start_fails_fast_when_a_shard_dies(self, tmp_path, monkeypatch):
        def crash(*args):
            raise RuntimeError("shard crashed at start-up")

        monkeypatch.setattr(fleet_mod, "_shard_main", crash)
        # Default ready_timeout (30 s): only the shard pids can tell the
        # front that no shard will ever answer.
        f = SolveFleet(
            FleetConfig(
                listen="127.0.0.1:0",
                results_dir=tmp_path / "dead-fleet",
                shards=2,
            )
        )
        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match=r"shard \d exited with code 1"):
            f.start()
        assert time.monotonic() - t0 < 2.0
        assert all(shard.pid is None for shard in f._shards)
        assert f.tcp_address is None

    def test_idle_shards_keep_their_heartbeat(self, tmp_path, measurement):
        reference = _standalone(measurement)
        f = SolveFleet(
            FleetConfig(
                listen="127.0.0.1:0",
                results_dir=tmp_path / "idle-fleet",
                shards=2,
                shard_stall_timeout=0.5,
                service=_template(tmp_path, term_grace=0.2),
            )
        )
        f.start()
        try:
            client = SolveClient(format_address(f.tcp_address), timeout=60.0)
            assert client.wait_ready(timeout=10.0)
            time.sleep(2.0)  # four stall timeouts without traffic
            assert f.respawns == 0
            response = client.solve(
                measurement.z_kohm,
                voltage=measurement.voltage,
                hour=measurement.hour,
                want_field=True,
            )
            assert response.status == STATUS_OK
            assert np.array_equal(
                response.resistance_array(), reference.resistance
            )
            assert f.respawns == 0
        finally:
            f.stop()
