"""In-process :class:`SolveService` tests: one service fixture, real sockets."""

import errno
import json
import socket
import threading
import time

import numpy as np
import pytest

from repro.mea.synthetic import paper_like_spec
from repro.mea.wetlab import run_campaign
from repro.observe import Observer
from repro.observe.evidence import iter_log, parse_locator
from repro.observe.manifest import load_manifest, validate_manifest
from repro.parallel import proc
from repro.parallel.pymp import fork_available
from repro.resilience.faults import FaultPlan
from repro.serve import (
    PRIORITY_BATCH,
    PRIORITY_INTERACTIVE,
    STATUS_DRAINING,
    STATUS_INVALID,
    STATUS_OK,
    STATUS_QUEUE_FULL,
    STATUS_QUOTA,
    FleetConfig,
    ServeConnectionError,
    ServiceConfig,
    SolveClient,
    SolveFleet,
    SolveService,
)
from repro.serve.protocol import recv_message, send_message


@pytest.fixture()
def measurement():
    run = run_campaign(paper_like_spec(8, seed=7), seed=7)
    return run.campaign.measurements[0]


@pytest.fixture()
def service(tmp_path):
    """A started service on a tmp socket; stopped at teardown."""
    obs = Observer()
    config = ServiceConfig(
        socket_path=tmp_path / "parma.sock",
        results_dir=tmp_path / "results",
        max_queue_depth=8,
        observer=obs,
    )
    svc = SolveService(config)
    svc.start()
    client = SolveClient(config.socket_path, timeout=60.0)
    assert client.wait_ready(timeout=10.0)
    yield svc, client, obs
    svc.stop()


def _counter(obs: Observer, name: str) -> float:
    return obs.metrics.snapshot().get(name, {}).get("value", 0.0)


class TestSolvePath:
    def test_solve_ok_with_manifest(self, service, measurement):
        svc, client, obs = service
        response = client.solve(
            measurement.z_kohm, voltage=measurement.voltage, hour=measurement.hour
        )
        assert response.ok and response.exit_status == 0
        assert response.batch_size == 1
        assert "Parma 8x8" in response.summary
        manifest = load_manifest(response.manifest_path)
        validate_manifest(manifest)
        assert manifest["config"]["command"] == "serve"
        assert manifest["config"]["n"] == 8
        log, _ = parse_locator(response.manifest_path)
        assert log.parent == svc.config.results_dir
        assert log.name.startswith("evidence-")
        assert not list(svc.config.results_dir.glob("req-*"))

    def test_result_bit_identical_to_standalone_engine(
        self, service, measurement
    ):
        from repro.core.engine import ParmaEngine

        svc, client, obs = service
        response = client.solve(
            measurement.z_kohm, voltage=measurement.voltage, hour=measurement.hour
        )
        reference = ParmaEngine(
            strategy="single", threshold_sigmas=3.0
        ).parametrize(measurement)
        assert np.array_equal(
            response.resistance_array(), reference.resistance
        )
        assert response.num_regions == reference.detection.num_regions

    def test_want_field_false_omits_resistance(self, service, measurement):
        svc, client, obs = service
        response = client.solve(measurement.z_kohm, want_field=False)
        assert response.ok
        assert response.resistance is None

    def test_request_id_is_honoured_and_generated(self, service, measurement):
        svc, client, obs = service
        named = client.solve(measurement.z_kohm, id="my-req")
        assert named.id == "my-req"
        named_config = load_manifest(named.manifest_path)["config"]
        assert named_config["request_id"] == "my-req"
        anonymous = client.solve(measurement.z_kohm)
        assert anonymous.id  # server-assigned
        assert anonymous.id != named.id
        anonymous_config = load_manifest(anonymous.manifest_path)["config"]
        assert anonymous_config["request_id"] == anonymous.id

    def test_serve_metrics_move(self, service, measurement):
        svc, client, obs = service
        before = _counter(obs, "serve.requests")
        client.solve(measurement.z_kohm)
        snapshot = obs.metrics.snapshot()
        assert snapshot["serve.requests"]["value"] == before + 1
        assert snapshot["serve.responses.ok"]["value"] >= 1
        assert "serve.batches" not in snapshot
        assert "serve.batch_size" not in snapshot
        assert snapshot["serve.queue_wait_seconds"]["count"] >= 1
        # Per-request registries fold into the service registry.
        assert snapshot["degrade.rung.primary"]["value"] >= 1
        # Served requests never run the formation stage.
        assert not any(key.startswith("formation.") for key in snapshot)

    def test_deadline_maps_to_94(self, service, measurement):
        svc, client, obs = service
        response = client.solve(measurement.z_kohm, deadline=1e-9)
        assert response.status == "deadline-exceeded"
        assert response.exit_status == 94
        assert response.manifest_path is not None

    def test_validation_failure_is_failed_not_crash(self, service):
        svc, client, obs = service
        dirty = np.full((6, 6), 5000.0)
        dirty[2, 3] = float("nan")
        response = client.solve(dirty.tolist(), validate="strict")
        assert response.status == "failed"
        assert response.exit_status == 1
        assert "z_kohm[" in response.error

    def test_repair_policy_runs_server_side(self, service):
        svc, client, obs = service
        dirty = np.full((6, 6), 5000.0)
        dirty[2, 3] = float("nan")
        response = client.solve(dirty.tolist(), validate="repair")
        assert response.ok
        assert any("repaired" in event for event in response.events)


class TestAdmissionAndProtocolEdges:
    def test_invalid_shape_rejected_without_admission(self, service):
        svc, client, obs = service
        response = client.solve([[1.0, 2.0]])
        assert response.status == STATUS_INVALID
        assert response.exit_status == 2
        assert _counter(obs, "serve.rejected.invalid") >= 1

    def test_unknown_kind_rejected(self, service):
        svc, client, obs = service
        reply = client._roundtrip({"kind": "frobnicate", "id": "x"})
        assert reply["status"] == STATUS_INVALID

    def test_undecodable_frame_gets_invalid_response(self, service):
        svc, client, obs = service
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.connect(str(svc.config.socket_path))
            sock.sendall((4).to_bytes(4, "big") + b"!!!!")
            reply = recv_message(sock)
            assert reply["status"] == STATUS_INVALID
        finally:
            sock.close()

    def test_ping_and_stats(self, service, measurement):
        svc, client, obs = service
        pong = client.ping()
        assert pong["kind"] == "pong" and not pong["draining"]
        client.solve(measurement.z_kohm)
        stats = client.stats()
        assert stats["kind"] == "stats"
        assert stats["requests"] >= 1
        assert stats["metrics"]["serve.responses.ok"]["value"] >= 1

    def test_stats_carries_server_clock(self, service, measurement):
        # Pollers (`parma runs watch`) difference successive replies to
        # turn counters into rates; that needs a server-side clock.
        svc, client, obs = service
        first = client.stats()
        assert first["server_monotonic"] > 0.0
        assert first["uptime_seconds"] >= 0.0
        time.sleep(0.01)
        second = client.stats()
        assert second["server_monotonic"] > first["server_monotonic"]
        assert second["uptime_seconds"] > first["uptime_seconds"]
        assert client.ping()["uptime_seconds"] >= first["uptime_seconds"]

    def test_stats_reports_resilience_telemetry(self, service, measurement):
        svc, client, obs = service
        client.solve(measurement.z_kohm)
        stats = client.stats()
        assert stats["executor"] in {"thread", "subprocess"}
        assert set(stats["queue_depths"]) == {
            PRIORITY_INTERACTIVE,
            PRIORITY_BATCH,
        }
        assert stats["estimated_queue_seconds"] >= 0.0
        assert set(stats["shed"]) == {PRIORITY_INTERACTIVE, PRIORITY_BATCH}
        assert stats["quota_rejections"] == 0
        assert stats["idempotent_hits"] == 0
        assert stats["worker_respawns"] == 0
        assert stats["requests_salvaged"] == 0

    def test_priority_request_accepted_end_to_end(self, service, measurement):
        svc, client, obs = service
        response = client.solve(
            measurement.z_kohm,
            priority=PRIORITY_INTERACTIVE,
            client_id="tester",
        )
        assert response.ok

    def test_unknown_priority_rejected_as_invalid(self, service, measurement):
        svc, client, obs = service
        payload = {
            "kind": "solve",
            "z": np.asarray(measurement.z_kohm).tolist(),
            "priority": "urgent",
        }
        reply = client._roundtrip(payload)
        assert reply["status"] == STATUS_INVALID
        assert "priority" in reply["error"]

    def test_stale_backend_key_is_served_identically(
        self, service, measurement
    ):
        # Older clients still send the removed "backend" knob; the
        # server must ignore it, not reject it or change the answer.
        svc, client, obs = service
        payload = {
            "kind": "solve",
            "z": np.asarray(measurement.z_kohm).tolist(),
            "voltage": measurement.voltage,
            "hour": measurement.hour,
        }
        with_key = client._roundtrip({**payload, "backend": "compiled"})
        without_key = client._roundtrip(payload)
        assert with_key["status"] == STATUS_OK, with_key.get("error")
        assert without_key["status"] == STATUS_OK
        assert np.array_equal(
            np.asarray(with_key["resistance"]),
            np.asarray(without_key["resistance"]),
        )

    def test_stale_formation_key_is_served_identically(
        self, service, measurement
    ):
        # Older clients still send the removed "formation" knob; the
        # server must ignore it, not reject it or change the answer.
        svc, client, obs = service
        payload = {
            "kind": "solve",
            "z": np.asarray(measurement.z_kohm).tolist(),
            "voltage": measurement.voltage,
            "hour": measurement.hour,
        }
        with_key = client._roundtrip({**payload, "formation": "legacy"})
        without_key = client._roundtrip(payload)
        assert with_key["status"] == STATUS_OK, with_key.get("error")
        assert without_key["status"] == STATUS_OK
        assert np.array_equal(
            np.asarray(with_key["resistance"]),
            np.asarray(without_key["resistance"]),
        )
        assert parse_locator(with_key["manifest_path"]) is not None
        manifest = load_manifest(with_key["manifest_path"])
        assert "formation" not in manifest["config"]
        assert manifest["config"]["status"] == "ok"

    def test_queue_full_is_retriable(self, tmp_path, measurement):
        # A dedicated tiny-queue service whose worker is wedged by a
        # slow request, so followers overflow the depth-1 queue.
        obs = Observer()
        config = ServiceConfig(
            socket_path=tmp_path / "tiny.sock",
            results_dir=tmp_path / "tiny-results",
            max_queue_depth=1,
            observer=obs,
        )
        svc = SolveService(config)
        svc.start()
        try:
            client = SolveClient(config.socket_path, timeout=60.0)
            assert client.wait_ready(timeout=10.0)
            z = measurement.z_kohm

            statuses: list[str] = []
            lock = threading.Lock()

            def submit():
                response = client.solve(z)
                with lock:
                    statuses.append(response.status)

            threads = [threading.Thread(target=submit) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120.0)
            assert len(statuses) == 6
            assert set(statuses) <= {STATUS_OK, STATUS_QUEUE_FULL}
            assert STATUS_OK in statuses
            if STATUS_QUEUE_FULL in statuses:
                assert _counter(obs, "serve.rejected.queue_full") >= 1
        finally:
            svc.stop()


class TestPriorityDispatch:
    @pytest.mark.skipif(
        not fork_available(), reason="subprocess executor requires os.fork"
    )
    def test_interactive_jumps_queued_batch_work(self, tmp_path, measurement):
        # One subprocess dispatcher, slowed so it is still busy with a
        # blocker while a batch and then an interactive request queue
        # behind it: the interactive one must run first.
        obs = Observer()
        config = ServiceConfig(
            socket_path=tmp_path / "prio.sock",
            results_dir=tmp_path / "prio-results",
            executor="subprocess",
            serve_workers=1,
            faults=FaultPlan(serve_slow_seconds=0.8),
            observer=obs,
        )
        svc = SolveService(config)
        svc.start()
        try:
            assert svc.executor_mode == "subprocess"
            client = SolveClient(config.socket_path, timeout=60.0)
            assert client.wait_ready(timeout=10.0)
            finished: list[str] = []
            responses: dict[str, object] = {}
            lock = threading.Lock()

            def submit(rid: str, priority: str) -> None:
                response = client.solve(
                    measurement.z_kohm, id=rid, priority=priority
                )
                with lock:
                    finished.append(rid)
                    responses[rid] = response

            def start(rid: str, priority: str, ready) -> threading.Thread:
                thread = threading.Thread(target=submit, args=(rid, priority))
                thread.start()
                _wait_for(ready)
                return thread

            def dispatched() -> bool:
                waits = obs.metrics.snapshot().get("serve.queue_wait_seconds")
                return waits is not None and waits["count"] == 1

            # The dispatcher records a ticket's queue wait as it takes it.
            threads = [start("blocker", PRIORITY_BATCH, dispatched)]
            threads.append(
                start("batch", PRIORITY_BATCH, lambda: svc.queue.depth() == 1)
            )
            threads.append(
                start(
                    "interactive",
                    PRIORITY_INTERACTIVE,
                    lambda: svc.queue.depth() == 2,
                )
            )
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            svc.stop()
        assert all(r.status == STATUS_OK for r in responses.values())
        assert finished == ["blocker", "interactive", "batch"]
        # Admitted later, yet waited less: it was dequeued first.
        assert (
            responses["interactive"].queue_seconds
            < responses["batch"].queue_seconds
        )


def _wait_for(predicate, timeout: float = 10.0) -> None:
    end = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < end, "condition not reached"
        time.sleep(0.005)


class TestQuotasAndIdempotency:
    def test_quota_rejection_is_retriable(self, tmp_path, measurement):
        # Effectively-zero refill with burst 1: the second request from
        # the same client id must bounce with the quota status.
        obs = Observer()
        config = ServiceConfig(
            socket_path=tmp_path / "quota.sock",
            results_dir=tmp_path / "quota-results",
            quota_rate=1e-6,
            quota_burst=1.0,
            observer=obs,
        )
        svc = SolveService(config)
        svc.start()
        try:
            client = SolveClient(config.socket_path, timeout=60.0)
            assert client.wait_ready(timeout=10.0)
            first = client.solve(measurement.z_kohm, client_id="greedy")
            assert first.ok
            second = client.solve(measurement.z_kohm, client_id="greedy")
            assert second.status == STATUS_QUOTA
            assert second.retriable and second.exit_status == 75
            # Anonymous requests are exempt from quotas.
            assert client.solve(measurement.z_kohm).ok
            stats = client.stats()
            assert stats["quota_rejections"] == 1
            assert _counter(obs, "serve.rejected.quota") == 1
        finally:
            svc.stop()

    def test_duplicate_id_returns_cached_response(self, service, measurement):
        svc, client, obs = service
        first = client.solve(measurement.z_kohm, id="dup-key")
        assert first.ok
        again = client.solve(measurement.z_kohm, id="dup-key")
        assert again.ok
        # Same solve, not a re-execution: manifests are written once.
        assert again.manifest_path == first.manifest_path
        assert again.elapsed_seconds == first.elapsed_seconds
        assert _counter(obs, "serve.idempotent_hits") == 1
        assert client.stats()["idempotent_hits"] == 1

    def test_retriable_responses_are_not_cached(self, service, measurement):
        svc, client, obs = service
        svc.request_drain()
        rejected = client.solve(measurement.z_kohm, id="while-draining")
        assert rejected.status == STATUS_DRAINING
        assert _counter(obs, "serve.idempotent_hits") == 0


class TestDrain:
    def test_drain_rejects_new_submissions(self, service, measurement):
        svc, client, obs = service
        svc.request_drain()
        response = client.solve(measurement.z_kohm)
        assert response.status == STATUS_DRAINING
        assert response.retriable and response.exit_status == 75

    def test_drain_message_triggers_drain(self, service):
        svc, client, obs = service
        reply = client.drain()
        assert reply["kind"] == "draining"
        assert svc.draining
        assert svc.wait(timeout=10.0)

    def test_stop_removes_socket(self, tmp_path):
        config = ServiceConfig(
            socket_path=tmp_path / "gone.sock",
            results_dir=tmp_path / "gone-results",
        )
        svc = SolveService(config)
        svc.start()
        assert config.socket_path.exists()
        svc.stop()
        assert not config.socket_path.exists()
        with pytest.raises(ServeConnectionError):
            SolveClient(config.socket_path).ping()

    def test_start_rebinds_over_stale_socket(self, tmp_path):
        stale = tmp_path / "stale.sock"
        holder = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        holder.bind(str(stale))
        holder.close()  # dead instance leaves the file behind
        assert stale.exists()
        svc = SolveService(
            ServiceConfig(socket_path=stale, results_dir=tmp_path / "r")
        )
        svc.start()
        try:
            assert SolveClient(stale).wait_ready(timeout=10.0)
        finally:
            svc.stop()

    def test_double_start_is_an_error(self, service):
        svc, client, obs = service
        with pytest.raises(RuntimeError, match="already started"):
            svc.start()

    def test_live_socket_path_is_refused(self, service, tmp_path):
        svc, client, obs = service
        path = svc.config.socket_path
        other = SolveService(ServiceConfig(
            socket_path=path, results_dir=tmp_path / "other", executor="thread",
        ))
        with pytest.raises(OSError) as err:
            other.start()
        assert err.value.errno == errno.EADDRINUSE
        other.stop()  # must not unlink the live service's socket
        front = SolveFleet(FleetConfig(listen=path, results_dir=tmp_path / "f"))
        with pytest.raises(OSError) as err:
            front.start()
        assert err.value.errno == errno.EADDRINUSE
        assert path.exists()
        assert client.ping()["kind"] == "pong"

    def test_restart_after_stop_is_refused(self, tmp_path):
        svc = SolveService(ServiceConfig(
            socket_path=tmp_path / "once.sock",
            results_dir=tmp_path / "once", executor="thread",
        ))
        svc.start()
        svc.stop()
        with pytest.raises(RuntimeError, match="stopped"):
            svc.start()
        assert not (tmp_path / "once.sock").exists()

    @pytest.mark.skipif(not fork_available(), reason="needs os.fork")
    def test_failed_start_releases_everything(self, tmp_path, monkeypatch):
        holder = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        holder.bind(("127.0.0.1", 0))
        holder.listen(1)
        port = holder.getsockname()[1]
        spawned = []
        real_spawn = proc.spawn

        def spawn(*args, **kwargs):
            spawned.append(real_spawn(*args, **kwargs))
            return spawned[-1]

        monkeypatch.setattr(proc, "spawn", spawn)
        config = ServiceConfig(
            socket_path=tmp_path / "p.sock",
            results_dir=tmp_path / "r",
            tcp=f"127.0.0.1:{port}",
        )
        svc = SolveService(config)
        try:
            with pytest.raises(OSError):
                svc.start()
        finally:
            holder.close()
        assert all(proc.poll(pid) is not None for pid in spawned), spawned
        assert not config.socket_path.exists()
        svc.start()  # the port is free now
        try:
            assert SolveClient(config.socket_path).wait_ready(timeout=10.0)
            assert svc.tcp_address == ("127.0.0.1", port)
        finally:
            svc.stop()


class TestTakenAddress:
    """``parma serve``/``parma fleet`` beside a live service: one line, exit 2."""

    @pytest.fixture()
    def live(self, tmp_path):
        svc = SolveService(ServiceConfig(
            socket_path=tmp_path / "live.sock",
            results_dir=tmp_path / "live",
            tcp="127.0.0.1:0",
            executor="thread",
        ))
        svc.start()
        yield svc
        svc.stop()

    def _run(self, capsys, argv):
        from repro.cli import main

        status = main(argv)
        err = capsys.readouterr().err.strip().splitlines()
        return status, err

    def test_serve_on_live_unix_socket(self, live, tmp_path, capsys):
        path = live.config.socket_path
        status, err = self._run(capsys, [
            "serve", "--socket", str(path), "--results", str(tmp_path / "r"),
        ])
        assert status == 2
        assert err == [
            f"error: cannot listen on {path}: "
            "a live listener already answers there"
        ]
        assert SolveClient(path).ping()["kind"] == "pong"

    def test_serve_on_taken_tcp_port(self, live, tmp_path, capsys):
        host, port = live.tcp_address
        status, err = self._run(capsys, [
            "serve", "--socket", str(tmp_path / "other.sock"),
            "--tcp", f"{host}:{port}", "--results", str(tmp_path / "r"),
        ])
        assert status == 2
        assert len(err) == 1
        assert err[0].startswith(f"error: cannot listen on {host}:{port}: ")
        assert not (tmp_path / "other.sock").exists()

    @pytest.mark.skipif(not fork_available(), reason="needs os.fork")
    def test_fleet_on_taken_addresses(self, live, tmp_path, capsys):
        host, port = live.tcp_address
        for listen in (str(live.config.socket_path), f"{host}:{port}"):
            status, err = self._run(capsys, [
                "fleet", "--listen", listen, "--results", str(tmp_path / "f"),
            ])
            assert status == 2
            assert len(err) == 1
            assert err[0].startswith(f"error: cannot listen on {listen}: ")
        assert SolveClient(live.config.socket_path).ping()["kind"] == "pong"

    def test_catalog_without_trace_is_valid(self, live, tmp_path, capsys):
        """``--catalog`` alone feeds the per-request ingest: not refused."""
        path = live.config.socket_path
        status, err = self._run(capsys, [
            "serve", "--socket", str(path), "--results", str(tmp_path / "r"),
            "--catalog", str(tmp_path / "cat.db"),
        ])
        assert status == 2
        assert err[0].startswith(f"error: cannot listen on {path}: ")


class TestBenchTagNeedsTrace:
    """``serve``/``fleet`` refuse ``--bench-tag`` without ``--trace``,
    like every other traced command, before binding anything."""

    @pytest.mark.parametrize("argv", [
        ["serve", "--socket", "{tmp}/s.sock", "--results", "{tmp}/r"],
        ["fleet", "--listen", "{tmp}/f.sock", "--results", "{tmp}/r"],
    ], ids=["serve", "fleet"])
    def test_bench_tag_requires_trace(self, argv, tmp_path, capsys):
        from repro.cli import main

        argv = [a.format(tmp=tmp_path) for a in argv]
        assert main(argv + ["--bench-tag", "serve"]) == 2
        err = capsys.readouterr().err
        assert "--bench-tag requires --trace" in err
        assert not (tmp_path / "r").exists()


class TestCatalogIngest:
    def test_requests_land_in_catalog(self, tmp_path, measurement):
        from repro.observe.catalog import Catalog

        db = tmp_path / "cat.db"
        obs = Observer()
        config = ServiceConfig(
            socket_path=tmp_path / "cat.sock",
            results_dir=tmp_path / "results",
            catalog_path=db,
            observer=obs,
        )
        svc = SolveService(config)
        svc.start()
        try:
            client = SolveClient(config.socket_path, timeout=60.0)
            assert client.wait_ready(timeout=10.0)
            response = client.solve(
                measurement.z_kohm,
                voltage=measurement.voltage,
                hour=measurement.hour,
            )
            assert response.ok
        finally:
            svc.stop()
        assert _counter(obs, "serve.catalog.ingested") == 1
        with Catalog(db, readonly=True) as catalog:
            rows = catalog.list_runs()
        assert len(rows) == 1
        assert rows[0]["kind"] == "serve-request"
        assert rows[0]["status"] == "ok"
        assert rows[0]["n"] == 8
        assert rows[0]["source_path"] == response.manifest_path
        # The results dir holds the same record: re-ingest is a no-op.
        with Catalog(db) as catalog:
            again = catalog.ingest([tmp_path / "results"])
        assert (again.scanned, again.ingested, again.duplicates) == (1, 0, 1)


class TestEvidenceLog:
    def test_thread_slots_leave_one_line_per_request(self, tmp_path):
        config = ServiceConfig(
            socket_path=tmp_path / "ev.sock",
            results_dir=tmp_path / "results",
            executor="thread",
            serve_workers=2,
        )
        svc = SolveService(config)
        svc.start()
        responses = []
        lock = threading.Lock()
        try:
            client = SolveClient(config.socket_path, timeout=120.0)
            assert client.wait_ready(timeout=10.0)
            z = np.random.default_rng(5).uniform(2000.0, 11000.0, (6, 6))

            def submit(i):
                response = client.solve(z, id=f"t{i}")
                with lock:
                    responses.append(response)

            threads = [
                threading.Thread(target=submit, args=(i,)) for i in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120.0)
        finally:
            svc.stop()
        assert sorted(r.status for r in responses) == [STATUS_OK] * 8
        logs = sorted((tmp_path / "results").glob("evidence-*.jsonl"))
        assert len(logs) == 1
        records = list(iter_log(logs[0]))
        assert all(isinstance(record, dict) for _, record in records)
        assert sorted(loc for loc, _ in records) == sorted(
            r.manifest_path for r in responses
        )
        ids = [record["manifest"]["config"]["request_id"] for _, record in records]
        assert sorted(ids) == [f"t{i}" for i in range(8)]
