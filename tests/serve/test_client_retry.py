"""Client-side retry/backoff and connection-context tests.

A scripted unix-socket server stands in for the service: each entry in
its script handles one connection, so tests can answer "queue full
then ok", break the stream mid-frame, or close without replying — and
assert exactly what the client does about it.
"""

import errno
import socket
import threading

import numpy as np
import pytest

from repro.serve import client as client_module
from repro.serve.client import ServeConnectionError, SolveClient
from repro.serve.protocol import (
    STATUS_OK,
    STATUS_QUEUE_FULL,
    STATUS_WORKER_LOST,
    Request,
    Response,
    encode_message,
    recv_message,
    send_message,
)


def _z(n: int = 4) -> list:
    rng = np.random.default_rng(7)
    return rng.uniform(2000.0, 11000.0, size=(n, n)).tolist()


def _reply_status(status: str):
    """A script step answering one request with the given status."""

    def step(conn: socket.socket, message: dict) -> None:
        send_message(
            conn,
            Response(
                id=str(message.get("id") or ""), status=status, summary=status
            ).to_dict(),
        )

    return step


def _partial_reply(conn: socket.socket, message: dict) -> None:
    """Send half a reply frame, then reset the connection."""
    frame = encode_message(
        Response(id=str(message.get("id") or ""), status=STATUS_OK).to_dict()
    )
    conn.sendall(frame[: len(frame) // 2])


def _no_reply(conn: socket.socket, message: dict) -> None:
    """Close without sending any reply bytes."""


class ScriptedServer:
    """One scripted handler per accepted connection, then stop."""

    def __init__(self, socket_path, script):
        self.socket_path = socket_path
        self.script = list(script)
        self.seen: list[dict] = []
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.bind(str(socket_path))
        self._sock.listen(8)
        self._thread = threading.Thread(target=self._serve, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._sock.close()
        self._thread.join(timeout=5.0)

    def _serve(self):
        for step in self.script:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            with conn:
                message = recv_message(conn)
                if message is None:
                    continue
                self.seen.append(message)
                step(conn, message)


class TestRetriableResponses:
    def test_retry_succeeds_after_queue_full(self, tmp_path):
        path = tmp_path / "serve.sock"
        script = [_reply_status(STATUS_QUEUE_FULL), _reply_status(STATUS_OK)]
        with ScriptedServer(path, script) as server:
            client = SolveClient(path, retries=1, backoff=0.0)
            response = client.solve(np.asarray(_z()))
            assert response.status == STATUS_OK
            # Both attempts carried the same client-assigned
            # idempotency id.
            assert len(server.seen) == 2
            assert server.seen[0]["id"] == server.seen[1]["id"]
            assert server.seen[0]["id"]  # non-empty

    def test_worker_lost_is_retried(self, tmp_path):
        path = tmp_path / "serve.sock"
        script = [_reply_status(STATUS_WORKER_LOST), _reply_status(STATUS_OK)]
        with ScriptedServer(path, script) as server:
            client = SolveClient(path, retries=2, backoff=0.0)
            response = client.solve(np.asarray(_z()))
            assert response.status == STATUS_OK
            assert len(server.seen) == 2

    def test_no_retries_returns_retriable_response(self, tmp_path):
        path = tmp_path / "serve.sock"
        with ScriptedServer(path, [_reply_status(STATUS_QUEUE_FULL)]) as server:
            client = SolveClient(path)  # retries=0: PR-5 behaviour
            response = client.solve(np.asarray(_z()))
            assert response.status == STATUS_QUEUE_FULL
            assert response.retriable
            assert len(server.seen) == 1

    def test_retries_exhausted_returns_last_retriable(self, tmp_path):
        path = tmp_path / "serve.sock"
        script = [_reply_status(STATUS_QUEUE_FULL)] * 3
        with ScriptedServer(path, script) as server:
            client = SolveClient(path, retries=2, backoff=0.0)
            response = client.solve(np.asarray(_z()))
            assert response.status == STATUS_QUEUE_FULL
            assert len(server.seen) == 3

    def test_explicit_id_is_preserved_across_attempts(self, tmp_path):
        path = tmp_path / "serve.sock"
        script = [_reply_status(STATUS_QUEUE_FULL), _reply_status(STATUS_OK)]
        with ScriptedServer(path, script) as server:
            client = SolveClient(path, retries=1, backoff=0.0)
            client.submit(Request(z=_z(), id="my-key"))
            assert [m["id"] for m in server.seen] == ["my-key", "my-key"]


class TestConnectionContext:
    def test_mid_read_reset_reports_offset_and_ack(self, tmp_path):
        path = tmp_path / "serve.sock"
        with ScriptedServer(path, [_partial_reply]):
            client = SolveClient(path)
            with pytest.raises(ServeConnectionError) as info:
                client.solve(np.asarray(_z()))
            err = info.value
            assert err.request_sent
            assert err.acked  # reply bytes arrived before the reset
            assert err.frame_offset > 0
            assert not err.safe_to_retry  # outcome unknown

    def test_close_without_reply_is_unacked(self, tmp_path):
        path = tmp_path / "serve.sock"
        with ScriptedServer(path, [_no_reply]):
            client = SolveClient(path)
            with pytest.raises(ServeConnectionError) as info:
                client.solve(np.asarray(_z()))
            err = info.value
            assert err.request_sent
            assert not err.acked
            assert err.frame_offset == 0

    def test_no_service_is_safe_to_retry(self, tmp_path):
        client = SolveClient(tmp_path / "absent.sock", retries=1, backoff=0.0)
        with pytest.raises(ServeConnectionError) as info:
            client.solve(np.asarray(_z()))
        assert info.value.safe_to_retry
        assert not info.value.request_sent

    def test_connect_eagain_is_safe_to_retry(self, tmp_path, monkeypatch):
        # A full unix listen backlog makes connect() raise EAGAIN; the
        # request never left, so the client must say it is retriable.
        def full_backlog(*args, **kwargs):
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(client_module, "connect_address", full_backlog)
        client = SolveClient(tmp_path / "busy.sock")
        with pytest.raises(ServeConnectionError) as info:
            client.solve(np.asarray(_z()))
        assert info.value.safe_to_retry
        assert not info.value.request_sent
        assert isinstance(info.value.__cause__, BlockingIOError)

    def test_connection_reset_then_retry_succeeds(self, tmp_path):
        path = tmp_path / "serve.sock"
        script = [_partial_reply, _reply_status(STATUS_OK)]
        with ScriptedServer(path, script) as server:
            client = SolveClient(path, retries=1, backoff=0.0)
            response = client.solve(np.asarray(_z()))
            assert response.status == STATUS_OK
            assert len(server.seen) == 2
            assert server.seen[0]["id"] == server.seen[1]["id"]


class TestBackoffDeterminism:
    def test_jittered_delays_are_reproducible_per_id(self, tmp_path):
        a = SolveClient(tmp_path / "s.sock", retries=3, backoff=0.5, jitter=0.5)
        from repro.resilience.retry import RetryPolicy
        from repro.utils.rng import derive_seed

        def delays(request_id):
            policy = RetryPolicy(
                max_retries=a.retries,
                backoff_seconds=a.backoff,
                jitter=a.jitter,
                jitter_seed=derive_seed(0, "serve-client", request_id),
            )
            return [policy.delay(i) for i in range(3)]

        assert delays("abc") == delays("abc")
        assert delays("abc") != delays("xyz")
        assert all(0 < d <= 2.0 for d in delays("abc"))
