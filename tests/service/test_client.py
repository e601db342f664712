"""Client-side robustness: budgeted retries, backoff, reconnects.

The client is tested against a scripted fake server (a thread speaking
raw frames) so every failure mode -- sheds, deterministic errors,
dropped connections -- is exact and replayable.
"""

from __future__ import annotations

import os
import socket
import threading

import pytest

from repro.machine.mp.framing import FrameError
from repro.machine.mp.timeouts import Backoff, Deadline
from repro.service.client import PlanClient, RetryBudget
from repro.service.protocol import ServiceError, error_response, ok_response
from repro.service.wire import recv_message, send_message


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestRetryBudget:
    def test_spends_to_exhaustion(self):
        clock = FakeClock()
        budget = RetryBudget(capacity=2, refill_per_s=0.0, clock=clock)
        assert budget.try_spend() and budget.try_spend()
        assert not budget.try_spend()
        assert budget.spent == 2 and budget.denied == 1

    def test_refills_over_time(self):
        clock = FakeClock()
        budget = RetryBudget(capacity=2, refill_per_s=1.0, clock=clock)
        budget.try_spend(), budget.try_spend()
        assert not budget.try_spend()
        clock.now += 1.5
        assert budget.try_spend()
        assert not budget.try_spend()

    def test_never_exceeds_capacity(self):
        clock = FakeClock()
        budget = RetryBudget(capacity=1, refill_per_s=100.0, clock=clock)
        clock.now += 1000.0
        assert budget.try_spend()
        assert not budget.try_spend()

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryBudget(capacity=0)
        with pytest.raises(ValueError):
            RetryBudget(refill_per_s=-1)


class ScriptedServer:
    """A unix-socket server that answers from a fixed script.

    Each script step is either a response-builder ``callable(request)``
    or the string ``"drop"`` (close the connection without answering).
    Steps are consumed per *request received*, across reconnects.
    """

    def __init__(self, tmp_path, script):
        self.path = str(tmp_path / "fake.sock")
        self.script = list(script)
        self.requests: list[dict] = []
        self._conn: socket.socket | None = None
        self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._listener.bind(self.path)
        self._listener.listen(8)
        self._listener.settimeout(5.0)
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while self.script:
            try:
                conn, _ = self._listener.accept()
            except (OSError, socket.timeout):
                return
            self._conn = conn
            try:
                self._serve_conn(conn)
            finally:
                conn.close()

    def _serve_conn(self, conn: socket.socket) -> None:
        while self.script:
            try:
                request = recv_message(conn, Deadline(5.0))
            except (FrameError, OSError):
                return
            self.requests.append(request)
            step = self.script.pop(0)
            if step == "drop":
                return  # close without answering
            send_message(conn, step(request))

    def close(self) -> None:
        self.script = []
        # Wake a _serve_conn blocked in recv (it would otherwise wait out
        # its read deadline) and an accept blocked on the listener.
        for sock in (self._conn, self._listener):
            if sock is not None:
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
        self._listener.close()
        self._thread.join(timeout=5.0)
        if os.path.exists(self.path):
            os.unlink(self.path)


def ok(request):
    return ok_response(
        request["id"], {"pong": True}, source="inline", degraded=False, server_ms=0.1
    )


def degraded_ok(request):
    return ok_response(
        request["id"], {"x": 1}, source="stale-cache", degraded=True, server_ms=0.1
    )


def shed(request):
    return error_response(request["id"], "OVERLOADED", "full", retry_after_ms=5)


def bad(request):
    return error_response(request["id"], "BAD_REQUEST", "nope")


def fast_client(path, **kwargs) -> PlanClient:
    kwargs.setdefault("backoff", Backoff(initial=0.001, ceiling=0.01))
    return PlanClient(path, **kwargs)


class TestRetries:
    def test_retries_shed_then_succeeds(self, tmp_path):
        server = ScriptedServer(tmp_path, [shed, shed, ok])
        try:
            with fast_client(server.path) as client:
                response = client.call("ping")
            assert response["result"] == {"pong": True}
            assert client.counters.retries == 2
            assert len(server.requests) == 3
        finally:
            server.close()

    def test_never_retries_deterministic_errors(self, tmp_path):
        server = ScriptedServer(tmp_path, [bad, ok])
        try:
            with fast_client(server.path) as client:
                with pytest.raises(ServiceError) as exc_info:
                    client.call("plan", {"p": -1})
            assert exc_info.value.code == "BAD_REQUEST"
            assert client.counters.retries == 0
            assert len(server.requests) == 1  # one attempt, full stop
        finally:
            server.close()

    def test_max_retries_bounds_attempts(self, tmp_path):
        server = ScriptedServer(tmp_path, [shed] * 10)
        try:
            with fast_client(server.path, max_retries=2) as client:
                with pytest.raises(ServiceError) as exc_info:
                    client.call("ping")
            assert exc_info.value.code == "OVERLOADED"
            assert len(server.requests) == 3  # 1 attempt + 2 retries
        finally:
            server.close()

    def test_exhausted_budget_stops_retry_amplification(self, tmp_path):
        server = ScriptedServer(tmp_path, [shed] * 10)
        budget = RetryBudget(capacity=1, refill_per_s=0.0)
        try:
            with fast_client(server.path, max_retries=5, retry_budget=budget) as client:
                with pytest.raises(ServiceError):
                    client.call("ping")
                with pytest.raises(ServiceError):
                    client.call("ping")
            # 5 retries allowed per call, but the shared budget had 1 token:
            # 2 first attempts + 1 budgeted retry.
            assert len(server.requests) == 3
            assert client.counters.retries == 1
            assert client.counters.retries_denied >= 1
        finally:
            server.close()

    def test_reconnects_after_dropped_connection(self, tmp_path):
        server = ScriptedServer(tmp_path, ["drop", ok])
        try:
            with fast_client(server.path) as client:
                response = client.call("ping")
            assert response["result"] == {"pong": True}
            assert client.counters.reconnects == 1
            assert client.counters.retries == 1
        finally:
            server.close()

    def test_degraded_responses_are_counted_not_retried(self, tmp_path):
        server = ScriptedServer(tmp_path, [degraded_ok, degraded_ok])
        try:
            with fast_client(server.path) as client:
                response = client.call("plan", {"p": 1})
            assert response["degraded"]
            assert client.counters.degraded_responses == 1
            assert client.counters.retries == 0
            assert len(server.requests) == 1
        finally:
            server.close()

    def test_requests_carry_deadline(self, tmp_path):
        server = ScriptedServer(tmp_path, [ok])
        try:
            with fast_client(server.path, default_deadline_ms=321) as client:
                client.call("ping")
            assert server.requests[0]["deadline_ms"] == 321
        finally:
            server.close()

    def test_mismatched_response_id_raises(self, tmp_path):
        def wrong_id(request):
            return ok_response(
                request["id"] + 99, {}, source="inline", degraded=False, server_ms=0.1
            )

        server = ScriptedServer(tmp_path, [wrong_id] * 5)
        try:
            with fast_client(server.path, max_retries=1) as client:
                with pytest.raises(FrameError, match="does not match"):
                    client.call("ping")
        finally:
            server.close()
