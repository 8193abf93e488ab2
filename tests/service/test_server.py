"""Integration tests for the HTTP compile service.

Servers bind port 0 (ephemeral) and use thread/inline worker modes so
the suite stays fast; the CI smoke job exercises the process mode
end-to-end.
"""

import os
import re
import socket
import threading
import time

import pytest

from repro.service import ServiceClient, WorkerPool

from ..conftest import make_service

GOOD = """
program demo
  input integer :: n = 20
  integer :: i
  real :: a(50)
  do i = 1, n
    a(i) = real(i)
  end do
  print a(n)
end program
"""


#: One sample line of the text exposition format: a metric name, an
#: optional label set whose values escape backslash, quote and newline,
#: then the value.
_LABEL = r'[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\[\\"n])*"'
_SAMPLE = re.compile(r'[a-zA-Z_:][a-zA-Z0-9_:]*(?:\{%s(?:,%s)*\})? '
                     r'(?P<value>\S+)' % (_LABEL, _LABEL))


def _nodelay(sock):
    return sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)


def _open_sockets(server):
    with server._connections_lock:
        return list(server._open_connections)


@pytest.fixture
def service():
    svc = make_service()
    yield svc
    if not svc._stopped.is_set():
        svc.shutdown()


@pytest.fixture
def client(service):
    return ServiceClient(service.url, timeout=30.0)


class TestEndpoints:
    def test_healthz(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["in_flight"] == 0
        assert health["worker_mode"] == "thread"

    def test_healthz_identity_fields(self, client):
        # the cluster supervisor and its hashing client key on these
        health = client.healthz()
        assert health["shard_id"] is None  # standalone service
        assert health["pid"] == os.getpid()
        assert isinstance(health["uptime_s"], float)
        assert health["uptime_s"] >= 0.0
        assert health["uptime_s"] == health["uptime_seconds"]

    def test_healthz_reports_shard_id(self):
        svc = make_service(shard_id=3)
        try:
            health = ServiceClient(svc.url, timeout=30.0).healthz()
            assert health["shard_id"] == 3
        finally:
            svc.shutdown()

    def test_version(self, client):
        import repro

        status, doc = client.get_json("/version")
        assert status == 200
        assert doc["version"] == repro.__version__

    def test_unknown_endpoint_404(self, client):
        status, doc = client.get_json("/nope")
        assert status == 404
        status, doc = client.post_json("/nope", {})
        assert status == 404

    def test_unknown_paths_share_one_endpoint_label(self, client):
        # a client inventing paths must not grow /metrics, nor break
        # its grammar with a quote in a label value
        for n in range(200):
            assert client.get("/missing/%d" % n)[0] == 404
        assert client.get('/a"b')[0] == 404
        assert client.post('/b"c', {})[0] == 404
        samples = [line for line in
                   client.get("/metrics")[1].decode("utf-8").splitlines()
                   if line and not line.startswith("#")]
        for line in samples:
            match = _SAMPLE.fullmatch(line)
            assert match, line
            float(match.group("value"))
        not_found = [line for line in samples
                     if line.startswith("repro_requests_total{")
                     and 'status="404"' in line]
        assert not_found == [
            'repro_requests_total{endpoint="other",status="404"} 202']

    def test_compile_run(self, client):
        status, doc = client.post_json("/compile", {
            "action": "run", "source": GOOD, "inputs": {"n": 10}})
        assert status == 200
        assert doc["ok"] is True
        assert doc["output"] == [10.0]

    def test_compile_trap(self, client):
        status, doc = client.post_json("/compile", {
            "action": "run", "source": GOOD, "inputs": {"n": 60}})
        assert status == 200
        assert doc["ok"] is False
        assert "range check failed" in doc["trap"]

    def test_malformed_json_400(self, client):
        status, body = client._request("POST", "/compile")
        assert status == 400

    def test_malformed_source_422(self, client):
        status, doc = client.post_json("/compile", {
            "action": "run",
            "source": "program broken\n  if then\nend program"})
        assert status == 422
        assert doc["schema"] == "repro.service.error.v1"

    def test_bad_request_400(self, client):
        status, doc = client.post_json("/compile", {"action": "pwn"})
        assert status == 400

    def test_metrics_exposition(self, client):
        client.post_json("/compile", {
            "action": "run", "source": GOOD, "inputs": {"n": 5}})
        values = client.metrics_values()
        key = 'repro_requests_total{endpoint="/compile",status="200"}'
        assert values.get(key, 0) >= 1
        assert 'repro_queue_depth' in values
        hits = values.get('repro_cache_requests_total{result="hit"}', 0)
        misses = values.get('repro_cache_requests_total{result="miss"}', 0)
        assert hits + misses >= 1

    def test_execute_histogram_labeled_by_engine(self, client):
        client.post_json("/compile", {
            "action": "run", "source": GOOD, "inputs": {"n": 5}})
        client.post_json("/compile", {
            "action": "run", "source": GOOD, "inputs": {"n": 5},
            "engine": "compiled"})
        values = client.metrics_values()
        for engine in ("interp", "compiled"):
            key = 'repro_execute_seconds_count{engine="%s"}' % engine
            assert values.get(key, 0) >= 1, key

    def test_cache_hit_on_repeat(self, client):
        payload = {"action": "run", "source": GOOD, "inputs": {"n": 7}}
        client.post_json("/compile", payload)
        # different inputs -> different request, same source -> cache hit
        client.post_json("/compile", dict(payload, inputs={"n": 8}))
        values = client.metrics_values()
        assert values.get(
            'repro_cache_requests_total{result="hit"}', 0) >= 1


class TestNoDelay:
    """A response leaves as two writes, headers then body.  With Nagle's
    algorithm on, the body waits for the client's delayed ACK of the
    headers, about 40 ms on a keep-alive connection."""

    def test_accepted_sockets_set_nodelay(self, service, client):
        assert client.healthz()["status"] == "ok"
        sockets = _open_sockets(service.httpd)
        assert sockets  # the keep-alive connection is still open
        assert all(_nodelay(sock) for sock in sockets)

    def test_direct_listener_sets_nodelay(self, service):
        host, port = service.listen_also()
        direct = ServiceClient("http://%s:%d" % (host, port), timeout=30.0)
        assert direct.healthz()["status"] == "ok"
        sockets = _open_sockets(service._extra_servers[0])
        assert sockets
        assert all(_nodelay(sock) for sock in sockets)


class TestTablesEndpoint:
    def test_tables_matches_cli_bytes(self, tmp_path):
        """The acceptance criterion: a service tables response is
        byte-identical to `repro tables` CLI stdout."""
        import contextlib
        import io

        from repro.benchsuite import all_programs
        import repro.benchsuite.parallel as parallel

        # restrict the suite to two programs to keep the test quick;
        # both sides go through the same run_suite + renderer
        subset = all_programs()[:2]
        service = make_service(worker_mode="inline")
        try:
            client = ServiceClient(service.url, timeout=120.0)
            original = parallel.run_suite

            def small_suite(programs=None, small=False, jobs=1,
                            engine="interp", profile_mode="auto"):
                return original(subset, small=small, jobs=1, engine=engine,
                                profile_mode=profile_mode)

            import unittest.mock as mock

            with mock.patch.object(parallel, "run_suite", small_suite), \
                    mock.patch("repro.benchsuite.run_suite", small_suite):
                status, doc = client.post_json("/tables", {"small": True})
                assert status == 200

                from repro.cli import main

                buffer = io.StringIO()
                with contextlib.redirect_stdout(buffer), \
                        contextlib.redirect_stderr(io.StringIO()):
                    assert main(["tables", "--small"]) == 0
                assert doc["text"] == buffer.getvalue()
                assert doc["tables"]["schema"] == "repro.tables.v1"
        finally:
            service.shutdown()


class TestBackpressure:
    def test_queue_full_returns_429(self):
        release = threading.Event()

        def slow_task(payload):
            release.wait(timeout=10.0)
            return 200, {"ok": True}

        pool = WorkerPool(workers=1, mode="thread", task=slow_task)
        service = make_service(pool=pool, queue_limit=1,
                               request_timeout=10.0)
        try:
            client = ServiceClient(service.url, timeout=30.0)
            results = []

            def fire(n):
                status, _ = client.post_json("/compile", {
                    "action": "run", "source": GOOD,
                    "inputs": {"n": n}})
                results.append(status)

            first = threading.Thread(target=fire, args=(1,))
            first.start()
            deadline = time.time() + 5.0
            while service.health()["in_flight"] == 0 \
                    and time.time() < deadline:
                time.sleep(0.01)
            status, doc = client.post_json("/compile", {
                "action": "run", "source": GOOD, "inputs": {"n": 2}})
            assert status == 429
            assert "queue full" in doc["error"]
            release.set()
            first.join(timeout=10.0)
            assert results == [200]
            values = client.metrics_values()
            key = 'repro_requests_rejected_total{reason="queue_full"}'
            assert values.get(key) == 1
        finally:
            release.set()
            service.shutdown()

    def test_timeout_returns_504(self):
        def sleepy_task(payload):
            time.sleep(1.0)
            return 200, {"ok": True}

        pool = WorkerPool(workers=1, mode="thread", task=sleepy_task)
        service = make_service(pool=pool, request_timeout=0.05)
        try:
            client = ServiceClient(service.url, timeout=30.0)
            status, doc = client.post_json("/compile", {
                "action": "run", "source": GOOD})
            assert status == 504
            assert "deadline" in doc["error"]
            values = client.metrics_values()
            assert values.get("repro_request_timeouts_total") == 1
        finally:
            service.shutdown()


class TestSingleFlight:
    def test_identical_requests_coalesce(self):
        calls = []
        gate = threading.Event()

        def slow_task(payload):
            calls.append(1)
            gate.wait(timeout=10.0)
            return 200, {"ok": True, "frontend_cached": False,
                         "phases": None}

        pool = WorkerPool(workers=4, mode="thread", task=slow_task)
        service = make_service(pool=pool, queue_limit=8)
        try:
            client = ServiceClient(service.url, timeout=30.0)
            payload = {"action": "run", "source": GOOD,
                       "inputs": {"n": 9}}
            statuses = []

            def fire():
                status, _ = client.post_json("/compile", payload)
                statuses.append(status)

            threads = [threading.Thread(target=fire) for _ in range(3)]
            for thread in threads:
                thread.start()
            deadline = time.time() + 5.0
            while service.health()["in_flight"] < 3 \
                    and time.time() < deadline:
                time.sleep(0.01)
            gate.set()
            for thread in threads:
                thread.join(timeout=10.0)
            assert statuses == [200, 200, 200]
            assert sum(calls) == 1  # one worker execution for three
            values = client.metrics_values()
            assert values.get(
                "repro_singleflight_coalesced_total", 0) == 2
        finally:
            gate.set()
            service.shutdown()


class TestGracefulShutdown:
    def test_shutdown_endpoint_drains(self):
        started = threading.Event()
        release = threading.Event()

        def slow_task(payload):
            started.set()
            release.wait(timeout=10.0)
            return 200, {"ok": True}

        pool = WorkerPool(workers=1, mode="thread", task=slow_task)
        service = make_service(pool=pool, drain_timeout=10.0)
        client = ServiceClient(service.url, timeout=30.0)
        results = []

        def fire():
            status, _ = client.post_json("/compile", {
                "action": "run", "source": GOOD})
            results.append(status)

        inflight = threading.Thread(target=fire)
        inflight.start()
        assert started.wait(timeout=5.0)
        assert client.shutdown() == 202
        # draining: new work refused with 503
        deadline = time.time() + 5.0
        while time.time() < deadline:
            try:
                status, _ = client.post_json("/compile", {
                    "action": "run", "source": GOOD})
            except OSError:
                break  # already fully stopped
            if status == 503:
                break
            time.sleep(0.05)
        release.set()
        inflight.join(timeout=10.0)
        assert results == [200]  # in-flight work completed, not dropped
        assert service.wait_stopped(timeout=10.0)

    def test_programmatic_shutdown_idempotent(self):
        service = make_service(worker_mode="inline")
        service.shutdown()
        service.shutdown()
        assert service.wait_stopped(timeout=1.0)

    def test_drain_deadline_follows_injected_monotonic_clock(self):
        # the drain deadline must come off the injectable monotonic
        # clock: while that clock stands still the drain keeps waiting
        # (no wall-clock source can cut it short), and a jump past the
        # deadline ends it promptly even though almost no wall time
        # has passed
        clock_value = [500.0]
        service = make_service(worker_mode="inline", drain_timeout=300.0,
                               clock=lambda: clock_value[0])
        with service._inflight_lock:
            service._inflight = 1  # simulate a stuck in-flight request
        done = threading.Event()

        def drain():
            service.shutdown()
            done.set()

        threading.Thread(target=drain, daemon=True).start()
        assert not done.wait(timeout=0.3)  # deadline not reached yet
        clock_value[0] += 301.0  # jump past the 300s drain deadline
        with service._idle:
            service._idle.notify_all()
        assert done.wait(timeout=10.0)
        assert service.wait_stopped(timeout=10.0)

    def test_uptime_follows_injected_monotonic_clock(self):
        clock_value = [100.0]
        service = make_service(worker_mode="inline",
                               clock=lambda: clock_value[0])
        try:
            clock_value[0] += 42.0
            health = service.health()
            assert health["uptime_seconds"] == pytest.approx(42.0)
            # the wall timestamp is reporting-only and stays a real
            # unix time regardless of the injected duration clock
            assert health["started_unix"] <= time.time()
        finally:
            service.shutdown()


class TestRealWorkerPoolModes:
    def test_inline_mode_round_trip(self):
        service = make_service(worker_mode="inline")
        try:
            client = ServiceClient(service.url, timeout=30.0)
            status, doc = client.post_json("/compile", {
                "action": "run", "source": GOOD, "inputs": {"n": 3}})
            assert status == 200
            assert doc["output"] == [3.0]
        finally:
            service.shutdown()

    def test_worker_pool_submit_coalesces_by_key(self):
        gate = threading.Event()
        calls = []

        def task(payload):
            calls.append(1)
            gate.wait(timeout=5.0)
            return 200, {}

        pool = WorkerPool(workers=2, mode="thread", task=task)
        try:
            first = pool.submit({"a": 1}, key="k")
            second = pool.submit({"a": 1}, key="k")
            assert first is second
            assert pool.coalesced == 1
            gate.set()
            assert first.result(timeout=5.0) == (200, {})
            deadline = time.time() + 5.0
            while pool.inflight and time.time() < deadline:
                time.sleep(0.01)
            third = pool.submit({"a": 1}, key="k")
            assert third is not first  # finished -> new flight
        finally:
            gate.set()
            pool.shutdown()

    def test_worker_pool_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            WorkerPool(mode="quantum")

    def test_worker_pool_shutdown_rejects_submit(self):
        pool = WorkerPool(workers=1, mode="inline")
        pool.shutdown()
        with pytest.raises(RuntimeError):
            pool.submit({})
