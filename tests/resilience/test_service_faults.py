"""Service-level resilience: each fault point armed at p=1.0 must
produce its documented degraded behavior (a bounded error status,
never a hang or a wrong result), and a fault-free replay of the same
request must return a body identical to an undisturbed run.

Bodies are compared through :func:`canonical`, which drops the
volatile fields (``phases`` wall-clock timings and the
``frontend_cached`` / ``backend_cached`` cache state) — everything
semantic (output, counters, traps, engine) must match byte-for-byte.
Tests that care about cache state assert it explicitly.  See
docs/RESILIENCE.md.
"""

import json
import threading
import time

import pytest

from repro import faults
from repro.service import ServiceClient, WorkerPool

from ..conftest import make_service

pytestmark = pytest.mark.resilience


def program(name, bound=8):
    """A tiny valid program with a unique name.

    Worker threads share the process-wide pipeline cache, so each test
    that needs the frontend/backend to actually *run* (to reach the
    ``frontend.parse`` / ``backend.compile`` fault points) uses its own
    source text.
    """
    return (
        "program %s\n"
        "  input integer :: n = 4\n"
        "  integer :: i\n"
        "  real :: a(%d)\n"
        "  do i = 1, n\n"
        "    a(i) = real(i) + 0.5\n"
        "  end do\n"
        "  print a(n)\n"
        "end program\n" % (name, bound))


def canonical(doc):
    """Response body with volatile metadata nulled, as canonical bytes."""
    doc = dict(doc)
    for volatile in ("phases", "frontend_cached", "backend_cached"):
        doc.pop(volatile, None)
    return json.dumps(doc, sort_keys=True).encode("utf-8")


@pytest.fixture
def service():
    svc = make_service()
    yield svc
    if not svc._stopped.is_set():
        svc.shutdown()


@pytest.fixture
def client(service):
    return ServiceClient(service.url, timeout=30.0)


class TestAcceptFault:
    def test_accept_fault_rejects_then_replay_is_identical(
            self, service, client):
        payload = {"action": "run", "source": program("acceptfault"),
                   "inputs": {"n": 3}}
        client.post_json("/compile", payload)  # warm the shared cache
        _, baseline = client.post_json("/compile", payload)

        faults.arm("service.accept:raise:p=1.0")
        status, doc = client.post_json("/compile", payload)
        assert status == 500
        assert "injected fault at service.accept" in doc["error"]
        # rejected up front: counted, and no worker ever ran
        values = client.metrics_values()
        assert values.get(
            'repro_requests_rejected_total{reason="fault"}') == 1.0

        faults.disarm()
        status, replay = client.post_json("/compile", payload)
        assert status == 200
        # both fault-free responses were cache hits, so even the
        # frontend_cached flag matches; only timings are volatile
        assert replay["frontend_cached"] == baseline["frontend_cached"]
        assert canonical(replay) == canonical(baseline)

    def test_healthz_reports_armed_plane(self, client):
        faults.arm("service.accept:raise:p=0.5:seed=3")
        health = client.healthz()
        assert any(entry.startswith("service.accept:raise")
                   for entry in health["faults"])
        faults.disarm()
        assert client.healthz()["faults"] == []


class TestWorkerSideFaults:
    """frontend.parse / backend.compile raise inside a worker: the job
    layer maps the escape to a bounded 500 body (never a raw traceback,
    never a poisoned pool)."""

    def test_parse_fault_then_replay(self, service, client):
        payload = {"action": "run", "source": program("parsefault"),
                   "inputs": {"n": 3}}
        with faults.armed("frontend.parse:raise:p=1.0"):
            status, doc = client.post_json("/compile", payload)
        assert status == 500
        assert "injected fault at frontend.parse" in doc["error"]

        status, replay = client.post_json("/compile", payload)
        assert status == 200
        _, again = client.post_json("/compile", payload)
        assert canonical(replay) == canonical(again)
        assert replay["output"] == [3.5]

    def test_compile_fault_then_replay(self, service, client):
        payload = {"action": "run", "source": program("compilefault"),
                   "inputs": {"n": 3}, "engine": "compiled"}
        with faults.armed("backend.compile:raise:p=1.0"):
            status, doc = client.post_json("/compile", payload)
        assert status == 500
        assert "injected fault at backend.compile" in doc["error"]

        status, replay = client.post_json("/compile", payload)
        assert status == 200
        assert replay["engine"] == "compiled"
        assert replay["output"] == [3.5]

    def test_interp_engine_never_reaches_backend_compile(
            self, service, client):
        # the backend point only guards the compiled engine; the
        # interpreter path must be untouched by an armed plane
        payload = {"action": "run", "source": program("interponly"),
                   "inputs": {"n": 3}}
        with faults.armed("backend.compile:raise:p=1.0"):
            status, doc = client.post_json("/compile", payload)
        assert status == 200
        assert doc["output"] == [3.5]


class TestSpawnFault:
    def test_spawn_fault_fails_pool_construction(self):
        faults.arm("workerpool.spawn:raise:p=1.0")
        with pytest.raises(faults.FaultError):
            WorkerPool(workers=1, mode="process")

    def test_rebuild_failure_degrades_to_threads_once(self, capsys):
        # ProcessPoolExecutor defers forking until first submit, so an
        # unarmed process-mode pool is cheap to construct
        pool = WorkerPool(workers=1, mode="process")
        try:
            faults.arm("workerpool.spawn:raise:p=1.0")
            pool._rebuild(RuntimeError("worker died"))
            assert pool.restarts == 1
            assert pool.mode == "thread"  # degraded, not dead
            assert "degrading to threads" in capsys.readouterr().err

            # the degraded pool serves requests without rebuilding again,
            # even with the spawn point still armed
            payload = {"action": "run", "source": program("spawnfault"),
                       "inputs": {"n": 2}}
            for _ in range(3):
                status, body = pool.result(payload)
                assert status == 200
                assert body["output"] == [2.5]
            assert pool.restarts == 1
        finally:
            pool.shutdown()

    def test_thread_mode_never_fires_spawn(self):
        faults.arm("workerpool.spawn:raise:p=1.0")
        pool = WorkerPool(workers=1, mode="thread")
        try:
            status, _ = pool.result({"action": "run",
                                     "source": program("threadspawn"),
                                     "inputs": {"n": 2}})
            assert status == 200
        finally:
            pool.shutdown()


class TestDrainUnderFaults:
    def test_drain_completes_with_faults_armed(self, tmp_path):
        """Graceful shutdown must still drain and exit cleanly while
        accept faults reject traffic and every cache write corrupts."""
        svc = make_service(queue_limit=8)
        client = ServiceClient(svc.url, timeout=30.0)
        payload = {"action": "run", "source": program("drainfault"),
                   "inputs": {"n": 3}}
        faults.arm("service.accept:raise:p=0.5:seed=7,"
                   "diskcache.write:corrupt:p=1.0")
        statuses = [client.post_json("/compile", payload)[0]
                    for _ in range(8)]
        assert set(statuses) <= {200, 500}
        assert 200 in statuses and 500 in statuses  # p=0.5, seed=7

        svc.shutdown()
        assert svc.wait_stopped(timeout=10.0)
        assert svc.health()["in_flight"] == 0
        with pytest.raises(OSError):
            client.get("/healthz")

    def test_inflight_request_survives_drain(self):
        """A request admitted before shutdown() completes during the
        drain window even when later arrivals are being faulted."""
        svc = make_service(workers=2)
        client = ServiceClient(svc.url, timeout=30.0)
        # a deliberately long-running request (50k loop iterations) so
        # it is still executing when the plane is armed and the drain
        # begins
        payload = {"action": "run",
                   "source": program("draininflight", bound=60000),
                   "inputs": {"n": 50000}}
        results = []

        def fire():
            results.append(client.post_json("/compile", payload))

        worker = threading.Thread(target=fire)
        worker.start()
        time.sleep(0.05)  # let the request reach admission
        faults.arm("service.accept:raise:p=1.0")
        svc.shutdown()
        worker.join(timeout=10.0)
        assert not worker.is_alive()
        assert svc.wait_stopped(timeout=10.0)
        status, doc = results[0]
        assert status == 200
        assert doc["output"] == [50000.5]


@pytest.mark.slow
class TestProcessPoolKill:
    """End-to-end crash/rebuild/recover with real worker processes.

    ``backend.compile:kill`` is delivered through the environment so
    each freshly spawned worker re-arms itself (the pool's initializer
    re-reads REPRO_FAULTS — required under the fork start method).
    """

    def test_kill_rebuild_and_recover(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "backend.compile:kill")
        svc = make_service(worker_mode="process", workers=1,
                           request_timeout=120.0)
        try:
            client = ServiceClient(svc.url, timeout=120.0)
            compiled = {"action": "run", "source": program("killfault"),
                        "inputs": {"n": 3}, "engine": "compiled"}
            interp = {"action": "run", "source": program("killfault"),
                      "inputs": {"n": 3}}

            # the armed worker dies mid-request; the pool rebuilds once
            # and retries, the replacement (re-armed from env) dies too,
            # and the failure surfaces as a bounded 500 — not a hang
            status, doc = client.post_json("/compile", compiled)
            assert status == 500
            assert "Broken" in doc["error"]
            assert svc.pool.restarts == 1

            # the pool is broken after the failed retry: the next
            # submit rebuilds it, and the interpreter path (which never
            # reaches backend.compile) completes normally
            status, doc = client.post_json("/compile", interp)
            assert status == 200
            assert doc["output"] == [3.5]
            assert svc.pool.restarts == 2

            # disarm via the environment: the worker armed at spawn
            # still kills once more, but its replacement reads the
            # clean environment and the original request now succeeds
            monkeypatch.delenv(faults.ENV_VAR)
            status, doc = client.post_json("/compile", compiled)
            assert status == 200
            assert doc["engine"] == "compiled"
            assert doc["output"] == [3.5]
            assert svc.pool.restarts == 3
            # the replacement worker starts with empty caches
            assert doc["backend_cached"] is False

            # fault-free replay matches a fresh fault-free execution;
            # the pool's one warm worker serves it from its cache
            _, again = client.post_json("/compile", compiled)
            assert again["backend_cached"] is True
            assert canonical(doc) == canonical(again)
        finally:
            if not svc._stopped.is_set():
                svc.shutdown()
