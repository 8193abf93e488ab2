"""Live cluster lifecycle: spawn, serve, crash-restart, drain.

These tests boot real shard processes (fork start method where
available), so they share one module-scoped cluster for the passive
assertions and pay the per-test boot cost only where the test must
mutate cluster state (kill a shard, drain, inject spawn faults).
"""

from __future__ import annotations

import os
import signal
import socket
import statistics
import tempfile
import time

import pytest

from repro import faults
from repro.cluster import ClusterSupervisor
from repro.service import ServiceClient

GOOD = """
program clustered
  input integer :: n = 10
  integer :: i
  real :: a(0:99)
  do i = 1, n
    a(i) = a(i - 1) + 1.0
  end do
  print a(n)
end program
"""

needs_reuseport = pytest.mark.skipif(
    not hasattr(socket, "SO_REUSEPORT"),
    reason="SO_REUSEPORT not available on this platform")


def _boot(**kwargs):
    kwargs.setdefault("shards", 2)
    kwargs.setdefault("port", 0)
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("worker_mode", "thread")
    kwargs.setdefault("drain_timeout", 10.0)
    supervisor = ClusterSupervisor(**kwargs)
    supervisor.start()
    return supervisor


@pytest.fixture(scope="module")
def cluster():
    if not hasattr(socket, "SO_REUSEPORT"):
        pytest.skip("SO_REUSEPORT not available on this platform")
    with tempfile.TemporaryDirectory(prefix="repro-cluster-") as cache:
        supervisor = _boot(cache_dir=cache)
        try:
            yield supervisor
        finally:
            supervisor.shutdown()


@needs_reuseport
class TestServing:
    def test_admin_health_sees_all_shards(self, cluster):
        health = ServiceClient(cluster.admin_url).healthz()
        assert health["role"] == "cluster-supervisor"
        assert health["shards"] == 2
        assert health["shards_alive"] == 2
        assert len(health["shard_status"]) == 2

    def test_shared_port_serves_requests(self, cluster):
        client = ServiceClient(cluster.url, timeout=60.0)
        status, doc = client.post_json("/compile", {
            "action": "run", "source": GOOD, "inputs": {"n": 10}})
        assert status == 200
        assert doc["ok"] is True

    def test_shards_have_distinct_identities(self, cluster):
        seen = {}
        for url in cluster.shard_urls:
            health = ServiceClient(url).healthz()
            seen[health["shard_id"]] = health["pid"]
            assert health["uptime_s"] >= 0.0
        assert sorted(seen) == [0, 1]
        assert len(set(seen.values())) == 2  # two real processes
        assert os.getpid() not in seen.values()

    def test_aggregated_metrics_carry_shard_labels(self, cluster):
        # at least one request first, so shard counters exist
        ServiceClient(cluster.url, timeout=60.0).post_json(
            "/compile", {"action": "run", "source": GOOD})
        text = ServiceClient(cluster.admin_url).get("/metrics")[1]
        text = text.decode("utf-8")
        assert "repro_cluster_shards 2" in text
        assert 'shard="0"' in text
        assert 'shard="1"' in text
        # HELP/TYPE headers are deduplicated across shards
        help_lines = [line for line in text.splitlines()
                      if line.startswith("# HELP repro_requests_total")]
        assert len(help_lines) <= 1

    def test_admin_metrics_values_aggregate(self, cluster):
        values = ServiceClient(cluster.admin_url).metrics_values()
        assert values.get("repro_cluster_shards") == 2.0

    def test_admin_keepalive_healthz_is_prompt(self, cluster):
        # with Nagle's algorithm on, each keep-alive response body
        # waits about 40 ms for the client's delayed ACK
        client = ServiceClient(cluster.admin_url)
        seconds = []
        for _ in range(21):
            started = time.perf_counter()
            client.healthz()
            seconds.append(time.perf_counter() - started)
        assert statistics.median(seconds) < 0.020, seconds


@needs_reuseport
class TestUptime:
    def test_health_reports_shard_uptime(self, cluster):
        health = ServiceClient(cluster.admin_url).healthz()
        assert health["uptime_s"] >= 0.0
        for shard in health["shard_status"]:
            assert shard["alive"] is True
            assert shard["uptime_s"] is not None
            assert shard["uptime_s"] >= 0.0
            # a live shard cannot have been up longer than its
            # supervisor (monotonic instants share one origin)
            assert shard["uptime_s"] <= health["uptime_s"] + 1e-6

    def test_uptime_survives_wall_clock_step(self, monkeypatch):
        """Regression: uptime must come off the monotonic clock.

        Fake a 7.5 s monotonic advance while the wall clock steps an
        hour *backwards* (an NTP correction mid-scrape).  A wall-clock
        based uptime would report -3592.5 s; the monotonic one reports
        exactly 7.5 s.
        """
        ticks = [1000.0]
        supervisor = ClusterSupervisor(shards=1, port=0,
                                       clock=lambda: ticks[0])
        try:
            handle = supervisor.handles[0]
            handle.ready_at = ticks[0]

            class _Alive:  # stands in for a live shard process
                @staticmethod
                def is_alive():
                    return True

            handle.process = _Alive()
            ticks[0] += 7.5
            monkeypatch.setattr(time, "time",
                                lambda: time.monotonic() - 3600.0)
            health = supervisor.health()
            assert health["uptime_s"] == pytest.approx(7.5)
            assert health["shard_status"][0]["uptime_s"] \
                == pytest.approx(7.5)
            # a dead shard reports no uptime rather than a stale one
            handle.process = None
            assert supervisor.health()["shard_status"][0]["uptime_s"] \
                is None
        finally:
            supervisor._reservation.close()


@needs_reuseport
class TestCrashRestart:
    def test_killed_shard_is_respawned(self):
        supervisor = _boot(backoff_base=0.05, backoff_cap=0.5)
        try:
            victim = supervisor.handles[0]
            old_pid = victim.pid
            os.kill(old_pid, signal.SIGKILL)
            deadline = time.time() + 30.0
            while time.time() < deadline:
                if victim.alive and victim.pid != old_pid:
                    break
                time.sleep(0.05)
            assert victim.alive
            assert victim.pid != old_pid
            assert victim.restarts == 1
            assert supervisor.restarts_total >= 1
            # the respawned shard serves traffic again
            health = ServiceClient(victim.direct_url).healthz()
            assert health["shard_id"] == 0
        finally:
            supervisor.shutdown()

    def test_spawn_faults_are_counted_and_survived(self):
        with faults.armed("cluster.spawn:raise:p=1.0:times=1"):
            supervisor = _boot(shards=1, backoff_base=0.05,
                               backoff_cap=0.5)
        try:
            # first spawn attempt failed; the monitor retried after
            # backoff and the shard came up anyway
            deadline = time.time() + 30.0
            while time.time() < deadline:
                if supervisor.handles[0].alive:
                    break
                time.sleep(0.05)
            assert supervisor.handles[0].alive
            assert supervisor.spawn_failures == 1
        finally:
            supervisor.shutdown()


@needs_reuseport
class TestDrain:
    def test_sigterm_fanout_drains_clean(self):
        supervisor = _boot()
        clean = supervisor.shutdown()
        assert clean is True
        assert [h.exit_code for h in supervisor.handles] == [0, 0]
        assert supervisor.wait_stopped(timeout=1.0)

    def test_shutdown_is_idempotent(self):
        supervisor = _boot(shards=1)
        assert supervisor.shutdown() is True
        assert supervisor.shutdown() is True

    def test_admin_shutdown_endpoint(self):
        supervisor = _boot(shards=1)
        try:
            status, doc = ServiceClient(supervisor.admin_url).post_json(
                "/shutdown", {})
            assert status == 202
            assert supervisor.wait_stopped(timeout=30.0)
        finally:
            supervisor.shutdown()
