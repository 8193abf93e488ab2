"""The pre-fork cluster supervisor.

``ClusterSupervisor`` owns the shared listening address and N shard
processes (:func:`~repro.cluster.shard.shard_main`), and supervises
them:

* **port reservation** — the supervisor binds (but never listens on) a
  ``SO_REUSEPORT`` socket to the cluster address first.  A bound,
  non-listening socket receives no connections, so it does not steal
  traffic from the shards; it pins the port so ``port=0`` resolves to
  one concrete ephemeral port every shard can then bind, and so the
  address survives a window where every shard happens to be dead.
* **readiness handshake** — each shard reports ``(pid, direct port)``
  over a one-shot pipe before the supervisor counts it as up; a shard
  that does not report within ``ready_timeout`` is killed and
  respawned.
* **restart-on-crash** — a shard that exits while the cluster is not
  draining is respawned after an exponential backoff
  (``backoff_base * 2^restarts`` capped at ``backoff_cap`` seconds).
  Spawning passes the ``cluster.spawn`` fault point so the resilience
  suite can exercise the retry path.
* **graceful drain** — :meth:`shutdown` SIGTERMs every shard, waits
  ``drain_timeout`` (plus margin) for them to drain in-flight work and
  exit, escalates to SIGKILL only past the deadline, and reports a
  clean drain (exit code 0 from every shard) as its own exit status.
* **aggregation** — a small parent admin server (its own port, never
  the shared one) serves cluster ``/healthz`` (per-shard liveness,
  pids, restart counts, direct URLs) and cluster ``/metrics``: every
  shard's direct ``/metrics`` re-labelled with ``shard="N"`` plus the
  supervisor's own gauges, so cluster-wide counters — e.g.
  ``repro_backend_compiles_total`` across all shards — are one scrape.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import socket
import threading
import time
from http.server import ThreadingHTTPServer
from typing import Any, Dict, List, Optional

from .. import __version__, faults
from ..service.client import ServiceClient
from ..service.server import KeepAliveHandler
from .shard import shard_main

#: How long the supervisor waits for a shard's readiness message.
READY_TIMEOUT_DEFAULT = 30.0

_MONITOR_POLL_SECONDS = 0.05


class ShardHandle:
    """Supervisor-side state of one shard slot."""

    def __init__(self, shard_id: int) -> None:
        self.shard_id = shard_id
        self.process: Optional[multiprocessing.process.BaseProcess] = None
        self.pid: Optional[int] = None
        self.direct_url: Optional[str] = None
        self.restarts = 0
        self.exit_code: Optional[int] = None
        self.next_spawn_at = 0.0  # monotonic; backoff gate
        #: Monotonic instant the shard last reported ready.  Never a
        #: wall timestamp: uptime is a duration, and an NTP step or DST
        #: shift between spawn and scrape must not stretch or collapse
        #: (or negate) it.
        self.ready_at: Optional[float] = None

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def as_dict(self, now: Optional[float] = None) -> Dict[str, Any]:
        uptime = None
        if now is not None and self.ready_at is not None and self.alive:
            uptime = max(0.0, now - self.ready_at)
        return {
            "shard_id": self.shard_id,
            "pid": self.pid,
            "alive": self.alive,
            "restarts": self.restarts,
            "direct_url": self.direct_url,
            "exit_code": self.exit_code,
            "uptime_s": uptime,
        }


class ClusterSupervisor:
    """Pre-fork N shards on one SO_REUSEPORT address and keep them up."""

    def __init__(self, shards: int = 2, host: str = "127.0.0.1",
                 port: int = 8377, workers: int = 2,
                 worker_mode: str = "thread", queue_limit: int = 32,
                 request_timeout: float = 60.0,
                 drain_timeout: float = 30.0,
                 cache_dir: Optional[str] = None,
                 backoff_base: float = 0.25, backoff_cap: float = 5.0,
                 ready_timeout: float = READY_TIMEOUT_DEFAULT,
                 admin_host: str = "127.0.0.1",
                 admin_port: int = 0, clock=None) -> None:
        if shards < 1:
            raise ValueError("a cluster needs at least one shard")
        if not hasattr(socket, "SO_REUSEPORT"):
            raise OSError("SO_REUSEPORT is not available on this "
                          "platform; use 'repro serve' instead")
        self.shards = shards
        self.host = host
        self.workers = workers
        self.worker_mode = worker_mode
        self.queue_limit = queue_limit
        self.request_timeout = request_timeout
        self.drain_timeout = drain_timeout
        self.cache_dir = cache_dir
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.ready_timeout = ready_timeout
        # same contract as CompileService: durations come off the
        # monotonic clock (injectable for deterministic tests); wall
        # time is never used for uptime arithmetic
        self._clock = clock if clock is not None else time.monotonic
        self._started = self._clock()
        self.restarts_total = 0
        self.spawn_failures = 0
        self.handles = [ShardHandle(i) for i in range(shards)]
        self._draining = threading.Event()
        self._stopped = threading.Event()
        self._monitor_thread: Optional[threading.Thread] = None
        self._admin: Optional[ThreadingHTTPServer] = None
        self._admin_thread: Optional[threading.Thread] = None
        self._admin_host = admin_host
        self._admin_port = admin_port
        self._lock = threading.Lock()
        # fork keeps shard spawn cheap and works with module state;
        # shard_main + a dict config stay spawn-safe should a platform
        # ever need it.
        try:
            self._mp = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-fork platforms
            self._mp = multiprocessing.get_context("spawn")

        # Reserve the shared address now: bound but NOT listening, so
        # it never receives connections, but port=0 resolves once.
        self._reservation = socket.socket(socket.AF_INET,
                                          socket.SOCK_STREAM)
        self._reservation.setsockopt(socket.SOL_SOCKET,
                                     socket.SO_REUSEPORT, 1)
        self._reservation.bind((host, port))
        self.port = self._reservation.getsockname()[1]

    # -- addresses -----------------------------------------------------

    @property
    def url(self) -> str:
        """The shared (kernel load-balanced) cluster URL."""
        return "http://%s:%d" % (self.host, self.port)

    @property
    def admin_url(self) -> str:
        if self._admin is None:
            raise RuntimeError("cluster is not started")
        admin_host, admin_port = self._admin.server_address[:2]
        return "http://%s:%d" % (admin_host, admin_port)

    @property
    def shard_urls(self) -> List[str]:
        """Per-shard direct URLs (affinity routing, per-shard scrape)."""
        return [handle.direct_url for handle in self.handles
                if handle.direct_url is not None]

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        """Boot every shard (waiting for readiness) and the admin
        server, then start the restart monitor."""
        if self.cache_dir:
            os.environ["REPRO_CACHE_DIR"] = self.cache_dir
        for handle in self.handles:
            self._spawn(handle)
        self._admin = ThreadingHTTPServer(
            (self._admin_host, self._admin_port),
            _make_admin_handler(self))
        self._admin.daemon_threads = True
        self._admin_thread = threading.Thread(
            target=self._admin.serve_forever, name="repro-cluster-admin",
            daemon=True)
        self._admin_thread.start()
        self._monitor_thread = threading.Thread(
            target=self._monitor, name="repro-cluster-monitor",
            daemon=True)
        self._monitor_thread.start()

    def _shard_config(self, shard_id: int) -> Dict[str, Any]:
        return {
            "shard_id": shard_id,
            "host": self.host,
            "port": self.port,
            "workers": self.workers,
            "worker_mode": self.worker_mode,
            "queue_limit": self.queue_limit,
            "request_timeout": self.request_timeout,
            "drain_timeout": self.drain_timeout,
            "cache_dir": self.cache_dir,
        }

    def _spawn(self, handle: ShardHandle) -> bool:
        """Spawn (or respawn) one shard; True when it reported ready."""
        try:
            faults.fire("cluster.spawn")
        except (faults.FaultError, faults.FaultIOError):
            self.spawn_failures += 1
            return False
        recv_conn, send_conn = self._mp.Pipe(duplex=False)
        process = self._mp.Process(
            target=shard_main,
            args=(self._shard_config(handle.shard_id), send_conn),
            name="repro-shard-%d" % handle.shard_id)
        process.start()
        send_conn.close()  # child's end; keep only ours
        ready: Optional[Dict[str, Any]] = None
        try:
            if recv_conn.poll(self.ready_timeout):
                ready = recv_conn.recv()
        except (EOFError, OSError):
            ready = None
        finally:
            recv_conn.close()
        if not isinstance(ready, dict):
            self.spawn_failures += 1
            if process.is_alive():  # pragma: no cover - wedged spawn
                process.terminate()
            process.join(timeout=5.0)
            return False
        with self._lock:
            handle.process = process
            handle.pid = ready["pid"]
            handle.direct_url = "http://%s:%d" % (ready["direct_host"],
                                                  ready["direct_port"])
            handle.exit_code = None
            handle.ready_at = self._clock()
        return True

    def _monitor(self) -> None:
        """Respawn dead shards (with backoff) until draining."""
        while not self._draining.is_set():
            for handle in self.handles:
                if self._draining.is_set():
                    break
                if handle.alive:
                    continue
                now = time.monotonic()
                if handle.process is not None \
                        and handle.next_spawn_at <= now:
                    handle.process.join(timeout=0)
                    handle.exit_code = handle.process.exitcode
                    backoff = min(self.backoff_cap,
                                  self.backoff_base
                                  * (2.0 ** handle.restarts))
                    handle.restarts += 1
                    self.restarts_total += 1
                    handle.next_spawn_at = now + backoff
                    handle.process = None  # spawn once backoff elapses
                elif handle.process is None \
                        and handle.next_spawn_at <= now:
                    if not self._spawn(handle):
                        # failed spawn: retry after one more backoff
                        backoff = min(self.backoff_cap,
                                      self.backoff_base
                                      * (2.0 ** handle.restarts))
                        handle.restarts += 1
                        handle.next_spawn_at = time.monotonic() + backoff
            self._draining.wait(_MONITOR_POLL_SECONDS)

    def shutdown(self, drain_timeout: Optional[float] = None) -> bool:
        """Fan-out SIGTERM, wait for every shard to drain, stop.

        Returns True only when **every** shard exited 0 (a clean
        drain); the CLI turns this into the process exit code.
        Idempotent.
        """
        if self._draining.is_set():
            self._stopped.wait()
            return self._clean_exit()
        self._draining.set()
        if self._monitor_thread is not None:
            self._monitor_thread.join(timeout=5.0)
        budget = (drain_timeout if drain_timeout is not None
                  else self.drain_timeout)
        deadline = time.monotonic() + budget + 10.0
        for handle in self.handles:
            if handle.alive and handle.pid is not None:
                try:
                    os.kill(handle.pid, signal.SIGTERM)
                except (OSError, ProcessLookupError):
                    pass
        for handle in self.handles:
            process = handle.process
            if process is None:
                continue
            remaining = max(0.1, deadline - time.monotonic())
            process.join(timeout=remaining)
            if process.is_alive():  # drain deadline blown: escalate
                process.terminate()
                process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - last resort
                process.kill()
                process.join(timeout=5.0)
            handle.exit_code = process.exitcode
        if self._admin is not None:
            self._admin.shutdown()
            self._admin.server_close()
        try:
            self._reservation.close()
        except OSError:  # pragma: no cover
            pass
        self._stopped.set()
        return self._clean_exit()

    def _clean_exit(self) -> bool:
        return all(handle.exit_code == 0 for handle in self.handles)

    def wait_stopped(self, timeout: Optional[float] = None) -> bool:
        return self._stopped.wait(timeout)

    # -- aggregation (admin endpoints) ---------------------------------

    def health(self) -> Dict[str, Any]:
        alive = sum(1 for handle in self.handles if handle.alive)
        now = self._clock()
        return {
            "status": "draining" if self._draining.is_set() else "ok",
            "version": __version__,
            "role": "cluster-supervisor",
            "pid": os.getpid(),
            "url": self.url,
            "shards": len(self.handles),
            "shards_alive": alive,
            "uptime_s": max(0.0, now - self._started),
            "restarts_total": self.restarts_total,
            "spawn_failures": self.spawn_failures,
            "shard_status": [handle.as_dict(now)
                             for handle in self.handles],
        }

    def aggregated_metrics(self) -> str:
        """Every shard's ``/metrics`` with ``shard="N"`` injected, plus
        the supervisor's own cluster gauges."""
        chunks = [
            "# HELP repro_cluster_shards Configured shard count",
            "# TYPE repro_cluster_shards gauge",
            "repro_cluster_shards %d" % len(self.handles),
            "# HELP repro_cluster_shards_alive Currently live shards",
            "# TYPE repro_cluster_shards_alive gauge",
            "repro_cluster_shards_alive %d"
            % sum(1 for handle in self.handles if handle.alive),
            "# HELP repro_cluster_restarts_total Shard respawns",
            "# TYPE repro_cluster_restarts_total counter",
            "repro_cluster_restarts_total %d" % self.restarts_total,
            "# HELP repro_cluster_uptime_seconds Supervisor uptime "
            "(monotonic)",
            "# TYPE repro_cluster_uptime_seconds gauge",
            "repro_cluster_uptime_seconds %.3f"
            % max(0.0, self._clock() - self._started),
        ]
        for handle in self.handles:
            if handle.direct_url is None or not handle.alive:
                continue
            try:
                _, body = ServiceClient(handle.direct_url,
                                        timeout=5.0).get("/metrics")
            except OSError:
                continue
            for line in body.decode("utf-8").splitlines():
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    if line not in chunks:  # HELP/TYPE once per metric
                        chunks.append(line)
                    continue
                chunks.append(_inject_shard_label(line,
                                                  handle.shard_id))
        return "\n".join(chunks) + "\n"


def _inject_shard_label(sample: str, shard_id: int) -> str:
    """``name{a="b"} 1`` -> ``name{shard="N",a="b"} 1``."""
    name, _, value = sample.rpartition(" ")
    if "{" in name:
        prefix, rest = name.split("{", 1)
        return '%s{shard="%d",%s %s' % (prefix, shard_id, rest, value)
    return '%s{shard="%d"} %s' % (name, shard_id, value)


def _make_admin_handler(supervisor: ClusterSupervisor):
    class AdminHandler(KeepAliveHandler):
        server_version = "repro-cluster/" + __version__

        def do_GET(self) -> None:
            path = self.path.split("?", 1)[0]
            if path == "/healthz":
                health = supervisor.health()
                status = 200 if health["status"] == "ok" else 503
                self._respond_json(status, health)
            elif path == "/metrics":
                self._send(200,
                           supervisor.aggregated_metrics().encode("utf-8"),
                           "text/plain; version=0.0.4; charset=utf-8")
            else:
                self._respond_json(404, {"error": "no such endpoint %r"
                                                  % path})

        def do_POST(self) -> None:
            path = self.path.split("?", 1)[0]
            if path == "/shutdown":
                self._respond_json(202, {"status": "draining"})
                threading.Thread(target=supervisor.shutdown,
                                 daemon=True).start()
            else:
                self._respond_json(404, {"error": "no such endpoint %r"
                                                  % path})

    return AdminHandler
