"""The threaded HTTP frontend of the compile service.

``CompileService`` wraps a ``ThreadingHTTPServer`` accept loop around
the :class:`~repro.service.workers.WorkerPool`:

* **admission control** -- at most ``queue_limit`` compile requests
  are admitted at once (queued + running).  Overflow is answered with
  ``429 Too Many Requests`` immediately — saturation is reported, it
  never hangs; while draining, new work gets ``503`` with
  ``Retry-After``.
* **per-request timeout** -- a request that exceeds
  ``request_timeout`` seconds is answered ``504`` (the worker keeps
  running; the interpreter's own step budget bounds it).
* **single-flight** -- identical concurrent requests share one worker
  execution (keyed by the canonical request hash).
* **observability** -- ``GET /metrics`` renders the
  :class:`~repro.service.metrics.MetricsRegistry` (request totals and
  latency histograms per endpoint, per-phase parse/optimize/execute
  histograms fed from the pipeline trace, cache hit/miss, queue depth,
  rejections); ``GET /healthz`` reports liveness and drain state.
* **graceful shutdown** -- ``shutdown()`` (SIGTERM/SIGINT in the CLI,
  or ``POST /shutdown``) stops admitting, waits for in-flight work to
  drain (bounded by ``drain_timeout``), then stops the pool and the
  accept loop.

Endpoints: ``POST /compile``, ``POST /tables``, ``GET /healthz``,
``GET /metrics``, ``GET /version``, ``POST /shutdown``.
"""

from __future__ import annotations

import contextlib
import json
import os
import socket
import threading
import time
from concurrent.futures import TimeoutError as FutureTimeout
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple

from .. import __version__, faults
from ..reporting.jsonout import SERVICE_ERROR_SCHEMA
from .jobs import CompileRequest, ServiceError, request_key
from .metrics import MetricsRegistry
from .workers import WorkerPool

#: Largest accepted request body (source bound is enforced separately).
MAX_BODY_BYTES = 4 << 20

_PHASES = ("parse", "optimize", "execute")

#: The ``endpoint`` label of every request to an unknown path, so that
#: clients cannot add series to ``/metrics`` by inventing paths.
OTHER_ENDPOINT = "other"


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    # socketserver's default accept backlog of 5 drops connections under
    # a concurrent client burst; admission control happens at the
    # semaphore (429), never at the TCP layer.
    request_queue_size = 128

    def __init__(self, server_address, handler_class,
                 reuse_port: bool = False) -> None:
        # server_bind runs inside super().__init__, so the flag must be
        # set first.
        self._reuse_port = reuse_port
        self._open_connections: set = set()
        self._connections_lock = threading.Lock()
        super().__init__(server_address, handler_class)

    def process_request_thread(self, request, client_address) -> None:
        # Track accepted sockets so shutdown can sever idle keep-alive
        # connections whose handler threads are parked in readline().
        with self._connections_lock:
            self._open_connections.add(request)
        try:
            super().process_request_thread(request, client_address)
        finally:
            with self._connections_lock:
                self._open_connections.discard(request)

    def close_open_connections(self) -> None:
        with self._connections_lock:
            pending = list(self._open_connections)
        for request in pending:
            with contextlib.suppress(OSError):
                request.shutdown(socket.SHUT_RDWR)

    def server_bind(self) -> None:
        if self._reuse_port:
            if not hasattr(socket, "SO_REUSEPORT"):
                raise OSError("SO_REUSEPORT is not available on this "
                              "platform; run a single shard instead")
            # Each cluster shard binds its *own* socket to the shared
            # port; the kernel load-balances accepts across them.
            self.socket.setsockopt(socket.SOL_SOCKET,
                                   socket.SO_REUSEPORT, 1)
        super().server_bind()


class CompileService:
    """The long-lived compile server (accept loop + worker pool)."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8377,
                 workers: int = 2, worker_mode: str = "process",
                 queue_limit: int = 32, request_timeout: float = 60.0,
                 drain_timeout: float = 30.0,
                 registry: Optional[MetricsRegistry] = None,
                 pool: Optional[WorkerPool] = None,
                 clock=None, reuse_port: bool = False,
                 shard_id: Optional[int] = None) -> None:
        self.queue_limit = max(1, queue_limit)
        #: Cluster shard number (None outside a cluster); surfaced in
        #: ``/healthz`` so the supervisor and tests can tell shards
        #: apart behind one SO_REUSEPORT address.
        self.shard_id = shard_id
        self.request_timeout = request_timeout
        self.drain_timeout = drain_timeout
        self.metrics = registry if registry is not None else MetricsRegistry()
        self.pool = pool if pool is not None \
            else WorkerPool(workers, worker_mode)
        # durations (uptime, drain deadline) come off the monotonic
        # clock so a wall-clock jump (NTP step, DST) can't stretch or
        # collapse them; the wall timestamp is kept for reporting only.
        # ``clock`` is injectable for deterministic tests.
        self._clock = clock if clock is not None else time.monotonic
        self._started_monotonic = self._clock()
        self._started_wall = time.time()
        self._draining = threading.Event()
        self._stopped = threading.Event()
        self._admit = threading.Semaphore(self.queue_limit)
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._idle = threading.Condition(self._inflight_lock)
        self._serve_thread: Optional[threading.Thread] = None

        m = self.metrics
        self._requests = m.counter(
            "repro_requests_total", "HTTP requests by endpoint and status",
            ("endpoint", "status"))
        self._rejected = m.counter(
            "repro_requests_rejected_total",
            "Requests refused before reaching a worker", ("reason",))
        self._request_seconds = m.histogram(
            "repro_request_seconds", "End-to-end request latency",
            ("endpoint",))
        self._phase_seconds = m.histogram(
            "repro_phase_seconds",
            "Pipeline phase latency reported by workers", ("phase",))
        self._execute_seconds = m.histogram(
            "repro_execute_seconds",
            "Execution-phase latency by engine", ("engine",))
        self._cache_requests = m.counter(
            "repro_cache_requests_total",
            "Worker frontend-cache outcomes per compile request",
            ("result",))
        self._coalesced = m.counter(
            "repro_singleflight_coalesced_total",
            "Requests served by an identical in-flight execution")
        self._timeouts = m.counter(
            "repro_request_timeouts_total",
            "Requests answered 504 after exceeding the deadline")
        self._traps = m.counter(
            "repro_traps_total", "Run requests whose program trapped")
        self._backend_compiles = m.counter(
            "repro_backend_compiles_total",
            "Run requests whose backend module was actually translated "
            "(a cold artifact-store key) rather than served cached")
        self._queue_depth = m.gauge(
            "repro_queue_depth", "Admitted requests currently in flight")
        self._worker_restarts = m.gauge(
            "repro_worker_restarts_total", "Worker pool rebuilds")

        # on_coalesce fires synchronously on the follower's handler
        # thread, so a thread-local flag tells _observe_body that this
        # request shared another flight's body (its backend_cached
        # field describes the leader's work, not a second compile).
        self._request_state = threading.local()
        self.pool.on_coalesce = self._on_coalesce

        self._handler = _make_handler(self)
        self.httpd = _Server((host, port), self._handler,
                             reuse_port=reuse_port)
        self._extra_servers: List[_Server] = []
        self._extra_threads: List[threading.Thread] = []

    # -- lifecycle -----------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        return self.httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return "http://%s:%d" % (host, port)

    def start(self) -> None:
        """Run the accept loop on a background thread."""
        self._serve_thread = threading.Thread(
            target=self.httpd.serve_forever, name="repro-serve",
            daemon=True)
        self._serve_thread.start()

    def listen_also(self, host: str = "127.0.0.1",
                    port: int = 0) -> Tuple[str, int]:
        """Serve the same endpoints on an extra private listener.

        Cluster shards share one SO_REUSEPORT address — any request may
        land on any shard — so each shard additionally listens on its
        own ephemeral "direct" port.  The supervisor scrapes per-shard
        ``/metrics`` there, and the consistent-hashing client targets
        it for shard affinity.  Served on a daemon thread; stopped by
        :meth:`shutdown`.  Returns the bound ``(host, port)``.
        """
        extra = _Server((host, port), self._handler)
        thread = threading.Thread(target=extra.serve_forever,
                                  name="repro-serve-direct", daemon=True)
        thread.start()
        self._extra_servers.append(extra)
        self._extra_threads.append(thread)
        return extra.server_address[:2]

    def serve_forever(self) -> None:
        """Run the accept loop on this thread until ``shutdown()``."""
        self.httpd.serve_forever()

    def shutdown(self, drain_timeout: Optional[float] = None) -> None:
        """Graceful stop: drain in-flight work, then close.

        Idempotent; safe to call from signal handlers and handler
        threads alike.
        """
        if self._draining.is_set():
            self._stopped.wait()
            return
        self._draining.set()
        deadline = self._clock() + (drain_timeout
                                    if drain_timeout is not None
                                    else self.drain_timeout)
        with self._idle:
            while self._inflight > 0 and self._clock() < deadline:
                self._idle.wait(
                    timeout=max(0.05, deadline - self._clock()))
        self.pool.shutdown(wait=True)
        # shutdown() must not be called from the serve_forever thread;
        # handler threads and signal handlers are fine.
        self.httpd.shutdown()
        self.httpd.server_close()
        # In-flight work has drained; sever lingering keep-alive
        # connections so clients cannot reach a stopped server through
        # a socket accepted before the drain began.
        self.httpd.close_open_connections()
        for extra in self._extra_servers:
            extra.shutdown()
            extra.server_close()
            extra.close_open_connections()
        for thread in self._extra_threads:
            if thread is not threading.current_thread():
                thread.join(timeout=5.0)
        self._stopped.set()
        if self._serve_thread is not None \
                and self._serve_thread is not threading.current_thread():
            self._serve_thread.join(timeout=5.0)

    def wait_stopped(self, timeout: Optional[float] = None) -> bool:
        """Block until a graceful shutdown has fully completed."""
        return self._stopped.wait(timeout)

    # -- request handling (called from handler threads) ----------------

    def handle_compile(self, raw_body: bytes,
                       endpoint: str) -> Tuple[int, Dict[str, Any]]:
        """Admission control + validation + worker dispatch for the
        ``/compile`` and ``/tables`` endpoints."""
        try:
            faults.fire("service.accept")
        except (faults.FaultError, faults.FaultIOError) as error:
            self._rejected.labels("fault").inc()
            return 500, {"schema": SERVICE_ERROR_SCHEMA,
                         "error": str(error)}
        if self._draining.is_set():
            self._rejected.labels("draining").inc()
            return 503, {"schema": SERVICE_ERROR_SCHEMA,
                         "error": "server is shutting down"}
        if not self._admit.acquire(blocking=False):
            self._rejected.labels("queue_full").inc()
            return 429, {"schema": SERVICE_ERROR_SCHEMA,
                         "error": "queue full (limit %d)"
                                  % self.queue_limit}
        with self._inflight_lock:
            self._inflight += 1
            self._queue_depth.set(self._inflight)
        try:
            return self._dispatch(raw_body, endpoint)
        finally:
            with self._idle:
                self._inflight -= 1
                self._queue_depth.set(self._inflight)
                self._idle.notify_all()
            self._admit.release()

    def _dispatch(self, raw_body: bytes,
                  endpoint: str) -> Tuple[int, Dict[str, Any]]:
        try:
            payload = json.loads(raw_body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            return 400, {"schema": SERVICE_ERROR_SCHEMA,
                         "error": "request body is not valid JSON"}
        try:
            if endpoint == "/tables":
                if not isinstance(payload, dict):
                    raise ServiceError(400,
                                       "request body must be a JSON object")
                payload = dict(payload, action="tables", source="")
            request = CompileRequest.from_payload(payload)
        except ServiceError as error:
            return error.status, error.body()
        key = request_key(request)
        self._request_state.coalesced = False
        try:
            status, body = self.pool.result(request.payload(), key=key,
                                            timeout=self.request_timeout)
        except (TimeoutError, FutureTimeout):
            self._timeouts.inc()
            return 504, {"schema": SERVICE_ERROR_SCHEMA,
                         "error": "request exceeded %.1fs deadline"
                                  % self.request_timeout}
        except Exception as error:
            message = "%s: %s" % (type(error).__name__, error)
            return 500, {"schema": SERVICE_ERROR_SCHEMA,
                         "error": message[:300]}
        self._worker_restarts.set(self.pool.restarts)
        self._observe_body(status, body)
        return status, body

    def _on_coalesce(self) -> None:
        self._coalesced.inc()
        self._request_state.coalesced = True

    def _observe_body(self, status: int, body: Dict[str, Any]) -> None:
        if not isinstance(body, dict) or status != 200:
            return
        cached = body.get("frontend_cached")
        if cached is not None and body.get("phases") is not None:
            self._cache_requests.labels("hit" if cached else "miss").inc()
        phases = body.get("phases")
        if isinstance(phases, dict):
            for phase in _PHASES:
                seconds = phases.get(phase)
                if isinstance(seconds, (int, float)):
                    self._phase_seconds.labels(phase).observe(seconds)
            engine = body.get("engine")
            execute = phases.get("execute")
            if isinstance(engine, str) and isinstance(execute, (int, float)):
                self._execute_seconds.labels(engine).observe(execute)
        if (body.get("backend_cached") is False
                and not getattr(self._request_state, "coalesced", False)):
            self._backend_compiles.inc()
        if body.get("trap"):
            self._traps.inc()

    # -- plumbing shared with the handler ------------------------------

    def record_request(self, endpoint: str, status: int,
                       seconds: float) -> None:
        self._requests.labels(endpoint, status).inc()
        self._request_seconds.labels(endpoint).observe(seconds)

    def health(self) -> Dict[str, Any]:
        with self._inflight_lock:
            inflight = self._inflight
        uptime = self._clock() - self._started_monotonic
        return {
            "status": "draining" if self._draining.is_set() else "ok",
            "version": __version__,
            "uptime_seconds": uptime,
            "uptime_s": uptime,
            "started_unix": self._started_wall,
            "in_flight": inflight,
            "queue_limit": self.queue_limit,
            "worker_mode": self.pool.mode,
            "workers": self.pool.workers,
            "shard_id": self.shard_id,
            "pid": os.getpid(),
            "faults": faults.describe(),
        }


class KeepAliveHandler(BaseHTTPRequestHandler):
    """The HTTP/1.1 request handler base of the service and the cluster
    admin server.

    ``_send`` flushes the headers and then writes the body: two small
    writes.  Without ``TCP_NODELAY`` Nagle's algorithm holds the body
    until the client ACKs the headers, and a keep-alive client delays
    that ACK by about 40 ms.  ``disable_nagle_algorithm`` makes
    ``StreamRequestHandler.setup()`` set ``TCP_NODELAY`` on every
    accepted socket, whatever the response's shape or size.
    """

    # HTTP/1.1 keep-alive: Content-Length is always sent below.
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    #: Statuses answered with ``Retry-After: 1``.
    retry_after_statuses: Tuple[int, ...] = ()

    def log_message(self, format: str, *args: Any) -> None:
        pass  # access logging is the metrics registry's job

    def _send(self, status: int, payload: bytes,
              content_type: str = "application/json") -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        if status in self.retry_after_statuses:
            self.send_header("Retry-After", "1")
        self.end_headers()
        try:
            self.wfile.write(payload)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away; nothing to clean up

    def _respond_json(self, status: int, body: Dict[str, Any]) -> None:
        blob = json.dumps(body, sort_keys=True).encode("utf-8")
        self._send(status, blob)


def _make_handler(service: CompileService):
    """A handler class bound to one service instance."""

    class Handler(KeepAliveHandler):
        server_version = "repro-serve/" + __version__
        retry_after_statuses = (429, 503)

        # -- helpers ---------------------------------------------------

        def _timed(self, endpoint: str, status: int,
                   started: float) -> None:
            service.record_request(endpoint, status,
                                   time.perf_counter() - started)

        def _not_found(self, path: str) -> Tuple[str, int]:
            """Answer 404; returns the endpoint label and status."""
            self._respond_json(404, {"schema": SERVICE_ERROR_SCHEMA,
                                     "error": "no such endpoint %r" % path})
            return OTHER_ENDPOINT, 404

        # -- GET -------------------------------------------------------

        def do_GET(self) -> None:
            started = time.perf_counter()
            path = self.path.split("?", 1)[0]
            if path == "/healthz":
                health = service.health()
                status = 200 if health["status"] == "ok" else 503
                self._respond_json(status, health)
            elif path == "/metrics":
                status = 200
                self._send(200, service.metrics.render().encode("utf-8"),
                           "text/plain; version=0.0.4; charset=utf-8")
            elif path == "/version":
                status = 200
                self._respond_json(200, {"version": __version__})
            else:
                path, status = self._not_found(path)
            self._timed(path, status, started)

        # -- POST ------------------------------------------------------

        def _read_body(self) -> Optional[bytes]:
            try:
                length = int(self.headers.get("Content-Length", "0"))
            except ValueError:
                return None
            if length < 0 or length > MAX_BODY_BYTES:
                return None
            return self.rfile.read(length)

        def do_POST(self) -> None:
            started = time.perf_counter()
            path = self.path.split("?", 1)[0]
            # Consume the body on every path: with HTTP/1.1 keep-alive
            # an unread body would be parsed as the next request line.
            body = self._read_body()
            if body is None:
                self.close_connection = True
            if path in ("/compile", "/tables"):
                if body is None:
                    status, doc = 413, {"schema": SERVICE_ERROR_SCHEMA,
                                        "error": "missing or oversized "
                                                 "request body"}
                else:
                    status, doc = service.handle_compile(body, path)
                self._respond_json(status, doc)
            elif path == "/shutdown":
                status = 202
                self._respond_json(202, {"status": "draining"})
                # Drain and stop from a separate thread so this
                # response can complete first.
                threading.Thread(target=service.shutdown,
                                 name="repro-shutdown",
                                 daemon=True).start()
            else:
                path, status = self._not_found(path)
            self._timed(path, status, started)

    return Handler
