"""Shared helpers for the test suite."""

from __future__ import annotations

import contextlib
import socket

import pytest

from repro.checks.config import (CheckKind, ImplicationMode, OptimizerOptions,
                                 Scheme)
from repro.checks.optimizer import optimize_module
from repro.frontend.parser import parse_source
from repro.interp.machine import Machine
from repro.ir.lowering import lower_source_file
from repro.ssa.construct import construct_ssa


class ReservedPorts:
    """N distinct ephemeral 127.0.0.1 ports, atomically reserved.

    The old ``free_tcp_port()`` helper closed its probe socket before
    returning the number, leaving a window in which the kernel could
    hand the same port to a parallel test (a classic time-of-check /
    time-of-use race).  This helper instead *keeps every reservation
    socket bound* — the kernel cannot reallocate a held port — until
    :meth:`release`, called at the moment of handoff.

    Two usage modes:

    * held (no release): a bound-but-not-listening socket refuses
      connections, so a "nothing listens here" URL is race-free for
      the whole ``with`` block;
    * handoff: ``release()`` (or leaving the block) closes the
      sockets right before the caller binds them itself, shrinking
      the race window from "since the probe" to "one syscall".

    Prefer ``port=0`` + reading the bound address back
    (:func:`make_service` does) whenever the consumer can bind first.
    """

    def __init__(self, count: int = 1):
        self.ports = []
        self._socks = []
        try:
            for _ in range(count):
                sock = socket.socket()
                self._socks.append(sock)
                sock.bind(("127.0.0.1", 0))
                self.ports.append(sock.getsockname()[1])
        except BaseException:
            self.release()
            raise

    def release(self) -> None:
        while self._socks:
            with contextlib.suppress(OSError):
                self._socks.pop().close()

    def __enter__(self) -> "ReservedPorts":
        return self

    def __exit__(self, *exc) -> None:
        self.release()


def free_tcp_port():
    """An ephemeral 127.0.0.1 port (released on return — prefer
    :class:`ReservedPorts` held open, or ``port=0``, when possible)."""
    with ReservedPorts(1) as reserved:
        return reserved.ports[0]


def make_service(**kwargs):
    """A started :class:`~repro.service.CompileService` on an ephemeral
    port (``port=0`` bind — no fixed ports, no collision flakes under
    parallel CI).  Thread workers by default so suites stay fast;
    callers override ``worker_mode``/``workers``/``pool`` freely."""
    from repro.service import CompileService

    kwargs.setdefault("port", 0)
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("worker_mode", "thread")
    service = CompileService(**kwargs)
    service.start()
    return service


def lower(source):
    """Parse + lower with naive checks (no SSA)."""
    return lower_source_file(parse_source(source))


def lower_ssa(source):
    """Parse + lower + SSA for every function."""
    module = lower(source)
    for function in module:
        construct_ssa(function)
    return module


def compile_and_run(source, options=None, inputs=None, optimize=True,
                    max_steps=5_000_000):
    """Full pipeline; returns the machine after execution."""
    module = lower_ssa(source)
    if optimize:
        optimize_module(module, options or OptimizerOptions())
    machine = Machine(module, inputs, max_steps)
    machine.run()
    return machine


def run_baseline(source, inputs=None, max_steps=5_000_000):
    """Naive-checking run (no optimization)."""
    return compile_and_run(source, inputs=inputs, optimize=False,
                           max_steps=max_steps)


def assert_engine_parity(program, inputs):
    """Run a compiled program on all three engines and assert each
    back-end's output and ``BENCH_PARITY_FIELDS`` counters equal the
    interpreter's.  Returns every engine's counter snapshot."""
    from repro.benchsuite import BENCH_PARITY_FIELDS

    interp = program.run(inputs)
    counters = {"interp": interp.counters.snapshot()}
    for engine in ("compiled", "specialized"):
        backend = program.run_compiled(inputs, engine=engine)
        assert backend.output == interp.output, engine
        counters[engine] = backend.counters.snapshot()
        for field in BENCH_PARITY_FIELDS:
            assert counters[engine][field] == counters["interp"][field], \
                (engine, field)
    return counters


ALL_SCHEMES = tuple(Scheme)
ALL_KINDS = tuple(CheckKind)
ALL_MODES = tuple(ImplicationMode)


@pytest.fixture
def no_process_pool(monkeypatch):
    """Make every process pool fail to start, as on a host that forbids
    fork; the fixture's value is the error line the fallback reports."""
    import concurrent.futures

    def refuse(*args, **kwargs):
        raise OSError("no forks today")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    return "OSError: no forks today"


@pytest.fixture
def loop_program():
    """A small single-loop program used across many tests."""
    return """
program loopy
  input integer :: n = 10
  integer :: i
  real :: a(0:99), b(100)
  do i = 1, n
    a(i) = a(i - 1) + 1.0
    b(i) = a(i) * 2.0
  end do
  print b(n)
end program
"""
