"""Structured tracing of the compilation pipeline.

Every stage of :func:`repro.pipeline.driver.compile_source` (parse,
lower, inline, rotate, ssa, check-optimize) records a :class:`PassEvent`
into a :class:`PipelineTrace`: wall time, IR size before/after, and any
optimizer counters the pass wants to expose.  Traces serve two
purposes:

* measurement -- the ``--json`` reporting path emits per-pass timings
  for every benchmark cell, the per-pass analogue of the paper's
  "Range(s)" compile-time column;
* verification -- ``run_count("parse")`` is the counter the benchmark
  harness asserts on to prove the frontend ran at most once per
  program per table run (cached cells record a ``frontend`` event with
  ``cached=True`` instead of fresh parse/lower/ssa events).
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterator, List, Optional

#: Pass names that make up the cacheable frontend prefix.
FRONTEND_PASSES = ("parse", "lower", "inline", "rotate", "ssa")


class PassEvent:
    """One pass execution: name, wall time, and IR size delta."""

    __slots__ = ("name", "seconds", "size_before", "size_after", "cached",
                 "counters")

    def __init__(self, name: str, seconds: float, size_before: int = 0,
                 size_after: int = 0, cached: bool = False,
                 counters: Optional[Dict[str, Any]] = None) -> None:
        self.name = name
        self.seconds = seconds
        self.size_before = size_before
        self.size_after = size_after
        self.cached = cached
        self.counters: Dict[str, Any] = dict(counters or {})

    @property
    def size_delta(self) -> int:
        """Instructions added (positive) or removed (negative)."""
        return self.size_after - self.size_before

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready representation."""
        event: Dict[str, Any] = {
            "pass": self.name,
            "seconds": self.seconds,
            "size_before": self.size_before,
            "size_after": self.size_after,
        }
        if self.cached:
            event["cached"] = True
        if self.counters:
            event["counters"] = dict(self.counters)
        return event

    def __repr__(self) -> str:
        suffix = " cached" if self.cached else ""
        return "PassEvent(%s: %.6fs, %d -> %d%s)" % (
            self.name, self.seconds, self.size_before, self.size_after,
            suffix)


class PipelineTrace:
    """An ordered log of the passes one compilation ran."""

    def __init__(self) -> None:
        self.events: List[PassEvent] = []

    # -- recording ----------------------------------------------------

    def record(self, name: str, seconds: float, size_before: int = 0,
               size_after: int = 0, cached: bool = False,
               counters: Optional[Dict[str, Any]] = None) -> PassEvent:
        """Append one pass event; returns it."""
        event = PassEvent(name, seconds, size_before, size_after, cached,
                          counters)
        self.events.append(event)
        return event

    def extend(self, other: "PipelineTrace") -> None:
        """Append every event of another trace (shared, not copied)."""
        self.events.extend(other.events)

    class _Timer:
        """Context manager returned by :meth:`timed`."""

        __slots__ = ("event", "_start")

        def __init__(self, event: PassEvent) -> None:
            self.event = event
            self._start = time.perf_counter()

        def __enter__(self) -> PassEvent:
            self._start = time.perf_counter()
            return self.event

        def __exit__(self, *exc_info: object) -> None:
            self.event.seconds = time.perf_counter() - self._start

    def timed(self, name: str, size_before: int = 0) -> "PipelineTrace._Timer":
        """``with trace.timed("lower") as event:`` — records wall time.

        The event is appended immediately; set ``event.size_after`` (and
        counters) inside the block.
        """
        event = self.record(name, 0.0, size_before)
        return PipelineTrace._Timer(event)

    # -- queries ------------------------------------------------------

    def run_count(self, name: str, include_cached: bool = False) -> int:
        """How many times a pass actually executed.

        Cached frontend events do not count unless ``include_cached``.
        """
        return sum(1 for e in self.events
                   if e.name == name and (include_cached or not e.cached))

    def seconds(self, name: Optional[str] = None) -> float:
        """Total wall time, optionally restricted to one pass name."""
        return sum(e.seconds for e in self.events
                   if name is None or e.name == name)

    @property
    def total_seconds(self) -> float:
        return self.seconds()

    def frontend_was_cached(self) -> bool:
        """True when this compilation reused a cached frontend module."""
        return any(e.cached for e in self.events
                   if e.name != "backend")

    def backend_was_cached(self) -> Optional[bool]:
        """Whether the backend translation was served from cache.

        ``None`` when this run never touched the backend cache (the
        interpreter engine, or a dump request); otherwise the cached
        flag of the last ``backend`` event.  Cluster tests count cold
        compiles across shards with this.
        """
        for event in reversed(self.events):
            if event.name == "backend":
                return bool(event.cached)
        return None

    def __iter__(self) -> Iterator[PassEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready representation of the whole trace."""
        return {
            "total_seconds": self.total_seconds,
            "events": [event.as_dict() for event in self.events],
        }

    def __repr__(self) -> str:
        return "PipelineTrace(%d passes, %.6fs)" % (
            len(self.events), self.total_seconds)
