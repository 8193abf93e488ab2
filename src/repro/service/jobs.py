"""The service request model and the worker-side execution task.

A request is a plain JSON object (so it crosses the process boundary
as-is).  Validation happens **in the server process** — cheap field
checks, no source parsing — so malformed requests are rejected with
400 before consuming a worker slot.  :func:`execute_request` then runs
in a worker (process or thread) and returns a ``(status, body)``
envelope: compile failures become 422 bodies, traps are *successful*
compilations whose ``run`` body carries the trap, and anything
unexpected becomes a bounded 500 body — workers never raise across
the pool boundary.

Workers reuse the process-wide
:func:`~repro.pipeline.cache.shared_cache`, so a resident worker pays
the frontend once per distinct source (the PR 1 pipeline cache,
including its optional ``REPRO_CACHE_DIR`` disk layer shared between
workers).  :func:`request_key` is the single-flight key: the sha256 of
the canonicalized request, a superset of the frontend cache key.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Optional, Tuple

from ..checks.config import (CheckKind, ImplicationMode, OptimizerOptions,
                             Scheme)
from ..errors import ReproError
from ..pipeline.driver import ENGINE_NAMES
from ..reporting.jsonout import (SERVICE_ERROR_SCHEMA,
                                 SERVICE_TABLES_SCHEMA, execution_to_dict,
                                 phases_to_dict)

#: Actions the ``/compile`` endpoint accepts.
ACTIONS = ("run", "dump", "tables")

#: Bound on request source size (1 MiB) — backpressure for payloads,
#: not just queue depth.
MAX_SOURCE_BYTES = 1 << 20

#: Interpreter step budget per service request; a guard so one
#: pathological program cannot pin a worker forever even without the
#: server-side timeout.
MAX_STEPS = 50_000_000


class ServiceError(Exception):
    """A request rejection with an HTTP status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message

    def body(self) -> Dict[str, Any]:
        return {"schema": SERVICE_ERROR_SCHEMA, "error": self.message}


class CompileRequest:
    """One validated ``/compile`` (or ``/tables``) request."""

    __slots__ = ("action", "source", "scheme", "kind", "implication",
                 "inputs", "engine", "optimize", "rotate_loops",
                 "verify_ir", "small", "timings", "profile", "inline")

    def __init__(self, action: str, source: str = "",
                 scheme: str = "LLS", kind: str = "PRX",
                 implication: str = "ALL",
                 inputs: Optional[Dict[str, float]] = None,
                 engine: str = "interp", optimize: bool = True,
                 rotate_loops: bool = False, verify_ir: bool = False,
                 small: bool = True, timings: bool = False,
                 profile: Any = "off", inline: bool = False) -> None:
        self.action = action
        self.source = source
        self.scheme = scheme
        self.kind = kind
        self.implication = implication
        self.inputs = dict(inputs or {})
        self.engine = engine
        self.optimize = optimize
        self.rotate_loops = rotate_loops
        self.verify_ir = verify_ir
        self.small = small
        self.timings = timings
        #: ``"off"``, ``"auto"`` (self-train in the worker), or a
        #: serialized EdgeProfile document (a JSON object) pricing the
        #: LO scheme's placement.
        self.profile = profile
        self.inline = inline

    # -- validation ----------------------------------------------------

    @classmethod
    def from_payload(cls, payload: Any) -> "CompileRequest":
        """Validate a decoded JSON body; raises :class:`ServiceError`
        (status 400) on anything malformed."""
        if not isinstance(payload, dict):
            raise ServiceError(400, "request body must be a JSON object")
        action = payload.get("action")
        if action not in ACTIONS:
            raise ServiceError(400, "unknown action %r (expected one of %s)"
                               % (action, ", ".join(ACTIONS)))
        source = payload.get("source", "")
        if action != "tables":
            if not isinstance(source, str) or not source.strip():
                raise ServiceError(400, "missing or empty 'source'")
            if len(source.encode("utf-8", "replace")) > MAX_SOURCE_BYTES:
                raise ServiceError(413, "source larger than %d bytes"
                                   % MAX_SOURCE_BYTES)
        scheme = payload.get("scheme", "LLS")
        if scheme not in Scheme.__members__:
            raise ServiceError(400, "unknown scheme %r" % (scheme,))
        kind = payload.get("kind", "PRX")
        if kind not in CheckKind.__members__:
            raise ServiceError(400, "unknown kind %r" % (kind,))
        implication = payload.get("implication", "ALL")
        if implication not in ImplicationMode.__members__:
            raise ServiceError(400, "unknown implication %r"
                               % (implication,))
        engine = payload.get("engine", "interp")
        if engine not in ENGINE_NAMES:
            raise ServiceError(400, "unknown engine %r" % (engine,))
        inputs = payload.get("inputs", {})
        if not isinstance(inputs, dict):
            raise ServiceError(400, "'inputs' must be an object")
        clean_inputs: Dict[str, float] = {}
        for name, value in inputs.items():
            if not isinstance(name, str) \
                    or not isinstance(value, (int, float)) \
                    or isinstance(value, bool):
                raise ServiceError(400, "'inputs' must map names to "
                                        "numbers")
            clean_inputs[name] = value
        flags = {}
        for flag, default in (("optimize", True), ("rotate_loops", False),
                              ("verify_ir", False), ("small", True),
                              ("timings", False), ("inline", False)):
            value = payload.get(flag, default)
            if not isinstance(value, bool):
                raise ServiceError(400, "'%s' must be a boolean" % flag)
            flags[flag] = value
        profile = payload.get("profile", "off")
        if profile is None:
            profile = "off"
        if isinstance(profile, dict):
            # cheap structural check in the server process: a torn or
            # hand-edited artifact is a 400, not a burned worker slot
            from ..errors import ProfileError
            from ..pipeline.profile import EdgeProfile

            try:
                EdgeProfile.loads(json.dumps(profile), where="<request>")
            except ProfileError as error:
                raise ServiceError(400, "invalid 'profile': %s" % error)
        elif profile not in ("off", "auto"):
            raise ServiceError(400, "'profile' must be 'off', 'auto', or "
                                    "a serialized profile object")
        if profile != "off" and scheme != "LO":
            raise ServiceError(400, "'profile' requires scheme LO "
                                    "(got %r)" % (scheme,))
        return cls(action, source, scheme, kind, implication, clean_inputs,
                   engine, flags["optimize"], flags["rotate_loops"],
                   flags["verify_ir"], flags["small"], flags["timings"],
                   profile, flags["inline"])

    def options(self) -> OptimizerOptions:
        return OptimizerOptions(scheme=Scheme[self.scheme],
                                kind=CheckKind[self.kind],
                                implication=ImplicationMode[self.implication],
                                inline=self.inline)

    def payload(self) -> Dict[str, Any]:
        """The canonical JSON-ready form (the single-flight identity)."""
        return {
            "action": self.action,
            "source": self.source,
            "scheme": self.scheme,
            "kind": self.kind,
            "implication": self.implication,
            "inputs": self.inputs,
            "engine": self.engine,
            "optimize": self.optimize,
            "rotate_loops": self.rotate_loops,
            "verify_ir": self.verify_ir,
            "small": self.small,
            "timings": self.timings,
            "profile": self.profile,
            "inline": self.inline,
        }


def request_key(request: CompileRequest) -> str:
    """Single-flight/dedup key: sha256 over the canonical payload."""
    blob = json.dumps(request.payload(), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


Envelope = Tuple[int, Dict[str, Any]]


def _error_body(message: str) -> Dict[str, Any]:
    if len(message) > 300:
        message = message[:300] + "..."
    return {"schema": SERVICE_ERROR_SCHEMA, "error": message}


def _execute_program(request: CompileRequest) -> Envelope:
    """``run``/``dump``: one source through the cached pipeline."""
    from ..pipeline.cache import shared_cache
    from ..pipeline.driver import compile_source
    from ..pipeline.profile import with_profile

    # source/kind/implication validation of a profile happens in
    # compile_source; a mismatched artifact surfaces as a 422 like
    # other semantic compile errors
    options = with_profile(request.options(), request.source,
                           request.inputs, request.profile, MAX_STEPS,
                           shared_cache())
    program = compile_source(request.source, options,
                             optimize=request.optimize,
                             rotate_loops=request.rotate_loops,
                             verify_ir=request.verify_ir,
                             cache=shared_cache())
    if request.action == "dump":
        from ..ir.printer import format_module

        return 200, {
            "schema": "repro.service.dump.v1",
            "ok": True,
            "config": request.options().label(),
            "ir": format_module(program.module),
            "frontend_cached": program.trace.frontend_was_cached(),
            "phases": phases_to_dict(program.trace),
        }
    # every engine runs on the same fuel budget: a runaway program must
    # fail fast with StepLimitError, not hold a worker until the
    # request deadline 504s
    execution = program.execute(request.inputs, request.engine,
                                max_steps=MAX_STEPS)
    return 200, execution_to_dict(request.options().label(), execution)


def _execute_tables(request: CompileRequest) -> Envelope:
    """``tables``: the full suite, rendered byte-identically to the
    ``repro tables`` CLI stdout (plus the machine-readable document)."""
    from ..benchsuite import run_suite
    from ..reporting import (TABLE3_LABELS, render_tables_text,
                             table2_labels, tables_to_dict)

    suite = run_suite(small=request.small, jobs=1)
    return 200, {
        "schema": SERVICE_TABLES_SCHEMA,
        "ok": True,
        "small": request.small,
        "text": render_tables_text(suite, timings=request.timings),
        "tables": tables_to_dict(suite, request.small, table2_labels(),
                                 TABLE3_LABELS),
        "frontend_cached": False,
        "phases": None,
    }


def execute_request(payload: Dict[str, Any]) -> Envelope:
    """The worker-pool task: payload dict in, ``(status, body)`` out.

    Never raises: compile-time diagnostics map to 422, resource
    exhaustion and unexpected exceptions to bounded 500 bodies (so a
    bad program cannot poison the pool or leak a traceback to a
    client).
    """
    try:
        request = CompileRequest.from_payload(payload)
        if request.action == "tables":
            return _execute_tables(request)
        return _execute_program(request)
    except ServiceError as error:
        return error.status, error.body()
    except ReproError as error:
        return 422, {"schema": SERVICE_ERROR_SCHEMA,
                     "error": str(error),
                     "error_type": type(error).__name__}
    except RecursionError:
        return 422, {"schema": SERVICE_ERROR_SCHEMA,
                     "error": "nesting too deep for the compiler",
                     "error_type": "RecursionError"}
    except MemoryError:
        return 500, _error_body("out of memory")
    except Exception as error:  # pragma: no cover - last resort
        return 500, _error_body("%s: %s" % (type(error).__name__, error))
