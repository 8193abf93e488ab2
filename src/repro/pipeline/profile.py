"""Edge-execution profiles: the lospre training artifact.

``repro run --profile-out`` serializes the per-edge execution counts
collected by the interpreter into a small JSON document; ``--profile``
feeds it back into the check optimizer, where
:mod:`repro.checks.lospre` uses the counts as the cost function of its
min-cut placement (``Scheme.LO``).  Every caller that compiles under LO
attaches its profile through :func:`with_profile`.

The artifact is **seeded-stable**: counts come from a deterministic
interpreter run, keys are sorted on serialization, and the document
carries a sha256 ``fingerprint`` of its canonical payload, so the same
seed and program always produce a byte-identical file and any torn or
hand-edited artifact is a clean :class:`~repro.errors.ProfileError`,
never silently-wrong edge counts.  Writes go through the artifact
store's atomic publish (:func:`~repro.pipeline.cache.atomic_write`), so
concurrent ``--jobs`` runners never publish a partial file.

A profile is bound to the program and configuration it was trained
under: ``source_sha256`` pins the source text, ``kind``/``implication``
pin the optimizer axes (block names downstream of the preheader pass
depend on them).  The training *scheme* is recorded for reporting but
not enforced -- training under LLS matches the CFG that LO's residual
min-cut actually sees, and :func:`train_profile` does exactly that.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Mapping, Optional, Tuple, Union

from ..errors import InterpError, ProfileError

Number = Union[int, float]

#: Schema identifier of the serialized artifact.
PROFILE_SCHEMA = "repro.profile.v1"

#: Separator in serialized edge keys: ``"src->dst"`` (block names never
#: contain ``>``); the entry pseudo-edge serializes as ``"->entry"``.
_EDGE_SEP = "->"


def source_digest(source: str) -> str:
    """The sha256 hex digest binding a profile to its program text."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


class EdgeProfile:
    """Per-edge execution counts for one program under one config."""

    __slots__ = ("source_sha256", "kind", "implication", "scheme",
                 "functions", "_fingerprint")

    def __init__(self, source_sha256: str,
                 functions: Dict[str, Dict[Tuple[str, str], int]],
                 kind: str = "PRX", implication: str = "all",
                 scheme: str = "LLS") -> None:
        self.source_sha256 = source_sha256
        self.kind = kind
        self.implication = implication
        self.scheme = scheme
        #: function name -> {(src block, dst block): count}; the
        #: function-entry pseudo-edge uses ``""`` as its src.
        self.functions = {
            fn: {edge: int(count) for edge, count in edges.items()}
            for fn, edges in functions.items()}
        self._fingerprint: Optional[str] = None

    # -- queries -------------------------------------------------------

    def weight(self, function: str, src: str, dst: str) -> Optional[int]:
        """The recorded count of one edge, or None if never seen."""
        edges = self.functions.get(function)
        if edges is None:
            return None
        return edges.get((src, dst))

    def total_weight(self) -> int:
        """Sum of every edge count (the unknown-edge fallback scale)."""
        return sum(count for edges in self.functions.values()
                   for count in edges.values())

    # -- canonical form ------------------------------------------------

    def payload(self) -> Dict[str, object]:
        """The canonical dict the fingerprint covers."""
        functions = {}
        for fn in sorted(self.functions):
            functions[fn] = {
                "%s%s%s" % (src, _EDGE_SEP, dst): self.functions[fn][
                    (src, dst)]
                for src, dst in sorted(self.functions[fn])}
        return {
            "schema": PROFILE_SCHEMA,
            "source_sha256": self.source_sha256,
            "kind": self.kind,
            "implication": self.implication,
            "scheme": self.scheme,
            "functions": functions,
        }

    @property
    def fingerprint(self) -> str:
        """sha256 of the canonical payload; part of cache keys."""
        if self._fingerprint is None:
            canonical = json.dumps(self.payload(), sort_keys=True,
                                   separators=(",", ":"))
            self._fingerprint = hashlib.sha256(
                canonical.encode("utf-8")).hexdigest()
        return self._fingerprint

    def dumps(self) -> str:
        """The serialized artifact (stable byte-for-byte)."""
        doc = self.payload()
        doc["fingerprint"] = self.fingerprint
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    # -- persistence ---------------------------------------------------

    def write(self, path: str) -> None:
        """Publish the artifact atomically (pid+tid temp + rename).

        Concurrent ``--jobs`` runners writing the same path each rename
        their own temp file; readers observe either nothing or one
        complete artifact, and the fingerprint turns any other torn
        state into a clean load error.  Raises ``OSError`` on failure.
        """
        from .cache import atomic_write

        atomic_write(path, self.dumps().encode("utf-8"))

    @classmethod
    def loads(cls, text: str, where: str = "<profile>") -> "EdgeProfile":
        """Parse and verify one serialized artifact."""
        try:
            doc = json.loads(text)
        except ValueError as exc:
            raise ProfileError("profile %s is not valid JSON (%s)"
                               % (where, exc)) from None
        if not isinstance(doc, dict) or doc.get("schema") != PROFILE_SCHEMA:
            raise ProfileError("profile %s has schema %r, expected %r"
                               % (where, doc.get("schema")
                                  if isinstance(doc, dict) else None,
                                  PROFILE_SCHEMA))
        functions_doc = doc.get("functions")
        if not isinstance(functions_doc, dict):
            raise ProfileError("profile %s has no functions table" % where)
        functions: Dict[str, Dict[Tuple[str, str], int]] = {}
        for fn, edges_doc in functions_doc.items():
            if not isinstance(edges_doc, dict):
                raise ProfileError("profile %s: function %r edge table "
                                   "is not an object" % (where, fn))
            edges: Dict[Tuple[str, str], int] = {}
            for key, count in edges_doc.items():
                src, sep, dst = str(key).partition(_EDGE_SEP)
                if not sep or not dst or not isinstance(count, int) \
                        or count < 0:
                    raise ProfileError(
                        "profile %s: malformed edge entry %r: %r"
                        % (where, key, count))
                edges[(src, dst)] = count
            functions[fn] = edges
        profile = cls(str(doc.get("source_sha256", "")), functions,
                      kind=str(doc.get("kind", "PRX")),
                      implication=str(doc.get("implication", "all")),
                      scheme=str(doc.get("scheme", "LLS")))
        recorded = doc.get("fingerprint")
        if recorded != profile.fingerprint:
            raise ProfileError(
                "profile %s fingerprint mismatch (recorded %s, computed "
                "%s): the artifact is torn or was edited" %
                (where, str(recorded)[:16], profile.fingerprint[:16]))
        return profile

    @classmethod
    def load(cls, path: str) -> "EdgeProfile":
        """Read one artifact from disk; every failure mode is a
        :class:`~repro.errors.ProfileError`."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ProfileError("cannot read profile %s: %s"
                               % (path, exc)) from None
        return cls.loads(text, where=path)

    # -- validation ----------------------------------------------------

    def validate_for(self, source: str, kind: str,
                     implication: str) -> None:
        """Raise unless this profile applies to ``source`` compiled
        under the given check kind and implication mode."""
        digest = source_digest(source)
        if self.source_sha256 != digest:
            raise ProfileError(
                "profile was collected for a different program "
                "(source sha %s..., expected %s...)"
                % (self.source_sha256[:12], digest[:12]))
        if self.kind != kind or self.implication != implication:
            raise ProfileError(
                "profile was trained under %s/%s but the compile uses "
                "%s/%s" % (self.kind, self.implication, kind, implication))

    def __repr__(self) -> str:
        return "EdgeProfile(%s, %d functions, fingerprint %s...)" % (
            self.source_sha256[:12], len(self.functions),
            self.fingerprint[:12])


def profile_from_counters(source: str, counters,
                          kind: str = "PRX", implication: str = "all",
                          scheme: str = "LLS") -> EdgeProfile:
    """Build an artifact from one edge-collecting run's counters."""
    if counters.edges is None:
        raise ProfileError("the run did not collect edge counts "
                           "(collect_edges was off)")
    return EdgeProfile(source_digest(source), counters.edges_by_function(),
                       kind=kind, implication=implication, scheme=scheme)


def train_profile(source: str, options=None,
                  inputs: Optional[Mapping[str, Number]] = None,
                  max_steps: int = 50_000_000,
                  cache=None) -> EdgeProfile:
    """Collect a training profile for ``source``.

    Compiles under the LLS scheme with the caller's kind/implication
    axes (the CFG that ``Scheme.LO``'s residual min-cut sees is the
    LLS-preheader CFG) and interprets with edge collection.  A trap or
    step-limit abort keeps the partial counts: they are the observed
    behaviour and still train a valid profile.
    """
    from ..checks.config import OptimizerOptions, Scheme
    from ..interp.machine import Machine
    from .driver import compile_source

    options = options or OptimizerOptions()
    # inline rides along: under +inl the CFG the residual min-cut sees
    # (and its block names) is the inlined one
    train_options = OptimizerOptions(Scheme.LLS, options.kind,
                                     options.implication,
                                     inline=getattr(options, "inline",
                                                    False))
    program = compile_source(source, train_options, cache=cache)
    machine = Machine(program.module, inputs, max_steps,
                      collect_edges=True)
    try:
        machine.run()
    except InterpError:
        pass  # traps/limits still yield the observed edge counts
    return profile_from_counters(source, machine.counters,
                                 kind=options.kind.value,
                                 implication=options.implication.value,
                                 scheme=Scheme.LLS.value)


def with_profile(options, source: str,
                 inputs: Optional[Mapping[str, Number]] = None,
                 spec: Union[str, dict, None] = "auto",
                 max_steps: int = 50_000_000,
                 cache=None):
    """``options`` with the edge profile ``Scheme.LO`` places by.

    ``spec`` is ``"auto"`` (train one now with :func:`train_profile`
    on ``inputs``), ``"off"``, a path to a serialized artifact, or a
    profile document (a dict, as the compile service receives it).
    Options for another scheme, options that already carry a profile,
    and ``"off"`` come back unchanged.  Otherwise the result is a copy
    (every axis kept, ``inline`` too): one options object is often
    shared across programs, and a profile belongs to one program.
    """
    from ..checks.config import OptimizerOptions, Scheme

    if (options.scheme is not Scheme.LO or options.profile is not None
            or spec in (None, "", "off")):
        return options
    if spec == "auto":
        profile = train_profile(source, options, inputs,
                                max_steps=max_steps, cache=cache)
    elif isinstance(spec, dict):
        profile = EdgeProfile.loads(json.dumps(spec))
    else:
        profile = EdgeProfile.load(spec)
    return OptimizerOptions(options.scheme, options.kind,
                            options.implication, profile=profile,
                            inline=options.inline)
