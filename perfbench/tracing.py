"""Per-layer spans for the traced benchmark run.

The program under test is not edited.  Instead :class:`Tracer` wraps
each layer's public functions where they are imported: every module of
the ``repro`` package that holds a reference to a target function gets
the wrapper, and target classes get a wrapped ``__init__`` or method.
The wrappers are installed around a traced op and removed after it,
so untraced ops run the original code.

A span records its name, start, end and parent span; spans stay in
memory until the run ends.  A layer's self time is its span's duration
minus the time its direct child spans cover, so the self times of one
op add up to the op's duration.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from typing import Callable, Dict, List

#: (module, attribute, span name) for plain functions.
FUNCTIONS = (
    ("repro.frontend.parser", "parse_source", "frontend.parse"),
    ("repro.ir.lowering", "lower_source_file", "ir.lower"),
    ("repro.checks.inline", "inline_module", "checks.inline"),
    ("repro.ssa.construct", "construct_ssa", "ssa.construct"),
    ("repro.checks.optimizer", "optimize_module", "checks.optimize"),
    ("repro.analysis.affine", "compute_affine_forms", "analysis.affine"),
    ("repro.checks.family", "universe_from_function", "checks.family"),
    ("repro.checks.lcm", "safe_earliest_insertions", "checks.lcm"),
    ("repro.checks.lcm", "latest_insertions", "checks.lcm"),
    ("repro.checks.lcm", "apply_insertions", "checks.lcm"),
    ("repro.checks.lospre", "lospre_insertions", "checks.lospre"),
    ("repro.checks.strengthen", "strengthen_checks", "checks.strengthen"),
    ("repro.checks.valuerange", "eliminate_by_value_range",
     "checks.valuerange"),
    ("repro.checks.eliminate", "eliminate_redundant", "checks.eliminate"),
    ("repro.symbolic.prover", "entails", "symbolic.prover"),
    ("repro.checks.eliminate", "fold_compile_time", "checks.fold"),
    ("repro.ir.verify", "verify_function", "ir.verify"),
    ("repro.ssa.destruct", "destruct_ssa", "ssa.destruct"),
    ("repro.backend.pybackend", "compile_to_python",
     "backend.threaded.translate"),
    ("repro.backend.specialized", "compile_to_specialized",
     "backend.specialized.translate"),
)

#: (module, class, method, span name) for methods and constructors.
METHODS = (
    ("repro.pipeline.cache", "FrontendCache", "frontend", "cache.frontend"),
    ("repro.pipeline.cache", "BackendCache", "compiled", "cache.backend"),
    ("repro.analysis.dominance", "DominatorTree", "__init__",
     "analysis.dominance"),
    ("repro.analysis.loops", "LoopForest", "__init__", "analysis.loops"),
    ("repro.induction.analysis", "InductionAnalysis", "__init__",
     "induction.analysis"),
    ("repro.checks.cig", "CheckImplicationGraph", "__init__", "checks.cig"),
    ("repro.checks.dataflow", "CheckAnalysis", "__init__",
     "checks.dataflow"),
    ("repro.checks.dataflow", "CheckAnalysis", "availability",
     "checks.dataflow"),
    ("repro.checks.dataflow", "CheckAnalysis", "anticipatability",
     "checks.dataflow"),
    ("repro.checks.preheader", "PreheaderInserter", "run",
     "checks.preheader"),
    ("repro.checks.markstein", "MarksteinInserter", "run",
     "checks.markstein"),
    ("repro.checks.spec", "SpeculativeVersioner", "run", "checks.spec"),
    ("repro.pipeline.driver", "CompiledProgram", "run", "execute.interp"),
    # the specialized module inherits ``run``; see ``_engine_span``
    ("repro.backend.pybackend", "CompiledPythonModule", "run",
     "execute.threaded"),
)

#: Every span name a traced op can record (the op's own span is ROOT).
LAYERS = tuple(dict.fromkeys(
    [name for _, _, name in FUNCTIONS]
    + [name for _, _, _, name in METHODS] + ["execute.specialized"]))
ROOT = "op"


def _engine_span(module) -> str:
    from repro.backend.specialized import CompiledSpecializedModule

    if isinstance(module, CompiledSpecializedModule):
        return "execute.specialized"
    return "execute.threaded"


class Tracer:
    """Records nested spans while installed; see the module docstring."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index]`` per span, in start order
        self.spans: List[list] = []
        #: result-derived counts (``ir.size``, prover verdicts, ...)
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._patches: List[tuple] = []
        self._result_hooks: Dict[str, Callable] = {
            "ir.lower": self._count_ir_size,
            "symbolic.prover": self._count_proved,
            "checks.optimize": self._count_functions,
        }
        # import every target first, so each module that binds a target
        # by name is loaded before the scan for references
        for target in FUNCTIONS + METHODS:
            importlib.import_module(target[0])
        for module_name, attr, name in FUNCTIONS:
            self._patch_function(module_name, attr, name)
        for module_name, cls_name, attr, name in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original,
                                  self._wrap(original, name)))

    # -- wrapping ------------------------------------------------------

    def _patch_function(self, module_name: str, attr: str,
                        name: str) -> None:
        original = getattr(importlib.import_module(module_name), attr)
        wrapper = self._wrap(original, name)
        for module_key, module in list(sys.modules.items()):
            if module is None or not (module_key == "repro"
                                      or module_key.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, original, wrapper))

    def _wrap(self, fn: Callable, name: str) -> Callable:
        spans, stack = self.spans, self._stack
        hook = self._result_hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            label = name
            if name == "execute.threaded":
                label = _engine_span(args[0])
            spans.append([label, time.perf_counter(), None,
                          stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
            if hook is not None:
                hook(result)
            return result

        return traced

    def _count_ir_size(self, module) -> None:
        self.counts["ir.size"] += sum(
            1 for function in module for _ in function.instructions())

    def _count_proved(self, verdict) -> None:
        self.counts["symbolic.prover.proved"] += bool(verdict)

    def _count_functions(self, stats) -> None:
        self.counts["checks.optimize.functions"] += len(stats)

    # -- one traced op -------------------------------------------------

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def traced_call(self, fn: Callable, *args):
        """Run ``fn(*args)`` under a root span with the wrappers in."""
        self.install()
        try:
            return self._wrap(fn, ROOT)(*args)
        finally:
            self.uninstall()

    # -- aggregation ---------------------------------------------------

    def summary(self) -> Dict[str, float]:
        """Self seconds per span name, call counts, and derived counts.

        Keys: ``<name>.self_s`` and ``<name>.calls`` for every span
        name seen, ``analysis.refresh.calls`` (affine-form computations
        made under check-optimize) and the result-derived counts.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, float] = {}
        for index, (name, start, end, parent) in enumerate(self.spans):
            key = name + ".self_s"
            out[key] = out.get(key, 0.0) + (end - start) - child_time[index]
            key = name + ".calls"
            out[key] = out.get(key, 0) + 1
        refresh = 0
        for name, _, _, parent in self.spans:
            if name == "analysis.affine" and self._under(parent,
                                                         "checks.optimize"):
                refresh += 1
        out["analysis.refresh.calls"] = refresh
        out.update(self.counts)
        return out

    def _under(self, index: int, name: str) -> bool:
        while index >= 0:
            if self.spans[index][0] == name:
                return True
            index = self.spans[index][3]
        return False

    def root_seconds(self) -> List[float]:
        return [end - start for name, start, end, _ in self.spans
                if name == ROOT]

