"""The scheme matrix, locked: optimized IR and stats for every scheme.

Each configuration compiles one benchmark program through
``compile_source`` and is fingerprinted by the sha256 of its printed
optimized module, every module-total ``OptimizeStats`` counter and the
trap reports in order.  The golden under ``golden/scheme_matrix.json``
covers:

* the ten registry programs x every ``Scheme`` x both check kinds,
  under full implication;
* Table 3's primed ablations NI', SE' and LLS' on the same programs;
* the three cross-call kernels x every ``Scheme`` x both kinds, with
  and without ``inline``;
* the fuzz generator's programs for seeds 1-6 x every ``Scheme`` and
  NI', SE', LLS' x both kinds.  Their loops have non-unit and negative
  steps (``do i = 0, n, 2``), so they reach the preheader arithmetic
  for a loop's last index and trip count that the step-1 loops above
  never need;
* the same generated programs x CS, SE, LLS, ALL and SPEC x both kinds
  with ``inline``, which turns on the prover tier of the elimination
  pass and, under CS, the cross-family choice of the strongest
  implier.

``LO`` is trained on each program's test inputs (none for the
generated programs).  A mismatch means the
optimizer's output changed; if the change is intended, regenerate the
golden deliberately with ``PYTHONPATH=src python -m
tests.checks.test_scheme_matrix``.
"""

import hashlib
import json
import os

import pytest

from repro.benchsuite.registry import (BenchmarkProgram, all_programs,
                                      cross_call_programs)
from repro.checks.config import (CheckKind, ImplicationMode, OptimizerOptions,
                                 Scheme)
from repro.checks.optimizer import RangeCheckOptimizer
from repro.fuzz.generator import generate_program
from repro.ir.printer import format_module
from repro.pipeline.cache import FrontendCache
from repro.pipeline.driver import compile_source
from repro.pipeline.profile import train_profile

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "scheme_matrix.json")

PRIMES = ((Scheme.NI, ImplicationMode.NONE),
          (Scheme.SE, ImplicationMode.NONE),
          (Scheme.LLS, ImplicationMode.CROSS_FAMILY))

GENERATOR_SEEDS = range(1, 7)

INLINE_SCHEMES = (Scheme.CS, Scheme.SE, Scheme.LLS, Scheme.ALL, Scheme.SPEC)


def configurations():
    """(program, options) pairs of the matrix, in a fixed order."""
    for program in all_programs():
        for kind in CheckKind:
            for scheme in Scheme:
                yield program, OptimizerOptions(scheme, kind)
            for scheme, mode in PRIMES:
                yield program, OptimizerOptions(scheme, kind, mode)
    for program in cross_call_programs():
        for inline in (False, True):
            for kind in CheckKind:
                for scheme in Scheme:
                    yield program, OptimizerOptions(scheme, kind,
                                                    inline=inline)
    for seed in GENERATOR_SEEDS:
        program = BenchmarkProgram("gen%d" % seed, "fuzz",
                                   generate_program(seed), {})
        for kind in CheckKind:
            for scheme in Scheme:
                yield program, OptimizerOptions(scheme, kind)
            for scheme, mode in PRIMES:
                yield program, OptimizerOptions(scheme, kind, mode)
            for scheme in INLINE_SCHEMES:
                yield program, OptimizerOptions(scheme, kind, inline=True)


def fingerprint(program, options, cache):
    """The golden record of one configuration."""
    if options.scheme is Scheme.LO:
        profile = train_profile(program.source, options,
                                program.test_inputs, cache=cache)
        options = OptimizerOptions(options.scheme, options.kind,
                                   options.implication, profile=profile,
                                   inline=options.inline)
    compiled = compile_source(program.source, options, cache=cache)
    stats = vars(compiled.total_stats()).copy()
    del stats["function"]
    ir = format_module(compiled.module).encode("utf-8")
    return dict(stats, ir_sha256=hashlib.sha256(ir).hexdigest())


def compute_matrix():
    cache = FrontendCache()
    return {"%s %s" % (program.name, options.label()):
            fingerprint(program, options, cache)
            for program, options in configurations()}


def write_golden(matrix) -> None:
    lines = ["  %s: %s" % (json.dumps(key), json.dumps(value,
                                                          sort_keys=True))
             for key, value in matrix.items()]
    with open(GOLDEN, "w") as handle:
        handle.write("{\n" + ",\n".join(lines) + "\n}\n")


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as handle:
        return json.load(handle)


class TestSchemeMatrix:
    def test_golden_covers_the_matrix(self, golden):
        keys = ["%s %s" % (program.name, options.label())
                for program, options in configurations()]
        assert len(keys) == len(set(keys)) == 640
        assert sorted(golden) == sorted(keys)

    def test_matrix_matches_golden(self, golden):
        matrix = compute_matrix()
        changed = sorted(key for key in golden
                         if matrix.get(key) != golden[key])
        assert not changed, "%d changed, first %s: %r != %r" % (
            len(changed), changed[0], matrix.get(changed[0]),
            golden[changed[0]])


class TestStepTable:
    def test_one_row_per_scheme(self):
        steps = RangeCheckOptimizer.SCHEME_STEPS
        assert len(steps) == len(Scheme)
        assert set(steps) == set(Scheme)

    @pytest.mark.parametrize("kind,scheme,refreshes", [
        (CheckKind.PRX, Scheme.NI, 0), (CheckKind.INX, Scheme.NI, 1),
        (CheckKind.PRX, Scheme.LLS, 1), (CheckKind.INX, Scheme.ALL, 3),
        (CheckKind.PRX, Scheme.SPEC, 2), (CheckKind.INX, Scheme.LO, 3)])
    def test_analyses_refresh_once_per_step(self, monkeypatch, kind, scheme,
                                            refreshes):
        calls = []
        original = RangeCheckOptimizer._refresh_analyses

        def counting(self):
            calls.append(self)
            original(self)

        monkeypatch.setattr(RangeCheckOptimizer, "_refresh_analyses",
                            counting)
        program = all_programs()[0]
        compiled = compile_source(program.source,
                                  OptimizerOptions(scheme, kind))
        assert len(calls) == refreshes * len(compiled.optimize_stats)


if __name__ == "__main__":
    write_golden(compute_matrix())
    print("wrote %s" % GOLDEN)
