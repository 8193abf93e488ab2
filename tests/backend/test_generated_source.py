"""The generated back-end source, locked: both engines on the registry.

Each cell compiles one program through ``compile_source`` and
fingerprints ``translate(module, engine).source`` by its sha256.  The
golden under ``golden/generated_source.json`` covers the ten registry
programs, the three cross-call kernels and the fuzz generator's
program for seed 10, each under PRX-LLS, INX-ALL, PRX-SPEC and
INX-LLS+inl on the threaded (``compiled``) and the ``specialized``
engine.  Seed 10's main program has a loop with two exit targets, so
the specialized engine emits it with the threaded emitter and the
module keeps list-backed storage.

The source is part of the back-ends' cache contract: a change to it
needs an ``ENGINE_VERSION`` or ``SPECIALIZED_ENGINE_VERSION`` bump.  If
the change is intended, regenerate the golden deliberately with
``PYTHONPATH=src python -m tests.backend.test_generated_source``.
"""

import hashlib
import json
import os

import pytest

from repro.benchsuite.registry import (BenchmarkProgram, all_programs,
                                      cross_call_programs)
from repro.checks.config import CheckKind, OptimizerOptions, Scheme
from repro.fuzz.generator import generate_program
from repro.pipeline.cache import FrontendCache
from repro.pipeline.driver import compile_source, translate

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "generated_source.json")

CONFIGS = (OptimizerOptions(Scheme.LLS, CheckKind.PRX),
           OptimizerOptions(Scheme.ALL, CheckKind.INX),
           OptimizerOptions(Scheme.SPEC, CheckKind.PRX),
           OptimizerOptions(Scheme.LLS, CheckKind.INX, inline=True))

ENGINES = ("compiled", "specialized")


def programs():
    return all_programs() + cross_call_programs() + [
        BenchmarkProgram("gen10", "fuzz", generate_program(10), {})]


def compute_sources():
    """``"<program> <label> <engine>"`` -> sha256 of the source."""
    cache = FrontendCache()
    digests = {}
    for program in programs():
        for options in CONFIGS:
            module = compile_source(program.source, options,
                                    cache=cache).module
            for engine in ENGINES:
                source = translate(module, engine).source
                digests["%s %s %s" % (program.name, options.label(),
                                      engine)] = \
                    hashlib.sha256(source.encode("utf-8")).hexdigest()
    return digests


def write_golden(digests) -> None:
    lines = ["  %s: %s" % (json.dumps(key), json.dumps(value))
             for key, value in digests.items()]
    with open(GOLDEN, "w") as handle:
        handle.write("{\n" + ",\n".join(lines) + "\n}\n")


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as handle:
        return json.load(handle)


class TestGeneratedSource:
    def test_golden_covers_every_cell(self, golden):
        assert len(golden) == len(programs()) * len(CONFIGS) * \
            len(ENGINES) == 112

    def test_sources_match_golden(self, golden):
        digests = compute_sources()
        changed = sorted(key for key in golden
                         if digests.get(key) != golden[key])
        assert sorted(digests) == sorted(golden)
        assert not changed, "%d changed, first %s" % (len(changed),
                                                      changed[0])


if __name__ == "__main__":
    write_golden(compute_sources())
    print("wrote %s" % GOLDEN)
