"""Regenerate the frozen corpus the benchmark replays.

The benchmark never reads ``repro.benchsuite`` or ``repro.fuzz`` at run
time: every program it sends, the inputs it sends them with, and the
reference output of each run live under ``perfbench/corpus/``.  A later
edit to the registry or to the program generator therefore cannot
silently change the traffic.  Run this script only to change the
corpus on purpose, then commit the result::

    PYTHONPATH=src python3 perfbench/build_corpus.py

References come from the reference interpreter on the *unoptimized*
program (naive checks, no check optimizer), never from an engine or a
scheme under test.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS = os.path.join(HERE, "corpus")

#: Shape of the "default" generated set: the generator's own defaults
#: (about 60 lines once the seed's draws are filtered to that size).
DEFAULT_SHAPE = {}
#: Shape of the "mid" generated set: deeper blocks and more arrays
#: (95-200 lines), where check-optimize's superlinear parts show.
MID_SHAPE = {"max_depth": 3, "max_statements": 6, "max_arrays": 4}

#: (set name, generator shape, accepted line range, programs kept, why)
GENERATED_SETS = (
    ("gen-default", DEFAULT_SHAPE, (45, 80), 6,
     "generator defaults, kept at 45-80 lines: typical fuzz-sized "
     "inputs, near the registry median compile time"),
    ("gen-mid", MID_SHAPE, (95, 200), 6,
     "max_depth=3, max_statements=6, max_arrays=4, kept at 95-200 "
     "lines: the sizes where CIG, analysis refresh, lospre and the "
     "prover grow superlinearly, so they set latency_ms.p90"),
)

REGISTRY_WHY = ("the ten Table 1 stand-ins plus the three cross-call "
                "kernels: the programs the paper's tables and the "
                "--inline extension are measured on")


def _reference(source, inputs):
    """Output and trap of the interpreter on the unoptimized program."""
    from repro import compile_source
    from repro.errors import RangeTrap
    from repro.interp.machine import Machine

    program = compile_source(source, optimize=False)
    machine = Machine(program.module, inputs)
    trap = None
    try:
        machine.run()
    except RangeTrap as error:
        trap = str(error)
    return {"output": list(machine.output), "trap": trap}


def _write(relpath, text):
    path = os.path.join(CORPUS, relpath)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        handle.write(text)


def build():
    from repro.benchsuite.registry import all_programs, cross_call_programs
    from repro.fuzz.generator import GeneratorConfig, generate_program

    programs = []
    for program in all_programs() + cross_call_programs():
        relpath = "registry/%s.f" % program.name
        _write(relpath, program.source)
        programs.append({
            "name": program.name,
            "set": "registry",
            "file": relpath,
            "inputs": {"test": program.test_inputs,
                       "large": program.large_inputs},
            "reference": {
                "test": _reference(program.source, program.test_inputs),
                "large": _reference(program.source, program.large_inputs),
            },
        })
    sets = {"registry": {"why": REGISTRY_WHY}}
    for set_name, shape, (low, high), keep, why in GENERATED_SETS:
        config = GeneratorConfig(**shape)
        seeds = []
        seed = 0
        while len(seeds) < keep:
            source = generate_program(seed, config)
            if low <= len(source.splitlines()) <= high:
                seeds.append(seed)
                name = "%s-%d" % (set_name, seed)
                relpath = "generated/%s.f" % name
                _write(relpath, source)
                programs.append({"name": name, "set": set_name,
                                 "file": relpath, "inputs": {"test": {}},
                                 "reference": {}})
            seed += 1
        sets[set_name] = {"why": why, "generator": shape,
                          "lines": [low, high], "seeds": seeds}
    manifest = {"schema": "perfbench.corpus.v1", "sets": sets,
                "programs": programs}
    _write("manifest.json", json.dumps(manifest, indent=1, sort_keys=True)
           + "\n")
    return manifest


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    result = build()
    print("wrote %d programs to %s" % (len(result["programs"]), CORPUS))
