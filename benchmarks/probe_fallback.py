"""How often the specialized engine falls back to the threaded emitter.

The specialized back-end emits each function as flat Python with
structured control flow.  A function whose CFG the structurer cannot
rebuild is emitted by the threaded emitter instead, inside the same
module, and nothing records it.  This probe repeats the engine's
per-function translation step on every function of every program in
``perfbench/corpus`` and ``tests/fuzz_corpus``, under every scheme x
check kind x inline setting, and counts the fallbacks by program and
reason.  It changes no engine code.

Run from the repository root::

    PYTHONPATH=src python benchmarks/probe_fallback.py
"""

from __future__ import annotations

import glob
import json
import os
import pickle
import re
from collections import Counter

from repro.backend.specialized import _FlatEmitter, _plan_loops, _Unsupported
from repro.checks.config import CheckKind, OptimizerOptions, Scheme
from repro.pipeline.cache import FrontendCache
from repro.pipeline.driver import compile_source
from repro.ssa import destruct_ssa

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def corpus():
    """(set, name, source) for every probed program."""
    manifest = os.path.join(ROOT, "perfbench", "corpus", "manifest.json")
    with open(manifest) as handle:
        entries = json.load(handle)["programs"]
    for entry in entries:
        path = os.path.join(ROOT, "perfbench", "corpus", entry["file"])
        with open(path) as handle:
            yield entry["set"], entry["name"], handle.read()
    for path in sorted(glob.glob(os.path.join(ROOT, "tests", "fuzz_corpus",
                                              "*.f"))):
        with open(path) as handle:
            yield "fuzz-corpus", os.path.basename(path)[:-2], handle.read()


def fallbacks(module):
    """(function name, reason) for each function the structurer
    rejects, translating a private clone as the engine does."""
    module = pickle.loads(pickle.dumps(module))
    found = []
    for function in module:
        plans = {}
        if any(block.phis() for block in function.blocks):
            plans = _plan_loops(function)
            destruct_ssa(function)
        try:
            text = _FlatEmitter(module, function, plans).emit()
            compile(text, "<probe>", "exec")
        except (_Unsupported, SyntaxError) as error:
            found.append((function.name, str(error)))
    return found


def main() -> None:
    cache = FrontendCache()
    total = fell = 0
    by_program = Counter()
    by_reason = Counter()
    configs = [OptimizerOptions(scheme, kind, inline=inline)
               for scheme in Scheme for kind in CheckKind
               for inline in (False, True)]
    programs = list(corpus())
    for corpus_set, name, source in programs:
        for options in configs:
            module = compile_source(source, options, cache=cache).module
            total += len(module.functions)
            for _, reason in fallbacks(module):
                fell += 1
                by_program["%s/%s" % (corpus_set, name)] += 1
                by_reason[re.sub(r"\d+", "N", reason)] += 1
    print("%d programs x %d configurations: %d of %d function "
          "translations fell back (%.1f%%)"
          % (len(programs), len(configs), fell, total,
             100.0 * fell / total if total else 0.0))
    for program, count in sorted(by_program.items()):
        print("  %-32s %4d" % (program, count))
    for reason, count in by_reason.most_common():
        print("  reason %-40s %4d" % (reason, count))


if __name__ == "__main__":
    main()
