"""How often the specialized engine falls back to the threaded emitter.

The specialized back-end emits each function as flat Python with
structured control flow.  A function whose CFG the structurer cannot
rebuild is emitted by the threaded emitter instead, inside the same
module, and nothing records it.  This probe runs the engine's two
translation steps -- each function's emission, then one compile of
the module -- on every program in ``perfbench/corpus`` and
``tests/fuzz_corpus``, under every scheme x check kind x inline
setting, and counts the fallbacks by program and reason.  It changes
no engine code.

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

from repro.backend.specialized import _emit_function, _link
from repro.checks.config import CheckKind, OptimizerOptions, Scheme
from repro.pipeline.cache import FrontendCache
from repro.pipeline.driver import compile_source

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
    """(function name, reason) for each function emitted threaded,
    translating a private clone as the engine does."""
    module = pickle.loads(pickle.dumps(module))
    emitted = [_emit_function(module, function) for function in module]
    _link(module, emitted)
    return [(function.name, reason)
            for function, (_, reason) in zip(module, emitted)
            if reason is not None]


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
