"""Fuzzing campaigns: generate, check, shrink, persist.

A campaign runs ``count`` seeds starting at ``seed``.  Each seed is
independent -- generate the program, hand it to the
:class:`~repro.fuzz.oracle.Oracle` -- so the campaign fans out over a
process pool through the benchmark suite's
:func:`~repro.benchsuite.parallel.run_pooled` (module-level task,
deterministic collection order, serial fallback when the pool breaks).

Failures are minimized by the greedy shrinker (against the *failing
configuration only*, which makes shrinking cheap) and persisted to a
corpus directory as self-describing ``.f`` files:

    ! fuzz-corpus entry
    ! seed: 17
    ! kind: safety
    ! config: PRX-LLS
    ! detail: <first line>
    program fuzz
    ...

The header is comment syntax, so a corpus entry is a runnable program;
``tests/checks/test_fuzz_corpus.py`` replays every entry through the
full oracle as a regression test.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional

from ..benchsuite.parallel import run_pooled
from .generator import GeneratorConfig, generate_program
from .oracle import Oracle, FuzzFailure, config_by_label
from .shrink import make_predicate, shrink


class CampaignResult:
    """What one fuzzing campaign found."""

    def __init__(self) -> None:
        self.programs = 0
        self.failures: List[FuzzFailure] = []
        #: seeds whose program hit a resource limit and were skipped
        self.skipped = 0
        self.parallel = False

    @property
    def ok(self) -> bool:
        return not self.failures


def _resolve_configs(config_labels: Optional[List[str]]):
    if not config_labels:
        return None
    table = config_by_label()
    configs = []
    for label in config_labels:
        if label not in table:
            raise ValueError(
                "unknown configuration %r (expected one of %s)"
                % (label, ", ".join(sorted(table))))
        configs.append(table[label])
    return configs


def fuzz_one(seed: int, config_labels: Optional[List[str]] = None,
             engines: bool = True, faults_spec: Optional[str] = None,
             cache_dir: Optional[str] = None
             ) -> Optional[Dict[str, object]]:
    """Process-pool task: one seed through the oracle.

    Returns ``None`` on success or the failure as a plain dict (plain
    so it pickles without dragging module state across processes).
    """
    source = generate_program(seed)
    oracle = Oracle(configs=_resolve_configs(config_labels),
                    engines=engines, cache_dir=cache_dir,
                    faults_spec=faults_spec)
    failure = oracle.check(source, seed=seed)
    if failure is None:
        return None
    return {"kind": failure.kind, "seed": failure.seed,
            "source": failure.source, "config": failure.config,
            "detail": failure.detail}


def _revive(payload: Dict[str, object]) -> FuzzFailure:
    return FuzzFailure(payload["kind"], payload["seed"],
                       payload["source"], payload["config"],
                       payload["detail"])


def shrink_failure(failure: FuzzFailure,
                   engines: bool = True) -> FuzzFailure:
    """Minimize a failure against its failing configuration only."""
    table = config_by_label()
    if failure.config in table:
        configs = [table[failure.config]]
    else:  # a baseline failure: no optimizer configs needed
        configs = []
    oracle = Oracle(configs=configs, engines=engines)
    predicate = make_predicate(oracle, failure.kind, failure.config,
                               failure.seed)
    small = shrink(failure.source, predicate)
    return FuzzFailure(failure.kind, failure.seed, small,
                       failure.config, failure.detail)


def corpus_filename(failure: FuzzFailure) -> str:
    config = failure.config.strip("<>").replace("'", "p").lower()
    return "%s_%s_seed%s.f" % (failure.kind, config, failure.seed)


def write_corpus_entry(corpus_dir: str, failure: FuzzFailure) -> str:
    """Persist one (ideally shrunken) failure; returns the path."""
    os.makedirs(corpus_dir, exist_ok=True)
    path = os.path.join(corpus_dir, corpus_filename(failure))
    first_detail = failure.detail.splitlines()[0] if failure.detail else ""
    header = ["! fuzz-corpus entry",
              "! seed: %s" % failure.seed,
              "! kind: %s" % failure.kind,
              "! config: %s" % failure.config,
              "! detail: %s" % first_detail]
    with open(path, "w") as handle:
        handle.write("\n".join(header) + "\n")
        handle.write(failure.source)
        if not failure.source.endswith("\n"):
            handle.write("\n")
    return path


def read_corpus(corpus_dir: str) -> List[Dict[str, str]]:
    """Every corpus entry: {path, source, seed, kind, config}."""
    entries: List[Dict[str, str]] = []
    if not os.path.isdir(corpus_dir):
        return entries
    for name in sorted(os.listdir(corpus_dir)):
        if not name.endswith(".f"):
            continue
        path = os.path.join(corpus_dir, name)
        with open(path) as handle:
            source = handle.read()
        entry = {"path": path, "source": source,
                 "seed": "", "kind": "", "config": ""}
        for line in source.splitlines():
            match = line.strip()
            if not match.startswith("!"):
                break
            for key in ("seed", "kind", "config"):
                prefix = "! %s:" % key
                if match.startswith(prefix):
                    entry[key] = match[len(prefix):].strip()
        entries.append(entry)
    return entries


def run_campaign(count: int, seed: int = 0, jobs: int = 1,
                 config_labels: Optional[List[str]] = None,
                 engines: bool = True,
                 corpus_dir: Optional[str] = None,
                 shrink_failures: bool = True,
                 max_failures: int = 10,
                 faults_spec: Optional[str] = None,
                 cache_dir: Optional[str] = None,
                 log: Optional[Callable[[str], None]] = None
                 ) -> CampaignResult:
    """Fuzz ``count`` seeds starting at ``seed``.

    ``jobs > 1`` fans seeds out over a process pool (serial fallback on
    pool failure, identical results either way).  The first
    ``max_failures`` distinct failures are kept; with ``corpus_dir``
    each is shrunk (when ``shrink_failures``) and persisted.

    ``faults_spec`` arms deterministic fault injection inside every
    oracle check (``repro fuzz --faults``); with ``cache_dir`` the
    oracle's frontend cache gains an on-disk layer so the
    ``diskcache.*`` points have a real surface.  Cache faults must be
    semantically invisible — a failure under them is a real bug.
    """
    _resolve_configs(config_labels)  # validate labels before working
    result = CampaignResult()
    payloads, result.parallel = run_pooled(
        fuzz_one, [(value, config_labels, engines, faults_spec, cache_dir)
                   for value in range(seed, seed + count)], jobs)
    for payload in payloads:
        result.programs += 1
        if payload is None:
            continue
        failure = _revive(payload)
        if log:
            log("seed %s: %s at %s" % (failure.seed, failure.kind,
                                       failure.config))
        if len(result.failures) >= max_failures:
            continue
        if shrink_failures:
            failure = shrink_failure(failure, engines=engines)
        result.failures.append(failure)
        if corpus_dir is not None:
            path = write_corpus_entry(corpus_dir, failure)
            if log:
                log("  corpus: %s" % path)
    return result
