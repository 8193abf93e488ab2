"""The benchmark's own test: exact counts and a clean correctness gate.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_counts.py

``static_checks``, ``dyn_checks`` and ``gen_code_kb`` are counts of
the program's own work over the first round of a run, so two runs with
the same seed must report them exactly; and every workload must finish
with ``fail_rate`` 0.  ``--seconds 0`` runs the fewest whole rounds
that reach the benchmark's minimum op count.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def bench(workload, seed, trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    doc = json.loads(done.stdout.strip().splitlines()[-1])
    assert doc["correct"], done.stderr[-2000:]
    assert doc["failed"] == 0
    return {name: metric["value"] for name, metric in doc["metrics"].items()}


def test_counts_repeat_exactly_for_one_seed():
    first, second = bench("cold", 7, 0), bench("cold", 7, 0)
    assert first["static_checks"] == second["static_checks"] > 0
    first, second = bench("cold", 7, 1), bench("cold", 7, 1)
    for name in ("dyn_checks", "gen_code_kb"):
        assert first[name] == second[name] > 0, name
    assert first["fail_rate"] == 0


@pytest.mark.parametrize("workload", ["matrix", "warm", "service"])
def test_fail_rate_is_zero(workload):
    assert bench(workload, 3, 1)["fail_rate"] == 0
