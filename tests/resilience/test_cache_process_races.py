"""Two real processes contending for one artifact-store key.

The in-process cache tests prove thread safety; these prove the
*cross-process* story behind the sharded cluster: a shared
``REPRO_CACHE_DIR``, per-key ``flock`` single-flight, and — when the
lock or the disk layer is sabotaged — graceful degradation to
duplicate work with identical, correct results.  Every child is a
genuine ``subprocess`` (its own interpreter, its own caches); the
parent synchronizes starts with a "go" file both children poll.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

pytestmark = pytest.mark.resilience

SOURCE = """
program raced
  integer :: i, j
  real :: a(200), b(200)
  do i = 1, 200
    a(i) = real(i)
  end do
  do j = 1, 200
    b(j) = a(j) * 2.0 + 1.0
  end do
  print b(200)
end program
"""

CHILD = r"""
import json, os, sys, time

go = sys.argv[1]
deadline = time.time() + 30.0
while not os.path.exists(go):
    if time.time() > deadline:
        raise SystemExit("no go signal")
    time.sleep(0.002)

from repro import faults
from repro.pipeline.cache import shared_backend_cache, shared_cache
from repro.service.jobs import execute_request

faults.arm_from_env()
status, body = execute_request({
    "action": "run", "source": sys.argv[2], "engine": "compiled"})
backend = shared_backend_cache()
frontend = shared_cache()
print(json.dumps({
    "status": status,
    "ok": body.get("ok"),
    "output": body.get("output"),
    "error": body.get("error"),
    "backend_cached": body.get("backend_cached"),
    "lock_waits": backend.lock_waits + frontend.lock_waits,
    "lock_degraded": backend.lock_degraded + frontend.lock_degraded,
}))
"""


def _race(cache_dir, go_path, faults_by_child=("", "")):
    """Start one child per fault spec, release them together."""
    children = []
    for spec in faults_by_child:
        env = dict(os.environ, REPRO_CACHE_DIR=str(cache_dir),
                   PYTHONPATH="src")
        if spec:
            env["REPRO_FAULTS"] = spec
        else:
            env.pop("REPRO_FAULTS", None)
        children.append(subprocess.Popen(
            [sys.executable, "-c", CHILD, str(go_path), SOURCE],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            cwd=os.path.join(os.path.dirname(__file__), "..", "..")))
    time.sleep(0.1)  # let both reach the spin-wait
    with open(go_path, "w") as handle:
        handle.write("go")
    reports = []
    for child in children:
        out, err = child.communicate(timeout=120)
        assert child.returncode == 0, err.decode("utf-8", "replace")
        reports.append(json.loads(out.decode("utf-8")))
    return reports


def _entries(cache_dir):
    return [name for name in os.listdir(cache_dir)
            if not name.endswith(".lock")]


class TestExactlyOnceAcrossProcesses:
    def test_cold_key_compiles_in_exactly_one_process(self, tmp_path):
        cache = tmp_path / "store"
        cache.mkdir()
        a, b = _race(cache, tmp_path / "go")
        assert a["status"] == 200 and b["status"] == 200
        assert a["output"] == b["output"] == [401.0]
        # the flock serialized the fills: one cold translate, one
        # cached load — never two compiles, never zero
        assert sorted([a["backend_cached"], b["backend_cached"]]) \
            == [False, True]
        assert a["lock_degraded"] == b["lock_degraded"] == 0

    def test_published_entries_are_loadable(self, tmp_path):
        cache = tmp_path / "store"
        cache.mkdir()
        _race(cache, tmp_path / "go")
        assert _entries(cache)  # something was published
        # a third, fresh process serves both layers from disk
        (report,) = _race(cache, tmp_path / "go2", faults_by_child=("",))
        assert report["output"] == [401.0]
        assert report["backend_cached"] is True


class TestWriteFaultsDegradeToDuplicateWork:
    def test_failed_publish_means_both_compile_same_answer(
            self, tmp_path):
        cache = tmp_path / "store"
        cache.mkdir()
        spec = "diskcache.write:raise:p=1.0"
        a, b = _race(cache, tmp_path / "go", faults_by_child=(spec, spec))
        assert a["status"] == 200 and b["status"] == 200
        # neither publish landed, so neither process could load the
        # other's artifact — duplicate work, identical results
        assert a["backend_cached"] is False
        assert b["backend_cached"] is False
        assert a["output"] == b["output"] == [401.0]

    def test_torn_entry_is_rejected_not_served(self, tmp_path):
        cache = tmp_path / "store"
        cache.mkdir()
        # the first process publishes corrupted bytes; the RPRC2
        # header/checksum makes the second treat them as a miss
        a, = _race(cache, tmp_path / "go",
                   faults_by_child=("diskcache.write:corrupt:p=1.0",))
        assert a["status"] == 200 and a["backend_cached"] is False
        b, = _race(cache, tmp_path / "go2", faults_by_child=("",))
        assert b["status"] == 200
        assert b["backend_cached"] is False  # recompiled, not poisoned
        assert b["output"] == a["output"] == [401.0]


class TestUnusableLockDegrades:
    def test_lock_fault_still_yields_correct_results(self, tmp_path):
        cache = tmp_path / "store"
        cache.mkdir()
        a, b = _race(cache, tmp_path / "go",
                     faults_by_child=("cache.lock:raise:p=1.0",
                                      "cache.lock:raise:p=1.0"))
        assert a["status"] == 200 and b["status"] == 200
        assert a["output"] == b["output"] == [401.0]
        # whoever filled cold had to attempt (and fail) the lock; the
        # other child may have raced past it to a clean disk hit
        assert a["lock_degraded"] + b["lock_degraded"] >= 1
        # duplicate work is allowed; wrong or missing results are not
        assert False in (a["backend_cached"], b["backend_cached"])

    def test_lock_path_collision_degrades_not_fails(self, tmp_path):
        # a directory squatting on the lock sidecar's path makes
        # os.open(O_RDWR) fail with EISDIR; acquire() must treat that
        # exactly like contention it cannot arbitrate: skip the lock,
        # do the work locally
        from repro.pipeline.cache import FrontendCache

        cache = tmp_path / "store"
        cache.mkdir()
        probe = FrontendCache(disk_dir=str(cache))
        lock_path = probe._path(probe.key(SOURCE)) + ".lock"
        os.makedirs(lock_path)
        a, = _race(cache, tmp_path / "go", faults_by_child=("",))
        assert a["status"] == 200
        assert a["output"] == [401.0]
        assert a["lock_degraded"] >= 1
        assert os.path.isdir(lock_path)  # never deleted, never opened
