"""Tests for the frontend compilation cache."""

import pickle

from repro.checks.config import OptimizerOptions, Scheme
from repro.checks.optimizer import optimize_module
from repro.interp.machine import Machine
from repro.ir.printer import format_module
from repro.pipeline import (FrontendCache, PipelineTrace, compile_source,
                            reset_shared_cache, shared_cache)
from repro.pipeline import cache as cache_module
from repro.pipeline.driver import run_frontend
from repro.ssa import destruct_ssa


def run_checks(module, inputs):
    machine = Machine(module, inputs)
    machine.run()
    return machine.counters.checks


class TestFrontendCache:
    def test_compiles_once_for_same_source(self, loop_program):
        cache = FrontendCache()
        cache.frontend(loop_program)
        cache.frontend(loop_program)
        cache.frontend(loop_program)
        assert cache.frontend_compiles == 1
        assert cache.hits == 2
        assert cache.misses == 1

    def test_distinct_options_are_distinct_entries(self, loop_program):
        cache = FrontendCache()
        cache.frontend(loop_program)
        cache.frontend(loop_program, rotate_loops=True)
        cache.frontend(loop_program, inline=True)
        assert cache.frontend_compiles == 3

    def test_clones_are_isolated(self, loop_program):
        cache = FrontendCache()
        first = cache.frontend(loop_program)
        second = cache.frontend(loop_program)
        naive = run_checks(second, {"n": 10})
        optimize_module(first, OptimizerOptions(scheme=Scheme.LLS))
        # optimizing one copy must not leak into the other two
        assert run_checks(first, {"n": 10}) < naive
        third = cache.frontend(loop_program)
        assert run_checks(third, {"n": 10}) == naive

    def test_cached_results_match_fresh_compile(self, loop_program):
        cache = FrontendCache()
        options = OptimizerOptions(scheme=Scheme.LLS)
        fresh = compile_source(loop_program, options)
        cache.frontend(loop_program)  # prime
        cached = compile_source(loop_program, options, cache=cache)
        m1 = fresh.run({"n": 10})
        m2 = cached.run({"n": 10})
        assert m1.output == m2.output
        assert m1.counters.checks == m2.counters.checks
        assert m1.counters.instructions == m2.counters.instructions

    def test_trace_marks_cached_frontend(self, loop_program):
        cache = FrontendCache()
        first = PipelineTrace()
        cache.frontend(loop_program, trace=first)
        assert first.run_count("parse") == 1
        assert not first.frontend_was_cached()
        second = PipelineTrace()
        cache.frontend(loop_program, trace=second)
        assert second.run_count("parse") == 0
        assert second.frontend_was_cached()
        assert second.run_count("clone") == 1

    def test_miss_records_no_clone(self, loop_program):
        cache = FrontendCache()
        trace = PipelineTrace()
        cache.frontend(loop_program, trace=trace)
        assert trace.run_count("clone") == 0
        assert trace.run_count("ssa") == 1

    def test_clear_drops_memory(self, loop_program):
        cache = FrontendCache()
        cache.frontend(loop_program)
        cache.clear()
        cache.frontend(loop_program)
        assert cache.frontend_compiles == 2

    def test_stats_snapshot(self, loop_program):
        cache = FrontendCache()
        cache.frontend(loop_program)
        stats = cache.stats()
        assert stats["frontend_compiles"] == 1
        assert stats["entries"] == 1


class TestOwnership:
    """A miss hands over the module it built; the entry keeps only
    its pickled form, so no later caller can see that module."""

    def test_miss_caller_mutations_do_not_reach_hits(self, loop_program):
        cache = FrontendCache()
        mine = cache.frontend(loop_program)
        optimize_module(mine, OptimizerOptions(scheme=Scheme.LLS))
        for function in mine:
            destruct_ssa(function)
        assert format_module(cache.frontend(loop_program)) == \
            format_module(run_frontend(loop_program))

    def test_entry_with_blob_holds_no_live_module(self, loop_program):
        cache = FrontendCache()
        cache.frontend(loop_program)
        (entry,) = cache._memory.values()
        assert entry.blob is not None
        assert not hasattr(entry, "module")


class TestDiskCache:
    def test_second_cache_hits_disk(self, loop_program, tmp_path):
        disk = str(tmp_path)
        one = FrontendCache(disk_dir=disk)
        one.frontend(loop_program)
        assert one.frontend_compiles == 1

        two = FrontendCache(disk_dir=disk)
        module = two.frontend(loop_program)
        assert two.frontend_compiles == 0
        assert two.disk_hits == 1
        assert run_checks(module, {"n": 10}) > 0

    def test_corrupt_entry_recompiles(self, loop_program, tmp_path):
        disk = str(tmp_path)
        one = FrontendCache(disk_dir=disk)
        one.frontend(loop_program)
        for path in tmp_path.iterdir():
            path.write_bytes(b"not a pickle")
        two = FrontendCache(disk_dir=disk)
        two.frontend(loop_program)
        assert two.frontend_compiles == 1

    def test_cross_process_entry_matches_fresh_compile(self, loop_program,
                                                       tmp_path):
        """Entries written by a process with a different string-hash
        seed must optimize identically to a fresh compile (cached
        ``_hash`` slots used to leak stale seed-dependent hashes)."""
        import os
        import subprocess
        import sys

        disk = str(tmp_path)
        env = dict(os.environ, PYTHONHASHSEED="12345",
                   PYTHONPATH=os.pathsep.join(sys.path))
        script = (
            "from repro.pipeline import FrontendCache\n"
            "FrontendCache(disk_dir=%r).frontend(%r)\n"
            % (disk, loop_program))
        subprocess.run([sys.executable, "-c", script], check=True, env=env)

        cache = FrontendCache(disk_dir=disk)
        options = OptimizerOptions(scheme=Scheme.LLS)
        cached = compile_source(loop_program, options, cache=cache)
        assert cache.disk_hits == 1
        fresh = compile_source(loop_program, options)
        m1 = cached.run({"n": 10})
        m2 = fresh.run({"n": 10})
        assert m1.counters.checks == m2.counters.checks
        assert m1.counters.instructions == m2.counters.instructions
        assert m1.output == m2.output

    def test_disk_hit_type_checks_then_clones(self, loop_program, tmp_path,
                                              monkeypatch):
        """A disk hit unpickles its entry once to check its type and
        once more for the caller's copy."""
        disk = str(tmp_path)
        FrontendCache(disk_dir=disk).frontend(loop_program)
        loads = []
        real_loads = pickle.loads

        def counting(*args, **kwargs):
            loads.append(args)
            return real_loads(*args, **kwargs)

        monkeypatch.setattr(cache_module.pickle, "loads", counting)
        cache = FrontendCache(disk_dir=disk)
        trace = PipelineTrace()
        module = cache.frontend(loop_program, trace=trace)
        assert cache.disk_hits == 1
        assert len(loads) == 2
        assert trace.frontend_was_cached()
        assert trace.run_count("clone") == 1
        assert format_module(module) == \
            format_module(run_frontend(loop_program))
        cache.frontend(loop_program)  # a memory hit unpickles its own
        assert len(loads) == 3

    def test_failed_disk_read_hands_over_nothing(self, loop_program,
                                                 tmp_path, monkeypatch):
        """A read that decodes the module but fails to make its entry
        is a miss: the caller gets the rebuilt module, never the one
        the failed read decoded."""
        disk = str(tmp_path)
        FrontendCache(disk_dir=disk).frontend(loop_program)
        loaded = []
        sizes = []
        real_loads = pickle.loads
        real_size = cache_module.module_size

        def recording(*args, **kwargs):
            loaded.append(real_loads(*args, **kwargs))
            return loaded[-1]

        def size_fails_once(module):
            if len(loaded) == 1 and not sizes:
                sizes.append(module)
                raise AttributeError("entry size")
            return real_size(module)

        monkeypatch.setattr(cache_module.pickle, "loads", recording)
        monkeypatch.setattr(cache_module, "module_size", size_fails_once)
        cache = FrontendCache(disk_dir=disk)
        module = cache.frontend(loop_program)
        assert cache.disk_hits == 0
        assert cache.frontend_compiles == 1
        assert sizes == loaded
        assert all(module is not decoded for decoded in loaded)
        assert format_module(module) == \
            format_module(run_frontend(loop_program))

    def test_threads_hitting_a_fresh_entry_get_distinct_modules(
            self, loop_program, tmp_path):
        import threading

        disk = str(tmp_path)
        FrontendCache(disk_dir=disk).frontend(loop_program)
        cache = FrontendCache(disk_dir=disk)
        barrier = threading.Barrier(2)
        modules = []

        def worker():
            barrier.wait(timeout=30)
            modules.append(cache.frontend(loop_program))

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        modules.append(cache.frontend(loop_program))
        assert cache.frontend_compiles == 0
        assert len({id(module) for module in modules}) == 3
        expected = format_module(run_frontend(loop_program))
        assert all(format_module(module) == expected for module in modules)

    def test_no_disk_dir_never_writes(self, loop_program, tmp_path,
                                      monkeypatch):
        monkeypatch.chdir(tmp_path)
        cache = FrontendCache()
        cache.frontend(loop_program)
        assert list(tmp_path.iterdir()) == []


class TestSharedCache:
    def test_shared_cache_is_a_singleton(self):
        reset_shared_cache()
        try:
            assert shared_cache() is shared_cache()
        finally:
            reset_shared_cache()

    def test_env_var_enables_disk_layer(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        reset_shared_cache()
        try:
            assert shared_cache().disk_dir == str(tmp_path)
        finally:
            reset_shared_cache()


class TestLRUBound:
    SOURCES = [
        "program p%d\n  integer :: x\n  x = %d\n  print x\nend program\n"
        % (i, i) for i in range(3)
    ]

    def test_unbounded_by_default(self, loop_program):
        cache = FrontendCache()
        assert cache.max_entries is None

    def test_evicts_least_recently_used(self):
        a, b, c = self.SOURCES
        cache = FrontendCache(max_entries=2)
        cache.frontend(a)
        cache.frontend(b)
        cache.frontend(a)  # refresh a: b is now the LRU entry
        cache.frontend(c)  # evicts b
        assert cache.evictions == 1
        assert cache.stats()["entries"] == 2
        compiles = cache.frontend_compiles
        cache.frontend(a)  # still resident
        assert cache.frontend_compiles == compiles
        cache.frontend(b)  # evicted -> recompiles
        assert cache.frontend_compiles == compiles + 1

    def test_nonpositive_bound_means_unbounded(self):
        assert FrontendCache(max_entries=0).max_entries is None
        assert FrontendCache(max_entries=-3).max_entries is None

    def test_env_var_bounds_shared_cache(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_ENTRIES", "7")
        reset_shared_cache()
        try:
            assert shared_cache().max_entries == 7
        finally:
            reset_shared_cache()


class TestCacheStats:
    def test_stats_object_fields(self, loop_program):
        cache = FrontendCache()
        cache.frontend(loop_program)
        cache.frontend(loop_program)
        stats = cache.stats()
        assert stats["frontend_compiles"] == 1
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["hits"] + stats["misses"] == 2
        assert stats["entries"] == 1
        assert stats["evictions"] == 0
        assert stats["disk_hits"] == 0

    def test_stats_dict_matches_object(self, loop_program):
        """The ``stats()`` snapshot agrees with the cache's live
        counters and keeps the field set the table goldens lock."""
        cache = FrontendCache()
        cache.frontend(loop_program)
        assert cache.stats() == {
            "frontend_compiles": cache.frontend_compiles,
            "hits": cache.hits, "misses": cache.misses,
            "disk_hits": cache.disk_hits, "evictions": cache.evictions,
            "entries": 1}
        assert set(cache.stats()) == {"frontend_compiles", "hits",
                                      "misses", "disk_hits", "evictions",
                                      "entries"}


class TestConcurrentDiskWriters:
    def test_racing_writers_never_corrupt(self, loop_program, tmp_path):
        """Many caches hammering one disk directory: every reader gets
        a working module, and no temp files are left behind."""
        import threading

        disk = str(tmp_path)
        errors = []

        def worker():
            try:
                cache = FrontendCache(disk_dir=disk)
                for _ in range(5):
                    module = cache.frontend(loop_program)
                    assert run_checks(module, {"n": 5}) > 0
                    cache.clear()  # force the disk path on every lap
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        leftovers = [p.name for p in tmp_path.iterdir() if ".tmp." in p.name]
        assert leftovers == []
        entries = [p for p in tmp_path.iterdir()
                   if not p.name.endswith(".lock")]
        assert len(entries) == 1  # one key -> one published entry

    def test_truncated_entry_is_a_miss(self, loop_program, tmp_path):
        disk = str(tmp_path)
        one = FrontendCache(disk_dir=disk)
        one.frontend(loop_program)
        (entry,) = [p for p in tmp_path.iterdir()
                   if not p.name.endswith(".lock")]
        blob = entry.read_bytes()
        entry.write_bytes(blob[:len(blob) // 2])
        two = FrontendCache(disk_dir=disk)
        module = two.frontend(loop_program)
        assert two.disk_hits == 0
        assert two.frontend_compiles == 1
        assert run_checks(module, {"n": 10}) > 0

    def test_empty_entry_is_a_miss(self, loop_program, tmp_path):
        disk = str(tmp_path)
        one = FrontendCache(disk_dir=disk)
        one.frontend(loop_program)
        (entry,) = [p for p in tmp_path.iterdir()
                   if not p.name.endswith(".lock")]
        entry.write_bytes(b"")
        two = FrontendCache(disk_dir=disk)
        two.frontend(loop_program)
        assert two.frontend_compiles == 1

    def test_wrong_object_type_is_a_miss(self, loop_program, tmp_path):
        import pickle

        disk = str(tmp_path)
        one = FrontendCache(disk_dir=disk)
        one.frontend(loop_program)
        (entry,) = [p for p in tmp_path.iterdir()
                   if not p.name.endswith(".lock")]
        entry.write_bytes(pickle.dumps({"not": "a module"}))
        two = FrontendCache(disk_dir=disk)
        two.frontend(loop_program)
        assert two.disk_hits == 0
        assert two.frontend_compiles == 1
