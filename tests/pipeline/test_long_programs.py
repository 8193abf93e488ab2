"""Long programs compile and run like short ones.

IR is copied one way, by a pickle round trip: the frontend cache's
entries, each back-end's private clone and the inliner's callee clone.
Pickling does not recurse along the CFG, so a program of many
sequential loops or branches goes through every one of those copies,
on every engine and through the service.
"""

import pytest

from repro.checks import OptimizerOptions, Scheme
from repro.checks.inline import inline_module
from repro.interp.machine import Machine
from repro.ir.printer import format_module
from repro.pipeline import FrontendCache, compile_source
from repro.pipeline.driver import run_frontend
from repro.service.jobs import execute_request

from ..conftest import assert_engine_parity, lower

LLS = OptimizerOptions(scheme=Scheme.LLS)


def sequential_loops(count):
    """A main program of ``count`` counted loops in a row."""
    lines = ["program loops", "  input integer :: n = 5",
             "  integer :: i, s", "  integer :: a(10)", "  s = 0"]
    for _ in range(count):
        lines += ["  do i = 1, n", "    a(i) = i", "    s = s + a(i)",
                  "  end do"]
    return "\n".join(lines + ["  print s", "end program", ""])


def sequential_ifs(count):
    """A main program of ``count`` ``if`` blocks in a row."""
    lines = ["program branches", "  input integer :: n = 7",
             "  integer :: s", "  integer :: a(10)", "  s = 0"]
    for k in range(count):
        lines += ["  if (n > %d) then" % (k % 9), "    a(n) = %d" % k,
                  "    s = s + a(n)", "  end if"]
    return "\n".join(lines + ["  print s", "end program", ""])


def caller_of_ifs(count):
    """A loop calling a subroutine of ``count`` ``if`` blocks in a row."""
    lines = ["program caller", "  input integer :: n = 7",
             "  integer :: i", "  integer :: a(10)", "  do i = 1, 3",
             "    call many(n, i, a)", "  end do", "  print a(n)",
             "end program", "", "subroutine many(m, j, x)",
             "  integer :: m, j", "  integer :: x(10)"]
    for k in range(count):
        lines += ["  if (m > %d) then" % (k % 9), "    x(m) = x(m) + j",
                  "  end if"]
    return "\n".join(lines + ["end subroutine", ""])


LOOPS = sequential_loops(60)
IFS = sequential_ifs(200)
CALLER = caller_of_ifs(60)


class TestFrontendCache:
    @pytest.mark.parametrize("source", [LOOPS, IFS],
                             ids=["loops60", "ifs200"])
    def test_miss_memory_hit_and_disk_hit(self, source, tmp_path):
        expected = format_module(run_frontend(source))
        cache = FrontendCache(disk_dir=str(tmp_path))
        modules = [cache.frontend(source), cache.frontend(source)]
        reader = FrontendCache(disk_dir=str(tmp_path))
        modules.append(reader.frontend(source))
        assert (cache.misses, cache.hits, reader.disk_hits) == (1, 1, 1)
        assert all(format_module(module) == expected for module in modules)


class TestEngines:
    # 400 ifs are too many for the specialized engine's recursive flat
    # structurer: that function runs threaded instead
    @pytest.mark.parametrize("source,options", [
        (LOOPS, LLS), (IFS, LLS), (sequential_ifs(400), LLS),
        (CALLER, OptimizerOptions(scheme=Scheme.LLS, inline=True))],
        ids=["loops60", "ifs200", "ifs400", "caller60-inline"])
    def test_every_engine_matches_the_interpreter(self, source, options):
        assert_engine_parity(compile_source(source, options), {})


class TestInliner:
    def test_long_callee_is_inlined(self):
        module = lower(CALLER)
        expected = Machine(lower(CALLER), {})
        expected.run()
        stats = inline_module(module)
        assert stats.inlined_calls == 1
        machine = Machine(module, {})
        machine.run()
        assert machine.output == expected.output


class TestService:
    @pytest.mark.parametrize("engine", ["interp", "compiled", "specialized"])
    def test_run_request_answers_200(self, engine):
        status, body = execute_request(
            {"action": "run", "source": LOOPS, "engine": engine})
        assert status == 200, body
        assert body["output"] == [900]
