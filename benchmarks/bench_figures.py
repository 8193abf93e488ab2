"""Figure reproductions: the paper's worked examples as transformations.

* Figure 1: the 4-check fragment drops to 3 under availability (NI) and
  to 2 under check strengthening (CS);
* Figure 2: induction-variable analysis classifies ``j`` as linear,
  ``k`` as ``5*h+8``, and the loop trip count as ``max(0, n)``;
* Figure 5: safe-earliest placement hoists a check above a branch
  (legal, not always profitable);
* Figure 6: preheader insertion with loop-limit substitution leaves the
  loop body check-free, guarded by ``(1 <= 2*n)``.
"""

import pytest

from repro.analysis import LoopForest, compute_affine_forms
from repro.induction import InductionAnalysis, IndKind, find_loop_iv
from repro.pipeline import compile_source
from repro.reporting import (all_figures, figure1_availability,
                             figure1_strengthening, figure5_safe_earliest,
                             figure6_preheader)

from conftest import write_result


@pytest.mark.benchmark(group="figures")
def test_figure1(benchmark, results_dir):
    ni = benchmark.pedantic(figure1_availability, rounds=1, iterations=1)
    cs = figure1_strengthening()
    write_result(results_dir, "figure1.txt", "%s\n\n%s" % (ni, cs))
    assert ni.checks_after == 3   # paper Figure 1(b): C4 eliminated
    assert cs.checks_after == 2   # paper Figure 1(c): C1 strengthened away
    assert "check (-2*n <= -6)" in cs.after_ir
    assert "check (2*n <= 10)" in cs.after_ir


FIGURE2_SOURCE = """
program fig2
  input integer :: n = 5
  integer :: i, j, k, m
  integer :: a(1:100)
  j = 0
  k = 3
  m = 5
  do i = 0, n - 1
    j = j + 1
    k = k + m
    a(k) = 2 * m + 1
  end do
  print j
end program
"""


@pytest.mark.benchmark(group="figures")
def test_figure2(benchmark, results_dir):
    def analyze():
        main = compile_source(FIGURE2_SOURCE, optimize=False).module.main
        forest = LoopForest(main)
        env = compute_affine_forms(main)
        analysis = InductionAnalysis(main, forest, env)
        return main, forest, env, analysis

    main, forest, env, analysis = benchmark.pedantic(analyze, rounds=1,
                                                     iterations=1)
    loop = forest.loops[0]
    iv = find_loop_iv(main, loop, forest, env)
    # trip count max(0, n): init 0, bound n-1, step 1
    assert iv.step == 1
    assert str(iv.bound_affine - iv.init_affine + 1) == "n"

    lines = ["figure 2: induction expressions"]
    linear = polynomial = 0
    for name in sorted(analysis.exprs):
        kind = analysis.classify_symbol(name, loop)
        lines.append("  %-8s %-24s %s" % (name, analysis.expr_of(name),
                                          kind.value))
        if kind is IndKind.LINEAR:
            linear += 1
        if kind is IndKind.POLYNOMIAL:
            polynomial += 1
    write_result(results_dir, "figure2.txt", "\n".join(lines))
    assert linear >= 2  # j and k (and the loop index) are linear


@pytest.mark.benchmark(group="figures")
def test_figure5(benchmark, results_dir):
    report = benchmark.pedantic(figure5_safe_earliest, rounds=1,
                                iterations=1)
    write_result(results_dir, "figure5.txt", str(report))
    # the branch arms are check-free after SE
    assert report.checks_after <= report.checks_before


@pytest.mark.benchmark(group="figures")
def test_figure6(benchmark, results_dir):
    report = benchmark.pedantic(figure6_preheader, rounds=1, iterations=1)
    write_result(results_dir, "figure6.txt", str(report))
    assert "cond-check (2*n <= 10)" in report.after_ir
    assert "cond-check (k <= 10)" in report.after_ir
    body = report.after_ir.split("do_body")[1].split("do_exit")[0]
    assert "check" not in body


@pytest.mark.benchmark(group="figures")
def test_all_figures_render(benchmark):
    figures = benchmark.pedantic(all_figures, rounds=1, iterations=1)
    assert len(figures) == 4
