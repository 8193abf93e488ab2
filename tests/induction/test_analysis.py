"""Tests for induction-expression analysis, including the paper's
Figure 2 example."""

from repro.analysis import LoopForest, compute_affine_forms
from repro.induction import IndKind, InductionAnalysis, h_symbol
from repro.symbolic import Polynomial

from ..conftest import lower_ssa


def analyze(source):
    module = lower_ssa(source)
    main = module.main
    forest = LoopForest(main)
    env = compute_affine_forms(main)
    return InductionAnalysis(main, forest, env), forest, main


FIGURE2 = """
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


class TestFigure2:
    """The paper's Figure 2: j linear (h), k linear (5*h+8),
    2*m+1 invariant."""

    def test_j_is_linear(self):
        analysis, forest, _ = analyze(FIGURE2)
        loop = forest.loops[0]
        h = h_symbol(loop)
        j_phis = [name for name in analysis.exprs if name.startswith("j.")]
        classifications = {analysis.classify_symbol(name, loop)
                           for name in j_phis}
        assert IndKind.LINEAR in classifications

    def test_k_has_expr_5h_plus_8(self):
        analysis, forest, _ = analyze(FIGURE2)
        loop = forest.loops[0]
        h = Polynomial.symbol(h_symbol(loop))
        # k2 (the value after k = k + m inside the loop) is 5*h + 8
        want = h * 5 + 8
        exprs = [analysis.expr_of(name) for name in analysis.exprs
                 if name.startswith("k.")]
        assert want in exprs

    def test_invariant_rhs(self):
        analysis, forest, _ = analyze(FIGURE2)
        loop = forest.loops[0]
        # 2*m+1 has m = 5 folded by affine analysis; the stored value is
        # the constant 11, trivially invariant -- check classification
        # of m itself instead
        m_names = [name for name in analysis.exprs if name.startswith("m.")]
        for name in m_names:
            assert analysis.classify_symbol(name, loop) is IndKind.INVARIANT


class TestClassification:
    def test_loop_index_linear(self):
        analysis, forest, _ = analyze("""
program p
  input integer :: n = 5
  integer :: i, s
  s = 0
  do i = 1, n
    s = s + 1
  end do
  print s
end program
""")
        loop = forest.loops[0]
        phi_name = loop.header.phis()[0].dest.name
        names = [p.dest.name for p in loop.header.phis()]
        kinds = {analysis.classify_symbol(n, loop) for n in names}
        assert IndKind.LINEAR in kinds

    def test_outer_variable_invariant_in_inner_loop(self):
        analysis, forest, _ = analyze("""
program p
  input integer :: n = 3
  integer :: i, j, s
  s = 0
  do i = 1, n
    do j = 1, n
      s = s + 1
    end do
  end do
  print s
end program
""")
        inner = forest.inner_to_outer()[0]
        outer = forest.inner_to_outer()[1]
        i_phi = [p.dest.name for p in outer.header.phis()
                 if p.dest.base_name() == "i"][0]
        assert analysis.classify_symbol(i_phi, inner) is IndKind.INVARIANT
        assert analysis.classify_symbol(i_phi, outer) is IndKind.LINEAR

    def test_inner_h_variant_in_outer(self):
        analysis, forest, _ = analyze("""
program p
  input integer :: n = 3
  integer :: i, j, s
  s = 0
  do i = 1, n
    do j = 1, i
      s = s + 1
    end do
  end do
  print s
end program
""")
        inner = forest.inner_to_outer()[0]
        outer = forest.inner_to_outer()[1]
        j_phi = [p.dest.name for p in inner.header.phis()
                 if p.dest.base_name() == "j"][0]
        assert analysis.classify_symbol(j_phi, outer) is IndKind.UNKNOWN

    def test_second_order_recurrence_is_polynomial(self):
        analysis, forest, _ = analyze("""
program p
  input integer :: n = 5
  integer :: i, k, s
  k = 0
  s = 0
  do i = 1, n
    k = k + i
    s = s + k
  end do
  print k
end program
""")
        loop = forest.loops[0]
        k_names = [name for name in analysis.poly_marks
                   if name.startswith("k.")]
        assert k_names
        for name in k_names:
            assert analysis.classify_symbol(name, loop) is IndKind.POLYNOMIAL

    def test_triangular_offset_is_polynomial(self):
        analysis, forest, _ = analyze("""
program p
  input integer :: n = 5
  integer :: i, off
  off = 0
  do i = 1, n
    off = (i * (i - 1)) / 2
  end do
  print off
end program
""")
        loop = forest.loops[0]
        off_defs = [name for name in analysis.poly_marks
                    if name.startswith("t") or name.startswith("off")]
        assert off_defs  # the division result is marked polynomial

    def test_invariant_assignment_inside_loop(self):
        analysis, forest, _ = analyze("""
program p
  input integer :: base = 7
  integer :: i, m, s
  s = 0
  do i = 1, 5
    m = base + 2
    s = s + m
  end do
  print s
end program
""")
        loop = forest.loops[0]
        m_defs = [name for name in analysis.exprs if name.startswith("m.")]
        assert any(analysis.classify_symbol(name, loop) is IndKind.INVARIANT
                   for name in m_defs)


class TestLinearParts:
    def test_loop_of_h(self):
        analysis, forest, _ = analyze("""
program p
  integer :: i, s
  s = 0
  do i = 1, 5
    s = s + 1
  end do
  print s
end program
""")
        loop = forest.loops[0]
        assert analysis.loop_of_h(h_symbol(loop)) is loop
        assert analysis.loop_of_h("not-an-h") is None
