"""Extension experiments beyond the paper's tables.

* **MCM vs LLS** -- the comparison the paper's related-work section
  proposes: "it would be interesting to implement the Markstein et al.
  algorithm in Nascent to compare its effectiveness with the loop-limit
  substitution algorithm."  Result: MCM captures most of LLS's benefit
  on simple-subscript programs but loses where subscripts are compound
  (trfd) or appear under branches.

* **Loop rotation + SE** -- the paper's aside that "a CFG
  transformation such as loop rotation can help the safe-earliest
  placement" on while loops, measured as an ablation.

* **VR vs NI vs LLS** -- the abstract-interpretation baseline from the
  paper's related work (Harrison / Cousot & Halbwachs style): the paper
  predicts compile-time-only elimination removes fewer checks than
  algorithms that insert checks.
"""

import time

import pytest

from repro.benchsuite import all_programs, cross_call_programs
from repro.checks import CheckKind, OptimizerOptions, Scheme
from repro.pipeline.driver import compile_source
from repro.pipeline.stats import measure_baseline, measure_scheme

from conftest import write_result


@pytest.mark.benchmark(group="extensions")
def test_mcm_vs_lls(benchmark, programs, results_dir):
    baselines = {
        p.name: measure_baseline(p.name, p.source, p.inputs).dynamic_checks
        for p in programs
    }

    def run_comparison():
        rows = {}
        for program in programs:
            row = {}
            for scheme in (Scheme.NI, Scheme.MCM, Scheme.LLS):
                cell = measure_scheme(
                    program.name, program.source,
                    OptimizerOptions(scheme=scheme),
                    baselines[program.name], program.inputs)
                row[scheme] = cell.percent_eliminated
            rows[program.name] = row
        return rows

    rows = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    lines = ["MCM (Markstein-Cocke-Markstein 1982) vs LLS",
             "%-10s %8s %8s %8s" % ("program", "NI", "MCM", "LLS")]
    for name, row in rows.items():
        lines.append("%-10s %8.2f %8.2f %8.2f"
                     % (name, row[Scheme.NI], row[Scheme.MCM],
                        row[Scheme.LLS]))
    write_result(results_dir, "extension_mcm.txt", "\n".join(lines))

    for name, row in rows.items():
        # MCM always lands between NI and LLS
        assert row[Scheme.NI] - 1e-9 <= row[Scheme.MCM] \
            <= row[Scheme.LLS] + 1e-9
    # and strictly loses to LLS on compound-subscript programs
    assert rows["trfd"][Scheme.LLS] > rows["trfd"][Scheme.MCM] + 5.0


@pytest.mark.benchmark(group="extensions")
def test_value_range_baseline(benchmark, programs, results_dir):
    baselines = {
        p.name: measure_baseline(p.name, p.source, p.inputs).dynamic_checks
        for p in programs
    }

    def run_comparison():
        rows = {}
        for program in programs:
            row = {}
            for scheme in (Scheme.VR, Scheme.NI, Scheme.LLS):
                cell = measure_scheme(
                    program.name, program.source,
                    OptimizerOptions(scheme=scheme),
                    baselines[program.name], program.inputs)
                row[scheme] = cell.percent_eliminated
            rows[program.name] = row
        return rows

    rows = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    lines = ["VR (abstract interpretation) vs NI vs LLS",
             "%-10s %8s %8s %8s" % ("program", "VR", "NI", "LLS")]
    for name, row in rows.items():
        lines.append("%-10s %8.2f %8.2f %8.2f"
                     % (name, row[Scheme.VR], row[Scheme.NI],
                        row[Scheme.LLS]))
    write_result(results_dir, "extension_vr.txt", "\n".join(lines))

    # the paper's prediction: compile-time-only elimination trails the
    # insertion-based algorithms on every program
    for name, row in rows.items():
        assert row[Scheme.VR] < row[Scheme.NI]
        assert row[Scheme.VR] < row[Scheme.LLS]


@pytest.mark.benchmark(group="extensions")
def test_spec_vs_lls_and_all(benchmark, programs, results_dir):
    """Speculative loop versioning vs the paper's best schemes.

    SPEC replaces each covered family's per-loop preheader checks
    with one envelope guard and runs the fast path check-free, so its
    dynamic effective-check count must be <= LLS on every program
    where loops qualify (the guard subsumes the Cond-checks LLS would
    insert; anything uncovered degrades to exactly LLS placement).
    """
    baselines = {
        p.name: measure_baseline(p.name, p.source, p.inputs).dynamic_checks
        for p in programs
    }

    def run_comparison():
        rows = {}
        for program in programs:
            row = {}
            for scheme in (Scheme.NI, Scheme.LLS, Scheme.ALL, Scheme.SPEC):
                cell = measure_scheme(
                    program.name, program.source,
                    OptimizerOptions(scheme=scheme),
                    baselines[program.name], program.inputs)
                row[scheme] = cell.percent_eliminated
            rows[program.name] = row
        return rows

    rows = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    lines = ["SPEC (speculative loop versioning) vs LLS and ALL",
             "%-10s %8s %8s %8s %8s" % ("program", "NI", "LLS", "ALL",
                                        "SPEC")]
    for name, row in rows.items():
        lines.append("%-10s %8.2f %8.2f %8.2f %8.2f"
                     % (name, row[Scheme.NI], row[Scheme.LLS],
                        row[Scheme.ALL], row[Scheme.SPEC]))
    write_result(results_dir, "extension_spec.txt", "\n".join(lines))

    for name, row in rows.items():
        # the envelope guard never loses to per-family hoisting
        assert row[Scheme.SPEC] >= row[Scheme.LLS] - 1e-9, name
    # and wins outright somewhere: fully covered loops run check-free
    assert any(row[Scheme.SPEC] > row[Scheme.LLS] + 1e-9
               for row in rows.values())


@pytest.mark.benchmark(group="extensions")
def test_lospre_vs_every_scheme(benchmark, programs, results_dir):
    """Profile-priced placement (LO) against the full scheme ladder.

    LO trains an edge profile under LLS on the same inputs and ships
    whichever of {no insertions, LCM-latest} a fold-aware simulation
    of the elimination pass prices cheaper at the observed counts
    (ties keep latest).  That choice makes LO never run more checks
    than LLS -- the no-insertions candidate *is* the LLS residual
    placement -- and on spec77 LCM-latest beats the residual heuristic
    outright.  The second axis is wall clock: LO pays for the training
    run plus the pricing, recorded per program next to LLS's cost.
    """
    scheme_ladder = (Scheme.NI, Scheme.CS, Scheme.LNI, Scheme.SE,
                     Scheme.LI, Scheme.LLS, Scheme.SPEC, Scheme.ALL,
                     Scheme.LO)
    baselines = {
        p.name: measure_baseline(p.name, p.source, p.inputs).dynamic_checks
        for p in programs
    }

    def run_comparison():
        rows = {}
        seconds = {}
        for program in programs:
            row = {}
            for scheme in scheme_ladder:
                start = time.perf_counter()
                cell = measure_scheme(
                    program.name, program.source,
                    OptimizerOptions(scheme=scheme),
                    baselines[program.name], program.inputs)
                seconds[(program.name, scheme)] = \
                    time.perf_counter() - start
                row[scheme] = cell
            rows[program.name] = row
        return rows, seconds

    rows, seconds = benchmark.pedantic(run_comparison, rounds=1,
                                       iterations=1)

    # all-engine counter parity: the LO placement must count the same
    # dynamic checks under the interpreter, the threaded Python
    # back-end, and the specialized flat back-end
    parity = {}
    for program in programs:
        counts = {}
        for engine in ("interp", "compiled", "specialized"):
            cell = measure_scheme(
                program.name, program.source,
                OptimizerOptions(scheme=Scheme.LO),
                baselines[program.name], program.inputs, engine=engine)
            counts[engine] = cell.dynamic_checks
        parity[program.name] = counts

    header = ("program",) + tuple(s.name for s in scheme_ladder)
    lines = ["LO (LCM-latest or no insertion, priced at the profile) "
             "vs the scheme ladder",
             "",
             "dynamic checks remaining (% eliminated vs unoptimized)",
             ("%-10s" + " %8s" * len(scheme_ladder)) % header]
    for name, row in rows.items():
        lines.append(("%-10s" + " %8.2f" * len(scheme_ladder))
                     % ((name,) + tuple(row[s].percent_eliminated
                                        for s in scheme_ladder)))
    lines += ["",
              "wall-clock seconds per cell (LO includes profile "
              "training)",
              "%-10s %10s %10s %10s" % ("program", "LLS", "LO",
                                        "LO/LLS")]
    for program in programs:
        lls_s = seconds[(program.name, Scheme.LLS)]
        lo_s = seconds[(program.name, Scheme.LO)]
        lines.append("%-10s %10.4f %10.4f %10.2f"
                     % (program.name, lls_s, lo_s,
                        lo_s / lls_s if lls_s else float("inf")))
    lines += ["",
              "LO dynamic checks by engine (parity)",
              "%-10s %10s %10s %12s" % ("program", "interp", "compiled",
                                        "specialized")]
    for name, counts in parity.items():
        lines.append("%-10s %10d %10d %12d"
                     % (name, counts["interp"], counts["compiled"],
                        counts["specialized"]))
    write_result(results_dir, "extension_lospre.txt", "\n".join(lines))

    for name, row in rows.items():
        # the acceptance bar: LO never runs more checks than LLS
        assert row[Scheme.LO].dynamic_checks \
            <= row[Scheme.LLS].dynamic_checks, name
    # and somewhere the LCM-latest candidate beats the LLS residual
    # heuristic outright (spec77)
    assert any(row[Scheme.LO].dynamic_checks
               < row[Scheme.LLS].dynamic_checks
               for row in rows.values())
    for name, counts in parity.items():
        assert counts["interp"] == counts["compiled"] \
            == counts["specialized"], name


@pytest.mark.benchmark(group="extensions")
def test_inline_cross_call(benchmark, results_dir):
    """Subroutine inlining on the cross-call extension kernels.

    These registry programs are dominated by redundancy that spans a
    call boundary: a caller-side access covering the callee's, a call
    issued twice at the same subscript, or an argument-carried bound
    that only the caller's actuals make provable.  None of it is
    visible to an intraprocedural optimizer, so the non-inlined
    configurations are the floor -- and ``--inline`` must strictly
    beat that floor, under NI (pure elimination over the clones) and
    LLS (hoisting out of the caller's loops) alike, with exact
    dynamic-check parity across all three engines.
    """
    kernels = cross_call_programs()
    baselines = {
        p.name: measure_baseline(p.name, p.source, p.inputs).dynamic_checks
        for p in kernels
    }

    def run_comparison():
        rows = {}
        for program in kernels:
            row = {}
            for scheme in (Scheme.NI, Scheme.LLS):
                for inline in (False, True):
                    options = OptimizerOptions(scheme=scheme,
                                               kind=CheckKind.INX,
                                               inline=inline)
                    cell = measure_scheme(
                        program.name, program.source, options,
                        baselines[program.name], program.inputs)
                    row[options.label()] = cell
            rows[program.name] = row
        return rows

    rows = benchmark.pedantic(run_comparison, rounds=1, iterations=1)

    # three-engine parity on the inlined placements
    parity = {}
    for program in kernels:
        counts = {}
        for engine in ("interp", "compiled", "specialized"):
            cell = measure_scheme(
                program.name, program.source,
                OptimizerOptions(scheme=Scheme.NI, kind=CheckKind.INX,
                                 inline=True),
                baselines[program.name], program.inputs, engine=engine)
            counts[engine] = cell.dynamic_checks
        parity[program.name] = counts

    labels = ("INX-NI", "INX-NI+inl", "INX-LLS", "INX-LLS+inl")
    lines = ["Subroutine inlining on the cross-call kernels",
             "",
             "dynamic checks remaining (baseline = naive checking)",
             ("%-10s %9s" + " %12s" * len(labels))
             % (("program", "naive") + labels)]
    for name, row in rows.items():
        lines.append(("%-10s %9d" + " %12d" * len(labels))
                     % ((name, baselines[name])
                        + tuple(row[l].dynamic_checks for l in labels)))
    lines += ["",
              "percent eliminated",
              ("%-10s" + " %12s" * len(labels)) % (("program",) + labels)]
    for name, row in rows.items():
        lines.append(("%-10s" + " %12.2f" * len(labels))
                     % ((name,)
                        + tuple(row[l].percent_eliminated for l in labels)))
    lines += ["",
              "INX-NI+inl dynamic checks by engine (parity)",
              "%-10s %10s %10s %12s" % ("program", "interp", "compiled",
                                        "specialized")]
    for name, counts in parity.items():
        lines.append("%-10s %10d %10d %12d"
                     % (name, counts["interp"], counts["compiled"],
                        counts["specialized"]))
    write_result(results_dir, "extension_inline.txt", "\n".join(lines))

    for name, row in rows.items():
        # the acceptance bar: inlined INX strictly beats its
        # non-inlined twin on every cross-call kernel, per scheme
        assert row["INX-NI+inl"].dynamic_checks \
            < row["INX-NI"].dynamic_checks, name
        assert row["INX-LLS+inl"].dynamic_checks \
            < row["INX-LLS"].dynamic_checks, name
    for name, counts in parity.items():
        assert counts["interp"] == counts["compiled"] \
            == counts["specialized"], name


WHILE_HEAVY = """
program whiley
  input integer :: n = 200, k = 5
  integer :: i
  real :: a(10)
  i = 1
  while (i <= n) do
    a(k) = a(k) + 1.0
    i = i + 1
  end while
  print a(5)
end program
"""


@pytest.mark.benchmark(group="extensions")
def test_rotation_enables_se(benchmark, results_dir):
    def run_ablation():
        baseline = compile_source(WHILE_HEAVY, optimize=False).run()
        plain = compile_source(
            WHILE_HEAVY, OptimizerOptions(scheme=Scheme.SE)).run()
        rotated = compile_source(
            WHILE_HEAVY, OptimizerOptions(scheme=Scheme.SE),
            rotate_loops=True).run()
        return (baseline.counters.checks, plain.counters.checks,
                rotated.counters.checks)

    base, plain, rotated = benchmark.pedantic(run_ablation, rounds=1,
                                              iterations=1)
    write_result(
        results_dir, "extension_rotation.txt",
        "SE on a while loop: %d checks naive, %d without rotation, "
        "%d with rotation" % (base, plain, rotated))
    assert rotated < plain <= base
    assert rotated <= 4  # the invariant checks left the loop
