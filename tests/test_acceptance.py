"""Acceptance gate: one test per criterion, each printing a pass/fail line.

The criteria map onto the verification suites (same seeds, same
tolerances), so the CLI surface and the acceptance run exercise identical
code paths. Criterion 13's first half is expected to fail: the printed
two-term expansions drop a square in their Taylor step and their remainder
is Theta(n^{-3/2}), not O(n^{-2}); see the repository's decisions notes.
That test is marked xfail(strict) so a silent flip to green would itself
be flagged. Everything else must pass.
"""

import math
import time

import pytest

from spectrees.extremal import (
    exact_psi_dc,
    expansion_dc2,
    expansion_dc3,
    limit_curve,
    search_extremal,
    tuned_dc2_params,
    tuned_dc3_params,
)
from spectrees.suites import run_suite


@pytest.fixture(scope="module")
def asymptotics_report():
    return run_suite("asymptotics")


def _report(number, label, rep, budget=None):
    ok = rep.all_pass
    line = f"criterion {number:>2} [{'PASS' if ok else 'FAIL'}] {label}: " \
           f"{rep.summary['passed']}/{rep.summary['cases']} cases in {rep.runtime:.2f}s"
    print(line)
    if budget is not None:
        assert rep.runtime < budget, f"runtime budget exceeded: {rep.runtime:.2f}s >= {budget}s"
    assert ok, f"criterion {number} failed: " + "; ".join(
        f"{c.id} (expected {c.expected}, got {c.got})" for c in rep.cases if not c.ok
    )


def test_criterion_01_figure2_reproduction():
    start = time.perf_counter()
    rep = run_suite("figure2")
    assert time.perf_counter() - start < 1.0
    _report(1, "six order-6 eigenpairs and their envelope", rep)


def test_criterion_02_max_sum_unique_balanced_comet():
    rep = run_suite("max-sum")
    _report(2, "spectral-sum maximizer for 5 <= n <= 14", rep)


def test_criterion_03_min_sum_star_then_path():
    rep = run_suite("min-sum")
    _report(3, "spectral-sum minimizer for 10 <= n <= 18", rep, budget=1800.0)


def test_criterion_04_lambda2_maximizers():
    rep = run_suite("lambda2-max")
    _report(4, "second-eigenvalue maximizers at n in {11,12,13,14}", rep)


def test_criterion_05_lambda2_second_best():
    rep = run_suite("lambda2-second")
    _report(5, "second-best lambda2 at n in {12,14}", rep)


def test_criterion_06_figure3_envelope_lines():
    start = time.perf_counter()
    rep = run_suite("figure3")
    assert time.perf_counter() - start < 1.0
    _report(6, "fifteen comet-envelope lines at n=26", rep)


def test_criterion_07_closed_form_consistency():
    rep = run_suite("closed-forms")
    _report(7, "bisection vs closed forms (1000 comets, 500 paths)", rep)


def test_criterion_08_oracle_equivalence():
    rep = run_suite("envelope-oracle")
    _report(8, "bisection vs dense oracle on every tree to n=10", rep)


def test_criterion_09_lemma_suites():
    rep = run_suite("lemmas")
    _report(9, "transform contracts, 500 seeded cases each", rep)


def test_criterion_10_identity_suites():
    rep = run_suite("identity")
    _report(10, "eigenvector identities and quadratic-form bound", rep)


def test_criterion_11_spectral_center():
    rep = run_suite("center")
    _report(11, "spectral center for every tree 2 <= n <= 10", rep)


def test_criterion_12_normalized_limit(asymptotics_report):
    rep = asymptotics_report
    keep = [c for c in rep.cases if c.id.startswith("normalized-max-alpha")]
    assert len(keep) == 4
    ok = all(c.ok for c in keep)
    print(f"criterion 12 [{'PASS' if ok else 'FAIL'}] comet-family limit at n=2000: "
          f"{sum(c.ok for c in keep)}/4 cases")
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="printed two-term expansions have a Theta(n^-3/2) remainder (dropped "
    "Taylor square); |exact - expansion| * n^2 grows like sqrt(n). Implemented "
    "as stated and allowed to fail; analysis in the decisions notes. The "
    "corrected curvature expansions pass the same bound (see asymptotics suite).",
)
def test_criterion_13_expansion_remainder():
    alpha = 0.75
    ns = (500, 1000, 2000, 4000)
    for label, tuned, expans in (
        ("order-3", tuned_dc3_params, expansion_dc3),
        ("order-2", tuned_dc2_params, expansion_dc2),
    ):
        rs = [abs(exact_psi_dc(tuned(n, alpha), alpha) - expans(n, alpha)) * n * n for n in ns]
        ok = rs[-1] <= 1.25 * max(rs[:-1])
        print(f"criterion 13 [{'PASS' if ok else 'FAIL'}] {label} remainder*n^2: "
              + " -> ".join(f"{r:.3g}" for r in rs))
        assert ok, f"{label} expansion remainder grows: {rs}"


def test_criterion_13_expansion_formula_order():
    # second half of criterion 13: the printed formulas order C above D
    ok = all(
        expansion_dc2(n, a) > expansion_dc3(n, a)
        for a in (0.6, 0.75, 0.9)
        for n in (500, 1000, 2000, 4000)
    )
    print(f"criterion 13 [{'PASS' if ok else 'FAIL'}] expansion_C above expansion_D (formulas)")
    assert ok


def test_criterion_14_structure_shapes(asymptotics_report):
    rep = asymptotics_report
    keep = [c for c in rep.cases if c.id.startswith("shape-")]
    assert len(keep) == 5
    ok = all(c.ok for c in keep)
    print(f"criterion 14 [{'PASS' if ok else 'FAIL'}] comet shapes at n in {{400,401}}: "
          f"{sum(c.ok for c in keep)}/5 cases")
    assert ok


def test_asymptotics_fails_only_the_printed_expansions(asymptotics_report):
    # criterion 13's known defect fails the printed expansions' n^2-bounded
    # remainders; every other case, the curvature expansions' included, passes
    failing = sorted(c.id for c in asymptotics_report.cases if not c.ok)
    assert failing == ["expansion-comet2-remainder-n2-bounded", "expansion-comet3-remainder-n2-bounded"]
    assert {"curvature-comet3-remainder-n2-bounded", "curvature-comet2-remainder-n2-bounded"} <= {
        c.id for c in asymptotics_report.cases}


def test_criterion_15_enumeration_counts():
    rep = run_suite("enum-counts")
    _report(15, "free-tree generator vs labeled oracle to n=10", rep)


def test_limit_curve_sanity():
    # the asymptotics suite compares against this curve; pin its corners
    assert limit_curve(0.0) == limit_curve(0.5) == math.sqrt(0.5)
    assert limit_curve(1.0) == 1.0


def test_search_determinism_across_workers():
    r1 = search_extremal(10, objective="min", family="all", key="sum", jobs=1)
    r2 = search_extremal(10, objective="min", family="all", key="sum", jobs=2)
    assert r1 == r2
