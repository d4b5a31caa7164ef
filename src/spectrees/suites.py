"""Verification suites keyed to the published extremal results and figures.

Each suite runs a batch of checks and returns a VerifyReport whose cases
carry (id, expected, got, tolerance, pass). A suite takes exactly (seed,
jobs), its orders and case counts fixed in its body; ``jobs`` only sets the
worker count of its exhaustive searches. Suites are deterministic: the
randomized ones draw from a seeded generator recorded in the report, so
reruns and CSV emissions are byte-identical.

Suite map: figure2 and figure3 reproduce the plotted constants; max-sum,
min-sum, lambda2-max and lambda2-second are the exhaustive extremal
statements; closed-forms and envelope-oracle cross-check the certified
bisection against closed forms and the dense plane-rotation oracle; lemmas
and identity exercise the transform contracts and the eigenvector
identities; center validates the spectral-center decomposition; asymptotics
covers the limit curve, the tuned-comet expansions and the structure
probes; enum-counts cross-checks the two independent enumerators.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field

import numpy as np

from .enumeration import (
    decode_parent_report,
    enumerate_free_trees,
    enumerate_labeled_oracle,
)
from .extremal import (
    curvature_expansion_dc2,
    curvature_expansion_dc3,
    dc_structure_probe,
    envelope,
    exact_psi_dc,
    expansion_dc2,
    expansion_dc3,
    limit_curve,
    psi,
    search_extremal,
    tuned_dc2_params,
    tuned_dc3_params,
)
from .spectra import (
    EigenvectorData,
    Lambda2MultiplicityError,
    TopTwo,
    count_eigenvalues_above,
    dc_top_two_closed,
    dense_eigh,
    dense_spectrum_oracle,
    ev_ev_identity_residual,
    local_equation_residuals,
    path_eigenvalue,
    spectral_center,
    spectral_sum_lower_bound,
    top_two,
)
from .transforms import (
    ROTATION_GAIN_MARGIN,
    contract_internal_edge,
    hanging_path_shift,
    kelmans,
    rotate,
    rotation_gain,
)
from .trees import (
    DoubleCometParams,
    Tree,
    _integer,
    canonical_code,
    double_comet_code,
    make_double_comet,
    make_path,
    make_star,
)


@dataclass(frozen=True)
class CaseResult:
    id: str
    expected: object
    got: object
    tolerance: float
    ok: bool


@dataclass
class VerifyReport:
    suite: str
    seed: int
    cases: list = field(default_factory=list)
    runtime: float = 0.0

    @property
    def all_pass(self) -> bool:
        return all(c.ok for c in self.cases)

    @property
    def summary(self) -> dict:
        passed = sum(1 for c in self.cases if c.ok)
        return {"cases": len(self.cases), "passed": passed, "failed": len(self.cases) - passed}

    def case(self, cid, expected, got, tolerance, ok=None):
        if ok is None:
            ok = abs(got - expected) <= tolerance
        self.cases.append(CaseResult(cid, expected, got, tolerance, bool(ok)))


def _code(t: Tree) -> str:
    return canonical_code(t).decode()


def _dc_code(k1, k2, ell) -> str:
    return double_comet_code(DoubleCometParams(k1, k2, ell)).decode()


def _random_tree(rng: random.Random, n: int) -> Tree:
    if n <= 2:
        return make_path(n)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    return Tree(n, decode_parent_report(seq, n))


# Plotted (lam1, lam2) pairs for the six trees of order 6.
FIGURE2_PAIRS = (
    (1.80193, 1.24697),
    (2.23606, 0.0),
    (1.90211, 1.17557),
    (2.0, 1.0),
    (1.93185, 1.0),
    (2.07431, 0.83499),
)

# The fifteen supporting lines of the order-26 comet-family envelope.
FIGURE3_PAIRS = (
    (5.0, 0.0),
    (4.903406609757669, 0.9780611531927870),
    (4.805705988739693, 1.380286184018175),
    (4.707080194548844, 1.686237243713357),
    (4.607832961196238, 1.941101594897472),
    (4.508462922244040, 2.161888544479279),
    (4.409787069091307, 2.356645498431000),
    (4.313151725579202, 2.529174211503263),
    (4.220790554667138, 2.680471431228596),
    (4.136396043495647, 2.808954925119582),
    (4.065849096332680, 2.910132492834429),
    (4.017468723542258, 2.976565983706685),
    (4.0, 3.0),
    (3.690262048791372, 3.373716942965149),
    (3.520892626084280, 3.431375296157698),
)


def _envelope_deviation(n: int, trees) -> float:
    """Largest distance of envelope(n) from the pointwise max of psi over trees, at 101 alphas."""
    env = envelope(n, "all")
    tts = [top_two(t) for t in trees]  # psi's own arithmetic, on one certification per tree
    alphas = [i / 100.0 for i in range(101)]
    return max(abs(env.value(a) - max(a * tt.lam1 + (1.0 - a) * tt.lam2 for tt in tts)) for a in alphas)


def suite_figure2(seed: int, jobs: int):
    rep = VerifyReport("figure2", seed)
    trees = list(enumerate_free_trees(6))
    got_pairs = []
    for t in trees:
        tt = top_two(t)
        got_pairs.append((tt.lam1, tt.lam2, t))
    used = set()
    for l1, l2, t in sorted(got_pairs, reverse=True):
        best = None
        for i, (e1, e2) in enumerate(FIGURE2_PAIRS):
            if i in used:
                continue
            dev = max(abs(l1 - e1), abs(l2 - e2))
            if best is None or dev < best[0]:
                best = (dev, i)
        used.add(best[1])
        e1, e2 = FIGURE2_PAIRS[best[1]]
        rep.case(f"pair-({e1},{e2})", 0.0, best[0], 1e-5)
    rep.case("envelope-vs-pointwise-max", 0.0, _envelope_deviation(6, trees), 1e-10)
    return rep


def suite_figure3(seed: int, jobs: int):
    rep = VerifyReport("figure3", seed)
    env = envelope(26, "dc")
    lines = {(s.lam1, s.lam2) for s in env.segments}
    for e1, e2 in FIGURE3_PAIRS:
        dev = min(max(abs(l1 - e1), abs(l2 - e2)) for l1, l2 in lines)
        rep.case(f"line-({e1:.6g},{e2:.6g})", 0.0, dev, 1e-9)
    return rep


def suite_max_sum(seed: int, jobs: int):
    rep = VerifyReport("max-sum", seed)
    for n in range(5, 15):
        res = search_extremal(n, objective="max", family="all", key="sum", jobs=jobs)
        want = _dc_code((n - 3) // 2, (n - 3) - (n - 3) // 2, 3)
        ok = res.resolved and res.winner_codes == (want,)
        rep.case(f"n={n}-unique-balanced-comet3", want[:24], res.winner_codes[0][:24], 0.0, ok)
    return rep


def suite_min_sum(seed: int, jobs: int):
    rep = VerifyReport("min-sum", seed)
    winner16 = None
    for n in range(10, 19):
        res = search_extremal(n, objective="min", family="all", key="sum", jobs=jobs)
        if n <= 15:
            want = _code(make_star(n))
            label = f"n={n}-star"
        else:
            want = _code(make_path(n))
            label = f"n={n}-path-unique"
        ok = res.winner_codes == (want,) and res.resolved
        rep.case(label, want[:24], res.winner_codes[0][:24], 0.0, ok)
        if n == 16:
            winner16 = res.winners[0]
    # boundary cross-check: at n=16 the path formula value undercuts the star
    star16 = math.sqrt(15.0)
    path16 = path_eigenvalue(16, 1) + path_eigenvalue(16, 2)
    # plotted constants carry 5 displayed digits (3.83088 is itself rounded off
    # the true 3.8308906...), so compare at their printed precision
    rep.case("boundary-star16-display", 3.87298, star16, 2e-5)
    rep.case("boundary-path16-display", 3.83088, path16, 2e-5)
    rep.case("boundary-order", 0.0, 0.0 if path16 < star16 else 1.0, 0.0, path16 < star16)
    if winner16 is not None:
        got = 0.5 * (winner16.lo + winner16.hi)
        rep.case("boundary-path16-exact-formula", path16, got, 1e-9)
    return rep


def suite_lambda2_max(seed: int, jobs: int):
    rep = VerifyReport("lambda2-max", seed)
    for n in (11, 13):
        res = search_extremal(n, objective="max", family="all", key="lam2", jobs=jobs)
        allowed = {
            _dc_code((n - 3) // 2, (n - 3) // 2, 3),
            _dc_code((n - 3) // 2, (n - 5) // 2, 4),
            _dc_code((n - 5) // 2, (n - 5) // 2, 5),
        }
        ok = set(res.winner_codes) <= allowed and len(res.winner_codes) >= 1
        rep.case(f"n={n}-maximizers-in-3-set", "subset", "subset" if ok else "outside", 0.0, ok)
    for n in (12, 14):
        res = search_extremal(n, objective="max", family="all", key="lam2", jobs=jobs)
        want = _dc_code((n - 4) // 2, (n - 4) // 2, 4)
        ok = res.resolved and res.winner_codes == (want,)
        rep.case(f"n={n}-unique-balanced-comet4", want[:24], res.winner_codes[0][:24], 0.0, ok)
    return rep


def suite_lambda2_second(seed: int, jobs: int):
    rep = VerifyReport("lambda2-second", seed)
    for n in (12, 14):
        best = _dc_code((n - 4) // 2, (n - 4) // 2, 4)
        res = search_extremal(n, objective="max", family="all", key="lam2",
                              jobs=jobs, exclude={best})
        want = _dc_code((n - 4) // 2, (n - 2) // 2, 3)
        ok = res.resolved and res.winner_codes == (want,)
        rep.case(f"n={n}-second-best-shape", want[:24], res.winner_codes[0][:24], 0.0, ok)
        got = 0.5 * (res.winners[0].lo + res.winners[0].hi)
        rep.case(f"n={n}-second-best-value", math.sqrt((n - 1 - math.sqrt(5.0)) / 2.0), got, 1e-10)
    return rep


def suite_closed_forms(seed: int, jobs: int):
    rep = VerifyReport("closed-forms", seed)
    dc_cases, path_cases = 1000, 500
    rng = random.Random(seed)
    worst1 = worst2 = 0.0
    for _ in range(dc_cases):
        ell = rng.choice((2, 3))
        n = rng.randrange(ell + 3, 501)
        k1 = rng.randrange(1, n - ell)
        p = DoubleCometParams(k1, n - ell - k1, ell)
        tt = top_two(make_double_comet(p))
        c1, c2 = dc_top_two_closed(p)
        worst1 = max(worst1, abs(tt.lam1 - c1))
        worst2 = max(worst2, abs(tt.lam2 - c2))
    rep.case(f"comet-lam1-worst-of-{dc_cases}", 0.0, worst1, 1e-9)
    rep.case(f"comet-lam2-worst-of-{dc_cases}", 0.0, worst2, 1e-9)
    worst1 = worst2 = 0.0
    for _ in range(path_cases):
        n = rng.randrange(2, 501)
        tt = top_two(make_path(n))
        worst1 = max(worst1, abs(tt.lam1 - path_eigenvalue(n, 1)))
        if n >= 2:
            worst2 = max(worst2, abs(tt.lam2 - path_eigenvalue(n, 2)))
    rep.case(f"path-lam1-worst-of-{path_cases}", 0.0, worst1, 1e-9)
    rep.case(f"path-lam2-worst-of-{path_cases}", 0.0, worst2, 1e-9)
    return rep


def suite_envelope_oracle(seed: int, jobs: int):
    rep = VerifyReport("envelope-oracle", seed)
    rng = random.Random(seed)
    for n in range(2, 11):
        trees = list(enumerate_free_trees(n))
        enclosed = True
        count_mismatch = 0
        pad = 2e-12  # oracle off-norm allowance
        for t in trees:
            tt = top_two(t)
            vals = dense_spectrum_oracle(t)
            if not (tt.lam1_lo - pad <= vals[0] <= tt.lam1_hi + pad):
                enclosed = False
            if not (tt.lam2_lo - pad <= vals[1] <= tt.lam2_hi + pad):
                enclosed = False
            span = math.sqrt(n - 1) + 0.1
            for _ in range(20):
                x = rng.uniform(-span, span)
                if count_eigenvalues_above(t, x).above != sum(1 for v in vals if v > x):
                    count_mismatch += 1
        rep.case(f"n={n}-enclosure", True, enclosed, 0.0, enclosed)
        rep.case(f"n={n}-count-agreement", 0, count_mismatch, 0.0, count_mismatch == 0)
    for n in (8, 9, 10):
        rep.case(f"n={n}-envelope-vs-max", 0.0, _envelope_deviation(n, list(enumerate_free_trees(n))), 1e-10)
    return rep


def _sample_kelmans(rng: random.Random):
    # strictness needs incomparable private neighborhoods (a private
    # neighbor on both sides), else the rewiring no-ops or just swaps u, v
    while True:
        n = rng.randrange(4, 15)
        t = _random_tree(rng, n)
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v or t.distance(u, v) > 2:
            continue
        nu = set(t.adjacency[u]) - {v}
        nv = set(t.adjacency[v]) - {u}
        if (not nu <= nv) and (not nv <= nu):
            return t, u, v


def _spider(legs) -> Tree:
    """Paths of the given lengths hung from vertex 0, numbered leg by leg."""
    edges = []
    for leg in legs:
        prev = 0
        for _ in range(leg):
            edges.append((prev, len(edges) + 1))
            prev = len(edges)
    return Tree(len(edges) + 1, edges)


def suite_lemmas(seed: int, jobs: int):
    rep = VerifyReport("lemmas", seed)
    rng = random.Random(seed)
    cases = 500

    violations = 0
    for _ in range(cases):
        t, u, v = _sample_kelmans(rng)
        out = kelmans(t, u, v)
        if not out.certificates["after"].lam1_lo > out.certificates["before"].lam1_hi:
            violations += 1
    rep.case(f"rewire-strict-lam1-increase-{cases}", 0, violations, 0.0, violations == 0)

    violations = 0
    done = 0
    while done < cases:
        n = rng.randrange(6, 15)
        t = _random_tree(rng, n)
        internal = [
            (u, v)
            for u, v in t.edges()
            if min(t.degree(u), t.degree(v)) >= 2
        ]
        rng.shuffle(internal)
        found = None
        for u, v in internal:
            try:
                found = contract_internal_edge(t, u, v)
                break
            except ValueError:
                continue
        if found is None:
            continue
        done += 1
        before, after = found.certificates["before"], found.certificates["after"]
        if after.lam1_hi < before.lam1_lo - 1e-10:
            violations += 1
        if found.strict_expected and not after.lam1_lo > before.lam1_hi:
            violations += 1
    rep.case(f"contraction-monotone-{cases}", 0, violations, 0.0, violations == 0)

    violations = 0
    done = 0
    while done < cases:
        n = rng.randrange(5, 15)
        legs = []
        left = n - 1
        while left > 0:
            if len(legs) >= 2 and left <= 2:
                legs.append(left)
                left = 0
            else:
                take = rng.randrange(1, left + 1)
                legs.append(take)
                left -= take
        if len(legs) < 3:
            continue
        t = _spider(legs)
        pair = [leg for leg in legs]
        rng.shuffle(pair)
        k, ell = max(pair[0], pair[1]), min(pair[0], pair[1])
        out = hanging_path_shift(t, 0, k, ell)
        done += 1
        if not out.certificates["after"].lam1_hi < out.certificates["before"].lam1_lo:
            violations += 1
    rep.case(f"hanging-path-strict-decrease-{cases}", 0, violations, 0.0, violations == 0)

    # exhaustive two-leg ordering over all spiders up to order 14
    violations = 0
    checked = 0
    for n in range(5, 15):
        for legs in _partitions_at_least(n - 1, 3):
            t = _spider(legs)
            seen_pairs = set()
            for i in range(len(legs)):
                for j in range(len(legs)):
                    if i == j:
                        continue
                    k, ell = legs[i], legs[j]
                    if k < ell or (k, ell) in seen_pairs:
                        continue
                    seen_pairs.add((k, ell))
                    out = hanging_path_shift(t, 0, k, ell)
                    checked += 1
                    if not out.certificates["after"].lam1_hi < out.certificates["before"].lam1_lo:
                        violations += 1
    rep.case(f"hanging-path-exhaustive-spiders-{checked}", 0, violations, 0.0, violations == 0)

    violations = 0
    done = 0
    while done < cases:
        n = rng.randrange(5, 15)
        t = _random_tree(rng, n)
        alpha = rng.choice((0.5, 0.7, 0.9))
        v = rng.randrange(n)
        nbrs = t.adjacency[v]
        if len(nbrs) < 2:
            continue
        u, w = rng.sample(list(nbrs), 2)
        try:
            gain = rotation_gain(t, alpha, u, v, w)
        except Lambda2MultiplicityError:
            continue
        if gain <= ROTATION_GAIN_MARGIN:
            continue
        done += 1
        before = psi(t, alpha)
        after = psi(rotate(t, u, v, w).after, alpha)
        if not after.lo > before.hi:
            violations += 1
    rep.case(f"rotation-gain-implication-{cases}", 0, violations, 0.0, violations == 0)
    return rep


def _partitions_at_least(total: int, min_parts: int):
    """Nonincreasing partitions of total into at least min_parts parts."""
    out = []

    def rec(rest, most, acc):
        if rest == 0:
            if len(acc) >= min_parts:
                out.append(tuple(acc))
            return
        for part in range(min(most, rest), 0, -1):
            acc.append(part)
            rec(rest - part, part, acc)
            acc.pop()

    rec(total, total, [])
    return out


def suite_identity(seed: int, jobs: int):
    rep = VerifyReport("identity", seed)
    rng = random.Random(seed)
    cases = 200

    worst = 0.0
    done = 0
    while done < cases:
        n = rng.randrange(3, 13)
        t = _random_tree(rng, n)
        k = rng.choice((1, 2))
        v = rng.randrange(n)
        try:
            worst = max(worst, ev_ev_identity_residual(t, k, v))
        except ValueError:
            continue
        done += 1
    rep.case(f"eigenvector-eigenvalue-identity-{cases}", 0.0, worst, 1e-8)

    worst1 = worst2 = 0.0
    for _ in range(100):
        n = rng.randrange(3, 11)
        t = _random_tree(rng, n)
        vals, vecs = dense_eigh(t)
        for k in (0, 1):
            ev = EigenvectorData(float(vals[k]), tuple(float(x) for x in vecs[:, k]), 0.0)
            r1, r2 = local_equation_residuals(t, ev)
            worst1 = max(worst1, r1)
            worst2 = max(worst2, r2)
    rep.case("local-eq-distance2-oracle-pairs", 0.0, worst1, 1e-8)
    rep.case("local-eq-distance3-oracle-pairs", 0.0, worst2, 1e-8)

    # a visibly non-eigenpair vector must violate the distance-2 equation
    # (a path, where the shifted vector is not in the identity's kernel)
    t = make_path(6)
    vals, vecs = dense_eigh(t)
    bad = EigenvectorData(float(vals[0]), tuple(float(x) + 0.01 for x in vecs[:, 0]), 0.0)
    r1, _ = local_equation_residuals(t, bad)
    rep.case("local-eq-rejects-perturbed", True, r1 > 1e-3, 0.0, r1 > 1e-3)

    worst = -math.inf
    violations = 0
    for _ in range(cases):
        n = rng.randrange(3, 13)
        t = _random_tree(rng, n)
        x = np.array([rng.gauss(0, 1) for _ in range(n)])
        y = np.array([rng.gauss(0, 1) for _ in range(n)])
        x /= math.sqrt(float(x @ x))
        y -= float(x @ y) * x
        y /= math.sqrt(float(y @ y))
        got = spectral_sum_lower_bound(t, x, y)
        tt = top_two(t)
        slack = (tt.lam1_hi + tt.lam2_hi + 1e-8) - got
        worst = max(worst, got - (tt.lam1_hi + tt.lam2_hi))
        if slack < 0:
            violations += 1
    rep.case(f"orthogonal-pair-bound-{cases}", 0, violations, 0.0, violations == 0)

    worst_eq = 0.0
    for _ in range(50):
        n = rng.randrange(3, 13)
        t = _random_tree(rng, n)
        vals, vecs = dense_eigh(t)
        got = spectral_sum_lower_bound(t, vecs[:, 0], vecs[:, 1])
        worst_eq = max(worst_eq, abs(got - float(vals[0] + vals[1])))
    rep.case("orthogonal-pair-equality-at-eigenvectors", 0.0, worst_eq, 1e-8)
    return rep


def suite_center(seed: int, jobs: int):
    rep = VerifyReport("center", seed)
    vertex_cases = edge_cases = reported = 0
    worst_vertex = 0.0
    worst_margin = math.inf
    for n in range(2, 11):
        for t in enumerate_free_trees(n):
            try:
                c = spectral_center(t)
            except Lambda2MultiplicityError:
                reported += 1
                continue
            lam2 = c.checks["lam2"]
            if c.kind == "spectral-vertex":
                vertex_cases += 1
                worst_vertex = max(worst_vertex, abs(c.checks["lam1_h1"] - lam2),
                                   abs(c.checks["lam1_h2"] - lam2))
            else:
                edge_cases += 1
                margin = min(
                    c.checks["lam1_h1"] - lam2,
                    c.checks["lam1_h2"] - lam2,
                    lam2 - c.checks["lam1_h1_minus_a"],
                    lam2 - c.checks["lam1_h2_minus_b"],
                )
                worst_margin = min(worst_margin, margin)
    rep.case(f"vertex-case-equalities-({vertex_cases} trees)", 0.0, worst_vertex, 1e-7)
    ok = worst_margin > 1e-9
    rep.case(f"edge-case-sandwich-({edge_cases} trees)", True, ok, 0.0, ok)
    rep.case(f"multiplicity-reported-({reported} trees)", True, reported > 0, 0.0, reported > 0)
    return rep


def suite_asymptotics(seed: int, jobs: int):
    rep = VerifyReport("asymptotics", seed)
    big_n = 2000
    for alpha in (0.3, 0.5, 0.7, 0.9):
        res = search_extremal(big_n, alpha=alpha, objective="max", family="dc", key="psi")
        w = res.winners[0]
        val = 0.5 * (w.lo + w.hi) / math.sqrt(big_n - 1)
        rep.case(f"normalized-max-alpha={alpha}", limit_curve(alpha), val, 0.02)

    # two-term expansions as printed: remainder * n^2 must not keep growing
    alpha = 0.75
    ns = (500, 1000, 2000, 4000)
    for name, tuned, expans in (
        ("comet3", tuned_dc3_params, expansion_dc3),
        ("comet2", tuned_dc2_params, expansion_dc2),
    ):
        rs = [abs(exact_psi_dc(tuned(n, alpha), alpha) - expans(n, alpha)) * n * n for n in ns]
        ok = rs[-1] <= 1.25 * max(rs[:-1])
        rep.case(f"expansion-{name}-remainder-n2-bounded", "no growth",
                 f"{rs[0]:.3g}->{rs[-1]:.3g}", 0.0, ok)
    ok = all(
        expansion_dc2(n, a) > expansion_dc3(n, a)
        for a in (0.6, 0.75, 0.9)
        for n in ns
    )
    rep.case("expansion-comet2-above-comet3", True, ok, 0.0, ok)
    for name, tuned, expans in (
        ("comet3", tuned_dc3_params, curvature_expansion_dc3),
        ("comet2", tuned_dc2_params, curvature_expansion_dc2),
    ):
        rs = [abs(exact_psi_dc(tuned(n, alpha), alpha) - expans(n, alpha)) * n * n for n in ns]
        rep.case(f"curvature-{name}-remainder-n2-bounded", 0.0, max(rs), 5.0)

    for n, alpha, label in (
        (401, 0.2, "shape-n=401-alpha=0.2"),
        (400, 0.2, "shape-n=400-alpha=0.2"),
        (400, 0.25, "shape-n=400-alpha=0.25-order4"),
        (400, 0.30, "shape-n=400-alpha=0.30-order3"),
    ):
        probe = dc_structure_probe(n, alpha)
        rep.case(label, str(probe.predicted), str(probe.winner), 0.0, probe.matches_predicted)
    probe = dc_structure_probe(400, 0.8)
    ok = probe.ell_is_2 and probe.hub_share_dev is not None and probe.hub_share_dev <= 0.05
    rep.case("shape-n=400-alpha=0.8-order2-band", True, ok, 0.0, ok)
    return rep


def suite_enum_counts(seed: int, jobs: int):
    rep = VerifyReport("enum-counts", seed)
    counts = [0]  # the class count of order n at index n
    for n in range(1, 11):
        free = {_code(t) for t in enumerate_free_trees(n)}
        orac = {_code(t) for t in enumerate_labeled_oracle(n)}
        counts.append(len(free))
        rep.case(f"n={n}-class-sets-equal", len(orac), len(free), 0.0, free == orac)
        rep.case(f"n={n}-count-monotone", True, counts[n] >= counts[n - 1], 0.0, counts[n] >= counts[n - 1])
    rep.case("n=8-expected-23", 23, counts[8], 0.0, counts[8] == 23)
    rep.case("n=10-expected-106", 106, counts[10], 0.0, counts[10] == 106)
    return rep


SUITES = {
    "figure2": suite_figure2,
    "figure3": suite_figure3,
    "max-sum": suite_max_sum,
    "min-sum": suite_min_sum,
    "lambda2-max": suite_lambda2_max,
    "lambda2-second": suite_lambda2_second,
    "closed-forms": suite_closed_forms,
    "lemmas": suite_lemmas,
    "identity": suite_identity,
    "center": suite_center,
    "asymptotics": suite_asymptotics,
    "envelope-oracle": suite_envelope_oracle,
    "enum-counts": suite_enum_counts,
}


def run_suite(name: str, seed: int = 0, jobs: int = 1) -> VerifyReport:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    seed, jobs = _integer("seed", seed, -math.inf), _integer("jobs", jobs, 1)
    start = time.perf_counter()
    rep = SUITES[name](seed, jobs)
    rep.runtime = time.perf_counter() - start
    return rep


# -- emission ---------------------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".15g")
    return str(x)


def report_to_csv(report: VerifyReport) -> str:
    lines = [f"# suite={report.suite} seed={report.seed}"]
    lines.append("id,expected,got,tolerance,pass")
    for c in report.cases:
        lines.append(
            f"{c.id},{_fmt(c.expected)},{_fmt(c.got)},{_fmt(c.tolerance)},{int(c.ok)}"
        )
    return "\n".join(lines) + "\n"


def envelope_csv_rows(env):
    """The lines of an envelope's CSV, each ending in a newline, one segment at a time."""
    yield "alpha_lo,alpha_hi,lambda1,lambda2,witness_code\n"
    for s in env.segments:
        yield f"{_fmt(s.alpha_lo)},{_fmt(s.alpha_hi)},{_fmt(s.lam1)},{_fmt(s.lam2)},{s.witness_code}\n"


def envelope_to_csv(env) -> str:
    return "".join(envelope_csv_rows(env))


def spectrum_to_csv(tt: TopTwo, spectrum=None) -> str:
    """CSV of a tree's ``top_two`` enclosures, or of its full spectrum when one is given."""
    if spectrum is not None:
        lines = ["index,eigenvalue", *(f"{i},{_fmt(v)}" for i, v in enumerate(spectrum, start=1))]
    else:
        lines = ["quantity,lo,hi", f"lambda1,{_fmt(tt.lam1_lo)},{_fmt(tt.lam1_hi)}",
                 f"lambda2,{_fmt(tt.lam2_lo)},{_fmt(tt.lam2_hi)}"]
    return "\n".join(lines) + "\n"


def emit_csv(lines, path: str) -> None:
    """Write the strings of ``lines`` to ``path``, one at a time."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(lines)
    except OSError as exc:
        raise OSError(f"could not write {path}: {exc}") from exc
