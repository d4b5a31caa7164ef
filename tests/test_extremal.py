import math
import random
import sys
import threading
import tracemalloc
from dataclasses import astuple
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from oracles import batch_top_two, degree_brackets, exact_tree_counts, level_degrees

from spectrees import enumeration, extremal
from spectrees.enumeration import (
    _level_seq_edges,
    count_double_comets,
    count_free_trees,
    double_comet_params,
    enumerate_free_trees,
)
from spectrees.extremal import (
    AsymptoticParams,
    _dc_pair_intervals,
    dc_structure_probe,
    envelope,
    exact_psi_dc,
    expansion_dc2,
    expansion_dc3,
    limit_curve,
    normalized_envelope,
    psi,
    search_extremal,
    spectral_gap_min,
    tuned_dc2_params,
    tuned_dc3_params,
)
from spectrees.spectra import TOL, TreeBatch, top_two
from spectrees.suites import envelope_to_csv
from spectrees.trees import (
    DoubleCometParams,
    Tree,
    TreeError,
    canonical_code,
    double_comet_code,
    make_double_comet,
    make_path,
    make_star,
)

ENVELOPE_26_DC = """\
alpha_lo,alpha_hi,lambda1,lambda2,witness_code
0,0.253970479885691,3.52089262608441,3.43137529615794,2((()()()()()()()()()()()))((()()()()()()()()()()()))
0.253970479885691,0.529319682652895,3.69026204879122,3.3737169429654,2((()()()()()()()()()()()))(()()()()()()()()()()()())
0.529319682652895,0.545353139589531,3.78190106133586,3.27066115063452,1(((()()()()()()()()()()))()()()()()()()()()()()()())
0.545353139589531,0.562942138172083,3.89776633516802,3.13167967653676,1(((()()()()()()()()()))()()()()()()()()()()()()()())
0.562942138172083,0.572920454404841,3.99999999999974,2.99999999999956,2(()()()()()()()()()()()())(()()()()()()()()()()()())
0.572920454404841,0.578619068753132,4.01746872354237,2.97656598370649,1(((()()()()()()()()))()()()()()()()()()()()()()()())
0.578619068753132,0.589185345997958,4.06584909633243,2.91013249283427,1((()()()()()()()()()())()()()()()()()()()()()()()())
0.589185345997958,0.60355457508866,4.13639604349569,2.80895492511958,1(((()()()()()()()))()()()()()()()()()()()()()()()())
0.60355457508866,0.614810933909109,4.22079055466691,2.68047143122844,1((()()()()()()()())()()()()()()()()()()()()()()()())
0.614810933909109,0.624180905575378,4.25325404175992,2.628655560596,1(((()()()()()()))()()()()()()()()()()()()()()()()())
0.624180905575378,0.636245225802907,4.31315172557936,2.52917421150295,1((()()()()()()())()()()()()()()()()()()()()()()()())
0.636245225802907,0.646926456983618,4.36766221438672,2.43382965324548,1(((()()()()()))()()()()()()()()()()()()()()()()()())
0.646926456983618,0.660075143637552,4.40978706909153,2.35664549843085,1((()()()()()())()()()()()()()()()()()()()()()()()())
0.660075143637552,0.672198069560704,4.47955053272208,2.22117694585319,1(((()()()()))()()()()()()()()()()()()()()()()()()())
0.672198069560704,0.686877960203738,4.50846292224413,2.16188854447903,1((()()()()())()()()()()()()()()()()()()()()()()()())
0.686877960203738,0.700805107831373,4.58896735489713,1.98529056203094,1(((()()()))()()()()()()()()()()()()()()()()()()()())
0.700805107831373,0.717790647662585,4.607832961196,1.94110159489733,1((()()()())()()()()()()()()()()()()()()()()()()()())
0.717790647662585,0.734263016367009,4.69600751567465,1.71683237758621,1(((()()))()()()()()()()()()()()()()()()()()()()()())
0.734263016367009,0.755106786699767,4.70708019454857,1.68623724371331,1((()()())()()()()()()()()()()()()()()()()()()()()())
0.755106786699767,0.775712137895784,4.80078238986757,1.39731472658623,1(((()))()()()()()()()()()()()()()()()()()()()()()())
0.775712137895784,0.804569698198695,4.8057059887399,1.38028618401792,1((()())()()()()()()()()()()()()()()()()()()()()()())
0.804569698198695,0.910116799084619,4.90340660975781,0.978061153192738,1((())()()()()()()()()()()()()()()()()()()()()()()())
0.910116799084619,1,5,0,1(()()()()()()()()()()()()()()()()()()()()()()()()())
"""

ENVELOPE_10_ALL = """\
alpha_lo,alpha_hi,lambda1,lambda2,witness_code
0,0.299131671439644,2.19869124351578,1.91222917848477,2((()()()))((()()()))
0.299131671439644,0.583677297370038,2.37023922605897,1.83901223792812,2((()()()))(()()()())
0.583677297370038,0.612869670869262,2.51053293898542,1.64232285567337,1(((()()))()()()()())
0.612869670869262,0.629017751260824,2.56155281280883,1.56155281280911,2(()()()())(()()()())
0.629017751260824,0.651341845719645,2.60600994769345,1.4861736616296,1((()()())()()()()())
0.651341845719645,0.673179541808242,2.6818990293383,1.34440231940889,1(((()))()()()()()())
0.673179541808242,0.716505941367054,2.71519452770292,1.2758207855068,1((()())()()()()()())
0.716505941367054,0.863233613706635,2.85307815256408,0.927332224911736,1((())()()()()()()())
0.863233613706635,1,3,0,1(()()()()()()()()())
"""


def code_of(*params):
    return canonical_code(make_double_comet(DoubleCometParams(*params))).decode()


def as_pairs(br):
    """((l1_lo, l1_hi), (l2_lo, l2_hi)) per column of a (4, m) bracket array, as Python floats."""
    return [((a, b), (c, d)) for a, b, c, d in br.T.tolist()]


def hexes(br):
    """The float hex of the four ends per column of a (4, m) bracket array: equal only bit for bit."""
    return [tuple(map(float.hex, b)) for b in br.T.tolist()]


def exact(out):
    """A pass's ``(ms, br, ...)``: one (member tuple, *bracket hexes) per row, the floats after it in hex."""
    ms, br, *rest = out
    rows = [(tuple(m), *b) for m, b in zip(ms.tolist(), hexes(br))]
    return rows, [x.hex() if isinstance(x, float) else x for x in rest]


def exact_quotient_counts(p, x):
    """(above, equal) of comet p's quotient path at x, by the pivot recurrence over Fractions.

    The path runs k1-class, ell path vertices, k2-class (empty classes
    dropped) with edge weights k1, 1, ..., 1, k2, and each pivot is
    d = -x - w/d_child. A zero child pivot takes the repair: it becomes 2,
    the parent's -1/2, and the parent's edge onward is cut.
    """
    weights = [p.k1] * (p.k1 > 0) + [1] * (p.ell - 1) + [p.k2] * (p.k2 > 0)
    x = Fraction(x)
    d, fed = [], False  # fed: the last vertex still feeds the next
    for w in [None, *weights]:
        if fed and d[-1] == 0:
            d[-1] = Fraction(2)
            d.append(Fraction(-1, 2))
            fed = False
        else:
            d.append(-x - (w / d[-1] if fed else 0))
            fed = True
    return sum(v > 0 for v in d), sum(v == 0 for v in d)


def assert_star_pair(n, l1, l2):
    # sqrt(n-1) inside lam1's bracket, lam2 exact
    (lo, hi), (a, b) = l1, l2
    assert Fraction(lo) ** 2 <= n - 1 <= Fraction(hi) ** 2, (n, l1)
    assert a == b == (-1.0 if n == 2 else 0.0), (n, l2)


class TestPsi:
    def test_endpoints(self):
        t = make_double_comet(DoubleCometParams(3, 2, 4))
        v1 = psi(t, 1.0)
        v0 = psi(t, 0.0)
        assert abs(v1.value - v1.lam1) < 1e-12
        assert abs(v0.value - v0.lam2) < 1e-12

    def test_half_on_small_comet(self):
        v = psi(make_double_comet(DoubleCometParams(1, 2, 3)), 0.5)
        assert abs(v.value - 1.53884) < 1e-5

    def test_alpha_guard(self):
        for alpha in (1.5, True, False):
            with pytest.raises(ValueError, match="alpha"):
                psi(make_path(4), alpha)
            with pytest.raises(ValueError, match="alpha"):
                search_extremal(6, alpha=alpha)

    def test_monotone_in_alpha(self):
        t = make_path(7)
        vals = [psi(t, a).value for a in (0.0, 0.25, 0.5, 0.75, 1.0)]
        assert vals == sorted(vals)


class TestKeyInterval:
    KEYS = [("psi", a) for a in (0.0, 0.1, 0.3, 0.5, 0.7, 1.0)] + [(k, None) for k in ("sum", "lam1", "lam2", "gap")]

    def test_negated_coefficients_mirror_the_interval(self):
        # a minimum is searched as the maximum of the negated key, so -c must give exactly (-hi, -lo)
        trees = [make_path(2), make_star(5), make_path(6), make_double_comet(DoubleCometParams(3, 2, 4))]
        pairs = [((tt.lam1_lo, tt.lam1_hi), (tt.lam2_lo, tt.lam2_hi)) for tt in map(top_two, trees)]
        pairs += [((0.5, 2.0), (0.0, 2.0)), ((1.0, 1.5), (-1.0, 0.25))]  # coarse brackets, lam2 across 0
        l1_lo, l1_hi, l2_lo, l2_hi = batch_top_two(next(enumeration.free_tree_level_chunks(9)).levels)
        arrays = [((l1_lo, l1_hi), (l2_lo, l2_hi)), ((0.0 * l1_lo, l1_hi), (0.0 * l2_lo, l1_hi))]
        for key, alpha in self.KEYS:
            c = extremal._coeffs(key, alpha)
            neg = (-c[0], -c[1])
            for l1, l2 in pairs:
                lo, hi = extremal._key_interval(c, l1, l2)
                assert lo <= hi and extremal._key_interval(neg, l1, l2) == (-hi, -lo), (key, alpha, l1, l2)
            for l1, l2 in arrays:
                lo, hi = extremal._key_interval(c, l1, l2)
                nlo, nhi = extremal._key_interval(neg, l1, l2)
                assert (lo <= hi).all() and np.array_equal(nlo, -hi) and np.array_equal(nhi, -lo), (key, alpha)


class TestSearch:
    def test_max_sum_n7_unique(self):
        res = search_extremal(7, objective="max", family="all", key="sum")
        assert res.winner_codes == (code_of(2, 2, 3),)
        assert res.resolved

    def test_min_sum_small_star(self):
        res = search_extremal(12, objective="min", family="all", key="sum")
        assert res.winner_codes == (canonical_code(make_star(12)).decode(),)

    def test_workers_do_not_change_the_result(self):
        r1 = search_extremal(9, alpha=0.5, objective="max", family="all", key="psi", jobs=1)
        r2 = search_extremal(9, alpha=0.5, objective="max", family="all", key="psi", jobs=3)
        assert r1 == r2

    def test_dc_family_matches_all_small(self):
        # the spectral-sum maximizer is a comet, so both families agree
        for n in (7, 9, 11):
            ra = search_extremal(n, objective="max", family="all", key="sum")
            rd = search_extremal(n, objective="max", family="dc", key="sum")
            assert ra.winner_codes == rd.winner_codes

    def test_exclusion(self):
        res = search_extremal(7, objective="max", family="all", key="sum",
                              exclude={code_of(2, 2, 3)})
        assert code_of(2, 2, 3) not in res.winner_codes

    def test_lam1_extremes(self):
        res = search_extremal(9, objective="max", family="all", key="lam1")
        assert res.winner_codes == (canonical_code(make_star(9)).decode(),)
        res = search_extremal(9, objective="min", family="all", key="lam1")
        assert res.winner_codes == (canonical_code(make_path(9)).decode(),)

    def test_psi_endpoints_match_single_eigenvalue_keys(self):
        # alpha = 1 is a pure lam1 search; alpha = 0 a pure lam2 search,
        # including its three-way exact tie at odd orders
        res = search_extremal(9, alpha=1.0, objective="max", family="all", key="psi")
        assert res.winner_codes == (canonical_code(make_star(9)).decode(),)
        res0 = search_extremal(9, alpha=0.0, objective="max", family="all", key="psi")
        lam2 = search_extremal(9, objective="max", family="all", key="lam2")
        assert set(res0.winner_codes) == set(lam2.winner_codes)
        assert len(lam2.winner_codes) == 3 and not lam2.resolved

    def test_every_key_matches_brute_force(self):
        # winners and runner-up margin against top_two of every class, both objectives
        value = {"sum": lambda l1, l2: l1 + l2, "lam1": lambda l1, l2: l1,
                 "lam2": lambda l1, l2: l2, "gap": lambda l1, l2: l1 - l2}
        for n in range(3, 12):
            pairs = {canonical_code(t).decode(): top_two(t) for t in enumerate_free_trees(n)}
            for key, alpha in (("psi", 0.0), ("psi", 0.3), ("psi", 0.5), ("psi", 1.0),
                               ("sum", None), ("lam1", None), ("lam2", None), ("gap", None)):
                f = value.get(key, lambda l1, l2: alpha * l1 + (1 - alpha) * l2)
                vals = {code: f(tt.lam1, tt.lam2) for code, tt in pairs.items()}
                for objective, pick in (("max", max), ("min", min)):
                    res = search_extremal(n, alpha=alpha, objective=objective, key=key)
                    best = pick(vals.values())
                    for w in res.winners:
                        assert abs(0.5 * (w.lo + w.hi) - best) < 1e-9, (n, key, alpha, objective)
                    margin = math.inf if res.runner_up_gap is None else res.runner_up_gap
                    near = {code for code, v in vals.items() if abs(v - best) < margin - 1e-9}
                    assert near <= set(res.winner_codes), (n, key, alpha, objective)
                    if res.runner_up_gap is None:
                        continue
                    # the margin is measured against the far end of every tree ruled out
                    assert res.runner_up_gap >= 0, (n, key, alpha, objective, res.runner_up_gap)
                    others = [v for code, v in vals.items() if code not in res.winner_codes]
                    if objective == "max":
                        assert max(others) <= min(w.lo for w in res.winners) - res.runner_up_gap + 1e-12
                    else:
                        assert min(others) >= max(w.hi for w in res.winners) + res.runner_up_gap - 1e-12

    def test_two_vertex_comet_family(self):
        # DC(0,0,2) is the 2-path with lam2 = -1; the family search must see it
        res = search_extremal(2, objective="min", family="dc", key="sum")
        w = res.winners[0]
        assert abs(w.lo - 0.0) < 1e-12 and w.params == DoubleCometParams(0, 0, 2)

    def test_two_vertex_search(self):
        # K2 is the one tree of order 2, and its lam2 = -1 is negative; both families enclose it exactly
        want = {"sum": 0.0, "lam1": 1.0, "lam2": -1.0, "gap": 2.0, "psi": -0.5}
        for family in ("all", "dc"):
            for key, value in want.items():
                for objective in ("max", "min"):
                    res = search_extremal(2, alpha=0.25, objective=objective, family=family, key=key)
                    # repr tells 0.0 from -0.0, which == does not: a minimum must not negate 0.0 to -0.0
                    got = [(repr(w.lo), repr(w.hi)) for w in res.winners]
                    assert got == [(repr(value), repr(value))], (family, key, objective, got)
                    assert res.scanned == 1 and res.runner_up_gap is None and res.resolved
        seg, = envelope(2, "dc").segments
        assert (seg.lam1, seg.lam2) == (1.0, -1.0)

    def test_proven_comet_tie(self):
        # DC(6,2,3) and DC(5,4,2) share the quartic: k1*k2 + k1 + k2 = k1'*k2' = 20
        res = search_extremal(11, alpha=0.6, family="dc")
        assert {w.params for w in res.winners} == {DoubleCometParams(6, 2, 3), DoubleCometParams(5, 4, 2)}
        assert res.resolved and res.tie_proven
        assert len({(w.lo, w.hi) for w in res.winners}) == 1
        assert res.runner_up_gap > 0

    def test_jobs_below_one_rejected(self):
        for jobs in (0, -3, True):
            with pytest.raises(ValueError, match="jobs"):
                search_extremal(8, jobs=jobs)
            with pytest.raises(ValueError, match="jobs"):
                spectral_gap_min(6, jobs=jobs)

    def test_exclusion_matches_lambda2_second_suite(self):
        # the lambda2-second suite's expected runner-up shapes, for any worker count
        for n in (12, 14):
            best = code_of((n - 4) // 2, (n - 4) // 2, 4)
            want = (code_of((n - 4) // 2, (n - 2) // 2, 3),)
            res = search_extremal(n, objective="max", family="all", key="lam2", exclude={best})
            assert res.resolved and res.winner_codes == want
            assert res.scanned == count_free_trees(n)
        best = code_of(4, 4, 4)  # the order-12 maximizer: a code of another order would be a ValueError
        par = search_extremal(12, objective="max", family="all", key="lam2", exclude={best}, jobs=2)
        assert par == search_extremal(12, objective="max", family="all", key="lam2", exclude={best})
        assert par.winner_codes == (code_of(4, 5, 3),)

    def test_exclusion_codes_only_rows_of_an_excluded_degree_pair(self, monkeypatch):
        # a chunk row is coded only when its largest degree and largest neighbour-degree sum are an excluded
        # tree's: the lam2 maximum of order 16, its winner excluded, codes under 1% of the 19320 classes
        # (coding every row took 0.75 s against 0.02 s for the search without exclusion)
        every = extremal._AllTrees(9)
        for chunk in enumeration.free_tree_level_chunks(9):
            for m, top, total in zip(chunk.levels, chunk.max_degree, chunk.max_degree_sum):
                assert extremal._AllTrees(9, frozenset({every.code(m)})).excluded_degrees == {(top, total)}, m
        best = search_extremal(16, key="lam2").winner_codes
        calls = []
        code = extremal._AllTrees.code
        monkeypatch.setattr(extremal._AllTrees, "code", lambda fam, m: calls.append(m) or code(fam, m))
        res = search_extremal(16, key="lam2", exclude=best)
        assert res.resolved and res.scanned == 19320 and best[0] not in res.winner_codes
        assert 0 < len(calls) < 190, len(calls)

    def test_excluded_trees_are_not_discards(self):
        # only the path is left: nothing was certified out, so no runner-up bound exists
        path = canonical_code(make_path(7)).decode()
        others = {canonical_code(t).decode() for t in enumerate_free_trees(7)} - {path}
        for key in ("lam2", "sum"):
            res = search_extremal(7, objective="max", family="all", key=key, exclude=others)
            assert res.winner_codes == (path,)
            assert res.runner_up_gap is None

    def test_excluded_comets_are_not_discards(self):
        # an excluded long comet is left out before the screen, so its bound never becomes the discard bound: at
        # n = 30, alpha = 1/2, with every short comet but the winner excluded and DC(13,10,7) too, the margin is
        # measured against the largest bound of a comet left in, DC(14,9,7)'s, 0.5*(sqrt(17) + sqrt(12))
        best = search_extremal(30, alpha=0.5, family="dc")
        (win,) = best.winners
        excluded = [p for p in double_comet_params(30) if p.ell <= 3 and p != win.params]
        excluded.append(DoubleCometParams(13, 10, 7))
        res = search_extremal(30, alpha=0.5, family="dc", exclude={code_of(*astuple(p)) for p in excluded})
        assert res.winners == best.winners
        bound = 0.5 * math.sqrt(17.0) + 0.5 * math.sqrt(12.0)  # _dc_upper_bound's ends for k1, k2 = 14, 9
        assert res.runner_up_gap == win.lo - (bound + extremal._SAFETY) > best.runner_up_gap

    def test_excluding_every_comet(self):
        # the comet baseline is gone, so an all-tree search runs unpruned
        comets = {code_of(p.k1, p.k2, p.ell) for p in double_comet_params(6)}
        res = search_extremal(6, family="all", exclude=comets)
        assert res.winner_codes == ("1((())(())())",) and res.runner_up_gap is None
        comets = {code_of(p.k1, p.k2, p.ell) for p in double_comet_params(9)}
        res = search_extremal(9, family="all", exclude=comets)
        vals = {canonical_code(t).decode(): psi(t, 0.5).value for t in enumerate_free_trees(9)}
        others = sorted(v for code, v in vals.items() if code not in comets)
        assert res.winner_codes == ("1(((())())(()()()))",)
        assert vals[res.winner_codes[0]] == others[-1]
        assert others[-2] < others[-1] - res.runner_up_gap + 1e-12
        for objective in ("max", "min"):
            with pytest.raises(ValueError, match="search excluded every tree in the family"):
                search_extremal(9, objective=objective, family="dc", exclude=comets)
        # every comet but one excluded leaves that one, path, star, brooms and short comets alike
        for n in (2, 3, 4, 5, 9, 12):
            codes = {code_of(p.k1, p.k2, p.ell): p for p in double_comet_params(n)}
            for code in codes:
                res = search_extremal(n, family="dc", exclude=set(codes) - {code})
                assert res.winner_codes == (code,) and res.runner_up_gap is None, (n, codes[code])

    def test_excluding_every_tree(self):
        # the scan leaves no row for the survivor filter, in one process or over a pool
        every = {canonical_code(t).decode() for t in enumerate_free_trees(5)}
        assert len(every) == 3
        for jobs in (1, 2):
            with pytest.raises(ValueError, match="search excluded every tree in the family"):
                search_extremal(5, exclude=every, jobs=jobs)

    def test_bad_exclusions_rejected(self):
        # before the check these excluded nothing (bytes, a bare code iterated as characters,
        # a non-code, a code of another order, the path's code with a wrong prefix or
        # rooted at an end, malformed parentheses) or raised a bare TypeError (an int)
        code = canonical_code(make_path(7))
        bad = [code, code.decode(), 7, [code], [7], [None], [code_of(1, 1, 4)], {code_of(2, 2, 4)},
               {"2" + code.decode()[1:]}, {"1" + "(" * 7 + ")" * 7}, {"1" + "(" * 7}, {"1" + ")(" * 7}]
        for family in ("all", "dc"):
            for exclude in bad:
                with pytest.raises(ValueError, match="exclude"):
                    search_extremal(7, family=family, exclude=exclude)
        with pytest.raises(ValueError, match=r"canonical_code\(t\)\.decode\(\)"):
            search_extremal(7, exclude=[code])
        assert search_extremal(7, exclude=iter([code.decode()])) == search_extremal(7, exclude=[code.decode()])

    def test_non_float_alpha_gives_the_float_answer(self):
        # numpy 2 keeps 1 - float32 in float32, which widened nothing: the float32 interval
        # of psi(DC(3,3,3), 0.3) missed its true value
        t = make_double_comet(DoubleCometParams(3, 3, 3))
        for alpha in (np.float32(0.3), Fraction(3, 10)):
            got, want = psi(t, alpha), psi(t, float(alpha))
            assert got == want and all(type(v) is float for v in vars(got).values()), alpha
            for family in ("all", "dc"):
                res = search_extremal(9, alpha=alpha, family=family)
                assert res == search_extremal(9, alpha=float(alpha), family=family), (alpha, family)
                assert all(type(v) is float for w in res.winners for v in (w.lo, w.hi))
                assert type(res.runner_up_gap) is float and type(res.alpha) is float

    def test_comet_screen_is_sound(self, monkeypatch):
        # every long comet the screen leaves out of the pool is certified below the
        # discard bound, and the screen builds no DoubleCometParams, its members being
        # (k1, k2, ell) rows; a resolved search then has a positive margin, which
        # every other comet's far end respects
        built = []

        def counting(*p):
            built.append(p)
            return DoubleCometParams(*p)

        monkeypatch.setattr(enumeration, "DoubleCometParams", counting)
        monkeypatch.setattr(extremal, "DoubleCometParams", counting)
        keys = [("psi", a) for a in (0.0, 0.3, 0.5, 0.7, 1.0)] + [(k, None) for k in ("sum", "lam1", "lam2")]
        for n in (30, 61, 90):
            family = [astuple(p) for p in double_comet_params(n)]
            long_comets = [p for p in family if p[2] >= 4]
            intervals = dict(zip(family, as_pairs(_dc_pair_intervals(family))))
            for key, alpha in keys:
                c = extremal._coeffs(key, alpha)
                built.clear()
                ms, _, size, discard_bound = extremal._Comets(n)._screened(partial(extremal._point_floor, c), False, 1)
                assert size == len(family) and not built
                kept = set(map(tuple, ms.tolist()))
                dropped = [p for p in long_comets if p not in kept]
                assert dropped, (n, key, alpha)
                for p in dropped:
                    assert extremal._key_interval(c, *intervals[p])[1] < discard_bound, (n, key, alpha, p)
                res = search_extremal(n, alpha=alpha, family="dc", key=key)
                assert res.runner_up_gap > 0 or not res.resolved, (n, key, alpha)
                bound = min(w.lo for w in res.winners) - res.runner_up_gap
                winners = {astuple(w.params) for w in res.winners}
                for p in family:
                    if p not in winners:
                        assert extremal._key_interval(c, *intervals[p])[1] <= bound, (n, key, alpha, p)

    def test_whole_path_orders_drop_by_the_limit_curve_bound(self, monkeypatch):
        # the screen stops after the blocks that reach the first path order whose every
        # comet's bound, at most B(c)*sqrt(n - ell + 8), lies below the floor; its kept
        # comets and far are those of the per-comet rule over the whole family, for point
        # floors at 101 alphas and the sum, lam1 and lam2, and for the comets' hull floor;
        # no comet's float bound passes B(c)*sqrt(n - ell + 8) by _ORDER_MARGIN of it
        pair_intervals, memo = extremal._dc_pair_intervals, {}

        def cached(comets):
            key = np.asarray(comets, dtype=np.int64).tobytes()
            if key not in memo:
                memo[key] = pair_intervals(comets)
            return memo[key]

        monkeypatch.setattr(extremal, "_dc_pair_intervals", cached)
        monkeypatch.setattr(enumeration, "DC_BLOCK_ROWS", 16)  # many blocks, so the stop lands inside the family
        coeffs = [extremal._coeffs("psi", a) for a in np.linspace(0.0, 1.0, 101).tolist()]
        coeffs += [extremal._coeffs(k, None) for k in ("sum", "lam1", "lam2")]
        floors = [partial(extremal._point_floor, c) for c in coeffs] + [extremal._hull_floor]
        for n in (8, 9, 40, 41, 301):
            family = [astuple(p) for p in double_comet_params(n)]
            short = [p for p in family if p[2] <= 3]
            long_comets = np.array([p for p in family if p[2] >= 4])
            k1, k2, ell = long_comets.T
            u1, u2 = extremal._dc_upper_bound(k1, k2)
            ivs = cached(short)
            cuts = []
            for floor in floors:
                at = floor(ivs)
                (c1, c2), value = at(u1, u2)
                bound = np.where((c1 >= 0) & (c2 >= 0), c1 * u1 + c2 * u2, math.inf)
                keep, dropped = extremal._drop(bound, value - extremal._SAFETY)
                ms, _, size, far = extremal._Comets(n)._screened(floor, False, 1)
                assert ms.tolist() == [list(p) for p in short] + long_comets[keep].tolist(), (n, floor)
                assert far == dropped + extremal._SAFETY and size == count_double_comets(n) == len(family)
                c1, c2 = (np.broadcast_to(c, u1.shape) for c in (c1, c2))
                c1s, first, which = np.unique(c1, return_index=True, return_inverse=True)  # c2 follows c1
                lead = extremal._order_bound(c1s, c2[first])[which]
                excess = bound - lead * np.sqrt(n - ell + 8.0)
                assert (excess < extremal._ORDER_MARGIN * bound).all(), (n, floor, excess.max())
                cuts.append(extremal._whole_order_cut(at, n))
            assert n < 40 or min(cuts) < n - 2, (n, cuts)

    def test_comet_pass_keeps_arrays_only(self):
        # the comet pass hands on its members and brackets as arrays, so a psi(0.7) pass at n = 5000 (about 5000
        # members) leaves under 1 MB live, against about 2 MB when each member was a tuple with nested bracket tuples
        floor = partial(extremal._point_floor, (0.7, 0.3))
        extremal._Comets(5000)._screened(floor, False, 1)  # any first-call caches are made before the count starts
        tracemalloc.start()
        try:
            out = extremal._Comets(5000)._screened(floor, False, 1)
            live = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert out[0].dtype == np.int64 and out[0].shape[1] == 3 and out[1].shape == (4, len(out[0]))
        assert live < 1e6, live

    def test_searches_code_only_winners(self, monkeypatch):
        # and certify each all-tree member once, at TOL: no refinement schedule re-bisects it
        calls, certified = [0], []

        def counting(coder):
            def code(x):
                calls[0] += 1
                return coder(x)
            return code

        def recording(t, tol=TOL):
            certified.append((t.adjacency, tol))
            return top_two(t, tol)

        monkeypatch.setattr(extremal, "canonical_code", counting(canonical_code))
        monkeypatch.setattr(extremal, "double_comet_code", counting(double_comet_code))
        monkeypatch.setattr(extremal, "top_two", recording)
        # lam2 max ties at n = 13 and 27
        for n, family in ((12, "all"), (13, "all"), (16, "all"), (26, "dc"), (27, "dc"), (60, "dc")):
            for key, objective, alpha in (("sum", "max", None), ("sum", "min", None), ("psi", "max", 0.7),
                                          ("gap", "min", None), ("lam2", "max", None)):
                calls[0] = 0
                certified.clear()
                res = search_extremal(n, alpha=alpha, objective=objective, family=family, key=key)
                assert calls[0] == len(res.winners), (n, family, key, objective, calls[0])
                assert all(tol == TOL for _, tol in certified), (n, family, key, objective, certified)
                assert len({a for a, _ in certified}) == len(certified), (n, family, key, objective)

    def test_discard_fold_is_worker_independent(self):
        # n = 15 has 7741 classes in 4 chunks; the lam2 runs exclude the maximizers
        best = set(search_extremal(15, objective="max", key="lam2").winner_codes)
        for key, objective, exclude in (("gap", "min", ()), ("lam2", "max", best)):
            r1 = search_extremal(15, alpha=None, objective=objective, key=key, exclude=exclude)
            r2 = search_extremal(15, alpha=None, objective=objective, key=key, exclude=exclude, jobs=2)
            assert r1 == r2 and r1.runner_up_gap is not None

    def test_scan_margin_bounds_every_other_class(self):
        # the all-tree scan folds the far end of every row it drops, so these margins,
        # once within 1e-12 of zero, reflect the runner-up; every other class's
        # certified key interval lies on the far side of the bound
        cases = {16: (("sum", "max"), ("sum", "min"), ("lam1", "min")), 12: (("lam2", "max"),),
                 14: (("lam2", "max"),)}
        for n, keys in cases.items():
            fam = extremal._AllTrees(n)
            chunks = [(c.levels, batch_top_two(c.levels)) for c in enumeration.free_tree_level_chunks(n)]
            for key, objective in keys:
                res = search_extremal(n, alpha=None, objective=objective, key=key)
                gap, c = res.runner_up_gap, extremal._coeffs(key, None)
                assert res.resolved and gap > 1e-7, (n, key, objective, gap)
                if objective == "max":
                    bound = min(w.lo for w in res.winners) - gap
                else:
                    bound = max(w.hi for w in res.winners) + gap
                past = set()
                for levels, (l1_lo, l1_hi, l2_lo, l2_hi) in chunks:
                    lo, hi = extremal._key_interval(c, (l1_lo, l1_hi), (l2_lo, l2_hi))
                    rows = np.flatnonzero(hi > bound if objective == "max" else lo < bound)
                    past |= {fam.code(levels[r]) for r in rows}
                assert past == set(res.winner_codes), (n, key, objective)

    def test_scan_brackets_enclose_the_eigenvalues(self, monkeypatch):
        # every row the coarse scan keeps, against each key's point floor and against the
        # comet hull, holds lam1 and lam2 by exact counts at both ends; the degree start
        # bracket alone contains top_two's lam1 bracket for every class up to n = 14
        kept = []
        scan = extremal._Scan.__call__

        def recording(self, chunks):
            out = scan(self, chunks)
            kept.extend(zip(out[0].tolist(), as_pairs(out[1])))
            return out

        monkeypatch.setattr(extremal._Scan, "__call__", recording)
        keys = [("psi", a) for a in (0.0, 0.3, 1.0)] + [(k, None) for k in ("sum", "lam1", "lam2", "gap")]
        for n in range(3, 15):
            for chunk in enumeration.free_tree_level_chunks(n):
                lo, hi = extremal._start_brackets(chunk, np.arange(len(chunk)))
                l1_lo, l1_hi, _, _ = batch_top_two(chunk.levels)
                assert (lo <= l1_lo).all() and (l1_hi <= hi).all(), n
            if n > 12:
                continue
            kept.clear()
            for key, alpha in keys:
                for objective in ("max", "min"):
                    search_extremal(n, alpha=alpha, objective=objective, key=key)
            envelope(n)
            assert kept, n
            for m, (l1, l2) in kept:
                t = Tree(n, _level_seq_edges(m))
                for k, (lo, hi) in ((1, l1), (2, l2)):
                    assert sum(exact_tree_counts(t, lo)) >= k and exact_tree_counts(t, hi)[0] < k, (m, k, lo, hi)

    def test_scan_tables_match_tree_batch(self):
        # the step tables, largest degrees and lam1 start brackets gathered with the level
        # sequences equal what TreeBatch's loops and the degree oracle build from the levels
        # alone: every chunk at n = 1-14, the first and last at n = 17; rows whose first
        # subtree is one vertex (its forest empty), and n = 2, where the rest F is empty too
        single_first = 0
        for n in [*range(1, 15), 17]:
            chunks = list(enumeration.free_tree_level_chunks(n))
            for chunk in chunks if n < 17 else (chunks[0], chunks[-1]):
                levels, rows = chunk.levels, np.arange(len(chunk))
                assert np.array_equal(TreeBatch.from_steps(chunk.steps)._up, TreeBatch(levels)._up), n
                assert np.array_equal(chunk.max_degree, level_degrees(levels)[0].max(axis=1)), n
                got, want = extremal._start_brackets(chunk, rows), degree_brackets(levels)
                assert [[x.hex() for x in a.tolist()] for a in got] == [[x.hex() for x in a.tolist()] for a in want], n
                single_first += int((levels[:, 2:3] == 1).sum()) if n > 2 else 0
        assert single_first > 0
        # the sum's minimum and the envelope's screened pass give the same answers over a
        # fork pool as in one process
        runs = [(repr(search_extremal(12, alpha=None, key="sum", objective="min", jobs=jobs)),
                 exact(extremal._AllTrees(12)._screened(extremal._hull_floor, False, jobs))) for jobs in (1, 2)]
        assert runs[0] == runs[1]

    def test_scan_probe_budget(self, monkeypatch):
        # one joint lam1/lam2 bisection per row: the gap's minimum, whose floor bounds
        # neither eigenvalue alone, takes at most 8 batched row-probes per class at n = 14
        probes = [0]
        eliminate = TreeBatch._eliminate

        def counting(steps, w, work, x):
            probes[0] += steps.shape[1]
            return eliminate(steps, w, work, x)

        monkeypatch.setattr(TreeBatch, "_eliminate", staticmethod(counting))
        monkeypatch.setattr(enumeration, "_MEMO", {})  # cold: no count facts to answer from
        res = search_extremal(14, alpha=None, objective="min", key="gap")
        assert res.scanned == 3159 and probes[0] <= 8 * 3159, probes[0]

    def test_scan_pass_budget(self, monkeypatch):
        # the pool is topped up from the next chunk whenever half of it has finished, so
        # the gap's minimum at n = 16 (19320 classes in 10 chunks) takes at most 120 batched
        # passes, against 273 when each chunk ran alone, and exactly the same row-probes
        passes, probes = [0], [0]
        eliminate = TreeBatch._eliminate

        def counting(steps, w, work, x):
            passes[0] += 1
            probes[0] += steps.shape[1]
            return eliminate(steps, w, work, x)

        monkeypatch.setattr(TreeBatch, "_eliminate", staticmethod(counting))
        monkeypatch.setattr(enumeration, "_MEMO", {})  # cold: no count facts to answer from
        res = search_extremal(16, alpha=None, objective="min", key="gap")
        assert res.scanned == 19320 and passes[0] <= 120 and probes[0] == 98605, (passes[0], probes[0])

    def test_a_repeated_scan_eliminates_nothing(self, monkeypatch):
        # a second gap minimum at n = 16 answers every probe from the count facts the first scan left on
        # the kept chunks: no row-probe, and the same answer; the first meets a sum maximum's facts, so it
        # records the rows it counted beside answered ones
        monkeypatch.setattr(enumeration, "_MEMO", {})
        search_extremal(16, alpha=None, objective="max", key="sum")
        first = repr(search_extremal(16, alpha=None, objective="min", key="gap"))
        probes = [0]
        eliminate = TreeBatch._eliminate

        def counting(steps, w, work, x):
            probes[0] += steps.shape[1]
            return eliminate(steps, w, work, x)

        monkeypatch.setattr(TreeBatch, "_eliminate", staticmethod(counting))
        assert repr(search_extremal(16, alpha=None, objective="min", key="gap")) == first and probes[0] == 0

    def test_answers_do_not_depend_on_call_history(self, monkeypatch):
        # every key and objective, psi at five alphas and the envelope at n = 3-12, called in a shuffled order in
        # one process, so each scan meets count facts left by others, equal the same calls made on an empty memo;
        # at n = 12 and 14, calls over two workers, whose chunks reach them without facts, mixed in
        def call(n, key, alpha, objective, jobs=1):
            if key == "envelope":
                return [(repr(s), s.lam1.hex(), s.lam2.hex(), s.alpha_lo.hex()) for s in envelope(n).segments]
            res = search_extremal(n, alpha=alpha, objective=objective, key=key, jobs=jobs)
            gap = res.runner_up_gap
            return repr(res), [(w.lo.hex(), w.hi.hex()) for w in res.winners], gap if gap is None else gap.hex()

        def calls(n):
            keys = [(k, None) for k in ("sum", "lam1", "lam2", "gap")] + [("psi", a) for a in (0, 0.3, 0.5, 0.7, 1)]
            return [(n, k, a, o) for k, a in keys for o in ("max", "min")] + [(n, "envelope", None, None)]

        def fresh(args):
            monkeypatch.setattr(enumeration, "_MEMO", {})
            return call(*args)

        rng = random.Random(32)
        history = [args for n in range(3, 13) for args in calls(n)]
        rng.shuffle(history)
        monkeypatch.setattr(enumeration, "_MEMO", {})
        warm = [call(*args) for args in history]
        assert warm == [fresh(args) for args in history]
        for n in (12, 14):
            history = [(*args, rng.choice((1, 2))) for args in calls(n)[:-1] * 2]
            rng.shuffle(history)
            monkeypatch.setattr(enumeration, "_MEMO", {})
            warm = [call(*args) for args in history]
            assert warm == [fresh(args[:-1]) for args in history], n

    def test_count_facts_answer_a_probe_only_at_it_or_beyond_the_margin(self, monkeypatch):
        # one row scanned alone: a count fact at its first probe x saves that elimination, one that lies
        # within the margin of x, on either side, saves none, and one beyond the margin saves it again;
        # every fact is true of the row, whose eigenvalues all lie far from x, and the scan's answer never moves
        n, probes = 9, []
        eliminate = TreeBatch._eliminate

        def counting(steps, w, work, x):
            counts = eliminate(steps, w, work, x)
            probes.extend(zip(x.tolist(), counts[0].tolist()))
            return counts

        monkeypatch.setattr(TreeBatch, "_eliminate", staticmethod(counting))
        monkeypatch.setattr(enumeration, "_MEMO", {})
        chunk = next(enumeration.free_tree_level_chunks(n))
        r = int(np.flatnonzero(chunk.max_degree == 3)[0])  # neither path nor star
        row = [a[r:r + 1] for a in (chunk.levels, chunk.steps, chunk.max_degree, chunk.max_degree_sum)]
        scan = extremal._Scan(extremal._AllTrees(n), partial(extremal._point_at, (1.0, 1.0), -math.inf))

        def run(facts):
            probes.clear()
            out = scan([enumeration.LevelChunk(*row, facts)])
            return exact(out), len(probes)

        cold, cold_probes = run(None)
        x, above = probes[0]
        adjacency = np.zeros((n, n))
        for u, v in _level_seq_edges(chunk.levels[r].tolist()):
            adjacency[u, v] = adjacency[v, u] = 1.0
        lam = np.linalg.eigvalsh(adjacency)
        assert np.abs(lam - x).min() > 1e-3
        m = extremal._FACT_MARGIN * n * (abs(x) + n)
        for offset, saved in ((0.0, 1), (0.5 * m, 0), (-0.5 * m, 0), (2.0 * m, 1)):
            # a count of at least k at x shows lam_k above any point below it, fewer than k below any above
            at_least = [above >= k for k in (1, 2)]
            sides = [x + (offset if yes else -offset) for yes in at_least]
            facts = np.array([[-math.inf], [math.inf], [-math.inf], [math.inf]])
            for k, (yes, at) in enumerate(zip(at_least, sides)):
                facts[2 * k + (not yes)] = at
            assert run(facts) == (cold, cold_probes - saved), (offset, facts)

    def test_count_facts_are_shared_safely_by_threads(self, monkeypatch):
        # four threads search different keys at n = 14 over one memo, so their scans read and tighten the
        # same rows' count facts while they switch every microsecond; each answer equals its fresh one
        keys = [("sum", "max"), ("gap", "min"), ("lam2", "max"), ("lam1", "min")]
        want = {}
        for key, objective in keys:
            monkeypatch.setattr(enumeration, "_MEMO", {})
            want[key, objective] = repr(search_extremal(14, alpha=None, objective=objective, key=key))
        monkeypatch.setattr(enumeration, "_MEMO", {})
        got, interval = {}, sys.getswitchinterval()

        def search(key, objective):
            got[key, objective] = [repr(search_extremal(14, alpha=None, objective=objective, key=key))
                                   for _ in range(3)]

        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=search, args=ko) for ko in keys]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == {ko: [w] * 3 for ko, w in want.items()}

    def test_streaming_scan_matches_each_chunk_alone(self, monkeypatch):
        # a row's probes depend only on its own brackets and the floor, so a run streamed
        # through one pool keeps the rows, in order, with the brackets, far and count that
        # scans of its chunks one at a time give, bit for bit: the point floor of every key
        # and objective, two with excluded codes up to n = 12, the sum minimum
        # and the comet hull, at n = 10-14, in five chunks each twice the pool (a chunk is
        # split between top-ups) and in nine each a third of it
        scans, call = {n: [] for n in range(10, 15)}, extremal._Scan.__call__

        def recording(self, chunks):
            scans[self.fam.n].append(self)
            return call(self, chunks)

        monkeypatch.setattr(extremal._Scan, "__call__", recording)
        keys = [("psi", 0.3)] + [(k, None) for k in ("sum", "lam1", "lam2", "gap")]
        for n in scans:
            for key, alpha in keys:
                for objective in ("max", "min"):
                    res = search_extremal(n, alpha=alpha, objective=objective, key=key)
                    if (key, objective) in (("sum", "min"), ("lam2", "max")) and n <= 12:
                        search_extremal(n, alpha=alpha, objective=objective, key=key, exclude=res.winner_codes)
            envelope(n)
            assert len(scans[n]) == 2 * len(keys) + 1 + 2 * (n <= 12)
        monkeypatch.setattr(enumeration, "_MEMO", {})  # no entry of a patched chunk size outlives the test
        for n, recorded in scans.items():
            fifth, ninth = count_free_trees(n) // 5 + 1, count_free_trees(n) // 9 + 1
            for chunk_rows, pool_rows in ((fifth, fifth // 2), (ninth, 3 * ninth)):
                monkeypatch.setattr(enumeration, "CHUNK_ROWS", chunk_rows)
                monkeypatch.setattr(extremal, "CHUNK_ROWS", pool_rows)
                chunks = list(enumeration.free_tree_level_chunks(n))
                for scan in recorded:
                    alone = [call(scan, [chunk]) for chunk in chunks]
                    streamed = call(scan, chunks)
                    assert exact(streamed)[0] == [r for out in alone for r in exact(out)[0]], (n, pool_rows, scan.at)
                    far = max(far for _, _, far, _ in alone)
                    assert (streamed[2].hex(), streamed[3]) == (far.hex(), sum(c for *_, c in alone)), (n, scan.at)
        monkeypatch.undo()
        # runs of consecutive chunks, 100 rows each, over a fork pool give every answer again
        monkeypatch.setattr(enumeration, "_MEMO", {})
        monkeypatch.setattr(enumeration, "CHUNK_ROWS", 100)
        for key, objective in (("gap", "min"), ("sum", "min"), ("lam2", "max")):
            runs = [repr(search_extremal(14, alpha=None, objective=objective, key=key, jobs=jobs)) for jobs in (1, 2)]
            assert runs[0] == runs[1], (key, objective)
        runs = [exact(extremal._AllTrees(14)._screened(extremal._hull_floor, False, jobs)) for jobs in (1, 2)]
        assert runs[0] == runs[1]

    def test_a_second_scan_of_an_order_builds_no_forest_table(self, monkeypatch):
        # the first search at n = 14 builds the forest tables once; every later search or envelope there
        # replays its chunks, with the same answers
        builds, build = [0], enumeration._forest_tables

        def counting(n):
            builds[0] += 1
            return build(n)

        monkeypatch.setattr(enumeration, "_forest_tables", counting)
        monkeypatch.setattr(enumeration, "_MEMO", {})
        first = repr(search_extremal(14, alpha=None, key="sum"))
        assert builds[0] == 1
        for key, objective in (("sum", "min"), ("lam2", "max"), ("gap", "min")):
            search_extremal(14, alpha=None, objective=objective, key=key)
        envelope(14)
        assert repr(search_extremal(14, alpha=None, key="sum")) == first and builds[0] == 1

    def test_bad_arguments(self):
        for bad in (3.5, "7", 1, 0, -2):
            for call in (lambda: search_extremal(bad), lambda: search_extremal(bad, family="dc"),
                         lambda: envelope(bad, "all"), lambda: envelope(bad, "dc")):
                with pytest.raises(ValueError, match=f"n={bad!r}"):
                    call()
        with pytest.raises(ValueError):
            search_extremal(8, key="psi", alpha=2.0)
        with pytest.raises(ValueError):
            search_extremal(8, key="trace")
        with pytest.raises(ValueError):
            search_extremal(8, objective="between")
        with pytest.raises(ValueError):
            search_extremal(30, family="all", key="sum")
        for bad in (2.5, "2", None):
            for fam in ("all", "dc"):
                with pytest.raises(ValueError, match=f"jobs={bad!r}"):
                    search_extremal(10, family=fam, jobs=bad)
        for bad in ("0.5", [0.5], None, 1.5, -0.1, math.nan):
            calls = [lambda fam=fam: search_extremal(6, alpha=bad, family=fam) for fam in ("all", "dc")]
            for call in calls + [lambda: psi(make_path(4), bad)]:
                with pytest.raises(ValueError, match="alpha="):
                    call()
        for a in (0, 1):  # ints stay valid alphas
            assert psi(make_path(4), a) == psi(make_path(4), float(a))
            assert search_extremal(6, alpha=a).winners == search_extremal(6, alpha=float(a)).winners


def test_comet_and_star_brackets_pass_exact_inertia():
    # every comet bracket holds its eigenvalue by exact counts at both ends: at
    # least k eigenvalues at or above lo, fewer than k above hi; every star's
    # bracket holds sqrt(n-1)
    rng = random.Random(11)
    sample = [DoubleCometParams(0, 0, 3), DoubleCometParams(0, 0, 5), DoubleCometParams(99996, 2, 2)]
    for n, longest in ((10**3, 40), (10**5, 12)):
        for _ in range(20):
            ell = rng.randrange(2, longest + 1)
            k2 = rng.randrange(ell == 2, (n - ell) // 2 + 1)
            sample.append(DoubleCometParams(n - ell - k2, k2, ell))
    params = [p for n in (3, 10, 60) for p in double_comet_params(n)] + sample
    for p, (l1, l2) in zip(params, as_pairs(_dc_pair_intervals([astuple(p) for p in params]))):
        if p.ell == 1 or p.n <= 3 or max(p.k1, p.k2) + 1 == p.n - 1:  # a vertex of degree n-1
            assert_star_pair(p.n, l1, l2)
            continue
        for k, (lo, hi) in ((1, l1), (2, l2)):
            assert sum(exact_quotient_counts(p, lo)) >= k and exact_quotient_counts(p, hi)[0] < k, (p, k, lo, hi)
    for n in (3, 6, 1001):
        tt = top_two(make_star(n))
        b = [a[0] for a in batch_top_two([[0] + [1] * (n - 1)])]
        pairs = [((tt.lam1_lo, tt.lam1_hi), (tt.lam2_lo, tt.lam2_hi)), ((b[0], b[1]), (b[2], b[3]))]
        for l1, l2 in pairs + as_pairs(_dc_pair_intervals([(n - 1, 0, 1)])):
            assert Fraction(l1[0]) ** 2 < n - 1 < Fraction(l1[1]) ** 2, (n, l1)
            assert_star_pair(n, l1, l2)


def test_comet_tie_brackets_pass_exact_inertia():
    # the lam2 maximizers tie at lam2 = sqrt((n-3)/2) for odd n; each winner's bracket,
    # certified once at TOL, holds lam2 by exact counts at both ends (brackets narrowed
    # to 1e-14 missed it at n = 201 and 1001)
    for n in (201, 1001, *range(7, 40, 2)):
        for key, alpha in (("lam2", None), ("psi", 0.0)):
            res = search_extremal(n, alpha=alpha, family="dc", key=key)
            assert len(res.winners) > 1, (n, key)
            for w in res.winners:
                p, lo, hi = w.params, w.lo, w.hi
                assert hi - lo <= TOL, (n, key, p, lo, hi)
                assert sum(exact_quotient_counts(p, lo)) >= 2, (n, key, p, lo)
                assert exact_quotient_counts(p, hi)[0] < 2, (n, key, p, hi)


class TestEnvelope:
    def test_n6_structure(self):
        env = envelope(6, "all")
        # ends: the path carries alpha=0 (largest lam2), the star alpha=1
        first, last = env.segments[0], env.segments[-1]
        assert first.alpha_lo == 0.0 and last.alpha_hi == 1.0
        assert first.witness_code == canonical_code(make_path(6)).decode()
        assert last.witness_code == canonical_code(make_star(6)).decode()
        assert abs(last.lam1 - math.sqrt(5)) < 1e-9

    def test_matches_pointwise_max(self):
        for n in (5, 7):
            trees = list(enumerate_free_trees(n))
            env = envelope(n, "all")
            for i in range(101):
                a = i / 100
                assert abs(env.value(a) - max(psi(t, a).value for t in trees)) < 1e-10

    def test_continuity_and_monotonicity(self):
        env = envelope(8, "all")
        for s, nxt in zip(env.segments, env.segments[1:]):
            assert s.alpha_hi == nxt.alpha_lo
            assert abs(s.value(s.alpha_hi) - nxt.value(nxt.alpha_lo)) < 1e-12
            assert s.lam1 >= s.lam2 - 1e-15
        vals = [env.value(i / 200) for i in range(201)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_dc_envelope_n26_contains_flat_line(self):
        env = envelope(26, "dc")
        assert any(abs(s.lam1 - 4.0) < 1e-9 and abs(s.lam2 - 3.0) < 1e-9 for s in env.segments)

    def test_comet_witnesses_match_brute_force(self):
        # a segment's witness is the smallest code among the comets whose certified
        # midpoints round onto its line, and the line carries that comet's floats
        for n in range(5, 41):
            on_line = {}
            params = double_comet_params(n)
            brackets = _dc_pair_intervals([astuple(p) for p in params])
            for p, (l1_lo, l1_hi, l2_lo, l2_hi) in zip(params, brackets.T.tolist()):
                l1, l2 = 0.5 * (l1_lo + l1_hi), 0.5 * (l2_lo + l2_hi)
                on_line.setdefault((round(l1, 12), round(l2, 12)), []).append((code_of(p.k1, p.k2, p.ell), l1, l2))
            for s in envelope(n, "dc").segments:
                assert (s.witness_code, s.lam1, s.lam2) == min(on_line[round(s.lam1, 12), round(s.lam2, 12)]), n

    def test_colliding_members_keep_the_smaller_codes_floats(self, monkeypatch):
        # DC(3,3,2) and the broom (4,0,4) round onto one line with different floats;
        # in either order the broom, whose code is smaller, witnesses it with its floats
        comet = (2.302775637731995, 1.3, (3, 3, 2))
        broom = (2.3027756377318678, 1.3, (4, 0, 4))
        assert code_of(4, 0, 4) < code_of(3, 3, 2)
        for members in ([comet, broom], [broom, comet]):
            # brackets of width 0, whose midpoints are the members' floats
            ms, br = np.array([m for _, _, m in members]), np.array([(a, a, b, b) for a, b, _ in members]).T
            monkeypatch.setattr(extremal._Comets, "_screened", lambda self, *_, ms=ms, br=br: (ms, br, 2, -math.inf))
            (seg,) = envelope(8, "dc").segments
            assert (seg.lam1, seg.lam2, seg.witness_code) == (*broom[:2], code_of(4, 0, 4))

    def test_comet_batch_matches_one_at_a_time(self, monkeypatch):
        # comets of mixed orders in chunks of 7 rows, each padded to its longest
        # quotient path, get the brackets each gets alone, bit for bit
        monkeypatch.setattr(extremal, "CHUNK_ROWS", 7)
        params = [astuple(p) for p in double_comet_params(9) + double_comet_params(16)[::-1]] + [
            (1, 3, 6), (5, 1, 4), (0, 2, 5)]
        alone = [h for p in params for h in hexes(_dc_pair_intervals([p]))]
        assert hexes(_dc_pair_intervals(params)) == alone

    def test_short_comets_check_their_closed_forms(self, monkeypatch):
        # path orders 2 and 3 pass their closed forms as guesses: two checks and a
        # probe or two per eigenvalue, against 84-90 batched row-probes per comet
        # when both eigenvalues were bisected from [0, sqrt(n-1)]
        rows = [0]
        eliminate = TreeBatch._eliminate

        def counting(steps, w, work, x):
            rows[0] += steps.shape[1]
            return eliminate(steps, w, work, x)

        monkeypatch.setattr(TreeBatch, "_eliminate", staticmethod(counting))
        for n in (60, 1000):
            short = [astuple(p) for p in double_comet_params(n) if p.ell <= 3]
            rows[0] = 0
            _dc_pair_intervals(short)
            assert rows[0] <= 8 * len(short), (n, rows[0] / len(short))

    def test_long_comets_check_their_eigvalsh_guesses(self, monkeypatch):
        # path orders 4 and up with quotients of at most 16 vertices pass eigvalsh's top
        # two as guesses: every comet of order <= 60 and every long comet the screen keeps
        # at n = 1000 gets the unguided brackets bit for bit, a guess 1e-9 off restarts
        # its row and still gets them, and the kept long comets take at most 12 batched
        # row-probes each, against about 90 unguided
        rows = [0]
        eliminate = TreeBatch._eliminate

        def counting(steps, w, work, x):
            rows[0] += steps.shape[1]
            return eliminate(steps, w, work, x)

        guesses = extremal._path_guesses
        helpers = {"eigvalsh": guesses, "none": lambda w: (np.full(len(w), math.nan),) * 2,
                   "up": lambda w: tuple(g + 1e-9 for g in guesses(w)),
                   "down": lambda w: tuple(g - 1e-9 for g in guesses(w))}
        small = [astuple(p) for n in range(2, 61) for p in double_comet_params(n)]
        kept = []
        for alpha in (0.3, 0.7):
            ms = extremal._Comets(1000)._screened(partial(extremal._point_floor, (alpha, 1.0 - alpha)), False, 1)[0]
            kept += ms[ms[:, 2] >= 4].tolist()
        monkeypatch.setattr(TreeBatch, "_eliminate", staticmethod(counting))
        brackets, spent = {}, {}
        for name, helper in helpers.items():
            monkeypatch.setattr(extremal, "_path_guesses", helper)
            for which, comets in (("small", small), ("kept", kept)):
                rows[0] = 0
                brackets[name, which] = hexes(_dc_pair_intervals(comets))
                spent[name, which] = rows[0]
        for which in ("small", "kept"):
            for name in ("eigvalsh", "up", "down"):
                assert brackets[name, which] == brackets["none", which], (name, which)
                assert name == "eigvalsh" or spent[name, which] > spent["none", which], (name, which, spent)
        assert spent["eigvalsh", "kept"] <= 12 * len(kept), spent["eigvalsh", "kept"] / len(kept)

    def test_comet_pass_does_not_depend_on_the_block_size(self, monkeypatch):
        # blocks of 1 or 7 comets split the short comets and every path order
        searches = [(key, objective, alpha) for key, alpha in (("psi", 0.3), ("psi", 0.7), ("sum", None), ("gap", None))
                    for objective in ("max", "min")]

        def run():
            return [repr(envelope(n, "dc")) for n in (2, 3, 4, 5, 9, 30)] + [
                repr(search_extremal(n, alpha=alpha, objective=objective, family="dc", key=key))
                for n in (3, 4, 5, 9, 30) for key, objective, alpha in searches]

        want = run()
        for rows in (1, 7):
            monkeypatch.setattr(enumeration, "DC_BLOCK_ROWS", rows)
            assert run() == want, rows

    def test_envelope_screen_is_exact(self, monkeypatch):
        # every comet the envelope leaves unevaluated has its upper-end line more
        # than 1e-9 below the envelope, and every free tree it leaves uncertified more
        # than _SAFETY - TOL; with the floor at -inf, screening nothing, the envelopes are the same
        pair_intervals = extremal._dc_pair_intervals
        evaluated = set()

        def recording(params):
            evaluated.update(map(tuple, params.tolist()))
            return pair_intervals(params)

        monkeypatch.setattr(extremal, "_dc_pair_intervals", recording)
        for n in (30, 61, 110):
            evaluated.clear()
            env = envelope(n, "dc")
            skipped = [astuple(p) for p in double_comet_params(n) if astuple(p) not in evaluated]
            assert skipped, n
            ends = np.array([a for s in env.segments for a in (s.alpha_lo, s.alpha_hi)])
            floor = np.array([env.value(a) for a in ends.tolist()])
            _, l1, _, l2 = pair_intervals(skipped)
            gap = floor - (l2[:, None] + ends * (l1 - l2)[:, None])
            assert gap.min() > 1e-9, (n, skipped[int(gap.min(axis=1).argmin())])
        monkeypatch.setattr(extremal, "_dc_pair_intervals", pair_intervals)
        kept = set(map(tuple, extremal._AllTrees(12)._screened(extremal._hull_floor, False, 1)[0].tolist()))
        env = envelope(12)
        ends = np.array([a for s in env.segments for a in (s.alpha_lo, s.alpha_hi)])
        floor = np.array([env.value(a) for a in ends.tolist()])
        dropped = 0
        for chunk in enumeration.free_tree_level_chunks(12):
            out = np.array([tuple(seq) not in kept for seq in chunk.levels.tolist()])
            _, l1, _, l2 = (a[out, None] for a in batch_top_two(chunk.levels))
            if out.any():
                assert (floor - (l2 + ends * (l1 - l2))).min() > extremal._SAFETY - TOL
            dropped += int(out.sum())
        assert dropped == count_free_trees(12) - len(kept) > 0
        orders = [*range(2, 41), 60, 85, 110]
        screened = [repr(envelope(n, "dc")) for n in orders] + [repr(envelope(n, "all")) for n in range(2, 14)]
        monkeypatch.setattr(extremal, "_hull_floor", lambda ivs: partial(extremal._point_at, (1.0, 0.0), -math.inf))
        assert [repr(envelope(n, "dc")) for n in orders] + [repr(envelope(n, "all")) for n in range(2, 14)] == screened

    def test_envelope_screen_work_budget(self, monkeypatch):
        # a DoubleCometParams only to code the members of hull lines, of the
        # 39602 comets in the family (the screen builds none); at most 2n of the
        # 7741 free trees of order 15 certified at TOL, one by one
        built, certified = [0], [0]

        def counting(*p):
            built[0] += 1
            return DoubleCometParams(*p)

        def certifying(t, tol=TOL):
            certified[0] += tol == TOL
            return top_two(t, tol)

        monkeypatch.setattr(enumeration, "DoubleCometParams", counting)
        monkeypatch.setattr(extremal, "DoubleCometParams", counting)
        monkeypatch.setattr(extremal, "top_two", certifying)
        envelope(400, "dc")
        assert built[0] <= 1500, built[0]
        envelope(15)
        assert certified[0] <= 2 * 15, certified[0]

    def test_only_hull_lines_are_coded(self, monkeypatch):
        calls = [0]

        def counting(coder):
            def code(x):
                calls[0] += 1
                return coder(x)
            return code

        monkeypatch.setattr(extremal, "canonical_code", counting(canonical_code))
        monkeypatch.setattr(extremal, "double_comet_code", counting(double_comet_code))
        for n, family in ((26, "dc"), (60, "dc"), (12, "all")):
            calls[0] = 0
            env = envelope(n, family)
            assert calls[0] < 2 * len(env.segments), (n, family, calls[0])

    def test_comet_codes_build_no_trees(self, monkeypatch):
        # hull witnesses and the exclusion test code comets from their parameters;
        # a Tree is built only for the edges of each reported winner
        built = [0]

        def counting(p):
            built[0] += 1
            return make_double_comet(p)

        monkeypatch.setattr(extremal, "make_double_comet", counting)
        envelope(60, "dc")
        assert built[0] == 0
        best = search_extremal(60, alpha=0.3, family="dc")
        runner_up = search_extremal(60, alpha=0.3, family="dc", exclude=best.winner_codes)
        assert built[0] == len(best.winners) + len(runner_up.winners)

    def test_comet_codes_match_the_tree_route(self, monkeypatch):
        orders = [*range(2, 61), 400]
        searches = [(27, "lam2", "max", None), (40, "psi", "max", 0.3), (40, "gap", "min", None)]

        def run():
            envs = [repr(envelope(n, "dc")) for n in orders]
            found = []
            for n, key, objective, alpha in searches:
                res = search_extremal(n, alpha=alpha, objective=objective, family="dc", key=key)
                found.append(repr(res))
                found.append(repr(search_extremal(n, alpha=alpha, objective=objective, family="dc", key=key,
                                                  exclude=res.winner_codes)))
            return envs, found

        from_params = run()
        monkeypatch.setattr(extremal._Comets, "code", extremal._Family.code)  # a Tree and canonical_code each
        assert run() == from_params

    def test_straddling_slopes_keep_the_higher_line(self, monkeypatch):
        # slopes 2.2e-16 apart on either side of a 12-decimal rounding boundary: the
        # first line lies 0.5 above the second on all of [0, 1] and alone makes the hull
        high = (1.0 + 0.12345678901249979, 1.0, np.array([[2, 2, 3]]))
        low = (0.5 + 0.12345678901250001, 0.5, np.array([[4, 1, 2]]))
        monkeypatch.setattr(extremal, "_envelope_lines", lambda fam: [low, high])
        (seg,) = envelope(7, "dc").segments
        assert (seg.alpha_lo, seg.alpha_hi, seg.lam1, seg.lam2) == (0.0, 1.0, *high[:2])
        assert seg.witness_code == code_of(2, 2, 3)

    def test_pinned_csv(self):
        # breakpoints, lines and witnesses of two envelopes, byte for byte
        assert envelope_to_csv(envelope(26, "dc")) == ENVELOPE_26_DC
        assert envelope_to_csv(envelope(10, "all")) == ENVELOPE_10_ALL

    def test_degenerate_small_family(self):
        env = envelope(5, "dc")
        vals = [env.value(i / 100) for i in range(101)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_normalized_bounds(self):
        env = normalized_envelope(26, "dc")
        assert abs(env.value(1.0) - 1.0) < 1e-9
        half = env.value(0.5)
        # the half-point is carried by DC(11,12,3), just above the (4,3) line
        want = (math.sqrt((25 + math.sqrt(5)) / 2) + math.sqrt((25 - math.sqrt(5)) / 2)) / 10.0
        assert abs(half - want) < 1e-9
        assert half >= math.sqrt(0.5) - 0.01
        for i in range(101):
            assert 0.0 <= env.value(i / 100) <= 1.0 + 1e-12
        assert abs(normalized_envelope(6, "all").value(1.0) - 1.0) < 1e-9


class TestLimitsAndExpansions:
    def test_limit_curve_values(self):
        assert abs(limit_curve(0.3) - math.sqrt(0.5)) < 1e-15
        assert limit_curve(1.0) == 1.0
        assert abs(limit_curve(0.7) - math.sqrt(0.58)) < 1e-15

    def test_tuned_params_orders(self):
        p3 = tuned_dc3_params(100, 0.75)
        p2 = tuned_dc2_params(100, 0.75)
        assert p3.n == 100 and p3.ell == 3
        assert p2.n == 100 and p2.ell == 2
        assert p2.k1 == p3.k1 + 1

    def test_asymptotic_params(self):
        ap = AsymptoticParams.from_alpha(0.75)
        assert abs(ap.t - 0.9) < 1e-12
        assert 0 <= ap.eps(500) < 1
        assert ap.q > 0
        with pytest.raises(ValueError):
            AsymptoticParams.from_alpha(0.5)

    def test_expansion_formula_difference_positive(self):
        # the printed formulas differ by q*t/((2t-1)*8*(n-1)^{3/2}) > 0
        for alpha in (0.6, 0.75, 0.9):
            ap = AsymptoticParams.from_alpha(alpha)
            for n in (200, 1000):
                diff = expansion_dc2(n, alpha) - expansion_dc3(n, alpha)
                want = ap.q * (ap.t / (2 * ap.t - 1)) / (8.0 * (n - 1) ** 1.5)
                assert diff > 0
                assert abs(diff - want) < 1e-13

    def test_exact_values_near_sqrt_scaling(self):
        for n in (500, 2000):
            got = exact_psi_dc(tuned_dc3_params(n, 0.75), 0.75)
            assert abs(got / math.sqrt(n - 1) - math.sqrt(0.625)) < 0.01

    def test_alpha_guard(self):
        with pytest.raises(ValueError):
            expansion_dc3(100, 0.4)

    def test_expansions_reject_bad_orders(self):
        for f in (expansion_dc2, expansion_dc3, extremal.curvature_expansion_dc2, extremal.curvature_expansion_dc3):
            for bad in (1, True, 0, -4, 2.5, "100"):
                with pytest.raises(ValueError, match="n"):
                    f(bad, 0.75)
            assert math.isfinite(f(2, 0.75)) and f(np.int64(500), 0.75) == f(500, 0.75)


class TestProbeAndGap:
    def test_probe_small_alpha_odd(self):
        probe = dc_structure_probe(101, 0.2)
        assert probe.winner == DoubleCometParams(49, 49, 3)
        assert probe.matches_predicted

    def test_probe_large_alpha(self):
        probe = dc_structure_probe(200, 0.8)
        assert probe.ell_is_2
        assert probe.hub_share_dev is not None and probe.hub_share_dev <= 0.05

    def test_probe_checks_alpha_before_searching(self, monkeypatch):
        assert dc_structure_probe(20, 0.3).matches_predicted
        monkeypatch.setattr(extremal, "search_extremal", None)  # a search would raise TypeError
        for bad in (1.0, -0.1, math.nan, True, "0.5", None):
            with pytest.raises(ValueError, match="alpha"):
                dc_structure_probe(20, bad)

    def test_probe_checks_n_before_searching(self, monkeypatch):
        # n = 2 has no comet to predict at alpha <= 1/2 and no hub share above it: a ValueError naming n, not a
        # TreeError from building the predicted comet
        monkeypatch.setattr(extremal, "search_extremal", None)  # a search would raise TypeError
        for n, alpha in ((2, 0.3), (2, 0.5), (2, 0.7), (2.0, 0.3), ("5", 0.3)):
            with pytest.raises(ValueError, match=f"n >= 3, got n={n!r}") as info:
                dc_structure_probe(n, alpha)
            assert not isinstance(info.value, TreeError)

    def test_gap_n4(self):
        rep = spectral_gap_min(4)
        assert rep.result.winner_codes == (canonical_code(make_path(4)).decode(),)
        assert rep.all_balanced_comets
        assert rep.star_maximizes_gap

    def test_gap_n10_reports(self):
        rep = spectral_gap_min(10)
        assert rep.result.winners
        assert isinstance(rep.all_balanced_comets, bool)
        assert rep.star_maximizes_gap
