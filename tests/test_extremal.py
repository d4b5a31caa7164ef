import math

import pytest

from spectrees.enumeration import enumerate_free_trees
from spectrees.extremal import (
    AsymptoticParams,
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
from spectrees.trees import (
    DoubleCometParams,
    canonical_code,
    make_double_comet,
    make_path,
    make_star,
)


def code_of(*params):
    return canonical_code(make_double_comet(DoubleCometParams(*params))).decode()


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
        with pytest.raises(ValueError):
            psi(make_path(4), 1.5)

    def test_monotone_in_alpha(self):
        t = make_path(7)
        vals = [psi(t, a).value for a in (0.0, 0.25, 0.5, 0.75, 1.0)]
        assert vals == sorted(vals)


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

    def test_two_vertex_comet_family(self):
        # DC(0,0,2) is the 2-path with lam2 = -1; the family search must see it
        res = search_extremal(2, objective="min", family="dc", key="sum")
        w = res.winners[0]
        assert abs(w.lo - 0.0) < 1e-12 and w.params == DoubleCometParams(0, 0, 2)

    def test_jobs_below_one_rejected(self):
        for jobs in (0, -3):
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
            assert res.scanned == len(enumerate_free_trees(n))
        par = search_extremal(12, objective="max", family="all", key="lam2", exclude={best}, jobs=2)
        assert par == search_extremal(12, objective="max", family="all", key="lam2", exclude={best})

    def test_excluded_trees_are_not_discards(self):
        # only the path is left: nothing was certified out, so no runner-up bound exists
        path = canonical_code(make_path(7)).decode()
        others = {canonical_code(t).decode() for t in enumerate_free_trees(7)} - {path}
        for key in ("lam2", "sum"):
            res = search_extremal(7, objective="max", family="all", key=key, exclude=others)
            assert res.winner_codes == (path,)
            assert res.runner_up_gap is None

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            search_extremal(8, key="psi", alpha=2.0)
        with pytest.raises(ValueError):
            search_extremal(8, key="trace")
        with pytest.raises(ValueError):
            search_extremal(8, objective="between")
        with pytest.raises(ValueError):
            search_extremal(30, family="all", key="sum")


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


class TestProbeAndGap:
    def test_probe_small_alpha_odd(self):
        probe = dc_structure_probe(101, 0.2)
        assert probe.winner == DoubleCometParams(49, 49, 3)
        assert probe.matches_predicted

    def test_probe_large_alpha(self):
        probe = dc_structure_probe(200, 0.8)
        assert probe.ell_is_2
        assert probe.hub_share_dev is not None and probe.hub_share_dev <= 0.05

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
