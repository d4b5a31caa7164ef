import math
import pickle
import random
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import batch_top_two, bfs_eigenvector, branches, exact_tree_counts

from spectrees import spectra
from spectrees.enumeration import _level_seq_edges, decode_parent_report, enumerate_free_trees, free_tree_level_chunks
from spectrees.extremal import _dc_pair_intervals, psi
from spectrees.spectra import (
    EigenvectorData,
    Lambda2MultiplicityError,
    SignCount,
    TOL,
    TreeBatch,
    _bisect_count,
    _branch_vertices,
    _branches,
    _count_above,
    _root_forest,
    _rooted,
    _slot,
    adjacency_matrix,
    count_eigenvalues_above,
    dc_top_two_closed,
    dense_eigh,
    dense_spectrum_oracle,
    eigenvector,
    ev_ev_identity_residual,
    jacobi_eigh,
    lambda1_interval_of_vertices,
    local_equation_residuals,
    path_eigenvalue,
    spectral_center,
    spectral_sum_lower_bound,
    top_two,
)
from spectrees.transforms import kelmans
from spectrees.trees import DoubleCometParams, Tree, TreeError, make_double_comet, make_path, make_star


def random_tree(rng, n):
    if n <= 2:
        return make_path(n)
    return Tree(n, decode_parent_report([rng.randrange(n) for _ in range(n - 2)], n))


DC223 = make_double_comet(DoubleCometParams(2, 2, 3))


class TestCounting:
    def test_k2_at_zero(self):
        c = count_eigenvalues_above(make_path(2), 0.0)
        assert (c.above, c.equal, c.below) == (1, 0, 1)

    def test_star_at_zero(self):
        c = count_eigenvalues_above(make_star(6), 0.0)
        assert (c.above, c.equal, c.below) == (1, 4, 1)

    def test_comet_above_19(self):
        c = count_eigenvalues_above(DC223, 1.9)
        assert (c.above, c.equal, c.below) == (1, 0, 6)

    def test_exact_eigenvalue_probe(self):
        # spectrum of DC(2,2,3) contains 2 and sqrt(2) exactly
        c = count_eigenvalues_above(DC223, 2.0)
        assert c.above == 0 and c.equal == 1

    @pytest.mark.xfail(strict=True, reason="a probe at an exact eigenvalue can round a zero pivot to "
                       "+1.8e-15 and count that eigenvalue above; see count_eigenvalues_above")
    def test_exact_eigenvalue_probe_on_a_forest(self):
        # T - 4 of this order-11 tree has a component with lam1 = 2 exactly; Fraction
        # pivots count 0 eigenvalues above 2 and 1 equal, the float pass (1, 0)
        t = Tree(11, [(0, 8), (1, 7), (1, 9), (2, 9), (2, 10), (3, 10), (4, 6), (4, 9), (5, 7), (8, 10)])
        keep = [u for u in range(11) if u != 4]
        index = {u: i for i, u in enumerate(keep)}
        forest = [[index[w] for w in t.adjacency[u] if w != 4] for u in keep]
        assert _count_above(*_root_forest(forest), 2.0) == (0, 1)

    def test_counts_total(self):
        rng = random.Random(3)
        for _ in range(30):
            t = random_tree(rng, rng.randrange(2, 14))
            c = count_eigenvalues_above(t, rng.uniform(-3, 3))
            assert c.n == t.n

    def test_nan_probe_rejected(self):
        p5 = make_path(5)
        with pytest.raises(ValueError, match="NaN"):
            count_eigenvalues_above(p5, math.nan)
        batch = TreeBatch([[0, 1, 2, 3, 4], [0, 1, 1, 1, 1]])
        for x in (math.nan, [0.5, math.nan]):
            with pytest.raises(ValueError, match="NaN"):
                batch.count_above(x)
        assert count_eigenvalues_above(p5, math.inf) == SignCount(0, 0, 5)
        assert count_eigenvalues_above(p5, -math.inf) == SignCount(5, 0, 0)

    def test_branch_pass_counts_every_branch(self):
        # each vertex's whole-tree count is the rooted count, and its branch
        # counts sum to the count of the forest T - v. The integer probes
        # meet zero pivots; they run on the small trees only, as on larger
        # ones an eigenvalue at an integer may round to either side
        rng = random.Random(17)
        small = [t for n in range(2, 9) for t in enumerate_free_trees(n)]
        large = [random_tree(rng, rng.randrange(9, 40)) for _ in range(30)]
        zeros = 0
        for t in small + large:
            post, up = _rooted(t)
            n = t.n
            probes = [0.0, rng.uniform(-3, 3)] + ([1.0, -1.0, 2.0] if n <= 8 else [])
            for x in probes:
                above = _count_above(post, up, x)[0]
                parent, piv, cnt = _branches(post, up, x)
                for v in range(n):
                    zeros += sum(piv[_slot(parent, w, v)] == 0.0 for w in t.adjacency[v])
                    assert cnt[2 * n + v] == above, (t.edges(), x, v)
                    keep = [u for u in range(n) if u != v]
                    index = {u: i for i, u in enumerate(keep)}
                    forest = [[index[w] for w in t.adjacency[u] if w != v] for u in keep]
                    branches = sum(cnt[_slot(parent, w, v)] for w in t.adjacency[v])
                    assert branches == _count_above(*_root_forest(forest), x)[0], (t.edges(), x, v)
        assert zeros > 0, "no probe met a zero branch pivot"

    def test_branch_pass_matches_the_list_reference(self):
        # the flat pass gives the list-based pass's pivots and counts bit for bit: every tree of order <= 10 at
        # probes that hit exact eigenvalues, where zero pivots take the limit form, and seeded random trees of
        # order 9-700 at the midpoints of their lam1 and lam2 brackets
        def zero_pivots(t, x):
            post, up = _rooted(t)
            got, want = _branches(post, up, x), branches(post, up, x)
            assert got[0] == want[0] and got[2] == want[2], (t.edges(), x)
            assert [p.hex() for p in got[1]] == [p.hex() for p in want[1]], (t.edges(), x)
            return got[1].count(0.0)

        probes = [0.0, -0.0, 1.0, -1.0, 2.0, 0.37, math.sqrt(2), math.sqrt(3)]
        assert sum(zero_pivots(t, x) for n in range(1, 11) for t in enumerate_free_trees(n) for x in probes) > 0
        rng = random.Random(41)
        for _ in range(25):
            t = random_tree(rng, rng.randrange(9, 701))
            tt = top_two(t)
            zero_pivots(t, tt.lam1)
            zero_pivots(t, tt.lam2)


def test_walks_by_brute_force():
    # every branch against its definition, and every induced forest's rooting
    rng = random.Random(29)
    small = [t for n in range(2, 10) for t in enumerate_free_trees(n)]
    for t in small + [random_tree(rng, rng.randrange(10, 61)) for _ in range(12)]:
        n = t.n
        d = [[t.distance(u, x) for x in range(n)] for u in range(n)]
        for v in range(n):
            for w in t.adjacency[v]:
                # x shares w's component of T - v iff the w-x path avoids v
                want = {x for x in range(n) if d[w][x] < d[w][v] + d[v][x]}
                assert _branch_vertices(t, w, v) == want, (t.edges(), w, v)
        for _ in range(5):
            keep = sorted(rng.sample(range(n), rng.randrange(1, n + 1)))
            index = {u: i for i, u in enumerate(keep)}
            forest = [[index[w] for w in t.adjacency[u] if w in index] for u in keep]
            post, up = _root_forest(forest)
            m = len(keep)
            assert sorted(post) == list(range(m))
            at = {u: i for i, u in enumerate(post)}
            edges = sorted((min(c, u), max(c, u)) for c, u in enumerate(up) if u < m)
            assert edges == sorted((u, w) for u in range(m) for w in forest[u] if u < w)
            assert all(at[u] > at[c] for c, u in enumerate(up) if u < m)


class TestTopTwo:
    def test_p6_matches_cosines(self):
        tt = top_two(make_path(6))
        assert abs(tt.lam1 - 2 * math.cos(math.pi / 7)) < 1e-10
        assert abs(tt.lam2 - 2 * math.cos(2 * math.pi / 7)) < 1e-10

    def test_balanced_comet_odd(self):
        tt = top_two(DC223)
        assert abs(tt.lam1 - 2.0) < 1e-10
        assert abs(tt.lam2 - math.sqrt(2.0)) < 1e-10

    def test_star_exact(self):
        tt = top_two(make_star(10))
        assert tt.lam1 == 3.0 and tt.lam2 == 0.0

    def test_k2_negative_lam2(self):
        tt = top_two(make_path(2))
        assert tt.lam1 == 1.0 and tt.lam2 == -1.0

    def test_intervals_enclose_and_order(self):
        rng = random.Random(5)
        for _ in range(40):
            t = random_tree(rng, rng.randrange(3, 16))
            tt = top_two(t, 1e-10)
            assert tt.lam1_hi - tt.lam1_lo <= 1e-10
            assert tt.lam2_hi - tt.lam2_lo <= 1e-10
            assert tt.lam1_lo >= tt.lam2_hi - 1e-10
            assert tt.lam1_hi <= math.sqrt(t.n - 1) + 1e-10

    def test_single_vertex_rejected(self):
        with pytest.raises(ValueError):
            top_two(make_path(1))
        for bad in (0.0, -1e-12, math.nan, math.inf, True):
            with pytest.raises(ValueError, match="tol"):
                top_two(make_path(4), bad)
            with pytest.raises(ValueError, match="tol"):
                top_two(make_star(4), bad)

    def test_widths_below_tol_rejected(self):
        # at width 1e-14 this tree's lam1 bracket would miss lam1: exact
        # pivots count no eigenvalue above its lower end; at TOL it holds
        rng = random.Random(1)
        t = [Tree(100, [(rng.randrange(v), v) for v in range(1, 100)]) for _ in range(30)][26]
        with pytest.raises(ValueError, match="TOL"):
            top_two(t, 1e-14)

        def exact_above(x):
            return exact_tree_counts(t, x)[0]

        tt = top_two(t)
        assert (exact_above(tt.lam1_lo), exact_above(tt.lam1_hi)) == (1, 0)
        assert (exact_above(tt.lam2_lo), exact_above(tt.lam2_hi)) == (2, 1)
        for bad in ("x", None, 1e-14, TOL / 2):
            with pytest.raises(ValueError, match="TOL"):
                top_two(make_path(4), bad)

    def test_each_tree_is_certified_once(self, monkeypatch):
        # top_two at TOL is kept on the tree: the eigenvectors, psi and the
        # transform reuse it, so only t's first call and the rewired tree bisect
        calls = []
        bisect = spectra._bisect_count
        monkeypatch.setattr(spectra, "_bisect_count", lambda *a: calls.append(a) or bisect(*a))
        t = random_tree(random.Random(8), 40)
        assert t.max_degree() < t.n - 1
        u = next(v for v in range(t.n) if t.degree(v) > 1)
        tt = top_two(t)
        eigenvector(t, 1), eigenvector(t, 2), psi(t, 0.3)
        outcome = kelmans(t, u, t.adjacency[u][0])
        assert len(calls) == 4
        assert outcome.certificates["before"] is tt and top_two(t) is tt

    def test_wider_widths_bypass_the_kept_certificate(self):
        rng = random.Random(12)
        for t in [random_tree(rng, 30), make_star(6)]:
            wide = top_two(t, 1e-6)
            tt = top_two(t)
            fresh = Tree(t.n, t.edges())
            assert top_two(t, 1e-6) == wide == top_two(fresh, 1e-6) and wide != tt
            assert tt == top_two(fresh) and tt.tol == TOL
            for tol in (np.float64(TOL), np.float64(1e-6)):
                for tree in (t, Tree(t.n, t.edges())):
                    assert type(top_two(tree, tol).tol) is float, (tol, tree)

    def test_certified_tree_pickles_as_its_value(self):
        t = random_tree(random.Random(13), 25)
        tt = top_two(t)
        back = pickle.loads(pickle.dumps(t))
        assert back == t and hash(back) == hash(t)
        assert top_two(back) == tt

    def test_path_is_lambda1_minimal_exhaustively(self):
        for n in range(3, 13):
            floor = top_two(make_path(n)).lam1_lo - 1e-10
            for t in enumerate_free_trees(n):
                assert top_two(t).lam1_hi >= floor


def _hexes(tt):
    return tuple(x.hex() for x in (tt.lam1_lo, tt.lam1_hi, tt.lam2_lo, tt.lam2_hi))


def _unguided(t, tol=TOL):
    """top_two's brackets as the unguided bisection gives them."""
    post, up = _rooted(t)
    l1 = _bisect_count(post, up, 1, 0.0, math.sqrt(t.n - 1), tol)
    return tuple(x.hex() for x in (*l1, *_bisect_count(post, up, 2, 0.0, l1[1], tol)))


class TestGuidedTopTwo:
    """Lanczos guesses move where top_two probes, never its brackets."""

    @pytest.fixture
    def guide(self, monkeypatch):
        """The guide forced on at every order; records each run's guesses."""
        monkeypatch.setattr(spectra, "_LANCZOS_ORDER", 2)
        runs = []
        lanczos = spectra._lanczos_guesses
        monkeypatch.setattr(spectra, "_lanczos_guesses", lambda *a: runs.append(lanczos(*a)) or runs[-1])
        return runs

    def test_every_small_class(self, guide):
        for n in range(4, 13):
            for chunk in free_tree_level_chunks(n):
                for levels in chunk.levels:
                    t = Tree(n, _level_seq_edges(levels))
                    if t.max_degree() < n - 1:
                        assert _hexes(top_two(t)) == _unguided(t), levels
        # a Krylov space this small is invariant: every run gives both guesses
        assert len(guide) == 975 and all(g == g for run in guide for g, _ in run)

    def test_prufer_trees_and_their_kelmans_rewirings(self, guide):
        # HEAD's brackets, pinned; every guess checks, so none restarts
        want = {
            (200, False): ("0x1.7af9f4cb82a60p+1", "0x1.7af9f4cb8316ep+1", "0x1.500031894f9e4p+1", "0x1.500031894ffd0p+1"),
            (200, True): ("0x1.7af9f66a9e744p+1", "0x1.7af9f66a9ee51p+1", "0x1.500039f01f39ep+1", "0x1.500039f01f98ap+1"),
            (700, False): ("0x1.8e2c33ce8b2f4p+1", "0x1.8e2c33ce8b990p+1", "0x1.7716ef0fcaf46p+1", "0x1.7716ef0fcb57fp+1"),
            (700, True): ("0x1.8e2c33ce8b2f4p+1", "0x1.8e2c33ce8b990p+1", "0x1.7716ef0fcaf46p+1", "0x1.7716ef0fcb57fp+1"),
            (1300, False): ("0x1.7ed8474547066p+1", "0x1.7ed84745474e7p+1", "0x1.7709406ed2aaap+1", "0x1.7709406ed30a5p+1"),
            (1300, True): ("0x1.7ed8474547066p+1", "0x1.7ed84745474e7p+1", "0x1.7709436f147d9p+1", "0x1.7709436f14dd4p+1"),
            (2100, False): ("0x1.82e6b4d760ea0p+1", "0x1.82e6b4d76145ap+1", "0x1.71aea18d29716p+1", "0x1.71aea18d29d21p+1"),
            (2100, True): ("0x1.82e6b4d760ea0p+1", "0x1.82e6b4d76145ap+1", "0x1.71aea18d29716p+1", "0x1.71aea18d29d21p+1"),
            (3000, False): ("0x1.800a7f6552dc6p+1", "0x1.800a7f655349ep+1", "0x1.7245beb25bb1ep+1", "0x1.7245beb25c11ep+1"),
            (3000, True): ("0x1.800a7f6552dc6p+1", "0x1.800a7f655349ep+1", "0x1.7245beb25bb1ep+1", "0x1.7245beb25c11ep+1"),
        }
        rng = random.Random(34)
        probes = []
        count = spectra._count_above
        for n in (200, 700, 1300, 2100, 3000):
            t = random_tree(rng, n)
            u, v = rng.choice([(u, v) for u, v in t.edges() if t.degree(u) > 1 and t.degree(v) > 1])
            for rewired, tree in ((False, t), (True, kelmans(t, u, v).after)):
                post, up = _rooted(tree)
                spectra._count_above = lambda *a: probes.append(a[2]) or count(*a)
                try:
                    got = _hexes(top_two(tree))
                finally:
                    spectra._count_above = count
                assert got == want[n, rewired] == _unguided(tree), (n, rewired)
        assert all(g == g for run in guide for g, _ in run)
        assert len(probes) < 10 * 20  # two checks per guess and a few probes each, against about 88 per tree

    def test_bisect_count_checks_every_guess(self):
        # exact, near, far, the other eigenvalue, none, on a midpoint, a huge margin:
        # the bracket is the unguided one, in float hex, at each width
        rng = random.Random(3)
        trees = [make_path(5), DC223, *(random_tree(rng, n) for n in (9, 12, 40))]
        for t in trees:
            post, up = _rooted(t)
            lam = sorted(np.linalg.eigvalsh(adjacency_matrix(t)), reverse=True)
            for tol in (TOL, 1e-9):
                hi = math.sqrt(t.n - 1)
                for k in (1, 2):
                    want = _bisect_count(post, up, k, 0.0, hi, tol)
                    exact, other = lam[k - 1], lam[2 - k]
                    guesses = [(exact, 0.0), (exact + 1e-8, 0.0), (exact - 1e-8, 0.0), (exact + 1e-8, 2e-8),
                               (exact - 1e-8, 2e-8), (other, 0.0), (math.nan, 0.0), (math.inf, 0.0),
                               (-math.inf, 0.0), (want[0], 0.0), (want[1], 0.0), (0.5 * hi, 0.0),
                               (exact, 1e300), (exact, math.inf), (exact + 0.1, 0.2)]
                    for guess, margin in guesses:
                        got = _bisect_count(post, up, k, 0.0, hi, tol, guess, margin)
                        assert [x.hex() for x in got] == [x.hex() for x in want], (t.edges(), k, guess, margin)
                    hi = want[1]

    def test_a_margin_that_covers_the_error_saves_probes(self, monkeypatch):
        t = random_tree(random.Random(6), 300)
        post, up = _rooted(t)
        lam1 = float(np.linalg.eigvalsh(adjacency_matrix(t))[-1])
        probes = [0]
        count = spectra._count_above
        monkeypatch.setattr(spectra, "_count_above", lambda *a: probes.__setitem__(0, probes[0] + 1) or count(*a))
        spent = {}
        for margin in (0.0, 2e-8):
            probes[0] = 0
            _bisect_count(post, up, 1, 0.0, math.sqrt(t.n - 1), TOL, lam1 + 1e-8, margin)
            spent[margin] = probes[0]
        # 1e-8 above lam1 but margin tol/4, the walk passes lam1: the first check
        # fails and the bisection restarts, 1 + 44 probes; within its margin, the
        # guess passes both checks and leaves a bracket 2e-8 to 8e-8 wide, 2 + 18
        assert spent == {0.0: 45, 2e-8: 20}, spent

    def test_a_ghost_of_lam1_is_skipped(self, monkeypatch):
        # a spider with ten legs of 40 and 39: lam1 = 10/3 converges within 24 steps,
        # and by step 48 a copy of it lies 1.5e-11 below, within their residuals;
        # lam2, near 2 among the legs' crowded eigenvalues, stalls and goes unguided
        t = Tree(400, [(0, 1 + i) if i % 40 == 0 else (i, 1 + i) for i in range(399)])
        looks = []
        ritz = spectra._ritz
        monkeypatch.setattr(spectra, "_ritz", lambda *a: iter(looks.append(list(ritz(*a))[:4]) or looks[-1]))
        (g1, d1), g2 = spectra._lanczos_guesses(*_rooted(t), TOL)
        (top, r1), (copy, r2) = looks[-1][:2]
        assert len(looks) == 2 and 0.0 < top - copy <= r1 + r2 and top - copy < 1e-10
        assert abs(g1 - 10 / 3) <= d1 == TOL / 4 and g2 == spectra._NO_GUESS
        monkeypatch.setattr(spectra, "_LANCZOS_ORDER", 2)
        assert _hexes(top_two(t)) == _unguided(t)

    def test_a_clustered_top_falls_back(self, monkeypatch):
        # the path's top eigenvalues crowd together: its Ritz values stall, and the
        # run stops at its second look with no guess
        t = make_path(3000)
        steps = []
        ritz = spectra._ritz
        monkeypatch.setattr(spectra, "_ritz", lambda alpha, *a: steps.append(len(alpha)) or ritz(alpha, *a))
        assert spectra._lanczos_guesses(*_rooted(t), TOL) == (spectra._NO_GUESS, spectra._NO_GUESS)
        assert steps == [24, 48]
        assert _hexes(top_two(t)) == _unguided(t) == (
            "0x1.ffffed9d2dba8p+0", "0x1.ffffed9d2e959p+0", "0x1.ffffb674b990ap+0", "0x1.ffffb674ba90ap+0")


class TestClosedForms:
    def test_quartic_rejects_long_path(self):
        with pytest.raises(ValueError):
            dc_top_two_closed(DoubleCometParams(2, 2, 5))

    def test_p4_value_from_both_routes(self):
        # DC(1,1,2) is the 4-path; closed form equals the cosine eigenvalue
        l1, _ = dc_top_two_closed(DoubleCometParams(1, 1, 2))
        assert abs(l1 - (1 + math.sqrt(5)) / 2) < 1e-12
        assert abs(l1 - path_eigenvalue(4, 1)) < 1e-12

    def test_figure_pairs(self):
        l1, l2 = dc_top_two_closed(DoubleCometParams(1, 2, 3))
        assert abs(l1 - 1.90211) < 1e-5 and abs(l2 - 1.17557) < 1e-5
        l1, l2 = dc_top_two_closed(DoubleCometParams(12, 12, 2))
        assert l1 == 4.0 and l2 == 3.0

    def test_random_agreement_with_bisection(self):
        rng = random.Random(11)
        for _ in range(50):
            ell = rng.choice((2, 3))
            n = rng.randrange(ell + 3, 120)
            k1 = rng.randrange(1, n - ell)
            p = DoubleCometParams(k1, n - ell - k1, ell)
            c1, c2 = dc_top_two_closed(p)
            tt = top_two(make_double_comet(p))
            assert abs(tt.lam1 - c1) < 1e-9 and abs(tt.lam2 - c2) < 1e-9
            q1l, q1h, q2l, q2h = _dc_pair_intervals([astuple(p)])[:, 0].tolist()
            assert abs(0.5 * (q1l + q1h) - c1) < 1e-9
            assert abs(0.5 * (q2l + q2h) - c2) < 1e-9

    def test_quotient_matches_bisection_long_comets(self):
        rng = random.Random(12)
        for _ in range(20):
            ell = rng.randrange(4, 12)
            n = rng.randrange(ell + 2, 60)
            k1 = rng.randrange(0, n - ell + 1)
            k2 = n - ell - k1
            tt = top_two(make_double_comet(DoubleCometParams(k1, k2, ell)))
            q1l, q1h, q2l, q2h = _dc_pair_intervals([(k1, k2, ell)])[:, 0].tolist()
            assert abs(tt.lam1 - 0.5 * (q1l + q1h)) < 1e-9
            assert abs(tt.lam2 - 0.5 * (q2l + q2h)) < 1e-9

    def test_path_eigenvalue_examples(self):
        assert abs(path_eigenvalue(2, 1) - 1.0) < 1e-15
        assert abs(path_eigenvalue(6, 1) - 1.80193) < 1e-5
        assert abs(path_eigenvalue(6, 2) - 1.24697) < 1e-5
        with pytest.raises(ValueError):
            path_eigenvalue(5, 6)


class TestOracle:
    def test_star_spectrum(self):
        vals = dense_spectrum_oracle(make_star(6))
        want = [math.sqrt(5), 0, 0, 0, 0, -math.sqrt(5)]
        assert max(abs(a - b) for a, b in zip(vals, want)) < 1e-10

    def test_path_spectrum(self):
        vals = dense_spectrum_oracle(make_path(6))
        want = sorted((path_eigenvalue(6, j) for j in range(1, 7)), reverse=True)
        assert max(abs(a - b) for a, b in zip(vals, want)) < 1e-10

    def test_comet_spectrum(self):
        vals = dense_spectrum_oracle(DC223)
        want = [2, math.sqrt(2), 0, 0, 0, -math.sqrt(2), -2]
        assert max(abs(a - b) for a, b in zip(vals, want)) < 1e-10

    def test_orthonormal_eigenvectors(self):
        t = make_double_comet(DoubleCometParams(3, 2, 4))
        vals, vecs = dense_eigh(t)
        A = adjacency_matrix(t)
        assert np.max(np.abs(A @ vecs - vecs * vals)) < 1e-10
        assert np.max(np.abs(vecs.T @ vecs - np.eye(t.n))) < 1e-10

    def test_rejects_large(self):
        with pytest.raises(ValueError):
            dense_spectrum_oracle(make_path(65))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            jacobi_eigh([[0.0, 1.0], [0.5, 0.0]])

    def test_interlacing_under_vertex_deletion(self):
        rng = random.Random(17)
        for _ in range(200):
            n = rng.randrange(3, 13)
            t = random_tree(rng, n)
            v = rng.randrange(n)
            vals = dense_spectrum_oracle(t)
            keep = [i for i in range(n) if i != v]
            sub = adjacency_matrix(t)[np.ix_(keep, keep)]
            thetas, _ = jacobi_eigh(sub)
            for i in range(n - 1):
                assert vals[i] >= thetas[i] - 1e-9
                assert thetas[i] >= vals[i + 1] - 1e-9


class TestEigenvectors:
    def test_star_perron(self):
        ev = eigenvector(make_star(4), 1)
        want = [math.sqrt(3 / 6)] + [math.sqrt(1 / 6)] * 3
        assert max(abs(a - b) for a, b in zip(ev.entries, want)) < 1e-9
        assert all(x > 0 for x in ev.entries)

    def test_comet_second_vector_antisymmetric(self):
        ev = eigenvector(DC223, 2)
        assert abs(ev.entries[1]) < 1e-9
        # halves carry opposite signs
        assert ev.entries[0] * ev.entries[2] < 0

    def test_p3_second(self):
        ev = eigenvector(make_path(3), 2)
        assert abs(ev.value) < 1e-10
        assert abs(abs(ev.entries[0]) - math.sqrt(0.5)) < 1e-9
        assert abs(ev.entries[1]) < 1e-9

    def test_multiplicity_reported(self):
        with pytest.raises(Lambda2MultiplicityError) as err:
            eigenvector(make_star(6), 2)
        assert err.value.multiplicity == 4

    def test_residuals_and_positivity(self):
        rng = random.Random(23)
        for _ in range(40):
            t = random_tree(rng, rng.randrange(2, 12))
            A = t.adjacency
            ev1 = eigenvector(t, 1)
            assert ev1.residual <= 1e-8
            assert all(x > 0 for x in ev1.entries)
            try:
                ev2 = eigenvector(t, 2)
            except Lambda2MultiplicityError:
                continue
            assert ev2.residual <= 1e-8
            # sign convention: the first entry of largest magnitude is positive
            assert max(ev2.entries, key=abs) > 0

    def test_every_small_tree_and_exact_zero_pivots(self):
        # P3's lam2 vector meets exact zero branch pivots (mu = 0); K2 has
        # exact brackets, P5 and DC(2,2,3) integer and square-root spectra
        special = [make_path(3), make_path(2), make_path(5), DC223]
        for t in special + [t for n in range(2, 11) for t in enumerate_free_trees(n)]:
            vals = dense_spectrum_oracle(t)
            for which in (1, 2):
                try:
                    ev = eigenvector(t, which)
                except Lambda2MultiplicityError:
                    continue
                assert all(math.isfinite(x) for x in ev.entries)
                assert abs(math.fsum(x * x for x in ev.entries) - 1.0) < 1e-12
                assert ev.residual <= 1e-11, (t.edges(), which)
                assert abs(ev.value - vals[which - 1]) < 1e-9
            assert all(x > 0 for x in eigenvector(t, 1).entries), t.edges()

    def test_spread_matches_the_breadth_first_reference(self):
        # up the start's path to the root, then parents first, the spread sets every entry to the float the
        # breadth-first spread from the start sets, an entry at a zero branch pivot (P3's mu = 0) included
        rng = random.Random(43)
        trees = [t for n in range(2, 10) for t in enumerate_free_trees(n)] + [make_path(n) for n in (3, 10, 101)]
        trees += [random_tree(rng, rng.randrange(50, 701)) for _ in range(10)]

        def hexed(ev):
            return [ev.value.hex(), ev.residual.hex(), *(z.hex() for z in ev.entries)]

        for t in trees:
            for which in (1, 2):
                try:
                    want = bfs_eigenvector(t, which)
                except Lambda2MultiplicityError:
                    with pytest.raises(Lambda2MultiplicityError):
                        eigenvector(t, which)
                    continue
                assert hexed(eigenvector(t, which)) == hexed(want), (t.edges(), which)


class TestSpectralCenter:
    def test_balanced_comet_vertex(self):
        rep = spectral_center(DC223)
        assert rep.kind == "spectral-vertex" and rep.vertex == 1
        assert abs(rep.checks["lam1_h1"] - math.sqrt(2)) < 1e-7
        assert abs(rep.checks["lam1_h2"] - rep.checks["lam2"]) < 1e-7

    def test_p4_edge(self):
        rep = spectral_center(make_path(4))
        assert rep.kind == "spectral-edge" and rep.edge == (1, 2)

    def test_p5_vertex(self):
        rep = spectral_center(make_path(5))
        assert rep.kind == "spectral-vertex" and rep.vertex == 2
        assert abs(rep.checks["lam2"] - 1.0) < 1e-9
        assert abs(rep.checks["lam1_h1"] - 1.0) < 1e-7

    def test_star_declines(self):
        with pytest.raises(Lambda2MultiplicityError):
            spectral_center(make_star(5))

    def test_induced_lambda1_helper(self):
        lo, hi = lambda1_interval_of_vertices(make_path(6), [0, 1, 2])
        assert abs(0.5 * (lo + hi) - math.sqrt(2)) < 1e-9
        assert lambda1_interval_of_vertices(make_path(6), []) is None
        assert lambda1_interval_of_vertices(make_path(6), [0]) == (0.0, 0.0)

    def test_induced_lambda1_rejects_bad_vertices(self):
        for bad in ([-1, 3], [7], [0, 5], [0, 1.5, 2]):
            with pytest.raises(TreeError) as err:
                lambda1_interval_of_vertices(make_path(5), bad)
            assert err.value.reason == "vertex-range"

    def test_random_trees_of_order_200_to_800(self):
        rng = random.Random(4)
        for _ in range(10):
            t = random_tree(rng, rng.randrange(200, 801))
            rep = spectral_center(t)
            c, lam2 = rep.checks, rep.checks["lam2"]
            assert not rep.h1 & rep.h2 and min(rep.h1) < min(rep.h2)
            if rep.kind == "spectral-vertex":
                # H1 and H2 are two components of T - vertex
                v = rep.vertex
                assert v not in rep.h1 | rep.h2
                for h in (rep.h1, rep.h2):
                    outside = {w for u in h for w in t.adjacency[u]} - h
                    assert outside == {v}
                assert abs(c["lam1_h1"] - lam2) <= 2 * TOL and abs(c["lam1_h2"] - lam2) <= 2 * TOL
            else:
                a, b = rep.edge
                assert rep.h1 | rep.h2 == set(range(t.n)) and a in rep.h1 and b in rep.h2
                assert [(u, w) for u in rep.h1 for w in t.adjacency[u] if w in rep.h2] == [(a, b)]
                margin = min(c["lam1_h1"] - lam2, c["lam1_h2"] - lam2,
                             lam2 - c["lam1_h1_minus_a"], lam2 - c["lam1_h2_minus_b"])
                assert margin >= -2 * TOL


class TestIdentities:
    def test_local_equations_on_oracle_pair(self):
        t = make_double_comet(DoubleCometParams(3, 1, 4))
        vals, vecs = dense_eigh(t)
        ev = EigenvectorData(float(vals[0]), tuple(map(float, vecs[:, 0])), 0.0)
        r1, r2 = local_equation_residuals(t, ev)
        assert r1 <= 1e-8 and r2 <= 1e-8

    def test_star_center_equation_clean(self):
        t = make_star(7)
        ev = eigenvector(t, 1)
        r1, _ = local_equation_residuals(t, ev)
        assert r1 <= 1e-10

    def test_perturbed_vector_detected(self):
        t = make_path(6)
        vals, vecs = dense_eigh(t)
        bad = EigenvectorData(float(vals[0]), tuple(float(x) + 0.01 for x in vecs[:, 0]), 0.0)
        r1, _ = local_equation_residuals(t, bad)
        assert r1 > 1e-3

    def test_evev_identity_examples(self):
        assert ev_ev_identity_residual(make_star(4), 1, 0) < 1e-10
        assert ev_ev_identity_residual(make_path(3), 1, 0) < 1e-10
        # mirror-symmetric tree: lam2 eigenvector vanishes at the center,
        # and the identity's right side vanishes with it
        assert ev_ev_identity_residual(make_path(5), 2, 2) < 1e-10

    def test_evev_rejects_degenerate(self):
        with pytest.raises(ValueError):
            ev_ev_identity_residual(make_star(6), 2, 1)
        for bad in (1.5, 7, -1):
            with pytest.raises(TreeError) as err:
                ev_ev_identity_residual(DC223, 1, bad)
            assert err.value.reason == "vertex-range"

    def test_lower_bound_validation(self):
        t = make_path(4)
        with pytest.raises(ValueError):
            spectral_sum_lower_bound(t, [1, 0, 0, 0], [0.5, 0.5, 0.5, 0.5])
        with pytest.raises(ValueError):
            spectral_sum_lower_bound(t, [1, 0, 0, 0], [1, 0, 0, 0])
        # NaN fails every comparison, so it must not slip past the norm and dot checks
        nan = math.nan
        for x, y in (([nan] * 4, [nan] * 4), ([1, 0, 0, 0], [0, nan, 0, 0]), ([nan, 0, 0, 0], [0, 1, 0, 0]),
                     ([math.inf, 0, 0, 0], [0, 1, 0, 0])):
            with pytest.raises(ValueError):
                spectral_sum_lower_bound(t, x, y)
        with pytest.raises(ValueError):
            spectral_sum_lower_bound(make_path(3), [nan] * 3, [nan] * 3)

    def test_lower_bound_never_exceeds_sum(self):
        rng = random.Random(31)
        t = make_double_comet(DoubleCometParams(3, 3, 2))
        tt = top_two(t)
        for _ in range(60):
            x = np.array([rng.gauss(0, 1) for _ in range(t.n)])
            y = np.array([rng.gauss(0, 1) for _ in range(t.n)])
            x /= np.linalg.norm(x)
            y -= (x @ y) * x
            y /= np.linalg.norm(y)
            assert spectral_sum_lower_bound(t, x, y) <= tt.lam1_hi + tt.lam2_hi + 1e-8

    def test_lower_bound_star_halves(self):
        # indicator-style vectors on the two halves of DC(k,k,2)
        t = make_double_comet(DoubleCometParams(3, 3, 2))
        x = np.zeros(t.n)
        y = np.zeros(t.n)
        x[[0] + list(t.neighbors(0))] = 1.0
        x[1] = 0.0
        y[[1] + list(t.neighbors(1))] = 1.0
        y[0] = 0.0
        x /= np.linalg.norm(x)
        y /= np.linalg.norm(y)
        got = spectral_sum_lower_bound(t, x, y)
        tt = top_two(t)
        assert got <= tt.lam1_hi + tt.lam2_hi + 1e-8
        assert got > 2.0  # two disjoint 3-stars are worth sqrt(3) each


# -- batched kernel ------------------------------------------------------------


@st.composite
def level_sequence(draw, n):
    """A preorder depth sequence of a rooted tree on n vertices (any labelling)."""
    levels = [0]
    for _ in range(1, n):
        levels.append(draw(st.integers(1, levels[-1] + 1)))
    return levels


def test_batched_counts_match_scalar_kernel():
    repairs = []

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data())
    def check(data):
        n = data.draw(st.integers(3, 24))
        rows = data.draw(st.lists(level_sequence(n), min_size=1, max_size=6))
        batch = TreeBatch(rows)
        top = math.sqrt(n - 1) + 0.5
        probes = [0.5, 1.0, 1.5, 2.0, 3.0, data.draw(st.floats(0.0, top)), data.draw(st.floats(0.0, top))]
        for x in probes:
            above, equal, rep = batch.count_above(x)
            repairs.append(int(rep.sum()))
            for r in range(len(batch)):
                post, up = _rooted(Tree(n, _level_seq_edges(rows[r])))
                assert _count_above(post, up, x) == (above[r], equal[r])
        # one probe per row, as the bisection issues them
        xs = np.array([data.draw(st.sampled_from(probes)) for _ in rows])
        above, equal, _ = batch.count_above(xs)
        for r in range(len(batch)):
            post, up = _rooted(Tree(n, _level_seq_edges(rows[r])))
            assert _count_above(post, up, float(xs[r])) == (above[r], equal[r])

    check()
    assert sum(repairs) > 0, "the sample never exercised the zero-pivot repair"


def test_batched_top_two_equals_scalar_for_every_class():
    for n in range(2, 13):
        for chunk in free_tree_level_chunks(n):
            levels = chunk.levels
            got = [a.tolist() for a in batch_top_two(levels)]
            for r in range(len(levels)):
                tt = top_two(Tree(n, _level_seq_edges(levels[r])), TOL)
                assert tuple(a[r] for a in got) == (tt.lam1_lo, tt.lam1_hi, tt.lam2_lo, tt.lam2_hi)


def test_batched_bisect_equals_scalar_at_float_resolution():
    # width 1e-300 runs every bracket down to float resolution, the other stop rule
    for n in range(3, 9):
        for levels in (chunk.levels for chunk in free_tree_level_chunks(n)):
            batch = TreeBatch(levels)
            l1 = batch.bisect(1, 0.0, math.sqrt(n - 1), 1e-300)
            l2 = batch.bisect(2, 0.0, l1[1], 1e-300)
            for r in range(len(batch)):
                post, up = _rooted(Tree(n, _level_seq_edges(levels[r])))
                want1 = _bisect_count(post, up, 1, 0.0, math.sqrt(n - 1), 1e-300)
                want2 = _bisect_count(post, up, 2, 0.0, want1[1], 1e-300)
                assert (l1[0][r], l1[1][r], l2[0][r], l2[1][r]) == (*want1, *want2)


def test_weighted_path_counts_match_dense_oracle():
    # the quotient of a double comet is a weighted path: the tridiagonal with
    # off-diagonals sqrt(w); weight-0 edges split it, as padding does
    repairs = []

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data())
    def check(data):
        n = data.draw(st.integers(2, 16))
        weight = st.sampled_from([0.0, 1.0, 1.0, 2.0, 3.0, 0.5, 7.0])
        rows = data.draw(st.lists(st.lists(weight, min_size=n, max_size=n), min_size=1, max_size=5))
        batch = TreeBatch([list(range(n))] * len(rows), rows)
        spectra = [jacobi_eigh(np.diag(off, 1) + np.diag(off, -1))[0] for off in np.sqrt(np.array(rows)[:, 1:])]
        top = math.sqrt(8.0 * n)
        probes = [0.0, 0.5, 1.0, 2.0, math.sqrt(2.0), data.draw(st.floats(0.0, top)), data.draw(st.floats(-top, top))]
        for x in probes:
            above, equal, rep = batch.count_above(x)
            repairs.append(int(rep.sum()))
            for r, (w, vals) in enumerate(zip(rows, spectra)):
                # an eigenvalue within the oracle's resolution of x may fall on
                # either side; every other one must be counted on its own side
                far_above, near = int(np.sum(vals > x + 1e-9)), int(np.sum(abs(vals - x) <= 1e-9))
                assert far_above <= above[r] <= above[r] + equal[r] <= far_above + near, (w, x)

    check()
    assert sum(repairs) > 0, "the sample never exercised the zero-pivot repair"


def test_guided_bisect_equals_unguided(monkeypatch):
    # a guess moves where the bisection probes, never its bracket: exact, near and
    # far guesses, the other eigenvalue, none, one exactly on a midpoint, on weighted
    # paths and trees, at widths that stop by width, at float resolution, or after
    # 200 probes (lam1 = 1e-100 of the 2-path weighted 1e-200 from [0, 2] at 1e-300)
    rows_probed = [0]
    eliminate = TreeBatch._eliminate

    def counting(steps, w, work, x):
        rows_probed[0] += steps.shape[1]
        return eliminate(steps, w, work, x)

    monkeypatch.setattr(TreeBatch, "_eliminate", staticmethod(counting))
    offsets = [0.0, 1e-14, -1e-14, 1e-9, -1e-9, 1e-3, -1e-3]
    spent = {"guided": 0, "unguided": 0}

    def same(batch, k, lo, hi, tol, guess):
        rows_probed[0] = 0
        want = batch.bisect(k, lo, hi, tol)
        spent["unguided"] += rows_probed[0]
        rows_probed[0] = 0
        got = batch.bisect(k, lo, hi, tol, guess=np.array(guess, dtype=float))
        spent["guided"] += rows_probed[0]
        assert [x.hex() for a in got for x in a.tolist()] == [x.hex() for a in want for x in a.tolist()], guess
        return want

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.data())
    def check(data):
        n = data.draw(st.integers(2, 14))
        if data.draw(st.booleans()):
            weight = st.sampled_from([0.0, 1.0, 1.0, 2.0, 3.0, 0.5, 7.0])
            weights = data.draw(st.lists(st.lists(weight, min_size=n, max_size=n), min_size=1, max_size=5))
            batch = TreeBatch([list(range(n))] * len(weights), weights)
            mats = [np.diag(off, 1) + np.diag(off, -1) for off in np.sqrt(np.array(weights)[:, 1:])]
            top = 2.0 * math.sqrt(7.0)
        else:
            levels = data.draw(st.lists(level_sequence(n), min_size=1, max_size=5))
            batch = TreeBatch(levels)
            mats = [adjacency_matrix(Tree(n, _level_seq_edges(seq))) for seq in levels]
            top = math.sqrt(n - 1)
        eigs = [np.linalg.eigvalsh(a)[::-1].tolist() + [0.0] for a in mats]  # a trailing 0 stands in for a missing lam2
        tol = data.draw(st.sampled_from([TOL, TOL, 1e-9, 1e-300]))
        hi = top
        for k in (1, 2):
            unguided = batch.bisect(k, 0.0, hi, tol)
            kinds = [*offsets, "other", "none", "mid", "first"]
            guess = []
            for r, vals in enumerate(eigs):
                kind = data.draw(st.sampled_from(kinds))
                if kind == "other":
                    guess.append(vals[2 - k])
                elif kind == "none":
                    guess.append(data.draw(st.sampled_from([math.nan, math.inf, -math.inf])))
                elif kind == "mid":  # a bracket end is a midpoint the bisection took
                    guess.append(unguided[data.draw(st.integers(0, 1))][r])
                elif kind == "first":
                    guess.append(0.5 * (0.0 + (hi if np.ndim(hi) == 0 else hi[r])))
                else:
                    guess.append(vals[k - 1] + kind)
            hi = same(batch, k, 0.0, hi, tol, guess)[1]

    check()
    # P5's lam2 = 1 exactly, guessed exactly; the 2-path weighted 1e-200 stops after 200 probes
    p5 = TreeBatch([[0, 1, 2, 3, 4]])
    spent.update(guided=0, unguided=0)
    l1 = same(p5, 1, 0.0, 2.0, TOL, [math.sqrt(3.0)])
    assert spent == {"guided": 3, "unguided": 41}, spent  # two checks and one probe
    for tol in (TOL, 1e-300):
        same(p5, 2, 0.0, l1[1], tol, [1.0])
    tiny = TreeBatch([[0, 1]] * 3, [[0.0, 1e-200]] * 3)
    lo, hi = same(tiny, 1, 0.0, 2.0, 1e-300, [1e-100, 1e-100 * (1 + 1e-9), 2.0 ** -199])
    assert hi.tolist() == [2.0 ** -199] * 3 and lo.tolist() == [0.0] * 3
    assert spent["guided"] < spent["unguided"], spent


def test_tree_batch_rejects_bad_levels():
    with pytest.raises(ValueError):
        TreeBatch([[0, 2, 1]])
    with pytest.raises(ValueError):
        TreeBatch([[1, 2]])
    with pytest.raises(ValueError):
        batch_top_two([[0]])
    for bad in ([[0.0, 1.0]], [1.0, 1.0, 1.0], [[0.0, 1.0, 1.0]] * 2, [[0.0, -1.0, 1.0]],
                [[0.0, math.inf, 1.0]], [[0.0, 1.0, math.nan]]):
        with pytest.raises(ValueError, match="weights"):
            TreeBatch([[0, 1, 2]], bad)
    # bisect takes 1 <= k <= n, a finite width > 0 and one guess per row: a NaN
    # width ran every row to float resolution, k = 4 on P3 returned a bracket
    p3 = TreeBatch([[0, 1, 2]])
    bad = [(k, TOL, None, "k=") for k in (0, 4, True, 1.0, None)]
    bad += [(1, tol, None, "tol=") for tol in (math.nan, 0.0, -TOL, math.inf, "1e-12")]
    bad += [(1, TOL, guess, "guess") for guess in ([1.0, 1.0], 1.4, [[1.4]])]
    for k, tol, guess, name in bad:
        with pytest.raises(ValueError, match=name):
            p3.bisect(k, 0.0, 2.0, tol, guess=guess)
    # no probe divides 0/0 (a RuntimeWarning, so an error here): not at x = 0
    # below weight-0 padding, not at a zero root pivot (x = 1 on the 2-path)
    # whatever the root's entry; row 0 is the 2-path plus two isolated
    # vertices, row 1 the unit 4-path
    batch = TreeBatch([[0, 1, 2, 3]] * 2, [[0.0, 1.0, 0.0, 0.0], [3.0, 1.0, 1.0, 1.0]])
    for x, want in ((0.0, [(1, 2), (2, 0)]), (1.0, [(0, 1), (1, 0)]), (-1.0, [(3, 1), (3, 0)])):
        above, equal, _ = batch.count_above(x)
        assert list(zip(above.tolist(), equal.tolist())) == want
