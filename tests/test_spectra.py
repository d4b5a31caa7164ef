import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectrees.enumeration import decode_parent_report, enumerate_free_trees, free_tree_level_chunks
from spectrees.spectra import (
    EigenvectorData,
    Lambda2MultiplicityError,
    TreeBatch,
    _count_above,
    _rooted,
    adjacency_matrix,
    char_poly_eval,
    char_poly_eval_edges,
    count_eigenvalues_above,
    dc_char_quartic,
    dc_top_two_closed,
    dc_top_two_quotient,
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
from spectrees.trees import DoubleCometParams, Tree, make_double_comet, make_path, make_star


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

    def test_counts_total(self):
        rng = random.Random(3)
        for _ in range(30):
            t = random_tree(rng, rng.randrange(2, 14))
            c = count_eigenvalues_above(t, rng.uniform(-3, 3))
            assert c.n == t.n


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

    def test_path_is_lambda1_minimal_exhaustively(self):
        for n in range(3, 13):
            floor = top_two(make_path(n)).lam1_lo - 1e-10
            for t in enumerate_free_trees(n):
                assert top_two(t).lam1_hi >= floor


class TestClosedForms:
    def test_quartics(self):
        assert dc_char_quartic(DoubleCometParams(2, 2, 3)) == (1, 0, -6, 0, 8)
        assert dc_char_quartic(DoubleCometParams(12, 12, 2)) == (1, 0, -25, 0, 144)
        assert dc_char_quartic(DoubleCometParams(0, 1, 3)) == (1, 0, -3, 0, 1)

    def test_quartic_rejects_long_path(self):
        with pytest.raises(ValueError):
            dc_char_quartic(DoubleCometParams(2, 2, 4))
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
            (q1l, q1h), (q2l, q2h) = dc_top_two_quotient(p.k1, p.k2, p.ell)
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
            (q1l, q1h), (q2l, q2h) = dc_top_two_quotient(k1, k2, ell)
            assert abs(tt.lam1 - 0.5 * (q1l + q1h)) < 1e-9
            assert abs(tt.lam2 - 0.5 * (q2l + q2h)) < 1e-9

    def test_path_eigenvalue_examples(self):
        assert abs(path_eigenvalue(2, 1) - 1.0) < 1e-15
        assert abs(path_eigenvalue(6, 1) - 1.80193) < 1e-5
        assert abs(path_eigenvalue(6, 2) - 1.24697) < 1e-5
        with pytest.raises(ValueError):
            path_eigenvalue(5, 6)


class TestCharPoly:
    def test_values(self):
        assert char_poly_eval(make_path(2), 2.0) == 3.0
        assert char_poly_eval(make_path(4), 0.0) == 1.0

    def test_eigenvalue_root(self):
        assert abs(char_poly_eval(DC223, 2.0)) < 1e-9

    def test_edge_deletion_identity(self):
        # det(xI - A) for T equals the forest value for T - uv minus T - u - v
        rng = random.Random(9)
        for _ in range(40):
            n = rng.randrange(3, 10)
            t = random_tree(rng, n)
            edges = t.edges()
            u, v = edges[rng.randrange(len(edges))]
            x = rng.uniform(-2.5, 2.5)
            minus_edge = [e for e in edges if e != (u, v) and e != (v, u)]
            minus_both = [
                (a - (a > u) - (a > v), b - (b > u) - (b > v))
                for a, b in minus_edge
                if u not in (a, b) and v not in (a, b)
            ]
            lhs = char_poly_eval(t, x)
            rhs = char_poly_eval_edges(n, minus_edge, x) - char_poly_eval_edges(n - 2, minus_both, x)
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs), abs(rhs))


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
        assert ev.s_zero == {1}
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
            # sign convention: first supported vertex is positive
            lead = min(v for v in range(t.n) if abs(ev2.entries[v]) > ev2.tau)
            assert ev2.entries[lead] > 0


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


class TestIdentities:
    def test_local_equations_on_oracle_pair(self):
        t = make_double_comet(DoubleCometParams(3, 1, 4))
        vals, vecs = dense_eigh(t)
        ev = EigenvectorData(float(vals[0]), tuple(map(float, vecs[:, 0])),
                             frozenset(), frozenset(), frozenset(), 0.0, 0.0)
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
        bad = EigenvectorData(float(vals[0]), tuple(float(x) + 0.01 for x in vecs[:, 0]),
                              frozenset(), frozenset(), frozenset(), 0.0, 0.0)
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

    def test_lower_bound_validation(self):
        t = make_path(4)
        with pytest.raises(ValueError):
            spectral_sum_lower_bound(t, [1, 0, 0, 0], [0.5, 0.5, 0.5, 0.5])
        with pytest.raises(ValueError):
            spectral_sum_lower_bound(t, [1, 0, 0, 0], [1, 0, 0, 0])

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
                order, children = _rooted(Tree(n, batch.edges(r)))
                assert _count_above(order, children, x) == (above[r], equal[r])
        # one probe per row, as the bisection issues them
        xs = np.array([data.draw(st.sampled_from(probes)) for _ in rows])
        above, equal, _ = batch.count_above(xs)
        for r in range(len(batch)):
            order, children = _rooted(Tree(n, batch.edges(r)))
            assert _count_above(order, children, float(xs[r])) == (above[r], equal[r])

    check()
    assert sum(repairs) > 0, "the sample never exercised the zero-pivot repair"


def test_batched_top_two_equals_scalar_for_every_class():
    # 1e-300 runs every bracket down to float resolution, the other stop rule
    for n, tol in [(n, 1e-12) for n in range(2, 13)] + [(n, 1e-300) for n in range(3, 9)]:
        for levels in free_tree_level_chunks(n):
            batch = TreeBatch(levels)
            got = [a.tolist() for a in batch.top_two(tol)]
            for r in range(len(batch)):
                tt = top_two(Tree(n, batch.edges(r)), tol)
                assert tuple(a[r] for a in got) == (tt.lam1_lo, tt.lam1_hi, tt.lam2_lo, tt.lam2_hi)


def test_tree_batch_rejects_bad_levels():
    with pytest.raises(ValueError):
        TreeBatch([[0, 2, 1]])
    with pytest.raises(ValueError):
        TreeBatch([[1, 2]])
    with pytest.raises(ValueError):
        TreeBatch([[0]]).top_two()
