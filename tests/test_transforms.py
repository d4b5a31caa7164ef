import random

import pytest

from spectrees.enumeration import decode_parent_report
from spectrees.spectra import Lambda2MultiplicityError
from spectrees.transforms import (
    contract_internal_edge,
    hanging_path_shift,
    kelmans,
    rotate,
    rotation_gain,
)
from spectrees.trees import (
    DoubleCometParams,
    Tree,
    TreeError,
    canonical_code,
    make_double_comet,
    make_path,
    make_star,
)


def certified_increase(out):
    return out.certificates["after"].lam1_lo > out.certificates["before"].lam1_hi


class TestKelmans:
    def test_star_leaf_to_center_is_noop(self):
        s = make_star(5)
        out = kelmans(s, 1, 0)
        assert not out.strict_expected
        assert canonical_code(out.after) == canonical_code(s)

    def test_p5_to_spider(self):
        out = kelmans(make_path(5), 1, 3)
        spider = make_double_comet(DoubleCometParams(2, 0, 3))
        assert canonical_code(out.after) == canonical_code(spider)
        assert out.strict_expected and certified_increase(out)

    def test_role_swap_is_isomorphic_not_strict(self):
        # v keeps no private neighbor: the rewiring only renames u and v
        p3 = make_path(3)
        out = kelmans(p3, 1, 2)
        assert not out.strict_expected
        assert canonical_code(out.after) == canonical_code(p3)

    def test_repeated_toward_one_end(self):
        t = make_double_comet(DoubleCometParams(3, 3, 4))
        lam1 = None
        # walk the comet's hub mass toward vertex 3 step by step
        for u in (0, 1, 2):
            out = kelmans(t, u, u + 1)
            assert out.strict_expected and certified_increase(out)
            if lam1 is not None:
                assert out.quantities["lam1_before"] >= lam1 - 1e-9
            lam1 = out.quantities["lam1_after"]
            t = out.after

    def test_distance_guard(self):
        with pytest.raises(ValueError):
            kelmans(make_path(6), 0, 4)
        with pytest.raises(ValueError):
            kelmans(make_path(6), 2, 2)


class TestRotate:
    def test_p4_to_star(self):
        # removing the middle edge v1v0 and attaching v0 at v2 stars the path
        out = rotate(make_path(4), 2, 1, 0)
        assert canonical_code(out.after) == canonical_code(make_star(4))

    def test_involution(self):
        t = make_double_comet(DoubleCometParams(2, 3, 3))
        o1 = rotate(t, 0, 1, 2)
        o2 = rotate(o1.after, 1, 0, 2)
        assert canonical_code(o2.after) == canonical_code(t)

    def test_adjacency_guard(self):
        with pytest.raises(ValueError):
            rotate(make_path(5), 0, 2, 3)
        with pytest.raises(ValueError):
            rotate(make_path(5), 1, 2, 1)


class TestRotationGain:
    def test_sign_invariance_of_second_vector(self):
        # the gain is quadratic in y, so it is a well-defined number; two
        # evaluations must agree bit-for-bit (deterministic eigenvectors)
        t = make_double_comet(DoubleCometParams(2, 3, 4))
        g1 = rotation_gain(t, 0.7, 0, 1, 2)
        g2 = rotation_gain(t, 0.7, 0, 1, 2)
        assert g1 == g2

    def test_symmetric_comet_mirror_gains(self):
        t = make_double_comet(DoubleCometParams(2, 2, 3))  # path 0-1-2, leaves 3,4 | 5,6
        g_left = rotation_gain(t, 0.5, 0, 1, 2)
        g_right = rotation_gain(t, 0.5, 2, 1, 0)
        assert abs(abs(g_left) - abs(g_right)) < 1e-9

    def test_alpha_range_guard(self):
        t = make_path(5)
        with pytest.raises(ValueError):
            rotation_gain(t, 0.3, 0, 1, 2)

    def test_multiplicity_reported(self):
        with pytest.raises(Lambda2MultiplicityError):
            rotation_gain(make_star(6), 0.7, 1, 0, 2)

    def test_positive_gain_raises_objective(self):
        rng = random.Random(2)
        from spectrees.extremal import psi

        checked = 0
        while checked < 25:
            n = rng.randrange(5, 12)
            t = Tree(n, decode_parent_report([rng.randrange(n) for _ in range(n - 2)], n))
            v = rng.randrange(n)
            if t.degree(v) < 2:
                continue
            u, w = rng.sample(list(t.neighbors(v)), 2)
            alpha = rng.choice((0.5, 0.7, 0.9))
            try:
                gain = rotation_gain(t, alpha, u, v, w)
            except Lambda2MultiplicityError:
                continue
            if gain <= 1e-6:
                continue
            after = rotate(t, u, v, w).after
            assert psi(after, alpha).lo > psi(t, alpha).hi
            checked += 1


class TestContraction:
    def test_equality_at_two(self):
        # both trees sit at lam1 = 2 exactly: the lone equality case
        t = make_double_comet(DoubleCometParams(2, 2, 4))
        out = contract_internal_edge(t, 1, 2)
        assert canonical_code(out.after) == canonical_code(make_double_comet(DoubleCometParams(2, 2, 3)))
        assert not out.strict_expected
        assert abs(out.quantities["lam1_before"] - 2.0) < 1e-10
        assert abs(out.quantities["lam1_after"] - 2.0) < 1e-10

    def test_strict_above_two(self):
        t = make_double_comet(DoubleCometParams(3, 3, 5))
        out = contract_internal_edge(t, 1, 2)
        assert canonical_code(out.after) == canonical_code(make_double_comet(DoubleCometParams(3, 3, 4)))
        assert out.strict_expected and certified_increase(out)

    def test_subdivided_star_has_no_internal_edge(self):
        sub = Tree(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
        for u, v in sub.edges():
            with pytest.raises(ValueError):
                contract_internal_edge(sub, u, v)

    def test_non_edge_rejected(self):
        with pytest.raises(ValueError):
            contract_internal_edge(make_path(6), 0, 2)

    def test_order_drops_by_one(self):
        t = make_double_comet(DoubleCometParams(2, 3, 4))
        out = contract_internal_edge(t, 1, 2)
        assert out.after.n == t.n - 1


class TestHangingPathShift:
    def test_spider_strictly_decreases(self):
        sp = Tree(7, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6)])
        out = hanging_path_shift(sp, 0, 3, 2)
        assert out.certificates["after"].lam1_hi < out.certificates["before"].lam1_lo

    def test_path_shift_is_isomorphic(self):
        # a pure path viewed from its center: the equality case to skip
        out = hanging_path_shift(make_path(5), 2, 2, 2)
        assert canonical_code(out.after) == canonical_code(make_path(5))

    def test_leg_becomes_empty(self):
        sp = Tree(6, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5)])
        out = hanging_path_shift(sp, 0, 3, 1)
        assert out.after.n == 6
        assert out.certificates["after"].lam1_hi < out.certificates["before"].lam1_lo

    def test_structure_guard(self):
        with pytest.raises(ValueError):
            hanging_path_shift(make_path(5), 2, 3, 1)
        with pytest.raises(ValueError):
            hanging_path_shift(make_path(5), 2, 1, 2)


def test_bad_vertex_ids_are_named():
    t = make_double_comet(DoubleCometParams(2, 2, 3))
    calls = [lambda: rotate(t, 99, 0, 1), lambda: rotation_gain(t, 0.7, 99, 0, 1),
             lambda: contract_internal_edge(t, 99, 0), lambda: hanging_path_shift(t, 99, 1, 1),
             lambda: hanging_path_shift(t, -7, 1, 1), lambda: rotate(t, 0, 1.0, 2), lambda: kelmans(t, 1.5, 0),
             lambda: kelmans(t, 0, 7)]
    for call in calls:
        with pytest.raises(TreeError) as err:
            call()
        assert err.value.reason == "vertex-range"


def test_transforms_preserve_validity():
    rng = random.Random(77)
    for _ in range(40):
        n = rng.randrange(4, 12)
        t = Tree(n, decode_parent_report([rng.randrange(n) for _ in range(n - 2)], n))
        u = rng.randrange(n)
        v = rng.choice(list(t.neighbors(u)))
        out = kelmans(t, u, v)
        assert out.after.n == n and len(out.after.edges()) == n - 1
