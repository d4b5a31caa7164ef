import json
import math
import random

import numpy as np
import pytest

from spectrees import enumeration, extremal, spectra, transforms
from spectrees.enumeration import decode_parent_report, enumerate_free_trees
from spectrees.trees import (
    DoubleCometParams,
    Tree,
    TreeError,
    _tree_from_code,
    canonical_code,
    centroids,
    double_comet_code,
    make_double_comet,
    make_path,
    make_star,
    parse_tree_spec,
    relabel,
    tree_from_text,
    tree_to_text,
)


def test_path_degenerate_and_degrees():
    t = make_path(1)
    assert t.n == 1 and t.edges() == []
    t = make_path(4)
    assert t.degree_sequence() == (2, 2, 1, 1)
    assert make_path(6).distance(0, 5) == 5


def test_star_shape():
    t = make_star(2)
    assert t.edges() == [(0, 1)]
    t = make_star(6)
    assert t.degree(0) == 5
    assert t.max_degree() == 5


def test_double_comet_construction():
    assert canonical_code(make_double_comet(DoubleCometParams(0, 0, 5))) == canonical_code(make_path(5))
    t = make_double_comet(DoubleCometParams(2, 2, 3))
    assert t.n == 7
    assert t.degree_sequence() == (3, 3, 2, 1, 1, 1, 1)
    # two leaves on an edge is just the 4-path
    assert canonical_code(make_double_comet(DoubleCometParams(1, 1, 2))) == canonical_code(make_path(4))
    # terminal degrees
    t = make_double_comet(DoubleCometParams(3, 1, 4))
    assert t.degree(0) == 4 and t.degree(3) == 2
    # ell = 1 collapses to a star
    assert canonical_code(make_double_comet(DoubleCometParams(2, 2, 1))) == canonical_code(make_star(5))
    assert make_double_comet(DoubleCometParams(2, 2, 3)).distance(0, 2) == 2


def test_double_comet_rejects_bad_params():
    with pytest.raises(TreeError):
        DoubleCometParams(1, 1, 0)
    with pytest.raises(TreeError):
        DoubleCometParams(-1, 2, 3)
    for bad in ((1.5, 2, 3), (1, "2", 3), (1, 2, 3.0), (1, 2, None), (True, False, 3), (2, 1, True)):
        with pytest.raises(TreeError) as err:
            DoubleCometParams(*bad)
        assert err.value.reason == "vertex-count"
    assert DoubleCometParams(np.int64(2), 1, np.int64(3)).n == 6  # numpy integers stay valid, stored as ints
    p = DoubleCometParams(np.int64(3), 2, np.int64(4))
    assert p == DoubleCometParams(3, 2, 4) and repr(p) == "DoubleCometParams(k1=3, k2=2, ell=4)"
    assert all(type(v) is int for v in (p.k1, p.k2, p.ell, p.n))
    t = make_double_comet(DoubleCometParams(np.int64(2), 1, np.int64(3)))
    assert t == make_double_comet(DoubleCometParams(2, 1, 3)) and type(t.n) is int
    assert all(type(v) is int for edge in t.edges() for v in edge)


@pytest.mark.parametrize(
    "n,edges,reason",
    [
        (3, [(0, 1), (1, 2), (0, 2)], "cyclic"),
        (4, [(0, 1), (2, 3)], "disconnected"),
        (3, [(0, 0), (1, 2)], "self-loop"),
        (3, [(0, 1), (0, 1)], "duplicate-edge"),
        (3, [(0, 1), (1, 5)], "vertex-range"),
        (4, [(0, 1), (1, 2), (2, 0)], "cyclic"),
        (3, [(0, 1), (1, 2.0)], "vertex-range"),
        (3, [(0, 1), (1, "2")], "vertex-range"),
        (3, [(0, 1.5)], "vertex-range"),
        (3, [(0, 1), (1, np.float64(2))], "vertex-range"),
        (3, [(0, 1, 2), (1, 2)], "vertex-range"),
        (3, [(0, 1), 2], "vertex-range"),
    ],
)
def test_from_edge_list_errors(n, edges, reason):
    with pytest.raises(TreeError) as err:
        Tree(n, edges)
    assert err.value.reason == reason


def test_from_edge_list_ok():
    t = Tree(2, [(0, 1)])
    assert t.n == 2 and t.degree(0) == 1
    t = Tree(4, [(np.int64(0), np.int64(1)), (np.int32(1), 2), (2, np.uint8(3))])
    assert t == make_path(4) and all(type(v) is int for edge in t.edges() for v in edge)
    assert tree_from_text(tree_to_text(t)) == t  # numpy endpoints are stored as plain ints
    assert json.loads(json.dumps(t.edges())) == [[0, 1], [1, 2], [2, 3]]
    t = Tree(np.int64(3), [(0, 1), (1, 2)])
    assert t == make_path(3) and type(t.n) is int
    for bad in (3.0, "3", None, 0, True):
        with pytest.raises(TreeError) as err:
            Tree(bad, [(0, 1), (1, 2)])
        assert err.value.reason == "vertex-count"
    with pytest.raises(TreeError, match="vertex count") as err:
        Tree(True, [])  # a bool is no vertex count, though it has __index__
    assert err.value.reason == "vertex-count"


def test_bad_vertex_ids_are_named():
    t = make_double_comet(DoubleCometParams(2, 2, 3))
    calls = [lambda: relabel(t, [0]), lambda: relabel(t, [0, 1, 2, 3, 4, 5, 99]),
             lambda: relabel(t, [0, 0, 1, 2, 3, 4, 5]), lambda: t.degree(1.5), lambda: t.degree(-1),
             lambda: t.distance(0, 7), lambda: t.distance("0", 1), lambda: t.neighbors(-1)]
    for call in calls:
        with pytest.raises(TreeError) as err:
            call()
        assert err.value.reason == "vertex-range"
    assert relabel(t, [np.int64(6 - v) for v in range(7)]).degree(6) == 3


def test_bad_arguments_name_themselves():
    # one check (trees._integer, trees._real) for every count, vertex id and
    # alpha: a float, str, None, bool or NaN where an integer or a real
    # belongs is a ValueError naming the argument, a TreeError from trees
    t = make_path(5)
    p = DoubleCometParams(2, 2, 3)
    table = [
        (lambda: extremal.psi(t, True), "alpha=True", None),
        (lambda: extremal.limit_curve(True), "alpha=True", None),
        (lambda: extremal.limit_curve("0.5"), "alpha='0.5'", None),
        (lambda: extremal.envelope(6).value(True), "alpha=True", None),
        (lambda: extremal.envelope(6).value(None), "alpha=None", None),
        # a scale factor that is no finite real > 0 would leave no upper envelope
        (lambda: extremal.envelope(6).scaled(math.nan), "factor=nan", None),
        (lambda: extremal.envelope(6).scaled(0.0), "factor=0.0", None),
        (lambda: extremal.envelope(6).scaled(-2), "factor=-2", None),
        (lambda: extremal.envelope(6).scaled(math.inf), "factor=inf", None),
        (lambda: extremal.envelope(6).scaled("2"), "factor='2'", None),
        (lambda: extremal.expansion_dc3(100, None), "alpha=None", None),
        (lambda: extremal.expansion_dc2(100, "0.75"), "alpha='0.75'", None),
        (lambda: extremal.exact_psi_dc(p, 2.0), "alpha=2.0", None),
        (lambda: extremal.exact_psi_dc(p, math.nan), "alpha=nan", None),
        (lambda: extremal.tuned_dc3_params(100.0, 0.75), "n=100.0", None),
        (lambda: extremal.tuned_dc2_params("100", 0.75), "n='100'", None),
        (lambda: transforms.rotation_gain(t, True, 0, 1, 2), "alpha=True", None),
        (lambda: transforms.rotation_gain(t, "0.7", 0, 1, 2), "alpha='0.7'", None),
        (lambda: transforms.hanging_path_shift(t, 2, 2, 1.0), "ell=1.0", None),
        (lambda: transforms.kelmans(t, 0, True), "vertex=True", "vertex-range"),
        (lambda: spectra.eigenvector(t, True), "which=True", None),
        (lambda: spectra.count_eigenvalues_above(t, None), "x=None", None),
        (lambda: spectra.count_eigenvalues_above(t, -10**400), "x=-1000", None),
        (lambda: spectra.path_eigenvalue(3.0, 1), "n=3.0", None),
        (lambda: enumeration.enumerate_free_trees(3.0), "n=3.0", None),
        (lambda: enumeration.count_free_trees(3.0), "n=3.0", None),
        (lambda: enumeration.count_double_comets(3.0), "n=3.0", None),
        (lambda: enumeration.enumerate_labeled_oracle(True), "n=True", None),
        (lambda: make_path(3.0), "n=3.0", "vertex-count"),
        (lambda: make_star("4"), "n='4'", "vertex-count"),
        (lambda: t.degree(True), "vertex=True", "vertex-range"),
        (lambda: Tree(3, [(0, True), (1, 2)]), "vertex=True", "vertex-range"),
        # a spec or tree text that is no str, a vector or vertex set that is not iterable
        (lambda: parse_tree_spec(None), "spec=None", None),
        (lambda: tree_from_text(None), "text=None", None),
        (lambda: relabel(t, None), "perm=None", None),
        (lambda: spectra.spectral_sum_lower_bound(t, None, None), "x=None", None),
        (lambda: spectra.spectral_sum_lower_bound(t, [1, 0, 0, 0, 0], [0, None, 0, 0, 0]), "y=None", None),
        (lambda: spectra.lambda1_interval_of_vertices(t, None), "vertices=None", None),
    ]
    for call, named, reason in table:
        with pytest.raises(ValueError, match=named) as err:
            call()
        assert getattr(err.value, "reason", None) == reason, named


def test_tree_is_immutable_value():
    a = Tree(3, [(0, 1), (1, 2)])
    b = Tree(3, [(1, 2), (0, 1)])
    assert a == b and hash(a) == hash(b)


def test_canonical_code_examples():
    assert canonical_code(make_path(4)) == canonical_code(make_double_comet(DoubleCometParams(1, 1, 2)))
    assert canonical_code(make_star(5)) != canonical_code(make_path(5))
    assert canonical_code(make_double_comet(DoubleCometParams(2, 3, 3))) == canonical_code(
        make_double_comet(DoubleCometParams(3, 2, 3))
    )


def test_double_comet_code_matches_canonical_code():
    # every parameter triple of order <= 40, family classes or not: the star as ell = 1
    # with k2 > 0, one-leaf ends, bicentroidal comets, n = 1 and n = 2
    for n in range(1, 41):
        for ell in range(1, n + 1):
            for k1 in range(n - ell + 1):
                p = DoubleCometParams(k1, n - ell - k1, ell)
                assert double_comet_code(p) == canonical_code(make_double_comet(p)), p
    rng = random.Random(19)
    sample = [DoubleCometParams(0, 0, 3000), DoubleCometParams(2999, 0, 1), DoubleCometParams(1499, 1499, 2)]
    for _ in range(40):
        n = rng.randrange(41, 3001)
        ell = rng.randrange(1, n + 1)
        k1 = rng.randrange(n - ell + 1)
        sample.append(DoubleCometParams(k1, n - ell - k1, ell))
    for p in sample:
        assert double_comet_code(p) == canonical_code(make_double_comet(p)), p


def test_tree_from_code_reads_canonical_codes():
    for n in range(1, 10):
        for t in enumerate_free_trees(n):
            code = canonical_code(t).decode()
            back = _tree_from_code(code)
            assert back.n == n and canonical_code(back).decode() == code
    # P5 rooted at an end parses, but its code is rooted at the centre
    assert canonical_code(_tree_from_code("1((((()))))")) == b"1((())(()))"
    for bad in ("", "1", "2", "3()", "()", "1()()", "2()", "2()()()", "2(((()))((())))", "1((", "1())", "1)(", "1(x)"):
        with pytest.raises(ValueError):
            _tree_from_code(bad)


def test_canonical_code_relabeling_invariance():
    rng = random.Random(42)
    samples = [
        make_path(7),
        make_star(7),
        make_double_comet(DoubleCometParams(3, 2, 4)),
        Tree(8, [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5), (5, 6), (5, 7)]),
    ]
    for t in samples:
        want = canonical_code(t)
        for _ in range(100):
            perm = list(range(t.n))
            rng.shuffle(perm)
            assert canonical_code(relabel(t, perm)) == want


def test_centroids():
    assert centroids(make_path(5)) == (2,)
    assert centroids(make_path(4)) == (1, 2)
    assert centroids(make_star(9)) == (0,)


def _walk_sample():
    """Every tree of order <= 9 and seeded random labeled trees up to order 60."""
    rng = random.Random(11)
    small = [t for n in range(1, 10) for t in enumerate_free_trees(n)]
    sizes = [rng.randrange(10, 61) for _ in range(12)]
    return small + [Tree(n, decode_parent_report([rng.randrange(n) for _ in range(n - 2)], n)) for n in sizes]


def _floyd_warshall(t):
    inf = float("inf")
    d = [[0 if i == j else (1 if j in t.adjacency[i] else inf) for j in range(t.n)] for i in range(t.n)]
    for k in range(t.n):
        dk = d[k]
        for di in d:
            dik = di[k]
            for j in range(t.n):
                if dik + dk[j] < di[j]:
                    di[j] = dik + dk[j]
    return d


def test_distance_and_centroids_by_brute_force():
    for t in _walk_sample():
        d = _floyd_warshall(t)
        assert [[t.distance(u, v) for v in range(t.n)] for u in range(t.n)] == d, t
        # x shares w's component of T - v iff the w-x path avoids v
        largest = [max((sum(d[w][x] < d[w][v] + d[v][x] for x in range(t.n)) for w in t.adjacency[v]), default=0)
                   for v in range(t.n)]
        assert centroids(t) == tuple(v for v in range(t.n) if largest[v] == min(largest)), t


def test_text_roundtrip(tmp_path):
    t = make_double_comet(DoubleCometParams(2, 1, 3))
    text = tree_to_text(t)
    assert tree_from_text(text) == t
    p = tmp_path / "tree.txt"
    p.write_text(text)
    assert parse_tree_spec(f"file:{p}") == t


def test_parse_tree_spec():
    assert parse_tree_spec("path:5") == make_path(5)
    assert parse_tree_spec("star:4") == make_star(4)
    assert parse_tree_spec("dc:2,2,3") == make_double_comet(DoubleCometParams(2, 2, 3))
    with pytest.raises(TreeError):
        parse_tree_spec("ring:5")
    # non-integer tokens are named in a TreeError, not leaked as a bare int() error
    for spec, token in (("path:x", "'x'"), ("star:4.5", "'4.5'"), ("dc:1,x,3", "'x'")):
        with pytest.raises(TreeError, match=token):
            parse_tree_spec(spec)
    with pytest.raises(TreeError, match="'a'"):
        tree_from_text("3\n0 a\n1 2\n")
    for spec, reason in (("path5", "vertex-count"), ("dc:1,2", "vertex-count")):
        with pytest.raises(TreeError) as err:
            parse_tree_spec(spec)
        assert err.value.reason == reason, spec
    for text, reason in (("", "vertex-count"), (" \n\n", "vertex-count"), ("three\n0 1\n", "vertex-count"),
                         ("3\n0 1 2\n1 2\n", "vertex-range"), ("3\n0\n1 2\n", "vertex-range")):
        with pytest.raises(TreeError) as err:
            tree_from_text(text)
        assert err.value.reason == reason, text
