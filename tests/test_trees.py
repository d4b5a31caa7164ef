import random

import pytest

from spectrees.trees import (
    DoubleCometParams,
    Tree,
    TreeError,
    canonical_code,
    centroids,
    from_edge_list,
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


@pytest.mark.parametrize(
    "n,edges,reason",
    [
        (3, [(0, 1), (1, 2), (0, 2)], "cyclic"),
        (4, [(0, 1), (2, 3)], "disconnected"),
        (3, [(0, 0), (1, 2)], "self-loop"),
        (3, [(0, 1), (0, 1)], "duplicate-edge"),
        (3, [(0, 1), (1, 5)], "vertex-range"),
        (4, [(0, 1), (1, 2), (2, 0)], "cyclic"),
    ],
)
def test_from_edge_list_errors(n, edges, reason):
    with pytest.raises(TreeError) as err:
        from_edge_list(n, edges)
    assert err.value.reason == reason


def test_from_edge_list_ok():
    t = from_edge_list(2, [(0, 1)])
    assert t.n == 2 and t.degree(0) == 1


def test_tree_is_immutable_value():
    a = from_edge_list(3, [(0, 1), (1, 2)])
    b = from_edge_list(3, [(1, 2), (0, 1)])
    assert a == b and hash(a) == hash(b)


def test_canonical_code_examples():
    assert canonical_code(make_path(4)) == canonical_code(make_double_comet(DoubleCometParams(1, 1, 2)))
    assert canonical_code(make_star(5)) != canonical_code(make_path(5))
    assert canonical_code(make_double_comet(DoubleCometParams(2, 3, 3))) == canonical_code(
        make_double_comet(DoubleCometParams(3, 2, 3))
    )


def test_canonical_code_relabeling_invariance():
    rng = random.Random(42)
    samples = [
        make_path(7),
        make_star(7),
        make_double_comet(DoubleCometParams(3, 2, 4)),
        from_edge_list(8, [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5), (5, 6), (5, 7)]),
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
