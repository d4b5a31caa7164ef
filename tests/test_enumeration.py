import pytest

from spectrees.enumeration import (
    CHUNK_ROWS,
    count_double_comets,
    count_free_trees,
    decode_parent_report,
    double_comet_params,
    enumerate_double_comets,
    enumerate_free_trees,
    enumerate_labeled_oracle,
    free_tree_level_chunks,
)
from spectrees.trees import DoubleCometParams, Tree, canonical_code, make_double_comet, make_path, make_star

# Class counts up to order 8, frozen from the full n^(n-2) labeled-decode
# oracle (the two generators are cross-checked against each other below and
# for n <= 10 in the enum-counts suite).
ORACLE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23}


def test_free_tree_counts_match_frozen_oracle_values():
    for n, want in ORACLE_COUNTS.items():
        assert count_free_trees(n) == len(list(enumerate_free_trees(n))) == want


def test_free_trees_are_distinct_valid_classes():
    for n in range(1, 9):
        codes = [canonical_code(t) for t in enumerate_free_trees(n)]
        assert len(codes) == len(set(codes))
        for t in enumerate_free_trees(n):
            assert t.n == n and len(t.edges()) == n - 1


def test_free_trees_yield_in_code_order():
    codes = [canonical_code(t) for t in enumerate_free_trees(9)]
    assert codes == sorted(codes)


def test_level_chunks_stream_every_class_once():
    # n=15 (7741 classes) spans several full chunks and a partial last one
    for n in (1, 2, 9, 15):
        chunks = list(free_tree_level_chunks(n))
        assert all(len(c) == CHUNK_ROWS for c in chunks[:-1])
        assert all(0 < len(c) <= CHUNK_ROWS and c.shape[1] == n for c in chunks)
        seqs = [tuple(row) for c in chunks for row in c.tolist()]
        assert len(seqs) == len(set(seqs)) == count_free_trees(n)
    with pytest.raises(ValueError):
        next(free_tree_level_chunks(25))


def test_oracle_agrees_with_generator_small():
    for n in range(1, 9):
        free = {canonical_code(t) for t in enumerate_free_trees(n)}
        orac = {canonical_code(t) for t in enumerate_labeled_oracle(n)}
        assert free == orac


def test_oracle_classes_n4():
    codes = {canonical_code(t) for t in enumerate_labeled_oracle(4)}
    assert codes == {canonical_code(make_path(4)), canonical_code(make_star(4))}


def test_oracle_rejects_large_order():
    with pytest.raises(ValueError):
        enumerate_labeled_oracle(11)
    with pytest.raises(ValueError):
        enumerate_free_trees(25)


def test_decode_parent_report_is_a_tree():
    # the decode of any sequence is a labeled tree on n vertices
    n = 7
    for seq in ((0, 0, 0, 0, 0), (6, 5, 4, 3, 2), (1, 3, 1, 3, 5)):
        t = Tree(n, decode_parent_report(seq, n))
        assert t.n == n


def test_double_comets_n4():
    codes = {canonical_code(t) for t in enumerate_double_comets(4)}
    assert codes == {canonical_code(make_path(4)), canonical_code(make_star(4))}


def _reference_double_comet_params(n):
    """The comet family as one explicit loop: path, star, then brooms and proper comets by path order."""
    out = [DoubleCometParams(0, 0, n)]
    if n >= 4:
        out.append(DoubleCometParams(n - 1, 0, 1))
    for ell in range(2, n + 1):
        rest = n - ell
        if ell >= 3 and rest >= 2:
            out.append(DoubleCometParams(rest, 0, ell))
        for k2 in range(2, rest // 2 + 1):
            k1 = rest - k2
            if k1 >= k2:
                out.append(DoubleCometParams(k1, k2, ell))
    return out


def test_double_comet_params_match_reference_loop():
    for n in range(2, 61):
        want = _reference_double_comet_params(n)
        # repr also pins plain int fields, which == alone would not tell from numpy ints
        assert repr(double_comet_params(n)) == repr(want), n
        assert count_double_comets(n) == len(want)


def test_double_comets_dedup_against_free_trees():
    # every comet class appears once, and all are genuine tree classes
    for n in range(2, 15):
        comets = [canonical_code(t) for t in enumerate_double_comets(n)]
        assert len(comets) == len(set(comets))
        free = {canonical_code(t) for t in enumerate_free_trees(n)}
        assert set(comets) <= free


def test_double_comets_n7_contains_balanced():
    want = canonical_code(make_double_comet(DoubleCometParams(2, 2, 3)))
    assert want in {canonical_code(t) for t in enumerate_double_comets(7)}


def test_double_comets_n26_quadratic_family():
    params = double_comet_params(26)
    assert (26 * 26) // 8 < len(params) < 26 * 26
    assert DoubleCometParams(12, 12, 2) in params


def test_double_comet_stream_deterministic():
    a = [canonical_code(t) for t in enumerate_double_comets(12)]
    b = [canonical_code(t) for t in enumerate_double_comets(12)]
    assert a == b
