import random
import sys
import threading

import numpy as np
import pytest

from spectrees import enumeration
from spectrees.enumeration import (
    CHUNK_ROWS,
    DC_BLOCK_ROWS,
    count_double_comets,
    count_free_trees,
    decode_parent_report,
    double_comet_arrays,
    double_comet_params,
    enumerate_double_comets,
    enumerate_free_trees,
    enumerate_labeled_oracle,
    free_tree_level_chunks,
)
from spectrees.trees import DoubleCometParams, Tree, canonical_code, make_double_comet, make_path, make_star

# Free trees of order n, OEIS A000055. Up to order 8 the full n^(n-2)
# labeled-decode oracle gives the same counts (the two generators are
# cross-checked against each other below and for n <= 10 in the enum-counts
# suite).
A000055 = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106, 11: 235, 12: 551, 13: 1301,
           14: 3159, 15: 7741, 16: 19320, 17: 48629, 18: 123867, 19: 317955}


def test_free_tree_count_is_the_sum_of_chunk_lengths():
    # the count sums the first subtrees' runs and gathers no chunk
    for n in range(1, 18):
        assert count_free_trees(n) == sum(len(c) for c in free_tree_level_chunks(n)), n


def test_free_tree_counts_match_frozen_oracle_values():
    for n, want in A000055.items():
        assert count_free_trees(n) == want, n
        if n <= 8:
            assert len(list(enumerate_free_trees(n))) == want


def _successor_rooted(seq, p=None):
    """Next canonical rooted level sequence in the Beyer-Hedetniemi order.

    From the last position p deeper than 1 (or the given p), the tail is
    the block seq[q:p] repeated, q being the last earlier position one
    level up from seq[p].
    """
    if p is None:
        p = len(seq) - 1
        while seq[p] <= 1:
            p -= 1
            if p < 0:
                return None
    if p <= 0:
        return None
    target = seq[p] - 1
    q = p - 1
    while seq[q] != target:
        q -= 1
    block = seq[q:p]
    tail = len(seq) - p
    return seq[:p] + (block * (tail // len(block) + 1))[:tail]


def _first_subtree_end(seq):
    """Index where the root's first principal subtree ends (seq[1] is its root)."""
    try:
        return seq.index(1, 2)
    except ValueError:
        return len(seq)


def _advance_to_free(seq):
    """Return seq if it encodes a canonical free tree, else jump past it.

    The split condition keeps exactly one representative per free tree: the
    first principal subtree must not be higher than the rest, and on equal
    height must not be bigger, nor lexicographically later at equal size.
    """
    n = len(seq)
    m = _first_subtree_end(seq)
    left_h = max(seq[1:m]) - 1
    rest_h = max(seq[m:]) if m < n else 0
    valid = rest_h >= left_h
    if valid and rest_h == left_h:
        if m - 1 > n - m + 1:
            valid = False
        elif m - 1 == n - m + 1 and [lv - 1 for lv in seq[1:m]] > [0] + seq[m:]:
            valid = False
    if valid:
        return seq, True
    p = m - 1
    nxt = _successor_rooted(seq, p)
    if nxt is not None and seq[p] > 2:
        k = max(nxt[1:_first_subtree_end(nxt)])  # new first subtree's height, plus one
        nxt[n - k:] = range(1, k + 1)
    return nxt, False


def _successor_free_trees(n):
    """One level sequence per free tree by Wright-Richmond-Odlyzko-McKay successor steps."""
    if n <= 2:
        yield list(range(n))
        return
    seq = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while seq is not None:
        seq, ok = _advance_to_free(seq)
        if seq is None:
            break
        if ok:
            yield seq
            seq = _successor_rooted(seq)


def test_level_chunks_equal_the_successor_generator():
    # the forest-table build reproduces the successor order row for row, cut at the same chunk boundaries
    for n in range(1, 17):
        want = np.array(list(_successor_free_trees(n)), dtype=np.int8)
        cuts = list(range(CHUNK_ROWS, len(want), CHUNK_ROWS))
        chunks = list(free_tree_level_chunks(n))
        assert len(chunks) == len(cuts) + 1
        for got, rows in zip(chunks, np.split(want, cuts)):
            got = got.levels
            assert got.dtype == np.int8 and got.flags.c_contiguous and np.array_equal(got, rows), n


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
        assert all(0 < len(c) <= CHUNK_ROWS and c.levels.shape[1] == n for c in chunks)
        seqs = [tuple(row) for c in chunks for row in c.levels.tolist()]
        assert len(seqs) == len(set(seqs)) == count_free_trees(n)
    with pytest.raises(ValueError):
        next(free_tree_level_chunks(25))


def test_level_chunks_check_the_order_at_the_call():
    # a bad order fails where the chunks are asked for, not at the first chunk, which a worker may draw
    for bad in (25, 0, 3.5, "7", True):
        with pytest.raises(ValueError, match=f"n={bad!r}"):
            free_tree_level_chunks(bad)


def test_replayed_chunks_equal_a_fresh_gather(monkeypatch):
    monkeypatch.setattr(enumeration, "_MEMO", {})
    for n in (3, 9, 16):
        first = list(free_tree_level_chunks(n))
        assert list(enumeration._MEMO) == [(n, CHUNK_ROWS)]  # recorded as it streamed
        replay = list(free_tree_level_chunks(n))
        fresh = list(enumeration._gathered(n, CHUNK_ROWS))
        assert len(replay) == len(fresh) and all(a is b for a, b in zip(replay, first))
        for old, new in zip(replay, fresh):
            for name in ("levels", "steps", "max_degree", "max_degree_sum"):
                a, b = getattr(old, name), getattr(new, name)
                assert not a.flags.writeable and (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        # a kept order's chunks share one writable block of count facts, a column per row from their first on,
        # which starts knowing nothing
        for chunks in (first, fresh):
            block = chunks[0].facts
            assert all(c.facts is block for c in chunks)
            assert [c.first for c in chunks] == np.cumsum([0] + [len(c) for c in chunks[:-1]]).tolist()
            assert block.flags.writeable and block.dtype == np.float64 and block.shape == (4, count_free_trees(n))
            assert (block == np.array([-np.inf, np.inf, -np.inf, np.inf])[:, None]).all()
        enumeration._MEMO.clear()
    # only an order the memo keeps carries facts: not n <= 2, nor one above the largest kept order
    assert next(free_tree_level_chunks(2)).facts is None
    monkeypatch.setattr(enumeration, "_MEMO_ORDER", 8)
    assert next(free_tree_level_chunks(9)).facts is None and not enumeration._MEMO


def test_memo_is_keyed_on_the_chunk_size(monkeypatch):
    # an order kept at CHUNK_ROWS rows a chunk streams in chunks of a patched size, gathered and then replayed,
    # as the scan tests that patch the size rely on; a fresh memo, so no entry of the patched size outlives the test
    monkeypatch.setattr(enumeration, "_MEMO", {})
    want = np.concatenate([c.levels for c in free_tree_level_chunks(12)])
    assert (12, CHUNK_ROWS) in enumeration._MEMO
    monkeypatch.setattr(enumeration, "CHUNK_ROWS", 100)
    for _ in range(2):
        chunks = list(free_tree_level_chunks(12))
        assert [len(c) for c in chunks] == [100] * 5 + [51]
        assert np.array_equal(np.concatenate([c.levels for c in chunks]), want)
    assert (12, 100) in enumeration._MEMO


def test_memo_holds_only_orders_within_its_budget(monkeypatch):
    # a sweep keeps every order 3-18, 13.4 MiB of chunks and facts in all, and records neither 19 (21.8 MiB)
    # nor 20 (58 MiB)
    monkeypatch.setattr(enumeration, "_MEMO", {})
    for n in range(2, 21):
        for _ in free_tree_level_chunks(n):
            pass
    assert list(enumeration._MEMO) == [(n, CHUNK_ROWS) for n in range(3, 19)]
    arrays = sum(a.nbytes for chunks in enumeration._MEMO.values() for c in chunks
                 for a in (c.levels, c.steps, c.max_degree, c.max_degree_sum))
    facts = sum(chunks[0].facts.nbytes for chunks in enumeration._MEMO.values())  # one block per order
    assert arrays + facts < 14 << 20, (arrays, facts)


def test_memo_is_shared_safely_by_threads(monkeypatch):
    # eight threads stream orders 6-11, one row a chunk, over a memo that keeps orders up to 9, so keeps, replays,
    # first streams of one order beside each other and orders never kept interleave; every stream is whole, and
    # the memo holds exactly the kept orders
    monkeypatch.setattr(enumeration, "_MEMO", {})
    monkeypatch.setattr(enumeration, "_MEMO_ORDER", 9)
    monkeypatch.setattr(enumeration, "CHUNK_ROWS", 1)
    want = {n: count_free_trees(n) for n in range(6, 12)}
    errors, interval = [], sys.getswitchinterval()

    def stream(seed):
        try:
            for n in random.Random(seed).choices(list(want), k=40):
                assert sum(len(c) for c in free_tree_level_chunks(n)) == want[n]
        except Exception as e:  # reported by the main thread
            errors.append(e)

    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=stream, args=(seed,)) for seed in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not errors, errors
    assert set(enumeration._MEMO) == {(n, 1) for n in range(6, 10)}


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


def _per_path_order_comets(n):
    """The comet family one path order at a time as (ell, k1, k2), ell an int: the oracle of the blocks."""
    zero = np.zeros(1, dtype=np.int64)
    yield n, zero, zero
    if n >= 4:
        yield 1, np.array([n - 1], dtype=np.int64), zero
    for ell in range(2, n - 1):
        rest = n - ell
        k2 = np.arange(1 if ell >= 3 else 2, rest // 2 + 1, dtype=np.int64)
        if ell >= 3:
            k2[0] = 0  # the broom
        yield ell, rest - k2, k2


def test_double_comet_blocks_match_per_path_order_loop(monkeypatch):
    # full blocks of int64 arrays, the last one shorter, hold the family in the
    # loop's order; blocks of 7 rows straddle path orders at every small order
    for rows, orders in ((DC_BLOCK_ROWS, [*range(2, 61), 400, 1001]), (7, range(2, 61))):
        monkeypatch.setattr(enumeration, "DC_BLOCK_ROWS", rows)
        for n in orders:
            want = [(ell, a, b) for ell, k1, k2 in _per_path_order_comets(n) for a, b in zip(k1.tolist(), k2.tolist())]
            blocks = list(double_comet_arrays(n))
            assert {len(ell) for ell, _, _ in blocks[:-1]} <= {rows} and 0 < len(blocks[-1][0]) <= rows, n
            assert all(a.dtype == np.int64 and a.shape == b[0].shape for b in blocks for a in b), n
            got = [t for ell, k1, k2 in blocks for t in zip(ell.tolist(), k1.tolist(), k2.tolist())]
            assert got == want, (n, rows)
            assert count_double_comets(n) == len(want), (n, rows)


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
