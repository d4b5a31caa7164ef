"""Generate every isomorphism class of trees of a given order exactly once.

Three modes:

* free trees by canonical level-sequence successor generation (the
  constant-amortized-time scheme of Wright, Richmond, Odlyzko and McKay:
  rooted Beyer-Hedetniemi successors restricted by a split condition on the
  root's first principal subtree),
* an independent brute-force oracle that decodes labeled trees from their
  parent-report (Pruefer) sequences and deduplicates by canonical code,
* the double-comet family, deduplicated at parameter level and generated
  one path order at a time as arrays of leaf counts.

``enumerate_free_trees`` and ``enumerate_labeled_oracle`` return
generators of trees in canonical-code order, which makes iteration order
and downstream tie-breaking reproducible; that order is only known once
every class is coded, so both code and sort the class list (the oracle
once per order: its decode dominates).
``enumerate_double_comets`` yields in a fixed parameter order, one tree at
a time. Counting needs no trees: ``count_free_trees`` streams the level
sequences and ``count_double_comets`` sums the array lengths of
``double_comet_arrays``, building no parameter object.

Searches and envelopes do not use the sorted free-tree list: they take
the level sequences in generation order, in fixed-size numpy chunks
(``free_tree_level_chunks``), and never materialise or sort a class list
or its codes.
"""

from __future__ import annotations

import itertools

import numpy as np

from .trees import DoubleCometParams, Tree, _integer, canonical_code, make_double_comet

MAX_EXHAUSTIVE_ORDER = 24
MAX_ORACLE_ORDER = 10
CHUNK_ROWS = 2048
_FULL_ORACLE_ORDER = 8  # full n^(n-2) scan up to here, covering subset beyond
_ORACLE_ROWS = {}  # n -> the oracle's code-sorted (code, edges) rows, read only


# -- free trees ----------------------------------------------------------------


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


def _level_seq_edges(seq):
    """Edges of the rooted tree encoded by a level sequence (preorder depths)."""
    stack = []
    edges = []
    for v, lv in enumerate(seq):
        del stack[lv:]
        if stack:
            edges.append((stack[-1], v))
        stack.append(v)
    return edges


def free_tree_levels(n: int):
    """Yield one level sequence (a fresh list) per isomorphism class, in generation order."""
    n = _integer("n", n, 1, MAX_EXHAUSTIVE_ORDER)
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


def free_tree_level_chunks(n: int):
    """Level sequences as (rows, n) int8 arrays of at most ``CHUNK_ROWS`` rows each.

    Nothing is kept between chunks, so memory stays bounded by the chunk
    size whatever the class count.
    """
    rows = []
    for seq in free_tree_levels(n):
        rows.append(bytes(seq))
        if len(rows) == CHUNK_ROWS:
            yield np.frombuffer(b"".join(rows), dtype=np.int8).reshape(CHUNK_ROWS, n)
            rows = []
    if rows:
        yield np.frombuffer(b"".join(rows), dtype=np.int8).reshape(len(rows), n)


def coded_free_trees(n: int):
    """(canonical code, edge tuple) per class, sorted by code."""
    coded = []
    for seq in free_tree_levels(n):
        edges = _level_seq_edges(seq)
        t = Tree(n, edges)
        coded.append((canonical_code(t), tuple(edges)))
    coded.sort()
    return coded


def _coded_trees(n: int, coded):
    """Trees from code-sorted (code, edges) rows, each with its code cached."""
    for code, edges in coded:
        t = Tree(n, edges)
        t._code = code
        yield t


def enumerate_free_trees(n: int):
    """Every free tree of order n exactly once, in canonical-code order."""
    return _coded_trees(n, coded_free_trees(n))


def count_free_trees(n: int) -> int:
    return sum(1 for _ in free_tree_levels(n))


# -- labeled (Pruefer) oracle -----------------------------------------------


def decode_parent_report(seq, n: int):
    """Edges of the labeled tree with the given parent-report sequence.

    Standard linear decode: degrees from symbol counts, then repeatedly
    match the smallest-labeled leaf against the next reported parent.
    """
    deg = [1] * n
    for s in seq:
        deg[s] += 1
    edges = []
    ptr = 0
    leaf = -1
    for s in seq:
        if leaf < 0:
            while deg[ptr] != 1:
                ptr += 1
            leaf = ptr
            ptr += 1
        edges.append((leaf, s))
        deg[s] -= 1
        deg[leaf] -= 1
        if deg[s] == 1 and s < ptr:
            leaf = s
        else:
            leaf = -1
    u = -1
    for v in range(n):
        if deg[v] == 1:
            if u < 0:
                u = v
            else:
                edges.append((u, v))
                break
    return edges


def _all_sequences(n: int):
    """All n^(n-2) parent-report sequences, in lexicographic order."""
    return itertools.product(range(n), repeat=max(n - 2, 0))


def _nondecreasing_sequences(n: int):
    """All nondecreasing parent-report sequences, in lexicographic order.

    Every isomorphism class is covered: root any tree at an edge and
    eliminate leaves in reverse breadth-first rank while labeling the i-th
    eliminated vertex i. Breadth-first parent ranks are monotone, so the
    reported parents come out nondecreasing, and at each step the removed
    vertex carries the smallest remaining label, which is exactly the
    smallest-leaf rule of the encoding.
    """
    return itertools.combinations_with_replacement(range(n), max(n - 2, 0))


def enumerate_labeled_oracle(n: int):
    """Brute-force class oracle from labeled-tree decoding; n <= 10.

    Up to n = 8 this decodes every one of the n^(n-2) sequences. For
    n in {9, 10} it scans the nondecreasing sequences only, a provably
    class-complete subset (see _nondecreasing_sequences) that keeps the
    cross-check affordable. Either way the result is the full set of
    isomorphism classes, deduplicated by canonical code. The decode runs
    once per order and process; every call yields fresh trees.
    """
    n = _integer("n", n, 1, MAX_ORACLE_ORDER)
    if n not in _ORACLE_ROWS:
        gen = _all_sequences(n) if n <= _FULL_ORACLE_ORDER else _nondecreasing_sequences(n)
        seen = {}
        for seq in gen:
            t = Tree(n, decode_parent_report(seq, n))
            code = canonical_code(t)
            if code not in seen:
                seen[code] = tuple(t.edges())
        _ORACLE_ROWS[n] = sorted(seen.items())
    return _coded_trees(n, _ORACLE_ROWS[n])


# -- double comets -------------------------------------------------------------


def double_comet_arrays(n: int):
    """The double-comet family one path order at a time, as ``(ell, k1, k2)``.

    ``ell`` is the path order and ``k1``, ``k2`` the int64 leaf-count
    arrays of its comets, each isomorphism class once. The path (0, 0, n)
    comes first, then the star (n-1, 0, 1) for n >= 4 (below that it is a
    path), then ell = 2 to n - 2: the broom (n-ell, 0, ell) when ell >= 3
    (a 2-path broom is a star), then the proper comets, k1 >= k2 >= 2 by
    increasing k2.
    """
    n = _integer("n", n, 2)
    zero = np.zeros(1, dtype=np.int64)
    yield n, zero, zero
    if n >= 4:
        yield 1, np.array([n - 1], dtype=np.int64), zero
    for ell in range(2, n - 1):
        rest = n - ell
        k2 = np.arange(2, rest // 2 + 1, dtype=np.int64)
        if ell >= 3:
            k2 = np.concatenate((zero, k2))
        yield ell, rest - k2, k2


def double_comet_group_params(ell: int, k1, k2):
    """``DoubleCometParams`` for one path order's leaf-count arrays, in array order."""
    return [DoubleCometParams(a, b, ell) for a, b in zip(k1.tolist(), k2.tolist())]


def double_comet_params(n: int):
    """Parameters of each double-comet isomorphism class once, in ``double_comet_arrays`` order."""
    return [p for group in double_comet_arrays(n) for p in double_comet_group_params(*group)]


def count_double_comets(n: int) -> int:
    return sum(len(k1) for _, k1, _ in double_comet_arrays(n))


def enumerate_double_comets(n: int):
    """All double comets of order n, one per isomorphism class, in parameter order."""
    return (make_double_comet(p) for p in double_comet_params(n))


def enumerate_trees(n: int, family: str = "all"):
    if family == "all":
        return enumerate_free_trees(n)
    if family == "dc":
        return enumerate_double_comets(n)
    raise ValueError(f"unknown family {family!r}; use 'all' or 'dc'")
