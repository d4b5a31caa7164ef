"""Generate every isomorphism class of trees of a given order exactly once.

Three modes:

* free trees by canonical level-sequence successor generation (the
  constant-amortized-time scheme of Wright, Richmond, Odlyzko and McKay:
  rooted Beyer-Hedetniemi successors restricted by a split condition on the
  root's first principal subtree),
* an independent brute-force oracle that decodes labeled trees from their
  parent-report (Pruefer) sequences and deduplicates by canonical code,
* the double-comet family, deduplicated at parameter level.

Free and labeled streams yield in canonical-code order, which makes stream
order and downstream tie-breaking reproducible; the double-comet mode
yields in a fixed parameter order with O(1) memory per item.

Searches and envelopes do not use the sorted free-tree stream: they take
the level sequences in generation order, in fixed-size numpy chunks
(``free_tree_level_chunks``), and never materialise or sort a class list
or its codes.
"""

from __future__ import annotations

import numpy as np

from .trees import DoubleCometParams, Tree, canonical_code, make_double_comet, make_path

MAX_EXHAUSTIVE_ORDER = 24
MAX_ORACLE_ORDER = 10
CHUNK_ROWS = 2048
_FULL_ORACLE_ORDER = 8  # full n^(n-2) scan up to here, covering subset beyond


class TreeStream:
    """A deterministic, resumable stream of pairwise non-isomorphic trees.

    ``position`` is the index of the next tree to be yielded; ``slice``
    restricts to an index range so consumers can partition work and merge
    per-range results into the same class multiset.
    """

    def __init__(self, n: int, mode: str, items, start: int = 0, stop: int | None = None):
        self.n = n
        self.mode = mode
        self._items = items  # callable index -> Tree, plus __len__ via _count
        self._count = len(items)
        self.position = start
        self._stop = self._count if stop is None else min(stop, self._count)

    def __len__(self) -> int:
        return self._stop - self.position

    def __iter__(self):
        return self

    def __next__(self) -> Tree:
        if self.position >= self._stop:
            raise StopIteration
        t = self._items[self.position]
        self.position += 1
        return t

    def slice(self, start: int, stop: int | None = None) -> "TreeStream":
        return TreeStream(self.n, self.mode, self._items, start, stop)


class _CodeSortedTrees:
    """Materialized (code, edges) list sorted by canonical code."""

    def __init__(self, n, coded):
        self.n = n
        self.rows = sorted(coded)

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, i):
        code, edges = self.rows[i]
        t = Tree(self.n, edges)
        t._code = code
        return t


class _ParamTrees:
    """Double-comet parameter list, decoded on demand."""

    def __init__(self, params):
        self.params = params

    def __len__(self):
        return len(self.params)

    def __getitem__(self, i):
        return make_double_comet(self.params[i])


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
    if not 1 <= n <= MAX_EXHAUSTIVE_ORDER:
        raise ValueError(f"exhaustive enumeration supports 1 <= n <= {MAX_EXHAUSTIVE_ORDER}, got {n}")
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


def free_tree_edge_lists(n: int):
    """Yield one edge list per isomorphism class, in generation order."""
    for seq in free_tree_levels(n):
        yield _level_seq_edges(seq)


def coded_free_trees(n: int):
    """(canonical code, edge tuple) per class, sorted by code."""
    coded = []
    for edges in free_tree_edge_lists(n):
        t = Tree(n, edges)
        coded.append((canonical_code(t), tuple(edges)))
    coded.sort()
    return coded


def enumerate_free_trees(n: int) -> TreeStream:
    """Every free tree of order n exactly once, in canonical-code order."""
    return TreeStream(n, "free-trees", _CodeSortedTrees(n, coded_free_trees(n)))


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
    """All n^(n-2) parent-report sequences."""
    length = n - 2
    seq = [0] * length
    while True:
        yield tuple(seq)
        i = length - 1
        while i >= 0 and seq[i] == n - 1:
            seq[i] = 0
            i -= 1
        if i < 0:
            return
        seq[i] += 1


def _nondecreasing_sequences(n: int):
    """All nondecreasing parent-report sequences.

    Every isomorphism class is covered: root any tree at an edge and
    eliminate leaves in reverse breadth-first rank while labeling the i-th
    eliminated vertex i. Breadth-first parent ranks are monotone, so the
    reported parents come out nondecreasing, and at each step the removed
    vertex carries the smallest remaining label, which is exactly the
    smallest-leaf rule of the encoding.
    """
    length = n - 2
    seq = [0] * length
    while True:
        yield tuple(seq)
        i = length - 1
        while i >= 0 and seq[i] == n - 1:
            i -= 1
        if i < 0:
            return
        seq[i] += 1
        for j in range(i + 1, length):
            seq[j] = seq[i]


def enumerate_labeled_oracle(n: int) -> TreeStream:
    """Brute-force class oracle from labeled-tree decoding; n <= 10.

    Up to n = 8 this decodes every one of the n^(n-2) sequences. For
    n in {9, 10} it scans the nondecreasing sequences only, a provably
    class-complete subset (see _nondecreasing_sequences) that keeps the
    cross-check affordable. Either way the result is the full set of
    isomorphism classes, deduplicated by canonical code.
    """
    if not 1 <= n <= MAX_ORACLE_ORDER:
        raise ValueError(f"labeled oracle supports 1 <= n <= {MAX_ORACLE_ORDER}, got {n}")
    if n == 1:
        return TreeStream(n, "labeled-dedup-oracle", _CodeSortedTrees(1, [(canonical_code(make_path(1)), ())]))
    if n == 2:
        k2 = Tree(2, [(0, 1)])
        return TreeStream(n, "labeled-dedup-oracle", _CodeSortedTrees(2, [(canonical_code(k2), ((0, 1),))]))
    gen = _all_sequences(n) if n <= _FULL_ORACLE_ORDER else _nondecreasing_sequences(n)
    seen = {}
    for seq in gen:
        t = Tree(n, decode_parent_report(seq, n))
        code = canonical_code(t)
        if code not in seen:
            seen[code] = tuple(t.edges())
    return TreeStream(n, "labeled-dedup-oracle", _CodeSortedTrees(n, list(seen.items())))


# -- double comets -------------------------------------------------------------


def double_comet_params(n: int):
    """Parameter triples covering each double-comet isomorphism class once.

    Degenerate overlaps are removed at parameter level: the path is
    (0, 0, n); the star is (n-1, 0, 1) and only exists apart from the path
    for n >= 4; brooms (k, 0, ell) need k >= 2 and ell >= 3 (a 2-path broom
    is a star); proper comets need k1 >= k2 >= 2 and ell >= 2.
    """
    if n < 2:
        raise ValueError(f"double comets need n >= 2, got {n}")
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


def enumerate_double_comets(n: int) -> TreeStream:
    """All double comets of order n, one per isomorphism class."""
    return TreeStream(n, "double-comets", _ParamTrees(double_comet_params(n)))


def enumerate_trees(n: int, family: str = "all") -> TreeStream:
    if family == "all":
        return enumerate_free_trees(n)
    if family == "dc":
        return enumerate_double_comets(n)
    raise ValueError(f"unknown family {family!r}; use 'all' or 'dc'")
