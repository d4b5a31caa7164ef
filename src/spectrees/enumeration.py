"""Generate every isomorphism class of trees of a given order exactly once.

Three modes:

* free trees as canonical level sequences: the representatives of Wright,
  Richmond, Odlyzko and McKay (a centre as root, split at the root's first
  principal subtree), in their lex-decreasing generation order, built in
  bulk by numpy from tables of forests, one table per forest size,
* an independent brute-force oracle that decodes labeled trees from their
  parent-report (Pruefer) sequences and deduplicates by canonical code,
* the double-comet family, deduplicated at parameter level and generated
  in fixed-size blocks of path-order and leaf-count arrays.

``enumerate_free_trees`` and ``enumerate_labeled_oracle`` return
generators of trees in canonical-code order, which makes iteration order
and downstream tie-breaking reproducible; that order is only known once
every class is coded, so both code and sort the class list (the oracle
once per order: its decode dominates).
``enumerate_double_comets`` yields in a fixed parameter order, one tree at
a time. Counting needs no trees: ``count_free_trees`` sums the runs of
rows each first subtree takes, gathering no chunk, and
``count_double_comets`` is a closed form, building no parameter object.

Searches and envelopes do not use the sorted free-tree list: they take
the level sequences in generation order, in fixed-size numpy chunks
(``free_tree_level_chunks``), and never materialise or sort a class list
or its codes. The coded list reads the same chunks. A chunk
(``LevelChunk``) carries beside its level sequences what the batched
inertia scan needs of each tree: its postorder step table, its largest
degree and its largest sum of one vertex's neighbours' degrees. The forest
tables hold these per forest, composed by the same gathers as the level
rows, so no table is rebuilt from the level sequences.

Repeated scans at one order share its chunks: every order 3 <= n <= 18
is kept once streamed (13.4 MiB of chunks and facts in all), and a later
``free_tree_level_chunks`` call replays it, building no table and
gathering nothing. The chunks of such an order also carry each row's
count facts (``facts``), which every scan tightens and later scans read,
so they share their inertia counts too. A larger order streams in the
memory of its tables and one chunk each call, and carries no facts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .trees import DoubleCometParams, Tree, _integer, canonical_code, make_double_comet

MAX_EXHAUSTIVE_ORDER = 24
MAX_ORACLE_ORDER = 10
CHUNK_ROWS = 2048
DC_BLOCK_ROWS = 16384  # comets per block of double_comet_arrays
_FULL_ORACLE_ORDER = 8  # full n^(n-2) scan up to here, covering subset beyond
_ORACLE_ROWS = {}  # n -> the oracle's code-sorted (code, edges) rows, read only
_MEMO_ORDER = 18  # the largest order _MEMO keeps: orders 3-18 take 13.4 MiB of chunks and facts (2n + 34 bytes a row)
_MEMO = {}  # (n, rows per chunk) -> that order's LevelChunks


# -- free trees ----------------------------------------------------------------


def _spans(starts, counts):
    """The ranges ``starts[i] : starts[i] + counts[i]`` concatenated into one index array."""
    offsets = np.cumsum(counts) - counts
    return np.arange(int(counts.sum())) - np.repeat(offsets - starts, counts)


@dataclass(frozen=True)
class _Forests:
    """The forests of one size s as level-sequence rows, each tree rooted at level 0.

    Rows are lex-decreasing, so rows with the same first tree form one run,
    and the first trees of the runs decrease: run i spans rows
    ``starts[i]:starts[i + 1]``, its first tree has byte key ``keys[i]`` and
    height ``heights[i]``. A taller tree is lex-larger, so heights do not
    increase either.

    Beside each row, ``steps`` holds its postorder step table: for each
    postorder slot (post(v) = v - depth(v) + size(v) - 1), the slot of its
    parent, or s at a root. ``stats`` holds five counts per row, each degree
    counting the edge to the parent (``_STATS``).
    """

    rows: np.ndarray
    starts: np.ndarray
    keys: np.ndarray
    heights: np.ndarray
    steps: np.ndarray
    stats: np.ndarray

    def first_at_most(self, keys):
        """Index of the first row whose first tree is at most each key."""
        return self.starts[len(self.keys) - np.searchsorted(self.keys[::-1], keys, side="right")]

    def at_least(self, height):
        """Number of rows whose first tree is at least ``height`` high (a prefix)."""
        return self.starts[np.searchsorted(-self.heights, -height, side="right")]


@dataclass(frozen=True)
class _Trees:
    """The rooted trees of one size k, lex-decreasing: tree i is ``[0] + forests[k-1].rows[first + i] + 1``.

    A tree's byte key holds each level plus one, so it has no zero byte, and
    numpy's comparison of zero-padded bytes is level-sequence order across
    sizes: lexicographic, a proper prefix first.
    """

    first: int
    keys: np.ndarray
    heights: np.ndarray

    @classmethod
    def up_to_height(cls, forests: _Forests, most: int):
        """The trees over the rows of ``forests`` at most ``most`` high: a suffix of the rows."""
        run = np.searchsorted(-forests.heights, -(most - 1), side="left")
        first = int(forests.starts[run])
        keys = np.empty((len(forests.rows) - first, forests.rows.shape[1] + 1), np.uint8)
        keys[:, 0] = 1
        keys[:, 1:] = forests.rows[first:] + 2
        heights = np.repeat(forests.heights[run:] + 1, np.diff(forests.starts[run:]))
        return cls(first, keys.view(f"S{keys.shape[1]}").ravel(), heights)


# The columns of _Forests.stats, each degree counting the edge to the parent:
# the roots; the largest degree (0 for no vertex); the largest sum of a non-root's
# neighbours' degrees (0 for none); the largest sum of a root's children's degrees
# (-1 for no root, so an empty forest's term never wins a maximum); and the sum of
# the roots' degrees.
_STATS = ("roots", "max_degree", "inner", "outer", "root_degrees")
_EMPTY_STATS = (0, 0, 0, -1, 0)


def _compose(first, rest):
    """Overwrite ``rest`` with the ``_STATS`` of a tree r over the forest ``first`` followed by ``rest``; return it.

    Row by row; each column takes only the same column of ``rest``, so it is
    safe in place.
    """
    r = first[:, 0] + 1  # r's degree: its children, first's roots, and its parent
    rest[:, 0] += 1
    np.maximum(np.maximum(r, first[:, 1]), rest[:, 1], out=rest[:, 1])
    np.maximum(np.maximum(first[:, 2], first[:, 3] + r), rest[:, 2], out=rest[:, 2])  # first's roots see r
    np.maximum(first[:, 4], rest[:, 3], out=rest[:, 3])  # r's children are first's roots
    rest[:, 4] += r
    return rest


def _forest_tables(n: int):
    """Forest tables and tree lists for the free trees of order n >= 3.

    ``forests[s]``, s = 0..n-2, holds the forests of size s whose trees are
    at most n-2-s high: the rest of the root's children once a first subtree
    of n-1-s vertices is chosen. ``trees[k]``, k = 1..n-2, holds the trees of
    size k with k + height <= n - 1, the possible first subtrees; they are
    ``[0] + forests[k-1] + 1`` for the forests short enough. A forest of size
    s is a tree t of size k <= s, at most n-2-s high, followed by a forest
    of ``forests[s-k]`` whose first tree is at most t (a suffix of runs).
    Step tables and stats compose by the same two gathers: t's children
    take slots 0..k-2, their roots stepping to t's root at slot k-1, which
    steps to s, and the rest follows shifted by k, its roots stepping to s.
    Sizes are the only Python loops.
    """
    empty = _Forests(np.zeros((1, 0), np.int8), np.array([0, 1]), np.zeros(1, "S1"), np.array([-1], np.int8),
                     np.zeros((1, 0), np.int8), np.array([_EMPTY_STATS], np.int8))
    forests = [empty]
    trees = [None, _Trees.up_to_height(empty, n - 2)]
    for s in range(1, n - 1):
        plan, keys, heights, counts = [], [], [], []
        for k in range(1, s + 1):
            tk = trees[k]
            tall = np.searchsorted(-tk.heights, -(n - 2 - s), side="left")
            start = forests[s - k].first_at_most(tk.keys[tall:])
            plan.append((k, tk.first + tall, start))
            keys.append(tk.keys[tall:])
            heights.append(tk.heights[tall:])
            counts.append(len(forests[s - k].rows) - start)
        keys, heights, counts = np.concatenate(keys), np.concatenate(heights), np.concatenate(counts)
        order = np.argsort(keys)[::-1]  # trees of different sizes never tie
        starts = np.concatenate(([0], np.cumsum(counts[order])))
        to = np.empty_like(counts)
        to[order] = starts[:-1]  # each run's first row in the table
        size = int(starts[-1])
        table = _Forests(np.empty((size, s), np.int8), starts, keys[order], heights[order],
                         np.empty((size, s), np.int8), np.empty((size, len(_STATS)), np.int8))
        first_stats = np.empty_like(table.stats)  # of t's children, beside the rest's in table.stats
        runs = 0
        for k, at, start in plan:  # t's children come from forests[k - 1], the rest from forests[s - k]
            first, rest = forests[k - 1], forests[s - k]
            count = counts[runs:runs + len(start)]
            gather = _spans(start, count)
            into = gather + np.repeat(to[runs:runs + len(start)] - start, count)  # the same runs, placed in order
            runs += len(start)
            block = np.empty((len(into), s), np.int8)
            block[:, 0] = 0
            block[:, 1:k] = np.repeat(first.rows[at:] + 1, count, axis=0)
            block[:, k:] = rest.rows.take(gather, axis=0)
            table.rows[into] = block
            block[:, :k - 1] = np.repeat(first.steps[at:], count, axis=0)
            block[:, k - 1] = s
            np.add(rest.steps.take(gather, axis=0), k, out=block[:, k:])
            table.steps[into] = block
            first_stats[into] = np.repeat(first.stats[at:], count, axis=0)
            table.stats[into] = rest.stats.take(gather, axis=0)
        _compose(first_stats, table.stats)
        del first_stats  # before the next table's, which may be larger, is allocated
        forests.append(table)
        if s < n - 2:
            trees.append(_Trees.up_to_height(forests[s], n - 2 - s))
    return forests, trees


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


def _first_subtree_runs(n: int):
    """Each possible first subtree T1 of the free trees of order n >= 3, lex-decreasing, with its rests.

    Returns ``(flat, steps, stats, lead, sizes, t1_row, f_row, counts)``.
    ``flat`` and ``steps`` hold every forest table's level rows and step
    rows end to end, at the same offsets, and ``stats`` their stats rows:
    row r of ``forests[s]`` has stats row r and starts at ``flat[lead[s] + r
    * s]``, r counted over all tables. T1 number i has ``sizes[i]``
    vertices, its forest of children (``[0] + forest + 1`` is T1) is row
    ``t1_row[i]``, and its rests F are ``counts[i]`` consecutive rows of
    ``forests[n - 1 - sizes[i]]`` from row ``f_row[i]``. Rows are int32:
    ``flat`` stays far below 2**31 bytes up to ``MAX_EXHAUSTIVE_ORDER``, and
    the narrower type halves a chunk's gather.
    """
    forests, trees = _forest_tables(n)
    base = np.cumsum([0] + [f.rows.size for f in forests])
    row_base = np.cumsum([0] + [len(f.rows) for f in forests])
    order = np.argsort(np.concatenate([tk.keys for tk in trees[1:]]))[::-1]  # no two trees tie
    place = np.empty(len(order), np.int64)  # each T1's place in lex-decreasing order
    place[order] = np.arange(len(order))
    del order
    sizes = np.empty(len(place), np.int8)
    t1_row, f_row, counts = (np.empty(len(place), np.int32) for _ in range(3))
    done = 0
    for k, tk in enumerate(trees[1:], 1):
        rest = forests[n - 1 - k]
        i = np.arange(len(tk.keys))
        start = rest.first_at_most(tk.keys)
        if 2 * k < n:
            stop = rest.at_least(tk.heights - 1)
        elif 2 * k > n:
            stop = rest.at_least(tk.heights)
        else:  # F and T1's forest share forests[k - 1], and [0] + F + 1 >= T1 down to T1's own row
            stop = tk.first + i + 1
        into = place[done:done + len(i)]
        done += len(i)
        sizes[into] = k
        t1_row[into] = row_base[k - 1] + tk.first + i
        f_row[into] = row_base[n - 1 - k] + start
        counts[into] = stop - start
    del trees, tk
    flat, steps = np.empty(base[-1], np.int8), np.empty(base[-1], np.int8)
    stats = np.empty((row_base[-1], len(_STATS)), np.int8)
    for s in range(len(forests)):  # each table is freed once copied, so memory never holds it twice
        f, forests[s] = forests[s], None
        flat[base[s]:base[s + 1]], steps[base[s]:base[s + 1]] = f.rows.ravel(), f.steps.ravel()
        stats[row_base[s]:row_base[s + 1]] = f.stats
    lead = base[:-1] - row_base[:-1] * np.arange(len(forests))
    return flat, steps, stats, lead, sizes, t1_row, f_row, counts


@dataclass(frozen=True)
class LevelChunk:
    """Up to ``CHUNK_ROWS`` free trees of order n, one row each, as ``free_tree_level_chunks`` yields them.

    ``levels`` and ``steps`` are (rows, n) int8: the level sequence, and the
    postorder step table ``spectra.TreeBatch.from_steps`` takes (for each
    postorder slot, the slot of its parent, n at the root). ``max_degree``
    and ``max_degree_sum`` are int8 per row: the largest degree, and the
    largest sum of one vertex's neighbours' degrees, the largest row sum of
    A^2. These four arrays are read-only.

    ``facts`` is None, or, for a chunk of an order the memo keeps (3-18), the
    order's one writable (4, classes) float64 block of what inertia counts
    have shown of each row: lam1 in [L1, H1] and lam2 in [L2, H2], rows
    (L1, H1, L2, H2), from (-inf, +inf, -inf, +inf). The chunk's rows are
    its columns from ``first`` on. Each end is a start bound or a point
    where the elimination kernel counted; ``extremal._Scan`` tightens them
    (``tighten_facts``) as rows leave its pool and answers later probes
    from them.
    """

    levels: np.ndarray
    steps: np.ndarray
    max_degree: np.ndarray
    max_degree_sum: np.ndarray
    facts: np.ndarray | None = None
    first: int = 0

    def __len__(self) -> int:
        return len(self.levels)


_NO_FACTS = np.array([-np.inf, np.inf, -np.inf, np.inf])[:, None]  # (L1, H1, L2, H2) before any count


def tighten_facts(facts, rows, ends):
    """Tighten the ``facts`` columns ``rows`` with ``ends`` (4, len(rows)): the larger lower end, the smaller upper."""
    for fact, end, tighter in zip(facts, ends, (np.maximum, np.minimum, np.maximum, np.minimum)):
        tighter.at(fact, rows, end)


def _chunk(*arrays, facts=None, first=0):
    """A ``LevelChunk`` of ``arrays``, each made read-only, with ``facts`` from column ``first``."""
    for a in arrays:
        a.flags.writeable = False
    return LevelChunk(*arrays, facts, first)


def free_tree_level_chunks(n: int):
    """Every free tree of order n, in ``LevelChunk`` chunks of ``CHUNK_ROWS`` rows, the last one shorter.

    One row per isomorphism class, lex-decreasing: ``0, T1 + 1, F + 1``,
    where T1, the root's first subtree, is a tree of ``_forest_tables`` and
    F a forest of ``forests[n-1-|T1|]`` whose first tree T2 is at most T1.
    The root is a centre: h(T2) + 1 >= h(T1), and on equality (two centres,
    the other T1's root) 2|T1| < n, or 2|T1| = n and T1 <= [0] + F + 1.
    So each T1 takes a run of consecutive rows of its forest table, and a
    chunk is gathered from the runs it covers: memory stays at the tables,
    a few bytes per T1 and one chunk, whatever the class count, besides
    the memo below: orders 3-18, 13.4 MiB in all.

    The step tables and degree counts come by the same gathers. In
    postorder, T1's forest takes slots 0..k-2, k = |T1|, its roots stepping
    to T1's root at slot k-1; F takes slots k..n-2, its roots stepping to
    the root at slot n-1. The counts are the stats of the root's children,
    T1 followed by F, closed off at a root without a parent.

    ``n`` is checked at the call, not at the first chunk. An order 3 <= n <=
    ``_MEMO_ORDER`` (18; 2n + 34 bytes a row with its facts) is recorded as
    it streams and, once every chunk is out, kept in ``_MEMO`` under
    ``(n, CHUNK_ROWS)`` for the rest of the process; a later call replays
    those chunks, building no table and gathering nothing. Only such an
    order's chunks carry ``facts``, from the first stream on, so the scans
    of that stream record into them too. A larger order (19 alone would
    take 21.8 MiB) is never recorded and carries no facts. The memo needs no lock: a
    dict's get and set are atomic, and of two first streams of one order,
    each with its own facts, the later store wins.
    """
    n = _integer("n", n, 1, MAX_EXHAUSTIVE_ORDER)
    chunks = _MEMO.get((n, CHUNK_ROWS))
    return _gathered(n, CHUNK_ROWS) if chunks is None else iter(chunks)


def _gathered(n: int, size: int):
    """``free_tree_level_chunks(n)`` gathered from the forest tables in chunks of ``size`` rows, recorded if kept."""
    if n <= 2:  # the root alone, or the root over one leaf: n - 1 is its largest degree and degree sum
        levels, steps, top = np.arange(n, dtype=np.int8), np.arange(1, n + 1, dtype=np.int8), np.full(1, n - 1, np.int8)
        yield _chunk(levels.reshape(1, n), steps.reshape(1, n), top, top)
        return
    flat, flat_steps, stats, lead, sizes, t1_row, f_row, counts = _first_subtree_runs(n)
    ends = np.cumsum(counts)
    total = int(ends[-1])
    kept = [] if n <= _MEMO_ORDER else None
    facts = None if kept is None else np.repeat(_NO_FACTS, total, axis=1)  # one block, shared by every chunk
    cols = np.arange(2, n, dtype=np.int8)
    for r0 in range(0, total, size):
        r = np.arange(r0, min(r0 + size, total))
        t1 = np.searchsorted(ends, r, side="right")
        k = sizes[t1, None]
        in_t1 = cols <= k  # columns 2..k hold T1's forest plus 2, the rest F plus 1
        t1f, rest = t1_row[t1], f_row[t1] + (r - ends[t1] + counts[t1])  # each row's two forests
        t1f_at = (lead[k[:, 0] - 1] + t1f * (k[:, 0] - 1)).astype(np.int32)
        rest_at = (lead[n - 1 - k[:, 0]] + rest * (n - 1 - k[:, 0])).astype(np.int32)
        at = np.where(in_t1, t1f_at[:, None] - 2, rest_at[:, None] - k - 1) + cols
        out = np.empty((len(r), n), np.int8)
        out[:, 0] = 0
        out[:, 1] = 1
        out[:, 2:] = flat.take(at) + 1 + in_t1
        steps = np.empty((len(r), n), np.int8)
        step = flat_steps.take(at)
        steps[:, 1:n - 1] = step + k * ~in_t1  # F's entries, from slot k on and shifted by k
        np.copyto(steps[:, :n - 2], step, where=in_t1)  # T1's forest, slots 0..k-2
        steps[np.arange(len(r)), k[:, 0] - 1] = n - 1  # T1's root steps to the root
        steps[:, n - 1] = n
        roots, top, inner, outer, rootdeg = _compose(stats.take(t1f, axis=0), stats.take(rest, axis=0)).T
        chunk = _chunk(out, steps, np.maximum(roots, top), np.maximum(np.maximum(inner, outer + roots), rootdeg),
                       facts=facts, first=r0)
        if kept is not None:
            kept.append(chunk)
        yield chunk
    if kept is not None:
        _MEMO[n, size] = tuple(kept)


def coded_free_trees(n: int):
    """(canonical code, edge tuple) per class, sorted by code."""
    coded = []
    for chunk in free_tree_level_chunks(n):
        for seq in chunk.levels.tolist():
            edges = _level_seq_edges(seq)
            coded.append((canonical_code(Tree(n, edges)), tuple(edges)))
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
    """The number of free trees of order n: the sum of the run lengths of ``_first_subtree_runs``, no chunk gathered."""
    n = _integer("n", n, 1, MAX_EXHAUSTIVE_ORDER)
    return 1 if n <= 2 else int(_first_subtree_runs(n)[-1].sum())


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
    """The double-comet family in blocks ``(ell, k1, k2)`` of ``DC_BLOCK_ROWS`` comets, the last one shorter.

    Each block holds three int64 arrays, one entry per comet: its path order
    ``ell`` and its leaf counts ``k1 >= k2``, each isomorphism class once.
    The path (0, 0, n) comes first, then the star (n-1, 0, 1) for n >= 4
    (below that it is a path), then ell = 2 to n - 2: the broom (n-ell, 0,
    ell) when ell >= 3 (a 2-path broom is a star), then the proper comets,
    k1 >= k2 >= 2 by increasing k2. So the family is a list of runs, each
    one path order with k2 counting up from 0 (a path, star or broom, one
    comet) or from 2, and a block repeats the run values it covers: memory
    stays at one block and the run table, whatever the family size.
    """
    n = _integer("n", n, 2)
    head = [n, 1] if n >= 4 else [n]  # the path and the star
    mid = np.arange(2, n - 1)  # a broom run and a proper run per path order
    ells = np.concatenate((head, np.repeat(mid, 2))).astype(np.int64)
    k2_first = np.concatenate(([0] * len(head), np.tile([0, 2], len(mid)))).astype(np.int64)
    counts = np.concatenate(([1] * len(head), np.column_stack((mid >= 3, (n - mid) // 2 - 1)).ravel()))
    ends = np.cumsum(counts)
    starts = ends - counts
    for r0 in range(0, int(ends[-1]), DC_BLOCK_ROWS):
        r1 = min(r0 + DC_BLOCK_ROWS, int(ends[-1]))
        first, last = np.searchsorted(ends, [r0, r1 - 1], side="right")
        runs = slice(first, last + 1)
        lens = np.minimum(ends[runs], r1) - np.maximum(starts[runs], r0)
        ell = np.repeat(ells[runs], lens)
        k2 = np.arange(r0, r1, dtype=np.int64) + np.repeat(k2_first[runs] - starts[runs], lens)
        yield ell, n - ell - k2, k2


def double_comet_params(n: int):
    """Parameters of each double-comet isomorphism class once, in ``double_comet_arrays`` order."""
    return [DoubleCometParams(a, b, c) for ell, k1, k2 in double_comet_arrays(n)
            for a, b, c in zip(k1.tolist(), k2.tolist(), ell.tolist())]


def count_double_comets(n: int) -> int:
    """The size of the double-comet family, in closed form: 1 + floor((n-2)^2/4).

    The path; for n >= 4 the star and the n - 4 brooms (ell = 3..n-2); and
    (j//2 - 1) proper comets for each j = n - ell = 2..n-2, which sum to
    floor((n-2)^2/4) - (n - 3), since floor(j/2) over j = 1..N sums to
    floor(N^2/4). The terms beyond the path cancel to floor((n-2)^2/4),
    which is 0 for n = 2 and 3.
    """
    n = _integer("n", n, 2)
    return 1 + (n - 2) ** 2 // 4


def enumerate_double_comets(n: int):
    """All double comets of order n, one per isomorphism class, in parameter order."""
    return (make_double_comet(p) for p in double_comet_params(n))


def enumerate_trees(n: int, family: str = "all"):
    if family == "all":
        return enumerate_free_trees(n)
    if family == "dc":
        return enumerate_double_comets(n)
    raise ValueError(f"unknown family {family!r}; use 'all' or 'dc'")
