"""References for the batched scan and the inertia counts, built without the code they check.

``TreeBatch(levels)`` checks its rows and builds its step table by Python
loops over n, independently of the forest-table gathers behind
``free_tree_level_chunks``; these helpers add the degrees and the two
whole-chunk answers the scan once computed from them. ``exact_tree_counts``
counts one tree's eigenvalues above a point over Fractions. ``branches``
and ``bfs_eigenvector`` are the branch pass and the eigenvector spread
over per-vertex lists and a breadth-first walk from the start: the flat
passes in ``spectra`` must give the same floats, bit for bit.
"""

import math
from fractions import Fraction
from itertools import accumulate

import numpy as np

from spectrees import spectra
from spectrees.spectra import TOL, EigenvectorData, TreeBatch, _rooted, _simple_lam2, _slot, top_two
from spectrees.trees import _bfs


def level_degrees(levels):
    """(rows, n) vertex degrees and parents (-1 at the root) of level-sequence rows."""
    levels = np.asarray(levels, dtype=np.int64)
    m, n = levels.shape
    parents = np.ascontiguousarray(spectra._parents(np.ascontiguousarray(levels.T)).T)
    children = np.bincount((parents[:, 1:] + n * np.arange(m)[:, None]).ravel(), minlength=m * n)
    return children.reshape(m, n) + (np.arange(n) > 0), parents


def degree_brackets(levels):
    """Brackets (lo, hi) of lam1 per row, from degrees alone.

    The star on the largest degree D is a subgraph, so lam1 >= sqrt(D); lam1^2
    is at most the largest row sum of A^2, the largest sum of a vertex's
    neighbours' degrees. Both ends are widened outward by one ulp.
    """
    deg, parents = level_degrees(levels)
    m, n = deg.shape
    up = parents[:, 1:] + n * np.arange(m)[:, None]  # flat index of each non-root's parent
    sums = np.bincount(up.ravel(), deg[:, 1:].ravel(), minlength=m * n).reshape(m, n)  # the children's degrees
    sums[:, 1:] += deg.ravel()[up]  # and the parent's
    lo = np.nextafter(np.sqrt(deg.max(axis=1)), 0.0)
    return lo, np.nextafter(np.sqrt(sums.max(axis=1)), math.inf)


def batch_top_two(levels):
    """``top_two`` of every row at ``TOL``: arrays (lam1_lo, lam1_hi, lam2_lo, lam2_hi).

    Every row is certified, bit for bit as the scalar ``top_two`` would.
    """
    batch = TreeBatch(levels)
    n, m = batch.n, len(batch)
    spectra._check_top_two(n, TOL)
    l1, l2 = spectra._star_intervals(n)
    l1_lo, l1_hi, l2_lo, l2_hi = (np.full(m, v) for v in (*l1, *l2))
    rest = np.flatnonzero(level_degrees(levels)[0].max(axis=1) != n - 1)
    l1_lo[rest], l1_hi[rest] = batch.bisect(1, 0.0, math.sqrt(n - 1), TOL, rest)
    l2_lo[rest], l2_hi[rest] = batch.bisect(2, 0.0, l1_hi[rest], TOL, rest)
    return l1_lo, l1_hi, l2_lo, l2_hi


def exact_tree_counts(t, x):
    """(above, equal) of tree t at x, by the pivot recurrence over Fractions.

    Pivots are eliminated leaf to root; a zero child pivot takes the repair
    (Jacobs and Trevisan): it becomes 2, the parent's -1/2, and the parent's
    edge onward is cut.
    """
    post, up = _rooted(t)
    x = Fraction(x)
    d, s, zero_child = {}, [Fraction(0)] * (t.n + 1), [False] * (t.n + 1)
    for v in post:
        if zero_child[v]:
            d[v] = Fraction(-1, 2)
            continue
        d[v] = -x - s[v]
        if d[v] == 0 and up[v] < t.n and not zero_child[up[v]]:
            zero_child[up[v]] = True
            d[v] = Fraction(2)
        elif d[v]:
            s[up[v]] += 1 / d[v]
    return sum(p > 0 for p in d.values()), sum(p == 0 for p in d.values())


def branches(post, up, x):
    """(parent, pivot, count) of every branch, as ``spectra._branches`` gives them, over per-vertex lists.

    Each vertex keeps the list of its children in post order. The postorder
    pass tests them for a zero pivot and sums their counts; the preorder
    pass lists v's neighbours' branches (the up branch first), their terms,
    and their suffix sums by ``accumulate``.
    """
    n = len(post)
    piv = [0.0] * (3 * n)
    cnt = [0] * (3 * n)
    s = [0.0] * (n + 1)
    parent = [-1 if p == n else p for p in up]
    children = [[] for _ in range(n + 1)]
    neg_x = 0.0 - x
    for v in post:
        cs = children[v]
        piv[v] = d = neg_x - s[v]
        s[up[v]] += 1.0 / d if d else math.inf
        cnt[v] = (d > 0.0) + (0.0 in [piv[c] for c in cs]) + sum(cnt[c] for c in cs)
        children[up[v]].append(v)
    for v in reversed(post):
        nb = children[v] if parent[v] < 0 else [n + v, *children[v]]  # v's neighbours' branches
        terms = [1.0 / piv[j] if piv[j] else math.inf for j in nb]
        suffix = list(accumulate(reversed(terms), initial=0.0))[::-1]
        zeros = sum(not piv[j] for j in nb)
        k = sum(cnt[j] for j in nb)
        s = 0.0
        for i, j in enumerate(nb):
            if j < n:
                piv[n + j] = u = neg_x - (s + suffix[i + 1])
                cnt[n + j] = (u > 0.0) + (zeros > (not piv[j])) + k - cnt[j]
            s += terms[i]
        piv[2 * n + v] = g = neg_x - s
        cnt[2 * n + v] = (g > 0.0) + (zeros > 0) + k
    return parent, piv, cnt


def bfs_eigenvector(t, which):
    """``spectra.eigenvector(t, which)`` by a breadth-first spread from the start vertex over ``branches``."""
    n = t.n
    mu = _simple_lam2(t).lam2 if which == 2 else top_two(t, TOL).lam1
    parent, piv, _ = branches(*_rooted(t), mu)
    A = t.adjacency
    start = min(range(n), key=lambda v: abs(piv[2 * n + v]))
    z = [0.0] * n
    z[start] = 1.0
    order, toward_start = _bfs(A, start)
    for v in order:
        held = []
        for w in A[v]:
            if w != toward_start[v]:
                d = piv[_slot(parent, w, v)]
                if d:
                    z[w] = -z[v] / d
                else:
                    held.append(w)
        for w in held:
            z[w] = mu * z[v] - sum(z[x] for x in A[v])
    norm = math.sqrt(sum(v * v for v in z))
    z = [v / norm for v in z]
    if max(z, key=abs) < 0:
        z = [-v for v in z]
    Az = [sum(z[w] for w in A[v]) for v in range(n)]
    lam = sum(Az[v] * z[v] for v in range(n))
    residual = max(abs(Az[v] - lam * z[v]) for v in range(n))
    return EigenvectorData(lam, tuple(z), residual)
