"""References for the batched scan and the inertia counts, built without the code they check.

``TreeBatch(levels)`` checks its rows and builds its step table by Python
loops over n, independently of the forest-table gathers behind
``free_tree_level_chunks``; these helpers add the degrees and the two
whole-chunk answers the scan once computed from them. ``exact_tree_counts``
counts one tree's eigenvalues above a point over Fractions.
"""

import math
from fractions import Fraction

import numpy as np

from spectrees import spectra
from spectrees.spectra import TOL, TreeBatch, _rooted


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
