"""Certified adjacency eigenvalues of trees.

The workhorse is an O(n) elimination pass on A - xI that returns the
number of eigenvalues above, equal to, and below x (Sylvester inertia via
leaf-to-root pivoting, Jacobs and Trevisan's tree diagonalization; a zero
child pivot severs the edge to the parent in its limit form, the parent's
pivot -inf), exact unless an eigenvalue lies within rounding distance of
x. Each probe is one flat loop over a postorder kept on the tree
(``_rooted``): a vertex's pivot is final when its turn comes, is counted
there, and adds its term to its parent's slot. Bisection on that count
gives enclosing intervals for the two largest eigenvalues with no
floating-point eigensolver. ``TOL`` is the width of every public
enclosure; only ``top_two`` takes another, as ``spectrum --tol`` does,
and only a wider one: a narrower bracket can miss its eigenvalue.
``top_two`` at ``TOL`` is kept on the ``Tree``, so every later
certification of the same tree object (eigenvectors, psi, the transforms)
reuses it.
``_bisect_count`` is the one scalar bisection loop: it probes any rooted
forest (post, up), so whole trees and induced forests share it.
``TreeBatch`` runs the same pass over many same-order trees at once with
numpy: ``count_above`` probes any subset of rows, each at its own x, and
``bisect`` reproduces the scalar brackets bit for bit; with edge weights
it also runs the double comets' equitable-partition quotients, which are
weighted paths. Both loops stop by one rule (``_open``), and both take
guesses the same way (``_walk``): a guided bracket replays the
bisection's own midpoints by the side of its guess, uncounted, while they
lie more than a margin delta >= tol/4 from it, and two counts then check
the ends it reached; a guess that fails restarts its bracket unguided.
Either way the bracket is the unguided one, bit for bit: a guess is only
ever checked, never trusted. ``top_two`` of a non-star tree of order
``_LANCZOS_ORDER`` or more takes its guesses and margins from a
three-term Lanczos run on the tree (``_lanczos_guesses``). The one
enclosure not from counts is the star's (``_star_intervals``).

Everything else builds on or cross-checks that kernel: ``_branches``, the
same pass over every branch of the tree in two flat loops over
preallocated lists, whose pivots give eigenvectors (a twisted
factorization, spread over the tree's kept rooting) and whose counts
locate the spectral center; float
closed forms for double comets with path order 2 or 3 and for paths
(guesses that counts check, and values to compare against, never
enclosures); a dense cyclic plane-rotation (Jacobi) oracle for small
orders; and residual checks for the local eigen-equations and the
eigenvector-eigenvalue identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .trees import DoubleCometParams, Tree, _bfs, _integer, _items, _real

TOL = 1e-12  # the interval width every certified answer is given at


class Lambda2MultiplicityError(ValueError):
    """The second eigenvalue is not simple; eigenvector-based operations decline."""

    def __init__(self, multiplicity: int):
        super().__init__(f"second eigenvalue has multiplicity {multiplicity}")
        self.multiplicity = multiplicity


@dataclass(frozen=True)
class SignCount:
    """Counts of eigenvalues relative to a probe value x."""

    above: int
    equal: int
    below: int

    @property
    def n(self) -> int:
        return self.above + self.equal + self.below


@dataclass(frozen=True)
class TopTwo:
    """Enclosing intervals for the two largest eigenvalues.

    lam1 lies in [lam1_lo, lam1_hi] and lam2 in [lam2_lo, lam2_hi]; both
    widths are at most tol. By construction lam2_hi <= lam1_hi, so
    lam1_lo >= lam2_hi - tol.
    """

    lam1_lo: float
    lam1_hi: float
    lam2_lo: float
    lam2_hi: float
    tol: float

    @property
    def lam1(self) -> float:
        return 0.5 * (self.lam1_lo + self.lam1_hi)

    @property
    def lam2(self) -> float:
        return 0.5 * (self.lam2_lo + self.lam2_hi)


# -- elimination kernel ----------------------------------------------------


def _rooted(t: Tree):
    """``_root_forest`` of the tree, kept on it."""
    if t._rooted is None:
        t._rooted = _root_forest(t.adjacency)
    return t._rooted


def _root_forest(adj):
    """(post, up) of an adjacency-list forest, each component rooted at its first vertex.

    ``up[v]`` is v's parent, or n for a root. ``post`` is the breadth-first
    order stably sorted by decreasing depth: every vertex comes after its
    children, and a vertex's children in the breadth-first order. The walk
    marks each vertex in a flat list of seen flags as it reaches it.
    """
    n = len(adj)
    order, up, depth, seen = [], [n] * n, [0] * n, [False] * n
    for r in range(n):
        if not seen[r]:
            seen[r] = True
            comp = [r]
            for v in comp:
                dw = depth[v] + 1
                for w in adj[v]:
                    if not seen[w]:
                        seen[w] = True
                        up[w] = v
                        depth[w] = dw
                        comp.append(w)
            order += comp
    return sorted(order, key=depth.__getitem__, reverse=True), up


def _count_above(post, up, x: float):
    """(above, equal) counts for the forest described by (post, up).

    Pivots of A - xI in one postorder pass: d is the pivot of v's subtree,
    eliminated toward v, and ``s[p]`` sums 1/d over p's children in ``post``
    order, one term at a time. A zero child pivot adds +inf to it (the limit
    form): the parent's pivot is -inf, and its -0.0 term severs its own
    parent edge. Roots add to the spare slot n. Each vertex with a zero
    child shifts one count from equal to above, as the classic repair
    (child pivot 2, its own -1/2) would; a root's zero pivot repairs nothing.
    """
    n = len(post)
    s = [0.0] * (n + 1)
    neg_x = 0.0 - x
    above = 0
    zeros = []  # the parent slot of each zero pivot
    for v in post:
        d = neg_x - s[v]
        if d:
            if d > 0.0:
                above += 1
            s[up[v]] += 1.0 / d
        else:
            p = up[v]
            s[p] += math.inf
            zeros.append(p)
    if zeros:
        repairs = len(set(zeros) - {n})
        return above + repairs, len(zeros) - repairs
    return above, 0


def count_eigenvalues_above(t: Tree, x: float) -> SignCount:
    """Eigenvalue counts of A(t) relative to x; no eigenvalue is ever computed.

    Exact unless an eigenvalue lies within rounding distance of x, roughly
    eps*deg*(|x| + deg): each such eigenvalue, one equal to x included, can
    put a count off by one, as an exact zero pivot may round to a tiny float.
    """
    above, equal = _count_above(*_rooted(t), _real("x", x, -math.inf, math.inf))
    return SignCount(above, equal, t.n - above - equal)


_STEPS = 200  # the most midpoints one bisection takes, replayed ones included


def _open(lo, hi, mid, tol, left):
    """Whether a bisection of [lo, hi] goes on to its midpoint mid; floats, or arrays with one bracket per row.

    The one stop rule: a bracket stops at width tol, at float resolution
    (mid not strictly inside), or with no step left of its ``_STEPS``.
    """
    return (hi - lo > tol) & (lo < mid) & (mid < hi) & (left > 0)


def _walk(lo, hi, tol, guess, margin):
    """(lo, hi, steps): the bisection's own midpoints, each decided by its side of the guess, no count taken.

    Floats, or arrays with one bracket per row. A bracket walks while
    ``_open`` lets it and its midpoint lies more than margin from a finite
    guess; NaN or +-inf is no guess and takes no step. Its counts decide the
    same midpoints the same way, and so reach the same bracket, if the
    eigenvalue lies on the guess's side of each of them: always when the
    guess lies within margin of it.
    """
    steps, guided = 0, abs(guess) < math.inf
    while True:
        mid = 0.5 * (lo + hi)
        go = _open(lo, hi, mid, tol, _STEPS - steps) & (abs(mid - guess) > margin) & guided
        if isinstance(go, np.ndarray):
            if not go.any():
                return lo, hi, steps
            lo, hi = np.where(go & (mid < guess), mid, lo), np.where(go & (mid > guess), mid, hi)
        elif not go:
            return lo, hi, steps
        elif mid < guess:
            lo = mid
        else:
            hi = mid
        steps = steps + go


def _bisect_count(post, up, k: int, lo: float, hi: float, tol: float, guess: float = math.nan, margin: float = 0.0):
    """Shrink [lo, hi] around the k-th largest eigenvalue of the forest (post, up).

    Each probe is ``_count_above``. Precondition: at least k eigenvalues
    exceed lo (or lo is a known valid floor) and fewer than k exceed hi.
    Stops by ``_open``'s rules. A guess ``_walk``s the bracket first, its
    margin at least tol/4, and two counts check the ends it reached: if both
    agree, bisection goes on from there with the steps left, else from
    [lo, hi] unguided. Either way the bracket is the unguided one, bit for
    bit (``TreeBatch.bisect`` gives the argument).
    """
    left = _STEPS
    a, b, steps = _walk(lo, hi, tol, guess, max(margin, 0.25 * tol))
    if steps and _count_above(post, up, a)[0] >= k and _count_above(post, up, b)[0] < k:
        lo, hi, left = a, b, _STEPS - steps
    while True:
        mid = 0.5 * (lo + hi)
        if not _open(lo, hi, mid, tol, left):
            return lo, hi
        left -= 1
        if _count_above(post, up, mid)[0] >= k:
            lo = mid
        else:
            hi = mid


# -- guesses from Lanczos --------------------------------------------------------

_LANCZOS_ORDER = 400  # least order whose top_two takes Lanczos guesses (measurements: CHANGES.md)
_LANCZOS_STEPS = 144  # most Lanczos steps per tree, a multiple of _LANCZOS_LOOK
_LANCZOS_LOOK = 24  # Lanczos steps between looks at the Ritz values
_LANCZOS_SHRINK = 3.0  # least factor a look's awaited residual must fall by, or the run stalls
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_PIVMIN = 1e-290  # stands in for a zero pivot of the Lanczos tridiagonal
_NO_GUESS = (math.nan, 0.0)  # (guess, margin) that guides nothing
_MISSING = (math.nan, math.inf, math.nan)  # a guess _guesses could not give: (theta, residual, margin)


def _lanczos_guesses(post, up, tol: float):
    """((g1, d1), (g2, d2)): guesses for lam1 and lam2 of the tree (post, up) and their margins.

    Three-term Lanczos (Paige 1980) on the adjacency matrix: each matvec is
    one ``np.bincount`` and one gather over the parent array, the vertices
    renumbered by depth so that parents come first. O(n) memory, no
    reorthogonalization, and a fixed start vector, so a call repeats
    exactly. Every ``_LANCZOS_LOOK`` steps ``_ritz`` gives the largest Ritz
    values with their residuals, and ``_guesses`` the two largest distinct
    ones with margins of at least tol/4.

    The run stops when both margins are tol/4, or after ``_LANCZOS_STEPS``
    with the guesses as they stand, or when it stalls: when the residual it
    waits for (lam1's until its margin is tol/4, then lam2's) fell by less
    than ``_LANCZOS_SHRINK`` since the last look. Ritz values stall on
    clustered tops, as on long paths, where margins from Ritz gaps do not
    hold; a stalled run keeps only the guesses whose margins reached tol/4.
    A guess that misses costs ``_bisect_count`` a count or two and a
    restart, never its bracket.
    """
    n = len(post)
    order = np.fromiter(reversed(post), np.int64, n)  # by depth, so parents come first
    at = np.empty(n, dtype=np.int64)
    at[order] = np.arange(n)
    parent = at[np.fromiter(up, np.int64, n)[order[1:]]]  # of vertex i + 1 in the new numbering
    q = np.arange(1.0, n + 1.0) * _GOLDEN % 1.0 + 0.5  # positive, so it meets the Perron vector, and irregular
    q /= math.sqrt(_dot(q, q))
    prev, gathered = np.zeros(n), np.empty(n - 1)
    alpha, beta, b = [], [], 0.0
    floor = 0.25 * tol
    read, waited = [], (None, math.inf)
    for j in range(1, _LANCZOS_STEPS + 1):
        w = np.bincount(parent, weights=q[1:], minlength=n)  # A q: each vertex's children, then its parent
        w[1:] += q.take(parent, out=gathered)
        prev *= b
        w -= prev
        a = _dot(q, w)
        np.multiply(q, a, out=prev)
        w -= prev
        b = math.sqrt(_dot(w, w))
        alpha.append(a)
        invariant = b <= floor  # every Ritz value then lies within tol/4 of an eigenvalue
        if invariant or j % _LANCZOS_LOOK == 0:
            guesses, read = _guesses(_ritz(alpha, beta, b, read), floor)
            done = [margin <= floor for _, _, margin in guesses]
            if all(done) or invariant:
                break
            i = int(done[0])  # the guess waited for: lam1's until its margin is tol/4, then lam2's
            if waited[0] == i and guesses[i][1] * _LANCZOS_SHRINK > waited[1]:
                return tuple((theta, margin) if ok else _NO_GUESS for (theta, _, margin), ok in zip(guesses, done))
            waited = (i, guesses[i][1])
        beta.append(b)
        w /= b
        prev, q = q, w
    return tuple(_NO_GUESS if theta != theta else (theta, margin) for theta, _, margin in guesses)


def _dot(x, y) -> float:
    """x . y without BLAS: OpenBLAS threads its dot from 10^4 entries, and on a busy machine the hand-off between threads cost 8 ms a call."""
    return float(np.einsum("i,i", x, y))


def _guesses(ritz, floor: float):
    """The two largest distinct Ritz values as (theta, residual, margin), and the Ritz values read.

    ``ritz`` yields (theta, residual) pairs, largest first. A value within
    the residuals of the last one kept is a copy of it: a ghost of a
    converged value, or one still converging to it (Cullum and Willoughby
    1985). Reading stops at the third value kept. A kept value's margin is
    its residual rho, or rho^2/gap when its kept neighbours, less their own
    residuals, lie a gap away (Parlett 1980, the gap theorem), and at least
    ``floor``. A guess that is missing reads (NaN, inf, NaN).
    """
    kept, read = [], []
    for theta, rho in ritz:
        read.append(theta)
        if not kept and rho * rho > 2.0 * theta * floor:
            break  # lam1's margin stays above floor whatever its gap, less than 2 lam1 in a tree's spectrum
        if not kept or kept[-1][0] - theta > kept[-1][1] + rho:
            kept.append((theta, rho))
            if len(kept) == 3:
                break
    if not kept:
        return [(theta, rho, max(rho, floor)), _MISSING], read
    guesses = []
    for i, (theta, rho) in enumerate(kept[:2]):
        gaps = [above - theta - r for above, r in kept[i - 1:i]] + [theta - below - r for below, r in kept[i + 1:i + 2]]
        gap = min(gaps, default=0.0)
        guesses.append((theta, rho, max(rho * min(1.0, rho / gap) if gap > 0.0 else rho, floor)))
    guesses += [_MISSING] * (2 - len(guesses))
    return guesses, read


def _ritz(alpha, beta, last: float, warm):
    """Yield the Ritz values of the Lanczos tridiagonal, largest first, each with its residual.

    ``alpha`` is the diagonal, ``beta`` the off-diagonal, and ``last`` the
    off-diagonal the next step would add. The residual of a Ritz value is
    last * |s|, s the last entry of its unit eigenvector: some eigenvalue
    of the tree lies within it (Parlett 1980). ``_root`` brackets each
    value by Sturm counts and polishes it by Newton steps, starting from
    ``warm``'s value of the same rank at the last look, which interlacing
    puts at or below it. Values closer than float resolution allows come
    out equal. Every pass is O(j) Python: no dense matrix, no LAPACK call.
    """
    j = len(alpha)
    beta2 = [0.0] + [e * e for e in beta]
    edge = [0.0, *beta, 0.0]
    floor = min(a - edge[i] - edge[i + 1] for i, a in enumerate(alpha))  # Gershgorin
    hi = max(a + edge[i] + edge[i + 1] for i, a in enumerate(alpha))
    tiny = 4.0 * math.ulp(1.0) * max(-floor, hi)
    lo, c_lo = hi, 0  # the lower end of the last value's bracket, and the eigenvalues above it
    for m in range(1, j + 1):
        if c_lo < m:  # the next value lies below lo; else it is the last one again
            lo, hi, c_lo, c_hi = floor, lo, j, c_lo
            x = warm[m - 1] if m <= len(warm) and lo < warm[m - 1] < hi else 0.5 * (lo + hi)
            theta, lo, c_lo = _root(alpha, beta2, m, lo, hi, c_lo, c_hi, x, tiny)
        yield theta, last * _last_entry(alpha, beta, theta)


def _sturm(alpha, beta2, x: float):
    """(above, step): the tridiagonal's eigenvalues above x, by its pivots at x, and Newton's step on its determinant.

    ``beta2`` holds the squared off-diagonals after a leading 0. A zero
    pivot counts as -``_PIVMIN``.
    """
    above, d, r, g = 0, 1.0, 0.0, 0.0  # r = d'/d for the pivot d, g their sum, the determinant's log-derivative
    for a, b2 in zip(alpha, beta2):
        c = b2 / d
        d = a - x - c
        if not d:
            d = -_PIVMIN
        r = (c * r - 1.0) / d
        g += r
        above += d > 0.0
    return above, -1.0 / g if g else 0.0


def _root(alpha, beta2, m: int, lo: float, hi: float, c_lo: int, c_hi: int, x: float, tiny: float):
    """(theta, lo, c_lo): the m-th largest eigenvalue of the tridiagonal, and the lower end of its final bracket.

    The bracket [lo, hi] has c_lo >= m eigenvalues above lo and c_hi < m
    above hi. Each pass at x narrows it by its count. Once it holds one
    eigenvalue alone, Newton steps from x are taken while they stay inside
    and at least halve; bisection otherwise. Done at a Newton step or a
    bracket within ``tiny``.
    """
    width = hi - lo
    while hi - lo > tiny:
        above, step = _sturm(alpha, beta2, x)
        if above >= m:
            lo, c_lo = x, above
        else:
            hi, c_hi = x, above
        if c_lo - c_hi == 1:
            if abs(step) <= tiny:
                return x, lo, c_lo
            if lo < x + step < hi and abs(step) <= 0.5 * width:
                x, width = x + step, abs(step)
                continue
        x, width = 0.5 * (lo + hi), hi - lo
    return 0.5 * (lo + hi), lo, c_lo


def _last_entry(alpha, beta, theta: float) -> float:
    """|s|, s the last entry of the tridiagonal's unit eigenvector at its eigenvalue theta.

    A twisted factorization (Dhillon and Parlett): pivots of T - theta I
    from the top (``down``) and from the bottom (``up``) meet at the row k
    where their sum less the diagonal, gamma, is smallest; v_k = 1 and the
    other entries follow outward from k by each side's pivots.
    """
    j = len(alpha)
    down, d = [], 1.0
    for a, b in zip(alpha, [0.0, *beta]):
        d = a - theta - b * b / d
        d = d if d else -_PIVMIN
        down.append(d)
    up, d = [0.0] * j, 1.0
    for i in range(j - 1, -1, -1):
        b = beta[i] if i < j - 1 else 0.0
        d = alpha[i] - theta - b * b / d
        up[i] = d = d if d else -_PIVMIN
    k = min(range(j), key=lambda i: abs(down[i] + up[i] - alpha[i] + theta))
    norm2 = 1.0
    v = 1.0
    for i in range(k - 1, -1, -1):
        v *= -beta[i] / down[i]
        norm2 += v * v
    v = 1.0
    for i in range(k, j - 1):
        v *= -beta[i] / up[i + 1]
        norm2 += v * v
    return abs(v) / math.sqrt(norm2) if norm2 < math.inf else 0.0


def _star_intervals(n: int):
    """(lam1, lam2) enclosures of the star on n >= 2 vertices (K2 at n = 2).

    ``sqrt`` is correctly rounded, so sqrt(n-1) widened outward by one ulp
    (unless exact) encloses lam1; lam2 is exactly 0, or -1 for K2.
    """
    s = math.sqrt(n - 1)
    l1 = (s, s) if math.isqrt(n - 1) ** 2 == n - 1 else (math.nextafter(s, 0.0), math.nextafter(s, math.inf))
    l2 = -1.0 if n == 2 else 0.0
    return l1, (l2, l2)


def _check_top_two(n: int, tol: float) -> float:
    if n < 2:
        raise ValueError("top_two needs n >= 2: a single vertex has no second eigenvalue")
    # narrower brackets probe within rounding distance of the eigenvalue, where counts may be off
    try:
        return _real("tol", tol, TOL, math.nextafter(math.inf, 0.0))
    except ValueError:
        raise ValueError(f"tol must be a finite width of at least TOL = {TOL}, got {tol!r}") from None


def top_two(t: Tree, tol: float = TOL) -> TopTwo:
    """Certified enclosures of the two largest adjacency eigenvalues.

    A star (K2 included) takes ``_star_intervals``: sqrt(n-1), widened by
    one ulp unless exact, and the exact lam2. Everything else is bisection
    on the inertia counts over [0, sqrt(n-1)], the star's spectral radius,
    which no other tree of order n reaches; the bracket stays valid for
    lam2 because every non-star tree on n >= 3 vertices has lam2 >= 0.
    From order ``_LANCZOS_ORDER`` on, Lanczos guesses guide each bisection
    (``_lanczos_guesses``), each with a margin delta >= tol/4 from its Ritz
    residual and gap: about 5-9 probes per tree instead of about 88. The
    guesses are checked by counts, so the brackets are the unguided ones,
    bit for bit; a run that stalls gives no guess.

    The answer at ``TOL`` is kept on the tree (``Tree._top_two``), so later
    calls at ``TOL`` return it; a wider ``tol`` neither reads nor writes it.
    """
    n = t.n
    tol = _check_top_two(n, tol)
    if tol == TOL and t._top_two is not None:
        return t._top_two
    if t.max_degree() == n - 1:
        (l1_lo, l1_hi), (l2_lo, l2_hi) = _star_intervals(n)
    else:
        post, up = _rooted(t)
        g1, g2 = _lanczos_guesses(post, up, tol) if n >= _LANCZOS_ORDER else (_NO_GUESS, _NO_GUESS)
        l1_lo, l1_hi = _bisect_count(post, up, 1, 0.0, math.sqrt(n - 1), tol, *g1)
        l2_lo, l2_hi = _bisect_count(post, up, 2, 0.0, l1_hi, tol, *g2)
    tt = TopTwo(l1_lo, l1_hi, l2_lo, l2_hi, tol)
    if tol == TOL:
        t._top_two = tt
    return tt


def _parents(depth):
    """The parent of each vertex, -1 at the root, from level sequences as an (n, rows) int64 table; unchecked.

    Tables hold one vertex per table row; the parent of v is the last
    earlier vertex one level up.
    """
    n, rows = depth.shape
    cols = np.arange(rows)
    parent = np.full((n, rows), -1, dtype=np.int64)
    last = np.zeros(n * rows, dtype=np.int64)  # last vertex seen at each depth
    for v in range(1, n):
        at = depth[v] * rows + cols
        parent[v] = last[at - rows]
        last[at] = v
    return parent


class _Workspace:
    """Buffers for ``TreeBatch._eliminate`` passes of up to ``rows`` rows over n slots, reused pass after pass."""

    def __init__(self, n: int, rows: int):
        self.rows = rows
        self.index = np.empty(n * rows, np.int64)  # flat step indices
        self.sums = np.empty((n + 1) * rows)
        self.pivots = np.empty(n * rows)
        self.inv = np.empty(rows)
        self.acc = np.empty(rows)
        self.cols = np.arange(rows)


class TreeBatch:
    """Many trees of one order, eliminated together over numpy arrays.

    Rows are level sequences: preorder depths with the root 0 at depth 0,
    so the parent of v is the last earlier vertex one level up and every
    vertex's children come in ascending id. A probe eliminates all rows at
    once in postorder, post(v) = v - depth(v) + size(v) - 1, which finishes
    a vertex's children in ascending id, the order in which the scalar
    ``_count_above`` sums them; every pivot is therefore the same float, the
    zero-pivot limit form included, and each vertex with a zero child
    shifts one count from equal to above as in ``_count_above``. A batch
    holds only its step table: for each postorder slot, the slot of its
    parent, n at the root.

    ``TreeBatch(levels, weights)`` checks its level sequences and builds
    that table with Python loops over n. ``from_steps`` takes a table
    already built, as ``enumeration.free_tree_level_chunks`` gathers it for
    every free tree, and checks nothing; ``put`` overwrites some of its
    rows, so one batch can serve as a pool whose rows change between
    probes.

    A batch owns one elimination workspace (``_Workspace``), allocated at
    its first probe and grown only for a longer pass: every probe of the
    batch reuses it.

    ``weights``, shaped like ``levels``, weight each vertex's edge to its
    parent: a child adds w/d, not 1/d, to its parent's sum, the pivot
    recurrence for off-diagonals sqrt(w). Trees pass none. Weight-0 edges
    pad short weighted paths: such an edge is no edge, its child's step
    going to the root's spare slot, so a zero pivot below it is no repair.
    The root's entry is ignored.
    """

    def __init__(self, levels, weights=None):
        levels = np.asarray(levels, dtype=np.int64)
        if levels.ndim != 2 or levels.shape[1] < 1:
            raise ValueError("levels must be a 2-d array with one level sequence per row")
        rows, n = levels.shape
        if np.any(levels[:, 0] != 0) or np.any(levels[:, 1:] < 1) or np.any(np.diff(levels, axis=1) > 1):
            raise ValueError("each row must be a level sequence: 0 first, then 1 <= depth <= previous + 1")
        # tables are (n, rows), one vertex per table row, and are indexed flat
        depth = np.ascontiguousarray(levels.T)
        cols = np.arange(rows)
        parent = _parents(depth)
        size = np.ones((n, rows), dtype=np.int64)
        flat = size.reshape(-1)
        for v in range(n - 1, 0, -1):
            flat[parent[v] * rows + cols] += size[v]
        post = np.arange(n)[:, None] - depth + size - 1
        # postorder slot of each postorder slot's parent; the root's is slot n
        up = np.full(n * rows, n, dtype=np.int64)
        up[post[1:] * rows + cols] = np.take_along_axis(post, parent[1:], axis=0)
        self.n = n
        self._w = None  # unit weights
        self._work = None
        if weights is not None:
            weights = np.asarray(weights, dtype=float)
            if weights.shape != levels.shape or not np.isfinite(weights).all() or (weights < 0).any():
                raise ValueError(f"weights must be finite, nonnegative and shaped like levels {levels.shape}")
            w = np.empty(n * rows)
            w[post * rows + cols] = weights.T
            up[w == 0.0] = n
            w[w == 0.0] = 1.0  # every weight is positive, so no step divides 0/0
            self._w = w.reshape(n, rows)
        self._up = up.reshape(n, rows)  # one postorder step per table row

    @classmethod
    def from_steps(cls, steps):
        """A unit-weight batch over a (rows, n) integer step table; no check and no loop.

        Row r, slot j holds the postorder slot of slot j's parent, n at the
        root. The table keeps its integer type: each probe widens the rows
        it takes into the workspace's int64 index buffer.
        """
        batch = cls.__new__(cls)
        batch._up = np.ascontiguousarray(steps.T)
        batch.n = batch._up.shape[0]
        batch._w = None
        batch._work = None
        return batch

    def put(self, rows, steps):
        """Overwrite rows ``rows`` of a ``from_steps`` batch with the (len(rows), n) step table ``steps``; unchecked."""
        self._up[:, rows] = steps.T

    def __len__(self) -> int:
        return self._up.shape[1]

    def _steps(self, rows):
        """Flat indices into an (n+1, len(rows)) table, one row per postorder step, their weights, the workspace.

        The indices are a view of the workspace's index buffer, valid until
        the batch's next ``_steps``.
        """
        m = len(rows)
        if self._work is None or self._work.rows < m:
            self._work = _Workspace(self.n, m)
        work = self._work
        steps = work.index[:self.n * m].reshape(self.n, m)
        np.multiply(self._up[:, rows], m, out=steps, dtype=np.int64)
        steps += work.cols[:m]
        w = [1.0] * self.n if self._w is None else list(self._w[:, rows])
        return steps, w, work

    @staticmethod
    def _eliminate(steps, w, work, x):
        """(above, equal, repairs) per row at probe values x; the one batched elimination loop.

        ``steps`` are ``_steps``' flat indices, m rows wide; the child sums
        and pivots live in ``work``, a ``_Workspace`` of at least m rows,
        whose sums are zeroed here. 0.0 - x equals -x except at x = 0,
        where it signs a zero pivot +0.0 as the limit form needs (the scalar
        only tests == 0.0). Sums may overflow to +-inf for probes within
        about 1e-300 of 0, exactly as in the scalar kernel; no pivot can
        then be exactly zero, so an inf sum never meets a zero child's +inf
        (numpy would warn of the NaN).
        """
        n, m = steps.shape
        s = work.sums[:(n + 1) * m]  # child sums, one table row per postorder slot
        s.fill(0.0)
        d = work.pivots[:n * m].reshape(n, m)
        inv, acc = work.inv[:m], work.acc[:m]
        neg_x = 0.0 - x
        with np.errstate(divide="ignore", over="ignore"):
            for k, dk in enumerate(d):
                np.subtract(neg_x, s[k * m:(k + 1) * m], out=dk)
                np.divide(w[k], dk, out=inv)
                at = steps[k]
                np.take(s, at, out=acc)
                acc += inv
                s[at] = acc
        above = (d > 0.0).sum(axis=0)
        zero = d == 0.0
        equal = zero.sum(axis=0)
        if not equal.any():
            return above, equal, equal  # no zero pivot, so no repair
        has_zero_child = np.zeros((n + 1) * m, dtype=bool)
        has_zero_child[steps[zero]] = True
        repairs = has_zero_child[:n * m].reshape(n, m).sum(axis=0)
        return above + repairs, equal - repairs, repairs

    def count_above(self, x, rows=None):
        """(above, equal, repairs) per row of ``rows`` (all by default) at probe x, scalar or per row.

        ``repairs`` counts the vertices whose zero-pivot child was repaired.
        """
        rows = np.arange(len(self)) if rows is None else np.asarray(rows)
        x = np.broadcast_to(np.asarray(x, dtype=float), rows.shape)
        if np.isnan(x).any():
            raise ValueError("probe x is NaN")
        return self._eliminate(*self._steps(rows), x)

    def bisect(self, k: int, lo, hi, tol: float, rows=None, guess=None):
        """``_bisect_count`` on every row of ``rows`` (all by default) at once; returns (lo, hi) arrays.

        Bounds are scalars or one value per row. Each row stops by the scalar
        rules (``_open``), so it holds the bracket the scalar bisection
        returns, bit for bit.

        ``guess``, one float per row, is where each row's eigenvalue is
        expected; NaN or +-inf is no guess. A guided row ``_walk``s the
        bisection's own midpoints without eliminating, each decided by its
        side of the guess, while they lie more than a margin delta from it,
        then probes the two ends it reached in one batched pass. Here delta
        is tol/4, enough for the comet quotients' closed-form and
        ``eigvalsh`` guesses; the scalar ``_bisect_count`` takes any
        delta >= tol/4, as ``top_two``'s Lanczos guesses need. Walked steps
        count toward the 200. If both counts agree, the row goes on from
        there; if not, it restarts from its bounds, unguided. Either way it
        returns the unguided bracket: a walked midpoint lies at or beyond a
        checked end, and more than tol/2 from the eigenvalue unless it is
        that end, so its count is the one the unguided bisection would take
        as exact. A guess is only ever checked, never trusted.
        """
        k = _integer("k", k, 1, self.n)
        tol = _real("tol", tol, math.nextafter(0.0, 1.0), math.nextafter(math.inf, 0.0))
        rows = np.arange(len(self)) if rows is None else np.asarray(rows)
        m = len(rows)
        lo = np.array(np.broadcast_to(lo, (m,)), dtype=float)
        hi = np.array(np.broadcast_to(hi, (m,)), dtype=float)
        left = np.full(m, _STEPS)
        if guess is not None:
            guess = np.asarray(guess, dtype=float)
            if guess.shape != (m,):
                raise ValueError(f"guess must hold one float per row, shape ({m},), got shape {guess.shape}")
            a, b, steps = _walk(lo, hi, tol, guess, 0.25 * tol)
            at = np.flatnonzero(steps)
            if len(at):
                above = self.count_above(np.concatenate((a[at], b[at])), rows[np.concatenate((at, at))])[0]
                at = at[(above[:len(at)] >= k) & (above[len(at):] < k)]
                lo[at], hi[at], left[at] = a[at], b[at], _STEPS - steps[at]
        live = np.arange(m)
        steps = self._steps(rows)
        while len(live):
            a, b = lo[live], hi[live]
            mid = 0.5 * (a + b)
            go = _open(a, b, mid, tol, left[live])
            if not go.all():
                live, mid = live[go], mid[go]
                steps = self._steps(rows[live])
                if not len(live):
                    break
            left[live] -= 1
            above = self._eliminate(*steps, mid)[0]
            up = above >= k
            lo[live[up]] = mid[up]
            hi[live[~up]] = mid[~up]
        return lo, hi


def lambda1_interval_of_vertices(t: Tree, vertices):
    """Enclosure of the largest eigenvalue of the subgraph induced by ``vertices``.

    The induced subgraph of a tree is a forest; the elimination kernel
    handles forests directly. Returns None for the empty set and the exact
    (0, 0) for an edgeless induced set.
    """
    vs = _items("vertices", vertices)
    t.check_vertices(*vs)
    vs = sorted(set(vs))
    if not vs:
        return None
    index = {v: i for i, v in enumerate(vs)}
    adj = [[index[w] for w in t.adjacency[v] if w in index] for v in vs]
    if not any(adj):
        return (0.0, 0.0)
    hi0 = math.sqrt(len(vs) - 1) * (1.0 + 1e-12) + 1e-12
    return _bisect_count(*_root_forest(adj), 1, 0.0, hi0, TOL)


# -- closed forms ----------------------------------------------------------


def dc_top_two_closed(params: DoubleCometParams):
    """(lam1, lam2) of a double comet with path order 2 or 3, in float, not enclosed.

    Path order 2's lam2 cancels in n-1 - sqrt(...) for large n. These are
    guesses that inertia counts check, never enclosures: searches pass them
    to ``TreeBatch.bisect``, which returns the unguided brackets, and the
    closed-forms and asymptotics suites compare against them.
    """
    k1, k2, ell = params.k1, params.k2, params.ell
    if ell not in (2, 3):
        raise ValueError(f"closed form exists only for path order 2 or 3, got {ell}")
    if k1 + k2 < 1:
        raise ValueError("need at least one pendant leaf")
    lam1, lam2 = _dc_closed(k1, k2, ell)
    return float(lam1), float(lam2)


def _dc_closed(k1, k2, ell):
    """``dc_top_two_closed`` elementwise, over leaf-count and path-order ints or int arrays; unchecked.

    Path order 3: lam = sqrt((n-1 +- sqrt((k1-k2)^2 + 4))/2).
    Path order 2: lam = sqrt((n-1 +- sqrt((n-1)^2 - 4*k1*k2))/2).
    The squares are exact below n = 9.4e7, where (n-1)^2 < 2^53.
    """
    n = k1 + k2 + ell
    disc = np.sqrt(np.where(ell == 3, (k1 - k2) ** 2 + 4.0, (n - 1) ** 2 - 4.0 * k1 * k2))
    return np.sqrt(0.5 * (n - 1 + disc)), np.sqrt(np.maximum(0.0, 0.5 * (n - 1 - disc)))


def path_eigenvalue(n: int, j: int) -> float:
    """j-th largest eigenvalue of the path on n vertices: 2cos(pi*j/(n+1))."""
    j = _integer("j", j, 1, _integer("n", n, 1))
    return 2.0 * math.cos(math.pi * j / (n + 1))


# -- dense oracle ------------------------------------------------------------


def adjacency_matrix(t: Tree) -> np.ndarray:
    A = np.zeros((t.n, t.n))
    for u, v in t.edges():
        A[u, v] = 1.0
        A[v, u] = 1.0
    return A


_JACOBI_OFF_TOL, _JACOBI_MAX_SWEEPS = 1e-12, 60


def jacobi_eigh(matrix):
    """Eigen-decomposition of a symmetric matrix by cyclic plane rotations.

    Sweeps Givens rotations over all off-diagonal positions until the
    off-diagonal Frobenius norm drops below _JACOBI_OFF_TOL. Returns
    (values descending, column eigenvectors in matching order). Independent
    of any library eigensolver by design: this is the test oracle.
    """
    A = np.array(matrix, dtype=float, copy=True)
    n = A.shape[0]
    if A.shape != (n, n) or not np.allclose(A, A.T, atol=0.0):
        raise ValueError("jacobi_eigh needs a symmetric square matrix")
    V = np.eye(n)
    if n == 1:
        return np.array([A[0, 0]]), V
    for _ in range(_JACOBI_MAX_SWEEPS):
        # off-diagonal Frobenius norm, summed directly to avoid cancellation
        strict = A - np.diag(np.diag(A))
        off = float(np.sqrt(np.sum(strict * strict)))
        if off <= _JACOBI_OFF_TOL:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if abs(apq) < _JACOBI_OFF_TOL / (4.0 * n):
                    continue
                theta = (A[q, q] - A[p, p]) / (2.0 * apq)
                tt = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(tt * tt + 1.0)
                s = tt * c
                rp = A[p, :].copy()
                rq = A[q, :].copy()
                A[p, :] = c * rp - s * rq
                A[q, :] = s * rp + c * rq
                cp = A[:, p].copy()
                cq = A[:, q].copy()
                A[:, p] = c * cp - s * cq
                A[:, q] = s * cp + c * cq
                vp = V[:, p].copy()
                V[:, p] = c * vp - s * V[:, q]
                V[:, q] = s * vp + c * V[:, q]
    else:
        raise RuntimeError("plane-rotation sweep did not converge")
    vals = np.diag(A).copy()
    idx = np.argsort(-vals, kind="stable")
    return vals[idx], V[:, idx]


_ORACLE_MAX_N = 64


def dense_eigh(t: Tree):
    """Oracle eigenpairs (values descending, column vectors); n <= 64."""
    if t.n > _ORACLE_MAX_N:
        raise ValueError(f"dense oracle supports n <= {_ORACLE_MAX_N}, got {t.n}")
    return jacobi_eigh(adjacency_matrix(t))


def dense_spectrum_oracle(t: Tree):
    """Full spectrum by the plane-rotation oracle, sorted descending; n <= 64."""
    vals, _ = dense_eigh(t)
    return [float(v) for v in vals]


# -- eigenvectors and the spectral center ------------------------------------


def _branches(post, up, x: float):
    """Pivot and eigenvalue count above x of every branch of a rooted tree.

    The branch at w avoiding v is the component of T - v holding its
    neighbour w, eliminated toward w. Returns (parent, pivot, count), the
    last two over 3n slots (``_slot``): slot v is v's subtree, slot n + v
    the branch at v's parent avoiding v, slot 2n + v the whole tree
    eliminated toward v. The postorder pass is ``_count_above``'s, its
    child terms added one at a time, so every subtree pivot is the same
    float; each parent's zero child pivots and child counts are summed in
    flat lists as its children pass. The preorder pass takes v's up-branch
    term first, then its children's terms: a child's branch sums the terms
    before it (prefix) plus those after it (suffix, built by one reversed
    loop and kept in the children's up slots), never a difference, so its
    counts are as exact as ``_count_above``'s; a zero pivot takes the same
    limit form.
    """
    n = len(post)
    piv = [0.0] * (3 * n)
    cnt = [0] * (3 * n)
    s = [0.0] * (n + 1)
    zeros = [0] * (n + 1)  # zero pivots among each vertex's children
    below = [0] * (n + 1)  # the children's counts, summed
    children = [[] for _ in range(n + 1)]  # in post order, as s sums them
    inf = math.inf
    neg_x = 0.0 - x
    for v in post:
        piv[v] = d = neg_x - s[v]
        cnt[v] = c = (d > 0.0) + (zeros[v] > 0) + below[v]
        p = up[v]
        s[p] += 1.0 / d if d else inf
        zeros[p] += not d
        below[p] += c
        children[p].append(v)
    for v in reversed(post):
        cs = children[v]
        z, k, acc = zeros[v], below[v], 0.0
        if up[v] < n:  # the up branch's term comes first
            d = piv[n + v]
            acc += 1.0 / d if d else inf
            z += not d
            k += cnt[n + v]
        suffix = 0.0
        for c in reversed(cs):
            piv[n + c] = suffix
            d = piv[c]
            suffix += 1.0 / d if d else inf
        for c in cs:
            d = piv[c]
            piv[n + c] = u = neg_x - (acc + piv[n + c])
            cnt[n + c] = (u > 0.0) + (z > (not d)) + k - cnt[c]
            acc += 1.0 / d if d else inf
        piv[2 * n + v] = g = neg_x - acc
        cnt[2 * n + v] = (g > 0.0) + (z > 0) + k
    return [-1 if p == n else p for p in up], piv, cnt


def _slot(parent, w: int, v: int) -> int:
    """Where ``_branches`` keeps the branch at w avoiding v."""
    return w if parent[w] == v else len(parent) + v


def _simple_lam2(t: Tree) -> TopTwo:
    """``top_two(t)``, or Lambda2MultiplicityError if lam2 is not simple."""
    tt = top_two(t, TOL)
    mult = _count_above(*_rooted(t), tt.lam2_lo - TOL)[0] - 1
    if mult > 1:
        raise Lambda2MultiplicityError(mult)
    return tt


@dataclass(frozen=True)
class EigenvectorData:
    """A unit eigenvector, its Rayleigh quotient and its residual max|Az - value*z|."""

    value: float
    entries: tuple
    residual: float


def eigenvector(t: Tree, which: int) -> EigenvectorData:
    """Unit eigenvector for lam1 (Perron) or lam2 (which must be simple).

    At mu, the midpoint of the certified bracket, z is 1 at the vertex of
    smallest whole-tree pivot |gamma| and spreads out by z_w = -z_v / pivot
    of the branch at w avoiding v: a twisted factorization (Dhillon and
    Parlett) on a tree. The spread follows the tree's kept rooting
    (``_rooted``): up the start's path to the root first, then parents
    before children over the reversed postorder, each vertex setting its
    neighbours away from the start. A branch whose pivot is exactly 0 has
    mu as an eigenvalue (P3 at mu = 0); its root comes from v's
    eigen-equation once v's other neighbours are set. The first entry of
    largest magnitude is positive, so the Perron vector is positive.
    """
    which = _integer("which", which, 1, 2)
    n = t.n
    if n < 2:
        raise ValueError("eigenvectors need n >= 2")
    mu = _simple_lam2(t).lam2 if which == 2 else top_two(t, TOL).lam1
    post, up = _rooted(t)
    piv = _branches(post, up, mu)[1]
    A = t.adjacency
    start = min(range(n), key=lambda v: abs(piv[2 * n + v]))
    z = [0.0] * n
    z[start] = 1.0
    # each entry comes from the neighbour back toward start: the path up to the root first, then parents first
    back = list(up)
    back[start] = -1
    path = [start]
    while up[path[-1]] < n:
        back[up[path[-1]]] = path[-1]
        path.append(up[path[-1]])
    held = []
    for v in path + [v for v in reversed(post) if back[v] == up[v]]:
        b = back[v]
        for w in A[v]:
            if w != b:
                d = piv[w] if up[w] == v else piv[n + v]  # the branch at w avoiding v
                if d:
                    z[w] = -z[v] / d
                else:
                    held.append(w)
        if held:
            for w in held:
                z[w] = mu * z[v] - sum(z[x] for x in A[v])
            held.clear()
    norm = math.sqrt(sum(v * v for v in z))
    z = [v / norm for v in z]
    if max(z, key=abs) < 0:
        z = [-v for v in z]
    Az = [sum(z[w] for w in A[v]) for v in range(n)]
    lam = sum(Az[v] * z[v] for v in range(n))
    residual = max(abs(Az[v] - lam * z[v]) for v in range(n))
    return EigenvectorData(lam, tuple(z), residual)


@dataclass(frozen=True)
class CenterReport:
    """Spectral vertex or spectral edge of a tree with simple lam2.

    Vertex case: H1 and H2 are two branches at the vertex, with
    lam1(H1) = lam1(H2) = lam2(T). Edge case: they are the two sides of the
    edge (a, b), a in H1, with lam1(Hi - root) < lam2(T) < lam1(Hi). H1
    holds the smaller vertex id; ``checks`` holds the enclosure midpoints.
    """

    kind: str
    vertex: int | None
    edge: tuple | None
    h1: frozenset
    h2: frozenset
    checks: dict = field(compare=False)


def _branch_vertices(t: Tree, w: int, v: int) -> frozenset:
    """The vertices of the branch at w avoiding its neighbour v."""
    return frozenset(_bfs(t.adjacency, w, v)[0])


def spectral_center(t: Tree) -> CenterReport:
    """Locate the spectral center from branch counts at lam2's bracket ends.

    By interlacing, at most one branch at a vertex has lam1 above lam2. From
    vertex 0, the walk steps into the branch whose count is positive at
    lam2's ``hi``, or else into the only one positive at ``lo``. Stepping
    back where it came from marks the spectral edge; two branches positive
    at ``lo`` mark the spectral vertex, and are H1 and H2. The exact star
    brackets (P3, K2) are probed one float below ``lo``. Where branch values
    fall inside the bracket, nothing is certified at ``TOL``: the walk
    reports the first place the counts stop resolving, and its checks hold
    only within 2*TOL.
    """
    tt = _simple_lam2(t)
    lo = tt.lam2_lo if tt.lam2_lo < tt.lam2_hi else math.nextafter(tt.lam2_lo, -math.inf)
    parent, _, at_lo = _branches(*_rooted(t), lo)
    at_hi = _branches(*_rooted(t), tt.lam2_hi)[2]
    prev, v = -1, 0
    while True:
        step = [w for w in t.adjacency[v] if at_hi[_slot(parent, w, v)]]
        if not step:
            step = [w for w in t.adjacency[v] if at_lo[_slot(parent, w, v)]]
            if len(step) > 1:
                kind, sides = "spectral-vertex", [(step[0], v), (step[1], v)]
                break
        # no branch resolves only past vertex 0, whose counts repeat the
        # bisection's: the walk then stops on the edge it came by
        if (step[0] if step else prev) == prev:
            kind, sides = "spectral-edge", [(prev, v), (v, prev)]
            break
        prev, v = v, step[0]
    h1, h2 = sorted((_branch_vertices(t, *side) for side in sides), key=min)

    def lam1_mid(vertices):
        iv = lambda1_interval_of_vertices(t, vertices)
        return -math.inf if iv is None else 0.5 * (iv[0] + iv[1])

    checks = {"lam2": tt.lam2, "lam1_h1": lam1_mid(h1), "lam1_h2": lam1_mid(h2)}
    if kind == "spectral-vertex":
        return CenterReport(kind, v, None, h1, h2, checks)
    checks["lam1_h1_minus_a"] = lam1_mid(h1 - {prev})
    checks["lam1_h2_minus_b"] = lam1_mid(h2 - {v})
    return CenterReport(kind, None, (prev, v), h1, h2, checks)


# -- identities ---------------------------------------------------------------


def local_equation_residuals(t: Tree, ev: EigenvectorData):
    """Worst-case residuals of the distance-2 and distance-3 eigen-equations.

    For an eigenpair (lam, z):
      (i)  lam^2 z_u = deg(u) z_u + sum over d(u,w)=2 of z_w
      (ii) lam (lam^2 - deg(u)) z_u = sum over v~u of z_v (deg(v)-1)
                                      + sum over d(u,v)=3 of z_v
    """
    lam = ev.value
    z = ev.entries
    r1 = 0.0
    r2 = 0.0
    for u in range(t.n):
        dist = {u: 0}
        frontier = [u]
        for depth in (1, 2, 3):
            nxt = []
            for v in frontier:
                for w in t.adjacency[v]:
                    if w not in dist:
                        dist[w] = depth
                        nxt.append(w)
            frontier = nxt
        s2 = sum(z[w] for w, d in dist.items() if d == 2)
        s3 = sum(z[w] for w, d in dist.items() if d == 3)
        deg_u = t.degree(u)
        r1 = max(r1, abs(lam * lam * z[u] - deg_u * z[u] - s2))
        nb = sum(z[v] * (t.degree(v) - 1) for v in t.adjacency[u])
        r2 = max(r2, abs(lam * (lam * lam - deg_u) * z[u] - nb - s3))
    return r1, r2


def ev_ev_identity_residual(t: Tree, k: int, v: int) -> float:
    """Residual of |x_v|^2 * prod(lam_k - lam_i(G)) = prod(lam_k - lam_i(G-v)).

    Both spectra come from the dense oracle (G - v is a forest; the oracle
    does not care). The difference of the two sides is normalized by the
    spectral-gap product prod_{i != k} (lam_k - lam_i(G)), which makes the
    check meaningful even when the vertex entry vanishes. Requires lam_k
    simple and n <= 12.
    """
    k = _integer("k", k, 1, 2)
    if t.n > 12:
        raise ValueError("identity check uses dense spectra; n <= 12")
    t.check_vertices(v)
    vals, vecs = dense_eigh(t)
    lam_k = vals[k - 1]
    gaps = [lam_k - vals[i] for i in range(t.n) if i != k - 1]
    if min(abs(g) for g in gaps) < 1e-9:
        raise ValueError(f"eigenvalue {k} is not simple")
    keep = [i for i in range(t.n) if i != v]
    sub = adjacency_matrix(t)[np.ix_(keep, keep)]
    sub_vals, _ = jacobi_eigh(sub)
    rhs = math.prod(lam_k - muv for muv in sub_vals)
    xv2 = float(vecs[v, k - 1]) ** 2
    return abs(xv2 - rhs / math.prod(gaps))


def spectral_sum_lower_bound(t: Tree, x, y) -> float:
    """x'Ax + y'Ay for a unit orthogonal pair; never exceeds lam1 + lam2.

    Inputs are validated to unit norm and orthogonality within 1e-10.
    """
    x = [_real("x", v, -math.inf, math.inf) for v in _items("x", x)]
    y = [_real("y", v, -math.inf, math.inf) for v in _items("y", y)]
    if len(x) != t.n or len(y) != t.n:
        raise ValueError("vectors must have one entry per vertex")
    nx = math.sqrt(sum(v * v for v in x))
    ny = math.sqrt(sum(v * v for v in y))
    if not (abs(nx - 1.0) <= 1e-10 and abs(ny - 1.0) <= 1e-10):  # NaN fails every comparison
        raise ValueError(f"vectors must be unit norm (got {nx}, {ny})")
    dot = sum(a * b for a, b in zip(x, y))
    if not abs(dot) <= 1e-10:
        raise ValueError(f"vectors must be orthogonal (dot {dot})")
    qx = 0.0
    qy = 0.0
    for u, w in t.edges():
        qx += 2.0 * x[u] * x[w]
        qy += 2.0 * y[u] * y[w]
    return qx + qy
