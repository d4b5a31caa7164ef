"""Extremal search over tree families and the piecewise-linear envelope.

Every key is a linear functional c1*lam1 + c2*lam2 of the two largest
eigenvalues (``_coeffs``): psi is the convex combination alpha*lam1 +
(1-alpha)*lam2, and the spectral sum, lam1, lam2 and the gap are (1, 1),
(1, 0), (0, 1) and (1, -1). Key intervals, the comet screening bound and
the scan's early stops all derive from (c1, c2) and the tree facts
0 <= lam2 <= lam1 (n >= 3). A minimum is searched as the maximum of the
negated key, min c.lam = -max(-c.lam), so every layer below
``search_extremal`` only maximizes. Searches keep certified enclosures for
every candidate, prune against a deterministic floor, and certify every
candidate that can still win once, at ``TOL``: a winner separates from the
rest at that width or a tie is reported. All pruning bounds are one-sided
certificates, so reported winners are exact regardless of worker count.

Both families (all trees, double comets) are ``_Family`` objects. Each has
one screened pass, ``_screened``, that searches and envelopes call alike: it
keeps the members that can reach a floor, certified at ``TOL``, and builds
no Tree and no code for the rest. Members and brackets go from scan to
answer as ``(ms, br)``: ``ms`` a 2-D integer array, one member per row (an
int8 level sequence for all trees, int64 (k1, k2, ell) for comets), and
``br`` one (4, m) float array of (l1_lo, l1_hi, l2_lo, l2_hi). A floor is
``at(l1_hi, l2_hi) -> (c, value)``, the breakpoint c = (c1, c2)
where each member's upper line comes closest to it and its value there. A
search's (``_point_floor``) is one point, its key at the best lower end of
a few evaluated members; an envelope's (``_hull_floor``) is the upper hull
of their lower-end lines, less _SAFETY. Every cut is one rule, ``_drop``: a
row whose upper end is below the floor is out, and the largest upper end
dropped joins the bound the runner-up margin is measured against.

The comets' pass evaluates the short comets (path order <= 3) and takes
the floor from them. A long comet's bound is at most B(c)*sqrt(n - ell +
8), B(c) = (c1 + c2)*limit_curve(c1/(c1 + c2)), so one query of the floor
finds the first path order that drops whole (``_whole_order_cut``); the
pass screens the long comets before it as leaf-count arrays, a fixed-size
block of the family at a time, by ``_dc_upper_bound`` at the breakpoint
each comet's bound ends pick, and leaves the rest unseen: O(n) comets per
path order screened. Every comet but the star goes through the batched
inertia kernel (``spectra.TreeBatch``) as its quotient, a weighted path
(``_dc_pair_intervals``); path orders 2 and 3 hand the bisection their
closed forms as guesses, and quotients of up to 16 vertices eigvalsh's
(``_path_guesses``). Counts check every guess, which never encloses
anything, so the brackets are the unguided ones. A comet is coded from its
parameters (``trees.double_comet_code``). The all-tree pass takes its
floor from the comets (the max theorem puts a double comet on top for
every alpha), or from path and star for a minimum, and streams the
level-sequence chunks through one ``_Scan`` pool of up to ``CHUNK_ROWS``
rows, topped up from the next chunks whenever half of it has finished
(with ``jobs`` > 1, one pool per worker's run of consecutive chunks): one
joint lam1/lam2 bisection per row from degree bounds, over the step
tables and degree counts each chunk carries, which stops once the row's
key is certified below the floor or _COARSE_TOL wide. All of a pool's
probes share one elimination workspace; it never materialises a class
list and certifies only the rows left. Scans of an order the enumeration
keeps (n <= 18) share their inertia counts as well: each kept chunk
carries its rows' count facts, which every scan tightens as rows leave
its pool, and a later scan answers from them, without eliminating, every
probe they decide, so its brackets and answers are the same bit for bit.

The envelope treats each tree as the line alpha -> lam2 + alpha*(lam1 -
lam2) and keeps the upper hull in one monotone-chain pass (``_upper_hull``);
codes are only built for the witnesses of hull lines and for members whose
rounded lines collide with different floats.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace
from functools import cached_property, partial
from itertools import islice
from multiprocessing import get_context

import numpy as np

from .enumeration import (
    CHUNK_ROWS,
    MAX_EXHAUSTIVE_ORDER,
    _level_seq_edges,
    count_double_comets,
    double_comet_arrays,
    free_tree_level_chunks,
    tighten_facts,
)
from .spectra import (
    TOL,
    TreeBatch,
    _dc_closed,
    _star_intervals,
    dc_top_two_closed,
    top_two,
)
from .trees import (
    DoubleCometParams,
    Tree,
    _integer,
    _real,
    _tree_from_code,
    canonical_code,
    double_comet_code,
    make_double_comet,
    make_star,
)

_FIXED_COEFFS = {"sum": (1.0, 1.0), "lam1": (1.0, 0.0), "lam2": (0.0, 1.0), "gap": (1.0, -1.0)}
KEYS = ("psi", *_FIXED_COEFFS)
_COARSE_TOL = 1e-6
_SAFETY = 1e-9  # slack for the rounding of the float-evaluated comet screen
_ORDER_MARGIN = 1e-13  # relative slack for the rounding of a whole path order's comet bound, about 450 ulps
_FACT_MARGIN = 8 * np.finfo(float).eps  # times n * (|x| + n): over twice the rounding zones of two counts in [0, n]
_AT_LEAST = np.array([[1], [2]])  # the eigenvalues above x that set a probe's bit for lam1's bracket, for lam2's
_DENSE_GUESS_ORDER = 16  # longest comet quotient given an eigvalsh guess: O(L^3) against ~90 probes of O(L)
# consecutive chunks a worker streams through one pool when jobs > 1: a task carries at most 4 * CHUNK_ROWS rows
# whatever n; at jobs = 2 (gap and sum minima) runs of 4 beat runs of 1 and 2 at n = 16-19, and runs of 8 and 16 are
# slower at n = 16-17 and up to 20 % faster at n = 18-19; up to n = 15 (at most 4 chunks) the scan is one task
_RUN_CHUNKS = 4


@dataclass(frozen=True)
class PsiValue:
    """alpha*lam1 + (1-alpha)*lam2 with its certified enclosure."""

    alpha: float
    lam1: float
    lam2: float
    value: float
    lo: float
    hi: float


def psi(t: Tree, alpha: float) -> PsiValue:
    c1, c2 = _coeffs("psi", alpha)
    tt = top_two(t, TOL)
    lo, hi = _key_interval((c1, c2), (tt.lam1_lo, tt.lam1_hi), (tt.lam2_lo, tt.lam2_hi))
    return PsiValue(c1, tt.lam1, tt.lam2, c1 * tt.lam1 + c2 * tt.lam2, lo, hi)


@dataclass(frozen=True)
class Candidate:
    """A reported tree (a search winner) with its certified key interval.

    ``edges`` keep the member's own labelling; ``params`` is set for
    comet-family winners only.
    """

    code: str
    edges: tuple
    lo: float
    hi: float
    params: DoubleCometParams | None = None


@dataclass(frozen=True)
class ExtremalResult:
    n: int
    key: str
    objective: str
    family: str
    alpha: float | None
    winners: tuple
    runner_up_gap: float | None
    resolved: bool
    tie_proven: bool
    scanned: int

    @property
    def winner_codes(self):
        return tuple(w.code for w in self.winners)


def _coeffs(key: str, alpha):
    """(c1, c2) with the key's value c1*lam1 + c2*lam2; c1 >= 0 and c1 + c2 >= 0 for every key."""
    if key == "psi":
        alpha = _real("alpha", alpha, 0.0, 1.0)
        return alpha, 1.0 - alpha
    if key not in _FIXED_COEFFS:
        raise ValueError(f"key must be one of {KEYS}, got {key!r}")
    return _FIXED_COEFFS[key]


def _key_interval(c, l1, l2):
    """Interval of c1*lam1 + c2*lam2 from (lo, hi) pairs of floats, or of arrays elementwise.

    Each coefficient takes the end of its bracket that its sign makes low
    or high, so negated coefficients give exactly (-hi, -lo). When c1 and c2
    have opposite signs (the gap or its negation), the key has c1's sign,
    since lam2 <= lam1 and |c2| <= |c1|: the end past 0 is clamped at 0.
    Per-row coefficient arrays, a hull floor's breakpoints, are all >= 0.
    """
    c1, c2 = c
    if isinstance(c1, np.ndarray):
        return c1 * l1[0] + c2 * l2[0], c1 * l1[1] + c2 * l2[1]
    i, j = int(c1 < 0), int(c2 < 0)
    lo, hi = c1 * l1[i] + c2 * l2[j], c1 * l1[1 - i] + c2 * l2[1 - j]
    if c2 < 0 < c1:
        lo = np.where(lo > 0.0, lo, 0.0) if isinstance(lo, np.ndarray) else max(0.0, lo)
    elif c1 < 0 < c2:
        hi = np.where(hi < 0.0, hi, 0.0) if isinstance(hi, np.ndarray) else min(0.0, hi)
    return lo, hi


def _drop(hi, floor):
    """The keep mask ``hi >= floor`` of an array of upper ends, and the largest ``hi`` dropped (-inf if none)."""
    keep = hi >= floor
    return keep, float(np.maximum.reduce(hi, where=~keep, initial=-math.inf))


def _point_floor(coeffs, br):
    """A search's floor: the key ``coeffs`` at the best lower end of the brackets ``br`` (-inf if none)."""
    return partial(_point_at, coeffs, float(np.max(_key_interval(coeffs, br[:2], br[2:])[0], initial=-math.inf)))


def _point_at(coeffs, value, l1_hi, l2_hi):
    return coeffs, value


def _hull_floor(br):
    """An envelope's floor: the upper hull of the lower-end lines of the brackets ``br``, less _SAFETY.

    A member's upper line minus the convex hull is concave: it peaks at the
    breakpoint x where the hull's slope passes the line's, key (x, 1 - x).
    A member below the floor there lies over _SAFETY below the hull on [0, 1].
    """
    hull = _upper_hull(list(zip(br[0].tolist(), br[2].tolist())))
    xs = np.array([lo for lo, _, _ in hull] + [1.0])
    slopes = np.array([l1 - l2 for _, _, (l1, l2) in hull])
    values = np.array([l2 + x * (l1 - l2) for x, (*_, (l1, l2)) in zip(xs.tolist(), hull + hull[-1:])]) - _SAFETY
    return partial(_hull_at, xs, slopes, values)


def _hull_at(xs, slopes, values, l1_hi, l2_hi):
    j = np.searchsorted(slopes, l1_hi - l2_hi)
    return (xs[j], 1.0 - xs[j]), values[j]


# -- double-comet family evaluation ------------------------------------------


def _dc_pair_intervals(comets):
    """Brackets (4, m), ``TOL`` wide, of the comets, (k1, k2, ell) rows, in order: (l1_lo, l1_hi, l2_lo, l2_hi).

    A star (path order 1, or a quotient on at most 3 vertices, K2
    included) takes ``_star_intervals``. Every other comet goes through
    ``TreeBatch`` as its equitable-partition quotient, which has the comet's
    nonzero spectrum: a path on at most ell + 2 vertices with edge weights
    k1, 1, ..., 1, k2 (zero-leaf classes dropped), the k1 end deepest.
    Sorted by path order, they run ``CHUNK_ROWS`` at a time, weight-0 edges
    padding each to its chunk's longest path, which changes no bracket.
    lam1 is bisected over [0, sqrt(n-1)], slightly widened, and lam2 over
    [0, lam1_hi]. Path orders 2 and 3 pass the closed forms as guesses, and
    longer comets whose quotient has at most _DENSE_GUESS_ORDER vertices the
    top two eigenvalues of their dense quotients (``_path_guesses``); longer
    quotients get none, so no stack of large dense matrices is built. Two
    counts per eigenvalue check each guess; a wrong one restarts its row
    unguided, so every row gets the unguided brackets bit for bit.
    """
    k1, k2, ell = np.asarray(comets, dtype=np.int64).reshape(-1, 3).T
    order = ell + (k1 > 0) + (k2 > 0)
    out = np.empty((4, len(ell)))
    star = (ell == 1) | (order <= 3)
    for i in np.flatnonzero(star).tolist():
        out[:, i] = [v for iv in _star_intervals(int(k1[i] + k2[i] + ell[i])) for v in iv]
    todo = np.flatnonzero(~star)
    todo = todo[np.argsort(ell[todo], kind="stable")]
    for start in range(0, len(todo), CHUNK_ROWS):
        idx = todo[start:start + CHUNK_ROWS]
        a, b, c, m = k1[idx], k2[idx], ell[idx], order[idx]
        depth = np.arange(m.max())
        weights = ((depth >= 1) & (depth < m[:, None])).astype(float)
        weights[np.arange(len(idx)), m - 1] = np.maximum(a, 1)
        weights[:, 1] = np.maximum(b, 1)
        batch = TreeBatch(np.broadcast_to(depth, weights.shape), weights)
        g1, g2 = np.full(len(idx), math.nan), np.full(len(idx), math.nan)
        short = c <= 3
        g1[short], g2[short] = _dc_closed(a[short], b[short], c[short])
        dense = ~short & (m <= _DENSE_GUESS_ORDER)
        if dense.any():
            g1[dense], g2[dense] = _path_guesses(weights[dense, :m[dense].max()])
        out[:2, idx] = batch.bisect(1, 0.0, np.sqrt(a + b + c - 1) * (1.0 + 1e-12) + 1e-12, TOL, guess=g1)
        out[2:, idx] = batch.bisect(2, 0.0, out[1, idx], TOL, guess=g2)
    return out


def _path_guesses(weights):
    """Float guesses (lam1, lam2), from stacked ``np.linalg.eigvalsh``, of weighted paths given as ``TreeBatch`` weights.

    Row r is the path 0, 1, ..., its edge to vertex j of weight
    ``weights[r, j]`` (entry sqrt(w)), a weight-0 edge no edge. Guesses for
    ``TreeBatch.bisect``, which checks them by counts, never enclosures.
    """
    rows, order = weights.shape
    dense = np.zeros((rows, order, order))
    j = np.arange(1, order)
    dense[:, j - 1, j] = dense[:, j, j - 1] = np.sqrt(weights[:, 1:])
    values = np.linalg.eigvalsh(dense)
    return values[:, -1], values[:, -2]


def _order_bound(c1, c2):
    """B(c) = (c1 + c2)*limit_curve(c1/(c1 + c2)) for c1, c2 >= 0, not both 0, elementwise over arrays.

    For k1 >= k2 and path order ell >= 4, ``_dc_upper_bound``'s ends have
    u1 >= u2 and u1^2 + u2^2 <= n - ell + 8, so c1*u1 + c2*u2 <= B(c) *
    sqrt(n - ell + 8): by Cauchy-Schwarz, B = sqrt(c1^2 + c2^2), when c1 >=
    c2, and by Chebyshev's sum inequality, then the mean of the squares, B =
    (c1 + c2)/sqrt(2), when the coefficients are ordered against u.
    """
    total = c1 + c2
    return total * np.array([limit_curve(a) for a in (c1 / total).tolist()])


def _whole_order_cut(at, n):
    """The first path order in 4..n-2 all of whose comets' bounds drop against floor ``at``; n if none.

    An order ell drops whole when B(c)*sqrt(n - ell + 8) (``_order_bound``)
    is below the floor less _SAFETY, with _ORDER_MARGIN for the rounding of
    the per-comet bound, at every breakpoint c the floor can give: the one
    query is the smallest ratio of the two. A point floor has one. A hull
    floor has its breakpoints, alpha = 0 and 1 among them, and alpha = 1/2 is
    added, where B's factor turns from constant to convex; between these
    points the hull is linear, so the hull less the bound is least at one of
    them. Every later order drops with it. Each of its comets (k1, k2, ell')
    has a bound at most that of (k1 + ell' - ell, k2, ell), a comet of the
    cut order (a broom for the path), in floats too at one breakpoint: so a
    search's ``far``, at its point floor, is the largest bound of a screened
    comet. (At a hull floor the larger comet may pick a later breakpoint;
    envelopes read no ``far``.) A negative coefficient bounds nothing, so
    nothing drops.
    """
    if at.func is _point_at:
        (c1, c2), value = at.args
        c1, c2, value = np.atleast_1d(c1, c2, value)
    else:
        xs, _, value = at.args
        c1, value = np.append(xs, 0.5), np.append(value, np.interp(0.5, xs, value))
        c2 = 1.0 - c1
    if (c1 < 0).any() or (c2 < 0).any():
        return n
    low = value - _SAFETY
    ratio = float(np.min((low - _ORDER_MARGIN * np.abs(low)) / _order_bound(c1, c2)))
    orders = range(4, n - 1)
    first = bisect.bisect_left(orders, True, key=lambda ell: math.sqrt(n - ell + 8) < ratio)
    return orders[first] if first < len(orders) else n


def _dc_upper_bound(k1, k2):
    """Elementwise upper ends (u1, u2) of lam1 and lam2, to discard long comets unbisected.

    ``k1 >= k2`` are leaf-count arrays, as ``double_comet_arrays`` gives them.
    Valid for ell >= 4: lam1^2 is at most the largest row sum of A^2, k1+3,
    and lam2 is at most lam1 of the broom left after deleting the bigger hub
    (interlacing), at most sqrt(k2+3); the constant 4 floors both for nearly
    bare paths. c1*u1 + c2*u2 bounds a key only when c1, c2 >= 0.
    """
    return np.sqrt(np.maximum(4.0, k1 + 3.0)), np.sqrt(np.maximum(4.0, k2 + 3.0))


# -- free-tree scan ------------------------------------------------------------


@dataclass(frozen=True)
class _Scan:
    """Coarse certified scan of a run of consecutive ``LevelChunk``s of free trees against a fixed floor ``at``.

    Every discard is a certificate independent of chunking and scan order.
    One inertia count at x says how many eigenvalues lie above x, so each
    probe narrows lam1's and lam2's brackets together (multi-eigenvalue
    bisection). The rows stream through one pool of up to ``CHUNK_ROWS``
    rows, a ``TreeBatch`` whose step rows are copied in from the chunks'
    own step tables, so no table is rebuilt from the level sequences, and
    whose elimination workspace serves every probe of the run. Whenever
    fewer than half the pool's rows are live, rows of the next chunk(s) top
    it up (``_start``), so the slow tail of one chunk rides along with the
    next chunk's rows instead of paying for passes of its own. A chunk's
    largest degree marks the stars, and a row starts from
    ``_start_brackets`` for lam1 and [0, lam1_hi] for lam2. Each pass asks
    the floor for the row's breakpoint c and value at (lam1_hi, lam2_hi):
    a row whose key's upper end there is below the value is dropped
    (``_drop``), its upper end folded into ``far``; a row whose key
    bracket is within _COARSE_TOL, or both brackets at float resolution,
    is kept. Otherwise it probes the midpoint of the bracket with the
    larger |c_i| * width: a count of at least 1 there moves lam1's bracket,
    of at least 2 lam2's, wherever the probe lies inside them, and lam2_hi
    stays at most lam1_hi. A row's probes depend only on its own brackets
    and the floor, never on the rows beside it, so every bracket, kept row
    and ``far`` is the one a scan of its chunk alone gives, bit for bit.
    Stars and excluded rows are handled first: stars keep their exact
    brackets uncut, and excluded rows are left out, never dropped. It
    returns the kept rows in run order as ``(ms, br)``, their level
    sequences and their (4, m) brackets, then ``far`` and the run's row
    count, and builds no Tree and no code unless the family excludes some.

    Scans of one kept order share their counts through the chunks'
    ``facts`` (``LevelChunk``): lam1 in [L1, H1] and lam2 in [L2, H2] per
    row (``_PoolFacts``). Each probe reads the row's facts; when the row
    leaves the pool, dropped or kept, its brackets tighten them (the larger
    lower end, the smaller upper end) before its slot is reused, if the
    kernel counted it in this scan: a row whose every probe was answered
    has nothing new to add. A probe at x needs one bit per bracket it lies
    inside: at least 1 eigenvalue above x for lam1's, at least 2 for
    lam2's. The facts decide a bit when x equals the fact's point, or lies
    below L - m (the bit is set) or above H + m (it is clear), m =
    ``_FACT_MARGIN`` * n * (|x| + n); only rows with a needed bit left
    undecided are eliminated. At equality the fact is the kernel's own
    count there: the kernel is deterministic per row and x, and no probe
    equals a start bound, as probes lie strictly inside brackets that start
    there. Beyond the margin the count cannot differ, by the argument the
    guided replay of ``TreeBatch.bisect`` rests on, that a count far enough
    from every eigenvalue is exact. An eliminated count at x is exact for a
    matrix whose eigenvalues each lie within the rounding zone r(x) =
    eps*deg*(|x| + deg) of the tree's (``count_eigenvalues_above``: each
    pivot's roundings fold into relative changes of O(deg*eps) to its edge
    weights). A count of at least k at L puts lam_k at or above L - r(L);
    every bracket lies in [0, n] and deg < n, so r(x) + r(L) <= 3*eps*n*(|x|
    + n), well below m, and at x < L - m the k-th eigenvalue counted at x
    still lies above x: the count there is at least k too. An upper end is
    the mirror image. So every bit answered is the one the kernel gives,
    and every bracket moves as in a scan without facts, bit for bit. Each
    end a scan records is then one a scan without facts reaches: a start
    bound or a point where the kernel's count is what the fact says. With
    ``jobs`` > 1 the workers get their chunks without facts, as their
    tightenings would be lost, and count every probe; threads may lose one
    another's tightenings, but every value stored is a fact, so no lock is
    taken.
    """

    fam: _AllTrees
    at: partial

    def __call__(self, chunks):
        n, at, size = self.fam.n, self.at, CHUNK_ROWS
        pool = TreeBatch.from_steps(np.zeros((size, n), np.int8))
        levels, ids = np.empty((size, n), np.int8), np.empty(size, np.int64)  # per slot: its row and run position
        brackets = np.empty((4, size))
        l1_lo, l1_hi, l2_lo, l2_hi = brackets  # per slot
        facts = _PoolFacts(size)
        live = todo = np.empty(0, np.int64)
        star_br = np.array([v for iv in _star_intervals(n) for v in iv])[:, None]
        kept = [(ids[:0], levels[:0], brackets[:, :0])]  # (run positions, level sequences, brackets) per batch kept
        far, scanned, chunks = -math.inf, 0, iter(chunks)
        while True:
            if len(live) < size // 2 and chunks is not None:  # top the pool up from the run's next rows
                free = np.ones(size, dtype=bool)
                free[live] = False
                facts.record(free, brackets)  # before the slots are reused
                free = np.flatnonzero(free)
                taken = 0
                while taken < len(free):
                    if not len(todo):
                        chunk = next(chunks, None)
                        if chunk is None:
                            chunks = None  # the whole run is in the pool
                            break
                        stars, todo, start = self._start(chunk)
                        kept.append((scanned + stars, chunk.levels[stars], np.repeat(star_br, len(stars), axis=1)))
                        base, scanned = scanned, scanned + len(chunk)
                        continue
                    rows, slots = todo[:len(free) - taken], free[taken:taken + len(todo)]
                    pool.put(slots, chunk.steps[rows])
                    levels[slots], ids[slots] = chunk.levels[rows], base + rows
                    brackets[:, slots] = start[:, :len(rows)]
                    facts.fill(slots, chunk, rows)
                    todo, start, taken = todo[len(rows):], start[:, len(rows):], taken + len(rows)
                live = np.concatenate((live, free[:taken]))
            if not len(live):
                facts.record(np.ones(size, dtype=bool), brackets)
                break
            a, b, c, d = brackets.take(live, axis=1)
            (c1, c2), value = at(b, d)
            lo_key, hi_key = _key_interval((c1, c2), (a, b), (c, d))
            keep, dropped = _drop(hi_key, value)
            far = max(far, dropped)
            mid1, mid2 = 0.5 * (a + b), 0.5 * (c + d)
            fine1, fine2 = (mid1 <= a) | (mid1 >= b), (mid2 <= c) | (mid2 >= d)  # at float resolution
            go = keep & ~((hi_key - lo_key <= _COARSE_TOL) | (fine1 & fine2))
            done = live[keep & ~go]
            if len(done):
                kept.append((ids[done], levels[done], brackets[:, done]))
            first = ~fine1 & (fine2 | (np.abs(c1) * (b - a) >= np.abs(c2) * (d - c)))  # probe lam1's bracket
            live, x = live[go], np.where(first, mid1, mid2)[go]
            if not len(live):
                continue
            a, b, c, d = a[go], b[go], c[go], d[go]
            in1, in2 = inside = np.array(((a < x) & (x < b), (c < x) & (x < d)))
            ge1, ge2 = facts.counts(pool, live, x, inside)
            l1_lo[live] = np.where(in1 & ge1, x, a)
            l1_hi[live] = np.where(in1 & ~ge1, x, b)
            l2_lo[live] = np.where(in2 & ge2, x, c)
            l2_hi[live] = np.minimum(np.where(in2 & ~ge2, x, d), l1_hi[live])
        ids, ms, br = zip(*kept)
        order = np.argsort(np.concatenate(ids))  # run positions are distinct
        return np.concatenate(ms)[order], np.concatenate(br, axis=1)[:, order], far, scanned

    def _start(self, chunk):
        """A chunk's star rows; the rows left to bisect; their start brackets (4, rows).

        Excluded rows are left out. Only a row whose largest degree and
        largest neighbour-degree sum are an excluded tree's
        (``_Family.excluded_degrees``) is coded. A row starts from
        ``_start_brackets`` for lam1 and [0, lam1_hi] for lam2.
        """
        rows = np.arange(len(chunk))
        if self.fam.exclude:  # a Python loop only over the rows whose degrees match an excluded tree's
            maybe = np.zeros(len(chunk), dtype=bool)
            for top, total in self.fam.excluded_degrees:
                maybe |= (chunk.max_degree == top) & (chunk.max_degree_sum == total)
            maybe = np.flatnonzero(maybe)
            out = np.zeros(len(chunk), dtype=bool)
            out[maybe] = [self.fam.excluded(seq) for seq in chunk.levels[maybe]]
            rows = rows[~out]
        star = chunk.max_degree[rows] == self.fam.n - 1
        todo = rows[~star]
        lo, hi = _start_brackets(chunk, todo)
        return rows[star], todo, np.stack((lo, hi, np.zeros_like(lo), hi))


class _PoolFacts:
    """The count facts of the rows in a ``_Scan`` pool: read as rows come in, tightened as they leave.

    ``block`` is the ``facts`` of the run's chunks, which all share one
    order's block or all carry none. Per slot, ``row`` is its row's column
    in that block and ``counted`` whether the kernel has counted it since
    it came in. ``told`` is whether any row has come in knowing a fact:
    until then the facts decide nothing, and every probe is counted
    without comparing x to them; the comparisons added 2-9 % to a cold
    call at n = 18.
    """

    def __init__(self, size: int):
        self.block, self.told = None, False
        self.row, self.counted = np.zeros(size, np.int64), np.zeros(size, dtype=bool)

    def fill(self, slots, chunk, rows):
        """Rows ``rows`` of the ``LevelChunk`` ``chunk`` come into ``slots``."""
        self.block = chunk.facts
        if self.block is not None:
            self.row[slots] = rows = chunk.first + rows
            self.told = self.told or bool(self.block[0].take(rows).max() > -math.inf)  # a recorded row knows all four

    def counts(self, pool, live, x, inside):
        """(at least 1 above x, at least 2 above x), (2, rows) bool, for the rows of slots ``live``, each at its x.

        A bit the facts decide (see ``_Scan``) is taken from them, needed
        only where x lies inside its bracket (``inside``, lam1's then
        lam2's); every row with a needed bit left undecided is eliminated
        in the ``pool``.
        """
        if not self.told:
            self.counted[live] = True
            return pool.count_above(x, live)[0] >= _AT_LEAST
        m = _FACT_MARGIN * pool.n * (np.abs(x) + pool.n)
        facts = self.block.take(self.row.take(live), axis=1)
        lo, hi = facts[0::2], facts[1::2]  # (L1, L2), (H1, H2)
        ge = (lo == x) | (lo > x + m)
        open1, open2 = inside & ~(ge | (hi == x) | (hi < x - m))
        asked = np.flatnonzero(open1 | open2)
        if len(asked):
            rows = live.take(asked)
            ge[:, asked] = pool.count_above(x.take(asked), rows)[0] >= _AT_LEAST
            self.counted[rows] = True
        return ge

    def record(self, leaving, brackets):
        """Tighten the block's facts of the counted rows in the slots masked ``leaving`` with their ``brackets``.

        Their marks are cleared.
        """
        if self.block is None:
            return
        out = np.flatnonzero(leaving & self.counted)
        self.counted[out] = False
        tighten_facts(self.block, self.row[out], brackets.take(out, axis=1))


def _start_brackets(chunk, rows):
    """Brackets (lo, hi) of lam1 for the ``rows`` of a ``LevelChunk``, from its degree counts alone.

    The star on the largest degree D is a subgraph, so lam1 >= sqrt(D);
    lam1^2 is at most the largest row sum of A^2, the chunk's
    ``max_degree_sum``, at most n - 1. Both ends are widened outward by one
    ulp. The counts are int8: numpy's sqrt would round them to float16.
    """
    top, sums = (a[rows].astype(float) for a in (chunk.max_degree, chunk.max_degree_sum))
    return np.nextafter(np.sqrt(top), 0.0), np.nextafter(np.sqrt(sums), math.inf)


# -- families --------------------------------------------------------------------


@dataclass(frozen=True)
class _Family:
    """The members of one tree family: how to screen, evaluate, build and code each.

    ``_screened(floor, minimize, jobs)``, each family's one pass, takes a
    floor maker (``_point_floor`` bound to a key, or ``_hull_floor``) and
    returns ``(ms, br, size, far)``: the members that can reach the floor,
    one per row of ``ms``, their brackets ``br`` (4, m) certified at
    ``TOL``, the family size and the largest upper end screened out.
    ``code`` and ``candidate`` take one row of ``ms``; they are only called
    for the members a search reports or an envelope witnesses, and by
    ``excluded`` when ``exclude``, the canonical codes a search leaves out
    (checked by ``_family``), is nonempty; envelopes exclude nothing.
    """

    n: int
    exclude: frozenset = frozenset()

    def code(self, m) -> str:
        return canonical_code(self.tree(m)).decode()

    def excluded(self, m) -> bool:
        """True when member ``m`` is excluded; it is coded only when the set is nonempty."""
        return bool(self.exclude) and self.code(m) in self.exclude

    @cached_property
    def excluded_degrees(self):
        """The excluded trees' (largest degree, largest neighbour-degree sum) pairs; only a match is coded."""
        trees = [_tree_from_code(code).adjacency for code in self.exclude]
        return {(max(map(len, adj)), max(sum(len(adj[w]) for w in a) for a in adj)) for adj in trees}


class _AllTrees(_Family):
    """All free trees of order n; a member is a level sequence, an int8 row."""

    def edges(self, m):
        """Edges (parent, child) in level-sequence order, the level sequence's own labelling."""
        return tuple(_level_seq_edges(m.tolist()))

    def tree(self, m) -> Tree:
        return Tree(self.n, self.edges(m))

    def pair_intervals(self, ms):
        """The brackets (4, m) of the level sequences ``ms``, certified by one ``top_two`` each."""
        tts = [top_two(self.tree(m), TOL) for m in ms]
        return np.array([(tt.lam1_lo, tt.lam1_hi, tt.lam2_lo, tt.lam2_hi) for tt in tts]).reshape(-1, 4).T

    def candidate(self, m, lo: float, hi: float) -> Candidate:
        return Candidate(self.code(m), self.edges(m), lo, hi)

    def _screened(self, floor, minimize: bool, jobs: int):
        """The free trees that can reach the floor ``floor`` makes and their brackets; the class count; ``far``.

        The floor comes from the comets ``_Comets._screened`` keeps (same
        exclusion) for a maximum or an envelope, from path and star for a
        minimum. The chunks stream through one ``_Scan``, or over ``jobs``
        forked workers in runs of ``_RUN_CHUNKS`` consecutive chunks, one
        ``_Scan`` each; the rows left are screened again against a floor
        from their own coarse brackets, and those still wider than ``TOL``
        certified by one ``top_two`` each.
        """
        if minimize:
            ms = np.array([range(self.n), [0] + [1] * (self.n - 1)], np.int8)  # level sequences of path and star
            br = self.pair_intervals(ms[[not self.excluded(m) for m in ms]])
        else:
            br = _Comets(self.n, self.exclude)._screened(floor, False, 1)[1]
        scan = _Scan(self, floor(br))
        chunks = free_tree_level_chunks(self.n)
        if jobs == 1:
            results = [scan(chunks)]
        else:
            runs = iter(lambda: [replace(c, facts=None) for c in islice(chunks, _RUN_CHUNKS)], [])  # see _Scan on facts
            with get_context("fork").Pool(jobs) as workers:
                results = list(workers.imap(scan, runs))
        ms, br, fars, counts = zip(*results)
        ms, br = np.concatenate(ms), np.concatenate(br, axis=1)
        c, value = floor(br)(br[1], br[3])
        keep, dropped = _drop(_key_interval(c, br[:2], br[2:])[1], value)
        ms, br = ms[keep], br[:, keep]
        wide = np.maximum(br[1] - br[0], br[3] - br[2]) > TOL  # a star's brackets are not
        br[:, wide] = self.pair_intervals(ms[wide])
        return ms, br, sum(counts), max(*fars, dropped)  # far does not depend on run order


class _Comets(_Family):
    """The double comets of order n; a member is an int64 row (k1, k2, ell).

    A ``DoubleCometParams`` is built only for a member that is coded, built
    as a tree or reported: never by the screen.
    """

    def _screened(self, floor, minimize: bool, jobs: int):
        """The comets that can reach the floor ``floor`` makes and their brackets; the family size; ``far``.

        The floor comes from the short comets, path order <= 3, in one
        process whatever ``minimize`` and ``jobs``; they lead the family, but
        for the path, which is short only when n <= 3. ``_whole_order_cut``
        then finds the first path order whose every comet drops. The blocks
        of ``double_comet_arrays`` are screened up to the one that passes that
        order, and every later comet drops unseen. In a screened block each
        long comet's ``_dc_upper_bound`` ends pick its breakpoint (c1, c2); it
        is kept (``_drop``) iff its bound there comes within _SAFETY of the
        floor, or a negative c leaves it unbounded; ``far`` is the largest
        bound dropped, plus _SAFETY for its rounding. So the kept comets, and
        a search's ``far``, are those of a screen of every comet. Excluded
        comets are left out before the screen, never counted as screened
        out; the family size is ``count_double_comets``.
        """
        tops = [top for top, _ in self.excluded_degrees]
        short = []
        for ell, k1, k2 in double_comet_arrays(self.n):
            short.append(self._members(k1, k2, ell, ell <= 3, tops))
            if 4 <= ell[-1] < self.n:  # a long comet that is not the path: the short ones are all seen
                break
        short = np.concatenate(short)
        br = _dc_pair_intervals(short)
        at = floor(br)
        cut = _whole_order_cut(at, self.n)
        kept, far = [], -math.inf
        for ell, k1, k2 in double_comet_arrays(self.n):
            past = cut < ell[-1] < self.n  # past the cut order, not the leading path: that order is all seen
            ms = self._members(k1, k2, ell, ell >= 4, tops)
            u1, u2 = _dc_upper_bound(ms[:, 0], ms[:, 1])
            (c1, c2), value = at(u1, u2)
            bound = np.where((c1 >= 0) & (c2 >= 0), c1 * u1 + c2 * u2, math.inf)
            keep, dropped = _drop(bound, value - _SAFETY)
            kept.append(ms[keep])
            far = max(far, dropped + _SAFETY)
            if past:
                break
        kept = np.concatenate(kept)
        br = np.hstack((br, _dc_pair_intervals(kept)))
        return np.concatenate((short, kept)), br, count_double_comets(self.n), far

    def _members(self, k1, k2, ell, mask, tops):
        """The (k1, k2, ell) rows masked ``mask`` of the comets that are not excluded.

        Only a comet whose largest degree (k1 + 1, or 2 on a longer path, or k1 + k2 for the star of path order 1)
        is in ``tops``, the excluded trees', is coded.
        """
        ms = np.column_stack((k1, k2, ell))[mask]
        k1, k2, ell = ms.T
        maybe = np.flatnonzero(np.isin(np.where(ell == 1, k1 + k2, np.maximum(k1 + 1, np.minimum(ell - 1, 2))), tops))
        out = np.zeros(len(ms), dtype=bool)
        out[maybe] = [self.excluded(m) for m in ms[maybe]]
        return ms[~out]

    def tree(self, m) -> Tree:
        return make_double_comet(DoubleCometParams(*m))

    def code(self, m) -> str:
        return double_comet_code(DoubleCometParams(*m)).decode()

    def candidate(self, m, lo: float, hi: float) -> Candidate:
        return Candidate(self.code(m), tuple(self.tree(m).edges()), lo, hi, DoubleCometParams(*m))


def _family(n, family: str, exclude=()) -> _Family:
    """The family object for order n; the one place ``n``, ``family`` and ``exclude`` are checked.

    ``exclude`` must hold ``str`` canonical codes of order n: each is parsed
    and must be its tree's own ``canonical_code``.
    """
    n = _integer("n", n, 2)
    if isinstance(exclude, (str, bytes)):
        raise ValueError(f"exclude must be a collection of codes, got the one code exclude={exclude!r}")
    try:
        exclude = frozenset(exclude)
    except TypeError:
        raise ValueError(f"exclude must be an iterable of str codes, got exclude={exclude!r}") from None
    for code in exclude:
        try:
            t = _tree_from_code(code) if isinstance(code, str) else None
        except ValueError:
            t = None
        if t is None or t.n != n or canonical_code(t).decode() != code:
            hint = ", as canonical_code(t).decode() gives them" if isinstance(code, bytes) else ""
            raise ValueError(f"exclude takes str canonical codes of order n={n}{hint}; got {code!r}")
    if family == "all":
        if n > MAX_EXHAUSTIVE_ORDER:
            raise ValueError(f"family='all' supports n <= {MAX_EXHAUSTIVE_ORDER}, got n={n}")
        return _AllTrees(n, exclude)
    if family == "dc":
        return _Comets(n, exclude)
    raise ValueError(f"unknown family {family!r}")


def _tie_proven_exact(winners) -> bool:
    """True when all tied winners are short comets with identical quartics."""
    sigs = set()
    for w in winners:
        p = w.params
        if p is None or p.ell not in (2, 3):
            return False
        c = p.k1 * p.k2 + (p.k1 + p.k2 if p.ell == 3 else 0)
        sigs.add((p.n, c))
    return len(sigs) == 1


def search_extremal(
    n: int,
    alpha: float | None = 0.5,
    objective: str = "max",
    family: str = "all",
    key: str = "psi",
    jobs: int = 1,
    exclude=(),
) -> ExtremalResult:
    """Certified extremal tree(s) for the key over T(n) or the comet family.

    Every candidate that can still win is certified once, at ``TOL``; a
    unique winner is certified by interval separation from every other
    candidate. Surviving ties are reported as a set, flagged ``tie_proven``
    when closed forms prove exact equality (short comets only). ``exclude``
    leaves out the trees with the given ``str`` canonical codes, of order n.
    """
    fam = _family(n, family, exclude)
    coeffs = _coeffs(key, alpha)
    if objective not in ("max", "min"):
        raise ValueError(f"objective must be 'max' or 'min', got {objective!r}")
    jobs = _integer("jobs", jobs, 1)
    minimize = objective == "min"
    if minimize:  # min c.lam = -max(-c.lam): every layer below only maximizes
        coeffs = (-coeffs[0], -coeffs[1])
    ms, br, scanned, discard_bound = fam._screened(partial(_point_floor, coeffs), minimize, jobs)
    if not len(ms):
        raise ValueError("search excluded every tree in the family")
    lo, hi = _key_interval(coeffs, br[:2], br[2:])
    # the rows that can still win: those not certified below the best lower end
    keep, dropped = _drop(hi, lo.max())
    ms, lo, hi, discard_bound = ms[keep], lo[keep], hi[keep], max(dropped, discard_bound)
    runner_up_gap = float(lo.min()) - discard_bound if math.isfinite(discard_bound) else None
    if minimize:  # 0.0 - x, not -x, so that an exact zero stays +0.0
        lo, hi = 0.0 - hi, 0.0 - lo
    winners = tuple(sorted(map(fam.candidate, ms, lo.tolist(), hi.tolist()), key=lambda c: c.code))
    tie_proven = len(winners) > 1 and _tie_proven_exact(winners)
    resolved = len(winners) == 1 or tie_proven
    return ExtremalResult(
        n=fam.n,
        key=key,
        objective=objective,
        family=family,
        alpha=float(alpha) if key == "psi" else None,
        winners=winners,
        runner_up_gap=runner_up_gap,
        resolved=resolved,
        tie_proven=tie_proven,
        scanned=scanned,
    )


# -- envelope -------------------------------------------------------------------


@dataclass(frozen=True)
class Segment:
    alpha_lo: float
    alpha_hi: float
    lam1: float
    lam2: float
    witness_code: str

    def value(self, alpha: float) -> float:
        return self.lam2 + alpha * (self.lam1 - self.lam2)


@dataclass(frozen=True)
class PiecewiseLinear:
    """Upper envelope of per-tree lines alpha -> lam2 + alpha*(lam1-lam2)."""

    n: int
    family: str
    segments: tuple
    scale: float = 1.0

    def value(self, alpha: float) -> float:
        alpha = _real("alpha", alpha, 0.0, 1.0)
        for s in self.segments:
            if alpha <= s.alpha_hi:
                return s.value(alpha)
        return self.segments[-1].value(alpha)

    def scaled(self, factor: float) -> "PiecewiseLinear":
        # a finite factor > 0 keeps an upper envelope one; the open end at 0 is the smallest positive float
        factor = _real("factor", factor, math.nextafter(0.0, 1.0), math.nextafter(math.inf, 0.0))
        segs = tuple(
            Segment(s.alpha_lo, s.alpha_hi, s.lam1 * factor, s.lam2 * factor, s.witness_code)
            for s in self.segments
        )
        return PiecewiseLinear(self.n, self.family, segs, self.scale * factor)


def _envelope_lines(fam: _Family):
    """(lam1, lam2, members) per line of the family's screened pass, members as rows of ``ms``, deduplicated at 1e-12.

    Members with the line's exact floats stay uncoded in its list; a
    member that rounds onto the line with different floats is coded at
    once against the list, and replaces it, bringing its floats, if its
    code is smaller. A line's witness, the smallest code of its members,
    is only built for lines on the hull.
    """
    ms, br, _, _ = fam._screened(_hull_floor, False, 1)
    lines = {}
    for i, (l1, l2) in enumerate(zip((0.5 * (br[0] + br[1])).tolist(), (0.5 * (br[2] + br[3])).tolist())):
        key = (round(l1, 12), round(l2, 12))
        cur = lines.get(key)
        if cur is None:
            lines[key] = (l1, l2, [i])
        elif (l1, l2) == cur[:2]:
            cur[2].append(i)
        elif fam.code(ms[i]) < min(fam.code(ms[j]) for j in cur[2]):
            lines[key] = (l1, l2, [i])
    return [(l1, l2, ms[rows]) for l1, l2, rows in lines.values()]


def _upper_hull(lines):
    """(alpha_lo, alpha_hi, line) per segment of the upper hull of (lam1, lam2, ...) lines on [0, 1].

    One monotone-chain pass over the lines sorted by (slope, intercept): a
    line whose slope rounds to 12 decimals like the hull top's replaces the
    top if its intercept is more than 1e-15 higher, and is skipped if not.
    The breakpoints, 0, the crossings of consecutive hull lines and 1, are
    clipped to [0, 1], and segments of zero width are dropped.
    """

    def isect(a, b):
        # alpha where line a and line b cross
        return (b[1] - a[1]) / ((a[0] - a[1]) - (b[0] - b[1]))

    hull = []
    for line in sorted(lines, key=lambda r: (r[0] - r[1], r[1])):
        if hull and round(line[0] - line[1], 12) == round(hull[-1][0] - hull[-1][1], 12):
            if line[1] <= hull[-1][1] + 1e-15:
                continue
            hull.pop()
        while len(hull) >= 2 and isect(line, hull[-2]) <= isect(hull[-1], hull[-2]):
            hull.pop()
        hull.append(line)
    cuts = [0.0] + [min(1.0, max(0.0, isect(b, a))) for a, b in zip(hull, hull[1:])] + [1.0]
    return [(lo, hi, line) for line, lo, hi in zip(hull, cuts, cuts[1:]) if lo < hi]


def envelope(n: int, family: str = "all") -> PiecewiseLinear:
    """Exact upper envelope of the family's lines over alpha in [0, 1], by ``_upper_hull``.

    Only the lines that can reach the hull of the comets' lower-end lines
    are offered (``_envelope_lines``), each certified at ``TOL``; the rest
    lie over _SAFETY - TOL below it, so no segment, witness or float changes.
    """
    fam = _family(n, family)
    segments = tuple(Segment(lo, hi, l1, l2, min(map(fam.code, members)))
                     for lo, hi, (l1, l2, members) in _upper_hull(_envelope_lines(fam)))
    return PiecewiseLinear(n, family, segments)


def normalized_envelope(n: int, family: str = "all") -> PiecewiseLinear:
    """Envelope scaled by 1/sqrt(n-1); its range sits inside [0, 1] for n >= 3.

    (The 2-vertex tree alone has a negative second eigenvalue, so its
    normalized line starts below zero.)
    """
    return envelope(n, family).scaled(1.0 / math.sqrt(n - 1))


def limit_curve(alpha: float) -> float:
    """Pointwise large-n limit of the normalized envelope."""
    alpha = _real("alpha", alpha, 0.0, 1.0)
    if alpha <= 0.5:
        return math.sqrt(0.5)
    return math.sqrt(alpha * alpha + (1.0 - alpha) * (1.0 - alpha))


# -- tuned comets and expansions -------------------------------------------------


@dataclass(frozen=True)
class AsymptoticParams:
    """Derived constants for the alpha-tuned comets (1/2 < alpha < 1)."""

    alpha: float
    t: float
    q: float

    @classmethod
    def from_alpha(cls, alpha: float) -> "AsymptoticParams":
        # the open interval (1/2, 1) is the closed one between its nearest floats
        alpha = _real("alpha", alpha, math.nextafter(0.5, 1.0), math.nextafter(1.0, 0.5))
        a2 = alpha * alpha
        b2 = (1.0 - alpha) * (1.0 - alpha)
        t = a2 / (a2 + b2)
        q = (a2 + b2) ** 1.5 * (2.0 * alpha - 1.0) / (a2 * b2)
        return cls(alpha, t, q)

    def eps(self, n: int) -> float:
        x = self.t * (n - 3)
        return math.ceil(x) - x

    def d(self, n: int) -> float:
        return 1.0 + self.eps(n) - 2.0 * self.t


def tuned_dc3_params(n: int, alpha: float) -> DoubleCometParams:
    """The order-3 comet with the leaf split tuned to alpha."""
    n = _integer("n", n, 3)
    k1 = math.ceil(AsymptoticParams.from_alpha(alpha).t * (n - 3))  # t <= 1, so k1 <= n - 3
    return DoubleCometParams(k1, (n - 3) - k1, 3)


def tuned_dc2_params(n: int, alpha: float) -> DoubleCometParams:
    """The order-2 comet one leaf heavier on the big side."""
    n = _integer("n", n, 3)
    k1 = math.ceil(AsymptoticParams.from_alpha(alpha).t * (n - 3))  # t <= 1, so k1 <= n - 3
    return DoubleCometParams(k1 + 1, (n - 3) - k1, 2)


def expansion_dc3(n: int, alpha: float) -> float:
    """Two-term asymptotic value of the tuned order-3 comet's objective."""
    n = _integer("n", n, 2)
    ap = AsymptoticParams.from_alpha(alpha)
    a2b2 = alpha * alpha + (1.0 - alpha) * (1.0 - alpha)
    return math.sqrt(a2b2 * (n - 1)) + ap.q * ap.d(n) / (8.0 * (n - 1) ** 1.5)


def expansion_dc2(n: int, alpha: float) -> float:
    """Two-term asymptotic value of the tuned order-2 comet's objective."""
    n = _integer("n", n, 2)
    ap = AsymptoticParams.from_alpha(alpha)
    a2b2 = alpha * alpha + (1.0 - alpha) * (1.0 - alpha)
    extra = ap.t / (2.0 * ap.t - 1.0) + ap.d(n)
    return math.sqrt(a2b2 * (n - 1)) + ap.q * extra / (8.0 * (n - 1) ** 1.5)


def exact_psi_dc(params: DoubleCometParams, alpha: float) -> float:
    """Closed-form objective value for comets of path order 2 or 3."""
    alpha = _real("alpha", alpha, 0.0, 1.0)
    l1, l2 = dc_top_two_closed(params)
    return alpha * l1 + (1.0 - alpha) * l2


def _curvature_coefficient(alpha: float) -> float:
    # both short-comet families sit on lam1^2 + lam2^2 = n-1, where the
    # objective is exactly concave in x = lam1^2 - t(n-1); this is the
    # second-order coefficient of that concavity at the tuned split
    s = alpha * alpha + (1.0 - alpha) * (1.0 - alpha)
    return s ** 2.5 / (alpha * alpha * (1.0 - alpha) * (1.0 - alpha))


def curvature_expansion_dc3(n: int, alpha: float) -> float:
    """Two-term value of the tuned order-3 comet with the quadratic correction.

    The first-order terms cancel exactly at the tuned split, so the leading
    correction is the concavity penalty -Q*x^2/(8(n-1)^{3/2}) with
    x = d + (d^2+1)/((2t-1)(n-1)); the remainder is O(1/n^2).
    """
    n = _integer("n", n, 2)
    ap = AsymptoticParams.from_alpha(alpha)
    s = alpha * alpha + (1.0 - alpha) * (1.0 - alpha)
    d = ap.d(n)
    x = d + (d * d + 1.0) / ((2.0 * ap.t - 1.0) * (n - 1))
    return math.sqrt(s * (n - 1)) - _curvature_coefficient(alpha) * x * x / (8.0 * (n - 1) ** 1.5)


def curvature_expansion_dc2(n: int, alpha: float) -> float:
    """Quadratic-correction analog for the tuned order-2 comet.

    Here lam1^2 sits at t(n-1) + d + t/(2t-1) + O(1/n), so the penalty is
    evaluated at x = d + t/(2t-1) plus its 1/n refinement.
    """
    n = _integer("n", n, 2)
    ap = AsymptoticParams.from_alpha(alpha)
    s = alpha * alpha + (1.0 - alpha) * (1.0 - alpha)
    t = ap.t
    d = ap.d(n)
    # next-order offset from expanding sqrt((n-1)^2 - 4 k1 k2) one step further
    k1 = t * (n - 1) + d
    k2 = (1.0 - t) * (n - 1) - 1.0 - d
    c = (n - 1.0) ** 2 - 4.0 * k1 * k2 - ((2.0 * t - 1.0) * (n - 1)) ** 2
    x = c / (2.0 * ((2.0 * t - 1.0) * (n - 1)) ) / 2.0 - (c * c) / (8.0 * ((2.0 * t - 1.0) * (n - 1)) ** 3) / 2.0
    return math.sqrt(s * (n - 1)) - _curvature_coefficient(alpha) * x * x / (8.0 * (n - 1) ** 1.5)


# -- structure probe and gap exploration ----------------------------------------


LAMBDA2_EVEN_THRESHOLD = (math.sqrt(5.0) - 1.0) / (2.0 * math.sqrt(5.0))


@dataclass(frozen=True)
class ProbeReport:
    """Family-restricted maximizer structure versus the predicted shapes."""

    n: int
    alpha: float
    winner: DoubleCometParams
    winner_interval: tuple
    t: float | None
    ell_is_2: bool
    hub_share: float
    hub_share_dev: float | None
    predicted: DoubleCometParams | None
    matches_predicted: bool


def dc_structure_probe(n: int, alpha: float) -> ProbeReport:
    """Search the comet family and compare the winner to the expected shape.

    Above 1/2 the winner should have path order 2 with the big hub holding
    about t = alpha^2/(alpha^2+(1-alpha)^2) of the vertices; below 1/2 the
    balanced order-3 comet (odd n) or the parity-dependent order-3/4 shapes
    (even n, threshold (sqrt(5)-1)/(2 sqrt(5))) should win. n >= 3; ``alpha`` lies in [0, 1).
    """
    n = _integer("n", n, 3)
    alpha = _real("alpha", alpha, 0.0, math.nextafter(1.0, 0.0))
    res = search_extremal(n, alpha=alpha, objective="max", family="dc", key="psi")
    w = res.winners[0]
    p = w.params
    kmax = max(p.k1, p.k2)
    hub_share = (kmax + 1) / n
    t_val = None
    dev = None
    predicted = None
    if alpha > 0.5:
        t_val = AsymptoticParams.from_alpha(alpha).t
        dev = abs(kmax / n - t_val)
    elif n % 2 == 1:
        predicted = DoubleCometParams((n - 3) // 2, (n - 3) // 2, 3)
    elif alpha < LAMBDA2_EVEN_THRESHOLD:
        predicted = DoubleCometParams((n - 4) // 2, (n - 4) // 2, 4)
    else:
        predicted = DoubleCometParams((n - 4) // 2, (n - 2) // 2, 3)
    matches = False
    if predicted is not None:
        want = {predicted.k1, predicted.k2}, predicted.ell
        matches = ({p.k1, p.k2}, p.ell) == want
    return ProbeReport(
        n=n,
        alpha=alpha,
        winner=p,
        winner_interval=(w.lo, w.hi),
        t=t_val,
        ell_is_2=p.ell == 2,
        hub_share=hub_share,
        hub_share_dev=dev,
        predicted=predicted,
        matches_predicted=matches,
    )


@dataclass(frozen=True)
class GapReport:
    result: ExtremalResult
    all_balanced_comets: bool
    star_maximizes_gap: bool


def spectral_gap_min(n: int, family: str = "all", jobs: int = 1) -> GapReport:
    """Minimize lam1 - lam2; reports whether minimizers are balanced comets.

    Exploration tooling: the balanced-comet statement is reported, never
    asserted. The star maximizing the gap is checked as a sanity line.
    """
    res = search_extremal(n, alpha=None, objective="min", family=family, key="gap", jobs=jobs)
    balanced = {double_comet_code(DoubleCometParams(k, k, n - 2 * k)).decode() for k in range((n - 1) // 2 + 1)}
    all_balanced = all(w.code in balanced for w in res.winners)
    mx = search_extremal(n, alpha=None, objective="max", family=family, key="gap", jobs=jobs)
    star_wins = mx.winner_codes == (canonical_code(make_star(n)).decode(),)
    return GapReport(res, all_balanced, star_wins)
