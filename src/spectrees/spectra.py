"""Certified adjacency eigenvalues of trees.

The workhorse is an O(n) elimination pass on A - xI that returns the exact
number of eigenvalues above, equal to, and below x (Sylvester inertia via
leaf-to-root pivoting, with the standard zero-pivot repair that replaces a
zero child pivot by 2, the current pivot by -1/2 and severs the edge to the
parent). Bisection on that count gives enclosing intervals for the two
largest eigenvalues with no dependence on floating-point eigensolvers.
``TreeBatch`` runs the same pass and bisection over many same-order trees
at once with numpy and reproduces the scalar brackets bit for bit.

Everything else builds on or cross-checks that kernel: closed forms for
double comets with path order 2 or 3, the exact path spectrum, a dense
cyclic plane-rotation (Jacobi) oracle for small orders, eigenvectors by
inverse iteration with O(n) tree solves, the spectral-center decomposition
driven by the second eigenvector's sign pattern, and residual checks for
the local eigen-equations and the eigenvector-eigenvalue identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .trees import DoubleCometParams, Tree


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

    def sum_interval(self):
        return (self.lam1_lo + self.lam2_lo, self.lam1_hi + self.lam2_hi)

    def gap_interval(self):
        return (max(0.0, self.lam1_lo - self.lam2_hi), self.lam1_hi - self.lam2_lo)

    def combo_interval(self, alpha: float):
        """Interval for alpha*lam1 + (1-alpha)*lam2; needs 0 <= alpha <= 1."""
        return (
            alpha * self.lam1_lo + (1.0 - alpha) * self.lam2_lo,
            alpha * self.lam1_hi + (1.0 - alpha) * self.lam2_hi,
        )


# -- elimination kernel ----------------------------------------------------


def _rooted(t: Tree):
    """Cache (order, children) with parents before children per component."""
    if t._rooted is not None:
        return t._rooted
    order, children = _root_forest(t.adjacency)
    t._rooted = (order, children)
    return t._rooted


def _root_forest(adj):
    """Root every component of an adjacency-list forest at its first vertex."""
    n = len(adj)
    parent = [-2] * n
    order = []
    for r in range(n):
        if parent[r] != -2:
            continue
        parent[r] = -1
        comp = [r]
        for v in comp:
            for w in adj[v]:
                if parent[w] == -2:
                    parent[w] = v
                    comp.append(w)
        order.extend(comp)
    children = [[] for _ in range(n)]
    for v in order:
        p = parent[v]
        if p >= 0:
            children[p].append(v)
    return order, children


def _count_above(order, children, x: float):
    """(above, equal) counts for the forest described by (order, children)."""
    n = len(order)
    d = [0.0] * n
    severed = [False] * n
    for idx in range(n - 1, -1, -1):
        v = order[idx]
        s = 0.0
        zero_child = -1
        for c in children[v]:
            if severed[c]:
                continue
            dc = d[c]
            if dc == 0.0:
                zero_child = c
            else:
                s += 1.0 / dc
        if zero_child >= 0:
            d[zero_child] = 2.0
            d[v] = -0.5
            severed[v] = True
        else:
            d[v] = -x - s
    above = 0
    equal = 0
    for val in d:
        if val > 0.0:
            above += 1
        elif val == 0.0:
            equal += 1
    return above, equal


def count_eigenvalues_above(t: Tree, x: float) -> SignCount:
    """Exact eigenvalue counts of A(t) relative to x.

    The counts are exact for the floating-point value actually probed; no
    eigenvalue is ever computed.
    """
    order, children = _rooted(t)
    above, equal = _count_above(order, children, float(x))
    return SignCount(above, equal, t.n - above - equal)


def _bisect_count(order, children, k: int, lo: float, hi: float, tol: float,
                  stop_lo_above: float | None = None,
                  stop_hi_below: float | None = None):
    """Shrink [lo, hi] around the k-th largest eigenvalue.

    Precondition: at least k eigenvalues exceed lo (or lo is a known valid
    floor) and fewer than k exceed hi. The optional stop parameters abandon
    the bisection early once the bracket certifies the eigenvalue is above
    (resp. below) the given threshold; the partial bracket is returned.
    """
    for _ in range(200):
        if hi - lo <= tol:
            break
        if stop_lo_above is not None and lo > stop_lo_above:
            break
        if stop_hi_below is not None and hi < stop_hi_below:
            break
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        above, _ = _count_above(order, children, mid)
        if above >= k:
            lo = mid
        else:
            hi = mid
    return lo, hi


def lambda1_upper_bracket(n: int) -> float:
    """sqrt(n-1), the star's spectral radius: no tree of order n exceeds it."""
    return math.sqrt(n - 1)


def top_two(t: Tree, tol: float = 1e-12) -> TopTwo:
    """Certified enclosures of the two largest adjacency eigenvalues.

    Stars short-circuit to the exact pair (sqrt(n-1), 0); the n=2 edge is
    the one tree with a negative second eigenvalue and returns (1, -1)
    exactly. Everything else is bisection on the inertia counts over
    [0, sqrt(n-1)], which keeps lam2's bracket valid because every
    non-star tree on n >= 3 vertices has lam2 >= 0.
    """
    n = t.n
    if n < 2:
        raise ValueError("top_two needs n >= 2: a single vertex has no second eigenvalue")
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if n == 2:
        return TopTwo(1.0, 1.0, -1.0, -1.0, tol)
    if t.max_degree() == n - 1:
        s = math.sqrt(n - 1)
        return TopTwo(s, s, 0.0, 0.0, tol)
    order, children = _rooted(t)
    hi0 = lambda1_upper_bracket(n)
    l1_lo, l1_hi = _bisect_count(order, children, 1, 0.0, hi0, tol)
    l2_lo, l2_hi = _bisect_count(order, children, 2, 0.0, l1_hi, tol)
    return TopTwo(l1_lo, l1_hi, l2_lo, l2_hi, tol)


class TreeBatch:
    """Many trees of one order, eliminated together over numpy arrays.

    Rows are level sequences: preorder depths with the root 0 at depth 0,
    so the parent of v is the last earlier vertex one level up and every
    vertex's children come in ascending id. A probe eliminates all rows at
    once in postorder, post(v) = v - depth(v) + size(v) - 1, which finishes
    a vertex's children in ascending id, the order in which the scalar
    ``_count_above`` sums them; every pivot is therefore the same float.

    The zero-pivot repair runs in its limit form: a zero child pivot makes
    its parent's sum +inf, so the parent's pivot is -inf and its term in
    the grandparent's sum is -0.0, which severs that edge exactly. The
    scalar repair instead moves the child's pivot to 2 (one more above, one
    fewer equal) and the parent's to -1/2 (below in both forms), so each
    vertex with a zero child shifts one count from equal to above.
    """

    def __init__(self, levels):
        levels = np.asarray(levels, dtype=np.int64)
        if levels.ndim != 2 or levels.shape[1] < 1:
            raise ValueError("levels must be a 2-d array with one level sequence per row")
        rows, n = levels.shape
        if np.any(levels[:, 0] != 0) or np.any(levels[:, 1:] < 1) or np.any(np.diff(levels, axis=1) > 1):
            raise ValueError("each row must be a level sequence: 0 first, then 1 <= depth <= previous + 1")
        # tables are (n, rows), one vertex per table row, and are indexed flat
        depth = np.ascontiguousarray(levels.T)
        cols = np.arange(rows)
        parent = np.full((n, rows), -1, dtype=np.int64)
        last = np.zeros(n * rows, dtype=np.int64)  # last vertex seen at each depth
        for v in range(1, n):
            at = depth[v] * rows + cols
            parent[v] = last[at - rows]
            last[at] = v
        size = np.ones((n, rows), dtype=np.int64)
        flat = size.reshape(-1)
        for v in range(n - 1, 0, -1):
            flat[parent[v] * rows + cols] += size[v]
        post = np.arange(n)[:, None] - depth + size - 1
        # postorder slot of each postorder slot's parent; the root's is slot n
        up = np.full(n * rows, n, dtype=np.int64)
        up[post[1:] * rows + cols] = np.take_along_axis(post, parent[1:], axis=0)
        self.n = n
        self.parents = np.ascontiguousarray(parent.T)
        children = np.bincount((parent[1:] * rows + cols).ravel(), minlength=n * rows)
        self.degrees = np.ascontiguousarray((children.reshape(n, rows) + (np.arange(n) > 0)[:, None]).T)
        self._up = up.reshape(n, rows)  # one postorder step per table row

    def __len__(self) -> int:
        return self._up.shape[1]

    def edges(self, row: int):
        """Edges (parent, child) of one row, the level sequence's own labelling."""
        return tuple((p, v) for v, p in enumerate(self.parents[row].tolist()) if p >= 0)

    def _steps(self, rows):
        """Flat indices into an (n+1, len(rows)) table, one array per postorder step."""
        m = len(rows)
        return self._up[:, rows] * m + np.arange(m)

    @staticmethod
    def _eliminate(steps, x):
        """(above, equal, repairs) per row at probe values x.

        0.0 - x equals -x except at x = 0, where it signs a zero pivot +0.0
        as the limit form needs (the scalar only tests == 0.0). Sums may
        overflow to +-inf for probes within about 1e-300 of 0, exactly as in
        the scalar kernel; no pivot can then be exactly zero, so an inf sum
        never meets a zero child's +inf (numpy would warn of the NaN).
        """
        n, m = steps.shape
        s = np.zeros((n + 1) * m)  # child sums, one table row per postorder slot
        d = np.empty((n, m))
        inv = np.empty(m)
        acc = np.empty(m)
        neg_x = 0.0 - x
        with np.errstate(divide="ignore", over="ignore"):
            for k in range(n):
                np.subtract(neg_x, s[k * m:(k + 1) * m], out=d[k])
                np.divide(1.0, d[k], out=inv)
                at = steps[k]
                np.take(s, at, out=acc)
                acc += inv
                s[at] = acc
        above = (d > 0.0).sum(axis=0)
        zero = d == 0.0
        equal = zero.sum(axis=0)
        repairs = np.zeros(m, dtype=np.int64)
        if equal.any():
            has_zero_child = np.zeros((n + 1) * m, dtype=bool)
            has_zero_child[steps[zero]] = True
            repairs = has_zero_child[:n * m].reshape(n, m).sum(axis=0)
        return above + repairs, equal - repairs, repairs

    def count_above(self, x):
        """(above, equal, repairs) per row at probe x (a scalar or one value per row).

        ``repairs`` counts the vertices whose zero-pivot child was repaired.
        """
        x = np.broadcast_to(np.asarray(x, dtype=float), (len(self),))
        return self._eliminate(self._steps(np.arange(len(self))), x)

    def bisect(self, k: int, lo, hi, tol: float, rows=None, stop_lo_above=None, stop_hi_below=None):
        """``_bisect_count`` on every row at once; returns (lo, hi) arrays.

        Bounds and stop thresholds are scalars or one value per row (None
        disables a stop). Each row stops by the scalar rules (width, stop
        thresholds, float resolution, 200 probes); those rules are monotone,
        so a row frozen at its first stop holds the scalar bracket.
        """
        rows = np.arange(len(self)) if rows is None else np.asarray(rows)
        m = len(rows)
        lo = np.array(np.broadcast_to(lo, (m,)), dtype=float)
        hi = np.array(np.broadcast_to(hi, (m,)), dtype=float)
        stop_lo = np.broadcast_to(math.inf if stop_lo_above is None else stop_lo_above, (m,))
        stop_hi = np.broadcast_to(-math.inf if stop_hi_below is None else stop_hi_below, (m,))
        live = np.arange(m)
        steps = self._steps(rows)
        for _ in range(200):
            a, b = lo[live], hi[live]
            mid = 0.5 * (a + b)
            go = ~(b - a <= tol) & ~(a > stop_lo[live]) & ~(b < stop_hi[live]) & ~(mid <= a) & ~(mid >= b)
            if not go.all():
                live, mid = live[go], mid[go]
                steps = self._steps(rows[live])
            if not len(live):
                break
            above = self._eliminate(steps, mid)[0]
            up = above >= k
            lo[live[up]] = mid[up]
            hi[live[~up]] = mid[~up]
        return lo, hi

    def top_two(self, tol: float = 1e-12):
        """``top_two`` of every row: arrays (lam1_lo, lam1_hi, lam2_lo, lam2_hi)."""
        n, m = self.n, len(self)
        if n < 2:
            raise ValueError("top_two needs n >= 2: a single vertex has no second eigenvalue")
        if tol <= 0:
            raise ValueError(f"tol must be positive, got {tol}")
        if n == 2:
            one = np.ones(m)
            return one, one.copy(), -one, -one
        s = math.sqrt(n - 1)
        star = self.degrees.max(axis=1) == n - 1
        l1_lo, l1_hi = np.full(m, s), np.full(m, s)
        l2_lo, l2_hi = np.zeros(m), np.zeros(m)
        rest = np.flatnonzero(~star)
        l1_lo[rest], l1_hi[rest] = self.bisect(1, 0.0, lambda1_upper_bracket(n), tol, rest)
        l2_lo[rest], l2_hi[rest] = self.bisect(2, 0.0, l1_hi[rest], tol, rest)
        return l1_lo, l1_hi, l2_lo, l2_hi


def lambda1_interval_of_vertices(t: Tree, vertices, tol: float = 1e-12):
    """Enclosure of the largest eigenvalue of the subgraph induced by ``vertices``.

    The induced subgraph of a tree is a forest; the elimination kernel
    handles forests directly. Returns None for the empty set and the exact
    (0, 0) for an edgeless induced set.
    """
    vs = sorted(set(vertices))
    if not vs:
        return None
    index = {v: i for i, v in enumerate(vs)}
    adj = [[] for _ in vs]
    for v in vs:
        for w in t.adjacency[v]:
            if w in index:
                adj[index[v]].append(index[w])
    if all(not a for a in adj):
        return (0.0, 0.0)
    order, children = _root_forest(adj)
    hi0 = math.sqrt(len(vs) - 1) * (1.0 + 1e-12) + 1e-12
    return _bisect_count(order, children, 1, 0.0, hi0, tol)


# -- closed forms ----------------------------------------------------------


def dc_char_quartic(params: DoubleCometParams):
    """Coefficients (x^4, x^3, x^2, x, 1) of the nonzero-spectrum factor.

    For path order 3 the factor is x^4 - (n-1)x^2 + (k1*k2 + k1 + k2); for
    path order 2 it is x^4 - (n-1)x^2 + k1*k2. The remaining n-4
    eigenvalues are zero.
    """
    k1, k2, ell = params.k1, params.k2, params.ell
    if ell not in (2, 3):
        raise ValueError(f"quartic factor exists only for path order 2 or 3, got {ell}")
    if k1 + k2 < 1:
        raise ValueError("need at least one pendant leaf")
    n = params.n
    if ell == 3:
        c = k1 * k2 + k1 + k2
    else:
        c = k1 * k2
    return (1, 0, -(n - 1), 0, c)


def dc_top_two_closed(params: DoubleCometParams):
    """Exact (lam1, lam2) for double comets with path order 2 or 3.

    Path order 3: lam = sqrt((n-1 +- sqrt((k1-k2)^2 + 4))/2).
    Path order 2: lam = sqrt((n-1 +- sqrt((n-1)^2 - 4*k1*k2))/2).
    """
    k1, k2, ell = params.k1, params.k2, params.ell
    if ell not in (2, 3):
        raise ValueError(f"closed form exists only for path order 2 or 3, got {ell}")
    if k1 + k2 < 1:
        raise ValueError("need at least one pendant leaf")
    n = params.n
    if ell == 3:
        disc = math.sqrt((k1 - k2) ** 2 + 4)
    else:
        disc = math.sqrt((n - 1) ** 2 - 4 * k1 * k2)
    lam1 = math.sqrt(0.5 * (n - 1 + disc))
    lam2 = math.sqrt(max(0.0, 0.5 * (n - 1 - disc)))
    return lam1, lam2


def path_eigenvalue(n: int, j: int) -> float:
    """j-th largest eigenvalue of the path on n vertices: 2cos(pi*j/(n+1))."""
    if not 1 <= j <= n:
        raise ValueError(f"need 1 <= j <= n, got j={j}, n={n}")
    return 2.0 * math.cos(math.pi * j / (n + 1))


def dc_top_two_quotient(k1: int, k2: int, ell: int, tol: float = 1e-12):
    """Certified (lam1, lam2) intervals for any double comet, at O(ell) cost.

    Interchangeable leaves form an equitable partition, so the nonzero
    spectrum of DC(k1,k2,ell) equals the spectrum of a weighted path on at
    most ell+2 vertices (edge weights sqrt(k1), 1, ..., 1, sqrt(k2), with
    zero-leaf classes dropped). Sturm-type pivot counts on that tridiagonal
    drive the same bisection as the full-tree kernel, and the two largest
    eigenvalues are nonnegative whenever the comet has at least 3 vertices.
    """
    n = k1 + k2 + ell
    if n < 3:
        raise ValueError("quotient bisection needs n >= 3")
    if ell == 1 or (ell == 2 and min(k1, k2) == 0):
        s = math.sqrt(n - 1)
        return (s, s), (0.0, 0.0)
    ws = []
    if k1 > 0:
        ws.append(float(k1))
    ws.extend([1.0] * (ell - 1))
    if k2 > 0:
        ws.append(float(k2))

    def above(x: float) -> int:
        child = None
        count = 0
        pivots = []
        for i in range(len(ws) + 1):
            if child is None:
                cur = -x
            elif child == 0.0:
                pivots[-1] = 2.0
                cur = -0.5
                pivots.append(cur)
                child = None
                continue
            else:
                cur = -x - ws[i - 1] / child
            pivots.append(cur)
            child = cur
        for p in pivots:
            if p > 0.0:
                count += 1
        return count

    hi0 = math.sqrt(n - 1) * (1.0 + 1e-12) + 1e-12
    lo1, hi1 = 0.0, hi0
    for _ in range(200):
        if hi1 - lo1 <= tol:
            break
        mid = 0.5 * (lo1 + hi1)
        if mid <= lo1 or mid >= hi1:
            break
        if above(mid) >= 1:
            lo1 = mid
        else:
            hi1 = mid
    lo2, hi2 = 0.0, hi1
    for _ in range(200):
        if hi2 - lo2 <= tol:
            break
        mid = 0.5 * (lo2 + hi2)
        if mid <= lo2 or mid >= hi2:
            break
        if above(mid) >= 2:
            lo2 = mid
        else:
            hi2 = mid
    return (lo1, hi1), (lo2, hi2)


# -- characteristic polynomial ----------------------------------------------


def char_poly_eval_edges(n: int, edges, x: float) -> float:
    """det(xI - A) for the forest on vertices 0..n-1 with the given edges.

    Bottom-up two-value recursion per rooted subtree: with P the subtree
    polynomial and Q the polynomial of the subtree minus its root,
    P(v) = x * prod_c P(c) - sum_c Q(c) * prod_{c' != c} P(c'). This is the
    iterated pendant-edge deletion identity and never divides, so probe
    values that are exact eigenvalues simply evaluate to 0.
    """
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    order, children = _root_forest(adj)
    P = [0.0] * n
    Q = [0.0] * n
    for idx in range(n - 1, -1, -1):
        v = order[idx]
        cs = children[v]
        if not cs:
            P[v] = x
            Q[v] = 1.0
            continue
        k = len(cs)
        pre = [1.0] * (k + 1)
        for i, c in enumerate(cs):
            pre[i + 1] = pre[i] * P[c]
        suf = [1.0] * (k + 1)
        for i in range(k - 1, -1, -1):
            suf[i] = suf[i + 1] * P[cs[i]]
        s = 0.0
        for i, c in enumerate(cs):
            s += Q[c] * pre[i] * suf[i + 1]
        P[v] = x * pre[k] - s
        Q[v] = pre[k]
    # det over the forest = product over component roots
    roots = set(order)
    for v in order:
        for c in children[v]:
            roots.discard(c)
    det = 1.0
    for r in sorted(roots):
        det *= P[r]
    return det


def char_poly_eval(t: Tree, x: float) -> float:
    """det(xI - A(t)); returns 0 when x is an eigenvalue."""
    return char_poly_eval_edges(t.n, t.edges(), x)


# -- dense oracle ------------------------------------------------------------


def adjacency_matrix(t: Tree) -> np.ndarray:
    A = np.zeros((t.n, t.n))
    for u, v in t.edges():
        A[u, v] = 1.0
        A[v, u] = 1.0
    return A


def jacobi_eigh(matrix, off_tol: float = 1e-12, max_sweeps: int = 60):
    """Eigen-decomposition of a symmetric matrix by cyclic plane rotations.

    Sweeps Givens rotations over all off-diagonal positions until the
    off-diagonal Frobenius norm drops below ``off_tol``. Returns
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
    for _ in range(max_sweeps):
        # off-diagonal Frobenius norm, summed directly to avoid cancellation
        strict = A - np.diag(np.diag(A))
        off = float(np.sqrt(np.sum(strict * strict)))
        if off <= off_tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if abs(apq) < off_tol / (4.0 * n):
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


# -- eigenvectors ------------------------------------------------------------


@dataclass(frozen=True)
class EigenvectorData:
    """A unit eigenvector with its support classification.

    tau is the zero threshold (1e-8 times the largest entry magnitude) used
    to split vertices into positive support, negative support and zero set.
    """

    value: float
    entries: tuple
    s_plus: frozenset
    s_minus: frozenset
    s_zero: frozenset
    tau: float
    residual: float


def _tree_solve(order, children, mu: float, b):
    """Solve (A - mu*I) z = b on the rooted tree in O(n)."""
    n = len(order)
    piv = [0.0] * n
    u = [0.0] * n
    for idx in range(n - 1, -1, -1):
        v = order[idx]
        p = -mu
        acc = b[v]
        for c in children[v]:
            p -= 1.0 / piv[c]
            acc -= u[c] / piv[c]
        if p == 0.0:
            p = 1e-18
        piv[v] = p
        u[v] = acc
    z = [0.0] * n
    root = order[0]
    z[root] = u[root] / piv[root]
    for v in order:
        for c in children[v]:
            z[c] = (u[c] - z[v]) / piv[c]
    return z


def _lambda2_multiplicity(t: Tree, tt: TopTwo) -> int:
    """Number of eigenvalues in a snug window around lam2 (1 means simple)."""
    order, children = _rooted(t)
    probe = tt.lam2_lo - max(tt.tol, 1e-12)
    above, _ = _count_above(order, children, probe)
    return above - 1


def eigenvector(t: Tree, which: int, tol: float = 1e-12) -> EigenvectorData:
    """Unit eigenvector for lam1 (Perron) or lam2, by inverse iteration.

    The shift comes from the certified bisection bracket. For which=2 the
    eigenvalue must be simple; otherwise Lambda2MultiplicityError is raised
    (no minimal-support representative is selected in the degenerate case).
    Sign conventions: the Perron vector is positive; the lam2 eigenvector is
    oriented so that the smallest-id supported vertex sits in S+.
    """
    if which not in (1, 2):
        raise ValueError(f"which must be 1 or 2, got {which}")
    n = t.n
    if n < 2:
        raise ValueError("eigenvectors need n >= 2")
    tt = top_two(t, min(tol, 1e-12))
    if which == 2:
        mult = _lambda2_multiplicity(t, tt)
        if mult > 1:
            raise Lambda2MultiplicityError(mult)
        mu = tt.lam2
    else:
        mu = tt.lam1
    order, children = _rooted(t)
    A = t.adjacency
    z = [math.cos(1.7 * i + 0.3) + 0.05 for i in range(n)]
    if which == 1:
        z = [abs(v) + 0.01 for v in z]
    lam = mu
    residual = math.inf
    for attempt in range(6):
        shift = mu + attempt * 3.0 * tol * (1 if attempt % 2 else -1)
        for _ in range(3 + attempt):
            z = _tree_solve(order, children, shift, z)
            norm = math.sqrt(sum(v * v for v in z))
            if not math.isfinite(norm) or norm == 0.0:
                z = [math.sin(2.3 * i + 0.7) + 0.02 for i in range(n)]
                continue
            z = [v / norm for v in z]
        Az = [sum(z[w] for w in A[v]) for v in range(n)]
        lam = sum(Az[v] * z[v] for v in range(n))
        residual = max(abs(Az[v] - lam * z[v]) for v in range(n))
        if residual <= 1e-9:
            break
    if residual > 1e-9:
        raise RuntimeError(f"inverse iteration stalled (residual {residual:.3g})")
    big = max(abs(v) for v in z)
    tau = 1e-8 * big
    if which == 1:
        if sum(z) < 0:
            z = [-v for v in z]
    else:
        for v in range(n):
            if abs(z[v]) > tau:
                if z[v] < 0:
                    z = [-w for w in z]
                break
    s_plus = frozenset(v for v in range(n) if z[v] > tau)
    s_minus = frozenset(v for v in range(n) if z[v] < -tau)
    s_zero = frozenset(range(n)) - s_plus - s_minus
    return EigenvectorData(lam, tuple(z), s_plus, s_minus, s_zero, tau, residual)


# -- spectral center ---------------------------------------------------------


@dataclass(frozen=True)
class CenterReport:
    """Spectral vertex or spectral edge of a tree with simple lam2.

    H1 and H2 are the positive and negative supports of the lam2
    eigenvector. In the vertex case a unique zero vertex separates them and
    lam1(H1) = lam1(H2) = lam2(T); in the edge case the supports partition
    the tree across one edge (a, b) with the strict sandwich
    lam1(Hi - root) < lam2(T) < lam1(Hi).
    """

    kind: str
    vertex: int | None
    edge: tuple | None
    h1: frozenset
    h2: frozenset
    checks: dict = field(compare=False)
    tau: float = 0.0


def spectral_center(t: Tree, tol: float = 1e-12) -> CenterReport:
    """Locate the spectral center from the lam2 eigenvector's sign pattern."""
    ev = eigenvector(t, 2, tol)
    tt = top_two(t, tol)
    s_plus, s_minus, s_zero = ev.s_plus, ev.s_minus, ev.s_zero
    h1, h2 = s_plus, s_minus

    def lam1_mid(vertices):
        iv = lambda1_interval_of_vertices(t, vertices, tol)
        if iv is None:
            return -math.inf
        return 0.5 * (iv[0] + iv[1])

    separators = []
    for v in s_zero:
        nbrs = t.adjacency[v]
        if any(w in s_plus for w in nbrs) and any(w in s_minus for w in nbrs):
            separators.append(v)
    if separators:
        if len(separators) != 1:
            raise RuntimeError(f"expected a unique separating zero vertex, found {separators}")
        v = separators[0]
        checks = {
            "lam2": tt.lam2,
            "lam1_h1": lam1_mid(h1),
            "lam1_h2": lam1_mid(h2),
        }
        return CenterReport("spectral-vertex", v, None, h1, h2, checks, ev.tau)
    crossing = [
        (u, w)
        for u, w in t.edges()
        if (u in s_plus and w in s_minus) or (u in s_minus and w in s_plus)
    ]
    if len(crossing) != 1:
        raise RuntimeError(f"expected a unique crossing edge, found {crossing}")
    u, w = crossing[0]
    a, b = (u, w) if u in s_plus else (w, u)
    checks = {
        "lam2": tt.lam2,
        "lam1_h1": lam1_mid(h1),
        "lam1_h2": lam1_mid(h2),
        "lam1_h1_minus_a": lam1_mid(h1 - {a}),
        "lam1_h2_minus_b": lam1_mid(h2 - {b}),
    }
    return CenterReport("spectral-edge", None, (a, b), h1, h2, checks, ev.tau)


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
    if k not in (1, 2):
        raise ValueError(f"k must be 1 or 2, got {k}")
    if t.n > 12:
        raise ValueError("identity check uses dense spectra; n <= 12")
    if not 0 <= v < t.n:
        raise ValueError(f"vertex {v} out of range")
    vals, vecs = dense_eigh(t)
    lam_k = vals[k - 1]
    gaps = [lam_k - vals[i] for i in range(t.n) if i != k - 1]
    if min(abs(g) for g in gaps) < 1e-9:
        raise ValueError(f"eigenvalue {k} is not simple")
    keep = [i for i in range(t.n) if i != v]
    sub = adjacency_matrix(t)[np.ix_(keep, keep)]
    sub_vals, _ = jacobi_eigh(sub)
    lhs_gap_product = 1.0
    for g in gaps:
        lhs_gap_product *= g
    rhs = 1.0
    for muv in sub_vals:
        rhs *= lam_k - muv
    xv2 = float(vecs[v, k - 1]) ** 2
    return abs(xv2 - rhs / lhs_gap_product)


def spectral_sum_lower_bound(t: Tree, x, y) -> float:
    """x'Ax + y'Ay for a unit orthogonal pair; never exceeds lam1 + lam2.

    Inputs are validated to unit norm and orthogonality within 1e-10.
    """
    x = list(map(float, x))
    y = list(map(float, y))
    if len(x) != t.n or len(y) != t.n:
        raise ValueError("vectors must have one entry per vertex")
    nx = math.sqrt(sum(v * v for v in x))
    ny = math.sqrt(sum(v * v for v in y))
    if abs(nx - 1.0) > 1e-10 or abs(ny - 1.0) > 1e-10:
        raise ValueError(f"vectors must be unit norm (got {nx}, {ny})")
    dot = sum(a * b for a, b in zip(x, y))
    if abs(dot) > 1e-10:
        raise ValueError(f"vectors must be orthogonal (dot {dot})")
    qx = 0.0
    qy = 0.0
    for u, w in t.edges():
        qx += 2.0 * x[u] * x[w]
        qy += 2.0 * y[u] * y[w]
    return qx + qy
