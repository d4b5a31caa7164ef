"""Extremal search over tree families and the piecewise-linear envelope.

The objective is the convex combination alpha*lam1 + (1-alpha)*lam2 (plus
the spectral-sum, second-eigenvalue and spectral-gap variants). Searches
keep certified enclosures for every candidate, prune against a
deterministic baseline (the double-comet family for maxima, path and star
for minima), and refine tolerances adaptively until the winner separates
or a tie survives at the floor tolerance. All pruning bounds are one-sided
certificates, so reported winners are exact regardless of worker count or
scan order.

Searches over all trees stream level-sequence chunks through the batched
inertia kernel (``spectra.TreeBatch``) and build a Tree and a canonical
code only for the survivors of the coarse scan; no class list is
materialised or sorted. Single trees and the comet family keep the scalar
kernel and the weighted-path quotient.

The envelope treats each tree as the line alpha -> lam2 + alpha*(lam1 -
lam2) and eliminates dominated lines by the usual slope-sorted convex-hull
stack; breakpoints are exact pairwise intersections of supporting lines.
Over all trees, codes are only built for lines on the hull and for trees
whose rounded lines collide with different floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from multiprocessing import get_context

import numpy as np

from .enumeration import (
    MAX_EXHAUSTIVE_ORDER,
    _level_seq_edges,
    double_comet_params,
    free_tree_level_chunks,
)
from .spectra import (
    TreeBatch,
    dc_top_two_closed,
    dc_top_two_quotient,
    path_eigenvalue,
    top_two,
)
from .trees import (
    DoubleCometParams,
    Tree,
    canonical_code,
    make_double_comet,
    make_path,
    make_star,
)

KEYS = ("psi", "sum", "lam1", "lam2", "gap")
_TOL_SCHEDULE = (1e-10, 1e-12, 1e-14)
_COARSE_TOL = 1e-6
_SAFETY = 1e-9  # slack on closed-form baselines before any certified discard


@dataclass(frozen=True)
class PsiValue:
    """alpha*lam1 + (1-alpha)*lam2 with its certified enclosure."""

    alpha: float
    lam1: float
    lam2: float
    value: float
    lo: float
    hi: float


def psi(t: Tree, alpha: float, tol: float = 1e-12) -> PsiValue:
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    tt = top_two(t, tol)
    lo, hi = tt.combo_interval(alpha)
    return PsiValue(alpha, tt.lam1, tt.lam2, alpha * tt.lam1 + (1 - alpha) * tt.lam2, lo, hi)


@dataclass(frozen=True)
class Candidate:
    """A surviving tree with its certified key interval."""

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


def _key_interval_from_pair(l1, l2, key: str, alpha: float | None):
    """Key interval from (lo, hi) pairs of floats, or of arrays elementwise."""
    if key == "psi":
        return (alpha * l1[0] + (1 - alpha) * l2[0], alpha * l1[1] + (1 - alpha) * l2[1])
    if key == "sum":
        return (l1[0] + l2[0], l1[1] + l2[1])
    if key == "lam1":
        return l1
    if key == "lam2":
        return l2
    if key == "gap":
        lo = l1[0] - l2[1]
        lo = np.where(lo > 0.0, lo, 0.0) if isinstance(lo, np.ndarray) else max(0.0, lo)
        return (lo, l1[1] - l2[0])
    raise ValueError(f"unknown key {key!r}")


def _tree_key_interval(t: Tree, key: str, alpha, tol: float):
    tt = top_two(t, tol)
    return _key_interval_from_pair((tt.lam1_lo, tt.lam1_hi), (tt.lam2_lo, tt.lam2_hi), key, alpha)


# -- double-comet family evaluation ------------------------------------------


def _dc_pair_interval(p: DoubleCometParams, tol: float):
    """Certified (lam1, lam2) intervals for one comet, cheapest exact route."""
    n = p.n
    if p.k1 == 0 and p.k2 == 0:
        # pure path; in particular the 2-path, whose lam2 = -1 is the one
        # negative second eigenvalue in the family
        l1 = path_eigenvalue(n, 1)
        l2 = path_eigenvalue(n, 2)
        return (l1, l1), (l2, l2)
    if p.ell == 1 or (p.ell == 2 and min(p.k1, p.k2) == 0) or max(p.k1, p.k2) == n - 1:
        s = math.sqrt(n - 1)
        return (s, s), (0.0, 0.0)
    if p.ell in (2, 3):
        l1, l2 = dc_top_two_closed(p)
        return (l1 - _SAFETY * 1e-3, l1 + _SAFETY * 1e-3), (l2 - _SAFETY * 1e-3, l2 + _SAFETY * 1e-3)
    return dc_top_two_quotient(p.k1, p.k2, p.ell, tol)


def _dc_psi_upper_bound(p: DoubleCometParams, key: str, alpha) -> float:
    """One-sided bound used to discard long comets without bisection.

    Valid for ell >= 4: lam1^2 is at most the largest row sum of A^2,
    which is max(k)+3, and lam2 is at most lam1 of the broom left after
    deleting the bigger hub (interlacing), at most sqrt(min(k)+3); the
    constant 4 floors both for nearly bare paths.
    """
    kmax = max(p.k1, p.k2)
    kmin = min(p.k1, p.k2)
    u1 = math.sqrt(max(4.0, kmax + 3.0))
    u2 = math.sqrt(max(4.0, kmin + 3.0))
    if key == "psi":
        return alpha * u1 + (1 - alpha) * u2
    if key == "sum":
        return u1 + u2
    if key == "lam1":
        return u1
    if key == "lam2":
        return u2
    raise ValueError(f"no upper bound for key {key!r}")


def _dc_candidates(n: int, key: str, alpha, objective: str, tol: float, exclude):
    """Certified double-comet candidate pool plus a discard bound.

    Short path orders are evaluated outright (closed forms); for maximizing
    keys the ell >= 4 comets are first screened by _dc_psi_upper_bound
    against the best short-order value, which discards all but a thin
    parameter band. Trees and canonical codes are only built for comets
    that survive a certified pre-filter; the returned ``discard_bound``
    caps the key value of everything dropped on the way, so margins
    reported downstream stay certificates. With a nonempty ``exclude`` the
    pre-filter is skipped (codes are needed for every member).
    """
    params = double_comet_params(n)
    maximize = objective == "max"
    prune = maximize and key in ("psi", "sum", "lam1", "lam2")

    def excluded(p):
        # codes are only materialized when an exclusion set is in play
        return bool(exclude) and canonical_code(make_double_comet(p)).decode() in exclude

    rows = []
    if prune:
        screen_bar = -math.inf
        for p in params:
            if p.ell <= 3 and not excluded(p):
                l1, l2 = _dc_pair_interval(p, tol)
                lo, hi = _key_interval_from_pair(l1, l2, key, alpha)
                rows.append((p, lo, hi))
                screen_bar = max(screen_bar, lo)
        for p in params:
            if p.ell >= 4 and _dc_psi_upper_bound(p, key, alpha) >= screen_bar - _SAFETY:
                if excluded(p):
                    continue
                l1, l2 = _dc_pair_interval(p, tol)
                lo, hi = _key_interval_from_pair(l1, l2, key, alpha)
                rows.append((p, lo, hi))
        discard_bound = screen_bar  # everything screened out sits below the bar
    else:
        for p in params:
            if excluded(p):
                continue
            l1, l2 = _dc_pair_interval(p, tol)
            lo, hi = _key_interval_from_pair(l1, l2, key, alpha)
            rows.append((p, lo, hi))
        discard_bound = -math.inf if maximize else math.inf
    # pre-filter so trees and codes are only built for near-extremal comets
    if maximize:
        bar = max(lo for _, lo, _ in rows)
        kept = [r for r in rows if r[2] >= bar]
        dropped = [r[2] for r in rows if r[2] < bar]
        if dropped:
            discard_bound = max(discard_bound, max(dropped))
    else:
        bar = min(hi for _, _, hi in rows)
        kept = [r for r in rows if r[1] <= bar]
        dropped = [r[1] for r in rows if r[1] > bar]
        if dropped:
            discard_bound = min(discard_bound, min(dropped))
    out = []
    for p, lo, hi in kept:
        t = make_double_comet(p)
        code = canonical_code(t).decode()
        out.append(Candidate(code, tuple(t.edges()), lo, hi, p))
    return out, len(params), discard_bound


# -- free-tree scan ------------------------------------------------------------


@dataclass(frozen=True)
class _Scan:
    """Coarse certified scan of one chunk of level sequences.

    lo_base/hi_base bound the final optimum from a fixed baseline, so every
    discard is a certificate independent of chunking and scan order. Uses,
    for trees, lam2 >= 0 (n >= 3) and lam1^2 + lam2^2 <= n - 1. Called on a
    chunk, it returns the surviving candidates, whether anything was
    certified out, and the chunk's row count; only survivors get a Tree and
    a canonical code.
    """

    n: int
    key: str
    alpha: float | None
    objective: str
    lo_base: float
    hi_base: float
    exclude: frozenset

    def __call__(self, levels):
        n, key, alpha, lo_base, hi_base = self.n, self.key, self.alpha, self.lo_base, self.hi_base
        maximize = self.objective == "max"
        batch = TreeBatch(levels)
        rows = np.flatnonzero(~_excluded_rows(batch, self.exclude))
        if n == 2:
            iv = _key_interval_from_pair((1.0, 1.0), (-1.0, -1.0), key, alpha)
            return [_candidate(batch, r, *iv) for r in rows], False, len(batch)
        out = np.zeros(len(batch), dtype=bool)
        if not maximize and key == "sum":
            out[rows] = _two_hub_out(batch, rows, hi_base)
        star = np.flatnonzero(~out & (batch.degrees.max(axis=1) == n - 1))
        s = math.sqrt(n - 1)
        pool = [_candidate(batch, r, *_key_interval_from_pair((s, s), (0.0, 0.0), key, alpha))
                for r in np.intersect1d(star, rows)]
        rows = np.setdiff1d(rows[~out[rows]], star)
        stop_lo = stop_hi = None
        if maximize:
            # psi, lam1, lam2 are all at most lam1; the sum is at most 2*lam1
            if key in ("psi", "lam1", "lam2"):
                stop_hi = lo_base
            elif key == "sum":
                stop_hi = 0.5 * lo_base
        if not maximize and key in ("sum", "lam1"):
            stop_lo = hi_base  # lam2 >= 0 for n >= 3, so the sum is at least lam1
        l1_lo, l1_hi = batch.bisect(1, 0.0, s, _COARSE_TOL, rows, stop_lo, stop_hi)
        if maximize and key in ("psi", "lam1", "lam2"):
            l1_out = l1_hi < lo_base
        elif maximize and key == "sum":
            l1_out = 2.0 * l1_hi < lo_base
        elif not maximize and key in ("sum", "lam1"):
            l1_out = l1_lo > hi_base
        else:
            l1_out = np.zeros(len(rows), dtype=bool)
        out[rows[l1_out]] = True
        rows, l1_lo, l1_hi = rows[~l1_out], l1_lo[~l1_out], l1_hi[~l1_out]
        if key == "lam1":
            iv = (l1_lo, l1_hi)
        else:
            stop_lo = stop_hi = None
            if maximize and key == "psi" and alpha < 1.0:
                stop_hi = (lo_base - alpha * l1_hi) / (1.0 - alpha)
            elif maximize and key == "sum":
                stop_hi = lo_base - l1_hi
            elif maximize and key == "lam2":
                stop_hi = lo_base
            elif not maximize and key == "sum":
                stop_lo = hi_base - l1_lo
            l2 = batch.bisect(2, 0.0, l1_hi, _COARSE_TOL, rows, stop_lo, stop_hi)
            iv = _key_interval_from_pair((l1_lo, l1_hi), l2, key, alpha)
        iv_out = iv[1] < lo_base if maximize else iv[0] > hi_base
        out[rows[iv_out]] = True
        keep = ~iv_out
        pool += [_candidate(batch, r, lo, hi)
                 for r, lo, hi in zip(rows[keep].tolist(), iv[0][keep].tolist(), iv[1][keep].tolist())]
        return pool, bool(out.any()), len(batch)


def _candidate(batch, row, lo: float, hi: float) -> Candidate:
    edges = batch.edges(row)
    return Candidate(_edges_code(batch.n, edges), edges, lo, hi)


def _edges_code(n: int, edges) -> str:
    return canonical_code(Tree(n, edges)).decode()


def _two_hub_out(batch, rows, hi_base: float):
    """Rows whose two far-apart hubs force a spectral sum above hi_base.

    lam1 + lam2 >= sqrt(d1) + sqrt(d2) for hubs at distance >= 3; the hubs
    tried are the three highest-degree vertices, ties to the lower id.
    """
    deg = batch.degrees[rows]
    par = batch.parents[rows]
    m, n = deg.shape
    ar = np.arange(m)
    grand = np.where(par >= 0, np.take_along_axis(par, np.maximum(par, 0), axis=1), -1)
    vs = np.arange(n)
    out = np.zeros(m, dtype=bool)
    for u in np.argsort(-deg, axis=1, kind="stable")[:, :3].T:
        du = deg[ar, u]
        out |= np.sqrt(du) - _SAFETY > hi_base  # lam1 alone already exceeds the baseline
        pu, gu, u = par[ar, u][:, None], grand[ar, u][:, None], u[:, None]
        near = (vs == u) | (par == u) | (vs == pu) | (grand == u) | (vs == gu) | ((par == pu) & (pu >= 0))
        best = np.where(near, 0, deg).max(axis=1)
        out |= (best > 0) & (np.sqrt(du) + np.sqrt(best) - _SAFETY > hi_base)
    return out


def _excluded_rows(batch, exclude):
    """Rows whose canonical code is in ``exclude``."""
    excluded = np.zeros(len(batch), dtype=bool)
    if exclude:
        for r in range(len(batch)):
            excluded[r] = _edges_code(batch.n, batch.edges(r)) in exclude
    return excluded


def _baseline(n: int, key: str, alpha, objective: str, exclude):
    """Deterministic certified baseline interval for pruning.

    Maximizing keys use the best double comet (closed forms plus the
    screened quotient evaluations); minimizing keys use the better of path
    and star. Returns (lo, hi) enclosing the baseline value.
    """
    if objective == "max":
        cands, _, _ = _dc_candidates(n, key, alpha, "max", 1e-12, exclude)
        best = max(cands, key=lambda c: c.lo)
        return best.lo, best.hi
    best = (-math.inf, math.inf)
    for t in (make_path(n), make_star(n)) if n >= 2 else (make_path(n),):
        iv = _tree_key_interval(t, key, alpha, 1e-12)
        if canonical_code(t).decode() in exclude:
            continue
        if iv[1] < best[1]:
            best = iv
    return best


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
    final_tol: float = 1e-12,
) -> ExtremalResult:
    """Certified extremal tree(s) for the key over T(n) or the comet family.

    Winners come with enclosures refined down to 1e-14 when needed; a
    unique winner is certified by interval separation from every other
    candidate. Surviving ties are reported as a set, flagged ``tie_proven``
    when closed forms prove exact equality (short comets only).
    """
    if key not in KEYS:
        raise ValueError(f"key must be one of {KEYS}, got {key!r}")
    if objective not in ("max", "min"):
        raise ValueError(f"objective must be 'max' or 'min', got {objective!r}")
    if key == "psi":
        if alpha is None or not 0.0 <= alpha <= 1.0:
            raise ValueError(f"psi needs alpha in [0, 1], got {alpha}")
    if n < 2:
        raise ValueError("searches need n >= 2")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    exclude = frozenset(exclude)
    maximize = objective == "max"

    if family == "dc":
        pool, scanned, discard_bound = _dc_candidates(n, key, alpha, objective, 1e-12, exclude)
    elif family == "all":
        if n > MAX_EXHAUSTIVE_ORDER:
            raise ValueError(f"family='all' supports n <= {MAX_EXHAUSTIVE_ORDER}")
        lo_base, hi_base = _baseline(n, key, alpha, objective, exclude)
        scan = _Scan(n, key, alpha, objective, lo_base, hi_base, exclude)
        chunks = free_tree_level_chunks(n)
        if jobs == 1:
            results = list(map(scan, chunks))
        else:
            with get_context("fork").Pool(jobs) as pool_proc:
                results = list(pool_proc.imap(scan, chunks))
        pool = [c for chunk, _, _ in results for c in chunk]
        scanned = sum(rows for _, _, rows in results)
        if not any(flag for _, flag, _ in results):
            discard_bound = -math.inf if maximize else math.inf
        else:
            # every discarded tree was certified on the wrong side of the baseline
            discard_bound = lo_base if maximize else hi_base
    else:
        raise ValueError(f"unknown family {family!r}")

    pool.sort(key=lambda c: c.code)
    if not pool:
        raise ValueError("search excluded every tree in the family")

    def refine(cands, tol):
        out = []
        for c in cands:
            if c.hi - c.lo <= tol:
                out.append(c)
                continue
            if c.params is not None:
                l1, l2 = _dc_pair_interval(c.params, tol)
                lo, hi = _key_interval_from_pair(l1, l2, key, alpha)
            else:
                lo, hi = _tree_key_interval(Tree(n, c.edges), key, alpha, tol)
            out.append(Candidate(c.code, c.edges, lo, hi, c.params))
        return out

    def survivors(cands):
        if maximize:
            bar = max(c.lo for c in cands)
            return [c for c in cands if c.hi >= bar]
        bar = min(c.hi for c in cands)
        return [c for c in cands if c.lo <= bar]

    latest = {c.code: c for c in pool}
    pool = survivors(pool)
    for tol in _TOL_SCHEDULE:
        if len(pool) == 1:
            break
        pool = refine(pool, tol)
        for c in pool:
            latest[c.code] = c
        pool = survivors(pool)
    pool = refine(pool, final_tol)
    winners = tuple(sorted(pool, key=lambda c: c.code))
    resolved = len(winners) == 1
    tie_proven = False
    if not resolved:
        tie_proven = _tie_proven_exact(winners)
        resolved = tie_proven

    winner_codes = {w.code for w in winners}
    others = [c for c in latest.values() if c.code not in winner_codes]
    runner_up_gap = None
    if maximize:
        bound = max([c.hi for c in others] + [discard_bound])
        if math.isfinite(bound):
            runner_up_gap = min(w.lo for w in winners) - bound
    else:
        bound = min([c.lo for c in others] + [discard_bound])
        if math.isfinite(bound):
            runner_up_gap = bound - max(w.hi for w in winners)
    return ExtremalResult(
        n=n,
        key=key,
        objective=objective,
        family=family,
        alpha=alpha if key == "psi" else None,
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

    @property
    def breakpoints(self):
        pts = [self.segments[0].alpha_lo]
        pts.extend(s.alpha_hi for s in self.segments)
        return tuple(pts)

    def value(self, alpha: float) -> float:
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
        for s in self.segments:
            if alpha <= s.alpha_hi:
                return s.value(alpha)
        return self.segments[-1].value(alpha)

    def scaled(self, factor: float) -> "PiecewiseLinear":
        segs = tuple(
            Segment(s.alpha_lo, s.alpha_hi, s.lam1 * factor, s.lam2 * factor, s.witness_code)
            for s in self.segments
        )
        return PiecewiseLinear(self.n, self.family, segs, self.scale * factor)


def _envelope_lines(n: int, family: str, tol: float):
    """(lam1, lam2, witness) per line, deduplicated at 1e-12 resolution.

    The witness names the smallest canonical code among the trees on the
    line; see _free_tree_lines for the free-tree form.
    """
    if family == "all":
        if n > MAX_EXHAUSTIVE_ORDER:
            raise ValueError(f"family='all' supports n <= {MAX_EXHAUSTIVE_ORDER}")
        return _free_tree_lines(n, tol)
    if family != "dc":
        raise ValueError(f"unknown family {family!r}")
    lines = {}
    for p in double_comet_params(n):
        t = make_double_comet(p)
        l1iv, l2iv = _dc_pair_interval(p, tol)
        l1, l2 = 0.5 * (l1iv[0] + l1iv[1]), 0.5 * (l2iv[0] + l2iv[1])
        code = canonical_code(t).decode()
        key = (round(l1, 12), round(l2, 12))
        if key not in lines or code < lines[key][2]:
            lines[key] = (l1, l2, code)
    return list(lines.values())


def _free_tree_lines(n: int, tol: float):
    """Lines of every free tree, from batched top_two over streamed chunks.

    While all trees on a line share its exact floats, the witness is the
    list of their level sequences (as bytes), coded only if the line
    reaches the hull; trees that round together with different floats are
    coded at once, and the smallest code brings its floats.
    """
    lines = {}
    for levels in free_tree_level_chunks(n):
        l1_lo, l1_hi, l2_lo, l2_hi = TreeBatch(levels).top_two(tol)
        mids = zip((0.5 * (l1_lo + l1_hi)).tolist(), (0.5 * (l2_lo + l2_hi)).tolist())
        for row, (l1, l2) in enumerate(mids):
            key = (round(l1, 12), round(l2, 12))
            seq = levels[row].tobytes()
            cur = lines.get(key)
            if cur is None:
                lines[key] = (l1, l2, [seq])
            elif isinstance(cur[2], list) and (l1, l2) == cur[:2]:
                cur[2].append(seq)
            else:
                code = _witness_code(n, [seq])
                cur_code = _witness_code(n, cur[2])
                lines[key] = (l1, l2, code) if code < cur_code else (cur[0], cur[1], cur_code)
    return list(lines.values())


def _witness_code(n: int, witness) -> str:
    """A line's witness: its code, or the smallest code of its level sequences."""
    if isinstance(witness, str):
        return witness
    return min(_edges_code(n, _level_seq_edges(list(seq))) for seq in witness)


def envelope(n: int, family: str = "all", tol: float = 1e-12) -> PiecewiseLinear:
    """Exact upper envelope of the family's lines over alpha in [0, 1]."""
    lines = _envelope_lines(n, family, tol)
    # sort by slope; among equal slopes only the largest intercept can matter
    lines.sort(key=lambda r: (r[0] - r[1], r[1]))
    by_slope = {}
    for l1, l2, witness in lines:
        slope = round(l1 - l2, 12)
        cur = by_slope.get(slope)
        if cur is None or l2 > cur[1] + 1e-15:
            by_slope[slope] = (l1, l2, witness)
    ordered = [by_slope[s] for s in sorted(by_slope)]

    def isect(a, b):
        # alpha where line a and line b cross
        return (b[1] - a[1]) / ((a[0] - a[1]) - (b[0] - b[1]))

    hull = []
    for line in ordered:
        while hull:
            if len(hull) == 1:
                if abs((hull[0][0] - hull[0][1]) - (line[0] - line[1])) < 1e-15:
                    hull.pop()
                    continue
                break
            if isect(line, hull[-2]) <= isect(hull[-1], hull[-2]):
                hull.pop()
            else:
                break
        hull.append(line)
    # breakpoints between consecutive hull lines, clipped to [0, 1]
    cuts = [-math.inf]
    for i in range(1, len(hull)):
        cuts.append(isect(hull[i], hull[i - 1]))
    cuts.append(math.inf)
    segments = []
    for i, (l1, l2, witness) in enumerate(hull):
        a_lo, a_hi = max(0.0, cuts[i]), min(1.0, cuts[i + 1])
        if a_lo < a_hi or (a_lo == a_hi and not segments and a_hi == 1.0):
            segments.append(Segment(a_lo, a_hi, l1, l2, _witness_code(n, witness)))
    if segments:
        first = segments[0]
        segments[0] = Segment(0.0, first.alpha_hi, first.lam1, first.lam2, first.witness_code)
        last = segments[-1]
        segments[-1] = Segment(last.alpha_lo, 1.0, last.lam1, last.lam2, last.witness_code)
    return PiecewiseLinear(n, family, tuple(segments))


def normalized_envelope(n: int, family: str = "all", tol: float = 1e-12) -> PiecewiseLinear:
    """Envelope scaled by 1/sqrt(n-1); its range sits inside [0, 1] for n >= 3.

    (The 2-vertex tree alone has a negative second eigenvalue, so its
    normalized line starts below zero.)
    """
    return envelope(n, family, tol).scaled(1.0 / math.sqrt(n - 1))


def limit_curve(alpha: float) -> float:
    """Pointwise large-n limit of the normalized envelope."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
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
        if not 0.5 < alpha < 1.0:
            raise ValueError(f"tuned comets need 1/2 < alpha < 1, got {alpha}")
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
    ap = AsymptoticParams.from_alpha(alpha)
    k1 = math.ceil(ap.t * (n - 3))
    if k1 > n - 3:
        raise ValueError(f"n={n} too small for alpha={alpha}")
    return DoubleCometParams(k1, (n - 3) - k1, 3)


def tuned_dc2_params(n: int, alpha: float) -> DoubleCometParams:
    """The order-2 comet one leaf heavier on the big side."""
    ap = AsymptoticParams.from_alpha(alpha)
    k1 = math.ceil(ap.t * (n - 3))
    if k1 + 1 > n - 2:
        raise ValueError(f"n={n} too small for alpha={alpha}")
    return DoubleCometParams(k1 + 1, (n - 3) - k1, 2)


def expansion_dc3(n: int, alpha: float) -> float:
    """Two-term asymptotic value of the tuned order-3 comet's objective."""
    ap = AsymptoticParams.from_alpha(alpha)
    a2b2 = alpha * alpha + (1.0 - alpha) * (1.0 - alpha)
    return math.sqrt(a2b2 * (n - 1)) + ap.q * ap.d(n) / (8.0 * (n - 1) ** 1.5)


def expansion_dc2(n: int, alpha: float) -> float:
    """Two-term asymptotic value of the tuned order-2 comet's objective."""
    ap = AsymptoticParams.from_alpha(alpha)
    a2b2 = alpha * alpha + (1.0 - alpha) * (1.0 - alpha)
    extra = ap.t / (2.0 * ap.t - 1.0) + ap.d(n)
    return math.sqrt(a2b2 * (n - 1)) + ap.q * extra / (8.0 * (n - 1) ** 1.5)


def exact_psi_dc(params: DoubleCometParams, alpha: float) -> float:
    """Closed-form objective value for comets of path order 2 or 3."""
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
    ap = AsymptoticParams.from_alpha(alpha)
    s = alpha * alpha + (1.0 - alpha) * (1.0 - alpha)
    t = ap.t
    d = ap.d(n)
    base = d + t / (2.0 * t - 1.0)
    # next-order offset from expanding sqrt((n-1)^2 - 4 k1 k2) one step further
    k1 = t * (n - 1) + d
    k2 = (1.0 - t) * (n - 1) - 1.0 - d
    c = (n - 1.0) ** 2 - 4.0 * k1 * k2 - ((2.0 * t - 1.0) * (n - 1)) ** 2
    x = c / (2.0 * ((2.0 * t - 1.0) * (n - 1)) ** 1) / 2.0 - (c * c) / (8.0 * ((2.0 * t - 1.0) * (n - 1)) ** 3) / 2.0
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
    (even n, threshold (sqrt(5)-1)/(2 sqrt(5))) should win.
    """
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
    balanced = set()
    for k in range(0, (n - 1) // 2 + 1):
        ell = n - 2 * k
        if ell >= 1:
            balanced.add(canonical_code(make_double_comet(DoubleCometParams(k, k, ell))).decode())
    all_balanced = all(w.code in balanced for w in res.winners)
    mx = search_extremal(n, alpha=None, objective="max", family=family, key="gap", jobs=jobs)
    star_wins = mx.winner_codes == (canonical_code(make_star(n)).decode(),)
    return GapReport(res, all_balanced, star_wins)
