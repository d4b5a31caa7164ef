"""Eigenvalue-monotone tree operations, each carrying its contract data.

Every operation returns a TransformOutcome with the input tree and the
result tree. All but ``rotate`` also carry both trees' top-two enclosures,
certified at ``spectra.TOL``, so property suites can check the contracted
inequality directly (a rotation's contract is checked through ``psi``):

* neighbor rewiring from u to v strictly raises lam1 when u keeps a
  neighbor outside N(v),
* the alpha-weighted rotation raises alpha*lam1 + (1-alpha)*lam2 whenever
  the eigenvector gain expression is positive (alpha >= 1/2),
* contracting an edge of an internal path never lowers lam1, strictly
  unless lam1 = 2,
* moving one vertex from the shorter to the longer of two pendant paths at
  a vertex strictly lowers lam1 (for leg orders k >= l >= 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .spectra import TOL, eigenvector, top_two
from .trees import Tree, _integer, _real


@dataclass(frozen=True)
class TransformOutcome:
    """Before/after pair with the contract-relevant certified quantities."""

    op: str
    before: Tree
    after: Tree
    quantities: dict = field(compare=False)
    certificates: dict = field(compare=False, default_factory=dict)
    strict_expected: bool = False


def _certify(before: Tree, after: Tree):
    tb = top_two(before, TOL)
    ta = top_two(after, TOL)
    quantities = {
        "lam1_before": tb.lam1,
        "lam1_after": ta.lam1,
        "lam2_before": tb.lam2,
        "lam2_after": ta.lam2,
    }
    return quantities, {"before": tb, "after": ta}


def kelmans(t: Tree, u: int, v: int) -> TransformOutcome:
    """Rewire every neighbor of u that is not adjacent to v over to v.

    On a tree this is only tree-preserving when u and v are at distance at
    most 2 (further apart, u would be disconnected and a cycle closed), so
    larger distances are rejected. The rewiring always executes;
    ``strict_expected`` reports whether a strict lam1 increase is
    contracted, which requires the private neighborhoods N(u)\\{v} and
    N(v)\\{u} to be incomparable: if u has nothing private the operation is
    a no-op, and if v has nothing private it merely swaps the roles of u
    and v, giving an isomorphic tree with unchanged lam1 (so the one-sided
    condition alone does not force strictness).
    """
    t.check_vertices(u, v)
    if u == v:
        raise ValueError(f"need two distinct vertices, got ({u}, {v})")
    nu = set(t.adjacency[u]) - {v}
    nv = set(t.adjacency[v]) - {u}
    if not (v in t.adjacency[u] or nu & nv):
        raise ValueError("rewiring from u to v leaves the tree class when d(u, v) > 2")
    moved = [a for a in t.adjacency[u] if a != v and a not in nv]
    edges = []
    for a, b in t.edges():
        if a == u and b in moved or b == u and a in moved:
            edges.append((v, a if b == u else b))
        else:
            edges.append((a, b))
    after = Tree(t.n, edges)
    quantities, certs = _certify(t, after)
    strict = (not nu <= nv) and (not nv <= nu)
    return TransformOutcome("kelmans", t, after, quantities, certs, strict_expected=strict)


def rotate(t: Tree, u: int, v: int, w: int) -> TransformOutcome:
    """Replace the edge vw by uw; requires u~v, v~w and u != w."""
    t.check_vertices(u, v, w)
    if u == w:
        raise ValueError("rotation endpoints must differ")
    if v not in t.adjacency[u] or w not in t.adjacency[v]:
        raise ValueError(f"rotation needs edges ({u},{v}) and ({v},{w})")
    edges = [(a, b) for a, b in t.edges() if {a, b} != {v, w}]
    edges.append((u, w))
    after = Tree(t.n, edges)
    return TransformOutcome("rotate", t, after, {}, {})


def rotation_gain(t: Tree, alpha: float, u: int, v: int, w: int) -> float:
    """Gain expression alpha*x_w*(x_u - x_v) + (1-alpha)*y_w*(y_u - y_v).

    x is the unit Perron vector, y the unit second eigenvector (simple lam2
    required). A gain above the working margin implies the rotation
    T - vw + uw strictly increases alpha*lam1 + (1-alpha)*lam2 for
    alpha >= 1/2; y enters through a product of two entries, so its sign
    convention does not matter.
    """
    alpha = _real("alpha", alpha, 0.5, 1.0)
    t.check_vertices(u, v, w)
    if u == w or v not in t.adjacency[u] or w not in t.adjacency[v]:
        raise ValueError("rotation adjacency preconditions violated")
    x = eigenvector(t, 1).entries
    y = eigenvector(t, 2).entries
    return alpha * x[w] * (x[u] - x[v]) + (1.0 - alpha) * y[w] * (y[u] - y[v])


ROTATION_GAIN_MARGIN = 1e-6


def _internal_path_reaches_branch(t: Tree, start: int, avoid: int) -> bool:
    """Walk from start away from avoid through degree-2 vertices; True if a
    vertex of degree >= 3 ends the walk (a leaf means no internal path)."""
    prev, cur = avoid, start
    while True:
        d = t.degree(cur)
        if d >= 3:
            return True
        if d == 1:
            return False
        nxt = next(x for x in t.adjacency[cur] if x != prev)
        prev, cur = cur, nxt


def contract_internal_edge(t: Tree, u: int, v: int) -> TransformOutcome:
    """Contract the edge uv of an internal path (ends of degree >= 3).

    The neighbors of u other than v are moved to v and u is deleted, giving
    a tree of order n-1 whose lam1 is no smaller; strictness fails exactly
    at lam1 = 2.
    """
    t.check_vertices(u, v)
    if v not in t.adjacency[u]:
        raise ValueError(f"({u}, {v}) is not an edge")
    if not (_internal_path_reaches_branch(t, u, v) and _internal_path_reaches_branch(t, v, u)):
        raise ValueError(f"edge ({u}, {v}) does not lie on an internal path")
    relabeled = {x: (x if x < u else x - 1) for x in range(t.n) if x != u}
    edges = []
    for a, b in t.edges():
        if u in (a, b):
            other = b if a == u else a
            if other != v:
                edges.append((relabeled[other], relabeled[v]))
        else:
            edges.append((relabeled[a], relabeled[b]))
    after = Tree(t.n - 1, edges)
    quantities, certs = _certify(t, after)
    strict = abs(quantities["lam1_before"] - 2.0) > 1e-6
    return TransformOutcome("contract-internal-edge", t, after, quantities, certs, strict_expected=strict)


def _pendant_paths(t: Tree, root: int):
    """Pendant paths hanging at root: lists of vertices from root outward."""
    out = []
    for a in t.adjacency[root]:
        path = [a]
        prev, cur = root, a
        while t.degree(cur) == 2:
            cur, prev = next(x for x in t.adjacency[cur] if x != prev), cur
            path.append(cur)
        if t.degree(cur) == 1:
            out.append(path)
    return out


def hanging_path_shift(t: Tree, root: int, k: int, ell: int) -> TransformOutcome:
    """Move one vertex from an order-l pendant path at root to an order-k one.

    Requires pendant paths of orders k and l at root with k >= l >= 1. The
    result hangs paths of orders k+1 and l-1 instead, and lam1 strictly
    decreases unless the two trees are isomorphic (pure paths).
    """
    k = _integer("k", k, _integer("ell", ell, 1))
    t.check_vertices(root)
    paths = _pendant_paths(t, root)
    k_path = next((p for p in paths if len(p) == k), None)
    ell_path = next((p for p in paths if len(p) == ell and p is not k_path), None)
    if k_path is None or ell_path is None:
        raise ValueError(f"no pendant path pair of orders ({k}, {ell}) at vertex {root}")
    tip = ell_path[-1]
    anchor = ell_path[-2] if len(ell_path) >= 2 else root
    edges = [(a, b) for a, b in t.edges() if {a, b} != {tip, anchor}]
    edges.append((tip, k_path[-1]))
    after = Tree(t.n, edges)
    quantities, certs = _certify(t, after)
    return TransformOutcome("hanging-path-shift", t, after, quantities, certs, strict_expected=True)
