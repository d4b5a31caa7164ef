"""Immutable simple trees with 0-based vertex ids.

A tree is stored as a tuple of sorted neighbor tuples. Construction always
validates the tree invariants (exactly n-1 edges, connected, no self-loops
or duplicate edges), so every Tree instance in the package is a genuine
tree. Instances are immutable, hashable and safe to share across workers.

Canonical form: the tree is rooted at its centroid (for bicentroidal trees
the two rooted halves are combined in sorted order) and encoded bottom-up
with sorted child codes. Two trees have equal codes iff they are
isomorphic, and the byte order of codes gives the deterministic total order
used for tie-breaking everywhere else. ``double_comet_code`` writes the same
code for a double comet from its parameters, without building the tree.

``_integer`` and ``_real`` are the package's one check of its count,
vertex-id and real arguments, and ``_items`` and ``_text`` of its
iterable and str ones: every module routes them through here.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass


class TreeError(ValueError):
    """Raised for inputs that do not describe a tree.

    The ``reason`` attribute is one of: "vertex-count", "vertex-range",
    "self-loop", "duplicate-edge", "cyclic", "disconnected".
    """

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


def _integer(name: str, value, least: int, most=math.inf, reason: str | None = None) -> int:
    """``value`` as a plain int with least <= value <= most.

    Anything else raises ValueError naming ``name``, or ``TreeError(reason)``
    when a reason is given. A bool is no integer, though it has ``__index__``;
    a float, a str or None has none.
    """
    if type(value) is int and least <= value <= most:
        return value
    try:
        index = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        index = None
    if index is not None and least <= index <= most:
        return index
    span = f"{least} <= {name} <= {most}" if most < math.inf else f"{name} >= {least}"
    message = f"need an integer {span}, got {name}={value!r}"
    if reason is None:
        raise ValueError(message)
    raise TreeError(reason, f"{reason.replace('-', ' ')}: {message}")


def _real(name: str, value, lo: float, hi: float) -> float:
    """``value`` as a float with lo <= value <= hi, or a ValueError naming ``name``.

    A bool, a str or None is no real, and NaN lies in no range, nor does an
    integer too large for a float.
    """
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:
            x = math.nan
        if lo <= x <= hi:
            return x
    raise ValueError(f"need a real {lo} <= {name} <= {hi}, not NaN, got {name}={value!r}")


def _items(name: str, value) -> list:
    """``value``'s items as a list, or a ValueError naming ``name`` when it is not iterable."""
    try:
        return list(value)
    except TypeError:
        raise ValueError(f"need an iterable {name}, got {name}={value!r}") from None


def _text(name: str, value) -> str:
    """``value`` itself when it is a str, else a ValueError naming ``name``."""
    if isinstance(value, str):
        return value
    raise ValueError(f"need a str {name}, got {name}={value!r}")


@dataclass(frozen=True)
class DoubleCometParams:
    """Leaf counts at the two ends of a path of order ``ell``.

    The tree has ``k1 + k2 + ell`` vertices: a path on ``ell`` vertices with
    ``k1`` pendant leaves on one terminal and ``k2`` on the other. ``ell=1``
    is allowed; both leaf sets then attach to the same vertex and the result
    is a star.
    """

    k1: int
    k2: int
    ell: int

    def __post_init__(self):
        # numpy integers are stored as ints, so n and every edge are plain ints too
        for name, least in (("k1", 0), ("k2", 0), ("ell", 1)):
            object.__setattr__(self, name, _integer(name, getattr(self, name), least, reason="vertex-count"))

    @property
    def n(self) -> int:
        return self.k1 + self.k2 + self.ell


class Tree:
    """An unrooted tree on vertices ``0..n-1``.

    ``adjacency[v]`` is the sorted tuple of neighbors of ``v``. The
    constructor validates the edge list in one union-find pass and raises
    :class:`TreeError` for anything that is not a tree, naming the first
    bad edge; the family constructors build the named shapes.

    Three caches fill on first use and live as long as the tree, which is
    immutable; pickling and equality ignore them:

    * ``_code``: ``canonical_code``;
    * ``_rooted``: ``spectra._rooted``, the elimination's postorder and parent slots;
    * ``_top_two``: ``spectra.top_two`` at ``TOL``, the tree's certificate.
    """

    __slots__ = ("n", "adjacency", "_code", "_rooted", "_top_two")

    def __init__(self, n: int, edges):
        n = _integer("n", n, 1, reason="vertex-count")
        # union-find over the edges in order, its find inlined (path halving): a failed merge is a
        # duplicate when the edge is already kept and closes a cycle otherwise; n-1 merges connect
        parent = list(range(n))
        adj = [[] for _ in range(n)]
        try:
            for u, v in edges:
                # a vertex that is not a plain int in range is checked, and stored as a plain int
                if not (type(u) is int and 0 <= u < n):
                    u = _integer("vertex", u, 0, n - 1, "vertex-range")
                if not (type(v) is int and 0 <= v < n):
                    v = _integer("vertex", v, 0, n - 1, "vertex-range")
                if u == v:
                    raise TreeError("self-loop", f"self-loop at vertex {u}")
                ru, rv = u, v
                while parent[ru] != ru:
                    parent[ru] = ru = parent[parent[ru]]
                while parent[rv] != rv:
                    parent[rv] = rv = parent[parent[rv]]
                if ru == rv:
                    lo, hi = (u, v) if u < v else (v, u)
                    if v in adj[u]:
                        raise TreeError("duplicate-edge", f"duplicate edge ({lo}, {hi})")
                    raise TreeError("cyclic", f"edge ({lo}, {hi}) closes a cycle")
                parent[ru] = rv
                adj[u].append(v)
                adj[v].append(u)
        except TreeError:
            raise
        except (TypeError, ValueError):  # an edge that is not a pair, or a vertex that is not an integer
            raise TreeError("vertex-range", f"edges must be pairs of integer vertex ids for n={n}") from None
        kept = sum(map(len, adj)) // 2
        if kept < n - 1:
            raise TreeError("disconnected", f"{kept} edges cannot connect {n} vertices")
        self.n = n
        self.adjacency = tuple(tuple(sorted(a)) for a in adj)
        self._code = None
        self._rooted = None
        self._top_two = None

    # -- basic queries ---------------------------------------------------

    def neighbors(self, v: int):
        self.check_vertices(v)
        return self.adjacency[v]

    def check_vertices(self, *vs):
        """Raise TreeError("vertex-range") unless every argument is a vertex id."""
        for v in vs:
            _integer("vertex", v, 0, self.n - 1, "vertex-range")

    def degree(self, v: int) -> int:
        self.check_vertices(v)
        return len(self.adjacency[v])

    def max_degree(self) -> int:
        return max(len(a) for a in self.adjacency)

    def degree_sequence(self):
        """Degrees sorted descending."""
        return tuple(sorted((len(a) for a in self.adjacency), reverse=True))

    def edges(self):
        """All edges as (u, v) with u < v, in sorted order."""
        out = []
        for u, nbrs in enumerate(self.adjacency):
            for v in nbrs:
                if u < v:
                    out.append((u, v))
        return out

    def distance(self, u: int, v: int) -> int:
        """Number of edges on the unique u-v path: v's parents up to u."""
        self.check_vertices(u, v)
        parent = _bfs(self.adjacency, u)[1]
        d = 0
        while v != u:
            v = parent[v]
            d += 1
        return d

    # -- identity --------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Tree) and self.n == other.n and self.adjacency == other.adjacency

    def __hash__(self):
        return hash((self.n, self.adjacency))

    def __repr__(self):
        return f"Tree(n={self.n}, edges={self.edges()})"

    def __reduce__(self):
        return (Tree, (self.n, self.edges()))


# -- named families ------------------------------------------------------


def make_path(n: int) -> Tree:
    """Path v0 - v1 - ... - v(n-1); n = 1 is the single vertex."""
    n = _integer("n", n, 1, reason="vertex-count")
    return Tree(n, [(i, i + 1) for i in range(n - 1)])


def make_star(n: int) -> Tree:
    """Star with center 0 adjacent to all of 1..n-1; needs n >= 2."""
    n = _integer("n", n, 2, reason="vertex-count")
    return Tree(n, [(0, i) for i in range(1, n)])


def make_double_comet(params: DoubleCometParams) -> Tree:
    """Path on ``ell`` vertices with k1 leaves at one end, k2 at the other.

    Vertices 0..ell-1 form the path; leaves follow. With ell = 1 both leaf
    sets attach to vertex 0 and the result is the star on k1+k2+1 vertices.
    """
    k1, k2, ell = params.k1, params.k2, params.ell
    edges = [(i, i + 1) for i in range(ell - 1)]
    t1, t2 = 0, ell - 1
    v = ell
    for _ in range(k1):
        edges.append((t1, v))
        v += 1
    for _ in range(k2):
        edges.append((t2, v))
        v += 1
    return Tree(k1 + k2 + ell, edges)


def relabel(t: Tree, perm) -> Tree:
    """Tree with vertex v renamed perm[v]; perm must be a permutation of 0..n-1."""
    perm = _items("perm", perm)
    t.check_vertices(*perm)
    if len(perm) != t.n or len(set(perm)) != t.n:
        raise TreeError("vertex-range", f"perm must be a permutation of 0..{t.n - 1}, got {perm!r}")
    return Tree(t.n, [(perm[u], perm[v]) for u, v in t.edges()])


# -- traversal and canonical form ------------------------------------------


def _bfs(adj, root: int, barrier: int = -1):
    """Breadth-first order of the vertices reached from ``root``, and each one's parent.

    ``adj`` must be a forest (a tree's adjacency, or an induced subgraph of
    one), so a vertex's one visited neighbour is its parent and the walk
    needs no visited set. ``parent[root]`` is ``barrier``, -1 or a neighbour
    of ``root`` that the walk never enters: the walk then covers the branch
    at ``root`` avoiding ``barrier``.
    """
    parent = {root: barrier}
    order = [root]
    for v in order:
        p = parent[v]
        for w in adj[v]:
            if w != p:
                parent[w] = v
                order.append(w)
    return order, parent


def centroids(t: Tree):
    """The one or two vertices minimizing the largest component of T - v."""
    n = t.n
    if n == 1:
        return (0,)
    order, parent = _bfs(t.adjacency, 0)
    size = [1] * n
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
    best = n + 1
    out = []
    for v in range(n):
        weight = n - size[v]
        for w in t.adjacency[v]:
            if w != parent[v]:
                weight = max(weight, size[w])
        if weight < best:
            best = weight
            out = [v]
        elif weight == best:
            out.append(v)
    return tuple(sorted(out))


def _encode_rooted(t: Tree, root: int, barrier: int) -> bytes:
    """AHU code of the subtree at ``root`` when the edge to ``barrier`` is cut."""
    order, parent = _bfs(t.adjacency, root, barrier)
    below = {v: [] for v in (barrier, *order)}  # the codes of each vertex's children
    for v in reversed(order):
        below[parent[v]].append(b"(" + b"".join(sorted(below[v])) + b")")
    return below[barrier][0]


def canonical_code(t: Tree) -> bytes:
    """Isomorphism-invariant key: equal codes iff isomorphic trees.

    Codes are printable ASCII (nested parentheses with a 1- or 2-centroid
    prefix), so they double as stable text identifiers in CLI output.
    """
    if t._code is not None:
        return t._code
    cs = centroids(t)
    if len(cs) == 1:
        code = b"1" + _encode_rooted(t, cs[0], -1)
    else:
        a, b = cs
        ra = _encode_rooted(t, a, b)
        rb = _encode_rooted(t, b, a)
        code = b"2" + (ra + rb if ra <= rb else rb + ra)
    t._code = code
    return code


def _comet_branch(j: int, k: int) -> bytes:
    """AHU code of a comet's branch: a path on ``j`` vertices with ``k`` leaves on its far end.

    With ``j = 0`` it is the ``k`` leaves' codes, which lie on the root itself.
    """
    return b"(" * j + b"()" * k + b")" * j


def double_comet_code(params: DoubleCometParams) -> bytes:
    """``canonical_code(make_double_comet(params))``, from the parameters alone.

    A component of T - v at path vertex i holds i + k1 or ell - 1 - i + k2
    vertices, or is a leaf, so the centroid or centroids lie on the path
    where those two sides balance; the edge of two centroids splits the
    order in halves. Every branch is a ``_comet_branch``. Children sort as
    in ``_encode_rooted``: a leaf's ``()`` after every code that opens
    ``((``, so the root's leaves come last.
    """
    k1, k2, ell = params.k1, params.k2, params.ell
    if params.n == 2:  # the one tree whose central edge ends in a leaf
        return b"2()()"
    s = ell - 1 + k2 - k1  # the right side minus the left at vertex i is s - 2i
    if s % 2 and 1 <= s <= 2 * ell - 3:  # the path edge (s // 2, s // 2 + 1) splits n in halves
        a = s // 2
        ra = b"(" + _comet_branch(a, k1) + b")"
        rb = b"(" + _comet_branch(ell - 2 - a, k2) + b")"
        return b"2" + (ra + rb if ra <= rb else rb + ra)
    c = min(max(s // 2, 0), ell - 1)
    sides = ((c, k1), (ell - 1 - c, k2))
    branches = sorted(_comet_branch(j, k) for j, k in sides if j)
    leaves = sum(k for j, k in sides if not j)
    return b"1(" + b"".join(branches) + b"()" * leaves + b")"


def _tree_from_code(code: str) -> Tree:
    """A tree that ``code`` describes, read as a ``canonical_code`` string; ValueError if malformed.

    A stack walk over the parentheses: each "(" is a new vertex, a child of
    the innermost open one. A "1" code holds one rooted tree, a "2" code two
    whose roots are then joined. The code need not be canonical: compare
    ``canonical_code`` of the result with it to check that.
    """
    roots = {"1": 1, "2": 2}.get(code[:1])
    edges, tops, open_ = [], [], []
    n = 0
    for ch in code[1:]:
        if ch == "(":
            if open_:
                edges.append((open_[-1], n))
            else:
                tops.append(n)
            open_.append(n)
            n += 1
        elif ch == ")" and open_:
            open_.pop()
        else:
            raise ValueError(f"unbalanced or foreign character {ch!r} in tree code {code!r}")
    if open_ or len(tops) != roots:
        raise ValueError(f"tree code {code!r} must be 1 or 2 followed by that many balanced rooted trees")
    if roots == 2:
        edges.append(tuple(tops))
    return Tree(n, edges)


# -- text formats ----------------------------------------------------------

# Tree text format: first line n, then n-1 lines "u v".


def tree_to_text(t: Tree) -> str:
    lines = [str(t.n)]
    lines.extend(f"{u} {v}" for u, v in t.edges())
    return "\n".join(lines) + "\n"


def _int_token(token: str, reason: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise TreeError(reason, f"{what} must be an integer, got {token!r}") from None


def tree_from_text(text: str) -> Tree:
    rows = [ln for ln in (s.strip() for s in _text("text", text).splitlines()) if ln]
    if not rows:
        raise TreeError("vertex-count", "empty tree text")
    try:
        n = int(rows[0])
    except ValueError:
        raise TreeError("vertex-count", f"first line must be the vertex count, got {rows[0]!r}") from None
    edges = []
    for ln in rows[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise TreeError("vertex-range", f"expected 'u v', got {ln!r}")
        edges.append(tuple(_int_token(p, "vertex-range", f"vertex in edge line {ln!r}") for p in parts))
    return Tree(n, edges)


def parse_tree_spec(spec: str) -> Tree:
    """Tree from a spec string: path:N, star:N, dc:K1,K2,L, or file:PATH."""
    kind, sep, rest = _text("spec", spec).partition(":")
    if not sep:
        raise TreeError("vertex-count", f"tree spec needs 'kind:args', got {spec!r}")
    if kind == "path":
        return make_path(_int_token(rest, "vertex-count", "path order"))
    if kind == "star":
        return make_star(_int_token(rest, "vertex-count", "star order"))
    if kind == "dc":
        parts = rest.split(",")
        if len(parts) != 3:
            raise TreeError("vertex-count", f"dc spec needs k1,k2,l, got {rest!r}")
        k1, k2, ell = (_int_token(p, "vertex-count", f"dc parameter in {rest!r}") for p in parts)
        return make_double_comet(DoubleCometParams(k1, k2, ell))
    if kind == "file":
        with open(rest, "r", encoding="utf-8") as fh:
            return tree_from_text(fh.read())
    raise TreeError("vertex-count", f"unknown tree spec kind {kind!r}")
