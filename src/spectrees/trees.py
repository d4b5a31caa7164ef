"""Immutable simple trees with 0-based vertex ids.

A tree is stored as a tuple of sorted neighbor tuples. Construction always
validates the tree invariants (exactly n-1 edges, connected, no self-loops
or duplicate edges), so every Tree instance in the package is a genuine
tree. Instances are immutable, hashable and safe to share across workers.

Canonical form: the tree is rooted at its centroid (for bicentroidal trees
the two rooted halves are combined in sorted order) and encoded bottom-up
with sorted child codes. Two trees have equal codes iff they are
isomorphic, and the byte order of codes gives the deterministic total order
used for tie-breaking everywhere else.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass


class TreeError(ValueError):
    """Raised for inputs that do not describe a tree.

    The ``reason`` attribute is one of: "vertex-count", "vertex-range",
    "self-loop", "duplicate-edge", "cyclic", "disconnected".
    """

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


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
        if self.ell < 1:
            raise TreeError("vertex-count", f"path order must be >= 1, got {self.ell}")
        if self.k1 < 0 or self.k2 < 0:
            raise TreeError("vertex-count", f"leaf counts must be >= 0, got ({self.k1}, {self.k2})")

    @property
    def n(self) -> int:
        return self.k1 + self.k2 + self.ell


class Tree:
    """An unrooted tree on vertices ``0..n-1``.

    ``adjacency[v]`` is the sorted tuple of neighbors of ``v``. Use
    :func:`from_edge_list` or the family constructors rather than calling
    the constructor with hand-built edges, unless validation errors are
    wanted as control flow.
    """

    __slots__ = ("n", "adjacency", "_code", "_rooted")

    def __init__(self, n: int, edges):
        if not isinstance(n, int) or n < 1:
            raise TreeError("vertex-count", f"vertex count must be a positive integer, got {n!r}")
        seen = set()
        pairs = []
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise TreeError("vertex-range", f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise TreeError("self-loop", f"self-loop at vertex {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise TreeError("duplicate-edge", f"duplicate edge ({key[0]}, {key[1]})")
            seen.add(key)
            pairs.append(key)
        if len(pairs) > n - 1:
            raise TreeError("cyclic", f"{len(pairs)} edges on {n} vertices form a cycle")
        if len(pairs) < n - 1:
            raise TreeError("disconnected", f"{len(pairs)} edges cannot connect {n} vertices")
        # n-1 edges: union-find distinguishes a cycle (failed merge) from
        # plain disconnection, though with this edge count one implies the other.
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        adj = [[] for _ in range(n)]
        for u, v in pairs:
            ru, rv = find(u), find(v)
            if ru == rv:
                raise TreeError("cyclic", f"edge ({u}, {v}) closes a cycle")
            parent[ru] = rv
            adj[u].append(v)
            adj[v].append(u)
        self.n = n
        self.adjacency = tuple(tuple(sorted(a)) for a in adj)
        self._code = None
        self._rooted = None

    # -- basic queries ---------------------------------------------------

    def neighbors(self, v: int):
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise TreeError("vertex-range", f"vertex {v} out of range for n={self.n}")
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
        """Number of edges on the unique u-v path (breadth-first walk)."""
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise TreeError("vertex-range", f"vertex pair ({u}, {v}) out of range for n={self.n}")
        if u == v:
            return 0
        dist = {u: 0}
        queue = deque([u])
        while queue:
            w = queue.popleft()
            for x in self.adjacency[w]:
                if x not in dist:
                    dist[x] = dist[w] + 1
                    if x == v:
                        return dist[x]
                    queue.append(x)
        raise AssertionError("tree invariant violated: unreachable vertex")

    def leaves(self):
        return tuple(v for v in range(self.n) if len(self.adjacency[v]) == 1)

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
    if n < 1:
        raise TreeError("vertex-count", f"path needs n >= 1, got {n}")
    return Tree(n, [(i, i + 1) for i in range(n - 1)])


def make_star(n: int) -> Tree:
    """Star with center 0 adjacent to all of 1..n-1; needs n >= 2."""
    if n < 2:
        raise TreeError("vertex-count", f"star needs n >= 2, got {n}")
    return Tree(n, [(0, i) for i in range(1, n)])


def make_double_comet(params: DoubleCometParams) -> Tree:
    """Path on ``ell`` vertices with k1 leaves at one end, k2 at the other.

    Vertices 0..ell-1 form the path; leaves follow. With ell = 1 both leaf
    sets attach to vertex 0 and the result is the star on k1+k2+1 vertices.
    """
    k1, k2, ell = params.k1, params.k2, params.ell
    n = params.n
    if n < 1:
        raise TreeError("vertex-count", "empty double comet")
    edges = [(i, i + 1) for i in range(ell - 1)]
    t1, t2 = 0, ell - 1
    v = ell
    for _ in range(k1):
        edges.append((t1, v))
        v += 1
    for _ in range(k2):
        edges.append((t2, v))
        v += 1
    return Tree(n, edges)


def from_edge_list(n: int, edges) -> Tree:
    """Validated construction; see :class:`TreeError` for the failure modes."""
    return Tree(n, edges)


def relabel(t: Tree, perm) -> Tree:
    """Tree with vertex v renamed perm[v]; perm must be a permutation of 0..n-1."""
    return Tree(t.n, [(perm[u], perm[v]) for u, v in t.edges()])


# -- canonical form ------------------------------------------------------


def _subtree_sizes(t: Tree, root: int):
    """Vertices in children-before-parent order, parents, and subtree sizes."""
    n = t.n
    parent = [-1] * n
    order = [root]
    seen = [False] * n
    seen[root] = True
    for v in order:
        for w in t.adjacency[v]:
            if not seen[w]:
                seen[w] = True
                parent[w] = v
                order.append(w)
    size = [1] * n
    for v in reversed(order):
        p = parent[v]
        if p >= 0:
            size[p] += size[v]
    return order, parent, size


def centroids(t: Tree):
    """The one or two vertices minimizing the largest component of T - v."""
    n = t.n
    if n == 1:
        return (0,)
    order, parent, size = _subtree_sizes(t, 0)
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
    parent = {root: barrier}
    order = [root]
    for v in order:
        for w in t.adjacency[v]:
            if w != parent[v]:
                parent[w] = v
                order.append(w)
    code: dict[int, bytes] = {}
    children: dict[int, list] = {v: [] for v in order}
    for v in order[1:]:
        children[parent[v]].append(v)
    for v in reversed(order):
        code[v] = b"(" + b"".join(sorted(code[c] for c in children[v])) + b")"
    return code[root]


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
    rows = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
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
    kind, sep, rest = spec.partition(":")
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
