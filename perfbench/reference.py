"""Independent references for the benchmark's answer checks.

Nothing in this module calls spectrees. Free trees are generated here by
joining canonical rooted trees at the centroid, isomorphism classes are
compared by this module's own centroid-rooted encoding, and eigenvalues
come from ``numpy.linalg.eigvalsh`` on dense adjacency matrices.
"""

from __future__ import annotations

import math

import numpy as np

# eigvalsh is backward stable: its error on these 0/1 matrices is at most a
# small multiple of n * eps * ||A||_2, below 1e-10 for n <= 3000 and
# ||A||_2 <= sqrt(n - 1). The pad is ten times that.
PAD = 1e-9

# Number of free trees of order n (OEIS A000055).
FREE_TREE_COUNTS = {15: 7741, 16: 19320, 17: 48629}

# Paper, figure 3: the fifteen supporting (lam1, lam2) lines of the
# comet-family envelope at n = 26.
FIGURE3_PAIRS = (
    (5.0, 0.0),
    (4.903406609757669, 0.9780611531927870),
    (4.805705988739693, 1.380286184018175),
    (4.707080194548844, 1.686237243713357),
    (4.607832961196238, 1.941101594897472),
    (4.508462922244040, 2.161888544479279),
    (4.409787069091307, 2.356645498431000),
    (4.313151725579202, 2.529174211503263),
    (4.220790554667138, 2.680471431228596),
    (4.136396043495647, 2.808954925119582),
    (4.065849096332680, 2.910132492834429),
    (4.017468723542258, 2.976565983706685),
    (4.0, 3.0),
    (3.690262048791372, 3.373716942965149),
    (3.520892626084280, 3.431375296157698),
)


# -- trees ----------------------------------------------------------------------


def path_edges(n: int):
    return [(i, i + 1) for i in range(n - 1)]


def comet_edges(k1: int, k2: int, ell: int):
    """Path 0..ell-1 with k1 leaves on vertex 0 and k2 on vertex ell-1."""
    edges = path_edges(ell)
    v = ell
    for hub, k in ((0, k1), (ell - 1, k2)):
        for _ in range(k):
            edges.append((hub, v))
            v += 1
    return edges


def adjacency_lists(n: int, edges):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def iso_key(n: int, edges) -> str:
    """Isomorphism class key: centroid-rooted AHU encoding."""
    adj = adjacency_lists(n, edges)
    parent = [-1] * n
    order = [0]
    for v in order:
        for w in adj[v]:
            if w != parent[v]:
                parent[w] = v
                order.append(w)
    size = [1] * n
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
    heaviest = [max([n - size[v]] + [size[w] for w in adj[v] if w != parent[v]]) for v in range(n)]
    best = min(heaviest)
    centers = [v for v in range(n) if heaviest[v] == best]

    def encode(root, barrier):
        up = {root: barrier}
        seq = [root]
        for v in seq:
            for w in adj[v]:
                if w != up[v]:
                    up[w] = v
                    seq.append(w)
        code = {}
        for v in reversed(seq):
            code[v] = "(" + "".join(sorted(code[w] for w in adj[v] if w != up[v])) + ")"
        return code[root]

    if len(centers) == 1:
        return encode(centers[0], -1)
    a, b = centers
    return "=".join(sorted((encode(a, b), encode(b, a))))


def decode_code(code: str):
    """(n, edges) of a spectrees canonical code: '1' or '2' then nested parentheses.

    A '2' code holds the two halves of a bicentroidal tree; their roots are
    joined by an edge.
    """
    edges = []
    roots = []
    stack = []
    n = 0
    for ch in code[1:]:
        if ch == "(":
            if stack:
                edges.append((stack[-1], n))
            else:
                roots.append(n)
            stack.append(n)
            n += 1
        elif ch == ")":
            stack.pop()
        else:
            raise ValueError(f"unexpected character {ch!r} in code")
    if stack or len(roots) != int(code[0]):
        raise ValueError("malformed code")
    if len(roots) == 2:
        edges.append(tuple(roots))
    return n, edges


# -- free-tree generation ---------------------------------------------------------


def _rooted_catalog(max_size: int):
    """Every rooted tree of order <= max_size once, sorted by order.

    Entries are (order, parent list); vertex 0 is the root and parents
    precede children. A rooted tree is its root plus a multiset of rooted
    subtrees, so each class comes out exactly once.
    """
    catalog = [(1, (-1,))]
    for s in range(2, max_size + 1):
        for branches in _multisets(catalog, s - 1, len(catalog) - 1):
            catalog.append((s, _join(catalog, branches)))
    return catalog


def _multisets(catalog, total: int, hi: int):
    """Non-increasing index tuples into catalog whose orders sum to total."""
    if total == 0:
        yield ()
        return
    i = hi
    while catalog[i][0] > total:
        i -= 1
    for j in range(i, -1, -1):
        for rest in _multisets(catalog, total - catalog[j][0], j):
            yield (j,) + rest


def _join(catalog, branches):
    """Parent list of a new root with the given catalog entries as subtrees."""
    parents = [-1]
    for b in branches:
        offset = len(parents)
        parents.extend(0 if p < 0 else p + offset for p in catalog[b][1])
    return tuple(parents)


def free_tree_parents(n: int):
    """Parent lists of all free trees of order n >= 3, one per class.

    A free tree has one centroid, whose branches all have order <= (n-1)//2,
    or (n even) two adjacent centroids splitting it into halves of order n/2.
    """
    half = n // 2
    catalog = _rooted_catalog(half)
    small = [c for c in catalog if c[0] <= (n - 1) // 2]
    out = [_join(small, ms) for ms in _multisets(small, n - 1, len(small) - 1)]
    if n % 2 == 0:
        halves = [p for size, p in catalog if size == half]
        for i, a in enumerate(halves):
            for b in halves[i:]:
                out.append(a + tuple(0 if p < 0 else p + half for p in b))
    return out


# -- eigenvalues -------------------------------------------------------------------


def adjacency(n: int, edges) -> np.ndarray:
    a = np.zeros((n, n))
    for u, v in edges:
        a[u, v] = a[v, u] = 1.0
    return a


def top_two(n: int, edges):
    """(lam1, lam2) of the tree by dense eigvalsh."""
    w = np.linalg.eigvalsh(adjacency(n, edges))
    return float(w[-1]), float(w[-2])


def lam1(n: int, edges) -> float:
    return top_two(n, edges)[0]


def family_top_two(n: int, parent_lists, chunk: int = 4096):
    """Arrays (lam1, lam2) for many trees of order n given as parent lists."""
    parents = np.asarray(parent_lists, dtype=np.int64)
    l1 = np.empty(len(parents))
    l2 = np.empty(len(parents))
    child = np.arange(1, n)
    for s in range(0, len(parents), chunk):
        p = parents[s:s + chunk, 1:]
        rows = np.arange(len(p))[:, None]
        a = np.zeros((len(p), n, n))
        a[rows, child, p] = 1.0
        a[rows, p, child] = 1.0
        w = np.linalg.eigvalsh(a)
        l1[s:s + chunk] = w[:, -1]
        l2[s:s + chunk] = w[:, -2]
    return l1, l2


def key_values(key: str, alpha, l1, l2):
    if key == "psi":
        return alpha * l1 + (1.0 - alpha) * l2
    if key == "sum":
        return l1 + l2
    if key == "lam1":
        return l1
    if key == "lam2":
        return l2
    if key == "gap":
        return l1 - l2
    raise ValueError(f"unknown key {key!r}")


def short_comet_lines(n: int):
    """(k1, k2, ell, lam1, lam2) of every comet with path order 2 or 3.

    Closed forms from the quartic factor of the characteristic polynomial:
    x^4 - (n-1) x^2 + c with c = k1*k2 (ell = 2) or k1*k2 + k1 + k2 (ell = 3).
    """
    rows = []
    for ell in (2, 3):
        rest = n - ell
        for k2 in range(1, rest // 2 + 1):
            k1 = rest - k2
            c = k1 * k2 + (k1 + k2 if ell == 3 else 0)
            disc = math.sqrt((n - 1) ** 2 - 4 * c)
            rows.append((k1, k2, ell, math.sqrt((n - 1 + disc) / 2), math.sqrt(max(0.0, (n - 1 - disc) / 2))))
    return rows


def comet_family(n: int):
    """(k1, k2, ell) of every double comet of order n >= 4, one per class."""
    out = [(0, 0, n), (n - 1, 0, 1)]
    for ell in range(3, n - 1):
        out.append((n - ell, 0, ell))
    for ell in range(2, n - 3):
        rest = n - ell
        out.extend((rest - k2, k2, ell) for k2 in range(2, rest // 2 + 1))
    return out
