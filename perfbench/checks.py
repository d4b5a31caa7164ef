"""Answer checks against the independent references, run after timing.

Each check returns a list of failure messages; an empty list is a pass.
Pads are stated in ``reference.PAD``.
"""

from __future__ import annotations

import numpy as np

import reference as R
from reference import PAD


class Oracle:
    """Dense top-two eigenvalues of every free tree of an order, built once."""

    def __init__(self):
        self._cache = {}

    def __call__(self, n: int):
        if n not in self._cache:
            parents = R.free_tree_parents(n)
            self._cache[n] = (parents, *R.family_top_two(n, parents))
        return self._cache[n]


def check(task, record, oracle: Oracle):
    if task.kind == "search":
        if task.args[-1] == "dc":
            return _check_comet_search(task.args, record)
        return _check_search(task.args, record, oracle)
    if task.kind == "envelope":
        return _check_envelope(task.args, record, oracle)
    return _check_large(task.args, record)


# -- searches ---------------------------------------------------------------------


def _expected_shape(n: int, key: str, objective: str):
    """Edges of the maximizer/minimizer the paper states, where it states one."""
    if (key, objective) == ("sum", "min"):
        return [(0, i) for i in range(1, n)] if n <= 15 else R.path_edges(n)
    if (key, objective) == ("lam1", "min"):
        return R.path_edges(n)
    if (key, objective) == ("sum", "max"):
        return R.comet_edges((n - 3) // 2, n - 3 - (n - 3) // 2, 3)
    if (key, objective) == ("lam2", "max") and n % 2 == 0:
        return R.comet_edges((n - 4) // 2, (n - 4) // 2, 4)
    return None


def _winner_checks(n, key, alpha, winners, fails):
    """Enclosures against eigvalsh; codes against edges. Returns reference values."""
    refs = []
    for code, edges, lo, hi in winners:
        ref = float(R.key_values(key, alpha, *R.top_two(n, edges)))
        refs.append(ref)
        if not lo - PAD <= ref <= hi + PAD:
            fails.append(f"winner enclosure [{lo!r}, {hi!r}] misses eigvalsh value {ref!r}")
        if R.iso_key(*R.decode_code(code)) != R.iso_key(n, edges):
            fails.append(f"winner code {code[:24]}... does not encode its edges")
    return refs


def _check_search(args, record, oracle):
    n, key, objective, alpha, _family = args
    scanned, resolved, gap, winners = record
    fails = []
    if scanned != R.FREE_TREE_COUNTS[n]:
        fails.append(f"scanned {scanned} trees, order {n} has {R.FREE_TREE_COUNTS[n]}")
    parents, l1, l2 = oracle(n)
    values = R.key_values(key, alpha, l1, l2)
    maximize = objective == "max"
    best = float(values.max() if maximize else values.min())
    refs = _winner_checks(n, key, alpha, winners, fails)
    for ref in refs:
        if abs(ref - best) > PAD:
            fails.append(f"winner value {ref!r} is not the optimum {best!r}")
    if gap is not None:
        if gap < 0:
            fails.append(f"runner_up_gap {gap!r} < 0")
        # every tree closer to the optimum than the certified gap must be a winner
        if maximize:
            contenders = np.nonzero(values > min(w[2] for w in winners) - gap + PAD)[0]
        else:
            contenders = np.nonzero(values < max(w[3] for w in winners) + gap - PAD)[0]
        keys = {R.iso_key(n, w[1]) for w in winners}
        for i in contenders:
            p = parents[i]
            if R.iso_key(n, [(v, p[v]) for v in range(1, n)]) not in keys:
                fails.append(f"a non-winner lies within the certified gap {gap!r}")
                break
    shape = _expected_shape(n, key, objective)
    if shape is not None:
        want = R.iso_key(n, shape)
        if not resolved or [R.iso_key(n, w[1]) for w in winners] != [want]:
            fails.append(f"{objective} {key} at n={n} is not the paper's unique shape")
    return fails


def _check_comet_search(args, record):
    n, key, objective, alpha, _family = args
    scanned, _resolved, gap, winners = record
    fails = []
    if scanned != len(R.comet_family(n)):
        fails.append(f"scanned {scanned} comets, order {n} has {len(R.comet_family(n))}")
    if gap is not None and gap < 0:
        fails.append(f"runner_up_gap {gap!r} < 0")
    refs = _winner_checks(n, key, alpha, winners, fails)
    for _code, edges, _lo, _hi in winners:
        if not _is_double_comet(n, edges):
            fails.append("winner is not a double comet")
    lines = np.array([row[3:] for row in R.short_comet_lines(n)])
    best_short = float(R.key_values(key, alpha, lines[:, 0], lines[:, 1]).max())
    if refs and min(refs) < best_short - PAD:
        fails.append(f"winner value {min(refs)!r} is below a short comet's {best_short!r}")
    return fails


def _is_double_comet(n: int, edges) -> bool:
    """Non-leaves induce a path and leaves hang only on its two ends."""
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    inner = [0] * n
    for u, v in edges:
        if degree[u] > 1 and degree[v] > 1:
            inner[u] += 1
            inner[v] += 1
    spine = [v for v in range(n) if degree[v] > 1]
    if len(spine) <= 1:
        return True
    if max(inner[v] for v in spine) > 2:
        return False
    # a spine vertex with two spine neighbours is interior: it may hold no leaf
    return all(degree[v] == 2 for v in spine if inner[v] == 2)


def _is_tree(n: int, edges) -> bool:
    if len(edges) != n - 1:
        return False
    adj = R.adjacency_lists(n, edges)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


# -- envelopes ----------------------------------------------------------------------


def _envelope_value(segs, alpha):
    for alo, ahi, l1, l2, _code in segs:
        if alpha <= ahi:
            return l2 + alpha * (l1 - l2)
    return segs[-1][3] + alpha * (segs[-1][2] - segs[-1][3])


def _check_envelope(args, segs, oracle):
    n, family = args
    fails = []
    if not segs or segs[0][0] != 0.0 or segs[-1][1] != 1.0:
        fails.append("segments do not start at 0 and end at 1")
    for a, b in zip(segs, segs[1:]):
        if a[1] != b[0]:
            fails.append(f"segments leave a gap or overlap at {a[1]!r}")
    for alo, ahi, l1, l2, code in segs:
        if alo > ahi:
            fails.append(f"empty segment [{alo!r}, {ahi!r}]")
        m, edges = R.decode_code(code)
        ref1, ref2 = R.top_two(m, edges)
        if m != n or abs(ref1 - l1) > PAD or abs(ref2 - l2) > PAD:
            fails.append(f"witness line ({l1!r}, {l2!r}) is not eigvalsh's ({ref1!r}, {ref2!r})")
        if family == "dc" and not _is_double_comet(m, edges):
            fails.append("witness is not a double comet")
    alphas = sorted({0.0, 1.0, *np.linspace(0.0, 1.0, 201).tolist(), *(s[1] for s in segs)})
    env = np.array([_envelope_value(segs, a) for a in alphas])
    grid = np.array(alphas)[:, None]
    if family == "all":
        _, l1, l2 = oracle(n)
        exact = True
    elif n <= 30:
        fam = [R.top_two(n, R.comet_edges(*p)) for p in R.comet_family(n)]
        l1, l2 = np.array(fam).T
        exact = True
    else:
        l1, l2 = np.array([row[3:] for row in R.short_comet_lines(n)]).T
        exact = False
    tops = (grid * l1 + (1.0 - grid) * l2).max(axis=1)
    if np.any(env < tops - PAD):
        fails.append("a family line rises above the envelope")
    if exact and np.any(env > tops + PAD):
        fails.append("the envelope rises above every family line")
    if family == "dc" and n == 26:
        lines = [(s[2], s[3]) for s in segs]
        for e1, e2 in R.FIGURE3_PAIRS:
            if min(max(abs(l1 - e1), abs(l2 - e2)) for l1, l2 in lines) > 1e-9:
                fails.append(f"figure-3 line ({e1}, {e2}) is missing")
    return fails


# -- large trees ----------------------------------------------------------------------


def _check_large(args, record):
    n, edges, u, v = args
    (a1, b1, a2, b2), (value, entries), (after, before_mid, after_mid, certs) = record
    fails = []
    adj = R.adjacency(n, edges)
    w = np.linalg.eigvalsh(adj)
    ref1, ref2 = float(w[-1]), float(w[-2])
    if not (a1 - PAD <= ref1 <= b1 + PAD and a2 - PAD <= ref2 <= b2 + PAD):
        fails.append(f"top_two enclosures miss eigvalsh ({ref1!r}, {ref2!r})")
    z = np.array(entries)
    if abs(value - ref1) > 1e-9 or abs(np.linalg.norm(z) - 1.0) > 1e-9:
        fails.append(f"Perron pair value {value!r} vs eigvalsh {ref1!r}")
    if np.abs(adj @ z - ref1 * z).max() > 1e-8 or z.min() < -1e-9:
        fails.append("Perron vector has a large residual or a negative entry")
    if not _is_tree(n, after):
        fails.append("Kelmans result is not a tree of the same order")
    ref_after = R.lam1(n, after)
    (c1, d1), (c2, d2) = certs
    if not (c1 - PAD <= ref1 <= d1 + PAD and c2 - PAD <= ref_after <= d2 + PAD):
        fails.append("Kelmans certificates miss eigvalsh lam1")
    if ref_after < ref1 - PAD or after_mid < before_mid - PAD:
        fails.append(f"Kelmans lowered lam1: {ref1!r} -> {ref_after!r}")
    return fails
