"""The benchmark's three workloads: seeded task lists and their execution.

A workload is a round of tasks drawn from the seed. The benchmark submits
one task, waits for the certified answer and submits the next (a closed
loop from one process, ``jobs=1``), and repeats the same round while its
time allows. Set-up draws only plain inputs (orders, alphas, edge lists,
vertex pairs); every ``Tree`` is built inside the timed call.

Each round has an odd number of tasks, so the median task latency is that
of one middle task however many rounds a run completes. The task order is
fixed: a task's speed depends on the heap the previous one left behind,
so a seeded order would add spread between seeds.

* exhaustive: searches over all free trees of order 16 and 17 and one
  all-tree envelope. Enumeration, Tree validation, canonical codes and the
  scalar inertia kernel with coarse early stops do nearly all the work.
* comet-envelope: comet-family envelopes at orders 26 and about 60 to 110,
  and comet-family psi searches at orders about 1000 and 1800. The
  weighted-path quotient, per-comet trees and codes, and the hull do the
  work; free-tree enumeration and the inertia probe never run.
* large-trees: random trees of order 200 to 3000, each taken through
  top_two at 1e-12, the Perron vector and one strict Kelmans rewiring. Few,
  long, full-precision probes; nothing is enumerated.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass

import reference

NAMES = ("exhaustive", "comet-envelope", "large-trees")


@dataclass(frozen=True)
class Task:
    kind: str  # "search", "envelope" or "large"
    args: tuple  # plain inputs, unpacked in run_task


def plan(workload: str, seed: int):
    """The round of tasks for a workload, drawn from the seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "exhaustive":
        # five keys at n = 16, psi at n = 17 (the costliest order), and the
        # unpruned use of the same layers: an envelope certifying every class
        tasks = [
            Task("search", (16, "sum", "max", None, "all")),
            Task("search", (16, "sum", "min", None, "all")),
            Task("search", (16, "lam2", "max", None, "all")),
            Task("search", (16, "lam1", "min", None, "all")),
            Task("search", (16, "gap", "min", None, "all")),
            Task("search", (17, "psi", "max", round(rng.random(), 6), "all")),
            Task("envelope", (15, "all")),
        ]
    elif workload == "comet-envelope":
        # envelope cost grows like n^3 and search cost like n^2, so orders
        # are jittered narrowly around fixed centres to keep the round's
        # cost, and which task is the median one, the same from seed to seed;
        # the round is kept near 8 s so a run repeats it three times
        tasks = [Task("envelope", (26, "dc"))]
        tasks += [Task("envelope", (c + rng.randint(-1, 1), "dc")) for c in (60, 85, 100, 110)]
        tasks += [
            Task("search", (c + rng.randint(-20, 20), "psi", "max", round(rng.random(), 6), "dc"))
            for c in (1000, 1800)
        ]
    elif workload == "large-trees":
        # one tree per stratum of orders, so the mix of sizes is the same
        # for every seed while the trees themselves are random
        tasks = []
        for c in range(200, 3001, 350):
            n = c + rng.randint(-25, 25)
            edges = prufer_tree(rng, n)
            tasks.append(Task("large", (n, tuple(edges), *kelmans_pair(rng, n, edges))))
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(NAMES)}")
    return tasks


def prufer_tree(rng: random.Random, n: int):
    """Uniform random labeled tree: decode a random Pruefer sequence."""
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for s in seq:
        degree[s] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for s in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, s))
        degree[s] -= 1
        if degree[s] == 1:
            heapq.heappush(leaves, s)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def kelmans_pair(rng: random.Random, n: int, edges):
    """(u, v) at distance <= 2 whose private neighbourhoods are incomparable.

    Rewiring u's private neighbours to v then strictly raises lam1.
    """
    adj = [set() for _ in range(n)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    while True:
        u = rng.randrange(n)
        near = sorted(adj[u] | {w for x in adj[u] for w in adj[x]} - {u})
        v = rng.choice(near)
        nu, nv = adj[u] - {v}, adj[v] - {u}
        if not nu <= nv and not nv <= nu:
            return u, v


def run_task(sp, task: Task):
    """One closed-loop call into the package; returns its raw answer."""
    if task.kind == "search":
        n, key, objective, alpha, family = task.args
        return sp.search_extremal(n, alpha=alpha, objective=objective, key=key, family=family, jobs=1)
    if task.kind == "envelope":
        n, family = task.args
        return sp.envelope(n, family)
    n, edges, u, v = task.args
    t = sp.Tree(n, edges)
    return sp.top_two(t, 1e-12), sp.eigenvector(t, 1), sp.kelmans(t, u, v)


def to_record(task: Task, raw):
    """Plain, comparable data of an answer (taken outside the timed call)."""
    if task.kind == "search":
        winners = tuple((w.code, tuple(w.edges), w.lo, w.hi) for w in raw.winners)
        return (raw.scanned, raw.resolved, raw.runner_up_gap, winners)
    if task.kind == "envelope":
        return tuple((s.alpha_lo, s.alpha_hi, s.lam1, s.lam2, s.witness_code) for s in raw.segments)
    tt, ev, kel = raw
    certs = tuple((c.lam1_lo, c.lam1_hi) for c in (kel.certificates["before"], kel.certificates["after"]))
    return (
        (tt.lam1_lo, tt.lam1_hi, tt.lam2_lo, tt.lam2_hi),
        (ev.value, ev.entries),
        (tuple(kel.after.edges()), kel.quantities["lam1_before"], kel.quantities["lam1_after"], certs),
    )


def decided(task: Task, record) -> int:
    """Family members (or trees) a task decided: its share of trees_per_s."""
    if task.kind == "search":
        return record[0]
    if task.kind == "envelope":
        n, family = task.args
        return reference.FREE_TREE_COUNTS[n] if family == "all" else len(reference.comet_family(n))
    return 1


def segments(task: Task, record) -> int:
    return len(record) if task.kind == "envelope" else 0


def warm_up(sp, workload: str):
    """Small calls down the workload's code paths before anything is timed."""
    if workload == "exhaustive":
        for key, objective, alpha in (("psi", "max", 0.5), ("sum", "min", None), ("gap", "min", None)):
            sp.search_extremal(9, alpha=alpha, objective=objective, key=key)
        sp.envelope(8, "all")
    elif workload == "comet-envelope":
        sp.envelope(20, "dc")
        sp.search_extremal(120, alpha=0.7, family="dc", key="psi")
    else:
        rng = random.Random(0)
        edges = prufer_tree(rng, 60)
        t = sp.Tree(60, edges)
        sp.top_two(t, 1e-12)
        sp.eigenvector(t, 1)
        sp.kelmans(t, *kelmans_pair(rng, 60, edges))
