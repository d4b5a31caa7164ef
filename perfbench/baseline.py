"""Micro rows matching the ROADMAP baseline table, measured with this harness.

    python3 perfbench/baseline.py

Prints one markdown row per measurement. Each row is a single untraced
timing unless it says "traced", in which case it comes from the span
recorder the benchmark's traced run uses. The benchmark command does
not run it; run it by hand to refresh the table in README.md.
"""

from __future__ import annotations

import random
import sys
from time import perf_counter

import run  # the benchmark's import path, thread caps and machine record


def _timed(fn, *args, **kwargs):
    start = perf_counter()
    out = fn(*args, **kwargs)
    return perf_counter() - start, out


def main():
    nproc = run._hygiene()
    sp = run._import_package()
    import reference
    import workloads
    from recorder import Recorder

    enumeration = sys.modules["spectrees.enumeration"]
    rows = [("machine", ", ".join(f"{k}={v}" for k, v in run._machine(nproc).items()))]

    for n in (16, 17):
        rec = Recorder()
        rec.install(sp)
        try:
            entry = rec.span(enumeration.coded_free_trees, "bench.coded_free_trees", "enumeration")
            wall, coded = _timed(entry, n)
        finally:
            rec.uninstall()
        spans = rec.spans_by_name()
        rows.append((f"`coded_free_trees({n})`, traced ({len(coded)} classes)",
                     f"{wall:.2f} s: generate+sort {spans['bench.coded_free_trees']['self_s']:.2f} s · "
                     f"`Tree()` {spans['enumeration.Tree']['total_s']:.2f} s · "
                     f"canonical codes {spans['enumeration.canonical_code']['total_s']:.2f} s"))

    rec = Recorder()
    rec.install(sp)
    try:
        before = rec.snapshot()
        wall, _ = _timed(sp.search_extremal, 16, alpha=0.6, key="psi")
        layer = Recorder.layer_metrics(before, rec.snapshot(), 19320, 0)
    finally:
        rec.uninstall()
    rows.append(("`_count_above` at n=16, traced `search_extremal(16, alpha=0.6)`",
                 f"{layer['spectra.us_per_probe']:.2f} µs/probe over {layer['spectra.probes']} probes"))

    trees16 = [sp.Tree(16, [(v, p[v]) for v in range(1, 16)]) for p in reference.free_tree_parents(16)]
    wall, _ = _timed(lambda: [sp.top_two(t, 1e-12) for t in trees16])
    rows.append(("`top_two(tol=1e-12)` at n=16, all 19320 classes", f"{1e6 * wall / len(trees16):.0f} µs/tree"))
    rng = random.Random(0)
    for n in (1000, 3000):
        trees = [sp.Tree(n, workloads.prufer_tree(rng, n)) for _ in range(5)]
        wall, _ = _timed(lambda: [sp.top_two(t, 1e-12) for t in trees])
        rows.append((f"`top_two(tol=1e-12)` at n={n}, 5 random trees", f"{1e3 * wall / len(trees):.1f} ms/tree"))

    for key, objective in (("sum", "min"), ("sum", "max"), ("psi", "max"), ("lam2", "max"), ("gap", "min")):
        wall, _ = _timed(sp.search_extremal, 16, alpha=0.5, objective=objective, key=key)
        rows.append((f"`search_extremal(16, key={key!r}, objective={objective!r})`", f"{wall:.2f} s"))
    for n in (150, 200):
        wall, _ = _timed(sp.envelope, n, "dc")
        rows.append((f'`envelope({n}, "dc")`', f"{wall:.2f} s"))
    wall, _ = _timed(sp.search_extremal, 2000, alpha=0.7, family="dc", key="psi")
    rows.append(('`search_extremal(2000, family="dc", alpha=0.7)`', f"{wall:.2f} s"))

    print("| measurement | value |\n| --- | --- |")
    for name, value in rows:
        print(f"| {name} | {value} |")


if __name__ == "__main__":
    main()
