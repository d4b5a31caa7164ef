"""Span recorder for the traced run.

The package imports its helpers with ``from .x import y``, so each module
holds its own reference to every function it calls in another module. The
recorder replaces those references with wrappers that time the call and
name it ``<calling module>.<function>``, e.g. ``extremal.top_two``. The
benchmark's own entry points into the package are named ``bench.<name>``.
A span belongs to the layer that defines the called function; its self
time is its duration minus the time its child spans cover.

Two hot spectra functions are counted rather than spanned, wherever they
are called from: ``top_two`` and the inertia probe ``_count_above``, which
also gets its own timer for ``spectra.us_per_probe``. ``Tree.__init__`` is
counted for ``trees.builds``.

Spans are aggregated in memory per name and per task; nothing is written
until the benchmark writes its trace file.
"""

from __future__ import annotations

import sys
from time import perf_counter

LAYERS = ("trees", "enumeration", "spectra", "transforms", "extremal")
ENTRY_POINTS = ("search_extremal", "envelope", "top_two", "eigenvector", "kelmans", "Tree")


class Recorder:
    def __init__(self):
        self.stats = {}  # span name -> [layer, calls, total_s, self_s, rows returned]
        self.task_spans = []  # (task id, span name, start, end) of each entry-point call
        self.task_id = None
        self._stack = []
        self._probe = [0, 0.0]  # _count_above calls, seconds inside them
        self._top_two = [0]
        self._builds = [0]
        self._patches = []

    # -- installation ---------------------------------------------------------

    def install(self, package):
        """Wrap every cross-module reference inside the package's layer modules."""
        spectra = sys.modules[package.__name__ + ".spectra"]
        trees = sys.modules[package.__name__ + ".trees"]
        self._set(spectra, "_count_above", self._timed_counter(spectra._count_above, self._probe))
        self._set(spectra, "top_two", self._counter(spectra.top_two, self._top_two))
        self._set(trees.Tree, "__init__", self._counter(trees.Tree.__init__, self._builds))
        for layer in LAYERS:
            module = sys.modules[f"{package.__name__}.{layer}"]
            for name, obj in list(vars(module).items()):
                callee = _layer_of(obj, package.__name__)
                if callee and callee != layer and _worth_a_span(obj):
                    self._set(module, name, self.span(_current(obj, spectra), f"{layer}.{name}", callee))
        for name in ENTRY_POINTS:
            obj = getattr(package, name)
            self._set(package, name, self.span(_current(obj, spectra), f"bench.{name}", _layer_of(obj, package.__name__)))

    def uninstall(self):
        for owner, name, old in reversed(self._patches):
            setattr(owner, name, old)
        self._patches.clear()

    def _set(self, owner, name, new):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    # -- wrappers ---------------------------------------------------------------

    def span(self, fn, name, layer):
        stat = self.stats.setdefault(name, [layer, 0, 0.0, 0.0, 0])
        stack = self._stack
        spans = self.task_spans
        recorder = self
        is_entry = name.startswith("bench.")

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dt = end - start
                if stack:
                    stack[-1][0] += dt
                stat[1] += 1
                stat[2] += dt
                stat[3] += dt - frame[0]
                if is_entry:
                    spans.append((recorder.task_id, name, start, end))
            if layer == "enumeration" and hasattr(out, "__len__"):
                stat[4] += len(out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    @staticmethod
    def _counter(fn, cell):
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    @staticmethod
    def _timed_counter(fn, cell):
        def wrapper(*args):
            start = perf_counter()
            out = fn(*args)
            cell[1] += perf_counter() - start
            cell[0] += 1
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results ----------------------------------------------------------------

    def snapshot(self):
        """Cumulative counters, for per-round differences."""
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "probes": tuple(self._probe),
            "top_two": self._top_two[0],
            "builds": self._builds[0],
        }

    @staticmethod
    def layer_metrics(before, after, scanned: int, segments: int):
        """Per-layer metrics of the work done between two snapshots."""
        stats = {}
        for name, row in after["stats"].items():
            old = before["stats"].get(name, [row[0], 0, 0.0, 0.0, 0])
            stats[name] = [row[0]] + [row[i] - old[i] for i in range(1, 5)]

        def calls(pred):
            return sum(r[1] for n, r in stats.items() if pred(n, r))

        def self_s(layer):
            return sum(r[3] for r in stats.values() if r[0] == layer)

        probes = after["probes"][0] - before["probes"][0]
        probe_s = after["probes"][1] - before["probes"][1]
        quotient = [r for n, r in stats.items() if n.endswith(".dc_top_two_quotient")]
        extremal_top_two = calls(lambda n, r: n == "extremal.top_two")
        return {
            "enumeration.calls": calls(lambda n, r: r[0] == "enumeration"),
            "enumeration.classes": sum(r[4] for r in stats.values() if r[0] == "enumeration"),
            "enumeration.self_s": self_s("enumeration"),
            "trees.builds": after["builds"] - before["builds"],
            "trees.codes": calls(lambda n, r: n.endswith(".canonical_code")),
            "trees.self_s": self_s("trees"),
            "spectra.top_two_calls": after["top_two"] - before["top_two"],
            "spectra.bisections": calls(lambda n, r: n == "extremal._bisect_count"),
            "spectra.probes": probes,
            "spectra.us_per_probe": 1e6 * probe_s / probes if probes else 0.0,
            "spectra.quotient_calls": sum(r[1] for r in quotient),
            "spectra.quotient_self_s": sum(r[3] for r in quotient),
            "spectra.self_s": self_s("spectra"),
            "transforms.calls": calls(lambda n, r: r[0] == "transforms"),
            "transforms.self_s": self_s("transforms"),
            "extremal.calls": calls(lambda n, r: r[0] == "extremal"),
            "extremal.self_s": self_s("extremal"),
            "extremal.scanned": scanned,
            "extremal.survivor_ratio": extremal_top_two / scanned if scanned else 0.0,
            "extremal.segments": segments,
        }

    def spans_by_name(self):
        return {
            name: {"layer": r[0], "calls": r[1], "total_s": r[2], "self_s": r[3]}
            for name, r in sorted(self.stats.items())
            if r[1]
        }


def _layer_of(obj, package: str):
    module = getattr(obj, "__module__", None) or ""
    prefix = package + "."
    if module.startswith(prefix) and module[len(prefix):] in LAYERS:
        return module[len(prefix):]
    return None


def _worth_a_span(obj) -> bool:
    """Functions and the Tree class; plain record types and errors are not work."""
    if isinstance(obj, type):
        return obj.__name__ == "Tree"
    return callable(obj)


def _current(obj, spectra):
    """The object a name should now resolve to, after the counters went in."""
    if getattr(obj, "__name__", None) == "top_two" and getattr(obj, "__module__", "") == spectra.__name__:
        return spectra.top_two
    return obj
