"""Benchmark of the spectrees library: time to certified answers.

Run from the root of a checkout:

    python3 perfbench/run.py --workload exhaustive --seed 1 --seconds 20 --trace 0

The command sets up the workload's seeded round of tasks, repeats it in a
closed loop from this one process for about ``--seconds`` (always at least
one whole round), checks every answer against the independent references
in ``reference.py`` after timing, prints each metric by name with its
unit, and ends with one JSON line. ``--trace 1`` instead runs the same
rounds untraced and then traced, and reports the per-layer metrics.
The exit code is 0 only when every answer passed its check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5


def _hygiene():
    """No spectrum cache; BLAS threads capped at the cores this process may use."""
    os.environ.pop("SPECTREES_CACHE", None)
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            cap = min(int(os.environ.get(var, nproc)), nproc)
        except ValueError:
            cap = nproc
        os.environ[var] = str(max(cap, 1))
    return nproc


def _import_package():
    if not os.path.isfile(os.path.join(SRC, "spectrees", "__init__.py")):
        sys.exit(f"error: no spectrees package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    import spectrees

    if os.path.dirname(os.path.dirname(os.path.abspath(spectrees.__file__))) != SRC:
        sys.exit(f"error: imported spectrees from {spectrees.__file__}, not from {SRC}")
    return spectrees


def _machine(nproc: int):
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": nproc,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
    }


def _commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _import_seconds():
    """Seconds to import the package in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import spectrees; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code, SRC], capture_output=True, text=True,
                         timeout=120, check=True, cwd=ROOT)
    return float(out.stdout.strip().splitlines()[-1])


def _setup(sp, workloads, name, seed):
    """Median over repeated set-ups of fresh import plus seeded inputs plus warm-up."""
    import speed

    times = []
    probes = [speed.probe()]
    tasks = None
    for _ in range(SETUP_REPEATS):
        imported = _import_seconds()
        start = perf_counter()
        tasks = workloads.plan(name, seed)
        workloads.warm_up(sp, name)
        times.append(imported + perf_counter() - start)
        probes.append(speed.probe())
    return tasks, statistics.median(times) * speed.scale(probes)


class Loop:
    """Closed-loop rounds over one task list; records and compares answers."""

    def __init__(self, sp, workloads, tasks):
        self.sp, self.w, self.tasks = sp, workloads, tasks
        self.raw_walls = []  # per round
        self.raw_latencies = []  # per task run
        self.probes = []  # machine speed around the timed calls, see speed.py
        self.records = None  # first round's answers, for the reference checks
        self.errors = [[] for _ in tasks]  # per task: messages from any round
        self.attempted = 0
        self.bad_runs = 0  # task runs that raised or differed from the first round
        self.on_task = None  # called with a task's sequence number before it starts

    def round(self):
        import speed

        wall = 0.0
        records = []
        if not self.probes:
            self.probes.append(speed.probe())
        for i, task in enumerate(self.tasks):
            if self.on_task:
                self.on_task(self.attempted)
            start = perf_counter()
            try:
                raw = self.w.run_task(self.sp, task)
            except Exception as exc:  # a failed task is counted, not fatal
                raw = exc
            dt = perf_counter() - start
            self.probes.append(speed.probe())
            wall += dt
            self.raw_latencies.append(dt)
            self.attempted += 1
            if isinstance(raw, Exception):
                self.errors[i].append(f"raised {type(raw).__name__}: {raw}")
                self.bad_runs += 1
                records.append(None)
                continue
            rec = self.w.to_record(task, raw)
            records.append(rec)
            if self.records is not None and rec != self.records[i]:
                self.errors[i].append("answer differs from the first round's")
                self.bad_runs += 1
        if self.records is None:
            self.records = records
        self.raw_walls.append(wall)

    @property
    def walls(self):
        """Round walls on the probe's scale."""
        import speed

        k = speed.scale(self.probes)
        return [w * k for w in self.raw_walls]

    @property
    def latencies(self):
        """Task latencies on the probe's scale."""
        import speed

        k = speed.scale(self.probes)
        return [t * k for t in self.raw_latencies]

    def run(self, budget):
        """Whole rounds while ``budget`` seconds allow another; at least one."""
        start = perf_counter()
        while True:
            self.round()
            if perf_counter() - start + statistics.median(self.raw_walls) > budget:
                return

    def check(self, checks):
        """Failed task runs: a wrong first-round answer fails every repeat of that task."""
        oracle = checks.Oracle()
        rounds = len(self.walls)
        failed = self.bad_runs
        for i, (task, rec) in enumerate(zip(self.tasks, self.records)):
            if rec is None:
                continue
            msgs = checks.check(task, rec, oracle)
            if msgs:
                self.errors[i].extend(msgs)
                failed += rounds
        return failed

    def decided(self, kinds=("search", "envelope", "large")):
        return sum(self.w.decided(t, r) for t, r in zip(self.tasks, self.records)
                   if r is not None and t.kind in kinds)

    def segments(self):
        return sum(self.w.segments(t, r) for t, r in zip(self.tasks, self.records) if r is not None)


def _tail(latencies):
    """Highest whole percentile with at least ten tasks beyond it, or None."""
    xs = sorted(latencies)
    for p in range(99, 0, -1):
        k = int(len(xs) * p / 100)
        if len(xs) - k >= 10 and k >= 1:
            return p, xs[k - 1], len(xs) - k
    return None


def _emit(correct, attempted, failed, metrics):
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main(argv=None):
    nproc = _hygiene()  # before numpy is first imported
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sp = _import_package()
    import checks

    machine = _machine(nproc)
    print("machine: " + ", ".join(f"{k}={v}" for k, v in machine.items()))
    tasks, setup_s = _setup(sp, workloads, args.workload, args.seed)
    print(f"workload {args.workload}, seed {args.seed}: {len(tasks)} tasks per round, "
          f"closed loop, 1 process, jobs=1")

    if args.trace:
        return _traced_run(sp, workloads, checks, tasks, args, machine)
    return _timed_run(sp, workloads, checks, tasks, args, setup_s)


def _timed_run(sp, workloads, checks, tasks, args, setup_s):
    """End-to-end metrics, tracing off."""
    loop = Loop(sp, workloads, tasks)
    loop.run(args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = loop.check(checks)
    _report_errors(tasks, loop)
    wall = statistics.median(loop.walls)
    lat = loop.latencies
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "trees_per_s": (loop.decided() / wall, "1/s"),
        "task_p50_s": (statistics.median(lat), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} set-ups",
        "wall_s": f"median over {len(loop.walls)} round(s); raw {statistics.median(loop.raw_walls):.6g} s",
        "trees_per_s": f"{loop.decided()} members decided per round",
        "task_p50_s": f"{len(lat)} tasks",
    }
    for k, (v, u) in metrics.items():
        print(f"{k} = {v:.6g} {u}" + (f"  ({notes[k]})" if k in notes else ""))
    rounds = len(loop.walls)
    for i, task in enumerate(tasks):
        mine = statistics.median(lat[i::len(tasks)])
        raw = statistics.median(loop.raw_latencies[i::len(tasks)])
        print(f"  task {_label(task)}: median {mine:.4g} s (raw {raw:.4g} s) over {rounds} round(s)")
    tail = _tail(lat)
    if tail is None:
        print(f"task_tail_s: omitted, {len(lat)} tasks leave fewer than 10 beyond any percentile")
    else:
        print(f"task_tail_s = {tail[1]:.6g} s  (p{tail[0]}, {tail[2]} of {len(lat)} tasks beyond it)")
    print(f"failed_ratio = {failed}/{loop.attempted} = {failed / loop.attempted:.6g}")
    _emit(failed == 0, loop.attempted, failed, metrics)
    return 0 if failed == 0 else 1


def _traced_run(sp, workloads, checks, tasks, args, machine):
    """Per-layer metrics: whole rounds alternate untraced and traced, so drift hits both."""
    from recorder import Recorder

    plain = Loop(sp, workloads, tasks)
    traced = Loop(sp, workloads, tasks)
    rec = Recorder()
    traced.on_task = lambda k: setattr(rec, "task_id", k)
    per_round = []
    start = perf_counter()
    while True:
        plain.round()
        rec.install(sp)
        try:
            before = rec.snapshot()
            traced.round()
            per_round.append((before, rec.snapshot()))
        finally:
            rec.uninstall()
        pair = statistics.median(plain.raw_walls) + statistics.median(traced.raw_walls)
        if perf_counter() - start + pair > args.seconds:
            break
    failed = plain.check(checks) + traced.bad_runs
    if traced.records != plain.records:
        failed += 1
        print("error: traced answers differ from untraced ones")
    _report_errors(tasks, plain)
    scanned, segs = plain.decided(("search", "envelope")), plain.segments()
    rows = []
    for (b, a), wall, raw in zip(per_round, traced.walls, traced.raw_walls):
        row = Recorder.layer_metrics(b, a, scanned, segs)
        rows.append({k: v * wall / raw if _is_time(k) else v for k, v in row.items()})
    layer = {}
    for k in rows[0]:
        if _is_time(k):
            layer[k] = statistics.median(r[k] for r in rows)
        else:
            layer[k] = rows[0][k]
            if any(r[k] != rows[0][k] for r in rows):
                print(f"warning: {k} differs between identical rounds")
    layer["trace.overhead_ratio"] = sum(traced.walls) / sum(plain.walls)
    units = {k: ("s" if k.endswith("_s") else "us" if k.endswith("us_per_probe")
                 else "ratio" if k.endswith("_ratio") else "count") for k in layer}
    print(f"untraced wall_s = {statistics.median(plain.walls):.6g} s, traced wall_s = "
          f"{statistics.median(traced.walls):.6g} s, over {len(plain.walls)} round(s) each; "
          f"per-layer values are per round; times on the probe's scale (speed.py)")
    for k, v in layer.items():
        print(f"{k} = {v:.6g} {units[k]}")
    _write_trace(args, machine, plain, traced, rows, layer, rec)
    attempted = plain.attempted + traced.attempted
    _emit(failed == 0, attempted, failed, {k: (v, units[k]) for k, v in layer.items()})
    return 0 if failed == 0 else 1


def _is_time(metric):
    return metric.endswith("_s") or metric.endswith("us_per_probe")


def _label(task):
    args = task.args[:1] if task.kind == "large" else task.args
    return f"{task.kind}({', '.join(map(str, args))})"


def _report_errors(tasks, loop):
    for task, msgs in zip(tasks, loop.errors):
        for m in dict.fromkeys(msgs):
            print(f"FAIL {_label(task)}: {m}")


def _write_trace(args, machine, plain, traced, rows, layer, rec):
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "machine": machine,
        "untraced_round_walls_s": plain.walls,
        "traced_round_walls_s": traced.walls,
        "raw_untraced_round_walls_s": plain.raw_walls,
        "raw_traced_round_walls_s": traced.raw_walls,
        "per_round_layers": rows,
        "layers": layer,
        "spans": rec.spans_by_name(),
        "task_spans": [{"task": r, "name": n, "start": s, "end": e} for r, n, s, e in rec.task_spans],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    print(f"trace written to {os.path.relpath(path, ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
