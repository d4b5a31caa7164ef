"""Command-line front end.

Subcommands: enumerate, spectrum, extremal, envelope, gap, verify. Trees
are passed as spec strings (path:N, star:N, dc:K1,K2,L, file:PATH); file
output is CSV with 15-significant-digit floats and deterministic row
order, machine-readable results via --json. The verify subcommand exits
1 when any case fails; bad input (a tree spec, a file, a parameter out of
range) prints ``error: ...`` to stderr and exits 2.
"""

from __future__ import annotations

import argparse
import json
import sys

from .enumeration import count_double_comets, count_free_trees, enumerate_trees
from .extremal import KEYS, envelope, normalized_envelope, search_extremal, spectral_gap_min
from .spectra import TOL, dense_spectrum_oracle, top_two
from .suites import (
    SUITES,
    emit_csv,
    envelope_csv_rows,
    report_to_csv,
    run_suite,
    spectrum_to_csv,
)
from .trees import parse_tree_spec, tree_to_text


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_jobs(p):
    p.add_argument("--jobs", type=_positive_int, default=1, help="worker processes for scans")


def _add_output(p):
    p.add_argument("--json", action="store_true", help="emit JSON to stdout")
    p.add_argument("--out", help="write CSV to this path")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="spectrees",
                                 description="certified top-two adjacency eigenvalues of trees")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="enumerate isomorphism classes of trees")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--family", choices=("all", "dc"), default="all")
    p.add_argument("--count-only", action="store_true")
    _add_output(p)

    p = sub.add_parser("spectrum", help="top two eigenvalues of one tree")
    p.add_argument("--tree", required=True, help="path:N | star:N | dc:K1,K2,L | file:PATH")
    p.add_argument("--full", action="store_true", help="full oracle spectrum (n <= 64)")
    p.add_argument("--tol", type=float, default=TOL, help="certified interval width")
    _add_output(p)

    p = sub.add_parser("extremal", help="extremal tree for a spectral objective")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--objective", choices=("max", "min"), default="max")
    p.add_argument("--family", choices=("all", "dc"), default="all")
    p.add_argument("--key", choices=KEYS, default="psi")
    _add_jobs(p)
    _add_output(p)

    p = sub.add_parser("envelope", help="piecewise-linear upper envelope over a family")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--family", choices=("all", "dc"), default="all")
    p.add_argument("--normalized", action="store_true")
    _add_output(p)

    p = sub.add_parser("gap", help="spectral-gap minimizers (exploration)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--family", choices=("all", "dc"), default="all")
    _add_jobs(p)
    _add_output(p)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=sorted(SUITES))
    p.add_argument("--seed", type=int, default=0, help="seed for randomized suites")
    _add_jobs(p)
    _add_output(p)
    return ap


def _maybe_write(args, text: str):
    if args.out:
        emit_csv([text], args.out)


def _cmd_enumerate(args) -> int:
    if args.count_only:
        total = count_free_trees(args.n) if args.family == "all" else count_double_comets(args.n)
        print(json.dumps({"n": args.n, "family": args.family, "count": total})
              if args.json else total)
        return 0
    trees = list(enumerate_trees(args.n, args.family))
    text = "\n".join(tree_to_text(t) for t in trees)
    if args.json:
        print(json.dumps({"n": args.n, "family": args.family, "trees": [t.edges() for t in trees]}))
    elif not args.out:
        print(text, end="")
    _maybe_write(args, text)
    return 0


def _cmd_spectrum(args) -> int:
    t = parse_tree_spec(args.tree)
    tt = top_two(t, args.tol)
    l1lo, l1hi, l2lo, l2hi = tt.lam1_lo, tt.lam1_hi, tt.lam2_lo, tt.lam2_hi
    payload = {"lambda1": {"lo": l1lo, "hi": l1hi}, "lambda2": {"lo": l2lo, "hi": l2hi}}
    if args.full:
        payload["spectrum"] = dense_spectrum_oracle(t)
    if args.json:
        print(json.dumps(payload))
    else:
        print(f"lambda1 in [{l1lo:.15g}, {l1hi:.15g}]")
        print(f"lambda2 in [{l2lo:.15g}, {l2hi:.15g}]")
        if args.full:
            for v in payload["spectrum"]:
                print(f"{v:.15g}")
    _maybe_write(args, spectrum_to_csv(tt, payload.get("spectrum")))
    return 0


def _cmd_extremal(args) -> int:
    res = search_extremal(args.n, alpha=args.alpha, objective=args.objective,
                          family=args.family, key=args.key, jobs=args.jobs)
    payload = {
        "n": res.n,
        "key": res.key,
        "objective": res.objective,
        "family": res.family,
        "alpha": res.alpha,
        "resolved": res.resolved,
        "tie_proven": res.tie_proven,
        "scanned": res.scanned,
        "runner_up_gap": res.runner_up_gap,
        "winners": [
            {"code": w.code, "lo": w.lo, "hi": w.hi,
             "params": None if w.params is None else [w.params.k1, w.params.k2, w.params.ell]}
            for w in res.winners
        ],
    }
    if args.json:
        print(json.dumps(payload))
    else:
        print(f"{res.objective} {res.key} over family={res.family}, n={res.n}:")
        for w in res.winners:
            extra = "" if w.params is None else f"  dc:{w.params.k1},{w.params.k2},{w.params.ell}"
            print(f"  [{w.lo:.15g}, {w.hi:.15g}]  {w.code}{extra}")
        print(f"resolved={res.resolved} tie_proven={res.tie_proven} scanned={res.scanned}")
    lines = ["code,lo,hi"]
    lines.extend(f"{w.code},{w.lo:.15g},{w.hi:.15g}" for w in res.winners)
    _maybe_write(args, "\n".join(lines) + "\n")
    return 0


def _cmd_envelope(args) -> int:
    env = normalized_envelope(args.n, args.family) if args.normalized else envelope(args.n, args.family)
    if args.json:
        print(json.dumps([
            {"alpha_lo": s.alpha_lo, "alpha_hi": s.alpha_hi, "lambda1": s.lam1,
             "lambda2": s.lam2, "witness": s.witness_code}
            for s in env.segments
        ]))
    else:
        sys.stdout.writelines(envelope_csv_rows(env))  # one row at a time: a witness code can be 2n characters
    if args.out:
        emit_csv(envelope_csv_rows(env), args.out)
    return 0


def _cmd_gap(args) -> int:
    rep = spectral_gap_min(args.n, args.family, jobs=args.jobs)
    res = rep.result
    payload = {
        "n": res.n,
        "family": res.family,
        "winners": [{"code": w.code, "lo": w.lo, "hi": w.hi} for w in res.winners],
        "all_balanced_comets": rep.all_balanced_comets,
        "gap_maximized_by_star": rep.star_maximizes_gap,
    }
    if args.json:
        print(json.dumps(payload))
    else:
        for w in res.winners:
            print(f"gap in [{w.lo:.15g}, {w.hi:.15g}]  {w.code}")
        print(f"minimizers all balanced double comets: {rep.all_balanced_comets}")
        print(f"gap maximized by a star: {rep.star_maximizes_gap}")
    lines = ["code,lo,hi"]
    lines.extend(f"{w.code},{w.lo:.15g},{w.hi:.15g}" for w in res.winners)
    _maybe_write(args, "\n".join(lines) + "\n")
    return 0


def _cmd_verify(args) -> int:
    rep = run_suite(args.suite, seed=args.seed, jobs=args.jobs)
    if args.json:
        print(json.dumps({
            "suite": rep.suite,
            "seed": rep.seed,
            "summary": rep.summary,
            "runtime": rep.runtime,
            "cases": [
                {"id": c.id, "expected": str(c.expected), "got": str(c.got),
                 "tolerance": c.tolerance, "pass": c.ok}
                for c in rep.cases
            ],
        }))
    else:
        for c in rep.cases:
            status = "pass" if c.ok else "FAIL"
            print(f"[{status}] {c.id}: expected={c.expected} got={c.got} tol={c.tolerance}")
        s = rep.summary
        print(f"suite={rep.suite} seed={rep.seed} passed {s['passed']}/{s['cases']} "
              f"in {rep.runtime:.2f}s")
    _maybe_write(args, report_to_csv(rep))
    return 0 if rep.all_pass else 1


_HANDLERS = {
    "enumerate": _cmd_enumerate,
    "spectrum": _cmd_spectrum,
    "extremal": _cmd_extremal,
    "envelope": _cmd_envelope,
    "gap": _cmd_gap,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, OSError) as exc:  # ValueError covers TreeError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
