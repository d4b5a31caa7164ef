import json
import shlex
from pathlib import Path

import pytest

from spectrees import cli, suites
from spectrees.cli import main
from spectrees.enumeration import double_comet_arrays, enumerate_trees
from spectrees.suites import (
    envelope_to_csv,
    report_to_csv,
    run_suite,
    spectrum_to_csv,
)
from spectrees.extremal import envelope
from spectrees.spectra import dense_spectrum_oracle, top_two
from spectrees.trees import DoubleCometParams, make_double_comet


def test_run_suite_unknown_name():
    with pytest.raises(ValueError):
        run_suite("figure9")
    # a suite takes only (seed, jobs); an option it does not know is an error, not ignored
    with pytest.raises(TypeError):
        run_suite("figure2", n_hi=3)


def test_figure2_report_shape():
    rep = run_suite("figure2")
    assert rep.all_pass
    assert rep.summary["cases"] == 7
    assert rep.summary["failed"] == 0


def test_report_csv_deterministic():
    a = report_to_csv(run_suite("figure2", seed=0))
    b = report_to_csv(run_suite("figure2", seed=0))
    assert a == b
    assert a.startswith("# suite=figure2 seed=0\nid,expected,got,tolerance,pass\n")


def test_randomized_suite_csv_deterministic():
    # the seeded generator makes even the random-case suites byte-stable
    a = report_to_csv(run_suite("identity", seed=0))
    b = report_to_csv(run_suite("identity", seed=0))
    assert a == b
    c = report_to_csv(run_suite("identity", seed=1))
    assert c != a  # the seed genuinely feeds the sampling


def test_envelope_csv_rows():
    env = envelope(6, "all")
    text = envelope_to_csv(env)
    rows = text.strip().splitlines()
    assert rows[0] == "alpha_lo,alpha_hi,lambda1,lambda2,witness_code"
    assert len(rows) == 1 + len(env.segments)


def test_spectrum_csv_full_comet():
    t = make_double_comet(DoubleCometParams(2, 2, 3))
    rows = spectrum_to_csv(top_two(t), dense_spectrum_oracle(t)).strip().splitlines()
    assert len(rows) == 1 + 7  # header plus one row per eigenvalue


def test_cli_spectrum_certifies_once(tmp_path, monkeypatch, capsys):
    # stdout and the CSV share one top_two and at most one oracle spectrum, --out or not
    calls = {"top_two": 0, "oracle": 0}

    def counting(name, f):
        def wrapped(*a, **k):
            calls[name] += 1
            return f(*a, **k)
        return wrapped

    for module in (cli, suites):
        monkeypatch.setattr(module, "top_two", counting("top_two", top_two))
        monkeypatch.setattr(module, "dense_spectrum_oracle", counting("oracle", dense_spectrum_oracle))
    out = tmp_path / "s.csv"
    for extra, oracle in (([], 0), (["--out", str(out)], 0), (["--full"], 1), (["--full", "--out", str(out)], 1)):
        calls.update(top_two=0, oracle=0)
        assert main(["spectrum", "--tree", "path:9", *extra]) == 0
        assert calls == {"top_two": 1, "oracle": oracle}, extra
    assert out.read_text().splitlines()[1] == "1,1.90211303259031"


def test_cli_enumerate_count(capsys):
    assert main(["enumerate", "--n", "8", "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "23"
    assert main(["enumerate", "--n", "2000", "--family", "dc", "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == str(sum(len(ell) for ell, _, _ in double_comet_arrays(2000)))


def test_cli_enumerate_writes_blocks(capsys):
    assert main(["enumerate", "--n", "4", "--family", "dc"]) == 0
    out = capsys.readouterr().out
    blocks = [b for b in out.split("\n\n") if b.strip()]
    assert len(blocks) == 2


def test_cli_enumerate_json(capsys):
    # without --count-only, --json lists every class's edges in enumeration order
    assert main(["enumerate", "--n", "5", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 5 and payload["family"] == "all"
    assert payload["trees"] == [[list(e) for e in t.edges()] for t in enumerate_trees(5, "all")]
    assert len(payload["trees"]) == 3
    assert main(["enumerate", "--n", "4", "--family", "dc", "--json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["trees"]) == 2


def test_cli_spectrum_json(capsys):
    assert main(["spectrum", "--tree", "dc:2,2,3", "--json", "--full"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["lambda1"]["hi"] - 2.0) < 1e-9
    assert len(payload["spectrum"]) == 7


def test_cli_extremal_json(capsys):
    assert main(["extremal", "--n", "7", "--key", "sum", "--objective", "max", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["resolved"] is True
    assert len(payload["winners"]) == 1


def test_cli_envelope_csv_out(tmp_path, capsys):
    out = tmp_path / "env.csv"
    assert main(["envelope", "--n", "6", "--out", str(out)]) == 0
    capsys.readouterr()
    text = out.read_text()
    assert text.splitlines()[0] == "alpha_lo,alpha_hi,lambda1,lambda2,witness_code"
    # byte-identical on rerun
    assert main(["envelope", "--n", "6", "--out", str(out)]) == 0
    assert out.read_text() == text


def test_cli_envelope_streams_the_csv(tmp_path, capsys):
    # stdout and --out are written row by row, and hold exactly envelope_to_csv's bytes
    for n, family in ((26, "dc"), (10, "all")):
        want = envelope_to_csv(envelope(n, family))
        out = tmp_path / f"{family}.csv"
        assert main(["envelope", "--n", str(n), "--family", family, "--out", str(out)]) == 0
        assert capsys.readouterr().out == want
        assert out.read_bytes() == want.encode()


def test_cli_envelope_json(capsys):
    assert main(["envelope", "--n", "6", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == len(envelope(6).segments)
    for seg in payload:
        assert set(seg) == {"alpha_lo", "alpha_hi", "lambda1", "lambda2", "witness"}


def test_cli_gap(capsys):
    assert main(["gap", "--n", "6", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["gap_maximized_by_star"] is True


def test_cli_bad_tree_spec_is_a_clean_error(tmp_path, capsys):
    # bad input of every kind: one "error: ..." line on stderr and exit code 2
    cases = [
        (["spectrum", "--tree", "path:x"], "'x'"),
        (["spectrum", "--tree", "path:1"], "n >= 2"),
        (["spectrum", "--tree", f"file:{tmp_path / 'missing.txt'}"], "missing.txt"),
        (["spectrum", "--tree", "path:5", "--out", str(tmp_path / "no-dir" / "x.csv")], "x.csv"),
        (["spectrum", "--tree", "path:5", "--tol", "nan"], "tol"),
        (["spectrum", "--tree", "path:5", "--tol", "inf"], "tol"),
        (["spectrum", "--tree", "star:5", "--tol", "0"], "tol"),
        (["spectrum", "--tree", "path:5", "--tol", "1e-14"], "TOL"),
        (["extremal", "--n", "30"], "n <= 24"),
        (["extremal", "--n", "6", "--alpha", "1.5"], "alpha"),
        (["envelope", "--n", "30"], "n <= 24"),
        (["enumerate", "--n", "30", "--count-only"], "n <= 24"),
        (["verify", "--suite", "nope"], "'nope'"),
    ]
    for argv, says in cases:
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a bad choice while parsing
            code = exc.code
        err = capsys.readouterr().err
        assert code == 2, argv
        assert "error: " in err.splitlines()[-1] and says in err and "Traceback" not in err, argv


def test_cli_rejects_nonpositive_jobs(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["extremal", "--n", "6", "--jobs", "0"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_cli_rejects_options_a_command_ignores(capsys):
    # each subcommand takes only the options its handler reads
    required = {"enumerate": ["--n", "5"], "spectrum": ["--tree", "path:5"], "extremal": ["--n", "6"],
                "envelope": ["--n", "6"], "gap": ["--n", "6"], "verify": ["--suite", "figure2"]}
    ignored = [("--tol", "1e-3", ("enumerate", "extremal", "envelope", "gap", "verify")),
               ("--jobs", "2", ("enumerate", "spectrum", "envelope")),
               ("--seed", "1", ("enumerate", "spectrum", "extremal", "envelope", "gap"))]
    for option, value, commands in ignored:
        for command in commands:
            with pytest.raises(SystemExit) as exc:
                main([command, *required[command], option, value])
            assert exc.value.code == 2, (command, option)
            assert f"unrecognized arguments: {option}" in capsys.readouterr().err


def test_cli_verify_exit_codes(capsys):
    assert main(["verify", "--suite", "figure2"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "not-a-suite"])
    assert exc.value.code == 2


def test_cli_verify_json(capsys):
    assert main(["verify", "--suite", "figure2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"suite", "seed", "summary", "runtime", "cases"}
    assert payload["suite"] == "figure2" and payload["summary"]["failed"] == 0
    assert set(payload["summary"]) == {"cases", "passed", "failed"}
    assert len(payload["cases"]) == payload["summary"]["cases"] > 0
    for case in payload["cases"]:
        assert set(case) == {"id", "expected", "got", "tolerance", "pass"}


def test_cli_verify_report_out(tmp_path, capsys):
    out = tmp_path / "rep.csv"
    assert main(["verify", "--suite", "figure2", "--out", str(out)]) == 0
    capsys.readouterr()
    text = out.read_text()
    assert text.splitlines()[1] == "id,expected,got,tolerance,pass"
    assert main(["verify", "--suite", "figure2", "--out", str(out)]) == 0
    assert out.read_text() == text


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    # every command README documents must still parse and succeed
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```")[1]
    commands = [shlex.split(line, comments=True) for line in block.splitlines() if line.startswith("spectrees ")]
    assert len(commands) >= 10
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == 0, argv
    capsys.readouterr()


def test_readme_library_block_runs():
    # the library quick tour must run as printed, its runner-up search included
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library quick tour", 1)[1].split("```")[1]
    assert block.startswith("python\n")
    namespace = {}
    exec(block[len("python\n"):], namespace)
    assert namespace["second"].resolved
    assert namespace["second"].winner_codes[0] not in namespace["res"].winner_codes
