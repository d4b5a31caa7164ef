import json

import pytest

from spectrees.cli import main
from spectrees.suites import (
    SpectrumCache,
    envelope_to_csv,
    report_to_csv,
    run_suite,
    spectrum_to_csv,
)
from spectrees.extremal import envelope
from spectrees.trees import DoubleCometParams, make_double_comet


def test_run_suite_unknown_name():
    with pytest.raises(ValueError):
        run_suite("figure9")


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
    rows = spectrum_to_csv(t, full=True).strip().splitlines()
    assert len(rows) == 1 + 7  # header plus one row per eigenvalue


def test_cache_roundtrip(tmp_path):
    path = tmp_path / "cache.jsonl"
    c = SpectrumCache(str(path))
    c.put("CODE", 1e-12, (1.0, 1.0 + 1e-12, 0.5, 0.5 + 1e-12))
    c.save()
    again = SpectrumCache(str(path))
    assert again.get("CODE", 1e-12) is not None
    # stale tolerance is not served
    assert again.get("CODE", 1e-13) is None
    assert again.get("OTHER", 1e-12) is None


def test_cli_enumerate_count(capsys):
    assert main(["enumerate", "--n", "8", "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "23"


def test_cli_enumerate_writes_blocks(capsys):
    assert main(["enumerate", "--n", "4", "--family", "dc"]) == 0
    out = capsys.readouterr().out
    blocks = [b for b in out.split("\n\n") if b.strip()]
    assert len(blocks) == 2


def test_cli_spectrum_json(capsys):
    assert main(["spectrum", "--tree", "dc:2,2,3", "--json", "--full"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["lambda1"]["hi"] - 2.0) < 1e-9
    assert len(payload["spectrum"]) == 7


def test_cli_spectrum_uses_cache(tmp_path, monkeypatch, capsys):
    cache = tmp_path / "c.jsonl"
    monkeypatch.setenv("SPECTREES_CACHE", str(cache))
    assert main(["spectrum", "--tree", "path:6", "--json"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert cache.exists()
    assert main(["spectrum", "--tree", "path:6", "--json"]) == 0
    second = json.loads(capsys.readouterr().out)
    assert first == second


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


def test_cli_gap(capsys):
    assert main(["gap", "--n", "6", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["gap_maximized_by_star"] is True


def test_cli_bad_tree_spec_is_a_clean_error(capsys):
    assert main(["spectrum", "--tree", "path:x"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'x'" in err and "Traceback" not in err


def test_cli_rejects_nonpositive_jobs(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["extremal", "--n", "6", "--jobs", "0"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_cli_verify_exit_codes(capsys):
    assert main(["verify", "--suite", "figure2"]) == 0
    capsys.readouterr()
    with pytest.raises(ValueError):
        main(["verify", "--suite", "not-a-suite"])


def test_cli_verify_report_out(tmp_path, capsys):
    out = tmp_path / "rep.csv"
    assert main(["verify", "--suite", "figure2", "--out", str(out)]) == 0
    capsys.readouterr()
    text = out.read_text()
    assert text.splitlines()[1] == "id,expected,got,tolerance,pass"
    assert main(["verify", "--suite", "figure2", "--out", str(out)]) == 0
    assert out.read_text() == text
