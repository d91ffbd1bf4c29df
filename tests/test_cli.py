"""CLI surface: angle parsing, exit codes, report plumbing."""
import json

import numpy as np
import pytest

from opineq.cli import (EXIT_CHECK_FAILED, EXIT_OK, EXIT_USAGE, main,
                        parse_angle)


@pytest.mark.parametrize("text,value", [
    ("pi", np.pi),
    ("pi/3", np.pi / 3),
    ("2*pi/3", 2 * np.pi / 3),
    ("5*pi/12", 5 * np.pi / 12),
    ("0.75", 0.75),
    (" pi / 4 ", np.pi / 4),
    ("0", 0.0),
])
def test_parse_angle(text, value):
    assert abs(parse_angle(text) - value) < 1e-15


def test_parse_angle_rejects_garbage():
    with pytest.raises(ValueError):
        parse_angle("three")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_list(capsys):
    code, out = run_cli(capsys, "list")
    assert code == EXIT_OK
    assert "kantorovich" in out and "inverse_square_candidate" in out


def test_check_single_name(capsys):
    code, out = run_cli(capsys, "check", "--name", "kantorovich",
                        "--dim", "3", "--trials", "4", "--no-timestamp")
    assert code == EXIT_OK
    rec = json.loads(out)
    assert rec["suite"] == "check"
    assert rec["dims"] == [3]
    assert all(c["entry"] == "kantorovich" for c in rec["checks"])


def test_check_unknown_name_is_usage_error(capsys):
    assert main(["check", "--name", "bogus"]) == EXIT_USAGE


@pytest.mark.parametrize("argv,message", [
    (["--trials", "0"], "trials must be >= 1"),
    (["-m", "3", "-M", "1"], "need 0 < m <= M"),
    (["--tol", "0"], "tol must be > 0"),
    (["-m", "1"], "give both -m and -M or neither"),
    (["--dim", "0"], "dim must be >= 1"),
], ids=["trials-0", "m-above-M", "tol-0", "m-without-M", "dim-0"])
def test_check_rejects_bad_input(capsys, argv, message):
    assert main(["check", "--name", "ando", *argv]) == EXIT_USAGE
    assert message in capsys.readouterr().err


def test_check_interval_override(capsys):
    code, out = run_cli(capsys, "check", "--name", "kantorovich", "--trials",
                        "3", "-m", "1", "-M", "2", "--no-timestamp")
    assert code == EXIT_OK
    rec = json.loads(out)
    assert rec["intervals"] == [[1.0, 2.0]]


def test_suite_small(capsys, tmp_path):
    out_file = tmp_path / "suite.json"
    code, out = run_cli(capsys, "suite", "--trials", "2", "--dims", "2",
                        "--no-timestamp", "--output", str(out_file))
    assert code == EXIT_OK
    on_disk = json.loads(out_file.read_text())
    assert on_disk == json.loads(out)
    assert on_disk["ok"] is True


def test_suite_seed_env_override(capsys, monkeypatch):
    monkeypatch.setenv("OPINEQ_SEED", "123")
    code, out = run_cli(capsys, "suite", "--trials", "2", "--dims", "2",
                        "--no-timestamp")
    assert code == EXIT_OK
    assert json.loads(out)["seed"] == 123


def test_suite_text_format_is_lossless(capsys):
    code, out = run_cli(capsys, "suite", "--trials", "2", "--dims", "2",
                        "--format", "text", "--no-timestamp")
    assert code == EXIT_OK
    for key in ("suite:", "seed:", "min_margin:", "ok:"):
        assert key in out


def test_constants_subcommand(capsys):
    code, out = run_cli(capsys, "constants", "--name", "beta_p",
                        "-m", "1", "-M", "2", "--p", "2")
    assert code == EXIT_OK
    rec = json.loads(out)
    assert abs(rec["value"] - 1.0 / 6.0) < 1e-12
    assert rec["abs_diff"] < 1e-8


def test_constants_missing_parameter(capsys):
    assert main(["constants", "--name", "beta_p", "-m", "1", "-M", "2"]) == EXIT_USAGE


@pytest.mark.parametrize("argv,message", [
    (["constants", "--name", "alpha", "-m", "1", "-M", "2", "--f", "foo"], "bad --f"),
    (["falsify", "--name", "kantorovich", "--budget", "-3"], "--budget must be >= 1"),
    (["falsify", "--name", "kantorovich", "--budget", "0"], "--budget must be >= 1"),
    (["suite", "--dims", "0"], "--dims entries must be >= 1"),
    (["suite", "--dims", "2,0"], "--dims entries must be >= 1"),
    (["check", "--name", "kantorovich", "--trials", "2", "--tol", "inf"],
     "--tol must be finite"),
    (["suite", "--tol", "nan"], "--tol must be finite"),
    (["constants", "--name", "kantorovich", "-m", "1", "-M", "inf"], "-M must be finite"),
    (["constants", "--name", "beta_p", "-m", "1", "-M", "2", "--p", "nan"],
     "--p must be finite"),
    (["counterexample", "--x", "nan"], "--x must be finite"),
    (["counterexample", "--x", "inf"], "--x must be finite"),
    (["counterexample", "--tol", "nan"], "--tol must be finite"),
    (["constants", "--name", "generalized_kantorovich", "-m", "1", "-M", "1.000000001",
      "--p", "1.0000001"], "cancels to 0"),
], ids=["constants-unknown-f", "falsify-budget-negative", "falsify-budget-0",
        "suite-dims-0", "suite-dims-entry-0", "check-tol-inf", "suite-tol-nan",
        "constants-M-inf", "constants-p-nan", "counterexample-x-nan",
        "counterexample-x-inf", "counterexample-tol-nan",
        "constants-generalized-kantorovich-cancellation"])
def test_bad_flag_value_is_usage_error(capsys, argv, message):
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and message in captured.err


def test_counterexample_subcommand(capsys):
    code, out = run_cli(capsys, "counterexample", "--x", "2",
                        "--alpha", "pi/3", "--beta", "pi/4")
    assert code == EXIT_OK
    rec = json.loads(out)
    assert rec["psd"] is True
    assert abs(rec["trace"] - sum(rec["eigenvalues"])) < 1e-12
    assert abs(rec["T"]["re"][0][0] - 0.08264506) < 1e-8


def test_falsify_candidate_reports_sensitivity_failure(capsys, tmp_path):
    # no violation exists on the family, and the candidate is marked
    # expected-to-fail, so the exit code flags the mismatch
    outdir = tmp_path / "viol"
    code, out = run_cli(capsys, "falsify", "--outdir", str(outdir))
    assert code == EXIT_CHECK_FAILED
    rec = json.loads(out)
    assert rec["violations"] == 0 and rec["mode"] == "grid"
    assert list(outdir.glob("*.json")) == []


def test_falsify_true_check_passes(capsys):
    code, out = run_cli(capsys, "falsify", "--name", "kantorovich",
                        "--budget", "20")
    assert code == EXIT_OK
    assert json.loads(out)["violations"] == 0


def test_falsify_unknown_name(capsys):
    assert main(["falsify", "--name", "bogus"]) == EXIT_USAGE


def test_module_entrypoint():
    import subprocess
    import sys
    proc = subprocess.run([sys.executable, "-m", "opineq", "list"],
                          capture_output=True, text=True)
    assert proc.returncode == EXIT_OK
    assert "ando" in proc.stdout
