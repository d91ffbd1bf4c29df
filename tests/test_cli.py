"""CLI surface: angle parsing, exit codes, report plumbing."""
import dataclasses
import json
import warnings

import numpy as np
import pytest

from opineq import registry
from opineq.cli import (_CONSTANTS, EXIT_CHECK_FAILED, EXIT_IO, EXIT_OK, EXIT_USAGE,
                        main, parse_angle)
from opineq.falsify import ViolationReport
from opineq.io import dump_json, load_json


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


@pytest.mark.parametrize("flag,value", [("--alpha", "pi/0"), ("--beta", "pi/0.0"),
                                        ("--alpha", "3*pi/0")])
def test_counterexample_rejects_a_zero_denominator(capsys, flag, value):
    assert main(["counterexample", flag, value]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err and captured.out == ""
    assert "denominator" in captured.err


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


@pytest.mark.parametrize("value,problem", [("abc", "must be an integer, got 'abc'"),
                                           ("-3", "must be >= 0, got -3")])
def test_suite_seed_env_must_be_a_seed(capsys, monkeypatch, value, problem):
    # a usage error for a command that takes a seed, unless --seed is given;
    # `list` takes none
    monkeypatch.setenv("OPINEQ_SEED", value)
    assert main(["suite", "--trials", "2", "--dims", "2"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: OPINEQ_SEED, the default --seed, {problem}\n"
    assert main(["suite", "--trials", "2", "--dims", "2", "--seed", "1"]) == EXIT_OK
    assert main(["list"]) == EXIT_OK


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


# a valid value for each flag a constant may require
_FLAG_VALUES = {"p": "2", "f": "t^2", "alpha": "1"}


@pytest.mark.parametrize("name,flag", [(name, flag) for name, (_, _, flags) in _CONSTANTS.items()
                                       for flag in flags])
def test_constants_missing_parameter(capsys, name, flag):
    given = [arg for other in _CONSTANTS[name][2] if other != flag
             for arg in (f"--{other}", _FLAG_VALUES[other])]
    assert main(["constants", "--name", name, "-m", "1", "-M", "2", *given]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: --{flag} is required for {name}\n"


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
    (["constants", "--name", "mond_pecaric_beta", "-m", "1", "-M", "2", "--f", "t^2",
      "--alpha", "nan"], "--alpha must be finite"),
    (["constants", "--name", "mond_pecaric_beta", "-m", "1", "-M", "2", "--f", "t^2",
      "--alpha", "1e308"], "objective is not finite"),
    (["constants", "--name", "generalized_kantorovich", "-m", "1", "-M", "1.000000001",
      "--p", "1.0000001"], "cancels to 0"),
    (["constants", "--name", "generalized_kantorovich", "-m", "6.103617184218336",
      "-M", "6.103617184225374", "--p=-2.636559007040525e-05"],
     "positive in exact arithmetic"),
    (["check", "--name", "bogus"], "unknown check name 'bogus'"),
    (["falsify", "--name", "bogus"], "unknown check name 'bogus'"),
    (["falsify", "--name", "kantorovich"], "--budget is required for kantorovich"),
    (["suite", "--dims", "2,x"], "bad --dims '2,x'"),
    (["counterexample", "--x", "-1"], "--x must be positive"),
    (["counterexample", "--alpha", "three"], "--alpha: could not convert"),
], ids=["constants-unknown-f", "falsify-budget-negative", "falsify-budget-0",
        "suite-dims-0", "suite-dims-entry-0", "check-tol-inf", "suite-tol-nan",
        "constants-M-inf", "constants-p-nan", "counterexample-x-nan",
        "counterexample-x-inf", "counterexample-tol-nan", "constants-alpha-nan",
        "constants-alpha-overflow",
        "constants-generalized-kantorovich-cancellation",
        "constants-generalized-kantorovich-inner-zero", "check-unknown-name",
        "falsify-unknown-name", "falsify-without-budget", "suite-dims-not-an-integer",
        "counterexample-x-negative", "counterexample-alpha-not-an-angle"])
def test_bad_flag_value_is_usage_error(capsys, argv, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
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


def test_falsify_writes_one_replayable_file_per_violation(capsys, tmp_path):
    # below the noise floor the grid flags near-zero eigenvalues; each
    # report is written to its own file and replays from that JSON alone
    outdir = tmp_path / "viol"
    code, out = run_cli(capsys, "falsify", "--tol", "1e-18", "--outdir", str(outdir))
    assert code == EXIT_OK
    rec = json.loads(out)
    files = sorted(outdir.glob("*.json"))
    assert rec["violations"] > 0
    assert [f.name for f in files] == [f"violation_{i:04d}.json" for i in range(rec["violations"])]
    for path, shown in zip(files, rec["reports"]):
        loaded = load_json(str(path))
        assert loaded == shown
        assert ViolationReport(**loaded).revalidate()


def test_output_into_a_missing_directory_is_an_io_error(capsys, tmp_path):
    target = tmp_path / "missing" / "report.json"
    code = main(["check", "--name", "kantorovich", "--trials", "1", "--output", str(target)])
    captured = capsys.readouterr()
    assert code == EXIT_IO
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("i/o error: ")
    assert not target.exists()


def test_falsify_true_check_passes(capsys):
    code, out = run_cli(capsys, "falsify", "--name", "kantorovich",
                        "--budget", "20")
    assert code == EXIT_OK
    assert json.loads(out)["violations"] == 0


def test_module_entrypoint():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import opineq
    # the child finds the package the tests import, with or without PYTHONPATH
    src = str(Path(opineq.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "opineq", "list"],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == EXIT_OK
    assert "ando" in proc.stdout


def _strict_json(text: str):
    """json.loads that rejects NaN and the infinities, which are not JSON."""
    def reject(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=reject)


# degenerate inputs: out-of-range intervals and points, a negative
# tolerance, m = M, and dimension 1; each gives a result or a usage error,
# which names the flag at fault where one is given
@pytest.mark.parametrize("argv,code,flag", [
    (["constants", "--name", "kantorovich", "-m", "1e-300", "-M", "1e300"], EXIT_USAGE, "-m"),
    (["constants", "--name", "kantorovich", "-m", "1e-320", "-M", "1"], EXIT_USAGE, "-m"),
    (["constants", "--name", "generalized_kantorovich", "-m", "1", "-M", "1e300",
      "--p", "3"], EXIT_USAGE, "-m"),
    (["constants", "--name", "beta_p", "-m", "1", "-M", "1e300", "--p", "2"], EXIT_USAGE, "-m"),
    (["constants", "--name", "mond_pecaric_beta", "-m", "1", "-M", "2", "--f", "t^2",
      "--alpha", "1e308"], EXIT_USAGE, "--alpha 1e+308"),
    (["counterexample", "--x", "1e-300"], EXIT_USAGE, None),
    (["counterexample", "--x", "1e300"], EXIT_USAGE, None),
    (["counterexample", "--tol", "-1"], EXIT_USAGE, None),
    (["counterexample", "--alpha", "nan"], EXIT_USAGE, "--alpha"),
    (["counterexample", "--beta", "inf"], EXIT_USAGE, "--beta"),
    (["falsify", "--tol", "-1"], EXIT_USAGE, None),
    (["constants", "--name", "generalized_kantorovich", "-m", "6.103617184218336",
      "-M", "6.103617184225374", "--p=-2.636559007040525e-05"], EXIT_USAGE, None),
    (["constants", "--name", "beta_p", "-m", "63.36578001821514",
      "-M", "63.365780018239555", "--p", "1.0000728291824297"], EXIT_OK, None),
    (["constants", "--name", "alpha", "-m", "1", "-M", "1", "--f", "t^2"], EXIT_OK, None),
    (["suite", "--dims", "1", "--trials", "1"], EXIT_OK, None),
    (["check", "--name", "kantorovich", "-m", "1", "-M", "1", "--trials", "2"], EXIT_OK, None),
    (["constants", "--name", "alpha", "-m", "1e4", "-M", "2e4", "--f", "t^2"], EXIT_OK, None),
    (["constants", "--name", "beta0", "-m", "1", "-M", "1e6", "--f", "t^0.5"], EXIT_OK, None),
    (["suite", "-m", "1", "-M", "1e3", "--trials", "5"], EXIT_OK, None),
    (["constants", "--name", "alpha", "-m", "1", "-M", "1e300", "--f", "t^2"], EXIT_USAGE, "-M"),
    (["constants", "--name", "beta0", "-m", "1", "-M", "1e300", "--f", "t^2"], EXIT_USAGE, "-M"),
    (["constants", "--name", "mond_pecaric_beta", "-m", "1", "-M", "1e300", "--f", "t^2",
      "--alpha", "1"], EXIT_USAGE, "-M"),
    (["suite", "-m", "1", "-M", "1e6"], EXIT_USAGE, "kantorovich_sharp: "),
    (["suite", "-m", "1", "-M", "1e16"], EXIT_USAGE, "choi_davis: "),
    (["constants", "--name", "kantorovich", "-m", "5e-324", "-M", "1e-320"], EXIT_USAGE, "-m"),
    (["constants", "--name", "beta_p", "-m", "5e-324", "-M", "1e-12", "--p", "1e12"],
     EXIT_USAGE, "-m"),
    (["check", "--name", "kantorovich_squared", "--trials", "1", "--dim", "3",
      "-m", "1e-300", "-M", "1e-300"], EXIT_USAGE, "-m"),
    (["check", "--name", "scalar_power_chain", "--trials", "1", "--dim", "1",
      "-m", "0.5", "-M", "1e300"], EXIT_USAGE, "-m"),
    (["check", "--name", "minkowski_general", "--trials", "1", "--dim", "1",
      "-m", "1e200", "-M", "1.7e308"], EXIT_USAGE, "-m"),
    (["check", "--name", "mond_pecaric", "--trials", "1", "--dim", "1",
      "-m", "1e-300", "-M", "1e300"], EXIT_USAGE, "-m"),
    (["check", "--name", "additive_sqrt", "--trials", "1", "--dim", "1",
      "-m", "5e-324", "-M", "1e200"], EXIT_USAGE, "-m"),
    (["check", "--name", "tuple_minkowski", "--trials", "1", "--dim", "3",
      "-m", "1e-320", "-M", "0.5"], EXIT_USAGE, "-m"),
    # 1.42 PiB, beyond the x86-64 address space: refused before any memory
    # is touched (seed 42 draws a compression, whose first array is that big)
    (["check", "--name", "kantorovich", "--trials", "1", "--dim", "10000000", "--seed", "42"],
     EXIT_USAGE, "Unable to allocate"),
    (["check", "--name", "kantorovich", "--trials", "2", "--seed", "-1"], EXIT_USAGE, "--seed"),
    (["falsify", "--name", "kantorovich", "--budget", "3", "--seed", "-5"], EXIT_USAGE,
     "--seed"),
    (["suite", "--trials", "20", "--dims", "2,3,4,5,6,7,8", "--tol", "1e-15"], EXIT_USAGE,
     "--tol"),
    (["check", "--name", "tuple_minkowski", "--trials", "20", "--tol", "1e-16"], EXIT_USAGE,
     "--tol"),
    (["check", "--name", "tuple_minkowski", "--trials", "20", "--tol", "1e-16",
      "-m", "1", "-M", "2"], EXIT_USAGE, "--tol"),
    (["falsify", "--name", "tuple_minkowski", "--budget", "20", "--tol", "1e-16"], EXIT_USAGE,
     "--tol"),
    (["check", "--name", "minkowski_general", "--dim", "1", "--trials", "1",
      "-m", "1e-300", "-M", "1e300"], EXIT_USAGE, "minkowski_general: "),
    (["check", "--name", "mond_pecaric", "--dim", "2", "--trials", "1",
      "-m", "1e-150", "-M", "1e150"], EXIT_USAGE, "mond_pecaric: "),
    (["constants", "--name", "alpha", "-m", "1e-300", "-M", "1e300", "--f", "t^-1"],
     EXIT_USAGE, "alpha is out of float range at -m 1e-300 -M 1e+300"),
    (["check", "--name", "mond_pecaric", "--trials", "100", "-m", "3", "-M", "3"],
     EXIT_OK, None),
    (["check", "--name", "minkowski_general", "--trials", "100", "-m", "3", "-M", "3"],
     EXIT_OK, None),
    (["check", "--name", "minkowski_general", "-m", "2", "-M", "2.000000001"], EXIT_OK, None),
    (["check", "--name", "minkowski_general", "-m", "1", "-M", "1.0000001"], EXIT_OK, None),
], ids=["kantorovich-overflow", "kantorovich-subnormal-m", "generalized-kantorovich-overflow",
        "beta-p-overflow",
        "mond-pecaric-alpha-overflow",
        "counterexample-x-tiny", "counterexample-x-huge", "counterexample-tol-negative",
        "counterexample-alpha-nan", "counterexample-beta-inf",
        "falsify-grid-tol-negative",
        "generalized-kantorovich-inner-zero", "beta-p-clamped", "alpha-m-equals-M",
        "suite-dim-1", "check-m-equals-M", "alpha-above-float-spacing",
        "beta0-above-float-spacing", "suite-wide-interval", "alpha-f-overflow",
        "beta0-f-overflow", "mond-pecaric-f-overflow", "suite-domain-error",
        "suite-domain-error-rounded-interval", "kantorovich-zero-division",
        "beta-p-zero-division", "check-zero-division", "check-power-overflow",
        "check-minkowski-overflow", "check-mond-pecaric-overflow",
        "check-additive-sqrt-overflow", "check-tuple-minkowski-invalid",
        "check-dim-beyond-memory", "check-seed-negative", "falsify-seed-negative",
        "suite-tol-below-rounding", "check-tol-below-rounding",
        "check-tol-below-rounding-on-interval", "falsify-tol-below-rounding",
        "check-minkowski-objective-not-finite", "check-mond-pecaric-objective-not-finite",
        "alpha-objective-not-finite", "check-mond-pecaric-point-interval",
        "check-minkowski-point-interval", "check-minkowski-near-point-interval",
        "check-minkowski-narrow-interval"])
def test_degenerate_input_gives_result_or_usage_error(capsys, argv, code, flag):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    if code == EXIT_OK:
        _strict_json(captured.out)
    else:
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
        assert flag is None or flag in captured.err
        if argv[0] in ("check", "suite") and "-m" in argv:  # a stopped entry names the flags
            m, M = (float(argv[argv.index(flag) + 1]) for flag in ("-m", "-M"))
            assert captured.err.rstrip().endswith(f"at -m {m!r} -M {M!r}")


# an entry stopped by its instance names the entry, and the flags at fault
@pytest.mark.parametrize("argv,head,tail", [
    (["check", "--name", "reverse_ando_sandwich", "-m", "1", "-M", "1e6", "--dim", "3",
      "--trials", "1"],
     "error: reverse_ando_sandwich: second operand must be positive definite, "
     "lambda_min = -2.312e+02 at -m 1.0 -M 1000000.0\n", ""),
    (["falsify", "--name", "tuple_minkowski", "--budget", "20", "--tol", "1e-16"],
     "error: tuple_minkowski: sandwich 1.0 I <= X <= 2.0 I violated (margins ",
     "): --tol 1e-16 is below float rounding\n"),
], ids=["check-mean-not-positive", "falsify-tol-below-rounding"])
def test_a_stopped_entry_names_itself_and_the_flags(capsys, argv, head, tail):
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(head) and err.endswith(tail) and err.count("\n") == 1


# falsify once ran outside the floating-point errstate of check and suite,
# so an overflow in a check warned and the search went on
def test_falsify_stops_on_an_overflow_as_check_and_suite_do(capsys, monkeypatch):
    spec = registry.get("kantorovich")
    overflowing = dataclasses.replace(spec, check=lambda stack: np.float64(1e308) * 10)
    monkeypatch.setitem(registry._BY_NAME, spec.name, overflowing)
    assert main(["falsify", "--name", "kantorovich", "--budget", "2"]) == EXIT_USAGE
    assert capsys.readouterr().err == ("error: an input is out of range: "
                                       "overflow encountered in scalar multiply\n")


@pytest.mark.parametrize("flag,value", [("--alpha", "nan"), ("--beta", "-inf"),
                                        ("--alpha", "1e400")])
def test_counterexample_names_the_non_finite_angle(capsys, flag, value):
    assert main(["counterexample", f"{flag}={value}"]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {flag} must be finite, got {float(value)!r}\n"


def test_reports_reject_non_finite_floats():
    with pytest.raises(ValueError):
        dump_json({"margin": float("nan")})
    with pytest.raises(ValueError):
        dump_json({"margin": [1.0, float("-inf")]})
