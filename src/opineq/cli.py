"""Command-line front end.

Subcommands: list registered checks, run one check or the whole suite over
seeded random instances, evaluate any constant against its grid oracle,
assemble the 2x2 rotation-family deficit matrix, and run the violation
search. Reports are JSON (or a lossless text rendering); exit codes are
0 = everything behaved as expected, 1 = a check outcome disagreed with its
expectation, 2 = usage error, 3 = I/O error. A usage error that opineq
finds is a ValueError, an ArithmeticError or a MemoryError (an input too
large to allocate), which `main` prints as one `error:` line.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from contextlib import contextmanager
from typing import Optional

import numpy as np

from . import registry
from .constants import (alpha_constant, beta0_constant, beta_p_constant,
                        generalized_kantorovich, kantorovich_constant,
                        mond_pecaric_beta)
from .checks import HypothesisError
from .falsify import CANDIDATE_NAME, counterexample_T, search_violations
from .functions import by_name
from .hermitian import DEFAULT_TOL, DomainError, SpectralInterval
from .io import dump_json, matrix_to_json
from .oracle import (oracle_alpha, oracle_beta0, oracle_beta_p,
                     oracle_generalized_kantorovich, oracle_kantorovich,
                     oracle_mond_pecaric_beta)
from .rng import _count
from .suite import run_suite

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3

_ANGLE_RE = re.compile(r"(?:(\d+(?:\.\d+)?)\*?)?pi(?:/(\d+(?:\.\d+)?))?")


def parse_angle(text: str) -> float:
    """Radians from a decimal literal or the exact forms pi, pi/3, k*pi/12."""
    s = text.strip().replace(" ", "")
    m = _ANGLE_RE.fullmatch(s)
    if m:
        k = float(m.group(1)) if m.group(1) else 1.0
        d = float(m.group(2)) if m.group(2) else 1.0
        if d == 0:
            raise ValueError(f"bad angle {text!r}: the denominator is 0")
        return k * math.pi / d
    return float(s)


def _resolve_seed(args) -> None:
    """Set --seed, if the command takes one: the flag, else OPINEQ_SEED,
    else 42. A seed is an integer >= 0; ValueError names where it came from."""
    if "seed" not in vars(args):
        return
    flag = "--seed"
    if args.seed is None:
        flag, text = "OPINEQ_SEED, the default --seed,", os.environ.get("OPINEQ_SEED", "42")
        try:
            args.seed = int(text)
        except ValueError:
            raise ValueError(f"{flag} must be an integer, got {text!r}") from None
    _count(args.seed, flag, 0)


# float flags that must hold a finite number, by parsed attribute; an
# attribute parsed as text (counterexample's angles) is checked once parsed
_FINITE_FLAGS = {"tol": "--tol", "m": "-m", "M": "-M", "x": "--x", "p": "--p",
                 "alpha": "--alpha", "beta": "--beta"}


def _require_finite(args) -> None:
    """inf and nan parse as floats but satisfy no tolerance or interval
    check the way a number does; ValueError exits 2."""
    for attr, flag in _FINITE_FLAGS.items():
        value = getattr(args, attr, None)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value!r}")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="opineq",
                                description="numerical checks for operator "
                                            "inequalities over Hermitian matrices")
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="print the check registry").set_defaults(run=_cmd_list)

    def report_flags(sp):
        sp.add_argument("--tol", type=float, default=DEFAULT_TOL)
        sp.add_argument("--output", default=None, help="write the JSON report here")
        sp.add_argument("--format", choices=("json", "text"), default="json")

    def seeded_report_flags(sp):
        sp.add_argument("--seed", type=int, default=None)
        report_flags(sp)
        sp.add_argument("--no-timestamp", action="store_true")

    def common(sp):
        sp.add_argument("--trials", type=int, default=200)
        sp.add_argument("-m", type=float, default=None, help="interval lower end")
        sp.add_argument("-M", type=float, default=None, help="interval upper end")
        seeded_report_flags(sp)

    c = sub.add_parser("check", help="run one or more named checks")
    c.add_argument("--name", action="append", required=True, dest="names",
                   help="check name (repeatable)")
    c.add_argument("--dim", type=int, default=None)
    common(c)
    c.set_defaults(run=_cmd_check)

    s = sub.add_parser("suite", help="run every expected-to-hold check")
    s.add_argument("--dims", default="2,4,6", help="comma-separated dimensions")
    s.add_argument("--include-expected-fail", action="store_const", dest="names",
                   const=registry.names())
    common(s)
    s.set_defaults(run=_cmd_suite)

    k = sub.add_parser("constants", help="evaluate a constant against its grid oracle")
    k.add_argument("--name", required=True, choices=tuple(_CONSTANTS))
    k.add_argument("-m", type=float, required=True)
    k.add_argument("-M", type=float, required=True)
    k.add_argument("--p", type=float, default=None)
    k.add_argument("--alpha", type=float, default=None)
    k.add_argument("--f", default=None, help="catalog function name, e.g. t^2")
    k.add_argument("--output", default=None)
    k.set_defaults(run=_cmd_constants)

    x = sub.add_parser("counterexample",
                       help="assemble the rotation-family deficit matrix T(x, alpha, beta)")
    x.add_argument("--x", type=float, default=2.0)
    x.add_argument("--alpha", default="pi/3", help="radians; accepts pi/3 style")
    x.add_argument("--beta", default="pi/4")
    report_flags(x)
    x.set_defaults(run=_cmd_counterexample)

    f = sub.add_parser("falsify", help="search for violations of a named check")
    f.add_argument("--name", default=CANDIDATE_NAME)
    f.add_argument("--budget", type=int, default=None,
                   help="random trials; omit to use the exhaustive grid "
                        "(rotation-family candidate only)")
    f.add_argument("--outdir", default=None, help="write one JSON file per violation")
    seeded_report_flags(f)
    f.set_defaults(run=_cmd_falsify)
    return p


def _emit(record: dict, fmt: str, output: Optional[str]) -> None:
    text = dump_json(record, output)
    if fmt == "json":
        print(text)
    else:
        _print_text(record)


def _print_text(record: dict) -> None:
    # lossless: every field is printed, nested records as compact JSON
    for key, val in record.items():
        if isinstance(val, list) and val and isinstance(val[0], dict):
            print(f"{key}:")
            for item in val:
                print(f"  - {json.dumps(item, sort_keys=False)}")
        else:
            print(f"{key}: {json.dumps(val)}")


def _cmd_list(args) -> int:
    width = max(len(s.name) for s in registry.REGISTRY)
    for spec in registry.REGISTRY:
        tag = "holds" if spec.expected_to_hold else "FALSE"
        line = f"{spec.name:<{width}}  [{tag}]  {spec.statement}"
        if spec.parameters:
            line += f"  ({spec.parameters})"
        print(line)
    return EXIT_OK


def _run_suite(args, dims) -> int:
    """run_suite with the options `check` and `suite` share, checked first,
    and its report emitted; an entry that stops on a DomainError or an
    ArithmeticError on the -m/-M interval names those flags, and one whose
    drawn instance breaks its hypothesis, exact but for rounding, names --tol."""
    if args.tol <= 0:
        raise ValueError("tol must be > 0")
    if (args.m is None) != (args.M is None):
        raise ValueError("give both -m and -M or neither")
    kw = dict(seed=args.seed, trials=args.trials, names=args.names, dims=dims, tol=args.tol,
              suite_name=args.command, timestamp=not args.no_timestamp)
    at = "" if args.m is None else f" at -m {args.m!r} -M {args.M!r}"
    with _stopped_entry(args, at):
        if args.m is not None:
            kw["intervals"] = [SpectralInterval(args.m, args.M)]
        report = run_suite(**kw)
    _emit(report.to_record(), args.format, args.output)
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


@contextmanager
def _stopped_entry(args, at: str = ""):
    """An entry's stop as the one line `check`, `suite` and `falsify` print:
    a DomainError or an ArithmeticError ends with `at`, and a drawn
    instance that breaks its hypothesis, exact but for rounding, names
    --tol too. A float overflow, a division by zero or an invalid operation
    raises rather than warns."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            yield
    except HypothesisError as exc:
        raise ValueError(f"{exc}: --tol {args.tol!r} is below float rounding{at}") from None
    except (DomainError, ArithmeticError) as exc:
        raise type(exc)(f"{exc.args[-1]}{at}") from None


def _entry(name: str) -> registry.CheckSpec:
    """The registry entry `name`; ValueError (exit 2) for a name not in `opineq list`."""
    if name not in registry.names():
        raise ValueError(f"unknown check name {name!r}; see `opineq list`")
    return registry.get(name)


def _cmd_check(args) -> int:
    for name in args.names:
        _entry(name)
    dims = (2, 4, 6) if args.dim is None else (_count(args.dim, "--dim"),)
    return _run_suite(args, dims)


def _cmd_suite(args) -> int:
    try:
        dims = tuple(int(d) for d in args.dims.split(","))
    except ValueError:
        raise ValueError(f"bad --dims {args.dims!r}") from None
    dims = tuple(_count(d, "--dims entries") for d in dims)
    return _run_suite(args, dims)


# name -> (closed form, grid oracle, flags); both take the flags' values
# as keywords, besides iv (the closed form) or m and M (the oracle), and
# the record lists them in this order
_CONSTANTS = {
    "kantorovich": (kantorovich_constant, oracle_kantorovich, ()),
    "generalized_kantorovich": (generalized_kantorovich, oracle_generalized_kantorovich,
                                ("p",)),
    "alpha": (alpha_constant, oracle_alpha, ("f",)),
    "beta0": (beta0_constant, oracle_beta0, ("f",)),
    "beta_p": (beta_p_constant, oracle_beta_p, ("p",)),
    "mond_pecaric_beta": (mond_pecaric_beta, oracle_mond_pecaric_beta, ("alpha", "f")),
}


def _cmd_constants(args) -> int:
    iv = SpectralInterval(args.m, args.M)
    constant, oracle_of, flags = _CONSTANTS[args.name]
    try:
        f = None if args.f is None else by_name(args.f)
    except KeyError as exc:
        raise ValueError(f"bad --f: {exc.args[0]}") from None
    kw = {flag: f if flag == "f" else getattr(args, flag) for flag in flags}
    for flag, val in kw.items():
        if val is None:
            raise ValueError(f"--{flag} is required for {args.name}")
    if "f" in kw:
        for flag, t in (("-m", iv.m), ("-M", iv.M)):
            with np.errstate(all="ignore"):
                if not np.isfinite(f(t)):
                    raise ValueError(f"{args.f} is not finite at {flag} {t!r}")
    out_of_range = ValueError(f"{args.name} is out of float range at -m {iv.m!r} -M {iv.M!r}")
    try:
        with np.errstate(all="ignore"):
            try:
                value = constant(iv=iv, **kw)
            except ValueError as exc:   # --alpha is at fault if alpha = 0 gives a value
                if "alpha" not in kw:
                    raise
                constant(iv=iv, **{**kw, "alpha": 0.0})
                raise ValueError(f"{exc} at --alpha {args.alpha!r}") from None
            oracle = oracle_of(m=iv.m, M=iv.M, **kw)
    except ArithmeticError:     # an overflow, or a search whose objective is not finite
        raise out_of_range from None
    if not (math.isfinite(value) and math.isfinite(oracle)):
        raise out_of_range
    record = {"name": args.name, "m": iv.m, "M": iv.M, "value": value,
              "oracle_value": oracle, "abs_diff": abs(value - oracle)}
    record.update((flag, getattr(args, flag)) for flag in flags)
    print(dump_json(record, args.output))
    return EXIT_OK


def _cmd_counterexample(args) -> int:
    for attr in ("alpha", "beta"):
        try:
            setattr(args, attr, parse_angle(getattr(args, attr)))
        except ValueError as exc:
            raise ValueError(f"{_FINITE_FLAGS[attr]}: {exc}") from None
    _require_finite(args)
    if args.x <= 0:
        raise ValueError("--x must be positive")
    with np.errstate(all="ignore"):     # a T out of float range is rejected below
        t, eigs, psd = counterexample_T(args.x, args.alpha, args.beta, args.tol)
        trace, det = float(np.trace(t).real), float(np.linalg.det(t).real)
    if not np.all(np.isfinite([*t.ravel(), *eigs, trace, det])):
        raise ValueError(f"T is out of float range at --x {args.x!r}")
    record = {
        "x": args.x, "alpha": args.alpha, "beta": args.beta,
        "T": matrix_to_json(t),
        "eigenvalues": list(eigs),
        "psd": psd,
        "trace": trace,
        "determinant": det,
    }
    _emit(record, args.format, args.output)
    return EXIT_OK


def _cmd_falsify(args) -> int:
    spec = _entry(args.name)
    if args.budget is not None:
        _count(args.budget, "--budget")
    if args.budget is None and args.name != CANDIDATE_NAME:
        raise ValueError(f"--budget is required for {args.name}: only {CANDIDATE_NAME} "
                         "has a grid search")
    with _stopped_entry(args):
        reports = search_violations(args.name, budget=args.budget, seed=args.seed, tol=args.tol)
    if args.outdir:
        os.makedirs(args.outdir, exist_ok=True)
        for i, rep in enumerate(reports):
            dump_json(rep.to_record(), os.path.join(args.outdir, f"violation_{i:04d}.json"))
    record = {
        "check": args.name,
        "expected_to_hold": spec.expected_to_hold,
        "mode": "random" if args.budget is not None else "grid",
        "seed": args.seed,
        "violations": len(reports),
        "reports": [r.to_record() for r in reports],
    }
    _emit(record, args.format, args.output)
    as_expected = (len(reports) == 0) == spec.expected_to_hold
    return EXIT_OK if as_expected else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _require_finite(args)
        _resolve_seed(args)
        return args.run(args)
    except (ValueError, MemoryError) as exc:   # MemoryError: an input too large to allocate
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:  # a value beyond float range, or a division by 0
        print(f"error: an input is out of range: {exc.args[-1]}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
