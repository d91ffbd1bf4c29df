"""Command-line front end.

Subcommands: list registered checks, run one check or the whole suite over
seeded random instances, evaluate any constant against its grid oracle,
assemble the 2x2 rotation-family deficit matrix, and run the violation
search. Reports are JSON (or a lossless text rendering); exit codes are
0 = everything behaved as expected, 1 = a check outcome disagreed with its
expectation, 2 = usage error, 3 = I/O error.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from typing import Optional

import numpy as np

from . import registry
from .constants import (alpha_constant, beta0_constant, beta_p_constant,
                        generalized_kantorovich, kantorovich_constant,
                        mond_pecaric_beta)
from .falsify import CANDIDATE_NAME, counterexample_T, search_violations
from .functions import by_name
from .hermitian import DEFAULT_TOL, DomainError, SpectralInterval
from .io import dump_json, matrix_to_json
from .oracle import (oracle_alpha, oracle_beta0, oracle_beta_p,
                     oracle_generalized_kantorovich, oracle_kantorovich,
                     oracle_mond_pecaric_beta)
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


def _default_seed() -> int:
    return int(os.environ.get("OPINEQ_SEED", "42"))


# float flags that must hold a finite number, by parsed attribute; an
# attribute parsed as text (counterexample's angles) is checked once parsed
_FINITE_FLAGS = {"tol": "--tol", "m": "-m", "M": "-M", "x": "--x", "p": "--p",
                 "alpha": "--alpha"}


def _require_finite(args) -> None:
    """inf and nan parse as floats but satisfy no tolerance or interval
    check the way a number does; ValueError exits 2."""
    for attr, flag in _FINITE_FLAGS.items():
        value = getattr(args, attr, None)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value!r}")


def _validate_run_args(args) -> None:
    """Checks on the options `check` and `suite` share; ValueError exits 2."""
    if args.trials < 1:
        raise ValueError("trials must be >= 1")
    if args.tol <= 0:
        raise ValueError("tol must be > 0")
    dim = getattr(args, "dim", None)
    if dim is not None and dim < 1:
        raise ValueError("dim must be >= 1")
    if (args.m is None) != (args.M is None):
        raise ValueError("give both -m and -M or neither")
    if args.m is not None and not (0 < args.m <= args.M):
        raise ValueError(f"need 0 < m <= M, got ({args.m}, {args.M})")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="opineq",
                                description="numerical checks for operator "
                                            "inequalities over Hermitian matrices")
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="print the check registry")

    def common(sp, trials_default=200):
        sp.add_argument("--trials", type=int, default=trials_default)
        sp.add_argument("--seed", type=int, default=_default_seed())
        sp.add_argument("--tol", type=float, default=DEFAULT_TOL)
        sp.add_argument("-m", type=float, default=None, help="interval lower end")
        sp.add_argument("-M", type=float, default=None, help="interval upper end")
        sp.add_argument("--output", default=None, help="write the JSON report here")
        sp.add_argument("--format", choices=("json", "text"), default="json")
        sp.add_argument("--no-timestamp", action="store_true")

    c = sub.add_parser("check", help="run one or more named checks")
    c.add_argument("--name", action="append", required=True,
                   help="check name (repeatable)")
    c.add_argument("--dim", type=int, default=None)
    common(c)

    s = sub.add_parser("suite", help="run every expected-to-hold check")
    s.add_argument("--dims", default="2,4,6", help="comma-separated dimensions")
    s.add_argument("--include-expected-fail", action="store_true")
    common(s)

    k = sub.add_parser("constants", help="evaluate a constant against its grid oracle")
    k.add_argument("--name", required=True,
                   choices=("kantorovich", "generalized_kantorovich", "alpha",
                            "beta0", "beta_p", "mond_pecaric_beta"))
    k.add_argument("-m", type=float, required=True)
    k.add_argument("-M", type=float, required=True)
    k.add_argument("--p", type=float, default=None)
    k.add_argument("--alpha", type=float, default=None)
    k.add_argument("--f", default=None, help="catalog function name, e.g. t^2")
    k.add_argument("--output", default=None)

    x = sub.add_parser("counterexample",
                       help="assemble the rotation-family deficit matrix T(x, alpha, beta)")
    x.add_argument("--x", type=float, default=2.0)
    x.add_argument("--alpha", default="pi/3", help="radians; accepts pi/3 style")
    x.add_argument("--beta", default="pi/4")
    x.add_argument("--tol", type=float, default=DEFAULT_TOL)
    x.add_argument("--output", default=None)
    x.add_argument("--format", choices=("json", "text"), default="json")

    f = sub.add_parser("falsify", help="search for violations of a named check")
    f.add_argument("--name", default=CANDIDATE_NAME)
    f.add_argument("--budget", type=int, default=None,
                   help="random trials; omit to use the exhaustive grid "
                        "(rotation-family candidate only)")
    f.add_argument("--seed", type=int, default=_default_seed())
    f.add_argument("--tol", type=float, default=DEFAULT_TOL)
    f.add_argument("--outdir", default=None, help="write one JSON file per violation")
    f.add_argument("--output", default=None)
    f.add_argument("--format", choices=("json", "text"), default="json")
    f.add_argument("--no-timestamp", action="store_true")
    return p


def _emit(record: dict, fmt: str, output: Optional[str]) -> None:
    text = dump_json(record, output)
    if fmt == "json":
        print(text)
    else:
        _print_text(record)


def _print_text(record: dict, indent: str = "") -> None:
    # lossless: every field is printed, nested records as compact JSON
    for key, val in record.items():
        if isinstance(val, list) and val and isinstance(val[0], dict):
            print(f"{indent}{key}:")
            for item in val:
                print(f"{indent}  - {json.dumps(item, sort_keys=False)}")
        else:
            print(f"{indent}{key}: {json.dumps(val)}")


def _cmd_list(args) -> int:
    width = max(len(s.name) for s in registry.REGISTRY)
    for spec in registry.REGISTRY:
        tag = "holds" if spec.expected_to_hold else "FALSE"
        line = f"{spec.name:<{width}}  [{tag}]  {spec.statement}"
        if spec.parameters:
            line += f"  ({spec.parameters})"
        print(line)
    return EXIT_OK


def _run_suite(args, suite_name, dims, names=None, include_expected_fail=False):
    """run_suite with the options `check` and `suite` share; an entry that
    stops on a DomainError on the -m/-M interval names those flags."""
    kw = dict(seed=args.seed, trials=args.trials, names=names, dims=dims,
              tol=args.tol, include_expected_fail=include_expected_fail,
              suite_name=suite_name, timestamp=not args.no_timestamp)
    if args.m is None:
        return run_suite(**kw)
    try:
        return run_suite(intervals=[SpectralInterval(args.m, args.M)], **kw)
    except DomainError as exc:
        raise DomainError(f"{exc} at -m {args.m!r} -M {args.M!r}") from None


def _cmd_check(args, parser) -> int:
    names = list(dict.fromkeys(args.name))
    known = set(registry.names())
    for n in names:
        if n not in known:
            parser.error(f"unknown check name {n!r}; see `opineq list`")
    dims = (args.dim,) if args.dim else (2, 4, 6)
    report = _run_suite(args, "check", dims, names=names, include_expected_fail=True)
    _emit(report.to_record(), args.format, args.output)
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


def _cmd_suite(args, parser) -> int:
    try:
        dims = tuple(int(d) for d in args.dims.split(","))
    except ValueError:
        parser.error(f"bad --dims {args.dims!r}")
    if min(dims) < 1:
        raise ValueError(f"--dims entries must be >= 1, got {args.dims!r}")
    report = _run_suite(args, "suite", dims, include_expected_fail=args.include_expected_fail)
    _emit(report.to_record(), args.format, args.output)
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


def _cmd_constants(args, parser) -> int:
    iv = SpectralInterval(args.m, args.M)
    name = args.name
    need = lambda flag, val: parser.error(f"--{flag} is required for {name}") if val is None else None
    try:
        f = None if args.f is None else by_name(args.f)
    except KeyError as exc:
        raise ValueError(f"bad --f: {exc.args[0]}") from None
    if name in ("alpha", "beta0", "mond_pecaric_beta"):
        need("f", args.f)
        for flag, t in (("-m", iv.m), ("-M", iv.M)):
            with np.errstate(all="ignore"):
                if not np.isfinite(f(t)):
                    raise ValueError(f"{args.f} is not finite at {flag} {t!r}")
    # a value out of float range is rejected below, naming the interval
    with np.errstate(all="ignore"):
        if name == "kantorovich":
            value, oracle = kantorovich_constant(iv), oracle_kantorovich(iv.m, iv.M)
        elif name == "generalized_kantorovich":
            need("p", args.p)
            value = generalized_kantorovich(args.p, iv)
            oracle = oracle_generalized_kantorovich(args.p, iv.m, iv.M)
        elif name == "alpha":
            value, oracle = alpha_constant(f, iv), oracle_alpha(f, iv.m, iv.M)
        elif name == "beta0":
            value, oracle = beta0_constant(f, iv), oracle_beta0(f, iv.m, iv.M)
        elif name == "beta_p":
            need("p", args.p)
            value, oracle = beta_p_constant(args.p, iv), oracle_beta_p(args.p, iv.m, iv.M)
        else:
            need("alpha", args.alpha)
            try:
                value = mond_pecaric_beta(f, iv, args.alpha)
            except ValueError as exc:   # --alpha is at fault if alpha = 0 gives a value
                mond_pecaric_beta(f, iv, 0.0)
                raise ValueError(f"{exc} at --alpha {args.alpha!r}") from None
            oracle = oracle_mond_pecaric_beta(f, iv.m, iv.M, args.alpha)
    if not (math.isfinite(value) and math.isfinite(oracle)):
        raise ValueError(f"{name} is out of float range at -m {iv.m!r} -M {iv.M!r}")
    record = {"name": name, "m": iv.m, "M": iv.M, "value": value,
              "oracle_value": oracle, "abs_diff": abs(value - oracle)}
    if args.p is not None:
        record["p"] = args.p
    if args.alpha is not None:
        record["alpha"] = args.alpha
    if args.f is not None:
        record["f"] = args.f
    print(dump_json(record, args.output))
    return EXIT_OK


def _cmd_counterexample(args, parser) -> int:
    try:
        alpha, beta = parse_angle(args.alpha), parse_angle(args.beta)
    except ValueError as exc:
        parser.error(str(exc))
    for flag, value in (("--alpha", alpha), ("--beta", beta)):
        if not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value!r}")
    if args.x <= 0:
        parser.error("--x must be positive")
    with np.errstate(all="ignore"):     # a T out of float range is rejected below
        t, eigs, psd = counterexample_T(args.x, alpha, beta, args.tol)
        trace, det = float(np.trace(t).real), float(np.linalg.det(t).real)
    if not np.all(np.isfinite([*t.ravel(), *eigs, trace, det])):
        raise ValueError(f"T is out of float range at --x {args.x!r}")
    record = {
        "x": args.x, "alpha": alpha, "beta": beta,
        "T": matrix_to_json(t),
        "eigenvalues": list(eigs),
        "psd": psd,
        "trace": trace,
        "determinant": det,
    }
    _emit(record, args.format, args.output)
    return EXIT_OK


def _cmd_falsify(args, parser) -> int:
    if args.name not in set(registry.names()):
        parser.error(f"unknown check name {args.name!r}; see `opineq list`")
    if args.budget is not None and args.budget < 1:
        raise ValueError(f"--budget must be >= 1, got {args.budget}")
    spec = registry.get(args.name)
    reports = search_violations(args.name, budget=args.budget,
                                seed=args.seed, tol=args.tol)
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _require_finite(args)
        if args.command in ("check", "suite"):
            _validate_run_args(args)
        if args.command == "list":
            return _cmd_list(args)
        if args.command == "check":
            return _cmd_check(args, parser)
        if args.command == "suite":
            return _cmd_suite(args, parser)
        if args.command == "constants":
            return _cmd_constants(args, parser)
        if args.command == "counterexample":
            return _cmd_counterexample(args, parser)
        if args.command == "falsify":
            return _cmd_falsify(args, parser)
    except SystemExit as exc:  # parser.error inside a command
        return int(exc.code or 0)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OverflowError as exc:    # a constant beyond float range
        print(f"error: an input is out of range: {exc.args[-1]}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
