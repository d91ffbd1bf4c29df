"""Suite runner.

Runs registry entries for a number of seeded trials each and aggregates one
record per distinct result name: the worst-margin witness seen, with trial
and failure counts. Trials draw from streams keyed by (seed, entry name,
trial index), so reports are reproducible regardless of evaluation order;
an entry's trials are evaluated together (see `registry.CheckSpec`) and
folded into the aggregates one by one, in trial order, as they complete.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from typing import Optional, Sequence

from . import registry
from .checks import CheckResult
from .hermitian import DEFAULT_TOL, SpectralInterval, _tolerance
from .rng import _count, streams


@dataclass
class SuiteReport:
    suite: str
    seed: int
    trials: int
    tolerance: float
    dims: list
    intervals: list
    checks: list = field(default_factory=list)
    min_margin: float = float("inf")
    failures: list = field(default_factory=list)
    expected_fail_violations: dict = field(default_factory=dict)
    generated_at: Optional[str] = None

    @property
    def ok(self) -> bool:
        """All expected-to-hold results held and every included known-false
        candidate produced at least one violation."""
        if self.failures:
            return False
        return all(n > 0 for n in self.expected_fail_violations.values())

    def to_record(self) -> dict:
        """The fields in order, with `ok` before `generated_at`, which is
        left out when None."""
        rec = asdict(self)
        stamp = rec.pop("generated_at")
        rec["ok"] = self.ok
        if stamp is not None:
            rec["generated_at"] = stamp
        return rec


class _Aggregate:
    __slots__ = ("worst", "worst_trial", "count", "fails")

    def __init__(self):
        self.worst: Optional[CheckResult] = None
        self.worst_trial = -1
        self.count = 0
        self.fails = 0

    def add(self, res: CheckResult, trial: int):
        self.count += 1
        if not res.holds:
            self.fails += 1
        if self.worst is None or res.margin < self.worst.margin:
            self.worst, self.worst_trial = res, trial


def run_suite(seed: int = 42, trials: int = 200,
              names: Optional[Sequence[str]] = None,
              dims: Sequence[int] = registry.DEFAULT_DIMS,
              intervals: Sequence[SpectralInterval] = registry.DEFAULT_INTERVALS,
              tol: float = DEFAULT_TOL,
              suite_name: str = "default",
              timestamp: bool = True) -> SuiteReport:
    trials, seed = _count(trials, "trials"), _count(seed, "seed", 0)
    _tolerance(tol)
    for arg, value in (("dims", dims), ("intervals", intervals)):
        if not isinstance(value, Iterable):
            raise ValueError(f"{arg} must be iterable, got {value!r}")
    dims, intervals = tuple(_count(d, "dims entries") for d in dims), tuple(intervals)
    if not (dims and intervals):
        raise ValueError(f"{'intervals' if dims else 'dims'} must not be empty")
    if not all(isinstance(iv, SpectralInterval) for iv in intervals):
        raise ValueError(f"intervals must hold only SpectralIntervals, got {intervals!r}")
    if names is None:
        names = registry.names(expected_to_hold=True)
    elif (isinstance(names, str) or not isinstance(names, Iterable)
          or not (names := list(dict.fromkeys(names)))):
        raise ValueError(f"names must be None or a non-empty list of entry names, got {names!r}")
    specs = [registry.get(n) for n in names]

    report = SuiteReport(
        suite=suite_name, seed=seed, trials=trials, tolerance=float(tol), dims=list(dims),
        intervals=[[float(iv.m), float(iv.M)] for iv in intervals],
        generated_at=datetime.now(timezone.utc).isoformat() if timestamp else None,
    )

    for spec in specs:
        agg: dict[str, _Aggregate] = {}

        def fold(trial, results):
            for res in results:
                agg.setdefault(res.check_name, _Aggregate()).add(res, trial)
                if not res.holds and spec.expected_to_hold:
                    rec = res.to_record()
                    rec.update(entry=spec.name, trial=trial)
                    report.failures.append(rec)
        spec.run_trial(streams(seed, spec.name, trials), tol, dims, intervals, fold)
        if not spec.expected_to_hold:
            report.expected_fail_violations[spec.name] = sum(a.fails for a in agg.values())
        for rname in sorted(agg):
            a = agg[rname]
            rec = a.worst.to_record()
            rec.update(trials=a.count, failures=a.fails, worst_trial=a.worst_trial,
                       entry=spec.name, expected_to_hold=spec.expected_to_hold)
            report.checks.append(rec)
            report.min_margin = min(report.min_margin, a.worst.margin)
    return report


__all__ = ["SuiteReport", "run_suite"]
