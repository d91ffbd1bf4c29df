"""Suite runner.

Runs registry entries for a number of seeded trials each and aggregates one
record per distinct result name: the worst-margin witness seen, with trial
and failure counts. Trials draw from streams keyed by (seed, entry name,
trial index), so reports are reproducible regardless of evaluation order;
an entry's trials are evaluated together (see `registry.CheckSpec`) and
aggregated one by one, in trial order.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Optional, Sequence

from . import registry
from .checks import CheckResult
from .hermitian import DEFAULT_TOL, SpectralInterval
from .rng import stream


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
        rec = {
            "suite": self.suite,
            "seed": self.seed,
            "trials": self.trials,
            "tolerance": self.tolerance,
            "dims": list(self.dims),
            "intervals": [[iv[0], iv[1]] for iv in self.intervals],
            "checks": list(self.checks),
            "min_margin": self.min_margin,
            "failures": list(self.failures),
            "expected_fail_violations": dict(self.expected_fail_violations),
            "ok": self.ok,
        }
        if self.generated_at is not None:
            rec["generated_at"] = self.generated_at
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
              include_expected_fail: bool = False,
              suite_name: str = "default",
              timestamp: bool = True) -> SuiteReport:
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if names is None:
        names = registry.names(expected_to_hold=None if include_expected_fail else True)
    specs = [registry.get(n) for n in names]

    report = SuiteReport(
        suite=suite_name, seed=int(seed), trials=int(trials), tolerance=float(tol),
        dims=[int(d) for d in dims],
        intervals=[(float(iv.m), float(iv.M)) for iv in intervals],
        generated_at=datetime.now(timezone.utc).isoformat() if timestamp else None,
    )

    for spec in specs:
        agg: dict[str, _Aggregate] = {}
        violations = 0
        rngs = (stream(seed, spec.name, trial) for trial in range(trials))
        per_trial = spec.run_trial(rngs, tol, tuple(dims), tuple(intervals))
        for trial, results in enumerate(per_trial):
            for res in results:
                agg.setdefault(res.check_name, _Aggregate()).add(res, trial)
                if not res.holds:
                    if spec.expected_to_hold:
                        rec = res.to_record()
                        rec.update(entry=spec.name, trial=trial)
                        report.failures.append(rec)
                    else:
                        violations += 1
        if not spec.expected_to_hold:
            report.expected_fail_violations[spec.name] = violations
        for rname in sorted(agg):
            a = agg[rname]
            rec = a.worst.to_record()
            rec.update(trials=a.count, failures=a.fails, worst_trial=a.worst_trial,
                       entry=spec.name, expected_to_hold=spec.expected_to_hold)
            report.checks.append(rec)
            report.min_margin = min(report.min_margin, a.worst.margin)
    return report


__all__ = ["SuiteReport", "run_suite"]
