"""The benchmark's workloads, their seeded inputs and their output checks.

Each workload is a closed loop with one caller: a unit (one suite sweep or
one grid search) starts only after the previous one has returned. Units
draw their inputs from a `random.Random` seeded with the benchmark seed, so
opineq receives only generated inputs (a suite seed, or a grid).

* sweep_small   - the 19 expected-to-hold entries at dims 2-8 over the 3
                  default intervals: the paper's soundness sweep, dominated
                  by per-call overhead (the batching and memoization lever).
* sweep_wide    - the same entries at dims 16, 24, 32, where LAPACK time
                  dominates; an overhead cut should barely move it.
* rotation_grid - the exhaustive (x, alpha, beta) grid search for the
                  claimed-false candidate; 2x2 matrices only, led by
                  `falsify` and `maps`, never touching rng, generators,
                  constants, registry or suite.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np

# verdicts one trial of each expected-to-hold entry returns; fixed by the
# entry's parameter list, so a sweep of T trials must return T times these
VERDICTS_PER_TRIAL = {
    "choi_davis": 1, "kantorovich": 1, "kantorovich_squared": 1,
    "kantorovich_sharp": 1, "refinement": 2, "power_inner_product": 4,
    "ando": 1, "ando_connection": 1, "reverse_ando_convex": 1,
    "reverse_ando_sandwich": 1, "kantorovich_equivalents": 4,
    "reverse_choi_quadratic": 1, "mond_pecaric": 3,
    "generalized_kantorovich": 5, "scalar_power_chain": 2, "additive_sqrt": 1,
    "minkowski_general": 6, "power_minkowski": 6, "tuple_minkowski": 4,
}
CANDIDATE = "inverse_square_candidate"
TOL = 1e-9
# grid points per unit re-derived independently of opineq
SPOT_CHECKS = 6


@dataclass
class UnitResult:
    attempted: int
    failed: int = 0
    problems: list = field(default_factory=list)
    digest: str = ""
    violations: int = 0


class _Discard(io.TextIOBase):
    """stdout sink for the CLI's printed report: the text is built and
    written, as for a user, but kept nowhere."""

    def write(self, s):
        return len(s)


def timed(fn, tracer=None):
    """(seconds, result) of fn(); the tracer records only inside this
    window, and keeps it to check the unit's root spans against."""
    if tracer is not None:
        tracer.active = True
    t0 = perf_counter()
    try:
        out = fn()
    finally:
        t1 = perf_counter()
        if tracer is not None:
            tracer.active = False
            tracer.windows[tracer.run_id] = (t0, t1)
    return t1 - t0, out


@dataclass(frozen=True)
class Sweep:
    """`opineq suite` over every expected-to-hold entry, one call per unit."""
    name: str
    dims: tuple
    trials: int        # trials per entry in one suite call
    trace_units: int   # suite calls in the traced pass

    def size(self, seed: int) -> int:
        """Random trials in one unit."""
        return self.trials * len(VERDICTS_PER_TRIAL)

    def unit_input(self, rng: random.Random, k: int) -> int:
        return rng.randrange(1, 2 ** 31)

    def call(self, seed: int, outdir, tracer=None):
        from opineq import cli
        path = outdir / f"{self.name}-report.json"
        argv = ["suite", "--trials", str(self.trials), "--seed", str(seed),
                "--dims", ",".join(map(str, self.dims)), "--no-timestamp",
                "--output", str(path)]
        with contextlib.redirect_stdout(_Discard()):
            dt, rc = timed(lambda: cli.main(argv), tracer)
        return dt, (rc, path.read_bytes())

    def warm(self, outdir) -> None:
        replace(self, trials=1).call(1, outdir)

    def check(self, seed: int, raw) -> UnitResult:
        rc, data = raw
        res = UnitResult(attempted=self.size(seed), digest=hashlib.sha256(data).hexdigest())
        try:
            report = json.loads(data)
        except ValueError as exc:
            res.failed = res.attempted
            res.problems.append(f"report is not JSON: {exc}")
            return res
        res.problems = check_sweep_report(report, rc, seed, self.trials, self.dims)
        if rc != 0:
            res.failed = res.attempted
        else:
            res.failed = len({(f.get("entry"), f.get("trial"))
                              for f in report.get("failures", [])})
        return res


def check_sweep_report(report: dict, rc: int, seed: int, trials: int, dims) -> list:
    """Every way a sweep report can be wrong; empty when it is right."""
    problems = []
    if rc != 0:
        problems.append(f"suite exited {rc}")
    for key, want in (("seed", seed), ("trials", trials), ("dims", list(dims)),
                      ("failures", []), ("expected_fail_violations", {}), ("ok", True)):
        if report.get(key) != want:
            problems.append(f"{key} is {report.get(key)!r}, expected {want!r}")
    verdicts: dict = {}
    for rec in report.get("checks", []):
        entry = rec.get("entry")
        verdicts[entry] = verdicts.get(entry, 0) + rec.get("trials", 0)
        if rec.get("trials") != trials:
            problems.append(f"{rec.get('check_name')}: {rec.get('trials')} trials, "
                            f"expected {trials}")
        if rec.get("failures") != 0 or rec.get("holds") is not True:
            problems.append(f"{rec.get('check_name')}: failed verdicts in the aggregate")
        if not math.isfinite(rec.get("margin", math.nan)):
            problems.append(f"{rec.get('check_name')}: margin is not finite")
    if set(verdicts) != set(VERDICTS_PER_TRIAL):
        problems.append(f"entries {sorted(set(verdicts) ^ set(VERDICTS_PER_TRIAL))} "
                        "missing or unexpected")
    total, want = sum(verdicts.values()), trials * sum(VERDICTS_PER_TRIAL.values())
    if total != want:
        problems.append(f"{total} verdicts, reference count is {want}")
    for entry, n in verdicts.items():
        if entry in VERDICTS_PER_TRIAL and n != trials * VERDICTS_PER_TRIAL[entry]:
            problems.append(f"{entry}: {n} verdicts, expected "
                            f"{trials * VERDICTS_PER_TRIAL[entry]}")
    return problems


@dataclass(frozen=True)
class RotationGrid:
    """`falsify.search_violations` over an (x, alpha, beta) grid of the
    default 8 x 12 x 12 shape. Unit 0 is the default grid itself; later
    units shift it by a seeded fraction of one step on each axis."""
    name: str
    trace_units: int   # grid searches in the traced pass

    def size(self, grid: dict) -> int:
        """Grid points in one unit."""
        return len(grid["x"]) * len(grid["alpha"]) * len(grid["beta"])

    def unit_input(self, rng: random.Random, k: int) -> dict:
        from opineq.falsify import DEFAULT_GRID
        if k == 0:
            return DEFAULT_GRID
        dx, da, db = rng.random(), rng.random(), rng.random()
        return {"x": [0.5 * (i + 1 + dx) for i in range(len(DEFAULT_GRID["x"]))],
                "alpha": [(i + da) * np.pi / 12.0 for i in range(len(DEFAULT_GRID["alpha"]))],
                "beta": [(i + db) * np.pi / 12.0 for i in range(len(DEFAULT_GRID["beta"]))]}

    def call(self, grid: dict, outdir, tracer=None):
        from opineq import falsify
        return timed(lambda: falsify.search_violations(CANDIDATE, grid=grid, tol=TOL), tracer)

    def warm(self, outdir) -> None:
        self.call({"x": [1.5], "alpha": [0.3, 1.1], "beta": [0.7]}, outdir)

    def check(self, grid: dict, violations) -> UnitResult:
        res = UnitResult(attempted=self.size(grid), violations=len(violations))
        res.problems = check_grid(grid, violations)
        text = json.dumps([v.to_record() for v in violations], sort_keys=True)
        res.digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        return res


def check_grid(grid: dict, violations) -> list:
    """Every reported violation re-validates from its record and lies on the
    grid; at a few seeded grid points the candidate's margin, recomputed
    here without opineq, agrees with the program's and with whether the
    point was reported."""
    from opineq.falsify import candidate_result
    problems = []
    points = {(x, a, b) for x in grid["x"] for a in grid["alpha"] for b in grid["beta"]}
    reported = set()
    for v in violations:
        wp = v.witness_params
        key = (wp.get("x"), wp.get("alpha"), wp.get("beta"))
        reported.add(key)
        if v.check_name != CANDIDATE or key not in points:
            problems.append(f"violation {key} is not a grid point of {CANDIDATE}")
        elif not v.revalidate():
            problems.append(f"violation {key} does not re-validate")
    rng = random.Random(json.dumps(grid, sort_keys=True))
    for key in rng.sample(sorted(points), min(SPOT_CHECKS, len(points))):
        margin, scale = reference_margin(*key)
        got = candidate_result(*key, TOL).margin
        if abs(got - margin) > 1e-9 * max(1.0, abs(margin)):
            problems.append(f"margin at {key} is {got!r}, reference {margin!r}")
        if (margin >= -TOL * scale) == (key in reported):
            problems.append(f"point {key} reported={key in reported} but reference "
                            f"margin is {margin!r}")
    return problems


def reference_margin(x: float, alpha: float, beta: float) -> tuple:
    """lambda_min of ((1+x)^2/4x) P Phi(A^-1) P - Phi(A^-1)^2, P = Phi(A)^-1/2,
    A = diag(x, 1), Phi = even mixture of the rotations by alpha and beta;
    with the comparison scale max(1, ||LHS||, ||RHS||)."""
    rots = [np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
            for t in (alpha, beta)]

    def phi(d):
        return sum(0.5 * (r.T @ np.diag(d) @ r) for r in rots)

    w, v = np.linalg.eigh(phi([x, 1.0]))
    p = (v / np.sqrt(w)) @ v.T
    pain = phi([1.0 / x, 1.0])
    lhs = pain @ pain
    rhs = (1.0 + x) ** 2 / (4.0 * x) * (p @ pain @ p)
    diff = rhs - lhs
    margin = float(np.linalg.eigvalsh((diff + diff.T) / 2)[0])
    scale = max(1.0, *(float(np.abs(np.linalg.eigvalsh(m)).max()) for m in (lhs, rhs)))
    return margin, scale


# A sweep unit has the shape of a real call. sweep_small runs the CLI's
# default of 200 trials per entry, about 29 instances per (entry, dim) bucket.
# sweep_wide runs the largest trial count that still leaves at least 5 units
# in a 30 s run when the host is 1.4x slower than usual.
WORKLOADS = {
    "sweep_small": Sweep("sweep_small", dims=(2, 3, 4, 5, 6, 7, 8), trials=200, trace_units=1),
    "sweep_wide": Sweep("sweep_wide", dims=(16, 24, 32), trials=60, trace_units=1),
    "rotation_grid": RotationGrid("rotation_grid", trace_units=4),
}
