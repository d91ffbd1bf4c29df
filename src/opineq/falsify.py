"""Counterexample machinery.

The library carries one claimed-false statement: over the 2x2 family
A = diag(x, 1), Phi = even mixture of two plane rotations, the candidate

    Phi(A^-1)^2  <=  ((1+x)^2 / 4x) * Phi(A)^{-1/2} Phi(A^-1) Phi(A)^{-1/2}

whose deficit matrix T(x, alpha, beta) (RHS minus LHS) would need a negative
eigenvalue somewhere on the family to refute it. It has none: T >= 0 on the
whole family, because Cayley-Hamilton gives A^-1 = ((1+x) I - A)/x, so
Phi(A^-1) is a polynomial in Phi(A) and T = Phi(A^-1) (K Phi(A)^-1 -
Phi(A^-1)) is a product of commuting positive matrices (Kantorovich).
`search_violations` hunts for such points by exhaustive grid over
(x, alpha, beta), or by seeded random sampling for any registered check.
Every reported witness re-validates from its serialized parameters alone.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checks import CheckResult
from .hermitian import DEFAULT_TOL, operator_norm, power, within_tolerance
from .io import map_to_json, matrix_to_json
from .maps import make_rotation_mixture
from .rng import stream

CANDIDATE_NAME = "inverse_square_candidate"

# exhaustive default: x in 0.5..4 step 0.5, angles in k*pi/12 for k = 0..11
DEFAULT_GRID = {
    "x": [0.5 * k for k in range(1, 9)],
    "alpha": [k * np.pi / 12.0 for k in range(12)],
    "beta": [k * np.pi / 12.0 for k in range(12)],
}


def counterexample_T(x: float, alpha: float, beta: float,
                     tol: float = DEFAULT_TOL):
    """Assemble T(x, alpha, beta) = ((1+x)^2/4x) Phi(A)^{-1/2} Phi(A^{-1})
    Phi(A)^{-1/2} - Phi(A^{-1})^2 for A = diag(x, 1).

    Returns (T, (lambda_1, lambda_2) ascending, psd) where psd is
    lambda_min >= -tol. T >= 0 for every x > 0 and every pair of angles:
    Phi(A^-1) = ((1+x) I - Phi(A))/x by Cayley-Hamilton, so it commutes
    with Phi(A), and T = Phi(A^-1) (K Phi(A)^-1 - Phi(A^-1)) >= 0 by
    Kantorovich. Only rounding makes lambda_min negative.
    """
    if x <= 0:
        raise ValueError(f"x must be positive, got {x}")
    a = np.diag([float(x), 1.0])
    phi = make_rotation_mixture(alpha, beta)
    pa_invroot = power(phi(a), -0.5)
    pain = phi(np.diag([1.0 / x, 1.0]))
    k = (1.0 + x) ** 2 / (4.0 * x)
    t = k * (pa_invroot @ pain @ pa_invroot) - pain @ pain
    t = (t + t.conj().T) / 2
    w = np.linalg.eigvalsh(t)
    return t, (float(w[0]), float(w[1])), bool(w[0] >= -tol)


def candidate_result(x: float, alpha: float, beta: float,
                     tol: float = DEFAULT_TOL) -> CheckResult:
    """The candidate statement as a CheckResult (margin = lambda_min(T))."""
    t, w, _ = counterexample_T(x, alpha, beta, tol)
    phi = make_rotation_mixture(alpha, beta)
    pain = phi(np.diag([1.0 / x, 1.0]))
    lhs = pain @ pain
    rhs = t + lhs
    margin = float(w[0])
    ln, rn = operator_norm(lhs), operator_norm(rhs)
    holds = within_tolerance(margin, tol, ln, rn)
    params = {"x": float(x), "alpha": float(alpha), "beta": float(beta),
              "dim": 2, "out_dim": 2,
              "m": float(min(1.0, x)), "M": float(max(1.0, x))}
    return CheckResult(CANDIDATE_NAME, params, margin, holds, tol, ln, rn)


@dataclass
class ViolationReport:
    check_name: str
    witness_params: dict
    margin: float
    eigenvalue_certificate: list
    tolerance: float

    def to_record(self) -> dict:
        return {"check_name": self.check_name,
                "witness_params": self.witness_params,
                "margin": self.margin,
                "eigenvalue_certificate": list(self.eigenvalue_certificate),
                "tolerance": self.tolerance}

    def revalidate(self, rtol: float = 1e-10) -> bool:
        """Re-run the check from the serialized witness; true when the margin
        reproduces within rtol and the check still fails."""
        res = _rerun_witness(self)
        return (res is not None and not res.holds
                and abs(res.margin - self.margin) <= rtol * max(1.0, abs(self.margin)))


def _rerun_witness(report: ViolationReport):
    wp = report.witness_params
    if report.check_name == CANDIDATE_NAME:
        return candidate_result(wp["x"], wp["alpha"], wp["beta"], report.tolerance)
    from . import registry
    rng = stream(int(wp["seed"]), wp["label"], int(wp["trial"]))
    results = registry.run_trial(wp["label"], rng, report.tolerance)
    for r in results:
        if r.check_name == report.check_name:
            return r
    return None


def _grid_violations(grid: dict, tol: float) -> list[ViolationReport]:
    out = []
    for x in grid["x"]:
        for alpha in grid["alpha"]:
            for beta in grid["beta"]:
                res = candidate_result(x, alpha, beta, tol)
                if res.holds:
                    continue
                t, w, _ = counterexample_T(x, alpha, beta, tol)
                witness = {
                    "x": float(x), "alpha": float(alpha), "beta": float(beta),
                    "a": matrix_to_json(np.diag([float(x), 1.0])),
                    "phi": map_to_json(make_rotation_mixture(alpha, beta)),
                    "deficit": matrix_to_json(t),
                }
                out.append(ViolationReport(CANDIDATE_NAME, witness, res.margin,
                                           [w[0], w[1]], tol))
    return out


def search_violations(check_name: str, grid: dict | None = None,
                      budget: int | None = None, seed: int = 0,
                      tol: float = DEFAULT_TOL) -> list[ViolationReport]:
    """Hunt for failures of a registered check.

    For the rotation-family candidate the default is the exhaustive grid
    (DEFAULT_GRID unless one is given); for everything else, `budget` seeded
    random trials. Deterministic for fixed (seed, grid, budget); reports are
    ordered by search position, and every witness re-validates.
    """
    from . import registry
    spec = registry.get(check_name)  # raises on unknown names
    if spec.name == CANDIDATE_NAME and budget is None:
        return _grid_violations(grid or DEFAULT_GRID, tol)
    out: list[ViolationReport] = []
    for trial in range(int(budget or 0)):
        rng = stream(seed, spec.name, trial)
        for res in registry.run_trial(spec.name, rng, tol):
            if res.holds:
                continue
            witness = {"seed": int(seed), "label": spec.name, "trial": trial}
            witness.update(res.params)
            # lambda_min is the only spectral datum a generic failure carries
            out.append(ViolationReport(res.check_name, witness, res.margin,
                                       [res.margin], tol))
    return out


__all__ = ["CANDIDATE_NAME", "DEFAULT_GRID", "counterexample_T",
           "candidate_result", "ViolationReport", "search_violations"]
