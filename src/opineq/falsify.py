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

import math
from collections.abc import Mapping
from dataclasses import asdict, dataclass

import numpy as np

from .checks import _results
from .hermitian import (BATCH_BYTES, DEFAULT_TOL, DomainError, _below_floor, _eigh, _eigvalsh,
                        _floor_text, _tolerance, adjoint, hermitian_part, operator_norm, power,
                        within_tolerance)
from .io import map_to_json, matrix_to_json
from .maps import make_rotation_mixture, require_unitary, rotation
from .rng import _count, stream, streams

CANDIDATE_NAME = "inverse_square_candidate"
# relative change of margin within which a witness replays
REVALIDATE_RTOL = 1e-10

# exhaustive default: x in 0.5..4 step 0.5, angles in k*pi/12 for k = 0..11
DEFAULT_GRID = {
    "x": [0.5 * k for k in range(1, 9)],
    "alpha": [k * np.pi / 12.0 for k in range(12)],
    "beta": [k * np.pi / 12.0 for k in range(12)],
}


def _non_numbers(v):
    """"bools" or "strings" when v is or holds one, which numpy would read as
    0 or 1 or as the number it spells; else None."""
    if isinstance(v, np.ndarray) and v.dtype != object:
        return {"b": "bools", "U": "strings", "S": "strings"}.get(v.dtype.kind)
    for e in np.asarray(v, dtype=object).flat:
        if isinstance(e, (bool, np.bool_)):
            return "bools"
        if isinstance(e, (str, bytes)):
            return "strings"
    return None


def _points(x, alpha, beta):
    """x, alpha and beta as float arrays, each in its own shape, which must
    broadcast to one: points on a grid's axes (an x column beside alpha and
    beta rows) reach `_mixture_images` as axes, not expanded."""
    for name, v in (("x", x), ("alpha", alpha), ("beta", beta)):
        kind = _non_numbers(v)
        if kind:
            raise ValueError(f"{name} must be numbers, not {kind}, got {v!r}")
    x, alpha, beta = (np.asarray(v, dtype=float) for v in (x, alpha, beta))
    try:
        np.broadcast_shapes(x.shape, alpha.shape, beta.shape)
    except ValueError:
        raise ValueError(f"x, alpha and beta must broadcast to one shape, got shapes "
                         f"{x.shape}, {alpha.shape} and {beta.shape}") from None
    return x, alpha, beta


def _mixture_images(x, alpha, beta) -> np.ndarray:
    """Phi(diag(x, 1)) and Phi(diag(1/x, 1)) at each point of the broadcast
    shape, stacked on a leading axis of 2, Phi = (U* . U + V* . V)/2 with
    U = rotation(alpha) and V = rotation(beta). Each distinct angle's
    rotation is built and checked unitary once, and each distinct term
    U* D U, keyed by (angle, x) (by bits: -0.0 is not 0.0) at the broadcast
    shape of x and its own angle, is computed once; the two term tables
    broadcast to the points, so each point keeps the bits it gets alone. On
    a grid's axes there are (|alpha| + |beta|) |x| keys, not 2 |alpha| |beta| |x|."""
    angles, angle_inverse = np.unique(np.concatenate([alpha.ravel(), beta.ravel()])
                                      .view(np.int64), return_inverse=True)
    ops = rotation(angles.view(float))
    require_unitary(ops)
    xs, x_inverse = np.unique(x.ravel().view(np.int64), return_inverse=True)
    x_inverse = x_inverse.reshape(x.shape)
    ka = angle_inverse[:alpha.size].reshape(alpha.shape) * xs.size + x_inverse
    kb = angle_inverse[alpha.size:].reshape(beta.shape) * xs.size + x_inverse
    terms, term_inverse = np.unique(np.concatenate([ka.ravel(), kb.ravel()]),
                                    return_inverse=True)
    u, d = ops[terms // xs.size], xs.view(float)[terms % xs.size]
    a = np.zeros((2,) + d.shape + (2, 2))
    a[0, :, 0, 0], a[1, :, 0, 0], a[..., 1, 1] = d, 1.0 / d, 1.0
    halves = 0.5 * (adjoint(u) @ a @ u)     # each term with its weight
    ia, ib = term_inverse[:ka.size].reshape(ka.shape), term_inverse[ka.size:].reshape(kb.shape)
    return hermitian_part(halves[:, ia] + halves[:, ib])


class _PointError(ValueError):
    """A point that `_deficit` cannot evaluate: `what` happens at the point
    named, and `why`, if any, follows the name."""

    def __init__(self, what: str, point: str, why: str = ""):
        super().__init__(f"{what} at {point}{why}")
        self.what, self.why = what, why


def _point(i, shape, x, alpha, beta) -> str:
    """The point at flat index i of the broadcast shape, as x=…, alpha=…, beta=…."""
    i = np.unravel_index(i, shape)
    return ", ".join(f"{name}={np.broadcast_to(v, shape)[i].item()!r}"
                     for name, v in (("x", x), ("alpha", alpha), ("beta", beta)))


def _deficit(x, alpha, beta, tol: float):
    """`counterexample_T`'s T, eigenvalues and psd as arrays over the
    broadcast points, and Phi(A^-1) at each point, the LHS's square root.
    A `_PointError` names the first point whose Phi(A) the positivity floor
    of Phi(A)^-1/2 refuses (x <= 1e-12 or x >= 1e12 when alpha = beta, for
    one), or else the first whose T or eigenvalues are not finite."""
    _tolerance(tol)
    x, alpha, beta = _points(x, alpha, beta)
    for name, v in (("x", x), ("alpha", alpha), ("beta", beta)):
        finite = np.isfinite(v)
        if not finite.all():
            raise ValueError(f"{name} must be finite, got {v[~finite].flat[0]}")
    if np.any(x <= 0):
        raise ValueError(f"x must be positive, got {x[x <= 0].flat[0]}")
    with np.errstate(all="ignore"):     # a point out of float range is named below
        pa, pain = _mixture_images(x, alpha, beta)
        try:
            pa_invroot = power(pa, -0.5)
        except DomainError:     # the same floor, spectrum by spectrum, finds the point
            w = _eigh(pa)[0].reshape(-1, 2)
            i, found = next((i, f) for i, f in enumerate(map(_below_floor, w)) if f)
            raise _PointError("Phi(A) is too close to singular for Phi(A)^-1/2",
                              _point(i, pa.shape[:-2], x, alpha, beta),
                              f"; {_floor_text(found)}") from None
        k = ((1.0 + x) ** 2 / (4.0 * x))[..., None, None]
        t = hermitian_part(k * (pa_invroot @ pain @ pa_invroot) - pain @ pain)
        w = _eigvalsh(t)
    if not (np.isfinite(t).all() and np.isfinite(w).all()):
        finite = np.isfinite(t).all(axis=(-2, -1)) & np.isfinite(w).all(axis=-1)
        raise _PointError("T is out of float range",
                          _point(np.argmin(finite), finite.shape, x, alpha, beta))
    return t, w, w[..., 0] >= -tol, pain


def counterexample_T(x, alpha, beta, tol: float = DEFAULT_TOL):
    """Assemble T(x, alpha, beta) = ((1+x)^2/4x) Phi(A)^{-1/2} Phi(A^{-1})
    Phi(A)^{-1/2} - Phi(A^{-1})^2 for A = diag(x, 1).

    Returns (T, (lambda_1, lambda_2) ascending, psd) where psd is
    lambda_min >= -tol. T >= 0 for every x > 0 and every pair of angles:
    Phi(A^-1) = ((1+x) I - Phi(A))/x by Cayley-Hamilton, so it commutes
    with Phi(A), and T = Phi(A^-1) (K Phi(A)^-1 - Phi(A^-1)) >= 0 by
    Kantorovich. Only rounding makes lambda_min negative.

    x, alpha and beta are numbers, not bools or strings (ValueError naming
    the one that is). Arrays of points, broadcast to one shape (ValueError
    naming the three shapes when they do not broadcast), give T (..., 2, 2),
    the eigenvalues (..., 2) and psd (...), each point with the bits it gets
    alone. A point whose T or eigenvalues are not finite (x near the ends of
    float range), or whose Phi(A) is too close to singular for the
    positivity floor of Phi(A)^-1/2 (x <= 1e-12 or x >= 1e12 when alpha =
    beta, for one), is a ValueError that names it.
    Each distinct angle's rotation is checked once, so a rotation that is
    not unitary is reported in distinct-angle order, not in point order,
    and the terms U* diag(x, 1) U and U* diag(1/x, 1) U of Phi(A) and
    Phi(A^-1) are computed once per distinct (angle, x) pair: given as axes
    (x of shape (n, 1, 1), alpha (1, m, 1), beta (1, 1, l)), the points of
    a grid are never expanded before those terms are built.
    """
    t, w, psd, _ = _deficit(x, alpha, beta, tol)
    if w.ndim == 1:
        return t, (float(w[0]), float(w[1])), bool(psd)
    return t, w, psd


def _norms(t, pain):
    """(||LHS||, ||RHS||) at each point, LHS = Phi(A^-1)^2 and RHS = T + LHS."""
    lhs = pain @ pain
    return operator_norm(np.stack([lhs, t + lhs]))


def candidate_result(x, alpha, beta, tol: float = DEFAULT_TOL):
    """The candidate statement as a CheckResult (margin = lambda_min(T));
    for arrays of points, broadcast to one shape, one per point in point
    order. The points are judged as `counterexample_T` takes them: axes
    build each term once."""
    x, alpha, beta = _points(x, alpha, beta)
    t, w, _, pain = _deficit(x, alpha, beta, tol)
    ln, rn = _norms(t, pain)
    points = zip(*(np.broadcast_to(v, w.shape[:-1]).ravel().tolist() for v in (x, alpha, beta)))
    params = [{"x": xi, "alpha": a, "beta": b, "dim": 2, "out_dim": 2,
               "m": min(1.0, xi), "M": max(1.0, xi)} for xi, a, b in points]
    out = _results(CANDIDATE_NAME, params, tol, within_tolerance(w[..., 0], tol, ln, rn),
                   w[..., 0], ln, rn)
    return out if w.ndim > 1 else out[0]


@dataclass
class ViolationReport:
    check_name: str
    witness_params: dict
    margin: float
    eigenvalue_certificate: list
    tolerance: float

    def to_record(self) -> dict:
        return asdict(self)

    def revalidate(self) -> bool:
        """Re-run the check from the serialized witness; true when the margin
        reproduces within REVALIDATE_RTOL and the check still fails."""
        res = _rerun_witness(self)
        return (res is not None and not res.holds
                and abs(res.margin - self.margin) <= REVALIDATE_RTOL * max(1.0, abs(self.margin)))


def _rerun_witness(report: ViolationReport):
    wp = report.witness_params
    if report.check_name == CANDIDATE_NAME:
        return candidate_result(wp["x"], wp["alpha"], wp["beta"], report.tolerance)
    from . import registry
    rng = stream(wp["seed"], wp["label"], wp["trial"])
    found = []
    registry.get(wp["label"]).run_trial(
        [rng], report.tolerance, registry.DEFAULT_DIMS, registry.DEFAULT_INTERVALS,
        lambda _, results: found.extend(r for r in results if r.check_name == report.check_name))
    return found[0] if found else None


def _blocks(shape, step: int):
    """Blocks of a grid of `shape`, one slice per axis, that cover it in
    ravel (search) order with at most `step` points each: runs of whole x
    slabs if one slab fits, else one x and runs of whole alpha rows, else
    one x, one alpha and runs of beta values."""
    d = next(d for d in range(len(shape)) if math.prod(shape[d + 1:]) <= step)
    run = step // math.prod(shape[d + 1:])
    for outer in np.ndindex(*shape[:d]):
        for lo in range(0, shape[d], run):
            yield (*(slice(i, i + 1) for i in outer), slice(lo, lo + run),
                   *[slice(None)] * (len(shape) - d - 1))


def _grid_violations(grid: dict, tol: float) -> list[ViolationReport]:
    """The grid's failing points in search order, evaluated block by block.

    Each block (`_blocks`, at most BATCH_BYTES // 64 points) reaches
    `_deficit` as its three axes, so the search holds one block's points at
    a time, never the grid's. A margin >= 0 holds at any tolerance scale
    max(1, ||LHS||, ||RHS||), so the norms are computed only for the points
    whose margin is negative (or NaN); they are judged by
    `within_tolerance`, as `candidate_result` does.
    """
    if not isinstance(grid, Mapping):
        raise ValueError(f"grid must be a mapping of x, alpha and beta axes, got {grid!r}")
    for k in grid:
        if k not in ("x", "alpha", "beta"):
            raise ValueError(f"grid has an unknown axis {k!r}: its axes are x, alpha and beta")
    axes = []
    for k in ("x", "alpha", "beta"):
        values = grid.get(k, ())
        try:
            bad = isinstance(values, Mapping) or _non_numbers(values)
            axis = None if bad else np.asarray(values, float)
        except (TypeError, ValueError):
            axis = None
        if axis is None or axis.ndim != 1:
            raise ValueError(f"grid's {k} axis must be a flat list of numbers, got {values!r}")
        if not axis.size:
            raise ValueError(f"grid needs a non-empty {k} axis")
        axes.append(axis)
    step = max(1, BATCH_BYTES // 64)   # a point's Phi(A) and Phi(A^-1) take 64 bytes
    out = []
    for block in _blocks([a.size for a in axes], step):
        chunk = [a[s] for a, s in zip(axes, block)]
        t, w, _, pain = _deficit(*np.ix_(*chunk), tol)
        shape = w.shape[:-1]
        t, w, pain = t.reshape(-1, 2, 2), w.reshape(-1, 2), pain.reshape(-1, 2, 2)
        low = np.flatnonzero(~(w[:, 0] >= 0))
        if low.size:
            ln, rn = _norms(t[low], pain[low])
            low = low[~within_tolerance(w[low, 0], tol, ln, rn)]
        for i in low.tolist():
            x, alpha, beta = (c[j].item() for c, j in zip(chunk, np.unravel_index(i, shape)))
            witness = {"x": x, "alpha": alpha, "beta": beta,
                       "a": matrix_to_json(np.diag([x, 1.0])),
                       "phi": map_to_json(make_rotation_mixture(alpha, beta)),
                       "deficit": matrix_to_json(t[i])}
            out.append(ViolationReport(CANDIDATE_NAME, witness, w[i, 0].item(),
                                       w[i].tolist(), tol))
    return out


def search_violations(check_name: str, grid: dict | None = None,
                      budget: int | None = None, seed: int = 0,
                      tol: float = DEFAULT_TOL) -> list[ViolationReport]:
    """Hunt for failures of a registered check.

    For the rotation-family candidate the default is the exhaustive grid
    (DEFAULT_GRID unless one is given); for everything else, `budget` seeded
    random trials. ValueError when a grid and a budget are both given, for
    a check without a grid search when `budget` is None, for a grid that is
    not a mapping, has a key other than x, alpha and beta, lacks one of
    them or has an empty one, for an axis that is not a flat list of
    numbers (a bool or a string is not one), for
    a budget that is not an integer >= 1, and for a tolerance that is not
    a finite number >= 0; all before any point is evaluated or any stream
    is made.
    Deterministic for fixed (seed, grid, budget); reports are ordered by
    search position, and every witness re-validates.
    """
    from . import registry
    spec = registry.get(check_name)  # raises on unknown names
    if spec.name != CANDIDATE_NAME and (budget is None or grid is not None):
        raise ValueError(f"{spec.name} has no grid search: give a budget of random "
                         f"trials (only {CANDIDATE_NAME} has a grid)")
    if grid is not None and budget is not None:
        raise ValueError("give a grid or a budget of random trials, not both")
    _tolerance(tol)
    if budget is None:
        return _grid_violations(DEFAULT_GRID if grid is None else grid, tol)
    budget, seed = _count(budget, "budget"), _count(seed, "seed", 0)
    out: list[ViolationReport] = []

    def fold(trial, results):
        for res in results:
            if not res.holds:
                witness = {"seed": seed, "label": spec.name, "trial": trial}
                witness.update(res.params)
                # lambda_min is the only spectral datum a generic failure carries
                out.append(ViolationReport(res.check_name, witness, res.margin,
                                           [res.margin], tol))
    # streams are made as the trials draw, so a large budget holds no list of them
    spec.run_trial(streams(seed, spec.name, budget), tol, registry.DEFAULT_DIMS,
                   registry.DEFAULT_INTERVALS, fold)
    return out


__all__ = ["CANDIDATE_NAME", "DEFAULT_GRID", "counterexample_T",
           "candidate_result", "ViolationReport", "search_violations"]
