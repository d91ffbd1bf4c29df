"""Hermitian-matrix core.

Dense complex Hermitian matrices are carried as plain numpy arrays; this
module owns construction hygiene (Hermiticity check + exact symmetrization),
eigendecomposition, functional calculus, and the Loewner-order comparator
``loewner_leq`` that realizes every operator inequality downstream.

Every matrix function here also takes a stack of matrices, shape
(..., n, n), and treats each matrix on its own: one LAPACK or matmul call
covers the stack and gives each matrix the bits it would get alone.
Scalars computed per matrix (norms, margins, verdicts) come back as arrays
over the stack, and as Python scalars for a single matrix.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Union

import numpy as np

# absolute deviation allowed before an input is rejected as non-Hermitian
HERMITIAN_ATOL = 1e-12
# default relative tolerance for Loewner comparisons
DEFAULT_TOL = 1e-9
# relative floor under which a "positive" matrix is treated as singular for
# inverse/fractional functional calculus
POSITIVITY_RTOL = 1e-12
# bytes of stacked operands one batched step may hold: the drawn instances
# a registry entry collects before it evaluates them, and the scan grid a
# lockstep search builds at once; temporaries are a small multiple of it
BATCH_BYTES = 384 << 10


class DomainError(ValueError):
    """An eigenvalue fell outside the domain of the requested function."""


def adjoint(a: np.ndarray) -> np.ndarray:
    """The conjugate transpose of each matrix of a stack."""
    return a.conj().swapaxes(-1, -2)


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(A + A*)/2 for each matrix of a stack."""
    return (a + adjoint(a)) / 2


def as_hermitian(a, atol: float = HERMITIAN_ATOL) -> np.ndarray:
    """Validate and exactly symmetrize a square matrix, or a stack of them.

    Parameters
    ----------
    a : array_like
        Square matrix (or stack) expected to be Hermitian up to ``atol``
        absolute.

    Returns
    -------
    ndarray
        (a + a*)/2, exactly Hermitian; dtype is preserved (real stays real).

    Raises
    ------
    ValueError
        If ``a`` is not square or deviates from Hermitian symmetry by more
        than ``atol`` in any entry.
    """
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    dev = np.abs(a - adjoint(a)).max() if a.size else 0.0
    if dev > atol:
        raise DomainError(f"matrix is not Hermitian: max |A - A*| = {dev:.3e} > {atol:.1e}")
    return hermitian_part(a)


class EigenDecomposition(NamedTuple):
    eigenvalues: np.ndarray   # ascending, real
    eigenvectors: np.ndarray  # unitary; column i pairs with eigenvalues[i]

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def eig_hermitian(a: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition with ascending eigenvalues and unitary eigenvectors.

    Deterministic for identical input. Raises np.linalg.LinAlgError on the
    (practically unreachable for Hermitian input) non-convergence path.
    """
    w, v = np.linalg.eigh(a)
    return EigenDecomposition(w, v)


def eigenvalues(a: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh(a)


def frobenius(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def _per_matrix(v):
    """A per-matrix value: a Python scalar for one matrix, else the array."""
    return v.item() if v.ndim == 0 else v


def _spectral_norm(w: np.ndarray):
    return _per_matrix(np.abs(w).max(axis=-1))


def operator_norm(a: np.ndarray):
    """Spectral norm max_i |lambda_i| of a Hermitian matrix."""
    return _spectral_norm(np.linalg.eigvalsh(a))


def _below_floor(w: np.ndarray):
    """lambda_min of the first spectrum w[..., :] (ascending) at or below the
    relative positivity floor POSITIVITY_RTOL * max(1, max |lambda|), or
    None. lambda_max stands in for max |lambda|: the two agree when
    lambda_min > 0, and a lambda_min <= 0 is below either floor."""
    if w.shape[-1] == 0:
        return None
    for lam, top in zip(w[..., 0].ravel().tolist(), w[..., -1].ravel().tolist()):
        if lam <= POSITIVITY_RTOL * max(1.0, top):
            return lam
    return None


def _from_spectrum(fw: np.ndarray, v: np.ndarray) -> np.ndarray:
    """V diag(fw) V*, symmetrized, for each matrix of the stack."""
    return hermitian_part((v * fw[..., None, :]) @ adjoint(v))


def matrix_function(a: np.ndarray, f: Union[Callable, "object"],
                    requires_positive: bool | None = None) -> np.ndarray:
    """Apply a scalar function to a Hermitian matrix via its spectrum.

    ``f`` may be a plain callable or a catalog ScalarFunction (anything with
    ``evaluate`` and ``requires_positive`` attributes). Eigenvalues must lie
    in the domain of ``f``; for functions needing t > 0 the spectrum must
    clear a relative positivity floor.
    """
    fn = getattr(f, "evaluate", f)
    if requires_positive is None:
        requires_positive = bool(getattr(f, "requires_positive", False))
    w, v = np.linalg.eigh(a)
    lam = _below_floor(w) if requires_positive else None
    if lam is not None:
        raise DomainError(f"matrix function {getattr(f, 'name', fn)!r} needs a positive "
                          f"spectrum; lambda_min = {lam:.3e}")
    return _from_spectrum(np.asarray(fn(w), dtype=float), v)


def power(a: np.ndarray, p: float) -> np.ndarray:
    """Matrix power A^p through the spectral calculus.

    Any real p is allowed when A is positive definite; otherwise only
    nonnegative integer powers are defined. power(A, 0) is the identity.
    """
    if p == 0:
        return np.broadcast_to(np.eye(a.shape[-1], dtype=a.dtype), a.shape).copy()
    if p == 1:
        return hermitian_part(a)
    w, v = np.linalg.eigh(a)
    lam = _below_floor(w) if not float(p).is_integer() or p < 0 else None
    if lam is not None:
        raise DomainError(f"power {p} needs a positive definite matrix; lambda_min = {lam:.3e}")
    return _from_spectrum(w ** p, v)


def inv_psd(a: np.ndarray) -> np.ndarray:
    return power(a, -1.0)


def sqrtm_psd(a: np.ndarray) -> np.ndarray:
    return power(a, 0.5)


def within_tolerance(margin, tol: float, lhs_norm, rhs_norm):
    """The verdict rule for LHS <= RHS with signed margin `margin`:
    margin >= -tol * max(1, ||LHS||, ||RHS||). Elementwise over arrays."""
    if isinstance(margin, np.ndarray):
        return margin >= -tol * np.maximum(np.maximum(1.0, lhs_norm), rhs_norm)
    return bool(margin >= -tol * max(1.0, lhs_norm, rhs_norm))


def _eigvalsh_each(*mats: np.ndarray) -> list:
    """eigvalsh of every operand in one LAPACK call per dtype. Operands of
    another dtype get their own call rather than a promotion, which would
    change their bits."""
    out = [None] * len(mats)
    for dtype in dict.fromkeys(m.dtype for m in mats):
        idx = [i for i, m in enumerate(mats) if m.dtype == dtype]
        for i, w in zip(idx, np.linalg.eigvalsh(np.stack([mats[i] for i in idx]))):
            out[i] = w
    return out


def loewner_leq(a: np.ndarray, b: np.ndarray, tol: float = DEFAULT_TOL):
    """Decide A <= B in the Loewner order, for each pair of a stack.

    Returns
    -------
    (holds, margin, lhs_norm, rhs_norm) : (bool, float, float, float)
        margin = lambda_min(B - A); lhs_norm, rhs_norm = ||A||_op, ||B||_op;
        holds by `within_tolerance`. Arrays over the stack for stacked input.
    """
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    if tol < 0:
        raise ValueError("tol must be >= 0")
    w_diff, w_a, w_b = _eigvalsh_each(hermitian_part(b - a), a, b)
    margin = _per_matrix(w_diff[..., 0])
    ln, rn = _spectral_norm(w_a), _spectral_norm(w_b)
    return within_tolerance(margin, tol, ln, rn), margin, ln, rn


def is_psd(a: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    return loewner_leq(np.zeros_like(a), a, tol)[0]


@dataclass(frozen=True)
class SpectralInterval:
    """The pair (m, M) with 0 < m <= M housing a sandwich mI <= A <= MI."""
    m: float
    M: float

    def __post_init__(self):
        if not (0 < self.m <= self.M):
            raise DomainError(f"need 0 < m <= M, got ({self.m}, {self.M})")


def spectral_bounds(a: np.ndarray):
    """Tight sandwich interval (lambda_min, lambda_max) of a positive matrix;
    a list of them, one per matrix, for a stack."""
    w = np.linalg.eigvalsh(a)
    low = w[..., 0] <= 0
    if np.any(low):
        raise DomainError(
            f"matrix is not positive definite: lambda_min = {w[..., 0][low].flat[0]:.3e}")
    if w.ndim == 1:
        return SpectralInterval(float(w[0]), float(w[-1]))
    return [SpectralInterval(lo, hi) for lo, hi in zip(w[:, 0].tolist(), w[:, -1].tolist())]


__all__ = [
    "HERMITIAN_ATOL", "DEFAULT_TOL", "BATCH_BYTES", "DomainError", "EigenDecomposition",
    "SpectralInterval", "adjoint", "hermitian_part", "as_hermitian", "eig_hermitian", "eigenvalues",
    "frobenius", "operator_norm", "matrix_function", "power", "inv_psd",
    "sqrtm_psd", "within_tolerance", "loewner_leq", "is_psd",
    "spectral_bounds",
]
