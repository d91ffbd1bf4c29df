"""Hermitian-matrix core.

Dense complex Hermitian matrices are carried as plain numpy arrays; this
module owns construction hygiene (Hermiticity check + exact symmetrization),
eigendecomposition, functional calculus, and the Loewner-order comparator
``loewner_leq`` that realizes every operator inequality downstream.
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


class DomainError(ValueError):
    """An eigenvalue fell outside the domain of the requested function."""


def as_hermitian(a, atol: float = HERMITIAN_ATOL) -> np.ndarray:
    """Validate and exactly symmetrize a square matrix.

    Parameters
    ----------
    a : array_like
        Square matrix expected to be Hermitian up to ``atol`` absolute.

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
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    dev = np.abs(a - a.conj().T).max() if a.size else 0.0
    if dev > atol:
        raise DomainError(f"matrix is not Hermitian: max |A - A*| = {dev:.3e} > {atol:.1e}")
    return (a + a.conj().T) / 2


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


def operator_norm(a: np.ndarray) -> float:
    """Spectral norm max_i |lambda_i| of a Hermitian matrix."""
    w = np.linalg.eigvalsh(a)
    return float(np.abs(w).max())


def _positivity_floor(w: np.ndarray) -> float:
    scale = max(1.0, float(np.abs(w).max())) if w.size else 1.0
    return POSITIVITY_RTOL * scale


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
    if requires_positive and w.size and w[0] <= _positivity_floor(w):
        raise DomainError(
            f"matrix function {getattr(f, 'name', fn)!r} needs a positive spectrum; "
            f"lambda_min = {w[0]:.3e}")
    fw = np.asarray(fn(w), dtype=float)
    out = (v * fw) @ v.conj().T
    return (out + out.conj().T) / 2


def power(a: np.ndarray, p: float) -> np.ndarray:
    """Matrix power A^p through the spectral calculus.

    Any real p is allowed when A is positive definite; otherwise only
    nonnegative integer powers are defined. power(A, 0) is the identity.
    """
    if p == 0:
        return np.eye(a.shape[0], dtype=a.dtype)
    if p == 1:
        return (a + a.conj().T) / 2
    w, v = np.linalg.eigh(a)
    is_int = float(p).is_integer()
    if (not is_int or p < 0) and w.size and w[0] <= _positivity_floor(w):
        raise DomainError(
            f"power {p} needs a positive definite matrix; lambda_min = {w[0]:.3e}")
    out = (v * (w ** p)) @ v.conj().T
    return (out + out.conj().T) / 2


def inv_psd(a: np.ndarray) -> np.ndarray:
    return power(a, -1.0)


def sqrtm_psd(a: np.ndarray) -> np.ndarray:
    return power(a, 0.5)


def within_tolerance(margin: float, tol: float, lhs_norm: float,
                     rhs_norm: float) -> bool:
    """The verdict rule for LHS <= RHS with signed margin `margin`:
    margin >= -tol * max(1, ||LHS||, ||RHS||)."""
    return margin >= -tol * max(1.0, lhs_norm, rhs_norm)


def loewner_leq(a: np.ndarray, b: np.ndarray, tol: float = DEFAULT_TOL):
    """Decide A <= B in the Loewner order.

    Returns
    -------
    (holds, margin, lhs_norm, rhs_norm) : (bool, float, float, float)
        margin = lambda_min(B - A); lhs_norm, rhs_norm = ||A||_op, ||B||_op;
        holds by `within_tolerance`.
    """
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    if tol < 0:
        raise ValueError("tol must be >= 0")
    diff = b - a
    diff = (diff + diff.conj().T) / 2
    margin = float(np.linalg.eigvalsh(diff)[0])
    ln, rn = operator_norm(a), operator_norm(b)
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


def spectral_bounds(a: np.ndarray) -> SpectralInterval:
    """Tight sandwich interval (lambda_min, lambda_max) of a positive matrix."""
    w = np.linalg.eigvalsh(a)
    if w[0] <= 0:
        raise DomainError(f"matrix is not positive definite: lambda_min = {w[0]:.3e}")
    return SpectralInterval(float(w[0]), float(w[-1]))


__all__ = [
    "HERMITIAN_ATOL", "DEFAULT_TOL", "DomainError", "EigenDecomposition",
    "SpectralInterval", "as_hermitian", "eig_hermitian", "eigenvalues",
    "frobenius", "operator_norm", "matrix_function", "power", "inv_psd",
    "sqrtm_psd", "within_tolerance", "loewner_leq", "is_psd",
    "spectral_bounds",
]
