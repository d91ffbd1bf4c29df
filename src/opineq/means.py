"""Matrix geometric mean and general operator connections.

The connection induced by a representing function f is

    A sigma_f B = A^{1/2} f(A^{-1/2} B A^{-1/2}) A^{1/2},

which collapses to the geometric mean at f = sqrt and to A^{-1} at
f(t) = t^2, B = I. The Riccati residual quantifies the defining property of
the geometric mean: X = A # B is the positive solution of X A^{-1} X = B.
The means take stacks of operand pairs as well, one mean per pair.
"""
from __future__ import annotations

import numpy as np

from .functions import ScalarFunction
from .hermitian import DomainError, _eigh, hermitian_part, matrix_function, power, spectral_scope


def _check_pd(w: np.ndarray, who: str) -> None:
    """Raise DomainError unless lambda_min > 0 in each ascending spectrum
    w[..., :]."""
    lam = w[..., 0]
    if np.any(lam <= 0):
        raise DomainError(f"{who} must be positive definite, "
                          f"lambda_min = {lam[lam <= 0].flat[0]:.3e}")


def geometric_mean(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A # B = A^{1/2} (A^{-1/2} B A^{-1/2})^{1/2} A^{1/2} for SPD A, B."""
    with spectral_scope():
        _check_pd(_eigh(a)[0], "first operand")     # the eigh power(a, +-0.5) reads
        _check_pd(np.linalg.eigvalsh(b), "second operand")
        ah = power(a, 0.5)
        ami = power(a, -0.5)
        mid = power(ami @ b @ ami, 0.5)
    return hermitian_part(ah @ mid @ ah)


def connection(a: np.ndarray, b: np.ndarray, f: ScalarFunction) -> np.ndarray:
    """A sigma_f B for positive definite A.

    B only needs the spectrum of A^{-1/2} B A^{-1/2} inside f's domain.
    Non-normalized representers (f(1) != 1, e.g. f = t^2) are accepted; use
    ``f.mean_normalized`` when a genuine operator mean is required.
    """
    with spectral_scope():
        _check_pd(_eigh(a)[0], "left operand")
        ah = power(a, 0.5)
        ami = power(a, -0.5)
        mid = matrix_function(hermitian_part(ami @ b @ ami), f)
    return hermitian_part(ah @ mid @ ah)


def riccati_residual(a: np.ndarray, b: np.ndarray) -> float:
    """Relative residual ||(A#B) A^{-1} (A#B) - B||_F / ||B||_F."""
    g = geometric_mean(a, b)
    ainv = power(a, -1.0)
    return float(np.linalg.norm(g @ ainv @ g - b)) / float(np.linalg.norm(b))


__all__ = ["geometric_mean", "connection", "riccati_residual"]
