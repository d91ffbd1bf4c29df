"""Matrix geometric mean and general operator connections.

The connection induced by a representing function f is

    A sigma_f B = A^{1/2} f(A^{-1/2} B A^{-1/2}) A^{1/2},

which collapses to the geometric mean at f = sqrt and to A^{-1} at
f(t) = t^2, B = I. The Riccati residual quantifies the defining property of
the geometric mean: X = A # B is the positive solution of X A^{-1} X = B.
"""
from __future__ import annotations

import numpy as np

from .functions import ScalarFunction
from .hermitian import frobenius, matrix_function, power


def _check_pd(a: np.ndarray, who: str) -> None:
    w = np.linalg.eigvalsh(a)
    if w[0] <= 0:
        raise ValueError(f"{who} must be positive definite, lambda_min = {w[0]:.3e}")


def geometric_mean(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A # B = A^{1/2} (A^{-1/2} B A^{-1/2})^{1/2} A^{1/2} for SPD A, B."""
    _check_pd(a, "first operand")
    _check_pd(b, "second operand")
    ah = power(a, 0.5)
    ami = power(a, -0.5)
    mid = power(ami @ b @ ami, 0.5)
    g = ah @ mid @ ah
    return (g + g.conj().T) / 2


def connection(a: np.ndarray, b: np.ndarray, f: ScalarFunction) -> np.ndarray:
    """A sigma_f B for positive definite A.

    B only needs the spectrum of A^{-1/2} B A^{-1/2} inside f's domain.
    Non-normalized representers (f(1) != 1, e.g. f = t^2) are accepted; use
    ``f.mean_normalized`` when a genuine operator mean is required.
    """
    _check_pd(a, "left operand")
    ah = power(a, 0.5)
    ami = power(a, -0.5)
    inner = ami @ b @ ami
    inner = (inner + inner.conj().T) / 2
    mid = matrix_function(inner, f)
    out = ah @ mid @ ah
    return (out + out.conj().T) / 2


def riccati_residual(a: np.ndarray, b: np.ndarray) -> float:
    """Relative residual ||(A#B) A^{-1} (A#B) - B||_F / ||B||_F."""
    g = geometric_mean(a, b)
    ainv = power(a, -1.0)
    return frobenius(g @ ainv @ g - b) / frobenius(b)


__all__ = ["geometric_mean", "connection", "riccati_residual"]
