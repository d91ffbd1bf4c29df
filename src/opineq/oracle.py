"""Dense-grid reference maximizers for the constants module.

Deliberately dumb: every constant is recomputed as a plain maximum over a
uniform grid (default 10^6+1 points), with the secant line parametrized the
point-slope way instead of slope/intercept. No code is shared with
constants.py; agreement between the two routes is what the tests check.
"""
from __future__ import annotations

import numpy as np

GRID_POINTS = 1_000_001


def _chord_values(f, m, M, t):
    fm = float(f(np.asarray(m, dtype=float)))
    fM = float(f(np.asarray(M, dtype=float)))
    return fm + (fM - fm) * (t - m) / (M - m)


def oracle_alpha(f, m: float, M: float) -> float:
    if m == M:
        return 1.0
    t = np.linspace(m, M, GRID_POINTS)
    return float(np.max(_chord_values(f, m, M, t) / f(t)))


def oracle_beta0(f, m: float, M: float) -> float:
    if m == M:
        return 0.0
    t = np.linspace(m, M, GRID_POINTS)
    return float(np.max(f(t) - _chord_values(f, m, M, t)))


def oracle_kantorovich(m: float, M: float) -> float:
    # max of chord(t)*t for f(t)=1/t, written out: t*(m+M-t)/(m*M)
    if m == M:
        return 1.0
    t = np.linspace(m, M, GRID_POINTS)
    return float(np.max(t * (m + M - t) / (m * M)))


def oracle_generalized_kantorovich(p: float, m: float, M: float) -> float:
    return oracle_alpha(lambda t: np.power(t, p), m, M)


def oracle_beta_p(p: float, m: float, M: float) -> float:
    return 2.0 * oracle_beta0(lambda s: np.power(s, 1.0 / p), m ** p, M ** p)


def oracle_mond_pecaric_beta(f, m: float, M: float, alpha: float) -> float:
    if m == M:
        return float((1.0 - alpha) * f(np.asarray(m, dtype=float)))
    t = np.linspace(m, M, GRID_POINTS)
    return float(np.max(_chord_values(f, m, M, t) - alpha * f(t)))


__all__ = [
    "oracle_alpha", "oracle_beta0", "oracle_kantorovich",
    "oracle_generalized_kantorovich", "oracle_beta_p",
    "oracle_mond_pecaric_beta", "GRID_POINTS",
]
