"""Scalar constants behind the reverse inequalities.

All of them are maxima of smooth 1-D objectives over a spectral interval:
the Kantorovich constant and its p-power generalization, the chord-ratio
constant alpha, the chord-gap constant beta0, the additive power constant
beta_p with its closed form, and the chord-based (alpha, beta) pair used in
the scalar bound <Phi(f(A))x,x> <= beta + alpha*f(<Phi(A)x,x>).

Maximization is a 4096-point scan followed by golden-section refinement;
objectives here have at most a few extrema, so scan+refine is robust. The
searched constants take a sequence of intervals too and then run one search
per interval: the scan runs one interval at a time, and only the
golden-section phase runs them all in lockstep. The closed forms take one
interval.
scipy is deliberately not pulled in for a one-screen optimizer.
"""
from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .hermitian import DomainError, SpectralInterval

_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0
SCAN_POINTS = 4096
XTOL = 1e-12


class _NotFinite(DomainError, ArithmeticError):
    """A search's objective is not finite on its interval: an input out of
    the constant's domain, and out of float range as an overflow is."""


def _interval(iv) -> SpectralInterval:
    if isinstance(iv, SpectralInterval):
        return iv
    m, M = iv
    return SpectralInterval(float(m), float(M))


def golden_max(f: Callable[..., np.ndarray], lo, hi, *lane_args):
    """Global max of a smooth f on [lo, hi]: coarse scan, then golden section
    inside the best bracket. Returns (argmax, value). f must accept arrays.

    `lo` and `hi` may be arrays, one bracket per lane, and (argmax, value)
    are then arrays. The scan takes SCAN_POINTS points of one lane at a
    time: f gets them as a column, with each of `lane_args` (arrays, one
    entry per lane) cut to that lane. The golden-section phase then runs
    all lanes in lockstep: f(t, *lane_args) gets one point per lane and
    `lane_args` whole. Each lane takes the steps the scalar search would
    take on its own and stops once its bracket is narrower than XTOL, or no
    narrower than it was a step before (XTOL is below the float spacing far
    from 0).
    """
    one = np.ndim(lo) == 0 and np.ndim(hi) == 0
    lo, hi = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (lo, hi))
    if np.any(hi < lo):
        bad = np.flatnonzero(hi < lo)[0]
        raise ValueError(f"empty interval [{lo[bad]}, {hi[bad]}]")
    lane_args = [np.asarray(v) for v in lane_args]
    top, best, a, b = (np.empty(len(lo)) for _ in range(4))
    for i in range(len(lo)):
        xs = np.linspace(lo[i], hi[i], SCAN_POINTS)
        with np.errstate(all="ignore"):     # a value out of float range is rejected below
            vals = np.asarray(f(xs[:, None], *(v[i:i + 1] for v in lane_args)),
                              dtype=float)[:, 0]
        # a point bracket is its own maximum, whatever f is worth there
        if hi[i] > lo[i] and not np.all(np.isfinite(vals)):
            raise _NotFinite("objective is not finite on the interval")
        k = int(np.argmax(vals))
        top[i], best[i] = xs[k], vals[k]
        a[i], b[i] = xs[max(k - 1, 0)], xs[min(k + 1, SCAN_POINTS - 1)]
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = np.array(f(c, *lane_args), dtype=float)    # copies, updated in place
    fd = np.array(f(d, *lane_args), dtype=float)
    width = b - a
    live = width > XTOL
    while live.any():
        # where fc >= fd keep [a, d] and probe a new c, else keep [c, b] and
        # probe a new d: (c, d) become (probe, c) or (d, probe), in place;
        # lanes no longer live keep every value as it is
        left = fc >= fd
        go_left, go_right = live & left, live & ~left
        np.copyto(a, c, where=go_right)
        np.copyto(b, d, where=go_left)
        span = b - a
        step = _INVPHI * span
        probe = np.where(left, b - step, a + step)
        fp = np.asarray(f(probe, *lane_args), dtype=float)
        for near, far, new in ((c, d, probe), (fc, fd, fp)):
            np.copyto(far, near, where=go_left)
            np.copyto(near, far, where=go_right)
            np.copyto(near, new, where=go_left)
            np.copyto(far, new, where=go_right)
        live = (span > XTOL) & (span < width)
        width = span
    x = (a + b) / 2.0
    fx = np.asarray(f(x, *lane_args), dtype=float)
    take = fx >= best
    arg, value = np.where(take, x, top), np.where(take, fx, best)
    if one:
        return float(arg[0]), float(value[0])
    return arg, value


class ChordCoefficients(NamedTuple):
    slope: float
    intercept: float

    def __call__(self, t):
        return self.slope * t + self.intercept


def chord_coefficients(f, m, M) -> ChordCoefficients:
    """Secant line of f through (m, f(m)) and (M, f(M)); elementwise for
    arrays m, M (one chord per lane)."""
    m, M = np.asarray(m, dtype=float), np.asarray(M, dtype=float)
    if not np.all((0 < m) & (m < M)):
        raise DomainError(f"need 0 < m < M, got ({m}, {M})")
    with np.errstate(all="ignore"):     # a value out of float range is rejected later
        fm = np.asarray(f(m), dtype=float)
        fM = np.asarray(f(M), dtype=float)
        slope = (fM - fm) / (M - m)
        intercept = (M * fm - m * fM) / (M - m)
    if slope.ndim == 0:
        return ChordCoefficients(float(slope), float(intercept))
    return ChordCoefficients(slope, intercept)


def kantorovich_constant(iv) -> float:
    iv = _interval(iv)
    m, M = iv.m, iv.M
    return (M + m) ** 2 / (4.0 * M * m)


def generalized_kantorovich(p: float, iv) -> float:
    """K(p, m, M), the reversal factor in Phi(A^p) <= K * Phi(A)^p.

    Defined here for p >= 1 or p <= 0 (the range the inequalities use);
    p in {0, 1} and m = M return the continuity limit 1.
    """
    iv = _interval(iv)
    m, M = iv.m, iv.M
    p = float(p)
    if 1e-8 < p < 1 - 1e-8:
        raise DomainError(f"K(p, m, M) is exposed for p >= 1 or p <= 0, got p={p}")
    if abs(p) < 1e-8 or abs(p - 1) < 1e-8 or m == M:
        return 1.0
    gap = m * M ** p - M * m ** p
    if gap == 0:
        raise DomainError(f"K(p, m, M) at p={p!r} on [{m!r}, {M!r}]: m*M^p - M*m^p "
                          "cancels to 0 in double precision")
    lead = gap / ((p - 1.0) * (M - m))
    inner = (p - 1.0) / p * (M ** p - m ** p) / gap
    if inner <= 0:
        raise DomainError(f"K(p, m, M) at p={p!r} on [{m!r}, {M!r}]: the factor "
                          f"(p-1)/p (M^p - m^p)/(m*M^p - M*m^p), positive in exact "
                          f"arithmetic, is {inner!r} in double precision")
    # K >= 1 in exact arithmetic; max() leaves any K >= 1 as it is
    return max(lead * inner ** p, 1.0)


def _chord_search(f, iv, positive, floor, point, objective, *lane_args):
    """max over [m, M] of objective(t, chord(t), *lane_args), chord the
    secant of f, per interval: an interval narrower than the rounding of M
    gets point(m, *lane_args), the wide ones one `chord_coefficients` and
    one lockstep `golden_max` (`positive`: first probe f > 0 on them), at
    least `floor`. `lane_args` are one value or one per interval; one
    interval (a SpectralInterval or an (m, M) pair) gives a float."""
    one = isinstance(iv, SpectralInterval) or np.isscalar(iv[0])
    ivs = [_interval(v) for v in ([iv] if one else iv)]
    m, M = np.array([v.m for v in ivs]), np.array([v.M for v in ivs])
    lane_args = [np.broadcast_to(np.asarray(v, dtype=float), m.shape) for v in lane_args]
    value = point(m, *lane_args)
    # on a narrower interval f(M) - f(m) cancels, and so would the chord
    wide = M - m > 64 * np.spacing(M)
    if wide.any():
        m, M, lane_args = m[wide], M[wide], [v[wide] for v in lane_args]
        chord = chord_coefficients(f, m, M)
        with np.errstate(all="ignore"):     # a value out of float range is rejected later
            if positive and np.min(np.asarray(f(np.linspace(m, M, 64)), dtype=float)) <= 0:
                raise DomainError("alpha_constant needs f > 0 on [m, M]")
        value[wide] = np.maximum(golden_max(lambda t, s, c, *args: objective(t, s * t + c, *args),
                                            m, M, chord.slope, chord.intercept, *lane_args)[1],
                                 floor)
    return float(value[0]) if one else value


def alpha_constant(f, iv):
    """max over [m, M] of chord(t)/f(t); >= 1 for convex positive f, and
    at least 1, its value at m and M. Given a sequence of intervals, the
    array of their constants."""
    return _chord_search(f, iv, True, 1.0, np.ones_like, lambda t, chord: chord / f(t))


def beta0_constant(f, iv):
    """max over [m, M] of f(t) - chord(t); 0 for affine f, > 0 for strictly
    concave f, and at least 0, its value at m and M. Given a sequence of
    intervals, the array of their constants."""
    return _chord_search(f, iv, False, 0.0, np.zeros_like, lambda t, chord: f(t) - chord)


def beta_p_constant(p: float, iv) -> float:
    """Additive constant for the p-power triangle-type bound:
    beta_p = 2 * beta0[t^(1/p); m^p, M^p], in closed form.

    The gap s^(1/p) - chord(s) on [m^p, M^p] is maximized where the
    derivative matches the chord slope, at s* = (p*a)^(p/(1-p)).
    """
    iv = _interval(iv)
    m, M = iv.m, iv.M
    p = float(p)
    if p < 1:
        raise DomainError(f"beta_p is defined for p >= 1, got p={p}")
    if m == M or abs(p - 1) < 1e-12:
        return 0.0
    mp, Mp = m ** p, M ** p
    a = (M - m) / (Mp - mp)
    b = (m * Mp - M * mp) / (Mp - mp)
    s_star = (p * a) ** (p / (1.0 - p))
    s_star = min(max(s_star, mp), Mp)
    gap = s_star ** (1.0 / p) - a * s_star - b
    # beta_p >= 0 in exact arithmetic, but rounding as m -> M can make gap < 0
    return 2.0 * max(gap, 0.0)


def mond_pecaric_beta(f, iv, alpha):
    """beta = max over [m, M] of chord(t) - alpha*f(t), the additive half of
    the chord bound for convex f. Given a sequence of intervals, the array
    of their constants; `alpha` is then one value or one per interval."""
    return _chord_search(f, iv, False, -np.inf,
                         lambda m, al: (1.0 - al) * np.asarray(f(m), dtype=float),
                         lambda t, chord, al: chord - al * f(t), alpha)


__all__ = [
    "ChordCoefficients", "golden_max", "chord_coefficients",
    "kantorovich_constant", "generalized_kantorovich", "alpha_constant",
    "beta0_constant", "beta_p_constant", "mond_pecaric_beta",
]
