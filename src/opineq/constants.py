"""Scalar constants behind the reverse inequalities.

All of them are maxima of smooth 1-D objectives over a spectral interval:
the Kantorovich constant and its p-power generalization, the chord-ratio
constant alpha, the chord-gap constant beta0, the additive power constant
beta_p with its closed form, and the chord-based (alpha, beta) pair used in
the scalar bound <Phi(f(A))x,x> <= beta + alpha*f(<Phi(A)x,x>).

Maximization is a 4096-point scan followed by golden-section refinement;
objectives here have at most a few extrema, so scan+refine is robust. The
searched constants take a sequence of intervals too and then run one search
per interval, all in lockstep; the closed forms take one interval.
scipy is deliberately not pulled in for a one-screen optimizer.
"""
from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .hermitian import BATCH_BYTES, DomainError, SpectralInterval

_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0
SCAN_POINTS = 4096
XTOL = 1e-12


def _interval(iv) -> SpectralInterval:
    if isinstance(iv, SpectralInterval):
        return iv
    m, M = iv
    return SpectralInterval(float(m), float(M))


def _lanes(ivs):
    """(m, M) as arrays over lanes, and whether `ivs` was one interval (a
    SpectralInterval or an (m, M) pair) rather than a sequence of them."""
    one = isinstance(ivs, SpectralInterval) or np.isscalar(ivs[0])
    ivs = [_interval(iv) for iv in ([ivs] if one else ivs)]
    return (np.array([iv.m for iv in ivs]), np.array([iv.M for iv in ivs]), one)


def _unlane(values: np.ndarray, one: bool):
    return float(values[0]) if one else values


def _grid(lo: np.ndarray, hi: np.ndarray, num: int) -> np.ndarray:
    """Column i is np.linspace(lo[i], hi[i], num). np.linspace takes another
    branch for every lane once one lane has a zero step, so those lanes get
    their own call."""
    out = np.empty((num, len(lo)))
    flat = (hi - lo) / max(num - 1, 1) == 0
    for group in (flat, ~flat):
        if group.any():
            out[:, group] = np.linspace(lo[group], hi[group], num)
    return out


# arrays the size of the scan grid alive at once while an objective runs on it
_GRID_TEMPORARIES = 8


def _lane_chunks(lanes: int, points: int):
    """Slices of lanes whose `points`-point grid, with the temporaries an
    objective makes of its size, fits in BATCH_BYTES."""
    step = max(1, BATCH_BYTES // (8 * points * _GRID_TEMPORARIES))
    return [slice(i, i + step) for i in range(0, lanes, step)]


def golden_max(f: Callable[..., np.ndarray], lo, hi, *lane_args,
               xtol: float = XTOL, scan_points: int = SCAN_POINTS):
    """Global max of a smooth f on [lo, hi]: coarse scan, then golden section
    inside the best bracket. Returns (argmax, value). f must accept arrays.

    `lo` and `hi` may be arrays, one bracket per lane; the lanes then run in
    lockstep and (argmax, value) are arrays. f(t, *lane_args) gets points
    with the lanes on the last axis, a grid of them during the scan, and
    each of `lane_args` (arrays, one entry per lane) cut to the same lanes.
    Each lane takes the steps the scalar search would take on its own and
    stops once its bracket is narrower than xtol.
    """
    one = np.ndim(lo) == 0 and np.ndim(hi) == 0
    lo, hi = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (lo, hi))
    if np.any(hi < lo):
        bad = np.flatnonzero(hi < lo)[0]
        raise ValueError(f"empty interval [{lo[bad]}, {hi[bad]}]")
    lane_args = [np.asarray(v) for v in lane_args]
    top, best, a, b = (np.empty(len(lo)) for _ in range(4))
    for part in _lane_chunks(len(lo), scan_points):
        xs = _grid(lo[part], hi[part], scan_points)
        vals = np.asarray(f(xs, *(v[part] for v in lane_args)), dtype=float)
        # a point bracket is its own maximum, whatever f is worth there
        if not np.all(np.isfinite(vals[:, hi[part] > lo[part]])):
            raise ValueError("objective is not finite on the interval")
        k = np.argmax(vals, axis=0)
        cols = np.arange(len(k))
        top[part], best[part] = xs[k, cols], vals[k, cols]
        a[part] = xs[np.maximum(k - 1, 0), cols]
        b[part] = xs[np.minimum(k + 1, scan_points - 1), cols]
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = np.asarray(f(c, *lane_args), dtype=float)
    fd = np.asarray(f(d, *lane_args), dtype=float)
    live = (b - a) > xtol
    while live.any():
        # where fc >= fd keep [a, d] and probe a new c, else keep [c, b] and
        # probe a new d; lanes no longer live keep every value as it is
        left = fc >= fd
        go_left, go_right = live & left, live & ~left
        a = np.where(go_right, c, a)
        b = np.where(go_left, d, b)
        probe = np.where(left, b - _INVPHI * (b - a), a + _INVPHI * (b - a))
        fp = np.asarray(f(probe, *lane_args), dtype=float)
        c, fc, d, fd = (np.where(go_left, probe, np.where(go_right, d, c)),
                        np.where(go_left, fp, np.where(go_right, fd, fc)),
                        np.where(go_left, c, np.where(go_right, probe, d)),
                        np.where(go_left, fc, np.where(go_right, fp, fd)))
        live = (b - a) > xtol
    x = (a + b) / 2.0
    fx = np.asarray(f(x, *lane_args), dtype=float)
    take = fx >= best
    arg, value = np.where(take, x, top), np.where(take, fx, best)
    if one:
        return float(arg[0]), float(value[0])
    return arg, value


def function_range(f, iv):
    """[min f, max f] over a 4097-point grid of [m, M]; given a sequence of
    intervals, the list of their ranges."""
    m, M, one = _lanes(iv)
    ranges = []
    for part in _lane_chunks(len(m), 4097):
        fv = np.asarray(f(_grid(m[part], M[part], 4097)), dtype=float)
        ranges += [SpectralInterval(lo, hi) for lo, hi in
                   zip(fv.min(axis=0).tolist(), fv.max(axis=0).tolist())]
    return ranges[0] if one else ranges


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
    return lead * inner ** p


def alpha_constant(f, iv):
    """max over [m, M] of chord(t)/f(t); >= 1 for convex positive f.
    Given a sequence of intervals, the array of their constants."""
    m, M, one = _lanes(iv)
    value = np.ones(len(m))
    wide = m != M
    if wide.any():
        m, M = m[wide], M[wide]
        chord = chord_coefficients(f, m, M)
        if np.min(np.asarray(f(np.linspace(m, M, 64)), dtype=float)) <= 0:
            raise DomainError("alpha_constant needs f > 0 on [m, M]")
        value[wide] = golden_max(lambda t, s, c: (s * t + c) / f(t), m, M,
                                 chord.slope, chord.intercept)[1]
    return _unlane(value, one)


def beta0_constant(f, iv):
    """max over [m, M] of f(t) - chord(t); 0 for affine f, > 0 for strictly
    concave f. Given a sequence of intervals, the array of their constants."""
    m, M, one = _lanes(iv)
    value = np.zeros(len(m))
    wide = m != M
    if wide.any():
        m, M = m[wide], M[wide]
        chord = chord_coefficients(f, m, M)
        value[wide] = golden_max(lambda t, s, c: f(t) - (s * t + c), m, M,
                                 chord.slope, chord.intercept)[1]
    return _unlane(value, one)


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
    return 2.0 * gap


def mond_pecaric_beta(f, iv, alpha):
    """beta = max over [m, M] of chord(t) - alpha*f(t), the additive half of
    the chord bound for convex f. Given a sequence of intervals, the array
    of their constants; `alpha` is then one value or one per interval."""
    m, M, one = _lanes(iv)
    alpha = np.broadcast_to(np.asarray(alpha, dtype=float), m.shape)
    value = (1.0 - alpha) * np.asarray(f(m), dtype=float)
    wide = m != M
    if wide.any():
        m, M, alpha = m[wide], M[wide], alpha[wide]
        chord = chord_coefficients(f, m, M)
        value[wide] = golden_max(lambda t, s, c, al: (s * t + c) - al * f(t), m, M,
                                 chord.slope, chord.intercept, alpha)[1]
    return _unlane(value, one)


__all__ = [
    "ChordCoefficients", "golden_max", "function_range", "chord_coefficients",
    "kantorovich_constant", "generalized_kantorovich", "alpha_constant",
    "beta0_constant", "beta_p_constant", "mond_pecaric_beta",
]
