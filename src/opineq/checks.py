"""The inequality checks.

Every check compares two sides of a stated operator (or scalar) inequality
LHS <= RHS and reports the signed margin: lambda_min(RHS - LHS) for operator
order, RHS - LHS for scalars. A margin of -eps means the inequality fails by
eps. "holds" applies the shared rule

    margin >= -tol * max(1, ||LHS||, ||RHS||).

Operator checks never re-prove anything: they assemble both sides with the
functional calculus and compare.

A check evaluates a stack of instances of one shape at once: matrices
carry a leading batch axis, maps come as a MapStack and intervals as a list,
and the check returns a list with one result per instance. A single
instance (2-D matrices, one map, one interval) runs as a stack of one and
gets its result back alone.
"""
from __future__ import annotations

import copy
import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .constants import (alpha_constant, beta0_constant, beta_p_constant,
                        function_range, generalized_kantorovich,
                        kantorovich_constant, mond_pecaric_beta)
from .functions import ScalarFunction
from .hermitian import (DEFAULT_TOL, DomainError, SpectralInterval, adjoint,
                        as_hermitian, hermitian_part, inv_psd, loewner_leq,
                        matrix_function, power, spectral_bounds, sqrtm_psd,
                        within_tolerance)
from .maps import KrausMap, MapStack, direct_sum, vector_state_value
from .means import connection, geometric_mean


def _fmt(v: float) -> str:
    return f"{v:g}"


@dataclass
class CheckResult:
    check_name: str
    params: dict
    margin: float
    holds: bool
    tolerance: float
    lhs_norm: float
    rhs_norm: float

    def to_record(self) -> dict:
        return {
            "check_name": self.check_name,
            "params": dict(self.params),
            "margin": self.margin,
            "holds": self.holds,
            "tolerance": self.tolerance,
            "lhs_norm": self.lhs_norm,
            "rhs_norm": self.rhs_norm,
        }


def _operator(name: str, params: list, lhs: np.ndarray, rhs: np.ndarray,
              tol: float) -> list:
    holds, margin, ln, rn = loewner_leq(lhs, rhs, tol)
    return [CheckResult(name, p, m, h, tol, l, r) for p, h, m, l, r in
            zip(params, holds.tolist(), margin.tolist(), ln.tolist(), rn.tolist())]


def _scalar(name: str, params: list, lhs, rhs, tol: float) -> list:
    lhs, rhs = np.asarray(lhs, dtype=float), np.asarray(rhs, dtype=float)
    margin = rhs - lhs
    ln, rn = np.abs(lhs), np.abs(rhs)
    holds = within_tolerance(margin, tol, ln, rn)
    return [CheckResult(name, p, m, h, tol, l, r) for p, h, m, l, r in
            zip(params, holds.tolist(), margin.tolist(), ln.tolist(), rn.tolist())]


def _col(values) -> np.ndarray:
    """Per-instance scalars as a (b, 1, 1) column, to scale a stack."""
    return np.asarray(values, dtype=float)[:, None, None]


def _params(ivs, dim: int, out_dim: int, **extra) -> list:
    """One params dict per instance; an `extra` value given as a list or an
    array holds one entry per instance, any other value is shared."""
    rows = []
    for i, iv in enumerate(ivs):
        row = {"dim": int(dim), "out_dim": int(out_dim), "m": float(iv.m), "M": float(iv.M)}
        for key, v in extra.items():
            row[key] = float(v[i]) if isinstance(v, (list, np.ndarray)) else v
        rows.append(row)
    return rows


def _each(constant, ivs, *args) -> list:
    """A closed-form constant per instance, as Python floats."""
    return [constant(*args, iv) for iv in ivs]


@dataclass
class CheckInstance:
    """Hypothesis bundle for one check: matrices, map, verified sandwich
    interval, and optional state/exponent/function. With a leading batch
    axis on a, b and x, phi is a MapStack and iv a list, one per instance."""
    a: np.ndarray
    phi: KrausMap
    iv: Optional[SpectralInterval] = None
    b: Optional[np.ndarray] = None
    x: Optional[np.ndarray] = None
    p: Optional[float] = None
    f: Optional[ScalarFunction] = None
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        self.a = as_hermitian(self.a)
        if self.b is not None:
            self.b = as_hermitian(self.b)
        # validated as a stack; a single instance is a stack of one here
        stacked = self.stacked
        mats = [m if stacked else m[None] for m in (self.a, self.b) if m is not None]
        if self.iv is None:
            ivs = [SpectralInterval(min(b.m for b in bs), max(b.M for b in bs))
                   for bs in zip(*(spectral_bounds(m) for m in mats))]
            self.iv = ivs if stacked else ivs[0]
            return
        ivs = self.iv if stacked else [self.iv]
        eye = np.eye(self.a.shape[-1])
        lo, hi = (_col([getattr(iv, end) for iv in ivs]) * eye for end in ("m", "M"))
        for m in mats:
            lo_ok, lo_margin, _, _ = loewner_leq(lo, m, self.tol)
            hi_ok, hi_margin, _, _ = loewner_leq(m, hi, self.tol)
            bad = ~(lo_ok & hi_ok)
            if np.any(bad):
                i = int(np.flatnonzero(bad)[0])
                raise ValueError(f"sandwich {ivs[i].m} I <= X <= {ivs[i].M} I violated "
                                 f"(margins {lo_margin[i]:.3e}, {hi_margin[i]:.3e})")

    @property
    def stacked(self) -> bool:
        return self.a.ndim == 3

    def as_stack(self) -> "CheckInstance":
        """This single instance as a stack of one; no re-validation."""
        out = copy.copy(self)
        out.a = self.a[None]
        out.b = None if self.b is None else self.b[None]
        out.x = None if self.x is None else np.asarray(self.x)[None]
        out.phi, out.iv = MapStack([self.phi]), [self.iv]
        return out

    def params(self, **extra) -> list:
        return _params(self.iv, self.a.shape[-1], self.phi.output_dim, **extra)


def _as_stack(arg):
    """One argument of a single-instance check call, as a stack of one."""
    if isinstance(arg, CheckInstance):
        return arg.as_stack()
    if isinstance(arg, np.ndarray):
        return arg[None]
    if isinstance(arg, KrausMap):
        return MapStack([arg])
    if isinstance(arg, SpectralInterval):
        return [arg]
    if isinstance(arg, list):   # the blocks of a tuple check
        return [_as_stack(a) for a in arg]
    return arg                  # shared: an exponent, a function, the tolerance


def _is_stacked(arg) -> bool:
    if isinstance(arg, CheckInstance):
        return arg.stacked
    if isinstance(arg, list):
        return _is_stacked(arg[0])
    return np.ndim(arg) == 3


def _per_instance(check):
    """Run `check`, written for stacks, on a single instance as a stack of
    one and return its one result."""
    @functools.wraps(check)
    def run(first, *args, **kwargs):
        if _is_stacked(first):
            return check(first, *args, **kwargs)
        return check(*map(_as_stack, (first,) + args), **kwargs)[0]
    return run


def _sharp_bound(iv: SpectralInterval) -> float:
    return (iv.M + iv.m) / (2.0 * np.sqrt(iv.M * iv.m))


def _eye(inst: CheckInstance) -> np.ndarray:
    return np.eye(inst.phi.output_dim)


@_per_instance
def check_choi_davis(inst: CheckInstance) -> list:
    f = inst.f
    if not f.operator_convex:
        raise DomainError(f"{f.name} is not flagged operator convex")
    lhs = matrix_function(inst.phi(inst.a), f)
    rhs = inst.phi(matrix_function(inst.a, f))
    return _operator("choi_davis", inst.params(f=f.name), lhs, rhs, inst.tol)


@_per_instance
def check_kantorovich(inst: CheckInstance, name: str = "kantorovich") -> list:
    k = _each(kantorovich_constant, inst.iv)
    lhs = inst.phi(inv_psd(inst.a))
    rhs = _col(k) * inv_psd(inst.phi(inst.a))
    return _operator(name, inst.params(constant=k), lhs, rhs, inst.tol)


@_per_instance
def check_kantorovich_squared(inst: CheckInstance,
                              name: str = "kantorovich_squared") -> list:
    k = _each(kantorovich_constant, inst.iv)
    pa = inst.phi(inst.a)
    lhs = inst.phi(inst.a @ inst.a)
    rhs = _col(k) * (pa @ pa)
    return _operator(name, inst.params(constant=k), lhs, rhs, inst.tol)


@_per_instance
def check_kantorovich_sharp(inst: CheckInstance,
                            name: str = "kantorovich_sharp") -> list:
    c = _each(_sharp_bound, inst.iv)
    sharp = geometric_mean(inst.phi(inv_psd(inst.a)), inst.phi(inst.a))
    rhs = _col(c) * _eye(inst)
    return _operator(name, inst.params(constant=c), sharp, rhs, inst.tol)


@_per_instance
def check_refinement(inst: CheckInstance) -> list:
    """Two-link chain: the sharp of Phi(A^-1), Phi(A) is dominated by the
    scalar s = ||(Phi(A)^{1/2} Phi(A^-1) Phi(A)^{1/2})^{1/2}||, which in turn
    is dominated by the sharp bound (M+m)/(2 sqrt(Mm)). One (left, right)
    pair per instance."""
    pa = inst.phi(inst.a)
    pain = inst.phi(inv_psd(inst.a))
    ph = sqrtm_psd(pa)
    s = np.sqrt(np.linalg.eigvalsh(hermitian_part(ph @ pain @ ph))[:, -1])
    c = _each(_sharp_bound, inst.iv)
    sharp = geometric_mean(pain, pa)
    left = _operator("refinement.left", inst.params(middle=s), sharp,
                     _col(s) * _eye(inst), inst.tol)
    right = _scalar("refinement.right", inst.params(middle=s, constant=c),
                    s, c, inst.tol)
    return list(zip(left, right))


@_per_instance
def check_power_inner_product(inst: CheckInstance, r: float) -> list:
    if not (r >= 1 or r < 0):
        raise DomainError(f"exponent must satisfy r >= 1 or r < 0, got {r}")
    lhs = [e ** r for e in vector_state_value(inst.x, inst.a).tolist()]
    rhs = vector_state_value(inst.x, power(inst.a, r))
    return _scalar(f"power_inner_product[r={_fmt(r)}]", inst.params(r=r), lhs, rhs,
                   inst.tol)


@_per_instance
def check_ando(inst: CheckInstance) -> list:
    lhs = inst.phi(geometric_mean(inst.a, inst.b))
    rhs = geometric_mean(inst.phi(inst.a), inst.phi(inst.b))
    return _operator("ando", inst.params(), lhs, rhs, inst.tol)


@_per_instance
def check_ando_connection(inst: CheckInstance) -> list:
    f = inst.f
    if not f.operator_monotone_increasing:
        raise DomainError(f"{f.name} is not flagged operator monotone increasing")
    if not f.mean_normalized:
        raise DomainError(f"{f.name} has f(1) != 1, not a mean-representing function")
    lhs = inst.phi(connection(inst.a, inst.b, f))
    rhs = connection(inst.phi(inst.a), inst.phi(inst.b), f)
    return _operator("ando_connection", inst.params(f=f.name), lhs, rhs, inst.tol)


@_per_instance
def check_reverse_ando_convex(inst: CheckInstance) -> list:
    f = inst.f
    if not f.operator_convex:
        raise DomainError(f"{f.name} is not flagged operator convex")
    lhs = connection(inst.phi(inst.a), inst.phi(inst.b), f)
    rhs = inst.phi(connection(inst.a, inst.b, f))
    return _operator("reverse_ando_convex", inst.params(f=f.name), lhs, rhs, inst.tol)


def _require_sandwich(a: np.ndarray, b: np.ndarray, lo, hi, tol: float) -> None:
    # lo*A <= B <= hi*A for every pair, re-verified no matter how it was built
    ok_lo, mlo, _, _ = loewner_leq(_col(lo) * a, b, tol)
    ok_hi, mhi, _, _ = loewner_leq(b, _col(hi) * a, tol)
    bad = ~(ok_lo & ok_hi)
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        raise ValueError(f"hypothesis {lo[i]}*A <= B <= {hi[i]}*A fails "
                         f"(margins {mlo[i]:.3e}, {mhi[i]:.3e})")


@_per_instance
def check_reverse_ando_sandwich(a, b, phi: MapStack, iv: list,
                                tol: float = DEFAULT_TOL) -> list:
    a, b = as_hermitian(a), as_hermitian(b)
    _require_sandwich(a, b, [v.m ** 2 for v in iv], [v.M ** 2 for v in iv], tol)
    c = _each(_sharp_bound, iv)
    lhs = geometric_mean(phi(a), phi(b))
    rhs = _col(c) * phi(geometric_mean(a, b))
    return _operator("reverse_ando_sandwich",
                     _params(iv, a.shape[-1], phi.output_dim, constant=c), lhs, rhs, tol)


@_per_instance
def check_kantorovich_equivalents(inst: CheckInstance) -> list:
    """The four forms of the inverse-reversal bound, each checked as its own
    statement: operator, scalar (vector state), sharp, and squared."""
    k = _each(kantorovich_constant, inst.iv)
    forms = [
        check_kantorovich(inst, name="kantorovich_equivalents.operator"),
        _scalar("kantorovich_equivalents.scalar", inst.params(constant=k),
                vector_state_value(inst.x, inst.phi(inv_psd(inst.a))),
                np.asarray(k) / vector_state_value(inst.x, inst.phi(inst.a)),
                inst.tol),
        check_kantorovich_sharp(inst, name="kantorovich_equivalents.sharp"),
        check_kantorovich_squared(inst, name="kantorovich_equivalents.squared"),
    ]
    return [list(results) for results in zip(*forms)]


@_per_instance
def check_reverse_choi_quadratic(a, b, phi: MapStack, iv: list,
                                 tol: float = DEFAULT_TOL) -> list:
    a, b = as_hermitian(a), as_hermitian(b)
    _require_sandwich(a, b, [v.m for v in iv], [v.M for v in iv], tol)
    k = [_sharp_bound(v) ** 2 for v in iv]
    lhs = phi(hermitian_part(b @ inv_psd(a) @ b))
    pb = phi(b)
    rhs = pb @ inv_psd(phi(a)) @ pb
    rhs = _col(k) * (rhs + adjoint(rhs)) / 2
    return _operator("reverse_choi_quadratic",
                     _params(iv, a.shape[-1], phi.output_dim, constant=k), lhs, rhs, tol)


@_per_instance
def check_mond_pecaric(inst: CheckInstance, alpha, alpha_label: Optional[str] = None,
                       beta=None) -> list:
    """`alpha` is one value or one per instance (then `alpha_label` names
    it). `beta`, one per instance, is computed here unless given, so a
    caller holding several stacks can compute it for all in one search."""
    f = inst.f
    if not f.scalar_convex:
        raise DomainError(f"{f.name} is not flagged convex")
    if np.any(np.asarray(alpha) < 0):
        raise DomainError("alpha must be >= 0")
    if beta is None:
        beta = mond_pecaric_beta(f, inst.iv, alpha)
    lhs = vector_state_value(inst.x, inst.phi(matrix_function(inst.a, f)))
    t0 = vector_state_value(inst.x, inst.phi(inst.a))
    rhs = np.asarray(beta) + np.asarray(alpha) * np.asarray(f(t0), dtype=float)
    return _scalar(f"mond_pecaric[alpha={alpha_label or _fmt(alpha)}]",
                   inst.params(f=f.name, alpha=alpha, beta=beta), lhs, rhs, inst.tol)


@_per_instance
def check_generalized_kantorovich_operator(inst: CheckInstance, p: float) -> list:
    k = _each(generalized_kantorovich, inst.iv, p)
    lhs = inst.phi(power(inst.a, p))
    rhs = _col(k) * power(inst.phi(inst.a), p)
    return _operator(f"generalized_kantorovich[p={_fmt(p)}]",
                     inst.params(p=p, constant=k), lhs, rhs, inst.tol)


@_per_instance
def check_scalar_power_chain(inst: CheckInstance, p: float) -> list:
    """<Phi(A^p)x,x> <= K <Phi(A)x,x>^p <= K <Phi(A)^p x,x>: the middle bound
    is the tighter one, the chain certifies that. One (lower, upper) pair
    per instance."""
    k = _each(generalized_kantorovich, inst.iv, p)
    pa = inst.phi(inst.a)
    s_lhs = vector_state_value(inst.x, inst.phi(power(inst.a, p)))
    mid = [kk * v ** p for kk, v in zip(k, vector_state_value(inst.x, pa).tolist())]
    s_rhs = np.asarray(k) * vector_state_value(inst.x, power(pa, p))
    params = inst.params(p=p, constant=k)
    lower = _scalar(f"scalar_power_chain[p={_fmt(p)}].lower", params, s_lhs, mid, inst.tol)
    upper = _scalar(f"scalar_power_chain[p={_fmt(p)}].upper", params, mid, s_rhs, inst.tol)
    return list(zip(lower, upper))


@_per_instance
def check_additive_sqrt(inst: CheckInstance) -> list:
    c = [(iv.M - iv.m) ** 2 / (4.0 * (iv.M + iv.m)) for iv in inst.iv]
    lhs = sqrtm_psd(inst.phi(inst.a @ inst.a))
    rhs = _col(c) * _eye(inst) + inst.phi(inst.a)
    return _operator("additive_sqrt", inst.params(constant=c), lhs, rhs, inst.tol)


def minkowski_constants(f: ScalarFunction, ivs) -> dict:
    """The constants of `check_minkowski_general` for each interval, searched
    in lockstep: alpha[f; m, M] and 2*beta0[f^-1; f-range]."""
    return {"alpha": alpha_constant(f, ivs),
            "beta": 2.0 * beta0_constant(f.inverted(), function_range(f, ivs))}


@_per_instance
def check_minkowski_general(inst: CheckInstance, f: ScalarFunction,
                            alpha=None, beta=None) -> list:
    """Triangle-type bound through f: multiplicative form with the chord-ratio
    constant alpha[f; m, M], additive form with 2*beta0[f^-1; f-range].
    `alpha` and `beta`, one per instance, come from `minkowski_constants`
    unless given. One (mult, add) pair per instance."""
    if not (f.one_to_one and f.operator_convex):
        raise DomainError(f"{f.name} must be 1-1 and operator convex")
    finv = f.inverted()
    if not finv.operator_monotone_increasing:
        raise DomainError(f"inverse of {f.name} is not operator monotone")
    phi = inst.phi
    name = f"minkowski_general[f={f.name}]"
    sa = matrix_function(phi(matrix_function(inst.a, f)), finv)
    sb = matrix_function(phi(matrix_function(inst.b, f)), finv)
    sab = matrix_function(phi(matrix_function(inst.a + inst.b, f)), finv)
    if alpha is None:
        alpha, beta = minkowski_constants(f, inst.iv).values()
    params = inst.params(f=f.name, alpha=alpha, beta=beta)
    mult = _operator(name + ".mult", params, sa + sb, _col(alpha) * sab, inst.tol)
    add = _operator(name + ".add", params, sa + sb, _col(beta) * _eye(inst) + sab, inst.tol)
    return list(zip(mult, add))


@_per_instance
def check_power_minkowski(a, b, phi: MapStack, iv: list, p: float,
                          tol: float = DEFAULT_TOL,
                          name: Optional[str] = None) -> list:
    """One (mult, add) pair per instance."""
    if not 1 <= p <= 2:
        raise DomainError(f"need 1 <= p <= 2, got {p}")
    a, b = as_hermitian(a), as_hermitian(b)
    name = name or f"power_minkowski[p={_fmt(p)}]"
    sa = power(phi(power(a, p)), 1.0 / p)
    sb = power(phi(power(b, p)), 1.0 / p)
    sab = power(phi(power(a + b, p)), 1.0 / p)
    kp = [generalized_kantorovich(p, v) ** (1.0 / p) for v in iv]
    bp = _each(beta_p_constant, iv, p)
    params = _params(iv, a.shape[-1], phi.output_dim, p=p, factor=kp, summand=bp)
    mult = _operator(name + ".mult", params, sa + sb, _col(kp) * sab, tol)
    add = _operator(name + ".add", params, sa + sb,
                    _col(bp) * np.eye(phi.output_dim) + sab, tol)
    return list(zip(mult, add))


def block_diag(mats) -> np.ndarray:
    """The block-diagonal matrix of the given blocks; for stacks of blocks,
    the stack of block-diagonal matrices."""
    mats = [np.asarray(m) for m in mats]
    n = sum(m.shape[-1] for m in mats)
    dtype = complex if any(np.iscomplexobj(m) for m in mats) else float
    out = np.zeros(mats[0].shape[:-2] + (n, n), dtype=dtype)
    lo = 0
    for m in mats:
        hi = lo + m.shape[-1]
        out[..., lo:hi, lo:hi] = m
        lo = hi
    return out


@_per_instance
def check_tuple_minkowski(as_list, bs_list, phis, iv: list,
                          tol: float = DEFAULT_TOL) -> list:
    """k-tuple version at p = 2, reduced to the two-term power check over the
    direct sum of the blocks and the summed map. `as_list`, `bs_list` and
    `phis` hold one stack per block position."""
    k = len(as_list)
    if not (k == len(bs_list) == len(phis)):
        raise ValueError("need equally many A blocks, B blocks, and maps")
    ds = MapStack([direct_sum(maps) for maps in zip(*(p.maps for p in phis))])
    pairs = check_power_minkowski(block_diag(as_list), block_diag(bs_list), ds, iv,
                                  2.0, tol, name=f"tuple_minkowski[k={k}]")
    for mult, _ in pairs:
        mult.params["k"] = k    # the pair shares one params dict
    return pairs


__all__ = [
    "CheckResult", "CheckInstance", "check_choi_davis", "check_kantorovich",
    "check_kantorovich_squared", "check_kantorovich_sharp", "check_refinement",
    "check_power_inner_product", "check_ando", "check_ando_connection",
    "check_reverse_ando_convex", "check_reverse_ando_sandwich",
    "check_kantorovich_equivalents", "check_reverse_choi_quadratic",
    "check_mond_pecaric", "check_generalized_kantorovich_operator",
    "check_scalar_power_chain", "check_additive_sqrt", "minkowski_constants",
    "check_minkowski_general", "check_power_minkowski",
    "check_tuple_minkowski", "block_diag",
]
