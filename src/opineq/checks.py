"""The inequality checks.

Every check compares two sides of a stated operator (or scalar) inequality
LHS <= RHS and reports the signed margin: lambda_min(RHS - LHS) for operator
order, RHS - LHS for scalars. A margin of -eps means the inequality fails by
eps. "holds" applies the shared rule

    margin >= -tol * max(1, ||LHS||, ||RHS||).

Operator checks never re-prove anything: they assemble both sides with the
functional calculus and compare.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .constants import (alpha_constant, beta0_constant, beta_p_constant,
                        generalized_kantorovich, kantorovich_constant,
                        mond_pecaric_beta)
from .functions import ScalarFunction
from .hermitian import (DEFAULT_TOL, DomainError, SpectralInterval,
                        as_hermitian, inv_psd, loewner_leq, matrix_function,
                        power, spectral_bounds, sqrtm_psd, within_tolerance)
from .maps import KrausMap, direct_sum, vector_state_value
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


def _operator(name: str, params: dict, lhs: np.ndarray, rhs: np.ndarray,
              tol: float) -> CheckResult:
    holds, margin, ln, rn = loewner_leq(lhs, rhs, tol)
    return CheckResult(name, params, margin, holds, tol, ln, rn)


def _scalar(name: str, params: dict, lhs: float, rhs: float,
            tol: float) -> CheckResult:
    margin = float(rhs - lhs)
    ln, rn = abs(float(lhs)), abs(float(rhs))
    return CheckResult(name, params, margin, within_tolerance(margin, tol, ln, rn),
                       tol, ln, rn)


@dataclass
class CheckInstance:
    """Hypothesis bundle for one check: matrices, map, verified sandwich
    interval, and optional state/exponent/function."""
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
        mats = [self.a] if self.b is None else [self.a, self.b]
        if self.iv is None:
            bounds = [spectral_bounds(m) for m in mats]
            self.iv = SpectralInterval(min(b.m for b in bounds),
                                       max(b.M for b in bounds))
        else:
            n = self.a.shape[0]
            eye = np.eye(n)
            for m in mats:
                lo_ok, lo_margin, _, _ = loewner_leq(self.iv.m * eye, m, self.tol)
                hi_ok, hi_margin, _, _ = loewner_leq(m, self.iv.M * eye, self.tol)
                if not (lo_ok and hi_ok):
                    raise ValueError(
                        f"sandwich {self.iv.m} I <= X <= {self.iv.M} I violated "
                        f"(margins {lo_margin:.3e}, {hi_margin:.3e})")

    def params(self, **extra) -> dict:
        out = {"dim": int(self.a.shape[0]), "out_dim": int(self.phi.output_dim),
               "m": float(self.iv.m), "M": float(self.iv.M)}
        out.update(extra)
        return out


def _sharp_bound(iv: SpectralInterval) -> float:
    return (iv.M + iv.m) / (2.0 * np.sqrt(iv.M * iv.m))


def check_choi_davis(inst: CheckInstance) -> CheckResult:
    f = inst.f
    if not f.operator_convex:
        raise DomainError(f"{f.name} is not flagged operator convex")
    lhs = matrix_function(inst.phi(inst.a), f)
    rhs = inst.phi(matrix_function(inst.a, f))
    return _operator("choi_davis", inst.params(f=f.name), lhs, rhs, inst.tol)


def check_kantorovich(inst: CheckInstance, name: str = "kantorovich") -> CheckResult:
    k = kantorovich_constant(inst.iv)
    lhs = inst.phi(inv_psd(inst.a))
    rhs = k * inv_psd(inst.phi(inst.a))
    return _operator(name, inst.params(constant=k), lhs, rhs, inst.tol)


def check_kantorovich_squared(inst: CheckInstance,
                              name: str = "kantorovich_squared") -> CheckResult:
    k = kantorovich_constant(inst.iv)
    pa = inst.phi(inst.a)
    lhs = inst.phi(inst.a @ inst.a)
    rhs = k * (pa @ pa)
    return _operator(name, inst.params(constant=k), lhs, rhs, inst.tol)


def check_kantorovich_sharp(inst: CheckInstance,
                            name: str = "kantorovich_sharp") -> CheckResult:
    c = _sharp_bound(inst.iv)
    sharp = geometric_mean(inst.phi(inv_psd(inst.a)), inst.phi(inst.a))
    rhs = c * np.eye(inst.phi.output_dim)
    return _operator(name, inst.params(constant=c), sharp, rhs, inst.tol)


def check_refinement(inst: CheckInstance) -> tuple[CheckResult, CheckResult]:
    """Two-link chain: the sharp of Phi(A^-1), Phi(A) is dominated by the
    scalar s = ||(Phi(A)^{1/2} Phi(A^-1) Phi(A)^{1/2})^{1/2}||, which in turn
    is dominated by the sharp bound (M+m)/(2 sqrt(Mm))."""
    pa = inst.phi(inst.a)
    pain = inst.phi(inv_psd(inst.a))
    ph = sqrtm_psd(pa)
    w = ph @ pain @ ph
    s = float(np.sqrt(np.linalg.eigvalsh((w + w.conj().T) / 2)[-1]))
    c = _sharp_bound(inst.iv)
    sharp = geometric_mean(pain, pa)
    left = _operator("refinement.left", inst.params(middle=s), sharp,
                     s * np.eye(inst.phi.output_dim), inst.tol)
    right = _scalar("refinement.right", inst.params(middle=s, constant=c),
                    s, c, inst.tol)
    return left, right


def check_power_inner_product(inst: CheckInstance, r: float) -> CheckResult:
    if not (r >= 1 or r < 0):
        raise DomainError(f"exponent must satisfy r >= 1 or r < 0, got {r}")
    e = vector_state_value(inst.x, inst.a)
    lhs = e ** r
    rhs = vector_state_value(inst.x, power(inst.a, r))
    return _scalar(f"power_inner_product[r={_fmt(r)}]", inst.params(r=r), lhs, rhs,
                   inst.tol)


def check_ando(inst: CheckInstance) -> CheckResult:
    lhs = inst.phi(geometric_mean(inst.a, inst.b))
    rhs = geometric_mean(inst.phi(inst.a), inst.phi(inst.b))
    return _operator("ando", inst.params(), lhs, rhs, inst.tol)


def check_ando_connection(inst: CheckInstance) -> CheckResult:
    f = inst.f
    if not f.operator_monotone_increasing:
        raise DomainError(f"{f.name} is not flagged operator monotone increasing")
    if not f.mean_normalized:
        raise DomainError(f"{f.name} has f(1) != 1, not a mean-representing function")
    lhs = inst.phi(connection(inst.a, inst.b, f))
    rhs = connection(inst.phi(inst.a), inst.phi(inst.b), f)
    return _operator("ando_connection", inst.params(f=f.name), lhs, rhs, inst.tol)


def check_reverse_ando_convex(inst: CheckInstance) -> CheckResult:
    f = inst.f
    if not f.operator_convex:
        raise DomainError(f"{f.name} is not flagged operator convex")
    lhs = connection(inst.phi(inst.a), inst.phi(inst.b), f)
    rhs = inst.phi(connection(inst.a, inst.b, f))
    return _operator("reverse_ando_convex", inst.params(f=f.name), lhs, rhs, inst.tol)


def _require_sandwich(a: np.ndarray, b: np.ndarray, lo: float, hi: float,
                      tol: float) -> None:
    # lo*A <= B <= hi*A, re-verified no matter how the pair was built
    ok_lo, mlo, _, _ = loewner_leq(lo * a, b, tol)
    ok_hi, mhi, _, _ = loewner_leq(b, hi * a, tol)
    if not (ok_lo and ok_hi):
        raise ValueError(f"hypothesis {lo}*A <= B <= {hi}*A fails "
                         f"(margins {mlo:.3e}, {mhi:.3e})")


def check_reverse_ando_sandwich(a, b, phi: KrausMap, iv: SpectralInterval,
                                tol: float = DEFAULT_TOL) -> CheckResult:
    a, b = as_hermitian(a), as_hermitian(b)
    _require_sandwich(a, b, iv.m ** 2, iv.M ** 2, tol)
    c = _sharp_bound(iv)
    lhs = geometric_mean(phi(a), phi(b))
    rhs = c * phi(geometric_mean(a, b))
    params = {"dim": int(a.shape[0]), "out_dim": int(phi.output_dim),
              "m": float(iv.m), "M": float(iv.M), "constant": c}
    return _operator("reverse_ando_sandwich", params, lhs, rhs, tol)


def check_kantorovich_equivalents(inst: CheckInstance) -> list[CheckResult]:
    """The four forms of the inverse-reversal bound, each checked as its own
    statement: operator, scalar (vector state), sharp, and squared."""
    k = kantorovich_constant(inst.iv)
    results = [
        check_kantorovich(inst, name="kantorovich_equivalents.operator"),
        _scalar("kantorovich_equivalents.scalar", inst.params(constant=k),
                vector_state_value(inst.x, inst.phi(inv_psd(inst.a))),
                k / vector_state_value(inst.x, inst.phi(inst.a)),
                inst.tol),
        check_kantorovich_sharp(inst, name="kantorovich_equivalents.sharp"),
        check_kantorovich_squared(inst, name="kantorovich_equivalents.squared"),
    ]
    return results


def check_reverse_choi_quadratic(a, b, phi: KrausMap, iv: SpectralInterval,
                                 tol: float = DEFAULT_TOL) -> CheckResult:
    a, b = as_hermitian(a), as_hermitian(b)
    _require_sandwich(a, b, iv.m, iv.M, tol)
    k = _sharp_bound(iv) ** 2
    q = b @ inv_psd(a) @ b
    lhs = phi((q + q.conj().T) / 2)
    pb = phi(b)
    rhs = pb @ inv_psd(phi(a)) @ pb
    rhs = k * (rhs + rhs.conj().T) / 2
    params = {"dim": int(a.shape[0]), "out_dim": int(phi.output_dim),
              "m": float(iv.m), "M": float(iv.M), "constant": k}
    return _operator("reverse_choi_quadratic", params, lhs, rhs, tol)


def check_mond_pecaric(inst: CheckInstance, alpha: float,
                       alpha_label: Optional[str] = None) -> CheckResult:
    f = inst.f
    if not f.scalar_convex:
        raise DomainError(f"{f.name} is not flagged convex")
    if alpha < 0:
        raise DomainError("alpha must be >= 0")
    beta = mond_pecaric_beta(f, inst.iv, alpha)
    lhs = vector_state_value(inst.x, inst.phi(matrix_function(inst.a, f)))
    t0 = vector_state_value(inst.x, inst.phi(inst.a))
    rhs = beta + alpha * float(f(np.asarray(t0, dtype=float)))
    return _scalar(f"mond_pecaric[alpha={alpha_label or _fmt(alpha)}]",
                   inst.params(f=f.name, alpha=alpha, beta=beta), lhs, rhs, inst.tol)


def check_generalized_kantorovich_operator(inst: CheckInstance, p: float) -> CheckResult:
    k = generalized_kantorovich(p, inst.iv)
    lhs = inst.phi(power(inst.a, p))
    rhs = k * power(inst.phi(inst.a), p)
    return _operator(f"generalized_kantorovich[p={_fmt(p)}]",
                     inst.params(p=p, constant=k), lhs, rhs, inst.tol)


def check_scalar_power_chain(inst: CheckInstance, p: float) -> tuple[CheckResult, CheckResult]:
    """<Phi(A^p)x,x> <= K <Phi(A)x,x>^p <= K <Phi(A)^p x,x>: the middle bound
    is the tighter one, the chain certifies that."""
    k = generalized_kantorovich(p, inst.iv)
    pa = inst.phi(inst.a)
    s_lhs = vector_state_value(inst.x, inst.phi(power(inst.a, p)))
    mid = k * vector_state_value(inst.x, pa) ** p
    s_rhs = k * vector_state_value(inst.x, power(pa, p))
    params = inst.params(p=p, constant=k)
    lower = _scalar(f"scalar_power_chain[p={_fmt(p)}].lower", params, s_lhs, mid, inst.tol)
    upper = _scalar(f"scalar_power_chain[p={_fmt(p)}].upper", params, mid, s_rhs, inst.tol)
    return lower, upper


def check_additive_sqrt(inst: CheckInstance) -> CheckResult:
    m, M = inst.iv.m, inst.iv.M
    c = (M - m) ** 2 / (4.0 * (M + m))
    lhs = sqrtm_psd(inst.phi(inst.a @ inst.a))
    rhs = c * np.eye(inst.phi.output_dim) + inst.phi(inst.a)
    return _operator("additive_sqrt", inst.params(constant=c), lhs, rhs, inst.tol)


def _f_range(f, iv: SpectralInterval) -> SpectralInterval:
    ts = np.linspace(iv.m, iv.M, 4097)
    fv = np.asarray(f(ts), dtype=float)
    return SpectralInterval(float(fv.min()), float(fv.max()))


def check_minkowski_general(inst: CheckInstance,
                            f: ScalarFunction) -> tuple[CheckResult, CheckResult]:
    """Triangle-type bound through f: multiplicative form with the chord-ratio
    constant alpha[f; m, M], additive form with 2*beta0[f^-1; f-range]."""
    if not (f.one_to_one and f.operator_convex):
        raise DomainError(f"{f.name} must be 1-1 and operator convex")
    finv = f.inverted()
    if not finv.operator_monotone_increasing:
        raise DomainError(f"inverse of {f.name} is not operator monotone")
    phi, iv = inst.phi, inst.iv
    name = f"minkowski_general[f={f.name}]"
    sa = matrix_function(phi(matrix_function(inst.a, f)), finv)
    sb = matrix_function(phi(matrix_function(inst.b, f)), finv)
    sab = matrix_function(phi(matrix_function(inst.a + inst.b, f)), finv)
    al = alpha_constant(f, iv)
    be = 2.0 * beta0_constant(finv, _f_range(f, iv))
    params = inst.params(f=f.name, alpha=al, beta=be)
    mult = _operator(name + ".mult", params, sa + sb, al * sab, inst.tol)
    add = _operator(name + ".add", params, sa + sb,
                    be * np.eye(phi.output_dim) + sab, inst.tol)
    return mult, add


def check_power_minkowski(a, b, phi: KrausMap, iv: SpectralInterval,
                          p: float, tol: float = DEFAULT_TOL,
                          name: Optional[str] = None) -> tuple[CheckResult, CheckResult]:
    if not 1 <= p <= 2:
        raise DomainError(f"need 1 <= p <= 2, got {p}")
    a, b = as_hermitian(a), as_hermitian(b)
    name = name or f"power_minkowski[p={_fmt(p)}]"
    sa = power(phi(power(a, p)), 1.0 / p)
    sb = power(phi(power(b, p)), 1.0 / p)
    sab = power(phi(power(a + b, p)), 1.0 / p)
    kp = generalized_kantorovich(p, iv) ** (1.0 / p)
    bp = beta_p_constant(p, iv)
    params = {"dim": int(a.shape[0]), "out_dim": int(phi.output_dim),
              "m": float(iv.m), "M": float(iv.M), "p": p,
              "factor": kp, "summand": bp}
    mult = _operator(name + ".mult", params, sa + sb, kp * sab, tol)
    add = _operator(name + ".add", params, sa + sb,
                    bp * np.eye(phi.output_dim) + sab, tol)
    return mult, add


def block_diag(mats) -> np.ndarray:
    mats = [np.asarray(m) for m in mats]
    n = sum(m.shape[0] for m in mats)
    dtype = complex if any(np.iscomplexobj(m) for m in mats) else float
    out = np.zeros((n, n), dtype=dtype)
    lo = 0
    for m in mats:
        hi = lo + m.shape[0]
        out[lo:hi, lo:hi] = m
        lo = hi
    return out


def check_tuple_minkowski(as_list, bs_list, phis, iv: SpectralInterval,
                          tol: float = DEFAULT_TOL) -> tuple[CheckResult, CheckResult]:
    """k-tuple version at p = 2, reduced to the two-term power check over the
    direct sum of the blocks and the summed map."""
    k = len(as_list)
    if not (k == len(bs_list) == len(phis)):
        raise ValueError("need equally many A blocks, B blocks, and maps")
    a = block_diag(as_list)
    b = block_diag(bs_list)
    ds = direct_sum(phis)
    mult, add = check_power_minkowski(a, b, ds, iv, 2.0, tol,
                                      name=f"tuple_minkowski[k={k}]")
    for r in (mult, add):
        r.params["k"] = k
    return mult, add


__all__ = [
    "CheckResult", "CheckInstance", "check_choi_davis", "check_kantorovich",
    "check_kantorovich_squared", "check_kantorovich_sharp", "check_refinement",
    "check_power_inner_product", "check_ando", "check_ando_connection",
    "check_reverse_ando_convex", "check_reverse_ando_sandwich",
    "check_kantorovich_equivalents", "check_reverse_choi_quadratic",
    "check_mond_pecaric", "check_generalized_kantorovich_operator",
    "check_scalar_power_chain", "check_additive_sqrt",
    "check_minkowski_general", "check_power_minkowski",
    "check_tuple_minkowski", "block_diag",
]
