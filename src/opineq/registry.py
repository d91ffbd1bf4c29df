"""Named check registry.

One entry per inequality statement. An entry knows how to draw a random
instance (dimension, interval, map, matrices, state) from an explicit rng
and evaluate its check(s), returning one CheckResult per parameter value or
chain link. Entries marked expected_to_hold=False are known-false candidates
kept for falsifier sensitivity runs.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .checks import (CheckInstance, CheckResult, check_additive_sqrt,
                     check_ando, check_ando_connection, check_choi_davis,
                     check_generalized_kantorovich_operator,
                     check_kantorovich, check_kantorovich_equivalents,
                     check_kantorovich_sharp, check_kantorovich_squared,
                     check_minkowski_general, check_mond_pecaric,
                     check_power_inner_product, check_power_minkowski,
                     check_refinement, check_reverse_ando_convex,
                     check_reverse_ando_sandwich,
                     check_reverse_choi_quadratic, check_scalar_power_chain,
                     check_tuple_minkowski)
from .constants import kantorovich_constant
from .functions import (identity_function, inverse_function, power_function,
                        square_function)
from .generators import (random_spd, random_state, random_unital_map,
                         random_weights, sandwiched_pair)
from .hermitian import DEFAULT_TOL, SpectralInterval
from .maps import identity_map, scaled

DEFAULT_DIMS: tuple[int, ...] = (2, 3, 4, 5, 6, 7, 8)
DEFAULT_INTERVALS: tuple[SpectralInterval, ...] = (
    SpectralInterval(1.0, 2.0),
    SpectralInterval(1.0, 4.0),
    SpectralInterval(0.5, 3.0),
)

cube_root = power_function(1.0 / 3.0, name="t^(1/3)")


@dataclass(frozen=True)
class CheckSpec:
    name: str
    statement: str
    run_trial: Callable[..., list[CheckResult]]
    expected_to_hold: bool = True
    parameters: str = ""


def _draw(rng, dims, intervals):
    dim = int(dims[int(rng.integers(len(dims)))])
    iv = intervals[int(rng.integers(len(intervals)))]
    return dim, iv


def _single(rng, dims, intervals, tol, f=None, with_state=False) -> CheckInstance:
    dim, iv = _draw(rng, dims, intervals)
    phi, n_in = random_unital_map(dim, rng)
    a = random_spd(n_in, iv, rng)
    x = random_state(dim, rng) if with_state else None
    return CheckInstance(a=a, phi=phi, x=x, f=f, tol=tol)


def _pair(rng, dims, intervals, tol, f=None) -> CheckInstance:
    dim, iv = _draw(rng, dims, intervals)
    phi, n_in = random_unital_map(dim, rng)
    a = random_spd(n_in, iv, rng)
    b = random_spd(n_in, iv, rng)
    return CheckInstance(a=a, b=b, phi=phi, f=f, tol=tol)


def _trial_choi_davis(rng, tol, dims, intervals):
    f = (square_function, inverse_function)[int(rng.integers(2))]
    return [check_choi_davis(_single(rng, dims, intervals, tol, f=f))]


def _trial_kantorovich(rng, tol, dims, intervals):
    return [check_kantorovich(_single(rng, dims, intervals, tol))]


def _trial_kantorovich_squared(rng, tol, dims, intervals):
    return [check_kantorovich_squared(_single(rng, dims, intervals, tol))]


def _trial_kantorovich_sharp(rng, tol, dims, intervals):
    return [check_kantorovich_sharp(_single(rng, dims, intervals, tol))]


def _trial_refinement(rng, tol, dims, intervals):
    return list(check_refinement(_single(rng, dims, intervals, tol)))


def _trial_power_inner_product(rng, tol, dims, intervals):
    dim, iv = _draw(rng, dims, intervals)
    a = random_spd(dim, iv, rng)
    inst = CheckInstance(a=a, phi=identity_map(dim), x=random_state(dim, rng), tol=tol)
    return [check_power_inner_product(inst, r) for r in (1.0, 2.0, 3.0, -1.0)]


def _trial_ando(rng, tol, dims, intervals):
    return [check_ando(_pair(rng, dims, intervals, tol))]


def _trial_ando_connection(rng, tol, dims, intervals):
    return [check_ando_connection(_pair(rng, dims, intervals, tol, f=cube_root))]


def _trial_reverse_ando_convex(rng, tol, dims, intervals):
    return [check_reverse_ando_convex(_pair(rng, dims, intervals, tol, f=square_function))]


def _trial_reverse_ando_sandwich(rng, tol, dims, intervals):
    dim, iv = _draw(rng, dims, intervals)
    phi, n_in = random_unital_map(dim, rng)
    bounds = SpectralInterval(iv.m ** 2, iv.M ** 2)
    a, b = sandwiched_pair(n_in, iv, bounds, rng)
    return [check_reverse_ando_sandwich(a, b, phi, iv, tol)]


def _trial_kantorovich_equivalents(rng, tol, dims, intervals):
    return check_kantorovich_equivalents(_single(rng, dims, intervals, tol, with_state=True))


def _trial_reverse_choi_quadratic(rng, tol, dims, intervals):
    dim, iv = _draw(rng, dims, intervals)
    phi, n_in = random_unital_map(dim, rng)
    a, b = sandwiched_pair(n_in, iv, iv, rng)
    return [check_reverse_choi_quadratic(a, b, phi, iv, tol)]


def _trial_mond_pecaric(rng, tol, dims, intervals):
    inst = _single(rng, dims, intervals, tol, f=square_function, with_state=True)
    k = kantorovich_constant(inst.iv)
    return [
        check_mond_pecaric(inst, 0.0),
        check_mond_pecaric(inst, 1.0),
        check_mond_pecaric(inst, k, alpha_label="K"),
    ]


def _trial_generalized_kantorovich(rng, tol, dims, intervals):
    inst = _single(rng, dims, intervals, tol)
    return [check_generalized_kantorovich_operator(inst, p)
            for p in (1.0, 1.5, 2.0, 3.0, -1.0)]


def _trial_scalar_power_chain(rng, tol, dims, intervals):
    inst = _single(rng, dims, intervals, tol, with_state=True)
    return list(check_scalar_power_chain(inst, 2.0))


def _trial_additive_sqrt(rng, tol, dims, intervals):
    return [check_additive_sqrt(_single(rng, dims, intervals, tol))]


def _trial_minkowski_general(rng, tol, dims, intervals):
    inst = _pair(rng, dims, intervals, tol)
    out = []
    for f in (identity_function, power_function(1.5), square_function):
        out.extend(check_minkowski_general(inst.a, inst.b, inst.phi, inst.iv, f, tol))
    return out


def _trial_power_minkowski(rng, tol, dims, intervals):
    inst = _pair(rng, dims, intervals, tol)
    out = []
    for p in (1.0, 1.5, 2.0):
        out.extend(check_power_minkowski(inst.a, inst.b, inst.phi, inst.iv, p, tol))
    return out


def _trial_tuple_minkowski(rng, tol, dims, intervals):
    dim, iv = _draw(rng, dims, intervals)
    out = []
    for k in (1, 3):
        if k == 1:
            phis = [random_unital_map(dim, rng)[0]]
        else:
            ws = random_weights(k, rng)
            phis = [scaled(float(w), dim) for w in ws]
        as_list = [random_spd(p.input_dim, iv, rng) for p in phis]
        bs_list = [random_spd(p.input_dim, iv, rng) for p in phis]
        out.extend(check_tuple_minkowski(as_list, bs_list, phis, iv, tol))
    return out


def _trial_inverse_square_candidate(rng, tol, dims, intervals):
    # the claimed-false 2x2 rotation-family statement; random point of the family
    from .falsify import candidate_result
    x = float(rng.uniform(0.5, 4.0))
    alpha = float(rng.uniform(0.0, np.pi))
    beta = float(rng.uniform(0.0, np.pi))
    return [candidate_result(x, alpha, beta, tol)]


REGISTRY: tuple[CheckSpec, ...] = (
    CheckSpec("choi_davis",
              "f(Phi(A)) <= Phi(f(A)) for operator convex f",
              _trial_choi_davis, parameters="f in {t^2, t^-1} (drawn per trial)"),
    CheckSpec("kantorovich",
              "Phi(A^-1) <= ((M+m)^2/(4Mm)) Phi(A)^-1",
              _trial_kantorovich),
    CheckSpec("kantorovich_squared",
              "Phi(A^2) <= ((M+m)^2/(4Mm)) Phi(A)^2",
              _trial_kantorovich_squared),
    CheckSpec("kantorovich_sharp",
              "Phi(A^-1) # Phi(A) <= ((M+m)/(2 sqrt(Mm))) I",
              _trial_kantorovich_sharp),
    CheckSpec("refinement",
              "Phi(A^-1) # Phi(A) <= ||(Phi(A)^(1/2) Phi(A^-1) Phi(A)^(1/2))^(1/2)|| I"
              " <= ((M+m)/(2 sqrt(Mm))) I",
              _trial_refinement, parameters="links {left, right}"),
    CheckSpec("power_inner_product",
              "<Ax,x>^r <= <A^r x,x> for r >= 1 or r < 0",
              _trial_power_inner_product, parameters="r in {1, 2, 3, -1}"),
    CheckSpec("ando",
              "Phi(A # B) <= Phi(A) # Phi(B)",
              _trial_ando),
    CheckSpec("ando_connection",
              "Phi(A s_f B) <= Phi(A) s_f Phi(B) for operator monotone f, f(1) = 1",
              _trial_ando_connection, parameters="f = t^(1/3)"),
    CheckSpec("reverse_ando_convex",
              "Phi(A) s_f Phi(B) <= Phi(A s_f B) for operator convex f",
              _trial_reverse_ando_convex, parameters="f = t^2"),
    CheckSpec("reverse_ando_sandwich",
              "Phi(A) # Phi(B) <= ((M+m)/(2 sqrt(mM))) Phi(A # B) when m^2 A <= B <= M^2 A",
              _trial_reverse_ando_sandwich),
    CheckSpec("kantorovich_equivalents",
              "four forms of the inverse-reversal bound: operator, scalar state,"
              " sharp, squared",
              _trial_kantorovich_equivalents,
              parameters="forms {operator, scalar, sharp, squared}"),
    CheckSpec("reverse_choi_quadratic",
              "Phi(B A^-1 B) <= ((M+m)/(2 sqrt(Mm)))^2 Phi(B) Phi(A)^-1 Phi(B)"
              " when m A <= B <= M A",
              _trial_reverse_choi_quadratic),
    CheckSpec("mond_pecaric",
              "<Phi(f(A))x,x> <= beta(alpha) + alpha f(<Phi(A)x,x>) for convex f",
              _trial_mond_pecaric, parameters="f = t^2, alpha in {0, 1, K}"),
    CheckSpec("generalized_kantorovich",
              "Phi(A^p) <= K(p,m,M) Phi(A)^p",
              _trial_generalized_kantorovich, parameters="p in {1, 1.5, 2, 3, -1}"),
    CheckSpec("scalar_power_chain",
              "<Phi(A^p)x,x> <= K(p,m,M) <Phi(A)x,x>^p <= K(p,m,M) <Phi(A)^p x,x>",
              _trial_scalar_power_chain, parameters="p = 2, links {lower, upper}"),
    CheckSpec("additive_sqrt",
              "Phi(A^2)^(1/2) <= (M-m)^2/(4(M+m)) + Phi(A)",
              _trial_additive_sqrt),
    CheckSpec("minkowski_general",
              "f^-1(Phi(f(A))) + f^-1(Phi(f(B))) <= alpha[f;m,M] f^-1(Phi(f(A+B)))"
              " and <= 2 beta0[f^-1] + f^-1(Phi(f(A+B)))",
              _trial_minkowski_general,
              parameters="f in {t, t^1.5, t^2}, forms {mult, add}"),
    CheckSpec("power_minkowski",
              "Phi(A^p)^(1/p) + Phi(B^p)^(1/p) <= K(p)^(1/p) Phi((A+B)^p)^(1/p)"
              " and <= beta_p + Phi((A+B)^p)^(1/p)",
              _trial_power_minkowski, parameters="p in {1, 1.5, 2}, forms {mult, add}"),
    CheckSpec("tuple_minkowski",
              "(sum_i Phi_i(A_i^2))^(1/2) + (sum_i Phi_i(B_i^2))^(1/2)"
              " <= ((M+m)/(2 sqrt(Mm))) (sum_i Phi_i((A_i+B_i)^2))^(1/2)",
              _trial_tuple_minkowski, parameters="k in {1, 3}, forms {mult, add}"),
    CheckSpec("inverse_square_candidate",
              "Phi(A^-1)^2 <= ((1+x)^2/(4x)) Phi(A)^-1/2 Phi(A^-1) Phi(A)^-1/2"
              " over the 2x2 rotation-mixture family (claimed false)",
              _trial_inverse_square_candidate, expected_to_hold=False,
              parameters="x in (0.5, 4), angles in (0, pi)"),
)

_BY_NAME = {spec.name: spec for spec in REGISTRY}


def names(expected_to_hold: Optional[bool] = None) -> list[str]:
    return [s.name for s in REGISTRY
            if expected_to_hold is None or s.expected_to_hold == expected_to_hold]


def get(name: str) -> CheckSpec:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(f"unknown check {name!r}; known: {', '.join(sorted(_BY_NAME))}") from None


def run_trial(name: str, rng, tol: float = DEFAULT_TOL,
              dims: Sequence[int] = DEFAULT_DIMS,
              intervals: Sequence[SpectralInterval] = DEFAULT_INTERVALS) -> list[CheckResult]:
    return get(name).run_trial(rng, tol, tuple(dims), tuple(intervals))


__all__ = ["CheckSpec", "REGISTRY", "DEFAULT_DIMS", "DEFAULT_INTERVALS",
           "names", "get", "run_trial", "cube_root"]
