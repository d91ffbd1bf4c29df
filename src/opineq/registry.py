"""Named check registry.

One entry per inequality statement, written as a row: a draw that builds a
random instance (dimension, interval, map, matrices, state) from an explicit
rng, the check that evaluates it, and the parameter values the check runs
at. One trial returns one CheckResult per parameter value or chain link.
Entries marked expected_to_hold=False are known-false candidates kept for
falsifier sensitivity runs.

Trials are evaluated together: each draws its instance from its own stream,
in stream order, with the linear algebra of the draws run afterwards,
stacked, for all of them at once; the drawn instances are then grouped into
buckets of one shape, stacked, and checked one bucket at a time, all its
parameter values in one spectral scope. A single trial is a batch of one
through the same path.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterable, Optional, Sequence

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
                     check_tuple_minkowski, minkowski_constants)
from .constants import kantorovich_constant, mond_pecaric_beta
from .falsify import candidate_result
from .functions import (identity_function, inverse_function, power_function,
                        square_function)
from .generators import DrawBatch, random_state, random_weights
from .hermitian import BATCH_BYTES, DEFAULT_TOL, SpectralInterval, spectral_scope
from .maps import KrausMap, MapStack, identity_map, scaled

DEFAULT_DIMS: tuple[int, ...] = (2, 3, 4, 5, 6, 7, 8)
DEFAULT_INTERVALS: tuple[SpectralInterval, ...] = (
    SpectralInterval(1.0, 2.0),
    SpectralInterval(1.0, 4.0),
    SpectralInterval(0.5, 3.0),
)

cube_root = power_function(1.0 / 3.0, name="t^(1/3)")


# bytes of draws stacked into one bucket: evaluating a stack makes several
# temporaries its size, so a flush of large matrices is cut into buckets
# that keep them within BATCH_BYTES
STACK_BYTES = BATCH_BYTES // 4


class _Fields(dict):
    """The keyword arguments of a CheckInstance; a bucket of them is stacked
    into one instance."""


def _key(part):
    """What the instances of one bucket share: the shape and dtype of every
    array, the dimensions of every map, and every other value (the
    tolerance, a drawn function), except the per-instance intervals."""
    if isinstance(part, np.ndarray):
        return part.shape, part.dtype.str
    if isinstance(part, KrausMap):
        return part.input_dim, part.output_dim
    if isinstance(part, SpectralInterval):
        return None
    if isinstance(part, dict):
        return tuple((k, _key(v)) for k, v in part.items())
    if isinstance(part, (tuple, list)):
        return tuple(_key(v) for v in part)
    return part


def _stack(parts: list):
    """One bucket of draws as one draw of stacks: arrays stacked on a new
    leading axis, maps as a MapStack, intervals as a list, _Fields as a
    validated CheckInstance; other values are the same in every draw."""
    first = parts[0]
    if isinstance(first, _Fields):
        return CheckInstance(**_stack([dict(p) for p in parts]))
    if isinstance(first, dict):
        return {k: _stack([p[k] for p in parts]) for k in first}
    if isinstance(first, (tuple, list)):
        return type(first)(_stack(list(col)) for col in zip(*parts))
    if isinstance(first, np.ndarray):
        return np.stack(parts)
    if isinstance(first, KrausMap):
        return MapStack(parts)
    if isinstance(first, SpectralInterval):
        return list(parts)
    return first


def _nbytes(part) -> int:
    if isinstance(part, np.ndarray):
        return part.nbytes
    if isinstance(part, KrausMap):
        return part.ops.nbytes
    if isinstance(part, dict):
        part = list(part.values())
    if isinstance(part, (tuple, list)):
        return sum(_nbytes(p) for p in part)
    return 0


@dataclass(frozen=True)
class CheckSpec:
    """One statement as a row. `draw(rng, tol, dims, intervals, batch)`
    makes the rng calls of one instance and leaves its linear algebra to
    `batch` (a `generators.DrawBatch`); `check(stack)` runs once, or
    `check(stack, param)` once per entry of `params`, in order, on a stack
    of instances of one shape, and returns per instance one CheckResult or
    a sequence of them. A trial returns them all in call order. `constants(intervals, param)`, if set,
    computes keyword arguments of the check for every instance of the
    batch at once (one lockstep search instead of one per bucket); each
    value holds one entry per interval."""
    name: str
    statement: str
    draw: Callable[..., Any]
    check: Callable[..., Any]
    params: tuple = ()
    expected_to_hold: bool = True
    parameters: str = ""
    constants: Optional[Callable[..., dict]] = None

    def run_trial(self, rngs: Iterable, tol, dims, intervals) -> list[list[CheckResult]]:
        """Draw one instance from each stream, in order, and return the
        results of each, in stream order. Draws are held until they and the
        inputs of their pending linear algebra reach BATCH_BYTES; then that
        algebra runs for all of them at once, and they are evaluated
        together, stacked in buckets of one key (see `_key`) and at most
        STACK_BYTES."""
        out: list[list[CheckResult]] = []
        held, sizes, batch = [], [], DrawBatch()
        for rng in rngs:
            held.append(self.draw(rng, tol, dims, intervals, batch))
            sizes.append(_nbytes(held[-1]))
            if sum(sizes) + batch.nbytes >= BATCH_BYTES:
                batch.finish()
                out += self._evaluate(held, sizes)
        if held:
            batch.finish()
            out += self._evaluate(held, sizes)
        return out

    def _evaluate(self, draws: list, sizes: list) -> list[list[CheckResult]]:
        """The results of each draw, in order. Draws of one key fill a
        bucket until it holds STACK_BYTES; empties `draws` and `sizes` once
        they are stacked, so the draws and their stacks are not both held.
        Each param's constants are computed for all draws, before the buckets."""
        buckets: list[list[int]] = []
        filling: dict = {}   # key -> (index, bytes) of its bucket still filling
        for i, (draw, size) in enumerate(zip(draws, sizes)):
            key = _key(draw)
            b, held = filling.get(key, (None, 0))
            if b is None or held + size > STACK_BYTES:
                b, held = len(buckets), 0
                buckets.append([])
            buckets[b].append(i)
            filling[key] = (b, held + size)
        stacks = [_stack([draws[i] for i in idx]) for idx in buckets]
        out: list[list[CheckResult]] = [[] for _ in draws]
        draws.clear()
        sizes.clear()
        calls = [(p,) for p in self.params] or [()]
        extras = [{} if self.constants is None else
                  self.constants([iv for s in stacks for iv in s.iv], *args) for args in calls]
        lo = 0
        for idx, stack in zip(buckets, stacks):
            with spectral_scope():
                for args, extra in zip(calls, extras):
                    kwargs = {k: v[lo:lo + len(idx)] for k, v in extra.items()}
                    for i, res in zip(idx, self.check(stack, *args, **kwargs)):
                        out[i].extend([res] if isinstance(res, CheckResult) else res)
            lo += len(idx)
        return out


def _draw(rng, dims, intervals):
    dim = int(dims[int(rng.integers(len(dims)))])
    iv = intervals[int(rng.integers(len(intervals)))]
    return dim, iv


def _single(rng, tol, dims, intervals, batch, f=None, with_state=False,
            identity=False) -> _Fields:
    """A on the input side of a random unital map (or of the identity map),
    with a unit vector state if asked."""
    dim, iv = _draw(rng, dims, intervals)
    phi, n_in = (identity_map(dim), dim) if identity else batch.unital_map(dim, rng)
    a = batch.spd(n_in, iv, rng)
    x = random_state(dim, rng) if with_state else None
    return _Fields(a=a, phi=phi, x=x, f=f, tol=tol)


def _drawn_f(rng, tol, dims, intervals, batch) -> _Fields:
    # the function is drawn before the dimension and the interval
    f = (square_function, inverse_function)[int(rng.integers(2))]
    return _single(rng, tol, dims, intervals, batch, f=f)


def _pair(rng, tol, dims, intervals, batch, f=None) -> _Fields:
    dim, iv = _draw(rng, dims, intervals)
    phi, n_in = batch.unital_map(dim, rng)
    a = batch.spd(n_in, iv, rng)
    b = batch.spd(n_in, iv, rng)
    return _Fields(a=a, b=b, phi=phi, f=f, tol=tol)


def _sandwich(rng, tol, dims, intervals, batch, squared=False):
    """Arguments (A, B, Phi, [m, M], tol) of a sandwich check, with
    m A <= B <= M A, or m^2 A <= B <= M^2 A if `squared`."""
    dim, iv = _draw(rng, dims, intervals)
    phi, n_in = batch.unital_map(dim, rng)
    bounds = SpectralInterval(iv.m ** 2, iv.M ** 2) if squared else iv
    a, b = batch.sandwiched_pair(n_in, iv, bounds, rng)
    return a, b, phi, iv, tol


def _tuples(rng, tol, dims, intervals, batch) -> dict:
    """Arguments of `check_tuple_minkowski` by tuple size k: one random map
    for k = 1, then three weighted identity maps for k = 3."""
    dim, iv = _draw(rng, dims, intervals)

    def blocks(phis):
        as_list = [batch.spd(p.input_dim, iv, rng) for p in phis]
        bs_list = [batch.spd(p.input_dim, iv, rng) for p in phis]
        return as_list, bs_list, phis, iv, tol

    one = blocks([batch.unital_map(dim, rng)[0]])
    three = blocks([scaled(float(w), dim) for w in random_weights(3, rng)])
    return {1: one, 3: three}


def _candidate_point(rng, tol, dims, intervals, batch):
    """A random point (x, alpha, beta) of the 2x2 rotation-mixture family."""
    x = float(rng.uniform(0.5, 4.0))
    alpha = float(rng.uniform(0.0, np.pi))
    beta = float(rng.uniform(0.0, np.pi))
    return np.array([x, alpha, beta]), tol


def _candidates(points) -> list[CheckResult]:
    xab, tol = points
    return candidate_result(xab[:, 0], xab[:, 1], xab[:, 2], tol)


def _mond_pecaric_alpha(ivs, alpha):
    # alpha "K" is the Kantorovich constant of each instance's interval
    return [kantorovich_constant(iv) for iv in ivs] if alpha == "K" else alpha


def _mond_pecaric_constants(ivs, alpha) -> dict:
    return {"beta": mond_pecaric_beta(square_function, ivs, _mond_pecaric_alpha(ivs, alpha))}


def _mond_pecaric(inst: CheckInstance, alpha, beta) -> list:
    return check_mond_pecaric(inst, _mond_pecaric_alpha(inst.iv, alpha),
                              "K" if alpha == "K" else None, beta=beta)


REGISTRY: tuple[CheckSpec, ...] = (
    CheckSpec("choi_davis",
              "f(Phi(A)) <= Phi(f(A)) for operator convex f",
              _drawn_f, check_choi_davis,
              parameters="f in {t^2, t^-1} (drawn per trial)"),
    CheckSpec("kantorovich",
              "Phi(A^-1) <= ((M+m)^2/(4Mm)) Phi(A)^-1",
              _single, check_kantorovich),
    CheckSpec("kantorovich_squared",
              "Phi(A^2) <= ((M+m)^2/(4Mm)) Phi(A)^2",
              _single, check_kantorovich_squared),
    CheckSpec("kantorovich_sharp",
              "Phi(A^-1) # Phi(A) <= ((M+m)/(2 sqrt(Mm))) I",
              _single, check_kantorovich_sharp),
    CheckSpec("refinement",
              "Phi(A^-1) # Phi(A) <= ||(Phi(A)^(1/2) Phi(A^-1) Phi(A)^(1/2))^(1/2)|| I"
              " <= ((M+m)/(2 sqrt(Mm))) I",
              _single, check_refinement, parameters="links {left, right}"),
    CheckSpec("power_inner_product",
              "<Ax,x>^r <= <A^r x,x> for r >= 1 or r < 0",
              partial(_single, with_state=True, identity=True),
              check_power_inner_product, (1.0, 2.0, 3.0, -1.0),
              parameters="r in {1, 2, 3, -1}"),
    CheckSpec("ando",
              "Phi(A # B) <= Phi(A) # Phi(B)",
              _pair, check_ando),
    CheckSpec("ando_connection",
              "Phi(A s_f B) <= Phi(A) s_f Phi(B) for operator monotone f, f(1) = 1",
              partial(_pair, f=cube_root), check_ando_connection,
              parameters="f = t^(1/3)"),
    CheckSpec("reverse_ando_convex",
              "Phi(A) s_f Phi(B) <= Phi(A s_f B) for operator convex f",
              partial(_pair, f=square_function), check_reverse_ando_convex,
              parameters="f = t^2"),
    CheckSpec("reverse_ando_sandwich",
              "Phi(A) # Phi(B) <= ((M+m)/(2 sqrt(mM))) Phi(A # B) when m^2 A <= B <= M^2 A",
              partial(_sandwich, squared=True),
              lambda args: check_reverse_ando_sandwich(*args)),
    CheckSpec("kantorovich_equivalents",
              "four forms of the inverse-reversal bound: operator, scalar state,"
              " sharp, squared",
              partial(_single, with_state=True), check_kantorovich_equivalents,
              parameters="forms {operator, scalar, sharp, squared}"),
    CheckSpec("reverse_choi_quadratic",
              "Phi(B A^-1 B) <= ((M+m)/(2 sqrt(Mm)))^2 Phi(B) Phi(A)^-1 Phi(B)"
              " when m A <= B <= M A",
              _sandwich, lambda args: check_reverse_choi_quadratic(*args)),
    CheckSpec("mond_pecaric",
              "<Phi(f(A))x,x> <= beta(alpha) + alpha f(<Phi(A)x,x>) for convex f",
              partial(_single, f=square_function, with_state=True),
              _mond_pecaric, (0.0, 1.0, "K"),
              parameters="f = t^2, alpha in {0, 1, K}",
              constants=_mond_pecaric_constants),
    CheckSpec("generalized_kantorovich",
              "Phi(A^p) <= K(p,m,M) Phi(A)^p",
              _single, check_generalized_kantorovich_operator,
              (1.0, 1.5, 2.0, 3.0, -1.0), parameters="p in {1, 1.5, 2, 3, -1}"),
    CheckSpec("scalar_power_chain",
              "<Phi(A^p)x,x> <= K(p,m,M) <Phi(A)x,x>^p <= K(p,m,M) <Phi(A)^p x,x>",
              partial(_single, with_state=True), check_scalar_power_chain, (2.0,),
              parameters="p = 2, links {lower, upper}"),
    CheckSpec("additive_sqrt",
              "Phi(A^2)^(1/2) <= (M-m)^2/(4(M+m)) + Phi(A)",
              _single, check_additive_sqrt),
    CheckSpec("minkowski_general",
              "f^-1(Phi(f(A))) + f^-1(Phi(f(B))) <= alpha[f;m,M] f^-1(Phi(f(A+B)))"
              " and <= 2 beta0[f^-1] + f^-1(Phi(f(A+B)))",
              _pair, check_minkowski_general,
              (identity_function, power_function(1.5), square_function),
              parameters="f in {t, t^1.5, t^2}, forms {mult, add}",
              constants=lambda ivs, f: minkowski_constants(f, ivs)),
    CheckSpec("power_minkowski",
              "Phi(A^p)^(1/p) + Phi(B^p)^(1/p) <= K(p)^(1/p) Phi((A+B)^p)^(1/p)"
              " and <= beta_p + Phi((A+B)^p)^(1/p)",
              _pair,
              lambda inst, p: check_power_minkowski(inst.a, inst.b, inst.phi,
                                                    inst.iv, p, inst.tol),
              (1.0, 1.5, 2.0), parameters="p in {1, 1.5, 2}, forms {mult, add}"),
    CheckSpec("tuple_minkowski",
              "(sum_i Phi_i(A_i^2))^(1/2) + (sum_i Phi_i(B_i^2))^(1/2)"
              " <= ((M+m)/(2 sqrt(Mm))) (sum_i Phi_i((A_i+B_i)^2))^(1/2)",
              _tuples, lambda sets, k: check_tuple_minkowski(*sets[k]), (1, 3),
              parameters="k in {1, 3}, forms {mult, add}"),
    CheckSpec("inverse_square_candidate",
              "Phi(A^-1)^2 <= ((1+x)^2/(4x)) Phi(A)^-1/2 Phi(A^-1) Phi(A)^-1/2"
              " over the 2x2 rotation-mixture family (claimed false)",
              _candidate_point, _candidates,
              expected_to_hold=False,
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
    """The results of one trial: a batch of one stream."""
    return get(name).run_trial([rng], tol, tuple(dims), tuple(intervals))[0]


__all__ = ["CheckSpec", "REGISTRY", "DEFAULT_DIMS", "DEFAULT_INTERVALS",
           "names", "get", "run_trial", "cube_root"]
