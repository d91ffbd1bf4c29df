"""Named check registry.

One entry per inequality statement, written as a row: a draw that builds a
random instance (dimension, interval, map, matrices, state) from an explicit
rng, the check that evaluates it, and the parameter values the check runs
at. One trial returns one CheckResult per parameter value or chain link.
A draw returns a flat record (the fields of a CheckInstance by name, or a
grid point): each field is a leaf, an array, a map, an interval, or a value
(the tolerance, a function) that the instances of one bucket share.
Entries marked expected_to_hold=False are known-false candidates kept for
falsifier sensitivity runs.

Trials are evaluated together: each draws its instance from its own stream,
in stream order, with the linear algebra of the draws run afterwards,
stacked, for many of them at once. Each drawn record is held in a bucket of
one record index and output side: what its images share after the map
(the map's output dimension, the dtype of A and B, the state's shape, the
function and the tolerance). A bucket's parts are its input sizes, A's and
B's shapes and the map's input dimension. When the held bytes fill the
batch budget, the pending algebra runs and the largest buckets are stacked
and checked, one bucket at a time, all its parameter values in one
spectral scope; the smaller buckets keep filling. Each part is validated
and mapped on its own, and all that follows the map runs once for the
bucket. Each trial's results go back to its own slots, until it and every
trial before it are evaluated and it is folded; a single trial, a batch of
one through the same path, gets the same results.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterable, Optional, Union

import numpy as np

from .checks import (CheckInstance, CheckResult, _key, _nbytes, _parts,
                     _stack_parts, check_additive_sqrt, check_ando,
                     check_ando_connection, check_choi_davis,
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
from .hermitian import BATCH_BYTES, DomainError, SpectralInterval, spectral_scope
from .maps import direct_sum, identity_map, scaled

DEFAULT_DIMS: tuple[int, ...] = (2, 3, 4, 5, 6, 7, 8)
DEFAULT_INTERVALS: tuple[SpectralInterval, ...] = (
    SpectralInterval(1.0, 2.0),
    SpectralInterval(1.0, 4.0),
    SpectralInterval(0.5, 3.0),
)

cube_root = power_function(1.0 / 3.0, name="t^(1/3)")


@dataclass(frozen=True)
class CheckSpec:
    """One statement as a row. `draw(rng, tol, dims, intervals, batch)`
    makes the rng calls of one instance and leaves its linear algebra to
    `batch` (a `generators.DrawBatch`); it returns one record, or a list of
    them, one per entry of `params`. A bucket of records of one record
    index and key (`_key`), stacked part by part (`_stack_parts`), becomes one
    `instance(**fields)`, a validated CheckInstance unless the row says
    otherwise; `check(stack)` runs once, or `check(stack, param)` once per
    entry of `params`, in order (record j of a list runs param j only),
    and returns per instance one CheckResult or a sequence of them. A
    trial's fold gets them all in record order, then call order.
    `constants(stacks, param)`, if set, computes keyword arguments of the
    check for every instance of the stacks evaluated in one round at once
    (one lockstep search instead of one per bucket); each value holds one
    entry per instance, in stack order."""
    name: str
    statement: str
    draw: Callable[..., Union[dict, list]]
    check: Callable[..., Any]
    params: tuple = ()
    expected_to_hold: bool = True
    parameters: str = ""
    constants: Optional[Callable[..., dict]] = None
    instance: Callable[..., Any] = CheckInstance

    def run_trial(self, rngs: Iterable, tol, dims, intervals, fold: Callable) -> None:
        """Draw one instance from each stream, in order, and call `fold(trial,
        results)` for each, in stream order, once it and every trial before
        it are evaluated. Each record of a draw is held in the bucket of its
        record index and key (see `_key`), computed once here: what the
        record shares with the others after Phi, whatever its input size.
        When the held records and the inputs of their pending linear algebra
        reach BATCH_BYTES, that algebra runs for all of them at once, and the
        largest buckets are evaluated until at most half the budget is held;
        the rest keep filling. After the last stream, every bucket left is
        evaluated. A DomainError, from a draw or a check, names the row."""
        slots: dict = {}    # trial -> per record: its results, until folded
        held: dict = {}     # (record index, key) -> [bytes, trial indices, records]
        batch = DrawBatch()
        total = 0           # the bytes of every held bucket
        done = 0            # the trials folded

        def flush(keep):
            # finish the pending algebra, evaluate the largest buckets until at
            # most `keep` bytes are held (-1: all), then fold the trials done
            nonlocal total, done
            batch.finish()
            evicted = []
            while held and total > keep:
                key = max(held, key=lambda k: held[k][0])
                evicted.append((key, held.pop(key)))
                total -= evicted[-1][1][0]
            if evicted:
                self._evaluate(evicted, slots)
            while done in slots and (keep < 0 or all(slots[done])):
                fold(done, sum(slots.pop(done), []))
                done += 1

        try:
            for t, rng in enumerate(rngs):
                records = self.draw(rng, tol, dims, intervals, batch)
                records = records if isinstance(records, list) else [records]
                slots[t] = [[] for _ in records]
                for j, record in enumerate(records):
                    bucket = held.setdefault((j, _key(record)), [0, [], []])
                    size = _nbytes(record)
                    bucket[0] += size
                    total += size
                    bucket[1].append(t)
                    bucket[2].append(record)
                if total + batch.nbytes >= BATCH_BYTES:
                    flush(BATCH_BYTES // 2)
            flush(-1)
        except DomainError as exc:
            raise type(exc)(f"{self.name}: {exc}") from None

    def _evaluate(self, buckets: list, slots: dict) -> None:
        """Check each bucket, `((j, key), [bytes, trial indices, records])`,
        in one spectral scope, and extend slot j of each of its trials with
        the results. A bucket is stacked in part order (`_parts`, its trial
        indices reordered to match), each part one stack of the input side,
        so the check maps each part on its own and runs the rest once. Each
        param's constants are computed for all buckets, before the checks.
        A bucket's records are emptied once stacked, so the records and
        their stack are not both held."""
        calls = [(p,) for p in self.params] or [()]
        stacks = []
        for _, (_, trials, records) in buckets:
            parts = _parts(records)
            trials[:] = [trials[i] for idx in parts for i in idx]
            stacks.append(self.instance(**_stack_parts([[records[i] for i in idx]
                                                         for idx in parts])))
            records.clear()
        extras = [self.constants(stacks, *args) if self.constants else {} for args in calls]
        pairs, lo = list(zip(calls, extras)), 0
        for ((j, _), (_, trials, _)), stack in zip(buckets, stacks):
            # a row that draws one record per param runs param j on record j
            run = pairs[j:j + 1] if len(slots[trials[0]]) > 1 else pairs
            with spectral_scope():
                for args, extra in run:
                    kwargs = {k: v[lo:lo + len(trials)] for k, v in extra.items()}
                    for t, res in zip(trials, self.check(stack, *args, **kwargs)):
                        slots[t][j].extend([res] if isinstance(res, CheckResult) else res)
            lo += len(trials)


def _draw(rng, dims, intervals):
    dim = int(dims[int(rng.integers(len(dims)))])
    iv = intervals[int(rng.integers(len(intervals)))]
    return dim, iv


def _single(rng, tol, dims, intervals, batch, f=None, with_state=False,
            identity=False) -> dict:
    """A on the input side of a random unital map (or of the identity map,
    a one-block pinching built for the record), with a unit vector state if
    asked."""
    dim, iv = _draw(rng, dims, intervals)
    phi, n_in = (identity_map(dim), dim) if identity else batch.unital_map(dim, rng)
    a = batch.spd(n_in, iv, rng)
    x = random_state(dim, rng) if with_state else None
    return dict(a=a, phi=phi, x=x, f=f, tol=tol)


def _drawn_f(rng, tol, dims, intervals, batch) -> dict:
    # the function is drawn before the dimension and the interval
    f = (square_function, inverse_function)[int(rng.integers(2))]
    return _single(rng, tol, dims, intervals, batch, f=f)


def _pair(rng, tol, dims, intervals, batch, f=None) -> dict:
    dim, iv = _draw(rng, dims, intervals)
    phi, n_in = batch.unital_map(dim, rng)
    a = batch.spd(n_in, iv, rng)
    b = batch.spd(n_in, iv, rng)
    return dict(a=a, b=b, phi=phi, f=f, tol=tol)


def _sandwich(rng, tol, dims, intervals, batch, squared=False) -> dict:
    """A in [m, M] and B with m A <= B <= M A, or m^2 A <= B <= M^2 A if
    `squared`."""
    dim, iv = _draw(rng, dims, intervals)
    phi, n_in = batch.unital_map(dim, rng)
    bounds = SpectralInterval(iv.m ** 2, iv.M ** 2) if squared else iv
    a, b = batch.sandwiched_pair(n_in, iv, bounds, rng)
    return dict(a=a, b=b, phi=phi, iv=iv, bounds=bounds, tol=tol)


def _tuples(rng, tol, dims, intervals, batch) -> list:
    """One record per tuple size k, in params order: one random map for
    k = 1, then the direct sum of three weighted identity maps for k = 3.
    A and B are block-diagonal, one block per map, each drawn into its
    slot; complex unless every block is 1x1."""
    dim, iv = _draw(rng, dims, intervals)

    def spd_blocks(sizes):
        n = sum(sizes)
        out = np.zeros((n, n), dtype=float if max(sizes) == 1 else complex)
        lo = 0
        for size in sizes:
            batch.spd(size, iv, rng, out=out[lo:lo + size, lo:lo + size])
            lo += size
        return out

    def record(phi, sizes):
        # A's blocks are drawn before B's
        return dict(a=spd_blocks(sizes), b=spd_blocks(sizes), phi=phi, iv=iv, tol=tol)

    phi = batch.unital_map(dim, rng)[0]
    one = record(phi, [phi.input_dim])
    three = record(direct_sum([scaled(float(w), dim) for w in random_weights(3, rng)]),
                   [dim] * 3)
    return [one, three]


def _candidate_point(rng, tol, dims, intervals, batch) -> dict:
    """A random point (x, alpha, beta) of the 2x2 rotation-mixture family,
    each coordinate a 0-d array, so that a bucket stacks them."""
    return dict(x=np.asarray(rng.uniform(0.5, 4.0)), alpha=np.asarray(rng.uniform(0.0, np.pi)),
                beta=np.asarray(rng.uniform(0.0, np.pi)), tol=tol)


def _mond_pecaric_alpha(ivs, alpha):
    # alpha "K" is the Kantorovich constant of each instance's interval
    return [kantorovich_constant(iv) for iv in ivs] if alpha == "K" else alpha


def _mond_pecaric_constants(stacks, alpha) -> dict:
    (f,) = {s.f for s in stacks}    # the one f the row's draw states
    ivs = [iv for s in stacks for iv in s.iv]
    return {"beta": mond_pecaric_beta(f, ivs, _mond_pecaric_alpha(ivs, alpha))}


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
              partial(_sandwich, squared=True), check_reverse_ando_sandwich),
    CheckSpec("kantorovich_equivalents",
              "four forms of the inverse-reversal bound: operator, scalar state,"
              " sharp, squared",
              partial(_single, with_state=True), check_kantorovich_equivalents,
              parameters="forms {operator, scalar, sharp, squared}"),
    CheckSpec("reverse_choi_quadratic",
              "Phi(B A^-1 B) <= ((M+m)/(2 sqrt(Mm)))^2 Phi(B) Phi(A)^-1 Phi(B)"
              " when m A <= B <= M A",
              _sandwich, check_reverse_choi_quadratic),
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
              constants=minkowski_constants),
    CheckSpec("power_minkowski",
              "Phi(A^p)^(1/p) + Phi(B^p)^(1/p) <= K(p)^(1/p) Phi((A+B)^p)^(1/p)"
              " and <= beta_p + Phi((A+B)^p)^(1/p)",
              _pair, check_power_minkowski, (1.0, 1.5, 2.0), parameters="p in {1, 1.5, 2}, forms {mult, add}"),
    CheckSpec("tuple_minkowski",
              "(sum_i Phi_i(A_i^2))^(1/2) + (sum_i Phi_i(B_i^2))^(1/2)"
              " <= ((M+m)/(2 sqrt(Mm))) (sum_i Phi_i((A_i+B_i)^2))^(1/2)",
              _tuples, check_tuple_minkowski, (1, 3),
              parameters="k in {1, 3}, forms {mult, add}"),
    CheckSpec("inverse_square_candidate",
              "Phi(A^-1)^2 <= ((1+x)^2/(4x)) Phi(A)^-1/2 Phi(A^-1) Phi(A)^-1/2"
              " over the 2x2 rotation-mixture family (claimed false)",
              _candidate_point, lambda points: candidate_result(**points),
              expected_to_hold=False,
              parameters="x in (0.5, 4), angles in (0, pi)", instance=dict),
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


__all__ = ["CheckSpec", "REGISTRY", "DEFAULT_DIMS", "DEFAULT_INTERVALS",
           "names", "get", "cube_root"]
