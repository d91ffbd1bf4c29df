"""The inequality checks.

Every check compares two sides of a stated operator (or scalar) inequality
LHS <= RHS and reports the signed margin: lambda_min(RHS - LHS) for operator
order, RHS - LHS for scalars. A margin of -eps means the inequality fails by
eps. "holds" applies the shared rule

    margin >= -tol * max(1, ||LHS||, ||RHS||).

Operator checks never re-prove anything: they assemble both sides with the
functional calculus and compare.

Every check takes a CheckInstance, the hypothesis bundle validated once,
and evaluates a stack of instances of one shape at once: matrices carry a
leading batch axis, maps come as a MapStack and intervals as a list, and
the check returns a list with one result per instance. A single instance
(2-D matrices, one map, one interval) runs as a stack of one and gets its
result back alone.
"""
from __future__ import annotations

import copy
import functools
import math
from dataclasses import asdict, dataclass
from operator import attrgetter, itemgetter
from typing import Optional

import numpy as np

from .constants import (alpha_constant, beta0_constant, beta_p_constant,
                        generalized_kantorovich, kantorovich_constant,
                        mond_pecaric_beta)
from .functions import ScalarFunction
from .hermitian import (DEFAULT_TOL, DomainError, SpectralInterval, _stack_key,
                        _tolerance, as_hermitian, each_stacked, hermitian_part,
                        inv_psd, loewner_leq_each, matrix_function, power,
                        sqrtm_psd, within_tolerance)
from .maps import KrausMap, MapStack, vector_state_value
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
        return asdict(self)


def _results(name: str, params: list, tol: float, holds, margin, lhs_norm, rhs_norm) -> list:
    """One CheckResult per entry of `params`, from arrays with one entry each."""
    return [CheckResult(name, p, m, h, tol, l, r) for p, h, m, l, r in
            zip(params, *(np.ravel(v).tolist() for v in (holds, margin, lhs_norm, rhs_norm)))]


def _operator(tol: float, *forms) -> list:
    """Operator forms (name, params, lhs, rhs), each judged as LHS <= RHS,
    one list of results per form. All their spectra come from one call,
    an operand shared by several forms (the same object) decomposed once."""
    verdicts = loewner_leq_each([(lhs, rhs) for _, _, lhs, rhs in forms], tol)
    return [_results(name, params, tol, *verdict)
            for (name, params, _, _), verdict in zip(forms, verdicts)]


def _scalar(name: str, params: list, lhs, rhs, tol: float) -> list:
    lhs, rhs = np.asarray(lhs, dtype=float), np.asarray(rhs, dtype=float)
    margin = rhs - lhs
    ln, rn = np.abs(lhs), np.abs(rhs)
    return _results(name, params, tol, within_tolerance(margin, tol, ln, rn), margin, ln, rn)


def _col(values) -> np.ndarray:
    """Per-instance scalars as a (b, 1, 1) column, to scale a stack."""
    return np.asarray(values, dtype=float)[:, None, None]


def _each(constant, ivs, *args) -> list:
    """A closed-form constant per instance, as Python floats."""
    return [constant(*args, iv) for iv in ivs]


# the record-stacking rule, by the first row whose type a leaf of a record
# (the CheckInstance fields by name) has: its term of the bucket key off the
# input side, its bytes (a pinching's mask's, any other map's operators'),
# and a column of it as one leaf of the stack; any other value (the
# tolerance, a drawn function) is the same in every record
_LEAVES = (
    (np.ndarray, _stack_key, attrgetter("nbytes"), np.array),
    (KrausMap, attrgetter("input_dim", "output_dim"),
     lambda v: (v.ops if v.mask is None else v.mask).nbytes, MapStack),
    (SpectralInterval, lambda v: None, lambda v: 0, list),
    (object, lambda v: v, lambda v: 0, itemgetter(0)),
)
# the input side, stacked part by part, by name: what a leaf shares with the
# other records of its bucket (what the images inherit: A's and B's dtype,
# Phi's output dimension) and with those of its part (A's and B's shapes,
# Phi's input dimension)
_INPUT = {"a": (attrgetter("dtype"), attrgetter("shape")),
          "b": (attrgetter("dtype"), attrgetter("shape")),
          "phi": (attrgetter("output_dim"), attrgetter("input_dim"))}


@functools.cache
def _leaf(kind: type) -> tuple:
    return next(rule for rule in _LEAVES if issubclass(kind, rule[0]))


def _key(record: dict) -> tuple:
    """What the records of one bucket share after Phi, leaf by leaf."""
    return tuple([(name, _INPUT[name][0](v) if name in _INPUT else _leaf(type(v))[1](v))
                  for name, v in record.items()])


def _part(record: dict) -> tuple:
    """What the records of one part of a bucket share before Phi."""
    return tuple([part(record[name]) for name, (_, part) in _INPUT.items()
                  if record.get(name) is not None])


def _nbytes(record: dict) -> int:
    return sum([_leaf(type(v))[2](v) for v in record.values()])


def _parts(records: list) -> list:
    """The indices of `records`, one list per `_part`, in first-seen order."""
    parts: dict = {}
    for i, record in enumerate(records):
        parts.setdefault(_part(record), []).append(i)
    return list(parts.values())


def _stack(records: list) -> dict:
    """One bucket of records as one record of stacks (`_stack_parts`)."""
    return _stack_parts([[records[i] for i in idx] for idx in _parts(records)])


def _stack_parts(parts: list) -> dict:
    """One bucket of records, a list per part, as one record of stacks, its
    instances in part order: an input-side leaf as one stack per part, a
    tuple of them if there are several, and any other leaf as one stack."""
    out = {}
    for name, v in parts[0][0].items():
        stack = _leaf(type(v))[3]
        if name in _INPUT:
            columns = tuple([stack([r[name] for r in part]) for part in parts])
            out[name] = columns if len(columns) > 1 else columns[0]
        else:
            out[name] = stack([r[name] for part in parts for r in part])
    return out


def _each_part(v) -> tuple:
    """The parts of an input-side field of a stack: a tuple, or one part."""
    return v if isinstance(v, tuple) else (v,)


def _per_part(fn, v):
    """fn of each part of an input-side field, in the field's form."""
    return tuple([fn(p) for p in v]) if isinstance(v, tuple) else fn(v)


class HypothesisError(DomainError):
    """A matrix of a CheckInstance breaks its interval or bounds beyond tol."""


def _validated(a, b, ivs, bounds, tol: float) -> list:
    """The intervals of one part's instances, stacks a and b (None without
    B): `ivs` if given, else the tight ones. Each matrix's spectrum is read
    once: it gives the tight interval when ivs is None, and the containment
    margins lambda_min - m and M - lambda_max, judged by `within_tolerance`,
    when it is not. Raises HypothesisError for the first instance that
    breaks a rule, with the message of the first rule it breaks, and
    DomainError for a tight interval that is not positive."""
    spectra = each_stacked(np.linalg.eigvalsh, [a] if b is None or bounds is not None else [a, b])
    # per rule, in the order a single instance meets them: which instances
    # break it, and the message for instance i
    rules = []
    if ivs is None:     # the tight interval; it rejects a lambda_min <= 0
        lo = np.min([w[:, 0] for w in spectra], axis=0).tolist()
        hi = np.max([w[:, -1] for w in spectra], axis=0).tolist()
        for m, M in zip(lo, hi):
            if not m > 0:   # a NaN spectrum too
                raise DomainError(f"not positive definite: computed spectrum [{m}, {M}]")
        ivs = [SpectralInterval(m, M) for m, M in zip(lo, hi)]
        spectra = []    # a tight interval contains every spectrum
    m, M = (np.array([getattr(iv, end) for iv in ivs]) for end in ("m", "M"))
    for w in spectra:
        norm = np.abs(w).max(axis=-1)
        below, above = w[:, 0] - m, M - w[:, -1]
        rules.append((~(within_tolerance(below, tol, m, norm)
                        & within_tolerance(above, tol, norm, M)),
                      lambda i, below=below, above=above: f"sandwich {ivs[i].m} I <= X"
                      f" <= {ivs[i].M} I violated (margins {below[i]:.3e}, {above[i]:.3e})"))
    if bounds is not None:      # re-verified no matter how B was built
        lo, hi = ([getattr(v, end) for v in bounds] for end in ("m", "M"))
        (lo_ok, lo_margin, _, _), (hi_ok, hi_margin, _, _) = loewner_leq_each(
            [(_col(lo) * a, b), (b, _col(hi) * a)], tol)
        rules.append((~(lo_ok & hi_ok), lambda i: f"hypothesis {lo[i]}*A <= B <= {hi[i]}*A "
                      f"fails (margins {lo_margin[i]:.3e}, {hi_margin[i]:.3e})"))
    bad = np.any([broken for broken, _ in rules], axis=0)
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        raise HypothesisError(next(message(i) for broken, message in rules if broken[i]))
    return ivs


@dataclass
class CheckInstance:
    """Hypothesis bundle for one check: matrices, map, verified sandwich
    interval mI <= A <= MI, and an optional state and function. B lies in
    the same interval, unless `bounds` = [lo, hi] states its hypothesis
    lo*A <= B <= hi*A instead. With a leading batch axis on a, b and x, phi
    is a MapStack and iv and bounds are lists, one entry per instance.

    A stack may mix input sizes: then a, b and phi are tuples with one
    entry per part (instances that share A's and B's shapes and Phi's
    input dimension), in instance order, and all maps share one output
    dimension. Each part is validated on its own (`_validated`, one
    `eigvalsh` call); a check reaches the maps only through `images`, so
    all it computes after Phi runs once over the stack."""
    a: np.ndarray
    phi: KrausMap
    iv: Optional[SpectralInterval] = None
    b: Optional[np.ndarray] = None
    bounds: Optional[SpectralInterval] = None
    x: Optional[np.ndarray] = None
    f: Optional[ScalarFunction] = None
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        _tolerance(self.tol)
        self.a = _per_part(as_hermitian, self.a)
        if self.b is not None:
            self.b = _per_part(as_hermitian, self.b)
        self.x = None if self.x is None else np.asarray(self.x)
        # validated as a stack; a single instance is a stack of one here
        st = self if self.stacked else self.as_stack()
        ivs, lo = [], 0
        for a, b, _ in st.parts():
            hi = lo + len(a)
            ivs += _validated(a, b, None if st.iv is None else st.iv[lo:hi],
                              None if st.bounds is None else st.bounds[lo:hi], self.tol)
            lo = hi
        if self.iv is None:
            self.iv = ivs if self.stacked else ivs[0]

    @property
    def stacked(self) -> bool:
        return isinstance(self.a, tuple) or self.a.ndim == 3

    def as_stack(self) -> "CheckInstance":
        """This single instance as a stack of one (`_stack`); no re-validation."""
        out = copy.copy(self)
        vars(out).update(_stack([vars(self)]))
        return out

    def parts(self) -> list:
        """(a, b, phi) of each part of a stack, in instance order; b is None
        without B."""
        a = _each_part(self.a)
        b = (None,) * len(a) if self.b is None else _each_part(self.b)
        return list(zip(a, b, _each_part(self.phi)))

    def images(self, operands) -> list:
        """Phi of each stack of `operands(a, b)`, the matrices a check builds
        from one part's A and B (b is None without B), joined over the parts
        in instance order. Each part maps all its operands in one call
        (`each_stacked`), so every image has the bits its own map gives it."""
        parts = [each_stacked(phi, operands(a, b)) for a, b, phi in self.parts()]
        return [images[0] if len(images) == 1 else np.concatenate(images)
                for images in zip(*parts)]

    def params(self, **extra) -> list:
        """One params dict per instance, with its own input size as `dim`;
        an `extra` value given as a list or an array holds one entry per
        instance, any other value is shared."""
        parts = self.parts()
        out_dim = int(parts[0][2].output_dim)
        dims = [n for a, _, _ in parts for n in [int(a.shape[-1])] * len(a)]
        rows = []
        for i, (iv, dim) in enumerate(zip(self.iv, dims)):
            row = {"dim": dim, "out_dim": out_dim, "m": float(iv.m), "M": float(iv.M)}
            for key, v in extra.items():
                row[key] = float(v[i]) if isinstance(v, (list, np.ndarray)) else v
            rows.append(row)
        return rows


def _per_instance(check):
    """Run `check`, written for stacks, on a single instance as a stack of
    one and return its one result."""
    @functools.wraps(check)
    def run(inst: CheckInstance, *args, **kwargs):
        if inst.stacked:
            return check(inst, *args, **kwargs)
        return check(inst.as_stack(), *args, **kwargs)[0]
    return run


def _sharp_bound(iv: SpectralInterval) -> float:
    return (iv.M + iv.m) / (2.0 * np.sqrt(iv.M * iv.m))


def _eye(like: np.ndarray) -> np.ndarray:
    """The identity of the size of the matrices of `like`."""
    return np.eye(like.shape[-1])


@_per_instance
def check_choi_davis(inst: CheckInstance) -> list:
    f = inst.f
    if not f.operator_convex:
        raise DomainError(f"{f.name} is not flagged operator convex")
    pa, rhs = inst.images(lambda a, b: [a, matrix_function(a, f)])
    return _operator(inst.tol, ("choi_davis", inst.params(f=f.name),
                                matrix_function(pa, f), rhs))[0]


def _kantorovich_form(inst: CheckInstance, name: str, pain, pa) -> tuple:
    """Phi(A^-1) <= K Phi(A)^-1, from Phi(A^-1) and Phi(A)."""
    k = _each(kantorovich_constant, inst.iv)
    return name, inst.params(constant=k), pain, _col(k) * inv_psd(pa)


def _squared_form(inst: CheckInstance, name: str, paa, pa) -> tuple:
    """Phi(A^2) <= K Phi(A)^2, from Phi(A^2) and Phi(A)."""
    k = _each(kantorovich_constant, inst.iv)
    return name, inst.params(constant=k), paa, _col(k) * (pa @ pa)


def _sharp_form(inst: CheckInstance, name: str, pain, pa) -> tuple:
    """Phi(A^-1) # Phi(A) <= (M+m)/(2 sqrt(Mm)) I, from Phi(A^-1) and Phi(A)."""
    c = _each(_sharp_bound, inst.iv)
    return name, inst.params(constant=c), geometric_mean(pain, pa), _col(c) * _eye(pa)


@_per_instance
def check_kantorovich(inst: CheckInstance) -> list:
    pain, pa = inst.images(lambda a, b: [inv_psd(a), a])
    return _operator(inst.tol, _kantorovich_form(inst, "kantorovich", pain, pa))[0]


@_per_instance
def check_kantorovich_squared(inst: CheckInstance) -> list:
    paa, pa = inst.images(lambda a, b: [a @ a, a])
    return _operator(inst.tol, _squared_form(inst, "kantorovich_squared", paa, pa))[0]


@_per_instance
def check_kantorovich_sharp(inst: CheckInstance) -> list:
    pain, pa = inst.images(lambda a, b: [inv_psd(a), a])
    return _operator(inst.tol, _sharp_form(inst, "kantorovich_sharp", pain, pa))[0]


@_per_instance
def check_refinement(inst: CheckInstance) -> list:
    """Two-link chain: the sharp of Phi(A^-1), Phi(A) is dominated by the
    scalar s = ||(Phi(A)^{1/2} Phi(A^-1) Phi(A)^{1/2})^{1/2}||, which in turn
    is dominated by the sharp bound (M+m)/(2 sqrt(Mm)). One (left, right)
    pair per instance."""
    pain, pa = inst.images(lambda a, b: [inv_psd(a), a])
    ph = sqrtm_psd(pa)
    s = np.sqrt(np.linalg.eigvalsh(hermitian_part(ph @ pain @ ph))[:, -1])
    c = _each(_sharp_bound, inst.iv)
    sharp = geometric_mean(pain, pa)
    left = _operator(inst.tol, ("refinement.left", inst.params(middle=s), sharp,
                                _col(s) * _eye(pa)))[0]
    right = _scalar("refinement.right", inst.params(middle=s, constant=c),
                    s, c, inst.tol)
    return list(zip(left, right))


@_per_instance
def check_power_inner_product(inst: CheckInstance, r: float) -> list:
    """No map: A is read directly. A and x share one size, so a stack of
    these instances is one part."""
    if not (r >= 1 or r < 0):
        raise DomainError(f"exponent must satisfy r >= 1 or r < 0, got {r}")
    lhs = [e ** r for e in vector_state_value(inst.x, inst.a).tolist()]
    rhs = vector_state_value(inst.x, power(inst.a, r))
    return _scalar(f"power_inner_product[r={_fmt(r)}]", inst.params(r=r), lhs, rhs,
                   inst.tol)


@_per_instance
def check_ando(inst: CheckInstance) -> list:
    lhs, pa, pb = inst.images(lambda a, b: [geometric_mean(a, b), a, b])
    return _operator(inst.tol, ("ando", inst.params(), lhs, geometric_mean(pa, pb)))[0]


@_per_instance
def check_ando_connection(inst: CheckInstance) -> list:
    f = inst.f
    if not f.operator_monotone_increasing:
        raise DomainError(f"{f.name} is not flagged operator monotone increasing")
    if not f.mean_normalized:
        raise DomainError(f"{f.name} has f(1) != 1, not a mean-representing function")
    lhs, pa, pb = inst.images(lambda a, b: [connection(a, b, f), a, b])
    return _operator(inst.tol, ("ando_connection", inst.params(f=f.name), lhs,
                                connection(pa, pb, f)))[0]


@_per_instance
def check_reverse_ando_convex(inst: CheckInstance) -> list:
    f = inst.f
    if not f.operator_convex:
        raise DomainError(f"{f.name} is not flagged operator convex")
    rhs, pa, pb = inst.images(lambda a, b: [connection(a, b, f), a, b])
    return _operator(inst.tol, ("reverse_ando_convex", inst.params(f=f.name),
                                connection(pa, pb, f), rhs))[0]


@_per_instance
def check_reverse_ando_sandwich(inst: CheckInstance) -> list:
    """Under m^2 A <= B <= M^2 A, given as `inst.bounds` = [m^2, M^2]."""
    c = [_sharp_bound(SpectralInterval(math.sqrt(v.m), math.sqrt(v.M))) for v in inst.bounds]
    pg, pa, pb = inst.images(lambda a, b: [geometric_mean(a, b), a, b])
    return _operator(inst.tol, ("reverse_ando_sandwich", inst.params(constant=c),
                                geometric_mean(pa, pb), _col(c) * pg))[0]


@_per_instance
def check_kantorovich_equivalents(inst: CheckInstance) -> list:
    """The four forms of the inverse-reversal bound, each checked as its own
    statement: operator, scalar (vector state), sharp, and squared."""
    k = _each(kantorovich_constant, inst.iv)
    pain, pa, paa = inst.images(lambda a, b: [inv_psd(a), a, a @ a])
    name = "kantorovich_equivalents."
    operator, sharp, squared = _operator(
        inst.tol, _kantorovich_form(inst, name + "operator", pain, pa),
        _sharp_form(inst, name + "sharp", pain, pa),
        _squared_form(inst, name + "squared", paa, pa))
    scalar = _scalar(name + "scalar", inst.params(constant=k),
                     vector_state_value(inst.x, pain),
                     np.asarray(k) / vector_state_value(inst.x, pa), inst.tol)
    return [list(results) for results in zip(operator, scalar, sharp, squared)]


@_per_instance
def check_reverse_choi_quadratic(inst: CheckInstance) -> list:
    """Under m A <= B <= M A, given as `inst.bounds` = [m, M]."""
    k = [_sharp_bound(v) ** 2 for v in inst.bounds]
    lhs, pb, pa = inst.images(lambda a, b: [hermitian_part(b @ inv_psd(a) @ b), b, a])
    rhs = _col(k) * hermitian_part(pb @ inv_psd(pa) @ pb)
    return _operator(inst.tol, ("reverse_choi_quadratic", inst.params(constant=k),
                                lhs, rhs))[0]


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
    pfa, pa = inst.images(lambda a, b: [matrix_function(a, f), a])
    lhs = vector_state_value(inst.x, pfa)
    t0 = vector_state_value(inst.x, pa)
    rhs = np.asarray(beta) + np.asarray(alpha) * np.asarray(f(t0), dtype=float)
    return _scalar(f"mond_pecaric[alpha={alpha_label or _fmt(alpha)}]",
                   inst.params(f=f.name, alpha=alpha, beta=beta), lhs, rhs, inst.tol)


@_per_instance
def check_generalized_kantorovich_operator(inst: CheckInstance, p: float) -> list:
    k = _each(generalized_kantorovich, inst.iv, p)
    lhs, pa = inst.images(lambda a, b: [power(a, p), a])
    return _operator(inst.tol, (f"generalized_kantorovich[p={_fmt(p)}]",
                                inst.params(p=p, constant=k), lhs, _col(k) * power(pa, p)))[0]


@_per_instance
def check_scalar_power_chain(inst: CheckInstance, p: float) -> list:
    """<Phi(A^p)x,x> <= K <Phi(A)x,x>^p <= K <Phi(A)^p x,x>: the middle bound
    is the tighter one, the chain certifies that. One (lower, upper) pair
    per instance."""
    k = _each(generalized_kantorovich, inst.iv, p)
    pap, pa = inst.images(lambda a, b: [power(a, p), a])
    s_lhs = vector_state_value(inst.x, pap)
    mid = [kk * v ** p for kk, v in zip(k, vector_state_value(inst.x, pa).tolist())]
    s_rhs = np.asarray(k) * vector_state_value(inst.x, power(pa, p))
    params = inst.params(p=p, constant=k)
    lower = _scalar(f"scalar_power_chain[p={_fmt(p)}].lower", params, s_lhs, mid, inst.tol)
    upper = _scalar(f"scalar_power_chain[p={_fmt(p)}].upper", params, mid, s_rhs, inst.tol)
    return list(zip(lower, upper))


@_per_instance
def check_additive_sqrt(inst: CheckInstance) -> list:
    c = [(iv.M - iv.m) ** 2 / (4.0 * (iv.M + iv.m)) for iv in inst.iv]
    paa, pa = inst.images(lambda a, b: [a @ a, a])
    return _operator(inst.tol, ("additive_sqrt", inst.params(constant=c), sqrtm_psd(paa),
                                _col(c) * _eye(pa) + pa))[0]


def _through(inst: CheckInstance, inner, outer) -> list:
    """outer(Phi(inner(X))) for X = A, B and A + B, each function applied
    to the three as one stack."""
    images = inst.images(lambda a, b: list(inner(np.stack([a, b, a + b]))))
    return list(outer(np.stack(images)))


def minkowski_constants(stacks: list, f: ScalarFunction) -> dict:
    """The constants of `check_minkowski_general` for each instance of the
    stacks, searched in lockstep: alpha[f; m, M] and 2*beta0[f^-1; f-range],
    the sorted (f(m), f(M)) since a one-to-one continuous f is monotone."""
    ivs = [iv for s in stacks for iv in s.iv]
    ranges = np.sort(f(np.array([[iv.m, iv.M] for iv in ivs])), axis=-1)
    return {"alpha": alpha_constant(f, ivs),
            "beta": 2.0 * beta0_constant(f.inverted(), ranges)}


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
    name = f"minkowski_general[f={f.name}]"
    sa, sb, sab = _through(inst, lambda x: matrix_function(x, f),
                           lambda x: matrix_function(x, finv))
    if alpha is None:
        alpha, beta = minkowski_constants([inst], f).values()
    return _minkowski_pairs(inst, name, inst.params(f=f.name, alpha=alpha, beta=beta),
                            sa + sb, sab, alpha, beta)


def _minkowski_pairs(inst: CheckInstance, name: str, params: list, lhs, sab,
                     factor, summand) -> list:
    """(mult, add) per instance: lhs <= factor * sab and lhs <= summand I + sab,
    judged together on the one shared lhs."""
    return list(zip(*_operator(inst.tol, (name + ".mult", params, lhs, _col(factor) * sab),
                               (name + ".add", params, lhs, _col(summand) * _eye(sab) + sab))))


def _power_minkowski(inst: CheckInstance, p: float, name: str, **tag) -> list:
    """One (mult, add) pair per instance; `tag` ends each params dict."""
    if not 1 <= p <= 2:
        raise DomainError(f"need 1 <= p <= 2, got {p}")
    sa, sb, sab = _through(inst, lambda x: power(x, p), lambda x: power(x, 1.0 / p))
    kp = [generalized_kantorovich(p, v) ** (1.0 / p) for v in inst.iv]
    bp = _each(beta_p_constant, inst.iv, p)
    return _minkowski_pairs(inst, name, inst.params(p=p, factor=kp, summand=bp, **tag),
                            sa + sb, sab, kp, bp)


@_per_instance
def check_power_minkowski(inst: CheckInstance, p: float) -> list:
    """One (mult, add) pair per instance."""
    return _power_minkowski(inst, p, f"power_minkowski[p={_fmt(p)}]")


@_per_instance
def check_tuple_minkowski(inst: CheckInstance, k: int) -> list:
    """k-tuple version at p = 2, reduced to the two-term power check: A and
    B are the block-diagonal matrices of the k blocks A_i and B_i, and phi
    is the direct sum of the k maps Phi_i (see `generators.DrawBatch`)."""
    return _power_minkowski(inst, 2.0, f"tuple_minkowski[k={k}]", k=k)


__all__ = [
    "CheckResult", "HypothesisError", "CheckInstance", "check_choi_davis",
    "check_kantorovich", "check_kantorovich_squared", "check_kantorovich_sharp",
    "check_refinement", "check_power_inner_product", "check_ando",
    "check_ando_connection", "check_reverse_ando_convex",
    "check_reverse_ando_sandwich", "check_kantorovich_equivalents",
    "check_reverse_choi_quadratic", "check_mond_pecaric",
    "check_generalized_kantorovich_operator", "check_scalar_power_chain",
    "check_additive_sqrt", "minkowski_constants", "check_minkowski_general",
    "check_power_minkowski", "check_tuple_minkowski",
]
