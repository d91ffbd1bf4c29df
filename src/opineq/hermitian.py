"""Hermitian-matrix core.

Dense complex Hermitian matrices are carried as plain numpy arrays; this
module owns construction hygiene (Hermiticity check + exact symmetrization),
eigendecomposition, functional calculus, and the Loewner-order comparator
``loewner_leq`` that realizes every operator inequality downstream.

Every matrix function here also takes a stack of matrices, shape
(..., n, n), and treats each matrix on its own: one LAPACK or matmul call
covers the stack and gives each matrix the bits it would get alone.
Scalars computed per matrix (norms, margins, verdicts) come back as arrays
over the stack, and as Python scalars for a single matrix. Separate arrays
share a call only through `stacks` and `each_stacked`, which group them by
shape and dtype: that is the one stacking rule of the package.
Inside a ``spectral_scope``, A^p for several p comes from one ``eigh`` of A.

Spectra come from ``_eigh`` and ``_eigvalsh``, which return numpy.linalg's
``eigh`` and ``eigvalsh`` bit for bit. A real float64 2x2 matrix whose
entries LAPACK reads (a00, a10, a11) are finite, with the largest |.| 0 or
in [1e-120, 1e140], takes a closed form that repeats the operations of
LAPACK's ``dsyevd`` on it, with no per-matrix dispatch; every other matrix,
which LAPACK would rescale, goes to numpy.linalg.
"""
from __future__ import annotations

import numbers
from contextlib import contextmanager
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Union

import numpy as np

# absolute deviation allowed before an input is rejected as non-Hermitian
HERMITIAN_ATOL = 1e-12
# default relative tolerance for Loewner comparisons
DEFAULT_TOL = 1e-9
# relative floor under which a "positive" matrix is treated as singular for
# inverse/fractional functional calculus
POSITIVITY_RTOL = 1e-12
# bytes of stacked operands one batched step may hold, 768 kB: the drawn
# instances a registry entry holds before it evaluates its largest buckets
# (down to half of it), and the Kraus operators of one 12,288-point chunk
# of the falsifier's grid. Evaluating a round allocates about 10x it; the
# sweep at dims 16-32 peaks at 52 MB RSS, 7% above a 384 kB budget
BATCH_BYTES = 768 << 10


class DomainError(ValueError):
    """An eigenvalue fell outside the domain of the requested function."""


def adjoint(a: np.ndarray) -> np.ndarray:
    """The conjugate transpose of each matrix of a stack."""
    return a.conj().swapaxes(-1, -2)


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(A + A*)/2 for each matrix of a stack."""
    return (a + adjoint(a)) / 2


def as_hermitian(a) -> np.ndarray:
    """Validate and exactly symmetrize a square matrix, or a stack of them.

    Parameters
    ----------
    a : array_like
        Square matrix (or stack) expected to be Hermitian up to
        HERMITIAN_ATOL absolute.

    Returns
    -------
    ndarray
        (a + a*)/2, exactly Hermitian; dtype is preserved (real stays real).

    Raises
    ------
    ValueError
        If ``a`` is not square or deviates from Hermitian symmetry by more
        than HERMITIAN_ATOL in any entry.
    """
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    dev = np.abs(a - adjoint(a)).max() if a.size else 0.0
    if dev > HERMITIAN_ATOL:
        raise DomainError(f"matrix is not Hermitian: max |A - A*| = {dev:.3e} "
                          f"> {HERMITIAN_ATOL:.1e}")
    return hermitian_part(a)


def _per_matrix(v):
    """A per-matrix value: a Python scalar for one matrix, else the array."""
    return v.item() if v.ndim == 0 else v


def _spectral_norm(w: np.ndarray):
    return _per_matrix(np.abs(w).max(axis=-1))


def operator_norm(a: np.ndarray):
    """Spectral norm max_i |lambda_i| of a Hermitian matrix."""
    return _spectral_norm(_eigvalsh(a))


def _below_floor(w: np.ndarray):
    """(lambda_min, lambda_max) of the first spectrum w[..., :] (ascending,
    ravel order) whose lambda_min is at or below the relative positivity
    floor POSITIVITY_RTOL * max(1, max |lambda|), or None. lambda_max stands
    in for max |lambda|: the two agree when lambda_min > 0, and a
    lambda_min <= 0 is below either floor. One array pass in float64: like
    max(1.0, x), fmax takes 1 over a NaN."""
    if w.shape[-1] == 0:
        return None
    lam = w[..., 0].ravel().astype(float, copy=False)
    top = w[..., -1].ravel().astype(float, copy=False)
    below = lam <= POSITIVITY_RTOL * np.fmax(1.0, top)
    if not below.any():
        return None
    i = below.argmax()
    return lam[i].item(), top[i].item()


def _floor_text(found: tuple) -> str:
    """What a refused spectrum's (lambda_min, lambda_max) broke: the floor."""
    lam, top = found
    return (f"lambda_min = {lam:.3e} is at or below {POSITIVITY_RTOL:g} * max(1, lambda_max)"
            f" = {POSITIVITY_RTOL * max(1.0, top):.3e}")


_eigh_memo: dict | None = None     # the open scope's eigh by (shape, dtype, bytes)


@contextmanager
def spectral_scope():
    """Within the block, `power` and `matrix_function` decompose each stack
    once; scopes nest, and the memo goes when the outermost one exits."""
    global _eigh_memo
    outer, _eigh_memo = _eigh_memo, {} if _eigh_memo is None else _eigh_memo
    try:
        yield
    finally:
        _eigh_memo = outer


# LAPACK's dlamch('E') and dlamch('S'), as dsteqr and dsterf read them
_EPS, _SAFMIN = np.finfo(float).eps / 2, np.finfo(float).tiny
# the largest entry a real 2x2 matrix may have, besides 0, to take the closed
# form: inside it neither dsyevd (below 1.4e-146, above 7.1e145) nor dsteqr
# (below 1.2e-122) rescales, so the closed form's operations are theirs
_CLOSED_RANGE = (1e-120, 1e140)


def _dlaev2(a, b, c, vectors: bool):
    """LAPACK's dlaev2 (dlae2 when not `vectors`) on stacks: the eigenvalues
    rt1, rt2 of [[a, b], [b, c]], rt1 of larger modulus, and (cs, sn), rt1's
    eigenvector, by the routine's own operations in its own order."""
    sm, df, tb = a + c, a - c, b + b
    adf, ab = np.abs(df), np.abs(tb)
    larger = np.abs(a) > np.abs(c)
    acmx, acmn = np.where(larger, a, c), np.where(larger, c, a)
    q = np.where(adf > ab, ab / adf, adf / ab)
    rt = np.where(adf == ab, ab * np.sqrt(2.0), np.maximum(adf, ab) * np.sqrt(1.0 + q * q))
    rt1 = 0.5 * np.where(sm < 0, sm - rt, sm + rt)
    rt2 = np.where(sm == 0, -0.5 * rt, (acmx / rt1) * acmn - (b / rt1) * b)
    if not vectors:
        return rt1, rt2
    cs = np.where(df >= 0, df + rt, df - rt)
    ct, tn = -tb / cs, -cs / tb
    sn_ct = 1.0 / np.sqrt(1.0 + ct * ct)
    cs_tn = 1.0 / np.sqrt(1.0 + tn * tn)
    by_ct, flat = np.abs(cs) > ab, ab == 0
    cs1 = np.where(by_ct, ct * sn_ct, np.where(flat, 1.0, cs_tn))
    sn1 = np.where(by_ct, sn_ct, np.where(flat, 0.0, tn * cs_tn))
    turn = (sm >= 0) == (df >= 0)   # dlaev2's sgn1 == sgn2
    return rt1, rt2, np.where(turn, -sn1, cs1), np.where(turn, cs1, sn1)


def _closed_form(a: np.ndarray, vectors: bool) -> tuple:
    """(w,) or (w, v) of each real 2x2 matrix of a stack, by the operations
    numpy's dsyevd runs on it: dsytd2 (UPLO 'L') gives d = (a00, a11) and
    e = a10; dsteqr splits or converges where e is small (the QL or QR test,
    as |d| orders them) and takes dlaev2 and its rotation of I otherwise;
    values only, dsterf tests e^2 and takes dlae2 on sqrt(e^2), in QR order
    when |a11| < |a00|. Ascending by a strict swap, as both routines sort."""
    d0, e, d1 = a[..., 0, 0], a[..., 1, 0], a[..., 1, 1]
    ad0, ad1, qr = np.abs(d0), np.abs(d1), np.abs(d1) < np.abs(d0)
    done = np.abs(e) <= (np.sqrt(ad0) * np.sqrt(ad1)) * _EPS
    e2, eps2 = e * e, _EPS * _EPS
    w = np.empty(a.shape[:-1])
    if vectors:
        done |= e2 <= np.where(qr, (eps2 * ad1) * ad0, (eps2 * ad0) * ad1) + _SAFMIN
        rt1, rt2, c, s = _dlaev2(d0, e, d1, True)
        w[..., 0], w[..., 1] = np.where(done, d0, rt1), np.where(done, d1, rt2)
        c, s = np.where(done, 1.0, c), np.where(done, 0.0, s)
        v = np.empty(a.shape)       # dlasr's rotation of I, term by term: signed zeros
        v[..., 0, 0], v[..., 0, 1] = s * 0.0 + c * 1.0, c * 0.0 - s * 1.0
        v[..., 1, 0], v[..., 1, 1] = s * 1.0 + c * 0.0, c * 1.0 - s * 0.0
    else:
        done |= e2 <= eps2 * np.abs(d0 * d1)
        rt1, rt2 = _dlaev2(np.where(qr, d1, d0), np.sqrt(e2), np.where(qr, d0, d1), False)
        w[..., 0] = np.where(done, d0, np.where(qr, rt2, rt1))
        w[..., 1] = np.where(done, d1, np.where(qr, rt1, rt2))
    swap = w[..., 1] < w[..., 0]
    w[swap] = w[swap][:, ::-1]
    if not vectors:
        return w,
    v[swap] = v[swap][..., ::-1]
    return w, v


def _spectra(a: np.ndarray, vectors: bool) -> tuple:
    """np.linalg.eigh(a), or (eigvalsh(a),) when not `vectors`, bit for bit.
    A real float64 2x2 matrix takes `_closed_form` when the entries LAPACK
    reads (a00, a10, a11) are finite and the largest |.| is 0 or inside
    `_CLOSED_RANGE`; every other matrix goes to numpy.linalg."""
    def lapack(m):
        return tuple(np.linalg.eigh(m)) if vectors else (np.linalg.eigvalsh(m),)
    closed = np.False_
    if a.dtype == np.float64 and a.shape[-2:] == (2, 2):
        top = np.abs(a[..., (0, 1, 1), (0, 0, 1)]).max(axis=-1)
        closed = (top == 0) | ((top >= _CLOSED_RANGE[0]) & (top <= _CLOSED_RANGE[1]))
    if not closed.any():
        return lapack(a)
    with np.errstate(all="ignore"):    # the branches a matrix does not take
        out = _closed_form(a, vectors)
    if not closed.all():
        for o, f in zip(out, lapack(a[~closed])):
            o[~closed] = f
    return out


def _eigvalsh(a: np.ndarray) -> np.ndarray:
    """np.linalg.eigvalsh(a), bit for bit (`_spectra`)."""
    return _spectra(a, False)[0]


def _eigh(a: np.ndarray):
    """np.linalg.eigh(a), bit for bit (`_spectra`), shared read-only by every
    caller in the open scope."""
    if _eigh_memo is None:
        return _spectra(a, True)
    key = (a.shape, a.dtype.str, a.tobytes())
    if key not in _eigh_memo:
        w, v = _spectra(a, True)
        w.flags.writeable = v.flags.writeable = False
        _eigh_memo[key] = w, v
    return _eigh_memo[key]


def _from_spectrum(fw: np.ndarray, v: np.ndarray) -> np.ndarray:
    """V diag(fw) V*, symmetrized, for each matrix of the stack."""
    return hermitian_part((v * fw[..., None, :]) @ adjoint(v))


def matrix_function(a: np.ndarray, f: Union[Callable, "object"]) -> np.ndarray:
    """Apply a scalar function to a Hermitian matrix via its spectrum.

    ``f`` may be a plain callable or a catalog ScalarFunction (anything with
    ``evaluate`` and ``requires_positive`` attributes). Eigenvalues must lie
    in the domain of ``f``; for functions needing t > 0 the spectrum must
    clear a relative positivity floor.
    """
    fn = getattr(f, "evaluate", f)
    w, v = _eigh(a)
    found = _below_floor(w) if getattr(f, "requires_positive", False) else None
    if found is not None:
        raise DomainError(f"matrix function {getattr(f, 'name', fn)!r} needs a positive "
                          f"spectrum; {_floor_text(found)}")
    return _from_spectrum(np.asarray(fn(w), dtype=float), v)


def power(a: np.ndarray, p: float) -> np.ndarray:
    """Matrix power A^p through the spectral calculus.

    Any real p is allowed when A is positive definite; otherwise only
    nonnegative integer powers are defined. power(A, 0) is the identity.
    """
    if p == 0:
        return np.broadcast_to(np.eye(a.shape[-1], dtype=a.dtype), a.shape).copy()
    if p == 1:
        return hermitian_part(a)
    w, v = _eigh(a)
    found = _below_floor(w) if not float(p).is_integer() or p < 0 else None
    if found is not None:
        raise DomainError(f"power {p} needs a positive definite matrix; {_floor_text(found)}")
    return _from_spectrum(w ** p, v)


def inv_psd(a: np.ndarray) -> np.ndarray:
    return power(a, -1.0)


def sqrtm_psd(a: np.ndarray) -> np.ndarray:
    return power(a, 0.5)


def _tolerance(tol) -> None:
    """The one tolerance rule: a finite number >= 0 (inf passes every verdict)."""
    if not (isinstance(tol, numbers.Real) and 0 <= tol < np.inf):
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")


def within_tolerance(margin, tol: float, lhs_norm, rhs_norm):
    """The verdict rule for LHS <= RHS with signed margin `margin`:
    margin >= -tol * max(1, ||LHS||, ||RHS||). Elementwise over arrays."""
    if isinstance(margin, np.ndarray):
        return margin >= -tol * np.maximum(np.maximum(1.0, lhs_norm), rhs_norm)
    return bool(margin >= -tol * max(1.0, lhs_norm, rhs_norm))


# what arrays must share to go into one stacked call: the shape, and the
# dtype, since a promotion would change their bits
_stack_key = attrgetter("shape", "dtype")


def stacks(arrays):
    """(indices, stack) for each group of `arrays` with one `_stack_key`, in
    first-seen order; lazily, so a caller holds one group's stack at a time."""
    groups: dict = {}
    for i, a in enumerate(arrays):
        groups.setdefault(_stack_key(a), []).append(i)
    for idx in groups.values():
        yield idx, np.array([arrays[i] for i in idx])


def each_stacked(fn, arrays) -> list:
    """fn of each array, in input order, from one call of `fn` per group of
    `stacks`; `fn` takes a stack on a new leading axis and gives one result
    per entry of it."""
    out = [None] * len(arrays)
    for idx, stack in stacks(arrays):
        for i, r in zip(idx, fn(stack)):
            out[i] = r
    return out


def loewner_leq_each(pairs, tol: float = DEFAULT_TOL) -> list:
    """`loewner_leq` for several pairs (A, B) of stacks, one (holds, margin,
    lhs_norm, rhs_norm) per pair. The spectra come from one `eigvalsh` call
    per group of `stacks`, and an operand shared by several pairs (the same
    object) is decomposed once."""
    _tolerance(tol)
    operands: dict = {}
    for a, b in pairs:
        if a.shape != b.shape:
            raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
        operands.setdefault(id(a), a)
        operands.setdefault(id(b), b)
    spectra = each_stacked(np.linalg.eigvalsh,
                           [hermitian_part(b - a) for a, b in pairs] + list(operands.values()))
    norm = dict(zip(operands, map(_spectral_norm, spectra[len(pairs):])))
    out = []
    for (a, b), w_diff in zip(pairs, spectra):
        margin, ln, rn = _per_matrix(w_diff[..., 0]), norm[id(a)], norm[id(b)]
        out.append((within_tolerance(margin, tol, ln, rn), margin, ln, rn))
    return out


def loewner_leq(a: np.ndarray, b: np.ndarray, tol: float = DEFAULT_TOL):
    """Decide A <= B in the Loewner order, for each pair of a stack.

    Returns
    -------
    (holds, margin, lhs_norm, rhs_norm) : (bool, float, float, float)
        margin = lambda_min(B - A); lhs_norm, rhs_norm = ||A||_op, ||B||_op;
        holds by `within_tolerance`. Arrays over the stack for stacked input.
    """
    return loewner_leq_each([(a, b)], tol)[0]


@dataclass(frozen=True)
class SpectralInterval:
    """The pair (m, M) with 0 < m <= M < inf housing a sandwich mI <= A <= MI."""
    m: float
    M: float

    def __post_init__(self):
        if not (0 < self.m <= self.M < np.inf):
            raise DomainError(f"need 0 < m <= M < inf, got ({self.m}, {self.M})")


__all__ = [
    "HERMITIAN_ATOL", "DEFAULT_TOL", "BATCH_BYTES", "DomainError",
    "SpectralInterval", "adjoint", "hermitian_part", "as_hermitian",
    "operator_norm", "spectral_scope", "matrix_function", "power", "inv_psd",
    "sqrtm_psd", "within_tolerance", "stacks", "each_stacked", "loewner_leq",
    "loewner_leq_each",
]
