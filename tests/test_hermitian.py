"""Core Hermitian helpers: eigendecomposition, powers, the order check."""
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opineq import hermitian
from opineq.functions import by_name
from opineq.hermitian import (POSITIVITY_RTOL, DomainError, SpectralInterval,
                              as_hermitian, each_stacked, inv_psd,
                              loewner_leq, matrix_function, operator_norm,
                              power, spectral_scope, sqrtm_psd)

A22 = np.array([[2.0, 1.0], [1.0, 2.0]])


def random_hermitian(rng, n, complex_=True):
    x = rng.standard_normal((n, n))
    if complex_:
        x = x + 1j * rng.standard_normal((n, n))
    return (x + x.conj().T) / 2


def test_as_hermitian_symmetrizes_within_atol():
    a = A22 + np.array([[0, 1e-14], [-1e-14, 0]])
    h = as_hermitian(a)
    np.testing.assert_array_equal(h, h.conj().T)


# signed zeros, subnormals, infinities and NaN, as real and imaginary parts
SPECIAL = np.array([0.0, -0.0, 5e-324, -2.5e-310, np.inf, -np.inf, np.nan, 1.5, -3.0, 7.0])


def _stack(dtype, shape, rng) -> np.ndarray:
    if dtype is bool:
        return rng.random(shape) < 0.5
    if np.dtype(dtype).kind in "iu":
        return rng.integers(0 if np.dtype(dtype).kind == "u" else -5, 6, shape).astype(dtype)
    a = rng.choice(SPECIAL, shape).astype(dtype)
    if a.dtype.kind == "c":
        a.imag = rng.choice(SPECIAL, shape)
    return a


def _same(got: np.ndarray, want: np.ndarray) -> bool:
    return (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


# adjoint, hermitian_part and as_hermitian give the bits and dtypes numpy
# gives A* and (A + A*)/2, floats for an integer or bool stack (halving such
# a sum in place would fail); a real stack's adjoint is a read-only view of
# it, and neither the input nor a view of it is ever returned as the result
@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.complex128, np.int64,
                                   np.uint8, bool])
@pytest.mark.parametrize("shape", [(7, 3, 3), (2, 4, 2, 2), (5, 1, 1), (0, 2, 2), (3, 3)])
def test_adjoint_and_hermitian_part_keep_values_and_dtypes(dtype, shape):
    a = _stack(dtype, shape, np.random.default_rng(len(shape)))
    before = a.tobytes()
    with np.errstate(all="ignore"):     # inf - inf and the like
        want_adj = a.conj().swapaxes(-1, -2)
        want = (a + want_adj) / 2
        h = a + want_adj                # Hermitian, up to the NaNs its infinities make
        want_h = (h + h.conj().swapaxes(-1, -2)) / 2
        adj, got = hermitian.adjoint(a), hermitian.hermitian_part(a)
        if dtype is bool and a.size:    # numpy has no boolean subtract for the deviation
            with pytest.raises(TypeError):
                as_hermitian(h)
        else:
            got_h = as_hermitian(h)
            assert _same(got_h, want_h) and not np.shares_memory(got_h, h)
    assert _same(adj, want_adj) and _same(got, want)
    assert got.flags.writeable and not np.shares_memory(got, a)
    if a.dtype.kind != "c":     # a real stack's adjoint is its view, read-only
        assert not adj.flags.writeable and a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            adj[...] = 0
    assert a.tobytes() == before


def test_as_hermitian_rejects_skew():
    with pytest.raises(DomainError):
        as_hermitian(np.array([[0.0, 1.0], [-1.0, 0.0]]))


def test_eigenvalues_ascending():
    w = np.linalg.eigvalsh(A22)
    np.testing.assert_allclose(w, [1.0, 3.0], atol=1e-12)


def test_eig_reconstruct(rng):
    for n in (2, 3, 5, 8):
        a = random_hermitian(rng, n)
        w, v = np.linalg.eigh(a)
        np.testing.assert_allclose((v * w) @ v.conj().T, a, atol=1e-11)
        # eigenvectors unitary
        np.testing.assert_allclose(v.conj().T @ v, np.eye(n), atol=1e-11)


def test_power_known_values():
    np.testing.assert_allclose(power(A22, 2), [[5.0, 4.0], [4.0, 5.0]], atol=1e-12)
    np.testing.assert_allclose(
        power(A22, -1),
        np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0, atol=1e-12)
    np.testing.assert_allclose(power(A22, 0), np.eye(2), atol=0)


def test_power_half_squares_back(rng):
    a = random_hermitian(rng, 5)
    a = a @ a.conj().T + np.eye(5)  # strictly PD
    r = power(a, 0.5)
    np.testing.assert_allclose(r @ r, a, atol=1e-10)
    np.testing.assert_allclose(sqrtm_psd(a), r, atol=1e-11)


def test_power_negative_needs_pd():
    singular = np.diag([1.0, 0.0])
    with pytest.raises(DomainError):
        power(singular, -1)
    with pytest.raises(DomainError):
        power(np.diag([1.0, -0.5]), 0.5)


def test_inv_psd_matches_solve(rng):
    a = random_hermitian(rng, 4)
    a = a @ a.conj().T + np.eye(4)
    np.testing.assert_allclose(inv_psd(a) @ a, np.eye(4), atol=1e-10)


def test_matrix_function_accepts_callable_and_catalog():
    via_callable = matrix_function(A22, np.exp)
    w, u = np.linalg.eigh(A22)
    np.testing.assert_allclose(via_callable, (u * np.exp(w)) @ u.conj().T, atol=1e-12)
    via_catalog = matrix_function(A22, by_name("t^2"))
    np.testing.assert_allclose(via_catalog, A22 @ A22, atol=1e-12)


def test_matrix_function_domain_guard():
    f = by_name("log")  # requires a positive spectrum
    with pytest.raises(DomainError):
        matrix_function(np.diag([1.0, 0.0]), f)


def loop_floor(w):
    """The per-spectrum Python loop that `_below_floor`'s array pass
    replaced, kept as the reference it must match."""
    if w.shape[-1] == 0:
        return None
    for lam, top in zip(w[..., 0].ravel().tolist(), w[..., -1].ravel().tolist()):
        if lam <= POSITIVITY_RTOL * max(1.0, top):
            return lam, top
    return None


def floor_and_reference(w):
    """The lambda_min `_below_floor` and the loop find, by repr; the
    lambda_max each reports with it must agree too."""
    got, want = hermitian._below_floor(w), loop_floor(w)
    assert repr(got if got is None else got[1]) == repr(want if want is None else want[1])
    return [repr(v if v is None else v[0]) for v in (got, want)]


def ascending_spectra(rng, n, d=4):
    return np.sort(rng.uniform(0.5, 8.0, (n, d)), axis=-1)


@pytest.mark.parametrize("n", [1, 2, 12, 13, 30, 200, 2000])
def test_floor_matches_the_loop(rng, n):
    w = ascending_spectra(rng, n)
    assert floor_and_reference(w) == ["None", "None"]
    # NaN lanes: a NaN lambda_min never offends; a NaN lambda_max floors at 1
    w[rng.integers(n, size=3), 0] = np.nan
    assert floor_and_reference(w) == ["None", "None"]
    tiny = rng.integers(n)
    w[tiny, 0], w[tiny, -1] = 0.5 * POSITIVITY_RTOL, np.nan
    assert floor_and_reference(w) == [repr(0.5 * POSITIVITY_RTOL)] * 2
    # lambda_min exactly at the floor offends, one ulp above it does not
    w = ascending_spectra(rng, n)
    at, top = rng.integers(n), float(w[-1, -1])
    floor = POSITIVITY_RTOL * max(1.0, top)
    w[at, 0], w[at, -1] = np.nextafter(floor, np.inf), top
    assert floor_and_reference(w) == ["None", "None"]
    w[at, 0] = floor
    assert floor_and_reference(w) == [repr(floor)] * 2
    # lambda_min <= 0 at several positions: the first in ravel order
    picks = rng.choice(n, size=min(n, 4), replace=False)
    w[picks, 0] = [-0.0, -1.5, 0.0, -3.0][:len(picks)]
    first = repr(float(w[min(picks.min(), at), 0]))
    assert floor_and_reference(w) == [first] * 2
    # a stack of stacks is read in ravel order
    if n % 2 == 0:
        assert floor_and_reference(w.reshape(2, n // 2, -1)) == [first] * 2
    assert floor_and_reference(np.empty((n, 0))) == ["None", "None"]


def test_float32_floor_is_judged_in_float64(rng):
    # the float32 neighbours of each float64 floor, tested as the loop does
    tops = np.sort(rng.uniform(1.0, 8.0, 64)).astype(np.float32)
    below = np.float32(POSITIVITY_RTOL * tops.astype(float))
    for lam in (below, np.nextafter(below, np.float32(1.0))):
        w = np.stack([lam, tops], axis=-1)
        for stack in [*w[:, None, :], w]:
            got, want = floor_and_reference(stack)
            assert got == want


@pytest.mark.parametrize("n", [1, 30, 2000])
def test_domain_error_text_at_any_stack_size(n):
    a = np.broadcast_to(np.eye(2), (n, 2, 2)).copy()
    a[n // 2] = np.diag([1.0, -0.25])
    with pytest.raises(DomainError) as exc:
        power(a, -0.5)
    assert str(exc.value) == ("power -0.5 needs a positive definite matrix; "
                              "lambda_min = -2.500e-01 is at or below "
                              "1e-12 * max(1, lambda_max) = 1.000e-12")
    with pytest.raises(DomainError) as exc:
        matrix_function(a, by_name("log"))
    assert str(exc.value) == ("matrix function 'log' needs a positive spectrum; "
                              "lambda_min = -2.500e-01 is at or below "
                              "1e-12 * max(1, lambda_max) = 1.000e-12")


def test_loewner_leq_basic():
    holds, margin, lhs_norm, rhs_norm = loewner_leq(np.eye(2), 2 * np.eye(2))
    assert holds and abs(margin - 1.0) < 1e-12
    assert (lhs_norm, rhs_norm) == (1.0, 2.0)
    holds, margin, _, _ = loewner_leq(2 * np.eye(2), np.eye(2))
    assert not holds and abs(margin + 1.0) < 1e-12


def test_loewner_tolerance_is_relative():
    # disturbance of 5e-8 on a norm-100 pair sits inside 1e-9 * 100
    a = 100.0 * np.eye(3)
    b = a - 5e-8 * np.eye(3)
    holds = loewner_leq(a, b, tol=1e-9)[0]
    assert holds
    holds = loewner_leq(np.eye(3), (1 - 5e-8) * np.eye(3), tol=1e-9)[0]
    assert not holds
    # the scale is the larger norm, here the right-hand side's
    assert loewner_leq(np.diag([1.0, 0.0]), np.diag([1 - 5e-8, 100.0]), tol=1e-9)[0]
    # an infinite tolerance held 2I <= I, and nan held nothing
    for tol in (np.inf, np.nan):
        with pytest.raises(ValueError, match="tol must be a finite number >= 0"):
            loewner_leq(2 * np.eye(2), np.eye(2), tol)


def test_spectral_interval_validation():
    with pytest.raises((DomainError, ValueError)):
        SpectralInterval(2.0, 1.0)
    # an infinite end passed, and a run stopped inside numpy when it drew
    for m, M in ((1.0, np.inf), (np.inf, np.inf)):
        with pytest.raises(DomainError, match=re.escape(f"need 0 < m <= M < inf, got ({m}, {M})")):
            SpectralInterval(m, M)


def test_norms(rng):
    a = random_hermitian(rng, 6)
    # the default matrix norm, which riccati_residual uses, is Frobenius
    assert abs(np.linalg.norm(a) - np.linalg.norm(a, "fro")) < 1e-12
    assert abs(operator_norm(a) - np.linalg.norm(a, 2)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2**31 - 1))
def test_power_additivity(n, seed):
    # A^{1/2} A^{1/2} = A and A^{-1/2} A A^{-1/2} = I on random PD input
    g = np.random.default_rng(seed)
    x = g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))
    a = x @ x.conj().T + 0.1 * np.eye(n)
    ah = power(a, 0.5)
    ami = power(a, -0.5)
    np.testing.assert_allclose(ah @ ah, a, atol=1e-9 * max(1, operator_norm(a)))
    np.testing.assert_allclose(ami @ a @ ami, np.eye(n), atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=2**31 - 1))
def test_loewner_order_reflexive_and_shift(n, seed):
    g = np.random.default_rng(seed)
    a = random_hermitian(g, n, complex_=False)
    holds, margin, _, _ = loewner_leq(a, a)
    assert holds and margin >= -1e-12
    holds = loewner_leq(a, a + np.eye(n))[0]
    assert holds


def test_each_stacked_calls_once_per_dtype_with_the_bits_of_each_alone(rng):
    # stacks of 3 matrices, as the checks hold them: real and complex
    # interleaved, so the groups are not contiguous in the input
    arrays = [np.stack([random_hermitian(rng, 4, complex_=c) for _ in range(3)])
              for c in (False, True, True, False, True)]
    calls = []

    def eigvalsh(stack):
        calls.append(stack.dtype)
        return np.linalg.eigvalsh(stack)

    got = each_stacked(eigvalsh, arrays)
    assert calls == [np.float64, np.complex128]
    assert [g.tobytes() for g in got] == [np.linalg.eigvalsh(a).tobytes() for a in arrays]


def test_spectral_scope_reuses_eigh_with_the_same_bits(eigh_inputs, rng):
    a = random_hermitian(rng, 6) + 8.0 * np.eye(6)
    fresh = [power(a, p) for p in (0.5, -0.5, 3.0)] + [matrix_function(a, np.log)]
    eigh_inputs.clear()
    with spectral_scope():
        with spectral_scope():      # a nested scope shares the outer memo
            assert power(a, 0.5).tobytes() == fresh[0].tobytes()
        reused = [power(a, p) for p in (-0.5, 3.0)] + [matrix_function(a, np.log)]
        assert power(a.copy(order="F"), 0.5).tobytes() == fresh[0].tobytes()
        negative = a - 100.0 * np.eye(6)
        power(negative, 2.0)
        with pytest.raises(DomainError):    # a reused spectrum is still checked
            power(negative, -0.5)
    assert [r.tobytes() for r in reused] == [f.tobytes() for f in fresh[1:]]
    assert len(eigh_inputs) == 2
    power(a, 0.5)                    # outside a scope: decomposed again
    assert len(eigh_inputs) == 3


def _two_by_two(kind: str, rng, n: int) -> np.ndarray:
    """n real 2x2 matrices of one kind; the closed form must give each the
    bits np.linalg.eigh and eigvalsh give it."""
    a = rng.standard_normal((n, 2, 2))
    sym = (a + a.swapaxes(-1, -2)) / 2
    d, sign = a[:, 0, 0], rng.choice([-1.0, 1.0], n)
    if kind == "scaled":
        sym *= 10.0 ** rng.uniform(-100, 100, (n, 1, 1))
    elif kind == "near-diagonal":         # e/d in 1e-20..1e-12
        sym[:, 1, 0] = sym[:, 0, 1] = d * sign * 10.0 ** rng.uniform(-20, -12, n)
    elif kind == "subnormal-e":           # d near 1, e down to subnormal
        sym[:, 0, 0], sym[:, 1, 1] = 1.0 + 1e-8 * d, 1.0 + 1e-8 * a[:, 1, 1]
        sym[:, 1, 0] = sym[:, 0, 1] = sign * 10.0 ** rng.uniform(-323, -300, n)
    elif kind == "zero-diagonal":         # dsteqr's convergence test adds safmin
        sym[:, 0, 0] = np.where(sign > 0, 0.0, -0.0)
        sym[:, 1, 0] = sym[:, 0, 1] = sign * 10.0 ** rng.uniform(-320, -100, n)
    elif kind == "ties":                  # |a00| = |a11|
        sym[:, 1, 1] = d * sign
    elif kind == "small-integers":        # with signed zeros and zero matrices
        sym = rng.integers(-3, 4, (n, 2, 2)).astype(float)
        sym[rng.random((n, 2, 2)) < 0.2] = -0.0
        sym[rng.random(n) < 0.05] = 0.0
    elif kind == "not-symmetric":         # LAPACK reads a[1, 0], not a[0, 1]
        sym = a
    return sym


TWO_BY_TWO = ["normal", "scaled", "near-diagonal", "ties", "small-integers", "subnormal-e",
              "zero-diagonal", "not-symmetric"]


# 8 x 150,000 matrices: the tripwire for a numpy or LAPACK that computes
# its 2x2 spectra otherwise
@pytest.mark.parametrize("kind", TWO_BY_TWO)
def test_two_by_two_spectra_are_lapacks_bits(kind):
    a = _two_by_two(kind, np.random.default_rng(TWO_BY_TWO.index(kind)), 150_000)
    w, v = np.linalg.eigh(a)
    assert hermitian._eigvalsh(a).tobytes() == np.linalg.eigvalsh(a).tobytes()
    got = hermitian._eigh(a)
    assert (got[0].tobytes(), got[1].tobytes()) == (w.tobytes(), v.tobytes())
    one = a[17]
    assert hermitian._eigvalsh(one).tobytes() == np.linalg.eigvalsh(one).tobytes()
    assert [x.tobytes() for x in hermitian._eigh(one)] == [w[17].tobytes(), v[17].tobytes()]


# the closed form reads a00, a10 and a11 as flat arrays gathered from the
# stack, so every layout and shape of stack must keep LAPACK's bits
def _layout(name: str) -> np.ndarray:
    rng = np.random.default_rng(LAYOUTS.index(name))
    grid = _two_by_two("normal", rng, 8 * 12 * 12).reshape(8, 12, 12, 2, 2)
    skew = _two_by_two("not-symmetric", rng, 3000)
    if name == "grid":
        return grid
    if name == "fortran":
        return np.asfortranarray(grid)
    if name == "every-third":
        return skew[::3]
    if name == "transposed":
        return skew.swapaxes(-1, -2)
    mixed = grid[:6, :10, 0].copy()     # in-range and fallback matrices, interleaved
    mixed[::2, ::3] *= 1e200
    mixed[1::2, 1::4, 1, 0] = np.nan
    return mixed


LAYOUTS = ["grid", "fortran", "every-third", "transposed", "mixed"]


@pytest.mark.parametrize("layout", LAYOUTS)
def test_two_by_two_spectra_keep_lapacks_bits_in_every_layout(layout, monkeypatch):
    a = _layout(layout)
    want = [np.linalg.eigvalsh(a)] + list(np.linalg.eigh(a))
    fallback = []
    for name in ("eigh", "eigvalsh"):
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda m, _fn=fn: fallback.append(len(m)) or _fn(m))
    got = [hermitian._eigvalsh(a)] + list(hermitian._eigh(a))
    assert [g.shape for g in got] == [x.shape for x in want]
    assert [g.tobytes() for g in got] == [x.tobytes() for x in want]
    # the mixed stack sends its 12 + 9 fallback matrices to numpy.linalg, once
    # per call; the other stacks take the closed form alone
    assert fallback == ([21, 21] if layout == "mixed" else [])


def test_two_by_two_out_of_range_falls_back_to_lapack(monkeypatch):
    a = np.random.default_rng(5).standard_normal((60, 2, 2))
    a[::6] *= 1e200
    a[1::6] *= 1e-200
    a[2::6, 1, 0] = np.nan
    a[3::6, 0, 0] = np.inf
    a[4::6, 0, 1] = np.nan     # an entry LAPACK does not read
    fallback = np.arange(60) % 6 < 4
    want = [np.linalg.eigvalsh(a)] + list(np.linalg.eigh(a))
    seen = []
    for name in ("eigh", "eigvalsh"):
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda m, _fn=fn: seen.append(m.tobytes()) or _fn(m))
    got = [hermitian._eigvalsh(a)] + list(hermitian._eigh(a))
    assert [g.tobytes() for g in got] == [x.tobytes() for x in want]
    assert seen == [a[fallback].tobytes()] * 2
