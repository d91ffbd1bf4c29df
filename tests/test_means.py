"""Geometric mean and general connections: defining identities."""
import numpy as np
import pytest

from opineq.functions import by_name, power_function
from opineq.generators import random_spd
from opineq.hermitian import (DomainError, SpectralInterval, hermitian_part, inv_psd,
                              operator_norm, power)
from opineq.means import connection, geometric_mean, riccati_residual

IV = SpectralInterval(0.5, 3.0)


def test_commuting_case_is_sqrt_of_product():
    a = np.diag([1.0, 4.0])
    b = np.diag([4.0, 1.0])
    np.testing.assert_allclose(geometric_mean(a, b), 2 * np.eye(2), atol=1e-12)


def test_scalar_case():
    a = 3.0 * np.eye(2)
    b = 12.0 * np.eye(2)
    np.testing.assert_allclose(geometric_mean(a, b), 6 * np.eye(2), atol=1e-12)


def test_riccati_residual_small(rng):
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 9))
        worst = max(worst, riccati_residual(random_spd(n, IV, rng),
                                            random_spd(n, IV, rng)))
    assert worst <= 1e-12


def test_symmetry(rng):
    for _ in range(25):
        n = int(rng.integers(2, 7))
        a, b = random_spd(n, IV, rng), random_spd(n, IV, rng)
        g, g2 = geometric_mean(a, b), geometric_mean(b, a)
        assert operator_norm(g - g2) <= 1e-10 * max(1.0, operator_norm(g))


def test_congruence_invariance(rng):
    # C (A#B) C* = (CAC*) # (CBC*) for invertible C
    for _ in range(25):
        n = int(rng.integers(2, 7))
        a, b = random_spd(n, IV, rng), random_spd(n, IV, rng)
        c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        left = c @ geometric_mean(a, b) @ c.conj().T
        right = geometric_mean(c @ a @ c.conj().T, c @ b @ c.conj().T)
        assert operator_norm(left - right) <= 1e-9 * max(1.0, operator_norm(right))


def test_connection_sqrt_is_geometric_mean(rng):
    f = by_name("t^0.5")
    for _ in range(20):
        n = int(rng.integers(2, 7))
        a, b = random_spd(n, IV, rng), random_spd(n, IV, rng)
        assert operator_norm(connection(a, b, f) - geometric_mean(a, b)) <= 1e-11


def test_connection_square_at_identity_is_inverse(rng):
    f = by_name("t^2")
    for _ in range(20):
        n = int(rng.integers(2, 7))
        a = random_spd(n, IV, rng)
        d = operator_norm(connection(a, np.eye(n), f) - inv_psd(a))
        assert d <= 1e-10 * max(1.0, operator_norm(inv_psd(a)))


def test_connection_identity_function_returns_b(rng):
    f = power_function(1.0)
    a, b = random_spd(3, IV, rng), random_spd(3, IV, rng)
    np.testing.assert_allclose(connection(a, b, f), b, atol=1e-11)


def test_rejects_indefinite_left_operand():
    with pytest.raises(ValueError):
        geometric_mean(np.diag([1.0, -1.0]), np.eye(2))


@pytest.mark.parametrize("mean,a,b,message", [
    (geometric_mean, np.diag([1.0, -1.0]), np.eye(2),
     "first operand must be positive definite, lambda_min = -1.000e+00"),
    (geometric_mean, np.eye(2), np.diag([0.0, 2.0]),
     "second operand must be positive definite, lambda_min = 0.000e+00"),
    (geometric_mean, np.diag([-2.0, -1.0]), np.diag([-1.0, 1.0]),
     "first operand must be positive definite, lambda_min = -2.000e+00"),
    (lambda a, b: connection(a, b, by_name("t^2")), np.diag([-3.0, 1.0]), np.eye(2),
     "left operand must be positive definite, lambda_min = -3.000e+00"),
], ids=["first", "second", "both", "connection"])
def test_non_positive_definite_operand_message(mean, a, b, message):
    with pytest.raises(DomainError) as info:
        mean(np.stack([np.eye(2), a]), np.stack([np.eye(2), b]))
    assert type(info.value) is DomainError and str(info.value) == message


def test_means_test_a_on_the_eigh_that_power_reuses(monkeypatch, rng):
    # only the geometric mean's second operand needs an eigvalsh of its own
    counts, eigvalsh = [], np.linalg.eigvalsh

    def counted(x, *args, **kwargs):
        counts.append(np.shape(x))
        return eigvalsh(x, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    a, b = random_spd(4, IV, rng), random_spd(4, IV, rng)
    geometric_mean(a, b)
    assert len(counts) == 1
    counts.clear()
    connection(a, b, by_name("t^2"))
    assert counts == []


def test_geometric_mean_decomposes_a_once(eigh_inputs, rng):
    a, b = random_spd(5, IV, rng), random_spd(5, IV, rng)
    ah, ami = power(a, 0.5), power(a, -0.5)
    ref = hermitian_part(ah @ power(ami @ b @ ami, 0.5) @ ah)
    eigh_inputs.clear()
    assert geometric_mean(a, b).tobytes() == ref.tobytes()
    assert eigh_inputs.count(a.tobytes()) == 1 and len(eigh_inputs) == 2
