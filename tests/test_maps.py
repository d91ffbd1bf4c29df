"""Unital positive maps and the random instance generators."""
import re

import numpy as np
import pytest

from opineq.generators import (DrawBatch, random_spd, random_state,
                               random_unital_map, random_unitary,
                               random_weights, sandwiched_pair)
from opineq.hermitian import SpectralInterval, loewner_leq
from opineq.maps import (UNITARY_FTOL, KrausMap, MapStack, compression, direct_sum,
                         identity_map, make_rotation_mixture, pinching, require_isometry,
                         require_unitary, rotation, scaled, unitary_mixture,
                         vector_state_value)

IV = SpectralInterval(1.0, 2.0)


def random_mixture(dim, rng):
    batch = DrawBatch()
    phi = batch.mixture(dim, rng)
    batch.finish()
    return phi


def kraus_identity(phi):
    """sum_j w_j K_j* K_j, which is Phi(I) for the Kraus form."""
    return sum(w * (k.conj().T @ k) for w, k in zip(phi.weights, phi.ops))


def test_identity_map():
    phi = identity_map(3)
    a = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
    np.testing.assert_allclose(phi(a), a, atol=1e-14)
    assert phi.is_unital
    np.testing.assert_allclose(kraus_identity(phi), np.eye(3), atol=0)


def test_rotation_mixture_known_image():
    # half/half mixture of rotations by pi/3 and pi/4 applied to diag(2, 1)
    phi = make_rotation_mixture(np.pi / 3, np.pi / 4)
    img = phi(np.diag([2.0, 1.0]))
    expected = np.array([[1.375, -0.46650635], [-0.46650635, 1.625]])
    np.testing.assert_allclose(img, expected, atol=1e-8)
    assert img.dtype == np.float64  # real operators keep a real input real
    assert abs(np.trace(img) - 3.0) < 1e-12  # unitary mixtures preserve trace


def test_rotation_matrix():
    r = rotation(np.pi / 2)
    np.testing.assert_allclose(r, [[0.0, -1.0], [1.0, 0.0]], atol=1e-15)


def test_mixture_rejects_non_unitary():
    with pytest.raises(ValueError):
        unitary_mixture([np.array([[1.0, 0.0], [1.0, 1.0]])], [1.0])


def first_defect(v):
    """||V*V - I||_F of the first matrix of the stack above UNITARY_FTOL, or
    None, by a loop over the matrices."""
    for m in np.reshape(v, (-1,) + v.shape[-2:]):
        dev = float(np.linalg.norm(m.conj().T @ m - np.eye(m.shape[-1])))
        if dev > UNITARY_FTOL:
            return dev
    return None


def rotation_stack(scale_at=()):
    """A (3, 4, 2, 2, 2) stack of rotations, the matrices at `scale_at`
    multiplied by (index key, factor) pairs."""
    ops = rotation(np.linspace(0.0, 3.0, 24).reshape(3, 4, 2))
    for key, factor in scale_at:
        ops[key] = factor * ops[key]
    return ops


@pytest.mark.parametrize("stack", [
    rotation_stack(),
    rotation_stack([((0, 1, 0), 1.0 + 1e-13)]),
    rotation_stack([((0, 2, 1), np.nan), ((1, 2, 0), 2.0), ((2, 0, 1), 3.0)]),
    rotation_stack([((0, 0, 0), 1.0 + 1e-9), ((0, 0, 1), 2.0)]),
    rotation_stack([((k, j, i), np.nan) for k in range(3) for j in range(4) for i in range(2)]),
    2.0 * np.eye(3),
    np.eye(3) + 1j * 1e-14,
], ids=["unitary", "below-ftol", "nan-then-bad", "first-of-two", "all-nan", "single", "complex"])
def test_stacked_unitarity_check_raises_for_the_first_bad_matrix(stack):
    dev = first_defect(stack)
    if dev is None:
        require_unitary(stack)
        return
    with pytest.raises(ValueError, match=re.escape(f"not unitary: ||U*U - I||_F = {dev:.3e}")):
        require_unitary(stack)
    with pytest.raises(ValueError, match=re.escape(f"not an isometry: ||V*V - I||_F = {dev:.3e}")):
        require_isometry(stack)


def test_mixture_rejects_bad_weights():
    u = np.eye(2)
    with pytest.raises(ValueError):
        unitary_mixture([u, u], [0.7, 0.7])
    with pytest.raises(ValueError):
        unitary_mixture([u, u], [1.2, -0.2])


def test_pinching_idempotent_and_unital():
    phi = pinching([[0, 2], [1, 3]], 4)
    assert phi.is_unital
    np.testing.assert_allclose(kraus_identity(phi), np.eye(4), atol=0)
    a = np.arange(16.0).reshape(4, 4)
    a = (a + a.T) / 2
    once = phi(a)
    np.testing.assert_allclose(phi(once), once, atol=1e-14)
    # off-block entries are gone
    assert once[0, 1] == 0.0 and once[2, 3] == 0.0


def test_pinching_blocks_must_partition():
    with pytest.raises(ValueError):
        pinching([[0, 1], [1, 2]], 3)
    with pytest.raises(ValueError):
        pinching([[0]], 2)


def test_compression_dims_and_unitality(rng):
    v = random_unitary(5, rng)[:, :3]
    phi = compression(v)
    assert phi.input_dim == 5 and phi.output_dim == 3
    assert phi.is_unital
    np.testing.assert_allclose(kraus_identity(phi), np.eye(3), atol=1e-14)
    image = phi(random_spd(5, IV, rng))
    assert loewner_leq(np.zeros_like(image), image, 1e-12)[0]


def test_direct_sum_weights_must_sum_to_identity(rng):
    parts = [scaled(0.25, 2), scaled(0.75, 2)]
    assert not parts[0].is_unital
    phi = direct_sum(parts)
    assert phi.is_unital
    np.testing.assert_allclose(kraus_identity(phi), np.eye(2), atol=0)
    # block i only sees the i-th diagonal block of its input
    x = np.diag([1.0, 2.0, 3.0, 4.0])
    np.testing.assert_allclose(phi(x), np.diag([2.5, 3.5]), atol=1e-15)
    with pytest.raises(ValueError):
        direct_sum([scaled(0.25, 2), scaled(0.25, 2)])


def test_direct_sum_of_one_map_is_that_map(rng):
    # the tuple row's k = 1 record holds the drawn map in place of this sum
    for _ in range(12):
        phi = random_unital_map(int(rng.integers(1, 6)), rng)[0]
        one = direct_sum([phi])
        for got, want in ((one.ops, phi.ops), (one.weights, phi.weights)):
            assert (got.shape, got.dtype, got.tobytes()) == (want.shape, want.dtype, want.tobytes())


def test_factories_reject_bad_input():
    with pytest.raises(ValueError):
        compression(np.eye(4)[:2, :])          # wide, not n x k with k <= n
    with pytest.raises(ValueError):
        compression(2.0 * np.eye(4)[:, :2])    # not an isometry
    with pytest.raises(ValueError):
        scaled(0.0, 2)
    with pytest.raises(ValueError):
        direct_sum([])
    with pytest.raises(ValueError):
        direct_sum([scaled(0.5, 2), scaled(0.5, 3)])  # output dims differ


def test_batched_apply_matches_term_loop(rng):
    # reference: the symmetrized per-term loop (sum_j w_j K_j* X K_j, added
    # in term order), and for pinchings the block copy; phi(x) must agree
    # bit for bit
    for _ in range(30):
        phi, in_dim = random_unital_map(int(rng.integers(2, 7)), rng)
        x = random_spd(in_dim, IV, rng)
        assert phi(x).tobytes() == _kraus_loop(phi, x).tobytes()
    blocks = [[0, 3], [1], [2, 4]]
    x = random_spd(5, IV, rng)
    ref = np.zeros_like(x)
    for b in blocks:
        ref[np.ix_(b, b)] = x[np.ix_(b, b)]
    np.testing.assert_array_equal(pinching(blocks, 5)(x), ref)


def test_positivity_preserved(rng):
    for _ in range(30):
        phi, in_dim = random_unital_map(int(rng.integers(2, 6)), rng)
        a = random_spd(in_dim, SpectralInterval(0.5, 3.0), rng)
        image = phi(a)
        assert loewner_leq(np.zeros_like(image), image, 1e-10)[0]


def test_unitality_across_generator(rng):
    for _ in range(50):
        phi, in_dim = random_unital_map(int(rng.integers(2, 7)), rng)
        assert phi.is_unital
        np.testing.assert_allclose(kraus_identity(phi), np.eye(phi.output_dim),
                                   atol=1e-12)
        np.testing.assert_allclose(phi(np.eye(in_dim)), np.eye(phi.output_dim),
                                   atol=1e-12)


def test_unit_vector_and_state_value():
    x = np.array([0.6, 0.8])
    t = np.diag([1.0, 2.0])
    val = vector_state_value(x, t)
    assert abs(val - (9 / 25 * 1 + 16 / 25 * 2)) < 1e-12
    with pytest.raises(ValueError):
        vector_state_value(np.array([1.0, 1.0]), t)  # not unit norm


def test_random_unitary_is_unitary(rng):
    for n in (2, 4, 7):
        u = random_unitary(n, rng)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(n), atol=1e-11)


def test_haar_first_entry_moment(rng):
    # E |U_11|^2 = 1/n for Haar; dim 4, 10^4 draws, generous band
    n, draws = 4, 10_000
    acc = 0.0
    for _ in range(draws):
        u = random_unitary(n, rng)
        acc += abs(u[0, 0]) ** 2
    assert abs(acc / draws - 1.0 / n) < 0.02


def test_random_spd_spectrum(rng):
    iv = SpectralInterval(1.0, 4.0)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        w = np.linalg.eigvalsh(random_spd(n, iv, rng))
        assert w[0] >= iv.m - 1e-10 and w[-1] <= iv.M + 1e-10
        # endpoints are forced, so constants computed from iv are tight
        assert abs(w[0] - iv.m) < 1e-10 and abs(w[-1] - iv.M) < 1e-10


def test_random_spd_dim_one(rng):
    a = random_spd(1, IV, rng)
    assert a.shape == (1, 1) and IV.m <= a[0, 0] <= IV.M


def test_random_state_and_weights(rng):
    x = random_state(5, rng)
    assert abs(np.linalg.norm(x) - 1.0) < 1e-12
    w = random_weights(4, rng)
    assert w.shape == (4,) and abs(w.sum() - 1.0) < 1e-12 and (w > 0).all()


def test_sandwiched_pair_obeys_sandwich(rng):
    iv_a = SpectralInterval(1.0, 2.0)
    bounds = SpectralInterval(0.8, 1.5)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        a, b = sandwiched_pair(n, iv_a, bounds, rng)
        assert loewner_leq(bounds.m * a, b, tol=1e-10)[0]
        assert loewner_leq(b, bounds.M * a, tol=1e-10)[0]


def _kraus_loop(phi, x):
    """(Phi(X) + Phi(X)*)/2 from the Kraus sum, one term at a time."""
    terms = [w * (k.conj().T @ x @ k) for w, k in zip(phi.weights, phi.ops)]
    out = terms[0]
    for t in terms[1:]:
        out = out + t
    return (out + out.conj().T) / 2


def _random_blocks(n, rng):
    perm = [int(i) for i in rng.permutation(n)]
    cuts = sorted(int(c) for c in rng.choice(np.arange(1, n), size=int(rng.integers(n)),
                                             replace=False))
    return [perm[lo:hi] for lo, hi in zip([0] + cuts, cuts + [n]) if hi > lo]


def _masked_groups(stack):
    return [mask is not None for _, mask, *_ in stack._groups]


@pytest.mark.parametrize("n", range(1, 33))
def test_pinchings_apply_as_masked_copy_bit_for_bit(n, rng):
    phis = [pinching(_random_blocks(n, rng), n) for _ in range(3)] + [identity_map(n)]
    stack = MapStack(phis)
    assert all(_masked_groups(stack))
    for x in (rng.standard_normal((4, n, n)),                                # real
              rng.standard_normal((4, n, n)) + 1j * rng.standard_normal((4, n, n)),
              np.stack([random_spd(n, IV, rng) for _ in range(4)])):         # Hermitian
        ref = np.stack([_kraus_loop(phi, xi) for phi, xi in zip(phis, x)])
        assert stack(x).tobytes() == ref.tobytes()


def test_pinchings_of_every_block_count_map_as_one_masked_copy(rng):
    n = 6
    phis = [pinching(blocks, n) for blocks in (
        [[0], [1, 2], [3, 4, 5]], [list(range(n))], [[0, 3], [1, 2, 4, 5]],
        [[i] for i in range(n)], [[5, 1], [0, 2, 3, 4]])]
    assert len({len(phi.ops) for phi in phis}) == 4
    stack = MapStack(phis)
    assert _masked_groups(stack) == [True]
    for x in (np.stack([random_spd(n, IV, rng) for _ in phis]),
              rng.standard_normal((len(phis), n, n))):                     # real
        ref = np.stack([_kraus_loop(phi, xi) for phi, xi in zip(phis, x)])
        assert stack(x).tobytes() == ref.tobytes()


def test_integer_operators_map_to_the_weighted_float_image():
    # the weights are floats, so the image is too, whatever the dtype of
    # the operators and the input; an integer image truncated 0.5 X to I
    phi = KrausMap([np.eye(2, dtype=int)], [0.5])
    np.testing.assert_array_equal(phi(np.array([[3, 1], [1, 3]])), [[1.5, 0.5], [0.5, 1.5]])


def test_a_pinching_alone_is_its_map_stack_of_one(rng):
    # an infinite entry outside the blocks tells the masked copy (0 there)
    # from the Kraus sum (0 * inf = nan there)
    phi = pinching([[0, 3], [1], [2, 4]], 5)
    beyond = random_spd(5, IV, rng)
    beyond[0, 1] = beyond[1, 0] = np.inf
    for x in (random_spd(5, IV, rng), rng.standard_normal((3, 5, 5)),
              rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)), beyond):
        stacked = MapStack([phi])(x[..., None, :, :])[..., 0, :, :]
        assert phi(x).dtype == stacked.dtype
        assert phi(x).tobytes() == stacked.tobytes()


def test_map_stack_mixing_pinchings_with_other_maps(rng):
    n = 6
    phis = [pinching([[0, 3], [1, 2, 4, 5]], n), random_mixture(n, rng),
            pinching([[0], [1, 2], [3, 4, 5]], n), compression(random_unitary(n, rng)),
            identity_map(n), pinching([[5, 1], [0, 2, 3, 4]], n),
            unitary_mixture([random_unitary(n, rng) for _ in range(3)], [0.2, 0.3, 0.5]),
            pinching([[i] for i in range(n)], n)]
    stack = MapStack(phis)
    assert True in _masked_groups(stack) and False in _masked_groups(stack)
    x = np.stack([random_spd(n, IV, rng) for _ in phis])
    ref = np.stack([_kraus_loop(phi, xi) for phi, xi in zip(phis, x)])
    assert stack(x).tobytes() == ref.tobytes()


@pytest.mark.parametrize("phi", [
    scaled(0.5, 4),                                           # weight != 1
    direct_sum([scaled(0.5, 2), scaled(0.5, 2)]),             # rectangular embeddings
    direct_sum([KrausMap([np.diag([1.0, 0.0])], [1.0]),       # weight 1, 0/1,
                KrausMap([np.diag([0.0, 1.0])], [1.0])]),     # rectangular
    KrausMap([np.diag([1.0, 0.0, 1.0, 1.0])], [1.0]),         # does not sum to I
    KrausMap([np.eye(4), np.diag([1.0, 0.0, 0.0, 0.0])], [1.0, 1.0]),   # overlap
    KrausMap([np.eye(4)[[1, 0, 2, 3]]], [1.0]),               # 0/1, not diagonal
    KrausMap([2.0 * np.eye(4)], [0.25]),                      # diagonal, not 0/1
], ids=["scaled", "direct-sum-scaled", "direct-sum-weight-1", "partial-projector",
        "overlapping-projectors", "permutation", "scaled-operator"])
def test_other_zero_one_maps_take_the_kraus_path(phi, rng):
    stack = MapStack([phi, phi])
    assert not any(_masked_groups(stack))
    x = np.stack([random_spd(phi.input_dim, IV, rng) for _ in range(2)])
    ref = np.stack([_kraus_loop(phi, xi) for xi in x])
    assert stack(x).tobytes() == ref.tobytes()


def test_a_stack_of_stacks_maps_as_separate_calls(rng):
    # mixture, pinching and compression groups in one stack; (3, b, n, n)
    # in one call gives each of the three stacks the bits it gets alone
    n = 5
    phis = [random_mixture(n, rng), pinching([[0, 3], [1, 2, 4]], n),
            compression(random_unitary(n, rng)), pinching([[i] for i in range(n)], n),
            unitary_mixture([random_unitary(n, rng) for _ in range(2)], [0.4, 0.6])]
    stack = MapStack(phis)
    assert True in _masked_groups(stack) and False in _masked_groups(stack)
    for x in (np.stack([[random_spd(n, IV, rng) for _ in phis] for _ in range(3)]),
              rng.standard_normal((3, len(phis), n, n))):                    # real
        got = stack(x)
        assert got.shape == x.shape and got.dtype == stack(x[0]).dtype
        assert got.tobytes() == np.stack([stack(xi) for xi in x]).tobytes()
        assert stack(x[None]).tobytes() == got[None].tobytes()
    with pytest.raises(ValueError, match="map stack expects"):
        stack(x[:, :-1])
