"""The two-phase generators against per-matrix reference code, bit for bit.

The reference functions below are the per-matrix generators as they were
before the draws were split into a random-number phase and a stacked
linear-algebra phase: one QR per unitary with its phase fix,
(U * evals) @ U* symmetrized per SPD matrix, and per pair the eigh square
root of A and A^1/2 D A^1/2. Each generator must return the same arrays,
Kraus operators and weights, bit for bit, and leave its stream in the same
state.
"""
import json

import numpy as np
import pytest

from opineq import checks, generators, registry
from opineq.generators import (DrawBatch, random_spd, random_unital_map,
                               random_unitary, sandwiched_pair)
from opineq.hermitian import SpectralInterval
from opineq.io import map_to_json
from opineq.maps import KrausMap, _pinching, direct_sum, pinching
from opineq.rng import stream
from opineq.suite import run_suite

from conftest import run_trials

DIMS = range(1, 13)
IV = SpectralInterval(0.5, 3.0)
BOUNDS = SpectralInterval(0.25, 9.0)


def ref_unitary(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def ref_spd(dim, iv, rng):
    m, M = iv.m, iv.M
    if dim == 1:
        return np.array([[rng.uniform(m, M)]])
    evals = np.concatenate(([m, M], rng.uniform(m, M, size=dim - 2)))
    rng.shuffle(evals)
    u = ref_unitary(dim, rng)
    a = (u * evals) @ u.conj().T
    return (a + a.conj().T) / 2


def ref_mixture(dim, rng):
    terms = 2 + int(rng.integers(3))
    us = [ref_unitary(dim, rng) for _ in range(terms)]
    return np.array(us), rng.dirichlet(np.ones(terms))


def ref_blocks(dim, rng):
    perm = [int(i) for i in rng.permutation(dim)]
    nblocks = 1 + int(rng.integers(dim))
    cuts = []
    if nblocks > 1:
        cuts = sorted(int(c) for c in
                      rng.choice(np.arange(1, dim), size=nblocks - 1, replace=False))
    return [perm[lo:hi] for lo, hi in zip([0] + cuts, cuts + [dim])]


def ref_pinching_of(blocks, dim):
    ops = np.zeros((len(blocks), dim, dim))
    for p, b in zip(ops, blocks):
        p[b, b] = 1.0
    return ops, np.ones(len(blocks))


def ref_pinching(dim, rng):
    return ref_pinching_of(ref_blocks(dim, rng), dim)


def ref_mask(blocks, dim):
    """True where row and column share a block."""
    return np.array([[any(i in b and j in b for b in blocks) for j in range(dim)]
                     for i in range(dim)])


def ref_unital_map(out_dim, rng):
    """(kind, (ops, weights), input dim)."""
    kind = int(rng.integers(3))
    if kind == 0:
        return kind, ref_mixture(out_dim, rng), out_dim
    if kind == 1:
        return kind, ref_pinching(out_dim, rng), out_dim
    n_in = out_dim + 1 + int(rng.integers(3))
    v = ref_unitary(n_in, rng)[:, :out_dim]
    return kind, (np.array([v]), np.array([1.0])), n_in


def ref_sandwiched_pair(dim, iv_a, bounds, rng):
    a = ref_spd(dim, iv_a, rng)
    d = ref_spd(dim, bounds, rng)
    w, v = np.linalg.eigh(a)
    ah = (v * w ** 0.5) @ v.conj().T
    ah = (ah + ah.conj().T) / 2
    b = ah @ d @ ah
    return a, (b + b.conj().T) / 2


def assert_same_bits(got, want):
    __tracebackhide__ = True
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


def state(rng):
    return json.dumps(rng.bit_generator.state, sort_keys=True,
                      default=lambda a: a.tolist())


def streams(label, i):
    """Two copies of one stream: for the generator and for the reference."""
    return stream(3, label, i), stream(3, label, i)


def assert_same_map(phi, ref):
    __tracebackhide__ = True
    assert_same_bits(phi.ops, ref[0])
    assert_same_bits(phi.weights, ref[1])


@pytest.mark.parametrize("dim", DIMS)
def test_unitary_isometry_and_spd_match_reference(dim):
    for i in range(3):
        rng, ref = streams("unitary", 100 * dim + i)
        assert_same_bits(random_unitary(dim, rng), ref_unitary(dim, ref))
        assert state(rng) == state(ref)
        k = 1 + i % dim
        assert_same_bits(random_unitary(dim, rng)[:, :k], ref_unitary(dim, ref)[:, :k])
        assert state(rng) == state(ref)
        assert_same_bits(random_spd(dim, IV, rng), ref_spd(dim, IV, ref))
        assert state(rng) == state(ref)


@pytest.mark.parametrize("dim", DIMS)
def test_sandwiched_pair_matches_reference(dim):
    for i in range(3):
        rng, ref = streams("pair", 100 * dim + i)
        for got, want in zip(sandwiched_pair(dim, IV, BOUNDS, rng),
                             ref_sandwiched_pair(dim, IV, BOUNDS, ref)):
            assert_same_bits(got, want)
        assert state(rng) == state(ref)


@pytest.mark.parametrize("dim", [d for d in DIMS if d >= 2])
def test_unital_maps_match_reference(dim):
    kinds = set()
    for i in range(40):
        rng, ref = streams("map", 100 * dim + i)
        phi, n_in = random_unital_map(dim, rng)
        kind, want, ref_n_in = ref_unital_map(dim, ref)
        assert n_in == ref_n_in
        assert_same_map(phi, want)
        assert state(rng) == state(ref)
        kinds.add(kind)
        rng, ref = streams("mixture", 100 * dim + i)
        batch = DrawBatch()
        phi = batch.mixture(dim, rng)
        batch.finish()
        assert_same_map(phi, ref_mixture(dim, ref))
        assert state(rng) == state(ref)
    assert kinds == {0, 1, 2}


@pytest.mark.parametrize("dim", DIMS)
def test_drawn_pinching_masks_match_reference_blocks(dim):
    # the mask a MapStack applies, built from the drawn block-index vector
    for i in range(40):
        rng, ref = streams("pinching", 100 * dim + i)
        phi = generators.random_pinching(dim, rng)
        blocks = ref_blocks(dim, ref)
        assert state(rng) == state(ref)
        assert_same_map(phi, ref_pinching_of(blocks, dim))
        assert_same_bits(phi.mask, ref_mask(blocks, dim))


@pytest.mark.parametrize("blocks", [
    [[2, 0], [3], [1]], [[0], [1], [2], [3]], [[0, 1, 2, 3]], [[3, 1], [0, 2]],
    [[1, 3, 0], [2]]], ids=["out-of-order", "singletons", "one-block", "two-pairs",
                            "unsorted-block"])
def test_pinching_of_written_blocks_matches_reference(blocks):
    phi = pinching(blocks, 4)
    assert_same_map(phi, ref_pinching_of(blocks, 4))
    assert_same_bits(phi.mask, ref_mask(blocks, 4))


def eager_pinching(of, nblocks):
    """The pinching as built before its projectors were left until read:
    the stack from its block index, at once."""
    dim = len(of)
    ops = np.zeros((nblocks, dim, dim))
    diag = np.arange(dim)
    ops[of, diag, diag] = 1.0
    return KrausMap(ops, np.ones(nblocks))


@pytest.mark.parametrize("dim", DIMS)
def test_pinching_operators_on_demand_match_the_eager_stack(dim):
    # each reader of the operators gets a fresh map, which builds them
    for i in range(20):
        drawn = generators.random_pinching(dim, stream(3, "on demand", 100 * dim + i))
        assert "ops" not in vars(drawn)
        ref = eager_pinching(drawn.of, len(drawn.weights))
        fresh = lambda: _pinching(drawn.of, len(drawn.weights))
        assert_same_bits(fresh().ops, ref.ops)
        assert map_to_json(fresh()) == map_to_json(ref)
        assert fresh().unital_defect() == ref.unital_defect()
        summed, ref_summed = direct_sum([fresh()]), direct_sum([ref])
        assert_same_map(summed, (ref_summed.ops, ref_summed.weights))


@pytest.mark.parametrize("name", ["kantorovich", "tuple_minkowski"])
def test_drawn_pinchings_never_build_their_operators(name, monkeypatch):
    drawn, draw = [], generators.random_pinching
    monkeypatch.setattr(generators, "random_pinching",
                        lambda dim, rng: drawn.append(draw(dim, rng)) or drawn[-1])
    run_trials(registry.get(name), [stream(17, name, t) for t in range(50)], 1e-9,
               registry.DEFAULT_DIMS, registry.DEFAULT_INTERVALS)
    assert drawn
    assert not any("ops" in vars(phi) for phi in drawn)


def test_budget_counts_a_pinching_by_its_mask():
    spec, batch, seen = registry.get("kantorovich"), DrawBatch(), 0
    for t in range(50):
        record = spec.draw(stream(17, "kantorovich", t), 1e-9, registry.DEFAULT_DIMS,
                           registry.DEFAULT_INTERVALS, batch)
        if record["phi"].mask is not None:
            seen += 1
            assert checks._nbytes(record) == record["a"].nbytes + record["phi"].mask.nbytes
    batch.finish()
    assert seen


def test_budget_counts_a_compressions_row_once():
    # the record counts the row's first out_dim columns, its operator, and
    # A's row; the batch counts the other columns and the spectrum
    spec, seen = registry.get("kantorovich"), 0
    for t in range(50):
        batch = DrawBatch()
        record = spec.draw(stream(19, "kantorovich", t), 1e-9, registry.DEFAULT_DIMS,
                           registry.DEFAULT_INTERVALS, batch)
        n = record["phi"].input_dim
        if n > record["phi"].output_dim:
            seen += 1
            row, spectrum = 16 * n * n, 8 * n      # complex128 row, float64 spectrum
            assert batch.nbytes + checks._nbytes(record) == row + record["a"].nbytes + spectrum
        batch.finish()
    assert seen


def owner(a):
    """The array whose memory `a` is, or views."""
    while a.base is not None:
        a = a.base
    return a


@pytest.mark.parametrize("dim", [2, 3, 5, 8, 13, 16])
def test_each_draw_owns_only_its_own_rows(dim):
    # a held record keeps alive only the rows its draw call made: one for an
    # SPD matrix, a unitary and a compression, one per term for a mixture
    batch, compressions = DrawBatch(), 0
    for i in range(40):
        rng = stream(3, "own rows", 100 * dim + i)
        drawn = [(batch.spd(dim, IV, rng), 1), (batch.unitary(dim, rng), 1)]
        mixture = batch.mixture(dim, rng)
        drawn.append((mixture.ops, len(mixture.weights)))
        phi, n_in = batch.unital_map(dim, rng)
        if n_in > dim:
            compressions += 1
            drawn.append((phi.ops, 1))
        for a, rows in drawn:
            n = a.shape[-2]
            assert owner(a).shape == (rows, n, n)
    batch.finish()
    assert compressions


@pytest.mark.parametrize("i", range(5))
def test_scalar_sandwiched_pair_is_finished_when_drawn(i):
    # at dim 1 no algebra is pending, so the congruence is applied at once
    rng, ref = streams("scalar pair", i)
    batch = DrawBatch()
    pair = batch.sandwiched_pair(1, IV, BOUNDS, rng)
    for got, want in zip(pair, sandwiched_pair(1, IV, BOUNDS, ref)):
        assert_same_bits(got, want)
    assert state(rng) == state(ref)


def test_compression_rows_are_checked_past_their_operator(monkeypatch):
    # a defect in a column past out_dim, which the compression's operator
    # does not view, is still a row that is not unitary
    qr, batches = np.linalg.qr, []
    for i in range(30):
        batch = DrawBatch()
        if batch.unital_map(4, stream(3, "planted", i))[1] > 4:
            batches.append(batch)

    def planted_qr(a, *args, **kwargs):
        q, r = qr(a, *args, **kwargs)
        q[..., -1] *= 2
        return q, r

    monkeypatch.setattr(np.linalg, "qr", planted_qr)
    assert batches
    for batch in batches:
        with pytest.raises(ValueError, match="not unitary"):
            batch.finish()


def test_one_flush_of_mixed_draws_matches_reference():
    # unitaries, SPD matrices, mixtures, maps of all three kinds and
    # sandwiched pairs of dims 2-11 share one linear-algebra phase, so
    # their matrices meet in the same stacked calls
    batch, pending, kinds = DrawBatch(), [], set()
    for i in range(120):
        dim = 2 + i % 10
        rng, ref = streams("flush", i)
        shape = i % 5
        if shape == 0:
            pending.append((batch.unitary(dim, rng), ref_unitary(dim, ref)))
        elif shape == 1:
            pending.append((batch.spd(dim, IV, rng), ref_spd(dim, IV, ref)))
        elif shape == 2:
            phi = batch.mixture(dim, rng)
            ops, weights = ref_mixture(dim, ref)
            pending += [(phi.ops, ops), (phi.weights, weights)]
        elif shape == 3:
            phi, n_in = batch.unital_map(dim, rng)
            kind, (ops, weights), ref_n_in = ref_unital_map(dim, ref)
            assert n_in == ref_n_in
            pending += [(phi.ops, ops), (phi.weights, weights)]
            kinds.add(kind)
        else:
            pending += zip(batch.sandwiched_pair(dim, IV, BOUNDS, rng),
                           ref_sandwiched_pair(dim, IV, BOUNDS, ref))
        assert state(rng) == state(ref)
    batch.finish()
    assert kinds == {0, 1, 2}
    for got, want in pending:
        assert_same_bits(got, want)


def test_blocks_drawn_in_place_equal_blocks_drawn_alone():
    # SPD blocks drawn into the slots of one block-diagonal matrix get the
    # bits of the same blocks drawn alone and assembled afterwards; the
    # batch holds each pending block's slot as a view of its matrix
    batch, pending = DrawBatch(), []
    for i in range(30):
        rng, ref = stream(3, "blocks", i), stream(3, "blocks", i)
        sizes = [1 + i % 4] * (1 if i % 2 else 3)
        n = sum(sizes)
        a = np.zeros((n, n), dtype=float if max(sizes) == 1 else complex)
        want, lo = np.zeros_like(a), 0
        for size in sizes:
            block = batch.spd(size, IV, rng, out=a[lo:lo + size, lo:lo + size])
            assert np.shares_memory(block, a)
            want[lo:lo + size, lo:lo + size] = random_spd(size, IV, ref)
            lo += size
        assert state(rng) == state(ref)
        pending.append((a, want))
    blocks = [out for buf in batch._pending.values() for _, out in buf.slots]
    assert blocks and all(any(np.shares_memory(x, a) for a, _ in pending) for x in blocks)
    batch.finish()
    for a, want in pending:
        assert_same_bits(a, want)


def test_draws_run_one_qr_per_matrix_size_per_flush(monkeypatch):
    # 200 kantorovich trials at dims 2-8 draw unitaries of sizes 2-11 (a
    # compression's input side is up to 3 larger) and fit in two flushes;
    # QR per matrix, as the generators once ran it, made 469 calls
    calls, flushes = [], []
    qr, finish = np.linalg.qr, DrawBatch.finish

    def counted_qr(a, *args, **kwargs):
        calls[-1].append(a.shape[-2:])
        return qr(a, *args, **kwargs)

    def counted_finish(self):
        calls.append([])
        finish(self)

    monkeypatch.setattr(np.linalg, "qr", counted_qr)
    monkeypatch.setattr(DrawBatch, "finish", counted_finish)
    report = run_suite(seed=42, trials=200, dims=registry.DEFAULT_DIMS,
                       names=["kantorovich"], timestamp=False)
    assert report.ok
    for shapes in calls:
        assert len(shapes) == len(set(shapes))
    assert 0 < sum(map(len, calls)) <= 20


def two_draw_gaussian(dim, rng):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def two_draw_state(dim, rng):
    x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return x / np.linalg.norm(x)


def one_draw_gaussians(dim, rng, terms):
    """Gaussians as a DrawBatch holds them: drawn into their pending rows in
    one rng call, then assembled as `finish` assembles them."""
    pending = generators._Pending(dim)
    pending.draw(terms, rng)
    return pending.gaussians()


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 8, 11, 32])
def test_one_draw_gaussian_and_state_equal_two_draws(dim):
    # one standard_normal((2, ...)) call: the real parts, then the imaginary;
    # (terms, 2, ...) for a stack of Gaussians
    for seed in range(40):
        got, ref = stream(seed, "one-draw"), stream(seed, "one-draw")
        assert one_draw_gaussians(dim, got, 1)[0].tobytes() == two_draw_gaussian(dim, ref).tobytes()
        assert generators.random_state(dim, got).tobytes() == two_draw_state(dim, ref).tobytes()
        assert (one_draw_gaussians(dim, got, 3).tobytes()     # a mixture's terms
                == np.stack([two_draw_gaussian(dim, ref) for _ in range(3)]).tobytes())
        assert got.random() == ref.random()     # the stream is left at the same place
