"""Seeded random instances: SPD matrices with prescribed spectral intervals,
Haar unitaries, unital maps, and sandwiched pairs.

Everything draws from an explicit numpy Generator so that any instance can be
reproduced from (seed, label, index) alone.
"""
from __future__ import annotations

import numpy as np

from .hermitian import SpectralInterval, sqrtm_psd
from .maps import KrausMap, compression, pinching, unitary_mixture


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Gaussian matrix with the
    R-diagonal phases folded into Q."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def haar_isometry(dim: int, k: int, rng: np.random.Generator) -> np.ndarray:
    if not 1 <= k <= dim:
        raise ValueError(f"need 1 <= k <= dim, got k={k}, dim={dim}")
    return random_unitary(dim, rng)[:, :k]


def random_spd(dim: int, iv: SpectralInterval, rng: np.random.Generator) -> np.ndarray:
    """SPD matrix with spectrum in [m, M] and, for dim >= 2, the endpoints m
    and M hit exactly, so the sandwich m I <= A <= M I is tight."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    m, M = iv.m, iv.M
    if dim == 1:
        return np.array([[rng.uniform(m, M)]])
    evals = np.concatenate(([m, M], rng.uniform(m, M, size=dim - 2)))
    rng.shuffle(evals)
    u = random_unitary(dim, rng)
    a = (u * evals) @ u.conj().T
    return (a + a.conj().T) / 2


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return x / np.linalg.norm(x)


def random_weights(k: int, rng: np.random.Generator) -> np.ndarray:
    return rng.dirichlet(np.ones(k))


def random_mixture(dim: int, rng: np.random.Generator) -> KrausMap:
    terms = 2 + int(rng.integers(3))
    us = [random_unitary(dim, rng) for _ in range(terms)]
    return unitary_mixture(us, random_weights(terms, rng))


def random_pinching(dim: int, rng: np.random.Generator) -> KrausMap:
    perm = [int(i) for i in rng.permutation(dim)]
    nblocks = 1 + int(rng.integers(dim))
    if nblocks > 1:
        cuts = sorted(int(c) for c in
                      rng.choice(np.arange(1, dim), size=nblocks - 1, replace=False))
    else:
        cuts = []
    blocks, lo = [], 0
    for hi in cuts + [dim]:
        blocks.append(perm[lo:hi])
        lo = hi
    return pinching(blocks, dim)


def random_unital_map(out_dim: int, rng: np.random.Generator) -> tuple[KrausMap, int]:
    """A map with the given output dimension; for compressions the input side
    is 1 to 3 dimensions larger. Returns (map, input_dim)."""
    kind = int(rng.integers(3))
    if kind == 0:
        return random_mixture(out_dim, rng), out_dim
    if kind == 1:
        return random_pinching(out_dim, rng), out_dim
    n_in = out_dim + 1 + int(rng.integers(3))
    return compression(haar_isometry(n_in, out_dim, rng)), n_in


def sandwiched_pair(dim: int, iv_a: SpectralInterval, bounds: SpectralInterval,
                    rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) with lo*A <= B <= hi*A exact by construction: B = A^{1/2} D A^{1/2}
    with spectrum(D) in [lo, hi] (endpoints forced), so the ordering transports
    through the congruence."""
    a = random_spd(dim, iv_a, rng)
    d = random_spd(dim, bounds, rng)
    ah = sqrtm_psd(a)
    b = ah @ d @ ah
    return a, (b + b.conj().T) / 2


__all__ = [
    "random_unitary", "haar_isometry", "random_spd",
    "random_state", "random_weights", "random_mixture", "random_pinching",
    "random_unital_map", "sandwiched_pair",
]
