"""Seeded random instances: SPD matrices with prescribed spectral intervals,
Haar unitaries, unital maps, and sandwiched pairs.

Everything draws from an explicit numpy Generator so that any instance can be
reproduced from (seed, label, index) alone.

A draw runs in two phases. The random-number phase, the methods of
``DrawBatch``, makes every rng call of the draw, in order, and returns the
draw's arrays and maps already shaped; an array whose value needs linear
algebra holds its random input until then. The linear-algebra phase,
``DrawBatch.finish``, runs that algebra for every draw of the batch at once,
one stacked call per shape and dtype, and overwrites each array with its value.
No random number depends on a linear-algebra result, and a stacked call
gives each matrix the bits it gets alone, so a draw is the same in any
batch. The functions below are a batch of one.
"""
from __future__ import annotations

import numpy as np

from .hermitian import SpectralInterval, _from_spectrum, hermitian_part, sqrtm_psd, stacks
from .maps import (KrausMap, mixture_of, pinching, require_isometry,
                   require_unitary)


def _gaussian(dim: int, rng: np.random.Generator, terms: int | None = None) -> np.ndarray:
    """The complex Gaussian matrix a Haar unitary is made from, or a stack
    of `terms` of them, in one rng call: each matrix's real part, then its
    imaginary part, the numbers a call per part would draw."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    g = rng.standard_normal((2, dim, dim) if terms is None else (terms, 2, dim, dim))
    z = np.empty(g.shape[:-3] + (dim, dim), dtype=complex)
    z.real, z.imag = g[..., 0, :, :], g[..., 1, :, :]
    return z


def _put(arrays: list, idx: list, values: np.ndarray) -> None:
    for i, v in zip(idx, values):
        arrays[i][...] = v


class DrawBatch:
    """The draws of one batch, with their linear algebra pending until
    `finish`. Each method takes the arguments of the function below that it
    serves (`spd` for `random_spd`, and so on) and makes the same rng calls;
    the arrays it returns hold their values only after `finish`. Given
    `out`, `spd` and `unitary` draw into that array (a view of a larger
    one, say) and return it."""

    def __init__(self):
        self._haar: list = []        # complex Gaussians, to become Haar unitaries
        self._spd: list = []         # Haar unitaries U, to become U diag(w) U*
        self._evals: list = []       # the w of each of _spd
        self._sandwich_a: list = []  # A of each sandwiched pair
        self._sandwich_b: list = []  # D, to become A^1/2 D A^1/2
        self._isometry: list = []    # Kraus operators of compressions, views
                                     # of the first columns of Haar unitaries
        self._unitary: list = []     # Kraus operators of mixtures, to check
        # bytes held here that the draws' own arrays do not count
        self.nbytes = 0

    def unitary(self, dim: int, rng: np.random.Generator, out=None) -> np.ndarray:
        g = _gaussian(dim, rng)
        if out is not None:
            out[...] = g
            g = out
        self._haar.append(g)
        return g

    def spd(self, dim: int, iv: SpectralInterval, rng: np.random.Generator,
            out=None) -> np.ndarray:
        if dim < 1:
            raise ValueError("dim must be >= 1")
        m, M = iv.m, iv.M
        if dim == 1:
            out = np.empty((1, 1)) if out is None else out
            out[...] = rng.uniform(m, M)
            return out
        evals = np.empty(dim)
        evals[:2] = m, M
        evals[2:] = rng.uniform(m, M, size=dim - 2)
        rng.shuffle(evals)
        a = self.unitary(dim, rng, out)
        self._spd.append(a)
        self._evals.append(evals)
        self.nbytes += evals.nbytes
        return a

    def mixture(self, dim: int, rng: np.random.Generator) -> KrausMap:
        terms = 2 + int(rng.integers(3))
        # the Gaussians are held as the rows of the map's operators
        ops = _gaussian(dim, rng, terms)
        self._haar += list(ops)
        self._unitary += list(ops)
        return mixture_of(ops, random_weights(terms, rng))

    def unital_map(self, out_dim: int, rng: np.random.Generator) -> tuple[KrausMap, int]:
        kind = int(rng.integers(3))
        if kind == 0:
            return self.mixture(out_dim, rng), out_dim
        if kind == 1:
            return random_pinching(out_dim, rng), out_dim
        n_in = out_dim + 1 + int(rng.integers(3))
        u = self.unitary(n_in, rng)
        phi = KrausMap(u[None, :, :out_dim], [1.0])
        self._isometry.append(phi.ops[0])
        self.nbytes += u.nbytes
        return phi, n_in

    def sandwiched_pair(self, dim: int, iv_a: SpectralInterval, bounds: SpectralInterval,
                        rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        a = self.spd(dim, iv_a, rng)
        d = self.spd(dim, bounds, rng)
        self._sandwich_a.append(a)
        self._sandwich_b.append(d)
        return a, d

    def finish(self) -> None:
        """The linear-algebra phase of every draw so far, in place, each step
        after the one it needs, one stacked call per group of `stacks`:
        Haar unitaries (QR with the R-diagonal phases folded into Q), which
        a compression's operator is a view of, SPD matrices, sandwiched
        pairs, and the isometry and unitarity checks of the maps. Then the
        batch lets go of the draws and takes the next ones."""
        for idx, g in stacks(self._haar):
            q, r = np.linalg.qr(g)
            d = np.diagonal(r, axis1=-2, axis2=-1)
            _put(self._haar, idx, q * (d / np.abs(d))[..., None, :])
        for idx, u in stacks(self._spd):
            _put(self._spd, idx, _from_spectrum(np.stack([self._evals[i] for i in idx]), u))
        for idx, a in stacks(self._sandwich_a):
            ah = sqrtm_psd(a)
            d = np.stack([self._sandwich_b[i] for i in idx])
            _put(self._sandwich_b, idx, hermitian_part(ah @ d @ ah))
        for _, v in stacks(self._isometry):
            require_isometry(v)
        for _, u in stacks(self._unitary):
            require_unitary(u)
        self.__init__()


def _alone(method, *args):
    """One draw as a batch of one."""
    batch = DrawBatch()
    out = method(batch, *args)
    batch.finish()
    return out


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Gaussian matrix with the
    R-diagonal phases folded into Q."""
    return _alone(DrawBatch.unitary, dim, rng)


def random_spd(dim: int, iv: SpectralInterval, rng: np.random.Generator) -> np.ndarray:
    """SPD matrix with spectrum in [m, M] and, for dim >= 2, the endpoints m
    and M hit exactly, so the sandwich m I <= A <= M I is tight."""
    return _alone(DrawBatch.spd, dim, iv, rng)


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    # normalized per draw: a stacked norm(x, axis=-1) differs from this one
    # in the last bit for about a fifth of vectors
    g = rng.standard_normal((2, dim))
    x = g[0] + 1j * g[1]
    return x / np.linalg.norm(x)


def random_weights(k: int, rng: np.random.Generator) -> np.ndarray:
    return rng.dirichlet(np.ones(k))


def random_pinching(dim: int, rng: np.random.Generator) -> KrausMap:
    perm = rng.permutation(dim)
    nblocks = 1 + int(rng.integers(dim))
    cuts = (np.sort(rng.choice(np.arange(1, dim), size=nblocks - 1, replace=False))
            if nblocks > 1 else [])
    return pinching(np.split(perm, cuts), dim)


def random_unital_map(out_dim: int, rng: np.random.Generator) -> tuple[KrausMap, int]:
    """A map with the given output dimension; for compressions the input side
    is 1 to 3 dimensions larger. Returns (map, input_dim)."""
    return _alone(DrawBatch.unital_map, out_dim, rng)


def sandwiched_pair(dim: int, iv_a: SpectralInterval, bounds: SpectralInterval,
                    rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) with lo*A <= B <= hi*A exact by construction: B = A^{1/2} D A^{1/2}
    with spectrum(D) in [lo, hi] (endpoints forced), so the ordering transports
    through the congruence."""
    return _alone(DrawBatch.sandwiched_pair, dim, iv_a, bounds, rng)


__all__ = [
    "DrawBatch", "random_unitary", "random_spd", "random_state",
    "random_weights", "random_pinching", "random_unital_map", "sandwiched_pair",
]
