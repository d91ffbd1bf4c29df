"""Seeded random instances: SPD matrices with prescribed spectral intervals,
Haar unitaries, unital maps, and sandwiched pairs.

Everything draws from an explicit numpy Generator so that any instance can be
reproduced from (seed, label, index) alone.

A draw runs in two phases. The random-number phase, the methods of
``DrawBatch``, makes every rng call of the draw, in order, and returns the
draw's arrays and maps already shaped; an array whose value needs linear
algebra holds its random input until then. The complex Gaussians a Haar
draw is made from are drawn straight into the draw's own rows, one complex
array per draw: the real block, then the imaginary block, in each row's own
floats. The linear-algebra phase, ``DrawBatch.finish``, runs each step as
one stacked call per matrix size, on the rows ``hermitian.stacks`` groups,
and writes each result back into its row, in place. A 1x1 sandwiched pair,
which no algebra waits on, is finished as it is drawn. A pinching is built
from one block-index vector.
No random number depends on a linear-algebra result, and a stacked call
gives each matrix the bits it gets alone, so a draw is the same in any
batch. The functions below are a batch of one.
"""
from __future__ import annotations

import numpy as np

from .hermitian import SpectralInterval, _from_spectrum, hermitian_part, sqrtm_psd, stacks
from .maps import KrausMap, _pinching, mixture_of, require_unitary


def _sandwich(d: np.ndarray, a: np.ndarray) -> np.ndarray:
    """A^1/2 D A^1/2 for each pair of the stacks d and a."""
    ah = sqrtm_psd(a)
    return hermitian_part(ah @ d @ ah)


def _gaussians(rows: np.ndarray) -> np.ndarray:
    """The complex Gaussians drawn into a stack of rows, assembled into
    complex matrices: each row's 2n^2 floats hold the real block, then the
    imaginary block."""
    k, n = rows.shape[:2]
    halves = rows.view(float).reshape(k, 2, n, n)
    g = np.empty_like(rows)
    g.real, g.imag = halves[:, 0], halves[:, 1]
    return g


def _haar(rows: np.ndarray) -> np.ndarray:
    """The Haar unitaries of a stack of drawn rows: the QR of their
    Gaussians with the R-diagonal phases folded into Q."""
    u, r = np.linalg.qr(_gaussians(rows))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    u *= (d / np.abs(d))[..., None, :]
    return u


def _overwrite(rows: list, fn, *operands: list) -> None:
    """Each of `rows` overwritten in place with its value of fn, one call
    per group of `stacks` (one matrix size): fn takes the group's rows,
    then each of `operands` (lists beside `rows`), stacked."""
    for idx, stack in stacks(rows):
        values = fn(stack, *(np.array([o[j] for j in idx]) for o in operands))
        for i, v in zip(idx, values):
            rows[i][...] = v


class DrawBatch:
    """The draws of one batch, with their linear algebra pending until
    `finish`. Each method takes the arguments of the function below that it
    serves (`spd` for `random_spd`, and so on) and makes the same rng calls;
    the arrays it returns hold their values only after `finish`, except a
    1x1 sandwiched pair, returned finished. A Haar draw's matrix is a view
    of the one row its call drew, a mixture's Kraus operators the rows of
    one call, a compression's operator the first columns of its row; the
    batch holds only views of those rows, so a held record keeps only its
    own rows alive. Given `out` (a slot of a larger array, say), `spd`
    returns it, and `finish` copies the finished row into it."""

    def __init__(self):
        self._rows: list = []        # every row drawn, to become a Haar unitary
        self._spd: list = []         # rows U, to become U diag(w) U*
        self._spectra: list = []     # the w of each of _spd
        self._slots: list = []       # (spd row, the array it is copied into)
        self._pairs: list = []       # (A, D) rows, D to become A^1/2 D A^1/2
        self._unitaries: list = []   # rows of mixtures and compressions, to check
        # bytes held here that the draws' own arrays do not count
        self.nbytes = 0

    def _draw(self, n: int, k: int, rng: np.random.Generator) -> np.ndarray:
        """k new rows of size n, each a complex Gaussian drawn in place, all
        in one rng call: each row's 2n^2 floats take the real block, then
        the imaginary block."""
        if n < 1:
            raise ValueError("dim must be >= 1")
        rows = np.empty((k, n, n), dtype=complex)
        rng.standard_normal(out=rows.view(float).reshape(k, 2, n, n))
        self._rows.extend(rows)
        return rows

    def unitary(self, dim: int, rng: np.random.Generator) -> np.ndarray:
        return self._draw(dim, 1, rng)[0]

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
        row = self._draw(dim, 1, rng)[0]
        self._spd.append(row)
        self._spectra.append(evals)
        self.nbytes += evals.nbytes
        if out is None:
            return row
        self._slots.append((row, out))
        return out

    def mixture(self, dim: int, rng: np.random.Generator) -> KrausMap:
        terms = 2 + int(rng.integers(3))
        ops = self._draw(dim, terms, rng)
        self._unitaries.extend(ops)
        return mixture_of(ops, random_weights(terms, rng))

    def unital_map(self, out_dim: int, rng: np.random.Generator) -> tuple[KrausMap, int]:
        kind = int(rng.integers(3))
        if kind == 0:
            return self.mixture(out_dim, rng), out_dim
        if kind == 1:
            return random_pinching(out_dim, rng), out_dim
        n_in = out_dim + 1 + int(rng.integers(3))
        u = self._draw(n_in, 1, rng)
        self._unitaries.append(u[0])
        self.nbytes += u[0, :, out_dim:].nbytes     # the columns past the record's operator
        return KrausMap(u[:, :, :out_dim], [1.0]), n_in

    def sandwiched_pair(self, dim: int, iv_a: SpectralInterval, bounds: SpectralInterval,
                        rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        a = self.spd(dim, iv_a, rng)
        d = self.spd(dim, bounds, rng)
        if dim == 1:    # no algebra pending: A and D are already drawn
            return a, _sandwich(d, a)
        self._pairs.append((a, d))
        return a, d

    def finish(self) -> None:
        """The linear-algebra phase of every draw so far, each step after
        the step it needs: the Haar unitaries (a compression's operator is
        a view of one), the SPD matrices U diag(w) U*, the copies into `out`
        slots, the sandwiched pairs, and the unitarity check of the
        mixtures' and compressions' whole rows. Then the batch lets go of
        the draws and takes the next ones."""
        _overwrite(self._rows, _haar)
        _overwrite(self._spd, lambda u, w: _from_spectrum(w, u), self._spectra)
        for row, out in self._slots:
            out[...] = row
        _overwrite([d for _, d in self._pairs], _sandwich, [a for a, _ in self._pairs])
        for _, u in stacks(self._unitaries):
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
    """The pinching onto the blocks of a random permutation cut at random
    places: entry perm[i] lies in the block of the cuts at or before i."""
    perm = rng.permutation(dim)
    nblocks = 1 + int(rng.integers(dim))
    marks = np.zeros(dim, dtype=int)
    if nblocks > 1:
        marks[rng.choice(np.arange(1, dim), size=nblocks - 1, replace=False)] = 1
    of = np.empty(dim, dtype=int)
    of[perm] = np.cumsum(marks)
    return _pinching(of, nblocks)


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
