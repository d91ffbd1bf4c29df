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
floats. The linear-algebra phase, ``DrawBatch.finish``, completes the rows
of each matrix size once: it gathers the Gaussians into complex matrices,
runs each step as one stacked call on all of them, and overwrites each
draw's rows, in place, with their values. A 1x1 sandwiched pair, which no
algebra waits on, is finished as it is drawn. A pinching is built from one
block-index vector.
No random number depends on a linear-algebra result, and a stacked call
gives each matrix the bits it gets alone, so a draw is the same in any
batch. The functions below are a batch of one.
"""
from __future__ import annotations

import numpy as np

from .hermitian import SpectralInterval, _from_spectrum, hermitian_part, sqrtm_psd
from .maps import KrausMap, _pinching, mixture_of, require_unitary


def _sandwich(a: np.ndarray, d: np.ndarray) -> np.ndarray:
    """A^1/2 D A^1/2 for each pair of the stacks a and d."""
    ah = sqrtm_psd(a)
    return hermitian_part(ah @ d @ ah)


class _Pending:
    """The pending draws of one matrix size n: the complex Gaussians of each
    draw call, one array per call, and what `finish` makes of each row. A
    row is known by its index among the rows of every call in order; the
    lists below hold row indices."""

    def __init__(self, n: int):
        self.n = n
        self.draws: list = []        # the (k, n, n) rows of each draw call
        self.count = 0
        self.spd: list = []          # Haar unitaries U, to become U diag(w) U*
        self.spectra: list = []      # the w of each of spd
        self.slots: list = []        # (spd row, the array it is copied into)
        self.pairs: list = []        # A rows of sandwiched pairs; D, the row
                                     # after, to become A^1/2 D A^1/2
        self.unitaries: list = []    # rows of mixtures and compressions, to check

    def draw(self, k: int, rng: np.random.Generator) -> tuple:
        """(the index of the first of k new rows, the rows), each row a
        complex Gaussian drawn in place, all in one rng call: each row's
        2n^2 floats take the real block, then the imaginary block."""
        n = self.n
        rows = np.empty((k, n, n), dtype=complex)
        rng.standard_normal(out=rows.view(float).reshape(k, 2, n, n))
        self.draws.append(rows)
        self.count += k
        return self.count - k, rows

    def gaussians(self) -> np.ndarray:
        """The Gaussians drawn so far, assembled into complex matrices."""
        n = self.n
        halves = np.concatenate(self.draws).view(float).reshape(self.count, 2, n, n)
        g = np.empty((self.count, n, n), dtype=complex)
        g.real, g.imag = halves[:, 0], halves[:, 1]
        return g

    def finish(self) -> None:
        """Each step once on all the rows, then each draw's rows overwritten
        with their values."""
        u, r = np.linalg.qr(self.gaussians())
        d = np.diagonal(r, axis1=-2, axis2=-1)
        u *= (d / np.abs(d))[..., None, :]
        if self.spd:
            u[self.spd] = _from_spectrum(np.array(self.spectra), u[self.spd])
        for i, out in self.slots:
            out[...] = u[i]
        if self.pairs:
            a = np.array(self.pairs)
            u[a + 1] = _sandwich(u[a], u[a + 1])
        if self.unitaries:
            require_unitary(u[self.unitaries])
        lo = 0
        for rows in self.draws:
            rows[...] = u[lo:lo + len(rows)]
            lo += len(rows)


class DrawBatch:
    """The draws of one batch, with their linear algebra pending until
    `finish`. Each method takes the arguments of the function below that it
    serves (`spd` for `random_spd`, and so on) and makes the same rng calls;
    the arrays it returns hold their values only after `finish`, except a
    1x1 sandwiched pair, returned finished. A Haar draw's matrix is a view
    of the one row its call drew (held by the `_Pending` of its size), a
    mixture's Kraus operators the rows of one call, a compression's operator
    the first columns of its row; so a held record keeps only its own rows
    alive. Given `out` (a slot of a larger array, say), `spd` returns it,
    and `finish` copies the finished row into it."""

    def __init__(self):
        self._pending: dict = {}         # matrix size -> its _Pending
        # bytes held here that the draws' own arrays do not count
        self.nbytes = 0

    def _buffer(self, n: int) -> _Pending:
        if n < 1:
            raise ValueError("dim must be >= 1")
        buf = self._pending.get(n)
        if buf is None:
            buf = self._pending[n] = _Pending(n)
        return buf

    def unitary(self, dim: int, rng: np.random.Generator) -> np.ndarray:
        return self._buffer(dim).draw(1, rng)[1][0]

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
        buf = self._buffer(dim)
        i, rows = buf.draw(1, rng)
        buf.spd.append(i)
        buf.spectra.append(evals)
        self.nbytes += evals.nbytes
        if out is None:
            return rows[0]
        buf.slots.append((i, out))
        return out

    def mixture(self, dim: int, rng: np.random.Generator) -> KrausMap:
        terms = 2 + int(rng.integers(3))
        buf = self._buffer(dim)
        lo, ops = buf.draw(terms, rng)
        buf.unitaries += range(lo, lo + terms)
        return mixture_of(ops, random_weights(terms, rng))

    def unital_map(self, out_dim: int, rng: np.random.Generator) -> tuple[KrausMap, int]:
        kind = int(rng.integers(3))
        if kind == 0:
            return self.mixture(out_dim, rng), out_dim
        if kind == 1:
            return random_pinching(out_dim, rng), out_dim
        n_in = out_dim + 1 + int(rng.integers(3))
        buf = self._buffer(n_in)
        i, u = buf.draw(1, rng)
        buf.unitaries.append(i)
        self.nbytes += u[0, :, out_dim:].nbytes     # the columns past the record's operator
        return KrausMap(u[:, :, :out_dim], [1.0]), n_in

    def sandwiched_pair(self, dim: int, iv_a: SpectralInterval, bounds: SpectralInterval,
                        rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        a = self.spd(dim, iv_a, rng)
        d = self.spd(dim, bounds, rng)
        if dim == 1:    # no algebra pending: A and D are already drawn
            return a, _sandwich(a, d)
        self._pending[dim].pairs.append(self._pending[dim].count - 2)
        return a, d

    def finish(self) -> None:
        """The linear-algebra phase of every draw so far, one matrix size
        at a time (`_Pending.finish`), each step one stacked call on all of
        that size's rows, after the step it needs: the Gaussians gathered
        into complex matrices, their QR with the R-diagonal phases folded
        into Q (the Haar unitaries, which a compression's operator is a
        view of), the SPD matrices U diag(w) U* with their spectra stacked
        into one array, the copies into `out` slots, the sandwiched pairs,
        and the unitarity check of the mixtures' and compressions' whole
        rows; then each draw's rows are overwritten with their values. Then
        the batch lets go of the draws and takes the next ones."""
        for buf in self._pending.values():
            buf.finish()
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
