"""Seeded random instances: SPD matrices with prescribed spectral intervals,
Haar unitaries, unital maps, and sandwiched pairs.

Everything draws from an explicit numpy Generator so that any instance can be
reproduced from (seed, label, index) alone.

A draw runs in two phases. The random-number phase, the methods of
``DrawBatch``, makes every rng call of the draw, in order, and returns the
draw's arrays and maps already shaped; an array whose value needs linear
algebra holds its random input until then. Each complex Gaussian a Haar
unitary is made from is drawn straight into its row of the batch's pending
buffer of its matrix size: the real block, then the imaginary block, in the
row's own floats. The linear-algebra phase, ``DrawBatch.finish``, completes
each buffer once: it assembles the Gaussians into complex matrices, runs
each step as one stacked call on all of them, and overwrites each row, in
place, with its value. A pinching is built from one block-index vector.
No random number depends on a linear-algebra result, and a stacked call
gives each matrix the bits it gets alone, so a draw is the same in any
batch. The functions below are a batch of one.
"""
from __future__ import annotations

import numpy as np

from .hermitian import (BATCH_BYTES, SpectralInterval, _from_spectrum, hermitian_part,
                        sqrtm_psd)
from .maps import (KrausMap, _pinching, mixture_of, require_isometry,
                   require_unitary)


def _sandwich(a: np.ndarray, d: np.ndarray) -> np.ndarray:
    """A^1/2 D A^1/2 for each pair of the stacks a and d."""
    ah = sqrtm_psd(a)
    return hermitian_part(ah @ d @ ah)


# bytes of one chunk of a pending buffer: a record holds a view of its
# draw's rows, so a chunk lives as long as any record drawn into it, and a
# small chunk keeps few rows alive past their own records
_CHUNK_BYTES = BATCH_BYTES // 64


class _Pending:
    """The pending draws of one matrix size n: one buffer of complex
    Gaussians, held in chunks of about _CHUNK_BYTES, and what `finish` makes
    of each row. Each Gaussian is drawn into its row of the last chunk, the
    Gaussians of one call into consecutive rows of one chunk. A row is known
    by its index in the buffer, the used rows of every chunk in order; the
    lists below hold row indices."""

    def __init__(self, n: int):
        self.n = n
        self.chunks: list = []       # (rows, their floats) of each chunk
        self.free = 0                # rows not yet drawn into, of the last
        self.count = 0
        self.spd: list = []          # Haar unitaries U, to become U diag(w) U*
        self.spectra: list = []      # the w of each of spd
        self.slots: list = []        # (spd row, the array it is copied into)
        self.pairs: list = []        # A rows of sandwiched pairs; D, the row
                                     # after, to become A^1/2 D A^1/2
        self.isometries: dict = {}   # k -> rows whose first k columns are
                                     # the Kraus operator of a compression
        self.unitaries: list = []    # Kraus operators of mixtures, to check

    def _cut(self) -> None:
        """Cut the last chunk to the rows drawn into it."""
        if self.free:
            rows, halves = self.chunks[-1]
            self.chunks[-1] = rows[:-self.free], halves[:-self.free]
            self.free = 0

    def draw(self, k: int, rng: np.random.Generator) -> tuple:
        """(the index of the first of k new rows, the rows), each row a
        complex Gaussian drawn in place, all in one rng call: each row's
        2n^2 floats take the real block, then the imaginary block."""
        n = self.n
        if k > self.free:
            self._cut()
            size = max(k, _CHUNK_BYTES // (16 * n * n))
            rows = np.empty((size, n, n), dtype=complex)
            self.chunks.append((rows, rows.view(float).reshape(size, 2, n, n)))
            self.free = size
        rows, halves = self.chunks[-1]
        lo = len(rows) - self.free
        rng.standard_normal(out=halves[lo:lo + k])
        self.free -= k
        self.count += k
        return self.count - k, rows[lo:lo + k]

    def gaussians(self) -> np.ndarray:
        """The Gaussians drawn so far, assembled into complex matrices."""
        self._cut()
        halves = np.concatenate([h for _, h in self.chunks])
        g = np.empty((self.count, self.n, self.n), dtype=complex)
        g.real, g.imag = halves[:, 0], halves[:, 1]
        return g

    def finish(self) -> None:
        """Each step once on the whole buffer, then each chunk's rows
        overwritten with their values."""
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
        for k, idx in self.isometries.items():
            require_isometry(u[idx, :, :k])
        if self.unitaries:
            require_unitary(u[self.unitaries])
        lo = 0
        for rows, _ in self.chunks:
            rows[...] = u[lo:lo + len(rows)]
            lo += len(rows)


class DrawBatch:
    """The draws of one batch, with their linear algebra pending until
    `finish`. Each method takes the arguments of the function below that it
    serves (`spd` for `random_spd`, and so on) and makes the same rng calls;
    the arrays it returns hold their values only after `finish`. A Haar
    draw's matrix is a view of its row of the pending buffer of its size
    (a `_Pending`), a mixture's Kraus operators consecutive rows. Given
    `out` (a slot of a larger array, say), `spd` returns it, and `finish`
    copies the finished row into it."""

    def __init__(self):
        self._pending: dict = {}         # matrix size -> its _Pending
        self._scalar_pairs: list = []    # sandwiched pairs of 1x1 matrices
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
        buf.isometries.setdefault(out_dim, []).append(i)
        self.nbytes += u[0, :, out_dim:].nbytes     # the columns past the record's operator
        return KrausMap(u[:, :, :out_dim], [1.0]), n_in

    def sandwiched_pair(self, dim: int, iv_a: SpectralInterval, bounds: SpectralInterval,
                        rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        a = self.spd(dim, iv_a, rng)
        d = self.spd(dim, bounds, rng)
        if dim == 1:
            self._scalar_pairs.append((a, d))
        else:
            self._pending[dim].pairs.append(self._pending[dim].count - 2)
        return a, d

    def finish(self) -> None:
        """The linear-algebra phase of every draw so far, one pending buffer
        at a time (`_Pending.finish`), each step one stacked call on all of
        the buffer's rows, after the step it needs: the Gaussians assembled
        into complex matrices, their QR with the R-diagonal phases folded
        into Q (the Haar unitaries, which a compression's operator is a
        view of), the SPD matrices U diag(w) U* with their spectra stacked
        into one array, the copies into `out` slots, the sandwiched pairs,
        and the isometry and unitarity checks of the maps; then each row is
        overwritten with its value. Sandwiched pairs of 1x1 matrices, which
        no buffer holds, follow in one call. Then the batch lets go of the
        draws and takes the next ones."""
        for buf in self._pending.values():
            buf.finish()
        if self._scalar_pairs:
            a, d = (np.array(x) for x in zip(*self._scalar_pairs))
            for (_, out), v in zip(self._scalar_pairs, _sandwich(a, d)):
                out[...] = v
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
