"""Unital positive linear maps in Kraus form.

Every map the library uses is completely positive, so it has a Kraus form

    Phi(X) = sum_j w_j K_j* X K_j,    w_j > 0,

and is unital exactly when sum_j w_j K_j* K_j = I. ``KrausMap`` holds the
operators stacked as ``ops[r, n_in, n_out]`` with ``weights[r]``; the
factories below build the constructions the checks draw from (mixtures of
unitary conjugations, pinchings, compressions by an isometry, scaled
identities, and direct sums with unitality split across blocks), each
validating its own hypotheses. A pinching carries the block index of
each entry and the mask of the entries it keeps, and builds its projectors
only when ``ops`` is read. ``MapStack`` applies one map per matrix of a
stack; a ``KrausMap`` applied alone is a MapStack of one.
"""
from __future__ import annotations

from functools import cached_property

import numpy as np

from .hermitian import adjoint, hermitian_part, stacks

UNITARY_FTOL = 1e-11
UNITAL_FTOL = 1e-10


class KrausMap:
    """Phi(X) = sum_j w_j K_j* X K_j for K_j = ops[j] (n_in x n_out).
    `mask` is None, or for a map built by `pinching` the (n, n) mask of
    the entries it keeps; such a map builds `ops` from its block index
    `of` when first read."""

    def __init__(self, ops, weights):
        ops = np.asarray(ops)
        weights = np.asarray(weights, dtype=float)
        if ops.ndim != 3 or len(ops) == 0 or weights.shape != (len(ops),):
            raise ValueError("need equally many Kraus operators and weights, "
                             "at least one, all of one matrix shape")
        if not (weights > 0).all():
            raise ValueError("weights must be positive")
        self.ops = ops
        self.weights = weights
        self.input_dim, self.output_dim = ops.shape[1], ops.shape[2]
        self.mask = None

    @cached_property
    def ops(self) -> np.ndarray:
        """A pinching's diagonal 0/1 projectors onto its blocks."""
        ops = np.zeros((len(self.weights),) + self.mask.shape)
        ops[(self.of, *np.diag_indices(self.input_dim))] = 1.0
        return ops

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Phi(X), or Phi of each matrix of a stack X: a MapStack of one."""
        x = np.asarray(x)
        if x.ndim < 2 or x.shape[-2:] != (self.input_dim, self.input_dim):
            raise ValueError(
                f"map expects a {self.input_dim}x{self.input_dim} input, got {x.shape}")
        return MapStack([self])(x[..., None, :, :])[..., 0, :, :]

    def unital_defect(self) -> float:
        """||sum_j w_j K_j* K_j - I||_F, the distance of Phi(I) from I."""
        image = np.tensordot(self.weights, adjoint(self.ops) @ self.ops, axes=1)
        return float(np.linalg.norm(image - np.eye(self.output_dim)))

    @property
    def is_unital(self) -> bool:
        return self.unital_defect() <= UNITAL_FTOL


def _weighted_sum(weights: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """sum_j weights[j] * terms[..., j, :, :], added in term order; weights[j]
    is a number, or a (b, 1, 1) column for a stack of b term lists."""
    out = weights[0] * terms[..., 0, :, :]
    for j in range(1, len(weights)):
        out = out + weights[j] * terms[..., j, :, :]
    return out


class MapStack:
    """Phi_i(X_i) for a stack X of shape (..., b, n_in, n_in) and one map
    per matrix of the last stack axis, all with the same input and output
    dimensions: phi(np.stack([X, Y])) maps X and Y in one call. All the
    pinchings (maps with a `mask`), whatever their block count, are
    applied as one masked copy, the bits of their Kraus sum on finite input
    without -0.0; the other maps of each group of `stacks` over their
    Kraus operators together, as one batched product, so each image has the
    bits its own map gives it."""

    def __init__(self, maps):
        self.maps = list(maps)
        if not self.maps:
            raise ValueError("need at least one map")
        self.input_dim, self.output_dim = self.maps[0].input_dim, self.maps[0].output_dim
        if len({(m.input_dim, m.output_dim) for m in self.maps}) > 1:
            raise ValueError("all maps of a stack must share their dimensions")
        self._dtype = np.result_type(float, *{m.ops.dtype for m in self.maps if m.mask is None})
        pinched = [i for i, m in enumerate(self.maps) if m.mask is not None]
        kraus = [i for i, m in enumerate(self.maps) if m.mask is None]
        self._groups = []
        if pinched:
            masks = np.array([self.maps[i].mask for i in pinched])
            self._groups.append((np.array(pinched), masks, None, None, None))
        for idx, ops in stacks([self.maps[i].ops for i in kraus]):
            idx = [kraus[i] for i in idx]
            # weights[j] is the column of the j-th weights of the group's maps
            weights = np.stack([self.maps[i].weights for i in idx]).T[..., None, None]
            self._groups.append((np.array(idx), None, adjoint(ops), ops, weights))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if x.shape[-3:] != (len(self.maps), self.input_dim, self.input_dim):
            raise ValueError(f"map stack expects {len(self.maps)} inputs of size "
                             f"{self.input_dim}x{self.input_dim}, got {x.shape}")
        out = np.empty(x.shape[:-2] + (self.output_dim, self.output_dim),
                       dtype=np.result_type(x, self._dtype))
        for idx, mask, ops_h, ops, weights in self._groups:
            xi = x[..., idx, :, :]
            if mask is None:
                out[..., idx, :, :] = _weighted_sum(weights, ops_h @ xi[..., None, :, :] @ ops)
            else:
                out[..., idx, :, :] = np.where(mask, xi, 0)
        return hermitian_part(out)


def _require_isometric(v: np.ndarray, message: str) -> None:
    """Raise ValueError(message with the defect) for the first matrix V of
    the stack v with ||V*V - I||_F > UNITARY_FTOL (a NaN defect passes); a
    2-D v is one matrix. The stack's products, norms and test take one call each."""
    devs = np.linalg.norm(adjoint(v) @ v - np.eye(v.shape[-1]), axis=(-2, -1))
    bad = devs[devs > UNITARY_FTOL]
    if bad.size:
        raise ValueError(message.format(bad[0]))


def require_unitary(u: np.ndarray) -> None:
    """Reject a matrix, or a stack of them, with one matrix not unitary."""
    _require_isometric(u, "matrix is not unitary: ||U*U - I||_F = {:.3e}")


def require_isometry(v: np.ndarray) -> None:
    """Reject an isometry, or a stack of them, with one matrix not isometric."""
    _require_isometric(v, "not an isometry: ||V*V - I||_F = {:.3e}")


def mixture_of(ops, weights) -> KrausMap:
    """sum_i w_i U_i* X U_i for square ops[i] = U_i and weights summing to
    1; the caller checks that the U_i are unitary."""
    phi = KrausMap(ops, weights)
    if phi.input_dim != phi.output_dim:
        raise ValueError("all unitaries must share one square shape")
    if abs(phi.weights.sum() - 1.0) > 1e-12:
        raise ValueError(f"weights must sum to 1, got {phi.weights.sum()!r}")
    return phi


def unitary_mixture(unitaries, weights) -> KrausMap:
    """Phi(X) = sum_i w_i U_i* X U_i with w_i > 0 summing to 1."""
    phi = mixture_of(unitaries, weights)
    require_unitary(phi.ops)
    return phi


def identity_map(dim: int) -> KrausMap:
    """X -> X: the pinching with one block."""
    return pinching([range(dim)], dim)


def pinching(blocks, dim: int) -> KrausMap:
    """Block-diagonal restriction: entries outside the index blocks are
    zeroed. The Kraus operators, built when read, are the diagonal 0/1
    projectors onto the blocks, of weight 1; the map's `mask` keeps the
    entries whose row and column share a block, and a MapStack applies it
    as a masked copy. Once the blocks are checked to partition range(dim),
    the map is built from the block index of each entry (`_pinching`)."""
    seen = sorted(i for b in blocks for i in b)
    if seen != list(range(dim)):
        raise ValueError(f"blocks must partition range({dim})")
    of = np.empty(dim, dtype=int)
    for j, b in enumerate(blocks):
        of[list(b)] = j
    return _pinching(of, len(blocks))


def _pinching(of: np.ndarray, nblocks: int) -> KrausMap:
    """The pinching onto `nblocks` blocks, entry i in block of[i]: its
    block index, weights and mask, without a check of `of`."""
    phi = KrausMap.__new__(KrausMap)
    phi.of, phi.weights, phi.mask = of, np.ones(nblocks), of[:, None] == of
    phi.input_dim = phi.output_dim = len(of)
    return phi


def compression(v) -> KrausMap:
    """Phi(X) = V* X V for an isometry V (n x k, V*V = I_k)."""
    v = np.asarray(v)
    if v.ndim != 2 or v.shape[0] < v.shape[1]:
        raise ValueError("isometry must be tall, n x k with k <= n")
    require_isometry(v)
    return KrausMap([v], [1.0])


def scaled(weight: float, dim: int) -> KrausMap:
    """X -> w X: positive but NOT unital; a direct-sum building block."""
    return KrausMap([np.eye(dim)], [weight])


def direct_sum(maps) -> KrausMap:
    """Phi(A_1 + ... + A_k block diagonal) = sum_i Phi_i(A_ii).

    The block maps need not be unital individually, but sum_i Phi_i(I) = I
    must hold (split unitality). Block i's operators K_ij become E_i K_ij,
    where E_i embeds block i into the whole input space.
    """
    maps = list(maps)
    if not maps:
        raise ValueError("need at least one block map")
    out = maps[0].output_dim
    if any(m.output_dim != out for m in maps):
        raise ValueError("all block maps must share one output dimension")
    n_in = sum(m.input_dim for m in maps)
    dtype = np.result_type(*(m.ops for m in maps))
    ops, lo = [], 0
    for m in maps:
        embedded = np.zeros((len(m.ops), n_in, out), dtype=dtype)
        embedded[:, lo:lo + m.input_dim, :] = m.ops
        ops.append(embedded)
        lo += m.input_dim
    phi = KrausMap(np.concatenate(ops), np.concatenate([m.weights for m in maps]))
    dev = phi.unital_defect()
    if dev > UNITAL_FTOL:
        raise ValueError(f"sum_i Phi_i(I) != I: deviation {dev:.3e}")
    return phi


def rotation(theta) -> np.ndarray:
    """The plane rotation by theta; for an array of angles, their stack."""
    c, s = np.cos(theta), np.sin(theta)
    return np.stack([np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)], axis=-2)


def make_rotation_mixture(alpha: float, beta: float) -> KrausMap:
    """The 2x2 map X -> (1/2) U* X U + (1/2) V* X V with plane rotations
    U = rotation(alpha), V = rotation(beta)."""
    return unitary_mixture([rotation(alpha), rotation(beta)], [0.5, 0.5])


def vector_state_value(x: np.ndarray, t: np.ndarray):
    """<T x, x> for a unit vector x; the rank-one unital positive functional.
    For stacks x (b, n) and t (b, n, n), the array of the b values."""
    x = np.asarray(x)
    if np.any(np.abs(np.linalg.norm(x, axis=-1) - 1.0) > 1e-12):
        raise ValueError("state vector must have unit norm")
    if t.shape != x.shape + x.shape[-1:]:
        raise ValueError(f"dimension mismatch: {t.shape} vs vector of size {x.shape[-1]}")
    value = np.real(x.conj()[..., None, :] @ t @ x[..., :, None])[..., 0, 0]
    return value.item() if value.ndim == 0 else value


__all__ = [
    "KrausMap", "MapStack", "mixture_of", "require_unitary", "require_isometry",
    "unitary_mixture", "identity_map", "pinching", "compression", "scaled", "direct_sum",
    "rotation", "make_rotation_mixture",
    "vector_state_value",
]
