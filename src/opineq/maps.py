"""Unital positive linear maps in Kraus form.

Every map the library uses is completely positive, so it has a Kraus form

    Phi(X) = sum_j w_j K_j* X K_j,    w_j > 0,

and is unital exactly when sum_j w_j K_j* K_j = I. ``KrausMap`` holds the
operators stacked as ``ops[r, n_in, n_out]`` with ``weights[r]``; the
factories below build the constructions the checks draw from (mixtures of
unitary conjugations, pinchings, compressions by an isometry, scaled
identities, direct sums with unitality split across blocks, and the induced
congruence map

    Psi(X) = Phi(A)^{-1/2} Phi(A^{1/2} X A^{1/2}) Phi(A)^{-1/2}),

each validating its own hypotheses. ``MapStack`` applies one map per
matrix of a stack.
"""
from __future__ import annotations

import numpy as np

from .hermitian import adjoint, hermitian_part, power

UNITARY_FTOL = 1e-11
UNITAL_FTOL = 1e-10


class KrausMap:
    """Phi(X) = sum_j w_j K_j* X K_j for K_j = ops[j] (n_in x n_out)."""

    def __init__(self, ops, weights):
        ops = np.asarray(ops)
        weights = np.asarray(weights, dtype=float)
        if ops.ndim != 3 or len(ops) == 0 or weights.shape != (len(ops),):
            raise ValueError("need equally many Kraus operators and weights, "
                             "at least one, all of one matrix shape")
        if not np.all(weights > 0):
            raise ValueError("weights must be positive")
        self.ops = ops
        self.weights = weights
        self.input_dim, self.output_dim = ops.shape[1], ops.shape[2]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """sum_j w_j K_j* X K_j for X, or for each matrix of a stack X."""
        return _weighted_sum(self.weights, adjoint(self.ops) @ x[..., None, :, :] @ self.ops)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if x.ndim < 2 or x.shape[-2:] != (self.input_dim, self.input_dim):
            raise ValueError(
                f"map expects a {self.input_dim}x{self.input_dim} input, got {x.shape}")
        return hermitian_part(self.apply(x))

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
    """Phi_i(X_i) for a stack X of shape (b, n_in, n_in) and one map per
    matrix, all with the same input and output dimensions. Maps with one
    Kraus-operator shape and dtype are applied together, as one batched
    product, so each image has the bits its own map gives it."""

    def __init__(self, maps):
        self.maps = list(maps)
        if not self.maps:
            raise ValueError("need at least one map")
        self.input_dim, self.output_dim = self.maps[0].input_dim, self.maps[0].output_dim
        groups: dict = {}
        for i, m in enumerate(self.maps):
            if (m.input_dim, m.output_dim) != (self.input_dim, self.output_dim):
                raise ValueError("all maps of a stack must share their dimensions")
            groups.setdefault((m.ops.shape, m.ops.dtype), []).append(i)
        self._groups = []
        for idx in groups.values():
            ops = np.stack([self.maps[i].ops for i in idx])
            # weights[j] is the column of the j-th weights of the group's maps
            weights = np.stack([self.maps[i].weights for i in idx]).T[..., None, None]
            self._groups.append((np.array(idx), adjoint(ops), ops, weights))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if x.shape != (len(self.maps), self.input_dim, self.input_dim):
            raise ValueError(f"map stack expects {len(self.maps)} inputs of size "
                             f"{self.input_dim}x{self.input_dim}, got {x.shape}")
        out = np.empty((len(x), self.output_dim, self.output_dim),
                       dtype=np.result_type(x, *(ops for _, _, ops, _ in self._groups)))
        for idx, ops_h, ops, weights in self._groups:
            out[idx] = _weighted_sum(weights, ops_h @ x[idx][:, None] @ ops)
        return hermitian_part(out)


def _isometry_defect(v: np.ndarray) -> float:
    return float(np.linalg.norm(v.conj().T @ v - np.eye(v.shape[1])))


def unitary_mixture(unitaries, weights) -> KrausMap:
    """Phi(X) = sum_i w_i U_i* X U_i with w_i > 0 summing to 1."""
    unitaries = [np.asarray(u) for u in unitaries]
    weights = np.asarray(weights, dtype=float)
    if len(unitaries) == 0 or len(unitaries) != len(weights):
        raise ValueError("need equally many unitaries and weights, at least one")
    n = unitaries[0].shape[0]
    for u in unitaries:
        if u.shape != (n, n):
            raise ValueError("all unitaries must share one square shape")
        dev = _isometry_defect(u)
        if dev > UNITARY_FTOL:
            raise ValueError(f"matrix is not unitary: ||U*U - I||_F = {dev:.3e}")
    if np.any(weights <= 0):
        raise ValueError("weights must be positive")
    if abs(weights.sum() - 1.0) > 1e-12:
        raise ValueError(f"weights must sum to 1, got {weights.sum()!r}")
    return KrausMap(unitaries, weights)


def identity_map(dim: int) -> KrausMap:
    return unitary_mixture([np.eye(dim)], [1.0])


def pinching(blocks, dim: int) -> KrausMap:
    """Block-diagonal restriction: entries outside the index blocks are
    zeroed. The Kraus operators are the 0/1 projectors onto the blocks."""
    seen = sorted(i for b in blocks for i in b)
    if seen != list(range(dim)):
        raise ValueError(f"blocks must partition range({dim})")
    ops = np.zeros((len(blocks), dim, dim))
    for p, b in zip(ops, blocks):
        p[list(b), list(b)] = 1.0
    return KrausMap(ops, np.ones(len(blocks)))


def compression(v) -> KrausMap:
    """Phi(X) = V* X V for an isometry V (n x k, V*V = I_k)."""
    v = np.asarray(v)
    if v.ndim != 2 or v.shape[0] < v.shape[1]:
        raise ValueError("isometry must be tall, n x k with k <= n")
    dev = _isometry_defect(v)
    if dev > UNITARY_FTOL:
        raise ValueError(f"not an isometry: ||V*V - I||_F = {dev:.3e}")
    return KrausMap([v], [1.0])


def scaled(weight: float, dim: int) -> KrausMap:
    """X -> w X: positive but NOT unital; a direct-sum building block."""
    if weight <= 0:
        raise ValueError("weight must be positive")
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


def induced_congruence(base: KrausMap, anchor: np.ndarray) -> KrausMap:
    """Psi(X) = Phi(A)^{-1/2} Phi(A^{1/2} X A^{1/2}) Phi(A)^{-1/2}, with
    Kraus operators A^{1/2} K_j Phi(A)^{-1/2}. Unital by construction."""
    anchor = np.asarray(anchor)
    if np.linalg.eigvalsh(anchor)[0] <= 0:
        raise ValueError("anchor must be positive definite")
    pa = base(anchor)
    if np.linalg.eigvalsh(pa)[0] <= 0:
        raise ValueError("base map sends the anchor to a non-positive matrix")
    return KrausMap(power(anchor, 0.5) @ base.ops @ power(pa, -0.5), base.weights)


def rotation(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


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
    "KrausMap", "MapStack", "unitary_mixture", "identity_map", "pinching", "compression", "scaled", "direct_sum",
    "induced_congruence", "rotation", "make_rotation_mixture",
    "vector_state_value",
]
