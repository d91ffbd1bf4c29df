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

each validating its own hypotheses.
"""
from __future__ import annotations

import numpy as np

from .hermitian import power

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
        self._ops_h = ops.conj().transpose(0, 2, 1)
        self.input_dim, self.output_dim = ops.shape[1], ops.shape[2]

    def apply(self, x: np.ndarray) -> np.ndarray:
        terms = self._ops_h @ x @ self.ops
        out = self.weights[0] * terms[0]
        for w, t in zip(self.weights[1:], terms[1:]):
            out = out + w * t
        return out

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if x.shape != (self.input_dim, self.input_dim):
            raise ValueError(
                f"map expects a {self.input_dim}x{self.input_dim} input, got {x.shape}")
        out = self.apply(x)
        return (out + out.conj().T) / 2

    def unital_defect(self) -> float:
        """||sum_j w_j K_j* K_j - I||_F, the distance of Phi(I) from I."""
        image = np.tensordot(self.weights, self._ops_h @ self.ops, axes=1)
        return float(np.linalg.norm(image - np.eye(self.output_dim)))

    @property
    def is_unital(self) -> bool:
        return self.unital_defect() <= UNITAL_FTOL


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


def vector_state_value(x: np.ndarray, t: np.ndarray) -> float:
    """<T x, x> for a unit vector x; the rank-one unital positive functional."""
    x = np.asarray(x).ravel()
    if abs(np.linalg.norm(x) - 1.0) > 1e-12:
        raise ValueError("state vector must have unit norm")
    if t.shape != (x.size, x.size):
        raise ValueError(f"dimension mismatch: {t.shape} vs vector of size {x.size}")
    return float(np.real(x.conj() @ t @ x))


__all__ = [
    "KrausMap", "unitary_mixture", "identity_map", "pinching", "compression", "scaled", "direct_sum",
    "induced_congruence", "rotation", "make_rotation_mixture",
    "vector_state_value",
]
