"""Deterministic, splittable random streams.

Every randomized component draws from a stream keyed by
``(seed, purpose-label, index)``. Streams are backed by the counter-based
Philox generator, so any witness can be regenerated from its key alone,
independent of execution order or thread scheduling.

``stream`` makes one stream through numpy's ``SeedSequence``; ``streams``
makes the streams of indices 0, 1, ... of one (seed, label), the same
generators, without one: it runs ``SeedSequence``'s hash for a block of
indices at once, over uint32 lanes, and keys each Philox directly.
"""
from __future__ import annotations

import numbers
import zlib
from itertools import accumulate, pairwise, repeat
from typing import Iterator

import numpy as np
from numpy.random import Generator, Philox, SeedSequence
from numpy.random.bit_generator import ISeedSequence

# indices whose Philox keys `streams` computes in one pass
KEY_BLOCK = 256

# the constants of numpy's SeedSequence hash; its pool holds 4 words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
_MASK = 0xFFFFFFFF


def _count(value, name: str, least: int = 1) -> int:
    """The one rule on a count or a seed: an int >= `least`, not a bool.
    Counts (`trials`, `budget`, dims) start at 1; a seed and a stream's
    index at 0."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return int(value)


def _label_key(label: str) -> int:
    return zlib.crc32(label.encode("utf-8"))


def stream(seed: int, label: str, index: int = 0) -> Generator:
    """Return the generator for stream (seed, label, index).

    The label is folded to a 32-bit key with crc32 so that distinct purposes
    (check names, generator roles) get provably distinct spawn keys under the
    same master seed.
    """
    ss = SeedSequence(entropy=_count(seed, "seed", 0),
                      spawn_key=(_label_key(label), _count(index, "index", 0)))
    return Generator(Philox(ss))


def _constants(init: int, mult: int):
    """The hash constants a hash steps through, each paired with the next."""
    return pairwise(accumulate(repeat(mult), lambda hc, m: hc * m & _MASK, initial=init))


def _hashmix(value, consts):
    """SeedSequence's hashmix of a word, a Python int, or of uint32 lanes,
    with the next of `consts`."""
    hc, nxt = next(consts)
    value = (value ^ hc) * nxt & _MASK
    return value ^ value >> 16


def _mix(x, y):
    r = (_MIX_L * x & _MASK) - (_MIX_R * y & _MASK) & _MASK
    return r ^ r >> 16


def _keys(seed: int, label: str, index: np.ndarray) -> np.ndarray:
    """The Philox keys of stream(seed, label, i) for each i of a uint64
    array, the rows of a (len(index), 2) uint64 array: what `SeedSequence(
    seed, spawn_key=(crc32(label), i)).generate_state(2, np.uint64)` returns,
    one uint32 lane per index. The words before the index are hashed once,
    as Python ints. An index takes one word below 2**32 and two from there,
    so the second word is hashed into every lane and kept where it is > 0."""
    consts = _constants(_INIT_A, _MULT_A)
    words = [seed & _MASK]
    while seed := seed >> 32:
        words.append(seed & _MASK)
    # with a spawn key, the seed's words are padded to the pool size
    words += [0] * (_POOL - len(words)) + [_label_key(label)]
    pool = [_hashmix(w, consts) for w in words[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts))
    for word in words[_POOL:] + [(index & _MASK).astype(np.uint32)]:
        pool = [_mix(p, _hashmix(word, consts)) for p in pool]
    high = (index >> 32).astype(np.uint32)
    pool = [np.where(high > 0, _mix(p, _hashmix(high, consts)), p) for p in pool]
    out = _constants(_INIT_B, _MULT_B)
    state = np.stack([_hashmix(p, out) for p in pool], axis=-1)
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _Key(ISeedSequence):
    """A seed sequence that gives Philox a key computed beforehand."""

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key


def streams(seed: int, label: str, n: int) -> Iterator[Generator]:
    """The generators stream(seed, label, i) for i < n, each made as it is
    taken; their keys are computed KEY_BLOCK indices at a time."""
    seed = _count(seed, "seed", 0)
    blocks = (_keys(seed, label, np.arange(lo, min(lo + KEY_BLOCK, n), dtype=np.uint64))
              for lo in range(0, n, KEY_BLOCK))
    return (Generator(Philox(_Key(key))) for keys in blocks for key in keys)


__all__ = ["stream", "streams", "KEY_BLOCK"]
