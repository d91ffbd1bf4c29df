"""Deterministic, splittable random streams.

Every randomized component draws from a stream keyed by
``(seed, purpose-label, index)``. Streams are backed by the counter-based
Philox generator, so any witness can be regenerated from its key alone,
independent of execution order or thread scheduling.
"""
from __future__ import annotations

import zlib

from numpy.random import Generator, Philox, SeedSequence


def stream(seed: int, label: str, index: int = 0) -> Generator:
    """Return the generator for stream (seed, label, index).

    The label is folded to a 32-bit key with crc32 so that distinct purposes
    (check names, generator roles) get provably distinct spawn keys under the
    same master seed.
    """
    key = zlib.crc32(label.encode("utf-8"))
    ss = SeedSequence(entropy=int(seed), spawn_key=(key, int(index)))
    return Generator(Philox(ss))


__all__ = ["stream"]
