"""Random streams: `streams` gives the generators `stream` gives, through
numpy's SeedSequence hash run over a block of indices at once, and the
suite and the random search draw through it without one SeedSequence."""
import re

import numpy as np
import pytest
from numpy.random import Generator, Philox

from opineq import registry, rng
from opineq.falsify import ViolationReport, _rerun_witness, search_violations
from opineq.hermitian import DEFAULT_TOL
from opineq.rng import KEY_BLOCK, stream, streams
from opineq.suite import run_suite


def first_draws(g):
    return (g.standard_normal(3).tolist(), g.integers(10 ** 6, size=3).tolist(),
            g.dirichlet(np.ones(3)).tolist())


def philox_key(g):
    return g.bit_generator.state["state"]["key"].tolist()


# both sides of a block edge, and an index of one uint32 word beside
# indices of two, in one hash
INDICES = [0, 1, KEY_BLOCK - 1, KEY_BLOCK, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 1]


@pytest.mark.parametrize("label", ["kantorovich", "", "é"])
@pytest.mark.parametrize("seed", [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 3, 2 ** 200])
def test_streams_give_the_generators_of_stream(seed, label):
    keys = rng._keys(seed, label, np.array(INDICES, dtype=np.uint64))
    for i, key in zip(INDICES, keys):
        ref = stream(seed, label, i)
        assert key.tolist() == philox_key(ref)
        assert first_draws(Generator(Philox(rng._Key(key)))) == first_draws(ref)
    got = list(streams(seed, label, KEY_BLOCK + 1))
    assert len(got) == KEY_BLOCK + 1
    for i in INDICES[:4]:
        ref = stream(seed, label, i)
        assert philox_key(got[i]) == philox_key(ref)
        assert first_draws(got[i]) == first_draws(ref)


# a seed or index that is not an integer was truncated (1.5 and True drew
# seed 1, index 2.7 drew index 2) or parsed ("3" drew seed 3)
@pytest.mark.parametrize("make,message", [
    (lambda: stream(-1, "kantorovich"), "seed must be >= 0, got -1"),
    (lambda: streams(-1, "kantorovich", 3), "seed must be >= 0, got -1"),
    (lambda: stream(1.5, "kantorovich"), "seed must be an integer, got 1.5"),
    (lambda: streams(1.5, "kantorovich", 3), "seed must be an integer, got 1.5"),
    (lambda: stream(True, "kantorovich"), "seed must be an integer, got True"),
    (lambda: streams(True, "kantorovich", 3), "seed must be an integer, got True"),
    (lambda: stream("3", "kantorovich"), "seed must be an integer, got '3'"),
    (lambda: streams("3", "kantorovich", 3), "seed must be an integer, got '3'"),
    (lambda: stream(1, "kantorovich", 2.7), "index must be an integer, got 2.7"),
], ids=["stream", "streams", "stream-float", "streams-float", "stream-bool", "streams-bool",
        "stream-str", "streams-str", "stream-index-float"])
def test_a_negative_seed_is_rejected(make, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        make()


def test_the_suite_and_the_random_search_make_no_seed_sequence(monkeypatch):
    made, seed_sequence = [], rng.SeedSequence
    monkeypatch.setattr(rng, "SeedSequence", lambda **kw: made.append(kw) or seed_sequence(**kw))
    run_suite(seed=5, trials=50, names=registry.names(), timestamp=False)
    assert search_violations("kantorovich", budget=50, seed=5) == []
    assert made == []
    # a witness replays through `stream`, the SeedSequence route
    witness = {"seed": 5, "label": "kantorovich", "trial": 3}
    res = _rerun_witness(ViolationReport("kantorovich", witness, 0.0, [0.0], DEFAULT_TOL))
    assert res is not None and res.check_name == "kantorovich"
    assert made == [{"entropy": 5, "spawn_key": (rng._label_key("kantorovich"), 3)}]
