import numpy as np
import pytest

from opineq.rng import stream


@pytest.fixture
def rng():
    return stream(20240814, "tests")


@pytest.fixture
def spd_pair(rng):
    from opineq.generators import random_spd
    from opineq.hermitian import SpectralInterval

    iv = SpectralInterval(0.5, 3.0)
    return random_spd(4, iv, rng), random_spd(4, iv, rng)


@pytest.fixture
def eigh_inputs(monkeypatch):
    """The bytes of every stack np.linalg.eigh decomposes during the test."""
    seen, eigh = [], np.linalg.eigh

    def counted(a, *args, **kwargs):
        seen.append(np.asarray(a).tobytes())
        return eigh(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigh", counted)
    return seen


def run_trials(spec, rngs, tol, dims, intervals):
    """Each trial's results, in stream order, as `spec.run_trial` folds them."""
    out = []

    def fold(trial, results):
        assert trial == len(out)
        out.append(results)
    spec.run_trial(rngs, tol, dims, intervals, fold)
    return out


def assert_close(a, b, tol=1e-10):
    __tracebackhide__ = True
    np.testing.assert_allclose(a, b, rtol=0, atol=tol)
