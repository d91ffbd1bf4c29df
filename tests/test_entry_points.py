"""The library's run entry points over good and bad arguments.

Each call of `run_suite` or `search_violations` either returns or raises a
ValueError (DomainError included) or, for an entry name not registered, a
KeyError; a call rejected for its arguments has made no stream, and a
returned suite report holds at least one check record.
"""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opineq import falsify, registry, suite
from opineq.checks import HypothesisError
from opineq.falsify import CANDIDATE_NAME, search_violations
from opineq.hermitian import SpectralInterval
from opineq.rng import streams
from opineq.suite import run_suite

IVS = registry.DEFAULT_INTERVALS
COUNTS = ([1, 2], [0, -1, 1.5, True, "2", float("nan")])
SEEDS = ([0, 7], [-1, 1.5, True, "3"])
TOLS = ([1e-9, 1e-6, 0.0], [-1.0, float("inf"), float("nan"), "1e-9"])

# argument -> (good values, bad values); a callable value is called for
# each use, so a generator is made fresh
SUITE_ARGS = {
    "names": ([None, ["kantorovich"], ("ando", "kantorovich", "ando"), [CANDIDATE_NAME],
               lambda: iter(["choi_davis"])],
              [[], lambda: iter([]), "kantorovich", ["kantorovich", "bogus"], 3, [["a"]],
               ["kantorovich", 3]]),
    "dims": ([(2,), [1, 3], lambda: iter([3])], [(), (0,), (2.5,), (True,), ("3",), 3, None]),
    "intervals": ([IVS, [SpectralInterval(1.0, 1.0)], lambda: (iv for iv in IVS)],
                  [[], [(1.0, 2.0)], [IVS[0], (1.0, 2.0)], "ab", 3, None]),
    "trials": COUNTS,
    "seed": SEEDS,
    "tol": TOLS,
}
SEARCH_ARGS = {
    "check_name": ([CANDIDATE_NAME, "kantorovich"], ["bogus"]),
    "grid": ([None, {"x": [0.5, 2.0], "alpha": [0.0, 1.0], "beta": [0.5]}],
             [{}, {"x": [1.0]}, {"x": [], "alpha": [0.0], "beta": [0.5]},
              {"x": [2.0], "alpha": [0.0], "beta": []},
              {"x": [-1.0], "alpha": [0.0], "beta": [0.5]}, 3, [1, 2],
              {"x": {1: 2}, "alpha": [0.0], "beta": [0.5]},
              {"x": [2.0], "alpha": ["a"], "beta": [0.5]},
              {"x": [2.0], "alpha": [0.0], "beta": [[0.5, 1.0]]}]),
    "budget": ([None, 1, 2], [0, 1.5, True]),
    "seed": SEEDS,
    "tol": TOLS,
}


@st.composite
def arguments(draw, pools):
    """Keyword arguments, each good but for at most two drawn from their
    bad pools."""
    bad = draw(st.sets(st.sampled_from(sorted(pools)), max_size=2))
    kw = {}
    for arg, (good, wrong) in pools.items():
        value = draw(st.sampled_from(wrong if arg in bad else good))
        kw[arg] = value() if callable(value) else value
    return kw


def _judged(module, call, kw):
    """call(**kw) under a count of the streams `module` makes: its result,
    or None when it raised, the rejection checked."""
    made = []

    def counting(*key):
        made.append(key)
        return streams(*key)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "streams", counting)
        try:
            return call(**kw)
        except HypothesisError:
            # a drawn instance that breaks its hypothesis by rounding alone,
            # which only a zero tolerance lets happen (the CLI names --tol)
            assert kw["tol"] == 0.0
        except KeyError as exc:
            assert exc.args[0].startswith("unknown check") and not made
        except ValueError:
            assert not made


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(kw=arguments(SUITE_ARGS))
def test_run_suite_returns_a_judged_report_or_a_typed_error(kw):
    report = _judged(suite, run_suite, {**kw, "timestamp": False})
    if report is not None:
        assert report.checks


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(kw=arguments(SEARCH_ARGS))
def test_search_violations_returns_reports_or_a_typed_error(kw):
    reports = _judged(falsify, search_violations, kw)
    assert all(r.revalidate() for r in reports or ())
