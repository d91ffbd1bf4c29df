"""Registry coverage, suite determinism, report serialization."""
import dataclasses
import json

import numpy as np
import pytest

from opineq import registry
from opineq.checks import CheckResult
from opineq.hermitian import SpectralInterval
from opineq.io import (dump_json, load_json, map_from_json, map_to_json,
                       matrix_from_json, matrix_to_json)
from opineq.generators import random_spd, random_unital_map
from opineq.maps import (compression, direct_sum, identity_map,
                         induced_congruence, make_rotation_mixture, pinching,
                         scaled)
from opineq.rng import stream
from opineq.suite import run_suite

EXPECTED_NAMES = {
    "choi_davis", "kantorovich", "kantorovich_squared", "kantorovich_sharp",
    "refinement", "power_inner_product", "ando", "ando_connection",
    "reverse_ando_convex", "reverse_ando_sandwich", "kantorovich_equivalents",
    "reverse_choi_quadratic", "mond_pecaric", "generalized_kantorovich",
    "scalar_power_chain", "additive_sqrt", "minkowski_general",
    "power_minkowski", "tuple_minkowski",
}


def test_registry_names():
    assert set(registry.names(expected_to_hold=True)) == EXPECTED_NAMES
    assert registry.names(expected_to_hold=False) == ["inverse_square_candidate"]
    assert len(registry.names()) == 20


def test_registry_get_unknown():
    with pytest.raises(KeyError):
        registry.get("not_a_check")


# the ordered result names of one trial of each entry; a dropped or
# reordered parameter value shows here
RESULT_NAMES = {
    "choi_davis": ["choi_davis"],
    "kantorovich": ["kantorovich"],
    "kantorovich_squared": ["kantorovich_squared"],
    "kantorovich_sharp": ["kantorovich_sharp"],
    "refinement": ["refinement.left", "refinement.right"],
    "power_inner_product": [f"power_inner_product[r={r}]" for r in ("1", "2", "3", "-1")],
    "ando": ["ando"],
    "ando_connection": ["ando_connection"],
    "reverse_ando_convex": ["reverse_ando_convex"],
    "reverse_ando_sandwich": ["reverse_ando_sandwich"],
    "kantorovich_equivalents": [f"kantorovich_equivalents.{form}" for form in
                                ("operator", "scalar", "sharp", "squared")],
    "reverse_choi_quadratic": ["reverse_choi_quadratic"],
    "mond_pecaric": [f"mond_pecaric[alpha={a}]" for a in ("0", "1", "K")],
    "generalized_kantorovich": [f"generalized_kantorovich[p={p}]"
                                for p in ("1", "1.5", "2", "3", "-1")],
    "scalar_power_chain": ["scalar_power_chain[p=2].lower", "scalar_power_chain[p=2].upper"],
    "additive_sqrt": ["additive_sqrt"],
    "minkowski_general": [f"minkowski_general[f={f}].{form}" for f in ("t^1", "t^1.5", "t^2")
                          for form in ("mult", "add")],
    "power_minkowski": [f"power_minkowski[p={p}].{form}" for p in ("1", "1.5", "2")
                        for form in ("mult", "add")],
    "tuple_minkowski": [f"tuple_minkowski[k={k}].{form}" for k in ("1", "3")
                        for form in ("mult", "add")],
    "inverse_square_candidate": ["inverse_square_candidate"],
}


@pytest.mark.parametrize("spec", registry.REGISTRY, ids=lambda spec: spec.name)
def test_every_entry_produces_results(spec):
    (results,) = spec.run_trial([stream(7, spec.name)], 1e-9, (2, 3),
                                registry.DEFAULT_INTERVALS)
    assert all(isinstance(r, CheckResult) for r in results)
    assert [r.check_name for r in results] == RESULT_NAMES[spec.name]


def _fingerprint(per_trial):
    return [[(r.to_record(), repr(r.margin)) for r in results] for results in per_trial]


# dims 2, 3, 5, 8 draw all three map kinds, compressions onto several input
# sizes and pinchings of several ranks, so buckets mix Kraus shapes
@pytest.mark.parametrize("spec", registry.REGISTRY, ids=lambda spec: spec.name)
def test_batch_equals_trials_run_alone(spec):
    dims, trials = (2, 3, 5, 8), 40
    streams = lambda: [stream(13, spec.name, t) for t in range(trials)]
    batch = spec.run_trial(streams(), 1e-9, dims, registry.DEFAULT_INTERVALS)
    alone = [spec.run_trial([rng], 1e-9, dims, registry.DEFAULT_INTERVALS)[0]
             for rng in streams()]
    assert len(batch) == trials
    assert _fingerprint(batch) == _fingerprint(alone)


# tuple draws at dim 32 hold ~180 kB each, more than a bucket takes, and
# fill the batch budget in a few trials; with 2 kB buckets, small draws of
# one key fill several buckets
@pytest.mark.parametrize("name,dims,stack_bytes", [
    ("tuple_minkowski", (32,), None),
    ("minkowski_general", (2, 3), 2048),
], ids=["large-draws", "small-buckets"])
def test_batch_split_by_byte_budget_equals_trials_run_alone(name, dims, stack_bytes,
                                                            monkeypatch):
    if stack_bytes is not None:
        monkeypatch.setattr(registry, "STACK_BYTES", stack_bytes)
    spec = registry.get(name)
    streams = lambda: [stream(5, spec.name, t) for t in range(12)]
    keys = {registry._key(spec.draw(rng, 1e-9, dims, registry.DEFAULT_INTERVALS))
            for rng in streams()}
    stacks = []
    counted = dataclasses.replace(
        spec, check=lambda stack, *args, **kw: stacks.append(stack) or spec.check(stack, *args, **kw))
    batch = counted.run_trial(streams(), 1e-9, dims, registry.DEFAULT_INTERVALS)
    assert len(stacks) // len(spec.params) > len(keys)
    alone = [spec.run_trial([rng], 1e-9, dims, registry.DEFAULT_INTERVALS)[0]
             for rng in streams()]
    assert _fingerprint(batch) == _fingerprint(alone)


def test_statements_are_plain_text():
    for spec in registry.REGISTRY:
        assert spec.statement
        assert "Eq" not in spec.statement and "Thm" not in spec.statement


def test_suite_deterministic():
    kw = dict(seed=11, trials=3, dims=(2, 3), timestamp=False)
    r1 = run_suite(**kw)
    r2 = run_suite(**kw)
    assert r1.to_record() == r2.to_record()


def test_suite_seed_changes_witnesses():
    r1 = run_suite(seed=1, trials=3, dims=(2, 3), timestamp=False,
                   names=["kantorovich"])
    r2 = run_suite(seed=2, trials=3, dims=(2, 3), timestamp=False,
                   names=["kantorovich"])
    assert r1.to_record() != r2.to_record()


def test_suite_green_on_small_run():
    rep = run_suite(seed=5, trials=10, dims=(2, 4), timestamp=False)
    assert rep.ok
    assert not rep.failures
    assert rep.min_margin > -rep.tolerance
    # every expected-to-hold entry contributed at least one record
    seen = {c["entry"] for c in rep.checks}
    assert seen == EXPECTED_NAMES


def test_suite_trial_counts():
    rep = run_suite(seed=5, trials=7, dims=(2,), names=["kantorovich"],
                    timestamp=False)
    (rec,) = rep.checks
    assert rec["trials"] == 7
    assert rec["failures"] == 0


def test_suite_includes_candidate_only_on_request():
    rep = run_suite(seed=5, trials=4, dims=(2,), timestamp=False)
    assert "inverse_square_candidate" not in {c["entry"] for c in rep.checks}
    rep2 = run_suite(seed=5, trials=4, dims=(2,), timestamp=False,
                     include_expected_fail=True)
    assert "inverse_square_candidate" in {c["entry"] for c in rep2.checks}
    # the 2x2 rotation family never actually violates the candidate bound,
    # so a run that demands a violation reports not-ok (honest sensitivity red)
    assert rep2.expected_fail_violations["inverse_square_candidate"] == 0
    assert not rep2.ok


def test_suite_interval_override():
    iv = SpectralInterval(1.0, 2.0)
    rep = run_suite(seed=3, trials=3, dims=(2,), names=["kantorovich"],
                    intervals=[iv], timestamp=False)
    (rec,) = rep.checks
    assert rec["params"]["M"] <= 2.0 + 1e-9


def test_report_schema():
    rep = run_suite(seed=3, trials=2, dims=(2,), names=["ando"], timestamp=True)
    record = rep.to_record()
    for key in ("suite", "seed", "trials", "checks", "min_margin", "failures",
                "tolerance", "dims", "intervals", "ok", "generated_at"):
        assert key in record
    json.dumps(record)  # serializable as-is


def test_matrix_json_roundtrip(rng):
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    h = (x + x.conj().T) / 2
    back = matrix_from_json(matrix_to_json(h))
    np.testing.assert_allclose(back, h, atol=0)
    real = np.eye(2)
    obj = matrix_to_json(real)
    assert "im" not in obj
    np.testing.assert_allclose(matrix_from_json(obj), real, atol=0)


def _congruence():
    anchor = random_spd(2, SpectralInterval(1.0, 3.0), stream(3, "anchor"))
    return induced_congruence(make_rotation_mixture(0.3, 1.1), anchor)


# seeds 0-5 of random_unital_map cover mixtures, pinchings and compressions
@pytest.mark.parametrize("build", [
    lambda: make_rotation_mixture(0.4, 1.2),
    lambda: pinching([[0, 2], [1]], 3),
    lambda: compression(np.eye(4)[:, :2]),
    lambda: direct_sum([scaled(0.5, 2), scaled(0.5, 2)]),
    lambda: identity_map(3),
    lambda: scaled(0.3, 3),
    lambda: direct_sum([random_unital_map(2, stream(3, "ds"))[0]]),
    _congruence,
    *[lambda i=i: random_unital_map(3, stream(i, "roundtrip"))[0] for i in range(6)],
])
def test_map_json_roundtrip(build, rng):
    phi = build()
    back = map_from_json(json.loads(json.dumps(map_to_json(phi))))
    np.testing.assert_array_equal(back.ops, phi.ops)
    np.testing.assert_array_equal(back.weights, phi.weights)
    a = rng.standard_normal((phi.input_dim, phi.input_dim))
    a = (a + a.T) / 2
    np.testing.assert_allclose(back(a), phi(a), atol=0, rtol=0)


@pytest.mark.parametrize("obj", [
    {}, [], {"weights": [1.0]}, {"weights": [1.0], "operators": []},
    {"weights": [1.0, 1.0], "operators": [matrix_to_json(np.eye(2))]},
    {"weights": [-1.0], "operators": [matrix_to_json(np.eye(2))]},
    {"weights": [0.5, 0.5],
     "operators": [matrix_to_json(np.eye(2)), matrix_to_json(np.eye(3))]},
    {"weights": [1.0], "operators": [{"n": 2, "re": [[1.0]]}]},
])
def test_map_from_json_rejects_malformed(obj):
    with pytest.raises(ValueError):
        map_from_json(obj)


def test_dump_and_load_json(tmp_path):
    path = tmp_path / "report.json"
    rec = {"suite": "t", "value": 1.5}
    text = dump_json(rec, str(path))
    assert json.loads(text) == rec
    assert load_json(str(path)) == rec
