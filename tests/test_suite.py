"""Registry coverage, suite determinism, report serialization."""
import contextlib
import dataclasses
import hashlib
import json
import re
import tracemalloc

import numpy as np
import pytest

from opineq import checks, hermitian, means, registry, suite
from opineq.checks import CheckResult
from opineq.cli import EXIT_CHECK_FAILED, main
from opineq.hermitian import DomainError, SpectralInterval, power
from opineq.io import (dump_json, load_json, map_from_json, map_to_json,
                       matrix_from_json, matrix_to_json)
from opineq.generators import DrawBatch, random_spd, random_unital_map
from opineq.maps import (KrausMap, MapStack, compression, direct_sum, identity_map,
                         make_rotation_mixture, pinching, scaled)
from opineq.rng import stream
from opineq.suite import run_suite

from conftest import run_trials

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
    (results,) = run_trials(spec, [stream(7, spec.name)], 1e-9, (2, 3),
                            registry.DEFAULT_INTERVALS)
    assert all(isinstance(r, CheckResult) for r in results)
    assert [r.check_name for r in results] == RESULT_NAMES[spec.name]


@pytest.mark.parametrize("spec", registry.REGISTRY, ids=lambda spec: spec.name)
def test_every_draw_returns_flat_records(spec):
    # a record maps field names to leaves: arrays, maps, intervals, or
    # values shared by a bucket; a draw of several records has one per param
    batch = DrawBatch()
    records = spec.draw(stream(7, spec.name), 1e-9, (2, 3), registry.DEFAULT_INTERVALS, batch)
    batch.finish()
    if isinstance(records, list):
        assert len(records) == len(spec.params) > 1
    else:
        records = [records]
    for record in records:
        assert type(record) is dict and record
        for value in record.values():
            if not isinstance(value, (np.ndarray, KrausMap, SpectralInterval)):
                assert not isinstance(value, (dict, list, tuple, set))
                hash(value)
        spec.instance(**checks._stack([record]))


def _fingerprint(per_trial):
    return [[(r.to_record(), repr(r.margin)) for r in results] for results in per_trial]


# dims 2, 3, 5, 8 draw all three map kinds, compressions onto several input
# sizes and pinchings of several ranks, so buckets mix Kraus shapes
@pytest.mark.parametrize("spec", registry.REGISTRY, ids=lambda spec: spec.name)
def test_batch_equals_trials_run_alone(spec):
    dims, trials = (2, 3, 5, 8), 40
    streams = lambda: [stream(13, spec.name, t) for t in range(trials)]
    batch = run_trials(spec, streams(), 1e-9, dims, registry.DEFAULT_INTERVALS)
    alone = [run_trials(spec, [rng], 1e-9, dims, registry.DEFAULT_INTERVALS)[0]
             for rng in streams()]
    assert len(batch) == trials
    assert _fingerprint(batch) == _fingerprint(alone)


# tuple draws at dim 32 hold ~180 kB each and fill the batch budget in a
# few trials; with a 2 kB budget, small draws of one key are split over
# several flushes
@pytest.mark.parametrize("name,dims,batch_bytes", [
    ("tuple_minkowski", (32,), None),
    ("minkowski_general", (2, 3), 2048),
], ids=["large-draws", "small-flushes"])
def test_batch_split_by_byte_budget_equals_trials_run_alone(name, dims, batch_bytes,
                                                            monkeypatch):
    if batch_bytes is not None:
        monkeypatch.setattr(registry, "BATCH_BYTES", batch_bytes)
    spec = registry.get(name)
    streams = lambda: [stream(5, spec.name, t) for t in range(12)]
    keys = set()
    for rng in streams():
        records = spec.draw(rng, 1e-9, dims, registry.DEFAULT_INTERVALS, DrawBatch())
        keys.add(tuple(map(registry._key, records if isinstance(records, list) else [records])))
    stacks = []
    counted = dataclasses.replace(
        spec, check=lambda stack, *args, **kw: stacks.append(stack) or spec.check(stack, *args, **kw))
    batch = run_trials(counted, streams(), 1e-9, dims, registry.DEFAULT_INTERVALS)
    assert len(stacks) // len(spec.params) > len(keys)
    alone = [run_trials(spec, [rng], 1e-9, dims, registry.DEFAULT_INTERVALS)[0]
             for rng in streams()]
    assert _fingerprint(batch) == _fingerprint(alone)


# with a small budget, evicting the largest buckets evaluates some tuple
# trials' k = 1 and k = 3 records in different rounds, and trials out of
# stream order; each trial still returns what it returns alone, and is
# folded in stream order
@pytest.mark.parametrize("name,batch_bytes", [
    ("tuple_minkowski", 16 << 10),
    ("generalized_kantorovich", 4 << 10),
])
def test_eviction_keeps_each_trials_order(name, batch_bytes, monkeypatch):
    spec, dims, trials = registry.get(name), (2, 3, 5, 8), 40
    streams = lambda: [stream(5, spec.name, t) for t in range(trials)]
    alone = [run_trials(spec, [rng], 1e-9, dims, registry.DEFAULT_INTERVALS)[0]
             for rng in streams()]
    rounds = {}     # (trial, record index) -> the round that evaluated it
    evaluate = registry.CheckSpec._evaluate

    def recording(self, buckets, slots):
        now = max(rounds.values(), default=-1) + 1
        rounds.update(((t, j), now) for (j, _), (_, idx, _) in buckets for t in idx)
        return evaluate(self, buckets, slots)
    taken, folds, batch = [], [], []    # folds: (trial, streams taken by then)

    def drawing():
        for rng in streams():
            taken.append(rng)
            yield rng

    def fold(trial, results):
        folds.append((trial, len(taken)))
        batch.append(results)
    monkeypatch.setattr(registry, "BATCH_BYTES", batch_bytes)
    monkeypatch.setattr(registry.CheckSpec, "_evaluate", recording)
    spec.run_trial(drawing(), 1e-9, dims, registry.DEFAULT_INTERVALS, fold)
    first = [rounds[t, 0] for t in range(trials)]
    assert first != sorted(first)
    # each trial is folded once, in stream order
    assert [t for t, _ in folds] == list(range(trials))
    if name == "tuple_minkowski":
        assert any(rounds[t, 0] != rounds[t, 1] for t in range(trials))
        # the first trial is folded before the last stream is drawn; the
        # first generalized_kantorovich trial waits in a bucket that only
        # the last flush evaluates
        assert folds[0][1] < trials
    assert _fingerprint(batch) == _fingerprint(alone)


# a guard on bucketing and eviction, at the CLI's default of 200 trials
# over dims 2-8 with the 768 kB budget: one bucket per record index and
# output side (every input size of a map's output dimension), largest
# first, checks ando in 7 stacks and tuple_minkowski in 29. At a 384 kB
# budget they took 9 and 50, one bucket per input size 30 and 81, and
# evaluating every held bucket whenever the budget filled 47 and 186. At
# the wide dims 16, 24 and 32 a pinching counts its mask against the
# budget, not a projector stack: kantorovich's 60 trials take 6 stacks
# (at 384 kB, 9, and 17 when the projectors counted)
@pytest.mark.parametrize("name,dims,trials,calls", [
    pytest.param("ando", registry.DEFAULT_DIMS, 200, 7, id="ando"),
    pytest.param("tuple_minkowski", registry.DEFAULT_DIMS, 200, 29, id="tuple_minkowski"),
    pytest.param("kantorovich", (16, 24, 32), 60, 6, id="kantorovich-wide"),
])
def test_default_sweep_bucket_counts(name, dims, trials, calls):
    spec = registry.get(name)
    stacks = []
    counted = dataclasses.replace(
        spec, check=lambda stack, *args, **kw: stacks.append(stack) or spec.check(stack, *args, **kw))
    run_trials(counted, (stream(7, spec.name, t) for t in range(trials)), 1e-9, dims,
               registry.DEFAULT_INTERVALS)
    assert len(stacks) == calls


# a guard on the working set, which the peak-RSS bound watches: an entry at
# the wide dims holds up to the budget of draws and evaluates its largest
# buckets; the traced peaks read 10.15 (tuple_minkowski, the largest of the
# 19) and 9.69 (minkowski_general) times BATCH_BYTES. A round's evaluation
# temporaries grow less than its records: at a 384 kB budget they read
# 11.70 and 11.98
@pytest.mark.parametrize("name,bound", [("tuple_minkowski", 10.8), ("minkowski_general", 10.4)],
                         ids=["tuple_minkowski", "minkowski_general"])
def test_wide_entry_working_set(name, bound):
    spec = registry.get(name)
    run = lambda trials: run_trials(spec, (stream(7, spec.name, t) for t in range(trials)),
                                    1e-9, (16, 24, 32), registry.DEFAULT_INTERVALS)
    run(2)      # caches filled outside the traced run
    tracemalloc.start()
    try:
        run(60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * hermitian.BATCH_BYTES


# a row's constants hook computes the check's keyword arguments for all
# buckets at once, with the f their draws state; the check given None
# computes its own for one bucket
@pytest.mark.parametrize("name", ["mond_pecaric", "minkowski_general"])
def test_constants_hook_gives_the_results_of_the_check_alone(name):
    spec = registry.get(name)
    batch, buckets = DrawBatch(), {}
    for t in range(30):
        record = spec.draw(stream(11, name, t), 1e-9, (2, 3), registry.DEFAULT_INTERVALS, batch)
        buckets.setdefault(registry._key(record), []).append(record)
    batch.finish()
    stacks = [spec.instance(**checks._stack(records)) for records in buckets.values()]
    assert len(stacks) > 1
    for param in spec.params:
        kwargs, lo = spec.constants(stacks, param), 0
        for stack in stacks:
            hi = lo + len(stack.iv)
            hooked = spec.check(stack, param, **{k: v[lo:hi] for k, v in kwargs.items()})
            alone = spec.check(stack, param, **dict.fromkeys(kwargs))
            assert repr(hooked) == repr(alone)     # every field, floats to the bit
            lo = hi


# the rows that draw a map: a bucket of one output size mixes the input
# sizes that compressions draw
DRAWN_MAP = [spec.name for spec in registry.REGISTRY
             if spec.name not in ("power_inner_product", "inverse_square_candidate")]


def _bucket_results(spec, stacks, args):
    """The results of `check(stack, *args)` for each of the stacks, with the
    row's constants computed for all of them at once."""
    extra = spec.constants(stacks, *args) if spec.constants else {}
    out, lo = [], 0
    for stack in stacks:
        hi = lo + len(stack.iv)
        out += spec.check(stack, *args, **{k: v[lo:hi] for k, v in extra.items()})
        lo = hi
    return out


@pytest.mark.parametrize("name", DRAWN_MAP)
def test_bucket_of_mixed_input_sizes_gives_what_its_parts_give_alone(name):
    spec = registry.get(name)
    batch, buckets, listed = DrawBatch(), {}, False
    for t in range(40):
        records = spec.draw(stream(17, name, t), 1e-9, (3,), registry.DEFAULT_INTERVALS, batch)
        listed = isinstance(records, list)     # then record j runs param j only
        record = records[0] if listed else records
        buckets.setdefault(registry._key(record), []).append(record)
    batch.finish()
    records = max(buckets.values(), key=lambda rs: len(registry._parts(rs)))
    parts = [[records[i] for i in idx] for idx in registry._parts(records)]
    assert len(parts) > 1
    whole = spec.instance(**checks._stack(records))
    alone = [spec.instance(**checks._stack(part)) for part in parts]
    calls = [(p,) for p in spec.params] or [()]
    for args in calls[:1] if listed else calls:
        got = _bucket_results(spec, [whole], args)
        assert repr(got) == repr(_bucket_results(spec, alone, args))     # floats to the bit
        results = [r for res in got for r in ([res] if isinstance(res, CheckResult) else res)]
        assert len({r.params["dim"] for r in results}) > 1


# sha256 of the stdout of `opineq <argv>`: the reports a refactor of the
# registry, the checks or the generators keeps byte-identical
@pytest.mark.parametrize("argv,digest", [
    (["suite", "--seed", "42", "--no-timestamp", "--dims", "2,3,4,5,6,7,8", "--trials", "200"],
     "20ebc2091ceafad89753c1a55394860a5aacb97febf9bac07fbea4963c522d70"),
    (["suite", "--seed", "42", "--no-timestamp", "--dims", "16,24,32", "--trials", "60"],
     "4934177eb3571a98cb8fd10e9277381a64ab99cafaeb8c834454ea3af1b9f89f"),
    (["suite", "--seed", "1", "--no-timestamp", "--dims", "2,3,4,5,6,7,8", "--trials", "200",
      "--include-expected-fail"],
     "abcf29cf14f00d06e0824f1a9bf8e62eed211caf77b79896a7edf03e63c67f23"),
    (["falsify", "--name", "kantorovich", "--budget", "50", "--no-timestamp"],
     "4917c02d8fb4b27cd3d3719cd1bc9fc587322245477c1b1c66b2876559a39ef9"),
    (["list"],
     "87a768ebf0a491efad3f3664f5cd649c6320b501e504a304310a9601b4222c28"),
    (["suite", "--seed", "5", "--no-timestamp", "--dims", "9,12,16,20", "--trials", "40"],
     "0f0e09a010764cf2f9a9ca3f5ef9ecf332f7aa6f7d6ba64a175483b3ee3a908a"),
    (["check", "--name", "mond_pecaric", "--name", "tuple_minkowski", "--name",
      "minkowski_general", "--no-timestamp", "--trials", "30"],
     "5f4b43676d2dbdd997763e14715a6f293cf10f8f85c2da9123bda411000da953"),
    (["suite", "--seed", "3", "--no-timestamp", "--dims", "1,2,11", "--trials", "40"],
     "d2d315beb140ddbff15491099d76f41eabcf1c06545763c7525c3915514cb9c7"),
], ids=["suite-small", "suite-wide", "suite-with-candidate", "falsify-random", "list",
        "suite-mid", "check-tuple-minkowski", "suite-dims-1-and-11"])
def test_contract_reports_are_pinned(capsys, argv, digest):
    main(argv)
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest


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


# trials=True once reported 1 trial, and 1.5, "3" or nan stopped on a
# TypeError or a failed conversion; no stream is made before the count is
# checked
@pytest.mark.parametrize("trials,message", [
    (0, "trials must be >= 1"),
    (-3, "trials must be >= 1"),
    (1.5, "trials must be an integer, got 1.5"),
    (True, "trials must be an integer, got True"),
    ("3", "trials must be an integer, got '3'"),
    (float("nan"), "trials must be an integer, got nan"),
], ids=["zero", "negative", "float", "bool", "str", "nan"])
def test_suite_needs_a_count_of_trials(trials, message, monkeypatch):
    monkeypatch.setattr(suite, "streams", lambda *key: pytest.fail("a stream was made"))
    with pytest.raises(ValueError, match=re.escape(message)):
        run_suite(trials=trials, names=["kantorovich"])


# seed=True or 1.5 ran and reported seed 1, and "3" seed 3; dims=(2.5,) ran
# at dim 2, (True,) at dim 1 and ("3",) at dim 3; (0,) and empty dims or
# intervals stopped inside numpy; names=[] reported ok with nothing judged, a
# bare name was read letter by letter and stopped on the unknown name 'k', a
# (m, M) pair stopped on an AttributeError, dims=3, intervals=None and
# names=3 on a TypeError, a list inside names on a TypeError and a number
# among names on a KeyError, and an infinite tolerance made streams before it
# stopped
@pytest.mark.parametrize("kw,message", [
    ({"seed": -1}, "seed must be >= 0, got -1"),
    ({"seed": 1.5}, "seed must be an integer, got 1.5"),
    ({"seed": True}, "seed must be an integer, got True"),
    ({"seed": "3"}, "seed must be an integer, got '3'"),
    ({"dims": (0,)}, "dims entries must be >= 1, got 0"),
    ({"dims": (2, -1)}, "dims entries must be >= 1, got -1"),
    ({"dims": (2.5,)}, "dims entries must be an integer, got 2.5"),
    ({"dims": (True,)}, "dims entries must be an integer, got True"),
    ({"dims": ("3",)}, "dims entries must be an integer, got '3'"),
    ({"dims": ()}, "dims must not be empty"),
    ({"dims": 3}, "dims must be iterable, got 3"),
    ({"intervals": None}, "intervals must be iterable, got None"),
    ({"intervals": []}, "intervals must not be empty"),
    ({"intervals": [SpectralInterval(1.0, 2.0), (1.0, 2.0)]},
     "intervals must hold only SpectralIntervals, "
     "got (SpectralInterval(m=1.0, M=2.0), (1.0, 2.0))"),
    ({"names": []}, "names must be None or a non-empty list of entry names, got []"),
    ({"names": "kantorovich"},
     "names must be None or a non-empty list of entry names, got 'kantorovich'"),
    ({"names": 3}, "names must be None or a non-empty list of entry names, got 3"),
    ({"names": [["a"]]}, "names must be None or a non-empty list of entry names, got [['a']]"),
    ({"names": ["kantorovich", 3]},
     "names must be None or a non-empty list of entry names, got ['kantorovich', 3]"),
    ({"tol": float("inf")}, "tol must be a finite number >= 0, got inf"),
], ids=["seed-negative", "seed-float", "seed-bool", "seed-str", "dims-zero", "dims-negative",
        "dims-float", "dims-bool", "dims-str", "no-dims", "dims-int", "intervals-none",
        "no-intervals", "interval-pair", "no-names", "names-str", "names-int", "names-nested",
        "names-item-int", "tol-inf"])
def test_suite_needs_a_seed_and_dims(kw, message, monkeypatch):
    monkeypatch.setattr(suite, "streams", lambda *key: pytest.fail("a stream was made"))
    with pytest.raises(ValueError, match=re.escape(message)):
        run_suite(**{"names": ["kantorovich"], **kw})


def test_suite_runs_each_name_once_in_order_of_first_appearance():
    kw = dict(seed=3, trials=2, dims=(2,), timestamp=False)
    twice = run_suite(names=["ando", "kantorovich", "ando", "kantorovich"], **kw).to_record()
    assert [c["check_name"] for c in twice["checks"]] == ["ando", "kantorovich"]
    assert twice == run_suite(names=["ando", "kantorovich"], **kw).to_record()


def test_suite_reads_a_generator_of_intervals_once():
    # a generator was emptied by the report's interval list, and the trials
    # then drew from no interval
    kw = dict(seed=3, trials=2, dims=(2, 3), names=["kantorovich"], timestamp=False)
    ivs = registry.DEFAULT_INTERVALS
    assert (run_suite(intervals=(iv for iv in ivs), **kw).to_record()
            == run_suite(intervals=tuple(ivs), **kw).to_record())


def test_suite_includes_candidate_only_on_request():
    rep = run_suite(seed=5, trials=4, dims=(2,), timestamp=False)
    assert "inverse_square_candidate" not in {c["entry"] for c in rep.checks}
    rep2 = run_suite(seed=5, trials=4, dims=(2,), timestamp=False,
                     names=registry.names())
    assert "inverse_square_candidate" in {c["entry"] for c in rep2.checks}
    # the 2x2 rotation family never actually violates the candidate bound,
    # so a run that demands a violation reports not-ok (honest sensitivity red)
    assert rep2.expected_fail_violations["inverse_square_candidate"] == 0
    assert not rep2.ok


@pytest.fixture
def kantorovich_halved(monkeypatch):
    """A planted false statement: Phi(A^-1) <= K Phi(A)^-1 with K = 1/2
    fails on every instance, since Phi(A^-1) >= Phi(A)^-1 (Choi)."""
    monkeypatch.setattr(checks, "kantorovich_constant", lambda iv: 0.5)


def test_suite_records_each_failure(kantorovich_halved):
    rep = run_suite(seed=5, trials=3, dims=(2,), names=["kantorovich"], timestamp=False)
    assert not rep.ok and not rep.to_record()["ok"]
    assert [(f["entry"], f["trial"], f["check_name"]) for f in rep.failures] == [
        ("kantorovich", t, "kantorovich") for t in range(3)]
    for f in rep.failures:
        assert list(f) == ["check_name", "params", "margin", "holds", "tolerance",
                           "lhs_norm", "rhs_norm", "entry", "trial"]
        assert f["holds"] is False and f["margin"] < -f["tolerance"]
        assert f["params"]["constant"] == 0.5 and f["lhs_norm"] > 0 and f["rhs_norm"] > 0
    (rec,) = rep.checks
    assert rec["failures"] == 3 and rec["margin"] == min(f["margin"] for f in rep.failures)
    # an infinite tolerance passed every planted failure, and nan failed
    # every verdict
    for tol in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="tol must be a finite number >= 0"):
            run_suite(seed=5, trials=3, dims=(2,), names=["kantorovich"], tol=tol)


@pytest.mark.parametrize("argv", [
    ["check", "--name", "kantorovich", "--trials", "2", "--dim", "2"],
    ["suite", "--dims", "2", "--trials", "2"],
], ids=["check", "suite"])
def test_a_disagreeing_check_exits_1(capsys, kantorovich_halved, argv):
    assert main(argv + ["--no-timestamp"]) == EXIT_CHECK_FAILED
    rec = json.loads(capsys.readouterr().out)
    assert rec["ok"] is False
    assert {f["entry"] for f in rec["failures"]} >= {"kantorovich"}


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
    """X -> Phi(A)^-1/2 Phi(A^1/2 X A^1/2) Phi(A)^-1/2: the Kraus operators
    A^1/2 K_j Phi(A)^-1/2, full and not unitary."""
    anchor = random_spd(2, SpectralInterval(1.0, 3.0), stream(3, "anchor"))
    base = make_rotation_mixture(0.3, 1.1)
    return KrausMap(power(anchor, 0.5) @ base.ops @ power(base(anchor), -0.5), base.weights)


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


def test_bucket_decomposes_each_operand_once_over_its_params(eigh_inputs):
    # p in {1, 1.5, 2, 3, -1}: without reuse, each part's A and the
    # bucket's Phi(A) would each be decomposed once per p != 1
    spec = registry.get("generalized_kantorovich")
    assert len(spec.params) == 5
    stacks = {}
    counted = dataclasses.replace(
        spec, check=lambda stack, *args: stacks.setdefault(id(stack), stack)
        and spec.check(stack, *args))
    run_trials(counted, [stream(3, spec.name, t) for t in range(8)], 1e-9, (5,),
               registry.DEFAULT_INTERVALS)
    decomposed, operands = list(eigh_inputs), 0
    for stack in stacks.values():
        parts = [a for a, _, _ in stack.parts()]
        for a in parts + stack.images(lambda a, b: [a]):
            assert decomposed.count(a.tobytes()) == 1
        operands += len(parts) + 1
    assert operands > 2 * len(stacks)       # a bucket mixes input sizes
    assert len(decomposed) == operands


def test_spectral_reuse_keeps_report_bytes(monkeypatch, eigh_inputs):
    kwargs = dict(seed=11, trials=3, dims=(16, 24, 32), timestamp=False)
    reused = json.dumps(run_suite(**kwargs).to_record())
    calls = len(eigh_inputs)
    eigh_inputs.clear()
    for module in (registry, means):
        monkeypatch.setattr(module, "spectral_scope", contextlib.nullcontext)
    assert json.dumps(run_suite(**kwargs).to_record()) == reused
    assert calls < len(eigh_inputs)


def test_no_spectral_scope_left_open_after_a_domain_error():
    spec = registry.get("generalized_kantorovich")

    def failing(stack, p):
        power(stack.a, 0.5)         # fills the bucket's memo
        power(-stack.a, 0.5)        # not positive definite: DomainError

    with pytest.raises(DomainError):
        run_trials(dataclasses.replace(spec, check=failing),
                   [stream(1, spec.name, 0)], 1e-9, (3,), registry.DEFAULT_INTERVALS)
    assert hermitian._eigh_memo is None


def test_sweep_call_counts(monkeypatch):
    # a guard on batching, which wall time is too noisy to show: each check
    # maps its operands in one call, runs the Minkowski chains on one stack
    # and judges its forms from one eigvalsh call
    counts = dict.fromkeys(["eigh", "eigvalsh", "map"], 0)

    def counting(fn, key):
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counting(getattr(np.linalg, name), name))
    monkeypatch.setattr(MapStack, "__call__", counting(MapStack.__call__, "map"))
    report = run_suite(seed=7, trials=20, dims=range(2, 9), timestamp=False)
    assert report.to_record()["ok"]
    assert counts["eigh"] <= 602 and counts["eigvalsh"] <= 661 and counts["map"] <= 339, counts
