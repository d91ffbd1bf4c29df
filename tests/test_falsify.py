"""Falsifier: formula anchors, grid search, witness re-validation.

The anchors here are derived from the deficit formula itself (degenerate
collapses plus a regression pin of the general point); independent
trace/determinant identities guard the regression values.

The stacked evaluation is checked bit for bit against the per-point code
it replaced, copied below as `ref_counterexample_T`, `ref_candidate_result`
and `ref_grid_violations`: one pair of KrausMaps and one LAPACK call per
matrix at every point.
"""
import dataclasses
import hashlib
import json
import re
import tracemalloc

import numpy as np
import pytest

from opineq import falsify, registry
from opineq.checks import CheckResult
from opineq.cli import main
from opineq.falsify import (CANDIDATE_NAME, DEFAULT_GRID, ViolationReport,
                            candidate_result, counterexample_T,
                            search_violations)
from opineq.hermitian import (DEFAULT_TOL, adjoint, hermitian_part, operator_norm, power,
                              within_tolerance)
from opineq.io import map_to_json, matrix_to_json
from opineq.maps import make_rotation_mixture, require_unitary, rotation
from opineq.rng import stream, streams

from conftest import run_trials


def ref_counterexample_T(x, alpha, beta, tol=DEFAULT_TOL):
    if x <= 0:
        raise ValueError(f"x must be positive, got {x}")
    a = np.diag([float(x), 1.0])
    phi = make_rotation_mixture(alpha, beta)
    pa_invroot = power(phi(a), -0.5)
    pain = phi(np.diag([1.0 / x, 1.0]))
    k = (1.0 + x) ** 2 / (4.0 * x)
    t = k * (pa_invroot @ pain @ pa_invroot) - pain @ pain
    t = (t + t.conj().T) / 2
    w = np.linalg.eigvalsh(t)
    return t, (float(w[0]), float(w[1])), bool(w[0] >= -tol)


def ref_candidate_result(x, alpha, beta, tol=DEFAULT_TOL):
    t, w, _ = ref_counterexample_T(x, alpha, beta, tol)
    phi = make_rotation_mixture(alpha, beta)
    pain = phi(np.diag([1.0 / x, 1.0]))
    lhs = pain @ pain
    rhs = t + lhs
    margin = float(w[0])
    ln, rn = operator_norm(lhs), operator_norm(rhs)
    holds = within_tolerance(margin, tol, ln, rn)
    params = {"x": float(x), "alpha": float(alpha), "beta": float(beta),
              "dim": 2, "out_dim": 2,
              "m": float(min(1.0, x)), "M": float(max(1.0, x))}
    return CheckResult(CANDIDATE_NAME, params, margin, holds, tol, ln, rn)


def ref_grid_violations(grid, tol):
    out = []
    for x in grid["x"]:
        for alpha in grid["alpha"]:
            for beta in grid["beta"]:
                res = ref_candidate_result(x, alpha, beta, tol)
                if res.holds:
                    continue
                t, w, _ = ref_counterexample_T(x, alpha, beta, tol)
                witness = {
                    "x": float(x), "alpha": float(alpha), "beta": float(beta),
                    "a": matrix_to_json(np.diag([float(x), 1.0])),
                    "phi": map_to_json(make_rotation_mixture(alpha, beta)),
                    "deficit": matrix_to_json(t),
                }
                out.append(ViolationReport(CANDIDATE_NAME, witness, res.margin,
                                           [w[0], w[1]], tol))
    return out


def all_norms_grid_violations(grid, tol):
    """The grid's failing points as `candidate_result` judges them, with the
    tolerance scale computed at every point, in one stacked call; T comes
    from the module's `_deficit`, so a monkeypatched one is used."""
    points = grid_points(grid)
    t, w, _ = falsify.counterexample_T(*points, tol)
    out = []
    for i, res in enumerate(candidate_result(*points, tol)):
        if res.holds:
            continue
        x, alpha, beta = (res.params[k] for k in ("x", "alpha", "beta"))
        witness = {"x": x, "alpha": alpha, "beta": beta,
                   "a": matrix_to_json(np.diag([x, 1.0])),
                   "phi": map_to_json(make_rotation_mixture(alpha, beta)),
                   "deficit": matrix_to_json(t[i])}
        out.append(ViolationReport(CANDIDATE_NAME, witness, res.margin, w[i].tolist(), tol))
    return out


def unit_constant_deficit(x, alpha, beta, tol=DEFAULT_TOL):
    """`falsify._deficit` for arrays of points with K replaced by 1, a
    planted false statement (acceptance criterion 3's mutant)."""
    pa, pain = falsify._mixture_images(*falsify._points(x, alpha, beta))
    pa_invroot = power(pa, -0.5)
    t = hermitian_part(pa_invroot @ pain @ pa_invroot - pain @ pain)
    w = np.linalg.eigvalsh(t)
    return t, w, w[..., 0] >= -tol, pain


def shifted_grid(seed):
    """The default grid shifted by a seeded fraction of a step on each axis."""
    dx, da, db = np.random.default_rng(seed).random(3).tolist()
    return {"x": [0.5 * (i + 1 + dx) for i in range(8)],
            "alpha": [(i + da) * np.pi / 12.0 for i in range(12)],
            "beta": [(i + db) * np.pi / 12.0 for i in range(12)]}


GRIDS = [DEFAULT_GRID] + [shifted_grid(seed) for seed in range(5)]


def grid_points(grid):
    """The grid's points as three flat arrays, in search order."""
    return [p.ravel() for p in np.meshgrid(grid["x"], grid["alpha"], grid["beta"],
                                           indexing="ij")]


def random_points(n=200, seed=11):
    g = np.random.default_rng(seed)
    return [g.uniform(0.05, 20.0, n), g.uniform(-np.pi, 2 * np.pi, n),
            g.uniform(-np.pi, 2 * np.pi, n)]


def bits(*values):
    return np.array(values, dtype=float).tobytes()


def records(reports):
    return json.dumps([r.to_record() for r in reports])


@pytest.mark.parametrize("points", [grid_points(g) for g in GRIDS] + [random_points()],
                         ids=["default"] + [f"shifted{i}" for i in range(5)] + ["random"])
def test_stacked_points_match_per_point_reference(points):
    t, w, psd = counterexample_T(*points)
    results = candidate_result(*points)
    assert t.shape == (len(points[0]), 2, 2) and len(results) == len(points[0])
    for i, (x, a, b) in enumerate(zip(*(p.tolist() for p in points))):
        ref_t, ref_w, ref_psd = ref_counterexample_T(x, a, b)
        ref = ref_candidate_result(x, a, b)
        assert t[i].tobytes() == ref_t.tobytes()
        assert bits(*w[i]) == bits(*ref_w) and bool(psd[i]) == ref_psd
        res = results[i]
        assert (bits(res.margin, res.lhs_norm, res.rhs_norm)
                == bits(ref.margin, ref.lhs_norm, ref.rhs_norm))
        assert res.holds is ref.holds and res.params == ref.params


def test_single_point_keeps_its_return_types():
    x, a, b = 2.5, 1.1, 0.2
    t, w, psd = counterexample_T(x, a, b)
    ref_t, ref_w, _ = ref_counterexample_T(x, a, b)
    assert t.shape == (2, 2) and t.tobytes() == ref_t.tobytes()
    assert type(w) is tuple and all(type(v) is float for v in w) and w == ref_w
    assert type(psd) is bool
    res = candidate_result(x, a, b)
    assert isinstance(res, CheckResult)
    assert res.to_record() == ref_candidate_result(x, a, b).to_record()
    assert all(type(v) is float for v in (res.margin, res.lhs_norm, res.rhs_norm))
    assert type(res.holds) is bool


@pytest.mark.parametrize("grid", GRIDS, ids=["default"] + [f"shifted{i}" for i in range(5)])
def test_noise_floor_search_matches_per_point_reference(grid):
    # at tol 1e-18 rounding makes failures, so witnesses are compared too
    got = search_violations(CANDIDATE_NAME, grid=grid, tol=1e-18)
    assert records(got) == records(ref_grid_violations(grid, 1e-18))


@pytest.mark.parametrize("tol", [1e-9, 1e-18, 0.0])
@pytest.mark.parametrize("grid", GRIDS, ids=["default"] + [f"shifted{i}" for i in range(5)])
def test_grid_search_matches_norms_at_every_point(grid, tol):
    got = search_violations(CANDIDATE_NAME, grid=grid, tol=tol)
    assert records(got) == records(all_norms_grid_violations(grid, tol))


def test_planted_mutant_search_matches_norms_at_every_point(monkeypatch):
    monkeypatch.setattr(falsify, "_deficit", unit_constant_deficit)
    got = search_violations(CANDIDATE_NAME)
    assert len(got) == 924
    assert records(got) == records(all_norms_grid_violations(DEFAULT_GRID, DEFAULT_TOL))


def test_candidate_row_matches_per_point_reference():
    spec = registry.get(CANDIDATE_NAME)
    rngs = [stream(42, CANDIDATE_NAME, trial) for trial in range(50)]
    got = run_trials(spec, rngs, DEFAULT_TOL, registry.DEFAULT_DIMS, registry.DEFAULT_INTERVALS)
    for trial, results in enumerate(got):
        rng = stream(42, CANDIDATE_NAME, trial)
        x, a, b = (float(rng.uniform(0.5, 4.0)), float(rng.uniform(0.0, np.pi)),
                   float(rng.uniform(0.0, np.pi)))
        assert [r.to_record() for r in results] == [ref_candidate_result(x, a, b).to_record()]


@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_nonpositive_x_anywhere_is_rejected(bad):
    x = np.array([0.5, 1.0, bad, 2.0])
    with pytest.raises(ValueError, match="x must be positive"):
        counterexample_T(x, np.zeros(4), np.ones(4))
    with pytest.raises(ValueError, match="x must be positive"):
        candidate_result(x, np.zeros(4), np.ones(4))
    with pytest.raises(ValueError, match="x must be positive"):
        search_violations(CANDIDATE_NAME, grid={**DEFAULT_GRID, "x": [1.0, 2.0, bad]})


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("axis", ["x", "alpha", "beta"])
def test_non_finite_point_anywhere_is_rejected(axis, bad):
    point = {"x": np.array([0.5, 1.0, 2.0]), "alpha": np.zeros(3), "beta": np.ones(3)}
    point[axis][1] = bad
    match = f"{axis} must be finite"
    with pytest.raises(ValueError, match=match):
        counterexample_T(*point.values())
    with pytest.raises(ValueError, match=match):
        candidate_result(*point.values())
    with pytest.raises(ValueError, match=match):
        search_violations(CANDIDATE_NAME, grid={**DEFAULT_GRID, axis: [1.0, bad]})


# an infinite tolerance called every T psd, and nan none
@pytest.mark.parametrize("tol", [np.inf, np.nan], ids=["inf", "nan"])
def test_tolerance_must_be_finite(tol):
    with pytest.raises(ValueError, match="tol must be a finite number >= 0"):
        counterexample_T(2.0, np.pi / 3, np.pi / 4, tol=tol)
    with pytest.raises(ValueError, match="tol must be a finite number >= 0"):
        search_violations(CANDIDATE_NAME, tol=tol)


def test_chunked_grid_equals_one_chunk(monkeypatch):
    one = search_violations(CANDIDATE_NAME, tol=1e-18)
    monkeypatch.setattr(falsify, "BATCH_BYTES", 64 * 100)   # 100 points a chunk
    assert records(search_violations(CANDIDATE_NAME, tol=1e-18)) == records(one)


def test_grid_search_makes_a_constant_number_of_linalg_calls_per_chunk(monkeypatch):
    # the per-point search made 6 LAPACK calls per point, 6,912 on the grid;
    # a chunk makes one norm, for the rotations' unitarity: its 2x2 spectra
    # (eigh of Phi(A), eigvalsh of T and, when one of its margins is
    # negative, of the tolerance scale) take the closed form, not LAPACK
    calls, negative = [], []
    for name in ("eigh", "eigvalsh", "eig", "eigvals", "norm", "qr", "inv",
                 "solve", "det", "svd", "cholesky"):
        fn = getattr(np.linalg, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls.append((len(negative), _name))
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    deficit = falsify._deficit

    def counted_deficit(*args):
        negative.append(None)
        out = deficit(*args)
        negative[-1] = bool(np.any(out[1][:, 0] < 0))
        return out
    monkeypatch.setattr(falsify, "_deficit", counted_deficit)

    def assert_calls_per_chunk():
        for c, neg in enumerate(negative, start=1):
            got = sorted(name for k, name in calls if k == c)
            assert got == ["norm"]
        assert len(calls) == len(negative)

    assert search_violations(CANDIDATE_NAME) == []
    assert 0 < len(calls) <= 16 and negative == [True]
    assert_calls_per_chunk()
    monkeypatch.setattr(falsify, "BATCH_BYTES", 64 * 300)   # 4 chunks of <= 300
    seen = set()
    for grid in GRIDS:
        calls.clear()
        negative.clear()
        assert search_violations(CANDIDATE_NAME, grid=grid) == []
        assert len(negative) == 4
        assert_calls_per_chunk()
        seen.update(negative)
    assert seen == {True, False}    # chunks with and without a negative margin


def test_unitarity_is_checked_once_per_distinct_angle(monkeypatch):
    checked = []

    def counted(u):
        checked.append(int(np.prod(u.shape[:-2])))
        return require_unitary(u)
    monkeypatch.setattr(falsify, "require_unitary", counted)
    assert search_violations(CANDIDATE_NAME) == []
    distinct = len(set(DEFAULT_GRID["alpha"]) | set(DEFAULT_GRID["beta"]))
    assert checked and sum(checked) <= distinct


def test_a_planted_non_unitary_rotation_is_still_rejected(monkeypatch):
    bad_angle = DEFAULT_GRID["beta"][7]

    def planted(theta):
        u = rotation(theta)
        u[np.asarray(theta) == bad_angle] *= 1.1
        return u
    monkeypatch.setattr(falsify, "rotation", planted)
    with pytest.raises(ValueError, match="matrix is not unitary"):
        counterexample_T(*grid_points(DEFAULT_GRID))
    with pytest.raises(ValueError, match="matrix is not unitary"):
        search_violations(CANDIDATE_NAME)


@pytest.mark.parametrize("shape", [(300,), (6, 25)])
def test_repeated_and_shuffled_angles_keep_per_point_bits(shape):
    g = np.random.default_rng(5)
    pool = np.array([0.0, -0.0, np.pi / 3, -np.pi / 3, 2.0, 1e-300, 7 * np.pi / 12])
    x = g.uniform(0.05, 20.0, shape)
    alpha, beta = g.choice(pool, shape), g.choice(pool, shape)    # repeats in no order
    t, w, psd = counterexample_T(x, alpha, beta)
    for i in np.ndindex(shape):
        ref_t, ref_w, ref_psd = ref_counterexample_T(x[i], alpha[i], beta[i])
        assert t[i].tobytes() == ref_t.tobytes() and bits(*w[i]) == bits(*ref_w)
        assert bool(psd[i]) == ref_psd


def test_repeated_angles_and_x_keep_per_point_bits():
    # with x drawn from a pool as well, (angle, x) terms repeat in no order
    g = np.random.default_rng(6)
    pool = np.array([0.0, -0.0, np.pi / 3, -np.pi / 3, 2.0, 1e-300, 7 * np.pi / 12])
    x = g.choice([0.5, 1.0, 1e-3, 3.7, 20.0], 300)
    alpha, beta = g.choice(pool, 300), g.choice(pool, 300)
    t, w, psd = counterexample_T(x, alpha, beta)
    results = candidate_result(x, alpha, beta)
    for i, (xi, a, b) in enumerate(zip(x.tolist(), alpha.tolist(), beta.tolist())):
        ref_t, ref_w, ref_psd = ref_counterexample_T(xi, a, b)
        assert t[i].tobytes() == ref_t.tobytes() and bits(*w[i]) == bits(*ref_w)
        assert bool(psd[i]) == ref_psd
        assert results[i].to_record() == ref_candidate_result(xi, a, b).to_record()


@pytest.mark.parametrize("grid", GRIDS, ids=["default"] + [f"shifted{i}" for i in range(5)])
def test_each_term_is_built_once_per_distinct_angle_and_x(grid, monkeypatch):
    # the terms U* diag(x, 1) U and U* diag(1/x, 1) U were once built at
    # every (point, rotation) pair: 2,304 of each on the 1,152-point grid
    built = []

    def counted(u):
        built.append(int(np.prod(u.shape[:-2])))
        return adjoint(u)
    monkeypatch.setattr(falsify, "adjoint", counted)
    assert search_violations(CANDIDATE_NAME, grid=grid) == []
    distinct = len(set(grid["alpha"]) | set(grid["beta"])) * len(set(grid["x"]))
    assert built and sum(built) <= distinct


# a scalar beside arrays once gave one result for all the points (the
# params' zip truncated), a scalar angle beside an array of the other
# stopped in np.stack, and shapes that do not broadcast stopped in matmul
@pytest.mark.parametrize("x,alpha,beta", [
    (1.5, [0.1, 0.2], [0.3, 0.4]),
    ([1.5, 2.5], 0.1, [0.3, -0.0]),
    ([1.5, 2.5], [0.1, 0.2], 0.3),
    ([[1.5], [2.5]], [0.1, 0.2, 7.0], 0.3),
], ids=["scalar-x", "scalar-alpha", "scalar-beta", "two-axes"])
def test_scalar_and_array_points_broadcast(x, alpha, beta):
    points = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (x, alpha, beta)))
    t, w, psd = counterexample_T(x, alpha, beta)
    results = candidate_result(x, alpha, beta)
    assert t.shape == points[0].shape + (2, 2) and len(results) == points[0].size
    for i, (xi, a, b) in enumerate(zip(*(p.ravel().tolist() for p in points))):
        ref_t, ref_w, _ = ref_counterexample_T(xi, a, b)
        assert t.reshape(-1, 2, 2)[i].tobytes() == ref_t.tobytes()
        assert bits(*w.reshape(-1, 2)[i]) == bits(*ref_w)
        assert results[i].to_record() == ref_candidate_result(xi, a, b).to_record()


@pytest.mark.parametrize("call", [counterexample_T, candidate_result])
def test_points_that_do_not_broadcast_are_rejected(call):
    message = "x, alpha and beta must broadcast to one shape, got shapes (2,), (3,) and ()"
    with pytest.raises(ValueError, match=re.escape(message)):
        call([1.5, 2.0], [0.1, 0.2, 0.3], 0.4)


# a bool once read as 0 or 1: x = True evaluated the point x = 1.0
@pytest.mark.parametrize("x,alpha,beta,message", [
    (True, 0.3, 0.5, "x must be numbers, not bools, got True"),
    (2.0, [0.1, np.True_], 0.5, "alpha must be numbers, not bools, got [0.1, np.True_]"),
    ([1.5, 2.0], 0.1, np.array([False, True]),
     "beta must be numbers, not bools, got array([False,  True])"),
], ids=["bool", "numpy-bool-item", "bool-array"])
@pytest.mark.parametrize("call", [counterexample_T, candidate_result])
def test_bool_points_are_rejected(call, x, alpha, beta, message, monkeypatch):
    monkeypatch.setattr(falsify, "_mixture_images", lambda *a: pytest.fail("a point was evaluated"))
    with pytest.raises(ValueError, match=re.escape(message)):
        call(x, alpha, beta)


@pytest.mark.parametrize("argv,digest", [
    (["falsify", "--no-timestamp"],
     "820489b855f45caeb5271401b57126d7b25ca8c1cd8a553e2c3802636b6ae251"),
    (["falsify", "--no-timestamp", "--tol", "1e-18"],
     "c6bfe3fdf009cfa6ca1a5c589c9bdcd296ec929fda5675c1a08410a356e13b12"),
    (["counterexample"],
     "2948e632cd857e1b4928440a359ca50a46a1ac9e2eadcd8949b79de9835975e1"),
], ids=["grid", "grid-noise-floor", "counterexample"])
def test_grid_reports_are_pinned(capsys, argv, digest):
    main(argv)
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest


def test_random_candidate_falsify_report_is_pinned(capsys):
    main(["falsify", "--name", CANDIDATE_NAME, "--budget", "50", "--no-timestamp"])
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == "d96121ebb83e451620b4f467bf926819e8832552bc8308ad73b971991d1d8842"


def test_x_equal_one_collapses_to_zero():
    t, eigs, psd = counterexample_T(1.0, 0.7, 0.3)
    np.testing.assert_allclose(t, np.zeros((2, 2)), atol=1e-12)
    assert psd


def test_zero_angles_reduce_to_diagonal_case():
    # both rotations are the identity, so T = (K-1) A^{-2}
    t, eigs, psd = counterexample_T(2.0, 0.0, 0.0)
    np.testing.assert_allclose(t, np.diag([1.0 / 32.0, 1.0 / 8.0]), atol=1e-12)
    assert psd and abs(eigs[0] - 1.0 / 32.0) < 1e-12


def test_angle_order_is_immaterial():
    t1, _, _ = counterexample_T(3.0, 0.4, 1.3)
    t2, _, _ = counterexample_T(3.0, 1.3, 0.4)
    np.testing.assert_allclose(t1, t2, atol=1e-13)


def test_stated_point_regression():
    # regression pin of the formula's value at (2, pi/3, pi/4)
    t, eigs, psd = counterexample_T(2.0, np.pi / 3, np.pi / 4)
    expected = np.array([[0.08264506, 0.04046644], [0.04046644, 0.06095916]])
    np.testing.assert_allclose(t, expected, atol=1e-8)
    assert abs(eigs[0] - 0.02990817) < 1e-8
    assert abs(eigs[1] - 0.11369605) < 1e-8
    assert psd


def test_eigenvalues_consistent_with_trace_det():
    t, eigs, _ = counterexample_T(2.5, 1.1, 0.2)
    assert abs(sum(eigs) - np.trace(t)) < 1e-12
    assert abs(eigs[0] * eigs[1] - np.linalg.det(t)) < 1e-12


def test_rejects_nonpositive_x():
    with pytest.raises(ValueError):
        counterexample_T(0.0, 0.1, 0.2)


def test_candidate_result_fields():
    res = candidate_result(2.0, np.pi / 3, np.pi / 4)
    assert res.check_name == CANDIDATE_NAME
    assert res.params["x"] == 2.0
    assert res.holds and res.margin > 0


def test_default_grid_shape():
    assert DEFAULT_GRID["x"] == [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]
    assert len(DEFAULT_GRID["alpha"]) == 12 and DEFAULT_GRID["alpha"][0] == 0.0
    assert abs(DEFAULT_GRID["beta"][-1] - 11 * np.pi / 12) < 1e-15


def test_grid_search_finds_nothing_at_honest_tolerance():
    # the family satisfies the candidate bound everywhere on the grid; the
    # claimed refutation does not reproduce from the displayed formula
    reports = search_violations(CANDIDATE_NAME)
    assert reports == []


def test_grid_search_deterministic():
    r1 = search_violations(CANDIDATE_NAME)
    r2 = search_violations(CANDIDATE_NAME)
    assert [r.to_record() for r in r1] == [r.to_record() for r in r2]


def test_unknown_check_rejected():
    with pytest.raises(KeyError):
        search_violations("no_such_check")


# only the candidate has a grid search; any other check with no budget, or
# a budget below 1, once ran no trial and reported no violation, and the
# candidate once ignored a grid given with a budget (this grid alone raises
# on its NaN); a budget of 1.5 or True once ran one trial, and "3" or nan
# stopped on a TypeError or a failed conversion. An empty grid searched the
# default grid, a grid with an empty axis searched no point, and one without
# an axis stopped on a KeyError, and a grid that is not a mapping (3, or a
# list) on an AttributeError. An axis that is a mapping stopped on a
# TypeError, one with a string on a failed conversion, a nested one was
# flattened and searched, and a string that reads as a number was searched
# as a one-point axis. No stream is made and no point evaluated first
@pytest.mark.parametrize("name,kwargs,message", [
    ("kantorovich", {}, "kantorovich has no grid search"),
    ("kantorovich", {"grid": DEFAULT_GRID}, "kantorovich has no grid search"),
    ("kantorovich", {"grid": DEFAULT_GRID, "budget": 5}, "kantorovich has no grid search"),
    (CANDIDATE_NAME, {"grid": {**DEFAULT_GRID, "x": [float("nan")]}, "budget": 3},
     "a grid or a budget of random trials, not both"),
    ("kantorovich", {"budget": 0}, "budget must be >= 1, got 0"),
    ("kantorovich", {"budget": -3}, "budget must be >= 1, got -3"),
    ("kantorovich", {"budget": 1.5}, "budget must be an integer, got 1.5"),
    ("kantorovich", {"budget": True}, "budget must be an integer, got True"),
    ("kantorovich", {"budget": "3"}, "budget must be an integer, got '3'"),
    ("kantorovich", {"budget": float("nan")}, "budget must be an integer, got nan"),
    (CANDIDATE_NAME, {"budget": 1.5}, "budget must be an integer, got 1.5"),
    (CANDIDATE_NAME, {"grid": {}}, "grid needs a non-empty x axis"),
    (CANDIDATE_NAME, {"grid": {"x": [1.0]}}, "grid needs a non-empty alpha axis"),
    (CANDIDATE_NAME, {"grid": {**DEFAULT_GRID, "x": []}}, "grid needs a non-empty x axis"),
    (CANDIDATE_NAME, {"grid": {**DEFAULT_GRID, "alpha": []}},
     "grid needs a non-empty alpha axis"),
    (CANDIDATE_NAME, {"grid": {**DEFAULT_GRID, "beta": []}}, "grid needs a non-empty beta axis"),
    (CANDIDATE_NAME, {"grid": 3}, "grid must be a mapping of x, alpha and beta axes, got 3"),
    (CANDIDATE_NAME, {"grid": [1, 2]},
     "grid must be a mapping of x, alpha and beta axes, got [1, 2]"),
    (CANDIDATE_NAME, {"grid": {**DEFAULT_GRID, "alpha": {1: 2}}},
     "grid's alpha axis must be a flat list of numbers, got {1: 2}"),
    (CANDIDATE_NAME, {"grid": {**DEFAULT_GRID, "x": [1.0, "a"]}},
     "grid's x axis must be a flat list of numbers, got [1.0, 'a']"),
    (CANDIDATE_NAME, {"grid": {**DEFAULT_GRID, "beta": [[0.5, 1.0]]}},
     "grid's beta axis must be a flat list of numbers, got [[0.5, 1.0]]"),
    (CANDIDATE_NAME, {"grid": {**DEFAULT_GRID, "x": "1.5"}},
     "grid's x axis must be a flat list of numbers, got '1.5'"),
    (CANDIDATE_NAME, {"grid": {**DEFAULT_GRID, "x": [True, 2.0]}},
     "grid's x axis must be a flat list of numbers, got [True, 2.0]"),
    (CANDIDATE_NAME, {"grid": {**DEFAULT_GRID, "beta": [0.5, np.True_]}},
     "grid's beta axis must be a flat list of numbers, got [0.5, np.True_]"),
], ids=["no-budget", "grid", "grid-and-budget", "candidate-grid-and-budget", "budget-0",
        "budget-negative", "budget-float", "budget-bool", "budget-str", "budget-nan",
        "candidate-budget-float", "grid-empty", "grid-without-alpha", "grid-empty-x",
        "grid-empty-alpha", "grid-empty-beta", "grid-int", "grid-list", "grid-axis-mapping",
        "grid-axis-str", "grid-axis-nested", "grid-axis-scalar", "grid-axis-bool",
        "grid-axis-numpy-bool"])
def test_random_search_needs_a_budget_and_no_grid(name, kwargs, message, monkeypatch):
    monkeypatch.setattr(falsify, "streams", lambda *key: pytest.fail("a stream was made"))
    monkeypatch.setattr(falsify, "_deficit", lambda *a: pytest.fail("a point was evaluated"))
    with pytest.raises(ValueError, match=re.escape(message)):
        search_violations(name, **kwargs)


def test_random_search_makes_each_stream_as_it_draws(monkeypatch):
    # a list of all `budget` streams, made before the first trial, once
    # held about 1 kB per trial and evaluated no trial for a large budget
    made, at_draw = [], []

    def counting_streams(*key):
        for rng in streams(*key):
            made.append(rng)
            yield rng
    monkeypatch.setattr(falsify, "streams", counting_streams)
    spec = registry.get("kantorovich")
    counted = dataclasses.replace(
        spec, draw=lambda rng, *args: at_draw.append(len(made)) or spec.draw(rng, *args))
    monkeypatch.setitem(registry._BY_NAME, spec.name, counted)
    assert search_violations(spec.name, budget=5, seed=3) == []
    assert at_draw == [1, 2, 3, 4, 5]


# a search once held every trial's results until its last stream, about
# 640 B per trial; folded as they complete, only the trials that wait for an
# earlier one are held. With a 12 kB batch budget, the peak at 1,024 trials
# read 1.02x the peak at 256 (3.14x when every trial was held)
def test_random_search_memory_does_not_grow_with_the_budget(monkeypatch):
    monkeypatch.setattr(registry, "BATCH_BYTES", 12 << 10)
    search_violations("kantorovich", budget=20, seed=1)     # caches filled outside the traced runs
    peaks = []
    for budget in (256, 1024):
        tracemalloc.start()
        try:
            assert search_violations("kantorovich", budget=budget, seed=1) == []
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0]


def test_true_inequalities_produce_no_reports():
    for name in ("kantorovich", "ando", "additive_sqrt"):
        assert search_violations(name, budget=60, seed=3) == []


def test_grid_witness_payload_and_revalidation():
    # tolerance pushed below the noise floor manufactures a reportable
    # failure, exercising the witness serialization without pretending the
    # family genuinely violates the bound at any honest tolerance
    reports = search_violations(CANDIDATE_NAME, tol=1e-18)
    assert reports, "noise-floor run should flag near-zero eigenvalues"
    rep = reports[0]
    for key in ("x", "alpha", "beta", "a", "phi", "deficit"):
        assert key in rep.witness_params
    assert rep.margin < 0
    assert len(rep.eigenvalue_certificate) == 2
    assert rep.revalidate()


def test_random_witness_replay():
    # same trick on an equality case of a true inequality (margin ~ -1e-15)
    reports = search_violations("power_minkowski", budget=10, seed=1, tol=1e-18)
    assert reports
    rep = reports[0]
    assert {"seed", "label", "trial"} <= set(rep.witness_params)
    assert rep.revalidate()
    # a tampered margin no longer re-validates
    bad = ViolationReport(rep.check_name, rep.witness_params,
                          rep.margin - 1.0, rep.eigenvalue_certificate,
                          rep.tolerance)
    assert not bad.revalidate()


def test_revalidate_false_for_holding_point():
    fake = ViolationReport(CANDIDATE_NAME,
                           {"x": 2.0, "alpha": np.pi / 3, "beta": np.pi / 4},
                           -0.11928, [-0.11928, 0.0659892], 1e-9)
    assert not fake.revalidate()


def test_revalidate_false_for_a_result_name_the_trial_does_not_give():
    # a kantorovich trial gives only "kantorovich" results, so none replays
    witness = {"seed": 5, "label": "kantorovich", "trial": 3}
    stray = ViolationReport("kantorovich_sharp", witness, -1.0, [-1.0], DEFAULT_TOL)
    assert falsify._rerun_witness(stray) is None
    assert not stray.revalidate()


def test_to_record_roundtrips_through_json():
    import json
    reports = search_violations(CANDIDATE_NAME, tol=1e-18)
    rec = reports[0].to_record()
    assert json.loads(json.dumps(rec)) == rec
