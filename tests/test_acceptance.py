"""Acceptance gate.

One test per criterion, each printing a single verdict line.

Criteria 1 and 3 concern the 2x2 rotation-mixture family of the candidate
Phi(A^-1)^2 <= K Phi(A)^-1/2 Phi(A^-1) Phi(A)^-1/2, A = diag(x, 1),
K = (1+x)^2/4x. On that family the deficit T is positive semidefinite
everywhere: Cayley-Hamilton gives A^-1 = ((1+x) I - A)/x, so for unital
linear Phi, X = Phi(A^-1) = ((1+x) I - Y)/x is a polynomial in Y = Phi(A).
X and Y commute, T = X (K Y^-1 - X), Kantorovich gives K Y^-1 - X >= 0, and
the product of commuting positive matrices is positive. The pinned
reference values PINNED_T and PINNED_EIGS claim a violation at
(2, pi/3, pi/4); trace(PINNED_T) < 0, so they cannot be any T on the
family. Criterion 1 therefore compares `counterexample_T` with a closed-form
reference built here without `opineq.falsify` or `opineq.maps`, and
criterion 3 checks that the falsifier reports nothing on the honest grid
and finds a violation planted by replacing K with 1.
"""
import time

import numpy as np

from opineq import falsify, registry
from opineq.checks import CheckInstance, check_kantorovich
from opineq.constants import (alpha_constant, beta0_constant, beta_p_constant,
                              generalized_kantorovich, kantorovich_constant,
                              mond_pecaric_beta)
from opineq.falsify import counterexample_T, search_violations
from opineq.functions import by_name
from opineq.generators import random_spd
from opineq.hermitian import (DEFAULT_TOL, SpectralInterval, inv_psd,
                              operator_norm, power)
from opineq.maps import identity_map, make_rotation_mixture
from opineq.means import connection, geometric_mean, riccati_residual
from opineq.oracle import (oracle_alpha, oracle_beta0, oracle_beta_p,
                           oracle_generalized_kantorovich, oracle_kantorovich,
                           oracle_mond_pecaric_beta)
from opineq.rng import stream
from opineq.suite import run_suite

PINNED_T = np.array([[0.0624675, -0.0252995], [-0.0252995, -0.115758]])
PINNED_EIGS = (-0.11928, 0.0659892)
INTERVALS = [(1.0, 2.0), (1.0, 4.0), (0.5, 3.0)]


def _verdict(n, ok, detail):
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def _reference_T(x, alpha, beta, k=None):
    """T(x, alpha, beta) = X (k Y^-1 - X) and its ascending eigenvalues,
    with k = (1+x)^2/4x unless given.

    Built from explicit entries, independent of opineq.falsify and
    opineq.maps: R(t)^T diag(x, 1) R(t) has diagonal (x c^2 + s^2,
    x s^2 + c^2) and off-diagonal cs(1-x), which gives Y = Phi(A), and
    Cayley-Hamilton gives X = Phi(A^-1) = ((1+x) I - Y)/x.
    """
    if k is None:
        k = (1.0 + x) ** 2 / (4.0 * x)
    y = np.zeros((2, 2))
    for theta in (alpha, beta):
        c, s = np.cos(theta), np.sin(theta)
        y += 0.5 * np.array([[x * c * c + s * s, c * s * (1.0 - x)],
                             [c * s * (1.0 - x), x * s * s + c * c]])
    xm = ((1.0 + x) * np.eye(2) - y) / x
    t = xm @ (k * np.linalg.inv(y) - xm)
    t = (t + t.T) / 2
    return t, tuple(float(v) for v in np.linalg.eigvalsh(t))


def _unit_constant_deficit(x, alpha, beta, tol=DEFAULT_TOL):
    """`falsify._deficit` with K replaced by 1, a planted false statement.

    Phi(A)^-1/2 Phi(A^-1) Phi(A)^-1/2 >= Phi(A^-1)^2 fails wherever
    Phi(A) Phi(A^-1) != I, since <Y u, u> <Y^-1 u, u> >= 1 by
    Cauchy-Schwarz.
    """
    phi = make_rotation_mixture(alpha, beta)
    pa_invroot = power(phi(np.diag([float(x), 1.0])), -0.5)
    pain = phi(np.diag([1.0 / x, 1.0]))
    t = pa_invroot @ pain @ pa_invroot - pain @ pain
    t = (t + t.conj().T) / 2
    w = np.linalg.eigvalsh(t)
    return t, w, bool(w[0] >= -tol), pain


def _per_point(deficit):
    """`deficit` with the call shape of `falsify._deficit`: a single point
    passes through; equal-shape arrays of points are run point by point and
    their (T, eigenvalues, psd, Phi(A^-1)) come back stacked."""
    def stacked(x, alpha, beta, tol=DEFAULT_TOL):
        if np.ndim(x) == 0:
            return deficit(x, alpha, beta, tol)
        points = zip(*(np.ravel(v).tolist() for v in (x, alpha, beta)))
        ts, ws, psds, pains = zip(*(deficit(*p, tol) for p in points))
        shape = np.shape(x)
        return (np.reshape(ts, shape + (2, 2)), np.reshape(ws, shape + (2,)),
                np.reshape(psds, shape), np.reshape(pains, shape + (2, 2)))
    return stacked


def test_criterion_1_pinned_counterexample_matrix():
    t0 = time.monotonic()
    t, eigs, psd = counterexample_T(2.0, np.pi / 3, np.pi / 4)
    elapsed = time.monotonic() - t0
    ref_t, ref_eigs = _reference_T(2.0, np.pi / 3, np.pi / 4)
    entry_err = float(np.abs(t - ref_t).max())
    eig_err = max(abs(eigs[0] - ref_eigs[0]), abs(eigs[1] - ref_eigs[1]))
    # every T on the family is PSD, so no point can carry the pinned values
    angles = [k * np.pi / 16 for k in range(16)]
    family_min = min(_reference_T(0.25 * j, a, b)[1][0]
                     for j in range(1, 17) for a in angles for b in angles)
    pinned_trace = float(np.trace(PINNED_T))
    ok = (entry_err <= 1e-6 and eig_err <= 1e-5 and psd is True
          and elapsed < 1.0 and family_min >= -1e-12 and pinned_trace < 0)
    _verdict(1, ok,
             f"T(2, pi/3, pi/4) vs closed form: entrywise err "
             f"{entry_err:.4g} (tol 1e-6), eigenvalue err {eig_err:.4g} "
             f"(tol 1e-5), psd={psd}, {elapsed:.3f}s; family min eig "
             f"{family_min:.3g} over 4096 points (tol -1e-12), pinned "
             f"trace {pinned_trace:.4g} < 0 so pinned eigs {PINNED_EIGS} "
             f"cannot occur; computed eigs={eigs}")


def test_criterion_2_internal_consistency():
    t, eigs, _ = counterexample_T(2.0, np.pi / 3, np.pi / 4)
    trace_err = abs(float(np.trace(t)) - (eigs[0] + eigs[1]))
    det_err = abs(float(np.linalg.det(t)) - eigs[0] * eigs[1])
    ok = trace_err <= 1e-9 and det_err <= 1e-9
    _verdict(2, ok, f"trace err {trace_err:.3g}, det err {det_err:.3g} "
                    f"(tol 1e-9 each)")


def test_criterion_3_falsifier_sensitivity(monkeypatch):
    t0 = time.monotonic()
    honest = search_violations("inverse_square_candidate")
    monkeypatch.setattr(falsify, "_deficit", _per_point(_unit_constant_deficit))
    planted = search_violations("inverse_square_candidate")
    elapsed = time.monotonic() - t0
    expected = _reference_T(2.0, np.pi / 3, np.pi / 4, k=1.0)[1][0]
    hit = None
    for rep in planted:
        wp = rep.witness_params
        if (abs(wp.get("x", 0) - 2.0) < 1e-12
                and abs(wp.get("alpha", 0) - np.pi / 3) < 1e-12
                and abs(wp.get("beta", 0) - np.pi / 4) < 1e-12
                and abs(rep.margin - expected) <= 2e-5):
            hit = rep
    replays = hit is not None and hit.revalidate()
    ok = not honest and replays and elapsed < 10.0
    _verdict(3, ok,
             f"honest grid: {len(honest)} violation(s) (expected 0); planted "
             f"K=1 mutant: {len(planted)} violation(s), witness at "
             f"(2, pi/3, pi/4) with closed-form margin {expected:.10g} "
             f"(tol 2e-5): {'found' if hit else 'absent'}, re-validates: "
             f"{replays}; {elapsed:.2f}s (budget 10s)")


def test_suite_counts_planted_violations_of_an_expected_fail_entry(monkeypatch):
    monkeypatch.setattr(falsify, "_deficit", _per_point(_unit_constant_deficit))
    rep = run_suite(names=["inverse_square_candidate"], timestamp=False)
    assert rep.expected_fail_violations["inverse_square_candidate"] > 0
    assert rep.failures == [] and rep.ok


def test_criterion_4_soundness_sweep():
    names = registry.names(expected_to_hold=True)
    t0 = time.monotonic()
    rep = run_suite(seed=42, trials=1000, names=names,
                    dims=(2, 3, 4, 5, 6, 7, 8), tol=1e-9, timestamp=False)
    elapsed = time.monotonic() - t0
    ok = (len(names) == 19 and not rep.failures and elapsed < 60.0)
    _verdict(4, ok,
             f"{len(names)} expected-to-hold checks x 1000 trials, dims 2-8, "
             f"rel tol 1e-9: {len(rep.failures)} failures, min margin "
             f"{rep.min_margin:.3g}, {elapsed:.1f}s (budget 60s)")


def test_criterion_5_constant_oracle_agreement():
    worst = 0.0
    count = 0
    for m, M in INTERVALS:
        iv = (m, M)
        values = [(kantorovich_constant(iv), oracle_kantorovich(m, M))]
        for p in (-1.0, 1.5, 2.0, 3.0):
            values.append((generalized_kantorovich(p, iv),
                           oracle_generalized_kantorovich(p, m, M)))
        for fname in ("t^2", "t^1.5"):
            f = by_name(fname)
            values.append((alpha_constant(f, iv), oracle_alpha(f, m, M)))
        root = by_name("t^0.5")
        values.append((beta0_constant(root, iv), oracle_beta0(root, m, M)))
        for p in (1.25, 1.5, 2.0):
            values.append((beta_p_constant(p, iv), oracle_beta_p(p, m, M)))
        square = by_name("t^2")
        for alpha in (0.0, 1.0, kantorovich_constant(iv)):
            values.append((mond_pecaric_beta(square, iv, alpha),
                           oracle_mond_pecaric_beta(square, m, M, alpha)))
        count += len(values)
        worst = max(worst, max(abs(v - o) for v, o in values))
    closed_form_ok = True
    k2_worst = b2_worst = 0.0
    for m, M in INTERVALS:
        k2 = generalized_kantorovich(2.0, (m, M))
        k2_ref = (M + m) ** 2 / (4 * M * m)
        k2_worst = max(k2_worst, abs(k2 - k2_ref) / k2_ref)
        b2 = beta_p_constant(2.0, (m, M))
        b2_ref = (M - m) ** 2 / (2 * (M + m))
        b2_worst = max(b2_worst, abs(b2 - b2_ref) / b2_ref)
    closed_form_ok = k2_worst <= 1e-12 and b2_worst <= 1e-10
    ok = worst <= 1e-8 and closed_form_ok
    _verdict(5, ok,
             f"{count} constant/oracle pairs, worst abs diff {worst:.3g} "
             f"(tol 1e-8); closed forms: K(2) rel err {k2_worst:.3g} "
             f"(tol 1e-12), additive p=2 rel err {b2_worst:.3g} (tol 1e-10)")


def test_criterion_6_structural_identities():
    rng = stream(42, "acceptance-structural")
    iv = SpectralInterval(0.5, 3.0)
    worst_riccati = worst_sym = worst_cong = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 9))
        a, b = random_spd(n, iv, rng), random_spd(n, iv, rng)
        worst_riccati = max(worst_riccati, riccati_residual(a, b))
        g = geometric_mean(a, b)
        sym = operator_norm(g - geometric_mean(b, a))
        worst_sym = max(worst_sym, sym / max(1.0, operator_norm(g)))
        c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        lhs = c @ g @ c.conj().T
        rhs = geometric_mean(c @ a @ c.conj().T, c @ b @ c.conj().T)
        worst_cong = max(worst_cong,
                         operator_norm(lhs - rhs) / max(1.0, operator_norm(rhs)))
    worst_sharp = worst_inv = 0.0
    root, square = by_name("t^0.5"), by_name("t^2")
    for _ in range(100):
        n = int(rng.integers(2, 9))
        a, b = random_spd(n, iv, rng), random_spd(n, iv, rng)
        worst_sharp = max(worst_sharp,
                          operator_norm(connection(a, b, root) - geometric_mean(a, b)))
        ainv = inv_psd(a)
        worst_inv = max(worst_inv,
                        operator_norm(connection(a, np.eye(n), square) - ainv)
                        / max(1.0, operator_norm(ainv)))
    ok = (worst_riccati <= 1e-9 and worst_sym <= 1e-8 and worst_cong <= 1e-8
          and worst_sharp <= 1e-10 and worst_inv <= 1e-9)
    _verdict(6, ok,
             f"riccati {worst_riccati:.3g} (tol 1e-9), symmetry "
             f"{worst_sym:.3g} / congruence {worst_cong:.3g} (tol 1e-8), "
             f"connection-vs-mean {worst_sharp:.3g} (tol 1e-10), "
             f"connection-vs-inverse {worst_inv:.3g} (tol 1e-9)")


def test_criterion_7_tightness_trend():
    m = 1.0
    margins = []
    for k in range(1, 11):
        Mk = m * (1.0 + 2.0 ** -k)
        a = random_spd(4, SpectralInterval(m, Mk), stream(42, "tightness", k))
        inst = CheckInstance(a=a, phi=identity_map(4),
                             iv=SpectralInterval(m, Mk))
        margins.append(check_kantorovich(inst).margin)
    decreasing = all(margins[i] > margins[i + 1] for i in range(len(margins) - 1))
    ok = decreasing and margins[-1] < 1e-4
    _verdict(7, ok,
             f"margins strictly decreasing: {decreasing}, final "
             f"{margins[-1]:.3g} (< 1e-4); sequence "
             + ", ".join(f"{x:.2e}" for x in margins))
