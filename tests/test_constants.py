"""Reversal constants against hand-derived values and the grid oracle.

The oracle route (dense grid maximum) and the production route (scan plus
golden-section refinement) share no maximizer code; agreement within 1e-8 is
the cross-check the acceptance gate leans on.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opineq.constants import (alpha_constant, beta0_constant, beta_p_constant,
                              chord_coefficients, generalized_kantorovich,
                              golden_max, kantorovich_constant,
                              mond_pecaric_beta)
from opineq.functions import by_name
from opineq.hermitian import DomainError, SpectralInterval
from opineq.oracle import (oracle_alpha, oracle_beta0, oracle_beta_p,
                           oracle_generalized_kantorovich, oracle_kantorovich,
                           oracle_mond_pecaric_beta)

INTERVALS = [(1.0, 2.0), (1.0, 4.0), (0.5, 3.0)]


def test_golden_max_quadratic():
    # argmax localization saturates near sqrt(eps) for a flat-top objective
    arg, val = golden_max(lambda t: 3.0 - (t - 1.0) ** 2, 0.0, 2.0)
    assert abs(arg - 1.0) < 1e-6 and abs(val - 3.0) < 1e-12


def test_golden_max_endpoint():
    arg, val = golden_max(lambda t: t, 0.0, 5.0)
    assert abs(val - 5.0) < 1e-9


def test_chord_interpolates_endpoints():
    f = by_name("t^2")
    chord = chord_coefficients(f, 1.0, 3.0)
    assert abs(chord(1.0) - 1.0) < 1e-12
    assert abs(chord(3.0) - 9.0) < 1e-12
    # slope (f(M)-f(m))/(M-m) = 4, intercept (M f(m) - m f(M))/(M-m) = -3
    assert abs(chord.slope - 4.0) < 1e-12 and abs(chord.intercept + 3.0) < 1e-12


@pytest.mark.parametrize("m,M", [(2.0, 2.0), (2.0, 1.0)])
def test_chord_needs_m_below_M(m, M):
    with pytest.raises(DomainError):
        chord_coefficients(by_name("t^2"), m, M)


def test_by_name_spells_any_power():
    cube = by_name("t^3")    # not in the catalog
    assert (cube.name, cube.power_exponent, float(cube(2.0))) == ("t^3", 3.0, 8.0)
    with pytest.raises(KeyError):
        by_name("t^x")


def test_kantorovich_hand_values():
    assert abs(kantorovich_constant((1.0, 2.0)) - 9.0 / 8.0) < 1e-15
    assert abs(kantorovich_constant((1.0, 4.0)) - 25.0 / 16.0) < 1e-15
    assert abs(kantorovich_constant((1.0, 1.0)) - 1.0) < 1e-15


def test_generalized_kantorovich_special_points():
    iv = (1.0, 2.0)
    assert abs(generalized_kantorovich(2.0, iv) - 9.0 / 8.0) < 1e-14
    assert abs(generalized_kantorovich(-1.0, iv) - 9.0 / 8.0) < 1e-14
    assert generalized_kantorovich(1.0, iv) == 1.0
    assert generalized_kantorovich(0.0, iv) == 1.0


def test_generalized_kantorovich_interior_p_rejected():
    with pytest.raises(DomainError):
        generalized_kantorovich(0.5, (1.0, 2.0))


def test_generalized_kantorovich_cancellation_is_domain_error():
    # m*M^p - M*m^p rounds to exactly 0 here; the ratio form that avoids it
    # is not in place, so the constant refuses rather than divide by zero
    with pytest.raises(DomainError, match="cancels to 0"):
        generalized_kantorovich(1.0000001, (1.0, 1.000000001))


def test_generalized_kantorovich_inner_cancellation_is_domain_error():
    # for p just below 0 the inner factor rounds to -0.0, and Python's
    # 0.0 ** p with p < 0 would raise ZeroDivisionError
    with pytest.raises(DomainError, match="positive in exact arithmetic"):
        generalized_kantorovich(-2.636559007040525e-05,
                                (6.103617184218336, 6.103617184225374))


@pytest.mark.parametrize("m,M", INTERVALS)
def test_k2_closed_form(m, M):
    ref = (M + m) ** 2 / (4 * M * m)
    assert abs(generalized_kantorovich(2.0, (m, M)) - ref) <= 1e-12 * ref


def test_alpha_hand_value():
    # chord of t^2 over [1,2] is 3t-2; (3t-2)/t^2 peaks at t = 4/3 with value 9/8
    f = by_name("t^2")
    assert abs(alpha_constant(f, (1.0, 2.0)) - 9.0 / 8.0) < 1e-10


def test_alpha_of_linear_is_one():
    assert abs(alpha_constant(by_name("t"), (0.5, 3.0)) - 1.0) < 1e-12


def test_alpha_needs_f_positive():
    with pytest.raises(DomainError):
        alpha_constant(by_name("log"), (1.0, 2.0))   # log 1 = 0


def test_alpha_degenerate_interval():
    assert alpha_constant(by_name("t^2"), (2.0, 2.0)) == 1.0


def test_beta0_hand_value():
    # sqrt over [1,4]: max of sqrt(t) - (t+2)/3 at t = 9/4 is 1/12
    f = by_name("t^0.5")
    assert abs(beta0_constant(f, (1.0, 4.0)) - 1.0 / 12.0) < 1e-10
    assert beta0_constant(f, (3.0, 3.0)) == 0.0


def test_beta_p_closed_forms():
    assert abs(beta_p_constant(2.0, (1.0, 2.0)) - 1.0 / 6.0) < 1e-12
    for m, M in INTERVALS:
        ref = (M - m) ** 2 / (2 * (M + m))
        assert abs(beta_p_constant(2.0, (m, M)) - ref) <= 1e-10 * ref
    assert beta_p_constant(1.0, (1.0, 2.0)) == 0.0
    with pytest.raises(DomainError):
        beta_p_constant(0.5, (1.0, 2.0))


def test_beta_p_near_coincident_endpoints_is_nonnegative():
    # the closed form loses every digit here and once returned -1.4e-3
    iv = (63.36578001821514, 63.365780018239555)
    assert beta_p_constant(1.0000728291824297, iv) >= 0.0


@settings(max_examples=300, deadline=None)
@given(m=st.floats(1e-3, 1e3), ratio=st.floats(1.0, 1.0 + 1e-6),
       p=st.floats(1.0, 1.0 + 1e-3))
def test_constants_keep_their_range_near_the_edges(m, ratio, p):
    iv = (m, m * ratio)
    assert beta_p_constant(p, iv) >= 0.0
    try:
        k = generalized_kantorovich(p, iv)
    except DomainError:   # m*M^p - M*m^p cancels to 0; the ratio form is open
        return
    assert k >= 1.0


def test_mond_pecaric_hand_values():
    f = by_name("t^2")
    iv = (1.0, 2.0)
    # alpha = 1: max of (3t-2) - t^2 at t = 3/2 is 1/4
    assert abs(mond_pecaric_beta(f, iv, 1.0) - 0.25) < 1e-10
    # alpha = 0: plain chord maximum, attained at M
    assert abs(mond_pecaric_beta(f, iv, 0.0) - 4.0) < 1e-10


def test_mond_pecaric_degenerate():
    f = by_name("t^2")
    assert abs(mond_pecaric_beta(f, (2.0, 2.0), 0.5) - 0.5 * 4.0) < 1e-12


def test_interval_validation():
    with pytest.raises(DomainError):
        kantorovich_constant((0.0, 1.0))
    with pytest.raises(DomainError):
        alpha_constant(by_name("t^2"), (2.0, 1.0))


def test_accepts_spectral_interval_objects():
    iv = SpectralInterval(1.0, 2.0)
    assert kantorovich_constant(iv) == kantorovich_constant((1.0, 2.0))


# dual-route agreement (the acceptance gate re-runs this at full scope)

@pytest.mark.parametrize("m,M", INTERVALS)
def test_oracle_agreement_kantorovich(m, M):
    assert abs(kantorovich_constant((m, M)) - oracle_kantorovich(m, M)) < 1e-8


@pytest.mark.parametrize("m,M", INTERVALS)
@pytest.mark.parametrize("p", [-1.0, 1.5, 2.0, 3.0])
def test_oracle_agreement_generalized(m, M, p):
    got = generalized_kantorovich(p, (m, M))
    assert abs(got - oracle_generalized_kantorovich(p, m, M)) < 1e-8


# brackets above about 4096 end where they stop shrinking (see golden_max)
@pytest.mark.parametrize("m,M", INTERVALS + [(1e4, 2e4)])
@pytest.mark.parametrize("fname", ["t^2", "t^1.5"])
def test_oracle_agreement_alpha(m, M, fname):
    f = by_name(fname)
    assert abs(alpha_constant(f, (m, M)) - oracle_alpha(f, m, M)) < 1e-8


@pytest.mark.parametrize("m,M", INTERVALS + [(1.0, 1e6)])
def test_oracle_agreement_beta0(m, M):
    f = by_name("t^0.5")
    assert abs(beta0_constant(f, (m, M)) - oracle_beta0(f, m, M)) < 1e-8


@pytest.mark.parametrize("m,M", INTERVALS)
@pytest.mark.parametrize("p", [1.25, 1.5, 2.0])
def test_oracle_agreement_beta_p(m, M, p):
    assert abs(beta_p_constant(p, (m, M)) - oracle_beta_p(p, m, M)) < 1e-8


@pytest.mark.parametrize("m,M", INTERVALS)
@pytest.mark.parametrize("alpha", [0.0, 1.0, 1.7])
def test_oracle_agreement_mond_pecaric(m, M, alpha):
    f = by_name("t^2")
    got = mond_pecaric_beta(f, (m, M), alpha)
    assert abs(got - oracle_mond_pecaric_beta(f, m, M, alpha)) < 1e-8


def test_chord_dominates_convex_function():
    # the scalar fact behind every beta: chord >= f on [m, M] for convex f
    f = by_name("t^2")
    chord = chord_coefficients(f, 0.5, 3.0)
    ts = np.linspace(0.5, 3.0, 501)
    assert (chord(ts) - ts**2 >= -1e-12).all()


_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


def _scalar_golden_max(f, lo, hi, xtol=1e-12, scan_points=4096):
    """One bracket at a time: 4096-point scan, then golden section in the
    best bracket, on Python floats. Returns (argmax, value, steps, refined),
    `refined` telling whether the golden-section point beat the scan."""
    if hi == lo:
        return lo, float(f(np.asarray(lo, dtype=float))), 0, False
    xs = np.linspace(lo, hi, scan_points)
    vals = np.asarray(f(xs), dtype=float)
    k = int(np.argmax(vals))
    best = float(vals[k])
    a, b = float(xs[max(k - 1, 0)]), float(xs[min(k + 1, scan_points - 1)])
    c, d = b - _INVPHI * (b - a), a + _INVPHI * (b - a)
    fc, fd = float(f(np.asarray(c))), float(f(np.asarray(d)))
    steps, width = 0, b - a
    while width > xtol:
        steps += 1
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = float(f(np.asarray(c)))
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = float(f(np.asarray(d)))
        if not b - a < width:   # the bracket no longer shrinks
            break
        width = b - a
    x = (a + b) / 2.0
    fx = float(f(np.asarray(x)))
    if fx >= best:
        return x, fx, steps, True
    return float(xs[k]), best, steps, False


def _lane_objective(t, s, c, al):
    # concave, with its maximum at t* = (s / (1.5 al))^2
    return (s * t + c) - al * np.asarray(t, dtype=float) ** 1.5


@pytest.mark.parametrize("lanes", [1, 2, 37])
def test_golden_max_lockstep_matches_scalar_search(lanes):
    g = np.random.default_rng(lanes)
    s, c, al = g.uniform(0.5, 3.0, lanes), g.uniform(-1.0, 1.0, lanes), g.uniform(0.5, 2.0, lanes)
    top = (s / (1.5 * al)) ** 2
    # brackets around the maximum, of widths from 1e-9 t* to t*/2, so the
    # lanes take different numbers of steps; every fifth is a single point
    width = top * 10.0 ** g.uniform(-9.0, -0.3, lanes)
    lo = top - width * g.uniform(0.1, 0.9, lanes)
    hi = lo + width
    hi[::5] = lo[::5]
    # and one more lane, whose scan step (hi - lo) / 4095 underflows to 0
    lo, hi = np.append(lo, 5e-324), np.append(hi, 1.5e-323)
    s, c, al = np.append(s, 1.0), np.append(c, 0.0), np.append(al, 1.0)
    arg, value = golden_max(_lane_objective, lo, hi, s, c, al)
    steps, refined = set(), 0
    for i in range(lanes + 1):
        ref = _scalar_golden_max(lambda t: _lane_objective(t, s[i], c[i], al[i]),
                                 float(lo[i]), float(hi[i]))
        assert ((repr(float(arg[i])), repr(float(value[i])))
                == (repr(float(ref[0])), repr(float(ref[1]))))
        steps.add(ref[2])
        refined += ref[3]
    if lanes > 2:
        assert len(steps) > 5 and refined > 5


def test_golden_max_stops_where_the_bracket_stops_shrinking():
    # above about 4096 floats are spaced wider than XTOL, so a bracket stops
    # shrinking before it is narrower than XTOL; each lane then stops where
    # the scalar search does
    lo, hi, top = np.array([1e4, 5e5, 1.0]), np.array([2e4, 1e6, 2.0]), np.array([1.5e4, 7.5e5, 1.5])
    al = np.ones(3)
    s, c = 1.5 * al * np.sqrt(top), np.zeros(3)
    arg, value = golden_max(_lane_objective, lo, hi, s, c, al)
    for i in range(3):
        ref = _scalar_golden_max(lambda t: _lane_objective(t, s[i], c[i], al[i]),
                                 float(lo[i]), float(hi[i]))
        assert ((repr(float(arg[i])), repr(float(value[i])))
                == (repr(float(ref[0])), repr(float(ref[1]))))


def test_golden_max_single_lane_returns_floats():
    f = lambda t: 3.0 - (t - 1.0) ** 2
    arg, value = golden_max(f, 0.0, 2.0)
    assert type(arg) is float and type(value) is float
    assert (arg, value) == _scalar_golden_max(f, 0.0, 2.0)[:2]
    assert golden_max(f, 1.5, 1.5) == (1.5, 2.75)


def test_golden_max_rejects_empty_bracket():
    with pytest.raises(ValueError, match="empty interval"):
        golden_max(lambda t: t, np.array([0.0, 2.0]), np.array([1.0, 1.0]))


def test_searched_constants_take_interval_lists():
    # one lockstep search over many intervals gives each interval's constant
    ivs = [(1.0, 2.0), (1.0, 4.0), (0.5, 3.0), (2.0, 2.0)]
    f = by_name("t^2")
    for lanes, one in ((alpha_constant(f, ivs), lambda iv: alpha_constant(f, iv)),
                       (beta0_constant(by_name("t^0.5"), ivs),
                        lambda iv: beta0_constant(by_name("t^0.5"), iv)),
                       (mond_pecaric_beta(f, ivs, [0.0, 1.0, 1.7, 0.5]), None)):
        expected = ([one(iv) for iv in ivs] if one else
                    [mond_pecaric_beta(f, iv, a) for iv, a in zip(ivs, [0.0, 1.0, 1.7, 0.5])])
        assert [repr(v) for v in lanes.tolist()] == [repr(v) for v in expected]


def test_chord_constants_on_near_point_intervals():
    # the tight interval of a 3 I spectrum is a few ulp wide: there
    # f(M) - f(m) cancels, so the constants take their point values, and
    # they never fall below their values at the endpoints
    near = [(3.0 - 2 * np.spacing(3.0), 3.0 + 2 * np.spacing(3.0)), (2.0, 2.000000001),
            (1.0, 1.0000001)]
    for f in (by_name("t"), by_name("t^1.5"), by_name("t^2")):
        assert alpha_constant(f, near[0]) == 1.0 and beta0_constant(f, near[0]) == 0.0
        for iv in near:
            alpha, beta0 = alpha_constant(f, iv), beta0_constant(f, iv)
            assert type(alpha) is float and type(beta0) is float
            assert alpha >= 1.0 and beta0 >= 0.0
        lanes = alpha_constant(f, near), beta0_constant(f, near)
        assert all(isinstance(v, np.ndarray) for v in lanes)
        assert (lanes[0] >= 1.0).all() and (lanes[1] >= 0.0).all()
    assert mond_pecaric_beta(by_name("t^2"), near[0], 0.5) == 0.5 * near[0][0] ** 2


def test_objective_not_finite_is_a_domain_error():
    with pytest.raises(DomainError, match="objective is not finite"):
        alpha_constant(by_name("t^-1"), (1e-300, 1e300))
