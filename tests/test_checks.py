"""Single-inequality checks: anchors, guard rails, equality cases."""
import numpy as np
import pytest

from opineq import checks
from opineq.checks import (CheckInstance, check_additive_sqrt, check_ando,
                           check_ando_connection, check_choi_davis,
                           check_generalized_kantorovich_operator,
                           check_kantorovich, check_kantorovich_equivalents,
                           check_kantorovich_sharp, check_kantorovich_squared,
                           check_minkowski_general, check_mond_pecaric,
                           check_power_inner_product, check_power_minkowski,
                           check_refinement, check_reverse_ando_convex,
                           check_reverse_ando_sandwich,
                           check_reverse_choi_quadratic,
                           check_scalar_power_chain, check_tuple_minkowski)
from opineq.constants import kantorovich_constant
from opineq.functions import by_name, power_function
from opineq.generators import (DrawBatch, random_spd, random_state,
                               random_unital_map, sandwiched_pair)
from opineq.hermitian import DomainError, SpectralInterval, loewner_leq
from opineq.maps import MapStack, direct_sum, identity_map, scaled

IV = SpectralInterval(1.0, 2.0)


def make_instance(rng, dim=3, iv=IV, with_state=False, f=None):
    phi, in_dim = random_unital_map(dim, rng)
    a = random_spd(in_dim, iv, rng)
    x = random_state(phi.output_dim, rng) if with_state else None
    return CheckInstance(a=a, phi=phi, iv=iv, x=x, f=f)


def test_instance_tight_bounds(rng):
    a = random_spd(3, IV, rng)
    inst = CheckInstance(a=a, phi=identity_map(3))
    assert abs(inst.iv.m - 1.0) < 1e-9 and abs(inst.iv.M - 2.0) < 1e-9


def test_instance_rejects_interval_missing_spectrum(rng):
    a = random_spd(3, SpectralInterval(1.0, 4.0), rng)
    with pytest.raises(ValueError):
        CheckInstance(a=a, phi=identity_map(3), iv=SpectralInterval(2.0, 4.0))


@pytest.mark.parametrize("a", [np.diag([-1.0, 2.0]), np.full((2, 2), np.nan)],
                         ids=["negative", "nan"])
def test_instance_without_interval_needs_a_positive_spectrum(a):
    # the tight interval is read from the computed spectrum, whose ends the
    # error gives; it is the matrix that is at fault, not an interval rule
    with pytest.raises(DomainError, match=r"not positive definite: computed spectrum \[") as e:
        CheckInstance(a=a, phi=identity_map(2))
    assert not isinstance(e.value, checks.HypothesisError)


@pytest.mark.parametrize("tol", [np.inf, np.nan], ids=["inf", "nan"])
def test_instance_needs_a_finite_tolerance(rng, tol):
    with pytest.raises(ValueError, match="tol must be a finite number >= 0"):
        CheckInstance(a=random_spd(3, IV, rng), phi=identity_map(3), tol=tol)


# A = diag(lo, hi) against [1, 2] at tol 1e-9: the band is 1e-9 times
# max(1, ||A||, the interval's end), about 2e-9 on either side
@pytest.mark.parametrize("lo,hi,inside", [
    (1.0 - 1e-9, 2.0, True), (1.0 - 3e-9, 2.0, False),
    (1.0, 2.0 + 1e-9, True), (1.0, 2.0 + 5e-9, False),
], ids=["below-m-inside", "below-m-outside", "above-M-inside", "above-M-outside"])
def test_instance_containment_tolerance_band(lo, hi, inside):
    make = lambda: CheckInstance(a=np.diag([lo, hi]), phi=identity_map(2),
                                 iv=SpectralInterval(1.0, 2.0), tol=1e-9)
    if inside:
        make()
    else:
        with pytest.raises(ValueError, match=r"sandwich 1\.0 I <= X <= 2\.0 I violated"):
            make()


def _first_error(make, cases):
    for case in cases:
        try:
            make(*case)
        except ValueError as exc:
            return str(exc)
    return None


@pytest.mark.parametrize("broken", [
    {2: "bounds", 4: "bounds"}, {2: "interval", 4: "interval"},
    {2: "bounds", 4: "interval"}, {2: "interval", 4: "bounds"},
], ids=["bounds", "interval", "bounds-then-interval", "interval-then-bounds"])
def test_stacked_instance_rejects_the_first_bad_instance(rng, broken):
    # a stack of sandwiched pairs with two instances broken: B = (10 + i) A
    # breaks B's bounds, a wider A breaks A's interval; the stack names the
    # instance a per-instance loop meets first, with the loop's message
    bounds = SpectralInterval(0.8, 1.6)
    cases = []
    for i in range(6):
        a, b = sandwiched_pair(3, IV, bounds, rng)
        if broken.get(i) == "bounds":
            b = (10.0 + i) * a
        if broken.get(i) == "interval":
            a = random_spd(3, SpectralInterval(1.0, 3.0 + i), rng)
        cases.append((a, b, identity_map(3), IV, bounds))
    make = lambda a, b, phi, iv, bounds: CheckInstance(a=a, b=b, phi=phi, iv=iv, bounds=bounds)
    expected = _first_error(make, cases)
    assert expected is not None
    a, b, phis, ivs, bs = map(list, zip(*cases))
    with pytest.raises(ValueError) as exc:
        make(np.stack(a), np.stack(b), MapStack(phis), ivs, bs)
    assert str(exc.value) == expected


def test_kantorovich_identity_map_margin_formula():
    # identity map, A = diag(m, M): margin is (K-1)/M exactly
    m, M = 1.0, 2.0
    inst = CheckInstance(a=np.diag([m, M]), phi=identity_map(2),
                         iv=SpectralInterval(m, M))
    res = check_kantorovich(inst)
    expected = (kantorovich_constant((m, M)) - 1.0) / M
    assert res.holds
    assert abs(res.margin - expected) < 1e-12


def test_choi_davis_equality_at_identity_map(rng):
    a = random_spd(4, IV, rng)
    inst = CheckInstance(a=a, phi=identity_map(4), f=by_name("t^2"))
    res = check_choi_davis(inst)
    assert res.holds and abs(res.margin) < 1e-10


def test_choi_davis_requires_operator_convex(rng):
    inst = make_instance(rng, f=by_name("t^0.5"))  # concave
    with pytest.raises(DomainError):
        check_choi_davis(inst)


def test_choi_davis_holds_on_random(rng):
    for fname in ("t^2", "t^-1"):
        for _ in range(20):
            inst = make_instance(rng, dim=int(rng.integers(2, 6)),
                                 f=by_name(fname))
            assert check_choi_davis(inst).holds


def test_kantorovich_family_holds(rng):
    for _ in range(20):
        inst = make_instance(rng, dim=int(rng.integers(2, 6)))
        assert check_kantorovich(inst).holds
        assert check_kantorovich_squared(inst).holds
        assert check_kantorovich_sharp(inst).holds


def test_refinement_orders_both_links(rng):
    for _ in range(10):
        inst = make_instance(rng)
        left, right = check_refinement(inst)
        assert left.holds and right.holds
        assert left.check_name.endswith(".left")
        assert right.check_name.endswith(".right")


def test_power_inner_product(rng):
    # a statement about A itself, so the instance uses the identity map
    a = random_spd(4, IV, rng)
    inst = CheckInstance(a=a, phi=identity_map(4), iv=IV,
                         x=random_state(4, rng))
    for r in (1.0, 2.0, 3.0, -1.0):
        assert check_power_inner_product(inst, r).holds
    with pytest.raises(DomainError):
        check_power_inner_product(inst, 0.5)


def test_ando_equality_at_identity_map(rng):
    a, b = random_spd(3, IV, rng), random_spd(3, IV, rng)
    inst = CheckInstance(a=a, b=b, phi=identity_map(3))
    res = check_ando(inst)
    assert res.holds and abs(res.margin) < 1e-10


def test_ando_and_connection_hold(rng):
    f = power_function(1.0 / 3.0, name="t^(1/3)")
    for _ in range(15):
        dim = int(rng.integers(2, 6))
        phi, in_dim = random_unital_map(dim, rng)
        a, b = random_spd(in_dim, IV, rng), random_spd(in_dim, IV, rng)
        inst = CheckInstance(a=a, b=b, phi=phi, f=f)
        assert check_ando(inst).holds
        assert check_ando_connection(inst).holds


def test_ando_connection_requires_normalized_monotone(rng):
    a = random_spd(3, IV, rng)
    inst = CheckInstance(a=a, b=a, phi=identity_map(3), iv=IV,
                         f=by_name("t^2"))  # convex, not a monotone rep
    with pytest.raises(DomainError):
        check_ando_connection(inst)


def test_reverse_ando_convex(rng):
    for _ in range(15):
        dim = int(rng.integers(2, 6))
        phi, in_dim = random_unital_map(dim, rng)
        a, b = random_spd(in_dim, IV, rng), random_spd(in_dim, IV, rng)
        inst = CheckInstance(a=a, b=b, phi=phi, f=by_name("t^2"))
        assert check_reverse_ando_convex(inst).holds


def test_reverse_ando_sandwich(rng):
    iv = SpectralInterval(0.9, 1.4)  # bounds on B relative to A
    bounds = SpectralInterval(iv.m**2, iv.M**2)
    for _ in range(15):
        dim = int(rng.integers(2, 6))
        phi, in_dim = random_unital_map(dim, rng)
        a, b = sandwiched_pair(in_dim, IV, bounds, rng)
        res = check_reverse_ando_sandwich(CheckInstance(a=a, b=b, phi=phi, iv=IV,
                                                        bounds=bounds))
        assert res.holds
        # the constant comes from B's bounds, the reported interval is A's
        assert res.params["constant"] == pytest.approx((iv.M + iv.m) / (2 * np.sqrt(iv.M * iv.m)))
        assert (res.params["m"], res.params["M"]) == (IV.m, IV.M)


def test_reverse_ando_sandwich_rejects_broken_hypothesis(rng):
    phi, in_dim = random_unital_map(3, rng)
    a = random_spd(in_dim, IV, rng)
    b = 10.0 * a  # way outside [m^2 A, M^2 A]
    with pytest.raises(ValueError, match=r"hypothesis 0\.81\*A <= B <= 1\.96\*A fails"):
        CheckInstance(a=a, b=b, phi=phi, iv=IV, bounds=SpectralInterval(0.81, 1.96))


def test_kantorovich_equivalents_all_four(rng):
    inst = make_instance(rng, with_state=True)
    results = check_kantorovich_equivalents(inst)
    assert [r.check_name.rsplit(".", 1)[1] for r in results] == [
        "operator", "scalar", "sharp", "squared"]
    assert all(r.holds for r in results)


def test_reverse_choi_quadratic(rng):
    for _ in range(10):
        dim = int(rng.integers(2, 6))
        phi, in_dim = random_unital_map(dim, rng)
        bounds = SpectralInterval(0.8, 1.6)
        a, b = sandwiched_pair(in_dim, IV, bounds, rng)
        res = check_reverse_choi_quadratic(CheckInstance(a=a, b=b, phi=phi, iv=IV,
                                                         bounds=bounds))
        assert res.holds


def test_mond_pecaric(rng):
    inst = make_instance(rng, with_state=True, f=by_name("t^2"))
    for alpha in (0.0, 1.0, kantorovich_constant(inst.iv)):
        assert check_mond_pecaric(inst, alpha).holds
    labeled = check_mond_pecaric(inst, 1.0, alpha_label="one")
    assert "alpha=one" in labeled.check_name


def test_generalized_kantorovich_operator(rng):
    inst = make_instance(rng)
    for p in (1.0, 1.5, 2.0, 3.0, -1.0):
        res = check_generalized_kantorovich_operator(inst, p)
        assert res.holds, (p, res.margin)


def test_scalar_power_chain(rng):
    inst = make_instance(rng, with_state=True)
    lower, upper = check_scalar_power_chain(inst, 2.0)
    assert lower.holds and upper.holds
    assert lower.check_name.endswith(".lower")


def test_additive_sqrt(rng):
    for _ in range(15):
        inst = make_instance(rng, dim=int(rng.integers(2, 6)))
        assert check_additive_sqrt(inst).holds


def test_minkowski_general_identity_function_is_equality(rng):
    phi, in_dim = random_unital_map(3, rng)
    a, b = random_spd(in_dim, IV, rng), random_spd(in_dim, IV, rng)
    inst = CheckInstance(a=a, b=b, phi=phi, iv=IV)
    mult, add = check_minkowski_general(inst, power_function(1.0))
    assert mult.holds and add.holds
    assert abs(mult.margin) < 1e-10 and abs(add.margin) < 1e-10


def test_minkowski_general_requires_invertible_convex(rng):
    phi, in_dim = random_unital_map(3, rng)
    a, b = random_spd(in_dim, IV, rng), random_spd(in_dim, IV, rng)
    inst = CheckInstance(a=a, b=b, phi=phi, iv=IV)
    with pytest.raises(DomainError):
        check_minkowski_general(inst, by_name("t^0.5"))


def test_power_minkowski(rng):
    for p in (1.0, 1.5, 2.0):
        for _ in range(8):
            dim = int(rng.integers(2, 5))
            phi, in_dim = random_unital_map(dim, rng)
            a, b = random_spd(in_dim, IV, rng), random_spd(in_dim, IV, rng)
            inst = CheckInstance(a=a, b=b, phi=phi, iv=IV)
            mult, add = check_power_minkowski(inst, p)
            assert mult.holds and add.holds
    with pytest.raises(DomainError):
        check_power_minkowski(inst, 3.0)  # needs 1 <= p <= 2


def test_tuple_minkowski(rng):
    k, dim = 3, 3
    batch = DrawBatch()
    a, b = np.zeros((2, k * dim, k * dim), dtype=complex)
    for x in (a, b):
        for lo in range(0, k * dim, dim):
            batch.spd(dim, IV, rng, out=x[lo:lo + dim, lo:lo + dim])
    batch.finish()
    phi = direct_sum([scaled(w, dim) for w in (0.2, 0.3, 0.5)])
    mult, add = check_tuple_minkowski(CheckInstance(a=a, b=b, phi=phi, iv=IV), k)
    assert mult.holds and add.holds
    assert mult.params["k"] == k and mult.params["dim"] == k * dim


def test_result_record_fields(rng):
    inst = make_instance(rng)
    rec = check_kantorovich(inst).to_record()
    for key in ("check_name", "params", "margin", "holds", "tolerance",
                "lhs_norm", "rhs_norm"):
        assert key in rec
    assert rec["params"]["m"] == pytest.approx(1.0, abs=1e-9)


def test_multi_form_operator_equals_separate_comparisons(rng, monkeypatch):
    # one complex LHS against two RHS, one failing by 0.25; a real form with
    # its own LHS and a NaN margin (a complex NaN would not converge)
    b, n = 6, 4
    lhs = np.stack([random_spd(n, SpectralInterval(0.5, 3.0), rng) for _ in range(b)])
    rhs1 = 2.0 * lhs + np.eye(n)
    rhs2 = lhs - 0.25 * np.eye(n)
    lhs3 = np.stack([np.diag(rng.uniform(1.0, 4.0, n)) for _ in range(b)])
    rhs3 = lhs3 + 1e-12 * np.eye(n)
    rhs3[2, 0, 1] = rhs3[2, 1, 0] = np.nan
    forms = [("one", [{"i": i} for i in range(b)], lhs, rhs1),
             ("two", [{"i": i} for i in range(b)], lhs, rhs2),
             ("three", [{"i": i} for i in range(b)], lhs3, rhs3)]
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
    got = checks._operator(1e-9, *forms)
    # per dtype one call: two differences and the three distinct complex
    # operands, then the real difference and its two operands
    assert calls == [(5, b, n, n), (3, b, n, n)]
    monkeypatch.undo()
    for (name, params, l, r), results in zip(forms, got):
        holds, margin, ln, rn = loewner_leq(l, r, 1e-9)
        assert [res.check_name for res in results] == [name] * b
        assert [res.params for res in results] == params
        for field, want in (("margin", margin), ("lhs_norm", ln), ("rhs_norm", rn)):
            assert np.array([getattr(res, field) for res in results]).tobytes() == want.tobytes()
        assert [res.holds for res in results] == holds.tolist()
    assert all(res.holds for res in got[0])
    assert all(res.margin < -0.2 and not res.holds for res in got[1])
    margins = [res.margin for res in got[2]]
    assert np.isnan(margins[2]) and not got[2][2].holds
    assert all(res.holds for i, res in enumerate(got[2]) if i != 2)
