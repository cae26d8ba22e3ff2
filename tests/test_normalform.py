"""Amplitude-equation coefficients: pinned values, closed-vs-direct routes,
the kappa3(c) quadratic of the series pass against pointwise evaluation,
unit covariance, and the constant-delay reduction as an external
cross-check."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import refvals as RV
from hill_sets import draw_hill_params, hill_params
from oracles import (kappa3_at, normal_form_constant_delay,
                     quadratic_coeffs_closed_form, smul)
from sddhopf import normalform
from sddhopf import (Direction, NoSignChange, ResonanceViolation, SddhopfError,
                     analyze_normal_form, classify_direction, critical_c,
                     critical_frame, find_equilibrium, hes1_params,
                     kappa3_quadratic, quadratic_coeffs, solve_hopf)


def test_frame_solves_the_eigenproblem(frame):
    w, e = frame.omega, frame.eps0
    theta, d, M, N = (np.asarray(v) for v in (frame.theta, frame.d, frame.M, frame.N))
    A = 1j * w * np.eye(2) - e * M - e * N * np.exp(-1j * w)
    assert np.linalg.norm(A @ theta) < 1e-10
    assert np.linalg.norm(A.conj().T @ d) < 1e-10
    # adjoint normalization
    assert d.conj() @ theta == pytest.approx(1.0, abs=1e-12)


def test_frame_matches_pinned_values(frame):
    assert frame.theta[0] == 1.0
    assert frame.theta[1] == pytest.approx(RV.THETA2, rel=1e-12)
    assert frame.d[0] == pytest.approx(RV.D1, rel=1e-12)
    assert frame.d[1] == pytest.approx(RV.D2, rel=1e-10)


@pytest.mark.parametrize("c", [0.0, 0.01])
def test_second_order_coefficients_match_pinned(eq, hopf, frame, c):
    qc = quadratic_coeffs(eq, hopf, frame, c)
    a1, a2 = RV.A_COEFF[c]
    b1, b2 = RV.B_COEFF[c]
    assert qc.a1 == pytest.approx(a1, rel=1e-11)
    assert qc.a2 == pytest.approx(a2, rel=1e-11)
    assert qc.b1 == pytest.approx(b1, rel=1e-11)
    assert qc.b2 == pytest.approx(b2, rel=1e-11)


def _split(qd, qc):
    da = np.array([qd.a1, qd.a2, qd.b1, qd.b2])
    ca = np.array([qc.a1, qc.a2, qc.b1, qc.b2])
    return np.max(np.abs(da - ca)) / np.max(np.abs(da))


def test_direct_and_closed_routes_agree_on_random_sets(eq, hopf, frame):
    # the standard set at the kappa3 nodes and between them first
    for c in (0.0, 0.01, 0.025, 0.05):
        rel = _split(quadratic_coeffs(eq, hopf, frame, c),
                     quadratic_coeffs_closed_form(eq, hopf, frame, c))
        assert rel < 1e-8, "standard set, c = %g: rel %.3e" % (c, rel)
    rng = np.random.default_rng(20260817)
    checked = 0
    draws = 0
    while checked < 100 and draws < 400:
        draws += 1
        p = draw_hill_params(rng)
        try:
            eq = find_equilibrium(p)
            hp = solve_hopf(p.mu_m, p.mu_p, eq.f1 * eq.g1)
            fr = critical_frame(eq, hp)
            qd = quadratic_coeffs(eq, hp, fr, p.c)
            qc = quadratic_coeffs_closed_form(eq, hp, fr, p.c)
        except Exception:
            continue
        rel = _split(qd, qc)
        assert rel < 1e-8, "set %d: rel %.3e" % (draws, rel)
        checked += 1
    assert checked == 100, "only %d of %d draws were usable" % (checked, draws)


def _check_quadratic_matches_pointwise(rep):
    """analyze_normal_form's kappa3(c), from the series pass with c as its
    variable, against a pointwise quadratic_coeffs + kappa3_at evaluation
    at c values from near 0 to past the standard set's c0."""
    eq, hp = rep.eq, rep.hopf
    fr = critical_frame(eq, hp)
    for c in (0.025, 0.03, 0.3, 1.2, rep.c):
        want = kappa3_at(eq, hp, fr, quadratic_coeffs(eq, hp, fr, c))
        got = rep.kappa3 if c == rep.c else rep.poly(c)
        assert abs(got - want) <= 1e-10 * abs(want), (rep.eq, rep.hopf, c, got, want)


def test_kappa3_quadratic_matches_pointwise_on_the_standard_set():
    _check_quadratic_matches_pointwise(analyze_normal_form(hes1_params(c=0.01, eps=6.0)))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(hill_params())
def test_kappa3_is_exactly_quadratic_in_c_property(p):
    try:
        rep = analyze_normal_form(p)
    except SddhopfError:
        assume(False)
    _check_quadratic_matches_pointwise(rep)


@pytest.mark.parametrize("c", [0.0, 0.01, 0.05])
def test_cubic_coefficient_matches_pinned(eq, hopf, frame, c):
    qc = quadratic_coeffs(eq, hopf, frame, c)
    assert frame.kappa1 == pytest.approx(RV.KAPPA1, rel=1e-12)
    assert kappa3_at(eq, hopf, frame, qc) == pytest.approx(RV.KAPPA3[c], rel=1e-10)


def test_cubic_coefficient_is_quadratic_in_c(eq, hopf, frame):
    poly = kappa3_quadratic(eq, hopf, frame)
    # exact three-point fit of the pinned values, highest degree first
    cs = sorted(RV.KAPPA3)
    vals = [RV.KAPPA3[c] for c in cs]
    re_fit = np.polyfit(cs, [v.real for v in vals], 2)
    im_fit = np.polyfit(cs, [v.imag for v in vals], 2)
    assert np.allclose(poly.re_coeffs, re_fit, rtol=1e-8)
    assert np.allclose(poly.im_coeffs, im_fit, rtol=1e-8)
    # and the coefficients of the wide-node fit, which roundoff barely moves
    assert poly.re_coeffs == pytest.approx(RV.KAPPA3_RE_COEFFS, rel=1e-12)
    assert poly.im_coeffs == pytest.approx(RV.KAPPA3_IM_COEFFS, rel=1e-12)
    # a fourth point must sit on the same parabola if the dependence
    # really is quadratic
    c4 = 0.03
    qc4 = quadratic_coeffs(eq, hopf, frame, c4)
    k4 = kappa3_at(eq, hopf, frame, qc4)
    assert np.polyval(poly.re_coeffs, c4) == pytest.approx(k4.real, rel=1e-10)
    assert np.polyval(poly.im_coeffs, c4) == pytest.approx(k4.imag, rel=1e-10)


def test_pruned_product_matches_the_full_product_on_random_signals():
    rng = np.random.default_rng(7)

    def signal():
        keys = {(int(rng.integers(-2, 3)), int(rng.integers(0, 4)),
                 int(rng.integers(0, 3)), int(rng.integers(0, 3)))
                for _ in range(rng.integers(1, 9))}
        return {k: complex(*rng.normal(size=2)) for k in keys}

    resonant = pruned = 0
    for _ in range(500):
        s1, s2 = signal(), signal()
        full = smul(s1, s2)
        want = {k: v for k, v in full.items() if k[1] <= 2 and k[2] <= 1}
        got = normalform._mul(s1, s2)
        assert got.keys() == want.keys()
        for k, v in want.items():
            assert abs(got[k] - v) <= 1e-14 * max(1.0, abs(v)), (s1, s2, k)
        resonant += any(k[:3] == (1, 2, 1) for k in want)
        pruned += len(full) > len(want)
    # enough draws that reach the resonant key, and that drop keys
    assert resonant >= 40 and pruned >= 100


def test_critical_c_matches_pinned(eq, hopf, frame):
    c0 = critical_c(kappa3_quadratic(eq, hopf, frame))
    assert c0 == pytest.approx(RV.C0, rel=1e-10)
    qc = quadratic_coeffs(eq, hopf, frame, c0)
    k3 = kappa3_at(eq, hopf, frame, qc)
    assert abs(k3.real) < 1e-12


def test_direction_classification():
    assert classify_direction(-1e-3 + 1j) is Direction.SUPERCRITICAL
    assert classify_direction(+1e-3 - 1j) is Direction.SUBCRITICAL
    assert classify_direction(1e-20 - 0.004j) is Direction.DEGENERATE


@pytest.mark.parametrize("c,expected", [
    (0.01, Direction.SUPERCRITICAL),
    (0.05, Direction.SUPERCRITICAL),
    (1.2, Direction.SUBCRITICAL),
])
def test_report_direction_flips_across_critical_c(c, expected):
    rep = analyze_normal_form(hes1_params(c=c, eps=6.0))
    assert rep.direction is expected
    assert rep.c == c
    assert rep.c0 == pytest.approx(RV.C0, rel=1e-10)
    assert rep.kappa1 == pytest.approx(RV.KAPPA1, rel=1e-12)


def rescaled(p, k, sx, sy):
    """p in the units where time, x and y read k, sx and sy times smaller:
    t = k T, x = sx X, y = sy Y. The Hill feedback and the linear
    production keep their form, and the threshold law
    tau / k = eps / k + (c sx / k)(X - X(T - tau / k)) sets eps and c."""
    f, g = p.nonlinearity.f, p.nonlinearity.g
    return hes1_params(c=p.c * sx / k, eps=p.eps / k, mu_m=k * p.mu_m,
                       mu_p=k * p.mu_p, alpha_m=k * f.alpha_m / sx,
                       ybar=f.ybar / sy, h=f.h, alpha_p=k * g.slope * sx / sy)


def _c0(rep):
    try:
        return critical_c(rep.poly, c_max=math.inf)
    except NoSignChange:
        return None


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(hill_params(), st.tuples(*[st.floats(-1.0, 1.0).map(lambda e: 10.0 ** e)] * 3))
def test_hopf_point_and_direction_do_not_depend_on_the_units(p, scales):
    k, sx, sy = scales
    try:
        rep = analyze_normal_form(p)
    except SddhopfError:
        assume(False)
    other = analyze_normal_form(rescaled(p, k, sx, sy))
    assert other.hopf.eps0 * k == pytest.approx(rep.hopf.eps0, rel=1e-9)
    assert other.direction is rep.direction
    c0, c0_other = _c0(rep), _c0(other)
    assert (c0 is None) == (c0_other is None)
    if c0 is not None:
        assert c0_other * k / sx == pytest.approx(c0, rel=1e-8)


def test_constant_delay_reduction_matches_general_pipeline(eq, hopf, frame):
    qc = quadratic_coeffs(eq, hopf, frame, 0.0)
    k1_red, k3_red = normal_form_constant_delay(eq, hopf, frame, qc)
    assert k1_red == pytest.approx(frame.kappa1, rel=1e-10)
    assert k3_red == pytest.approx(kappa3_at(eq, hopf, frame, qc), rel=1e-10)
    with pytest.raises(ValueError):
        normal_form_constant_delay(eq, hopf, frame,
                                   quadratic_coeffs(eq, hopf, frame, 0.01))


def test_near_resonant_double_frequency_is_refused(eq, hopf, frame):
    # the standard set is far from resonance; force the guard by raising
    # its threshold above |h(2 i omega)|
    with pytest.raises(ResonanceViolation, match="2 i omega"):
        quadratic_coeffs(eq, hopf, frame, 0.0, resonance_tol=1.0)
