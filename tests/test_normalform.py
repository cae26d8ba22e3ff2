"""Amplitude-equation coefficients: pinned values, closed-vs-direct routes,
the exact three-node read of kappa3(c), and the constant-delay reduction
as an external cross-check."""

import numpy as np
import pytest
from hypothesis import assume, given, settings

import refvals as RV
from hill_sets import draw_hill_params, hill_params
from oracles import (normal_form_constant_delay, quadratic_coeffs_closed_form,
                     resonant_by_full_product)
from sddhopf import normalform
from sddhopf import (Direction, ResonanceViolation, SddhopfError,
                     analyze_normal_form, classify_direction, critical_c,
                     critical_frame, find_equilibrium, hes1_params,
                     kappa3_quadratic, normal_form, quadratic_coeffs,
                     solve_hopf)


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


def _check_read_matches_pointwise(rep):
    """analyze_normal_form's kappa3(c), read from the three nodes, against
    a pointwise quadratic_coeffs + normal_form evaluation, off the nodes
    and far outside their span."""
    eq, hp = rep.eq, rep.hopf
    fr = critical_frame(eq, hp)
    for c in (0.025, 0.03, 0.3, 1.2, rep.c):
        want = normal_form(eq, hp, fr, quadratic_coeffs(eq, hp, fr, c)).kappa3
        got = rep.kappa3 if c == rep.c else rep.poly(c)
        assert abs(got - want) <= 1e-10 * abs(want), (rep.eq, rep.hopf, c, got, want)


def test_kappa3_read_from_the_nodes_is_exact_on_the_standard_set():
    _check_read_matches_pointwise(analyze_normal_form(hes1_params(c=0.01, eps=6.0)))


def test_kappa3_read_from_the_nodes_is_exact_on_random_sets():
    rng = np.random.default_rng(20261018)
    checked, draws = 0, 0
    while checked < 50 and draws < 200:
        draws += 1
        try:
            rep = analyze_normal_form(draw_hill_params(rng))
        except SddhopfError:
            continue
        _check_read_matches_pointwise(rep)
        checked += 1
    assert checked == 50, "only %d of %d draws were usable" % (checked, draws)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(hill_params())
def test_kappa3_is_exactly_quadratic_in_c_property(p):
    try:
        rep = analyze_normal_form(p)
    except SddhopfError:
        assume(False)
    _check_read_matches_pointwise(rep)


@pytest.mark.parametrize("c", [0.0, 0.01, 0.05])
def test_cubic_coefficient_matches_pinned(eq, hopf, frame, c):
    qc = quadratic_coeffs(eq, hopf, frame, c)
    nf = normal_form(eq, hopf, frame, qc, c=c)
    assert nf.kappa1 == pytest.approx(RV.KAPPA1, rel=1e-12)
    assert nf.kappa3 == pytest.approx(RV.KAPPA3[c], rel=1e-10)


def test_cubic_coefficient_is_quadratic_in_c(eq, hopf, frame):
    poly = kappa3_quadratic(eq, hopf, frame)
    # exact three-point fit of the pinned values, highest degree first
    cs = sorted(RV.KAPPA3)
    vals = [RV.KAPPA3[c] for c in cs]
    re_fit = np.polyfit(cs, [v.real for v in vals], 2)
    im_fit = np.polyfit(cs, [v.imag for v in vals], 2)
    assert np.allclose(poly.re_coeffs, re_fit, rtol=1e-8)
    assert np.allclose(poly.im_coeffs, im_fit, rtol=1e-8)
    # a fourth point must sit on the same parabola if the dependence
    # really is quadratic
    c4 = 0.03
    qc4 = quadratic_coeffs(eq, hopf, frame, c4)
    k4 = normal_form(eq, hopf, frame, qc4, c=c4).kappa3
    assert np.polyval(poly.re_coeffs, c4) == pytest.approx(k4.real, rel=1e-10)
    assert np.polyval(poly.im_coeffs, c4) == pytest.approx(k4.imag, rel=1e-10)


@pytest.mark.parametrize("c", [0.0, 0.01, 0.05])
def test_resonant_read_matches_the_full_product_on_every_chi_triple(
        monkeypatch, eq, hopf, frame, c):
    triples = []

    def recorded(coeff_and_signals):
        triples.extend(coeff_and_signals)
        return resonant(coeff_and_signals)

    resonant = normalform._resonant
    monkeypatch.setattr(normalform, "_resonant", recorded)
    normal_form(eq, hopf, frame, quadratic_coeffs(eq, hopf, frame, c))
    assert len(triples) == 27
    for _, *signals in triples:
        # unit coefficient: the c-multiplied ones vanish at c = 0
        triple = (1.0, *signals)
        want = resonant_by_full_product(*triple)
        assert abs(resonant([triple]) - want) <= 1e-14 * abs(want), triple


def test_resonant_read_matches_the_full_product_on_random_signals():
    rng = np.random.default_rng(7)

    def signal():
        keys = {(int(rng.integers(-2, 3)), int(rng.integers(0, 3)),
                 int(rng.integers(0, 2))) for _ in range(rng.integers(1, 9))}
        return {k: complex(*rng.normal(size=2)) for k in keys}

    hits = 0
    for _ in range(500):
        triple = (complex(*rng.normal(size=2)), signal(), signal(), signal())
        want = resonant_by_full_product(*triple)
        got = normalform._resonant([triple])
        assert abs(got - want) <= 1e-14 * abs(want), triple
        hits += want != 0
    assert hits >= 100          # enough draws with a resonant term


def test_critical_c_matches_pinned(eq, hopf, frame):
    c0 = critical_c(kappa3_quadratic(eq, hopf, frame))
    assert c0 == pytest.approx(RV.C0, rel=1e-10)
    qc = quadratic_coeffs(eq, hopf, frame, c0)
    k3 = normal_form(eq, hopf, frame, qc, c=c0).kappa3
    assert abs(k3.real) < 1e-12


def test_direction_classification():
    assert classify_direction(-1e-3 + 1j) is Direction.SUPERCRITICAL
    assert classify_direction(+1e-3 - 1j) is Direction.SUBCRITICAL
    assert classify_direction(1e-20 - 0.004j) is Direction.DEGENERATE


@pytest.mark.parametrize("c,expected", [
    (0.01, Direction.SUPERCRITICAL),
    (0.025, Direction.SUBCRITICAL),
])
def test_report_direction_flips_across_critical_c(c, expected):
    rep = analyze_normal_form(hes1_params(c=c, eps=6.0))
    assert rep.direction is expected
    assert rep.c == c
    assert rep.c0 == pytest.approx(RV.C0, rel=1e-10)
    assert rep.kappa1 == pytest.approx(RV.KAPPA1, rel=1e-12)


def test_constant_delay_reduction_matches_general_pipeline(eq, hopf, frame):
    qc = quadratic_coeffs(eq, hopf, frame, 0.0)
    general = normal_form(eq, hopf, frame, qc, c=0.0)
    k1_red, k3_red = normal_form_constant_delay(eq, hopf, frame, qc)
    assert k1_red == pytest.approx(general.kappa1, rel=1e-10)
    assert k3_red == pytest.approx(general.kappa3, rel=1e-10)
    with pytest.raises(ValueError):
        normal_form_constant_delay(eq, hopf, frame,
                                   quadratic_coeffs(eq, hopf, frame, 0.01))


def test_near_resonant_double_frequency_is_refused(eq, hopf, frame):
    # the standard set is far from resonance; force the guard by raising
    # its threshold above |h(2 i omega)|
    with pytest.raises(ResonanceViolation, match="2 i omega"):
        quadratic_coeffs(eq, hopf, frame, 0.0, resonance_tol=1.0)
