"""Characteristic-equation machinery against the pinned crossing data.

The frozen numbers in refvals come from an independent prototype; the
closed-form route and the direct 2-equation route are also played against
each other, and the winding counter gives a third, geometry-based vote.
"""

import math

import pytest

import refvals as RV
from oracles import (characteristic_root_near, solve_beta, solve_hopf_direct,
                     winding_count)
from sddhopf import (CharParams, Equilibrium, HypothesisViolated,
                     StabilityKind, UnhandledRegime,
                     char_eval, classify_stability,
                     find_equilibrium, solve_hopf,
                     transversality,
                     NonlinearitySpec, ZeroMap, ModelParams)


def standard_cp(eps):
    return CharParams(mu_m=0.03, mu_p=0.04, p=RV.P, eps=eps)


@pytest.mark.parametrize("field,value,message", [
    ("mu_m", float("nan"), "mu_m must be finite, got nan"),
    ("mu_p", float("-inf"), "mu_p must be finite, got -inf"),
    ("p", float("nan"), "p must be finite, got nan"),
    ("eps", float("inf"), "eps must be finite, got inf"),
    ("mu_m", -0.03, "decay rates must be positive"),
    ("mu_p", 0.0, "decay rates must be positive"),
    ("eps", 0.0, "eps must be positive"),
    ("eps", -1.0, "eps must be positive"),
])
def test_char_params_reject_bad_numbers(hopf, field, value, message):
    fields = dict(mu_m=0.03, mu_p=0.04, p=RV.P, eps=RV.EPS0)
    with pytest.raises(ValueError, match=message):
        CharParams(**dict(fields, **{field: value}))
    if field == "eps":
        with pytest.raises(ValueError, match=message):
            hopf.char_params(eps=value)


def test_hopf_point_matches_pinned_values(hopf):
    assert hopf.eps0 == pytest.approx(RV.EPS0, rel=1e-12)
    assert hopf.omega == pytest.approx(RV.OMEGA, rel=1e-12)
    assert hopf.l == pytest.approx(RV.L_QUAD, rel=1e-11)
    assert hopf.dalpha_deps == pytest.approx(RV.DALPHA_DEPS, rel=1e-10)


def test_direct_two_equation_solve_agrees(hopf):
    direct = solve_hopf_direct(hopf.mu_m, hopf.mu_p, hopf.p)
    assert direct.eps0 == pytest.approx(hopf.eps0, rel=1e-9)
    assert direct.omega == pytest.approx(hopf.omega, rel=1e-9)


def test_beta_equation_residual(hopf):
    cp = standard_cp(RV.EPS0)
    b = solve_beta(cp)
    e, s, mm = cp.eps, cp.mu_m + cp.mu_p, cp.mu_m * cp.mu_p
    res = (b * b - e * e * mm) * math.sin(2 * b) - e * s * b * math.cos(2 * b)
    assert abs(res) < 1e-12
    assert b == pytest.approx(RV.OMEGA, rel=1e-12)


def test_characteristic_root_on_axis_at_crossing():
    cp = standard_cp(RV.EPS0)
    assert abs(char_eval(1j * RV.OMEGA, cp)) < 1e-12


def test_char_eval_at_double_frequency():
    val = char_eval(2j * RV.OMEGA, standard_cp(RV.EPS0))
    assert val.real == pytest.approx(RV.CHAR_2IW.real, abs=1e-12)
    assert val.imag == pytest.approx(RV.CHAR_2IW.imag, abs=1e-12)


def test_newton_polish_recovers_the_crossing_root():
    cp = standard_cp(RV.EPS0)
    lam = characteristic_root_near(cp, 1.05j * RV.OMEGA)
    assert abs(lam - 1j * RV.OMEGA) < 1e-10


@pytest.mark.parametrize("k", [1, 2, 3])
def test_higher_critical_delays_satisfy_the_characteristic_equation(hopf, k):
    ek = hopf.eps_k(k)
    assert ek == pytest.approx(RV.EPS0 * (RV.OMEGA + k * math.pi) / RV.OMEGA,
                               rel=1e-14)
    res = char_eval(1j * (hopf.omega + k * math.pi), standard_cp(ek))
    assert abs(res) < 1e-8


def test_eps_k_zero_is_the_crossing_itself(hopf):
    assert hopf.eps_k(0) == hopf.eps0


def test_transversality_closed_form_and_fd(hopf):
    assert hopf.dalpha_deps > 0
    tv = transversality(hopf.eps0, hopf.omega, hopf.mu_m, hopf.mu_p)
    assert tv == pytest.approx(RV.DALPHA_DEPS, rel=1e-10)
    h = 1e-4
    lp = characteristic_root_near(standard_cp(RV.EPS0 + h), 1j * RV.OMEGA)
    lm = characteristic_root_near(standard_cp(RV.EPS0 - h), 1j * RV.OMEGA)
    fd = (lp.real - lm.real) / (2 * h)
    assert tv == pytest.approx(fd, rel=1e-6)


@pytest.mark.parametrize("offset,expected", [(-0.1, 0), (0.1, 2)])
def test_winding_count_across_the_crossing(offset, expected):
    assert winding_count(standard_cp(RV.EPS0 + offset)) == expected


def test_classify_standard_set(eq):
    cls = classify_stability(eq, 0.03, 0.04, eps=6.0)
    assert cls.kind is StabilityKind.STABLE_BELOW_EPS0
    assert cls.eps0 == pytest.approx(RV.EPS0, rel=1e-12)
    assert cls.hopf is not None


def test_classify_above_crossing_is_unstable(eq):
    cls = classify_stability(eq, 0.03, 0.04, eps=RV.EPS0 + 0.5)
    assert cls.kind is StabilityKind.UNSTABLE


def test_classify_weak_feedback_stable_for_all_eps():
    p = ModelParams(mu_m=0.03, mu_p=0.04, c=0.0, eps=1.0,
                    nonlinearity=NonlinearitySpec(f=ZeroMap(), g=ZeroMap()))
    cls = classify_stability(find_equilibrium(p), 0.03, 0.04, eps=1.0)
    assert cls.kind is StabilityKind.STABLE_FOR_ALL_EPS
    assert cls.eps0 is None


def test_positive_feedback_product_is_rejected():
    fake = Equilibrium(r_star=1.0, xi_star=1.0, f1=0.1, f2=0.0, f3=0.0,
                       g1=1.0, g2=0.0, g3=0.0)
    with pytest.raises(UnhandledRegime):
        classify_stability(fake, 0.03, 0.04, eps=1.0)


def test_subthreshold_feedback_has_no_crossing():
    # |p| below mu_m mu_p: no root of the beta equation can match the modulus
    with pytest.raises(HypothesisViolated):
        solve_hopf(0.03, 0.04, -1e-4)
