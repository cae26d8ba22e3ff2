import numpy as np
import pytest
from hypothesis import given, settings

import refvals as RV
from hill_sets import hill_params
from sddhopf import (CallableMap, LinearMap, ModelParams, NonlinearitySpec, ZeroMap,
                     DenominatorBreach, NonPositive,
                     find_equilibrium, hes1_params,
                     rhs_original, rhs_transformed)


def test_equilibrium_matches_pinned_values(eq):
    assert eq.r_star == pytest.approx(RV.R_STAR, rel=1e-12)
    assert eq.xi_star == pytest.approx(RV.XI_STAR, rel=1e-12)
    assert eq.f1 == pytest.approx(RV.F1, rel=1e-12)
    assert eq.f2 == pytest.approx(RV.F2, rel=1e-10)
    assert eq.f3 == pytest.approx(RV.F3, rel=1e-10)
    assert eq.g1 == 10.0
    assert eq.g2 == 0.0 and eq.g3 == 0.0


def test_equilibrium_residuals_vanish(params, eq):
    f, g = params.nonlinearity.f, params.nonlinearity.g
    res_r = -params.mu_m * eq.r_star + f.value(eq.xi_star)
    res_xi = -params.mu_p * eq.xi_star + g.value(eq.r_star)
    assert abs(res_r) < 1e-12
    assert abs(res_xi) < 1e-9 * eq.xi_star


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(hill_params())
def test_equilibrium_is_positive_with_small_residuals_property(p):
    eq = find_equilibrium(p)
    f, g = p.nonlinearity.f, p.nonlinearity.g
    res_r = -p.mu_m * eq.r_star + f.value(eq.xi_star)
    res_xi = -p.mu_p * eq.xi_star + g.value(eq.r_star)
    assert eq.r_star > 0 and eq.xi_star > 0
    assert abs(res_r) <= 1e-10 * max(1.0, p.mu_m * eq.r_star)
    assert abs(res_xi) <= 1e-10 * max(1.0, p.mu_p * eq.xi_star)


def test_equilibrium_independent_of_c_and_eps(eq):
    other = find_equilibrium(hes1_params(c=0.2, eps=50.0))
    assert other.r_star == pytest.approx(eq.r_star, rel=1e-14)
    assert other.xi_star == pytest.approx(eq.xi_star, rel=1e-14)


def test_zero_feedback_has_origin_equilibrium():
    spec = NonlinearitySpec(f=ZeroMap(), g=ZeroMap())
    from sddhopf import ModelParams
    p = ModelParams(mu_m=0.03, mu_p=0.04, c=0.01, eps=1.0, nonlinearity=spec)
    eq0 = find_equilibrium(p)
    assert eq0.r_star == 0.0
    assert eq0.xi_star == 0.0


def test_nonpositive_root_is_rejected():
    # constant production into r, negative slope into xi: root has xi < 0
    const_one = CallableMap(value=lambda y: 1.0, d1=lambda y: 0.0,
                            d2=lambda y: 0.0, d3=lambda y: 0.0)
    spec = NonlinearitySpec(f=const_one, g=LinearMap(-5.0))
    from sddhopf import ModelParams
    p = ModelParams(mu_m=0.03, mu_p=0.04, c=0.0, eps=1.0, nonlinearity=spec)
    with pytest.raises(NonPositive):
        find_equilibrium(p)


def test_with_overrides_replaces_named_fields(params):
    q = params.with_overrides(c=0.2, eps=9.0)
    assert q.c == 0.2 and q.eps == 9.0
    assert q.mu_m == params.mu_m and q.nonlinearity is params.nonlinearity
    r = params.with_overrides(mu_m=0.05, mu_p=0.06)
    assert r.mu_m == 0.05 and r.mu_p == 0.06
    assert r.c == params.c


@pytest.mark.parametrize("field,value,message", [
    ("mu_m", float("nan"), "mu_m must be finite, got nan"),
    ("mu_p", float("inf"), "mu_p must be finite, got inf"),
    ("c", float("nan"), "c must be finite, got nan"),
    ("eps", float("-inf"), "eps must be finite, got -inf"),
    ("mu_m", 0.0, "decay rates must be positive"),
    ("mu_p", -0.04, "decay rates must be positive"),
    ("eps", 0.0, "eps must be positive"),
    ("eps", -6.0, "eps must be positive"),
    ("c", -0.01, "c must be nonnegative"),
])
def test_model_params_reject_bad_numbers(params, field, value, message):
    fields = dict(mu_m=params.mu_m, mu_p=params.mu_p, c=params.c,
                  eps=params.eps, nonlinearity=params.nonlinearity)
    with pytest.raises(ValueError, match=message):
        ModelParams(**dict(fields, **{field: value}))
    with pytest.raises(ValueError, match=message):
        params.with_overrides(**{field: value})


def test_rhs_original_vanishes_at_equilibrium(params, eq, eq_state):
    (dx, dy), residual = rhs_original(eq_state, eq_state, params.eps, params)
    assert abs(dx) < 1e-12
    assert abs(dy) < 1e-9
    assert residual == 0.0


def test_rhs_original_threshold_residual_sign(params, eq_state):
    moved = eq_state + np.array([1.0, 0.0])
    _, residual = rhs_original(moved, eq_state, params.eps, params)
    # tau too small by c * (x - x_tau)
    assert residual == pytest.approx(-params.c, abs=1e-15)


def test_rhs_transformed_vanishes_at_equilibrium(params, eq_state):
    dr, dxi, k, D = rhs_transformed(eq_state, eq_state, params)
    assert abs(dr) < 1e-11
    assert abs(dxi) < 1e-8
    assert k == params.eps
    assert D == pytest.approx(1.0, abs=1e-12)


def test_rhs_transformed_reduces_to_constant_delay(params, eq_state):
    p0 = params.with_overrides(c=0.0)
    now = eq_state * np.array([1.1, 0.9])
    then = eq_state * np.array([0.95, 1.2])
    f, g = p0.nonlinearity.f, p0.nonlinearity.g
    written_out = (p0.eps * (-p0.mu_m * now[0] + f.value(then[1])),
                   p0.eps * (-p0.mu_p * now[1] + g.value(then[0])),
                   p0.eps, 1.0)
    assert rhs_transformed(now, then, p0) == written_out


def test_rhs_transformed_raises_on_denominator_breach(params, eq_state):
    # choose r so the drive term equals 2/c, putting D at -1
    f_val = params.nonlinearity.f.value(eq_state[1])
    r_bad = -(2.0 / params.c - f_val) / params.mu_m
    with pytest.raises(DenominatorBreach):
        rhs_transformed(np.array([r_bad, eq_state[1]]), eq_state, params)
