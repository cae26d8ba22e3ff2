"""Derivative callbacks: closed forms against plain finite differences."""

import pytest

from sddhopf import (CallableMap, LinearMap, ZeroMap, hes1_nonlinearity,
                     validate_derivatives, derivatives_consistent)


def central_diff(fn, x, h):
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


def test_hill_value_at_half_repression():
    spec = hes1_nonlinearity()
    assert spec.f.value(1200.0) == pytest.approx(17.5, rel=1e-15)
    assert spec.f.value(0.0) == pytest.approx(35.0, rel=1e-15)


@pytest.mark.parametrize("y", [10.0, 400.0, 1200.0, 2992.6251892082787, 9000.0])
def test_hill_first_derivative_matches_fd(y):
    spec = hes1_nonlinearity()
    h = 1e-4 * max(1.0, abs(y))
    fd = central_diff(spec.f.value, y, h)
    assert spec.f.d1(y) == pytest.approx(fd, rel=1e-6)


@pytest.mark.parametrize("y", [400.0, 1200.0, 2992.6251892082787])
def test_hill_higher_derivatives_match_fd(y):
    spec = hes1_nonlinearity()
    h = 3e-4 * abs(y)
    fd2 = central_diff(spec.f.d1, y, h)
    fd3 = central_diff(spec.f.d2, y, h)
    assert spec.f.d2(y) == pytest.approx(fd2, rel=1e-4)
    assert spec.f.d3(y) == pytest.approx(fd3, rel=1e-4)


def test_validate_derivatives_on_standard_maps():
    spec = hes1_nonlinearity()
    pts = [50.0, 400.0, 1200.0, 3000.0]
    errs = validate_derivatives(spec.f, pts)
    assert set(errs) == {1, 2, 3}
    assert all(e < 1e-6 for e in errs.values())
    assert derivatives_consistent(spec.f, pts)
    assert derivatives_consistent(spec.g, [1.0, 12.0])


def test_production_map_is_linear():
    spec = hes1_nonlinearity(alpha_p=10.0)
    assert spec.g.value(3.5) == 35.0
    assert spec.g.d1(100.0) == 10.0
    assert spec.g.d2(100.0) == 0.0
    assert spec.g.d3(100.0) == 0.0


def test_linear_and_zero_maps():
    lin = LinearMap(-2.5)
    assert lin.value(4.0) == -10.0
    assert lin.d1(0.0) == -2.5
    zero = ZeroMap()
    assert zero.value(123.0) == 0.0
    assert zero.d1(123.0) == 0.0
    assert derivatives_consistent(lin, [0.0, 7.0])


def test_inconsistent_callback_is_flagged():
    # wrong by a factor of 2 in d1
    bad = CallableMap(value=lambda x: x * x,
                      d1=lambda x: 4.0 * x,
                      d2=lambda x: 2.0,
                      d3=lambda x: 0.0)
    assert not derivatives_consistent(bad, [1.0, 3.0])


def test_repression_pole_structure():
    # odd Hill exponent: denominator vanishes at y = -ybar and the map
    # changes sign across it; the singular-feedback runs rely on this
    spec = hes1_nonlinearity(ybar=1200.0, h=5.0)
    left = spec.f.value(-1200.0 * (1.0 - 1e-8))
    right = spec.f.value(-1200.0 * (1.0 + 1e-8))
    assert left > 1e6
    assert right < -1e6
