"""Integrator tests: closed-form delay solves, an independent segmented
integration as oracle, convergence-order and invariant checks."""

import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq as scipy_brentq

import refvals as RV
from oracles import escape_sweep, method_of_steps, refine_extremum, scalar_cell_label
from sddhopf import (DENOMINATOR_FLOOR, DenominatorBreach, HistoryTooShort,
                     IncompatibleData, InitialHistory, InsufficientCycles,
                     NoBracket, SddhopfError, SlopeBoundWarning, Trajectory,
                     analyze_normal_form, bump_history, check_compatibility,
                     classify_run, constant_history, find_equilibrium,
                     hes1_params, integrate_sdd, integrate_transformed,
                     measure_oscillation, rhs_transformed, run_perturbed,
                     solve_delay)
from sddhopf import dde, lanes
from sddhopf.dde import History
from sddhopf.model import transformed_slopes

EPS_LOW = RV.EPS0 - 0.1
EPS_HIGH = RV.EPS0 + 0.1
C_SUB = RV.C0 + 0.001
RECIPES = Path(__file__).resolve().parent.parent / "recipes"


# -- initial data ---------------------------------------------------------------

def test_constant_history_profile(eq_state):
    h = constant_history(eq_state, t0=0.0, span=3.0)
    assert np.allclose(h.value(-2.0), eq_state)
    assert np.allclose(h.value(0.0), eq_state)
    assert np.allclose(h.derivative(-1.0), 0.0)


def test_bump_history_profile(eq_state):
    kick = 0.3 * eq_state
    h = bump_history(eq_state, kick, t0=0.0, span=2.0)
    assert np.allclose(h.value(0.0), eq_state)
    assert np.allclose(h.value(-1.0), eq_state + kick)       # dip of the bump
    assert np.allclose(h.value(-2.0), eq_state)
    assert np.allclose(h.value(-5.0), eq_state)               # clamped
    assert np.allclose(h.derivative(0.0), 0.0)
    assert np.allclose(h.derivative(-1.0), 0.0, atol=1e-12)
    # interior slope agrees with a finite difference
    fd = np.subtract(h.value(-0.5 + 1e-6), h.value(-0.5 - 1e-6)) / 2e-6
    assert np.allclose(h.derivative(-0.5), fd, rtol=1e-8)


def test_bump_history_matches_the_array_formula_bit_for_bit(eq_state):
    base, kick, span = eq_state, -0.7 * eq_state, 6.5
    h = bump_history(base, kick, span=span)
    # the array formula bump_history evaluated before it went scalar
    for s in np.linspace(-1.2 * span, 0.0, 97):
        phase = math.pi * max(s, -span) / span
        assert np.array_equal(h.value(s), base + kick * math.sin(phase) ** 2)
        want = (kick * (math.pi / span) * math.sin(2 * phase) if s >= -span
                else np.zeros(2))
        assert np.array_equal(h.derivative(s), want)
    assert all(type(v) is float for v in h.value(-1.0) + h.derivative(-1.0))


# -- the threshold equation -----------------------------------------------------

def reference_delay(t, x_now, history, params, tau_prev=None):
    """The damped fixed-point iteration solve_delay used before its Newton
    step, run until the iterate stops changing."""
    eps, c = params.eps, params.c
    tau = tau_prev if tau_prev else eps
    damp, prev_abs = 1.0, np.inf
    for _ in range(2000):
        gv = tau - eps - c * (x_now - history.eval(t - tau)[0])
        if abs(gv) >= prev_abs:
            damp = 0.5
        prev_abs = abs(gv)
        new = tau - damp * gv
        if new == tau:
            break
        tau = new
    return tau


def test_delay_is_eps_when_c_is_zero(eq_state):
    p = hes1_params(c=0.0, eps=4.0)
    hist = History(constant_history(eq_state, t0=0.0, span=50.0))
    assert solve_delay(0.0, eq_state[0], hist, p) == 4.0


def test_delay_is_eps_on_constant_history(eq_state):
    p = hes1_params(c=0.3, eps=4.0)
    hist = History(constant_history(eq_state, t0=0.0, span=50.0))
    tau = solve_delay(0.0, eq_state[0], hist, p)
    assert tau == pytest.approx(4.0, rel=1e-13)


@pytest.mark.parametrize("c,m", [(0.3, 0.05), (0.1, -2.0), (0.02, 8.0)])
def test_delay_closed_form_on_linear_history(c, m):
    # x(s) = x0 + m s gives tau = eps / (1 - c m)
    eps = 2.0
    p = hes1_params(c=c, eps=eps)
    init = InitialHistory(value=lambda s: np.array([1.0 + m * s, 0.0]),
                          derivative=lambda s: np.array([m, 0.0]),
                          t0=0.0, span=400.0)
    hist = History(init)
    tau = solve_delay(0.0, 1.0, hist, p)
    assert tau == pytest.approx(eps / (1.0 - c * m), rel=1e-12)
    assert abs(tau - reference_delay(0.0, 1.0, hist, p)) <= 1e-13 * max(eps, tau)


def test_newton_delay_matches_the_fixed_point_on_a_dense_history(eq_state):
    # a run's dense history, its stored steps read as x(s): delays of four
    # units reach back across many segments
    p = hes1_params(c=0.02, eps=4.0)
    traj = integrate_transformed(bump_history(eq_state, 0.2 * eq_state, span=1.0),
                                 p, 200.0)
    hist = traj.history
    ts = np.linspace(0.0, 200.0, 151)
    xs = hist.eval_many(ts)[:, 0]
    for t, x in zip(ts, xs):
        tau = solve_delay(t, x, hist, p, tau_prev=p.eps)
        ref = reference_delay(t, x, hist, p, tau_prev=p.eps)
        assert abs(tau - ref) <= 1e-13 * max(p.eps, tau)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(c=st.floats(1e-3, 1.0), eps=st.floats(0.5, 20.0),
       span=st.floats(0.5, 40.0), kick=st.floats(-1.0, 1.0),
       t_frac=st.floats(-1.5, 0.0), seed=st.sampled_from([None, 0.5, 1.0, 2.0]))
def test_delay_residual_and_uniqueness_property(eq_state, c, eps, span, kick,
                                                t_frac, seed):
    # a bump in x of size kick * r* on [-span, 0]: its slope is at most
    # pi |kick r*| / span, and the draws keep c times that below 1
    kx = kick * eq_state[0]
    assume(c * abs(kx) * math.pi / span < 0.99)
    p = hes1_params(c=c, eps=eps)
    hist = History(bump_history(eq_state, np.array([kx, -kick * eq_state[1]]),
                                span=span))
    t = t_frac * span
    x_now = hist.eval(t)[0]

    def g(tau):
        return tau - eps - c * (x_now - hist.eval(t - tau)[0])

    tau = solve_delay(t, x_now, hist, p, tau_prev=None if seed is None else seed * eps)
    assert abs(g(tau)) <= 1e-12 * max(eps, tau)
    # |x_now - x(t - tau)| <= |kx| puts every root in this bracket
    taus = np.linspace(0.0, 2.0 * (eps + c * abs(kx)), 257)
    assert taus[0] < tau < taus[-1]
    assert c * max(abs(hist.eval(t - s, True)[2]) for s in taus) < 1.0
    gs = [g(s) for s in taus]
    assert all(b > a for a, b in zip(gs, gs[1:]))


def test_no_bracket_when_slope_exceeds_the_bound():
    # c x' > 1: the threshold equation has no positive root on the bracket
    p = hes1_params(c=0.4, eps=2.0)
    init = InitialHistory(value=lambda s: np.array([3.0 * s, 0.0]),
                          derivative=lambda s: np.array([3.0, 0.0]),
                          t0=0.0, span=1000.0)
    with pytest.raises(NoBracket):
        solve_delay(0.0, 0.0, History(init), p)


def steep_sine(eps):
    """x = 2 sin(3 s) at c = 1. At t = 0 the seed tau = eps is a root on a
    rising slope (c x' = +6) when eps = 2 pi / 3; at eps = 1 the root found
    lies on a falling one (c x' = -6)."""
    return (hes1_params(c=1.0, eps=eps),
            InitialHistory(value=lambda s: (2.0 * math.sin(3.0 * s), 0.0),
                           derivative=lambda s: (6.0 * math.cos(3.0 * s), 0.0),
                           t0=0.0, span=200.0))


def fast_sine():
    """x = sin(20 s) at c = 1, eps = 1: the iteration wanders for its 60
    steps, and brentq finds a root at c x' = -19.9."""
    return (hes1_params(c=1.0, eps=1.0),
            InitialHistory(value=lambda s: (math.sin(20.0 * s), 0.0),
                           derivative=lambda s: (20.0 * math.cos(20.0 * s), 0.0),
                           t0=0.0, span=200.0))


def test_slope_bound_warning_on_steep_history():
    p, init = steep_sine(2.0 * math.pi / 3.0)
    events = []
    with pytest.warns(SlopeBoundWarning):
        tau = solve_delay(0.0, 0.0, History(init), p, events=events)
    assert abs(tau - p.eps + 2.0 * math.sin(-3.0 * tau)) <= 1e-12 * tau
    assert [ev["kind"] for ev in events] == ["slope_bound"]
    assert events[0]["detail"] == pytest.approx(6.0 * math.cos(-3.0 * tau), rel=1e-12)
    assert events[0]["detail"] > 1.0


def test_bracketed_fallback_reports_the_slope_at_its_root(monkeypatch):
    # x(s) = 1 + s + h(-s), h(u) = (u - 0.6)^3 past 0.6, (u - 0.4)^3 below
    # 0.4 and 0 between: at c = 1, g(tau) = tau - 1 + x(-tau) = h(tau), so
    # every tau in [0.4, 0.6] is a root, with c x' = 1. The iteration creeps
    # toward 0.6 where c x' < 1, and brentq lands inside the stretch: the
    # check must use x' at brentq's root
    def h(u, slope=False):
        u = min(u, 2.0)                 # the data is constant before s = -2
        edge = min(max(u, 0.4), 0.6)
        return 3.0 * (u - edge) ** 2 if slope else (u - edge) ** 3

    p = hes1_params(c=1.0, eps=1.0)
    init = InitialHistory(value=lambda s: (1.0 + max(s, -2.0) + h(-s), 0.0),
                          derivative=lambda s: (1.0 - h(-s, True), 0.0),
                          t0=0.0, span=2.0)
    calls = []
    bracketed = dde.brentq
    monkeypatch.setattr(dde, "brentq",
                        lambda *a, **k: calls.append(1) or bracketed(*a, **k))
    events = []
    with pytest.warns(SlopeBoundWarning):
        tau = solve_delay(0.0, 0.0, History(init), p, events=events)
    assert calls
    assert 0.4 < tau < 0.6
    assert [ev["detail"] for ev in events] == [1.0]


@pytest.mark.parametrize("case", ["newton", "bracketed"])
def test_a_root_on_a_falling_slope_does_not_warn(case):
    # g' = 1 - c x'(t - tau) >= 2 at these roots, so each is simple
    p, init = steep_sine(1.0) if case == "newton" else fast_sine()
    events = []
    with warnings.catch_warnings():
        warnings.simplefilter("error", SlopeBoundWarning)
        tau = solve_delay(0.0, 0.0, History(init), p, events=events)
    assert p.c * init.derivative(-tau)[0] <= -1.0
    assert abs(tau - p.eps + init.value(-tau)[0]) <= 1e-12 * tau
    assert events == []


def test_a_silent_root_among_three():
    # at c = 1, eps = 2 the data x(s) = G(-s) + s + 2 with
    # G(u) = 2 (u - 1)(u - 3)(u - 5) / 15 makes g(tau) = G(tau), with roots
    # 1, 3 and 5; at the middle one c x' = 1 - G'(3) = 23/15 >= 1. The solve
    # from the seed tau = eps ends on the root at 1 and says nothing
    def G(u, slope=False):
        if slope:
            return 2.0 * ((u - 3) * (u - 5) + (u - 1) * (u - 5) + (u - 1) * (u - 3)) / 15
        return 2.0 * (u - 1) * (u - 3) * (u - 5) / 15

    p = hes1_params(c=1.0, eps=2.0)
    init = InitialHistory(value=lambda s: (G(-s) + s + 2.0, 0.0),
                          derivative=lambda s: (1.0 - G(-s, True), 0.0),
                          t0=0.0, span=10.0)
    hist = History(init)

    def g(tau):
        return tau - p.eps - p.c * (0.0 - hist.eval(-tau)[0])

    assert [math.copysign(1.0, g(tau)) for tau in (0.5, 2.0, 4.0, 6.0)] == [-1, 1, -1, 1]
    assert p.c * init.derivative(-3.0)[0] == pytest.approx(23.0 / 15.0, rel=1e-12)
    events = []
    with warnings.catch_warnings():
        warnings.simplefilter("error", SlopeBoundWarning)
        tau = solve_delay(0.0, 0.0, hist, p, events=events)
    assert tau == pytest.approx(1.0, rel=1e-12)
    assert p.c * init.derivative(-tau)[0] < 1.0
    assert events == []


# -- compatibility --------------------------------------------------------------

def test_equilibrium_data_is_compatible(params, eq_state):
    rep = check_compatibility(constant_history(eq_state, 0.0, span=10.0),
                              tau0=params.eps, params=params)
    assert rep.passed
    assert abs(rep.residual_tau) < 1e-12


def test_wrong_initial_delay_fails_third_residual(params, eq_state):
    rep = check_compatibility(constant_history(eq_state, 0.0, span=10.0),
                              tau0=params.eps / 2.0, params=params)
    assert not rep.passed
    assert rep.residual_tau == pytest.approx(-0.5, abs=1e-12)   # scaled by eps


def test_history_shorter_than_initial_delay_is_rejected(params, eq_state):
    with pytest.raises(HistoryTooShort):
        check_compatibility(constant_history(eq_state, 0.0, span=2.0),
                            tau0=params.eps, params=params)


def test_incompatible_data_blocks_integration_unless_forced(eq_state):
    p = hes1_params(c=0.01, eps=3.0)
    # constant history far from equilibrium violates the state equations at 0
    hist = constant_history(1.5 * eq_state, 0.0, span=3.0)
    with pytest.raises(IncompatibleData):
        integrate_sdd(hist, 3.0, p, t_end=5.0)
    traj = integrate_sdd(hist, 3.0, p, t_end=5.0, force=True)
    assert traj.status == "completed"


# -- basic integration invariants ----------------------------------------------

def test_equilibrium_stays_put_for_a_thousand_time_units(eq_state):
    p = hes1_params(c=0.01, eps=6.0)
    hist = constant_history(eq_state, 0.0, span=6.0)
    grid = np.linspace(0.0, 1000.0, 201)
    traj = integrate_sdd(hist, 6.0, p, t_end=1000.0, sample_times=grid)
    assert traj.status == "completed"
    assert np.max(np.abs(traj.states[:, 0] - eq_state[0])) <= 1e-9
    assert np.max(np.abs(traj.states[:, 1] - eq_state[1])) <= 1e-9 * eq_state[1]
    assert np.max(np.abs(traj.delay - p.eps)) <= 1e-9


def test_trajectory_column_names(eq_state):
    p = hes1_params(c=0.01, eps=3.0)
    hist = constant_history(eq_state, 0.0, span=3.0)
    a = integrate_sdd(hist, 3.0, p, t_end=1.0)
    assert a.columns == ("t", "x", "y", "tau")
    b = integrate_transformed(constant_history(eq_state, 0.0, span=1.0), p, 1.0)
    assert b.columns == ("eta", "r", "xi", "k")


def test_monitors_certify_positivity_and_slope_bound(eq_state):
    p = hes1_params(c=0.01, eps=EPS_HIGH)
    kick = 0.2 * eq_state
    hist = bump_history(eq_state, kick, span=p.eps)
    traj = integrate_sdd(hist, p.eps, p, t_end=150.0)
    m = traj.monitors
    assert traj.status == "completed"
    assert m["min_x"] > 0 and m["min_y"] > 0 and m["min_tau"] > 0
    assert m["max_dx"] < m["dx_bound"]
    assert m["dx_bound"] == pytest.approx(min(1.0 / p.c, 35.0))
    assert m["max_threshold_residual"] <= 1e-12


def eta_at(traj, p, t):
    """The eta at which an original-time run from t0 = 0 reaches t: the
    root of t(eta) = eps eta + c (r(eta) - r(0)) on its unit-delay history,
    found by scipy's brentq."""
    hist = traj.history
    r0 = hist.eval(0.0)[0]
    return scipy_brentq(lambda e: p.eps * e + p.c * (hist.eval(e)[0] - r0) - t,
                        -2.0, hist.frontier, xtol=1e-15, rtol=4 * np.finfo(float).eps)


def test_threshold_residual_recomputed_from_dense_history(eq_state):
    # through the map: each sample is the run's state at eta(t), and its
    # delay reaches back to t(eta - 1)
    p = hes1_params(c=0.01, eps=EPS_HIGH)
    hist = bump_history(eq_state, 0.2 * eq_state, span=p.eps)
    grid = np.linspace(0.0, 120.0, 49)
    traj = integrate_sdd(hist, p.eps, p, t_end=120.0, sample_times=grid)
    for t, row, tau in zip(traj.t, traj.states, traj.delay):
        eta = eta_at(traj, p, t)
        assert np.allclose(traj.history.eval(eta), row, rtol=1e-12, atol=0.0)
        assert abs(eta_at(traj, p, t - tau) - (eta - 1.0)) < 1e-10


def test_every_sample_delay_solves_the_threshold_equation(eq_state):
    # x(t - tau) read through the map, t - tau inverted apart from the
    # package's own inversion of the sample times
    p = hes1_params(c=0.02, eps=EPS_HIGH)
    hist = bump_history(eq_state, 0.2 * eq_state, span=p.eps)
    traj = integrate_sdd(hist, p.eps, p, t_end=300.0,
                         sample_times=np.linspace(0.0, 300.0, 1001))
    x_back = np.array([traj.history.eval(eta_at(traj, p, t - tau))[0]
                       for t, tau in zip(traj.t, traj.delay)])
    res = traj.delay - p.eps - p.c * (traj.states[:, 0] - x_back)
    assert np.all(np.abs(res) <= 1e-12 * np.maximum(p.eps, traj.delay))
    assert np.ptp(traj.delay) > 1e-3          # the delay really varies
    assert traj.monitors["max_threshold_residual"] <= 1e-12 * p.eps


def test_transformed_min_denominator_is_taken_at_each_accepted_step(eq_state):
    # D = 1 - c(-mu_m r + f(xi(eta - 1))) at the end of every accepted step
    p = hes1_params(c=0.01, eps=EPS_HIGH)
    traj = integrate_transformed(bump_history(eq_state, 0.2 * eq_state, span=1.0),
                                 p, 40.0)
    hist, f = traj.history, p.nonlinearity.f
    want = min(1.0 - p.c * (-p.mu_m * hist.eval(t)[0] + f.value(hist.eval(t - 1.0)[1]))
               for t in hist._ends)
    assert abs(traj.monitors["min_denominator"] - want) <= 1e-14


# -- the dense history ------------------------------------------------------------

@pytest.fixture(scope="module")
def dense_history(eq_state):
    p = hes1_params(c=0.01, eps=EPS_HIGH)
    traj = integrate_transformed(bump_history(eq_state, 0.2 * eq_state, span=1.0),
                                 p, 40.0)
    return traj.history


def _lookup_times(history):
    ends = np.array(history._ends)
    starts = np.r_[history.t0, ends[:-1]]
    interior = starts + np.array([0.1, 0.5, 0.9])[:, None] * (ends - starts)
    initial = np.linspace(history.t0 - 1.5, history.t0, 17)
    return np.concatenate([initial, ends, interior.ravel()])


def test_eval_many_matches_eval_bit_for_bit(dense_history):
    ts = _lookup_times(dense_history)
    many = dense_history.eval_many(ts)
    one = np.array([dense_history.eval(t) for t in ts])
    assert np.array_equal(many, one)


def test_slope_lookup_keeps_the_state_bit_for_bit(dense_history):
    ts = _lookup_times(dense_history)
    with_slope = np.array([dense_history.eval(t, slope=True) for t in ts])
    assert np.array_equal(with_slope[:, :2],
                          np.array([dense_history.eval(t) for t in ts]))
    assert np.array_equal(dense_history.eval_many(ts, slope=True), with_slope)


def test_slope_matches_a_central_difference(dense_history):
    ends = np.array(dense_history._ends)
    starts = np.r_[dense_history.t0, ends[:-1]]
    inside = starts + np.array([0.25, 0.5, 0.75])[:, None] * (ends - starts)
    initial = np.linspace(dense_history.t0 - 0.95, dense_history.t0 - 0.05, 10)
    d = 1e-5
    for t in np.concatenate([initial, inside.ravel()]):
        fd = (dense_history.eval(t + d)[0] - dense_history.eval(t - d)[0]) / (2 * d)
        assert dense_history.eval(t, slope=True)[2] == pytest.approx(fd, rel=1e-6, abs=1e-8)
    # the constant extension before the initial data is flat
    assert dense_history.eval(dense_history.t0 - 1.5, slope=True)[2] == 0.0


def test_the_constant_extension_holds_for_data_that_does_not_clamp():
    # value(s) = (s, 0) keeps moving before t0 - span = -1; the history
    # there is the state at -1, with slope 0
    hist = History(InitialHistory(value=lambda s: (s, 0.0),
                                  derivative=lambda s: (1.0, 0.0), t0=0.0, span=1.0))
    assert hist.eval(-2.0) == (-1.0, 0.0)
    assert hist.eval(-2.0, slope=True) == (-1.0, 0.0, 0.0)
    assert hist.eval_many([-2.0, -3.0]).tolist() == [[-1.0, 0.0]] * 2
    assert hist.eval_many([-2.0, -0.5], slope=True).tolist() == [[-1.0, 0.0, 0.0],
                                                                 [-0.5, 0.0, 1.0]]


def test_lookup_order_does_not_change_values(dense_history):
    ts = np.sort(_lookup_times(dense_history))
    in_order = [dense_history.eval(t) for t in ts]
    perm = np.random.default_rng(7).permutation(len(ts))
    shuffled = [dense_history.eval(ts[k]) for k in perm]
    assert all(shuffled[i] == in_order[k] for i, k in enumerate(perm))


def test_x_span_covers_the_initial_data_and_every_step_end(dense_history):
    # the range the bracketed delay solve scales its bracket by: a 65-point
    # probe of the initial data and the interpolant at each step's end
    init = dense_history.initial
    xs = [init.value(init.t0 - init.span * k / 64)[0] for k in range(65)]
    xs += [dense_history.eval(t)[0] for t in dense_history._ends]
    assert dense_history.x_span() == max(xs) - min(xs)
    assert History(init).x_span() == max(xs[:65]) - min(xs[:65])


def test_a_lookup_past_the_frontier_is_history_too_short(dense_history):
    # the package's own error, not a private one: it is caught as SddhopfError
    t = dense_history.frontier + 1.0
    message = "t = %r lies past the history's frontier %r" % (t, dense_history.frontier)
    for lookup in (dense_history.eval, lambda t: dense_history.eval_many([0.5, t])):
        with pytest.raises(HistoryTooShort, match="^%s$" % re.escape(message)):
            lookup(t)
        with pytest.raises(SddhopfError):
            lookup(t)


def test_lookups_per_stage_on_the_original_time_recipe(eq_state, monkeypatch):
    # recipes/hes1-original.json: about 1300 stages of the unit-delay run,
    # one lookup each but for the shared sixth and seventh, plus the Newton
    # lookups that map the initial data onto eta in the first delay unit
    p = hes1_params(c=0.01, eps=6.762162456498764)
    counts = {"eval": 0, "stage": 0}
    lookup, rhs = History.eval, dde.checked_slopes

    def counted_eval(self, *args, **kwargs):
        counts["eval"] += 1
        return lookup(self, *args, **kwargs)

    def counted_rhs(*args, **kwargs):
        counts["stage"] += 1
        return rhs(*args, **kwargs)

    monkeypatch.setattr(History, "eval", counted_eval)
    monkeypatch.setattr(dde, "checked_slopes", counted_rhs)
    traj = integrate_sdd(bump_history(eq_state, 0.05 * eq_state, span=p.eps),
                         p.eps, p, t_end=1200.0, rtol=1e-8, atol=1e-9,
                         sample_times=np.linspace(0.0, 1200.0, 4096))
    assert traj.status == "completed"
    assert counts["stage"] == traj.stats.stage_evals > 1000
    assert counts["eval"] <= 2.5 * counts["stage"], counts


def test_transformed_stages_six_and_seven_share_one_lookup(eq_state, monkeypatch):
    # both take the delayed state at t + h - 1: one lookup for the initial
    # slope, then one for each of stages 2 to 6 of every try
    counts = {"eval": 0}
    lookup = History.eval

    def counted_eval(self, *args, **kwargs):
        counts["eval"] += 1
        return lookup(self, *args, **kwargs)

    monkeypatch.setattr(History, "eval", counted_eval)
    p = hes1_params(c=0.01, eps=EPS_HIGH)
    traj = integrate_transformed(bump_history(eq_state, 0.05 * eq_state, span=1.0),
                                 p, 400.0, sample_times=np.linspace(0.0, 400.0, 2048))
    stats = traj.stats
    assert traj.status == "completed" and stats.steps_rejected > 0
    assert counts["eval"] == 1 + 5 * (stats.steps_accepted + stats.steps_rejected)
    assert stats.stage_evals == 1 + 6 * (stats.steps_accepted + stats.steps_rejected)


# -- equivalence with the unit-delay form and an external oracle ----------------

def test_time_change_is_exact_when_c_is_zero(eq_state):
    p = hes1_params(c=0.0, eps=EPS_LOW)
    kick = 0.2 * eq_state
    etas = np.linspace(0.0, 25.0, 101)
    tr_eta = integrate_transformed(bump_history(eq_state, kick, span=1.0),
                                   p, 25.0, sample_times=etas,
                                   rtol=1e-10, atol=1e-12)
    # t = eps * eta at c = 0, and the bump stretches the same way
    tr_t = integrate_sdd(bump_history(eq_state, kick, span=p.eps),
                         p.eps, p, t_end=25.0 * p.eps,
                         sample_times=etas * p.eps, rtol=1e-10, atol=1e-12)
    assert np.max(np.abs(tr_eta.states[:, 0] - tr_t.states[:, 0])) < 1e-7
    assert np.max(np.abs(tr_eta.states[:, 1] - tr_t.states[:, 1])) < 1e-4


@pytest.mark.parametrize("c", [0.005, 0.01, 0.02, 0.05])
@pytest.mark.parametrize("eps", [EPS_LOW, EPS_HIGH], ids=["below-eps0", "above-eps0"])
def test_original_time_run_matches_the_scipy_method_of_steps(eq_state, c, eps):
    # the time map of the unit-delay run against a separately coded method
    # of steps in t, its delays solved on scipy's dense output. Measured
    # over the eight cases: 1.3e-9 relative in x and y, 5.7e-10 in tau
    p = hes1_params(c=c, eps=eps)
    kick = 0.05 * eq_state
    grid = np.linspace(0.0, 20.0 * eps, 161)
    states, taus = method_of_steps(p, eq_state, kick, grid, rtol=1e-11, atol=1e-11)
    traj = integrate_sdd(bump_history(eq_state, kick, span=eps), eps, p,
                         t_end=grid[-1], sample_times=grid, rtol=1e-10, atol=1e-12)
    assert traj.status == "completed" and len(traj.t) == len(grid)
    assert np.max(np.abs(traj.states - states) / np.abs(states)) < 1e-8
    assert np.max(np.abs(traj.delay - taus)) < 5e-9
    assert np.ptp(taus) > 0.1 * c             # the delay really varies


def test_matches_independent_segmented_integration(eq_state):
    # constant-delay case checked against the scipy method of steps
    p = hes1_params(c=0.0, eps=EPS_LOW)
    base, kick = eq_state, 0.2 * eq_state
    grid = np.linspace(0.0, 200.0, 401)
    theirs, _ = method_of_steps(p, base, kick, grid, rtol=1e-13, atol=(1e-13, 1e-11))
    traj = integrate_sdd(bump_history(base, kick, span=p.eps), p.eps, p,
                         t_end=200.0, rtol=1e-12, atol=1e-13,
                         sample_times=grid)
    assert np.max(np.abs(traj.states - theirs)) < 1e-6


def test_empirical_convergence_order_is_at_least_four(eq_state):
    p = hes1_params(c=0.0, eps=EPS_HIGH)
    hist = bump_history(eq_state, 0.1 * eq_state, span=1.0)
    grid = np.linspace(0.0, 30.0, 61)

    def run(h):
        return integrate_transformed(hist, p, 30.0, sample_times=grid,
                                     fixed_h=h).states[:, 0]

    ref = run(1.0 / 320.0)
    errs = [np.max(np.abs(run(1.0 / n) - ref)) for n in (10, 20, 40, 80)]
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(3)]
    assert all(o >= 4.0 for o in orders), orders


def test_error_shrinks_with_tolerance(eq_state):
    p = hes1_params(c=0.0, eps=EPS_HIGH)
    hist = bump_history(eq_state, 0.1 * eq_state, span=1.0)
    grid = np.linspace(0.0, 30.0, 61)

    def run(rt, at):
        return integrate_transformed(hist, p, 30.0, rtol=rt, atol=at,
                                     sample_times=grid).states[:, 0]

    ref = run(1e-12, 1e-14)
    e_loose = np.max(np.abs(run(1e-6, 1e-8) - ref))
    e_tight = np.max(np.abs(run(1e-9, 1e-11) - ref))
    assert e_loose / e_tight >= 10.0


# -- oscillation measurement ----------------------------------------------------

def synthetic_trajectory(t, x):
    states = np.column_stack([x, np.zeros_like(x)])
    return Trajectory(kind="transformed", t=t, states=states,
                      delay=np.ones_like(t), status="completed", events=[],
                      monitors={}, history=None, t_final=float(t[-1]))


def test_measures_pure_sine():
    # exactly 16 cycles so the sample mean is unbiased
    t = np.linspace(0.0, 16.0 * 4.0 * np.pi, 4001)
    s = measure_oscillation(synthetic_trajectory(t, 2.0 * np.sin(0.5 * t)),
                            transient_fraction=0.0)
    assert s.amplitude == pytest.approx(2.0, rel=1e-3)
    assert s.period == pytest.approx(4.0 * np.pi, rel=1e-3)
    assert abs(s.decay_rate) < 1e-3
    assert abs(s.mean) < 1e-3


def test_measures_exponential_decay_rate():
    t = np.linspace(0.0, 300.0, 6001)
    x = 5.0 + np.exp(-0.01 * t) * np.sin(t)
    s = measure_oscillation(synthetic_trajectory(t, x), transient_fraction=0.0)
    assert s.decay_rate == pytest.approx(0.01, rel=0.05)
    assert s.period == pytest.approx(2.0 * np.pi, rel=1e-3)
    assert s.mean == pytest.approx(5.0, rel=1e-3)


def test_extrema_are_refined_as_the_sample_by_sample_parabola():
    # bit for bit against the one-sample reference: a flat parabola (three
    # samples on a line), vertices clamped to one spacing on either side,
    # and the extrema of noisy decaying sines
    t = 0.5 * np.arange(9.0)
    v = np.array([0.0, 1.0, 2.0, 2.9, 3.0, 2.95, 0.0, -3.0, -3.1])
    cases = [(t, v, np.arange(1, 8))]
    rng = np.random.default_rng(3)
    for _ in range(50):
        t = np.sort(rng.uniform(0.0, 50.0, 400))
        v = np.exp(-rng.uniform(0.0, 0.1) * t) * np.sin(rng.uniform(0.5, 3.0) * t) \
            + rng.normal(0.0, 0.01, len(t))
        d = np.diff(v)
        cases.append((t, v, np.where(d[:-1] * d[1:] < 0)[0] + 1))
    for t, v, idx in cases:
        pt, pv = dde._refine_extrema(t, v, idx)
        ref = np.array([refine_extremum(t, v, i) for i in idx])
        assert pt.tobytes() == ref[:, 0].tobytes() and pv.tobytes() == ref[:, 1].tobytes()
    # in the first case, sample 1 lies on a line, and the vertices of
    # samples 2 and 6 (9.5 and -59.5 spacings away) are clamped
    t, v, idx = cases[0]
    pt, pv = dde._refine_extrema(t, v, idx)
    assert (pt[0], pv[0]) == (t[1], v[1])
    assert pt[1] == t[3] and pt[5] == t[5]


def test_flat_signal_has_no_cycles():
    t = np.linspace(0.0, 10.0, 101)
    with pytest.raises(InsufficientCycles):
        measure_oscillation(synthetic_trajectory(t, np.full_like(t, 3.0)))


def test_fragment_shorter_than_a_cycle_is_refused():
    t = np.linspace(0.0, 1.0, 101)
    with pytest.raises(InsufficientCycles):
        measure_oscillation(synthetic_trajectory(t, np.sin(0.5 * t)),
                            transient_fraction=0.0)


# -- abnormal terminations ------------------------------------------------------

def test_b2_violation_is_reported(eq_state):
    # 1/c below the reachable slope (the bound c x' < 1 broken): the
    # original-time run must stop with the floor's status rather than
    # continue past the validity bound
    p = hes1_params(c=2.0, eps=1.0)
    hist = bump_history(eq_state, np.array([0.0, -0.5 * eq_state[1]]),
                        span=1.0)
    traj = integrate_sdd(hist, 1.0, p, t_end=50.0, rtol=1e-7, atol=1e-9)
    assert traj.status == "denominator_breach"
    assert traj.t_final < 50.0
    assert traj.events[-1]["kind"] == "denominator_breach"
    assert 0.0 <= traj.events[-1]["t"] - traj.t_final < 1.0


def test_forced_singularity_stalls_at_c_zero(eq_state):
    p = hes1_params(c=0.0, eps=EPS_LOW)
    eq = find_equilibrium(p)
    traj = run_perturbed(p, eq, kick_scale=-1.45, eta_end=200.0,
                         rtol=1e-7, atol=1e-8)
    assert traj.status == "stalled"
    assert traj.t_final < 5.0


def test_denominator_breach_status():
    p = hes1_params(c=C_SUB, eps=EPS_LOW)
    eq = find_equilibrium(p)
    traj = run_perturbed(p, eq, kick_scale=-1.7, eta_end=200.0,
                         rtol=1e-7, atol=1e-8)
    assert traj.status == "denominator_breach"


# -- the denominator floor: both forms end at D = 1 - c x' <= DENOMINATOR_FLOOR --

def escape_run(kick_scale=None):
    """The hes1-subcritical-escape recipe's run, optionally with another kick."""
    cfg = json.loads((RECIPES / "hes1-subcritical-escape.json").read_text())
    model, analysis = cfg["model"], cfg["analysis"]
    p = hes1_params(c=model["c"], eps=model["eps"])
    kick = analysis["kick_scale"] if kick_scale is None else kick_scale
    return run_perturbed(p, find_equilibrium(p), kick, eta_end=analysis["t_end"],
                         rtol=analysis["rtol"], atol=analysis["atol"]), analysis


def test_escape_recipe_ends_just_past_the_floor():
    traj, _ = escape_run()
    assert traj.status == "denominator_breach"
    # the run no longer crawls toward the pole (it took ~11,000 steps)
    assert traj.stats.steps_accepted <= 1000
    # the last accepted step ends just above the floor the next stage hit
    assert DENOMINATOR_FLOOR <= traj.monitors["min_denominator"] \
        <= 1.02 * DENOMINATOR_FLOOR


def test_escape_end_time_is_well_conditioned():
    # a one-ulp change of the kick moved the end time by up to 1.8e-4
    # relative when the run went on to D = 0
    traj, analysis = escape_run()
    kick = analysis["kick_scale"]
    for toward in (0.0, -math.inf):
        moved, _ = escape_run(float(np.nextafter(kick, toward)))
        assert moved.status == "denominator_breach"
        assert abs(moved.t_final - traj.t_final) <= 1e-9 * traj.t_final


def test_transformed_rhs_raises_at_the_floor():
    # at r = 0 and xi(eta - 1) = 0, x' = f(0) = alpha_m = 35 and D = 1 - 35 c
    for d, raises in ((0.5 * DENOMINATOR_FLOOR, True), (2.0 * DENOMINATOR_FLOOR, False)):
        p = hes1_params(c=(1.0 - d) / 35.0, eps=1.0)
        if raises:
            with pytest.raises(DenominatorBreach):
                rhs_transformed((0.0, 0.0), (0.0, 0.0), p)
        else:
            assert rhs_transformed((0.0, 0.0), (0.0, 0.0), p)[3] == pytest.approx(d)


@pytest.mark.parametrize("c,status", [(0.3, "completed"), (1.5, "denominator_breach")])
def test_original_time_run_ends_at_the_same_floor(eq_state, c, status):
    # x' rises toward 1/c as the kicked y(t - tau) falls. At c = 0.3 the
    # run peaks at c x' = 0.99766 and at c = 1.0 at 0.99897, inside the
    # floor; at c = 1.5 it would peak past 1 - DENOMINATOR_FLOOR though
    # short of 1
    p = hes1_params(c=c, eps=1.0)
    hist = bump_history(eq_state, np.array([0.0, -0.5 * eq_state[1]]), span=1.0)
    traj = integrate_sdd(hist, 1.0, p, t_end=50.0, rtol=1e-7, atol=1e-9)
    assert traj.status == status
    assert c * traj.monitors["max_dx"] < 1.0 - DENOMINATOR_FLOOR
    if status == "denominator_breach":
        assert traj.t_final < 50.0
        assert traj.events[-1]["kind"] == "denominator_breach"


def test_sweep_grid_runs_stay_clear_of_the_floor():
    # every run the hes1-sweep grid makes (its 12 probes) completes with D
    # at least ten floors from zero (0.196 here; 0.0136 over the
    # benchmark's grids), so the floor ends only runs that are already on
    # their way to the pole
    runs = [run_perturbed(p, eq, kick, SWEEP["t_end"], SWEEP["rtol"])
            for p, eq, kick in sweep_runs(SWEEP["grid"])]
    completed = [t for t in runs if t.status == "completed"]
    assert len(completed) == 12
    assert min(t.monitors["min_denominator"] for t in completed) \
        >= 10 * DENOMINATOR_FLOOR


@settings(derandomize=True, database=None, deadline=None, max_examples=2000)
@given(t=st.one_of(st.floats(-10.0, 10.0), st.floats(-1e12, 1e12)),
       h=st.floats(0.0, 1.0, exclude_min=True))
def test_a_try_looks_up_no_time_past_the_frontier(t, h):
    # the step loop caps h at 1, so the five lookup times (t + c h) - 1 of
    # a try from t, where the history ends, pass t by rounding at most:
    # History.eval's frontier guard accepts them all
    hist = History(constant_history((1.0, 1.0), t0=t))
    for c in (dde._C2, dde._C3, dde._C4, dde._C5, 1.0):
        hist.eval((t + c * h) - 1.0)


def test_run_stats_count_the_step_loop(eq_state, monkeypatch):
    rhs_calls = []
    rhs = dde.checked_slopes

    def counted_rhs(*args):
        rhs_calls.append(None)
        return rhs(*args)

    monkeypatch.setattr(dde, "checked_slopes", counted_rhs)
    p = hes1_params(c=0.01, eps=EPS_HIGH)
    traj = integrate_transformed(bump_history(eq_state, 0.2 * eq_state, span=1.0),
                                 p, 40.0, rtol=1e-10, atol=1e-10)
    stats = traj.stats
    assert traj.status == "completed"
    assert stats.steps_accepted == len(traj.history._ends)
    assert stats.steps_rejected > 0
    # every stage made one RHS call: the initial slope, then six a try
    assert stats.stage_evals == len(rhs_calls) \
        == 1 + 6 * (stats.steps_accepted + stats.steps_rejected)

    # an abort: the stage whose RHS breached did not return
    rhs_calls.clear()
    traj, _ = escape_run()
    assert traj.stats.stage_evals == len(rhs_calls) - 1


def test_a_run_ending_early_keeps_its_end_event_last(monkeypatch):
    # a deep original-time kick at c = 0.05 loses positivity and completes;
    # an overflow injected into its last stage ends it there instead, after
    # the positivity event
    p = hes1_params(c=0.05, eps=EPS_LOW)
    eq = find_equilibrium(p)
    hist = bump_history(eq.state, -1.45 * eq.state, span=p.eps)
    rhs, calls = dde.checked_slopes, []

    def run():
        return integrate_sdd(hist, p.eps, p, t_end=100.0, rtol=1e-7, atol=1e-8)

    def counted(*args):
        calls.append(None)
        return rhs(*args)

    monkeypatch.setattr(dde, "checked_slopes", counted)
    completed = run()
    assert completed.status == "completed"
    assert [ev["kind"] for ev in completed.events] == ["positivity"]
    last = len(calls)

    def overflow_there(*args):
        calls.append(None)
        if len(calls) == 2 * last:
            raise OverflowError("injected")
        return rhs(*args)

    monkeypatch.setattr(dde, "checked_slopes", overflow_there)
    traj = run()
    assert traj.status == "nonfinite"
    assert traj.events[:-1] == completed.events
    assert traj.events[-1]["kind"] == "nonfinite"
    assert traj.events[-1]["t"] > traj.events[0]["t"] and traj.t_final < 100.0
    assert traj.stats.stage_evals == last - 1


def test_classify_run_labels(eq_state):
    p = hes1_params(c=0.01, eps=EPS_LOW)
    eq = find_equilibrium(p)
    tr = run_perturbed(p, eq, 0.05, eta_end=400.0, rtol=1e-7, atol=1e-8)
    assert classify_run(tr, eq, 0.05) == "decaying"
    # past the crossing the cycle needs ~1/(2 delta Re kappa1) eta units
    # to saturate; only then does the rate fall under the oscillation floor
    p2 = hes1_params(c=0.01, eps=EPS_HIGH)
    eq2 = find_equilibrium(p2)
    tr2 = run_perturbed(p2, eq2, 0.22, eta_end=1200.0, rtol=1e-7, atol=1e-8)
    assert classify_run(tr2, eq2, 0.22) == "oscillating"


def test_saturated_amplitude_matches_the_weakly_nonlinear_scale():
    p = hes1_params(c=0.01, eps=EPS_HIGH)
    eq = find_equilibrium(p)
    tr = run_perturbed(p, eq, 0.22, eta_end=1500.0, rtol=1e-7, atol=1e-8)
    s = measure_oscillation(tr)
    delta = 0.1
    predicted = 2.0 * np.sqrt(delta * RV.KAPPA1.real / (-RV.KAPPA3[0.01].real))
    assert 0.5 * predicted <= s.amplitude <= 2.0 * predicted


def test_saturated_amplitude_at_c_0_05_is_the_one_kappa3_predicts():
    # Just past eps0 the cycle's r-amplitude is 2 sqrt(Re kappa1 delta /
    # -Re kappa3(c)). Runs relax onto it at the rate 2 Re kappa1 delta,
    # about 1/10900 per eta here, so one kick that starts below the cycle
    # and one above it are run for three such times: they bracket it.
    delta = 0.0025
    p = hes1_params(c=0.05, eps=RV.EPS0 + delta)
    rep = analyze_normal_form(p)
    predicted = 2.0 * math.sqrt(rep.kappa1.real * delta / -rep.kappa3.real)
    eq = find_equilibrium(p)
    below, above = (measure_oscillation(
        run_perturbed(p, eq, kick, eta_end=32000.0, rtol=1e-8, atol=1e-9,
                      n_samples=16000), transient_fraction=0.9).amplitude
        for kick in (0.07, 0.1))
    assert 0.99 * predicted <= below <= predicted <= above <= 1.01 * predicted


def test_escape_sweep_finds_a_threshold():
    p = hes1_params(c=C_SUB, eps=EPS_LOW)
    eq = find_equilibrium(p)
    threshold, records = escape_sweep(p, eq, eta_end=300.0, rtol=1e-7)
    assert threshold is not None
    scales = [r[0] for r in records]
    labels = [r[1] for r in records]
    assert scales == sorted(scales)
    assert labels[-1] == "escaped"
    assert all(lab == "decaying" for lab in labels[:-1])
    assert threshold == scales[-1]


# -- the sweep's runs as lockstep lanes ---------------------------------------------

# the benchmark's seed-0 sweep grid (perfbench/workloads.py), its values
# written out so the test does not depend on the benchmark's code
SEED0_GRID = {"eps": [6.643278086193754, 6.660571575910703,
                      6.963945806557357, 6.996276772664933],
              "c": [0.007669120820529128, 0.01740889745949505,
                    0.045016311523717906]}
# and its hold-out seed-7 grid
SEED7_GRID = {"eps": [6.6176182467333815, 6.66870718687625,
                      6.95046903196886, 6.958360610862626],
              "c": [0.0033208611129692694, 0.01771714742718273,
                    0.03675551097751336]}
SWEEP = json.loads((RECIPES / "hes1-sweep.json").read_text())["analysis"]


SWEEP_KW = dict(probe_scales=SWEEP["probe_scales"], eta_end=SWEEP["t_end"],
                rtol=SWEEP["rtol"])


def sweep_cells(grid):
    """(params, eq) of every cell of the grid, row by row."""
    return [(p, find_equilibrium(p)) for p in
            (hes1_params(c=c, eps=eps) for eps in grid["eps"] for c in grid["c"])]


def sweep_runs(grid):
    """(params, eq, kick_scale) of every run a sweep of the grid makes,
    cell by cell, with hes1-sweep.json's probes."""
    return [(p, eq, -scale) for p, eq in sweep_cells(grid) for scale in SWEEP["probe_scales"]]


# The largest relative difference of the sampled r from its scalar run,
# measured: 5.0e-14 on hes1-sweep.json (6.7e-14 with its probes run to
# 150), 2.7e-10 on the seed-0 grid and 1.9e-11 on the seed-7 one (seed 1:
# 2.1e-8). The lanes differ from the scalar loop only where numpy's power,
# sine and vector products round differently from Python's scalar
# arithmetic.
@pytest.mark.parametrize("grid,end,bound", [
    (SWEEP["grid"], SWEEP["t_end"], 5e-13), (SWEEP["grid"], 150.0, 5e-13),
    (SEED0_GRID, SWEEP["t_end"], 2e-9), (SEED0_GRID, 150.0, 2e-9),
    (SEED7_GRID, SWEEP["t_end"], 2e-10)],
    ids=["hes1-sweep", "hes1-sweep-end-150", "benchmark-seed-0", "benchmark-seed-0-end-150",
         "benchmark-seed-7"])
def test_every_lane_takes_its_scalar_runs_steps(grid, end, bound):
    runs = sweep_runs(grid)
    done = lanes.lane_runs(runs, end, SWEEP["rtol"])
    worst = 0.0
    for (p, eq, kick), lane in zip(runs, done):
        traj = run_perturbed(p, eq, kick, end, SWEEP["rtol"])
        assert traj.status == "completed" and lane is not None
        t, r, stats = lane
        assert stats == traj.stats
        assert np.array_equal(t, traj.t[-len(t):])
        assert 2 * len(t) == len(traj.t)
        ref = traj.states[-len(t):, 0]
        worst = max(worst, float(np.max(np.abs(r - ref) / np.abs(ref))))
        assert dde._run_label("completed", t, r, 0.0, eq.r_star, kick) \
            == classify_run(traj, eq, kick)
    assert worst <= bound < SWEEP["rtol"]


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.lists(st.tuples(
    st.floats(0.01, 1.0), st.floats(0.01, 1.0),                 # mu_m, mu_p
    st.one_of(st.just(0.0), st.floats(1e-3, 1.5)),              # c
    st.floats(0.5, 20.0),                                       # eps
    st.floats(-50.0, 200.0), st.floats(-50.0, 3000.0),          # r, xi
    st.floats(0.0, 40.0), st.floats(0.0, 60.0),                 # f(xi_1), g(r_1)
    st.one_of(st.none(), st.floats(-1e-3, 1e-3))),              # D - floor, or free
    min_size=1, max_size=12))
def test_the_stacked_slopes_equal_transformed_slopes_bit_for_bit(drawn):
    # a drawn offset puts the lane's D within 1e-3 of the floor, through f
    lanes_, near_floor = [], []
    for mu_m, mu_p, c, eps, r, xi, f, g, offset in drawn:
        if offset is not None and c > 0:
            f = (1.0 - (DENOMINATOR_FLOOR + offset)) / c + mu_m * r
            near_floor.append(len(lanes_))
        lanes_.append((mu_m, mu_p, c, eps, r, xi, f, g))
    mu_m, mu_p, c, eps, r, xi, f, g = (np.array(v) for v in zip(*lanes_))
    assume(np.all(1.0 - c * (f - mu_m * r) != 0.0))
    out = np.empty(2 * len(r))
    d = lanes._stacked_slopes(np.array([mu_m, mu_p, c, eps]))(
        out, np.concatenate((r, xi)), np.concatenate((f, g)))
    want = np.array([transformed_slopes(r_, xi_, f_, g_, hes1_params(c=c_, eps=eps_, mu_m=mu_m_,
                                                                     mu_p=mu_p_))
                     for mu_m_, mu_p_, c_, eps_, r_, xi_, f_, g_ in lanes_]).T
    assert want.tobytes() == np.concatenate((out, d)).tobytes()
    assert np.all(np.abs(d[near_floor] - DENOMINATOR_FLOOR) <= 1.001e-3)


@pytest.mark.parametrize("grid", [SEED0_GRID, SEED7_GRID],
                         ids=["benchmark-seed-0", "benchmark-seed-7"])
def test_the_last_lanes_go_on_alone_with_the_same_steps(monkeypatch, grid):
    # below dde.HANDOFF_BELOW lanes, each goes on in the scalar loop from
    # its t, state, first-stage slopes and next step; with the handoff off
    # (0), every lane steps to its end as a lane
    runs, cells = sweep_runs(grid), sweep_cells(grid)
    starts = []
    integrate = dde._integrate

    def counted(*args, start=None, **kwargs):
        if start is not None:
            starts.append(start[1])
        return integrate(*args, start=start, **kwargs)

    monkeypatch.setattr(dde, "_integrate", counted)
    alone = lanes.lane_runs(runs, SWEEP["t_end"], SWEEP["rtol"])
    assert 0 < len(starts) < dde.HANDOFF_BELOW
    alone_labels = dde.classify_dynamics(cells, **SWEEP_KW)
    monkeypatch.setattr(dde, "HANDOFF_BELOW", 0)
    starts.clear()
    stepped = lanes.lane_runs(runs, SWEEP["t_end"], SWEEP["rtol"])
    assert not starts
    assert dde.classify_dynamics(cells, **SWEEP_KW) == alone_labels
    for (t, r, stats), (t_lane, r_lane, stats_lane) in zip(alone, stepped):
        assert stats == stats_lane and np.array_equal(t, t_lane)
        assert np.max(np.abs(r - r_lane) / np.abs(r_lane)) <= 1e-12


def test_lane_grid_labels_match_the_scalar_loop(monkeypatch):
    cells = sweep_cells(SEED0_GRID)
    # the seed-0 grid's 36 runs are past the crossover: the lanes label them
    assert 3 * len(cells) >= dde.LANES_FROM
    lanes_labels = dde.classify_dynamics(cells, **SWEEP_KW)
    monkeypatch.setattr(dde, "LANES_FROM", 10**9)
    assert dde.classify_dynamics(cells, **SWEEP_KW) == lanes_labels \
        == [scalar_cell_label(p, eq, **SWEEP_KW) for p, eq in cells]


def test_cells_next_to_eps0_take_the_local_regime_from_the_spectrum():
    # eps0 -+ 0.01 at c = 0.05, 0.5, 1.0 and 1.2. Below eps0 the slowest
    # mode decays too slowly to show within a 400 eta run, which labelled
    # the first row oscillating or unstable; the spectrum says stable, and
    # the probes that escape at c = 1.0 and 1.2 make those cells metastable
    cells = sweep_cells({"eps": [RV.EPS0 - 0.01, RV.EPS0 + 0.01],
                         "c": [0.05, 0.5, 1.0, 1.2]})
    assert dde.classify_dynamics(cells, **SWEEP_KW) == [
        "stable", "stable", "metastable", "metastable",
        "oscillating", "oscillating", "unstable", "unstable"]


def test_a_tiny_pool_still_completes_every_lane(monkeypatch):
    # a pool of 13 places a lane, once the samples are due, leaves some lanes
    # too little room for their segments (they were refused and ran again
    # alone): the pool grows instead, and every lane takes its run's steps
    monkeypatch.setattr(lanes, "_PLACES", 13)
    monkeypatch.setattr(dde, "HANDOFF_BELOW", 0)    # every lane steps to its end as a lane
    runs = sweep_runs(SWEEP["grid"])
    done = lanes.lane_runs(runs, SWEEP["t_end"], SWEEP["rtol"])
    for (p, eq, kick), lane in zip(runs, done):
        assert lane is not None
        assert lane[2] == run_perturbed(p, eq, kick, SWEEP["t_end"], SWEEP["rtol"]).stats


def test_zero_kicks_are_refused():
    # a zero probe used to label this stable cell metastable
    p = hes1_params(c=0.01, eps=6.7)
    cells = [(p, find_equilibrium(p))]
    with pytest.raises(ValueError, match=r"^probe_scales\[1\] must be > 0, got 0\.0$"):
        dde.classify_dynamics(cells, probe_scales=(0.25, 0.0))
    with pytest.raises(ValueError, match=r"^probe_scales\[0\] must be > 0, got -0\.5$"):
        dde.classify_dynamics(cells, probe_scales=(-0.5,))
    t = np.linspace(0.0, 100.0, 64)
    with pytest.raises(ValueError, match=r"^kick_scale must be non-zero, got 0\.0$"):
        classify_run(synthetic_trajectory(t, np.sin(t)), cells[0][1], 0.0)


def test_the_lanes_hold_under_a_megabyte():
    # the lanes keep a delay unit of segments each and r from the transient
    # cut on (0.29 MB for 36 lanes), not whole histories: measured 0.60 MB
    # at the peak for this 12-cell grid, against 0.51 MB for the scalar
    # loop's cell after cell
    import tracemalloc

    cells = sweep_cells(SEED0_GRID)
    assert 3 * len(cells) >= dde.LANES_FROM
    tracemalloc.start()
    try:
        labels = dde.classify_dynamics(cells, **SWEEP_KW)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert labels == ["stable"] * 6 + ["oscillating"] * 6
    assert peak <= 1.0e6


@pytest.mark.parametrize("lanes_from", [1, 10**9], ids=["lanes", "scalar"])
def test_a_run_that_raises_marks_only_its_cell(monkeypatch, lanes_from):
    # each cell's 1.45 probe escapes, so under lanes too it runs again
    # through run_perturbed, which raises for the second cell
    kw = dict(probe_scales=(0.5, 1.45), eta_end=300.0, rtol=1e-7)
    cells = [(p, find_equilibrium(p)) for p in (hes1_params(c=0.025, eps=EPS_LOW),
                                                hes1_params(c=0.025, eps=EPS_HIGH))]
    expected = [scalar_cell_label(*cells[0], **kw), "error: step budget exhausted"]
    run = dde.run_perturbed

    def failing(params, *args, **kwargs):
        if params is cells[1][0]:
            raise dde.NoConvergence("step budget exhausted")
        return run(params, *args, **kwargs)

    monkeypatch.setattr(dde, "run_perturbed", failing)
    monkeypatch.setattr(dde, "LANES_FROM", lanes_from)
    assert dde.classify_dynamics(cells, **kw) == expected
