"""Integrator tests: closed-form delay solves, an independent segmented
integration as oracle, convergence-order and invariant checks."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import refvals as RV
from sddhopf import (DENOMINATOR_FLOOR, DenominatorBreach, HistoryTooShort,
                     IncompatibleData, InitialHistory, InsufficientCycles,
                     NoBracket, SlopeBoundWarning, Trajectory,
                     bump_history, check_compatibility, classify_run,
                     constant_history, escape_sweep, find_equilibrium,
                     hes1_params, integrate_sdd, integrate_transformed,
                     measure_oscillation, rhs_transformed, run_perturbed,
                     solve_delay)
from sddhopf import dde
from sddhopf.dde import History

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


@pytest.mark.parametrize("c,m", [(0.3, 0.05), (0.1, -2.0), (0.02, 8.0)])
def test_delay_closed_form_without_a_derivative(c, m):
    # derivative=None: History takes x' from a central difference of value
    eps = 2.0
    p = hes1_params(c=c, eps=eps)
    hist = History(InitialHistory(value=lambda s: (1.0 + m * s, 0.0),
                                  derivative=None, t0=0.0, span=400.0))
    for s in (-3.0, 0.0, -400.0):
        assert hist.eval(s, slope=True)[2] == pytest.approx(m, rel=1e-8)
    assert hist.eval(-401.0, slope=True)[2] == 0.0
    tau = solve_delay(0.0, 1.0, hist, p)
    assert tau == pytest.approx(eps / (1.0 - c * m), rel=1e-12)


def test_run_without_a_derivative_follows_the_closed_form_one(eq_state):
    p = hes1_params(c=0.02, eps=EPS_HIGH)
    init = bump_history(eq_state, 0.2 * eq_state, span=p.eps)
    no_slope = InitialHistory(value=init.value, derivative=None,
                              t0=init.t0, span=init.span)
    ts = np.linspace(0.0, 100.0, 101)
    want = integrate_sdd(init, p.eps, p, t_end=100.0, sample_times=ts)
    got = integrate_sdd(no_slope, p.eps, p, t_end=100.0, sample_times=ts)
    assert got.status == want.status == "completed"
    assert np.allclose(got.states, want.states, rtol=1e-8, atol=0.0)
    assert np.allclose(got.delay, want.delay, rtol=1e-8, atol=0.0)


def test_newton_delay_matches_the_fixed_point_on_a_dense_history(eq_state):
    p = hes1_params(c=0.02, eps=EPS_HIGH)
    traj = integrate_sdd(bump_history(eq_state, 0.2 * eq_state, span=p.eps),
                         p.eps, p, t_end=200.0)
    hist = traj.history
    ts = np.linspace(0.0, 200.0, 151)
    xs = hist.eval_many(ts)[:, 0]
    for t, x in zip(ts, xs):
        tau = solve_delay(t, x, hist, p, tau_prev=p.eps)
        ref = reference_delay(t, x, hist, p, tau_prev=p.eps)
        assert abs(tau - ref) <= 1e-13 * max(p.eps, tau)


def test_no_bracket_when_slope_exceeds_the_bound():
    # c x' > 1: the threshold equation has no positive root on the bracket
    p = hes1_params(c=0.4, eps=2.0)
    init = InitialHistory(value=lambda s: np.array([3.0 * s, 0.0]),
                          derivative=lambda s: np.array([3.0, 0.0]),
                          t0=0.0, span=1000.0)
    with pytest.raises(NoBracket):
        solve_delay(0.0, 0.0, History(init), p)


def test_slope_bound_warning_on_steep_history():
    p = hes1_params(c=1.0, eps=1.0)
    init = InitialHistory(value=lambda s: np.array([2.0 * np.sin(3.0 * s), 0.0]),
                          derivative=lambda s: np.array([6.0 * np.cos(3.0 * s), 0.0]),
                          t0=0.0, span=200.0)
    events = []
    with pytest.warns(SlopeBoundWarning):
        tau = solve_delay(0.0, 0.0, History(init), p, events=events)
    # whatever root was picked, it satisfies the equation
    assert tau - 1.0 - (0.0 - 2.0 * np.sin(-3.0 * tau)) == pytest.approx(0.0, abs=1e-10)
    assert events and events[0]["kind"] == "slope_bound"


def test_bracketed_fallback_reports_the_slope_at_its_root(monkeypatch):
    # x = sin(20 s): the iteration wanders for its 60 steps and brentq
    # finds the root; the uniqueness check must use x' at that root
    p = hes1_params(c=1.0, eps=1.0)
    init = InitialHistory(value=lambda s: (math.sin(20.0 * s), 0.0),
                          derivative=lambda s: (20.0 * math.cos(20.0 * s), 0.0),
                          t0=0.0, span=200.0)
    calls = []
    bracketed = dde.brentq
    monkeypatch.setattr(dde, "brentq",
                        lambda *a, **k: calls.append(1) or bracketed(*a, **k))
    events = []
    with pytest.warns(SlopeBoundWarning):
        tau = solve_delay(0.0, 0.0, History(init), p, events=events)
    assert calls
    assert abs(tau - 1.0 + math.sin(-20.0 * tau)) <= 1e-12 * tau
    assert events[0]["detail"] == pytest.approx(abs(20.0 * math.cos(20.0 * tau)),
                                                rel=1e-12)


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


def test_missing_derivative_falls_back_to_finite_differences(params, eq_state):
    h = constant_history(eq_state, 0.0, span=10.0)
    h_nod = InitialHistory(value=h.value, derivative=None, t0=0.0, span=10.0)
    rep = check_compatibility(h_nod, tau0=params.eps, params=params)
    assert rep.passed


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


def test_threshold_residual_recomputed_from_dense_history(eq_state):
    p = hes1_params(c=0.01, eps=EPS_HIGH)
    hist = bump_history(eq_state, 0.2 * eq_state, span=p.eps)
    grid = np.linspace(0.0, 120.0, 49)
    traj = integrate_sdd(hist, p.eps, p, t_end=120.0, sample_times=grid)
    for t, row, tau in zip(traj.t, traj.states, traj.delay):
        x_back = traj.history.eval(t - tau)[0]
        res = tau - p.eps - p.c * (row[0] - x_back)
        assert abs(res) < 1e-10


def test_every_sample_delay_solves_the_threshold_equation(eq_state):
    p = hes1_params(c=0.02, eps=EPS_HIGH)
    hist = bump_history(eq_state, 0.2 * eq_state, span=p.eps)
    traj = integrate_sdd(hist, p.eps, p, t_end=300.0,
                         sample_times=np.linspace(0.0, 300.0, 1001))
    x_back = np.array([traj.history.eval(t - tau)[0]
                       for t, tau in zip(traj.t, traj.delay)])
    res = traj.delay - p.eps - p.c * (traj.states[:, 0] - x_back)
    assert np.all(np.abs(res) <= 1e-12 * np.maximum(p.eps, traj.delay))
    assert np.ptp(traj.delay) > 1e-3          # the delay really varies


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


def test_lookups_per_stage_on_the_original_time_recipe(eq_state, monkeypatch):
    # recipes/hes1-original.json: about 1400 stages, each one threshold
    # solve (x and x' from one lookup per Newton iteration) and one lookup
    # of the delayed state
    p = hes1_params(c=0.01, eps=6.762162456498764)
    counts = {"eval": 0, "stage": 0}
    lookup, rhs = History.eval, dde.rhs_original

    def counted_eval(self, *args, **kwargs):
        counts["eval"] += 1
        return lookup(self, *args, **kwargs)

    def counted_rhs(*args, **kwargs):
        counts["stage"] += 1
        return rhs(*args, **kwargs)

    monkeypatch.setattr(History, "eval", counted_eval)
    monkeypatch.setattr(dde, "rhs_original", counted_rhs)
    traj = integrate_sdd(bump_history(eq_state, 0.05 * eq_state, span=p.eps),
                         p.eps, p, t_end=1200.0, rtol=1e-8, atol=1e-9,
                         sample_times=np.linspace(0.0, 1200.0, 4096))
    assert traj.status == "completed"
    assert counts["stage"] > 1000
    assert counts["eval"] <= 3.5 * counts["stage"], counts


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


def test_matches_independent_segmented_integration(eq_state):
    # constant-delay case checked against a separately coded method of
    # steps built on scipy's DOP853
    p = hes1_params(c=0.0, eps=EPS_LOW)
    eps = p.eps
    base, kick = eq_state, 0.2 * eq_state
    spec = p.nonlinearity

    def bump(s):
        if s <= -eps:
            return base.copy()
        return base + kick * np.sin(np.pi * s / eps) ** 2

    segs = []

    def lookup(s):
        if s <= 0.0:
            return bump(s)
        for a, b, sol in segs:
            if s <= b + 1e-12:
                return sol(s)
        raise AssertionError("lookup past the last segment")

    def rhs(t, y):
        yd = lookup(t - eps)
        return [-p.mu_m * y[0] + spec.f.value(yd[1]),
                -p.mu_p * y[1] + spec.g.value(yd[0])]

    t_seg, y0 = 0.0, base.copy()
    while t_seg < 200.0:
        t_next = min(t_seg + eps, 200.0)
        sol = solve_ivp(rhs, (t_seg, t_next), y0, method="DOP853",
                        dense_output=True, rtol=1e-13, atol=[1e-13, 1e-11])
        assert sol.success
        segs.append((t_seg, t_next, sol.sol))
        y0 = sol.y[:, -1]
        t_seg = t_next

    grid = np.linspace(0.0, 200.0, 401)
    traj = integrate_sdd(bump_history(base, kick, span=eps), eps, p,
                         t_end=200.0, rtol=1e-12, atol=1e-13,
                         sample_times=grid)
    theirs = np.array([lookup(t) for t in grid])
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
    # 1/c below the reachable slope: integration must stop with the
    # named status rather than continue past the validity bound
    p = hes1_params(c=2.0, eps=1.0)
    hist = bump_history(eq_state, np.array([0.0, -0.5 * eq_state[1]]),
                        span=1.0)
    traj = integrate_sdd(hist, 1.0, p, t_end=50.0, rtol=1e-7, atol=1e-9)
    assert traj.status == "b2_violation"
    assert traj.t_final < 50.0
    assert traj.events[-1]["kind"] == "b2_violation"


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


@pytest.mark.parametrize("c,status", [(0.3, "completed"), (0.35, "b2_violation")])
def test_original_time_run_ends_at_the_same_floor(eq_state, c, status):
    # x' rises toward 1/c as the kicked y(t - tau) falls. At c = 0.3 the
    # run peaks at c x' = 0.99835, inside the floor; at c = 0.35 it would
    # peak at 0.99915, past 1 - DENOMINATOR_FLOOR though short of 1
    p = hes1_params(c=c, eps=1.0)
    hist = bump_history(eq_state, np.array([0.0, -0.5 * eq_state[1]]), span=1.0)
    traj = integrate_sdd(hist, 1.0, p, t_end=50.0, rtol=1e-7, atol=1e-9)
    assert traj.status == status
    assert c * traj.monitors["max_dx"] < 1.0 - DENOMINATOR_FLOOR
    if status == "b2_violation":
        assert traj.t_final < 50.0
        assert traj.events[-1]["kind"] == "b2_violation"


def test_sweep_grid_runs_stay_clear_of_the_floor(monkeypatch):
    # every run the hes1-sweep grid makes completes with D at least ten
    # floors from zero (0.196 here; 0.0136 over the benchmark's grids), so
    # the floor ends only runs that are already on their way to the pole
    runs = []
    integrate = dde.integrate_transformed

    def recorded(*args, **kwargs):
        runs.append(integrate(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(dde, "integrate_transformed", recorded)
    cfg = json.loads((RECIPES / "hes1-sweep.json").read_text())
    base = hes1_params(c=cfg["model"]["c"], eps=cfg["model"]["eps"])
    analysis = cfg["analysis"]
    for eps in analysis["grid"]["eps"]:
        for c in analysis["grid"]["c"]:
            p = base.with_overrides(c=c, eps=eps)
            dde.classify_dynamics(p, find_equilibrium(p), small_kick=analysis["small_kick"],
                                  probe_scales=analysis["probe_scales"],
                                  eta_end=analysis["t_end"], rtol=analysis["rtol"])
    completed = [t for t in runs if t.status == "completed"]
    assert len(completed) == 16
    assert min(t.monitors["min_denominator"] for t in completed) \
        >= 10 * DENOMINATOR_FLOOR


def test_run_stats_count_the_step_loop(eq_state, monkeypatch):
    rhs_calls, lookups = [], []
    rhs, lookup = dde.rhs_transformed, History.eval

    def counted_rhs(*args):
        rhs_calls.append(None)
        return rhs(*args)

    def lookup_once_past_the_frontier(self, t, slope=False):
        # the 53rd lookup, inside a try, reports the frontier passed once
        lookups.append(None)
        if len(lookups) == 53:
            raise dde._BeyondFrontier(t)
        return lookup(self, t, slope)

    monkeypatch.setattr(dde, "rhs_transformed", counted_rhs)
    monkeypatch.setattr(History, "eval", lookup_once_past_the_frontier)
    p = hes1_params(c=0.01, eps=EPS_HIGH)
    traj = integrate_transformed(bump_history(eq_state, 0.2 * eq_state, span=1.0),
                                 p, 40.0, rtol=1e-10, atol=1e-10)
    stats = traj.stats
    assert traj.status == "completed"
    assert stats.steps_accepted == len(traj.history._ends)
    assert stats.steps_rejected > 0 and stats.frontier_halvings == 1
    # every stage that returned made one RHS call; the halved try made
    # fewer than six
    assert stats.stage_evals == len(rhs_calls)
    assert stats.stage_evals < 1 + 6 * (stats.steps_accepted + stats.steps_rejected + 1)

    # an abort: the stage whose RHS breached did not return
    monkeypatch.setattr(History, "eval", lookup)
    rhs_calls.clear()
    traj, _ = escape_run()
    assert traj.stats.stage_evals == len(rhs_calls) - 1


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
