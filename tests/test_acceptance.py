"""Acceptance gate: one test per numbered criterion, each asserting the
stated tolerances (and runtime where one is stated) on the standard
case-study parameter set. Values quoted here are the published
display-precision targets; full-precision pins live in refvals.py.

Every criterion holds except four stated numbers of criterion 4, each
kept as a strict expected failure. The constant term of the Im kappa3(c)
quadratic: the recomputed value is -0.0036..., the stated target
+0.003599996653, and the c = 0 reduction cross-check (criterion 7b, 1e-10
agreement) fixes the recomputed sign. Both signs cannot hold at once; the
mismatch is a sign slip in the stated constant. The c^2 coefficients of
both parts and c0: the stated values follow from a c^2 term with f' where
the expansion of the transformed RHS gives f'^2 (see tests/refvals.py),
and the unit covariance and direct simulation refute them.
"""

import time

import numpy as np
import pytest

import refvals as RV
from oracles import (characteristic_root_near, escape_sweep, kappa3_at,
                     method_of_steps, normal_form_constant_delay,
                     quadratic_coeffs_closed_form, solve_hopf_direct,
                     validate_derivatives)
from sddhopf import (CharParams, char_eval,
                     bump_history, classify_run, critical_c, critical_frame,
                     find_equilibrium, hes1_params,
                     integrate_sdd, kappa3_quadratic, measure_oscillation,
                     quadratic_coeffs, run_perturbed, solve_hopf)

STANDARD = dict(mu_m=0.03, mu_p=0.04, alpha_m=35.0, alpha_p=10.0,
                ybar=1200.0, h=5.0)


def rel(a, b):
    return abs(a - b) / abs(b)


def test_criterion_1_equilibrium():
    t0 = time.perf_counter()
    eq = find_equilibrium(hes1_params(c=0.01, eps=6.0, **STANDARD))
    elapsed = time.perf_counter() - t0
    assert rel(eq.r_star, 11.97050076) < 1e-7
    assert rel(eq.xi_star, 2992.625189) < 1e-7
    assert rel(eq.f1, -0.00059384374) < 1e-7
    assert rel(eq.g1, 10.0) < 1e-7
    assert elapsed < 1.0
    print("criterion 1: (r*, xi*) = (%.8f, %.6f), f' = %.11f, g' = %g "
          "in %.3fs" % (eq.r_star, eq.xi_star, eq.f1, eq.g1, elapsed))


def test_criterion_2_hopf_point():
    t0 = time.perf_counter()
    hp = solve_hopf(0.03, 0.04, RV.P)
    direct = solve_hopf_direct(0.03, 0.04, RV.P)
    elapsed = time.perf_counter() - t0
    assert rel(hp.eps0, 6.86216245) < 1e-7
    assert rel(hp.omega, 0.47038322) < 1e-7
    assert rel(direct.eps0, hp.eps0) < 1e-9
    assert rel(direct.omega, hp.omega) < 1e-9
    assert elapsed < 1.0
    print("criterion 2: eps0 = %.9f, omega = %.9f, routes differ by %.2e "
          "in %.3fs" % (hp.eps0, hp.omega, rel(direct.eps0, hp.eps0), elapsed))


def test_criterion_3_nonresonance():
    val = char_eval(2j * RV.OMEGA, CharParams(0.03, 0.04, RV.P, RV.EPS0))
    target = -0.9140361052 + 0.1856539388j
    assert abs(val.real - target.real) < 1e-6
    assert abs(val.imag - target.imag) < 1e-6
    print("criterion 3: h(2 i omega) = %.10f%+.10fi" % (val.real, val.imag))


@pytest.fixture(scope="module")
def pipeline():
    eq = find_equilibrium(hes1_params(c=0.01, eps=6.0, **STANDARD))
    hp = solve_hopf(0.03, 0.04, eq.f1 * eq.g1)
    fr = critical_frame(eq, hp)
    return eq, hp, fr


def test_criterion_4_normal_form(pipeline):
    eq, hp, fr = pipeline
    t0 = time.perf_counter()
    poly = kappa3_quadratic(eq, hp, fr)
    c0 = critical_c(poly)
    elapsed = time.perf_counter() - t0
    assert abs(fr.kappa1 - (0.01841158248 + 0.04829902976j)) \
        / abs(0.01841158248 + 0.04829902976j) < 1e-5
    # the linear and constant Re terms and the linear Im term as stated;
    # the c^2 terms, c0 and the Im constant are tested separately below
    for got, want in zip(poly.re_coeffs[1:], (0.0008578251748, -0.001233336633)):
        assert rel(got, want) < 1e-4
    assert rel(poly.im_coeffs[1], -0.002534237744) < 1e-4
    # the c^2 terms and c0 against the corrected pins
    assert rel(poly.re_coeffs[0], RV.KAPPA3_RE_COEFFS[0]) < 1e-12
    assert rel(poly.im_coeffs[0], RV.KAPPA3_IM_COEFFS[0]) < 1e-12
    assert rel(c0, RV.C0) < 1e-10
    assert elapsed < 5.0
    print("criterion 4: kappa1 = %.11f%+.11fi, c0 = %.11f in %.3fs"
          % (fr.kappa1.real, fr.kappa1.imag, c0, elapsed))


@pytest.mark.xfail(strict=True,
                   reason="stated constant term +0.003599996653 of the Im "
                   "kappa3(c) quadratic has the opposite sign of the "
                   "recomputed value; the c = 0 reduction agrees with the "
                   "recomputed sign to 1e-10, so both targets cannot hold "
                   "at once. Treated as a sign slip in the stated value.")
def test_criterion_4_im_constant_term(pipeline):
    eq, hp, fr = pipeline
    poly = kappa3_quadratic(eq, hp, fr)
    got = poly.im_coeffs[2]
    print("criterion 4 (Im constant): recomputed %.12f vs stated +0.003599996653"
          % got)
    assert rel(got, 0.003599996653) < 1e-4


@pytest.mark.xfail(strict=True,
                   reason="the stated c^2 coefficients 2.114544332 (Re) and "
                   "-1.469928514 (Im) and c0 = 0.02394886242 come from a c^2 "
                   "term of the cubic forcing with f' where the expansion "
                   "G/D = G (1 + cF + c^2 F^2) of the transformed RHS gives "
                   "f'^2. With them c0 changes with the units of time and "
                   "concentration (0.0239, then 0.0139, 0.0091 and 0.1429 "
                   "after rescaling), and at c = 0.05 they predict no stable "
                   "cycle where a direct run saturates at the amplitude of "
                   "the recomputed kappa3: 2.9057e-4, -1.2132e-3 and "
                   "c0 = 1.05834 (test_normalform.py, test_dde.py).")
@pytest.mark.parametrize("part", ["re-c2", "im-c2", "c0"])
def test_criterion_4_stated_c2_terms_and_c0(pipeline, part):
    eq, hp, fr = pipeline
    poly = kappa3_quadratic(eq, hp, fr)
    got, stated = {"re-c2": (poly.re_coeffs[0], 2.114544332),
                   "im-c2": (poly.im_coeffs[0], -1.469928514),
                   "c0": (critical_c(poly), 0.02394886242)}[part]
    print("criterion 4 (%s): recomputed %.12g vs stated %.12g" % (part, got, stated))
    assert rel(got, stated) < 1e-4


def test_criterion_5_transversality(pipeline):
    _, hp, _ = pipeline
    assert hp.dalpha_deps > 0
    h = 1e-4
    cp = lambda e: CharParams(0.03, 0.04, RV.P, e)
    lp = characteristic_root_near(cp(hp.eps0 + h), 1j * hp.omega)
    lm = characteristic_root_near(cp(hp.eps0 - h), 1j * hp.omega)
    fd = (lp.real - lm.real) / (2 * h)
    assert rel(hp.dalpha_deps, fd) < 1e-3
    print("criterion 5: dalpha/deps = %.12f, fd continuation %.12f"
          % (hp.dalpha_deps, fd))


def test_criterion_6_figure_regimes():
    t0 = time.perf_counter()
    period_target = 2.0 * np.pi / RV.OMEGA

    # supercritical side of c0: decay below the crossing
    p_below = hes1_params(c=0.01, eps=RV.EPS0 - 0.1, **STANDARD)
    eq_b = find_equilibrium(p_below)
    s_below = measure_oscillation(
        run_perturbed(p_below, eq_b, 0.05, eta_end=400.0, rtol=1e-7, atol=1e-8))
    assert s_below.decay_rate > 0

    # sustained oscillation above it, on the cycle once saturated
    p_above = hes1_params(c=0.01, eps=RV.EPS0 + 0.1, **STANDARD)
    eq_a = find_equilibrium(p_above)
    traj_a = run_perturbed(p_above, eq_a, 0.22, eta_end=1500.0,
                           rtol=1e-7, atol=1e-8)
    s_above = measure_oscillation(traj_a)
    assert classify_run(traj_a, eq_a, 0.22) == "oscillating"
    assert abs(s_above.period - period_target) / period_target < 0.05
    assert s_above.amplitude > 1.0

    # just past c0: small kicks decay, a swept larger kick escapes
    p_sub = hes1_params(c=RV.C0 + 0.001, eps=RV.EPS0 - 0.1, **STANDARD)
    eq_s = find_equilibrium(p_sub)
    s_small = measure_oscillation(
        run_perturbed(p_sub, eq_s, 0.05, eta_end=400.0, rtol=1e-7, atol=1e-8))
    assert s_small.decay_rate > 0
    threshold, records = escape_sweep(p_sub, eq_s, eta_end=300.0, rtol=1e-7)
    assert threshold is not None
    assert records[0][1] == "decaying" and records[-1][1] == "escaped"

    # and above the crossing the equilibrium repels small kicks
    p_up = hes1_params(c=RV.C0 + 0.001, eps=RV.EPS0 + 0.1, **STANDARD)
    eq_u = find_equilibrium(p_up)
    s_up = measure_oscillation(
        run_perturbed(p_up, eq_u, 0.05, eta_end=250.0, rtol=1e-7, atol=1e-8),
        transient_fraction=0.3)
    assert s_up.decay_rate < 0

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print("criterion 6: below %.6f, above period %.4f (%.2f%% off), "
          "escape at %.2g, repel rate %.6f in %.1fs"
          % (s_below.decay_rate, s_above.period,
             100 * abs(s_above.period - period_target) / period_target,
             threshold, s_up.decay_rate, elapsed))


def test_criterion_7a_closed_vs_direct_on_random_sets():
    rng = np.random.default_rng(7)
    checked, draws, worst = 0, 0, 0.0
    while checked < 100 and draws < 400:
        draws += 1
        mu_m = 10.0 ** rng.uniform(-2.3, -0.6)
        mu_p = 10.0 ** rng.uniform(-2.3, -0.6)
        p = hes1_params(c=rng.uniform(0.0, 0.3), eps=1.0, mu_m=mu_m, mu_p=mu_p,
                        alpha_m=rng.uniform(5.0, 100.0),
                        alpha_p=rng.uniform(1.0, 30.0),
                        ybar=rng.uniform(300.0, 5000.0),
                        h=float(rng.choice([3, 5, 7])))
        try:
            eq = find_equilibrium(p)
            hp = solve_hopf(mu_m, mu_p, eq.f1 * eq.g1)
            fr = critical_frame(eq, hp)
            qd = quadratic_coeffs(eq, hp, fr, p.c)
            qcl = quadratic_coeffs_closed_form(eq, hp, fr, p.c)
        except Exception:
            continue
        da = np.array([qd.a1, qd.a2, qd.b1, qd.b2])
        ca = np.array([qcl.a1, qcl.a2, qcl.b1, qcl.b2])
        r = np.max(np.abs(da - ca)) / np.max(np.abs(da))
        worst = max(worst, r)
        assert r < 1e-8
        checked += 1
    assert checked == 100
    print("criterion 7a: 100 sets (%d draws), worst relative split %.2e"
          % (draws, worst))


def test_criterion_7b_constant_delay_reduction(pipeline):
    eq, hp, fr = pipeline
    qc0 = quadratic_coeffs(eq, hp, fr, 0.0)
    kappa3 = kappa3_at(eq, hp, fr, qc0)
    k1r, k3r = normal_form_constant_delay(eq, hp, fr, qc0)
    assert abs(fr.kappa1 - k1r) / abs(k1r) < 1e-10
    assert abs(kappa3 - k3r) / abs(k3r) < 1e-10
    print("criterion 7b: pipeline vs reduction kappa3 split %.2e"
          % (abs(kappa3 - k3r) / abs(k3r)))


def test_criterion_7c_independent_integration():
    p = hes1_params(c=0.0, eps=RV.EPS0 - 0.1, **STANDARD)
    eq = find_equilibrium(p)
    base = np.array([eq.r_star, eq.xi_star])
    kick, eps = 0.2 * base, p.eps
    grid = np.linspace(0.0, 200.0, 401)
    theirs, _ = method_of_steps(p, base, kick, grid, rtol=1e-13, atol=(1e-13, 1e-11))
    traj = integrate_sdd(bump_history(base, kick, span=eps), eps, p,
                         t_end=200.0, rtol=1e-12, atol=1e-13,
                         sample_times=grid)
    gap = np.max(np.abs(traj.states - theirs))
    assert gap < 1e-6
    print("criterion 7c: max gap to the independent integration %.2e" % gap)


def test_criterion_8_invariant_suite():
    p = hes1_params(c=0.01, eps=RV.EPS0 + 0.1, **STANDARD)
    eq = find_equilibrium(p)
    base = np.array([eq.r_star, eq.xi_star])
    hist = bump_history(base, -0.3 * base, span=p.eps)
    traj = integrate_sdd(hist, p.eps, p, t_end=300.0, rtol=1e-8, atol=1e-9)
    m = traj.monitors
    assert traj.status == "completed"
    assert m["min_x"] > 0 and m["min_y"] > 0 and m["min_tau"] > 0
    assert m["max_dx"] < min(1.0 / p.c, 35.0)
    assert m["max_threshold_residual"] <= 1e-12
    for mp, pts in ((p.nonlinearity.f, [50.0, 400.0, 1200.0, 3000.0]),
                    (p.nonlinearity.g, [1.0, 12.0, 30.0])):
        errs = validate_derivatives(mp, pts)
        assert all(e < 1e-6 for e in errs.values())
    print("criterion 8: min x/y/tau = %.3g/%.3g/%.3g, max dx %.4f < %g, "
          "residual %.1e" % (m["min_x"], m["min_y"], m["min_tau"],
                             m["max_dx"], min(1.0 / p.c, 35.0),
                             m["max_threshold_residual"]))
