"""Reference implementations the tests check the package against.

Each is a second, separately coded route to a number the package computes
one way (or a measurement built only for the tests); none is on a path
the package itself runs.
"""

import cmath
import math

import numpy as np

from sddhopf.dde import classify_run, run_perturbed
from sddhopf.errors import HypothesisViolated, NoConvergence, SddhopfError
from sddhopf.model import Equilibrium, ModelParams
from sddhopf.normalform import (QuadraticCoeffs, _first_order, _forcing,
                                _kappa3_by_power)
from sddhopf.roots import brentq
from sddhopf.stability import (CharParams, HopfPoint, StabilityKind, _validate_hopf,
                               char_eval, classify_stability, transversality)


def smul(s1, s2):
    """Full product of two signals {(harmonic, powA, powAbar, powc): coeff},
    with nothing dropped."""
    out = {}
    for k1, v1 in s1.items():
        for k2, v2 in s2.items():
            k = tuple(a + b for a, b in zip(k1, k2))
            out[k] = out.get(k, 0.0) + v1 * v2
    return out


# -- nonlinearity ------------------------------------------------------------

def _stencil_d1(v, x, h):
    return (v(x - 2 * h) - 8 * v(x - h) + 8 * v(x + h) - v(x + 2 * h)) / (12 * h)


def _stencil_d2(v, x, h):
    return (-v(x - 2 * h) + 16 * v(x - h) - 30 * v(x)
            + 16 * v(x + h) - v(x + 2 * h)) / (12 * h * h)


def _stencil_d3(v, x, h):
    return (v(x - 3 * h) - 8 * v(x - 2 * h) + 13 * v(x - h)
            - 13 * v(x + h) + 8 * v(x + 2 * h) - v(x + 3 * h)) / (8 * h ** 3)


def validate_derivatives(m, points, step_scale=2e-3):
    """Compare d1..d3 callbacks against 4th-order central differences of
    the value map. Returns {1: err, 2: err, 3: err} with the worst
    relative mismatch per order (identically-zero derivatives are
    compared on an absolute floor tied to the value scale)."""
    worst = {1: 0.0, 2: 0.0, 3: 0.0}
    for x in np.atleast_1d(np.asarray(points, dtype=float)):
        h = step_scale * max(1.0, abs(x))
        vscale = max(1.0, abs(m.value(x)))
        for order, stencil, deriv in ((1, _stencil_d1, m.d1),
                                      (2, _stencil_d2, m.d2),
                                      (3, _stencil_d3, m.d3)):
            fd = stencil(m.value, x, h)
            exact = deriv(x)
            # floor keeps zero derivatives (e.g. linear g) from dividing by 0
            denom = max(abs(exact), 1e-9 * vscale / h ** order)
            worst[order] = max(worst[order], abs(fd - exact) / denom)
    return worst


def derivatives_consistent(m, points, rtol=1e-6, step_scale=2e-3) -> bool:
    errs = validate_derivatives(m, points, step_scale=step_scale)
    return all(e <= rtol for e in errs.values())


# -- stability ---------------------------------------------------------------

def _beta_residual(beta, cp: CharParams):
    """The beta equation in cot form: beta^2 - eps^2 mu_m mu_p
    - eps (mu_m + mu_p) beta cot(2 beta)."""
    e, s = cp.eps, cp.mu_m + cp.mu_p
    return (beta * beta - e * e * cp.mu_m * cp.mu_p
            - e * s * beta * math.cos(2 * beta) / math.sin(2 * beta))


def solve_beta(cp: CharParams) -> float:
    """Unique beta in (0, pi/2) with beta^2 - eps^2 mu_m mu_p
    = eps (mu_m + mu_p) beta cot(2 beta).

    Solved on the sign-definite form multiplied through by sin(2 beta),
    which removes the cot singularities at both interval ends.
    """
    e, s = cp.eps, cp.mu_m + cp.mu_p
    mm = cp.mu_m * cp.mu_p

    def G(b):
        return (b * b - e * e * mm) * math.sin(2 * b) - e * s * b * math.cos(2 * b)

    lo, hi = 1e-12, math.pi / 2 - 1e-12
    glo, ghi = G(lo), G(hi)
    if glo == 0.0:
        beta = lo
    elif glo * ghi > 0:
        raise NoConvergence("no sign change of the beta equation on (0, pi/2)")
    else:
        beta = brentq(G, lo, hi, xtol=1e-15, rtol=8.9e-16, maxiter=200)

    res = _beta_residual(beta, cp)
    scale = max(1.0, beta * beta + e * e * mm + abs(e * s * beta))
    if abs(res) > 1e-12 * scale:
        # one safeguard Newton pass on the cot form
        for _ in range(5):
            d = 2 * beta - e * s * (math.cos(2 * beta) / math.sin(2 * beta)
                                    - 2 * beta / math.sin(2 * beta) ** 2)
            beta -= _beta_residual(beta, cp) / d
        res = _beta_residual(beta, cp)
        if abs(res) > 1e-12 * scale:
            raise NoConvergence("beta residual %.3e above tolerance" % res)
    return beta


def char_dlam(lam, cp: CharParams):
    """d/d(lam) of the characteristic function."""
    lam = complex(lam)
    return ((lam + cp.eps * cp.mu_p) + (lam + cp.eps * cp.mu_m)
            + 2 * cp.eps ** 2 * cp.p * cmath.exp(-2 * lam))


def characteristic_root_near(cp: CharParams, lam0, maxiter=80):
    """Newton iteration from lam0; used for root continuation in eps."""
    lam = complex(lam0)
    for _ in range(maxiter):
        step = char_eval(lam, cp) / char_dlam(lam, cp)
        lam -= step
        if abs(step) <= 1e-16 * max(1.0, abs(lam)):
            return lam
    raise NoConvergence("characteristic root iteration stalled at %r" % (lam,))


def solve_hopf_direct(mu_m, mu_p, p, eps_hi=1e4) -> HopfPoint:
    """Independent route: solve the two defining equations directly.

    beta(eps) comes from solve_beta for each eps; the Hopf condition is a
    root in eps of S(eps) = (mu_m+mu_p) beta(eps) + eps p sin(2 beta(eps)).
    Used as the cross-check for the closed form.
    """
    if mu_m * mu_p >= -p:
        raise HypothesisViolated(
            "mu_m mu_p >= -p (p = %g): no imaginary crossing exists" % p)

    def S(eps):
        b = solve_beta(CharParams(mu_m, mu_p, p, eps))
        return (mu_m + mu_p) * b + eps * p * math.sin(2 * b)

    lo = 1e-8
    hi = 1.0
    while S(hi) > 0:
        hi *= 4.0
        if hi > eps_hi:
            raise NoConvergence("no Hopf crossing found below eps = %g" % eps_hi)
    eps0 = brentq(S, lo, hi, xtol=1e-13, rtol=8.9e-16, maxiter=200)
    beta = solve_beta(CharParams(mu_m, mu_p, p, eps0))
    l = (eps0 / beta) ** 2
    hp = HopfPoint(mu_m=mu_m, mu_p=mu_p, p=p, eps0=eps0, omega=beta, l=l,
                   dalpha_deps=transversality(eps0, beta, mu_m, mu_p))
    _validate_hopf(hp)
    return hp


def winding_count(cp: CharParams, re_range=(0.0, 1.0),
                  im_range=(-math.pi / 2, math.pi / 2),
                  n0=4096, max_doublings=6) -> int:
    """Argument-principle root count of char_eval inside a rectangle.

    Trapezoid sampling of the boundary phase, with the point count doubled
    until two consecutive estimates agree on the same integer.
    """
    re0, re1 = re_range
    im0, im1 = im_range

    def boundary(n):
        seg = np.linspace(0.0, 1.0, n, endpoint=False)
        bottom = re0 + (re1 - re0) * seg + 1j * im0
        right = re1 + 1j * (im0 + (im1 - im0) * seg)
        top = re1 - (re1 - re0) * seg + 1j * im1
        left = re0 + 1j * (im1 - (im1 - im0) * seg)
        return np.concatenate([bottom, right, top, left])

    prev = None
    n = n0
    for _ in range(max_doublings):
        pts = boundary(n)
        vals = np.array([char_eval(z, cp) for z in pts])
        if np.min(np.abs(vals)) < 1e-12 * np.max(np.abs(vals)):
            raise NoConvergence("characteristic value vanishes on the contour")
        ratios = np.angle(np.roll(vals, -1) / vals)
        winding = float(np.sum(ratios) / (2 * math.pi))
        rounded = int(round(winding))
        if abs(winding - rounded) < 0.01 and prev == rounded:
            return rounded
        prev = rounded
        n *= 2
    raise NoConvergence("winding count did not stabilize")


# -- normal form -------------------------------------------------------------

def quadratic_coeffs_closed_form(eq, hp, frame, c) -> QuadraticCoeffs:
    """(a, b) from the explicit inverse formulas: the a-pair via the
    characteristic value at 2 i omega as determinant, applied to the 2 omega
    forcing of the package's series pass, the b-pair via the rationalized
    fractions over eps^2 f'^2 (mu_m mu_p - f' g'), forcing included."""
    es, w = hp.eps0, hp.omega
    mu_m, mu_p = hp.mu_m, hp.mu_p
    f1, f2 = eq.f1, eq.f2
    gp, gpp = eq.g1, eq.g2
    E2 = cmath.exp(-2j * w)
    Fu, Fv = _forcing(eq, hp, {(0, 0, 0, 0): c}, *_first_order(frame))
    Ra = (Fu[2, 2, 0, 0], Fv[2, 2, 0, 0])
    det = char_eval(2j * w, hp.char_params())
    a1 = (Ra[0] * (2j * w + es * mu_p) + Ra[1] * es * f1 * E2) / det
    a2 = (Ra[1] * (2j * w + es * mu_m) + Ra[0] * es * gp * E2) / det
    denb = es ** 2 * f1 ** 2 * (mu_m * mu_p - f1 * gp)
    b1 = (mu_p * f2 * w ** 2 + mu_p * f2 * es ** 2 * mu_m ** 2
          + 2 * f1 ** 2 * c * mu_p * w ** 2
          - 2 * f1 ** 2 * c * mu_p * w ** 2 * math.cos(w)
          - 2 * c * (f1 ** 3 * gp + mu_m * mu_p * f1 ** 2) * es * w * math.sin(w)
          + f1 ** 3 * gpp * es ** 2) / denb
    b2 = (mu_m * f1 ** 2 * gpp * es ** 2 + f2 * gp * w ** 2
          + f2 * gp * mu_m ** 2 * es ** 2 + 2 * c * f1 ** 2 * gp * w ** 2
          - 2 * c * mu_m * mu_p * f1 * w ** 2 * math.cos(w)
          - 2 * c * (mu_m * f1 ** 2 * gp + mu_m ** 2 * mu_p * f1) * es * w * math.sin(w)) / denb
    return QuadraticCoeffs(a1=a1, a2=a2, b1=b1, b2=b2, c=c)


def kappa3_at(eq, hp, frame, qc: QuadraticCoeffs) -> complex:
    """kappa3 at the one number qc.c, pointwise: the resonant forcing of the
    first-order solution and the second-order one qc, projected onto the
    adjoint frame. kappa1 is frame.kappa1."""
    u, v = _first_order(frame)
    u.update({(2, 2, 0, 0): qc.a1, (0, 1, 1, 0): qc.b1})
    v.update({(2, 2, 0, 0): qc.a2, (0, 1, 1, 0): qc.b2})
    return _kappa3_by_power(eq, hp, frame, {(0, 0, 0, 0): qc.c}, u, v)[0]


def normal_form_constant_delay(eq, hp, frame, qc: QuadraticCoeffs):
    """Independent c = 0 coding of the amplitude equation for the plain
    constant-delay system. Returns (kappa1, kappa3); the main pipeline at
    c = 0 must match this to 1e-10."""
    if qc.c != 0.0:
        raise ValueError("constant-delay formula needs coefficients at c = 0")
    es, w = hp.eps0, hp.omega
    th2 = frame.theta[1]
    vec = np.array([
        eq.f2 * (qc.a2 * th2.conjugate() + qc.b2 * th2)
        + 0.5 * eq.f3 * th2 ** 2 * th2.conjugate(),
        eq.g2 * (qc.a1 + qc.b1) + 0.5 * eq.g3,
    ])
    Ew = cmath.exp(1j * w)
    dbar, N, theta = (np.asarray(v) for v in (frame.dbar, frame.N, frame.theta))
    shared = Ew + es * (dbar @ (N @ theta))
    kappa1 = 1j * w * Ew / (es * shared)
    kappa3 = es * (dbar @ vec) / shared
    return kappa1, kappa3


# -- the original-time system by the method of steps ------------------------

def method_of_steps(params: ModelParams, base, kick, grid, rtol=1e-12, atol=1e-12):
    """States (x, y) and delays tau at the times grid (from 0 on) of the
    threshold-delay system from the data base + kick sin^2(pi s / eps) on
    [-eps, 0], constant before it (dde.bump_history with span eps).

    scipy's DOP853 runs over segments no longer than half the delay at
    their start (one delay at c = 0), so every delayed lookup lands in the
    stitched dense output of the segments before. Each right-hand side
    finds its delay as the root of tau - eps - c (x(t) - x(t - tau)) with
    scipy's brentq on that output. Nothing here calls sddhopf.dde.
    """
    from scipy.integrate import solve_ivp
    from scipy.optimize import brentq as scipy_brentq

    eps, c = params.eps, params.c
    f, g = params.nonlinearity.f, params.nonlinearity.g
    base, kick = np.asarray(base, dtype=float), np.asarray(kick, dtype=float)
    segs = []                       # (start, end, dense output), in time order
    x_scale = float(np.max(np.abs(base[0] + kick[0] * np.array([0.0, 1.0]))))

    def lookup(s):
        if s <= 0.0:
            return base + kick * math.sin(math.pi * max(s, -eps) / eps) ** 2
        for a, b, sol in reversed(segs):
            if s >= a - 1e-12:
                assert s <= b + 1e-12, "lookup past the last segment"
                return sol(s)
        raise AssertionError("lookup before the first segment")

    def delay(t, x_now, covered):
        # the root lies where t - tau is already covered: g < 0 at the
        # segment start, and g > 0 once tau passes eps + 2 c max|x|
        if c == 0.0:
            return eps

        def gap(tau):
            return tau - eps - c * (x_now - lookup(t - tau)[0])
        hi = eps + 4.0 * c * max(x_scale, abs(x_now)) + 1.0
        return scipy_brentq(gap, t - covered, hi, xtol=1e-15, rtol=4 * np.finfo(float).eps)

    def rhs(t, state, covered):
        tau = delay(t, state[0], covered)
        back = lookup(t - tau)
        return [-params.mu_m * state[0] + f.value(back[1]),
                -params.mu_p * state[1] + g.value(back[0])]

    t_end = float(grid[-1])
    t_seg, y0 = 0.0, base.copy()
    while t_seg < t_end:
        length = eps if c == 0.0 else 0.5 * delay(t_seg, y0[0], t_seg)
        t_next = min(t_seg + length, t_end)
        sol = solve_ivp(rhs, (t_seg, t_next), y0, method="DOP853", dense_output=True,
                        rtol=rtol, atol=atol, args=(t_seg,))
        assert sol.success, sol.message
        segs.append((t_seg, t_next, sol.sol))
        x_scale = max(x_scale, float(np.max(np.abs(sol.y[0]))))
        y0, t_seg = sol.y[:, -1], t_next
    states = np.array([lookup(t) for t in grid])
    taus = np.array([delay(t, x, t) if t > 0 else eps for t, x in zip(grid, states[:, 0])])
    return states, taus


# -- measurement -------------------------------------------------------------

def escape_sweep(params: ModelParams, eq: Equilibrium, start_scale=0.1,
                 factor=2.0, max_doublings=14, eta_end=300.0, rtol=1e-7):
    """Double a negative-side kick until the run escapes the basin.

    Returns (threshold_scale_or_None, records); each record is
    (scale, classification).
    """
    records = []
    scale = start_scale
    for _ in range(max_doublings):
        label = classify_run(run_perturbed(params, eq, -scale, eta_end, rtol),
                             eq, -scale)
        records.append((scale, label))
        if label == "escaped":
            return scale, records
        scale *= factor
    return None, records


def scalar_cell_label(params: ModelParams, eq: Equilibrium,
                      probe_scales=(0.25, 0.5, 1.0), eta_end=300.0, rtol=1e-7):
    """A sweep cell's label from one run_perturbed run after another, as
    classify_dynamics labelled a cell before its runs became lanes: the
    local regime from the spectrum, then the probe ladder up to its first
    escape; a spectrum or run that raises makes the cell 'error: <message>'."""
    try:
        unstable = classify_stability(eq, params.mu_m, params.mu_p,
                                      params.eps).kind is StabilityKind.UNSTABLE
        basin_ok = True
        for scale in probe_scales:
            if classify_run(run_perturbed(params, eq, -scale, eta_end, rtol),
                            eq, -scale) == "escaped":
                basin_ok = False
                break
    except (SddhopfError, ValueError, ArithmeticError) as exc:
        return "error: %s" % (str(exc) or type(exc).__name__)
    if unstable:
        return "oscillating" if basin_ok else "unstable"
    return "stable" if basin_ok else "metastable"


def refine_extremum(t, v, i):
    """Parabola through three samples around a discrete extremum, one sample
    at a time: the reference for dde._refine_extrema."""
    if i == 0 or i == len(v) - 1:
        return t[i], v[i]
    denom = (v[i - 1] - 2 * v[i] + v[i + 1])
    if denom == 0:
        return t[i], v[i]
    delta = 0.5 * (v[i - 1] - v[i + 1]) / denom
    delta = max(-1.0, min(1.0, delta))
    dt = t[i + 1] - t[i]
    return t[i] + delta * dt, v[i] - 0.25 * (v[i - 1] - v[i + 1]) * delta
