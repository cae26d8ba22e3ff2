"""Hopf normal form at eps0 by the method of multiple time scales.

The slow-time amplitude equation is

    A' = kappa1 * delta * A + kappa3 * A^2 conj(A),    delta = eps - eps0,

with kappa1 fixed by the linear problem and kappa3 assembled from the
second-order particular solutions (a1, a2, b1, b2) and the cubic forcing
vector chi. Re kappa3 < 0 gives a supercritical bifurcation, > 0
subcritical; for the threshold-delay family kappa3 is exactly quadratic
in the state-dependence coefficient c, and the critical c0 is the
positive root of Re kappa3(c) = 0.

The chi term lists below mirror the derivation's bracket layout one code
entry per summand, so each line can be audited independently.
"""

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

import numpy as np

from .errors import (DegenerateProjection, NoConvergence, NoSignChange,
                     ResonanceViolation, SingularFrame)
from .model import Equilibrium, ModelParams, find_equilibrium
from .stability import HopfPoint, char_eval, solve_hopf


@dataclass(frozen=True)
class CriticalFrame:
    """Right/left critical eigendata at the Hopf point.

    theta spans the i*omega eigenspace of the delay linearization with
    theta[0] = 1; d is the adjoint vector normalized so conj(d).theta = 1.
    """

    omega: float
    eps0: float
    theta: np.ndarray
    d: np.ndarray
    M: np.ndarray
    N: np.ndarray

    @property
    def dbar(self) -> np.ndarray:
        return self.d.conj()

    def residuals(self):
        A = (1j * self.omega * np.eye(2) - self.eps0 * self.M
             - self.eps0 * self.N * cmath.exp(-1j * self.omega))
        right = np.linalg.norm(A @ self.theta)
        left = np.linalg.norm(A.conj().T @ self.d)
        norm = abs(self.dbar @ self.theta - 1.0)
        return right, left, norm


def critical_frame(eq: Equilibrium, hp: HopfPoint) -> CriticalFrame:
    if eq.f1 == 0.0:
        raise SingularFrame("f'(xi*) = 0: no cross-coupling eigenvector")
    es, w = hp.eps0, hp.omega
    theta2 = cmath.exp(1j * w) * (1j * w + es * hp.mu_m) / (es * eq.f1)
    theta = np.array([1.0 + 0j, theta2])
    d = np.array([-1j * w + es * hp.mu_p,
                  es * cmath.exp(1j * w) * eq.f1]) / (-2j * w + es * (hp.mu_m + hp.mu_p))
    frame = CriticalFrame(omega=w, eps0=es, theta=theta, d=d,
                          M=np.diag([-hp.mu_m, -hp.mu_p]),
                          N=np.array([[0.0, eq.f1], [eq.g1, 0.0]]))
    right, left, norm = frame.residuals()
    if right > 1e-9 or left > 1e-9:
        raise NoConvergence("critical frame residuals %.2e / %.2e" % (right, left))
    if norm > 1e-12:
        raise NoConvergence("adjoint normalization off by %.2e" % norm)
    return frame


@dataclass(frozen=True)
class QuadraticCoeffs:
    """Second-order particular-solution amplitudes: a* multiply
    e^{2 i omega eta}, b* multiply the constant A*conj(A) harmonic."""

    a1: complex
    a2: complex
    b1: float
    b2: float
    c: float


def _quadratic_rhs(eq, hp, frame, c):
    """Forcing vectors of the a-system (2 omega harmonic) and b-system
    (zero harmonic), shared by both solution routes."""
    es, w = hp.eps0, hp.omega
    mu_m, mu_p = hp.mu_m, hp.mu_p
    f1, f2 = eq.f1, eq.f2
    gp, gpp = eq.g1, eq.g2
    th2 = frame.theta[1]
    E1, E2 = cmath.exp(-1j * w), cmath.exp(-2j * w)
    Ra = es * np.array([
        c * mu_m ** 2 - 2 * c * mu_m * f1 * th2 * E1
        + 0.5 * (f2 + 2 * c * f1 ** 2) * th2 ** 2 * E2,
        -c * mu_p * f1 * th2 ** 2 * E1 + c * mu_m * mu_p * th2 + 0.5 * gpp * E2
        + c * f1 * gp * th2 * E2 - c * mu_m * gp * E1,
    ])
    t2Ec = 2 * (th2 * E1).real          # th2 e^{-iw} + conj
    t2abs = (th2 * th2.conjugate()).real
    t2re2 = 2 * th2.real
    Rb = es * np.array([
        2 * c * mu_m ** 2 - 2 * c * mu_m * f1 * t2Ec + (f2 + 2 * c * f1 ** 2) * t2abs,
        -2 * c * mu_p * f1 * t2abs * math.cos(w) + c * mu_m * mu_p * t2re2 + gpp
        + c * f1 * gp * t2re2 - 2 * c * mu_m * gp * math.cos(w),
    ])
    return Ra, Rb


def quadratic_coeffs_direct(eq, hp, frame, c) -> QuadraticCoeffs:
    """(a, b) from the 2x2 linear solves."""
    es, w = hp.eps0, hp.omega
    E2 = cmath.exp(-2j * w)
    Ra, Rb = _quadratic_rhs(eq, hp, frame, c)
    Amat = np.array([[2j * w + es * hp.mu_m, -es * eq.f1 * E2],
                     [-es * eq.g1 * E2, 2j * w + es * hp.mu_p]])
    a = np.linalg.solve(Amat, Ra)
    Bmat = es * np.array([[hp.mu_m, -eq.f1], [-eq.g1, hp.mu_p]])
    b = np.linalg.solve(Bmat, Rb)
    return QuadraticCoeffs(a1=a[0], a2=a[1], b1=b[0].real, b2=b[1].real, c=c)


def quadratic_coeffs_closed_form(eq, hp, frame, c) -> QuadraticCoeffs:
    """(a, b) from the explicit inverse formulas: the a-pair via the
    characteristic value at 2 i omega as determinant, the b-pair via the
    rationalized fractions over eps^2 f'^2 (mu_m mu_p - f' g')."""
    es, w = hp.eps0, hp.omega
    mu_m, mu_p = hp.mu_m, hp.mu_p
    f1, f2 = eq.f1, eq.f2
    gp, gpp = eq.g1, eq.g2
    E2 = cmath.exp(-2j * w)
    Ra, _ = _quadratic_rhs(eq, hp, frame, c)
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


def quadratic_coeffs(eq, hp, frame, c, resonance_tol=1e-6) -> QuadraticCoeffs:
    """Checked (a, b): direct solve cross-validated against closed forms."""
    h2 = char_eval(2j * hp.omega, hp.char_params())
    if abs(h2) <= resonance_tol:
        raise ResonanceViolation(
            "2 i omega is a near-characteristic root: h(2 i omega) = "
            "%.6e%+.6ei, magnitude %.3e" % (h2.real, h2.imag, abs(h2)))
    direct = quadratic_coeffs_direct(eq, hp, frame, c)
    closed = quadratic_coeffs_closed_form(eq, hp, frame, c)
    da = np.array([direct.a1, direct.a2])
    ca = np.array([closed.a1, closed.a2])
    db = np.array([direct.b1, direct.b2])
    cb = np.array([closed.b1, closed.b2])
    ascale = max(np.max(np.abs(da)), 1e-300)
    bscale = max(np.max(np.abs(db)), 1e-300)
    if np.max(np.abs(da - ca)) > 1e-8 * ascale or np.max(np.abs(db - cb)) > 1e-8 * bscale:
        raise NoConvergence("closed-form and direct (a, b) disagree")
    return direct


class Direction(str, Enum):
    SUPERCRITICAL = "supercritical"
    SUBCRITICAL = "subcritical"
    DEGENERATE = "degenerate"


def classify_direction(kappa3: complex) -> Direction:
    if abs(kappa3.real) <= 1e-12 * abs(kappa3):
        return Direction.DEGENERATE
    return Direction.SUPERCRITICAL if kappa3.real < 0 else Direction.SUBCRITICAL


@dataclass(frozen=True)
class NormalForm:
    kappa1: complex
    kappa3: complex
    direction: Direction
    c: float
    c0: Optional[float] = None


# harmonic-polynomial helpers: a signal is {(harmonic, powA, powAbar): coeff}

def _smul(s1, s2):
    out = {}
    for k1, v1 in s1.items():
        for k2, v2 in s2.items():
            k = (k1[0] + k2[0], k1[1] + k2[1], k1[2] + k2[2])
            out[k] = out.get(k, 0.0) + v1 * v2
    return out


def _resonant(coeff_and_signals):
    """Sum coeff * [A^2 conj(A) e^{i omega}] component over triple products."""
    total = 0.0 + 0.0j
    for coeff, sa, sb, sc in coeff_and_signals:
        sig = _smul(_smul(sa, sb), sc)
        total += coeff * sig.get((1, 2, 1), 0.0)
    return total


def _chi_resonant(eq, hp, frame, qc, c):
    """Resonant part of the cubic forcing vector chi.

    First-order signals are A e^{i w eta} theta + c.c.; second-order ones
    carry the (a, b) amplitudes on the 2w and zero harmonics. Delayed
    signals pick up e^{-i w} per harmonic. The (eps/6) block is the cubic
    bracket, the (eps/2) block the first-order/second-order interaction.
    """
    es, w = hp.eps0, hp.omega
    mu_m, mu_p = hp.mu_m, hp.mu_p
    f1, f2, f3 = eq.f1, eq.f2, eq.f3
    gp, gpp, gppp = eq.g1, eq.g2, eq.g3
    th2 = frame.theta[1]
    a1, a2, b1, b2 = qc.a1, qc.a2, qc.b1, qc.b2
    E1 = cmath.exp(-1j * w)
    E2 = cmath.exp(-2j * w)

    u1 = {(1, 1, 0): 1.0, (-1, 0, 1): 1.0}
    v1 = {(1, 1, 0): th2, (-1, 0, 1): th2.conjugate()}
    u1d = {(1, 1, 0): E1, (-1, 0, 1): E1.conjugate()}
    v1d = {(1, 1, 0): th2 * E1, (-1, 0, 1): (th2 * E1).conjugate()}
    u2 = {(2, 2, 0): a1, (0, 1, 1): b1, (-2, 0, 2): a1.conjugate()}
    v2 = {(2, 2, 0): a2, (0, 1, 1): b2, (-2, 0, 2): a2.conjugate()}
    u2d = {(2, 2, 0): a1 * E2, (0, 1, 1): b1, (-2, 0, 2): (a1 * E2).conjugate()}
    v2d = {(2, 2, 0): a2 * E2, (0, 1, 1): b2, (-2, 0, 2): (a2 * E2).conjugate()}
    one = {(0, 0, 0): 1.0}

    cubic_u = [
        (-6 * c ** 2 * mu_m ** 3, u1, u1, u1),
        (18 * c ** 2 * mu_m ** 2 * f1, u1, u1, v1d),
        (-(6 * c * mu_m * f2 + 18 * c ** 2 * mu_m * f1 ** 2), u1, v1d, v1d),
        (f3 + 6 * c * f2 * f1 + 6 * c ** 2 * f1 ** 3, v1d, v1d, v1d),
    ]
    cubic_v = [
        (gppp, u1d, u1d, u1d),
        (-6 * c ** 2 * mu_m ** 2 * mu_p, u1, u1, v1),
        (6 * c ** 2 * mu_m ** 2 * gp, u1, u1, u1d),
        (-3 * c * mu_m * gpp, u1, u1d, u1d),
        (3 * c * gpp * f1, u1d, u1d, v1d),
        # c^2 piece enters with plain f1 here (not f1**2); this term fixes
        # the c^2 coefficients of the reference Hes1 kappa3 quadratics
        (-3 * (c * mu_p * f2 + 2 * c ** 2 * mu_p * f1), v1, v1d, v1d),
        (3 * (c * f2 * gp + 2 * c ** 2 * f1 ** 2 * gp), u1d, v1d, v1d),
        (12 * c ** 2 * mu_m * mu_p * f1, u1, v1, v1d),
        (-12 * c ** 2 * mu_m * gp * f1, u1, u1d, v1d),
    ]
    inter_u = [
        (2 * c * mu_m ** 2, u1, u2, one),
        (2 * c * mu_m ** 2, u2, u1, one),
        (-4 * c * mu_m * f1, u2, v1d, one),
        (-4 * c * mu_m * f1, u1, v2d, one),
        (2 * (f2 + 2 * c * f1 ** 2), v1d, v2d, one),
    ]
    inter_v = [
        (-2 * c * mu_p * f1, v1, v2d, one),
        (-2 * c * mu_p * f1, v2, v1d, one),
        (2 * c * mu_m * mu_p, u2, v1, one),
        (2 * c * mu_m * mu_p, u1, v2, one),
        (2 * gpp, u1d, u2d, one),
        (2 * c * f1 * gp, u1d, v2d, one),
        (2 * c * f1 * gp, u2d, v1d, one),
        (-2 * c * mu_m * gp, u2, u1d, one),
        (-2 * c * mu_m * gp, u1, u2d, one),
    ]
    chi = np.array([
        (es / 6) * _resonant(cubic_u) + (es / 2) * _resonant(inter_u),
        (es / 6) * _resonant(cubic_v) + (es / 2) * _resonant(inter_v),
    ])
    return chi


def _projection_denominator(frame: CriticalFrame):
    es, w = frame.eps0, frame.omega
    return 1.0 + es * cmath.exp(-1j * w) * (frame.dbar @ (frame.N @ frame.theta))


def normal_form(eq, hp, frame, qc: QuadraticCoeffs, c=None) -> NormalForm:
    """Project the resonant forcing onto the adjoint frame.

    kappa1 multiplies delta*A and equals the transversality derivative in
    its real part; kappa3 multiplies A^2 conj(A).
    """
    if c is None:
        c = qc.c
    if c != qc.c:
        raise ValueError("quadratic coefficients were computed at c = %g, not %g"
                         % (qc.c, c))
    denom = _projection_denominator(frame)
    if abs(denom) < 1e-10:
        raise DegenerateProjection("projection denominator %.3e" % abs(denom))
    kappa1 = (1j * hp.omega / hp.eps0) / denom
    chi = _chi_resonant(eq, hp, frame, qc, c)
    kappa3 = (frame.dbar @ chi) / denom
    if math.copysign(1.0, kappa1.real) != math.copysign(1.0, hp.dalpha_deps):
        raise NoConvergence("Re kappa1 disagrees in sign with the transversality value")
    return NormalForm(kappa1=kappa1, kappa3=kappa3,
                      direction=classify_direction(kappa3), c=c)


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
    shared = Ew + es * (frame.dbar @ (frame.N @ frame.theta))
    kappa1 = 1j * w * Ew / (es * shared)
    kappa3 = es * (frame.dbar @ vec) / shared
    return kappa1, kappa3


@dataclass(frozen=True)
class Kappa3Quadratic:
    """kappa3 as a function of c: exact quadratics for both parts."""

    re_coeffs: Tuple[float, float, float]   # (q2, q1, q0)
    im_coeffs: Tuple[float, float, float]
    fit_cs: Tuple[float, ...]

    def __call__(self, c):
        return (np.polyval(self.re_coeffs, c)
                + 1j * np.polyval(self.im_coeffs, c))


def kappa3_quadratic(eq, hp, frame, fit_cs=(0.0, 0.01, 0.05)) -> Kappa3Quadratic:
    """Evaluate kappa3 on three c values and interpolate the quadratic.

    kappa3 is exactly quadratic in c, so three points determine it; a
    fourth evaluation guards the claim.
    """
    def k3(c):
        qc = quadratic_coeffs(eq, hp, frame, c)
        return normal_form(eq, hp, frame, qc).kappa3

    cs = np.asarray(fit_cs, dtype=float)
    if len(cs) != 3 or len(set(cs.tolist())) != 3:
        raise ValueError("exactly three fit points required, all different; got %s"
                         % list(fit_cs))
    vals = np.array([k3(c) for c in cs])
    re_co = np.polyfit(cs, vals.real, 2)
    im_co = np.polyfit(cs, vals.imag, 2)
    poly = Kappa3Quadratic(re_coeffs=tuple(re_co), im_coeffs=tuple(im_co),
                           fit_cs=tuple(cs))
    lo, hi = min(cs), max(cs)
    c_test = (lo + hi) / 2
    if c_test in cs:            # the middle fit point: go halfway below it
        c_test = (lo + c_test) / 2
    probe = k3(c_test)
    if abs(poly(c_test) - probe) > 1e-6 * max(abs(probe), 1e-12):
        raise NoConvergence("kappa3(c) deviates from the fitted quadratic")
    return poly


def critical_c(poly: Kappa3Quadratic, c_max=1.0) -> float:
    """Positive root of Re kappa3(c) = 0 on the fitted quadratic: the
    supercritical/subcritical boundary in c."""
    q2, q1, q0 = poly.re_coeffs
    disc = q1 * q1 - 4 * q2 * q0
    roots = []
    if q2 != 0.0 and disc >= 0.0:
        roots = [(-q1 + math.sqrt(disc)) / (2 * q2), (-q1 - math.sqrt(disc)) / (2 * q2)]
    elif q2 == 0.0 and q1 != 0.0:
        roots = [-q0 / q1]
    candidates = sorted(r for r in roots if 0.0 < r <= c_max)
    if not candidates:
        raise NoSignChange("Re kappa3 keeps one sign on (0, %g]" % c_max)
    c0 = candidates[0]
    below = np.polyval(poly.re_coeffs, c0 * 0.9)
    above = np.polyval(poly.re_coeffs, min(c0 * 1.1, c_max))
    if math.copysign(1.0, below) == math.copysign(1.0, above):
        raise NoSignChange("no sign flip of Re kappa3 across c = %g" % c0)
    return c0


@dataclass(frozen=True)
class NormalFormReport:
    """Everything the normal-form stage knows at one parameter point."""

    eq: Equilibrium
    hopf: HopfPoint
    kappa1: complex
    kappa3: complex
    direction: Direction
    c: float
    poly: Kappa3Quadratic
    c0: Optional[float]


def analyze_normal_form(params: ModelParams, fit_cs=(0.0, 0.01, 0.05),
                        c_max=1.0) -> NormalFormReport:
    """Full pipeline at params.c: equilibrium, Hopf point, frame, kappa
    coefficients, the kappa3(c) quadratics, and c0 when it exists."""
    eq = find_equilibrium(params)
    hp = solve_hopf(params.mu_m, params.mu_p, eq.p)
    frame = critical_frame(eq, hp)
    qc = quadratic_coeffs(eq, hp, frame, params.c)
    nf = normal_form(eq, hp, frame, qc)
    poly = kappa3_quadratic(eq, hp, frame, fit_cs=tuple(fit_cs))
    try:
        c0 = critical_c(poly, c_max=c_max)
    except NoSignChange:
        c0 = None
    return NormalFormReport(eq=eq, hopf=hp, kappa1=nf.kappa1, kappa3=nf.kappa3,
                            direction=nf.direction, c=params.c, poly=poly, c0=c0)
