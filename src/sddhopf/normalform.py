"""Hopf normal form at eps0 by the method of multiple time scales.

The slow-time amplitude equation is

    A' = kappa1 * delta * A + kappa3 * A^2 conj(A),    delta = eps - eps0,

with kappa1 fixed by the linear problem and kappa3 the projection of the
resonant cubic forcing chi onto the adjoint vector. Re kappa3 < 0 gives a
supercritical bifurcation, > 0 subcritical; the critical c0 is the
positive root of Re kappa3(c) = 0.

The forcing comes from one series pass over the transformed RHS, in the
slow amplitude A and in c: its order-2 harmonics drive the second-order
response and its resonant key (1, 2, 1) is chi, each per power of c, so
kappa3(c) comes out as an exact quadratic.
"""

import cmath
import math
from enum import Enum
from typing import NamedTuple, Optional, Tuple

from .errors import (DegenerateProjection, NoConvergence, NoSignChange,
                     ResonanceViolation, SingularFrame)
from .model import Equilibrium, ModelParams, find_equilibrium
from .stability import HopfPoint, char_eval, solve_hopf

# The stage works on 2-vectors and 2x2 matrices of Python numbers: a
# vector is a pair, a matrix a pair of rows.
Vec2 = Tuple[complex, complex]
Mat2 = Tuple[Tuple[float, float], Tuple[float, float]]

# Default upper end of the c range searched for c0. The standard set's
# c0 is 1.058.
C_MAX = 2.0


def _dot(x, y):
    """x . y without conjugation."""
    return x[0] * y[0] + x[1] * y[1]


def _matvec(A, x):
    return (_dot(A[0], x), _dot(A[1], x))


def _solve2(A, r):
    """A^{-1} r by Cramer's rule."""
    (a, b), (c, d) = A
    det = a * d - b * c
    return ((r[0] * d - b * r[1]) / det, (a * r[1] - c * r[0]) / det)


class CriticalFrame(NamedTuple):
    """Right/left critical eigendata at the Hopf point.

    theta spans the i*omega eigenspace of the delay linearization with
    theta[0] = 1; d is the adjoint vector normalized so conj(d).theta = 1.
    The vectors are pairs and M, N pairs of rows.
    """

    omega: float
    eps0: float
    theta: Vec2
    d: Vec2
    M: Mat2
    N: Mat2
    denom: complex      # projection denominator 1 + eps0 e^{-i omega} conj(d).N.theta

    @property
    def dbar(self) -> Vec2:
        return (self.d[0].conjugate(), self.d[1].conjugate())

    @property
    def kappa1(self) -> complex:
        """The coefficient of delta*A; its real part is the transversality
        derivative."""
        return (1j * self.omega / self.eps0) / self.denom

    def operator(self, harmonic):
        """i h omega - eps0 (M + N e^{-i h omega}): the linear part of the
        unit-delay system on the harmonic h, as a matrix."""
        E = cmath.exp(-1j * harmonic * self.omega)
        return tuple(tuple((1j * harmonic * self.omega if i == j else 0.0)
                           - self.eps0 * (self.M[i][j] + self.N[i][j] * E)
                           for j in (0, 1)) for i in (0, 1))

    def residuals(self):
        """|A theta| and |A^H d| for A = i omega - eps0 (M + N e^{-i omega}),
        and |conj(d).theta - 1|."""
        A = self.operator(1)
        AH = [[A[j][i].conjugate() for j in (0, 1)] for i in (0, 1)]
        right = math.hypot(*map(abs, _matvec(A, self.theta)))
        left = math.hypot(*map(abs, _matvec(AH, self.d)))
        norm = abs(_dot(self.dbar, self.theta) - 1.0)
        return right, left, norm


def critical_frame(eq: Equilibrium, hp: HopfPoint) -> CriticalFrame:
    if eq.f1 == 0.0:
        raise SingularFrame("f'(xi*) = 0: no cross-coupling eigenvector")
    es, w = hp.eps0, hp.omega
    theta2 = cmath.exp(1j * w) * (1j * w + es * hp.mu_m) / (es * eq.f1)
    theta = (1.0 + 0j, theta2)
    scale = -2j * w + es * (hp.mu_m + hp.mu_p)
    d = ((-1j * w + es * hp.mu_p) / scale, es * cmath.exp(1j * w) * eq.f1 / scale)
    dbar = (d[0].conjugate(), d[1].conjugate())
    N = ((0.0, eq.f1), (eq.g1, 0.0))
    frame = CriticalFrame(omega=w, eps0=es, theta=theta, d=d,
                          M=((-hp.mu_m, 0.0), (0.0, -hp.mu_p)), N=N,
                          denom=1.0 + es * cmath.exp(-1j * w) * _dot(dbar, _matvec(N, theta)))
    right, left, norm = frame.residuals()
    if right > 1e-9 or left > 1e-9:
        raise NoConvergence("critical frame residuals %.2e / %.2e" % (right, left))
    if norm > 1e-12:
        raise NoConvergence("adjoint normalization off by %.2e" % norm)
    if abs(frame.denom) < 1e-10:
        raise DegenerateProjection("projection denominator %.3e" % abs(frame.denom))
    if math.copysign(1.0, frame.kappa1.real) != math.copysign(1.0, hp.dalpha_deps):
        raise NoConvergence("Re kappa1 disagrees in sign with the transversality value")
    return frame


# A signal is a truncated series {(harmonic, powA, powAbar, powc): coeff},
# the sum of coeff c^powc A^powA conj(A)^powAbar e^{i harmonic omega eta}.
_C = {(0, 0, 0, 1): 1.0}            # c as the series variable


def _mul(s1, s2):
    """Product of two signals, keeping only the keys with powA <= 2 and
    powAbar <= 1: no other key can reach the order-2 harmonics (2, 2, 0)
    and (0, 1, 1) or the resonant (1, 2, 1)."""
    out = {}
    for (h1, p1, q1, k1), v1 in s1.items():
        for (h2, p2, q2, k2), v2 in s2.items():
            if p1 + p2 <= 2 and q1 + q2 <= 1:
                key = (h1 + h2, p1 + p2, q1 + q2, k1 + k2)
                out[key] = out.get(key, 0.0) + v1 * v2
    return out


def _sum(*terms):
    """The sum of coeff * signal over (coeff, signal) pairs."""
    out = {}
    for coeff, signal in terms:
        for key, val in signal.items():
            out[key] = out.get(key, 0.0) + coeff * val
    return out


def _delayed(signal, omega):
    """The signal one unit of eta earlier: harmonic h picks up e^{-i h omega}."""
    return {key: val * cmath.exp(-1j * key[0] * omega) for key, val in signal.items()}


def _first_order(frame):
    """u1 and v1 of the first-order solution A e^{i omega eta} theta + c.c."""
    th2 = frame.theta[1]
    return ({(1, 1, 0, 0): 1.0, (-1, 0, 1, 0): 1.0},
            {(1, 1, 0, 0): th2, (-1, 0, 1, 0): th2.conjugate()})


def _forcing(eq, hp, c, u, v):
    """eps0 F / D and eps0 G / D of model.transformed_slopes as signals in
    the deviations u = r - r*, v = xi - xi* from the equilibrium, where F
    and G vanish. 1/D is cut after (cF)^2, which is exact to third order.
    c is a signal: {(0, 0, 0, 0): c} for a number c, or _C."""
    ud, vd = _delayed(u, hp.omega), _delayed(v, hp.omega)
    ud2, vd2 = _mul(ud, ud), _mul(vd, vd)
    F = _sum((-hp.mu_m, u), (eq.f1, vd), (eq.f2 / 2, vd2), (eq.f3 / 6, _mul(vd2, vd)))
    G = _sum((-hp.mu_p, v), (eq.g1, ud), (eq.g2 / 2, ud2), (eq.g3 / 6, _mul(ud2, ud)))
    cF = _mul(c, F)
    eps_over_D = _sum((hp.eps0, {(0, 0, 0, 0): 1.0}), (hp.eps0, cF),
                      (hp.eps0, _mul(cF, cF)))
    return _mul(F, eps_over_D), _mul(G, eps_over_D)


def _second_order(eq, hp, frame, c, resonance_tol):
    """u1 + u2 and v1 + v2: the first-order solution and the response to
    the forcing's order-2 harmonics, each key solved on its harmonic's
    2x2 system. Refused when 2 i omega is a near-characteristic root."""
    h2 = char_eval(2j * hp.omega, hp.char_params())
    if abs(h2) <= resonance_tol:
        raise ResonanceViolation(
            "2 i omega is a near-characteristic root: h(2 i omega) = "
            "%.6e%+.6ei, magnitude %.3e" % (h2.real, h2.imag, abs(h2)))
    u, v = _first_order(frame)
    Fu, Fv = _forcing(eq, hp, c, u, v)
    for key, val in Fu.items():
        if key[1] + key[2] == 2:
            u[key], v[key] = _solve2(frame.operator(key[0]), (val, Fv[key]))
    return u, v


def _kappa3_by_power(eq, hp, frame, c, u, v):
    """kappa3 per power of c: the resonant key (1, 2, 1) of the forcing
    of the first- and second-order solution, projected onto conj(d)."""
    Fu, Fv = _forcing(eq, hp, c, u, v)
    return [_dot(frame.dbar, (Fu.get((1, 2, 1, k), 0j), Fv.get((1, 2, 1, k), 0j)))
            / frame.denom for k in range(3)]


class QuadraticCoeffs(NamedTuple):
    """Second-order particular-solution amplitudes: a* multiply
    e^{2 i omega eta}, b* multiply the constant A*conj(A) harmonic."""

    a1: complex
    a2: complex
    b1: float
    b2: float
    c: float


def quadratic_coeffs(eq, hp, frame, c, resonance_tol=1e-6) -> QuadraticCoeffs:
    """(a, b) from the 2x2 linear solves at the number c, refused when
    2 i omega is a near-characteristic root."""
    u, v = _second_order(eq, hp, frame, {(0, 0, 0, 0): c}, resonance_tol)
    return QuadraticCoeffs(a1=u[2, 2, 0, 0], a2=v[2, 2, 0, 0],
                           b1=u[0, 1, 1, 0].real, b2=v[0, 1, 1, 0].real, c=c)


class Direction(str, Enum):
    SUPERCRITICAL = "supercritical"
    SUBCRITICAL = "subcritical"
    DEGENERATE = "degenerate"


def classify_direction(kappa3: complex) -> Direction:
    if abs(kappa3.real) <= 1e-12 * abs(kappa3):
        return Direction.DEGENERATE
    return Direction.SUPERCRITICAL if kappa3.real < 0 else Direction.SUBCRITICAL


def _horner(q, c):
    q2, q1, q0 = q
    return (q2 * c + q1) * c + q0


class Kappa3Quadratic(NamedTuple):
    """kappa3 as a function of c: exact quadratics for both parts."""

    re_coeffs: Tuple[float, float, float]   # (q2, q1, q0)
    im_coeffs: Tuple[float, float, float]

    def __call__(self, c):
        return complex(_horner(self.re_coeffs, c), _horner(self.im_coeffs, c))


def kappa3_quadratic(eq, hp, frame) -> Kappa3Quadratic:
    """kappa3(c) from one series pass with c the series variable: the
    second-order response and chi per power of c."""
    u, v = _second_order(eq, hp, frame, _C, 1e-6)
    q0, q1, q2 = _kappa3_by_power(eq, hp, frame, _C, u, v)
    return Kappa3Quadratic(re_coeffs=(q2.real, q1.real, q0.real),
                           im_coeffs=(q2.imag, q1.imag, q0.imag))


def critical_c(poly: Kappa3Quadratic, c_max=C_MAX) -> float:
    """Positive root of Re kappa3(c) = 0 on the quadratic: the
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
    below = _horner(poly.re_coeffs, c0 * 0.9)
    above = _horner(poly.re_coeffs, min(c0 * 1.1, c_max))
    if math.copysign(1.0, below) == math.copysign(1.0, above):
        raise NoSignChange("no sign flip of Re kappa3 across c = %g" % c0)
    return c0


class NormalFormReport(NamedTuple):
    """Everything the normal-form stage knows at one parameter point."""

    eq: Equilibrium
    hopf: HopfPoint
    kappa1: complex
    kappa3: complex
    direction: Direction
    c: float
    poly: Kappa3Quadratic
    c0: Optional[float]


def analyze_normal_form(params: ModelParams, c_max=C_MAX) -> NormalFormReport:
    """Full pipeline at params.c: equilibrium, Hopf point, frame, kappa
    coefficients, the kappa3(c) quadratics, and c0 when it exists.

    kappa3(params.c) is read off the quadratic of the one series pass.
    """
    eq = find_equilibrium(params)
    hp = solve_hopf(params.mu_m, params.mu_p, eq.p)
    frame = critical_frame(eq, hp)
    poly = kappa3_quadratic(eq, hp, frame)
    kappa3 = poly(params.c)
    try:
        c0 = critical_c(poly, c_max=c_max)
    except NoSignChange:
        c0 = None
    return NormalFormReport(eq=eq, hopf=hp, kappa1=frame.kappa1, kappa3=kappa3,
                            direction=classify_direction(kappa3), c=params.c,
                            poly=poly, c0=c0)
