"""Hopf normal form at eps0 by the method of multiple time scales.

The slow-time amplitude equation is

    A' = kappa1 * delta * A + kappa3 * A^2 conj(A),    delta = eps - eps0,

with kappa1 fixed by the linear problem and kappa3 assembled from the
second-order particular solutions (a1, a2, b1, b2) and the cubic forcing
vector chi. Re kappa3 < 0 gives a supercritical bifurcation, > 0
subcritical; for the threshold-delay family kappa3 is exactly quadratic
in the state-dependence coefficient c, so its value at three fixed nodes
determines it everywhere, and the critical c0 is the positive root of
Re kappa3(c) = 0.

The chi term lists below mirror the derivation's bracket layout one code
entry per summand, so each line can be audited independently.
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

    def residuals(self):
        """|A theta| and |A^H d| for A = i omega - eps0 (M + N e^{-i omega}),
        and |conj(d).theta - 1|."""
        E = cmath.exp(-1j * self.omega)
        A = [[(1j * self.omega if i == j else 0.0)
              - self.eps0 * (self.M[i][j] + self.N[i][j] * E) for j in (0, 1)]
             for i in (0, 1)]
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
    return frame


class QuadraticCoeffs(NamedTuple):
    """Second-order particular-solution amplitudes: a* multiply
    e^{2 i omega eta}, b* multiply the constant A*conj(A) harmonic."""

    a1: complex
    a2: complex
    b1: float
    b2: float
    c: float


def _quadratic_rhs(eq, hp, frame, c):
    """Forcing vectors of the a-system (2 omega harmonic) and b-system
    (zero harmonic)."""
    es, w = hp.eps0, hp.omega
    mu_m, mu_p = hp.mu_m, hp.mu_p
    f1, f2 = eq.f1, eq.f2
    gp, gpp = eq.g1, eq.g2
    th2 = frame.theta[1]
    E1, E2 = cmath.exp(-1j * w), cmath.exp(-2j * w)
    Ra = (
        es * (c * mu_m ** 2 - 2 * c * mu_m * f1 * th2 * E1
              + 0.5 * (f2 + 2 * c * f1 ** 2) * th2 ** 2 * E2),
        es * (-c * mu_p * f1 * th2 ** 2 * E1 + c * mu_m * mu_p * th2 + 0.5 * gpp * E2
              + c * f1 * gp * th2 * E2 - c * mu_m * gp * E1),
    )
    t2Ec = 2 * (th2 * E1).real          # th2 e^{-iw} + conj
    t2abs = (th2 * th2.conjugate()).real
    t2re2 = 2 * th2.real
    Rb = (
        es * (2 * c * mu_m ** 2 - 2 * c * mu_m * f1 * t2Ec + (f2 + 2 * c * f1 ** 2) * t2abs),
        es * (-2 * c * mu_p * f1 * t2abs * math.cos(w) + c * mu_m * mu_p * t2re2 + gpp
              + c * f1 * gp * t2re2 - 2 * c * mu_m * gp * math.cos(w)),
    )
    return Ra, Rb


def quadratic_coeffs(eq, hp, frame, c, resonance_tol=1e-6) -> QuadraticCoeffs:
    """(a, b) from the 2x2 linear solves, refused when 2 i omega is a
    near-characteristic root."""
    es, w = hp.eps0, hp.omega
    h2 = char_eval(2j * w, hp.char_params())
    if abs(h2) <= resonance_tol:
        raise ResonanceViolation(
            "2 i omega is a near-characteristic root: h(2 i omega) = "
            "%.6e%+.6ei, magnitude %.3e" % (h2.real, h2.imag, abs(h2)))
    E2 = cmath.exp(-2j * w)
    Ra, Rb = _quadratic_rhs(eq, hp, frame, c)
    a1, a2 = _solve2(((2j * w + es * hp.mu_m, -es * eq.f1 * E2),
                      (-es * eq.g1 * E2, 2j * w + es * hp.mu_p)), Ra)
    b1, b2 = _solve2(((es * hp.mu_m, -es * eq.f1), (-es * eq.g1, es * hp.mu_p)), Rb)
    return QuadraticCoeffs(a1=a1, a2=a2, b1=b1, b2=b2, c=c)


class Direction(str, Enum):
    SUPERCRITICAL = "supercritical"
    SUBCRITICAL = "subcritical"
    DEGENERATE = "degenerate"


def classify_direction(kappa3: complex) -> Direction:
    if abs(kappa3.real) <= 1e-12 * abs(kappa3):
        return Direction.DEGENERATE
    return Direction.SUPERCRITICAL if kappa3.real < 0 else Direction.SUBCRITICAL


class NormalForm(NamedTuple):
    kappa1: complex
    kappa3: complex
    direction: Direction
    c: float


# harmonic-polynomial helpers: a signal is {(harmonic, powA, powAbar): coeff}

def _resonant(coeff_and_signals):
    """Sum coeff * [A^2 conj(A) e^{i omega}] component over triple products.

    Only the resonant key (1, 2, 1) of each product is read: for every
    pair of terms of the first two signals, the one complementary key of
    the third.
    """
    total = 0.0 + 0.0j
    for coeff, sa, sb, sc in coeff_and_signals:
        part = 0.0
        for (h1, p1, q1), v1 in sa.items():
            for (h2, p2, q2), v2 in sb.items():
                v3 = sc.get((1 - h1 - h2, 2 - p1 - p2, 1 - q1 - q2))
                if v3 is not None:
                    part += v1 * v2 * v3
        total += coeff * part
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
    return ((es / 6) * _resonant(cubic_u) + (es / 2) * _resonant(inter_u),
            (es / 6) * _resonant(cubic_v) + (es / 2) * _resonant(inter_v))


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
    denom = frame.denom
    if abs(denom) < 1e-10:
        raise DegenerateProjection("projection denominator %.3e" % abs(denom))
    kappa1 = (1j * hp.omega / hp.eps0) / denom
    chi = _chi_resonant(eq, hp, frame, qc, c)
    kappa3 = _dot(frame.dbar, chi) / denom
    if math.copysign(1.0, kappa1.real) != math.copysign(1.0, hp.dalpha_deps):
        raise NoConvergence("Re kappa1 disagrees in sign with the transversality value")
    return NormalForm(kappa1=kappa1, kappa3=kappa3,
                      direction=classify_direction(kappa3), c=c)


# kappa3(c) is read at these c values; any three distinct nodes give the
# same exact quadratic
KAPPA3_NODES = (0.0, 0.01, 0.05)


def _horner(q, c):
    q2, q1, q0 = q
    return (q2 * c + q1) * c + q0


class Kappa3Quadratic(NamedTuple):
    """kappa3 as a function of c: exact quadratics for both parts."""

    re_coeffs: Tuple[float, float, float]   # (q2, q1, q0)
    im_coeffs: Tuple[float, float, float]

    def __call__(self, c):
        return complex(_horner(self.re_coeffs, c), _horner(self.im_coeffs, c))


def _read_nodes(eq, hp, frame):
    """kappa1 and the kappa3(c) quadratic from normal_form at the three
    KAPPA3_NODES: kappa1 does not depend on c, and the quadratic through
    the three kappa3 values comes from Newton divided differences."""
    forms = [normal_form(eq, hp, frame, quadratic_coeffs(eq, hp, frame, c))
             for c in KAPPA3_NODES]
    (c0, c1, c2), (k0, k1, k2) = KAPPA3_NODES, [nf.kappa3 for nf in forms]
    d01 = (k1 - k0) / (c1 - c0)
    d012 = ((k2 - k1) / (c2 - c1) - d01) / (c2 - c0)
    q = (d012, d01 - d012 * (c0 + c1), k0 - d01 * c0 + d012 * c0 * c1)
    return forms[0].kappa1, Kappa3Quadratic(re_coeffs=tuple(z.real for z in q),
                                            im_coeffs=tuple(z.imag for z in q))


def kappa3_quadratic(eq, hp, frame) -> Kappa3Quadratic:
    """kappa3(c) from its values at KAPPA3_NODES: kappa3 is exactly
    quadratic in c, so the interpolant is the function itself."""
    return _read_nodes(eq, hp, frame)[1]


def critical_c(poly: Kappa3Quadratic, c_max=1.0) -> float:
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


def analyze_normal_form(params: ModelParams, c_max=1.0) -> NormalFormReport:
    """Full pipeline at params.c: equilibrium, Hopf point, frame, kappa
    coefficients, the kappa3(c) quadratics, and c0 when it exists.

    kappa3(params.c) is read off the quadratic, so the pipeline solves for
    (a, b) and projects chi only at the three KAPPA3_NODES.
    """
    eq = find_equilibrium(params)
    hp = solve_hopf(params.mu_m, params.mu_p, eq.p)
    frame = critical_frame(eq, hp)
    kappa1, poly = _read_nodes(eq, hp, frame)
    kappa3 = poly(params.c)
    try:
        c0 = critical_c(poly, c_max=c_max)
    except NoSignChange:
        c0 = None
    return NormalFormReport(eq=eq, hopf=hp, kappa1=kappa1, kappa3=kappa3,
                            direction=classify_direction(kappa3), c=params.c,
                            poly=poly, c0=c0)
