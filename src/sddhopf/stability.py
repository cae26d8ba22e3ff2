"""Linear stability of the unit-delay system.

The characteristic function is

    h(lam) = (lam + eps mu_m)(lam + eps mu_p) - eps^2 p e^{-2 lam}

with coupling product p = f'(xi*) g'(r*). For p < -mu_m mu_p a purely
imaginary root i*beta crosses the axis at a unique smallest eps0, with
beta in (0, pi/2); beyond it the crossing repeats at eps_k with
frequency beta + k*pi. The crossing is computed one way, in closed form,
by eliminating the trigonometric terms; the tests check it against a
direct two-equation solve (tests/oracles.py).
"""

import cmath
import math
from enum import Enum
from typing import NamedTuple, Optional

from .errors import HypothesisViolated, NoConvergence, UnhandledRegime
from .model import Equilibrium, check_numbers


class CharParams:
    """The numbers of the characteristic function, checked when built."""

    __slots__ = ("mu_m", "mu_p", "p", "eps")

    def __init__(self, mu_m: float, mu_p: float, p: float, eps: float):
        check_numbers(mu_m=mu_m, mu_p=mu_p, p=p, eps=eps)
        self.mu_m, self.mu_p, self.p, self.eps = mu_m, mu_p, p, eps


def char_eval(lam, cp: CharParams):
    lam = complex(lam)
    return ((lam + cp.eps * cp.mu_m) * (lam + cp.eps * cp.mu_p)
            - cp.eps ** 2 * cp.p * cmath.exp(-2 * lam))


def _beta_equation_residual(beta, cp: CharParams):
    # cot form: beta^2 - eps^2 mu_m mu_p - eps (mu_m+mu_p) beta cot(2 beta)
    return (beta * beta - cp.eps ** 2 * cp.mu_m * cp.mu_p
            - cp.eps * (cp.mu_m + cp.mu_p) * beta * math.cos(2 * beta) / math.sin(2 * beta))


class HopfPoint(NamedTuple):
    mu_m: float
    mu_p: float
    p: float
    eps0: float
    omega: float          # beta(eps0), the eta-time crossing frequency
    l: float              # quadratic-root quantity of the closed form
    dalpha_deps: float    # transversality value at eps0

    def eps_k(self, k: int) -> float:
        """k-th critical delay scale; eps_0 is the Hopf point itself."""
        if k < 0:
            raise ValueError("k must be nonnegative")
        return self.eps0 * (self.omega + k * math.pi) / self.omega

    def char_params(self, eps=None) -> CharParams:
        return CharParams(self.mu_m, self.mu_p, self.p,
                          self.eps0 if eps is None else eps)


def transversality(eps0, beta, mu_m, mu_p) -> float:
    """d(Re lambda)/d(eps) of the crossing root pair at eps0.

    Always positive in the crossing regime, so roots move rightward in eps.
    """
    num = (2 * beta ** 2 / eps0) * (eps0 ** 2 * (mu_m ** 2 + mu_p ** 2) + 2 * beta ** 2)
    den = ((eps0 * (mu_m + mu_p) + 2 * eps0 ** 2 * mu_m * mu_p - 2 * beta ** 2) ** 2
           + (2 * beta + 2 * beta * eps0 * (mu_m + mu_p)) ** 2)
    return num / den


def _validate_hopf(hp: HopfPoint):
    cp = hp.char_params()
    beta, e = hp.omega, hp.eps0
    res1 = _beta_equation_residual(beta, cp)
    res2 = (hp.mu_m + hp.mu_p) * beta + e * hp.p * math.sin(2 * beta)
    scale = max(1.0, beta * beta, abs(e * hp.p))
    if abs(res1) > 1e-9 * scale or abs(res2) > 1e-9 * scale:
        raise NoConvergence("Hopf-point residuals %.3e, %.3e above tolerance"
                            % (res1, res2))
    if abs(e - math.sqrt(hp.l) * beta) > 1e-9 * e:
        raise NoConvergence("closed-form consistency eps0 = sqrt(l) beta failed")
    root = char_eval(1j * beta, cp)
    if abs(root) > 1e-8 * scale:
        raise NoConvergence("i*omega is not a characteristic root: |h| = %.3e" % abs(root))


def solve_hopf(mu_m, mu_p, p) -> HopfPoint:
    """Closed-form Hopf point for the coupling product p < -mu_m mu_p.

    l is the positive root of the eliminated system; the crossing pair is
    +-i beta with tan(2 beta) = sqrt(l)(mu_m+mu_p) / (1 - l mu_m mu_p) on
    the branch with sin(2 beta) > 0, and eps0 = sqrt(l) beta.
    """
    if mu_m <= 0 or mu_p <= 0:
        raise ValueError("decay rates must be positive")
    if mu_m * mu_p >= -p:
        raise HypothesisViolated(
            "mu_m mu_p >= -p (p = %g): no imaginary crossing exists" % p)
    l = ((mu_m ** 2 + mu_p ** 2 + math.sqrt((mu_m ** 2 - mu_p ** 2) ** 2 + 4 * p * p))
         / (2 * (p * p - (mu_m * mu_p) ** 2)))
    # sin(2 beta) > 0 is forced by the sign condition, so atan2 with a
    # positive first argument lands on the right branch
    beta = 0.5 * math.atan2(math.sqrt(l) * (mu_m + mu_p), 1 - l * mu_m * mu_p)
    eps0 = math.sqrt(l) * beta
    hp = HopfPoint(mu_m=mu_m, mu_p=mu_p, p=p, eps0=eps0, omega=beta, l=l,
                   dalpha_deps=transversality(eps0, beta, mu_m, mu_p))
    _validate_hopf(hp)
    return hp


class StabilityKind(str, Enum):
    STABLE_FOR_ALL_EPS = "stable_for_all_eps"
    STABLE_BELOW_EPS0 = "stable_below_eps0"
    UNSTABLE = "unstable"


class StabilityClassification(NamedTuple):
    kind: StabilityKind
    eps0: Optional[float] = None
    hopf: Optional[HopfPoint] = None


def classify_stability(eq: Equilibrium, mu_m, mu_p, eps) -> StabilityClassification:
    """Delay-independent stability, stability below eps0, or instability.

    The repressor regime has p <= 0. Positive p is outside the analyzed
    family and raises UnhandledRegime instead of guessing.
    """
    p = eq.p
    if p > 0:
        raise UnhandledRegime("coupling product p = %g > 0 is not classified" % p)
    if mu_m * mu_p >= -p:
        return StabilityClassification(kind=StabilityKind.STABLE_FOR_ALL_EPS)
    hp = solve_hopf(mu_m, mu_p, p)
    if eps < hp.eps0:
        return StabilityClassification(kind=StabilityKind.STABLE_BELOW_EPS0,
                                       eps0=hp.eps0, hopf=hp)
    return StabilityClassification(kind=StabilityKind.UNSTABLE,
                                   eps0=hp.eps0, hopf=hp)
