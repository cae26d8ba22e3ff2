"""Model parameters, equilibria, and the two right-hand sides.

The original system in t-time:

    x'(t) = -mu_m x(t) + f(y(t - tau))
    y'(t) = -mu_p y(t) + g(x(t - tau))
    tau(t) = eps + c (x(t) - x(t - tau(t)))

Rescaling time by the threshold condition turns it into a unit-delay
system in eta-time with a shared denominator D = 1 - c(-mu_m r + f(xi_1));
setting c = 0 gives the plain constant-delay system. Both RHS evaluations
live here. Every run steps the unit-delay one, an original-time run being
the time map of a unit-delay run (dde.integrate_sdd); the original one
checks initial data (dde.check_compatibility).

The threshold law defines the delay uniquely only while D = 1 - c x' > 0.
A run ends at one bound short of that pole, D <= 1e-3 (DENOMINATOR_FLOOR),
i.e. c x' >= 1 - 1e-3, where the transformed RHS raises DenominatorBreach.
"""

import math
from typing import NamedTuple

from .errors import DenominatorBreach, NoConvergence, NonPositive
from .nonlinearity import NonlinearitySpec, hes1_nonlinearity
from .roots import brentq

# Smallest denominator D = 1 - c x' a run may reach. The completed runs of
# the hes1-sweep recipe and the benchmark's sweep grids keep D >= 0.0136; a
# run that falls to 1e-3 is on its way to the pole, and stopping it there
# keeps its end time well-conditioned.
DENOMINATOR_FLOOR = 1e-3


def check_numbers(**numbers):
    """The checks ModelParams and CharParams share: every number finite,
    the decay rates mu_m, mu_p and the delay scale eps positive."""
    for name, value in numbers.items():
        if not math.isfinite(value):
            raise ValueError("%s must be finite, got %r" % (name, value))
    if numbers["mu_m"] <= 0 or numbers["mu_p"] <= 0:
        raise ValueError("decay rates must be positive")
    if numbers["eps"] <= 0:
        raise ValueError("eps must be positive")


class ModelParams:
    """The model's numbers and feedback maps, checked when built. Slotted,
    not a NamedTuple: the integrators read these fields at every stage, and
    CPython specialises slot reads but not NamedTuple field reads."""

    __slots__ = ("mu_m", "mu_p", "c", "eps", "nonlinearity")

    def __init__(self, mu_m: float, mu_p: float, c: float, eps: float,
                 nonlinearity: NonlinearitySpec):
        check_numbers(mu_m=mu_m, mu_p=mu_p, c=c, eps=eps)
        if c < 0:
            raise ValueError("c must be nonnegative (c = 0 is the constant-delay case)")
        self.mu_m, self.mu_p, self.c, self.eps = mu_m, mu_p, c, eps
        self.nonlinearity = nonlinearity

    def with_overrides(self, c=None, eps=None, mu_m=None, mu_p=None):
        return ModelParams(self.mu_m if mu_m is None else float(mu_m),
                           self.mu_p if mu_p is None else float(mu_p),
                           self.c if c is None else float(c),
                           self.eps if eps is None else float(eps),
                           self.nonlinearity)


def hes1_params(c, eps, mu_m=0.03, mu_p=0.04,
                alpha_m=35.0, alpha_p=10.0, ybar=1200.0, h=5.0) -> ModelParams:
    """The Hes1 benchmark parameter set."""
    return ModelParams(mu_m, mu_p, c, eps,
                       hes1_nonlinearity(alpha_m, ybar, h, alpha_p))


class Equilibrium(NamedTuple):
    r_star: float
    xi_star: float
    f1: float
    f2: float
    f3: float
    g1: float
    g2: float
    g3: float

    @property
    def p(self) -> float:
        """Coupling product f'(xi*) g'(r*)."""
        return self.f1 * self.g1

    @property
    def state(self):
        """(r*, xi*) as a numpy array, for the integrators."""
        import numpy as np
        return np.array([self.r_star, self.xi_star])


def _equilibrium_residuals(r, xi, params):
    f, g = params.nonlinearity.f, params.nonlinearity.g
    return (-params.mu_m * r + f.value(xi), -params.mu_p * xi + g.value(r))


def find_equilibrium(params: ModelParams) -> Equilibrium:
    """Solve -mu_m r + f(xi) = 0, -mu_p xi + g(r) = 0.

    Substituting xi = g(r)/mu_p reduces the pair to one scalar equation
    phi(r) = -mu_m r + f(g(r)/mu_p), solved on the bracket (0, sup f / mu_m],
    which contains the root because x' < sup f bounds any equilibrium of
    the first equation.
    """
    f, g = params.nonlinearity.f, params.nonlinearity.g
    mu_m, mu_p = params.mu_m, params.mu_p

    def phi(r):
        return -mu_m * r + f.value(g.value(r) / mu_p)

    if phi(0.0) == 0.0:
        r_star = 0.0            # degenerate feedback, origin solves exactly
    else:
        hi = f.value(0.0) / mu_m if f.value(0.0) > 0 else 1.0
        lo = 1e-12 * max(1.0, hi)
        if phi(lo) == 0.0:
            r_star = lo
        elif phi(lo) * phi(hi) > 0:
            raise NoConvergence("no sign change of the reduced equation on (0, %g]" % hi)
        else:
            r_star = brentq(phi, lo, hi, xtol=1e-15, rtol=8.9e-16, maxiter=200)

    xi_star = g.value(r_star) / mu_p
    res_r, res_xi = _equilibrium_residuals(r_star, xi_star, params)
    if abs(res_r) > 1e-10 * max(1.0, abs(mu_m * r_star)) or \
       abs(res_xi) > 1e-10 * max(1.0, abs(mu_p * xi_star)):
        raise NoConvergence("equilibrium residuals %.3e, %.3e above tolerance"
                            % (res_r, res_xi))
    if (r_star <= 0 or xi_star <= 0) and not (r_star == 0 and xi_star == 0 and f.value(0.0) == 0):
        raise NonPositive("root (%g, %g) is not in the positive orthant" % (r_star, xi_star))

    return Equilibrium(r_star=r_star, xi_star=xi_star,
                       f1=f.d1(xi_star), f2=f.d2(xi_star), f3=f.d3(xi_star),
                       g1=g.d1(r_star), g2=g.d2(r_star), g3=g.d3(r_star))


def rhs_original(state_now, state_delayed, tau, params: ModelParams):
    """Original-time RHS plus the threshold residual tau - eps - c(x - x_tau)."""
    x, y = state_now
    x_tau, y_tau = state_delayed
    f, g = params.nonlinearity.f, params.nonlinearity.g
    dx = -params.mu_m * x + f.value(y_tau)
    dy = -params.mu_p * y + g.value(x_tau)
    residual = tau - params.eps - params.c * (x - x_tau)
    return (dx, dy), residual


def rhs_transformed(state_now, state_delayed, params: ModelParams):
    """Unit-delay RHS in eta-time, the local delay value k(eta) and the
    denominator D of the time change: checked_slopes, which raises
    DenominatorBreach at the floor, and k."""
    dr, dxi, D = checked_slopes(state_now, state_delayed, params)
    return dr, dxi, params.eps + params.c * (state_now[0] - state_delayed[0]), D


def checked_slopes(state_now, state_delayed, params: ModelParams):
    """(r', xi', D) of the unit-delay system at one state, the feedback
    taken at the delayed state.

    Raises DenominatorBreach when D = 1 - c(-mu_m r + f(xi_1)) falls to
    DENOMINATOR_FLOOR or below, i.e. c x'(t) >= 1 - DENOMINATOR_FLOOR: the
    time change is invalid at D = 0 and the run is stopped short of it.
    """
    r, xi = state_now
    r1, xi1 = state_delayed
    f, g = params.nonlinearity.f, params.nonlinearity.g
    dr, dxi, D = transformed_slopes(r, xi, f.value(xi1), g.value(r1), params)
    if D <= DENOMINATOR_FLOOR:
        raise DenominatorBreach("denominator %.6g at state (%.6g, %.6g)" % (D, r, xi))
    return dr, dxi, D


def transformed_slopes(r, xi, f_delayed, g_delayed, params):
    """(r', xi', D) of the unit-delay system from the state now and the
    feedback values f(xi(eta - 1)) and g(r(eta - 1)); D is not checked.
    lanes._stacked_slopes is its form over a sweep's stacked lanes, with
    the same operations in the same order.
    """
    Fx = -params.mu_m * r + f_delayed
    Gy = -params.mu_p * xi + g_delayed
    D = 1.0 - params.c * Fx
    return params.eps * Fx / D, params.eps * Gy / D, D
