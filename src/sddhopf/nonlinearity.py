"""Scalar feedback nonlinearities with closed-form derivatives.

Each map bundles its value with the first three derivatives; the
normal-form stage needs third derivatives, and finite differencing
those is too noisy, so closed forms are required. The tests check them
against high-order difference stencils of the value map
(tests/oracles.py).
"""

from typing import Callable, NamedTuple


class CallableMap(NamedTuple):
    """A scalar map with user-supplied derivative callbacks."""

    value: Callable[[float], float]
    d1: Callable[[float], float]
    d2: Callable[[float], float]
    d3: Callable[[float], float]


def _constant_like(x, value):
    """value for a scalar x, else an array of x's shape filled with it;
    numpy is imported only for array input."""
    if isinstance(x, (int, float)):
        return value
    import numpy as np
    return value if np.isscalar(x) else np.full_like(np.asarray(x, float), value)


class LinearMap:
    """g(x) = slope * x."""

    def __init__(self, slope: float):
        self.slope = float(slope)

    def value(self, x):
        return self.slope * x

    def d1(self, x):
        return _constant_like(x, self.slope)

    def d2(self, x):
        return _constant_like(x, 0.0)

    def d3(self, x):
        return _constant_like(x, 0.0)


class ZeroMap(LinearMap):
    def __init__(self):
        super().__init__(0.0)


class HillRepressor:
    """Decreasing Hill feedback alpha_m / (1 + (y/ybar)**h).

    Strictly decreasing on y > 0 with values in (0, alpha_m]. For integer
    h the formula extends to negative arguments (odd h has a pole where
    the denominator vanishes, at y = -ybar for h = 5); for non-integer h
    only y >= 0 is usable.
    """

    def __init__(self, alpha_m: float, ybar: float, h: float):
        if ybar <= 0:
            raise ValueError("ybar must be positive")
        if h <= 0:
            raise ValueError("Hill exponent must be positive")
        self.alpha_m = float(alpha_m)
        self.ybar = float(ybar)
        self.h = float(h)

    def _powers(self, y):
        # s = (y/ybar)^h and its y-derivatives
        n, yb = self.h, self.ybar
        s = (y / yb) ** n
        sp = n * y ** (n - 1) / yb ** n
        spp = n * (n - 1) * y ** (n - 2) / yb ** n
        sppp = n * (n - 1) * (n - 2) * y ** (n - 3) / yb ** n
        return s, sp, spp, sppp

    def value(self, y):
        return self.alpha_m / (1.0 + (y / self.ybar) ** self.h)

    def d1(self, y):
        s, sp, _, _ = self._powers(y)
        return -self.alpha_m * sp / (1 + s) ** 2

    def d2(self, y):
        s, sp, spp, _ = self._powers(y)
        return self.alpha_m * (2 * sp ** 2 / (1 + s) ** 3 - spp / (1 + s) ** 2)

    def d3(self, y):
        s, sp, spp, sppp = self._powers(y)
        return self.alpha_m * (-6 * sp ** 3 / (1 + s) ** 4
                               + 6 * sp * spp / (1 + s) ** 3
                               - sppp / (1 + s) ** 2)


class NonlinearitySpec:
    """The two feedback maps of the model: f drives the x-equation from
    delayed y, g drives the y-equation from delayed x. Slotted, not a
    NamedTuple, for the reason ModelParams is: both RHS read it every stage."""

    __slots__ = ("f", "g")

    def __init__(self, f, g):
        self.f, self.g = f, g


def hes1_nonlinearity(alpha_m=35.0, ybar=1200.0, h=5.0, alpha_p=10.0) -> NonlinearitySpec:
    """Hill repression onto x, linear production onto y."""
    return NonlinearitySpec(f=HillRepressor(alpha_m, ybar, h), g=LinearMap(alpha_p))

