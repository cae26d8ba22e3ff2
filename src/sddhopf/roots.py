"""Scalar bracketed root finding: Brent's method.

A port of scipy's brentq.c (R. P. Brent, *Algorithms for Minimization
without Derivatives*, 1973, ch. 4) with the same steps and the same
arithmetic in the same order, so it returns scipy.optimize.brentq's root
bit for bit. It lives here because importing scipy.optimize costs more
than everything else in starting the CLI.
"""

import math

from .errors import NoConvergence


def _value(f, x):
    fx = float(f(x))
    if math.isnan(fx):
        raise NoConvergence("function value at x = %r is NaN" % x)
    return fx


def brentq(f, a, b, xtol, rtol, maxiter=100):
    """Root of f between a and b, where f(a) and f(b) differ in sign.

    Returns once the bracket is narrower than xtol + rtol |x|. Raises
    NoConvergence when f(a) and f(b) have the same sign, when f returns
    NaN, or after maxiter iterations.
    """
    xpre, xcur = float(a), float(b)
    fpre, fcur = _value(f, xpre), _value(f, xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise NoConvergence("no sign change on [%r, %r]" % (xpre, xcur))
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                stry = math.inf     # C's inf or NaN here: it bisects
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry         # good short step
            else:
                spre = scur = sbis              # bisect
        else:
            spre = scur = sbis                  # bisect

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _value(f, xcur)
    raise NoConvergence("no convergence after %d iterations, last x = %r"
                        % (maxiter, xcur))
