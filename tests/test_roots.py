"""The in-package Brent root finder against scipy.optimize.brentq, which
stays as a test-only oracle: equal roots bit for bit on the package's own
call sites and on seeded random brackets, and NoConvergence on failure."""

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from scipy.optimize import brentq as scipy_brentq

import oracles
import sddhopf
from sddhopf import (History, InitialHistory, NoConvergence, find_equilibrium,
                     hes1_params, solve_delay)
from sddhopf import dde, model
from sddhopf.roots import brentq


@pytest.fixture
def checked_calls(monkeypatch):
    """Route every package brentq call through the port and the oracle;
    the port's root is used, and each pair of roots is recorded."""
    calls = []

    def both(f, a, b, **kw):
        ours = brentq(f, a, b, **kw)
        calls.append((ours, scipy_brentq(f, a, b, **kw)))
        return ours

    for module in (model, dde, oracles):
        monkeypatch.setattr(module, "brentq", both)
    return calls


@pytest.mark.parametrize("c,eps,mu_m", [(0.01, 6.0, 0.03), (0.0, 7.5, 0.05),
                                        (0.03, 2.0, 0.2)])
def test_equilibrium_and_hopf_roots_match_scipy(checked_calls, c, eps, mu_m):
    eq = find_equilibrium(hes1_params(c=c, eps=eps, mu_m=mu_m))
    # the direct Hopf route: solve_beta inside every S(eps), then eps0
    oracles.solve_hopf_direct(mu_m, 0.04, eq.p)
    assert len(checked_calls) > 3
    assert all(ours == theirs for ours, theirs in checked_calls)


def test_delay_fallback_root_matches_scipy(checked_calls):
    # x = sin(20 s) defeats the Newton iteration, so the bracketed solve runs
    init = InitialHistory(value=lambda s: (math.sin(20.0 * s), 0.0),
                          derivative=lambda s: (20.0 * math.cos(20.0 * s), 0.0),
                          t0=0.0, span=200.0)
    solve_delay(0.0, 0.0, History(init), hes1_params(c=1.0, eps=1.0))
    assert len(checked_calls) == 1
    ours, theirs = checked_calls[0]
    assert ours == theirs


@pytest.mark.parametrize("xtol,rtol", [(1e-15, 8.9e-16), (1e-13, 8.9e-16),
                                       (2e-12, 4 * 2.220446049250313e-16)])
def test_random_brackets_match_scipy(xtol, rtol):
    rng = random.Random(11)
    compared = 0
    while compared < 300:
        a3, a2, a1, a0, s, w = (rng.uniform(-3.0, 3.0) for _ in range(6))

        def f(x):
            return ((a3 * x + a2) * x + a1) * x + a0 + s * math.sin(w * x)

        lo, hi = rng.uniform(-5.0, 0.0), rng.uniform(0.0, 5.0)
        if f(lo) * f(hi) >= 0:
            continue
        assert brentq(f, lo, hi, xtol=xtol, rtol=rtol) == \
            scipy_brentq(f, lo, hi, xtol=xtol, rtol=rtol)
        compared += 1


@pytest.mark.parametrize("scale", [1.0, 1e-200])
def test_tiny_function_values_match_scipy(scale):
    # at 1e-200 the extrapolation's denominator underflows to zero; C
    # divides to inf and bisects, and so must the port
    def f(x):
        return scale * (math.exp(x) - 2.0)

    assert brentq(f, 0.0, 3.0, xtol=1e-15, rtol=8.9e-16) == \
        scipy_brentq(f, 0.0, 3.0, xtol=1e-15, rtol=8.9e-16)


def test_endpoint_roots_are_returned_as_given():
    assert brentq(lambda x: x, 0.0, 1.0, xtol=1e-15, rtol=8.9e-16) == 0.0
    assert brentq(lambda x: x - 1.0, 0.0, 1.0, xtol=1e-15, rtol=8.9e-16) == 1.0


@pytest.mark.parametrize("f,match", [
    (lambda x: x * x + 1.0, "no sign change"),
    (lambda x: math.nan if x > 0.3 else x - 0.5, "NaN"),
    (lambda x: (x - 0.123) ** 3, "no convergence after 3 iterations"),
], ids=["no-sign-change", "nan", "iteration-cap"])
def test_failures_raise_no_convergence(f, match):
    with pytest.raises(NoConvergence, match=match):
        brentq(f, 0.0, 1.0, xtol=1e-15, rtol=8.9e-16, maxiter=3)


def test_importing_the_cli_loads_no_scipy():
    src = str(Path(sddhopf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, sddhopf.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env=env, check=True).stdout
    assert out.strip() == "[]"
