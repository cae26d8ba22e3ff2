"""Time-domain integration of the delayed systems.

Method of steps with an explicit Dormand-Prince 5(4) pair and a quartic
dense-output interpolant on the unit-delay system. Delay lookups go
through the dense history, steps are capped so no delayed argument passes
its frontier, and the first three unit breakpoints are hit exactly. A run
ends at D = 1 - c x' <= 1e-3 (model.DENOMINATOR_FLOOR) with status
denominator_breach.

An original-time run is the time map of one such run: t(eta) = t0 + eps eta
+ c (r(eta) - r(0)) (H. L. Smith, Math. Biosci. 1993) takes the unit-delay
system exactly onto the threshold-delay one, with x(t(eta)) = r(eta) and
tau(t(eta)) = eps + c (r(eta) - r(eta - 1)).

The step loop runs on plain floats: for a two-component state the
per-call overhead of numpy outweighs its arithmetic. Everything after
integration (sampling, the delay column) is vectorised over the samples.
"""

import bisect
import math
import struct
import warnings
from typing import Callable, List, NamedTuple, Optional, Tuple

import numpy as np

from .errors import (DenominatorBreach, HistoryTooShort, IncompatibleData,
                     InsufficientCycles, NoBracket, NoConvergence,
                     SddhopfError, SlopeBoundWarning)
from .model import (DENOMINATOR_FLOOR, Equilibrium, ModelParams, checked_slopes,
                    rhs_original)
from .roots import brentq
from .stability import StabilityKind, classify_stability

# Dormand-Prince 5(4) tableau with the Shampine quartic interpolant,
# written out as scalars (zero entries dropped).
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (9017 / 3168, -355 / 33, 46732 / 5247,
                                49 / 176, -5103 / 18656)
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (-71 / 57600, 71 / 16695, -71 / 1920,
                                17253 / 339200, -22 / 525, 1 / 40)
# Columns 1..3 of the interpolant matrix P over stages 1, 3, 4, 5, 6, 7,
# named _P<stage><column> (stage 2 has a zero row; column 0 is stage 1 alone).
_P11, _P31, _P41, _P51, _P61, _P71 = (
    -8048581381 / 2820520608, 131558114200 / 32700410799,
    -1754552775 / 470086768, 127303824393 / 49829197408,
    -282668133 / 205662961, 40617522 / 29380423)
_P12, _P32, _P42, _P52, _P62, _P72 = (
    8663915743 / 2820520608, -68118460800 / 10900136933,
    14199869525 / 1410260304, -318862633887 / 49829197408,
    2019193451 / 616988883, -110615467 / 29380423)
_P13, _P33, _P43, _P53, _P63, _P73 = (
    -12715105075 / 11282082432, 87487479700 / 32700410799,
    -10690763975 / 1880347072, 701980252875 / 199316789632,
    -1453857185 / 822651844, 69997945 / 29380423)

_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_MAX_STEPS = 2_000_000      # step budget of one run, rejected tries included
_COMPAT_TOL = 1e-8          # bound on the scaled compatibility residuals

STATUS_COMPLETED = "completed"
STATUS_BREACH = "denominator_breach"
STATUS_NONFINITE = "nonfinite"
STATUS_STALLED = "stalled"


class _Abort(Exception):
    """Internal: end the run with a status at (t, r) instead of raising."""

    def __init__(self, status, t, r, detail):
        super().__init__(detail)
        self.status = status
        self.t = t
        self.r = r


# -- histories ----------------------------------------------------------------

class InitialHistory(NamedTuple):
    """C^1 initial data on [t0 - span, t0], constant-extended further back.

    value(s) and derivative(s) each return the pair (x, y) as floats.
    """

    value: Callable[[float], Tuple[float, float]]
    derivative: Callable[[float], Tuple[float, float]]
    t0: float
    span: float


def constant_history(state, t0=0.0, span=1.0) -> InitialHistory:
    x, y = (float(v) for v in state)
    return InitialHistory(value=lambda s: (x, y),
                          derivative=lambda s: (0.0, 0.0),
                          t0=t0, span=span)


def bump_history(base_state, kick, span, t0=0.0) -> InitialHistory:
    """base + kick * sin^2(pi (s - t0)/span) on [t0 - span, t0].

    The bump and its slope vanish at both ends, so the data starts exactly
    at base with zero derivative: compatible with tau0 = eps by
    construction, while delayed lookups see the perturbation.
    """
    bx, by = (float(v) for v in base_state)
    kx, ky = (float(v) for v in kick)
    w = float(span)

    def value(s):
        s = max(s, t0 - w)
        bump = math.sin(math.pi * (s - t0) / w) ** 2
        return bx + kx * bump, by + ky * bump

    def derivative(s):
        if s < t0 - w:
            return 0.0, 0.0
        rate = math.sin(2 * (math.pi * (s - t0) / w))
        return kx * (math.pi / w) * rate, ky * (math.pi / w) * rate

    return InitialHistory(value=value, derivative=derivative, t0=t0, span=w)


_SEG = 12     # doubles per segment: t_old, h, y_old[0:2], Q[0, 0:4], Q[1, 0:4]
_SEG_STRUCT = struct.Struct("=%dd" % _SEG)


class History:
    """Dense solution history: initial data plus accepted-step interpolants.

    Segments are packed as doubles into one bytearray; on segment i, the
    state at t_old + x h is y_old + h x (Q0 + x (Q1 + x (Q2 + x Q3))) per
    component.
    """

    def __init__(self, initial: InitialHistory):
        self.initial = initial
        self.t0 = initial.t0
        self._set_frontier(initial.t0)
        self._ends: List[float] = []
        self._store = bytearray()
        self._cursor = 0       # segment of the last lookup; lookups creep forward

    def _set_frontier(self, t):
        self.frontier = t
        self._limit = t + 1e-10 * max(1.0, abs(t))

    def append(self, t_old, h, y_old, K):
        """Store one accepted step; K holds the seven stage slopes as a flat
        (x, y) sequence."""
        k1x, k1y, _, _, k3x, k3y, k4x, k4y, k5x, k5y, k6x, k6y, k7x, k7y = K
        self._store += _SEG_STRUCT.pack(
            t_old, h, y_old[0], y_old[1],
            k1x,
            k1x * _P11 + k3x * _P31 + k4x * _P41 + k5x * _P51 + k6x * _P61 + k7x * _P71,
            k1x * _P12 + k3x * _P32 + k4x * _P42 + k5x * _P52 + k6x * _P62 + k7x * _P72,
            k1x * _P13 + k3x * _P33 + k4x * _P43 + k5x * _P53 + k6x * _P63 + k7x * _P73,
            k1y,
            k1y * _P11 + k3y * _P31 + k4y * _P41 + k5y * _P51 + k6y * _P61 + k7y * _P71,
            k1y * _P12 + k3y * _P32 + k4y * _P42 + k5y * _P52 + k6y * _P62 + k7y * _P72,
            k1y * _P13 + k3y * _P33 + k4y * _P43 + k5y * _P53 + k6y * _P63 + k7y * _P73)
        t_new = t_old + h
        self._ends.append(t_new)
        self._set_frontier(t_new)

    def x_span(self) -> float:
        """Range of x over 65 points of the initial data and the end of
        every stored step."""
        init = self.initial
        xs = [init.value(init.t0 - init.span * k / 64)[0] for k in range(65)]
        xs += self.eval_many(self._ends)[:, 0].tolist()
        return max(xs) - min(xs)

    def _initial_at(self, t, slope):
        s = min(t, self.t0)
        start = self.t0 - self.initial.span
        if s < start:
            # the constant extension: the value at the start, slope 0
            x, y = self.initial.value(start)
            return (x, y, 0.0) if slope else (x, y)
        x, y = self.initial.value(s)
        if not slope:
            return x, y
        return x, y, self.initial.derivative(s)[0]

    def eval(self, t: float, slope=False):
        """State (x, y) at time t as a tuple of floats; with slope, the
        tuple (x, y, x'), x' from the same interpolant."""
        if t > self._limit:
            raise HistoryTooShort("t = %r lies past the history's frontier %r"
                                  % (t, self.frontier))
        ends = self._ends
        if t <= self.t0 or not ends:
            return self._initial_at(t, slope)
        # first segment whose end is >= t, searched from the last one used
        i = self._cursor
        if t <= ends[i]:
            if i and t <= ends[i - 1]:
                i = bisect.bisect_left(ends, t, 0, i - 1)
        elif i + 1 < len(ends) and t <= ends[i + 1]:
            i += 1
        else:
            i = min(bisect.bisect_left(ends, t, i + 1), len(ends) - 1)
        self._cursor = i
        t_old, h, y0, y1, a0, a1, a2, a3, b0, b1, b2, b3 = \
            _SEG_STRUCT.unpack_from(self._store, _SEG_STRUCT.size * i)
        x = (t - t_old) / h
        hx = h * x
        if slope:
            return (y0 + hx * (a0 + x * (a1 + x * (a2 + x * a3))),
                    y1 + hx * (b0 + x * (b1 + x * (b2 + x * b3))),
                    a0 + x * (2 * a1 + x * (3 * a2 + 4 * x * a3)))
        return (y0 + hx * (a0 + x * (a1 + x * (a2 + x * a3))),
                y1 + hx * (b0 + x * (b1 + x * (b2 + x * b3))))

    def eval_many(self, ts, slope=False) -> np.ndarray:
        """States at the times ts as an (n, 2) array, or (n, 3) with the
        slope x' as the last column; equal bit for bit to eval at each
        time."""
        ts = np.asarray(ts, dtype=float)
        out = np.empty((len(ts), 3 if slope else 2))
        if not len(ts):
            return out
        if ts.max() > self._limit:
            raise HistoryTooShort("t = %r lies past the history's frontier %r"
                                  % (float(ts.max()), self.frontier))
        n = len(self._ends)
        early = ts <= self.t0 if n else np.ones(len(ts), dtype=bool)
        for k in np.flatnonzero(early):
            out[k] = self._initial_at(float(ts[k]), slope)
        if n:
            late = ~early
            t = ts[late]
            segs = np.frombuffer(self._store, dtype=float).reshape(n, _SEG)
            ends = segs[:, 0] + segs[:, 1]      # the same sums as self._ends
            seg = segs[np.minimum(np.searchsorted(ends, t), n - 1)]
            del segs                            # a live view would block appends
            h = seg[:, 1]
            x = (t - seg[:, 0]) / h
            hx = h * x
            for c in (0, 1):
                q = seg[:, 4 + 4 * c:8 + 4 * c]
                poly = q[:, 3]
                for j in (2, 1, 0):
                    poly = q[:, j] + x * poly
                out[late, c] = seg[:, 2 + c] + hx * poly
            if slope:
                a0, a1, a2, a3 = seg[:, 4], seg[:, 5], seg[:, 6], seg[:, 7]
                out[late, 2] = a0 + x * (2 * a1 + x * (3 * a2 + 4 * x * a3))
        return out


# -- threshold-delay solve ------------------------------------------------------

def solve_delay(t, x_now, history: History, params: ModelParams,
                tau_prev=None, events=None):
    """Solve tau = eps + c (x_now - x(t - tau)) to |residual| <= 1e-12 max(eps, tau).

    Newton iteration on g(tau) = tau - eps - c (x_now - x(t - tau)),
    g' = 1 - c x'(t - tau), seeded at tau_prev. Each iteration makes one
    history lookup, which gives x and x' together. A step falls back to
    the damped fixed-point step tau - damp g once g' drops below 1/2 or |g|
    stops shrinking; a bracketed scalar solve is the last resort. The root
    is simple while g' > 0 there, i.e. c x' < 1, the model's D > 0; a root
    with c x' >= 1 may not be unique, which is reported as a
    SlopeBoundWarning and a slope_bound event whose detail is the signed
    c x', not an error. Only the root returned is checked: the steps are
    drawn to roots where g rises and the bracketed solve ends on a change
    from g < 0 to g > 0, so where g has several roots one with c x' < 1
    is usually returned, with no warning and nothing said of the others.

    No run calls this: an original-time run is the time map of a unit-delay
    run (integrate_sdd). It solves the threshold equation on a history.
    """
    eps, c = params.eps, params.c
    if c == 0.0:
        return eps

    tau = float(tau_prev) if tau_prev and tau_prev > 0 else eps
    converged = False
    damp = 1.0
    prev_abs = math.inf
    for _ in range(60):
        x_back, _, slope = history.eval(t - tau, True)
        gv = tau - eps - c * (x_now - x_back)
        if abs(gv) <= 1e-13 * max(eps, tau):
            converged = True
            break
        if abs(gv) >= prev_abs:
            damp = 0.5          # iteration not contracting; damp it
        prev_abs = abs(gv)
        dg = 1.0 - c * slope
        new = tau - gv / dg if damp == 1.0 and dg >= 0.5 else tau - damp * gv
        if new <= 0:
            new = 0.5 * tau
        tau = new

    if not converged:
        def g(tau):
            return tau - eps - c * (x_now - history.eval(t - tau)[0])

        lo = max(1e-12 * eps, t - history.frontier)
        hi = 10.0 * (eps + c * history.x_span())
        hi = min(hi, t - (history.t0 - history.initial.span) + 10 * eps)
        glo, ghi = g(max(lo, 1e-12 * eps)), g(hi)
        if glo * ghi > 0:
            raise NoBracket("no sign change of the threshold equation on "
                            "(%.3g, %.3g] at t = %.6g" % (lo, hi, t))
        tau = brentq(g, max(lo, 1e-12 * eps), hi, xtol=1e-15, rtol=8.9e-16)
        if abs(g(tau)) > 1e-12 * max(eps, tau):
            raise NoConvergence("threshold residual %.3e at t = %.6g"
                                % (g(tau), t))
        slope = history.eval(t - tau, True)[2]

    # a simple root needs g' = 1 - c x' > 0 there
    if c * slope >= 1.0:
        warnings.warn("c x' = %.3f >= 1 at t = %.6g; threshold root may be "
                      "non-unique" % (c * slope, t), SlopeBoundWarning)
        if events is not None:
            events.append({"t": t, "kind": "slope_bound",
                           "detail": float(c * slope)})
    return tau


# -- compatibility -------------------------------------------------------------

class CompatibilityReport(NamedTuple):
    """Residuals of the three conditions tying initial data to the model:
    both state equations at t0- and the threshold equation for tau0."""

    residual_x: float
    residual_y: float
    residual_tau: float
    tol: float

    @property
    def passed(self) -> bool:
        return (abs(self.residual_x) <= self.tol
                and abs(self.residual_y) <= self.tol
                and abs(self.residual_tau) <= self.tol)


def check_compatibility(history: InitialHistory, tau0, params: ModelParams,
                        tol=_COMPAT_TOL) -> CompatibilityReport:
    if tau0 > history.span:
        raise HistoryTooShort("tau0 = %g exceeds the covered span %g"
                              % (tau0, history.span))
    t0 = history.t0
    now = np.asarray(history.value(t0), dtype=float)
    back = np.asarray(history.value(t0 - tau0), dtype=float)
    slope = np.asarray(history.derivative(t0), dtype=float)
    (dx, dy), _ = rhs_original(now, back, tau0, params)
    scale = max(1.0, abs(dx), abs(dy), params.eps)
    return CompatibilityReport(
        residual_x=(slope[0] - dx) / scale,
        residual_y=(slope[1] - dy) / scale,
        residual_tau=(tau0 - params.eps - params.c * (now[0] - back[0])) / max(1.0, params.eps),
        tol=tol)


# -- trajectories ---------------------------------------------------------------

_COLUMNS = {"original": ("t", "x", "y", "tau"), "transformed": ("eta", "r", "xi", "k")}


class RunStats(NamedTuple):
    """What one run did: accepted and error-rejected steps, and stage (RHS)
    evaluations that returned, the initial slope included."""

    steps_accepted: int
    steps_rejected: int
    stage_evals: int


class Trajectory(NamedTuple):
    kind: str                  # "original" | "transformed"
    t: np.ndarray
    states: np.ndarray         # shape (n, 2)
    delay: np.ndarray          # tau(t) or k(eta)
    status: str
    events: List[dict]
    monitors: dict
    history: History           # the unit-delay run's, in eta for both kinds
    t_final: float
    stats: Optional[RunStats] = None    # None when no step loop made it

    @property
    def columns(self):
        return _COLUMNS[self.kind]


def _integrate(initial: InitialHistory, params: ModelParams, rtol, atol,
               fixed_h, eta_end, t_map=None, start=None):
    """The embedded-pair loop of the unit-delay system, from initial data on
    [t0 - 1, t0] to eta_end. With t_map = (t_origin, t_end), t0 = 0 and
    eta_end = inf, it runs until t(eta) = t_origin + eps eta + c (r(eta) -
    r(0)) reaches t_end, and its event and end times are t(eta).

    start = (history, t, (r, xi), (r', xi'), h, tries) goes on from t past
    the breakpoints instead, on the History its lookups still reach, with
    the first stage's slopes, the next step and the tries so far.

    Returns the history, the events (an abort's last), the monitors, the
    status, the time reached and the RunStats (the history's steps).
    fixed_h disables error control (used for order studies).
    """
    events: List[dict] = []
    eps, c = params.eps, params.c
    stage_evals = rejected = 0
    # a try's stage slopes stay None until their stage returns, so a try
    # cut short still tells how many stages it evaluated
    k2x = k3x = k4x = k5x = k6x = k7x = None
    min_x = min_y = min_denominator = math.inf
    positive = True
    if start is None:
        hist = History(initial)
        t = t0 = initial.t0
        x, y = (float(v) for v in initial.value(t))
        breakpoints = [t0 + 1.0, t0 + 2.0, t0 + 3.0]
        h_next = fixed_h if fixed_h else min(0.1, eta_end - t0)
        steps = 0
    else:
        hist, t, (x, y), (f1x, f1y), h_next, steps = start
        breakpoints = []
    r0 = x
    if t_map is None:
        end = eta_end - 1e-12 * max(1.0, abs(eta_end))

        def clock(eta, r):
            return eta
    else:
        t_origin, end = t_map

        def clock(eta, r):
            return t_origin + eps * eta + c * (r - r0)

    # the last lookup: stages 6 and 7 of a try both take t + h, and no
    # other stage of the run repeats a t
    looked_up = delayed = None

    def stage(s, r, xi):
        # (r', xi', D); the local delay k is left out: the samples' delay
        # column recomputes it
        nonlocal looked_up, delayed
        if s != looked_up:
            delayed = hist.eval(s - 1.0)
            looked_up = s
        try:
            return checked_slopes((r, xi), delayed, params)
        except OverflowError:
            raise _Abort(STATUS_NONFINITE, s, r, "feedback overflow")
        except DenominatorBreach as exc:
            raise _Abort(STATUS_BREACH, s, r, str(exc))

    status = STATUS_COMPLETED
    try:
        if start is None:
            f1x, f1y, _ = stage(t, x, y)
            stage_evals = 1
            if not (math.isfinite(f1x) and math.isfinite(f1y)):
                raise _Abort(STATUS_NONFINITE, t, x, "nonfinite initial slope")
        while clock(t, x) < end:
            if steps >= _MAX_STEPS:
                raise NoConvergence("step budget exhausted at t = %.6g" % clock(t, x))
            h = min(min(h_next, eta_end - t), 1.0)
            while breakpoints and t >= breakpoints[0] - 1e-9:
                breakpoints.pop(0)
            if breakpoints and t + h > breakpoints[0]:
                h = breakpoints[0] - t
            while True:
                steps += 1
                k2x = k3x = k4x = k5x = k6x = k7x = None
                if h <= 1e-12 * max(1.0, abs(t)):
                    # forced singularity in the feedback, typically the
                    # repression pole swept by non-positive initial data
                    raise _Abort(STATUS_STALLED, t, x,
                                 "step size underflow at t = %.6g" % clock(t, x))
                # h <= 1, so every lookup t + c h - 1 lies at or before t,
                # the dense frontier, up to rounding
                k2x, k2y, _ = stage(t + _C2 * h, x + h * (_A21 * f1x),
                                    y + h * (_A21 * f1y))
                k3x, k3y, _ = stage(t + _C3 * h,
                                    x + h * (_A31 * f1x + _A32 * k2x),
                                    y + h * (_A31 * f1y + _A32 * k2y))
                k4x, k4y, _ = stage(t + _C4 * h,
                                    x + h * (_A41 * f1x + _A42 * k2x + _A43 * k3x),
                                    y + h * (_A41 * f1y + _A42 * k2y + _A43 * k3y))
                k5x, k5y, _ = stage(t + _C5 * h,
                                    x + h * (_A51 * f1x + _A52 * k2x + _A53 * k3x
                                             + _A54 * k4x),
                                    y + h * (_A51 * f1y + _A52 * k2y + _A53 * k3y
                                             + _A54 * k4y))
                k6x, k6y, _ = stage(t + h,
                                    x + h * (_A61 * f1x + _A62 * k2x + _A63 * k3x
                                             + _A64 * k4x + _A65 * k5x),
                                    y + h * (_A61 * f1y + _A62 * k2y + _A63 * k3y
                                             + _A64 * k4y + _A65 * k5y))
                x_new = x + h * (_B1 * f1x + _B3 * k3x + _B4 * k4x
                                 + _B5 * k5x + _B6 * k6x)
                y_new = y + h * (_B1 * f1y + _B3 * k3y + _B4 * k4y
                                 + _B5 * k5y + _B6 * k6y)
                t_new = t + h
                k7x, k7y, d_new = stage(t_new, x_new, y_new)
                K = (f1x, f1y, k2x, k2y, k3x, k3y, k4x, k4y, k5x, k5y,
                     k6x, k6y, k7x, k7y)
                if not (all(map(math.isfinite, K)) and math.isfinite(x_new)
                        and math.isfinite(y_new)):
                    raise _Abort(STATUS_NONFINITE, t, x,
                                 "state or slope became nonfinite")
                stage_evals += 6
                if fixed_h:
                    err = 0.0
                else:
                    ex = h * (_E1 * f1x + _E3 * k3x + _E4 * k4x + _E5 * k5x
                              + _E6 * k6x + _E7 * k7x)
                    ey = h * (_E1 * f1y + _E3 * k3y + _E4 * k4y + _E5 * k5y
                              + _E6 * k6y + _E7 * k7y)
                    ex /= atol + rtol * max(abs(x), abs(x_new))
                    ey /= atol + rtol * max(abs(y), abs(y_new))
                    err = math.sqrt((ex * ex + ey * ey) / 2)
                if err <= 1.0:
                    break
                rejected += 1
                h *= max(_MIN_FACTOR, _SAFETY * err ** -0.2)
            hist.append(t, h, (x, y), K)
            min_x = min(min_x, x_new)
            min_y = min(min_y, y_new)
            now_positive = x_new > 0 and y_new > 0
            if positive and not now_positive:
                events.append({"t": clock(t_new, x_new), "kind": "positivity",
                               "detail": (x_new, y_new)})
            positive = now_positive
            if c > 0:
                # D of the try's last stage, the one at t_new
                min_denominator = min(min_denominator, d_new)
            t, x, y = t_new, x_new, y_new
            f1x, f1y = k7x, k7y
            h_next = fixed_h if fixed_h else h * (
                _MAX_FACTOR if err == 0.0 else min(_MAX_FACTOR, _SAFETY * err ** -0.2))
    except _Abort as abort:
        # the stages the aborted try evaluated, none when it is the
        # initial slope or a stall
        stage_evals += 6 - (k2x, k3x, k4x, k5x, k6x, k7x).count(None)
        status = abort.status
        events.append({"t": clock(abort.t, abort.r), "kind": abort.status,
                       "detail": str(abort)})
    monitors = {"min_r": min_x, "min_xi": min_y, "min_denominator": min_denominator}
    stats = RunStats(steps_accepted=len(hist._ends), steps_rejected=rejected,
                     stage_evals=stage_evals)
    return hist, events, monitors, status, clock(t, x), stats


def _sample_times(sample_times, first, reached):
    """The sample times up to the time reached, by default 513 from first."""
    if sample_times is None:
        sample_times = np.linspace(first, reached, 513)
    ts = np.asarray(sample_times, dtype=float)
    return ts[ts <= reached + 1e-10 * max(1.0, abs(reached))]


def _delays(hist: History, etas, r, params: ModelParams):
    """k(eta) = eps + c (r(eta) - r(eta - 1)), which is also tau at t(eta)."""
    return params.eps + params.c * (r - hist.eval_many(etas - 1.0)[:, 0])


def _eta_history(history: InitialHistory, params: ModelParams) -> InitialHistory:
    """The unit-delay data on [-1, 0] that t(eta) maps onto original-time
    data: r(eta) = x(s) where h(s) = s - t0 - c (x(s) - x(t0)) - eps eta = 0,
    by Newton's method kept inside [s_min, t0], where h changes sign (data
    with c x' >= 1 still maps). Its slope is eps x'(s) / (1 - c x'(s))."""
    source = History(history)     # x' at s, the constant extension included
    eps, c, t0 = params.eps, params.c, history.t0
    x0 = source.eval(t0)[0]
    s_min = t0 - 2.0 * (eps + c * source.x_span())

    def point(eta):
        eta = min(max(eta, -1.0), 0.0)
        lo, hi, s = s_min, t0, t0 + eps * eta
        for _ in range(100):
            x, y, dx = source.eval(s, True)
            h = s - t0 - c * (x - x0) - eps * eta
            step = h / (1.0 - c * dx) if c * dx < 1.0 else math.inf
            if abs(step) <= 1e-14 * max(eps, abs(s)):
                return s, x, y, dx
            lo, hi = (s, hi) if h < 0 else (lo, s)
            s = s - step if lo < s - step < hi else 0.5 * (lo + hi)
        raise NoConvergence("the initial data has no time change onto "
                            "eta = %.6g" % eta)

    def derivative(eta):
        s, _, _, dx = point(eta)
        dy = history.derivative(s)[1] if s >= t0 - history.span else 0.0
        rate = eps / (1.0 - c * dx)
        return dx * rate, dy * rate

    return InitialHistory(value=lambda eta: point(eta)[1:3],
                          derivative=derivative,
                          t0=0.0, span=1.0)


def integrate_sdd(history: InitialHistory, tau0, params: ModelParams, t_end,
                  rtol=1e-8, atol=1e-9, sample_times=None, force=False) -> Trajectory:
    """Integrate the original threshold-delay system from C^1 initial data
    as the time map of one unit-delay run (see the module docstring).

    It ends denominator_breach where integrate_transformed does. Event
    times and t_final are in t; Trajectory.history is the unit-delay run's.
    Monitors: the component minima, tau and x' = r' / t'(eta) at the step
    ends, the bound on x', and the largest |t(eta) - t| at the samples.
    """
    report = check_compatibility(history, tau0, params)
    if not report.passed and not force:
        raise IncompatibleData("compatibility residuals (%.2e, %.2e, %.2e) "
                               "exceed %g" % (report.residual_x, report.residual_y,
                                              report.residual_tau, _COMPAT_TOL))
    eps, c, t0 = params.eps, params.c, history.t0
    mapped = _eta_history(history, params)
    hist, events, loop, status, t_reached, stats = _integrate(
        mapped, params, rtol, atol, None, math.inf, (t0, t_end))
    t_final = min(t_end, t_reached)
    ts = _sample_times(sample_times, t0, t_final)

    # eta at every sample: Newton on the rising t(eta) = t, bisecting the
    # bracket of the points tried where a step leaves it; it ends one step
    # after the first that moves no eta by more than 1e-8 relative
    r0 = mapped.value(0.0)[0]
    dt = ts - t0
    lo, hi = np.full(len(ts), -np.inf), np.full(len(ts), hist.frontier)
    eta = np.minimum(dt / eps, hi)
    done = False
    for _ in range(100):
        rows = hist.eval_many(eta, slope=True)
        resid = eps * eta + c * (rows[:, 0] - r0) - dt
        if done:
            break
        lo = np.where(resid < 0.0, eta, lo)
        hi = np.where(resid > 0.0, eta, hi)
        new = eta - resid / (eps + c * rows[:, 2])
        new = np.where((new > lo) & (new < hi) | (new == eta), new, 0.5 * (lo + hi))
        done = not np.any(np.abs(new - eta) > 1e-8 * (1.0 + np.abs(eta)))
        eta = new

    ends = np.array(hist._ends)
    at_ends = hist.eval_many(ends, slope=True)
    f_map = params.nonlinearity.f
    monitors = {
        "min_x": loop["min_r"], "min_y": loop["min_xi"],
        "min_tau": float(np.min(_delays(hist, ends, at_ends[:, 0], params),
                                initial=math.inf)),
        "max_dx": float(np.max(at_ends[:, 2] / (eps + c * at_ends[:, 2]),
                               initial=-math.inf)),
        "dx_bound": min((1.0 - DENOMINATOR_FLOOR) / c if c > 0 else math.inf,
                        f_map.value(0.0) if f_map.value(0.0) > 0 else math.inf),
        "max_threshold_residual": float(np.max(np.abs(resid), initial=0.0))}
    return Trajectory(kind="original", t=ts, states=rows[:, :2].copy(),
                      delay=_delays(hist, eta, rows[:, 0], params), status=status,
                      events=events, monitors=monitors, history=hist,
                      t_final=t_final, stats=stats)


def integrate_transformed(history: InitialHistory, params: ModelParams, eta_end,
                          rtol=1e-8, atol=1e-9, sample_times=None,
                          fixed_h=None, start=None) -> Trajectory:
    """Integrate the unit-delay system (at c = 0, the constant-delay system).

    Initial data covers [t0 - 1, t0]. The first three unit breakpoints are
    hit exactly. A stage with D <= DENOMINATOR_FLOOR (c x' >= 1 -
    DENOMINATOR_FLOOR) ends the run with status denominator_breach,
    keeping the partial trajectory. start goes on with a run (_integrate).
    """
    if history.span < 1.0 - 1e-12:
        raise HistoryTooShort("transformed system needs one delay unit of data")
    hist, events, monitors, status, eta_reached, stats = _integrate(
        history, params, rtol, atol, fixed_h, eta_end, start=start)
    etas = _sample_times(sample_times, history.t0, eta_reached)
    states = hist.eval_many(etas)
    return Trajectory(kind="transformed", t=etas, states=states,
                      delay=_delays(hist, etas, states[:, 0], params),
                      status=status, events=events, monitors=monitors,
                      history=hist, t_final=eta_reached, stats=stats)


# -- oscillation measurement -----------------------------------------------------

class OscillationSummary(NamedTuple):
    amplitude: float
    period: float
    decay_rate: float     # positive = contracting toward the mean
    n_extrema: int
    mean: float


def _refine_extrema(t, v, idx):
    """Times and values of the vertices of the parabolas through the three
    samples around each of the interior samples idx, the vertex kept within
    one sample spacing; where the three samples lie on a line, the sample
    itself."""
    before, at, after = v[idx - 1], v[idx], v[idx + 1]
    denom = before - 2 * at + after
    flat = denom == 0
    with np.errstate(divide="ignore", invalid="ignore"):
        shift = np.clip(0.5 * (before - after) / denom, -1.0, 1.0)
    return (np.where(flat, t[idx], t[idx] + shift * (t[idx + 1] - t[idx])),
            np.where(flat, at, at - 0.25 * (before - after) * shift))


def measure_oscillation(traj: Trajectory, component=0,
                        transient_fraction=0.5) -> OscillationSummary:
    """Amplitude, period, and decay rate of one state component.

    Works on the sampled trajectory: the tail past the transient cutoff is
    centered on its mean; the period comes from interpolated upward zero
    crossings, the decay rate from a log-linear fit through the extremum
    magnitudes (positive slope of -log means contraction).
    """
    t = traj.t
    return _oscillation(t, traj.states[:, component],
                        t[0] + transient_fraction * (t[-1] - t[0]) if len(t) else 0.0)


def _oscillation(t, v, cut):
    """measure_oscillation on the samples t, v, of which those at or past
    the cut time are measured; t and v may start anywhere before the cut."""
    if len(t) < 8:
        raise InsufficientCycles("trajectory has too few samples")
    sel = t >= cut
    t, v = t[sel], v[sel]
    mean = np.mean(v)
    dev = v - mean
    if np.max(np.abs(dev)) <= 1e-9 * max(1.0, abs(mean)):
        raise InsufficientCycles("deviation below the measurement floor")

    d = np.diff(dev)
    idx = np.where(d[:-1] * d[1:] < 0)[0] + 1
    if len(idx) < 3:
        raise InsufficientCycles("%d extrema after transient cutoff" % len(idx))
    pt, pv = _refine_extrema(t, dev, idx)

    up = np.where((dev[:-1] < 0) & (dev[1:] >= 0))[0]
    if len(up) >= 2:
        cross = t[up] - dev[up] * (t[up + 1] - t[up]) / (dev[up + 1] - dev[up])
        period = float(np.mean(np.diff(cross)))
    else:
        period = 2.0 * float(np.mean(np.diff(pt)))

    window = pv[-6:] if len(pv) >= 6 else pv
    amplitude = 0.5 * float(np.max(window) - np.min(window))

    mags = np.abs(pv)
    usable = mags > 1e-300
    if np.count_nonzero(usable) >= 3:
        slope = np.polyfit(pt[usable], np.log(mags[usable]), 1)[0]
        decay = -float(slope)
    else:
        decay = math.inf
    return OscillationSummary(amplitude=amplitude, period=period,
                              decay_rate=decay, n_extrema=len(idx),
                              mean=float(mean))


# -- regime classification helpers ------------------------------------------------

def _tail_mean_deviation(t, v, ref, t_first, window=0.25):
    """Mean |v - ref| over the last window of a run sampled from t_first;
    t, v may hold only the samples of its later part."""
    if len(t) == 0:
        return math.inf
    cut = t[-1] - window * (t[-1] - t_first)
    return float(np.mean(np.abs(v[t >= cut] - ref)))


# a sweep run's atol and sample count, whether it steps alone or as a lane
# (lanes._step_lanes reads them): a lane is labelled as its run is only
# while the two agree
RUN_ATOL, RUN_SAMPLES = 1e-8, 2048


def run_perturbed(params: ModelParams, eq: Equilibrium, kick_scale, eta_end=400.0,
                  rtol=1e-7, atol=RUN_ATOL, n_samples=RUN_SAMPLES) -> Trajectory:
    """Transformed-system run from an equilibrium bump of relative size
    kick_scale (negative values kick toward and past zero)."""
    kick = kick_scale * eq.state
    hist = bump_history(eq.state, kick, span=1.0)
    return integrate_transformed(hist, params, eta_end, rtol=rtol, atol=atol,
                                 sample_times=np.linspace(0.0, eta_end, n_samples))


def classify_run(traj: Trajectory, eq: Equilibrium, kick_scale) -> str:
    """'decaying' | 'oscillating' | 'growing' | 'escaped' for one run."""
    if kick_scale == 0:
        # a zero kick is no perturbation: its flat run would be labelled escaped
        raise ValueError("kick_scale must be non-zero, got %r" % float(kick_scale))
    t = traj.t
    return _run_label(traj.status, t, traj.states[:, 0], t[0] if len(t) else 0.0,
                      eq.r_star, kick_scale)


def _run_label(status, t, r, t_first, r_star, kick_scale):
    """classify_run on a run's status and its r samples at the times t,
    from a sample grid that starts at t_first and ends at t[-1]. t and r
    may leave out the samples before the transient cut of
    measure_oscillation."""
    if status != STATUS_COMPLETED:
        return "escaped"
    kick_size = abs(kick_scale) * r_star
    tail = _tail_mean_deviation(t, r, r_star, t_first)
    if tail > max(kick_size, 0.5 * r_star):
        return "escaped"
    try:
        osc = _oscillation(t, r, t_first + 0.5 * (t[-1] - t_first))
    except InsufficientCycles:
        return "decaying" if tail < 0.1 * kick_size else "escaped"
    rate_floor = 0.005 / max(osc.period, 1e-9)   # half a percent per cycle
    if osc.decay_rate > rate_floor:
        return "decaying"
    if osc.decay_rate < -rate_floor:
        return "growing"
    return "oscillating"


# A grid with fewer runs than this runs them one after another: below it the
# per-step cost of numpy calls on short arrays outweighs what the lanes share
# (measured in the README's sweep section).
LANES_FROM = 16
# Fewer lanes than this go on alone in the scalar loop (lanes._step_lanes;
# measured in the README).
HANDOFF_BELOW = 8

# what a cell's failure may raise; the cell reads "error: <message>"
CELL_ERRORS = (SddhopfError, ValueError, ArithmeticError)


def error_label(exc) -> str:
    return "error: %s" % (str(exc) or type(exc).__name__)


def classify_dynamics(cells, probe_scales=(0.25, 0.5, 1.0), eta_end=300.0,
                      rtol=1e-7) -> List[str]:
    """Label of every (ModelParams, Equilibrium) cell of a grid: 'stable' |
    'metastable' | 'oscillating' | 'unstable', or 'error: <message>' when
    the cell's spectrum or one of its runs raised.

    The local regime is the equilibrium's linear stability
    (stability.classify_stability): 'stable' for a stable spectrum,
    'oscillating' past eps0. The basin probes, run to eta_end, kick toward
    the positivity edge (scale 1 grazes zero); escape inside that ladder
    means the basin boundary sits within physically admissible
    perturbations, marking a stable cell metastable and an oscillating one
    unstable. The ladder stops at the first escape.

    From LANES_FROM runs on, every run of the grid steps at once as a lane
    (lanes.lane_runs); a lane that does not complete, and every run below
    that count, is a run_perturbed run.
    """
    for i, scale in enumerate(probe_scales):
        if not scale > 0:
            raise ValueError("probe_scales[%d] must be > 0, got %r" % (i, float(scale)))
    runs = [(p, eq, -scale) for p, eq in cells for scale in probe_scales]
    if len(runs) >= LANES_FROM:
        from .lanes import lane_runs
        lanes = lane_runs(runs, eta_end, rtol)
    else:
        lanes = [None] * len(runs)

    def run_label(i):
        p, eq, kick = runs[i]
        lane = lanes[i]
        if lane is None:
            return classify_run(run_perturbed(p, eq, kick, eta_end, rtol), eq, kick)
        return _run_label(STATUS_COMPLETED, lane[0], lane[1], 0.0, eq.r_star, kick)

    labels = []
    for k, (p, eq) in enumerate(cells):
        first = k * len(probe_scales)
        try:
            local = classify_stability(eq, p.mu_m, p.mu_p, p.eps).kind
            basin_ok = all(run_label(i) != "escaped"
                           for i in range(first, first + len(probe_scales)))
        except CELL_ERRORS as exc:
            labels.append(error_label(exc))
            continue
        if local is StabilityKind.UNSTABLE:
            labels.append("oscillating" if basin_ok else "unstable")
        else:
            labels.append("stable" if basin_ok else "metastable")
    return labels
