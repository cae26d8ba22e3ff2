"""Time-domain integration of the delayed systems.

Method of steps with an explicit Dormand-Prince 5(4) pair and a quartic
dense-output interpolant. Delay lookups always go through the dense
history, never raw sample points; for the state-dependent system every
stage solves its own threshold equation tau = eps + c (x(t) - x(t-tau)).
Steps are capped so no delayed argument lands beyond the dense frontier,
and the first few generations of the initial discontinuity get a step-size
cap near their predicted images rather than exact tracking (the error
control absorbs the residue).

The step loop runs on plain floats: for a two-component state the
per-call overhead of numpy outweighs its arithmetic. Everything after
integration (sampling, the delay column) is vectorised over the samples.

Both forms end a run at one bound, D = 1 - c x' <= 1e-3
(model.DENOMINATOR_FLOOR), i.e. c x' >= 1 - 1e-3: the original-time run
with status b2_violation, the transformed one with denominator_breach.
"""

import bisect
import math
import struct
import warnings
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .errors import (DenominatorBreach, HistoryTooShort, IncompatibleData,
                     InsufficientCycles, NoBracket, NoConvergence,
                     SlopeBoundWarning)
from .model import (DENOMINATOR_FLOOR, Equilibrium, ModelParams, rhs_original,
                    rhs_transformed)
from .roots import brentq

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
STATUS_B2 = "b2_violation"
STATUS_BREACH = "denominator_breach"
STATUS_NONFINITE = "nonfinite"
STATUS_STALLED = "stalled"


class _BeyondFrontier(Exception):
    """Internal: a delayed argument fell past the dense-output frontier."""


class _Abort(Exception):
    """Internal: terminate the run with a status instead of raising."""

    def __init__(self, status, t, detail):
        super().__init__(detail)
        self.status = status
        self.t = t
        self.detail = detail


# -- histories ----------------------------------------------------------------

@dataclass(frozen=True)
class InitialHistory:
    """C^1 initial data on [t0 - span, t0], constant-extended further back.

    value(s) and derivative(s) each return the pair (x, y) as floats; a
    derivative of None means the slope is not known in closed form, and
    History takes a central difference of value instead.
    """

    value: Callable[[float], Tuple[float, float]]
    derivative: Optional[Callable[[float], Tuple[float, float]]]
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
        if self._ends:
            seg = np.frombuffer(self._store, dtype=float).reshape(-1, _SEG).copy()
            h = seg[:, 1]
            x = ((seg[:, 0] + h) - seg[:, 0]) / h
            xs += (seg[:, 2] + h * x * (seg[:, 4] + x * (seg[:, 5] + x * (
                seg[:, 6] + x * seg[:, 7])))).tolist()
        return max(xs) - min(xs)

    def _initial_at(self, t, slope):
        s = min(t, self.t0)
        x, y = self.initial.value(s)
        if not slope:
            return x, y
        lo = self.t0 - self.initial.span
        if s < lo:
            return x, y, 0.0
        if self.initial.derivative is not None:
            return x, y, self.initial.derivative(s)[0]
        # central difference, kept inside [t0 - span, t0]
        d = 1e-6 * self.initial.span
        a, b = max(s - d, lo), min(s + d, self.t0)
        if b <= a:
            return x, y, 0.0
        return x, y, (self.initial.value(b)[0] - self.initial.value(a)[0]) / (b - a)

    def eval(self, t: float, slope=False):
        """State (x, y) at time t as a tuple of floats; with slope, the
        tuple (x, y, x'), x' from the same interpolant."""
        if t > self._limit:
            raise _BeyondFrontier(t)
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
            raise _BeyondFrontier(float(ts.max()))
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

def _slope_bound_hit(t, c, slope, events):
    warnings.warn("c|x'| = %.3f >= 1 at t = %.6g; threshold root "
                  "may be non-unique" % (c * abs(slope), t), SlopeBoundWarning)
    if events is not None:
        events.append({"t": t, "kind": "slope_bound",
                       "detail": float(c * abs(slope))})


def solve_delay(t, x_now, history: History, params: ModelParams,
                tau_prev=None, events=None) -> float:
    """Solve tau = eps + c (x_now - x(t - tau)) to |residual| <= 1e-12 max(eps, tau).

    Newton iteration on g(tau) = tau - eps - c (x_now - x(t - tau)),
    g' = 1 - c x'(t - tau), seeded at the previous stage's tau. Each
    iteration makes one history lookup, which gives x and x' together. A
    step falls back to the damped fixed-point step tau - damp g once g'
    drops below 1/2 or |g| stops shrinking; a bracketed scalar solve is
    the last resort. The contraction constant is c |x'| over the delay
    interval; when it reaches 1 at the root the root may not be unique,
    which is reported as a SlopeBoundWarning, not an error.
    """
    eps, c = params.eps, params.c
    if c == 0.0:
        return eps

    def g(tau):
        return tau - eps - c * (x_now - history.eval(t - tau)[0])

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

    # uniqueness bound: c |x'| < 1 at the root
    if c * abs(slope) >= 1.0:
        _slope_bound_hit(t, c, slope, events)
    return tau


def _sample_delays(history: History, params: ModelParams, ts, xs, tau_seed):
    """solve_delay at every sample at once.

    One vectorised sweep over all samples, each element following the
    scalar iteration and stopping on the scalar criterion; samples it
    leaves unconverged go to solve_delay, seeded with the previous
    sample's delay.
    """
    eps, c = params.eps, params.c
    n = len(ts)
    if c == 0.0 or not n:
        return np.full(n, eps)
    tau = np.full(n, float(tau_seed) if tau_seed and tau_seed > 0 else eps)
    damp = np.ones(n)
    prev_abs = np.full(n, math.inf)
    slope = np.zeros(n)         # x' at each converged root
    active = np.arange(n)
    for _ in range(60):
        if not len(active):
            break
        ta = tau[active]
        back = history.eval_many(ts[active] - ta, slope=True)
        gv = ta - eps - c * (xs[active] - back[:, 0])
        abs_g = np.abs(gv)
        going = abs_g > 1e-13 * np.maximum(eps, ta)
        damp[active] = np.where(abs_g >= prev_abs[active], 0.5, damp[active])
        prev_abs[active] = abs_g
        dg = 1.0 - c * back[:, 2]
        use_newton = (damp[active] == 1.0) & (dg >= 0.5)
        with np.errstate(divide="ignore", invalid="ignore"):
            new = np.where(use_newton, ta - gv / dg, ta - damp[active] * gv)
        new = np.where(new > 0, new, 0.5 * ta)
        slope[active[~going]] = back[~going, 2]
        active = active[going]
        tau[active] = new[going]

    for k in active:
        tau[k] = solve_delay(float(ts[k]), float(xs[k]), history, params,
                             tau_prev=tau[k - 1] if k else tau_seed)
    checked = np.ones(n, dtype=bool)
    checked[active] = False                 # solve_delay checked these itself
    for k in np.flatnonzero(checked & (c * np.abs(slope) >= 1.0)):
        _slope_bound_hit(float(ts[k]), c, float(slope[k]), None)
    return tau


# -- compatibility -------------------------------------------------------------

@dataclass(frozen=True)
class CompatibilityReport:
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
    if history.derivative is not None:
        slope = np.asarray(history.derivative(t0), dtype=float)
    else:
        h = 1e-6 * max(tau0, 1.0)
        slope = (3 * np.asarray(history.value(t0), float)
                 - 4 * np.asarray(history.value(t0 - h), float)
                 + np.asarray(history.value(t0 - 2 * h), float)) / (2 * h)
    (dx, dy), _ = rhs_original(now, back, tau0, params)
    scale = max(1.0, abs(dx), abs(dy), params.eps)
    return CompatibilityReport(
        residual_x=(slope[0] - dx) / scale,
        residual_y=(slope[1] - dy) / scale,
        residual_tau=(tau0 - params.eps - params.c * (now[0] - back[0])) / max(1.0, params.eps),
        tol=tol)


# -- trajectories ---------------------------------------------------------------

_COLUMNS = {"original": ("t", "x", "y", "tau"), "transformed": ("eta", "r", "xi", "k")}


@dataclass(frozen=True)
class RunStats:
    """What one run's step loop did: accepted and error-rejected steps,
    tries halved because a delayed argument passed the dense frontier, and
    stage (RHS) evaluations that returned, the initial slope included."""

    steps_accepted: int
    steps_rejected: int
    frontier_halvings: int
    stage_evals: int


@dataclass
class Trajectory:
    kind: str                  # "original" | "transformed"
    t: np.ndarray
    states: np.ndarray         # shape (n, 2)
    delay: np.ndarray          # tau(t) or k(eta)
    status: str
    events: List[dict]
    monitors: dict
    history: History
    t_final: float
    stats: Optional[RunStats] = None    # None when no step loop made it

    @property
    def columns(self):
        return _COLUMNS[self.kind]


def _integrate(kind, initial: InitialHistory, t_end, rtol, atol, h0, fixed_h,
               sample_times, system) -> Trajectory:
    """The embedded-pair loop both systems share, from initial data to the
    sampled Trajectory.

    system(hist, events, monitors) returns the form's own parts:
    stage(t, x, y) -> (x', y', delay value) as floats; cap_h(t, h, delay)
    -> the step to try; on_accept(t_new, x, y, K, delay) for its extra
    monitors; delay_column(ts, states) -> the delay at the samples. The
    loop itself records the two component minima, the positivity event and
    the RunStats, and turns an abort into the run's status. fixed_h disables
    error control (every step accepted at that size, still capped by the
    frontier rules); used for order studies.
    """
    hist = History(initial)
    events: List[dict] = []
    min_x_key, min_y_key = ("min_" + col for col in _COLUMNS[kind][1:3])
    monitors = {min_x_key: math.inf, min_y_key: math.inf}
    stage, cap_h, on_accept, delay_column = system(hist, events, monitors)
    stage_evals = rejected = halvings = 0
    # a try's stage slopes stay None until their stage returns, so a try
    # cut short still tells how many stages it evaluated
    k2x = k3x = k4x = k5x = k6x = k7x = None
    min_x = min_y = math.inf
    positive = True
    t = initial.t0
    x, y = (float(v) for v in initial.value(t))
    h_next = fixed_h if fixed_h else h0
    status = STATUS_COMPLETED
    try:
        f1x, f1y, delay_now = stage(t, x, y)
        stage_evals = 1
        if not (math.isfinite(f1x) and math.isfinite(f1y)):
            raise _Abort(STATUS_NONFINITE, t, "nonfinite initial slope")
        steps = 0
        while t < t_end - 1e-12 * max(1.0, abs(t_end)):
            if steps >= _MAX_STEPS:
                raise NoConvergence("step budget exhausted at t = %.6g" % t)
            h = cap_h(t, min(h_next, t_end - t), delay_now)
            while True:
                steps += 1
                k2x = k3x = k4x = k5x = k6x = k7x = None
                if h <= 1e-12 * max(1.0, abs(t)):
                    # forced singularity in the feedback, typically the
                    # repression pole swept by non-positive initial data
                    raise _Abort(STATUS_STALLED, t,
                                 "step size underflow at t = %.6g" % t)
                try:
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
                    k7x, k7y, delay_new = stage(t_new, x_new, y_new)
                except _BeyondFrontier:
                    halvings += 1
                    stage_evals += 6 - (k2x, k3x, k4x, k5x, k6x, k7x).count(None)
                    h *= 0.5
                    continue
                K = (f1x, f1y, k2x, k2y, k3x, k3y, k4x, k4y, k5x, k5y,
                     k6x, k6y, k7x, k7y)
                if not (all(map(math.isfinite, K)) and math.isfinite(x_new)
                        and math.isfinite(y_new)):
                    raise _Abort(STATUS_NONFINITE, t,
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
                events.append({"t": t_new, "kind": "positivity",
                               "detail": (x_new, y_new)})
            positive = now_positive
            on_accept(t_new, x_new, y_new, K, delay_new)
            t, x, y = t_new, x_new, y_new
            f1x, f1y, delay_now = k7x, k7y, delay_new
            h_next = fixed_h if fixed_h else h * (
                _MAX_FACTOR if err == 0.0 else min(_MAX_FACTOR, _SAFETY * err ** -0.2))
        t_reached = t
    except _Abort as stop:
        # the stages the aborted try evaluated, none when it is the
        # initial slope or a stall
        stage_evals += 6 - (k2x, k3x, k4x, k5x, k6x, k7x).count(None)
        status = stop.status
        t_reached = hist.frontier
        events.append({"t": stop.t, "kind": status, "detail": stop.detail})
    monitors[min_x_key], monitors[min_y_key] = min_x, min_y

    if sample_times is None:
        sample_times = np.linspace(initial.t0, t_reached, 513)
    ts = np.asarray(sample_times, dtype=float)
    ts = ts[ts <= t_reached + 1e-10 * max(1.0, abs(t_reached))]
    states = hist.eval_many(ts)
    return Trajectory(kind=kind, t=ts, states=states,
                      delay=delay_column(ts, states), status=status,
                      events=events, monitors=monitors, history=hist,
                      t_final=t_reached,
                      stats=RunStats(steps_accepted=len(hist._ends),
                                     steps_rejected=rejected,
                                     frontier_halvings=halvings,
                                     stage_evals=stage_evals))


def integrate_sdd(history: InitialHistory, tau0, params: ModelParams, t_end,
                  rtol=1e-8, atol=1e-9, sample_times=None, force=False,
                  fixed_h=None) -> Trajectory:
    """Integrate the original threshold-delay system from C^1 initial data.

    Every stage solves its own threshold equation against the dense
    history. A stage with D = 1 - c x' <= DENOMINATOR_FLOOR, i.e.
    c x' >= 1 - DENOMINATOR_FLOOR, ends the run with status b2_violation:
    the delay law degenerates at D = 0, and the transformed form stops at
    the same bound. Positivity and slope monitors are recorded per
    accepted step.
    """
    report = check_compatibility(history, tau0, params)
    if not report.passed and not force:
        raise IncompatibleData("compatibility residuals (%.2e, %.2e, %.2e) "
                               "exceed %g" % (report.residual_x, report.residual_y,
                                              report.residual_tau, _COMPAT_TOL))

    def system(hist, events, monitors):
        f_map = params.nonlinearity.f
        dx_bound = min((1.0 - DENOMINATOR_FLOOR) / params.c if params.c > 0
                       else math.inf,
                       f_map.value(0.0) if f_map.value(0.0) > 0 else math.inf)
        monitors.update(min_tau=math.inf, max_dx=-math.inf, dx_bound=dx_bound,
                        max_threshold_residual=0.0)
        tau_hint = tau0

        def stage(t, x, y):
            nonlocal tau_hint
            tau = solve_delay(t, x, hist, params, tau_prev=tau_hint, events=events)
            tau_hint = tau
            delayed = hist.eval(t - tau)
            try:
                (dx, dy), resid = rhs_original((x, y), delayed, tau, params)
            except OverflowError:
                raise _Abort(STATUS_NONFINITE, t, "feedback overflow")
            if 1.0 - params.c * dx <= DENOMINATOR_FLOOR:
                raise _Abort(STATUS_B2, t, "c x' = %.6g >= 1 - %g"
                             % (params.c * dx, DENOMINATOR_FLOOR))
            monitors["max_threshold_residual"] = max(
                monitors["max_threshold_residual"], abs(resid))
            return dx, dy, tau

        # image of the initial discontinuity point and its first generations
        pending = [[history.t0, 0]]

        def cap_h(t, h, tau_now):
            h = min(h, 0.85 * tau_now)
            while pending and t - tau_now >= pending[0][0] - 1e-12:
                b, gen = pending.pop(0)
                if gen < 3:
                    pending.append([t, gen + 1])
            if pending:
                image = pending[0][0] + tau_now
                if t < image < t + h:
                    h = max(image - t, 1e-3 * tau_now)
            return h

        def on_accept(t_new, x, y, K, tau_new):
            monitors["min_tau"] = min(monitors["min_tau"], tau_new)
            monitors["max_dx"] = max(monitors["max_dx"], max(K[0::2]))

        def delay_column(ts, states):
            return _sample_delays(hist, params, ts, states[:, 0], tau_hint)

        return stage, cap_h, on_accept, delay_column

    return _integrate("original", history, t_end, rtol, atol,
                      min(0.1 * tau0, t_end - history.t0), fixed_h, sample_times,
                      system)


def integrate_transformed(history: InitialHistory, params: ModelParams, eta_end,
                          rtol=1e-8, atol=1e-9, sample_times=None,
                          fixed_h=None) -> Trajectory:
    """Integrate the unit-delay system (at c = 0, the constant-delay system).

    Initial data covers [t0 - 1, t0]. The first three unit breakpoints are
    hit exactly. A stage with D <= DENOMINATOR_FLOOR (c x' >= 1 -
    DENOMINATOR_FLOOR, the bound integrate_sdd ends at) ends the run with
    status denominator_breach, keeping the partial trajectory.
    """
    if history.span < 1.0 - 1e-12:
        raise HistoryTooShort("transformed system needs one delay unit of data")
    t0 = history.t0

    def system(hist, events, monitors):
        monitors["min_denominator"] = math.inf
        denominator = math.inf      # D of the last stage, the one at t_new on accept

        def stage(t, r, xi):
            nonlocal denominator
            delayed = hist.eval(t - 1.0)
            try:
                dr, dxi, k, denominator = rhs_transformed((r, xi), delayed, params)
            except OverflowError:
                raise _Abort(STATUS_NONFINITE, t, "feedback overflow")
            except DenominatorBreach as exc:
                raise _Abort(STATUS_BREACH, t, str(exc))
            return dr, dxi, k

        breakpoints = [t0 + 1.0, t0 + 2.0, t0 + 3.0]

        def cap_h(t, h, _delay):
            h = min(h, 1.0)
            while breakpoints and t >= breakpoints[0] - 1e-9:
                breakpoints.pop(0)
            if breakpoints and t + h > breakpoints[0]:
                h = breakpoints[0] - t
            return h

        def on_accept(t_new, r, xi, K, k_new):
            if params.c > 0:
                monitors["min_denominator"] = min(monitors["min_denominator"],
                                                  denominator)

        def delay_column(ts, states):
            return params.eps + params.c * (states[:, 0] - hist.eval_many(ts - 1.0)[:, 0])

        return stage, cap_h, on_accept, delay_column

    return _integrate("transformed", history, eta_end, rtol, atol,
                      min(0.1, eta_end - t0), fixed_h, sample_times, system)


# -- oscillation measurement -----------------------------------------------------

@dataclass(frozen=True)
class OscillationSummary:
    amplitude: float
    period: float
    decay_rate: float     # positive = contracting toward the mean
    n_extrema: int
    mean: float


def _refine_extremum(t, v, i):
    """Parabola through three samples around a discrete extremum."""
    if i == 0 or i == len(v) - 1:
        return t[i], v[i]
    denom = (v[i - 1] - 2 * v[i] + v[i + 1])
    if denom == 0:
        return t[i], v[i]
    delta = 0.5 * (v[i - 1] - v[i + 1]) / denom
    delta = max(-1.0, min(1.0, delta))
    dt = t[i + 1] - t[i]
    return t[i] + delta * dt, v[i] - 0.25 * (v[i - 1] - v[i + 1]) * delta


def measure_oscillation(traj: Trajectory, component=0,
                        transient_fraction=0.5) -> OscillationSummary:
    """Amplitude, period, and decay rate of one state component.

    Works on the sampled trajectory: the tail past the transient cutoff is
    centered on its mean; the period comes from interpolated upward zero
    crossings, the decay rate from a log-linear fit through the extremum
    magnitudes (positive slope of -log means contraction).
    """
    t, v = traj.t, traj.states[:, component]
    if len(t) < 8:
        raise InsufficientCycles("trajectory has too few samples")
    cut = t[0] + transient_fraction * (t[-1] - t[0])
    sel = t >= cut
    t, v = t[sel], v[sel]
    dev = v - np.mean(v)
    if np.max(np.abs(dev)) <= 1e-9 * max(1.0, abs(np.mean(v))):
        raise InsufficientCycles("deviation below the measurement floor")

    d = np.diff(dev)
    idx = np.where(d[:-1] * d[1:] < 0)[0] + 1
    if len(idx) < 3:
        raise InsufficientCycles("%d extrema after transient cutoff" % len(idx))
    refined = [_refine_extremum(t, dev, i) for i in idx]
    pt = np.array([r[0] for r in refined])
    pv = np.array([r[1] for r in refined])

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
                              mean=float(np.mean(v)))


# -- regime classification helpers ------------------------------------------------

def _tail_mean_deviation(traj: Trajectory, ref, component=0, window=0.25):
    t = traj.t
    if len(t) == 0:
        return math.inf
    cut = t[-1] - window * (t[-1] - t[0])
    sel = t >= cut
    return float(np.mean(np.abs(traj.states[sel, component] - ref[component])))


def run_perturbed(params: ModelParams, eq: Equilibrium, kick_scale,
                  eta_end=400.0, rtol=1e-7, atol=1e-8, n_samples=2048) -> Trajectory:
    """Transformed-system run from an equilibrium bump of relative size
    kick_scale (negative values kick toward and past zero)."""
    kick = kick_scale * eq.state
    hist = bump_history(eq.state, kick, span=1.0)
    return integrate_transformed(hist, params, eta_end, rtol=rtol, atol=atol,
                                 sample_times=np.linspace(0.0, eta_end, n_samples))


def classify_run(traj: Trajectory, eq: Equilibrium, kick_scale) -> str:
    """'decaying' | 'oscillating' | 'growing' | 'escaped' for one run."""
    if traj.status != STATUS_COMPLETED:
        return "escaped"
    kick_size = abs(kick_scale) * eq.state[0]
    tail = _tail_mean_deviation(traj, eq.state)
    if tail > max(kick_size, 0.5 * eq.state[0]):
        return "escaped"
    try:
        osc = measure_oscillation(traj)
    except InsufficientCycles:
        return "decaying" if tail < 0.1 * kick_size else "escaped"
    rate_floor = 0.005 / max(osc.period, 1e-9)   # half a percent per cycle
    if osc.decay_rate > rate_floor:
        return "decaying"
    if osc.decay_rate < -rate_floor:
        return "growing"
    return "oscillating"


def classify_dynamics(params: ModelParams, eq: Equilibrium,
                      small_kick=0.05, probe_scales=(0.25, 0.5, 1.0),
                      eta_end=400.0, rtol=1e-7) -> str:
    """Cell label: 'stable' | 'metastable' | 'oscillating' | 'unstable'.

    A small same-side kick probes the local regime. The basin probe kicks
    toward the positivity edge (scale 1 grazes zero); escape inside that
    ladder means the basin boundary sits within physically admissible
    perturbations, marking a locally stable cell metastable and a locally
    oscillating one unstable.
    """
    small = classify_run(run_perturbed(params, eq, small_kick, eta_end, rtol),
                         eq, small_kick)
    basin_ok = True
    for scale in probe_scales:
        label = classify_run(run_perturbed(params, eq, -scale,
                                           min(eta_end, 300.0), rtol),
                             eq, -scale)
        if label == "escaped":
            basin_ok = False
            break
    if small == "decaying":
        return "stable" if basin_ok else "metastable"
    return "oscillating" if basin_ok else "unstable"


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
