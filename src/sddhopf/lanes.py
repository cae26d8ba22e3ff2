"""The transformed runs of a sweep stepped together, as numpy lanes.

dde.classify_dynamics hands every run of a grid here once the grid has
dde.HANDOFF_BELOW of them. lane_runs follows integrate_transformed's step loop
for every run at once: each lane keeps its own t, h and accept or reject,
so it takes the steps its run_perturbed run takes, and the lanes share one
round of numpy calls per try. The transformed delay is exactly one eta
unit, so the five lookup times of a try are known before it starts, and one
batched history lookup serves all its stages.

A lane keeps no whole history: only the segments its lookups can still
reach, packed as History packs them, and r at the sample times the run's
label reads. A lane that does not complete (its run would stop early or
raise) is left to run_perturbed. A round costs about as much however few
lanes it steps, so once fewer than dde.HANDOFF_BELOW are left each goes
on alone in integrate_transformed's scalar loop, from a History of the
lane's segments (History.from_segments), its t, state, first-stage slopes
and next step: a Dormand-Prince run with FSAL is set by these alone, so it
takes the steps the lane would have taken.

dde owns the crossover, the segment packing and the Dormand-Prince
tableau; the lanes read them. Only dde loads numpy when it is imported
(the package's import boundary): the functions here import numpy, and
dde's names, when they run.
"""

import math

from .model import DENOMINATOR_FLOOR
from .nonlinearity import HillRepressor, LinearMap

# Pool places per lane once the samples are due (before, the pool fills the
# samples' buffer: a lane of the kick's short steps holds a hundred
# segments, most hold a few), and the places a lookup compares at a time; a
# lane keeps at least that many free places after its segments.
_PLACES, _WINDOW = 24, 8
_FLUSH_ROUNDS = 6   # rounds of segments between two sample writes
_ARRAY_MAPS = (HillRepressor, LinearMap)    # feedback maps that take arrays


def _map_key(m):
    return type(m), tuple(sorted(vars(m).items()))


def _stacked_slopes(numbers):
    """model.transformed_slopes over the n lanes of numbers, the rows mu_m,
    mu_p, c and eps (4, n), as slopes(out, state, fg): state is the lanes'
    [r | xi] and fg their feedback [f(xi(eta - 1)) | g(r(eta - 1))], flat
    arrays of 2n; it writes [r' | xi'] into out and returns each lane's D.
    It makes transformed_slopes' operations in the same order, so each
    lane's slopes equal its scalar ones bit for bit."""
    import numpy as np

    multiply, subtract, divide, cat = np.multiply, np.subtract, np.divide, np.concatenate
    mu, c, eps = numbers[:2].reshape(-1), numbers[2], cat((numbers[3], numbers[3]))
    n = len(c)

    def slopes(out, state, fg):
        multiply(mu, state, out=out)
        subtract(fg, out, out=out)      # -mu_m r + f(xi_1), -mu_p xi + g(r_1)
        d = 1.0 - c * out[:n]
        multiply(eps, out, out=out)
        divide(out, cat((d, d)), out=out)
        return d
    return slopes


def lane_runs(runs, eta_end, rtol):
    """run_perturbed(params, eq, kick_scale, eta_end, rtol) for every
    (params, eq, kick_scale) of runs, stepped together.

    Per run, a completed lane gives (t, r, stats): its sample times from
    the transient cut of measure_oscillation on, r there, and its RunStats,
    as its run's Trajectory.stats counts them. A run that did not complete
    as a lane gives None. Runs whose feedback maps are equal share one lane loop; runs whose
    maps do not take arrays get None. No numpy warning is raised.
    """
    import numpy as np

    out: list = [None] * len(runs)
    groups: dict = {}
    for i, run in enumerate(runs):
        f, g = run[0].nonlinearity.f, run[0].nonlinearity.g
        if isinstance(f, _ARRAY_MAPS) and isinstance(g, _ARRAY_MAPS):
            groups.setdefault((_map_key(f), _map_key(g)), []).append(i)
    with np.errstate(all="ignore"):
        for members in groups.values():
            done = _step_lanes([runs[i] for i in members], eta_end, rtol)
            for i, lane in zip(members, done):
                out[i] = lane
    return out


class _SegmentStore:
    """The segments each lane's lookups can still reach, in one pool.

    A pool column is one segment in History's packing and then its end:
    the rows t, h, r, xi, k1_r, k1_xi, P1_r, P1_xi, P2_r, P2_xi, P3_r,
    P3_xi, end. A lane's segments lie in time order in its own span of the
    pool: from its cursor, the segment its last accepted step's fifth
    lookup found (the one at t_new - 1), to last, its newest. The places
    after them end at +inf, but for a rejected try's column at last + 1,
    which ends at the try's t + h, past the lane's t. So a lookup looks
    from the cursor on, and an accept only writes after last and moves the
    cursor. Every few rounds, and when lanes leave, repack moves each
    lane's segments from its cursor on to the front of a new span, in the
    same pool or a new one, and shares the free places out evenly.
    """

    def __init__(self, n, data):
        """A pool for n lanes in data, an array (13, places). A lane starts
        with a placeholder that ends at eta = 0, where the initial data
        takes over."""
        import numpy as np

        self.cur = self.last = self.origin = np.arange(n)  # last - origin: pushes kept
        self.data = data
        data[12, :n] = 0.0
        self.repack(self.cur, data)

    def _use(self, data):
        # an empty pool in data
        from numpy.lib.stride_tricks import sliding_window_view

        self.data, self.segs, self.end = data, data[:12], data[12]
        self.end[:] = math.inf
        # windows[k, i] is end[i + k]: the ends a lookup compares, from i on
        self.windows = sliding_window_view(self.end, _WINDOW).T

    def lookup(self, at):
        """The columns (12, 5 * lanes) of the segments the lanes' times at
        (5, lanes) fall in: the first that ends at or after the time, else
        the lane's newest, as History.eval picks them. A lane keeps
        _WINDOW free places, so a window from its cursor stays in its span."""
        import numpy as np

        start = self.cur
        ends = self.windows[:, start]
        # the first place of the window that ends at or after each time
        below = (ends[:, None] < at).argmin(0)
        more = ends[-1] < at[-1]        # lanes whose last time is past the window
        past = 0
        while more[more.argmax()]:
            # look on for the times past the window
            beyond = ends[-1] < at
            start = np.where(more, start + _WINDOW, start)
            ends = self.windows[:, start]
            past += _WINDOW
            below = np.where(beyond, past + (ends[:, None] < at).argmin(0), below)
            more &= ends[-1] < at[-1]
        below += self.cur
        # only t + h - 1 may pass the newest end, t; the others lie 0.11 h before it
        np.minimum(below[-1], self.last, out=below[-1])
        self.found = below[-1]
        return self.segs.take(below.reshape(-1), axis=1)

    def push(self, acc, columns):
        """Write columns (13, lanes) after every lane's newest segment; keep
        them, and move the cursor to the last lookup's segment, for the
        lanes acc."""
        import numpy as np

        top = self.last + 1
        self.data[:, top] = columns
        np.copyto(self.cur, self.found, where=acc)
        np.copyto(self.last, top, where=acc)
        self.rounds_left -= 1

    def repack(self, keep, data=None):
        """Keep the lanes keep, in that order, each with its segments from
        its cursor on, in the pool data if given.
        A pool that would leave a lane fewer than _WINDOW + 4 free places
        gives way to a larger one, with _PLACES free places a lane: a lane
        holds at most the segments its scalar run's History holds."""
        import numpy as np

        data = self.data if data is None else data
        count = (self.last - self.cur + 1)[keep]
        held = sum(count.tolist())
        if (data.shape[1] - held) // max(len(keep), 1) < _WINDOW + 4:
            data = np.empty((13, held + _PLACES * len(keep)))
        room = (data.shape[1] - held) // max(len(keep), 1)
        first = (count + room).cumsum() - (count + room)
        src = np.arange(held) + (self.cur[keep] - (count.cumsum() - count)).repeat(count)
        columns = self.data[:, src]
        self._use(data)
        self.data[:, src + (first - self.cur[keep]).repeat(count)] = columns
        self.origin = self.origin[keep] + (first - self.cur[keep])
        self.cur, self.last = first, first + count - 1
        self.rounds_left = room - _WINDOW      # pushes until a repack


def _step_lanes(runs, t_end, rtol):
    """The step loop of integrate_transformed over lanes, one per run.

    Each round makes one try of every live lane. A lane keeps only the
    segments its lookups can still reach (_SegmentStore), and r at the
    sample times from the transient cut of measure_oscillation on, written
    every _FLUSH_ROUNDS rounds. A lane's two components lie in one flat
    array, r then xi, and the five lookup times of a try in five blocks of
    lanes: numpy's calls cost less on flat arrays than on ones that broadcast.

    A lane ends, and is dropped, when it completes or when its scalar run
    would stop early or raise: a denominator at the floor, a nonfinite
    value, a stalled step or the step budget. Once fewer than
    dde.HANDOFF_BELOW are left, with the samples due, no lookup reaching
    the initial data and no breakpoint left, each goes on alone
    (_go_on_alone).
    """
    import numpy as np

    from .dde import (_DP_A, _DP_C, _DP_E, _DP_P, _MAX_FACTOR, _MAX_STEPS, _MIN_FACTOR,
                      _SAFETY, HANDOFF_BELOW, RUN_ATOL, RUN_SAMPLES, RunStats)

    atol, n_samples = RUN_ATOL, RUN_SAMPLES     # run_perturbed's

    # dde's Dormand-Prince rows as arrays: the five distinct stage times of
    # a try (stages 6 and 7 share t + h) as a column, and per slope k2..k7
    # the slopes before it, its row of A (k7's state is x_new) and its
    # lookup time
    c_try, e_row, p_rows = np.array(_DP_C)[:, None], np.array(_DP_E), np.array(_DP_P)
    stages = list(zip(range(1, 7), map(np.array, _DP_A), (0, 1, 2, 3, 4, 4)))
    n = len(runs)
    nl = runs[0][0].nonlinearity
    lane_ids = np.arange(n)
    numbers = np.array([[p.mu_m, p.mu_p, p.c, p.eps] for p, _, _ in runs]).T
    base = np.array([eq.state for _, eq, _ in runs]).T.reshape(-1)
    kick = np.array([k * eq.state for _, eq, k in runs]).T.reshape(-1)
    t_stop = t_end - 1e-12 * max(1.0, t_end)
    stall_at = 1e-12 * max(1.0, t_end)      # no step is stalled above this
    # the sample grid run_perturbed makes, followed by +inf past the most
    # samples one step may take; a lane's samples start at the transient cut
    per_unit = (n_samples - 1) / t_end
    grid = np.full(n_samples + int(per_unit) + 3, math.inf)
    grid[:n_samples] = np.linspace(0.0, t_end, n_samples)
    first = int(grid.searchsorted(0.5 * t_end))
    width, before, cut = n_samples - first, grid[first - 1], grid[first]
    # one buffer holds the pool of the kicks' many short steps, and then the
    # samples, a row per lane and a place for the rest: every lane is long
    # past its kick when the first samples are due
    buf = np.empty(max(n * width + 1, 13 * _PLACES * n))
    store, samples = _SegmentStore(n, buf[:len(buf) // 13 * 13].reshape(13, -1)), None
    # per lane, where its samples go: grid sample k at row + k of samples
    row = lane_ids * width - first
    pending, completed = [], []
    next_break, breaks_left = np.ones(n), True    # the next of eta = 1, 2, 3

    def capped(t, h):
        # cap_h of integrate_transformed, for the lanes that step from t
        nonlocal next_break, breaks_left
        h = np.minimum(h, 1.0)
        if breaks_left:
            while True:
                passed = t >= next_break - 1e-9
                if not passed[passed.argmax()]:
                    break
                next_break = np.where(passed, np.where(next_break < 3.0, next_break + 1.0,
                                                       math.inf), next_break)
            h = np.where(t + h > next_break, next_break - t, h)
            breaks_left = next_break[next_break.argmin()] < math.inf
        return h

    dot, cat, copyto, where, minimum = np.dot, np.concatenate, np.copyto, np.where, np.minimum
    slopes = _stacked_slopes(numbers)
    t = np.zeros(n)
    x = base + kick * 0.0
    start = base + kick * np.sin(np.pi * -1.0) ** 2       # the data at eta = -1
    kf = np.empty((7, 2 * n))       # the stage slopes k1..k7; k1 is the last k7
    d = slopes(kf[0], x, cat((nl.f.value(start[n:]), nl.g.value(start[:n]))))
    finite = np.isfinite(kf[0])
    alive = finite[:n] & finite[n:] & (d > DENOMINATOR_FLOOR)
    h = capped(t, np.minimum(np.minimum(0.1, t_end), t_end - t))
    rounds, initial = 0, True   # initial: some lookup may still reach the initial data
    while True:
        move = samples is None and rounds and rounds >= samples_from   # the pool out of buf
        if store.rounds_left <= 0 or not alive[alive.argmin()] or not rounds or move:
            pool = np.empty((13, _PLACES * n)) if move else None
            keep = alive.nonzero()[0]
            store.repack(keep, pool)
            samples = buf[:len(runs) * width + 1] if move else samples
            if len(keep) < n:
                x, base, kick = (a.reshape(2, n)[:, keep].reshape(-1) for a in (x, base, kick))
                kf = kf.reshape(7, 2, n)[:, :, keep].reshape(7, -1)
                (lane_ids, row, numbers, next_break, t, h) = (
                    a[..., keep] for a in (lane_ids, row, numbers, next_break, t, h))
                n = len(keep)
                if not n:
                    break
                slopes = _stacked_slopes(numbers)
            if n < HANDOFF_BELOW and samples is not None and not (initial or breaks_left):
                # the pending samples, written after the loop, lie at or
                # before each lane's t; the scalar loop takes those past it
                for i, lane in enumerate(lane_ids.tolist()):
                    k = max(first, int(grid.searchsorted(t[i], "right")))   # samples past t
                    state = (float(t[i]), (float(x[i]), float(x[n + i])),
                             (float(kf[0, i]), float(kf[0, n + i])), float(h[i]), rounds)
                    alone = _go_on_alone(runs[lane][0], store, i, grid[k:n_samples], t_end,
                                         rtol, state)
                    if alone is not None:
                        samples[row[i] + k:row[i] + n_samples] = alone[1]
                        completed.append((lane, alone[0]))
                break
            # the initial data's base and kick at each lookup time; the
            # rounds before which no lane nears its end or its first
            # sample, as a step is at most a unit
            at_lag = [(np.ones((5, 1)) * a.reshape(2, 1, n)).reshape(-1) for a in (base, kick)]
            end_from = rounds + int(np.minimum.reduce(t_stop - t))
            samples_from = rounds + int(np.minimum.reduce(cut - t)) - 1
            alive = np.ones(n, dtype=bool)
        rounds += 1
        if rounds > _MAX_STEPS:
            break

        # one lookup for the try's five delayed times t + c h - 1
        lag = (t + c_try * h) - 1.0
        m = 5 * n
        seg = store.lookup(lag).reshape(-1)
        lag = lag.reshape(-1)
        u = (lag - seg[:m]) / seg[m:2 * m]
        hu, u = cat((seg[m:2 * m] * u,) * 2), cat((u, u))
        delayed = seg[2 * m:4 * m] + hu * (seg[4 * m:6 * m] + u * (
            seg[6 * m:8 * m] + u * (seg[8 * m:10 * m] + u * seg[10 * m:12 * m])))
        if initial:
            bump = np.sin(np.pi * np.maximum(lag, -1.0)) ** 2
            copyto(delayed, at_lag[0] + at_lag[1] * cat((bump, bump)),
                   where=cat((lag <= 0.0,) * 2))
            initial = t[t.argmin()] <= 1.0

        # the feedback at all five delayed times at once: [f(xi) | g(r)]
        fg_at = cat((nl.f.value(delayed[m:]).reshape(5, n),
                     nl.g.value(delayed[:m]).reshape(5, n)), axis=1)
        h2 = cat((h, h))
        d_min = math.inf
        for s, a_row, at in stages:
            stage = x + h2 * dot(a_row, kf[:s])
            d_min = minimum(d_min, slopes(kf[s], stage, fg_at[at]))
        x_new = stage
        e = h2 * dot(e_row, kf)
        e /= atol + rtol * np.maximum(np.abs(x), np.abs(x_new))
        e *= e
        err = np.sqrt((e[:n] + e[n:]) / 2)

        ok = np.isfinite(err) & (d_min > DENOMINATOR_FLOOR)
        if h[h.argmin()] <= stall_at:     # argmin costs less than a reduction
            ok &= h > 1e-12 * np.maximum(1.0, t)
        acc = ok & (err <= 1.0)
        # min(MAX, grow) after an accept (err <= 1), max(MIN, grow) after a reject
        h_next = h * minimum(np.maximum(_SAFETY * err ** -0.2, _MIN_FACTOR), _MAX_FACTOR)
        t_new = t + h

        # the segments in the pool's row order, and their ends; one vector
        # product per row of P, as a matrix product would page in
        # OpenBLAS's gemm kernels, another 0.2 MB of resident code
        new = cat([t, h, x, kf[0]] + [dot(p_row, kf) for p_row in p_rows]
                  + [t_new]).reshape(13, n)
        store.push(acc, new)
        alive = ok
        if rounds >= end_from and np.logical_or.reduce(t_new >= t_stop):
            done = acc & (t_new >= t_stop)
            completed += ((lane, RunStats(accepted, rounds - accepted, 1 + 6 * rounds))
                          for lane, accepted in zip(lane_ids[done].tolist(),
                                                    (store.last - store.origin)[done].tolist()))
            # their last segments take the samples within the frontier's tolerance
            new[12, done] += 1e-10 * np.maximum(1.0, t_new[done])
            alive = ok & ~done
        pending.append((new, acc, row))
        if len(pending) == _FLUSH_ROUNDS:
            _write_samples(samples, pending, grid, per_unit, before, cut)
            pending = []

        acc2 = cat((acc, acc))
        copyto(x, x_new, where=acc2)
        copyto(kf[0], kf[6], where=acc2)
        copyto(t, t_new, where=acc)
        h = where(acc, capped(t, h_next if rounds < end_from else minimum(h_next, t_end - t)),
                  h_next)

    if pending:
        _write_samples(samples, pending, grid, per_unit, before, cut)
    result: list = [None] * len(runs)
    for lane, stats in completed:
        result[lane] = (grid[first:n_samples], samples[lane * width:(lane + 1) * width], stats)
    return result


def _go_on_alone(params, store, i, times, t_end, rtol, state):
    """Lane i's run gone on with in the scalar loop to t_end, from state =
    (t, (r, xi), (r', xi'), h, tries): its RunStats from eta = 0 and r at
    the times, or None when it does not complete. The loop steps on a
    History of the lane's segments from its cursor on; no lookup reaches
    before them, so it has no initial data."""
    from .dde import (CELL_ERRORS, RUN_ATOL, STATUS_COMPLETED, History, InitialHistory,
                      RunStats, integrate_transformed)

    lo, hi = int(store.cur[i]), int(store.last[i]) + 1
    hist = History.from_segments(InitialHistory(None, None, float(store.segs[0, lo]), 1.0),
                                 store.segs[:, lo:hi].T, store.end[lo:hi])
    try:
        traj = integrate_transformed(hist.initial, params, t_end, rtol, RUN_ATOL, times,
                                     start=(hist,) + state)
    except CELL_ERRORS:
        return None
    if traj.status != STATUS_COMPLETED:
        return None
    tries, accepted, alone = state[-1], int(store.last[i] - store.origin[i]), traj.stats
    return RunStats(accepted + alone.steps_accepted - (hi - lo),
                    tries - accepted + alone.steps_rejected,
                    1 + 6 * tries + alone.stage_evals), traj.states[:, 0]


def _write_samples(samples, pending, grid, per_unit, before, cut):
    """r at the sample times on the segments of some rounds, as
    History.eval_many evaluates it: a sample time s > the start of a
    segment and <= its end goes to that segment, and the last segment of a
    completed lane also takes those within the frontier's tolerance.

    pending holds per round its segments (13, lanes), which of them were
    accepted, and where each lane's samples go. samples is flat: a row per
    lane, and a last place for what is not due. The grid has per_unit
    samples a unit; before and cut are its samples before and at the cut.
    """
    import numpy as np

    segs, accs, rows = zip(*pending)
    seg, acc, row = (np.concatenate(a, axis=-1) for a in (segs, accs, rows))
    reach = np.where(acc, seg[12], -math.inf)     # the last sample time a segment takes
    due = reach >= cut
    if not due[due.argmax()]:
        return
    # the candidates, a row per place from the sample at or before each
    # segment's start on, as many as the longest segment may take
    j = (seg[0] * per_unit).astype(int)
    span = (seg[12] * per_unit).astype(int) - j
    j = j + np.arange(span[span.argmax()] + 2)[:, None]
    at = grid[j]
    due = (at > np.maximum(seg[0], before)) & (at <= reach)
    j += row
    dest = np.where(due, j, len(samples) - 1)
    del j, due
    # History's r + h u (a0 + u (a1 + u (a2 + u a3))), in place
    u = at
    u -= seg[0]
    u /= seg[1]
    r = u * seg[10]
    for coeff in seg[8], seg[6]:
        r += coeff
        r *= u
    r += seg[4]
    u *= seg[1]
    r *= u
    r += seg[2]
    samples[dest] = r
