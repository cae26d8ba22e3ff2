"""The transformed runs of a sweep stepped together, as numpy lanes.

dde.classify_dynamics hands every run of a grid here once the grid has
dde.LANES_FROM of them. lane_runs follows integrate_transformed's step loop
for every run at once: each lane keeps its own t, h and accept or reject,
so it takes the steps its run_perturbed run takes, and the lanes share one
round of numpy calls per try. The transformed delay is exactly one eta
unit, so the five lookup times of a try are known before it starts, and one
batched history lookup serves all its stages.

A lane keeps no whole history: only the segments its lookups can still
reach, and r at the sample times the run's label reads. A lane that does
not complete (its run would stop early or raise) is left to run_perturbed.

Only dde loads numpy when it is imported (the package's import boundary):
the functions here import numpy, and dde's Dormand-Prince tableau, when
they run.
"""

import math

from .model import DENOMINATOR_FLOOR, transformed_slopes
from .nonlinearity import HillRepressor, LinearMap

# Places in a lane's ring of segments (its last delay unit and the current
# step), and rows of the pool they share per lane: right after the kick a
# unit may take about a hundred steps, and once the first samples are due
# a few.
_RING_EARLY, _POOL_EARLY = 128, 64
_RING, _POOL_SPARE = 32, 4
_WINDOW = 8         # ring places a lookup compares at a time
_FLUSH_ROUNDS = 4   # rounds of accepted segments between two sample writes
_ARRAY_MAPS = (HillRepressor, LinearMap)    # feedback maps that take arrays


class _LaneParams:
    """ModelParams' fields over lanes, for transformed_slopes: a float where
    every lane has the same value, else an array."""

    __slots__ = ("mu_m", "mu_p", "c", "eps", "nonlinearity")

    def __init__(self, numbers, nonlinearity):
        self.mu_m, self.mu_p, self.c, self.eps = (
            float(v[0]) if (v == v[0]).all() else v for v in numbers)
        self.nonlinearity = nonlinearity


def _map_key(m):
    return type(m), tuple(sorted(vars(m).items()))


def lane_runs(runs, rtol, atol=1e-8, n_samples=2048):
    """run_perturbed(params, eq, kick_scale, eta_end, rtol, atol, n_samples)
    for every (params, eq, kick_scale, eta_end) of runs, stepped together.

    Per run, a completed lane gives (t, r, steps_accepted, steps_rejected):
    its sample times from the transient cut of measure_oscillation on, r
    there, and its step counts. A run that did not complete as a lane gives
    None. Runs whose feedback maps are equal share one lane loop; runs whose
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
            done = _step_lanes([runs[i] for i in members], rtol, atol, n_samples)
            for i, lane in zip(members, done):
                out[i] = lane
    return out


def _tableau():
    """The Dormand-Prince rows the lanes take as arrays: the five distinct
    stage times of a try as fractions of h (stages 6 and 7 share t + h),
    the stage rows a21..a65, and the rows b, e and P over the stage slopes
    k1..k7 (zero entries kept)."""
    import numpy as np

    from .dde import (_A21, _A31, _A32, _A41, _A42, _A43, _A51, _A52, _A53, _A54,
                      _A61, _A62, _A63, _A64, _A65, _B1, _B3, _B4, _B5, _B6, _C2,
                      _C3, _C4, _C5, _E1, _E3, _E4, _E5, _E6, _E7, _P11, _P12, _P13,
                      _P31, _P32, _P33, _P41, _P42, _P43, _P51, _P52, _P53, _P61,
                      _P62, _P63, _P71, _P72, _P73)
    return (np.array([[_C2], [_C3], [_C4], [_C5], [1.0]]),
            [np.array(row) for row in ([_A21], [_A31, _A32], [_A41, _A42, _A43],
                                       [_A51, _A52, _A53, _A54],
                                       [_A61, _A62, _A63, _A64, _A65])],
            np.array([_B1, 0.0, _B3, _B4, _B5, _B6]),
            np.array([_E1, 0.0, _E3, _E4, _E5, _E6, _E7]),
            np.array([[_P11, 0.0, _P31, _P41, _P51, _P61, _P71],
                      [_P12, 0.0, _P32, _P42, _P52, _P62, _P72],
                      [_P13, 0.0, _P33, _P43, _P53, _P63, _P73]]))


class _SegmentRings:
    """The segments each lane's lookups can still reach, in one pool.

    A pool row is a segment as History packs it. Each lane has a ring of
    pool rows in time order, from head on for count places, with the
    segments' end times beside them and +inf at a free place. Freed rows go
    on a stack and are used again, so the pool never grows: a lane whose
    ring is full or that finds no free row is refused.
    """

    def __init__(self, n, cap, size, buf):
        """Rings of cap places for n lanes and a pool of size rows, all held
        in the float buffer buf."""
        import numpy as np

        self.cap = cap
        self.pool = buf[:12 * size].reshape(12, size)
        self.free, self.n_free = np.arange(size), size
        self.end = buf[12 * size:12 * size + n * cap].reshape(n, cap)
        self.end[:] = math.inf
        self.ring = buf[12 * size + n * cap:12 * size + 2 * n * cap].view(np.int64).reshape(n, cap)
        self.ring[:] = 0
        self.head = np.zeros(n, dtype=int)
        self.count = np.zeros(n, dtype=int)
        self.first_place = np.arange(n) * cap
        self.window = np.arange(_WINDOW)

    def lookup(self, at):
        """The rows (12, *at.shape) of the segments the lanes' times at
        (..., lanes) fall in: the first that ends at or after the time, else
        the last, as History.eval picks them.

        A try's times lie a few segments from the head of the ring, so the
        search counts the ends below each time a window at a time, from the
        head on, while some window is all below.
        """
        import numpy as np

        below = 0
        for start in range(0, self.cap, _WINDOW):
            window = self.first_place[:, None] + (
                self.head[:, None] + start + self.window) % self.cap
            counted = np.where(np.take(self.end, window) < at[..., None], 1, 0).sum(-1)
            below = below + counted
            if counted.max() < _WINDOW:
                break
        place = self.first_place + (self.head + np.minimum(below, self.count - 1)) % self.cap
        return np.take(self.pool, np.take(self.ring, place), axis=1)

    def _release(self, rows):
        self.free[self.n_free:self.n_free + len(rows)] = rows
        self.n_free += len(rows)

    def drop(self, before):
        """Free every lane's segments that end before its time in before."""
        import numpy as np

        old = self.end < before[:, None]
        self._release(self.ring[old])
        self.end[old] = math.inf
        n_old = np.where(old, 1, 0).sum(1)
        self.head = (self.head + n_old) % self.cap
        self.count -= n_old

    def push(self, w, rows, ends):
        """Store rows as the newest segments of the lanes w, ending at ends;
        return the lanes that found room."""
        import numpy as np

        pos = (self.head[w] + self.count[w]) % self.cap
        # the next place is free (+inf) unless the ring is full
        room = np.flatnonzero(~np.isfinite(self.end[w, pos]))[:self.n_free]
        w, ends, pos = w[room], ends[room], pos[room]
        taken = self.free[self.n_free - len(w):self.n_free]
        self.n_free -= len(w)
        self.pool[:, taken] = rows[:, room]
        self.ring[w, pos] = taken
        self.end[w, pos] = ends
        self.count[w] += 1
        return w

    def keep(self, keep):
        """Keep the lanes keep, in that order, and free the others' rows."""
        import numpy as np

        gone = np.ones(len(self.count), dtype=bool)
        gone[keep] = False
        self._release(self.ring[gone][np.isfinite(self.end[gone])])
        self.ring, self.end, self.head, self.count = (
            a[keep] for a in (self.ring, self.end, self.head, self.count))
        self.first_place = np.arange(len(keep)) * self.cap

    def shrink(self, cap, spare):
        """Repack, out of the buffer, into rings of cap places and a pool of
        the live rows plus spare free ones; return the lanes that fit."""
        import numpy as np

        n = len(self.count)
        lanes = np.arange(n)[:, None]
        pos = (self.head[:, None] + np.arange(cap + 1)) % self.cap
        end = self.end[lanes, pos]              # +inf past a lane's count
        fits = ~np.isfinite(end[:, cap])
        end = np.ascontiguousarray(end[:, :cap])
        pos = pos[:, :cap]
        live = np.isfinite(end)
        rows = self.ring[lanes, pos][live]
        pool = np.empty((12, len(rows) + spare))
        pool[:, :len(rows)] = self.pool[:, rows]
        ring = np.zeros((n, cap), dtype=int)
        ring[live] = np.arange(len(rows))
        self.pool, self.ring, self.end, self.cap = pool, ring, end, cap
        self.free = np.arange(len(rows) + spare)[::-1].copy()     # stack: top at the end
        self.n_free = spare
        self.head = np.zeros(n, dtype=int)
        self.first_place = np.arange(n) * cap
        return fits


def _step_lanes(runs, rtol, atol, n_samples):
    """The step loop of integrate_transformed over lanes, one per run.

    Each round makes one try of every live lane. A lane keeps only the
    segments its lookups can still reach, those of its last delay unit and
    the current step (_SegmentRings). Once the first lane nears its samples
    the rings and their pool shrink, to make room for the samples: r at the
    sample times from the transient cut of measure_oscillation on,
    evaluated every _FLUSH_ROUNDS rounds on the segments accepted since.

    A lane ends, and is dropped, when it completes or when its scalar run
    would stop early or raise: a denominator at the floor, a nonfinite
    value, a stalled step or the step budget; also when it finds no room
    for a segment.
    """
    import numpy as np

    from .dde import _MAX_FACTOR, _MAX_STEPS, _MIN_FACTOR, _SAFETY

    c_try, a_rows, b_row, e_row, p_rows = _tableau()
    n = len(runs)
    nl = runs[0][0].nonlinearity
    lane_ids = np.arange(n)
    numbers = np.array([[p.mu_m, p.mu_p, p.c, p.eps] for p, _, _, _ in runs]).T
    base = np.array([eq.state for _, eq, _, _ in runs]).T
    kick = np.array([k * eq.state for _, eq, k, _ in runs]).T
    t_end = np.array([float(e) for _, _, _, e in runs])
    t_stop = t_end - 1e-12 * np.maximum(1.0, t_end)
    stall_at = 1e-12 * max(1.0, t_end.max())    # no step is stalled above this
    # one sample grid per distinct end, as run_perturbed makes them
    ends_of = sorted(set(t_end.tolist()))
    grids = np.array([np.linspace(0.0, e, n_samples) for e in ends_of])
    gid = np.searchsorted(ends_of, t_end)
    first = np.array([np.searchsorted(grid, 0.5 * grid[-1]) for grid in grids])[gid]
    cut = grids[gid, first]                   # time of a lane's first sample
    samples, srow, pending, completed = None, lane_ids, [], []
    accepted = np.zeros(n, dtype=int)       # a live lane makes one try a round
    # the early rings and then the samples take turns in one buffer: the
    # rings move out before the first sample is written
    width = n_samples - first.min()
    buf = np.empty(max(12 * _POOL_EARLY * n + 2 * _RING_EARLY * n, n * width))
    rings = _SegmentRings(n, _RING_EARLY, _POOL_EARLY * n, buf)
    next_break, breaks_left = np.ones(n), True    # the next of eta = 1, 2, 3

    def capped(t, h):
        # cap_h of integrate_transformed, for the lanes that step from t
        nonlocal next_break, breaks_left
        h = np.minimum(h, 1.0)
        if breaks_left:
            while True:
                passed = t >= next_break - 1e-9
                if not passed.any():
                    break
                next_break = np.where(passed, np.where(next_break < 3.0, next_break + 1.0,
                                                       math.inf), next_break)
            h = np.where(t + h > next_break, next_break - t, h)
            breaks_left = next_break.min() < math.inf
        return h

    lp = _LaneParams(numbers, nl)
    t = np.zeros(n)
    x = base + kick * 0.0
    start = base + kick * np.sin(np.pi * -1.0) ** 2       # the data at eta = -1
    f1x, f1y, d = transformed_slopes(x[0], x[1], nl.f.value(start[1]), nl.g.value(start[0]),
                                     lp)
    f1 = np.array([f1x, f1y])
    alive = np.isfinite(f1).all(0) & (d > DENOMINATOR_FLOOR)
    h = capped(t, np.minimum(np.minimum(0.1, t_end), t_end - t))
    initial = True              # some lookup may still reach the initial data
    rounds = 0
    while True:
        if samples is None and (cut <= t + 1.5).any():
            # the first samples are due, and the short steps after the kick
            # are behind every lane
            alive &= rings.shrink(_RING, _POOL_SPARE * n)
            samples = buf[:n * width].reshape(n, width)
            srow = np.arange(n)
        if not alive.all():
            keep = np.flatnonzero(alive)
            (lane_ids, srow, numbers, base, kick, t_end, t_stop, gid, first, cut,
             accepted, next_break, t, h, x, f1) = (
                a[..., keep] for a in (
                    lane_ids, srow, numbers, base, kick, t_end, t_stop, gid, first, cut,
                    accepted, next_break, t, h, x, f1))
            rings.keep(keep)
            n = len(keep)
            if not n:
                break
            lp = _LaneParams(numbers, nl)
        rounds += 1
        if rounds > _MAX_STEPS:
            break

        # one lookup for the try's five delayed times t + c h - 1
        lag = (t + c_try * h) - 1.0
        seg = rings.lookup(lag)
        u = (lag - seg[0]) / seg[1]
        delayed = seg[2:4] + (seg[1] * u) * (seg[4:6] + u * (
            seg[6:8] + u * (seg[8:10] + u * seg[10:12])))
        if initial:
            early = lag <= 0.0
            bump = np.sin(np.pi * np.maximum(lag, -1.0)) ** 2
            delayed = np.where(early, base[:, None] + kick[:, None] * bump, delayed)
            initial = t.min() <= 1.0

        # the feedback at all five delayed times at once: f(xi), g(r)
        f_delayed, g_delayed = nl.f.value(delayed[1]), nl.g.value(delayed[0])
        k = np.empty((7, 2, n))
        k[0] = f1
        kf = k.reshape(7, 2 * n)
        stage = x + h * (a_rows[0][0] * f1)
        k[1, 0], k[1, 1], d_min = transformed_slopes(stage[0], stage[1], f_delayed[0],
                                                     g_delayed[0], lp)
        for s, a_row in enumerate(a_rows[1:], start=2):
            stage = x + h * np.dot(a_row, kf[:s]).reshape(2, n)
            k[s, 0], k[s, 1], d = transformed_slopes(stage[0], stage[1], f_delayed[s - 1],
                                                     g_delayed[s - 1], lp)
            np.minimum(d_min, d, out=d_min)
        x_new = x + h * np.dot(b_row, kf[:6]).reshape(2, n)
        k[6, 0], k[6, 1], d = transformed_slopes(x_new[0], x_new[1], f_delayed[4],
                                                 g_delayed[4], lp)
        np.minimum(d_min, d, out=d_min)
        e = h * np.dot(e_row, kf).reshape(2, n)
        e /= atol + rtol * np.maximum(np.abs(x), np.abs(x_new))
        err = np.sqrt((e[0] * e[0] + e[1] * e[1]) / 2)

        ok = np.isfinite(err) & (d_min > DENOMINATOR_FLOOR)
        if h.min() <= stall_at:
            ok &= h > 1e-12 * np.maximum(1.0, t)
        acc = ok & (err <= 1.0)
        # min(MAX, grow) after an accept (err <= 1), max(MIN, grow) after a reject
        h_next = h * np.clip(_SAFETY * err ** -0.2, _MIN_FACTOR, _MAX_FACTOR)
        t_new = t + h

        # store the accepted steps, first dropping the segments no later
        # lookup reaches: those that end before t_new - 1
        rings.drop(np.where(acc, t_new - 1.0, -math.inf))
        w = np.flatnonzero(acc)
        # one vector product per row of P: a matrix product would page in
        # OpenBLAS's gemm kernels, another 0.2 MB of resident code
        new = np.concatenate([t[None], h[None], x, f1] + [
            np.dot(p_row, kf).reshape(2, n) for p_row in p_rows])
        stored = rings.push(w, new[:, w], t_new[w])
        if len(stored) < len(w):
            acc[w] = ok[w] = False
            acc[stored] = ok[stored] = True
        accepted += np.where(acc, 1, 0)
        done = acc & (t_new >= t_stop)
        if samples is not None:
            pending.append((new, acc & (t_new >= cut), done, srow, gid, first))
            if len(pending) == _FLUSH_ROUNDS:
                _write_samples(samples, pending, grids)
                pending = []
        if done.any():
            completed += zip(lane_ids[done], srow[done], gid[done], first[done],
                             accepted[done], rounds - accepted[done])
        alive = ok & ~done

        t = np.where(acc, t_new, t)
        x = np.where(acc, x_new, x)
        f1 = np.where(acc, k[6], f1)
        h = np.where(acc, capped(t, np.minimum(h_next, t_end - t)), h_next)

    if pending:
        _write_samples(samples, pending, grids)
    result: list = [None] * len(runs)
    for lane, row, g, j, acc_n, rej_n in completed:
        result[lane] = (grids[g, j:], samples[row, :n_samples - j], int(acc_n), int(rej_n))
    return result


def _write_samples(samples, pending, grids):
    """r at the sample times on the segments accepted over some rounds, as
    History.eval_many evaluates it: a sample time s > the start of a
    segment and <= its end goes to that segment, and the last segment of a
    completed lane also takes those within the frontier's tolerance."""
    import numpy as np

    seg, take, done, srow, gid, first = (np.concatenate(part, axis=-1)
                                         for part in zip(*pending))
    take = np.flatnonzero(take)
    if not len(take):
        return
    seg, done, srow, gid, first = seg[:, take], done[take], srow[take], gid[take], first[take]
    end = seg[0] + seg[1]
    limit = end + np.where(done, 1e-10 * np.maximum(1.0, end), 0.0)
    lo, hi = np.empty(len(take), dtype=int), np.empty(len(take), dtype=int)
    grid_end = grids[gid, -1]
    for grid in grids:
        on = grid_end == grid[-1]
        lo[on] = np.searchsorted(grid, seg[0, on], "right")
        hi[on] = np.searchsorted(grid, limit[on], "right")
    lo = np.maximum(lo, first)
    # the times decide what is due (integer comparisons would page in more
    # of numpy); indices past the grid repeat its last sample
    j = np.minimum(lo[:, None] + np.arange(max(1, (hi - lo).max())), grids.shape[1] - 1)
    at = grids[gid[:, None], j]
    due = (at > seg[0, :, None]) & (at <= limit[:, None])
    seg = seg[:, :, None]
    u = (at - seg[0]) / seg[1]
    r = seg[2] + (seg[1] * u) * (seg[4] + u * (seg[6] + u * (seg[8] + u * seg[10])))
    lane, col = np.nonzero(due)
    samples[srow[lane], j[lane, col] - first[lane]] = r[lane, col]
