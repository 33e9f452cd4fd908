"""The Monte Carlo kernel: one pass of simulate.stacked_path_functionals.

This module owns how a pass runs: its job (a ScanJob), the per-path
generators (_StreamPool), the output slots (unscanned) and the lane scan
(scan_paths).  stacked_path_functionals builds the job, with a
ScanMeasure for each MeasureSpec, from the pass's one SimConfig and its
thresholds, and hands it to scan() here, or to driftgame._spread from
1024 paths up.  It imports this module on its first pass, so that
importing the CLI compiles none of it.

A pass may scan one path under several measures.  A path's noise comes
from its own substream whatever the measure, and the measures' log ratios
differ only in their drift, so the job holds once what they share: seed,
phi0, c_noise, the grid, z_hit, z_lo and stride; each ScanMeasure holds
its own c_drift, rate, weight_phi, z_pays and betas.  simulate works these
out from each measure, so the kernel knows no model.

scan_paths keeps a fixed set of LANES lanes.  A lane holds one path at a
time, with a row for each measure and its own count of steps done, and
every lane steps together in chunks of CHUNK_STEPS steps at most (one
stride if a stride is longer), each chunk one numpy call per operation
over every live row (or every live row of one measure).  A row starts
from its path's time-zero state, whose running maximum is z0 = log
phi0, so the scan treats no step, and no reflection, as a special case.
A row leaves at its stop, and when a path's last row has left, its lane
takes the next path, with its generator (the pool slot of the lane)
rekeyed to that path.  So chunks stay full until the paths run out, and
only the last chunks of a scan thin.  A path is drawn while it has a live row, so
a second measure adds rows to a chunk but not chunks to a path.  Every
sum is taken in step order, so the result is bit-identical to scanning
each path alone under each measure, for any lane count, chunk length and
helper split:

- a path's noise is drawn from its own substream a chunk at a time, which
  is the sequence one draw of the whole path gives;
- one draw of a path feeds the rows of every measure: a chunk draws each
  lane with a row once into one buffer and fills every row from it with
  one np.take, each row scales the same normals by the shared c_noise and
  adds its measure's drift, as a pass of that measure alone would, and
  the path's draws end within one chunk of its last measure's stop;
- a chunk is a whole number of strides long and runs past the horizon of
  no row, so every row reads the same columns of the chunk as its grid
  points, and a row's own step count enters only the integer step index
  of its stop and its discount, rate dt (k + column);
- the log ratio is z0 plus the running sum of the increments: a cumsum
  that carries the sum so far into the chunk's first element, with z0
  added after it, as simulate._levels forms the full grid's log level;
- a row's z_end is that log ratio at the grid point where it leaves (its
  stop, or the horizon's last grid point for a censored path);
- every reflection is max(M - z_b, 0) with M the running maximum of the
  log ratio from t = 0, z0 included: rounding a subtraction is monotone,
  so that is the running maximum of max(log ratio - z_b, 0) bit for bit,
  which starts with the jump max(z0 - z_b, 0) at t = 0;
- so a reflection is constant, bit for bit, between two steps where M
  grows, and a chunk prices every payoff barrier of a measure at once on
  those steps alone: a reflection's value before such a step is its value
  at M one step back, the log ratio at it is M itself, and each term takes
  the float operations that pricing every step would;
- a control sum, one per exponent beta of betas, is priced from the
  reflection R of the stop barrier, which a measure with betas prices as
  one of its payoff barriers: it starts from e^{beta R_0} - 1 (R jumps
  from 0 to R_0 at t = 0) and adds e^{rate t}(e^{beta (R_k - R_{k-1})} - 1)
  where R grows, times e^{-R_{k-1}} (the 1 - Gamma before the step) for
  a measure without the Phi weight; a measure without betas takes none
  of its operations;
- each measure's Stieltjes and control sums are the rows of one table,
  which unscanned starts at their time-zero values; each chunk prices
  both kinds of row on the steps where a reflection grows and adds every
  term to the table in place, one by one in step order, with one
  np.add.at;
- with a stride s the noise and the log ratio stay on the fine steps,
  and the maximum, reflection and stop read the columns of steps k with
  k % s == 0 alone, so every stride reads one path.

A pass whose every path stops at t = 0 (a start at or below the lower
threshold once reflected) is whole in the slots unscanned writes, so
scan_paths takes no path of it.  Each path lands in its own slot, so a
pass's paths may be scanned anywhere, in any order, into one set of
slots, by several scans at once.
"""

from __future__ import annotations

import math
import threading
from typing import NamedTuple

import numpy as np

from .simulate import ROLE_PATH_NOISE, PathFunctionals

LANES = 192         # paths scanned together
CHUNK_STEPS = 192   # steps of a chunk at most, unless one stride is longer


class ScanMeasure(NamedTuple):
    """What one measure adds to its pass's job: its drift and what it prices."""

    c_drift: float       # log-ratio drift per step
    rate: float          # discount rate
    weight_phi: bool
    z_pays: tuple        # logs of the payoff barriers
    betas: tuple = ()    # exponents of the control sums


class ScanJob(NamedTuple):
    """Everything a scan of some of a pass's paths needs: what every
    measure of the pass shares, once, and a ScanMeasure per measure.

    NamedTuples, not dataclasses: a dataclass of this size costs about
    2 ms to define.
    """

    seed: int
    phi0: float
    c_noise: float       # log-ratio noise scale per step
    k_max: int           # steps to the horizon
    dt: float
    z_hit: float         # log of the reflection barrier that times the stop
    z_lo: float          # log of the absorbing lower threshold
    measures: tuple      # a ScanMeasure per measure, in the pass's order
    stride: int = 1      # the stop is tested on steps k with k % stride == 0


def _stops_at_zero(job: ScanJob) -> bool:
    """Whether every path of job's pass stops at t = 0: its start, reflected
    at the hit barrier, is at or below the lower threshold."""
    z0 = math.log(job.phi0)
    return z0 - max(0.0, z0 - job.z_hit) <= job.z_lo


def unscanned(job: ScanJob, n: int, alloc=bytearray) -> tuple:
    """Slots for paths 0..n-1 of job's pass, a PathFunctionals per measure,
    ready for scan_paths: every path at its time-zero state, r_pay_end
    each payoff barrier's reflection at t = 0, every sum its time-zero
    term, and tau and z_end NaN, or 0 and z0 where every path stops at
    t = 0.  Each measure's fields are views of one buffer of alloc(size in
    bytes): the heap by default, or for example a shared mapping that a
    forked process writes in place."""
    z0 = math.log(job.phi0)
    # every path starts from the same state, including Gamma's jump at t = 0
    r_hit0 = max(0.0, z0 - job.z_hit)
    stop0 = (0.0, z0) if _stops_at_zero(job) else (np.nan, np.nan)
    outs = []
    for one in job.measures:
        n_pays, n_controls = len(one.z_pays), len(one.betas)
        # tau, z_end, then r_pay_end, stieltjes, control_sums
        rows = 2 + 2 * n_pays + n_controls
        floats = np.ndarray((rows, n), np.float64, alloc(rows * n * 8))
        floats[:2] = np.array(stop0)[:, None]
        r_pay0 = [max(0.0, z0 - zp) for zp in one.z_pays]
        sti0 = [(job.phi0 if one.weight_phi else 1.0) * -math.expm1(-r) for r in r_pay0]
        floats[2:2 + 2 * n_pays] = np.array(r_pay0 + sti0)[:, None]
        # a control sum's time-zero term: R jumps from 0 to r_hit0
        with np.errstate(over="ignore"):
            floats[2 + 2 * n_pays:] = np.expm1(np.multiply(one.betas, r_hit0))[:, None]
        outs.append(PathFunctionals(tau=floats[0],
                                    r_pay_end=floats[2:2 + n_pays],
                                    stieltjes=floats[2 + n_pays:2 + 2 * n_pays],
                                    z_end=floats[1],
                                    control_sums=floats[2 + 2 * n_pays:]))
    return tuple(outs)


def _sum_table(out: PathFunctionals) -> np.ndarray:
    """The Stieltjes rows, then the control rows, of slots from unscanned,
    as one flat view at key row * n + slot: they are the last rows of its
    one buffer, so a chunk adds to them in place."""
    floats = out.tau.base   # unscanned's (rows, n) array
    return floats[2 + len(out.r_pay_end):].reshape(-1)


def scan(job: ScanJob, n: int) -> tuple:
    """Paths 0..n-1 of a pass, scanned in this process under each measure
    of its job: slots from unscanned, one per measure."""
    outs = unscanned(job, n)
    scan_paths(job, outs, range(n))
    return outs


def _chunk_steps(job: ScanJob) -> int:
    """Steps of job's chunks: whole strides, CHUNK_STEPS at most unless one
    stride is longer."""
    return job.stride * max(1, CHUNK_STEPS // job.stride)


def scan_paths(job: ScanJob, outs: tuple, paths) -> None:
    """Scan each path of paths, an iterable of path indices, into its slot
    of outs, path p into slot p: job is the ScanJob of a pass and outs its
    slots from unscanned, one per measure of the job.  A path is taken
    from paths only when a lane is free for it.  Any order of the
    measures gives the same bits.

    Lane j of measure i is row i * lanes + j of the row arrays; the live
    rows, in that order, are the rows of a chunk, so bounds[i]:bounds[i +
    1] are those of job.measures[i].  Each chunk draws the noise of every
    lane with a live row once, into a buffer, and copies it into every
    row.  A path is drawn until its last row has stopped; a pass whose
    every path stops at t = 0 takes none, as unscanned has written it."""
    if not 0 <= job.seed < 2**64:
        raise ValueError(f"seed={job.seed} outside [0, 2^64)")
    if _stops_at_zero(job):
        return
    z0 = math.log(job.phi0)
    z_hit, z_lo = job.z_hit, job.z_lo
    c_noise, dt, stride = job.c_noise, job.dt, job.stride
    k_max = job.k_max - job.k_max % stride   # the horizon's last grid point
    lanes, steps = LANES, _chunk_steps(job)
    scratch = scan_scratch(job)
    paths = iter(paths)
    n, n_measures = outs[0].n_paths, len(job.measures)
    live = np.zeros(n_measures * lanes, dtype=bool)   # rows whose path has not left them
    carry = np.empty(n_measures * lanes)   # running sum of a row's increments
    top = np.empty(n_measures * lanes)     # running maximum of a row's log ratio
    lane_path = np.full(lanes, -1)         # the path a lane holds; -1: none
    lane_k = np.zeros(lanes, dtype=np.intp)   # steps its path has done
    lane_gens = [None] * lanes
    cuts = [i * lanes for i in range(1, n_measures)]
    # each measure's sum table: its Stieltjes rows, then its control rows,
    # flat at key row * n + slot; a measure with betas prices its stop
    # barrier, row stop_row of its z_pays
    parts = []
    for one, out in zip(job.measures, outs):
        table = _sum_table(out)
        parts.append((one, out, np.array(one.z_pays)[:, None],
                      np.arange(table.size // n)[:, None] * n, table,
                      one.z_pays.index(z_hit) if one.betas else None,
                      -np.array(one.betas)[:, None]))
    free, more = np.arange(lanes), True   # lanes without a path; paths left
    while True:
        if free.size and more:
            filled, taken = [], []
            for lane in free.tolist():
                path = next(paths, None)
                if path is None:
                    more = False
                    break
                lane_gens[lane] = scratch.pool.reset(job.seed, path, ROLE_PATH_NOISE, lane)
                filled.append(lane)
                taken.append(path)
            if filled:
                lane_path[filled] = taken
                lane_k[filled] = 0
                for array, value in ((live, True), (carry, 0.0), (top, z0)):
                    array.reshape(n_measures, lanes)[:, filled] = value
        rows = live.nonzero()[0]
        if not rows.size:
            return
        lane = rows % lanes
        active = (lane_path >= 0).nonzero()[0]   # the lanes a chunk draws
        if active.size == lanes:
            copies, gens = lane, lane_gens
        else:
            at = np.empty(lanes, dtype=np.intp)
            at[active] = np.arange(active.size)
            copies, gens = at[lane], [lane_gens[j] for j in active.tolist()]
        bounds = [0, *np.searchsorted(rows, cuts).tolist(), rows.size]
        k_row = lane_k[lane]
        oldest = int(k_row.max())
        n_rows = rows.size
        m = min(steps, k_max - oldest)
        zb = scratch.floats[0][:n_rows * m].reshape(n_rows, m)
        drawn = scratch.floats[2][:active.size * m].reshape(active.size, m)
        for gen, row in zip(gens, drawn):
            gen.standard_normal(out=row)
        drawn *= c_noise
        np.take(drawn, copies, axis=0, out=zb, mode="clip")
        for one, a, b in zip(job.measures, bounds, bounds[1:]):
            zb[a:b] += one.c_drift
        zb[:, 0] += carry[rows]
        np.cumsum(zb, axis=1, out=zb)
        carry[rows] = zb[:, -1]
        zb += z0
        # the grid keeps the fine steps k with k % stride == 0: the chunk
        # starts on one, so its columns stride - 1, 2 stride - 1, ...
        zg = zb[:, stride - 1::stride]
        mg = zg.shape[1]
        # mxb: top, then the running maximum at each grid point (mx)
        mxb = scratch.floats[1][:n_rows * (mg + 1)].reshape(n_rows, mg + 1)
        mxb[:, 0] = top[rows]
        mxb[:, 1:] = zg
        # fmax: the same bits as maximum, faster; the log ratio is never NaN
        np.fmax.accumulate(mxb, axis=1, out=mxb)
        mx = mxb[:, 1:]
        zr = scratch.floats[2][:n_rows * mg].reshape(n_rows, mg)
        hit = scratch.hit[:n_rows * mg].reshape(n_rows, mg)
        # zr: the log of the ratio reflected at the hit barrier
        np.subtract(mx, z_hit, out=zr)
        np.maximum(zr, 0.0, out=zr)
        np.subtract(zg, zr, out=zr)
        np.less_equal(zr, z_lo, out=hit)
        stops = hit.any(axis=1)
        stop = stops.nonzero()[0]
        end = np.full(n_rows, mg)          # grid points of the chunk each row takes
        end[stop] = hit[stop].argmax(axis=1) + 1
        # a row leaves at its stop; a row at the horizon leaves too,
        # censored if it has not stopped
        leave = stop if oldest + m < k_max else (stops | (k_row == oldest)).nonzero()[0]
        slot = lane_path[lane]
        if leave.size:
            tau = (k_row[stop] + end[stop] * stride) * dt
            last = end[leave] - 1
            z_end = zg[leave, last]
            top_end = mx[leave, last]
            stopped, gone = slot[stop], slot[leave]
        stop_cuts = _cuts(stop, bounds)
        leave_cuts = _cuts(leave, bounds) if leave is not stop else stop_cuts
        for (one, out, z_col, keys, table, stop_row, neg_betas
             ), a, b, s_a, s_b, l_a, l_b in zip(
                parts, bounds, bounds[1:], stop_cuts, stop_cuts[1:],
                leave_cuts, leave_cuts[1:]):
            # payoff barriers come with stride 1: grid points are steps
            if one.z_pays and a < b:
                # Gamma moves only where a reflection max(M - z_b, 0)
                # grows, so only on steps up to the row's stop where the
                # running maximum M grows: p, their flat positions in
                # the measure's rows of mxb.  The log ratio there is M,
                # and M one step back (top, for the chunk's first step)
                # gives each reflection before it.
                flat = mxb[a:b].reshape(-1)
                new = scratch.hit[:flat.size]   # new[i]: M grows at i + 1
                np.greater(flat[1:], flat[:-1], out=new[:-1])
                new[mg::mg + 1] = False   # a row's top is no step
                stop_rows = stop[s_a:s_b]
                if stop_rows.size:   # no step past a row's stop
                    new.reshape(b - a, mg + 1)[stop_rows - a] &= \
                        np.arange(mg + 1) < end[stop_rows][:, None]
                p = new.nonzero()[0] + 1
                row, col = np.divmod(p, mg + 1)
                m_new = flat[p]
                rp = m_new - z_col             # (barrier, step)
                rp_prev = flat[p - 1] - z_col
                np.maximum(rp, 0.0, out=rp)
                np.maximum(rp_prev, 0.0, out=rp_prev)
                grows = rp > rp_prev
                fall = np.subtract(rp_prev, rp, out=rp)
                rate_t = one.rate * dt * (k_row[a:b][row] + col)
                # where R grows: e^{rate t}[Phi](e^{-R_{k-1}} - e^{-R_k}),
                # in a form that neither cancels nor overflows
                lw = np.subtract(rate_t, rp_prev, out=rp_prev)
                if one.weight_phi:
                    lw += m_new
                row_slot = slot[a:b][row]
                key = (keys[:len(z_col)] + row_slot)[grows]
                term = np.exp(lw[grows]) * -np.expm1(fall[grows])
                if stop_row is not None:
                    # where the stop barrier's R grows, each control row
                    # adds e^{rate t}[e^{-R_{k-1}}](e^{-beta fall} - 1): the
                    # log weight is rate t, less R_{k-1} without the Phi
                    # weight; a sum that overflows is inf, which the
                    # estimator drops
                    up = grows[stop_row].nonzero()[0]
                    with np.errstate(over="ignore"):
                        ctl = np.expm1(neg_betas * fall[stop_row, up]) * np.exp(
                            rate_t[up] if one.weight_phi else lw[stop_row, up])
                    key = np.concatenate((key, (keys[len(z_col):] + row_slot[up]).reshape(-1)))
                    term = np.concatenate((term, ctl.reshape(-1)))
                # added to each key in step order; flat keys, as np.add.at
                # takes a 2-d index about 6x slower
                np.add.at(table, key, term)
            if l_a < l_b:
                out.tau[stopped[s_a:s_b]] = tau[s_a:s_b]
                out.z_end[gone[l_a:l_b]] = z_end[l_a:l_b]
                if one.z_pays:
                    out.r_pay_end[:, gone[l_a:l_b]] = np.maximum(
                        top_end[l_a:l_b] - z_col, 0.0)
        top[rows] = mx[:, -1]
        lane_k[active] += m
        live[rows[leave]] = False
        if leave.size:   # a lane is free once its path's last row has left
            busy = live.reshape(n_measures, lanes).any(axis=0)
            free = (~busy & (lane_path >= 0)).nonzero()[0]
            lane_path[free] = -1
        else:
            free = leave


def _cuts(rows: np.ndarray, bounds: list) -> list:
    """For rows, sorted row indices, where each measure's (bounds[i] up to
    bounds[i + 1]) begin and end in it."""
    if len(bounds) == 2:
        return [0, rows.size]
    return [0, *np.searchsorted(rows, bounds[1:-1]).tolist(), rows.size]


class _StreamPool:
    """Reusable generators, each rekeyed per (path, role) substream.

    Produces streams bit-identical to simulate.substream while skipping
    the per-construction entropy gathering, which dominates tight path
    loops.  Slot i holds one stream at a time; a slot is made on its first
    use.  A rekey sets a fresh generator's state (counter zero, buffer
    spent) with the new key from one dict of Python lists: the Philox
    state setter only reads it, and reads list items about twice as fast
    as numpy array items.  Not thread safe.
    """

    def __init__(self):
        self._bgs: list[np.random.Philox] = []
        self._gens: list[np.random.Generator] = []
        fresh = np.random.Philox(key=0).state
        self._state = {**fresh,
                       "state": {name: value.tolist()
                                 for name, value in fresh["state"].items()},
                       "buffer": fresh["buffer"].tolist()}
        self._key = self._state["state"]["key"]

    def reset(self, seed: int, path_index: int, role: int,
              slot: int) -> np.random.Generator:
        """Slot's generator, rekeyed to (seed, path_index, role); seed must
        lie in [0, 2^64), which the caller checks."""
        while slot >= len(self._bgs):
            self._bgs.append(np.random.Philox(key=0))
            self._gens.append(np.random.Generator(self._bgs[-1]))
        self._key[0] = (path_index << 2) | role
        self._key[1] = seed
        self._bgs[slot].state = self._state
        return self._gens[slot]


class _ScanScratch:
    """Buffers and generators of scan_paths, reused across calls: three
    float buffers and one bool buffer of `cells` cells (a chunk's rows x
    (steps + 1) at most), and a generator for each lane."""

    def __init__(self, cells: int):
        self.floats = tuple(np.empty(cells) for _ in range(3))
        self.hit = np.empty(cells, dtype=bool)
        self.pool = _StreamPool()


_per_thread = threading.local()


def scan_scratch(job: ScanJob) -> _ScanScratch:
    """This thread's scratch for job's chunks (a row per measure and lane, of
    one grid point more than its steps), made on its first scan and again
    when a pass needs more cells than it has.  No result depends on what an
    earlier scan left in it: each lane rekeys its generator for each path,
    and each chunk writes its buffers before reading them."""
    cells = len(job.measures) * LANES * (_chunk_steps(job) + 1)
    scratch = getattr(_per_thread, "scratch", None)
    if scratch is None or scratch.hit.size < cells:
        scratch = _per_thread.scratch = _ScanScratch(cells)
    return scratch
