"""The Monte Carlo kernel: one pass of simulate.stacked_path_functionals.

This module owns how a pass runs: its job (a ScanJob), the per-path
generators (_StreamPool), the output slots (unscanned) and the batched
scan (scan_paths).  stacked_path_functionals builds the job, with a
ScanMeasure for each MeasureSpec, from the pass's one SimConfig and its
thresholds, and hands it to scan() here, or to driftgame._spread from
1024 paths up.  It imports this module on its first pass, so that
importing the CLI compiles none of it.

A pass may scan one path under several measures.  A path's noise comes
from its own substream whatever the measure, and the measures' log ratios
differ only in their drift, so the job holds once what they share: seed,
phi0, c_noise, the grid, z_hit, z_lo and stride; each ScanMeasure holds
its own c_drift, rate, weight_phi, z_pays and betas.  simulate works these
out from each measure, so the kernel knows no model.  A batch holds a row
for each (measure, path).

scan_paths steps batches of BATCH_PATHS paths, one row per measure and
path, together through the whole horizon in chunks of min(steps left,
CHUNK_CELLS // drawn paths) steps (96 for a full batch), each chunk one
numpy call per operation over every live row (or every live row of one
measure), and a row leaves the batch at its stop.  A path is drawn while
it has a live row, so a second measure adds rows to a chunk but not
chunks to a path.  Every sum is taken in step order, so the result is
bit-identical to scanning each path alone under each measure, for any
batch size, chunk length and helper split:

- a path's noise is drawn from its own substream a chunk at a time, which
  is the sequence one draw of the whole path gives;
- one draw of a path feeds the rows of every measure: a chunk draws each
  path with a row once into one buffer and fills every row from it with
  one np.take, each row scales the same normals by the shared c_noise and
  adds its measure's drift, as a pass of that measure alone would, and
  the path's draws end within one chunk of its last measure's stop;
- the log ratio is z0 plus the running sum of the increments: a cumsum
  that carries the sum so far into the chunk's first element, with z0
  added after it, as simulate._levels forms the full grid's log level;
- a row's z_end is that log ratio at the grid point where it leaves (its
  stop, or the horizon's last grid point for a censored path), and z0
  when every path stops at t = 0;
- every reflection is max(M - z_b, r0) with M the running maximum of the
  log ratio: rounding a subtraction is monotone, so that is the running
  maximum of max(log ratio - z_b, r0) bit for bit;
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
  which starts from their time-zero values; each chunk prices both kinds
  of row on the steps where a reflection grows and adds every term to
  the table one by one in step order, with one np.add.at;
- with a stride s the noise and the log ratio stay on the fine steps,
  and the maximum, reflection and stop read the columns of steps k with
  k % s == 0 alone, so every stride reads one path and a chunk that holds
  no such step only carries the log ratio forward.

Each path lands in its own slot, so ranges of a pass's paths may be
scanned anywhere, in any order, into views of one set of slots (slots()).
"""

from __future__ import annotations

import dataclasses
import math
import threading
from typing import NamedTuple

import numpy as np

from .simulate import ROLE_PATH_NOISE, PathFunctionals

BATCH_PATHS = 256     # paths scanned together
CHUNK_CELLS = 24576   # drawn paths x steps of a chunk at most; >= BATCH_PATHS


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


def unscanned(n: int, n_barriers: int, n_controls: int = 0,
              alloc=bytearray) -> PathFunctionals:
    """Slots for n paths, n_barriers payoff barriers and n_controls control
    exponents, ready for scan_paths: tau and z_end NaN.  Every field is a
    view of one buffer of alloc(size in bytes): the heap by default, or
    for example a shared mapping that a forked process writes in place."""
    # tau, z_end, then r_pay_end, stieltjes, control_sums
    rows = 2 + 2 * n_barriers + n_controls
    floats = np.ndarray((rows, n), np.float64, alloc(rows * n * 8))
    floats[:2] = np.nan
    return PathFunctionals(tau=floats[0],
                           r_pay_end=floats[2:2 + n_barriers],
                           stieltjes=floats[2 + n_barriers:2 + 2 * n_barriers],
                           z_end=floats[1],
                           control_sums=floats[2 + 2 * n_barriers:])


def slots(out: PathFunctionals, lo: int, hi: int) -> PathFunctionals:
    """Views of out's slots lo..hi-1 (hi is clipped to the path count)."""
    return PathFunctionals(**{field.name: getattr(out, field.name)[..., lo:hi]
                              for field in dataclasses.fields(PathFunctionals)})


def scan(job: ScanJob, n: int) -> tuple:
    """Paths 0..n-1 of a pass, scanned in this process under each measure
    of its job: slots from unscanned, one per measure."""
    outs = tuple(unscanned(n, len(one.z_pays), len(one.betas))
                 for one in job.measures)
    scan_paths(job, 0, outs)
    return outs


def scan_paths(job: ScanJob, lo: int, outs: tuple) -> None:
    """Scan paths lo, lo + 1, ... into the slots of outs, one path per slot:
    job is the ScanJob of a pass and outs a tuple of slots (from unscanned,
    or views of such slots), one per measure of the job.  Any order of the
    measures gives the same bits."""
    z0 = math.log(job.phi0)
    # every path starts from the same state, including Gamma's jump at t = 0
    r_hit0 = max(0.0, z0 - job.z_hit)
    r0_cols = []
    for one, part in zip(job.measures, outs):
        r_pay0 = np.array([max(0.0, z0 - zp) for zp in one.z_pays])
        sti0 = np.array([(job.phi0 if one.weight_phi else 1.0) * -math.expm1(-r)
                         for r in r_pay0.tolist()])
        part.r_pay_end[:] = r_pay0[:, None]
        part.stieltjes[:] = sti0[:, None]
        # a control sum's time-zero term: R jumps from 0 to r_hit0
        with np.errstate(over="ignore"):
            part.control_sums[:] = np.expm1(np.multiply(one.betas, r_hit0))[:, None]
        r0_cols.append(r_pay0[:, None])
    if z0 - r_hit0 <= job.z_lo:   # every path stops at time zero
        for part in outs:
            part.tau[:] = 0.0
            part.z_end[:] = z0
        return
    scratch = scan_scratch(len(job.measures))
    for first in range(0, outs[0].n_paths, BATCH_PATHS):
        _scan_batch(job, lo + first,
                    [slots(out, first, first + BATCH_PATHS) for out in outs],
                    (z0, r_hit0, r0_cols), scratch)


def _scan_batch(job: ScanJob, lo: int, outs: list, start: tuple,
                scratch: _ScanScratch) -> None:
    """scan_paths(job, lo, outs) as one batch, with outs' slots already
    holding their time-zero values: start is (z0, r_hit0, r0_cols), the
    log ratio, the hit barrier's reflection and each measure's column of
    payoff reflections at t = 0.

    The batch has a row for each measure and path that have not stopped,
    measure by measure: bounds[i]:bounds[i + 1] are the rows of
    job.measures[i], ids their slots.  Each chunk draws the noise of every
    path with a row once, into a buffer, and copies it into every row.  A
    path is drawn until its last row has stopped."""
    z0, r_hit0, r0_cols = start
    z_hit, z_lo = job.z_hit, job.z_lo
    c_noise, dt, stride = job.c_noise, job.dt, job.stride
    k_max = job.k_max - job.k_max % stride   # the horizon's last grid point
    n = outs[0].n_paths
    slot_gens = [scratch.pool.reset(job.seed, lo + p, ROLE_PATH_NOISE, p)
                 for p in range(n)]
    ids = np.tile(np.arange(n), len(job.measures))   # the live rows' slots in outs
    bounds = [i * n for i in range(len(job.measures) + 1)]
    paths, copies = _draws(ids, n)
    gens = slot_gens                      # the drawn paths' generators
    carry = np.zeros(ids.size)            # running sum of the increments
    top = np.full(ids.size, -np.inf)      # running maximum of the log ratio
    # each measure's sum table: its Stieltjes rows, then its control rows,
    # flat at key row * n + slot; a measure with betas prices its stop
    # barrier, row stop_row of its z_pays
    tables = [np.concatenate((out.stieltjes, out.control_sums)) for out in outs]
    parts = [(one, out, np.array(one.z_pays)[:, None], r0_col,
              np.arange(len(table))[:, None] * n, table.reshape(-1),
              one.z_pays.index(z_hit) if one.betas else None,
              -np.array(one.betas)[:, None])
             for one, out, r0_col, table in zip(job.measures, outs, r0_cols, tables)]

    k = 0   # steps done
    while ids.size:
        live = ids.size
        m = min(k_max - k, CHUNK_CELLS // paths.size)
        zb = scratch.floats[0][:live * m].reshape(live, m)
        drawn = scratch.floats[2][:paths.size * m].reshape(paths.size, m)
        for gen, row in zip(gens, drawn):
            gen.standard_normal(out=row)
        drawn *= c_noise
        np.take(drawn, copies, axis=0, out=zb, mode="clip")
        for one, a, b in zip(job.measures, bounds, bounds[1:]):
            zb[a:b] += one.c_drift
        zb[:, 0] += carry
        np.cumsum(zb, axis=1, out=zb)
        carry = zb[:, -1].copy()
        zb += z0
        # the grid keeps the fine steps k with k % stride == 0
        first = (stride - 1 - k) % stride
        zg = zb[:, first::stride]
        mg = zg.shape[1]
        if not mg:   # no grid point; the horizon's chunk always has one
            k += m
            continue
        # mxb: top, then the running maximum at each grid point (mx)
        mxb = scratch.floats[1][:live * (mg + 1)].reshape(live, mg + 1)
        mxb[:, 0] = top
        mxb[:, 1:] = zg
        # fmax: the same bits as maximum, faster; the log ratio is never NaN
        np.fmax.accumulate(mxb, axis=1, out=mxb)
        mx = mxb[:, 1:]
        zr = scratch.floats[2][:live * mg].reshape(live, mg)
        hit = scratch.hit[:live * mg].reshape(live, mg)
        # zr: the log of the ratio reflected at the hit barrier
        np.subtract(mx, z_hit, out=zr)
        np.maximum(zr, r_hit0, out=zr)
        np.subtract(zg, zr, out=zr)
        np.less_equal(zr, z_lo, out=hit)
        stop = hit.any(axis=1).nonzero()[0]
        end = np.full(live, mg)            # grid points of the chunk each row takes
        end[stop] = hit[stop].argmax(axis=1) + 1
        horizon = k + m == k_max
        # a row leaves at its stop; at the horizon every row that has
        # not stopped leaves too, censored
        leave = np.arange(live) if horizon else stop
        if leave.size:
            tau = (k + first + 1 + (end[stop] - 1) * stride) * dt
            last = end[leave] - 1
            z_end = zg[leave, last]
            top_end = mx[leave, last]
            stopped, gone = ids[stop], ids[leave]
        stop_cuts = _cuts(stop, bounds)
        leave_cuts = _cuts(leave, bounds) if horizon else stop_cuts
        for (one, out, z_col, r0_col, keys, table, stop_row, neg_betas
             ), a, b, s_a, s_b, l_a, l_b in zip(
                parts, bounds, bounds[1:], stop_cuts, stop_cuts[1:],
                leave_cuts, leave_cuts[1:]):
            # payoff barriers come with stride 1: grid points are steps
            if one.z_pays and a < b:
                # Gamma moves only where a reflection max(M - z_b, r0_b)
                # grows, so only on steps up to the row's stop where the
                # running maximum M grows: p, their flat positions in
                # the measure's rows of mxb.  The log ratio there is M,
                # and M one step back (top, for the chunk's first step)
                # gives each reflection before it.
                flat = mxb[a:b].reshape(-1)
                new = scratch.hit[:flat.size]   # new[i]: M grows at i + 1
                np.greater(flat[1:], flat[:-1], out=new[:-1])
                new[mg::mg + 1] = False   # a row's top is no step
                rows = stop[s_a:s_b]
                if rows.size:   # no step past a row's stop
                    new.reshape(b - a, mg + 1)[rows - a] &= \
                        np.arange(mg + 1) < end[rows][:, None]
                p = new.nonzero()[0] + 1
                row, col = np.divmod(p, mg + 1)
                m_new = flat[p]
                rp = m_new - z_col             # (barrier, step)
                rp_prev = flat[p - 1] - z_col
                np.maximum(rp, r0_col, out=rp)
                np.maximum(rp_prev, r0_col, out=rp_prev)
                rate_t = one.rate * dt * (k + col)
                # where R grows: e^{rate t}[Phi](e^{-R_{k-1}} - e^{-R_k}),
                # in a form that neither cancels nor overflows
                lw = rate_t - rp_prev
                if one.weight_phi:
                    lw += m_new
                grows = rp > rp_prev
                fall = rp_prev - rp
                slot = ids[a:b][row]
                key = (keys[:len(z_col)] + slot)[grows]
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
                    key = np.concatenate((key, (keys[len(z_col):] + slot[up]).reshape(-1)))
                    term = np.concatenate((term, ctl.reshape(-1)))
                # added to each key in step order; flat keys, as np.add.at
                # takes a 2-d index about 6x slower
                np.add.at(table, key, term)
            if l_a < l_b:
                out.tau[stopped[s_a:s_b]] = tau[s_a:s_b]
                out.z_end[gone[l_a:l_b]] = z_end[l_a:l_b]
                if one.z_pays:
                    out.r_pay_end[:, gone[l_a:l_b]] = np.maximum(
                        top_end[l_a:l_b] - z_col, r0_col)
        if leave.size:
            keep = np.ones(live, dtype=bool)
            keep[leave] = False
            ids, carry, top = ids[keep], carry[keep], mx[keep, -1]
            bounds = [b - c for b, c in zip(bounds, leave_cuts)]
            paths, copies = _draws(ids, n)
            if paths.size < len(gens):
                gens = [slot_gens[p] for p in paths.tolist()]
        else:
            top = mx[:, -1].copy()
        k += m
    for out, table in zip(outs, tables):
        out.stieltjes[:] = table[:len(out.stieltjes)]
        out.control_sums[:] = table[len(out.stieltjes):]


def _cuts(rows: np.ndarray, bounds: list) -> list:
    """For rows, sorted row indices, where each measure's (bounds[i] up to
    bounds[i + 1]) begin and end in it."""
    if len(bounds) == 2:
        return [0, rows.size]
    return [0, *np.searchsorted(rows, bounds[1:-1]).tolist(), rows.size]


def _draws(ids: np.ndarray, n: int) -> tuple:
    """The slots of the paths a chunk draws (those with a row, in slot
    order) among n, and where in those draws each row finds its noise."""
    has_row = np.zeros(n, dtype=bool)
    has_row[ids] = True
    paths = has_row.nonzero()[0]
    at = np.empty(n, dtype=np.intp)
    at[paths] = np.arange(paths.size)
    return paths, at[ids]


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
        if not 0 <= seed < 2**64:
            raise ValueError(f"seed={seed} outside [0, 2^64)")
        while slot >= len(self._bgs):
            self._bgs.append(np.random.Philox(key=0))
            self._gens.append(np.random.Generator(self._bgs[-1]))
        self._key[0] = (path_index << 2) | role
        self._key[1] = seed
        self._bgs[slot].state = self._state
        return self._gens[slot]


class _ScanScratch:
    """Buffers and generators of _scan_batch, reused across calls: three
    float buffers and one bool buffer of `cells` cells (a chunk's rows x
    (steps + 1) at most), and a generator for each path of a batch."""

    def __init__(self, cells: int):
        self.floats = tuple(np.empty(cells) for _ in range(3))
        self.hit = np.empty(cells, dtype=bool)
        self.pool = _StreamPool()


_per_thread = threading.local()


def scan_scratch(n_measures: int = 1) -> _ScanScratch:
    """This thread's scratch for n_measures measures (a chunk has at most
    n_measures rows per drawn path, of CHUNK_CELLS // drawn paths steps), made
    on its first scan and again when a pass needs more cells than it has.  No
    result depends on what an earlier scan left in it: each batch rekeys its
    generators, and each chunk writes its buffers before reading them."""
    cells = n_measures * (CHUNK_CELLS + BATCH_PATHS)
    scratch = getattr(_per_thread, "scratch", None)
    if scratch is None or scratch.hit.size < cells:
        scratch = _per_thread.scratch = _ScanScratch(cells)
    return scratch
