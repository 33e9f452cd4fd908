"""The Monte Carlo kernel: one pass of simulate.stacked_path_functionals.

This module owns how a pass runs: the jobs (a ScanJob for each measure
of the pass), the per-path generators (_StreamPool), the output slots
(unscanned) and the batched scan (scan_paths).  stacked_path_functionals
builds the jobs, one per MeasureSpec, from the pass's one SimConfig, and
hands them to scan() here, or to driftgame._spread from 1024 paths up.
It imports this module on its first pass, so that importing the CLI
compiles none of it.

A pass may scan one path under several measures.  A path's noise comes
from its own substream whatever the measure, and the measures' log ratios
differ only in their drift, so their jobs share seed, phi0, c_noise, the
grid, z_hit, z_lo and stride (the pass's config and stride), and each
adds its own c_drift, rate, weight_phi, z_pays and betas.  A batch holds
a row for each (measure, path).

scan_paths steps batches of BATCH_PATHS paths, one row per measure and
path, together through the whole horizon in chunks of min(steps left,
max(CHUNK_MIN, CHUNK_CELLS // drawn paths)) steps, each chunk one numpy
call per operation over every live row (or every live row of one
measure), and a row leaves the batch at its stop.  A path is drawn while
it has a live row, so a second measure adds rows to a chunk but not
chunks to a path.  Every sum is taken in step order, so the result is
bit-identical to scanning each path alone under each measure, for any
batch size, chunk length and helper split:

- a path's noise is drawn from its own substream a chunk at a time, which
  is the sequence one draw of the whole path gives;
- one draw of a path feeds the rows of every measure: each row scales the
  same normals by the shared c_noise and adds its measure's drift, as a
  pass of that measure alone would, and the path's draws end within one
  chunk of its last measure's stop;
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
- a Stieltjes sum starts from its time-zero value, and each chunk adds
  its terms to it one by one in step order (np.add.at);
- a control sum, one per exponent beta of betas, is priced from the
  reflection R of the stop barrier, which a job with betas prices as one
  of its payoff barriers: it starts from e^{beta R_0} - 1 (R jumps from 0
  to R_0 at t = 0) and adds e^{rate t}(e^{beta (R_k - R_{k-1})} - 1)
  where R grows, times e^{-R_{k-1}} (the 1 - Gamma before the step) for
  a job without the Phi weight; each chunk keeps its terms' slots, log
  weights and steps of R, and the batch prices them all at its end, in
  chunk order and so in step order; a job without betas takes none of
  its operations;
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

BATCH_PATHS = 128     # paths scanned together
CHUNK_MIN = 64        # fewest steps in one chunk
CHUNK_CELLS = 8192    # drawn paths x steps of a chunk above that minimum


class ScanJob(NamedTuple):
    """Everything a scan of some of a pass's paths under one measure needs.
    A pass over several measures is a tuple of ScanJobs that differ in
    c_drift, rate, weight_phi, z_pays and betas alone.

    A NamedTuple, not a dataclass: a dataclass of this size costs about
    2 ms to define.
    """

    seed: int
    phi0: float
    c_drift: float       # log-ratio drift per step
    c_noise: float       # log-ratio noise scale per step
    k_max: int           # steps to the horizon
    dt: float
    rate: float          # discount rate
    weight_phi: bool
    z_hit: float         # log of the reflection barrier that times the stop
    z_lo: float          # log of the absorbing lower threshold
    z_pays: tuple        # logs of the payoff barriers
    stride: int = 1      # the stop is tested on steps k with k % stride == 0
    betas: tuple = ()    # exponents of the control sums


def unscanned(n: int, n_barriers: int, n_controls: int = 0,
              alloc=bytearray) -> PathFunctionals:
    """Slots for n paths, n_barriers payoff barriers and n_controls control
    exponents, ready for scan_paths: tau and z_end NaN, none censored.
    Every field is a view of one buffer of alloc(size in bytes): the heap
    by default, or for example a shared mapping that a forked process
    writes in place."""
    # tau, phi_refl_end, z_end, then r_pay_end, stieltjes, control_sums
    rows = 3 + 2 * n_barriers + n_controls
    buffer = alloc(rows * n * 8 + n)
    floats = np.ndarray((rows, n), np.float64, buffer)
    floats[0] = floats[2] = np.nan
    censored = np.ndarray(n, np.bool_, buffer, rows * n * 8)
    censored[:] = False
    return PathFunctionals(tau=floats[0], censored=censored,
                           phi_refl_end=floats[1],
                           r_pay_end=floats[3:3 + n_barriers],
                           stieltjes=floats[3 + n_barriers:3 + 2 * n_barriers],
                           z_end=floats[2],
                           control_sums=floats[3 + 2 * n_barriers:])


def slots(out: PathFunctionals, lo: int, hi: int) -> PathFunctionals:
    """Views of out's slots lo..hi-1 (hi is clipped to the path count)."""
    return PathFunctionals(**{field.name: getattr(out, field.name)[..., lo:hi]
                              for field in dataclasses.fields(PathFunctionals)})


def scan(jobs: tuple, n: int) -> tuple:
    """Paths 0..n-1 of a pass, scanned in this process under each of jobs,
    its measures: slots from unscanned, one per job."""
    outs = tuple(unscanned(n, len(job.z_pays), len(job.betas)) for job in jobs)
    scan_paths(jobs, 0, outs)
    return outs


def scan_paths(jobs: tuple, lo: int, outs: tuple) -> None:
    """Scan paths lo, lo + 1, ... into the slots of outs, one path per slot:
    jobs is a tuple of ScanJobs of one pass and outs a tuple of slots (from
    unscanned, or views of such slots), one per job.  Any order of the jobs
    gives the same bits; the largest drift first draws fastest (see
    _scan_batch)."""
    head = jobs[0]
    z0 = math.log(head.phi0)
    # every path starts from the same state, including Gamma's jump at t = 0
    r_hit0 = max(0.0, z0 - head.z_hit)
    r_pay0s = []
    for one, part in zip(jobs, outs):
        r_pay0 = np.array([r_hit0 if zp == one.z_hit else max(0.0, z0 - zp)
                           for zp in one.z_pays])
        sti0 = np.array([(one.phi0 if one.weight_phi else 1.0) * -math.expm1(-r)
                         for r in r_pay0.tolist()])
        part.r_pay_end[:] = r_pay0[:, None]
        part.stieltjes[:] = sti0[:, None]
        # a control sum's time-zero term: R jumps from 0 to r_hit0
        with np.errstate(over="ignore"):
            part.control_sums[:] = np.expm1(np.multiply(one.betas, r_hit0))[:, None]
        r_pay0s.append(r_pay0)
    if z0 - r_hit0 <= head.z_lo:   # every path stops at time zero
        for part in outs:
            part.tau[:] = 0.0
            part.phi_refl_end[:] = math.exp(z0 - r_hit0)
            part.z_end[:] = z0
        return
    scratch = scan_scratch(len(jobs))
    for first in range(0, outs[0].n_paths, BATCH_PATHS):
        _scan_batch(jobs, lo + first,
                    [slots(out, first, first + BATCH_PATHS) for out in outs],
                    r_pay0s, scratch)


def _scan_batch(jobs: tuple, lo: int, outs: list, r_pay0s: list,
                scratch: _ScanScratch) -> None:
    """scan_paths(jobs, lo, outs) as one batch, with outs' slots already
    holding the time-zero reflections r_pay0s, Stieltjes sums and control
    sums.

    The batch has a row for each measure and path that have not stopped,
    measure by measure: bounds[i]:bounds[i + 1] are the rows of jobs[i],
    ids their slots.  Each chunk draws the noise of every path with a row
    once, into the first measure's rows while they are those paths, else
    into a buffer, and copies it into the other rows.  A path is drawn
    until its last row has stopped.  The same noise with a larger drift
    stops no earlier (in exact arithmetic), so with the largest drift
    first the draws go in place."""
    head = jobs[0]
    z0 = math.log(head.phi0)
    z_hit, z_lo = head.z_hit, head.z_lo
    r_hit0 = max(0.0, z0 - z_hit)
    c_noise, dt, stride = head.c_noise, head.dt, head.stride
    k_max = head.k_max - head.k_max % stride   # the horizon's last grid point
    n = outs[0].n_paths
    slot_gens = [scratch.pool.reset(head.seed, lo + p, ROLE_PATH_NOISE, p)
                 for p in range(n)]
    ids = np.tile(np.arange(n), len(jobs))   # the live rows' slots in outs
    bounds = [i * n for i in range(len(jobs) + 1)]
    paths, copies = _draws(ids, n, n)
    gens = slot_gens                      # the drawn paths' generators
    carry = np.zeros(ids.size)            # running sum of the increments
    top = np.full(ids.size, -np.inf)      # running maximum of the log ratio
    # each measure's Stieltjes sums (barrier, slot), flat at key b * n + slot
    sums = [out.stieltjes.copy() for out in outs]
    # a job with betas prices its stop barrier, row stop_row of its z_pays,
    # and keeps each chunk's control terms in terms: their slots, log
    # weights and R_{k-1} - R_k, which the pricing step has
    parts = [(one, out, np.array(one.z_pays)[:, None], r_pay0[:, None],
              np.arange(len(one.z_pays))[:, None] * n, total.reshape(-1),
              one.z_pays.index(z_hit) if one.betas else None, [])
             for one, out, r_pay0, total in zip(jobs, outs, r_pay0s, sums)]

    k = 0   # steps done
    while ids.size:
        live = ids.size
        m = min(k_max - k, max(CHUNK_MIN, CHUNK_CELLS // paths.size))
        zb = scratch.floats[0][:live * m].reshape(live, m)
        # in place when the rows that copy nothing are the drawn paths
        drawn = zb[:paths.size] if live - copies.size == paths.size else \
            scratch.floats[2][:paths.size * m].reshape(paths.size, m)
        for gen, row in zip(gens, drawn):
            gen.standard_normal(out=row)
        drawn *= c_noise
        if copies.size:
            np.take(drawn, copies, axis=0, out=zb[live - copies.size:], mode="clip")
        for one, a, b in zip(jobs, bounds, bounds[1:]):
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
        np.maximum.accumulate(mxb, axis=1, out=mxb)
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
            phi_end = [math.exp(v) for v in zr[leave, last].tolist()]
            z_end = zg[leave, last]
            top_end = mx[leave, last]
            stopped, gone = ids[stop], ids[leave]
        stop_cuts = _cuts(stop, bounds)
        leave_cuts = _cuts(leave, bounds) if horizon else stop_cuts
        for (one, out, z_col, r0_col, keys, total, stop_row, terms
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
                new = np.greater(flat[1:], flat[:-1],
                                 out=scratch.hit[:flat.size - 1])
                new[mg::mg + 1] = False   # a row's top is no step
                rows = stop[s_a:s_b]
                for r, j in zip(rows.tolist(), end[rows].tolist()):
                    new[(r - a) * (mg + 1) + j:(r - a + 1) * (mg + 1)] = False
                p = new.nonzero()[0] + 1
                m_new = flat[p]
                rp = m_new - z_col             # (barrier, step)
                rp_prev = flat[p - 1] - z_col
                np.maximum(rp, r0_col, out=rp)
                np.maximum(rp_prev, r0_col, out=rp_prev)
                row, col = np.divmod(p, mg + 1)
                rate_t = one.rate * dt * (k + col)
                # where R grows: e^{rate t}[Phi](e^{-R_{k-1}} - e^{-R_k}),
                # in a form that neither cancels nor overflows
                lw = rate_t - rp_prev
                if one.weight_phi:
                    lw += m_new
                grows = rp > rp_prev
                fall = rp_prev - rp
                slot = ids[a:b][row]
                # added to each key in step order
                np.add.at(total, (keys + slot)[grows],
                          np.exp(lw[grows]) * -np.expm1(fall[grows]))
                if stop_row is not None:
                    # the steps where the stop barrier's R grows; the log
                    # weight is rate t, less R_{k-1} without the Phi weight
                    up = grows[stop_row].nonzero()[0]
                    terms.append((slot[up],
                                  rate_t[up] if one.weight_phi else lw[stop_row, up],
                                  fall[stop_row, up]))
            if l_a < l_b:
                out.tau[stopped[s_a:s_b]] = tau[s_a:s_b]
                out.phi_refl_end[gone[l_a:l_b]] = phi_end[l_a:l_b]
                out.z_end[gone[l_a:l_b]] = z_end[l_a:l_b]
                if one.z_pays:
                    out.r_pay_end[:, gone[l_a:l_b]] = np.maximum(
                        top_end[l_a:l_b] - z_col, r0_col)
                if horizon:
                    out.censored[np.delete(ids[a:b], stop[s_a:s_b] - a)] = True
        if leave.size:
            keep = np.ones(live, dtype=bool)
            keep[leave] = False
            ids, carry, top = ids[keep], carry[keep], mx[keep, -1]
            bounds = [b - c for b, c in zip(bounds, leave_cuts)]
            paths, copies = _draws(ids, bounds[1], n)
            if paths.size < len(gens):
                gens = [slot_gens[p] for p in paths.tolist()]
        else:
            top = mx[:, -1].copy()
        k += m
    for (one, out, *_, terms), total in zip(parts, sums):
        out.stieltjes[:] = total
        if terms:
            out.control_sums[:] = _control_sums(
                one.betas, out.control_sums, n, *map(np.concatenate, zip(*terms)))


def _control_sums(betas: tuple, start: np.ndarray, n: int, slot: np.ndarray,
                  log_weight: np.ndarray, fall: np.ndarray) -> np.ndarray:
    """The control sums (exponent, slot) of a batch of n paths: start plus,
    for each exponent beta, e^{log_weight}(e^{-beta fall} - 1) added at its
    slot in the terms' order, which is step order.  A sum that overflows
    is inf, which the estimator drops.  The keys and terms are flat: np.add.at
    takes a 2-d index about 6x slower."""
    total = start.copy()
    terms = np.multiply(-np.array(betas)[:, None], fall)
    with np.errstate(over="ignore"):
        np.expm1(terms, out=terms)
        terms *= np.exp(log_weight)
    keys = np.arange(len(betas))[:, None] * n + slot
    np.add.at(total.reshape(-1), keys.reshape(-1), terms.reshape(-1))
    return total


def _cuts(rows: np.ndarray, bounds: list) -> list:
    """For rows, sorted row indices, where each measure's (bounds[i] up to
    bounds[i + 1]) begin and end in it."""
    if len(bounds) == 2:
        return [0, rows.size]
    return [0, *np.searchsorted(rows, bounds[1:-1]).tolist(), rows.size]


def _draws(ids: np.ndarray, lead: int, n: int) -> tuple:
    """The slots of the paths a chunk draws (those with a row, in slot
    order) among n, and where in those draws each row that copies its
    noise finds it.  The first measure's rows (before lead) take the draws
    in place while they are all those paths, and copy nothing."""
    if lead == ids.size:   # no other measure has a row
        return ids, ids[:0]
    has_row = np.zeros(n, dtype=bool)
    has_row[ids] = True
    paths = has_row.nonzero()[0]
    at = np.empty(n, dtype=np.intp)
    at[paths] = np.arange(paths.size)
    return paths, at[ids[lead if lead == paths.size else 0:]]


class _StreamPool:
    """Reusable generators, each rekeyed per (path, role) substream.

    Produces streams bit-identical to simulate.substream while skipping
    the per-construction entropy gathering, which dominates tight path
    loops.  Slot i holds one stream at a time; a slot is made on its first
    use.  Not thread safe.
    """

    def __init__(self):
        self._bgs: list[np.random.Philox] = []
        self._gens: list[np.random.Generator] = []
        self._state = np.random.Philox(key=0).state

    def reset(self, seed: int, path_index: int, role: int,
              slot: int) -> np.random.Generator:
        if not 0 <= seed < 2**64:
            raise ValueError(f"seed={seed} outside [0, 2^64)")
        while slot >= len(self._bgs):
            self._bgs.append(np.random.Philox(key=0))
            self._gens.append(np.random.Generator(self._bgs[-1]))
        st = self._state
        st["state"]["key"][0] = (path_index << 2) | role
        st["state"]["key"][1] = seed
        st["state"]["counter"][:] = 0
        st["buffer_pos"] = 4
        st["has_uint32"] = 0
        st["uinteger"] = 0
        self._bgs[slot].state = st
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
    """This thread's scratch for a pass of n_measures measures (a chunk
    has at most n_measures rows per drawn path), made on its first scan
    and again when a pass needs more cells than it has.  No result depends on
    what an earlier scan left in it: each batch rekeys its generators, and
    each chunk writes its buffers before reading them."""
    cells = n_measures * (max(BATCH_PATHS * CHUNK_MIN, CHUNK_CELLS) + BATCH_PATHS)
    scratch = getattr(_per_thread, "scratch", None)
    if scratch is None or scratch.hit.size < cells:
        scratch = _per_thread.scratch = _ScanScratch(cells)
    return scratch
