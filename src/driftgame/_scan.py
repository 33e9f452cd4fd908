"""The Monte Carlo kernel: one pass of simulate.path_functionals.

This module owns how a pass runs: the job (ScanJob), the per-path
generators (_StreamPool), the output slots (unscanned) and the batched
scan (scan_paths).  path_functionals builds the job and hands it to scan()
here, or to driftgame._spread from 1024 paths up.  It imports this module
on its first pass, so that importing the CLI compiles none of it.

Each path's noise is drawn in blocks of simulate._BLOCK_START steps,
doubling up to simulate._BLOCK_MAX (read at call time), and its sums are
formed block by block.  scan_paths steps batches of BATCH_PATHS rows
together through those blocks.  Each block is walked in chunks of
min(rest of block, max(CHUNK_MIN, CHUNK_CELLS // live rows)) steps, each
chunk one numpy call per operation over every live row, and a row leaves
the batch at its stop, so its draws end within one chunk of it.  The
result is bit-identical to scanning each path alone, block by block, for
any batch size and chunk length:

- a row's noise is drawn from its own substream a chunk at a time, which
  is the sequence one draw of the whole block gives;
- the log ratio is a block-local cumsum that carries its last value into
  the chunk's first element, plus the block's starting value after it, as
  one cumsum of the block would round;
- every reflection is max(M - z_b, r0) with M the running maximum of the
  log ratio: rounding a subtraction is monotone, so that is the running
  maximum of max(log ratio - z_b, r0) bit for bit;
- a Stieltjes sum takes the terms of a (row, barrier, block) in step order
  and sums them with one .sum(), never in parts, because numpy's pairwise
  sum depends on how the terms are grouped;
- with a stride s the noise, the log ratio and the blocks stay on the fine
  steps, and the maximum, reflection and stop read the columns of steps k
  with k % s == 0 alone, so every stride reads one path and a chunk that
  holds no such step only carries the log ratio forward.

Each path lands in its own slot, so ranges of a pass's paths may be
scanned anywhere, in any order, into views of one set of slots (slots()).
"""

from __future__ import annotations

import dataclasses
import math
import threading
from typing import NamedTuple

import numpy as np

from . import simulate
from .simulate import ROLE_PATH_NOISE, PathFunctionals

BATCH_PATHS = 128     # paths scanned together
CHUNK_MIN = 64        # fewest steps in one chunk
CHUNK_CELLS = 8192    # rows x steps of a chunk above that minimum


class ScanJob(NamedTuple):
    """Everything a scan of some of a pass's paths needs.

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


def unscanned(n: int, n_barriers: int, alloc=bytearray) -> PathFunctionals:
    """Slots for n paths and n_barriers payoff barriers, ready for
    scan_paths: tau NaN, none censored.  Every field is a view of one
    buffer of alloc(size in bytes): the heap by default, or for example a
    shared mapping that a forked process writes in place."""
    rows = 2 + 2 * n_barriers   # tau, phi_refl_end, then r_pay_end, stieltjes
    buffer = alloc(rows * n * 8 + n)
    floats = np.ndarray((rows, n), np.float64, buffer)
    floats[0] = np.nan
    censored = np.ndarray(n, np.bool_, buffer, rows * n * 8)
    censored[:] = False
    return PathFunctionals(tau=floats[0], censored=censored,
                           phi_refl_end=floats[1],
                           r_pay_end=floats[2:2 + n_barriers],
                           stieltjes=floats[2 + n_barriers:])


def slots(out: PathFunctionals, lo: int, hi: int) -> PathFunctionals:
    """Views of out's slots lo..hi-1 (hi is clipped to the path count)."""
    return PathFunctionals(**{field.name: getattr(out, field.name)[..., lo:hi]
                              for field in dataclasses.fields(PathFunctionals)})


def scan(job: ScanJob, n: int) -> PathFunctionals:
    """Paths 0..n-1 of the job, scanned in this process."""
    out = unscanned(n, len(job.z_pays))
    scan_paths(job, 0, out)
    return out


def scan_paths(job: ScanJob, lo: int, out: PathFunctionals) -> None:
    """Scan paths lo, lo + 1, ... into the slots of out (from unscanned,
    or views of such slots), one path per slot."""
    z0 = math.log(job.phi0)
    z_hit, z_lo, z_pays = job.z_hit, job.z_lo, job.z_pays
    # every path starts from the same state, including Gamma's jump at t = 0
    r_hit0 = max(0.0, z0 - z_hit)
    r_pay0 = np.array([r_hit0 if zp == z_hit else max(0.0, z0 - zp)
                       for zp in z_pays])
    sti0 = np.array([(job.phi0 if job.weight_phi else 1.0) * -math.expm1(-r)
                     for r in r_pay0.tolist()])
    out.r_pay_end[:] = r_pay0[:, None]
    out.stieltjes[:] = sti0[:, None]
    if z0 - r_hit0 <= z_lo:   # every path stops at time zero
        out.tau[:] = 0.0
        out.phi_refl_end[:] = math.exp(z0 - r_hit0)
        return
    scratch = scan_scratch()
    terms = [_BlockTerms() for _ in z_pays]
    for first in range(0, out.n_paths, BATCH_PATHS):
        _scan_batch(job, lo + first, slots(out, first, first + BATCH_PATHS),
                    r_pay0, scratch, terms)


def _scan_batch(job: ScanJob, lo: int, out: PathFunctionals,
                r_pay0: np.ndarray, scratch: _ScanScratch,
                terms: list[_BlockTerms]) -> None:
    """scan_paths(job, lo, out) as one batch, with out's slots already
    holding the time-zero reflections r_pay0 and Stieltjes sums, and an
    empty _BlockTerms per payoff barrier."""
    z0 = math.log(job.phi0)
    z_hit, z_lo, z_pays = job.z_hit, job.z_lo, job.z_pays
    r_hit0 = max(0.0, z0 - z_hit)
    c_drift, c_noise, dt, stride = job.c_drift, job.c_noise, job.dt, job.stride
    k_max = job.k_max - job.k_max % stride   # the horizon's last grid point
    rate_dt = job.rate * dt
    n = out.n_paths
    gens = [scratch.pool.reset(job.seed, lo + p, ROLE_PATH_NOISE, p)
            for p in range(n)]
    ids = np.arange(n)                # the live rows' slots in out
    z_start = np.full(n, z0)          # log ratio at the block's start
    top = np.full(n, -np.inf)         # running maximum of the log ratio
    r_pay = np.repeat(r_pay0[:, None], n, axis=1)
    tau, censored, phi_end = out.tau, out.censored, out.phi_refl_end

    k_done, block = 0, simulate._BLOCK_START
    while ids.size and k_done < k_max:
        n_block = min(block, k_max - k_done)
        off = 0
        while ids.size and off < n_block:
            live = ids.size
            m = min(n_block - off, max(CHUNK_MIN, CHUNK_CELLS // live))
            k_chunk = k_done + off
            zb = scratch.floats[0][:live * m].reshape(live, m)
            for gen, row in zip(gens, zb):
                gen.standard_normal(out=row)
            zb *= c_noise
            zb += c_drift
            if off:
                zb[:, 0] += carry
            np.cumsum(zb, axis=1, out=zb)
            if off + m < n_block:
                carry = zb[:, -1].copy()
            zb += z_start[:, None]
            if off + m == n_block:
                z_start = zb[:, -1].copy()
            # the grid keeps the fine steps k with k % stride == 0
            first = (stride - 1 - k_chunk) % stride
            zg = zb[:, first::stride]
            mg = zg.shape[1]
            if not mg:   # no grid point; the horizon's chunk always has one
                off += m
                continue
            mx, zr = (buf[:live * mg].reshape(live, mg)
                      for buf in scratch.floats[1:])
            hit = scratch.hit[:live * mg].reshape(live, mg)
            np.maximum.accumulate(zg, axis=1, out=mx)
            np.maximum(mx, top[:, None], out=mx)
            # zr: the log of the ratio reflected at the hit barrier
            np.subtract(mx, z_hit, out=zr)
            np.maximum(zr, r_hit0, out=zr)
            np.subtract(zg, zr, out=zr)
            np.less_equal(zr, z_lo, out=hit)
            stop = hit.any(axis=1).nonzero()[0]
            end = np.full(live, mg)            # grid points of the chunk each row takes
            end[stop] = hit[stop].argmax(axis=1) + 1
            at = (np.arange(live), end - 1)    # each row's last grid point taken
            # payoff barriers come with stride 1 only: grid points are fine steps
            for b, zp in enumerate(z_pays):
                r_now = np.maximum(mx[at] - zp, r_pay0[b])
                grow = (r_now > r_pay[b]).nonzero()[0]
                if grow.size:
                    # Gamma only moves where the payoff reflection grows:
                    # e^{rate t}[Phi](e^{-R_{k-1}} - e^{-R_k}) there, in a
                    # form that neither cancels nor overflows.
                    rp = mx[grow]
                    rp -= zp
                    np.maximum(rp, r_pay0[b], out=rp)
                    rp_prev = np.empty_like(rp)
                    rp_prev[:, 0] = r_pay[b, grow]
                    rp_prev[:, 1:] = rp[:, :-1]
                    up = rp > rp_prev
                    for g in (end[grow] < mg).nonzero()[0].tolist():
                        up[g, end[grow[g]]:] = False
                    gi, idx = up.nonzero()
                    lw = rate_dt * (k_chunk + 1.0 + idx) - rp_prev[gi, idx]
                    if job.weight_phi:
                        lw += zg[grow[gi], idx]
                    terms[b].append(ids[grow[gi]], np.exp(lw)
                                    * -np.expm1(rp_prev[gi, idx] - rp[gi, idx]))
                r_pay[b] = r_now
            leave = stop
            if off + m == n_block and k_done + n_block == k_max:
                # the horizon: every row that has not stopped is censored
                leave = np.arange(live)
                censored[np.delete(ids, stop)] = True
            if leave.size:
                tau[ids[stop]] = (k_chunk + first + 1 + (end[stop] - 1) * stride) * dt
                for s, r, j in zip(ids[leave].tolist(), leave.tolist(),
                                   (end[leave] - 1).tolist()):
                    phi_end[s] = math.exp(zr[r, j])
                out.r_pay_end[:, ids[leave]] = r_pay[:, leave]
                keep = np.ones(live, dtype=bool)
                keep[leave] = False
                gens = [gen for gen, k in zip(gens, keep.tolist()) if k]
                ids, z_start, r_pay = ids[keep], z_start[keep], r_pay[:, keep]
                top = mx[keep, -1]
                if off + m < n_block:
                    carry = carry[keep]
            else:
                top = mx[:, -1].copy()
            off += m
        for stj, block_terms in zip(out.stieltjes, terms):
            block_terms.add_sums(stj)
        k_done += n_block
        block = min(block * 2, simulate._BLOCK_MAX)


class _BlockTerms:
    """One payoff barrier's Stieltjes terms in a block, chunk by chunk: the
    slot and the term of each step where its reflection grows.  Kept in
    buffers that outlive the block and grow when a block needs more (by a
    fixed step: the largest block sets the scan's peak memory)."""

    def __init__(self):
        self._slots = np.empty(0, dtype=np.int16)   # a batch has < 2**15 rows
        self._terms = np.empty(0)
        self._size = 0

    def append(self, slots: np.ndarray, terms: np.ndarray) -> None:
        """Terms of one chunk, in slot order and then step order."""
        size, end = self._size, self._size + terms.size
        if end > self._terms.size:
            cap = end + 1024
            self._slots = np.concatenate((self._slots[:size],
                                          np.empty(cap - size, dtype=np.int16)))
            self._terms = np.concatenate((self._terms[:size], np.empty(cap - size)))
        self._slots[size:end] = slots
        self._terms[size:end] = terms
        self._size = end

    def add_sums(self, stj: np.ndarray) -> None:
        """Add to stj[s] the terms of slot s, in step order, with one .sum()
        (numpy's pairwise sum depends on how terms are grouped), and empty
        the buffers for the next block."""
        if not self._size:
            return
        order = np.argsort(self._slots[:self._size], kind="stable")
        slots, terms = self._slots[order], self._terms[order]
        self._size = 0
        cuts = ((slots[1:] != slots[:-1]).nonzero()[0] + 1).tolist()
        for s, a, b in zip(slots[[0] + cuts].tolist(), [0] + cuts,
                           cuts + [slots.size]):
            stj[s] += float(terms[a:b].sum())


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
    steps at most), and a generator for each batch row."""

    def __init__(self, cells: int):
        self.floats = tuple(np.empty(cells) for _ in range(3))
        self.hit = np.empty(cells, dtype=bool)
        self.pool = _StreamPool()


_per_thread = threading.local()


def scan_scratch() -> _ScanScratch:
    """This thread's scratch, made on its first scan (and again if the
    chunk sizes have grown since).  No result depends on what an earlier
    scan left in it: each batch rekeys its generators, and each chunk
    writes its buffers before reading them."""
    cells = max(BATCH_PATHS * CHUNK_MIN, CHUNK_CELLS)
    scratch = getattr(_per_thread, "scratch", None)
    if scratch is None or scratch.hit.size < cells:
        scratch = _per_thread.scratch = _ScanScratch(cells)
    return scratch
