"""The batched scan behind simulate._scan_paths.

Imported on the first Monte Carlo pass, so that importing the CLI compiles
none of it.  The batch and chunk walk, and the rules that keep it
bit-identical to scanning each path alone, are described at
simulate._scan_paths.  Block sizes are read from simulate at call time.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from . import simulate
from .simulate import ROLE_PATH_NOISE, PathFunctionals, _ScanJob, _slots, _StreamPool

BATCH_PATHS = 128     # paths scanned together
CHUNK_MIN = 64        # fewest steps in one chunk
CHUNK_CELLS = 8192    # rows x steps of a chunk above that minimum


def scan_paths(job: _ScanJob, lo: int, out: PathFunctionals) -> None:
    """simulate._scan_paths(job, lo, out)."""
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
    scratch = _scan_scratch()
    terms = [_BlockTerms() for _ in z_pays]
    for first in range(0, out.n_paths, BATCH_PATHS):
        _scan_batch(job, lo + first, _slots(out, first, first + BATCH_PATHS),
                    r_pay0, scratch, terms)


def _scan_batch(job: _ScanJob, lo: int, out: PathFunctionals,
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


class _ScanScratch:
    """Buffers and generators of _scan_batch, reused across calls: three
    float buffers and one bool buffer of `cells` cells (a chunk's rows x
    steps at most), and a generator for each batch row."""

    def __init__(self, cells: int):
        self.floats = tuple(np.empty(cells) for _ in range(3))
        self.hit = np.empty(cells, dtype=bool)
        self.pool = _StreamPool()


_per_thread = threading.local()


def _scan_scratch() -> _ScanScratch:
    """This thread's scratch, made on its first scan (and again if the
    chunk sizes have grown since).  No result depends on what an earlier
    scan left in it: each batch rekeys its generators, and each chunk
    writes its buffers before reading them."""
    cells = max(BATCH_PATHS * CHUNK_MIN, CHUNK_CELLS)
    scratch = getattr(_per_thread, "scratch", None)
    if scratch is None or scratch.hit.size < cells:
        scratch = _per_thread.scratch = _ScanScratch(cells)
    return scratch
