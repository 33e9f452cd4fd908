"""Standalone probes of single layers, each at one fixed configuration."""

from __future__ import annotations

import statistics
import time

import numpy as np

from workloads import DEV_PHI, mc_op, run_op

PHILOX_BLOCK = 1024      # the kernel's first block of normals per path
PHILOX_BLOCKS = 1_000
SPEEDUP_PATHS = 2_000
SPEEDUP_THREADS = 2      # never more than the cores of the benchmark machine
REPEATS = 5


def philox_ns_per_draw() -> float:
    """numpy Philox standard normals drawn in kernel-sized blocks, rekeyed
    per block as the kernel rekeys per path: the floor of the kernel's cost
    per step."""
    bitgen = np.random.Philox(key=0)
    gen = np.random.Generator(bitgen)
    state = bitgen.state
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter_ns()
        for p in range(PHILOX_BLOCKS):
            state["state"]["key"][0] = p
            state["state"]["counter"][:] = 0
            state["buffer_pos"] = 4
            bitgen.state = state
            gen.standard_normal(PHILOX_BLOCK)
        samples.append((time.perf_counter_ns() - t0) / (PHILOX_BLOCKS * PHILOX_BLOCK))
    return statistics.median(samples)


def thread_speedup() -> float:
    """Wall of one `mc` command at 1 thread over its wall at 2 threads.

    The kernel is over 99% of this command's time, so the ratio is the
    kernel's: above 1 the threads pay, below 1 they cost.
    """
    walls = {1: [], SPEEDUP_THREADS: []}
    for _ in range(3):
        for threads, samples in walls.items():
            res = run_op(mc_op(DEV_PHI, 1, SPEEDUP_PATHS, threads))
            if not res.ok:
                raise RuntimeError(f"thread-speedup probe failed: {res.reason}")
            samples.append(res.wall_s)
    return statistics.median(walls[1]) / statistics.median(walls[SPEEDUP_THREADS])


def v_scalar_us() -> float:
    """One scalar evaluation of the game value V at the base case."""
    from driftgame import ModelParams, build_solution

    sol = build_solution(ModelParams(mu0=-1.0, mu1=1.0, sigma=0.5, eps=0.1))
    n = 2_000
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter_ns()
        for _ in range(n):
            sol.V(0.6)
        samples.append((time.perf_counter_ns() - t0) / n * 1e-3)
    return statistics.median(samples)
