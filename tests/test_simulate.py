import dataclasses
import errno
import io
import math
import mmap
import os
import select
import signal
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from driftgame import InvalidParameters, ModelParams, build_solution, derive
from driftgame.simulate import (
    ROLE_PATH_NOISE,
    ROLE_REGIME_DRAW,
    Measure,
    MeasureSpec,
    PathFunctionals,
    SimConfig,
    Trajectory,
    discount_rate,
    generate_trajectory,
    log_drifts,
    log_ratio_step,
    reflect,
    reflected_betas,
    simulate_phi,
    stacked_path_functionals,
    stop_at_lower,
    substream,
    write_trajectory_csv,
)


def _cfg(**kw):
    base = dict(dt=1e-3, horizon=5.0, n_paths=1, seed=1)
    base.update(kw)
    return SimConfig(**base)


def _one_measure(params, phi0, lower, barrier, config, spec, stride=1):
    """A pass over config's paths under the one measure of spec."""
    return stacked_path_functionals(params, phi0, lower, barrier, config, (spec,),
                                    stride=stride)[0]


def _hand_job(params, phi0, lower, barrier, config, measure, rate, weight_phi,
              barriers=None, betas=(), stride=1):
    """The ScanJob of a pass under one measure, built by hand: any rate, Phi
    weight and control exponents, which a MeasureSpec leaves to its
    measure.  barriers are the payoff barriers, the barrier alone by
    default."""
    import driftgame._scan as scan

    c_drift, c_noise = log_ratio_step(params, measure, config.dt)
    barriers = (barrier,) if barriers is None else barriers
    return scan.ScanJob(
        seed=config.seed, phi0=phi0, c_noise=c_noise, k_max=config.n_steps,
        dt=config.dt, z_hit=math.log(barrier), z_lo=math.log(lower),
        measures=(scan.ScanMeasure(
            c_drift=c_drift, rate=rate, weight_phi=weight_phi,
            z_pays=tuple(math.log(b) for b in barriers), betas=tuple(betas)),),
        stride=stride)


def _hand_pass(params, phi0, lower, barrier, config, *measure, **kw):
    """A pass over config's paths of _hand_job(..., *measure, **kw), through
    driftgame._spread from _SPREAD_MIN_PATHS paths up, as
    stacked_path_functionals runs one."""
    import driftgame._scan as scan
    import driftgame._spread as spread
    import driftgame.simulate as sim

    job = _hand_job(params, phi0, lower, barrier, config, *measure, **kw)
    run = scan.scan if config.n_paths < sim._SPREAD_MIN_PATHS else spread.scan
    return run(job, config.n_paths)[0]


def _manual_traj(phi, dt=0.1):
    phi = np.asarray(phi, dtype=float)
    times = np.arange(phi.size) * dt
    return Trajectory(times=times, X=np.ones_like(phi), Phi=phi)


# -- configuration validation ---------------------------------------------------

def test_config_validation(base_params):
    with pytest.raises(ValueError):
        _cfg(dt=0.0)
    with pytest.raises(ValueError):
        _cfg(dt=10.0)           # dt must be < horizon
    with pytest.raises(ValueError):
        _cfg(n_paths=0)
    with pytest.raises(ValueError):
        _cfg(seed=-1)
    with pytest.raises(ValueError):
        _cfg(seed=2**64)
    with pytest.raises(ValueError, match="horizon=inf"):
        _cfg(horizon=math.inf)
    with pytest.raises(ValueError, match="horizon/dt=inf"):
        _cfg(horizon=1e300, dt=1e-10)   # the step count overflows
    no_sum = MeasureSpec(Measure.TILTED0, payoff_barriers=())
    for stride in (0, -1, 2.0, 1.5, "2"):
        with pytest.raises(ValueError, match="stride"):
            _one_measure(base_params, 0.6, 0.3, 1.0, _cfg(), no_sum, stride=stride)
    with pytest.raises(ValueError, match="payoff_barriers must be empty"):
        _one_measure(base_params, 0.6, 0.3, 1.0, _cfg(),   # the default prices one sum
                     MeasureSpec(Measure.TILTED0), stride=2)
    with pytest.raises(ValueError, match="controls off"):
        _one_measure(base_params, 0.6, 0.3, 1.0, _cfg(),
                     no_sum._replace(controls=True), stride=2)
    with pytest.raises(ValueError, match="payoff_barriers must hold it"):
        _one_measure(base_params, 0.6, 0.3, 1.0, _cfg(),
                     no_sum._replace(controls=True))
    with pytest.raises(ValueError, match="5000 steps"):
        _one_measure(base_params, 0.6, 0.3, 1.0, _cfg(), no_sum, stride=5001)


def test_stride_longer_than_a_chunk_refused_before_any_draw(base_params, monkeypatch):
    # The kernel walks whole strides in chunks of CHUNK_STEPS steps at
    # most: a stride of one chunk runs, and one step more is refused before
    # a path is drawn, though the horizon holds it.
    import driftgame._scan as scan

    no_sum = MeasureSpec(Measure.TILTED0, payoff_barriers=())
    cfg = _cfg(n_paths=3)
    assert scan.CHUNK_STEPS + 1 < cfg.n_steps
    one_chunk = _one_measure(base_params, 0.6, 0.3, 1.0, cfg, no_sum,
                             stride=scan.CHUNK_STEPS)
    assert one_chunk.tau.shape == (3,)
    monkeypatch.setattr(scan, "scan_paths", lambda *args: pytest.fail("drew a path"))
    with pytest.raises(ValueError, match=f"stride={scan.CHUNK_STEPS + 1} is longer "
                                         f"than the kernel's {scan.CHUNK_STEPS}-step"):
        _one_measure(base_params, 0.6, 0.3, 1.0, cfg, no_sum,
                     stride=scan.CHUNK_STEPS + 1)


def test_measure_spec_names_a_tilted_measure(base_params, monkeypatch):
    # The kernel scans the tilted measures only, named by member or value;
    # a pass with any other measure is refused before a path is drawn.
    import driftgame._scan as scan

    spec = MeasureSpec(Measure.TILTED1)
    by_value = _one_measure(base_params, 0.6, 0.3, 1.0, _cfg(),
                            spec._replace(measure="tilted1"))
    by_member = _one_measure(base_params, 0.6, 0.3, 1.0, _cfg(), spec)
    assert np.array_equal(by_value.stieltjes, by_member.stieltjes)
    monkeypatch.setattr(scan, "scan_paths", lambda *args: pytest.fail("drew a path"))
    for measure in (Measure.PHYSICAL, "physical", "nonsense"):
        bad = spec._replace(measure=measure)
        with pytest.raises(ValueError):
            _one_measure(base_params, 0.6, 0.3, 1.0, _cfg(), bad)
        with pytest.raises(ValueError):
            stacked_path_functionals(base_params, 0.6, 0.3, 1.0, _cfg(), (spec, bad))


@pytest.mark.parametrize("lower, barrier, match", [
    (1.5, 1.0, "lower=1.5 must lie in"), (1.0, 1.0, "lower=1.0 must lie in"),
    (0.0, 1.0, "lower=0.0 must lie in"), (-0.3, 1.0, "lower=-0.3 must lie in"),
    (0.3, 0.0, "barrier=0.0 must be positive"),
    (0.3, -1.0, "barrier=-1.0 must be positive"),
    (math.nan, 1.0, "lower=nan must lie in"),
    (0.3, math.nan, "barrier=nan must be positive"),
], ids=["above", "equal", "zero", "negative", "zero-barrier", "negative-barrier",
        "nan-lower", "nan-barrier"])
def test_thresholds_checked_before_any_draw(base_params, monkeypatch, lower,
                                            barrier, match):
    # Both entries that stop a path take its thresholds as arguments and
    # refuse a barrier that is not positive, or a lower threshold outside
    # (0, barrier), before a path is drawn.
    import driftgame._scan as scan
    import driftgame.simulate as sim

    monkeypatch.setattr(scan, "scan_paths", lambda *args: pytest.fail("drew a path"))
    monkeypatch.setattr(sim, "substream", lambda *args: pytest.fail("drew a path"))
    spec = MeasureSpec(Measure.TILTED0)
    with pytest.raises(ValueError, match=match):
        _one_measure(base_params, 0.6, lower, barrier, _cfg(), spec)
    with pytest.raises(ValueError, match=match):
        generate_trajectory(_cfg(), base_params, lower, barrier)


def test_degenerate_drift_rejected_at_model_level():
    # omega = 0 cannot be reached: the parameter class enforces mu0 < 0 < mu1
    with pytest.raises(InvalidParameters):
        ModelParams(mu0=0.0, mu1=0.0, sigma=0.5, eps=0.1)


# -- substreams -----------------------------------------------------------------

def test_substreams_are_deterministic_and_disjoint():
    a = substream(42, 7, ROLE_PATH_NOISE).standard_normal(8)
    b = substream(42, 7, ROLE_PATH_NOISE).standard_normal(8)
    c = substream(42, 8, ROLE_PATH_NOISE).standard_normal(8)
    d = substream(42, 7, ROLE_REGIME_DRAW).standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    with pytest.raises(ValueError):
        substream(-1, 0, 0)
    with pytest.raises(ValueError):
        substream(0, 2**62, 0)


# -- exact log-space stepping -----------------------------------------------------

def test_tilted0_log_increment_moments(base_params):
    # per-step mean of the log increment is (sigma omega - omega^2/2) dt,
    # checked over 1e6 draws within a 4-sigma band
    d = derive(base_params)
    dt = 1e-4
    cfg = _cfg(dt=dt, horizon=100.0)
    traj = simulate_phi(cfg, base_params, substream(3, 0, ROLE_PATH_NOISE),
                        Measure.TILTED0)
    incs = np.diff(np.log(traj.Phi))
    n = incs.size
    assert n == 1_000_000
    expected = (base_params.sigma * d.omega - d.omega**2 / 2) * dt
    assert expected == pytest.approx(-6e-4, rel=1e-12)
    band = 4.0 * d.omega * math.sqrt(dt) / math.sqrt(n)
    assert abs(incs.mean() - expected) < band


def test_tilted_drift_difference_exact(base_params):
    # common random numbers: the tilted1-tilted0 log-drift gap is omega^2 dt
    d = derive(base_params)
    dt = 1e-4
    cfg = _cfg(dt=dt, horizon=0.1)
    t0, t1 = (simulate_phi(cfg, base_params, substream(5, 0, ROLE_PATH_NOISE), m)
              for m in (Measure.TILTED0, Measure.TILTED1))
    gap = np.diff(np.log(t1.Phi)) - np.diff(np.log(t0.Phi))
    assert gap == pytest.approx(d.omega**2 * dt, rel=1e-9)
    assert d.omega**2 * dt == pytest.approx(16e-4, rel=1e-12)


def test_physical_measure_drifts(base_params):
    d = derive(base_params)
    m0, mx0 = log_drifts(base_params, d, Measure.PHYSICAL, theta=0)
    m1, mx1 = log_drifts(base_params, d, Measure.PHYSICAL, theta=1)
    assert m0 == 0.0 and m1 == d.omega**2
    assert mx0 == base_params.mu0 - base_params.sigma**2 / 2
    assert mx1 == base_params.mu1 - base_params.sigma**2 / 2
    with pytest.raises(ValueError):
        log_drifts(base_params, d, Measure.PHYSICAL, theta=None)


def test_x_and_phi_share_noise(base_params):
    # one Brownian path drives both: scaled log increments coincide
    d = derive(base_params)
    cfg = _cfg(dt=1e-3, horizon=1.0)
    traj = simulate_phi(cfg, base_params, substream(11, 0, ROLE_PATH_NOISE),
                        Measure.TILTED0)
    m_phi, m_x = log_drifts(base_params, d, Measure.TILTED0)
    noise_phi = (np.diff(np.log(traj.Phi)) - (m_phi - d.omega**2 / 2) * cfg.dt) / d.omega
    noise_x = (np.diff(np.log(traj.X)) - m_x * cfg.dt) / base_params.sigma
    assert noise_phi == pytest.approx(noise_x, abs=1e-12)


# -- Skorokhod reflection ---------------------------------------------------------

def test_reflection_no_barrier_contact():
    traj = _manual_traj([0.5, 0.6, 0.4, 0.7, 0.2])
    r = reflect(traj, barrier=1.0)
    assert np.array_equal(r.PhiB, traj.Phi)
    assert np.all(r.Gamma == 0.0)
    assert np.all(r.L == 0.0)


def test_reflection_initial_jump():
    # starting above the barrier: Gamma_0 = 1 - B/phi0, PhiB_0 = B
    r = reflect(_manual_traj([2.0, 2.0, 2.0]), barrier=1.0)
    assert r.Gamma[0] == pytest.approx(0.5, rel=1e-14)
    assert r.PhiB[0] == 1.0
    assert r.L[0] == 0.0


def test_reflection_monotone_path_hand_computed():
    # monotone increasing path: PhiB pins at the barrier and
    # Gamma_k = 1 - B/Phi_k once above it
    phi = np.array([0.5, 0.9, 1.2, 2.0, 5.0])
    r = reflect(_manual_traj(phi), barrier=1.0)
    assert r.PhiB == pytest.approx([0.5, 0.9, 1.0, 1.0, 1.0], rel=1e-14)
    assert r.Gamma == pytest.approx([0.0, 0.0, 1 - 1 / 1.2, 0.5, 0.8], rel=1e-13)
    # L = B log(max Phi / B) for this path
    assert r.L == pytest.approx([0.0, 0.0, math.log(1.2), math.log(2.0),
                                 math.log(5.0)], rel=1e-13)


def test_reflection_identities_on_simulated_path(base_params):
    sol = build_solution(base_params)
    cfg = _cfg(dt=1e-3, horizon=5.0)
    traj = simulate_phi(cfg, base_params, substream(17, 0, ROLE_PATH_NOISE),
                        Measure.TILTED1)
    r = reflect(traj, sol.B)
    # the product identity holds to an ulp of Phi at every step
    assert np.all(np.abs(r.PhiB - r.Phi * (1.0 - r.Gamma)) <= r.Phi * 1e-15)
    assert np.all(r.PhiB <= sol.B)                  # exact barrier bound
    assert r.PhiB[0] == min(derive(base_params).phi0, sol.B)
    assert np.all(np.diff(r.Gamma) >= 0.0)
    assert r.Gamma.max() < 1.0
    assert np.all(np.diff(r.L) >= 0.0) and r.L[0] == 0.0
    # Gamma recovered from the local time
    assert r.Gamma == pytest.approx(
        1.0 - (1.0 - r.Gamma[0]) * np.exp(-r.L / sol.B), abs=1e-12)
    # L increases only where the reflected path sits at the barrier
    inc = np.diff(r.L) > 0.0
    assert np.all(r.PhiB[1:][inc] >= sol.B * (1 - 1e-9))
    assert np.array_equal(r.PiStar, r.PhiB / (1.0 + r.PhiB))


def test_reflection_is_idempotent(base_params):
    sol = build_solution(base_params)
    cfg = _cfg(dt=1e-3, horizon=3.0)
    r = reflect(simulate_phi(cfg, base_params, substream(19, 0, ROLE_PATH_NOISE),
                             Measure.TILTED1), sol.B)
    again = reflect(_manual_traj(r.PhiB), sol.B)
    assert np.array_equal(again.PhiB, r.PhiB)
    assert np.all(again.Gamma == 0.0)
    assert np.all(again.L == 0.0)


def test_reflection_is_measure_independent(base_params):
    # identical Phi arrays produce identical outputs whatever generated them
    traj = simulate_phi(_cfg(), base_params, substream(23, 0, ROLE_PATH_NOISE),
                        Measure.TILTED0)
    relabeled = dataclasses.replace(traj, theta=1)
    a = reflect(traj, 0.9)
    b = reflect(relabeled, 0.9)
    assert np.array_equal(a.PhiB, b.PhiB)
    assert np.array_equal(a.Gamma, b.Gamma)
    assert np.array_equal(a.L, b.L)


# -- hitting ----------------------------------------------------------------------

def test_first_hit_immediate():
    r = reflect(_manual_traj([0.2, 0.25, 0.3]), barrier=1.0)
    t, censored = stop_at_lower(r, 0.3)
    assert not censored
    assert t.times.tolist() == [0.0]


def test_first_hit_grid_crossing():
    r = reflect(_manual_traj([0.9, 0.7, 0.5, 0.3, 0.2], dt=0.1), barrier=1.0)
    t, censored = stop_at_lower(r, 0.3)
    assert not censored
    assert t.times[-1] == pytest.approx(0.3)


def test_first_hit_censored_and_errors():
    r = reflect(_manual_traj([0.9, 0.8, 0.9]), barrier=1.0)
    t, censored = stop_at_lower(r, 0.1)
    assert censored
    assert t.times.size == r.times.size
    with pytest.raises(ValueError):
        stop_at_lower(_manual_traj([0.5]), 0.1)   # not reflected yet
    with pytest.raises(ValueError):
        stop_at_lower(r, 2.0)                     # lower above barrier


def test_censored_fraction_small_at_base_case(base_params):
    sol = build_solution(base_params)
    cfg = SimConfig(dt=1e-3, horizon=50.0, n_paths=2_000, seed=12)
    pf = _one_measure(base_params, sol.B, sol.A, sol.B, cfg,
                      MeasureSpec(Measure.TILTED0))
    assert pf.censored.mean() < 1e-3


# -- trajectories end to end -------------------------------------------------------

def test_generate_trajectory_deterministic(base_params):
    sol = build_solution(base_params)
    cfg = SimConfig(dt=1e-3, horizon=2.0, n_paths=1, seed=31)
    a, _ = generate_trajectory(cfg, base_params, sol.A, sol.B, path_index=4)
    b, _ = generate_trajectory(cfg, base_params, sol.A, sol.B, path_index=4)
    assert a.theta == b.theta
    for name in ("times", "X", "Phi", "PhiB", "Gamma", "L", "PiStar"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    c, _ = generate_trajectory(cfg, base_params, sol.A, sol.B, path_index=5)
    assert not np.array_equal(a.Phi, c.Phi)


def test_generate_trajectory_reports_its_stop(base_params):
    # the walk returns the censored flag of the full grid's cut
    sol = build_solution(base_params)
    flags = set()
    for horizon in (50.0, 0.02):
        cfg = SimConfig(dt=1e-3, horizon=horizon, n_paths=1, seed=31)
        for i in range(3):
            traj, censored = generate_trajectory(cfg, base_params, sol.A, sol.B, i)
            want, want_censored = _full_grid_stop(cfg, base_params, sol.A, sol.B, i)
            assert censored == want_censored
            assert traj.times.size == want.times.size
            flags.add(censored)
    assert flags == {False, True}


def _full_grid_stop(cfg, params, lower, barrier, path_index):
    """The physical path on its whole grid, reflected, then cut at the
    stop.  The grid runs on past the stop, where Phi may overflow or
    underflow."""
    regime = substream(cfg.seed, path_index, ROLE_REGIME_DRAW)
    theta = int(regime.random() < params.prior)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        traj = simulate_phi(cfg, params,
                            substream(cfg.seed, path_index, ROLE_PATH_NOISE),
                            Measure.PHYSICAL, theta)
        return stop_at_lower(reflect(traj, barrier), lower)


def _doublings(step, walk_start):
    """How often the walk's prefix of walk_start draws doubles before it
    holds the given step (1-based)."""
    j, size = 0, walk_start
    while step > size:
        j, size = j + 1, size * 2
    return j


# study-range parameter sets (mu0, mu1, sigma, eps, prior)
_STUDY_SETS = ((-1.0, 1.0, 0.5, 0.1, 0.35), (-2.4, 0.64, 0.55, 0.13, 0.83),
               (-0.3, 2.2, 1.8, 0.04, 0.2), (-1.7, 0.3, 0.3, 0.35, 0.6))


@pytest.mark.parametrize("walk_start", [1024, 16, 1])
def test_path_walk_matches_full_grid_slice(monkeypatch, walk_start):
    # generate_trajectory doubles its prefix of draws up to the stop; it
    # must give the full grid's cut bit for bit, wherever the stop falls
    import driftgame.simulate as sim

    monkeypatch.setattr(sim, "_WALK_START", walk_start)
    doublings, thetas, censored_seen = set(), set(), 0
    cases = []
    for mu0, mu1, sigma, eps, prior in _STUDY_SETS:
        params = ModelParams(mu0=mu0, mu1=mu1, sigma=sigma, eps=eps, prior=prior)
        sol = build_solution(params)
        cases += [(params, sol, SimConfig(dt=1e-3, horizon=50.0, n_paths=1, seed=5), i)
                  for i in range(4)]
        cases += [(params, sol, SimConfig(dt=1e-5, horizon=0.5, n_paths=1, seed=6), i)
                  for i in range(4)]
        cases += [(params, sol, SimConfig(dt=1e-5, horizon=0.02, n_paths=1, seed=7), i)
                  for i in range(2)]
    for params, sol, cfg, i in cases:
        want, censored = _full_grid_stop(cfg, params, sol.A, sol.B, i)
        got, _ = generate_trajectory(cfg, params, sol.A, sol.B, i)
        assert (got.theta, got.barrier) == (want.theta, want.barrier)
        for name in ("times", "X", "Phi", "PhiB", "Gamma", "L", "PiStar"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
        censored_seen += censored
        thetas.add(got.theta)
        if not censored and cfg.dt == 1e-5:
            doublings.add(_doublings(want.times.size - 1, walk_start))
    assert censored_seen and thetas == {0, 1}
    # stops in the first prefix and after a doubling; from a short first
    # prefix, after many different numbers of doublings
    assert {0, 1} <= doublings if walk_start == 1024 else len(doublings) >= 4


def test_path_walk_warns_nowhere_past_its_stop():
    # The walk's prefix may run up to one doubling past the stop.  At these
    # parameters Phi overflows near t = 30 when theta = 1, so a stop late
    # enough would take the prefix there and warn; 200 walks stop well
    # before.
    params = ModelParams(mu0=-1.7, mu1=0.3, sigma=0.3, eps=0.35, prior=0.6)
    sol = build_solution(params)
    cfg = SimConfig(dt=1e-3, horizon=50.0, n_paths=1, seed=5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for i in range(200):
            _, censored = generate_trajectory(cfg, params, sol.A, sol.B, i)
            assert not censored


def test_kernel_matches_trajectory_hits(base_params):
    sol = build_solution(base_params)
    phi0 = derive(base_params).phi0
    cfg = SimConfig(dt=1e-3, horizon=10.0, n_paths=30, seed=99)
    pf = _one_measure(base_params, phi0, sol.A, sol.B, cfg,
                      MeasureSpec(Measure.TILTED0))
    for i in range(cfg.n_paths):
        traj = reflect(simulate_phi(cfg, base_params, substream(99, i, ROLE_PATH_NOISE),
                                    Measure.TILTED0), sol.B)
        stopped, censored = stop_at_lower(traj, sol.A)
        assert pf.censored[i] == censored
        if not censored:
            assert pf.tau[i] == stopped.times[-1]


# control exponents of the bitwise tests: one of each sign, near the
# reflected controls' (0.89, -0.14) at the base case
BETAS = (0.9, -0.15)


def _one_barrier_pass(params, phi0, lower, barrier, config, measure, rate, weight_phi,
                      barrier_pay, first=0, betas=()):
    """Reference: the kernel one whole path at a time under measure, for a
    single payoff barrier and with every float operation of the fused pass, for paths
    first, first + 1, ...  The log ratio is z0 plus the running sum of the
    path's increments, on a prefix of its draws that doubles until it holds
    the stop, and the Stieltjes sum and each control exponent's sum add
    their terms one by one to their time-zero values, in step order.
    Returns (tau, censored, r_pay_end, stieltjes, z_end, control_sums),
    control_sums one row per exponent of betas."""
    d = derive(params)
    m_phi, _ = log_drifts(params, d, measure)
    c_drift = (m_phi - 0.5 * d.omega**2) * config.dt
    c_noise = d.omega * math.sqrt(config.dt)
    z0, z_hit = math.log(phi0), math.log(barrier)
    z_pay, z_lo = math.log(barrier_pay), math.log(lower)
    same = z_pay == z_hit
    n, dt, k_max = config.n_paths, config.dt, config.n_steps
    tau = np.full(n, np.nan)
    cens = np.zeros(n, dtype=bool)
    r_end, stj, z_end = np.empty(n), np.empty(n), np.empty(n)
    beta = np.array(betas)
    ctl = np.empty((beta.size, n))
    r_hit = max(0.0, z0 - z_hit)
    r_pay = r_hit if same else max(0.0, z0 - z_pay)
    g = -math.expm1(-r_pay)
    sti0 = phi0 * g if weight_phi else g
    ctl0 = np.expm1(beta * r_hit)   # R jumps from 0 to r_hit at t = 0
    for p in range(n):
        if z0 - r_hit <= z_lo:
            tau[p], r_end[p], stj[p] = 0.0, r_pay, sti0
            z_end[p] = z0
            ctl[:, p] = ctl0
            continue
        rng = substream(config.seed, first + p, ROLE_PATH_NOISE)
        xi = rng.standard_normal(min(1024, k_max))
        while True:
            z = np.cumsum(c_drift + c_noise * xi)
            z += z0
            rh = np.maximum.accumulate(np.maximum(z - z_hit, r_hit))
            hit = z - rh <= z_lo
            if hit.any() or xi.size == k_max:
                break
            xi = np.concatenate((xi, rng.standard_normal(min(xi.size, k_max - xi.size))))
        end = int(hit.argmax()) + 1 if hit.any() else k_max
        rp = rh[:end] if same else \
            np.maximum.accumulate(np.maximum(z[:end] - z_pay, r_pay))
        rp_prev = np.concatenate(([r_pay], rp[:-1]))
        idx = (rp > rp_prev).nonzero()[0]
        lw = rate * dt * (1.0 + idx) - rp_prev[idx]
        if weight_phi:
            lw += z[idx]
        sti = sti0
        for term in (np.exp(lw) * -np.expm1(rp_prev[idx] - rp[idx])).tolist():
            sti += term
        # each control sum: e^{rate t}(e^{beta dR} - 1) where the stop
        # barrier's reflection R grows, times e^{-R_{k-1}} without the
        # Phi weight
        rh_prev = np.concatenate(([r_hit], rh[:end - 1]))
        up = (rh[:end] > rh_prev).nonzero()[0]
        log_w = rate * dt * (1.0 + up)
        if not weight_phi:
            log_w = log_w - rh_prev[up]
        ctl_terms = np.exp(log_w) * np.expm1(beta[:, None] * (rh[up] - rh_prev[up]))
        for i, row in enumerate(ctl_terms.tolist()):
            total = ctl0[i]
            for term in row:
                total += term
            ctl[i, p] = total
        cens[p] = not hit.any()
        if not cens[p]:
            tau[p] = end * dt
        r_end[p], stj[p] = rp[-1], sti
        z_end[p] = z[end - 1]   # the stop, or the last step of a censored path
    return tau, cens, r_end, stj, z_end, ctl


def test_fused_pass_matches_one_pass_per_barrier(base_params):
    # One scan that prices several payoff barriers is bitwise equal to one
    # pass per barrier: tilted0 with the Phi weight and tilted1, barriers
    # below and above B, a repeated level, a level no path reaches, paths
    # of more than 1024 steps, paths censored at a short horizon, a start
    # above B (time-zero jump of every barrier below phi0), and starts
    # exactly at B and exactly on the payoff barrier 0.75 B, where that
    # barrier's reflection starts at 0.
    sol = build_solution(base_params)
    barriers = [m * sol.B for m in (1.0, 0.5, 0.75, 1.25, 1.5, 2.0, 1.25, 50.0)]
    cases = [(Measure.TILTED0, True, 0.6, 10.0),
             (Measure.TILTED1, False, 0.6, 10.0),
             (Measure.TILTED1, False, 0.6, 0.15),
             (Measure.TILTED0, True, 1.7 * sol.B, 0.15),
             (Measure.TILTED0, True, sol.B, 10.0),
             (Measure.TILTED1, False, barriers[2], 10.0)]
    for measure, weight_phi, phi0, horizon in cases:
        cfg = SimConfig(dt=1e-4, horizon=horizon, n_paths=64, seed=7)
        rate = base_params.mu0 if measure is Measure.TILTED0 else base_params.mu1
        fused = _hand_pass(base_params, phi0, sol.A, sol.B, cfg, measure, rate,
                           weight_phi, barriers, BETAS)
        assert fused.tau.shape == fused.censored.shape == (64,)
        assert fused.stieltjes.shape == fused.r_pay_end.shape == (len(barriers), 64)
        assert fused.control_sums.shape == (len(BETAS), 64)
        # some paths take over 1024 steps; the short horizon censors some
        assert np.any(np.nan_to_num(fused.tau, nan=horizon) > 1024 * cfg.dt)
        assert fused.censored.any() == (horizon < 1.0)
        for i, bpay in enumerate(barriers):
            tau, cens, r_end, stj, z_end, ctl = _one_barrier_pass(
                base_params, phi0, sol.A, sol.B, cfg, measure, rate, weight_phi, bpay,
                betas=BETAS)
            assert np.array_equal(fused.tau, tau, equal_nan=True)
            assert np.array_equal(fused.censored, cens)
            assert np.array_equal(fused.r_pay_end[i], r_end)
            assert np.array_equal(fused.stieltjes[i], stj)
            assert np.array_equal(fused.z_end, z_end)
            assert np.array_equal(fused.control_sums, ctl)


def test_many_payoff_barriers_in_one_pass(base_params):
    # 300 payoff barriers give more (barrier, slot) keys than a signed
    # 2-byte integer holds, 600 more than an unsigned one; the first, a
    # middle and the last barrier are bitwise equal to one pass each.
    sol = build_solution(base_params)
    cfg = SimConfig(dt=1e-3, horizon=3.0, n_paths=6, seed=21)
    for n_barriers in (300, 600):
        barriers = list(np.linspace(0.5, 2.0, n_barriers) * sol.B)
        got = _hand_pass(base_params, 0.6, sol.A, sol.B, cfg, Measure.TILTED1,
                         base_params.mu1, True, barriers)
        assert got.stieltjes.shape == (n_barriers, cfg.n_paths)
        for i in (0, n_barriers // 2, n_barriers - 1):
            tau, cens, r_end, stj, z_end, _ = _one_barrier_pass(
                base_params, 0.6, sol.A, sol.B, cfg, Measure.TILTED1, base_params.mu1,
                True, barriers[i])
            assert np.array_equal(got.tau, tau, equal_nan=True)
            assert np.array_equal(got.censored, cens)
            assert np.array_equal(got.r_pay_end[i], r_end)
            assert np.array_equal(got.stieltjes[i], stj)
            assert np.array_equal(got.z_end, z_end)
            assert (stj > 0.0).any()   # a level some path prices


def test_batched_scan_matches_one_pass_per_barrier(base_params):
    # The lane scan is bitwise equal to one pass per path and barrier,
    # control sums included: 300 paths (more than the lanes, not a multiple
    # of them), paths of over 7168 steps (at dt 1e-5), a horizon of 3001
    # steps that ends inside a chunk and censors some paths, starts above B
    # and at A, paths from a nonzero index scanned by scan_paths directly
    # into their own slots, and a stop barrier that is not the first payoff
    # barrier and comes twice.
    import driftgame._scan as scan

    sol = build_solution(base_params)
    barriers = [sol.B, 0.75 * sol.B, 1.5 * sol.B]
    n = 300
    cases = [(Measure.TILTED1, False, 0.6, 1e-5, 10.0, 0, barriers),
             (Measure.TILTED1, True, 1.7 * sol.B, 1e-4, 0.3001, 1000, barriers),
             (Measure.TILTED1, True, sol.A, 1e-4, 10.0, 77, barriers),
             (Measure.TILTED0, True, 0.6, 1e-5, 10.0, 5, barriers),
             (Measure.TILTED1, False, 0.6, 1e-4, 10.0, 3,
              [0.75 * sol.B, sol.B, 1.5 * sol.B, sol.B])]
    for measure, weight_phi, phi0, dt, horizon, lo, barriers in cases:
        cfg = SimConfig(dt=dt, horizon=horizon, n_paths=n, seed=11)
        rate = base_params.mu0 if measure is Measure.TILTED0 else base_params.mu1
        job = _hand_job(base_params, phi0, sol.A, sol.B, cfg, measure, rate,
                        weight_phi, barriers, BETAS)
        (slots,) = scan.unscanned(job, lo + n)
        scan.scan_paths(job, (slots,), range(lo, lo + n))
        # the slots below lo keep unscanned's time-zero state: NaN, or the
        # stop at t = 0 of a start at A
        (below,) = scan.unscanned(job, lo)
        _assert_same_bits(PathFunctionals(**{
            field.name: getattr(slots, field.name)[..., :lo]
            for field in dataclasses.fields(slots)}), below)
        assert np.isnan(below.tau).all() == (phi0 > sol.A)
        got = PathFunctionals(**{field.name: getattr(slots, field.name)[..., lo:]
                                 for field in dataclasses.fields(slots)})
        steps = np.rint(np.where(got.censored, horizon, got.tau) / cfg.dt)
        if dt < 1e-4:
            assert steps.max() > 7168
        assert got.censored.any() == (horizon < 1.0)
        assert (got.tau == 0.0).all() == (phi0 == sol.A)
        assert not np.isnan(got.z_end).any()   # every slot written
        for i, bpay in enumerate(barriers):
            tau, cens, r_end, stj, z_end, ctl = _one_barrier_pass(
                base_params, phi0, sol.A, sol.B, cfg, measure, rate, weight_phi, bpay,
                first=lo, betas=BETAS)
            assert np.array_equal(got.tau, tau, equal_nan=True)
            assert np.array_equal(got.censored, cens)
            assert np.array_equal(got.r_pay_end[i], r_end)
            assert np.array_equal(got.stieltjes[i], stj)
            assert np.array_equal(got.z_end, z_end)
            assert np.array_equal(got.control_sums, ctl)


def test_stopped_row_prices_no_step_past_its_stop(base_params, monkeypatch):
    # A chunk prices a stopped row's payoff and control sums on its steps
    # up to the stop alone, though the row's running maximum grows again
    # later in that chunk: one chunk holds every path's whole 200-step
    # horizon, so paths stop at many steps of it and others are censored,
    # in every lane and then in 44 of them, and every field is bitwise
    # equal to one pass per path and barrier.
    import driftgame._scan as scan

    sol = build_solution(base_params)
    barriers = [sol.B, 0.75 * sol.B, 1.5 * sol.B]
    cfg = SimConfig(dt=1e-3, horizon=0.2, n_paths=scan.LANES + 44, seed=15)
    monkeypatch.setattr(scan, "CHUNK_STEPS", cfg.n_steps)
    rate = base_params.mu1
    got = _hand_pass(base_params, 0.6, sol.A, sol.B, cfg, Measure.TILTED1, rate,
                     True, barriers, BETAS)
    assert got.censored.any() and not got.censored.all()
    # the case occurs: after its stop, a path's log ratio passes the
    # running maximum it stopped at, within the horizon and so the chunk
    d = derive(base_params)
    m_phi, _ = log_drifts(base_params, d, Measure.TILTED1)
    c_drift = (m_phi - 0.5 * d.omega**2) * cfg.dt
    c_noise = d.omega * math.sqrt(cfg.dt)
    grows = 0
    for p in (~got.censored).nonzero()[0].tolist():
        xi = substream(cfg.seed, p, ROLE_PATH_NOISE).standard_normal(cfg.n_steps)
        z = np.cumsum(c_drift + c_noise * xi)
        end = round(got.tau[p] / cfg.dt)
        grows += bool(end < cfg.n_steps and z[end:].max() > z[:end].max())
    assert grows
    for i, bpay in enumerate(barriers):
        tau, cens, r_end, stj, z_end, ctl = _one_barrier_pass(
            base_params, 0.6, sol.A, sol.B, cfg, Measure.TILTED1, rate, True, bpay,
            betas=BETAS)
        assert np.array_equal(got.tau, tau, equal_nan=True)
        assert np.array_equal(got.censored, cens)
        assert np.array_equal(got.r_pay_end[i], r_end)
        assert np.array_equal(got.stieltjes[i], stj)
        assert np.array_equal(got.z_end, z_end)
        assert np.array_equal(got.control_sums, ctl)


def test_lane_scan_ignores_lane_count_and_chunk_length(base_params, monkeypatch):
    # One lane, 7 lanes in chunks of 5 and of 40 steps, and one lane in
    # default chunks give the same bits as the default lanes and chunks:
    # 60 paths, and 300, more than the default lanes; three payoff
    # barriers with the Phi weight and two control sums, a start above B, a
    # horizon that censors some paths and one of 50 steps, shorter than a
    # default chunk, so that a chunk stops at the oldest row's horizon
    # while younger rows go on; and a stride-7 pass, whose chunks are whole
    # strides and so at least one (7 and 35 steps, at CHUNK_STEPS 7 and 40).
    import driftgame._scan as scan

    sol = build_solution(base_params)
    barriers = [sol.B, 0.75 * sol.B, 1.5 * sol.B]
    geometries = ((scan.LANES, scan.CHUNK_STEPS), (7, 5), (7, 40), (1, scan.CHUNK_STEPS))
    # the short horizon's 50 steps are fewer than one default chunk's
    assert 50 < scan.CHUNK_STEPS
    assert scan.LANES < 300 < 2 * scan.LANES
    for phi0, horizon, n in ((0.6, 0.1501, 60), (1.7 * sol.B, 0.1501, 60),
                             (0.4, 0.005, 60), (0.6, 0.1501, 300)):
        cfg = SimConfig(dt=1e-4, horizon=horizon, n_paths=n, seed=12)
        for bpays, betas, stride in ((barriers, BETAS, 1), ((), (), 7)):
            runs = []
            for lanes, steps in geometries:
                monkeypatch.setattr(scan, "LANES", lanes)
                monkeypatch.setattr(scan, "CHUNK_STEPS", max(steps, stride))
                runs.append(_hand_pass(
                    base_params, phi0, sol.A, sol.B, cfg, Measure.TILTED1,
                    base_params.mu1, True, bpays, betas, stride))
            assert runs[0].censored.any() and not runs[0].censored.all()
            assert runs[0].control_sums.shape == (len(betas), cfg.n_paths)
            for run in runs[1:]:
                for field in dataclasses.fields(runs[0]):
                    assert np.array_equal(getattr(run, field.name),
                                          getattr(runs[0], field.name), equal_nan=True)


def test_scan_after_a_failed_scan_is_unchanged(base_params, monkeypatch):
    # A scan that raises midway leaves the thread's reused scratch behind;
    # the next scan gives the same bits as one before it.
    import driftgame._scan as scan

    sol = build_solution(base_params)
    cfg = SimConfig(dt=1e-4, horizon=1.0, n_paths=40, seed=13)
    measure = (Measure.TILTED1, base_params.mu1, True)
    before = _hand_pass(base_params, sol.B, sol.A, sol.B, cfg, *measure)
    with monkeypatch.context() as patch:
        patch.setattr(scan, "_cuts", lambda rows, bounds: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            _hand_pass(base_params, sol.B, sol.A, sol.B, cfg, *measure)
    after = _hand_pass(base_params, sol.B, sol.A, sol.B, cfg, *measure)
    assert np.array_equal(after.stieltjes, before.stieltjes)


def test_helper_process_matches_serial_scan(base_params, monkeypatch,
                                           helper_switch):
    # Paths scanned by the helper process land bit-identically in their
    # slots: path counts not a multiple of the chunk and below two chunks,
    # censored paths, starts above B and at A, three payoff barriers with
    # the Phi weight, control sums on every stride-1 pass (tilted1's
    # without the Phi weight at mu1, as in mc, from below and above B),
    # and a stride-3 pass.  No helper is left running.
    import driftgame._spread as spread
    import driftgame.simulate as sim

    monkeypatch.setattr(sim, "_SPREAD_MIN_PATHS", 100)
    sol = build_solution(base_params)
    chunk = spread.CHUNK_PATHS
    barriers = [sol.B, 0.75 * sol.B, 1.5 * sol.B]
    cases = [(3 * chunk - 84, Measure.TILTED0, 0.6, 10.0, True, None, 1),
             (chunk + 72, Measure.TILTED1, 0.6, 10.0, False, None, 1),
             (chunk + 72, Measure.TILTED1, 0.6, 0.15, False, None, 1),
             (chunk + 72, Measure.TILTED0, 1.7 * sol.B, 10.0, True, None, 1),
             (chunk + 72, Measure.TILTED1, 1.7 * sol.B, 10.0, False, None, 1),
             (chunk + 72, Measure.TILTED0, sol.A, 10.0, False, None, 1),
             (chunk + 72, Measure.TILTED1, 0.6, 10.0, True, barriers, 1),
             (chunk + 72, Measure.TILTED0, 0.6, 10.0, False, (), 3)]
    for n, measure, phi0, horizon, weight_phi, bpays, stride in cases:
        cfg = SimConfig(dt=1e-3, horizon=horizon, n_paths=n, seed=5)
        rate = base_params.mu0 if measure is Measure.TILTED0 else base_params.mu1
        runs = []
        for on in (False, True):
            helper_switch.set(on)
            runs.append(_hand_pass(base_params, phi0, sol.A, sol.B, cfg, measure, rate,
                                   weight_phi, bpays, BETAS if stride == 1 else (),
                                   stride))
        # a start at A stops every path at t = 0: no chunk is claimed
        assert (helper_switch.helper_chunks >= 1) == (phi0 != sol.A)
        serial, split = runs
        assert not np.isnan(split.z_end).any()   # every slot written
        assert split.control_sums.shape[0] == (len(BETAS) if stride == 1 else 0)
        for field in dataclasses.fields(serial):
            assert np.array_equal(getattr(split, field.name),
                                  getattr(serial, field.name), equal_nan=True)
        assert serial.censored.any() == (horizon < 1.0)
        assert (serial.tau == 0.0).all() == (phi0 == sol.A)
    assert len(helper_switch.helpers) == len(cases)
    assert helper_switch.all_ended()


def _stacked_pairs(base_params, sol):
    """The measure pairs of the mc and deviations commands: tilted0 before
    tilted1, each with control sums (so tilted1's rows outlive the first
    measure's), and tilted1 with six payoff barriers before tilted0 with
    none."""
    six = [m * sol.B for m in (1.0, 0.5, 0.75, 1.25, 1.5, 2.0)]
    return ((MeasureSpec(Measure.TILTED0, controls=True),
             MeasureSpec(Measure.TILTED1, controls=True)),
            (MeasureSpec(Measure.TILTED1, payoff_barriers=six),
             MeasureSpec(Measure.TILTED0, payoff_barriers=())))


def test_stacked_pass_matches_one_pass_per_measure(base_params, monkeypatch,
                                                    helper_switch):
    # One pass over two measures gives each measure the bits of a pass of
    # that measure alone, in every field: the mc pair, whose control sums
    # (both measures') match the whole-path reference too, and the
    # deviations pair, starts between A and B, at B, above B and below A
    # (every path stops at time zero), paths of over 384 steps, a horizon
    # that censors some paths, 7 lanes in chunks of 5 steps, and the
    # helper process on and off.
    import driftgame._scan as scan
    import driftgame.simulate as sim

    monkeypatch.setattr(sim, "_SPREAD_MIN_PATHS", 100)
    sol = build_solution(base_params)
    for horizon in (10.0, 0.15):
        cfg = SimConfig(dt=1e-3, horizon=horizon, n_paths=300, seed=14)
        for phi0 in ((sol.A + sol.B) / 2, sol.B, 1.5 * sol.B, sol.A / 2):
            for specs in _stacked_pairs(base_params, sol):
                helper_switch.set(False)
                alone = [_one_measure(base_params, phi0, sol.A, sol.B, cfg, spec)
                         for spec in specs]
                for spec, pf in zip(specs, alone):
                    if spec.controls:
                        ctl = _one_barrier_pass(
                            base_params, phi0, sol.A, sol.B, cfg, spec.measure,
                            discount_rate(base_params, spec.measure),
                            spec.measure is Measure.TILTED0, sol.B,
                            betas=reflected_betas(base_params, spec.measure, cfg.dt))[5]
                        assert np.array_equal(pf.control_sums, ctl)
                assert alone[0].censored.any() == (horizon < 1.0 and phi0 > sol.A)
                assert (alone[0].tau == 0.0).all() == (phi0 < sol.A)
                if horizon > 1.0 and phi0 > sol.A:
                    assert max(np.nanmax(pf.tau) for pf in alone) > 384 * cfg.dt
                for on, tiny, n in ((False, False, 300), (True, False, 300),
                                    (False, True, 40)):
                    with monkeypatch.context() as patch:
                        if tiny:
                            patch.setattr(scan, "LANES", 7)
                            patch.setattr(scan, "CHUNK_STEPS", 5)
                        helper_switch.set(on)
                        got = stacked_path_functionals(
                            base_params, phi0, sol.A, sol.B,
                            dataclasses.replace(cfg, n_paths=n), specs)
                    if on:   # no chunk claimed where every path stops at t = 0
                        assert (helper_switch.helper_chunks >= 1) == (phi0 > sol.A)
                    assert len(got) == len(specs)
                    for one, ref in zip(got, alone):
                        for field in dataclasses.fields(ref):
                            assert np.array_equal(getattr(one, field.name),
                                                  getattr(ref, field.name)[..., :n],
                                                  equal_nan=True), (on, tiny, field.name)
    assert len(helper_switch.helpers) == 2 * 4 * 2
    assert helper_switch.all_ended()


def test_a_measure_fixes_its_pricing(base_params, monkeypatch):
    # A MeasureSpec names its measure, payoff barriers and whether it
    # prices controls, nothing more.  Each pass of mc and deviations, from
    # below and above B, gives the bits of a ScanJob built by hand from its
    # measures alone: discounted at mu_theta, with the Phi weight under
    # tilted0 only, and with the reflected roots as control exponents only
    # where the spec asks for controls.
    import driftgame._scan as scan
    import driftgame.verify as verify

    assert MeasureSpec._fields == ("measure", "payoff_barriers", "controls")
    passes = []

    def recording(params, phi0, lower, barrier, config, specs):
        passes.append((phi0, config, specs))
        return stacked_path_functionals(params, phi0, lower, barrier, config, specs)

    monkeypatch.setattr(verify, "stacked_path_functionals", recording)
    sol = build_solution(base_params)
    cfg = SimConfig(dt=1e-3, horizon=10.0, n_paths=300, seed=16)
    for phi0 in (0.6, 1.5 * sol.B):
        verify.mc_oracle_suite(sol, phi0, cfg)
        verify.deviations_player2(sol, [m * sol.B for m in (0.5, 1.5)], phi0, cfg)
    assert len(passes) == 4
    for phi0, config, specs in passes:
        got = stacked_path_functionals(base_params, phi0, sol.A, sol.B, config, specs)
        measures = []
        for spec in specs:
            tilted0 = spec.measure is Measure.TILTED0
            measures += _hand_job(
                base_params, phi0, sol.A, sol.B, config, spec.measure,
                base_params.mu0 if tilted0 else base_params.mu1, tilted0,
                spec.payoff_barriers, reflected_betas(base_params, spec.measure, config.dt)
                if spec.controls else ()).measures
        job = _hand_job(base_params, phi0, sol.A, sol.B, config, Measure.TILTED0, 0.0,
                        False)._replace(measures=tuple(measures))
        want = scan.scan(job, config.n_paths)
        assert [out.control_sums.shape[0] for out in want] == \
            [2 * spec.controls for spec in specs]
        for one, ref in zip(got, want):
            for field in dataclasses.fields(ref):
                assert np.array_equal(getattr(one, field.name), getattr(ref, field.name),
                                      equal_nan=True), field.name


def test_stacked_pass_refuses_measures_of_other_paths(base_params):
    # One config gives the paths of every measure of a pass; a pass with
    # no measure is refused.
    sol = build_solution(base_params)
    cfg = SimConfig(dt=1e-3, horizon=1.0, n_paths=10, seed=3)
    one = MeasureSpec(Measure.TILTED1, payoff_barriers=())
    other = one._replace(measure=Measure.TILTED0)
    assert len(stacked_path_functionals(base_params, 0.6, sol.A, sol.B, cfg,
                                        (one, other))) == 2
    with pytest.raises(ValueError, match="at least one measure"):
        stacked_path_functionals(base_params, 0.6, sol.A, sol.B, cfg, ())


def _one_barrier_job(seed=5):
    """A one-measure ScanJob of 1000 steps whose paths a test can scan."""
    import driftgame._scan as scan

    return scan.ScanJob(
        seed=seed, phi0=0.6, c_noise=0.1, k_max=1000, dt=1e-3, z_hit=0.0, z_lo=-1.0,
        measures=(scan.ScanMeasure(c_drift=0.0, rate=0.5, weight_phi=False,
                                   z_pays=(-0.2,)),))


def _assert_same_bits(got, want):
    for field in dataclasses.fields(want):
        assert np.array_equal(getattr(got, field.name), getattr(want, field.name),
                              equal_nan=True), field.name


@pytest.mark.parametrize("failure", ["raise", "exit"])
def test_failed_helper_leaves_its_pass_to_the_caller(monkeypatch, helper_switch,
                                                      failure):
    # The helper fails on the chunk it takes, by raising or by exiting
    # with a non-zero status; the caller scans the whole pass again and
    # returns the serial bits, not the helper's unscanned slots.
    import driftgame._scan as scan
    import driftgame._spread as spread

    job = _one_barrier_job()
    (serial,) = scan.scan(job, 300)
    caller, real_scan = os.getpid(), scan.scan_paths

    def failing_helper(job, outs, paths):
        if os.getpid() == caller:
            return real_scan(job, outs, paths)
        next(paths)   # its first chunk claimed
        if failure == "exit":
            os._exit(3)
        raise ValueError("the helper failed")

    helper_switch.set(True)
    monkeypatch.setattr(scan, "scan_paths", failing_helper)
    (split,) = spread.scan(job, 300)
    assert helper_switch.helper_chunks >= 1
    assert helper_switch.all_ended()
    _assert_same_bits(split, serial)


def test_bad_seed_raises_in_every_process(helper_switch):
    # A pass whose seed the kernel refuses fails in both processes, before
    # either claims a chunk; the caller raises the kernel's own ValueError,
    # as a serial pass does.
    import driftgame._spread as spread

    helper_switch.set(True)
    with pytest.raises(ValueError, match="outside"):
        spread.scan(_one_barrier_job(seed=2**64), 300)
    assert helper_switch.helper_chunks == 0
    assert len(helper_switch.helpers) == 1
    assert helper_switch.all_ended()


def test_split_pass_stopped_at_time_zero_claims_no_chunk(base_params, monkeypatch,
                                                         helper_switch):
    # A start below A stops every path at t = 0, and unscanned writes that
    # stop whole: neither the caller nor the helper claims a queue chunk,
    # and the split pass gives the serial bits under both measures of mc.
    import driftgame._spread as spread
    import driftgame.simulate as sim
    import driftgame.verify as verify

    monkeypatch.setattr(sim, "_SPREAD_MIN_PATHS", 100)
    caller, switch_claim, caller_claims = os.getpid(), spread._claim, [0]

    def counting_claim(queue_r):
        index = switch_claim(queue_r)
        if os.getpid() == caller:
            caller_claims[0] += index is not None
        return index

    monkeypatch.setattr(spread, "_claim", counting_claim)
    sol = build_solution(base_params)
    cfg = SimConfig(dt=1e-3, horizon=10.0, n_paths=300, seed=19)
    runs = []
    for on in (False, True):
        helper_switch.set(on)
        runs.append(stacked_path_functionals(base_params, sol.A / 2, sol.A, sol.B, cfg,
                                             verify._ORACLE_SPECS))
    assert len(helper_switch.helpers) == 1 and helper_switch.all_ended()
    assert helper_switch.helper_chunks == 0 and caller_claims[0] == 0
    for serial, split in zip(*runs):
        assert (split.tau == 0.0).all() and (split.z_end == math.log(sol.A / 2)).all()
        _assert_same_bits(split, serial)


def test_failed_fork_scans_in_the_caller(monkeypatch, helper_switch):
    # Where no helper can be forked, or no queue pipe opened (EMFILE), the
    # caller scans every chunk itself.
    import driftgame._scan as scan
    import driftgame._spread as spread

    def no_fork():
        raise BlockingIOError("fork: resource temporarily unavailable")

    def no_pipe():
        raise OSError(errno.EMFILE, "Too many open files")

    job = _one_barrier_job()
    (serial,) = scan.scan(job, 300)
    helper_switch.set(True)
    monkeypatch.setattr(spread, "_fork", no_fork)
    (split,) = spread.scan(job, 300)
    _assert_same_bits(split, serial)
    monkeypatch.setattr(os, "pipe", no_pipe)
    (split,) = spread.scan(job, 300)
    _assert_same_bits(split, serial)
    assert not helper_switch.helpers


def test_helper_holds_no_other_descriptor(monkeypatch, helper_switch):
    # The fork copies every descriptor of the caller, such as the pipes of
    # a split pass another thread is setting up.  The helper closes all but
    # its queue's read end, so no reader of those waits on it for an end of
    # file.  It counts what it holds into memory shared with the caller.
    import driftgame._scan as scan
    import driftgame._spread as spread

    caller, real_scan = os.getpid(), scan.scan_paths
    held = np.frombuffer(mmap.mmap(-1, 8), dtype=np.int64)
    read_end, write_end = os.pipe()

    def scan_counting_descriptors(job, outs, paths):
        if os.getpid() != caller:
            listed = [int(fd) for fd in os.listdir("/proc/self/fd")]
            held[0] = sum(_is_open(fd) for fd in listed)   # not listdir's own
        real_scan(job, outs, paths)

    helper_switch.set(True)
    monkeypatch.setattr(scan, "scan_paths", scan_counting_descriptors)
    try:
        spread.scan(_one_barrier_job(), 300)
    finally:
        os.close(read_end)
        os.close(write_end)
    assert helper_switch.helper_chunks >= 1
    assert helper_switch.all_ended()
    assert held[0] == 1


def _is_open(fd: int) -> bool:
    try:
        os.fstat(fd)
    except OSError:
        return False
    return True


def test_split_passes_in_two_threads(base_params, monkeypatch, helper_switch):
    # Two threads run split passes at once, each with its own helper; each
    # result has the serial bits, and both helpers are reaped.
    import driftgame.simulate as sim

    monkeypatch.setattr(sim, "_SPREAD_MIN_PATHS", 100)
    sol = build_solution(base_params)
    cfgs = [SimConfig(dt=1e-3, horizon=10.0, n_paths=600, seed=seed)
            for seed in (8, 9)]
    spec = MeasureSpec(Measure.TILTED1)
    helper_switch.set(False)
    serial = [_one_measure(base_params, 0.6, sol.A, sol.B, cfg, spec) for cfg in cfgs]
    helper_switch.set(True)
    split = [None] * len(cfgs)

    def run(i):
        split[i] = _one_measure(base_params, 0.6, sol.A, sol.B, cfgs[i], spec)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(cfgs))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert len(helper_switch.helpers) == len(cfgs)
    assert helper_switch.all_ended()
    for one, other in zip(serial, split):
        for field in dataclasses.fields(one):
            assert np.array_equal(getattr(other, field.name),
                                  getattr(one, field.name), equal_nan=True)


def test_split_pass_returns_private_arrays(base_params, monkeypatch, helper_switch):
    # A split pass returns heap copies of its shared slots: a process the
    # caller forks later writes into its own copy of the result only.
    import driftgame._spread as spread
    import driftgame.simulate as sim

    monkeypatch.setattr(sim, "_SPREAD_MIN_PATHS", 100)
    sol = build_solution(base_params)
    cfg = SimConfig(dt=1e-3, horizon=10.0, n_paths=300, seed=10)
    helper_switch.set(True)
    pf = _one_measure(base_params, 0.6, sol.A, sol.B, cfg,
                      MeasureSpec(Measure.TILTED1))
    assert helper_switch.helper_chunks >= 1
    tau, stieltjes = pf.tau.copy(), pf.stieltjes.copy()
    pid = spread._fork()
    if pid == 0:
        try:
            pf.tau[:] = -1.0
            pf.stieltjes[:] = -1.0
        finally:
            os._exit(0)
    assert os.waitpid(pid, 0)[1] == 0
    assert np.array_equal(pf.tau, tau, equal_nan=True)
    assert np.array_equal(pf.stieltjes, stieltjes)


def test_no_payoff_barrier_keeps_the_stop(base_params, monkeypatch, helper_switch):
    # With no payoff barrier a pass prices no Stieltjes sum: r_pay_end and
    # stieltjes have no rows, and tau and z_end keep the bits of the
    # one-barrier pass, serial and split.
    import driftgame.simulate as sim

    monkeypatch.setattr(sim, "_SPREAD_MIN_PATHS", 100)
    sol = build_solution(base_params)
    cfg = SimConfig(dt=1e-3, horizon=0.05, n_paths=300, seed=6)
    spec = MeasureSpec(Measure.TILTED0)
    for on in (False, True):
        helper_switch.set(on)
        one = _one_measure(base_params, 0.6, sol.A, sol.B, cfg, spec)
        none = _one_measure(base_params, 0.6, sol.A, sol.B, cfg,
                            spec._replace(payoff_barriers=()))
        assert none.r_pay_end.shape == none.stieltjes.shape == (0, 300)
        for name in ("tau", "z_end"):
            assert np.array_equal(getattr(none, name), getattr(one, name),
                                  equal_nan=True)
    assert helper_switch.helper_chunks >= 1
    assert one.censored.any() and not one.censored.all()


def test_queue_longer_than_one_pipe(base_params, monkeypatch, helper_switch):
    # With one-path chunks, 9000 chunk records (72 000 bytes) are more than
    # one PIPE_BUF write of the queue holds: the chunks grow until their
    # records fit, and the split pass still gives the serial bits.
    import driftgame._spread as spread

    real_fill, chunk_sizes = spread._fill_queue, []

    def fill_queue(queue_w, n):
        chunk_sizes.append(real_fill(queue_w, n))
        return chunk_sizes[-1]

    monkeypatch.setattr(spread, "CHUNK_PATHS", 1)
    monkeypatch.setattr(spread, "_fill_queue", fill_queue)
    sol = build_solution(base_params)
    cfg = SimConfig(dt=1e-3, horizon=0.02, n_paths=9000, seed=7)
    runs = []
    for on in (False, True):
        helper_switch.set(on)
        runs.append(_one_measure(base_params, 0.6, sol.A, sol.B, cfg,
                                 MeasureSpec(Measure.TILTED1)))
    assert len(chunk_sizes) == 1 and chunk_sizes[0] > 1
    assert helper_switch.helper_chunks >= 1
    assert helper_switch.all_ended()
    serial, split = runs
    assert serial.censored.any() and not serial.censored.all()
    for field in dataclasses.fields(serial):
        assert np.array_equal(getattr(split, field.name),
                              getattr(serial, field.name), equal_nan=True)


def test_split_pass_refills_lanes_across_claims(base_params, monkeypatch,
                                                helper_switch):
    # With one-path queue chunks, each path a lane takes is a claim of its
    # own, so every refill of the caller's and the helper's lanes crosses a
    # _claim: the mc pair, over more paths than the lanes and with 7 lanes,
    # from between A and B and from above B, gives the serial bits.
    import driftgame._scan as scan
    import driftgame._spread as spread
    import driftgame.simulate as sim

    monkeypatch.setattr(sim, "_SPREAD_MIN_PATHS", 100)
    monkeypatch.setattr(spread, "CHUNK_PATHS", 1)
    sol = build_solution(base_params)
    specs = _stacked_pairs(base_params, sol)[0]
    cfg = SimConfig(dt=1e-3, horizon=10.0, n_paths=300, seed=17)
    for lanes in (scan.LANES, 7):
        monkeypatch.setattr(scan, "LANES", lanes)
        for phi0 in ((sol.A + sol.B) / 2, 1.5 * sol.B):
            runs = []
            for on in (False, True):
                helper_switch.set(on)
                runs.append(stacked_path_functionals(base_params, phi0, sol.A, sol.B,
                                                     cfg, specs))
            assert helper_switch.helper_chunks > 1
            for serial, split in zip(*runs):
                assert not np.isnan(split.z_end).any()   # every slot written
                _assert_same_bits(split, serial)
    assert helper_switch.all_ended()


def test_lanes_draw_little_past_the_stop(base_params, monkeypatch, helper_switch):
    # A path is drawn a chunk at a time until its last row stops, so some
    # normals lie past that stop.  On a 2048-path base-case pass of the mc
    # pair, the normals drawn (counted through the generators the stream
    # pool hands out) are less than 1.2 times those the rows need: for
    # each path, the later of its two stops' steps (or the horizon's).
    # Batches whose chunks lengthen as their paths stop draw 1.22-1.27
    # times the need here; lanes that take the next path draw 1.09-1.11.
    import driftgame._scan as scan
    import driftgame.verify as verify

    drawn = [0]

    class Counting:
        def __init__(self, gen):
            self._gen = gen

        def standard_normal(self, *, out):
            drawn[0] += out.size
            return self._gen.standard_normal(out=out)

    real_reset = scan._StreamPool.reset
    monkeypatch.setattr(scan._StreamPool, "reset",
                        lambda self, *args: Counting(real_reset(self, *args)))
    helper_switch.set(False)   # every draw in this process
    sol = build_solution(base_params)
    cfg = SimConfig(dt=1e-4, horizon=50.0, n_paths=2048, seed=424242)
    for phi0 in ((sol.A + sol.B) / 2, sol.B):
        drawn[0] = 0
        pfs = stacked_path_functionals(base_params, phi0, sol.A, sol.B, cfg,
                                       verify._ORACLE_SPECS)
        steps = [np.where(pf.censored, cfg.n_steps, np.rint(pf.tau / cfg.dt))
                 for pf in pfs]
        need = int(np.maximum(*steps).sum())
        assert need <= drawn[0] < 1.2 * need


def _child_env() -> dict:
    """The environment of a Python child process that imports this driftgame."""
    import driftgame

    src = os.path.dirname(os.path.dirname(os.path.abspath(driftgame.__file__)))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


@pytest.mark.parametrize("n", [1, 255, 256, 257, 2500, 131_071, 131_072, 131_073,
                               140_000, 10**6, 10**9 - 1, 10**9])
def test_queue_is_one_write_of_whole_batches(n):
    # Nothing reads the queue while it is filled, so its records must fit
    # in one write that an empty pipe takes whole: at most PIPE_BUF bytes.
    # The chunks are the fewest multiples of CHUNK_PATHS paths that keep to
    # that, and they cover the n paths, every index once.
    import driftgame._spread as spread

    read_end, write_end = os.pipe()
    try:
        chunk = spread._fill_queue(write_end, n)
        data = os.read(read_end, select.PIPE_BUF + 1)   # all one write put there
    finally:
        os.close(read_end)
        os.close(write_end)
    most = select.PIPE_BUF // 8
    assert len(data) <= select.PIPE_BUF
    assert chunk % spread.CHUNK_PATHS == 0
    assert (chunk == spread.CHUNK_PATHS) == (n <= most * spread.CHUNK_PATHS)
    assert chunk == spread.CHUNK_PATHS or -(-n // (chunk - spread.CHUNK_PATHS)) > most
    count = len(data) // 8
    assert np.array_equal(np.frombuffer(data, "<i8"), np.arange(count))
    assert (count - 1) * chunk < n <= count * chunk


# A caller whose pass of 500 eight-path chunks takes about 20 s, as each
# claim of a chunk waits 0.08 s: it prints its helper's pid when it forks
# it, and "reaped" at exit if no helper is left to reap.
_SLOW_CALLER = """
import atexit, os, time
import driftgame._scan as scan
import driftgame._spread as spread

real_fork, real_claim, helpers = spread._fork, spread._claim, []

def fork():
    pid = real_fork()
    if pid:
        helpers.append(pid)
        print(pid, flush=True)
    return pid

def slow_claim(queue_r):
    time.sleep(0.08)
    return real_claim(queue_r)

@atexit.register
def report():
    for pid in helpers:
        try:
            os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            print("reaped", flush=True)

spread._cpu_count, spread.CHUNK_PATHS = (lambda: 2), 1
spread._fork, spread._claim = fork, slow_claim
one = scan.ScanMeasure(c_drift=0.0, rate=0.0, weight_phi=False, z_pays=(0.0,))
job = scan.ScanJob(seed=1, phi0=0.6, c_noise=0.1, k_max=10, dt=0.1, z_hit=0.0,
                   z_lo=-1.0, measures=(one,))
spread.scan(job, 4000)
"""


def _start_slow_caller(**popen_kw):
    """A running _SLOW_CALLER process, once its helper is forked, and the
    helper's pid."""
    proc = subprocess.Popen([sys.executable, "-c", _SLOW_CALLER], env=_child_env(),
                            stdout=subprocess.PIPE, text=True, **popen_kw)
    return proc, int(proc.stdout.readline())


def _ended(pid: int) -> bool:
    """Whether process pid has exited (gone, or a zombie nobody reaped)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


def _wait_until_ended(pid: int, timeout: float) -> bool:
    deadline = time.monotonic() + timeout
    while not _ended(pid):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="forks on Linux only")
def test_helper_ends_soon_after_its_caller_dies():
    # Without its caller, the helper claims no further chunk and does not
    # scan the rest of the 20 s pass.
    proc, helper = _start_slow_caller(stderr=subprocess.DEVNULL)
    time.sleep(0.3)
    proc.kill()
    proc.wait(timeout=60)
    proc.stdout.close()   # the helper holds the pipe too: never read to its end
    assert _wait_until_ended(helper, timeout=5.0)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="forks on Linux only")
def test_interrupt_reaches_only_the_caller():
    # ^C at a terminal sends SIGINT to the whole process group: the caller
    # raises KeyboardInterrupt and reaps its helper, which ignores it.
    proc, helper = _start_slow_caller(stderr=subprocess.PIPE, start_new_session=True)
    os.kill(helper, signal.SIGINT)
    time.sleep(0.3)
    assert not _ended(helper)
    os.killpg(proc.pid, signal.SIGINT)
    out, err = proc.communicate(timeout=60)
    assert proc.returncode != 0
    assert err.count("Traceback (most recent call last)") == 1
    assert err.rstrip().endswith("KeyboardInterrupt")
    assert out.split() == ["reaped"]
    assert _wait_until_ended(helper, timeout=5.0)


def test_fork_gives_no_thread_warning():
    # Python 3.12+ warns when a process with other threads forks, and
    # numpy's BLAS pool is such a thread; the helper's fork filters that
    # warning alone.
    import driftgame._spread as spread

    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            pid = spread._fork()
            if pid == 0:
                os._exit(0)
            os.waitpid(pid, 0)
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert [str(w.message) for w in caught] == []


def test_stride_one_is_the_default_pass(base_params):
    # stride 1 is the kernel's own scan, bitwise in every field; stride 4
    # tests the stop on a coarser grid and so stops elsewhere
    sol = build_solution(base_params)
    cfg = SimConfig(dt=1e-3, horizon=10.0, n_paths=40, seed=3)
    spec = MeasureSpec(Measure.TILTED0)
    plain = stacked_path_functionals(base_params, sol.B, sol.A, sol.B, cfg, (spec,))[0]
    one = _one_measure(base_params, sol.B, sol.A, sol.B, cfg, spec, stride=1)
    for field in dataclasses.fields(plain):
        assert np.array_equal(getattr(one, field.name),
                              getattr(plain, field.name), equal_nan=True)
    four = _one_measure(base_params, sol.B, sol.A, sol.B, cfg,
                        spec._replace(payoff_barriers=()), stride=4)
    assert not np.array_equal(four.tau, plain.tau, equal_nan=True)


def test_strided_grids_subsample_one_fine_path(base_params):
    # Grid s keeps the fine steps k with k % s == 0: its stops and log
    # ratios at the stop are those of subsampling the whole fine path, bit
    # for bit.  The horizon (3073 steps) is no multiple of 3
    # or 2 and censors some paths, whose log ratio is at the last grid point.
    sol = build_solution(base_params)
    cfg = SimConfig(dt=1e-4, horizon=0.3073, n_paths=400, seed=4)
    strides = (3, 2, 1)
    spec = MeasureSpec(Measure.TILTED1, payoff_barriers=())
    runs = [_one_measure(base_params, sol.B, sol.A, sol.B, cfg, spec, stride=s)
            for s in strides]
    assert runs[0].censored.any() and not runs[0].censored.all()

    d = derive(base_params)
    m_phi, _ = log_drifts(base_params, d, Measure.TILTED1)
    z_bar, z_lo = math.log(sol.B), math.log(sol.A)
    for i in range(cfg.n_paths):
        xi = substream(cfg.seed, i, ROLE_PATH_NOISE).standard_normal(cfg.n_steps)
        z = z_bar + np.cumsum((m_phi - 0.5 * d.omega**2) * cfg.dt
                              + d.omega * math.sqrt(cfg.dt) * xi)
        for s, pf in zip(strides, runs):
            zc = z[s - 1::s]
            zr = zc - np.maximum.accumulate(np.maximum(zc - z_bar, 0.0))
            hit = zr <= z_lo
            end = int(hit.argmax()) + 1 if hit.any() else zc.size
            assert pf.censored[i] == (not hit.any())
            if hit.any():
                assert pf.tau[i] == end * s * cfg.dt
            assert pf.z_end[i] == zc[end - 1]


# -- truncation and CSV export ------------------------------------------------------

def test_truncate_at_first_hit():
    r = reflect(_manual_traj([0.9, 0.7, 0.5, 0.3, 0.2], dt=0.1), barrier=1.0)
    t, censored = stop_at_lower(r, 0.3)
    assert not censored
    assert t.times.size == 4
    assert t.PhiB[-1] <= 0.3
    for name in ("X", "Phi", "PhiB", "Gamma", "L", "PiStar"):
        assert np.array_equal(getattr(t, name), getattr(r, name)[:4])
    assert t.barrier == r.barrier
    whole, censored = stop_at_lower(r, 0.01)
    assert censored
    assert whole.times.size == r.times.size

def test_trajectory_csv(base_params):
    sol = build_solution(base_params)
    cfg = SimConfig(dt=0.5, horizon=1.0, n_paths=1, seed=2)
    traj, _ = generate_trajectory(cfg, base_params, sol.A, sol.B, 0)
    buf = io.StringIO()
    write_trajectory_csv(traj, buf, metadata={"seed": 2, "b": sol.b})
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# seed=2"
    assert lines[1].startswith("# b=0.4646989377186")
    assert lines[2] == "t,X,Phi,PhiB,PiStar,Gamma,L"
    assert len(lines) == 3 + traj.times.size
    # 17-significant-digit round trip
    row = [float(v) for v in lines[4].split(",")]
    assert row[2] == traj.Phi[1]
