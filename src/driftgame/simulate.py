"""Simulation of the likelihood-ratio process and its reflection.

The ratio Phi is geometric with constant coefficients under every measure
used here, so paths are stepped exactly in log space; the only
discretisation errors are barrier-crossing and hitting-time overshoot at
grid resolution.  The Skorokhod reflection at the upper barrier B is a
pathwise functional of Phi (measure independent): with Z = log Phi and
R_k = max(0, max_{j<=k}(Z_j - log B)), the reflected ratio is
exp(Z_k - R_k), the randomised-stopping intensity is Gamma_k = 1 - e^{-R_k},
and the local time is L_k = B (R_k - R_0).

Randomness comes from counter-based Philox substreams keyed by
(master seed, path index, stream role), so any path can be generated on
its own and bit-reproducibly, regardless of the order paths are run in.

A SimConfig gives the grid, the paths and the seed alone: each function
that simulates names its measure, and each that stops a path takes its
lower threshold and reflection barrier as arguments.  The sample-path
walk runs under the physical measure; the Monte Carlo checks run under
the tilted ones.

The Monte Carlo backend (stacked_path_functionals) streams its paths
instead of holding a grid.  One config gives the paths of a pass, and
each MeasureSpec of the pass names a tilted measure to scan them under,
which fixes how the pass prices under it.  It checks its arguments and
hands the pass as one job to the lane kernel in driftgame._scan,
which owns how a pass runs; from _SPREAD_MIN_PATHS paths up the pass
goes through driftgame._spread, which may share it with a forked helper
process.  Each step's noise is drawn once and serves every measure of
the pass.  A pass with a stride s tests the stop on every s-th step
only: the grid s times coarser on the same Brownian path, one pass per
grid of the dt-refinement study.

The sample-path walk (generate_trajectory) runs the full-grid functions
on a prefix of the path's draws that doubles until it holds the stop, so
it equals the full grid (simulate_phi, reflect) sliced at the stop, bit
for bit.  The kernel's log ratio is the same running sum with the start
added after it (_levels), so it equals the full grid's log level, bit for
bit, at every step.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .model import DerivedQuantities, ModelParams, derive

# Stream roles within a path's key space.
ROLE_PATH_NOISE = 0
ROLE_REGIME_DRAW = 2


class Measure(str, Enum):
    TILTED0 = "tilted0"     # low-regime dynamics under the discounting change of measure
    TILTED1 = "tilted1"     # high-regime dynamics under the discounting change of measure
    PHYSICAL = "physical"   # real-world dynamics; the regime is drawn from the prior


def substream(seed: int, path_index: int, role: int) -> np.random.Generator:
    """Counter-based generator for one (path, role) pair.

    The 128-bit Philox key packs the 64-bit master seed with the path index
    and role, so any path's stream can be reconstructed independently of
    all others.
    """
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed={seed} outside [0, 2^64)")
    if not 0 <= path_index < 2**62:
        raise ValueError(f"path_index={path_index} out of range")
    key = (seed << 64) | (path_index << 2) | role
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class SimConfig:
    dt: float               # time step, > 0
    horizon: float          # maximum simulated time, > dt
    n_paths: int            # number of paths, >= 1
    seed: int               # 64-bit unsigned master seed

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValueError(f"dt={self.dt} must be positive")
        if not self.dt < self.horizon:
            raise ValueError(f"dt={self.dt} must be smaller than horizon={self.horizon}")
        if not math.isfinite(self.horizon):
            raise ValueError(f"horizon={self.horizon} must be finite")
        if not math.isfinite(self.horizon / self.dt):
            raise ValueError(f"horizon/dt={self.horizon / self.dt} must be finite "
                             f"(horizon={self.horizon}, dt={self.dt})")
        if self.n_paths < 1:
            raise ValueError(f"n_paths={self.n_paths} must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed={self.seed} outside [0, 2^64)")

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.dt))


def _check_thresholds(lower: float, barrier: float) -> None:
    """Refuse barrier <= 0 and lower outside (0, barrier), NaN included."""
    if not barrier > 0.0:
        raise ValueError(f"barrier={barrier} must be positive")
    if not 0.0 < lower < barrier:
        raise ValueError(f"lower={lower} must lie in (0, barrier={barrier})")


def log_drifts(params: ModelParams, d: DerivedQuantities, measure: Measure,
               theta: int | None = None) -> tuple[float, float]:
    """Per-unit-time log drifts (m_phi, m_x) of Phi and X.

    m_phi is the geometric drift of Phi (the log of Phi advances by
    (m_phi - omega^2/2) dt per step); m_x is the drift of log X directly.
    """
    omega, sigma = d.omega, params.sigma
    if measure is Measure.TILTED0:
        return sigma * omega, params.mu0 + 0.5 * sigma**2
    if measure is Measure.TILTED1:
        return sigma * omega + omega**2, params.mu1 + 0.5 * sigma**2
    if theta not in (0, 1):
        raise ValueError("physical measure requires a regime draw theta in {0, 1}")
    mu = params.mu1 if theta else params.mu0
    return omega**2 * theta, mu - 0.5 * sigma**2


@dataclass(frozen=True)
class Trajectory:
    """One discretised path on the uniform grid times[k] = k dt.

    Phi and X are always filled; the reflection outputs (PhiB, Gamma, L,
    PiStar) appear after :func:`reflect`.  Arrays are never mutated after
    construction.
    """

    times: np.ndarray
    X: np.ndarray
    Phi: np.ndarray
    PhiB: np.ndarray | None = None
    Gamma: np.ndarray | None = None
    L: np.ndarray | None = None
    PiStar: np.ndarray | None = None
    theta: int | None = None        # regime label, physical measure only
    barrier: float | None = None    # reflection level used by reflect()


# A full path grid past this many steps is refused before any draw: 20
# times the default grid (horizon 50, dt 1e-4).  The streaming kernel
# keeps no grid and has no such limit.
_MAX_GRID_STEPS = 10**7


def _refuse_long_grid(config: SimConfig) -> None:
    n = config.n_steps
    if n > _MAX_GRID_STEPS:
        raise ValueError(f"horizon={config.horizon} / dt={config.dt} is "
                         f"{float(n):.4g} steps; a full path holds at most "
                         f"{_MAX_GRID_STEPS:.0e}")


def _levels(start: float, drift: float, scale: float, xi: np.ndarray) -> np.ndarray:
    """exp of start, then of start plus the running sum of drift + scale xi.
    start is added after the sum, so a prefix of xi gives a prefix of the
    levels, bit for bit."""
    out = np.empty(xi.size + 1)
    out[0] = start
    np.cumsum(drift + scale * xi, out=out[1:])
    out[1:] += start
    return np.exp(out)


def _grid(dt: float, params: ModelParams, measure: Measure, theta: int | None,
          xi: np.ndarray) -> Trajectory:
    """(X, Phi) under measure at grid points 0 .. xi.size of step dt,
    driven by the normal draws xi, one per step for both."""
    d = derive(params)
    m_phi, m_x = log_drifts(params, d, measure, theta)
    return Trajectory(
        times=np.arange(xi.size + 1) * dt,
        X=_levels(math.log(params.x0), m_x * dt, params.sigma * math.sqrt(dt), xi),
        Phi=_levels(math.log(d.phi0), (m_phi - 0.5 * d.omega**2) * dt,
                    d.omega * math.sqrt(dt), xi),
        theta=theta)


def simulate_phi(config: SimConfig, params: ModelParams, rng: np.random.Generator,
                 measure: Measure, theta: int | None = None) -> Trajectory:
    """Exact log-space simulation of (X, Phi) under measure on config's
    full grid.

    X and Phi are driven by the same Brownian increments, so one normal
    draw per step serves both.  Under the physical measure the caller
    supplies the regime draw theta (it belongs to a separate stream role).
    A grid of more than _MAX_GRID_STEPS steps is refused before anything
    is drawn.
    """
    _refuse_long_grid(config)
    return _grid(config.dt, params, Measure(measure), theta,
                 rng.standard_normal(config.n_steps))


# Largest double below 1: the stopping intensity is strictly below 1 on any
# finite path, and rounding must not destroy that.
_ONE_MINUS = math.nextafter(1.0, 0.0)


def reflect(traj: Trajectory, barrier: float) -> Trajectory:
    """Apply the pathwise Skorokhod map at the barrier.

    Fills PhiB, Gamma, L and PiStar; the input Phi is untouched, and the
    map only reads Phi, so it is independent of the measure that generated
    the path.  PhiB = Phi (1 - Gamma) holds to machine accuracy wherever
    1 - Gamma is itself representable; PhiB <= barrier holds exactly, and
    reflecting an already-reflected path is an exact no-op.  Every output
    is elementwise in Phi and the running maximum R, so the reflection of
    a prefix of a path is that prefix of its reflection.
    """
    if not barrier > 0.0:
        raise ValueError(f"barrier={barrier} must be positive")
    R = np.maximum.accumulate(np.maximum(np.log(traj.Phi) - math.log(barrier), 0.0))
    phi_b = np.minimum(traj.Phi * np.exp(-R), barrier)
    return dataclasses.replace(
        traj,
        PhiB=phi_b,
        Gamma=np.minimum(-np.expm1(-R), _ONE_MINUS),
        L=barrier * (R - R[0]),
        PiStar=phi_b / (1.0 + phi_b),
        barrier=barrier,
    )


# Draws of the walk's first prefix.  Of 2000 sample paths at study-range
# parameters (dt 1e-3), 99.4% stopped within 1024 steps, half by step 44.
_WALK_START = 1024


def generate_trajectory(config: SimConfig, params: ModelParams, lower: float,
                        barrier: float, path_index: int = 0) -> tuple[Trajectory, bool]:
    """Simulate one path under the physical measure with its substreams,
    the regime drawn from params.prior, reflect it at barrier and end it
    at its stop at lower.  Returns (trajectory, censored), as
    stop_at_lower does.

    The walk simulates, reflects and cuts a prefix of the path's draws,
    _WALK_START of them first, and doubles the prefix until it holds the
    first grid point where PhiB <= lower, or the whole grid (a censored
    path).  Later draws continue the path's substream, and the grid and
    its reflection are running sums and running maxima taken in step
    order, so the result equals stop_at_lower(reflect(simulate_phi(...,
    Measure.PHYSICAL, theta)), lower) bit for bit.  Bad thresholds and
    the _MAX_GRID_STEPS refusal come before any draw.  A prefix may run
    past the stop, where Phi may overflow or underflow unseen; a path
    whose Phi overflows before its stop is a FloatingPointError.
    """
    _check_thresholds(lower, barrier)
    _refuse_long_grid(config)
    regime = substream(config.seed, path_index, ROLE_REGIME_DRAW)
    theta = int(regime.random() < params.prior)
    noise = substream(config.seed, path_index, ROLE_PATH_NOISE)
    n = config.n_steps
    xi = noise.standard_normal(min(_WALK_START, n))
    while True:
        with np.errstate(over="ignore", under="ignore", divide="ignore",
                         invalid="ignore"):
            traj, censored = stop_at_lower(reflect(
                _grid(config.dt, params, Measure.PHYSICAL, theta, xi), barrier), lower)
        overflow = ~np.isfinite(traj.Phi)
        if overflow.any():
            t = traj.times[overflow.argmax()]
            raise FloatingPointError(f"Phi overflows at t={t:.6g}, before the path stops")
        if not censored or xi.size == n:
            return traj, censored
        xi = np.concatenate((xi, noise.standard_normal(min(xi.size, n - xi.size))))


def stop_at_lower(traj: Trajectory, lower: float) -> tuple[Trajectory, bool]:
    """Slice a reflected trajectory at its first grid point with
    PhiB <= lower (inclusive).  Returns (sliced trajectory, censored); a
    censored path never reaches lower and comes back whole."""
    if traj.PhiB is None:
        raise ValueError("trajectory has no reflection; call reflect() first")
    if traj.barrier is not None and not lower < traj.barrier:
        raise ValueError(f"lower={lower} must be below barrier={traj.barrier}")
    mask = traj.PhiB <= lower
    if not mask.any():
        return traj, True
    end = int(np.argmax(mask)) + 1
    return dataclasses.replace(traj, **{
        f.name: getattr(traj, f.name)[:end] for f in dataclasses.fields(traj)
        if isinstance(getattr(traj, f.name), np.ndarray)}), False


def fmt17(val) -> str:
    """A float with 17 significant digits (round-trips binary floating
    point), anything else through str()."""
    return f"{val:.17g}" if isinstance(val, float) else str(val)


def write_csv(fh, header, rows, metadata: dict | None = None) -> None:
    """Optional '# key=value' metadata lines, the header, then one line per
    row, every value through :func:`fmt17`."""
    _write_lines(fh, header, [",".join(fmt17(v) for v in row) for row in rows],
                 metadata)


def _write_lines(fh, header, lines: list, metadata: dict | None) -> None:
    """write_csv with its rows already formatted as lines, in one write."""
    head = [f"# {key}={fmt17(val)}" for key, val in (metadata or {}).items()]
    fh.write("\n".join([*head, ",".join(header), *lines]) + "\n")


# Column sets of write_trajectory_csv; "t" is the grid time.
TRAJECTORY_COLUMNS = {"full": ("t", "X", "Phi", "PhiB", "PiStar", "Gamma", "L"),
                      "figure": ("t", "PiStar", "Gamma")}


def write_trajectory_csv(traj: Trajectory, fh, metadata: dict | None = None,
                         columns: str = "full") -> None:
    """A reflected trajectory, one row per grid point, in the columns of
    TRAJECTORY_COLUMNS[columns], as write_csv writes them: every value is
    a float, and '%.17g' % x gives the bytes of fmt17(x)."""
    if traj.PhiB is None:
        raise ValueError("trajectory has no reflection; call reflect() first")
    header = TRAJECTORY_COLUMNS[columns]
    cols = [getattr(traj, "times" if name == "t" else name).tolist()
            for name in header]
    line = ",".join(["%.17g"] * len(header))
    _write_lines(fh, header, [line % row for row in zip(*cols)], metadata)


# -- streaming first-passage functionals (Monte Carlo backend) --------------

@dataclass(frozen=True)
class PathFunctionals:
    """Per-path outputs of the streaming kernel, in path-index order.

    tau and z_end have one entry per path; r_pay_end and stieltjes have
    one row per payoff barrier and one column per path.  A path is
    censored when it has not stopped by the horizon: its tau is NaN, and
    the terminal fields hold the state at the last grid point at or before
    the horizon; stieltjes then covers [0, horizon] only.  PhiB there is
    exp(z_end - r_pay_end[b]), b the stop barrier's row.  r_pay_end is the
    accumulated log reflection of the
    payoff barrier, so the surviving probability mass is
    1 - Gamma = exp(-r_pay_end) (kept in log space to stay accurate when
    Gamma is close to 1).  control_sums has one row per control exponent
    beta and one column per path: the sum over the steps j up to tau (or
    the horizon) of e^{rate t_j}(e^{beta (R_j - R_{j-1})} - 1), times
    e^{-R_{j-1}} = 1 - Gamma_{j-1} without the Phi weight, with R the log
    reflection at the stop barrier, R_{-1} = 0 and R_0 Gamma's jump at
    t = 0, so that only the steps where R grows add to it.
    """

    tau: np.ndarray          # hitting time of the lower threshold, NaN if censored
    r_pay_end: np.ndarray    # payoff-barrier log reflection at tau (or at horizon)
    stieltjes: np.ndarray    # sum of e^{rate t} [Phi] dGamma over [0, tau] (or [0, T])
    z_end: np.ndarray        # log Phi, not reflected, at tau (or at horizon)
    control_sums: np.ndarray  # sum of e^{rate t}[e^{-R}](e^{beta dR} - 1), [0, tau]

    @property
    def censored(self) -> np.ndarray:
        return np.isnan(self.tau)

    @property
    def n_paths(self) -> int:
        return self.tau.size


def log_ratio_step(params: ModelParams, measure: Measure,
                   dt: float) -> tuple[float, float]:
    """(c_drift, c_noise) of a tilted measure: one step dt of log Phi is
    c_drift + c_noise * xi, with xi standard normal."""
    d = derive(params)
    m_phi, _ = log_drifts(params, d, measure)
    return (m_phi - 0.5 * d.omega**2) * dt, d.omega * math.sqrt(dt)


def discount_rate(params: ModelParams, measure: Measure) -> float:
    """The discount rate of a tilted measure: mu0 under tilted0, mu1 under
    tilted1."""
    return params.mu0 if measure is Measure.TILTED0 else params.mu1


def reflected_betas(params: ModelParams, measure: Measure, dt: float) -> tuple:
    """(beta+, beta-), the roots of c_noise^2 beta^2 / 2 + c_drift beta
    + rate dt = 0 for a tilted measure's step c_drift + c_noise xi of log
    Phi on a grid of step dt (log_ratio_step) and its discount_rate, so
    that E[e^{beta step}] = e^{-rate dt}.  Under tilted0, mu0 < 0 makes
    them real and of opposite sign.  Under tilted1
    c_drift^2 - 2 c_noise^2 mu1 dt = omega^2 dt^2 ((sigma - omega / 2)^2
    - 2 mu0) > 0 (the square of sigma + omega / 2 is at least
    2 (mu1 - mu0) by AM-GM), so they are real, and negative with c_drift
    and mu1.  The stable form of the quadratic formula takes both without
    cancellation."""
    c_drift, c_noise = log_ratio_step(params, measure, dt)
    a, c = 0.5 * c_noise**2, discount_rate(params, measure) * dt
    q = -0.5 * (c_drift + math.copysign(math.sqrt(c_drift**2 - 4.0 * a * c), c_drift))
    return tuple(sorted((q / a, c / q), reverse=True))


class MeasureSpec(NamedTuple):
    """One measure of a pass and what the pass prices under it.

    measure is tilted0 or tilted1, the discounting change of measure of
    one drift regime, so it fixes how the pass prices: every sum is
    discounted at its discount_rate, and each Stieltjes sum is of
    e^{rate t} Phi_t dGamma_t under tilted0 and of e^{rate t} dGamma_t
    under tilted1, both with the possible time-zero jump of Gamma.  The
    hitting time is measured on the reflection at the pass's barrier; the
    Gamma of each Stieltjes sum reflects at one of payoff_barriers (the
    pass's barrier alone by default).  An empty payoff_barriers prices
    no sum: r_pay_end and stieltjes then have no rows.  With controls,
    each exponent of reflected_betas adds a row of control_sums, priced
    with the barrier's sums, so payoff_barriers must then hold the pass's
    barrier."""

    measure: Measure
    payoff_barriers: tuple | None = None
    controls: bool = False


def stacked_path_functionals(params: ModelParams, phi0: float, lower: float,
                             barrier: float, config: SimConfig, specs, *,
                             stride: int = 1) -> tuple[PathFunctionals, ...]:
    """Simulate config.n_paths paths from phi0, each reflected at barrier
    and stopped at its first grid point where the reflected ratio is at or
    below lower, and accumulate discounted functionals under each
    MeasureSpec of specs, in one pass: one PathFunctionals per spec, in
    order, each bit-identical to a pass of that spec alone.

    Every payoff barrier of a spec is priced on the same scan of each
    path, so a deviating reflection level is compared with the
    equilibrium stopping rule on common random numbers, and each
    barrier's sums do not depend on the other barriers.  A path's noise
    comes from its substream whatever the measure, and the measures differ
    only in the drift of log Phi, so each step's noise is drawn once and
    serves every measure.  Any order of the specs gives the same bits.
    An empty specs or bad thresholds are a ValueError.

    With stride s the stop is tested on every s-th step of config's grid
    only, up to its last such step at or before the horizon: the grid of
    step s * config.dt, on the same Brownian path for every s.  Such a pass
    prices no sum, so a stride above 1 needs every spec's payoff_barriers
    empty and its controls off.  The kernel walks whole strides in chunks
    of _scan.CHUNK_STEPS (192) steps at most, so a longer stride, like one
    longer than the horizon, is a ValueError before any draw.

    From _SPREAD_MIN_PATHS paths up, the paths may be shared with a helper
    process on another CPU (see :mod:`driftgame._spread`); the result is
    bit-identical either way.  A helper that fails leaves the pass to this
    process, which scans it again alone, so the pass returns or raises
    what a serial pass does.
    """
    specs = tuple(specs)
    if not specs:
        raise ValueError("a pass needs at least one measure")
    _check_thresholds(lower, barrier)
    if not phi0 > 0.0:
        raise ValueError(f"phi0={phi0} must be positive")
    if not isinstance(stride, numbers.Integral) or stride < 1:
        raise ValueError(f"stride={stride!r} must be an integer >= 1")
    if stride > config.n_steps:
        raise ValueError(f"stride={stride} is longer than the "
                         f"{config.n_steps} steps to the horizon")
    from . import _scan

    if stride > _scan.CHUNK_STEPS:
        raise ValueError(f"stride={stride} is longer than the kernel's "
                         f"{_scan.CHUNK_STEPS}-step chunk")

    # c_noise is log_ratio_step's, which every tilted measure shares
    job = _scan.ScanJob(
        seed=config.seed, phi0=phi0, c_noise=derive(params).omega * math.sqrt(config.dt),
        k_max=config.n_steps, dt=config.dt, z_hit=math.log(barrier), z_lo=math.log(lower),
        measures=tuple(_scan_measure(params, barrier, config.dt, spec, int(stride))
                       for spec in specs), stride=int(stride))
    if config.n_paths < _SPREAD_MIN_PATHS:
        return _scan.scan(job, config.n_paths)
    from . import _spread
    return _spread.scan(job, config.n_paths)


def _scan_measure(params: ModelParams, barrier: float, dt: float,
                  spec: MeasureSpec, stride: int):
    """The kernel's part of a pass for one measure, after checking it: the
    measure's drift and rate, the Phi weight under tilted0 alone, and with
    controls the exponents of reflected_betas."""
    measure = Measure(spec.measure)
    if measure is Measure.PHYSICAL:
        raise ValueError("streaming functionals support the tilted measures only")
    bpays = (barrier,) if spec.payoff_barriers is None else tuple(spec.payoff_barriers)
    for bpay in bpays:
        if not bpay > 0.0:
            raise ValueError(f"payoff barrier {bpay} must be positive")
    if stride > 1 and (bpays or spec.controls):
        raise ValueError(f"a pass with stride={stride} prices no sum; "
                         f"payoff_barriers must be empty, and controls off")
    if spec.controls and barrier not in bpays:
        raise ValueError(f"control sums are priced at the stop barrier "
                         f"{barrier}; payoff_barriers must hold it")

    from . import _scan

    c_drift, _ = log_ratio_step(params, measure, dt)
    return _scan.ScanMeasure(
        c_drift=c_drift, rate=discount_rate(params, measure),
        weight_phi=measure is Measure.TILTED0,
        z_pays=tuple(math.log(bpay) for bpay in bpays),
        betas=reflected_betas(params, measure, dt) if spec.controls else ())


# Below this many paths a pass runs serially and never imports _spread.
# The helper costs about 4 ms to fork, end and reap, and each process
# drains its lanes once.  With 256-path queue chunks, on a 2-vCPU VM (dt
# 1e-4, phi 0.6, the mc and deviations passes, medians of 21 alternating
# pairs per run, two runs) a split pass took 0.69-0.75x the serial time
# at 1024 paths and 0.63-0.67x at 2048; at 512 it gained little or lost
# (0.88-1.50x).
_SPREAD_MIN_PATHS = 1024

