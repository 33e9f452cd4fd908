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

The Monte Carlo backend (stacked_path_functionals, and path_functionals,
its one-measure case) streams its paths instead of holding a grid.  It
checks its arguments and hands one job to the batched kernel in
driftgame._scan, which owns how a pass runs; from _SPREAD_MIN_PATHS paths
up the pass goes through driftgame._spread, which may share it with a
forked helper process.  One pass may scan the same paths under both tilted
measures: each step's noise is drawn once and serves both.  A pass with a
stride s tests the stop on every s-th step only: the grid s times coarser
on the same Brownian path, one pass per grid of the dt-refinement study.

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
    measure: Measure        # which dynamics drive Phi and X
    barrier: float          # reflection level B, > 0
    lower: float | None = None   # absorption level A, in (0, barrier)

    def __post_init__(self):
        object.__setattr__(self, "measure", Measure(self.measure))
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
        if not self.barrier > 0.0:
            raise ValueError(f"barrier={self.barrier} must be positive")
        if self.lower is not None and not 0.0 < self.lower < self.barrier:
            raise ValueError(
                f"lower={self.lower} must lie in (0, barrier={self.barrier})")

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.dt))


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


def _grid(config: SimConfig, params: ModelParams, theta: int | None,
          xi: np.ndarray) -> Trajectory:
    """(X, Phi) at grid points 0 .. xi.size, driven by the normal draws xi,
    one per step for both."""
    d = derive(params)
    m_phi, m_x = log_drifts(params, d, config.measure, theta)
    dt = config.dt
    return Trajectory(
        times=np.arange(xi.size + 1) * dt,
        X=_levels(math.log(params.x0), m_x * dt, params.sigma * math.sqrt(dt), xi),
        Phi=_levels(math.log(d.phi0), (m_phi - 0.5 * d.omega**2) * dt,
                    d.omega * math.sqrt(dt), xi),
        theta=theta)


def simulate_phi(config: SimConfig, params: ModelParams,
                 rng: np.random.Generator, theta: int | None = None) -> Trajectory:
    """Exact log-space simulation of (X, Phi) on the full grid.

    X and Phi are driven by the same Brownian increments, so one normal
    draw per step serves both.  Under the physical measure the caller
    supplies the regime draw theta (it belongs to a separate stream role).
    A grid of more than _MAX_GRID_STEPS steps is refused before anything
    is drawn.
    """
    _refuse_long_grid(config)
    return _grid(config, params, theta, rng.standard_normal(config.n_steps))


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


def generate_trajectory(config: SimConfig, params: ModelParams,
                        path_index: int = 0) -> tuple[Trajectory, bool]:
    """Simulate one path with its substreams, reflect it at config.barrier
    and end it at its stop at config.lower.  Returns (trajectory,
    censored), as stop_at_lower does.

    The walk simulates, reflects and cuts a prefix of the path's draws,
    _WALK_START of them first, and doubles the prefix until it holds the
    first grid point where PhiB <= lower, or the whole grid (a censored
    path).  Later draws continue the path's substream, and the grid and
    its reflection are running sums and running maxima taken in step
    order, so the result equals stop_at_lower(reflect(simulate_phi(...)),
    lower) bit for bit.  The _MAX_GRID_STEPS refusal comes before any
    draw, as in simulate_phi.
    """
    if config.lower is None:
        raise ValueError("config.lower is required for a sample path")
    theta = None
    if config.measure is Measure.PHYSICAL:
        regime = substream(config.seed, path_index, ROLE_REGIME_DRAW)
        theta = int(regime.random() < params.prior)
    noise = substream(config.seed, path_index, ROLE_PATH_NOISE)
    _refuse_long_grid(config)
    n = config.n_steps
    xi = noise.standard_normal(min(_WALK_START, n))
    while True:
        traj, censored = stop_at_lower(
            reflect(_grid(config, params, theta, xi), config.barrier), config.lower)
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
    for key, val in (metadata or {}).items():
        fh.write(f"# {key}={fmt17(val)}\n")
    fh.write(",".join(header) + "\n")
    for row in rows:
        fh.write(",".join(fmt17(v) for v in row) + "\n")


# Column sets of write_trajectory_csv; "t" is the grid time.
TRAJECTORY_COLUMNS = {"full": ("t", "X", "Phi", "PhiB", "PiStar", "Gamma", "L"),
                      "figure": ("t", "PiStar", "Gamma")}


def write_trajectory_csv(traj: Trajectory, fh, metadata: dict | None = None,
                         columns: str = "full") -> None:
    """A reflected trajectory, one row per grid point, in the columns of
    TRAJECTORY_COLUMNS[columns]."""
    if traj.PhiB is None:
        raise ValueError("trajectory has no reflection; call reflect() first")
    header = TRAJECTORY_COLUMNS[columns]
    cols = [getattr(traj, "times" if name == "t" else name).tolist()
            for name in header]
    write_csv(fh, header, zip(*cols), metadata)


# -- streaming first-passage functionals (Monte Carlo backend) --------------

@dataclass(frozen=True)
class PathFunctionals:
    """Per-path outputs of the streaming kernel, in path-index order.

    tau, censored and phi_refl_end have one entry per path; r_pay_end and
    stieltjes have one row per payoff barrier and one column per path.
    For censored paths tau is NaN and the terminal fields hold the state at
    the last grid point at or before the horizon; stieltjes then covers
    [0, horizon] only.  r_pay_end is the accumulated log reflection of the
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
    censored: np.ndarray     # bool mask
    phi_refl_end: np.ndarray  # reflected ratio at tau (or at horizon)
    r_pay_end: np.ndarray    # payoff-barrier log reflection at tau (or at horizon)
    stieltjes: np.ndarray    # sum of e^{rate t} [Phi] dGamma over [0, tau] (or [0, T])
    z_end: np.ndarray        # log Phi, not reflected, at tau (or at horizon)
    control_sums: np.ndarray  # sum of e^{rate t}[e^{-R}](e^{beta dR} - 1), [0, tau]

    @property
    def n_paths(self) -> int:
        return self.tau.size


def path_functionals(params: ModelParams, phi0: float, config: SimConfig, *,
                     discount_rate: float, weight_phi: bool = False,
                     payoff_barriers=None, stride: int = 1) -> PathFunctionals:
    """Simulate config.n_paths paths and accumulate discounted functionals.

    The hitting time is measured on the reflection at config.barrier; the
    Gamma used in each Stieltjes sum reflects at one of payoff_barriers
    (defaults to config.barrier alone).  Every payoff barrier is priced on
    the same scan of each path, so a deviating reflection level is
    compared with the equilibrium stopping rule on common random numbers.
    With weight_phi the sum is of e^{rate t} Phi_t dGamma_t, else of
    e^{rate t} dGamma_t; both include the possible time-zero jump of Gamma.
    Each path consumes only its own substream and lands in its own slot,
    and each barrier's sums do not depend on the other barriers.  An
    empty payoff_barriers prices no sum: r_pay_end and stieltjes then have
    no rows.  control_sums has no rows either: a control sum is asked for
    through MeasureSpec.control_betas alone.

    With stride s the stop is tested on every s-th step of config's grid
    only, up to its last such step at or before the horizon: the grid of
    step s * config.dt, on the same Brownian path for every s.  Such a pass
    prices no sum, so a stride above 1 needs an empty payoff_barriers.

    From _SPREAD_MIN_PATHS paths up, the paths may be shared with a helper
    process on another CPU (see :mod:`driftgame._spread`); the result is
    bit-identical either way.  This is the one-measure case of
    :func:`stacked_path_functionals`.
    """
    spec = MeasureSpec(config, discount_rate, weight_phi, payoff_barriers, stride)
    return stacked_path_functionals(params, phi0, (spec,))[0]


def log_ratio_step(params: ModelParams, config: SimConfig) -> tuple[float, float]:
    """(c_drift, c_noise) of config's tilted measure: one step of log Phi
    on config's grid is c_drift + c_noise * xi, with xi standard normal."""
    d = derive(params)
    m_phi, _ = log_drifts(params, d, config.measure)
    return (m_phi - 0.5 * d.omega**2) * config.dt, d.omega * math.sqrt(config.dt)


class MeasureSpec(NamedTuple):
    """One measure of a stacked pass: path_functionals' arguments after
    params and phi0, which the measures share, and control_betas.  Each
    exponent of control_betas adds a row of control_sums, discounted at
    discount_rate and priced with config.barrier's sums, so payoff_barriers
    must then hold config.barrier, and stride must be 1; none by default."""

    config: SimConfig
    discount_rate: float
    weight_phi: bool = False
    payoff_barriers: tuple | None = None
    stride: int = 1
    control_betas: tuple = ()


def stacked_path_functionals(params: ModelParams, phi0: float,
                             specs) -> tuple[PathFunctionals, ...]:
    """path_functionals for each MeasureSpec of specs, from one pass over
    the same paths: one PathFunctionals per spec, in order, each
    bit-identical to a path_functionals pass of that spec alone.

    A path's noise comes from its substream whatever the measure, and the
    measures differ only in the drift of log Phi, so each step's noise is
    drawn once and serves every measure.  The specs' configs must be equal
    in every field but measure, and their strides equal; anything else is
    a ValueError, as is an empty specs.  Any order of the specs gives the
    same bits; tilted1 first is fastest, because its paths stop last and
    so take the draws in place.
    """
    specs = tuple(specs)
    if not specs:
        raise ValueError("a pass needs at least one measure")
    config = specs[0].config
    for spec in specs[1:]:
        differ = [field.name for field in dataclasses.fields(SimConfig)
                  if field.name != "measure"
                  and getattr(spec.config, field.name) != getattr(config, field.name)]
        if spec.stride != specs[0].stride:
            differ.append("stride")
        if differ:
            raise ValueError(f"the measures of one pass differ in {', '.join(differ)}; "
                             f"they may differ only in measure")
    if config.lower is None:
        raise ValueError("config.lower is required for first-passage functionals")
    if not phi0 > 0.0:
        raise ValueError(f"phi0={phi0} must be positive")
    jobs = tuple(_scan_job(params, phi0, spec) for spec in specs)
    from . import _scan

    if config.n_paths < _SPREAD_MIN_PATHS:
        return _scan.scan(jobs, config.n_paths)
    from . import _spread
    return _spread.scan(jobs, config.n_paths)


def _scan_job(params: ModelParams, phi0: float, spec: MeasureSpec):
    """The kernel's job for one measure of a pass, after checking it."""
    config, stride = spec.config, spec.stride
    if config.measure is Measure.PHYSICAL:
        raise ValueError("streaming functionals support the tilted measures only")
    bpays = ((config.barrier,) if spec.payoff_barriers is None
             else tuple(spec.payoff_barriers))
    for bpay in bpays:
        if not bpay > 0.0:
            raise ValueError(f"payoff barrier {bpay} must be positive")
    if not isinstance(stride, numbers.Integral) or stride < 1:
        raise ValueError(f"stride={stride!r} must be an integer >= 1")
    betas = tuple(float(beta) for beta in spec.control_betas)
    for beta in betas:
        if not math.isfinite(beta):
            raise ValueError(f"control exponent {beta} must be finite")
    if stride > 1 and (bpays or betas):
        raise ValueError(f"a pass with stride={stride} prices no sum; "
                         f"payoff_barriers must be empty, and control_betas too")
    if betas and config.barrier not in bpays:
        raise ValueError(f"control sums are priced at the stop barrier "
                         f"{config.barrier}; payoff_barriers must hold it")
    if stride > config.n_steps:
        raise ValueError(f"stride={stride} is longer than the "
                         f"{config.n_steps} steps to the horizon")

    from . import _scan

    c_drift, c_noise = log_ratio_step(params, config)
    return _scan.ScanJob(
        seed=config.seed, phi0=phi0, c_drift=c_drift, c_noise=c_noise,
        k_max=config.n_steps, dt=config.dt, rate=spec.discount_rate,
        weight_phi=spec.weight_phi, z_hit=math.log(config.barrier),
        z_lo=math.log(config.lower),
        z_pays=tuple(math.log(bpay) for bpay in bpays), stride=int(stride),
        betas=betas)


# Below this many paths a pass never shares its scan with a helper
# process, and so never imports _spread, where the rest of that decision is
# made.  Forking, ending and reaping the helper costs about 4 ms; on a
# 2-vCPU VM (dt 1e-4) a split pass of 1024 paths took 0.67-0.76x the time
# of a serial one, of 512 paths 0.74-0.87x, and of 384 or 256 paths up to
# 1.21x on tilted0, where paths are short.
_SPREAD_MIN_PATHS = 1024

