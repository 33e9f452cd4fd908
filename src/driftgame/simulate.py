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

The Monte Carlo backend (path_functionals) streams its paths instead of
holding a grid.  Each path's noise is drawn in blocks of _BLOCK_START
steps, doubling up to _BLOCK_MAX, and its sums are formed block by block.
_scan_paths steps a batch of up to 128 paths together through those
blocks, in chunks of steps that cover every live path with one numpy call
per operation; a path leaves the batch at its stop, so its draws end
within a chunk of it.  The result is bit-identical to scanning each path
alone, for any batch size and chunk length: the rules that keep it so are
in _scan_paths.  A pass with a stride s tests the stop on every s-th step
only, which is the grid s times coarser on the same Brownian path: the
dt-refinement study (verify.dt_convergence_study) runs one such pass per
grid.

A sample path with a lower threshold (generate_trajectory) is walked in
the same block schedule and ends with the block that holds its stop.  Its
block steps continue one pass over the grid exactly, so the walk equals
the full grid (simulate_phi, reflect) sliced at the stop, bit for bit; the
rules that keep it so are in generate_trajectory.
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

_BLOCK_START = 1024
_BLOCK_MAX = 8192


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


class _StreamPool:
    """Reusable generators, each rekeyed per (path, role) substream.

    Produces streams bit-identical to :func:`substream` while skipping the
    per-construction entropy gathering, which dominates tight path loops.
    Slot i holds one stream at a time; a slot is made on its first use.
    Not thread safe.
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


def _log_block(start: float, a: float, b: float, xi: np.ndarray, k0: int,
               carry: float) -> tuple[np.ndarray, float]:
    """Log levels after steps k0 + 1 .. k0 + xi.size, led by the level at
    grid point 0 when k0 == 0, and the running sum they end on.

    The running sum of a + b xi is carried across blocks before the start
    level is added: carry (the previous block's last sum) goes into the
    block's first increment, so the cumsum continues exactly as one cumsum
    of the whole grid.  Adding the running level after a block-local
    cumsum instead, as the streaming kernel does, rounds differently.
    """
    head = int(k0 == 0)
    inc = a + b * xi
    out = np.empty(inc.size + head)
    if head:
        out[0] = start
    else:
        inc[0] += carry
    np.cumsum(inc, out=out[head:])
    carry = float(out[-1])
    out[head:] += start
    return out, carry


def _simulate_block(config: SimConfig, params: ModelParams, theta: int | None,
                    xi: np.ndarray, k0: int, carry: tuple) -> tuple[Trajectory, tuple]:
    """(X, Phi) at the grid points of steps k0 + 1 .. k0 + xi.size (and of
    point 0 when k0 == 0), continuing the running sums in carry.  X and
    Phi are driven by the same normal draws xi."""
    d = derive(params)
    m_phi, m_x = log_drifts(params, d, config.measure, theta)
    dt = config.dt
    z, carry_z = _log_block(math.log(d.phi0), (m_phi - 0.5 * d.omega**2) * dt,
                            d.omega * math.sqrt(dt), xi, k0, carry[0])
    lx, carry_x = _log_block(math.log(params.x0), m_x * dt,
                             params.sigma * math.sqrt(dt), xi, k0, carry[1])
    times = np.arange(k0 + 1 if k0 else 0, k0 + xi.size + 1) * dt
    return (Trajectory(times=times, X=np.exp(lx), Phi=np.exp(z), theta=theta),
            (carry_z, carry_x))


def simulate_phi(config: SimConfig, params: ModelParams,
                 rng: np.random.Generator, theta: int | None = None) -> Trajectory:
    """Exact log-space simulation of (X, Phi) on the full grid.

    X and Phi are driven by the same Brownian increments, so one normal
    draw per step serves both.  Under the physical measure the caller
    supplies the regime draw theta (it belongs to a separate stream role).
    A grid of more than _MAX_GRID_STEPS steps is refused before anything
    is drawn.  This is the one-block case of generate_trajectory's walk.
    """
    _refuse_long_grid(config)
    xi = rng.standard_normal(config.n_steps)
    return _simulate_block(config, params, theta, xi, 0, (0.0, 0.0))[0]


# Largest double below 1: the stopping intensity is strictly below 1 on any
# finite path, and rounding must not destroy that.
_ONE_MINUS = math.nextafter(1.0, 0.0)


def _reflect_block(traj: Trajectory, barrier: float,
                   carry: tuple | None) -> tuple[Trajectory, tuple]:
    """Reflect one block of a path at the barrier, continuing the running
    maximum R of the block before it.

    carry is (last R, first R of the whole grid), None for the block that
    starts at grid point 0.  The last R is folded into the block's first
    element before the running maximum; L = barrier (R - R_0) takes R_0
    from the whole grid.  Every other output is elementwise in Phi and R.
    """
    z = np.log(traj.Phi)
    r = np.maximum(z - math.log(barrier), 0.0)
    if carry is not None:
        r[0] = max(r[0], carry[0])
    R = np.maximum.accumulate(r)
    r0 = R[0] if carry is None else carry[1]
    gamma = np.minimum(-np.expm1(-R), _ONE_MINUS)
    phi_b = np.minimum(traj.Phi * np.exp(-R), barrier)
    return dataclasses.replace(
        traj,
        PhiB=phi_b,
        Gamma=gamma,
        L=barrier * (R - r0),
        PiStar=phi_b / (1.0 + phi_b),
        barrier=barrier,
    ), (float(R[-1]), r0)


def reflect(traj: Trajectory, barrier: float) -> Trajectory:
    """Apply the pathwise Skorokhod map at the barrier.

    Fills PhiB, Gamma, L and PiStar; the input Phi is untouched, and the
    map only reads Phi, so it is independent of the measure that generated
    the path.  PhiB = Phi (1 - Gamma) holds to machine accuracy wherever
    1 - Gamma is itself representable; PhiB <= barrier holds exactly, and
    reflecting an already-reflected path is an exact no-op.
    """
    if not barrier > 0.0:
        raise ValueError(f"barrier={barrier} must be positive")
    return _reflect_block(traj, barrier, None)[0]


def generate_trajectory(config: SimConfig, params: ModelParams,
                        path_index: int = 0) -> Trajectory:
    """Simulate one path with its substreams and reflect it at the barrier.

    Without config.lower the whole grid is simulated and reflected as one
    block.  With it the path ends at its stop: it is walked in blocks of
    _BLOCK_START steps, doubling up to _BLOCK_MAX, each block simulated,
    reflected and cut with stop_at_lower, and the walk ends with the block
    that holds the first grid point where PhiB <= lower (a censored path
    runs the whole grid).  The result equals
    stop_at_lower(reflect(simulate_phi(...)), lower)[0] bit for bit:

    - each block draws standard_normal(block) from the same substream,
      which continues the sequence one draw of the whole grid gives;
    - log Phi and log X continue one cumsum of the grid's increments, and
      the start level is added after it (_log_block);
    - times are arange(k0, k1) dt, as slices of arange(n + 1) dt;
    - the reflection keeps log(Phi), folds the last R of the block before
      into the block's first element ahead of the running maximum, and
      takes R_0 of L = B (R - R_0) from the whole grid (_reflect_block).

    The _MAX_GRID_STEPS refusal comes before any draw, as in simulate_phi.
    """
    theta = None
    if config.measure is Measure.PHYSICAL:
        regime = substream(config.seed, path_index, ROLE_REGIME_DRAW)
        theta = int(regime.random() < params.prior)
    noise = substream(config.seed, path_index, ROLE_PATH_NOISE)
    if config.lower is None:
        return reflect(simulate_phi(config, params, noise, theta), config.barrier)

    _refuse_long_grid(config)
    n = config.n_steps
    parts = []
    k, block, carry_sim, carry_refl = 0, _BLOCK_START, (0.0, 0.0), None
    while k < n:
        xi = noise.standard_normal(min(block, n - k))
        part, carry_sim = _simulate_block(config, params, theta, xi, k, carry_sim)
        part, carry_refl = _reflect_block(part, config.barrier, carry_refl)
        part, censored = stop_at_lower(part, config.lower)
        parts.append(part)
        if not censored:
            break
        k += xi.size
        block = min(block * 2, _BLOCK_MAX)
    if len(parts) == 1:
        return parts[0]
    return dataclasses.replace(parts[0], **{
        f.name: np.concatenate([getattr(p, f.name) for p in parts])
        for f in dataclasses.fields(Trajectory)
        if isinstance(getattr(parts[0], f.name), np.ndarray)})


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


TRAJECTORY_COLUMNS = ("t", "X", "Phi", "PhiB", "PiStar", "Gamma", "L")


def write_trajectory_csv(traj: Trajectory, fh, metadata: dict | None = None) -> None:
    """Full trajectory export: one row per grid point."""
    if traj.PhiB is None:
        raise ValueError("trajectory has no reflection; call reflect() first")
    cols = (traj.times, traj.X, traj.Phi, traj.PhiB, traj.PiStar, traj.Gamma, traj.L)
    write_csv(fh, TRAJECTORY_COLUMNS, zip(*(c.tolist() for c in cols)), metadata)


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
    Gamma is close to 1).
    """

    tau: np.ndarray          # hitting time of the lower threshold, NaN if censored
    censored: np.ndarray     # bool mask
    phi_refl_end: np.ndarray  # reflected ratio at tau (or at horizon)
    r_pay_end: np.ndarray    # payoff-barrier log reflection at tau (or at horizon)
    stieltjes: np.ndarray    # sum of e^{rate t} [Phi] dGamma over [0, tau] (or [0, T])

    @property
    def n_paths(self) -> int:
        return self.tau.size


class _ScanJob(NamedTuple):
    """Everything a scan of some of path_functionals' paths needs.

    A NamedTuple, not a dataclass: it is defined on every import, where a
    dataclass of this size costs about 2 ms.
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
    no rows.

    With stride s the stop is tested on every s-th step of config's grid
    only, up to its last such step at or before the horizon: the grid of
    step s * config.dt, on the same Brownian path for every s.  Such a pass
    prices no sum, so a stride above 1 needs an empty payoff_barriers.

    From _SPREAD_MIN_PATHS paths up, the paths may be shared with a helper
    process on another CPU (see :mod:`driftgame._spread`); the result is
    bit-identical either way.
    """
    if config.lower is None:
        raise ValueError("config.lower is required for first-passage functionals")
    if not phi0 > 0.0:
        raise ValueError(f"phi0={phi0} must be positive")
    if config.measure is Measure.PHYSICAL:
        raise ValueError("streaming functionals support the tilted measures only")
    bpays = (config.barrier,) if payoff_barriers is None else tuple(payoff_barriers)
    for bpay in bpays:
        if not bpay > 0.0:
            raise ValueError(f"payoff barrier {bpay} must be positive")
    if not isinstance(stride, numbers.Integral) or stride < 1:
        raise ValueError(f"stride={stride!r} must be an integer >= 1")
    if stride > 1 and bpays:
        raise ValueError(f"a pass with stride={stride} prices no sum; "
                         f"payoff_barriers must be empty")
    if stride > config.n_steps:
        raise ValueError(f"stride={stride} is longer than the "
                         f"{config.n_steps} steps to the horizon")

    d = derive(params)
    m_phi, _ = log_drifts(params, d, config.measure)
    job = _ScanJob(
        seed=config.seed, phi0=phi0,
        c_drift=(m_phi - 0.5 * d.omega**2) * config.dt,
        c_noise=d.omega * math.sqrt(config.dt),
        k_max=config.n_steps, dt=config.dt, rate=discount_rate,
        weight_phi=weight_phi, z_hit=math.log(config.barrier),
        z_lo=math.log(config.lower),
        z_pays=tuple(math.log(bpay) for bpay in bpays), stride=int(stride))
    out = _unscanned(config.n_paths, len(bpays))
    if config.n_paths < _SPREAD_MIN_PATHS:
        _scan_paths(job, 0, out)
    else:
        from . import _spread
        _spread.scan(job, out)
    return out


def _unscanned(n: int, n_barriers: int) -> PathFunctionals:
    """Slots for n paths, ready for _scan_paths: tau NaN, none censored."""
    return PathFunctionals(
        tau=np.full(n, np.nan), censored=np.zeros(n, dtype=bool),
        phi_refl_end=np.empty(n), r_pay_end=np.empty((n_barriers, n)),
        stieltjes=np.empty((n_barriers, n)))


def _scan_paths(job: _ScanJob, lo: int, out: PathFunctionals) -> None:
    """Scan paths lo, lo + 1, ... into the slots of out (from _unscanned,
    or views of such slots), one path per slot.

    The scan is driftgame._scan's, imported on the first scan.  It steps
    batches of _scan.BATCH_PATHS rows together through blocks of
    _BLOCK_START steps, doubling up to _BLOCK_MAX.  Each block is walked in
    chunks of min(rest of block, max(_scan.CHUNK_MIN, _scan.CHUNK_CELLS //
    live rows)) steps, each chunk one numpy call per operation over every
    live row, and a row leaves the batch at its stop, so its draws end
    within one chunk of it.  The result is bit-identical to scanning each path
    alone, block by block:

    - a row's noise is drawn from its own substream a chunk at a time,
      which is the sequence one draw of the whole block gives;
    - the log ratio is a block-local cumsum that carries its last value
      into the chunk's first element, plus the block's starting value
      after it, as one cumsum of the block would round;
    - every reflection is max(M - z_b, r0) with M the running maximum of
      the log ratio: rounding a subtraction is monotone, so that is the
      running maximum of max(log ratio - z_b, r0) bit for bit;
    - a Stieltjes sum takes the terms of a (row, barrier, block) in step
      order and sums them with one .sum(), never in parts, because numpy's
      pairwise sum depends on how the terms are grouped;
    - with a stride s the noise, the log ratio and the blocks stay on the
      fine steps, and the maximum, reflection and stop read the columns of
      steps k with k % s == 0 alone, so every stride reads one path and a
      chunk that holds no such step only carries the log ratio forward.
    """
    from . import _scan

    _scan.scan_paths(job, lo, out)


def _slots(out: PathFunctionals, lo: int, hi: int) -> PathFunctionals:
    """Views of out's slots lo..hi-1 (hi is clipped to the path count)."""
    return PathFunctionals(**{field.name: getattr(out, field.name)[..., lo:hi]
                              for field in dataclasses.fields(PathFunctionals)})


# Below this many paths path_functionals never shares its scan with a helper
# process, and so never imports _spread, where the rest of that decision is
# made.  Forking, ending and reaping the helper costs about 4 ms; on a
# 2-vCPU VM (dt 1e-4) a split pass of 1024 paths took 0.67-0.76x the time
# of a serial one, of 512 paths 0.74-0.87x, and of 384 or 256 paths up to
# 1.21x on tilted0, where paths are short.
_SPREAD_MIN_PATHS = 1024

