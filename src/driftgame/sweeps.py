"""Parameter sweeps and sample-path exports.

Reproduces the numerical study as data files: threshold curves under
one-parameter sweeps and seeded sample paths of the adjusted belief with
its stopping intensity.  Outputs are CSV; no rendering happens here.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .equilibrium import build_solution
from .model import DomainError, InvalidParameters, ModelParams
from .simulate import SimConfig, Trajectory, generate_trajectory, write_csv

SWEEPABLE = ("mu0", "mu1", "sigma", "eps")

# Sweep defaults bracketing the base case: log-spaced for the scale
# parameters (sigma, eps), linear otherwise, 25 points each.  The mu0 range
# extends to -6 so that the interior maximum of the lower boundary
# (near mu0 = -3.3 at the base case) falls inside the default grid.
DEFAULT_SWEEP_POINTS = 25
_DEFAULT_RANGES = {
    "mu0": (-6.0, -0.1, False),
    "mu1": (0.25, 3.0, False),
    "sigma": (0.2, 2.0, True),
    "eps": (0.02, 0.5, True),
}


def default_sweep_values(parameter: str, points: int = DEFAULT_SWEEP_POINTS) -> np.ndarray:
    lo, hi, log = _DEFAULT_RANGES[parameter]
    return np.geomspace(lo, hi, points) if log else np.linspace(lo, hi, points)


@dataclass(frozen=True)
class SweepSpec:
    parameter: str          # one of SWEEPABLE
    values: np.ndarray      # ordered list of values to substitute
    base: ModelParams

    def __post_init__(self):
        if self.parameter not in SWEEPABLE:
            raise DomainError(
                f"parameter={self.parameter!r} not in {SWEEPABLE}")
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))


@dataclass(frozen=True)
class SweepRow:
    parameter: str
    value: float
    A: float      # NaN unless status == "ok"
    B: float
    a: float
    b: float
    status: str   # "ok" | "invalid" | "error: ..."


@dataclass(frozen=True)
class SweepResult:
    rows: tuple

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.rows])

    @property
    def ok(self) -> np.ndarray:
        return np.array([r.status == "ok" for r in self.rows])


def run_sweep(spec: SweepSpec) -> SweepResult:
    """One equilibrium solve per value, in deterministic order.

    Values that violate the parameter assumptions are skipped and flagged
    "invalid"; solver failures are recorded per row and the sweep continues.
    """
    rows = []
    for v in spec.values:
        v = float(v)
        try:
            params = dataclasses.replace(spec.base, **{spec.parameter: v})
        except InvalidParameters:
            rows.append(SweepRow(spec.parameter, v, math.nan, math.nan,
                                 math.nan, math.nan, "invalid"))
            continue
        try:
            sol = build_solution(params)
        except Exception as exc:  # per-row failure, sweep continues
            rows.append(SweepRow(spec.parameter, v, math.nan, math.nan,
                                 math.nan, math.nan, f"error: {exc}"))
            continue
        rows.append(SweepRow(spec.parameter, v, sol.A, sol.B, sol.a, sol.b, "ok"))
    return SweepResult(rows=tuple(rows))


def sample_path_figure(params: ModelParams, config: SimConfig,
                       path_index: int = 0) -> tuple[Trajectory, dict]:
    """One physical-measure path of (PiStar, Gamma) until the stop.

    Returns the trajectory truncated at the first crossing of the lower
    threshold (the whole grid when censored) together with metadata
    carrying the probability-coordinate boundaries a and b.
    """
    sol = build_solution(params)
    cfg = dataclasses.replace(config, barrier=sol.B, lower=sol.A)
    traj, censored = generate_trajectory(cfg, params, path_index)
    return traj, {"a": sol.a, "b": sol.b, "censored": censored}


# -- data-file writers -------------------------------------------------------

def write_sweep_csv(result: SweepResult, fh, metadata=None) -> None:
    write_csv(fh, ("param", "value", "A", "B", "a", "b", "status"),
              ((r.parameter, r.value, r.A, r.B, r.a, r.b, r.status)
               for r in result.rows), metadata)

