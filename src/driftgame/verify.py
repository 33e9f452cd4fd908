"""Independent Monte Carlo checks of the closed-form equilibrium.

Three payoff functionals are estimated by simulation and compared to their
closed forms: the informed player's cost in each regime (J0 under the
tilted low-regime measure, J1 under the tilted high-regime measure) and the
uninformed player's value Jhat (a two-term representation under the tilted
low-regime measure).  :func:`mc_oracle_suite` is the entry point for these
three checks; it runs one pass under each tilted measure.  A deviation
suite then perturbs each player's strategy: closed-form threshold
deviations for the stopper, and common-random-number Monte Carlo for the
informed player's reflection level and time-zero jump strategies.

Pass thresholds are 3 standard errors plus an explicit bias bound: a
grid-hitting term HIT_BIAS_COEFF * omega * sqrt(dt) calibrated by a
dt-halving study, plus a censoring bracket that is never folded into the
estimate silently.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .equilibrium import EquilibriumSolution, deviation_value_player1
from .simulate import Measure, PathFunctionals, SimConfig, multires_hit_discounts, \
    path_functionals

# Grid-hitting bias budget per unit payoff: |bias| <= HIT_BIAS_COEFF * omega * sqrt(dt).
# Calibrated by dt-halving at the base case (worst observed ratio ~0.12; factor-2 safety).
HIT_BIAS_COEFF = 0.25

# Residual grid bias of PAIRED payoff comparisons: the hitting-time overshoot
# cancels between runs on common random numbers, but the reflection
# discretisation does not cancel across different barrier levels.  Calibrated
# by dt-halving over the deviation grid (worst observed ratio ~0.02; factor-3
# safety).
PAIR_BIAS_COEFF = 0.06

# Statistical pass threshold, in standard errors.
SIGMA_LEVEL = 3.0

PLAYER1_DEVIATION_TOL = 1e-9


class ConfigMismatch(ValueError):
    """The simulation config disagrees with the requested check."""


class InvalidDeviation(ValueError):
    """A deviation parameter lies outside the admissible class."""


@dataclass(frozen=True)
class MCEstimate:
    mean: float
    stderr: float
    n_paths: int
    dt: float
    horizon: float
    censored_fraction: float
    bias_bound: float   # grid-hitting budget + censoring bracket

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def _require(config: SimConfig, measure: Measure, sol: EquilibriumSolution) -> None:
    if config.measure is not measure:
        raise ConfigMismatch(
            f"check requires measure={measure.value}, config has {config.measure.value}")
    if not math.isclose(config.barrier, sol.B, rel_tol=1e-12):
        raise ConfigMismatch(
            f"config.barrier={config.barrier!r} is not the equilibrium B={sol.B!r}")
    if config.lower is None or not math.isclose(config.lower, sol.A, rel_tol=1e-12):
        raise ConfigMismatch(
            f"config.lower={config.lower!r} is not the equilibrium A={sol.A!r}")
    if config.n_paths < 2:
        raise ConfigMismatch(
            f"n_paths={config.n_paths}: a standard error needs at least 2 paths")


def _estimate(samples: np.ndarray, sol: EquilibriumSolution, config: SimConfig,
              bracket: float, censored: np.ndarray) -> MCEstimate:
    """Mean and standard error of the samples; the bias bound is the grid
    hitting budget at config.dt plus the censoring bracket."""
    n = samples.size
    mean = float(samples.mean())
    stderr = float(samples.std(ddof=1) / math.sqrt(n))
    return MCEstimate(mean=mean, stderr=stderr, n_paths=n, dt=config.dt,
                      horizon=config.horizon,
                      censored_fraction=float(np.mean(censored)),
                      bias_bound=HIT_BIAS_COEFF * sol.omega * math.sqrt(config.dt)
                      + bracket)


def _j0_bracket(sol: EquilibriumSolution, config: SimConfig,
                censored: np.ndarray) -> float:
    """J0's censoring bracket: a censored path contributes 0 in place of a
    value in (0, e^{mu0 horizon}]."""
    return float(np.mean(censored) * math.exp(sol.params.mu0 * config.horizon))


def _j0(sol: EquilibriumSolution, pf: PathFunctionals) -> np.ndarray:
    """Per-path J0 samples of a tilted0 pass: e^{mu0 tau}, 0 if censored."""
    tau = np.where(pf.censored, 0.0, pf.tau)
    return np.where(pf.censored, 0.0, np.exp(sol.params.mu0 * tau))


def _j0_samples(sol: EquilibriumSolution, phi: float, config: SimConfig
                ) -> tuple[np.ndarray, np.ndarray, PathFunctionals]:
    """Per-path (J0, Jhat) samples from one tilted0 pass (shared paths)."""
    pf = path_functionals(sol.params, phi, config,
                          discount_rate=sol.params.mu0, weight_phi=True)
    eps = sol.params.eps
    stj = pf.stieltjes[0]
    j0 = _j0(sol, pf)
    jhat = np.where(pf.censored,
                    (1.0 + eps) * stj,
                    j0 * (1.0 + pf.phi_refl_end) + (1.0 + eps) * stj)
    return j0, jhat, pf


def _j1_samples(sol: EquilibriumSolution, phi: float, config: SimConfig,
                payoff_barriers=None) -> tuple[np.ndarray, PathFunctionals]:
    """Per-path J1 samples from one tilted1 pass: one row per payoff
    barrier (config.barrier alone by default), one column per path."""
    pf = path_functionals(sol.params, phi, config,
                          discount_rate=sol.params.mu1, weight_phi=False,
                          payoff_barriers=payoff_barriers)
    eps = sol.params.eps
    tau = np.where(pf.censored, 0.0, pf.tau)
    # e^{mu1 tau} (1 - Gamma_tau), with 1 - Gamma kept in log space
    j1 = np.where(pf.censored,
                  (1.0 + eps) * pf.stieltjes,
                  np.exp(sol.params.mu1 * tau - pf.r_pay_end)
                  + (1.0 + eps) * pf.stieltjes)
    return j1, pf


def oracle_report(sol: EquilibriumSolution, check: str, phi: float,
                  estimate: MCEstimate, oracle: float) -> dict:
    """One entry of the verifier's JSON report schema."""
    tolerance = SIGMA_LEVEL * estimate.stderr
    return {
        "check": check,
        "params": dataclasses.asdict(sol.params),
        "phi": phi,
        "estimate": estimate.mean,
        "stderr": estimate.stderr,
        "oracle": oracle,
        "tolerance": tolerance,
        "bias_bound": estimate.bias_bound,
        "censored_fraction": estimate.censored_fraction,
        "pass": abs(estimate.mean - oracle) <= tolerance + estimate.bias_bound,
    }


def mc_oracle_suite(sol: EquilibriumSolution, phi: float, config0: SimConfig,
                    config1: SimConfig) -> list[dict]:
    """The Monte Carlo oracle: J0, J1 and Jhat at one point, each against
    its closed form V0, V1 and V.

    J0 = E[e^{mu0 tau_A}] (no low-regime stopping) and
    Jhat = E[e^{mu0 tau}(1 + PhiB_tau) + (1+eps) * integral of
    e^{mu0 t} Phi_t dGamma_t] come from one shared tilted0 pass;
    J1 = E[e^{mu1 tau}(1 - Gamma_tau) + (1+eps) * integral of
    e^{mu1 t} dGamma_t] from one tilted1 pass.  A censored path's missing
    mass is never folded into the mean; its bound enters the bias bound.
    """
    _require(config0, Measure.TILTED0, sol)
    _require(config1, Measure.TILTED1, sol)
    eps = sol.params.eps
    j0, jhat, pf0 = _j0_samples(sol, phi, config0)
    (j1,), pf1 = _j1_samples(sol, phi, config1)
    # per censored path Jhat misses e^{mu0 T} V(PhiB_T), bounded a priori
    # using V0 <= 1 and V1 <= 1+eps
    miss_hat = np.where(pf0.censored,
                        math.exp(sol.params.mu0 * config0.horizon)
                        * (1.0 + (1.0 + eps) * pf0.phi_refl_end), 0.0)
    # and J1 misses at most the martingale bound (1+eps) e^{mu1 T}(1-Gamma_T),
    # formed only on the censored paths: e^{mu1 T} may overflow on the others
    miss1 = np.zeros(pf1.n_paths)
    miss1[pf1.censored] = (
        (1.0 + eps)
        * np.exp(sol.params.mu1 * config1.horizon - pf1.r_pay_end[0, pf1.censored]))
    return [
        oracle_report(sol, "J0", phi, _estimate(
            j0, sol, config0, _j0_bracket(sol, config0, pf0.censored),
            pf0.censored), sol.V0(phi)),
        oracle_report(sol, "J1", phi, _estimate(
            j1, sol, config1, float(miss1.mean()), pf1.censored), sol.V1(phi)),
        oracle_report(sol, "Jhat", phi, _estimate(
            jhat, sol, config0, float(miss_hat.mean()), pf0.censored), sol.V(phi)),
    ]


# -- deviation suites --------------------------------------------------------

@dataclass(frozen=True)
class DeviationRow:
    kind: str           # player1-threshold | player2-barrier | player2-jump0
    parameter: float    # A', B', or the jump probability p
    phi: float
    equilibrium: float
    deviation: float
    stderr: float | None   # None for closed-form rows
    tolerance: float
    passed: bool
    method: str         # closed-form | mc-paired

    def as_dict(self) -> dict:
        return {"kind": self.kind, "parameter": self.parameter, "phi": self.phi,
                "equilibrium": self.equilibrium, "deviation": self.deviation,
                "stderr": self.stderr, "tolerance": self.tolerance,
                "pass": self.passed, "method": self.method}


@dataclass(frozen=True)
class DeviationReport:
    rows: tuple

    # The deviation suite samples the strategy classes that matter for the
    # equilibrium construction (stopping thresholds, reflection levels,
    # time-zero jumps); sampling can refute optimality but cannot confirm it
    # against every admissible control.
    limitation = ("sampled strategy classes only: Monte Carlo can refute "
                  "but not confirm optimality against all admissible "
                  "controls")

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.rows)

    def as_dicts(self) -> list[dict]:
        return [r.as_dict() for r in self.rows]


def deviations_player1(sol: EquilibriumSolution, Aprime_grid,
                       phi_grid) -> DeviationReport:
    """Closed-form check that no stopping threshold beats the equilibrium:
    W_{A'}(phi) <= V(phi) + tolerance at every grid point."""
    phis = np.asarray(phi_grid, dtype=float)
    v = sol.V(phis)
    rows = []
    for ap in np.asarray(Aprime_grid, dtype=float):
        w = deviation_value_player1(sol, float(ap), phis)
        for ph, wv, vv in zip(phis, np.atleast_1d(w), np.atleast_1d(v)):
            rows.append(DeviationRow(
                kind="player1-threshold", parameter=float(ap), phi=float(ph),
                equilibrium=float(vv), deviation=float(wv), stderr=None,
                tolerance=PLAYER1_DEVIATION_TOL,
                passed=bool(wv <= vv + PLAYER1_DEVIATION_TOL),
                method="closed-form"))
    return DeviationReport(rows=tuple(rows))


def deviations_player2(sol: EquilibriumSolution, Bprime_grid, phi: float,
                       config: SimConfig, jump_probs=(0.5, 1.0)) -> DeviationReport:
    """MC check that the informed player cannot do better than the
    equilibrium reflection, holding the stopper's rule fixed.

    The stopping time always comes from the equilibrium reflection at B
    (the stopper cannot observe a deviation); the deviating reflection at
    B' only changes the payoff.  One tilted1 pass scans each path once and
    prices the equilibrium B and every B' on it (common random numbers),
    so the comparison is paired: a deviation passes when its estimated
    cost is no more than SIGMA_LEVEL paired standard errors plus the
    paired grid-bias budget below the equilibrium cost.  Time-zero jump
    strategies for the low-regime control are evaluated in closed form
    from the J0 samples of one tilted0 pass:
    J0(tau, jump p) = (1-p) E[e^{mu0 tau}] + (1+eps) p.
    """
    _require(config, Measure.TILTED1, sol)
    bprimes = [float(bp) for bp in np.asarray(Bprime_grid, dtype=float)]
    for bp in bprimes:
        if not bp > sol.A:
            raise InvalidDeviation(f"Bprime={bp} must exceed A={sol.A!r}")
    for p in jump_probs:
        if not 0.0 <= p <= 1.0:
            raise InvalidDeviation(f"jump probability p={p} outside [0, 1]")
    eps = sol.params.eps
    rows = []

    pair_bias = PAIR_BIAS_COEFF * sol.omega * math.sqrt(config.dt)
    j1, _ = _j1_samples(sol, phi, config, (config.barrier, *bprimes))
    j1_eq = j1[0]
    eq_mean = float(j1_eq.mean())
    for bp, j1_dev in zip(bprimes, j1[1:]):
        diff = j1_dev - j1_eq
        se = float(diff.std(ddof=1) / math.sqrt(diff.size))
        tol = SIGMA_LEVEL * se + pair_bias
        rows.append(DeviationRow(
            kind="player2-barrier", parameter=bp, phi=phi,
            equilibrium=eq_mean, deviation=float(j1_dev.mean()), stderr=se,
            tolerance=tol,
            passed=bool(float(diff.mean()) >= -tol),
            method="mc-paired"))

    # Jump deviations of the low-regime control, against Gamma^0 = 0: J0
    # needs only the stop, so the tilted0 pass prices no Stieltjes sum.
    cfg0 = dataclasses.replace(config, measure=Measure.TILTED0)
    j0 = _j0(sol, path_functionals(sol.params, phi, cfg0,
                                   discount_rate=sol.params.mu0,
                                   payoff_barriers=()))
    j0_mean = float(j0.mean())
    for p in jump_probs:
        diff = p * ((1.0 + eps) - j0)   # pathwise deviation minus equilibrium
        se = float(diff.std(ddof=1) / math.sqrt(diff.size))
        rows.append(DeviationRow(
            kind="player2-jump0", parameter=float(p), phi=phi,
            equilibrium=j0_mean,
            deviation=float((1.0 - p) * j0_mean + (1.0 + eps) * p), stderr=se,
            tolerance=SIGMA_LEVEL * se,
            passed=bool(float(diff.mean()) >= -SIGMA_LEVEL * se),
            method="mc-paired"))
    return DeviationReport(rows=tuple(rows))


def dt_convergence_study(sol: EquilibriumSolution, phi: float,
                         config: SimConfig, dt_list) -> list[MCEstimate]:
    """J0 estimates at several grid resolutions on a shared Brownian path.

    Returns one MCEstimate per entry of dt_list (order preserved); the runs
    are coupled pathwise, so differences between resolutions are nearly
    noise free and the O(sqrt(dt)) hitting bias is visible directly.
    """
    _require(config, Measure.TILTED0, sol)
    pairs = multires_hit_discounts(sol.params, phi, config, dt_list,
                                   discount_rate=sol.params.mu0)
    results = []
    for dt, (samples, censored) in zip(dt_list, pairs):
        cfg = dataclasses.replace(config, dt=float(dt))
        results.append(_estimate(samples, sol, cfg,
                                 _j0_bracket(sol, cfg, censored), censored))
    return results
