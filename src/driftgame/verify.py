"""Independent Monte Carlo checks of the closed-form equilibrium.

Three payoff functionals are estimated by simulation and compared to their
closed forms: the informed player's cost in each regime (J0 under the
tilted low-regime measure, J1 under the tilted high-regime measure) and the
uninformed player's value Jhat (a two-term representation under the tilted
low-regime measure).  :func:`mc_oracle_suite` is the entry point for these
three checks; it runs one kernel pass that scans the paths of its one
config under both tilted measures (simulate.stacked_path_functionals).
A deviation suite then perturbs each player's strategy: closed-form
threshold deviations for the stopper, and common-random-number Monte
Carlo for the informed player's reflection level and time-zero jump
strategies, again from one pass over both measures.  Each check names
its measure and stops its paths at the equilibrium's A, reflected at its
B; a config gives only the grid, the paths and the seed.

Each of the three is regressed on exact-mean martingale control
variates, the two reflected controls N_beta of its measure: J0 and Jhat
on the tilted0 pair, J1 on the tilted1 pair.  N_beta is e^{rate t} W_t
(PhiB_t / B)^beta plus the sum of e^{rate t} W_{t-}(e^{beta dR} - 1) over
the steps where the log reflection R at B grows, for the two roots beta
of E[e^{beta step}] = e^{-rate dt} (rate mu0 under tilted0, mu1 under
tilted1; simulate.reflected_betas).  The kernel prices these sums: a
pass's MeasureSpec asks for them, and its measure alone fixes the rate,
the Phi weight and the roots.  W = 1 - Gamma under tilted1, where J1's
Stieltjes sum joins the control to compensate W's fall, and W = 1 under
tilted0, whose Phi-weighted sums need no 1 - Gamma (Phi (1 - Gamma) =
PhiB).  Optional stopping gives E[N_beta] = (phi / B)^beta from the
simulated increment law alone, so the check stays independent of the
closed form.  The coefficients are fitted by least squares on the same
paths, and the standard error has n - q - 1 degrees of freedom for q
controls.  A control that is constant, that overflows, or that the
others span is dropped, so the fit never fails.  The deviation suites
and the dt study report plain means.

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
from .simulate import (Measure, MeasureSpec, PathFunctionals, SimConfig,
                       discount_rate, reflected_betas, stacked_path_functionals)

# Grid-hitting bias budget per unit payoff: |bias| <= HIT_BIAS_COEFF * omega * sqrt(dt).
# Calibrated by dt-halving at the base case (worst ratio there ~0.12; factor-2
# safety), but the observed ratio reaches ~0.76 at study-range sets (J0 at
# mu0 -2, mu1 0.3, sigma 1.5, eps 0.35, phi 1.8227; 10 000 paths, dt 1e-4),
# where J0 and J1 fail their check on bias alone (ROADMAP items 3 and 8).
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
    """The simulation config has too few paths for a standard error."""


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


def _require(config: SimConfig) -> None:
    if config.n_paths < 2:
        raise ConfigMismatch(
            f"n_paths={config.n_paths}: a standard error needs at least 2 paths")


def _estimate(samples: np.ndarray, sol: EquilibriumSolution, config: SimConfig,
              bracket: float, censored: np.ndarray,
              controls: np.ndarray | None = None) -> MCEstimate:
    """Mean and standard error of the samples or, given controls, of the
    samples less their fit on the controls (_regressed); the bias bound is
    the grid hitting budget at config.dt plus the censoring bracket."""
    n = samples.size
    ddof = 1
    if controls is not None:
        samples, ddof = _regressed(samples, controls)
    mean = float(samples.mean())
    stderr = float(samples.std(ddof=ddof) / math.sqrt(n))
    return MCEstimate(mean=mean, stderr=stderr, n_paths=n, dt=config.dt,
                      horizon=config.horizon,
                      censored_fraction=float(np.mean(censored)),
                      bias_bound=HIT_BIAS_COEFF * sol.params.omega * math.sqrt(config.dt)
                      + bracket)


def _steps(pf: PathFunctionals, config: SimConfig) -> np.ndarray:
    """Steps to tau, or to the horizon for a censored path, of pf, a pass
    on config's grid (stride 1)."""
    return np.where(pf.censored, float(config.n_steps),
                    np.rint(np.where(pf.censored, 0.0, pf.tau) / config.dt))


def _log_reflected_controls(sol: EquilibriumSolution, phi: float,
                            config: SimConfig, measure: Measure, pf: PathFunctionals
                            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The reflected controls N_beta of pf, the outputs of the measure in
    the pass of _ORACLE_SPECS over config's paths that starts at phi, one
    row per beta of simulate.reflected_betas and one column per path:
    (log of their first term, log of their exact means beta log(phi / B),
    their sums: the control sums, plus the Stieltjes sum at B under
    tilted1).

    With R the log reflection at B, K = tau, or the horizon, and W_j = 1
    under tilted0 (the Phi weight cancels 1 - Gamma) and e^{-R_j} = 1 -
    Gamma_j under tilted1,
    N_K = e^{rate t_K} W_K (PhiB_K / B)^beta + sum over j <= K of
    e^{rate t_j} W_{j-1}(e^{beta (R_j - R_{j-1})} - 1) [+ S_K under
    tilted1], the sum the kernel takes (R_{-1} = 0, R_0 Gamma's jump at
    t = 0) and, under tilted1, S_K, the Stieltjes sum at B of
    e^{mu1 t_j}(W_{j-1} - W_j).  Where R does not grow, the first term
    moves by the factor e^{rate dt + beta step}, of mean 1; where it
    grows, log PhiB is log B, and the sums compensate the reflection.
    So N is a martingale of the simulated steps, and E[N_K] =
    (phi / B)^beta by optional stopping.  log PhiB_K is z_end less the
    reflection at the pass's payoff barrier B, so it never underflows."""
    beta = np.array(reflected_betas(sol.params, measure, config.dt))[:, None]
    z_b = math.log(sol.B)
    r_end = pf.r_pay_end[0]
    log_first = (discount_rate(sol.params, measure) * config.dt * _steps(pf, config)
                 + beta * (pf.z_end - r_end - z_b))
    sums = pf.control_sums
    if measure is Measure.TILTED1:
        log_first -= r_end
        sums = sums + pf.stieltjes[0]
    return log_first, beta[:, 0] * (math.log(phi) - z_b), sums


def _controls(log_m: np.ndarray, log_mean: np.ndarray,
              sums: np.ndarray) -> np.ndarray:
    """The controls e^{log_m} + sums less their exact means e^{log_mean},
    one row each, each scaled by e^{-shift}, shift the largest log of its
    terms and its mean: no control overflows.  Each control is judged in
    log space before any exp, and left out when a log is NaN or +inf (a
    term overflowed) or when every term is equal on every path (the
    control is constant)."""
    log_s = np.full(sums.shape, -np.inf)
    np.log(np.abs(sums), out=log_s, where=sums != 0.0)
    constant = (log_m.min(axis=1) == log_m.max(axis=1)) \
        & (sums.min(axis=1) == sums.max(axis=1))
    shift = np.maximum(np.maximum(log_m.max(axis=1), log_mean), log_s.max(axis=1))
    keep = (shift < np.inf) & ~constant   # shift is NaN where a log is
    shift = shift[keep, None]
    controls = np.exp(log_m[keep] - shift)
    controls += np.sign(sums[keep]) * np.exp(log_s[keep] - shift)
    controls -= np.exp(log_mean[keep, None] - shift)
    return controls


def _regressed(samples: np.ndarray, controls: np.ndarray) -> tuple[np.ndarray, int]:
    """The samples less their least-squares fit on the rows of controls
    (each with mean zero in expectation), fitted on the same paths, and the
    ddof of their standard error, 1 + the q controls used.  A control of
    sample variance zero is dropped, and so is one that the controls kept
    before it span (_independent); with none left, or no more than q + 1
    paths, the samples come back as they are, with ddof 1.

    Every sum over paths is a numpy reduction (no BLAS call), so the result
    does not depend on how many threads BLAS runs; only q x q matrices go
    to LAPACK."""
    centred = [row - row.mean() for row in controls]
    used = [(c, row) for c, row in zip(centred, controls) if (c * c).sum() > 0.0]
    s_xx = np.array([[(a * b).sum() for b, _ in used] for a, _ in used])
    keep = _independent(s_xx.reshape(len(used), len(used)))
    q = len(keep)
    if not q or samples.size <= q + 1:
        return samples, 1
    used = [used[i] for i in keep]
    dev = samples - samples.mean()
    s_xy = np.array([(a * dev).sum() for a, _ in used])
    adjusted = samples.copy()
    for coef, (_, row) in zip(np.linalg.solve(s_xx[np.ix_(keep, keep)], s_xy).tolist(),
                              used):
        adjusted -= coef * row
    return adjusted, q + 1


def _independent(s_xx: np.ndarray) -> list:
    """Indices of the controls with cross products s_xx (positive on its
    diagonal) that a fit keeps: in order, each one that keeps the
    correlation matrix of those kept of full numerical rank, so that the
    fit's q x q system is never singular."""
    d = np.sqrt(np.diag(s_xx))
    corr = s_xx / d[:, None] / d
    keep = []
    for i in range(d.size):
        trial = [*keep, i]
        if np.linalg.matrix_rank(corr[np.ix_(trial, trial)]) == len(trial):
            keep.append(i)
    return keep


def _j0_bracket(sol: EquilibriumSolution, config: SimConfig,
                censored: np.ndarray) -> float:
    """J0's censoring bracket: a censored path contributes 0 in place of a
    value in (0, e^{mu0 horizon}]."""
    return float(np.mean(censored) * math.exp(sol.params.mu0 * config.horizon))


def _j0(sol: EquilibriumSolution, pf: PathFunctionals) -> np.ndarray:
    """Per-path J0 samples of a tilted0 pass: e^{mu0 tau}, 0 if censored."""
    tau = np.where(pf.censored, 0.0, pf.tau)
    return np.where(pf.censored, 0.0, np.exp(sol.params.mu0 * tau))


# The measures of mc_oracle_suite's pass: tilted1, which _j1_samples
# reads, then tilted0, which _j0_samples reads.  Each prices the Stieltjes
# sum at B and its two reflected controls' sums.
_ORACLE_SPECS = (MeasureSpec(Measure.TILTED1, controls=True),
                 MeasureSpec(Measure.TILTED0, controls=True))


def _phi_b_end(pf: PathFunctionals) -> np.ndarray:
    """PhiB at tau (or the horizon) of a pass with B as payoff row 0, by
    math.exp per path: np.exp may differ in the last bit."""
    return np.array([math.exp(v) for v in (pf.z_end - pf.r_pay_end[0]).tolist()])


def _j0_samples(sol: EquilibriumSolution, pf: PathFunctionals,
                phi_b_end: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-path (J0, Jhat) samples of the tilted0 pass of _ORACLE_SPECS
    (shared paths), given that pass's _phi_b_end."""
    eps = sol.params.eps
    stj = pf.stieltjes[0]
    j0 = _j0(sol, pf)
    jhat = np.where(pf.censored,
                    (1.0 + eps) * stj,
                    j0 * (1.0 + phi_b_end) + (1.0 + eps) * stj)
    return j0, jhat


def _j1_samples(sol: EquilibriumSolution, pf: PathFunctionals) -> np.ndarray:
    """Per-path J1 samples of a tilted1 pass (discounted at mu1, without
    the Phi weight): one row per payoff barrier, one column per path."""
    eps = sol.params.eps
    tau = np.where(pf.censored, 0.0, pf.tau)
    # e^{mu1 tau} (1 - Gamma_tau), with 1 - Gamma kept in log space
    j1 = np.where(pf.censored,
                  (1.0 + eps) * pf.stieltjes,
                  np.exp(sol.params.mu1 * tau - pf.r_pay_end)
                  + (1.0 + eps) * pf.stieltjes)
    return j1


def _j1_brackets(sol: EquilibriumSolution, config: SimConfig,
                 pf: PathFunctionals) -> list[float]:
    """J1's censoring bracket for each payoff row of a tilted1 pass pf: a
    censored path misses at most the martingale bound
    (1+eps) e^{mu1 T}(1-Gamma_T), formed only on the censored paths:
    e^{mu1 T} may overflow on the others."""
    miss = np.zeros(pf.r_pay_end.shape)
    miss[:, pf.censored] = (
        (1.0 + sol.params.eps)
        * np.exp(sol.params.mu1 * config.horizon - pf.r_pay_end[:, pf.censored]))
    return [float(row.mean()) for row in miss]


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


def mc_oracle_suite(sol: EquilibriumSolution, phi: float,
                    config: SimConfig) -> list[dict]:
    """The Monte Carlo oracle: J0, J1 and Jhat at one point, each against
    its closed form V0, V1 and V.

    J0 = E[e^{mu0 tau_A}] (no low-regime stopping) and
    Jhat = E[e^{mu0 tau}(1 + PhiB_tau) + (1+eps) * integral of
    e^{mu0 t} Phi_t dGamma_t] come from the tilted0 measure and
    J1 = E[e^{mu1 tau}(1 - Gamma_tau) + (1+eps) * integral of
    e^{mu1 t} dGamma_t] from the tilted1 measure of one pass over
    config's paths: J1 shares J0's paths, path i of both measures driven
    by the same noise.  A censored path's missing mass is never folded
    into the mean; its bound enters the bias bound.

    Each check is regressed, on the same paths, on the two reflected
    controls N_beta of its measure (_log_reflected_controls), whose exact
    means are (phi / B)^beta: J0 and Jhat on the tilted0 pair, J1 on the
    tilted1 pair.  Each reports the mean of its samples less the fit, and
    their sd over sqrt(n) with n - q - 1 degrees of freedom.  A control
    equal on every path (every path stops at t = 0), one that overflows
    and one that the others span are dropped, and with none left or
    n <= q + 1 paths (n <= 3 with both controls) the estimate is the plain
    mean and stderr.
    """
    _require(config)
    eps = sol.params.eps
    pf1, pf0 = stacked_path_functionals(sol.params, phi, sol.A, sol.B, config,
                                        _ORACLE_SPECS)
    phi_b_end = _phi_b_end(pf0)
    j0, jhat = _j0_samples(sol, pf0, phi_b_end)
    (j1,) = _j1_samples(sol, pf1)
    controls0 = _controls(*_log_reflected_controls(sol, phi, config,
                                                   Measure.TILTED0, pf0))
    controls1 = _controls(*_log_reflected_controls(sol, phi, config,
                                                   Measure.TILTED1, pf1))
    # per censored path Jhat misses e^{mu0 T} V(PhiB_T), bounded a priori
    # using V0 <= 1 and V1 <= 1+eps
    miss_hat = np.where(pf0.censored,
                        math.exp(sol.params.mu0 * config.horizon)
                        * (1.0 + (1.0 + eps) * phi_b_end), 0.0)
    return [
        oracle_report(sol, "J0", phi, _estimate(
            j0, sol, config, _j0_bracket(sol, config, pf0.censored),
            pf0.censored, controls0), sol.V0(phi)),
        oracle_report(sol, "J1", phi, _estimate(
            j1, sol, config, _j1_brackets(sol, config, pf1)[0], pf1.censored,
            controls1), sol.V1(phi)),
        oracle_report(sol, "Jhat", phi, _estimate(
            jhat, sol, config, float(miss_hat.mean()), pf0.censored, controls0),
            sol.V(phi)),
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
    B' only changes the payoff.  One pass scans each of config's paths
    once and prices the equilibrium B and every B' on its tilted1 measure
    (common random numbers), so the comparison is paired: a deviation
    passes when its estimated cost is no more than SIGMA_LEVEL paired
    standard errors plus the paired grid-bias budget plus its censoring
    bracket (_j1_brackets: what its censored paths may miss) below the
    equilibrium cost.  Time-zero jump strategies for the low-regime
    control are evaluated in closed form from the J0 samples of the same
    pass's tilted0 measure, on the same paths:
    J0(tau, jump p) = (1-p) E[e^{mu0 tau}] + (1+eps) p; they need no
    bracket, as a censored path's J0 sample of 0 can only raise their
    difference.
    """
    _require(config)
    bprimes = [float(bp) for bp in np.asarray(Bprime_grid, dtype=float)]
    for bp in bprimes:
        if not (math.isfinite(bp) and bp > sol.A):
            raise InvalidDeviation(f"Bprime={bp} must be finite and exceed A={sol.A!r}")
    for p in jump_probs:
        if not 0.0 <= p <= 1.0:
            raise InvalidDeviation(f"jump probability p={p} outside [0, 1]")
    eps = sol.params.eps
    rows = []

    pair_bias = PAIR_BIAS_COEFF * sol.params.omega * math.sqrt(config.dt)
    # J0 needs only the stop (Gamma^0 = 0), so tilted0 prices no sum
    pf1, pf0 = stacked_path_functionals(sol.params, phi, sol.A, sol.B, config, (
        MeasureSpec(Measure.TILTED1, payoff_barriers=(sol.B, *bprimes)),
        MeasureSpec(Measure.TILTED0, payoff_barriers=())))
    j1 = _j1_samples(sol, pf1)
    j1_eq = j1[0]
    eq_mean = float(j1_eq.mean())
    brackets = _j1_brackets(sol, config, pf1)
    for bp, j1_dev, bracket in zip(bprimes, j1[1:], brackets[1:]):
        diff = j1_dev - j1_eq
        se = float(diff.std(ddof=1) / math.sqrt(diff.size))
        tol = SIGMA_LEVEL * se + pair_bias + bracket
        rows.append(DeviationRow(
            kind="player2-barrier", parameter=bp, phi=phi,
            equilibrium=eq_mean, deviation=float(j1_dev.mean()), stderr=se,
            tolerance=tol,
            passed=bool(float(diff.mean()) >= -tol),
            method="mc-paired"))

    # Jump deviations of the low-regime control, against Gamma^0 = 0
    j0 = _j0(sol, pf0)
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
    Every entry must be an integer multiple of the smallest, at most
    _scan.CHUNK_STEPS (192) times it; config.dt is ignored.  Each
    resolution is one kernel pass on the finest grid that tests the stop
    on every s-th step, and each pass draws the same substream per path,
    so every resolution reads the same Brownian path.
    """
    _require(config)
    configs = [dataclasses.replace(config, dt=float(dt)) for dt in dt_list]
    if not configs:
        raise ValueError("dt_list is empty")
    fine = min(configs, key=lambda cfg: cfg.dt)
    strides = []
    for cfg in configs:
        s = cfg.dt / fine.dt
        if abs(s - round(s)) > 1e-9:
            raise ValueError(f"dt={cfg.dt} is not an integer multiple of {fine.dt}")
        strides.append(round(s))
    spec = MeasureSpec(Measure.TILTED0, payoff_barriers=())
    results = []
    for cfg, stride in zip(configs, strides):
        (pf,) = stacked_path_functionals(sol.params, phi, sol.A, sol.B, fine, (spec,),
                                         stride=stride)
        results.append(_estimate(_j0(sol, pf), sol, cfg,
                                 _j0_bracket(sol, cfg, pf.censored), pf.censored))
    return results
