import math

import numpy as np
import pytest

from driftgame import ModelParams, build_solution
from driftgame.simulate import Measure, SimConfig, stacked_path_functionals
from driftgame.verify import (
    InvalidDeviation,
    _j0_samples,
    _j1_samples,
    _log_reflected_controls,
    _ORACLE_SPECS,
    _phi_b_end,
    _regressed,
    deviations_player1,
    deviations_player2,
    dt_convergence_study,
    mc_oracle_suite,
)


def _config(n_paths=4_000, dt=4e-4, seed=2024, horizon=50.0):
    return SimConfig(dt=dt, horizon=horizon, n_paths=n_paths, seed=seed)


def _suite(sol, phi, config):
    """The suite's reports keyed by check name."""
    return {r["check"]: r for r in mc_oracle_suite(sol, phi, config)}


def _pass(sol, phi, config):
    """The (tilted1, tilted0) outputs of mc_oracle_suite's pass."""
    return stacked_path_functionals(sol.params, phi, sol.A, sol.B, config,
                                    _ORACLE_SPECS)


@pytest.fixture(scope="module")
def sol(base_params):
    return build_solution(base_params)


# -- exact short-circuit points ------------------------------------------------

def _stopping_region_reports(sol):
    # every path stops at time zero, at A/2 as at A itself
    cfg = _config(n_paths=50)
    return {phi: _suite(sol, phi, cfg) for phi in (sol.A / 2, sol.A)}


def test_j0_in_stopping_region_is_exact(sol):
    for rep in _stopping_region_reports(sol).values():
        assert rep["J0"]["estimate"] == 1.0
        assert rep["J0"]["stderr"] == 0.0
        assert rep["J0"]["censored_fraction"] == 0.0
        assert rep["J0"]["pass"]


def test_j1_at_lower_threshold_is_exact(sol):
    for rep in _stopping_region_reports(sol).values():
        assert rep["J1"]["estimate"] == 1.0
        assert rep["J1"]["stderr"] == 0.0
        assert rep["J1"]["censored_fraction"] == 0.0
        assert rep["J1"]["pass"]


def test_jhat_in_stopping_region_is_exact(sol):
    for phi, rep in _stopping_region_reports(sol).items():
        assert rep["Jhat"]["estimate"] == pytest.approx(1.0 + phi, rel=1e-14)
        assert all(r["pass"] for r in rep.values())


# -- oracle consistency across a phi grid ---------------------------------------

def test_oracle_consistency_grid(sol):
    # 9-point grid spanning (0, 2B]: every estimate within
    # 3 stderr + documented bias of its closed form
    cfg = _config()
    for phi in np.linspace(0.0, 2.0 * sol.B, 10)[1:]:
        for report in mc_oracle_suite(sol, float(phi), cfg):
            err = abs(report["estimate"] - report["oracle"])
            assert report["pass"], (phi, report)
            assert err <= report["tolerance"] + report["bias_bound"]


def test_j1_bounded_between_payoffs(sol):
    cfg = _config(n_paths=3_000)
    mid = 0.5 * (sol.A + sol.B)
    j1 = _suite(sol, mid, cfg)["J1"]
    assert 1.0 - 1e-12 <= j1["estimate"] <= 1.0 + sol.params.eps + 0.05
    assert j1["oracle"] == sol.V1(mid)
    assert abs(j1["estimate"] - j1["oracle"]) <= 3 * j1["stderr"] + j1["bias_bound"]


def test_j0_strictly_below_one_for_very_negative_drift():
    p = ModelParams(mu0=-10.0, mu1=1.0, sigma=0.5, eps=0.1)
    s = build_solution(p)
    cfg = _config(n_paths=400, dt=2e-4, seed=5)
    assert _suite(s, s.B, cfg)["J0"]["estimate"] < 1.0


def test_jhat_identity(sol):
    # Jhat = J0 + phi J1: one pass gives all three on the same paths (path i
    # of both measures draws the same noise), so (Jhat - J0) - phi J1 is a
    # per-path residual, and its own spread gives the standard error.
    phi = 0.6
    cfg = _config(n_paths=6_000)
    pf1, pf0 = _pass(sol, phi, cfg)
    j0, jhat = _j0_samples(sol, pf0, _phi_b_end(pf0))
    (j1,) = _j1_samples(sol, pf1)
    resid = (jhat - j0) - phi * j1
    se = resid.std(ddof=1) / math.sqrt(resid.size)
    assert abs(resid.mean()) <= 3.0 * se


# -- reflected controls of every check -------------------------------------------

@pytest.mark.parametrize("dt", [1e-4, 1e-3], ids=["dt1e-4", "dt1e-3"])
@pytest.mark.parametrize("measure", [Measure.TILTED0, Measure.TILTED1],
                         ids=["tilted0", "tilted1"])
def test_reflected_control_means_are_exact(sol, measure, dt):
    # E[N_beta] = (phi/B)^beta for both roots beta of each measure: this
    # pins the kernel's sum of e^{rate t}(e^{beta dR} - 1) where R grows,
    # with the e^{-R} weight under tilted1 and its time-zero term above B,
    # the Stieltjes sum that joins it under tilted1, the roots themselves
    # and the discount of the first term
    config = _config(dt=dt)
    which = 1 if measure is Measure.TILTED0 else 0
    for phi in ((sol.A + sol.B) / 2, sol.B, 1.5 * sol.B):
        log_first, log_mean, sums = _log_reflected_controls(
            sol, phi, config, measure, _pass(sol, phi, config)[which])
        assert sums.shape == (2, config.n_paths)
        for n_beta, mean in zip(np.exp(log_first) + sums, np.exp(log_mean)):
            se = n_beta.std(ddof=1) / math.sqrt(n_beta.size)
            assert abs(n_beta.mean() - mean) <= 4.0 * se, (phi, n_beta.mean(), mean, se)


def test_controls_cut_every_stderr(sol):
    # the base case at 4 000 paths and dt 4e-4: with the reflected
    # controls J0's and J1's stderr are at most 0.15x their plain stderr
    # (about 0.09x and 0.12x here, 0.05x and 0.06x at dt 1e-4) and Jhat's
    # at most 0.01x (about 4e-4x), and every check still passes
    cfg = _config()
    for phi in ((sol.A + sol.B) / 2, sol.B):
        pf1, pf0 = _pass(sol, phi, cfg)
        j0, jhat = _j0_samples(sol, pf0, _phi_b_end(pf0))
        (j1,) = _j1_samples(sol, pf1)
        reports = _suite(sol, phi, cfg)
        for name, samples, ratio in (("J0", j0, 0.15), ("J1", j1, 0.15),
                                     ("Jhat", jhat, 0.01)):
            plain = samples.std(ddof=1) / math.sqrt(samples.size)
            assert reports[name]["stderr"] <= ratio * plain, (phi, name)
        assert all(r["pass"] for r in reports.values())


@pytest.mark.parametrize("n_paths", [2, 3, 4, 5])
def test_few_paths_fall_back_to_the_plain_estimate(sol, n_paths):
    # a fit on q = 2 controls needs n > q + 1 paths: every check gives the
    # plain mean and stderr bit for bit at 2 and 3 paths, and fits its
    # controls above that
    cfg = _config(n_paths=n_paths, dt=1e-4, seed=0)
    reports = _suite(sol, 1.0, cfg)
    pf1, pf0 = _pass(sol, 1.0, cfg)
    j0, jhat = _j0_samples(sol, pf0, _phi_b_end(pf0))
    (j1,) = _j1_samples(sol, pf1)
    for name, samples in (("J0", j0), ("J1", j1), ("Jhat", jhat)):
        plain = (float(samples.mean()),
                 float(samples.std(ddof=1) / math.sqrt(n_paths)))
        got = (reports[name]["estimate"], reports[name]["stderr"])
        assert (got == plain) == (n_paths <= 3), (name, got, plain)


def test_dependent_controls_are_dropped():
    # a control that the ones before it span is left out of the fit, so
    # the fit's system is never singular: a repeated control and a sum of
    # two fit as the independent ones alone, bit for bit
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 50))
    y = x[0] - 2.0 * x[1] + 0.1 * rng.standard_normal(50)
    alone = _regressed(y, x)
    for extra in (x[0], x[0] + x[1]):
        got = _regressed(y, np.vstack((x, extra)))
        assert got[1] == alone[1] == 3
        assert np.array_equal(got[0], alone[0])


# -- report schema -----------------------------------------------------------------

def test_oracle_report_schema(sol):
    cfg = _config(n_paths=200)
    reports = mc_oracle_suite(sol, sol.B, cfg)
    assert [r["check"] for r in reports] == ["J0", "J1", "Jhat"]
    oracles = (sol.V0(sol.B), sol.V1(sol.B), sol.V(sol.B))
    for rep, oracle in zip(reports, oracles):
        assert set(rep) == {"check", "params", "phi", "estimate", "stderr",
                            "oracle", "tolerance", "bias_bound",
                            "censored_fraction", "pass"}
        assert rep["params"]["mu0"] == sol.params.mu0
        assert rep["oracle"] == oracle


# -- deviation suites -----------------------------------------------------------------

def test_player1_deviation_report(sol):
    aprime = np.linspace(0.0, sol.B, 27)[1:-1]
    phis = np.linspace(0.0, 2.0 * sol.B, 10)[1:]
    report = deviations_player1(sol, aprime, phis)
    assert len(report.rows) == 25 * 9
    assert report.all_pass
    # equality rows at the equilibrium threshold
    eq = deviations_player1(sol, [sol.A], phis)
    for r in eq.rows:
        assert r.deviation == pytest.approx(r.equilibrium, abs=1e-10)


def test_player1_specific_strict_deviations(sol):
    r1 = deviations_player1(sol, [0.5], [0.6]).rows[0]
    assert r1.deviation < r1.equilibrium
    r2 = deviations_player1(sol, [0.1], [0.2]).rows[0]
    assert r2.deviation < r2.equilibrium


def test_player2_equilibrium_barrier_is_fixed_point(sol):
    cfg = _config(n_paths=500)
    report = deviations_player2(sol, [sol.B], 0.6, cfg, jump_probs=())
    (row,) = report.rows
    assert row.deviation == row.equilibrium     # identical samples, CRN
    assert row.stderr == 0.0
    assert row.passed


def test_player2_barrier_deviations(sol):
    cfg = _config(n_paths=4_000)
    report = deviations_player2(sol, [0.6, 1.2], 0.6, cfg)
    assert report.all_pass, report.as_dicts()
    kinds = {r.kind for r in report.rows}
    assert kinds == {"player2-barrier", "player2-jump0"}


def test_player2_jump_strategies(sol):
    cfg = _config(n_paths=2_000)
    report = deviations_player2(sol, [], 0.6, cfg, jump_probs=(0.5, 1.0))
    rows = {r.parameter: r for r in report.rows}
    # full immediate stop pays the premium with certainty
    assert rows[1.0].deviation == pytest.approx(1.0 + sol.params.eps, rel=1e-12)
    assert rows[1.0].deviation >= sol.V0(0.6)
    for r in report.rows:
        assert r.passed


def test_player2_invalid_deviation(sol):
    cfg = _config(n_paths=10)
    with pytest.raises(InvalidDeviation):
        deviations_player2(sol, [0.5 * sol.A], 0.6, cfg)
    with pytest.raises(InvalidDeviation):
        deviations_player2(sol, [sol.B], 0.6, cfg, jump_probs=(1.5,))


# -- dt refinement ---------------------------------------------------------------------

def test_dt_convergence_with_common_noise(sol):
    cfg = _config(n_paths=6_000, dt=1e-4)
    dts = [4e-4, 2e-4, 1e-4]
    ests = dt_convergence_study(sol, sol.B, cfg, dts)
    oracle = sol.V0(sol.B)
    errs = [abs(e.mean - oracle) for e in ests]
    slack = [3.0 * e.stderr for e in ests]
    # coarse-to-fine error decreases (within noise)
    assert errs[0] >= errs[1] - (slack[0] + slack[1])
    assert errs[1] >= errs[2] - (slack[1] + slack[2])
    assert errs[0] > errs[2] - (slack[0] + slack[2])
    for e, dt in zip(ests, dts):
        assert e.dt == dt
        assert abs(e.mean - oracle) <= 3.0 * e.stderr + e.bias_bound


@pytest.mark.parametrize("dts, match", [
    ([], "empty"),
    ([0.0, 1e-3], "positive"),
    ([-1e-3], "positive"),
    ([1e-3, 2.5e-4 * 1.3], "integer multiple"),
], ids=["empty", "zero", "negative", "not-a-multiple"])
def test_dt_convergence_refuses_bad_dt_list(sol, dts, match):
    cfg = _config(n_paths=4, horizon=2.0)
    with pytest.raises(ValueError, match=match):
        dt_convergence_study(sol, sol.B, cfg, dts)
