import io
import math

import numpy as np
import pytest

from driftgame import DomainError, build_solution
from driftgame.simulate import SimConfig, write_trajectory_csv
from driftgame.sweeps import (
    SweepSpec,
    default_sweep_values,
    run_sweep,
    sample_path_figure,
    write_sweep_csv,
)


def _sweep(base_params, parameter, values=None):
    vals = default_sweep_values(parameter) if values is None else values
    return run_sweep(SweepSpec(parameter=parameter, values=vals, base=base_params))


# -- threshold sweeps ------------------------------------------------------------

def test_sweep_rows_and_order(base_params):
    res = _sweep(base_params, "mu1")
    assert len(res.rows) == 25
    assert np.array_equal(res.column("value"), default_sweep_values("mu1"))
    assert all(res.ok)
    a, A = res.column("a"), res.column("A")
    assert np.allclose(a, A / (1 + A), rtol=1e-14)


def test_mu1_sweep_monotonicity(base_params):
    res = _sweep(base_params, "mu1")
    assert np.all(np.diff(res.column("a")) < 0)
    assert np.all(np.diff(res.column("b")) < 0)


def test_sigma_sweep_monotonicity(base_params):
    res = _sweep(base_params, "sigma")
    assert np.all(np.diff(res.column("a")) > 0)
    assert np.all(np.diff(res.column("b")) < 0)


def test_eps_sweep_monotonicity(base_params):
    res = _sweep(base_params, "eps")
    assert np.all(np.diff(res.column("a")) < 0)


def test_mu0_sweep_non_monotone(base_params):
    res = _sweep(base_params, "mu0")
    diffs = np.diff(res.column("a"))
    assert np.any(diffs > 0) and np.any(diffs < 0)


def test_sweep_flags_invalid_points(base_params):
    res = _sweep(base_params, "mu1", values=[-0.5, 0.0, 1.0])
    assert [r.status for r in res.rows] == ["invalid", "invalid", "ok"]
    assert math.isnan(res.rows[0].A)
    assert res.rows[2].A == pytest.approx(build_solution(base_params).A, rel=1e-12)


def test_sweep_spec_validation(base_params):
    with pytest.raises(DomainError):
        SweepSpec(parameter="prior", values=[0.5], base=base_params)


# -- sample paths ------------------------------------------------------------------

def _fig_cfg(seed):
    return SimConfig(dt=1e-3, horizon=50.0, n_paths=1, seed=seed, barrier=1.0)


def test_sample_path_properties(base_params):
    import dataclasses
    params = dataclasses.replace(base_params, prior=0.35)
    sol = build_solution(params)
    for seed in (1, 2, 3, 4, 5):
        traj, meta = sample_path_figure(params, _fig_cfg(seed))
        assert meta["a"] == pytest.approx(sol.a, rel=1e-14)
        assert meta["b"] == pytest.approx(sol.b, rel=1e-14)
        assert not meta["censored"]
        # the belief never exceeds the upper boundary after time zero
        assert np.all(traj.PiStar[1:] <= sol.b)
        # the intensity only increases while pinned at the boundary
        # (at-barrier values can sit one ulp below b)
        inc = np.diff(traj.Gamma) > 0
        assert np.all(traj.PiStar[1:][inc] >= sol.b - 1e-12)
        # the path ends at its first crossing of the lower boundary
        assert traj.PiStar[-1] <= sol.a
        assert np.all(traj.PiStar[:-1] > sol.a)


# -- writers -------------------------------------------------------------------------

def test_sweep_csv_schema(base_params):
    res = _sweep(base_params, "eps", values=[0.05, 0.1])
    buf = io.StringIO()
    write_sweep_csv(res, buf, metadata={"seed": 0})
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# seed=0"
    assert lines[1] == "param,value,A,B,a,b,status"
    assert len(lines) == 4
    assert lines[3].startswith("eps,0.1")
    assert lines[3].endswith(",ok")


def test_path_csv_schema(base_params):
    import dataclasses
    params = dataclasses.replace(base_params, prior=0.35)
    traj, meta = sample_path_figure(params, _fig_cfg(7))
    buf = io.StringIO()
    write_trajectory_csv(traj, buf, metadata={"a": meta["a"], "b": meta["b"]},
                         columns="figure")
    lines = buf.getvalue().splitlines()
    assert lines[0].startswith("# a=0.2476673491")
    assert lines[1].startswith("# b=0.4646989377")
    assert lines[2] == "t,PiStar,Gamma"
    assert len(lines) == 3 + traj.times.size

