"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line.  Monte Carlo criteria use the fixed
seeds, path counts and step sizes stated in the criteria; everything is
independent of thread count.
"""

import dataclasses
import time

import numpy as np

from driftgame import build_solution, check_qvi
from driftgame.cli import main
from driftgame.simulate import SimConfig
from driftgame.sweeps import SweepSpec, default_sweep_values, run_sweep, \
    sample_path_figure
from driftgame.symmetric import solve_symmetric
from driftgame.verify import deviations_player1, deviations_player2, \
    mc_oracle_suite


def _report(number: int, description: str, failures: list):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {description}")
    assert not failures, f"criterion {number}: {failures}"


def test_criterion_1_base_case_thresholds(base_params):
    failures = []
    t0 = time.perf_counter()
    sol = build_solution(base_params)
    qvi = check_qvi(sol)
    elapsed = time.perf_counter() - t0
    for name, got, want in (("A", sol.A, 0.329), ("B", sol.B, 0.868),
                            ("a", sol.a, 0.248), ("b", sol.b, 0.465)):
        if abs(got - want) > 1e-3:
            failures.append(f"{name}={got} not within 0.001 of {want}")
    if not qvi.all_pass:
        failures.append("qvi failed")
    if elapsed >= 0.1:
        failures.append(f"solve took {elapsed:.3f}s >= 0.1s")
    _report(1, f"base thresholds A={sol.A:.6f} B={sol.B:.6f} "
               f"a={sol.a:.6f} b={sol.b:.6f} in {elapsed * 1e3:.1f} ms", failures)


def test_criterion_2_symmetric_benchmark(base_params):
    failures = []
    t0 = time.perf_counter()
    sym = solve_symmetric(base_params)
    elapsed = time.perf_counter() - t0
    if abs(sym.a - 0.193) > 1e-3:
        failures.append(f"a={sym.a}")
    if abs(sym.b - 0.758) > 1e-3:
        failures.append(f"b={sym.b}")
    if elapsed >= 0.1:
        failures.append(f"symmetric solve took {elapsed:.3f}s >= 0.1s")
    _report(2, f"symmetric a={sym.a:.6f} b={sym.b:.6f} "
               f"in {elapsed * 1e3:.1f} ms", failures)


def test_criterion_3_closed_form_consistency(base_solution, random_solutions):
    failures = []
    for sol in [base_solution] + random_solutions:
        eps = sol.params.eps
        bcs = {
            "V(A)=1+A": sol.V(sol.A) - (1 + sol.A),
            "V'(A)=1": sol.V(sol.A, 1) - 1.0,
            "V'(B)=1+eps": sol.V(sol.B, 1) - (1 + eps),
            "V1(A)=1": sol.V1(sol.A) - 1.0,
            "V1(B)=1+eps": sol.V1(sol.B) - (1 + eps),
            "V1'(B)=0": sol.V1(sol.B, 1),
            "V0(A)=1": sol.V0(sol.A) - 1.0,
            "V0'(B)=0": sol.V0(sol.B, 1),
        }
        for name, resid in bcs.items():
            if abs(resid) > 1e-10:
                failures.append(f"{sol.params}: {name} residual {resid:.2e}")
        report = check_qvi(sol, n_points=10_000)
        for c in report.conditions:
            if not c.passed:
                failures.append(f"{sol.params}: qvi {c.name} {c.max_residual:.2e}")
            if c.name.startswith("ode-") and c.max_residual > 1e-8:
                failures.append(f"{sol.params}: {c.name} above 1e-8 relative")
    _report(3, "boundary conditions at 1e-10, ODE residuals below 1e-8 "
               "relative, QVI all-pass on base + 20 randomized sets", failures)


def test_criterion_4_value_function_structure(base_solution, random_solutions):
    failures = []
    for sol in [base_solution] + random_solutions:
        tag = (f"mu0={sol.params.mu0:.3f},mu1={sol.params.mu1:.3f},"
               f"sigma={sol.params.sigma:.3f},eps={sol.params.eps:.3f}")
        band = np.linspace(sol.A, sol.B, 10_000)
        v1 = sol.V1(band)
        if not np.all(sol.V1(band, 1) >= -1e-12):
            failures.append(f"{tag}: V1 not monotone")
        if not (np.all(v1 >= 1 - 1e-12) and np.all(v1 <= 1 + sol.params.eps + 1e-12)):
            failures.append(f"{tag}: V1 out of [1, 1+eps]")
        inner = band[1:-1]
        if not np.all(sol.V(inner) > 1 + inner):
            failures.append(f"{tag}: V does not dominate 1+phi")
        if not np.all(sol.V(inner, 1) > 1):
            failures.append(f"{tag}: V' not above 1")
        if sol.A > -sol.params.mu0 / sol.params.mu1 + 1e-12:
            failures.append(f"{tag}: A exceeds -mu0/mu1")
        convex_grid = np.linspace(1e-9, 3 * sol.B, 4_000)
        if not np.all(np.diff(sol.V(convex_grid), 2) >= -1e-10):
            failures.append(f"{tag}: V not convex")
        upper = np.linspace(sol.A, 5 * sol.B, 2_000)
        if not np.all(sol.V0(upper) <= 1 + 1e-12):
            failures.append(f"{tag}: V0 above 1")
        below = np.linspace(0, sol.A, 100)[1:]
        if not np.all(sol.V0(below) == 1.0):
            failures.append(f"{tag}: V0 != 1 in stopping region")
    _report(4, "V1 monotone in [1,1+eps]; V > 1+phi with V' > 1; "
               "A <= -mu0/mu1; V convex; V0 <= 1 (base + 20 random sets)",
            failures)


def test_criterion_5_mc_oracle_equivalence(base_solution):
    sol = base_solution
    cfg = SimConfig(dt=1e-4, horizon=50.0, n_paths=100_000, seed=20240101)
    failures = []
    lines = []
    for phi in (sol.A / 2, (sol.A + sol.B) / 2, sol.B, 1.5 * sol.B):
        for rep in mc_oracle_suite(sol, float(phi), cfg):
            err = abs(rep["estimate"] - rep["oracle"])
            lines.append(f"{rep['check']}(phi={phi:.4f}): err={err:.2e} "
                         f"se={rep['stderr']:.2e}")
            if not rep["pass"]:
                failures.append(
                    f"{rep['check']} at phi={phi}: estimate {rep['estimate']} "
                    f"vs oracle {rep['oracle']}, err {err:.3e} > "
                    f"3se+bias {rep['tolerance'] + rep['bias_bound']:.3e}")
            if rep["stderr"] > 5e-3:
                failures.append(f"{rep['check']} at phi={phi}: stderr "
                                f"{rep['stderr']:.2e} above the expected scale")
    _report(5, "J0/J1/Jhat vs closed forms at 4 phi points "
               "(n=1e5, dt=1e-4, T=50): " + "; ".join(lines[:3]) + " ...",
            failures)


def test_criterion_6_nash_deviation_suite(base_solution):
    sol = base_solution
    failures = []
    aprime = np.linspace(0.0, sol.B, 27)[1:-1]
    phis = np.linspace(0.0, 2 * sol.B, 10)[1:]
    p1 = deviations_player1(sol, aprime, phis)
    if not p1.all_pass:
        failures += [r.as_dict() for r in p1.rows if not r.passed]
    cfg = SimConfig(dt=1e-4, horizon=50.0, n_paths=20_000, seed=777)
    p2 = deviations_player2(sol, [m * sol.B for m in (0.5, 0.75, 1.25, 1.5, 2.0)],
                            0.6, cfg, jump_probs=(0.5, 1.0))
    if not p2.all_pass:
        failures += [r.as_dict() for r in p2.rows if not r.passed]
    # the CLI surfaces any violation as exit code 4 (exercised with a forced
    # failure in the CLI tests); a healthy suite exits 0
    code = main(["deviations", "--phi", "0.6", "--paths", "2000", "--dt",
                 "4e-4", "--seed", "777", "--aprime-points", "5",
                 "--phi-points", "3", "--output", "/dev/null"])
    if code != 0:
        failures.append(f"deviations CLI exit code {code}")
    _report(6, f"player-1 threshold grid ({len(p1.rows)} points, tol 1e-9) "
               f"and player-2 barrier/jump deviations ({len(p2.rows)} rows, "
               "3 paired se + paired grid-bias budget)", failures)


def test_criterion_7_sample_path_properties(base_params):
    params = dataclasses.replace(base_params, prior=0.35)
    sol = build_solution(params)
    failures = []
    censored = 0
    for seed in range(100):
        cfg = SimConfig(dt=1e-3, horizon=50.0, n_paths=1, seed=seed)
        traj, meta = sample_path_figure(params, cfg)
        if meta["censored"]:
            censored += 1
            failures.append(f"seed {seed}: censored at horizon")
            continue
        if not np.all(traj.PiStar[1:] <= sol.b):
            failures.append(f"seed {seed}: PiStar exceeds b")
        inc = np.diff(traj.Gamma) > 0
        if not np.all(traj.PiStar[1:][inc] >= sol.b - 1e-12):
            failures.append(f"seed {seed}: Gamma increased away from barrier")
        if not (traj.PiStar[-1] <= sol.a and np.all(traj.PiStar[:-1] > sol.a)):
            failures.append(f"seed {seed}: did not stop at first crossing of a")
    _report(7, "100 seeded physical paths: PiStar <= b after time 0, Gamma "
               "grows only at the barrier, stop at first PiStar <= a "
               f"({100 - censored}/100 stopped before T=50)", failures)


def test_criterion_8_comparative_statics(base_params):
    failures = []

    def sweep(param):
        res = run_sweep(SweepSpec(parameter=param,
                                  values=default_sweep_values(param),
                                  base=base_params))
        if not all(res.ok):
            failures.append(f"{param}: solver failures in sweep")
        return res.column("a"), res.column("b")

    a, b = sweep("mu1")
    if not np.all(np.diff(a) < 0):
        failures.append("a not decreasing in mu1")
    if not np.all(np.diff(b) < 0):
        failures.append("b not decreasing in mu1")
    a, b = sweep("sigma")
    if not np.all(np.diff(a) > 0):
        failures.append("a not increasing in sigma")
    if not np.all(np.diff(b) < 0):
        failures.append("b not decreasing in sigma")
    a, _ = sweep("eps")
    if not np.all(np.diff(a) < 0):
        failures.append("a not decreasing in eps")
    a, _ = sweep("mu0")
    d = np.diff(a)
    if not (np.any(d > 0) and np.any(d < 0)):
        failures.append("a monotone over the mu0 grid")
    _report(8, "mu1: a,b down; sigma: a up, b down; eps: a down; "
               "mu0: sign change in the differences of a", failures)


def test_criterion_9_determinism(tmp_path):
    failures = []

    def run(*argv):
        out = tmp_path / "out.txt"
        code = main([*argv, "--output", str(out)])
        return code, out.read_bytes()

    cases = [
        ("solve",),
        ("symmetric",),
        ("voi", "--grid", "19"),
        ("sweep", "--param", "mu1", "--points", "7"),
        ("path", "--pi", "0.35", "--seed", "7", "--dt", "1e-3",
         "--horizon", "10"),
        ("mc", "--phi", "0.6", "--paths", "1200", "--dt", "4e-4",
         "--seed", "5", "--threads", "1"),
    ]
    for argv in cases:
        c1, b1 = run(*argv)
        c2, b2 = run(*argv)
        if c1 != c2 or b1 != b2 or not b1:
            failures.append(f"{argv}: repeat not byte-identical")
    # thread count must not change any byte of the output
    mc = ("mc", "--phi", "0.6", "--paths", "1200", "--dt", "4e-4", "--seed", "5")
    _, one = run(*mc, "--threads", "1")
    _, four = run(*mc, "--threads", "4")
    if one != four:
        failures.append("mc output depends on thread count")
    dev = ("deviations", "--phi", "0.6", "--paths", "800", "--dt", "4e-4",
           "--seed", "5", "--aprime-points", "3", "--phi-points", "3")
    _, d1 = run(*dev, "--threads", "1")
    _, d2 = run(*dev, "--threads", "3")
    if d1 != d2:
        failures.append("deviations output depends on thread count")
    _report(9, "repeated commands with identical flags and seed are "
               "byte-identical, independent of --threads", failures)
