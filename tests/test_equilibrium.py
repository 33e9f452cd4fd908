import dataclasses
import itertools
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from driftgame import (
    DomainError,
    ModelParams,
    build_solution,
    check_qvi,
    compute_exponents,
    compute_upper_threshold,
    deviation_value_player1,
    solve_threshold_ratio,
)
from driftgame.equilibrium import BOUNDARY_ATOL, ODE_RTOL, QVI_BLOCK, BracketFailure, \
    Exponents, QviCondition, QviReport, _euler_residual, characteristic_poly, \
    threshold_ratio_equation

# Frozen base-case values, computed independently with scipy.optimize.brentq
# on h and the closed-form B (see the quadratic-formula cross-checks below).
BASE_DELTA = 0.3792147931791091
BASE_A = 0.3291992562213167
BASE_B = 0.8681076322511255


# -- exponents ----------------------------------------------------------------

def test_exponents_base_case_closed_form(base_params):
    # q(beta) = 8 beta^2 - 6 beta - 1 at the base case
    e = compute_exponents(base_params)
    assert e.beta1 == pytest.approx((3 + math.sqrt(17)) / 8, rel=1e-14)
    assert e.beta2 == pytest.approx((3 - math.sqrt(17)) / 8, rel=1e-14)


def test_exponents_bisection_oracle(base_params, random_param_sets):
    # independent root find: bracketed brentq on q itself
    for p in [base_params] + random_param_sets:
        e = compute_exponents(p)
        lo = -1.0
        while characteristic_poly(p, lo) <= 0.0:
            lo *= 2.0
        b2 = brentq(lambda b: characteristic_poly(p, b), lo, 0.0, xtol=1e-14)
        b1 = brentq(lambda b: characteristic_poly(p, b), 0.0, 1.0, xtol=1e-14)
        assert e.beta1 == pytest.approx(b1, abs=1e-12)
        assert e.beta2 == pytest.approx(b2, abs=max(1e-12, 1e-12 * abs(b2)))


def test_characteristic_values_at_0_and_1(base_params, random_param_sets):
    for p in [base_params] + random_param_sets:
        assert characteristic_poly(p, 0.0) == pytest.approx(p.mu0, rel=1e-14)
        assert characteristic_poly(p, 1.0) == pytest.approx(p.mu1, rel=1e-13)


def test_vieta_product(base_params):
    e = compute_exponents(base_params)
    omega = base_params.omega
    assert e.beta1 * e.beta2 == pytest.approx(2 * base_params.mu0 / omega**2,
                                              rel=1e-13)
    assert e.beta1 * e.beta2 == pytest.approx(-1 / 8, rel=1e-13)


def test_exponent_sign_pattern(random_param_sets):
    for p in random_param_sets:
        e = compute_exponents(p)
        assert 0.0 < e.beta1 < 1.0
        assert e.beta2 < 0.0
        tol = 1e-12 * max(1.0, abs(p.mu0))
        assert abs(characteristic_poly(p, e.beta1)) < tol
        assert abs(characteristic_poly(p, e.beta2)) < tol


# -- threshold ratio and thresholds -------------------------------------------

def test_threshold_ratio_base_case(base_params):
    e = compute_exponents(base_params)
    delta = solve_threshold_ratio(e, base_params.eps)
    assert delta == pytest.approx(BASE_DELTA, rel=1e-12)
    assert abs(threshold_ratio_equation(e, base_params.eps, delta)) <= 1e-12
    # consistent with the rounded reference thresholds 0.329/0.868
    assert delta == pytest.approx(0.329 / 0.868, abs=2e-3)


def test_threshold_ratio_brentq_oracle(base_params, random_param_sets):
    for p in [base_params] + random_param_sets:
        e = compute_exponents(p)
        delta = solve_threshold_ratio(e, p.eps)
        lo = 0.5
        while threshold_ratio_equation(e, p.eps, lo) >= 0:
            lo *= 0.1
        ref = brentq(lambda z: threshold_ratio_equation(e, p.eps, z), lo, 1.0,
                     xtol=1e-15, rtol=8.9e-16)
        assert 0.0 < delta < 1.0
        assert delta == pytest.approx(ref, rel=1e-12)
        assert abs(threshold_ratio_equation(e, p.eps, delta)) <= 1e-12


def test_threshold_ratio_equation_endpoints(base_params):
    e = compute_exponents(base_params)
    eps = base_params.eps
    h1 = threshold_ratio_equation(e, eps, 1.0)
    assert h1 == pytest.approx(eps * (e.beta1 - e.beta2) / (1 + eps), rel=1e-12)
    assert h1 > 0.0
    assert threshold_ratio_equation(e, eps, 1e-10) < 0.0


def test_threshold_ratio_unique_sign_change(base_params, random_param_sets):
    for p in [base_params] + random_param_sets:
        e = compute_exponents(p)
        z = np.linspace(1e-6, 1.0 - 1e-12, 1000)
        signs = np.sign(threshold_ratio_equation(e, p.eps, z))
        assert np.count_nonzero(np.diff(signs) != 0) == 1


def test_bracket_failure_on_corrupt_exponents():
    # with beta1 > 1 and beta2 < 0, h stays positive on (0,1): no bracket
    with pytest.raises(BracketFailure):
        solve_threshold_ratio(Exponents(beta1=1.5, beta2=-0.5), 0.1)


def test_thresholds_match_reference_values(base_solution):
    sol = base_solution
    assert sol.A == pytest.approx(BASE_A, rel=1e-12)
    assert sol.B == pytest.approx(BASE_B, rel=1e-12)
    assert sol.A == pytest.approx(0.329, abs=1e-3)
    assert sol.B == pytest.approx(0.868, abs=1e-3)
    assert sol.a == pytest.approx(0.248, abs=1e-3)
    assert sol.b == pytest.approx(0.465, abs=1e-3)


def test_upper_threshold_domain():
    e = Exponents(beta1=0.89, beta2=-0.14)
    with pytest.raises(DomainError):
        compute_upper_threshold(e, 0.1, 1.5)


def test_threshold_upper_bound(base_solution, random_solutions):
    # the lower threshold can never exceed -mu0/mu1
    for sol in [base_solution] + random_solutions:
        p = sol.params
        assert sol.A <= -p.mu0 / p.mu1 + 1e-12


def test_back_substituted_threshold_residual(base_solution, random_solutions):
    # A = delta B satisfies the V1(A) = 1 condition through the coefficients
    for sol in [base_solution] + random_solutions:
        assert abs(sol.V1(sol.A) - 1.0) <= 1e-10
        assert sol.A == pytest.approx(sol.delta * sol.B, rel=1e-14)
        assert 0.0 < sol.A < sol.B


# -- boundary conditions and evaluators ---------------------------------------

def test_boundary_conditions(base_solution, random_solutions):
    for sol in [base_solution] + random_solutions:
        eps = sol.params.eps
        assert abs(sol.V(sol.A) - (1 + sol.A)) <= 1e-10
        assert abs(sol.V(sol.A, 1) - 1.0) <= 1e-10
        assert abs(sol.V(sol.B, 1) - (1 + eps)) <= 1e-10
        assert abs(sol.V1(sol.A) - 1.0) <= 1e-10
        assert abs(sol.V1(sol.B) - (1 + eps)) <= 1e-10
        assert abs(sol.V1(sol.B, 1)) <= 1e-10
        assert abs(sol.V0(sol.A) - 1.0) <= 1e-10
        assert abs(sol.V0(sol.B, 1)) <= 1e-10


def test_stopping_region_values(base_solution):
    sol = base_solution
    phi = sol.A / 2
    assert sol.V(phi) == 1.0 + phi
    assert sol.V0(phi) == 1.0
    assert sol.V1(phi) == 1.0
    assert sol.V(phi, 1) == 1.0
    assert sol.V(phi, 2) == 0.0


def test_upper_region_values(base_solution):
    sol = base_solution
    eps = sol.params.eps
    phi = 2.0 * sol.B
    assert sol.V1(phi) == 1.0 + eps
    assert sol.V(phi, 1) == 1.0 + eps
    assert sol.V(phi) == pytest.approx(sol.V_B + (1 + eps) * (phi - sol.B), rel=1e-14)
    # V0 constant above B at its reflected level
    assert sol.V0(phi) == pytest.approx(sol.V0(sol.B), rel=1e-12)


def test_evaluators_accept_arrays(base_solution):
    sol = base_solution
    grid = np.array([sol.A / 2, (sol.A + sol.B) / 2, 2 * sol.B])
    v = sol.V(grid)
    assert v.shape == grid.shape
    assert v[0] == 1.0 + grid[0]
    assert isinstance(sol.V(0.5), float)


def test_second_derivative_refused_at_kinks(base_solution):
    sol = base_solution
    for bad in (sol.A, sol.B):
        for f in (sol.V, sol.V0, sol.V1):
            with pytest.raises(DomainError):
                f(bad, 2)
    # fine anywhere else
    assert np.isfinite(sol.V(0.99 * sol.A, 2))
    assert np.isfinite(sol.V(0.5 * (sol.A + sol.B), 2))


def test_evaluator_domain_errors(base_solution):
    sol = base_solution
    for f in (sol.V, sol.V0, sol.V1):
        for order in (0, 1):
            with pytest.raises(DomainError):
                f(0.0, order)
            with pytest.raises(DomainError):
                f(-1.0, order)
            with pytest.raises(DomainError):
                f(np.array([0.5, -0.5]), order)


# -- structural properties of the value functions ------------------------------

def test_V1_monotone_and_bounded(base_solution, random_solutions):
    for sol in [base_solution] + random_solutions:
        grid = np.linspace(sol.A, sol.B, 10_000)
        v1 = sol.V1(grid)
        assert np.all(sol.V1(grid, 1) >= -1e-12)
        assert np.all(v1 >= 1.0 - 1e-12)
        assert np.all(v1 <= 1.0 + sol.params.eps + 1e-12)


def test_V_dominates_obstacle(base_solution, random_solutions):
    for sol in [base_solution] + random_solutions:
        inner = np.linspace(sol.A, sol.B, 2_000)[1:-1]
        assert np.all(sol.V(inner) > 1.0 + inner)
        assert np.all(sol.V(inner, 1) > 1.0)


def test_V_convex(base_solution, random_solutions):
    for sol in [base_solution] + random_solutions:
        grid = np.linspace(1e-9, 3.0 * sol.B, 4_000)
        assert np.all(np.diff(sol.V(grid), 2) >= -1e-10)


def test_V0_bounded_by_one(base_solution, random_solutions):
    for sol in [base_solution] + random_solutions:
        upper = np.linspace(sol.A, 5.0 * sol.B, 3_000)
        assert np.all(sol.V0(upper) <= 1.0 + 1e-12)
        below = np.linspace(0.0, sol.A, 200)[1:]
        assert np.all(sol.V0(below) == 1.0)


def test_thresholds_independent_of_x(base_params):
    import dataclasses
    a = build_solution(base_params)
    b = build_solution(dataclasses.replace(base_params, x0=7.0))
    assert a.A == b.A and a.B == b.B
    assert a.C1 == b.C1 and a.D2 == b.D2


# -- Player-1 deviation values -------------------------------------------------

def test_deviation_at_equilibrium_threshold(base_solution):
    sol = base_solution
    grid = np.linspace(0.05, 2.0 * sol.B, 200)
    w = deviation_value_player1(sol, sol.A, grid)
    assert np.max(np.abs(w - sol.V(grid))) <= 1e-10


def test_deviation_value_matching(base_solution):
    sol = base_solution
    for ap in (0.1, 0.2, 0.5, 0.7):
        assert deviation_value_player1(sol, ap, ap) == pytest.approx(1 + ap,
                                                                     rel=1e-14)


def test_deviations_never_beat_equilibrium(base_solution):
    sol = base_solution
    grid = np.linspace(0.02, 2.0 * sol.B, 400)
    for ap in (0.1, 0.2, 0.5, 0.7):
        w = deviation_value_player1(sol, ap, grid)
        assert np.all(w <= sol.V(grid) + 1e-9)


def test_deviation_domain_errors(base_solution):
    sol = base_solution
    with pytest.raises(DomainError):
        deviation_value_player1(sol, sol.B, 0.5)
    with pytest.raises(DomainError):
        deviation_value_player1(sol, 1.5 * sol.B, 0.5)
    with pytest.raises(DomainError):
        deviation_value_player1(sol, -0.1, 0.5)
    with pytest.raises(DomainError):
        deviation_value_player1(sol, sol.A, -0.5)


# -- quasi-variational inequality checker --------------------------------------

def test_qvi_base_case(base_solution):
    report = check_qvi(base_solution)
    assert report.all_pass, [c for c in report.conditions if not c.passed]
    by_name = {c.name: c for c in report.conditions}
    # closed form: the Euler residual is floating-point noise only
    assert by_name["ode-V"].max_residual < 1e-9
    assert by_name["ode-V0"].max_residual < 1e-8
    assert by_name["ode-V1"].max_residual < 1e-8


def test_qvi_randomized(random_solutions):
    for sol in random_solutions:
        report = check_qvi(sol)
        assert report.all_pass, (sol.params,
                                 [c for c in report.conditions if not c.passed])


def test_generator_sign_in_stopping_region(base_solution):
    # at phi = A/2 the stopping-region generator value is mu0 + mu1 A/2 < 0
    sol = base_solution
    p = sol.params
    val = p.mu0 + p.mu1 * sol.A / 2
    assert val == pytest.approx(-1.0 + sol.A / 2, rel=1e-14)
    assert val < 0.0


def test_qvi_report_shape(base_solution):
    report = check_qvi(base_solution, n_points=500)
    d = report.as_dict()
    assert set(d) == {"all_pass", "conditions"}
    for c in d["conditions"]:
        assert set(c) == {"name", "max_residual", "tolerance", "pass"}


@pytest.mark.parametrize("n_points", [0, -3])
def test_qvi_refuses_empty_grid(base_solution, n_points):
    with pytest.raises(ValueError, match=f"n_points={n_points} must be at least 1"):
        check_qvi(base_solution, n_points=n_points)


def _check_qvi_whole_grid(sol, n_points=10_000):
    """check_qvi with every piece evaluated by PowerPiece.__call__ on whole
    grids, each condition on its own evaluation: the reference the blocked
    checker must reproduce bit for bit."""
    params = sol.params
    omega = params.omega
    so = params.sigma * omega
    A, B = sol.A, sol.B
    eps = params.eps
    interior = np.linspace(A, B, n_points + 2)[1:-1]
    m = max(n_points // 10, 64)
    stop_grid = np.linspace(0.0, A, m + 1)[1:]
    upper_grid = np.linspace(B, 3.0 * B, m + 1)[1:]
    full_grid = np.concatenate([stop_grid, interior, upper_grid])
    conds = []

    def add(name, residual, tol):
        r = float(residual)
        conds.append(QviCondition(name, r, tol, r <= tol))

    for name, piece, drift, rate in (("ode-V", sol.V, so, params.mu0),
                                     ("ode-V1", sol.V1, so + omega**2, params.mu1),
                                     ("ode-V0", sol.V0, so, params.mu0)):
        add(name, np.max(_euler_residual(omega, drift, rate,
                                         *(piece(interior, k) for k in range(3)),
                                         interior)), ODE_RTOL)
    add("obstacle-V", np.max((1.0 + full_grid) - sol.V(full_grid)), BOUNDARY_ATOL)
    add("generator-sign-stopping",
        np.max(params.mu0 + params.mu1 * stop_grid), BOUNDARY_ATOL)
    add("stopping-payoff-V0", np.max(np.abs(sol.V0(stop_grid) - 1.0)), BOUNDARY_ATOL)
    add("stopping-payoff-V1", np.max(np.abs(sol.V1(stop_grid) - 1.0)), BOUNDARY_ATOL)
    add("reflection-smooth-V0",
        max(abs(sol.V0(B, 1)), np.max(np.abs(sol.V0(upper_grid, 1)))), BOUNDARY_ATOL)
    v1 = sol.V1
    scale = max(abs(v1.p1 * v1.c1 * B ** (v1.p1 - 1.0)),
                abs(v1.p2 * v1.c2 * B ** (v1.p2 - 1.0)))
    add("reflection-smooth-V1",
        max(abs(sol.V1(B, 1)), np.max(np.abs(sol.V1(upper_grid, 1)))),
        BOUNDARY_ATOL * max(1.0, scale))
    add("boundary-V-at-A", abs(sol.V(A) - (1.0 + A)), BOUNDARY_ATOL)
    add("smooth-fit-V-at-A", abs(sol.V(A, 1) - 1.0), BOUNDARY_ATOL)
    add("boundary-V-slope-at-B", abs(sol.V(B, 1) - (1.0 + eps)), BOUNDARY_ATOL)
    add("boundary-V1-at-A", abs(sol.V1(A) - 1.0), BOUNDARY_ATOL)
    add("boundary-V1-at-B", abs(sol.V1(B) - (1.0 + eps)), BOUNDARY_ATOL)
    add("boundary-V0-at-A", abs(sol.V0(A) - 1.0), BOUNDARY_ATOL)
    add("cost-bound-V0", np.max(sol.V0(full_grid)) - (1.0 + eps), BOUNDARY_ATOL)
    add("cost-bound-V1", np.max(sol.V1(full_grid)) - (1.0 + eps), BOUNDARY_ATOL)
    return QviReport(conditions=tuple(conds))


def _outcome(check, sol, n_points):
    """repr of a checker's report, or the type and message it raises."""
    try:
        return repr(check(sol, n_points).as_dict())
    except Exception as exc:   # noqa: BLE001 - the exception is the outcome
        return f"{type(exc).__name__}: {exc}"


# The log-grid of valid parameters that the benchmark's domain probe runs.
_PROBE_GRID = {"mu0": (-50.0, -5.0, -1.0, -1e-3), "mu1": (1e-3, 1.0, 5.0, 50.0),
               "sigma": (1e-2, 0.1, 1.0, 10.0), "eps": (1e-6, 1e-3, 0.1, 10.0)}


def _qvi_cases():
    """Every solvable set of the probe grid and 60 seeded study-range sets."""
    sets = [dict(zip(_PROBE_GRID, v)) for v in itertools.product(*_PROBE_GRID.values())]
    rng = np.random.default_rng(26)
    sets += [dict(mu0=-rng.uniform(0.2, 2.5), mu1=rng.uniform(0.2, 2.5),
                  sigma=rng.uniform(0.25, 2.0), eps=rng.uniform(0.03, 0.4))
             for _ in range(60)]
    sols = []
    for kw in sets:
        try:
            sols.append(build_solution(ModelParams(**{k: float(v) for k, v in kw.items()})))
        except (ArithmeticError, RuntimeError):
            pass
    return sols


def test_blocked_qvi_matches_whole_grid_evaluation():
    # every residual, tolerance and flag is the whole-grid evaluation's, bit
    # for bit; some probe-grid sets fail a condition and must fail it alike
    sols = _qvi_cases()
    assert len(sols) >= 280
    reports = [_outcome(check_qvi, sol, 10_000) for sol in sols]
    assert reports == [_outcome(_check_qvi_whole_grid, sol, 10_000) for sol in sols]
    assert any("'pass': False" in r for r in reports)


@pytest.mark.parametrize("n_points", [1, QVI_BLOCK - 1, QVI_BLOCK, 2 * QVI_BLOCK + 7])
def test_blocked_qvi_matches_at_any_block_split(base_solution, random_solutions, n_points):
    for sol in [base_solution] + random_solutions[:5]:
        assert _outcome(check_qvi, sol, n_points) \
            == _outcome(_check_qvi_whole_grid, sol, n_points)


def test_blocked_qvi_refuses_a_band_of_thresholds(base_solution):
    # with B the next double above A every band point rounds to A or B, where
    # the second derivative is refused: the checker raises what PowerPiece does
    sol = dataclasses.replace(base_solution, B=math.nextafter(base_solution.A, math.inf))
    expected = _outcome(_check_qvi_whole_grid, sol, 10_000)
    assert expected.startswith(
        "DomainError: second derivative is undefined exactly at the thresholds")
    assert _outcome(check_qvi, sol, 10_000) == expected


def test_power_piece_takes_each_exponent(base_solution, random_solutions):
    # on the band every order is k1 c1 phi^(p1 - order) + k2 c2 phi^(p2 - order)
    # bit for bit, with k the falling factorial of the exponent
    for sol in [base_solution] + random_solutions:
        q = np.linspace(sol.A, sol.B, 102)[1:-1]
        for piece in (sol.V, sol.V0, sol.V1):
            for order, (k1, k2) in enumerate((
                    (1.0, 1.0), (piece.p1, piece.p2),
                    (piece.p1 * (piece.p1 - 1.0), piece.p2 * (piece.p2 - 1.0)))):
                expected = k1 * piece.c1 * q ** (piece.p1 - order) \
                    + k2 * piece.c2 * q ** (piece.p2 - order)
                assert np.array_equal(piece(q, order), expected), (piece, order)


# -- derivatives against finite differences of the values -----------------------

def _sample_points(lo, hi):
    """Interior points of (lo, hi) and exterior points on both sides, each
    with a step that keeps its stencil off the thresholds."""
    pts = [lo + f * (hi - lo) for f in (0.1, 0.5, 0.9)] + [0.5 * lo, 2.0 * hi]
    return [(x, min(abs(x - lo), abs(x - hi), x)) for x in pts]


def check_derivatives(f, lo, hi):
    """f(phi, order) against central differences of f(phi, 0)."""
    for x, d in _sample_points(lo, hi):
        h = 1e-4 * d
        v = f(x, 0)
        d1 = (f(x + h, 0) - f(x - h, 0)) / (2 * h)
        assert f(x, 1) == pytest.approx(d1, rel=1e-7, abs=1e-9 * abs(v) / d)
        h = 1e-3 * d
        d2 = (f(x + h, 0) - 2 * v + f(x - h, 0)) / h**2
        assert f(x, 2) == pytest.approx(d2, rel=1e-5, abs=1e-8 * abs(v) / d**2)


def test_derivatives_match_finite_differences(base_solution, random_solutions):
    for sol in [base_solution] + random_solutions:
        for f in (sol.V, sol.V0, sol.V1):
            check_derivatives(f, sol.A, sol.B)
