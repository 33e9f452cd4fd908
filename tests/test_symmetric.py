import numpy as np
import pytest
from scipy.optimize import fsolve

from driftgame import DomainError, ModelParams, build_solution, compute_exponents, \
    solve_symmetric, value_of_information

# Frozen base-case thresholds, cross-checked below with scipy.optimize.fsolve
# on the same four boundary conditions.
BASE_AS = 0.2386439944043666
BASE_BS = 3.1287621176697265


@pytest.fixture(scope="module")
def base_sym(base_params):
    return solve_symmetric(base_params)


def _residuals(sym):
    eps = sym.params.eps
    return (
        sym.value(sym.As) - (1 + sym.As),
        sym.value(sym.As, 1) - 1.0,
        sym.value(sym.Bs) - (1 + eps) * (1 + sym.Bs),
        sym.value(sym.Bs, 1) - (1 + eps),
    )


def test_reference_thresholds(base_sym):
    assert base_sym.a == pytest.approx(0.193, abs=1e-3)
    assert base_sym.b == pytest.approx(0.758, abs=1e-3)
    assert base_sym.As == pytest.approx(BASE_AS, rel=1e-10)
    assert base_sym.Bs == pytest.approx(BASE_BS, rel=1e-10)
    # ratio-coordinate values implied by the rounded reference thresholds
    assert base_sym.As == pytest.approx(0.193 / 0.807, abs=2e-3)
    assert base_sym.Bs == pytest.approx(0.758 / 0.242, abs=6e-3)


def test_independent_solver_oracle(base_params, base_sym):
    b1 = base_sym.exps.beta1
    b2 = base_sym.exps.beta2
    eps = base_params.eps

    def system(v):
        As, Bs = v
        M = np.array([[As**b1, As**b2], [Bs**b1, Bs**b2]])
        d1, d2 = np.linalg.solve(M, [1 + As, (1 + eps) * (1 + Bs)])
        return [b1 * d1 * As**(b1 - 1) + b2 * d2 * As**(b2 - 1) - 1.0,
                b1 * d1 * Bs**(b1 - 1) + b2 * d2 * Bs**(b2 - 1) - (1 + eps)]

    ref, info, ier, _ = fsolve(system, [0.3, 3.0], xtol=1e-13, full_output=True)
    assert ier == 1
    assert base_sym.As == pytest.approx(ref[0], rel=1e-9)
    assert base_sym.Bs == pytest.approx(ref[1], rel=1e-9)


def test_boundary_conditions(base_sym):
    assert 0.0 < base_sym.As < base_sym.Bs
    for r in _residuals(base_sym):
        assert abs(r) <= 1e-10
    # value matching at the lower threshold is imposed exactly
    assert base_sym.value(base_sym.As) - (1 + base_sym.As) == pytest.approx(0.0, abs=1e-10)


def test_obstacle_sandwich(base_sym):
    eps = base_sym.params.eps
    grid = np.linspace(base_sym.As, base_sym.Bs, 2_000)
    v = base_sym.value(grid)
    assert np.all(v >= 1.0 + grid - 1e-10)
    assert np.all(v <= (1 + eps) * (1 + grid) + 1e-10)


def test_threshold_ordering_vs_asymmetric(base_params, base_sym):
    asym = build_solution(base_params)
    assert base_sym.a < asym.a          # 0.193 < 0.248
    assert base_sym.b > asym.b          # 0.758 > 0.465


def test_exponents_shared_bit_for_bit(base_params, base_sym):
    assert base_sym.exps == compute_exponents(base_params)
    assert base_sym.exps == build_solution(base_params).exps


def test_stopping_extensions(base_sym):
    eps = base_sym.params.eps
    lo = 0.5 * base_sym.As
    hi = 2.0 * base_sym.Bs
    assert base_sym.value(lo) == 1.0 + lo
    assert base_sym.value(hi) == (1 + eps) * (1 + hi)
    with pytest.raises(DomainError):
        base_sym.value(0.0)


def test_value_of_information_curve(base_params, base_sym):
    pis = np.linspace(0.01, 0.99, 99)
    curve = value_of_information(base_params, pis)
    # orientation: symmetric minus asymmetric, never materially negative
    assert np.all(curve.difference >= -1e-10)
    # at pi below both stopping boundaries the games stop immediately
    assert curve.value_symmetric[0] == 1.0
    assert curve.value_asymmetric[0] == 1.0
    assert curve.difference[0] == 0.0
    # the symmetric game stops exactly at its own boundary
    a_sym = base_sym.a
    u = value_of_information(base_params, [a_sym])
    assert u.value_symmetric[0] == 1.0
    # strictly positive somewhere inside
    assert curve.difference.max() > 1e-3


def test_value_asymmetric_is_uninformed_value(base_params):
    # V / (1 + phi) is the uninformed player's (1 - pi) V0 + pi V1
    sol = build_solution(base_params)
    pis = np.linspace(0.05, 0.95, 19)
    phi = pis / (1 - pis)
    curve = value_of_information(base_params, pis)
    assert curve.value_asymmetric == pytest.approx(
        (1 - pis) * sol.V0(phi) + pis * sol.V1(phi), rel=1e-12)


def test_value_of_information_domain():
    p = ModelParams(mu0=-1.0, mu1=1.0, sigma=0.5, eps=0.1)
    for bad in ([0.0, 0.5], [0.5, 1.0], [-0.1]):
        with pytest.raises(DomainError):
            value_of_information(p, bad)


# (mu0, mu1, sigma, eps) sets far from the base case
HARD_SETS = [(-5.0, 5.0, 10.0, 10.0), (-1e-3, 5.0, 1.0, 0.1), (-1e-3, 50.0, 1.0, 0.1)]


def test_random_parameters_solvable(random_param_sets):
    for p in random_param_sets + [ModelParams(*v) for v in HARD_SETS]:
        sym = solve_symmetric(p)
        for r in _residuals(sym):
            assert abs(r) <= 1e-10
        asym = build_solution(p)
        assert sym.a < asym.a + 1e-12
        assert sym.b > asym.b - 1e-12


def test_derivatives_match_finite_differences(base_sym, random_param_sets):
    from test_equilibrium import check_derivatives

    for sym in [base_sym] + [solve_symmetric(p) for p in random_param_sets]:
        check_derivatives(sym.value, sym.As, sym.Bs)
