"""Benchmark game where neither player observes the drift.

With a shared prior the game needs no randomisation and reduces to a pair
of hitting thresholds As < Bs in the likelihood-ratio coordinate.  The
value solves the same Euler ODE as the asymmetric game (identical
exponents, reused bit-for-bit), with value matching and smooth fit at both
ends:

    Vh(As) = 1 + As,        Vh'(As+) = 1,
    Vh(Bs) = (1+eps)(1+Bs), Vh'(Bs-) = 1 + eps.

Matching both coefficients between the two ends makes Bs a closed form of
delta = As/Bs in two ways; equating them leaves a scalar equation in delta
on (0, 1), solved by the same bracketed bisection as the asymmetric game's
threshold ratio.

Comparing the two games per unit of x gives the value of information for
the uninformed player.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .equilibrium import Exponents, PowerPiece, bisect_unit, build_solution, \
    checked_power, compute_exponents
from .model import ModelParams, belief_to_ratio

# Bound on the smooth-fit residuals after the solve: rounding alone makes
# the slope residual at As grow like 1/As; capped at the checks' 1e-10.
SMOOTH_FIT_RTOL = 1e-12
SMOOTH_FIT_ATOL_MAX = 1e-10


class NoConvergence(RuntimeError):
    """The symmetric thresholds miss the smooth-fit conditions."""


@dataclass(frozen=True)
class SymmetricSolution:
    params: ModelParams
    exps: Exponents
    As: float    # lower stopping threshold
    Bs: float    # upper stopping threshold, > As
    Dh1: float   # coefficient of phi^beta1
    Dh2: float   # coefficient of phi^beta2

    @property
    def a(self) -> float:
        return self.As / (1.0 + self.As)

    @property
    def b(self) -> float:
        return self.Bs / (1.0 + self.Bs)

    @cached_property
    def value(self) -> PowerPiece:
        """Vh(phi), extended by the stopping payoffs 1 + phi below As and
        (1+eps)(1+phi) above Bs; value(phi, 1) takes the inside value at
        the thresholds."""
        return PowerPiece(self.As, self.Bs, self.Dh1, self.exps.beta1,
                          self.Dh2, self.exps.beta2, below=(0.0, 1.0, 1.0),
                          above=(0.0, 1.0 + self.params.eps, 1.0))


def solve_symmetric(params: ModelParams) -> SymmetricSolution:
    """Thresholds and coefficients of the symmetric-information benchmark.

    Value matching and smooth fit at As fix Dh_i As^beta_i, and at Bs they
    fix Dh_i Bs^beta_i.  Their ratio is delta^beta_i, which gives Bs as a
    function of delta once per exponent (k = 1 + eps):

        Bs = beta2 (1 - k d^beta1) / ((1 - beta2) (d - k d^beta1))
           = beta1 (k - d^-beta2) / ((beta1 - 1) (d^(1-beta2) - k)).

    Only non-negative powers of d in (0, 1) appear, so neither side
    overflows.  Their difference is negative near 0 (the first form
    diverges) and positive at 1, and bisection finds its root.
    """
    exps = compute_exponents(params)
    b1, b2 = exps.beta1, exps.beta2
    k = 1.0 + params.eps

    def bs_beta1(d):
        t = k * d**b1
        return b2 * (1.0 - t) / ((1.0 - b2) * (d - t))

    def bs_beta2(d):
        return b1 * (k - d**-b2) / ((b1 - 1.0) * (d ** (1.0 - b2) - k))

    delta = bisect_unit(lambda d: bs_beta2(d) - bs_beta1(d),
                        f"the symmetric threshold equation for params {params}")
    Bs = bs_beta2(delta)
    As = delta * Bs
    # Dh1, Dh2 from value matching at both ends; smooth fit is then checked.
    rows = [[x**b1, checked_power(name, x, b2, f"{name}**beta2 in value matching", b2)]
            for name, x in (("As", As), ("Bs", Bs))]
    d1, d2 = np.linalg.solve(np.array(rows), np.array([1.0 + As, k * (1.0 + Bs)]))
    sol = SymmetricSolution(params=params, exps=exps, As=As, Bs=Bs, Dh1=d1, Dh2=d2)
    r = sol.value(np.array([As, Bs]), 1) - np.array([1.0, k])
    tol = min(SMOOTH_FIT_ATOL_MAX, SMOOTH_FIT_RTOL * max(1.0, 1.0 / As))
    if not np.max(np.abs(r)) <= tol:
        raise NoConvergence(
            f"smooth-fit residuals {r.tolist()} exceed {tol!r} at "
            f"As={As!r}, Bs={Bs!r} for params {params}")
    return sol


@dataclass(frozen=True)
class VoiCurve:
    """Per-unit-of-x values of both games along a prior grid.

    `difference` is the signed quantity value_symmetric - value_asymmetric:
    positive where facing an equally uninformed opponent is worth more to
    the uninformed player than facing an informed one.
    """

    pi: np.ndarray
    value_symmetric: np.ndarray    # Vh(phi) / (1 + phi)
    value_asymmetric: np.ndarray   # V(phi) / (1 + phi)
    difference: np.ndarray

    orientation = "value_symmetric - value_asymmetric"


def value_of_information(params: ModelParams, pi_grid) -> VoiCurve:
    """Evaluate both equilibrium values over a grid of priors."""
    pi = np.asarray(pi_grid, dtype=float)
    phi = np.array([belief_to_ratio(p) for p in pi])   # DomainError outside (0, 1)
    asym = build_solution(params)
    sym = solve_symmetric(params)
    u_sym = sym.value(phi) / (1.0 + phi)
    u_asym = asym.V(phi) / (1.0 + phi)
    return VoiCurve(pi=pi, value_symmetric=u_sym, value_asymmetric=u_asym,
                    difference=u_sym - u_asym)
