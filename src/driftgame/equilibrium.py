"""Closed-form Nash equilibrium of the asymmetric-information stopping game.

The equilibrium is a pair of thresholds 0 < A < B in the likelihood-ratio
coordinate: the uninformed player stops when the reflected adjusted ratio
first drops to A, the informed player randomises so the adjusted ratio
reflects at B.  Both value functions are linear combinations of the two
power solutions phi^beta1, phi^beta2 of an Euler ODE, with beta1 in (0,1)
and beta2 < 0 the roots of a quadratic.  A is tied to B through the ratio
delta = A/B, the unique root in (0,1) of a strictly increasing function h,
after which B has a closed form.  Everything here is exact up to the 1-D
root find for delta; no ODE integration is involved.

All values are per unit of the asset level x, which factors out of the game.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .model import DomainError, ModelParams, derive

# QVI residual tolerances: closed-form solution, limited by floating point.
ODE_RTOL = 1e-8        # relative, for the three Euler ODE residuals
BOUNDARY_ATOL = 1e-10  # absolute, for boundary/obstacle/sign conditions
# Interior points per block of check_qvi's band.  A block's arrays are
# 16 KB, small enough for the allocator to reuse rather than return to the
# system and fault in again on the next operation.
QVI_BLOCK = 2048


class BracketFailure(RuntimeError):
    """The sign change bracketing the threshold-ratio root was not found."""


def checked_power(name: str, base: float, p: float, term: str,
                  beta2: float) -> float:
    """base**p for a threshold `name`; an overflow becomes a
    FloatingPointError naming `term`, the threshold and beta2."""
    try:
        return base ** p
    except OverflowError:
        raise FloatingPointError(
            f"{term} overflows double precision ({name}={base!r}, beta2={beta2!r})"
        ) from None


@dataclass(frozen=True)
class Exponents:
    """Roots of q(beta) = (omega^2/2) beta (beta-1) + sigma omega beta + mu0.

    q(0) = mu0 < 0 and q(1) = mu1 > 0 force beta1 in (0,1) and beta2 < 0.
    """

    beta1: float   # root in (0, 1)
    beta2: float   # negative root


def characteristic_poly(params: ModelParams, beta: float) -> float:
    """q(beta) for the Euler ODE of the discounted ratio process."""
    omega = derive(params).omega
    return 0.5 * omega**2 * beta * (beta - 1.0) + params.sigma * omega * beta + params.mu0


def compute_exponents(params: ModelParams) -> Exponents:
    """Both real roots of q, via the numerically stable quadratic formula.

    Each root must leave a residual of q below 1e-12 of q's largest term
    there, max(|a beta^2|, |b beta|, |c|), and the roots must keep their
    signs; anything else is a numerical failure (FloatingPointError), as
    is an omega whose square overflows.
    """
    omega = derive(params).omega
    try:
        a = 0.5 * omega**2
    except OverflowError:
        raise FloatingPointError(
            f"omega**2 overflows double precision (omega={omega!r})") from None
    b = params.sigma * omega - a
    c = params.mu0
    disc = b * b - 4.0 * a * c
    # disc = b^2 - 4ac with ac < 0, so disc > 0 always.
    s = math.sqrt(disc)
    qf = -0.5 * (b + math.copysign(s, b))
    r1, r2 = qf / a, c / qf
    beta1, beta2 = max(r1, r2), min(r1, r2)
    for beta in (beta1, beta2):
        scale = max(abs(a * beta * beta), abs(b * beta), abs(c))
        if not abs(characteristic_poly(params, beta)) <= 1e-12 * scale:
            raise FloatingPointError(f"q({beta!r}) is not 0 for params {params}")
    if not (0.0 < beta1 < 1.0 and beta2 < 0.0):
        raise FloatingPointError(f"exponents {beta1!r}, {beta2!r} for params {params}")
    return Exponents(beta1=beta1, beta2=beta2)


def threshold_ratio_equation(exps: Exponents, eps: float, z) -> float:
    """h(z); its unique root in (0,1) is the threshold ratio delta = A/B.

    h is strictly increasing on (0,1), tends to -inf at 0+, and
    h(1) = eps (beta1 - beta2) / (1 + eps) > 0.
    """
    return _threshold_ratio_h(exps, eps)(z)


def _threshold_ratio_h(exps: Exponents, eps: float):
    """h as a function of z, with 1 - beta2, beta1 - 1, beta2 - 1 and
    (beta1 - beta2) / (1 + eps) computed once: the float operations of
    evaluating h whole, so the same bits."""
    b1, b2 = exps.beta1, exps.beta2
    c1, e1, e2 = 1.0 - b2, b1 - 1.0, b2 - 1.0
    h1 = (b1 - b2) / (1.0 + eps)
    return lambda z: c1 * z ** e1 + e1 * z ** e2 - h1


def bisect_unit(f, what: str) -> float:
    """Root in (0, 1) of a function that is negative near 0 and non-negative
    at 1, by bracketed bisection.

    The lower bracket endpoint is shrunk geometrically until f goes
    negative; bisection then runs to machine resolution in z.
    """
    hi = 1.0
    lo = 0.5
    while not f(lo) < 0.0:
        lo *= 0.1
        if lo < 1e-300:
            raise BracketFailure(f"no sign change of {what} on (0, 1)")
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid


def solve_threshold_ratio(exps: Exponents, eps: float) -> float:
    """Root of h by bracketed bisection, safe because h is monotone.

    Bisection runs to machine resolution in z, which is well inside the
    1e-12 z-tolerance and keeps |h(delta)| <= 1e-12 as well.  An overflow
    of z^(beta2-1) resolves to the sign h diverges to: the dominating term
    carries the factor (beta1 - 1).
    """
    h = _threshold_ratio_h(exps, eps)
    diverges = -math.inf if exps.beta1 < 1.0 else math.inf

    def h_signed(z: float) -> float:
        try:
            return h(z)
        except OverflowError:
            return diverges

    return bisect_unit(h_signed, f"h for exponents {exps}: parameters are corrupted")


def compute_upper_threshold(exps: Exponents, eps: float, delta: float) -> float:
    """Closed-form reflecting threshold B given the ratio delta = A/B."""
    if not 0.0 < delta < 1.0:
        raise DomainError(f"delta={delta} outside (0, 1)")
    b1, b2 = exps.beta1, exps.beta2
    num = b1 * b2 * (delta ** -b2 - delta ** -b1)
    den = (1.0 + eps) * (b1 - b2) \
        - b2 * (b1 - 1.0) * delta ** (1.0 - b2) \
        + b1 * (b2 - 1.0) * delta ** (1.0 - b1)
    return num / den


@dataclass(frozen=True)
class PowerPiece:
    """c1 phi^p1 + c2 phi^p2 on (lo, hi), extended by off + s (phi + shift)
    at and below lo and at and above hi.

    Every value function of both games has this shape: a combination of
    the Euler-ODE power solutions on the continuation band, constant or
    affine outside it.  The derivative order is 0, 1 or 2; at lo and hi the
    first derivative takes the one-sided inside value and the second
    derivative is refused.  Accepts scalars or arrays; a scalar argument
    returns a float.  `inside` is the power formula on the band alone,
    which both this evaluator and `check_qvi` use.
    """

    lo: float
    hi: float
    c1: float
    p1: float
    c2: float
    p2: float
    below: tuple   # (off, s, shift) on phi <= lo
    above: tuple   # (off, s, shift) on phi >= hi

    def __call__(self, phi, order: int = 0):
        p = np.asarray(phi, dtype=float)
        if not (p > 0.0).all():   # nan fails p > 0 too
            raise DomainError("phi must be positive")
        if order == 2 and ((p == self.lo).any() or (p == self.hi).any()):
            raise DomainError(
                "second derivative is undefined exactly at the thresholds "
                f"{self.lo!r} and {self.hi!r}")
        low = p <= self.lo
        high = p >= self.hi
        out = np.empty_like(p)
        for mask, (off, s, shift) in ((low, self.below), (high, self.above)):
            if order == 0:
                out[mask] = off + s * (p[mask] + shift)
            else:
                out[mask] = s if order == 1 else 0.0
        ins = ~(low | high)
        if order:
            ins |= (p == self.lo) | (p == self.hi)
        q = p[ins]
        out[ins] = self.inside(order, lambda e: q ** e)
        return float(out) if np.ndim(phi) == 0 else out

    def inside(self, order: int, power):
        """The order-th derivative of c1 phi^p1 + c2 phi^p2 at points of
        the band, unchecked, where power(e) returns those points ** e."""
        k1 = k2 = 1.0
        for j in range(order):
            k1 *= self.p1 - j
            k2 *= self.p2 - j
        return k1 * self.c1 * power(self.p1 - order) \
            + k2 * self.c2 * power(self.p2 - order)


@dataclass(frozen=True)
class EquilibriumSolution:
    """Thresholds, exponents and value-function coefficients.

    The informed player's cost in the high regime is
    V1 = C1 phi^(beta1-1) + C2 phi^(beta2-1) on (A,B); the uninformed
    player's (scaled) value is V = D1 phi^beta1 + D2 phi^beta2 there, and
    V0 = V - phi V1.  Outside (A,B) all three extend piecewise (constant,
    affine, or obstacle).  V, V0 and V1 are PowerPieces: sol.V(phi) is the
    per-unit-of-x value and sol.V(phi, 1), sol.V(phi, 2) its derivatives.
    """

    params: ModelParams
    exps: Exponents
    delta: float   # A / B, in (0, 1)
    A: float       # lower stopping threshold, > 0
    B: float       # upper reflecting threshold, > A
    C1: float
    C2: float
    D1: float
    D2: float

    @property
    def a(self) -> float:
        """Lower threshold in probability coordinates, A/(1+A)."""
        return self.A / (1.0 + self.A)

    @property
    def b(self) -> float:
        """Upper threshold in probability coordinates, B/(1+B)."""
        return self.B / (1.0 + self.B)

    @property
    def omega(self) -> float:
        return derive(self.params).omega

    @property
    def V_B(self) -> float:
        """Continuation value at the reflecting threshold."""
        b2 = self.exps.beta2
        return self.D1 * self.B**self.exps.beta1 \
            + self.D2 * checked_power("B", self.B, b2, "B**beta2 in V(B)", b2)

    @cached_property
    def V(self) -> PowerPiece:
        """Game value per unit x (uninformed player's scaled value): the
        obstacle 1 + phi below A, slope 1 + eps above B.  V is C1, so
        V(phi, 1) takes the inside value at A and B; V(phi, 2) is refused
        there."""
        b1, b2 = self.exps.beta1, self.exps.beta2
        return PowerPiece(self.A, self.B, self.D1, b1, self.D2, b2,
                          below=(0.0, 1.0, 1.0),
                          above=(self.V_B, 1.0 + self.params.eps, -self.B))

    @cached_property
    def V1(self) -> PowerPiece:
        """Informed player's cost per unit x in the high-drift regime: the
        payoffs 1 below A and 1 + eps above B."""
        b1, b2 = self.exps.beta1, self.exps.beta2
        return PowerPiece(self.A, self.B, self.C1, b1 - 1.0, self.C2, b2 - 1.0,
                          below=(1.0, 0.0, 0.0),
                          above=(1.0 + self.params.eps, 0.0, 0.0))

    @cached_property
    def V0(self) -> PowerPiece:
        """Informed player's cost per unit x in the low-drift regime,
        V0 = V - phi V1: 1 below A, constant above B (reflection)."""
        b1, b2 = self.exps.beta1, self.exps.beta2
        top = self.V_B - (1.0 + self.params.eps) * self.B
        return PowerPiece(self.A, self.B, self.D1 - self.C1, b1,
                          self.D2 - self.C2, b2,
                          below=(1.0, 0.0, 0.0), above=(top, 0.0, 0.0))


def build_solution(params: ModelParams) -> EquilibriumSolution:
    """Assemble the full equilibrium: exponents, delta, A, B, coefficients."""
    exps = compute_exponents(params)
    eps = params.eps
    delta = solve_threshold_ratio(exps, eps)
    B = compute_upper_threshold(exps, eps, delta)
    A = delta * B
    b1, b2 = exps.beta1, exps.beta2
    C1 = (1.0 - b2) * (1.0 + eps) * B ** (1.0 - b1) / (b1 - b2)
    C2 = (b1 - 1.0) * (1.0 + eps) \
        * checked_power("B", B, 1.0 - b2, "B**(1 - beta2) in C2", b2) / (b1 - b2)
    D1 = A ** -b1 * (-b2 + (1.0 - b2) * A) / (b1 - b2)
    D2 = A ** -b2 * (b1 + (b1 - 1.0) * A) / (b1 - b2)
    return EquilibriumSolution(params=params, exps=exps, delta=delta,
                               A=A, B=B, C1=C1, C2=C2, D1=D1, D2=D2)


def deviation_value_player1(sol: EquilibriumSolution, Aprime: float, phi):
    """Value of stopping at a (possibly suboptimal) threshold A' against the
    equilibrium reflection at B.

    Solves the same Euler ODE on (A', B) with value matching W(A') = 1 + A'
    and the reflection slope W'(B-) = 1 + eps; smooth fit at A' is dropped.
    Extended by W = 1 + phi below A' and affinely with slope 1 + eps above B.
    W coincides with V when A' = A.
    """
    if not 0.0 < Aprime < sol.B:
        raise DomainError(f"Aprime={Aprime} outside (0, B={sol.B!r})")
    b1, b2 = sol.exps.beta1, sol.exps.beta2
    eps = sol.params.eps
    M = np.array([
        [Aprime**b1, Aprime**b2],
        [b1 * sol.B ** (b1 - 1.0), b2 * sol.B ** (b2 - 1.0)],
    ])
    rhs = np.array([1.0 + Aprime, 1.0 + eps])
    E1, E2 = np.linalg.solve(M, rhs)
    WB = E1 * sol.B**b1 + E2 * sol.B**b2
    return PowerPiece(Aprime, sol.B, E1, b1, E2, b2, below=(0.0, 1.0, 1.0),
                      above=(WB, 1.0 + eps, -sol.B))(phi)


# -- quasi-variational-inequality checks -----------------------------------

@dataclass(frozen=True)
class QviCondition:
    name: str
    max_residual: float
    tolerance: float
    passed: bool

    def as_dict(self) -> dict:
        return {"name": self.name, "max_residual": self.max_residual,
                "tolerance": self.tolerance, "pass": self.passed}


@dataclass(frozen=True)
class QviReport:
    conditions: tuple

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.conditions)

    def as_dict(self) -> dict:
        return {"all_pass": self.all_pass,
                "conditions": [c.as_dict() for c in self.conditions]}


def _euler_residual(omega, drift_coeff, rate, f, fp, fpp, p):
    """Relative residual of (omega^2 phi^2 / 2) f'' + drift phi f' + rate f."""
    t1 = 0.5 * omega**2 * p**2 * fpp
    t2 = drift_coeff * p * fp
    t3 = rate * f
    scale = np.maximum(np.maximum(np.abs(t1), np.abs(t2)), np.abs(t3))
    return np.abs(t1 + t2 + t3) / np.maximum(scale, 1e-300)


def check_qvi(sol: EquilibriumSolution, n_points: int = 10_000) -> QviReport:
    """Numerical residuals of the variational conditions on the closed form.

    The band (A, B) is sampled at n_points interior points and the regions
    below A and above B at max(n_points // 10, 64) points each; the
    continuation band's grid avoids the kink points A and B by at least
    one grid cell.  All conditions are per unit of x (the asset level
    scales out of every operator that appears).

    The band is walked in blocks of QVI_BLOCK points.  In each block V, V1
    and V0 and their first two derivatives share one cache of powers, so
    each power of the block is taken once, and every value is the one
    PowerPiece gives bit for bit: the same `inside` formula on the same
    points.  A band with a point not strictly inside (A, B) is evaluated
    whole by PowerPiece itself.  The obstacle and cost-bound conditions
    reuse the band's values.  An overflow on the band is a
    FloatingPointError that names the band.
    """
    if n_points < 1:
        raise ValueError(f"n_points={n_points!r} must be at least 1")
    params = sol.params
    omega = sol.omega
    so = params.sigma * omega
    A, B = sol.A, sol.B
    eps = params.eps

    interior = np.linspace(A, B, n_points + 2)[1:-1]
    m = max(n_points // 10, 64)
    stop_grid = np.linspace(0.0, A, m + 1)[1:]
    upper_grid = np.linspace(B, 3.0 * B, m + 1)[1:]

    # Euler ODEs on the continuation band (A, B), and per block the maxima
    # of the band's part of the obstacle and cost-bound conditions.
    pieces = (sol.V, sol.V1, sol.V0)
    odes = ((so, params.mu0), (so + omega**2, params.mu1), (so, params.mu0))
    strict = bool(A < interior.min() and interior.max() < B)
    block = QVI_BLOCK if strict else n_points
    maxima = []
    try:
        with np.errstate(over="raise"):
            for start in range(0, n_points, block):
                q = interior[start:start + block]
                if strict:
                    # q ** e once per exponent's float value, which pieces share
                    power = cache(lambda e: q ** e)
                    vals = [[piece.inside(k, power) for k in range(3)]
                            for piece in pieces]
                else:
                    vals = [[piece(q, k) for k in range(3)] for piece in pieces]
                (v, _, _), (v1, _, _), (v0, _, _) = vals
                maxima.append([np.max(_euler_residual(omega, drift, rate, *f, q))
                               for (drift, rate), f in zip(odes, vals)]
                              + [np.max((1.0 + q) - v), np.max(v0), np.max(v1)])
    except FloatingPointError:
        raise FloatingPointError(
            f"the QVI check on the band (A, B) overflows double precision "
            f"(A={A!r}, B={B!r}, beta2={sol.exps.beta2!r})") from None
    ode_v, ode_v1, ode_v0, band_obstacle, band_v0, band_v1 = np.max(maxima, axis=0)

    conds = []

    def add(name, residual, tol):
        r = float(residual)
        conds.append(QviCondition(name, r, tol, r <= tol))

    add("ode-V", ode_v, ODE_RTOL)
    add("ode-V1", ode_v1, ODE_RTOL)
    add("ode-V0", ode_v0, ODE_RTOL)

    # Obstacle: the game value dominates the stopping payoff everywhere.
    add("obstacle-V", np.max([np.max((1.0 + stop_grid) - sol.V(stop_grid)),
                              band_obstacle,
                              np.max((1.0 + upper_grid) - sol.V(upper_grid))]),
        BOUNDARY_ATOL)

    # Generator sign in the stopping region: mu0 + mu1 phi <= 0 on (0, A].
    add("generator-sign-stopping",
        np.max(params.mu0 + params.mu1 * stop_grid), BOUNDARY_ATOL)

    # Stopped costs equal the lower payoff on (0, A].
    v0_stop, v1_stop = sol.V0(stop_grid), sol.V1(stop_grid)
    add("stopping-payoff-V0", np.max(np.abs(v0_stop - 1.0)), BOUNDARY_ATOL)
    add("stopping-payoff-V1", np.max(np.abs(v1_stop - 1.0)), BOUNDARY_ATOL)

    # Reflection conditions at and above B (flat costs in phi).  V1'(B) is
    # the difference of two terms p c B^(p - 1), as PowerPiece.inside forms
    # them, that grow with 1 + eps: its bound scales with the larger one.
    v1 = sol.V1
    scale = max(abs(p * c * B ** (p - 1.0)) for c, p in ((v1.c1, v1.p1), (v1.c2, v1.p2)))
    add("reflection-smooth-V0",
        max(abs(sol.V0(B, 1)), np.max(np.abs(sol.V0(upper_grid, 1)))),
        BOUNDARY_ATOL)
    add("reflection-smooth-V1",
        max(abs(sol.V1(B, 1)), np.max(np.abs(sol.V1(upper_grid, 1)))),
        BOUNDARY_ATOL * max(1.0, scale))

    # Boundary and smooth-fit conditions that pin down A, B and the
    # coefficients.
    add("boundary-V-at-A", abs(sol.V(A) - (1.0 + A)), BOUNDARY_ATOL)
    add("smooth-fit-V-at-A", abs(sol.V(A, 1) - 1.0), BOUNDARY_ATOL)
    add("boundary-V-slope-at-B", abs(sol.V(B, 1) - (1.0 + eps)), BOUNDARY_ATOL)
    add("boundary-V1-at-A", abs(sol.V1(A) - 1.0), BOUNDARY_ATOL)
    add("boundary-V1-at-B", abs(sol.V1(B) - (1.0 + eps)), BOUNDARY_ATOL)
    add("boundary-V0-at-A", abs(sol.V0(A) - 1.0), BOUNDARY_ATOL)

    # Costs never exceed the upper payoff.
    add("cost-bound-V0", np.max([np.max(v0_stop), band_v0,
                                 np.max(sol.V0(upper_grid))]) - (1.0 + eps),
        BOUNDARY_ATOL)
    add("cost-bound-V1", np.max([np.max(v1_stop), band_v1,
                                 np.max(sol.V1(upper_grid))]) - (1.0 + eps),
        BOUNDARY_ATOL)

    return QviReport(conditions=tuple(conds))
