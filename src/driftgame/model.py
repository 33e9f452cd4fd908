"""Game primitives, derived quantities, and belief-coordinate conversions.

The stopping game is parametrised by two drift regimes mu0 < 0 < mu1, a
volatility sigma, a premium eps paid by the later stopper, an initial asset
level, and a prior probability that the drift is high.  Every downstream
formula works in the likelihood-ratio coordinate phi = pi/(1-pi); the
probability coordinate pi only appears at the CLI boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class InvalidParameters(ValueError):
    """Model parameters violate the standing assumptions."""


class DomainError(ValueError):
    """An argument falls outside an operation's domain."""


@dataclass(frozen=True)
class ModelParams:
    """Immutable game primitives.  Validation is eager: downstream code
    assumes a constructed instance is valid."""

    mu0: float           # drift per unit time in the low regime, < 0
    mu1: float           # drift per unit time in the high regime, > 0
    sigma: float         # volatility per sqrt-time, > 0
    eps: float           # stopping premium of the later stopper, > 0
    x0: float = 1.0      # initial asset level, > 0
    prior: float = 0.5   # probability that the drift is mu1, in (0, 1)

    def __post_init__(self):
        bad = []
        # math.isfinite rejects NaN and inf; prior's bounds do too.
        if not (math.isfinite(self.mu0) and self.mu0 < 0.0):
            bad.append(f"mu0={self.mu0}")
        if not (math.isfinite(self.mu1) and self.mu1 > 0.0):
            bad.append(f"mu1={self.mu1}")
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            bad.append(f"sigma={self.sigma}")
        if not (math.isfinite(self.eps) and self.eps > 0.0):
            bad.append(f"eps={self.eps}")
        if not (math.isfinite(self.x0) and self.x0 > 0.0):
            bad.append(f"x0={self.x0}")
        if not 0.0 < self.prior < 1.0:
            bad.append(f"prior={self.prior}")
        if bad:
            raise InvalidParameters(
                "invalid parameters: " + ", ".join(bad)
                + " (requires finite mu0 < 0 < mu1, sigma > 0, eps > 0, x0 > 0, "
                "0 < prior < 1)"
            )


@dataclass(frozen=True)
class DerivedQuantities:
    omega: float   # signal-to-noise ratio (mu1 - mu0) / sigma, > 0
    phi0: float    # initial likelihood ratio prior / (1 - prior), > 0


def derive(params: ModelParams) -> DerivedQuantities:
    """Signal-to-noise ratio and initial likelihood ratio of a parameter set."""
    return DerivedQuantities(
        omega=(params.mu1 - params.mu0) / params.sigma,
        phi0=belief_to_ratio(params.prior),
    )


def belief_to_ratio(pi: float) -> float:
    """Map a probability pi in (0,1) to the odds ratio pi/(1-pi) in (0,inf)."""
    if not 0.0 < pi < 1.0:
        raise DomainError(f"pi={pi} outside (0, 1)")
    return pi / (1.0 - pi)


def ratio_to_belief(phi: float) -> float:
    """Inverse of :func:`belief_to_ratio`: phi/(1+phi)."""
    if not phi > 0.0 or math.isinf(phi):
        raise DomainError(f"phi={phi} outside (0, inf)")
    return phi / (1.0 + phi)
