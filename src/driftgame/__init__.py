"""Zero-sum stopping game with one-sided drift information.

Closed-form equilibrium (thresholds, value functions, randomised stopping
intensity), a symmetric-information benchmark with the value of
information, exact-in-law path simulation with Skorokhod reflection, and an
independent Monte Carlo verification suite.
"""

__version__ = "0.1.0"

from .equilibrium import (
    BracketFailure,
    EquilibriumSolution,
    Exponents,
    QviReport,
    build_solution,
    check_qvi,
    compute_exponents,
    compute_upper_threshold,
    deviation_value_player1,
    solve_threshold_ratio,
)
from .model import (
    DomainError,
    InvalidParameters,
    ModelParams,
    belief_to_ratio,
    ratio_to_belief,
)
from .simulate import (
    Measure,
    SimConfig,
    Trajectory,
    generate_trajectory,
    reflect,
    simulate_phi,
    stop_at_lower,
    substream,
)
from .symmetric import NoConvergence, SymmetricSolution, VoiCurve, solve_symmetric, \
    value_of_information
from .sweeps import SweepResult, SweepSpec, run_sweep, sample_path_figure
from .verify import (
    DeviationReport,
    MCEstimate,
    deviations_player1,
    deviations_player2,
    mc_oracle_suite,
)

__all__ = [name for name in dir() if not name.startswith("_")]
