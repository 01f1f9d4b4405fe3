"""Stackelberg equilibrium of a blockchain-service market with cyber-insurance."""

from .demand import (
    DemandProfile,
    ExternalityGraph,
    Segment,
    closed_form_demand,
    lcp_demand,
    spectral_radius,
)
from .equilibrium import (
    EquilibriumReport,
    SolveOptions,
    best_response_insurer,
    best_response_provider,
    solve_stackelberg,
)
from .errors import (
    ChainsureError,
    ConfigurationError,
    ContractionViolation,
    ConvergenceError,
    UniquenessViolation,
)
from .harness import (
    ExperimentConfig,
    SweepRow,
    emit_csv,
    generate_instance,
    run_sweep,
    solve_point,
    sweep_points,
)
from .market import (
    InsurerStrategy,
    MarketParams,
    ProviderStrategy,
    ThresholdCheck,
    check_existence,
    check_uniqueness,
    insurer_curvature,
    insurer_gradient,
    insurer_profit,
    provider_gradient,
    provider_profit,
)
from .risk import (
    RiskModel,
    attack_probability,
    distorted_log_moments,
    premium,
    premium_curve,
    survival_grid,
)
from .specfun import reg_inc_beta

__version__ = "0.1.0"

__all__ = [
    "ChainsureError",
    "ConfigurationError",
    "ContractionViolation",
    "ConvergenceError",
    "DemandProfile",
    "EquilibriumReport",
    "ExperimentConfig",
    "ExternalityGraph",
    "InsurerStrategy",
    "MarketParams",
    "ProviderStrategy",
    "RiskModel",
    "Segment",
    "SolveOptions",
    "SweepRow",
    "ThresholdCheck",
    "UniquenessViolation",
    "attack_probability",
    "best_response_insurer",
    "best_response_provider",
    "check_existence",
    "check_uniqueness",
    "closed_form_demand",
    "distorted_log_moments",
    "emit_csv",
    "generate_instance",
    "insurer_curvature",
    "insurer_gradient",
    "insurer_profit",
    "lcp_demand",
    "premium",
    "premium_curve",
    "provider_gradient",
    "provider_profit",
    "reg_inc_beta",
    "run_sweep",
    "solve_point",
    "solve_stackelberg",
    "spectral_radius",
    "survival_grid",
    "sweep_points",
]
