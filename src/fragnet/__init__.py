"""Spectral fragility analysis of reconstructed interbank exposure networks.

The pipeline: load or synthesize a bank exposure panel, reconstruct a
symmetric network per year, measure fragility through the Laplacian
spectrum, simulate distress diffusion and failure cascades, and estimate
treatment effects on the fragility series with bootstrap inference.
"""

__version__ = "0.1.0"

from .errors import DomainError, FragnetError, GreedyStalled, InputError
from .panel import BankRecord, ExposurePanel, load_panel, synthesize_panel, write_panel
from .network import (
    DirectedExposureMatrix,
    NetworkStats,
    WeightedGraph,
    allocate,
    build_graph,
    network_stats,
    symmetrize,
    validate_conservation,
)
from .spectral import (
    FragilityMetrics,
    complete_graph_lambda2,
    fragility_metrics,
    lambda2,
    lambda2_batch,
    mixing_time,
    quadratic_form,
    spectral_centralities,
)
from .diffusion import (
    CascadeResult,
    DistressState,
    ForcingSpec,
    amplification_bound,
    ate_trajectory,
    cascade_stress_test,
    evolve,
    evolve_forced,
    greedy_deleverage,
)
from .inference import (
    BootstrapResult,
    DidEstimate,
    FragilitySeries,
    balanced_panel,
    bootstrap_did,
    consolidation_elasticity,
    did_detrended,
    did_level,
    make_series,
    ols_trend,
    placebo_test,
    policy_calculators,
    subgroup_lambda2,
)

__all__ = [
    "BankRecord",
    "BootstrapResult",
    "CascadeResult",
    "DidEstimate",
    "DirectedExposureMatrix",
    "DistressState",
    "DomainError",
    "ExposurePanel",
    "ForcingSpec",
    "FragilityMetrics",
    "FragilitySeries",
    "FragnetError",
    "GreedyStalled",
    "InputError",
    "NetworkStats",
    "WeightedGraph",
    "allocate",
    "amplification_bound",
    "ate_trajectory",
    "balanced_panel",
    "bootstrap_did",
    "build_graph",
    "cascade_stress_test",
    "complete_graph_lambda2",
    "consolidation_elasticity",
    "did_detrended",
    "did_level",
    "evolve",
    "evolve_forced",
    "fragility_metrics",
    "greedy_deleverage",
    "lambda2",
    "lambda2_batch",
    "load_panel",
    "make_series",
    "mixing_time",
    "network_stats",
    "ols_trend",
    "placebo_test",
    "policy_calculators",
    "quadratic_form",
    "spectral_centralities",
    "subgroup_lambda2",
    "symmetrize",
    "synthesize_panel",
    "validate_conservation",
    "write_panel",
]
