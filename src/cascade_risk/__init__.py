"""Value-at-risk of cascading collisions in noisy, delayed platoons.

The pipeline: build a communication graph, check every Laplacian mode
against the delay stability region, assemble the steady-state covariance
of inter-vehicle distances, condition on observed failures, and read
off the three-branch collision risk. A Monte Carlo integrator provides
an independent check of the covariance, and complete graphs get a
closed-form fast path.
"""

__version__ = "0.1.0"

from .closed_form import complete_profile
from .covariance import (CovarianceMatrix, NoiseParams, PlatoonParams,
                         complete_graph_sigma_c, f_integral,
                         steady_state_covariance)
from .errors import (CascadeRiskError, ConfigError, DivergenceError,
                     IllConditionedScenarioError, InvalidParameterError,
                     InvalidQueryError, InvalidSizeError, NearBoundaryError,
                     NumericalError, UnstablePlatoonError)
from .graph import (LaplacianSpectrum, WeightedGraph, add_pair_edges,
                    build_complete, build_custom, build_path, build_pcycle,
                    laplacian, pair_difference_matrix, spectrum)
from .risk import (ConditionalDistribution, FailureScenario, ProfileEntry,
                   RiskResult, condition, iota, risk_profile, var_risk)
from .simulate import EmpiricalCovariance, SimConfig, run
from .stability import StabilityReport, check_platoon, region_bound

__all__ = [
    "CascadeRiskError", "ConditionalDistribution", "ConfigError",
    "CovarianceMatrix", "DivergenceError", "EmpiricalCovariance",
    "FailureScenario", "IllConditionedScenarioError",
    "InvalidParameterError", "InvalidQueryError", "InvalidSizeError",
    "LaplacianSpectrum", "NearBoundaryError", "NoiseParams",
    "NumericalError", "PlatoonParams", "ProfileEntry", "RiskResult",
    "SimConfig", "StabilityReport", "UnstablePlatoonError", "WeightedGraph",
    "add_pair_edges", "build_complete", "build_custom", "build_path",
    "build_pcycle", "check_platoon", "complete_graph_sigma_c",
    "complete_profile", "condition", "f_integral", "iota", "laplacian",
    "pair_difference_matrix", "region_bound", "risk_profile", "run",
    "spectrum", "steady_state_covariance", "var_risk",
]
