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
from .covariance import (CovarianceMatrix, NoiseParams,
                         complete_graph_sigma_c, f_integral,
                         steady_state_covariance)
from .errors import (CascadeRiskError, ConfigError, DivergenceError,
                     InvalidParameterError, InvalidQueryError,
                     InvalidSizeError, NearBoundaryError, NumericalError,
                     UnstablePlatoonError)
from .graph import (LaplacianSpectrum, WeightedGraph, build_complete,
                    build_custom, build_path, build_pcycle, laplacian,
                    spectrum)
from .risk import FailureScenario, risk_profile
from .simulate import EmpiricalCovariance, SimConfig, run
from .stability import StabilityReport, check_platoon, region_bound

__all__ = [
    "CascadeRiskError", "ConfigError", "CovarianceMatrix",
    "DivergenceError", "EmpiricalCovariance", "FailureScenario",
    "InvalidParameterError", "InvalidQueryError", "InvalidSizeError",
    "LaplacianSpectrum", "NearBoundaryError", "NoiseParams",
    "NumericalError", "SimConfig", "StabilityReport",
    "UnstablePlatoonError", "WeightedGraph", "build_complete",
    "build_custom", "build_path", "build_pcycle", "check_platoon",
    "complete_graph_sigma_c", "complete_profile", "f_integral",
    "laplacian", "region_bound", "risk_profile", "run", "spectrum",
    "steady_state_covariance",
]
