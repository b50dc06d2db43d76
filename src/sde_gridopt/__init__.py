"""Exact simulation of linear SDEs and mean-square optimal time grids.

The package solves dX = AX dt + B dW exactly on arbitrary time grids via
the conditional-moment (Kalman) recursion, evaluates the terminal and
integral mean-square errors of the best increment-measurable
reconstruction, and builds the cube-root-law grid densities that minimise
their fine-grid limits.
"""

from .asymptotics import (
    AsymptoticReport,
    OuClosedForms,
    WeightCurve,
    asymptotic_report,
    functional_quadrature_bound,
    limit_sigma,
    min_phi_value,
    min_ups_value,
    optimal_profile,
    ou_closed_forms,
    phi_functional,
    ups_functional,
    weight_F,
    weight_S,
    weight_curve,
)
from .grid import (
    MESH_PANELS,
    GridDensity,
    TimeGrid,
    density_from_weight,
    empirical_density,
    grid_from_density,
    uniform_density,
)
from .matfun import (
    ctrl_gramian,
    kt_matrix,
    mat_exp,
    mho,
    obs_gramian,
    phi1,
    weight_propagate,
)
from .model import (
    LinearSdeModel,
    ModelValidationError,
    RegularityReport,
    frobenius_pairing,
    regularity_check,
    validate_model,
)
from .solver import (
    ErrorReport,
    KalmanState,
    PathSample,
    WienerIncrements,
    bridge_moments,
    closed_form_sigma,
    euler_maruyama_step,
    kalman_step,
    mc_verify_integral,
    mc_verify_mse,
    milstein_step_scalar,
    run_filter,
    sample_bridge_refinement,
    sigma_path,
    sample_exact_path,
    sample_joint_increment,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # model
    "LinearSdeModel",
    "ModelValidationError",
    "RegularityReport",
    "frobenius_pairing",
    "regularity_check",
    "validate_model",
    # matfun
    "mat_exp",
    "phi1",
    "ctrl_gramian",
    "obs_gramian",
    "weight_propagate",
    "kt_matrix",
    "mho",
    # grid
    "MESH_PANELS",
    "GridDensity",
    "TimeGrid",
    "uniform_density",
    "density_from_weight",
    "grid_from_density",
    "empirical_density",
    # solver
    "WienerIncrements",
    "KalmanState",
    "PathSample",
    "ErrorReport",
    "sample_joint_increment",
    "sample_exact_path",
    "kalman_step",
    "sigma_path",
    "run_filter",
    "closed_form_sigma",
    "euler_maruyama_step",
    "milstein_step_scalar",
    "bridge_moments",
    "sample_bridge_refinement",
    "mc_verify_mse",
    "mc_verify_integral",
    # asymptotics
    "WeightCurve",
    "AsymptoticReport",
    "OuClosedForms",
    "weight_curve",
    "weight_F",
    "weight_S",
    "phi_functional",
    "ups_functional",
    "functional_quadrature_bound",
    "min_phi_value",
    "min_ups_value",
    "optimal_profile",
    "asymptotic_report",
    "limit_sigma",
    "ou_closed_forms",
]
