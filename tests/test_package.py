"""The package's public surface: each name written once, in its module's __all__."""

import pytest

import sde_gridopt
from sde_gridopt import asymptotics, grid, matfun, model, solver

MODULES = (model, matfun, grid, solver, asymptotics)

PUBLIC = {
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
}

# reference schemes and oracles that only the tests call; they live in tests/helpers.py
TEST_ONLY = (
    "closed_form_sigma",
    "euler_maruyama_step",
    "milstein_step_scalar",
    "bridge_moments",
    "sample_bridge_refinement",
    "empirical_density",
)


def test_public_names():
    assert set(sde_gridopt.__all__) == PUBLIC
    assert len(sde_gridopt.__all__) == len(PUBLIC)  # no name listed twice


def test_each_name_is_its_module_object():
    owners = [name for mod in MODULES for name in mod.__all__]
    assert len(owners) == len(set(owners))  # each name has one home module
    assert ["__version__", *owners] == sde_gridopt.__all__
    for mod in MODULES:
        for name in mod.__all__:
            assert getattr(sde_gridopt, name) is getattr(mod, name)


@pytest.mark.parametrize("name", TEST_ONLY)
def test_test_only_code_is_not_in_the_package(name):
    with pytest.raises(ImportError):
        exec(f"from sde_gridopt import {name}", {})
    assert not any(hasattr(mod, name) for mod in MODULES)
