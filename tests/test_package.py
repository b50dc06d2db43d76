"""The package's public surface: each name written once, in its module's __all__."""

import importlib
import re
from pathlib import Path

import pytest

import sde_gridopt
from sde_gridopt import asymptotics, grid, matfun, model, solver
from sde_gridopt.cli import cmd_convergence, parse_config

MODULES = (model, matfun, grid, solver, asymptotics)
REPO = Path(__file__).resolve().parents[1]

PUBLIC = {
    "__version__",
    # model
    "LinearSdeModel",
    "ModelValidationError",
    "RegularityReport",
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
    "GridDensity",
    "TimeGrid",
    "uniform_density",
    "density_from_weight",
    "grid_from_density",
    # solver
    "WienerIncrements",
    "ErrorReport",
    "sample_exact_path",
    "kalman_step",
    "sigma_path",
    "error_report",
    "run_filter",
    "mc_verify_mse",
    # asymptotics
    "OuClosedForms",
    "weight_curve",
    "phi_functional",
    "ups_functional",
    "min_phi_value",
    "min_ups_value",
    "optimal_profile",
    "limit_sigma",
    "ou_closed_forms",
}

# reference schemes and oracles that only the tests call; they live in tests/helpers.py
TEST_ONLY = (
    "closed_form_sigma",
    "sample_joint_increment",
    "psd_root",
    "weight_F",
    "weight_S",
    "weight_rows",
    "limit_sigma_ode",
    "euler_maruyama_step",
    "milstein_step_scalar",
    "bridge_moments",
    "sample_bridge_refinement",
    "empirical_density",
    "AsymptoticReport",
    "asymptotic_report",
    "functional_quadrature_bound",
    "mc_verify_integral",
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


def test_version_written_once():
    # pyproject.toml reads the version from the package, which holds the only copy
    tomllib = pytest.importorskip("tomllib")
    with (REPO / "pyproject.toml").open("rb") as fh:
        pyproject = tomllib.load(fh)
    assert "version" not in pyproject["project"]
    assert pyproject["project"]["dynamic"] == ["version"]
    module, name = pyproject["tool"]["setuptools"]["dynamic"]["version"]["attr"].rsplit(".", 1)
    assert getattr(importlib.import_module(module), name) is sde_gridopt.__version__


def test_readme_config_block_runs(tmp_path):
    # the first ini block of README.md parses as written and runs the
    # convergence sweep it describes; an inline "; comment" on a value line
    # once made it a config error
    text = (REPO / "README.md").read_text(encoding="utf-8")
    block = text.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(block, encoding="utf-8")
    cfg = parse_config(str(cfg_path))
    cfg.outdir = str(tmp_path / "out")
    path = cmd_convergence(cfg, quiet=True)
    rows = Path(path).read_text(encoding="utf-8").splitlines()
    assert rows[0] == "N,T_N,I_N,N2T_N,N2I_N"
    assert [row.split(",")[0] for row in rows[1:]] == [*map(str, cfg.n_sweep), "limit"]


def test_readme_quickstart_prints_the_stated_limits(capsys):
    # the first python block of README.md runs as written and prints the
    # limits its comments state, to the digits they state
    text = (REPO / "README.md").read_text(encoding="utf-8")
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    stated = re.findall(r"^print\(.*\)\s+# ~(\d+\.\d+)", block, flags=re.M)
    assert stated == ["0.03603", "0.03240"]
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    for line, digits in zip(printed, stated):
        assert f"{float(line):.{len(digits.split('.')[1])}f}" == digits
