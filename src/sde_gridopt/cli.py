"""Command-line front end emitting the package's reference experiments as CSV.

Subcommands:

* ``gramian``      tabulate G_t, Q_t, K_t and the weights F_t, S_t over the mesh
* ``convergence``  run the covariance recursion over an N-sweep with limit rows
* ``mc-verify``    Monte Carlo consistency check of the predicted errors
* ``ou-table``     analytic vs quadrature optimum table for scalar OU models

Configs are sectioned key-value files; array values use Python literal
syntax (parsed with ast.literal_eval, never eval).  All CSV output is
UTF-8 with a header row and 17-significant-digit floats, so repeated runs
are byte-identical on one platform.  Errors exit nonzero after printing a
single machine-parsable ``error: ...`` line on stderr; a table with a NaN
or inf cell is such an error and is not written, and numpy's overflow
warnings on the way to it are not printed.
"""

from __future__ import annotations

import argparse
import ast
import configparser
import csv
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .asymptotics import (
    min_phi_value,
    optimal_profile,
    ou_closed_forms,
    phi_functional,
    ups_functional,
    weight_curve,
)
from .grid import MESH_PANELS, GridDensity, TimeGrid, grid_from_density, uniform_density
from .matfun import _transition
from .model import LinearSdeModel, ModelValidationError, validate_model
from .solver import mc_verify_mse, sigma_path

__all__ = [
    "ExperimentConfig",
    "parse_config",
    "cmd_gramian",
    "cmd_convergence",
    "cmd_mc_verify",
    "cmd_ou_table",
    "main",
]

_GRID_KINDS = ("uniform", "terminal-optimal", "integral-optimal", "file")
_DEFAULT_OU_SWEEP = (0.01, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0)


@dataclass
class ExperimentConfig:
    """Validated experiment description parsed from a config file."""

    model: LinearSdeModel
    grid_kind: str = "uniform"
    n_steps: int | None = None
    n_sweep: list[int] = field(default_factory=list)
    grid_file: str | None = None
    paths: int = 100_000
    seed: int = 0
    outdir: str = "out"
    ou_sweep: list[float] = field(default_factory=lambda: list(_DEFAULT_OU_SWEEP))


def _literal(cp: configparser.ConfigParser, section: str, key: str):
    try:
        return ast.literal_eval(cp.get(section, key))
    except (ValueError, SyntaxError) as exc:
        raise ValueError(f"config [{section}] {key}: not a valid literal") from exc


def parse_config(path: str) -> ExperimentConfig:
    """Read and validate an experiment config file."""
    cp = configparser.ConfigParser()
    with open(path, encoding="utf-8") as fh:
        cp.read_file(fh)
    if not cp.has_section("model"):
        raise ValueError("config needs a [model] section")
    model = LinearSdeModel(
        A=np.array(_literal(cp, "model", "A"), dtype=float),
        B=np.array(_literal(cp, "model", "B"), dtype=float),
        M=np.array(_literal(cp, "model", "M"), dtype=float),
        T=float(_literal(cp, "model", "T")),
    )
    validate_model(model)
    cfg = ExperimentConfig(model=model)

    if cp.has_section("grid"):
        if cp.has_option("grid", "kind"):
            cfg.grid_kind = cp.get("grid", "kind").strip()
            if cfg.grid_kind not in _GRID_KINDS:
                raise ValueError(f"config [grid] kind must be one of {_GRID_KINDS}")
        if cp.has_option("grid", "N"):
            cfg.n_steps = int(_literal(cp, "grid", "N"))
            if cfg.n_steps < 1:
                raise ValueError("config [grid] N must be at least 1")
        if cp.has_option("grid", "N_sweep"):
            sweep = [int(v) for v in _literal(cp, "grid", "N_sweep")]
            if any(b <= a for a, b in zip(sweep, sweep[1:])) or not sweep:
                raise ValueError("config [grid] N_sweep must be strictly increasing")
            if min(sweep) < 1:
                raise ValueError("config [grid] N_sweep entries must be at least 1")
            cfg.n_sweep = sweep
        if cp.has_option("grid", "file"):
            raw = cp.get("grid", "file").strip()
            cfg.grid_file = os.path.join(os.path.dirname(os.path.abspath(path)), raw)
        if cfg.grid_kind == "file" and cfg.grid_file is None:
            raise ValueError("config [grid] kind=file needs a file= entry")

    if cp.has_section("mc"):
        if cp.has_option("mc", "paths"):
            cfg.paths = int(_literal(cp, "mc", "paths"))
            if cfg.paths < 100:
                raise ValueError("config [mc] paths must be at least 100")
        if cp.has_option("mc", "seed"):
            cfg.seed = int(_literal(cp, "mc", "seed"))
            if not 0 <= cfg.seed < 2**64:
                raise ValueError("config [mc] seed must fit in uint64")

    if cp.has_section("output") and cp.has_option("output", "dir"):
        cfg.outdir = cp.get("output", "dir").strip()

    if cp.has_section("ou") and cp.has_option("ou", "T_sweep"):
        sweep = [float(v) for v in _literal(cp, "ou", "T_sweep")]
        if not sweep or any(t <= 0 for t in sweep):
            raise ValueError("config [ou] T_sweep entries must be positive")
        cfg.ou_sweep = sweep

    return cfg


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


def _write_csv(outdir: str, name: str, header: list[str], rows, quiet: bool) -> str:
    """Write the table, refusing (before touching the file) any NaN or inf cell.

    rows is a sequence, read twice: once to check it, once to format and
    write it row by row.
    """
    path = os.path.join(outdir, name)
    bad = sum(isinstance(v, float) and not math.isfinite(v) for row in rows for v in row)
    if bad:
        raise ValueError(f"{path}: {bad} NaN or inf values, not written")
    os.makedirs(outdir, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)
    if not quiet:
        print(f"wrote {path}")
    return path


def _density_for(cfg: ExperimentConfig) -> GridDensity | None:
    if cfg.grid_kind == "uniform":
        return uniform_density(cfg.model.T)
    if cfg.grid_kind == "terminal-optimal":
        return optimal_profile(cfg.model, "terminal")[0]
    if cfg.grid_kind == "integral-optimal":
        return optimal_profile(cfg.model, "integral")[0]
    return None


def _grid_for(cfg: ExperimentConfig, N: int | None) -> tuple[TimeGrid, GridDensity | None]:
    if cfg.grid_kind == "file":
        pts = np.loadtxt(cfg.grid_file, dtype=float, ndmin=1)
        grid = TimeGrid(pts)
        if grid.horizon != cfg.model.T:
            raise ValueError("grid file horizon does not match the model")
        return grid, None
    if N is None:
        raise ValueError("grid synthesis needs N or N_sweep in the config")
    psi = _density_for(cfg)
    return grid_from_density(psi, N), psi


def cmd_gramian(cfg: ExperimentConfig, quiet: bool = False) -> str:
    """Tabulate G_t, Q_t, K_t, F_t, S_t over the standard mesh."""
    model = cfg.model
    n = model.n
    mesh = np.linspace(0.0, model.T, MESH_PANELS + 1)
    F = weight_curve(model, "terminal").values
    S = weight_curve(model, "integral").values
    labels = [f"{i + 1}{j + 1}" for i in range(n) for j in range(n)]
    header = (
        ["t"]
        + [f"G_{s}" for s in labels]
        + [f"Q_{s}" for s in labels]
        + [f"K_{s}" for s in labels]
        + ["F", "S"]
    )
    _, _, K, G = _transition(model.A, model.D, mesh)
    Q = _transition(model.A.T, model.M, mesh)[3]
    L = mesh.size
    table = np.column_stack((mesh, G.reshape(L, -1), Q.reshape(L, -1), K.reshape(L, -1), F, S))
    return _write_csv(cfg.outdir, "gramian.csv", header, table, quiet)


def _convergence_row(cfg: ExperimentConfig, N: int) -> list:
    grid, _ = _grid_for(cfg, N)
    _, rep = sigma_path(cfg.model, grid)
    return [grid.n_steps, rep.terminal, rep.integral, rep.n2_terminal, rep.n2_integral]


def cmd_convergence(cfg: ExperimentConfig, quiet: bool = False) -> str:
    """Covariance recursion over the N-sweep plus trailing limit reference rows."""
    sweep = cfg.n_sweep or ([cfg.n_steps] if cfg.n_steps else [])
    if cfg.grid_kind == "file":
        sweep = [None]
    elif not sweep:
        raise ValueError("convergence needs N or N_sweep in the config")
    rows = [_convergence_row(cfg, N) for N in sweep]
    psi = _density_for(cfg)
    if psi is not None:
        phi = None if psi.values[-1] == 0.0 else phi_functional(cfg.model, psi)
        ups = ups_functional(cfg.model, psi)
        rows.append(["limit", None, None, phi, ups])
    header = ["N", "T_N", "I_N", "N2T_N", "N2I_N"]
    return _write_csv(cfg.outdir, "convergence.csv", header, rows, quiet)


def cmd_mc_verify(cfg: ExperimentConfig, quiet: bool = False) -> str:
    """Monte Carlo terminal-error check, one row per grid size."""
    sweep = cfg.n_sweep or ([cfg.n_steps] if cfg.n_steps else [])
    if cfg.grid_kind == "file":
        sweep = [None]
    elif not sweep:
        raise ValueError("mc-verify needs N or N_sweep in the config")
    rows = []
    for N in sweep:
        grid, _ = _grid_for(cfg, N)
        x0 = np.zeros(cfg.model.n)
        sample, predicted, stderr = mc_verify_mse(cfg.model, grid, x0, cfg.paths, cfg.seed)
        z = (sample - predicted) / stderr if stderr > 0 else 0.0
        rows.append([grid.n_steps, sample, predicted, stderr, z])
    header = ["N", "sample_mse", "predicted", "stderr", "zscore"]
    return _write_csv(cfg.outdir, "mc_verify.csv", header, rows, quiet)


def cmd_ou_table(cfg: ExperimentConfig, quiet: bool = False) -> str:
    """Analytic vs quadrature optimum table for a scalar OU model."""
    base = cfg.model
    if base.n != 1 or base.m != 1:
        raise ValueError("ou-table needs a scalar model")
    rows = []
    for T in cfg.ou_sweep:
        model = LinearSdeModel(A=base.A, B=base.B, M=base.M, T=float(T))
        forms = ou_closed_forms(model)
        quad_min = min_phi_value(model)
        quad_uniform = phi_functional(model, uniform_density(model.T))
        rows.append(
            [
                T,
                forms.min_phi,
                quad_min,
                forms.phi_uniform,
                quad_uniform,
                forms.ratio,
                quad_uniform / quad_min,
                forms.ratio_asymptote,
            ]
        )
    header = [
        "T",
        "min_phi",
        "min_phi_quad",
        "phi_uniform",
        "phi_uniform_quad",
        "ratio",
        "ratio_quad",
        "ratio_asymptote",
    ]
    return _write_csv(cfg.outdir, "ou_table.csv", header, rows, quiet)


_COMMANDS = {
    "gramian": cmd_gramian,
    "convergence": cmd_convergence,
    "mc-verify": cmd_mc_verify,
    "ou-table": cmd_ou_table,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="sde-gridopt",
        description="Linear SDE error recursion and optimal time grids",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__.splitlines()[0].lower())
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--seed", type=int, help="uint64 seed (overrides config)")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if args.out is not None:
            cfg.outdir = args.out
        if args.seed is not None:
            if not 0 <= args.seed < 2**64:
                raise ValueError("--seed must fit in uint64")
            cfg.seed = args.seed
        # an overflowing model ends in a refused table, reported below
        with np.errstate(over="ignore", invalid="ignore"):
            _COMMANDS[args.command](cfg, quiet=args.quiet)
    except (ModelValidationError, ValueError, OSError, configparser.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
