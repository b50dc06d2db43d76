"""Command-line front end emitting the package's reference experiments as CSV.

Subcommands:

* ``gramian``      tabulate G_t, Q_t, K_t and the weights F_t, S_t over the mesh
* ``convergence``  run the covariance recursion over an N-sweep with limit rows
* ``mc-verify``    Monte Carlo consistency check of the predicted errors
* ``ou-table``     analytic vs quadrature optimum table for scalar OU models

Configs are sectioned key-value files; ``kind``, ``file`` and ``dir`` are
plain text (no % interpolation), other values Python literals (parsed with
ast.literal_eval, never eval).  Every key goes through one reader that
refuses a value of the wrong type or range, naming the key: a float where
an integer belongs is refused, never truncated, and an empty path (``file``,
``dir``, ``--out``), an unknown key, ``[grid] file`` beside any kind but
``file``, or ``N`` or ``N_sweep`` beside ``kind = file``, is refused.
``[grid] N`` is a one-element sweep; ``N_sweep`` wins when both are
given.  All CSV output is UTF-8 with a header row and CRLF line ends; a
number is written as ``%.17g`` and a label as it is, so repeated runs are
byte-identical on one platform.  Errors exit with status 2 after printing
a single machine-parsable ``error: ...`` line on stderr; a table with a NaN or inf cell is such an error and is not
written, and numpy's overflow warnings on the way to it are not printed.
"""

from __future__ import annotations

import argparse
import ast
import configparser
import math
import operator
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .asymptotics import (
    _curves,
    _mesh_transition,
    min_phi_value,
    optimal_profile,
    ou_closed_forms,
    phi_functional,
    ups_functional,
)
from .grid import GridDensity, TimeGrid, grid_from_density, uniform_density
from .model import LinearSdeModel, ModelValidationError
from .solver import error_report, mc_verify_mse

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
    n_sweep: list[int] = field(default_factory=list)
    grid_file: str | None = None
    paths: int = 100_000
    seed: int = 0
    outdir: str = "out"
    ou_sweep: list[float] = field(default_factory=lambda: list(_DEFAULT_OU_SWEEP))


def _int(v, low: int, high: float = math.inf) -> int:
    """v if it is an int in [low, high); a float or a bool is refused, never truncated."""
    if type(v) is not int or not low <= v < high:
        raise ValueError(f"{v!r} is not an integer in [{low}, {high})")
    return v


def _real(v, positive: bool = False) -> float:
    if type(v) not in (int, float) or (positive and not v > 0):  # a bool is refused too
        raise ValueError(f"{v!r} is not a {'positive ' * positive}number")
    return float(v)


def _list(entry, increasing: bool = False):
    """Converter to a non-empty list of converted entries, strictly increasing if asked."""

    def convert(v) -> list:
        out = [entry(x) for x in v] if type(v) in (list, tuple) else []
        if not out or (increasing and any(b <= a for a, b in zip(out, out[1:]))):
            raise ValueError(f"{v!r} is not a non-empty{' strictly increasing' * increasing} list")
        return out

    return convert


def _seed(v) -> int:
    return _int(v, 0, 2**64)


def _grid_kind(raw: str) -> str:
    if raw not in _GRID_KINDS:
        raise ValueError(f"{raw!r} is not one of {_GRID_KINDS}")
    return raw


def _path(v: str) -> str:
    if not v:  # it would fail only when opened, after the work
        raise ValueError("an empty value is not a path")
    return v


def _array(v) -> np.ndarray:
    return np.array(v, dtype=float)


# The [model] keys as (key, converter), all required.
_MODEL = (("A", _array), ("B", _array), ("M", _array), ("T", _real))
# Optional keys as (section, key, field, converter); an absent key keeps the
# field's default. N is a one-element sweep, read first so that N_sweep wins.
_OPTIONAL = (
    ("grid", "kind", "grid_kind", _grid_kind),
    ("grid", "N", "n_sweep", lambda v: [_int(v, 1)]),
    ("grid", "N_sweep", "n_sweep", _list(lambda N: _int(N, 1), increasing=True)),
    ("grid", "file", "grid_file", _path),
    ("mc", "paths", "paths", lambda v: _int(v, 100)),
    ("mc", "seed", "seed", _seed),
    ("output", "dir", "outdir", _path),
    ("ou", "T_sweep", "ou_sweep", _list(lambda T: _real(T, positive=True))),
)
_TEXT_KEYS = ("kind", "file", "dir")  # plain text, not Python literals


def _convert(name: str, raw: str, convert, literal: bool = True):
    """convert(raw), read as a Python literal if ``literal``; any failure names the key or flag."""
    try:
        value = ast.literal_eval(raw) if literal else raw
    except (ValueError, TypeError, SyntaxError):
        raise ValueError(f"{name}: not a valid literal") from None
    try:
        return convert(value)
    except (ValueError, TypeError) as exc:
        raise ValueError(f"{name}: {exc}") from None


def _read(cp: configparser.ConfigParser, section: str, key: str, convert):
    """``[section] key`` parsed and converted; any failure is a ValueError naming the key."""
    raw = cp.get(section, key).strip()
    return _convert(f"config [{section}] {key}", raw, convert, literal=key not in _TEXT_KEYS)


def parse_config(path: str) -> ExperimentConfig:
    """Read and validate an experiment config file; an unknown key is refused."""
    # no section can be named "", so [DEFAULT] is a section like any other and
    # its keys are not copied into every section; no interpolation, so a % is plain text
    cp = configparser.ConfigParser(default_section="", interpolation=None)
    with open(path, encoding="utf-8") as fh:
        cp.read_file(fh)
    # configparser lowercases keys, so they are compared in lowercase
    known = {("model", k.lower()) for k, _ in _MODEL} | {(s, k.lower()) for s, k, *_ in _OPTIONAL}
    unknown = [f"[{s}] {k}" for s in cp.sections() for k in cp.options(s) if (s, k) not in known]
    if unknown:
        raise ValueError(f"config has unknown keys: {', '.join(unknown)}")
    if not cp.has_section("model"):
        raise ValueError("config needs a [model] section")
    A, B, M, T = (_read(cp, "model", key, convert) for key, convert in _MODEL)
    cfg = ExperimentConfig(model=LinearSdeModel(A=A, B=B, M=M, T=T))
    for section, key, name, convert in _OPTIONAL:
        if cp.has_option(section, key):
            setattr(cfg, name, _read(cp, section, key, convert))
    if cfg.grid_file is not None:
        if cfg.grid_kind != "file":
            raise ValueError(f"config [grid] file: read only with kind = file, not {cfg.grid_kind}")
        cfg.grid_file = os.path.join(os.path.dirname(os.path.abspath(path)), cfg.grid_file)
    elif cfg.grid_kind == "file":
        raise ValueError("config [grid] kind=file needs a file= entry")
    for key in ("N", "N_sweep"):
        if cfg.grid_kind == "file" and cp.has_option("grid", key):
            raise ValueError(f"config [grid] {key}: not read with kind = file")
    return cfg


def _column_map(table: np.ndarray) -> tuple[list[int], list[int]]:
    """The distinct columns of a float table and each column's place among them.

    A column repeats an earlier one if their float64 bits are equal, so a
    0.0 column and a -0.0 column stay apart.  Candidates are found by a
    wrapping sum of each column's bits and confirmed by comparing the bits.
    """
    bits = table.view(np.uint64)
    seen: dict[int, list[int]] = {}  # column bit sum -> distinct columns with it
    keep: list[int] = []
    place: list[int] = []
    for j, key in enumerate(bits.sum(axis=0).tolist()):
        for k in seen.setdefault(key, []):
            if np.array_equal(bits[:, j], bits[:, k]):
                place.append(place[k])
                break
        else:
            seen[key].append(j)
            place.append(len(keep))
            keep.append(j)
    return keep, place


def _write_csv(outdir: str, name: str, header: list[str], rows, quiet: bool) -> str:
    """Write the table, refusing (before touching the file) any NaN or inf cell.

    rows is a 2-D float array or a list of lists; lines end in CRLF.  An
    array is checked by one ``np.isfinite`` and written row by row, never as
    one string: each distinct column (``_column_map``) is formatted once per
    row by one ``%.17g`` format, and a repeated column reuses its twin's
    text, as the mirrored entries of a symmetric matrix do.  A list is
    checked and written cell by cell: a string cell as it is, a number as
    ``%.17g``.  Both give the same bytes for the same numbers.
    """
    path = os.path.join(outdir, name)
    table = isinstance(rows, np.ndarray)
    if table:
        bad = rows.size - np.count_nonzero(np.isfinite(rows))
    else:
        bad = sum(not isinstance(v, str) and not math.isfinite(v) for row in rows for v in row)
    if bad:
        raise ValueError(f"{path}: {bad} NaN or inf values, not written")
    os.makedirs(outdir, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        if table:
            keep, place = _column_map(rows)
            fmt = ",".join(["%.17g"] * len(keep))
            # itemgetter of one index returns the item, not a 1-tuple: % takes a
            # bare float, but join would split a bare text into its characters
            pick = operator.itemgetter(*keep)
            put = operator.itemgetter(*place) if len(place) > 1 else tuple
            for row in rows:
                texts = (fmt % pick(row.tolist())).split(",")  # Python floats format faster
                fh.write(",".join(put(texts)) + "\r\n")
        else:
            for row in rows:
                fh.write(",".join(v if isinstance(v, str) else "%.17g" % v for v in row) + "\r\n")
    if not quiet:
        print(f"wrote {path}")
    return path


def _density_for(cfg: ExperimentConfig) -> GridDensity | None:
    if cfg.grid_kind == "uniform":
        return uniform_density(cfg.model.T)
    if cfg.grid_kind.endswith("-optimal"):
        return optimal_profile(cfg.model, cfg.grid_kind.removesuffix("-optimal"))
    return None


def _grid_for(cfg: ExperimentConfig, N: int | None) -> TimeGrid:
    if cfg.grid_kind == "file":
        return TimeGrid(np.loadtxt(cfg.grid_file, dtype=float, ndmin=1))
    return grid_from_density(_density_for(cfg), N)


def _sweep(cfg: ExperimentConfig) -> list:
    """The grid sizes to run: the config's N sweep, or one pass over a grid file."""
    if cfg.grid_kind == "file":
        return [None]
    if not cfg.n_sweep:
        raise ValueError("grid synthesis needs N or N_sweep in the config")
    return cfg.n_sweep


def cmd_gramian(cfg: ExperimentConfig, quiet: bool = False) -> str:
    """Tabulate G_t, Q_t, K_t, F_t, S_t over the standard mesh.

    Two semigroup builds of 128 kernel rows each give the table: the curves'
    over (A^T, M), which brings Q_t, and one over (A, D) for G_t and K_t.
    """
    model = cfg.model
    n = model.n
    mesh, F, S, Q = _curves(model)
    labels = [f"{i + 1}{j + 1}" for i in range(n) for j in range(n)]
    header = ["t"] + [f"{X}_{s}" for X in "GQK" for s in labels] + ["F", "S"]
    _, G, K = _mesh_transition(model.A, model.D, mesh, kt=True)
    L = mesh.size
    table = np.column_stack((mesh, G.reshape(L, -1), Q.reshape(L, -1), K.reshape(L, -1), F, S))
    return _write_csv(cfg.outdir, "gramian.csv", header, table, quiet)


def _convergence_row(cfg: ExperimentConfig, N: int) -> list:
    grid = _grid_for(cfg, N)
    rep = error_report(cfg.model, grid)
    return [grid.n_steps, rep.terminal, rep.integral, rep.n2_terminal, rep.n2_integral]


def cmd_convergence(cfg: ExperimentConfig, quiet: bool = False) -> str:
    """Covariance recursion over the N-sweep plus trailing limit reference rows."""
    rows = [_convergence_row(cfg, N) for N in _sweep(cfg)]
    psi = _density_for(cfg)
    if psi is not None:
        phi = "" if psi.values[-1] == 0.0 else phi_functional(cfg.model, psi)
        ups = ups_functional(cfg.model, psi)
        rows.append(["limit", "", "", phi, ups])
    header = ["N", "T_N", "I_N", "N2T_N", "N2I_N"]
    return _write_csv(cfg.outdir, "convergence.csv", header, rows, quiet)


def cmd_mc_verify(cfg: ExperimentConfig, quiet: bool = False) -> str:
    """Monte Carlo terminal-error check, one row per grid size."""
    rows = []
    for N in _sweep(cfg):
        grid = _grid_for(cfg, N)
        sample, predicted, stderr = mc_verify_mse(cfg.model, grid, cfg.paths, cfg.seed)
        z = (sample - predicted) / stderr if stderr > 0 else 0.0
        rows.append([grid.n_steps, sample, predicted, stderr, z])
    header = ["N", "sample_mse", "predicted", "stderr", "zscore"]
    return _write_csv(cfg.outdir, "mc_verify.csv", header, rows, quiet)


def cmd_ou_table(cfg: ExperimentConfig, quiet: bool = False) -> str:
    """Analytic vs quadrature optimum table for a scalar OU model."""
    base = cfg.model
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


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # one error: line and status 2, as for a bad config value
        self.exit(2, f"error: {message}\n")


def main(argv: list[str] | None = None) -> int:
    parser = _ArgumentParser(
        prog="sde-gridopt",
        description="Linear SDE error recursion and optimal time grids",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__.splitlines()[0].lower())
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--seed", help="uint64 seed, read like [mc] seed (overrides config)")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if args.out is not None:
            cfg.outdir = _convert("--out", args.out, _path, literal=False)
        if args.seed is not None:
            cfg.seed = _convert("--seed", args.seed, _seed)
        # an overflowing model ends in a refused table, reported below
        with np.errstate(over="ignore", invalid="ignore"):
            _COMMANDS[args.command](cfg, quiet=args.quiet)
    except (ModelValidationError, ValueError, OSError, configparser.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
