import ast
import csv
import importlib.util
import inspect
import math
import os
import subprocess
import sys
import tracemalloc
from importlib.metadata import EntryPoint
from pathlib import Path

import numpy as np
import pytest

import sde_gridopt
from sde_gridopt import (
    LinearSdeModel,
    asymptotics,
    cli,
    error_report,
    grid_from_density,
    matfun,
    sigma_path,
    uniform_density,
)
from sde_gridopt.cli import (
    cmd_convergence,
    cmd_gramian,
    cmd_mc_verify,
    cmd_ou_table,
    main,
    parse_config,
)

from helpers import csv_text_oracle

# the variables OpenBLAS reads for its thread count when it loads
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

OU_CONFIG = """\
[model]
A = [[-1.0]]
B = [[1.0]]
M = [[1.0]]
T = 1.0

[grid]
kind = uniform
N_sweep = [16, 32, 64]

[mc]
paths = 2000
seed = 2024
"""

STIFF_CONFIG = """\
[model]
A = [[-1.0, 0.0], [0.0, -1000.0]]
B = [[1.0, 0.0], [0.0, 1.0]]
M = [[1.0, 0.0], [0.0, 1.0]]
T = 1.0
"""

# a grid file fixes N, so its configs carry no N_sweep
FILE_CONFIG = OU_CONFIG.replace("kind = uniform\nN_sweep = [16, 32, 64]", "kind = file")

# exp(800) overflows, so every table built on this model holds inf or NaN
UNSTABLE_CONFIG = OU_CONFIG.replace("[[-1.0]]", "[[400.0]]").replace("T = 1.0", "T = 2.0")


def write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestParseConfig:
    def test_roundtrip(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, OU_CONFIG))
        assert cfg.model.n == 1 and cfg.model.T == 1.0
        assert cfg.grid_kind == "uniform"
        assert cfg.n_sweep == [16, 32, 64]
        assert cfg.paths == 2000 and cfg.seed == 2024
        assert cfg.outdir == "out"
        assert cfg.ou_sweep[0] == 0.01

    def test_missing_model_section(self, tmp_path):
        path = write_config(tmp_path, "[grid]\nkind = uniform\n")
        with pytest.raises(ValueError):
            parse_config(path)

    def test_bad_literal(self, tmp_path):
        bad = OU_CONFIG.replace("[[-1.0]]", "matrix(-1)")
        with pytest.raises(ValueError):
            parse_config(write_config(tmp_path, bad))

    def test_unknown_grid_kind(self, tmp_path):
        bad = OU_CONFIG.replace("kind = uniform", "kind = chebyshev")
        with pytest.raises(ValueError):
            parse_config(write_config(tmp_path, bad))

    def test_non_increasing_sweep(self, tmp_path):
        bad = OU_CONFIG.replace("[16, 32, 64]", "[16, 16]")
        with pytest.raises(ValueError):
            parse_config(write_config(tmp_path, bad))

    def test_grid_file_resolved_relative_to_config(self, tmp_path):
        text = FILE_CONFIG.replace("kind = file", "kind = file\nfile = pts.txt")
        cfg = parse_config(write_config(tmp_path, text))
        assert cfg.grid_file == str(tmp_path / "pts.txt")

    def test_file_kind_needs_file_entry(self, tmp_path):
        with pytest.raises(ValueError):
            parse_config(write_config(tmp_path, FILE_CONFIG))

    @pytest.mark.parametrize(
        "key, value", [("N", "8"), ("N_sweep", "[16, 32]")], ids=["N", "N_sweep"]
    )
    def test_grid_size_refused_with_file_kind(self, tmp_path, capsys, key, value):
        # a grid file fixes N, so a size beside it would be silently unread
        grid = grid_from_density(uniform_density(1.0), 2)
        np.savetxt(tmp_path / "pts.txt", grid.points, fmt="%.17g")
        text = FILE_CONFIG.replace("kind = file", f"kind = file\nfile = pts.txt\n{key} = {value}")
        with pytest.raises(ValueError, match=rf"^config \[grid\] {key}: "):
            parse_config(write_config(tmp_path, text))
        cfg_path = write_config(tmp_path, text)
        assert main(["convergence", "--config", cfg_path, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: config [grid] {key}: ")
        assert not (tmp_path / "convergence.csv").exists()

    @pytest.mark.parametrize("kind", ["uniform", "terminal-optimal"])
    def test_file_entry_refused_without_file_kind(self, tmp_path, capsys, kind):
        text = OU_CONFIG.replace("kind = uniform", f"kind = {kind}\nfile = nosuchfile.txt")
        with pytest.raises(ValueError, match=r"^config \[grid\] file: "):
            parse_config(write_config(tmp_path, text))
        cfg_path = write_config(tmp_path, text)
        assert main(["convergence", "--config", cfg_path, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: config [grid] file: ")
        assert not (tmp_path / "convergence.csv").exists()

    def test_path_floor(self, tmp_path):
        bad = OU_CONFIG.replace("paths = 2000", "paths = 10")
        with pytest.raises(ValueError):
            parse_config(write_config(tmp_path, bad))

    def test_single_n_is_a_one_element_sweep(self, tmp_path, capsys):
        text = OU_CONFIG.replace("N_sweep = [16, 32, 64]", "N = 8")
        assert parse_config(write_config(tmp_path, text)).n_sweep == [8]
        # N beside N_sweep was once read and then dropped without a word
        both = OU_CONFIG.replace("N_sweep = [16, 32, 64]", "N = 8\nN_sweep = [16, 32]")
        with pytest.raises(ValueError, match=r"^config \[grid\] N: not read beside N_sweep$"):
            parse_config(write_config(tmp_path, both))
        out = tmp_path / "out"
        assert main(["convergence", "--config", write_config(tmp_path, both), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: config [grid] N: not read beside N_sweep\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "old, new, key",
        [
            # a float where an integer belongs was once truncated silently
            ("paths = 2000", "paths = 150.7", "[mc] paths"),
            ("seed = 2024", "seed = 7.9", "[mc] seed"),
            ("N_sweep = [16, 32, 64]", "N = 16.9", "[grid] N"),
            ("seed = 2024", "seed = True", "[mc] seed"),
            # a value of the wrong shape once ended in a TypeError traceback
            ("N_sweep = [16, 32, 64]", "N_sweep = 5", "[grid] N_sweep"),
            ("N_sweep = [16, 32, 64]", "N = [1, 2]", "[grid] N"),
            ("T = 1.0", "T = [1.0]", "[model] T"),
            ("seed = 2024", "seed = 2024\n\n[ou]\nT_sweep = 3.0", "[ou] T_sweep"),
            # an empty path once passed the reader, and an empty file opened the config's folder
            ("seed = 2024", "seed = 2024\n\n[output]\ndir =", "[output] dir"),
            ("kind = uniform\nN_sweep = [16, 32, 64]", "kind = file\nfile =  ", "[grid] file"),
        ],
    )
    def test_malformed_value_one_error_line(self, tmp_path, capsys, old, new, key):
        text = OU_CONFIG.replace(old, new)
        assert text != OU_CONFIG
        out = tmp_path / "out"
        rc = main(["convergence", "--config", write_config(tmp_path, text), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error:") and key in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, keys",
        [
            # misspelt keys were once ignored: 100,000 paths, seed 0 and dir "out"
            (
                OU_CONFIG.replace("paths = 2000", "path = 150\nSed = 3") + "\n[output]\ndri = x\n",
                ["[mc] path", "[mc] sed", "[output] dri"],
            ),
            # a [DEFAULT] key is named where it is written, not in every section
            ("[DEFAULT]\nseed = 3\n\n" + OU_CONFIG, ["[DEFAULT] seed"]),
        ],
        ids=["misspelt", "default-section"],
    )
    def test_unknown_keys_one_error_line(self, tmp_path, capsys, text, keys):
        out = tmp_path / "out"
        rc = main(["convergence", "--config", write_config(tmp_path, text), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == f"error: config has unknown keys: {', '.join(keys)}\n"
        assert not out.exists()

    def test_keys_compared_in_lowercase(self, tmp_path):
        text = OU_CONFIG.replace("N_sweep", "n_SWEEP").replace("paths", "PATHS")
        cfg = parse_config(write_config(tmp_path, text))
        assert cfg.n_sweep == [16, 32, 64] and cfg.paths == 2000


class TestWriteCsv:
    # generated once by the csv.writer-based writer this one replaced
    LIST_BYTES = (
        b"N,x,y,z\r\n"
        b"16,0,-0,4.9406564584124654e-324\r\n"
        b"4096,10000000000000000,1e+17,0.33333333333333331\r\n"
        b"limit,,-0.66666666666666663,1e-300\r\n"
    )
    ARRAY_BYTES = (
        b"t,G_11,F\r\n"
        b"0,-0,4.9406564584124654e-324\r\n"
        b"10000000000000000,1e+17,0.33333333333333331\r\n"
        b"1.4821969375237396e-323,1.5,-1.0000000000000001e+300\r\n"
    )

    def test_list_rows_bytes(self, tmp_path):
        rows = [
            [16, 0.0, -0.0, 5e-324],
            [4096, 1e16, 1e17, 1 / 3],
            ["limit", "", -2 / 3, 1e-300],
        ]
        path = cli._write_csv(str(tmp_path), "a.csv", ["N", "x", "y", "z"], rows, True)
        assert Path(path).read_bytes() == self.LIST_BYTES

    def test_array_rows_bytes(self, tmp_path):
        table = np.array([[0.0, -0.0, 5e-324], [1e16, 1e17, 1 / 3], [3 * 5e-324, 1.5, -1e300]])
        path = cli._write_csv(str(tmp_path), "b.csv", ["t", "G_11", "F"], table, True)
        assert Path(path).read_bytes() == self.ARRAY_BYTES

    def test_array_and_its_list_rows_same_bytes(self, tmp_path):
        table = np.array([[0.0, -0.0, 5e-324], [1e16, 1e17, 1 / 3], [3 * 5e-324, 1.5, -1e300]])
        header = ["t", "G_11", "F"]
        a = cli._write_csv(str(tmp_path), "a.csv", header, table, True)
        b = cli._write_csv(str(tmp_path), "b.csv", header, table.tolist(), True)
        assert Path(a).read_bytes() == Path(b).read_bytes() == self.ARRAY_BYTES
        assert csv_text_oracle(header, table.tolist()).encode() == self.ARRAY_BYTES

    def test_signed_zero_columns_kept_apart(self, tmp_path):
        table = np.array([[0.0, -0.0, 0.0], [0.0, -0.0, 0.0]])
        assert cli._column_map(table) == ([0, 1], [0, 1, 0])
        path = cli._write_csv(str(tmp_path), "z.csv", ["a", "b", "c"], table, True)
        assert Path(path).read_bytes() == b"a,b,c\r\n0,-0,0\r\n0,-0,0\r\n"

    def test_repeated_columns_match_cell_by_cell_text(self, tmp_path):
        # repeats of columns 1 and 0, a reversed column 2 (the same bits in
        # another order) and a column 3 that differs in one row
        x = np.random.default_rng(1).standard_normal((50, 4))
        table = np.column_stack((x, x[:, 1], x[::-1, 2], x[:, 0], x[:, 3]))
        table[7, -1] = np.nextafter(table[7, -1], np.inf)
        assert cli._column_map(table) == ([0, 1, 2, 3, 5, 7], [0, 1, 2, 3, 1, 4, 0, 5])
        header = [f"c{j}" for j in range(table.shape[1])]
        path = cli._write_csv(str(tmp_path), "r.csv", header, table, True)
        assert Path(path).read_bytes() == csv_text_oracle(header, table).encode()
        triple = np.array([[1.5, 1.5, 1.5], [2.0, 2.0, 2.0]])  # one distinct column
        path = cli._write_csv(str(tmp_path), "t.csv", ["a", "b", "c"], triple, True)
        assert Path(path).read_bytes() == b"a,b,c\r\n1.5,1.5,1.5\r\n2,2,2\r\n"
        path = cli._write_csv(str(tmp_path), "o.csv", ["a"], triple[:, :1], True)  # one column
        assert Path(path).read_bytes() == b"a\r\n1.5\r\n2\r\n"

    @pytest.mark.parametrize("workload", ["ou-optimal", "sys4-optimal"])
    def test_gramian_matches_cell_by_cell_text(self, tmp_path, monkeypatch, workload):
        # the real gramian tables: 4097 rows of 5 and of 51 columns
        written = []
        write = cli._write_csv

        def spy(outdir, name, header, rows, quiet):
            written.append((header, rows))
            return write(outdir, name, header, rows, quiet)

        monkeypatch.setattr(cli, "_write_csv", spy)
        cfg = parse_config(str(REPO / "perfbench" / "workloads" / f"{workload}.cfg"))
        cfg.outdir = str(tmp_path)
        path = cmd_gramian(cfg, quiet=True)
        (header, table), = written
        assert isinstance(table, np.ndarray) and table.shape[0] == 4097
        assert Path(path).read_bytes() == csv_text_oracle(header, table).encode()

    @pytest.mark.parametrize("form", ["array", "list"])
    def test_nonfinite_cells_counted_and_refused(self, tmp_path, form):
        table = np.array([[0.0, np.nan, 1.0], [np.inf, 2.0, np.nan]])
        rows = table if form == "array" else table.tolist()
        outdir = tmp_path / "new"
        with pytest.raises(ValueError, match="3 NaN or inf values, not written"):
            cli._write_csv(str(outdir), "t.csv", ["a", "b", "c"], rows, True)
        assert not outdir.exists()

    def test_array_rows_streamed(self, tmp_path):
        # the sys4 gramian's shape; the whole text would be about 4.4 MB
        table = np.random.default_rng(0).standard_normal((4097, 51))
        header = [f"c{j}" for j in range(51)]
        tracemalloc.start()
        try:
            cli._write_csv(str(tmp_path), "big.csv", header, table, True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestGramian:
    def test_ou_table_values(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, OU_CONFIG))
        cfg.outdir = str(tmp_path / "out")
        path = cmd_gramian(cfg, quiet=True)
        header, rows = read_csv(path)
        assert header == ["t", "G_11", "Q_11", "K_11", "F", "S"]
        assert len(rows) == 4097
        first, last = rows[0], rows[-1]
        assert float(first[0]) == 0.0 and float(last[0]) == 1.0
        assert float(first[1]) == 0.0 and float(first[2]) == 0.0
        assert float(first[3]) == pytest.approx(1.0 / 12.0, rel=1e-12)
        assert float(first[4]) == pytest.approx(math.exp(-2.0) / 12.0, rel=1e-9)
        assert float(first[5]) == pytest.approx((1.0 - math.exp(-2.0)) / 24.0, rel=1e-9)
        assert float(last[1]) == pytest.approx(0.43233235838169365, rel=1e-12)
        assert float(last[2]) == pytest.approx(0.43233235838169365, rel=1e-10)
        assert float(last[3]) == pytest.approx(0.03275595748796561, rel=1e-10)
        assert float(last[4]) == pytest.approx(1.0 / 12.0, rel=1e-12)
        assert float(last[5]) == 0.0

    def test_two_kernel_calls(self, tmp_path, monkeypatch):
        # two semigroup builds of 128 rows each (64 offsets and 64 anchors):
        # an (A^T, M) call for the curves and Q, an (A, D) call for G and K
        calls = []
        real = asymptotics._transition

        def counting(A, D, t):
            calls.append(len(t))
            return real(A, D, t)

        monkeypatch.setattr(asymptotics, "_CURVE_CACHE", {})
        monkeypatch.setattr(asymptotics, "_transition", counting)
        cfg = parse_config(write_config(tmp_path, OU_CONFIG))
        cfg.outdir = str(tmp_path / "out")
        cmd_gramian(cfg, quiet=True)
        assert calls == [128, 128]
        assert not hasattr(cli, "_transition")

    def test_one_curve_build_shared_across_commands(self, tmp_path, monkeypatch):
        # the reason the curve cache stays: a three-grid optimal sweep reads the
        # curves five times (three grids, the limit row's density and
        # ups_functional) from one 128-row build, and gramian on the same model
        # adds only its (A, D) build
        calls, reads = [], []
        real_transition, real_curve = asymptotics._transition, asymptotics.weight_curve

        def counting(A, D, t):
            calls.append(len(t))
            return real_transition(A, D, t)

        def reading(model):
            reads.append(model)
            return real_curve(model)

        monkeypatch.setattr(asymptotics, "_CURVE_CACHE", {})
        monkeypatch.setattr(asymptotics, "_transition", counting)
        monkeypatch.setattr(asymptotics, "weight_curve", reading)
        monkeypatch.setattr(cli, "weight_curve", reading)
        cfg = parse_config(str(REPO / "perfbench" / "workloads" / "sys4-optimal.cfg"))
        cfg.outdir = str(tmp_path)
        cmd_convergence(cfg, quiet=True)
        assert len(reads) == 5 and calls == [128]
        cmd_gramian(cfg, quiet=True)
        assert len(reads) == 6 and calls == [128, 128]
        assert all(model is cfg.model for model in reads)

    def test_stiff_model_table_is_finite(self, tmp_path):
        cfg_path = write_config(tmp_path, STIFF_CONFIG)
        rc = main(["gramian", "--config", cfg_path, "--out", str(tmp_path), "--quiet"])
        assert rc == 0
        header, rows = read_csv(tmp_path / "gramian.csv")
        cells = np.array([[float(c) for c in row] for row in rows])
        assert cells.shape == (4097, 1 + 3 * 4 + 2)
        assert np.all(np.isfinite(cells))
        last = dict(zip(header, rows[-1]))
        assert float(last["G_22"]) == pytest.approx((1.0 - math.exp(-2000.0)) / 2000.0, rel=1e-12)

    def test_unstable_model_refused_not_written(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path, UNSTABLE_CONFIG)
        rc = main(["gramian", "--config", cfg_path, "--out", str(out), "--quiet"])
        assert rc == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1  # no numpy overflow warnings ahead of it
        assert err.startswith("error:") and "gramian.csv" in err and "NaN or inf" in err
        assert not out.exists()  # refused before the output directory is made

    def test_refused_table_leaves_existing_target(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "gramian.csv").write_text("earlier run\n", encoding="utf-8")
        cfg_path = write_config(tmp_path, UNSTABLE_CONFIG)
        rc = main(["gramian", "--config", cfg_path, "--out", str(out), "--quiet"])
        assert rc == 2
        assert [p.name for p in out.iterdir()] == ["gramian.csv"]
        assert (out / "gramian.csv").read_text(encoding="utf-8") == "earlier run\n"


class TestConvergence:
    def test_uniform_sweep_and_limit_row(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, OU_CONFIG))
        cfg.outdir = str(tmp_path / "out")
        path = cmd_convergence(cfg, quiet=True)
        header, rows = read_csv(path)
        assert header == ["N", "T_N", "I_N", "N2T_N", "N2I_N"]
        assert [r[0] for r in rows] == ["16", "32", "64", "limit"]
        limit = rows[-1]
        assert limit[1] == "" and limit[2] == ""
        phi = float(limit[3])
        ups = float(limit[4])
        assert phi == pytest.approx(0.036027696531807804, rel=1e-9)
        assert ups == pytest.approx((1.0 + math.exp(-2.0)) / 48.0, rel=1e-8)
        gaps_t = [abs(float(r[3]) - phi) for r in rows[:-1]]
        gaps_i = [abs(float(r[4]) - ups) for r in rows[:-1]]
        assert gaps_t == sorted(gaps_t, reverse=True)
        assert gaps_i == sorted(gaps_i, reverse=True)

    def test_row_keeps_one_scan_chunk(self):
        # the benchmark's sys4-uniform row at N = 65,536: a (65536, 4, 4)
        # Sigma stack alone would be 8.4 MB; the grid, its step table and the
        # scan's chunk stay under 3 MB
        workloads = Path(__file__).parents[1] / "perfbench" / "workloads"
        cfg = parse_config(str(workloads / "sys4-uniform.cfg"))
        tracemalloc.start()
        try:
            row = cli._convergence_row(cfg, 65536)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert row[0] == 65536
        assert peak < 3_000_000

    def test_reruns_byte_identical(self, tmp_path):
        cfg_path = write_config(tmp_path, OU_CONFIG)
        outs = []
        for name in ("a", "b"):
            rc = main(
                ["convergence", "--config", cfg_path, "--out", str(tmp_path / name), "--quiet"]
            )
            assert rc == 0
            outs.append((tmp_path / name / "convergence.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_terminal_optimal_reaches_limit(self, tmp_path):
        text = OU_CONFIG.replace("kind = uniform", "kind = terminal-optimal").replace(
            "[16, 32, 64]", "[64, 512]"
        )
        cfg = parse_config(write_config(tmp_path, text))
        cfg.outdir = str(tmp_path / "out")
        _, rows = read_csv(cmd_convergence(cfg, quiet=True))
        phi = float(rows[-1][3])
        assert phi == pytest.approx(0.03240134269109764, rel=1e-8)
        assert abs(float(rows[1][3]) - phi) < abs(float(rows[0][3]) - phi)
        assert float(rows[1][3]) == pytest.approx(phi, rel=1e-2)

    def test_integral_optimal_has_empty_phi_cell(self, tmp_path):
        text = OU_CONFIG.replace("kind = uniform", "kind = integral-optimal").replace(
            "[16, 32, 64]", "[64, 256]"
        )
        cfg = parse_config(write_config(tmp_path, text))
        cfg.outdir = str(tmp_path / "out")
        _, rows = read_csv(cmd_convergence(cfg, quiet=True))
        limit = rows[-1]
        assert limit[0] == "limit" and limit[3] == ""
        ups = float(limit[4])
        assert abs(float(rows[1][4]) - ups) < abs(float(rows[0][4]) - ups)

    def test_zero_drift_columns_vanish(self, tmp_path):
        text = OU_CONFIG.replace("[[-1.0]]", "[[0.0]]")
        cfg = parse_config(write_config(tmp_path, text))
        cfg.outdir = str(tmp_path / "out")
        _, rows = read_csv(cmd_convergence(cfg, quiet=True))
        for row in rows:
            assert float(row[3] or 0.0) == 0.0
            assert float(row[4] or 0.0) == 0.0

    def test_grid_file_kind(self, tmp_path):
        grid = grid_from_density(uniform_density(1.0), 10)
        np.savetxt(tmp_path / "pts.txt", grid.points, fmt="%.17g")
        text = FILE_CONFIG.replace("kind = file", "kind = file\nfile = pts.txt")
        cfg = parse_config(write_config(tmp_path, text))
        cfg.outdir = str(tmp_path / "out")
        _, rows = read_csv(cmd_convergence(cfg, quiet=True))
        assert len(rows) == 1  # no synthetic limit row for external grids
        assert rows[0][0] == "10"
        assert float(rows[0][1]) == error_report(cfg.model, grid).terminal

    def test_grid_file_horizon_mismatch(self, tmp_path):
        np.savetxt(tmp_path / "pts.txt", np.linspace(0.0, 2.0, 11))
        text = FILE_CONFIG.replace("kind = file", "kind = file\nfile = pts.txt")
        rc = main(["convergence", "--config", write_config(tmp_path, text), "--quiet"])
        assert rc == 2

    def test_two_column_grid_file_refused(self, tmp_path, capsys):
        np.savetxt(tmp_path / "pts.txt", np.linspace(0.0, 1.0, 6).reshape(3, 2))
        text = FILE_CONFIG.replace("kind = file", "kind = file\nfile = pts.txt")
        rc = main(["convergence", "--config", write_config(tmp_path, text), "--quiet"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: a grid needs a 1-D array of at least two points\n"
        )

    @pytest.mark.parametrize("name", ["grid%1.txt", "g%%1.txt"])
    def test_percent_in_a_file_name_is_plain_text(self, tmp_path, name):
        # "grid%1.txt" once failed in configparser's interpolation, naming no
        # key, and "g%%1.txt" was read as "g%1.txt"
        np.savetxt(tmp_path / name, np.linspace(0.0, 1.0, 11))
        text = FILE_CONFIG.replace("kind = file", f"kind = file\nfile = {name}")
        out = tmp_path / "out"
        rc = main(["convergence", "--config", write_config(tmp_path, text), "--out", str(out), "--quiet"])
        assert rc == 0
        assert parse_config(str(tmp_path / "exp.cfg")).grid_file == str(tmp_path / name)

    def test_missing_n_errors(self, tmp_path, capsys):
        text = OU_CONFIG.replace("N_sweep = [16, 32, 64]\n", "")
        rc = main(["convergence", "--config", write_config(tmp_path, text), "--quiet"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_unstable_model_one_error_line(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path, UNSTABLE_CONFIG)
        rc = main(["convergence", "--config", cfg_path, "--out", str(out), "--quiet"])
        assert rc == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error:") and "convergence.csv" in err and "NaN or inf" in err
        assert not (out / "convergence.csv").exists()


class TestMcVerify:
    def test_consistency_and_determinism(self, tmp_path):
        text = OU_CONFIG.replace("[16, 32, 64]", "[8, 16]")
        cfg_path = write_config(tmp_path, text)
        blobs = []
        for name in ("a", "b"):
            rc = main(
                ["mc-verify", "--config", cfg_path, "--out", str(tmp_path / name), "--quiet"]
            )
            assert rc == 0
            blobs.append((tmp_path / name / "mc_verify.csv").read_bytes())
        assert blobs[0] == blobs[1]
        header, rows = read_csv(tmp_path / "a" / "mc_verify.csv")
        assert header == ["N", "sample_mse", "predicted", "stderr", "zscore"]
        for row in rows:
            assert abs(float(row[4])) <= 4.0

    def test_predicted_column_matches_recursion(self, tmp_path):
        text = OU_CONFIG.replace("[16, 32, 64]", "[8]")
        cfg = parse_config(write_config(tmp_path, text))
        cfg.outdir = str(tmp_path / "out")
        _, rows = read_csv(cmd_mc_verify(cfg, quiet=True))
        grid = grid_from_density(uniform_density(1.0), 8)
        # %.17g roundtrips exactly
        assert float(rows[0][2]) == error_report(cfg.model, grid).terminal

    def test_columns_pinned_to_each_other_and_the_exact_variance(self, tmp_path):
        # zscore is its row's (sample_mse - predicted) / stderr, bit for bit
        # (%.17g round-trips), and stderr is near the exact standard error of
        # the mean of ||err_N||_M^2, err_N ~ N(0, Sigma_N): sqrt(2 tr((M
        # Sigma_N)^2) / paths), measured within 2.8% over seeds 1-20
        cfg = parse_config(str(REPO / "perfbench" / "workloads" / "sys4-uniform-mc.cfg"))
        cfg.seed, cfg.outdir = 7, str(tmp_path)
        model = cfg.model
        _, rows = read_csv(cmd_mc_verify(cfg, quiet=True))
        assert len(rows) == 3
        for row in rows:
            N, (sample, predicted, stderr, z) = int(row[0]), map(float, row[1:])
            assert z == (sample - predicted) / stderr
            grid = grid_from_density(uniform_density(model.T), N)
            MS = model.M @ sigma_path(model, grid)[0][-1]
            exact = math.sqrt(2.0 * np.trace(MS @ MS) / cfg.paths)
            assert abs(stderr / exact - 1.0) <= 0.1

    def test_seed_override_changes_samples(self, tmp_path):
        text = OU_CONFIG.replace("[16, 32, 64]", "[8]")
        cfg_path = write_config(tmp_path, text)
        main(["mc-verify", "--config", cfg_path, "--out", str(tmp_path / "a"), "--quiet"])
        main(
            [
                "mc-verify",
                "--config",
                cfg_path,
                "--out",
                str(tmp_path / "b"),
                "--seed",
                "99",
                "--quiet",
            ]
        )
        _, rows_a = read_csv(tmp_path / "a" / "mc_verify.csv")
        _, rows_b = read_csv(tmp_path / "b" / "mc_verify.csv")
        assert rows_a[0][1] != rows_b[0][1]
        assert rows_a[0][2] == rows_b[0][2]  # predicted value is seed-free

    def test_zero_drift_exact(self, tmp_path):
        text = OU_CONFIG.replace("[[-1.0]]", "[[0.0]]").replace("[16, 32, 64]", "[8]")
        cfg = parse_config(write_config(tmp_path, text))
        cfg.outdir = str(tmp_path / "out")
        _, rows = read_csv(cmd_mc_verify(cfg, quiet=True))
        assert float(rows[0][1]) == 0.0 and float(rows[0][2]) == 0.0
        assert float(rows[0][4]) == 0.0

    def test_unstable_model_one_error_line(self, tmp_path, capsys):
        out = tmp_path / "out"
        text = UNSTABLE_CONFIG.replace("paths = 2000", "paths = 5000")  # three path blocks
        cfg_path = write_config(tmp_path, text)
        rc = main(["mc-verify", "--config", cfg_path, "--out", str(out), "--quiet"])
        assert rc == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1  # no overflow warnings from the worker threads
        assert err.startswith("error:") and "mc_verify.csv" in err and "NaN or inf" in err
        assert not (out / "mc_verify.csv").exists()


class TestOuTable:
    def test_reference_row(self, tmp_path):
        text = OU_CONFIG + "\n[ou]\nT_sweep = [0.01, 1.0, 30.0]\n"
        cfg = parse_config(write_config(tmp_path, text))
        cfg.outdir = str(tmp_path / "out")
        path = cmd_ou_table(cfg, quiet=True)
        header, rows = read_csv(path)
        assert header[:3] == ["T", "min_phi", "min_phi_quad"]
        assert len(rows) == 3
        t1 = {k: float(v) for k, v in zip(header, rows[1])}
        assert t1["T"] == 1.0
        assert t1["ratio"] == pytest.approx(1.1119198631761187, rel=1e-12)
        assert t1["min_phi_quad"] == pytest.approx(t1["min_phi"], rel=1e-9)
        assert t1["phi_uniform_quad"] == pytest.approx(t1["phi_uniform"], rel=1e-9)
        assert t1["ratio_quad"] == pytest.approx(t1["ratio"], rel=1e-8)
        t30 = {k: float(v) for k, v in zip(header, rows[2])}
        assert t30["ratio"] == pytest.approx(t30["ratio_asymptote"], rel=1e-6)
        t001 = {k: float(v) for k, v in zip(header, rows[0])}
        assert t001["ratio"] == pytest.approx(1.0, abs=1e-4)
        assert t001["min_phi_quad"] == pytest.approx(t001["min_phi"], rel=1e-8)

    def test_rejects_matrix_model(self, tmp_path):
        text = OU_CONFIG.replace("[[-1.0]]", "[[-1.0, 0.0], [0.0, -2.0]]").replace(
            "B = [[1.0]]", "B = [[1.0, 0.0], [0.0, 1.0]]"
        ).replace("M = [[1.0]]", "M = [[1.0, 0.0], [0.0, 1.0]]")
        rc = main(["ou-table", "--config", write_config(tmp_path, text), "--quiet"])
        assert rc == 2


class TestMain:
    def test_import_leaves_scipy_unloaded(self):
        code = "import sys, sde_gridopt.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        env = {**os.environ, "PYTHONPATH": str(Path(sde_gridopt.__file__).resolve().parent.parent)}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        assert proc.stdout.strip() == "[]"

    def test_import_leaves_thread_pool_unloaded(self):
        # the Monte Carlo verifier imports its pool on first use
        code = "import sys, sde_gridopt.cli; print('concurrent.futures' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(Path(sde_gridopt.__file__).resolve().parent.parent)}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        assert proc.stdout.strip() == "False"

    @staticmethod
    def run_fresh(code, **blas_env):
        """stdout of code in a fresh interpreter that sees no BLAS thread variable but blas_env."""
        env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
        env.update(blas_env, PYTHONPATH=str(Path(sde_gridopt.__file__).resolve().parent.parent))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        return proc.stdout.strip()

    def test_import_leaves_environment_as_found(self):
        # started without OPENBLAS_NUM_THREADS, the import must not leave it set
        code = "import os; before = dict(os.environ); import sde_gridopt; print(dict(os.environ) == before)"
        assert self.run_fresh(code) == "True"
        code = "import os, sde_gridopt; print(os.environ['OPENBLAS_NUM_THREADS'])"
        assert self.run_fresh(code, OPENBLAS_NUM_THREADS="2") == "2"

    def test_blas_loads_with_one_thread_unless_caller_chose(self):
        if not sys.platform.startswith("linux") or len(os.sched_getaffinity(0)) < 2:
            pytest.skip("counts the threads in /proc/self/task, so needs Linux and two or more cores")
        if np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"] != "scipy-openblas":
            pytest.skip("the thread count is that of OpenBLAS as numpy's wheels ship it")
        code = "import os, sde_gridopt; print(len(os.listdir('/proc/self/task')))"
        assert self.run_fresh(code) == "1"
        assert int(self.run_fresh(code, OPENBLAS_NUM_THREADS="2")) > 1

    def test_integral_independent_of_blas_threads(self):
        code = (
            "import sde_gridopt as s\n"
            "A = [[-1.0, 0.5, 0.0, 0.0], [0.0, -0.5, 1.0, 0.0], [0.0, 0.0, -2.0, 0.3], [0.2, 0.0, 0.0, -1.5]]\n"
            "B = [[1.0, 0.0], [0.0, 0.5], [0.3, 0.0], [0.0, 1.0]]\n"
            "model = s.LinearSdeModel(A, B, [[float(i == j) for j in range(4)] for i in range(4)], 2.0)\n"
            "print(s.error_report(model, s.grid_from_density(s.uniform_density(2.0), 16384)).integral.hex())"
        )
        assert self.run_fresh(code, OPENBLAS_NUM_THREADS="1") == self.run_fresh(code, OPENBLAS_NUM_THREADS="2")

    def test_invalid_model_exits_2(self, tmp_path, capsys):
        text = OU_CONFIG.replace("T = 1.0", "T = 0.0")
        rc = main(["convergence", "--config", write_config(tmp_path, text), "--quiet"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "horizon-not-positive" in err

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        rc = main(["gramian", "--config", str(tmp_path / "nope.cfg"), "--quiet"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_bad_seed_override_exits_2(self, tmp_path):
        cfg_path = write_config(tmp_path, OU_CONFIG)
        rc = main(["mc-verify", "--config", cfg_path, "--seed", "-3", "--quiet"])
        assert rc == 2

    def test_seed_override_read_like_config_seed(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, OU_CONFIG)
        rc = main(["mc-verify", "--config", cfg_path, "--seed", str(2**64), "--quiet"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: --seed: ")

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--seed", "7.5"], "error: --seed: 7.5 is not an integer in [0, "),
            (["--seed", "seven"], "error: --seed: not a valid literal"),
            (["--config"], "error: argument --config: expected one argument"),
        ],
        ids=["float-seed", "text-seed", "config-without-value"],
    )
    def test_argument_error_is_one_line(self, tmp_path, capsys, args, message):
        # a bad argument prints one error: line like a bad config value, with no usage
        argv = ["mc-verify", "--config", write_config(tmp_path, OU_CONFIG), "--quiet", *args]
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse's own errors exit from inside main
            rc = exc.code
        assert rc == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith(message)

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["mc-verify", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: sde-gridopt mc-verify")

    def test_empty_out_refused_before_any_work(self, tmp_path, monkeypatch, capsys):
        # --out "" once ran the whole sweep before failing to write
        monkeypatch.chdir(tmp_path)
        cfg_path = write_config(tmp_path, OU_CONFIG)
        assert main(["convergence", "--config", cfg_path, "--out", ""]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: --out: ")
        assert os.listdir(tmp_path) == ["exp.cfg"]

    def test_quiet_suppresses_progress(self, tmp_path, capsys):
        text = OU_CONFIG.replace("[16, 32, 64]", "[8]")
        cfg_path = write_config(tmp_path, text)
        main(["convergence", "--config", cfg_path, "--out", str(tmp_path / "o1"), "--quiet"])
        assert capsys.readouterr().out == ""
        main(["convergence", "--config", cfg_path, "--out", str(tmp_path / "o2")])
        out = capsys.readouterr().out
        assert out.startswith("wrote ") and "convergence.csv" in out

    def test_console_script_installed(self, tmp_path):
        """The ``sde-gridopt`` command, as declared, runs in a fresh process.

        "Installed" means the launcher an installer generates from this
        checkout's ``[project.scripts]`` entry in ``pyproject.toml``: it
        imports the named attribute and calls ``sys.exit`` on its result with
        no argv. The test builds that launcher itself and points
        ``PYTHONPATH`` at the package the suite imported. It does not look
        ``sde-gridopt`` up on PATH: an environment without the install would
        fail correct code, and one holding another checkout's install would
        pass without running this code.
        """
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            spec = tomllib.load(fh)["project"]["scripts"]["sde-gridopt"]
        entry = EntryPoint(name="sde-gridopt", value=spec, group="console_scripts")
        exe = tmp_path / "bin" / "sde-gridopt"
        exe.parent.mkdir()
        exe.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {entry.module} import {entry.attr}\n"
            "if __name__ == '__main__':\n"
            f"    sys.exit({entry.attr}())\n"
        )
        exe.chmod(0o755)
        src = Path(sde_gridopt.__file__).resolve().parent.parent
        path = filter(None, [str(src), os.environ.get("PYTHONPATH")])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}

        def run(*args):
            return subprocess.run(
                [str(exe), *args, "--quiet"],
                capture_output=True,
                text=True,
                timeout=120,
                cwd=tmp_path,
                env=env,
            )

        text = OU_CONFIG + "\n[ou]\nT_sweep = [1.0]\n"
        cfg_path = write_config(tmp_path, text)
        proc = run("ou-table", "--config", cfg_path, "--out", str(tmp_path / "o"))
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "o" / "ou_table.csv").exists()

        proc = run("ou-table", "--config", str(tmp_path / "nope.cfg"))
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error:"), proc.stderr


REPO = Path(__file__).resolve().parents[1]


def _load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", REPO / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_check():
    return _load_perfbench("check")


class TestBenchmarkReference:
    """The benchmark's output gate, run in-process on every checked-in reference.

    The references in perfbench/reference are only read, never written.
    """

    @staticmethod
    def check(tmp_path, command, workload, cfg_name=None):
        check = _load_check()
        cfg_path = REPO / "perfbench" / "workloads" / f"{cfg_name or workload}.cfg"
        rc = main([command, "--config", str(cfg_path), "--out", str(tmp_path), "--quiet"])
        assert rc == 0
        name = f"{command.replace('-', '_')}.csv"
        reference = REPO / "perfbench" / "reference" / workload / name
        if not reference.exists():
            reference = reference.with_name(name + ".gz")
        assert check.check_file(str(tmp_path / name), str(reference)) == []

    @pytest.mark.parametrize("workload", ["ou-optimal", "sys4-optimal"])
    @pytest.mark.parametrize("command", ["gramian", "convergence"])
    def test_matches_reference(self, tmp_path, workload, command):
        self.check(tmp_path, command, workload)

    def test_ou_table_matches_reference(self, tmp_path):
        self.check(tmp_path, "ou-table", "ou-optimal")

    def test_uniform_convergence_matches_reference(self, tmp_path):
        # 86,016 covariance steps on the 4x4 model, about a second
        self.check(tmp_path, "convergence", "sys4-uniform")

    def test_mc_verify_matches_reference(self, tmp_path):
        # predicted and N to the gate's tolerance, |zscore| <= 5 at the config's seed
        self.check(tmp_path, "mc-verify", "sys4-uniform", "sys4-uniform-mc")


class TestBenchmarkTracer:
    """The benchmark's --trace mode wraps package functions by name.

    perfbench/tracer.py is only loaded and run, never written; a renamed
    function would otherwise break the trace mode without a failing test.
    """

    @staticmethod
    def traced(tracer):
        """(module, attribute) of every function the tracer wraps: TRACED and EXPM."""
        return [tuple(f"sde_gridopt.{name}".rsplit(".", 1)) for name in tracer.SPAN_NAMES]

    def test_every_traced_name_resolves(self):
        tracer = _load_perfbench("tracer")
        for module, fn in self.traced(tracer):
            assert callable(getattr(sys.modules[module], fn, None)), f"{module}.{fn}"
        # the call observers read these arguments by name
        assert {"grid", "paths"} <= inspect.signature(sde_gridopt.mc_verify_mse).parameters.keys()

    def test_every_cli_name_child_reads_resolves(self):
        # child.py reads cli.<name> attributes, the private _convergence_row too
        tree = ast.parse((REPO / "perfbench" / "child.py").read_text(encoding="utf-8"))
        names = {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "cli"
        }
        assert "_convergence_row" in names
        for name in names:
            assert hasattr(cli, name), f"cli.{name}"

    def test_convergence_row_returns_the_n_row(self, tmp_path):
        # child.py times cli._convergence_row(cfg, N) for the largest N
        cfg = parse_config(write_config(tmp_path, OU_CONFIG))
        cfg.outdir = str(tmp_path / "out")
        _, rows = read_csv(cmd_convergence(cfg, quiet=True))
        row = cli._convergence_row(cfg, max(cfg.n_sweep))
        assert row[0] == 64
        assert ["%.17g" % v for v in row] == rows[2]

    def test_install_replaces_reexports_and_uninstall_restores(self):
        tracer = _load_perfbench("tracer")
        pairs = self.traced(tracer)
        originals = [getattr(sys.modules[module], fn) for module, fn in pairs]
        exported = [(fn, f) for (_, fn), f in zip(pairs, originals) if fn in sde_gridopt.__all__]
        assert exported
        tr = tracer.Tracer("test")
        tr.install()
        try:
            for (module, fn), original in zip(pairs, originals):
                wrapped = getattr(sys.modules[module], fn)
                assert wrapped is not original and wrapped.__wrapped__ is original
            for fn, original in exported:
                assert getattr(sde_gridopt, fn).__wrapped__ is original
            assert asymptotics.expm is matfun.expm  # the expm binding asymptotics calls
            sde_gridopt.mat_exp([[-1.0]], 0.5)
        finally:
            tr.uninstall()
        names = [tracer.SPAN_NAMES[span[1]] for span in tr.spans]
        assert names == ["matfun.expm", "matfun.mat_exp"]  # inner span closes first
        for (module, fn), original in zip(pairs, originals):
            assert getattr(sys.modules[module], fn) is original
        for fn, original in exported:
            assert getattr(sde_gridopt, fn) is original
        assert asymptotics.expm is matfun.expm
