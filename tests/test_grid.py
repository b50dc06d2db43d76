
import warnings

import numpy as np
import pytest

from sde_gridopt import (
    GridDensity,
    TimeGrid,
    density_from_weight,
    grid_from_density,
    uniform_density,
)

from helpers import cum_at, empirical_density

EPS = np.finfo(float).eps
J = 4096  # panels of the test densities; a density takes any count
MESH = np.linspace(0.0, 1.0, J + 1)  # their mesh on [0, 1]


class TestTimeGrid:
    def test_basic_properties(self):
        grid = TimeGrid([0.0, 0.25, 1.0])
        assert grid.n_steps == 2
        assert grid.horizon == 1.0
        assert np.allclose(grid.steps, [0.25, 0.75])

    def test_points_read_only(self):
        grid = TimeGrid([0.0, 1.0])
        with pytest.raises(ValueError):
            grid.points[0] = 0.5

    def test_copies_the_callers_points(self):
        t = np.linspace(0.0, 1.0, 5)
        grid = TimeGrid(t)
        t[1] = 0.3
        assert t.flags.writeable
        assert grid.points[1] == 0.25

    def test_rejects_bad_grids(self):
        for pts in ([0.0], [0.1, 1.0], [0.0, 0.5, 0.5], [0.0, 0.7, 0.4], [0.0, np.inf]):
            with pytest.raises(ValueError):
                TimeGrid(pts)


class TestGridDensity:
    def test_uniform_values(self):
        psi = uniform_density(2.0)
        assert np.all(psi.values == 0.5)
        assert psi.cumulative[-1] == 1.0
        assert cum_at(psi, 1.0) == pytest.approx(0.5, abs=1e-14)
        assert psi.psi_at(1.3) == pytest.approx(0.5, rel=1e-15)

    def test_normalisation_of_unscaled_values(self):
        psi = GridDensity(1.0, np.full(J + 1, 7.3))
        assert np.allclose(psi.values, 1.0, rtol=1e-14)

    def test_interior_zero_rejected(self):
        values = np.ones(J + 1)
        values[J // 2] = 0.0
        with pytest.raises(ValueError):
            GridDensity(1.0, values)

    def test_terminal_zero_allowed(self):
        values = np.linspace(1.0, 0.0, J + 1)
        psi = GridDensity(1.0, values)
        assert psi.values[-1] == 0.0

    @pytest.mark.parametrize(
        "T", ["1.0", True, np.array([1.0]), np.array(1.0)], ids=["str", "bool", "array", "0-d-array"]
    )
    def test_horizon_must_be_a_real_number(self, T):
        # float() once read "1.0" and True as horizons
        with pytest.raises(TypeError, match="^T must be a real number"):
            GridDensity(T, [1.0, 1.0])
        for real in (2, np.float32(2.0), np.int64(2)):  # a Python or numpy real is read
            psi = GridDensity(real, [1.0, 1.0])
            assert type(psi.T) is float and psi.T == 2.0

    def test_negative_and_nonfinite_rejected(self):
        bad = np.ones(J + 1)
        bad[3] = -0.1
        with pytest.raises(ValueError):
            GridDensity(1.0, bad)
        bad[3] = np.nan
        with pytest.raises(ValueError):
            GridDensity(1.0, bad)

    def test_cumulative_matches_quadrature(self):
        rng = np.random.default_rng(3)
        psi = GridDensity(2.0, 0.2 + rng.random(J + 1))
        # trapezoid is exact for the piecewise-linear density
        t = 1.234
        idx = psi.mesh <= t
        ref = np.trapezoid(
            np.append(psi.values[idx], psi.psi_at(t)), np.append(psi.mesh[idx], t)
        )
        assert cum_at(psi, t) == pytest.approx(ref, abs=1e-13)

    def test_profile_inverts_cumulative(self):
        rng = np.random.default_rng(9)
        # the fine mesh, and 7 panels with the terminal zero
        for values in (0.1 + rng.random(J + 1), np.append(0.1 + rng.random(7), 0.0)):
            psi = GridDensity(1.5, values)
            ts = np.linspace(0.05, 1.45, 17)
            back = psi.profile(cum_at(psi, ts))
            assert np.max(np.abs(back - ts)) < 1e-12 * psi.T
            us = np.linspace(0.0, 1.0, 33)
            fwd = cum_at(psi, psi.profile(us))
            assert np.max(np.abs(fwd - us)) < 1e-12

    def test_profile_is_the_panel_root_bitwise(self):
        # profile solves in place; its bits are those of the plain formula
        rng = np.random.default_rng(3)
        psi = GridDensity(2.5, np.append(rng.uniform(0.1, 2.0, J), 0.0))
        u = np.concatenate((rng.uniform(0.0, 1.0, 5000), np.arange(J + 1) / J))
        h = psi.T / J
        i = np.clip(np.searchsorted(psi.cumulative, u, side="right") - 1, 0, J - 1)
        d = np.clip(u - psi.cumulative[i], 0.0, 1.0)
        a = psi.values[i]
        b = (psi.values[i + 1] - psi.values[i]) / h
        disc = np.sqrt(np.maximum(a * a + 2.0 * b * d, 0.0))
        expected = psi.mesh[i] + 2.0 * d / (a + disc)
        expected[u >= 1.0] = psi.T
        assert np.array_equal(psi.profile(u), expected)

    def test_profile_pins_endpoints(self):
        psi = uniform_density(3.0)
        assert psi.profile(0.0) == 0.0
        assert psi.profile(1.0) == 3.0
        assert psi.profile(-0.5) == 0.0
        assert psi.profile(1.5) == 3.0

    def test_infinite_arguments_clip_to_the_ends(self):
        # +-inf must reach the pinned ends without an invalid-value warning
        psi = uniform_density(2.0)
        assert psi.profile(-np.inf) == 0.0 and psi.profile(np.inf) == 2.0
        assert cum_at(psi, -np.inf) == 0.0 and cum_at(psi, np.inf) == 1.0
        assert psi.psi_at(-np.inf) == 0.5 and psi.psi_at(np.inf) == 0.5
        assert np.array_equal(psi.profile([0.5, np.inf]), [1.0, 2.0])

    @pytest.mark.parametrize("method", ["psi_at", "profile"])
    @pytest.mark.parametrize("arg", [np.nan, [0.5, np.nan]])
    def test_nan_argument_refused(self, method, arg):
        psi = uniform_density(2.0)
        with pytest.raises(ValueError, match="must not be NaN"):
            getattr(psi, method)(arg)


class TestDensityMesh:
    """A density spans the uniform mesh of its own nodal values."""

    def test_uniform_density_is_two_nodes(self):
        psi = uniform_density(2.0)
        assert np.array_equal(psi.mesh, [0.0, 2.0])
        assert np.array_equal(psi.values, [0.5, 0.5])
        assert np.array_equal(psi.cumulative, [0.0, 1.0])
        assert repr(psi) == "GridDensity(T=2.0, panels=1)"

    @pytest.mark.parametrize("T", [1.0, 2.0])
    def test_two_node_uniform_grids_are_the_fine_ones_bitwise(self, T):
        fine = GridDensity(T, np.full(J + 1, 1.0 / T))
        for N in (64, 1000, 1024, 65536):
            got = grid_from_density(uniform_density(T), N).points
            assert np.array_equal(got, grid_from_density(fine, N).points)

    @pytest.mark.parametrize("T", [0.3, 3.0])
    def test_two_node_uniform_grids_within_one_rounding(self, T):
        # 1 / T rounds here, and 4,096 panels normalise it with other roundings than one
        fine = GridDensity(T, np.full(J + 1, 1.0 / T))
        for N in (64, 1000, 1024, 65536):
            gap = grid_from_density(uniform_density(T), N).points - grid_from_density(fine, N).points
            assert np.max(np.abs(gap)) <= EPS * T

    @pytest.mark.parametrize(
        "T, values",
        [(1.0, np.full(J + 1, 1.7e308)), (1e10, np.full(3, 1e300))],
        ids=["sum-overflows", "width-overflows"],
    )
    def test_overflowing_mass_refused_without_a_warning(self, T, values):
        # each value is finite, but the trapezoid mass is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite, positive mass"):
                GridDensity(T, values)


class TestDensityFromWeight:
    def test_constant_weight_is_uniform(self):
        psi = density_from_weight(2.0, np.full(J + 1, 5.0))
        assert np.allclose(psi.values, 0.5, rtol=1e-14)

    def test_cube_root_shape(self):
        psi = density_from_weight(1.0, (1.0 + MESH) ** 3)
        ratio = psi.values / psi.values[0]
        assert np.allclose(ratio, 1.0 + psi.mesh, rtol=1e-12)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            density_from_weight(1.0, np.zeros(J + 1))
        bad = np.ones(J + 1)
        bad[5] = -1.0
        with pytest.raises(ValueError):
            density_from_weight(1.0, bad)
        with pytest.raises(ValueError):
            density_from_weight(1.0, np.ones(1))  # one node spans no panel
        with pytest.raises(ValueError):
            density_from_weight(1.0, np.ones((2, J + 1)))  # not 1-D

    def test_callable_weight_refused(self):
        # nodal samples only: a callable is not sampled on the mesh
        with pytest.raises(TypeError):
            density_from_weight(1.0, lambda t: 1.0 + t)

    @pytest.mark.parametrize(
        "T, w",
        [
            (1.0, np.zeros(J + 1)),
            (1.0, np.where(np.arange(J + 1) == 5, -1.0, 1.0)),
            (1.0, np.where(np.arange(J + 1) == 5, np.nan, 1.0)),
            (1.0, np.where(np.arange(J + 1) == 5, np.inf, 1.0)),
            (1.0, np.ones(1)),
            (1.0, np.ones((2, J + 1))),
            (0.0, np.ones(J + 1)),
            (-1.0, np.ones(J + 1)),
            (np.inf, np.ones(J + 1)),
            (np.nan, np.ones(J + 1)),
        ],
        ids=[
            "all-zero", "negative", "nan", "inf", "one-sample", "two-dim",
            "T-zero", "T-negative", "T-inf", "T-nan",
        ],
    )
    def test_refused_weight_raises_value_error(self, T, w):
        # the density refuses on the cube roots what the weight may not be
        with pytest.raises(ValueError):
            density_from_weight(T, w)

    def test_scale_invariance(self):
        rng = np.random.default_rng(31)
        w = 0.5 + rng.random(J + 1)
        a = density_from_weight(1.0, w)
        b = density_from_weight(1.0, 3.7 * w)
        assert np.max(np.abs(a.values - b.values)) < 1e-12


class TestGridFromDensity:
    def test_uniform_exact(self):
        grid = grid_from_density(uniform_density(1.0), 4)
        assert grid.points[0] == 0.0 and grid.points[-1] == 1.0
        assert np.allclose(grid.points, [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-12)

    def test_single_step(self):
        grid = grid_from_density(uniform_density(2.5), 1)
        assert np.array_equal(grid.points, [0.0, 2.5])

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            grid_from_density(uniform_density(1.0), 0)

    def test_repeated_quantiles_refused(self, monkeypatch):
        # TimeGrid holds the one monotonicity check of a quantile grid
        monkeypatch.setattr(GridDensity, "profile", lambda self, u: np.minimum(u, 0.5))
        with pytest.raises(ValueError, match="grid points must be strictly increasing"):
            grid_from_density(uniform_density(1.0), 4)

    def test_terminal_zero_density_still_invertible(self):
        psi = density_from_weight(1.0, 1.0 - MESH)
        grid = grid_from_density(psi, 64)
        assert grid.points[-1] == 1.0
        assert np.all(np.diff(grid.points) > 0)

    def test_monotone_refinement_shares_quantiles(self):
        rng = np.random.default_rng(12)
        psi = GridDensity(1.0, 0.3 + rng.random(J + 1))
        coarse = grid_from_density(psi, 64)
        fine = grid_from_density(psi, 128)
        assert np.max(np.abs(fine.points[::2] - coarse.points)) < 1e-10

    def test_step_sizes_match_density_reciprocal(self):
        # N dt_{floor(N tau)} -> 1 / psi(phi(tau)) on a smooth density
        psi = density_from_weight(1.0, (2.0 + np.sin(2 * np.pi * MESH)) ** 3)
        N = 4096
        grid = grid_from_density(psi, N)
        for tau in np.arange(0.1, 0.95, 0.1):
            k = int(N * tau)
            dt = grid.points[k + 1] - grid.points[k]
            ref = 1.0 / psi.psi_at(psi.profile(tau))
            assert N * dt == pytest.approx(ref, rel=0.01)


class TestEmpiricalDensity:
    def test_uniform_half_window(self):
        grid = grid_from_density(uniform_density(1.0), 8)
        assert empirical_density(grid, (0.0, 0.5)) == pytest.approx(5.0 / 8.0)
        assert empirical_density(grid, (0.0, 1.0)) == pytest.approx(9.0 / 8.0)

    def test_tracks_cumulative_mass(self):
        rng = np.random.default_rng(8)
        psi = GridDensity(1.0, 0.25 + rng.random(J + 1))
        N = 4096
        grid = grid_from_density(psi, N)
        for a, b in ((0.1, 0.3), (0.45, 0.55), (0.2, 0.9)):
            frac = empirical_density(grid, (a, b))
            mass = cum_at(psi, b) - cum_at(psi, a)
            assert abs(frac - mass) <= 2.5 / N

    def test_malformed_window(self):
        grid = grid_from_density(uniform_density(1.0), 4)
        for window in ((0.5, 0.1), (-0.1, 0.5), (0.5, 1.5)):
            with pytest.raises(ValueError):
                empirical_density(grid, window)
