import math

import numpy as np
import pytest

from sde_gridopt import (
    MESH_PANELS,
    GridDensity,
    TimeGrid,
    density_from_weight,
    grid_from_density,
    uniform_density,
)

from helpers import empirical_density

J = MESH_PANELS


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

    def test_rejects_bad_grids(self):
        for pts in ([0.0], [0.1, 1.0], [0.0, 0.5, 0.5], [0.0, 0.7, 0.4], [0.0, np.inf]):
            with pytest.raises(ValueError):
                TimeGrid(pts)


class TestGridDensity:
    def test_uniform_values(self):
        psi = uniform_density(2.0)
        assert np.all(psi.values == 0.5)
        assert psi.cumulative[-1] == 1.0
        assert psi.cum_at(1.0) == pytest.approx(0.5, abs=1e-14)
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
        assert psi.cum_at(t) == pytest.approx(ref, abs=1e-13)

    def test_profile_inverts_cumulative(self):
        rng = np.random.default_rng(9)
        psi = GridDensity(1.5, 0.1 + rng.random(J + 1))
        ts = np.linspace(0.05, 1.45, 17)
        back = psi.profile(psi.cum_at(ts))
        assert np.max(np.abs(back - ts)) < 1e-12 * psi.T
        us = np.linspace(0.0, 1.0, 33)
        fwd = psi.cum_at(psi.profile(us))
        assert np.max(np.abs(fwd - us)) < 1e-12

    def test_profile_pins_endpoints(self):
        psi = uniform_density(3.0)
        assert psi.profile(0.0) == 0.0
        assert psi.profile(1.0) == 3.0
        assert psi.profile(-0.5) == 0.0
        assert psi.profile(1.5) == 3.0


class TestDensityFromWeight:
    def test_constant_weight_is_uniform(self):
        psi = density_from_weight(2.0, np.full(J + 1, 5.0))
        assert np.allclose(psi.values, 0.5, rtol=1e-14)

    def test_cube_root_shape(self):
        psi = density_from_weight(1.0, lambda t: (1.0 + t) ** 3)
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
            density_from_weight(1.0, np.ones(J))  # wrong length

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

    def test_terminal_zero_density_still_invertible(self):
        psi = density_from_weight(1.0, lambda t: 1.0 - t)
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
        w = lambda t: (2.0 + math.sin(2 * math.pi * t)) ** 3
        psi = density_from_weight(1.0, w)
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
            mass = psi.cum_at(b) - psi.cum_at(a)
            assert abs(frac - mass) <= 2.5 / N

    def test_malformed_window(self):
        grid = grid_from_density(uniform_density(1.0), 4)
        for window in ((0.5, 0.1), (-0.1, 0.5), (0.5, 1.5)):
            with pytest.raises(ValueError):
                empirical_density(grid, window)
