import dataclasses
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from sde_gridopt import (
    LinearSdeModel,
    TimeGrid,
    WienerIncrements,
    ctrl_gramian,
    error_report,
    grid_from_density,
    kalman_step,
    kt_matrix,
    mc_verify_mse,
    optimal_profile,
    phi1,
    run_filter,
    sample_exact_path,
    sigma_path,
    solver,
    uniform_density,
)
from sde_gridopt.cli import parse_config
from sde_gridopt.solver import (
    _MC_BLOCK,
    _MC_STEPS,
    _SCAN_CHUNK,
    _chunks,
    _simulate_errors,
    _step_table,
    _stream,
)

from helpers import (
    bridge_moments,
    closed_form_sigma,
    euler_maruyama_step,
    mc_verify_integral,
    milstein_step_scalar,
    psd_root,
    random_grid,
    random_model,
    random_regular_model,
    sample_bridge_refinement,
    sample_joint_increment,
    sigma_errors_ld,
    simulate_errors_loop,
)


def rel(err, ref):
    return np.linalg.norm(err) / max(np.linalg.norm(ref), 1e-300)


def count_compose(monkeypatch):
    """The (E, Q) stacks of every _compose call from now on."""
    calls = []
    real = solver._compose

    def counting(E, Q):
        calls.append(E.shape)
        return real(E, Q)

    monkeypatch.setattr(solver, "_compose", counting)
    return calls


class TestJointIncrement:
    def test_zero_drift_reduces_to_scaled_increment(self):
        model = LinearSdeModel(A=np.zeros((2, 2)), B=[[1.0], [2.0]], M=np.eye(2), T=1.0)
        rng = np.random.default_rng(0)
        dW, Z = sample_joint_increment(model, 0.3, rng)
        assert np.allclose(Z, model.B @ dW, rtol=1e-13, atol=1e-16)

    def test_moments_match_transition_law(self, ou):
        # var(Z) = G_dt, cov(Z, dW) = E(dt A) B dt, var(Z | dW) = K_dt dt^3
        dt = 1.0
        table = _step_table(ou, [dt])
        g = _stream(777, 0)
        n_draws = 40_000
        dW = math.sqrt(dt) * g.standard_normal((n_draws, 1))
        xi = g.standard_normal((n_draws, 1))
        Z = dW @ table.phi_b[0].T + xi @ psd_root(table.kt3[0]).T

        G = ctrl_gramian(ou.A, ou.D, dt)[0, 0]
        se = math.sqrt(2.0 / n_draws)
        assert abs(Z.var() - G) <= 3 * G * se
        cov = float(np.mean(Z * dW))
        cov_ref = (phi1(ou.A, dt) @ ou.B)[0, 0] * dt
        assert abs(cov - cov_ref) <= 4 * math.sqrt(G * dt) / math.sqrt(n_draws) * 3
        resid = Z - dW @ table.phi_b[0].T
        k3 = table.kt3[0, 0, 0]
        assert abs(resid.var() - k3) <= 3 * k3 * se

    def test_conditional_variance_scales_cubically(self, ou):
        # var(Z - E B dW) = K_dt dt^3 with K_dt near mho for small dt
        for dt, seed in ((1e-2, 1), (1e-3, 2)):
            table = _step_table(ou, [dt])
            g = _stream(55, seed)
            n_draws = 30_000
            xi = g.standard_normal((n_draws, 1))
            residual = xi @ psd_root(table.kt3[0]).T
            k3 = kt_matrix(ou.A, ou.D, dt)[0, 0] * dt**3
            se = k3 * math.sqrt(2.0 / n_draws)
            assert abs(residual.var() - k3) <= 3 * se
            # K_dt = mho (1 + O(dt)) for this model, mho = 1/12
            assert kt_matrix(ou.A, ou.D, dt)[0, 0] == pytest.approx(1.0 / 12.0, rel=1.5 * dt)

    def test_scalar_call_consistent_with_matrices(self, ou):
        rng = np.random.default_rng(4)
        dW, Z = sample_joint_increment(ou, 0.5, rng)
        assert dW.shape == (1,) and Z.shape == (1,)
        rng2 = np.random.default_rng(4)
        table = _step_table(ou, [0.5])
        u = rng2.standard_normal(1)
        v = rng2.standard_normal(1)
        assert np.array_equal(dW, math.sqrt(0.5) * u)
        assert np.array_equal(Z, table.phi_b[0] @ dW + psd_root(table.kt3[0]) @ v)

    def test_invalid_dt(self, ou):
        with pytest.raises(ValueError):
            sample_joint_increment(ou, 0.0, np.random.default_rng(0))
        for dt in (0.0, -0.5, math.nan):
            with pytest.raises(ValueError):
                kalman_step(ou, np.zeros(1), np.zeros((1, 1)), dt, [0.0])


class TestSamplePath:
    def test_deterministic_flow_without_noise(self):
        model = LinearSdeModel(A=[[-0.7]], B=[[0.0]], M=[[1.0]], T=1.0)
        grid = grid_from_density(uniform_density(1.0), 8)
        states, inc = sample_exact_path(model, grid, [2.0], 1)
        for k, t in enumerate(grid.points):
            assert states[k, 0] == pytest.approx(2.0 * math.exp(-0.7 * t), rel=1e-12)
        assert np.all(inc.increments != 0)

    def test_pure_brownian_reconstruction_is_exact(self):
        # with x0 = 0 the state recursion is exactly cumsum's running sum
        model = LinearSdeModel(A=[[0.0]], B=[[1.0]], M=[[1.0]], T=1.0)
        grid = grid_from_density(uniform_density(1.0), 16)
        states, inc = sample_exact_path(model, grid, [0.0], 7)
        walk = np.cumsum(inc.increments[:, 0])
        assert np.array_equal(states[1:, 0], walk)

    def test_terminal_variance_ou(self, ou):
        grid = TimeGrid([0.0, 0.5, 1.0])
        draws = np.array([sample_exact_path(ou, grid, [0.0], j)[0][-1, 0] for j in range(4000)])
        G = ctrl_gramian(ou.A, ou.D, 1.0)[0, 0]
        assert abs(draws.var() - G) <= 3 * G * math.sqrt(2.0 / draws.size)

    def test_shapes(self, ou):
        grid = grid_from_density(uniform_density(1.0), 5)
        states, inc = sample_exact_path(ou, grid, [0.0], 2)
        assert states.shape == (6, 1)
        assert inc.increments.shape == (5, 1)
        assert inc.grid is grid

    @pytest.mark.parametrize("x0", [[math.nan], [math.inf], [0.0, 0.0]])
    def test_bad_initial_state_refused(self, ou, x0):
        grid = grid_from_density(uniform_density(1.0), 4)
        with pytest.raises(ValueError, match=r"x0 must be 1 finite values, shape \(1,\)"):
            sample_exact_path(ou, grid, x0, 0)

    def test_same_draws_as_joint_increments(self):
        # pins the stream layout: step k reads row k of an (N, m) array from
        # (seed, 0) for dW and of an (N, n) array from (seed, 1) for the
        # residual, which takes a root computed here, one step table per step
        model = random_model(np.random.default_rng(8), n=3, m=2)
        grid = random_grid(np.random.default_rng(9), 12)
        states, inc = sample_exact_path(model, grid, np.ones(3), 5)
        dW = np.sqrt(grid.steps)[:, None] * _stream(5, 0).standard_normal((12, 2))
        xi = _stream(5, 1).standard_normal((12, 3))
        assert np.array_equal(inc.increments, dW)
        # the increments the filter gets from WienerIncrements.sample on that seed
        assert np.array_equal(dW, WienerIncrements.sample(grid, model.m, 5).increments)
        x = np.ones(3)
        assert np.array_equal(states[0], x)
        for k, dt in enumerate(grid.steps):
            table = _step_table(model, [dt])
            Z = table.phi_b[0] @ dW[k] + psd_root(table.kt3[0]) @ xi[k]
            x = table.exp_a[0] @ x + Z
            assert np.array_equal(states[k + 1], x)


class TestWienerIncrements:
    def test_keeps_a_read_only_copy(self):
        grid = TimeGrid(np.linspace(0.0, 1.0, 5))
        dW = np.full((4, 2), 0.1)
        inc = WienerIncrements(grid, dW)
        dW[1, 0] = np.nan
        assert dW.flags.writeable
        assert np.all(inc.increments == 0.1)
        with pytest.raises(ValueError, match="read-only"):
            inc.increments[0, 0] = 0.2


class TestKalmanStep:
    def test_zero_drift_shifts_mean_only(self):
        model = LinearSdeModel(A=np.zeros((2, 2)), B=np.eye(2), M=np.eye(2), T=1.0)
        mu, sigma = kalman_step(model, [1.0, -1.0], np.zeros((2, 2)), 0.5, np.array([0.2, 0.1]))
        assert np.allclose(mu, [1.2, -0.9], rtol=1e-14)
        assert np.array_equal(sigma, np.zeros((2, 2)))

    def test_first_step_covariance_is_kt3(self, ou):
        _, sigma = kalman_step(ou, np.zeros(1), np.zeros((1, 1)), 1.0, np.array([0.3]))
        assert sigma[0, 0] == pytest.approx(0.03275595748796561, rel=1e-12)

    @pytest.mark.parametrize("dt", [3, 2**21, 10**7])
    def test_integer_dt_is_the_float_step(self, dt):
        # an integer step once stayed int64 and dt**3 wrapped from 2**21 on:
        # sigma came out -0.767 at 2**21 and 0.320 at 10**7, not 0.767 and 82.5
        model = LinearSdeModel(A=[[-1e-9]], B=[[1.0]], M=[[1.0]], T=1.0)
        args = (model, [0.5], [[0.25]])
        mu, sigma = kalman_step(*args, dt, [0.3])
        mu_f, sigma_f = kalman_step(*args, float(dt), [0.3])
        assert mu.tobytes() == mu_f.tobytes() and sigma.tobytes() == sigma_f.tobytes()
        assert sigma[0, 0] > 0

    @pytest.mark.parametrize(
        "mu, sigma, dW, match",
        [
            ([math.nan], [[0.0]], [0.0], r"^mu must be 1 finite values, shape \(1,\)"),
            ([0.0, 0.0, 0.0], [[0.0]], [0.0], r"^mu must be 1 finite values, shape \(1,\)"),
            ([0.0], [[math.inf]], [0.0], r"^sigma must be a finite \(1, 1\) matrix"),
            ([0.0], np.zeros((2, 2)), [0.0], r"^sigma must be a finite \(1, 1\) matrix"),
            ([0.0], [[0.0]], [math.nan], r"dW must be 1 finite values, shape \(1,\)"),
            ([0.0], [[0.0]], [0.0, 0.0], r"dW must be 1 finite values, shape \(1,\)"),
        ],
        ids=["nan-mu", "long-mu", "inf-sigma", "wide-sigma", "nan-dW", "long-dW"],
    )
    def test_bad_state_or_increment_refused(self, ou, mu, sigma, dW, match):
        # the rule run_filter applies to x0 and WienerIncrements to its increments
        with pytest.raises(ValueError, match=match):
            kalman_step(ou, mu, sigma, 0.1, dW)


class TestRunFilter:
    def test_sigma_independent_of_increments(self, ou):
        grid = grid_from_density(uniform_density(1.0), 32)
        inc1 = WienerIncrements.sample(grid, 1, 1)
        inc2 = WienerIncrements.sample(grid, 1, 2)
        mu1, rep1 = run_filter(ou, [0.0], inc1)
        mu2, rep2 = run_filter(ou, [0.0], inc2)
        assert not np.array_equal(mu1, mu2)
        assert rep1 == rep2 == error_report(ou, grid)

    def test_mean_linear_in_increments(self, ou):
        grid = grid_from_density(uniform_density(1.0), 16)
        a = WienerIncrements.sample(grid, 1, 3)
        b = WienerIncrements.sample(grid, 1, 4)
        both = WienerIncrements(grid, a.increments + b.increments)
        mu_a = run_filter(ou, [0.0], a)[0]
        mu_b = run_filter(ou, [0.0], b)[0]
        mu_ab = run_filter(ou, [0.0], both)[0]
        assert np.allclose(mu_ab, mu_a + mu_b, rtol=1e-12, atol=1e-15)

    def test_zero_drift_zero_error(self):
        model = LinearSdeModel(A=np.zeros((2, 2)), B=np.eye(2), M=np.eye(2), T=1.0)
        grid = grid_from_density(uniform_density(1.0), 8)
        inc = WienerIncrements.sample(grid, 2, 0)
        _, rep = run_filter(model, np.zeros(2), inc)
        assert rep.terminal == 0.0 and rep.integral == 0.0

    def test_report_rescaling(self, ou):
        grid = grid_from_density(uniform_density(1.0), 64)
        _, rep = run_filter(ou, [0.0], WienerIncrements.sample(grid, 1, 64))
        assert rep.n2_terminal == 64.0**2 * rep.terminal
        assert rep.n2_integral == 64.0**2 * rep.integral

    def test_uniform_ou_matches_limit_value(self, ou):
        grid = grid_from_density(uniform_density(1.0), 4096)
        _, rep = run_filter(ou, [0.0], WienerIncrements.sample(grid, 1, 4096))
        assert rep.n2_terminal == pytest.approx(0.036028, rel=0.01)

    def test_matches_closed_form_sigma(self):
        rng = np.random.default_rng(77)
        for n in (1, 3):
            model = random_model(rng, n=n)
            grid = random_grid(rng, 24)
            sigmas, _ = sigma_path(model, grid)
            assert sigmas.shape == (24, n, n)
            for k in (0, 5, 11, 23):
                ref = closed_form_sigma(model, grid, k)
                assert rel(sigmas[k] - ref, ref) < 1e-12

    def test_grid_comes_with_the_increments(self, ou):
        # the grid is read from the increments, never passed beside them
        grid = grid_from_density(uniform_density(1.0), 8)
        inc = WienerIncrements(grid, np.zeros((8, 1)))
        with pytest.raises(TypeError):
            run_filter(ou, grid, [0.0], inc)

    def test_mismatched_inputs_raise(self, ou):
        grid = grid_from_density(uniform_density(1.0), 8)
        wide = WienerIncrements(grid, np.zeros((8, 2)))
        with pytest.raises(ValueError):
            run_filter(ou, [0.0], wide)

    @pytest.mark.parametrize("x0", [[math.nan], [-math.inf], [0.0, 0.0]])
    def test_bad_initial_state_refused(self, ou, x0):
        grid = grid_from_density(uniform_density(1.0), 8)
        inc = WienerIncrements(grid, np.zeros((8, 1)))
        with pytest.raises(ValueError, match=r"x0 must be 1 finite values, shape \(1,\)"):
            run_filter(ou, x0, inc)


    @pytest.mark.parametrize("kind", ["uniform", "integral-optimal"])
    def test_equals_chain_of_kalman_steps(self, kind):
        # the sequential oracle: run_filter's mean is kalman_step applied N times,
        # bitwise; its Sigma comes from the scan (see test_sigma_matches_long_double)
        rng = np.random.default_rng(31)
        model = random_regular_model(rng, n=2, m=2)
        if kind == "uniform":
            psi = uniform_density(model.T)
        else:
            psi = optimal_profile(model, "integral")
        grid = grid_from_density(psi, 48)
        inc = WienerIncrements.sample(grid, model.m, 31)
        x0 = np.array([0.3, -1.2])
        means, _ = run_filter(model, x0, inc)
        assert means.shape == (49, 2)
        mu, sigma = x0, np.zeros((2, 2))
        assert np.array_equal(means[0], mu)
        for k, dt in enumerate(grid.steps):
            mu, sigma = kalman_step(model, mu, sigma, float(dt), inc.increments[k])
            assert np.array_equal(means[k + 1], mu)


class TestIntegrator:
    @pytest.mark.parametrize("kind", ["ou", "regular-2x2"])
    def test_filtered_paths_have_the_predicted_errors(self, ou, kind):
        # the paper's integrator end to end: each exact path is filtered on the
        # increments that drove it, and the mean squared errors over 2,000
        # seeds must match the report. The steps differ, so a filter that
        # drove a step with another step's E(dt A) B would miss.
        if kind == "ou":
            model = ou
        else:
            model = random_regular_model(np.random.default_rng(12), n=2, m=2)
        grid = TimeGrid([0.0, 0.1, 0.35, 0.45, 0.8, 1.0])
        x0 = np.ones(model.n)
        terminal, integral = [], []
        for seed in range(2000):
            states, inc = sample_exact_path(model, grid, x0, seed)
            means, rep = run_filter(model, x0, inc)
            err = states[1:] - means[1:]
            sq = np.einsum("ki,ij,kj->k", err, model.M, err)
            terminal.append(sq[-1])
            integral.append(sq @ grid.steps)
        for sample, predicted in ((terminal, rep.terminal), (integral, rep.integral)):
            stderr = np.std(sample, ddof=1) / math.sqrt(len(sample))
            assert abs(np.mean(sample) - predicted) <= 3 * stderr


class TestSigmaPath:
    def test_sigma_matches_long_double(self):
        # the scan against the sequential recursion in long double on the same
        # float64 step matrices, on the benchmark's sys4-uniform model at its
        # largest N = 65,536; the float64 loop it replaced is off by 9.3e-13
        workloads = Path(__file__).parents[1] / "perfbench" / "workloads"
        cfg = parse_config(str(workloads / "sys4-uniform.cfg"))
        model = cfg.model
        grid = grid_from_density(uniform_density(model.T), max(cfg.n_sweep))
        _, rep = sigma_path(model, grid)
        terminal, integral = sigma_errors_ld(model, _step_table(model, grid.steps))
        assert rep.terminal == pytest.approx(terminal, rel=3e-13, abs=0)
        assert rep.integral == pytest.approx(integral, rel=3e-13, abs=0)

    @pytest.mark.parametrize("N", [1, 2, 1023, 1024, 1025, 2051])
    def test_chunk_boundaries(self, N):
        rng = np.random.default_rng(N)
        model = random_model(rng, n=3)
        grid = random_grid(rng, N)
        sigmas, rep = sigma_path(model, grid)
        mu, sigma = np.zeros(3), np.zeros((3, 3))
        for k, dt in enumerate(grid.steps):
            mu, sigma = kalman_step(model, mu, sigma, float(dt), np.zeros(model.m))
            assert rel(sigmas[k] - sigma, sigma) < 1e-12
        assert np.array_equal(sigmas, sigmas.mT)
        assert rep.terminal == float(np.sum(model.M * sigmas[-1]))
        integral = sum(float(np.sum(model.M * s)) * dt for s, dt in zip(sigmas, grid.steps))
        assert rep.integral == pytest.approx(integral, rel=1e-13, abs=0)

    @pytest.mark.parametrize("T", [1.0, 30.0])
    def test_stiff_long_horizon(self, T):
        # composite maps over a chunk decay below the float range at T = 30
        model = LinearSdeModel(A=np.diag([-1.0, -1000.0]), B=np.eye(2), M=np.eye(2), T=T)
        grid = grid_from_density(uniform_density(T), 65536)
        with np.errstate(all="raise"):
            sigmas, rep = sigma_path(model, grid)
        assert np.all(np.isfinite(sigmas))
        terminal, integral = sigma_errors_ld(model, _step_table(model, grid.steps))
        assert rep.terminal == pytest.approx(terminal, rel=1e-12, abs=0)
        assert rep.integral == pytest.approx(integral, rel=1e-12, abs=0)

    def test_repeated_chunk_reuses_its_maps(self, monkeypatch):
        # chunk patterns [a, a, b, a] and a 5-step tail, b differing from a in
        # one step: chunk 1 reuses a's maps, chunks 2 and 3 compose anew.
        # Steps are multiples of 2^-12, so the points sum them exactly and
        # grid.steps gives them back bitwise.
        rng = np.random.default_rng(17)
        a = rng.integers(1, 5, _SCAN_CHUNK)
        b = a.copy()
        b[517] = 5
        ticks = np.concatenate((a, a, b, a, rng.integers(1, 5, 5)))
        grid = TimeGrid(np.concatenate(([0], np.cumsum(ticks))) / 4096.0)
        assert np.array_equal(grid.steps * 4096.0, ticks)
        model = random_model(rng, n=3, T=grid.horizon)
        calls = count_compose(monkeypatch)
        sigmas, rep = sigma_path(model, grid)
        assert [shape[0] for shape in calls] == [_SCAN_CHUNK] * 3 + [5]
        mu, sigma = np.zeros(3), np.zeros((3, 3))
        for k, dt in enumerate(grid.steps):
            mu, sigma = kalman_step(model, mu, sigma, float(dt), np.zeros(model.m))
            assert rel(sigmas[k] - sigma, sigma) < 1e-12
        terminal, integral = sigma_errors_ld(model, _step_table(model, grid.steps))
        assert rep.terminal == pytest.approx(terminal, rel=3e-13, abs=0)
        assert rep.integral == pytest.approx(integral, rel=3e-13, abs=0)

    def test_compose_runs_once_per_distinct_chunk(self, monkeypatch):
        # the benchmark's sys4-uniform model at N = 65,536: one dyadic step,
        # so 64 equal chunks and one composition; a random grid of
        # N = 2,051 has three distinct chunks
        workloads = Path(__file__).parents[1] / "perfbench" / "workloads"
        model = parse_config(str(workloads / "sys4-uniform.cfg")).model
        calls = count_compose(monkeypatch)
        sigma_path(model, grid_from_density(uniform_density(model.T), 65536))
        assert len(calls) == 1
        calls.clear()
        rng = np.random.default_rng(2051)
        sigma_path(random_model(rng, n=3), random_grid(rng, 2051))
        assert len(calls) == 3

    def test_scan_memory_above_output(self):
        # the benchmark's sys4-uniform model at N = 65,536: the scan's working
        # arrays (chunk stacks, their transposes, the step table and the
        # integral's weights) stay within 3 MB beside the 8.4 MB output
        workloads = Path(__file__).parents[1] / "perfbench" / "workloads"
        model = parse_config(str(workloads / "sys4-uniform.cfg")).model
        grid = grid_from_density(uniform_density(model.T), 65536)
        tracemalloc.start()
        try:
            sigmas, _ = sigma_path(model, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sigmas.shape == (65536, 4, 4)
        assert peak - sigmas.nbytes <= 3_000_000

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("N", [1, 1023, 1024, 1025, 2049, 2051, "dyadic"])
    def test_error_report_matches_sigma_path(self, n, N):
        # the report route scans into one reused chunk buffer; a dyadic
        # uniform grid of 4,096 steps reuses it over four equal chunks.
        # run_filter's report, scanned beside its mean, is the same bits
        rng = np.random.default_rng([n, 4096 if N == "dyadic" else N])
        model = random_model(rng, n=n)
        if N == "dyadic":
            grid = grid_from_density(uniform_density(model.T), 4096)
        else:
            grid = random_grid(rng, N)
        rep = error_report(model, grid)
        expected = sigma_path(model, grid)[1]
        for field in dataclasses.fields(rep):
            assert getattr(rep, field.name) == getattr(expected, field.name), field.name
        assert run_filter(model, np.ones(n), WienerIncrements.sample(grid, n, 5))[1] == rep

    def test_one_pair_longer_than_a_chunk(self):
        # a caller may pass more than _SCAN_CHUNK steps as one pair, as the
        # verifier tests do; a scan buffer of _SCAN_CHUNK rows refused it
        rng = np.random.default_rng(1025)
        model = random_model(rng, n=3)
        grid = random_grid(rng, 1025)
        table = _step_table(model, grid.steps)
        rep = solver._sigma_path(model, 1025, [(slice(0, 1025), table)])
        expected = error_report(model, grid)
        for field in dataclasses.fields(rep):
            got, want = getattr(rep, field.name), getattr(expected, field.name)
            assert got == pytest.approx(want, rel=1e-13, abs=0), field.name

    def test_report_matches_run_filter(self, ou):
        grid = random_grid(np.random.default_rng(4), 40)
        inc = WienerIncrements.sample(grid, 1, 6)
        _, rep = run_filter(ou, [1.0], inc)
        _, rep2 = sigma_path(ou, grid)
        assert rep2 == rep

    def test_step_table_builds_each_dt_once(self, ou, monkeypatch):
        calls = []
        real = solver._transition

        def counting(A, D, t, series=None):
            calls.append(list(t))
            return real(A, D, t, series)

        monkeypatch.setattr(solver, "_transition", counting)
        steps = np.array([0.1, 0.2, 0.1, 0.3, 0.2, 0.1])
        table = _step_table(ou, steps)
        assert calls == [[0.1, 0.2, 0.3]]  # one kernel call over the distinct dt
        assert list(table.dts) == [0.1, 0.2, 0.3]
        assert list(table.dts[table.index]) == list(steps)
        assert table.exp_a.shape == table.phi_b.shape == table.kt3.shape == (3, 1, 1)
        calls.clear()
        grid = TimeGrid(np.arange(9) / 8.0)  # dyadic: every step is exactly 1/8
        sigma_path(ou, grid)
        assert calls == [[0.125]]


def count_kernel(monkeypatch):
    """The row count of every kernel call the solver makes from now on."""
    calls = []
    real = solver._transition

    def counting(A, D, t, series=None):
        calls.append(len(t))
        return real(A, D, t, series)

    monkeypatch.setattr(solver, "_transition", counting)
    return calls


def simulate(model, table, paths, seed, **kw):
    """_simulate_errors over one whole-grid table as its one chunk: the per-path errors."""
    N = table.index.size
    return _simulate_errors(model, N, [(slice(0, N), table)], paths, seed, **kw)[0]


def traced_peak(f):
    """f() and the tracemalloc peak of the call."""
    tracemalloc.start()
    try:
        return f(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestChunkedStepTables:
    """Every route builds its step tables one scan chunk at a time."""

    @pytest.fixture(scope="class")
    def sys4_optimal(self):
        # the benchmark's sys4 model on its integral-optimal grid: every
        # chunk has 1,024 distinct steps, none repeats the chunk before
        workloads = Path(__file__).parents[1] / "perfbench" / "workloads"
        model = parse_config(str(workloads / "sys4-optimal.cfg")).model
        return model, grid_from_density(optimal_profile(model, "integral"), 16384)

    def test_report_memory(self, sys4_optimal):
        # 19.8 MB when the whole step table and the kernel's temporaries for
        # every row were built before the scan; 2.5 MB measured a chunk at a time
        model, grid = sys4_optimal
        _, peak = traced_peak(lambda: error_report(model, grid))
        assert peak <= 4_000_000

    def test_route_memory_above_outputs(self, sys4_optimal):
        # each route was at 19-20 MB with its whole step table; measured
        # 2.4 MB (sigma_path), 2.6 MB (run_filter) and 1.6 MB
        # (sample_exact_path) above what it returns and the normals it draws
        model, grid = sys4_optimal
        inc = WienerIncrements.sample(grid, model.m, 3)
        x0 = np.zeros(model.n)
        (sigmas, _), peak = traced_peak(lambda: sigma_path(model, grid))
        assert peak - sigmas.nbytes <= 4_000_000
        (means, _), peak = traced_peak(lambda: run_filter(model, x0, inc))
        assert peak - means.nbytes <= 4_000_000
        (states, inc), peak = traced_peak(lambda: sample_exact_path(model, grid, x0, 3))
        normals = grid.n_steps * (model.m + model.n) * 8  # the increments' and the residuals'
        assert peak - states.nbytes - inc.increments.nbytes - normals <= 4_000_000

    def test_one_kernel_call_per_distinct_chunk(self, sys4_optimal, monkeypatch):
        model, grid = sys4_optimal
        steps = grid.steps
        chunks = [steps[lo : lo + _SCAN_CHUNK] for lo in range(0, steps.size, _SCAN_CHUNK)]
        rows = [np.unique(c).size for c in chunks]
        assert len(rows) == 16
        calls = count_kernel(monkeypatch)
        error_report(model, grid)
        assert calls == rows  # one call per chunk, over its distinct steps
        calls.clear()
        run_filter(model, np.zeros(model.n), WienerIncrements.sample(grid, model.m, 3))
        assert calls == rows  # the mean and the scan share each chunk's table
        calls.clear()
        mc_verify_mse(model, grid, 100, 7)
        # the prediction and the sampler share each chunk's table; 17 calls
        # over 32,768 rows when the sampler built its own whole-grid table
        assert calls == rows == [_SCAN_CHUNK] * 16

    def test_verifier_memory(self, sys4_optimal):
        # 23.9 MB with the whole-grid table; measured 3.4 MB
        model, grid = sys4_optimal
        _, peak = traced_peak(lambda: mc_verify_mse(model, grid, 100, 7))
        assert peak <= 10_000_000

    def test_repeated_chunks_reuse_their_table(self, monkeypatch):
        # dyadic steps add up exactly, so the grid's steps are these: chunks
        # a, a, b, a and a five-step tail; a chunk equal to the one before
        # reuses its table and composed maps, any other builds its own
        h = 2.0**-12
        steps = np.repeat([h, h, 2 * h, h, h], [1024, 1024, 1024, 1024, 5])
        grid = TimeGrid(np.append(0.0, np.cumsum(steps)))
        assert np.array_equal(grid.steps, steps)
        model = random_model(np.random.default_rng(28), n=2, T=grid.horizon)
        calls = count_kernel(monkeypatch)
        composed = count_compose(monkeypatch)
        rep = error_report(model, grid)
        assert calls == [1, 1, 1, 1] and len(composed) == 4
        assert sigma_path(model, grid)[1] == rep

    def test_dyadic_uniform_grid_makes_one_kernel_call(self, monkeypatch):
        workloads = Path(__file__).parents[1] / "perfbench" / "workloads"
        model = parse_config(str(workloads / "sys4-uniform.cfg")).model
        grid = grid_from_density(uniform_density(model.T), 4096)  # four equal chunks
        inc = WienerIncrements.sample(grid, model.m, 3)
        calls = count_kernel(monkeypatch)
        composed = count_compose(monkeypatch)
        for route in (
            lambda: error_report(model, grid),
            lambda: sigma_path(model, grid),
            lambda: run_filter(model, np.zeros(model.n), inc),
            lambda: sample_exact_path(model, grid, np.zeros(model.n), 3),
        ):
            calls.clear()
            route()
            assert calls == [1]
        assert len(composed) == 3  # one composition per scan


class TestClosedFormSigma:
    def test_first_step(self, ou):
        grid = TimeGrid([0.0, 0.25, 1.0])
        got = closed_form_sigma(ou, grid, 0)[0, 0]
        ref = kt_matrix(ou.A, ou.D, 0.25)[0, 0] * 0.25**3
        assert got == pytest.approx(ref, rel=1e-14)

    def test_zero_drift(self):
        model = LinearSdeModel(A=np.zeros((2, 2)), B=np.eye(2), M=np.eye(2), T=1.0)
        grid = grid_from_density(uniform_density(1.0), 4)
        assert np.array_equal(closed_form_sigma(model, grid, 3), np.zeros((2, 2)))

    def test_index_bounds(self, ou):
        grid = grid_from_density(uniform_density(1.0), 4)
        for k in (-1, 4):
            with pytest.raises(ValueError):
                closed_form_sigma(ou, grid, k)


GRID4 = TimeGrid(np.linspace(0.0, 1.0, 5))
OU = LinearSdeModel(A=[[-1.0]], B=[[1.0]], M=[[1.0]], T=1.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda n: grid_from_density(uniform_density(1.0), n),
        lambda n: closed_form_sigma(OU, GRID4, n),
        lambda n: sample_bridge_refinement(0.0, 1.0, [0.3], n, np.random.default_rng(0)),
        lambda n: WienerIncrements.sample(GRID4, n, 0),
        lambda n: WienerIncrements.sample(GRID4, 1, n),
        lambda n: sample_exact_path(OU, GRID4, [0.0], n),
    ],
    ids=[
        "grid_from_density-N",
        "closed_form_sigma-k",
        "bridge_refinement-r",
        "increments-m",
        "increments-seed",
        "sample_exact_path-seed",
    ],
)
def test_integer_argument_refuses_float(call):
    call(np.int64(2))
    with pytest.raises(TypeError):
        call(2.7)  # never truncated to 2


@pytest.mark.parametrize(
    "call",
    [
        lambda n: grid_from_density(uniform_density(1.0), n),
        lambda n: closed_form_sigma(OU, GRID4, n),
        lambda n: sample_bridge_refinement(0.0, 1.0, [0.3], n, np.random.default_rng(0)),
        lambda n: WienerIncrements.sample(GRID4, n, 0),
        lambda n: WienerIncrements.sample(GRID4, 1, n),
        lambda n: sample_exact_path(OU, GRID4, [0.0], n),
        lambda n: mc_verify_mse(OU, GRID4, n, 5),
        lambda n: mc_verify_mse(OU, GRID4, 100, n),
    ],
    ids=[
        "grid_from_density-N",
        "closed_form_sigma-k",
        "bridge_refinement-r",
        "increments-m",
        "increments-seed",
        "sample_exact_path-seed",
        "mc_verify-paths",
        "mc_verify-seed",
    ],
)
@pytest.mark.parametrize("flag", [True, False])
def test_integer_argument_refuses_bool(call, flag):
    with pytest.raises(TypeError):
        call(flag)  # never read as 1 or 0


@pytest.mark.parametrize(
    "call",
    [
        lambda g: sigma_path(OU, g),
        lambda g: run_filter(OU, [0.0], WienerIncrements.sample(g, 1, 0)),
        lambda g: sample_exact_path(OU, g, [0.0], 0),
        lambda g: mc_verify_mse(OU, g, 100, 5),
        lambda g: mc_verify_integral(OU, g, 100, 5),
        lambda g: closed_form_sigma(OU, g, 3),
    ],
    ids=[
        "sigma_path",
        "run_filter",
        "sample_exact_path",
        "mc_verify_mse",
        "mc_verify_integral",
        "closed_form_sigma",
    ],
)
def test_grid_must_span_model_horizon(call):
    call(GRID4)  # [0, 1], the horizon of OU
    for T in (5.0, 0.5):
        with pytest.raises(ValueError, match="grid horizon does not match the model"):
            call(TimeGrid(np.linspace(0.0, T, 11)))


def test_only_the_samplers_take_roots(monkeypatch):
    # the recursions read K_dt dt^3 itself; only the samplers call eigh for its root
    def no_eigh(*args, **kwargs):
        raise RuntimeError("eigh called")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    model = random_model(np.random.default_rng(3), n=3, m=2)
    grid = random_grid(np.random.default_rng(4), 20)
    sigma_path(model, grid)
    run_filter(model, np.zeros(3), WienerIncrements.sample(grid, 2, 1))
    kalman_step(model, np.zeros(3), np.zeros((3, 3)), 0.1, np.zeros(2))
    for sampler in (
        lambda: sample_exact_path(model, grid, np.zeros(3), 1),
        lambda: mc_verify_mse(model, grid, 100, 1),
    ):
        with pytest.raises(RuntimeError, match="eigh called"):
            sampler()


class TestReferenceSchemes:
    def test_euler_step_arithmetic(self):
        out = euler_maruyama_step(lambda x: 2.0 * x, lambda x: 1.0, 1.0, 0.5, 0.25)
        assert float(out) == 2.25

    def test_euler_step_matrix_noise(self):
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        B = np.array([[1.0, 0.0], [0.0, 2.0]])
        x = np.array([1.0, 2.0])
        dW = np.array([0.1, -0.2])
        out = euler_maruyama_step(lambda y: A @ y, lambda y: B, x, 0.5, dW)
        assert np.allclose(out, x + A @ x * 0.5 + B @ dW, rtol=1e-15)

    def test_euler_step_batched(self):
        x = np.array([0.0, 1.0, 2.0])
        dW = np.array([0.1, 0.0, -0.1])
        out = euler_maruyama_step(lambda y: -y, lambda y: y, x, 0.25, dW)
        assert np.allclose(out, x - 0.25 * x + x * dW, rtol=1e-15)

    def test_euler_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            euler_maruyama_step(lambda x: x, lambda x: 1.0, np.nan, 0.1, 0.0)

    def test_milstein_arithmetic(self):
        out = milstein_step_scalar(
            lambda x: 0.0, lambda x: x, lambda x: 1.0, 1.0, 0.5, 1.0
        )
        assert float(out) == 1.0 + 1.0 + 0.5 * (1.0 - 0.5)

    def test_milstein_reduces_to_euler_for_additive_noise(self):
        args = (lambda x: -2.0 * x, lambda x: 3.0, 0.7, 0.1, -0.2)
        em = euler_maruyama_step(args[0], args[1], *args[2:])
        mil = milstein_step_scalar(args[0], args[1], lambda x: 0.0, *args[2:])
        assert float(em) == float(mil)


class TestBridgeMoments:
    def test_endpoints_pinned(self):
        dW = np.array([1.5])
        mean0, cov0 = bridge_moments(0.0, 2.0, 0.0, 0.0, dW)
        assert np.array_equal(mean0, [0.0]) and cov0 == 0.0
        mean1, cov1 = bridge_moments(0.0, 2.0, 2.0, 2.0, dW)
        assert np.array_equal(mean1, dW) and cov1 == pytest.approx(0.0, abs=1e-15)

    def test_midpoint_quarter_variance(self):
        _, cov = bridge_moments(0.0, 1.0, 0.5, 0.5, np.array([0.3]))
        assert cov == pytest.approx(0.25)
        _, cov = bridge_moments(1.0, 1.5, 1.25, 1.25, np.array([0.3]))
        assert cov == pytest.approx(0.5 / 4.0)

    def test_symmetric_in_s_t(self):
        _, c1 = bridge_moments(0.0, 1.0, 0.3, 0.8, np.array([0.0]))
        _, c2 = bridge_moments(0.0, 1.0, 0.8, 0.3, np.array([0.0]))
        assert c1 == c2

    def test_gaussian_conditioning_oracle(self):
        # condition the joint normal (W_s, W_t, W_{t1}) on the increment
        t0, t1, s, t = 0.5, 2.0, 0.9, 1.7
        cov_full = np.array(
            [
                [s - t0, s - t0, s - t0],
                [s - t0, t - t0, t - t0],
                [s - t0, t - t0, t1 - t0],
            ]
        )
        cond = cov_full[:2, :2] - np.outer(cov_full[:2, 2], cov_full[2, :2]) / (t1 - t0)
        _, got = bridge_moments(t0, t1, s, t, np.array([0.0]))
        assert got == pytest.approx(cond[0, 1], rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bridge_moments(1.0, 1.0, 1.0, 1.0, [0.1])
        with pytest.raises(ValueError):
            bridge_moments(0.0, 1.0, 1.5, 0.5, [0.1])


class TestBridgeRefinement:
    def test_bitwise_sum_benign_regime(self):
        rng = np.random.default_rng(101)
        span = 0.7
        for r in (2, 3, 5, 8):
            mag = 2.05 * math.sqrt(span)
            for _ in range(50):
                signs = np.where(rng.random(200) < 0.5, -1.0, 1.0)
                dW = mag * signs
                inc = sample_bridge_refinement(0.3, 0.3 + span, dW, r, rng)
                assert inc.shape == (r, 200)
                recon = np.cumsum(inc, axis=0)[-1]
                assert np.array_equal(recon, dW)

    def test_moments_match_bridge_law(self):
        rng = np.random.default_rng(55)
        dW = np.full(1000, 2.05)
        levels = np.empty((100, 1000))
        for i in range(100):
            inc = sample_bridge_refinement(0.0, 1.0, dW, 2, rng)
            levels[i] = inc[0]
        draws = levels.ravel()
        n = draws.size
        mean_ref, var_ref = 2.05 / 2.0, 0.25
        assert abs(draws.mean() - mean_ref) <= 3 * math.sqrt(var_ref / n)
        assert abs(draws.var() - var_ref) <= 3 * var_ref * math.sqrt(2.0 / n)

    def test_first_level_variance_r4(self):
        # var of the first interior level is h (span - h) / span
        rng = np.random.default_rng(56)
        span, r = 2.0, 4
        h = span / r
        dW = np.full(2000, 2.05 * math.sqrt(span))
        draws = np.concatenate(
            [sample_bridge_refinement(0.0, span, dW, r, rng)[0] for _ in range(25)]
        )
        var_ref = h * (span - h) / span
        assert abs(draws.var() - var_ref) <= 3 * var_ref * math.sqrt(2.0 / draws.size)

    def test_scalar_increment_accepted(self):
        rng = np.random.default_rng(5)
        inc = sample_bridge_refinement(0.0, 1.0, 1.3, 3, rng)
        assert inc.shape == (3, 1)
        assert np.cumsum(inc[:, 0])[-1] == 1.3

    def test_rejects_bad_arguments(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ValueError):
            sample_bridge_refinement(0.0, 1.0, [0.1], 1, rng)
        with pytest.raises(ValueError):
            sample_bridge_refinement(1.0, 0.5, [0.1], 2, rng)
        with pytest.raises(ValueError):
            sample_bridge_refinement(0.0, 1.0, [np.nan], 2, rng)

    def test_refinement_tightens_terminal_error(self, ou):
        # splitting every step must shrink the optimal reconstruction error
        coarse = grid_from_density(uniform_density(1.0), 8)
        rng = np.random.default_rng(77)
        inc = WienerIncrements.sample(coarse, 1, 77)
        r = 4
        fine_pts = [0.0]
        fine_inc = []
        for k in range(coarse.n_steps):
            t0, t1 = coarse.points[k], coarse.points[k + 1]
            sub = sample_bridge_refinement(t0, t1, inc.increments[k], r, rng)
            fine_inc.append(sub)
            fine_pts.extend(t0 + (t1 - t0) * np.arange(1, r + 1) / r)
        fine = TimeGrid(np.array(fine_pts))
        fine_inc = WienerIncrements(fine, np.vstack(fine_inc))
        _, rep_coarse = run_filter(ou, [0.0], inc)
        _, rep_fine = run_filter(ou, [0.0], fine_inc)
        assert rep_fine.terminal < rep_coarse.terminal


class TestMcVerify:
    def test_zero_drift_exact_zero(self):
        model = LinearSdeModel(A=np.zeros((2, 2)), B=np.eye(2), M=np.eye(2), T=1.0)
        grid = grid_from_density(uniform_density(1.0), 4)
        sample, predicted, stderr = mc_verify_mse(model, grid, 500, 9)
        assert sample == 0.0 and predicted == 0.0 and stderr == 0.0

    def test_ou_consistency(self, ou):
        grid = grid_from_density(uniform_density(1.0), 16)
        sample, predicted, stderr = mc_verify_mse(ou, grid, 20_000, 2024)
        assert abs(sample - predicted) <= 4 * stderr
        assert predicted > 0

    def test_integral_consistency(self, ou):
        # the per-step test oracle's sample against error_report's integral
        grid = grid_from_density(uniform_density(1.0), 16)
        sample, predicted, stderr = mc_verify_integral(ou, grid, 20_000, 2024)
        assert abs(sample - predicted) <= 4 * stderr

    def test_reproducible_and_seed_sensitive(self, ou):
        grid = grid_from_density(uniform_density(1.0), 8)
        a = mc_verify_mse(ou, grid, 1000, 42)
        b = mc_verify_mse(ou, grid, 1000, 42)
        c = mc_verify_mse(ou, grid, 1000, 43)
        assert a == b
        assert a[0] != c[0]

    def test_path_floor(self, ou):
        grid = grid_from_density(uniform_density(1.0), 4)
        with pytest.raises(ValueError):
            mc_verify_mse(ou, grid, 50, 1)

    def test_x0_not_taken(self, ou):
        # neither x0 nor the drive enters the error, so neither is an argument
        grid = grid_from_density(uniform_density(1.0), 4)
        with pytest.raises(TypeError):
            mc_verify_mse(ou, grid, [0.0], 200, 1)

    def test_generator_seed_refused(self, ou):
        # every seed in the package is an integer only; a Generator is not drawn from
        grid = grid_from_density(uniform_density(1.0), 4)
        for call in (
            lambda g: mc_verify_mse(ou, grid, paths=200, seed=g),
            lambda g: WienerIncrements.sample(grid, 1, g),
            lambda g: sample_exact_path(ou, grid, [0.0], g),
        ):
            with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
                call(np.random.default_rng(5))

    def test_paths_not_truncated(self, ou):
        grid = grid_from_density(uniform_density(1.0), 4)
        with pytest.raises(TypeError):
            mc_verify_mse(ou, grid, 150.7, 1)
        assert mc_verify_mse(ou, grid, np.int64(150), 1) == mc_verify_mse(ou, grid, 150, 1)

    def test_seed_not_truncated(self, ou):
        grid = grid_from_density(uniform_density(1.0), 4)
        with pytest.raises(TypeError):
            mc_verify_mse(ou, grid, 200, 7.9)
        assert mc_verify_mse(ou, grid, 200, np.uint64(7)) == mc_verify_mse(ou, grid, 200, 7)

    @pytest.mark.parametrize("verify", [mc_verify_mse, mc_verify_integral])
    def test_zscores_calibrated_over_seeds(self, ou, verify):
        # one seed at a time the checks hold at |z| <= 4 or 5; over 200
        # seeds the z-scores are about standard normal, mean and SD each
        # within about 5 standard errors
        grid = grid_from_density(uniform_density(1.0), 4)
        z = []
        for seed in range(200):
            sample, predicted, stderr = verify(ou, grid, 2000, seed)
            z.append((sample - predicted) / stderr)
        assert abs(np.mean(z)) <= 0.35
        assert 0.75 <= np.std(z, ddof=1) <= 1.25

    def test_zscores_calibrated_over_groups_at_n4(self):
        # the terminal check composes each group of _MC_STEPS steps; on the
        # benchmark's 4x4 model over a random 13-step grid it crosses three
        # whole groups and a ragged one, with the bounds of the test above
        workloads = Path(__file__).parents[1] / "perfbench" / "workloads"
        model = parse_config(str(workloads / "sys4-uniform.cfg")).model
        grid = random_grid(np.random.default_rng(13), 13, T=model.T)
        z = []
        for seed in range(200):
            sample, predicted, stderr = mc_verify_mse(model, grid, 2000, seed)
            z.append((sample - predicted) / stderr)
        assert abs(np.mean(z)) <= 0.35
        assert 0.75 <= np.std(z, ddof=1) <= 1.25


class TestSimulateErrors:
    def test_bytes_independent_of_worker_count(self):
        model = random_regular_model(np.random.default_rng(8), n=3, m=2)
        table = _step_table(model, random_grid(np.random.default_rng(9), 13).steps)
        paths = 2 * _MC_BLOCK + 37  # a ragged last block, and a ragged last chunk
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the workers' Python steps finely
        try:
            runs = [simulate(model, table, paths, 606, workers=w) for w in (1, 2, 3)]
        finally:
            sys.setswitchinterval(interval)
        for w2 in runs:
            assert w2.shape == (paths,)
            assert np.all(w2 > 0)
        for w2 in runs[1:]:
            assert w2.tobytes() == runs[0].tobytes()

    def test_blocks_draw_distinct_streams(self, ou):
        table = _step_table(ou, np.full(4, 0.25))
        w2 = simulate(ou, table, 2 * _MC_BLOCK, 3, workers=1)
        assert not np.array_equal(w2[:_MC_BLOCK], w2[_MC_BLOCK:])

    def test_caller_error_state_reaches_workers(self):
        unstable = LinearSdeModel(A=[[400.0]], B=[[1.0]], M=[[1.0]], T=2.0)
        table = _step_table(unstable, np.full(16, 0.125))  # X grows by e^50 a step
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError):
                simulate(unstable, table, 2 * _MC_BLOCK + 1, 1, workers=2)
        with np.errstate(over="ignore", invalid="ignore"):
            w2 = simulate(unstable, table, 2 * _MC_BLOCK + 1, 1, workers=2)
        assert not np.all(np.isfinite(w2))

    def test_matches_per_path_loop(self):
        # pins the stream layout: block b reads one (n, block) array per group
        # of _MC_STEPS steps from (seed, 2, b), column j for path j; the error
        # starts at 0
        model = random_regular_model(np.random.default_rng(8), n=3)
        grid = random_grid(np.random.default_rng(9), 12)
        table = _step_table(model, grid.steps)
        paths = 2 * _MC_BLOCK + 37
        got = simulate(model, table, paths, 606)
        ref = simulate_errors_loop(model, table, paths, 606)
        assert np.max(np.abs(got - ref) / ref) <= 1e-12

    @pytest.mark.parametrize("N", [1, 3, 4, 5, 13])
    @pytest.mark.parametrize("kind", ["uniform", "random"])
    def test_chunks_match_per_path_loop(self, kind, N, monkeypatch):
        # 1 and 3 steps make no full group of _MC_STEPS, 4 exactly one, 5 and
        # 13 a ragged last group; one map is built per group of the table,
        # on a dyadic uniform grid as on a random one.  Each block draws
        # once per group, not once per step: n normals per path.
        rng = np.random.default_rng(100 + N)
        model = random_regular_model(rng, n=3, m=2)
        steps = np.full(N, 0.125) if kind == "uniform" else random_grid(rng, N).steps
        table = _step_table(model, steps)
        built, draws = [], []
        chunk_maps, stream = solver._chunk_maps, solver._stream

        def counting_maps(table):
            maps = chunk_maps(table)
            built.append(len(maps))
            return maps

        class CountingStream:
            def __init__(self, *key):
                self.g = stream(*key)
                draws.append([])

            def standard_normal(self, out):
                draws[-1].append(out.shape)
                return self.g.standard_normal(out=out)

        monkeypatch.setattr(solver, "_chunk_maps", counting_maps)
        monkeypatch.setattr(solver, "_stream", CountingStream)
        paths = 2 * _MC_BLOCK + 37
        got = simulate(model, table, paths, 606, workers=1)
        ref = simulate_errors_loop(model, table, paths, 606)
        assert np.max(np.abs(got - ref) / ref) <= 1e-12
        groups = -(-N // _MC_STEPS)
        assert built == [groups]
        blocks = (_MC_BLOCK, _MC_BLOCK, 37)
        assert draws == [[(3, size)] * groups for size in blocks]

    def test_terminal_maps_compose_each_group(self):
        # 13 steps: three groups of _MC_STEPS and a ragged one-step group.
        # Map d is [E_g | R_g], E_g the product of the group's exp_a and
        # R_g R_g^T its noise covariance, composed step by step from (I, 0)
        rng = np.random.default_rng(13)
        model = random_regular_model(rng, n=3)
        table = _step_table(model, random_grid(rng, 13).steps)
        maps = solver._chunk_maps(table)
        assert maps.shape == (4, 3, 6)
        for d, m in enumerate(maps):
            rows = table.index[d * _MC_STEPS : (d + 1) * _MC_STEPS]
            E = np.linalg.multi_dot([table.exp_a[i] for i in rows[::-1]] + [np.eye(3)])
            Q = np.zeros((3, 3))
            for i in rows:
                Q = table.exp_a[i] @ Q @ table.exp_a[i].T + table.kt3[i]
            R = m[:, 3:]
            assert np.max(np.abs(m[:, :3] - E)) <= 1e-13 * np.max(np.abs(E))
            assert np.max(np.abs(R @ R.T - Q)) <= 1e-13 * np.max(np.abs(Q))

    def test_blocks_share_no_draws_with_the_samplers(self, ou):
        # on one step of the OU model a path's error is root * xi, so each
        # path's squared error gives back |xi| of the block's first draw;
        # no block may read the normals of the increments or the residuals
        seed = 5
        grid = grid_from_density(uniform_density(1.0), 8)
        states, inc = sample_exact_path(ou, grid, [0.0], seed)
        dW = inc.increments[:, 0]
        rows = _step_table(ou, grid.steps)
        i = rows.index
        x = states[:, 0]
        drift = rows.exp_a[i, 0, 0] * x[:-1] + rows.phi_b[i, 0, 0] * dW
        residual = (x[1:] - drift) / np.sqrt(rows.kt3[i, 0, 0])
        sampled = (dW / np.sqrt(grid.steps), residual)

        table = _step_table(ou, [1.0])
        w2 = simulate(ou, table, 3 * _MC_BLOCK, seed, workers=1)
        xi = np.sqrt(w2 / table.kt3[0, 0, 0])
        for b in range(3):
            first = xi[b * _MC_BLOCK : b * _MC_BLOCK + grid.n_steps]
            for normals in sampled:
                assert not np.allclose(first, np.abs(normals), rtol=1e-9, atol=0)

    @pytest.mark.parametrize("wrong", ["kt3_sqrt", "exp_a"])
    def test_check_catches_a_wrong_table(self, wrong):
        # sampling from a perturbed table agrees with that table's own
        # prediction and is refuted by the true table's
        workloads = Path(__file__).parents[1] / "perfbench" / "workloads"
        model = parse_config(str(workloads / "sys4-uniform.cfg")).model
        table = _step_table(model, grid_from_density(uniform_density(model.T), 64).steps)
        if wrong == "kt3_sqrt":
            # the sampled root follows kt3, so both sides see the same 5% wider noise
            bad = dataclasses.replace(table, kt3=1.05**2 * table.kt3)
        else:
            bad = dataclasses.replace(table, exp_a=1.01 * table.exp_a)
        paths = 20_000
        w, bad_rep = _simulate_errors(model, 64, [(slice(0, 64), bad)], paths, 12)
        stderr = w.std(ddof=1) / math.sqrt(paths)

        def zscore(rep):
            return (w.mean() - rep.terminal) / stderr

        assert abs(zscore(bad_rep)) <= 5
        assert abs(zscore(solver._sigma_path(model, 64, [(slice(0, 64), table)]))) > 5

    @pytest.mark.parametrize("N", [1025, 2051])
    def test_chunks_give_the_whole_table_bytes(self, N):
        # the verifier reads the grid in scan chunks; its errors are the bytes
        # of one whole-grid table, across the chunk edges and a ragged last group
        rng = np.random.default_rng(N)
        model = random_regular_model(rng, n=3, m=2)
        grid = random_grid(rng, N)
        w, rep = _simulate_errors(model, N, _chunks(model, grid), 300, 5)
        assert rep == error_report(model, grid)
        table = _step_table(model, grid.steps)
        assert w.tobytes() == simulate(model, table, 300, 5).tobytes()


class TestStream:
    def test_rejects_out_of_range_keys(self):
        with pytest.raises(ValueError):
            _stream(-1, 0)
        with pytest.raises(ValueError):
            _stream(0, 2**64)
        with pytest.raises(ValueError):
            _stream(0, 2, 2**64)

    def test_largest_keys_draw(self):
        # the bound admits every uint64: 2**64 - 1 as the seed and as a key
        assert np.all(np.isfinite(_stream(2**64 - 1, 2**64 - 1).standard_normal(4)))

    def test_distinct_keys_distinct_draws(self):
        a = _stream(1, 0).standard_normal(4)
        b = _stream(1, 1).standard_normal(4)
        c = _stream(1, 0).standard_normal(4)
        d = _stream(1, 2, 0).standard_normal(4)  # a verifier block's key
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, d)
        assert np.array_equal(a, c)
