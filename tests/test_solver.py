import math

import numpy as np
import pytest

from sde_gridopt import (
    LinearSdeModel,
    TimeGrid,
    WienerIncrements,
    bridge_moments,
    closed_form_sigma,
    ctrl_gramian,
    euler_maruyama_step,
    grid_from_density,
    kalman_step,
    kt_matrix,
    mc_verify_integral,
    mc_verify_mse,
    milstein_step_scalar,
    optimal_profile,
    phi1,
    run_filter,
    sample_bridge_refinement,
    sample_exact_path,
    sample_joint_increment,
    sigma_path,
    solver,
    uniform_density,
)
from sde_gridopt.solver import KalmanState, _step_matrices, _step_table, _stream

from helpers import random_grid, random_model, random_regular_model


def rel(err, ref):
    return np.linalg.norm(err) / max(np.linalg.norm(ref), 1e-300)


class TestJointIncrement:
    def test_zero_drift_reduces_to_scaled_increment(self):
        model = LinearSdeModel(A=np.zeros((2, 2)), B=[[1.0], [2.0]], M=np.eye(2), T=1.0)
        rng = np.random.default_rng(0)
        dW, Z = sample_joint_increment(model, 0.3, rng)
        assert np.allclose(Z, model.B @ dW, rtol=1e-13, atol=1e-16)

    def test_moments_match_transition_law(self, ou):
        # var(Z) = G_dt, cov(Z, dW) = E(dt A) B dt, var(Z | dW) = K_dt dt^3
        dt = 1.0
        sm = _step_matrices(ou, dt)
        g = _stream(777, 0)
        n_draws = 40_000
        dW = math.sqrt(dt) * g.standard_normal((n_draws, 1))
        xi = g.standard_normal((n_draws, 1))
        Z = dW @ sm.phi_b.T + xi @ sm.kt3_sqrt.T

        G = ctrl_gramian(ou.A, ou.D, dt)[0, 0]
        se = math.sqrt(2.0 / n_draws)
        assert abs(Z.var() - G) <= 3 * G * se
        cov = float(np.mean(Z * dW))
        cov_ref = (phi1(ou.A, dt) @ ou.B)[0, 0] * dt
        assert abs(cov - cov_ref) <= 4 * math.sqrt(G * dt) / math.sqrt(n_draws) * 3
        resid = Z - dW @ sm.phi_b.T
        k3 = sm.kt3[0, 0]
        assert abs(resid.var() - k3) <= 3 * k3 * se

    def test_conditional_variance_scales_cubically(self, ou):
        # var(Z - E B dW) = K_dt dt^3 with K_dt near mho for small dt
        for dt, seed in ((1e-2, 1), (1e-3, 2)):
            sm = _step_matrices(ou, dt)
            g = _stream(55, seed)
            n_draws = 30_000
            xi = g.standard_normal((n_draws, 1))
            residual = xi @ sm.kt3_sqrt.T
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
        sm = _step_matrices(ou, 0.5)
        u = rng2.standard_normal(1)
        v = rng2.standard_normal(1)
        assert np.array_equal(dW, math.sqrt(0.5) * u)
        assert np.array_equal(Z, sm.phi_b @ dW + sm.kt3_sqrt @ v)

    def test_invalid_dt(self, ou):
        with pytest.raises(ValueError):
            sample_joint_increment(ou, 0.0, np.random.default_rng(0))


class TestSamplePath:
    def test_deterministic_flow_without_noise(self):
        model = LinearSdeModel(A=[[-0.7]], B=[[0.0]], M=[[1.0]], T=1.0)
        grid = grid_from_density(uniform_density(1.0), 8)
        path = sample_exact_path(model, grid, [2.0], np.random.default_rng(1))
        for k, t in enumerate(grid.points):
            assert path.states[k, 0] == pytest.approx(2.0 * math.exp(-0.7 * t), rel=1e-12)
        assert np.all(path.increments.increments != 0)

    def test_pure_brownian_reconstruction_is_exact(self):
        # with x0 = 0 the state recursion is exactly cumsum's running sum
        model = LinearSdeModel(A=[[0.0]], B=[[1.0]], M=[[1.0]], T=1.0)
        grid = grid_from_density(uniform_density(1.0), 16)
        path = sample_exact_path(model, grid, [0.0], np.random.default_rng(7))
        walk = np.cumsum(path.increments.increments[:, 0])
        assert np.array_equal(path.states[1:, 0], walk)

    def test_terminal_variance_ou(self, ou):
        grid = TimeGrid([0.0, 0.5, 1.0])
        rng = np.random.default_rng(10)
        draws = np.array(
            [sample_exact_path(ou, grid, [0.0], rng).states[-1, 0] for _ in range(4000)]
        )
        G = ctrl_gramian(ou.A, ou.D, 1.0)[0, 0]
        assert abs(draws.var() - G) <= 3 * G * math.sqrt(2.0 / draws.size)

    def test_shapes(self, ou):
        grid = grid_from_density(uniform_density(1.0), 5)
        path = sample_exact_path(ou, grid, [0.0], np.random.default_rng(2))
        assert path.states.shape == (6, 1)
        assert path.increments.increments.shape == (5, 1)

    def test_same_draws_as_joint_increments(self):
        # one step table per path, same stream layout as sample_joint_increment
        model = random_model(np.random.default_rng(8), n=3, m=2)
        grid = random_grid(np.random.default_rng(9), 12)
        path = sample_exact_path(model, grid, np.ones(3), np.random.default_rng(5))
        rng = np.random.default_rng(5)
        x = np.ones(3)
        for k, dt in enumerate(grid.steps):
            dW, Z = sample_joint_increment(model, float(dt), rng)
            x = _step_matrices(model, float(dt)).exp_a @ x + Z
            assert np.array_equal(path.increments.increments[k], dW)
            assert np.array_equal(path.states[k + 1], x)


class TestKalmanStep:
    def test_zero_drift_shifts_mean_only(self):
        model = LinearSdeModel(A=np.zeros((2, 2)), B=np.eye(2), M=np.eye(2), T=1.0)
        state = KalmanState(-1, np.array([1.0, -1.0]), np.zeros((2, 2)))
        out = kalman_step(model, state, 0.5, np.array([0.2, 0.1]))
        assert out.k == 0
        assert np.allclose(out.mu, [1.2, -0.9], rtol=1e-14)
        assert np.array_equal(out.sigma, np.zeros((2, 2)))

    def test_first_step_covariance_is_kt3(self, ou):
        state = KalmanState(-1, np.zeros(1), np.zeros((1, 1)))
        out = kalman_step(ou, state, 1.0, np.array([0.3]))
        assert out.sigma[0, 0] == pytest.approx(0.03275595748796561, rel=1e-12)


class TestRunFilter:
    def test_sigma_independent_of_increments(self, ou):
        grid = grid_from_density(uniform_density(1.0), 32)
        inc1 = WienerIncrements.sample(grid, 1, np.random.default_rng(1))
        inc2 = WienerIncrements.sample(grid, 1, np.random.default_rng(2))
        traj1, rep1 = run_filter(ou, grid, [0.0], inc1)
        traj2, rep2 = run_filter(ou, grid, [0.0], inc2)
        for s1, s2 in zip(traj1, traj2):
            assert np.array_equal(s1.sigma, s2.sigma)
        assert rep1 == rep2

    def test_mean_linear_in_increments(self, ou):
        grid = grid_from_density(uniform_density(1.0), 16)
        rng = np.random.default_rng(3)
        a = WienerIncrements.sample(grid, 1, rng)
        b = WienerIncrements.sample(grid, 1, rng)
        both = WienerIncrements(grid, a.increments + b.increments)
        mu_a = run_filter(ou, grid, [0.0], a)[0][-1].mu
        mu_b = run_filter(ou, grid, [0.0], b)[0][-1].mu
        mu_ab = run_filter(ou, grid, [0.0], both)[0][-1].mu
        assert np.allclose(mu_ab, mu_a + mu_b, rtol=1e-12, atol=1e-15)

    def test_zero_drift_zero_error(self):
        model = LinearSdeModel(A=np.zeros((2, 2)), B=np.eye(2), M=np.eye(2), T=1.0)
        grid = grid_from_density(uniform_density(1.0), 8)
        inc = WienerIncrements.sample(grid, 2, np.random.default_rng(0))
        _, rep = run_filter(model, grid, np.zeros(2), inc)
        assert rep.terminal == 0.0 and rep.integral == 0.0

    def test_report_rescaling(self, ou):
        grid = grid_from_density(uniform_density(1.0), 64)
        inc = WienerIncrements(grid, np.zeros((64, 1)))
        _, rep = run_filter(ou, grid, [0.0], inc)
        assert rep.n2_terminal == 64.0**2 * rep.terminal
        assert rep.n2_integral == 64.0**2 * rep.integral

    def test_uniform_ou_matches_limit_value(self, ou):
        grid = grid_from_density(uniform_density(1.0), 4096)
        inc = WienerIncrements(grid, np.zeros((4096, 1)))
        _, rep = run_filter(ou, grid, [0.0], inc)
        assert rep.n2_terminal == pytest.approx(0.036028, rel=0.01)

    def test_matches_closed_form_sigma(self):
        rng = np.random.default_rng(77)
        for n in (1, 3):
            model = random_model(rng, n=n)
            grid = random_grid(rng, 24)
            inc = WienerIncrements.sample(grid, model.m, rng)
            traj, _ = run_filter(model, grid, np.zeros(n), inc)
            sigmas, _ = sigma_path(model, grid)
            assert sigmas.shape == (24, n, n)
            for k in (0, 5, 11, 23):
                ref = closed_form_sigma(model, grid, k)
                assert rel(traj[k].sigma - ref, ref) < 1e-12
                assert rel(sigmas[k] - ref, ref) < 1e-12

    def test_mismatched_inputs_raise(self, ou):
        grid = grid_from_density(uniform_density(1.0), 8)
        other = grid_from_density(uniform_density(1.0), 9)
        inc = WienerIncrements.sample(other, 1, np.random.default_rng(0))
        with pytest.raises(ValueError):
            run_filter(ou, grid, [0.0], inc)
        wide = WienerIncrements(grid, np.zeros((8, 2)))
        with pytest.raises(ValueError):
            run_filter(ou, grid, [0.0], wide)


    @pytest.mark.parametrize("kind", ["uniform", "integral-optimal"])
    def test_equals_chain_of_kalman_steps(self, kind):
        # the sequential oracle: run_filter is kalman_step applied N times, bitwise
        rng = np.random.default_rng(31)
        model = random_regular_model(rng, n=2, m=2)
        if kind == "uniform":
            psi = uniform_density(model.T)
        else:
            psi = optimal_profile(model, "integral")[0]
        grid = grid_from_density(psi, 48)
        inc = WienerIncrements.sample(grid, model.m, rng)
        x0 = np.array([0.3, -1.2])
        traj, rep = run_filter(model, grid, x0, inc)
        state = KalmanState(-1, x0, np.zeros((2, 2)))
        for k, dt in enumerate(grid.steps):
            state = kalman_step(model, state, float(dt), inc.increments[k])
            assert traj[k].k == state.k == k
            assert np.array_equal(traj[k].mu, state.mu)
            assert np.array_equal(traj[k].sigma, state.sigma)
        assert rep.terminal == float(np.sum(model.M * state.sigma))


class TestSigmaPath:
    def test_report_matches_run_filter(self, ou):
        grid = random_grid(np.random.default_rng(4), 40)
        inc = WienerIncrements.sample(grid, 1, np.random.default_rng(6))
        traj, rep = run_filter(ou, grid, [1.0], inc)
        sigmas, rep2 = sigma_path(ou, grid)
        assert rep2 == rep
        assert np.array_equal(sigmas, np.array([s.sigma for s in traj]))

    def test_step_table_builds_each_dt_once(self, ou, monkeypatch):
        calls = []
        real = solver._transition

        def counting(A, D, t):
            calls.append(t)
            return real(A, D, t)

        monkeypatch.setattr(solver, "_transition", counting)
        steps = np.array([0.1, 0.2, 0.1, 0.3, 0.2, 0.1])
        table = _step_table(ou, steps)
        assert sorted(calls) == [0.1, 0.2, 0.3]
        assert [sm.dt for sm in table] == list(steps)
        assert table[0] is table[2] is table[5] and table[1] is table[4]
        calls.clear()
        grid = TimeGrid(np.arange(9) / 8.0)  # dyadic: every step is exactly 1/8
        sigma_path(ou, grid)
        assert calls == [0.125]


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
        inc = WienerIncrements.sample(coarse, 1, rng)
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
        _, rep_coarse = run_filter(ou, coarse, [0.0], inc)
        _, rep_fine = run_filter(ou, fine, [0.0], fine_inc)
        assert rep_fine.terminal < rep_coarse.terminal


class TestMcVerify:
    def test_zero_drift_exact_zero(self):
        model = LinearSdeModel(A=np.zeros((2, 2)), B=np.eye(2), M=np.eye(2), T=1.0)
        grid = grid_from_density(uniform_density(1.0), 4)
        sample, predicted, stderr = mc_verify_mse(model, grid, np.zeros(2), 500, 9)
        assert sample == 0.0 and predicted == 0.0 and stderr == 0.0

    def test_ou_consistency(self, ou):
        grid = grid_from_density(uniform_density(1.0), 16)
        sample, predicted, stderr = mc_verify_mse(ou, grid, [0.0], 20_000, 2024)
        assert abs(sample - predicted) <= 4 * stderr
        assert predicted > 0

    def test_integral_consistency(self, ou):
        grid = grid_from_density(uniform_density(1.0), 16)
        sample, predicted, stderr = mc_verify_integral(ou, grid, [0.0], 20_000, 2024)
        assert abs(sample - predicted) <= 4 * stderr

    def test_reproducible_and_seed_sensitive(self, ou):
        grid = grid_from_density(uniform_density(1.0), 8)
        a = mc_verify_mse(ou, grid, [0.0], 1000, 42)
        b = mc_verify_mse(ou, grid, [0.0], 1000, 42)
        c = mc_verify_mse(ou, grid, [0.0], 1000, 43)
        assert a == b
        assert a[0] != c[0]

    def test_path_floor(self, ou):
        grid = grid_from_density(uniform_density(1.0), 4)
        with pytest.raises(ValueError):
            mc_verify_mse(ou, grid, [0.0], 50, 1)

    def test_generator_accepted_as_seed_source(self, ou):
        grid = grid_from_density(uniform_density(1.0), 4)
        out = mc_verify_mse(ou, grid, [0.0], 200, np.random.default_rng(5))
        assert np.isfinite(out[0])


class TestStream:
    def test_rejects_out_of_range_keys(self):
        with pytest.raises(ValueError):
            _stream(-1, 0)
        with pytest.raises(ValueError):
            _stream(0, 2**64)

    def test_distinct_keys_distinct_draws(self):
        a = _stream(1, 0).standard_normal(4)
        b = _stream(1, 1).standard_normal(4)
        c = _stream(1, 0).standard_normal(4)
        assert not np.array_equal(a, b)
        assert np.array_equal(a, c)
