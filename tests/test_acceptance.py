"""End-to-end acceptance checks for the whole package.

Each test exercises one advertised property on the reference scalar model
(dX = -X dt + dW, M = 1, T = 1) or on small random instances: convergence
of the rescaled error recursion to its limit functional on uniform and
optimal grids, the limit covariance profile, Monte Carlo consistency,
the cube-root optimality property, cross-route identities, strong-order
baselines of the reference schemes, and the bridge refinement law.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson

from sde_gridopt import (
    GridDensity,
    ctrl_gramian,
    error_report,
    grid_from_density,
    kt_matrix,
    limit_sigma,
    mc_verify_mse,
    mho,
    min_phi_value,
    min_ups_value,
    obs_gramian,
    optimal_profile,
    phi_functional,
    sigma_path,
    uniform_density,
    ups_functional,
    weight_curve,
)
from sde_gridopt.solver import _step_table, _stream

from helpers import (
    closed_form_sigma,
    euler_maruyama_step,
    functional_quadrature_bound,
    kt_oracle,
    limit_sigma_ode,
    mc_verify_integral,
    milstein_step_scalar,
    random_model,
    random_regular_model,
    sample_bridge_refinement,
)

SWEEP = [2**k for k in range(4, 13)]


def test_criterion_1_uniform_terminal_convergence(ou):
    start = time.perf_counter()
    uni = uniform_density(1.0)
    limit = phi_functional(ou, uni)
    values = {N: error_report(ou, grid_from_density(uni, N)).n2_terminal for N in SWEEP}
    gaps = [abs(values[N] - limit) for N in SWEEP]
    elapsed = time.perf_counter() - start

    assert values[4096] == pytest.approx(0.0360277, rel=0.01)
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert elapsed <= 10.0
    print(
        f"criterion 1: N2T(4096)={values[4096]:.8f} limit={limit:.8f} "
        f"gaps decreasing over N=16..4096, {elapsed:.2f}s"
    )


def test_criterion_2_optimal_grid_convergence(ou):
    psi = optimal_profile(ou, "terminal")
    opt = error_report(ou, grid_from_density(psi, 4096)).n2_terminal
    uni = error_report(ou, grid_from_density(uniform_density(1.0), 4096)).n2_terminal

    assert opt == pytest.approx(0.0324016, rel=0.01)
    ratio = uni / opt
    assert ratio == pytest.approx(1.11191, rel=0.02)
    print(f"criterion 2: N2T_opt(4096)={opt:.8f} observed ratio={ratio:.5f}")


def test_criterion_3_limit_covariance_profile(ou):
    uni = uniform_density(1.0)
    a = limit_sigma_ode(ou, uni, 0.5)
    b = limit_sigma(ou, uni, 0.5)
    route_gap = np.linalg.norm(a - b) / np.linalg.norm(a)
    assert route_gap <= 1e-8

    N = 4096
    grid = grid_from_density(uni, N)
    finite = N**2 * sigma_path(ou, grid)[0][N // 2][0, 0]
    assert finite == pytest.approx(a[0, 0], rel=0.02)
    print(
        f"criterion 3: routes agree to {route_gap:.2e}; "
        f"N2 Sigma_2048 = {finite:.8f} vs limit {a[0, 0]:.8f}"
    )


def test_criterion_4_monte_carlo_consistency(ou):
    start = time.perf_counter()
    grid = grid_from_density(uniform_density(1.0), 32)
    sample, predicted, stderr = mc_verify_mse(ou, grid, 100_000, 2024)
    z_term = (sample - predicted) / stderr
    assert abs(sample - predicted) <= 3.0 * stderr

    # the integral error through the per-step test oracle; no package route samples it
    s_int, p_int, se_int = mc_verify_integral(ou, grid, 100_000, 2024)
    z_int = (s_int - p_int) / se_int
    assert abs(s_int - p_int) <= 3.0 * se_int
    elapsed = time.perf_counter() - start
    assert elapsed <= 60.0
    print(f"criterion 4: z_terminal={z_term:.2f} z_integral={z_int:.2f} {elapsed:.2f}s")


def test_criterion_5_holder_optimality(ou):
    reg = random_regular_model(np.random.default_rng(11), n=2, m=2)
    rng = np.random.default_rng(3)
    mesh_nodes = weight_curve(ou)[0].size  # random densities on the curves' mesh
    for model in (ou, reg):
        floor = min_phi_value(model)
        for _ in range(10):
            psi = GridDensity(model.T, 0.05 + 2.0 * rng.random(mesh_nodes))
            value = phi_functional(model, psi)
            bound = functional_quadrature_bound(model, psi, "terminal")
            assert value + bound >= floor - 1e-9
        psi_opt = optimal_profile(model, "terminal")
        assert phi_functional(model, psi_opt) == pytest.approx(floor, rel=1e-8)

    # integral criterion: truncate the vanishing tail of the optimal
    # density at distance eps from the horizon; the functional approaches
    # the infimum from above as eps drops
    floor = min_ups_value(ou)
    psi_opt = optimal_profile(ou, "integral")
    bound_opt = functional_quadrature_bound(ou, psi_opt, "integral")
    gaps = []
    for eps in (1e-1, 1e-2, 1e-3):
        level = psi_opt.psi_at((1.0 - eps) * ou.T)
        psi_eps = GridDensity(ou.T, np.maximum(psi_opt.values, level))
        value = ups_functional(ou, psi_eps)
        bound = functional_quadrature_bound(ou, psi_eps, "integral")
        assert value + bound + bound_opt >= floor - 1e-9
        gaps.append(abs(value - floor))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] <= 0.01 * floor
    print(f"criterion 5: Phi floor holds on 20 densities; Ups gaps {gaps}")


def test_criterion_6_identity_battery(ou):
    rng = np.random.default_rng(17)

    # tail-integral identity int_t^T F = S_t on the shared mesh
    for model in (ou, random_regular_model(rng, n=2, m=2)):
        mesh, F, S, _ = weight_curve(model)
        cum = cumulative_simpson(F, x=mesh, initial=0.0)
        tail = cum[-1] - cum
        assert np.max(np.abs(tail - S)) <= 1e-8 * S[0]

    # Lyapunov residuals under h = 1e-4 central differences
    h = 1e-4
    model = random_model(rng, n=2)
    A, D, M = model.A, model.D, model.M
    for t in (0.35, 0.9):
        dG = (ctrl_gramian(A, D, t + h) - ctrl_gramian(A, D, t - h)) / (2 * h)
        G = ctrl_gramian(A, D, t)
        rG = dG - (A @ G + G @ A.T + D)
        assert np.linalg.norm(rG) <= 1e-6 * np.linalg.norm(A @ G + G @ A.T + D)
        dQ = (obs_gramian(A, M, t + h) - obs_gramian(A, M, t - h)) / (2 * h)
        Q = obs_gramian(A, M, t)
        rQ = dQ - (A.T @ Q + Q @ A + M)
        assert np.linalg.norm(rQ) <= 1e-6 * np.linalg.norm(A.T @ Q + Q @ A + M)
    uni = uniform_density(1.0)
    tau = 0.6
    sig = limit_sigma(ou, uni, tau)
    dS = (limit_sigma(ou, uni, tau + h) - limit_sigma(ou, uni, tau - h)) / (2 * h)
    rhs = ou.A @ sig + sig @ ou.A.T + mho(ou.A, ou.D)
    assert np.linalg.norm(dS - rhs) <= 1e-6 * np.linalg.norm(rhs)

    # float64 doubling K_t against the series / long-double direct oracle
    # across t ||A||_F in [1e-3, 30]
    model = random_model(rng, n=2)
    nrm = np.linalg.norm(model.A)
    for x in np.geomspace(1e-3, 30.0, 13):
        t = float(x / nrm)
        a = kt_oracle(model.A, model.D, t)
        b = kt_matrix(model.A, model.D, t)
        assert np.linalg.norm(a - b) <= 1e-13 * np.linalg.norm(a)

    # covariance recursion against its explicit closed-form sum
    for n in (1, 2, 3):
        model = random_model(rng, n=n)
        for N in (16, 64):
            grid = grid_from_density(uniform_density(1.0), N)
            sigmas, _ = sigma_path(model, grid)
            for k in (0, N // 2, N - 1):
                ref = closed_form_sigma(model, grid, k)
                assert np.linalg.norm(sigmas[k] - ref) <= 1e-12 * max(
                    np.linalg.norm(ref), 1e-300
                )
    print("criterion 6: tail integral, Lyapunov, K branches, closed-form Sigma all pass")


def test_criterion_7_scheme_baselines(ou):
    # strong-order slopes on geometric Brownian motion with shared paths
    mu_, sg, T, x0 = 0.5, 1.0, 1.0, 1.0
    paths, n_fine = 10_000, 512
    g = _stream(314159, 0)
    fine = math.sqrt(T / n_fine) * g.standard_normal((n_fine, paths))
    exact = x0 * np.exp((mu_ - 0.5 * sg**2) * T + sg * fine.sum(axis=0))

    def rms_errors(N):
        dW = fine.reshape(N, n_fine // N, paths).sum(axis=1)
        dt = T / N
        xe = np.full(paths, x0)
        xm = np.full(paths, x0)
        for k in range(N):
            xe = euler_maruyama_step(lambda x: mu_ * x, lambda x: sg * x, xe, dt, dW[k])
            xm = milstein_step_scalar(
                lambda x: mu_ * x, lambda x: sg * x, lambda x: sg, xm, dt, dW[k]
            )
        return (
            math.sqrt(np.mean((xe - exact) ** 2)),
            math.sqrt(np.mean((xm - exact) ** 2)),
        )

    Ns = [2**k for k in range(4, 10)]
    em, mil = zip(*(rms_errors(N) for N in Ns))
    log_dt = np.log([T / N for N in Ns])
    slope_em = float(np.polyfit(log_dt, np.log(em), 1)[0])
    slope_mil = float(np.polyfit(log_dt, np.log(mil), 1)[0])
    assert slope_em == pytest.approx(0.5, abs=0.15)
    assert slope_mil == pytest.approx(1.0, abs=0.15)

    # on the linear model the conditional-moment recursion is the floor
    # for any increment-measurable scheme, Euler-Maruyama included
    N, paths = 32, 20_000
    grid = grid_from_density(uniform_density(1.0), N)
    dt = float(grid.steps[0])
    table = _step_table(ou, [dt])
    root = math.sqrt(table.kt3[0, 0, 0])  # the scalar K_dt dt^3 is its own eigenvalue
    g = _stream(271828, 0)
    X = np.zeros(paths)
    xe = np.zeros(paths)
    for k in range(N):
        dW = math.sqrt(dt) * g.standard_normal(paths)
        xi = g.standard_normal(paths)
        X = table.exp_a[0, 0, 0] * X + table.phi_b[0, 0, 0] * dW + root * xi
        xe = euler_maruyama_step(lambda x: -x, lambda x: 1.0, xe, dt, dW)
    err2 = (X - xe) ** 2
    se = err2.std(ddof=1) / math.sqrt(paths)
    floor = error_report(ou, grid).terminal
    assert err2.mean() >= floor - 3.0 * se
    print(
        f"criterion 7: slopes em={slope_em:.3f} mil={slope_mil:.3f}; "
        f"EM mse={err2.mean():.3e} >= Kalman {floor:.3e} - 3se"
    )


def test_criterion_8_bridge_moments():
    rng = np.random.default_rng(99)
    t0, t1, r = 0.25, 0.75, 2
    span = t1 - t0
    m, calls = 1000, 1000
    sd = 2.05 * math.sqrt(span)
    resid = np.empty((calls, m))
    exact_sums = 0
    for i in range(calls):
        dW = sd * np.where(rng.random(m) < 0.5, -1.0, 1.0)
        inc = sample_bridge_refinement(t0, t1, dW, r, rng)
        exact_sums += int(np.array_equal(np.cumsum(inc, axis=0)[-1], dW))
        resid[i] = inc[0] - 0.5 * dW
    assert exact_sums == calls  # bitwise reconstruction on every draw

    draws = resid.ravel()
    n = draws.size
    var_ref = span / 4.0
    assert n == 1_000_000
    assert abs(draws.mean()) <= 3.0 * math.sqrt(var_ref / n)
    assert abs(draws.var() - var_ref) <= 3.0 * var_ref * math.sqrt(2.0 / n)
    print(
        f"criterion 8: midpoint var {draws.var():.6f} vs dt/4 = {var_ref}; "
        f"{exact_sums}/{calls} calls reconstruct bitwise"
    )
