"""Metamorphic relations of the weight curves, the limit functionals and the recursion.

Each relation holds on every model, so it needs no oracle:

* time rescaling: the model (cA, sqrt(c) B, M, T/c) has, on the mesh
  mapped to t / c, the terminal weight c^3 F and the integral weight c^2 S,
  and the same min_phi_value; on the uniform grid of the same N, the same
  terminal error T_N and the integral error I_N / c; and its optimal
  grids are the model's divided by c;
* similarity: the model (P A P^-1, P B, P^-T M P^-1) has the same errors
  on every grid, P orthogonal or general;
* refinement: inserting points into a grid lowers the terminal error,
  since the estimate then conditions on more increments.  The integral
  error, a right-endpoint Riemann sum, may rise: it did on 3 of the 300
  sys4 pairs below, by up to 5.6e-4 relative;
* block additivity: with B = M = I, the weights F and S and the errors of
  error_report of diag(A1, A2) are the sums of the two blocks'.

A relation does not see an error that both sides share, so these checks
add to the oracles of test_asymptotics.py and do not replace them.  Each
tolerance is the largest gap measured on the models below, in eps,
times MARGIN.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from sde_gridopt import (
    LinearSdeModel,
    TimeGrid,
    error_report,
    grid_from_density,
    min_phi_value,
    optimal_profile,
    uniform_density,
    weight_curve,
)
from sde_gridopt.cli import parse_config

from helpers import random_grid, random_regular_model

EPS = np.finfo(float).eps
MARGIN = 4.0
RESCALE_GAP = 2.2  # F 1.5, S 2.2 of the curve's maximum, min_phi 2.0 relative
BLOCK_CURVE_GAP = 8.4  # of the curve's maximum, S of the non-normal pair
BLOCK_REPORT_GAP = 3.1  # relative, I_N of the non-normal pair on the random grid
# T_N and c I_N relative, reg3 at c = 3, N = 1,000; none where sqrt(c) is a power of two
RECURSION_RESCALE_GAP = 58.0
# largest |t' - t / c| over the nodes, in eps of T / c: terminal-optimal grids 1.0
# (sys4, c = 2), integral-optimal 18 (reg3, c = 3), where the cube root of c^2 S rounds
GRID_RESCALE_GAP = {"terminal": 1.0, "integral": 18.0}
SIMILARITY_GAP = 260.0  # relative, T_N of reg3 under the orthogonal P, N = 1,024

WORKLOADS = Path(__file__).parents[1] / "perfbench" / "workloads"


def sys4():
    return parse_config(str(WORKLOADS / "sys4-uniform.cfg")).model


MODELS = {
    "sys4": sys4,
    "reg3": lambda: random_regular_model(np.random.default_rng(3), n=3),
}


def rescaled(model, c):
    return LinearSdeModel(A=c * model.A, B=math.sqrt(c) * model.B, M=model.M, T=model.T / c)


def unit_model(A):
    n = A.shape[0]
    return LinearSdeModel(A=A, B=np.eye(n), M=np.eye(n), T=1.0)


def block(A1, A2):
    n1, n2 = A1.shape[0], A2.shape[0]
    A = np.zeros((n1 + n2, n1 + n2))
    A[:n1, :n1] = A1
    A[n1:, n1:] = A2
    return A


BLOCK_PAIRS = {
    "sys4+reg2": lambda: (sys4().A, random_regular_model(np.random.default_rng(5), n=2).A),
    "ou-1+ou-30": lambda: (np.array([[-1.0]]), np.array([[-30.0]])),
    "non-normal+ou-1": lambda: (np.array([[-1.0, 50.0], [0.0, -2.0]]), np.array([[-1.0]])),
}


@pytest.mark.parametrize("c", [2.0, 0.5])
@pytest.mark.parametrize("name", MODELS)
def test_time_rescaling(name, c):
    model = MODELS[name]()
    scaled = rescaled(model, c)
    tol = MARGIN * RESCALE_GAP * EPS
    mesh, F, S, _ = weight_curve(model)
    scaled_mesh, scaled_F, scaled_S, _ = weight_curve(scaled)
    assert np.array_equal(scaled_mesh, mesh / c)
    for values, mapped, power in ((F, scaled_F, 3), (S, scaled_S, 2)):
        want = c**power * values
        assert np.max(np.abs(mapped - want)) <= tol * want.max()
    assert min_phi_value(scaled) == pytest.approx(min_phi_value(model), rel=tol, abs=0)


@pytest.mark.parametrize("c", [4.0, 0.25, 2.0, 0.5, 3.0])
@pytest.mark.parametrize("name", MODELS)
def test_time_rescaling_of_the_recursion(name, c):
    # where sqrt(c) is a power of two, every input of the step table and the
    # scan is scaled by a power of two, so the bits agree; at c = 2, sqrt(2) B
    # rounds, and reg3 parts by 1.6 eps at N = 1,000
    model = MODELS[name]()
    scaled = rescaled(model, c)
    tol = 0.0 if math.sqrt(c) in (2.0, 0.5) else MARGIN * RECURSION_RESCALE_GAP * EPS
    for N in (1000, 1024):
        rep = error_report(model, grid_from_density(uniform_density(model.T), N))
        got = error_report(scaled, grid_from_density(uniform_density(scaled.T), N))
        assert got.terminal == pytest.approx(rep.terminal, rel=tol, abs=0)
        assert c * got.integral == pytest.approx(rep.integral, rel=tol, abs=0)


@pytest.mark.parametrize("c", [2.0, 0.5, 4.0, 3.0])
@pytest.mark.parametrize("name", MODELS)
def test_time_rescaling_of_the_optimal_grids(name, c):
    model = MODELS[name]()
    scaled = rescaled(model, c)
    for kind, gap in GRID_RESCALE_GAP.items():
        psi, image = optimal_profile(model, kind), optimal_profile(scaled, kind)
        for N in (1000, 1024):
            t = grid_from_density(psi, N).points
            u = grid_from_density(image, N).points
            assert np.max(np.abs(u - t / c)) <= MARGIN * gap * EPS * scaled.T


@pytest.mark.parametrize("name", MODELS)
def test_similarity(name):
    model = MODELS[name]()
    n = model.n
    rng = np.random.default_rng(7)
    P = np.linalg.qr(rng.standard_normal((n, n)))[0]
    G = rng.standard_normal((n, n)) + 2.0 * np.eye(n)  # condition number 52 on sys4
    Gi = np.linalg.inv(G)
    images = (
        LinearSdeModel(A=P @ model.A @ P.T, B=P @ model.B, M=P @ model.M @ P.T, T=model.T),
        LinearSdeModel(A=G @ model.A @ Gi, B=G @ model.B, M=Gi.T @ model.M @ Gi, T=model.T),
    )
    grids = [grid_from_density(uniform_density(model.T), N) for N in (1000, 1024)]
    grids.append(random_grid(np.random.default_rng(13), 200, T=model.T))
    tol = MARGIN * SIMILARITY_GAP * EPS
    for grid in grids:
        rep = error_report(model, grid)
        for image in images:
            got = error_report(image, grid)
            assert got.terminal == pytest.approx(rep.terminal, rel=tol, abs=0)
            assert got.integral == pytest.approx(rep.integral, rel=tol, abs=0)


@pytest.mark.parametrize("name", MODELS)
def test_refinement_lowers_the_terminal_error(name):
    # 300 random nested pairs of up to 30 coarse interior points and up to 9
    # inserted; the smallest drop measured was 2.2e-5 relative (sys4), far
    # above rounding, so the inequality is checked strictly
    model = MODELS[name]()
    rng = np.random.default_rng(17)
    for _ in range(300):
        k, j = rng.integers(1, 30), rng.integers(1, 10)
        pts = np.sort(rng.random(k + j)) * model.T
        keep = np.sort(rng.choice(k + j, size=k, replace=False))
        coarse = TimeGrid(np.concatenate(([0.0], pts[keep], [model.T])))
        fine = TimeGrid(np.concatenate(([0.0], pts, [model.T])))
        assert error_report(model, fine).terminal < error_report(model, coarse).terminal


@pytest.mark.parametrize("pair", BLOCK_PAIRS)
def test_block_additivity(pair):
    A1, A2 = BLOCK_PAIRS[pair]()
    whole, first, second = unit_model(block(A1, A2)), unit_model(A1), unit_model(A2)
    curves = [weight_curve(m)[1:3] for m in (whole, first, second)]
    for w, a, b in zip(*curves):  # F, then S: the whole model's is the sum of its blocks'
        assert np.max(np.abs(w - (a + b))) <= MARGIN * BLOCK_CURVE_GAP * EPS * w.max()
    for grid in (TimeGrid(np.linspace(0.0, 1.0, 65)), random_grid(np.random.default_rng(11), 40)):
        rep, r1, r2 = (error_report(m, grid) for m in (whole, first, second))
        for got, a, b in ((rep.terminal, r1.terminal, r2.terminal), (rep.integral, r1.integral, r2.integral)):
            assert got == pytest.approx(a + b, rel=MARGIN * BLOCK_REPORT_GAP * EPS, abs=0)
