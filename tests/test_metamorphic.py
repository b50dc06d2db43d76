"""Metamorphic relations of the weight curves and the limit functionals.

Each relation holds on every model, so it needs no oracle:

* time rescaling: the model (cA, sqrt(c) B, M, T/c) has, on the mesh
  mapped to t / c, the terminal weight c^3 F and the integral weight c^2 S,
  and the same min_phi_value;
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

from sde_gridopt import LinearSdeModel, TimeGrid, error_report, min_phi_value, weight_curve
from sde_gridopt.cli import parse_config

from helpers import random_grid, random_regular_model

EPS = np.finfo(float).eps
MARGIN = 4.0
RESCALE_GAP = 2.2  # F 1.5, S 2.2 of the curve's maximum, min_phi 2.0 relative
BLOCK_CURVE_GAP = 8.4  # of the curve's maximum, S of the non-normal pair
BLOCK_REPORT_GAP = 3.1  # relative, I_N of the non-normal pair on the random grid

WORKLOADS = Path(__file__).parents[1] / "perfbench" / "workloads"


def sys4():
    return parse_config(str(WORKLOADS / "sys4-uniform.cfg")).model


MODELS = {
    "sys4": sys4,
    "reg3": lambda: random_regular_model(np.random.default_rng(3), n=3),
}


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
    scaled = LinearSdeModel(A=c * model.A, B=math.sqrt(c) * model.B, M=model.M, T=model.T / c)
    tol = MARGIN * RESCALE_GAP * EPS
    for kind, power in (("terminal", 3), ("integral", 2)):
        curve, mapped = weight_curve(model, kind), weight_curve(scaled, kind)
        assert np.array_equal(mapped.mesh, curve.mesh / c)
        want = c**power * curve.values
        assert np.max(np.abs(mapped.values - want)) <= tol * want.max()
    assert min_phi_value(scaled) == pytest.approx(min_phi_value(model), rel=tol, abs=0)


@pytest.mark.parametrize("pair", BLOCK_PAIRS)
def test_block_additivity(pair):
    A1, A2 = BLOCK_PAIRS[pair]()
    whole, first, second = unit_model(block(A1, A2)), unit_model(A1), unit_model(A2)
    for kind in ("terminal", "integral"):
        w = weight_curve(whole, kind).values
        parts = weight_curve(first, kind).values + weight_curve(second, kind).values
        assert np.max(np.abs(w - parts)) <= MARGIN * BLOCK_CURVE_GAP * EPS * w.max()
    for grid in (TimeGrid(np.linspace(0.0, 1.0, 65)), random_grid(np.random.default_rng(11), 40)):
        rep, r1, r2 = (error_report(m, grid) for m in (whole, first, second))
        for got, a, b in ((rep.terminal, r1.terminal, r2.terminal), (rep.integral, r1.integral, r2.integral)):
            assert got == pytest.approx(a + b, rel=MARGIN * BLOCK_REPORT_GAP * EPS, abs=0)
