"""Exact path sampling and the mean-square error recursion.

Over a step of length dt the linear SDE has the exact transition
X' = exp(dt A) X + Z with Z jointly Gaussian with the driving increment
dW: E[Z | dW] = E(dt A) B dW and cov(Z | dW) = K_dt dt^3.  Conditioning a
simulated path on its own increments therefore leaves a Gaussian
conditional law whose mean follows the Kalman recursion

    mu' = exp(dt A) mu + E(dt A) B dW,
    Sigma' = exp(dt A) Sigma exp(dt A)^T + K_dt dt^3,

with Sigma independent of the draws.  The terminal and integral
mean-square errors of the best increment-measurable reconstruction are
read off Sigma alone (``sigma_path``), which is what the grid optimiser
minimises.  Each call builds its step matrices once per distinct dt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import TimeGrid
from .matfun import _transition, kt_matrix, mat_exp
from .model import LinearSdeModel, frobenius_pairing

__all__ = [
    "WienerIncrements",
    "KalmanState",
    "PathSample",
    "ErrorReport",
    "sample_joint_increment",
    "sample_exact_path",
    "kalman_step",
    "sigma_path",
    "run_filter",
    "closed_form_sigma",
    "euler_maruyama_step",
    "milstein_step_scalar",
    "bridge_moments",
    "sample_bridge_refinement",
    "mc_verify_mse",
    "mc_verify_integral",
]


def _stream(seed: int, index: int) -> np.random.Generator:
    """Counter-based stream addressed by (seed, index).

    Within a stream the Philox counter addresses each variate, so the
    triple (seed, index, position) locates every number drawn anywhere in
    the package independently of scheduling.
    """
    seed = int(seed)
    index = int(index)
    if not (0 <= seed < 2**64 and 0 <= index < 2**64):
        raise ValueError("seed and index must fit in uint64")
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


@dataclass(frozen=True)
class StepMatrices:
    """Transition data for one step length."""

    dt: float
    exp_a: np.ndarray
    phi_b: np.ndarray  # E(dt A) B
    kt3: np.ndarray  # K_dt dt^3
    kt3_sqrt: np.ndarray  # PSD square root, kt3_sqrt @ kt3_sqrt.T = kt3


def _step_matrices(model: LinearSdeModel, dt: float) -> StepMatrices:
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError("dt must be positive")
    exp_a, phi, kt, _ = _transition(model.A, model.D, dt)
    phi_b = phi @ model.B
    kt3 = kt * dt**3
    # PSD square root; eigenvalues clipped at zero against roundoff
    w, V = np.linalg.eigh(kt3)
    kt3_sqrt = V @ np.diag(np.sqrt(np.clip(w, 0.0, None)))
    return StepMatrices(float(dt), exp_a, phi_b, kt3, kt3_sqrt)


def _step_table(model: LinearSdeModel, steps: np.ndarray) -> list[StepMatrices]:
    """One StepMatrices per step, built once per distinct step length."""
    dts, index = np.unique(steps, return_inverse=True)
    distinct = [_step_matrices(model, float(dt)) for dt in dts]
    return [distinct[i] for i in index]


def _sigma_step(sm: StepMatrices, sigma: np.ndarray) -> np.ndarray:
    sigma = sm.exp_a @ sigma @ sm.exp_a.T + sm.kt3
    return 0.5 * (sigma + sigma.T)


@dataclass(frozen=True)
class WienerIncrements:
    """Increments dW_k of the driving Wiener process over a grid."""

    grid: TimeGrid
    increments: np.ndarray  # shape (N, m)

    def __post_init__(self):
        inc = np.asarray(self.increments, dtype=float)
        if inc.ndim != 2 or inc.shape[0] != self.grid.n_steps:
            raise ValueError("increments must have shape (N, m)")
        if not np.all(np.isfinite(inc)):
            raise ValueError("increments must be finite")
        object.__setattr__(self, "increments", inc)

    @classmethod
    def sample(cls, grid: TimeGrid, m: int, rng: np.random.Generator) -> "WienerIncrements":
        dW = np.sqrt(grid.steps)[:, None] * rng.standard_normal((grid.n_steps, int(m)))
        return cls(grid, dW)


@dataclass(frozen=True)
class KalmanState:
    """Conditional mean and covariance after step k (k = -1 is initial)."""

    k: int
    mu: np.ndarray
    sigma: np.ndarray


@dataclass(frozen=True)
class PathSample:
    """Exactly simulated path with the increments that drove it."""

    states: np.ndarray  # shape (N + 1, n)
    increments: WienerIncrements


@dataclass(frozen=True)
class ErrorReport:
    """Terminal and integral mean-square errors with their N^2 rescalings."""

    terminal: float
    integral: float
    n2_terminal: float
    n2_integral: float


def _draw(model: LinearSdeModel, sm: StepMatrices, rng: np.random.Generator):
    dW = math.sqrt(sm.dt) * rng.standard_normal(model.m)
    Z = sm.phi_b @ dW + sm.kt3_sqrt @ rng.standard_normal(model.n)
    return dW, Z


def sample_joint_increment(
    model: LinearSdeModel, dt: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw (dW, Z) for one step: the increment and the exact state update.

    Consumes m normals for dW, then n for the residual orthogonal to dW.
    """
    return _draw(model, _step_matrices(model, dt), rng)


def sample_exact_path(
    model: LinearSdeModel, grid: TimeGrid, x0, rng: np.random.Generator
) -> PathSample:
    """Simulate X on the grid from its exact Gaussian transition."""
    x0 = np.asarray(x0, dtype=float).reshape(model.n)
    N = grid.n_steps
    states = np.empty((N + 1, model.n))
    incs = np.empty((N, model.m))
    states[0] = x0
    x = x0
    for k, sm in enumerate(_step_table(model, grid.steps)):
        dW, Z = _draw(model, sm, rng)
        x = sm.exp_a @ x + Z
        states[k + 1] = x
        incs[k] = dW
    return PathSample(states=states, increments=WienerIncrements(grid, incs))


def kalman_step(
    model: LinearSdeModel, state: KalmanState, dt: float, dW
) -> KalmanState:
    """One conditional-moment update given the increment over the step."""
    sm = _step_matrices(model, dt)
    dW = np.asarray(dW, dtype=float).reshape(model.m)
    mu = sm.exp_a @ state.mu + sm.phi_b @ dW
    return KalmanState(state.k + 1, mu, _sigma_step(sm, state.sigma))


def _sigma_path(model: LinearSdeModel, table: list[StepMatrices]):
    sigmas = np.empty((len(table), model.n, model.n))
    sigma = np.zeros((model.n, model.n))
    integral = 0.0
    for k, sm in enumerate(table):
        sigma = _sigma_step(sm, sigma)
        sigmas[k] = sigma
        integral += frobenius_pairing(model.M, sigma) * sm.dt
    terminal = frobenius_pairing(model.M, sigma)
    n2 = float(len(table)) ** 2
    return sigmas, ErrorReport(terminal, float(integral), n2 * terminal, n2 * float(integral))


def sigma_path(model: LinearSdeModel, grid: TimeGrid) -> tuple[np.ndarray, ErrorReport]:
    """Sigma_k after each step of a grid, and the errors read off them.

    Returns the (N, n, n) stack and the ErrorReport of <M, Sigma_{N-1}> and
    sum_k <M, Sigma_k> dt_k.  Sigma depends on the grid only.
    """
    return _sigma_path(model, _step_table(model, grid.steps))


def run_filter(
    model: LinearSdeModel, grid: TimeGrid, x0, increments: WienerIncrements
) -> tuple[list[KalmanState], ErrorReport]:
    """Run the conditional-moment recursion along a grid.

    Returns the trajectory of states after each step together with the
    error report of ``sigma_path``, which the increments do not affect.
    """
    if not np.array_equal(increments.grid.points, grid.points):
        raise ValueError("increments were sampled on a different grid")
    if increments.increments.shape[1] != model.m:
        raise ValueError("increment dimension does not match the model")
    mu = np.asarray(x0, dtype=float).reshape(model.n)
    table = _step_table(model, grid.steps)
    sigmas, report = _sigma_path(model, table)
    trajectory = []
    for k, sm in enumerate(table):
        mu = sm.exp_a @ mu + sm.phi_b @ increments.increments[k]
        trajectory.append(KalmanState(k, mu, sigmas[k]))
    return trajectory, report


def closed_form_sigma(model: LinearSdeModel, grid: TimeGrid, k: int) -> np.ndarray:
    """Sigma_k written as an explicit sum, bypassing the recursion.

    Sigma_k = sum_{j<=k} exp(A (t_{k+1} - t_{j+1})) K_{dt_j} dt_j^3
              exp(A^T (t_{k+1} - t_{j+1})).
    """
    k = int(k)
    if not 0 <= k < grid.n_steps:
        raise ValueError("k must index a grid step")
    pts = grid.points
    out = np.zeros((model.n, model.n))
    for j in range(k + 1):
        dtj = float(pts[j + 1] - pts[j])
        gap = float(pts[k + 1] - pts[j + 1])
        Ej = mat_exp(model.A, gap)
        out += Ej @ (kt_matrix(model.A, model.D, dtj) * dtj**3) @ Ej.T
    return 0.5 * (out + out.T)


def euler_maruyama_step(f, g, x, dt: float, dW):
    """Explicit Euler step x + f(x) dt + g(x) dW.

    For scalar models the state may carry a leading batch dimension, in
    which case f, g, and dW are applied elementwise.
    """
    x = np.asarray(x, dtype=float)
    dW = np.asarray(dW, dtype=float)
    if not (np.all(np.isfinite(x)) and np.isfinite(dt) and np.all(np.isfinite(dW))):
        raise ValueError("inputs must be finite")
    gx = np.asarray(g(x), dtype=float)
    if gx.ndim == 2 and dW.ndim == 1:
        diffusion = gx @ dW
    else:
        diffusion = gx * dW
    return x + np.asarray(f(x), dtype=float) * dt + diffusion


def milstein_step_scalar(f, g, g_prime, x, dt: float, dW):
    """Milstein step for scalar noise, strong order 1.

    x + f dt + g dW + (1/2) g g' (dW^2 - dt); batch states broadcast.
    """
    x = np.asarray(x, dtype=float)
    dW = np.asarray(dW, dtype=float)
    if not (np.all(np.isfinite(x)) and np.isfinite(dt) and np.all(np.isfinite(dW))):
        raise ValueError("inputs must be finite")
    gx = np.asarray(g(x), dtype=float)
    return (
        x
        + np.asarray(f(x), dtype=float) * dt
        + gx * dW
        + 0.5 * gx * np.asarray(g_prime(x), dtype=float) * (dW * dW - dt)
    )


def bridge_moments(t0: float, t1: float, s: float, t: float, dW):
    """Conditional bridge moments inside one step given its increment.

    Returns the mean offset E[W_s - W_{t0} | dW] = ((s - t0)/(t1 - t0)) dW
    and the scalar covariance factor
    cov(W_s, W_t | dW) / I = min(s, t) - t0 - (s - t0)(t - t0)/(t1 - t0).
    """
    t0, t1, s, t = float(t0), float(t1), float(s), float(t)
    if not t1 > t0:
        raise ValueError("need t1 > t0")
    if not (t0 <= s <= t1 and t0 <= t <= t1):
        raise ValueError("bridge times must lie inside [t0, t1]")
    dW = np.asarray(dW, dtype=float)
    span = t1 - t0
    mean = ((s - t0) / span) * dW
    cov = min(s, t) - t0 - (s - t0) * (t - t0) / span
    return mean, float(cov)


def _reach(base: float, target: float, tries: int = 16):
    """Increment q with fl(base + q) == target, if one exists nearby."""
    q = target - base
    for _ in range(tries):
        s = base + q
        if s == target:
            return q
        q = math.nextafter(q, math.inf if s < target else -math.inf)
    return None


def _repair(prev: float, acc: float, b: float):
    """Make the last two increments land exactly on b.

    First tries to reach b from the current level acc.  Failing that
    (a rounding tie), nudges the level itself by ulps to a waypoint v
    reachable from prev and from which b is reachable.  Returns
    (new penultimate increment or None, level, last increment or None).
    """
    u = _reach(acc, b)
    if u is not None:
        return None, acc, u
    lo = hi = acc
    for _ in range(64):
        lo = math.nextafter(lo, -math.inf)
        hi = math.nextafter(hi, math.inf)
        for v in (hi, lo):
            q = _reach(prev, v)
            if q is None:
                continue
            u = _reach(v, b)
            if u is not None:
                return q, v, u
    return None, acc, None


def sample_bridge_refinement(
    t0: float, t1: float, dW, r: int, rng: np.random.Generator
) -> np.ndarray:
    """Split one increment into r sub-increments over equal subintervals.

    Samples the Brownian bridge conditioned on the step increment dW and
    returns the (r, m) array of sub-increments.  The sub-increments are
    constructed so that their sequential left-to-right float sum (as in
    np.cumsum) reproduces dW bitwise in every coordinate: interior levels
    are tracked in the accumulator, the last increment is compensated, and
    rounding ties are resolved by a one-ulp waypoint repair of the
    penultimate level or, failing that, by redrawing that level from its
    exact conditional law.  In the rare regime where partial sums dwarf
    |dW| the sum is still exact to one ulp of the final addition.
    """
    t0, t1 = float(t0), float(t1)
    if not t1 > t0:
        raise ValueError("need t1 > t0")
    r = int(r)
    if r < 2:
        raise ValueError("refinement needs r >= 2 subintervals")
    dW = np.atleast_1d(np.asarray(dW, dtype=float))
    if dW.ndim != 1 or not np.all(np.isfinite(dW)):
        raise ValueError("dW must be a finite vector")
    m = dW.shape[0]
    span = t1 - t0
    h = span / r
    inc = np.empty((r, m))
    acc = np.zeros(m)
    prev = np.zeros(m)
    for i in range(1, r):
        rem = span - (i - 1) * h
        mean = acc + (h / rem) * (dW - acc)
        sd = math.sqrt(h * (rem - h) / rem)
        level = mean + sd * rng.standard_normal(m)
        inc[i - 1] = level - acc
        prev = acc.copy()
        acc = acc + inc[i - 1]
    inc[r - 1] = dW - acc
    final = acc + inc[r - 1]
    rem = span - (r - 2) * h
    sd_tail = math.sqrt(h * (rem - h) / rem)
    for j in np.nonzero(final != dW)[0]:
        p, b = float(prev[j]), float(dW[j])
        a = float(acc[j])
        for _ in range(16):
            q, v, u = _repair(p, a, b)
            if u is not None:
                if q is not None:
                    inc[r - 2, j] = q
                acc[j] = v
                inc[r - 1, j] = u
                break
            # tie conspiracy: redraw the penultimate level; the retry
            # condition depends only on sub-ulp alignment, not magnitude
            mean = p + (h / rem) * (b - p)
            level = mean + sd_tail * float(rng.standard_normal())
            inc[r - 2, j] = level - p
            a = p + inc[r - 2, j]
            acc[j] = a
            inc[r - 1, j] = b - a
        else:
            inc[r - 1, j] = b - a
    return inc


def _simulate_errors(
    model: LinearSdeModel, table: list[StepMatrices], x0, paths: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised exact simulation of the squared reconstruction errors.

    Step k draws its (paths, m) increment block and (paths, n) residual
    block from the counter-based stream addressed by (seed, k); the path
    index addresses the row inside each block.  Returns the per-path
    terminal and integral squared errors.
    """
    x0 = np.asarray(x0, dtype=float).reshape(model.n)
    X = np.tile(x0, (paths, 1))
    mu = X.copy()
    w2_int = np.zeros(paths)
    w2 = np.zeros(paths)
    for k, sm in enumerate(table):
        g = _stream(seed, k)
        dW = math.sqrt(sm.dt) * g.standard_normal((paths, model.m))
        xi = g.standard_normal((paths, model.n))
        drive = dW @ sm.phi_b.T
        X = X @ sm.exp_a.T + drive + xi @ sm.kt3_sqrt.T
        mu = mu @ sm.exp_a.T + drive
        err = X - mu
        w2 = np.einsum("pi,ij,pj->p", err, model.M, err)
        w2_int += w2 * sm.dt
    return w2, w2_int


def _mc_verify(model: LinearSdeModel, grid: TimeGrid, x0, paths: int, rng, integral: bool):
    paths = int(paths)
    if paths < 100:
        raise ValueError("need at least 100 paths for a meaningful check")
    seed = int(rng.integers(2**63)) if isinstance(rng, np.random.Generator) else int(rng)
    table = _step_table(model, grid.steps)
    w2, w2_int = _simulate_errors(model, table, x0, paths, seed)
    _, report = _sigma_path(model, table)
    w, predicted = (w2_int, report.integral) if integral else (w2, report.terminal)
    return float(w.mean()), predicted, float(w.std(ddof=1) / math.sqrt(paths))


def mc_verify_mse(
    model: LinearSdeModel, grid: TimeGrid, x0, paths: int, rng
) -> tuple[float, float, float]:
    """Monte Carlo check of the terminal error against <M, Sigma_{N-1}>.

    ``rng`` is an integer seed (preferred) or a Generator from which one is
    drawn.  Returns (sample mean square error, predicted value, standard
    error of the sample mean).
    """
    return _mc_verify(model, grid, x0, paths, rng, integral=False)


def mc_verify_integral(
    model: LinearSdeModel, grid: TimeGrid, x0, paths: int, rng
) -> tuple[float, float, float]:
    """Monte Carlo check of the integral error functional.

    Accumulates ||X_{t_{k+1}} - mu_k||_M^2 dt_k per path and compares the
    mean to sum_k <M, Sigma_k> dt_k exactly as mc_verify_mse does for the
    terminal error.
    """
    return _mc_verify(model, grid, x0, paths, rng, integral=True)
