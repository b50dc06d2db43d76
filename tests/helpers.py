"""Shared generators for randomised property tests, and test-only code.

The oracles and reference schemes below (long-double K_t and Sigma, the
closed-form Sigma_k sum, the PSD root, the one-step joint increment, the
per-row weights F_t and S_t, the Lyapunov ODE route to the limit
covariance, Euler-Maruyama and Milstein steps, Brownian bridge moments and
refinement, the empirical grid density, the cumulative of a grid density,
the report of a density against its functional's floor and the
Simpson-trapezoid gap of a functional, the cell-by-cell CSV text) are what
the tests compare the package against; no route of the package calls them.
"""

import math
from dataclasses import dataclass

import numpy as np

from sde_gridopt import (
    GridDensity,
    LinearSdeModel,
    TimeGrid,
    kt_matrix,
    mat_exp,
    mho,
    regularity_check,
    weight_curve,
)
from sde_gridopt.asymptotics import _integrand, _min_value, _simpson, _weights
from sde_gridopt.grid import _index, _no_nan
from sde_gridopt.matfun import _gramian, _transition
from sde_gridopt.solver import _MC_BLOCK, _MC_STEPS, _step_table, _stream


def random_model(rng, n=2, m=None, T=1.0, stable_shift=0.5):
    """Random model with moderate norms and a stable drift."""
    m = n if m is None else m
    A = rng.standard_normal((n, n))
    A = A / max(np.linalg.norm(A), 1e-12)
    A = A - stable_shift * np.eye(n)
    B = rng.standard_normal((n, m))
    H = rng.standard_normal((n, n))
    M = H @ H.T + 0.1 * np.eye(n)
    return LinearSdeModel(A=A, B=B, M=M, T=T)


def random_regular_model(rng, n=2, m=None, T=1.0):
    """Random model resampled until the regularity determinant is positive."""
    while True:
        model = random_model(rng, n=n, m=m, T=T)
        if regularity_check(model).satisfied:
            return model


def random_grid(rng, N, T=1.0):
    """Random strictly increasing grid with N steps on [0, T]."""
    while True:
        interior = np.sort(rng.random(N - 1)) * T
        pts = np.concatenate(([0.0], interior, [T]))
        if np.all(np.diff(pts) > 1e-6 * T / N):
            return TimeGrid(pts)


def _sym(X):
    return 0.5 * (X + X.T)


def kt_series(A, D, t, smax=80):
    """Total-degree series for K_t, a test oracle valid for small t ||A||.

    K_t = sum_{j,k >= 1} jk t^{j+k-2} / ((j+1)! (k+1)! (j+k+1)) A^j D A^T^k,
    accumulated by total degree with a 1e-16 relative truncation.
    """
    n = A.shape[0]
    Apow = [np.eye(n), A.copy()]
    K = np.zeros((n, n))
    for s in range(2, smax + 1):
        while len(Apow) <= s - 1:
            Apow.append(A @ Apow[-1])
        C = np.zeros((n, n))
        for j in range(1, s):
            k = s - j
            c = j * k / (math.factorial(j + 1) * math.factorial(k + 1) * (s + 1))
            C += c * (Apow[j] @ D @ Apow[k].T)
        term = t ** (s - 2) * C
        K += term
        if np.linalg.norm(term) <= 1e-16 * max(np.linalg.norm(K), np.finfo(float).tiny):
            break
    return _sym(K)


def expm_ld(H):
    """Scaling-and-squaring exponential in extended precision.

    Plain 30-term Taylor evaluation after scaling the norm below 0.25.
    """
    X = H.astype(np.longdouble)
    nrm = float(np.sqrt(float((X * X).sum())))
    s = 0
    if nrm > 0.25:
        s = int(math.ceil(math.log2(nrm / 0.25)))
    X = X / np.longdouble(2.0) ** s
    n = H.shape[0]
    E = np.eye(n, dtype=np.longdouble)
    term = np.eye(n, dtype=np.longdouble)
    for k in range(1, 31):
        term = term @ X / np.longdouble(k)
        E = E + term
    for _ in range(s):
        E = E @ E
    return E


def kt_direct(A, D, t):
    """Direct formula K_t = t^{-2} (G_t / t - E(tA) D E(tA)^T), a test oracle.

    The subtraction loses roughly t^2 ||A||^2 digits, so the whole pipeline
    runs in longdouble.  The Van Loan blocks of exp(uH) grow like
    exp(u ||A||) before their product cancels, so G is taken at
    u = t / 2^r with u ||A||_F <= 1 and carried to t by the semigroup
    identity G_{2u} = G_u + exp(uA) G_u exp(uA)^T.
    """
    n = A.shape[0]
    Al = A.astype(np.longdouble)
    Dl = D.astype(np.longdouble)
    tl = np.longdouble(t)
    r = max(0, math.ceil(math.log2(t * np.linalg.norm(A))))

    H = np.zeros((2 * n, 2 * n), dtype=np.longdouble)
    H[:n, :n] = Al
    H[:n, n:] = Dl
    H[n:, n:] = -Al.T
    F = expm_ld(tl / np.longdouble(2.0) ** r * H)
    G = F[:n, n:] @ F[:n, :n].T
    e = F[:n, :n]
    for _ in range(r):
        G = G + e @ G @ e.T
        e = e @ e

    P = np.zeros((2 * n, 2 * n), dtype=np.longdouble)
    P[:n, :n] = Al
    P[:n, n:] = np.eye(n, dtype=np.longdouble)
    E = expm_ld(tl * P)[:n, n:] / tl

    K = (G / tl - E @ Dl @ E.T) / tl**2
    return _sym(K.astype(float))


def kt_oracle(A, D, t):
    """K_t by the series below t ||A||_F = 0.1 and the long-double direct formula above."""
    if t * np.linalg.norm(A) < 0.1:
        return kt_series(A, D, t)
    return kt_direct(A, D, t)


def sigma_errors_ld(model, table):
    """(T_N, I_N) by the sequential Sigma recursion in long double, a test oracle.

    Runs Sigma' = E Sigma E^T + Q step by step on the step table's own
    float64 (E, Q), so it measures the rounding of the recursion and not
    that of the step matrices.
    """
    ld = np.longdouble
    E = list(table.exp_a.astype(ld))
    Q = list(table.kt3.astype(ld))
    dts = list(table.dts.astype(ld))
    M = model.M.astype(ld)
    S = np.zeros_like(M)
    integral = ld(0.0)
    for i in table.index:
        S = E[i] @ S @ E[i].T + Q[i]
        integral += np.sum(M * S) * dts[i]
    return float(np.sum(M * S)), float(integral)


def psd_root(S):
    """The PSD square root R of one symmetric matrix, R @ R.T = S, by its eigenpairs.

    Eigenvalues below zero, which only roundoff makes, are clipped to zero.
    """
    w, V = np.linalg.eigh(S)
    return V * np.sqrt(np.clip(w, 0.0, None))


def simulate_errors_loop(model, table, paths, seed, integral):
    """Per-path squared errors by a plain loop over paths, a test oracle.

    Reads the draws the Monte Carlo kernel reads: block b of _MC_BLOCK
    paths draws from the stream (seed, 2, b), column j for path j, and each
    path runs from err = 0 on its own, one matrix-vector product at a time.
    The integral takes one (n, block) array per step and runs
    err' = exp_a err + R xi, with R the ``psd_root`` of kt3.  The terminal
    error takes one (n, block) array per group of _MC_STEPS steps (the last
    group may be short) and runs err' = E err + psd_root(Q) eta, with the
    group's (E, Q) composed step by step from (I, 0) as
    (exp_a E, exp_a Q exp_a^T + kt3).
    """
    n, S = model.n, _MC_STEPS
    if integral:
        roots = [psd_root(kt3) for kt3 in table.kt3]
        maps = [(table.exp_a[i], roots[i], table.dts[i]) for i in table.index]
    else:
        maps = []
        for lo in range(0, table.index.size, S):
            E, Q = np.eye(n), np.zeros((n, n))
            for i in table.index[lo : lo + S]:
                E, Q = table.exp_a[i] @ E, table.exp_a[i] @ Q @ table.exp_a[i].T + table.kt3[i]
            maps.append((E, psd_root(Q), 0.0))
    out = np.empty(paths)
    for lo in range(0, paths, _MC_BLOCK):
        g = _stream(seed, 2, lo // _MC_BLOCK)
        size = min(_MC_BLOCK, paths - lo)
        xi = [g.standard_normal((n, size)) for _ in maps]
        for j in range(size):
            err = np.zeros(n)
            acc = 0.0
            for (E, R, dt), x in zip(maps, xi):
                err = E @ err + R @ x[:, j]
                acc += float(err @ model.M @ err) * dt
            out[lo + j] = acc if integral else float(err @ model.M @ err)
    return out


def closed_form_sigma(model: LinearSdeModel, grid: TimeGrid, k: int) -> np.ndarray:
    """Sigma_k written as an explicit sum, bypassing the recursion.

    Sigma_k = sum_{j<=k} exp(A (t_{k+1} - t_{j+1})) K_{dt_j} dt_j^3
              exp(A^T (t_{k+1} - t_{j+1})).
    """
    if grid.horizon != model.T:
        raise ValueError("grid horizon does not match the model")
    k = _index(k)
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


def sample_joint_increment(
    model: LinearSdeModel, dt: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw (dW, Z) for one step: the increment and the exact state update.

    Consumes m normals for dW, then n for the residual orthogonal to dW,
    whose covariance K_dt dt^3 enters through its ``psd_root``.
    """
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError("dt must be positive")
    table = _step_table(model, [dt])
    dW = math.sqrt(table.dts[0]) * rng.standard_normal(model.m)
    Z = table.phi_b[0] @ dW + psd_root(table.kt3[0]) @ rng.standard_normal(model.n)
    return dW, Z


def weight_rows(model: LinearSdeModel, t) -> tuple[np.ndarray, np.ndarray]:
    """F_t and S_t at each t of a 1-D array in [0, T], one kernel row each.

    The kernel's row i depends on T - t[i] alone, so this is the per-point
    route at every t in one call.  Its rows go through the library's step
    from (exp, Q) to (F, S), and it is a second route to the weight curves,
    whose rows come from the semigroup.
    """
    t = np.asarray(t, dtype=float)
    if not np.all((0.0 <= t) & (t <= model.T)):
        raise ValueError("t must lie in [0, T]")
    e, E, K = _transition(model.A.T, model.M, model.T - t)
    return _weights(model, e, _gramian(E, K, model.M, model.T - t))


def weight_F(model: LinearSdeModel, t: float) -> float:
    """Terminal weight F_t = <mho, R_{T-t}> = (1/12)||sqrt(M) e^{(T-t)A} A B||^2, by ``weight_rows``."""
    return float(weight_rows(model, [t])[0][0])


def weight_S(model: LinearSdeModel, t: float) -> float:
    """Integral weight S_t = <mho, Q_{T-t}>, by ``weight_rows``; equals the tail integral of F."""
    return float(weight_rows(model, [t])[1][0])


@dataclass(frozen=True)
class AsymptoticReport:
    """A functional value against its theoretical floor.

    ``lower_bound`` is the T^3 min-weight bound; ``ratio`` is
    value / minimum, the price of the chosen density.
    """

    kind: str
    value: float
    minimum: float
    lower_bound: float
    ratio: float


def asymptotic_report(model: LinearSdeModel, psi: GridDensity, kind: str) -> AsymptoticReport:
    """Evaluate a density against the theoretical floor of its functional."""
    mesh, integrand = _integrand(model, psi, kind)
    value = float(_simpson(integrand, mesh))
    minimum = _min_value(model, kind)
    w = weight_curve(model, kind).values
    bound = model.T**3 * float(w.min())
    ratio = value / minimum if minimum > 0 else math.inf if value > 0 else 1.0
    return AsymptoticReport(kind=kind, value=value, minimum=minimum, lower_bound=bound, ratio=ratio)


def functional_quadrature_bound(model: LinearSdeModel, psi: GridDensity, kind: str) -> float:
    """Quadrature error estimate for the functional value.

    The Simpson-trapezoid gap on the evaluation mesh.  It is an estimate,
    not a bound: on the terminal-optimal density of the OU model it is half
    the actual error (the first known gap of the asymptotics docstring).
    The density is judged by the same integrand rule as the functional.
    """
    mesh, integrand = _integrand(model, psi, kind)
    return float(abs(_simpson(integrand, mesh) - np.trapezoid(integrand, x=mesh)))


def limit_sigma_ode(model: LinearSdeModel, psi, tau: float) -> np.ndarray:
    """Limit covariance Sigma(tau) by its Lyapunov ODE, an oracle for limit_sigma.

    Integrates Sigma' = phi'(v) (A Sigma + Sigma A^T) + phi'(v)^3 mho from
    Sigma(0) = 0 with classical RK4 on 4096 steps, phi' = 1 / psi(phi) at
    the half-step nodes.  It shares only the density's profile phi with
    the quadrature route.
    """
    tau = float(tau)
    steps = 4096
    u = np.linspace(0.0, tau, 2 * steps + 1)
    dp = 1.0 / psi.psi_at(psi.profile(u))
    hv = tau / steps
    A = model.A
    Um = mho(A, model.D)
    S = np.zeros((model.n, model.n))

    def rhs(p, Sig):
        return p * (A @ Sig + Sig @ A.T) + p**3 * Um

    for i in range(steps):
        p0, pm, p1 = dp[2 * i], dp[2 * i + 1], dp[2 * i + 2]
        k1 = rhs(p0, S)
        k2 = rhs(pm, S + 0.5 * hv * k1)
        k3 = rhs(pm, S + 0.5 * hv * k2)
        k4 = rhs(p1, S + hv * k3)
        S = S + (hv / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        S = 0.5 * (S + S.T)
    return S


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
    r = _index(r)
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




def empirical_density(grid: TimeGrid, window) -> float:
    """Fraction of grid points per unit time in a window.

    Returns #{k : t_k in [a, b]} / N for window = (a, b).
    """
    a, b = float(window[0]), float(window[1])
    if not (np.isfinite(a) and np.isfinite(b)) or a > b:
        raise ValueError("window must be an ordered pair (a, b)")
    if a < 0 or b > grid.horizon:
        raise ValueError("window must lie inside [0, T]")
    inside = np.count_nonzero((grid.points >= a) & (grid.points <= b))
    return inside / grid.n_steps


def cum_at(psi: GridDensity, t):
    """Cumulative Psi(t), exact for the piecewise-linear density; NaN is refused.

    The forward map that ``GridDensity.profile`` inverts, panel by panel
    from the nodal ``cumulative``.
    """
    t = _no_nan(t, "t")
    scalar = t.ndim == 0
    tt = np.clip(np.atleast_1d(t), 0.0, psi.T)
    panels = psi.values.size - 1
    h = psi.T / panels
    i = np.clip((tt / h).astype(int), 0, panels - 1)
    s = tt - psi.mesh[i]
    a = psi.values[i]
    b = (psi.values[i + 1] - psi.values[i]) / h
    out = psi.cumulative[i] + a * s + 0.5 * b * s * s
    out = np.minimum(out, 1.0)
    return float(out[0]) if scalar else out


def csv_text_oracle(header, rows) -> str:
    """The CSV text the command line writes, built cell by cell.

    Each number goes through its own ``"%.17g" % v`` and each string is
    written as it is; lines end in CRLF.  This is the per-cell writer the
    one-format array path replaced.
    """
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(v if isinstance(v, str) else "%.17g" % v for v in row))
    return "".join(line + "\r\n" for line in lines)
