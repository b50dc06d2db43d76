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
read off Sigma alone (``error_report``; ``sigma_path`` also returns every
Sigma_k), which is what the grid optimiser minimises.  Each route walks
its grid in chunks of 1,024 steps, and each chunk gets a step table:
stacked arrays with one row per distinct dt of the chunk, from one call of
the batched matfun kernel, and a row index per step.  The mean and a
sampled path share one recursion x' = exp(dt A) x + u, whose drive u
(E(dt A) B dW, plus (K_dt dt^3)^{1/2} xi on a path) is written a chunk at
a time by batched products.  The covariance recursion is a chunked prefix
scan: log2 of the chunk length batched sweeps compose a chunk's maps, and
one carry, two products over the whole chunk, applies them to the last
Sigma before it.  So a route holds one chunk of step matrices, and one of
Sigma unless it fills the whole stack.  A chunk whose steps repeat the
chunk before (every chunk of a uniform grid with a dyadic step) reuses its
table and composed maps.  Each route takes its grid once (``run_filter``
from the increments) and refuses a grid that does not span [0, T].

Every draw comes from an SFC64 stream keyed (seed, *key), from an integer
seed (``_stream``).  Only the samplers take square roots (``_psd_root``).
The Monte Carlo verifiers sample the error X - mu alone: the drive and x0
enter X and mu alike and cancel, leaving err' = exp(dt A) err +
(K_dt dt^3)^{1/2} xi from err = 0, by maps built from each chunk table on
its way to the scan, the terminal one n normals per four steps through one
root of their composed noise: a test of the sampling, the roots and the
scan on one kernel pass, not of exp(dt A), E(dt A) B or K_dt on an
independent route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import TimeGrid, _index
from .matfun import _Tc, _right, _series, _transition
from .model import LinearSdeModel

__all__ = [
    "WienerIncrements",
    "ErrorReport",
    "sample_exact_path",
    "kalman_step",
    "sigma_path",
    "error_report",
    "run_filter",
    "mc_verify_mse",
    "mc_verify_integral",
]


def _stream(seed: int, *key: int) -> np.random.Generator:
    """SFC64 stream keyed by (seed, *key) through a SeedSequence.

    The seed is the sequence's entropy and the key its spawn key, so the
    pair (key, position) locates every number drawn, independently of
    scheduling.  The increments read (seed, 0), a path's residual normals
    (seed, 1), and block b of the Monte Carlo verifiers (seed, 2, b), so no
    verifier block shares draws with a sampler on the same seed and the
    verifiers' bytes are the same on any number of cores.
    """
    seed = int(seed)
    key = tuple(int(k) for k in key)
    if not all(0 <= v < 2**64 for v in (seed, *key)):
        raise ValueError("seed and key must fit in uint64")
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=key)))


@dataclass(frozen=True)
class StepTable:
    """Transition data of a step sequence: step k has length dts[index[k]] and
    uses row index[k] of each (L, ...) stack, one row per distinct length."""

    dts: np.ndarray  # (L,) distinct step lengths, ascending
    index: np.ndarray  # (N,) row of each step
    exp_a: np.ndarray  # (L, n, n)
    phi_b: np.ndarray  # (L, n, m), E(dt A) B
    kt3: np.ndarray  # (L, n, n), K_dt dt^3


def _step_table(model: LinearSdeModel, steps, series=None) -> StepTable:
    """Step matrices of every distinct step length, from one kernel call.

    The steps must be positive and finite, as the steps of a TimeGrid are;
    ``series`` is the kernel's per-model work if the caller built it.  Each
    step is one of the distinct dts, so searchsorted finds its row exactly,
    in a quarter of the transient memory of np.unique's inverse and without
    importing numpy.ma (about 15 ms at a cold start on numpy 2.4).
    """
    dts = np.sort(np.asarray(steps, dtype=float))  # an integer dts**3 would overflow
    dts = dts[np.append(True, dts[1:] != dts[:-1])]  # frees the sorted copy before the kernel
    index = np.searchsorted(dts, steps)
    exp_a, phi, kt = _transition(model.A, model.D, dts, series)
    return StepTable(dts, index, exp_a, _right(phi, model.B), kt * (dts**3)[:, None, None])


def _psd_root(kt3: np.ndarray) -> np.ndarray:
    """PSD square roots R @ R.T = kt3; eigenvalues clipped at zero against roundoff."""
    w, V = np.linalg.eigh(kt3)
    return V * np.sqrt(np.clip(w, 0.0, None))[:, None, :]


def _vector(v, size: int, name: str) -> np.ndarray:
    """v as a vector of size floats; a wrong size or a NaN or inf entry is refused."""
    v = np.asarray(v, dtype=float)
    if v.size != size or not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be {size} finite values, shape ({size},)")
    return v.reshape(size)


@dataclass(frozen=True)
class WienerIncrements:
    """Increments dW_k of the driving Wiener process over a grid."""

    grid: TimeGrid
    increments: np.ndarray  # shape (N, m)

    def __post_init__(self):
        inc = np.array(self.increments, dtype=float, copy=True)
        if inc.ndim != 2 or inc.shape[0] != self.grid.n_steps:
            raise ValueError("increments must have shape (N, m)")
        if not np.all(np.isfinite(inc)):
            raise ValueError("increments must be finite")
        inc.flags.writeable = False  # a validated copy, as TimeGrid keeps its points
        object.__setattr__(self, "increments", inc)

    @classmethod
    def sample(cls, grid: TimeGrid, m: int, seed: int) -> "WienerIncrements":
        """N x m increments from the integer seed's stream (seed, 0), row k for step k."""
        xi = _stream(_index(seed), 0).standard_normal((grid.n_steps, _index(m)))
        return cls(grid, np.sqrt(grid.steps)[:, None] * xi)


@dataclass(frozen=True)
class ErrorReport:
    """Terminal and integral mean-square errors with their N^2 rescalings."""

    terminal: float
    integral: float
    n2_terminal: float
    n2_integral: float


_SCAN_CHUNK = 1024  # steps per chunk of the scan and of its step tables; bounds their memory


def _chunks(model: LinearSdeModel, grid: TimeGrid):
    """(slice, StepTable) per _SCAN_CHUNK steps of a grid that spans [0, T], checked at the call.

    Each table is one kernel call over the chunk's distinct steps, with the
    kernel's per-model work built once.  A chunk whose steps equal the
    chunk before bit for bit gets the same table object back.
    """
    if grid.horizon != model.T:
        raise ValueError("grid horizon does not match the model")
    steps, series = grid.steps, _series(model.A, model.D)

    def tables():
        prev = table = None
        for lo in range(0, steps.size, _SCAN_CHUNK):
            chunk = steps[lo : lo + _SCAN_CHUNK]
            if prev is None or not np.array_equal(chunk, prev):
                table, prev = _step_table(model, chunk, series), chunk
            yield slice(lo, lo + chunk.size), table

    return tables()


def _affine_path(path: np.ndarray, chunks, dW: np.ndarray, xi=None):
    """Pass on each ``_chunks`` pair once its states are in path, from path[0].

    path[k + 1] = exp_a[i_k] path[k] + u_k, with u_k = phi_b[i_k] dW_k plus,
    given normals xi, root(kt3)[i_k] xi_k.  u is written a chunk at a time by
    batched products, then x_{k+1} added in place: a step-by-step loop's bits.
    """
    for chunk, table in chunks:
        rows, u = table.index, path[1:][chunk]
        np.matmul(table.phi_b[rows], dW[chunk, :, None], out=u[..., None])
        if xi is not None:
            u += (_psd_root(table.kt3)[rows] @ xi[chunk, :, None])[..., 0]
        x, exp_a = path[chunk.start], list(table.exp_a)
        for i, y in zip(rows.tolist(), u):
            y += exp_a[i] @ x
            x = y
        yield chunk, table


def sample_exact_path(
    model: LinearSdeModel, grid: TimeGrid, x0, seed: int
) -> tuple[np.ndarray, WienerIncrements]:
    """Simulate X on the grid from its exact Gaussian transition.

    Returns the (N + 1, n) states, row 0 equal to x0, and the increments
    that drove them, ``WienerIncrements.sample(grid, m, seed)``.  The part
    of each state update orthogonal to dW takes n normals per step from the
    stream (seed, 1), drawn as one (N, n) array, row k for step k.
    """
    path = np.empty((grid.n_steps + 1, model.n))
    path[0] = _vector(x0, model.n, "x0")
    inc = WienerIncrements.sample(grid, model.m, seed)
    chunks = _chunks(model, grid)
    xi = _stream(seed, 1).standard_normal((grid.n_steps, model.n))
    for _ in _affine_path(path, chunks, inc.increments, xi):
        pass
    return path, inc


def kalman_step(model: LinearSdeModel, mu, sigma, dt: float, dW) -> tuple[np.ndarray, np.ndarray]:
    """One conditional-moment update given the increment over the step.

    Returns the mean and covariance after it.  The mean and the increment are
    refused as ``x0`` is, and the covariance unless it is a finite (n, n) matrix.
    """
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError("dt must be positive")
    table = _step_table(model, [dt])
    n = model.n
    mu = _vector(mu, n, "mu")
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (n, n) or not np.all(np.isfinite(sigma)):
        raise ValueError(f"sigma must be a finite ({n}, {n}) matrix")
    dW = _vector(dW, model.m, "dW")
    E = table.exp_a[0]
    mu = E @ mu + table.phi_b[0] @ dW
    sigma = E @ sigma @ E.T + table.kt3[0]
    return mu, 0.5 * (sigma + sigma.T)


def _compose(E: np.ndarray, Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Prefix compositions of a chunk's step maps, in place.

    Hillis-Steele doubling turns row k into the composition of rows 0..k
    in log2(len(E)) batched sweeps, each against contiguous transposes
    (``_Tc``).
    """
    d = 1
    while d < len(E):
        Ed = E[d:]
        Q[d:] += Ed @ Q[:-d] @ _Tc(Ed)
        E[d:] = Ed @ E[:-d]
        d *= 2
    return E, Q


def _sigma_path(model: LinearSdeModel, N: int, chunks, sigmas=None) -> ErrorReport:
    """The error report of N steps, given as ``_chunks`` pairs, by a chunked prefix scan.

    Step k maps Sigma to E_k Sigma E_k^T + Q_k, and these affine maps
    compose associatively: (E2, Q2) after (E1, Q1) is
    (E2 E1, E2 Q1 E2^T + Q2).  ``_compose`` turns a chunk's row k into the
    composition of its steps 0..k, and the chunk's Sigma is the carry, the
    last Sigma before it, mapped as E Sigma E^T + Q: a 2-D product against
    Sigma, a stacked one against E^T (made contiguous once per composed
    chunk), then Q added and the sum symmetrised in place, into the chunk's
    rows of ``sigmas`` if given, an (N, n, n) stack to fill.
    The integral is numpy's pairwise sum of <M, Sigma_k> dt_k, not a BLAS
    dot, whose bits would depend on the BLAS thread count.  A chunk that
    comes with the previous chunk's table object reuses its composed maps
    and E^T, which would come out bitwise the same.  On stiff models a
    composite E can decay below the float range; that underflow is not
    signalled, as what flushes to zero lies far below Q's rounding.
    """
    M = model.M
    weighted = np.empty(N)
    sigma = np.zeros((model.n, model.n))
    prev = None
    for chunk, table in chunks:
        rows = table.index
        with np.errstate(under="ignore"):
            if table is not prev:
                E, Q = _compose(table.exp_a[rows], table.kt3[rows])
                Et = _Tc(E)
            prev = table
            S = _right(E, sigma) @ Et
            S += Q
        out = S if sigmas is None else sigmas[chunk]
        np.add(S, S.mT, out=out)
        out *= 0.5
        np.einsum("kij,ij->k", out, M, out=weighted[chunk])
        weighted[chunk] *= table.dts[rows]
        sigma = out[-1]
    terminal = float(np.sum(M * sigma))
    integral = float(np.sum(weighted))
    n2 = float(N) ** 2
    return ErrorReport(terminal, integral, n2 * terminal, n2 * integral)


def error_report(model: LinearSdeModel, grid: TimeGrid) -> ErrorReport:
    """The ErrorReport of ``sigma_path``, bitwise, without its stack: the scan
    keeps one chunk of Sigma_k and of the step matrices, not all N."""
    return _sigma_path(model, grid.n_steps, _chunks(model, grid))


def sigma_path(model: LinearSdeModel, grid: TimeGrid) -> tuple[np.ndarray, ErrorReport]:
    """Sigma_k after each step of a grid, and the errors read off them.

    Returns the (N, n, n) stack and the ErrorReport of <M, Sigma_{N-1}> and
    sum_k <M, Sigma_k> dt_k.  Sigma depends on the grid only.  A caller
    that reads the report alone takes ``error_report``.
    """
    chunks = _chunks(model, grid)
    sigmas = np.empty((grid.n_steps, model.n, model.n))
    return sigmas, _sigma_path(model, grid.n_steps, chunks, sigmas)


def run_filter(
    model: LinearSdeModel, x0, increments: WienerIncrements
) -> tuple[np.ndarray, ErrorReport]:
    """Run the conditional-moment recursion along the increments' grid.

    Returns the (N + 1, n) conditional means, row 0 equal to x0, and the
    report of ``error_report``, which the increments do not affect; the
    mean and the scan advance together, a chunk at a time.  A caller that
    wants Sigma_k takes ``sigma_path``.
    """
    if increments.increments.shape[1] != model.m:
        raise ValueError("increment dimension does not match the model")
    grid = increments.grid
    path = np.empty((grid.n_steps + 1, model.n))
    path[0] = _vector(x0, model.n, "x0")
    chunks = _affine_path(path, _chunks(model, grid), increments.increments)
    return path, _sigma_path(model, grid.n_steps, chunks)


_MC_BLOCK = 2048  # paths per block: one stream and one worker task each
# steps a block advances per draw and product; a longer chunk grows each
# worker's draw buffer, and at 32 steps, under a caller-set BLAS thread
# count above one, OpenBLAS threads the product inside each worker
_MC_STEPS = 4


def _chunk_maps(table: StepTable, integral: bool) -> tuple[np.ndarray, np.ndarray]:
    """Maps of a table's D groups of S = _MC_STEPS steps from [err; normals] to errors.

    A short last group is padded by steps E = I, kt3 = 0, dt = 0, which leave
    err and the integral as they are; E = exp_a at the step's row.  Map d is
    [E_g | root(Q_g)] of [err; eta], n normals eta, for the terminal error,
    with (E_g, Q_g) composed over group d as (E E_g, E Q_g E^T + kt3) from
    (I, 0).  With ``integral``, block row i of map d is the error after step
    i, [E_i..E_0 | E_i..E_1 R_0 | .. | R_i | 0 ..] of [err; xi_0 .. xi_{S-1}],
    R = root(kt3) at the step's row.  Each is built by one batched product
    per position.  Returns the (D, n, 2 n) or (D, S n, (S + 1) n) maps and
    the (D, S) step lengths.
    """
    S, n = _MC_STEPS, table.exp_a.shape[-1]
    exp_a = np.concatenate((table.exp_a, np.eye(n)[None]))
    rows = np.append(table.index, np.full(-table.index.size % S, table.dts.size)).reshape(-1, S)
    D, steps = len(rows), np.append(table.dts, 0.0)[rows]
    if not integral:
        kt3 = np.concatenate((table.kt3, np.zeros((1, n, n))))
        E, Q = np.eye(n), np.zeros((D, n, n))
        for i in range(S):
            e = exp_a[rows[:, i]]
            E, Q = e @ E, e @ Q @ e.mT + kt3[rows[:, i]]
        return np.concatenate((E, _psd_root(Q)), axis=2), steps
    roots = np.concatenate((_psd_root(table.kt3), np.zeros((1, n, n))))
    maps = np.zeros((D, S, n, (S + 1) * n))
    prev = np.zeros((D, n, (S + 1) * n))
    prev[:, :, :n] = np.eye(n)
    for i in range(S):
        prev = np.matmul(exp_a[rows[:, i]], prev, out=maps[:, i])
        prev[:, :, (i + 1) * n : (i + 2) * n] = roots[rows[:, i]]
    return maps.reshape(D, S * n, (S + 1) * n), steps


def _simulate_errors(
    model: LinearSdeModel, N: int, chunks, paths: int, seed: int, integral: bool, workers=None
) -> tuple[np.ndarray, ErrorReport]:
    """Per-path squared errors, the error sampled from its exact law, and the report of the N steps.

    err = X - mu starts at 0 and follows err' = exp_a err + root(kt3) xi,
    n normals xi per path-step.  As each ``_chunks`` pair passes on to the
    scan (``_sigma_path``, which gives the report), the maps of its table's
    groups of S = _MC_STEPS steps are built (``_chunk_maps``), or repeated
    for a table that repeats the one before.  Paths run in blocks of
    _MC_BLOCK as columns of one reused buffer [err; normals]: per group,
    block b draws one C-order (n, block) array from the stream (seed, 2, b),
    or (S n, block) for the integral, which reads every step's error, and
    takes one product with the map (the integral adds one product and one
    einsum).
    Each block fills its own slice of the output, so the bytes do not
    depend on how many threads run the blocks (``workers``, default one per
    available core).  The caller's numpy error state holds inside each
    block.  The errors are ||err_N||_M^2 per path, or with ``integral``
    sum_k ||err_{k+1}||_M^2 dt_k.
    """
    n, S, M = model.n, _MC_STEPS, model.M
    groups = []  # (maps, steps) per chunk

    def tables():
        prev = None
        for chunk, table in chunks:
            if table is not prev:
                (maps, steps), prev = _chunk_maps(table, integral), table
            groups.append((maps, steps))
            yield chunk, table

    report = _sigma_path(model, N, tables())
    out = np.empty(paths)
    errstate = np.geterr()

    def block(b):
        lo = b * _MC_BLOCK
        hi = min(lo + _MC_BLOCK, paths)
        g = _stream(seed, 2, b)
        z = np.zeros(((S + 1 if integral else 2) * n, hi - lo))  # err starts at 0
        acc = np.zeros(hi - lo)
        with np.errstate(**errstate):
            for maps, steps in groups:
                for m, dt in zip(maps, steps):
                    g.standard_normal(out=z[n:])
                    y = m @ z
                    if integral:
                        y3 = y.reshape(S, n, -1)
                        acc += np.einsum("kij,kij,k->j", M @ y3, y3, dt)
                    z[:n] = y[-n:]
            err = z[:n]
            out[lo:hi] = acc if integral else np.einsum("ij,ij->j", M @ err, err)

    # imported here: the pool module costs milliseconds at every CLI start
    import os
    from concurrent.futures import ThreadPoolExecutor

    n_blocks = -(-paths // _MC_BLOCK)
    if workers is None:
        getaffinity = getattr(os, "sched_getaffinity", None)  # Linux only
        workers = len(getaffinity(0)) if getaffinity else os.cpu_count() or 1
    # a block's exception cancels the blocks not yet started
    with ThreadPoolExecutor(min(workers, n_blocks)) as pool:
        list(pool.map(block, range(n_blocks)))
    return out, report


def _mc_verify(model: LinearSdeModel, grid: TimeGrid, paths: int, seed: int, integral: bool):
    paths = _index(paths)
    if paths < 100:
        raise ValueError("need at least 100 paths for a meaningful check")
    chunks = _chunks(model, grid)
    w, report = _simulate_errors(model, grid.n_steps, chunks, paths, _index(seed), integral)
    predicted = report.integral if integral else report.terminal
    return float(w.mean()), predicted, float(w.std(ddof=1) / math.sqrt(paths))


def mc_verify_mse(
    model: LinearSdeModel, grid: TimeGrid, paths: int, seed: int
) -> tuple[float, float, float]:
    """Monte Carlo check of the terminal error against <M, Sigma_{N-1}>.

    Samples ||err_N||_M^2 per path from the integer ``seed``, n normals per
    path and group of four steps; neither x0 nor the drive enters the error.
    Both sides read one kernel pass, so the check tests the sampling and the
    Sigma recursion, not the step matrices.  Returns (sample mean square
    error, predicted value, standard error of the sample mean).
    """
    return _mc_verify(model, grid, paths, seed, integral=False)


def mc_verify_integral(
    model: LinearSdeModel, grid: TimeGrid, paths: int, seed: int
) -> tuple[float, float, float]:
    """Monte Carlo check of the integral error functional.

    Accumulates ||X_{t_{k+1}} - mu_k||_M^2 dt_k per path, sampled as in
    mc_verify_mse (it tests the same), and compares the mean to
    sum_k <M, Sigma_k> dt_k.
    """
    return _mc_verify(model, grid, paths, seed, integral=True)
