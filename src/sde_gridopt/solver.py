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
Sigma_k), which is what the grid optimiser minimises.  Each call builds a
step table: stacked arrays with one row per distinct dt, filled by one
call of the batched matfun kernel, and a row index per step.  The mean
recursion walks that index step by step; the covariance recursion is a
chunked prefix scan over the same rows: log2 of the chunk length batched
sweeps compose a chunk's maps, and one carry, two products over the whole
chunk, applies them to the last Sigma before it.  The scan holds one
chunk of Sigma unless it is given the whole stack to fill, so a route that
reads only the report needs O(chunk) memory.  A chunk whose rows repeat
the chunk before (every chunk of a uniform grid with a dyadic step)
reuses its composed maps and costs the carry alone.
Each route takes its grid once (``run_filter`` from the increments) and
refuses a grid that does not span the model's [0, T].

Every draw comes from an SFC64 stream keyed (seed, *key) through a
SeedSequence (``_stream``), from an integer seed: increments come from
(seed, 0), a path's n residual normals per step from (seed, 1), and
block b of the Monte Carlo verifiers from (seed, 2, b).  Only the
samplers take the square root of K_dt dt^3 (``_psd_root``).

The Monte Carlo verifiers sample the error X - mu alone, from an integer
seed.  The drive E(dt A) B dW enters X and mu alike and cancels, and so
does x0, which they do not take: given the increments err' = exp(dt A) err
+ (K_dt dt^3)^{1/2} xi from err = 0, with n standard normals xi per
path-step.  A block of paths advances four steps per draw and per
product: the errors over a chunk of steps are one linear map of the
error before it and the chunk's normals, built once per distinct chunk.
The check thus tests the sampling, the square roots and the scan against
a direct simulation on the same step table, not exp(dt A), E(dt A) B or
K_dt against an independent route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import TimeGrid, _index
from .matfun import _Tc, _right, _transition
from .model import LinearSdeModel

__all__ = [
    "WienerIncrements",
    "KalmanState",
    "PathSample",
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

    The seed is the sequence's entropy and the key its spawn key, so each
    key names a stream of its own and the pair (key, position) locates
    every number drawn anywhere in the package independently of
    scheduling.  The keys fall in three spaces: the increments read
    (seed, 0), a path's residual normals (seed, 1), and block b of the
    Monte Carlo verifiers (seed, 2, b), so no verifier block shares draws
    with a sampler on the same seed and the verifiers' bytes are the same
    on any number of cores.
    """
    seed = int(seed)
    key = tuple(int(k) for k in key)
    if not all(0 <= v < 2**64 for v in (seed, *key)):
        raise ValueError("seed and key must fit in uint64")
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=key)))


@dataclass(frozen=True)
class StepTable:
    """Transition data of a step sequence, one row per distinct step length.

    Step k of the sequence has length dts[index[k]] and uses row index[k]
    of each (L, ...) stack.
    """

    dts: np.ndarray  # (L,) distinct step lengths, ascending
    index: np.ndarray  # (N,) row of each step
    exp_a: np.ndarray  # (L, n, n)
    phi_b: np.ndarray  # (L, n, m), E(dt A) B
    kt3: np.ndarray  # (L, n, n), K_dt dt^3


def _step_table(model: LinearSdeModel, steps) -> StepTable:
    """Step matrices of every distinct step length, from one kernel call.

    The steps must be positive and finite, as the steps of a TimeGrid are.
    Each step is one of the distinct dts, so searchsorted finds its row
    exactly.  This takes a quarter of the transient memory of np.unique's
    inverse, and unlike np.unique without one it does not import numpy.ma
    (about 15 ms at a cold start on numpy 2.4).
    """
    dts = np.sort(steps)
    dts = dts[np.append(True, dts[1:] != dts[:-1])]  # frees the sorted copy before the kernel
    index = np.searchsorted(dts, steps)
    exp_a, phi, kt, _ = _transition(model.A, model.D, dts)
    return StepTable(dts, index, exp_a, _right(phi, model.B), kt * (dts**3)[:, None, None])


def _psd_root(kt3: np.ndarray) -> np.ndarray:
    """PSD square roots R @ R.T = kt3; eigenvalues clipped at zero against roundoff."""
    w, V = np.linalg.eigh(kt3)
    return V * np.sqrt(np.clip(w, 0.0, None))[:, None, :]


def _grid_table(model: LinearSdeModel, grid: TimeGrid) -> StepTable:
    """The step table of a grid, which must span the model's horizon [0, T]."""
    if grid.horizon != model.T:
        raise ValueError("grid horizon does not match the model")
    return _step_table(model, grid.steps)


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


def sample_exact_path(model: LinearSdeModel, grid: TimeGrid, x0, seed: int) -> PathSample:
    """Simulate X on the grid from its exact Gaussian transition.

    The increments are ``WienerIncrements.sample(grid, m, seed)``; the part
    of each state update orthogonal to dW takes n normals per step from the
    stream (seed, 1), drawn as one (N, n) array, row k for step k.
    """
    x0 = _vector(x0, model.n, "x0")
    incs = WienerIncrements.sample(grid, model.m, seed)
    table = _grid_table(model, grid)
    xi = _stream(seed, 1).standard_normal((grid.n_steps, model.n))
    root = _psd_root(table.kt3)
    states = np.empty((grid.n_steps + 1, model.n))
    states[0] = x = x0
    for k, i in enumerate(table.index):
        x = table.exp_a[i] @ x + (table.phi_b[i] @ incs.increments[k] + root[i] @ xi[k])
        states[k + 1] = x
    return PathSample(states=states, increments=incs)


def kalman_step(
    model: LinearSdeModel, state: KalmanState, dt: float, dW
) -> KalmanState:
    """One conditional-moment update given the increment over the step.

    The state's mean and the increment are refused as ``x0`` is, and its
    covariance unless it is a finite (n, n) matrix.
    """
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError("dt must be positive")
    table = _step_table(model, [dt])
    n = model.n
    mu = _vector(state.mu, n, "state.mu")
    sigma = np.asarray(state.sigma, dtype=float)
    if sigma.shape != (n, n) or not np.all(np.isfinite(sigma)):
        raise ValueError(f"state.sigma must be a finite ({n}, {n}) matrix")
    dW = _vector(dW, model.m, "dW")
    E = table.exp_a[0]
    mu = E @ mu + table.phi_b[0] @ dW
    sigma = E @ sigma @ E.T + table.kt3[0]
    return KalmanState(state.k + 1, mu, 0.5 * (sigma + sigma.T))


# steps per prefix scan; bounds its working memory, and on the report
# route the Sigma it holds
_SCAN_CHUNK = 1024


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


def _sigma_path(model: LinearSdeModel, table: StepTable, sigmas=None) -> ErrorReport:
    """The error report of a step table by a chunked parallel-prefix scan.

    Step k maps Sigma to E_k Sigma E_k^T + Q_k, and these affine maps
    compose associatively: (E2, Q2) after (E1, Q1) is
    (E2 E1, E2 Q1 E2^T + Q2).  Inside a chunk of _SCAN_CHUNK steps,
    ``_compose`` turns row k into the composition of steps lo..k; the
    chunk's Sigma then follows from the carry, the last Sigma of the chunk
    before, as E Sigma E^T + Q: one 2-D product of the stacked E against
    Sigma, one stacked product against E^T (made contiguous once per
    composed chunk), then Q added and the result symmetrised in place into
    the chunk's rows.  Those rows are ``sigmas[lo:hi]`` when the caller
    passes an (N, n, n) stack to fill, and otherwise one reused chunk
    buffer, so the report alone costs O(chunk) memory; the carry may stay a
    view of that buffer, as the next chunk's product is taken before the
    buffer is written.  Each chunk leaves <M, Sigma_k> dt_k in an (N,)
    vector, and the integral is numpy's pairwise sum of it, not a BLAS
    dot, whose bits would depend on the BLAS thread count.  A chunk whose
    step rows equal the previous chunk's reuses its composed maps and E^T,
    which would come out bitwise the same, and costs the carry alone.
    That happens on uniform grids with a dyadic step T / N, where every
    step has one length; elsewhere the float steps take several values
    scattered along the grid (9 at T = 1, N = 1000), chunks rarely repeat,
    and the test costs one comparison of the chunk's row indices.  On
    stiff models a composite E can decay below the float range; that
    underflow is not signalled, as what flushes to zero lies far below Q's
    rounding.
    """
    N = table.index.size
    M = model.M
    buffer = np.empty((min(N, _SCAN_CHUNK), model.n, model.n)) if sigmas is None else None
    weighted = np.empty(N)
    sigma = np.zeros((model.n, model.n))
    rows = None
    for lo in range(0, N, _SCAN_CHUNK):
        prev, rows = rows, table.index[lo : lo + _SCAN_CHUNK]
        hi = lo + rows.size
        with np.errstate(under="ignore"):
            if prev is None or not np.array_equal(rows, prev):
                E, Q = _compose(table.exp_a[rows], table.kt3[rows])
                Et = _Tc(E)
            S = _right(E, sigma) @ Et
            S += Q
        out = buffer[: rows.size] if sigmas is None else sigmas[lo:hi]
        np.add(S, S.mT, out=out)
        out *= 0.5
        np.einsum("kij,ij->k", out, M, out=weighted[lo:hi])
        weighted[lo:hi] *= table.dts[rows]
        sigma = out[-1]
    terminal = float(np.sum(M * sigma))
    integral = float(np.sum(weighted))
    n2 = float(N) ** 2
    return ErrorReport(terminal, integral, n2 * terminal, n2 * integral)


def error_report(model: LinearSdeModel, grid: TimeGrid) -> ErrorReport:
    """The ErrorReport of ``sigma_path`` without its stack.

    The same bits, from a scan that keeps one chunk of Sigma_k, not all N.
    """
    return _sigma_path(model, _grid_table(model, grid))


def sigma_path(model: LinearSdeModel, grid: TimeGrid) -> tuple[np.ndarray, ErrorReport]:
    """Sigma_k after each step of a grid, and the errors read off them.

    Returns the (N, n, n) stack and the ErrorReport of <M, Sigma_{N-1}> and
    sum_k <M, Sigma_k> dt_k.  Sigma depends on the grid only.  A caller
    that reads the report alone takes ``error_report``.
    """
    table = _grid_table(model, grid)
    sigmas = np.empty((table.index.size, model.n, model.n))
    return sigmas, _sigma_path(model, table, sigmas)


def run_filter(
    model: LinearSdeModel, x0, increments: WienerIncrements
) -> tuple[list[KalmanState], ErrorReport]:
    """Run the conditional-moment recursion along the increments' grid.

    Returns the trajectory of states after each step together with the
    error report of ``sigma_path``, which the increments do not affect.
    """
    if increments.increments.shape[1] != model.m:
        raise ValueError("increment dimension does not match the model")
    mu = _vector(x0, model.n, "x0")
    table = _grid_table(model, increments.grid)
    sigmas = np.empty((table.index.size, model.n, model.n))
    report = _sigma_path(model, table, sigmas)
    exp_a, phi_b = list(table.exp_a), list(table.phi_b)
    trajectory = []
    for k, i in enumerate(table.index):
        mu = exp_a[i] @ mu + phi_b[i] @ increments.increments[k]
        trajectory.append(KalmanState(k, mu, sigmas[k]))
    return trajectory, report


_MC_BLOCK = 2048  # paths per block: one stream and one worker task each
# steps a block advances per draw and product; a longer chunk grows each
# worker's draw buffer, and at 32 steps, under a caller-set BLAS thread
# count above one, OpenBLAS threads the product inside each worker
_MC_STEPS = 4


def _chunk_maps(exp_a: np.ndarray, roots: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Maps of (D, S) chunks of step rows from [err; xi_0 .. xi_{S-1}] to their errors.

    Block row i of map d is the error after step i of chunk d,
    [E_i..E_0 | E_i..E_1 R_0 | .. | R_i | 0 ..] with E = exp_a[rows[d]]
    and R = roots[rows[d]], built for all D chunks by one batched product
    per position i.  Returns the (D, S n, (S + 1) n) stack.
    """
    D, S = rows.shape
    n = exp_a.shape[-1]
    maps = np.zeros((D, S, n, (S + 1) * n))
    prev = np.zeros((D, n, (S + 1) * n))
    prev[:, :, :n] = np.eye(n)
    for i in range(S):
        prev = np.matmul(exp_a[rows[:, i]], prev, out=maps[:, i])
        prev[:, :, (i + 1) * n : (i + 2) * n] = roots[rows[:, i]]
    return maps.reshape(D, S * n, (S + 1) * n)


def _simulate_errors(
    model: LinearSdeModel, table: StepTable, paths: int, seed: int, integral: bool, workers=None
) -> np.ndarray:
    """Per-path squared errors, the error sampled from its exact law.

    err = X - mu starts at 0 and follows err' = exp_a err + root(kt3) xi (see
    the module docstring), n normals xi per path-step.  The steps run in
    chunks of _MC_STEPS (the last may be shorter), and a chunk's errors
    are one map of [err; xi_chunk] (``_chunk_maps``), built before the
    paths start; a chunk whose rows repeat the previous chunk's reuses its
    map, so a uniform grid with a dyadic step builds one.  Paths run in
    blocks of _MC_BLOCK (the last may be shorter) as columns of one reused
    ((S + 1) n, block) buffer [err; xi]: per chunk, block b draws xi as one
    C-order (S n, block) array from the stream (seed, 2, b), the same
    numbers as S draws of (n, block), and takes one product with the map
    (the integral adds one product and one einsum for the chunk's
    dt-weighted ||err||_M^2).  Each block fills its own slice of the
    output, so the bytes do not depend on how many threads run the blocks
    (``workers``, default one per available core).  The caller's numpy
    error state holds inside each block.  Returns ||err_N||_M^2 per path,
    or with ``integral`` sum_k ||err_{k+1}||_M^2 dt_k.
    """
    n, S, M = model.n, _MC_STEPS, model.M
    # a padding row, E = I and R = 0 over dt = 0, fills the last chunk to S steps
    exp_a = np.concatenate((table.exp_a, np.eye(n)[None]))
    roots = np.concatenate((_psd_root(table.kt3), np.zeros((1, n, n))))
    N = table.index.size
    rows = np.append(table.index, np.full(-N % S, table.dts.size)).reshape(-1, S)
    steps = np.append(table.dts, 0.0)[rows]
    new = np.append(True, np.any(rows[1:] != rows[:-1], axis=1))
    which = (np.cumsum(new) - 1).tolist()
    full = _chunk_maps(exp_a, roots, rows[new])
    maps = full if integral else full[:, -n:].copy()
    plan = [(S, maps[d], dt) for d, dt in zip(which, steps)]
    if r := N % S:  # the last chunk reads the first r steps of its padded map
        last = full[which[-1], : r * n, : (r + 1) * n]
        plan[-1] = (r, last if integral else last[-n:].copy(), steps[-1, :r])
    del full  # the terminal functional holds copies of its rows alone
    out = np.empty(paths)
    errstate = np.geterr()

    def block(b):
        lo = b * _MC_BLOCK
        hi = min(lo + _MC_BLOCK, paths)
        g = _stream(seed, 2, b)
        z = np.zeros(((S + 1) * n, hi - lo))  # [err; xi], err starts at 0
        acc = np.zeros(hi - lo)
        with np.errstate(**errstate):
            for k, Lc, dt in plan:
                g.standard_normal(out=z[n : (k + 1) * n])
                y = Lc @ z[: (k + 1) * n]
                if integral:
                    y3 = y.reshape(k, n, -1)
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
    return out


def _mc_verify(model: LinearSdeModel, grid: TimeGrid, paths: int, seed: int, integral: bool):
    paths = _index(paths)
    if paths < 100:
        raise ValueError("need at least 100 paths for a meaningful check")
    table = _grid_table(model, grid)
    w = _simulate_errors(model, table, paths, _index(seed), integral)
    report = _sigma_path(model, table)
    predicted = report.integral if integral else report.terminal
    return float(w.mean()), predicted, float(w.std(ddof=1) / math.sqrt(paths))


def mc_verify_mse(
    model: LinearSdeModel, grid: TimeGrid, paths: int, seed: int
) -> tuple[float, float, float]:
    """Monte Carlo check of the terminal error against <M, Sigma_{N-1}>.

    Samples ||err_N||_M^2 per path from the integer ``seed``, n normals per
    path-step; neither x0 nor the drive enters the error.  Both sides come
    from one step table, so the check tests the sampling and the Sigma
    recursion, not the step matrices.  Returns (sample mean square error,
    predicted value, standard error of the sample mean).
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
