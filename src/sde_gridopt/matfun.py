"""Matrix functions underlying the exact linear SDE transition.

For dX = AX dt + B dW with D = B B^T, one step of length t is governed by
a handful of matrix-valued functions of A and D:

* the propagator exp(tA),
* the first phi function E(tA) = sum_k (tA)^k / (k+1)!,
* the noise covariance G_t = int_0^t exp(sA) D exp(sA^T) ds,
* the observability Gramian Q_t = int_0^t exp(sA^T) M exp(sA) ds,
* the residual covariance scale K_t with cov(Z | dW) = K_t t^3,
* its small-time limit mho(A, D) = A D A^T / 12.

exp(tA), E(tA), K_t and G_t = t E(tA) D E(tA)^T + K_t t^3 of one step come
from a single float64 kernel: Taylor series at h = t / 2^s, then s doubling
steps (scaling and squaring, Higham, Functions of Matrices, SIAM 2008,
ch. 10).  Every term of the K_t doubling is positive semidefinite, so
nothing cancels and no extended precision is needed.  mat_exp and
weight_propagate, which need only the propagator, call scipy's expm.

All matrices are plain float ndarrays.  Norms are Frobenius throughout, and
every nominally symmetric result is symmetrised before it is returned.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

SquareMatrix = np.ndarray
RectMatrix = np.ndarray

# The kernel's Taylor series start at h = t / 2^s with |h| ||A||_F below this
# value, where _TERMS terms reach float64 roundoff; each halving of h below
# it costs one doubling step.
KT_BRANCH_THRESHOLD = 0.1
_TERMS = 12
_INV_FACT = np.array([1.0 / math.factorial(k) for k in range(_TERMS + 2)])
_J = np.arange(1, _TERMS + 1)
# U_j = (j / (j+1)!) A (hA)^{j-1} and w_jk = 1 / (j+k+1) for j, k = 1.._TERMS
_U_COEF = _J * _INV_FACT[2:]
_W = 1.0 / (_J[:, None] + _J[None, :] + 1.0)

__all__ = [
    "SquareMatrix",
    "RectMatrix",
    "mat_exp",
    "phi1",
    "ctrl_gramian",
    "obs_gramian",
    "weight_propagate",
    "kt_matrix",
    "mho",
]


def _as_square(A, name: str) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{name} must have finite entries")
    return A


def _check_symmetric(X: np.ndarray, name: str) -> None:
    if np.linalg.norm(X - X.T) > 1e-12 * max(1.0, np.linalg.norm(X)):
        raise ValueError(f"{name} must be symmetric")


def _sym(X: np.ndarray) -> np.ndarray:
    return 0.5 * (X + X.T)


def _check_pair(A, D, t: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Validated (A, D) for a nonnegative step t."""
    A = _as_square(A, "A")
    D = _as_square(D, "D")
    if D.shape != A.shape:
        raise ValueError("A and D must have matching shapes")
    _check_symmetric(D, "D")
    if not np.isfinite(t) or t < 0:
        raise ValueError("t must be nonnegative")
    return A, D


def _transition(A: np.ndarray, D: np.ndarray, t: float):
    """(exp(tA), E(tA), K_t, G_t) of one step, for validated A, D and finite t.

    Base: Taylor series at h = t / 2^s, the smallest s with
    |h| ||A||_F < KT_BRANCH_THRESHOLD, where
    K_h = sum_{j,k>=1} w_jk U_j D U_k^T.  Doubling, s times, by the law of
    total covariance over two half steps:

        K <- (e K e^T + K) / 8 + (A E E) D (A E E)^T / 16,
        E <- (E + e E) / 2,
        e <- e^2,

    with A E E = (e - I) E / h.  Negative t is allowed (s is sized on |t|).
    The K and E updates read e as I + f with f = e - I carried by
    f <- 2f + f^2, which keeps the digits of the small f that squaring e
    would round away (on random models with n <= 4, a 25 times smaller
    K_t error at t ||A|| = 30).  The returned exp(tA) is squared directly,
    since I + f cancels once exp(tA) has decayed.
    """
    I = np.eye(A.shape[0])
    s = max(0, math.frexp(abs(t) * np.linalg.norm(A) / KT_BRANCH_THRESHOLD)[1])
    X = (t / 2.0**s) * A
    P = np.empty((_TERMS + 1, *A.shape))  # P[k] = (hA)^k
    P[0] = I
    for k in range(1, _TERMS + 1):
        P[k] = P[k - 1] @ X
    f = np.tensordot(_INV_FACT[1:-1], P[1:], 1)
    E = np.tensordot(_INV_FACT[1:], P, 1)
    U = _U_COEF[:, None, None] * (A @ P[:-1])
    K = (U @ np.tensordot(_W, D @ U.transpose(0, 2, 1), 1)).sum(0)
    e = I + f
    for _ in range(s):
        g = I + f
        AEE = A @ E @ E
        K = (g @ K @ g.T + K) / 8.0 + AEE @ D @ AEE.T / 16.0
        E = E + 0.5 * f @ E
        f = 2.0 * f + f @ f
        e = e @ e
    K = _sym(K)
    return e, E, K, _sym(t * E @ D @ E.T + K * t**3)


def mat_exp(A: SquareMatrix, t: float) -> SquareMatrix:
    """Propagator exp(tA)."""
    A = _as_square(A, "A")
    if not np.isfinite(t):
        raise ValueError("t must be finite")
    return expm(t * A)


def phi1(A: SquareMatrix, t: float) -> SquareMatrix:
    """First phi function E(tA) = sum_{k>=0} (tA)^k / (k+1)!.

    Satisfies tA E(tA) + I = exp(tA) and E(0) = I.  Any finite t, negative
    included; the series is summed directly, so singular tA needs no care.
    """
    A = _as_square(A, "A")
    if not np.isfinite(t):
        raise ValueError("t must be finite")
    return _transition(A, np.zeros_like(A), t)[1]


def ctrl_gramian(A: SquareMatrix, D: SquareMatrix, t: float) -> SquareMatrix:
    """Controllability Gramian G_t = int_0^t exp(sA) D exp(sA^T) ds.

    Assembled as G_t = t E(tA) D E(tA)^T + K_t t^3, a sum of PSD terms, so
    it stays finite for stiff A and long horizons.
    """
    A, D = _check_pair(A, D, t)
    return _transition(A, D, t)[3]


def obs_gramian(A: SquareMatrix, M: SquareMatrix, t: float) -> SquareMatrix:
    """Observability Gramian Q_t = int_0^t exp(sA^T) M exp(sA) ds."""
    A = _as_square(A, "A")
    M = _as_square(M, "M")
    return ctrl_gramian(A.T, M, t)


def weight_propagate(A: SquareMatrix, M: SquareMatrix, t: float) -> SquareMatrix:
    """Propagated weight R_t = exp(tA^T) M exp(tA)."""
    A = _as_square(A, "A")
    M = _as_square(M, "M")
    if M.shape != A.shape:
        raise ValueError("A and M must have matching shapes")
    _check_symmetric(M, "M")
    if not np.isfinite(t):
        raise ValueError("t must be finite")
    E = expm(t * A)
    return _sym(E.T @ M @ E)


def mho(A: SquareMatrix, D: SquareMatrix) -> SquareMatrix:
    """Small-time limit of K_t: mho = A D A^T / 12."""
    A, D = _check_pair(A, D)
    return _sym(A @ D @ A.T) / 12.0


def kt_matrix(A: SquareMatrix, D: SquareMatrix, t: float) -> SquareMatrix:
    """Residual covariance scale K_t with cov(Z | dW) = K_t t^3.

    Continuous in t with kt_matrix(A, D, 0) = mho(A, D).
    """
    A, D = _check_pair(A, D, t)
    return _transition(A, D, t)[2]
