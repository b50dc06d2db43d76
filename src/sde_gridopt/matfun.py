"""Matrix functions underlying the exact linear SDE transition.

For dX = AX dt + B dW with D = B B^T, one step of length t is governed by
a handful of matrix-valued functions of A and D:

* the propagator exp(tA),
* the first phi function E(tA) = sum_k (tA)^k / (k+1)!,
* the noise covariance G_t = int_0^t exp(sA) D exp(sA^T) ds,
* the observability Gramian Q_t = int_0^t exp(sA^T) M exp(sA) ds,
* the residual covariance scale K_t with cov(Z | dW) = K_t t^3,
* its small-time limit mho(A, D) = A D A^T / 12.

exp(tA), E(tA), K_t and G_t = t E(tA) D E(tA)^T + K_t t^3 come from a
single float64 kernel over an array of step lengths: Taylor series at
h = t / 2^s, one Horner pass for every t, then s doubling steps for each
(scaling and squaring, Higham, Functions of Matrices, SIAM 2008, ch. 10).
Every term of the K_t doubling is positive semidefinite, so nothing
cancels and no extended precision is needed.  The doubling step is the
equal-halves case a = o of the law of total covariance over sub-steps a
then o, whose general form builds K_t on the standard mesh from 128 kernel
rows (asymptotics._mesh_transition).  expm is the kernel's
propagator alone; mat_exp, weight_propagate and every other caller that
needs only exp(tA) go through it, so the package needs numpy only.

All matrices are plain float ndarrays.  Norms are Frobenius throughout, and
every nominally symmetric result is symmetrised before it is returned.
"""

from __future__ import annotations

import math

import numpy as np

# The kernel's Taylor series start at h = t / 2^s with |h| ||A||_F below this
# value, where _TERMS terms reach float64 roundoff; each halving of h below
# it costs one doubling step.
KT_BRANCH_THRESHOLD = 0.1
_TERMS = 12
_DEGREE = 2 * _TERMS - 2  # of the K_h series


_INV_FACT = np.array([1.0 / math.factorial(k) for k in range(_TERMS + 2)])


def _k_weights() -> np.ndarray:
    """Row p: the degree-p coefficient in h of K_h over A^j D (A^k)^T.

    K_p = sum_{j+k=p+2} w_jk u_j u_k A^j D (A^k)^T for j, k = 1.._TERMS,
    with u_j = j / (j+1)! and w_jk = 1 / (j+k+1).
    """
    W = np.zeros((_DEGREE + 1, _TERMS, _TERMS))
    u = [j / math.factorial(j + 1) for j in range(_TERMS + 1)]
    for j in range(1, _TERMS + 1):
        for k in range(1, _TERMS + 1):
            W[j + k - 2, j - 1, k - 1] = u[j] * u[k] / (j + k + 1)
    return W.reshape(_DEGREE + 1, -1)


_K_WEIGHTS = _k_weights()

__all__ = [
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


def _Tc(X: np.ndarray) -> np.ndarray:
    """Contiguous transpose of each matrix in a stack.

    numpy multiplies stacks of small matrices about three times faster
    against a contiguous operand than against a transposed view, with the
    same bits.
    """
    return np.ascontiguousarray(X.mT)


def _right(X: np.ndarray, F: np.ndarray) -> np.ndarray:
    """X @ F for a stack X and one matrix F, as one 2-D product.

    Same bits as the broadcast product, which numpy runs matrix by matrix
    at about five times the cost on stacks of 4x4 matrices.
    """
    return (X.reshape(-1, X.shape[-1]) @ F).reshape(X.shape[:-1] + F.shape[-1:])


def _sym(X: np.ndarray) -> np.ndarray:
    return 0.5 * (X + X.mT)


def _check_pair(A, D, t: float = 0.0, name: str = "D") -> tuple[np.ndarray, np.ndarray]:
    """Validated (A, D) for a nonnegative step t; errors call the second matrix name."""
    A = _as_square(A, "A")
    D = _as_square(D, name)
    if D.shape != A.shape:
        raise ValueError(f"A and {name} must have matching shapes")
    if np.linalg.norm(D - D.T) > 1e-12 * max(1.0, np.linalg.norm(D)):
        raise ValueError(f"{name} must be symmetric")
    if not np.isfinite(t) or t < 0:
        raise ValueError("t must be nonnegative")
    return A, D


def _double(A, D, e, f, E, K):
    """Doubling step h -> 2h of (e, f, E, K) stacks; see _transition."""
    I = np.eye(A.shape[0])
    g = I + f
    AEE = A @ E @ E
    K = (g @ K @ _Tc(g) + K) / 8.0 + _right(AEE, D) @ _Tc(AEE) / 16.0
    return e @ e, 2.0 * f + f @ f, E + 0.5 * f @ E, K


def _transition(A: np.ndarray, D: np.ndarray, t):
    """(L, n, n) stacks of exp(tA), E(tA), K_t, G_t for a 1-D array t.

    For validated A and D and finite t; negative t is allowed (s is sized
    on |t|), and row i depends on t[i] alone, bit for bit.  Base: Taylor
    series at h = t / 2^s, the smallest s with |h| ||A||_F <
    KT_BRANCH_THRESHOLD, where K_h = sum_{j,k>=1} w_jk U_j D U_k^T; they
    are polynomials in x = h ||A||_F whose coefficients are built once.
    Doubling, s times for each t, by the law of total covariance over two
    half steps:

        K <- (e K e^T + K) / 8 + (A E E) D (A E E)^T / 16,
        E <- (E + e E) / 2,
        e <- e^2,

    with A E E = (e - I) E / h.  The K and E updates read e as I + f with
    f = e - I carried by f <- 2f + f^2, which keeps the digits of the small
    f that squaring e would round away (on random models with n <= 4, a 25
    times smaller K_t error at t ||A|| = 30).  The returned exp(tA) is
    squared directly, since I + f cancels once exp(tA) has decayed.
    """
    t = np.asarray(t, dtype=float)
    n = A.shape[0]
    a = np.linalg.norm(A)
    s = np.maximum(np.frexp(np.abs(t) * a / KT_BRANCH_THRESHOLD)[1], 0)
    order = np.argsort(s, kind="stable")  # by s: the rows still doubling form a suffix
    s = s[order]
    scale = a if a > 0 else 1.0
    x = (np.ldexp(t[order], -s) * scale)[:, None]
    P = np.empty((_TERMS + 1, n, n))  # P[k] = (A / scale)^k
    P[0] = np.eye(n)
    P[1] = A / scale
    k = 1
    while k < _TERMS:
        m = min(k, _TERMS - k)
        P[k + 1 : k + m + 1] = P[1 : m + 1] @ P[k]
        k *= 2
    # rows (j, k) of PDP: scale^2 P[j] D P[k]^T for j, k = 1.._TERMS
    PDP = ((scale**2 * (P[1:] @ D)).reshape(-1, n) @ P[1:].reshape(-1, n).T).reshape(_TERMS, n, _TERMS, n)
    coef = np.zeros((_DEGREE + 1, 3, n * n))  # of exp(hA) - I, E(hA), K_h
    coef[1 : _TERMS + 1, 0] = _INV_FACT[1:-1, None] * P[1:].reshape(-1, n * n)
    coef[: _TERMS + 1, 1] = _INV_FACT[1:, None] * P.reshape(-1, n * n)
    coef[:, 2] = _K_WEIGHTS @ PDP.transpose(0, 2, 1, 3).reshape(-1, n * n)
    coef = coef.reshape(_DEGREE + 1, -1)
    acc = coef[-1] * x + coef[-2]
    for c in coef[-3::-1]:
        acc *= x
        acc += c
    acc = acc.reshape(-1, 3, n, n)
    f, E, K = acc[:, 0], acc[:, 1], acc[:, 2]
    e = np.eye(n) + f
    for j in np.bincount(s).cumsum()[:-1].tolist():  # rows with s <= i, i = 0..max(s)-1
        e[j:], f[j:], E[j:], K[j:] = _double(A, D, e[j:], f[j:], E[j:], K[j:])
    back = np.argsort(order)
    e, E, K = e[back], E[back], _sym(K[back])
    t = t[:, None, None]
    return e, E, K, _sym(_right(t * E, D) @ _Tc(E) + K * t**3)


def expm(A: np.ndarray, t) -> np.ndarray:
    """(L, n, n) stack of exp(tA) for a validated A and a 1-D array t."""
    return _transition(A, np.zeros_like(A), t)[0]


def mat_exp(A: np.ndarray, t: float) -> np.ndarray:
    """Propagator exp(tA)."""
    A = _as_square(A, "A")
    if not np.isfinite(t):
        raise ValueError("t must be finite")
    return expm(A, [t])[0]


def phi1(A: np.ndarray, t: float) -> np.ndarray:
    """First phi function E(tA) = sum_{k>=0} (tA)^k / (k+1)!.

    Satisfies tA E(tA) + I = exp(tA) and E(0) = I.  Any finite t, negative
    included; the series is summed directly, so singular tA needs no care.
    """
    A = _as_square(A, "A")
    if not np.isfinite(t):
        raise ValueError("t must be finite")
    return _transition(A, np.zeros_like(A), [t])[1][0]


def ctrl_gramian(A: np.ndarray, D: np.ndarray, t: float) -> np.ndarray:
    """Controllability Gramian G_t = int_0^t exp(sA) D exp(sA^T) ds.

    Assembled as G_t = t E(tA) D E(tA)^T + K_t t^3, a sum of PSD terms, so
    it stays finite for stiff A and long horizons.
    """
    A, D = _check_pair(A, D, t)
    return _transition(A, D, [t])[3][0]


def obs_gramian(A: np.ndarray, M: np.ndarray, t: float) -> np.ndarray:
    """Observability Gramian Q_t = int_0^t exp(sA^T) M exp(sA) ds."""
    A, M = _check_pair(A, M, t, name="M")
    return _transition(A.T, M, [t])[3][0]


def weight_propagate(A: np.ndarray, M: np.ndarray, t: float) -> np.ndarray:
    """Propagated weight R_t = exp(tA^T) M exp(tA), for any finite t."""
    A, M = _check_pair(A, M, name="M")
    if not np.isfinite(t):
        raise ValueError("t must be finite")
    E = expm(A, [t])[0]
    return _sym(E.T @ M @ E)


def mho(A: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Small-time limit of K_t: mho = A D A^T / 12."""
    A, D = _check_pair(A, D)
    return _sym(A @ D @ A.T) / 12.0


def kt_matrix(A: np.ndarray, D: np.ndarray, t: float) -> np.ndarray:
    """Residual covariance scale K_t with cov(Z | dW) = K_t t^3.

    Continuous in t with kt_matrix(A, D, 0) = mho(A, D).
    """
    A, D = _check_pair(A, D, t)
    return _transition(A, D, [t])[2][0]
