"""Shared generators for randomised property tests, and test-only K_t oracles."""

import math

import numpy as np

from sde_gridopt import LinearSdeModel, TimeGrid, regularity_check


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
