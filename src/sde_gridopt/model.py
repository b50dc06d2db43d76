"""Problem data for the linear SDE dX = AX dt + B dW on a finite horizon.

A model bundles the drift matrix A (n x n), the noise loading B (n x m),
a symmetric PSD weight M defining the error quadratic form, and the horizon
T.  The diffusion D = B B^T is computed once and cached; everything
downstream depends on B only through D.

A model is checked once, when it is built: a wrong shape or any violated
value invariant (finite entries, positive horizon, symmetric PSD weight)
raises ModelValidationError, so every routine that takes a model may
assume it is valid.  Models compare and hash by identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .matfun import RectMatrix, SquareMatrix

__all__ = [
    "LinearSdeModel",
    "ModelValidationError",
    "RegularityReport",
    "frobenius_pairing",
    "regularity_check",
    "validate_model",
]


class ModelValidationError(ValueError):
    """Raised when model data violates an invariant.

    ``violations`` lists the names of all failed checks, not just the first.
    """

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("model validation failed: " + ", ".join(self.violations))


def frobenius_pairing(K: np.ndarray, L: np.ndarray) -> float:
    """Frobenius pairing <K, L> = trace(K^T L)."""
    K = np.asarray(K, dtype=float)
    L = np.asarray(L, dtype=float)
    if K.shape != L.shape:
        raise ValueError(f"shape mismatch: {K.shape} vs {L.shape}")
    return float(np.sum(K * L))


@dataclass(frozen=True, eq=False)
class LinearSdeModel:
    """Linear SDE dX = AX dt + B dW with weight M and horizon T, validated when built."""

    A: SquareMatrix
    B: RectMatrix
    M: SquareMatrix
    T: float
    D: SquareMatrix = field(init=False, repr=False)

    def __post_init__(self):
        # private copies so the read-only flag never touches caller arrays
        A = np.array(self.A, dtype=float, copy=True)
        B = np.array(self.B, dtype=float, copy=True)
        M = np.array(self.M, dtype=float, copy=True)
        if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] < 1:
            raise ModelValidationError(["drift-not-square"])
        n = A.shape[0]
        if B.ndim != 2 or B.shape[0] != n:
            raise ModelValidationError(["noise-shape-mismatch"])
        if M.shape != A.shape:
            raise ModelValidationError(["weight-shape-mismatch"])
        for arr in (A, B, M):
            arr.flags.writeable = False
        with np.errstate(over="ignore", invalid="ignore"):  # a nonfinite D is refused below
            D = B @ B.T
        D.flags.writeable = False
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "T", float(self.T))
        object.__setattr__(self, "D", D)
        validate_model(self)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]


def validate_model(model: LinearSdeModel) -> None:
    """Check all model invariants; silent on success.

    Construction already runs this check; call it to re-check a model
    later.  Raises ModelValidationError naming every violated invariant:
    finite entries (D = B B^T included), positive horizon, symmetric PSD
    weight, and a fresh diffusion cache D.  The weight and cache checks
    read finite data only.
    """
    finite = [bool(np.all(np.isfinite(X))) for X in (model.A, model.B, model.M, model.D)]
    bad = [] if all(finite) else ["nonfinite-entries"]
    if not np.isfinite(model.T):
        bad.append("horizon-not-finite")
    elif model.T <= 0:
        bad.append("horizon-not-positive")
    M, scale = model.M, max(1.0, np.linalg.norm(model.M))
    if finite[2] and np.linalg.norm(M - M.T) > 1e-12 * scale:
        bad.append("weight-not-symmetric")
    elif finite[2] and np.linalg.eigvalsh(M).min() < -1e-10 * scale:  # PSD up to roundoff
        bad.append("weight-not-psd")
    if all(finite) and np.linalg.norm(model.D - model.B @ model.B.T) > 1e-12 * max(
        1.0, np.linalg.norm(model.D)
    ):
        bad.append("diffusion-cache-stale")
    if bad:
        raise ModelValidationError(bad)


@dataclass(frozen=True)
class RegularityReport:
    """Outcome of the mixed-moment regularity test.

    gram_matrix holds <M, A^j D A^T^k> for 1 <= j, k <= n; the optimal-grid
    theory applies exactly when its determinant is positive.
    """

    gram_matrix: np.ndarray
    gram_det: float
    satisfied: bool


def regularity_check(model: LinearSdeModel) -> RegularityReport:
    """Build the n x n Gram matrix of weighted drift-diffusion moments.

    Entry (j, k) is <M, A^j D A^T^k>.  satisfied is True iff the
    determinant is strictly positive, which certifies that the weight
    curves seen by the grid optimiser stay positive on [0, T).
    """
    n = model.n
    pw = [model.A]
    for _ in range(n - 1):
        pw.append(model.A @ pw[-1])
    left = [P @ model.D for P in pw]
    W = np.empty((n, n))
    for j in range(n):
        for k in range(n):
            W[j, k] = frobenius_pairing(model.M, left[j] @ pw[k].T)
    det = float(np.linalg.det(W))
    return RegularityReport(gram_matrix=W, gram_det=det, satisfied=det > 0.0)
