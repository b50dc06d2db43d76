"""Fine-grid limit theory: weight curves, error functionals, optima.

As the number of steps N grows, the rescaled errors of the conditional
recursion converge to integral functionals of the grid density psi:

    N^2 T_N -> Phi_T(psi) = int_0^T F_t / psi(t)^2 dt,
    N^2 I_N -> Ups_T(psi) = int_0^T S_t / psi(t)^2 dt,

with weights F_t = <mho, R_{T-t}> and S_t = <mho, Q_{T-t}>.  By the
Hoelder argument both functionals are minimised by densities proportional
to the cube root of their weight, giving the optimal values
(int w^{1/3})^3.  The limit covariance Sigma(tau) of the rescaled
recursion is available through two independent routes (Lyapunov ODE and
the explicit integral), which is the main transcription safeguard here.

Quadrature is composite Simpson on the shared density mesh.  Densities are
piecewise linear, so integrands have kinks at mesh nodes; the reported
error bound for a functional value is the Simpson-trapezoid gap on the
same mesh, which dominates the actual error in practice.  Near t = T the
integral-kind integrand behaves like (T-t)^{1/3}: continuous, with a mere
O(J^{-4/3}) local quadrature error on the last panels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import MESH_PANELS, GridDensity, density_from_weight
from .matfun import _transition, expm, mho, obs_gramian, weight_propagate
from .model import LinearSdeModel, frobenius_pairing, regularity_check

__all__ = [
    "WeightCurve",
    "AsymptoticReport",
    "weight_curve",
    "weight_F",
    "weight_S",
    "phi_functional",
    "ups_functional",
    "functional_quadrature_bound",
    "min_phi_value",
    "min_ups_value",
    "optimal_profile",
    "asymptotic_report",
    "limit_sigma",
    "ou_closed_forms",
    "OuClosedForms",
]


@dataclass(frozen=True)
class WeightCurve:
    """Weight samples on the density mesh; kind is 'terminal' or 'integral'."""

    kind: str
    mesh: np.ndarray
    values: np.ndarray


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


def _simpson(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Composite Simpson rule over axis 0 on a uniform mesh with an even panel count."""
    w = np.full(len(x), 2.0)
    w[1::2] = 4.0
    w[[0, -1]] = 1.0
    return (x[1] - x[0]) / 3.0 * np.tensordot(w, y, 1)


_CURVE_CACHE: dict = {}


def _curves(model: LinearSdeModel) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Mesh, F, S and the Gramians Q_t on the standard mesh, cached for the last model.

    One batched kernel call over s = T - t on the mesh gives exp(sA^T) and
    Q_s; then R_s = exp(sA^T) M exp(sA), F = <mho, R> and S = <mho, Q>.
    The cache holds one model: a three-grid optimal-grid convergence sweep
    asks for the curves five times (each grid, then the density and the
    functional of its limit row), and an uncached 4x4 build takes some
    35 ms.  Single-point weight_F / weight_S evaluate one step length each.
    """
    key = (
        model.A.tobytes(),
        model.B.tobytes(),
        model.M.tobytes(),
        float(model.T),
    )
    hit = _CURVE_CACHE.get(key)
    if hit is not None:
        return hit
    mesh = np.linspace(0.0, model.T, MESH_PANELS + 1)
    e, _, _, Q = _transition(model.A.T, model.M, mesh)
    Um = mho(model.A, model.D).reshape(-1)
    L = mesh.size
    Fs = (e @ model.M @ e.swapaxes(1, 2)).reshape(L, -1) @ Um
    Ss = Q.reshape(L, -1) @ Um
    # s = T - t: reverse onto the t axis and clip tiny negative roundoff
    F = np.clip(Fs[::-1], 0.0, None)
    S = np.clip(Ss[::-1], 0.0, None)
    out = (mesh, F, S, Q)
    _CURVE_CACHE.clear()  # keep one model's curves: commands ask for one at a time
    _CURVE_CACHE[key] = out
    return out


def _weight(model: LinearSdeModel, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Mesh and the weight curve of the given kind, refusing any other kind."""
    if kind not in ("terminal", "integral"):
        raise ValueError("kind must be 'terminal' or 'integral'")
    mesh, F, S, _ = _curves(model)
    return mesh, F if kind == "terminal" else S


def weight_curve(model: LinearSdeModel, kind: str) -> WeightCurve:
    """Sampled weight curve of the requested kind on the standard mesh."""
    mesh, w = _weight(model, kind)
    return WeightCurve(kind=kind, mesh=mesh, values=w)


def weight_F(model: LinearSdeModel, t: float) -> float:
    """Terminal weight F_t = <mho, R_{T-t}> = (1/12)||sqrt(M) e^{(T-t)A} A B||^2."""
    t = float(t)
    if not 0.0 <= t <= model.T:
        raise ValueError("t must lie in [0, T]")
    R = weight_propagate(model.A, model.M, model.T - t)
    return frobenius_pairing(mho(model.A, model.D), R)


def weight_S(model: LinearSdeModel, t: float) -> float:
    """Integral weight S_t = <mho, Q_{T-t}>; equals the tail integral of F."""
    t = float(t)
    if not 0.0 <= t <= model.T:
        raise ValueError("t must lie in [0, T]")
    Q = obs_gramian(model.A, model.M, model.T - t)
    return frobenius_pairing(mho(model.A, model.D), Q)


def _check_density(model: LinearSdeModel, psi: GridDensity) -> None:
    if psi.T != model.T:
        raise ValueError("density horizon does not match the model")


def phi_functional(model: LinearSdeModel, psi: GridDensity) -> float:
    """Terminal limit functional Phi_T(psi) = int F / psi^2.

    The terminal functional needs a density bounded away from zero on the
    whole closed interval; densities vanishing at T are refused.
    """
    _check_density(model, psi)
    if psi.values[-1] == 0.0:
        raise ValueError("terminal functional requires psi > 0 on all of [0, T]")
    mesh, F = _weight(model, "terminal")
    return float(_simpson(F / psi.values**2, mesh))


def ups_functional(model: LinearSdeModel, psi: GridDensity) -> float:
    """Integral limit functional Ups_T(psi) = int S / psi^2.

    Densities with psi(T) = 0 are accepted: S_T = 0 and the integrand
    extends continuously (like (T-t)^{1/3} for the optimal profile).  Any
    zero of psi where S is still positive makes the integral diverge and
    is refused.
    """
    _check_density(model, psi)
    mesh, S = _weight(model, "integral")
    zero = psi.values == 0.0
    if np.any(zero & (S > 1e-14 * max(S.max(), 1e-300))):
        raise ValueError("density vanishes where the integral weight is positive")
    integrand = np.zeros_like(S)
    np.divide(S, psi.values**2, out=integrand, where=~zero)
    return float(_simpson(integrand, mesh))


def functional_quadrature_bound(model: LinearSdeModel, psi: GridDensity, kind: str) -> float:
    """Documented quadrature error estimate for the functional value.

    The Simpson-trapezoid gap on the evaluation mesh; it dominates the
    true quadrature error for these piecewise-smooth integrands.
    """
    _check_density(model, psi)
    mesh, w = _weight(model, kind)
    zero = psi.values == 0.0
    integrand = np.zeros_like(w)
    np.divide(w, psi.values**2, out=integrand, where=~zero)
    return float(abs(_simpson(integrand, mesh) - np.trapezoid(integrand, x=mesh)))


def _min_value(model: LinearSdeModel, kind: str) -> float:
    mesh, w = _weight(model, kind)
    if not np.any(w > 0):
        # identically zero weight: the functional floor is exactly zero
        return 0.0
    if not regularity_check(model).satisfied:
        raise ValueError(
            "optimal-grid theory needs the regularity determinant to be positive"
        )
    return float(_simpson(np.cbrt(w), mesh)) ** 3


def min_phi_value(model: LinearSdeModel) -> float:
    """Minimum of Phi over densities: (int F^{1/3})^3."""
    return _min_value(model, "terminal")


def min_ups_value(model: LinearSdeModel) -> float:
    """Infimum of Ups over densities: (int S^{1/3})^3."""
    return _min_value(model, "integral")


def optimal_profile(model: LinearSdeModel, kind: str) -> tuple[GridDensity, np.ndarray]:
    """Cube-root-law density and its cumulative (the grid profile inverse).

    Returns density_from_weight(w) for w = F or S together with the
    sampled normalised cumulative, i.e. the inverse of the time profile
    that quantile grids realise.
    """
    _, w = _weight(model, kind)
    if not regularity_check(model).satisfied:
        raise ValueError(
            "optimal-grid theory needs the regularity determinant to be positive"
        )
    psi = density_from_weight(model.T, w)
    return psi, psi.cumulative.copy()


def asymptotic_report(model: LinearSdeModel, psi: GridDensity, kind: str) -> AsymptoticReport:
    """Evaluate a density against the theoretical floor of its functional."""
    if kind == "terminal":
        value = phi_functional(model, psi)
    elif kind == "integral":
        value = ups_functional(model, psi)
    else:
        raise ValueError("kind must be 'terminal' or 'integral'")
    minimum = _min_value(model, kind)
    _, w = _weight(model, kind)
    bound = model.T**3 * float(w.min())
    ratio = value / minimum if minimum > 0 else math.inf if value > 0 else 1.0
    return AsymptoticReport(kind=kind, value=value, minimum=minimum, lower_bound=bound, ratio=ratio)


def _phi_prime(psi: GridDensity, u: np.ndarray) -> np.ndarray:
    """Derivative of the time profile phi = Psi^{-1}: 1 / psi(phi(u))."""
    return 1.0 / psi.psi_at(psi.profile(u))


def limit_sigma(
    model: LinearSdeModel, psi: GridDensity, tau: float, route: str = "ode"
) -> np.ndarray:
    """Limit covariance Sigma(tau) of the rescaled recursion N^2 Sigma_{floor(N tau)}.

    route='ode' integrates the Lyapunov ODE
        Sigma' = phi'(v) (A Sigma + Sigma A^T) + phi'(v)^3 mho
    with classical RK4 on 4096 steps; route='integral' evaluates
        int_0^tau exp((phi(tau)-phi(v)) A) mho exp(...)^T phi'(v)^3 dv
    by Simpson quadrature on 4097 nodes, whose exponentials come from one
    batched expm call.  The two routes share nothing but phi and are
    cross-checked in tests.  Requires a density bounded away from zero
    (phi' finite on [0, 1]).
    """
    if route not in ("ode", "integral"):
        raise ValueError("route must be 'ode' or 'integral'")
    _check_density(model, psi)
    tau = float(tau)
    if not 0.0 <= tau <= 1.0:
        raise ValueError("tau must lie in [0, 1]")
    if psi.values[-1] == 0.0:
        raise ValueError("limit covariance requires psi > 0 on all of [0, T]")
    n = model.n
    if tau == 0.0:
        return np.zeros((n, n))
    Um = mho(model.A, model.D)
    A = model.A
    steps = 4096
    if route == "ode":
        # phi' at the 2*steps+1 half-step nodes used by RK4
        u = np.linspace(0.0, tau, 2 * steps + 1)
        dp = _phi_prime(psi, u)
        hv = tau / steps
        S = np.zeros((n, n))

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
    v = np.linspace(0.0, tau, steps + 1)
    phit = psi.profile(v)
    E = expm(A, phit[-1] - phit)
    terms = E @ Um @ E.swapaxes(1, 2) * _phi_prime(psi, v)[:, None, None] ** 3
    S = _simpson(terms, v)
    return 0.5 * (S + S.T)


@dataclass(frozen=True)
class OuClosedForms:
    """Analytic scalar Ornstein-Uhlenbeck reference values."""

    g_inf: float
    min_phi: float
    phi_uniform: float
    ratio: float
    ratio_asymptote: float


def ou_closed_forms(model: LinearSdeModel) -> OuClosedForms:
    """Closed-form optimum, uniform value, and their ratio for scalar OU.

    Requires n = m = 1, A < 0, B != 0, M = 1.  With G_inf = -D/(2A):
    min Phi = (9/16) G_inf (1 - e^{2AT/3})^3,
    Phi(uniform) = (1/12) G_inf (AT)^2 (1 - e^{2AT}),
    ratio = (4/27)(AT)^2 (1 - e^{2AT}) / (1 - e^{2AT/3})^3, whose large-T
    asymptote is (4/27)(AT)^2.
    """
    if model.n != 1 or model.m != 1:
        raise ValueError("closed forms require a scalar model")
    a = float(model.A[0, 0])
    b = float(model.B[0, 0])
    if not (a < 0 and b != 0 and float(model.M[0, 0]) == 1.0):
        raise ValueError("closed forms require A < 0, B != 0, M = 1")
    d = float(model.D[0, 0])
    T = model.T
    g_inf = -d / (2.0 * a)
    min_phi = (9.0 / 16.0) * g_inf * (1.0 - math.exp(2.0 * a * T / 3.0)) ** 3
    phi_uniform = (1.0 / 12.0) * g_inf * (a * T) ** 2 * (1.0 - math.exp(2.0 * a * T))
    ratio = phi_uniform / min_phi
    return OuClosedForms(
        g_inf=g_inf,
        min_phi=min_phi,
        phi_uniform=phi_uniform,
        ratio=ratio,
        ratio_asymptote=(4.0 / 27.0) * (a * T) ** 2,
    )
