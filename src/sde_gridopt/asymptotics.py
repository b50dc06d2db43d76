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

Both functionals read one integrand rule: a density may vanish only where
its weight is below 1e-14 of the weight's maximum, and the integrand is
0 there (its limit); any other zero of psi makes the functional infinite
and is refused.  So Ups_T accepts the integral-optimal profile, which
pinches at T where S_T = 0, and Phi_T refuses it unless F_T is as small.

Quadrature is composite Simpson on the shared density mesh.  Densities are
piecewise linear, so integrands have kinks at mesh nodes, where Simpson is
only second order.  Two known gaps follow (ROADMAP.md, open items 1 and 2):

* The error estimate of functional_quadrature_bound, the Simpson-trapezoid
  gap on the same mesh, does not bound the actual error.  On the scalar OU
  model (A = -1, B = M = 1, T = 1) and its terminal-optimal density it
  reports 7.15e-11 against an actual error of 1.43e-10.
* For the exact cube-root density the integral-kind integrand behaves like
  (T-t)^{1/3} near T.  The stored integral-optimal density is the
  piecewise-linear interpolant of S^{1/3} and falls linearly to 0 on its
  last panel, where S falls linearly too, so its integrand grows like
  1 / (T-t) there and Ups_T of that density diverges logarithmically.  The
  integrand rule sets the node at T to 0 and Simpson returns a finite
  value: on the OU model ups_functional comes out 1.44e-7 below
  min_ups_value, which Hoelder's inequality rules out, while
  functional_quadrature_bound reports 7.2e-8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import MESH_PANELS, GridDensity, density_from_weight
from .matfun import _Tc, _right, _transition, expm, mho
from .model import LinearSdeModel, regularity_check

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


def _weights(model: LinearSdeModel, s) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """F, S and the Gramians Q_s at time-to-go s = T - t, from one kernel call.

    One batched kernel call over the 1-D array s gives exp(sA^T) and Q_s;
    then R_s = exp(sA^T) M exp(sA), F = <mho, R> and S = <mho, Q>, with
    tiny negative roundoff clipped to 0.  Row i depends on s[i] alone.
    """
    e, _, _, Q = _transition(model.A.T, model.M, s)
    Um = mho(model.A, model.D).reshape(-1)
    L = e.shape[0]
    F = (_right(e, model.M) @ _Tc(e)).reshape(L, -1) @ Um
    S = Q.reshape(L, -1) @ Um
    return np.clip(F, 0.0, None), np.clip(S, 0.0, None), Q


_CURVE_CACHE: dict = {}


def _curves(model: LinearSdeModel) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Mesh, F, S and the Gramians Q_t on the standard mesh, cached for the last model.

    ``_weights`` over s = the mesh, with F and S reversed onto the t axis.
    The cache holds one model: a three-grid optimal-grid convergence sweep
    asks for the curves five times (each grid, then the density and the
    functional of its limit row), and an uncached 4x4 build takes some
    35 ms.
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
    F, S, Q = _weights(model, mesh)
    out = (mesh, F[::-1].copy(), S[::-1].copy(), Q)
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


def _weights_at(model: LinearSdeModel, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    t = float(t)
    if not 0.0 <= t <= model.T:
        raise ValueError("t must lie in [0, T]")
    return _weights(model, [model.T - t])


def weight_F(model: LinearSdeModel, t: float) -> float:
    """Terminal weight F_t = <mho, R_{T-t}> = (1/12)||sqrt(M) e^{(T-t)A} A B||^2."""
    return float(_weights_at(model, t)[0][0])


def weight_S(model: LinearSdeModel, t: float) -> float:
    """Integral weight S_t = <mho, Q_{T-t}>; equals the tail integral of F."""
    return float(_weights_at(model, t)[1][0])


def _check_density(model: LinearSdeModel, psi: GridDensity) -> None:
    if psi.T != model.T:
        raise ValueError("density horizon does not match the model")


def _require_regular(model: LinearSdeModel) -> None:
    if not regularity_check(model).satisfied:
        raise ValueError("optimal-grid theory needs the regularity determinant to be positive")


def _integrand(model: LinearSdeModel, psi: GridDensity, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Mesh and the integrand w / psi^2 of the functional of the given kind.

    The divergence rule of the module docstring: psi = 0 is refused where
    w > 1e-14 max(w), and the integrand is 0 wherever psi = 0.
    """
    _check_density(model, psi)
    mesh, w = _weight(model, kind)
    zero = psi.values == 0.0
    if np.any(zero & (w > 1e-14 * max(w.max(), 1e-300))):
        raise ValueError(f"density vanishes where the {kind} weight is positive")
    integrand = np.zeros_like(w)
    np.divide(w, psi.values**2, out=integrand, where=~zero)
    return mesh, integrand


def phi_functional(model: LinearSdeModel, psi: GridDensity) -> float:
    """Terminal limit functional Phi_T(psi) = int F / psi^2, by the module's integrand rule."""
    mesh, integrand = _integrand(model, psi, "terminal")
    return float(_simpson(integrand, mesh))


def ups_functional(model: LinearSdeModel, psi: GridDensity) -> float:
    """Integral limit functional Ups_T(psi) = int S / psi^2, by the module's integrand rule.

    The integral-optimal density has psi(T) = 0 where S_T = 0; its
    integrand is 0 at T by the rule, though it grows toward T on the last
    panel (the second known gap of the module docstring).
    """
    mesh, integrand = _integrand(model, psi, "integral")
    return float(_simpson(integrand, mesh))


def functional_quadrature_bound(model: LinearSdeModel, psi: GridDensity, kind: str) -> float:
    """Quadrature error estimate for the functional value.

    The Simpson-trapezoid gap on the evaluation mesh.  It is an estimate,
    not a bound: on the terminal-optimal density of the OU model it is half
    the actual error (the first known gap of the module docstring).  The
    density is judged by the same integrand rule as the functional.
    """
    mesh, integrand = _integrand(model, psi, kind)
    return float(abs(_simpson(integrand, mesh) - np.trapezoid(integrand, x=mesh)))


def _min_value(model: LinearSdeModel, kind: str) -> float:
    mesh, w = _weight(model, kind)
    if not np.any(w > 0):
        # identically zero weight: the functional floor is exactly zero
        return 0.0
    _require_regular(model)
    return float(_simpson(np.cbrt(w), mesh)) ** 3


def min_phi_value(model: LinearSdeModel) -> float:
    """Minimum of Phi over densities: (int F^{1/3})^3."""
    return _min_value(model, "terminal")


def min_ups_value(model: LinearSdeModel) -> float:
    """Infimum of Ups over densities: (int S^{1/3})^3."""
    return _min_value(model, "integral")


def optimal_profile(model: LinearSdeModel, kind: str) -> GridDensity:
    """Cube-root-law density density_from_weight(w) for w = F or S.

    Its ``cumulative`` samples the inverse of the time profile that
    quantile grids realise.
    """
    _, w = _weight(model, kind)
    _require_regular(model)
    return density_from_weight(model.T, w)


def asymptotic_report(model: LinearSdeModel, psi: GridDensity, kind: str) -> AsymptoticReport:
    """Evaluate a density against the theoretical floor of its functional."""
    mesh, integrand = _integrand(model, psi, kind)
    value = float(_simpson(integrand, mesh))
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
    terms = _right(E, Um) @ _Tc(E) * _phi_prime(psi, v)[:, None, None] ** 3
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
