"""Fine-grid limit theory: weight curves, error functionals, optima.

As the number of steps N grows, the rescaled errors of the conditional
recursion converge to integral functionals of the grid density psi:

    N^2 T_N -> Phi_T(psi) = int_0^T F_t / psi(t)^2 dt,
    N^2 I_N -> Ups_T(psi) = int_0^T S_t / psi(t)^2 dt,

with weights F_t = <mho, R_{T-t}> and S_t = <mho, Q_{T-t}>.  By the
Hoelder argument both functionals are minimised by densities proportional
to the cube root of their weight, giving the optimal values
(int w^{1/3})^3.  The limit covariance Sigma(tau) of the rescaled
recursion is computed from its explicit integral; the tests hold the
Lyapunov ODE route as an independent oracle for it.

Both functionals read one integrand rule: a density may vanish only where
its weight is below 1e-14 of the weight's maximum, and the integrand is
0 there (its limit); any other zero of psi makes the functional infinite
and is refused.  So Ups_T accepts the integral-optimal profile, which
pinches at T where S_T = 0, and Phi_T refuses it unless F_T is as small.

Quadrature is composite Simpson on the curves' mesh of 4,096 panels, where
a density on any uniform mesh is read through ``psi_at`` (exactly, at its
own nodes).  Densities are piecewise linear, so integrands have kinks at
their nodes, where Simpson is only second order.  Two known gaps follow
(ROADMAP.md, open items 1 and 2):

* No functional carries an error estimate, and the cheap one does not
  bound the error: on the scalar OU model (A = -1, B = M = 1, T = 1) and
  its terminal-optimal density, phi_functional is 1.43e-10 above the
  exact value, and the Simpson-trapezoid gap on the same mesh is 7.15e-11.
* For the exact cube-root density the integral-kind integrand behaves like
  (T-t)^{1/3} near T.  The stored integral-optimal density is the
  piecewise-linear interpolant of S^{1/3} and falls linearly to 0 on its
  last panel, where S falls linearly too, so its integrand grows like
  1 / (T-t) there and Ups_T of that density diverges logarithmically.  The
  integrand rule sets the node at T to 0 and Simpson returns a finite
  value: on the OU model ups_functional comes out 1.44e-7 below
  min_ups_value, which Hoelder's inequality rules out, while the
  Simpson-trapezoid gap is 7.2e-8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import GridDensity, _real, density_from_weight
from .matfun import _gramian, _Tc, _right, _sym, _transition, expm, mho
from .model import LinearSdeModel, regularity_check

__all__ = [
    "weight_curve",
    "phi_functional",
    "ups_functional",
    "min_phi_value",
    "min_ups_value",
    "optimal_profile",
    "limit_sigma",
    "ou_closed_forms",
    "OuClosedForms",
]


def _simpson(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Composite Simpson rule over axis 0 on a uniform mesh with an even panel count."""
    w = np.full(len(x), 2.0)
    w[1::2] = 4.0
    w[[0, -1]] = 1.0
    return (x[1] - x[0]) / 3.0 * np.tensordot(w, y, 1)


def _weights(model: LinearSdeModel, e: np.ndarray, Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """F and S from (L, n, n) stacks of exp(sA^T) and the Gramians Q_s.

    R_s = exp(sA^T) M exp(sA), F = <mho, R> and S = <mho, Q>, with tiny
    negative roundoff clipped to 0.  Row i reads row i of e and Q alone.
    """
    Um = mho(model.A, model.D).reshape(-1)
    L = e.shape[0]
    F = (_right(e, model.M) @ _Tc(e)).reshape(L, -1) @ Um
    S = Q.reshape(L, -1) @ Um
    return np.clip(F, 0.0, None), np.clip(S, 0.0, None)


_ROOT = 64  # _mesh_transition's offsets and anchors
_PANELS = _ROOT**2  # the curves' mesh: 4,096 uniform panels on [0, T]


def _mesh_transition(A: np.ndarray, D: np.ndarray, s: np.ndarray, kt: bool = False):
    """exp(sA), G_s and, if kt, K_s on the curves' mesh s = i h, i = 0..b^2, from 2b kernel rows.

    b = _ROOT.  One kernel call gives the offsets o = r h (r = 1..b) and the
    anchors a = b j h (j = 0..b-1); row i = b j + r then follows from the
    semigroup, exp((a+o)A) = exp(oA) exp(aA) and
    G_{a+o} = G_o + exp(oA) G_a exp(oA^T), and from the law of total
    covariance over the sub-steps a then o,

        K_{a+o} (a+o)^3 = exp(oA) K_a a^3 exp(oA^T) + K_o o^3
                          + (a o / (a+o)) V D V^T,  V = exp(oA) E(aA) - E(oA),

    whose terms are all PSD.  V is summed as E(aA) - E(oA) + o A E(oA) E(aA),
    since exp(oA) = I + o A E(oA); that cancels fewer digits, and at a = o it
    is o A E E, so the kernel's doubling step (_transition) is the case a = o.
    What V still cancels costs about eps / ((a+o) ||A||) relative, and
    a + o > b h wherever V's weight a o / (a+o) is not 0.  Row 0 is
    (I, 0, K_0), K_0 = mho from the anchor a = 0.  Each row is one product
    of two kernel rows, so it keeps about the kernel's accuracy, where
    composing i equal steps would grow its rounding with i (Higham,
    Functions of Matrices, SIAM 2008, ch. 10).  Returns (e, G, K), with K
    None unless asked for: the curves read no K, and composing it would take
    the sys4 build from 1.5 to 3.7 ms (2-core Xeon, numpy 2.4), against a
    sys4 convergence_s of about 48 ms whose quartiles lie 2 ms apart.
    """
    b, n = _ROOT, A.shape[0]
    t = np.concatenate((s[1 : b + 1], s[:-1:b]))
    e, E, K = _transition(A, D, t)
    G = _gramian(E, K, D, t)
    eo, Go, ea, Ga = e[:b], G[:b], e[b:, None], G[b:, None]
    e_s = np.empty((b * b + 1, n, n))
    G_s = np.empty_like(e_s)
    e_s[0], G_s[0] = np.eye(n), 0.0
    np.matmul(eo, ea, out=e_s[1:].reshape(b, b, n, n))  # [j, r-1] is row b j + r
    blocks = G_s[1:].reshape(b, b, n, n)
    np.matmul(eo @ Ga, _Tc(eo), out=blocks)
    blocks += Go
    if not kt:
        return e_s, _sym(G_s), None
    o, a = t[:b, None, None], t[b:, None, None]
    Ea = E[b:, None]
    V = Ea - E[:b] + (o * (A @ E[:b])) @ Ea
    K_s = np.empty_like(e_s)
    K_s[0] = K[b]
    blocks = K_s[1:].reshape(b, b, n, n)
    np.matmul(eo @ (K[b:] * a**3)[:, None], _Tc(eo), out=blocks)
    blocks += K[:b] * o**3
    a = a[:, None]  # the anchors index the blocks' first axis
    blocks += a * o / (a + o) * (_right(V, D) @ _Tc(V))
    blocks /= (a + o) ** 3
    return e_s, _sym(G_s), _sym(K_s)


_CURVE_CACHE: dict = {}


def weight_curve(model: LinearSdeModel) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Mesh, F, S and the Gramians Q_t on the curves' mesh, cached for the last model.

    ``_weights`` over ``_mesh_transition(A^T, M)`` at s = the mesh, with F and S
    reversed onto the t axis.  The cache holds one model: a three-grid
    optimal-grid convergence sweep asks for the curves five times (each
    grid, then the density and the functional of its limit row), and
    uncached, that sweep took 34-37 ms against 24-26 ms on the 4x4 model.
    A second call for the same model returns the same tuple, and its arrays
    are read-only, as every caller shares them.
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
    mesh = np.linspace(0.0, model.T, _PANELS + 1)
    e, Q, _ = _mesh_transition(model.A.T, model.M, mesh)
    F, S = _weights(model, e, Q)
    out = (mesh, F[::-1].copy(), S[::-1].copy(), Q)
    for arr in out:
        arr.flags.writeable = False
    _CURVE_CACHE.clear()  # keep one model's curves: commands ask for one at a time
    _CURVE_CACHE[key] = out
    return out


def _weight(model: LinearSdeModel, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Mesh and the weight F (kind 'terminal') or S ('integral'); no other kind."""
    if kind not in ("terminal", "integral"):
        raise ValueError("kind must be 'terminal' or 'integral'")
    mesh, F, S, _ = weight_curve(model)
    return mesh, F if kind == "terminal" else S


def _check_density(model: LinearSdeModel, psi: GridDensity) -> None:
    if psi.T != model.T:
        raise ValueError("density horizon does not match the model")


def _require_regular(model: LinearSdeModel) -> None:
    if not regularity_check(model).satisfied:
        raise ValueError("optimal-grid theory needs the regularity determinant to be positive")


def _integrand(model: LinearSdeModel, psi: GridDensity, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Mesh and the integrand w / psi^2 of the functional of the given kind.

    The divergence rule of the module docstring, on psi read at the curves'
    nodes: psi = 0 is refused where w > 1e-14 max(w), and the integrand is 0 there.
    """
    _check_density(model, psi)
    mesh, w = _weight(model, kind)
    p = psi.psi_at(mesh)
    zero = p == 0.0
    if np.any(zero & (w > 1e-14 * max(w.max(), 1e-300))):
        raise ValueError(f"density vanishes where the {kind} weight is positive")
    integrand = np.zeros_like(w)
    np.divide(w, p**2, out=integrand, where=~zero)
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

    It lives on the curves' mesh.  Its ``cumulative`` samples the inverse
    of the time profile that quantile grids realise.
    """
    _, w = _weight(model, kind)
    _require_regular(model)
    return density_from_weight(model.T, w)


def limit_sigma(model: LinearSdeModel, psi: GridDensity, tau: float) -> np.ndarray:
    """Limit covariance Sigma(tau) of the rescaled recursion N^2 Sigma_{floor(N tau)}.

    Evaluates the explicit integral
        int_0^tau exp((phi(tau)-phi(v)) A) mho exp(...)^T phi'(v)^3 dv,
    with phi = Psi^{-1} the time profile and phi' = 1 / psi(phi), by
    Simpson quadrature on as many nodes of [0, tau] as the curves' mesh has,
    whose exponentials come from one batched expm call.  It solves the Lyapunov ODE
        Sigma' = phi'(v) (A Sigma + Sigma A^T) + phi'(v)^3 mho,  Sigma(0) = 0,
    which the tests integrate by RK4 as an independent check.  Requires a
    density bounded away from zero (phi' finite on [0, 1]).
    """
    _check_density(model, psi)
    tau = _real(tau, "tau")
    if not 0.0 <= tau <= 1.0:
        raise ValueError("tau must lie in [0, 1]")
    if psi.values[-1] == 0.0:
        raise ValueError("limit covariance requires psi > 0 on all of [0, T]")
    if tau == 0.0:
        return np.zeros((model.n, model.n))
    v = np.linspace(0.0, tau, _PANELS + 1)
    phit = psi.profile(v)
    E = expm(model.A, phit[-1] - phit)
    dphi = 1.0 / psi.psi_at(phit)
    terms = _right(E, mho(model.A, model.D)) @ _Tc(E) * dphi[:, None, None] ** 3
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
