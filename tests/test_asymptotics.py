import inspect
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson, quad
from scipy.linalg import expm

from sde_gridopt import (
    GridDensity,
    LinearSdeModel,
    asymptotics,
    density_from_weight,
    frobenius_pairing,
    grid_from_density,
    limit_sigma,
    mho,
    min_phi_value,
    min_ups_value,
    optimal_profile,
    ou_closed_forms,
    phi_functional,
    uniform_density,
    ups_functional,
    weight_curve,
)
from sde_gridopt.cli import parse_config
from sde_gridopt.matfun import KT_BRANCH_THRESHOLD

from helpers import (
    asymptotic_report,
    cum_at,
    functional_quadrature_bound,
    kt_oracle,
    limit_sigma_ode,
    random_regular_model,
    weight_F,
    weight_rows,
    weight_S,
)

J = asymptotics._PANELS  # the curves' panel count
MESH = np.linspace(0.0, 1.0, J + 1)  # the curves' mesh on [0, 1]


@pytest.fixture(scope="module")
def reg2():
    return random_regular_model(np.random.default_rng(2024), n=2, m=2)


@pytest.fixture(scope="module")
def flat2():
    """Zero-drift model: every weight and functional must vanish."""
    return LinearSdeModel(A=np.zeros((2, 2)), B=np.eye(2), M=np.eye(2), T=1.0)


def ou_F(t):
    # F_t = <mho, e^{(T-t)A^T} M e^{(T-t)A}> = e^{-2(1-t)} / 12
    return math.exp(-2.0 * (1.0 - t)) / 12.0


def ou_S(t):
    # S_t = int_t^1 F = (1 - e^{-2(1-t)}) / 24
    return (1.0 - math.exp(-2.0 * (1.0 - t))) / 24.0


class TestWeights:
    def test_terminal_weight_closed_form(self, ou):
        for t in (0.0, 0.3, 0.77, 1.0):
            assert weight_F(ou, t) == pytest.approx(ou_F(t), rel=1e-10)
        assert weight_F(ou, 1.0) == pytest.approx(1.0 / 12.0, rel=1e-13)

    def test_integral_weight_closed_form(self, ou):
        for t in (0.0, 0.3, 0.77):
            assert weight_S(ou, t) == pytest.approx(ou_S(t), rel=1e-10)
        assert weight_S(ou, 1.0) == 0.0

    def test_integral_weight_is_tail_integral_of_terminal(self, reg2):
        # two independent routes: Gramian pairing vs adaptive quadrature of F
        for t in (0.0, 0.25, 0.6, 0.9):
            tail, _ = quad(lambda u: weight_F(reg2, u), t, reg2.T, limit=100)
            assert weight_S(reg2, t) == pytest.approx(tail, rel=1e-9)

    def test_zero_drift_weights_vanish(self, flat2):
        assert weight_F(flat2, 0.4) == 0.0
        assert weight_S(flat2, 0.4) == 0.0

    def test_domain_errors(self, ou):
        for bad in (-0.1, 1.1):
            with pytest.raises(ValueError):
                weight_F(ou, bad)
            with pytest.raises(ValueError):
                weight_S(ou, bad)


class TestWeightCurve:
    def test_cache_keeps_last_model_only(self, ou, reg2):
        first = weight_curve(ou, "terminal").values.copy()
        weight_curve(reg2, "integral")
        assert len(asymptotics._CURVE_CACHE) == 1
        assert np.array_equal(weight_curve(ou, "terminal").values, first)
        assert len(asymptotics._CURVE_CACHE) == 1

    def test_kind_validation(self, ou):
        with pytest.raises(ValueError):
            weight_curve(ou, "therminal")

    def test_cached_curves_are_read_only(self, ou):
        # a caller that scales a returned curve must not change the cached one
        before = min_phi_value(ou)
        for kind in ("terminal", "integral"):
            curve = weight_curve(ou, kind)
            for arr in (curve.mesh, curve.values):
                with pytest.raises(ValueError, match="read-only"):
                    arr[:] *= 8
        assert not any(arr.flags.writeable for arr in asymptotics._curves(ou))
        assert min_phi_value(ou) == before

    def test_curve_matches_single_point_route(self, ou, reg2):
        # oracle: F from scipy's exponential, S as the quad tail integral of
        # that F; the single-point weight_F / weight_S must agree too
        for model in (ou, reg2):
            Um = mho(model.A, model.D)

            def F_ref(t):
                E = expm((model.T - t) * model.A)
                return frobenius_pairing(Um, E.T @ model.M @ E)

            F = weight_curve(model, "terminal")
            S = weight_curve(model, "integral")
            assert F.mesh.shape == (J + 1,)
            idx = np.linspace(0, J, 11).astype(int)
            for i in idx:
                t = F.mesh[i]
                S_ref = quad(F_ref, t, model.T, epsabs=1e-15, epsrel=1e-12)[0]
                assert F.values[i] == pytest.approx(F_ref(t), rel=1e-9, abs=1e-15)
                assert S.values[i] == pytest.approx(S_ref, rel=1e-9, abs=1e-15)
                assert F.values[i] == pytest.approx(weight_F(model, t), rel=1e-9, abs=1e-15)
                assert S.values[i] == pytest.approx(weight_S(model, t), rel=1e-9, abs=1e-15)
            assert S.values[-1] == 0.0

    def test_single_point_weights_equal_curve(self):
        # two routes to the curve: the semigroup build, and weight_F / weight_S,
        # one kernel row at T - t each; measured, they part by at most 8.05
        # eps of the curve's maximum (F on reg3), and scipy's expm puts F at
        # most 5.9 eps from either, so both are held to 16 eps, a margin of 2
        workloads = Path(__file__).parents[1] / "perfbench" / "workloads"
        sys4 = parse_config(str(workloads / "sys4-uniform.cfg")).model
        reg3 = random_regular_model(np.random.default_rng(3), n=3)
        eps = np.finfo(float).eps
        for model in (sys4, reg3):
            Um = mho(model.A, model.D)
            for kind, single in (("terminal", weight_F), ("integral", weight_S)):
                curve = weight_curve(model, kind)
                tol = 16 * eps * curve.values.max()
                for t, value in zip(curve.mesh[::7], curve.values[::7]):
                    one = single(model, t)
                    assert abs(one - value) <= tol
                    if kind == "terminal":
                        E = expm((model.T - t) * model.A)
                        ref = frobenius_pairing(Um, E.T @ model.M @ E)
                        assert abs(value - ref) <= tol
                        assert abs(one - ref) <= tol

    def test_uncached_build_makes_one_128_row_kernel_call(self, ou, monkeypatch):
        # 64 offsets and 64 anchors, J = 64^2; the semigroup gives the rest
        calls = []
        real = asymptotics._transition

        def counting(A, D, t):
            calls.append(len(t))
            return real(A, D, t)

        monkeypatch.setattr(asymptotics, "_CURVE_CACHE", {})
        monkeypatch.setattr(asymptotics, "_transition", counting)
        mesh, F, S, Q = asymptotics._curves(ou)
        assert calls == [128]
        assert F.shape == S.shape == (J + 1,) and Q.shape == (J + 1, 1, 1)
        assert Q[0, 0, 0] == 0.0 and F[-1] == pytest.approx(1.0 / 12.0, rel=1e-15)

    def test_tail_integral_identity_on_curve(self, ou, reg2):
        # int_t^T F du == S_t along the whole mesh
        for model in (ou, reg2):
            F = weight_curve(model, "terminal")
            S = weight_curve(model, "integral")
            cum = cumulative_simpson(F.values, x=F.mesh, initial=0.0)
            tail = cum[-1] - cum
            assert np.max(np.abs(tail - S.values)) <= 1e-8 * S.values[0]

    def test_positivity_under_regularity(self):
        rng = np.random.default_rng(7)
        for n in (2, 3):
            model = random_regular_model(rng, n=n, m=n)
            F = weight_curve(model, "terminal").values
            S = weight_curve(model, "integral").values
            assert np.all(F > 0)
            assert np.all(S[:-1] > 0)


# Models where anchoring the curves every 64 rows could lose digits, with the
# gaps measured on them, in eps of the reference's maximum: F and S against
# the per-row kernel route, F against scipy's expm, Q against the per-row
# kernel.  Each is held to SEMIGROUP_MARGIN times its gap (at least 1 eps).
# The stiff Q gap is the kernel's own: its exp(oA) at the 64 offsets carries
# a relative error in exp(-o) that grows with the doubling count the stiff
# mode sets (42 eps at o = 1/64), and the semigroup passes it on to Q_s.
SEMIGROUP_MARGIN = 2.0
SEMIGROUP_MODELS = {
    "stiff": (np.diag([-1.0, -1000.0]), np.eye(2), 1.0, (0.004, 11.6, 1.8, 192.0)),
    "non-normal": (np.array([[-1.0, 50.0], [0.0, -2.0]]), np.eye(2), 1.0, (76.4, 14.6, 33.8, 9.9)),
    "growing-ou": (np.array([[3.0]]), np.eye(1), 5.0, (314.0, 33.0, 108.7, 32.8)),
}


# The gramian table's G_t and K_t come from the same build over (A, D).  Gaps
# measured against the per-row kernel route, in eps of each mesh row's
# largest reference entry, as (G, K); each is held to SEMIGROUP_MARGIN times
# its gap, and never below GAP_FLOOR eps.  K's gap comes from
# V = exp(oA) E(aA) - E(oA), which cancels to about (a+o) ||A|| in the first
# anchor block (rows b+1..2b); the stiff G gap is the kernel's slow-mode
# exp(oA) error, as for Q above.  The gaps were read on one numpy (2.4); the
# floor leaves room for another BLAS summation order, which moves each of a
# row's few n-term products (n <= 4 here) by up to n eps of |X| |Y| (Higham,
# Accuracy and Stability of Numerical Algorithms, SIAM 2002, sec. 3.5), on
# both routes.  A wrong composition misses by O(h), some 1e12 eps.
GAP_FLOOR = 32.0
GRAMIAN_GAPS = {
    "sys4": (6.7, 14.1),
    "ou": (3.7, 49.3),
    "reg3": (7.0, 80.0),
    "stiff": (191.7, 189.4),
    "non-normal": (9.8, 12.8),
    "growing-ou": (56.3, 56.9),
}
ROOT = asymptotics._ROOT  # 64 offsets and 64 anchors


def gramian_model(name):
    if name == "sys4":
        workloads = Path(__file__).parents[1] / "perfbench" / "workloads"
        return parse_config(str(workloads / "sys4-optimal.cfg")).model
    if name == "ou":
        return LinearSdeModel(A=[[-1.0]], B=[[1.0]], M=[[1.0]], T=1.0)
    if name == "reg3":
        return random_regular_model(np.random.default_rng(3), n=3)
    A, I, T, _ = SEMIGROUP_MODELS[name]
    return LinearSdeModel(A=A, B=I, M=I, T=T)


def gramian_build(model):
    mesh = np.linspace(0.0, model.T, J + 1)
    return mesh, *asymptotics._mesh_transition(model.A, model.D, mesh, kt=True)


def row_gap(X, R):
    """Largest entry of |X - R| per row over the row's largest |R| entry."""
    return np.abs(X - R).max(axis=(1, 2)) / np.abs(R).max(axis=(1, 2))


class TestSemigroupBuild:
    @pytest.mark.parametrize("name", SEMIGROUP_MODELS)
    def test_curves_hold_to_per_row_kernel_and_expm(self, name):
        A, I, T, gaps = SEMIGROUP_MODELS[name]
        model = LinearSdeModel(A=A, B=I, M=I, T=T)
        eps = np.finfo(float).eps
        tol = [SEMIGROUP_MARGIN * max(g, 1.0) * eps for g in gaps]
        mesh, F, S, Q = asymptotics._curves(model)
        F_row, S_row = weight_rows(model, mesh)  # every mesh point, one kernel row each
        assert np.max(np.abs(F - F_row)) <= tol[0] * F_row.max()
        assert np.max(np.abs(S - S_row)) <= tol[1] * S_row.max()
        Um = mho(model.A, model.D)
        F_ref = np.array([frobenius_pairing(Um, E.T @ E) for E in (expm(s * model.A) for s in T - mesh)])
        assert np.max(np.abs(F - F_ref)) <= tol[2] * F_ref.max()
        _, E_row, K_row = asymptotics._transition(model.A.T, model.M, mesh)
        Q_row = asymptotics._gramian(E_row, K_row, model.M, mesh)
        assert np.max(np.abs(Q - Q_row)) <= tol[3] * np.abs(Q_row).max()

    @pytest.mark.parametrize("name", GRAMIAN_GAPS)
    def test_gramian_G_and_K_hold_to_per_row_kernel(self, name):
        model = gramian_model(name)
        mesh, _, G, K = gramian_build(model)
        _, E_row, K_row = asymptotics._transition(model.A, model.D, mesh)
        G_row = asymptotics._gramian(E_row, K_row, model.D, mesh)
        assert np.all(G[0] == 0.0) and np.array_equal(K[0], K_row[0])  # K_0 = mho, the a = 0 anchor
        eps = np.finfo(float).eps
        tol_G, tol_K = (SEMIGROUP_MARGIN * max(g, GAP_FLOOR) * eps for g in GRAMIAN_GAPS[name])
        assert row_gap(G[1:], G_row[1:]).max() <= tol_G
        assert row_gap(K, K_row).max() <= tol_K

    @pytest.mark.parametrize("name", GRAMIAN_GAPS)
    def test_gramian_K_holds_to_oracle(self, name):
        # every 4th row and the whole first anchor block, where V cancels
        # most; measured at most 3.6e-14 of the row's largest entry here and
        # 5.6e-14 over every row (stiff, row 1019)
        model = gramian_model(name)
        mesh, _, _, K = gramian_build(model)
        rows = np.union1d(np.arange(0, J + 1, 4), np.arange(ROOT + 1, 2 * ROOT + 1))
        K_ref = np.array([kt_oracle(model.A, model.D, t) for t in mesh[rows]])
        assert row_gap(K[rows], K_ref).max() <= 1e-13

    @pytest.mark.parametrize("name", ["sys4", "stiff", "non-normal", "growing-ou"])
    def test_equal_split_is_the_kernel_doubling_step(self, name):
        # row 2b composes a = o = b h; the kernel's 2bh row is one doubling
        # step past its bh row, so the two K formulas meet (measured 0.8 eps;
        # the bound leaves room for another summation order, as GAP_FLOOR)
        model = gramian_model(name)
        mesh, e, _, K = gramian_build(model)
        x = mesh[ROOT] * np.linalg.norm(model.A) / KT_BRANCH_THRESHOLD
        assert np.frexp(x)[1] >= 0 and mesh[2 * ROOT] == 2 * mesh[ROOT]
        e_row, _, K_row = asymptotics._transition(model.A, model.D, mesh[[2 * ROOT]])
        eps = np.finfo(float).eps
        assert row_gap(e[[2 * ROOT]], e_row)[0] <= 8 * eps
        assert row_gap(K[[2 * ROOT]], K_row)[0] <= 8 * eps


class TestPhiFunctional:
    def test_uniform_ou_closed_form(self, ou):
        got = phi_functional(ou, uniform_density(1.0))
        assert got == pytest.approx((1.0 - math.exp(-2.0)) / 24.0, rel=1e-10)
        assert got == pytest.approx(0.036027696531807804, rel=1e-12)

    def test_general_density_against_quad(self, ou):
        psi = density_from_weight(1.0, (2.0 + np.sin(2 * np.pi * MESH)) ** 3)
        total, _ = quad(lambda t: 2.0 + math.sin(2 * math.pi * t), 0.0, 1.0)

        def integrand(t):
            return ou_F(t) * (total / (2.0 + math.sin(2 * math.pi * t))) ** 2

        ref, _ = quad(integrand, 0.0, 1.0, limit=200)
        assert phi_functional(ou, psi) == pytest.approx(ref, rel=1e-6)

    def test_optimal_density_attains_minimum(self, ou, reg2):
        for model in (ou, reg2):
            psi = optimal_profile(model, "terminal")
            assert phi_functional(model, psi) == pytest.approx(
                min_phi_value(model), rel=1e-8
            )

    def test_zero_drift_vanishes(self, flat2):
        assert phi_functional(flat2, uniform_density(1.0)) == 0.0

    def test_refuses_terminal_zero_density(self, ou):
        vals = np.linspace(1.0, 0.0, J + 1)
        with pytest.raises(ValueError):
            phi_functional(ou, GridDensity(1.0, vals))

    def test_refuses_horizon_mismatch(self, ou):
        with pytest.raises(ValueError):
            phi_functional(ou, uniform_density(2.0))

    def test_accepts_terminal_zero_where_weight_vanishes(self):
        # M = ww^T with w orthogonal to AB: F_T = <mho, M> = 0, F_t > 0 for t < T
        w = np.array([1.0, 1.0])
        A = [[-1.0, 0.0], [1.0, -1.0]]
        model = LinearSdeModel(A=A, B=[[1.0], [0.0]], M=np.outer(w, w), T=1.0)
        F = weight_curve(model, "terminal").values
        assert F[-1] == 0.0 and F[:-1].min() > 0.0
        psi = density_from_weight(1.0, F)
        assert psi.values[-1] == 0.0
        value = phi_functional(model, psi)
        assert 0.0 < value < math.inf
        assert 0.0 < functional_quadrature_bound(model, psi, "terminal") < 1e-3 * value


class TestUpsFunctional:
    def test_uniform_ou_closed_form(self, ou):
        # int_0^1 S dt = (1 + e^{-2}) / 48
        got = ups_functional(ou, uniform_density(1.0))
        assert got == pytest.approx((1.0 + math.exp(-2.0)) / 48.0, rel=1e-9)

    def test_accepts_terminal_zero_optimal_density(self, ou):
        psi = optimal_profile(ou, "integral")
        assert psi.values[-1] == 0.0
        got = ups_functional(ou, psi)
        assert got == pytest.approx(min_ups_value(ou), rel=2e-5)

    def test_refuses_horizon_mismatch(self, ou):
        with pytest.raises(ValueError):
            ups_functional(ou, GridDensity(0.5, np.full(J + 1, 2.0)))

    def test_zero_drift_vanishes(self, flat2):
        assert ups_functional(flat2, uniform_density(1.0)) == 0.0


class TestMinima:
    def test_min_phi_ou_closed_form(self, ou):
        ref = (9.0 / 16.0) * 0.5 * (1.0 - math.exp(-2.0 / 3.0)) ** 3
        assert min_phi_value(ou) == pytest.approx(ref, rel=1e-10)
        assert min_phi_value(ou) == pytest.approx(0.03240134269109764, rel=1e-12)

    def test_min_ups_ou_against_quad(self, ou):
        ref = quad(lambda t: ou_S(t) ** (1.0 / 3.0), 0.0, 1.0, limit=200)[0] ** 3
        # the shared mesh underresolves the cube root on the last panel,
        # an O(J^{-4/3}) deficit
        assert min_ups_value(ou) == pytest.approx(ref, rel=2.5e-5)
        assert min_ups_value(ou) <= ref

    def test_minimum_below_uniform_value(self, ou, reg2):
        for model in (ou, reg2):
            uni = uniform_density(model.T)
            assert min_phi_value(model) < phi_functional(model, uni)
            assert min_ups_value(model) < ups_functional(model, uni)

    def test_weight_homogeneity(self, ou):
        doubled = LinearSdeModel(A=ou.A, B=ou.B, M=[[2.0]], T=1.0)
        assert min_phi_value(doubled) == pytest.approx(2.0 * min_phi_value(ou), rel=1e-12)
        assert min_ups_value(doubled) == pytest.approx(2.0 * min_ups_value(ou), rel=1e-12)

    def test_jensen_lower_bound(self, ou, reg2):
        for model in (ou, reg2):
            F = weight_curve(model, "terminal").values
            assert min_phi_value(model) >= model.T**3 * float(F.min())

    def test_zero_weight_gives_zero(self, flat2):
        assert min_phi_value(flat2) == 0.0
        assert min_ups_value(flat2) == 0.0

    def test_refuses_irregular_nonzero_weight(self):
        model = LinearSdeModel(A=np.eye(2), B=np.eye(2), M=np.eye(2), T=1.0)
        assert weight_F(model, 0.5) > 0
        with pytest.raises(ValueError):
            min_phi_value(model)
        with pytest.raises(ValueError):
            min_ups_value(model)


class TestOptimalProfile:
    def test_terminal_profile_matches_exponential_law(self, ou):
        psi = optimal_profile(ou, "terminal")
        lam = 2.0 / 3.0
        ref = lam * np.exp(lam * psi.mesh) / (math.exp(lam) - 1.0)
        assert np.allclose(psi.values, ref, rtol=1e-7)
        assert psi.values[-1] / psi.values[0] == pytest.approx(math.exp(lam), rel=1e-6)

    def test_returns_the_density_alone(self, ou):
        for kind in ("terminal", "integral"):
            assert isinstance(optimal_profile(ou, kind), GridDensity)

    def test_terminal_cumulative_frozen_midpoint(self, ou):
        psi = optimal_profile(ou, "terminal")
        ref = (math.exp(1.0 / 3.0) - 1.0) / (math.exp(2.0 / 3.0) - 1.0)
        assert cum_at(psi, 0.5) == pytest.approx(ref, rel=1e-8)
        assert cum_at(psi, 0.5) == pytest.approx(0.41742979353768556, rel=1e-12)

    def test_integral_profile_pinches_to_zero(self, ou):
        psi = optimal_profile(ou, "integral")
        assert psi.values[-1] == 0.0
        assert np.all(psi.values[:-1] > 0)

    def test_integral_profile_cube_root_coefficient(self, ou):
        # near T the optimal density behaves like C (T - t)^{1/3} with
        # C = F_T^{1/3} / (min Ups)^{1/3}
        psi = optimal_profile(ou, "integral")
        C = np.cbrt(weight_F(ou, ou.T)) / np.cbrt(min_ups_value(ou))
        h = ou.T / J
        for k in (4, 8, 16):
            t = ou.T - k * h
            assert psi.psi_at(t) == pytest.approx(C * (ou.T - t) ** (1.0 / 3.0), rel=0.02)

    def test_profile_invariant_under_weight_scaling(self, ou):
        doubled = LinearSdeModel(A=ou.A, B=ou.B, M=[[2.0]], T=1.0)
        a = optimal_profile(ou, "terminal")
        b = optimal_profile(doubled, "terminal")
        assert np.allclose(a.values, b.values, rtol=1e-13)

    def test_refusals(self, ou):
        with pytest.raises(ValueError):
            optimal_profile(ou, "both")
        irregular = LinearSdeModel(A=np.eye(2), B=np.eye(2), M=np.eye(2), T=1.0)
        with pytest.raises(ValueError):
            optimal_profile(irregular, "terminal")


class TestQuadratureBound:
    def test_smooth_integrand_tiny_bound(self, ou):
        uni = uniform_density(1.0)
        bound = functional_quadrature_bound(ou, uni, "terminal")
        value = phi_functional(ou, uni)
        assert 0 < bound < 1e-7 * value

    def test_cube_root_integrand_bound_still_small(self, ou):
        psi = optimal_profile(ou, "integral")
        bound = functional_quadrature_bound(ou, psi, "integral")
        value = ups_functional(ou, psi)
        assert 0 < bound < 1e-3 * value

    def test_refuses_what_the_functional_refuses(self, ou):
        # the integral-optimal density vanishes at T, where F_T = 1/12
        psi = optimal_profile(ou, "integral")
        with pytest.raises(ValueError):
            phi_functional(ou, psi)
        with pytest.raises(ValueError):
            functional_quadrature_bound(ou, psi, "terminal")

    def test_unknown_kind_refused(self, ou):
        with pytest.raises(ValueError):
            functional_quadrature_bound(ou, uniform_density(1.0), "therminal")
        with pytest.raises(ValueError):
            asymptotics._min_value(ou, "therminal")


class TestAsymptoticReport:
    def test_uniform_terminal_report(self, ou):
        rep = asymptotic_report(ou, uniform_density(1.0), "terminal")
        assert rep.kind == "terminal"
        assert rep.value == pytest.approx(0.036027696531807804, rel=1e-10)
        assert rep.minimum == pytest.approx(0.03240134269109764, rel=1e-10)
        assert rep.ratio == rep.value / rep.minimum
        assert rep.lower_bound == pytest.approx(math.exp(-2.0) / 12.0, rel=1e-9)
        assert rep.minimum >= rep.lower_bound
        assert rep.ratio == pytest.approx(1.1119198631761187, rel=1e-9)

    def test_zero_drift_report(self, flat2):
        rep = asymptotic_report(flat2, uniform_density(1.0), "integral")
        assert rep.value == 0.0 and rep.minimum == 0.0
        assert rep.lower_bound == 0.0
        assert rep.ratio == 1.0

    def test_kind_validation(self, ou):
        with pytest.raises(ValueError):
            asymptotic_report(ou, uniform_density(1.0), "midcourse")

    def test_value_is_the_functional_bitwise(self, ou, reg2):
        for model in (ou, reg2):
            uni = uniform_density(model.T)
            for kind, fn in (("terminal", phi_functional), ("integral", ups_functional)):
                for psi in (uni, optimal_profile(model, "terminal")):
                    assert asymptotic_report(model, psi, kind).value == fn(model, psi)
            pinched = optimal_profile(model, "integral")
            rep = asymptotic_report(model, pinched, "integral")
            assert rep.value == ups_functional(model, pinched)
            with pytest.raises(ValueError):
                asymptotic_report(model, pinched, "terminal")


class TestLimitSigma:
    def test_zero_time_is_zero(self, ou):
        for route in (limit_sigma, limit_sigma_ode):
            out = route(ou, uniform_density(1.0), 0.0)
            assert np.array_equal(out, np.zeros((1, 1)))

    def test_signature_takes_no_route(self):
        assert list(inspect.signature(limit_sigma).parameters) == ["model", "psi", "tau"]

    def test_routes_agree(self, ou, reg2):
        cases = [(ou, 0.3), (ou, 1.0), (reg2, 0.7)]
        for model, tau in cases:
            uni = uniform_density(model.T)
            a = limit_sigma_ode(model, uni, tau)
            b = limit_sigma(model, uni, tau)
            assert np.linalg.norm(a - b) <= 1e-8 * max(np.linalg.norm(a), 1e-300)

    def test_routes_agree_on_skewed_density(self, ou):
        psi = density_from_weight(1.0, (2.0 + np.sin(2 * np.pi * MESH)) ** 3)
        a = limit_sigma_ode(ou, psi, 0.8)
        b = limit_sigma(ou, psi, 0.8)
        assert abs(a[0, 0] - b[0, 0]) <= 1e-8 * abs(a[0, 0])

    def test_terminal_pairing_equals_phi(self, ou, reg2):
        for model in (ou, reg2):
            uni = uniform_density(model.T)
            sig = limit_sigma(model, uni, 1.0)
            assert frobenius_pairing(model.M, sig) == pytest.approx(
                phi_functional(model, uni), rel=1e-8
            )

    def test_ode_residual(self, ou):
        # central difference of limit_sigma satisfies the Lyapunov
        # equation at tau = 0.6
        psi = uniform_density(1.0)
        h = 1e-4
        tau = 0.6
        sm = limit_sigma(ou, psi, tau)
        sp = limit_sigma(ou, psi, tau + h)
        sm_ = limit_sigma(ou, psi, tau - h)
        lhs = (sp - sm_) / (2 * h)
        p = 1.0  # uniform density on T = 1: phi' = 1
        rhs = p * (ou.A @ sm + sm @ ou.A.T) + p**3 * mho(ou.A, ou.D)
        assert np.linalg.norm(lhs - rhs) <= 1e-6 * max(np.linalg.norm(rhs), 1e-300)

    def test_domain_errors(self, ou):
        uni = uniform_density(1.0)
        with pytest.raises(ValueError):
            limit_sigma(ou, uni, 1.5)
        with pytest.raises(ValueError):
            limit_sigma(ou, uniform_density(2.0), 0.5)
        pinched = optimal_profile(ou, "integral")
        with pytest.raises(ValueError):
            limit_sigma(ou, pinched, 0.5)


# A density on a coarse mesh against the same function on the curves' mesh:
# the two differ only in the rounding of their normalisation over 64 or 4,096
# panels.  Largest gaps measured on the terminal cube-root density of OU and
# sys4, in eps: the functionals 15.4 relative (OU), 1,000-step grids 3.5 of T
# (sys4), limit_sigma(psi, 1) 22.2 of its largest entry (OU); each bound is
# MESH_MARGIN times that.
MESH_MARGIN = 4.0
MESH_GAPS = {"functional": 15.4, "grid": 3.5, "sigma": 22.2}


class TestDensityOnAnyMesh:
    """The functionals read a density at the curves' nodes, whatever mesh it spans."""

    @pytest.mark.parametrize("name", ["ou", "sys4"])
    def test_two_node_uniform_density_is_the_fine_one_bitwise(self, name):
        model = gramian_model(name)
        fine = GridDensity(model.T, np.full(J + 1, 1.0 / model.T))
        uni = uniform_density(model.T)
        assert uni.values.size == 2
        assert phi_functional(model, uni) == phi_functional(model, fine)
        assert ups_functional(model, uni) == ups_functional(model, fine)

    @pytest.mark.parametrize("name", ["ou", "sys4"])
    def test_coarse_density_matches_its_resampling(self, name):
        eps = np.finfo(float).eps
        model = gramian_model(name)
        curve = weight_curve(model, "terminal")
        coarse = density_from_weight(model.T, curve.values[::64])  # 64 panels
        assert np.array_equal(coarse.mesh, curve.mesh[::64])
        fine = GridDensity(model.T, coarse.psi_at(curve.mesh))
        tol = {k: MESH_MARGIN * gap * eps for k, gap in MESH_GAPS.items()}
        for functional in (phi_functional, ups_functional):
            want = functional(model, fine)
            assert abs(functional(model, coarse) - want) <= tol["functional"] * want
        gap = grid_from_density(coarse, 1000).points - grid_from_density(fine, 1000).points
        assert np.max(np.abs(gap)) <= tol["grid"] * model.T
        want = limit_sigma(model, fine, 1.0)
        got = limit_sigma(model, coarse, 1.0)
        assert np.max(np.abs(got - want)) <= tol["sigma"] * np.abs(want).max()


class TestOuClosedForms:
    def test_reference_values(self, ou):
        forms = ou_closed_forms(ou)
        assert forms.g_inf == 0.5
        assert forms.min_phi == pytest.approx(0.03240134269109762, rel=1e-14)
        assert forms.phi_uniform == pytest.approx(0.036027696531807804, rel=1e-14)
        assert forms.ratio == pytest.approx(1.1119198631761187, rel=1e-14)

    def test_matches_quadrature_route(self, ou):
        forms = ou_closed_forms(ou)
        assert min_phi_value(ou) == pytest.approx(forms.min_phi, rel=1e-10)
        assert phi_functional(ou, uniform_density(1.0)) == pytest.approx(
            forms.phi_uniform, rel=1e-9
        )

    def test_large_horizon_asymptote(self):
        model = LinearSdeModel(A=[[-1.0]], B=[[1.0]], M=[[1.0]], T=30.0)
        forms = ou_closed_forms(model)
        assert forms.ratio_asymptote == pytest.approx((4.0 / 27.0) * 900.0, rel=1e-15)
        assert forms.ratio == pytest.approx(forms.ratio_asymptote, rel=1e-6)

    def test_short_horizon_ratio_near_one(self):
        model = LinearSdeModel(A=[[-1.0]], B=[[1.0]], M=[[1.0]], T=0.01)
        forms = ou_closed_forms(model)
        assert forms.ratio == pytest.approx(1.0, abs=1e-4)

    def test_validation(self):
        with pytest.raises(ValueError):
            ou_closed_forms(LinearSdeModel(A=np.eye(2), B=np.eye(2), M=np.eye(2), T=1.0))
        with pytest.raises(ValueError):
            ou_closed_forms(LinearSdeModel(A=[[1.0]], B=[[1.0]], M=[[1.0]], T=1.0))
        with pytest.raises(ValueError):
            ou_closed_forms(LinearSdeModel(A=[[-1.0]], B=[[0.0]], M=[[1.0]], T=1.0))
        with pytest.raises(ValueError):
            ou_closed_forms(LinearSdeModel(A=[[-1.0]], B=[[1.0]], M=[[2.0]], T=1.0))
