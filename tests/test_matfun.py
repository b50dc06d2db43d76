import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm

from sde_gridopt import matfun
from sde_gridopt.matfun import (
    KT_BRANCH_THRESHOLD,
    _series,
    _transition,
    ctrl_gramian,
    kt_matrix,
    mat_exp,
    mho,
    obs_gramian,
    phi1,
    weight_propagate,
)

from helpers import expm_ld, kt_oracle, random_model


def rel(err, ref):
    return np.linalg.norm(err) / max(np.linalg.norm(ref), 1e-300)


def oracle_cases():
    """(A, t) pairs: random A with n = 1..4 and t ||A|| from 1e-3 to 30 (and
    negative), a nonnormal A, and the stiff diag(-1, -1000)."""
    rng = np.random.default_rng(41)
    for n in (1, 2, 3, 4):
        for _ in range(4):
            A = rng.standard_normal((n, n))
            for x in (1e-3, 0.05, 0.5, 3.0, 10.0, 30.0, -0.7, -3.0):
                yield A, x / np.linalg.norm(A)
    for t in (0.1, 1.0):
        yield np.array([[-1.0, 30.0], [0.0, -2.0]]), t
    for t in (1e-3, 0.03, 1.0):
        yield np.diag([-1.0, -1000.0]), t


def check_exp_oracles(got, H, block=lambda X: X):
    """got against block(exp(H)) from the long-double series and from scipy.

    The long-double route bounds the error at 1e-12.  scipy's expm is itself
    off by up to 1.7e-12 on oracle_cases (against a 40-digit reference), so
    the bound against it is 5e-12.
    """
    ld = block(expm_ld(H).astype(float))
    assert rel(got - ld, ld) < 1e-12
    sp = block(expm(H))
    assert rel(got - sp, sp) < 5e-12


class TestMatExp:
    def test_zero_matrix(self):
        assert np.array_equal(mat_exp(np.zeros((3, 3)), 1.7), np.eye(3))

    def test_scalar_matches_math_exp(self):
        got = mat_exp(np.array([[-1.0]]), 1.0)[0, 0]
        assert got == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_nilpotent_exact(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        got = mat_exp(A, 1.0)
        assert np.allclose(got, [[1.0, 1.0], [0.0, 1.0]], atol=1e-14)

    def test_matches_independent_exponentials(self):
        for A, t in oracle_cases():
            check_exp_oracles(mat_exp(A, t), t * A)

    def test_routes_through_expm(self, monkeypatch):
        # mat_exp and weight_propagate take exp(tA) from the one numpy entry point
        calls = []
        real = matfun.expm

        def counting(A, t):
            calls.append(list(t))
            return real(A, t)

        monkeypatch.setattr(matfun, "expm", counting)
        A = np.array([[-1.0, 2.0], [0.0, -3.0]])
        assert real(A, [0.0, 0.5, -0.5]).shape == (3, 2, 2)
        mat_exp(A, 0.5)
        weight_propagate(A, np.eye(2), 0.25)
        assert calls == [[0.5], [0.25]]

    def test_semigroup_property(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 3):
            for _ in range(4):
                A = rng.standard_normal((n, n))
                s, t = rng.random(2)
                lhs = mat_exp(A, s) @ mat_exp(A, t)
                assert rel(lhs - mat_exp(A, s + t), lhs) < 1e-10

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            mat_exp(np.ones((2, 3)), 1.0)
        with pytest.raises(ValueError):
            mat_exp(np.array([[np.nan]]), 1.0)
        with pytest.raises(ValueError):
            mat_exp(np.eye(2), np.inf)


class TestPhi1:
    def test_zero_time_is_identity(self):
        assert np.array_equal(phi1(np.ones((2, 2)), 0.0), np.eye(2))

    def test_zero_matrix_is_identity(self):
        assert np.allclose(phi1(np.zeros((2, 2)), 0.3), np.eye(2), atol=1e-15)

    def test_scalar_series_oracle(self):
        # E(1) = sum_k 1/(k+1)! = e - 1, summed independently
        series = sum(1.0 / math.factorial(k + 1) for k in range(25))
        got = phi1(np.array([[1.0]]), 1.0)[0, 0]
        assert got == pytest.approx(series, rel=1e-14)
        assert got == pytest.approx(math.e - 1.0, rel=1e-14)

    def test_defining_identity(self):
        # t A E(tA) + I = exp(tA), the right side from scipy
        rng = np.random.default_rng(5)
        for n in (1, 2, 3, 4):
            A = rng.standard_normal((n, n))
            for t in (1e-3, 0.1, 1.0, -0.7):
                lhs = t * A @ phi1(A, t) + np.eye(n)
                assert rel(lhs - expm(t * A), lhs) < 1e-10
        # where t A E(tA) + I cancels, read t E(tA) off the exponential of the
        # block matrix t [[A, I], [0, 0]], whose top-right block it is
        for A, t in oracle_cases():
            n = A.shape[0]
            H = np.zeros((2 * n, 2 * n))
            H[:n, :n], H[:n, n:] = A, np.eye(n)
            check_exp_oracles(phi1(A, t), t * H, lambda X: X[:n, n:] / t)


class TestCtrlGramian:
    def test_zero_time(self):
        assert np.array_equal(ctrl_gramian(np.eye(2), np.eye(2), 0.0), np.zeros((2, 2)))

    def test_zero_drift(self):
        D = np.array([[2.0, 1.0], [1.0, 3.0]])
        got = ctrl_gramian(np.zeros((2, 2)), D, 2.0)
        assert np.allclose(got, 2.0 * D, rtol=1e-12)

    def test_ou_quadrature_oracle(self):
        val, err = quad(lambda s: math.exp(-2.0 * s), 0.0, 1.0)
        got = ctrl_gramian(np.array([[-1.0]]), np.array([[1.0]]), 1.0)[0, 0]
        assert got == pytest.approx(val, rel=1e-10)
        assert got == pytest.approx(0.43233235838169365, rel=1e-12)

    def test_matrix_quadrature_oracle(self):
        rng = np.random.default_rng(7)
        model = random_model(rng, n=2)
        A, D = model.A, model.D
        t = 0.9

        def entry(i, j):
            def f(s):
                E = expm(s * A)
                return (E @ D @ E.T)[i, j]

            return quad(f, 0.0, t, limit=200)[0]

        ref = np.array([[entry(i, j) for j in range(2)] for i in range(2)])
        assert rel(ctrl_gramian(A, D, t) - ref, ref) < 1e-8

    def test_lyapunov_residual(self):
        # d/dt G_t = A G_t + G_t A^T + D, via centered differences
        rng = np.random.default_rng(13)
        h = 1e-4
        for model in (random_model(rng, n=2), random_model(rng, n=3)):
            A, D = model.A, model.D
            t = 0.7
            dG = (ctrl_gramian(A, D, t + h) - ctrl_gramian(A, D, t - h)) / (2 * h)
            G = ctrl_gramian(A, D, t)
            resid = dG - (A @ G + G @ A.T + D)
            assert np.linalg.norm(resid) < 1e-6

    def test_stiff_and_long_horizon(self):
        # exp(tH) of the Van Loan block matrix overflows here; the Gramian does not
        A = np.diag([-1.0, -1000.0])
        want = np.diag([(1.0 - math.exp(-2.0)) / 2.0, (1.0 - math.exp(-2000.0)) / 2000.0])
        for got in (ctrl_gramian(A, np.eye(2), 1.0), obs_gramian(A, np.eye(2), 1.0)):
            assert rel(got - want, want) < 1e-13
        assert np.all(np.isfinite(kt_matrix(A, np.eye(2), 1.0)))
        got = ctrl_gramian(np.array([[-1.0]]), np.array([[1.0]]), 800.0)[0, 0]
        assert got == pytest.approx(0.5, rel=1e-13)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            ctrl_gramian(np.eye(2), np.eye(2), -0.1)
        with pytest.raises(ValueError):
            ctrl_gramian(np.eye(2), np.array([[1.0, 0.5], [0.0, 1.0]]), 1.0)


class TestObsGramian:
    def test_transpose_relation(self):
        rng = np.random.default_rng(3)
        model = random_model(rng, n=3)
        got = obs_gramian(model.A, model.M, 0.8)
        ref = ctrl_gramian(model.A.T, model.M, 0.8)
        assert np.array_equal(got, ref)

    def test_ou_value(self):
        # Q_t = int e^{-2s} ds for M = 1
        got = obs_gramian(np.array([[-1.0]]), np.array([[1.0]]), 1.0)[0, 0]
        assert got == pytest.approx((1.0 - math.exp(-2.0)) / 2.0, rel=1e-12)

    def test_lyapunov_residual(self):
        rng = np.random.default_rng(17)
        model = random_model(rng, n=2)
        A, M = model.A, model.M
        h, t = 1e-4, 0.6
        dQ = (obs_gramian(A, M, t + h) - obs_gramian(A, M, t - h)) / (2 * h)
        Q = obs_gramian(A, M, t)
        resid = dQ - (A.T @ Q + Q @ A + M)
        assert np.linalg.norm(resid) < 1e-6


class TestWeightPropagate:
    def test_zero_time(self):
        M = np.array([[2.0, 0.5], [0.5, 1.0]])
        assert np.allclose(weight_propagate(np.eye(2), M, 0.0), M, rtol=1e-14)

    def test_ou_scalar(self):
        got = weight_propagate(np.array([[-1.0]]), np.array([[3.0]]), 1.0)[0, 0]
        assert got == pytest.approx(3.0 * math.exp(-2.0), rel=1e-12)

    def test_preserves_psd(self):
        rng = np.random.default_rng(23)
        model = random_model(rng, n=3)
        R = weight_propagate(model.A, model.M, 0.7)
        assert np.array_equal(R, R.T)
        assert np.linalg.eigvalsh(R).min() >= -1e-12 * np.linalg.norm(R)


@pytest.mark.parametrize("fn", [obs_gramian, weight_propagate])
def test_weight_pair_errors_name_m(fn):
    with pytest.raises(ValueError, match="M must be symmetric"):
        fn(np.eye(2), np.array([[1.0, 0.3], [0.0, 1.0]]), 0.5)
    with pytest.raises(ValueError, match="A and M must have matching shapes"):
        fn(np.eye(2), np.eye(3), 0.5)


class TestKtMatrix:
    def test_zero_time_is_mho(self):
        rng = np.random.default_rng(29)
        model = random_model(rng, n=2)
        got = kt_matrix(model.A, model.D, 0.0)
        assert np.allclose(got, mho(model.A, model.D), rtol=1e-14)

    def test_zero_drift(self):
        got = kt_matrix(np.zeros((2, 2)), np.eye(2), 0.5)
        assert np.array_equal(got, np.zeros((2, 2)))

    def test_ou_value_against_gramian_identity(self, ou):
        # K_1 = G_1 - E(-1)^2 for dt = 1 (scalar, D = 1)
        G1 = quad(lambda s: math.exp(-2.0 * s), 0.0, 1.0)[0]
        E1 = sum((-1.0) ** k / math.factorial(k + 1) for k in range(30))
        got = kt_matrix(ou.A, ou.D, 1.0)[0, 0]
        assert got == pytest.approx(G1 - E1 * E1, rel=1e-10)
        assert got == pytest.approx(0.03275595748796561, rel=1e-12)

    def test_branch_agreement(self):
        # float64 doubling against the series / long-double direct oracle on
        # t ||A|| in [1e-3, 30], up to nine doubling steps
        rng = np.random.default_rng(31)
        for n in (1, 2, 3, 4):
            model = random_model(rng, n=n)
            a = np.linalg.norm(model.A)
            for x in np.geomspace(1e-3, 30.0, 11):
                t = x / a
                ref = kt_oracle(model.A, model.D, t)
                assert rel(kt_matrix(model.A, model.D, t) - ref, ref) < 1e-13

    def test_doubling_count_switch_is_seamless(self, ou):
        # the number of doubling steps changes at t ||A|| = 0.1 * 2^k
        rng = np.random.default_rng(33)
        for model in (ou, random_model(rng, n=3)):
            for k in range(4):
                t = KT_BRANCH_THRESHOLD * 2.0**k / np.linalg.norm(model.A)
                below = kt_matrix(model.A, model.D, t * (1 - 1e-12))
                above = kt_matrix(model.A, model.D, t * (1 + 1e-12))
                assert rel(below - above, below) < 1e-10

    def test_continuity_toward_mho(self, ou):
        rng = np.random.default_rng(37)
        for model in (ou, random_model(rng, n=2)):
            ref = mho(model.A, model.D)
            gaps = [
                np.linalg.norm(kt_matrix(model.A, model.D, t) - ref)
                for t in (1e-1, 1e-2, 1e-3)
            ]
            assert gaps[0] > gaps[1] > gaps[2]

    def test_psd_up_to_roundoff(self):
        rng = np.random.default_rng(41)
        for n in (1, 2, 3):
            model = random_model(rng, n=n)
            for t in (1e-3, 0.05, 0.4, 1.5):
                K = kt_matrix(model.A, model.D, t)
                assert np.linalg.eigvalsh(K).min() >= -1e-12 * max(np.linalg.norm(K), 1e-30)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            kt_matrix(np.eye(2), np.eye(2), -1e-9)
        with pytest.raises(ValueError):
            kt_matrix(np.eye(2), np.array([[1.0, 0.2], [0.0, 1.0]]), 0.5)


class TestTransition:
    def test_batch_equals_batch_of_one(self, ou):
        # t ||A|| spans doubling counts s = 0..7, with t = 0 and negative t,
        # in an order that interleaves rows of different s; the kernel runs
        # whole stacks through 2-D and stacked products, and a row's bits
        # must not depend on its batch
        x = np.array([1.2, 0.0, 10.0, 0.05, -0.7, 0.3, 2.5, 0.15, -3.0, 0.6])
        s = np.maximum(np.frexp(np.abs(x) / KT_BRANCH_THRESHOLD)[1], 0)
        assert set(range(6)) <= set(s) and s.max() >= 7
        rng = np.random.default_rng(47)
        models = [ou] + [random_model(rng, n=n) for n in (1, 2, 3, 4)]
        for model in models:
            t = x / np.linalg.norm(model.A)
            batch = _transition(model.A, model.D, t)
            for i, ti in enumerate(t):
                one = _transition(model.A, model.D, [ti])
                for got, ref in zip(batch, one):
                    assert got.shape == (t.size, model.n, model.n)
                    assert np.array_equal(got[i], ref[0])

    def test_propagator_skips_the_k_series(self, ou):
        # expm and phi1 leave out K's series and doubling; exp(tA) and E(tA)
        # come out bitwise those of the full kernel for any D, and a kernel
        # fed a prebuilt series gives its own bits
        x = np.array([1.2, 0.0, 10.0, 0.05, -0.7, 0.3, 2.5, 0.15, -3.0, 0.6])
        rng = np.random.default_rng(48)
        for model in [ou] + [random_model(rng, n=n) for n in (2, 3, 4)]:
            t = x / np.linalg.norm(model.A)
            e, E, K = _transition(model.A, model.D, t)
            assert np.any(model.D != 0)
            assert np.array_equal(matfun.expm(model.A, t), e)
            assert all(np.array_equal(phi1(model.A, ti), Ei) for ti, Ei in zip(t, E))
            assert len(_transition(model.A, None, t)) == 2
            for got, ref in zip(_transition(model.A, model.D, t, _series(model.A, model.D)), (e, E, K)):
                assert np.array_equal(got, ref)


class TestMho:
    def test_zero_drift(self):
        assert np.array_equal(mho(np.zeros((2, 2)), np.eye(2)), np.zeros((2, 2)))

    def test_ou_twelfth(self, ou):
        assert mho(ou.A, ou.D)[0, 0] == pytest.approx(1.0 / 12.0, rel=1e-15)

    def test_nilpotent(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        got = mho(A, np.eye(2))
        assert np.allclose(got, np.array([[1.0, 0.0], [0.0, 0.0]]) / 12.0, rtol=1e-15)

    def test_gramian_consistency(self):
        # G_t = t E(tA) D E(tA)^T + K_t t^3 ties all the pieces together
        rng = np.random.default_rng(43)
        model = random_model(rng, n=3)
        for t in (0.05, 0.3, 1.0):
            E = phi1(model.A, t)
            lhs = ctrl_gramian(model.A, model.D, t)
            rhs = t * E @ model.D @ E.T + kt_matrix(model.A, model.D, t) * t**3
            assert rel(lhs - rhs, lhs) < 1e-10
