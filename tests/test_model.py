import numpy as np
import pytest

from sde_gridopt import (
    LinearSdeModel,
    ModelValidationError,
    TimeGrid,
    frobenius_pairing,
    regularity_check,
    sigma_path,
    validate_model,
)

from helpers import random_model


class TestConstruction:
    def test_ou_validates(self, ou):
        validate_model(ou)
        assert ou.n == 1 and ou.m == 1
        assert ou.D[0, 0] == 1.0

    def test_diffusion_cached_from_b(self):
        B = np.array([[1.0, 2.0], [0.0, 1.0]])
        model = LinearSdeModel(A=np.zeros((2, 2)), B=B, M=np.eye(2), T=1.0)
        assert np.array_equal(model.D, B @ B.T)

    def test_arrays_are_read_only(self, ou):
        for arr in (ou.A, ou.B, ou.M, ou.D):
            with pytest.raises(ValueError):
                arr[0, 0] = 99.0

    def test_caller_array_not_frozen(self):
        A = np.array([[-1.0]])
        LinearSdeModel(A=A, B=[[1.0]], M=[[1.0]], T=1.0)
        A[0, 0] = 5.0  # caller copy stays writable

    def test_shape_violations(self):
        with pytest.raises(ModelValidationError, match="drift-not-square"):
            LinearSdeModel(A=np.ones((2, 3)), B=np.ones((2, 1)), M=np.eye(2), T=1.0)
        with pytest.raises(ModelValidationError, match="noise-shape-mismatch"):
            LinearSdeModel(A=np.eye(2), B=np.ones((3, 1)), M=np.eye(2), T=1.0)
        with pytest.raises(ModelValidationError, match="weight-shape-mismatch"):
            LinearSdeModel(A=np.eye(2), B=np.ones((2, 1)), M=np.eye(3), T=1.0)


class TestModelIdentity:
    def test_equality_and_hash_are_by_identity(self):
        a = LinearSdeModel(A=-np.eye(2), B=np.eye(2), M=np.eye(2), T=1.0)
        b = LinearSdeModel(A=-np.eye(2), B=np.eye(2), M=np.eye(2), T=1.0)
        assert (a == b) is False
        assert a == a
        assert hash(a) == hash(a)
        assert len({a, b}) == 2


class TestValidateModel:
    def test_indefinite_weight_named(self):
        with pytest.raises(ModelValidationError) as exc:
            LinearSdeModel(A=np.eye(2), B=np.eye(2), M=[[1.0, 2.0], [2.0, 1.0]], T=1.0)
        assert "weight-not-psd" in exc.value.violations

    def test_asymmetric_weight_named(self):
        with pytest.raises(ModelValidationError) as exc:
            LinearSdeModel(A=np.eye(2), B=np.eye(2), M=[[1.0, 0.3], [0.0, 1.0]], T=1.0)
        assert "weight-not-symmetric" in exc.value.violations

    def test_horizon_violations(self):
        for T in (0.0, -1.0):
            with pytest.raises(ModelValidationError) as exc:
                LinearSdeModel(A=[[-1.0]], B=[[1.0]], M=[[1.0]], T=T)
            assert "horizon-not-positive" in exc.value.violations

    def test_nonfinite_entries_named(self):
        with pytest.raises(ModelValidationError) as exc:
            LinearSdeModel(A=[[np.nan]], B=[[1.0]], M=[[1.0]], T=1.0)
        assert "nonfinite-entries" in exc.value.violations

    def test_multiple_violations_all_reported(self):
        with pytest.raises(ModelValidationError) as exc:
            LinearSdeModel(A=np.eye(2), B=np.eye(2), M=[[1.0, 2.0], [2.0, 1.0]], T=0.0)
        assert {"weight-not-psd", "horizon-not-positive"} <= set(exc.value.violations)

    @pytest.mark.parametrize(
        "data, violation",
        [
            (dict(A=[[np.nan]], M=[[1.0]], T=1.0), "nonfinite-entries"),
            (dict(A=[[-1.0]], M=[[np.inf]], T=1.0), "nonfinite-entries"),
            (dict(A=[[-1.0]], B=[[1e200]], M=[[1.0]], T=1.0), "nonfinite-entries"),
            (dict(A=[[-1.0]], M=[[1.0]], T=0.0), "horizon-not-positive"),
            (dict(A=-np.eye(2), M=[[1.0, 2.0], [2.0, 1.0]], T=1.0), "weight-not-psd"),
        ],
        ids=["nan-drift", "inf-weight", "overflowing-diffusion", "zero-horizon", "indefinite-weight"],
    )
    def test_invalid_model_never_reaches_the_recursion(self, data, violation):
        # the model raises when built, so sigma_path cannot return NaN or a negative T_N
        n = len(data["A"])
        with pytest.raises(ModelValidationError) as exc:
            model = LinearSdeModel(**{"B": np.eye(n), **data})
            sigma_path(model, TimeGrid(np.linspace(0.0, 1.0, 5)))
        assert exc.value.violations == [violation]

    def test_psd_tolerance_allows_roundoff(self):
        # eigenvalues at exactly zero must pass
        model = LinearSdeModel(A=np.eye(2), B=np.eye(2), M=[[1.0, 1.0], [1.0, 1.0]], T=1.0)
        validate_model(model)


class TestRegularity:
    def test_ou_gram_det_one(self, ou):
        report = regularity_check(ou)
        assert report.satisfied
        assert report.gram_det == pytest.approx(1.0, rel=1e-14)
        assert report.gram_matrix.shape == (1, 1)

    def test_zero_drift_not_satisfied(self):
        model = LinearSdeModel(A=np.zeros((2, 2)), B=np.eye(2), M=np.eye(2), T=1.0)
        report = regularity_check(model)
        assert report.gram_det == 0.0
        assert not report.satisfied

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(19)
        model = random_model(rng, n=3)
        report = regularity_check(model)
        # independent elementwise construction with explicit powers
        for j in range(1, 4):
            for k in range(1, 4):
                Aj = np.linalg.matrix_power(model.A, j)
                Ak = np.linalg.matrix_power(model.A, k)
                ref = np.trace(model.M.T @ (Aj @ model.D @ Ak.T))
                assert report.gram_matrix[j - 1, k - 1] == pytest.approx(ref, rel=1e-12)

    def test_invariant_under_orthogonal_noise_rotation(self):
        rng = np.random.default_rng(21)
        base = random_model(rng, n=3, m=2)
        Q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        rotated = LinearSdeModel(A=base.A, B=base.B @ Q, M=base.M, T=base.T)
        r0, r1 = regularity_check(base), regularity_check(rotated)
        assert np.allclose(r0.gram_matrix, r1.gram_matrix, rtol=1e-10, atol=1e-12)
        assert r0.gram_det == pytest.approx(r1.gram_det, rel=1e-8, abs=1e-12)

    def test_scalar_characterisation(self):
        # satisfied iff A != 0, D > 0, M > 0 in dimension one
        for a in (-1.0, 0.0, 2.0):
            for b in (0.0, 1.0):
                for m in (0.0, 0.5):
                    model = LinearSdeModel(A=[[a]], B=[[b]], M=[[m]], T=1.0)
                    expected = a != 0.0 and b != 0.0 and m > 0.0
                    assert regularity_check(model).satisfied == expected

    def test_rank_deficient_diffusion_can_still_be_regular(self):
        # single noise channel feeding a two-dimensional rotation
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        model = LinearSdeModel(A=A, B=[[0.0], [1.0]], M=np.eye(2), T=1.0)
        assert regularity_check(model).satisfied


class TestFrobeniusPairing:
    def test_identity_pair(self):
        assert frobenius_pairing(np.eye(2), np.eye(2)) == 2.0

    def test_trace_form_oracle(self):
        rng = np.random.default_rng(2)
        K = rng.standard_normal((3, 3))
        L = rng.standard_normal((3, 3))
        ref = sum(K[i, j] * L[i, j] for i in range(3) for j in range(3))
        assert frobenius_pairing(K, L) == pytest.approx(ref, rel=1e-14)
        assert frobenius_pairing(K, L) == pytest.approx(np.trace(K.T @ L), rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            frobenius_pairing(np.eye(2), np.eye(3))
