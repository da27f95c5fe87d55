import warnings

import numpy as np
import pytest

from framegs.errors import NonFiniteError, NotHermitianError, RankDeficientError
from framegs.linalg import check_hermitian, hermitian_eigen, inv_sqrt


class TestCheckHermitian:
    def test_accepts_hermitian(self):
        M = np.array([[2.0, 1.0 - 1.0j], [1.0 + 1.0j, 3.0]])
        out = check_hermitian(M)
        np.testing.assert_array_equal(out, M)

    def test_rejects_asymmetric(self):
        with pytest.raises(NotHermitianError):
            check_hermitian(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_tolerance_is_relative(self):
        M = np.array([[1e8, 1.0], [1.0 + 1e-6, 1e8]])  # deviation tiny vs scale
        check_hermitian(M)


class TestHermitianEigen:
    def test_identity(self):
        w, V = hermitian_eigen(np.eye(2))
        np.testing.assert_allclose(w, [1.0, 1.0])
        np.testing.assert_allclose(V.conj().T @ V, np.eye(2), atol=1e-14)

    def test_diagonal(self):
        w, _ = hermitian_eigen(np.diag([2.0, 1.0]))
        np.testing.assert_allclose(w, [1.0, 2.0])

    def test_hand_2x2(self):
        w, _ = hermitian_eigen(np.array([[1.25, 0.25], [0.25, 1.25]]))
        np.testing.assert_allclose(w, [1.0, 1.5], atol=1e-14)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_against_numpy_oracle(self, field):
        rng = np.random.default_rng(101 if field == "real" else 102)
        for _ in range(60):
            d = int(rng.integers(1, 9))
            A = rng.normal(size=(d, d))
            if field == "complex":
                A = A + 1j * rng.normal(size=(d, d))
            M = A + A.conj().T
            w, V = hermitian_eigen(M)
            scale = max(1.0, float(np.linalg.norm(M)))
            np.testing.assert_allclose(w, np.linalg.eigvalsh(M), atol=1e-11 * scale)
            np.testing.assert_allclose(M @ V, V * w, atol=1e-10 * scale)
            np.testing.assert_allclose(V.conj().T @ V, np.eye(d), atol=1e-10)

    def test_reconstruction(self):
        rng = np.random.default_rng(103)
        for _ in range(40):
            d = int(rng.integers(2, 9))
            A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            M = A + A.conj().T
            w, V = hermitian_eigen(M)
            R = (V * w) @ V.conj().T
            assert np.linalg.norm(R - M) <= 1e-10 * max(1.0, np.linalg.norm(M))

    def test_degenerate_spectrum(self):
        # projector with repeated eigenvalues 0 and 1
        q = np.array([1.0, 2.0, -1.0, 0.5])
        q /= np.linalg.norm(q)
        M = np.eye(4) - np.outer(q, q)
        w, V = hermitian_eigen(M)
        np.testing.assert_allclose(w, [0.0, 1.0, 1.0, 1.0], atol=1e-13)
        np.testing.assert_allclose(V.conj().T @ V, np.eye(4), atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            hermitian_eigen(np.array([[0.0, 1.0], [-1.0, 0.0]]))

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_frobenius_overflow_raises_without_warning(self, field):
        # the frame operator of [[1, 0], [0, 1], [1e153, 1e153]]: finite
        # entries whose squares overflow in the Frobenius norm
        M = np.array([[1.0 + 1e306, 1e306], [1e306, 1.0 + 1e306]])
        if field == "complex":
            M = M.astype(complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="Frobenius norm overflows"):
                hermitian_eigen(M)


class TestInvSqrt:
    def test_identity(self):
        np.testing.assert_allclose(inv_sqrt(np.eye(3)), np.eye(3), atol=1e-14)

    def test_diagonal(self):
        np.testing.assert_allclose(
            inv_sqrt(np.diag([4.0, 1.0])), np.diag([0.5, 1.0]), atol=1e-14
        )

    def test_defining_identity_on_fig1_operator(self):
        S = np.array([[1.5, 0.5], [0.5, 1.5]])
        R = inv_sqrt(S)
        np.testing.assert_allclose(R @ S @ R, np.eye(2), atol=1e-10)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_random_positive_definite(self, field):
        rng = np.random.default_rng(104 if field == "real" else 105)
        for _ in range(50):
            d = int(rng.integers(1, 9))
            A = rng.normal(size=(d + 2, d))
            if field == "complex":
                A = A + 1j * rng.normal(size=(d + 2, d))
            M = A.conj().T @ A + 0.1 * np.eye(d)
            R = inv_sqrt(M)
            assert np.linalg.norm(R @ M @ R - np.eye(d)) <= 1e-10
            # result is Hermitian
            assert np.linalg.norm(R - R.conj().T) <= 1e-12 * np.linalg.norm(R)

    def test_rank_deficient_raises(self):
        with pytest.raises(RankDeficientError):
            inv_sqrt(np.array([[2.0, 0.0], [0.0, 0.0]]))


class TestInvSqrtLapackRoute:
    """``inv_sqrt`` takes its eigendecomposition from LAPACK
    (``np.linalg.eigh``) and its input checks from the Jacobi route."""

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_frobenius_overflow_raises_without_warning(self, field):
        M = np.array([[1.0 + 1e306, 1e306], [1e306, 1.0 + 1e306]])
        if field == "complex":
            M = M.astype(complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="Frobenius norm overflows"):
                inv_sqrt(M)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            inv_sqrt(np.array([[2.0, 1.0], [-1.0, 2.0]]))

    def test_zero_matrix_is_rank_deficient(self):
        with pytest.raises(RankDeficientError):
            inv_sqrt(np.zeros((3, 3)))

    @staticmethod
    def _positive_definite(rng, d, field):
        A = rng.normal(size=(d + 2, d))
        if field == "complex":
            A = A + 1j * rng.normal(size=(d + 2, d))
        return A.conj().T @ A + 0.1 * np.eye(d)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_defining_identity_up_to_d64(self, field):
        rng = np.random.default_rng(106 if field == "real" else 107)
        for d in (*range(1, 17), 24, 32, 48, 64):
            M = self._positive_definite(rng, d, field)
            R = inv_sqrt(M)
            assert np.linalg.norm(R @ M @ R - np.eye(d)) <= 1e-10 * np.linalg.cond(M)
            np.testing.assert_array_equal(R, R.conj().T)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_agrees_with_jacobi_route(self, field):
        rng = np.random.default_rng(108 if field == "real" else 109)
        for d in range(1, 17):
            M = self._positive_definite(rng, d, field)
            w, V = hermitian_eigen(M)
            expected = (V * w ** -0.5) @ V.conj().T
            R = inv_sqrt(M)
            assert np.linalg.norm(R - expected) <= 1e-12 * np.linalg.norm(expected)
