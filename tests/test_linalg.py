import warnings

import numpy as np
import pytest

from framegs.errors import NonFiniteError
from framegs.linalg import hermitian_eigen


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

