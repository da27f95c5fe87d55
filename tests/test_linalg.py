import warnings

import numpy as np
import pytest

from framegs.errors import NonFiniteError
from framegs.linalg import hermitian_eigen


class TestHermitianEigen:
    def test_identity(self):
        np.testing.assert_allclose(hermitian_eigen(np.eye(2)), [1.0, 1.0])

    def test_diagonal(self):
        np.testing.assert_allclose(hermitian_eigen(np.diag([2.0, 1.0])), [1.0, 2.0])

    def test_hand_2x2(self):
        w = hermitian_eigen(np.array([[1.25, 0.25], [0.25, 1.25]]))
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
            scale = max(1.0, float(np.linalg.norm(M)))
            np.testing.assert_allclose(hermitian_eigen(M), np.linalg.eigvalsh(M), atol=1e-11 * scale)

    def test_degenerate_spectrum(self):
        # projector with repeated eigenvalues 0 and 1
        q = np.array([1.0, 2.0, -1.0, 0.5])
        q /= np.linalg.norm(q)
        M = np.eye(4) - np.outer(q, q)
        np.testing.assert_allclose(hermitian_eigen(M), [0.0, 1.0, 1.0, 1.0], atol=1e-13)

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

