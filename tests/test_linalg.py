import math
import warnings

import numpy as np
import pytest

from framegs import linalg
from framegs.errors import JacobiConvergenceError, NonFiniteError
from framegs.linalg import as_field_array, hermitian_eigen


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

    def test_sweep_limit_raises_before_a_sweep(self, monkeypatch):
        monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", 0)
        with pytest.raises(JacobiConvergenceError,
                           match=r"^off-diagonal mass 1\.414e\+00 above 3\.162e-14 after 0 sweeps$"):
            hermitian_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))

    def test_sweep_limit_raises_after_a_sweep(self, monkeypatch):
        M = np.array([[4.0, 1.0, 2.0, 0.5], [1.0, 3.0, 0.0, 1.0], [2.0, 0.0, 2.0, 1.0], [0.5, 1.0, 1.0, 1.0]])
        monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", 1)
        with pytest.raises(JacobiConvergenceError,
                           match=r"^off-diagonal mass 4\.842e-01 above 6\.671e-14 after 1 sweeps$"):
            hermitian_eigen(M)
        # four sweeps meet the threshold
        monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", 4)
        np.testing.assert_allclose(hermitian_eigen(M), np.linalg.eigvalsh(M), atol=1e-13)


def _scalar_samples(n=25_000):
    """About 1e5 values of tau: normal, 1e-8 and 1e8 times normal, and
    +-10^U(-300, 300)."""
    rng = np.random.default_rng(20260)
    wide = 10.0 ** rng.uniform(-300.0, 300.0, n) * rng.choice((-1.0, 1.0), n)
    return np.concatenate([rng.normal(size=n), 1e-8 * rng.normal(size=n), 1e8 * rng.normal(size=n), wide])


def test_rotation_scalars_round_as_numpy():
    # hermitian_eigen computes its rotation in Python scalars and relies on
    # each of these to give numpy's bits; a platform that breaks one moves
    # the eigenvalues, and so the bounds that `framegs run` prints
    tau = _scalar_samples()
    assert tau.size >= 100_000 and tau.all()
    hypot = np.array([abs(complex(1.0, t)) for t in tau.tolist()])
    assert np.array_equal(hypot, np.hypot(1.0, tau))
    sign = np.array([math.copysign(1.0, t) for t in tau.tolist()])
    assert np.array_equal(sign, np.sign(tau))
    # a float times a complex, signed zeros included, as numpy's scalars
    rng = np.random.default_rng(20261)
    phases = np.exp(1j * rng.uniform(-np.pi, np.pi, 2000)).tolist()
    phases += [complex(x, y) for x in (0.0, -0.0, 1.0, -1.0) for y in (0.0, -0.0, 1.0, -1.0)]
    for c, e in zip(rng.uniform(0.5, 1.0, len(phases)).tolist(), phases):
        assert np.complex128(c * e).tobytes() == (np.float64(c) * np.complex128(e)).tobytes(), (c, e)


def _reference_eigen(M):
    """The cyclic Jacobi solver in numpy scalars, with each rotation's rows
    and columns copied before they are written: the arithmetic that
    ``hermitian_eigen`` keeps bit for bit."""
    A = 0.5 * (M + M.conj().T)
    fro = np.linalg.norm(A)
    d = A.shape[0]

    def off(A):
        X = A.copy()
        np.fill_diagonal(X, 0.0)
        return float(np.linalg.norm(X))

    if d > 1 and fro > 0.0:
        while off(A) > linalg.JACOBI_SWEEP_TOL * fro:
            for p in range(d - 1):
                for q in range(p + 1, d):
                    apq = A[p, q]
                    b = abs(apq)
                    if b <= 1e-280 * fro:
                        A[p, q] = A[q, p] = 0.0
                        continue
                    e = apq / b
                    tau = (A[q, q].real - A[p, p].real) / (2.0 * b)
                    t = np.sign(tau) / (abs(tau) + np.hypot(1.0, tau)) if tau != 0.0 else 1.0
                    c = 1.0 / np.sqrt(1.0 + t * t)
                    s = t * c
                    ce, se = c * e, s * e
                    rowp, rowq = A[p, :].copy(), A[q, :].copy()
                    A[p, :] = ce.conjugate() * rowp - s * rowq
                    A[q, :] = se.conjugate() * rowp + c * rowq
                    colp, colq = A[:, p].copy(), A[:, q].copy()
                    A[:, p] = ce * colp - s * colq
                    A[:, q] = se * colp + c * colq
                    A[p, q] = A[q, p] = 0.0
                    A[p, p] = A[p, p].real
                    A[q, q] = A[q, q].real
    return np.sort(np.diag(A).real, kind="stable")


def _hermitian_corpus():
    """Hermitian matrices, d from 1 to 9, real and complex: Gaussian, Gram,
    projectors, diagonals, small integers with -0.0 entries and equal
    diagonal entries (tau = 0), an entry below the annihilation floor, and
    scales of 1e-150 and 1e150."""
    rng = np.random.default_rng(3535)
    for i in range(320):
        d = int(rng.integers(1, 10))
        A = rng.normal(size=(d, d))
        if i % 2:
            A = A + 1j * rng.normal(size=(d, d))
        kind = i // 2 % 8
        if kind == 0:
            M = A + A.conj().T
        elif kind == 1:
            M = A @ A.conj().T
        elif kind == 2:
            Q = np.linalg.qr(A)[0][:, : int(rng.integers(0, d + 1))]
            M = Q @ Q.conj().T
        elif kind == 3:
            M = np.diag(np.diag(A).real).astype(A.dtype)
        else:
            B = np.round(A)
            B[rng.random((d, d)) < 0.3] = -0.0
            M = B + B.conj().T
            if kind == 5:
                np.fill_diagonal(M, 1.0)
            if kind == 6 and d > 1:
                M[0, 1] = M[1, 0] = 1e-300
        yield M * {0: 1.0, 1: 1e-150, 2: 1e150}[i % 3]


def test_rotation_keeps_the_bits_of_the_numpy_scalar_rotation():
    for M in _hermitian_corpus():
        assert hermitian_eigen(M).tobytes() == _reference_eigen(M).tobytes(), M


def test_non_numeric_data_is_refused():
    with pytest.raises(TypeError, match="^array: expected numeric data, got dtype <U1$"):
        as_field_array(np.array(["a"]))
