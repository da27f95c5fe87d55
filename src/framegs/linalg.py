"""Small dense linear-algebra kernel over real and complex scalars.

Vectors and matrices are plain numpy arrays.  The scalar field is carried
by the dtype (float64 for real, complex128 for complex) and both fields go
through the same code paths: ``conj`` of a float64 array returns the
array itself, so the results need no branching.  All inputs are
validated to be finite; NaN or Inf raises
:class:`~framegs.errors.NonFiniteError` instead of propagating.

One route takes a Hermitian matrix apart: :func:`hermitian_eigen`,
behind ``frames.frame_bounds``, a cyclic Jacobi iteration written in
Python.  It is simple, accurate and backward stable, but every sweep
applies its d(d-1)/2 rotations one at a time, so it is slow past a few
dozen dimensions: a fraction of a second at d = 64, seconds at d = 128.
"""

import math

import numpy as np

from .errors import JacobiConvergenceError, NonFiniteError

JACOBI_SWEEP_TOL = 1e-14  # off-diagonal Frobenius, relative to ||M||_F
JACOBI_MAX_SWEEPS = 100


def as_field_array(x, name="array"):
    """Coerce ``x`` to a float64 or complex128 ndarray and reject non-finite
    entries."""
    arr = np.asarray(x)
    if np.issubdtype(arr.dtype, np.complexfloating):
        arr = arr.astype(np.complex128, copy=False)
    elif np.issubdtype(arr.dtype, np.number) or arr.dtype == bool:
        arr = arr.astype(np.float64, copy=False)
    else:
        raise TypeError(f"{name}: expected numeric data, got dtype {arr.dtype}")
    if arr.size and not np.isfinite(arr).all():
        raise NonFiniteError(f"{name}: contains NaN or Inf")
    return arr


def _row_norms(x):
    """``np.linalg.norm(x, axis=1)`` of a 2-d float64 or complex128 array:
    numpy's own expression, without the wrapper's argument handling."""
    return np.sqrt(np.add.reduce((x.conj() * x).real, axis=1))


def _l2_norm(x) -> float:
    """``float(np.linalg.norm(x))`` of a float64 or complex128 array: the
    square root of the dot products of its flattened real and imaginary
    parts, which is the arithmetic ``np.linalg.norm`` uses, without its
    per-call overhead."""
    x = x.ravel(order="K")
    if x.dtype.kind == "c":
        xr, xi = x.real, x.imag
        return math.sqrt(xr.dot(xr) + xi.dot(xi))
    return math.sqrt(x.dot(x))


def hermitian_eigen(matrix):
    """Eigendecomposition of a Hermitian matrix by cyclic Jacobi rotations.

    Returns ``(w, V)`` with eigenvalues ``w`` ascending and the columns of
    ``V`` the corresponding orthonormal eigenvectors, so that
    ``matrix @ V[:, i] == w[i] * V[:, i]``.

    Sweeps stop once the off-diagonal Frobenius mass falls below
    ``JACOBI_SWEEP_TOL`` times the Frobenius norm of the input, or after
    ``JACOBI_MAX_SWEEPS`` full sweeps, which raises
    :class:`JacobiConvergenceError`.  The input is the frame operator,
    Hermitian to roundoff by construction; the rotations act on its exact
    Hermitian part ``0.5 * (a + a*)``.  A matrix whose Frobenius norm
    overflows raises :class:`NonFiniteError` without a numpy warning.
    """
    a = as_field_array(matrix, "matrix")
    # overflow, and the NaN that 0.5 * (inf + 0j) makes of it, are caught below
    with np.errstate(over="ignore", invalid="ignore"):
        A = 0.5 * (a + a.conj().T)
        fro = np.linalg.norm(A)
    if not math.isfinite(fro):
        # every off-diagonal norm is at most fro, so no later norm overflows
        raise NonFiniteError("matrix Frobenius norm overflows")
    d = A.shape[0]
    V = np.eye(d, dtype=A.dtype)
    if d == 1 or fro == 0.0:
        w = np.diag(A).real.copy()
        order = np.argsort(w, kind="stable")
        return w[order], V[:, order]

    threshold = JACOBI_SWEEP_TOL * fro
    for _ in range(JACOBI_MAX_SWEEPS):
        off = _offdiag_norm(A)
        if off <= threshold:
            break
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = A[p, q]
                b = abs(apq)
                if b <= 1e-280 * fro:
                    # below any representable rotation angle; annihilate
                    A[p, q] = 0.0
                    A[q, p] = 0.0
                    continue
                e = apq / b  # unit phase; +-1.0 in the real case
                tau = (A[q, q].real - A[p, p].real) / (2.0 * b)
                # smaller root of t^2 + 2*tau*t - 1 = 0
                t = np.sign(tau) / (abs(tau) + np.hypot(1.0, tau)) if tau != 0.0 else 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                ce = c * e
                se = s * e
                rowp = A[p, :].copy()
                rowq = A[q, :].copy()
                A[p, :] = ce.conjugate() * rowp - s * rowq
                A[q, :] = se.conjugate() * rowp + c * rowq
                colp = A[:, p].copy()
                colq = A[:, q].copy()
                A[:, p] = ce * colp - s * colq
                A[:, q] = se * colp + c * colq
                A[p, q] = 0.0
                A[q, p] = 0.0
                A[p, p] = A[p, p].real
                A[q, q] = A[q, q].real
                vp = V[:, p].copy()
                vq = V[:, q].copy()
                V[:, p] = ce * vp - s * vq
                V[:, q] = se * vp + c * vq
    if _offdiag_norm(A) > threshold:
        raise JacobiConvergenceError(
            f"off-diagonal mass {_offdiag_norm(A):.3e} above {threshold:.3e} "
            f"after {JACOBI_MAX_SWEEPS} sweeps"
        )
    w = np.diag(A).real.copy()
    order = np.argsort(w, kind="stable")
    return w[order], V[:, order]


def _offdiag_norm(A):
    # summed entrywise; the subtraction ||A||_F^2 - ||diag||^2 cancels badly
    off = A.copy()
    np.fill_diagonal(off, 0.0)
    return float(np.linalg.norm(off))
