"""Independent numpy routes used by the output gate.

Nothing here calls framegs: spans, ranks and frame bounds come from the
singular value decomposition, so a defect shared by the package's own
validators (``is_parseval``, ``dependency_profile``, the Jacobi solver)
cannot hide itself.  Frames are (n, d) arrays whose rows are the vectors;
the frame operator is ``V.T @ V.conj()``, as in the package.
"""

import math

import numpy as np

RANK_RTOL = 1e-8      # singular values below this share of the largest are rank-deficient
ZERO_RTOL = 1e-12     # same zero-vector rule as the package documents
PARSEVAL_TOL = 1e-10  # Frobenius gap between frame operator and span projection


def _svd(V):
    U, s, Vh = np.linalg.svd(np.asarray(V), full_matrices=False)
    r = int((s > RANK_RTOL * s[0]).sum()) if s.size and s[0] > 0.0 else 0
    return U, s, Vh, r


def span_projection(V) -> np.ndarray:
    """Orthogonal projection onto the row span of ``V``."""
    _, _, Vh, r = _svd(V)
    B = Vh[:r]
    return B.T @ B.conj()


def parseval_gap(G, V) -> float:
    """Frobenius distance between the frame operator of ``G`` and the
    projection onto the span of ``V``; 0 when ``G`` is a Parseval frame
    for span(V)."""
    G = np.asarray(G)
    return float(np.linalg.norm(G.T @ G.conj() - span_projection(V)))


def polar_factor(V) -> np.ndarray:
    """The canonical Parseval frame of ``V`` written as U_r Vh_r: the frame
    operator's inverse square root on the span, applied to every row."""
    U, _, Vh, r = _svd(V)
    return U[:, :r] @ Vh[:r]


def operator_bounds(V) -> tuple[float, float]:
    """Smallest and largest eigenvalue of the frame operator, from the
    singular values (the smallest is 0 when V does not span)."""
    V = np.asarray(V)
    s = np.linalg.svd(V, compute_uv=False)
    upper = float(s[0] ** 2)
    lower = float(s[-1] ** 2) if s.size == V.shape[1] else 0.0
    return lower, upper


def zero_rows(V) -> tuple[int, ...]:
    norms = np.linalg.norm(np.asarray(V), axis=1)
    scale = norms.max()
    thresh = ZERO_RTOL * (scale if scale > 0.0 else 1.0)
    return tuple(int(i + 1) for i in np.flatnonzero(norms <= thresh))


def dependent_rows(V) -> tuple[int, ...]:
    """1-based indices of nonzero rows that add no rank to the rows before
    them, by the rank of each prefix."""
    V = np.asarray(V)
    zeros = set(zero_rows(V))
    out = []
    rank = 0
    for k in range(1, V.shape[0] + 1):
        if k in zeros:
            continue
        r = _svd(V[:k])[3]
        if r == rank:
            out.append(k)
        rank = r
    return tuple(out)


def closed_form_decay_error(norms_of_last, f_norm) -> float:
    """Largest |norm_m - ||f|| / sqrt(1 + m ||f||^2)| relative to the
    prediction, over m = 1 .. len(norms_of_last)."""
    worst = 0.0
    for m, x in enumerate(norms_of_last, start=1):
        pred = f_norm / math.sqrt(1.0 + m * f_norm * f_norm)
        worst = max(worst, abs(float(x) / pred - 1.0))
    return worst
