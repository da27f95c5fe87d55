"""Numpy-only oracles behind the tier-1 span, rank, Parseval and bound gates.

Nothing here imports framegs, so a defect in the package's rules cannot
hide itself.  One rule, with its own constants: a row is zero when its
norm is at most ZERO_RTOL times the largest, and the span of the rows is
that of the right singular vectors of the nonzero rows at unit norm, cut
at s > RANK_RTOL s[0].  Frames are (n, d) arrays; S = V.T @ V.conj().
"""

import numpy as np

ZERO_RTOL = 1e-12
RANK_RTOL = 1e-10


def unit_rows(V) -> tuple[np.ndarray, np.ndarray]:
    """The 0-based indices of the nonzero rows of V, and those rows at unit
    norm, each scaled by its largest entry first so that no square underflows."""
    scale = np.abs(V).max(axis=1)
    idx = np.flatnonzero(scale > 0.0)
    U = V[idx] / scale[idx, None]
    if idx.size:
        norms = scale[idx] * np.linalg.norm(U, axis=1)
        keep = norms > ZERO_RTOL * norms.max()
        idx, U = idx[keep], U[keep]
        U /= np.linalg.norm(U, axis=1, keepdims=True)
    return idx, U


def _span(U) -> np.ndarray:
    _, s, Wh = np.linalg.svd(U, full_matrices=False)
    return Wh[s > RANK_RTOL * s[:1]]


def zero_rows(V) -> tuple[int, ...]:
    """1-based indices of the rows of V that count as zero."""
    return tuple(int(k) + 1 for k in np.setdiff1d(np.arange(len(V)), unit_rows(V)[0]))


def span_basis(V) -> np.ndarray:
    """Orthonormal rows spanning the rows of V; their number is V's rank."""
    return _span(unit_rows(V)[1])


def projection(V) -> np.ndarray:
    B = span_basis(V)
    return B.T @ B.conj()


def parseval_gap(G, V) -> float:
    """||S_G - P||_F, P the projection onto span(V): 0 for a Parseval frame G of span(V)."""
    return float(np.linalg.norm(G.T @ G.conj() - projection(V)))


def span_steps(V) -> tuple[int, ...]:
    """1-based steps at which the rank of the prefix of V's rows grows."""
    idx, U = unit_rows(V)
    ranks = [0] + [len(_span(U[: j + 1])) for j in range(len(U))]
    return tuple(int(k) + 1 for j, k in enumerate(idx) if ranks[j + 1] > ranks[j])


def dependent_rows(V) -> tuple[int, ...]:
    """1-based indices of the nonzero rows of V that add no rank to the rows before them."""
    steps = span_steps(V)
    return tuple(int(k) + 1 for k in unit_rows(V)[0] if k + 1 not in steps)


def polar_factor(V) -> np.ndarray:
    """U_r Vh_r from an SVD of the raw rows, r = V's rank: the canonical Parseval frame."""
    U, _, Vh = np.linalg.svd(V, full_matrices=False)
    r = len(span_basis(V))
    return U[:, :r] @ Vh[:r]


def bounds(V) -> tuple[float, float]:
    """Optimal frame bounds (s[-1]², s[0]²), with A = 0 below d rows."""
    s = np.linalg.svd(V, compute_uv=False)
    return (float(s[-1] ** 2) if len(V) >= V.shape[1] else 0.0), float(s[0] ** 2)
