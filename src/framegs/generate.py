"""Built-in example frames and seeded random frame generators.

Everything here is deterministic given the seed; the verification suite
and the test corpus lean on that.
"""

import math

import numpy as np

from .frames import FrameSeq

EXAMPLE_NAMES = ("fig1", "fig2", "fig3")


def example_frame(name: str) -> FrameSeq:
    """The three built-in demonstration frames in R^2.

    fig1: {(1,0), (0,1), (1/sqrt2, 1/sqrt2)} -- ONB plus one dependent vector.
    fig2: same with the third vector at (-1/sqrt2, 1/sqrt2).
    fig3: ten unit vectors at angles 2*pi*k/10, k = 1..10.
    """
    s = 1.0 / math.sqrt(2.0)
    if name == "fig1":
        return FrameSeq(np.array([[1.0, 0.0], [0.0, 1.0], [s, s]]))
    if name == "fig2":
        return FrameSeq(np.array([[1.0, 0.0], [0.0, 1.0], [-s, s]]))
    if name == "fig3":
        angles = 2.0 * np.pi * np.arange(1, 11) / 10.0
        return FrameSeq(np.column_stack([np.cos(angles), np.sin(angles)]))
    raise ValueError(f"unknown example {name!r}; choose from {EXAMPLE_NAMES}")


def _gaussian(rng, shape, field):
    if field == "complex":
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)
    if field == "real":
        return rng.standard_normal(shape)
    raise ValueError(f"field must be 'real' or 'complex', got {field!r}")


def random_frame(
    seed, dim: int, n_vectors: int, field: str = "real", n_dependent: int = 0
) -> FrameSeq:
    """Random Gaussian frame, optionally with ``n_dependent`` vectors
    forced into the span of their predecessors.

    Dependent slots are chosen uniformly among positions 2..n and filled
    with random combinations of the vectors before them; the remaining
    n - n_dependent generic Gaussian vectors keep the sequence spanning
    whenever n - n_dependent >= dim.
    """
    rng = np.random.default_rng(seed)
    if dim < 1 or n_vectors < 1:
        raise ValueError("dim and n_vectors must be positive")
    if not 0 <= n_dependent <= max(0, n_vectors - 1):
        raise ValueError(f"n_dependent must lie in [0, {n_vectors - 1}], got {n_dependent}")
    V = _gaussian(rng, (n_vectors, dim), field)
    if n_dependent:
        slots = rng.choice(np.arange(2, n_vectors + 1), size=n_dependent, replace=False)
        for k in sorted(int(x) for x in slots):
            coeffs = _gaussian(rng, k - 1, field) / math.sqrt(k - 1)
            V[k - 1] = coeffs @ V[: k - 1]
    return FrameSeq(V)


def random_onb_frame(seed, dim: int, n_zeros: int = 0, field: str = "real") -> FrameSeq:
    """Random zero-extended orthonormal basis: ``dim`` orthonormal
    vectors with ``n_zeros`` zero vectors spliced in at random
    positions."""
    rng = np.random.default_rng(seed)
    A = _gaussian(rng, (dim, dim), field)
    Q, _ = np.linalg.qr(A)
    rows = Q.T.copy()
    n = dim + n_zeros
    out = np.zeros((n, dim), dtype=rows.dtype)
    keep = np.sort(rng.choice(n, size=dim, replace=False))
    out[keep] = rows
    return FrameSeq(out)


def random_frame_corpus(seed, count: int, dependent_fraction: float = 0.3) -> list[FrameSeq]:
    """Mixed corpus of random frames: dimensions 2..8, n between d and 20,
    each frame real or complex with probability 1/2, and roughly
    ``dependent_fraction`` of the frames containing forced dependencies
    (spanning is preserved)."""
    rng = np.random.default_rng(seed)
    frames = []
    for _ in range(count):
        d = int(rng.integers(2, 9))
        n = int(rng.integers(d, 21))
        field = "complex" if rng.random() < 0.5 else "real"
        n_dep = 0
        if rng.random() < dependent_fraction:
            room = n - d  # keep d generic vectors so the frame spans
            if room < 1:
                n = d + 1
                room = 1
            n_dep = int(rng.integers(1, min(room, 4) + 1))
        frames.append(random_frame(rng, d, n, field, n_dep))
    return frames
