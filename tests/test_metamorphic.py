"""Metamorphic relations of one pass: properties that relate the pass on
one input to the pass on a transformed input, so they need no oracle and
no rank rule of their own.

Each output difference is bounded by ``1e2 * n * eps * max(1, max ||f||)``
for an n-vector frame, a roundoff bound that scales with the input.
"""

import numpy as np
import pytest

from framegs.frames import FrameSeq
from framegs.generate import random_frame_corpus
from framegs.ggs import KIND_ZERO, ggs_pass

EPS = np.finfo(np.float64).eps


@pytest.fixture(scope="module")
def corpus():
    return random_frame_corpus(3, 400, dependent_fraction=0.6)


def _bound(F: FrameSeq) -> float:
    return 1e2 * F.n_vectors * EPS * max(1.0, float(F.norms().max()))


def _unitary(rng, d, dtype):
    A = rng.standard_normal((d, d))
    if dtype.kind == "c":
        A = A + 1j * rng.standard_normal((d, d))
    Q, _ = np.linalg.qr(A)
    return Q


def test_unitary_covariance(corpus):
    # ggs(F U) = ggs(F) U with the same kinds, for U unitary (orthogonal
    # for a real frame): the pass reads only inner products and norms
    rng = np.random.default_rng(11)
    for i, F in enumerate(corpus):
        U = _unitary(rng, F.dim, F.vectors.dtype)
        G, kinds = ggs_pass(F)
        GU, kinds_u = ggs_pass(FrameSeq(F.vectors @ U))
        assert kinds_u == kinds, i
        assert np.max(np.abs(GU.vectors - G.vectors @ U)) <= _bound(F), i


def test_field_embedding(corpus):
    # a real frame run as complex takes the same branches and gives the
    # same output up to roundoff
    real = [F for F in corpus if F.field == "real"]
    assert real
    for F in real:
        G, kinds = ggs_pass(F)
        Gc, kinds_c = ggs_pass(FrameSeq(F.vectors.astype(complex)))
        assert Gc.field == "complex"
        assert kinds_c == kinds
        assert np.max(np.abs(Gc.vectors - G.vectors)) <= _bound(F)


def test_zero_insertion(corpus):
    # a zero row inserted anywhere passes through as an exact zero and
    # leaves the other steps' branches alone.  The other output rows are
    # not always bit-identical: the inner products against the prefix
    # run over one more (zero) row, and BLAS may sum the longer vector in
    # another order, so they are held to the roundoff bound
    rng = np.random.default_rng(12)
    for i, F in enumerate(corpus):
        p = int(rng.integers(0, F.n_vectors + 1))
        V = F.vectors
        Z = np.insert(V, p, np.zeros(F.dim, dtype=V.dtype), axis=0)
        G, kinds = ggs_pass(F)
        GZ, kinds_z = ggs_pass(FrameSeq(Z))
        assert kinds_z == kinds[:p] + (KIND_ZERO,) + kinds[p:], i
        assert not GZ.vectors[p].any(), i
        others = np.delete(GZ.vectors, p, axis=0)
        assert np.max(np.abs(others - G.vectors)) <= _bound(F), i
