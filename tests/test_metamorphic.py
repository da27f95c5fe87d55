"""Metamorphic relations of one pass and of its iteration: properties
that relate a run on one input to a run on a transformed input, so they
need no oracle and no rank rule of their own.

Each output difference of one pass is bounded by
``1e2 * n * eps * max(1, max ||f||)`` for an n-vector frame, a roundoff
bound that scales with the input; the verdicts of an iteration must be
equal.
"""

import json

import numpy as np
import pytest

from framegs.cli import main
from framegs.frames import FrameSeq
from framegs.generate import random_frame_corpus
from framegs.ggs import KIND_ZERO, ggs_pass
from framegs.iteration import classify_limit, iterate

EPS = np.finfo(np.float64).eps
# pass 1 shrinks the parallel first output row to about 5e-13, under the
# zero rule of pass 2: the replayed passes meet the zero-set prediction,
# and a traced run reports the drift, in every rotation
HUGE = FrameSeq(np.array([[10.0, 0.0], [0.0, 10.0], [2e12, 0.0]]))
# inputs the pass routes wrongly, so that run exits 1 in every rotation:
# a row 1e-9 off the span of its predecessors, two vectors below the
# absolute routing rule, and rows whose squared norms underflow
_N = np.random.default_rng(9).normal(size=(4, 4))
_N[2] = _N[0] - 0.5 * _N[1] + 1e-9 * _N[3]
MISROUTED = [FrameSeq(_N), FrameSeq(np.eye(2) * 1e-11),
             FrameSeq(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]) * 1e-200)]


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


def _rotated_pairs(frames, seed):
    """Each frame F with F U for a random unitary (real: orthogonal) U."""
    rng = np.random.default_rng(seed)
    return [(F, FrameSeq(F.vectors @ _unitary(rng, F.dim, F.vectors.dtype))) for F in frames]


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


def test_iterate_unitary_covariance(corpus):
    # iterating F U takes the branches of iterating F, so the limit has the
    # same zero set and the same prediction verdict
    for i, (F, FU) in enumerate(_rotated_pairs(corpus[:100], 13)):
        rep, rep_u = (classify_limit(iterate(G, max_iter=100, eps_delta=0.0, snapshot_stride=100))
                      for G in (F, FU))
        assert rep_u.zero_indices == rep.zero_indices, i
        assert rep_u.prediction_match == rep.prediction_match, i


def test_traced_iterate_unitary_covariance(corpus):
    # the recurrence check's pattern verdict is covariant too; HUGE makes
    # sure that both verdicts occur
    seen = set()
    for i, (F, FU) in enumerate(_rotated_pairs([*corpus[:10], HUGE], 14)):
        pat, pat_u = (iterate(G, max_iter=100, eps_delta=0.0, snapshot_stride=100,
                              trace_steps=True).recurrences.pattern_consistent for G in (F, FU))
        assert pat_u == pat, i
        seen.add(pat)
    assert seen == {True, False}


def test_cli_iterate_exit_code_unitary_covariance(corpus, tmp_path, capsys):
    # HUGE drifts and exits 0; the two vectors of 1e-11 both route dependent
    # and vanish, so the prediction fails (exit 1)
    codes = set()
    for i, (F, FU) in enumerate(_rotated_pairs([*corpus[:5], HUGE, MISROUTED[1]], 15)):
        rc = []
        for G in (F, FU):
            path = tmp_path / "frame.json"
            path.write_text(json.dumps(G.to_dict()))
            rc.append(main(["iterate", "--input", str(path), "--max-iter", "100", "--eps-delta", "0",
                            "--trace", "steps", "--output", str(tmp_path / "out.json")]))
        assert rc[1] == rc[0], i
        codes.add(rc[0])
    capsys.readouterr()
    assert codes == {0, 1}


def test_cli_run_exit_code_unitary_covariance(corpus, tmp_path, capsys):
    # run judges the output against the span of its input, and a rotation
    # moves both together, so the verdict is the same for F and F U
    codes = set()
    for i, (F, FU) in enumerate(_rotated_pairs([*corpus[:100], *MISROUTED], 16)):
        rc = []
        for G in (F, FU):
            path = tmp_path / "frame.json"
            path.write_text(json.dumps(G.to_dict()))
            rc.append(main(["run", "--input", str(path), "--output", str(tmp_path / "out.json")]))
        assert rc[1] == rc[0], i
        codes.add(rc[0])
    capsys.readouterr()
    assert codes == {0, 1}
