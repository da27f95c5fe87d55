import json
import math

import numpy as np
import pytest

from framegs.errors import DimensionMismatchError, NonFiniteError
from framegs.frames import (
    DEP_TOL,
    ZERO_REL_TOL,
    FrameBounds,
    FrameSeq,
    canonical_parseval,
    dependency_profile,
    frame_bounds,
    frame_operator,
    is_parseval,
    l2_distance,
    reconstruct,
    _span_basis,
    span_projection,
    zero_indices,
)
from framegs.generate import example_frame, random_frame, random_frame_corpus
from framegs.ggs import KIND_INDEPENDENT, KIND_ZERO, ggs_pass

RT2 = math.sqrt(2.0)
FIG1 = example_frame("fig1")
FIG3 = example_frame("fig3")


class TestFrameSeq:
    def test_basic_properties(self):
        assert FIG1.n_vectors == 3 and FIG1.dim == 2 and FIG1.field == "real"
        assert len(FIG1) == 3
        np.testing.assert_allclose(FIG1[2], [1 / RT2, 1 / RT2])

    def test_vectors_are_immutable(self):
        with pytest.raises(ValueError):
            FIG1.vectors[0, 0] = 7.0

    def test_input_array_not_aliased(self):
        arr = np.ones((2, 2))
        F = FrameSeq(arr)
        arr[0, 0] = 99.0
        assert F.vectors[0, 0] == 1.0

    def test_rejects_non_2d(self):
        with pytest.raises(DimensionMismatchError):
            FrameSeq(np.ones(3))
        with pytest.raises(DimensionMismatchError):
            FrameSeq(np.ones((2, 2, 2)))

    def test_rejects_empty(self):
        with pytest.raises(DimensionMismatchError):
            FrameSeq(np.ones((0, 2)))

    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteError):
            FrameSeq(np.array([[1.0, np.nan]]))
        with pytest.raises(NonFiniteError):
            FrameSeq(np.array([[1.0, 0.0], [np.inf, 0.0]]))

    def test_complex_field_detection(self):
        F = FrameSeq(np.array([[1.0 + 0j, 0.0]]))
        assert F.field == "complex"

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_dict_round_trip(self, field):
        rng = np.random.default_rng(21)
        V = rng.normal(size=(4, 3))
        if field == "complex":
            V = V + 1j * rng.normal(size=(4, 3))
        F = FrameSeq(V)
        raw = F.to_dict()["vectors"]
        flat = [x for r in raw for x in r] if field == "real" else [x for r in raw for z in r for x in z]
        assert all(type(x) is float for x in flat)
        assert len(flat) == V.size * (2 if field == "complex" else 1)
        doc = json.loads(json.dumps(F.to_dict()))
        G = FrameSeq.from_dict(doc)
        assert G.field == field
        assert l2_distance(F, G) == 0.0

    def test_from_dict_rejects_bad_field(self):
        with pytest.raises(ValueError):
            FrameSeq.from_dict({"dim": 1, "field": "rational", "vectors": [[1.0]]})

    def test_from_dict_rejects_dim_mismatch(self):
        with pytest.raises(ValueError):
            FrameSeq.from_dict({"dim": 3, "field": "real", "vectors": [[1.0, 0.0]]})

    def test_from_dict_rejects_missing_key(self):
        with pytest.raises(ValueError):
            FrameSeq.from_dict({"dim": 2, "vectors": [[1.0, 0.0]]})


class TestFrameOperator:
    def test_onb_gives_identity(self):
        F = FrameSeq(np.eye(2))
        np.testing.assert_allclose(frame_operator(F), np.eye(2), atol=1e-15)

    def test_repeated_vector(self):
        F = FrameSeq(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(frame_operator(F), np.diag([2.0, 1.0]), atol=1e-15)

    def test_fig1_operator(self):
        np.testing.assert_allclose(
            frame_operator(FIG1), [[1.5, 0.5], [0.5, 1.5]], atol=1e-15
        )

    def test_hermitian_for_complex(self):
        rng = np.random.default_rng(22)
        V = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
        S = frame_operator(FrameSeq(V))
        np.testing.assert_allclose(S, S.conj().T, atol=1e-14)


class TestFrameBounds:
    def test_onb(self):
        assert frame_bounds(FrameSeq(np.eye(2))) == pytest.approx((1.0, 1.0), abs=1e-12)

    def test_repeated_vector(self):
        b = frame_bounds(FrameSeq(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])))
        assert b == pytest.approx((1.0, 2.0), abs=1e-12)

    def test_rank_deficient_lower_bound_zero(self):
        b = frame_bounds(FrameSeq(np.array([[1.0, 0.0]])))
        assert isinstance(b, FrameBounds)
        assert b.lower == pytest.approx(0.0, abs=1e-13)
        assert b.upper == pytest.approx(1.0, abs=1e-13)

    def test_fig1(self):
        assert frame_bounds(FIG1) == pytest.approx((1.0, 2.0), abs=1e-12)


class TestIsParseval:
    def test_onb_true(self):
        chk = is_parseval(FrameSeq(np.eye(3)))
        assert chk and chk.residual <= 1e-15

    def test_fig1_false_with_unit_residual(self):
        chk = is_parseval(FIG1)
        assert not chk
        assert chk.residual == pytest.approx(1.0, abs=1e-12)

    def test_fig1_pass_output_true(self):
        a = (2 + RT2) / 4
        b = (RT2 - 2) / 4
        G = FrameSeq(np.array([[a, b], [b, a], [0.5, 0.5]]))
        assert is_parseval(G)

    def test_span_relative_subspace_frame(self):
        # Parseval for a line in R^3, far from spanning the ambient space
        v = np.array([3.0, 0.0, 4.0]) / 5.0
        G = FrameSeq(np.stack([v * 0.6, v * 0.8]))  # norms^2 sum to 1 along the line
        assert is_parseval(G).residual <= 1e-12

    def test_default_span_is_the_frame_itself(self):
        for F in [FIG1, FIG3, *random_frame_corpus(12, 10, dependent_fraction=0.5)]:
            G, _ = ggs_pass(F)
            for frame in (F, G):
                assert is_parseval(frame, span=frame) == is_parseval(frame)

    def test_subspace_frame_fails_against_a_larger_span(self):
        # the line frame above against the plane it lies in
        v = np.array([3.0, 0.0, 4.0]) / 5.0
        G = FrameSeq(np.stack([v * 0.6, v * 0.8]))
        plane = FrameSeq(np.stack([v, [0.0, 1.0, 0.0]]))
        chk = is_parseval(G, span=plane)
        assert not chk and chk.residual == pytest.approx(1.0, abs=1e-12)
        assert is_parseval(G, span=FrameSeq(v[None, :] * 2.0)).residual <= 1e-12

    def test_span_of_another_dimension_raises(self):
        with pytest.raises(DimensionMismatchError, match="dimension 3"):
            is_parseval(FIG1, span=FrameSeq(np.eye(3)))


class TestCanonicalParseval:
    def test_onb_unchanged(self):
        F = FrameSeq(np.eye(2))
        assert l2_distance(canonical_parseval(F), F) <= 1e-14

    def test_repeated_vector_hand_value(self):
        F = FrameSeq(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]))
        expected = np.array([[1 / RT2, 0.0], [0.0, 1.0], [1 / RT2, 0.0]])
        np.testing.assert_allclose(canonical_parseval(F).vectors, expected, atol=1e-12)

    def test_fig1_output_parseval(self):
        assert is_parseval(canonical_parseval(FIG1))

    def test_zero_vectors_stay_zero(self):
        F = FrameSeq(np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 1.0]]))
        G = canonical_parseval(F)
        np.testing.assert_array_equal(G.vectors[1], [0.0, 0.0])
        assert is_parseval(G)

    def test_non_spanning_handled_by_span_restriction(self):
        F = FrameSeq(np.array([[2.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
        G = canonical_parseval(F)
        assert is_parseval(G)

    def test_bounds_become_unit(self):
        for F in random_frame_corpus(23, 25):
            G = canonical_parseval(F)
            # bounds are span-relative only for spanning frames; corpus spans
            A, B = frame_bounds(G)
            assert abs(A - 1.0) <= 1e-10 and abs(B - 1.0) <= 1e-10

    def test_l2_identity(self):
        for F in random_frame_corpus(24, 25):
            G = canonical_parseval(F)
            rank = F.n_vectors - len(dependency_profile(F)) - len(zero_indices(F))
            assert abs(float((G.norms() ** 2).sum()) - rank) <= 1e-10

    @staticmethod
    def _polar_factor(V):
        """U_r Vh_r from an SVD of the rows: the canonical Parseval frame
        by a route that shares no code with the package."""
        U, s, Vh = np.linalg.svd(V, full_matrices=False)
        r = int((s > 1e-10 * s[0]).sum())
        return U[:, :r] @ Vh[:r]

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize(
        "d, n, n_dependent",
        [(64, 200, 50), (64, 60, 20), (2, 6, 2), (2, 2, 1), (8, 30, 8), (8, 6, 2),
         (16, 50, 12), (16, 15, 5)],
        ids=["spanning", "rank40", "d2-spanning", "d2-rank1", "d8-spanning", "d8-rank4",
             "d16-spanning", "d16-rank10"],
    )
    def test_matches_polar_factor_at_d64(self, field, d, n, n_dependent):
        F = random_frame(11, d, n, field, n_dependent)
        Q = _span_basis(F.vectors)
        assert Q.shape[0] == min(d, n - n_dependent)   # below d: the span-coordinates path
        G = canonical_parseval(F)
        assert np.linalg.norm(G.vectors - self._polar_factor(F.vectors)) <= 1e-10

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("gamma", [1e-3, 1e-6, 1e-7, 1e-9])
    def test_near_parallel_rows(self, field, gamma):
        # the pass and the span see R^2 down to gamma = DEP_TOL; so must the
        # canonical frame, whose S has eigenvalues about 2 and gamma^2 / 2
        dtype = complex if field == "complex" else float
        F = FrameSeq(np.array([[1.0, 0.0], [1.0, gamma]], dtype=dtype))
        C = canonical_parseval(F)
        assert np.linalg.norm(C.vectors - self._polar_factor(F.vectors)) <= 1e-12
        assert is_parseval(C, span=F).ok


class TestReconstruct:
    def test_onb(self):
        F = FrameSeq(np.eye(2))
        np.testing.assert_allclose(reconstruct(F, np.array([3.0, 4.0])), [3.0, 4.0])

    def test_parseval_identity_on_fig1_output(self):
        G = canonical_parseval(FIG1)
        f = np.array([1.0, 2.0])
        np.testing.assert_allclose(reconstruct(G, f), f, atol=1e-10)

    def test_non_parseval_scales(self):
        F = FrameSeq(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(reconstruct(F, np.array([1.0, 0.0])), [2.0, 0.0])

    def test_same_arithmetic_as_frame_operator(self):
        rng = np.random.default_rng(25)
        V = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
        F = FrameSeq(V)
        f = rng.normal(size=4) + 1j * rng.normal(size=4)
        np.testing.assert_array_equal(reconstruct(F, f), frame_operator(F) @ f)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            reconstruct(FIG1, np.array([1.0, 0.0, 0.0]))

    def test_real_vector_into_complex_frame(self):
        F = FrameSeq(np.eye(2, dtype=complex))
        out = reconstruct(F, np.array([1.0, 2.0]))
        np.testing.assert_allclose(out, [1.0, 2.0])

    def test_complex_vector_into_real_frame_rejected(self):
        with pytest.raises(DimensionMismatchError):
            reconstruct(FIG1, np.array([1.0 + 1j, 0.0]))


class TestDependencyProfile:
    def test_fig1(self):
        assert dependency_profile(FIG1) == (3,)

    def test_onb_empty(self):
        assert dependency_profile(FrameSeq(np.eye(4))) == ()

    def test_fig3(self):
        assert dependency_profile(FIG3) == tuple(range(3, 11))

    def test_zero_vectors_not_dependent(self):
        F = FrameSeq(np.array([[1.0, 0.0], [0.0, 0.0], [2.0, 0.0]]))
        assert dependency_profile(F) == (3,)
        assert zero_indices(F) == (2,)

    def test_scaling_invariance(self):
        rng = np.random.default_rng(26)
        for F in random_frame_corpus(27, 20):
            scales = rng.uniform(0.5, 2.0, size=F.n_vectors)
            if F.field == "complex":
                phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=F.n_vectors))
                scales = scales * phases
            G = FrameSeq(F.vectors * scales[:, None])
            assert dependency_profile(G) == dependency_profile(F)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_overcomplete_tail_is_dependent(self, field):
        rng = np.random.default_rng(42)
        V = rng.normal(size=(5, 3))
        if field == "complex":
            V = V + 1j * rng.normal(size=(5, 3))
        F = FrameSeq(V)
        # the first three span the space, so the last two lie in it: the
        # pass routes them dependent at full rank, with no residual test
        assert dependency_profile(F) == (4, 5)
        np.testing.assert_allclose(span_projection(F), np.eye(3), atol=1e-14)

    def test_matches_svd_prefix_rank(self):
        # the routing of the pass against a route that shares no code with
        # it, on each corpus frame and on a copy with one vector zeroed
        n_dependent = n_zero = 0
        for seed in range(30, 60):
            for i, F in enumerate(random_frame_corpus(seed, 25, dependent_fraction=0.7)):
                V = F.vectors.copy()
                V[i % len(V)] = 0.0
                for W in (F.vectors, V):
                    want_zero = _oracle_zero_rows(W)
                    want_dep = _oracle_dependent_rows(W)
                    assert zero_indices(FrameSeq(W)) == want_zero, (seed, i)
                    assert dependency_profile(FrameSeq(W)) == want_dep, (seed, i)
                    n_dependent += len(want_dep)
                    n_zero += len(want_zero)
        assert n_dependent > 5000 and n_zero == 750, (n_dependent, n_zero)


def _oracle_zero_rows(V):
    """1-based indices of rows whose norm is at most 1e-12 times the
    largest row norm (or 1e-12 when every row vanishes)."""
    norms = np.linalg.norm(V, axis=1)
    scale = norms.max()
    return tuple(int(i + 1) for i in np.flatnonzero(norms <= 1e-12 * (scale if scale > 0 else 1.0)))


def _oracle_dependent_rows(V):
    """1-based indices of the nonzero rows that add no rank to the rows
    before them, the rank of each prefix counted from its singular values
    (those above 1e-8 times the largest)."""
    zeros = set(_oracle_zero_rows(V))
    out = []
    rank = 0
    for k in range(1, V.shape[0] + 1):
        if k in zeros:
            continue
        s = np.linalg.svd(V[:k], compute_uv=False)
        r = int((s > 1e-8 * s[0]).sum()) if s[0] > 0.0 else 0
        if r == rank:
            out.append(k)
        rank = r
    return tuple(out)


class TestZeroIndices:
    def test_exact_zeros(self):
        F = FrameSeq(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]))
        assert zero_indices(F) == (1, 3)

    def test_threshold_is_relative_to_largest_norm(self):
        F = FrameSeq(np.array([[1e-13, 0.0], [1.0, 0.0]]))
        assert zero_indices(F) == (1,)
        G = FrameSeq(np.array([[1e-13, 0.0], [1e-13, 0.0]]))
        assert zero_indices(G) == ()  # both at full scale relative to each other

    def test_all_zero(self):
        F = FrameSeq(np.zeros((2, 3)))
        assert zero_indices(F) == (1, 2)

    def test_overflowing_norm_raises_like_the_pass(self):
        # the third norm overflows to inf; zero_indices must not scale the
        # threshold by it and call every vector zero, but raise as the pass
        # and dependency_profile do
        F = FrameSeq(np.array([[1.0, 0.0], [0.0, 1.0], [1e200, 1e200]]))
        for call in (zero_indices, dependency_profile, ggs_pass):
            with pytest.raises(NonFiniteError, match="^step 3: input vector norm is not finite$"):
                call(F)

    def test_pass_and_profile_share_the_threshold(self):
        # a norm exactly at ZERO_REL_TOL times the largest one is zero everywhere
        F = FrameSeq(np.array([[1.0, 0.0], [ZERO_REL_TOL, 0.0], [0.0, 1.0]]))
        assert zero_indices(F) == (2,)
        assert ggs_pass(F)[1] == (KIND_INDEPENDENT, KIND_ZERO, KIND_INDEPENDENT)
        assert dependency_profile(F) == ()   # vector 2 lies along vector 1, but counts as zero


class TestL2Distance:
    def test_zero_for_equal(self):
        assert l2_distance(FIG1, FIG1) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            l2_distance(FIG1, FrameSeq(np.eye(2)))

    def test_known_value(self):
        a = FrameSeq(np.array([[1.0, 0.0]]))
        b = FrameSeq(np.array([[0.0, 1.0]]))
        assert l2_distance(a, b) == pytest.approx(RT2, abs=1e-15)


def test_span_projection_is_projection():
    rng = np.random.default_rng(28)
    for _ in range(20):
        d = int(rng.integers(2, 7))
        r = int(rng.integers(1, d + 1))
        V = rng.normal(size=(r + 2, d)) @ np.diag(np.ones(d))
        V[:, r:] = 0.0  # confine to first r coordinates
        P = span_projection(FrameSeq(V))
        np.testing.assert_allclose(P @ P, P, atol=1e-12)
        np.testing.assert_allclose(P, P.conj().T, atol=1e-13)
        assert np.trace(P).real == pytest.approx(np.linalg.matrix_rank(V), abs=1e-10)


def _frozen_span_basis(V, dep_tol):
    """``_span_basis`` as first written, with the plain products and norms
    and no stop at full rank; its results are the reference wherever it
    returns (at ``dep_tol = 0`` it raises IndexError once n > d).  The
    dependent and zero lists it also built are gone with those of
    ``_span_basis``."""
    n, d = V.shape
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(V, axis=1)
    scale = norms.max()
    zthresh = ZERO_REL_TOL * (scale if scale > 0.0 else 1.0)
    Q = np.zeros((min(n, d), d), dtype=V.dtype)
    rank = 0
    for k in range(n):
        nf = norms[k]
        if nf <= zthresh:
            continue
        f = V[k]
        if rank:
            B = Q[:rank]
            r = f - (B.conj() @ f) @ B
            r = r - (B.conj() @ r) @ B
        else:
            r = f.copy()
        rn = np.linalg.norm(r)
        if rn > dep_tol * max(1.0, nf):
            Q[rank] = r / rn
            rank += 1
    return Q[:rank]


def _tall_frames():
    """Frames with n >> d for d = 1..8: Gaussian real and complex ones
    scaled over six decades, and integer-valued ones with -0.0 entries and
    a zero row, as real, real-entried complex and complex frames."""
    rng = np.random.default_rng(41)
    frames = []
    for d in range(1, 9):
        n = int(rng.integers(4 * d + 2, 6 * d + 3))
        G = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3)
        frames += [G, G + 1j * rng.normal(size=(n, d)) * np.abs(G).max()]
        M = rng.integers(-2, 3, size=(n, d)).astype(float)
        M[rng.random((n, d)) < 0.2] = -0.0
        M[int(rng.integers(0, n))] = 0.0
        frames += [M, M.astype(complex), M + 1j * rng.integers(-1, 2, size=(n, d))]
    return frames


@pytest.mark.parametrize("dep_tol", [DEP_TOL])   # the one tolerance of every span
def test_span_basis_matches_frozen_loop(dep_tol):
    for V in _tall_frames():
        Q = _span_basis(V)
        Q0 = _frozen_span_basis(V, dep_tol)
        assert Q.dtype == Q0.dtype and Q.shape == Q0.shape
        assert Q.tobytes() == Q0.tobytes(), (V.shape, V.dtype)   # signed zeros too
