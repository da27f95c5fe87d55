import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from framegs import frames
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
    _span_basis,
    _span_steps,
    _svd_span,
    _unit_rows,
    span_projection,
    zero_indices,
)
from framegs.generate import example_frame, random_frame, random_frame_corpus
from framegs import ggs, iteration
from framegs.ggs import KIND_INDEPENDENT, KIND_ZERO, ggs_pass
from framegs.iteration import iterate

import numpy_oracle

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

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_constructor_copies_a_caller_array(self, field):
        arr = random_frame(7, 3, 5, field).vectors.copy()
        F = FrameSeq(arr)
        assert arr.flags.writeable and not np.shares_memory(F.vectors, arr)
        kept = F.vectors.copy()
        arr[...] = 0.0
        np.testing.assert_array_equal(F.vectors, kept)

    def test_adopting_a_non_finite_or_misshapen_array_raises(self):
        with pytest.raises(NonFiniteError):
            FrameSeq._adopt(np.array([[1.0, np.nan]]))
        with pytest.raises(NonFiniteError):
            FrameSeq._adopt(np.array([[1.0, 0.0], [0.0, np.inf * 1j]]))
        with pytest.raises(DimensionMismatchError):
            FrameSeq._adopt(np.ones(3))
        with pytest.raises(DimensionMismatchError):
            FrameSeq._adopt(np.ones((0, 2)))

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_package_frames_adopt_their_arrays(self, field, monkeypatch):
        # ggs_pass, iterate and canonical_parseval hand their fresh arrays to
        # the frame with no copy, read-only, sharing nothing with the caller's
        arr = random_frame(3, 6, 12, field, 4).vectors.copy()
        F = FrameSeq(arr)
        made, pass_array = [], ggs._pass_array

        def kernel(*args):
            out = pass_array(*args)
            made.append(out[0])
            return out

        monkeypatch.setattr(ggs, "_pass_array", kernel)
        monkeypatch.setattr(iteration, "_pass_array", kernel)
        G = ggs_pass(F)[0]
        trace = iterate(F, max_iter=5, eps_delta=0.0, snapshot_stride=2)
        assert G.vectors is made[0]
        assert all(trace.snapshots[m].vectors is made[m] for m in (2, 4, 5))
        frames = [G, canonical_parseval(F), *(trace.snapshots[m] for m in (2, 4, 5))]
        for i, C in enumerate(frames):
            assert not C.vectors.flags.writeable, i
            with pytest.raises(ValueError):
                C.vectors[0, 0] = 1.0
            for other in [arr, F.vectors] + [D.vectors for D in frames[i + 1:]]:
                assert not np.shares_memory(C.vectors, other), i
        assert trace.snapshots[0] is F

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
        V[0, 0], V[1, 2] = -0.0, 0.0
        if field == "complex":
            im = rng.normal(size=(4, 3))
            im[0, 1], im[2, 0] = -0.0, 0.0
            V = V.astype(complex)   # V + 1j * im would turn the -0.0 real part into +0.0
            V.imag = im
        F = FrameSeq(V)
        assert np.signbit(F.vectors[0, 0].real)
        raw = F.to_dict()["vectors"]
        flat = [x for r in raw for x in r] if field == "real" else [x for r in raw for z in r for x in z]
        assert all(type(x) is float for x in flat)
        assert len(flat) == V.size * (2 if field == "complex" else 1)
        doc = json.loads(json.dumps(F.to_dict()))
        G = FrameSeq.from_dict(doc)
        assert G.field == field
        assert l2_distance(F, G) == 0.0
        assert G.vectors.tobytes() == F.vectors.tobytes()   # signed zeros too

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

    def test_matches_singular_values(self):
        # the bounds from the squared extreme singular values of the rows,
        # A = 0 below d rows: the gate of an SVD route for frame_bounds
        frames = [F.vectors for F in random_frame_corpus(31, 200)] + _tall_frames()
        frames += [random_frame(11, d, n, field, n // 4).vectors
                   for field in ("real", "complex") for d, n in ((64, 200), (8, 6))]
        for V in frames:
            a, b = numpy_oracle.bounds(V)
            A, B = frame_bounds(FrameSeq(V))
            assert abs(A - a) <= 1e-13 * b and abs(B - b) <= 1e-13 * b, (V.shape, V.dtype)


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

    @pytest.mark.parametrize("rows", [[[1e200, 0.0], [0.0, 1.0]], [[1e155, 1e155], [0.0, 1.0]]],
                             ids=["entry", "cross-term"])
    def test_overflowing_operator_raises_like_the_bounds(self, rows):
        # the frame operator overflows: no numpy warning, and the three
        # consumers of the operator raise alike
        F = FrameSeq(np.array(rows))
        for check in (is_parseval, frame_bounds, zero_indices):
            with pytest.raises(NonFiniteError):
                check(F)
        with pytest.raises(NonFiniteError):   # the span's operator, formed for its certificate
            is_parseval(FrameSeq(np.eye(2)), span=F)

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("d, n", [(64, 200), (128, 1000)])
    def test_residual_matches_the_oracle_gap_at_large_shapes(self, field, d, n):
        # oneshot-large's shapes; at d = 128 the oracle's own SVD projection
        # lies 2.1-2.3e-14 from the identity, so it resolves no finer there
        F = random_frame(5, d, n, field, n // 4)
        G, _ = ggs_pass(F)
        V, W = F.vectors, G.vectors
        tol = 1e-14 if d <= 64 else 4e-14
        assert abs(is_parseval(G).residual - numpy_oracle.parseval_gap(W, W)) <= tol
        assert abs(is_parseval(G, span=F).residual - numpy_oracle.parseval_gap(W, V)) <= tol
        # both spans are the whole space, whose projection is exactly I
        assert len(numpy_oracle.span_basis(W)) == len(numpy_oracle.span_basis(V)) == d
        exact = np.linalg.norm(W.T @ W.conj() - np.eye(d))
        assert abs(is_parseval(G).residual - exact) <= 1e-14
        assert abs(is_parseval(G, span=F).residual - exact) <= 1e-14


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
            rank = len(numpy_oracle.span_basis(F.vectors))
            assert abs(float((G.norms() ** 2).sum()) - rank) <= 1e-10

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize(
        "d, n, n_dependent, n_zero",
        [(64, 200, 50, 0), (64, 60, 20, 0), (2, 6, 2, 0), (2, 2, 1, 0), (8, 30, 8, 0),
         (8, 6, 2, 0), (16, 50, 12, 0), (16, 15, 5, 0), (16, 1000, 250, 0), (32, 32, 0, 0),
         (64, 40, 0, 0), (16, 30, 20, 3)],
        ids=["spanning", "rank40", "d2-spanning", "d2-rank1", "d8-spanning", "d8-rank4",
             "d16-spanning", "d16-rank10", "tall-1000x16", "square-32", "n40-below-d64",
             "rank10-zero-rows"],
    )
    def test_matches_polar_factor_at_d64(self, field, d, n, n_dependent, n_zero):
        V = random_frame(11, d, n, field, n_dependent).vectors
        V = np.insert(V, np.linspace(0, n, n_zero).astype(int), 0.0, axis=0)   # first, middle, last
        F = FrameSeq(V)
        Q = _span_basis(F)
        assert Q.shape[0] == min(d, n - n_dependent)   # below d: the span-coordinates path
        G = canonical_parseval(F)
        assert np.linalg.norm(G.vectors - numpy_oracle.polar_factor(V)) <= 1e-12
        zero = ~V.any(axis=1)
        assert zero.sum() == n_zero
        assert G.vectors[zero].tobytes() == bytes(G.vectors[zero].nbytes)   # exact +0.0

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("gamma", [1e-3, 1e-6, 1e-7, 1e-9])
    def test_near_parallel_rows(self, field, gamma):
        # the pass and the span see R^2 down to gamma = DEP_TOL; so must the
        # canonical frame, whose S has eigenvalues about 2 and gamma^2 / 2
        dtype = complex if field == "complex" else float
        F = FrameSeq(np.array([[1.0, 0.0], [1.0, gamma]], dtype=dtype))
        C = canonical_parseval(F)
        assert np.linalg.norm(C.vectors - numpy_oracle.polar_factor(F.vectors)) <= 1e-12
        assert is_parseval(C, span=F).ok


class TestReconstruct:
    # analysis then synthesis is the frame operator: sum_i <f, f_i> f_i = S f
    def test_onb(self):
        F = FrameSeq(np.eye(2))
        np.testing.assert_allclose(frame_operator(F) @ np.array([3.0, 4.0]), [3.0, 4.0])

    def test_parseval_identity_on_fig1_output(self):
        G = canonical_parseval(FIG1)
        f = np.array([1.0, 2.0])
        np.testing.assert_allclose(frame_operator(G) @ f, f, atol=1e-10)

    def test_non_parseval_scales(self):
        F = FrameSeq(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(frame_operator(F) @ np.array([1.0, 0.0]), [2.0, 0.0])

    def test_real_vector_into_complex_frame(self):
        F = FrameSeq(np.eye(2, dtype=complex))
        np.testing.assert_allclose(frame_operator(F) @ np.array([1.0, 2.0]), [1.0, 2.0])


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
                    want_zero = numpy_oracle.zero_rows(W)
                    want_dep = numpy_oracle.dependent_rows(W)
                    assert zero_indices(FrameSeq(W)) == want_zero, (seed, i)
                    assert dependency_profile(FrameSeq(W)) == want_dep, (seed, i)
                    n_dependent += len(want_dep)
                    n_zero += len(want_zero)
        assert n_dependent > 5000 and n_zero == 750, (n_dependent, n_zero)


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
        assert np.trace(P).real == pytest.approx(len(numpy_oracle.span_basis(V)), abs=1e-10)


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


def test_span_projection_matches_svd_oracle():
    # [[1, 0], [0, 1e-11]] spans the plane: the cut is per unit row, not
    # relative to the largest row
    two_scales = np.array([[1.0, 0.0], [0.0, 1e-11]])
    for V in [*_tall_frames(), two_scales]:
        rank = len(numpy_oracle.span_basis(V))
        assert _span_basis(FrameSeq(V)).shape[0] == rank, (V.shape, V.dtype)
        assert np.linalg.norm(span_projection(FrameSeq(V)) - numpy_oracle.projection(V)) <= 1e-13, (V.shape, V.dtype)
    assert _span_basis(FrameSeq(two_scales)).shape[0] == 2


def test_span_steps_count_the_span_rank():
    # row 2 lies 1.5e-10 from row 1, past DEP_TOL, but the relative cut at
    # DEP_TOL * s[0] (s[0] = sqrt(2)) keeps one direction, so it is no step,
    # and copies of it are none either
    edge = np.array([[1.0, 0.0], [1.0, 1.5e-10]])
    corpus = [F.vectors for F in random_frame_corpus(29, 250, dependent_fraction=0.5)]
    for V in [*_tall_frames(), edge, edge[[0, 1, 1, 1, 1]], *corpus]:
        steps = _span_steps(FrameSeq(V))
        assert len(steps) == len(_span_basis(FrameSeq(V))), (V.shape, V.dtype)
        assert steps == numpy_oracle.span_steps(V), (V.shape, V.dtype)
    assert _span_steps(FrameSeq(edge[[0, 1, 1, 1, 1]])) == (1,)


class _Declined(Exception):
    pass


def _certified(F) -> bool:
    """Whether ``_span_basis`` certifies F as spanning, read by making the
    R-SVD fallback's first call raise; a certified basis is the identity."""
    def declined(frame):
        raise _Declined

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(frames, "_unit_rows", declined)
        try:
            Q = _span_basis(F)
        except _Declined:
            return False
    np.testing.assert_array_equal(Q, np.eye(F.dim))
    return True


def test_span_certificate_is_sound():
    # wherever the Cholesky certificate accepts, the rows span the space by
    # the oracle and the projection is the oracle's; the conditioning sweep
    # crosses the certificate's edge near a condition number of 1e3 and the
    # oracle's rank cut near 1e10
    rng = np.random.default_rng(43)
    base = [F.vectors for F in random_frame_corpus(31, 200)] + _tall_frames()
    base += [random_frame(11, d, n, field, n // 4).vectors
             for field in ("real", "complex") for d, n in ((64, 200), (8, 6))]
    base += [F.vectors for F in random_frame_corpus(44, 100, dependent_fraction=0.6)]
    for cond_exp in np.arange(0.0, 13.0, 0.5):
        for field in ("real", "complex"):
            n, d = int(rng.integers(6, 40)), int(rng.integers(2, 6))
            A = rng.normal(size=(n, d))
            A = A + 1j * rng.normal(size=(n, d)) if field == "complex" else A
            Uq, _, Wh = np.linalg.svd(A, full_matrices=False)
            base.append((Uq * np.logspace(0, -cond_exp, d)) @ Wh)
    accepted = declined = 0
    for V in base:
        for scale in (1.0, 1e100, 1e-100, 1e150, 1e-150):
            Vs = V * scale
            F = FrameSeq(Vs)
            if not _certified(F):
                declined += 1
                continue
            accepted += 1
            assert numpy_oracle.span_basis(Vs).shape[0] == F.dim, (Vs.shape, scale)
            gap = np.linalg.norm(span_projection(F) - numpy_oracle.projection(Vs))
            assert gap <= 1e-13, (Vs.shape, scale, gap)
    assert accepted > 1000 and declined > 100, (accepted, declined)


def _refused_frames():
    rng = np.random.default_rng(47)
    repeated = rng.normal(size=(10, 4))
    repeated[:, 3] = repeated[:, 0]
    repeated_complex = repeated + 1j * rng.normal(size=(10, 4))
    repeated_complex[:, 3] = repeated_complex[:, 0]
    Uq, _ = np.linalg.qr(rng.normal(size=(20, 5)))
    Wq, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    ill = (Uq * np.logspace(0, -4, 5)) @ Wq            # condition number 1e4
    return {
        "n-below-d": rng.normal(size=(3, 5)),
        "repeated-column": repeated,
        "repeated-column-complex": repeated_complex,
        "condition-1e4": ill,
        "rows-1e-160": 1e-160 * rng.normal(size=(10, 3)),     # products subnormal
        "rows-1e160": 1e160 * rng.normal(size=(10, 3)),       # squares overflow
        "operator-overflows": 1e153 * np.ones((400, 2)) + 1e152 * np.eye(400, 2),
        "all-zero": np.zeros((6, 3)),
    }


@pytest.mark.parametrize("name", sorted(_refused_frames()))
def test_span_certificate_declines_with_the_fallback_bits(name):
    V = _refused_frames()[name]
    F = FrameSeq(V)
    try:
        want = _svd_span(_unit_rows(F)[1])
    except NonFiniteError as exc:       # squared row norms overflow: the fallback's error
        assert not _certified(F)
        with pytest.raises(NonFiniteError) as info:
            _span_basis(F)
        assert str(info.value) == str(exc)
        return
    assert not _certified(F)
    got = _span_basis(F)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_span_certificate_declines_a_nan_operator():
    # numpy's Cholesky returns NaN factors without raising, so an operator
    # with a NaN entry and a finite trace must decline before it
    F = FrameSeq(np.array([[1.0, 2.0], [3.0, -1.0], [0.5, 0.25]]))
    want = _svd_span(_unit_rows(F)[1])
    assert not np.array_equal(want, np.eye(2))
    S = frame_operator(F)
    S[0, 1] = S[1, 0] = np.nan
    assert _span_basis(F, S).tobytes() == want.tobytes()


def test_numpy_oracle_is_independent_of_framegs():
    # a fresh process, since this one has imported framegs already
    code = "import sys, numpy_oracle; print(sorted(m for m in sys.modules if m.startswith('framegs')))"
    proc = subprocess.run([sys.executable, "-c", code], cwd=os.path.dirname(numpy_oracle.__file__),
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n", proc.stdout
    assert (numpy_oracle.ZERO_RTOL, numpy_oracle.RANK_RTOL) == (ZERO_REL_TOL, DEP_TOL)
