import math
import tracemalloc

import numpy as np
import pytest

from framegs.errors import NonFiniteError
from framegs.frames import DEP_TOL, FrameSeq, is_parseval, l2_distance, zero_indices
from framegs.ggs import KIND_DEPENDENT, KIND_INDEPENDENT, KIND_ZERO, _pass_array, _Plan, ggs_pass
from framegs.generate import (
    example_frame,
    random_frame,
    random_frame_corpus,
    random_onb_frame,
)
from framegs.iteration import (
    RecurrenceReport,
    classify_limit,
    closed_form_last_dependent,
    iterate,
    trace_csv_rows,
    trace_to_dict,
)
from framegs.verify import check_last_vector_stabilization

import numpy_oracle

RT2 = math.sqrt(2.0)
FIG1 = example_frame("fig1")
FIG2 = example_frame("fig2")
FIG3 = example_frame("fig3")
# the dependent third vector shrinks the parallel first output row to
# about 5e-13, under the zero rule of pass 2: a pass that re-routed would
# count it as zero, and the replay of pass 1's routing reports the drift
HUGE = FrameSeq(np.array([[10.0, 0.0], [0.0, 10.0], [2e12, 0.0]]))


class TestIterate:
    def test_onb_stops_after_one_iteration(self):
        F = random_onb_frame(41, 4, n_zeros=2)
        tr = iterate(F, max_iter=500)
        assert tr.iterations_run == 1
        assert tr.stationary
        assert tr.deltas[0] <= 1e-12  # QR-built ONB carries roundoff

    def test_exact_onb_stops_with_delta_exactly_zero(self):
        F = FrameSeq(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]))
        tr = iterate(F, max_iter=500)
        assert tr.iterations_run == 1
        assert tr.deltas[0] == 0.0

    def test_fig1_thousandth_norm(self):
        tr = iterate(FIG1, max_iter=1000, eps_delta=0.0, snapshot_stride=1000)
        assert tr.iterations_run == 1000
        assert tr.norms[1000][2] == pytest.approx(1 / math.sqrt(1001), abs=1e-12)

    def test_norms_recorded_every_iteration_despite_stride(self):
        tr = iterate(FIG3, max_iter=40, eps_delta=0.0, snapshot_stride=15)
        assert tr.norms.shape == (41, 10)
        assert sorted(tr.snapshots) == [0, 15, 30, 40]

    def test_validation_of_arguments(self):
        with pytest.raises(ValueError):
            iterate(FIG1, max_iter=0)
        with pytest.raises(ValueError):
            iterate(FIG1, snapshot_stride=0)
        for eps_delta in (-1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="eps_delta must be finite and >= 0"):
                iterate(FIG1, eps_delta=eps_delta)

    def test_non_finite_input_rejected_up_front(self):
        # entries this large overflow the very first norm computation, so
        # the first pass stops at its input-norm check before any step runs
        F = FrameSeq(np.array([[1e200, 0.0], [1e200, 0.0]]))
        with pytest.raises(NonFiniteError,
                           match="^iteration 1: step 1: input vector norm is not finite$"):
            iterate(F, max_iter=5)

    def test_dependent_indices_and_zeros_recorded(self):
        F = FrameSeq(np.array([[1.0, 0.0], [0.0, 0.0], [2.0, 0.0], [0.0, 1.0]]))
        tr = iterate(F, max_iter=3, eps_delta=0.0)
        assert tr.dependent_indices == (3,)
        assert tr.input_zero_indices == (2,)

    def test_parseval_preserved_across_iterations(self):
        for F in random_frame_corpus(42, 10, dependent_fraction=0.7):
            tr = iterate(F, max_iter=200, eps_delta=0.0, snapshot_stride=40)
            for m, snap in tr.snapshots.items():
                if m >= 1:
                    assert is_parseval(snap).residual <= 1e-9, m

    def test_monotone_decay_at_dependent_indices(self):
        for F in random_frame_corpus(43, 10, dependent_fraction=1.0):
            tr = iterate(F, max_iter=100, eps_delta=0.0, snapshot_stride=100)
            for k in tr.dependent_indices:
                col = tr.norms[1:, k - 1]
                assert np.all(np.diff(col) < 1e-13), k

    def test_zero_pattern_never_changes(self):
        F = FrameSeq(np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 4.0], [1.0, 0.0]]))
        tr = iterate(F, max_iter=50, eps_delta=0.0, snapshot_stride=10)
        for snap in tr.snapshots.values():
            assert zero_indices(snap) == (1,)


class TestClosedForm:
    def test_m1_halves_the_diagonal(self):
        f = np.array([1 / RT2, 1 / RT2])
        np.testing.assert_allclose(closed_form_last_dependent(f, 1), [0.5, 0.5], atol=1e-15)

    def test_m2_value(self):
        f = np.array([1 / RT2, 1 / RT2])
        out = closed_form_last_dependent(f, 2)
        np.testing.assert_allclose(out, f / math.sqrt(3.0), atol=1e-15)
        assert out[0] == pytest.approx(0.408248, abs=1e-6)

    def test_direction_preserved(self):
        rng = np.random.default_rng(44)
        f = rng.normal(size=5)
        out = closed_form_last_dependent(f, 17)
        cos = float(out @ f) / (np.linalg.norm(out) * np.linalg.norm(f))
        assert cos == pytest.approx(1.0, abs=1e-14)

    def test_agreement_with_trace_drift_aware(self):
        tr = iterate(FIG1, max_iter=1000, eps_delta=0.0)
        f3 = FIG1.vectors[2]
        for m in range(1, 1001):
            err = np.linalg.norm(tr.snapshots[m].vectors[2] - closed_form_last_dependent(f3, m))
            assert err <= 1e-10 * (1 + m * 1e-3), m

    def test_decay_identity_fig1(self):
        tr = iterate(FIG1, max_iter=1000, eps_delta=0.0, snapshot_stride=1000)
        worst = max(
            abs(tr.norms[m][2] * math.sqrt(1 + m) - 1.0) for m in range(1, 1001)
        )
        assert worst <= 1e-8

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            closed_form_last_dependent(np.array([1.0, 0.0]), 0)
        with pytest.raises(ValueError):
            closed_form_last_dependent(np.zeros(2), 3)
        # ||f||^2 overflows: refused, with no numpy warning, as the pass refuses it
        with pytest.raises(NonFiniteError, match="squared norm is not finite"):
            closed_form_last_dependent(np.array([1e200, 0.0]), 3)


class TestStabilizedLast:
    """Criterion 5 on single frames: 20 iterations, every iterate recorded."""

    def test_two_vector_frame(self):
        F = FrameSeq(np.array([[2.0, 0.0], [1.0, 1.0]]))
        res = check_last_vector_stabilization([F])
        assert res.ok and res.value <= 1e-10
        tr = iterate(F, max_iter=20, eps_delta=0.0)
        np.testing.assert_allclose(tr.final.vectors[1], [0.0, 1.0], atol=1e-12)

    def test_orthonormal_pair(self):
        res = check_last_vector_stabilization([FrameSeq(np.eye(2))])
        assert res.ok and res.value <= 1e-12

    def test_fig1_inapplicable(self):
        res = check_last_vector_stabilization([FIG1])
        assert not res.ok
        assert res.value == 0.0
        assert "1 inapplicable" in res.detail

    def test_single_vector_frame(self):
        F = FrameSeq(np.array([[3.0, 4.0]]))
        res = check_last_vector_stabilization([F])
        assert res.ok and res.value <= 1e-10
        tr = iterate(F, max_iter=10)
        np.testing.assert_allclose(tr.final.vectors[0], [0.6, 0.8], atol=1e-14)

    def test_random_frames_with_independent_last(self):
        rng = np.random.default_rng(45)
        frames = []
        for _ in range(20):
            d = int(rng.integers(2, 7))
            n = int(rng.integers(2, 10))
            Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
            body = rng.standard_normal((n, d - 1)) @ Q[:, : d - 1].T
            last = rng.standard_normal(d - 1) @ Q[:, : d - 1].T + 1.5 * Q[:, d - 1]
            frames.append(FrameSeq(np.vstack([body, last[None, :]])))
        res = check_last_vector_stabilization(frames)
        assert res.ok and res.value <= 1e-10


class TestValidateRecurrences:
    @pytest.mark.parametrize("name", ["fig1", "fig3"])
    def test_examples_pass(self, name):
        tr = iterate(example_frame(name), max_iter=50, eps_delta=0.0, trace_steps=True)
        rep = tr.recurrences
        assert rep.pattern_consistent
        assert tr.iterations_run == 50
        assert rep.update_identity <= 1e-12
        assert rep.single_step_floor <= 1e-12
        assert rep.accumulated_floor <= 1e-12
        assert rep.shrink_ceiling <= 1e-12
        assert rep.tail_floor <= 1e-12

    def test_single_dependent_index_vacuous_pairs(self):
        # fig1 has s = 1: no k_l < k_r pairs, floors measured only at l = s
        tr = iterate(FIG1, max_iter=10, eps_delta=0.0, trace_steps=True)
        rep = tr.recurrences
        assert rep.single_step_floor == 0.0
        assert rep.tail_floor == 0.0
        assert rep.max_violation <= 1e-12

    def test_random_frames(self):
        for F in random_frame_corpus(46, 8, dependent_fraction=1.0):
            tr = iterate(F, max_iter=30, eps_delta=0.0, trace_steps=True)
            rep = tr.recurrences
            assert rep.pattern_consistent
            assert rep.max_violation <= 1e-12

    @pytest.mark.parametrize("case", ["fig1", "fig3", "corpus", "drift", "long", "tiny",
                                      "wide-real", "wide-complex"])
    def test_matches_per_row_reference(self, case):
        max_iter = 40
        if case == "corpus":
            frames = random_frame_corpus(52, 10, dependent_fraction=0.8)
        elif case == "long":   # 48 dependent steps a pass
            frames = [random_frame(8, 16, 64, "complex", 16)]
        elif case == "tiny":   # both steps dependent: the first meets empty arrays
            frames = [FrameSeq(np.array([[1e-11, 0.0], [0.0, 1e-11]]))]
        elif case.startswith("wide"):   # the check's prefix norms over 200 rows
            frames = [random_frame(seed, 64, 200, case[5:], 50) for seed in (0, 1)]
            max_iter = 3
        else:
            frames = [{"fig1": FIG1, "fig3": FIG3, "drift": HUGE}[case]]
        for F in frames:
            tr = iterate(F, max_iter=max_iter, eps_delta=0.0, snapshot_stride=1, trace_steps=True)
            assert tr.recurrences == _per_row_validate_recurrences(tr)
            # HUGE's passes are measured too: its drift clears the flag only
            assert tr.recurrences.pattern_consistent == (case != "drift")

    @pytest.mark.parametrize("field, dim, n, deps", [("real", 32, 160, 40),
                                                     ("complex", 64, 200, 50)])
    def test_check_keeps_no_record_per_row(self, field, dim, n, deps):
        # the check keeps each law's running maximum, no value per row: a
        # traced run's Python heap peaks at most 1.5 snapshots above an
        # untraced one's
        F = random_frame(7, dim, n, field, deps)
        peaks = []
        for trace_steps in (False, True):
            tracemalloc.start()
            try:
                iterate(F, max_iter=3, eps_delta=0.0, trace_steps=trace_steps)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 1.5 * F.vectors.nbytes


def _steps_of_pass(V, plan):
    """The kind of each step of one pass over ``V``, replaying ``plan``
    when given, and, for each dependent step (1-based), the norms of the
    rows as the previous step left them and copies of what the kernel
    hands its hook: the inner products ``w`` and the updated rows G[:k].
    The third value tells whether a step the pass did not route by its
    residual lies where routing would have sent it elsewhere: a nonzero
    step under the zero rule, or an independent one whose residual,
    recomputed here, is at most ``DEP_TOL * max(1, ||f||)``."""
    kinds, dependent = [], {}
    norms = np.linalg.norm(V, axis=1)
    zeros = numpy_oracle.zero_rows(V)
    drift = False
    prev = np.zeros_like(V)   # the rows as they stood before the current step

    def hook(k, kind, G, w, rn):
        nonlocal drift
        kinds.append(kind)
        if kind == KIND_DEPENDENT:
            dependent[k + 1] = (np.linalg.norm(prev[:k], axis=1), w.copy(), G[:k].copy())
        prev[:k + 1] = G[:k + 1]
        if plan is None or kind == KIND_ZERO:
            return
        drift = drift or k + 1 in zeros
        if kind == KIND_INDEPENDENT:
            prefix = G[:k]
            residual = np.linalg.norm(V[k] - (prefix.conj() @ V[k]) @ prefix)
            drift = drift or residual <= DEP_TOL * max(1.0, norms[k])

    _pass_array(V, hook, None, plan)
    return kinds, dependent, drift


def _per_row_validate_recurrences(trace):
    """Frozen reference: the recurrence validator as written when each
    dependent step kept one record per updated row, reading the values
    one row at a time.  Each pass is run again from the stored snapshot
    of its input (``snapshot_stride=1``), passes after the first
    replaying its kinds as :func:`iterate` does."""
    zeros = set(trace.input_zero_indices)
    upd_err, single, accum, ceil, tail = [], [], [], [], []
    pattern_consistent = True
    plan = None
    for m in range(1, trace.iterations_run + 1):
        prev = trace.norms[m - 1]
        cur = trace.norms[m]
        kinds, dependent, drift = _steps_of_pass(trace.snapshots[m - 1].vectors, plan)
        assert tuple(kinds) == trace.step_traces[m]
        if m == 1:
            plan = _Plan(tuple(kinds), trace.initial.dim)
        deps = tuple(sorted(dependent))
        pattern_consistent = pattern_consistent and not drift
        assert deps == trace.dependent_indices
        assert {k for k, kd in enumerate(kinds, 1) if kd == KIND_ZERO} == zeros
        s = len(deps)
        norm_after = {}
        for step, (before, w, updated) in dependent.items():
            nf2 = prev[step - 1] * prev[step - 1]
            norm_after[step] = np.linalg.norm(updated, axis=1)
            w = w.tolist()
            for j in range(step - 1):
                nb = float(before[j])
                na = float(norm_after[step][j])
                inner_abs = abs(w[j])
                predicted = nb * nb - inner_abs * inner_abs / (1.0 + nf2)
                upd_err.append(abs(na * na - predicted))
        x = [prev[k - 1] * prev[k - 1] for k in deps]
        for l in range(s):
            floor_l = x[l] / (1.0 + x[l])
            measured_end = cur[deps[l] - 1] * cur[deps[l] - 1]
            ceil.append(measured_end - floor_l)
            bound = floor_l
            for r in range(l + 1, s):
                bound /= 1.0 + x[r]
            accum.append(bound - measured_end)
            if l + 1 < s:
                kept = float(norm_after[deps[l + 1]][deps[l] - 1])   # row k_l after step k_{l+1}
                single.append(floor_l / (1.0 + x[l + 1]) - kept * kept)
            if l == s - 2:
                tail.append(floor_l / (1.0 + x[s - 1]) - measured_end)

    def top(vals):
        return max(vals) if vals else 0.0

    return RecurrenceReport(
        update_identity=top(upd_err),
        single_step_floor=top(single),
        accumulated_floor=top(accum),
        shrink_ceiling=top(ceil),
        tail_floor=top(tail),
        pattern_consistent=pattern_consistent,
    )


class TestStepTraces:
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_iterate_records_equal_those_of_ggs_pass(self, field):
        F = random_frame(53, 3, 8, field, n_dependent=3)
        tr = iterate(F, max_iter=6, eps_delta=0.0, trace_steps=True)
        assert sorted(tr.step_traces) == list(range(1, 7))
        for m in range(1, 7):
            _, ref = ggs_pass(tr.snapshots[m - 1])
            assert tr.step_traces[m] == ref

    def test_dependent_indices_are_those_of_pass_one(self):
        # pass 1 routes vector 3 dependent and shrinks row 1 to about 5e-13;
        # the later passes keep vector 1 independent, as pass 1 routed it,
        # and reach the predicted limit, while the traced run reports that
        # row 1 fell under the zero rule in pass 2
        tr = iterate(HUGE, max_iter=30, eps_delta=0.0, trace_steps=True)
        assert tr.dependent_indices == (3,)
        assert tr.dependent_indices == tuple(
            k for k, kind in enumerate(tr.step_traces[1], 1) if kind == KIND_DEPENDENT)
        assert all(tr.step_traces[m] == tr.step_traces[1] for m in range(2, 31))
        assert tr.norms[1][0] <= 1e-12
        np.testing.assert_allclose(tr.norms[30], [0.983, 1.0, 0.183], atol=1e-3)
        assert classify_limit(tr).prediction_match
        assert not tr.recurrences.pattern_consistent
        untraced = iterate(HUGE, max_iter=30, eps_delta=0.0)
        assert untraced.norms.tobytes() == tr.norms.tobytes()

    def test_iterate_takes_no_dep_tol(self):
        # routing has one tolerance, DEP_TOL; iterate takes none
        for trace_steps in (False, True):
            with pytest.raises(TypeError):
                iterate(FIG1, max_iter=2, dep_tol=1e-6, trace_steps=trace_steps)

    def test_untraced_run_has_no_step_data(self):
        tr = iterate(FIG1, max_iter=5, eps_delta=0.0)
        assert tr.step_traces is None and tr.recurrences is None


class TestClassifyLimit:
    def test_fig1(self):
        tr = iterate(FIG1, max_iter=1000, eps_delta=0.0, snapshot_stride=1000)
        rep = classify_limit(tr)
        assert rep.zero_indices == (3,)
        assert rep.surviving_indices == (1, 2)
        assert rep.onb_residual <= 1e-2
        assert rep.near_onb and rep.prediction_match
        assert rep.delta_zero == pytest.approx(2 / math.sqrt(1000))

    def test_fig3_two_survivors(self):
        tr = iterate(FIG3, max_iter=1000, eps_delta=0.0, snapshot_stride=1000)
        rep = classify_limit(tr)
        assert rep.zero_indices == tuple(range(3, 11))
        assert len(rep.surviving_indices) == 2
        assert rep.prediction_match

    def test_zero_extended_onb(self):
        F = random_onb_frame(47, 5, n_zeros=2)
        tr = iterate(F, max_iter=10)
        rep = classify_limit(tr)
        assert rep.zero_indices == zero_indices(F)
        assert rep.onb_residual <= 1e-14
        assert rep.prediction_match

    def test_partition_invariant(self):
        for F in random_frame_corpus(48, 10, dependent_fraction=0.5):
            tr = iterate(F, max_iter=50, eps_delta=0.0, snapshot_stride=50)
            rep = classify_limit(tr)
            assert set(rep.zero_indices) | set(rep.surviving_indices) == set(
                range(1, F.n_vectors + 1)
            )
            assert set(rep.zero_indices) & set(rep.surviving_indices) == set()

    @pytest.mark.parametrize("delta_zero", [math.nan, -1e-3, math.inf])
    def test_delta_zero_out_of_range(self, delta_zero):
        tr = iterate(FIG1, max_iter=10, eps_delta=0.0)
        with pytest.raises(ValueError, match=f"delta_zero must be finite and >= 0, got {delta_zero}"):
            classify_limit(tr, delta_zero=delta_zero)

    def test_explicit_delta_zero(self):
        tr = iterate(FIG1, max_iter=10, eps_delta=0.0)
        rep = classify_limit(tr, delta_zero=1e-12)
        # nothing has decayed below 1e-12 after 10 iterations
        assert rep.zero_indices == ()
        assert not rep.prediction_match

    def test_no_survivor_is_not_a_basis_of_a_nonzero_span(self):
        # the pass misroutes both inputs, so nothing survives: at 1e-11 both
        # vectors fall below the absolute part of the dependence rule,
        # DEP_TOL * max(1, ||f||), and at 1e-200 every squared norm
        # underflows, so the pass counts every vector zero.  The span of
        # either input is the plane, so the prediction fails too
        tiny = FrameSeq(np.array([[1e-11, 0.0], [0.0, 1e-11]]))
        under = FrameSeq(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]) * 1e-200)
        for F in (tiny, under):
            tr = iterate(F, max_iter=50, eps_delta=0.0)
            rep = classify_limit(tr)
            assert rep.surviving_indices == ()
            assert not rep.near_onb
            assert not rep.prediction_match

    def test_all_zero_frame_has_the_empty_basis(self):
        tr = iterate(FrameSeq(np.zeros((3, 2))), max_iter=5)
        rep = classify_limit(tr)
        assert rep.surviving_indices == ()
        assert rep.near_onb and rep.prediction_match


class TestIsFixedPoint:
    # a fixed point: one pass moves the frame by at most 1e-10 in l2 distance

    def test_zero_extended_onb_true(self):
        F = FrameSeq(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]))
        assert l2_distance(ggs_pass(F)[0], F) <= 1e-10

    def test_fig1_false(self):
        assert not l2_distance(ggs_pass(FIG1)[0], FIG1) <= 1e-10

    def test_unnormalized_single_vector_false(self):
        F = FrameSeq(np.array([[1 / RT2, 0.0]]))
        assert not l2_distance(ggs_pass(F)[0], F) <= 1e-10

    def test_structural_equivalence(self):
        # moving by <= 1e-10 iff the nonzero rows are orthonormal within 1e-10
        rng = np.random.default_rng(49)
        cases = []
        for i in range(15):
            cases.append(random_onb_frame(rng, int(rng.integers(2, 7)), n_zeros=1))
        for F in random_frame_corpus(50, 15):
            cases.append(F)
        for i in range(10):
            onb = random_onb_frame(rng, 4)
            bump = 1e-8 if i % 2 == 0 else 1e-12
            cases.append(FrameSeq(onb.vectors + bump * rng.standard_normal((4, 4))))
        for F in cases:
            nz = [i for i in range(F.n_vectors) if i + 1 not in zero_indices(F)]
            V = F.vectors[nz]
            gram = V @ V.conj().T
            structural = (
                float(np.max(np.abs(gram - np.eye(len(nz))))) <= 1e-10 if nz else True
            )
            assert (l2_distance(ggs_pass(F)[0], F) <= 1e-10) == structural


class TestExports:
    def test_dict_round_trips_through_json(self):
        import json

        tr = iterate(FIG2, max_iter=8, eps_delta=0.0)
        doc = json.loads(json.dumps(trace_to_dict(tr)))
        assert doc["iterations_run"] == 8
        assert doc["dependent_indices"] == [3]
        assert len(doc["norms"]) == 9
        assert set(doc["snapshots"]) == {str(m) for m in range(9)}
        first = doc["snapshots"]["0"]
        np.testing.assert_allclose(first, FIG2.vectors)

    def test_dict_holds_python_floats(self):
        F = FrameSeq(FIG3.vectors * (1 + 0.5j))
        doc = trace_to_dict(iterate(F, max_iter=3, eps_delta=0.0))
        values = [*doc["deltas"], *(x for row in doc["norms"] for x in row)]
        for snap in doc["snapshots"].values():
            assert len(snap) == 10 and all(len(row) == 2 for row in snap)
            values += [x for row in snap for pair in row for x in pair]
        assert values and all(type(x) is float for x in values)

    def test_csv_layout_real(self):
        tr = iterate(FIG1, max_iter=4, eps_delta=0.0, snapshot_stride=2)
        header, rows = trace_csv_rows(tr)
        rows = list(rows)
        assert header == ["iteration", "vector_index", "norm", "coord_1", "coord_2"]
        assert len(rows) == 5 * 3
        by_iter = {m: [r for r in rows if r[0] == m] for m in range(5)}
        assert all(r[3] == "" for r in by_iter[1])
        assert all(r[3] != "" for r in by_iter[2])
        assert all(r[3] != "" for r in by_iter[0])

    def test_csv_layout_complex(self):
        F = FrameSeq(FIG1.vectors.astype(complex))
        tr = iterate(F, max_iter=2, eps_delta=0.0)
        header, _ = trace_csv_rows(tr)
        assert header[3:] == ["coord_1_re", "coord_1_im", "coord_2_re", "coord_2_im"]

    def test_norm_column_matches_snapshots(self):
        tr = iterate(FIG3, max_iter=6, eps_delta=0.0)
        _, rows = trace_csv_rows(tr)
        for r in rows:
            m, i, nrm = r[0], r[1], r[2]
            assert nrm == pytest.approx(
                float(np.linalg.norm(tr.snapshots[m].vectors[i - 1])), abs=1e-14
            )


def test_independent_indices_return_to_unit_norm_each_pass():
    # every independent vector is normalized during its step, then only
    # shrunk by later dependent steps; at the limit it approaches norm 1
    F = random_frame(51, 3, 8, n_dependent=3)
    tr = iterate(F, max_iter=2000, eps_delta=0.0, snapshot_stride=2000)
    dep = set(tr.dependent_indices)
    final = tr.norms[-1]
    for k in range(1, 9):
        if k in dep:
            assert final[k - 1] <= 1 / math.sqrt(2000) + 1e-12
        else:
            assert final[k - 1] == pytest.approx(1.0, abs=0.02)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_norms_and_deltas_are_numpy_norms_bit_for_bit(field):
    rng = np.random.default_rng(45)
    for _ in range(6):
        d = int(rng.integers(2, 7))
        V = random_frame(rng, d, d + 4, field=field, n_dependent=2).vectors.copy()
        V[int(rng.integers(0, d + 4))] = 0.0
        tr = iterate(FrameSeq(V), max_iter=25, eps_delta=0.0, snapshot_stride=1)
        G = [tr.snapshots[m].vectors for m in range(tr.iterations_run + 1)]
        for m, Gm in enumerate(G):
            assert tr.norms[m].tobytes() == np.linalg.norm(Gm, axis=1).tobytes()
            if m:
                assert tr.deltas[m - 1] == float(np.linalg.norm(Gm - G[m - 1]))
        assert (tr.norms[:, zero_indices(tr.initial)[0] - 1] == 0.0).all()
