import inspect
import json
import math

import numpy as np
import pytest

from framegs.cli import EXIT_CHECK_FAILED, EXIT_OK, main
from framegs.errors import NonFiniteError
from framegs.frames import (
    DEP_TOL,
    ZERO_REL_TOL,
    FrameSeq,
    canonical_parseval,
    dependency_profile,
    is_parseval,
    l2_distance,
    zero_indices,
)
from framegs.generate import example_frame, random_frame, random_frame_corpus, random_onb_frame
from framegs.ggs import (
    KIND_DEPENDENT,
    KIND_INDEPENDENT,
    KIND_ZERO,
    _apply_dependent_update,
    _pass_array,
    _Plan,
    ggs_pass,
)
from framegs.iteration import iterate

import numpy_oracle

RT2 = math.sqrt(2.0)
EPS = np.finfo(float).eps
FIG1 = example_frame("fig1")

# hand-executed pass output for fig1
FIG1_OUT = np.array(
    [
        [(2 + RT2) / 4, (RT2 - 2) / 4],
        [(RT2 - 2) / 4, (2 + RT2) / 4],
        [0.5, 0.5],
    ]
)


class TestPassOnExamples:
    def test_fig1_exact_values(self):
        G, _ = ggs_pass(FIG1)
        np.testing.assert_allclose(G.vectors, FIG1_OUT, atol=1e-15)

    def test_fig1_output_is_parseval(self):
        G, _ = ggs_pass(FIG1)
        assert is_parseval(G)

    def test_onb_with_zero_inserted_is_fixed(self):
        F = FrameSeq(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]))
        G, _ = ggs_pass(F)
        assert l2_distance(G, F) == 0.0

    def test_independent_input_plain_gram_schmidt(self):
        F = FrameSeq(np.array([[2.0, 0.0], [1.0, 1.0]]))
        G, _ = ggs_pass(F)
        np.testing.assert_allclose(G.vectors, np.eye(2), atol=1e-15)


def _outputs_per_step(F):
    """Copies of the output prefix G[:k] after each step k of the pass,
    read through the kernel's ``on_step`` hook."""
    outs = []
    _pass_array(F.vectors, lambda k, kind, G, w, rn: outs.append(G[: k + 1].copy()))
    return outs


def _dependent_updates(F):
    """For each dependent step (1-based), the norms of the rows it
    updates before and after the update and ``|<g_i, f>|``, read through
    the kernel's ``on_step`` hook: the norms before are those of the rows
    as the previous step left them."""
    updates = {}
    prev = np.zeros_like(F.vectors)   # the rows as they stood before the current step

    def hook(k, kind, G, w, rn):
        if kind == KIND_DEPENDENT:
            updates[k + 1] = (np.linalg.norm(prev[:k], axis=1), np.linalg.norm(G[:k], axis=1),
                              np.hypot(w.real, w.imag))
        prev[:k + 1] = G[:k + 1]

    _pass_array(F.vectors, hook)
    return updates


class TestTrace:
    def test_kinds_and_steps(self):
        _, kinds = ggs_pass(FIG1)
        assert kinds == (KIND_INDEPENDENT, KIND_INDEPENDENT, KIND_DEPENDENT)

    def test_zero_step_kind(self):
        F = FrameSeq(np.array([[0.0, 0.0], [1.0, 0.0]]))
        _, kinds = ggs_pass(F)
        assert kinds[0] == KIND_ZERO
        outs = _outputs_per_step(F)
        np.testing.assert_array_equal(outs[0], [[0.0, 0.0]])

    def test_dependent_update_records(self):
        updates = _dependent_updates(FIG1)
        assert list(updates) == [3]
        before, after, inner_abs = updates[3]
        # one row per earlier output vector, row i for vector i+1
        assert before.shape == after.shape == inner_abs.shape == (2,)
        assert before == pytest.approx([1.0, 1.0], abs=1e-15)
        assert after == pytest.approx([math.sqrt(0.75)] * 2, abs=1e-15)
        assert inner_abs == pytest.approx([1 / RT2] * 2, abs=1e-15)

    def test_returned_kinds_are_those_of_the_hook(self):
        for F in random_frame_corpus(38, 25, dependent_fraction=0.7):
            seen = []
            _, kinds = _pass_array(F.vectors, lambda k, kind, *_: seen.append(kind))
            assert kinds == tuple(seen) and len(kinds) == F.n_vectors
            assert ggs_pass(F)[1] == kinds

    def test_prefix_parseval_every_step(self):
        for F in random_frame_corpus(31, 30):
            for k, out in enumerate(_outputs_per_step(F)):
                assert is_parseval(FrameSeq(out)), (F, k + 1)


class TestNormRecurrence:
    def test_record_matches_prediction(self):
        # Eq-style identity: after^2 = before^2 - inner^2/(1+||f||^2)
        for F in random_frame_corpus(32, 25, dependent_fraction=0.8):
            nfs = F.norms()
            for step, (before, after, inner_abs) in _dependent_updates(F).items():
                predicted = before**2 - inner_abs**2 / (1 + nfs[step - 1] ** 2)
                assert after**2 == pytest.approx(predicted, abs=1e-12)

    def test_records_hold_the_per_row_values(self):
        # what the hook hands a dependent step is exactly the per-row
        # values: the rows after the update, and abs() of the prefix
        # row's inner product with f
        n_checked = 0
        for F in random_frame_corpus(34, 12, dependent_fraction=1.0):
            outs = _outputs_per_step(F)
            for step, (_, after, inner_abs) in _dependent_updates(F).items():
                if step == 1:
                    continue
                prefix = outs[step - 2]
                f = F.vectors[step - 1]
                w = (prefix.conj() @ f).conj()
                assert np.array_equal(after, np.linalg.norm(outs[step - 1][:-1], axis=1))
                assert inner_abs.tolist() == [abs(z) for z in w.tolist()]
                n_checked += 1
        assert n_checked >= 10

    def test_cauchy_schwarz_floor_per_step(self):
        for F in random_frame_corpus(33, 25, dependent_fraction=0.8):
            nfs = F.norms()
            for step, (before, after, _) in _dependent_updates(F).items():
                floor = before**2 / (1 + nfs[step - 1] ** 2)
                assert np.all(after**2 >= floor - 1e-12)


def _dependent_step(prefix, f):
    """The rows of ``prefix`` after the dependent step for ``f``, with f's
    output row appended: the kernel's update applied to that prefix."""
    k = prefix.shape[0]
    G = np.vstack([prefix, np.zeros_like(f)[None, :]])
    _apply_dependent_update(G, k, f, float(np.linalg.norm(f)), (G[:k].conj() @ f).conj(),
                            np.empty_like(G))
    return G


class TestDependentUpdate:
    def test_fig1_prefix_hand_values(self):
        out = _dependent_step(np.eye(2), np.array([1 / RT2, 1 / RT2]))
        np.testing.assert_allclose(out[:2], FIG1_OUT[:2], atol=1e-15)
        np.testing.assert_allclose(out[2], [0.5, 0.5], atol=1e-15)

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0, 10.0])
    def test_one_dimensional_case(self, c):
        G, kinds = ggs_pass(FrameSeq(np.array([[1.0, 0.0], [c, 0.0]])))
        assert kinds == (KIND_INDEPENDENT, KIND_DEPENDENT)
        np.testing.assert_allclose(G.vectors[0], [1 / math.sqrt(1 + c * c), 0.0], atol=1e-15)

    def test_orthogonal_vector_untouched(self):
        G, _ = ggs_pass(FrameSeq(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])))
        np.testing.assert_allclose(G.vectors[0], [1 / RT2, 0.0], atol=1e-15)
        np.testing.assert_allclose(G.vectors[1], [0.0, 1.0], atol=1e-15)

    def test_matches_canonical_parseval_oracle(self):
        rng = np.random.default_rng(34)
        for _ in range(40):
            d = int(rng.integers(2, 7))
            k = int(rng.integers(1, d + 1))
            field = "complex" if rng.random() < 0.5 else "real"
            base = rng.normal(size=(k, d))
            if field == "complex":
                base = base + 1j * rng.normal(size=(k, d))
            gs = canonical_parseval(FrameSeq(base))  # Parseval prefix, as in the pass
            coeff = rng.normal(size=k)
            if field == "complex":
                coeff = coeff + 1j * rng.normal(size=k)
            f = coeff @ gs.vectors  # in the span by construction
            if np.linalg.norm(f) < 1e-3:
                continue
            out = FrameSeq(_dependent_step(gs.vectors, f))
            oracle = canonical_parseval(FrameSeq(np.vstack([gs.vectors, f[None, :]])))
            assert l2_distance(out, oracle) <= 1e-10


class TestBranchRouting:
    def test_at_threshold_dependent_branch_is_taken(self):
        # residual of the second vector sits exactly at DEP_TOL * max(1, norm)
        F = FrameSeq(np.array([[1.0, 0.0], [1.0, DEP_TOL]]))
        _, kinds = ggs_pass(F)
        assert kinds[1] == KIND_DEPENDENT

    def test_just_above_threshold_is_independent(self):
        F = FrameSeq(np.array([[1.0, 0.0], [1.0, 2 * DEP_TOL]]))
        _, kinds = ggs_pass(F)
        assert kinds[1] == KIND_INDEPENDENT

    def test_no_function_takes_a_routing_tolerance(self):
        # every pass routes at DEP_TOL: no function takes a routing tolerance
        for fn in (_pass_array, ggs_pass, iterate, dependency_profile):
            assert "dep_tol" not in inspect.signature(fn).parameters, fn
        assert list(inspect.signature(dependency_profile).parameters) == ["frame"]
        with pytest.raises(TypeError):
            ggs_pass(FIG1, dep_tol=1e-6)
        with pytest.raises(TypeError):
            ggs_pass(FIG1, 1e-6)


class TestZeroHandling:
    def test_no_zero_creation(self):
        for F in random_frame_corpus(35, 30, dependent_fraction=0.6):
            G, _ = ggs_pass(F)
            assert zero_indices(G) == zero_indices(F)

    def test_output_zero_exactly_where_input_zero(self):
        F = FrameSeq(np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 0.0], [1.0, 1.0]]))
        G, _ = ggs_pass(F)
        np.testing.assert_array_equal(G.vectors[0], [0.0, 0.0])
        np.testing.assert_array_equal(G.vectors[2], [0.0, 0.0])
        assert np.linalg.norm(G.vectors[1]) > 0.9

    def test_all_zero_frame(self):
        F = FrameSeq(np.zeros((3, 2)))
        G, _ = ggs_pass(F)
        np.testing.assert_array_equal(G.vectors, F.vectors)


class TestFieldsAndScales:
    def test_complex_pass_parseval(self):
        rng = np.random.default_rng(36)
        V = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
        V[4] = (0.3 + 0.2j) * V[0] - 1.1 * V[2]
        G, kinds = ggs_pass(FrameSeq(V))
        assert kinds[4] == KIND_DEPENDENT
        assert is_parseval(G).residual <= 1e-12

    def test_scale_invariance_of_routing(self):
        # branch decisions survive global rescaling of the input
        for F in random_frame_corpus(37, 15, dependent_fraction=0.7):
            _, t1 = ggs_pass(F)
            _, t2 = ggs_pass(FrameSeq(F.vectors * 1e6))
            assert t1 == t2

    def test_huge_norm_dependent_vector_overflow_raises(self):
        F = FrameSeq(np.array([[1e200, 0.0], [1e200, 0.0]]))
        with pytest.raises(NonFiniteError):
            ggs_pass(F)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_heavily_dependent_output_is_parseval_for_input_span(field, tmp_path, capsys):
    # 18 of 20 vectors in the span of their predecessors: the pass shrinks
    # early output rows to about 2e-6, so a span rebuilt from the output's
    # own rows can read a rank of 3 where the input's is 2
    for seed in range(200):
        F = random_frame(seed, 7, 20, field, 18)
        G, _ = ggs_pass(F)
        chk = is_parseval(G, span=F)
        assert chk.ok, (seed, chk.residual)
        assert numpy_oracle.parseval_gap(G.vectors, F.vectors) <= 1e-10, seed
    inp = tmp_path / "frame.json"
    for seed in (13, 14, 15):   # own-span residuals of about 1 in both fields
        inp.write_text(json.dumps(random_frame(seed, 7, 20, field, 18).to_dict()))
        assert main(["run", "--input", str(inp), "--output", str(tmp_path / "out.json")]) == EXIT_OK
        assert capsys.readouterr().err.endswith("ok=True\n")


@pytest.mark.parametrize("scale", [1e-11, 1e-6, 1.0, 1e6])
def test_exit_zero_means_a_parseval_output(scale, tmp_path, capsys):
    # run's verdict must not share the pass's routing rule: at 1e-11 the
    # pass routes every vector dependent, and a verdict that shared the
    # rule judged those wrong outputs Parseval
    inp, out = tmp_path / "frame.json", tmp_path / "out.json"
    exits = []
    for i, F in enumerate(random_frame_corpus(18, 50, dependent_fraction=0.5)):
        V = F.vectors * scale
        inp.write_text(json.dumps(FrameSeq(V).to_dict()))
        exits.append(main(["run", "--input", str(inp), "--output", str(out)]))
        assert exits[-1] in (EXIT_OK, EXIT_CHECK_FAILED), i
        if exits[-1] == EXIT_OK:
            G = FrameSeq.from_dict(json.loads(out.read_text())["frame"])
            assert numpy_oracle.parseval_gap(G.vectors, V) <= 1e-10, i
    capsys.readouterr()
    if scale >= 1e-6:
        assert exits.count(EXIT_OK) == len(exits), exits


def test_tiny_input_fails_its_check(tmp_path, capsys):
    inp = tmp_path / "tiny.json"
    inp.write_text(json.dumps({"dim": 2, "field": "real", "vectors": [[1e-11, 0.0], [0.0, 1e-11]]}))
    assert main(["run", "--input", str(inp), "--output", str(tmp_path / "out.json")]) == EXIT_CHECK_FAILED
    assert capsys.readouterr().err == "parseval_residual=1.414e+00 ok=False\n"


def test_onb_frames_fixed_within_1e12():
    rng = np.random.default_rng(39)
    for _ in range(30):
        F = random_onb_frame(rng, int(rng.integers(2, 9)), n_zeros=int(rng.integers(0, 3)),
                             field="complex" if rng.random() < 0.5 else "real")
        G, _ = ggs_pass(F)
        assert l2_distance(G, F) <= 1e-12


def _reference_pass(V, on_step=None):
    """The pass kernel's step arithmetic as first written: the product with
    the conjugated prefix, ``np.linalg.norm`` of the residual on every
    step, and a dependent update that computes <g_i, f> a second time.
    ``on_step`` is called as the kernel calls it, with ``w`` and the
    residual norm ``rn`` computed here.  Returns the output and the kind of
    each step."""
    G = np.zeros_like(V)
    kinds = []
    in_norms = np.linalg.norm(V, axis=1)
    scale = in_norms.max()
    zthresh = ZERO_REL_TOL * (scale if scale > 0.0 else 1.0)
    for k in range(V.shape[0]):
        f = V[k]
        nf = in_norms[k]
        kind, w, rn = KIND_ZERO, None, None
        if nf > zthresh:
            prefix = G[:k]
            coeffs = prefix.conj() @ f
            g = f - coeffs @ prefix
            rn = float(np.linalg.norm(g))
            if rn > DEP_TOL * max(1.0, nf):
                kind = KIND_INDEPENDENT
                G[k] = g / rn
            else:
                kind, rn = KIND_DEPENDENT, None
                nf2 = nf * nf
                shrink = 1.0 / math.sqrt(1.0 + nf2)
                cfac = (shrink - 1.0) / nf2
                w = (G[:k].conj() @ f).conj()
                G[:k] += (cfac * w)[:, None] * f[None, :]
                G[k] = shrink * f
        kinds.append(kind)
        if on_step is not None:
            on_step(k, kind, G, w, rn)
    return G, tuple(kinds)


def _equivalence_corpus():
    """Real and complex frames for every d in 1..64 with zero vectors and
    forced dependents, plus vectors exactly at and just above the
    dependence threshold."""
    rng = np.random.default_rng(40)
    cases = []
    for d in range(1, 65):
        for field in ("real", "complex"):
            n = d + int(rng.integers(1, 6))
            V = rng.normal(size=(n, d))
            if field == "complex":
                V = V + 1j * rng.normal(size=(n, d))
            V[int(rng.integers(0, n))] = 0.0
            for k in rng.choice(np.arange(1, n), size=min(3, n - 1), replace=False):
                V[k] = rng.normal(size=k) @ V[:k]   # in the span of the earlier vectors
            V *= 10.0 ** rng.uniform(-3, 3)
            cases.append(V)
    # residual DEP_TOL against DEP_TOL * max(1, ||f||) = DEP_TOL: dependent
    cases.append(np.array([[1.0, 0.0], [1.0, DEP_TOL]]))
    cases.append(np.array([[1.0, 0.0], [1.0, DEP_TOL * 1j]]))
    cases.append(np.array([[1.0, 0.0], [1.0, DEP_TOL * (1.0 + 1e-9)]]))
    cases.append(np.zeros((3, 2)))
    return cases


def _after_full_rank(kinds, V) -> bool:
    """Whether a nonzero step of ``kinds`` comes after min(n, d)
    independent routes, where the kernel's output is a backward product."""
    free = min(V.shape)
    for kind in kinds:
        if not free and kind != KIND_ZERO:
            return True
        free -= kind == KIND_INDEPENDENT
    return False


def _assert_output(V, G, hooked, expected, kinds):
    """The kernel's output ``G`` (``hooked`` with a hook attached) against
    the reference's rows ``expected``.  The kernel computes the steps after
    full rank as one backward product, so that arithmetic differs from the
    reference's step by step: the output equals the reference in every bit
    on a frame with no nonzero step after full rank, keeps the reference's
    zero rows in every bit, and lies within n·eps of it elsewhere.  A hook
    moves none of its bytes."""
    where = (V.shape, V.dtype)
    assert hooked.tobytes() == G.tobytes(), where
    if not _after_full_rank(kinds, V):
        assert G.tobytes() == expected.tobytes(), where
    zero = [i for i, kind in enumerate(kinds) if kind == KIND_ZERO]
    assert G[zero].tobytes() == expected[zero].tobytes(), where
    assert np.abs(G - expected).max(initial=0.0) <= V.shape[0] * EPS, where


def test_kernel_matches_reference_arithmetic():
    n_dependent = n_tails = 0
    for V in _equivalence_corpus():
        expected, kinds = _reference_pass(V)
        G, got = _pass_array(V)
        assert got == kinds, (V.shape, V.dtype)
        n_tails += _after_full_rank(kinds, V)

        prev = np.zeros_like(V)

        def on_step(k, kind, G, w, rn):
            nonlocal prev, n_dependent
            if kind == KIND_DEPENDENT:
                n_dependent += 1
                assert np.array_equal(w, (prev[:k].conj() @ V[k]).conj()) and rn is None
            elif kind == KIND_INDEPENDENT:
                g = V[k] - (prev[:k].conj() @ V[k]) @ prev[:k]
                assert w is None and rn == np.linalg.norm(g) and np.array_equal(G[k], g / rn)
            prev = G.copy()

        _assert_output(V, G, _pass_array(V, on_step)[0], expected, kinds)
    assert n_dependent > 3 * 64 and n_tails > 40, (n_dependent, n_tails)


def _signed_zero_corpus():
    """Frames whose arithmetic meets exact zeros: integer-valued
    rows (some scaled) with -0.0 entries and zero rows, as real frames,
    complex frames with real entries, purely imaginary frames and complex
    frames with -0.0 imaginary parts; plus complex frames of dimension 1,
    whose products have shape (1, 1)."""
    rng = np.random.default_rng(44)
    cases = []
    for t in range(400):
        d = int(rng.integers(1, 5))
        n = int(rng.integers(2, 2 * d + 4))
        V = rng.integers(-2, 3, size=(n, d)).astype(float)
        if rng.random() < 0.5:
            V = V * rng.normal(size=(n, d))
        V[rng.random((n, d)) < 0.2] = -0.0
        imag = np.where(rng.random((n, d)) < 0.5, -0.0, rng.integers(-2, 3, size=(n, d)))
        V = (V, V.astype(complex), V * 1j, V + 1j * imag)[t % 4]
        cases.append(V)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        V = rng.normal(size=(n, 1)) + 1j * rng.normal(size=(n, 1))
        V[int(rng.integers(0, n))] = 0.0
        cases.append(V)
    return cases


def test_kernel_keeps_reference_bits_including_signed_zeros():
    """Exports print -0.0, so up to full rank, and on zero rows throughout,
    the kernel must match the reference arithmetic in every bit, which
    ``np.array_equal`` does not check."""
    n_cases = n_exact = 0
    for V in _signed_zero_corpus() + _equivalence_corpus():
        expected, kinds = _reference_pass(V)
        G, got = _pass_array(V)
        assert got == kinds, (V.shape, V.dtype)
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(V, axis=1)
        hooked, got = _pass_array(V, lambda *step: None, norms)
        assert got == kinds, (V.shape, V.dtype)
        _assert_output(V, G, hooked, expected, kinds)
        n_cases += 1
        n_exact += not _after_full_rank(kinds, V)
    assert n_cases > 600 and n_exact > 100, (n_cases, n_exact)


def _overcomplete_corpus():
    """Heavily overcomplete frames, n from 2d to 4d for every d in 1..16,
    real and complex, with zero rows, -0.0 entries and rows exactly in the
    span of earlier ones (copies scaled by powers of two), so that most
    steps come after full rank."""
    rng = np.random.default_rng(45)
    cases = []
    for d in range(1, 17):
        for field in ("real", "complex"):
            for n in (2 * d, 3 * d, 4 * d):
                V = rng.normal(size=(n, d))
                if field == "complex":
                    V = V + 1j * rng.normal(size=(n, d))
                V[rng.random((n, d)) < 0.15] = -0.0
                if field == "complex":
                    V.imag[rng.random((n, d)) < 0.15] = -0.0
                for k in rng.choice(np.arange(1, n), size=min(2, n - 1), replace=False):
                    V[k] = V[int(rng.integers(0, k))] * float(rng.choice([-2.0, 0.5, 4.0]))
                V[int(rng.integers(0, n))] = 0.0
                V[int(rng.integers(0, n))] = -0.0
                V *= 10.0 ** rng.uniform(-3, 3)
                cases.append(V)
    return cases


def _steps_seen(run, V):
    """Output and kinds of ``run(V, on_step)`` and, per step, the bits of
    what its hook saw: kind, ``w``, ``rn`` and all of G."""
    steps = []

    def on_step(k, kind, G, w, rn):
        steps.append((k, kind, None if w is None else w.tobytes(),
                      None if rn is None else rn.hex(), G.tobytes()))

    G, kinds = run(V, on_step)
    return (G, kinds), steps


def test_kernel_keeps_reference_bits_after_full_rank():
    """On these frames most steps skip the residual in the kernel, while
    the reference still computes it: every hook call must match in every
    bit, with and without given norms, and the output, with and without a
    hook, must be the backward product of :func:`_assert_output`."""
    n_steps = n_after_full_rank = 0
    for V in _overcomplete_corpus():
        (expected, ref_kinds), ref_steps = _steps_seen(_reference_pass, V)
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(V, axis=1)
        G, kinds = _pass_array(V)
        assert kinds == ref_kinds, (V.shape, V.dtype)
        for given in (None, norms):
            out, kinds = _pass_array(V, None, given)
            assert out.tobytes() == G.tobytes() and kinds == ref_kinds, (V.shape, V.dtype)
            (hooked, kinds), steps = _steps_seen(lambda V, hook: _pass_array(V, hook, given), V)
            assert kinds == ref_kinds, (V.shape, V.dtype)
            assert steps == ref_steps, (V.shape, V.dtype)
            _assert_output(V, G, hooked, expected, ref_kinds)
        free = min(V.shape)
        for _, kind, *_ in ref_steps:
            free -= kind == KIND_INDEPENDENT
            n_after_full_rank += kind == KIND_DEPENDENT and free == 0
        n_steps += len(ref_steps)
    assert n_after_full_rank > n_steps // 2, (n_after_full_rank, n_steps)


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("s", [1e153, 1e155, 1e200])
def test_huge_vector_after_full_rank(field, s):
    # the third vector comes after full rank, where the pass forms no
    # residual; one whose squared norm overflows stops at the input-norm check
    V = np.array([[1e150, 0.0], [0.0, 1e150], [s, s]])
    if field == "complex":
        V = V.astype(complex)
        V[2, 1] *= 1j
    if s == 1e153:
        G, kinds = _pass_array(V)
        assert kinds == (KIND_INDEPENDENT, KIND_INDEPENDENT, KIND_DEPENDENT)
        assert np.all(np.isfinite(G)) and is_parseval(FrameSeq(G)).residual <= 1e-12
        assert _pass_array(V, lambda *step: None)[0].tobytes() == G.tobytes()
    else:
        with pytest.raises(NonFiniteError, match="step 3: input vector norm is not finite"):
            _pass_array(V)


def test_squared_norm_overflow_after_full_rank_raises_at_its_step():
    # row norms given exactly, as a caller that scales them might: the
    # steps after full rank are scanned before any of their arithmetic, so
    # with or without a hook the pass stops at the first overflowing step
    V = np.array([[1e150, 0.0], [0.0, 1e150], [1e150, 1e150], [1e155, 0.0], [0.0, 1e156]])
    norms = np.array([1e150, 1e150, math.sqrt(2.0) * 1e150, 1e155, 1e156])
    for hook in (None, lambda *step: None):
        with pytest.raises(NonFiniteError, match="^step 4: squared norm overflows$"):
            _pass_array(V, hook, norms)

@pytest.mark.parametrize("field", ["real", "complex"])
def test_long_tail_agrees_with_the_per_step_rows(field):
    # 400 vectors in R^48 or C^48: about 350 steps come after full rank,
    # which the kernel computes as one backward product; the rows a hook
    # sees after the last step are the step-by-step arithmetic
    F = random_frame(46, 48, 400, field, 100)
    per_step = []

    def on_step(k, kind, G, w, rn):
        if k == F.n_vectors - 1:
            per_step.append(G.copy())

    G, kinds = _pass_array(F.vectors, on_step)
    assert kinds.count(KIND_INDEPENDENT) == 48 and _after_full_rank(kinds, F.vectors)
    assert 0.0 < np.abs(G - per_step[0]).max() <= F.n_vectors * EPS
    assert numpy_oracle.parseval_gap(G, F.vectors) <= 1e-12


def test_kernel_never_writes_its_input():
    # perfbench's tracer replays the kernel on the input arrays of its
    # timed calls, and iterate feeds each output to the next pass
    frames = [FIG1.vectors, example_frame("fig3").vectors,
              np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 1.0], [-0.0, 2.0]]),
              random_frame(4, 16, 50, "complex", 12).vectors, random_frame(5, 8, 30, "real", 8).vectors]
    for V1 in frames:
        G, kinds = _pass_array(V1)
        for V0, plan in ((V1, None), (G, _Plan(kinds, V1.shape[1]))):
            for hook in (None, lambda *step: None):
                V = V0.copy()
                V.setflags(write=False)   # a write raises ValueError
                _pass_array(V, hook, None, plan)
                assert V.tobytes() == V0.tobytes()
