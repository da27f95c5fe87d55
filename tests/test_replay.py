"""``iterate`` replays the routing of its first pass.

Pass 1 is routed; every later pass takes pass 1's kinds (``ggs._Plan``)
instead of routing again.  On inputs whose routing holds from pass to
pass, the replay must give what routing every pass gives, in every byte:
norms, deltas, snapshots, step kinds and recurrence report, traced and
untraced, and every hook call of a pass.  A replayed independent residual
that is 0 is never divided by: that pass and every later one are routed.
"""

import dataclasses
import itertools

import numpy as np
import pytest

import framegs.iteration as iteration
from framegs.frames import FrameSeq
from framegs.generate import example_frame, random_frame
from framegs.ggs import KIND_DEPENDENT, KIND_INDEPENDENT, _pass_array, _Plan
from framegs.iteration import iterate

from test_acceptance import criterion_10_corpus
from test_extreme_inputs import _sweep

FIGURES = [example_frame("fig1"), example_frame("fig3")]


@pytest.fixture(scope="module")
def corpus():
    return criterion_10_corpus()


def _routed(V, on_step=None, norms=None, plan=None):
    """The kernel with every pass routed: the plan is dropped."""
    return _pass_array(V, on_step, norms)


def _run_bytes(tr):
    return (tr.norms.tobytes(), tr.deltas.tobytes(),
            {m: G.vectors.tobytes() for m, G in tr.snapshots.items()},
            tr.step_traces, tr.recurrences, tr.iterations_run, tr.stationary,
            tr.dependent_indices, tr.input_zero_indices)


def _replayed_passes(monkeypatch):
    """Count the kernel calls of ``iterate`` that replayed a plan, and
    those that fell back from it."""
    counts = {"replayed": 0, "fell back": 0}

    def counting(V, on_step=None, norms=None, plan=None):
        out = _pass_array(V, on_step, norms, plan)
        if plan is not None:
            counts["replayed" if out[0] is not None else "fell back"] += 1
        return out

    monkeypatch.setattr(iteration, "_pass_array", counting)
    return counts


@pytest.mark.parametrize("trace_steps", [False, True])
def test_replay_equals_routing_every_pass(corpus, trace_steps, monkeypatch):
    frames = [(F, 40) for F in corpus] + [(F, 200) for F in FIGURES]
    runs = []
    for kernel in (None, _routed):
        with monkeypatch.context() as patch:
            if kernel is None:
                counts = _replayed_passes(patch)
            else:
                patch.setattr(iteration, "_pass_array", kernel)
            runs.append([_run_bytes(iterate(F, max_iter=m, eps_delta=0.0, snapshot_stride=1,
                                            trace_steps=trace_steps)) for F, m in frames])
    for i, (replayed, routed) in enumerate(zip(*runs)):
        assert replayed == routed, i
    assert counts == {"replayed": sum(m - 1 for _, m in frames), "fell back": 0}


def _steps_seen(V, plan):
    """Output, kinds and the bytes of every hook call of one pass over V."""
    steps = []

    def on_step(k, kind, G, w, before):
        steps.append((k, kind, None if w is None else w.tobytes(),
                      None if before is None else before.tobytes(), G.tobytes()))

    G, kinds = _pass_array(V, on_step, None, plan)
    return G.tobytes(), kinds, steps


def test_hooked_replay_sees_what_a_hooked_routed_pass_sees(corpus):
    for i, F in enumerate(corpus + FIGURES):
        G1, kinds = _pass_array(F.vectors)
        plan = _Plan(kinds, F.dim)
        for V in (F.vectors, G1):   # pass 1's input and pass 2's
            assert _steps_seen(V, plan) == _steps_seen(V, None), i
            assert _pass_array(V, None, None, plan)[0].tobytes() == _pass_array(V)[0].tobytes(), i
        assert not plan.drift, i


def test_only_a_hooked_replay_evaluates_the_margin():
    # row 2 lies 1e-12 off the span of row 1, where routing would take the
    # dependent branch; the replay normalizes it as pass 1 did
    plan = _Plan(_pass_array(np.eye(2))[1], 2)
    V = np.array([[1.0, 0.0], [1.0, 1e-12]])
    G, kinds = _pass_array(V, None, None, plan)
    assert kinds == (KIND_INDEPENDENT, KIND_INDEPENDENT) and not plan.drift
    np.testing.assert_array_equal(G, np.eye(2))
    _pass_array(V, lambda *step: None, None, plan)
    assert plan.drift


def test_zero_replayed_residual_is_never_divided_by():
    plan = _Plan(_pass_array(np.eye(2))[1], 2)
    for hook in (None, lambda *step: None):
        assert _pass_array(np.array([[0.0, 0.0], [0.0, 1.0]]), hook, None, plan) == (None, None)


def test_a_pass_that_falls_back_is_routed_with_every_later_one(monkeypatch):
    # input 103 of the extreme sweep: pass 1 leaves its independent row 1
    # exactly zero, so pass 2's replayed residual is 0
    V = next(itertools.islice(_sweep(), 103, None))
    F = FrameSeq(V)
    for trace_steps in (False, True):
        with monkeypatch.context() as patch:
            counts = _replayed_passes(patch)
            replayed = iterate(F, max_iter=30, eps_delta=0.0, snapshot_stride=1,
                               trace_steps=trace_steps)
        assert counts == {"replayed": 0, "fell back": 1}
        with monkeypatch.context() as patch:
            patch.setattr(iteration, "_pass_array", _routed)
            routed = iterate(F, max_iter=30, eps_delta=0.0, snapshot_stride=1,
                             trace_steps=trace_steps)
        assert replayed.norms[1][0] == 0.0
        if trace_steps:   # the pass that fell back clears the pattern flag
            assert routed.recurrences.pattern_consistent
            assert replayed.recurrences == dataclasses.replace(routed.recurrences,
                                                               pattern_consistent=False)
            replayed, routed = (dataclasses.replace(tr, recurrences=None) for tr in (replayed, routed))
        assert _run_bytes(replayed) == _run_bytes(routed)


def test_a_pass_that_falls_back_adds_nothing_to_the_report(monkeypatch):
    # pass 3's replay hands its hook a dependent step that breaks the
    # update identity by about 49 d, then falls back to routing
    for F in (FIGURES[1], random_frame(3, 4, 12, "complex", 4)):
        replays = itertools.count(1)

        def breaking(V, on_step=None, norms=None, plan=None):
            if plan is not None and next(replays) == 2:
                on_step(2, KIND_DEPENDENT, np.full(V.shape, 7.0, V.dtype), np.ones(2, V.dtype),
                        np.zeros(2))
                return None, None
            return _pass_array(V, on_step, norms, plan)

        runs = []
        for kernel in (breaking, _routed):
            with monkeypatch.context() as patch:
                patch.setattr(iteration, "_pass_array", kernel)
                runs.append(iterate(F, max_iter=10, eps_delta=0.0, trace_steps=True).recurrences)
        assert runs[0] == dataclasses.replace(runs[1], pattern_consistent=False)
