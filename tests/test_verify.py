import dataclasses

import numpy as np
import pytest

import framegs.ggs as ggs
import framegs.verify as verify
from framegs.frames import FrameSeq
from framegs.generate import example_frame, random_frame_corpus
from framegs.iteration import classify_limit, iterate
from framegs.verify import (
    check_dependent_oracle,
    check_l2_identity,
    check_limit_classification,
    check_near_dependence_routing,
    check_prefix_parseval,
    check_recurrences,
    run_battery,
)


def test_observer_checks_fail_on_a_perturbed_dependent_update(monkeypatch):
    # both checks judge the rows ggs_pass returns over each prefix; a wrong
    # dependent update must fail them, so neither compares the kernel with itself
    frames = random_frame_corpus(17, 8, dependent_fraction=0.8)
    assert check_prefix_parseval(frames).ok and check_dependent_oracle(frames).ok

    exact = ggs._apply_dependent_update

    def perturbed(G, k, f, nf, w, buf):
        exact(G, k, f, nf, w, buf)
        G[k, 0] += 1e-6

    monkeypatch.setattr(ggs, "_apply_dependent_update", perturbed)
    assert not check_prefix_parseval(frames).ok
    oracle = check_dependent_oracle(frames)
    assert not oracle.ok and oracle.value > 1e-7, oracle


def test_prefix_checks_see_the_backward_product(monkeypatch):
    # after full rank ggs_pass returns the backward product of _tail_product,
    # not the step-by-step rows; an error planted in that product must fail
    # both checks, so they judge the rows a user gets
    frames = random_frame_corpus(17, 8, dependent_fraction=0.8)
    exact = ggs._tail_product

    def perturbed(G, V, head, rows, tail, nfs):
        exact(G, V, head, rows, tail, nfs)
        G[tail[-1], 0] += 1e-6

    monkeypatch.setattr(ggs, "_tail_product", perturbed)
    for res in (check_prefix_parseval(frames), check_dependent_oracle(frames)):
        assert not res.ok and res.value > 1e-7, res


def test_recurrence_check_fails_on_perturbed_updated_rows(monkeypatch):
    # the update identity is evaluated on the rows the kernel wrote, against
    # the norms and inner products from before the update; rows updated
    # wrongly must show, so the check does not compare the kernel with itself
    fig3 = example_frame("fig3")
    assert check_recurrences().ok

    exact = ggs._apply_dependent_update

    def perturbed(G, k, f, nf, w, buf):
        exact(G, k, f, nf, w, buf)
        G[:k] *= 1.0 + 1e-6

    monkeypatch.setattr(ggs, "_apply_dependent_update", perturbed)
    assert not check_recurrences().ok
    tr = iterate(fig3, max_iter=50, eps_delta=0.0, trace_steps=True)
    assert tr.recurrences.update_identity > 1e-12, tr.recurrences


def test_l2_identity_fails_on_a_misrouted_pass():
    # the pass routes both vectors dependent and leaves an energy of 2e-22;
    # the span of the input is R^2, so the energy must read 2, and a rank
    # counted from the routing would have passed the check
    res = check_l2_identity([FrameSeq(np.array([[1e-11, 0.0], [0.0, 1e-11]]))])
    assert not res.ok and res.value == 2.0, res


@pytest.mark.parametrize("seed, n_frames, message", [
    (0, 0, "n_frames must be >= 1, got 0"),
    (-1, 5, "seed must be >= 0, got -1"),
], ids=["no-frames", "negative-seed"])
def test_run_battery_rejects_out_of_range_arguments(seed, n_frames, message):
    # an empty corpus would pass most checks on nothing, and numpy's
    # generator refuses a negative seed deep inside a corpus
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_battery(seed, n_frames)


def test_one_frame_battery_passes():
    # criterion 3's corpus forces dependencies into every frame: at
    # seed 182 its one frame would otherwise be a 4x4 frame with no
    # dependent step, and the check would fail on nothing measured
    failed = [res for res in run_battery(182, 1) if not res.ok]
    assert not failed, failed


def _mismatched_limit(monkeypatch):
    # every limit reported as missing its predicted zero pattern
    monkeypatch.setattr(verify, "classify_limit",
                        lambda tr: dataclasses.replace(classify_limit(tr), prediction_match=False))
    return check_limit_classification(("fig1",))


@pytest.mark.parametrize("run, detail", [
    (lambda monkeypatch: check_near_dependence_routing([(FrameSeq(np.eye(2)), (2,))]),
     "gap vectors at 1e-3..1e-5; profile misrouted: (2,)->()"),
    (_mismatched_limit, "; zero-pattern mismatch: fig1"),
], ids=["misrouted-profile", "zero-pattern-mismatch"])
def test_failed_check_names_what_failed(monkeypatch, run, detail):
    res = run(monkeypatch)
    assert not res.ok and res.detail.endswith(detail), res
