import numpy as np
import pytest

import framegs.ggs as ggs
from framegs.frames import FrameSeq
from framegs.generate import example_frame, random_frame_corpus
from framegs.iteration import iterate
from framegs.verify import (
    check_dependent_oracle,
    check_l2_identity,
    check_prefix_parseval,
    check_recurrences,
    run_battery,
)


def test_observer_checks_fail_on_a_perturbed_dependent_update(monkeypatch):
    # both checks read the outputs from the pass kernel as it runs; a wrong
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
