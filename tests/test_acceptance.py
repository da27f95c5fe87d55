"""End-to-end acceptance battery.

Ten criteria, one per contract-level property of the Parseval pass and
its iteration limit.  Each test builds its own seeded inputs and hands
them to the matching check of :mod:`framegs.verify`, the one definition
of the criterion that ``framegs verify`` runs too.  Each prints a
PASS/FAIL line per check so the battery reads as a checklist in the test
log; corpus sizes, tolerances and runtime bounds are pinned here.
"""

import time

import numpy as np

from framegs import (
    FrameSeq,
    random_frame,
    random_frame_corpus,
    random_onb_frame,
)
from framegs.verify import (
    check_closed_form_decay,
    check_dependent_oracle,
    check_gram_schmidt_degeneration,
    check_last_vector_stabilization,
    check_limit_classification,
    check_non_onb_movement,
    check_onb_fixed_points,
    check_prefix_parseval,
    check_recurrences,
    check_single_pass_parseval,
    check_zero_pattern_prediction,
)

CORPUS_SEED = 1101


def _verdict(num, result, threshold, elapsed=None, gate=None):
    """Print the criterion's PASS/FAIL line, then assert the check, that
    it ran against ``threshold``, and, when ``gate`` is given, that
    ``elapsed`` stayed under it."""
    in_time = gate is None or elapsed < gate
    tag = "PASS" if result.ok and in_time else "FAIL"
    timing = "" if gate is None else f", {elapsed:.2f}s of {gate:g}s"
    print(f"[criterion {num:02d}] {tag} {result.name}  "
          f"({result.value:.3e} {result.op} {result.threshold:g}; {result.detail}{timing})")
    assert result.threshold == threshold, result
    assert result.ok, result
    assert in_time, f"{result.name} took {elapsed:.2f}s, gate {gate:g}s"


def _corpus200():
    return random_frame_corpus(CORPUS_SEED, 200, dependent_fraction=0.3)


def test_criterion_01_single_pass_parseval():
    t0 = time.perf_counter()
    result = check_single_pass_parseval(_corpus200())
    _verdict(1, result, 1e-10, time.perf_counter() - t0, gate=5.0)


def test_criterion_02_prefix_parseval():
    _verdict(2, check_prefix_parseval(random_frame_corpus(CORPUS_SEED + 1, 50)), 1e-10)


def test_criterion_03_dependent_step_oracle():
    _verdict(3, check_dependent_oracle(_corpus200()), 1e-10)


def test_criterion_04_fixed_point_characterization():
    rng = np.random.default_rng(CORPUS_SEED + 2)
    onbs, others = [], []
    for t in range(50):
        d = int(rng.integers(2, 9))
        field = "complex" if t % 2 else "real"
        onbs.append(random_onb_frame(rng, d, n_zeros=int(rng.integers(0, 4)), field=field))
        others.append(random_frame(rng, d, int(rng.integers(d, 13)), field=field))
    _verdict(4, check_onb_fixed_points(onbs), 1e-12)
    _verdict(4, check_non_onb_movement(others), 1e-6)


def test_criterion_05_last_vector_stabilization():
    rng = np.random.default_rng(CORPUS_SEED + 3)
    frames = []
    for t in range(50):
        d = int(rng.integers(3, 9))
        field = "complex" if t % 2 else "real"
        base = random_onb_frame(rng, d, field=field).vectors
        sub = base[: d - 1]
        npred = int(rng.integers(2, 2 * d))
        preds = ((rng.standard_normal((npred, d - 1))
                  + (1j * rng.standard_normal((npred, d - 1)) if field == "complex" else 0))
                 @ sub)
        last = (rng.standard_normal(d - 1) @ sub
                + (0.5 + rng.random()) * base[d - 1])
        frames.append(FrameSeq(np.vstack([preds, last[None, :]])))
    result = check_last_vector_stabilization(frames)
    _verdict(5, result, 1e-10)
    assert "20 iterations" in result.detail


def test_criterion_06_closed_form_decay():
    t0 = time.perf_counter()
    result = check_closed_form_decay()
    _verdict(6, result, 1e-8, time.perf_counter() - t0, gate=1.0)
    assert "1000 iterations" in result.detail and "<= 1e-12" in result.detail


def test_criterion_07_recurrence_battery():
    result = check_recurrences()
    _verdict(7, result, 1e-12)
    assert result.detail == "fig1 + fig3, 50 iterations each"


def test_criterion_08_limit_classification():
    for name in ("fig1", "fig2", "fig3"):
        t0 = time.perf_counter()
        result = check_limit_classification((name,))
        _verdict(8, result, 1e-2, time.perf_counter() - t0, gate=2.0)
        assert "<= 1e-9" in result.detail


def test_criterion_09_gram_schmidt_degeneration():
    rng = np.random.default_rng(CORPUS_SEED + 4)
    frames = []
    for t in range(100):
        d = int(rng.integers(2, 9))
        n = int(rng.integers(1, d + 1))
        field = "complex" if t % 2 else "real"
        frames.append(random_frame(rng, d, n, field=field))
    _verdict(9, check_gram_schmidt_degeneration(frames), 1e-12)


def criterion_10_corpus():
    """100 overcomplete frames, d 2..8 and n up to 20, with 1 to 4 forced dependents."""
    rng = np.random.default_rng(CORPUS_SEED + 5)
    frames = []
    for t in range(100):
        d = int(rng.integers(2, 9))
        n = int(rng.integers(d + 1, 21))
        n_dep = int(rng.integers(1, min(4, n - d) + 1))
        field = "complex" if t % 2 else "real"
        frames.append(random_frame(rng, d, n, field=field, n_dependent=n_dep))
    return frames


def test_criterion_10_zero_pattern_prediction_at_scale():
    t0 = time.perf_counter()
    result = check_zero_pattern_prediction(criterion_10_corpus(), max_iter=2000)
    _verdict(10, result, 0.0, time.perf_counter() - t0, gate=60.0)
