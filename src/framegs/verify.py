"""Self-contained verification battery behind the ``verify`` CLI command.

Each ``check_*`` function is the one definition of its criterion: it
takes its inputs (frames or example names, and for the zero-pattern
check an iteration count) as arguments, holds its thresholds as
constants, routes at the library's ``DEP_TOL``, and reports the worst
measured value against its threshold, so each verdict means one fixed
thing.  :func:`run_battery` builds the seeded inputs of ``framegs
verify`` and owns the ranges of its arguments; the acceptance tests call
the same checks on their own corpora.  The battery exercises the pass,
the iteration driver, and the validators against each other and against
independent constructions (classical Gram-Schmidt, the canonical
Parseval map, closed-form decay), and reads every rank from the span rule.
Every check judges rows that ``ggs_pass`` or ``iterate`` returns; none
observes the pass kernel as it runs.  Criteria 2 and 3 take the pass's
state after step k as the pass over the prefix F[:k]
(:func:`_prefix_passes`).
"""

import math
from dataclasses import dataclass

import numpy as np

from .frames import (PARSEVAL_TOL, FrameSeq, _span_basis, _span_steps, canonical_parseval,
                     is_parseval, l2_distance, span_projection)
from .generate import (
    EXAMPLE_NAMES,
    example_frame,
    random_frame,
    random_frame_corpus,
    random_onb_frame,
)
from .ggs import KIND_DEPENDENT, ggs_pass, steps_of
from .iteration import DELTA_ONB, classify_limit, closed_form_last_dependent, iterate


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    threshold: float
    op: str  # "<=" or ">"
    ok: bool
    detail: str = ""


def _result(name, value, threshold, op="<=", extra_ok=True, detail="") -> CheckResult:
    ok = value <= threshold if op == "<=" else value > threshold
    return CheckResult(name, float(value), threshold, op, ok and extra_ok, detail)


def _classical_gram_schmidt(V: np.ndarray) -> np.ndarray:
    # plain sequential orthonormalization; all rows assumed independent
    G = np.zeros_like(V)
    for k in range(V.shape[0]):
        r = V[k] - (G[:k].conj() @ V[k]) @ G[:k]
        G[k] = r / np.linalg.norm(r)
    return G


def _onb_frames(seed, n_frames) -> list[FrameSeq]:
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_frames):
        d = int(rng.integers(2, 9))
        out.append(random_onb_frame(rng, d, n_zeros=int(rng.integers(0, 4)),
                                    field="complex" if rng.random() < 0.5 else "real"))
    return out


def _stabilization_frames(seed, n_frames) -> list[FrameSeq]:
    # predecessors live in a proper subspace while the last vector has a
    # guaranteed component outside it
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_frames):
        d = int(rng.integers(2, 7))
        n = int(rng.integers(2, 12))
        Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        sub = Q[:, : d - 1]
        V = rng.standard_normal((n, d - 1)) @ sub.T
        last = rng.standard_normal(d - 1) @ sub.T + (0.5 + rng.random()) * Q[:, d - 1]
        out.append(FrameSeq(np.vstack([V, last[None, :]])))
    return out


def _independent_frames(seed, n_frames) -> list[FrameSeq]:
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_frames):
        d = int(rng.integers(2, 9))
        n = int(rng.integers(1, d + 1))
        out.append(random_frame(rng, d, n, "complex" if rng.random() < 0.5 else "real"))
    return out


def _near_dependence_frames(seed) -> list[tuple[FrameSeq, tuple[int, ...]]]:
    """Frames with one vector a small but resolvable distance (1e-3 to
    1e-5) outside the span of its predecessors, plus one exactly
    dependent vector.  The designed profile is (4,); any coarser
    dependence tolerance misroutes vector 3 and breaks both the profile
    and the Parseval property of the pass output."""
    rng = np.random.default_rng(seed)
    out = []
    for gap in (1e-3, 1e-4, 1e-5):
        Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        q0, q1, q2 = Q[:, 0], Q[:, 1], Q[:, 2]
        v = (q0 + q1) / math.sqrt(2.0) + gap * q2
        u = 0.7 * q0 - 0.2 * q1
        out.append((FrameSeq(np.stack([q0, q1, v, u])), (4,)))
    return out


def check_single_pass_parseval(frames) -> CheckResult:
    worst = 0.0
    for F in frames:
        G, _ = ggs_pass(F)
        worst = max(worst, is_parseval(G, span=F).residual)
    return _result("single_pass_parseval", worst, PARSEVAL_TOL, detail=f"{len(frames)} frames")


def _prefix_passes(F: FrameSeq):
    """For k = 1..n, the prefix ``P = F[:k]`` and the rows and kinds of
    ``ggs_pass(P)``.  The pass is causal, so in exact arithmetic this is
    the state of the pass over F after step k.  Before full rank, under
    the same zero threshold, the two are the same bits; after full rank
    the prefix pass returns the backward product, which is what
    ``ggs_pass`` returns.  One difference: the zero rule of a prefix pass
    is relative to the prefix's largest row, not the frame's, so a row
    near zero can route otherwise.  The battery's corpora have no such
    row: their dependent steps counted this way are the whole passes'."""
    for k in range(1, len(F) + 1):
        P = FrameSeq(F.vectors[:k])
        yield (P, *ggs_pass(P))


def check_prefix_parseval(frames) -> CheckResult:
    # after step k the outputs must be Parseval for the span of the input
    # prefix F[:k]; the pass over F[:k] is that state (see _prefix_passes)
    worst = 0.0
    for F in frames:
        for P, G, _ in _prefix_passes(F):
            worst = max(worst, is_parseval(G, span=P).residual)
    return _result("prefix_parseval", worst, PARSEVAL_TOL, detail=f"{len(frames)} frames, all steps")


def check_dependent_oracle(frames) -> CheckResult:
    # every dependent step must equal the canonical Parseval map applied
    # to (previous outputs + the incoming vector): the pass over F[:k],
    # when its last step is dependent, against the rows of the pass over
    # F[:k-1] plus f_k
    worst = 0.0
    steps = 0
    for F in frames:
        prev = F.vectors[:0]   # the rows of the pass over F[:k-1]
        for P, G, kinds in _prefix_passes(F):
            if kinds[-1] == KIND_DEPENDENT:
                oracle = canonical_parseval(FrameSeq(np.vstack([prev, P.vectors[-1:]])))
                diff = np.linalg.norm(G.vectors - oracle.vectors, axis=1)
                worst = max(worst, float(diff.max()))
                steps += 1
            prev = G.vectors
    return _result("dependent_oracle_match", worst, 1e-10, extra_ok=steps > 0,
                   detail=f"{steps} dependent steps")


def check_onb_fixed_points(frames) -> CheckResult:
    worst = 0.0
    for F in frames:
        G, _ = ggs_pass(F)
        worst = max(worst, l2_distance(G, F))
    return _result("onb_fixed_points", worst, 1e-12, detail=f"{len(frames)} zero-extended ONBs")


def check_non_onb_movement(frames) -> CheckResult:
    least = math.inf
    for F in frames:
        G, _ = ggs_pass(F)
        least = min(least, l2_distance(G, F))
    return _result("non_onb_movement", least, 1e-6, op=">",
                   detail=f"{len(frames)} generic frames")


def check_last_vector_stabilization(frames) -> CheckResult:
    """Each frame's last vector f_n must grow the span (``_span_steps``),
    and over 20 iterations, every iterate recorded, no g_n^{(m)}, m >= 1,
    may lie farther than 1e-10 from g_n^{(1)} or from the normalized
    component of f_n orthogonal to span{f_1, ..., f_{n-1}}.  That span is
    taken with :func:`span_projection`, not from the pass; with no
    predecessors the component is f_n itself."""
    worst = 0.0
    bad = 0
    for F in frames:
        n = len(F)
        if n not in _span_steps(F):
            bad += 1
            continue
        tr = iterate(F, max_iter=20, eps_delta=0.0)
        f_n = F.vectors[n - 1]
        r = f_n - span_projection(FrameSeq(F.vectors[: n - 1])) @ f_n if n > 1 else f_n
        expected = r / np.linalg.norm(r)
        first = tr.snapshots[1].vectors[n - 1]
        for m in range(1, tr.iterations_run + 1):
            g = tr.snapshots[m].vectors[n - 1]
            worst = max(worst, float(np.linalg.norm(g - expected)),
                        float(np.linalg.norm(g - first)))
    return _result(
        "last_vector_stabilization",
        worst,
        1e-10,
        extra_ok=bad == 0,
        detail=f"{len(frames)} frames, 20 iterations"
        + (f", {bad} inapplicable" if bad else ""),
    )


def check_closed_form_decay() -> CheckResult:
    # fig1's last vector f is dependent, so its m-th iterate is the closed
    # form f / sqrt(1 + m ||f||^2)
    F = example_frame("fig1")
    tr = iterate(F, max_iter=1000, eps_delta=0.0, snapshot_stride=1000)
    M = tr.iterations_run
    f = F.vectors[2]
    predicted = [np.linalg.norm(closed_form_last_dependent(f, m)) for m in range(1, M + 1)]
    worst = float(np.max(np.abs(tr.norms[1:, 2] / predicted - 1.0)))
    final = float(tr.norms[M, 2])
    final_err = abs(final - predicted[-1])
    return _result(
        "closed_form_decay", worst, 1e-8, extra_ok=final_err <= 1e-12,
        detail=f"fig1, {M} iterations, final norm {final:.7f} off by {final_err:.1e} <= 1e-12",
    )


def check_recurrences() -> CheckResult:
    worst = 0.0
    consistent = True
    for name in ("fig1", "fig3"):
        tr = iterate(example_frame(name), max_iter=50, eps_delta=0.0,
                     snapshot_stride=50, trace_steps=True)
        rep = tr.recurrences
        worst = max(worst, rep.max_violation)
        consistent = consistent and rep.pattern_consistent and tr.iterations_run == 50
    return _result(
        "recurrence_battery", worst, 1e-12, extra_ok=consistent,
        detail="fig1 + fig3, 50 iterations each",
    )


def check_limit_classification(names) -> CheckResult:
    worst_resid = 0.0
    worst_l2 = 0.0
    mismatches = []
    for name in names:
        tr = iterate(example_frame(name), max_iter=1000, eps_delta=0.0, snapshot_stride=1000)
        rep = classify_limit(tr)
        if not rep.prediction_match:
            mismatches.append(name)
        worst_resid = max(worst_resid, rep.onb_residual)
        # every iterate is Parseval for the input's span: energy = its dimension
        rank = len(_span_basis(tr.initial))
        sums = (tr.norms[1:] ** 2).sum(axis=1)
        worst_l2 = max(worst_l2, float(np.max(np.abs(sums - rank))))
    ok = not mismatches and worst_l2 <= 1e-9
    detail = f"{' '.join(names)} at M=1000; l2 identity off by {worst_l2:.2e} <= 1e-9"
    if mismatches:
        detail += f"; zero-pattern mismatch: {','.join(mismatches)}"
    return _result("limit_classification", worst_resid, DELTA_ONB, extra_ok=ok, detail=detail)


def check_gram_schmidt_degeneration(frames) -> CheckResult:
    worst = 0.0
    for F in frames:
        G, _ = ggs_pass(F)
        worst = max(worst, float(np.linalg.norm(G.vectors - _classical_gram_schmidt(F.vectors))))
    return _result(
        "gram_schmidt_degeneration", worst, 1e-12, detail=f"{len(frames)} independent sequences"
    )


def check_zero_pattern_prediction(frames, max_iter) -> CheckResult:
    mismatches = 0
    for F in frames:
        tr = iterate(F, max_iter=max_iter, eps_delta=0.0, snapshot_stride=max_iter)
        if not classify_limit(tr).prediction_match:
            mismatches += 1
    return _result(
        "zero_pattern_prediction", float(mismatches), 0.0,
        detail=f"{len(frames)} frames with forced dependencies, M={max_iter}",
    )


def check_near_dependence_routing(cases) -> CheckResult:
    """``cases`` pairs each frame with its designed dependency profile."""
    worst = 0.0
    misrouted = []
    for F, designed in cases:
        G, kinds = ggs_pass(F)
        prof = steps_of(kinds)
        if prof != designed:
            misrouted.append(f"{designed}->{prof}")
        worst = max(worst, is_parseval(G, span=F).residual)
    detail = "gap vectors at 1e-3..1e-5"
    if misrouted:
        detail += f"; profile misrouted: {' '.join(misrouted)}"
    return _result("near_dependence_routing", worst, PARSEVAL_TOL, extra_ok=not misrouted, detail=detail)


def check_l2_identity(frames) -> CheckResult:
    # Parseval output must carry total energy equal to the dimension of the
    # input's span, taken with the span rule, not counted from the routing
    worst = 0.0
    for F in frames:
        G, _ = ggs_pass(F)
        worst = max(worst, abs(float((G.norms() ** 2).sum()) - len(_span_basis(F))))
    return _result("l2_energy_identity", worst, 1e-10, detail=f"{len(frames)} frames")


def run_battery(seed: int = 0, n_frames: int = 50) -> list[CheckResult]:
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if n_frames < 1:
        raise ValueError(f"n_frames must be >= 1, got {n_frames}")

    def corpus(offset, **kw):
        return random_frame_corpus(seed + offset, n_frames, **kw)

    return [
        check_single_pass_parseval(corpus(0)),
        check_prefix_parseval(corpus(1)),
        check_dependent_oracle(corpus(2, dependent_fraction=1.0)),
        check_onb_fixed_points(_onb_frames(seed + 3, n_frames)),
        check_non_onb_movement(corpus(4)),
        check_last_vector_stabilization(_stabilization_frames(seed + 5, n_frames)),
        check_closed_form_decay(),
        check_recurrences(),
        check_limit_classification(EXAMPLE_NAMES),
        check_gram_schmidt_degeneration(_independent_frames(seed + 6, n_frames)),
        check_zero_pattern_prediction(corpus(7, dependent_fraction=1.0), 1000),
        check_near_dependence_routing(_near_dependence_frames(seed + 8)),
        check_l2_identity(corpus(9)),
    ]
