"""Iteration of the pass map and validation of its decay laws.

Repeatedly applying the pass, G_{m+1} = Phi(G_m), drives every vector
that was dependent in the initial frame toward zero at a Theta(1/sqrt(m))
rate while the independent ones settle into an orthonormal set.  The
driver here records norms every iteration (they are cheap and feed all
the validators) and full snapshots on a configurable stride.

Stopping is purely empirical: iteration halts when the l2 step distance
falls below a threshold.  That is reported as stationarity, not as
convergence of the full sequence, which this machinery does not claim.
"""

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError
from .frames import DEP_TOL, FrameSeq, _coordinates, _span_steps, _zero_threshold
from .ggs import KIND_DEPENDENT, KIND_ZERO, _pass_array, _Plan, steps_of
from .linalg import _l2_norm, _row_norms, as_field_array

# largest entry of |Gram - I| over the surviving vectors at which
# classify_limit calls them near-ONB
DELTA_ONB = 1e-2


@dataclass(frozen=True)
class RecurrenceReport:
    """Maximum violations of the per-step norm laws over a traced run.

    For each pass m with previous-iterate norms x_l = ||g_{k_l}^{(m-1)}||^2
    at the dependent indices k_1 < ... < k_s:

    * update identity: after the dependent step at k_r updates row i,
      new_norm^2 == old_norm^2 - |<g_i, f>|^2 / (1 + ||f||^2) exactly;
    * single-step floor: after step k_{l+1}, row k_l retains at least
      [x_l/(1+x_l)] / (1+x_{l+1});
    * accumulated floor: at the end of the pass, row k_l retains at least
      [x_l/(1+x_l)] * prod_{r>l} 1/(1+x_r);
    * shrink ceiling: at the end of the pass, row k_l holds at most
      x_l/(1+x_l) (equality at l = s);
    * tail floor: the accumulated floor specialized to l = s-1, where the
      product collapses to the single factor 1/(1+x_s).

    Floors and the ceiling report signed violations (positive means the
    bound failed by that much); the update identity reports an absolute
    error.  Every pass is measured at the dependent steps it took.
    ``pattern_consistent`` is the margin of the replay (see
    :func:`iterate`): it is false when a later pass met a vector that
    routing would have sent another way than pass 1 did (a planned nonzero
    vector under the zero rule, or an independent one whose residual is at
    most ``DEP_TOL * max(1, ||f||)``), or fell back to routing.  Fields
    are 0.0 when the corresponding check had nothing to measure.  The exit
    code of ``framegs iterate`` reads none of this; ``verify`` judges it.
    """

    update_identity: float
    single_step_floor: float
    accumulated_floor: float
    shrink_ceiling: float
    tail_floor: float
    pattern_consistent: bool

    @property
    def max_violation(self) -> float:
        return max(
            self.update_identity,
            self.single_step_floor,
            self.accumulated_floor,
            self.shrink_ceiling,
            self.tail_floor,
        )


@dataclass(frozen=True)
class IterationTrace:
    """Record of a run G_0 -> G_1 -> ... -> G_M.

    ``norms`` has shape (M+1, n): row m holds the vector norms of G_m.
    ``snapshots`` maps iteration number to the frame at that point;
    0 and M are always present, intermediate iterations appear on the
    snapshot stride.  ``dependent_indices`` and ``input_zero_indices``
    are the dependent and zero steps of the first pass, kept for the
    export only: no verdict reads the routing.  ``step_traces`` and
    ``recurrences`` are present only when step tracing was requested:
    ``step_traces`` maps iteration number m >= 1 to the branch kind of
    each step of the pass that produced G_m: pass 1's kinds, which a
    replayed pass takes, or the kinds of a pass that fell back to routing,
    and ``recurrences`` reports the norm
    laws checked during the passes.
    """

    initial: FrameSeq
    norms: np.ndarray
    deltas: np.ndarray
    snapshots: dict[int, FrameSeq]
    step_traces: dict[int, tuple[str, ...]] | None
    recurrences: RecurrenceReport | None
    dependent_indices: tuple[int, ...]
    input_zero_indices: tuple[int, ...]
    iterations_run: int
    stationary: bool
    eps_delta: float

    @property
    def final(self) -> FrameSeq:
        return self.snapshots[self.iterations_run]


@dataclass(frozen=True)
class LimitReport:
    """Classification of an iteration endpoint as a zero-extended
    orthonormal basis.  ``near_onb`` means the surviving vectors are
    orthonormal within ``delta_onb``; it is an empirical statement about
    the final iterate only.  These fields are the ``limit_report`` of
    ``framegs iterate``."""

    near_onb: bool
    iterations_run: int
    zero_indices: tuple[int, ...]
    surviving_indices: tuple[int, ...]
    onb_residual: float
    prediction_match: bool
    delta_zero: float
    delta_onb: float


class _RecurrenceCheck:
    """The laws of :class:`RecurrenceReport`, checked while :func:`iterate`
    runs: the one observer of a traced run.  :meth:`start` gives the
    ``on_step`` hook of one pass.  The hook keeps the row norms of G as
    the steps leave them, measuring a row once each time a step changes
    it, and evaluates the update identity at each dependent step from
    those norms and the kernel's ``w``.  It also owns the replay's margin
    to routing: a planned nonzero step under the zero rule, or an
    independent one whose residual norm ``rn`` is at most ``DEP_TOL *
    max(1, ||f||)``, drifts; no routed pass can, so every pass is tested.
    :meth:`end` receives the kinds of the pass's steps and evaluates the
    floors and the ceiling from the norms before and after the pass.
    Only each law's running maximum and the drift outlive a pass; whether
    the replay fell back to routing is the caller's.

    Squares are ``x * x``, as ``ggs._shrink_factors`` squares ||f||.  The
    accumulated floor divides by 1 + x_r in the order of r, so its array
    evaluation has the bits of one row's at a time.  The hook keeps its
    pass's maximum of the update identity, and :meth:`end` folds it in: a
    replay that falls back to routing is started again and adds nothing.
    """

    def __init__(self):
        # update identity, single-step floor, accumulated floor, shrink ceiling, tail floor
        self.worst = np.full(5, -np.inf)   # -inf: nothing measured
        self.drift = False

    def start(self, prev_norms: np.ndarray):
        """The ``on_step`` hook of the pass whose input has row norms
        ``prev_norms``; a norm that is not finite raises, as in the zero rule."""
        zthresh = _zero_threshold(prev_norms)
        nfs = prev_norms.tolist()
        self.x = x = prev_norms * prev_norms
        self.after = after = []   # row k_l's norm after step k_{l+1}
        self.upd = -np.inf
        rows = np.zeros_like(prev_norms)   # the row norms of G as the steps left them
        last = None   # the row of the pass's latest dependent step

        def on_step(k, kind, G, w, rn):
            nonlocal last
            if kind == KIND_ZERO:
                return
            nf = nfs[k]
            if nf <= zthresh or rn is not None and rn <= DEP_TOL * max(1.0, nf):
                self.drift = True
            if kind != KIND_DEPENDENT:
                rows[k:k + 1] = _row_norms(G[k:k + 1])
                return
            new = _row_norms(G[:k + 1])   # the updated prefix and the new row
            if last is not None:
                after.append(new[last])
            last = k
            # hypot is the scalar abs() of each complex entry, which np.abs
            # can miss in the last bit; a real w squares as |w| does
            ia = np.hypot(w.real, w.imag) if w.dtype.kind == "c" else w
            nb, na = rows[:k], new[:k]
            err = np.abs(na * na - (nb * nb - ia * ia / (1.0 + x[k])))
            self.upd = err.max(initial=self.upd)
            rows[:k + 1] = new

        return on_step

    def end(self, cur_norms: np.ndarray, kinds: tuple[str, ...]):
        """Close the pass whose steps took branches ``kinds`` and whose
        output has row norms ``cur_norms``."""
        deps = np.array(steps_of(kinds), dtype=np.intp) - 1
        s = deps.size
        x, fin, after = self.x[deps], cur_norms[deps], np.array(self.after)
        fin *= fin
        floor = x / (1.0 + x)
        bound = floor.copy()
        for r in range(1, s):
            bound[:r] /= 1.0 + x[r]
        accum = bound - fin
        # single-step floor, accumulated floor, shrink ceiling, tail floor (l = s-1)
        laws = (floor[:-1] / (1.0 + x[1:]) - after * after, accum, fin - floor, accum[s - 2:s - 1])
        self.worst = np.maximum(self.worst,
                                [self.upd, *(law.max(initial=-np.inf) for law in laws)])

    def report(self, fell_back: bool) -> RecurrenceReport:
        upd, single, accum, ceil, tail = (0.0 if v == -np.inf else float(v) for v in self.worst)
        return RecurrenceReport(
            update_identity=upd,
            single_step_floor=single,
            accumulated_floor=accum,
            shrink_ceiling=ceil,
            tail_floor=tail,
            pattern_consistent=not (fell_back or self.drift),
        )


def iterate(
    frame: FrameSeq,
    max_iter: int = 1000,
    eps_delta: float = 1e-12,
    snapshot_stride: int = 1,
    trace_steps: bool = False,
) -> IterationTrace:
    """Apply the pass repeatedly, stopping at ``max_iter`` or as soon as
    the l2 distance between consecutive frames is at most ``eps_delta``.

    Norms are recorded every iteration; full snapshots every
    ``snapshot_stride`` iterations (plus iteration 0 and the final one).
    Snapshot 0 is ``frame`` itself; every later one adopts the pass's
    fresh output array (``FrameSeq._adopt``) rather than copying it, and
    the kernel only reads that array when it is the next pass's input.
    ``trace_steps`` additionally records the branch kinds of every pass
    and checks the norm laws of :class:`RecurrenceReport` as the passes
    run, with no per-step record kept.

    Pass 1 fixes the routing: which vectors are zero, independent and
    dependent.  Every later pass replays its kinds (``ggs._Plan``) rather
    than routing again, so it makes no zero-rule or threshold test and
    forms no residual for a dependent step.  A pass whose replay meets an
    independent residual that is 0 or not finite is routed instead, and
    so is every pass after it.  Only a traced run measures the replay's
    margin to routing, as ``pattern_consistent``, which the exit code of
    ``framegs iterate`` does not read; the rows are the same either way.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if snapshot_stride < 1:
        raise ValueError(f"snapshot_stride must be >= 1, got {snapshot_stride}")
    if not 0.0 <= eps_delta < math.inf:
        raise ValueError(f"eps_delta must be finite and >= 0, got {eps_delta}")

    norms = [frame.norms()]   # norms[-1] is also the next pass's input norms
    deltas: list[float] = []
    snapshots: dict[int, FrameSeq] = {0: frame}
    check = _RecurrenceCheck() if trace_steps else None
    step_traces: dict[int, tuple[str, ...]] | None = {} if trace_steps else None

    prev = frame.vectors
    plan = None   # pass 1's routing, which later passes replay until one falls back
    m = 0
    stationary = False
    # the pass and the distance raise on what overflows; see ggs._pass_array
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(1, max_iter + 1):
            try:
                on_step = check.start(norms[-1]) if check is not None else None
                cur, kinds = _pass_array(prev, on_step, norms[-1], plan)
                if cur is None:   # the replay met a residual it cannot divide by
                    plan = None
                    on_step = check.start(norms[-1]) if check is not None else None
                    cur, kinds = _pass_array(prev, on_step, norms[-1])
            except NonFiniteError as exc:
                raise NonFiniteError(f"iteration {m}: {exc}") from exc
            if m == 1:
                deps, zeros = steps_of(kinds), steps_of(kinds, KIND_ZERO)
                plan = _Plan(kinds, frame.dim)
            delta = _l2_norm(cur - prev)
            if not math.isfinite(delta):
                raise NonFiniteError(f"iteration {m}: non-finite state")
            norms.append(_row_norms(cur))
            if check is not None:
                check.end(norms[-1], kinds)
                step_traces[m] = kinds
            deltas.append(delta)
            if m % snapshot_stride == 0:
                snapshots[m] = FrameSeq._adopt(cur)
            prev = cur
            if delta <= eps_delta:
                stationary = True
                break
    if m not in snapshots:
        snapshots[m] = FrameSeq._adopt(prev)

    return IterationTrace(
        initial=frame,
        norms=np.asarray(norms),
        deltas=np.asarray(deltas),
        snapshots=snapshots,
        step_traces=step_traces,
        recurrences=check.report(plan is None) if check is not None else None,
        dependent_indices=deps,
        input_zero_indices=zeros,
        iterations_run=m,
        stationary=stationary,
        eps_delta=eps_delta,
    )


def closed_form_last_dependent(f, m: int) -> np.ndarray:
    """Predicted m-th iterate of the LAST dependent vector:
    f / sqrt(1 + m * ||f||^2).  Valid only at that index; earlier
    dependent vectors also receive corrections from later steps and do
    not follow this formula."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    arr = as_field_array(f, "f")
    with np.errstate(over="ignore"):   # a squared norm that overflows is refused below
        nf2 = float(np.linalg.norm(arr)) ** 2
    if not math.isfinite(nf2):
        raise NonFiniteError("f: squared norm is not finite")
    if nf2 == 0.0:
        raise ValueError("closed_form_last_dependent requires a nonzero vector")
    return arr / math.sqrt(1.0 + m * nf2)


def classify_limit(trace: IterationTrace, delta_zero: float | None = None) -> LimitReport:
    """Classify the final iterate as a zero-extended orthonormal basis.

    ``delta_zero`` defaults to 2/sqrt(M): the vanishing indices decay
    like 1/sqrt(m), so any iteration-count-blind threshold would
    misclassify at small M.  The default is capped at 1/2 because a run
    that goes stationary after very few iterations sits at a fixed point
    whose norms cluster at 0 and 1; without the cap every vector of an
    orthonormal input would count as zero.  ``prediction_match`` compares
    the observed zero set against every index but the input's span steps
    (``frames._span_steps``), which share nothing with the pass's routing.
    """
    M = trace.iterations_run
    if delta_zero is None:
        delta_zero = min(2.0 / math.sqrt(M), 0.5)
    elif not 0.0 <= delta_zero < math.inf:
        raise ValueError(f"delta_zero must be finite and >= 0, got {delta_zero}")
    steps = _span_steps(trace.initial)
    final = trace.final
    final_norms = trace.norms[M]
    zero_idx = tuple(int(i + 1) for i in np.flatnonzero(final_norms <= delta_zero))
    zero_set = set(zero_idx)
    surviving = tuple(k for k in range(1, final_norms.shape[0] + 1) if k not in zero_set)
    if surviving:
        Gs = final.vectors[[k - 1 for k in surviving]]
        gram = Gs @ Gs.conj().T
        onb_residual = float(np.max(np.abs(gram - np.eye(len(surviving)))))
        near_onb = onb_residual <= DELTA_ONB
    else:
        onb_residual = 0.0
        near_onb = not steps   # the empty set is a basis only of the zero span
    predicted = tuple(k for k in range(1, final_norms.shape[0] + 1) if k not in steps)
    return LimitReport(
        near_onb=near_onb,
        iterations_run=M,
        zero_indices=zero_idx,
        surviving_indices=surviving,
        onb_residual=onb_residual,
        prediction_match=zero_idx == predicted,
        delta_zero=delta_zero,
        delta_onb=DELTA_ONB,
    )


def _trace_document(trace: IterationTrace) -> dict:
    """The export of a run, with its norms, deltas and snapshots as
    float64 arrays (complex snapshots with a last axis of [re, im]
    pairs); :func:`trace_to_dict` is this with every array as a list."""
    initial = trace.initial
    return {
        "n_vectors": initial.n_vectors,
        "dim": initial.dim,
        "field": initial.field,
        "iterations_run": trace.iterations_run,
        "stationary": trace.stationary,
        "eps_delta": trace.eps_delta,
        "dep_tol": DEP_TOL,
        "dependent_indices": list(trace.dependent_indices),
        "input_zero_indices": list(trace.input_zero_indices),
        "deltas": trace.deltas,
        "norms": trace.norms,
        "snapshots": {
            str(m): _coordinates(trace.snapshots[m].vectors) for m in sorted(trace.snapshots)
        },
    }


def trace_to_dict(trace: IterationTrace) -> dict:
    """JSON-ready summary of a run: metadata, per-iteration norms and
    deltas, and the recorded snapshots keyed by iteration number."""
    doc = _trace_document(trace)
    doc["deltas"] = doc["deltas"].tolist()
    doc["norms"] = doc["norms"].tolist()
    doc["snapshots"] = {m: v.tolist() for m, v in doc["snapshots"].items()}
    return doc


def coordinate_rows(vectors: np.ndarray, norms, *lead) -> tuple[list[str], Iterator[list]]:
    """The CSV header ``vector_index, norm, coordinates...`` of ``vectors``
    and an iterator over one row per vector, ``[*lead, vector_index, norm,
    coordinates...]``.  Real vectors get coord_1..coord_d; complex ones get
    coord_j_re/coord_j_im pairs."""
    n, d = vectors.shape
    if np.iscomplexobj(vectors):
        cols = [f"coord_{j}_{part}" for j in range(1, d + 1) for part in ("re", "im")]
    else:
        cols = [f"coord_{j}" for j in range(1, d + 1)]
    coords = _coordinates(vectors).reshape(n, len(cols))
    rows = ([*lead, i + 1, x, *v.tolist()]
            for i, (x, v) in enumerate(zip(np.asarray(norms).tolist(), coords)))
    return ["vector_index", "norm", *cols], rows


def trace_csv_rows(trace: IterationTrace) -> tuple[list[str], Iterator[list]]:
    """Tabular view of a run: the header and an iterator over one row per
    (iteration, vector), each row built as it is read.

    Columns: iteration, vector_index, norm, then the coordinates of
    :func:`coordinate_rows`.  Coordinate cells are empty for iterations
    without a recorded snapshot.
    """
    header, _ = coordinate_rows(trace.snapshots[0].vectors, trace.norms[0])
    blank = [""] * (len(header) - 2)
    rows = (coordinate_rows(trace.snapshots[m].vectors, norms, m)[1] if m in trace.snapshots
            else ([m, i + 1, x, *blank] for i, x in enumerate(norms.tolist()))
            for m, norms in enumerate(trace.norms))
    return ["iteration", *header], itertools.chain.from_iterable(rows)
