"""One pass of the generalized Gram-Schmidt procedure.

The pass walks the input vectors in order.  A vector independent of its
predecessors is orthogonalized and normalized exactly as in classical
Gram-Schmidt.  A dependent vector f is not discarded: every previously
produced vector g_i receives the rank-one correction

    g_i  +=  (1/||f||^2) * (1/sqrt(1 + ||f||^2) - 1) * <g_i, f> * f

and f itself enters the output as f / sqrt(1 + ||f||^2).  Zero vectors
pass through as zero.  In exact arithmetic the output is always a
Parseval frame for the span of the input.  In floating point it can fail
to be: the routing is by a tolerance, and each residual is projected once
against a prefix that may be far from orthonormal, as it is in a pass over
a pass's own output.  ``frames.is_parseval(output, span=input)`` is the
check.

Inner products are linear in the first argument and conjugate-linear in
the second.
"""

import math

import numpy as np

from .errors import NonFiniteError
from .frames import DEP_TOL, FrameSeq, _zero_threshold
from .linalg import _row_norms

KIND_ZERO = "zero"
KIND_INDEPENDENT = "independent"
KIND_DEPENDENT = "dependent"


def _shrink_factors(nf: float) -> tuple[float, float]:
    """``(s, c)`` of a dependent step for a vector of norm ``nf``: the
    step appends ``s * f`` and maps every earlier row g to
    ``g + c * <g, f> * f``, with ``s = 1/sqrt(1 + nf^2)`` and
    ``c = (s - 1)/nf^2``, or its limit -1/2 where ``nf^2`` is 0: a replayed
    dependent step can meet a row that roundoff made zero, and the step
    is then the identity."""
    nf2 = nf * nf
    shrink = 1.0 / math.sqrt(1.0 + nf2)
    return shrink, (shrink - 1.0) / nf2 if nf2 else -0.5


def _apply_dependent_update(G: np.ndarray, k: int, f: np.ndarray, nf: float, w: np.ndarray,
                            buf: np.ndarray):
    """In-place dependent-branch update of rows G[:k] followed by the
    assignment of row k.  ``w[i] = <g_i, f>`` are the coefficients of the
    rows before the update; the caller has them from routing f.  ``buf``
    is scratch of at least k rows of G's width and type that takes the
    update's product, so that a pass allocates it once."""
    shrink, cfac = _shrink_factors(nf)
    # not np.multiply.outer, which rounds differently on complex (1, 1) operands
    G[:k] += np.multiply((cfac * w)[:, None], f, out=buf[:k])
    np.multiply(f, shrink, out=G[k])


_TAIL_BLOCK = 32   # tail steps per block of _tail_product; 16 and 64 time the same at d = 128


def _tail_product(G: np.ndarray, V: np.ndarray, head: np.ndarray, rows, tail: np.ndarray,
                  nfs: list[float]):
    """Write the pass's output for a tail of dependent steps into ``G``.

    Step k of ``tail`` maps every earlier row through the same
    contraction ``A_k = I + c_k f_k^H f_k`` (rows times matrices) and
    appends ``s_k f_k`` (:func:`_shrink_factors`).  So row k ends as
    ``s_k r_k`` with ``r_k = f_k M_k``, where M_k is the product of the
    contractions of the tail steps after k, and a head row as itself times
    the product M of all of them.  Every A_k is Hermitian with eigenvalues
    s_k and 1, so no M_k grows past norm 1.

    M is built backward, the product from step k on being
    ``A_k M_k = M_k + c_k f_k^H r_k``, in blocks of ``_TAIL_BLOCK`` steps
    (compact WY, Schreiber and Van Loan, SISC 1989).  Within a block,
    ``r_j = f_j M + sum_i c_i <f_j, f_i> r_i`` over the block's later
    steps i, with M the product after the block.  Each term has norm at
    most ``||f_j||``, so substituting backward through the block stays
    accurate.  The block then adds ``sum_i c_i f_i^H r_i`` to M.  A step
    costs O(d^2) instead of the O(k d) of updating every earlier row, and
    the arithmetic is matrix products.

    ``tail`` is the index array of the tail's steps.  ``head`` holds the
    rows before the tail, and ``rows`` indexes its nonzero ones: zero rows
    are left as they are in G, so they keep their exact +0.0.  ``nfs[k]``
    is the norm of ``V[k]``.  The first tail step whose squared norm
    overflows raises, before any arithmetic."""
    ks = tail.tolist()
    for k in ks:
        if not math.isfinite(nfs[k] * nfs[k]):
            raise NonFiniteError(f"step {k + 1}: squared norm overflows")
    is_complex = V.dtype.kind == "c"
    sc = np.array([_shrink_factors(nfs[k]) for k in ks])
    M = None   # the identity, until the block of the last steps is done
    for stop in range(len(tail), 0, -_TAIL_BLOCK):
        start = max(0, stop - _TAIL_BLOCK)
        steps = tail[start:stop]
        F = V[steps]
        Fh = F.conj().T if is_complex else F.T
        c = sc[start:stop, 1]
        R = F.copy() if M is None else F.dot(M)
        if len(steps) > 1:
            U = F.dot(Fh) * c   # U[j, i] = c_i <f_j, f_i>
            for j in range(len(steps) - 2, -1, -1):
                R[j] += U[j, j + 1:].dot(R[j + 1:])
        G[steps] = R * sc[start:stop, :1]
        W = (Fh * c).dot(R)
        if M is None:
            M = W
            M.ravel()[:: M.shape[0] + 1] += 1.0
        else:
            M += W
    G[rows] = head[rows].dot(M)


def _tail_of(kinds: tuple[str, ...], k0: int):
    """The index array of the nonzero steps of ``kinds`` from ``k0`` on,
    the tail of :func:`_tail_product`, and the index of the nonzero rows
    before ``k0``, which it maps."""
    tail = np.array([k for k in range(k0, len(kinds)) if kinds[k] != KIND_ZERO], dtype=np.intp)
    rows = (slice(k0) if KIND_ZERO not in kinds[:k0]
            else [k for k in range(k0) if kinds[k] != KIND_ZERO])
    return tail, rows


class _Plan:
    """The routing of one pass, for :func:`_pass_array` to replay on
    later passes: the ``kinds`` of its steps, and the ``tail`` and
    ``rows`` of :func:`_tail_of` at its first step after full rank.
    ``drift`` is set by a hooked replay whose margin fails."""

    __slots__ = ("kinds", "tail", "rows", "drift")

    def __init__(self, kinds: tuple[str, ...], d: int):
        indep = [k for k, kind in enumerate(kinds) if kind == KIND_INDEPENDENT]
        full = min(len(kinds), d)   # independent steps that reach full rank
        k0 = indep[full - 1] + 1 if len(indep) == full else len(kinds)
        self.kinds = kinds
        self.tail, self.rows = _tail_of(kinds, k0)
        self.drift = False


def _pass_array(
    V: np.ndarray, on_step=None, norms=None, plan=None
) -> tuple[np.ndarray, tuple[str, ...]]:
    """Array-level pass kernel.  Returns the output rows and the branch
    each step took, one of ``KIND_ZERO``, ``KIND_INDEPENDENT``,
    ``KIND_DEPENDENT`` per input vector, recorded as the step is routed:
    the one routing rule of the package, from which every dependent-index
    list is read (:func:`steps_of`).  A nonzero vector whose residual
    against the span of the previous outputs is at most ``DEP_TOL *
    max(1, ||f_k||)`` takes the dependent branch; at exactly the
    threshold the branch is dependent.  ``on_step(k, kind, G, w, before)``
    is called after each step k (0-based) when given; ``w``/``before`` are
    set only on dependent steps.  ``norms``, when given, must be the row
    norms of ``V`` as ``np.linalg.norm(V, axis=1)`` computes them; a
    caller that has them already saves the kernel recomputing them.

    Full rank.  After min(n, d) independent routes the outputs span the
    whole space, so every later nonzero vector is dependent without a
    residual test: its residual could only be roundoff.  These steps, the
    tail, form neither a residual nor its norm, and the pass computes
    them backward as one product of d x d contractions
    (:func:`_tail_product`), O(d^2) a step where updating every earlier
    row costs O(k d).  A tail step whose squared norm overflows raises
    before any of the tail's arithmetic, at the step where the update
    step by step would.

    Replay.  With ``plan``, a :class:`_Plan` of an earlier pass, the pass
    takes that pass's kinds instead of routing: zero steps write nothing,
    independent steps normalize their residual with no threshold test,
    dependent steps before full rank take the update with no residual, and
    the tail is the plan's.  The arithmetic of each branch is the routed
    one, so where routing would take the same branches the output, the
    returned kinds and every hook call are the routed pass's in every bit.
    A replayed independent residual that is 0 or not finite is never
    divided by: the kernel returns ``(None, None)``, and the caller routes
    the pass instead.  Only a hooked replay measures its margin to
    routing: a planned nonzero step under the zero rule, or an independent
    one whose residual is at most the routing threshold, sets
    ``plan.drift``.

    Hooks only observe.  With ``on_step`` given, the tail also runs step
    by step, with the residual skipped the same way, so that each call
    sees the rows, ``w`` and ``before`` of the single-step update; the
    returned rows are still the backward product, from a copy of the rows
    taken at full rank, so a hook moves no byte of the output.  The two
    agree to roundoff: no entry differs by more than n·eps/3 on the 728
    frames of the kernel's equivalence tests.  Before full rank, and on a
    frame without a nonzero tail step, the output is the step-by-step
    arithmetic in every bit, and zero rows stay +0.0 throughout.  A
    dependent step's ``before``, the row norms of the prefix before its
    update, is computed in the update's scratch, so a hooked step
    allocates no k x d temporary for it.

    The residual-norm finiteness check therefore runs only while
    independent routes remain.  After full rank it could not fire:

    * Every output row has norm at most 1.  Independent rows are
      normalized, and the dependent update only shrinks rows: row i
      keeps squared norm ``||g_i||^2 - |<g_i, f>|^2 / (1 + ||f||^2)``.
    * So, with finite input norms, ``|coeffs[j]| <= ||f||``; the
      residual, roundoff against ``||f||``, would have a finite norm; and
      each entry ``cfac * w[i] * f[j]`` of the update, with ``|cfac| <=
      1/||f||^2``, is bounded by 1.  The backward product is bounded the
      same way: each of its factors has norm 1.
    * An input whose squared norm overflows already stops at the
      input-norm check: entries s of 1e155 or 1e200 on the third vector
      of ``[[1e150, 0], [0, 1e150], [s, s]]`` raise ``step 3: input
      vector norm is not finite``, while s = 1e153 passes with that
      vector routed dependent after full rank.

    The ``nf * nf`` overflow check stays on every dependent step.

    Those checks raise :class:`NonFiniteError` on every overflow the
    pass can meet, but numpy warns first when a product or sum inside
    them overflows (a residual before full rank can outgrow ``||f||``
    when the prefix is not exactly orthonormal).  So :func:`ggs_pass` and
    :func:`~framegs.iteration.iterate` call the kernel under
    ``np.errstate(over="ignore", invalid="ignore")``, once per call
    rather than once per pass.

    Each step makes as few numpy calls as its field allows, and keeps the
    bits, signed zeros included, of the plain expressions
    ``prefix.conj() @ f``, ``coeffs @ prefix`` and ``np.linalg.norm(g)``:

    * Real frames route with ``ndarray.dot``.  On float64 it gives the
      bits of ``@`` at about half the call cost on small arrays (0.86 µs
      against 1.57 µs on a 9x5 prefix; 0 of 4000 random prefixes of up to
      40x64 differed).  The one exception is the sign of an exact zero at
      shape (1, 1), which here arises only for d = 1 against a zero first
      row, where ``f - coeffs.dot(prefix)`` is f either way.
    * Complex frames keep ``@``: ``dot`` differs from it in the last bit
      on complex128 (32 of 2000 random prefixes).  They also keep the
      conjugate copy of the prefix.  The shortcut ``(prefix @
      f.conj()).conj()`` has the same values but not the same signed zeros
      (949 of 2000 integer-valued prefixes differ), and exports print
      ``-0.0``.  A conjugate twin of G kept in step with it would have to
      be rewritten after every dependent update, which on these frames is
      most steps, and measured no faster than the copy.
    * The residual norm is the square root of the dot products of the
      real and imaginary parts, the arithmetic ``np.linalg.norm`` uses
      for a vector, without its per-call overhead.
    """
    n, d = V.shape
    G = np.zeros(V.shape, V.dtype)
    is_complex = V.dtype.kind == "c"
    if norms is None:
        with np.errstate(over="ignore"):  # _zero_threshold raises on overflow
            norms = _row_norms(V)
    nfs = norms.tolist()
    route = None if plan is None else plan.kinds
    if route is None or on_step is not None:   # a replay reads the zero rule as a margin only
        zthresh = _zero_threshold(norms)
    free = min(n, d)   # independent routes left
    k0 = n             # the first step after full rank
    buf = head = None  # update scratch; G[:k0] at full rank, kept when hooked
    kinds = []
    for k, nf in enumerate(nfs):
        if route is None:   # None: the residual decides
            kind = KIND_ZERO if nf <= zthresh else None if free else KIND_DEPENDENT
        else:
            kind = route[k]
            if on_step is not None and kind != KIND_ZERO and nf <= zthresh:
                plan.drift = True
        if kind == KIND_ZERO:
            kinds.append(KIND_ZERO)
            if on_step is not None:
                on_step(k, KIND_ZERO, G, None, None)
            continue
        f = V[k]
        prefix = G[:k]
        coeffs = prefix.conj() @ f if is_complex else prefix.dot(f)   # coeffs[j] = <f, g_j>
        if kind != KIND_DEPENDENT:
            if is_complex:
                g = f - coeffs @ prefix
                gr, gi = g.real, g.imag
                rn = math.sqrt(gr.dot(gr) + gi.dot(gi))
            else:
                g = f - coeffs.dot(prefix)
                rn = math.sqrt(g.dot(g))
            if kind is None:
                if not math.isfinite(rn):
                    raise NonFiniteError(f"step {k + 1}: residual norm is not finite")
                kind = KIND_INDEPENDENT if rn > DEP_TOL * max(1.0, nf) else KIND_DEPENDENT
            elif not 0.0 < rn < math.inf:
                return None, None   # nothing divided: the caller routes this pass
            elif on_step is not None and rn <= DEP_TOL * max(1.0, nf):
                plan.drift = True
            if kind == KIND_INDEPENDENT:
                free -= 1
                np.divide(g, rn, out=G[k])
                kinds.append(KIND_INDEPENDENT)
                if not free:
                    k0 = k + 1
                    if on_step is None:
                        break
                    head = G[:k0].copy()
                if on_step is not None:
                    on_step(k, KIND_INDEPENDENT, G, None, None)
                continue
        if not math.isfinite(nf * nf):
            raise NonFiniteError(f"step {k + 1}: squared norm overflows")
        if buf is None:
            buf = np.empty_like(G)
        before = _row_norms(prefix, buf[:k]) if on_step is not None else None
        w = coeffs.conj() if is_complex else coeffs   # w[i] = <g_i, f>
        _apply_dependent_update(G, k, f, nf, w, buf)
        kinds.append(KIND_DEPENDENT)
        if on_step is not None:
            on_step(k, KIND_DEPENDENT, G, w, before)
    if route is None:
        if on_step is None:
            kinds.extend(KIND_DEPENDENT if nf > zthresh else KIND_ZERO for nf in nfs[k0:])
        kinds = tuple(kinds)
        tail, rows = _tail_of(kinds, k0)
    else:
        kinds, tail, rows = route, plan.tail, plan.rows
    if tail.size:
        _tail_product(G, V, G[:k0] if head is None else head, rows, tail, nfs)
    return G, kinds


def steps_of(kinds: tuple[str, ...], kind: str = KIND_DEPENDENT) -> tuple[int, ...]:
    """1-based indices of the steps of ``kinds`` that took branch ``kind``."""
    return tuple(k for k, got in enumerate(kinds, 1) if got == kind)


def ggs_pass(frame: FrameSeq) -> tuple[FrameSeq, tuple[str, ...]]:
    """Run one full pass over ``frame``, routed as :func:`_pass_array`
    says.

    Parameters
    ----------
    frame : FrameSeq
        Input vectors, processed in order.

    Returns
    -------
    (FrameSeq, tuple[str, ...])
        The output frame (same shape and field as the input) and the
        branch each input vector took: one of ``KIND_ZERO``,
        ``KIND_INDEPENDENT``, ``KIND_DEPENDENT`` per step.  The frame
        adopts the kernel's fresh output array (``FrameSeq._adopt``)
        rather than copying it.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # see _pass_array
        G, kinds = _pass_array(frame.vectors)
    return FrameSeq._adopt(G), kinds
