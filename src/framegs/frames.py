"""Frame sequences and frame-theoretic operations.

A :class:`FrameSeq` is an ordered, immutable sequence of equal-dimension
vectors over one scalar field.  Order matters everywhere in this package:
the generalized Gram-Schmidt pass processes vectors strictly in sequence,
so no operation here ever reorders.

The span-sensitive operations (``span_projection``, ``is_parseval``,
``canonical_parseval``) are *span-relative*: a frame is Parseval when its
frame operator is the projection onto a span (its own, or with
``is_parseval(G, span=F)`` that of a pass's input F), not the ambient
identity, so inputs that do not span the ambient space are first-class
citizens.  Every span is the SVD span of the unit-normalized nonzero
rows at ``DEP_TOL``: it shares no rule with the routing of the pass
(``dependency_profile``), so a misrouted pass fails ``is_parseval``.

A frame whose operator S passes a Cholesky certificate spans the whole
space, and its span basis is the identity with no factorization of the
rows: n >= d, tr(S) finite and above ``tiny / eps``, and
``cholesky(S - tau tr(S) I)`` succeeding with tau = 1e-6.  Then the
unit rows U have sigma_min(U) / sigma_max(U) >= ~sqrt(tau / n), far
above ``DEP_TOL``, so the SVD cut would keep all d directions too.
Every other frame takes the R-SVD (see ``_span_basis``).
"""

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError, NonFiniteError
from .linalg import _l2_norm, _row_norms, as_field_array, hermitian_eigen

DEP_TOL = 1e-10       # relative residual below which a vector counts as dependent
ZERO_REL_TOL = 1e-12  # relative norm below which a vector counts as zero
PARSEVAL_TOL = 1e-10  # Frobenius distance within which is_parseval holds
_TRACE_FLOOR = 2.0 ** -970  # tiny / eps, about 1e-292: see _span_basis


@dataclass(frozen=True, eq=False)
class FrameSeq:
    """Ordered sequence of n vectors of dimension d, stored as the rows of
    an immutable (n, d) array.

    The constructor copies the array it is given, so a caller's later
    writes never reach the frame.  The frames the package makes from an
    array no other code holds (the output of ``ggs_pass``, the snapshots
    of ``iterate`` after the input, the canonical frame) adopt it instead,
    through :meth:`_adopt`."""

    vectors: np.ndarray

    def __post_init__(self):
        self._seal(self.vectors, copy=True)

    @classmethod
    def _adopt(cls, arr: np.ndarray) -> "FrameSeq":
        """A frame over ``arr`` itself: the constructor's checks, then
        ``arr`` made read-only, with no copy.  Only for an array to which
        no other code keeps a writable reference."""
        frame = object.__new__(cls)
        frame._seal(arr, copy=False)
        return frame

    def _seal(self, arr, copy: bool):
        arr = as_field_array(arr, "vectors")
        if arr.ndim != 2:
            raise DimensionMismatchError(
                f"vectors: expected a 2-d array of shape (n, dim), got shape {arr.shape}"
            )
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise DimensionMismatchError(f"vectors: empty axis in shape {arr.shape}")
        if copy:
            arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "vectors", arr)

    @property
    def n_vectors(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def field(self) -> str:
        return "complex" if np.iscomplexobj(self.vectors) else "real"

    def __len__(self) -> int:
        return self.n_vectors

    def __getitem__(self, i: int) -> np.ndarray:
        return self.vectors[i].copy()

    def __repr__(self) -> str:
        return f"FrameSeq(n={self.n_vectors}, dim={self.dim}, field='{self.field}')"

    def norms(self) -> np.ndarray:
        with np.errstate(over="ignore"):  # huge rows report inf, callers check
            return _row_norms(self.vectors)

    def to_dict(self) -> dict:
        """JSON-ready dict of Python floats; complex entries become
        [re, im] pairs."""
        return {"dim": self.dim, "field": self.field, "vectors": _coordinates(self.vectors).tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "FrameSeq":
        """Parse the frame JSON schema: keys dim (an integer), field and
        vectors, the inverse of :meth:`to_dict`."""
        try:
            dim, field, raw = data["dim"], data["field"], data["vectors"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"frame dict missing or malformed key: {exc}") from exc
        if type(dim) is not int:
            raise ValueError(f"dim must be an integer, got {dim!r}")
        if field not in ("real", "complex"):
            raise ValueError(f"unknown field {field!r}; expected 'real' or 'complex'")
        try:
            arr = np.asarray(raw)
        except (TypeError, ValueError) as exc:   # ragged
            raise ValueError(f"vectors: {exc}") from exc
        if arr.dtype.kind not in "iuf":   # a string, boolean, null or past-uint64 integer leaf
            raise ValueError(f"vectors: expected JSON numbers, got {arr.dtype} entries")
        shape = (dim, 2) if field == "complex" else (dim,)
        if arr.shape[1:] != shape:
            raise ValueError(f"vectors shape {arr.shape} inconsistent with dim={dim} "
                             f"and field={field!r}")
        leaves = raw
        for _ in range(arr.ndim - 1):
            leaves = itertools.chain.from_iterable(leaves)
        if bool in set(map(type, leaves)):   # numpy reads true and false among numbers as 1 and 0
            raise ValueError("vectors: expected JSON numbers, got a boolean entry")
        if field == "complex":
            arr = arr.astype(np.float64).view(np.complex128)[..., 0]   # [re, im] pairs, signed zeros kept
        return cls(arr)


def _coordinates(vectors: np.ndarray) -> np.ndarray:
    """The rows as a float64 array: ``vectors`` itself when real, and when
    complex a view of its bits with a last axis of [re, im] pairs (of a
    C-ordered copy if ``vectors`` is not C-contiguous), signed zeros kept."""
    if np.iscomplexobj(vectors):
        return np.ascontiguousarray(vectors).view(np.float64).reshape(*vectors.shape, 2)
    return vectors


class FrameBounds(NamedTuple):
    """Optimal frame bounds: extreme eigenvalues of the frame operator."""

    lower: float
    upper: float


@dataclass(frozen=True)
class ParsevalCheck:
    ok: bool
    residual: float

    def __bool__(self) -> bool:
        return self.ok


def frame_operator(frame: FrameSeq) -> np.ndarray:
    """The positive operator S = sum_i f_i f_i* as a (d, d) matrix."""
    V = frame.vectors
    return V.T @ V.conj()


def _quiet_operator(frame: FrameSeq) -> np.ndarray:
    """:func:`frame_operator` without a numpy warning: an entry that
    overflows reads inf or NaN, and each caller checks."""
    with np.errstate(over="ignore", invalid="ignore"):
        return frame_operator(frame)


def frame_bounds(frame: FrameSeq) -> FrameBounds:
    """Optimal bounds (A, B): smallest and largest eigenvalue of the frame
    operator.  A == 0 signals a sequence that does not span the ambient
    space."""
    w = hermitian_eigen(_quiet_operator(frame))   # rejects inf and NaN
    return FrameBounds(lower=max(float(w[0]), 0.0), upper=float(w[-1]))


def _zero_threshold(norms: np.ndarray) -> float:
    """The zero rule of the package: a vector whose norm is at most the
    returned value, ``ZERO_REL_TOL`` times the largest of the row norms
    ``norms`` (or times 1 when every vector vanishes), counts as zero.
    A norm that is not finite, as when its square overflows, raises
    :class:`NonFiniteError` naming the first such vector."""
    scale = float(norms.max())
    if not math.isfinite(scale):
        bad = int(np.flatnonzero(~np.isfinite(norms))[0]) + 1
        raise NonFiniteError(f"step {bad}: input vector norm is not finite")
    return ZERO_REL_TOL * (scale if scale > 0.0 else 1.0)


def zero_indices(frame: FrameSeq) -> tuple[int, ...]:
    """1-based indices of the vectors that count as zero: norm at most
    ``ZERO_REL_TOL`` times the largest vector norm in the sequence (or
    times 1 when all vectors vanish)."""
    norms = frame.norms()
    return tuple(int(i + 1) for i in np.flatnonzero(norms <= _zero_threshold(norms)))


def _unit_rows(frame: FrameSeq) -> tuple[np.ndarray, np.ndarray]:
    """The mask of the rows that the zero rule keeps, and those rows at unit norm."""
    norms = frame.norms()
    if not norms.all():   # a nonzero row whose square underflows: re-measure it scaled
        scale = np.abs(frame.vectors).max(axis=1)
        lost = (norms == 0.0) & (scale > 0.0)
        norms[lost] = scale[lost] * _row_norms(frame.vectors[lost] / scale[lost, None])
    keep = norms > _zero_threshold(norms)
    U = frame.vectors[keep]           # the one n x d working copy
    U /= norms[keep, None]
    return keep, U


def _r_svd(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The singular values and right singular vectors ``(s, Wh)`` of ``A``
    from an SVD of its R factor, an R-SVD (Golub & Van Loan, 8.6): no
    left singular vectors of A are formed."""
    _, s, Wh = np.linalg.svd(np.linalg.qr(A, mode="r"), full_matrices=False)
    return s, Wh


def _svd_span(U: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the unit rows ``U``, cut at ``s > DEP_TOL * s[0]``
    and not by the pass's routing."""
    s, Wh = _r_svd(U)
    return Wh[s > DEP_TOL * s[:1]]    # s[:1] is empty when every row is zero


def _span_basis(frame: FrameSeq, S: np.ndarray | None = None) -> np.ndarray:
    """Orthonormal basis of the span of ``frame``, as the rows of Q: the
    d x d identity when the frame operator ``S`` (formed here unless given)
    certifies a full span, else the R-SVD span of the unit rows.

    The certificate needs n >= d, a finite S, tr(S) above ``tiny / eps``
    and a floating-point Cholesky of ``S - tau tr(S) I`` that succeeds,
    with tau = 1e-6.  Its success proves lambda_min(S) >= ~tau tr(S)
    (Demmel, LAPACK WN 14, 1989; Rump, BIT 2006): the factorization and
    the product forming S err by about (n + d) eps tr(S), negligible for
    n + d well below tau / eps.  Above the floor, products that underflow
    lose at most n d eps^2 tr(S) / 2.  Dropping the rows that the zero
    rule removes lowers lambda_min by at most n 1e-24 tr(S).  Dividing
    each row by its norm, at most sqrt(tr(S)), gives unit rows U with
    sigma_min(U)^2 >= tau and sigma_max(U)^2 <= n, so
    sigma_min(U) / sigma_max(U) >= ~sqrt(tau / n), above ``DEP_TOL`` for
    every n below 1e14: the cut at ``DEP_TOL * s[0]`` would keep all d
    directions.  Every other frame (n < d, rank-deficient, condition
    number above ~1e3, an operator that overflows or underflows) takes
    the R-SVD with the same bits as without the certificate.
    """
    n, d = frame.vectors.shape
    if n >= d:
        if S is None:
            S = _quiet_operator(frame)
        with np.errstate(over="ignore", invalid="ignore"):
            t = float(np.trace(S).real)
        if _TRACE_FLOOR < t < math.inf and np.isfinite(S).all():
            try:
                np.linalg.cholesky(S - (1e-6 * t) * np.eye(d))
                return np.eye(d, dtype=frame.vectors.dtype)
            except np.linalg.LinAlgError:
                pass
    return _svd_span(_unit_rows(frame)[1])


def _span_steps(frame: FrameSeq) -> tuple[int, ...]:
    """1-based steps at which the SVD span of the prefix's unit rows grows, re-cut
    after each unit row that lies farther than ``DEP_TOL`` from the span before it."""
    keep, U = _unit_rows(frame)
    steps, Q = [], U[:0]
    for j, k in enumerate(np.flatnonzero(keep).tolist()):
        if _l2_norm(U[j] - (Q.conj() @ U[j]) @ Q) > DEP_TOL:
            Qn = _svd_span(U[: j + 1])
            if len(Qn) > len(Q):   # the cut, relative to s[0], may keep the span as it was
                steps.append(k + 1)
            Q = Qn
    return tuple(steps)


def dependency_profile(frame: FrameSeq) -> tuple[int, ...]:
    """1-based indices of the dependent steps of one pass over ``frame``:
    the nonzero vectors the pass routes to its dependent branch.  Zero
    vectors are not dependent; query them with :func:`zero_indices`."""
    from .ggs import ggs_pass, steps_of   # ggs imports this module

    _, kinds = ggs_pass(frame)
    return steps_of(kinds)


def span_projection(frame: FrameSeq) -> np.ndarray:
    """Orthogonal projection onto the span of the frame, the SVD span of
    its unit rows at ``DEP_TOL``, as a (d, d) matrix."""
    Q = _span_basis(frame)
    return Q.T @ Q.conj()


def is_parseval(frame: FrameSeq, span: FrameSeq | None = None) -> ParsevalCheck:
    """Whether the frame operator of ``frame`` lies within Frobenius
    distance ``PARSEVAL_TOL`` of the projection onto the span of
    ``span``, by default ``frame`` itself, which suits an arbitrary frame.
    A pass output G is judged with ``span=F``, its input: one pass makes
    G a Parseval frame for span(F), however far it shrank G's rows.  A
    frame operator that overflows raises :class:`NonFiniteError`.
    """
    span = frame if span is None else span
    if span.dim != frame.dim:
        raise DimensionMismatchError(f"span has dimension {span.dim}, frame has {frame.dim}")
    S = _quiet_operator(frame)
    if not np.isfinite(S).all():
        raise NonFiniteError("frame operator is not finite")
    Q = _span_basis(span, S if span is frame else None)
    residual = float(np.linalg.norm(S - Q.T @ Q.conj()))
    return ParsevalCheck(ok=residual <= PARSEVAL_TOL, residual=residual)


def canonical_parseval(frame: FrameSeq) -> FrameSeq:
    """Map each vector through the inverse square root of the frame
    operator, yielding a Parseval frame with order preserved and zero
    vectors kept at zero.  The operator is inverted on the span of the
    frame, the SVD span of its unit rows at ``DEP_TOL``, so non-spanning
    inputs work.

    With ``coords = U diag(s) Wh`` the SVD of the span coordinates
    ``V Q*``, Q the span basis, the result is their polar factor
    ``coords Wh* diag(1/s) Wh = U Wh``, mapped back by Q.  ``s`` and
    ``Wh`` come from the R factor of ``coords`` (an R-SVD), so U is never
    formed.  ``coords`` has full column rank by construction, so every
    ``s`` is kept; the first form maps a zero row to an exact zero.  When
    the span is the whole space, Q is square and unitary, and
    ``polar(V Q*) Q = polar(V)``: the polar factor of V is taken
    directly, with no product with Q.  The result adopts its fresh array
    (``FrameSeq._adopt``).
    """
    V = frame.vectors
    Q = _span_basis(frame)
    rank, d = Q.shape
    if rank == 0:
        return FrameSeq(V)  # all-zero sequence maps to itself
    coords = V if rank == d else V @ Q.conj().T   # (n, rank)
    s, Wh = _r_svd(coords)
    P = coords @ ((Wh.conj().T / s) @ Wh)
    return FrameSeq._adopt(P if rank == d else P @ Q)


def l2_distance(a: FrameSeq, b: FrameSeq) -> float:
    """Distance sqrt(sum_i ||a_i - b_i||^2) between two equal-shape frame
    sequences."""
    if a.vectors.shape != b.vectors.shape:
        raise DimensionMismatchError(
            f"frame shapes differ: {a.vectors.shape} vs {b.vectors.shape}"
        )
    return float(np.linalg.norm(a.vectors - b.vectors))
