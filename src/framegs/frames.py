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
citizens.  Every span is taken at ``DEP_TOL``; which vectors are
dependent is decided by the routing of the pass (``dependency_profile``).
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError, NonFiniteError
from .linalg import _l2_norm, _row_norms, as_field_array, hermitian_eigen

DEP_TOL = 1e-10       # relative residual below which a vector counts as dependent
ZERO_REL_TOL = 1e-12  # relative norm below which a vector counts as zero
PARSEVAL_TOL = 1e-10  # Frobenius distance within which is_parseval holds


@dataclass(frozen=True, eq=False)
class FrameSeq:
    """Ordered sequence of n vectors of dimension d, stored as the rows of
    an immutable (n, d) array."""

    vectors: np.ndarray

    def __post_init__(self):
        arr = as_field_array(self.vectors, "vectors")
        if arr.ndim != 2:
            raise DimensionMismatchError(
                f"vectors: expected a 2-d array of shape (n, dim), got shape {arr.shape}"
            )
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise DimensionMismatchError(f"vectors: empty axis in shape {arr.shape}")
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
        """Parse the frame JSON schema: keys dim, field, vectors."""
        try:
            dim = int(data["dim"])
            field = data["field"]
            raw = data["vectors"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"frame dict missing or malformed key: {exc}") from exc
        if field == "complex":
            rows = []
            try:
                for row in raw:
                    rows.append([complex(re, im) for re, im in row])
            except (TypeError, ValueError) as exc:
                raise ValueError(
                    f"vectors row {len(rows) + 1}: complex entries must be [re, im] pairs"
                ) from exc
            arr = np.asarray(rows, dtype=np.complex128)
        elif field == "real":
            arr = np.asarray(raw, dtype=np.float64)
        else:
            raise ValueError(f"unknown field {field!r}; expected 'real' or 'complex'")
        if arr.ndim != 2 or arr.shape[1] != dim:
            raise ValueError(
                f"vectors shape {arr.shape} inconsistent with dim={dim}"
            )
        return cls(arr)


def _coordinates(vectors: np.ndarray) -> np.ndarray:
    """The rows as a float64 array: ``vectors`` itself when real, with a
    last axis of [re, im] pairs when complex."""
    if np.iscomplexobj(vectors):
        return np.stack([vectors.real, vectors.imag], axis=-1)
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


def _check_member(frame: FrameSeq, f, name="f"):
    """Validate a vector against a frame's dimension and field; a real
    vector may enter a complex frame's space."""
    arr = as_field_array(f, name)
    if arr.ndim != 1 or arr.shape[0] != frame.dim:
        raise DimensionMismatchError(
            f"{name}: expected shape ({frame.dim},), got {arr.shape}"
        )
    if frame.field == "complex":
        arr = arr.astype(np.complex128, copy=False)
    elif np.iscomplexobj(arr):
        raise DimensionMismatchError(f"{name}: complex vector against a real frame")
    return arr


def frame_operator(frame: FrameSeq) -> np.ndarray:
    """The positive operator S = sum_i f_i f_i* as a (d, d) matrix."""
    V = frame.vectors
    return V.T @ V.conj()


def frame_bounds(frame: FrameSeq) -> FrameBounds:
    """Optimal bounds (A, B): smallest and largest eigenvalue of the frame
    operator.  A == 0 signals a sequence that does not span the ambient
    space."""
    with np.errstate(over="ignore", invalid="ignore"):  # hermitian_eigen rejects inf and NaN
        S = frame_operator(frame)
    w, _ = hermitian_eigen(S)
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


def _span_basis(V: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the row span of ``V``, as the rows of Q.

    Sequential Gram-Schmidt: a nonzero row joins the basis when its
    residual against the basis so far exceeds ``DEP_TOL * max(1, ||v||)``.
    One re-orthogonalization pass keeps Q orthonormal to roundoff.  The
    walk stops once the rank reaches min(n, d), so a later row, whose
    residual could only be roundoff, never asks for one basis vector too
    many.  This is the span, not the routing of a pass:
    :func:`dependency_profile` reads that from the pass itself.
    """
    n, d = V.shape
    with np.errstate(over="ignore"):
        norms = _row_norms(V)
    zthresh = _zero_threshold(norms)
    full = min(n, d)
    Q = np.zeros((full, d), dtype=V.dtype)
    is_complex = V.dtype.kind == "c"
    rank = 0
    for k, nf in enumerate(norms.tolist()):
        if rank == full:
            break
        if nf <= zthresh:
            continue
        r = V[k]
        if rank:
            B = Q[:rank]
            Bc = B.conj()   # B itself when real
            for _ in range(2):   # project out span(Q) twice
                r = r - ((Bc @ r) @ B if is_complex else Bc.dot(r).dot(B))
        rn = _l2_norm(r)
        if rn <= DEP_TOL * max(1.0, nf):
            continue
        np.divide(r, rn, out=Q[rank])
        rank += 1
    return Q[:rank]


def dependency_profile(frame: FrameSeq) -> tuple[int, ...]:
    """1-based indices of the dependent steps of one pass over ``frame``:
    the nonzero vectors the pass routes to its dependent branch.  Zero
    vectors are not dependent; query them with :func:`zero_indices`."""
    from .ggs import ggs_pass, steps_of   # ggs imports this module

    _, kinds = ggs_pass(frame)
    return steps_of(kinds)


def span_projection(frame: FrameSeq) -> np.ndarray:
    """Orthogonal projection onto the span of the frame, taken at
    ``DEP_TOL``, as a (d, d) matrix."""
    Q = _span_basis(frame.vectors)
    return Q.T @ Q.conj()


def is_parseval(frame: FrameSeq, span: FrameSeq | None = None) -> ParsevalCheck:
    """Whether the frame operator of ``frame`` lies within Frobenius
    distance ``PARSEVAL_TOL`` of the projection onto the span of
    ``span``, by default ``frame`` itself, which suits an arbitrary frame.
    A pass output G is judged with ``span=F``, its input: one pass makes
    G a Parseval frame for span(F), however far it shrank G's rows.
    """
    span = frame if span is None else span
    if span.dim != frame.dim:
        raise DimensionMismatchError(f"span has dimension {span.dim}, frame has {frame.dim}")
    S = frame_operator(frame)
    P = span_projection(span)
    residual = float(np.linalg.norm(S - P))
    return ParsevalCheck(ok=residual <= PARSEVAL_TOL, residual=residual)


def canonical_parseval(frame: FrameSeq) -> FrameSeq:
    """Map each vector through the inverse square root of the frame
    operator, yielding a Parseval frame with order preserved and zero
    vectors kept at zero.  The operator is inverted on the span of the
    frame, taken at ``DEP_TOL``, so non-spanning inputs work.

    With ``coords = U diag(s) Wh`` the SVD of the span coordinates, the
    result is their polar factor ``coords Wh* diag(1/s) Wh = U Wh``.
    ``coords`` has full column rank by construction, so every ``s`` is
    kept; the first form maps a zero row to an exact zero.
    """
    V = frame.vectors
    Q = _span_basis(V)
    if Q.shape[0] == 0:
        return FrameSeq(V)  # all-zero sequence maps to itself
    coords = V @ Q.conj().T                  # (n, rank)
    _, s, Wh = np.linalg.svd(coords, full_matrices=False)
    return FrameSeq((coords @ ((Wh.conj().T / s) @ Wh)) @ Q)


def reconstruct(frame: FrameSeq, f) -> np.ndarray:
    """Analysis-then-synthesis sum ``sum_i <f, f_i> f_i``, i.e. the frame
    operator applied to ``f``.  Recovers ``f`` itself exactly when the
    frame is Parseval for a space containing ``f``."""
    arr = _check_member(frame, f)
    return frame_operator(frame) @ arr


def l2_distance(a: FrameSeq, b: FrameSeq) -> float:
    """Distance sqrt(sum_i ||a_i - b_i||^2) between two equal-shape frame
    sequences."""
    if a.vectors.shape != b.vectors.shape:
        raise DimensionMismatchError(
            f"frame shapes differ: {a.vectors.shape} vs {b.vectors.shape}"
        )
    return float(np.linalg.norm(a.vectors - b.vectors))
