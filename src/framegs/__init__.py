"""Parseval frames via a generalized Gram-Schmidt pass, and the
fixed-point iteration that drives any frame toward a zero-extended
orthonormal basis."""

from .errors import (
    DimensionMismatchError,
    FrameError,
    JacobiConvergenceError,
    NonFiniteError,
)
from .frames import (
    DEP_TOL,
    ZERO_REL_TOL,
    FrameBounds,
    FrameSeq,
    ParsevalCheck,
    canonical_parseval,
    dependency_profile,
    frame_bounds,
    frame_operator,
    is_parseval,
    l2_distance,
    span_projection,
    zero_indices,
)
from .generate import (
    EXAMPLE_NAMES,
    example_frame,
    random_frame,
    random_frame_corpus,
    random_onb_frame,
)
from .ggs import (
    KIND_DEPENDENT,
    KIND_INDEPENDENT,
    KIND_ZERO,
    ggs_pass,
)
from .iteration import (
    IterationTrace,
    LimitReport,
    RecurrenceReport,
    classify_limit,
    closed_form_last_dependent,
    iterate,
    trace_csv_rows,
    trace_to_dict,
)

__version__ = "0.1.0"

__all__ = [
    "DEP_TOL",
    "ZERO_REL_TOL",
    "EXAMPLE_NAMES",
    "KIND_DEPENDENT",
    "KIND_INDEPENDENT",
    "KIND_ZERO",
    "DimensionMismatchError",
    "FrameBounds",
    "FrameError",
    "FrameSeq",
    "IterationTrace",
    "JacobiConvergenceError",
    "LimitReport",
    "NonFiniteError",
    "ParsevalCheck",
    "RecurrenceReport",
    "canonical_parseval",
    "classify_limit",
    "closed_form_last_dependent",
    "dependency_profile",
    "example_frame",
    "frame_bounds",
    "frame_operator",
    "ggs_pass",
    "is_parseval",
    "iterate",
    "l2_distance",
    "random_frame",
    "random_frame_corpus",
    "random_onb_frame",
    "span_projection",
    "trace_csv_rows",
    "trace_to_dict",
    "zero_indices",
]
