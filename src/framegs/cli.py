"""Command-line front end.

Subcommands:
  run      apply one pass and judge its output against the input's span
  iterate  drive the pass to (empirical) stationarity and classify the limit
  verify   run the seeded verification battery

Frames are read from JSON files with keys ``dim``, ``field`` ("real" or
"complex") and ``vectors`` (rows; complex entries as [re, im] pairs), or
constructed from the builtin examples fig1, fig2, fig3.

Exit codes: 0 success, 1 verification failure, 2 input error, 141 stdout closed.
"""

import argparse
import contextlib
import csv
import dataclasses
import functools
import json
import os
import shutil
import sys

import numpy as np

from .errors import FrameError
from .frames import DEP_TOL, FrameSeq, _coordinates, frame_bounds, is_parseval
from .generate import EXAMPLE_NAMES, example_frame
from .ggs import KIND_ZERO, ggs_pass, steps_of
from .iteration import (
    _trace_document,
    classify_limit,
    coordinate_rows,
    iterate,
    trace_csv_rows,
)
from .verify import run_battery

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_BROKEN_PIPE = 141   # 128 + SIGPIPE, as a shell reports a process killed by a closed pipe


class InputError(Exception):
    """User-facing input problem; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    """Argument parser whose errors take one stderr line, ``error:
    <message>``, and exit code 2, without the usage block; the subcommand
    parsers are of the same class."""

    def error(self, message):
        self.exit(EXIT_INPUT_ERROR, f"error: {message}\n")


def _add_input_args(sub):
    grp = sub.add_mutually_exclusive_group(required=True)
    grp.add_argument("--input", metavar="PATH", help="frame JSON file")
    grp.add_argument("--example", choices=EXAMPLE_NAMES, help="builtin example frame")


def _add_output_args(sub):
    sub.add_argument("--output", metavar="PATH", help="write result here (default: stdout)")
    sub.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="framegs",
        description="Parseval frames via a generalized Gram-Schmidt pass.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="apply one pass and verify the output")
    _add_input_args(run)
    run.add_argument("--trace", choices=("none", "steps"), default="none")
    _add_output_args(run)

    it = sub.add_parser("iterate", help="iterate the pass and classify the limit")
    _add_input_args(it)
    it.add_argument("--max-iter", type=int, default=1000)
    it.add_argument("--snapshot-stride", type=int, default=1)
    it.add_argument("--eps-delta", type=float, default=1e-12)
    it.add_argument("--trace", choices=("none", "steps"), default="none",
                    help="steps: per-step tracing plus recurrence report")
    _add_output_args(it)

    ver = sub.add_parser("verify", help="run the seeded verification battery")
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--random-frames", type=int, default=50)
    return p


def load_input_frame(args: argparse.Namespace) -> FrameSeq:
    if args.example is not None:
        return example_frame(args.example)
    try:
        with open(args.input, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {args.input}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(
            f"malformed JSON in {args.input} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except (UnicodeDecodeError, RecursionError) as exc:   # not UTF-8, or nested too deep
        raise InputError(f"malformed JSON in {args.input}: {exc}") from exc
    try:
        return FrameSeq.from_dict(data)
    except (ValueError, FrameError) as exc:
        raise InputError(f"invalid frame in {args.input}: {exc}") from exc


@contextlib.contextmanager
def _output(path: str | None):
    """The handle an export goes to: stdout, or the file at ``path``, where
    an open or a write that fails, even midway, raises :class:`InputError`.
    A new path or a regular file is written to a part file beside it, which
    takes the old file's mode and replaces it only once the export is
    whole, so a failed export leaves the old file as it was; a symlink,
    directory, device or FIFO is opened in place."""
    if path is None:
        yield sys.stdout
        return
    staged = not os.path.islink(path) and (os.path.isfile(path) or not os.path.exists(path))
    part = f"{path}.{os.getpid()}.part" if staged else path
    try:
        fh = open(part, "x" if staged else "w", encoding="utf-8")
        try:   # only a part file this call made is removed
            with fh:
                yield fh
            if staged:
                if os.path.exists(path):
                    shutil.copymode(path, part)
                os.replace(part, path)
        except BaseException:
            if staged:
                with contextlib.suppress(OSError):
                    os.remove(part)
            raise
    except OSError as exc:   # a directory, a missing parent or a full disk
        # the message names PATH, never the part file
        reason = OSError(exc.errno, exc.strerror, path) if exc.filename == part else exc
        raise InputError(f"cannot write {path}: {reason}") from exc


def _export(args: argparse.Namespace, doc: dict, table) -> None:
    """Write ``doc`` as JSON, or the header and the rows that ``table()``
    returns as CSV, by ``--format``, to ``--output`` or stdout, piece by
    piece.  A JSON export on stdout ends in a newline."""
    with _output(args.output) as out:
        if args.fmt == "csv":
            header, rows = table()
            w = csv.writer(out, lineterminator="\n")
            w.writerow(header)
            w.writerows(rows)
        else:
            _write_json(out, doc)
            if args.output is None:
                out.write("\n")


def _write_json(out, obj, level: int = 0) -> None:
    """Write ``json.dumps(obj, indent=2, sort_keys=True)`` of ``obj``, with
    each numpy array replaced by its ``.tolist()``, to ``out`` at nesting
    depth ``level``.  Dicts (with string keys) are walked here; a finite
    float64 array fills the ``%r`` template of its shape, whose text is
    what ``json`` writes for a float; every other value, and an array
    holding NaN or Infinity, is written by ``json`` itself.  At most one
    array's text is held at a time."""
    if isinstance(obj, dict) and obj:
        nl = "\n" + "  " * (level + 1)
        for i, key in enumerate(sorted(obj)):
            out.write(("," if i else "{") + nl + json.encoder.encode_basestring_ascii(key) + ": ")
            _write_json(out, obj[key], level + 1)
        out.write("\n" + "  " * level + "}")
    elif isinstance(obj, np.ndarray) and obj.dtype == np.float64 and np.isfinite(obj).all():
        out.write(_array_template(obj.shape, level) % tuple(obj.ravel().tolist()))
    else:
        if isinstance(obj, np.ndarray):
            obj = obj.tolist()
        out.write(json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\n" + "  " * level))


@functools.lru_cache(maxsize=256)
def _array_template(shape: tuple, level: int) -> str:
    """The indented JSON list of an array of ``shape`` at depth
    ``level``, with ``%r`` in place of each element."""
    if not shape:
        return "%r"
    if shape[0] == 0:
        return "[]"
    nl = "\n" + "  " * (level + 1)
    inner = _array_template(shape[1:], level + 1)
    return "[" + nl + ("," + nl).join([inner] * shape[0]) + "\n" + "  " * level + "]"


def cmd_run(args: argparse.Namespace) -> int:
    F = load_input_frame(args)
    G, kinds = ggs_pass(F)
    chk = is_parseval(G, span=F)
    report = {
        "parseval_residual": chk.residual,
        "parseval_ok": chk.ok,
        "output_bounds": list(frame_bounds(G)),
        "input_bounds": list(frame_bounds(F)),
        "dependent_indices": list(steps_of(kinds)),
        "input_zero_indices": list(steps_of(kinds, KIND_ZERO)),
    }
    if args.trace == "steps":
        report["step_kinds"] = list(kinds)
    doc = {"frame": {"dim": G.dim, "field": G.field, "vectors": _coordinates(G.vectors)},
           "report": report}
    _export(args, doc, lambda: coordinate_rows(G.vectors, G.norms()))
    print(f"parseval_residual={chk.residual:.3e} ok={chk.ok}", file=sys.stderr)
    return EXIT_OK if chk.ok else EXIT_CHECK_FAILED


def cmd_iterate(args: argparse.Namespace) -> int:
    F = load_input_frame(args)
    try:   # iterate owns the ranges of its options
        tr = iterate(F, max_iter=args.max_iter, eps_delta=args.eps_delta,
                     snapshot_stride=args.snapshot_stride, trace_steps=args.trace == "steps")
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    rep = classify_limit(tr)
    summary = dataclasses.asdict(rep)
    summary["stationary"] = tr.stationary
    if args.trace == "steps":
        summary["recurrences"] = dataclasses.asdict(tr.recurrences)
    doc = _trace_document(tr)
    doc["limit_report"] = summary
    _export(args, doc, lambda: trace_csv_rows(tr))
    status = "empirically stationary" if tr.stationary else "stopped at max-iter"
    print(
        f"{status} after {rep.iterations_run} iterations; "
        f"zero indices {list(rep.zero_indices)}; "
        f"surviving set near-ONB: {rep.near_onb} (residual {rep.onb_residual:.3e})",
        file=sys.stderr,
    )
    return EXIT_OK if rep.prediction_match else EXIT_CHECK_FAILED


def cmd_verify(args: argparse.Namespace) -> int:
    try:   # run_battery owns the ranges of its options
        results = run_battery(seed=args.seed, n_frames=args.random_frames)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    print(f"seed={args.seed} random-frames={args.random_frames} dep-tol={DEP_TOL:g}")
    name_w = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        line = f"{r.name:<{name_w}}  {r.value:>12.5e}  {r.op}{r.threshold:<9.0e}  {status}"
        if r.detail:
            line += f"  ({r.detail})"
        print(line)
    n_ok = sum(r.ok for r in results)
    all_ok = n_ok == len(results)
    print(f"RESULT: {'PASS' if all_ok else 'FAIL'} ({n_ok}/{len(results)} checks)")
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            code = {"run": cmd_run, "iterate": cmd_iterate, "verify": cmd_verify}[args.command](args)
        except (FrameError, MemoryError) as exc:  # e.g. norms that overflow, or a run too large
            source = vars(args).get("input") or vars(args).get("example", "the verify battery")
            reason = "out of memory" if isinstance(exc, MemoryError) else exc
            raise InputError(f"cannot process {source}: {reason}") from exc
        sys.stdout.flush()   # a closed stdout raises here, not at interpreter exit
        return code
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except BrokenPipeError:   # the reader closed stdout early, as `| head` does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())   # keeps the exit flush quiet
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
