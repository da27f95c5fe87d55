"""Print ``sha256 exit-code argv`` for a fixed list of framegs CLI calls.

Each call runs ``python -m framegs.cli`` in a fresh process with this
process's environment, so ``PYTHONPATH`` chooses the sources under test.
The digest covers the call's stdout followed by its stderr.  Running the
script under two source trees and comparing the outputs shows whether
their exports, status lines and exit codes are byte-identical:

    PYTHONPATH=<other checkout>/src python3 scripts/export_digests.py > a.txt
    PYTHONPATH=src python3 scripts/export_digests.py > b.txt
    diff a.txt b.txt

``export_digests.txt``, beside this script, is the manifest: the output
of the sources it is committed with.  A change that moves an export
updates the lines of the calls it moves, so the manifest's diff declares
the change.  ``--compare BASE HEAD BASE_MANIFEST`` checks two outputs
taken on one machine, under a base tree and under this one, against the
manifest and the base tree's manifest:

    python3 scripts/export_digests.py --compare a.txt b.txt <other checkout>/scripts/export_digests.txt

It passes when every line of HEAD has the manifest's exit code and argv,
when every call whose digest moved from BASE to HEAD is a line that the
manifest changed or appended against the base's manifest, and when every
changed line moved.  Digests are not compared with the manifest's: they
hash printed floats, whose last bits follow the machine's BLAS and numpy
build.  A base manifest that does not exist reads as empty, so every line
counts as appended.

``--show N`` prints the bytes behind the N-th digest (1-based) instead:
the N-th call's stdout followed by its stderr.  Running it under both
trees and diffing the two shows what a differing digest changed:

    diff -u <(PYTHONPATH=<other checkout>/src python3 scripts/export_digests.py --show 15) \
            <(PYTHONPATH=src python3 scripts/export_digests.py --show 15)

Besides the builtin examples, the calls read eight input files that the
script writes into a temporary directory, so both source trees read the
same bytes:

* a complex 64x16 frame with rows in the span of earlier ones and a real
  40x6 frame with -0.0 entries and a zero row, both from numpy's own
  generator, most of whose steps come after full rank;
* a complex 20x7 frame of rank 2 from the ``random_frame`` generator of
  the sources under test, whose pass output has rows of norm about 2e-6,
  so that ``run`` must judge it against the input's span, not the
  output's own;
* the real frame ``[[10, 0], [0, 10], [2e12, 0]]``, whose dependent third
  vector shrinks the parallel first output row to about 5e-13, under the
  zero rule of pass 2: ``iterate`` replays pass 1's routing to the
  predicted limit and exits 0, and its traced run reports the drift
  without judging it, while one pass is Parseval;
* the real frame ``[[1e-11, 0], [0, 1e-11]]``, whose two vectors both
  route dependent, so that no vector survives the iteration: ``run``
  and ``iterate`` (call 14), whose verdicts read the span of the input,
  not the routing, fail their checks;
* a real 4x4 Gaussian frame whose row 3 is ``N1 - 0.5 N2 + 1e-9 N4``:
  it lies 1e-9 off the span of rows 1 and 2, and routed independent it
  leaves a prefix far enough from orthonormal that the exactly dependent
  row 4 routes independent too, so ``run`` fails its Parseval check;
* the real frame ``[[1e-200, 0], [0, 1e-200], [1e-200, 1e-200]]``, whose
  squared norms all underflow, so that the pass counts every vector as
  zero: ``run`` and ``iterate`` (call 28), whose span re-measures such
  rows, fail their checks;
* the real frame ``[[10, 0], [0, 10], [2e10, 0]]``, whose third vector
  shrinks the first output row to about 5e-11, above the zero rule of
  pass 2 but with a residual under the routing threshold: the traced
  ``iterate`` (call 31) reports a drift through the replay's residual
  margin alone, and exits 0 with the predicted limit.

The calls run with that directory as their working directory and name
the files relatively, so no temporary path reaches the digests.  Calls
25 and 26 pass an option out of its range, so they pin
the one error line and the exit code 2 of a refused value.  Calls 29
and 30 pin the CSV of the complex 64x16 frame, the second with the blank
coordinate cells of the iterations off its snapshot stride.  New calls
go at the end of the list, so the digests of the earlier calls keep
their line numbers.
"""

import argparse
import hashlib
import json
import os
import shlex
import subprocess
import sys
import tempfile

import numpy as np

EXAMPLES = ("fig1", "fig2", "fig3")
INPUTS = ("complex64x16.json", "real40x6.json")
HEAVY = "heavy.json"
HUGE = "huge.json"
TINY = "tiny.json"
NEAR = "near.json"
UNDER = "under.json"
MARGIN = "margin.json"

CALLS = [
    *(["run", "--example", name, "--format", fmt] for name in EXAMPLES for fmt in ("json", "csv")),
    *(["run", "--example", name, "--trace", "steps"] for name in EXAMPLES),
    *(["iterate", "--example", "fig3", "--trace", "steps", "--format", fmt] for fmt in ("json", "csv")),
    ["iterate", "--example", "fig1", "--snapshot-stride", "1", "--max-iter", "200"],
    # the false branches of the limit report: a replay that drifts while
    # the prediction holds (reported, exit 0), no survivors of a nonzero
    # span (exit 1), then a run stopped before the survivors are near-ONB
    ["iterate", "--input", HUGE, "--trace", "steps"],
    ["iterate", "--input", TINY, "--trace", "steps"],
    ["iterate", "--example", "fig3", "--max-iter", "3", "--eps-delta", "0", "--trace", "steps"],
    ["verify", "--seed", "0", "--random-frames", "10"],
    *(["run", "--input", name, "--trace", "steps"] for name in INPUTS),
    *(["iterate", "--input", name, "--trace", "steps", "--max-iter", "50"] for name in INPUTS),
    # one pass over the frame that drifts under iteration is Parseval; a
    # near-dependent row makes one that is not (exit 1)
    ["run", "--input", HUGE, "--trace", "steps"],
    ["run", "--input", NEAR, "--trace", "steps"],
    # a correct output of a heavily dependent frame passes the Parseval check
    ["run", "--input", HEAVY, "--trace", "steps"],
    # both vectors route dependent, and a verdict that does not share the
    # routing rule sees the wrong output (exit 1)
    ["run", "--input", TINY, "--trace", "steps"],
    # an option out of the range of the library function that takes it:
    # one error line that names the parameter (exit 2)
    ["iterate", "--example", "fig1", "--max-iter", "0"],
    ["verify", "--random-frames", "0"],
    # every squared norm underflows, so the pass outputs zeros; a span that
    # re-measures those rows sees the wrong output (exit 1)
    ["run", "--input", UNDER, "--trace", "steps"],
    # no vector survives, while the span of the input is the plane (exit 1)
    ["iterate", "--input", UNDER, "--trace", "steps"],
    # complex CSV, and the blank coordinate cells of iterations off the stride
    ["run", "--input", INPUTS[0], "--format", "csv"],
    ["iterate", "--input", INPUTS[0], "--max-iter", "50", "--snapshot-stride", "7", "--format", "csv"],
    # a replay that drifts through its residual margin only (exit 0)
    ["iterate", "--input", MARGIN, "--trace", "steps"],
]


def _input_frames():
    """The eight input documents, keyed by file name."""
    # imported here: --compare reads only text files and needs no framegs
    from framegs.generate import random_frame

    rng = np.random.default_rng(20160226)
    C = rng.normal(size=(64, 16)) + 1j * rng.normal(size=(64, 16))
    for k in (5, 11, 30, 47):   # in the span of the rows before them
        C[k] = (rng.normal(size=k) + 1j * rng.normal(size=k)) @ C[:k]
    R = rng.normal(size=(40, 6))
    R[rng.random(R.shape) < 0.2] = -0.0
    R[9] = 0.0
    N = rng.normal(size=(4, 4))
    N[2] = N[0] - 0.5 * N[1] + 1e-9 * N[3]
    return {
        INPUTS[0]: {"dim": 16, "field": "complex",
                    "vectors": [[[z.real, z.imag] for z in row] for row in C.tolist()]},
        INPUTS[1]: {"dim": 6, "field": "real", "vectors": R.tolist()},
        HEAVY: random_frame(0, 7, 20, "complex", 18).to_dict(),
        HUGE: {"dim": 2, "field": "real", "vectors": [[10.0, 0.0], [0.0, 10.0], [2e12, 0.0]]},
        TINY: {"dim": 2, "field": "real", "vectors": [[1e-11, 0.0], [0.0, 1e-11]]},
        NEAR: {"dim": 4, "field": "real", "vectors": N.tolist()},
        UNDER: {"dim": 2, "field": "real", "vectors": [[1e-200, 0.0], [0.0, 1e-200], [1e-200, 1e-200]]},
        MARGIN: {"dim": 2, "field": "real", "vectors": [[10.0, 0.0], [0.0, 10.0], [2e10, 0.0]]},
    }


MANIFEST = os.path.join(os.path.dirname(os.path.abspath(__file__)), "export_digests.txt")


def _lines(path) -> list[tuple[str, str]]:
    """The (digest, "exit-code argv") pairs of a digest file."""
    with open(path, encoding="utf-8") as fh:
        return [tuple(line.rstrip("\n").split(" ", 1)) for line in fh]


def compare(base_path, head_path, base_manifest_path, manifest_path) -> list[str]:
    """What ``--compare`` finds wrong with the digest outputs of base and
    head, judged by the manifest against the base's; an empty list passes.
    An appended call may move or not."""
    base, head, manifest = _lines(base_path), _lines(head_path), _lines(manifest_path)
    old = _lines(base_manifest_path) if os.path.exists(base_manifest_path) else []
    changed = {i for i, (o, m) in enumerate(zip(old, manifest)) if o != m}
    wrong = [f"{len(head)} calls, the manifest has {len(manifest)}"] if len(head) != len(manifest) else []
    for i, (b, h, m) in enumerate(zip(base, head, manifest)):
        if h[1] != m[1]:
            wrong.append(f"call {i + 1}: exit code and argv {h[1]!r}, the manifest has {m[1]!r}")
        if b != h and i < len(old) and i not in changed:
            wrong.append(f"call {i + 1}: moved, not declared in the manifest")
        if b == h and i in changed:
            wrong.append(f"call {i + 1}: declared in the manifest, did not move")
    return wrong


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--show", type=int, metavar="N",
                        help="print the stdout and stderr of call N (1-based) instead of the digests")
    parser.add_argument("--compare", nargs=3, metavar=("BASE", "HEAD", "BASE_MANIFEST"),
                        help="check two outputs against the manifest and the base's instead of running the calls")
    args = parser.parse_args()
    if args.compare is not None:
        wrong = compare(*args.compare, MANIFEST)
        print("\n".join(wrong) or "every moved export is declared in the manifest")
        return 1 if wrong else 0
    if args.show is not None and not 1 <= args.show <= len(CALLS):
        parser.error(f"--show: expected a call number in [1, {len(CALLS)}]")
    env = dict(os.environ)
    # the calls run in the temporary directory, so a relative PYTHONPATH must not move with them
    paths = env.get("PYTHONPATH", "").split(os.pathsep)
    env["PYTHONPATH"] = os.pathsep.join(os.path.abspath(p) for p in paths if p)
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in _input_frames().items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        calls = CALLS if args.show is None else [CALLS[args.show - 1]]
        for argv in calls:
            proc = subprocess.run([sys.executable, "-m", "framegs.cli", *argv],
                                  capture_output=True, cwd=tmp, env=env)
            if args.show is not None:
                sys.stdout.buffer.write(proc.stdout + proc.stderr)
                continue
            digest = hashlib.sha256(proc.stdout + proc.stderr).hexdigest()
            print(f"{digest} {proc.returncode} {shlex.join(argv)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
