"""Print ``sha256 exit-code argv`` for a fixed list of framegs CLI calls.

Each call runs ``python -m framegs.cli`` in a fresh process with this
process's environment, so ``PYTHONPATH`` chooses the sources under test.
The digest covers the call's stdout followed by its stderr.  Running the
script under two source trees and comparing the outputs shows whether
their exports, status lines and exit codes are byte-identical:

    PYTHONPATH=<other checkout>/src python3 scripts/export_digests.py > a.txt
    PYTHONPATH=src python3 scripts/export_digests.py > b.txt
    diff a.txt b.txt

Besides the builtin examples, the calls read two input files that the
script writes into a temporary directory with numpy's own generator, so
both source trees read the same bytes: a complex 64x16 frame with rows in
the span of earlier ones, and a real 40x6 frame with -0.0 entries and a
zero row.  Most steps of both come after full rank.  The calls run with
that directory as their working directory and name the files relatively,
so no temporary path reaches the digests.
"""

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

CALLS = [
    *(["run", "--example", name, "--format", fmt] for name in EXAMPLES for fmt in ("json", "csv")),
    *(["run", "--example", name, "--trace", "steps"] for name in EXAMPLES),
    *(["iterate", "--example", "fig3", "--trace", "steps", "--format", fmt] for fmt in ("json", "csv")),
    ["iterate", "--example", "fig1", "--snapshot-stride", "1", "--max-iter", "200"],
    # the false branches of the limit report: no survivors and a failed
    # prediction (exit 1), then a run stopped before the survivors are near-ONB
    ["iterate", "--example", "fig1", "--dep-tol", "0.99", "--max-iter", "50", "--trace", "steps"],
    ["iterate", "--example", "fig3", "--max-iter", "3", "--eps-delta", "0", "--trace", "steps"],
    ["verify", "--seed", "0", "--random-frames", "10"],
    *(["run", "--input", name, "--trace", "steps"] for name in INPUTS),
    *(["iterate", "--input", name, "--trace", "steps", "--max-iter", "50"] for name in INPUTS),
]


def _input_frames():
    """The two input documents, keyed by file name."""
    rng = np.random.default_rng(20160226)
    C = rng.normal(size=(64, 16)) + 1j * rng.normal(size=(64, 16))
    for k in (5, 11, 30, 47):   # in the span of the rows before them
        C[k] = (rng.normal(size=k) + 1j * rng.normal(size=k)) @ C[:k]
    R = rng.normal(size=(40, 6))
    R[rng.random(R.shape) < 0.2] = -0.0
    R[9] = 0.0
    return {
        INPUTS[0]: {"dim": 16, "field": "complex",
                    "vectors": [[[z.real, z.imag] for z in row] for row in C.tolist()]},
        INPUTS[1]: {"dim": 6, "field": "real", "vectors": R.tolist()},
    }


def main() -> int:
    env = dict(os.environ)
    # the calls run in the temporary directory, so a relative PYTHONPATH must not move with them
    paths = env.get("PYTHONPATH", "").split(os.pathsep)
    env["PYTHONPATH"] = os.pathsep.join(os.path.abspath(p) for p in paths if p)
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in _input_frames().items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        for argv in CALLS:
            proc = subprocess.run([sys.executable, "-m", "framegs.cli", *argv],
                                  capture_output=True, cwd=tmp, env=env)
            digest = hashlib.sha256(proc.stdout + proc.stderr).hexdigest()
            print(f"{digest} {proc.returncode} {shlex.join(argv)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
