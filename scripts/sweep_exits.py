"""Print the exit codes of ``framegs run`` and ``framegs iterate`` on the
extreme sweep: one line per input of ``_sweep()`` in
``tests/test_extreme_inputs.py``, with the input's index, field and
shape, then the exit codes of that module's ``COMMANDS``, in their order
(``run``, ``run --trace steps``, ``iterate --max-iter 30`` and the same
with ``--trace steps``):

    1 complex 15x2 2 2 0 0

The commands run in this process, through ``framegs.cli.main``, so
``PYTHONPATH`` chooses the sources under test; the inputs and commands
are those of the test module in this script's checkout.

``sweep_exits.txt``, beside this script, is the manifest: the output of
the sources it is committed with.  A change that moves an exit code
updates the lines of the inputs it moves, so the manifest's diff
declares the change.  ``--compare BASE HEAD BASE_MANIFEST`` checks two
outputs taken on one machine, under a base tree and under this one,
with the rule of ``export_digests.py --compare``:

    PYTHONPATH=<other checkout>/src python3 scripts/sweep_exits.py > a.txt
    PYTHONPATH=src python3 scripts/sweep_exits.py > b.txt
    PYTHONPATH=src python3 scripts/sweep_exits.py --compare a.txt b.txt <other checkout>/scripts/sweep_exits.txt

It passes when every line of HEAD equals the manifest's, when every
input whose exit codes moved from BASE to HEAD is a line that the
manifest changed against the base's, and when every changed line moved.
A base manifest that does not exist reads as empty.  The messages name
a line as a call: call N is input N - 1.
"""

import argparse
import contextlib
import json
import os
import sys
import tempfile
import warnings

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests"))

import test_extreme_inputs as sweep   # noqa: E402
from export_digests import compare   # noqa: E402
from framegs.cli import main as framegs_main   # noqa: E402

MANIFEST = os.path.join(os.path.dirname(os.path.abspath(__file__)), "sweep_exits.txt")


def sweep_lines() -> list[str]:
    """The manifest's lines for the sources on ``PYTHONPATH``."""
    lines = []
    # the status and error lines, and any numpy warning, are not the manifest's
    with tempfile.TemporaryDirectory() as tmp, open(os.devnull, "w") as null, \
            contextlib.redirect_stderr(null), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        inp, out = os.path.join(tmp, "frame.json"), os.path.join(tmp, "out")
        for i, V in enumerate(sweep._sweep()):
            doc = sweep._document(V)
            with open(inp, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            codes = [framegs_main([*command, "--input", inp, "--output", out]) for command in sweep.COMMANDS]
            lines.append(f"{i} {doc['field']} {len(doc['vectors'])}x{doc['dim']} {' '.join(map(str, codes))}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--compare", nargs=3, metavar=("BASE", "HEAD", "BASE_MANIFEST"),
                        help="check two outputs against the manifest and the base's instead of running the sweep")
    args = parser.parse_args()
    if args.compare is not None:
        wrong = compare(*args.compare, MANIFEST)
        print("\n".join(wrong) or "every moved exit code is declared in the manifest")
        return 1 if wrong else 0
    print("\n".join(sweep_lines()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
