"""Print the exit codes of ``framegs run`` and ``framegs iterate`` on the
extreme sweep: one ``_exit_line`` of ``tests/test_extreme_inputs.py`` per
input of its ``_sweep()``, with the input's index, field and shape, then
the exit codes of that module's ``COMMANDS``, in their order (``run``,
``run --trace steps``, ``iterate --max-iter 30`` and the same with
``--trace steps``):

    1 complex 15x2 2 2 0 0

``sweep_exits.txt``, beside this script, is the manifest: the output of
the sources it is committed with.  The sweep test holds every run to it,
so a change that moves an exit code on the sweep regenerates it, and the
manifest's diff declares the inputs it moves:

    PYTHONPATH=src python3 scripts/sweep_exits.py > scripts/sweep_exits.txt

The commands run in this process, through ``framegs.cli.main``, so
``PYTHONPATH`` chooses the sources under test.
"""

import contextlib
import json
import os
import sys
import tempfile
import warnings

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests"))

import test_extreme_inputs as sweep   # noqa: E402
from framegs.cli import main as framegs_main   # noqa: E402


def main() -> int:
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
            print(sweep._exit_line(i, doc, codes))
    return 0


if __name__ == "__main__":
    sys.exit(main())
