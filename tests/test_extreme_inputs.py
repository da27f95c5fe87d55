"""Seeded sweep of ``framegs run`` and ``framegs iterate`` over extreme inputs.

Every input must end in exit 0, exit 1 (a failed check) or exit 2 with
exactly one ``error: `` line on stderr; no exception may escape
``cli.main`` and numpy may not emit a warning on the way.  An exit 0 of
``run`` must mean a Parseval output for the input's span, and an exit 0
of ``iterate`` a limit whose survivors are the steps at which the rank of
the input's prefix grows, both judged by ``numpy_oracle``.  Exact
transforms of an input (a zero row, the complex embedding, a signed
coordinate permutation) leave the exit code of either command unchanged.
``--trace steps`` moves no exit code either, and adds only
``limit_report.recurrences`` to the JSON export of ``iterate``.
"""

import json
import warnings

import numpy as np

from framegs.cli import EXIT_CHECK_FAILED, EXIT_INPUT_ERROR, EXIT_OK, main
from framegs.frames import PARSEVAL_TOL

import numpy_oracle

N_INPUTS = 300
COMMANDS = (
    ["run"],
    ["run", "--trace", "steps"],
    ["iterate", "--max-iter", "30"],
    ["iterate", "--max-iter", "30", "--trace", "steps"],
)


def _gaussian(rng, shape, field):
    # unit variance per part: generate._gaussian's complex entries draw a
    # different stream, on which 300 inputs meet no kernel overflow
    if field == "complex":
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return rng.standard_normal(shape)


def _extreme_frame(rng) -> np.ndarray:
    """The rows of a frame with n <= 20 vectors in dimension d <= 8, entries
    from 1e-300 to 1e200 in magnitude, and rows of signed zeros, exact
    dependents and near-dependents (gaps 1e-12 to 1e-3)."""
    field = "complex" if rng.random() < 0.5 else "real"
    n, d = int(rng.integers(1, 21)), int(rng.integers(1, 9))
    V = _gaussian(rng, (n, d), field)
    for k in range(n):
        r = rng.random()
        if r < 0.1:
            V.real[k] = np.copysign(0.0, rng.standard_normal(d))
            if field == "complex":
                V.imag[k] = np.copysign(0.0, rng.standard_normal(d))
        elif k and r < 0.3:
            V[k] = _gaussian(rng, k, field) @ V[:k]
        elif k and r < 0.45:
            gap = 10.0 ** rng.uniform(-12, -3)
            V[k] = _gaussian(rng, k, field) @ V[:k] + gap * _gaussian(rng, d, field)
    if rng.random() < 1 / 3:
        # the largest row norm just below 1.34e154, where its square overflows
        top = np.linalg.norm(V, axis=1).max()
        if top > 0.0:
            V = V * (10.0 ** rng.uniform(153.9, 154.12) / top)
    elif rng.random() < 0.5:
        V = V * 10.0 ** rng.uniform(-300, 200)
    else:   # one magnitude per row
        V = V * 10.0 ** rng.uniform(-300, 200, size=(n, 1))
    return V


def _sweep():
    """The N_INPUTS extreme frames of the seeded sweep."""
    rng = np.random.default_rng(20161)
    for _ in range(N_INPUTS):
        yield _extreme_frame(rng)
        # this draw once picked a routing tolerance for the input; it stays
        # so that the generator's stream, and so each input, is unchanged
        rng.integers(7)


def _document(V) -> dict:
    if np.iscomplexobj(V):
        return {"dim": V.shape[1], "field": "complex",
                "vectors": np.stack([V.real, V.imag], axis=-1).tolist()}
    return {"dim": V.shape[1], "field": "real", "vectors": V.tolist()}


def _rows(doc) -> np.ndarray:
    V = np.array(doc["vectors"], dtype=float).reshape(len(doc["vectors"]), doc["dim"], -1)
    return V[..., 0] + 1j * V[..., 1] if doc["field"] == "complex" else V[..., 0]


def test_extreme_inputs_end_in_an_exit_code(tmp_path, capsys):
    inp = tmp_path / "frame.json"
    outs = [str(tmp_path / f"out{j}") for j in range(len(COMMANDS))]
    off = []   # exit 0 of run with an output off the oracle's span
    wrong = []   # exit 0 of iterate with survivors other than the oracle's
    traced = []   # exit codes or iterate exports that --trace steps moved
    for i, V in enumerate(_sweep()):
        doc = _document(V)
        inp.write_text(json.dumps(doc))
        codes = []
        for command, out in zip(COMMANDS, outs):
            argv = [*command, "--input", str(inp), "--output", out]
            case = f"input {i} ({doc['field']} {len(doc['vectors'])}x{doc['dim']}), {argv}"
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    rc = main(argv)
                except Exception as exc:
                    raise AssertionError(f"{case}: {exc!r} escaped main") from exc
            err = capsys.readouterr().err.splitlines()
            assert not caught, f"{case}: {caught[0].category.__name__}: {caught[0].message}"
            assert rc in (EXIT_OK, EXIT_CHECK_FAILED, EXIT_INPUT_ERROR), case
            codes.append(rc)
            if rc == EXIT_INPUT_ERROR:
                assert len(err) == 1 and err[0].startswith("error: "), f"{case}: {err}"
            if rc != EXIT_OK:
                continue
            with open(out, encoding="utf-8") as fh:
                result = json.load(fh)
            if command[0] == "run":
                gap = numpy_oracle.parseval_gap(_rows(result["frame"]), V)
                if not gap <= PARSEVAL_TOL:
                    off.append(f"input {i} {command}: gap {gap:.2e}")
            else:
                survivors = result["limit_report"]["surviving_indices"]
                if tuple(survivors) != numpy_oracle.span_steps(V):
                    wrong.append(f"input {i} {command}: survivors {survivors}")
        # tracing adds a report and moves no exit code; iterate's traced
        # export is the untraced one plus limit_report.recurrences
        if codes[0] != codes[1] or codes[2] != codes[3]:
            traced.append(f"input {i}: exits {codes}")
        elif codes[2] != EXIT_INPUT_ERROR:
            exports = []
            for out in outs[2:]:
                with open(out, encoding="utf-8") as fh:
                    exports.append(json.load(fh))
            exports[1]["limit_report"].pop("recurrences")
            if exports[0] != exports[1]:
                traced.append(f"input {i}: iterate exports differ beyond the recurrence report")
    assert not traced, f"{len(traced)} inputs where --trace steps moved a result: {traced[:5]}"
    assert not off, f"{len(off)} exit-0 outputs off the input's span: {off[:5]}"
    assert not wrong, f"{len(wrong)} exit-0 limits off the oracle's survivors: {wrong[:5]}"


def _transforms(V, rng):
    """Exact transforms of the rows V, by name: a zero row inserted at n // 2,
    the complex embedding of a real frame, and a signed permutation of the
    coordinates, a unitary that rounds nothing (a dense one does at 1e154)."""
    yield "zero row", np.insert(V, len(V) // 2, 0.0, axis=0)
    if not np.iscomplexobj(V):
        yield "complex", V.astype(complex)
    yield "signed permutation", -V[:, rng.permutation(V.shape[1])]


def test_exit_codes_survive_exact_transforms(tmp_path, capsys):
    # exit codes only: under a zero row, iterate's final iterate can move in
    # its last bits, because the prefix products gain a term
    rng = np.random.default_rng(20162)
    inp, out = tmp_path / "frame.json", str(tmp_path / "out")

    def exit_codes(V):
        inp.write_text(json.dumps(_document(V)))
        return [main([*command, "--input", str(inp), "--output", out])
                for command in (["run"], ["iterate", "--max-iter", "30"])]

    moved = []
    for i, V in enumerate(_sweep()):
        want = exit_codes(V)
        for name, W in _transforms(V, rng):
            got = exit_codes(W)
            if got != want:
                moved.append(f"input {i}, {name}: exits {want} -> {got}")
        capsys.readouterr()
    assert not moved, f"{len(moved)} exit codes moved under an exact transform: {moved[:5]}"
