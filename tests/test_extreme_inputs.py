"""Seeded sweep of ``framegs run`` and ``framegs iterate`` over extreme inputs.

Every input must end in exit 0, exit 1 (a failed check) or exit 2 with
exactly one ``error: `` line on stderr; no exception may escape
``cli.main`` and numpy may not emit a warning on the way.  An exit 0 of
``run`` must mean a Parseval output for the input's span, and an exit 0
of ``iterate`` a limit whose survivors are the steps at which the rank of
the input's prefix grows, both judged by numpy-only oracles.
"""

import json
import warnings

import numpy as np

from framegs.cli import EXIT_CHECK_FAILED, EXIT_INPUT_ERROR, EXIT_OK, main
from framegs.frames import PARSEVAL_TOL

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


def _extreme_frame(rng) -> dict:
    """A frame document with n <= 20 vectors in dimension d <= 8, entries
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
    if field == "complex":
        vectors = np.stack([V.real, V.imag], axis=-1).tolist()
    else:
        vectors = V.tolist()
    return {"dim": d, "field": field, "vectors": vectors}


def _rows(doc) -> np.ndarray:
    V = np.array(doc["vectors"], dtype=float).reshape(len(doc["vectors"]), doc["dim"], -1)
    return V[..., 0] + 1j * V[..., 1] if doc["field"] == "complex" else V[..., 0]


def _unit_rows(V) -> tuple[np.ndarray, np.ndarray]:
    """The 0-based indices of the rows of V that are not zero, and those
    rows normalized, with no framegs code on the route.  Each row is
    scaled by its largest entry, so no square underflows or overflows;
    rows of norm at most 1e-12 times the largest count as zero (the
    documented zero rule)."""
    scale = np.abs(V).max(axis=1)
    idx = np.flatnonzero(scale > 0.0)
    U = V[idx] / scale[idx, None]
    if idx.size:
        norms = scale[idx] * np.linalg.norm(U, axis=1)
        keep = norms > 1e-12 * norms.max()
        idx, U = idx[keep], U[keep]
        U /= np.linalg.norm(U, axis=1, keepdims=True)
    return idx, U


def _span(U) -> np.ndarray:
    """Orthonormal rows spanning the unit rows U: singular values s > 1e-10 s[0]."""
    _, s, Wh = np.linalg.svd(U, full_matrices=False)
    return Wh[s > 1e-10 * s[:1]]


def _oracle_gap(G, V) -> float:
    """||S_G - P||_F with P the projection onto the span of V's unit rows."""
    B = _span(_unit_rows(V)[1])
    return float(np.linalg.norm(G.T @ G.conj() - B.T @ B.conj()))


def _oracle_survivors(V) -> list[int]:
    """1-based steps at which the rank of the prefix of V's unit rows grows."""
    idx, U = _unit_rows(V)
    ranks = [0] + [len(_span(U[: j + 1])) for j in range(len(U))]
    return [int(k) + 1 for j, k in enumerate(idx) if ranks[j + 1] > ranks[j]]


def test_extreme_inputs_end_in_an_exit_code(tmp_path, capsys):
    rng = np.random.default_rng(20161)
    inp, out = tmp_path / "frame.json", str(tmp_path / "out")
    off = []   # exit 0 of run with an output off the oracle's span
    wrong = []   # exit 0 of iterate with survivors other than the oracle's
    for i in range(N_INPUTS):
        doc = _extreme_frame(rng)
        inp.write_text(json.dumps(doc))
        # this draw once picked a routing tolerance for the input; it stays
        # so that the generator's stream, and so each input, is unchanged
        rng.integers(7)
        for command in COMMANDS:
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
            if rc == EXIT_INPUT_ERROR:
                assert len(err) == 1 and err[0].startswith("error: "), f"{case}: {err}"
            if rc != EXIT_OK:
                continue
            with open(out, encoding="utf-8") as fh:
                result = json.load(fh)
            if command[0] == "run":
                gap = _oracle_gap(_rows(result["frame"]), _rows(doc))
                if not gap <= PARSEVAL_TOL:
                    off.append(f"input {i} {command}: gap {gap:.2e}")
            else:
                survivors = result["limit_report"]["surviving_indices"]
                if survivors != _oracle_survivors(_rows(doc)):
                    wrong.append(f"input {i} {command}: survivors {survivors}")
    assert not off, f"{len(off)} exit-0 outputs off the input's span: {off[:5]}"
    assert not wrong, f"{len(wrong)} exit-0 limits off the oracle's survivors: {wrong[:5]}"
