import csv
import io
import json
import math
import os
import stat
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import framegs
from framegs.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_CHECK_FAILED,
    EXIT_INPUT_ERROR,
    EXIT_OK,
    _array_template,
    _write_json,
    main,
)
from framegs.errors import NonFiniteError
from framegs.frames import FrameSeq, is_parseval
from framegs.generate import random_frame
from framegs.iteration import _trace_document, iterate, trace_to_dict

RT2 = math.sqrt(2.0)

# pass 1 routes vector 3 dependent, which shrinks the parallel output row 1
# to about 5e-13, under the zero rule of pass 2: the later passes replay
# pass 1's routing and reach the predicted zero set [3], and a traced run
# reports the drift
HUGE_VECTORS = [[10.0, 0.0], [0.0, 10.0], [2e12, 0.0]]


def near_dependent_vectors():
    """A 4x4 Gaussian frame whose row 3 lies 1e-9 off the span of rows 1
    and 2.  Routed independent, that row leaves a prefix far enough from
    orthonormal that the exactly dependent row 4 routes independent too,
    and the output is not Parseval for the input's span."""
    N = np.random.default_rng(9).normal(size=(4, 4))
    N[2] = N[0] - 0.5 * N[1] + 1e-9 * N[3]
    return N.tolist()


def write_frame(path, dim, field, vectors):
    path.write_text(json.dumps({"dim": dim, "field": field, "vectors": vectors}))
    return str(path)


class TestRun:
    def test_fig1_json_output(self, tmp_path, capsys):
        out = tmp_path / "out.json"
        rc = main(["run", "--example", "fig1", "--output", str(out)])
        assert rc == EXIT_OK
        doc = json.loads(out.read_text())
        v = doc["frame"]["vectors"]
        assert v[0][0] == pytest.approx((2 + RT2) / 4, abs=1e-12)
        assert v[0][1] == pytest.approx((RT2 - 2) / 4, abs=1e-12)
        assert v[2] == pytest.approx([0.5, 0.5], abs=1e-15)
        rep = doc["report"]
        assert rep["parseval_ok"] and rep["parseval_residual"] <= 1e-10
        assert rep["dependent_indices"] == [3]
        assert rep["output_bounds"] == pytest.approx([1.0, 1.0], abs=1e-10)

    def test_onb_file_passes_through(self, tmp_path):
        inp = write_frame(tmp_path / "onb.json", 2, "real", [[1.0, 0.0], [0.0, 1.0]])
        out = tmp_path / "out.json"
        assert main(["run", "--input", inp, "--output", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["frame"]["vectors"] == [[1.0, 0.0], [0.0, 1.0]]

    def test_fig3_energy_identity(self, tmp_path):
        out = tmp_path / "out.json"
        assert main(["run", "--example", "fig3", "--output", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        total = sum(sum(x * x for x in row) for row in doc["frame"]["vectors"])
        assert total == pytest.approx(2.0, abs=1e-10)

    def test_csv_format(self, tmp_path):
        out = tmp_path / "out.csv"
        assert main(["run", "--example", "fig1", "--format", "csv",
                     "--output", str(out)]) == EXIT_OK
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["vector_index", "norm", "coord_1", "coord_2"]
        assert len(rows) == 4
        assert float(rows[3][2]) == pytest.approx(0.5, abs=1e-15)

        vecs = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 2.0]]]
        inp = write_frame(tmp_path / "c.json", 2, "complex", vecs)
        assert main(["run", "--input", inp, "--format", "csv", "--output", str(out)]) == EXIT_OK
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["vector_index", "norm", "coord_1_re", "coord_1_im",
                           "coord_2_re", "coord_2_im"]
        assert rows[2] == ["2", "1.0", "0.0", "0.0", "0.0", "1.0"]

    def test_csv_to_stdout_is_only_csv(self, capsys):
        assert main(["run", "--example", "fig3", "--format", "csv"]) == EXIT_OK
        captured = capsys.readouterr()
        rows = list(csv.reader(captured.out.splitlines()))
        assert len(rows) == 10 + 1
        assert all(len(r) == 4 for r in rows)
        assert "parseval_residual=" in captured.err

    def test_round_trip_of_exported_frame(self, tmp_path):
        out = tmp_path / "out.json"
        main(["run", "--example", "fig1", "--output", str(out)])
        doc = json.loads(out.read_text())
        reexported = tmp_path / "again.json"
        reexported.write_text(json.dumps(doc["frame"]))
        out2 = tmp_path / "out2.json"
        # one more pass over an already-Parseval frame: near fixed point
        assert main(["run", "--input", str(reexported), "--output", str(out2)]) == EXIT_OK

    def test_complex_frame_file(self, tmp_path):
        vecs = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]]
        inp = write_frame(tmp_path / "c.json", 2, "complex", vecs)
        out = tmp_path / "out.json"
        assert main(["run", "--input", inp, "--output", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["frame"]["field"] == "complex"

    def test_trace_steps_adds_kinds(self, tmp_path):
        out = tmp_path / "out.json"
        main(["run", "--example", "fig1", "--trace", "steps", "--output", str(out)])
        doc = json.loads(out.read_text())
        assert doc["report"]["step_kinds"] == ["independent", "independent", "dependent"]

    def test_dependent_indices_are_the_dependent_steps(self, tmp_path):
        out = tmp_path / "out.json"
        main(["run", "--example", "fig3", "--trace", "steps", "--output", str(out)])
        rep = json.loads(out.read_text())["report"]
        assert rep["dependent_indices"] == list(range(3, 11))
        assert rep["dependent_indices"] == [
            k for k, kind in enumerate(rep["step_kinds"], 1) if kind == "dependent"]

    def test_near_dependent_frame_fails_the_parseval_check(self, tmp_path, capsys):
        inp = write_frame(tmp_path / "near.json", 4, "real", near_dependent_vectors())
        out = tmp_path / "out.json"
        rc = main(["run", "--input", inp, "--trace", "steps", "--output", str(out)])
        assert rc == EXIT_CHECK_FAILED
        rep = json.loads(out.read_text())["report"]
        assert rep["step_kinds"] == ["independent"] * 4
        assert rep["parseval_ok"] is False and rep["parseval_residual"] > 1.0
        assert capsys.readouterr().err.endswith("ok=False\n")


class TestRunInputErrors:
    def test_missing_file(self, capsys):
        assert main(["run", "--input", "no_such_file.json"]) == EXIT_INPUT_ERROR
        assert "cannot read" in capsys.readouterr().err

    def test_malformed_json_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dim": 2,\n "field": "real",\n "vectors": [[1,0],')
        assert main(["run", "--input", str(bad)]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert "line" in err and "bad.json" in err

    def test_dimension_mismatch(self, tmp_path, capsys):
        inp = write_frame(tmp_path / "m.json", 3, "real", [[1.0, 0.0]])
        assert main(["run", "--input", inp]) == EXIT_INPUT_ERROR
        assert "invalid frame" in capsys.readouterr().err

    def test_non_finite_entries(self, tmp_path, capsys):
        inp = tmp_path / "inf.json"
        inp.write_text('{"dim": 1, "field": "real", "vectors": [[Infinity]]}')
        assert main(["run", "--input", str(inp)]) == EXIT_INPUT_ERROR

    def test_eigensolver_sweep_limit_is_an_input_error(self, monkeypatch, capsys):
        monkeypatch.setattr(framegs.linalg, "JACOBI_MAX_SWEEPS", 0)
        assert main(["run", "--example", "fig1"]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: cannot process fig1: off-diagonal mass 7.071e-01 "
                                "above 2.236e-14 after 0 sweeps\n")

    def test_unknown_example_rejected_by_parser(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--example", "fig9"])
        assert exc.value.code == 2

    def test_input_and_example_mutually_exclusive(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--example", "fig1", "--input", "x.json"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("dep_tol", ["1.5", "1", "nan"])
    def test_dep_tol_option_is_gone(self, dep_tol, capsys):
        # every pass routes at DEP_TOL: the option is gone, so any value,
        # in range or not, is refused by the parser
        for command in ("run", "iterate"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--example", "fig1", "--dep-tol", dep_tol])
            assert exc.value.code == EXIT_INPUT_ERROR
            assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--example", "fig1", "--bogus"],                  # unknown option
            ["iterate", "--example", "fig1", "--eps-delta", "-inf"],  # "-inf" read as an option
            ["iterate", "--max-iter", "5"],                           # no --input or --example
            ["run", "--example", "fig9"],                             # not a builtin example
            [],                                                       # no subcommand
            ["verify", "--max-iter", "200"],                          # retired option
        ],
    )
    def test_parser_error_is_one_line(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1"])
    def test_eps_delta_must_be_finite_and_nonnegative(self, value, capsys):
        # "=" keeps argparse from reading "-inf" as an option name
        rc = main(["iterate", "--example", "fig1", f"--eps-delta={value}"])
        assert rc == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert err == [f"error: eps_delta must be finite and >= 0, got {float(value)}"], err

    def test_negative_seed_is_an_input_error(self, capsys):
        assert main(["verify", "--seed", "-1"]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: seed must be >= 0, got -1"]

    def test_bad_max_iter(self, capsys):
        assert main(["iterate", "--example", "fig1", "--max-iter", "0"]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err.splitlines() == ["error: max_iter must be >= 1, got 0"]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["iterate", "--example", "fig1", "--snapshot-stride", "0"], "snapshot_stride must be >= 1, got 0"),
            (["verify", "--random-frames", "0"], "n_frames must be >= 1, got 0"),
        ],
        ids=["snapshot-stride", "random-frames"],
    )
    def test_out_of_range_option_is_one_line(self, argv, message, capsys):
        # the library function that takes the value checks its range, and
        # names the parameter
        assert main(argv) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize(
        "field, vectors",
        [
            ("real", [[1e200, 0.0], [0.0, 1e200]]),   # norms overflow inside the pass
            ("complex", [[[1, 0], [0]]]),               # short [re, im] entry
            ("complex", [[1, 0], [0]]),                 # rows of numbers, not of pairs
        ],
    )
    def test_input_failing_in_parse_or_pass(self, tmp_path, capsys, field, vectors):
        inp = write_frame(tmp_path / "bad.json", 2, field, vectors)
        assert main(["run", "--input", inp]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "bad.json" in err[0]

    @pytest.mark.parametrize(
        "text",
        [
            '{"dim": 1e400, "field": "real", "vectors": [[1.0, 0.0]]}',   # parses to inf
            '{"dim": 2.5, "field": "real", "vectors": [[1.0, 0.0]]}',
            '{"dim": 2.0, "field": "real", "vectors": [[1.0, 0.0]]}',   # == 2, still not an int
            '{"dim": true, "field": "real", "vectors": [[1.0]]}',       # == 1, still not an int
            '{"dim": "2", "field": "real", "vectors": [[1.0, 0.0]]}',
            '{"dim": 1, "field": "real", "vectors": [[1%s]]}' % ("0" * 400),
            '{"dim": 1, "field": "complex", "vectors": [[[1%s, 0]]]}' % ("0" * 400),
            '{"dim": 2, "field": "real", "vectors": [["1.5", "0"], [" 2 ", "1e0"]]}',
            '{"dim": 2, "field": "complex", "vectors": [[["1.5", "0"], [" 2 ", "1e0"]]]}',
            '{"dim": 2, "field": "real", "vectors": [[1.5, "0"]]}',
            '{"dim": 2, "field": "real", "vectors": [[true, false], [false, true]]}',
            '{"dim": 2, "field": "real", "vectors": [[null, 0.0]]}',
            '{"dim": 2, "field": "real", "vectors": [[1, true], [0, 1]]}',     # numpy reads 1
            '{"dim": 1, "field": "complex", "vectors": [[[1.0, false]]]}',     # numpy reads 0.0
            b'\xff\xfe{"dim": 1, "field": "real", "vectors": [[1.0]]}',       # not UTF-8
            "[" * 100000 + "]" * 100000,                                       # past the parser's depth
        ],
        ids=["dim-1e400", "dim-2.5", "dim-2.0", "dim-true", "dim-string", "huge-int-real", "huge-int-complex",
             "string-real", "string-complex", "string-mixed-real", "bool-real", "null-real",
             "bool-mixed-real", "bool-mixed-complex", "not-utf8", "deep-array"],
    )
    def test_raw_json_rejected_with_one_line(self, tmp_path, capsys, text):
        # write_frame writes an int dim and float entries, so these files
        # are written as text, or as bytes
        inp = tmp_path / "raw.json"
        inp.write_bytes(text if isinstance(text, bytes) else text.encode())
        assert main(["run", "--input", str(inp)]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "raw.json" in err[0], err

    @pytest.mark.parametrize("command", ["run", "iterate"])
    @pytest.mark.parametrize("output", [".", "missing/out.json"], ids=["directory", "missing-parent"])
    def test_unwritable_output_is_one_line(self, tmp_path, capsys, command, output):
        path = str(tmp_path / output)
        assert main([command, "--example", "fig1", "--output", path]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: cannot write {path}: "), err

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("s", [1e155, 1e200])
    def test_huge_vector_after_full_rank(self, tmp_path, capsys, field, s):
        # the third vector's squared norm overflows: the input-norm check
        # stops it before the pass reaches it, after full rank
        vectors = [[1e150, 0.0], [0.0, 1e150], [s, s]]
        if field == "complex":
            vectors = [[[1e150, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1e150, 0.0]], [[s, 0.0], [0.0, s]]]
        inp = write_frame(tmp_path / "huge.json", 2, field, vectors)
        assert main(["run", "--input", inp]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].endswith("step 3: input vector norm is not finite"), err

    def test_frame_operator_overflow_is_an_input_error(self, tmp_path):
        # the frame operator's entries are finite but its Frobenius norm
        # overflows; run exits 2 with one line and no numpy warning
        inp = write_frame(tmp_path / "huge.json", 2, "real", [[1, 0], [0, 1], [1e153, 1e153]])
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(framegs.__file__)))
        proc = subprocess.run([sys.executable, "-m", "framegs.cli", "run", "--input", inp],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == EXIT_INPUT_ERROR
        assert proc.stdout == ""
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert err[0].endswith("matrix Frobenius norm overflows"), err

    @pytest.mark.parametrize(
        "command, field, vectors, message",
        [
            # the distance between the input and the first iterate overflows
            ("iterate", "real", [[1e154, 0], [0, 1e154]], "iteration 1: non-finite state"),
            # symmetrizing the frame operator gives inf, and 0.5 * (inf + 0j) a NaN
            ("run", "complex", [[[1e154, 0]]], "matrix Frobenius norm overflows"),
        ],
        ids=["iterate-distance", "run-complex-operator"],
    )
    def test_overflow_prints_no_numpy_warning(self, tmp_path, command, field, vectors, message):
        # a fresh process, because numpy prints a given warning only once per process
        inp = write_frame(tmp_path / "huge.json", len(vectors[0]), field, vectors)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(framegs.__file__)))
        proc = subprocess.run([sys.executable, "-m", "framegs.cli", command, "--input", inp],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == EXIT_INPUT_ERROR
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert err[0].endswith(message), err

    @pytest.mark.parametrize("command", ["run", "iterate"])
    def test_overcomplete_frame_routes_its_tail_dependent(self, tmp_path, capsys, command):
        # the last two of five vectors in R^3 take the dependent branch, as
        # every vector after full rank does, so the output is Parseval
        vectors = np.random.default_rng(43).normal(size=(5, 3)).tolist()
        inp = write_frame(tmp_path / "f.json", 3, "real", vectors)
        out = tmp_path / "out.json"
        argv = [command, "--input", inp, "--output", str(out)]
        if command == "iterate":
            argv += ["--max-iter", "5"]
        assert main(argv) == EXIT_OK
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and not err[0].startswith("error:")
        doc = json.loads(out.read_text())
        if command == "run":
            assert doc["report"]["parseval_ok"] and doc["report"]["dependent_indices"] == [4, 5]
            final = doc["frame"]["vectors"]
        else:
            assert doc["limit_report"]["zero_indices"] == [4, 5]
            final = doc["snapshots"]["5"]
        assert is_parseval(FrameSeq(np.array(final)))


class TestIterate:
    def test_fig1_limit_report(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        rc = main(["iterate", "--example", "fig1", "--max-iter", "1000",
                   "--snapshot-stride", "1000", "--eps-delta", "0",
                   "--output", str(out)])
        assert rc == EXIT_OK
        doc = json.loads(out.read_text())
        rep = doc["limit_report"]
        assert rep["zero_indices"] == [3]
        assert rep["onb_residual"] <= 1e-2
        assert rep["prediction_match"] is True
        assert doc["iterations_run"] == 1000
        # stderr summary uses stationarity language, no convergence claim
        msg = capsys.readouterr().err
        assert "stopped at max-iter" in msg

    def test_fig2_eight_iterates_for_replot(self, tmp_path):
        out = tmp_path / "trace.json"
        rc = main(["iterate", "--example", "fig2", "--max-iter", "8",
                   "--eps-delta", "0", "--output", str(out)])
        assert rc == EXIT_OK
        doc = json.loads(out.read_text())
        assert set(doc["snapshots"]) == {str(m) for m in range(9)}

    def test_fig3_two_survivors(self, tmp_path):
        out = tmp_path / "trace.json"
        main(["iterate", "--example", "fig3", "--max-iter", "1000",
              "--snapshot-stride", "1000", "--eps-delta", "0", "--output", str(out)])
        rep = json.loads(out.read_text())["limit_report"]
        assert len(rep["surviving_indices"]) == 2
        assert rep["zero_indices"] == list(range(3, 11))

    def test_csv_trace(self, tmp_path):
        out = tmp_path / "trace.csv"
        main(["iterate", "--example", "fig1", "--max-iter", "4",
              "--snapshot-stride", "2", "--eps-delta", "0",
              "--format", "csv", "--output", str(out)])
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["iteration", "vector_index", "norm", "coord_1", "coord_2"]
        assert len(rows) == 1 + 5 * 3
        off_stride = [r for r in rows[1:] if r[0] == "1"]
        assert all(r[3] == "" for r in off_stride)

    def test_trace_steps_includes_recurrences(self, tmp_path):
        out = tmp_path / "trace.json"
        main(["iterate", "--example", "fig3", "--max-iter", "20", "--eps-delta", "0",
              "--trace", "steps", "--output", str(out)])
        rr = json.loads(out.read_text())["limit_report"]["recurrences"]
        assert rr["pattern_consistent"] is True
        assert rr["update_identity"] <= 1e-12

    @pytest.mark.parametrize("source", ["fig3", "complex"])
    def test_step_tracing_moves_no_export_byte(self, source, tmp_path, capsys):
        # a traced pass runs its steps after full rank one by one for the
        # recurrence observer, and returns the same rows as an untraced one;
        # the JSON export only adds the recurrence report
        if source == "fig3":
            frame = ["--example", "fig3"]
        else:   # 24 vectors in C^6, 17 of them after full rank
            frame = ["--input", write_frame(tmp_path / "frame.json", 6, "complex",
                                            random_frame(3, 6, 24, "complex", 6).to_dict()["vectors"])]
        for fmt in ("json", "csv"):
            exports = []
            for trace in ("none", "steps"):
                out = tmp_path / f"trace.{fmt}"
                assert main(["iterate", *frame, "--max-iter", "40", "--eps-delta", "0",
                             "--trace", trace, "--format", fmt, "--output", str(out)]) == EXIT_OK
                exports.append(out.read_text())
            if fmt == "json":
                doc = json.loads(exports[1])
                assert doc["limit_report"].pop("recurrences")["pattern_consistent"] is True
                exports[1] = json.dumps(doc, indent=2, sort_keys=True)
            assert exports[0] == exports[1]
        capsys.readouterr()

    @pytest.mark.parametrize("trace", ["none", "steps"])
    def test_failed_check_exits_nonzero(self, tmp_path, trace):
        # both vectors route dependent and vanish, while the input spans the
        # plane: the prediction fails with or without tracing, and the
        # routing does not drift
        inp = write_frame(tmp_path / "tiny.json", 2, "real", [[1e-11, 0.0], [0.0, 1e-11]])
        out = tmp_path / "trace.json"
        rc = main(["iterate", "--input", inp, "--trace", trace, "--output", str(out)])
        assert rc == EXIT_CHECK_FAILED
        doc = json.loads(out.read_text())
        rep = doc["limit_report"]
        assert doc["dependent_indices"] == [1, 2] and rep["zero_indices"] == [1, 2]
        assert rep["prediction_match"] is False
        assert rep["surviving_indices"] == [] and rep["near_onb"] is False
        if trace == "steps":
            assert rep["recurrences"]["pattern_consistent"] is True

    def test_pattern_drift_is_reported_and_exits_zero(self, tmp_path):
        # pass 1 routes vector 1 independent, and in pass 2 its row falls
        # under the zero rule: the replayed passes reach the predicted limit,
        # so both runs exit 0, and the traced run reports the drift
        inp = write_frame(tmp_path / "huge.json", 2, "real", HUGE_VECTORS)
        codes, docs = [], []
        for trace in ("none", "steps"):
            out = tmp_path / f"trace-{trace}.json"
            codes.append(main(["iterate", "--input", inp, "--max-iter", "30", "--eps-delta", "0",
                               "--trace", trace, "--output", str(out)]))
            docs.append(json.loads(out.read_text()))
        assert codes == [EXIT_OK, EXIT_OK]
        assert docs[1]["limit_report"].pop("recurrences")["pattern_consistent"] is False
        assert docs[0] == docs[1]
        rep = docs[0]["limit_report"]
        assert docs[0]["dependent_indices"] == [3] and rep["zero_indices"] == [3]
        assert rep["prediction_match"] is True
        np.testing.assert_allclose(docs[0]["norms"][30], [0.983, 1.0, 0.183], atol=1e-3)

    def test_input_the_pass_misroutes_exits_nonzero(self, tmp_path, capsys):
        # the limit is all zero, while the span of either input is the plane
        for vectors in ([[1e-11, 0.0], [0.0, 1e-11]], [[1e-200, 0.0], [0.0, 1e-200], [1e-200, 1e-200]]):
            inp = write_frame(tmp_path / "frame.json", 2, "real", vectors)
            out = tmp_path / "trace.json"
            assert main(["iterate", "--input", inp, "--output", str(out)]) == EXIT_CHECK_FAILED
            rep = json.loads(out.read_text())["limit_report"]
            assert rep["surviving_indices"] == [] and rep["prediction_match"] is False
            assert "near-ONB: False" in capsys.readouterr().err

    def test_onb_stops_early(self, tmp_path, capsys):
        inp = write_frame(tmp_path / "onb.json", 2, "real", [[1.0, 0.0], [0.0, 1.0]])
        rc = main(["iterate", "--input", inp, "--output", str(tmp_path / "t.json")])
        assert rc == EXIT_OK
        assert "empirically stationary after 1 iterations" in capsys.readouterr().err


class TestDeterminism:
    def test_byte_identical_json_exports(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["iterate", "--example", "fig3", "--max-iter", "50",
                "--snapshot-stride", "10", "--eps-delta", "0"]
        main([*args, "--output", str(a)])
        main([*args, "--output", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_byte_identical_csv_exports(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["iterate", "--example", "fig1", "--max-iter", "30", "--eps-delta", "0",
                "--format", "csv"]
        main([*args, "--output", str(a)])
        main([*args, "--output", str(b)])
        assert a.read_bytes() == b.read_bytes()


def _lists(doc):
    if isinstance(doc, dict):
        return {k: _lists(v) for k, v in doc.items()}
    return doc.tolist() if isinstance(doc, np.ndarray) else doc


def _reference_dumps(doc):
    return json.dumps(_lists(doc), indent=2, sort_keys=True)


def _written(obj):
    buf = io.StringIO()
    _write_json(buf, obj)
    return buf.getvalue()


class TestJsonWriter:
    """The array-native writer against ``json.dumps`` of the list form."""

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("trace", [False, True])
    def test_trace_documents(self, field, trace):
        F = random_frame(3, 3, 7, field, 2)
        # every snapshot, a strided run and a single pass
        for max_iter, stride in ((12, 1), (12, 5), (1, 1)):
            tr = iterate(F, max_iter=max_iter, eps_delta=0.0, snapshot_stride=stride,
                         trace_steps=trace)
            doc = _trace_document(tr)
            doc["limit_report"] = {"zero_indices": [3, 5], "near_onb": True, "delta_zero": 0.5}
            assert isinstance(doc["snapshots"]["0"], np.ndarray)
            assert _written(doc) == _reference_dumps(doc)
            plain = trace_to_dict(tr)
            plain["limit_report"] = doc["limit_report"]
            assert _written(doc) == json.dumps(plain, indent=2, sort_keys=True)

    def test_edge_values(self):
        doc = {
            "floats": np.array([-0.0, 5e-324, 1e308, -1e308, 1e16, 1e-7, 0.1, 1.0 / 3.0]),
            "grid": np.array([[1e16, -0.0], [5e-324, 2.5]]),
            "cube": np.arange(24, dtype=np.float64).reshape(2, 3, 4) / 7.0,
            "one_by_one": np.array([[0.5]]),
            "scalar": np.array(2.0),
            "empty": np.zeros(0),
            "empty_rows": np.zeros((2, 0)),
            "empty_cols": np.zeros((0, 3)),
            "non_finite": np.array([[1.0, np.nan], [np.inf, -np.inf]]),
            "ints": [1, -2, 3],
            "int_array": np.arange(4),
            "bool_array": np.array([True, False]),
            "bools": [True, False],
            "none": None,
            "empty_list": [],
            "empty_dict": {},
            "nested": {"b": {"inner": np.array([1.5, -2.5])}, "a": [[1, 2], []], "c": {}},
            "strings": ["tab\tquote\"slash\\", "caf\u00e9 \u96ea \U0001f600", "line\nbreak"],
            "tab\tkey \u00e9": 1.0,
            "float": 1e-7,
            "nan": float("nan"),
        }
        assert _written(doc) == _reference_dumps(doc)
        for value in doc.values():
            assert _written(value) == _reference_dumps(value)


class TestStreamedExport:
    """The CLI writes each export to its handle as it walks the document."""

    @pytest.mark.parametrize("command", ["run", "iterate"])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_file_holds_the_stdout_bytes(self, tmp_path, capsysbinary, command, fmt, field):
        # stdout gets a JSON export's trailing newline, and a file does not
        inp = write_frame(tmp_path / "f.json", 3, field,
                          random_frame(5, 3, 8, field, 3).to_dict()["vectors"])
        extra = ["--max-iter", "9", "--snapshot-stride", "4", "--eps-delta", "0"] if command == "iterate" else []
        argv = [command, "--input", inp, *extra, "--format", fmt]
        assert main(argv) == EXIT_OK
        stdout = capsysbinary.readouterr().out
        out = tmp_path / "out"
        assert main([*argv, "--output", str(out)]) == EXIT_OK
        assert capsysbinary.readouterr().out == b""
        assert stdout.endswith(b"\n")
        assert out.read_bytes() == (stdout[:-1] if fmt == "json" else stdout)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_peak_grows_by_the_stored_snapshots(self, tmp_path, capsys, fmt):
        # the writer holds at most one array's text, so 75 more passes raise
        # the traced peak by about their 75 stored snapshots of 16 KB each,
        # not by their text
        F = random_frame(7, 16, 64, "complex", 16)
        inp = write_frame(tmp_path / "f.json", 16, "complex", F.to_dict()["vectors"])
        out = str(tmp_path / f"out.{fmt}")
        peaks = {}
        for max_iter in (25, 100):
            _array_template.cache_clear()   # each run builds its own templates
            tracemalloc.start()
            try:
                main(["iterate", "--input", inp, "--max-iter", str(max_iter), "--eps-delta", "0",
                      "--format", fmt, "--output", out])
                peaks[max_iter] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        capsys.readouterr()
        per_pass = (peaks[100] - peaks[25]) / 75
        assert per_pass <= 1.5 * F.vectors.nbytes, (per_pass, F.vectors.nbytes)

    def test_failed_write_midway_is_one_line(self, capsys):
        # /dev/full takes the open and refuses the bytes; a device is
        # written in place, never replaced by a part file
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this platform")
        assert main(["iterate", "--example", "fig1", "--max-iter", "200", "--eps-delta", "0",
                     "--output", "/dev/full"]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot write /dev/full: "), err
        assert stat.S_ISCHR(os.stat("/dev/full").st_mode)

    @pytest.mark.parametrize("command", ["run", "iterate"])
    @pytest.mark.parametrize("error", [lambda: OSError(28, "No space left on device"), MemoryError],
                             ids=["no-space", "out-of-memory"])
    def test_failed_export_keeps_the_old_file(self, tmp_path, capsys, monkeypatch, command, error):
        # the export goes to a part file beside PATH, which replaces it only
        # once the export is whole
        out = tmp_path / "out.json"
        out.write_bytes(b"old")
        out.chmod(0o640)

        def fail_midway(fh, obj, level=0):
            fh.write('{\n  "frame": ')
            fh.flush()   # the partial chunk reaches the file
            raise error()

        monkeypatch.setattr(framegs.cli, "_write_json", fail_midway)
        assert main([command, "--example", "fig1", "--output", str(out)]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err.splitlines()
        if error is MemoryError:
            assert err == ["error: cannot process fig1: out of memory"]
        else:
            assert err == [f"error: cannot write {out}: [Errno 28] No space left on device"]
        assert out.read_bytes() == b"old" and stat.S_IMODE(out.stat().st_mode) == 0o640
        assert os.listdir(tmp_path) == ["out.json"]

    def test_export_over_a_file_keeps_its_mode(self, tmp_path, capsys):
        out = tmp_path / "out.json"
        out.write_bytes(b"old")
        out.chmod(0o640)
        assert main(["run", "--example", "fig1", "--output", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["report"]["parseval_ok"] is True
        assert stat.S_IMODE(out.stat().st_mode) == 0o640
        assert os.listdir(tmp_path) == ["out.json"]

    def test_symlinked_output_stays_a_symlink(self, tmp_path, capsys):
        target = tmp_path / "target.json"
        target.write_bytes(b"old")
        link = tmp_path / "link.json"
        link.symlink_to(target)
        assert main(["run", "--example", "fig1", "--output", str(link)]) == EXIT_OK
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert json.loads(target.read_text())["report"]["parseval_ok"] is True
        assert sorted(os.listdir(tmp_path)) == ["link.json", "target.json"]

    @pytest.mark.parametrize("command, target", [("run", "_write_json"), ("iterate", "iterate")])
    def test_out_of_memory_is_one_line(self, capsys, monkeypatch, command, target):
        def fail(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(framegs.cli, target, fail)
        assert main([command, "--example", "fig1"]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["error: cannot process fig1: out of memory"]
        assert "Traceback" not in captured.out + captured.err


def test_closed_stdout_exits_quietly(tmp_path):
    # the reader takes one line and closes the pipe, as `| head -1` does;
    # the 1000 x 8 export is far larger than a pipe's buffer, so the
    # writer meets the closed pipe
    vectors = np.random.default_rng(44).normal(size=(1000, 8)).tolist()
    inp = write_frame(tmp_path / "f.json", 8, "real", vectors)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(framegs.__file__)))
    proc = subprocess.Popen([sys.executable, "-m", "framegs.cli", "run", "--input", inp],
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == EXIT_BROKEN_PIPE
    assert err == b""


def test_import_loads_no_numpy_random():
    """``import framegs, framegs.cli`` leaves numpy.random unloaded (it is
    only needed by the random generators), and those still work after."""
    code = (
        "import sys, framegs, framegs.cli\n"
        "assert 'numpy.random' not in sys.modules, 'numpy.random loaded at import'\n"
        "F = framegs.random_frame(0, 3, 5, 'complex', 1)\n"
        "assert F.vectors.shape == (5, 3) and 'numpy.random' in sys.modules\n"
        "sys.exit(framegs.cli.main(['verify', '--seed', '1102', '--random-frames', '2']))\n"
    )
    src = os.path.dirname(os.path.dirname(framegs.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "RESULT: PASS" in proc.stdout


class TestVerify:
    def test_small_battery_passes(self, capsys):
        rc = main(["verify", "--random-frames", "6"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "RESULT: PASS" in out
        for name in (
            "single_pass_parseval",
            "prefix_parseval",
            "dependent_oracle_match",
            "onb_fixed_points",
            "non_onb_movement",
            "last_vector_stabilization",
            "closed_form_decay",
            "recurrence_battery",
            "limit_classification",
            "gram_schmidt_degeneration",
            "zero_pattern_prediction",
            "near_dependence_routing",
            "l2_energy_identity",
        ):
            assert name in out

    def test_seed_changes_are_still_deterministic(self, capsys):
        rc1 = main(["verify", "--seed", "7", "--random-frames", "4"])
        out1 = capsys.readouterr().out
        rc2 = main(["verify", "--seed", "7", "--random-frames", "4"])
        out2 = capsys.readouterr().out
        assert rc1 == rc2 == EXIT_OK
        assert out1 == out2

    def test_failing_check_exits_one(self, capsys, monkeypatch):
        # a wrong dependent update breaks the checks that watch the pass;
        # verify must then print the failed line and exit 1
        import framegs.ggs as ggs

        exact = ggs._apply_dependent_update

        def perturbed(G, k, f, nf, w, buf):
            exact(G, k, f, nf, w, buf)
            G[k, 0] += 1e-6

        monkeypatch.setattr(ggs, "_apply_dependent_update", perturbed)
        rc = main(["verify", "--random-frames", "4"])
        lines = capsys.readouterr().out.splitlines()
        assert rc == EXIT_CHECK_FAILED
        assert lines[-1].startswith("RESULT: FAIL"), lines
        failed = [ln.split()[0] for ln in lines[1:-1] if ln.split()[3] == "FAIL"]
        assert "dependent_oracle_match" in failed, lines

    @pytest.mark.parametrize("argv", [
        ["verify", "--dep-tol", "0.1"],
        ["verify", "--delta-onb", "1"],
        ["iterate", "--example", "fig1", "--delta-zero", "0.5"],
        ["iterate", "--example", "fig1", "--delta-onb", "1"],
    ])
    def test_no_option_moves_a_check_threshold(self, argv, capsys):
        # a check's threshold is fixed in its definition; these options are gone
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_INPUT_ERROR
        assert capsys.readouterr().out == ""

    def test_frame_error_in_battery_is_one_line(self, capsys, monkeypatch):
        # the verify namespace has no --input or --example to name
        def fail(seed, n_frames):
            raise NonFiniteError("step 2: input vector norm is not finite")

        monkeypatch.setattr(framegs.cli, "run_battery", fail)
        assert main(["verify", "--random-frames", "2"]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: cannot process the verify battery: step 2: input vector norm is not finite"
        ]


def test_parseval_failure_exit_code(tmp_path, monkeypatch):
    # force a verification failure in `run` by breaking the tolerance:
    # a pass output is Parseval to ~1e-15, so a run cannot normally fail;
    # instead check the pass output at an impossible tolerance
    monkeypatch.setattr(framegs.frames, "PARSEVAL_TOL", 1e-30)
    out = tmp_path / "o.json"
    assert main(["run", "--example", "fig1", "--output", str(out)]) == EXIT_CHECK_FAILED
    assert json.loads(out.read_text())["report"]["parseval_residual"] > 0.0
