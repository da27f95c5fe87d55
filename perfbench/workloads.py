"""The four benchmark workloads.

A workload generates its inputs from the seed in ``setup``, sets how
often the references that scale its timings are marked (``chunk_s``,
see reference.py), lists one
round of items (the closed loop repeats whole rounds, so every run sees
the same mix), and checks the first output of every item against an
independent numpy route in ``gate``, after the timed region.  Each item
returns its raw result from ``call``; ``digest`` hashes it (outside the
timed region) so repeats and traced runs can be compared bit for bit.

The package is reached only through its public functions, looked up on
the module at call time so that the traced run sees its wrappers.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import framegs as fg
import framegs.cli as fg_cli
import oracle

ITERATE_M = 100          # passes per frame in iterate-small
FIG1_M = 1000            # passes of the criterion-6 closed-form run
CLI_STEPS_M = 300        # iterate --trace steps length
CLI_LONG_M = 800         # iterate --snapshot-stride 1 length
CLI_VERIFY_FRAMES = 2    # verify --random-frames
# verify draws the shapes of its random frames from its --seed, and the
# battery's cost follows them (0.4-1.0 s per call between seeds), so it
# runs on a fixed seed; the run's seed generates the other CLI inputs.
VERIFY_SEED = 1102
RECURRENCE_TOL = 1e-12
# Frame shapes of the two corpora come from this fixed stream and the
# vectors from the run's seed, so every seed gets the same mix of sizes.
SHAPE_SEED = 1101


@dataclass(frozen=True)
class Item:
    key: str
    units: int                        # work units counted by the throughput metric
    call: Callable[[], object]        # the timed work
    digest: Callable[[object], tuple[str, object]]  # (hash, payload kept for the gate)
    reference: str = "compute"        # the reference that scales it (see reference.py)


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(repr((p.shape, p.dtype.str)).encode())
            h.update(np.ascontiguousarray(p).tobytes())
        elif isinstance(p, bytes):
            h.update(p)
        else:
            h.update(repr(p).encode())
        h.update(b"\0")
    return h.hexdigest()


def _fail_if(fails: list, cond: bool, msg: str):
    if cond:
        fails.append(msg)


# -- oneshot-small ------------------------------------------------------------


class OneshotSmall:
    """Criterion-1-style corpus, each frame through what ``framegs run``
    does: the pass, the Parseval check, input and output frame bounds,
    the dependency profile and the zero indices."""

    name = "oneshot-small"
    throughput = "frames_per_s"
    chunk_s = 0.1
    n_frames = 200

    def setup(self, seed, workdir):
        shapes = np.random.default_rng(SHAPE_SEED)
        rng = np.random.default_rng(seed)
        frames = []
        for t in range(self.n_frames):
            d = int(shapes.integers(2, 9))
            n = int(shapes.integers(d, 21))
            n_dep = 0
            if shapes.random() < 0.3:       # forced dependencies, spanning kept
                n = max(n, d + 1)
                n_dep = int(shapes.integers(1, min(n - d, 4) + 1))
            field = "complex" if t % 2 else "real"
            frames.append(fg.random_frame(rng, d, n, field, n_dep))
        self.frames = frames

    def warmup(self):
        for F in self.frames[:4]:
            self._one(F)

    @staticmethod
    def _one(F):
        G, _ = fg.ggs_pass(F)
        chk = fg.is_parseval(G)
        return (G, chk, fg.frame_bounds(F), fg.frame_bounds(G),
                fg.dependency_profile(F), fg.zero_indices(F))

    def items(self, inproc=False):
        def digest(out):
            G, chk, bF, bG, prof, zeros = out
            return _sha(G.vectors, chk.ok, chk.residual, tuple(bF), tuple(bG), prof, zeros), out

        return [Item(f"frame-{i:03d}", 1, (lambda F=F: self._one(F)), digest)
                for i, F in enumerate(self.frames)]

    def gate(self, payloads):
        out = {}
        for i, F in enumerate(self.frames):
            key = f"frame-{i:03d}"
            if key not in payloads:
                continue
            G, chk, bF, bG, prof, zeros = payloads[key]
            V = F.vectors
            fails = []
            gap = oracle.parseval_gap(G.vectors, V)
            _fail_if(fails, not gap <= oracle.PARSEVAL_TOL, f"parseval gap {gap:.3e}")
            _fail_if(fails, not (chk.ok and chk.residual <= oracle.PARSEVAL_TOL),
                     f"is_parseval {chk}")
            for label, got, frame in (("input", bF, V), ("output", bG, G.vectors)):
                lo, hi = oracle.operator_bounds(frame)
                tol = 1e-10 * max(1.0, hi)
                _fail_if(fails, not (abs(got[0] - lo) <= tol and abs(got[1] - hi) <= tol),
                         f"{label} bounds {tuple(got)} vs svd ({lo}, {hi})")
            want = oracle.dependent_rows(V)
            _fail_if(fails, prof != want, f"dependency_profile {prof} vs {want}")
            want = oracle.zero_rows(V)
            _fail_if(fails, zeros != want, f"zero_indices {zeros} vs {want}")
            out[key] = fails
        return out


# -- oneshot-large ------------------------------------------------------------


class OneshotLarge:
    """(n, d) in {(200, 64), (1000, 128)}, real and complex, n/4 forced
    dependents; each frame gets the pass and the Parseval check, and the
    d = 64 frames also the canonical Parseval frame (Jacobi at d = 64).
    Jacobi at d = 128 takes 2-5 s a call in pure Python, too few repeats
    for a steady median in one run, so the d = 128 frames stress the
    dense dependent-branch arithmetic of the pass instead, and are
    scaled by the ``dense`` reference."""

    name = "oneshot-large"
    throughput = "frames_per_s"
    chunk_s = 0.1
    shapes = ((200, 64, "real"), (200, 64, "complex"),
              (1000, 128, "real"), (1000, 128, "complex"))
    CANONICAL_MAX_D = 64

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.frames = [fg.random_frame(rng, d, n, field, n // 4) for n, d, field in self.shapes]

    def warmup(self):
        for field in ("real", "complex"):
            self._one(fg.random_frame(0, 8, 24, field, 6))

    @classmethod
    def _one(cls, F):
        G, _ = fg.ggs_pass(F)
        C = fg.canonical_parseval(F) if F.dim <= cls.CANONICAL_MAX_D else None
        return G, fg.is_parseval(G), C

    @staticmethod
    def _key(n, d, field):
        return f"{n}x{d}-{field}"

    def items(self, inproc=False):
        def digest(out):
            G, chk, C = out
            return _sha(G.vectors, chk.ok, chk.residual, None if C is None else C.vectors), out

        return [Item(self._key(*s), 1, (lambda F=F: self._one(F)), digest,
                     reference="compute" if F.dim <= self.CANONICAL_MAX_D else "dense")
                for s, F in zip(self.shapes, self.frames)]

    def gate(self, payloads):
        out = {}
        for s, F in zip(self.shapes, self.frames):
            key = self._key(*s)
            if key not in payloads:
                continue
            G, chk, C = payloads[key]
            V = F.vectors
            fails = []
            gap = oracle.parseval_gap(G.vectors, V)
            _fail_if(fails, not gap <= oracle.PARSEVAL_TOL, f"pass parseval gap {gap:.3e}")
            _fail_if(fails, not (chk.ok and chk.residual <= oracle.PARSEVAL_TOL),
                     f"is_parseval {chk}")
            if (C is None) != (F.dim > self.CANONICAL_MAX_D):
                fails.append("canonical frame computed for the wrong frames")
            elif C is not None:
                gap = oracle.parseval_gap(C.vectors, V)
                _fail_if(fails, not gap <= oracle.PARSEVAL_TOL, f"canonical parseval gap {gap:.3e}")
                dist = float(np.linalg.norm(C.vectors - oracle.polar_factor(V)))
                _fail_if(fails, not dist <= 1e-9, f"canonical vs polar factor {dist:.3e}")
            out[key] = fails
        return out


# -- iterate-small ------------------------------------------------------------


class IterateSmall:
    """Criterion-10-style corpus of 100 frames, each iterated ITERATE_M
    passes and classified, plus the criterion-6 closed-form run of fig1."""

    name = "iterate-small"
    throughput = "passes_per_s"
    chunk_s = 0.1
    n_frames = 100

    def setup(self, seed, workdir):
        shapes = np.random.default_rng(SHAPE_SEED)
        rng = np.random.default_rng(seed)
        frames = []
        for t in range(self.n_frames):
            d = int(shapes.integers(2, 9))
            n = int(shapes.integers(d + 1, 21))
            n_dep = int(shapes.integers(1, min(4, n - d) + 1))
            field = "complex" if t % 2 else "real"
            frames.append(fg.random_frame(rng, d, n, field=field, n_dependent=n_dep))
        self.frames = frames
        self.fig1 = fg.example_frame("fig1")

    def warmup(self):
        for F in self.frames[:2]:
            self._one(F)

    @staticmethod
    def _one(F):
        tr = fg.iterate(F, max_iter=ITERATE_M, eps_delta=0.0, snapshot_stride=ITERATE_M)
        return tr, fg.classify_limit(tr, delta_zero=2.0 / math.sqrt(ITERATE_M))

    def _fig1(self):
        return fg.iterate(self.fig1, max_iter=FIG1_M, eps_delta=0.0, snapshot_stride=FIG1_M)

    def items(self, inproc=False):
        def digest(out):
            tr, rep = out
            return _sha(tr.final.vectors, tr.norms, rep.zero_indices, rep.onb_residual,
                        rep.prediction_match), out

        def digest_fig1(tr):
            return _sha(tr.final.vectors, tr.norms), tr

        items = [Item(f"frame-{i:03d}", ITERATE_M, (lambda F=F: self._one(F)), digest)
                 for i, F in enumerate(self.frames)]
        items.append(Item("fig1-decay", FIG1_M, self._fig1, digest_fig1))
        return items

    def gate(self, payloads):
        out = {}
        for i, F in enumerate(self.frames):
            key = f"frame-{i:03d}"
            if key not in payloads:
                continue
            tr, rep = payloads[key]
            fails = []
            _fail_if(fails, tr.iterations_run != ITERATE_M, f"ran {tr.iterations_run} passes")
            _fail_if(fails, not rep.prediction_match, "prediction_match is false")
            want = tuple(sorted(set(oracle.dependent_rows(F.vectors)) | set(oracle.zero_rows(F.vectors))))
            _fail_if(fails, rep.zero_indices != want, f"zero set {rep.zero_indices} vs {want}")
            gap = oracle.parseval_gap(tr.final.vectors, F.vectors)
            _fail_if(fails, not gap <= oracle.PARSEVAL_TOL, f"final parseval gap {gap:.3e}")
            out[key] = fails
        if "fig1-decay" in payloads:
            tr = payloads["fig1-decay"]
            fails = []
            f_norm = float(np.linalg.norm(self.fig1.vectors[2]))
            err = oracle.closed_form_decay_error(tr.norms[1:, 2], f_norm)
            _fail_if(fails, tr.iterations_run != FIG1_M, f"ran {tr.iterations_run} passes")
            _fail_if(fails, not err <= 1e-8, f"closed-form decay off by {err:.3e}")
            final = float(tr.norms[-1, 2])
            _fail_if(fails, not abs(final - 1.0 / math.sqrt(1.0 + FIG1_M)) <= 1e-12,
                     f"final norm {final!r}")
            out["fig1-decay"] = fails
        return out


# -- cli-export ---------------------------------------------------------------


def package_env():
    """Environment of a child process that imports the package from src/."""
    src = os.path.dirname(os.path.dirname(fg.__file__))
    return dict(os.environ, PYTHONPATH=src)


def import_once(env):
    """A fresh process that only imports the package and its CLI."""
    subprocess.run([sys.executable, "-c", "import framegs, framegs.cli"], env=env, check=True)


def import_seconds(repeats):
    """Median wall time of ``import_once``."""
    env = package_env()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        import_once(env)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _inproc_main(argv):
    """``framegs.cli.main`` in this process, with its stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = fg_cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, buf.getvalue().encode()


def _read_vectors(data) -> np.ndarray:
    if data["field"] == "complex":
        return np.array([[complex(re, im) for re, im in row] for row in data["vectors"]])
    return np.array(data["vectors"], dtype=np.float64)


class CliExport:
    """The CLI in subprocesses, one after another: run and iterate with
    step tracing, JSON and CSV export, a snapshot-per-pass run and a
    small verify battery.  The traced run calls ``main`` in-process."""

    name = "cli-export"
    throughput = "cli_calls_per_s"
    chunk_s = 0.0

    def setup(self, seed, workdir):
        self.dir = os.path.join(workdir, "cli")
        os.makedirs(self.dir, exist_ok=True)
        rng = np.random.default_rng(seed)
        self.inputs = {
            "mid": fg.random_frame(rng, 16, 64, "complex", 16),
            "steps": fg.random_frame(rng, 6, 16, "real", 4),
            "long": fg.random_frame(rng, 4, 12, "complex", 3),
        }
        for name, F in self.inputs.items():
            with open(self._path(name + ".json"), "w", encoding="utf-8") as fh:
                json.dump(F.to_dict(), fh)

    def _path(self, name):
        return os.path.join(self.dir, name)

    def invocations(self):
        """key -> (argv, output file or None)."""
        p = self._path
        return {
            "run-steps": (["run", "--input", p("mid.json"), "--trace", "steps",
                           "--output", p("run.out.json")], p("run.out.json")),
            "iterate-steps-json": (["iterate", "--input", p("steps.json"), "--trace", "steps",
                                    "--max-iter", str(CLI_STEPS_M), "--eps-delta", "0",
                                    "--output", p("steps.out.json")], p("steps.out.json")),
            "iterate-steps-csv": (["iterate", "--input", p("steps.json"), "--trace", "steps",
                                   "--max-iter", str(CLI_STEPS_M), "--eps-delta", "0",
                                   "--format", "csv", "--output", p("steps.out.csv")],
                                  p("steps.out.csv")),
            "iterate-snapshots": (["iterate", "--input", p("long.json"), "--snapshot-stride", "1",
                                   "--max-iter", str(CLI_LONG_M), "--eps-delta", "0",
                                   "--output", p("long.out.json")], p("long.out.json")),
            "verify": (["verify", "--seed", str(VERIFY_SEED),
                        "--random-frames", str(CLI_VERIFY_FRAMES)], None),
        }

    def _subprocess(self, argv, env):
        proc = subprocess.run([sys.executable, "-m", "framegs.cli", *argv], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, check=False)
        return proc.returncode, proc.stdout

    def warmup(self):
        import_seconds(1)

    @staticmethod
    def startup_s():
        return import_seconds(3)

    def items(self, inproc=False):
        env = package_env()
        items = []
        for key, (argv, path) in self.invocations().items():
            if inproc:
                call = lambda argv=argv: _inproc_main(argv)  # noqa: E731
            else:
                call = lambda argv=argv: self._subprocess(argv, env)  # noqa: E731

            def digest(out, path=path):
                code, stdout = out
                data = b""
                if path is not None and os.path.exists(path):
                    with open(path, "rb") as fh:
                        data = fh.read()
                    os.remove(path)   # so a call that writes nothing cannot pass on old bytes
                return _sha(code, stdout, data), (code, stdout, data)

            items.append(Item(key, 1, call, digest, reference="process"))
        return items

    @staticmethod
    def output_bytes(payload):
        _, stdout, data = payload
        return len(stdout) + len(data)

    def gate(self, payloads):
        out = {}
        F = {k: v.vectors for k, v in self.inputs.items()}
        for key, (code, stdout, data) in payloads.items():
            fails = []
            _fail_if(fails, code != 0, f"exit code {code}")
            try:
                if key == "run-steps":
                    doc = json.loads(data)
                    rep = doc["report"]
                    gap = oracle.parseval_gap(_read_vectors(doc["frame"]), F["mid"])
                    _fail_if(fails, not gap <= oracle.PARSEVAL_TOL, f"parseval gap {gap:.3e}")
                    _fail_if(fails, rep["parseval_ok"] is not True, "parseval_ok is false")
                    deps = list(oracle.dependent_rows(F["mid"]))
                    _fail_if(fails, rep["dependent_indices"] != deps,
                             f"dependent_indices {rep['dependent_indices']} vs {deps}")
                    kinds = [i + 1 for i, k in enumerate(rep["step_kinds"]) if k == "dependent"]
                    _fail_if(fails, kinds != deps, f"dependent steps {kinds} vs {deps}")
                elif key in ("iterate-steps-json", "iterate-snapshots"):
                    src, m = ("steps", CLI_STEPS_M) if key == "iterate-steps-json" else ("long", CLI_LONG_M)
                    fails += self._check_iterate(json.loads(data), F[src], m,
                                                 recurrences=key == "iterate-steps-json")
                elif key == "iterate-steps-csv":
                    fails += self._check_csv(data, payloads.get("iterate-steps-json"))
                elif key == "verify":
                    last = stdout.decode().strip().splitlines()[-1:]
                    _fail_if(fails, not last or not last[0].startswith("RESULT: PASS"),
                             f"verify printed {last}")
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                fails.append(f"unreadable output: {exc!r}")
            out[key] = fails
        return out

    @staticmethod
    def _check_iterate(doc, V, m, recurrences):
        fails = []
        lim = doc["limit_report"]
        _fail_if(fails, doc["iterations_run"] != m, f"ran {doc['iterations_run']} passes")
        _fail_if(fails, lim["prediction_match"] is not True, "prediction_match is false")
        want = sorted(set(oracle.dependent_rows(V)) | set(oracle.zero_rows(V)))
        _fail_if(fails, lim["zero_indices"] != want, f"zero set {lim['zero_indices']} vs {want}")
        snaps = doc["snapshots"]
        final = _read_vectors({"field": doc["field"], "vectors": snaps[str(m)]})
        gap = oracle.parseval_gap(final, V)
        _fail_if(fails, not gap <= oracle.PARSEVAL_TOL, f"final parseval gap {gap:.3e}")
        if recurrences:
            rec = lim["recurrences"]
            worst = max(rec[k] for k in ("update_identity", "single_step_floor",
                                         "accumulated_floor", "shrink_ceiling", "tail_floor"))
            _fail_if(fails, not worst <= RECURRENCE_TOL, f"recurrence max_violation {worst:.3e}")
            _fail_if(fails, rec["pattern_consistent"] is not True, "pattern_consistent is false")
        return fails

    @staticmethod
    def _check_csv(data, json_payload):
        fails = []
        rows = list(csv.reader(io.StringIO(data.decode())))
        header, body = rows[0], rows[1:]
        if json_payload is None:
            return ["no JSON export to compare against"]
        doc = json.loads(json_payload[2])
        n, M = doc["n_vectors"], doc["iterations_run"]
        _fail_if(fails, header[:3] != ["iteration", "vector_index", "norm"], f"header {header[:3]}")
        _fail_if(fails, len(body) != (M + 1) * n, f"{len(body)} rows, expected {(M + 1) * n}")
        norms = [float(r[2]) for r in body]
        want = [x for row in doc["norms"] for x in row]
        _fail_if(fails, norms != want, "CSV norms differ from the JSON export")
        return fails


WORKLOADS = {w.name: w for w in (OneshotSmall, OneshotLarge, IterateSmall, CliExport)}
