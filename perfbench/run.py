"""framegs benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload from the repository root: generates its inputs from the
seed, repeats whole rounds of items in a closed loop with a single caller
for about S seconds (at least one round), checks every output against an
independent numpy route, and prints the metrics.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.

Timings of end-to-end metrics are scaled by the host's speed, measured
by fixed reference work of the item's own kind timed between the items
(see reference.py), and each item is taken at the median of its scaled
repeats.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
runs the rounds that fit in a third of S untraced, then as many rounds
traced (spans around the package's functions, kept in memory), requires
bitwise-identical outputs from both, and reports the per-layer metrics of
one round.  Spans and a result record with the run metadata are written
under .perfbench_out/.

The package is imported from src/; BLAS is held to one thread.
"""

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Record:
    key: str
    seconds: float
    units: int
    digest: str | None
    error: str | None
    start: float
    reference: str   # kind of reference that scales it
    scaled: float    # seconds at the reference's nominal host speed; measured if unscaled


@dataclass
class Phase:
    records: list = field(default_factory=list)
    payloads: dict = field(default_factory=dict)   # key -> first payload
    rounds: int = 0

    @property
    def busy_s(self) -> float:
        return sum(r.seconds for r in self.records)

    def key_median(self) -> dict[str, float]:
        """Median scaled latency of each item over the rounds.  The work
        of a repeat does not change (its output hash is checked), so the
        repeats differ only by what scaling left of the host's noise."""
        by_key: dict[str, list[float]] = {}
        for r in self.records:
            by_key.setdefault(r.key, []).append(r.scaled)
        return {k: statistics.median(v) for k, v in by_key.items()}

    def typical_round(self) -> tuple[int, float]:
        """(work units, seconds) of one round rebuilt from the per-item
        median scaled latencies."""
        units = {r.key: r.units for r in self.records}
        return sum(units.values()), sum(self.key_median().values())

    def host_slowdown(self) -> float:
        """Median of measured over scaled time: how much slower than the
        references' nominal speed the host ran."""
        return statistics.median(r.seconds / r.scaled for r in self.records)


def run_rounds(items, seconds=None, rounds=None, tracer=None, refs=None, chunk_s=0.0) -> Phase:
    """Closed loop with one caller: whole rounds (at least one) while the
    next round, taking as long as the last one, still ends within
    ``seconds``; or exactly ``rounds`` rounds.  With references (kind ->
    Reference), each is marked before the first item, whenever the items
    since the last mark have taken ``chunk_s``, and after the last item,
    and every item is scaled by the marks of its kind around it; without,
    scaled equals measured."""
    phase = Phase()
    clock = time.perf_counter
    since_mark = 0.0

    def mark():
        for ref in refs.values():
            ref.mark()

    if refs:
        mark()
    start = last = clock()
    item_id = 0
    while True:
        now = clock()
        if rounds is not None:
            if phase.rounds >= rounds:
                break
        elif phase.rounds and (now - start) + (now - last) > seconds:
            break
        last = now
        for it in items:
            if tracer is not None:
                tracer.item = item_id
            t0 = clock()
            try:
                out, err = it.call(), None
            except Exception as exc:  # the item failed; count it and go on
                out, err = None, f"{type(exc).__name__}: {exc}"
            dt = clock() - t0
            if tracer is not None:
                tracer.item = -1
                tracer.flush()
            digest = None
            if err is None:
                digest, payload = it.digest(out)
                phase.payloads.setdefault(it.key, payload)
            phase.records.append(Record(it.key, dt, it.units, digest, err, t0, it.reference, dt))
            item_id += 1
            since_mark += dt
            if refs and since_mark >= chunk_s:
                mark()
                since_mark = 0.0
        phase.rounds += 1
    if refs:
        if since_mark:
            mark()
        for r in phase.records:
            r.scaled = r.seconds * refs[r.reference].factor(r.start, r.start + r.seconds)
    return phase


def count_failures(phase, gate, reference) -> tuple[int, list[str]]:
    """An item fails when it raised, when its output missed the gate, or
    when its digest differs from the reference digest of its key."""
    failed = 0
    notes: dict[str, str] = {}
    for r in phase.records:
        why = r.error or "; ".join(gate.get(r.key, ["not checked"]))
        if not why and r.digest != reference.get(r.key):
            why = "output differs from the first run of the same item"
        if why:
            failed += 1
            notes.setdefault(r.key, why)
    return failed, [f"{k}: {v}" for k, v in notes.items()]


def first_digests(phase) -> dict:
    ref = {}
    for r in phase.records:
        if r.digest is not None:
            ref.setdefault(r.key, r.digest)
    return ref


def run_gate(wl, payloads) -> dict:
    try:
        return wl.gate(payloads)
    except Exception as exc:  # a crashing gate fails every item
        return {k: [f"gate raised {type(exc).__name__}: {exc}"] for k in payloads}


def latency_stats(phase) -> dict:
    """p50 (and p90 when at least 10 items lie beyond it) over the items
    of a round, each item counted once at its median scaled latency."""
    ms = sorted(1e3 * v for v in phase.key_median().values())
    out = {"samples": len(phase.records), "items": len(ms), "p50": statistics.median(ms)}
    if len(ms) >= 2:
        p90 = statistics.quantiles(ms, n=10)[-1]
        beyond = sum(x > p90 for x in ms)
        if beyond >= 10:
            out["p90"] = p90
            out["beyond_p90"] = beyond
    return out


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0


# -- metadata ---------------------------------------------------------------


def _blas_threads(np):
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "lib*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_commit():
    """HEAD of the checkout, or None outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def metadata(args, np, loadavg):
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = None
    try:
        threads = _blas_threads(np)
    except OSError:
        threads = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg_at_start": loadavg,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads if threads is not None else os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": _git_commit(),
    }


# -- per-layer metrics --------------------------------------------------------


def layer_metrics(tracer_mod, tracer, rounds) -> dict:
    """Counts, times and bytes of one round: the traced rounds' totals
    over their number, so the figures do not grow with the rounds that
    fit in the run."""
    per = tracer.per_name()
    counts = tracer.counts
    m = {}

    def add(name, total, unit):
        m[name] = (total / rounds, unit)

    for layer, label, _, _ in tracer_mod.TARGETS:
        calls, _, self_s = per.get(f"{layer}.{label}", (0, 0.0, 0.0))
        add(f"{layer}.{label}.calls", calls, "count")
        add(f"{layer}.{label}.self_s", self_s, "s")
    steps = {k: counts[f"steps.{k}"] for k in tracer_mod.STEP_KINDS}
    for kind, n in steps.items():
        add(f"ggs.steps.{kind}", n, "count")
    n_steps = sum(steps.values())
    pass_total = per.get("ggs._pass_array", (0, 0.0, 0.0))[1]
    m["ggs.us_per_step"] = (1e6 * pass_total / n_steps if n_steps else 0.0, "us")
    add("ggs.flops_computed", counts["flops"], "flop")
    add("ggs.bytes_computed", counts["bytes"], "B")
    add("iteration.passes", counts["iteration.passes"], "count")
    add("iteration.snapshots_stored", counts["iteration.snapshots"], "count")
    add("iteration.step_traces_stored", counts["iteration.step_traces"], "count")
    for check in tracer_mod.VERIFY_CHECKS:
        add(f"verify.{check}.total_s", per.get(f"verify.{check}", (0, 0.0, 0.0))[1], "s")
    return m


# -- the two kinds of run -----------------------------------------------------


def run_plain(wl, seconds, env):
    from reference import Reference

    items = wl.items()
    kinds = {it.reference for it in items}
    # dense first, so that no item starts right after it has streamed 2 MB
    refs = {k: Reference(k, env) for k in ("dense", "compute", "process") if k in kinds}
    phase = run_rounds(items, seconds=seconds, refs=refs, chunk_s=wl.chunk_s)
    rss = peak_rss_mb()
    gate = run_gate(wl, phase.payloads)
    failed, notes = count_failures(phase, gate, first_digests(phase))
    units, round_s = phase.typical_round()
    lat = latency_stats(phase)
    shown = {
        wl.throughput: (units / round_s, "1/s"),
        "latency_ms.p50": (lat["p50"], "ms"),
    }
    if "p90" in lat:
        shown["latency_ms.p90"] = (lat["p90"], "ms")
    shown["peak_rss_mb"] = (rss, "MB")
    metrics = {
        "throughput_per_s": shown[wl.throughput],
        "latency_ms.p50": shown["latency_ms.p50"],
        "peak_rss_mb": shown["peak_rss_mb"],
    }
    info = {"rounds": phase.rounds, "host_slowdown": phase.host_slowdown(),
            "latency_samples": lat["samples"],
            "latency_items": lat["items"], "beyond_p90": lat.get("beyond_p90", 0),
            "item_seconds": [[r.key, r.seconds, r.scaled] for r in phase.records]}
    return len(phase.records), failed, notes, metrics, shown, info


def run_traced(wl, seconds, tag):
    import tracer as tracer_mod

    items = wl.items(inproc=True)
    plain = run_rounds(items, seconds=seconds / 3.0)
    tr = tracer_mod.Tracer()
    try:
        tr.install()
        traced = run_rounds(items, rounds=plain.rounds, tracer=tr)
    finally:
        left = tr.uninstall()
    gate = run_gate(wl, plain.payloads)
    ref = first_digests(plain)
    failed_a, notes_a = count_failures(plain, gate, ref)
    failed_b, notes_b = count_failures(traced, gate, ref)
    notes = notes_a + [f"traced {n}" for n in notes_b]
    failed = failed_a + failed_b
    if left:
        notes.append(f"wrappers left installed: {left}")
        failed += 1
    metrics = layer_metrics(tracer_mod, tr, traced.rounds)
    bytes_out = 0
    if hasattr(wl, "output_bytes"):
        bytes_out = sum(wl.output_bytes(traced.payloads[k]) for k in traced.payloads)
    metrics["cli.startup_s"] = (wl.startup_s() if hasattr(wl, "startup_s") else 0.0, "s")
    metrics["cli.bytes_out"] = (bytes_out, "B")
    metrics["trace.overhead_ratio"] = (traced.busy_s / plain.busy_s, "ratio")
    OUT.mkdir(exist_ok=True)
    tr.write_spans(OUT / f"spans-{tag}.csv")
    info = {"rounds": plain.rounds, "spans": len(tr.names),
            "untraced_s": plain.busy_s, "traced_s": traced.busy_s, "warnings": tr.warnings}
    attempted = len(plain.records) + len(traced.records)
    return attempted, failed, notes, metrics, metrics, info


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


def main(argv=None) -> int:
    loadavg = list(os.getloadavg())
    args = parse_args(argv)
    if not (ROOT / "src" / "framegs" / "__init__.py").is_file():
        print(f"error: framegs sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))

    import framegs  # noqa: F401
    import framegs.cli  # noqa: F401
    import numpy as np
    import workloads
    from reference import Reference

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    meta = metadata(args, np, loadavg)
    wl = workloads.WORKLOADS[args.workload]()
    OUT.mkdir(exist_ok=True)
    env = workloads.package_env()
    import_s = Reference("process", env).scaled(lambda: workloads.import_once(env), SETUP_REPEATS)
    gen_s = Reference("compute").scaled(lambda: wl.setup(args.seed, str(OUT)), SETUP_REPEATS)
    setup_s = import_s + gen_s
    wl.warmup()

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        attempted, failed, notes, metrics, shown, info = run_traced(wl, args.seconds, tag)
        wanted = [m["name"] for m in spec["per_layer"]]
    else:
        attempted, failed, notes, metrics, shown, info = run_plain(wl, args.seconds, env)
        metrics["setup_s"] = shown["setup_s"] = (setup_s, "s")
        wanted = [m["name"] for m in spec["end_to_end"]]
    if set(wanted) != set(metrics):
        print(f"error: metrics {sorted(set(metrics) ^ set(wanted))} do not match BENCHMARK.json",
              file=sys.stderr)
        return 1

    print(f"# {tag}")
    print("meta " + json.dumps(meta, sort_keys=True))
    print("run " + json.dumps({k: v for k, v in info.items() if k != "item_seconds"},
                              sort_keys=True))
    for name, (value, unit) in shown.items():
        print(f"{name:<44} {value!r:>24} {unit}")
    if not args.trace:
        print(f"{'latency samples':<44} {info['latency_samples']:>24} "
              f"({info['latency_items']} items per round, each at its median)")
        print(f"{'host slowdown (measured / scaled)':<44} {info['host_slowdown']!r:>24}")
    for warning in info.get("warnings", ()):
        print("WARN " + warning)
    print(f"{'fail_ratio':<44} {failed / attempted!r:>24} ({failed}/{attempted} items)")
    for note in notes:
        print("FAIL " + note)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in wanted},
    }
    with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "run": info, "notes": notes,
                   "shown": {k: list(v) for k, v in shown.items()}, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
