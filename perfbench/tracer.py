"""In-memory span tracer for the per-layer run.

The tracer wraps package functions from outside.  ``install`` replaces
every framegs module attribute (and the listed ``FrameSeq`` members) bound
to a traced function with a wrapper that records a span: name, start,
end, parent span and the id of the benchmark item being processed.
``uninstall`` puts every original back and returns whatever it could not
restore, so a run can prove that no wrapper outlived it.

Counts are taken at the same boundaries: the passes, snapshots and step
traces of every ``iterate`` result, and the branch of every pass step
through ``_pass_array``'s ``on_step`` hook.  The hook is not set inside
the timed spans, where it would make the kernel take its instrumented
path: the kernel's inputs are kept, and ``flush`` replays them with the
hook after each benchmark item.
"""

import collections
import functools
import inspect
import sys
import time

# (layer, span label, module, attribute).  An attribute "Cls.member" is
# looked up on the class; everything else on the module.
TARGETS = (
    ("frames", "FrameSeq", "framegs.frames", "FrameSeq.__init__"),
    ("frames", "dependency_profile", "framegs.frames", "dependency_profile"),
    ("frames", "is_parseval", "framegs.frames", "is_parseval"),
    ("frames", "span_projection", "framegs.frames", "span_projection"),
    ("frames", "frame_bounds", "framegs.frames", "frame_bounds"),
    ("frames", "canonical_parseval", "framegs.frames", "canonical_parseval"),
    ("frames", "zero_indices", "framegs.frames", "zero_indices"),
    ("frames", "FrameSeq.from_dict", "framegs.frames", "FrameSeq.from_dict"),
    ("frames", "FrameSeq.to_dict", "framegs.frames", "FrameSeq.to_dict"),
    ("linalg", "as_field_array", "framegs.linalg", "as_field_array"),
    ("linalg", "hermitian_eigen", "framegs.linalg", "hermitian_eigen"),
    ("linalg", "inv_sqrt", "framegs.linalg", "inv_sqrt"),
    ("ggs", "ggs_pass", "framegs.ggs", "ggs_pass"),
    ("ggs", "_pass_array", "framegs.ggs", "_pass_array"),
    ("ggs", "_apply_dependent_update", "framegs.ggs", "_apply_dependent_update"),
    ("iteration", "iterate", "framegs.iteration", "iterate"),
    ("iteration", "classify_limit", "framegs.iteration", "classify_limit"),
    ("iteration", "validate_recurrences", "framegs.iteration", "validate_recurrences"),
    ("iteration", "trace_to_dict", "framegs.iteration", "trace_to_dict"),
    ("iteration", "trace_csv_rows", "framegs.iteration", "trace_csv_rows"),
    ("cli", "main", "framegs.cli", "main"),
)

# The verify layer reports the inclusive time of each check.
VERIFY_CHECKS = (
    "check_single_pass_parseval",
    "check_prefix_parseval",
    "check_dependent_oracle",
    "check_onb_fixed_points",
    "check_non_onb_movement",
    "check_last_vector_stabilization",
    "check_closed_form_decay",
    "check_recurrences",
    "check_limit_classification",
    "check_gram_schmidt_degeneration",
    "check_zero_pattern_prediction",
    "check_near_dependence_routing",
    "check_l2_identity",
)

STEP_KINDS = ("zero", "independent", "dependent")

_MARK = "__perfbench_wrapper__"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.items: list[int] = []
        self.item = -1
        self.paused = False    # set while flush replays: no spans are recorded
        self.counts = collections.Counter()
        self.warnings: list[str] = []
        self._stack: list[int] = []
        self._pending: list[tuple[tuple, dict]] = []
        self._pass = None
        self._patched: list[tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------

    def _span(self, name, fn, on_return=None):
        names, starts, ends = self.names, self.starts, self.ends
        parents, items, stack = self.parents, self.items, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            items.append(self.item)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_return is not None:
                on_return(out)
            return out

        setattr(wrapper, _MARK, True)
        return wrapper

    def _recording_pass(self, fn, timed):
        """Keep the arguments of every kernel call, so that ``flush`` can
        count its steps after the item, outside every span; the timed
        call itself runs exactly as the caller asked (hook-free unless
        the caller passed a hook)."""
        sig = inspect.signature(fn)
        if "on_step" not in sig.parameters:
            self.warnings.append("_pass_array has no on_step hook; step counts are 0")
            return timed
        self._pass = (fn, sig)
        pending = self._pending

        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            pending.append((args, kwargs))
            return timed(*args, **kwargs)

        setattr(recorded, _MARK, True)
        return recorded

    def flush(self):
        """Replay the kernel calls kept since the last flush with a branch
        counter in the ``on_step`` hook.  The kernel never writes its
        input and the package never writes an array once passed on, so
        the replay sees the inputs of the timed calls."""
        if not self._pending:
            return
        fn, sig = self._pass
        first = next(iter(sig.parameters))
        self.paused = True
        try:
            for args, kwargs in self._pending:
                bound = sig.bind(*args, **kwargs)
                bound.arguments["on_step"] = self._step_counter(bound.arguments[first])
                fn(*bound.args, **bound.kwargs)
        finally:
            self.paused = False
            self._pending.clear()

    def _step_counter(self, V):
        counts = self.counts
        d = V.shape[1]
        fmac, fop = (8, 2) if V.dtype.kind == "c" else (2, 1)   # flops per multiply-add, per scale/add
        size = V.dtype.itemsize

        def hook(k, kind, G, w, before):
            counts["steps." + kind] += 1
            if kind != "zero":
                # model: each product with the k x d prefix streams it once;
                # the dependent update reads it twice more and writes it once
                macs = (4 if kind == "dependent" else 2) * k * d + d
                counts["flops"] += fmac * macs + fop * 2 * d
                passes = 5 if kind == "dependent" else 2
                counts["bytes"] += size * (passes * k * d + 3 * d)

        return hook

    def _count_iterate(self, trace):
        self.counts["iteration.passes"] += trace.iterations_run
        self.counts["iteration.snapshots"] += len(trace.snapshots)
        if trace.step_traces:
            self.counts["iteration.step_traces"] += sum(len(v) for v in trace.step_traces.values())

    def _replace(self, owner, attr, new):
        self._patched.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_function(self, module, attr, name, make):
        orig = getattr(module, attr, None)
        if orig is None:
            self.warnings.append(f"{module.__name__}.{attr} not found; {name} not traced")
            return
        wrapper = make(orig)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "framegs" or mod_name.startswith("framegs."):
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._replace(mod, key, wrapper)

    def _patch_member(self, cls, member, name):
        raw = cls.__dict__.get(member)
        if raw is None:
            self.warnings.append(f"{cls.__name__}.{member} not found; {name} not traced")
            return
        if isinstance(raw, classmethod):
            new = classmethod(self._span(name, raw.__func__))
        else:
            new = self._span(name, raw)
        self._replace(cls, member, new)

    def install(self):
        for layer, label, mod_name, attr in TARGETS:
            name = f"{layer}.{label}"
            module = sys.modules[mod_name]
            if "." in attr:
                cls_name, member = attr.split(".")
                self._patch_member(getattr(module, cls_name), member, name)
                continue
            if label == "_pass_array":
                make = lambda fn, n=name: self._recording_pass(fn, self._span(n, fn))  # noqa: E731
            elif label == "iterate":
                make = lambda fn, n=name: self._span(n, fn, self._count_iterate)  # noqa: E731
            else:
                make = lambda fn, n=name: self._span(n, fn)  # noqa: E731
            self._patch_function(module, attr, name, make)
        verify = sys.modules["framegs.verify"]
        for check in VERIFY_CHECKS:
            self._patch_function(verify, check, f"verify.{check}",
                                 lambda fn, n=f"verify.{check}": self._span(n, fn))

    def uninstall(self) -> list[str]:
        """Restore every original; return the attributes still wrapped."""
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()
        left = []
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "framegs" or mod_name.startswith("framegs."):
                for key, value in vars(mod).items():
                    if getattr(value, _MARK, False):
                        left.append(f"{mod_name}.{key}")
                    elif isinstance(value, type) and value.__module__ == mod_name:
                        for member, raw in vars(value).items():
                            if getattr(getattr(raw, "__func__", raw), _MARK, False):
                                left.append(f"{mod_name}.{key}.{member}")
        return left

    # -- results --------------------------------------------------------

    def per_name(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, inclusive seconds, self seconds).  Self time is
        a span's duration minus the durations of its direct children."""
        n = len(self.starts)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, list] = {}
        for i, name in enumerate(self.names):
            rec = out.setdefault(name, [0, 0.0, 0.0])
            rec[0] += 1
            rec[1] += dur[i]
            rec[2] += dur[i] - child[i]
        return {k: tuple(v) for k, v in out.items()}

    def write_spans(self, path):
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start_s,end_s,parent,item\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i},{name},{self.starts[i] - t0:.9f},{self.ends[i] - t0:.9f},"
                         f"{self.parents[i]},{self.items[i]}\n")
