"""Span tracer for the traced benchmark run.

The tracer wraps every public function of the pccss layer modules at every
module binding that refers to it (so ``pccss.harness.sample_error`` is
traced as well as ``pccss.channel.sample_error``), and the scalar
``FieldSpec`` methods on the class.  Each call records one span: name,
start, end and the index of the enclosing span.  Spans stay in memory in
flat arrays and are written out once, when the run ends.

The tracer keeps one call stack, so it assumes the traced code runs on one
thread; the benchmark runs every library call with a single worker.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("galois", "matgf", "codes", "css", "stabcirc", "channel", "decode",
          "bounds", "harness", "cli")
SCALAR_METHODS = ("add", "mul", "inv", "pow")
SCALAR_PREFIX = "galois.FieldSpec."


def _shape_counts(tracer, args, kwargs, result):
    a, b = args[0], args[1]
    entries = a.rows * a.cols + b.rows * b.cols + a.rows * b.cols
    return {"ops": a.rows * a.cols * b.cols, "bytes": entries * a.data.itemsize}


def _flip_counts(tracer, args, kwargs, result):
    s = np.asarray(getattr(args[1], "values", args[1]))
    return {
        "flips": int(result.counters.get("flips", 0)),
        "corrected": int(result.status == "corrected"),
        "zero_syndrome": int(not s.any()),
    }


def _distance_counts(tracer, args, kwargs, result):
    q = args[0]
    side = (args[1] if len(args) > 1 else kwargs["side"]).lower()
    scanned = q.hx if side == "x" else q.hz
    # the unwrapped rref, so that this bookkeeping records no span
    rank = tracer.originals["matgf.rref"](scanned).rank
    return {"vectors": 2 ** (scanned.cols - rank)}


# Counters recorded at a span's boundary, from its arguments and result.
# matgf.mul's ops and bytes are computed from operand shapes, not measured.
COUNTERS = {
    "matgf.mul": _shape_counts,
    "decode.flip_decode": _flip_counts,
    "decode.exhaustive_decode": lambda t, a, k, r: {"cosets": int(r.counters.get("cosets", 0))},
    "css.distance_css": _distance_counts,
    "css.css_from_text": lambda t, a, k, r: {"bytes": len(a[0] if a else k["text"])},
    "css.css_to_text": lambda t, a, k, r: {"bytes": len(r)},
    "stabcirc.tableau_run": lambda t, a, k, r: {"gates": len(a[0].gates)},
}


class Tracer:
    """Records spans around calls into the pccss layers while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.counters: dict[str, dict[str, int]] = {}
        self.originals: dict[str, object] = {}
        self.recording = True
        self.marked = (None, self.counters)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------- recording

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        count = COUNTERS.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if count is not None:
                totals = self.counters.setdefault(name, {})
                for key, val in count(self, args, kwargs, result).items():
                    totals[key] = totals.get(key, 0) + val
            return result

        return traced

    def install(self) -> None:
        """Wrap the layer functions in every loaded pccss module and the
        scalar FieldSpec methods."""
        layers = {layer: importlib.import_module(f"pccss.{layer}") for layer in LAYERS}
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "pccss" or n.startswith("pccss."))]
        for layer, mod in layers.items():
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                self.originals[name] = fn
                wrapped = self._wrap(name, fn)
                for owner in modules:
                    for key, val in list(vars(owner).items()):
                        if val is fn:
                            self._patches.append((owner, key, fn))
                            setattr(owner, key, wrapped)
        FieldSpec = layers["galois"].FieldSpec
        for meth in SCALAR_METHODS:
            fn = vars(FieldSpec)[meth]
            self._patches.append((FieldSpec, meth, fn))
            setattr(FieldSpec, meth, self._wrap(SCALAR_PREFIX + meth, fn))

    def uninstall(self) -> None:
        for owner, key, fn in reversed(self._patches):
            setattr(owner, key, fn)
        self._patches.clear()

    @contextlib.contextmanager
    def paused(self):
        """Calls inside the block run unrecorded."""
        was, self.recording = self.recording, False
        try:
            yield
        finally:
            self.recording = was

    # ---------------------------------------------------------- analysis

    def arrays(self):
        return (np.array(self.name_id, dtype=np.int64),
                np.array(self.start, dtype=np.float64),
                np.array(self.end, dtype=np.float64),
                np.array(self.parent, dtype=np.int64))

    def mark(self) -> None:
        """Fix the spans and counters that layer_metrics reports: those
        recorded so far.  Call it with no span open."""
        self.marked = (len(self.start), {k: dict(v) for k, v in self.counters.items()})

    def totals(self, upto: int | None = None) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per span name over the first `upto` spans."""
        name_id, start, end, parent = (a[:upto] for a in self.arrays())
        own = self_times(start, end, parent)
        calls = np.bincount(name_id, minlength=len(self.names))
        secs = np.bincount(name_id, weights=own, minlength=len(self.names))
        return {n: (int(calls[i]), float(secs[i])) for i, n in enumerate(self.names)}

    def write(self, path: str) -> None:
        name_id, start, end, parent = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=name_id,
                            start=start, end=end, parent=parent)


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the time its direct child spans cover.

    Children of one span come from one call stack, so they never overlap and
    their durations add up to the time they cover.
    """
    dur = np.asarray(end, dtype=np.float64) - np.asarray(start, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
    return dur - covered


# Per-layer metrics: (name, unit, the end-to-end metric and workload it should
# move).  trials_per_s, build_s and certify_s are the run's op_s (seconds per
# operation) on mc, construct and certify: 1/op_s per trial, op_s per 2^14
# build and op_s per certification round.
LAYER_METRICS = (
    ("channel.sample_error.calls", "count", "trials_per_s on mc, mostly its dephasing batches"),
    ("channel.sample_error.self_s", "s", "trials_per_s on mc, mostly its dephasing batches"),
    ("decode.flip_decode.calls", "count", "trials_per_s on mc"),
    ("decode.flip_decode.self_s", "s", "trials_per_s on mc"),
    ("decode.flip_decode.flips", "count", "trials_per_s on mc, its biased batches"),
    ("decode.flip_decode.corrected_frac", "ratio", "x_fail_rate on mc"),
    ("decode.flip_decode.zero_syndrome_frac", "ratio", "trials_per_s on mc"),
    ("decode.pccss_decode_x.self_s", "s", "trials_per_s on mc"),
    ("decode.pccss_decode_z.calls", "count", "trials_per_s on mc"),
    ("decode.pccss_decode_z.self_s", "s", "trials_per_s on mc"),
    ("decode.bdd_alternant.self_s", "s", "certify_s on certify"),
    ("decode.exhaustive_decode.self_s", "s", "certify_s on certify"),
    ("decode.exhaustive_decode.cosets", "count", "certify_s on certify"),
    ("harness.run_trials.self_s", "s", "trials_per_s on mc"),
    ("harness.logical_check.calls", "count", "trials_per_s on mc"),
    ("harness.logical_check.self_s", "s", "trials_per_s on mc"),
    ("matgf.mul.calls", "count", "build_s on construct, certify_s on certify"),
    ("matgf.mul.self_s", "s", "build_s on construct, certify_s on certify"),
    ("matgf.mul.ops", "ops-computed", "build_s on construct, certify_s on certify"),
    ("matgf.mul.bytes", "bytes-computed", "build_s on construct, certify_s on certify"),
    ("matgf.rref.calls", "count", "build_s on construct, certify_s on certify"),
    ("matgf.rref.self_s", "s", "build_s on construct, certify_s on certify"),
    ("matgf.rank.self_s", "s", "build_s on construct, certify_s on certify"),
    ("matgf.nullspace.self_s", "s", "build_s on construct, certify_s on certify"),
    ("matgf.solve.self_s", "s", "build_s on construct, certify_s on certify"),
    ("matgf.mat_from_text.self_s", "s", "setup_s on mc, certify_s on certify"),
    ("matgf.mat_to_text.self_s", "s", "certify_s on certify"),
    ("codes.make_expander.self_s", "s", "build_s on construct"),
    ("codes.make_alternant.self_s", "s", "certify_s on certify"),
    ("css.fast_family.self_s", "s", "build_s on construct"),
    ("css.distance_css.calls", "count", "certify_s on certify"),
    ("css.distance_css.self_s", "s", "certify_s on certify"),
    ("css.distance_css.vectors", "count", "certify_s on certify"),
    ("css.check_valid.self_s", "s", "certify_s on certify"),
    ("css.css_from_text.self_s", "s", "setup_s on mc, certify_s on certify"),
    ("css.css_from_text.bytes", "bytes", "setup_s on mc, certify_s on certify"),
    ("css.css_to_text.self_s", "s", "certify_s on certify"),
    ("css.css_to_text.bytes", "bytes", "certify_s on certify"),
    ("stabcirc.build_encoder.self_s", "s", "certify_s on certify"),
    ("stabcirc.verify_encoder.self_s", "s", "certify_s on certify"),
    ("stabcirc.tableau_run.gates", "count", "certify_s on certify"),
    ("galois.scalar_ops", "count", "certify_s on certify"),
    ("galois.scalar.self_s", "s", "certify_s on certify"),
    ("bounds.rate_curves.self_s", "s", "certify_s on certify"),
    ("cli.main.calls", "count", "certify_s on certify"),
    ("cli.main.self_s", "s", "certify_s on certify"),
    ("trace.overhead", "ratio", "none: traced over untraced time of the same operations"),
)


def layer_metrics(tracer: Tracer, overhead: float) -> dict[str, float]:
    """Every LAYER_METRICS value from the spans and counters up to the mark."""
    upto, counters = tracer.marked
    totals = tracer.totals(upto)
    scalar = [v for n, v in totals.items() if n.startswith(SCALAR_PREFIX)]
    out = {}
    for name, _, _ in LAYER_METRICS:
        span, _, field = name.rpartition(".")
        calls, own = totals.get(span, (0, 0.0))
        counts = counters.get(span, {})
        if name == "trace.overhead":
            out[name] = overhead
        elif name == "galois.scalar_ops":
            out[name] = sum(c for c, _ in scalar)
        elif name == "galois.scalar.self_s":
            out[name] = sum(s for _, s in scalar)
        elif field == "calls":
            out[name] = calls
        elif field == "self_s":
            out[name] = own
        elif field.endswith("_frac"):
            out[name] = counts.get(field[: -len("_frac")], 0) / calls if calls else 0.0
        else:
            out[name] = counts.get(field, 0)
    return out
