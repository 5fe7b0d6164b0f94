"""Benchmark for pccss: Monte Carlo trial throughput, large-code
construction and small-code certification.

Run from the repository root:

    python3 perfbench/run.py --workload mc --seed 0 --seconds 30 --trace 0

The untraced run (--trace 0) reports the end-to-end metrics.  It measures
the operations in PROCESSES fresh interpreters, one after another, each for
its share of --seconds, and reports times at the reference speed of
hostspeed.py.  The traced run (--trace 1) runs in this process, wraps every
pccss layer in spans and reports per-layer metrics.  Human-readable lines
come first; the last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")
WORKLOAD_NAMES = ("mc", "construct", "certify")
IMPORT_REPEATS = 11  # child processes timing `import pccss`
SETUP_REPEATS = 4    # in-process set-ups; each Monte Carlo code loads once
# Measuring processes per untraced run.  The same operation on the same input
# runs up to 14% slower in one interpreter than in another at the same moment
# (memory placement), so the run takes its median over several.
PROCESSES = 5
PROCESS_TIMEOUT_S = 120
# One worker for every pool: BLAS threads are pinned before numpy loads, and
# PCCSS_WORKERS is removed so library calls keep their single-worker default.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Times `import pccss`, then the host speed reference twice in the same
# interpreter; the second sample, clear of first-call costs, scales the import.
IMPORT_PROBE = ("import time; t = time.perf_counter(); import pccss; "
                "seconds = time.perf_counter() - t; import hostspeed; "
                "speed = hostspeed.HostSpeed(); speed.sample(); speed.sample(); "
                "print(seconds, speed.scale(1), pccss.__file__)")


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=_nonnegative)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # a measuring process: run operations from --first on, at least --min-ops
    p.add_argument("--first", type=_nonnegative, default=None, help=argparse.SUPPRESS)
    p.add_argument("--min-ops", type=_nonnegative, default=1, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _in_src(path: str) -> bool:
    return os.path.abspath(path).startswith(os.path.join(SRC, "pccss") + os.sep)


def time_imports(env) -> list[tuple[float, float]]:
    """(seconds, scale) for `import pccss` (numpy included) in fresh
    interpreters; the scale takes the seconds to reference speed."""
    env = dict(env, PYTHONPATH=os.pathsep.join([SRC, os.path.dirname(os.path.abspath(__file__))]))
    samples = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        seconds, scale, path = proc.stdout.strip().split(maxsplit=2)
        if not _in_src(path):
            raise RuntimeError(f"imported pccss from {path}, not from {SRC}")
        samples.append((float(seconds), float(scale)))
    return samples


def blas_threads(np):
    """Thread count reported by numpy's bundled OpenBLAS, if it has one."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def op_hash(result) -> bytes:
    return hashlib.sha256(result.digest).digest() if result is not None else b"error"


def import_pccss():
    if not os.path.isdir(os.path.join(SRC, "pccss")):
        raise FileNotFoundError(f"no pccss sources under {SRC}")
    sys.path.insert(0, SRC)
    import pccss

    if not _in_src(pccss.__file__):
        raise RuntimeError(f"imported pccss from {pccss.__file__}, not from {SRC}")


def make_workload(args, make_inputs=True):
    import workloads

    work_dir = os.path.join(OUT, f"{args.workload}-s{args.seed}")
    os.makedirs(work_dir, exist_ok=True)
    return workloads.WORKLOADS[args.workload](args.seed, work_dir, make_inputs)


def attempt(wl, i):
    try:
        return wl.op(i)
    except Exception:  # a failing operation is counted, and the run goes on
        traceback.print_exc()
        return None


def measure(args) -> dict:
    """A measuring process: operations from args.first on, for args.seconds
    and at least args.min_ops of them.  Each operation's scale takes its
    time to reference speed, from the host speed samples around it."""
    import_pccss()
    import hostspeed

    wl = make_workload(args, make_inputs=False)
    speed = hostspeed.HostSpeed()
    if wl.host_scaled:
        wl.pace = speed.sample
    ops = []
    start = time.perf_counter()
    wl.pace()
    while len(ops) < args.min_ops or time.perf_counter() - start < args.seconds:
        first = len(speed.refs) - 1
        r = attempt(wl, args.first + len(ops))
        wl.pace()
        ops.append(None if r is None else {
            "seconds": r.seconds, "attempted": r.attempted, "failed": r.failed,
            "hash": op_hash(r).hex(), "stats": r.stats,
            "scale": speed.scale(first) if wl.host_scaled else 1.0,
        })
    return {"measured_s": time.perf_counter() - start, "peak_rss_mb": peak_rss_mb(), "ops": ops}


def measure_in_processes(args, env, prefix: int):
    """(raw results, results at reference speed, per-process records) from
    PROCESSES measuring processes run one after another.  The first runs
    the digest prefix; each shares the time that is left with those after it."""
    import workloads

    raw, scaled, records = [], [], []
    for j in range(PROCESSES):
        left = args.seconds - sum(rec["measured_s"] for rec in records)
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(max(0.0, left / (PROCESSES - j))),
               "--first", str(len(raw)), "--min-ops", str(prefix if j == 0 else 1)]
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=PROCESS_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise RuntimeError(f"measuring process {j} exited with code {proc.returncode}")
        record = json.loads(proc.stdout.splitlines()[-1])
        for op in record["ops"]:
            r = None if op is None else workloads.OpResult(
                op["seconds"], op["attempted"], op["failed"], bytes.fromhex(op["hash"]),
                op["stats"])
            raw.append(r)
            scaled.append(None if r is None else r.scaled(op["scale"]))
        records.append(record)
    return raw, scaled, records


def run(args) -> dict:
    prior_workers = os.environ.pop("PCCSS_WORKERS", None)
    os.environ.update(PINNED_ENV)
    if args.first is not None:
        return measure(args)
    import_pccss()
    env = dict(os.environ, PYTHONPATH=SRC)
    imports = time_imports(env)

    import hostspeed
    import numpy as np
    import spans
    import workloads
    from pccss.harness import ExperimentConfig

    conditions = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(np),
        "library_workers": ExperimentConfig(p=0.1, zeta=1.0, trials=1, n=2, n0=2)
        .resolved_partitions(),
        "cli_workers": int(workloads.CERTIFY_WORKERS),
        "measuring_processes": 1 if args.trace else PROCESSES,
        "PCCSS_WORKERS": "unset" if prior_workers is None else f"removed (was {prior_workers})",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    print("conditions " + json.dumps(conditions))

    wl = make_workload(args)
    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        wl.untraced = tracer.paused
        tracer.install()

    speed = hostspeed.HostSpeed()
    setup_samples = []
    for _ in range(SETUP_REPEATS):
        speed.sample()
        t0 = time.perf_counter()
        wl.setup()
        setup_samples.append(time.perf_counter() - t0)

    speed.sample()
    if tracer is None:
        wl.share()
        raw, results, records = measure_in_processes(args, env, wl.prefix)
    else:
        with tracer.paused():
            attempt(wl, 0)  # warm-up, so that the untraced reference pays no first-call costs
            reference = [attempt(wl, i) for i in range(wl.prefix)]
        results = []
        start = time.perf_counter()
        while len(results) < wl.prefix or time.perf_counter() - start < args.seconds:
            results.append(attempt(wl, len(results)))
            if len(results) == wl.prefix:
                # per-layer metrics cover set-up and the digest prefix, a fixed
                # amount of work, so their counts repeat for a seed
                tracer.mark()
        tracer.uninstall()

    done = [r for r in results if r is not None]
    attempted = sum(r.attempted for r in done) + results.count(None)
    failed = sum(r.failed for r in done) + results.count(None)
    # the run digest hashes the operations' hashed digests; measuring
    # processes send theirs hashed already
    digest = hashlib.sha256(b"\0".join(
        r.digest if tracer is None and r is not None else op_hash(r)
        for r in results[: wl.prefix]
    )).hexdigest()[:16]
    op_s, lines = wl.report(done) if done else (0.0, {})
    lines["failed_frac"] = (failed / attempted, "ratio")
    lines["setup.import_s"] = (statistics.median(t * f for t, f in imports), "s")
    lines["setup.code_s"] = (statistics.median(setup_samples) * speed.scale(), "s")
    for name, (value, unit) in lines.items():
        print(f"{args.workload}.{name} {value!r} {unit}")
    print(f"digest {digest}")

    if tracer is None:
        raw_done = [r for r in raw if r is not None]
        op_scales = [op["scale"] for rec in records for op in rec["ops"] if op is not None]
        print("host " + json.dumps({
            "raw_setup_s": statistics.median(t for t, _ in imports)
            + statistics.median(setup_samples),
            "raw_op_s": wl.report(raw_done)[0] if raw_done else 0.0,
            "setup_scale": speed.scale(),
            "import_scale_median": statistics.median(f for _, f in imports),
            "op_scale_median": statistics.median(op_scales) if op_scales else 1.0,
            "ops_per_process": [len(rec["ops"]) for rec in records],
        }))
        metrics = {
            "setup_s": (lines["setup.import_s"][0] + lines["setup.code_s"][0], "s"),
            "op_s": (op_s, "s"),
            "peak_rss_mb": (statistics.median(rec["peak_rss_mb"] for rec in records), "MB"),
        }
    else:
        ref_s = sum(r.seconds for r in reference if r is not None)
        traced_s = sum(r.seconds for r in results[: wl.prefix] if r is not None)
        overhead = traced_s / ref_s if ref_s else 0.0
        spans_file = os.path.join(OUT, f"spans-{args.workload}-s{args.seed}.npz")
        tracer.write(spans_file)
        print(f"trace overhead {overhead!r} over {wl.prefix} operations; "
              f"{len(tracer.start)} spans in {os.path.relpath(spans_file, ROOT)}")
        units = {name: unit for name, unit, _ in spans.LAYER_METRICS}
        metrics = {name: (value, units[name])
                   for name, value in spans.layer_metrics(tracer, overhead).items()}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = run(args)
    except (OSError, RuntimeError, ImportError, subprocess.SubprocessError) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
