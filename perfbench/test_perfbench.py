"""Self-tests for the benchmark: python3 -m pytest -q perfbench"""
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_self_time_of_a_synthetic_nest():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 8]
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 8.0]
    parent = [-1, 0, 0, 2]
    assert spans.self_times(start, end, parent).tolist() == [3.0, 3.0, 2.0, 2.0]


def test_scaling_touches_only_times():
    r = workloads.OpResult(2.0, 10, 1, b"x", {"biased_s": 1.0, "biased_x_failures": 3,
                                             "stages": {"distance": 0.5}})
    s = r.scaled(0.5)
    assert (s.seconds, s.attempted, s.failed, s.digest) == (1.0, 10, 1, b"x")
    assert s.stats == {"biased_s": 0.5, "biased_x_failures": 3, "stages": {"distance": 0.25}}


def test_host_scale_is_the_median_from_the_first_sample_on():
    speed = hostspeed.HostSpeed()
    speed.refs = [9.0, hostspeed.REF_S, 2 * hostspeed.REF_S, 3 * hostspeed.REF_S]
    assert speed.scale(1) == 0.5


def test_tracer_wraps_every_binding_and_restores_them():
    from pccss import channel, harness

    original = channel.sample_error
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert harness.sample_error is channel.sample_error is not original
        cfg = harness.ExperimentConfig(p=0.1, zeta=10.0, trials=3, n=64, n0=4, seed=0)
        from pccss.css import fast_family

        harness.run_trials(cfg, code=fast_family(64, 4, 3, 6, 0, validate=False))
    finally:
        tracer.uninstall()
    assert harness.sample_error is channel.sample_error is original
    name_id, start, end, parent = tracer.arrays()
    names = [tracer.names[i] for i in name_id]
    sampled = [i for i, n in enumerate(names) if n == "channel.sample_error"]
    assert len(sampled) == 3
    assert all(names[parent[i]] == "harness.run_trials" for i in sampled)
    totals = tracer.totals()
    run_span = names.index("harness.run_trials")
    assert totals["harness.run_trials"][1] < end[run_span] - start[run_span]
    assert np.all(spans.self_times(start, end, parent) >= 0)


def test_names_and_units_are_well_formed():
    bench = load_benchmark()
    metrics = bench["end_to_end"] + bench["per_layer"]
    names = [w["name"] for w in bench["workloads"]] + [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(UNIT.fullmatch(m["unit"]) for m in metrics)
    layer = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    assert layer == [(name, unit) for name, unit, _ in spans.LAYER_METRICS]


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_listed_metric_is_printed(trace, section):
    bench = load_benchmark()
    proc = subprocess.run(
        bench["command"] + ["--workload", "construct", "--seed", "0", "--seconds", "0",
                            "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    listed = {m["name"]: m["unit"] for m in bench[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == listed
