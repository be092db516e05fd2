"""The benchmark's own tests: span arithmetic, the tail-percentile rule,
hook handling, the BENCHMARK.json contract, and a tiny run of every
workload through the same parent/child path the benchmark uses."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _span(name, start, end, parent):
    return [name, start, end, parent, None]


def test_self_time_subtracts_children_and_clips_overhang():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("a.inner", 2.0, 3.0, 1),
        _span("b", 5.0, 9.0, 0),
        _span("c", 8.0, 11.0, 0),   # overlaps b and runs past the root
    ]
    selfs = tracing.self_times(spans)
    assert not tracing.nested(spans)
    # root: 10 minus the union [1,4] + [5,10] = 10 - 8
    assert selfs == pytest.approx([2.0, 2.0, 1.0, 4.0, 3.0])
    assert min(selfs) >= 0.0


def test_self_times_of_a_nested_tree_sum_to_the_root_duration():
    spans = [_span("root", 0.0, 100.0, -1)]
    for k in range(10):
        spans.append(_span("child", 10.0 * k + 1, 10.0 * k + 6, 0))
        spans.append(_span("leaf", 10.0 * k + 2, 10.0 * k + 3, len(spans) - 1))
    selfs = tracing.self_times(spans)
    assert tracing.nested(spans)
    assert selfs[0] == pytest.approx(50.0)
    assert sum(selfs) == pytest.approx(100.0)


@pytest.mark.parametrize("n, percentile, value", [
    (0, 50.0, 0.0),
    (19, 50.0, 10),     # even p50 leaves only 9 above: fall back to the median
    (20, 50.0, 10),     # 11..20 lie above 10
    (99, 50.0, 50),
    (100, 90.0, 90),    # 91..100 lie above 90
    (1000, 99.0, 990),
    (10000, 99.9, 9990),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, percentile, value):
    values = list(range(n, 0, -1))
    p, v = tracing.tail_percentile(values)
    assert (p, v) == (percentile, value)
    if n >= 20:
        assert sum(1 for x in values if x > v) >= tracing.TAIL_MIN_BEYOND


def test_missing_hook_targets_are_absent_and_their_metrics_none():
    tracer = tracing.Tracer()
    tracer.install((
        ("nn.sgd_step", "pfdl.nn", "no_such_function", None),
        ("ghost.call", "pfdl_no_such_module", "anything", None),
    ))
    assert tracer.absent == ["nn.sgd_step", "ghost.call"]
    layers, _ = tracing.layer_metrics([], tracer.absent, run_s=1.0, eval_s=1.0,
                                   rounds=1, checkpoint_bytes=0, event_bytes=0)
    assert layers["nn.steps"] is None and layers["nn.share"] is None
    assert layers["matching.negatives_us"] == 0.0


def test_wrapped_calls_nest_and_are_restored():
    import types
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    sys.modules["_perfbench_fake"] = mod
    try:
        tracer = tracing.Tracer()
        tracer.install((("fake.outer", "_perfbench_fake", "outer", None),
                        ("fake.inner", "_perfbench_fake", "inner",
                         lambda args, kwargs, out: out)))
        with tracer.span("root"):
            assert mod.outer(3) == 8
        tracer.uninstall()
        assert mod.outer(3) == 8 and len(tracer.spans) == 3
    finally:
        del sys.modules["_perfbench_fake"]
    names = [(s[tracing.NAME], s[tracing.PARENT], s[tracing.NOTE]) for s in tracer.spans]
    assert names == [("root", -1, None), ("fake.outer", 0, None), ("fake.inner", 1, 4)]


def test_benchmark_json_matches_the_code():
    import run
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_of_each_workload(workload):
    import run
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert [*result["metrics"]] == [name for name, _ in run.PER_LAYER]
    assert result["metrics"]["trace.absent_hooks"]["value"] == 0
    assert result["metrics"]["nn.steps"]["value"] > 0


def test_smoke_end_to_end_metrics():
    import run
    proc = _bench("--workload", "pfeddil_stream", "--seed", "1", "--seconds", "1",
                  "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= run.MIN_CHILDREN
    assert [*result["metrics"]] == [name for name, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _bench("--workload", "pfeddil_stream", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
