"""Outside-in benchmark of the pfdl lab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. One parent process starts one fresh,
single-threaded Python child per measured run (child.py), one at a time,
until `--seconds` have passed (at least MIN_CHILDREN of them). The program
is imported from the checkout's own `src/`.

--trace 0 reports the end-to-end metrics: medians over the children, with
the sample count. --trace 1 alternates untraced and traced children and
reports the per-layer metrics from the traced ones, plus the tracing
overhead and coverage.

Outputs are checked in every run; a child that crashes, produces a
non-finite accuracy, disagrees with the other children's metrics.csv,
with its own `pfdl eval` re-read, or (traced) with the predicted step
count is counted as failed. Human-readable lines come first; the last
stdout line is the JSON result. A fuller record, with the machine block,
goes to .bench_out/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import reference
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

OUT = ROOT / ".bench_out"
SETUP_PROBES = 5        # set-up-only children per run, for a steady setup_s
MIN_CHILDREN = 3        # measured children per run with --trace 0
MIN_PAIRS = 2           # untraced/traced pairs per run with --trace 1
HARD_LIMIT_S = 165.0    # no child is started that would end past this

# (metric, unit); every --trace 0 JSON result reports exactly these. The
# *_ref_ timings are rescaled to the reference host speed (reference.py):
# on a shared host the raw wall times of one workload move by 15-25%
# between runs, the rescaled ones by 4-9%.
END_TO_END = (
    ("run_ref_s", "s"),
    ("steps_per_ref_s", "1/s"),
    ("eval_ref_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
# Printed with them but not in the JSON: the raw wall times; avg_final,
# which moves by more than any allowed bound from seed to seed at these
# run lengths; and error_rate, 0 when all is well (the JSON's failed /
# attempted).
PRINTED_ONLY = (
    ("run_s", "s"),
    ("steps_per_s", "1/s"),
    ("eval_s", "s"),
    ("host_ref_s", "s"),
    ("avg_final", "accuracy"),
    ("error_rate", "share"),
)

# Per-layer metrics reported in the --trace 1 JSON. These are measured on
# every workload; the layer metrics that read zero on some workload (the
# migration, matching-intensity, begin_task and ensemble per-call times)
# are printed and kept in the result file, and their share metrics are here.
TRACE_METRICS = (
    ("trace.overhead_s", "s"),
    ("trace.coverage", "share"),
    ("trace.absent_hooks", "count"),
)
PER_LAYER = tuple(
    (name, unit) for name, unit, _ in tracing.LAYER_METRICS
    if name not in {"client.migration_grad_us", "client.migration_loss_us",
                    "client.begin_task_ms", "matching.intensity_ms",
                    "evaluation.ensemble_ms", "evaluation.ensemble_rows_per_s"}
) + TRACE_METRICS


THREAD_VARS = ("PFDL_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                **{var: "1" for var in THREAD_VARS})


def machine_block(seed: int) -> dict:
    """Machine, toolchain and revision facts that every result carries."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    revision, dirty = "unknown (not a git checkout)", None
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
                capture_output=True, text=True).stdout.strip()
            dirty = bool(subprocess.run(
                ["git", "-C", str(ROOT), "status", "--porcelain"], check=True,
                capture_output=True, text=True).stdout.strip())
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: _child_env()[var] for var in THREAD_VARS},
        "revision": revision,
        "dirty": dirty,
        "seed": seed,
        "holdout_seed": workloads.HOLDOUT_SEED,
    }


class Runner:
    """Starts children one at a time and keeps what they report."""

    def __init__(self, args, scratch: Path):
        self.args = args
        self.scratch = scratch
        self.started = time.monotonic()
        self.env = _child_env()
        self.attempted = 0
        self.failures: list[str] = []
        self.durations: list[float] = []

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def can_start(self) -> bool:
        estimate = statistics.median(self.durations) if self.durations else 0.0
        return self.elapsed() + estimate < HARD_LIMIT_S

    def child(self, mode: str) -> dict | None:
        self.attempted += 1
        out = self.scratch / f"child{self.attempted:03d}"
        out.mkdir()
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--mode", mode, "--out", str(out)]
        if self.args.smoke:
            cmd.append("--smoke")
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd + ["--spawned-at", repr(t0)], env=self.env,
                                  cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                  timeout=max(1.0, HARD_LIMIT_S + 10 - self.elapsed()))
        except subprocess.TimeoutExpired:
            self.failures.append(f"child {self.attempted} ({mode}): timed out")
            return None
        if mode != "setup":
            self.durations.append(time.monotonic() - t0)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            self.failures.append(f"child {self.attempted} ({mode}): exit {proc.returncode}")
            return None
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            self.failures.append(f"child {self.attempted} ({mode}): no result line")
            return None
        result["dir"] = out
        return result

    def check(self, result: dict, first: dict | None) -> bool:
        """Output checks on one measured child; records the failure reason."""
        problems = []
        if not result["finite"]:
            problems.append("non-finite accuracy")
        if not result["eval_matches_run"]:
            problems.append("pfdl eval metrics.csv differs from the run's")
        if first is not None and result["metrics_sha256"] != first["metrics_sha256"]:
            problems.append("metrics.csv differs from the first child's at the same seed")
        if result["mode"] == "trace":
            if result["traced_steps"] is not None and result["traced_steps"] != result["steps"]:
                problems.append(f"traced {result['traced_steps']} SGD steps, "
                                f"predicted {result['steps']}")
            if not result["spans_nest"]:
                problems.append("spans do not nest inside their parents")
        if problems:
            self.failures.append(f"child {self.attempted} ({result['mode']}): "
                                 + "; ".join(problems))
        return not problems


def _summary(values, stat: str) -> dict:
    """How one reported value was formed from its samples."""
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"stat": stat, "n": len(values), "median": statistics.median(values),
            "q1": q[0], "q3": q[2]}


def measure(args, runner: Runner) -> tuple[dict, dict]:
    """Run the children; returns (metrics, details) for this run."""
    probes = (runner.child("setup") for _ in range(SETUP_PROBES) if runner.can_start())
    setup = [r["setup_s"] for r in probes if r is not None]
    good, first = [], None
    pattern = ("run", "trace") if args.trace else ("run",)
    minimum = MIN_PAIRS * 2 if args.trace else MIN_CHILDREN
    i = 0
    while runner.can_start() and (i < minimum or (runner.durations and (
            runner.elapsed() + statistics.median(runner.durations) <= args.seconds))):
        mode = pattern[i % len(pattern)]
        i += 1
        result = runner.child(mode)
        if result is None:
            continue
        spans = result["dir"] / "spans.jsonl"
        if spans.exists():
            keep = OUT / "traces" / f"{args.workload}-seed{args.seed}-child{runner.attempted:03d}.jsonl"
            keep.parent.mkdir(parents=True, exist_ok=True)
            shutil.move(str(spans), keep)
        shutil.rmtree(result["dir"])
        setup.append(result["setup_s"])
        if runner.check(result, first):
            first = first or result
            good.append(result)

    untraced = [r for r in good if r["mode"] == "run"]
    traced = [r for r in good if r["mode"] == "trace"]
    details = {"samples": {"setup_s": len(setup), "run": len(untraced),
                           "trace": len(traced)},
               "children": [{k: r[k] for k in ("mode", "setup_s", "run_s", "eval_s", "ref_s")}
                            for r in good],
               "setup_probes": setup[:SETUP_PROBES]}
    if not untraced or (args.trace and not traced):
        return {}, details

    runs = [r["run_s"] for r in untraced]
    if not args.trace:
        evals = [r["eval_s"] for r in untraced]
        rss = [r["peak_rss_mb"] for r in untraced]
        scale = [reference.REF_BASE_S / r["ref_s"] for r in untraced]
        runs_ref = [t * k for t, k in zip(runs, scale)]
        evals_ref = [t * k for t, k in zip(evals, scale)]
        steps = sum(r["steps"] for r in untraced)
        # Timings are means over the run's children, not medians: the host's
        # speed switches between two states about 1.5x apart at the scale of
        # one child, and the median of a handful of children jumps between
        # them (README, "Noise on a shared host").
        metrics = {
            "run_ref_s": statistics.fmean(runs_ref),
            "steps_per_ref_s": steps / sum(runs_ref),
            "eval_ref_s": statistics.fmean(evals_ref),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(rss),
            "run_s": statistics.fmean(runs),
            "steps_per_s": steps / sum(runs),
            "eval_s": statistics.fmean(evals),
            "host_ref_s": statistics.fmean(r["ref_s"] for r in untraced),
            "avg_final": untraced[0]["avg_final"],
        }
        details["summaries"] = {
            "run_ref_s": _summary(runs_ref, "mean"), "eval_ref_s": _summary(evals_ref, "mean"),
            "run_s": _summary(runs, "mean"), "eval_s": _summary(evals, "mean"),
            "host_ref_s": _summary([r["ref_s"] for r in untraced], "mean"),
            "setup_s": _summary(setup, "median"), "peak_rss_mb": _summary(rss, "median")}
        details["steps"] = untraced[0]["steps"]
        return metrics, details

    layers = {}
    absent = sorted(set().union(*(r["absent"] for r in traced)))
    for name, _, _ in tracing.LAYER_METRICS:
        vals = [r["layers"][name] for r in traced]
        layers[name] = None if None in vals else statistics.median(vals)
    traced_runs = [r["run_s"] for r in traced]
    layers["trace.overhead_s"] = statistics.fmean(traced_runs) - statistics.fmean(runs)
    layers["trace.coverage"] = statistics.median(r["coverage"] for r in traced)
    layers["trace.absent_hooks"] = len(absent)
    details.update({
        "absent": absent,
        "untraced_run_s": statistics.fmean(runs),
        "traced_run_s": statistics.fmean(traced_runs),
        "tail_percentile": traced[0]["tail_percentile"],
        "spans": traced[0]["spans"],
        "steps": traced[0]["steps"],
    })
    return layers, details


def report(args, metrics: dict, details: dict, machine: dict, runner: Runner) -> dict:
    """Print every metric by name with its unit; return the JSON result."""
    attempted, failed = runner.attempted, len(runner.failures)
    print(f"machine: {json.dumps(machine)}")
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"children={attempted} samples={json.dumps(details['samples'])}")
    for reason in runner.failures:
        print(f"FAILED {reason}")
    if args.trace:
        rows = [(n, u) for n, u, _ in tracing.LAYER_METRICS] + list(TRACE_METRICS)
    else:
        rows = list(END_TO_END + PRINTED_ONLY)
        metrics = metrics | {"error_rate": failed / attempted} if metrics else metrics
    for name, unit in rows:
        value = metrics.get(name)
        line = f"  {name:36s} {'absent' if value is None else f'{value:.6g}':>14s} {unit}"
        summary = details.get("summaries", {}).get(name)
        if summary:
            middle = "" if summary["stat"] == "median" else f"median {summary['median']:.6g}, "
            line += (f"  ({summary['stat']} of {summary['n']}; {middle}"
                     f"q1 {summary['q1']:.6g}, q3 {summary['q3']:.6g})")
        elif name == "error_rate":
            line += f"  ({failed} of {attempted} children failed)"
        print(line)
    if args.trace:
        print(f"  local-round tail is p{details.get('tail_percentile', 50):g}; "
              f"tracing overhead {metrics.get('trace.overhead_s', 0.0):+.3f} s on "
              f"{details.get('untraced_run_s', 0.0):.3f} s untraced; absent hooks: "
              f"{', '.join(details.get('absent', [])) or 'none'}")
    names = PER_LAYER if args.trace else END_TO_END
    return {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name) or 0.0, "unit": unit}
                    for name, unit in names} if metrics else {},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=42)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the benchmark's own tests")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be non-negative and --seconds positive")
    if not (ROOT / "src" / "pfdl" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'pfdl'}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        runner = Runner(args, scratch)
        metrics, details = measure(args, runner)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    machine = machine_block(args.seed)
    result = report(args, metrics, details, machine, runner)
    record = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.parent.mkdir(exist_ok=True)
    record.write_text(json.dumps({"machine": machine, "details": details,
                                  "all_metrics": metrics, "failures": runner.failures,
                                  "result": result}, indent=1, default=str) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
