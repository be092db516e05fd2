"""One measured run of one workload, in a fresh single-threaded process.

Started by run.py, never by hand. Modes:
  setup  import, config parse and build_datasets, then exit
  run    setup, then run_experiment into a run directory and `pfdl eval`
         on it, untraced
  trace  the same as run, with every hook in tracing.HOOKS installed

Only stable entry points are called for the end-to-end numbers:
pfdl.config.benchmark_config, pfdl.federation.run_experiment and the
`pfdl eval` CLI through pfdl.cli.main. build_datasets marks the end of
set-up. The reference kernel (reference.py) runs just before the run and
just after the eval, to rescale them to the reference host speed. The last
stdout line is one JSON object with the measurements.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _accuracies(metrics_csv: Path) -> list[tuple[int, int, float]]:
    with open(metrics_csv, newline="") as fh:
        return [(int(r["n"]), int(r["m"]), float(r["accuracy"]))
                for r in csv.DictReader(fh)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() in the parent just before the spawn")
    ap.add_argument("--out", required=True, help="scratch directory for this child")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    import workloads
    from pfdl import cli, federation
    from pfdl.config import benchmark_config

    cfg = benchmark_config(**workloads.config_overrides(args.workload, args.seed,
                                                        smoke=args.smoke))
    _, tasks, partitions, streams = federation.build_datasets(cfg)
    setup_s = time.monotonic() - args.spawned_at
    result = {"mode": args.mode, "setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    import reference
    import tracing

    ref_before = reference.kernel_seconds()
    steps = workloads.predicted_steps(cfg, partitions, streams, len(tasks))
    out = Path(args.out)
    run_dir, eval_dir = out / "run", out / "eval"
    tracer = tracing.Tracer()
    if args.mode == "trace":
        tracer.install()

    t0 = time.perf_counter()
    with tracer.span("federation.run_experiment"):
        federation.run_experiment(cfg, out_dir=run_dir, threads=1)
    run_s = time.perf_counter() - t0

    repeats = 1 if args.mode == "trace" else workloads.WORKLOADS[args.workload]["eval_repeats"]
    eval_times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["eval", str(run_dir), "--out", str(eval_dir)])
        eval_times.append(time.perf_counter() - t0)
        if code != 0:
            raise SystemExit(f"pfdl eval exited with {code}")
    tracer.uninstall()
    ref_s = (ref_before + reference.kernel_seconds()) / 2

    run_csv = (run_dir / "metrics.csv").read_bytes()
    acc = _accuracies(run_dir / "metrics.csv")
    last = max(n for n, _, _ in acc)
    final_row = [a for n, _, a in acc if n == last]
    result.update({
        "run_s": run_s,
        "ref_s": ref_s,
        "eval_s": statistics.median(eval_times),
        "steps": steps,
        "metrics_sha256": hashlib.sha256(run_csv).hexdigest(),
        "eval_matches_run": (eval_dir / "metrics.csv").read_bytes() == run_csv,
        "finite": all(math.isfinite(a) for _, _, a in acc),
        "avg_final": statistics.fmean(final_row),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    if args.mode == "trace":
        spans = tracer.spans
        layers, tail_p = tracing.layer_metrics(
            spans, tracer.absent, run_s, result["eval_s"],
            rounds=len(tasks) * cfg.federation.rounds_per_task,
            checkpoint_bytes=_dir_bytes(run_dir / "checkpoints"),
            event_bytes=(run_dir / "events.jsonl").stat().st_size)
        selfs = tracing.self_times(spans)
        # spans[0] is the run_experiment span; the eval spans follow its subtree
        run_end = next((i for i in range(1, len(spans)) if spans[i][tracing.PARENT] < 0),
                       len(spans))
        root_s = spans[0][tracing.END] - spans[0][tracing.START]
        result.update({
            "layers": layers,
            "tail_percentile": tail_p,
            "absent": tracer.absent,
            "traced_steps": (None if "nn.sgd_step" in tracer.absent
                             else layers["nn.steps"]),
            "coverage": 1.0 - selfs[0] / run_s,
            "spans": len(spans),
            "spans_nest": (tracing.nested(spans)
                           and sum(selfs[:run_end]) <= root_s * (1 + 1e-9)),
        })
        with open(out / "spans.jsonl", "w") as fh:
            for rec in spans:
                fh.write(json.dumps(rec) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
