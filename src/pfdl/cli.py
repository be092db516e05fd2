"""Command-line interface.

Subcommands: run (one experiment, full artifacts), gradcheck (finite-
difference audit of both loss gradients), compare (summary CSV across
modes and seeds plus a lambda sweep), eval (recompute metrics from a run
directory's stored checkpoints), gen-data (datasets + manifest only).

PFDL_THREADS caps the number of worker threads inside a round (results
are identical for any value). Exit codes: 0 ok, 2 config error, 3 data
error, 4 internal invariant failure.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import default_config, load_config, parse_config
from .errors import ConfigError, DataError, PfdlError
from .evaluation import OutputMemo, build_metrics
from .federation import (MODES, ExperimentConfig,
                         _evaluate_after_task, _global_objective,
                         build_datasets, partitions_and_streams,
                         physical_param_count, run_experiment,
                         write_data_artifacts)
from .gradcheck import run_migration_gradcheck, run_nn_gradcheck
from .persist import (SUMMARY_COLUMNS, EventLog, read_manifest, summary_row,
                      write_metrics_files, write_summary_csv)
from .serialize import load_client_state, load_dataset

LAMBDA_SWEEP = (0.0, 0.2, 0.5, 0.8, 1.0)
GRADCHECK_CASES = 100
GRADCHECK_TOLERANCE = 1e-4


def _threads_from_env() -> int:
    raw = os.environ.get("PFDL_THREADS", "1")
    try:
        threads = int(raw)
    except ValueError:
        raise ConfigError(f"PFDL_THREADS: expected a positive integer, got {raw!r}")
    if threads < 1:
        raise ConfigError(f"PFDL_THREADS: expected a positive integer, got {raw!r}")
    return threads


def _load(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else default_config()
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, federation=replace(cfg.federation, seed=args.seed))
    return cfg


def _with(cfg: ExperimentConfig, **fed_overrides) -> ExperimentConfig:
    return replace(cfg, federation=replace(cfg.federation, **fed_overrides))


# ------------------------------------------------------------- commands


def cmd_run(args) -> int:
    cfg = _load(args)
    res = run_experiment(cfg, out_dir=args.out, threads=_threads_from_env())
    print(f"mode={cfg.federation.mode} seed={cfg.federation.seed} "
          f"avg_final={res.metrics.avg_final:.4f} "
          f"mean_forgetting={res.metrics.mean_forgetting():.4f} "
          f"out={args.out}")
    return 0


def cmd_gradcheck(args) -> int:
    seed = args.seed if args.seed is not None else 0
    nn_err = run_nn_gradcheck(GRADCHECK_CASES, seed=seed)
    mig_err = run_migration_gradcheck(GRADCHECK_CASES, seed=seed)
    print(f"joint-loss gradients:     max relative error {nn_err:.3e} "
          f"over {GRADCHECK_CASES} cases")
    print(f"migration-loss gradients: max relative error {mig_err:.3e} "
          f"over {GRADCHECK_CASES} cases")
    ok = nn_err < GRADCHECK_TOLERANCE and mig_err < GRADCHECK_TOLERANCE
    print(f"tolerance {GRADCHECK_TOLERANCE:.0e}: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 4


def _parse_modes(raw: str | None) -> list[str]:
    if raw is None:
        return list(MODES)
    modes = [m.strip() for m in raw.split(",") if m.strip()]
    for m in modes:
        if m not in MODES:
            raise ConfigError(f"modes: unknown mode {m!r} (choose from {', '.join(MODES)})")
    if not modes:
        raise ConfigError("modes: expected a non-empty CSV list")
    return modes


def _parse_seeds(raw: str | None, fallback: int) -> list[int]:
    if raw is None:
        return [fallback]
    try:
        seeds = [int(s.strip()) for s in raw.split(",") if s.strip()]
    except ValueError:
        raise ConfigError(f"seeds: expected a CSV list of integers, got {raw!r}")
    if not seeds or any(s < 0 for s in seeds):
        raise ConfigError(f"seeds: expected non-negative integers, got {raw!r}")
    return seeds


def cmd_compare(args) -> int:
    cfg = _load(args)
    modes = _parse_modes(args.modes)
    seeds = _parse_seeds(args.seeds, cfg.federation.seed)
    threads = _threads_from_env()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    rows = []
    for mode in modes:
        for seed in seeds:
            res = run_experiment(_with(cfg, mode=mode, seed=seed), threads=threads)
            rows.append(summary_row(mode, seed, res.metrics,
                                    float(np.mean(res.pool_sizes)),
                                    res.param_count_total))
            print(f"mode={mode} seed={seed} avg_final={res.metrics.avg_final:.4f}")
    write_summary_csv(out / "compare.csv", rows)

    sweep = []
    for lam in LAMBDA_SWEEP:
        for seed in seeds:
            res = run_experiment(_with(cfg, mode="pfeddil", lam=lam, seed=seed),
                                 threads=threads)
            sweep.append([f"{lam:.2f}", seed,
                          f"{res.metrics.avg_final:.6f}",
                          f"{res.metrics.mean_forgetting():.6f}",
                          f"{float(np.mean(res.pool_sizes)):.6f}",
                          res.param_count_total])
            print(f"lambda={lam:.2f} seed={seed} avg_final={res.metrics.avg_final:.4f}")
    with open(out / "lambda_sweep.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["lambda"] + SUMMARY_COLUMNS[1:])
        w.writerows(sweep)
    print(f"wrote {out / 'compare.csv'} and {out / 'lambda_sweep.csv'}")
    return 0


def evaluate_run_dir(run_dir):
    """Recompute the metrics of a finished run from its stored artifacts.

    Datasets come from the run's data files; partitions and streams are
    re-derived from the config (they are deterministic); the accuracy grid
    is rebuilt from the per-task client-state checkpoints.

    Returns (config, metrics, pool_sizes, param_count_total).
    """
    run_dir = Path(run_dir)
    manifest_path = run_dir / "manifest.json"
    if not manifest_path.exists():
        raise DataError(f"{run_dir}: no manifest.json here (not a run directory?)")
    manifest = read_manifest(manifest_path)
    cfg = parse_config(manifest["config"])
    fed = cfg.federation
    data_seed = int(manifest["seeds"]["data"])

    data_files = sorted((run_dir / "data").glob("task_*.bin"))
    if not data_files:
        raise DataError(f"{run_dir}: no task datasets under data/")
    tasks = [load_dataset(p) for p in data_files]
    n_tasks = len(tasks)
    K = fed.num_clients
    partitions, streams = partitions_and_streams(cfg, data_seed, tasks)
    arch = cfg.arch()

    acc_grid = np.full((K, n_tasks, n_tasks), np.nan)
    w_grid = np.zeros((K, n_tasks, n_tasks))
    events = EventLog()
    memo = OutputMemo()
    states = None
    for tpos in range(n_tasks):
        ckpt = run_dir / "checkpoints" / f"task_{tpos:02d}"
        states = []
        for k in range(K):
            path = ckpt / f"client_{k:03d}.state"
            if not path.exists():
                raise DataError(f"{path}: missing checkpoint")
            states.append(load_client_state(path))
            if any(m.arch != arch for m in states[-1].pool):
                raise DataError(f"{path}: a pool model's architecture differs "
                                f"from the config's {arch}")
        _evaluate_after_task(cfg, states, tasks, streams, tpos,
                             acc_grid, w_grid, events, memo)

    objective = _global_objective(cfg, states, tasks, streams, partitions)
    metrics = build_metrics(acc_grid, w_grid, global_objective=objective)
    pool_sizes = [len(st.pool) for st in states]
    return cfg, metrics, pool_sizes, physical_param_count(states, fed.mode)


def cmd_eval(args) -> int:
    cfg, metrics, pool_sizes, pc_total = evaluate_run_dir(args.rundir)
    out = Path(args.out) if args.out else Path(args.rundir) / "eval"
    out.mkdir(parents=True, exist_ok=True)
    fed = cfg.federation
    write_metrics_files(out, fed.mode, fed.seed, metrics, pool_sizes, pc_total)
    print(f"mode={fed.mode} seed={fed.seed} avg_final={metrics.avg_final:.4f} "
          f"out={out}")
    return 0


def cmd_gen_data(args) -> int:
    cfg = _load(args)
    data_seed, tasks, _, _ = build_datasets(cfg)
    out = Path(args.out)
    manifest = write_data_artifacts(out, cfg, data_seed, tasks)
    print(f"wrote {len(manifest['files'])} task datasets "
          f"({manifest['train_per_task']} train / {manifest['test_per_task']} test rows each) "
          f"to {out / 'data'}")
    return 0


# ------------------------------------------------------------- plumbing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pfdl",
        description="Desk-scale personalized federated domain-incremental learning lab")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, out_required):
        p.add_argument("--config", help="JSON config path (defaults apply without it)")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", required=out_required, help="output directory")

    p_run = sub.add_parser("run", help="run one experiment and write all artifacts")
    add_common(p_run, out_required=True)
    p_run.set_defaults(func=cmd_run)

    p_grad = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    p_grad.add_argument("--seed", type=int, help="case-generation seed")
    p_grad.set_defaults(func=cmd_gradcheck)

    p_cmp = sub.add_parser("compare",
                           help="summary CSV across modes/seeds plus a lambda sweep")
    add_common(p_cmp, out_required=True)
    p_cmp.add_argument("--modes", help=f"CSV list from: {', '.join(MODES)}")
    p_cmp.add_argument("--seeds", help="CSV list of non-negative integers")
    p_cmp.set_defaults(func=cmd_compare)

    p_eval = sub.add_parser("eval", help="recompute metrics from a run directory")
    p_eval.add_argument("rundir", help="directory written by a previous run")
    p_eval.add_argument("--out", help="where to write the recomputed metrics "
                                      "(default RUNDIR/eval)")
    p_eval.set_defaults(func=cmd_eval)

    p_gen = sub.add_parser("gen-data", help="emit datasets and their manifest only")
    add_common(p_gen, out_required=True)
    p_gen.set_defaults(func=cmd_gen_data)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"error[config]: {e}", file=sys.stderr)
        return 2
    except DataError as e:
        print(f"error[data]: {e}", file=sys.stderr)
        return 3
    except PfdlError as e:
        print(f"error[{e.category}]: {e}", file=sys.stderr)
        return 4
