"""Command-line interface.

Subcommands: run (one experiment, full artifacts), gradcheck (finite-
difference audit of both loss gradients), compare (summary CSV across
modes and seeds plus a lambda sweep), eval (recompute metrics from a run
directory's stored checkpoints, and check them against the run's own),
gen-data (datasets + manifest only).

Exit codes: 0 ok, 2 config error, 3 data error, 4 internal invariant
failure.
"""

from __future__ import annotations

import argparse
import sys
from itertools import zip_longest
from pathlib import Path

import numpy as np

from .config import default_config, load_config, parse_config
from .errors import ConfigError, DataError, PfdlError
from .federation import (MODES, ExperimentConfig, build_datasets,
                         partitions_and_streams, run_experiment, score_run)
from .gradcheck import run_migration_gradcheck, run_nn_gradcheck
from .persist import (EventLog, make_out_dir, read_datasets, read_run_manifest,
                      state_file, summary_row, write_data, write_metrics_files,
                      write_summary_csv)
from .serialize import load_client_state, open_task_reader, read_file

LAMBDA_SWEEP = (0.0, 0.2, 0.5, 0.8, 1.0)
GRADCHECK_CASES = 100
GRADCHECK_TOLERANCE = 1e-4


def _load(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else default_config()
    if getattr(args, "seed", None) is not None:
        cfg = _with(cfg, seed=args.seed)
    return cfg


def _with(cfg: ExperimentConfig, **overrides) -> ExperimentConfig:
    """cfg with top-level config keys replaced, validated like a file."""
    return parse_config({**cfg.to_dict(), **overrides})


# ------------------------------------------------------------- commands


def cmd_run(args) -> int:
    cfg = _load(args)
    res = run_experiment(cfg, out_dir=args.out)
    print(f"mode={cfg.federation.mode} seed={cfg.federation.seed} "
          f"avg_final={res.metrics.avg_final:.4f} "
          f"mean_forgetting={res.metrics.mean_forgetting():.4f} "
          f"out={args.out}")
    return 0


def cmd_gradcheck(args) -> int:
    # --seed is checked like the config's seed key
    seed = 0 if args.seed is None else parse_config({"seed": args.seed}).federation.seed
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
    if not seeds:
        raise ConfigError(f"seeds: expected non-negative integers, got {raw!r}")
    # each seed is checked like the config's seed key, before any run starts
    return [parse_config({"seed": s}).federation.seed for s in seeds]


def cmd_compare(args) -> int:
    cfg = _load(args)
    modes = _parse_modes(args.modes)
    seeds = _parse_seeds(args.seeds, cfg.federation.seed)
    out = make_out_dir(args.out)

    grids = (("compare.csv", "mode", [(mode, {"mode": mode}) for mode in modes]),
             ("lambda_sweep.csv", "lambda",
              [(f"{lam:.2f}", {"mode": "pfeddil", "lambda": lam}) for lam in LAMBDA_SWEEP]))
    for name, column, cells in grids:
        rows = []
        for label, overrides in cells:
            for seed in seeds:
                res = run_experiment(_with(cfg, seed=seed, **overrides))
                rows.append(summary_row(label, seed, res.metrics,
                                        float(np.mean(res.pool_sizes)),
                                        res.param_count_total))
                print(f"{column}={label} seed={seed} "
                      f"avg_final={res.metrics.avg_final:.4f}")
        write_summary_csv(out / name, rows, column)
    print(f"wrote {out / 'compare.csv'} and {out / 'lambda_sweep.csv'}")
    return 0


def evaluate_run_dir(run_dir):
    """Recompute the metrics of a finished run from its stored artifacts:
    `persist` reads the manifest and the checked datasets, partitions and
    streams are re-derived from the config (they are deterministic), and
    `score_run` scores the checkpoints that `load_client_state` reads and
    checks. Returns (config, metrics, pool_sizes, param_count_total)."""
    run_dir = Path(run_dir)
    cfg, data_seed = read_run_manifest(run_dir)
    tasks = read_datasets(run_dir, cfg, data_seed)
    partitions, streams = partitions_and_streams(cfg, data_seed, tasks)
    arch = cfg.arch()
    K = cfg.federation.num_clients

    states = []  # one task's clients at a time: the last task's are freed first

    def load_task(tpos: int):
        states.clear()
        with open_task_reader(run_dir / state_file(tpos), arch, K) as reader:
            states.extend(load_client_state(reader, arch, k, tpos) for k in range(K))
        return states

    return cfg, *score_run(cfg, tasks, streams, partitions, load_task, EventLog())


def _check_reproduced(run_dir: Path, out: Path) -> None:
    """DataError unless each metrics file of the run is byte for byte the
    one eval recomputed into out; it names the file and its first
    differing line."""
    def shown(line):
        return "no line" if line is None else repr(line.decode(errors="replace"))

    for name in ("metrics.csv", "summary.csv", "metrics.json"):
        path = run_dir / name
        ran = read_file(path, f"{path}: missing run metrics file").splitlines(keepends=True)
        recomputed = (out / name).read_bytes().splitlines(keepends=True)
        for i, (a, b) in enumerate(zip_longest(ran, recomputed)):
            if a != b:
                raise DataError(f"{path}: line {i + 1} is {shown(a)}, but eval recomputed "
                                f"{shown(b)} (see {out / name})")


def cmd_eval(args) -> int:
    run_dir = Path(args.rundir)
    out = Path(args.out or run_dir / "eval")
    if out.resolve() == run_dir.resolve():
        raise ConfigError(f"{out}: is the run directory, whose metrics eval "
                          "would overwrite")
    cfg, metrics, pool_sizes, pc_total = evaluate_run_dir(run_dir)
    out = make_out_dir(out)
    fed = cfg.federation
    write_metrics_files(out, fed.mode, fed.seed, metrics, pool_sizes, pc_total)
    _check_reproduced(run_dir, out)
    print(f"mode={fed.mode} seed={fed.seed} avg_final={metrics.avg_final:.4f} "
          f"out={out}")
    return 0


def cmd_gen_data(args) -> int:
    cfg = _load(args)
    data_seed, tasks, _, _ = build_datasets(cfg)
    manifest = write_data(args.out, cfg, data_seed, tasks)
    print(f"wrote {len(manifest['files'])} task datasets "
          f"({manifest['train_per_task']} train / {manifest['test_per_task']} test rows each) "
          f"to {Path(args.out) / 'data'}")
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
