"""The run directory: its layout, the writer and reader of its data and
manifest, the JSONL event log and the metrics CSV/JSON files.

Event records and CSV rows contain no timestamps and use fixed field
orders, so two runs of the same configuration produce byte-identical
files. The manifest (which does carry timestamps) declares every output
path before the first training round.

Checkpoints are one file per stream position, `checkpoints/task_TT.state`
(`state_file`): a header with the architecture, then every client's
record in client-id order, its pool as raw parameters (see serialize.py).
No sidecar sits beside them: the matching history is the `matching`
events of `events.jsonl`, and a client with no such event for a task sat
it out.

Every file but `events.jsonl` is written through `serialize.open_atomic`:
beside its path, then moved into place, so an interrupted write leaves
the whole file or none.
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from pathlib import Path

import numpy as np

from . import __version__
from .data import split_sizes
from .errors import ConfigError, DataError
from .serialize import load_dataset, open_atomic, read_file, save_dataset


def write_json(path, doc) -> None:
    """doc as indented JSON into the file at path, through `open_atomic`."""
    with open_atomic(path) as fh:
        fh.write(json.dumps(doc, indent=1) + "\n")


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256_hex(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def dataset_file(t: int) -> str:
    return f"data/task_{t:02d}.bin"


def state_file(tpos: int) -> str:
    """Every client's checkpoint after the task at stream position tpos."""
    return f"checkpoints/task_{tpos:02d}.state"


def make_out_dir(path) -> Path:
    """Create an output directory and its parents; a path that cannot be
    one (an existing file, say) is a ConfigError naming it."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"{path}: cannot create the output directory ({e.strerror})") from e
    return path


def write_data(out, cfg, data_seed: int, tasks) -> dict:
    """The task datasets and data/data_manifest.json; returns the manifest."""
    manifest = {
        "base_seed": int(data_seed),
        "num_classes": cfg.data.num_classes,
        "input_dim": cfg.data.input_dim,
        "samples_per_class": cfg.data.samples_per_class,
        "class_separation": cfg.data.class_separation,
        "stream_mode": cfg.data.stream_mode,
        "domains": [t.domain for t in tasks],
        "train_per_task": int(tasks[0].n_train),
        "test_per_task": int(tasks[0].test_y.shape[0]),
        "files": [dataset_file(t.task_id) for t in tasks],
    }
    out = make_out_dir(out)
    make_out_dir(out / "data")
    for t, name in zip(tasks, manifest["files"]):
        save_dataset(out / name, t)
    write_json(out / "data" / "data_manifest.json", manifest)
    return manifest


def start_run(out, cfg, data_seed: int, tasks) -> Path:
    """Write the run's data, then manifest.json, which declares every
    output path of the run; returns out as a Path. A directory that
    already holds a manifest.json is a ConfigError: a second run there
    would leave the first run's undeclared files beside its own."""
    if (Path(out) / "manifest.json").exists():
        raise ConfigError(f"{out}: already holds a run (manifest.json); "
                          f"give a fresh output directory")
    data_manifest = write_data(out, cfg, data_seed, tasks)
    outputs = ["manifest.json", "events.jsonl", "metrics.csv", "metrics.json",
               "summary.csv", "data/data_manifest.json", *data_manifest["files"],
               *(state_file(tpos) for tpos in range(len(tasks)))]
    config = cfg.to_dict()
    doc = {
        "config": config,
        "config_hash": sha256_hex(canonical_json(config)),
        "data_manifest_hash": sha256_hex(canonical_json(data_manifest)),
        "code_version": __version__,
        "seeds": {"experiment": cfg.federation.seed, "data": data_seed},
        "outputs": sorted(outputs),
        "created_unix": time.time(),
    }
    out = Path(out)
    write_json(out / "manifest.json", doc)
    return out


def read_run_manifest(run_dir) -> tuple:
    """The parsed config and the data seed of a run directory's manifest.
    A missing, unreadable or malformed manifest is a DataError, and so is
    a config that does not hash to the manifest's config_hash; the config
    is parsed first, so one that parses but is invalid is a ConfigError."""
    from .config import parse_config  # config.py imports this module, through federation
    path = Path(run_dir) / "manifest.json"
    text = read_file(path, f"{path.parent}: no manifest.json here (not a run directory?)")
    try:
        manifest = json.loads(text)
        config, data_seed = manifest["config"], manifest["seeds"]["data"]
        config_hash = manifest["config_hash"]
    except (ValueError, LookupError, TypeError) as e:  # bad JSON, a missing field
        raise DataError(f"{path}: not a run manifest ({e!r})") from e
    if not isinstance(config, dict) or type(data_seed) is not int:
        raise DataError(f"{path}: expected a config object and an integer seeds.data")
    cfg = parse_config(config)
    if sha256_hex(canonical_json(config)) != config_hash:
        raise DataError(f"{path}: the config does not match its config_hash")
    return cfg, data_seed


def read_datasets(run_dir, cfg, data_seed: int) -> list:
    """The run's task datasets, one per configured domain. DataError unless
    each file can be read, holds its own task, and has the feature width, class
    count, train/test row counts and domain block that the config gives
    the task, the manifest's data seed, finite features and labels in
    [0, num_classes)."""
    n_train, n_test = split_sizes(cfg.data.samples_per_class)
    classes = cfg.data.num_classes
    tasks = []
    for t, domain in enumerate(cfg.data.domains()):
        path = Path(run_dir) / dataset_file(t)
        task = load_dataset(path)
        if task.task_id != t:
            raise DataError(f"{path}: holds task {task.task_id}, expected {t}")
        for what, got, want in (("feature width", task.train_x.shape[1], cfg.data.input_dim),
                                ("num_classes", task.num_classes, classes),
                                ("train rows", task.n_train, classes * n_train),
                                ("test rows", task.test_y.shape[0], classes * n_test),
                                ("domain", task.domain, domain.to_dict())):
            if got != want:
                raise DataError(f"{path}: {what} is {got}, the config gives {want}")
        if task.seed != data_seed:
            raise DataError(f"{path}: base seed is {task.seed}, the manifest gives {data_seed}")
        for split, x, y in (("train", task.train_x, task.train_y),
                            ("test", task.test_x, task.test_y)):
            if not np.isfinite(x).all():
                raise DataError(f"{path}: a {split} feature is not finite")
            bad = y[(y < 0) | (y >= classes)]
            if bad.size:
                raise DataError(f"{path}: {split} label {bad[0]} is outside [0, {classes})")
        tasks.append(task)
    return tasks


class EventLog:
    """Append-only JSONL log written to `path`; without a path it discards
    every record.

    As a context manager it closes the file on exit, exceptions included.
    """

    def __init__(self, path=None):
        self._fh = open(path, "w") if path is not None else None

    def emit(self, record: dict) -> None:
        if self._fh is not None:
            self._fh.write(json.dumps(record) + "\n")

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


METRICS_COLUMNS = ["mode", "seed", "client_weighting", "n", "m", "accuracy"]
SUMMARY_COLUMNS = ["mode", "seed", "avg_final", "mean_forgetting",
                   "pool_size_mean", "param_count_total"]


def write_metrics_csv(path, mode: str, seed: int, metrics) -> None:
    with open_atomic(path, newline="") as fh:
        w = csv.writer(fh)
        w.writerow(METRICS_COLUMNS)
        N = metrics.num_tasks
        for n in range(N):
            for m in range(n + 1):
                w.writerow([mode, seed, "test_size", n, m,
                            f"{metrics.acc[n, m]:.6f}"])


def summary_row(label: str, seed: int, metrics, pool_size_mean: float,
                param_count_total: int) -> list:
    return [label, seed, f"{metrics.avg_final:.6f}", f"{metrics.mean_forgetting():.6f}",
            f"{pool_size_mean:.6f}", param_count_total]


def write_summary_csv(path, rows: list[list], first: str = "mode") -> None:
    """SUMMARY_COLUMNS under the header `first` for the label column."""
    with open_atomic(path, newline="") as fh:
        w = csv.writer(fh)
        w.writerow([first, *SUMMARY_COLUMNS[1:]])
        w.writerows(rows)


def write_metrics_json(path, metrics, pool_sizes, param_count_total) -> None:
    doc = {
        "matrix": [[None if not (m <= n) else round(float(metrics.acc[n, m]), 10)
                    for m in range(metrics.num_tasks)] for n in range(metrics.num_tasks)],
        "diag": [round(float(v), 10) for v in metrics.diag],
        "final_row": [round(float(v), 10) for v in metrics.final_row],
        "forgetting": [round(float(v), 10) for v in metrics.forgetting],
        "avg_final": round(float(metrics.avg_final), 10),
        "mean_forgetting": round(float(metrics.mean_forgetting()), 10),
        "global_objective": None if metrics.global_objective is None
        else round(float(metrics.global_objective), 10),
        "pool_sizes": [int(p) for p in pool_sizes],
        "param_count_total": int(param_count_total),
    }
    write_json(path, doc)


def write_metrics_files(out, mode: str, seed: int, metrics, pool_sizes,
                        param_count_total) -> None:
    """metrics.csv, summary.csv and metrics.json of one run, into out."""
    out = Path(out)
    write_metrics_csv(out / "metrics.csv", mode, seed, metrics)
    write_summary_csv(out / "summary.csv",
                      [summary_row(mode, seed, metrics, float(np.mean(pool_sizes)),
                                   param_count_total)])
    write_metrics_json(out / "metrics.json", metrics, pool_sizes, param_count_total)
