"""Run artifacts: manifest, JSONL event log, metrics CSVs.

Event records and CSV rows contain no timestamps and use fixed field
orders, so two runs of the same configuration produce byte-identical
files. The manifest (which does carry timestamps) declares every output
path before the first training round.
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from pathlib import Path

import numpy as np


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256_hex(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


class EventLog:
    """Append-only JSONL log, optionally mirrored to a file.

    As a context manager it closes the file on exit, exceptions included.
    """

    def __init__(self, path=None):
        self.path = Path(path) if path is not None else None
        self.records: list[dict] = []
        self._fh = open(self.path, "w") if self.path is not None else None

    def emit(self, record: dict) -> None:
        self.records.append(record)
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
    with open(path, "w", newline="") as fh:
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
    with open(path, "w", newline="") as fh:
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
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")


def write_metrics_files(out, mode: str, seed: int, metrics, pool_sizes,
                        param_count_total) -> None:
    """metrics.csv, summary.csv and metrics.json of one run, into out."""
    out = Path(out)
    write_metrics_csv(out / "metrics.csv", mode, seed, metrics)
    write_summary_csv(out / "summary.csv",
                      [summary_row(mode, seed, metrics, float(np.mean(pool_sizes)),
                                   param_count_total)])
    write_metrics_json(out / "metrics.json", metrics, pool_sizes, param_count_total)


def write_manifest(path, config_dict: dict, data_manifest_hash: str, code_version: str,
                   seeds: dict, outputs: list[str]) -> None:
    doc = {
        "config": config_dict,
        "config_hash": sha256_hex(canonical_json(config_dict)),
        "data_manifest_hash": data_manifest_hash,
        "code_version": code_version,
        "seeds": seeds,
        "outputs": sorted(outputs),
        "created_unix": time.time(),
    }
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")


def read_manifest(path) -> dict:
    return json.loads(Path(path).read_text())
