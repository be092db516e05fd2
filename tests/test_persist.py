import json

import numpy as np
import pytest

from pfdl import persist
from pfdl.data import DataConfig
from pfdl.errors import ConfigError
from pfdl.evaluation import build_metrics
from pfdl.federation import ExperimentConfig, FederationConfig, build_datasets


def small_metrics():
    acc = np.full((1, 2, 2), np.nan)
    acc[0, 0, 0] = 0.5
    acc[0, 1, 0] = 0.25
    acc[0, 1, 1] = 0.75
    w = np.zeros((1, 2, 2))
    w[0, 0, 0] = w[0, 1, 0] = w[0, 1, 1] = 10.0
    return build_metrics(acc, w)


def test_event_log_mirrors_to_file(tmp_path):
    path = tmp_path / "events.jsonl"
    log = persist.EventLog(path)
    log.emit({"type": "round", "round": 0})
    log.emit({"type": "warning", "reason": "x"})
    log.emit({"type": "round", "round": 1})
    log.close()
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    assert json.loads(lines[1]) == {"type": "warning", "reason": "x"}
    records = [json.loads(line) for line in lines]
    assert [r["round"] for r in records if r["type"] == "round"] == [0, 1]


def test_metrics_csv_rows_are_lower_triangular(tmp_path):
    path = tmp_path / "metrics.csv"
    persist.write_metrics_csv(path, "fedavg", 3, small_metrics())
    lines = path.read_text().splitlines()
    assert lines[0] == "mode,seed,client_weighting,n,m,accuracy"
    assert lines[1:] == ["fedavg,3,test_size,0,0,0.500000",
                         "fedavg,3,test_size,1,0,0.250000",
                         "fedavg,3,test_size,1,1,0.750000"]


def test_summary_row_formatting():
    row = persist.summary_row("pfeddil", 7, small_metrics(), 2.5, 1136)
    assert row[0] == "pfeddil" and row[1] == 7
    assert row[2] == "0.500000"   # avg_final = mean(final row)
    assert row[4] == "2.500000" and row[5] == 1136



def test_manifest_roundtrip_and_config_hash(tmp_path):
    cfg = ExperimentConfig(federation=FederationConfig(num_clients=2, mode="fedavg", seed=1),
                           data=DataConfig(num_classes=3, input_dim=4, samples_per_class=20,
                                           rotation_degrees=(0.0, 90.0)),
                           hidden_dims=(5,))
    data_seed, tasks, _, _ = build_datasets(cfg)
    out = persist.start_run(tmp_path / "run", cfg, data_seed, tasks)
    doc = json.loads((out / "manifest.json").read_text())
    assert doc["outputs"] == sorted(doc["outputs"])
    assert doc["config_hash"] == persist.sha256_hex(persist.canonical_json(cfg.to_dict()))
    assert persist.read_run_manifest(out) == (cfg, data_seed)


def test_start_run_refuses_a_directory_that_holds_a_run(tmp_path):
    cfg = ExperimentConfig(federation=FederationConfig(num_clients=2, mode="fedavg", seed=1),
                           data=DataConfig(num_classes=3, input_dim=4, samples_per_class=20,
                                           rotation_degrees=(0.0, 90.0)),
                           hidden_dims=(5,))
    data_seed, tasks, _, _ = build_datasets(cfg)
    out = persist.start_run(tmp_path / "run", cfg, data_seed, tasks)
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    with pytest.raises(ConfigError, match=str(out)):
        persist.start_run(out, cfg, data_seed, tasks[:1])
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before
