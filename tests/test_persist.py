import json

import numpy as np
import pytest

from pfdl import persist, serialize
from pfdl.data import DataConfig, make_base_dataset
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


def _unfinished_metrics():
    """Metrics without the last cell of their grid: the CSV writer raises
    after its header and two rows."""
    metrics = small_metrics()
    metrics.acc = metrics.acc[:, :1]
    return metrics


def _unfinished_dataset():
    """A dataset whose domain block cannot be encoded: the writer raises
    after the magic and the version."""
    task = make_base_dataset(2, 3, 10, 1.0, seed=0)
    task.domain = {"rotation": object()}
    return task


@pytest.mark.parametrize("write, error", [
    (lambda p: persist.write_metrics_csv(p, "fedavg", 0, _unfinished_metrics()), IndexError),
    (lambda p: persist.write_json(p, {"created": object()}), TypeError),
    (lambda p: serialize.save_dataset(p, _unfinished_dataset()), TypeError),
], ids=["metrics_csv", "json", "dataset"])
def test_a_write_that_raises_leaves_neither_file_nor_temporary(tmp_path, write, error):
    # each file is written beside its path and moved into place on a clean
    # exit: a write that raises leaves no file, or the one it replaces
    path = tmp_path / "out.file"
    with pytest.raises(error):
        write(path)
    assert list(tmp_path.iterdir()) == []
    path.write_bytes(b"before")
    with pytest.raises(error):
        write(path)
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
    assert path.read_bytes() == b"before"


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
