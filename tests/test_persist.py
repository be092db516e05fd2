import json

import numpy as np

from pfdl import persist
from pfdl.evaluation import build_metrics


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
    assert [r["round"] for r in log.records if r["type"] == "round"] == [0, 1]


def test_event_log_without_path_keeps_records():
    log = persist.EventLog(None)
    log.emit({"type": "eval"})
    log.close()
    assert log.records == [{"type": "eval"}]


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
    path = tmp_path / "manifest.json"
    cfg = {"mode": "fedavg", "seed": 1}
    persist.write_manifest(path, cfg, data_manifest_hash="abc",
                           code_version="0.1.0", seeds={"experiment": 1},
                           outputs=["b.csv", "a.csv"])
    doc = persist.read_manifest(path)
    assert doc["config"] == cfg
    assert doc["outputs"] == ["a.csv", "b.csv"]
    assert doc["config_hash"] == persist.sha256_hex(persist.canonical_json(cfg))
