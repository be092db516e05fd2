import json
import struct
import subprocess
import sys

import pytest

from pfdl import cli, nn
from pfdl.federation import MODES
from pfdl.serialize import load_client_state, save_client_state

TINY = {
    "clients": 3,
    "rounds_per_task": 3,
    "local_epochs": 1,
    "data": {"num_classes": 3, "input_dim": 6, "samples_per_class": 40,
             "rotation_degrees": [0, 180]},
    "arch": {"hidden_dims": [10, 6]},
}


@pytest.fixture()
def tiny_config(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY))
    return path


def test_module_entry_point_runs(tiny_config, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "pfdl", "run", "--config", str(tiny_config),
         "--out", str(tmp_path / "run")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "avg_final=" in proc.stdout
    assert (tmp_path / "run" / "metrics.csv").exists()


def test_run_twice_byte_identical(tiny_config, tmp_path):
    assert cli.main(["run", "--config", str(tiny_config),
                     "--out", str(tmp_path / "a")]) == 0
    assert cli.main(["run", "--config", str(tiny_config),
                     "--out", str(tmp_path / "b")]) == 0
    for name in ("metrics.csv", "summary.csv", "metrics.json", "events.jsonl"):
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes())


def test_thread_env_does_not_change_bytes(tiny_config, tmp_path, monkeypatch):
    monkeypatch.setenv("PFDL_THREADS", "1")
    cli.main(["run", "--config", str(tiny_config), "--out", str(tmp_path / "t1")])
    monkeypatch.setenv("PFDL_THREADS", "8")
    cli.main(["run", "--config", str(tiny_config), "--out", str(tmp_path / "t8")])
    assert ((tmp_path / "t1" / "metrics.csv").read_bytes()
            == (tmp_path / "t8" / "metrics.csv").read_bytes())


def test_bad_thread_env_is_config_error(tiny_config, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PFDL_THREADS", "many")
    code = cli.main(["run", "--config", str(tiny_config),
                     "--out", str(tmp_path / "x")])
    assert code == 2
    assert "error[config]: PFDL_THREADS" in capsys.readouterr().err


def test_seed_flag_overrides_config(tiny_config, tmp_path):
    cli.main(["run", "--config", str(tiny_config), "--seed", "42",
              "--out", str(tmp_path / "s")])
    man = json.loads((tmp_path / "s" / "manifest.json").read_text())
    assert man["config"]["seed"] == 42
    assert man["seeds"]["experiment"] == 42


# clients 0, 1 and 5 get empty shards on task 0 and sit it out
EMPTY_SHARDS = dict(TINY, clients=6, alpha=0.05, seed=1,
                    data=dict(TINY["data"], rotation_degrees=[0, 180, 0]))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("doc", [TINY, EMPTY_SHARDS], ids=["tiny", "empty_shards"])
def test_eval_reproduces_run_metrics(tmp_path, doc, mode):
    # every mode's inference rule and the physical parameter count survive
    # the save/load cycle
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(doc, mode=mode)))
    run_dir = tmp_path / "run"
    assert cli.main(["run", "--config", str(cfg), "--out", str(run_dir)]) == 0
    assert cli.main(["eval", str(run_dir)]) == 0
    for name in ("metrics.csv", "summary.csv", "metrics.json"):
        assert (run_dir / name).read_bytes() == (run_dir / "eval" / name).read_bytes()


def first_state_file(run_dir):
    return run_dir / "checkpoints" / "task_00" / "client_000.state"


def test_eval_rejects_invalid_model_header(tiny_config, tmp_path, capsys):
    run_dir = tmp_path / "run"
    cli.main(["run", "--config", str(tiny_config), "--out", str(run_dir)])
    path = first_state_file(run_dir)
    raw = bytearray(path.read_bytes())
    at = raw.index(b"PFDL") + 8  # the first model's input_dim
    raw[at:at + 4] = bytes(4)
    path.write_bytes(bytes(raw))
    assert cli.main(["eval", str(run_dir)]) == 3
    assert "bad model header" in capsys.readouterr().err


def test_eval_rejects_trailing_bytes(tiny_config, tmp_path, capsys):
    # hidden dims [10, 6] relabelled [6, 10]: the model reads 8 floats
    # short and leaves them behind
    run_dir = tmp_path / "run"
    cli.main(["run", "--config", str(tiny_config), "--out", str(run_dir)])
    path = first_state_file(run_dir)
    raw = bytearray(path.read_bytes())
    at = raw.index(b"PFDL") + 20  # the first model's hidden dims
    assert raw.count(b"PFDL") == 1
    assert raw[at:at + 8] == struct.pack("<II", 10, 6)
    raw[at:at + 8] = struct.pack("<II", 6, 10)
    path.write_bytes(bytes(raw))
    assert cli.main(["eval", str(run_dir)]) == 3
    assert "trailing bytes" in capsys.readouterr().err


def test_eval_rejects_a_model_of_another_arch(tiny_config, tmp_path, capsys):
    run_dir = tmp_path / "run"
    cli.main(["run", "--config", str(tiny_config), "--out", str(run_dir)])
    path = first_state_file(run_dir)
    state = load_client_state(path)
    other = nn.ArchSpec(input_dim=6, hidden_dims=(6, 10), num_classes=3)
    state.pool = [nn.init_model(other, 0) for _ in state.pool]
    save_client_state(path.parent, state)
    assert cli.main(["eval", str(run_dir)]) == 3
    assert "architecture differs" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_divergent_run_exits_4_without_nan_in_events(tmp_path, capsys):
    # the guard reports the overflow itself, without a NumPy warning first
    cfg = tmp_path / "absurd_lr.json"
    cfg.write_text(json.dumps(dict(TINY, lr=1e6)))
    run_dir = tmp_path / "run"
    code = cli.main(["run", "--config", str(cfg), "--out", str(run_dir)])
    assert code == 4
    err = capsys.readouterr().err
    assert "error[invariant]: clients [1], task 1, round 2" in err

    def no_constants(name):
        raise AssertionError(f"{name} in events.jsonl")

    lines = (run_dir / "events.jsonl").read_text().splitlines()
    assert lines
    for line in lines:
        json.loads(line, parse_constant=no_constants)


# the small_cfg of test_federation.py: at this lr the train loss itself goes NaN
DIVERGENT_LOSS = {
    "clients": 3, "active_fraction": 0.5, "rounds_per_task": 4, "local_epochs": 2,
    "batch_size": 16, "seed": 3, "lr": 1e6,
    "data": {"num_classes": 3, "input_dim": 6, "samples_per_class": 60,
             "rotation_degrees": [0, 120], "domain_noise_sigma": 0.1},
    "arch": {"hidden_dims": [12, 6]},
}


def test_divergent_loss_exits_4_with_only_the_error_line(tmp_path):
    cfg = tmp_path / "nan_loss.json"
    cfg.write_text(json.dumps(DIVERGENT_LOSS))
    proc = subprocess.run(
        [sys.executable, "-m", "pfdl", "run", "--config", str(cfg),
         "--out", str(tmp_path / "run")],
        capture_output=True, text=True)
    assert proc.returncode == 4
    assert proc.stderr == ("error[invariant]: client 1, task 0, round 0: "
                           "local train loss is nan\n")


def test_eval_missing_rundir_is_data_error(tmp_path, capsys):
    code = cli.main(["eval", str(tmp_path / "ghost")])
    assert code == 3
    assert "error[data]:" in capsys.readouterr().err


def test_missing_config_is_config_error(tmp_path, capsys):
    code = cli.main(["run", "--config", str(tmp_path / "none.json"),
                     "--out", str(tmp_path / "o")])
    assert code == 2
    assert "error[config]:" in capsys.readouterr().err


def test_invalid_json_reports_position(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"mode": }')
    code = cli.main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "line 1" in capsys.readouterr().err


def test_gradcheck_passes(capsys):
    assert cli.main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "max relative error" in out


def test_gen_data_writes_datasets_and_manifest(tiny_config, tmp_path):
    out = tmp_path / "gen"
    assert cli.main(["gen-data", "--config", str(tiny_config),
                     "--out", str(out)]) == 0
    files = sorted(p.name for p in (out / "data").iterdir())
    assert files == ["data_manifest.json", "task_00.bin", "task_01.bin"]
    man = json.loads((out / "data" / "data_manifest.json").read_text())
    assert man["files"] == ["data/task_00.bin", "data/task_01.bin"]
    assert len(man["domains"]) == 2


def test_compare_one_summary_row_per_mode_and_seed(tiny_config, tmp_path):
    out = tmp_path / "cmp"
    assert cli.main(["compare", "--config", str(tiny_config), "--out", str(out),
                     "--modes", "pfeddil,fedavg,source_only",
                     "--seeds", "0,1"]) == 0
    rows = (out / "compare.csv").read_text().strip().splitlines()
    assert rows[0] == "mode,seed,avg_final,mean_forgetting,pool_size_mean,param_count_total"
    body = [r.split(",")[:2] for r in rows[1:]]
    assert body == [["pfeddil", "0"], ["pfeddil", "1"], ["fedavg", "0"],
                    ["fedavg", "1"], ["source_only", "0"], ["source_only", "1"]]
    sweep = (out / "lambda_sweep.csv").read_text().strip().splitlines()
    assert sweep[0] == "lambda,seed,avg_final,mean_forgetting,pool_size_mean,param_count_total"
    assert len(sweep) == 1 + 5 * 2  # five lambda values, two seeds
    # lambda = 0 rows coincide with fedavg rows (strategy degenerates)
    fedavg_rows = {r.split(",")[1]: r.split(",")[2] for r in rows[1:]
                   if r.startswith("fedavg")}
    for line in sweep[1:3]:
        lam, seed, avg = line.split(",")[:3]
        assert avg == fedavg_rows[seed]


def test_compare_rejects_unknown_mode(tiny_config, tmp_path, capsys):
    code = cli.main(["compare", "--config", str(tiny_config),
                     "--out", str(tmp_path / "c"), "--modes", "pfeddil,magic"])
    assert code == 2
    assert "magic" in capsys.readouterr().err
