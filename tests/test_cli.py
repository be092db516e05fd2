import json
import struct
import subprocess
import sys

import pytest

from pfdl import cli, gradcheck, nn
from pfdl.federation import MODES
from pfdl.serialize import (load_client_state, open_task_reader, open_task_writer,
                            save_client_state)

TINY = {
    "clients": 3,
    "rounds_per_task": 3,
    "local_epochs": 1,
    "data": {"num_classes": 3, "input_dim": 6, "samples_per_class": 40,
             "rotation_degrees": [0, 180]},
    "arch": {"hidden_dims": [10, 6]},
}
TINY_ARCH = nn.ArchSpec(input_dim=6, hidden_dims=(10, 6), num_classes=3)
TASK_HEADER = 32  # magic, version, client count, input_dim, num_classes, depth, two widths
MODEL_BYTES = 8 * TINY_ARCH.param_count()


@pytest.fixture()
def tiny_config(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY))
    return path


@pytest.mark.parametrize("case, code, stderr", [
    ("run", 0, None),
    ("second_run", 2, "error[config]:"),
    ("eval_missing", 3, "error[data]:"),
], ids=["run", "second_run", "eval_missing"])
def test_module_entry_point_runs(tiny_config, tmp_path, case, code, stderr):
    # the process's exit code; exit 4 is
    # test_divergent_loss_exits_4_with_only_the_error_line's
    run_dir = tmp_path / "run"
    argv = ["run", "--config", str(tiny_config), "--out", str(run_dir)]
    if case == "second_run":
        assert cli.main(argv) == 0
    elif case == "eval_missing":
        argv = ["eval", str(tmp_path / "ghost")]
    proc = subprocess.run([sys.executable, "-m", "pfdl", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == code, proc.stderr
    if code:  # one error line, and nothing on stdout
        assert proc.stderr.startswith(stderr) and proc.stderr.count("\n") == 1
        assert proc.stdout == ""
    else:
        assert proc.stderr == "" and "avg_final=" in proc.stdout
        assert (run_dir / "metrics.csv").exists()


def test_run_twice_byte_identical(tiny_config, tmp_path):
    assert cli.main(["run", "--config", str(tiny_config),
                     "--out", str(tmp_path / "a")]) == 0
    assert cli.main(["run", "--config", str(tiny_config),
                     "--out", str(tmp_path / "b")]) == 0
    for name in ("metrics.csv", "summary.csv", "metrics.json", "events.jsonl"):
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes())


def test_run_into_a_directory_that_holds_a_run_is_config_error(tiny_config, tmp_path,
                                                              capsys):
    # a shorter second run would leave the first run's last task files
    # beside its own, undeclared, and eval would still pass
    run_dir = tmp_path / "run"
    assert cli.main(["run", "--config", str(tiny_config), "--out", str(run_dir)]) == 0
    before = {p: p.read_bytes() for p in run_dir.rglob("*") if p.is_file()}
    shorter = tmp_path / "shorter.json"
    shorter.write_text(json.dumps({**TINY, "data": {**TINY["data"],
                                                    "rotation_degrees": [0]}}))
    capsys.readouterr()
    assert cli.main(["run", "--config", str(shorter), "--out", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[config]:") and str(run_dir) in err
    assert {p: p.read_bytes() for p in run_dir.rglob("*") if p.is_file()} == before


# neither of two clients holds rows of the first stream position (the
# shuffled streams are [[0, 1], [1, 0]]), so no client could score task 0
UNHELD_FIRST = {"mode": "disjoint", "clients": 2, "alpha": 0.001, "seed": 2,
                "rounds_per_task": 1, "local_epochs": 1,
                "data": {"num_classes": 2, "input_dim": 4, "samples_per_class": 10,
                         "rotation_degrees": [0, 180], "stream_mode": "shuffled"}}


@pytest.mark.parametrize("mode", ["disjoint", "pfeddil", "fedavg"])
def test_run_without_rows_at_a_stream_position_is_config_error(tmp_path, capsys, mode):
    path = tmp_path / "unheld.json"
    path.write_text(json.dumps(dict(UNHELD_FIRST, mode=mode)))
    run_dir = tmp_path / "run"
    capsys.readouterr()
    assert cli.main(["run", "--config", str(path), "--out", str(run_dir)]) == 2
    assert capsys.readouterr().err == (
        "error[config]: no client holds training rows at stream position 0\n")
    assert not (run_dir / "manifest.json").exists()


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


def task_file(run_dir, tpos):
    return run_dir / "checkpoints" / f"task_{tpos:02d}.state"


def record_offsets(raw):
    """Where each client's record starts in a task checkpoint of TINY_ARCH
    models, then where the last one ends."""
    (count,) = struct.unpack("<I", raw[8:12])
    offsets = [TASK_HEADER]
    for _ in range(count):
        _, pool, n_bind = struct.unpack("<III", raw[offsets[-1]:offsets[-1] + 12])
        offsets.append(offsets[-1] + 12 + 8 * n_bind + pool * MODEL_BYTES)
    return offsets


def read_states(path, num_clients, tpos):
    with open_task_reader(path, TINY_ARCH, num_clients) as r:
        return [load_client_state(r, TINY_ARCH, k, tpos) for k in range(num_clients)]


def _zero_a_data_tail(run_dir):
    # the last 100 bytes are task 1's last test labels; zeros are valid labels
    path = run_dir / "data" / "task_01.bin"
    raw = path.read_bytes()
    path.write_bytes(raw[:-100] + bytes(100))


def _flip_a_pool_index(run_dir):
    # client 1's task-0 pool index, 0 -> 1: the binding stays valid
    path = task_file(run_dir, 1)
    raw = bytearray(path.read_bytes())
    raw[record_offsets(raw)[1] + 16] ^= 0x01
    path.write_bytes(bytes(raw))


def _edit_a_metrics_cell(run_dir):
    path = run_dir / "metrics.csv"
    path.write_bytes(path.read_bytes().replace(b"0.791667", b"0.791668"))


@pytest.mark.parametrize("mode, tamper, message", [
    ("pfeddil", _zero_a_data_tail,
     "line 4 is 'pfeddil,0,test_size,1,1,0.791667\\r\\n', but eval recomputed "
     "'pfeddil,0,test_size,1,1,0.208333\\r\\n'"),
    ("disjoint", _flip_a_pool_index,
     "line 3 is 'disjoint,0,test_size,1,0,0.000000\\r\\n', but eval recomputed "
     "'disjoint,0,test_size,1,0,0.069444\\r\\n'"),
    ("pfeddil", _edit_a_metrics_cell,
     "line 4 is 'pfeddil,0,test_size,1,1,0.791668\\r\\n', but eval recomputed "
     "'pfeddil,0,test_size,1,1,0.791667\\r\\n'"),
    ("pfeddil", lambda run_dir: (run_dir / "metrics.csv").unlink(),
     "missing run metrics file"),
], ids=["data_tail", "pool_index", "edited_metrics", "removed_metrics"])
def test_eval_rejects_metrics_it_does_not_reproduce(tmp_path, capsys, mode, tamper, message):
    # each tampering passes every check of the files that scoring reads, so
    # eval scores the run, writes what it recomputed to --out, then refuses it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(TINY, mode=mode)))
    run_dir, out = tmp_path / "run", tmp_path / "eval"
    assert cli.main(["run", "--config", str(cfg), "--out", str(run_dir)]) == 0
    tamper(run_dir)
    capsys.readouterr()
    assert cli.main(["eval", str(run_dir), "--out", str(out)]) == 3
    path = run_dir / "metrics.csv"
    see = "" if message.startswith("missing") else f" (see {out / 'metrics.csv'})"
    assert capsys.readouterr().err == f"error[data]: {path}: {message}{see}\n"
    assert sorted(p.name for p in out.iterdir()) == ["metrics.csv", "metrics.json",
                                                     "summary.csv"]


def test_eval_rejects_an_invalid_arch_header(tiny_config, tmp_path, capsys):
    run_dir = tmp_path / "run"
    cli.main(["run", "--config", str(tiny_config), "--out", str(run_dir)])
    path = task_file(run_dir, 0)
    raw = bytearray(path.read_bytes())
    raw[12:16] = bytes(4)  # the architecture's input_dim
    path.write_bytes(bytes(raw))
    capsys.readouterr()
    assert cli.main(["eval", str(run_dir)]) == 3
    assert capsys.readouterr().err == (f"error[data]: {path}: the header is not the "
                                       f"config's (client count 3, {TINY_ARCH})\n")


def test_eval_refuses_a_parent_format_task_file(tiny_config, tmp_path, capsys):
    # format version 1: a 12-byte header, and every model a record of its
    # own after a 28-byte header, its weights stored as (out, in)
    run_dir = tmp_path / "run"
    assert cli.main(["run", "--config", str(tiny_config), "--out", str(run_dir)]) == 0
    path = task_file(run_dir, 1)
    model_header = b"PFDL" + struct.pack("<IIIIII", 1, 6, 3, 2, 10, 6)
    parent = b"PFDT" + struct.pack("<II", 1, 3)
    for k, state in enumerate(read_states(path, 3, 1)):
        parent += struct.pack("<III", k, len(state.pool), len(state.task_bindings))
        for pair in sorted(state.task_bindings.items()):
            parent += struct.pack("<II", *pair)
        for model in state.pool:
            parent += model_header + b"".join(
                a.tobytes() for block in model.blocks for a in (block[:-1].T, block[-1]))
    path.write_bytes(parent)
    capsys.readouterr()
    assert cli.main(["eval", str(run_dir)]) == 3
    assert capsys.readouterr().err == (f"error[data]: {path}: unsupported format "
                                       "version 1\n")


def test_eval_rejects_trailing_bytes(tiny_config, tmp_path, capsys):
    # one byte, or a whole float's worth
    run_dir = tmp_path / "run"
    cli.main(["run", "--config", str(tiny_config), "--out", str(run_dir)])
    path = task_file(run_dir, 0)
    raw = path.read_bytes()
    for extra in (b"\0", bytes(8)):
        path.write_bytes(raw + extra)
        capsys.readouterr()
        assert cli.main(["eval", str(run_dir)]) == 3
        assert capsys.readouterr().err == (f"error[data]: {path}: trailing bytes "
                                           "after the last client\n")


def test_eval_rejects_trailing_bytes_after_a_dataset(tiny_config, tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert cli.main(["run", "--config", str(tiny_config), "--out", str(run_dir)]) == 0
    path = run_dir / "data" / "task_01.bin"
    path.write_bytes(path.read_bytes() + b"X")
    capsys.readouterr()
    assert cli.main(["eval", str(run_dir)]) == 3
    assert capsys.readouterr().err == (f"error[data]: {path}: trailing bytes "
                                       "after the test labels\n")


def test_eval_refuses_a_run_directory_of_per_client_checkpoints(tiny_config, tmp_path,
                                                                capsys):
    # the version-1 layout before task checkpoints: one PFDS file and one
    # .rho.json sidecar per client and task, which are a task checkpoint's
    # records behind their own magic and version
    run_dir = tmp_path / "run"
    assert cli.main(["run", "--config", str(tiny_config), "--out", str(run_dir)]) == 0
    for tpos in range(2):
        path = task_file(run_dir, tpos)
        raw = path.read_bytes()
        offsets = record_offsets(raw)
        assert offsets[-1] == len(raw)
        (run_dir / "checkpoints" / f"task_{tpos:02d}").mkdir()
        for k, (lo, hi) in enumerate(zip(offsets, offsets[1:])):
            client = run_dir / "checkpoints" / f"task_{tpos:02d}" / f"client_{k:03d}.state"
            client.write_bytes(b"PFDS" + struct.pack("<I", 1) + raw[lo:hi])
            client.with_suffix(".rho.json").write_text("[]\n")
        path.unlink()
    capsys.readouterr()
    assert cli.main(["eval", str(run_dir)]) == 3
    assert capsys.readouterr().err == (f"error[data]: {task_file(run_dir, 0)}: "
                                       "missing checkpoint\n")


def test_eval_rejects_a_missing_checkpoint(tiny_config, tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert cli.main(["run", "--config", str(tiny_config), "--out", str(run_dir)]) == 0
    path = task_file(run_dir, 1)
    path.unlink()
    assert cli.main(["eval", str(run_dir)]) == 3
    assert capsys.readouterr().err == f"error[data]: {path}: missing checkpoint\n"


@pytest.mark.parametrize("name", ["checkpoints/task_01.state",
                                  "data/task_01.bin", "manifest.json"],
                         ids=["checkpoint", "dataset", "manifest"])
def test_eval_rejects_an_unreadable_file(tiny_config, tmp_path, capsys, name):
    run_dir = tmp_path / "run"
    assert cli.main(["run", "--config", str(tiny_config), "--out", str(run_dir)]) == 0
    path = run_dir / name
    path.unlink()
    path.mkdir()
    capsys.readouterr()
    assert cli.main(["eval", str(run_dir)]) == 3
    assert capsys.readouterr().err.startswith(f"error[data]: {path}: cannot be read (")


def test_eval_rejects_every_header_byte_flip(tiny_config, tmp_path, capsys):
    # each byte of the task checkpoint's header, its architecture included,
    # and of every client record's header and bindings, xor 0x01 and xor
    # 0x80, is exit 3 and a one-line error. Each client binds tasks 0
    # and 1 to models 0 and 1; only a flipped pool index that still binds
    # them once each inside the pool of 2 may load, two per record:
    # nothing in the file alone can tell it apart, and none changes TINY's
    # pfeddil metrics, so eval's check against the run's metrics passes it.
    run_dir = tmp_path / "run"
    assert cli.main(["run", "--config", str(tiny_config), "--out", str(run_dir)]) == 0
    path = task_file(run_dir, 1)
    raw = path.read_bytes()
    starts = record_offsets(raw)
    assert len(starts) == 4 and starts[-1] == len(raw)
    offsets, pool_indices = [*range(TASK_HEADER)], set()
    for at in starts[:-1]:
        pool, n_bind = struct.unpack("<II", raw[at + 4:at + 12])
        assert (pool, n_bind) == (2, 2)
        offsets += range(at, at + 28)
        pool_indices |= {at + 16, at + 24}
    assert len(offsets) == 116
    loaded = set()
    for at in offsets:
        for bit in (0x01, 0x80):
            flipped = bytearray(raw)
            flipped[at] ^= bit
            path.write_bytes(bytes(flipped))
            capsys.readouterr()
            code = cli.main(["eval", str(run_dir), "--out", str(tmp_path / "eval")])
            err = capsys.readouterr().err
            assert code == 3 or (code == 0 and at in pool_indices), (at, bit, code)
            assert code == 0 or err.startswith(f"error[data]: {path}: "), (at, bit, err)
            if code == 0:
                loaded.add((at, bit))
    assert loaded == {(at, 0x01) for at in pool_indices}  # a pool index 0 <-> 1


@pytest.mark.parametrize("edit", [
    lambda text: text[:len(text) // 2],
    lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "seeds"}),
    lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "config"}),
], ids=["invalid_json", "no_seeds", "no_config"])
def test_eval_rejects_a_bad_manifest(tiny_config, tmp_path, capsys, edit):
    run_dir = tmp_path / "run"
    assert cli.main(["run", "--config", str(tiny_config), "--out", str(run_dir)]) == 0
    path = run_dir / "manifest.json"
    path.write_text(edit(path.read_text()))
    capsys.readouterr()
    assert cli.main(["eval", str(run_dir)]) == 3
    assert capsys.readouterr().err.startswith(f"error[data]: {path}: ")


def test_eval_keeps_exit_2_for_an_invalid_manifest_config(tiny_config, tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert cli.main(["run", "--config", str(tiny_config), "--out", str(run_dir)]) == 0
    path = run_dir / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["config"]["lr"] = -1.0
    path.write_text(json.dumps(manifest))
    assert cli.main(["eval", str(run_dir)]) == 2
    assert capsys.readouterr().err.startswith("error[config]: lr: ")


@pytest.mark.parametrize("key, value", [
    (("mode",), "fedavg"),
    (("alpha",), 0.5),
    (("data", "stream_mode"), "shuffled"),
], ids=["mode", "alpha", "stream_mode"])
def test_eval_rejects_a_config_edited_after_the_run(tiny_config, tmp_path, capsys, key, value):
    # a valid config that is not the run's would score the checkpoints
    # under another experiment
    run_dir = tmp_path / "run"
    assert cli.main(["run", "--config", str(tiny_config), "--out", str(run_dir)]) == 0
    path = run_dir / "manifest.json"
    manifest = json.loads(path.read_text())
    *parents, last = key
    section = manifest["config"]
    for name in parents:
        section = section[name]
    assert section[last] != value
    section[last] = value
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert cli.main(["eval", str(run_dir)]) == 3
    assert capsys.readouterr().err == (f"error[data]: {path}: the config does not "
                                       f"match its config_hash\n")


def _set_client_id_7(path):
    raw = bytearray(path.read_bytes())
    at = record_offsets(raw)[1]
    raw[at:at + 4] = struct.pack("<I", 7)  # client 1's stored id
    path.write_bytes(bytes(raw))


def _swap_clients_1_and_2(path):
    raw = path.read_bytes()
    _, one, two, end = record_offsets(raw)
    path.write_bytes(raw[:one] + raw[two:end] + raw[one:two])


@pytest.mark.parametrize("tamper, stored", [(_set_client_id_7, 7), (_swap_clients_1_and_2, 2)],
                         ids=["id_7", "swapped_file"])
def test_eval_rejects_a_checkpoint_of_another_client(tiny_config, tmp_path, capsys,
                                                     tamper, stored):
    run_dir = tmp_path / "run"
    assert cli.main(["run", "--config", str(tiny_config), "--out", str(run_dir)]) == 0
    path = task_file(run_dir, 1)
    tamper(path)
    capsys.readouterr()
    assert cli.main(["eval", str(run_dir)]) == 3
    assert capsys.readouterr().err == (f"error[data]: {path}: holds client {stored}, "
                                       f"expected 1\n")


@pytest.mark.parametrize("offset, value, message", [
    (24, 9, "task 1 is bound to pool index 9, but the pool holds 2 models"),
    (20, 9, "binds task 9, but a checkpoint after task 1 holds tasks 0..1 only"),
    (20, 0, "task 0 is bound twice"),
], ids=["index_9", "task_9", "duplicate_task"])
def test_eval_rejects_a_bad_binding(tmp_path, capsys, offset, value, message):
    # a disjoint client after task 1 binds task 0 to model 0 and task 1 to
    # model 1; the second (task, pool index) pair sits at bytes 20..28 of
    # client 1's record
    cfg = tmp_path / "disjoint.json"
    cfg.write_text(json.dumps(dict(TINY, mode="disjoint")))
    run_dir = tmp_path / "run"
    assert cli.main(["run", "--config", str(cfg), "--out", str(run_dir)]) == 0
    path = task_file(run_dir, 1)
    assert read_states(path, 3, 1)[1].task_bindings == {0: 0, 1: 1}
    raw = bytearray(path.read_bytes())
    offset += record_offsets(raw)[1]
    raw[offset:offset + 4] = struct.pack("<I", value)
    path.write_bytes(bytes(raw))
    capsys.readouterr()
    assert cli.main(["eval", str(run_dir)]) == 3
    assert capsys.readouterr().err == f"error[data]: {path}: {message}\n"


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_eval_rejects_a_non_finite_parameter(tmp_path, capsys, value):
    # a pfeddil client after task 1 binds two tasks, so its first model's
    # first parameter sits at byte 28 of its record; the run itself never
    # writes one
    cfg = tmp_path / "pfeddil.json"
    cfg.write_text(json.dumps(dict(TINY, data=dict(TINY["data"],
                                                   rotation_degrees=[0, 180, 90]))))
    run_dir = tmp_path / "run"
    assert cli.main(["run", "--config", str(cfg), "--out", str(run_dir)]) == 0
    path = task_file(run_dir, 1)
    state = read_states(path, 3, 1)[1]
    assert len(state.task_bindings) == 2
    raw = bytearray(path.read_bytes())
    at = record_offsets(raw)[1] + 28
    assert raw[at:at + 8] == struct.pack("<d", state.pool[0].blocks[0][0, 0])
    raw[at:at + 8] = struct.pack("<d", value)
    path.write_bytes(bytes(raw))
    capsys.readouterr()
    assert cli.main(["eval", str(run_dir)]) == 3
    assert capsys.readouterr().err == (f"error[data]: {path}: a pool model holds "
                                       "a non-finite parameter\n")
    assert not (run_dir / "eval").exists()


THREE_TASKS = dict(TINY, data=dict(TINY["data"], rotation_degrees=[0, 90, 180]))


@pytest.fixture()
def three_task_run(tmp_path):
    cfg = tmp_path / "three.json"
    cfg.write_text(json.dumps(THREE_TASKS))
    run_dir = tmp_path / "run"
    assert cli.main(["run", "--config", str(cfg), "--out", str(run_dir)]) == 0
    return run_dir


@pytest.mark.parametrize("task", [0, 1, 2])
def test_eval_rejects_a_missing_task_dataset(three_task_run, capsys, task):
    path = three_task_run / "data" / f"task_{task:02d}.bin"
    path.unlink()
    assert cli.main(["eval", str(three_task_run)]) == 3
    assert f"{path}: missing task dataset" in capsys.readouterr().err


def test_eval_rejects_a_dataset_of_another_task(three_task_run, capsys):
    data = three_task_run / "data"
    (data / "task_01.bin").write_bytes((data / "task_02.bin").read_bytes())
    assert cli.main(["eval", str(three_task_run)]) == 3
    assert "task_01.bin: holds task 2, expected 1" in capsys.readouterr().err


def test_eval_rejects_a_huge_dataset_row_count(three_task_run, capsys):
    # n_train and n_test of 2**40 are a truncated file, not a 2**40-row read
    path = three_task_run / "data" / "task_01.bin"
    raw = bytearray(path.read_bytes())
    (dom_len,) = struct.unpack("<I", raw[28:32])
    raw[32 + dom_len:48 + dom_len] = struct.pack("<QQ", 2**40, 2**40)
    path.write_bytes(bytes(raw))
    assert cli.main(["eval", str(three_task_run)]) == 3
    assert "truncated file" in capsys.readouterr().err


@pytest.mark.parametrize("data_override, message", [
    ({"input_dim": 8}, "feature width is 8, the config gives 6"),
    ({"num_classes": 4}, "num_classes is 4, the config gives 3"),
    ({"samples_per_class": 50}, "train rows is 120, the config gives 96"),
], ids=["feature_width", "num_classes", "row_counts"])
def test_eval_rejects_a_dataset_of_another_shape(three_task_run, tmp_path, capsys,
                                                 data_override, message):
    # a well-formed task_01.bin generated from another data config
    other = tmp_path / "other.json"
    other.write_text(json.dumps(dict(
        THREE_TASKS, data=dict(THREE_TASKS["data"], **data_override))))
    assert cli.main(["gen-data", "--config", str(other),
                     "--out", str(tmp_path / "other")]) == 0
    path = three_task_run / "data" / "task_01.bin"
    path.write_bytes((tmp_path / "other" / "data" / "task_01.bin").read_bytes())
    capsys.readouterr()
    assert cli.main(["eval", str(three_task_run)]) == 3
    assert f"{path}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("other, message", [
    ({"data": dict(THREE_TASKS["data"], rotation_degrees=[0, 45, 180])},
     "domain is {'name': 'rot45+noise0.3', 'steps': [{'kind': 'rotation', "
     "'angle': 0.7853981633974483}, {'kind': 'noise', 'sigma': 0.3}]}, "
     "the config gives {'name': 'rot90+noise0.3', 'steps': [{'kind': 'rotation', "
     "'angle': 1.5707963267948966}, {'kind': 'noise', 'sigma': 0.3}]}"),
    ({"seed": 5}, "base seed is 5, the manifest gives 0"),
], ids=["domain", "seed"])
def test_eval_rejects_a_dataset_of_another_domain_or_seed(three_task_run, tmp_path,
                                                          capsys, other, message):
    # same shapes, so only the domain block or the header seed tells
    cfg = tmp_path / "other.json"
    cfg.write_text(json.dumps(dict(THREE_TASKS, **other)))
    assert cli.main(["gen-data", "--config", str(cfg),
                     "--out", str(tmp_path / "other")]) == 0
    path = three_task_run / "data" / "task_01.bin"
    path.write_bytes((tmp_path / "other" / "data" / "task_01.bin").read_bytes())
    capsys.readouterr()
    assert cli.main(["eval", str(three_task_run)]) == 3
    assert f"{path}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("split, field, value, message", [
    ("test", "y", 7, "test label 7 is outside [0, 3)"),
    ("test", "y", 3, "test label 3 is outside [0, 3)"),
    ("test", "x", float("nan"), "a test feature is not finite"),
    ("train", "x", float("inf"), "a train feature is not finite"),
], ids=["label_7", "label_num_classes", "nan_feature", "inf_feature"])
def test_eval_rejects_a_dataset_with_bad_values(three_task_run, capsys,
                                                split, field, value, message):
    # overwrite the last label or feature of one split of task_01.bin
    path = three_task_run / "data" / "task_01.bin"
    raw = bytearray(path.read_bytes())
    (dim,) = struct.unpack("<I", raw[16:20])
    (dom_len,) = struct.unpack("<I", raw[28:32])
    n_train, n_test = struct.unpack("<QQ", raw[32 + dom_len:48 + dom_len])
    train_x = 48 + dom_len
    test_x = train_x + n_train * (8 * dim + 4)
    x_end, y_end = ((train_x + 8 * dim * n_train, test_x) if split == "train"
                    else (test_x + 8 * dim * n_test, len(raw)))
    if field == "y":
        raw[y_end - 4:y_end] = struct.pack("<I", value)
    else:
        raw[x_end - 8:x_end] = struct.pack("<d", value)
    path.write_bytes(bytes(raw))
    assert cli.main(["eval", str(three_task_run)]) == 3
    assert f"{path}: {message}" in capsys.readouterr().err


def test_eval_rejects_a_model_of_another_arch(tiny_config, tmp_path, capsys):
    run_dir = tmp_path / "run"
    cli.main(["run", "--config", str(tiny_config), "--out", str(run_dir)])
    path = task_file(run_dir, 0)
    states = read_states(path, 3, 0)
    other = nn.ArchSpec(input_dim=6, hidden_dims=(6, 10), num_classes=3)
    states[2].pool = [nn.init_model(other, 0) for _ in states[2].pool]
    with open_task_writer(path, TINY_ARCH, 3) as fh:
        for state in states:
            save_client_state(fh, state)
    capsys.readouterr()
    # the pool is sized by the config's architecture, and (6, 10) has
    # fewer parameters, so the file ends before the last client's pool does
    assert cli.main(["eval", str(run_dir)]) == 3
    assert f"{path}: truncated file" in capsys.readouterr().err


def test_divergent_run_exits_4_without_nan_in_events(tmp_path, capsys):
    # the guard reports the overflow itself, without a NumPy warning first
    cfg = tmp_path / "absurd_lr.json"
    cfg.write_text(json.dumps(dict(TINY, lr=1e6)))
    run_dir = tmp_path / "run"
    code = cli.main(["run", "--config", str(cfg), "--out", str(run_dir)])
    assert code == 4
    err = capsys.readouterr().err
    assert "error[invariant]: clients [2], task 0, round 2" in err

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


@pytest.mark.parametrize("doc, message", [
    ('{"lr": NaN}', "lr: expected a finite number, got nan"),
    ('{"seed": 9223372036854775808}',
     "seed: must be at most 9223372036854775807, got 9223372036854775808"),
], ids=["nan_lr", "seed_2_63"])
def test_run_rejects_an_unusable_number(tmp_path, capsys, doc, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TINY)[:-1] + ", " + doc[1:])
    code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err == f"error[config]: {message}\n"


@pytest.mark.parametrize("command", ["run", "compare", "gen-data"])
def test_seed_flag_is_validated_like_the_config(tiny_config, tmp_path, capsys, command):
    code = cli.main([command, "--config", str(tiny_config), "--seed", "-1",
                     "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err == "error[config]: seed: must be at least 0, got -1\n"


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


def test_gradcheck_fails_on_a_nan_case(monkeypatch, capsys):
    # max(worst, nan) is worst, so a fold by max once dropped a NaN case
    real, calls = gradcheck.max_rel_error, []

    def nan_on_the_third(*args):
        calls.append(args)
        return float("nan") if len(calls) == 3 else real(*args)

    monkeypatch.setattr(gradcheck, "max_rel_error", nan_on_the_third)
    assert cli.main(["gradcheck"]) == 4
    out = capsys.readouterr().out
    assert "joint-loss gradients:     max relative error nan" in out
    assert "FAIL" in out


def test_gradcheck_seed_is_validated_like_the_config(capsys):
    assert cli.main(["gradcheck", "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error[config]: seed: must be at least 0, got -1\n"


def test_gen_data_writes_datasets_and_manifest(tiny_config, tmp_path):
    out = tmp_path / "gen"
    assert cli.main(["gen-data", "--config", str(tiny_config),
                     "--out", str(out)]) == 0
    files = sorted(p.name for p in (out / "data").iterdir())
    assert files == ["data_manifest.json", "task_00.bin", "task_01.bin"]
    man = json.loads((out / "data" / "data_manifest.json").read_text())
    assert man["files"] == ["data/task_00.bin", "data/task_01.bin"]
    assert len(man["domains"]) == 2
    # the same files, byte for byte, as a run of the same config writes
    assert cli.main(["run", "--config", str(tiny_config),
                     "--out", str(tmp_path / "run")]) == 0
    for name in files:
        assert ((out / "data" / name).read_bytes()
                == (tmp_path / "run" / "data" / name).read_bytes())


@pytest.mark.parametrize("command", ["run", "gen-data", "eval", "compare"])
def test_out_naming_a_file_is_config_error(tiny_config, tmp_path, capsys, command):
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    if command == "eval":
        run_dir = tmp_path / "run"
        assert cli.main(["run", "--config", str(tiny_config), "--out", str(run_dir)]) == 0
        argv = ["eval", str(run_dir)]
    else:
        argv = [command, "--config", str(tiny_config)]
    capsys.readouterr()
    assert cli.main(argv + ["--out", str(taken)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error[config]: {taken}: cannot create the output directory")
    assert taken.read_text() == "not a directory"


def test_eval_out_naming_the_run_directory_is_config_error(tiny_config, tmp_path, capsys):
    # with a tampered dataset the recomputed metrics differ from the
    # run's, and eval must not write them over the run's own files
    run_dir = tmp_path / "run"
    assert cli.main(["run", "--config", str(tiny_config), "--out", str(run_dir)]) == 0
    data = run_dir / "data" / "task_01.bin"
    data.write_bytes(data.read_bytes()[:-100] + bytes(100))
    names = ("metrics.csv", "summary.csv", "metrics.json")
    before = [(run_dir / name).read_bytes() for name in names]
    for out in (run_dir, run_dir / "eval" / ".."):
        capsys.readouterr()
        assert cli.main(["eval", str(run_dir), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"error[config]: {out}: is the run directory, "
                                           "whose metrics eval would overwrite\n")
        assert [(run_dir / name).read_bytes() for name in names] == before
    assert not (run_dir / "eval").exists()


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


def test_compare_checks_every_seed_before_the_first_run(tiny_config, tmp_path, capsys):
    code = cli.main(["compare", "--config", str(tiny_config), "--out", str(tmp_path / "c"),
                     "--modes", "fedavg", "--seeds", "0,9223372036854775808"])
    assert code == 2
    out, err = capsys.readouterr()
    assert "seed=0" not in out
    assert err == ("error[config]: seed: must be at most 9223372036854775807, "
                   "got 9223372036854775808\n")
