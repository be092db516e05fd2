import io
import json
import struct

import numpy as np
import pytest

from pfdl import nn, serialize
from pfdl.client import ClientState
from pfdl.data import Domain, apply_domain, make_base_dataset
from pfdl.errors import DataError


def random_model(seed, arch=None):
    arch = arch or nn.ArchSpec(input_dim=5, hidden_dims=(7, 4), num_classes=3)
    return nn.init_model(arch, seed)


# ------------------------------------------------------------- models


def save_and_load(path, state, arch=None, task_pos=None):
    """state written to path and read back against arch (its first
    model's by default), after the task of its latest binding."""
    serialize.save_client_state(path, state)
    arch = arch or state.pool[0].arch
    task_pos = max(state.task_bindings, default=0) if task_pos is None else task_pos
    return serialize.load_client_state(path, arch, state.client_id, task_pos)


def test_model_roundtrip_bitwise(tmp_path):
    for seed in range(5):
        m = random_model(seed)
        state = ClientState(client_id=0, pool=[m], task_bindings={0: 0})
        (back,) = save_and_load(tmp_path / "client_000.state", state).pool
        assert back.arch == m.arch
        assert back.params.dtype == np.float64
        assert np.array_equal(back.params, m.params)


def test_model_bytes_keep_the_on_disk_layer_order(tmp_path):
    # a whole state's bytes, built by hand: on disk, per layer, the (out,
    # in) weights row-major, then the bias, whatever the in-memory layout.
    # Depth 1 makes a record's header 24 bytes, so after the 36-byte state
    # header the first model's floats sit 4 bytes off 8-byte alignment.
    arch = nn.ArchSpec(input_dim=2, hidden_dims=(3,), num_classes=2)
    shapes = [(3, 2), (3,), (2, 3), (2,), (1, 3), (1,)]
    models, disk = [], []
    for k in range(2):
        arrays, start = [], 1.0 + 100 * k
        for shape in shapes:
            arrays.append(np.arange(start, start + np.prod(shape)).reshape(shape))
            start += np.prod(shape)
        m = nn.PersonalModel(arch)
        for block, weights, bias in zip(m.blocks, arrays[::2], arrays[1::2]):
            block[:-1] = weights.T
            block[-1] = bias
        models.append(m)
        disk.append(np.concatenate([a.ravel() for a in arrays]))
    state = ClientState(client_id=5, pool=models, task_bindings={3: 1, 0: 0})
    path, _ = serialize.save_client_state(tmp_path / "client_005.state", state)
    want = (b"PFDS" + struct.pack("<IIII", 1, 5, 2, 2) + struct.pack("<4I", 0, 0, 3, 1)
            + b"".join(b"PFDL" + struct.pack("<IIIII", 1, 2, 2, 1, 3)
                       + struct.pack(f"<{arch.param_count()}d", *d) for d in disk))
    assert path.read_bytes() == want
    back = serialize.load_client_state(path, arch, 5, 3)
    assert back.task_bindings == {0: 0, 3: 1}
    for got, m in zip(back.pool, models):
        assert got.params.tobytes() == m.params.tobytes()
        assert got.params.flags.c_contiguous
        for block, want_block in zip(got.blocks, m.blocks):
            assert np.array_equal(block, want_block)


def test_model_bytes_start_with_magic_and_version():
    buf = io.BytesIO()
    serialize.write_model(buf, random_model(0))
    assert buf.getvalue()[:4] == b"PFDL"
    assert int.from_bytes(buf.getvalue()[4:8], "little") == 1


def test_model_bytes_deterministic():
    a, b = io.BytesIO(), io.BytesIO()
    serialize.write_model(a, random_model(3))
    serialize.write_model(b, random_model(3))
    assert a.getvalue() == b.getvalue()


def test_model_file_size_matches_layout():
    arch = nn.ArchSpec(input_dim=5, hidden_dims=(7, 4), num_classes=3)
    buf = io.BytesIO()
    serialize.write_model(buf, random_model(1, arch))
    header = 4 + 4 + 12 + 4 * len(arch.hidden_dims)
    assert len(buf.getvalue()) == header + 8 * arch.param_count()


STATE_HEADER = 20 + 8  # magic, version, client id, pool size, bindings; one binding


def corrupted(tmp_path, edit):
    """A one-model, one-binding state file after edit(bytearray)."""
    state = ClientState(client_id=0, pool=[random_model(0)], task_bindings={0: 0})
    path, _ = serialize.save_client_state(tmp_path / "client_000.state", state)
    raw = bytearray(path.read_bytes())
    edit(raw)
    path.write_bytes(bytes(raw))
    return path


def load(path):
    return serialize.load_client_state(path, random_model(0).arch, 0, 0)


def test_bad_magic_rejected(tmp_path):
    # the state's own magic, then the model record's
    for at, message in ((0, "bad magic"), (STATE_HEADER, "header is not the config's")):
        def edit(raw):
            raw[at:at + 4] = b"NOPE"
        with pytest.raises(DataError, match=message):
            load(corrupted(tmp_path, edit))


def test_bad_version_rejected(tmp_path):
    for at, message in ((4, "unsupported format version 99"),
                        (STATE_HEADER + 4, "header is not the config's")):
        def edit(raw):
            raw[at:at + 4] = (99).to_bytes(4, "little")
        with pytest.raises(DataError, match=message):
            load(corrupted(tmp_path, edit))


def test_truncated_file_rejected(tmp_path):
    def edit(raw):
        del raw[-9:]
    with pytest.raises(DataError, match="truncated"):
        load(corrupted(tmp_path, edit))


def test_huge_model_depth_is_truncation(tmp_path):
    # a depth of 2**32 - 1 once sized a 16 GiB read of hidden dims; the
    # reader now sizes every record from the config, so it is a mismatch
    def edit(raw):
        raw[STATE_HEADER + 16:STATE_HEADER + 20] = b"\xff" * 4
    with pytest.raises(DataError, match="header is not the config's"):
        load(corrupted(tmp_path, edit))


def test_huge_hidden_width_is_truncation(tmp_path):
    # a first hidden width of 2**31 - 1 once asked for about 2**34
    # parameters; sized from the config, the record is a header mismatch
    def edit(raw):
        raw[STATE_HEADER + 20:STATE_HEADER + 24] = struct.pack("<I", 2**31 - 1)
    with pytest.raises(DataError, match="header is not the config's"):
        load(corrupted(tmp_path, edit))


def test_two_architectures_roundtrip_bitwise_in_one_process(tmp_path):
    # the disk-order index is cached per architecture: two archs that
    # share a parameter count, and one that shares all but its class count
    archs = [nn.ArchSpec(input_dim=5, hidden_dims=(7, 4), num_classes=3),
             nn.ArchSpec(input_dim=5, hidden_dims=(5, 6), num_classes=3),
             nn.ArchSpec(input_dim=5, hidden_dims=(7, 4), num_classes=4)]
    assert archs[0].param_count() == archs[1].param_count()
    for i, arch in enumerate(archs):
        models = [random_model(seed, arch) for seed in (0, 1)]
        for model in models:
            model.params += np.arange(model.params.size)  # distinct biases too
        state = ClientState(client_id=i, pool=models, task_bindings={0: 0, 1: 1})
        back = save_and_load(tmp_path / f"client_{i:03d}.state", state)
        for got, model in zip(back.pool, models):
            assert got.arch == arch
            assert got.params.tobytes() == model.params.tobytes()
    # and each is refused against another's: the record sizes differ, or
    # with archs[1] read as archs[0], only the headers do
    for i, arch in enumerate(archs):
        with pytest.raises(DataError, match="header is not the config's|truncated"):
            serialize.load_client_state(tmp_path / f"client_{i:03d}.state",
                                        archs[i - 1], i, 1)


@pytest.mark.parametrize("field", [0, 1, 2])
def test_invalid_arch_header_rejected(tmp_path, field):
    # input_dim, num_classes or depth of zero describes no architecture
    def edit(raw):
        at = STATE_HEADER + 8 + 4 * field
        raw[at:at + 4] = bytes(4)
    with pytest.raises(DataError, match="header is not the config's"):
        load(corrupted(tmp_path, edit))


# ------------------------------------------------------------- datasets


def test_dataset_roundtrip(tmp_path):
    base = make_base_dataset(3, 6, 30, 2.0, seed=5)
    dom = Domain(57.3, 0.2)
    task = apply_domain(base, dom, task_id=2)
    path = tmp_path / "task.bin"
    serialize.save_dataset(path, task)
    back = serialize.load_dataset(path)
    assert back.task_id == 2
    assert back.num_classes == 3
    assert back.seed == 5
    assert back.domain == task.domain == dom.to_dict()
    assert np.array_equal(back.train_x, task.train_x)
    assert np.array_equal(back.train_y, task.train_y)
    assert np.array_equal(back.test_x, task.test_x)
    assert np.array_equal(back.test_y, task.test_y)


def test_dataset_magic(tmp_path):
    base = make_base_dataset(2, 3, 10, 1.0, seed=0)
    path = tmp_path / "t.bin"
    serialize.save_dataset(path, base)
    assert path.read_bytes()[:4] == b"PFDD"
    with pytest.raises(DataError, match="bad magic"):  # the wrong reader for this magic
        serialize.load_client_state(path, random_model(0).arch, 0, 0)


@pytest.mark.parametrize("offset, byte", [(-1, b" "), (0, b"\xff")],
                         ids=["json", "utf8"])
def test_bad_domain_block_is_data_error(tmp_path, offset, byte):
    # the block's closing brace blanked, or its first byte not UTF-8
    path = tmp_path / "t.bin"
    serialize.save_dataset(path, make_base_dataset(2, 3, 10, 1.0, seed=0))
    raw = bytearray(path.read_bytes())
    (dom_len,) = struct.unpack("<I", raw[28:32])
    at = 32 + offset % dom_len
    raw[at:at + 1] = byte
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError, match="bad domain block"):
        serialize.load_dataset(path)


# ------------------------------------------------------------- states


def test_client_state_roundtrip(tmp_path):
    state = ClientState(client_id=4)
    state.pool = [random_model(i) for i in range(3)]
    state.task_bindings = {0: 0, 1: 2, 2: 1}
    state.rho_history = [{"task": 0, "decision": "new_model"},
                         {"task": 1, "rho": [0.5, 0.25]}]
    path, sidecar = serialize.save_client_state(tmp_path / "client_004.state", state)
    assert path.read_bytes()[:4] == b"PFDS"
    assert json.loads(sidecar.read_text()) == state.rho_history
    back = serialize.load_client_state(path, state.pool[0].arch, 4, 2)
    assert back.client_id == 4
    assert back.task_bindings == state.task_bindings
    assert back.rho_history == []
    assert len(back.pool) == 3
    for m, b in zip(state.pool, back.pool):
        assert np.array_equal(m.params, b.params)


def test_huge_pool_size_is_truncation(tmp_path):
    state = ClientState(client_id=0, pool=[random_model(0)], task_bindings={0: 0})
    path, _ = serialize.save_client_state(tmp_path / "client_000.state", state)
    raw = bytearray(path.read_bytes())
    raw[12:16] = b"\xff" * 4  # pool size 2**32 - 1
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError, match="truncated"):
        load(path)


def test_client_state_without_sidecar(tmp_path):
    state = ClientState(client_id=0, pool=[random_model(0)], task_bindings={0: 0})
    path, sidecar = serialize.save_client_state(tmp_path / "client_000.state", state)
    sidecar.unlink()
    back = load(path)
    assert back.rho_history == []

