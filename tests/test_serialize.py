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


def test_model_roundtrip_bitwise():
    for seed in range(5):
        m = random_model(seed)
        buf = io.BytesIO()
        serialize.write_model(buf, m)
        buf.seek(0)
        back = serialize.read_model(buf)
        assert back.arch == m.arch
        assert back.params.dtype == np.float64
        assert np.array_equal(back.params, m.params)
        assert buf.read() == b""


def test_model_bytes_keep_the_on_disk_layer_order():
    # on disk: per layer, the (out, in) weights row-major, then the bias,
    # whatever the in-memory layout
    arch = nn.ArchSpec(input_dim=2, hidden_dims=(3,), num_classes=2)
    shapes = [(3, 2), (3,), (2, 3), (2,), (1, 3), (1,)]
    arrays = []
    start = 1.0
    for shape in shapes:
        arrays.append(np.arange(start, start + np.prod(shape)).reshape(shape))
        start += np.prod(shape)
    m = nn.PersonalModel(arch)
    for block, weights, bias in zip(m.blocks, arrays[::2], arrays[1::2]):
        block[:-1] = weights.T
        block[-1] = bias
    buf = io.BytesIO()
    serialize.write_model(buf, m)
    want = np.concatenate([a.ravel() for a in arrays]).astype("<f8").tobytes()
    header = 4 + 4 + 12 + 4 * len(arch.hidden_dims)
    assert buf.getvalue()[header:] == want
    buf.seek(0)
    back = serialize.read_model(buf)
    assert back.params.tobytes() == m.params.tobytes()
    for block, weights, bias in zip(back.blocks, arrays[::2], arrays[1::2]):
        assert np.array_equal(block[:-1].T, weights)
        assert np.array_equal(block[-1], bias)


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


def corrupted(edit) -> io.BytesIO:
    """A written model's bytes after edit(bytearray), ready to read."""
    buf = io.BytesIO()
    serialize.write_model(buf, random_model(0))
    raw = bytearray(buf.getvalue())
    edit(raw)
    return io.BytesIO(bytes(raw))


def test_bad_magic_rejected():
    def edit(raw):
        raw[:4] = b"NOPE"
    with pytest.raises(DataError, match="magic"):
        serialize.read_model(corrupted(edit))


def test_bad_version_rejected():
    def edit(raw):
        raw[4:8] = (99).to_bytes(4, "little")
    with pytest.raises(DataError, match="version"):
        serialize.read_model(corrupted(edit))


def test_truncated_file_rejected():
    def edit(raw):
        del raw[-9:]
    with pytest.raises(DataError, match="truncated"):
        serialize.read_model(corrupted(edit))


def test_huge_model_depth_is_truncation(tmp_path):
    # a depth of 2**32 - 1 would read 16 GiB of hidden dims
    def edit(raw):
        raw[16:20] = b"\xff" * 4
    path = tmp_path / "model.bin"
    path.write_bytes(corrupted(edit).getvalue())
    with open(path, "rb") as fh, pytest.raises(DataError, match="truncated"):
        serialize.read_model(fh)


def test_huge_hidden_width_is_truncation():
    # a hidden width of 2**31 - 1 asks for about 2**34 parameters, and the
    # disk-order index is built only once the bytes are known to be there
    def edit(raw):
        raw[20:24] = struct.pack("<I", 2**31 - 1)  # the first hidden width
    with pytest.raises(DataError, match="truncated"):
        serialize.read_model(corrupted(edit))


def test_two_architectures_roundtrip_bitwise_in_one_process():
    # the disk-order index is cached per architecture: two archs that
    # share a parameter count, and one that shares all but its class count
    archs = [nn.ArchSpec(input_dim=5, hidden_dims=(7, 4), num_classes=3),
             nn.ArchSpec(input_dim=5, hidden_dims=(5, 6), num_classes=3),
             nn.ArchSpec(input_dim=5, hidden_dims=(7, 4), num_classes=4)]
    assert archs[0].param_count() == archs[1].param_count()
    models = [random_model(seed, arch) for arch in archs for seed in (0, 1)]
    for model in models:
        model.params += np.arange(model.params.size)  # distinct biases too
    buf = io.BytesIO()
    for model in models:
        start = buf.tell() + 4 + 4 + 12 + 4 * len(model.arch.hidden_dims)
        serialize.write_model(buf, model)
        # the version-1 order, which a round trip alone would not pin
        want = np.concatenate([a.ravel() for b in model.blocks for a in (b[:-1].T, b[-1])])
        assert buf.getvalue()[start:] == want.astype("<f8").tobytes()
    buf.seek(0)
    for model in models:
        back = serialize.read_model(buf)
        assert back.arch == model.arch
        assert back.params.tobytes() == model.params.tobytes()
        for got, want in zip(back.blocks, model.blocks):
            assert np.array_equal(got, want)
    assert buf.read() == b""


@pytest.mark.parametrize("field", [0, 1, 2])
def test_invalid_arch_header_rejected(field):
    # input_dim, num_classes or depth of zero describes no architecture
    def edit(raw):
        raw[8 + 4 * field:12 + 4 * field] = bytes(4)
    with pytest.raises(DataError, match="bad model header"):
        serialize.read_model(corrupted(edit))


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
    with open(path, "rb") as fh, pytest.raises(DataError):
        serialize.read_model(fh)  # wrong reader for this magic


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
    back = serialize.load_client_state(path)
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
        serialize.load_client_state(path)


def test_client_state_without_sidecar(tmp_path):
    state = ClientState(client_id=0, pool=[random_model(0)], task_bindings={0: 0})
    path, sidecar = serialize.save_client_state(tmp_path / "client_000.state", state)
    sidecar.unlink()
    back = serialize.load_client_state(path)
    assert back.rho_history == []

