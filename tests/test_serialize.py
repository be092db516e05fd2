import io

import numpy as np
import pytest

from pfdl import nn, serialize
from pfdl.client import ClientState
from pfdl.data import DomainSpec, Noise, Rotation, apply_domain, make_base_dataset
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
    dom = DomainSpec(steps=(Rotation(angle=1.0), Noise(sigma=0.2)), name="rot+noise")
    task = apply_domain(base, dom, task_id=2)
    path = tmp_path / "task.bin"
    serialize.save_dataset(path, task)
    back = serialize.load_dataset(path)
    assert back.task_id == 2
    assert back.num_classes == 3
    assert back.seed == 5
    assert back.domain.name == "rot+noise"
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


# ------------------------------------------------------------- states


def test_client_state_roundtrip(tmp_path):
    state = ClientState(client_id=4)
    state.pool = [random_model(i) for i in range(3)]
    state.task_bindings = {0: 0, 1: 2, 2: 1}
    state.rho_history = [{"task": 0, "decision": "new_model"},
                         {"task": 1, "rho": [0.5, 0.25]}]
    path, sidecar = serialize.save_client_state(tmp_path, state)
    assert path.read_bytes()[:4] == b"PFDS"
    back = serialize.load_client_state(path)
    assert back.client_id == 4
    assert back.task_bindings == state.task_bindings
    assert back.rho_history == state.rho_history
    assert len(back.pool) == 3
    for m, b in zip(state.pool, back.pool):
        assert np.array_equal(m.params, b.params)


def test_client_state_without_sidecar(tmp_path):
    state = ClientState(client_id=0, pool=[random_model(0)], task_bindings={0: 0})
    path, sidecar = serialize.save_client_state(tmp_path, state)
    sidecar.unlink()
    back = serialize.load_client_state(path)
    assert back.rho_history == []

