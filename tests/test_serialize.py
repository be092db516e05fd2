import os
import re
import struct

import numpy as np
import pytest

from pfdl import nn, serialize
from pfdl.client import ClientState
from pfdl.data import Domain, apply_domain, make_base_dataset
from pfdl.errors import DataError


ARCH = nn.ArchSpec(input_dim=5, hidden_dims=(7, 4), num_classes=3)
TASK_HEADER = 32  # magic, version, client count, then ARCH: 5, 3, depth 2, 7, 4


def random_model(seed, arch=ARCH):
    return nn.init_model(arch, seed)


# ------------------------------------------------------------- models


def save_states(path, arch, *states):
    """A task checkpoint at path of arch models, holding the records of
    states in order."""
    with serialize.open_task_writer(path, arch, len(states)) as fh:
        for state in states:
            serialize.save_client_state(fh, state)
    return path


def load_states(path, arch, client_ids, task_pos):
    """The records of a task checkpoint, read as clients client_ids."""
    with serialize.open_task_reader(path, arch, len(client_ids)) as r:
        return [serialize.load_client_state(r, arch, k, task_pos) for k in client_ids]


def save_and_load(path, state, arch=None, task_pos=None):
    """state written to path as a one-record task checkpoint of its first
    model's arch and read back against arch (that one by default), after
    the task of its latest binding."""
    save_states(path, state.pool[0].arch, state)
    arch = arch or state.pool[0].arch
    task_pos = max(state.task_bindings, default=0) if task_pos is None else task_pos
    (back,) = load_states(path, arch, [state.client_id], task_pos)
    return back


def test_model_roundtrip_bitwise(tmp_path):
    for seed in range(5):
        m = random_model(seed)
        state = ClientState(client_id=0, pool=[m], task_bindings={0: 0})
        (back,) = save_and_load(tmp_path / "task_00.state", state).pool
        assert back.arch == m.arch
        assert back.params.dtype == np.float64
        assert np.array_equal(back.params, m.params)


def test_task_file_bytes_pin_the_layout(tmp_path):
    # a whole task checkpoint's bytes, built by hand: magic, version 2,
    # the client count and the architecture (input_dim, num_classes,
    # depth, hidden widths), then per client its id, pool size, binding
    # count and (task, pool index) pairs, then its pool. Each model is
    # its raw float64 parameters layer by layer, each layer its (in, out)
    # transposed weights row-major, then its bias: the [Wᵀ; b] blocks of
    # memory. Client 1's pool is empty.
    arch = nn.ArchSpec(input_dim=2, hidden_dims=(3,), num_classes=2)
    shapes = [(3, 2), (3,), (2, 3), (2,), (1, 3), (1,)]
    models, floats = [], []
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
        floats.append(struct.pack(f"<{arch.param_count()}d", *np.concatenate(
            [a for w, b in zip(arrays[::2], arrays[1::2]) for a in (w.T.ravel(), b)])))
    states = [ClientState(client_id=0, pool=models, task_bindings={3: 1, 0: 0}),
              ClientState(client_id=1),
              ClientState(client_id=2, pool=models[1:], task_bindings={2: 0})]
    path = save_states(tmp_path / "task_03.state", arch, *states)
    want = (b"PFDT" + struct.pack("<II", 2, 3) + struct.pack("<4I", 2, 2, 1, 3)
            + struct.pack("<III", 0, 2, 2) + struct.pack("<4I", 0, 0, 3, 1) + b"".join(floats)
            + struct.pack("<III", 1, 0, 0)
            + struct.pack("<III", 2, 1, 1) + struct.pack("<2I", 2, 0) + floats[1])
    assert path.read_bytes() == want
    back = load_states(path, arch, [0, 1, 2], 3)
    assert [st.task_bindings for st in back] == [{0: 0, 3: 1}, {}, {2: 0}]
    assert back[1].pool == []
    for got, m in zip(back[0].pool + back[2].pool, models + models[1:]):
        assert got.params.tobytes() == m.params.tobytes()
        assert got.params.flags.c_contiguous
        for block, want_block in zip(got.blocks, m.blocks):
            assert np.array_equal(block, want_block)


def test_model_bytes_deterministic(tmp_path):
    state = ClientState(client_id=0, pool=[random_model(3)], task_bindings={0: 0})
    a = save_states(tmp_path / "a.state", ARCH, state)
    b = save_states(tmp_path / "b.state", ARCH, state)
    assert a.read_bytes() == b.read_bytes()


def test_model_file_size_matches_layout(tmp_path):
    state = ClientState(client_id=0, pool=[random_model(1), random_model(2)],
                        task_bindings={0: 0})
    path = save_states(tmp_path / "task_00.state", ARCH, state)
    assert path.stat().st_size == TASK_HEADER + 12 + 8 + 2 * 8 * ARCH.param_count()


def corrupted(tmp_path, edit):
    """A task checkpoint of one one-model, one-binding client after
    edit(bytearray)."""
    state = ClientState(client_id=0, pool=[random_model(0)], task_bindings={0: 0})
    path = save_states(tmp_path / "task_00.state", ARCH, state)
    raw = bytearray(path.read_bytes())
    edit(raw)
    path.write_bytes(bytes(raw))
    return path


def load(path):
    (state,) = load_states(path, ARCH, [0], 0)
    return state


def not_the_configs(clients=1, arch=ARCH):
    """The reader's message for a task header that is not the config's."""
    return re.escape(f"the header is not the config's (client count {clients}, {arch})")


def test_bad_magic_rejected(tmp_path):
    def edit(raw):
        raw[0:4] = b"NOPE"
    with pytest.raises(DataError, match="bad magic"):
        load(corrupted(tmp_path, edit))


def test_bad_version_rejected(tmp_path):
    # version 1 is the parent format, with a header per model
    for version in (99, 1):
        def edit(raw):
            raw[4:8] = version.to_bytes(4, "little")
        with pytest.raises(DataError,
                           match=f"task_00.state: unsupported format version {version}$"):
            load(corrupted(tmp_path, edit))


def test_truncated_file_rejected(tmp_path):
    def edit(raw):
        del raw[-9:]
    with pytest.raises(DataError, match="truncated"):
        load(corrupted(tmp_path, edit))


def test_huge_model_depth_is_truncation(tmp_path):
    # a depth of 2**32 - 1 once sized a 16 GiB read of hidden dims; the
    # reader compares the header's bytes with the config's, so it is a
    # mismatch
    def edit(raw):
        raw[20:24] = b"\xff" * 4
    with pytest.raises(DataError, match=not_the_configs()):
        load(corrupted(tmp_path, edit))


def test_huge_hidden_width_is_truncation(tmp_path):
    # a first hidden width of 2**31 - 1 once asked for about 2**34
    # parameters; sized from the config, the pool is a header mismatch
    def edit(raw):
        raw[24:28] = struct.pack("<I", 2**31 - 1)
    with pytest.raises(DataError, match=not_the_configs()):
        load(corrupted(tmp_path, edit))


def test_two_architectures_roundtrip_bitwise_in_one_process(tmp_path):
    # two archs that share a parameter count, and one that shares all but
    # its class count
    archs = [nn.ArchSpec(input_dim=5, hidden_dims=(7, 4), num_classes=3),
             nn.ArchSpec(input_dim=5, hidden_dims=(5, 6), num_classes=3),
             nn.ArchSpec(input_dim=5, hidden_dims=(7, 4), num_classes=4)]
    assert archs[0].param_count() == archs[1].param_count()
    for i, arch in enumerate(archs):
        models = [random_model(seed, arch) for seed in (0, 1)]
        for model in models:
            model.params += np.arange(model.params.size)  # distinct biases too
        state = ClientState(client_id=i, pool=models, task_bindings={0: 0, 1: 1})
        back = save_and_load(tmp_path / f"task_{i:02d}.state", state)
        for got, model in zip(back.pool, models):
            assert got.arch == arch
            assert got.params.tobytes() == model.params.tobytes()
    # and each is refused against another's by its header, also where
    # only the header tells them apart (archs[1] read as archs[0])
    for i, arch in enumerate(archs):
        with pytest.raises(DataError, match=not_the_configs(arch=archs[i - 1])):
            load_states(tmp_path / f"task_{i:02d}.state", archs[i - 1], [i], 1)


@pytest.mark.parametrize("field", [0, 1, 2])
def test_invalid_arch_header_rejected(tmp_path, field):
    # input_dim, num_classes or depth of zero describes no architecture
    def edit(raw):
        at = 12 + 4 * field
        raw[at:at + 4] = bytes(4)
    with pytest.raises(DataError, match=not_the_configs()):
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
        load(path)


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
    path = tmp_path / "task_02.state"
    back = save_and_load(path, state)
    assert path.read_bytes()[:4] == b"PFDT"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["task_02.state"]  # no sidecar
    assert back.client_id == 4
    assert back.task_bindings == state.task_bindings
    assert len(back.pool) == 3
    for m, b in zip(state.pool, back.pool):
        assert np.array_equal(m.params, b.params)


def test_huge_pool_size_is_truncation(tmp_path):
    def edit(raw):
        raw[TASK_HEADER + 4:TASK_HEADER + 8] = b"\xff" * 4  # pool size 2**32 - 1
    with pytest.raises(DataError, match="truncated"):
        load(corrupted(tmp_path, edit))


@pytest.mark.parametrize("count", [2, 0], ids=["more", "fewer"])
def test_task_checkpoint_client_count_is_checked(tmp_path, count):
    def edit(raw):
        raw[8:12] = struct.pack("<I", count)
    with pytest.raises(DataError, match=not_the_configs(clients=1)):
        load(corrupted(tmp_path, edit))


def test_task_checkpoint_ends_with_its_last_client(tmp_path):
    # a second client's whole record after the one the header counts
    path = save_states(tmp_path / "task_00.state", ARCH, ClientState(client_id=0),
                       ClientState(client_id=1))
    raw = bytearray(path.read_bytes())
    raw[8:12] = struct.pack("<I", 1)
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError, match="trailing bytes after the last client"):
        load_states(path, ARCH, [0], 0)


def test_reader_holds_one_record_at_a_time(tmp_path, monkeypatch):
    # no read of a task checkpoint asks for more than one client's record
    states = [ClientState(client_id=k, pool=[random_model(k + i) for i in range(3)],
                          task_bindings={0: 0}) for k in range(4)]
    path = save_states(tmp_path / "task_00.state", ARCH, *states)
    record = (path.stat().st_size - TASK_HEADER) // 4
    claims = []
    claim = serialize._Reader._claim
    monkeypatch.setattr(serialize._Reader, "_claim",
                        lambda self, n: claims.append(n) or claim(self, n))
    back = load_states(path, ARCH, [0, 1, 2, 3], 0)
    assert max(claims) < record and sum(claims) == path.stat().st_size
    assert [len(st.pool) for st in back] == [3] * 4


def test_a_file_that_shrinks_while_open_is_truncation(tmp_path):
    # the reader sizes each read against the length the file had when it
    # was opened; a pool of 20 models (15 KB) outruns the first buffered
    # read, so a file cut to its first record's header and bindings after
    # the open comes up short in the pool's read itself
    state = ClientState(client_id=0, pool=[random_model(i) for i in range(20)],
                        task_bindings={0: 0})
    path = save_states(tmp_path / "task_00.state", ARCH, state)
    with serialize.open_task_reader(path, ARCH, 1) as r:
        os.truncate(path, TASK_HEADER + 12 + 8)
        with pytest.raises(DataError) as err:
            serialize.load_client_state(r, ARCH, 0, 0)
        assert str(err.value) == f"{path}: truncated file"


def test_task_writer_leaves_no_file_when_its_block_raises(tmp_path):
    # a checkpoint is written beside its path and moved into place only
    # on a clean exit
    path = tmp_path / "task_00.state"
    state = ClientState(client_id=0, pool=[random_model(0)], task_bindings={0: 0})

    def interrupted_write():
        with pytest.raises(RuntimeError, match="interrupted"):
            with serialize.open_task_writer(path, ARCH, 1) as fh:
                serialize.save_client_state(fh, state)
                raise RuntimeError("interrupted")

    interrupted_write()
    assert list(tmp_path.iterdir()) == []
    # over a finished checkpoint, a failed write leaves it as it was
    before = save_states(path, ARCH, state).read_bytes()
    interrupted_write()
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
    assert path.read_bytes() == before
