"""Versioned binary persistence.

Files, and the model records in a checkpoint, start with a magic ("PFDD"
dataset, "PFDT" task checkpoint, "PFDL" model) and the format version as
a u32; numbers are little-endian. Every loader takes its file front to
back through one byte reader: it checks magic and version, sizes each
read by its struct format or dtype against the bytes the file has left,
so a read past the end (as a corrupt count asks for) is a truncation
before anything is read, and ends with a check that nothing follows. A
file that cannot be read is a DataError.

A task checkpoint, `checkpoints/task_TT.state`, holds every client's
state after one stream position: a 12-byte header (magic, version, client
count), then one record per client in client-id order. A record is the
client id, the pool size, the bindings as a count and (task, pool index)
pairs in task order, then the pool's model records; it is byte for byte a
version-1 per-client state file without its magic and version. There is
no matching-history sidecar: each matching decision is a `matching`
event in `events.jsonl`, and a client with no such event for a task sat
it out.

A model record is `_model_header(arch)`, then the float64 parameters
layer by layer (trunk, cls_head, aux_head), each layer's (out, in)
weights row-major, then its bias: the version-1 order, not the in-memory
[Wᵀ; b] blocks, so an index built once per architecture moves models
between the two. `load_client_state` checks a record against the config
without parsing it: one comparison covers every model header, the pool
decodes as one (M, P) stack, and it alone decides validity. The reader
holds one record at a time, never the whole file.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from . import nn
from .client import ClientState
from .data import TaskDataset
from .errors import DataError

MODEL_MAGIC = b"PFDL"
DATA_MAGIC = b"PFDD"
TASK_MAGIC = b"PFDT"
FORMAT_VERSION = 1


def _open_file(path, missing: str):
    """The file at path, open for binary reading. A DataError with the
    message `missing` if it does not exist, or naming it if it cannot be
    opened."""
    try:
        return open(path, "rb")
    except FileNotFoundError:
        raise DataError(missing) from None
    except OSError as e:  # a directory, no permission
        raise DataError(f"{path}: cannot be read ({e.strerror})") from e


def read_file(path, missing: str) -> bytes:
    """The bytes of the file at path; DataErrors as `_open_file`."""
    with _open_file(path, missing) as fh:
        return fh.read()


class _Reader:
    """A binary file taken front to back from its open handle after its
    magic and version are checked; a read past the end is a truncation,
    found before anything is allocated or read. As a context manager it
    closes the file on exit."""

    def __init__(self, path, magic: bytes, missing: str):
        self.ctx = str(path)
        self.fh = _open_file(path, missing)
        self.size = os.fstat(self.fh.fileno()).st_size
        self.pos = 0
        try:
            got, version = self.unpack("<4sI")
            if got != magic:
                raise DataError(f"{self.ctx}: bad magic {got!r}, expected {magic!r}")
            if version != FORMAT_VERSION:
                raise DataError(f"{self.ctx}: unsupported format version {version}")
        except DataError:
            self.fh.close()
            raise

    def __enter__(self) -> "_Reader":
        return self

    def __exit__(self, *exc) -> None:
        self.fh.close()

    def _claim(self, n: int) -> None:
        left = self.size - self.pos
        if n > left:
            raise DataError(f"{self.ctx}: truncated file (wanted {n} bytes, got {left})")
        self.pos += n

    def take(self, n: int) -> bytes:
        self._claim(n)
        return self.fh.read(n)

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, dtype, shape: tuple) -> np.ndarray:
        """The next prod(shape) items of dtype, read straight into a new
        array (no intermediate bytes object)."""
        dtype = np.dtype(dtype)
        self._claim(dtype.itemsize * math.prod(shape))
        out = np.empty(shape, dtype)
        if self.fh.readinto(out) != out.nbytes:  # the file shrank since it was opened
            raise DataError(f"{self.ctx}: truncated file")
        return out

    def end(self, last: str) -> None:
        """A DataError unless the file ends here, after `last`."""
        if self.pos != self.size:
            raise DataError(f"{self.ctx}: trailing bytes after {last}")


def _write_f64(fh, arr: np.ndarray) -> None:
    fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


# ---------------------------------------------------------------- models


def _model_header(arch: nn.ArchSpec) -> bytes:
    """The header of every model record of arch."""
    depth = len(arch.hidden_dims)
    return struct.pack(f"<4sIIII{depth}I", MODEL_MAGIC, FORMAT_VERSION, arch.input_dim,
                       arch.num_classes, depth, *arch.hidden_dims)


@functools.lru_cache(maxsize=16)
def _disk_order(input_dim: int, hidden_dims: tuple, num_classes: int) -> tuple:
    """(gather, scatter) indices between a model's flat vector and its
    disk order: params[gather] is the disk order, disk[scatter] the flat
    vector. Keyed by the whole architecture."""
    arch = nn.ArchSpec(input_dim, hidden_dims, num_classes)
    positions = nn.PersonalModel(arch, np.arange(arch.param_count(), dtype=np.float64))
    gather = np.concatenate([a.ravel() for b in positions.blocks
                             for a in (b[:-1].T, b[-1])]).astype(np.intp)
    return gather, np.argsort(gather)


def write_model(fh, model: nn.PersonalModel) -> None:
    arch = model.arch
    gather, _ = _disk_order(arch.input_dim, arch.hidden_dims, arch.num_classes)
    fh.write(_model_header(arch))
    _write_f64(fh, model.params[gather])


# ---------------------------------------------------------------- datasets


def save_dataset(path, task: TaskDataset) -> None:
    with open(path, "wb") as fh:
        fh.write(DATA_MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        dom = json.dumps(task.domain).encode()
        fh.write(struct.pack("<IIIq", task.task_id, task.num_classes,
                             task.train_x.shape[1], int(task.seed)))
        fh.write(struct.pack("<I", len(dom)))
        fh.write(dom)
        fh.write(struct.pack("<QQ", task.train_x.shape[0], task.test_x.shape[0]))
        _write_f64(fh, task.train_x)
        fh.write(np.ascontiguousarray(task.train_y, dtype="<u4").tobytes())
        _write_f64(fh, task.test_x)
        fh.write(np.ascontiguousarray(task.test_y, dtype="<u4").tobytes())


def load_dataset(path) -> TaskDataset:
    with _Reader(path, DATA_MAGIC, f"{path}: missing task dataset") as r:
        task_id, num_classes, dim, seed, dom_len = r.unpack("<IIIqI")
        try:
            domain = json.loads(r.take(dom_len))
        except ValueError as e:  # bad JSON or bad UTF-8
            raise DataError(f"{r.ctx}: bad domain block ({e})") from e
        n_train, n_test = r.unpack("<QQ")
        train_x = r.array("<f8", (n_train, dim)).astype(np.float64, copy=False)
        train_y = r.array("<u4", (n_train,)).astype(np.int64)
        test_x = r.array("<f8", (n_test, dim)).astype(np.float64, copy=False)
        test_y = r.array("<u4", (n_test,)).astype(np.int64)
        r.end("the test labels")
    return TaskDataset(task_id=task_id, domain=domain, num_classes=num_classes,
                       train_x=train_x, train_y=train_y, test_x=test_x, test_y=test_y,
                       seed=seed)


# ---------------------------------------------------------------- task checkpoints


@contextlib.contextmanager
def open_task_writer(path, num_clients: int):
    """The task checkpoint at path, open for writing after its header;
    the caller writes num_clients records with `save_client_state`, in
    client-id order."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sII", TASK_MAGIC, FORMAT_VERSION, num_clients))
        yield fh


@contextlib.contextmanager
def open_task_reader(path, num_clients: int):
    """The task checkpoint at path as a `_Reader` after its header, for
    num_clients `load_client_state` calls in client-id order. A DataError
    naming the file unless its header counts num_clients clients and,
    once the caller has read them, the file ends with the last one."""
    with _Reader(path, TASK_MAGIC, f"{path}: missing checkpoint") as r:
        (stored,) = r.unpack("<I")
        if stored != num_clients:
            raise DataError(f"{r.ctx}: holds {stored} clients, the config gives {num_clients}")
        yield r
        r.end("the last client")


def save_client_state(fh, state: ClientState) -> None:
    """Client state's record, its pool and bindings, into an open task
    checkpoint."""
    fh.write(struct.pack("<III", state.client_id, len(state.pool), len(state.task_bindings)))
    for task_id in sorted(state.task_bindings):
        fh.write(struct.pack("<II", task_id, state.task_bindings[task_id]))
    for model in state.pool:
        write_model(fh, model)


def load_client_state(r: _Reader, arch: nn.ArchSpec, client_id: int,
                      task_pos: int) -> ClientState:
    """Client `client_id`'s pool of arch models and its bindings, the next
    record of an open task checkpoint after stream position task_pos (the
    next `begin_task` rebuilds the migration pull statistics from the
    pool). A DataError naming the file unless the record holds that
    client, binds each task once, at most task_pos, inside its pool, and
    has arch's model headers and finite parameters."""
    stored, pool_size, n_bind = r.unpack("<III")
    if stored != client_id:
        raise DataError(f"{r.ctx}: holds client {stored}, expected {client_id}")
    pairs = r.unpack(f"<{2 * n_bind}I")
    bindings = {}
    for t, idx in zip(pairs[::2], pairs[1::2]):
        if t in bindings:
            raise DataError(f"{r.ctx}: task {t} is bound twice")
        if idx >= pool_size:
            raise DataError(f"{r.ctx}: task {t} is bound to pool index {idx}, "
                            f"but the pool holds {pool_size} models")
        if t > task_pos:  # bindings are made at the task being trained
            raise DataError(f"{r.ctx}: binds task {t}, but a checkpoint "
                            f"after task {task_pos} holds tasks 0..{task_pos} only")
        bindings[t] = idx
    head = _model_header(arch)
    records = r.array(np.uint8, (pool_size, len(head) + 8 * arch.param_count()))
    if not (records[:, :len(head)] == np.frombuffer(head, np.uint8)).all():
        raise DataError(f"{r.ctx}: a pool model's header is not the config's "
                        f"(magic {MODEL_MAGIC!r}, version {FORMAT_VERSION}, {arch})")
    _, scatter = _disk_order(arch.input_dim, arch.hidden_dims, arch.num_classes)
    params = records[:, len(head):].view("<f8").take(scatter, axis=1)
    if not np.isfinite(params).all():
        raise DataError(f"{r.ctx}: a pool model holds a non-finite parameter")
    pool = [nn.PersonalModel(arch, p) for p in params.astype(np.float64, copy=False)]
    return ClientState(client_id=client_id, pool=pool, task_bindings=bindings)
