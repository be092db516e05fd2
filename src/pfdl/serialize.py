"""Versioned binary persistence.

Dataset files start with the magic "PFDD" and format version 1, task
checkpoints with "PFDT" and format version 2, each version a u32; numbers
are little-endian. Every loader takes its file front to back through one
byte reader: it checks magic and version, sizes each read by its struct
format or dtype against the bytes the file has left, so a read past the
end (as a corrupt count asks for) is a truncation before anything is
read, and ends with a check that nothing follows. A file that cannot be
read is a DataError.

A task checkpoint, `checkpoints/task_TT.state`, holds every client's
state after one stream position. Its header is the magic, the version,
the client count and the architecture: input_dim, num_classes, depth and
the hidden widths, u32 each. One record per client follows, in client-id
order: the client id, the pool size, the bindings as a count and (task,
pool index) pairs in task order, then the pool as raw float64
parameters, each model its flat vector in memory order (the [Wᵀ; b]
blocks of nn.py). The reader compares the whole header after the version
with the config's in one check, then reads each pool as one (M, P)
stack, one record at a time. There is no matching-history sidecar: each
matching decision is a `matching` event in `events.jsonl`, and a client
with no such event for a task sat it out.
"""

from __future__ import annotations

import contextlib
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

DATA_MAGIC, DATA_VERSION = b"PFDD", 1
TASK_MAGIC, TASK_VERSION = b"PFDT", 2


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

    def __init__(self, path, magic: bytes, version: int, missing: str):
        self.ctx = str(path)
        self.fh = _open_file(path, missing)
        self.size = os.fstat(self.fh.fileno()).st_size
        self.pos = 0
        try:
            got, got_version = self.unpack("<4sI")
            if got != magic:
                raise DataError(f"{self.ctx}: bad magic {got!r}, expected {magic!r}")
            if got_version != version:
                raise DataError(f"{self.ctx}: unsupported format version {got_version}")
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


@contextlib.contextmanager
def open_atomic(path, mode: str = "w", **kwargs):
    """The file at path, open for writing in `mode`: it is written beside
    path as path.tmp and moved into place on a clean exit, so path holds
    either the whole new file or what it held before. If the block
    raises, the temporary is removed."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_f64(fh, arr: np.ndarray) -> None:
    fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


# ---------------------------------------------------------------- datasets


def save_dataset(path, task: TaskDataset) -> None:
    with open_atomic(path, "wb") as fh:
        fh.write(DATA_MAGIC)
        fh.write(struct.pack("<I", DATA_VERSION))
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
    with _Reader(path, DATA_MAGIC, DATA_VERSION, f"{path}: missing task dataset") as r:
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


def _task_header(arch: nn.ArchSpec, num_clients: int) -> bytes:
    """A task checkpoint's header after its magic and version."""
    depth = len(arch.hidden_dims)
    return struct.pack(f"<IIII{depth}I", num_clients, arch.input_dim, arch.num_classes,
                       depth, *arch.hidden_dims)


@contextlib.contextmanager
def open_task_writer(path, arch: nn.ArchSpec, num_clients: int):
    """The task checkpoint at path, open for writing after its header;
    the caller writes num_clients records of arch models with
    `save_client_state`, in client-id order. The file is written through
    `open_atomic`, so path holds either a whole checkpoint or what it held
    before."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open_atomic(path, "wb") as fh:
        fh.write(struct.pack("<4sI", TASK_MAGIC, TASK_VERSION))
        fh.write(_task_header(arch, num_clients))
        yield fh


@contextlib.contextmanager
def open_task_reader(path, arch: nn.ArchSpec, num_clients: int):
    """The task checkpoint at path as a `_Reader` after its header, for
    num_clients `load_client_state` calls in client-id order. A DataError
    naming the file unless its header holds num_clients clients of arch
    models and, once the caller has read them, the file ends with the
    last one."""
    with _Reader(path, TASK_MAGIC, TASK_VERSION, f"{path}: missing checkpoint") as r:
        head = _task_header(arch, num_clients)
        if r.take(len(head)) != head:
            raise DataError(f"{r.ctx}: the header is not the config's "
                            f"(client count {num_clients}, {arch})")
        yield r
        r.end("the last client")


def save_client_state(fh, state: ClientState) -> None:
    """Client state's record, its bindings and pool, into an open task
    checkpoint."""
    fh.write(struct.pack("<III", state.client_id, len(state.pool), len(state.task_bindings)))
    for task_id in sorted(state.task_bindings):
        fh.write(struct.pack("<II", task_id, state.task_bindings[task_id]))
    for model in state.pool:
        _write_f64(fh, model.params)


def load_client_state(r: _Reader, arch: nn.ArchSpec, client_id: int,
                      task_pos: int) -> ClientState:
    """Client `client_id`'s pool of arch models and its bindings, the next
    record of an open task checkpoint after stream position task_pos (the
    next `begin_task` rebuilds the migration pull statistics from the
    pool). A DataError naming the file unless the record holds that
    client, binds each task once, at most task_pos, inside its pool, and
    has finite parameters."""
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
    params = r.array("<f8", (pool_size, arch.param_count()))
    if not np.isfinite(params).all():
        raise DataError(f"{r.ctx}: a pool model holds a non-finite parameter")
    pool = [nn.PersonalModel(arch, p) for p in params.astype(np.float64, copy=False)]
    return ClientState(client_id=client_id, pool=pool, task_bindings=bindings)
