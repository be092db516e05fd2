"""Versioned binary persistence.

Model checkpoints: magic "PFDL", format version u32, the architecture,
then the parameters as float64 little-endian, layer by layer (trunk,
cls_head, aux_head), each layer's (out, in) weights row-major, then its
bias. This on-disk order is unchanged since format version 1 and differs
from the in-memory [Wᵀ; b] blocks of nn.PersonalModel, so the writer and
the reader each move a model's parameters with one gather through an
index built once per architecture. Dataset files
("PFDD") and client-state files ("PFDS") follow the same header
discipline. Readers load a file whole, validate magic and version, and
raise DataError with file context on any mismatch or truncation; a count
in a header that asks for more bytes than are left is a truncation.
"""

from __future__ import annotations

import functools
import io
import json
import math
import struct
from pathlib import Path

import numpy as np

from . import nn
from .client import ClientState
from .data import TaskDataset
from .errors import DataError

MODEL_MAGIC = b"PFDL"
DATA_MAGIC = b"PFDD"
STATE_MAGIC = b"PFDS"
FORMAT_VERSION = 1
SIDECAR_SUFFIX = ".rho.json"  # the matching history beside a .state file


def _read_exact(fh, n: int, ctx: str) -> bytes:
    # checked against the bytes left, so a corrupt count never asks for more
    pos = fh.tell()
    left = fh.seek(0, io.SEEK_END) - pos
    fh.seek(pos)
    if n > left:
        raise DataError(f"{ctx}: truncated file (wanted {n} bytes, got {left})")
    return fh.read(n)


def _check_header(fh, magic: bytes, ctx: str) -> None:
    got = _read_exact(fh, 4, ctx)
    if got != magic:
        raise DataError(f"{ctx}: bad magic {got!r}, expected {magic!r}")
    (version,) = struct.unpack("<I", _read_exact(fh, 4, ctx))
    if version != FORMAT_VERSION:
        raise DataError(f"{ctx}: unsupported format version {version}")


def _write_f64(fh, arr: np.ndarray) -> None:
    fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _read_f64(fh, shape, ctx: str) -> np.ndarray:
    buf = _read_exact(fh, 8 * math.prod(shape), ctx)
    return np.frombuffer(buf, dtype="<f8").astype(np.float64).reshape(shape)


# ---------------------------------------------------------------- models


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
    fh.write(MODEL_MAGIC)
    fh.write(struct.pack("<I", FORMAT_VERSION))
    arch = model.arch
    fh.write(struct.pack("<III", arch.input_dim, arch.num_classes, len(arch.hidden_dims)))
    fh.write(struct.pack(f"<{len(arch.hidden_dims)}I", *arch.hidden_dims))
    gather, _ = _disk_order(arch.input_dim, arch.hidden_dims, arch.num_classes)
    _write_f64(fh, model.params[gather])


def read_model(fh, ctx: str = "checkpoint") -> nn.PersonalModel:
    _check_header(fh, MODEL_MAGIC, ctx)
    input_dim, num_classes, depth = struct.unpack("<III", _read_exact(fh, 12, ctx))
    hidden = struct.unpack(f"<{depth}I", _read_exact(fh, 4 * depth, ctx))
    try:
        arch = nn.ArchSpec(input_dim=input_dim, hidden_dims=hidden, num_classes=num_classes)
    except ValueError as e:
        raise DataError(f"{ctx}: bad model header ({e})") from e
    # read before the index is built, so a huge header count is a truncation
    disk = np.frombuffer(_read_exact(fh, 8 * arch.param_count(), ctx), dtype="<f8")
    _, scatter = _disk_order(input_dim, arch.hidden_dims, num_classes)
    return nn.PersonalModel(arch, disk.take(scatter).astype(np.float64, copy=False))


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
    ctx = str(path)
    with io.BytesIO(Path(path).read_bytes()) as fh:
        _check_header(fh, DATA_MAGIC, ctx)
        task_id, num_classes, dim, seed = struct.unpack("<IIIq", _read_exact(fh, 20, ctx))
        (dom_len,) = struct.unpack("<I", _read_exact(fh, 4, ctx))
        try:
            domain = json.loads(_read_exact(fh, dom_len, ctx))
        except ValueError as e:  # bad JSON or bad UTF-8
            raise DataError(f"{ctx}: bad domain block ({e})") from e
        n_train, n_test = struct.unpack("<QQ", _read_exact(fh, 16, ctx))
        train_x = _read_f64(fh, (n_train, dim), ctx)
        train_y = np.frombuffer(_read_exact(fh, 4 * n_train, ctx), dtype="<u4").astype(np.int64)
        test_x = _read_f64(fh, (n_test, dim), ctx)
        test_y = np.frombuffer(_read_exact(fh, 4 * n_test, ctx), dtype="<u4").astype(np.int64)
    return TaskDataset(task_id=task_id, domain=domain, num_classes=num_classes,
                       train_x=train_x, train_y=train_y, test_x=test_x, test_y=test_y,
                       seed=seed)


# ---------------------------------------------------------------- client states


def save_client_state(path, state: ClientState) -> tuple[Path, Path]:
    """Pool and bindings as one binary record at path; the matching history
    goes to a JSON sidecar that no loader reads. Returns (state, sidecar)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    sidecar = path.with_suffix(SIDECAR_SUFFIX)
    with open(path, "wb") as fh:
        fh.write(STATE_MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<II", state.client_id, len(state.pool)))
        fh.write(struct.pack("<I", len(state.task_bindings)))
        for task_id in sorted(state.task_bindings):
            fh.write(struct.pack("<II", task_id, state.task_bindings[task_id]))
        for model in state.pool:
            write_model(fh, model)
    sidecar.write_text(json.dumps(state.rho_history, indent=1) + "\n")
    return path, sidecar


def load_client_state(path) -> ClientState:
    """Rebuild a client's pool and bindings at a task boundary; the
    sidecar's history is not read. The next `begin_task` rebuilds the
    migration pull statistics (s, abar, c) from the pool. A task bound
    twice, a binding to an index outside the pool, or a non-finite
    parameter is a DataError."""
    ctx = str(path)
    with io.BytesIO(Path(path).read_bytes()) as fh:
        _check_header(fh, STATE_MAGIC, ctx)
        client_id, pool_size = struct.unpack("<II", _read_exact(fh, 8, ctx))
        (n_bind,) = struct.unpack("<I", _read_exact(fh, 4, ctx))
        bindings = {}
        for _ in range(n_bind):
            t, idx = struct.unpack("<II", _read_exact(fh, 8, ctx))
            if t in bindings:
                raise DataError(f"{ctx}: task {t} is bound twice")
            if idx >= pool_size:
                raise DataError(f"{ctx}: task {t} is bound to pool index {idx}, "
                                f"but the pool holds {pool_size} models")
            bindings[t] = idx
        pool = [read_model(fh, ctx) for _ in range(pool_size)]
        if fh.read(1):
            raise DataError(f"{ctx}: trailing bytes after the last model")
    if pool and not np.isfinite(np.concatenate([m.params for m in pool])).all():
        raise DataError(f"{ctx}: a pool model holds a non-finite parameter")
    return ClientState(client_id=client_id, pool=pool, task_bindings=bindings)
