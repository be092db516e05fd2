"""Dense trunk-plus-two-heads network with hand-written gradients.

A model is a ReLU trunk feeding two affine heads: a C-way classification
head and a single-logit auxiliary head whose sigmoid output scores domain
membership. The trunk arrays are stored exactly once, so an update coming
through either head's loss is visible to both forward passes.

All parameters of a model live in one contiguous float64 vector, laid out
layer by layer (trunk layers, then cls head, then aux head). Each layer is
one row-major (in_dim + 1, out_dim) block [Wᵀ; b]: the transposed weights,
then the bias as the last row. `ArchSpec.block_spans` is the one
description of this layout, and a model's `blocks`, built on first use,
are its only views into the vector. Gradients are flat vectors in the
same layout, so copying, averaging and updating a model are each one
vector operation, and a checkpoint stores the vector as it is.

Training passes run over a `Workspace` of K slots, one model each, in
the workspace's dtype: float32 in a local round, float64 in `backward`
(so `pfdl gradcheck` checks the pass in double precision); models
themselves are stored and scored in float64. The slot parameters are the
rows of a (K, P) stack, and the buffers carry the slot axis first, e.g.
(K, rows, in_dim + 1) activations with a trailing ones column. Each
layer's forward, and its weight and bias gradient, is one stacked
`np.matmul` over the slots, which computes each slot exactly as a 2-D
product would. A slot with fewer real rows than the workspace keeps
zero rows after them; those add exact zeros to its gradient. The views of
a pass over the leading `active` slots, and its scratch buffers, are built
once per workspace and count, so a pass is its ufunc and matmul calls
writing into preallocated arrays: the class targets are one-hot rows, so
the CE gradient is the softmax minus them, and the sigmoid divides under a
`where=` mask, each bitwise the plain expression. The pass computes
gradients only; `backward` runs it with K = 1. Scoring needs no buffers:
`stacked_heads` runs M models on the same rows X (n, in_dim) as one
np.matmul per layer against their (M, in_dim, out_dim) Wᵀ blocks plus the
bias row, and each model's slice is bitwise what a 2-D pass would give;
`heads` is its M = 1 case, which runs on the model's own 2-D blocks.
`batch_loss` scores the joint loss through `heads`, so a finite-difference
check of `backward` against it does not run the pass it checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

BCE_EPS = 1e-12


@dataclass
class ArchSpec:
    """Network shape: input width, trunk widths, class count."""

    input_dim: int
    hidden_dims: tuple[int, ...]
    num_classes: int

    def __post_init__(self):
        self.hidden_dims = tuple(int(h) for h in self.hidden_dims)
        if self.input_dim < 1:
            raise ValueError("input_dim must be positive")
        if len(self.hidden_dims) == 0:
            raise ValueError("hidden_dims must be non-empty")
        if any(h < 1 for h in self.hidden_dims):
            raise ValueError("hidden_dims must all be positive")
        if self.num_classes < 1:
            raise ValueError("num_classes must be positive")

    @cached_property
    def block_spans(self) -> tuple[tuple[int, int, int, int], ...]:
        """(lo, hi, in_dim + 1, out_dim) of every layer's block in the
        flat vector, in flat order: trunk layers, cls head, aux head."""
        spans, lo = [], 0
        fan_ins = (self.input_dim, *self.hidden_dims, self.hidden_dims[-1])
        for in_dim, out_dim in zip(fan_ins, (*self.hidden_dims, self.num_classes, 1)):
            hi = lo + (in_dim + 1) * out_dim
            spans.append((lo, hi, in_dim + 1, out_dim))
            lo = hi
        return tuple(spans)

    def param_count(self) -> int:
        return self.block_spans[-1][1]

    def cls_head_span(self) -> tuple[int, int]:
        """[lo, hi) of the cls head's block in the flat vector."""
        return self.block_spans[-2][:2]


def _blocks(arch: ArchSpec, flat: np.ndarray) -> list[np.ndarray]:
    """Each layer's [Wᵀ; b] block of a flat vector, or the (K, in + 1,
    out) stack of them over the rows of a (K, P) stack."""
    lead = flat.shape[:-1]
    return [flat[..., lo:hi].reshape(*lead, rows, cols)
            for lo, hi, rows, cols in arch.block_spans]


class PersonalModel:
    """Shared trunk plus classification and auxiliary heads.

    `params` is the flat parameter vector; `blocks`, each layer's [Wᵀ; b]
    in flat order (trunk layers, cls head, aux head), are views into it,
    built on first use: a model that is only copied, averaged, stored or
    scored as part of a stack never builds them. A given vector of the
    right size is wrapped, not copied.
    """

    def __init__(self, arch: ArchSpec, params: np.ndarray | None = None):
        size = arch.param_count()
        if params is None:
            params = np.zeros(size)
        elif params.dtype != np.float64 or params.shape != (size,) or not params.flags.c_contiguous:
            raise ValueError(f"expected a contiguous float64 vector of {size} parameters")
        self.arch = arch
        self.params = params

    @cached_property
    def blocks(self) -> list[np.ndarray]:
        return _blocks(self.arch, self.params)


class Workspace:
    """Buffers for lockstep passes of up to `clients` models of one
    architecture over `rows` rows each, the leading `labelled` of them
    with class targets. Every float buffer has the given dtype, and so
    does every result of a pass: float32 in a local round, float64 in
    `backward`.

    Slot k's model is row k of `params`. `acts[0]` is the input and
    `acts[i]` the i-th trunk layer's output, each with a trailing ones
    column, so a layer's forward is one product with its [Wᵀ; b] block.
    The caller fills the input rows (`x` is `acts[0]` without the ones
    column), the one-hot class targets `onehot` of the labelled rows and
    the aux labels `y_aux`. `zs` holds the trunk's pre-activations,
    `deltas` the gradients with respect to them, and `grads` one flat
    gradient per slot. The rest are the pass's views and scratch buffers,
    so a pass allocates no array of the slot stack's size.

    `count_rows` gives a slot fewer real rows. The caller keeps the input
    rows after them zero, ones column too; `count_rows` zeroes the hidden
    layers' ones column there and makes those rows divide their loss
    gradients by inf, so they add exact zeros to the slot's gradient.
    """

    def __init__(self, arch: ArchSpec, clients: int, rows: int, labelled: int, dtype):
        K, N, L, C = clients, rows, labelled, arch.num_classes
        self.labelled = labelled
        self.params = np.zeros((K, arch.param_count()), dtype)
        self.acts = [np.ones((K, N, d + 1), dtype) for d in (arch.input_dim, *arch.hidden_dims)]
        self.x = self.acts[0][..., :-1]
        self.zs = [np.empty((K, N, h), dtype) for h in arch.hidden_dims]
        self.deltas = [np.empty_like(z) for z in self.zs]
        self.grads = np.empty((K, arch.param_count()), dtype)
        self.onehot = np.zeros((K, L, C), dtype)
        self.y_aux = np.zeros((K, N), dtype)
        # per row the loss gradient's divisor: the slot's count of such
        # rows for a counted row, inf for the rest
        self.cls_div = np.full((K, L, 1), L, dtype)
        self.aux_div = np.full((K, N), N, dtype)

        self.acts_t = [t.transpose(0, 2, 1) for t in self.acts]
        self.masks = [np.empty(z.shape, dtype=bool) for z in self.zs]
        self.grad_blocks = _blocks(arch, self.grads)
        *self.trunk, self.cls_block, self.aux_block = _blocks(arch, self.params)
        # the (out, in) weights of the trunk layers after the first and
        # of the heads, for the backward products
        self.trunk_w = [None] + [b[:, :-1].transpose(0, 2, 1) for b in self.trunk[1:]]
        self.cls_w = self.cls_block[:, :-1].transpose(0, 2, 1)
        self.aux_w = self.aux_block[:, :-1].transpose(0, 2, 1)
        self.aux_z = np.empty((K, N, 1), dtype)
        self.s, self.delta_a = np.empty((K, N), dtype), np.empty((K, N), dtype)
        self.sigmoid_scratch = (np.empty((K, N), dtype), np.empty((K, N), dtype),
                                np.empty((K, N), dtype=bool))
        # the class logits, then in place their softmax and CE gradient
        self.logits = np.empty((K, L, C), dtype)
        self.softmax_scratch = (np.empty((K, L, 1), dtype), np.empty((K, L, 1), dtype))
        self.d_cls = np.empty((K, L, arch.hidden_dims[-1]), dtype)
        self._cut: dict[int, Workspace] = {}

    def count_rows(self, k: int, labelled: int, rows: int) -> None:
        """Slot k's next passes count its first `rows` rows, the leading
        `labelled` of them in the class loss."""
        for a in self.acts[1:]:
            a[k, :rows, -1] = 1.0
            a[k, rows:, -1] = 0.0
        self.cls_div[k, :labelled] = labelled
        self.cls_div[k, labelled:] = np.inf
        self.aux_div[k, :rows] = rows
        self.aux_div[k, rows:] = np.inf

    def slots(self, active: int) -> Workspace:
        """The workspace cut to slots [:active]: every array a view of its
        leading `active` entries, built once per count."""
        if active == self.params.shape[0]:
            return self
        cut = self._cut.get(active)
        if cut is None:
            cut = self._cut[active] = object.__new__(Workspace)
            # without its own _cut, which would make a reference cycle
            cut.__dict__ = {name: _prefix(value, active)
                            for name, value in vars(self).items() if name != "_cut"}
        return cut


def _prefix(value, a: int):
    """value's arrays cut to their first a entries, through lists and
    tuples of them."""
    if isinstance(value, np.ndarray):
        return value[:a]
    if isinstance(value, (list, tuple)):
        return type(value)(_prefix(v, a) for v in value)
    return value


def glorot_init(block: np.ndarray, rng: np.random.Generator) -> None:
    """Glorot-uniform weights into a layer's [Wᵀ; b] block, drawn in
    (out, in) order, and a zero bias row."""
    in_dim, out_dim = block.shape[0] - 1, block.shape[1]
    limit = np.sqrt(6.0 / (in_dim + out_dim))
    block[:-1] = rng.uniform(-limit, limit, size=(out_dim, in_dim)).T
    block[-1] = 0.0


def init_model(arch: ArchSpec, seed) -> PersonalModel:
    """Glorot-uniform weights, zero biases, fully determined by seed.

    Draw order is fixed (trunk layers, then cls head, then aux head) so
    the same (arch, seed) always yields bitwise-identical parameters.
    """
    rng = np.random.default_rng(seed)
    model = PersonalModel(arch)
    for block in model.blocks:
        glorot_init(block, rng)
    return model


def clone_model(model: PersonalModel) -> PersonalModel:
    return PersonalModel(model.arch, model.params.copy())


def _sigmoid(z, out, ez, den, nonneg):
    """The sigmoid of z into out; ez, den and nonneg (bool) are scratch
    arrays of z's shape."""
    # exp(-|z|) never overflows; it is exp(-z) for z >= 0 and exp(z) below
    np.exp(np.negative(np.abs(z, out=ez), out=ez), out=ez)
    np.add(1.0, ez, out=den)
    np.divide(ez, den, out=out)
    np.divide(1.0, den, out=out, where=np.greater_equal(z, 0.0, out=nonneg))
    return out


def sigmoid(z):
    z = np.asarray(z, dtype=np.float64)
    return _sigmoid(z, *(np.empty_like(z) for _ in range(3)), np.empty(z.shape, dtype=bool))


def _row_max(z, out):
    """The max over z's last axis into out, of shape (..., 1): one column
    at a time, exact like max(axis=-1), and at a class head's few columns
    2-6x faster from about a hundred rows on."""
    np.copyto(out, z[..., :1])
    for j in range(1, z.shape[-1]):
        np.maximum(out, z[..., j:j + 1], out=out)
    return out


def _softmax(z, e, m, se):
    """The softmax of z over its last axis into e, which may be z; m and
    se are scratch arrays of shape (..., 1)."""
    np.exp(np.subtract(z, _row_max(z, m), out=e), out=e)
    return np.divide(e, np.sum(e, axis=-1, keepdims=True, out=se), out=e)


def softmax(z):
    z = np.asarray(z, dtype=np.float64)
    col = (*z.shape[:-1], 1)
    return _softmax(z, np.empty_like(z), np.empty(col), np.empty(col))


def _as_batch(arch: ArchSpec, X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    if X.ndim != 2 or X.shape[1] != arch.input_dim:
        raise ValueError(
            f"expected features of width {arch.input_dim}, got shape {X.shape}"
        )
    return X


def _checked(arch: ArchSpec, X, y_cls, y_aux):
    """X as a batch and its labels as arrays: y_cls labels the leading
    rows, y_aux every row."""
    X = _as_batch(arch, X)
    N = X.shape[0]
    if N == 0:
        raise ValueError("empty batch")
    y = np.asarray(y_cls, dtype=np.int64)
    if y.ndim != 1 or not 1 <= y.shape[0] <= N:
        raise ValueError("y_cls must label between one and all leading rows")
    if y.min() < 0 or y.max() >= arch.num_classes:
        raise ValueError(f"y_cls must lie in [0, {arch.num_classes})")
    ya = np.asarray(y_aux, dtype=np.float64)
    if ya.shape != (N,):
        raise ValueError("y_aux must have one label per row")
    return X, y, ya


def stacked_heads(pool, X, cls: bool = True):
    """Class logits, shape (M, n, C), and the auxiliary head's sigmoid
    scores, shape (M, n), of the M models of one architecture in pool on
    the rows of X, from one trunk pass over their stacked parameters.
    Without `cls` the class-head product is skipped and the logits are
    None. Slice i is bitwise heads(pool[i], X)."""
    arch = pool[0].arch
    if any(m.arch != arch for m in pool[1:]):
        raise ValueError("stacked_heads needs models of one architecture")
    h = _as_batch(arch, X)
    # one model runs on its own 2-D blocks, whose products are bitwise
    # those of a stack of one; M models on their stack's 3-D blocks
    one = len(pool) == 1
    blocks = pool[0].blocks if one else _blocks(arch, np.stack([m.params for m in pool]))
    *trunk, cls_block, aux_block = blocks
    for block in trunk:
        h = np.matmul(h, block[..., :-1, :])
        h += block[..., -1:, :]
        np.maximum(h, 0.0, out=h)
    scores = sigmoid((np.matmul(h, aux_block[..., :-1, :]) + aux_block[..., -1:, :])[..., 0])
    logits = np.matmul(h, cls_block[..., :-1, :]) + cls_block[..., -1:, :] if cls else None
    if one:
        return (None if logits is None else logits[None]), scores[None]
    return logits, scores


def heads(model: PersonalModel, X) -> tuple[np.ndarray, np.ndarray]:
    """Class logits, shape (n, C), and the auxiliary head's sigmoid
    scores, shape (n,), from one trunk pass."""
    logits, scores = stacked_heads([model], X)
    return logits[0], scores[0]


def cross_entropy(logits, labels):
    """Per-row CE of logits (n, C) against integer labels (n,)."""
    z = logits - logits.max(axis=-1, keepdims=True)
    return np.log(np.exp(z).sum(axis=-1)) - z[np.arange(len(labels)), labels]


def bce(scores, y):
    """Per-row BCE of sigmoid scores against 0/1 labels, the scores
    clipped to [BCE_EPS, 1 - BCE_EPS]."""
    s = np.clip(scores, BCE_EPS, 1.0 - BCE_EPS)
    return -(y * np.log(s) + (1.0 - y) * np.log(1.0 - s))


def _grads_and_loss(ws: Workspace, active: int) -> np.ndarray:
    """One forward and one backward pass of the joint loss for slots
    [:active] of ws; returns ws.grads[:active], each slot's flat gradient.

    A slot's loss is the mean CE over its labelled rows plus the mean BCE
    over its real rows, so a single trunk pass over [batch; negatives]
    serves both losses. The trunk receives the sum of both streams; each
    head only sees its own loss. Each layer's weight and bias gradient is
    one stacked product into its block of ws.grads, which the next pass
    over ws overwrites, and every other result lands in the scratch
    buffers of ws. The pass computes no loss value (see `batch_loss`).
    """
    v = ws.slots(active)
    acts, zs, g = v.acts, v.zs, v.grad_blocks
    for block, x, z, x_next in zip(v.trunk, acts, zs, acts[1:]):
        np.matmul(x, block, out=z)
        np.maximum(z, 0.0, out=x_next[..., :-1])
    h1, h1_t = acts[-1], v.acts_t[-1]  # the last hidden layer, with its ones column

    s = _sigmoid(np.matmul(h1, v.aux_block, out=v.aux_z)[..., 0], v.s, *v.sigmoid_scratch)
    delta_a = np.subtract(s, v.y_aux, out=v.delta_a)
    delta_a /= v.aux_div
    np.matmul(h1_t, delta_a[..., None], out=g[-1])
    d_h = np.multiply(delta_a[..., None], v.aux_w, out=v.deltas[-1])

    L = ws.labelled
    logits = np.matmul(h1[:, :L], v.cls_block, out=v.logits)
    # the CE gradient, softmax(logits) - onehot, in place of the logits
    delta = np.subtract(_softmax(logits, logits, *v.softmax_scratch), v.onehot, out=logits)
    delta /= v.cls_div
    np.matmul(h1_t[..., :L], delta, out=g[-2])
    d_h[:, :L] += np.matmul(delta, v.cls_w, out=v.d_cls)

    delta = d_h
    for i in reversed(range(len(zs))):
        delta *= np.greater(zs[i], 0.0, out=v.masks[i])
        np.matmul(v.acts_t[i], delta, out=g[i])
        if i > 0:
            delta = np.matmul(delta, v.trunk_w[i], out=v.deltas[i - 1])
    return ws.grads[:active]


def backward(model: PersonalModel, X, y_cls, y_aux) -> np.ndarray:
    """The joint loss's flat gradient over the rows of X, in a new array."""
    X, y, ya = _checked(model.arch, X, y_cls, y_aux)
    ws = Workspace(model.arch, 1, X.shape[0], y.shape[0], np.float64)
    ws.params[0], ws.x[0], ws.y_aux[0] = model.params, X, ya
    np.equal(y[:, None], np.arange(model.arch.num_classes), out=ws.onehot[0])
    return _grads_and_loss(ws, 1)[0]


def batch_loss(model: PersonalModel, X, y_cls, y_aux) -> float:
    """Mean joint loss over a batch, scored through `heads`: mean CE over
    the rows y_cls labels (the leading ones) + mean BCE over all rows."""
    X, y, ya = _checked(model.arch, X, y_cls, y_aux)
    logits, scores = heads(model, X)
    return float(cross_entropy(logits[:len(y)], y).mean() + bce(scores, ya).mean())


def sgd_step(params: np.ndarray, grads: np.ndarray, lr: float, weight_decay: float = 0.0) -> None:
    """Decoupled step on flat vectors: p <- p - lr * (g + weight_decay * p),
    in place, in that arithmetic order. grads is overwritten."""
    if lr <= 0:
        raise ValueError("lr must be positive")
    if weight_decay < 0:
        raise ValueError("weight_decay must be non-negative")
    grads += weight_decay * params
    grads *= lr
    params -= grads
