"""Dense trunk-plus-two-heads network with hand-written gradients.

A model is a ReLU trunk feeding two affine heads: a C-way classification
head and a single-logit auxiliary head whose sigmoid output scores domain
membership. The trunk arrays are stored exactly once, so an update coming
through either head's loss is visible to both forward passes.

All parameters of a model live in one contiguous float64 vector, laid out
layer by layer (trunk layers, then cls head, then aux head). Each layer is
one row-major (in_dim + 1, out_dim) block [Wᵀ; b]: the transposed weights,
then the bias as the last row. `weights`, an (out_dim, in_dim) view, and
`bias` are views of the block. Gradients are flat vectors in the same
layout, so copying, averaging and updating a model are each one vector
operation; checkpoints keep their own order (see serialize.py).

Training passes run over a `Workspace` of K slots, one model each: its
parameters are the rows of a (K, P) stack, and its buffers carry the slot
axis first, e.g. (K, rows, in_dim + 1) activations with a trailing ones
column. Each layer's forward, and its weight and bias gradient, is one
stacked `np.matmul` over the slots, which computes each slot exactly as a
2-D product would. A slot with fewer real rows than the workspace keeps
zero rows after them; those add exact zeros to its gradient. `backward`
and `batch_loss` run the same pass with K = 1. Scoring needs no buffers:
`stacked_heads` runs M models on the same rows X (n, in_dim) as one
np.matmul per layer against their (M, in_dim, out_dim) Wᵀ blocks plus the
bias row, and each model's slice is bitwise what a 2-D pass would give;
`heads` is its M = 1 case.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    def layer_dims(self) -> list[tuple[int, int]]:
        """(out_dim, in_dim) of every layer in flat-vector order: trunk
        layers, cls head, aux head."""
        dims = []
        fan_in = self.input_dim
        for h in self.hidden_dims:
            dims.append((h, fan_in))
            fan_in = h
        dims.append((self.num_classes, fan_in))
        dims.append((1, fan_in))
        return dims

    def param_count(self) -> int:
        return sum(o * i + o for o, i in self.layer_dims())

    def cls_head_span(self) -> tuple[int, int]:
        """[lo, hi) of the cls head's block in the flat vector."""
        lo = sum(o * i + o for o, i in self.layer_dims()[:-2])
        return lo, lo + self.num_classes * (self.hidden_dims[-1] + 1)


class LayerParams:
    """One affine layer: the contiguous (in + 1, out) block [Wᵀ; b] of a
    flat vector, or a (K, in + 1, out) stack of them, with weights
    (..., out, in) and bias (..., out) as views of it."""

    def __init__(self, block: np.ndarray):
        self.block = block
        self.weights = np.swapaxes(block[..., :-1, :], -1, -2)
        self.bias = block[..., -1, :]


def _blocks(arch: ArchSpec, flat: np.ndarray) -> list[np.ndarray]:
    """Each layer's [Wᵀ; b] block of a flat vector, or the (K, in + 1,
    out) stack of them over the rows of a (K, P) stack."""
    blocks = []
    lo = 0
    for out_dim, in_dim in arch.layer_dims():
        hi = lo + (in_dim + 1) * out_dim
        blocks.append(flat[..., lo:hi].reshape(*flat.shape[:-1], in_dim + 1, out_dim))
        lo = hi
    return blocks


class PersonalModel:
    """Shared trunk plus classification and auxiliary heads.

    `params` is the flat parameter vector; `layers` (trunk layers, then
    `cls_head` and `aux_head`) are views into it. A given vector of the
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
        self.layers = [LayerParams(block) for block in _blocks(arch, params)]
        self.trunk = self.layers[:-2]
        self.cls_head, self.aux_head = self.layers[-2:]


class Workspace:
    """Buffers for lockstep passes of up to `clients` models of one
    architecture over `rows` rows each, the leading `labelled` of them
    with class labels.

    Slot k's model is row k of `params`, with `layers` the per-layer views
    across slots. `acts[0]` is the input and `acts[i]` the i-th trunk
    layer's output, each with a trailing ones column, so a layer's forward
    is one product with its [Wᵀ; b] block. The caller fills `x` (the input
    without that column), the class labels `y` and the aux labels `y_aux`.
    `zs` holds the trunk's pre-activations, `deltas` the gradients with
    respect to them, and `grads` one flat gradient per slot, with
    `grad_blocks` its per-layer views.

    `set_rows` gives a slot fewer real rows. Its later rows are zero in
    every layer, ones column too, and divide their loss gradients by inf,
    so they add exact zeros to its gradient.
    """

    def __init__(self, arch: ArchSpec, clients: int, rows: int, labelled: int):
        self.rows, self.labelled = rows, labelled
        self.params = np.zeros((clients, arch.param_count()))
        self.layers = [LayerParams(block) for block in _blocks(arch, self.params)]
        self.acts = [np.ones((clients, rows, d + 1))
                     for d in (arch.input_dim, *arch.hidden_dims)]
        self.x = self.acts[0][..., :-1]
        self.zs = [np.empty((clients, rows, h)) for h in arch.hidden_dims]
        self.deltas = [np.empty_like(z) for z in self.zs]
        self.grads = np.empty((clients, arch.param_count()))
        self.grad_blocks = _blocks(arch, self.grads)
        self.y = np.zeros((clients, labelled), dtype=np.int64)
        self.y_aux = np.zeros((clients, rows))
        self.classes = np.arange(arch.num_classes)
        # per row the loss gradient's divisor: the slot's count of such
        # rows for a counted row, inf for the rest
        self.cls_div = np.full((clients, labelled, 1), float(labelled))
        self.aux_div = np.full((clients, rows), float(rows))
        self.padded: dict[int, tuple[int, int]] = {}  # slot -> (labelled, rows)

    def set_rows(self, k: int, labelled: int, rows: int) -> None:
        """Slot k's next passes count its first `rows` rows, the leading
        `labelled` of them in the class loss."""
        for a in self.acts:
            a[k, :rows, -1] = 1.0
            a[k, rows:] = 0.0
        self.cls_div[k] = np.inf
        self.cls_div[k, :labelled] = labelled
        self.aux_div[k] = np.inf
        self.aux_div[k, :rows] = rows
        self.padded.pop(k, None)
        if labelled < self.labelled or rows < self.rows:
            self.padded[k] = labelled, rows


def glorot_uniform(rng: np.random.Generator, out_dim: int, in_dim: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (in_dim + out_dim))
    return rng.uniform(-limit, limit, size=(out_dim, in_dim))


def init_model(arch: ArchSpec, seed) -> PersonalModel:
    """Glorot-uniform weights, zero biases, fully determined by seed.

    Draw order is fixed (trunk layers, then cls head, then aux head) so
    the same (arch, seed) always yields bitwise-identical parameters.
    """
    rng = np.random.default_rng(seed)
    model = PersonalModel(arch)
    for layer in model.layers:
        layer.weights[...] = glorot_uniform(rng, *layer.weights.shape)
    return model


def clone_model(model: PersonalModel) -> PersonalModel:
    return PersonalModel(model.arch, model.params.copy())


def copy_into(dst: PersonalModel, src: PersonalModel) -> None:
    """Copy parameters of src into dst in place; dst's views stay valid."""
    if dst.params.shape != src.params.shape:
        raise ValueError(f"shape mismatch {dst.params.shape} vs {src.params.shape}")
    np.copyto(dst.params, src.params)


def sigmoid(z):
    # exp(-|z|) never overflows; it is exp(-z) for z >= 0 and exp(z) below
    z = np.asarray(z, dtype=np.float64)
    ez = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + ez), ez / (1.0 + ez))


def softmax(z):
    z = np.asarray(z, dtype=np.float64)
    # the row max, one column at a time: exact like max(axis=-1), and at
    # a class head's few columns 2-6x faster from about a hundred rows on
    m = z[..., :1].copy()
    for j in range(1, z.shape[-1]):
        np.maximum(m, z[..., j:j + 1], out=m)
    e = np.exp(z - m)
    return e / e.sum(axis=-1, keepdims=True)


def _as_batch(arch: ArchSpec, X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    if X.ndim != 2 or X.shape[1] != arch.input_dim:
        raise ValueError(
            f"expected features of width {arch.input_dim}, got shape {X.shape}"
        )
    return X


def _loaded(model: PersonalModel, X, y_cls, y_aux) -> Workspace:
    """A fresh one-slot workspace holding the model, the rows of X and
    their labels: y_cls labels the leading rows, y_aux every row."""
    X = _as_batch(model.arch, X)
    N = X.shape[0]
    if N == 0:
        raise ValueError("empty batch")
    y = np.asarray(y_cls, dtype=np.int64)
    if y.ndim != 1 or not 1 <= y.shape[0] <= N:
        raise ValueError("y_cls must label between one and all leading rows")
    ya = np.asarray(y_aux, dtype=np.float64)
    if ya.shape != (N,):
        raise ValueError("y_aux must have one label per row")
    ws = Workspace(model.arch, 1, N, y.shape[0])
    ws.params[0] = model.params
    ws.x[0] = X
    ws.y[0] = y
    ws.y_aux[0] = ya
    return ws


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
    # one model's vector is a stack of one as it is, without a copy
    stack = pool[0].params[None] if len(pool) == 1 else np.stack([m.params for m in pool])
    *trunk, cls_block, aux_block = _blocks(arch, stack)
    for block in trunk:
        h = np.matmul(h, block[:, :-1])
        h += block[:, -1:]
        np.maximum(h, 0.0, out=h)
    scores = sigmoid((np.matmul(h, aux_block[:, :-1]) + aux_block[:, -1:])[..., 0])
    if not cls:
        return None, scores
    return np.matmul(h, cls_block[:, :-1]) + cls_block[:, -1:], scores


def heads(model: PersonalModel, X) -> tuple[np.ndarray, np.ndarray]:
    """Class logits, shape (n, C), and the auxiliary head's sigmoid
    scores, shape (n,), from one trunk pass."""
    logits, scores = stacked_heads([model], X)
    return logits[0], scores[0]


def _cross_entropy(logits: np.ndarray, onehot: np.ndarray):
    """Per-row CE of logits (..., C) against one-hot labels (a boolean
    array of the same shape), and the softmax probabilities."""
    m = logits.max(axis=-1, keepdims=True)
    e = np.exp(logits - m)
    se = e.sum(axis=-1, keepdims=True)
    lse = (m + np.log(se))[..., 0]
    return lse - logits[onehot].reshape(lse.shape), e / se


def _bce(scores: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-row BCE of sigmoid scores against 0/1 labels."""
    s = np.minimum(np.maximum(scores, BCE_EPS), 1.0 - BCE_EPS)
    return -(y * np.log(s) + (1.0 - y) * np.log(1.0 - s))


def _grads_and_loss(ws: Workspace, active: int):
    """One forward and one backward pass of the joint loss for slots
    [:active] of ws; returns (ws.grads[:active], each slot's mean loss).

    A slot's loss is the mean CE over its labelled rows plus the mean BCE
    over its real rows, so a single trunk pass over [batch; negatives]
    serves both losses. The trunk receives the sum of both streams; each
    head only sees its own loss. Each layer's weight and bias gradient is
    one stacked product into its block of ws.grads, which the next pass
    over ws overwrites.
    """
    a = active
    acts = [t[:a] for t in ws.acts]
    zs = [t[:a] for t in ws.zs]
    deltas = [t[:a] for t in ws.deltas]
    g = [t[:a] for t in ws.grad_blocks]
    *trunk, cls_head, aux_head = ws.layers
    for layer, x, z, x_next in zip(trunk, acts, zs, acts[1:]):
        np.matmul(x, layer.block[:a], out=z)
        np.maximum(z, 0.0, out=x_next[..., :-1])
    h1 = acts[-1]  # the last hidden layer, with its ones column
    h1_t = h1.transpose(0, 2, 1)

    s = sigmoid(np.matmul(h1, aux_head.block[:a])[..., 0])
    ya = ws.y_aux[:a]
    bce = _bce(s, ya)
    delta_a = (s - ya) / ws.aux_div[:a]
    np.matmul(h1_t, delta_a[..., None], out=g[-1])
    d_h = np.multiply(delta_a[..., None], aux_head.weights[:a], out=deltas[-1])

    L = ws.labelled
    onehot = ws.y[:a, :, None] == ws.classes
    ce, delta = _cross_entropy(np.matmul(h1[:, :L], cls_head.block[:a]), onehot)
    delta[onehot] -= 1.0
    delta /= ws.cls_div[:a]
    np.matmul(h1_t[..., :L], delta, out=g[-2])
    d_h[:, :L] += np.matmul(delta, cls_head.weights[:a])

    delta = d_h
    for i in reversed(range(len(trunk))):
        delta *= zs[i] > 0
        np.matmul(acts[i].transpose(0, 2, 1), delta, out=g[i])
        if i > 0:
            delta = np.matmul(delta, trunk[i].weights[:a], out=deltas[i - 1])

    # a padded slot sums its counted rows only, as a pass over exactly
    # those rows would; a slot's first row always counts, so its divisor
    # there is the slot's count
    ce_sum, bce_sum = ce.sum(axis=1), bce.sum(axis=1)
    for k, (n, N) in ws.padded.items():
        if k < a:
            ce_sum[k], bce_sum[k] = ce[k, :n].sum(), bce[k, :N].sum()
    return ws.grads[:a], bce_sum / ws.aux_div[:a, 0] + ce_sum / ws.cls_div[:a, 0, 0]


def backward(model: PersonalModel, X, y_cls, y_aux) -> np.ndarray:
    """The joint loss's flat gradient over the rows of X, in a new array."""
    return _grads_and_loss(_loaded(model, X, y_cls, y_aux), 1)[0][0]


def batch_loss(model: PersonalModel, X, y_cls, y_aux) -> float:
    """Mean joint loss over a batch: mean CE over the rows y_cls labels
    (the leading ones) + mean BCE over all rows."""
    return float(_grads_and_loss(_loaded(model, X, y_cls, y_aux), 1)[1][0])


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
