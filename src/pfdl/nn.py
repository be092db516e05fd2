"""Dense trunk-plus-two-heads network with hand-written gradients.

A model is a ReLU trunk feeding two affine heads: a C-way classification
head and a single-logit auxiliary head whose sigmoid output scores domain
membership. The trunk arrays are stored exactly once, so an update coming
through either head's loss is visible to both forward passes.

All parameters of a model live in one contiguous float64 vector, laid out
layer by layer (trunk layers, then cls head, then aux head; each layer's
weights row-major, then its bias). The per-layer arrays are reshaped views
into that vector, and gradients are flat vectors in the same layout, so
copying, averaging, updating and serializing a model are each one vector
operation.

Weight matrices are (out_dim, in_dim); a batch X of shape (n, in_dim)
flows as X @ W.T + b.
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
        """[lo, hi) of the cls head's weights and bias in the flat vector."""
        lo = sum(o * i + o for o, i in self.layer_dims()[:-2])
        return lo, lo + self.num_classes * (self.hidden_dims[-1] + 1)


@dataclass
class LayerParams:
    """One affine layer: weights (out, in) and bias (out,)."""

    weights: np.ndarray
    bias: np.ndarray


class PersonalModel:
    """Shared trunk plus classification and auxiliary heads.

    `params` is the flat parameter vector; `trunk`, `cls_head` and
    `aux_head` are views into it. A given vector of the right size is
    wrapped, not copied.
    """

    def __init__(self, arch: ArchSpec, params: np.ndarray | None = None):
        size = arch.param_count()
        if params is None:
            params = np.zeros(size)
        elif params.dtype != np.float64 or params.shape != (size,) or not params.flags.c_contiguous:
            raise ValueError(f"expected a contiguous float64 vector of {size} parameters")
        self.arch = arch
        self.params = params
        layers = []
        lo = 0
        for out_dim, in_dim in arch.layer_dims():
            mid = lo + out_dim * in_dim
            layers.append(LayerParams(params[lo:mid].reshape(out_dim, in_dim),
                                      params[mid:mid + out_dim]))
            lo = mid + out_dim
        self.trunk = layers[:-2]
        self.cls_head, self.aux_head = layers[-2:]


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
    for layer in (*model.trunk, model.cls_head, model.aux_head):
        layer.weights[...] = glorot_uniform(rng, *layer.weights.shape)
    return model


def flatten_params(model: PersonalModel) -> np.ndarray:
    return model.params.copy()


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
    m = z.max(axis=-1, keepdims=True)
    e = np.exp(z - m)
    return e / e.sum(axis=-1, keepdims=True)


def _trunk_forward(model: PersonalModel, X: np.ndarray):
    """Returns (activations, pre-activations); activations[0] is X."""
    acts = [X]
    zs = []
    for layer in model.trunk:
        z = acts[-1] @ layer.weights.T + layer.bias
        zs.append(z)
        acts.append(np.maximum(z, 0.0))
    return acts, zs


def _as_batch(model: PersonalModel, X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    if X.ndim != 2 or X.shape[1] != model.arch.input_dim:
        raise ValueError(
            f"expected features of width {model.arch.input_dim}, got shape {X.shape}"
        )
    return X


def heads(model: PersonalModel, X) -> tuple[np.ndarray, np.ndarray]:
    """Class logits, shape (n, C), and the auxiliary head's sigmoid
    scores, shape (n,), from one trunk pass."""
    X = _as_batch(model, X)
    acts, _ = _trunk_forward(model, X)
    h = acts[-1]
    logits = h @ model.cls_head.weights.T + model.cls_head.bias
    v = h @ model.aux_head.weights.T + model.aux_head.bias
    return logits, sigmoid(v.ravel())


def aux_scores(model: PersonalModel, X) -> np.ndarray:
    """Sigmoid outputs of the auxiliary head, shape (n,)."""
    return heads(model, X)[1]


def _cross_entropy(logits: np.ndarray, y: np.ndarray):
    """Mean CE over the rows of logits, and the softmax probabilities."""
    m = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - m)
    se = e.sum(axis=1, keepdims=True)
    lse = (m + np.log(se)).ravel()
    return float((lse - logits[np.arange(len(y)), y]).sum() / len(y)), e / se


def _mean_bce(scores: np.ndarray, y: np.ndarray) -> float:
    s = np.minimum(np.maximum(scores, BCE_EPS), 1.0 - BCE_EPS)
    return float((-(y * np.log(s) + (1.0 - y) * np.log(1.0 - s))).sum() / len(y))


def _grads_and_loss(model: PersonalModel, X, y_cls, y_aux):
    """One forward and one backward pass of the joint loss; returns (flat
    gradient, mean loss).

    y_cls labels the leading rows of X and y_aux labels every row, so a
    single trunk pass over [batch; negatives] serves both losses: mean CE
    over the labelled rows plus mean BCE over all rows. The trunk receives
    the sum of both streams; each head only sees its own loss. The
    gradient has the model's flat layout.
    """
    X = _as_batch(model, X)
    N = X.shape[0]
    if N == 0:
        raise ValueError("empty batch")
    y = np.asarray(y_cls, dtype=np.int64)
    if y.ndim != 1 or not 1 <= y.shape[0] <= N:
        raise ValueError("y_cls must label between one and all leading rows")
    ya = np.asarray(y_aux, dtype=np.float64)
    if ya.shape != (N,):
        raise ValueError("y_aux must have one label per row")
    acts, zs = _trunk_forward(model, X)
    h = acts[-1]
    cls_head, aux_head = model.cls_head, model.aux_head

    s = sigmoid((h @ aux_head.weights.T + aux_head.bias).ravel())
    loss = _mean_bce(s, ya)
    delta_a = (s - ya) / N
    aux_grads = [delta_a @ h, delta_a.sum(keepdims=True)]
    d_h = np.outer(delta_a, aux_head.weights)

    n = len(y)
    hc = h[:n]
    ce, delta = _cross_entropy(hc @ cls_head.weights.T + cls_head.bias, y)
    loss += ce
    delta[np.arange(n), y] -= 1.0
    delta /= n
    cls_grads = [(delta.T @ hc).ravel(), delta.sum(axis=0)]
    d_h[:n] += delta @ cls_head.weights

    trunk_grads = []
    delta = d_h
    for i in reversed(range(len(model.trunk))):
        dz = delta * (zs[i] > 0)
        trunk_grads[:0] = [(dz.T @ acts[i]).ravel(), dz.sum(axis=0)]
        if i > 0:
            delta = dz @ model.trunk[i].weights
    return np.concatenate(trunk_grads + cls_grads + aux_grads), loss


def backward(model: PersonalModel, X, y_cls, y_aux) -> np.ndarray:
    return _grads_and_loss(model, X, y_cls=y_cls, y_aux=y_aux)[0]


def batch_loss(model: PersonalModel, X, y_cls, y_aux) -> float:
    """Mean joint loss over a batch: mean CE over the rows y_cls labels
    (the leading ones) + mean BCE over all rows."""
    return _grads_and_loss(model, X, y_cls=y_cls, y_aux=y_aux)[1]


def sgd_step(params: np.ndarray, grads: np.ndarray, lr: float, weight_decay: float = 0.0) -> None:
    """Decoupled step on flat vectors: p <- p - lr * (g + weight_decay * p),
    in place."""
    if lr <= 0:
        raise ValueError("lr must be positive")
    if weight_decay < 0:
        raise ValueError("weight_decay must be non-negative")
    params -= lr * (grads + weight_decay * params)
