"""Central finite-difference checks for the analytic gradients.

These drive both the `gradcheck` CLI command and the acceptance suite.
The relative error uses a small guard in the denominator so that entries
whose true gradient is zero compare finite-difference noise against the
guard instead of dividing by zero.
"""

from __future__ import annotations

import numpy as np

from . import nn
from .client import add_migration_grads

REL_GUARD = 1e-3


def finite_diff_grad(params: np.ndarray, loss_fn, h: float) -> np.ndarray:
    """Central differences of loss_fn() in every entry of a flat vector,
    perturbed in place and restored."""
    g = np.zeros_like(params)
    for i in range(params.size):
        orig = params[i]
        params[i] = orig + h
        up = loss_fn()
        params[i] = orig - h
        dn = loss_fn()
        params[i] = orig
        g[i] = (up - dn) / (2.0 * h)
    return g


def max_rel_error(analytic: np.ndarray, fd: np.ndarray, guard: float = REL_GUARD) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), guard)
    return float(np.max(np.abs(analytic - fd) / denom))


def _random_arch(rng) -> nn.ArchSpec:
    depth = int(rng.integers(1, 3))
    hidden = tuple(int(rng.integers(3, 7)) for _ in range(depth))
    return nn.ArchSpec(input_dim=int(rng.integers(2, 6)), hidden_dims=hidden,
                       num_classes=int(rng.integers(2, 5)))


def run_nn_gradcheck(num_cases: int, seed: int = 0, h: float = 1e-6) -> float:
    """Max relative error of analytic vs central-difference gradients of
    the joint loss over random models and batches: `nn.backward` runs the
    training pass, and the differences score `nn.batch_loss`, which goes
    through `nn.heads` and not that pass.

    Each case labels a random number of leading rows with classes, as the
    fused training pass does over [batch; negatives]."""
    rng = np.random.default_rng(seed)
    errors = []
    for _ in range(num_cases):
        arch = _random_arch(rng)
        model = nn.init_model(arch, int(rng.integers(0, 2**31)))
        # check at a generic point: fresh zero biases park hidden units
        # exactly on the ReLU kink, where central differences and the
        # subgradient convention legitimately disagree
        model.params += rng.standard_normal(model.params.size) * 0.1
        n = int(rng.integers(2, 6))
        X = rng.standard_normal((n, arch.input_dim))
        y = rng.integers(0, arch.num_classes, size=int(rng.integers(1, n + 1)))
        ya = rng.integers(0, 2, size=n).astype(float)
        analytic = nn.backward(model, X, y_cls=y, y_aux=ya)
        fd = finite_diff_grad(
            model.params, lambda: nn.batch_loss(model, X, y_cls=y, y_aux=ya), h)
        errors.append(max_rel_error(analytic, fd))
    return float(np.max(errors))


def run_migration_gradcheck(num_cases: int, seed: int = 0, h: float = 1e-6) -> float:
    """Max relative error of the closed-form knowledge-migration gradient
    against central differences of its definition sum_i rho_i ||w - a_i||^2,
    on random cases of roughly a hundred parameters and 1 to 7 anchors (a
    full pool of 8 models anchors all but the bound one)."""
    rng = np.random.default_rng(seed)
    errors = []
    arch = nn.ArchSpec(input_dim=5, hidden_dims=(8,), num_classes=4)  # 93 params
    for _ in range(num_cases):
        w = nn.init_model(arch, int(rng.integers(0, 2**31))).params
        anchors = w + rng.standard_normal((int(rng.integers(1, 8)), w.size)) * 0.3
        rho = rng.uniform(0.0, 1.0, size=len(anchors))
        analytic = np.zeros_like(w)
        add_migration_grads(analytic, w, float(rho.sum()), rho @ anchors)
        fd = finite_diff_grad(w, lambda: float(rho @ ((w - anchors) ** 2).sum(axis=1)), h)
        errors.append(max_rel_error(analytic, fd))
    return float(np.max(errors))  # a NaN case stays NaN, where max(worst, nan) drops it
