"""Client-side runtime: per-task strategy selection, knowledge-migration
regularization against frozen task-start snapshots, and local SGD rounds.

Snapshot policy: at task start, every pool model except the one bound to
the new task is frozen as a migration anchor, weighted by its matching
intensity. A config switch (`km_include_self`) additionally anchors a
frozen copy of the bound model itself. The anchors are stacked into one
(A, P) matrix of flat parameter vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nn
from .matching import (DECISION_NEW, MatchingReport, NegativeSynthesisSpec,
                       matching_intensity, select_strategy, synthesize_negatives)
from .seeding import rng_for


@dataclass
class ClientState:
    client_id: int
    pool: list[nn.PersonalModel] = field(default_factory=list)
    pool_snapshots: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    snapshot_rho: np.ndarray = field(default_factory=lambda: np.zeros(0))
    task_bindings: dict[int, int] = field(default_factory=dict)
    active: bool = True
    rho_history: list[dict] = field(default_factory=list)


@dataclass
class LocalUpdate:
    client_id: int
    parameters: nn.PersonalModel
    num_samples: int
    train_loss: float = 0.0  # round-mean joint loss, for the event log


def begin_task(state: ClientState, shard_x: np.ndarray, task_id: int, lam: float,
               max_pool_size: int, arch: nn.ArchSpec, init_seed,
               km_include_self: bool = False) -> MatchingReport | None:
    """Match the new task against the pool and pick a strategy.

    Empty shard: the client sits the task out (no binding, no training).
    Otherwise computes matching intensities, reuses or initializes a model,
    binds it to the task, and freezes the migration anchors. Returns the
    MatchingReport, or None for an inactive client.
    """
    shard_x = np.asarray(shard_x, dtype=np.float64)
    if shard_x.shape[0] == 0:
        state.active = False
        state.pool_snapshots = np.zeros((0, 0))
        state.snapshot_rho = np.zeros(0)
        state.rho_history.append({"task": int(task_id), "inactive": True})
        return None
    state.active = True

    rho = matching_intensity(state.pool, shard_x)
    report = select_strategy(rho, lam, len(state.pool), max_pool_size)
    if report.decision == DECISION_NEW:
        state.pool.append(nn.init_model(arch, init_seed))
        bound = len(state.pool) - 1
    else:
        bound = int(report.model_index)
    state.task_bindings[int(task_id)] = bound

    # the freshly added model has no intensity entry, so i < len(rho)
    anchored = [i for i in range(len(rho)) if i != bound or km_include_self]
    state.pool_snapshots = np.array([state.pool[i].params for i in anchored]).reshape(
        len(anchored), arch.param_count())
    state.snapshot_rho = rho[anchored]
    state.rho_history.append({"task": int(task_id), **report.to_record()})
    return report


def migration_loss(diff: np.ndarray, rho: np.ndarray) -> float:
    """Sum_i rho_i * ||w - w_i||^2, from diff = w - anchors (one row each)."""
    if diff.shape[0] != rho.shape[0]:
        raise ValueError("one weight per snapshot required")
    return float(rho @ np.einsum("ij,ij->i", diff, diff))


def add_migration_grads(grads: np.ndarray, diff: np.ndarray, rho: np.ndarray) -> None:
    """Accumulate the migration gradient 2 * rho^T (w - anchors) into a flat
    gradient vector, from diff = w - anchors."""
    grads += 2.0 * (rho @ diff)


def local_train_round(state: ClientState, global_params: nn.PersonalModel | None,
                      shard_x: np.ndarray, shard_y: np.ndarray, task_id: int,
                      epochs: int, lr: float, weight_decay: float, batch_size: int,
                      neg_spec: NegativeSynthesisSpec,
                      round_entropy: tuple[int, ...]) -> LocalUpdate | None:
    """One communication round of local training.

    The bound model first adopts the broadcast global parameters (if any;
    the first round of a task starts from the strategy-selected state).
    Then `epochs` epochs of minibatch SGD on the joint objective: CE on the
    task batch, BCE on the batch plus equally many synthesized negatives,
    and the knowledge-migration pull toward the frozen anchors. One trunk
    pass over [batch; negatives] serves both losses, and all three streams
    hit the shared trunk in a single step.

    Epoch RNG derives from round_entropy + epoch index, so the outcome does
    not depend on scheduling or on any other client.
    """
    if not state.active:
        return None
    model = state.pool[state.task_bindings[int(task_id)]]
    if global_params is not None:
        nn.copy_into(model, global_params)

    X = np.asarray(shard_x, dtype=np.float64)
    y = np.asarray(shard_y, dtype=np.int64)
    n = X.shape[0]
    feat_std = X.std(axis=0)
    w = model.params
    anchors, rho = state.pool_snapshots, state.snapshot_rho

    loss_sum = 0.0
    steps = 0
    # a diverging round overflows to inf/nan here; run_task's non-finite
    # guard reports it, so NumPy's warnings would only bury that report.
    # errstate is per thread, and this runs in the round's worker.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(epochs):
            rng = rng_for(*round_entropy, epoch)
            order = rng.permutation(n)
            for start in range(0, n, batch_size):
                rows = order[start:start + batch_size]
                Xb = X[rows]
                Xn = synthesize_negatives(Xb, feat_std, neg_spec, rng)
                ya = np.zeros(2 * len(rows))
                ya[:len(rows)] = 1.0
                grads, step_loss = nn._grads_and_loss(
                    model, np.concatenate([Xb, Xn]), y_cls=y[rows], y_aux=ya)
                if len(anchors):
                    diff = w - anchors
                    add_migration_grads(grads, diff, rho)
                    step_loss += migration_loss(diff, rho)
                nn.sgd_step(w, grads, lr=lr, weight_decay=weight_decay)
                loss_sum += step_loss
                steps += 1

    mean_loss = loss_sum / steps if steps else 0.0
    return LocalUpdate(client_id=state.client_id, parameters=nn.clone_model(model),
                       num_samples=n, train_loss=mean_loss)
