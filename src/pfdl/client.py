"""Client-side runtime: per-task strategy selection, knowledge-migration
regularization against frozen task-start snapshots, and local SGD rounds.

Snapshot policy: at task start, every pool model except the one bound to
the new task is frozen as a migration anchor a_i, weighted by its matching
intensity rho_i. A config switch (`km_include_self`) additionally anchors a
frozen copy of the bound model itself. The pull sum_i rho_i ||w - a_i||^2
expands to s ||w||^2 - 2 w.abar + c, so the client keeps only the three
task-start statistics s = sum_i rho_i, abar = sum_i rho_i a_i and
c = sum_i rho_i ||a_i||^2, and each step costs O(P) whatever the anchor
count.
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
    # the migration pull's statistics (s, abar, c); s == 0 means no pull
    anchor_mass: float = 0.0
    anchor_sum: np.ndarray = field(default_factory=lambda: np.zeros(0))
    anchor_sq: float = 0.0
    # task -> bound pool index; a client trains exactly the tasks it bound
    task_bindings: dict[int, int] = field(default_factory=dict)
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
    MatchingReport, or None when the client sits the task out.
    """
    shard_x = np.asarray(shard_x, dtype=np.float64)
    if shard_x.shape[0] == 0:
        state.rho_history.append({"task": int(task_id), "inactive": True})
        return None

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
    anchors = np.array([state.pool[i].params for i in anchored]).reshape(
        len(anchored), arch.param_count())
    weights = rho[anchored]
    state.anchor_mass = float(weights.sum())
    state.anchor_sum = weights @ anchors
    state.anchor_sq = float(weights @ np.einsum("ij,ij->i", anchors, anchors))
    state.rho_history.append({"task": int(task_id), **report.to_record()})
    return report


def migration_loss(w: np.ndarray, s: float, abar: np.ndarray, c: float) -> float:
    """sum_i rho_i ||w - a_i||^2 = s ||w||^2 - 2 w.abar + c."""
    return float(s * (w @ w) - 2.0 * (w @ abar) + c)


def add_migration_grads(grads: np.ndarray, w: np.ndarray, s: float,
                        abar: np.ndarray) -> None:
    """Accumulate the migration gradient 2 (s w - abar) into a flat
    gradient vector."""
    grads += 2.0 * (s * w - abar)


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
    hit the shared trunk in a single step. The rows go straight into a
    workspace reused by every step of that batch size.

    One generator per round derives from round_entropy, so the outcome
    does not depend on scheduling or on any other client. Each epoch draws
    its permutation, then all of its negatives in one call; the batches
    slice both.
    """
    bound = state.task_bindings.get(int(task_id))
    if bound is None:
        return None
    model = state.pool[bound]
    if global_params is not None:
        nn.copy_into(model, global_params)

    X = np.asarray(shard_x, dtype=np.float64)
    y = np.asarray(shard_y, dtype=np.int64)
    n = X.shape[0]
    feat_std = X.std(axis=0)
    w = model.params
    s, abar, c = state.anchor_mass, state.anchor_sum, state.anchor_sq
    # for the full and the short last batch of m rows: a workspace over
    # [batch; negatives] and the aux labels [1]*m + [0]*m
    sizes = {min(batch_size, n), n % batch_size or batch_size}
    spaces = {m: nn.Workspace(model.arch, 2 * m) for m in sizes}
    aux_labels = {m: np.repeat([1.0, 0.0], m) for m in sizes}

    rng = rng_for(*round_entropy)
    loss_sum = 0.0
    steps = 0
    for _ in range(epochs):
        order = rng.permutation(n)
        Xe, ye = X[order], y[order]
        Ne = synthesize_negatives(Xe, feat_std, neg_spec, rng, batch_size)
        for start in range(0, n, batch_size):
            stop = min(start + batch_size, n)
            m = stop - start
            ws = spaces[m]
            ws.x[:m] = Xe[start:stop]
            ws.x[m:] = Ne[start:stop]
            grads, step_loss = nn._grads_and_loss(model, ws, y_cls=ye[start:stop],
                                                  y_aux=aux_labels[m])
            if s:
                add_migration_grads(grads, w, s, abar)
                step_loss += migration_loss(w, s, abar, c)
            nn.sgd_step(w, grads, lr=lr, weight_decay=weight_decay)
            loss_sum += step_loss
            steps += 1

    mean_loss = loss_sum / steps if steps else 0.0
    return LocalUpdate(client_id=state.client_id, parameters=nn.clone_model(model),
                       num_samples=n, train_loss=mean_loss)
