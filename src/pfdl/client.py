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

A local round trains all of a round's sampled clients at once: each bound
model takes one slot of an `nn.Workspace`, and each step is one stacked
pass over the slots still training. When the round starts each client
builds its `matching.NegativePlan`: the views of its slot rows and the
constants of its negatives. At each epoch's start it draws the epoch's
permutation and negatives and writes every batch straight into its slot
rows ([batch; negatives; zero rows], with the ones column) and one-hot
class targets; a step copies each client's batch into its slot. The
per-client parts of a step (the migration pull and the SGD update) stay
per client, so a client's update does not depend on which clients share
its round.

A round computes in float32 (`TRAIN_DTYPE`): the workspace, the slot
rows, the pull and the update. The pools, the anchor statistics, the
shards and the random draws stay float64. The broadcast or bound model
is cast into its slot when the round starts, and the trained slot is
copied back into the float64 pool model, exactly, when it ends.

The pass computes gradients only. A client's round loss (`train_loss`)
is scored once, in float64: the joint loss of its last batch through
`nn.heads` at the parameters just before their last update, plus the
migration pull.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nn
from .matching import (DECISION_NEW, MatchingReport, NegativePlan, NegativeSynthesisSpec,
                       matching_intensity, select_strategy, synthesize_negatives)
from .seeding import rng_for

# the precision of a local round's workspace, slot rows and update; the
# pools, the anchor statistics and every loss stay float64
TRAIN_DTYPE = np.float32


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


@dataclass
class LocalUpdate:
    client_id: int
    parameters: nn.PersonalModel
    num_samples: int
    train_loss: float  # the last batch's joint loss before its update, for the event log


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
    return report


def migration_loss(w: np.ndarray, s: float, abar: np.ndarray, c: float) -> float:
    """sum_i rho_i ||w - a_i||^2 = s ||w||^2 - 2 w.abar + c."""
    return float(s * (w @ w) - 2.0 * (w @ abar) + c)


def add_migration_grads(grads: np.ndarray, w: np.ndarray, s: float,
                        abar: np.ndarray) -> None:
    """Accumulate the migration gradient 2 (s w - abar) into a flat
    gradient vector."""
    grads += 2.0 * (s * w - abar)


class _Lane:
    """One client of a lockstep round: its bound model, its shard, its
    generator, and its epoch laid out as slot rows. inputs[b] holds batch
    b's slot rows [batch; negatives; zero rows], the ones column set on
    the real rows, and onehot[b] the batch's one-hot class targets. Both
    are laid out once per round, and so are `negatives`, the round's
    `NegativePlan` over inputs, and `targets`, each shard row's one-hot
    row; each epoch then writes its positives, negatives and targets
    straight into those rows. The slot rows, the targets and `abar`, the
    anchor sum of the migration pull, are in TRAIN_DTYPE; the shard and
    the draws stay float64, and each value is rounded to TRAIN_DTYPE once,
    as it is written into its slot row."""

    def __init__(self, pos: int, state: ClientState, model: nn.PersonalModel,
                 X: np.ndarray, y: np.ndarray, epochs: int, batch_size: int,
                 neg_spec: NegativeSynthesisSpec, entropy):
        self.pos, self.state, self.model = pos, state, model
        self.X, self.batch_size = X, batch_size
        n, C = X.shape[0], model.arch.num_classes
        # full batches per epoch, then a short one of `tail` rows, if any
        self.full, self.tail = divmod(n, batch_size)
        self.batches = self.full + (self.tail > 0)
        self.steps = epochs * self.batches
        self.rng = rng_for(*entropy)
        self.abar = state.anchor_sum.astype(TRAIN_DTYPE)
        self.inputs = np.zeros((self.batches, 2 * batch_size, X.shape[1] + 1), TRAIN_DTYPE)
        self.inputs[:self.full, :, -1] = 1.0
        self.inputs[self.full:, :2 * self.tail, -1] = 1.0
        # rows past a short batch count for nothing, but are class 0
        self.onehot = np.zeros((self.batches, batch_size, C), TRAIN_DTYPE)
        self.onehot[self.full:, self.tail:, 0] = 1.0
        # each shard row's one-hot target; an epoch's rows, in batch order,
        # fill the leading rows of onehot
        self.targets = np.eye(C, dtype=TRAIN_DTYPE)[y]
        self.onehot_rows = self.onehot.reshape(-1, C)[:n]
        self.negatives = NegativePlan(neg_spec, X.std(axis=0), n, self.inputs, batch_size)
        self.batch_len = 0  # the rows of the batch in the workspace
        self.loss = None  # the round's loss, scored at its last step

    def start_epoch(self) -> None:
        """Draw the epoch's permutation, then all of its negatives in one
        call, and write every batch's slot rows and one-hot targets."""
        order, neg = self.rng.permutation(self.X.shape[0]), self.negatives
        # order is a permutation, so `clip` clips nothing; it spares take a buffer
        np.take(self.X, order, axis=0, out=neg.ordered, mode="clip")
        for src, slot in neg.positives:
            np.copyto(slot, src)
        synthesize_negatives(neg, self.rng)
        np.take(self.targets, order, axis=0, out=self.onehot_rows, mode="clip")

    def size_slot(self, ws: nn.Workspace, k: int, b: int) -> None:
        """Size slot k of ws to batch b, when its length changed."""
        m = self.batch_size if b < self.full else self.tail
        if m != self.batch_len:
            self.batch_len = m
            ws.count_rows(k, m, 2 * m)
            ws.y_aux[k, :m] = 1.0
            ws.y_aux[k, m:] = 0.0

    def step(self, w: np.ndarray, grads: np.ndarray, lr: float, weight_decay: float,
             last: bool) -> None:
        """Add the migration pull to the pass's gradient, then update w,
        the client's row of the workspace parameters. At the round's last
        step, first score the batch's joint loss at w, plus the pull, in
        float64."""
        st, m = self.state, self.batch_len
        if last:
            w64 = w.astype(np.float64)
            self.loss = nn.batch_loss(nn.PersonalModel(self.model.arch, w64),
                                      self.inputs[-1, :2 * m, :-1], self.onehot[-1, :m].argmax(-1),
                                      np.repeat([1.0, 0.0], m))
            if st.anchor_mass:
                self.loss += migration_loss(w64, st.anchor_mass, st.anchor_sum, st.anchor_sq)
        if st.anchor_mass:
            add_migration_grads(grads, w, st.anchor_mass, self.abar)
        nn.sgd_step(w, grads, lr=lr, weight_decay=weight_decay)


def local_train_round(states, global_params: nn.PersonalModel | None, shards, task_id: int,
                      epochs: int, lr: float, weight_decay: float, batch_size: int,
                      neg_spec: NegativeSynthesisSpec, entropies) -> list[LocalUpdate | None]:
    """One communication round of local training for the round's sampled
    clients: states[i] trains on shards[i] = (X, y) with the generator of
    entropies[i]. Returns one LocalUpdate per client, None for a client
    that has no model bound to the task or an empty shard.

    Each bound model first adopts the broadcast global parameters (if any;
    the first round of a task starts from the strategy-selected state).
    Then `epochs` epochs of minibatch SGD on the joint objective: CE on the
    task batch, BCE on the batch plus equally many synthesized negatives,
    and the knowledge-migration pull toward the frozen anchors. One trunk
    pass over [batch; negatives] serves both losses, and all three streams
    hit the shared trunk in a single step.

    The clients train in lockstep: one workspace slot each, and one
    stacked pass per step over the clients still training. Slots are
    sorted by step count, descending, ties by client id, so those clients
    are always a prefix of the slots. Every slot has 2 * batch_size rows;
    a short batch's real rows come first and zero rows pad the rest. So a
    client's arithmetic never depends on the other clients of its round,
    and as each client draws from its own generator, neither does its
    outcome.
    """
    updates = [None] * len(states)
    lanes = []
    for pos, (state, (X, y), entropy) in enumerate(zip(states, shards, entropies)):
        bound = state.task_bindings.get(int(task_id))
        X = np.asarray(X, dtype=np.float64)
        if bound is not None and X.shape[0]:
            lanes.append(_Lane(pos, state, state.pool[bound], X, np.asarray(y, dtype=np.int64),
                               epochs, batch_size, neg_spec, entropy))
    if not lanes:
        return updates
    lanes.sort(key=lambda lane: (-lane.steps, lane.state.client_id))
    ws = nn.Workspace(lanes[0].model.arch, len(lanes), 2 * batch_size, batch_size,
                      TRAIN_DTYPE)
    for k, lane in enumerate(lanes):
        if global_params is not None:
            np.copyto(lane.model.params, global_params.params)
        ws.params[k] = lane.model.params

    active = len(lanes)
    for step in range(lanes[0].steps):
        while lanes[active - 1].steps <= step:
            active -= 1
        for k, lane in enumerate(lanes[:active]):
            b = step % lane.batches
            if b == 0:
                lane.start_epoch()
            lane.size_slot(ws, k, b)
            ws.acts[0][k] = lane.inputs[b]
            ws.onehot[k] = lane.onehot[b]
        grads = nn._grads_and_loss(ws, active)
        for k, lane in enumerate(lanes[:active]):
            lane.step(ws.params[k], grads[k], lr, weight_decay, step == lane.steps - 1)

    for k, lane in enumerate(lanes):
        if lane.steps:  # a lane that took no step keeps its model's float64 bits
            np.copyto(lane.model.params, ws.params[k])
        updates[lane.pos] = LocalUpdate(
            client_id=lane.state.client_id, parameters=nn.clone_model(lane.model),
            num_samples=lane.X.shape[0], train_loss=lane.loss)
    return updates
