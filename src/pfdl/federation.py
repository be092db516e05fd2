"""Server-side orchestration: client sampling, broadcast, aggregation, the
per-task round schedule, and the reference baselines run under one harness.

Every mode shares the same local training procedure (joint CE + auxiliary
BCE + migration pull), the same sampling schedule, and the same
aggregation rule. Modes differ only in how a client binds a model to a
task and, following from that, how it scores a task at evaluation time;
MODE_TABLE holds one `Mode` record per mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import client, nn
from .data import (DataConfig, apply_domain, build_task_stream,
                   dirichlet_partition, make_base_dataset)
from .errors import ConfigError, InvariantError
from .evaluation import (MetricsMatrix, OutputMemo, accuracy, build_metrics,
                         ensemble_probs_matrix, mean_ce, pool_digests)
from .matching import NegativeSynthesisSpec
from .persist import EventLog, start_run, state_file, write_metrics_files
from .seeding import TAG_INIT, TAG_SAMPLE, TAG_TRAIN, rng_for
from .serialize import open_task_writer, save_client_state

BIND_MATCH = "match"
BIND_ONE = "one"
BIND_PER_TASK = "per_task"


@dataclass(frozen=True)
class Mode:
    """How a mode binds a model to a task.

    bind: `match` reuses the best-matching pool model or adds one (with
    migration anchors), `one` carries a single model through every task,
    `per_task` adds a pool entry per task. Inference follows from it: the
    aux-weighted ensemble over the pool, the one model, or the task's own
    model (the task id is known at inference).
    sharing: per-task entries share the trunk and the aux head, and each
    new entry gets a fresh class head.
    source_only: the mode trains on the first task only.
    """

    bind: str
    sharing: bool = False
    source_only: bool = False


MODE_TABLE = {
    "pfeddil": Mode(BIND_MATCH),
    "fedavg": Mode(BIND_ONE),
    "source_only": Mode(BIND_ONE, source_only=True),
    "disjoint": Mode(BIND_PER_TASK),
    "sharing": Mode(BIND_PER_TASK, sharing=True),
}
MODES = tuple(MODE_TABLE)


@dataclass(frozen=True)
class FederationConfig:
    """Population, schedule, optimization and strategy knobs."""

    num_clients: int = 8
    active_fraction: float = 0.4
    rounds_per_task: int = 180
    local_epochs: int = 20
    batch_size: int = 32
    lr: float = 1e-3
    weight_decay: float = 1e-3
    lam: float = 0.5
    alpha: float = 1.0
    max_pool_size: int = 8
    mode: str = "pfeddil"
    seed: int = 0
    km_include_self: bool = False


@dataclass(frozen=True)
class ExperimentConfig:
    federation: FederationConfig = field(default_factory=FederationConfig)
    data: DataConfig = field(default_factory=DataConfig)
    hidden_dims: tuple = (64, 32)
    negatives: NegativeSynthesisSpec = field(default_factory=NegativeSynthesisSpec)

    def arch(self) -> nn.ArchSpec:
        return nn.ArchSpec(input_dim=self.data.input_dim,
                           hidden_dims=tuple(self.hidden_dims),
                           num_classes=self.data.num_classes)

    def to_dict(self) -> dict:
        from .config import config_to_dict  # config.py imports this module
        return config_to_dict(self)


def sample_clients(num_clients: int, active_fraction: float,
                   rng: np.random.Generator) -> list[int]:
    """Uniform sample without replacement of size max(1, floor(C*K))."""
    size = max(1, int(np.floor(active_fraction * num_clients)))
    picked = rng.choice(num_clients, size=size, replace=False)
    return sorted(int(k) for k in picked)


def aggregate(updates) -> nn.PersonalModel:
    """Sample-weighted parameter mean, accumulated in client-id order."""
    if not updates:
        raise InvariantError("aggregate needs at least one update")
    ordered = sorted(updates, key=lambda u: u.client_id)
    total = float(sum(u.num_samples for u in ordered))
    if total <= 0:
        raise InvariantError("aggregate needs positive total sample weight")
    arch = ordered[0].parameters.arch
    out = np.zeros_like(ordered[0].parameters.params)
    for u in ordered:
        if u.parameters.arch != arch:
            raise InvariantError("aggregate saw mismatched architectures")
        out += (u.num_samples / total) * u.parameters.params
    return nn.PersonalModel(arch, out)


# ------------------------------------------------------------ task start


def _begin_task(cfg: ExperimentConfig, state: client.ClientState,
                shard_x: np.ndarray, task_pos: int):
    """The mode's policy for binding a model to a new task.

    Returns the MatchingReport of a matching client, None otherwise. A
    client with an empty shard sits the task out in every mode.
    """
    fed = cfg.federation
    mode = MODE_TABLE[fed.mode]
    init_seed = [fed.seed, TAG_INIT, state.client_id, task_pos]
    if mode.bind == BIND_MATCH:
        return client.begin_task(state, shard_x, task_pos, fed.lam,
                                 fed.max_pool_size, cfg.arch(), init_seed,
                                 km_include_self=fed.km_include_self)

    if shard_x.shape[0] == 0:
        return None
    if mode.sharing and state.pool:
        # the shared trunk and aux head, under a fresh class head
        model = nn.clone_model(state.pool[-1])
        nn.glorot_init(model.blocks[-2], rng_for(*init_seed))
        state.pool.append(model)
    elif mode.bind == BIND_PER_TASK or not state.pool:
        state.pool.append(nn.init_model(cfg.arch(), init_seed))
    state.task_bindings[task_pos] = len(state.pool) - 1
    return None


# ------------------------------------------------------------ round loop


def run_task(cfg: ExperimentConfig, states, shard_data, task_pos: int,
             events: EventLog) -> nn.PersonalModel | None:
    """T rounds of sample -> broadcast -> local train -> aggregate.

    The first round of a task has no broadcast, so clients train from
    their strategy-selected parameters and the reuse/new decision has
    teeth. A round in which every sampled client is inactive carries the
    previous global forward and logs a warning. After the last round the
    final global overwrites every bound model; it is also returned (None
    when no round had an active client).
    """
    fed = cfg.federation
    # no batch holds more rows than the task's largest shard, so a larger
    # batch_size would only pad every client's rows in the lockstep pass
    batch_size = min(fed.batch_size, max(len(y) for _, y in shard_data) or 1)
    global_model = None  # until the first aggregation
    # a diverging round overflows to inf/nan; the non-finite guards below
    # report it, so NumPy's warnings would only bury that report
    with np.errstate(over="ignore", invalid="ignore"):
        for rnd in range(fed.rounds_per_task):
            rng = rng_for(fed.seed, TAG_SAMPLE, task_pos, rnd)
            sampled = sample_clients(fed.num_clients, fed.active_fraction, rng)
            results = client.local_train_round(
                [states[k] for k in sampled], global_model,
                [shard_data[k] for k in sampled], task_id=task_pos,
                epochs=fed.local_epochs, lr=fed.lr,
                weight_decay=fed.weight_decay, batch_size=batch_size,
                neg_spec=cfg.negatives,
                entropies=[(fed.seed, TAG_TRAIN, k, task_pos, rnd) for k in sampled])
            updates = [u for u in results if u is not None]

            if updates:
                for u in updates:
                    if not np.isfinite(u.train_loss):
                        raise InvariantError(
                            f"client {u.client_id}, task {task_pos}, round {rnd}: "
                            f"local train loss is {u.train_loss}")
                global_model = aggregate(updates)
                loss_mean = float(np.mean([u.train_loss for u in updates]))
            else:
                events.emit({"type": "warning", "task": task_pos, "round": rnd,
                             "reason": "no_active_clients_sampled"})
                loss_mean = None
            norm = (None if global_model is None
                    else float(np.linalg.norm(global_model.params)))
            if updates and not np.isfinite(norm):
                raise InvariantError(
                    f"clients {[u.client_id for u in updates]}, task {task_pos}, "
                    f"round {rnd}: the aggregate's parameter norm is {norm}")
            events.emit({"type": "round", "round": rnd, "task": task_pos,
                         "mode": fed.mode, "sampled_clients": sampled,
                         "train_loss_mean": loss_mean, "global_param_norm": norm})

    if global_model is not None:
        lo, hi = cfg.arch().cls_head_span()
        for st in states:
            if task_pos in st.task_bindings:
                bound = st.pool[st.task_bindings[task_pos]]
                np.copyto(bound.params, global_model.params)
                if MODE_TABLE[fed.mode].sharing:
                    # every entry carries the shared trunk and aux head
                    for model in st.pool:
                        if model is not bound:
                            model.params[:lo] = bound.params[:lo]
                            model.params[hi:] = bound.params[hi:]
    return global_model


# ------------------------------------------------------------ evaluation


def _inference_indices(mode: Mode, state: client.ClientState, task_m: int) -> list[int]:
    """The pool indices the mode's inference rule reads for task m, in
    pool order; empty when the client cannot score the task."""
    if not state.pool:
        return []
    if mode.bind == BIND_MATCH:
        return list(range(len(state.pool)))
    if mode.bind == BIND_ONE:
        return [0]
    idx = state.task_bindings.get(task_m)
    return [] if idx is None else [idx]


def _client_task_probs(mode: Mode, state: client.ClientState, X: np.ndarray,
                       task_m: int, memo: OutputMemo | None = None, keys=()):
    """The mode's inference rule: (probs, uniform-fallback count), or
    (None, 0) when the client cannot score this task at all. With a memo,
    keys[i] is state.pool[i]'s memo key on X."""
    read = _inference_indices(mode, state, task_m)
    if not read:
        return None, 0
    if mode.bind == BIND_MATCH:
        return ensemble_probs_matrix(state.pool, X, memo, keys)
    (idx,) = read
    if memo is None:
        return nn.softmax(nn.heads(state.pool[idx], X)[0]), 0
    return memo.fill([state.pool[idx]], X, [keys[idx]])[0][1], 0


def _evaluate_after_task(cfg: ExperimentConfig, states, tasks, streams,
                         n: int, acc_grid, w_grid, events: EventLog,
                         memo: OutputMemo) -> None:
    """Fill row n of every client's accuracy grid (tasks 0..n), reading
    model outputs through the run's memo; entries of models that no pool
    holds any more are dropped first.

    A cell's accuracy and fallback count depend only on the models the
    inference rule reads and on the dataset, so clients holding
    bit-identical copies of those models share one computation, keyed by
    (their digests in pool order, dataset index). The key holds the
    dataset, not the stream position: with shuffled streams, clients at
    the same position see different datasets. Each distinct parameter
    vector is hashed once per call.
    """
    fed = cfg.federation
    mode = MODE_TABLE[fed.mode]
    digests = pool_digests([st.pool for st in states])
    memo.retain({g for pool in digests for g in pool})
    cells = {}  # key -> (accuracy, fallbacks), or None when nothing is read
    fallbacks = 0
    for st, client_digests in zip(states, digests):
        k = st.client_id
        for m in range(n + 1):
            d = streams[k][m]
            ds = tasks[d]
            key = (tuple(client_digests[i] for i in _inference_indices(mode, st, m)), d)
            if key not in cells:
                probs, fb = _client_task_probs(mode, st, ds.test_x, m, memo,
                                               [(g, d) for g in client_digests])
                cells[key] = (None if probs is None
                              else (accuracy(probs, ds.test_y), fb))
            if cells[key] is None:
                continue
            acc_grid[k, n, m], fb = cells[key]
            fallbacks += fb
            w_grid[k, n, m] = ds.test_y.shape[0]
    events.emit({"type": "eval", "task": n, "mode": fed.mode,
                 "uniform_fallbacks": int(fallbacks)})


def _global_objective(cfg: ExperimentConfig, states, tasks, streams,
                      partitions) -> float | None:
    """Mean cross-entropy over every client's train shards, all tasks,
    weighted by shard size and scored with the mode's inference rule."""
    mode = MODE_TABLE[cfg.federation.mode]
    num, den = 0.0, 0
    for st in states:
        k = st.client_id
        for m in range(len(streams[k])):
            d = streams[k][m]
            rows = partitions[d][k].indices
            if rows.size == 0:
                continue
            probs, _ = _client_task_probs(mode, st, tasks[d].train_x[rows], m)
            if probs is None:
                continue
            num += mean_ce(probs, tasks[d].train_y[rows]) * rows.size
            den += rows.size
    return num / den if den else None


def score_run(cfg: ExperimentConfig, tasks, streams, partitions,
              states_after, events: EventLog):
    """Score a run: for each task n in order, fill row n of the accuracy
    grid from states_after(n), the client states after task n; then score
    the global objective on the last states. `run_experiment` trains the
    task in states_after, `pfdl eval` loads its checkpoints there. Scoring
    only reads the states, so states_after may refill one list in place.

    Returns (metrics, pool sizes, stored parameter count). A sharing
    client stores the trunk and aux head once, plus one class head per
    pool entry.
    """
    n_tasks = len(tasks)
    K = cfg.federation.num_clients
    acc_grid = np.full((K, n_tasks, n_tasks), np.nan)
    w_grid = np.zeros((K, n_tasks, n_tasks))
    memo = OutputMemo()
    for n in range(n_tasks):
        states = states_after(n)
        _evaluate_after_task(cfg, states, tasks, streams, n, acc_grid, w_grid,
                             events, memo)
    objective = _global_objective(cfg, states, tasks, streams, partitions)
    metrics = build_metrics(acc_grid, w_grid, global_objective=objective)
    sharing = MODE_TABLE[cfg.federation.mode].sharing
    param_count = 0
    for st in states:
        if st.pool:
            arch = st.pool[0].arch
            lo, hi = arch.cls_head_span()
            per_entry = hi - lo if sharing else arch.param_count()
            param_count += arch.param_count() - per_entry + per_entry * len(st.pool)
    return metrics, [len(st.pool) for st in states], param_count


# ------------------------------------------------------------ experiment


def build_datasets(cfg: ExperimentConfig):
    """Base draw, per-domain tasks, per-dataset partitions, task streams."""
    fed = cfg.federation
    data_seed = cfg.data.seed if cfg.data.seed is not None else fed.seed
    base = make_base_dataset(cfg.data.num_classes, cfg.data.input_dim,
                             cfg.data.samples_per_class,
                             cfg.data.class_separation, data_seed)
    tasks = [apply_domain(base, dom, t) for t, dom in enumerate(cfg.data.domains())]
    return int(data_seed), tasks, *partitions_and_streams(cfg, data_seed, tasks)


def partitions_and_streams(cfg: ExperimentConfig, data_seed: int, tasks):
    """Per-task client shards and per-client task orders; both are
    deterministic in the config, the data seed and the task count."""
    fed = cfg.federation
    partitions = [dirichlet_partition(t, fed.alpha, fed.num_clients,
                                      (data_seed, t.task_id))
                  for t in tasks]
    streams = build_task_stream(tasks, fed.num_clients,
                                cfg.data.stream_mode, data_seed)
    return partitions, streams


@dataclass
class RunResult:
    metrics: MetricsMatrix
    states: list
    pool_sizes: list[int]
    param_count_total: int


def run_experiment(cfg: ExperimentConfig, out_dir=None, threads: int = 1) -> RunResult:
    """One full incremental run: every task in order, T rounds each,
    scored by `score_run` after every task, artifacts to out_dir when
    given.

    The manifest declaring every output path is written before the first
    training round. A round's clients train in lockstep in one thread;
    `threads` is kept only because the benchmark child passes threads=1,
    and any other value is a ValueError.
    """
    if threads != 1:
        raise ValueError(f"threads must be 1, got {threads!r}")
    fed = cfg.federation
    mode = MODE_TABLE.get(fed.mode)
    if mode is None:
        raise ConfigError(f"unknown mode {fed.mode!r} (choose from {', '.join(MODES)})")
    data_seed, tasks, partitions, streams = build_datasets(cfg)
    K = fed.num_clients
    # a position no client trains at leaves metrics cells nobody evaluates:
    # the first position for a pool that carries on, any for per-task pools
    for m in range(len(tasks)) if mode.bind == BIND_PER_TASK else [0]:
        if not any(partitions[streams[k][m]][k].indices.size for k in range(K)):
            raise ConfigError(f"no client holds training rows at stream position {m}")

    out = None if out_dir is None else start_run(out_dir, cfg, data_seed, tasks)

    states = [client.ClientState(client_id=k) for k in range(K)]

    with EventLog(out / "events.jsonl" if out is not None else None) as events:
        def train(tpos: int):
            shard_data = []
            for k in range(K):
                d = streams[k][tpos]
                rows = partitions[d][k].indices
                shard_data.append((tasks[d].train_x[rows], tasks[d].train_y[rows]))

            # a source_only mode freezes after the first task but is still evaluated
            if not (mode.source_only and tpos > 0):
                for k in range(K):
                    report = _begin_task(cfg, states[k], shard_data[k][0], tpos)
                    if report is not None:
                        events.emit({"type": "matching", "client": k,
                                     "task": tpos, **report.to_record()})
                run_task(cfg, states, shard_data, tpos, events)
            if out is not None:
                with open_task_writer(out / state_file(tpos), cfg.arch(), K) as fh:
                    for st in states:
                        save_client_state(fh, st)
            return states

        metrics, pool_sizes, pc_total = score_run(cfg, tasks, streams, partitions,
                                                  train, events)
        events.emit({"type": "summary", "mode": fed.mode, "seed": fed.seed,
                     "avg_final": metrics.avg_final,
                     "mean_forgetting": metrics.mean_forgetting(),
                     "global_objective": metrics.global_objective,
                     "pool_sizes": pool_sizes,
                     "param_count_total": pc_total})
    if out is not None:
        write_metrics_files(out, fed.mode, fed.seed, metrics, pool_sizes, pc_total)
    return RunResult(metrics=metrics, states=states, pool_sizes=pool_sizes,
                     param_count_total=pc_total)
