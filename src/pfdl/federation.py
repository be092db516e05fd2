"""Server-side orchestration: client sampling, broadcast, aggregation, the
per-task round schedule, and the reference baselines run under one harness.

Every mode shares the same local training procedure (joint CE + auxiliary
BCE), the same sampling schedule, and the same aggregation rule. Modes
differ only in how a client picks the model to train when a task arrives
and in the inference rule applied at evaluation time:

  pfeddil      matching-driven reuse/new decision, migration anchors,
               weighted-ensemble inference over the whole pool
  fedavg       one model carried through every task, single-model inference
  source_only  like fedavg but frozen after the first task
  disjoint     a fresh model per task, task id known at inference
  sharing      one trunk + auxiliary head shared by every pool entry, a
               fresh class head per task, task id known at inference
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, client, nn
from .data import (DataConfig, HeterogeneityConfig, apply_domain,
                   build_task_stream, dirichlet_partition, domain_to_dict,
                   make_base_dataset, make_rotation_domains)
from .errors import ConfigError, InvariantError
from .evaluation import (MetricsMatrix, accuracy_and_ce, build_metrics,
                         ensemble_probs_matrix)
from .matching import NegativeSynthesisSpec
from .persist import (EventLog, canonical_json, sha256_hex, summary_row,
                      write_manifest, write_metrics_csv, write_metrics_json,
                      write_summary_csv)
from .seeding import TAG_INIT, TAG_SAMPLE, TAG_TRAIN, rng_for
from .serialize import save_client_state, save_dataset

MODE_PFEDDIL = "pfeddil"
MODE_FEDAVG = "fedavg"
MODE_SOURCE_ONLY = "source_only"
MODE_DISJOINT = "disjoint"
MODE_SHARING = "sharing"
MODES = (MODE_PFEDDIL, MODE_FEDAVG, MODE_SOURCE_ONLY, MODE_DISJOINT, MODE_SHARING)


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
    mode: str = MODE_PFEDDIL
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
        fed = self.federation
        return {
            "mode": fed.mode,
            "seed": fed.seed,
            "clients": fed.num_clients,
            "active_fraction": fed.active_fraction,
            "rounds_per_task": fed.rounds_per_task,
            "local_epochs": fed.local_epochs,
            "batch_size": fed.batch_size,
            "lr": fed.lr,
            "weight_decay": fed.weight_decay,
            "lambda": fed.lam,
            "alpha": fed.alpha,
            "max_pool_size": fed.max_pool_size,
            "km_include_self": fed.km_include_self,
            "data": self.data.to_dict(),
            "arch": {"hidden_dims": [int(h) for h in self.hidden_dims]},
            "negatives": {"noise_sigma_scale": self.negatives.noise_sigma_scale,
                          "permute_fraction": self.negatives.permute_fraction},
        }


@dataclass
class GlobalModelSlot:
    """The current task's federated parameters; one active slot at a time."""

    task_id: int
    parameters: nn.PersonalModel | None = None
    round: int = -1


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
    """Per-mode policy for binding a model to a new task.

    Returns the MatchingReport for pfeddil clients, None otherwise. A
    client with an empty shard sits the task out in every mode.
    """
    fed = cfg.federation
    init_seed = [fed.seed, TAG_INIT, state.client_id, task_pos]
    if fed.mode == MODE_PFEDDIL:
        return client.begin_task(state, shard_x, task_pos, fed.lam,
                                 fed.max_pool_size, cfg.arch(), init_seed,
                                 km_include_self=fed.km_include_self)

    state.current_task = task_pos
    state.pool_snapshots = np.zeros((0, 0))
    state.snapshot_rho = np.zeros(0)
    if shard_x.shape[0] == 0:
        state.active = False
        return None
    state.active = True
    arch = cfg.arch()
    if fed.mode in (MODE_FEDAVG, MODE_SOURCE_ONLY):
        if not state.pool:
            state.pool.append(nn.init_model(arch, init_seed))
        state.task_bindings[task_pos] = 0
    elif fed.mode == MODE_DISJOINT:
        state.pool.append(nn.init_model(arch, init_seed))
        state.task_bindings[task_pos] = len(state.pool) - 1
    elif fed.mode == MODE_SHARING:
        if not state.pool:
            state.pool.append(nn.init_model(arch, init_seed))
        else:
            # the shared trunk and aux head, under a fresh class head
            model = nn.clone_model(state.pool[-1])
            model.cls_head.weights[...] = nn.glorot_uniform(
                rng_for(*init_seed), arch.num_classes, arch.hidden_dims[-1])
            model.cls_head.bias[...] = 0.0
            state.pool.append(model)
        state.task_bindings[task_pos] = len(state.pool) - 1
    else:
        raise ConfigError(f"unknown mode {fed.mode!r}")
    return None


# ------------------------------------------------------------ round loop


def run_task(cfg: ExperimentConfig, states, shard_data, task_pos: int,
             slot: GlobalModelSlot, events: EventLog, threads: int = 1,
             trajectory: list | None = None) -> None:
    """T rounds of sample -> broadcast -> local train -> aggregate.

    The first round of a task has no broadcast, so clients train from
    their strategy-selected parameters and the reuse/new decision has
    teeth. A round in which every sampled client is inactive carries the
    previous global forward and logs a warning. After the last round the
    final global overwrites every bound model.
    """
    fed = cfg.federation
    for rnd in range(fed.rounds_per_task):
        rng = rng_for(fed.seed, TAG_SAMPLE, task_pos, rnd)
        sampled = sample_clients(fed.num_clients, fed.active_fraction, rng)
        broadcast = slot.parameters  # None until the first aggregation

        def _train(k: int):
            X, y = shard_data[k]
            return client.local_train_round(
                states[k], broadcast, X, y, task_id=task_pos,
                epochs=fed.local_epochs, lr=fed.lr,
                weight_decay=fed.weight_decay, batch_size=fed.batch_size,
                neg_spec=cfg.negatives,
                round_entropy=(fed.seed, TAG_TRAIN, k, task_pos, rnd))

        if threads > 1:
            with ThreadPoolExecutor(max_workers=min(threads, len(sampled))) as ex:
                results = list(ex.map(_train, sampled))
        else:
            results = [_train(k) for k in sampled]
        updates = [u for u in results if u is not None]

        if updates:
            for u in updates:
                if not np.isfinite(u.train_loss):
                    raise InvariantError(
                        f"client {u.client_id}, task {task_pos}, round {rnd}: "
                        f"local train loss is {u.train_loss}")
            slot.parameters = aggregate(updates)
            # not finite when a parameter is, or when their squares overflow
            norm = float(np.linalg.norm(slot.parameters.params))
            if not np.isfinite(norm):
                raise InvariantError(
                    f"clients {[u.client_id for u in updates]}, task {task_pos}, "
                    f"round {rnd}: the aggregate's parameter norm is {norm}")
            slot.round = rnd
            loss_mean = float(np.mean([u.train_loss for u in updates]))
        else:
            events.emit({"type": "warning", "task": task_pos, "round": rnd,
                         "reason": "no_active_clients_sampled"})
            loss_mean = None
            norm = (float(np.linalg.norm(slot.parameters.params))
                    if slot.parameters is not None else None)
        events.emit({"type": "round", "round": rnd, "task": task_pos,
                     "mode": fed.mode, "sampled_clients": sampled,
                     "train_loss_mean": loss_mean, "global_param_norm": norm})
        if trajectory is not None:
            vec = None if slot.parameters is None else nn.flatten_params(slot.parameters)
            trajectory.append((task_pos, rnd, vec))

    if slot.parameters is not None:
        lo, hi = cfg.arch().cls_head_span()
        for st in states:
            if st.active and task_pos in st.task_bindings:
                bound = st.pool[st.task_bindings[task_pos]]
                nn.copy_into(bound, slot.parameters)
                if fed.mode == MODE_SHARING:
                    # every entry carries the shared trunk and aux head
                    for model in st.pool:
                        if model is not bound:
                            model.params[:lo] = bound.params[:lo]
                            model.params[hi:] = bound.params[hi:]


# ------------------------------------------------------------ evaluation


def _client_task_probs(mode: str, state: client.ClientState, X: np.ndarray,
                       task_m: int):
    """The mode's inference rule: (probs, uniform-fallback count), or
    (None, 0) when the client cannot score this task at all."""
    if not state.pool:
        return None, 0
    if mode == MODE_PFEDDIL:
        return ensemble_probs_matrix(state.pool, X)
    if mode in (MODE_FEDAVG, MODE_SOURCE_ONLY):
        model = state.pool[0]
    else:  # disjoint / sharing know the task id at inference time
        idx = state.task_bindings.get(task_m)
        if idx is None:
            return None, 0
        model = state.pool[idx]
    return nn.softmax(nn.class_logits(model, X)), 0


def _evaluate_after_task(cfg: ExperimentConfig, states, tasks, streams,
                         n: int, acc_grid, w_grid, events: EventLog) -> None:
    """Fill row n of every client's accuracy grid (tasks 0..n)."""
    fed = cfg.federation
    fallbacks = 0
    for st in states:
        k = st.client_id
        for m in range(n + 1):
            ds = tasks[streams[k][m]]
            probs, fb = _client_task_probs(fed.mode, st, ds.test_x, m)
            if probs is None:
                continue
            fallbacks += fb
            acc, _ = accuracy_and_ce(probs, ds.test_y)
            acc_grid[k, n, m] = acc
            w_grid[k, n, m] = ds.test_y.shape[0]
    events.emit({"type": "eval", "task": n, "mode": fed.mode,
                 "uniform_fallbacks": int(fallbacks)})


def _global_objective(cfg: ExperimentConfig, states, tasks, streams,
                      partitions) -> float | None:
    """Mean cross-entropy over every client's train shards, all tasks,
    weighted by shard size and scored with the mode's inference rule."""
    fed = cfg.federation
    num, den = 0.0, 0
    for st in states:
        k = st.client_id
        for m in range(len(streams[k])):
            d = streams[k][m]
            rows = partitions[d][k].indices
            if rows.size == 0:
                continue
            probs, _ = _client_task_probs(fed.mode, st, tasks[d].train_x[rows], m)
            if probs is None:
                continue
            _, ce = accuracy_and_ce(probs, tasks[d].train_y[rows])
            num += ce * rows.size
            den += rows.size
    return num / den if den else None


def physical_param_count(states, mode: str) -> int:
    """Total stored parameters. Sharing clients hold the trunk and aux
    head once, plus one class head per pool entry."""
    total = 0
    for st in states:
        if not st.pool:
            continue
        arch = st.pool[0].arch
        if mode == MODE_SHARING:
            lo, hi = arch.cls_head_span()
            total += arch.param_count() - (hi - lo) + (hi - lo) * len(st.pool)
        else:
            total += arch.param_count() * len(st.pool)
    return total


# ------------------------------------------------------------ experiment


def build_datasets(cfg: ExperimentConfig):
    """Base draw, per-domain tasks, per-dataset partitions, task streams."""
    fed = cfg.federation
    data_seed = cfg.data.seed if cfg.data.seed is not None else fed.seed
    base = make_base_dataset(cfg.data.num_classes, cfg.data.input_dim,
                             cfg.data.samples_per_class,
                             cfg.data.class_separation, data_seed)
    domains = make_rotation_domains(cfg.data.rotation_degrees,
                                    cfg.data.domain_noise_sigma)
    tasks = [apply_domain(base, dom, t) for t, dom in enumerate(domains)]
    partitions = [dirichlet_partition(
        t, HeterogeneityConfig(fed.alpha, fed.num_clients,
                               seed=(data_seed, t.task_id)))
        for t in tasks]
    streams = build_task_stream(domains, fed.num_clients,
                                cfg.data.stream_mode, data_seed)
    return int(data_seed), tasks, partitions, streams


def data_manifest_dict(cfg: ExperimentConfig, data_seed: int, tasks) -> dict:
    return {
        "base_seed": int(data_seed),
        "num_classes": cfg.data.num_classes,
        "input_dim": cfg.data.input_dim,
        "samples_per_class": cfg.data.samples_per_class,
        "class_separation": cfg.data.class_separation,
        "stream_mode": cfg.data.stream_mode,
        "domains": [domain_to_dict(t.domain) for t in tasks],
        "train_per_task": int(tasks[0].n_train),
        "test_per_task": int(tasks[0].test_y.shape[0]),
        "files": [f"data/task_{t.task_id:02d}.bin" for t in tasks],
    }


def write_data_artifacts(out: Path, cfg: ExperimentConfig, data_seed: int,
                         tasks) -> dict:
    """Emit the task datasets and their JSON manifest; returns the dict."""
    manifest = data_manifest_dict(cfg, data_seed, tasks)
    (out / "data").mkdir(parents=True, exist_ok=True)
    for t in tasks:
        save_dataset(out / "data" / f"task_{t.task_id:02d}.bin", t)
    (out / "data" / "data_manifest.json").write_text(
        json.dumps(manifest, indent=1) + "\n")
    return manifest


@dataclass
class RunResult:
    config: ExperimentConfig
    metrics: MetricsMatrix
    events: EventLog
    states: list
    pool_sizes: list[int]
    param_count_total: int
    out_dir: Path | None = None
    trajectory: list | None = None


def run_experiment(cfg: ExperimentConfig, out_dir=None, threads: int = 1,
                   collect_trajectory: bool = False) -> RunResult:
    """One full incremental run: every task in order, T rounds each,
    evaluation after every task, artifacts to out_dir when given.

    The manifest declaring every output path is written before the first
    training round. threads > 1 parallelizes clients within a round; the
    results are identical for any worker count.
    """
    fed = cfg.federation
    if fed.mode not in MODES:
        raise ConfigError(f"unknown mode {fed.mode!r} (choose from {', '.join(MODES)})")
    threads = max(1, int(threads))
    data_seed, tasks, partitions, streams = build_datasets(cfg)
    n_tasks = len(tasks)
    K = fed.num_clients

    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        manifest = write_data_artifacts(out, cfg, data_seed, tasks)
        outputs = ["manifest.json", "events.jsonl", "metrics.csv",
                   "metrics.json", "summary.csv", "data/data_manifest.json",
                   *manifest["files"]]
        for tpos in range(n_tasks):
            for k in range(K):
                outputs.append(f"checkpoints/task_{tpos:02d}/client_{k:03d}.state")
                outputs.append(f"checkpoints/task_{tpos:02d}/client_{k:03d}.rho.json")
        write_manifest(out / "manifest.json", cfg.to_dict(),
                       sha256_hex(canonical_json(manifest)), __version__,
                       {"experiment": fed.seed, "data": data_seed}, outputs)

    states = [client.ClientState(client_id=k) for k in range(K)]
    acc_grid = np.full((K, n_tasks, n_tasks), np.nan)
    w_grid = np.zeros((K, n_tasks, n_tasks))
    trajectory: list | None = [] if collect_trajectory else None

    with EventLog(out / "events.jsonl" if out is not None else None) as events:
        for tpos in range(n_tasks):
            shard_data = []
            for k in range(K):
                d = streams[k][tpos]
                rows = partitions[d][k].indices
                shard_data.append((tasks[d].train_x[rows], tasks[d].train_y[rows]))

            # source_only freezes after the first task but is still evaluated
            if not (fed.mode == MODE_SOURCE_ONLY and tpos > 0):
                for k in range(K):
                    report = _begin_task(cfg, states[k], shard_data[k][0], tpos)
                    if report is not None:
                        events.emit({"type": "matching", "client": k,
                                     "task": tpos, **report.to_record()})
                slot = GlobalModelSlot(task_id=tpos)
                run_task(cfg, states, shard_data, tpos, slot, events,
                         threads=threads, trajectory=trajectory)

            _evaluate_after_task(cfg, states, tasks, streams, tpos,
                                 acc_grid, w_grid, events)
            if out is not None:
                ckpt = out / "checkpoints" / f"task_{tpos:02d}"
                for st in states:
                    save_client_state(ckpt, st)

        objective = _global_objective(cfg, states, tasks, streams, partitions)
        metrics = build_metrics(acc_grid, w_grid, global_objective=objective)
        pool_sizes = [len(st.pool) for st in states]
        pc_total = physical_param_count(states, fed.mode)
        events.emit({"type": "summary", "mode": fed.mode, "seed": fed.seed,
                     "avg_final": metrics.avg_final,
                     "mean_forgetting": metrics.mean_forgetting(),
                     "global_objective": objective,
                     "pool_sizes": pool_sizes,
                     "param_count_total": pc_total})
    if out is not None:
        write_metrics_csv(out / "metrics.csv", fed.mode, fed.seed, metrics)
        write_summary_csv(out / "summary.csv",
                          [summary_row(fed.mode, fed.seed, metrics,
                                       float(np.mean(pool_sizes)), pc_total)])
        write_metrics_json(out / "metrics.json", metrics, pool_sizes, pc_total)
    return RunResult(config=cfg, metrics=metrics, events=events, states=states,
                     pool_sizes=pool_sizes, param_count_total=pc_total,
                     out_dir=out, trajectory=trajectory)
