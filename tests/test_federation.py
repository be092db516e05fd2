import json
from dataclasses import replace

import numpy as np
import pytest

from pfdl import config, evaluation, federation, nn
from pfdl.client import ClientState, LocalUpdate
from pfdl.data import DataConfig
from pfdl.errors import ConfigError, InvariantError
from pfdl.federation import (ExperimentConfig, FederationConfig, aggregate,
                             run_experiment, run_task, sample_clients)
from pfdl.persist import EventLog, canonical_json, sha256_hex
from pfdl.seeding import TAG_INIT, rng_for
from pfdl.serialize import load_client_state

ARCH = nn.ArchSpec(input_dim=4, hidden_dims=(6,), num_classes=3)

SMALL_DATA = DataConfig(num_classes=3, input_dim=6, samples_per_class=60,
                        rotation_degrees=(0.0, 120.0), domain_noise_sigma=0.1)


def read_events(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def small_cfg(mode="pfeddil", seed=3, **fed_kw):
    fed = dict(num_clients=3, active_fraction=0.5, rounds_per_task=4,
               local_epochs=2, batch_size=16, mode=mode, seed=seed)
    fed.update(fed_kw)
    return ExperimentConfig(federation=FederationConfig(**fed),
                            data=SMALL_DATA, hidden_dims=(12, 6))


# ------------------------------------------------------------- sampling


def test_sample_sizes():
    rng = rng_for(0, 99)
    assert len(sample_clients(20, 0.4, rng)) == 8
    assert len(sample_clients(10, 0.4, rng)) == 4
    assert len(sample_clients(5, 0.1, rng)) == 1  # clamped up to one


def test_sample_without_replacement_and_sorted():
    for seed in range(30):
        picked = sample_clients(9, 0.6, rng_for(seed, 1))
        assert len(set(picked)) == len(picked) == 5
        assert picked == sorted(picked)
        assert all(0 <= k < 9 for k in picked)


def test_sample_deterministic_for_same_rng_stream():
    a = sample_clients(12, 0.5, rng_for(7, 4, 2))
    b = sample_clients(12, 0.5, rng_for(7, 4, 2))
    assert a == b


# ------------------------------------------------------------- aggregate


def constant_update(client_id, value, n):
    arch = nn.ArchSpec(input_dim=1, hidden_dims=(1,), num_classes=1)
    m = nn.init_model(arch, 0)
    m.params[:] = value
    return LocalUpdate(client_id=client_id, parameters=m, num_samples=n, train_loss=0.0)


def test_aggregate_weighted_mean_hand_case():
    out = aggregate([constant_update(0, 1.0, 10), constant_update(1, 3.0, 30)])
    assert np.all(out.params == 2.5)  # 0.25*1 + 0.75*3, exact in binary floating point


def test_aggregate_idempotent_on_identical_payloads():
    u1 = constant_update(0, 0.7312589, 5)
    u2 = constant_update(1, 0.7312589, 5)
    out = aggregate([u1, u2])
    assert np.array_equal(out.params, u1.parameters.params)


def test_aggregate_single_update_is_identity():
    u = LocalUpdate(0, nn.init_model(ARCH, 12), num_samples=17, train_loss=0.0)
    out = aggregate([u])
    assert np.array_equal(out.params, u.parameters.params)


def naive_weighted_mean(updates):
    total = sum(u.num_samples for u in updates)
    flats = [u.parameters.params.copy() for u in updates]
    acc = np.zeros_like(flats[0])
    for u, f in zip(updates, flats):
        acc += (u.num_samples / total) * f
    return acc


def test_aggregate_matches_naive_oracle():
    rng = np.random.default_rng(5)
    for trial in range(20):
        updates = []
        for k in range(int(rng.integers(2, 6))):
            m = nn.init_model(ARCH, [trial, k])
            m.params += rng.standard_normal(m.params.shape)
            updates.append(LocalUpdate(k, m, num_samples=int(rng.integers(1, 50)), train_loss=0.0))
        got = aggregate(updates).params.copy()
        want = naive_weighted_mean(updates)
        assert np.max(np.abs(got - want)) < 1e-12


def test_aggregate_order_invariant():
    rng = np.random.default_rng(8)
    updates = []
    for k in range(4):
        m = nn.init_model(ARCH, k)
        updates.append(LocalUpdate(k, m, num_samples=int(rng.integers(1, 30)), train_loss=0.0))
    a = aggregate(updates).params.copy()
    b = aggregate(list(reversed(updates))).params.copy()
    assert np.array_equal(a, b)


def test_aggregate_affine_equivariance():
    rng = np.random.default_rng(11)
    updates, shifted = [], []
    scale, shift = 1.7, -0.3
    for k in range(3):
        m = nn.init_model(ARCH, [100, k])
        ms = nn.clone_model(m)
        ms.params *= scale
        ms.params += shift
        n = int(rng.integers(1, 40))
        updates.append(LocalUpdate(k, m, num_samples=n, train_loss=0.0))
        shifted.append(LocalUpdate(k, ms, num_samples=n, train_loss=0.0))
    base = aggregate(updates).params.copy()
    got = aggregate(shifted).params.copy()
    assert np.max(np.abs(got - (scale * base + shift))) < 1e-12


def test_aggregate_rejects_empty_and_mismatched():
    with pytest.raises(InvariantError):
        aggregate([])
    other = nn.ArchSpec(input_dim=4, hidden_dims=(5,), num_classes=3)
    with pytest.raises(InvariantError):
        aggregate([LocalUpdate(0, nn.init_model(ARCH, 0), 3, 0.0),
                   LocalUpdate(1, nn.init_model(other, 0), 3, 0.0)])


def test_aggregate_conserves_sample_weight():
    # weights are num_samples / total; a constant-parameter pool must stay put
    updates = [constant_update(k, 4.25, n) for k, n in enumerate([3, 11, 6])]
    out = aggregate(updates)
    assert np.max(np.abs(out.params - 4.25)) < 1e-15


# ------------------------------------------------------------- run_task


def test_run_task_emits_one_round_record_per_round(tmp_path):
    cfg = small_cfg(rounds_per_task=6)
    run_experiment(cfg, out_dir=tmp_path)
    rounds = [r for r in read_events(tmp_path / "events.jsonl") if r["type"] == "round"]
    assert len(rounds) == 6 * 2  # two domains
    for t in (0, 1):
        assert [r["round"] for r in rounds if r["task"] == t] == list(range(6))
    for r in rounds:
        assert set(r) == {"type", "round", "task", "mode", "sampled_clients",
                          "train_loss_mean", "global_param_norm"}


def test_run_task_single_client_equals_its_update():
    cfg = small_cfg(num_clients=1, active_fraction=1.0, rounds_per_task=1)
    data_seed, tasks, partitions, streams = federation.build_datasets(cfg)
    state = ClientState(client_id=0)
    X = tasks[0].train_x[partitions[0][0].indices]
    y = tasks[0].train_y[partitions[0][0].indices]
    federation._begin_task(cfg, state, X, 0)
    global_model = run_task(cfg, [state], [(X, y)], 0, EventLog())
    # with one client the aggregate is that client's trained parameters
    assert np.array_equal(global_model.params, state.pool[0].params)


def test_batch_size_beyond_every_shard_only_caps_the_rows(tmp_path, monkeypatch):
    # a batch never outgrows its shard, so a batch_size beyond the largest
    # shard trains exactly as that shard size does, and the lockstep
    # workspace is sized by the shards, not by batch_size
    rows = []

    class Recording(nn.Workspace):
        def __init__(self, arch, clients, n_rows, labelled):
            rows.append(n_rows)
            super().__init__(arch, clients, n_rows, labelled)

    monkeypatch.setattr(nn, "Workspace", Recording)
    _, tasks, partitions, _ = federation.build_datasets(small_cfg())
    largest = max(p.indices.size for parts in partitions for p in parts)
    run_experiment(small_cfg(batch_size=largest), out_dir=tmp_path / "a")
    assert rows and max(rows) == 2 * largest
    run_experiment(small_cfg(batch_size=10**9), out_dir=tmp_path / "b")
    assert max(rows) == 2 * largest
    for name in ("metrics.csv", "events.jsonl"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_all_inactive_round_warns_and_carries_on(tmp_path):
    cfg = small_cfg(num_clients=1, active_fraction=1.0, rounds_per_task=3)
    state = ClientState(client_id=0)
    federation._begin_task(cfg, state, np.zeros((0, 6)), 0)
    assert state.task_bindings == {}
    with EventLog(tmp_path / "events.jsonl") as events:
        assert run_task(cfg, [state], [(np.zeros((0, 6)), np.zeros(0, dtype=int))],
                        0, events) is None
    records = read_events(tmp_path / "events.jsonl")
    warnings = [r for r in records if r["type"] == "warning"]
    assert len(warnings) == 3
    assert all(w["reason"] == "no_active_clients_sampled" for w in warnings)
    for r in [r for r in records if r["type"] == "round"]:
        assert r["train_loss_mean"] is None
        assert r["global_param_norm"] is None


def test_final_global_broadcast_to_all_bound_models():
    cfg = small_cfg(mode="fedavg", num_clients=3, active_fraction=0.34)
    data_seed, tasks, partitions, streams = federation.build_datasets(cfg)
    states = [ClientState(client_id=k) for k in range(3)]
    shard_data = []
    for k in range(3):
        rows = partitions[0][k].indices
        shard_data.append((tasks[0].train_x[rows], tasks[0].train_y[rows]))
        federation._begin_task(cfg, states[k], shard_data[k][0], 0)
    global_model = run_task(cfg, states, shard_data, 0, EventLog())
    for st in states:
        if 0 in st.task_bindings:
            assert np.array_equal(st.pool[0].params, global_model.params)


# ------------------------------------------------------------- modes


def test_lambda_zero_matches_fedavg_trajectories(global_trajectory):
    res, a = global_trajectory(small_cfg(mode="pfeddil", lam=0.0))
    _, b = global_trajectory(small_cfg(mode="fedavg"))
    assert len(a) == len(b) > 0
    for (t1, r1, v1), (t2, r2, v2) in zip(a, b):
        assert (t1, r1) == (t2, r2)
        assert np.max(np.abs(v1 - v2)) < 1e-9
    assert res.pool_sizes == [1, 1, 1]


def test_source_only_frozen_after_first_task(tmp_path):
    res = run_experiment(small_cfg(mode="source_only"), out_dir=tmp_path)
    rounds = [r for r in read_events(tmp_path / "events.jsonl") if r["type"] == "round"]
    assert {r["task"] for r in rounds} == {0}  # no training past the first task
    assert all(len(st.pool) <= 1 for st in res.states)


def test_disjoint_stores_one_model_per_domain():
    res = run_experiment(small_cfg(mode="disjoint"))
    for st in res.states:
        if 1 in st.task_bindings:
            assert len(st.pool) == 2
            assert sorted(st.task_bindings) == [0, 1]
            assert len(set(st.task_bindings.values())) == 2


def test_sharing_entries_share_trunk_and_aux_values(tmp_path):
    # after every task, each pool entry equals the bound model off the
    # class head, and no two entries carry the same class head
    cfg = replace(small_cfg(mode="sharing"),
                  data=replace(SMALL_DATA, rotation_degrees=(0.0, 120.0, 240.0)))
    run_experiment(cfg, out_dir=tmp_path)
    lo, hi = cfg.arch().cls_head_span()
    largest = 0
    for t in range(3):
        for k in range(cfg.federation.num_clients):
            st = load_client_state(
                tmp_path / "checkpoints" / f"task_{t:02d}" / f"client_{k:03d}.state",
                cfg.arch(), k, t)
            if not st.pool:
                continue
            largest = max(largest, len(st.pool))
            ref = st.pool[st.task_bindings.get(t, 0)].params
            for i, model in enumerate(st.pool):
                assert np.array_equal(model.params[:lo], ref[:lo])
                assert np.array_equal(model.params[hi:], ref[hi:])
                for other in st.pool[i + 1:]:
                    assert not np.array_equal(model.params[lo:hi], other.params[lo:hi])
    assert largest == 3


def test_sharing_begin_task_redraws_only_the_class_head():
    # a new sharing entry is the last entry bit for bit off the class head,
    # which is the client's init-seed Glorot draw over a zero bias
    cfg = small_cfg(mode="sharing")
    arch, fed = cfg.arch(), cfg.federation
    rng = np.random.default_rng(8)
    st = ClientState(client_id=2)
    st.pool = [nn.init_model(arch, s) for s in (1, 2)]
    for model in st.pool:
        model.params += rng.standard_normal(model.params.size)
    last = st.pool[-1].params.copy()
    assert federation._begin_task(cfg, st, np.ones((5, arch.input_dim)), 4) is None
    assert len(st.pool) == 3 and st.task_bindings == {4: 2}
    new = st.pool[-1].params
    assert st.pool[1].params.tobytes() == last.tobytes()
    lo, hi = arch.cls_head_span()
    assert new[:lo].tobytes() == last[:lo].tobytes()
    assert new[hi:].tobytes() == last[hi:].tobytes()
    C, h = arch.num_classes, arch.hidden_dims[-1]
    limit = np.sqrt(6.0 / (h + C))
    draw = rng_for(fed.seed, TAG_INIT, 2, 4).uniform(-limit, limit, size=(C, h))
    head = new[lo:hi].reshape(h + 1, C)  # [W^T; b]
    assert head[:-1].T.tobytes() == draw.tobytes()
    assert np.all(head[-1] == 0.0)


# two clients, two shuffled domains: seed 2 gives neither client rows at
# stream position 0, seed 9 neither at position 1
UNHELD = {"clients": 2, "alpha": 0.001, "rounds_per_task": 1, "local_epochs": 1,
          "data": {"num_classes": 2, "input_dim": 4, "samples_per_class": 10,
                   "rotation_degrees": [0, 180], "stream_mode": "shuffled"}}


@pytest.mark.parametrize("mode", federation.MODES)
@pytest.mark.parametrize("seed, position", [(2, 0), (9, 1)])
def test_a_stream_position_without_training_rows_is_a_config_error(mode, seed, position):
    # a metrics cell must have a client that evaluates it: a pool carried
    # across tasks needs rows at the first position, per-task pools at every one
    cfg = config.parse_config(dict(UNHELD, mode=mode, seed=seed))
    if position == 0 or federation.MODE_TABLE[mode].bind == federation.BIND_PER_TASK:
        with pytest.raises(ConfigError, match=f"stream position {position}"):
            run_experiment(cfg)
    else:
        assert np.isfinite(run_experiment(cfg).metrics.avg_final)


def test_sharing_param_count_is_trunk_plus_heads():
    cfg = small_cfg(mode="sharing")
    res = run_experiment(cfg)
    arch = cfg.arch()
    trunk_aux = arch.param_count() - (arch.num_classes * arch.hidden_dims[-1]
                                      + arch.num_classes)
    head = arch.num_classes * arch.hidden_dims[-1] + arch.num_classes
    expect = sum(trunk_aux + head * len(st.pool) for st in res.states if st.pool)
    assert res.param_count_total == expect


@pytest.mark.parametrize("mode", [m for m in federation.MODES
                                  if not federation.MODE_TABLE[m].sharing])
def test_param_count_is_pool_models_times_params(mode):
    # the other four modes store every pool model whole
    cfg = small_cfg(mode=mode)
    res = run_experiment(cfg)
    stored = sum(len(st.pool) for st in res.states)
    assert stored > 0
    assert res.param_count_total == stored * cfg.arch().param_count()


def test_divergent_round_raises_and_closes_the_event_log(tmp_path, monkeypatch):
    handles = []

    class RecordingLog(EventLog):
        def __init__(self, path=None):
            super().__init__(path)
            handles.append(self._fh)

    monkeypatch.setattr(federation, "EventLog", RecordingLog)
    with pytest.raises(InvariantError, match=r"client 1, task 0, round 0: local train loss"):
        run_experiment(small_cfg(lr=1e6), out_dir=tmp_path)
    assert len(handles) == 1 and handles[0].closed


# ------------------------------------------------------------- output memo


def _memo_free_grid(cfg, states, tasks, streams, n):
    """Row n of every client's accuracy grid and the eval's fallback count,
    scored client by client with neither the output memo nor shared cells."""
    mode = federation.MODE_TABLE[cfg.federation.mode]
    grid = np.full((len(states), n + 1, n + 1), np.nan)
    fallbacks = 0
    for st in states:
        for m in range(n + 1):
            ds = tasks[streams[st.client_id][m]]
            probs, fb = federation._client_task_probs(mode, st, ds.test_x, m)
            if probs is not None:
                grid[st.client_id, n, m] = evaluation.accuracy(probs, ds.test_y)
                fallbacks += fb
    return grid, fallbacks


@pytest.mark.parametrize("mode", ["pfeddil", "fedavg", "disjoint"])
def test_memo_sees_a_model_changed_in_place(mode):
    cfg = small_cfg(mode=mode)
    res = run_experiment(cfg)
    _, tasks, _, streams = federation.build_datasets(cfg)
    states, n = res.states, 1
    # clients 0 and 1 hold bit-identical models (separate objects)
    for a, b in zip(states[0].pool, states[1].pool):
        np.copyto(b.params, a.params)
        assert a is not b and a.params.tobytes() == b.params.tobytes()
    memo = evaluation.OutputMemo()
    grid = np.full((3, 2, 2), np.nan)
    w_grid = np.zeros((3, 2, 2))
    federation._evaluate_after_task(cfg, states, tasks, streams, n, grid,
                                    w_grid, EventLog(), memo)
    before = grid.copy()
    for model in states[0].pool:
        model.params[...] = nn.init_model(cfg.arch(), [5, 5]).params
    federation._evaluate_after_task(cfg, states, tasks, streams, n, grid,
                                    w_grid, EventLog(), memo)
    want, _ = _memo_free_grid(cfg, states, tasks, streams, n)
    assert np.array_equal(grid[:, n], want[:, n], equal_nan=True)
    assert not np.array_equal(grid[0, n], before[0, n])
    assert np.array_equal(grid[1, n], before[1, n])


def test_memo_holds_only_models_some_pool_holds(monkeypatch):
    memos, live = [], []
    evaluate = federation._evaluate_after_task

    def recording(cfg, states, *args):
        evaluate(cfg, states, *args)
        memos.append(args[-1])
        live.append({evaluation.model_digest(m) for st in states for m in st.pool})

    monkeypatch.setattr(federation, "_evaluate_after_task", recording)
    run_experiment(replace(small_cfg(rounds_per_task=2),
                           data=replace(SMALL_DATA, rotation_degrees=(0.0, 120.0, 240.0))))
    assert len(memos) == 3 and all(memo is memos[0] for memo in memos)
    memo_digests = {digest for digest, _ in memos[0]}
    assert memo_digests and memo_digests <= live[-1]
    # the run changed models that an earlier eval had scored
    assert set().union(*live[:-1]) - live[-1]


def test_each_distinct_model_is_hashed_once_per_eval(monkeypatch):
    cfg = small_cfg(mode="fedavg", num_clients=6)
    _, tasks, _, streams = federation.build_datasets(cfg)
    base = nn.init_model(cfg.arch(), [7])
    mid = base.params.size // 2
    nudged, plus, minus = (nn.clone_model(base) for _ in range(3))
    nudged.params[mid] = np.nextafter(base.params[mid], np.inf)
    plus.params[mid] = 0.0
    minus.params[mid] = -0.0  # np.array_equal calls it equal to plus
    models = [base, nudged, plus, minus, nn.clone_model(base), nn.clone_model(plus)]
    states = [ClientState(client_id=k, pool=[m]) for k, m in enumerate(models)]
    want, _ = _memo_free_grid(cfg, states, tasks, streams, 0)
    digest, score = evaluation.model_digest, federation._client_task_probs
    hashed, scored = [], []
    monkeypatch.setattr(evaluation, "model_digest",
                        lambda m: hashed.append(m) or digest(m))
    monkeypatch.setattr(federation, "_client_task_probs",
                        lambda mode, st, *a: scored.append(st) or score(mode, st, *a))
    memo = evaluation.OutputMemo()
    grid, w_grid = np.full((6, 1, 1), np.nan), np.zeros((6, 1, 1))
    federation._evaluate_after_task(cfg, states, tasks, streams, 0, grid, w_grid,
                                    EventLog(), memo)
    # the copies of base and plus are not hashed, the four distinct models are
    assert hashed == models[:4]
    assert [st.pool[0] for st in scored] == models[:4]
    assert {key for key, _ in memo} == {digest(m) for m in models[:4]}
    assert len({digest(m) for m in models}) == 4
    assert np.array_equal(grid[:, 0], want[:, 0], equal_nan=True)


THREE_DOMAINS = replace(SMALL_DATA, rotation_degrees=(0.0, 120.0, 240.0))


@pytest.mark.parametrize("stream_mode", ["synchronized", "shuffled"])
@pytest.mark.parametrize("mode", federation.MODES)
def test_shared_cells_equal_per_client_scoring(monkeypatch, tmp_path, mode, stream_mode):
    cfg = replace(small_cfg(mode=mode),
                  data=replace(THREE_DOMAINS, stream_mode=stream_mode))
    evaluate = federation._evaluate_after_task
    checked, crossed = [], []

    def checking(cfg, states, tasks, streams, n, acc_grid, w_grid, events, memo):
        path = tmp_path / f"eval_{n}.jsonl"
        with EventLog(path) as log:
            evaluate(cfg, states, tasks, streams, n, acc_grid, w_grid, log, memo)
        want, fallbacks = _memo_free_grid(cfg, states, tasks, streams, n)
        assert np.array_equal(acc_grid[:, n, :n + 1], want[:, n], equal_nan=True)
        assert read_events(path)[-1]["uniform_fallbacks"] == fallbacks
        checked.append(n)
        # clients with bit-identical pools that see different datasets at
        # one stream position: a cell keyed by position would mix them up
        pools = [[evaluation.model_digest(m) for m in st.pool] for st in states]
        crossed.extend(
            (a, b, m) for a in range(len(states)) for b in range(a)
            if pools[a] and pools[a] == pools[b]
            for m in range(n + 1) if streams[a][m] != streams[b][m])

    monkeypatch.setattr(federation, "_evaluate_after_task", checking)
    run_experiment(cfg)
    assert checked == [0, 1, 2]
    assert bool(crossed) == (stream_mode == "shuffled")


@pytest.mark.parametrize("stream_mode", ["synchronized", "shuffled"])
def test_each_eval_mixes_each_distinct_pool_and_dataset_once(monkeypatch, stream_mode):
    # lambda 1 adds a model on every task and every client trains in every
    # round, so after each final broadcast all clients hold the same pool
    cfg = replace(small_cfg(lam=1.0, active_fraction=1.0),
                  data=replace(THREE_DOMAINS, stream_mode=stream_mode))
    ensemble = federation.ensemble_probs_matrix
    evaluate = federation._evaluate_after_task
    calls, counts = [], []

    def counting(pool, X, *args):
        calls.append(len(pool))
        return ensemble(pool, X, *args)

    def counted(cfg, states, tasks, streams, n, *args):
        pools = {tuple(evaluation.model_digest(m) for m in st.pool) for st in states}
        assert len(pools) == 1 and len(*pools) == n + 1
        cells = {(streams[st.client_id][m], *pools) for st in states
                 for m in range(n + 1)}
        before = len(calls)
        evaluate(cfg, states, tasks, streams, n, *args)
        counts.append((len(calls) - before, len(cells)))

    monkeypatch.setattr(federation, "ensemble_probs_matrix", counting)
    monkeypatch.setattr(federation, "_evaluate_after_task", counted)
    run_experiment(cfg)
    assert len(counts) == 3
    assert all(made == cells for made, cells in counts)
    clients = cfg.federation.num_clients
    assert sum(made for made, _ in counts) < clients * (1 + 2 + 3)


def test_unknown_mode_rejected():
    with pytest.raises(ConfigError, match="mode"):
        run_experiment(small_cfg(mode="fedprox"))


# ------------------------------------------------------------- artifacts


def test_run_writes_everything_the_manifest_declares(tmp_path):
    cfg = small_cfg(rounds_per_task=2, local_epochs=1)
    out = tmp_path / "run"
    run_experiment(cfg, out_dir=out)
    man = json.loads((out / "manifest.json").read_text())
    on_disk = {str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()}
    assert man["outputs"] == sorted(on_disk)
    assert man["config"]["mode"] == "pfeddil"
    assert man["config_hash"] == sha256_hex(canonical_json(cfg.to_dict()))
    assert man["data_manifest_hash"]
    assert man["seeds"] == {"experiment": 3, "data": 3}


def test_rerun_is_byte_identical(tmp_path):
    cfg = small_cfg(rounds_per_task=2, local_epochs=1)
    run_experiment(cfg, out_dir=tmp_path / "a")
    run_experiment(cfg, out_dir=tmp_path / "b")
    for name in ("metrics.csv", "summary.csv", "metrics.json", "events.jsonl"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_threads_other_than_one_are_rejected():
    with pytest.raises(ValueError, match="threads must be 1"):
        run_experiment(small_cfg(), threads=2)


def test_metrics_accuracies_in_unit_interval():
    res = run_experiment(small_cfg())
    acc = res.metrics.acc
    for n in range(2):
        for m in range(n + 1):
            assert 0.0 <= acc[n, m] <= 1.0
    assert res.metrics.global_objective > 0
