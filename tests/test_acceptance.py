"""Release acceptance suite.

Nine numbered end-to-end checks, each asserting a quantitative bar and a
wall-clock budget. The benchmark runs are shared between checks 6 and 7
through module-scoped fixtures so the suite stays inside the budgets.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from pfdl import data, nn
from pfdl.config import benchmark_config, parse_config
from pfdl.evaluation import ensemble_probs_matrix, ensemble_weights
from pfdl.client import LocalUpdate
from pfdl.federation import aggregate, build_datasets, run_experiment
from pfdl.gradcheck import run_migration_gradcheck, run_nn_gradcheck

BENCH_SEEDS = range(5)


# ---------------------------------------------------------------- fixtures


@pytest.fixture(scope="module")
def pfeddil_runs():
    """Five seeded benchmark runs plus the task-1 auxiliary score gap
    (held-out own-domain mean minus 180-degree-domain mean, averaged
    over the clients that hold a task-1 binding)."""
    t0 = time.monotonic()
    finals, gaps = [], []
    for seed in BENCH_SEEDS:
        cfg = benchmark_config(mode="pfeddil", seed=seed)
        res = run_experiment(cfg)
        finals.append(res.metrics.avg_final)
        _, tasks, _, streams = build_datasets(cfg)
        per_client = []
        for st in res.states:
            if 0 in st.task_bindings:
                model = st.pool[st.task_bindings[0]]
                own = float(nn.aux_scores(model, tasks[streams[st.client_id][0]].test_x).mean())
                rot = float(nn.aux_scores(model, tasks[3].test_x).mean())
                per_client.append(own - rot)
        gaps.append(float(np.mean(per_client)))
    return {"finals": finals, "gaps": gaps, "elapsed": time.monotonic() - t0}


@pytest.fixture(scope="module")
def baseline_runs():
    t0 = time.monotonic()
    finals = {}
    for mode in ("fedavg", "source_only", "disjoint"):
        finals[mode] = [
            run_experiment(benchmark_config(mode=mode, seed=seed)).metrics.avg_final
            for seed in BENCH_SEEDS
        ]
    finals["elapsed"] = time.monotonic() - t0
    return finals


# ------------------------------------------------------------------ checks


def test_1_gradients_match_finite_differences():
    t0 = time.monotonic()
    err_nn = run_nn_gradcheck(100, seed=0)
    err_mig = run_migration_gradcheck(100, seed=0)
    elapsed = time.monotonic() - t0
    print(f"[1] nn max rel err {err_nn:.2e}, migration {err_mig:.2e} ({elapsed:.1f}s)")
    assert err_nn < 1e-4
    assert err_mig < 1e-4
    assert elapsed < 10.0


def test_2_zero_lambda_reduces_to_fedavg(global_trajectory):
    t0 = time.monotonic()
    base = {"clients": 3, "rounds_per_task": 5, "seed": 11, "lambda": 0.0,
            "data": {"rotation_degrees": [0.0, 180.0], "samples_per_class": 60}}
    runs = {}
    for mode in ("pfeddil", "fedavg"):
        cfg = parse_config({**base, "mode": mode})
        runs[mode] = global_trajectory(cfg)[1]
    elapsed = time.monotonic() - t0
    a, b = runs["pfeddil"], runs["fedavg"]
    assert len(a) == len(b) == 2 * 5
    worst = 0.0
    for (ta, ra, va), (tb, rb, vb) in zip(a, b):
        assert (ta, ra) == (tb, rb)
        assert (va is None) == (vb is None)
        if va is not None:
            worst = max(worst, float(np.max(np.abs(va - vb))))
    print(f"[2] max trajectory divergence {worst:.2e} over {len(a)} rounds ({elapsed:.1f}s)")
    assert worst <= 1e-9
    assert elapsed < 30.0


def test_3_unit_lambda_trains_one_model_per_domain():
    t0 = time.monotonic()
    cfg = benchmark_config(mode="pfeddil", seed=0, **{"lambda": 1.0})
    res = run_experiment(cfg)
    elapsed = time.monotonic() - t0
    for st in res.states:
        assert len(st.pool) == 4
        bound = [st.task_bindings[t] for t in sorted(st.task_bindings)]
        assert len(bound) == 4 and len(set(bound)) == 4
    print(f"[3] every client: pool of 4, four distinct bindings ({elapsed:.1f}s)")
    assert elapsed < 120.0


def test_4_ensemble_weights_are_proper_distributions():
    rng = np.random.default_rng(4)
    worst_wsum = worst_psum = worst_single = 0.0
    for case in range(1000):
        arch = nn.ArchSpec(input_dim=int(rng.integers(2, 5)),
                           hidden_dims=(int(rng.integers(3, 7)),),
                           num_classes=int(rng.integers(2, 5)))
        d = 1 if case % 5 == 0 else int(rng.integers(1, 6))
        pool = [nn.init_model(arch, [4, case, j]) for j in range(d)]
        for m in pool:
            m.params += rng.standard_normal(m.params.shape)
        x = rng.standard_normal(arch.input_dim)
        W, _ = ensemble_weights(np.stack([nn.aux_scores(m, x[None, :]) for m in pool], axis=1))
        w = W[0]
        assert np.all(w >= 0.0)
        worst_wsum = max(worst_wsum, abs(float(w.sum()) - 1.0))
        P, _ = ensemble_probs_matrix(pool, x[None, :])
        worst_psum = max(worst_psum, abs(float(P.sum()) - 1.0))
        if d == 1:
            direct = nn.softmax(nn.heads(pool[0], x[None, :])[0])
            worst_single = max(worst_single, float(np.max(np.abs(P - direct))))
    print(f"[4] weight-sum err {worst_wsum:.2e}, prob-sum err {worst_psum:.2e}, "
          f"single-model err {worst_single:.2e} over 1000 cases")
    assert worst_wsum <= 1e-9
    assert worst_psum <= 1e-9
    assert worst_single <= 1e-12


def _constant_update(cid: int, value: float, n: int, arch: nn.ArchSpec) -> LocalUpdate:
    m = nn.init_model(arch, [99, cid])
    m.params[...] = value
    return LocalUpdate(client_id=cid, parameters=m, num_samples=n)


def test_5_aggregation_matches_weighted_mean_oracle():
    arch = nn.ArchSpec(input_dim=3, hidden_dims=(4,), num_classes=2)
    merged = aggregate([_constant_update(0, 1.0, 10, arch),
                        _constant_update(1, 3.0, 30, arch)])
    flat = merged.params.copy()
    assert np.all(flat == 2.5)

    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 7))
        updates = []
        for cid in range(d):
            m = nn.init_model(arch, [5, cid])
            m.params[...] = rng.standard_normal(m.params.shape)
            updates.append(LocalUpdate(client_id=cid, parameters=m,
                                       num_samples=int(rng.integers(1, 50))))
        total = sum(u.num_samples for u in updates)
        oracle = sum(u.num_samples * u.parameters.params.copy() for u in updates) / total
        got = aggregate(updates).params.copy()
        worst = max(worst, float(np.max(np.abs(got - oracle))))
    print(f"[5] hand case exact, naive-oracle max err {worst:.2e} over 100 sets")
    assert worst <= 1e-12


def test_6_auxiliary_heads_discriminate_their_domain(pfeddil_runs):
    med = float(np.median(pfeddil_runs["gaps"]))
    print(f"[6] aux score gap per seed {[f'{g:+.3f}' for g in pfeddil_runs['gaps']]}, "
          f"median {med:+.3f} ({pfeddil_runs['elapsed']:.0f}s)")
    assert med >= 0.2
    assert pfeddil_runs["elapsed"] < 180.0


def test_7_benchmark_ordering_of_modes(pfeddil_runs, baseline_runs):
    med = {"pfeddil": float(np.median(pfeddil_runs["finals"]))}
    for mode in ("fedavg", "source_only", "disjoint"):
        med[mode] = float(np.median(baseline_runs[mode]))
    total = pfeddil_runs["elapsed"] + baseline_runs["elapsed"]
    print(f"[7] medians disjoint={med['disjoint']:.3f} >= pfeddil={med['pfeddil']:.3f} "
          f">= fedavg={med['fedavg']:.3f} >= source_only={med['source_only']:.3f} "
          f"({total:.0f}s)")
    assert med["disjoint"] >= med["pfeddil"] >= med["fedavg"] >= med["source_only"]
    assert med["pfeddil"] - med["fedavg"] >= 0.02
    assert total < 900.0


def test_8_dirichlet_partitions_are_exact_and_skewed():
    t0 = time.monotonic()
    task = data.make_base_dataset(5, 4, 200, 3.0, seed=0)
    for alpha in (0.1, 1.0, 10.0):
        shards = data.dirichlet_partition(task, alpha, 8, seed=1)
        merged = np.concatenate([s.indices for s in shards])
        assert len(merged) == task.n_train
        assert len(np.unique(merged)) == task.n_train

    conc = data.make_base_dataset(5, 4, 1000, 3.0, seed=0)
    medians = {}
    for alpha in (0.1, 10.0):
        shares = []
        for seed in range(100):
            shards = data.dirichlet_partition(conc, alpha, 2, seed=seed)
            for c in range(5):
                counts = [(conc.train_y[s.indices] == c).sum() for s in shards]
                shares.append(max(counts) / sum(counts))
        medians[alpha] = float(np.median(shares))
    elapsed = time.monotonic() - t0
    print(f"[8] median max-class share alpha=0.1: {medians[0.1]:.3f}, "
          f"alpha=10: {medians[10.0]:.3f} ({elapsed:.1f}s)")
    assert medians[0.1] > 0.9
    assert medians[10.0] < 0.65
    assert elapsed < 30.0


def test_9_runs_are_byte_deterministic_across_processes(tmp_path):
    cfg = {"mode": "pfeddil", "seed": 7, "clients": 6, "active_fraction": 0.5,
           "rounds_per_task": 4, "local_epochs": 2,
           "data": {"rotation_degrees": [0.0, 180.0], "samples_per_class": 48,
                    "input_dim": 6, "num_classes": 3},
           "arch": {"hidden_dims": [12, 8]}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))

    outputs = []
    for tag, hash_seed in (("a0", "0"), ("b0", "0"), ("a1", "1"), ("b1", "1")):
        out = tmp_path / tag
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, "-m", "pfdl", "run", "--config", str(cfg_path),
             "--out", str(out)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append(tuple((out / name).read_bytes()
                             for name in ("metrics.csv", "events.jsonl")))
    assert outputs[0] == outputs[1] == outputs[2] == outputs[3]
    print(f"[9] four processes (PYTHONHASHSEED 0,0,1,1) byte-identical "
          f"metrics.csv and events.jsonl ({sum(map(len, outputs[0]))} bytes)")
