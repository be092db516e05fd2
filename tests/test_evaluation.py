import numpy as np
import pytest

from pfdl import evaluation, federation, nn
from pfdl.data import DataConfig
from pfdl.errors import InvariantError
from pfdl.federation import ExperimentConfig, FederationConfig


ARCH = nn.ArchSpec(input_dim=4, hidden_dims=(5,), num_classes=3)


def pool_of(n, seed0=0):
    return [nn.init_model(ARCH, seed0 + i) for i in range(n)]


def weight_matrix(pool, X):
    return evaluation.ensemble_weights(np.stack([nn.heads(m, X)[1] for m in pool], axis=1))


# ------------------------------------------------------------- weights


def test_weights_sum_to_one():
    rng = np.random.default_rng(0)
    pool = pool_of(3)
    for _ in range(50):
        W, _ = weight_matrix(pool, rng.standard_normal((1, 4)))
        w = W[0]
        assert abs(w.sum() - 1.0) < 1e-12
        assert np.all(w >= 0)


def test_single_model_weight_is_one():
    W, _ = weight_matrix(pool_of(1), np.zeros((1, 4)))
    assert W.shape == (1, 1)
    assert abs(W[0, 0] - 1.0) < 1e-15


def test_zero_scores_fall_back_to_uniform():
    pool = pool_of(3)
    for m in pool:
        # drive the aux logit to a huge negative value for any input
        m.blocks[-1][:-1] = 0.0
        m.blocks[-1][-1] = -1000.0
    W, fallbacks = weight_matrix(pool, np.zeros((2, 4)))
    assert fallbacks == 2
    assert np.allclose(W, 1.0 / 3.0)


def test_weights_proportional_to_scores():
    pool = pool_of(2)
    x = np.random.default_rng(3).standard_normal(4)
    s = np.array([float(nn.heads(m, x[None])[1][0]) for m in pool])
    W, _ = weight_matrix(pool, x[None])
    assert np.allclose(W[0], s / s.sum(), atol=1e-12)


def masked_weights(scores):
    """The boolean-mask formula: divide the rows whose score sum reaches
    ZERO_DENOM, set the others to 1/M."""
    denom = scores.sum(axis=1)
    fallback = denom < evaluation.ZERO_DENOM
    weights = np.empty_like(scores)
    ok = ~fallback
    weights[ok] = scores[ok] / denom[ok, None]
    weights[fallback] = 1.0 / scores.shape[1]
    return weights, int(fallback.sum())


def test_weights_equal_the_masked_formula_bitwise():
    scores = np.random.default_rng(9).random((7, 3))
    scores[0] = 0.0  # a zero denominator
    scores[1] = [1e-13, 2e-13, 3e-14]  # a denominator in (0, ZERO_DENOM)
    scores[2] = [0.0, 5e-324, 0.0]  # a subnormal one
    scores[3] = [1e-12, 0.0, 0.0]  # exactly ZERO_DENOM: divided
    got, fallbacks = evaluation.ensemble_weights(scores)
    want, want_fallbacks = masked_weights(scores)
    assert got.tobytes() == want.tobytes()
    assert fallbacks == want_fallbacks == 3


# ------------------------------------------------------------- predict


def test_predict_single_model_equals_softmax():
    pool = pool_of(1, seed0=5)
    rng = np.random.default_rng(1)
    for _ in range(20):
        X = rng.standard_normal((3, 4))
        P, _ = evaluation.ensemble_probs_matrix(pool, X)
        Q = nn.softmax(nn.heads(pool[0], X)[0])
        assert np.max(np.abs(P - Q)) < 1e-12


def test_predict_distribution_sums_to_one():
    pool = pool_of(4)
    rng = np.random.default_rng(2)
    P, _ = evaluation.ensemble_probs_matrix(pool, rng.standard_normal((50, 4)))
    assert np.max(np.abs(P.sum(axis=1) - 1.0)) < 1e-9
    assert np.all(P >= 0)


def test_predict_matches_naive_oracle():
    pool = pool_of(3, seed0=11)
    rng = np.random.default_rng(4)
    X = rng.standard_normal((10, 4))
    got, _ = evaluation.ensemble_probs_matrix(pool, X)
    for i in range(10):
        scores = [float(nn.heads(m, X[i][None])[1][0]) for m in pool]
        alphas = [s / sum(scores) for s in scores]
        want = np.zeros(3)
        for a, m in zip(alphas, pool):
            want += a * nn.softmax(nn.heads(m, X[i])[0][0])
        assert np.max(np.abs(got[i] - want)) < 1e-12


def test_predict_pool_order_permutation_invariant():
    pool = pool_of(3, seed0=20)
    X = np.random.default_rng(5).standard_normal((10, 4))
    a, _ = evaluation.ensemble_probs_matrix(pool, X)
    b, _ = evaluation.ensemble_probs_matrix(pool[::-1], X)
    assert np.max(np.abs(a - b)) < 1e-12


def test_empty_pool_raises():
    with pytest.raises(ValueError, match="empty pool"):
        evaluation.ensemble_probs_matrix([], np.zeros((1, 4)))


def test_memo_returns_the_same_bits_as_direct_scoring():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((40, 4))
    vanishing = pool_of(3, seed0=30)
    for m in vanishing[1:]:
        m.blocks[-1][:-1] = 0.0
        m.blocks[-1][-1] = -1000.0
    # a steep aux head: rows on its negative side fall back, the rest do not
    vanishing[0].blocks[-1][:-1, 0] = 1000.0 * rng.standard_normal(ARCH.hidden_dims[0])
    fallbacks = evaluation.ensemble_probs_matrix(vanishing, X)[1]
    assert 0 < fallbacks < len(X)
    pools = (pool_of(4, seed0=40), vanishing, pool_of(1, seed0=50))
    memo = evaluation.OutputMemo()
    for pool in pools:
        want, want_fb = evaluation.ensemble_probs_matrix(pool, X)
        keys = [(evaluation.model_digest(m), 7) for m in pool]
        for _ in range(2):  # a miss, then a hit
            got, fb = evaluation.ensemble_probs_matrix(pool, X, memo, keys)
            assert got.tobytes() == want.tobytes()
            assert fb == want_fb
    assert len(memo) == sum(len(pool) for pool in pools)


def one_at_a_time_mixture(pool, X):
    """The ensemble scored model by model: nn.heads per pool model, the
    masked weights and the mixture's einsum."""
    outputs = [nn.heads(m, X) for m in pool]
    weights, fallbacks = masked_weights(np.stack([s for _, s in outputs], axis=1))
    probs = np.stack([nn.softmax(logits) for logits, _ in outputs], axis=1)
    return np.einsum("nd,ndc->nc", weights, probs), fallbacks


def one_at_a_time_objective(cfg, states, tasks, streams, partitions):
    """_global_objective's mean CE with each mode's inference rule written
    out and every pool scored model by model; also the fallback count."""
    bind = federation.MODE_TABLE[cfg.federation.mode].bind
    num, den, fallbacks = 0.0, 0, 0
    for st in states:
        k = st.client_id
        for m, d in enumerate(streams[k]):
            rows = partitions[d][k].indices
            idx = 0 if bind == federation.BIND_ONE else st.task_bindings.get(m)
            if rows.size == 0 or not st.pool or (bind != federation.BIND_MATCH
                                                 and idx is None):
                continue
            X, y = tasks[d].train_x[rows], tasks[d].train_y[rows]
            if bind == federation.BIND_MATCH:
                probs, fb = one_at_a_time_mixture(st.pool, X)
                fallbacks += fb
            else:
                probs = nn.softmax(nn.heads(st.pool[idx], X)[0])
            p = np.clip(probs[np.arange(len(y)), y], evaluation.PROB_FLOOR, None)
            num += float(np.mean(-np.log(p))) * rows.size
            den += rows.size
    return num / den, fallbacks


# the CI's tiny config: 3 clients, 2 domains, a [10, 6] trunk
TINY_DATA = DataConfig(num_classes=3, input_dim=6, samples_per_class=40,
                       rotation_degrees=(0.0, 180.0))


@pytest.mark.parametrize("mode", federation.MODES)
def test_global_objective_equals_model_by_model_scoring_bitwise(mode):
    cfg = ExperimentConfig(
        federation=FederationConfig(num_clients=3, rounds_per_task=3,
                                    local_epochs=1, mode=mode),
        data=TINY_DATA, hidden_dims=(10, 6))
    states = federation.run_experiment(cfg).states
    _, tasks, partitions, streams = federation.build_datasets(cfg)
    # client 0's aux scores vanish on some rows: a steep first aux head on
    # the hidden units, the other models' aux heads driven to 0
    pool = states[0].pool
    rng = np.random.default_rng(10)
    for model in pool[1:]:
        model.blocks[-1][:-1] = 0.0
        model.blocks[-1][-1] = -1000.0
    pool[0].blocks[-1][:-1, 0] = 1000.0 * rng.standard_normal(cfg.hidden_dims[-1])
    pool[0].blocks[-1][-1] = 0.0
    want, fallbacks = one_at_a_time_objective(cfg, states, tasks, streams, partitions)
    got = federation._global_objective(cfg, states, tasks, streams, partitions)
    assert got == want
    if mode == "pfeddil":
        rows = sum(partitions[d][0].indices.size for d in streams[0])
        assert 0 < fallbacks < rows


def test_memo_fills_a_pools_missing_entries_in_one_pass(monkeypatch):
    X = np.random.default_rng(8).standard_normal((12, 4))
    pool = pool_of(4, seed0=60)
    pool.append(nn.clone_model(pool[2]))  # a bit-identical copy, one key
    keys = [(evaluation.model_digest(m), 0) for m in pool]
    memo = evaluation.OutputMemo()
    memo.fill(pool[:2], X, keys[:2])
    calls = []
    real = nn.stacked_heads
    monkeypatch.setattr(nn, "stacked_heads",
                        lambda models, X: calls.append(len(models)) or real(models, X))
    outputs = memo.fill(pool, X, keys)
    assert calls == [2] and len(memo) == 4
    for m, (scores, probs) in zip(pool, outputs):
        logits, want_scores = real([m], X)
        assert scores.tobytes() == want_scores[0].tobytes()
        assert probs.tobytes() == nn.softmax(logits[0]).tobytes()
    memo.fill(pool, X, keys)
    assert calls == [2]


def test_memo_retain_drops_other_digests():
    memo = evaluation.OutputMemo()
    pool = pool_of(3)
    X = np.zeros((2, 4))
    for d in (0, 1):
        memo.fill(pool, X, [(evaluation.model_digest(m), d) for m in pool])
    keep = evaluation.model_digest(pool[1])
    memo.retain({keep})
    assert sorted(memo) == [(keep, 0), (keep, 1)]


def test_accuracy_counts_argmax_hits():
    probs = np.array([[0.8, 0.1, 0.1], [0.2, 0.7, 0.1], [0.3, 0.3, 0.4]])
    assert evaluation.accuracy(probs, np.array([0, 1, 0])) == 2 / 3
    assert evaluation.accuracy(probs, np.array([0, 1, 2])) == 1.0
    # a tie goes to the first class
    assert evaluation.accuracy(np.array([[0.5, 0.5, 0.0]]), np.array([1])) == 0.0


def test_mean_ce_floors_a_zero_true_class_probability():
    probs = np.array([[0.8, 0.1, 0.1], [0.2, 0.7, 0.1], [0.3, 0.3, 0.4],
                      [0.0, 0.5, 0.5]])
    y = np.array([0, 1, 0, 0])
    want = -(np.log(0.8) + np.log(0.7) + np.log(0.3)
             + np.log(evaluation.PROB_FLOOR)) / 4
    assert abs(evaluation.mean_ce(probs, y) - want) < 1e-12
    assert abs(evaluation.mean_ce(probs[:3], y[:3])
               + (np.log(0.8) + np.log(0.7) + np.log(0.3)) / 3) < 1e-12


# ------------------------------------------------------------- metrics


def test_metrics_single_cell():
    acc = np.full((2, 1, 1), np.nan)
    acc[0, 0, 0] = 0.9
    acc[1, 0, 0] = 0.7
    w = np.zeros((2, 1, 1))
    w[:, 0, 0] = [100, 300]
    mm = evaluation.build_metrics(acc, w)
    assert mm.acc.shape == (1, 1)
    assert abs(mm.acc[0, 0] - (0.9 * 100 + 0.7 * 300) / 400) < 1e-12
    assert abs(mm.avg_final - mm.acc[0, 0]) < 1e-12
    assert mm.forgetting[0] == 0.0


def test_metrics_forgetting_definition():
    # one client, 3 tasks, hand-built grid
    A = np.array([[0.9, np.nan, np.nan],
                  [0.8, 0.95, np.nan],
                  [0.6, 0.85, 0.99]])
    acc = A[None, :, :]
    w = np.where(np.isnan(A), 0.0, 1.0)[None, :, :]
    mm = evaluation.build_metrics(acc, w)
    assert abs(mm.forgetting[0] - (0.9 - 0.6)) < 1e-12
    assert abs(mm.forgetting[1] - (0.95 - 0.85)) < 1e-12
    assert mm.forgetting[2] == 0.0  # final task never exceeds itself
    assert abs(mm.avg_final - np.mean([0.6, 0.85, 0.99])) < 1e-12
    assert np.allclose(mm.diag, [0.9, 0.95, 0.99])


def test_metrics_missing_cell_raises():
    acc = np.full((1, 2, 2), np.nan)
    w = np.zeros((1, 2, 2))
    acc[0, 0, 0] = 0.5
    w[0, 0, 0] = 1.0
    with pytest.raises(InvariantError):
        evaluation.build_metrics(acc, w)
