import numpy as np
import pytest

from pfdl import evaluation, nn
from pfdl.errors import InvariantError


ARCH = nn.ArchSpec(input_dim=4, hidden_dims=(5,), num_classes=3)


def pool_of(n, seed0=0):
    return [nn.init_model(ARCH, seed0 + i) for i in range(n)]


def weight_matrix(pool, X):
    return evaluation.ensemble_weights(np.stack([nn.aux_scores(m, X) for m in pool], axis=1))


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
        m.aux_head.weights[:] = 0.0
        m.aux_head.bias[:] = -1000.0
    W, fallbacks = weight_matrix(pool, np.zeros((2, 4)))
    assert fallbacks == 2
    assert np.allclose(W, 1.0 / 3.0)


def test_weights_proportional_to_scores():
    pool = pool_of(2)
    x = np.random.default_rng(3).standard_normal(4)
    s = np.array([float(nn.aux_scores(m, x[None])[0]) for m in pool])
    W, _ = weight_matrix(pool, x[None])
    assert np.allclose(W[0], s / s.sum(), atol=1e-12)


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
        scores = [float(nn.aux_scores(m, X[i][None])[0]) for m in pool]
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
        m.aux_head.weights[:] = 0.0
        m.aux_head.bias[:] = -1000.0
    # a steep aux head: rows on its negative side fall back, the rest do not
    vanishing[0].aux_head.weights[0, :] = 1000.0 * rng.standard_normal(ARCH.hidden_dims[0])
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


def test_memo_retain_drops_other_digests():
    memo = evaluation.OutputMemo()
    pool = pool_of(3)
    X = np.zeros((2, 4))
    for m in pool:
        for d in (0, 1):
            memo.outputs(m, X, (evaluation.model_digest(m), d))
    keep = evaluation.model_digest(pool[1])
    memo.retain({keep})
    assert sorted(memo) == [(keep, 0), (keep, 1)]


def test_accuracy_and_ce():
    probs = np.array([[0.8, 0.1, 0.1], [0.2, 0.7, 0.1], [0.3, 0.3, 0.4]])
    y = np.array([0, 1, 0])
    acc, ce = evaluation.accuracy_and_ce(probs, y)
    assert abs(acc - 2 / 3) < 1e-12
    want = -(np.log(0.8) + np.log(0.7) + np.log(0.3)) / 3
    assert abs(ce - want) < 1e-12


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
