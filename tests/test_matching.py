import numpy as np
import pytest

from pfdl import client, data, matching, nn


def make_model(seed=0, dim=6):
    arch = nn.ArchSpec(input_dim=dim, hidden_dims=(8, 6), num_classes=3)
    return nn.init_model(arch, seed)


# ------------------------------------------------------------- intensity


def test_intensity_zero_parameters_gives_half():
    m = make_model()
    m.params[:] = 0.0
    X = np.random.default_rng(0).standard_normal((10, 6))
    rho = matching.matching_intensity([m], X)
    assert rho.shape == (1,)
    assert abs(rho[0] - 0.5) < 1e-12


def test_intensity_within_unit_interval():
    rng = np.random.default_rng(1)
    pool = [make_model(s) for s in range(4)]
    X = rng.standard_normal((30, 6)) * 5
    rho = matching.matching_intensity(pool, X)
    assert rho.shape == (4,)
    assert np.all((rho >= 0.0) & (rho <= 1.0))


def test_intensity_single_sample_equals_aux_score():
    rng = np.random.default_rng(2)
    m = make_model(3)
    x = rng.standard_normal(6)
    rho = matching.matching_intensity([m], x[None, :])
    assert abs(rho[0] - nn.aux_scores(m, x[None, :])[0]) < 1e-12


def test_intensity_empty_pool():
    assert matching.matching_intensity([], np.zeros((3, 6))).shape == (0,)


def test_intensity_rejects_empty_shard():
    with pytest.raises(ValueError):
        matching.matching_intensity([make_model()], np.zeros((0, 6)))


# ------------------------------------------------------------- strategy


def test_strategy_empty_pool_new_model():
    r = matching.select_strategy(np.zeros(0), 0.5, 0, 8)
    assert r.decision == matching.DECISION_NEW
    assert r.model_index is None
    assert not r.budget_forced


def test_strategy_reuse_above_threshold():
    r = matching.select_strategy(np.array([0.2, 0.7, 0.7]), 0.5, 3, 8)
    assert r.decision == matching.DECISION_REUSE
    assert r.model_index == 1  # lowest index among ties


def test_strategy_new_model_below_threshold():
    r = matching.select_strategy(np.array([0.2, 0.3]), 0.5, 2, 8)
    assert r.decision == matching.DECISION_NEW


def test_strategy_budget_forces_reuse():
    r = matching.select_strategy(np.array([0.2, 0.4]), 0.5, 2, 2)
    assert r.decision == matching.DECISION_REUSE
    assert r.model_index == 1
    assert r.budget_forced


def test_strategy_lambda_zero_always_reuses():
    rng = np.random.default_rng(0)
    for _ in range(20):
        rho = rng.uniform(0, 1, size=rng.integers(1, 5))
        r = matching.select_strategy(rho, 0.0, len(rho), 8)
        assert r.decision == matching.DECISION_REUSE
        assert r.model_index == int(np.argmax(rho))


def test_strategy_lambda_one_new_until_budget():
    rng = np.random.default_rng(1)
    for _ in range(20):
        rho = rng.uniform(0, 0.999, size=3)
        r = matching.select_strategy(rho, 1.0, 3, 8)
        assert r.decision == matching.DECISION_NEW


def test_strategy_argmax_invariant_under_positive_rescaling():
    rng = np.random.default_rng(2)
    for _ in range(50):
        rho = rng.uniform(0.05, 1.0, size=4)
        c = float(rng.uniform(0.01, 1.0 / rho.max()))
        a = matching.select_strategy(rho, 0.0, 4, 8)
        b = matching.select_strategy(rho * c, 0.0, 4, 8)
        assert a.model_index == b.model_index


def test_strategy_validation():
    with pytest.raises(ValueError):
        matching.select_strategy(np.array([0.5]), 1.5, 1, 8)
    with pytest.raises(ValueError):
        matching.select_strategy(np.array([0.5, 0.5]), 0.5, 1, 8)
    with pytest.raises(ValueError):
        matching.select_strategy(np.array([0.5]), 0.5, 1, 0)


# ------------------------------------------------------------- negatives


def test_negative_synthesis_shapes_and_determinism():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((12, 5))
    std = X.std(axis=0)
    spec = matching.NegativeSynthesisSpec()
    a = matching.synthesize_negatives(X, std, spec, np.random.default_rng(7))
    b = matching.synthesize_negatives(X, std, spec, np.random.default_rng(7))
    assert a.shape == X.shape
    assert np.array_equal(a, b)


def test_negative_synthesis_pure_permutation_keeps_values():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((8, 5))
    spec = matching.NegativeSynthesisSpec(permute_fraction=1.0)
    neg = matching.synthesize_negatives(X, X.std(axis=0), spec, rng)
    for i in range(8):
        assert np.allclose(np.sort(neg[i]), np.sort(X[i]))


def test_negative_synthesis_pure_noise_displaces():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((8, 5))
    spec = matching.NegativeSynthesisSpec(permute_fraction=0.0, noise_sigma_scale=1.5)
    neg = matching.synthesize_negatives(X, X.std(axis=0), spec, rng)
    assert not np.allclose(neg, X)


def test_negative_spec_validation():
    with pytest.raises(ValueError):
        matching.NegativeSynthesisSpec(noise_sigma_scale=0.0)
    with pytest.raises(ValueError):
        matching.NegativeSynthesisSpec(permute_fraction=1.1)


# ------------------------------------------------------------- aux training


def train_round(model, X, y, epochs, seed):
    """One local round of the joint step on a single-model pool; its aux
    stream trains the aux head on X against synthesized negatives."""
    st = client.ClientState(client_id=0, pool=[model], task_bindings={0: 0})
    client.local_train_round(st, None, X, y, task_id=0, epochs=epochs, lr=0.05,
                             weight_decay=0.0, batch_size=16,
                             neg_spec=matching.NegativeSynthesisSpec(),
                             round_entropy=(seed,))


def test_train_auxiliary_zero_epochs_unchanged():
    m = make_model(4)
    before = nn.flatten_params(m).copy()
    rng = np.random.default_rng(0)
    train_round(m, rng.standard_normal((20, 6)), rng.integers(0, 3, size=20),
                epochs=0, seed=1)
    assert np.array_equal(before, nn.flatten_params(m))


def test_train_auxiliary_separates_tasks():
    # blobs from one domain as positives: scores there must clearly beat
    # scores on the same blobs rotated half a turn
    base = data.make_base_dataset(3, 6, 120, 4.0, seed=5)
    rot = data.DomainSpec(steps=(data.Rotation(np.pi),), name="rot180")
    far = data.apply_domain(base, rot, task_id=1)
    arch = nn.ArchSpec(input_dim=6, hidden_dims=(16, 8), num_classes=3)
    m = nn.init_model(arch, 0)
    train_round(m, base.train_x, base.train_y, epochs=40, seed=2)
    pos = nn.aux_scores(m, base.test_x).mean()
    neg = nn.aux_scores(m, far.test_x).mean()
    assert pos - neg >= 0.2
