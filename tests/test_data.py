import json

import numpy as np
import pytest

from pfdl import data


def tiny_task(seed=0, classes=3, dim=6, spc=40):
    return data.make_base_dataset(classes, dim, spc, class_separation=4.0, seed=seed)


# ------------------------------------------------------------- base dataset


def test_base_dataset_deterministic():
    a = tiny_task(seed=5)
    b = tiny_task(seed=5)
    assert np.array_equal(a.train_x, b.train_x)
    assert np.array_equal(a.test_y, b.test_y)


def test_base_dataset_counts_and_split():
    t = data.make_base_dataset(4, 8, 50, 3.0, seed=1)
    for c in range(4):
        total = (t.train_y == c).sum() + (t.test_y == c).sum()
        assert total == 50
    # 80/20
    assert t.train_x.shape == (160, 8)
    assert t.test_x.shape == (40, 8)


def test_base_dataset_linear_probe_oracle():
    # two classes, separation 10, unit clusters: near-perfect separability
    sklearn = pytest.importorskip("sklearn.linear_model")
    t = data.make_base_dataset(2, 6, 200, 10.0, seed=3)
    clf = sklearn.LogisticRegression(max_iter=1000)
    clf.fit(t.train_x, t.train_y)
    assert clf.score(t.test_x, t.test_y) > 0.99


def test_base_dataset_mean_radius():
    t = data.make_base_dataset(5, 16, 100, 3.0, seed=2)
    for c in range(5):
        mean = t.train_x[t.train_y == c].mean(axis=0)
        # empirical mean of ~80 unit-variance points: within ~0.5 of the center
        assert abs(np.linalg.norm(mean) - 3.0) < 0.6


def test_base_dataset_validation():
    with pytest.raises(ValueError):
        data.make_base_dataset(1, 4, 50, 1.0, seed=0)
    with pytest.raises(ValueError):
        data.make_base_dataset(3, 4, 3, 1.0, seed=0)


# ------------------------------------------------------------- domains


def test_identity_domain_is_noop():
    t = tiny_task()
    out = data.apply_domain(t, data.Domain(), task_id=1)
    assert np.array_equal(out.train_x, t.train_x)
    assert np.array_equal(out.train_y, t.train_y)


def test_rotation_runs_and_inverts():
    t = tiny_task()
    moved = data.apply_domain(t, data.Domain(60), task_id=1)
    assert not np.allclose(moved.train_x, t.train_x)
    back = data.apply_domain(moved, data.Domain(-60), task_id=1)
    assert np.max(np.abs(back.train_x - t.train_x)) < 1e-12


def test_rotation_preserves_norms():
    t = tiny_task()
    out = data.apply_domain(t, data.Domain(70.7), task_id=2)
    n0 = np.linalg.norm(t.train_x, axis=1)
    n1 = np.linalg.norm(out.train_x, axis=1)
    assert np.max(np.abs(n0 - n1)) < 1e-9


def test_rotation_180_negates_even_dims():
    t = tiny_task(dim=6)
    out = data.apply_domain(t, data.Domain(180), task_id=1)
    assert np.max(np.abs(out.train_x + t.train_x)) < 1e-9


def test_labels_never_change():
    t = tiny_task()
    out = data.apply_domain(t, data.Domain(17, 0.5), task_id=3)
    assert np.array_equal(out.train_y, t.train_y)
    assert np.array_equal(out.test_y, t.test_y)


def test_noise_is_task_scoped_and_reproducible():
    t = tiny_task()
    spec = data.Domain(0, 0.4)
    a = data.apply_domain(t, spec, task_id=1)
    b = data.apply_domain(t, spec, task_id=1)
    c = data.apply_domain(t, spec, task_id=2)
    assert np.array_equal(a.train_x, b.train_x)
    assert not np.allclose(a.train_x, c.train_x)


def test_data_config_domains():
    doms = data.DataConfig().domains()
    assert doms == [data.Domain(d, 0.3) for d in (0.0, 60.0, 120.0, 180.0)]
    clean = data.DataConfig(rotation_degrees=(0.0, 90.0), domain_noise_sigma=0.0)
    assert [len(d.to_dict()["steps"]) for d in clean.domains()] == [1, 1]


# the JSON that dataset files and the data manifest store, as written by
# the step-list domain format that the Domain record replaced
DEFAULT_DOMAINS_JSON = (
    '[{"name": "rot0+noise0.3", "steps": [{"kind": "rotation", "angle": 0.0}, '
    '{"kind": "noise", "sigma": 0.3}]}, '
    '{"name": "rot60+noise0.3", "steps": [{"kind": "rotation", "angle": 1.0471975511965976}, '
    '{"kind": "noise", "sigma": 0.3}]}, '
    '{"name": "rot120+noise0.3", "steps": [{"kind": "rotation", "angle": 2.0943951023931953}, '
    '{"kind": "noise", "sigma": 0.3}]}, '
    '{"name": "rot180+noise0.3", "steps": [{"kind": "rotation", "angle": 3.141592653589793}, '
    '{"kind": "noise", "sigma": 0.3}]}]')
RECURRING_DOMAINS_JSON = (
    '[{"name": "rot0", "steps": [{"kind": "rotation", "angle": 0.0}]}, '
    '{"name": "rot90", "steps": [{"kind": "rotation", "angle": 1.5707963267948966}]}, '
    '{"name": "rot180", "steps": [{"kind": "rotation", "angle": 3.141592653589793}]}, '
    '{"name": "rot270", "steps": [{"kind": "rotation", "angle": 4.71238898038469}]}, '
    '{"name": "rot0", "steps": [{"kind": "rotation", "angle": 0.0}]}]')


def test_domain_json_is_pinned():
    default = [d.to_dict() for d in data.DataConfig().domains()]
    assert json.dumps(default) == DEFAULT_DOMAINS_JSON
    recurring = data.DataConfig(rotation_degrees=(0.0, 90.0, 180.0, 270.0, 0.0),
                                domain_noise_sigma=0.0)
    assert json.dumps([d.to_dict() for d in recurring.domains()]) == RECURRING_DOMAINS_JSON
    t = data.apply_domain(tiny_task(), data.Domain(90), task_id=1)
    assert json.dumps(t.domain) == json.dumps(json.loads(RECURRING_DOMAINS_JSON)[1])


# ------------------------------------------------------------- partition


@pytest.mark.parametrize("alpha", [0.1, 1.0, 10.0])
def test_partition_complete_and_disjoint(alpha):
    t = tiny_task(spc=55)
    shards = data.dirichlet_partition(t, data.HeterogeneityConfig(alpha, 5, seed=7))
    all_idx = np.concatenate([s.indices for s in shards])
    assert len(all_idx) == t.n_train
    assert len(np.unique(all_idx)) == t.n_train


def test_partition_single_client_gets_everything():
    t = tiny_task()
    shards = data.dirichlet_partition(t, data.HeterogeneityConfig(1.0, 1, seed=0))
    assert len(shards) == 1
    assert np.array_equal(np.sort(shards[0].indices), np.arange(t.n_train))


def test_partition_deterministic_in_seed():
    t = tiny_task()
    a = data.dirichlet_partition(t, data.HeterogeneityConfig(0.5, 4, seed=3))
    b = data.dirichlet_partition(t, data.HeterogeneityConfig(0.5, 4, seed=3))
    c = data.dirichlet_partition(t, data.HeterogeneityConfig(0.5, 4, seed=4))
    for x, y in zip(a, b):
        assert np.array_equal(x.indices, y.indices)
    assert any(not np.array_equal(x.indices, y.indices) for x, y in zip(a, c))


def test_partition_concentration_statistic():
    # alpha=0.1, K=2: median max-client share of a class > 0.9 over 100 seeds;
    # alpha=10 concentrates near an even split instead (< 0.65)
    t = data.make_base_dataset(5, 4, 1000, 3.0, seed=0)
    for alpha, check in ((0.1, lambda m: m > 0.9), (10.0, lambda m: m < 0.65)):
        shares = []
        for seed in range(100):
            shards = data.dirichlet_partition(t, data.HeterogeneityConfig(alpha, 2, seed=seed))
            for c in range(5):
                counts = [(t.train_y[s.indices] == c).sum() for s in shards]
                shares.append(max(counts) / sum(counts))
        assert check(float(np.median(shares)))


def test_largest_remainder_exact():
    rng = np.random.default_rng(0)
    for _ in range(100):
        k = int(rng.integers(1, 8))
        p = rng.dirichlet(np.full(k, 0.5))
        n = int(rng.integers(0, 200))
        counts = data._largest_remainder(p, n)
        assert counts.sum() == n
        assert np.all(counts >= 0)


# ------------------------------------------------------------- streams


def test_stream_synchronized_default_order():
    doms = data.DataConfig().domains()
    streams = data.build_task_stream(doms, 6, "synchronized", seed=0)
    assert streams == [[0, 1, 2, 3]] * 6


def test_stream_shuffled_covers_domains_once():
    doms = data.DataConfig().domains()
    streams = data.build_task_stream(doms, 50, "shuffled", seed=1)
    for order in streams:
        assert sorted(order) == [0, 1, 2, 3]


def test_stream_shuffled_hits_all_permutations():
    doms = data.DataConfig().domains()
    seen = set()
    for seed in range(10):
        for order in data.build_task_stream(doms, 100, "shuffled", seed=seed):
            seen.add(tuple(order))
    assert len(seen) == 24


def test_stream_mode_validation():
    with pytest.raises(ValueError):
        data.build_task_stream([], 3, "random", seed=0)
