import numpy as np
import pytest

from pfdl import client, gradcheck, matching, nn
from pfdl.matching import NegativeSynthesisSpec
from pfdl.seeding import rng_for


ARCH = nn.ArchSpec(input_dim=5, hidden_dims=(6, 4), num_classes=3)


def shard(seed=0, n=40):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, 5)), rng.integers(0, 3, size=n)


def fresh_state(cid=0):
    return client.ClientState(client_id=cid)


# ------------------------------------------------------------- begin_task


def test_begin_task_first_task_new_model_no_snapshots():
    st = fresh_state()
    X, _ = shard()
    rep = client.begin_task(st, X, task_id=0, lam=0.5, max_pool_size=8,
                            arch=ARCH, init_seed=(0, 5, 0, 0))
    assert rep.decision == matching.DECISION_NEW
    assert len(st.pool) == 1
    assert st.task_bindings == {0: 0}
    assert st.pool_snapshots.shape[0] == 0
    assert st.snapshot_rho.shape == (0,)


def test_begin_task_empty_shard_marks_inactive():
    st = fresh_state()
    rep = client.begin_task(st, np.zeros((0, 5)), task_id=0, lam=0.5,
                            max_pool_size=8, arch=ARCH, init_seed=1)
    assert rep is None
    assert not st.active
    assert st.task_bindings == {}
    assert st.rho_history[-1]["inactive"]


def test_begin_task_lambda_zero_reuses_without_snapshots():
    st = fresh_state()
    X, _ = shard()
    client.begin_task(st, X, task_id=0, lam=0.0, max_pool_size=8, arch=ARCH, init_seed=2)
    rep = client.begin_task(st, X, task_id=1, lam=0.0, max_pool_size=8, arch=ARCH, init_seed=3)
    assert rep.decision == matching.DECISION_REUSE
    assert rep.model_index == 0
    assert len(st.pool) == 1
    # the reused model excludes itself from migration anchors
    assert st.pool_snapshots.shape[0] == 0
    assert st.snapshot_rho.shape == (0,)


def test_begin_task_lambda_one_grows_pool_and_anchors_all_previous():
    st = fresh_state()
    for t in range(3):
        X, _ = shard(seed=t)
        rep = client.begin_task(st, X, task_id=t, lam=1.0, max_pool_size=8,
                                arch=ARCH, init_seed=(9, t))
        assert rep.decision == matching.DECISION_NEW
    assert len(st.pool) == 3
    assert sorted(st.task_bindings.values()) == [0, 1, 2]
    # task 2 anchors the two previous models with their intensities
    assert len(st.pool_snapshots) == 2
    assert st.snapshot_rho.shape == (2,)
    assert np.all((st.snapshot_rho >= 0) & (st.snapshot_rho <= 1))


def test_begin_task_reuse_excludes_self_keeps_others():
    st = fresh_state()
    X, _ = shard()
    client.begin_task(st, X, task_id=0, lam=1.0, max_pool_size=8, arch=ARCH, init_seed=0)
    client.begin_task(st, X * 3, task_id=1, lam=1.0, max_pool_size=8, arch=ARCH, init_seed=1)
    rep = client.begin_task(st, X, task_id=2, lam=0.0, max_pool_size=8, arch=ARCH, init_seed=2)
    assert rep.decision == matching.DECISION_REUSE
    bound = rep.model_index
    assert len(st.pool_snapshots) == 1  # the other model only
    other = 1 - bound
    assert np.array_equal(st.pool_snapshots[0], st.pool[other].params)
    assert st.snapshot_rho[0] == rep.rho[other]


def test_begin_task_include_self_switch():
    st = fresh_state()
    X, _ = shard()
    client.begin_task(st, X, task_id=0, lam=0.5, max_pool_size=8, arch=ARCH,
                      init_seed=0, km_include_self=True)
    rep = client.begin_task(st, X, task_id=1, lam=0.0, max_pool_size=8, arch=ARCH,
                            init_seed=1, km_include_self=True)
    assert rep.decision == matching.DECISION_REUSE
    assert len(st.pool_snapshots) == 1  # the bound model's frozen copy
    assert st.snapshot_rho[0] == rep.rho[0]


def test_pool_size_monotone_and_bounded_growth():
    st = fresh_state()
    sizes = []
    for t in range(6):
        X, _ = shard(seed=100 + t)
        client.begin_task(st, X, task_id=t, lam=0.9, max_pool_size=3,
                          arch=ARCH, init_seed=(1, t))
        sizes.append(len(st.pool))
    for a, b in zip(sizes, sizes[1:]):
        assert b >= a and b - a <= 1
    assert sizes[-1] <= 3


# ------------------------------------------------------------- migration


def test_migration_loss_zero_for_identical_params():
    w = nn.init_model(ARCH, 0).params
    anchors = w[None, :].copy()
    assert client.migration_loss(w - anchors, np.array([0.7])) == 0.0


def test_migration_loss_hand_case():
    # single snapshot, rho=0.5, single parameter differing by 2 -> 0.5*4
    w = nn.init_model(ARCH, 0).params
    anchors = w[None, :].copy()
    anchors[0, 0] += 2.0
    assert abs(client.migration_loss(w - anchors, np.array([0.5])) - 2.0) < 1e-12


def test_migration_gradient_matches_finite_differences():
    # quadratic loss: central differences are exact up to roundoff
    err = gradcheck.run_migration_gradcheck(num_cases=10, seed=0, h=1e-4)
    assert err < 1e-6


def test_migration_loss_validates_weights():
    w = nn.init_model(ARCH, 0).params
    with pytest.raises(ValueError):
        client.migration_loss(w - w[None, :], np.array([0.5, 0.5]))


# ------------------------------------------------------------- local rounds


def run_round(st, X, y, task_id=0, global_params=None, epochs=2, entropy=(0, 6, 0, 0, 0)):
    return client.local_train_round(
        st, global_params, X, y, task_id=task_id, epochs=epochs, lr=0.05,
        weight_decay=1e-3, batch_size=16, neg_spec=NegativeSynthesisSpec(),
        round_entropy=entropy)


def test_local_round_deterministic():
    X, y = shard(3)
    outs = []
    for _ in range(2):
        st = fresh_state()
        client.begin_task(st, X, 0, 0.5, 8, ARCH, init_seed=4)
        up = run_round(st, X, y)
        outs.append(nn.flatten_params(up.parameters))
    assert np.array_equal(outs[0], outs[1])


def test_local_round_adopts_global_params():
    X, y = shard(4)
    st = fresh_state()
    client.begin_task(st, X, 0, 0.5, 8, ARCH, init_seed=5)
    reference = nn.init_model(ARCH, 999)
    st2 = fresh_state()
    client.begin_task(st2, X, 0, 0.5, 8, ARCH, init_seed=999)
    # a round from the broadcast equals a round from the same local init
    up_a = run_round(st, X, y, global_params=reference)
    up_b = run_round(st2, X, y, global_params=None)
    assert np.array_equal(nn.flatten_params(up_a.parameters),
                          nn.flatten_params(up_b.parameters))


def test_local_round_reduces_joint_loss():
    # learnable blobs: one cluster per class, well separated
    rng = np.random.default_rng(5)
    y = rng.integers(0, 3, size=60)
    means = np.array([[4.0, 0, 0, 0, 0], [0, 4.0, 0, 0, 0], [0, 0, 4.0, 0, 0]])
    X = means[y] + rng.standard_normal((60, 5))
    st = fresh_state()
    client.begin_task(st, X, 0, 0.5, 8, ARCH, init_seed=6)
    m = st.pool[0]
    before = nn.batch_loss(m, X, y_cls=y, y_aux=np.ones(len(X)))
    for r in range(5):
        run_round(st, X, y, entropy=(0, 6, 0, 0, r))
    after = nn.batch_loss(m, X, y_cls=y, y_aux=np.ones(len(X)))
    assert after < before


def test_local_round_inactive_client_returns_none():
    st = fresh_state()
    client.begin_task(st, np.zeros((0, 5)), 0, 0.5, 8, ARCH, init_seed=0)
    assert run_round(st, *shard()) is None


def test_local_round_update_fields():
    X, y = shard(6, n=33)
    st = fresh_state(cid=4)
    client.begin_task(st, X, 0, 0.5, 8, ARCH, init_seed=1)
    up = run_round(st, X, y)
    assert up.client_id == 4
    assert up.num_samples == 33
    assert np.isfinite(up.train_loss)
    # the payload is a detached copy
    up.parameters.trunk[0].weights[:] = 0.0
    assert not np.allclose(st.pool[0].trunk[0].weights, 0.0)


def test_snapshots_stay_frozen_during_training():
    X, y = shard(7)
    st = fresh_state()
    client.begin_task(st, X, 0, 1.0, 8, ARCH, init_seed=0)
    run_round(st, X, y, task_id=0)
    client.begin_task(st, X + 5.0, 1, 1.0, 8, ARCH, init_seed=1)
    frozen = st.pool_snapshots[0].copy()
    run_round(st, X + 5.0, y, task_id=1, entropy=(0, 6, 0, 1, 0))
    assert np.array_equal(frozen, st.pool_snapshots[0])


def test_migration_pulls_toward_anchor():
    # with a huge rho and no better signal, a round should shrink the
    # distance to the anchor compared to training without it
    X, y = shard(8, n=50)
    st = fresh_state()
    client.begin_task(st, X, 0, 1.0, 8, ARCH, init_seed=0)
    run_round(st, X, y)
    client.begin_task(st, X, 1, 1.0, 8, ARCH, init_seed=1)
    anchor = st.pool_snapshots[0].copy()
    st.snapshot_rho = np.array([1.0])
    d0 = np.linalg.norm(nn.flatten_params(st.pool[1]) - anchor)
    run_round(st, X, y, task_id=1, epochs=5, entropy=(0, 6, 0, 1, 0))
    d1 = np.linalg.norm(nn.flatten_params(st.pool[1]) - anchor)
    assert d1 < d0


def test_no_anchor_training_identical_to_plain_joint():
    # zero snapshots: the migration branch must not perturb anything
    X, y = shard(9)
    st_a = fresh_state()
    client.begin_task(st_a, X, 0, 0.5, 8, ARCH, init_seed=11)
    up_a = run_round(st_a, X, y)

    st_b = fresh_state()
    client.begin_task(st_b, X, 0, 0.5, 8, ARCH, init_seed=11)
    st_b.pool_snapshots = np.zeros((0, 0))
    st_b.snapshot_rho = np.zeros(0)
    up_b = run_round(st_b, X, y)
    assert np.array_equal(nn.flatten_params(up_a.parameters),
                          nn.flatten_params(up_b.parameters))


# ------------------------------------------------------------- fused step oracle


def _reference_pass(model, X, y_cls=None, y_aux=None):
    """One forward/backward pass for one loss over all rows of X, as the
    step did before it was fused: per-layer (weights, bias) gradients."""
    layers = (*model.trunk, model.cls_head, model.aux_head)
    grads = [[np.zeros_like(l.weights), np.zeros_like(l.bias)] for l in layers]
    acts, zs = [X], []
    for layer in model.trunk:
        zs.append(acts[-1] @ layer.weights.T + layer.bias)
        acts.append(np.maximum(zs[-1], 0.0))
    h, n = acts[-1], X.shape[0]
    d_h = np.zeros_like(h)
    loss = 0.0
    if y_cls is not None:
        logits = h @ model.cls_head.weights.T + model.cls_head.bias
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        p = e / e.sum(axis=1, keepdims=True)
        loss += float(np.mean(-np.log(p[np.arange(n), y_cls])))
        delta = p.copy()
        delta[np.arange(n), y_cls] -= 1.0
        delta /= n
        grads[-2][0] += delta.T @ h
        grads[-2][1] += delta.sum(axis=0)
        d_h += delta @ model.cls_head.weights
    if y_aux is not None:
        s = 1.0 / (1.0 + np.exp(-(h @ model.aux_head.weights.T + model.aux_head.bias).ravel()))
        sc = np.clip(s, nn.BCE_EPS, 1.0 - nn.BCE_EPS)
        loss += float(np.mean(-(y_aux * np.log(sc) + (1.0 - y_aux) * np.log(1.0 - sc))))
        delta_a = (s - y_aux) / n
        grads[-1][0] += (delta_a @ h)[None, :]
        grads[-1][1] += delta_a.sum()
        d_h += np.outer(delta_a, model.aux_head.weights.ravel())
    delta = d_h
    for i in reversed(range(len(model.trunk))):
        dz = delta * (zs[i] > 0)
        grads[i][0] += dz.T @ acts[i]
        grads[i][1] += dz.sum(axis=0)
        if i > 0:
            delta = dz @ model.trunk[i].weights
    return grads, loss


def _reference_round(model, anchors, rho, X, y, epochs, lr, wd, batch_size, entropy):
    """The two-pass step: a class pass over the batch, an aux pass over
    batch + negatives, the per-anchor, per-layer migration loop and a
    per-array update. Returns the per-step losses."""
    layers = (*model.trunk, model.cls_head, model.aux_head)
    feat_std = X.std(axis=0)
    losses = []
    for epoch in range(epochs):
        rng = rng_for(*entropy, epoch)
        order = rng.permutation(len(X))
        for start in range(0, len(X), batch_size):
            rows = order[start:start + batch_size]
            Xb = X[rows]
            grads, cls_loss = _reference_pass(model, Xb, y_cls=y[rows])
            Xn = matching.synthesize_negatives(Xb, feat_std, NegativeSynthesisSpec(), rng)
            ya = np.concatenate([np.ones(len(Xb)), np.zeros(len(Xn))])
            aux_grads, aux_loss = _reference_pass(model, np.concatenate([Xb, Xn]), y_aux=ya)
            step_loss = cls_loss + aux_loss
            for g, a in zip(grads, aux_grads):
                g[0] += a[0]
                g[1] += a[1]
            for r, anchor in zip(rho, anchors):
                sq = 0.0
                for g, layer, alayer in zip(grads, layers, (*anchor.trunk, anchor.cls_head,
                                                            anchor.aux_head)):
                    for gi, p, pa in ((g[0], layer.weights, alayer.weights),
                                      (g[1], layer.bias, alayer.bias)):
                        gi += 2.0 * r * (p - pa)
                        sq += float(((p - pa) ** 2).sum())
                step_loss += r * sq
            for g, layer in zip(grads, layers):
                layer.weights -= lr * (g[0] + wd * layer.weights)
                layer.bias -= lr * (g[1] + wd * layer.bias)
            losses.append(step_loss)
    return losses


@pytest.mark.parametrize("num_anchors", [0, 1, 3])
@pytest.mark.parametrize("n, epochs", [(8, 1), (40, 2)])
def test_fused_step_matches_two_pass_reference(num_anchors, n, epochs):
    # (8, 1) is one step; (40, 2) runs 16 + 16 + 8 rows per epoch, so the
    # short last batch is covered
    rng = np.random.default_rng(100 + num_anchors)
    X, y = shard(seed=num_anchors, n=n)
    pool = []
    for i in range(num_anchors + 1):
        m = nn.init_model(ARCH, [7, i])
        m.params += rng.standard_normal(m.params.size) * 0.2
        pool.append(m)
    rho = rng.uniform(0.1, 1.0, size=num_anchors)
    st = fresh_state()
    st.pool = pool
    st.task_bindings = {0: num_anchors}
    st.pool_snapshots = np.array([m.params for m in pool[:-1]]).reshape(
        num_anchors, ARCH.param_count())
    st.snapshot_rho = rho

    reference = nn.clone_model(pool[-1])
    anchors = [nn.clone_model(m) for m in pool[:-1]]
    want = _reference_round(reference, anchors, rho, X, y, epochs, lr=0.05, wd=1e-3,
                            batch_size=16, entropy=(0, 6, 0, 0, 0))
    up = run_round(st, X, y, epochs=epochs)

    assert len(want) == epochs * -(-n // 16)
    assert abs(up.train_loss - np.mean(want)) <= 1e-12
    assert np.max(np.abs(up.parameters.params - reference.params)) <= 1e-12
