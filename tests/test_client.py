import tracemalloc

import numpy as np
import oracles
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


def weights_and_biases(model):
    """Each layer's (out, in) weights and its bias, as views of its [W^T; b] block."""
    return [(b[:-1].T, b[-1]) for b in model.blocks]


def reference_pull(w, anchors, rho):
    """The migration pull by its definition, sum_i rho_i ||w - a_i||^2, and
    its gradient 2 sum_i rho_i (w - a_i), one anchor row at a time."""
    loss, grad = 0.0, np.zeros_like(w)
    for r, a in zip(rho, anchors):
        diff = w - a
        loss += r * float(diff @ diff)
        grad += 2.0 * r * diff
    return loss, grad


def assert_pull_covers(st, models, rho):
    """The client's (s, abar, c) are those of exactly these anchor models
    with these weights."""
    anchors = [m.params.copy() for m in models]
    assert st.anchor_mass == pytest.approx(float(np.sum(rho)), rel=1e-14, abs=0.0)
    want_sum = sum((r * a for r, a in zip(rho, anchors)), np.zeros(ARCH.param_count()))
    assert np.allclose(st.anchor_sum, want_sum, rtol=1e-14, atol=1e-15)
    want_sq = sum(r * float(a @ a) for r, a in zip(rho, anchors))
    assert st.anchor_sq == pytest.approx(want_sq, rel=1e-14, abs=0.0)


# ------------------------------------------------------------- begin_task


def test_begin_task_first_task_new_model_no_snapshots():
    st = fresh_state()
    X, _ = shard()
    rep = client.begin_task(st, X, task_id=0, lam=0.5, max_pool_size=8,
                            arch=ARCH, init_seed=(0, 5, 0, 0))
    assert rep.decision == matching.DECISION_NEW
    assert len(st.pool) == 1
    assert st.task_bindings == {0: 0}
    assert_pull_covers(st, [], [])


def test_begin_task_empty_shard_marks_inactive():
    st = fresh_state()
    rep = client.begin_task(st, np.zeros((0, 5)), task_id=0, lam=0.5,
                            max_pool_size=8, arch=ARCH, init_seed=1)
    assert rep is None
    assert st.task_bindings == {} and st.pool == []
    assert run_round(st, *shard(), task_id=0) is None


def test_begin_task_lambda_zero_reuses_without_snapshots():
    st = fresh_state()
    X, _ = shard()
    client.begin_task(st, X, task_id=0, lam=0.0, max_pool_size=8, arch=ARCH, init_seed=2)
    rep = client.begin_task(st, X, task_id=1, lam=0.0, max_pool_size=8, arch=ARCH, init_seed=3)
    assert rep.decision == matching.DECISION_REUSE
    assert rep.model_index == 0
    assert len(st.pool) == 1
    # the reused model excludes itself from migration anchors
    assert_pull_covers(st, [], [])


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
    rho = rep.rho
    assert len(rho) == 2
    assert all(0 <= r <= 1 for r in rho)
    assert_pull_covers(st, st.pool[:2], rho)


def test_begin_task_reuse_excludes_self_keeps_others():
    st = fresh_state()
    X, _ = shard()
    client.begin_task(st, X, task_id=0, lam=1.0, max_pool_size=8, arch=ARCH, init_seed=0)
    client.begin_task(st, X * 3, task_id=1, lam=1.0, max_pool_size=8, arch=ARCH, init_seed=1)
    rep = client.begin_task(st, X, task_id=2, lam=0.0, max_pool_size=8, arch=ARCH, init_seed=2)
    assert rep.decision == matching.DECISION_REUSE
    other = 1 - rep.model_index
    assert_pull_covers(st, [st.pool[other]], [rep.rho[other]])  # the other model only


def test_begin_task_reuses_the_model_whose_intensity_equals_lambda():
    # lam set to the client's own best intensity on the new shard, bit for
    # bit: reaching lam reuses that model, with room left in the pool
    st = fresh_state()
    X, _ = shard()
    client.begin_task(st, X, task_id=0, lam=1.0, max_pool_size=8, arch=ARCH, init_seed=0)
    client.begin_task(st, X * 3, task_id=1, lam=1.0, max_pool_size=8, arch=ARCH, init_seed=1)
    rho = matching.matching_intensity(st.pool, X)
    best = int(np.argmax(rho))
    assert rho[best] > rho[1 - best]
    rep = client.begin_task(st, X, task_id=2, lam=float(rho[best]), max_pool_size=8,
                            arch=ARCH, init_seed=2)
    assert rep.decision == matching.DECISION_REUSE and not rep.budget_forced
    assert rep.model_index == best and max(rep.rho) == rep.lam
    assert len(st.pool) == 2 and st.task_bindings[2] == best


def test_begin_task_include_self_switch():
    st = fresh_state()
    X, _ = shard()
    client.begin_task(st, X, task_id=0, lam=0.5, max_pool_size=8, arch=ARCH,
                      init_seed=0, km_include_self=True)
    rep = client.begin_task(st, X, task_id=1, lam=0.0, max_pool_size=8, arch=ARCH,
                            init_seed=1, km_include_self=True)
    assert rep.decision == matching.DECISION_REUSE
    assert_pull_covers(st, [st.pool[0]], [rep.rho[0]])  # the bound model's frozen copy


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
    assert reference_pull(w, anchors, np.array([0.7]))[0] == 0.0


def test_migration_loss_hand_case():
    # single snapshot, rho=0.5, single parameter differing by 2 -> 0.5*4
    w = nn.init_model(ARCH, 0).params
    anchors = w[None, :].copy()
    anchors[0, 0] += 2.0
    assert abs(reference_pull(w, anchors, np.array([0.5]))[0] - 2.0) < 1e-12


@pytest.mark.parametrize("num_anchors", [1, 3, 7])
@pytest.mark.parametrize("at_anchor", [False, True], ids=["apart", "at_anchor"])
def test_closed_form_pull_matches_definition(num_anchors, at_anchor):
    rng = np.random.default_rng(num_anchors)
    w = nn.init_model(ARCH, 0).params + rng.standard_normal(ARCH.param_count()) * 0.2
    anchors = w + rng.standard_normal((num_anchors, w.size)) * 0.3
    if at_anchor:
        w = anchors[num_anchors // 2].copy()
    rho = rng.uniform(0.0, 1.0, size=num_anchors)
    s, abar = float(rho.sum()), rho @ anchors
    c = float(rho @ np.einsum("ij,ij->i", anchors, anchors))
    want_loss, want_grad = reference_pull(w, anchors, rho)
    grad = np.zeros_like(w)
    client.add_migration_grads(grad, w, s, abar)
    assert abs(client.migration_loss(w, s, abar, c) - want_loss) <= 1e-13 * (1.0 + c)
    assert np.max(np.abs(grad - want_grad)) <= 1e-13 * (1.0 + np.max(np.abs(want_grad)))


def test_migration_gradient_matches_finite_differences():
    # quadratic loss: central differences are exact up to roundoff
    err = gradcheck.run_migration_gradcheck(num_cases=10, seed=0, h=1e-4)
    assert err < 1e-6


def test_migration_loss_validates_weights():
    # statistics of another parameter count are refused, not broadcast
    w = nn.init_model(ARCH, 0).params
    with pytest.raises(ValueError):
        client.migration_loss(w, 1.0, np.zeros(w.size + 1), 0.0)
    with pytest.raises(ValueError):
        client.add_migration_grads(np.zeros_like(w), w, 1.0, np.zeros(w.size + 1))


# ------------------------------------------------------------- local rounds


def train_clients(states, shards, task_id=0, global_params=None, epochs=2, entropies=None):
    """One lockstep round; by default client k draws from the entropy
    (0, 6, k, task_id, 0)."""
    if entropies is None:
        entropies = [(0, 6, st.client_id, task_id, 0) for st in states]
    return client.local_train_round(
        states, global_params, shards, task_id=task_id, epochs=epochs, lr=0.05,
        weight_decay=1e-3, batch_size=16, neg_spec=NegativeSynthesisSpec(),
        entropies=entropies)


def run_round(st, X, y, task_id=0, global_params=None, epochs=2, entropy=(0, 6, 0, 0, 0)):
    return train_clients([st], [(X, y)], task_id, global_params, epochs, [entropy])[0]


def test_local_round_deterministic():
    X, y = shard(3)
    outs = []
    for _ in range(2):
        st = fresh_state()
        client.begin_task(st, X, 0, 0.5, 8, ARCH, init_seed=4)
        up = run_round(st, X, y)
        outs.append(up.parameters.params.copy())
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
    assert np.array_equal(up_a.parameters.params.copy(),
                          up_b.parameters.params.copy())


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
    up.parameters.blocks[0][:] = 0.0
    assert not np.allclose(st.pool[0].blocks[0], 0.0)


def test_snapshots_stay_frozen_during_training():
    X, y = shard(7)
    st = fresh_state()
    client.begin_task(st, X, 0, 1.0, 8, ARCH, init_seed=0)
    run_round(st, X, y, task_id=0)
    rho = client.begin_task(st, X + 5.0, 1, 1.0, 8, ARCH, init_seed=1).rho
    assert_pull_covers(st, [st.pool[0]], rho)
    frozen = st.anchor_sum.copy()
    run_round(st, X + 5.0, y, task_id=1, entropy=(0, 6, 0, 1, 0))
    assert np.array_equal(frozen, st.anchor_sum)
    assert_pull_covers(st, [st.pool[0]], rho)


def test_migration_pulls_toward_anchor():
    # with a huge rho and no better signal, a round should shrink the
    # distance to the anchor compared to training without it
    X, y = shard(8, n=50)
    st = fresh_state()
    client.begin_task(st, X, 0, 1.0, 8, ARCH, init_seed=0)
    run_round(st, X, y)
    client.begin_task(st, X, 1, 1.0, 8, ARCH, init_seed=1)
    anchor = st.pool[0].params.copy()
    st.anchor_mass, st.anchor_sum, st.anchor_sq = 1.0, anchor.copy(), float(anchor @ anchor)
    d0 = np.linalg.norm(st.pool[1].params.copy() - anchor)
    run_round(st, X, y, task_id=1, epochs=5, entropy=(0, 6, 0, 1, 0))
    d1 = np.linalg.norm(st.pool[1].params.copy() - anchor)
    assert d1 < d0


# the benchmark's shapes: at these sizes a product's last bits depend on
# its row count, so an update that depended on the round would show
ROUND_ARCH = nn.ArchSpec(input_dim=16, hidden_dims=(64, 32), num_classes=5)


def _round_clients(seed=0):
    """Six clients with the training fixtures of a lockstep round: shards
    of 40, 13 and 5 (shorter than a batch of 16), 0 (empty, but bound), 33
    and 40 rows; clients 0, 2 and 4 are anchored to a frozen model (s > 0),
    and client 5 gets no binding."""
    sizes = [40, 13, 0, 33, 5, 40]
    states, shards = [], []
    for k, n in enumerate(sizes):
        rng = np.random.default_rng([seed, k])
        shards.append((rng.standard_normal((n, 16)), rng.integers(0, 5, size=n)))
        st = fresh_state(cid=k)
        st.pool = [nn.init_model(ROUND_ARCH, [seed, k, j]) for j in range(2)]
        if k != 5:
            st.task_bindings = {0: 1}
        if k % 2 == 0:
            anchor = st.pool[0].params
            st.anchor_mass, st.anchor_sum = 0.7, 0.7 * anchor
            st.anchor_sq = 0.7 * float(anchor @ anchor)
        states.append(st)
    return states, shards


def _update_bytes(up):
    return None if up is None else (up.client_id, up.num_samples, up.train_loss,
                                    up.parameters.params.tobytes())


@pytest.mark.parametrize("order_seed", [0, 1, 2])
def test_lockstep_update_is_independent_of_the_round(order_seed):
    # each client's update is bit for bit the one it gets training alone,
    # whichever clients share its round and in whatever sampled order
    alone = []
    for st, sh in zip(*_round_clients()):
        alone.append(_update_bytes(train_clients([st], [sh], epochs=3)[0]))
    assert alone[2] is None  # bound, but an empty shard
    assert alone[5] is None  # nothing bound
    assert [alone[k][1] for k in (0, 1, 3, 4)] == [40, 13, 33, 5]

    states, shards = _round_clients()
    order = np.random.default_rng(order_seed).permutation(len(states))
    ups = train_clients([states[i] for i in order], [shards[i] for i in order], epochs=3)
    assert [_update_bytes(u) for u in ups] == [alone[i] for i in order]
    # the bound models hold the returned parameters
    for i, up in zip(order, ups):
        if up is not None:
            assert np.array_equal(states[i].pool[1].params, up.parameters.params)
            assert not np.shares_memory(states[i].pool[1].params, up.parameters.params)


def _per_client_round(state, X, y, epochs, lr, wd, batch_size, entropy):
    """One client's local round as a plain loop: a one-slot float32
    workspace loaded batch by batch, each epoch drawing its permutation and
    then its negatives. Returns (parameters, the joint loss of the last
    batch before its update), both float64."""
    model = nn.clone_model(state.pool[state.task_bindings[0]])
    rng = rng_for(*entropy)
    ws = nn.Workspace(ROUND_ARCH, 1, 2 * batch_size, batch_size, np.float32)
    ws.params[0] = model.params
    abar = state.anchor_sum.astype(np.float32)
    for _ in range(epochs):
        order = rng.permutation(len(X))
        Xe, ye = X[order], y[order]
        Ne = oracles.loop_negatives(Xe, X.std(axis=0), NegativeSynthesisSpec(), rng,
                                    batch_size)
        for start in range(0, len(X), batch_size):
            xb, nb, yb = (a[start:start + batch_size] for a in (Xe, Ne, ye))
            m = len(xb)
            ws.count_rows(0, m, 2 * m)
            ws.acts[0][0] = 0.0
            ws.acts[0][0, :2 * m, -1] = 1.0
            ws.x[0, :2 * m] = np.concatenate([xb, nb])
            ws.onehot[0, :m] = yb[:, None] == np.arange(ROUND_ARCH.num_classes)
            ws.y_aux[0] = 0.0
            ws.y_aux[0, :m] = 1.0
            g, w = nn._grads_and_loss(ws, 1)[0], ws.params[0]
            w64 = w.astype(np.float64)
            loss = nn.batch_loss(nn.PersonalModel(ROUND_ARCH, w64), ws.x[0, :2 * m], yb,
                                 np.repeat([1.0, 0.0], m))
            if state.anchor_mass:
                client.add_migration_grads(g, w, state.anchor_mass, abar)
                loss += client.migration_loss(w64, state.anchor_mass, state.anchor_sum,
                                              state.anchor_sq)
            nn.sgd_step(w, g, lr=lr, weight_decay=wd)
    return ws.params[0].astype(np.float64), loss


def test_lockstep_round_equals_a_per_client_loop():
    # shards of whole batches (32, 48, 16), shorter than a batch (5, 1) and
    # with a short last batch (21, 40), in one round of 5 epochs, so the
    # lanes start their epochs at different steps of the round
    sizes = [32, 5, 48, 1, 21, 16, 40]
    states, shards = [], []
    for k, n in enumerate(sizes):
        rng = np.random.default_rng([9, k])
        shards.append((rng.standard_normal((n, 16)), rng.integers(0, 5, size=n)))
        st = fresh_state(cid=k)
        st.pool = [nn.init_model(ROUND_ARCH, [9, k])]
        st.task_bindings = {0: 0}
        if k % 3 == 0:
            anchor = nn.init_model(ROUND_ARCH, [10, k]).params
            st.anchor_mass, st.anchor_sum = 0.4, 0.4 * anchor
            st.anchor_sq = 0.4 * float(anchor @ anchor)
        states.append(st)
    want = [_per_client_round(st, X, y, epochs=5, lr=0.05, wd=1e-3, batch_size=16,
                              entropy=(0, 6, st.client_id, 0, 0))
            for st, (X, y) in zip(states, shards)]
    ups = train_clients(states, shards, epochs=5)
    for up, (params, loss), n in zip(ups, want, sizes):
        assert up.num_samples == n
        assert up.parameters.params.tobytes() == params.tobytes(), n
        assert up.train_loss == loss, n


def test_a_round_passes_float32_and_returns_float64(monkeypatch):
    # every float array of the workspace that a pass sees, and the
    # gradients it returns, are float32; the updates and their losses are
    # float64, and so are the pool models they were copied back into
    dtypes, real = set(), nn._grads_and_loss

    def spy(ws, active):
        for value in vars(ws.slots(active)).values():
            for a in value if isinstance(value, (list, tuple)) else [value]:
                if isinstance(a, np.ndarray) and a.dtype.kind == "f":
                    dtypes.add(a.dtype)
        grads = real(ws, active)
        dtypes.add(grads.dtype)
        return grads

    monkeypatch.setattr(nn, "_grads_and_loss", spy)
    states, shards = _round_clients()
    ups = train_clients(states, shards)
    assert dtypes == {np.dtype(np.float32)}
    assert sum(up is not None for up in ups) == 4
    for st, up in zip(states, ups):
        if up is not None:
            assert up.parameters.params.dtype == np.float64
            assert st.pool[1].params.dtype == np.float64
            assert type(up.train_loss) is float


def test_round_memory_does_not_grow_with_local_epochs():
    # a lane lays out one epoch at a time, so a round's peak allocation is
    # the same at every epoch count; an epoch of this round's slot rows is
    # about 35 KB, and the peaks of equal rounds differ by about 2 KB
    train_clients(*_round_clients(), epochs=1)  # warm-up
    peaks = []
    for epochs in (1, 3, 12):
        states, shards = _round_clients()
        tracemalloc.start()
        try:
            train_clients(states, shards, epochs=epochs)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) <= peaks[0] + 8192, peaks


def test_a_round_calls_the_traced_hooks_once_per_client_step_and_epoch(monkeypatch):
    """perfbench traces `pfdl.nn.sgd_step` and `pfdl.client.synthesize_negatives`
    and, on each traced child, requires `traced_steps == steps`: one
    `sgd_step` call per client-step, against its predicted step count. So
    a round calls `nn.sgd_step` once per client-step and
    `client.synthesize_negatives` once per client-epoch, however its lanes
    share the stacked passes."""
    calls = {"sgd_step": [], "synthesize_negatives": []}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name].append(args[0])
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(nn, "sgd_step")
    counted(client, "synthesize_negatives")
    # 40 rows: 2 full batches and a tail of 8; 32: 2 full; 5: one short batch
    sizes = [40, 32, 5]
    states, shards = [], []
    for k, n in enumerate(sizes):
        rng = np.random.default_rng([4, k])
        shards.append((rng.standard_normal((n, 16)), rng.integers(0, 5, size=n)))
        states.append(client.ClientState(client_id=k, pool=[nn.init_model(ROUND_ARCH, k)],
                                          task_bindings={0: 0}))
    ups = train_clients(states, shards, epochs=2)
    assert all(up is not None for up in ups)
    steps = [2 * -(-n // 16) for n in sizes]
    assert steps == [6, 4, 2]
    assert len(calls["sgd_step"]) == sum(steps)
    assert len(calls["synthesize_negatives"]) == 2 * len(sizes)
    # each client's epochs each draw once, on that client's own plan
    assert len({id(plan) for plan in calls["synthesize_negatives"]}) == len(sizes)


def test_lockstep_round_adopts_the_broadcast_in_every_slot():
    states, shards = _round_clients()
    glob = nn.init_model(ROUND_ARCH, 77)
    ups = train_clients(states, shards, global_params=glob)
    fresh, _ = _round_clients()
    for st in fresh:
        if 0 in st.task_bindings:
            np.copyto(st.pool[1].params, glob.params)
    want = train_clients(fresh, shards)
    assert [_update_bytes(u) for u in ups] == [_update_bytes(u) for u in want]


def test_no_anchor_training_identical_to_plain_joint():
    # zero snapshots: the migration branch must not perturb anything
    X, y = shard(9)
    st_a = fresh_state()
    client.begin_task(st_a, X, 0, 0.5, 8, ARCH, init_seed=11)
    up_a = run_round(st_a, X, y)

    st_b = fresh_state()
    client.begin_task(st_b, X, 0, 0.5, 8, ARCH, init_seed=11)
    st_b.anchor_mass, st_b.anchor_sum, st_b.anchor_sq = 0.0, np.zeros(0), 0.0
    up_b = run_round(st_b, X, y)
    assert np.array_equal(up_a.parameters.params.copy(),
                          up_b.parameters.params.copy())


# ------------------------------------------------------------- fused step oracle


def _reference_pass(model, X, y_cls=None, y_aux=None):
    """One forward/backward pass for one loss over all rows of X, as the
    step did before it was fused: per-layer (weights, bias) gradients."""
    layers = weights_and_biases(model)
    *trunk, (Wc, bc), (Wa, ba) = layers
    grads = [[np.zeros_like(W), np.zeros_like(b)] for W, b in layers]
    acts, zs = [X], []
    for W, b in trunk:
        zs.append(acts[-1] @ W.T + b)
        acts.append(np.maximum(zs[-1], 0.0))
    h, n = acts[-1], X.shape[0]
    d_h = np.zeros_like(h)
    loss = 0.0
    if y_cls is not None:
        logits = h @ Wc.T + bc
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        p = e / e.sum(axis=1, keepdims=True)
        loss += float(np.mean(-np.log(p[np.arange(n), y_cls])))
        delta = p.copy()
        delta[np.arange(n), y_cls] -= 1.0
        delta /= n
        grads[-2][0] += delta.T @ h
        grads[-2][1] += delta.sum(axis=0)
        d_h += delta @ Wc
    if y_aux is not None:
        s = 1.0 / (1.0 + np.exp(-(h @ Wa.T + ba).ravel()))
        sc = np.clip(s, nn.BCE_EPS, 1.0 - nn.BCE_EPS)
        loss += float(np.mean(-(y_aux * np.log(sc) + (1.0 - y_aux) * np.log(1.0 - sc))))
        delta_a = (s - y_aux) / n
        grads[-1][0] += (delta_a @ h)[None, :]
        grads[-1][1] += delta_a.sum()
        d_h += np.outer(delta_a, Wa.ravel())
    delta = d_h
    for i in reversed(range(len(trunk))):
        dz = delta * (zs[i] > 0)
        grads[i][0] += dz.T @ acts[i]
        grads[i][1] += dz.sum(axis=0)
        if i > 0:
            delta = dz @ trunk[i][0]
    return grads, loss


def _reference_round(model, anchors, rho, X, y, epochs, lr, wd, batch_size, entropy):
    """The two-pass step: a class pass over the batch, an aux pass over
    batch + negatives, the per-anchor, per-layer migration loop and a
    per-array update. One generator per round; each epoch draws its
    permutation, then its negatives. Returns the per-step losses."""
    layers = weights_and_biases(model)
    feat_std = X.std(axis=0)
    losses = []
    rng = rng_for(*entropy)
    for _ in range(epochs):
        order = rng.permutation(len(X))
        negatives = oracles.loop_negatives(X[order], feat_std, NegativeSynthesisSpec(), rng,
                                           batch_size)
        for start in range(0, len(X), batch_size):
            rows = order[start:start + batch_size]
            Xb = X[rows]
            grads, cls_loss = _reference_pass(model, Xb, y_cls=y[rows])
            Xn = negatives[start:start + batch_size]
            ya = np.concatenate([np.ones(len(Xb)), np.zeros(len(Xn))])
            aux_grads, aux_loss = _reference_pass(model, np.concatenate([Xb, Xn]), y_aux=ya)
            step_loss = cls_loss + aux_loss
            for g, a in zip(grads, aux_grads):
                g[0] += a[0]
                g[1] += a[1]
            for r, anchor in zip(rho, anchors):
                sq = 0.0
                for g, (W, b), (Wa, ba) in zip(grads, layers, weights_and_biases(anchor)):
                    for gi, p, pa in ((g[0], W, Wa), (g[1], b, ba)):
                        gi += 2.0 * r * (p - pa)
                        sq += float(((p - pa) ** 2).sum())
                step_loss += r * sq
            for g, (W, b) in zip(grads, layers):
                W -= lr * (g[0] + wd * W)
                b -= lr * (g[1] + wd * b)
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
    anchor_rows = np.array([m.params for m in pool[:-1]]).reshape(
        num_anchors, ARCH.param_count())
    st.anchor_mass, st.anchor_sum = float(rho.sum()), rho @ anchor_rows
    st.anchor_sq = float(rho @ np.einsum("ij,ij->i", anchor_rows, anchor_rows))

    reference = nn.clone_model(pool[-1])
    anchors = [nn.clone_model(m) for m in pool[:-1]]
    want = _reference_round(reference, anchors, rho, X, y, epochs, lr=0.05, wd=1e-3,
                            batch_size=16, entropy=(0, 6, 0, 0, 0))
    up = run_round(st, X, y, epochs=epochs)

    assert len(want) == epochs * -(-n // 16)
    # the round trains in float32 against this float64 reference: over the
    # six cases the loss deviates by at most 2.4e-8 of its value, and the
    # parameters by at most 1.8e-7 of their largest magnitude
    tol = 8 * np.finfo(np.float32).eps
    # the round's loss is the last step's, scored before its update
    assert abs(up.train_loss - want[-1]) <= tol * abs(want[-1])
    assert (np.max(np.abs(up.parameters.params - reference.params))
            <= tol * np.max(np.abs(reference.params)))


def test_each_batch_keeps_the_negative_mix(monkeypatch):
    # 83 rows in batches of 32: 32, 32 and 19 rows, of which the leading
    # 16, 16 and round(9.5) = 10 negatives are permuted and the rest noised
    X, y = shard(10, n=83)
    st = fresh_state()
    client.begin_task(st, X, 0, 0.5, 8, ARCH, init_seed=0)
    batches = []

    def record(ws, active):
        assert active == 1 and ws.x.shape[1] == 64
        m, rows = int(ws.cls_div[0, 0, 0]), int(ws.aux_div[0, 0])
        assert rows == 2 * m
        assert np.array_equal(ws.y_aux[0, :rows], np.r_[np.ones(m), np.zeros(m)])
        assert np.all(ws.acts[0][0, :rows, -1] == 1.0)
        # padding rows are zero, ones column too
        assert not np.any(ws.acts[0][0, rows:])
        batches.append((ws.x[0, :m].copy(), ws.x[0, m:rows].copy()))
        return np.zeros((active, ws.params.shape[1]))

    monkeypatch.setattr(nn, "_grads_and_loss", record)
    client.local_train_round([st], None, [(X, y)], task_id=0, epochs=1, lr=0.05,
                             weight_decay=0.0, batch_size=32,
                             neg_spec=NegativeSynthesisSpec(), entropies=[(3,)])
    assert [len(pos) for pos, _ in batches] == [32, 32, 19]
    for (pos, neg), n_perm in zip(batches, [16, 16, 10]):
        for i in range(len(pos)):
            if i < n_perm:
                assert np.array_equal(np.sort(neg[i]), np.sort(pos[i]))
            else:
                assert not np.any(neg[i] == pos[i])
