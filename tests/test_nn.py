import numpy as np
import pytest

from pfdl import client, nn
from pfdl.matching import NegativeSynthesisSpec, matching_intensity
from test_client import _reference_pass, weights_and_biases


def small_arch():
    return nn.ArchSpec(input_dim=4, hidden_dims=(5, 3), num_classes=3)


def random_batch(rng, model, n):
    X = rng.standard_normal((n, model.arch.input_dim))
    y = rng.integers(0, model.arch.num_classes, size=n)
    ya = rng.integers(0, 2, size=n).astype(float)
    return X, y, ya


# ---------------------------------------------------------------- init


def test_init_same_seed_bitwise_identical():
    a = nn.init_model(small_arch(), 7)
    b = nn.init_model(small_arch(), 7)
    assert np.array_equal(a.params, b.params)


def test_init_different_seeds_differ():
    a = nn.init_model(small_arch(), 7)
    b = nn.init_model(small_arch(), 8)
    assert not np.allclose(a.params.copy(), b.params.copy())


def test_init_biases_zero_and_bounds():
    arch = small_arch()
    m = nn.init_model(arch, 0)
    for weights, bias in weights_and_biases(m):
        assert np.all(bias == 0.0)
        fan_out, fan_in = weights.shape
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        assert np.all(np.abs(weights) <= limit)


def test_glorot_init_draws_out_by_in_weights_into_the_block():
    # the (out, in) draw lands in the block's W^T rows, the bias row is zeroed
    block = np.full((6, 3), 7.0)
    nn.glorot_init(block, np.random.default_rng(4))
    limit = np.sqrt(6.0 / (5 + 3))
    want = np.random.default_rng(4).uniform(-limit, limit, size=(3, 5))
    assert block[:-1].T.tobytes() == want.tobytes()
    assert np.all(block[-1] == 0.0)


def test_param_count_example():
    # input 2, hidden (4,), C=3: 2*4+4 + 4*3+3 + 4*1+1 = 32
    arch = nn.ArchSpec(input_dim=2, hidden_dims=(4,), num_classes=3)
    assert arch.param_count() == 32
    assert nn.init_model(arch, 0).params.size == 32


def test_flat_layout_is_one_block_per_layer():
    # trunk layers, cls head, aux head; each a C-contiguous (in + 1, out)
    # block [W^T; b] of the flat vector, which the blocks tile in order
    m = nn.init_model(small_arch(), 3)
    # (in_dim, out_dim): trunk 4 -> 5 -> 3, cls head 3 -> 3, aux head 3 -> 1
    dims = [(4, 5), (5, 3), (3, 3), (3, 1)]
    assert len(m.blocks) == len(m.arch.block_spans) == len(dims)
    lo = 0
    for block, span, (in_dim, out_dim) in zip(m.blocks, m.arch.block_spans, dims):
        assert block.shape == (in_dim + 1, out_dim)
        assert block.flags.c_contiguous
        assert np.shares_memory(block, m.params)
        assert np.array_equal(block.ravel(), m.params[lo:lo + block.size])
        assert span == (lo, lo + block.size, in_dim + 1, out_dim)
        lo += block.size
    assert lo == m.params.size == m.arch.param_count()
    lo, hi = m.arch.cls_head_span()
    assert np.array_equal(m.params[lo:hi], m.blocks[-2].ravel())
    with pytest.raises(ValueError):
        nn.PersonalModel(small_arch(), np.zeros(m.params.size + 1))


def test_arch_validation():
    with pytest.raises(ValueError):
        nn.ArchSpec(input_dim=3, hidden_dims=(), num_classes=2)
    with pytest.raises(ValueError):
        nn.ArchSpec(input_dim=0, hidden_dims=(4,), num_classes=2)


# ---------------------------------------------------------------- forward


def naive_forward(model, x):
    """Straight-line loop oracle, no shared code with nn internals."""
    h = np.array(x, dtype=float)
    *trunk, (Wc, bc), (Wa, ba) = weights_and_biases(model)
    for W, b in trunk:
        z = np.zeros(W.shape[0])
        for i in range(W.shape[0]):
            acc = b[i]
            for j in range(W.shape[1]):
                acc += W[i, j] * h[j]
            z[i] = acc
        h = np.where(z > 0, z, 0.0)
    logits = bc + Wc @ h
    v = float(ba[0] + Wa[0] @ h)
    score = 1.0 / (1.0 + np.exp(-v))
    return logits, score


def test_forward_matches_naive_oracle():
    rng = np.random.default_rng(3)
    model = nn.init_model(small_arch(), 5)
    for _ in range(20):
        x = rng.standard_normal(4)
        logits, scores = nn.heads(model, x[None, :])
        ol, os = naive_forward(model, x)
        assert np.allclose(logits[0], ol, atol=1e-12)
        assert abs(scores[0] - os) < 1e-12


def test_forward_zero_input_zero_weights():
    arch = small_arch()
    m = nn.init_model(arch, 0)
    m.params[:] = 0.0
    logits, scores = nn.heads(m, np.zeros((1, 4)))
    assert np.all(logits == 0.0)
    assert scores[0] == 0.5


def test_forward_dimension_mismatch():
    m = nn.init_model(small_arch(), 0)
    with pytest.raises(ValueError):
        nn.heads(m, np.zeros((1, 5)))
    with pytest.raises(ValueError):
        nn.stacked_heads([m, m], np.zeros((1, 5)), cls=False)


def trunk(model, X):
    h = X
    for W, b in weights_and_biases(model)[:-2]:
        h = np.maximum(h @ W.T + b, 0.0)
    return h


def two_pass_heads(model, X):
    """Class logits and aux scores, each from its own 2-D trunk pass."""
    (Wc, bc), (Wa, ba) = weights_and_biases(model)[-2:]
    h_cls = trunk(model, X)
    h_aux = trunk(model, X)
    logits = h_cls @ Wc.T + bc
    v = h_aux @ Wa.T + ba
    return logits, nn.sigmoid(v.ravel())


def test_heads_bitwise_equal_to_two_passes():
    rng = np.random.default_rng(17)
    for case in range(30):
        hidden = rng.integers(1, 40, size=int(rng.integers(1, 4)))
        arch = nn.ArchSpec(input_dim=int(rng.integers(1, 9)), hidden_dims=tuple(hidden),
                           num_classes=int(rng.integers(1, 12)))
        model = nn.init_model(arch, [17, case])
        model.params += rng.standard_normal(model.params.shape)
        X = rng.standard_normal((int(rng.integers(1, 300)), arch.input_dim)) * 3
        logits, scores = nn.heads(model, X)
        want_logits, want_scores = two_pass_heads(model, X)
        assert logits.tobytes() == want_logits.tobytes()
        assert scores.tobytes() == want_scores.tobytes()
        assert nn.heads(model, X)[1].tobytes() == want_scores.tobytes()


def test_aux_score_in_unit_interval():
    rng = np.random.default_rng(11)
    m = nn.init_model(small_arch(), 2)
    s = nn.heads(m, rng.standard_normal((50, 4)) * 10)[1]
    assert np.all((s >= 0.0) & (s <= 1.0))


def _sharing_pool(arch, size, seed):
    # per-task entries of the sharing mode: one trunk and aux head, each
    # entry under its own class head
    rng = np.random.default_rng(seed)
    first = nn.init_model(arch, [seed, 0])
    first.params += rng.standard_normal(first.params.shape)
    lo, hi = arch.cls_head_span()
    pool = [first]
    for i in range(1, size):
        model = nn.clone_model(first)
        model.params[lo:hi] = rng.standard_normal(hi - lo)
        pool.append(model)
    return pool


@pytest.mark.parametrize("size, sharing", [(1, False), (3, False), (8, False), (3, True)])
@pytest.mark.parametrize("rows", [1, 30, 250])
def test_stacked_heads_equal_one_model_passes_bitwise(size, sharing, rows):
    arch = nn.ArchSpec(input_dim=16, hidden_dims=(64, 32), num_classes=5)
    rng = np.random.default_rng([size, rows])
    if sharing:
        pool = _sharing_pool(arch, size, seed=rows)
    else:
        pool = [nn.init_model(arch, [rows, i]) for i in range(size)]
        for m in pool:
            m.params += 0.3 * rng.standard_normal(m.params.shape)
    X = rng.standard_normal((rows, arch.input_dim)) * 2
    logits, scores = nn.stacked_heads(pool, X)
    assert logits.shape == (size, rows, 5) and scores.shape == (size, rows)
    aux_only = nn.stacked_heads(pool, X, cls=False)
    assert aux_only[0] is None
    probs = nn.softmax(logits)
    rho = matching_intensity(pool, X)
    for i, model in enumerate(pool):
        want_logits, want_scores = two_pass_heads(model, X)
        assert logits[i].tobytes() == want_logits.tobytes()
        assert scores[i].tobytes() == want_scores.tobytes()
        assert aux_only[1][i].tobytes() == want_scores.tobytes()
        assert probs[i].tobytes() == nn.softmax(want_logits).tobytes()
        assert rho[i] == want_scores.mean()


def test_stacked_heads_reject_mixed_architectures():
    a = nn.init_model(small_arch(), 0)
    b = nn.init_model(nn.ArchSpec(input_dim=4, hidden_dims=(5, 4), num_classes=3), 0)
    with pytest.raises(ValueError, match="one architecture"):
        nn.stacked_heads([a, b], np.zeros((2, 4)))


def test_softmax_row_max_matches_max_reduction():
    # the column-wise max is exact, so the result is bitwise that of the
    # max(axis=-1) formula, over many column counts and stacked shapes
    rng = np.random.default_rng(5)
    for shape in [(1,), (7,), (250, 5), (8, 125, 5), (3, 4, 1), (2, 9, 12)]:
        z = rng.standard_normal(shape) * rng.uniform(0.1, 80)
        e = np.exp(z - z.max(axis=-1, keepdims=True))
        assert nn.softmax(z).tobytes() == (e / e.sum(axis=-1, keepdims=True)).tobytes()


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(4)
    for _ in range(50):
        z = rng.standard_normal(6) * rng.uniform(0.1, 50)
        p = nn.softmax(z)
        assert abs(p.sum() - 1.0) < 1e-12
        assert np.all(p >= 0)


# ---------------------------------------------------------------- losses


# the scoring loss's per-row terms, which `batch_loss` and a round's
# `train_loss` are made of
ce_rows, bce_rows = nn.cross_entropy, nn.bce


def ce(logits, label):
    """The scoring loss's CE on one row of logits."""
    logits = np.asarray(logits, dtype=float)[None, :]
    return ce_rows(logits, np.array([label]))[0]


def test_ce_uniform_logits_is_log_c():
    assert abs(ce(np.zeros(10), 3) - np.log(10.0)) < 1e-12


def test_ce_saturated_correct_class():
    loss = ce(np.array([30.0, -30.0]), 0)
    assert loss < 1e-12


def test_ce_matches_extended_precision_oracle():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    rng = np.random.default_rng(9)
    for _ in range(20):
        logits = rng.standard_normal(5) * rng.uniform(0.5, 30)
        label = int(rng.integers(0, 5))
        got = ce(logits, label)
        denom = mp.fsum([mp.e ** mp.mpf(float(v)) for v in logits])
        want = float(-mp.log(mp.e ** mp.mpf(float(logits[label])) / denom))
        assert abs(got - want) < 1e-10


def test_bce_cases():
    def bce(score, label):
        return bce_rows(np.array([score]), np.array([float(label)]))[0]

    assert abs(bce(0.5, 1) - np.log(2.0)) < 1e-12
    # fully confident and correct: loss about 1e-12, certainly tiny
    assert bce(1.0 - 1e-12, 1) < 1e-9
    # clamped wrong-side scores stay finite
    assert np.isfinite(bce(0.0, 1))
    assert np.isfinite(bce(1.0, 0))
    # one term per row
    pair = bce_rows(np.array([0.5, 0.25]), np.array([1.0, 0.0]))
    assert pair.tolist() == [bce(0.5, 1), bce(0.25, 0)]


# ---------------------------------------------------------------- gradients


def finite_diff_grads(model, loss_fn, h=1e-6):
    flat = model.params
    g = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = loss_fn()
        flat[i] = orig - h
        dn = loss_fn()
        flat[i] = orig
        g[i] = (up - dn) / (2 * h)
    return g


def max_rel_err(analytic, fd, guard=1e-3):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), guard)
    return float(np.max(np.abs(analytic - fd) / denom))


def aux_head_slice(arch):
    """The aux head's weights and bias: the last entries of the flat vector."""
    return slice(arch.param_count() - arch.hidden_dims[-1] - 1, None)


@pytest.mark.parametrize("term", ["cls", "aux", "joint"])
def test_backward_matches_central_differences(term):
    # cls: the CE term alone, over the cls head it owns; aux: the BCE term
    # alone, over the aux head; joint: the whole loss over every parameter
    rng = np.random.default_rng(17)
    model = nn.init_model(small_arch(), 23)
    X, y, ya = random_batch(rng, model, 6)
    y = y[:4]  # the CE labels the leading rows only
    grads = nn.backward(model, X, y_cls=y, y_aux=ya)
    loss = {
        "cls": lambda: ce_rows(nn.heads(model, X[:4])[0], y).mean(),
        "aux": lambda: bce_rows(nn.heads(model, X)[1], ya).mean(),
        "joint": lambda: nn.batch_loss(model, X, y_cls=y, y_aux=ya),
    }[term]
    owned = {"cls": slice(*model.arch.cls_head_span()),
             "aux": aux_head_slice(model.arch), "joint": slice(None)}[term]
    fd = finite_diff_grads(model, loss, h=1e-6)
    assert max_rel_err(grads[owned], fd[owned]) < 1e-4


def test_cls_loss_gives_zero_aux_gradients():
    # the CE term has no path to the aux head: relabelling the classes
    # leaves the aux head's gradient bitwise unchanged
    rng = np.random.default_rng(2)
    model = nn.init_model(small_arch(), 1)
    X, y, ya = random_batch(rng, model, 5)
    aux = aux_head_slice(model.arch)
    g1 = nn.backward(model, X, y_cls=y, y_aux=ya)
    g2 = nn.backward(model, X, y_cls=(y + 1) % 3, y_aux=ya)
    assert np.array_equal(g1[aux], g2[aux])
    assert not np.array_equal(g1, g2)


def test_aux_loss_gives_zero_cls_gradients():
    # the BCE term has no path to the cls head: flipping the aux labels
    # leaves the cls head's gradient bitwise unchanged
    rng = np.random.default_rng(2)
    model = nn.init_model(small_arch(), 1)
    X, y, ya = random_batch(rng, model, 5)
    cls = slice(*model.arch.cls_head_span())
    g1 = nn.backward(model, X, y_cls=y, y_aux=ya)
    g2 = nn.backward(model, X, y_cls=y, y_aux=1.0 - ya)
    assert np.array_equal(g1[cls], g2[cls])
    assert not np.array_equal(g1, g2)


def test_joint_equals_cls_plus_aux_entrywise():
    # the fused pass against the two-pass oracle: a class pass over the
    # labelled rows plus an aux pass over every row
    rng = np.random.default_rng(5)
    model = nn.init_model(small_arch(), 3)
    X, y, ya = random_batch(rng, model, 8)
    gj = nn.backward(model, X, y_cls=y[:5], y_aux=ya)
    loss = nn.batch_loss(model, X, y_cls=y[:5], y_aux=ya)
    gc, lc = _reference_pass(model, X[:5], y_cls=y[:5])
    ga, la = _reference_pass(model, X, y_aux=ya)
    # each layer's block is [W^T; b]
    want = np.concatenate([np.vstack([(wc + wa).T, bc + ba]).ravel()
                           for (wc, bc), (wa, ba) in zip(gc, ga)])
    assert np.allclose(gj, want, atol=1e-15)
    assert abs(loss - (lc + la)) < 1e-14


def test_backward_empty_batch_raises():
    model = nn.init_model(small_arch(), 0)
    with pytest.raises(ValueError):
        nn.backward(model, np.zeros((0, 4)), y_cls=np.zeros(0, dtype=int),
                    y_aux=np.zeros(0))


def _fused_pass_2d(model, X, y, ya):
    """The joint pass on plain 2-D arrays, one product per layer and the
    same operation order as the stacked pass: the flat gradient."""
    blocks = model.blocks
    acts, zs = [np.hstack([X, np.ones((len(X), 1))])], []
    for block in blocks[:-2]:
        zs.append(np.dot(acts[-1], block))
        acts.append(np.hstack([np.maximum(zs[-1], 0.0), np.ones((len(X), 1))]))
    h1, (cls, aux), N, n = acts[-1], blocks[-2:], len(X), len(y)
    grads = [None] * len(blocks)
    s = nn.sigmoid((h1 @ aux).ravel())
    delta_a = (s - ya) / N
    grads[-1] = np.dot(h1.T, delta_a[:, None])
    d_h = np.outer(delta_a, aux[:-1])
    logits = h1[:n] @ cls
    m = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - m)
    se = e.sum(axis=1, keepdims=True)
    delta = e / se
    delta[np.arange(n), y] -= 1.0
    delta /= n
    grads[-2] = np.dot(h1[:n].T, delta)
    d_h[:n] += delta @ cls[:-1].T
    delta = d_h
    for i in reversed(range(len(zs))):
        delta *= zs[i] > 0
        grads[i] = np.dot(acts[i].T, delta)
        if i > 0:
            delta = delta @ blocks[i][:-1].T
    return np.concatenate([g.ravel() for g in grads])


def _random_models(rng, arch, count):
    models = [nn.init_model(arch, int(rng.integers(2**31))) for _ in range(count)]
    for model in models:
        model.params += rng.standard_normal(model.params.size) * 0.3
    return models


def _filled(models, batches, rows, labelled, dtype=np.float64):
    """A workspace of dtype with one slot per model; slot k holds
    batches[k] = (X, y, ya) in its leading rows and pads the rest."""
    ws = nn.Workspace(models[0].arch, len(models), rows, labelled, dtype)
    for k, (model, batch) in enumerate(zip(models, batches)):
        ws.params[k] = model.params
        _load(ws, k, *batch)
    return ws


def _load(ws, k, X, y, ya):
    """Slot k holds (X, y, ya) in its leading rows; the input rows after
    them are zero, ones column too."""
    ws.count_rows(k, len(y), len(X))
    ws.acts[0][k, len(X):] = 0.0
    ws.acts[0][k, :len(X), -1] = 1.0
    ws.x[k, :len(X)], ws.y_aux[k, :len(X)] = X, ya
    ws.onehot[k, :len(y)] = y[:, None] == np.arange(ws.onehot.shape[-1])


@pytest.mark.parametrize("K", [1, 3, 8])
def test_stacked_pass_equals_the_2d_pass_bitwise(K):
    # full slots: each slot's stacked products are the 2-D products, bit
    # for bit, and so is its gradient
    rng = np.random.default_rng(20 + K)
    arch = nn.ArchSpec(input_dim=16, hidden_dims=(64, 32), num_classes=5)
    models = _random_models(rng, arch, K)
    batches = []
    for model in models:
        X, y, _ = random_batch(rng, model, 64)
        batches.append((X, y[:32], np.repeat([1.0, 0.0], 32)))
    grads = nn._grads_and_loss(_filled(models, batches, 64, 32), K)
    for k, model in enumerate(models):
        assert grads[k].tobytes() == _fused_pass_2d(model, *batches[k]).tobytes()


@pytest.mark.parametrize("padded", [False, True])
@pytest.mark.parametrize("K", [1, 3, 8])
def test_float32_pass_is_the_float64_pass_within_roundoff(K, padded):
    # a local round's float32 pass against the float64 pass on the same
    # models and rows: each slot's gradient within a few float32 roundoffs
    # of its largest entry. Over 200 draws of each case the deviation
    # peaked at 10.9 eps (8 padded slots), so 32 eps leaves headroom
    rng = np.random.default_rng(30 + K + 10 * padded)
    arch = nn.ArchSpec(input_dim=16, hidden_dims=(64, 32), num_classes=5)
    models = _random_models(rng, arch, K)
    batches = []
    for model in models:
        m = int(rng.integers(1, 32)) if padded else 32
        X, y, _ = random_batch(rng, model, 2 * m)
        batches.append((X, y[:m], np.repeat([1.0, 0.0], m)))
    want = nn._grads_and_loss(_filled(models, batches, 64, 32), K)
    got = nn._grads_and_loss(_filled(models, batches, 64, 32, np.float32), K)
    assert got.dtype == np.float32
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w)) <= 32 * np.finfo(np.float32).eps * np.max(np.abs(w))


def test_reused_workspaces_match_fresh_ones():
    # one K = 3 workspace reused over steps whose slots change between full
    # and padded rows, as a local round does: no stale rows and no lost
    # ones column, so every slot equals the same slot of a fresh one-slot
    # workspace bit for bit, and a padded slot equals the K = 1 pass over
    # its real rows alone up to roundoff
    rng = np.random.default_rng(12)
    models = _random_models(rng, small_arch(), 3)
    ws = nn.Workspace(small_arch(), 3, 16, 8, np.float64)
    for sizes in ((8, 3, 5), (3, 8, 8), (8, 8, 1), (5, 3, 8), (8, 8, 8)):
        batches = []
        for k, m in enumerate(sizes):
            X, y, _ = random_batch(rng, models[k], 2 * m)
            batches.append((X, y[:m], np.repeat([1.0, 0.0], m)))
            ws.params[k] = models[k].params
            _load(ws, k, *batches[-1])
        grads = nn._grads_and_loss(ws, 3)
        assert grads.base is ws.grads
        for k, m in enumerate(sizes):
            assert np.all(ws.acts[0][k, :2 * m, -1] == 1.0)
            fresh = nn._grads_and_loss(_filled([models[k]], [batches[k]], 16, 8), 1)
            assert grads[k].tobytes() == fresh[0].tobytes()
            alone = nn.backward(models[k], *batches[k])
            if m == 8:
                assert grads[k].tobytes() == alone.tobytes()
            assert np.allclose(grads[k], alone, rtol=1e-12, atol=1e-15)
            nn.sgd_step(models[k].params, grads[k], lr=0.1)


def test_slots_past_active_are_not_touched():
    # a pass over the leading slots reads and writes nothing of the others
    rng = np.random.default_rng(15)
    models = _random_models(rng, small_arch(), 3)
    batches = [(X, y[:4], ya) for X, y, ya in
               (random_batch(rng, model, 8) for model in models)]
    ws = _filled(models, batches, 8, 4)
    ws.grads[2] = 7.0
    grads = nn._grads_and_loss(ws, 2)
    assert grads.shape == (2, small_arch().param_count())
    assert np.all(ws.grads[2] == 7.0)
    first = grads.copy()
    ws.x[2] = np.nan
    assert nn._grads_and_loss(ws, 2).tobytes() == first.tobytes()


def _flat_index_ce_grad(logits, labels):
    """The CE gradient as the pass once computed it: the softmax, then each
    row's target entry gathered through its flat index row * C + label,
    lowered by 1 and scattered back."""
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    delta = e / e.sum(axis=-1, keepdims=True)
    flat = (np.arange(labels.size).reshape(labels.shape) * logits.shape[-1] + labels).ravel()
    target = np.take(delta.ravel(), flat)
    target -= 1.0
    delta.reshape(-1)[flat] = target
    return delta


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("K", [1, 3, 8])
def test_logit_gradient_rows_equal_the_flat_index_formulation(monkeypatch, K, dtype):
    # every pass of a lockstep round leaves its CE gradient rows, divided
    # by their row divisors, in ws.logits. They are the bytes of the flat-
    # index formulation against each row's label, found from the row's
    # input, and class 0 on the rows past a short batch (whose -0.0 entries
    # differ from the +0.0 of an all-zero target)
    monkeypatch.setattr(client, "TRAIN_DTYPE", dtype)
    arch = nn.ArchSpec(input_dim=16, hidden_dims=(64, 32), num_classes=5)
    states, shards, label_of = [], [], {}
    for k, n in enumerate([21, 5, 48, 1, 37, 16, 40, 9][:K]):
        rng = np.random.default_rng([41, k])
        X, y = rng.standard_normal((n, 16)), rng.integers(0, 5, size=n)
        label_of.update(zip((x.tobytes() for x in X.astype(dtype)), y))
        shards.append((X, y))
        states.append(client.ClientState(k, pool=[nn.init_model(arch, [41, k])],
                                         task_bindings={0: 0}))
    checked, padded = 0, 0
    grads_and_loss = nn._grads_and_loss

    def checked_pass(ws, active):
        nonlocal checked, padded
        grads = grads_and_loss(ws, active)
        v, L = ws.slots(active), ws.labelled
        real = np.isfinite(v.cls_div[..., 0])
        labels = np.array([[label_of[x.tobytes()] if r else 0 for x, r in zip(xs, rs)]
                           for xs, rs in zip(v.x[:, :L], real)])
        want = _flat_index_ce_grad(np.matmul(v.acts[-1][:, :L], v.cls_block), labels)
        want /= v.cls_div
        assert v.logits.dtype == dtype
        assert v.logits.tobytes() == want.tobytes()
        checked, padded = checked + 1, padded + int((~real).sum())
        return grads

    monkeypatch.setattr(nn, "_grads_and_loss", checked_pass)
    client.local_train_round(states, None, shards, 0, epochs=2, lr=0.05, weight_decay=0.0,
                             batch_size=16, neg_spec=NegativeSynthesisSpec(),
                             entropies=[(0, 6, k, 0, 0) for k in range(K)])
    assert checked and padded


def test_backward_result_survives_later_calls():
    rng = np.random.default_rng(13)
    model = nn.init_model(small_arch(), 4)
    X, y, ya = random_batch(rng, model, 7)
    g1 = nn.backward(model, X, y_cls=y, y_aux=ya)
    kept = g1.copy()
    g2 = nn.backward(model, X[:5], y_cls=y[:5], y_aux=1.0 - ya[:5])
    assert not np.shares_memory(g1, g2)
    assert np.array_equal(g1, kept)


def test_backward_deterministic():
    rng = np.random.default_rng(8)
    model = nn.init_model(small_arch(), 4)
    X, y, ya = random_batch(rng, model, 7)
    g1 = nn.backward(model, X, y_cls=y, y_aux=ya)
    g2 = nn.backward(model, X, y_cls=y, y_aux=ya)
    assert np.array_equal(g1, g2)


# ---------------------------------------------------------------- sgd


def test_sgd_step_formula():
    # single weight 1.0, grad 0.5, lr 0.1, wd 0 -> 0.95
    arch = nn.ArchSpec(input_dim=1, hidden_dims=(1,), num_classes=1)
    m = nn.init_model(arch, 0)
    m.params[:] = 0.0
    w = m.blocks[0][:-1].T  # the first layer's weights; W[0, 0] is flat entry 0
    w[0, 0] = 1.0
    g = np.zeros_like(m.params)
    g[0] = 0.5
    nn.sgd_step(m.params, g, lr=0.1, weight_decay=0.0)
    assert abs(w[0, 0] - 0.95) < 1e-15
    assert np.all(m.params[1:] == 0.0)

    # weight_decay 0.1, zero gradient: p shrinks by lr*wd*p
    w[0, 0] = 1.0
    g[0] = 0.0
    nn.sgd_step(m.params, g, lr=0.1, weight_decay=0.1)
    assert abs(w[0, 0] - 0.99) < 1e-15


def test_sgd_descends_quadratic():
    # loss = 0.5 * p^2 so grad = p; a step must reduce the loss
    arch = nn.ArchSpec(input_dim=1, hidden_dims=(1,), num_classes=1)
    m = nn.init_model(arch, 1)
    w = m.blocks[0][:-1].T  # the first layer's weights; W[0, 0] is flat entry 0
    p0 = w[0, 0] = 2.0
    g = np.zeros_like(m.params)
    g[0] = p0
    nn.sgd_step(m.params, g, lr=0.1)
    assert 0.5 * w[0, 0] ** 2 < 0.5 * p0**2


@pytest.mark.parametrize("weight_decay", [0.0, 1e-4, 0.3])
def test_sgd_step_in_place_equals_the_formula_bitwise(weight_decay):
    rng = np.random.default_rng(14)
    for _ in range(20):
        params = rng.standard_normal(257) * rng.uniform(0.1, 10.0)
        grads = rng.standard_normal(257) * rng.uniform(0.1, 10.0)
        lr = float(rng.uniform(1e-3, 1.0))
        want = params - lr * (grads + weight_decay * params)
        buffer = params
        nn.sgd_step(params, grads, lr=lr, weight_decay=weight_decay)
        assert params is buffer
        assert params.tobytes() == want.tobytes()


def test_sgd_validates_hyperparameters():
    m = nn.init_model(small_arch(), 0)
    g = np.zeros_like(m.params)
    with pytest.raises(ValueError):
        nn.sgd_step(m.params, g, lr=0.0)
    with pytest.raises(ValueError):
        nn.sgd_step(m.params, g, lr=0.1, weight_decay=-1.0)


# ---------------------------------------------------------------- trunk sharing


def test_trunk_update_visible_through_both_heads():
    rng = np.random.default_rng(6)
    model = nn.init_model(small_arch(), 9)
    x = rng.standard_normal((1, 4))
    score_before = nn.heads(model, x)[1][0]
    logits_before = nn.heads(model, x)[0]

    # step on everything but the aux head; its params stay put but its
    # output must move because the trunk is physically shared
    X, y, ya = random_batch(rng, model, 16)
    aux = aux_head_slice(model.arch)
    aux_before = model.blocks[-1].copy()
    for _ in range(20):
        g = nn.backward(model, X, y_cls=y, y_aux=ya)
        g[aux] = 0.0
        nn.sgd_step(model.params, g, lr=0.5)
    assert np.array_equal(aux_before, model.blocks[-1])
    score_after = nn.heads(model, x)[1][0]
    logits_after = nn.heads(model, x)[0]
    assert not np.allclose(logits_before, logits_after)
    assert score_after != score_before


def test_copying_into_params_keeps_block_views():
    # how a round's final global overwrites a bound model
    m1 = nn.init_model(small_arch(), 0)
    buffer, blocks = m1.params, m1.blocks
    src = nn.init_model(small_arch(), 99)
    np.copyto(m1.params, src.params)
    # the copy writes into m1's own buffer, so blocks built before see the new values
    assert m1.params is buffer and m1.blocks is blocks
    for got, want in zip(blocks, src.blocks):
        assert np.array_equal(got, want)
    assert not np.shares_memory(m1.params, src.params)
    with pytest.raises(ValueError):
        np.copyto(m1.params, np.zeros(m1.params.size + 1))
