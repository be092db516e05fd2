import numpy as np
import pytest

from pfdl import nn
from test_client import _reference_pass


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
    assert not np.allclose(nn.flatten_params(a), nn.flatten_params(b))


def test_init_biases_zero_and_bounds():
    arch = small_arch()
    m = nn.init_model(arch, 0)
    for layer in (*m.trunk, m.cls_head, m.aux_head):
        assert np.all(layer.bias == 0.0)
        fan_out, fan_in = layer.weights.shape
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        assert np.all(np.abs(layer.weights) <= limit)


def test_param_count_example():
    # input 2, hidden (4,), C=3: 2*4+4 + 4*3+3 + 4*1+1 = 32
    arch = nn.ArchSpec(input_dim=2, hidden_dims=(4,), num_classes=3)
    assert arch.param_count() == 32
    assert nn.init_model(arch, 0).params.size == 32


def test_flat_layout_is_layer_order():
    # trunk layers, cls head, aux head; each weights row-major then bias
    m = nn.init_model(small_arch(), 3)
    layers = (*m.trunk, m.cls_head, m.aux_head)
    parts = [a.ravel() for layer in layers for a in (layer.weights, layer.bias)]
    assert np.array_equal(np.concatenate(parts), m.params)
    for layer in layers:
        assert np.shares_memory(layer.weights, m.params)
        assert np.shares_memory(layer.bias, m.params)
    lo, hi = m.arch.cls_head_span()
    assert np.array_equal(m.params[lo:hi], np.concatenate(
        [m.cls_head.weights.ravel(), m.cls_head.bias]))
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
    for layer in model.trunk:
        z = np.zeros(layer.weights.shape[0])
        for i in range(layer.weights.shape[0]):
            acc = layer.bias[i]
            for j in range(layer.weights.shape[1]):
                acc += layer.weights[i, j] * h[j]
            z[i] = acc
        h = np.where(z > 0, z, 0.0)
    logits = model.cls_head.bias + model.cls_head.weights @ h
    v = float(model.aux_head.bias[0] + model.aux_head.weights[0] @ h)
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
        nn.aux_scores(m, np.zeros((1, 5)))


def two_pass_heads(model, X):
    """Class logits and aux scores, each from its own trunk pass."""
    h_cls = nn._trunk_forward(model, X)[0][-1]
    h_aux = nn._trunk_forward(model, X)[0][-1]
    logits = h_cls @ model.cls_head.weights.T + model.cls_head.bias
    v = h_aux @ model.aux_head.weights.T + model.aux_head.bias
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
        assert nn.aux_scores(model, X).tobytes() == want_scores.tobytes()


def test_aux_score_in_unit_interval():
    rng = np.random.default_rng(11)
    m = nn.init_model(small_arch(), 2)
    s = nn.aux_scores(m, rng.standard_normal((50, 4)) * 10)
    assert np.all((s >= 0.0) & (s <= 1.0))


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(4)
    for _ in range(50):
        z = rng.standard_normal(6) * rng.uniform(0.1, 50)
        p = nn.softmax(z)
        assert abs(p.sum() - 1.0) < 1e-12
        assert np.all(p >= 0)


# ---------------------------------------------------------------- losses


def ce(logits, label):
    """The training pass's mean CE on one row of logits."""
    return nn._cross_entropy(np.asarray(logits, dtype=float)[None, :], np.array([label]))[0]


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
        return nn._mean_bce(np.array([score]), np.array([float(label)]))

    assert abs(bce(0.5, 1) - np.log(2.0)) < 1e-12
    # fully confident and correct: loss about 1e-12, certainly tiny
    assert bce(1.0 - 1e-12, 1) < 1e-9
    # clamped wrong-side scores stay finite
    assert np.isfinite(bce(0.0, 1))
    assert np.isfinite(bce(1.0, 0))
    # the batch loss is the mean over rows
    pair = nn._mean_bce(np.array([0.5, 0.25]), np.array([1.0, 0.0]))
    assert abs(pair - (bce(0.5, 1) + bce(0.25, 0)) / 2) < 1e-15


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
        "cls": lambda: nn._cross_entropy(nn.heads(model, X[:4])[0], y)[0],
        "aux": lambda: nn._mean_bce(nn.aux_scores(model, X), ya),
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
    gj, loss = nn._grads_and_loss(model, X, y_cls=y[:5], y_aux=ya)
    gc, lc = _reference_pass(model, X[:5], y_cls=y[:5])
    ga, la = _reference_pass(model, X, y_aux=ya)
    want = np.concatenate([(c + a).ravel() for layer_c, layer_a in zip(gc, ga)
                           for c, a in zip(layer_c, layer_a)])
    assert np.allclose(gj, want, atol=1e-15)
    assert abs(loss - (lc + la)) < 1e-14


def test_backward_empty_batch_raises():
    model = nn.init_model(small_arch(), 0)
    with pytest.raises(ValueError):
        nn.backward(model, np.zeros((0, 4)), y_cls=np.zeros(0, dtype=int),
                    y_aux=np.zeros(0))


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
    m.trunk[0].weights[0, 0] = 1.0
    g = np.zeros_like(m.params)
    g[0] = 0.5  # flat entry 0 is trunk[0].weights[0, 0]
    nn.sgd_step(m.params, g, lr=0.1, weight_decay=0.0)
    assert abs(m.trunk[0].weights[0, 0] - 0.95) < 1e-15
    assert np.all(m.params[1:] == 0.0)

    # weight_decay 0.1, zero gradient: p shrinks by lr*wd*p
    m.trunk[0].weights[0, 0] = 1.0
    g[0] = 0.0
    nn.sgd_step(m.params, g, lr=0.1, weight_decay=0.1)
    assert abs(m.trunk[0].weights[0, 0] - 0.99) < 1e-15


def test_sgd_descends_quadratic():
    # loss = 0.5 * p^2 so grad = p; a step must reduce the loss
    arch = nn.ArchSpec(input_dim=1, hidden_dims=(1,), num_classes=1)
    m = nn.init_model(arch, 1)
    p0 = m.trunk[0].weights[0, 0] = 2.0
    g = np.zeros_like(m.params)
    g[0] = p0  # flat entry 0 is trunk[0].weights[0, 0]
    nn.sgd_step(m.params, g, lr=0.1)
    assert 0.5 * m.trunk[0].weights[0, 0] ** 2 < 0.5 * p0**2


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
    score_before = nn.aux_scores(model, x)[0]
    logits_before = nn.heads(model, x)[0]

    # step on everything but the aux head; its params stay put but its
    # output must move because the trunk is physically shared
    X, y, ya = random_batch(rng, model, 16)
    aux = aux_head_slice(model.arch)
    aux_before = model.aux_head.weights.copy()
    for _ in range(20):
        g = nn.backward(model, X, y_cls=y, y_aux=ya)
        g[aux] = 0.0
        nn.sgd_step(model.params, g, lr=0.5)
    assert np.array_equal(aux_before, model.aux_head.weights)
    score_after = nn.aux_scores(model, x)[0]
    logits_after = nn.heads(model, x)[0]
    assert not np.allclose(logits_before, logits_after)
    assert score_after != score_before


def test_copy_into_preserves_aliasing():
    m1 = nn.init_model(small_arch(), 0)
    buffer, trunk_w, aux_w = m1.params, m1.trunk[0].weights, m1.aux_head.weights
    src = nn.init_model(small_arch(), 99)
    nn.copy_into(m1, src)
    # copy_into writes into m1's own buffer, so views taken before see the new values
    assert m1.params is buffer
    assert np.array_equal(trunk_w, src.trunk[0].weights)
    assert np.array_equal(aux_w, src.aux_head.weights)
    assert not np.shares_memory(m1.params, src.params)
