"""Forward/backward correctness of the dense network core."""

import numpy as np
import pytest

from mcni.nn import (DETERMINISTIC, ContractError, DenseLayer, Network,
                     ShapeError, _l2_terms, l2_penalty,
                     loss_cross_entropy, loss_cross_entropy_grad, loss_mse,
                     loss_mse_grad, softmax)
from mcni.noise import NoiseSpec, NoisyDenseLayer

from oracles import fd_gradient


def single_layer(W, b, activation="identity", task="regression"):
    return Network([DenseLayer(W=np.asarray(W, float),
                               b=np.asarray(b, float),
                               activation=activation)], task=task)


# ---------------------------------------------------------------------------
# forward

def test_identity_layer_passes_input_through():
    net = single_layer(np.eye(2), [0.0, 0.0])
    out, _ = net.forward(np.array([[1.0, 2.0]]), DETERMINISTIC)
    assert np.array_equal(out, [[1.0, 2.0]])


def test_relu_layer_clamps_negative():
    net = single_layer(np.eye(2), [0.0, 0.0], activation="relu")
    out, _ = net.forward(np.array([[-1.0, 2.0]]), DETERMINISTIC)
    assert np.array_equal(out, [[0.0, 2.0]])


def test_forward_matches_hand_rolled_matmul():
    """One hidden tanh layer, checked against explicit scalar loops."""
    rng = np.random.default_rng(11)
    W1, b1 = rng.normal(size=(3, 4)), rng.normal(size=4)
    W2, b2 = rng.normal(size=(4, 2)), rng.normal(size=2)
    net = Network([DenseLayer(W=W1, b=b1, activation="tanh"),
                   DenseLayer(W=W2, b=b2)])
    x = rng.normal(size=(5, 3))
    out, _ = net.forward(x, DETERMINISTIC)

    for n in range(5):
        h = [np.tanh(sum(x[n, i] * W1[i, j] for i in range(3)) + b1[j])
             for j in range(4)]
        for k in range(2):
            o = sum(h[j] * W2[j, k] for j in range(4)) + b2[k]
            assert abs(out[n, k] - o) < 1e-12


def test_forward_rejects_wrong_feature_count():
    net = single_layer(np.eye(2), [0.0, 0.0])
    with pytest.raises(ShapeError, match="layer 0"):
        net.forward(np.ones((1, 3)), DETERMINISTIC)


def test_mismatched_stack_names_layer_index():
    with pytest.raises(ShapeError, match="layer 1"):
        Network([DenseLayer(W=np.ones((2, 3)), b=np.zeros(3)),
                 DenseLayer(W=np.ones((4, 1)), b=np.zeros(1))])


def test_deterministic_forward_is_pure():
    net = single_layer(np.eye(3) * 0.5, [1.0, 2.0, 3.0], activation="sigmoid")
    x = np.random.default_rng(0).normal(size=(4, 3))
    a, _ = net.forward(x, DETERMINISTIC)
    b, _ = net.forward(x, DETERMINISTIC)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# backward

def test_zero_output_grad_gives_zero_gradients():
    rng = np.random.default_rng(2)
    net = Network([DenseLayer.create(3, 5, "tanh", rng),
                   DenseLayer.create(5, 2, "identity", rng)])
    out, trace = net.forward(rng.normal(size=(6, 3)), DETERMINISTIC)
    grads = net.backward(trace, np.zeros_like(out))
    assert all(np.all(g == 0.0) for g in grads.values())


def test_linear_mse_gradient_closed_form():
    """Single linear layer, one sample: dL/dW = x^T (pred - y) * 2/D."""
    rng = np.random.default_rng(3)
    W, b = rng.normal(size=(4, 2)), rng.normal(size=2)
    net = single_layer(W, b)
    x = rng.normal(size=(1, 4))
    y = rng.normal(size=(1, 2))
    pred, trace = net.forward(x, DETERMINISTIC)
    grads = net.backward(trace, loss_mse_grad(pred, y))
    expected = x.T @ (pred - y) * 2.0 / pred.size
    assert np.max(np.abs(grads["L0.W"] - expected)) < 1e-12


def _flatten(params):
    return np.concatenate([p.ravel() for p in params.values()]), \
        [(k, p.shape, p.size) for k, p in params.items()]


def _load_flat(params, flat, layout):
    i = 0
    for key, shape, size in layout:
        np.copyto(params[key], flat[i:i + size].reshape(shape))
        i += size


@pytest.mark.parametrize("activation", ["tanh", "sigmoid", "relu"])
@pytest.mark.parametrize("task", ["regression", "classification"])
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_backward_matches_finite_differences(activation, task, seed):
    rng = np.random.default_rng([seed, hash(activation) % 1000])
    net = Network([DenseLayer.create(3, 6, activation, rng),
                   DenseLayer.create(6, 2, "identity", rng)], task=task)
    x = rng.normal(size=(4, 3))
    if task == "regression":
        y = rng.normal(size=(4, 2))
        loss_fn, grad_fn = loss_mse, loss_mse_grad
    else:
        y = rng.integers(0, 2, size=4)
        loss_fn, grad_fn = loss_cross_entropy, loss_cross_entropy_grad

    out, trace = net.forward(x, DETERMINISTIC)
    analytic = net.backward(trace, grad_fn(out, y))

    params = net.parameters()
    flat, layout = _flatten(params)

    def f(vec):
        _load_flat(params, np.asarray(vec), layout)
        o, _ = net.forward(x, DETERMINISTIC)
        return loss_fn(o, y)

    fd = np.asarray(fd_gradient(f, list(flat), h=1e-5))
    _load_flat(params, flat, layout)

    flat_analytic = np.concatenate([analytic[k].ravel() for k, _, _ in layout])
    denom = np.maximum(np.maximum(np.abs(fd), np.abs(flat_analytic)), 1e-8)
    assert np.max(np.abs(fd - flat_analytic) / denom) < 1e-4


def test_stale_trace_is_rejected():
    rng = np.random.default_rng(4)
    net_a = Network([DenseLayer.create(2, 2, "tanh", rng)])
    net_b = Network([DenseLayer.create(2, 2, "tanh", rng)])
    out, trace = net_a.forward(rng.normal(size=(1, 2)), DETERMINISTIC)
    with pytest.raises(ContractError):
        net_b.backward(trace, np.zeros_like(out))


def test_output_grad_shape_checked():
    net = single_layer(np.eye(2), [0.0, 0.0])
    out, trace = net.forward(np.ones((3, 2)), DETERMINISTIC)
    with pytest.raises(ShapeError):
        net.backward(trace, np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# losses

def test_mse_identical_inputs_zero():
    a = np.random.default_rng(5).normal(size=(3, 2))
    assert loss_mse(a, a) == 0.0


def test_mse_hand_value():
    # (9 + 16) / 2
    assert loss_mse(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]])) == 12.5


def test_mse_matches_loop_oracle():
    rng = np.random.default_rng(6)
    pred, y = rng.normal(size=(7, 3)), rng.normal(size=(7, 3))
    total = sum((pred[i, j] - y[i, j]) ** 2 for i in range(7) for j in range(3))
    assert abs(loss_mse(pred, y) - total / 21.0) < 1e-12


def test_cross_entropy_uniform_logits():
    logits = np.zeros((4, 10))
    labels = np.array([0, 3, 7, 9])
    assert abs(loss_cross_entropy(logits, labels) - np.log(10.0)) < 1e-12


def test_cross_entropy_survives_huge_logits():
    loss = loss_cross_entropy(np.array([[1000.0, 0.0]]), np.array([0]))
    assert np.isfinite(loss)
    assert loss < 1e-12


def test_cross_entropy_matches_naive_softmax():
    rng = np.random.default_rng(7)
    logits = rng.normal(size=(6, 4)) * 3.0
    labels = rng.integers(0, 4, size=6)
    naive = 0.0
    for i in range(6):
        e = np.exp(logits[i])
        naive += -np.log(e[labels[i]] / e.sum())
    assert abs(loss_cross_entropy(logits, labels) - naive / 6.0) < 1e-10


def test_cross_entropy_label_validation():
    logits = np.zeros((2, 3))
    with pytest.raises(ShapeError):
        loss_cross_entropy(logits, np.array([0, 3]))
    with pytest.raises(ShapeError):
        loss_cross_entropy(logits, np.array([0.5, 1.5]))


def test_cross_entropy_nonnegative():
    rng = np.random.default_rng(8)
    for _ in range(20):
        logits = rng.normal(size=(3, 5)) * 2.0
        labels = rng.integers(0, 5, size=3)
        assert loss_cross_entropy(logits, labels) >= 0.0


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(9)
    p = softmax(rng.normal(size=(8, 6)) * 5.0)
    assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-12


# ---------------------------------------------------------------------------
# l2 penalty

def test_l2_zero_lambda_zero():
    net = single_layer(np.full((2, 2), 3.0), [1.0, 1.0])
    assert l2_penalty(net, 0.0) == 0.0


def test_l2_hand_value():
    # 0.5 * 2^2, bias zero
    net = single_layer([[2.0]], [0.0])
    assert l2_penalty(net, 0.5) == 2.0


def test_l2_matches_loop_oracle():
    rng = np.random.default_rng(10)
    net = Network([DenseLayer.create(3, 4, "relu", rng),
                   DenseLayer.create(4, 2, "identity", rng)])
    lam = 0.037
    total = 0.0
    for p in net.parameters().values():
        total += lam * sum(v * v for v in p.ravel())
    assert abs(l2_penalty(net, lam) - total) < 1e-12


def test_l2_per_group_coefficients():
    net = single_layer([[2.0]], [3.0])
    lambdas = {"L0.W": 1.0, "L0.b": 0.5}
    assert l2_penalty(net, lambdas) == 4.0 + 0.5 * 9.0
    grads = _l2_terms(net, lambdas)[1]
    assert grads["L0.W"][0, 0] == 4.0
    assert grads["L0.b"][0] == 3.0


def test_l2_terms_bit_identical_to_reference_sum_and_grads():
    rng = np.random.default_rng(11)
    spec = NoiseSpec(mode="learned")
    net = Network([NoisyDenseLayer.create(3, 5, "relu", rng, spec=spec),
                   DenseLayer.create(5, 2, "identity", rng)])
    mapping = {"L0.W": 0.3, "L1.b": 1e-5, "L0.alpha": 7.0, "L9.W": 2.0}
    for lambdas in (0.037, mapping):
        total, grads = _l2_terms(net, lambdas)
        ref_total, ref_grads = 0.0, {}
        for name, p in net.parameters().items():
            lam = (lambdas.get(name, 0.0) if isinstance(lambdas, dict)
                   else lambdas)
            if name.endswith(".alpha") or lam == 0.0:
                continue
            ref_total += lam * float(np.sum(p * p))
            ref_grads[name] = 2.0 * lam * p
        assert total == ref_total
        assert grads.keys() == ref_grads.keys()
        for name, g in ref_grads.items():
            assert np.array_equal(grads[name], g)
        assert l2_penalty(net, lambdas) == total
    assert set(_l2_terms(net, mapping)[1]) == {"L0.W", "L1.b"}
    assert _l2_terms(net, 0.0) == (0.0, {})


def test_l2_negative_lambda_rejected():
    net = single_layer([[1.0]], [0.0])
    with pytest.raises(ValueError):
        l2_penalty(net, -0.1)
    with pytest.raises(ValueError, match="L0.b"):
        _l2_terms(net, {"L0.b": -1.0})
