"""Forward/backward correctness of the dense network core."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcni.models import FAMILIES, build_mlp
from mcni.nn import (ContractError, DenseLayer, Network,
                     ShapeError, loss_cross_entropy, loss_mse, softmax,
                     stack_networks)
from mcni.noise import NoiseSpec, NoisyDenseLayer
from mcni.optim import Penalty

from oracles import fd_gradient, task_loss_oracle


def single_layer(W, b, activation="identity", task="regression"):
    return Network([DenseLayer(W=np.asarray(W, float),
                               b=np.asarray(b, float),
                               activation=activation)], task=task)


# ---------------------------------------------------------------------------
# forward

def test_identity_layer_passes_input_through():
    net = single_layer(np.eye(2), [0.0, 0.0])
    out, _ = net.forward(np.array([[1.0, 2.0]]))
    assert np.array_equal(out, [[1.0, 2.0]])


def test_relu_layer_clamps_negative():
    net = single_layer(np.eye(2), [0.0, 0.0], activation="relu")
    out, _ = net.forward(np.array([[-1.0, 2.0]]))
    assert np.array_equal(out, [[0.0, 2.0]])


def test_forward_matches_hand_rolled_matmul():
    """One hidden tanh layer, checked against explicit scalar loops."""
    rng = np.random.default_rng(11)
    W1, b1 = rng.normal(size=(3, 4)), rng.normal(size=4)
    W2, b2 = rng.normal(size=(4, 2)), rng.normal(size=2)
    net = Network([DenseLayer(W=W1, b=b1, activation="tanh"),
                   DenseLayer(W=W2, b=b2)])
    x = rng.normal(size=(5, 3))
    out, _ = net.forward(x)

    for n in range(5):
        h = [np.tanh(sum(x[n, i] * W1[i, j] for i in range(3)) + b1[j])
             for j in range(4)]
        for k in range(2):
            o = sum(h[j] * W2[j, k] for j in range(4)) + b2[k]
            assert abs(out[n, k] - o) < 1e-12


def test_forward_rejects_wrong_feature_count():
    net = single_layer(np.eye(2), [0.0, 0.0])
    with pytest.raises(ShapeError, match="layer 0"):
        net.forward(np.ones((1, 3)))


def test_forward_rejects_a_stale_call():
    """Forward once took a mode before the generator: such a call fails
    loudly instead of passing the generators on as frozen noise."""
    net = single_layer(np.eye(2), [0.0, 0.0])
    x, rng = np.ones((1, 2)), np.random.default_rng(0)
    with pytest.raises(TypeError):
        net.forward(x, "train")
    with pytest.raises(TypeError):
        net.forward(x, "train", rng)
    with pytest.raises(TypeError):
        net.forward(x, [rng, "eval"])
    net.forward(x, rng)
    net.forward(x, [rng])


def test_stack_rejects_a_lone_generator():
    nets = [build_mlp("noise_fixed", 2, [3], 1, rng=np.random.default_rng(s))
            for s in (1, 2)]
    with pytest.raises(ContractError, match="one generator per member"):
        stack_networks(nets).forward(np.ones((1, 2)), np.random.default_rng(0))


def test_single_net_rejects_several_generators():
    """Four generators for a 4-[4]-4 net once drew each weight row from a
    different generator, silently."""
    net = build_mlp("noise_fixed", 4, [4], 4, rng=np.random.default_rng(3))
    rngs = [np.random.default_rng(s) for s in range(4)]
    with pytest.raises(ContractError, match="one generator"):
        net.forward(np.ones((2, 4)), rngs)
    with pytest.raises(ContractError, match="one generator"):
        net.forward(np.ones((2, 4)), rngs[:2])
    # a one-element sequence is that generator
    alone, _ = net.forward(np.ones((2, 4)), np.random.default_rng(5))
    wrapped, _ = net.forward(np.ones((2, 4)), [np.random.default_rng(5)])
    assert np.array_equal(alone, wrapped)


def test_softmax_is_not_a_layer_activation():
    with pytest.raises(ValueError, match="unknown activation"):
        DenseLayer(W=np.eye(2), b=np.zeros(2), activation="softmax")


def test_mismatched_stack_names_layer_index():
    with pytest.raises(ShapeError, match="layer 1"):
        Network([DenseLayer(W=np.ones((2, 3)), b=np.zeros(3)),
                 DenseLayer(W=np.ones((4, 1)), b=np.zeros(1))])


def test_deterministic_forward_is_pure():
    net = single_layer(np.eye(3) * 0.5, [1.0, 2.0, 3.0], activation="sigmoid")
    x = np.random.default_rng(0).normal(size=(4, 3))
    a, _ = net.forward(x)
    b, _ = net.forward(x)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# backward

def test_zero_output_grad_gives_zero_gradients():
    rng = np.random.default_rng(2)
    net = Network([DenseLayer.create(3, 5, "tanh", rng),
                   DenseLayer.create(5, 2, "identity", rng)])
    out, trace = net.forward(rng.normal(size=(6, 3)))
    grad = net.backward(trace, np.zeros_like(out))
    assert grad.shape == net.flat.shape and np.all(grad == 0.0)


def test_linear_mse_gradient_closed_form():
    """Single linear layer, one sample: dL/dW = x^T (pred - y) * 2/D."""
    rng = np.random.default_rng(3)
    W, b = rng.normal(size=(4, 2)), rng.normal(size=2)
    net = single_layer(W, b)
    x = rng.normal(size=(1, 4))
    y = rng.normal(size=(1, 2))
    pred, trace = net.forward(x)
    grads = net.views(net.backward(trace, loss_mse(pred, y)[1]))
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
        loss_fn = loss_mse
    else:
        y = rng.integers(0, 2, size=4)
        loss_fn = loss_cross_entropy

    out, trace = net.forward(x)
    analytic = net.views(net.backward(trace, loss_fn(out, y)[1]))

    params = net.parameters()
    flat, layout = _flatten(params)

    def f(vec):
        _load_flat(params, np.asarray(vec), layout)
        o, _ = net.forward(x)
        return loss_fn(o, y)[0]

    fd = np.asarray(fd_gradient(f, list(flat), h=1e-5))
    _load_flat(params, flat, layout)

    flat_analytic = np.concatenate([analytic[k].ravel() for k, _, _ in layout])
    denom = np.maximum(np.maximum(np.abs(fd), np.abs(flat_analytic)), 1e-8)
    assert np.max(np.abs(fd - flat_analytic) / denom) < 1e-4


def test_stale_trace_is_rejected():
    rng = np.random.default_rng(4)
    net_a = Network([DenseLayer.create(2, 2, "tanh", rng)])
    net_b = Network([DenseLayer.create(2, 2, "tanh", rng)])
    out, trace = net_a.forward(rng.normal(size=(1, 2)))
    with pytest.raises(ContractError):
        net_b.backward(trace, np.zeros_like(out))


def test_output_grad_shape_checked():
    net = single_layer(np.eye(2), [0.0, 0.0])
    out, trace = net.forward(np.ones((3, 2)))
    with pytest.raises(ShapeError):
        net.backward(trace, np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# the parameter block

def test_parameters_are_views_of_the_block():
    rng = np.random.default_rng(30)
    net = learned_noise_net(30)
    layer = net.layers[0]
    assert net.flat.shape == (3 * 5 + 5 + 1 + 5 * 2 + 2,)
    assert all(np.shares_memory(p, net.flat) for p in net.parameters().values())
    layer.W[1, 2] = 7.5
    layer.alpha[...] = 0.25
    params = net.parameters()
    assert params["L0.W"][1, 2] == 7.5 and params["L0.alpha"] == 0.25
    net.flat[:] = rng.normal(size=net.flat.shape)
    assert np.array_equal(layer.W, net.flat[:15].reshape(3, 5))
    assert np.array_equal(net.layers[1].b, net.flat[-2:])


def test_take_gives_the_block_rows_kept():
    nets = [learned_noise_net(s) for s in (31, 32, 33, 34)]
    stack = stack_networks(nets)
    for row, net in enumerate(nets):
        assert np.array_equal(stack.flat[row], net.flat)
    kept = stack.take([3, 1])
    assert np.array_equal(kept.flat, stack.flat[[3, 1]])
    assert np.shares_memory(kept.layers[0].W, kept.flat)
    assert np.array_equal(kept.layers[0].alpha, stack.layers[0].alpha[[3, 1]])


def mlp(family="deterministic", seed=0, output_dim=1, **kw):
    return build_mlp(family, 2, [3], output_dim,
                     rng=np.random.default_rng(seed), **kw)


def relevel(net, alpha):
    """``net`` with every noise level set to ``alpha``, its spec unchanged."""
    for layer in net.layers:
        if hasattr(layer, "alpha"):
            layer.alpha[...] = alpha
    return net


# pairs of members that must not stack, and the words of the refusal
UNSTACKABLE = {
    "activation": (lambda: mlp(activation="relu"),
                   lambda: mlp(activation="tanh"), "activation"),
    "noise mode": (lambda: mlp("noise_fixed"), lambda: mlp("noise_learned"),
                   "spec"),
    "alpha penalty": (lambda: mlp("noise_learned", alpha_penalty_lambda=0.0),
                      lambda: mlp("noise_learned", alpha_penalty_lambda=0.1),
                      "spec"),
    "layer type": (lambda: mlp("deterministic"), lambda: mlp("noise_fixed"),
                   "layer types"),
    "task": (lambda: mlp(output_dim=2),
             lambda: mlp(output_dim=2, task="classification"), "task"),
    "a stack": (lambda: stack_networks([mlp(seed=1), mlp(seed=2)]),
                lambda: mlp(seed=3), "single nets"),
    "hidden width": (lambda: mlp(),
                     lambda: build_mlp("deterministic", 2, [4], 1,
                                       rng=np.random.default_rng(0)),
                     "W shape"),
    "input dimension": (lambda: mlp(),
                        lambda: build_mlp("deterministic", 3, [3], 1,
                                          rng=np.random.default_rng(0)),
                        "W shape"),
}


@pytest.mark.parametrize("case", sorted(UNSTACKABLE))
def test_stack_rejects_members_that_differ_beyond_their_values(case):
    first, second, words = UNSTACKABLE[case]
    with pytest.raises(ShapeError, match=words):
        stack_networks([first(), second()])


STACKABLE = {
    "weights": [mlp(seed=s) for s in (1, 2)],
    "alpha_init": [mlp("noise_learned", seed=1, noise_level=0.01),
                   mlp("noise_learned", seed=1, noise_level=0.3)],
    "noise level": [relevel(mlp("noise_fixed", seed=s), a)
                    for s, a in ((1, 0.0), (2, 0.2))],
    "drop rate": [mlp("mc_dropout", seed=s, dropout_p=p)
                  for s, p in ((1, 0.0), (2, 0.5), (3, 0.1))],
}


@pytest.mark.parametrize("case", sorted(STACKABLE))
def test_stack_holds_members_that_differ_in_values(case):
    nets = STACKABLE[case]
    stack = stack_networks(nets)
    assert stack.members == len(nets)
    for row, net in enumerate(nets):
        assert np.array_equal(stack.flat[row], net.flat)
        for lone, stacked in zip(net.layers, stack.layers):
            for name in ("alpha", "p"):
                if hasattr(lone, name):
                    assert getattr(stacked, name)[row] == getattr(lone, name)


def test_stacked_dropout_passes_on_a_reused_trace_equal_fresh_ones():
    """A reused trace keeps its uniform draws' array, into which every
    member, the p = 0 one too, draws its own slice."""
    stack = stack_networks(STACKABLE["drop rate"])
    x = np.random.default_rng(40).normal(size=(4, 2))
    _, trace = stack.forward(x, [np.random.default_rng(s) for s in (1, 2, 3)])
    for seed in (4, 5):
        out, _ = stack.forward(x, [np.random.default_rng([seed, m])
                                   for m in range(3)], reuse=trace)
        fresh, _ = stack.forward(x, [np.random.default_rng([seed, m])
                                     for m in range(3)])
        assert np.array_equal(out, fresh)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), family=st.sampled_from(FAMILIES),
       members=st.integers(1, 5))
def test_take_of_a_stack_is_the_stack_of_the_kept(data, family, members):
    levels = st.sampled_from([0.0, 0.01, 0.3])
    nets = [relevel(mlp(family, seed=s, dropout_p=data.draw(levels)),
                    data.draw(levels)) for s in range(members)]
    order = data.draw(st.permutations(range(members)))
    keep = order[:data.draw(st.integers(1, members))]
    kept = stack_networks(nets).take(keep)
    direct = stack_networks([nets[k] for k in keep])
    assert np.array_equal(kept.flat, direct.flat)
    for a, b in zip(kept.layers, direct.layers):
        assert type(a) is type(b)
        for f in fields(a):
            x, y = getattr(a, f.name), getattr(b, f.name)
            if isinstance(x, np.ndarray):
                assert x.shape == y.shape and np.array_equal(x, y), f.name
            else:
                assert x == y, f.name


def test_mixed_decay_penalty_leaves_negative_zero_gradients():
    """Where a member's coefficient is zero its gradient entries are left
    bit for bit, -0.0 included; the others gain 2 c p."""
    decays = [0.0, 0.02]
    stack = stack_networks([learned_noise_net(s, lam=0.0) for s in (35, 36)])
    grad = np.random.default_rng(37).normal(size=stack.flat.shape)
    grad[:, ::3] = -0.0
    before = grad.copy()
    Penalty(stack, decays).terms(stack, grad)
    assert np.array_equal(np.signbit(grad[0]), np.signbit(before[0]))
    assert np.array_equal(grad[0], before[0])
    assert np.all(grad[0, ::3] == 0.0) and np.all(np.signbit(grad[0, ::3]))
    grads, befores = stack.views(grad), stack.views(before)
    for name, p in stack.parameters().items():
        c = 0.0 if name.endswith(".alpha") else decays[1]
        expected = befores[name][1] + 2.0 * c * p[1] if c else befores[name][1]
        assert np.array_equal(grads[name][1], expected), name
        assert np.array_equal(np.signbit(grads[name][1]), np.signbit(expected))


# ---------------------------------------------------------------------------
# losses

def test_mse_identical_inputs_zero():
    a = np.random.default_rng(5).normal(size=(3, 2))
    assert loss_mse(a, a)[0] == 0.0


def test_mse_hand_value():
    # (9 + 16) / 2
    assert loss_mse(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]]))[0] == 12.5


def test_mse_matches_loop_oracle():
    rng = np.random.default_rng(6)
    pred, y = rng.normal(size=(7, 3)), rng.normal(size=(7, 3))
    total = sum((pred[i, j] - y[i, j]) ** 2 for i in range(7) for j in range(3))
    assert abs(loss_mse(pred, y)[0] - total / 21.0) < 1e-12


def test_mse_target_must_match_a_single_prediction():
    # only a stack's (S, batch, out) prediction may share a target; a row
    # target (out,) must not broadcast over a single net's batch
    with pytest.raises(ShapeError):
        loss_mse(np.zeros((4, 2)), np.array([1.0, 2.0]))
    with pytest.raises(ShapeError):
        loss_mse(np.zeros((3, 3)), np.ones(3))


def test_cross_entropy_uniform_logits():
    logits = np.zeros((4, 10))
    labels = np.array([0, 3, 7, 9])
    assert abs(loss_cross_entropy(logits, labels)[0] - np.log(10.0)) < 1e-12


def test_cross_entropy_survives_huge_logits():
    loss = loss_cross_entropy(np.array([[1000.0, 0.0]]), np.array([0]))[0]
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
    assert abs(loss_cross_entropy(logits, labels)[0] - naive / 6.0) < 1e-10


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
        assert loss_cross_entropy(logits, labels)[0] >= 0.0


@pytest.mark.parametrize("task", ["regression", "classification"])
@pytest.mark.parametrize("shape", [(32, 2), (1, 32, 2), (4, 32, 1), (3, 5, 4)])
@pytest.mark.parametrize("shared_target", [True, False])
def test_task_loss_value_and_gradient_match_separate_formulas(task, shape,
                                                              shared_target):
    """One call gives, bit for bit, the value and the gradient that separate
    value and gradient formulas give, for a single and a stacked prediction."""
    rng = np.random.default_rng([len(shape), shape[-1], shared_target])
    pred = rng.normal(size=shape) * 4.0
    rows = shape[-2:-1] if shared_target else shape[:-1]
    if task == "regression":
        target, loss_fn = rng.normal(size=rows + shape[-1:]), loss_mse
    else:
        target, loss_fn = rng.integers(0, shape[-1], size=rows), loss_cross_entropy
        pred[..., 0, 0] = 1e3                   # a logit that exp overflows
    value, grad = loss_fn(pred, target)
    want_value, want_grad = task_loss_oracle(task, pred, target)
    assert np.shape(value) == shape[:-2] and grad.shape == shape
    assert np.array_equal(value, want_value)
    assert np.array_equal(grad, want_grad)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(9)
    p = softmax(rng.normal(size=(8, 6)) * 5.0)
    assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-12


# ---------------------------------------------------------------------------
# l2 penalty: weight decay through optim.Penalty

def penalty_terms(net, decay):
    """The penalty's value and its gradient alone, as name -> array: the
    gradient is added into a block of -0.0, which it leaves bit for bit."""
    grad = np.full_like(net.flat, -0.0)
    return Penalty(net, decay).terms(net, grad), net.views(grad)


def penalty_value(net, decay):
    return penalty_terms(net, decay)[0]


def test_l2_zero_lambda_zero():
    net = single_layer(np.full((2, 2), 3.0), [1.0, 1.0])
    assert penalty_value(net, 0.0) == 0.0
    grad = np.full_like(net.flat, -0.0)
    assert Penalty(net, 0.0).terms(net, grad) == 0.0
    assert np.all(grad == 0.0) and np.all(np.signbit(grad))


def test_l2_hand_value():
    # 0.5 * 2^2, bias zero
    net = single_layer([[2.0]], [0.0])
    assert penalty_value(net, 0.5) == 2.0


def test_l2_matches_loop_oracle():
    rng = np.random.default_rng(10)
    net = Network([DenseLayer.create(3, 4, "relu", rng),
                   DenseLayer.create(4, 2, "identity", rng)])
    lam = 0.037
    total = 0.0
    for p in net.parameters().values():
        total += lam * sum(v * v for v in p.ravel())
    assert abs(penalty_value(net, lam) - total) < 1e-12


def test_l2_per_group_coefficients():
    # W and b take the weight decay, a learned alpha -lambda:
    # 1 * 2^2 + 1 * 3^2 - 0.5 * 0.5^2
    spec = NoiseSpec(mode="learned", alpha_penalty_lambda=0.5)
    net = Network([NoisyDenseLayer(W=np.array([[2.0]]), b=np.array([3.0]),
                                   spec=spec, alpha=0.5)])
    total, grads = penalty_terms(net, 1.0)
    assert total == 4.0 + 9.0 - 0.125
    assert grads["L0.W"][0, 0] == 4.0
    assert grads["L0.b"][0] == 6.0
    assert grads["L0.alpha"] == -0.5


def learned_noise_net(seed, lam=0.2):
    rng = np.random.default_rng(seed)
    spec = NoiseSpec(mode="learned", alpha_init=0.3, alpha_penalty_lambda=lam)
    return Network([NoisyDenseLayer.create(3, 5, "relu", rng, spec=spec),
                    DenseLayer.create(5, 2, "identity", rng)])


def test_l2_terms_bit_identical_to_reference_sum_and_grads():
    net = learned_noise_net(11)
    for decay in (0.037, 0.0):
        total, grads = penalty_terms(net, decay)
        c_block = np.zeros_like(net.flat)
        coefficients = net.views(c_block)
        for name, p in net.parameters().items():
            c = -0.2 if name.endswith(".alpha") else decay
            coefficients[name][...] = c
            if c == 0.0:
                assert np.all(grads[name] == 0.0)
                assert np.all(np.signbit(grads[name])), name
                continue
            assert np.array_equal(grads[name], 2.0 * c * p), name
        assert total == np.sum(c_block * net.flat * net.flat)
    plain = learned_noise_net(11, lam=0.0)
    assert penalty_value(plain, 0.0) == 0.0


def test_l2_stacked_members_equal_lone_values():
    """A member whose decay is zero gets -0.0, the additive identity, in
    the value and in every W and b gradient of the stack."""
    decays = [0.037, 0.0, 1e-5]
    nets = [learned_noise_net(s) for s in (12, 13, 14)]
    stack = stack_networks(nets)
    total, grads = penalty_terms(stack, decays)
    for m, (net, decay) in enumerate(zip(nets, decays)):
        lone_total, lone_grads = penalty_terms(net, decay)
        assert total[m] == lone_total
        for name, g in lone_grads.items():
            assert np.array_equal(grads[name][m].reshape(g.shape), g), name
            if decay == 0.0 and not name.endswith(".alpha"):
                assert np.all(g == 0.0) and np.all(np.signbit(g)), name


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_zero_coefficient_leaves_the_gradient_of_a_non_finite_parameter(bad):
    """0 * inf is NaN, yet a gradient entry whose coefficient is zero is
    left bit for bit when its parameter is inf or NaN: a learned alpha at
    lambda = 0, and every entry of a stack member at decay 0."""
    net = learned_noise_net(38, lam=0.0)
    net.parameters()["L0.alpha"][...] = bad
    stack = stack_networks([learned_noise_net(s, lam=0.0) for s in (39, 40)])
    stack.flat[0] = bad
    for model, decay in ((net, 0.01), (stack, [0.0, 0.01])):
        grad = np.random.default_rng(41).normal(size=model.flat.shape)
        before = grad.copy()
        with np.errstate(invalid="ignore"):
            Penalty(model, decay).terms(model, grad)
        finite = np.isfinite(model.flat)
        assert np.array_equal(grad[~finite], before[~finite])
        assert np.all(np.isfinite(grad[finite]))


def test_l2_negative_lambda_rejected():
    net = single_layer([[1.0]], [0.0])
    with pytest.raises(ValueError, match="non-negative"):
        penalty_value(net, -0.1)
    with pytest.raises(ValueError, match="non-negative"):
        penalty_value(net, float("nan"))
    with pytest.raises(ValueError, match="non-negative"):
        Penalty(stack_networks([net, net]), [0.1, -1.0])
