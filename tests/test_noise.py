"""Weight-noise mechanics: scale, sampling, alpha gradients, dropout."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcni.mc import welford_mean_var
from mcni.nn import Network, ShapeError
from mcni.noise import (DropoutLayer, NoiseSpec, NoisyDenseLayer,
                        alpha_gradient, layer_weight_std, sample_noise)
from mcni.optim import training_loss_and_grads


def noisy_layer(W, alpha, spec=None, activation="identity"):
    W = np.asarray(W, float)
    spec = spec or NoiseSpec()
    layer = NoisyDenseLayer(W=W, b=np.zeros(W.shape[1]), activation=activation,
                            spec=spec, alpha=None)
    layer.alpha = np.asarray(alpha, float).reshape(layer.alpha.shape)
    return layer


# ---------------------------------------------------------------------------
# sigma_l

def test_constant_weights_zero_std():
    assert layer_weight_std(np.ones((2, 2))) == 0.0


def test_symmetric_pair_unit_std():
    # population convention: N in the denominator
    assert layer_weight_std(np.array([[-1.0, 1.0]])) == 1.0


def test_std_matches_two_pass_loop():
    rng = np.random.default_rng(1)
    W = rng.normal(size=(5, 7))
    mean = sum(W.ravel()) / W.size
    var = sum((v - mean) ** 2 for v in W.ravel()) / W.size
    assert abs(layer_weight_std(W) - np.sqrt(var)) < 1e-12


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(1, 40), cols=st.integers(1, 40),
       log_scale=st.floats(-8.0, 6.0), offset=st.floats(-1e3, 1e3),
       transpose=st.booleans(), seed=st.integers(0, 2**32 - 1),
       members=st.integers(1, 4))
def test_std_is_bit_identical_to_np_std(rows, cols, log_scale, offset,
                                        transpose, seed, members):
    rng = np.random.default_rng(seed)
    W = rng.normal(size=(rows, cols))
    W = W * 10.0 ** log_scale + offset
    if transpose:
        W = W.T                  # non-contiguous input
    assert layer_weight_std(W) == float(np.std(W))
    # a stack's weights: a (S, fan_in, fan_out) view of a parameter block
    block = rng.normal(size=(members, rows * cols + 3))
    block = block * 10.0 ** log_scale + offset
    stacked = np.reshape(block[:, 2:-1], (members, rows, cols), copy=False)
    std = layer_weight_std(stacked)
    assert std.shape == (members, 1, 1)
    assert list(std.ravel()) == [np.std(w) for w in stacked]


def test_empty_weight_matrix_rejected():
    with pytest.raises(ShapeError):
        layer_weight_std(np.empty((0, 2)))


# ---------------------------------------------------------------------------
# NoiseSpec validation

def test_spec_rejects_bad_fields():
    with pytest.raises(ValueError):
        NoiseSpec(mode="other")
    with pytest.raises(ValueError):
        NoiseSpec(alpha_init=-0.1)
    with pytest.raises(ValueError):
        NoiseSpec(alpha_penalty_lambda=-1.0)


def test_alpha_is_one_scalar_per_layer():
    spec = NoiseSpec(alpha_init=0.1)
    layer = NoisyDenseLayer(W=np.zeros((2, 3)), b=np.zeros(3), spec=spec)
    assert layer.alpha.shape == ()
    with pytest.raises(ShapeError):
        NoisyDenseLayer(W=np.zeros((2, 3)), b=np.zeros(3), spec=spec,
                        alpha=np.zeros(4))


# ---------------------------------------------------------------------------
# sampling

def test_zero_sigma_gives_exact_zero_noise():
    layer = noisy_layer(np.full((3, 4), 0.25), 1.0)
    z = sample_noise(layer, np.random.default_rng(0))
    assert np.all(z == 0.0)


def plus_minus(shape, s):
    """Weights alternating +s and -s, an even count: population std exactly s."""
    signs = np.where(np.arange(np.prod(shape)) % 2 == 0, 1.0, -1.0)
    return s * signs.reshape(shape)


def test_noise_statistics_sigma_two():
    layer = noisy_layer(plus_minus((100, 100), 2.0), 1.0)
    assert layer.weight_std() == 2.0
    z = sample_noise(layer, np.random.default_rng(42))   # 1e4 draws
    draws = [z]
    rng = np.random.default_rng(43)
    for _ in range(99):
        draws.append(sample_noise(layer, rng))
    flat = np.concatenate([d.ravel() for d in draws])    # 1e6 values
    assert abs(flat.mean()) < 0.01
    assert abs(flat.var() - 4.0) / 4.0 < 0.02


def test_noise_seed_reproducible():
    layer = noisy_layer(np.random.default_rng(2).normal(size=(4, 4)), 0.5)
    a = sample_noise(layer, np.random.default_rng(7))
    b = sample_noise(layer, np.random.default_rng(7))
    assert np.array_equal(a, b)


def test_consecutive_draws_differ():
    layer = noisy_layer(np.random.default_rng(3).normal(size=(4, 4)), 0.5)
    rng = np.random.default_rng(8)
    net = Network([layer])
    x = np.ones((1, 4))
    a, _ = net.forward(x, rng)
    b, _ = net.forward(x, rng)
    assert not np.array_equal(a, b)


# ---------------------------------------------------------------------------
# noisy forward

def test_alpha_zero_reduces_to_plain_dense():
    rng = np.random.default_rng(4)
    W = rng.normal(size=(3, 2))
    layer = noisy_layer(W, 0.0)
    net = Network([layer])
    x = rng.normal(size=(5, 3))
    noisy, _ = net.forward(x, np.random.default_rng(9))
    assert np.array_equal(noisy, x @ W)


def test_degenerate_sigma_gives_zero_output():
    # W constant zero, so sigma_l = 0 and the injected term vanishes
    layer = noisy_layer(np.zeros((1, 1)), 1.0)
    net = Network([layer])
    out, _ = net.forward(np.array([[1.0]]), np.random.default_rng(0))
    assert out[0, 0] == 0.0


def test_injected_variance_constant_sigma():
    """alpha=2, sigma=1, W=[[1], [-1]], x=(1, 0): the output is 1 + 2 * eps
    with eps ~ N(0, 1), so its variance approaches 4."""
    layer = noisy_layer(plus_minus((2, 1), 1.0), 2.0)
    assert layer.weight_std() == 1.0
    net = Network([layer])
    rng = np.random.default_rng(10)
    outs = np.array([net.forward(np.array([[1.0, 0.0]]), rng)[0][0, 0]
                     for _ in range(100_000)])
    assert abs(outs.var() - 4.0) / 4.0 < 0.05


def test_deterministic_mode_disables_noise():
    """There is no noise-free mode: a noise-free pass of a noisy layer is a
    pass with zero frozen noise, and it computes the plain layer exactly."""
    rng = np.random.default_rng(5)
    W = rng.normal(size=(2, 2))
    net = Network([noisy_layer(W, 0.8)])
    x = rng.normal(size=(3, 2))
    out, _ = net.forward(x, frozen_noise=[np.zeros_like(W)])
    assert np.array_equal(out, x @ W)


def test_live_mode_without_rng_rejected():
    net = Network([noisy_layer(np.random.default_rng(6).normal(size=(2, 2)), 0.1)])
    with pytest.raises(ValueError):
        net.forward(np.ones((1, 2)))


def test_alpha_zero_network_bit_deterministic():
    """alpha=0 everywhere: repeated live passes agree exactly, variance 0."""
    rng = np.random.default_rng(12)
    layers = [NoisyDenseLayer.create(2, 8, "relu", rng,
                                     spec=NoiseSpec(alpha_init=0.0)),
              NoisyDenseLayer.create(8, 1, "identity", rng,
                                     spec=NoiseSpec(alpha_init=0.0))]
    net = Network(layers)
    x = rng.normal(size=(4, 2))
    passes = np.stack([net.forward(x, np.random.default_rng([12, t]))[0]
                       for t in range(20)])
    assert all(np.array_equal(passes[t], passes[0]) for t in range(20))
    _, var = welford_mean_var(passes)
    assert np.all(var == 0.0)


# ---------------------------------------------------------------------------
# alpha gradient

def test_alpha_gradient_hand_case():
    g = np.ones((2, 3))
    eps = np.full((2, 3), 0.3)
    assert float(alpha_gradient(g, eps)) == pytest.approx(1.8)


def test_alpha_gradient_zero_eps():
    out = alpha_gradient(np.ones((2, 2)), np.zeros((2, 2)))
    assert np.all(out == 0.0)


def test_alpha_gradient_matches_finite_difference():
    """FD on alpha with the same frozen eps, h=1e-6."""
    rng = np.random.default_rng(13)
    spec = NoiseSpec(mode="learned", alpha_init=0.3)
    layer = NoisyDenseLayer.create(3, 2, "identity", rng, spec=spec)
    net = Network([layer])
    x = rng.normal(size=(4, 3))
    y = rng.normal(size=(4, 2))
    eps = sample_noise(layer, rng)
    frozen = [eps]

    _, grad = training_loss_and_grads(net, x, y, frozen_noise=frozen)
    analytic = np.atleast_1d(net.views(grad)["L0.alpha"]).ravel()

    h = 1e-6
    base_alpha = layer.alpha.copy()
    fd = np.empty_like(analytic)
    flat_view = np.atleast_1d(layer.alpha).reshape(-1)
    for i in range(analytic.size):
        for sign, slot in ((+1, 0), (-1, 1)):
            np.copyto(layer.alpha, base_alpha)
            flat_view = np.atleast_1d(layer.alpha).reshape(-1)
            flat_view[i] += sign * h
            loss, _ = training_loss_and_grads(net, x, y, frozen_noise=frozen)
            if slot == 0:
                hi = loss
            else:
                lo = loss
        fd[i] = (hi - lo) / (2.0 * h)
    np.copyto(layer.alpha, base_alpha)

    denom = np.maximum(np.maximum(np.abs(fd), np.abs(analytic)), 1e-8)
    assert np.max(np.abs(fd - analytic) / denom) < 1e-4


def test_deterministic_pass_zero_alpha_gradient():
    """A pass with zero frozen noise has no noise path: alpha's gradient is
    exactly zero."""
    rng = np.random.default_rng(14)
    spec = NoiseSpec(mode="learned", alpha_init=0.2)
    layer = NoisyDenseLayer.create(2, 2, "identity", rng, spec=spec)
    net = Network([layer])
    x, y = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))
    _, grad = training_loss_and_grads(net, x, y,
                                      frozen_noise=[np.zeros_like(layer.W)])
    assert np.all(net.views(grad)["L0.alpha"] == 0.0)


# ---------------------------------------------------------------------------
# alpha penalty, through the training loss

def penalty_loss_and_grad(alpha, lam):
    """Training loss and alpha gradients of a chain of learned 1x1 layers,
    one per entry of ``alpha``, whose weights, input, target and frozen
    noise are all zero: the data term and its alpha gradients are exactly
    zero, leaving the penalty."""
    spec = NoiseSpec(mode="learned", alpha_penalty_lambda=lam)
    net = Network([NoisyDenseLayer(W=np.zeros((1, 1)), b=np.zeros(1),
                                   spec=spec, alpha=a) for a in alpha])
    loss, grad = training_loss_and_grads(
        net, np.zeros((1, 1)), np.zeros((1, 1)),
        frozen_noise=[np.zeros((1, 1))] * len(alpha))
    grads = net.views(grad)
    return loss, np.array([grads[f"L{i}.alpha"] for i in range(len(alpha))])


def test_alpha_penalty_disabled():
    assert penalty_loss_and_grad([1.0, 2.0], 0.0)[0] == 0.0


def test_alpha_penalty_hand_case():
    # -0.5 * (1 + 1)
    assert penalty_loss_and_grad([1.0, -1.0], 0.5)[0] == -1.0


def test_alpha_penalty_gradient_matches_fd():
    lam = 0.3
    a = np.array([0.7, -0.4, 1.1])
    _, analytic = penalty_loss_and_grad(a, lam)
    assert np.allclose(analytic, -2.0 * lam * a, rtol=0, atol=1e-15)
    h = 1e-6
    for i in range(3):
        hi, lo = a.copy(), a.copy()
        hi[i] += h
        lo[i] -= h
        fd = (penalty_loss_and_grad(hi, lam)[0]
              - penalty_loss_and_grad(lo, lam)[0]) / (2 * h)
        assert abs(fd - analytic[i]) / max(abs(fd), 1e-8) < 1e-6


def test_alpha_penalty_negative_lambda_rejected():
    with pytest.raises(ValueError):
        NoiseSpec(alpha_penalty_lambda=-0.1)


@pytest.mark.parametrize("field", ["alpha_init", "alpha_penalty_lambda"])
def test_nan_noise_setting_rejected(field):
    # an infinite alpha makes every pass NaN
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match=field):
            NoiseSpec(mode="learned", **{field: value})


# ---------------------------------------------------------------------------
# dropout

def test_dropout_p0_is_identity():
    layer = DropoutLayer(0.0)
    x = np.random.default_rng(15).normal(size=(4, 6))
    out, cache = layer.forward_pass(x, np.random.default_rng(0))
    assert np.array_equal(out, x)
    assert np.all(cache["mask"] == 1.0)


def test_dropout_preserves_expectation():
    layer = DropoutLayer(0.5)
    x = np.full((1, 10), 3.0)
    rng = np.random.default_rng(16)
    acc = np.zeros_like(x)
    n = 100_000
    for _ in range(n):
        out, _ = layer.forward_pass(x, rng)
        acc += out
    assert np.max(np.abs(acc / n - x)) / 3.0 < 0.02


def test_dropout_seed_reproducible():
    layer = DropoutLayer(0.3)
    x = np.ones((2, 5))
    a, _ = layer.forward_pass(x, np.random.default_rng(21))
    b, _ = layer.forward_pass(x, np.random.default_rng(21))
    assert np.array_equal(a, b)


def test_dropout_deterministic_mode_identity():
    """A noise-free dropout pass is a pass with a frozen all-keep mask."""
    layer = DropoutLayer(0.9)
    x = np.random.default_rng(23).normal(size=(2, 3))
    out, _ = layer.forward_pass(x, None, frozen=np.ones_like(x))
    assert np.array_equal(out, x)


def test_dropout_p_range_enforced():
    with pytest.raises(ValueError):
        DropoutLayer(1.0)
    with pytest.raises(ValueError):
        DropoutLayer(-0.1)


def test_dropout_backward_uses_same_mask():
    layer = DropoutLayer(0.4)
    x = np.ones((3, 4))
    out, cache = layer.forward_pass(x, np.random.default_rng(22))
    grad_in = layer.backward_pass(cache, np.ones_like(x), {})
    assert np.array_equal(grad_in, out)    # both are mask * ones
