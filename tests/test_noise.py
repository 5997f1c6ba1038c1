"""Weight-noise mechanics: scale, sampling, alpha gradients, dropout."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcni.mc import welford_mean_var
from mcni.nn import DETERMINISTIC, EVAL, TRAIN, Network, ShapeError
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
    assert layer_weight_std(np.ones((2, 2)), NoiseSpec()) == 0.0


def test_symmetric_pair_unit_std():
    # population convention: N in the denominator
    assert layer_weight_std(np.array([[-1.0, 1.0]]), NoiseSpec()) == 1.0


def test_std_matches_two_pass_loop():
    rng = np.random.default_rng(1)
    W = rng.normal(size=(5, 7))
    mean = sum(W.ravel()) / W.size
    var = sum((v - mean) ** 2 for v in W.ravel()) / W.size
    assert abs(layer_weight_std(W, NoiseSpec()) - np.sqrt(var)) < 1e-12


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(1, 40), cols=st.integers(1, 40),
       log_scale=st.floats(-8.0, 6.0), offset=st.floats(-1e3, 1e3),
       transpose=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_std_is_bit_identical_to_np_std(rows, cols, log_scale, offset,
                                        transpose, seed):
    W = np.random.default_rng(seed).normal(size=(rows, cols))
    W = W * 10.0 ** log_scale + offset
    if transpose:
        W = W.T                  # non-contiguous input
    assert layer_weight_std(W, NoiseSpec()) == float(np.std(W))


def test_std_sources():
    spec_const = NoiseSpec(sigma_source="constant", sigma_value=2.5)
    assert layer_weight_std(np.ones((3, 3)), spec_const) == 2.5
    spec_init = NoiseSpec(sigma_source="init")
    assert layer_weight_std(np.ones((3, 3)), spec_init, init_std=0.7) == 0.7
    with pytest.raises(ValueError):
        layer_weight_std(np.ones((3, 3)), spec_init)    # init std not captured


def test_empty_weight_matrix_rejected():
    with pytest.raises(ShapeError):
        layer_weight_std(np.empty((0, 2)), NoiseSpec())


# ---------------------------------------------------------------------------
# NoiseSpec validation

def test_spec_rejects_bad_fields():
    with pytest.raises(ValueError):
        NoiseSpec(mode="other")
    with pytest.raises(ValueError):
        NoiseSpec(alpha_init=-0.1)
    with pytest.raises(ValueError):
        NoiseSpec(alpha_penalty_lambda=-1.0)
    with pytest.raises(ValueError):
        NoiseSpec(sigma_source="constant")            # value required
    with pytest.raises(ValueError):
        NoiseSpec(sigma_source="constant", sigma_value=0.0)
    with pytest.raises(ValueError):
        NoiseSpec(sigma_source="current", sigma_value=1.0)


def test_alpha_shape_follows_granularity():
    spec = NoiseSpec(granularity="element", alpha_init=0.1)
    layer = NoisyDenseLayer(W=np.zeros((2, 3)), b=np.zeros(3), spec=spec)
    assert layer.alpha.shape == (2, 3)
    with pytest.raises(ShapeError):
        NoisyDenseLayer(W=np.zeros((2, 3)), b=np.zeros(3), spec=spec,
                        alpha=np.zeros(4))


# ---------------------------------------------------------------------------
# sampling

def test_zero_sigma_gives_exact_zero_noise():
    layer = noisy_layer(np.full((3, 4), 0.25), 1.0)
    z = sample_noise(layer, np.random.default_rng(0))
    assert np.all(z == 0.0)


def test_noise_statistics_sigma_two():
    spec = NoiseSpec(sigma_source="constant", sigma_value=2.0)
    layer = noisy_layer(np.zeros((100, 100)), 1.0, spec)
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
    a, _ = net.forward(x, TRAIN, rng)
    b, _ = net.forward(x, TRAIN, rng)
    assert not np.array_equal(a, b)


# ---------------------------------------------------------------------------
# noisy forward

def test_alpha_zero_reduces_to_plain_dense():
    rng = np.random.default_rng(4)
    W = rng.normal(size=(3, 2))
    layer = noisy_layer(W, 0.0)
    net = Network([layer])
    x = rng.normal(size=(5, 3))
    noisy, _ = net.forward(x, EVAL, np.random.default_rng(9))
    assert np.array_equal(noisy, x @ W)


def test_degenerate_sigma_gives_zero_output():
    # W constant zero, so sigma_l = 0 and the injected term vanishes
    layer = noisy_layer(np.zeros((1, 1)), 1.0)
    net = Network([layer])
    out, _ = net.forward(np.array([[1.0]]), TRAIN, np.random.default_rng(0))
    assert out[0, 0] == 0.0


def test_injected_variance_constant_sigma():
    """alpha=2, sigma=1, W=0, x=1: output variance approaches 4."""
    spec = NoiseSpec(sigma_source="constant", sigma_value=1.0)
    layer = noisy_layer(np.zeros((1, 1)), 2.0, spec)
    net = Network([layer])
    rng = np.random.default_rng(10)
    outs = np.array([net.forward(np.array([[1.0]]), TRAIN, rng)[0][0, 0]
                     for _ in range(100_000)])
    assert abs(outs.var() - 4.0) / 4.0 < 0.05


def test_deterministic_mode_disables_noise():
    rng = np.random.default_rng(5)
    W = rng.normal(size=(2, 2))
    net = Network([noisy_layer(W, 0.8)])
    x = rng.normal(size=(3, 2))
    out, _ = net.forward(x, DETERMINISTIC)
    assert np.array_equal(out, x @ W)


def test_live_mode_without_rng_rejected():
    net = Network([noisy_layer(np.random.default_rng(6).normal(size=(2, 2)), 0.1)])
    with pytest.raises(ValueError):
        net.forward(np.ones((1, 2)), TRAIN)


def test_alpha_zero_network_bit_deterministic():
    """alpha=0 everywhere: repeated live passes agree exactly, variance 0."""
    rng = np.random.default_rng(12)
    layers = [NoisyDenseLayer.create(2, 8, "relu", rng,
                                     spec=NoiseSpec(alpha_init=0.0)),
              NoisyDenseLayer.create(8, 1, "identity", rng,
                                     spec=NoiseSpec(alpha_init=0.0))]
    net = Network(layers)
    x = rng.normal(size=(4, 2))
    passes = np.stack([net.forward(x, EVAL, np.random.default_rng([12, t]))[0]
                       for t in range(20)])
    assert all(np.array_equal(passes[t], passes[0]) for t in range(20))
    _, var = welford_mean_var(passes)
    assert np.all(var == 0.0)


# ---------------------------------------------------------------------------
# alpha gradient

def test_alpha_gradient_hand_case():
    g = np.ones((2, 3))
    eps = np.full((2, 3), 0.3)
    out = alpha_gradient(g, eps, "element")
    assert np.array_equal(out, np.full((2, 3), 0.3))
    assert float(alpha_gradient(g, eps, "scalar")) == pytest.approx(1.8)


def test_alpha_gradient_zero_eps():
    out = alpha_gradient(np.ones((2, 2)), np.zeros((2, 2)), "element")
    assert np.all(out == 0.0)


@pytest.mark.parametrize("granularity", ["scalar", "element"])
def test_alpha_gradient_matches_finite_difference(granularity):
    """FD on alpha with the same frozen eps, h=1e-6."""
    rng = np.random.default_rng(13)
    spec = NoiseSpec(mode="learned", granularity=granularity, alpha_init=0.3)
    layer = NoisyDenseLayer.create(3, 2, "identity", rng, spec=spec)
    net = Network([layer])
    x = rng.normal(size=(4, 3))
    y = rng.normal(size=(4, 2))
    eps = sample_noise(layer, rng)
    frozen = [eps]

    _, grads = training_loss_and_grads(net, x, y, frozen_noise=frozen)
    analytic = np.atleast_1d(grads["L0.alpha"]).ravel()

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
    rng = np.random.default_rng(14)
    spec = NoiseSpec(mode="learned", alpha_init=0.2)
    layer = NoisyDenseLayer.create(2, 2, "identity", rng, spec=spec)
    net = Network([layer])
    x, y = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))
    _, grads = training_loss_and_grads(net, x, y, mode=DETERMINISTIC)
    assert np.all(grads["L0.alpha"] == 0.0)


# ---------------------------------------------------------------------------
# alpha penalty, through the training loss

def penalty_loss_and_grad(alpha, lam):
    """Training loss and alpha gradient of one learned element-alpha layer
    whose weights, input, target and frozen noise are all zero: the data
    term and its alpha gradient are exactly zero, leaving the penalty."""
    alpha = np.asarray(alpha, float).reshape(1, -1)
    spec = NoiseSpec(mode="learned", granularity="element",
                     alpha_penalty_lambda=lam)
    net = Network([NoisyDenseLayer(W=np.zeros(alpha.shape),
                                   b=np.zeros(alpha.shape[1]), spec=spec,
                                   alpha=alpha)])
    loss, grads = training_loss_and_grads(
        net, np.zeros((1, 1)), np.zeros((1, alpha.shape[1])),
        frozen_noise=[np.zeros(alpha.shape)])
    return loss, grads["L0.alpha"].ravel()


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


# ---------------------------------------------------------------------------
# dropout

def test_dropout_p0_is_identity():
    layer = DropoutLayer(0.0)
    x = np.random.default_rng(15).normal(size=(4, 6))
    out, cache = layer.forward_pass(x, TRAIN, np.random.default_rng(0))
    assert np.array_equal(out, x)
    assert cache["mask"] is None


def test_dropout_preserves_expectation():
    layer = DropoutLayer(0.5)
    x = np.full((1, 10), 3.0)
    rng = np.random.default_rng(16)
    acc = np.zeros_like(x)
    n = 100_000
    for _ in range(n):
        out, _ = layer.forward_pass(x, EVAL, rng)
        acc += out
    assert np.max(np.abs(acc / n - x)) / 3.0 < 0.02


def test_dropout_seed_reproducible():
    layer = DropoutLayer(0.3)
    x = np.ones((2, 5))
    a, _ = layer.forward_pass(x, TRAIN, np.random.default_rng(21))
    b, _ = layer.forward_pass(x, TRAIN, np.random.default_rng(21))
    assert np.array_equal(a, b)


def test_dropout_deterministic_mode_identity():
    layer = DropoutLayer(0.9)
    x = np.ones((2, 3))
    out, _ = layer.forward_pass(x, DETERMINISTIC, None)
    assert np.array_equal(out, x)


def test_dropout_p_range_enforced():
    with pytest.raises(ValueError):
        DropoutLayer(1.0)
    with pytest.raises(ValueError):
        DropoutLayer(-0.1)


def test_dropout_backward_uses_same_mask():
    layer = DropoutLayer(0.4)
    x = np.ones((3, 4))
    out, cache = layer.forward_pass(x, TRAIN, np.random.default_rng(22))
    grad_in, _ = layer.backward_pass(cache, np.ones_like(x))
    assert np.array_equal(grad_in, out)    # both are mask * ones
