"""Structure of the built model families."""

import numpy as np
import pytest

from mcni.models import FAMILIES, build_mlp
from mcni.nn import DenseLayer
from mcni.noise import DropoutLayer, NoisyDenseLayer


def test_family_list():
    assert FAMILIES == ("deterministic", "mc_dropout", "noise_fixed",
                        "noise_learned")


def test_deterministic_is_plain_dense():
    net = build_mlp("deterministic", 3, [8, 4], 2,
                    rng=np.random.default_rng(0))
    assert all(type(l) is DenseLayer for l in net.layers)
    assert len(net.layers) == 3


def test_dropout_after_each_hidden_activation_only():
    net = build_mlp("mc_dropout", 3, [8, 4], 2, dropout_p=0.3,
                    rng=np.random.default_rng(0))
    kinds = [type(l).__name__ for l in net.layers]
    assert kinds == ["DenseLayer", "DropoutLayer",
                     "DenseLayer", "DropoutLayer", "DenseLayer"]
    assert all(l.p == 0.3 for l in net.layers if isinstance(l, DropoutLayer))


def test_noise_on_every_dense_layer_including_output():
    net = build_mlp("noise_fixed", 3, [8], 2, noise_level=0.07,
                    rng=np.random.default_rng(0))
    assert all(isinstance(l, NoisyDenseLayer) for l in net.layers)
    assert all(float(l.alpha) == 0.07 for l in net.layers)
    assert all(l.spec.mode == "fixed" for l in net.layers)


def test_learned_family_carries_penalty_lambda():
    net = build_mlp("noise_learned", 2, [4], 1, noise_level=0.02,
                    alpha_penalty_lambda=0.01, rng=np.random.default_rng(0))
    for layer in net.layers:
        assert layer.spec.mode == "learned"
        assert layer.spec.alpha_penalty_lambda == 0.01
        assert "alpha" in layer.parameters()


def test_output_layer_is_linear():
    for task in ("regression", "classification"):
        net = build_mlp("deterministic", 4, [6], 3, task=task,
                        activation="tanh", rng=np.random.default_rng(1))
        assert net.layers[-1].activation == "identity"
        assert net.layers[0].activation == "tanh"


def test_geometry():
    net = build_mlp("deterministic", 5, [16], 3, rng=np.random.default_rng(2))
    assert net.fan_in == 5
    assert net.fan_out == 3
    out, _ = net.forward(np.zeros((2, 5)))
    assert out.shape == (2, 3)


def test_same_rng_same_init_across_families():
    """Noise wrapping must not change the weight draw sequence."""
    det = build_mlp("deterministic", 3, [5], 1, rng=np.random.default_rng(9))
    noisy = build_mlp("noise_fixed", 3, [5], 1, rng=np.random.default_rng(9))
    for a, b in zip(det.layers, noisy.layers):
        assert np.array_equal(a.W, b.W)
        assert np.array_equal(a.b, b.b)


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        build_mlp("ensemble", 2, [4], 1, rng=np.random.default_rng(0))


def test_empty_hidden_rejected():
    with pytest.raises(ValueError):
        build_mlp("deterministic", 2, [], 1, rng=np.random.default_rng(0))
