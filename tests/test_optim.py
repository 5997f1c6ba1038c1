"""Optimizers, training loss assembly, early stopping, grid search."""

import numpy as np
import pytest

from mcni.nn import DenseLayer, Network, l2_penalty, loss_mse
from mcni.noise import NoiseSpec, NoisyDenseLayer
from mcni.models import build_mlp
from mcni.optim import (Adam, SGDMomentum, TrainConfig, fit, grid_search,
                        task_loss, training_loss, training_loss_and_grads)

from oracles import adam_steps_oracle, sgd_momentum_steps_oracle


def linear_net(w0=0.0):
    return Network([DenseLayer(W=np.array([[w0]]), b=np.zeros(1))])


# ---------------------------------------------------------------------------
# Adam

def test_adam_zero_gradient_leaves_params_alone():
    p = {"w": np.array([1.5, -2.0])}
    opt = Adam(lr=0.1)
    for _ in range(5):
        opt.step(p, {"w": np.zeros(2)})
    assert np.array_equal(p["w"], [1.5, -2.0])


def test_adam_moments_decay_on_zero_gradient():
    p = {"w": np.array([0.0])}
    opt = Adam(lr=0.1, beta1=0.9)
    opt.step(p, {"w": np.array([1.0])})
    m1 = opt._m["w"].copy()
    opt.step(p, {"w": np.array([0.0])})
    assert np.allclose(opt._m["w"], 0.9 * m1, rtol=0, atol=1e-15)


def test_adam_first_step_is_about_lr():
    p = {"w": np.array([0.0])}
    Adam(lr=0.05).step(p, {"w": np.array([3.0])})
    assert abs(abs(p["w"][0]) - 0.05) < 1e-8


def test_adam_matches_scalar_loop_oracle():
    rng = np.random.default_rng(0)
    grads = rng.normal(size=(12, 4))
    p = {"w": np.linspace(-1, 1, 4).copy()}
    opt = Adam(lr=0.02, beta1=0.85, beta2=0.99, eps=1e-8)
    for g in grads:
        opt.step(p, {"w": g})
    for j in range(4):
        ref = adam_steps_oracle(np.linspace(-1, 1, 4)[j], grads[:, j].tolist(),
                                lr=0.02, beta1=0.85, beta2=0.99, eps=1e-8)
        assert abs(p["w"][j] - ref) < 1e-12


def _per_name_adam(lr, beta1, beta2, eps):
    """The per-parameter Adam loop the flat-buffer Adam must reproduce."""
    state = {"t": 0, "m": {}, "v": {}}

    def step(params, grads):
        state["t"] += 1
        t = state["t"]
        for name, p in params.items():
            if name not in grads:
                continue
            g = grads[name]
            m = state["m"].setdefault(name, np.zeros_like(p))
            v = state["v"].setdefault(name, np.zeros_like(p))
            m *= beta1
            m += (1.0 - beta1) * g
            v *= beta2
            v += (1.0 - beta2) * (g * g)
            m_hat = m / (1.0 - beta1 ** t)
            v_hat = v / (1.0 - beta2 ** t)
            p -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return step, state


def _per_name_sgd(lr, momentum):
    vel = {}

    def step(params, grads):
        for name, p in params.items():
            if name not in grads:
                continue
            v = vel.setdefault(name, np.zeros_like(p))
            v *= momentum
            v += grads[name]
            p -= lr * v
    return step, vel


def _learned_noise_net(seed):
    rng = np.random.default_rng(seed)
    scalar = NoiseSpec(mode="learned", alpha_init=0.1, alpha_penalty_lambda=0.05)
    element = NoiseSpec(mode="learned", granularity="element", alpha_init=0.2)
    return Network([NoisyDenseLayer.create(3, 6, "tanh", rng, spec=scalar),
                    NoisyDenseLayer.create(6, 2, "identity", rng, spec=element)])


@pytest.mark.parametrize("kind", ["adam", "sgd"])
def test_flat_state_is_bit_identical_to_per_name_loop(kind):
    net, twin = _learned_noise_net(8), _learned_noise_net(8)
    assert net.layers[0].alpha.shape == ()              # 0-d scalar alpha
    assert net.layers[1].alpha.shape == (6, 2)          # element alpha
    if kind == "adam":
        opt = Adam(lr=0.01, beta1=0.85, beta2=0.99, eps=1e-8)
        ref_step, ref_state = _per_name_adam(0.01, 0.85, 0.99, 1e-8)
        moments = [(opt._m, ref_state["m"]), (opt._v, ref_state["v"])]
    else:
        opt = SGDMomentum(lr=0.01, momentum=0.8)
        ref_step, ref_vel = _per_name_sgd(0.01, 0.8)
        moments = [(opt._v, ref_vel)]
    params, ref_params = net.parameters(), twin.parameters()
    data = np.random.default_rng(9)
    x, y = data.normal(size=(7, 3)), data.normal(size=(7, 2))
    noise = np.random.default_rng(10)
    for _ in range(6):
        _, grads = training_loss_and_grads(net, x, y, 0.01, rng=noise)
        del grads["L1.b"]                               # a name without a gradient
        ref_step(ref_params, {k: g.copy() for k, g in grads.items()})
        opt.step(params, grads)
        for name in params:
            assert np.array_equal(params[name], ref_params[name]), name
        for flat, ref in moments:
            assert flat.keys() == ref.keys() == grads.keys()
            for name in ref:
                assert flat[name].shape == ref[name].shape
                assert np.array_equal(flat[name], ref[name]), name


@pytest.mark.parametrize("opt", [Adam(lr=0.1), SGDMomentum(lr=0.1)])
def test_flat_state_rejects_a_changed_parameter_set(opt):
    params = {"w": np.zeros(2), "b": np.zeros(1)}
    opt.step(params, {"w": np.ones(2), "b": np.ones(1)})
    before = {k: p.copy() for k, p in params.items()}
    with pytest.raises(ValueError, match="changed"):
        opt.step(params, {"w": np.ones(2)})
    with pytest.raises(ValueError, match="changed"):
        opt.step({**params, "c": np.zeros(3)},
                 {"w": np.ones(2), "b": np.ones(1), "c": np.ones(3)})
    for k, p in params.items():
        assert np.array_equal(p, before[k])


# ---------------------------------------------------------------------------
# SGD with momentum

def test_sgd_without_momentum_is_plain_step():
    p = {"w": np.array([1.0])}
    SGDMomentum(lr=0.1, momentum=0.0).step(p, {"w": np.array([2.0])})
    assert p["w"][0] == pytest.approx(1.0 - 0.2, abs=1e-15)


def test_sgd_velocity_geometric_series():
    p = {"w": np.array([0.0])}
    opt = SGDMomentum(lr=0.01, momentum=0.9)
    g = np.array([2.0])
    k = 7
    for _ in range(k):
        opt.step(p, {"w": g})
    expected = 2.0 * (1.0 - 0.9 ** k) / (1.0 - 0.9)
    assert abs(opt._v["w"][0] - expected) < 1e-12


def test_sgd_zero_gradient_still_moves_on_velocity():
    p = {"w": np.array([0.0])}
    opt = SGDMomentum(lr=0.1, momentum=0.5)
    opt.step(p, {"w": np.array([1.0])})
    before = p["w"][0]
    opt.step(p, {"w": np.array([0.0])})
    assert p["w"][0] == pytest.approx(before - 0.1 * 0.5 * 1.0, abs=1e-15)


def test_sgd_matches_scalar_loop_oracle():
    rng = np.random.default_rng(1)
    grads = rng.normal(size=10)
    p = {"w": np.array([0.3])}
    opt = SGDMomentum(lr=0.05, momentum=0.8)
    for g in grads:
        opt.step(p, {"w": np.array([g])})
    ref, _ = sgd_momentum_steps_oracle(0.3, grads.tolist(), lr=0.05, momentum=0.8)
    assert abs(p["w"][0] - ref) < 1e-12


def test_one_step_decreases_quadratic_probe():
    """L = ||p||^2 at lr 1e-3, both optimizers."""
    for opt in (Adam(lr=1e-3), SGDMomentum(lr=1e-3)):
        p = {"w": np.array([0.7, -1.3, 0.2])}
        before = float(p["w"] @ p["w"])
        opt.step(p, {"w": 2.0 * p["w"]})
        assert float(p["w"] @ p["w"]) < before


# ---------------------------------------------------------------------------
# training loss

def test_training_loss_reduces_to_task_loss():
    rng = np.random.default_rng(2)
    net = build_mlp("noise_fixed", 2, [4], 1, noise_level=0.0, rng=rng)
    x, y = rng.normal(size=(6, 2)), rng.normal(size=(6, 1))
    loss = training_loss(net, x, y, weight_decay=0.0, rng=np.random.default_rng(3))
    out, _ = net.forward(x, "deterministic")
    assert abs(loss - loss_mse(out, y)) < 1e-15


def test_training_loss_hand_value():
    # lambda=1 on a single weight of 2, data term exactly zero
    net = linear_net(2.0)
    loss = training_loss(net, np.zeros((1, 1)), np.zeros((1, 1)), weight_decay=1.0)
    assert loss == 4.0


def test_training_loss_is_sum_of_parts():
    rng = np.random.default_rng(4)
    spec = NoiseSpec(mode="learned", alpha_init=0.1, alpha_penalty_lambda=0.05)
    net = Network([NoisyDenseLayer.create(3, 4, "tanh", rng, spec=spec),
                   NoisyDenseLayer.create(4, 1, "identity", rng, spec=spec)])
    x, y = rng.normal(size=(5, 3)), rng.normal(size=(5, 1))
    from mcni.noise import sample_noise
    frozen = [sample_noise(l, rng) for l in net.layers]
    wd = 0.01

    total = training_loss(net, x, y, weight_decay=wd, frozen_noise=frozen)
    out, _ = net.forward(x, "train", frozen_noise=frozen)
    alpha_sq = sum(float(l.alpha ** 2) for l in net.layers)
    parts = loss_mse(out, y) + l2_penalty(net, wd) - 0.05 * alpha_sq
    assert abs(total - parts) < 1e-12


def test_weight_decay_never_reaches_alpha():
    rng = np.random.default_rng(5)
    spec = NoiseSpec(mode="learned", alpha_init=0.5)
    net = Network([NoisyDenseLayer.create(2, 2, "identity", rng, spec=spec)])
    from mcni.nn import l2_penalty_grads
    grads = l2_penalty_grads(net, 10.0)
    assert "L0.alpha" not in grads
    with_alpha = l2_penalty(net, 10.0)
    net.layers[0].alpha = np.asarray(123.0)
    assert l2_penalty(net, 10.0) == with_alpha


# ---------------------------------------------------------------------------
# fit

def toy_regression(n=32, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2))
    y = (x @ np.array([[1.0], [-0.5]])) + 0.1 * rng.normal(size=(n, 1))
    return x, y


def test_patience_zero_runs_all_epochs():
    x, y = toy_regression()
    net = build_mlp("deterministic", 2, [4], 1, rng=np.random.default_rng(6))
    cfg = TrainConfig(lr=0.01, max_epochs=7, batch_size=8, patience=0)
    result = fit(net, x, y, cfg, x, y, rng=np.random.default_rng(7))
    assert result.epochs_run == 7
    assert not result.stopped_early
    assert len(result.history["val_loss"]) == 7


def test_rising_validation_stops_with_first_epoch_weights():
    """Training pulls the weight away from the val target, so val loss rises
    monotonically from epoch 1; early stopping must fire after patience+1
    epochs and restore the first epoch's parameters."""
    cfg = TrainConfig(lr=0.01, max_epochs=50, batch_size=4, patience=3)
    x_tr, y_tr = np.ones((1, 1)), np.ones((1, 1))
    x_val, y_val = np.ones((1, 1)), np.zeros((1, 1))

    net = linear_net()
    result = fit(net, x_tr, y_tr, cfg, x_val, y_val,
                 rng=np.random.default_rng(8))
    assert result.stopped_early
    assert result.epochs_run == cfg.patience + 1
    assert result.best_epoch == 0
    vals = result.history["val_loss"]
    assert all(b > a for a, b in zip(vals, vals[1:]))

    twin = linear_net()
    fit(twin, x_tr, y_tr,
        TrainConfig(lr=0.01, max_epochs=1, batch_size=4, patience=0),
        rng=np.random.default_rng(8))
    for k, v in net.parameters().items():
        assert np.array_equal(v, twin.parameters()[k])


def test_fixed_seed_identical_history():
    x, y = toy_regression()
    histories = []
    for _ in range(2):
        net = build_mlp("noise_fixed", 2, [6], 1, noise_level=0.05,
                        rng=np.random.default_rng(9))
        r = fit(net, x, y, TrainConfig(lr=0.01, max_epochs=5, batch_size=8),
                x, y, rng=np.random.default_rng(10))
        histories.append(r.history)
    assert histories[0] == histories[1]


def test_best_validation_snapshot_restored():
    """Deterministic net, so validation loss is a pure function of the
    parameters and the restored snapshot must reproduce the recorded best."""
    cfg = TrainConfig(lr=0.02, max_epochs=10, batch_size=4, patience=0)
    x_tr, y_tr = np.ones((1, 1)), np.ones((1, 1))
    x_val, y_val = np.ones((1, 1)), np.full((1, 1), 0.05)
    net = linear_net()
    result = fit(net, x_tr, y_tr, cfg, x_val, y_val,
                 rng=np.random.default_rng(11))
    vals = result.history["val_loss"]
    assert result.best_epoch == int(np.argmin(vals))
    assert result.best_val_loss == min(vals)
    assert task_loss(net, x_val, y_val) == result.best_val_loss
    # the run went past the optimum, so the snapshot matters
    assert vals[-1] > result.best_val_loss


def test_fit_input_validation():
    net = linear_net()
    cfg = TrainConfig()
    with pytest.raises(ValueError):
        fit(net, np.empty((0, 1)), np.empty((0, 1)), cfg)
    with pytest.raises(ValueError):
        fit(net, np.ones((2, 1)), np.ones((2, 1)), cfg, np.ones((1, 1)), None)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(optimizer="rmsprop")
    with pytest.raises(ValueError):
        TrainConfig(lr=0.0)
    with pytest.raises(ValueError):
        TrainConfig(beta1=1.0)
    with pytest.raises(ValueError):
        TrainConfig(patience=-1)
    with pytest.raises(ValueError):
        TrainConfig(val_passes=0)


def test_alpha_zero_follows_deterministic_trajectory():
    """Inert noise must not perturb training: same seed, same params."""
    x, y = toy_regression(n=24, seed=12)
    cfg = TrainConfig(lr=0.01, max_epochs=12, batch_size=8)
    det = build_mlp("deterministic", 2, [5], 1, rng=np.random.default_rng(13))
    noisy = build_mlp("noise_fixed", 2, [5], 1, noise_level=0.0,
                      rng=np.random.default_rng(13))
    fit(det, x, y, cfg, rng=np.random.default_rng(14))
    fit(noisy, x, y, cfg, rng=np.random.default_rng(14))
    for k, v in det.parameters().items():
        assert np.array_equal(v, noisy.parameters()[k])


# ---------------------------------------------------------------------------
# grid search

def test_single_point_grid_returns_it():
    def evaluate(config, rng):
        return {"val_loss": 1.0}
    result = grid_search(evaluate, {"lr": [0.01]})
    assert result.best["lr"] == 0.01
    assert result.best["config_index"] == 0
    assert len(result.rows) == 1


def test_scripted_lower_loss_wins():
    def evaluate(config, rng):
        return {"val_loss": 0.1 if config["wd"] == 0.5 else 0.9}
    result = grid_search(evaluate, {"lr": [0.01], "wd": [0.1, 0.5]})
    assert result.best["wd"] == 0.5


def test_leaderboard_length_is_grid_product():
    calls = []

    def evaluate(config, rng):
        calls.append(dict(config))
        return {"val_loss": 1.0}

    result = grid_search(evaluate, {"a": [1, 2, 3], "b": [10, 20]})
    assert len(result.rows) == 6
    assert len(calls) == 6
    assert [r["config_index"] for r in result.rows] == list(range(6))


def test_ties_break_toward_smaller_lr_then_declaration_order():
    def evaluate(config, rng):
        return {"val_loss": 1.0}
    result = grid_search(evaluate, {"lr": [0.01, 0.001]})
    assert result.best["lr"] == 0.001
    result = grid_search(evaluate, {"lr": [0.01], "wd": [0.3, 0.7]})
    assert result.best["wd"] == 0.3        # earlier declaration wins the tie


def test_grid_sub_seeds_are_deterministic():
    def evaluate(config, rng):
        return {"val_loss": float(rng.random())}
    a = grid_search(evaluate, {"lr": [0.1, 0.2], "wd": [0.0, 1.0]}, seed=5)
    b = grid_search(evaluate, {"lr": [0.1, 0.2], "wd": [0.0, 1.0]}, seed=5)
    assert [r["val_loss"] for r in a.rows] == [r["val_loss"] for r in b.rows]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_val_loss_ranks_last(bad):
    losses = [bad, 0.5, 0.1]

    def evaluate(config, rng):
        return {"val_loss": losses[config["wd"]]}
    result = grid_search(evaluate, {"lr": [0.01], "wd": [0, 1, 2]})
    assert result.best["config_index"] == 2
    losses[2] = bad
    result = grid_search(evaluate, {"lr": [0.01], "wd": [0, 1, 2]})
    assert result.best["config_index"] == 1


def test_all_non_finite_falls_to_lr_then_declaration_order():
    losses = {(0.01, 0): np.nan, (0.01, 1): np.inf,
              (0.001, 0): np.inf, (0.001, 1): np.nan}

    def evaluate(config, rng):
        return {"val_loss": losses[config["lr"], config["wd"]]}
    result = grid_search(evaluate, {"lr": [0.01, 0.001], "wd": [0, 1]})
    assert result.best["lr"] == 0.001
    assert result.best["config_index"] == 2


def test_grid_rejects_bad_specs():
    def evaluate(config, rng):
        return {}
    with pytest.raises(ValueError):
        grid_search(evaluate, {})
    with pytest.raises(ValueError):
        grid_search(evaluate, {"lr": []})
    with pytest.raises(ValueError):
        grid_search(evaluate, {"lr": [0.1]})       # no val_loss reported
