"""Optimizers, training loss assembly, early stopping, grid search."""

import numpy as np
import pytest

import mcni.optim
from mcni.nn import EVAL, TRAIN, DenseLayer, Network, l2_penalty, loss_mse
from mcni.noise import NoiseSpec, NoisyDenseLayer, sample_noise
from mcni.models import FAMILIES, build_mlp
from mcni.optim import (Adam, FitResult, TrainConfig, fit, grid_search,
                        task_loss, training_loss_and_grads)

from oracles import adam_steps_oracle


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


def _learned_noise_net(seed):
    rng = np.random.default_rng(seed)
    penalized = NoiseSpec(mode="learned", alpha_init=0.1,
                          alpha_penalty_lambda=0.05)
    plain = NoiseSpec(mode="learned", alpha_init=0.2)
    return Network([NoisyDenseLayer.create(3, 6, "tanh", rng, spec=penalized),
                    NoisyDenseLayer.create(6, 2, "identity", rng, spec=plain)])


def test_flat_state_is_bit_identical_to_per_name_loop():
    net, twin = _learned_noise_net(8), _learned_noise_net(8)
    assert net.layers[0].alpha.shape == ()              # 0-d scalar alpha
    opt = Adam(lr=0.01, beta1=0.85, beta2=0.99, eps=1e-8)
    ref_step, ref_state = _per_name_adam(0.01, 0.85, 0.99, 1e-8)
    moments = [(opt._m, ref_state["m"]), (opt._v, ref_state["v"])]
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


def test_flat_state_rejects_a_changed_parameter_set():
    opt = Adam(lr=0.1)
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


def test_one_step_decreases_quadratic_probe():
    """L = ||p||^2 at lr 1e-3."""
    p = {"w": np.array([0.7, -1.3, 0.2])}
    before = float(p["w"] @ p["w"])
    Adam(lr=1e-3).step(p, {"w": 2.0 * p["w"]})
    assert float(p["w"] @ p["w"]) < before


# ---------------------------------------------------------------------------
# training loss

def test_training_loss_reduces_to_task_loss():
    rng = np.random.default_rng(2)
    net = build_mlp("noise_fixed", 2, [4], 1, noise_level=0.0, rng=rng)
    x, y = rng.normal(size=(6, 2)), rng.normal(size=(6, 1))
    noise = np.random.default_rng(3)
    frozen = [sample_noise(l, noise) for l in net.layers]
    loss, _ = training_loss_and_grads(net, x, y, weight_decay=0.0,
                                      frozen_noise=frozen)
    out, _ = net.forward(x, "deterministic")
    assert abs(loss - loss_mse(out, y)) < 1e-15


def test_training_loss_hand_value():
    # lambda=1 on a single weight of 2, data term exactly zero
    net = linear_net(2.0)
    loss, _ = training_loss_and_grads(net, np.zeros((1, 1)), np.zeros((1, 1)),
                                      weight_decay=1.0, frozen_noise=[None])
    assert loss == 4.0


def test_training_loss_is_sum_of_parts():
    rng = np.random.default_rng(4)
    spec = NoiseSpec(mode="learned", alpha_init=0.1, alpha_penalty_lambda=0.05)
    net = Network([NoisyDenseLayer.create(3, 4, "tanh", rng, spec=spec),
                   NoisyDenseLayer.create(4, 1, "identity", rng, spec=spec)])
    x, y = rng.normal(size=(5, 3)), rng.normal(size=(5, 1))
    frozen = [sample_noise(l, rng) for l in net.layers]
    wd = 0.01

    total, _ = training_loss_and_grads(net, x, y, weight_decay=wd,
                                       frozen_noise=frozen)
    out, _ = net.forward(x, "train", frozen_noise=frozen)
    alpha_sq = sum(float(l.alpha ** 2) for l in net.layers)
    parts = loss_mse(out, y) + l2_penalty(net, wd) - 0.05 * alpha_sq
    assert abs(total - parts) < 1e-12


def test_weight_decay_never_reaches_alpha():
    rng = np.random.default_rng(5)
    spec = NoiseSpec(mode="learned", alpha_init=0.5)
    net = Network([NoisyDenseLayer.create(2, 2, "identity", rng, spec=spec)])
    x, y = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))
    frozen = [sample_noise(net.layers[0], rng)]
    _, decayed = training_loss_and_grads(net, x, y, 10.0, frozen_noise=frozen)
    _, plain = training_loss_and_grads(net, x, y, 0.0, frozen_noise=frozen)
    assert np.array_equal(decayed["L0.alpha"], plain["L0.alpha"])
    assert not np.array_equal(decayed["L0.W"], plain["L0.W"])
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
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="empty training set"):
        fit(net, np.empty((0, 1)), np.empty((0, 1)), cfg, rng=rng)
    with pytest.raises(ValueError):
        fit(net, np.ones((2, 1)), np.ones((2, 1)), cfg, np.ones((1, 1)), None,
            rng=rng)


def test_fit_requires_a_generator():
    x, y = np.ones((2, 1)), np.ones((2, 1))
    with pytest.raises(ValueError, match="generator"):
        fit(linear_net(), x, y, TrainConfig())
    with pytest.raises(ValueError, match="generator"):
        fit([linear_net(), linear_net()], x, y, TrainConfig())
    with pytest.raises(ValueError, match="generator"):
        fit([linear_net(), linear_net()], x, y, TrainConfig(),
            rng=[np.random.default_rng(0), None])


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(lr=0.0)
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
# stacked fit: several nets trained as one member stack

def reference_fit(net, train_x, train_y, cfg, val_x, val_y, rng):
    """The one-net-at-a-time training loop, kept as the reference: a single
    net (no member axis), its own optimizer, a Python list of batch losses."""
    n = train_x.shape[0]
    shuffle_rng, noise_rng = rng.spawn(2)
    optimizer = Adam(cfg.lr)
    params = net.parameters()
    history = {"train_loss": [], "val_loss": []}
    best_val, best_epoch, best_params, bad_epochs = np.inf, -1, None, 0
    stopped = False
    for epoch in range(cfg.max_epochs):
        epochs_run = epoch + 1
        order = shuffle_rng.permutation(n)
        batch_losses = []
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            loss, grads = training_loss_and_grads(
                net, train_x[idx], train_y[idx], cfg.weight_decay, TRAIN,
                noise_rng)
            optimizer.step(params, grads)
            batch_losses.append(loss)
        history["train_loss"].append(float(np.mean(batch_losses)))
        vals = [task_loss(net, val_x, val_y, EVAL, noise_rng)
                for _ in range(cfg.val_passes)]
        v = float(np.mean(vals))
        history["val_loss"].append(v)
        if v < best_val:
            best_val, best_epoch, bad_epochs = v, epoch, 0
            best_params = net.copy_parameters()
        else:
            bad_epochs += 1
            if cfg.patience > 0 and bad_epochs >= cfg.patience:
                stopped = True
                break
    if best_params is not None:
        net.load_parameters(best_params)
    return FitResult(history=history, best_epoch=best_epoch,
                     best_val_loss=float(best_val), epochs_run=epochs_run,
                     stopped_early=stopped)


def stack_data(task, seed=20):
    """70 training rows and 11 validation rows, 3 features; 2 targets or 3
    classes. At batch size 8 that is 9 batches, the last one ragged: enough
    for an epoch's mean loss to be summed pairwise, not left to right."""
    rng = np.random.default_rng(seed)
    x, xv = rng.normal(size=(70, 3)), rng.normal(size=(11, 3))
    if task == "regression":
        w = rng.normal(size=(3, 2))
        return (x, np.tanh(x @ w) + 0.1 * rng.normal(size=(70, 2)),
                xv, np.tanh(xv @ w))
    return (x, rng.integers(0, 3, size=70), xv, rng.integers(0, 3, size=11))


# per member: learning rate, weight decay, family knob
STACK_MEMBERS = [(0.3, 1e-3, 0.2), (0.02, 0.0, 0.05), (0.005, {"L0.W": 1e-2}, 0.0),
                 (0.05, 1e-4, 0.1)]


def build_member(family, task, knob, seed):
    out_dim = 2 if task == "regression" else 3
    kwargs = {"dropout_p": knob} if family == "mc_dropout" else {
        "noise_level": knob}
    return build_mlp(family, 3, [5, 4], out_dim, task=task, activation="tanh",
                     rng=np.random.default_rng([seed, 1]), **kwargs)


def assert_same_fit(net, result, ref_net, ref):
    for name, p in ref_net.parameters().items():
        assert np.array_equal(net.parameters()[name], p), name
    assert result.history == ref.history
    assert result.best_epoch == ref.best_epoch
    assert result.best_val_loss == ref.best_val_loss
    assert result.epochs_run == ref.epochs_run
    assert result.stopped_early == ref.stopped_early
    assert not result.diverged


@pytest.mark.parametrize("task", ["regression", "classification"])
@pytest.mark.parametrize("family", FAMILIES)
def test_stacked_fit_equals_each_member_fitted_alone(family, task):
    x, y, xv, yv = stack_data(task)
    cfgs = [TrainConfig(lr=lr, weight_decay=wd, max_epochs=25, batch_size=8,
                        patience=2, val_passes=2)
            for lr, wd, _ in STACK_MEMBERS]
    seeds = range(30, 30 + len(STACK_MEMBERS))
    nets = [build_member(family, task, knob, seed)
            for (_, _, knob), seed in zip(STACK_MEMBERS, seeds)]
    results = fit(nets, x, y, cfgs, xv, yv,
                  rng=[np.random.default_rng([seed, 2]) for seed in seeds])
    # members stop at different epochs, so the stack is compacted mid-run
    assert len({r.epochs_run for r in results}) > 1
    assert any(r.stopped_early for r in results)
    for (_, _, knob), seed, c, net, result in zip(STACK_MEMBERS, seeds, cfgs,
                                                  nets, results):
        ref_net = build_member(family, task, knob, seed)
        ref = reference_fit(ref_net, x, y, c, xv, yv,
                            np.random.default_rng([seed, 2]))
        assert_same_fit(net, result, ref_net, ref)
        alone = build_member(family, task, knob, seed)
        solo = fit(alone, x, y, c, xv, yv, rng=np.random.default_rng([seed, 2]))
        assert_same_fit(alone, solo, ref_net, ref)


class PlainStep:
    """p <- p - lr * g with one rate per stacked member. Adam's steps are
    bounded by lr, so only a plain step at a huge rate drives a fit to
    overflow within a few epochs."""

    def __init__(self, cfgs):
        self.lr = np.array([c.lr for c in cfgs])

    def step(self, params, grads):
        for name, g in grads.items():
            params[name] -= self.lr.reshape((-1,) + (1,) * (g.ndim - 1)) * g

    def select(self, keep):
        self.lr = self.lr[keep]


@pytest.fixture
def plain_step(monkeypatch):
    monkeypatch.setattr(mcni.optim, "make_optimizer", PlainStep)


def test_diverged_member_stops_and_healthy_member_is_unaffected(plain_step):
    x, y, xv, yv = stack_data("regression", seed=22)
    wild = TrainConfig(lr=50.0, max_epochs=30, batch_size=8)
    calm = TrainConfig(lr=0.01, max_epochs=30, batch_size=8)
    nets = [build_member("noise_fixed", "regression", 0.05, s) for s in (50, 51)]
    with np.errstate(all="ignore"):
        wild_result, calm_result = fit(
            nets, x, y, [wild, calm], xv, yv,
            rng=[np.random.default_rng(50), np.random.default_rng(51)])
    assert wild_result.diverged and wild_result.stopped_early
    assert wild_result.epochs_run < wild.max_epochs
    last = (wild_result.history["train_loss"][-1],
            wild_result.history["val_loss"][-1])
    assert not all(np.isfinite(last))
    assert all(np.isfinite(wild_result.history["val_loss"][:-1]))
    assert np.isfinite(wild_result.best_val_loss)
    assert not calm_result.diverged and not calm_result.stopped_early
    assert calm_result.epochs_run == calm.max_epochs

    alone = build_member("noise_fixed", "regression", 0.05, 51)
    solo = fit(alone, x, y, calm, xv, yv, rng=np.random.default_rng(51))
    assert_same_fit(nets[1], calm_result, alone, solo)


def test_non_finite_train_loss_stops_without_validation(plain_step):
    x, y, _, _ = stack_data("regression", seed=23)
    net = build_member("deterministic", "regression", 0.0, 60)
    cfg = TrainConfig(lr=50.0, max_epochs=40, batch_size=8)
    with np.errstate(all="ignore"):
        result = fit(net, x, y, cfg, rng=np.random.default_rng(60))
    assert result.diverged and result.epochs_run < cfg.max_epochs
    assert not np.isfinite(result.history["train_loss"][-1])


def test_stacked_fit_rejects_mismatched_members():
    x, y, xv, yv = stack_data("regression")
    nets = [build_member("noise_fixed", "regression", 0.05, s) for s in (1, 2)]
    with pytest.raises(ValueError, match="max_epochs"):
        fit(nets, x, y, [TrainConfig(max_epochs=2), TrainConfig(max_epochs=3)],
            rng=[np.random.default_rng(0), np.random.default_rng(1)])
    with pytest.raises(ValueError, match="one generator per net"):
        fit(nets, x, y, TrainConfig(), rng=[np.random.default_rng(0)])
    other = build_mlp("noise_fixed", 3, [6], 2, rng=np.random.default_rng(3))
    with pytest.raises(ValueError):
        fit([nets[0], other], x, y, TrainConfig(max_epochs=1),
            rng=[np.random.default_rng(0), np.random.default_rng(1)])


def test_stacked_optimizer_rows_equal_separate_optimizers():
    """Per-member learning rates, and rows dropped by select mid-run."""
    rng = np.random.default_rng(24)
    lrs = [0.1, 0.01, 0.003]
    stacked = {"w": rng.normal(size=(3, 2, 2)), "a": rng.normal(size=(3, 1, 1))}
    singles = [{"w": stacked["w"][s].copy(), "a": stacked["a"][s].reshape(())}
               for s in range(3)]
    opt, refs = Adam(np.array(lrs)), [Adam(lr) for lr in lrs]
    members = [0, 1, 2]
    for step in range(6):
        if step == 3:                      # member 1 leaves the stack
            opt.select([0, 2])
            stacked = {k: v[[0, 2]] for k, v in stacked.items()}
            members = [0, 2]
        g = {"w": rng.normal(size=(len(members), 2, 2)),
             "a": rng.normal(size=(len(members), 1, 1))}
        opt.step(stacked, g)
        for row, s in enumerate(members):
            refs[s].step(singles[s], {"w": g["w"][row], "a": g["a"][row].reshape(())})
            assert np.array_equal(stacked["w"][row], singles[s]["w"])
            assert stacked["a"][row, 0, 0] == singles[s]["a"]
            assert np.array_equal(opt._m["w"][row], refs[s]._m["w"])
    assert opt._state.buffers[0].shape[0] == 2


# ---------------------------------------------------------------------------
# grid search

def each(fn):
    """A batch ``evaluate`` that applies fn(config, rng) to every assignment."""
    return lambda configs, rngs: [fn(c, r) for c, r in zip(configs, rngs)]


def test_single_point_grid_returns_it():
    def evaluate(config, rng):
        return {"val_loss": 1.0}
    result = grid_search(each(evaluate), {"lr": [0.01]})
    assert result.best["lr"] == 0.01
    assert result.best["config_index"] == 0
    assert len(result.rows) == 1


def test_scripted_lower_loss_wins():
    def evaluate(config, rng):
        return {"val_loss": 0.1 if config["wd"] == 0.5 else 0.9}
    result = grid_search(each(evaluate), {"lr": [0.01], "wd": [0.1, 0.5]})
    assert result.best["wd"] == 0.5


def test_leaderboard_length_is_grid_product():
    calls, batches = [], []

    def evaluate(configs, rngs):
        batches.append(len(configs))
        calls.extend(dict(c) for c in configs)
        return [{"val_loss": 1.0} for _ in configs]

    result = grid_search(evaluate, {"a": [1, 2, 3], "b": [10, 20]})
    assert len(result.rows) == 6
    assert len(calls) == 6
    assert batches == [6]                  # every assignment in one call
    assert calls == [{"a": a, "b": b} for a in (1, 2, 3) for b in (10, 20)]
    assert [r["config_index"] for r in result.rows] == list(range(6))


def test_ties_break_toward_smaller_lr_then_declaration_order():
    def evaluate(config, rng):
        return {"val_loss": 1.0}
    result = grid_search(each(evaluate), {"lr": [0.01, 0.001]})
    assert result.best["lr"] == 0.001
    result = grid_search(each(evaluate), {"lr": [0.01], "wd": [0.3, 0.7]})
    assert result.best["wd"] == 0.3        # earlier declaration wins the tie


def test_grid_sub_seeds_are_deterministic():
    def evaluate(config, rng):
        return {"val_loss": float(rng.random())}
    a = grid_search(each(evaluate), {"lr": [0.1, 0.2], "wd": [0.0, 1.0]}, seed=5)
    b = grid_search(each(evaluate), {"lr": [0.1, 0.2], "wd": [0.0, 1.0]}, seed=5)
    assert [r["val_loss"] for r in a.rows] == [r["val_loss"] for r in b.rows]


def test_grid_sub_streams_follow_seed_and_config_index():
    def evaluate(config, rng):
        return {"val_loss": float(rng.random())}
    result = grid_search(each(evaluate), {"lr": [0.1, 0.2], "wd": [0.0, 1.0]},
                         seed=5)
    expected = [float(np.random.default_rng([5, idx]).random())
                for idx in range(4)]
    assert [r["val_loss"] for r in result.rows] == expected


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_val_loss_ranks_last(bad):
    losses = [bad, 0.5, 0.1]

    def evaluate(config, rng):
        return {"val_loss": losses[config["wd"]]}
    result = grid_search(each(evaluate), {"lr": [0.01], "wd": [0, 1, 2]})
    assert result.best["config_index"] == 2
    losses[2] = bad
    result = grid_search(each(evaluate), {"lr": [0.01], "wd": [0, 1, 2]})
    assert result.best["config_index"] == 1


def test_all_non_finite_falls_to_lr_then_declaration_order():
    losses = {(0.01, 0): np.nan, (0.01, 1): np.inf,
              (0.001, 0): np.inf, (0.001, 1): np.nan}

    def evaluate(config, rng):
        return {"val_loss": losses[config["lr"], config["wd"]]}
    result = grid_search(each(evaluate), {"lr": [0.01, 0.001], "wd": [0, 1]})
    assert result.best["lr"] == 0.001
    assert result.best["config_index"] == 2


def test_grid_rejects_bad_specs():
    def evaluate(config, rng):
        return {}
    with pytest.raises(ValueError):
        grid_search(each(evaluate), {})
    with pytest.raises(ValueError):
        grid_search(each(evaluate), {"lr": []})
    with pytest.raises(ValueError):
        grid_search(each(evaluate), {"lr": [0.1]})       # no val_loss reported
    with pytest.raises(ValueError, match="2 assignments"):
        grid_search(lambda configs, rngs: [{"val_loss": 1.0}],
                    {"lr": [0.1, 0.2]})                  # one result short
