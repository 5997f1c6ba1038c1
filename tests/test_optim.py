"""Optimizers, training loss assembly, early stopping, grid search."""

import numpy as np
import pytest

import mcni.optim
from mcni.nn import DenseLayer, Network, loss_mse
from mcni.noise import NoiseSpec, NoisyDenseLayer, sample_noise
from mcni.models import FAMILIES, build_mlp
from mcni.optim import (Adam, FitResult, Penalty, TrainConfig, fit,
                        grid_assignments, grid_search, task_loss,
                        training_loss_and_grads)

from oracles import adam_steps_oracle


def linear_net(w0=0.0):
    return Network([DenseLayer(W=np.array([[w0]]), b=np.zeros(1))])


# ---------------------------------------------------------------------------
# Adam

def test_adam_zero_gradient_leaves_params_alone():
    p = np.array([1.5, -2.0])
    opt = Adam(lr=0.1)
    for _ in range(5):
        opt.step(p, np.zeros(2))
    assert np.array_equal(p, [1.5, -2.0])


def test_adam_moments_decay_on_zero_gradient():
    p = np.array([0.0])
    opt = Adam(lr=0.1)
    opt.step(p, np.array([1.0]))
    m1 = opt.moments[0].copy()
    opt.step(p, np.array([0.0]))
    assert np.allclose(opt.moments[0], 0.9 * m1, rtol=0, atol=1e-15)


def test_adam_first_step_is_about_lr():
    p = np.array([0.0])
    Adam(lr=0.05).step(p, np.array([3.0]))
    assert abs(abs(p[0]) - 0.05) < 1e-8


def test_adam_matches_scalar_loop_oracle():
    rng = np.random.default_rng(0)
    grads = rng.normal(size=(12, 4))
    p = np.linspace(-1, 1, 4).copy()
    opt = Adam(lr=0.02)
    for g in grads:
        opt.step(p, g)
    for j in range(4):
        ref = adam_steps_oracle(np.linspace(-1, 1, 4)[j], grads[:, j].tolist(),
                                lr=0.02, beta1=0.9, beta2=0.999, eps=1e-8)
        assert abs(p[j] - ref) < 1e-12


def test_adam_takes_only_a_learning_rate():
    """The betas and eps are the published defaults, not settings."""
    assert (mcni.optim.BETA1, mcni.optim.BETA2, mcni.optim.EPS) == (0.9, 0.999, 1e-8)
    with pytest.raises(TypeError):
        Adam(0.1, beta1=0.9)


def _per_name_adam(lr, beta1, beta2, eps):
    """The per-parameter Adam loop the block Adam must reproduce."""
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
    opt = Adam(lr=0.01)
    ref_step, ref_state = _per_name_adam(0.01, 0.9, 0.999, 1e-8)
    params, ref_params = net.parameters(), twin.parameters()
    data = np.random.default_rng(9)
    x, y = data.normal(size=(7, 3)), data.normal(size=(7, 2))
    noise = np.random.default_rng(10)
    for _ in range(6):
        _, grad = training_loss_and_grads(net, x, y, 0.01, rng=noise)
        ref_step(ref_params, {k: g.copy() for k, g in net.views(grad).items()})
        opt.step(net.flat, grad)
        for name in params:
            assert np.array_equal(params[name], ref_params[name]), name
        for k, ref in enumerate((ref_state["m"], ref_state["v"])):
            block = net.views(opt.moments[k])
            assert block.keys() == ref.keys() == params.keys()
            for name in ref:
                assert block[name].shape == ref[name].shape
                assert np.array_equal(block[name], ref[name]), name


def test_one_step_decreases_quadratic_probe():
    """L = ||p||^2 at lr 1e-3."""
    p = np.array([0.7, -1.3, 0.2])
    before = float(p @ p)
    Adam(lr=1e-3).step(p, 2.0 * p)
    assert float(p @ p) < before


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
    # alpha = 0: any live pass is the plain net's pass
    out, _ = net.forward(x, np.random.default_rng(4))
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
    out, _ = net.forward(x, frozen_noise=frozen)
    l2 = sum(float(np.sum(l.W ** 2) + np.sum(l.b ** 2)) for l in net.layers)
    alpha_sq = sum(float(l.alpha ** 2) for l in net.layers)
    parts = loss_mse(out, y) + wd * l2 - 0.05 * alpha_sq
    assert abs(total - parts) < 1e-12


def test_fixed_alpha_reward_adds_nothing():
    """A fixed alpha is not a parameter: its lambda moves no loss or grad."""
    rewarded, plain = (build_mlp("noise_fixed", 3, [4], 1, noise_level=0.3,
                                 alpha_penalty_lambda=lam,
                                 rng=np.random.default_rng(15))
                       for lam in (0.5, 0.0))
    rng = np.random.default_rng(16)
    x, y = rng.normal(size=(5, 3)), rng.normal(size=(5, 1))
    frozen = [sample_noise(l, rng) for l in plain.layers]
    loss, grad = training_loss_and_grads(rewarded, x, y, 0.01,
                                         frozen_noise=frozen)
    ref_loss, ref_grad = training_loss_and_grads(plain, x, y, 0.01,
                                                 frozen_noise=frozen)
    assert loss == ref_loss
    assert np.array_equal(grad, ref_grad)
    untouched = np.full_like(rewarded.flat, -0.0)
    assert Penalty(rewarded, 0.0).terms(rewarded, untouched) == 0.0
    assert np.all(untouched == 0.0) and np.all(np.signbit(untouched))


def test_training_loss_rejects_a_stale_call():
    """The loss once took a mode before the generator: such a call fails
    loudly instead of passing the generator on as frozen noise."""
    net = build_mlp("noise_fixed", 2, [3], 1, rng=np.random.default_rng(6))
    x, y, rng = np.ones((2, 2)), np.ones((2, 1)), np.random.default_rng(7)
    with pytest.raises(TypeError):
        training_loss_and_grads(net, x, y, 0.0, "train")
    with pytest.raises(TypeError):
        training_loss_and_grads(net, x, y, 0.0, "train", rng)
    with pytest.raises(TypeError):
        task_loss(net, x, y, "eval")
    assert np.isfinite(training_loss_and_grads(net, x, y, 0.0, rng)[0])


def test_weight_decay_is_one_float_per_member():
    net = linear_net(1.0)
    x = np.ones((2, 1))
    with pytest.raises(TypeError):
        training_loss_and_grads(net, x, x, {"L0.W": 0.1})
    with pytest.raises(TypeError):
        fit(net, x, x, TrainConfig(weight_decay={"L0.W": 0.1}),
            rng=np.random.default_rng(0))


@pytest.mark.parametrize("decay", [float("inf"), float("nan"), -1.0])
def test_penalty_rejects_a_non_finite_or_negative_weight_decay(decay):
    with pytest.raises(ValueError, match="weight decay"):
        Penalty(linear_net(1.0), decay)


def test_weight_decay_never_reaches_alpha():
    rng = np.random.default_rng(5)
    spec = NoiseSpec(mode="learned", alpha_init=0.5)
    net = Network([NoisyDenseLayer.create(2, 2, "identity", rng, spec=spec)])
    x, y = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))
    frozen = [sample_noise(net.layers[0], rng)]
    _, decayed = training_loss_and_grads(net, x, y, 10.0, frozen_noise=frozen)
    _, plain = training_loss_and_grads(net, x, y, 0.0, frozen_noise=frozen)
    decayed, plain = net.views(decayed), net.views(plain)
    assert np.array_equal(decayed["L0.alpha"], plain["L0.alpha"])
    assert not np.array_equal(decayed["L0.W"], plain["L0.W"])
    with_alpha = Penalty(net, 10.0).terms(net, np.zeros_like(net.flat))
    net.layers[0].alpha[...] = 123.0
    assert Penalty(net, 10.0).terms(net, np.zeros_like(net.flat)) == with_alpha


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


def test_fit_rejects_targets_that_do_not_match_the_inputs():
    net = linear_net()
    cfg = TrainConfig(max_epochs=2, batch_size=8)
    for rows in (30, 10):
        with pytest.raises(ValueError, match=f"{rows} training targets for 20"):
            fit(net, np.ones((20, 1)), np.ones((rows, 1)), cfg,
                rng=np.random.default_rng(0))
    assert net.layers[0].W[0, 0] == 0.0          # nothing trained


@pytest.mark.parametrize("val_x, val_y, message", [
    (np.ones((20, 1)), np.ones((1, 1)), "1 validation targets for 20 inputs"),
    (np.ones((20, 3)), np.ones((20, 1)), "3 features; the net takes 1"),
    (np.empty((0, 1)), np.empty((0, 1)), "empty validation set"),
])
def test_fit_checks_the_validation_set_before_training(monkeypatch, val_x,
                                                       val_y, message):
    steps = []
    original = mcni.optim.Adam.step

    def counting(self, params, grads):
        steps.append(1)
        return original(self, params, grads)

    monkeypatch.setattr(mcni.optim.Adam, "step", counting)
    with pytest.raises(ValueError, match=message):
        fit(linear_net(), np.ones((20, 1)), np.ones((20, 1)),
            TrainConfig(max_epochs=2), val_x, val_y,
            rng=np.random.default_rng(0))
    assert steps == []


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
    for lr in (np.nan, np.inf):
        with pytest.raises(ValueError, match="learning rate"):
            TrainConfig(lr=lr)
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


@pytest.mark.parametrize("beside", [None, 0.2], ids=["alone", "stacked"])
def test_p_zero_dropout_follows_deterministic_trajectory(beside):
    """The p = 0 twin trains like the plain net, alone or in a stack beside
    a live dropout member. Dropout layers hold no parameters, so the two
    nets' flat parameter vectors line up."""
    x, y = toy_regression(n=24, seed=12)
    cfg = TrainConfig(lr=0.01, max_epochs=12, batch_size=8)
    det = build_mlp("deterministic", 2, [5], 1, rng=np.random.default_rng(13))
    twin = build_mlp("mc_dropout", 2, [5], 1, dropout_p=0.0,
                     rng=np.random.default_rng(13))
    fit(det, x, y, cfg, rng=np.random.default_rng(14))
    if beside is None:
        fit(twin, x, y, cfg, rng=np.random.default_rng(14))
    else:
        live = build_mlp("mc_dropout", 2, [5], 1, dropout_p=beside,
                         rng=np.random.default_rng(13))
        fit([twin, live], x, y, cfg,
            rng=[np.random.default_rng(14), np.random.default_rng(14)])
        # the same start and seed: only its live dropout moves it away
        assert not np.array_equal(live.flat, det.flat)
    assert np.array_equal(twin.flat, det.flat)


# ---------------------------------------------------------------------------
# stacked fit: several nets trained as one member stack

def reference_fit(net, train_x, train_y, cfg, val_x, val_y, rng):
    """The one-net-at-a-time training loop, kept as the reference: a single
    net (no member axis), its own optimizer, a Python list of batch losses."""
    n = train_x.shape[0]
    shuffle_rng, noise_rng = rng.spawn(2)
    optimizer = Adam(cfg.lr)
    history = {"train_loss": [], "val_loss": []}
    best_val, best_epoch, best_params, bad_epochs = np.inf, -1, None, 0
    stopped = False
    for epoch in range(cfg.max_epochs):
        epochs_run = epoch + 1
        order = shuffle_rng.permutation(n)
        batch_losses = []
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            loss, grad = training_loss_and_grads(
                net, train_x[idx], train_y[idx], cfg.weight_decay, noise_rng)
            optimizer.step(net.flat, grad)
            batch_losses.append(loss)
        history["train_loss"].append(float(np.mean(batch_losses)))
        vals = [task_loss(net, val_x, val_y, noise_rng)
                for _ in range(cfg.val_passes)]
        v = float(np.mean(vals))
        history["val_loss"].append(v)
        if v < best_val:
            best_val, best_epoch, bad_epochs = v, epoch, 0
            best_params = {k: p.copy() for k, p in net.parameters().items()}
        else:
            bad_epochs += 1
            if cfg.patience > 0 and bad_epochs >= cfg.patience:
                stopped = True
                break
    if best_params is not None:
        for name, p in net.parameters().items():
            np.copyto(p, best_params[name])
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


# per member: learning rate, weight decay, family knob; the member without
# decay takes the -0.0 path of a stack with mixed decays
STACK_MEMBERS = [(0.3, 1e-3, 0.2), (0.02, 0.0, 0.05), (0.005, 1e-2, 0.0),
                 (0.05, 1e-4, 0.1)]


def build_member(family, task, knob, seed, reward=0.0):
    out_dim = 2 if task == "regression" else 3
    kwargs = {"dropout_p": knob} if family == "mc_dropout" else {
        "noise_level": knob}
    return build_mlp(family, 3, [5, 4], out_dim, task=task, activation="tanh",
                     rng=np.random.default_rng([seed, 1]),
                     alpha_penalty_lambda=reward, **kwargs)


def assert_same_fit(net, result, ref_net, ref):
    for name, p in ref_net.parameters().items():
        assert np.array_equal(net.parameters()[name], p), name
    assert result.history == ref.history
    assert result.best_epoch == ref.best_epoch
    assert result.best_val_loss == ref.best_val_loss
    assert result.epochs_run == ref.epochs_run
    assert result.stopped_early == ref.stopped_early
    assert not result.diverged


def check_stacked_fit(family, task, reward=0.0):
    """Fit STACK_MEMBERS as one stack; each member must equal its lone fit
    and reference_fit."""
    x, y, xv, yv = stack_data(task)
    cfgs = [TrainConfig(lr=lr, weight_decay=wd, max_epochs=25, batch_size=8,
                        patience=2, val_passes=2)
            for lr, wd, _ in STACK_MEMBERS]
    seeds = range(30, 30 + len(STACK_MEMBERS))
    nets = [build_member(family, task, knob, seed, reward)
            for (_, _, knob), seed in zip(STACK_MEMBERS, seeds)]
    results = fit(nets, x, y, cfgs, xv, yv,
                  rng=[np.random.default_rng([seed, 2]) for seed in seeds])
    # members stop at different epochs, so the stack is compacted mid-run
    assert len({r.epochs_run for r in results}) > 1
    assert any(r.stopped_early for r in results)
    for (_, _, knob), seed, c, net, result in zip(STACK_MEMBERS, seeds, cfgs,
                                                  nets, results):
        ref_net = build_member(family, task, knob, seed, reward)
        ref = reference_fit(ref_net, x, y, c, xv, yv,
                            np.random.default_rng([seed, 2]))
        assert_same_fit(net, result, ref_net, ref)
        alone = build_member(family, task, knob, seed, reward)
        solo = fit(alone, x, y, c, xv, yv, rng=np.random.default_rng([seed, 2]))
        assert_same_fit(alone, solo, ref_net, ref)


@pytest.mark.parametrize("task", ["regression", "classification"])
@pytest.mark.parametrize("family", FAMILIES)
def test_stacked_fit_equals_each_member_fitted_alone(family, task):
    check_stacked_fit(family, task)


def test_stacked_learned_noise_with_reward_equals_lone_fits():
    """Mixed decays and the alpha reward, both in the one penalty."""
    check_stacked_fit("noise_learned", "regression", reward=0.05)


class PlainStep:
    """p <- p - lr * g with one rate per stacked member. Adam's steps are
    bounded by lr, so only a plain step at a huge rate drives a fit to
    overflow within a few epochs."""

    def __init__(self, lr):
        self.lr = np.asarray(lr)

    def step(self, p, g):
        p -= self.lr[:, None] * g

    def select(self, keep):
        self.lr = self.lr[keep]


@pytest.fixture
def plain_step(monkeypatch):
    monkeypatch.setattr(mcni.optim, "Adam", PlainStep)


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
    stacked = rng.normal(size=(3, 5))
    singles = [stacked[s].copy() for s in range(3)]
    opt, refs = Adam(np.array(lrs)), [Adam(lr) for lr in lrs]
    members = [0, 1, 2]
    for step in range(6):
        if step == 3:                      # member 1 leaves the stack
            opt.select([0, 2])
            stacked = stacked[[0, 2]]
            members = [0, 2]
        g = rng.normal(size=(len(members), 5))
        opt.step(stacked, g)
        for row, s in enumerate(members):
            refs[s].step(singles[s], g[row])
            assert np.array_equal(stacked[row], singles[s])
            assert np.array_equal(opt.moments[0][row], refs[s].moments[0])
            assert np.array_equal(opt.moments[1][row], refs[s].moments[1])
    assert opt.moments[0].shape[0] == 2


# ---------------------------------------------------------------------------
# grid search

def search(fn, grid, seed=0):
    """A grid search that scores every assignment with fn(config, rng)."""
    assignments, rngs = grid_assignments(grid, seed=seed)
    return grid_search(assignments, [fn(c, r) for c, r in zip(assignments, rngs)])


def test_single_point_grid_returns_it():
    def evaluate(config, rng):
        return {"val_loss": 1.0}
    result = search(evaluate, {"lr": [0.01]})
    assert result.best["lr"] == 0.01
    assert result.best["config_index"] == 0
    assert len(result.rows) == 1


def test_scripted_lower_loss_wins():
    def evaluate(config, rng):
        return {"val_loss": 0.1 if config["wd"] == 0.5 else 0.9}
    result = search(evaluate, {"lr": [0.01], "wd": [0.1, 0.5]})
    assert result.best["wd"] == 0.5


def test_leaderboard_length_is_grid_product():
    assignments, rngs = grid_assignments({"a": [1, 2, 3], "b": [10, 20]})
    assert assignments == [{"a": a, "b": b} for a in (1, 2, 3) for b in (10, 20)]
    assert len(rngs) == 6
    result = grid_search(assignments, [{"val_loss": 1.0} for _ in assignments])
    assert len(result.rows) == 6
    assert [r["config_index"] for r in result.rows] == list(range(6))


def test_ties_break_toward_smaller_lr_then_declaration_order():
    def evaluate(config, rng):
        return {"val_loss": 1.0}
    result = search(evaluate, {"lr": [0.01, 0.001]})
    assert result.best["lr"] == 0.001
    result = search(evaluate, {"lr": [0.01], "wd": [0.3, 0.7]})
    assert result.best["wd"] == 0.3        # earlier declaration wins the tie


def test_grid_sub_seeds_are_deterministic():
    def evaluate(config, rng):
        return {"val_loss": float(rng.random())}
    a = search(evaluate, {"lr": [0.1, 0.2], "wd": [0.0, 1.0]}, seed=5)
    b = search(evaluate, {"lr": [0.1, 0.2], "wd": [0.0, 1.0]}, seed=5)
    assert [r["val_loss"] for r in a.rows] == [r["val_loss"] for r in b.rows]


def test_grid_sub_streams_follow_seed_and_config_index():
    def evaluate(config, rng):
        return {"val_loss": float(rng.random())}
    result = search(evaluate, {"lr": [0.1, 0.2], "wd": [0.0, 1.0]}, seed=5)
    expected = [float(np.random.default_rng([5, idx]).random())
                for idx in range(4)]
    assert [r["val_loss"] for r in result.rows] == expected


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_val_loss_ranks_last(bad):
    losses = [bad, 0.5, 0.1]

    def evaluate(config, rng):
        return {"val_loss": losses[config["wd"]]}
    result = search(evaluate, {"lr": [0.01], "wd": [0, 1, 2]})
    assert result.best["config_index"] == 2
    losses[2] = bad
    result = search(evaluate, {"lr": [0.01], "wd": [0, 1, 2]})
    assert result.best["config_index"] == 1


def test_all_non_finite_falls_to_lr_then_declaration_order():
    losses = {(0.01, 0): np.nan, (0.01, 1): np.inf,
              (0.001, 0): np.inf, (0.001, 1): np.nan}

    def evaluate(config, rng):
        return {"val_loss": losses[config["lr"], config["wd"]]}
    result = search(evaluate, {"lr": [0.01, 0.001], "wd": [0, 1]})
    assert result.best["lr"] == 0.001
    assert result.best["config_index"] == 2


def test_grid_rejects_bad_specs():
    with pytest.raises(ValueError):
        grid_assignments({})
    with pytest.raises(ValueError):
        grid_assignments({"lr": []})
    with pytest.raises(ValueError, match="val_loss"):
        search(lambda config, rng: {}, {"lr": [0.1]})    # no val_loss reported
    with pytest.raises(ValueError, match="2 assignments"):
        grid_search(grid_assignments({"lr": [0.1, 0.2]})[0],
                  [{"val_loss": 1.0}])                   # one result short
