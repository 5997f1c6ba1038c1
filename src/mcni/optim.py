"""Training: Adam, SGD with momentum, early stopping, and grid search.

The training loss is task loss + L2 weight decay + the optional noise-level
reward (-lambda * ||alpha||^2, carried per layer by its NoiseSpec). Noise and
dropout draws are live during training; validation is scored with a noisy
EVAL pass because stochastic prediction is the model being selected.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .nn import (EVAL, TRAIN, Network, _l2_terms, l2_penalty,
                 loss_cross_entropy, loss_cross_entropy_grad, loss_mse,
                 loss_mse_grad)
from .noise import NoisyDenseLayer


@dataclass
class TrainConfig:
    optimizer: str = "adam"          # "adam" | "sgd"
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    momentum: float = 0.9
    weight_decay: float | Mapping[str, float] = 0.0
    max_epochs: int = 100
    batch_size: int = 32
    patience: int = 0                # 0 disables early stopping
    val_passes: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.lr <= 0.0:
            raise ValueError("learning rate must be positive")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("Adam betas must lie in [0, 1)")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError("momentum must lie in [0, 1)")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.patience < 0:
            raise ValueError("patience must be non-negative")
        if self.val_passes < 1:
            raise ValueError("val_passes must be at least 1")


class _FlatState:
    """Optimizer buffers for all parameters, each one contiguous float64 vector.

    The first gather fixes the layout: the parameters that have a gradient,
    in ``params`` order, each owning a slice. A later step with other names
    raises rather than silently starting fresh moments. ``views`` holds, per
    buffer, name -> a view shaped like the parameter.
    """

    def __init__(self, n_buffers: int):
        self.names = None
        self.slots = []
        self.buffers = []
        self.views = [{} for _ in range(n_buffers)]

    def gather(self, params, grads) -> np.ndarray:
        names = [n for n in params if n in grads]
        if self.names is None:
            self.names, offset = names, 0
            for name in names:
                shape = np.shape(params[name])
                size = int(np.prod(shape))
                self.slots.append((name, slice(offset, offset + size), shape))
                offset += size
            self.buffers = [np.zeros(offset) for _ in self.views]
            for view, buf in zip(self.views, self.buffers):
                view.update((name, buf[sl].reshape(shape))
                            for name, sl, shape in self.slots)
        elif names != self.names:
            raise ValueError(f"parameters with a gradient changed from "
                             f"{self.names} to {names}")
        return np.concatenate([grads[n] for n in names], axis=None)

    def apply(self, params, update: np.ndarray) -> None:
        for name, sl, shape in self.slots:
            p = params[name]
            p -= update[sl].reshape(shape)


class Adam:
    """Bias-corrected Adam. State is keyed by parameter name."""

    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._state = _FlatState(2)
        self._m, self._v = self._state.views

    def step(self, params: Mapping[str, np.ndarray],
             grads: Mapping[str, np.ndarray]) -> None:
        g = self._state.gather(params, grads)
        m, v = self._state.buffers
        self.t += 1
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        v += (1.0 - self.beta2) * (g * g)
        m_hat = m / (1.0 - self.beta1 ** self.t)
        v_hat = v / (1.0 - self.beta2 ** self.t)
        self._state.apply(params, self.lr * m_hat / (np.sqrt(v_hat) + self.eps))


class SGDMomentum:
    """v <- mu*v + g; p <- p - lr*v."""

    def __init__(self, lr: float, momentum: float = 0.9):
        self.lr = lr
        self.momentum = momentum
        self._state = _FlatState(1)
        self._v = self._state.views[0]

    def step(self, params, grads) -> None:
        g = self._state.gather(params, grads)
        v = self._state.buffers[0]
        v *= self.momentum
        v += g
        self._state.apply(params, self.lr * v)


def make_optimizer(cfg: TrainConfig):
    if cfg.optimizer == "adam":
        return Adam(cfg.lr, cfg.beta1, cfg.beta2, cfg.adam_eps)
    return SGDMomentum(cfg.lr, cfg.momentum)


# ---------------------------------------------------------------------------
# loss assembly

def _noisy_layers(net: Network) -> list[NoisyDenseLayer]:
    return [l for l in net.layers if isinstance(l, NoisyDenseLayer)]


def _alpha_penalty_value(net: Network) -> float:
    total = 0.0
    for layer in _noisy_layers(net):
        lam = layer.spec.alpha_penalty_lambda
        if lam > 0.0:
            total -= lam * float(np.sum(layer.alpha * layer.alpha))
    return total


def task_loss(net: Network, X, Y, mode: str = EVAL,
              rng: np.random.Generator | None = None) -> float:
    """Plain predictive loss (MSE or cross-entropy), no penalty terms."""
    out, _ = net.forward(X, mode, rng)
    if net.task == "regression":
        return loss_mse(out, Y)
    return loss_cross_entropy(out, Y)


def training_loss(net: Network, X, Y, weight_decay=0.0, mode: str = TRAIN,
                  rng: np.random.Generator | None = None,
                  frozen_noise=None) -> float:
    """Task loss + L2 decay + noise-level reward, one fresh draw per layer."""
    out, _ = net.forward(X, mode, rng, frozen_noise=frozen_noise)
    if net.task == "regression":
        loss = loss_mse(out, Y)
    else:
        loss = loss_cross_entropy(out, Y)
    return loss + l2_penalty(net, weight_decay) + _alpha_penalty_value(net)


def training_loss_and_grads(net: Network, X, Y, weight_decay=0.0,
                            mode: str = TRAIN,
                            rng: np.random.Generator | None = None,
                            frozen_noise=None):
    out, trace = net.forward(X, mode, rng, frozen_noise=frozen_noise)
    if net.task == "regression":
        loss = loss_mse(out, Y)
        out_grad = loss_mse_grad(out, Y)
    else:
        loss = loss_cross_entropy(out, Y)
        out_grad = loss_cross_entropy_grad(out, Y)
    grads = net.backward(trace, out_grad)
    l2, l2_grads = _l2_terms(net, weight_decay)
    loss += l2 + _alpha_penalty_value(net)
    for name, g in l2_grads.items():
        grads[name] = grads[name] + g
    for i, layer in enumerate(net.layers):
        if isinstance(layer, NoisyDenseLayer) and layer.spec.mode == "learned":
            lam = layer.spec.alpha_penalty_lambda
            if lam > 0.0:
                key = f"L{i}.alpha"
                grads[key] = grads[key] - 2.0 * lam * layer.alpha
    return loss, grads


# ---------------------------------------------------------------------------
# fit / early stopping

@dataclass
class FitResult:
    history: dict[str, list[float]]
    best_epoch: int          # index into history, -1 when no validation set
    best_val_loss: float
    epochs_run: int
    stopped_early: bool


def fit(net: Network, train_x, train_y, cfg: TrainConfig,
        val_x=None, val_y=None,
        rng: np.random.Generator | None = None) -> FitResult:
    """Minibatch training with optional early stopping.

    When a validation set is given, the net is left holding the parameters
    of the best-validation epoch, whether or not early stopping triggered.
    Shuffling and noise draw from separate sub-streams so that a model whose
    noise happens to be inert (alpha = 0) follows the exact trajectory of
    its deterministic twin under the same seed.
    """
    train_x = np.asarray(train_x, dtype=np.float64)
    n = train_x.shape[0]
    if n == 0:
        raise ValueError("empty training set")
    has_val = val_x is not None
    if has_val and val_y is None or not has_val and val_y is not None:
        raise ValueError("validation features and targets must come together")

    rng = np.random.default_rng(cfg.seed) if rng is None else rng
    shuffle_rng, noise_rng = rng.spawn(2)
    optimizer = make_optimizer(cfg)
    params = net.parameters()

    history: dict[str, list[float]] = {"train_loss": []}
    if has_val:
        history["val_loss"] = []
    best_val = np.inf
    best_epoch = -1
    best_params = None
    bad_epochs = 0
    stopped = False
    epochs_run = 0

    for epoch in range(cfg.max_epochs):
        epochs_run = epoch + 1
        order = shuffle_rng.permutation(n)
        batch_losses = []
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            loss, grads = training_loss_and_grads(
                net, train_x[idx], train_y[idx], cfg.weight_decay,
                TRAIN, noise_rng)
            optimizer.step(params, grads)
            batch_losses.append(loss)
        history["train_loss"].append(float(np.mean(batch_losses)))

        if has_val:
            vals = [task_loss(net, val_x, val_y, EVAL, noise_rng)
                    for _ in range(cfg.val_passes)]
            v = float(np.mean(vals))
            history["val_loss"].append(v)
            if v < best_val:
                best_val = v
                best_epoch = epoch
                best_params = net.copy_parameters()
                bad_epochs = 0
            else:
                bad_epochs += 1
                if cfg.patience > 0 and bad_epochs >= cfg.patience:
                    stopped = True
                    break

    if best_params is not None:
        net.load_parameters(best_params)
    return FitResult(history=history, best_epoch=best_epoch,
                     best_val_loss=float(best_val) if has_val else np.nan,
                     epochs_run=epochs_run, stopped_early=stopped)


# ---------------------------------------------------------------------------
# grid search

@dataclass
class GridResult:
    best: dict
    rows: list[dict] = field(repr=False)


def grid_search(evaluate: Callable[[dict, np.random.Generator], dict],
                grid: Mapping[str, Sequence], seed: int = 0) -> GridResult:
    """Exhaustive search over the Cartesian product of ``grid``.

    ``evaluate`` receives one hyperparameter assignment plus a sub-stream
    derived from (seed, config index) and must return a dict containing at
    least 'val_loss'. Ranking: smallest val_loss, ties broken by smaller
    learning rate, then by declaration order. A non-finite val_loss (NaN or
    +-inf, e.g. from a diverged fit) ranks after every finite one; among
    themselves such rows fall to the same tie-breaks.
    """
    if not grid:
        raise ValueError("empty grid")
    for key, values in grid.items():
        if not list(values):
            raise ValueError(f"grid axis {key!r} has no candidate values")
    keys = list(grid.keys())
    rows = []
    for idx, values in enumerate(itertools.product(*(grid[k] for k in keys))):
        assignment = dict(zip(keys, values))
        sub_rng = np.random.default_rng([seed, idx])
        result = evaluate(dict(assignment), sub_rng)
        if "val_loss" not in result:
            raise ValueError("evaluate must report 'val_loss'")
        rows.append({"config_index": idx, **assignment, **result})
    def rank(r):
        v = float(r["val_loss"])
        finite = math.isfinite(v)
        return (not finite, v if finite else 0.0, r.get("lr", 0.0),
                r["config_index"])

    best = min(rows, key=rank)
    return GridResult(best=best, rows=rows)
