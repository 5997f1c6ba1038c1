"""Training: Adam, early stopping, and grid search.

The training loss is task loss + L2 weight decay + the optional noise-level
reward (-lambda * ||alpha||^2, carried per layer by its NoiseSpec). Noise and
dropout draws are live during training; validation is scored with a noisy
EVAL pass because stochastic prediction is the model being selected.

``fit`` trains a list of same-shape nets as one member stack (see
``nn.stack_networks``): one forward, backward and optimizer step per batch
for all of them, with per-member learning rate and weight decay, and each
member's results written back into its own Network. Every member keeps its
own shuffle and noise streams, and each member's slice of every stacked
operation equals what it computes alone, so a member's parameters, history
and early stop are bit-identical to a lone fit. A single net is a stack of
one; there is no second training loop. ``grid_search`` hands all of a
grid's assignments to ``evaluate`` in one call, so that a driver can train
them as one stack.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .nn import (EVAL, TRAIN, Network, WeightDecay, _l2_terms,
                 loss_cross_entropy, loss_cross_entropy_grad, loss_mse,
                 loss_mse_grad, _member_sum, stack_networks)
from .noise import NoisyDenseLayer


@dataclass
class TrainConfig:
    """One fit's settings; the optimizer is Adam at its default betas and eps."""

    lr: float = 0.001
    weight_decay: float | Mapping[str, float] = 0.0
    max_epochs: int = 100
    batch_size: int = 32
    patience: int = 0                # 0 disables early stopping
    val_passes: int = 1

    def __post_init__(self):
        if self.lr <= 0.0:
            raise ValueError("learning rate must be positive")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.patience < 0:
            raise ValueError("patience must be non-negative")
        if self.val_passes < 1:
            raise ValueError("val_passes must be at least 1")


class _FlatState:
    """Optimizer buffers for all parameters: one float64 array per buffer,
    one row per member and each parameter's entries contiguous in a row.

    ``members`` is the length of the leading member axis that stacked
    parameters carry; a single net's parameters have none and use one row.
    The first gather fixes the layout: the parameters that have a gradient,
    in ``params`` order, each owning a column slice. A later step with other
    names raises rather than silently starting fresh moments. ``views``
    holds, per buffer, name -> a view shaped like the parameter. ``work``
    holds arrays of the same shape that a step may overwrite; the first is
    the gathered gradient.
    """

    def __init__(self, n_buffers: int, n_work: int, members: int):
        self.members = members
        self.names = None
        self.slots = []
        self.buffers = []
        self.work = [None] * n_work
        self.views = [{} for _ in range(n_buffers)]

    def gather(self, params, grads) -> np.ndarray:
        names = [n for n in params if n in grads]
        if self.names is None:
            self.names, offset = names, 0
            for name in names:
                shape = np.shape(params[name])
                size = int(np.prod(shape)) // self.members
                self.slots.append((name, slice(offset, offset + size), shape))
                offset += size
            self.buffers = [np.zeros((self.members, offset)) for _ in self.views]
            self.work = [np.empty((self.members, offset)) for _ in self.work]
            self._make_views()
        elif names != self.names:
            raise ValueError(f"parameters with a gradient changed from "
                             f"{self.names} to {names}")
        return np.concatenate([grads[n].reshape(self.members, -1) for n in names],
                              axis=1, out=self.work[0])

    def _make_views(self) -> None:
        for view, buf in zip(self.views, self.buffers):
            view.clear()
            view.update((name, buf[:, sl].reshape(shape))
                        for name, sl, shape in self.slots)

    def apply(self, params, update: np.ndarray) -> None:
        for name, sl, shape in self.slots:
            p = params[name]
            p -= update[:, sl].reshape(shape)

    def select(self, keep) -> None:
        """Keep the rows of the stacked members ``keep``, in that order."""
        self.members = len(keep)
        self.buffers = [buf[keep] for buf in self.buffers]
        self.work = [w[:self.members] for w in self.work]
        self.slots = [(name, sl, (self.members,) + shape[1:])
                      for name, sl, shape in self.slots]
        self._make_views()


class Adam:
    """Bias-corrected Adam. State is keyed by parameter name.

    ``lr`` is one float for a single net, or an (S,) array with one rate per
    member for parameters stacked along a leading member axis.
    """

    def __init__(self, lr, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        # the learning rate as a column, one row per member
        self._lr = np.asarray(lr, dtype=np.float64).reshape(-1, 1)
        self._state = _FlatState(2, 3, self._lr.shape[0])
        self._m, self._v = self._state.views

    def step(self, params: Mapping[str, np.ndarray],
             grads: Mapping[str, np.ndarray]) -> None:
        g = self._state.gather(params, grads)
        m, v = self._state.buffers
        _, a, b = self._state.work
        self.t += 1
        # lr * m_hat / (sqrt(v_hat) + eps), each operation in place
        m *= self.beta1
        m += np.multiply(1.0 - self.beta1, g, out=a)
        v *= self.beta2
        v += np.multiply(1.0 - self.beta2, np.multiply(g, g, out=a), out=a)
        m_hat = np.divide(m, 1.0 - self.beta1 ** self.t, out=a)
        v_hat = np.divide(v, 1.0 - self.beta2 ** self.t, out=b)
        denom = np.sqrt(v_hat, out=b)
        denom += self.eps
        update = np.multiply(self._lr, m_hat, out=a)
        update /= denom
        self._state.apply(params, update)

    def select(self, keep) -> None:
        """Keep the state of the stacked members ``keep`` only."""
        self.lr = np.asarray(self.lr)[keep]
        self._lr = self._lr[keep]
        self._state.select(keep)


# fields that every member of one stacked fit must share
_SHARED_FIELDS = ("max_epochs", "batch_size", "patience", "val_passes")


def make_optimizer(cfgs: Sequence[TrainConfig]) -> Adam:
    """One Adam for a stack, with each member's learning rate."""
    return Adam(np.array([c.lr for c in cfgs]))


# ---------------------------------------------------------------------------
# loss assembly

_TASK_LOSSES = {"regression": (loss_mse, loss_mse_grad),
                "classification": (loss_cross_entropy, loss_cross_entropy_grad)}


def _forward_loss(net: Network, X, Y, mode, rng, frozen_noise=None):
    """One forward pass and its task loss (MSE or cross-entropy by the net's
    task), one value per member. Returns (loss, output, trace)."""
    out, trace = net.forward(X, mode, rng, frozen_noise=frozen_noise)
    return _TASK_LOSSES[net.task][0](out, Y), out, trace


def _alpha_penalty_value(net: Network):
    stacked = net.members is not None
    total = 0.0
    for layer in net.layers:
        if isinstance(layer, NoisyDenseLayer):
            lam = layer.spec.alpha_penalty_lambda
            if lam > 0.0:
                total -= lam * _member_sum(layer.alpha * layer.alpha, stacked)
    return total


def task_loss(net: Network, X, Y, mode: str = EVAL,
              rng: np.random.Generator | None = None) -> float:
    """Plain predictive loss (MSE or cross-entropy), no penalty terms."""
    return _forward_loss(net, X, Y, mode, rng)[0]


def training_loss_and_grads(net: Network, X, Y, weight_decay=0.0,
                            mode: str = TRAIN,
                            rng: np.random.Generator | None = None,
                            frozen_noise=None):
    """Task loss + L2 decay + noise-level reward, and its gradients.

    One fresh draw per noisy layer (or ``frozen_noise``). For a member stack
    the loss is one value per member and ``weight_decay`` may hold one
    coefficient, or one mapping, per member (see ``nn.WeightDecay``).
    """
    loss, out, trace = _forward_loss(net, X, Y, mode, rng, frozen_noise)
    grads = net.backward(trace, _TASK_LOSSES[net.task][1](out, Y))
    l2, l2_grads = _l2_terms(net, weight_decay)
    loss += l2 + _alpha_penalty_value(net)
    # the backward pass made every gradient array afresh: add in place
    for name, g in l2_grads.items():
        grads[name] += g
    for i, layer in enumerate(net.layers):
        if isinstance(layer, NoisyDenseLayer) and layer.spec.mode == "learned":
            lam = layer.spec.alpha_penalty_lambda
            if lam > 0.0:
                grads[f"L{i}.alpha"] -= 2.0 * lam * layer.alpha
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
    diverged: bool = False   # stopped on a NaN or infinite epoch loss


def _load_member(net: Network, member_params: Mapping[str, np.ndarray]) -> None:
    """Write one member's slices of stacked parameters into its own net."""
    live = net.parameters()
    net.load_parameters({name: p.reshape(live[name].shape)
                         for name, p in member_params.items()})


def fit(net, train_x, train_y, cfg, val_x=None, val_y=None, rng=None):
    """Minibatch training with optional early stopping.

    ``net`` is one Network, or a list of same-shape nets trained together as
    one member stack; ``cfg`` and ``rng`` are then one per net (or one
    config for all). ``rng`` is required, one generator per net. Members
    may differ in learning rate and weight decay; the other TrainConfig
    fields must agree. Each member gets exactly the result it would get
    alone, and the return value is one FitResult or a list of them. A
    single net is a stack of one.

    When a validation set is given, each net is left holding the parameters
    of its best-validation epoch, whether or not early stopping triggered.
    A member whose epoch training or validation loss is NaN or infinite
    stops at once, flagged ``diverged``. A stopped member leaves the stack,
    so the others do not pay for it. Shuffling and noise draw from separate
    sub-streams of each member's generator, so that a model whose noise
    happens to be inert (alpha = 0) follows the exact trajectory of its
    deterministic twin under the same seed.
    """
    single = isinstance(net, Network)
    nets = [net] if single else list(net)
    cfgs = list(cfg) if isinstance(cfg, Sequence) else [cfg] * len(nets)
    rngs = [rng] if single or rng is None else list(rng)
    if any(r is None for r in rngs):
        raise ValueError("fit needs a generator for every net (rng=...)")
    if not (len(nets) == len(cfgs) == len(rngs)) or not nets:
        raise ValueError("fit needs one config and one generator per net")
    for name in _SHARED_FIELDS:
        if len({getattr(c, name) for c in cfgs}) != 1:
            raise ValueError(f"stacked members must share TrainConfig.{name}")
    train_x = np.asarray(train_x, dtype=np.float64)
    n = train_x.shape[0]
    if n == 0:
        raise ValueError("empty training set")
    has_val = val_x is not None
    if has_val and val_y is None or not has_val and val_y is not None:
        raise ValueError("validation features and targets must come together")
    train_y = np.asarray(train_y)

    streams = [r.spawn(2) for r in rngs]
    shuffle_rngs = [s[0] for s in streams]
    noise_rngs = [s[1] for s in streams]
    stack = stack_networks(nets)
    params = stack.parameters()
    decay = WeightDecay(stack, [c.weight_decay for c in cfgs])
    optimizer = make_optimizer(cfgs)
    cfg = cfgs[0]
    starts = range(0, n, cfg.batch_size)

    results: list[FitResult | None] = [None] * len(nets)
    histories = [{"train_loss": [], **({"val_loss": []} if has_val else {})}
                 for _ in nets]
    best_val = [np.inf] * len(nets)
    best_epoch = [-1] * len(nets)
    best_params: list[dict | None] = [None] * len(nets)
    bad_epochs = [0] * len(nets)
    live = list(range(len(nets)))        # the member in each stack row

    for epoch in range(cfg.max_epochs):
        noise = [noise_rngs[m] for m in live]
        order = np.stack([shuffle_rngs[m].permutation(n) for m in live])
        # one row per member: its mean is a contiguous reduction, summed in
        # the order a lone member's list of batch losses would be
        batch_losses = np.empty((len(live), len(starts)))
        for k, start in enumerate(starts):
            idx = order[:, start:start + cfg.batch_size]
            loss, grads = training_loss_and_grads(
                stack, train_x[idx], train_y[idx], decay, TRAIN, noise)
            optimizer.step(params, grads)
            batch_losses[:, k] = loss
        train_loss = batch_losses.mean(axis=1)
        if has_val:
            vals = np.empty((len(live), cfg.val_passes))
            for k in range(cfg.val_passes):
                vals[:, k] = task_loss(stack, val_x, val_y, EVAL, noise)
            val_loss = vals.mean(axis=1)

        done = []
        for row, m in enumerate(live):
            histories[m]["train_loss"].append(float(train_loss[row]))
            diverged = not math.isfinite(train_loss[row])
            stopped = False
            if has_val:
                v = float(val_loss[row])
                histories[m]["val_loss"].append(v)
                diverged = diverged or not math.isfinite(v)
                if v < best_val[m]:
                    best_val[m], best_epoch[m], bad_epochs[m] = v, epoch, 0
                    best_params[m] = {k: p[row].copy() for k, p in params.items()}
                else:
                    bad_epochs[m] += 1
                    stopped = 0 < cfg.patience <= bad_epochs[m]
            last = epoch == cfg.max_epochs - 1
            if diverged or stopped or last:
                done.append(row)
                _load_member(nets[m], best_params[m] if best_params[m] is not None
                             else {k: p[row] for k, p in params.items()})
                results[m] = FitResult(
                    history=histories[m], best_epoch=best_epoch[m],
                    best_val_loss=float(best_val[m]) if has_val else np.nan,
                    epochs_run=epoch + 1, stopped_early=diverged or stopped,
                    diverged=diverged)
        if done:
            keep = [row for row in range(len(live)) if row not in done]
            live = [live[row] for row in keep]
            if not live:
                break
            stack = stack.take(keep)
            params = stack.parameters()
            optimizer.select(keep)
            decay = WeightDecay(stack, [cfgs[m].weight_decay for m in live])
    return results[0] if single else results


# ---------------------------------------------------------------------------
# grid search

@dataclass
class GridResult:
    best: dict
    rows: list[dict] = field(repr=False)


def grid_search(evaluate: Callable[[list[dict], list[np.random.Generator]],
                                   list[dict]],
                grid: Mapping[str, Sequence], seed: int = 0) -> GridResult:
    """Exhaustive search over the Cartesian product of ``grid``.

    ``evaluate`` receives every hyperparameter assignment, in declaration
    order, plus one sub-stream per assignment derived from (seed, config
    index), in one call, so that it can train them together. It returns one
    dict per assignment, each containing at least 'val_loss'. Ranking:
    smallest val_loss, ties broken by smaller learning rate, then by
    declaration order. A non-finite val_loss (NaN or +-inf, e.g. from a
    diverged fit) ranks after every finite one; among themselves such rows
    fall to the same tie-breaks.
    """
    if not grid:
        raise ValueError("empty grid")
    for key, values in grid.items():
        if not list(values):
            raise ValueError(f"grid axis {key!r} has no candidate values")
    keys = list(grid.keys())
    assignments = [dict(zip(keys, values))
                   for values in itertools.product(*(grid[k] for k in keys))]
    sub_rngs = [np.random.default_rng([seed, idx])
                for idx in range(len(assignments))]
    results = evaluate([dict(a) for a in assignments], sub_rngs)
    if len(results) != len(assignments):
        raise ValueError(f"evaluate returned {len(results)} results for "
                         f"{len(assignments)} assignments")
    rows = []
    for idx, (assignment, result) in enumerate(zip(assignments, results)):
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
