"""Training: Adam, early stopping, and grid search.

The optimizer is Adam at its published betas and eps (``BETA1``, ``BETA2``,
``EPS``); only the learning rate is set per fit. It steps a network's
parameter block (``Network.flat``) from the gradient block of backward.

The training loss is task loss + one quadratic penalty (``Penalty``): L2
weight decay on every W and b, and the optional noise-level reward
-lambda * ||alpha||^2 on every trained alpha (lambda is carried per layer by
its NoiseSpec; a fixed alpha moves no parameter, so it gets no term). Its
coefficients are one block laid out like ``Network.flat``, so the penalty
is three whole-block operations; a gradient entry whose coefficient is
zero is left untouched. Noise and dropout draws are live on every pass;
validation is scored with a noisy pass too, because stochastic prediction
is the model being selected.

``fit`` trains a list of same-shape nets as one member stack (see
``nn.stack_networks``): one forward, backward and optimizer step per batch
for all of them, with per-member learning rate and weight decay, and each
member's results written back into its own Network. Every member keeps its
own shuffle and noise streams, and each member's slice of every stacked
operation equals what it computes alone, so a member's parameters, history
and early stop are bit-identical to a lone fit. A best-epoch snapshot is a
copy of the member's row of the stack's block, and is written back into
the member's own block. A single net is a stack of one; there is no second
training loop. A grid search is two steps around the driver's own fits:
``grid_assignments`` makes every assignment of a grid with its sub-stream,
and ``grid_search`` ranks the driver's results for them, so that the
driver can fit the assignments in whatever stacks and processes it likes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .nn import Network, loss_cross_entropy, loss_mse, stack_networks


@dataclass
class TrainConfig:
    """One fit's settings; the optimizer is Adam at its fixed betas and eps."""

    lr: float = 0.001
    weight_decay: float = 0.0
    max_epochs: int = 100
    batch_size: int = 32
    patience: int = 0                # 0 disables early stopping
    val_passes: int = 1

    def __post_init__(self):
        if not (0.0 < self.lr < math.inf):
            raise ValueError("learning rate must be positive and finite")
        for name, low in (("max_epochs", 1), ("batch_size", 1),
                          ("patience", 0), ("val_passes", 1)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < low:
                raise ValueError(f"{name} must be at least {low}")


# Adam's constants: the published defaults (Kingma & Ba 2015)
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    """Bias-corrected Adam at the published betas and eps, on one block.

    ``step(p, g)`` updates the block ``p`` (a network's ``flat``) in place
    from the gradient block ``g``. ``lr`` is one float, or an (S,) array
    with one rate per row of a stack's (S, P) block. The state is one array
    per moment (``moments``) and two work arrays, all shaped like ``p``.
    """

    def __init__(self, lr):
        self.t = 0
        lr = np.asarray(lr, dtype=np.float64)
        self._lr = lr.reshape(lr.shape + (1,))   # a column: one rate per row
        self.moments = []
        self._work = []

    def step(self, p: np.ndarray, g: np.ndarray) -> None:
        if not self.moments:
            self.moments = [np.zeros_like(p) for _ in range(2)]
            self._work = [np.empty_like(p) for _ in range(2)]
        m, v = self.moments
        a, b = self._work
        self.t += 1
        # lr * m_hat / (sqrt(v_hat) + eps), each operation in place
        m *= BETA1
        m += np.multiply(1.0 - BETA1, g, out=a)
        v *= BETA2
        v += np.multiply(1.0 - BETA2, np.multiply(g, g, out=a), out=a)
        m_hat = np.divide(m, 1.0 - BETA1 ** self.t, out=a)
        v_hat = np.divide(v, 1.0 - BETA2 ** self.t, out=b)
        denom = np.sqrt(v_hat, out=b)
        denom += EPS
        update = np.multiply(self._lr, m_hat, out=a)
        update /= denom
        p -= update

    def select(self, keep) -> None:
        """Keep the state of the stacked members ``keep``, in that order."""
        self._lr = self._lr[keep]
        self.moments = [buf[keep] for buf in self.moments]
        self._work = [w[:len(self._lr)] for w in self._work]


# fields that every member of one stacked fit must share
_SHARED_FIELDS = ("max_epochs", "batch_size", "patience", "val_passes")


# ---------------------------------------------------------------------------
# loss assembly

_TASK_LOSSES = {"regression": loss_mse, "classification": loss_cross_entropy}


def _forward_loss(net: Network, X, Y, rng, frozen_noise=None):
    """One forward pass and its task loss (MSE or cross-entropy by the net's
    task), one value per member, with the loss's gradient with respect to
    the output. Returns (loss, output gradient, trace)."""
    out, trace = net.forward(X, rng, frozen_noise=frozen_noise)
    return *_TASK_LOSSES[net.task](out, Y), trace


def task_loss(net: Network, X, Y,
              rng: np.random.Generator | None = None) -> float:
    """Plain predictive loss (MSE or cross-entropy) of one live pass, no
    penalty terms."""
    return _forward_loss(net, X, Y, rng)[0]


class Penalty:
    """The quadratic penalty of one net's training loss, resolved once.

    The penalty is sum c * p^2 over the parameter block, with one
    coefficient per entry, held as one block ``two_c`` (2c) laid out like
    ``net.flat``. Every W and b entry takes the weight decay: one float, or
    in a member stack one float per member (its row). Every trained alpha
    takes -alpha_penalty_lambda, a reward that pushes the noise level away
    from zero; weight decay never reaches alpha, since shrinking it would
    cancel the mechanism the model is built around. The value is one per
    member, summed over its row. The gradient 2 c p is added only where the
    coefficient is nonzero (``on``): a c = 0 entry of the gradient is left
    untouched, bit for bit, whatever its parameter holds.
    """

    def __init__(self, net: Network, weight_decay):
        decay = np.asarray(weight_decay, dtype=np.float64)
        if not ((decay >= 0.0) & (decay < np.inf)).all():
            raise ValueError("weight decay must be finite and non-negative")
        self.two_c = np.zeros_like(net.flat)
        coefficients = net.views(self.two_c)
        for i, layer in enumerate(net.layers):
            for key, p in getattr(layer, "parameters", dict)().items():
                c = (np.asarray(-layer.spec.alpha_penalty_lambda)
                     if key == "alpha" else decay)
                coefficients[f"L{i}.{key}"][...] = 2.0 * c.reshape(
                    c.shape + (1,) * (p.ndim - c.ndim))
        self.on = self.two_c != 0.0
        self._work = np.empty_like(net.flat)

    def terms(self, net: Network, grad: np.ndarray) -> float:
        """The penalty sum c p^2, one value per member; adds its gradient
        2 c p into the block ``grad`` where c is nonzero."""
        step = np.multiply(self.two_c, net.flat, out=self._work)
        np.add(grad, step, out=grad, where=self.on)
        return np.multiply(step, net.flat, out=step).sum(axis=-1) / 2.0


def training_loss_and_grads(net: Network, X, Y, weight_decay=0.0,
                            rng: np.random.Generator | None = None, *,
                            frozen_noise=None):
    """Task loss + the quadratic penalty, and its gradient block.

    One fresh draw per noisy layer (or ``frozen_noise``). For a member stack
    the loss is one value per member and ``weight_decay`` may hold one
    coefficient per member; it may also be a Penalty already resolved for
    ``net`` (a training loop resolves it once). The gradient is laid out
    like ``net.flat``; ``net.views`` names its parts.
    """
    loss, out_grad, trace = _forward_loss(net, X, Y, rng, frozen_noise)
    grad = net.backward(trace, out_grad)
    penalty = (weight_decay if isinstance(weight_decay, Penalty)
               else Penalty(net, weight_decay))
    loss += penalty.terms(net, grad)
    return loss, grad


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
    happens to be inert (alpha = 0 or p = 0) follows the exact trajectory
    of its deterministic twin under the same seed.
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
    if train_y.shape[0] != n:
        raise ValueError(f"{train_y.shape[0]} training targets for {n} inputs")
    if has_val:
        val_x, val_y = np.asarray(val_x, dtype=np.float64), np.asarray(val_y)
        if val_x.shape[0] == 0:
            raise ValueError("empty validation set")
        if val_y.shape[0] != val_x.shape[0]:
            raise ValueError(f"{val_y.shape[0]} validation targets for "
                             f"{val_x.shape[0]} inputs")
        if val_x.shape[-1] != nets[0].fan_in:
            raise ValueError(f"validation inputs have {val_x.shape[-1]} "
                             f"features; the net takes {nets[0].fan_in}")
    # the task loss's own target rule, on a zero prediction, before any step
    for x, y in [(train_x, train_y)] + ([(val_x, val_y)] if has_val else []):
        _TASK_LOSSES[nets[0].task](np.zeros((len(x), nets[0].fan_out)), y)

    streams = [r.spawn(2) for r in rngs]
    shuffle_rngs = [s[0] for s in streams]
    noise_rngs = [s[1] for s in streams]
    stack = stack_networks(nets)
    penalty = Penalty(stack, [c.weight_decay for c in cfgs])
    optimizer = Adam(np.array([c.lr for c in cfgs]))
    cfg = cfgs[0]
    starts = range(0, n, cfg.batch_size)

    results: list[FitResult | None] = [None] * len(nets)
    histories = [{"train_loss": [], **({"val_loss": []} if has_val else {})}
                 for _ in nets]
    best_val = [np.inf] * len(nets)
    best_epoch = [-1] * len(nets)
    best_params: list[np.ndarray | None] = [None] * len(nets)
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
            loss, grad = training_loss_and_grads(
                stack, train_x[idx], train_y[idx], penalty, noise)
            optimizer.step(stack.flat, grad)
            batch_losses[:, k] = loss
        train_loss = batch_losses.mean(axis=1)
        if has_val:
            vals = np.empty((len(live), cfg.val_passes))
            for k in range(cfg.val_passes):
                vals[:, k] = task_loss(stack, val_x, val_y, noise)
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
                    best_params[m] = stack.flat[row].copy()
                else:
                    bad_epochs[m] += 1
                    stopped = 0 < cfg.patience <= bad_epochs[m]
            last = epoch == cfg.max_epochs - 1
            if diverged or stopped or last:
                done.append(row)
                np.copyto(nets[m].flat, stack.flat[row] if best_params[m] is None
                          else best_params[m])
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
            optimizer.select(keep)
            penalty = Penalty(stack, [cfgs[m].weight_decay for m in live])
    return results[0] if single else results


# ---------------------------------------------------------------------------
# grid search

@dataclass
class GridResult:
    best: dict
    rows: list[dict] = field(repr=False)


def grid_assignments(grid: Mapping[str, Sequence], seed: int = 0
                     ) -> tuple[list[dict], list[np.random.Generator]]:
    """Every assignment of the Cartesian product of ``grid``, in declaration
    order, and one sub-stream per assignment derived from (seed, config
    index)."""
    if not grid:
        raise ValueError("empty grid")
    for key, values in grid.items():
        if not list(values):
            raise ValueError(f"grid axis {key!r} has no candidate values")
    keys = list(grid.keys())
    assignments = [dict(zip(keys, values))
                   for values in itertools.product(*(grid[k] for k in keys))]
    return assignments, [np.random.default_rng([seed, idx])
                         for idx in range(len(assignments))]


def grid_search(assignments: list[dict], results: list[dict]) -> GridResult:
    """Rank one result per assignment of ``grid_assignments``, given in
    assignment order.

    Each result contains at least 'val_loss'. Ranking: smallest val_loss,
    ties broken by smaller learning rate, then by declaration order. A
    non-finite val_loss (NaN or +-inf, e.g. from a diverged fit) ranks after
    every finite one; among themselves such rows fall to the same
    tie-breaks.
    """
    if len(results) != len(assignments):
        raise ValueError(f"{len(results)} results for {len(assignments)} "
                         f"assignments")
    rows = []
    for idx, (assignment, result) in enumerate(zip(assignments, results)):
        if "val_loss" not in result:
            raise ValueError("every result must report 'val_loss'")
        rows.append({"config_index": idx, **assignment, **result})

    def rank(r):
        v = float(r["val_loss"])
        finite = math.isfinite(v)
        return (not finite, v if finite else 0.0, r.get("lr", 0.0),
                r["config_index"])

    best = min(rows, key=rank)
    return GridResult(best=best, rows=rows)
