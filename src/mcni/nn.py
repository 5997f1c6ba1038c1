"""Dense feed-forward networks with explicit per-layer backward passes.

Everything is float64 numpy. A forward call returns the output together with
a trace of per-layer intermediates; the backward call consumes that trace and
returns one gradient block laid out like the parameters. There is no general
autodiff tape: each layer knows how to push gradients through itself, and
that is all the models here need.

A Network takes its layers' parameters over: each W, b and learned alpha
becomes a view of its columns of one block, ``Network.flat``, so code writes
them in place, never assigns new arrays. Backward fills one new block of
the same layout, and ``Network.views`` names the parts of any such block.

Stochastic layers (weight noise, dropout) are live on every pass, in
training and at prediction time alike: they are part of the model, not a
training trick. A noise-free pass is an alpha = 0 or p = 0 twin of the net,
or a pass with ``frozen_noise``.

Member stacks: same-shape networks run as one network whose parameters carry
a leading member axis. ``stack_networks`` builds each layer by one rule,
which ``Network.take`` inverts: numeric fields are stacked and padded to 3-D
(W (S, fan_in, fan_out), b (S, 1, fan_out), alpha and p (S, 1, 1)), other
fields must be equal, and row s of the (S, P) parameter block is member s's
block. Every layer computes through ``np.matmul``, ``swapaxes(-1, -2)`` and
reductions over the trailing axes, so the same code serves a single net (2-D
weights) and a stack; each member's slice of a stacked result equals, bit
for bit, what that member computes alone. A stack takes per-member inputs
(S, batch, features) or one shared (batch, features) input, and one
generator per member.

Repeated passes at one batch size (Monte Carlo inference) reuse the trace
of the first pass: ``forward(..., reuse=trace)`` writes every intermediate
into that trace's arrays and returns the same trace, so a pass allocates no
full-size arrays. Each operation is the same as on the allocating path,
only with an ``out=`` target, so the results are the same bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Sequence

import numpy as np


class ShapeError(ValueError):
    """An input, target, or gradient does not match the network geometry."""


class ContractError(RuntimeError):
    """A forward trace was used with a network it does not belong to."""


# ---------------------------------------------------------------------------
# activations

ACTIVATIONS = ("relu", "tanh", "sigmoid", "identity")

def softmax(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise softmax, shift-stabilized so large logits cannot overflow."""
    e = np.subtract(z, z.max(axis=-1, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def apply_activation(name: str, z: np.ndarray,
                     out: np.ndarray | None = None) -> np.ndarray:
    """act(z), written into ``out`` when given (identity returns z itself)."""
    if name == "relu":
        return np.maximum(z, 0.0, out=out)
    if name == "tanh":
        return np.tanh(z, out=out)
    if name == "sigmoid":
        # evaluate on the stable side of the exp in both tails
        out = np.empty_like(z) if out is None else out
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out
    if name == "identity":
        return z
    raise ValueError(f"unknown activation {name!r}")


def activation_backward(name: str, grad_out: np.ndarray, z: np.ndarray,
                        a: np.ndarray) -> np.ndarray:
    """Map d(loss)/d(activation) to d(loss)/d(pre-activation)."""
    if name == "relu":
        return grad_out * (z > 0.0)
    if name == "tanh":
        return grad_out * (1.0 - a * a)
    if name == "sigmoid":
        return grad_out * a * (1.0 - a)
    if name == "identity":
        return grad_out
    raise ValueError(f"unknown activation {name!r}")


# ---------------------------------------------------------------------------
# layers

@dataclass
class DenseLayer:
    """Affine layer a = act(x W + b). Weights (fan_in, fan_out), bias (fan_out,).

    In a member stack: weights (S, fan_in, fan_out), bias (S, 1, fan_out).
    """

    W: np.ndarray
    b: np.ndarray
    activation: str = "identity"

    def __post_init__(self):
        self.W = np.asarray(self.W, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        if self.W.ndim not in (2, 3):
            raise ShapeError("weight matrix must be 2-D (3-D in a member stack)")
        bias_shape = self.W.shape[:-2] + (1,) * (self.W.ndim - 2) + self.W.shape[-1:]
        if self.b.shape != bias_shape:
            raise ShapeError("bias shape must match fan_out")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    @classmethod
    def create(cls, fan_in: int, fan_out: int, activation: str,
               rng: np.random.Generator) -> "DenseLayer":
        """Fan-in-scaled uniform init U(-1/sqrt(fan_in), +1/sqrt(fan_in))."""
        if fan_in < 1 or fan_out < 1:
            raise ValueError(f"layer widths must be >= 1, got {fan_in} -> {fan_out}")
        bound = 1.0 / np.sqrt(fan_in)
        W = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        return cls(W=W, b=np.zeros(fan_out), activation=activation)

    @property
    def fan_in(self) -> int:
        return self.W.shape[-2]

    @property
    def fan_out(self) -> int:
        return self.W.shape[-1]

    def parameters(self) -> dict[str, np.ndarray]:
        return {"W": self.W, "b": self.b}

    def effective_weight(self, rng, frozen=None, cache=None):
        """The weight actually multiplied into the input. Hook for noise."""
        return self.W, None

    def forward_pass(self, x, rng, frozen=None, cache=None):
        """Returns (output, cache). A ``cache`` from an earlier pass is
        overwritten with this pass's intermediates and returned."""
        cache = {} if cache is None else cache
        w_eff, eps = self.effective_weight(rng, frozen, cache)
        z = np.matmul(x, w_eff, out=cache.get("z"))
        z += self.b
        a = apply_activation(self.activation, z, out=cache.get("a"))
        cache.update(x=x, z=z, a=a, w_eff=w_eff, eps=eps)
        return a, cache

    def backward_pass(self, cache, grad_out, grads):
        """Write dL/dW and dL/db into the views ``grads``; return dL/dx."""
        grad_z = activation_backward(self.activation, grad_out, cache["z"], cache["a"])
        np.matmul(np.swapaxes(cache["x"], -1, -2), grad_z, out=grads["W"])
        grad_z.sum(axis=-2, keepdims=self.W.ndim == 3, out=grads["b"])
        return grad_z @ np.swapaxes(cache["w_eff"], -1, -2)


@dataclass
class ForwardTrace:
    """Per-layer intermediates of the latest forward call, consumed by
    backward. A pass that reuses the trace overwrites its arrays."""

    net: "Network"
    caches: list = field(repr=False)
    output: np.ndarray = field(repr=False)


class Network:
    """A stack of layers with a task tag ('regression' or 'classification').

    Classification networks emit logits; softmax is applied by the inference
    helpers, never by a layer (keeps the cross-entropy path numerically
    stable). ``flat`` is the parameter block: (P,) for a single net, (S, P)
    for a stack. A layer belongs to the one network built on it.
    """

    def __init__(self, layers, task: str = "regression"):
        if task not in ("regression", "classification"):
            raise ValueError(f"unknown task {task!r}")
        if not layers:
            raise ValueError("network needs at least one layer")
        self.layers = list(layers)
        self.task = task
        dense = [(i, l) for i, l in enumerate(self.layers) if hasattr(l, "W")]
        if not dense:
            raise ValueError("network needs at least one dense layer")
        self._dense = dense
        sizes = {l.W.shape[0] if l.W.ndim == 3 else None for _, l in dense}
        if len(sizes) != 1:
            raise ShapeError("layers disagree on the number of stacked members")
        self.members = sizes.pop()   # None for a single net
        for (i, a), (j, b) in zip(dense, dense[1:]):
            if a.fan_out != b.fan_in:
                raise ShapeError(
                    f"layer {j} expects {b.fan_in} inputs but layer {i} "
                    f"produces {a.fan_out}")
        self._layout, width = [], 0     # (layer, name, columns, shape)
        for i, layer in enumerate(self.layers):
            for name, p in getattr(layer, "parameters", dict)().items():
                size = p.size // (self.members or 1)
                self._layout.append((i, name, slice(width, width + size), p.shape))
                width += size
        self.flat = np.empty((width,) if self.members is None
                             else (self.members, width))
        for (i, name, _, _), view in zip(self._layout,
                                         self.views(self.flat).values()):
            view[...] = getattr(self.layers[i], name)
            setattr(self.layers[i], name, view)

    @property
    def fan_in(self) -> int:
        return self._dense[0][1].fan_in

    @property
    def fan_out(self) -> int:
        return self._dense[-1][1].fan_out

    def views(self, block: np.ndarray) -> dict[str, np.ndarray]:
        """Views of a block laid out like ``flat`` (a gradient, an optimizer
        moment), keyed 'L{index}.{name}' and shaped like the parameters."""
        return {f"L{i}.{name}": np.reshape(block[..., cols], shape, copy=False)
                for i, name, cols, shape in self._layout}

    def parameters(self) -> dict[str, np.ndarray]:
        """Live parameter arrays (views of ``flat``) keyed 'L{index}.{name}'."""
        return self.views(self.flat)

    def take(self, keep) -> "Network":
        """A stack of the members ``keep`` (indices into this stack): every
        layer field that carries the member axis (the 3-D ones) is indexed,
        so the new block is the rows ``keep`` of this one."""
        return Network([replace(l, **{f.name: getattr(l, f.name)[keep]
                                      for f in fields(l)
                                      if np.ndim(getattr(l, f.name)) == 3})
                        for l in self.layers], self.task)

    def forward(self, x, rng: np.random.Generator | None = None, *,
                frozen_noise=None, reuse: ForwardTrace | None = None):
        """Run the stack; returns (output, ForwardTrace).

        Noise and dropout draw from ``rng``: a single net takes one generator
        (or a one-element sequence), a member stack one generator per member.
        A net without stochastic layers needs none.
        ``frozen_noise`` is a per-layer list of pre-drawn noise (weight noise
        eps or dropout masks); used by gradient checks so finite differences
        see a smooth deterministic function.

        With ``reuse``, a trace of an earlier pass over as many rows, every
        intermediate, the output included, is written into that trace's
        arrays, and the same trace is returned. Reuse is for repeated passes
        over frozen weights: noisy layers keep the sigma_l of the trace's
        first pass. A trace made with ``frozen_noise`` is not for reuse, as
        the pass would draw into the frozen arrays.
        """
        if not (rng is None or isinstance(rng, np.random.Generator)
                or isinstance(rng, Sequence) and not isinstance(rng, str)
                and all(isinstance(g, np.random.Generator) for g in rng)):
            raise TypeError(f"rng must be a numpy Generator or a sequence of "
                            f"them, got {type(rng).__name__}")
        x = np.asarray(x, dtype=np.float64)
        if self.members is not None and x.ndim == 3:
            if x.shape[0] != self.members:
                raise ShapeError(f"input holds {x.shape[0]} members, "
                                 f"the stack has {self.members}")
        elif x.ndim != 2:
            raise ShapeError(f"input must be 2-D (batch, features), got {x.ndim}-D")
        if x.shape[-1] != self.fan_in:
            first = self._dense[0][0]
            raise ShapeError(
                f"layer {first} expects {self.fan_in} features, got {x.shape[-1]}")
        if self.members is None and isinstance(rng, Sequence) and len(rng) == 1:
            rng, = rng
        # a sequence for a single net, a lone generator or a miscount for a stack
        if rng is not None and (isinstance(rng, Sequence) is (self.members is None)
                                or self.members and len(rng) != self.members):
            raise ContractError("a single net takes one generator, a member "
                                "stack one generator per member")
        if frozen_noise is not None and len(frozen_noise) != len(self.layers):
            raise ContractError("frozen_noise must have one entry per layer")
        if reuse is not None:
            if reuse.net is not self:
                raise ContractError("trace does not belong to this network")
            if x.shape[-2] != reuse.output.shape[-2]:
                raise ShapeError(f"trace holds {reuse.output.shape[-2]} rows, "
                                 f"input has {x.shape[-2]}")
        trace = reuse or ForwardTrace(net=self, caches=[None] * len(self.layers),
                                      output=None)
        h = x
        for i, layer in enumerate(self.layers):
            frozen = None if frozen_noise is None else frozen_noise[i]
            h, trace.caches[i] = layer.forward_pass(h, rng, frozen=frozen,
                                                    cache=trace.caches[i])
        trace.output = h
        return h, trace

    def backward(self, trace: ForwardTrace, output_grad: np.ndarray) -> np.ndarray:
        """Gradients of a scalar loss given d(loss)/d(output): a new block
        laid out like ``flat`` (name its parts with ``views``)."""
        if trace.net is not self:
            raise ContractError("trace does not belong to this network")
        output_grad = np.asarray(output_grad, dtype=np.float64)
        if output_grad.shape != trace.output.shape:
            raise ShapeError(
                f"output gradient shape {output_grad.shape} does not match "
                f"output {trace.output.shape}")
        grad = np.empty_like(self.flat)
        views = [{} for _ in self.layers]
        for i, name, cols, shape in self._layout:
            views[i][name] = np.reshape(grad[..., cols], shape, copy=False)
        g = output_grad
        for i in range(len(self.layers) - 1, -1, -1):
            g = self.layers[i].backward_pass(trace.caches[i], g, views[i])
        return grad


def _stack_layers(layers):
    """One layer holding ``layers`` as members, by the rule of the module
    docstring; ``Network.take`` is its inverse."""
    first = layers[0]
    if any(type(l) is not type(first) for l in layers):
        raise ShapeError("stacked members must have the same layer types")
    values = {}
    for f in fields(first):
        column = [getattr(l, f.name) for l in layers]
        if np.issubdtype(np.asarray(column[0]).dtype, np.number):
            if len({np.shape(c) for c in column}) != 1:
                raise ShapeError(f"stacked members differ in {f.name} shape")
            v = np.stack(column, dtype=np.float64)
            values[f.name] = np.expand_dims(v, tuple(range(1, 4 - v.ndim)))
        elif any(c != column[0] for c in column):
            raise ShapeError(f"stacked members differ in {f.name}")
        else:
            values[f.name] = column[0]
    return type(first)(**values)


def stack_networks(nets) -> Network:
    """One network whose parameters carry a leading member axis.

    The nets must share task, layer types, shapes and non-numeric fields
    (activation, noise spec); per-member values (weights, biases, noise
    levels, drop rates) go into the stack, which holds copies of them.
    """
    nets = list(nets)
    if not nets:
        raise ValueError("a stack needs at least one member")
    if any(n.members is not None for n in nets):
        raise ShapeError("only single nets can be stacked")
    if len({(n.task, len(n.layers)) for n in nets}) != 1:
        raise ShapeError("stacked members differ in task or depth")
    return Network([_stack_layers(group)
                    for group in zip(*(n.layers for n in nets))],
                   task=nets[0].task)


# ---------------------------------------------------------------------------
# losses: each returns (value, d(value)/d(prediction)), one value per member,
# reduced over the trailing (batch, output) axes

def _check_targets(pred: np.ndarray, target: np.ndarray) -> None:
    # a stack's prediction (S, batch, out) may share one (batch, out) target
    if pred.shape != target.shape and (pred.ndim != 3
                                       or pred.shape[1:] != target.shape):
        raise ShapeError(f"prediction {pred.shape} vs target {target.shape}")


def loss_mse(pred: np.ndarray, target: np.ndarray) -> tuple:
    """Squared error averaged over batch and output dimensions (per member)."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    _check_targets(pred, target)
    diff = pred - target
    value = np.mean(diff * diff, axis=(-2, -1))
    return value, 2.0 * diff / (pred.shape[-2] * pred.shape[-1])


def _label_index(logits: np.ndarray, labels) -> tuple:
    """Index of each row's labelled logit; labels (batch,) or (S, batch)."""
    labels = np.asarray(labels)
    rows = logits.shape[:-1]
    if labels.shape not in (rows, rows[-1:]):
        raise ShapeError("labels must be a 1-D int array aligned with the batch")
    if not np.issubdtype(labels.dtype, np.integer):
        raise ShapeError("labels must be integers")
    if labels.size and (labels.min() < 0 or labels.max() >= logits.shape[-1]):
        raise ShapeError("label outside [0, n_classes)")
    return (*np.indices(rows, sparse=True), labels)


def loss_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple:
    """Mean negative log-likelihood of integer labels under softmax(logits).

    Computed in log space from shifted logits, so extreme logits (e.g. 1e3)
    do not overflow. Stacked logits (S, batch, classes) give one value per
    member. The gradient, (softmax(logits) - onehot) / batch, divides the
    same exponentials by the same row sums as ``softmax``.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim not in (2, 3):
        raise ShapeError("logits must be 2-D (batch, classes)")
    index = _label_index(logits, labels)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    grad = np.exp(shifted)
    norm = grad.sum(axis=-1, keepdims=True)
    value = np.mean(np.log(norm[..., 0]) - shifted[index], axis=-1)
    grad /= norm
    grad[index] -= 1.0
    grad /= logits.shape[-2]
    return value, grad
