"""Dense feed-forward networks with explicit per-layer backward passes.

Everything is float64 numpy. A forward call returns the output together with
a trace of per-layer intermediates; the backward call consumes that trace and
returns a flat name -> gradient dict. There is no general autodiff tape: each
layer knows how to push gradients through itself, and that is all the models
here need.

Stochastic layers (weight noise, dropout) are live on every pass, in
training and at prediction time alike: they are part of the model, not a
training trick. A noise-free pass is an alpha = 0 or p = 0 twin of the net,
or a pass with ``frozen_noise``.

Member stacks: several same-shape networks can run as one network whose
parameters carry a leading member axis (``stack_networks``): weights
(S, fan_in, fan_out), biases (S, 1, fan_out). Every layer computes through
``np.matmul``, ``swapaxes(-1, -2)`` and reductions over the trailing axes,
so the same code serves a single net (2-D weights) and a stack; each
member's slice of a stacked result equals, bit for bit, what that member
computes alone. A stack takes per-member inputs (S, batch, features) or
one shared (batch, features) input, and one generator per member.

Repeated passes at one batch size (Monte Carlo inference) can run in a
Workspace: per-layer buffers built once and overwritten by every pass, so a
pass allocates no full-size arrays. Each operation is the same as on the
allocating path, only with an ``out=`` target, so the results are the same
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Mapping, Sequence

import numpy as np


class ShapeError(ValueError):
    """An input, target, or gradient does not match the network geometry."""


class ContractError(RuntimeError):
    """A forward trace or workspace was used with a network it does not fit."""


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

    @classmethod
    def stack(cls, layers) -> "DenseLayer":
        """One layer holding ``layers`` (same shape and activation) as members."""
        _require_same(layers, "activation")
        return cls(W=np.stack([l.W for l in layers]),
                   b=np.stack([l.b[None] for l in layers]),
                   activation=layers[0].activation)

    @property
    def fan_in(self) -> int:
        return self.W.shape[-2]

    @property
    def fan_out(self) -> int:
        return self.W.shape[-1]

    def parameters(self) -> dict[str, np.ndarray]:
        return {"W": self.W, "b": self.b}

    def buffers(self, batch: int, width: int) -> dict:
        """Workspace buffers for a batch of ``batch`` rows (width is fan_in)."""
        return {"z": np.empty((batch, self.fan_out)),
                "a": np.empty((batch, self.fan_out))}

    def effective_weight(self, rng, frozen=None, buffers=None):
        """The weight actually multiplied into the input. Hook for noise."""
        return self.W, None

    def forward_pass(self, x, rng, frozen=None, buffers=None):
        buf = buffers or {}
        w_eff, eps = self.effective_weight(rng, frozen, buffers)
        z = np.matmul(x, w_eff, out=buf.get("z"))
        z += self.b
        a = apply_activation(self.activation, z, out=buf.get("a"))
        return a, {"x": x, "z": z, "a": a, "w_eff": w_eff, "eps": eps}

    def backward_pass(self, cache, grad_out):
        grad_z = activation_backward(self.activation, grad_out, cache["z"], cache["a"])
        grads = {"W": np.swapaxes(cache["x"], -1, -2) @ grad_z,
                 "b": grad_z.sum(axis=-2).reshape(self.b.shape)}
        return grad_z @ np.swapaxes(cache["w_eff"], -1, -2), grads


def _require_same(layers, *names) -> None:
    first = layers[0]
    for layer in layers[1:]:
        if type(layer) is not type(first):
            raise ShapeError("stacked members must have the same layer types")
        for name in names:
            if getattr(layer, name) != getattr(first, name):
                raise ShapeError(f"stacked members differ in {name}")



@dataclass
class Workspace:
    """Buffers reused by repeated forward passes of one network at one batch.

    Built once per Monte Carlo call by ``Network.workspace``, and valid only
    while the weights stay frozen: noisy layers fix sigma_l when it is built.
    Every pass overwrites the buffers, so the output of a pass is a view that
    the next pass replaces; copy what must outlive it.
    """

    net: "Network"
    batch: int
    layers: list = field(repr=False)


@dataclass
class ForwardTrace:
    """Per-layer intermediates from one forward call, consumed by backward."""

    net: "Network"
    caches: list = field(repr=False)
    output: np.ndarray = field(repr=False)
    buffered: bool = False   # made in a Workspace; its arrays get overwritten


class Network:
    """A stack of layers with a task tag ('regression' or 'classification').

    Classification networks emit logits; softmax is applied by the inference
    helpers, never by a layer (keeps the cross-entropy path numerically
    stable).
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

    @property
    def fan_in(self) -> int:
        return self._dense[0][1].fan_in

    @property
    def fan_out(self) -> int:
        return self._dense[-1][1].fan_out

    def parameters(self) -> dict[str, np.ndarray]:
        """Live parameter arrays keyed 'L{index}.{name}'."""
        out: dict[str, np.ndarray] = {}
        for i, layer in enumerate(self.layers):
            if hasattr(layer, "parameters"):
                for name, arr in layer.parameters().items():
                    out[f"L{i}.{name}"] = arr
        return out

    def take(self, keep) -> "Network":
        """A stack of the members ``keep`` (indices into this stack): every
        layer field that carries the member axis (the 3-D ones) is indexed."""
        return Network([replace(l, **{f.name: getattr(l, f.name)[keep]
                                      for f in fields(l)
                                      if np.ndim(getattr(l, f.name)) == 3})
                        for l in self.layers], self.task)

    def load_parameters(self, params: Mapping[str, np.ndarray]) -> None:
        live = self.parameters()
        if set(params) != set(live):
            raise ContractError("parameter snapshot does not match this network")
        for name, arr in params.items():
            np.copyto(live[name], arr)

    def workspace(self, batch: int) -> Workspace:
        """Per-layer buffers for repeated passes over ``batch`` input rows."""
        layers, width = [], self.fan_in
        for layer in self.layers:
            layers.append(layer.buffers(batch, width))
            width = getattr(layer, "fan_out", width)
        return Workspace(net=self, batch=batch, layers=layers)

    def forward(self, x, rng: np.random.Generator | None = None, *,
                frozen_noise=None, workspace: Workspace | None = None):
        """Run the stack; returns (output, ForwardTrace).

        Noise and dropout draw from ``rng``; a member stack takes one
        generator per member. A net without stochastic layers needs none.
        ``frozen_noise`` is a per-layer list of pre-drawn noise (weight noise
        eps or dropout masks); used by gradient checks so finite differences
        see a smooth deterministic function. With a ``workspace`` every
        intermediate, the output included, is written into its buffers.
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
        if (self.members is not None and rng is not None
                and len(rng) != self.members):
            raise ContractError("a member stack needs one generator per member")
        if frozen_noise is not None and len(frozen_noise) != len(self.layers):
            raise ContractError("frozen_noise must have one entry per layer")
        if workspace is not None:
            if workspace.net is not self:
                raise ContractError("workspace does not belong to this network")
            if x.shape[-2] != workspace.batch:
                raise ShapeError(f"workspace holds {workspace.batch} rows, "
                                 f"input has {x.shape[-2]}")
        h = x
        caches = []
        for i, layer in enumerate(self.layers):
            frozen = None if frozen_noise is None else frozen_noise[i]
            buffers = None if workspace is None else workspace.layers[i]
            h, cache = layer.forward_pass(h, rng, frozen=frozen, buffers=buffers)
            caches.append(cache)
        return h, ForwardTrace(net=self, caches=caches, output=h,
                               buffered=workspace is not None)

    def backward(self, trace: ForwardTrace, output_grad: np.ndarray) -> dict[str, np.ndarray]:
        """Gradients of a scalar loss given d(loss)/d(output)."""
        if trace.net is not self:
            raise ContractError("trace does not belong to this network")
        if trace.buffered:
            raise ContractError("trace was made in a workspace; the next pass "
                                "overwrites its buffers")
        output_grad = np.asarray(output_grad, dtype=np.float64)
        if output_grad.shape != trace.output.shape:
            raise ShapeError(
                f"output gradient shape {output_grad.shape} does not match "
                f"output {trace.output.shape}")
        grads: dict[str, np.ndarray] = {}
        g = output_grad
        for i in range(len(self.layers) - 1, -1, -1):
            g, layer_grads = self.layers[i].backward_pass(trace.caches[i], g)
            for name, arr in layer_grads.items():
                grads[f"L{i}.{name}"] = arr
        return grads


def stack_networks(nets) -> Network:
    """One network whose parameters carry a leading member axis.

    The nets must share their layer types, shapes and activations; per-member
    values (weights, biases, noise levels, drop rates) go into the stack.
    The stack holds copies: training it leaves the member nets untouched.
    """
    nets = list(nets)
    if not nets:
        raise ValueError("a stack needs at least one member")
    if any(n.members is not None for n in nets):
        raise ShapeError("only single nets can be stacked")
    if len({(n.task, len(n.layers)) for n in nets}) != 1:
        raise ShapeError("stacked members differ in task or depth")
    return Network([type(group[0]).stack(group)
                    for group in zip(*(n.layers for n in nets))],
                   task=nets[0].task)


# ---------------------------------------------------------------------------
# losses: one value per member, reduced over the trailing (batch, output) axes

def _check_targets(pred: np.ndarray, target: np.ndarray) -> None:
    # a stack's prediction (S, batch, out) may share one (batch, out) target
    if pred.shape != target.shape and pred.shape[1:] != target.shape:
        raise ShapeError(f"prediction {pred.shape} vs target {target.shape}")


def loss_mse(pred: np.ndarray, target: np.ndarray) -> float:
    """Squared error averaged over batch and output dimensions (per member)."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    _check_targets(pred, target)
    diff = pred - target
    return np.mean(diff * diff, axis=(-2, -1))


def loss_mse_grad(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    _check_targets(pred, target)
    return 2.0 * (pred - target) / (pred.shape[-2] * pred.shape[-1])


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


def loss_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-likelihood of integer labels under softmax(logits).

    Computed in log space from shifted logits, so extreme logits (e.g. 1e3)
    do not overflow. Stacked logits (S, batch, classes) give one value per
    member.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim not in (2, 3):
        raise ShapeError("logits must be 2-D (batch, classes)")
    index = _label_index(logits, labels)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=-1))
    return np.mean(log_norm - shifted[index], axis=-1)


def loss_cross_entropy_grad(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    logits = np.asarray(logits, dtype=np.float64)
    index = _label_index(logits, labels)
    g = softmax(logits)
    g[index] -= 1.0
    return g / logits.shape[-2]
