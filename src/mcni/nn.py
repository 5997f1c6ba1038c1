"""Dense feed-forward networks with explicit per-layer backward passes.

Everything is float64 numpy. A forward call returns the output together with
a trace of per-layer intermediates; the backward call consumes that trace and
returns a flat name -> gradient dict. There is no general autodiff tape: each
layer knows how to push gradients through itself, and that is all the models
here need.

Modes: TRAIN and EVAL both keep stochastic mechanisms live (weight noise and
dropout are part of the model at prediction time, not a training trick);
DETERMINISTIC switches them off for debugging and baselines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

TRAIN = "train"
EVAL = "eval"
DETERMINISTIC = "deterministic"
MODES = (TRAIN, EVAL, DETERMINISTIC)


class ShapeError(ValueError):
    """An input, target, or gradient does not match the network geometry."""


class ContractError(RuntimeError):
    """A forward trace was replayed against a network it does not belong to."""


# ---------------------------------------------------------------------------
# activations

def softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax, shift-stabilized so large logits cannot overflow."""
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def apply_activation(name: str, z: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "tanh":
        return np.tanh(z)
    if name == "sigmoid":
        # evaluate on the stable side of the exp in both tails
        out = np.empty_like(z)
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out
    if name == "identity":
        return z
    if name == "softmax":
        return softmax(z)
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
    if name == "softmax":
        # Jacobian-vector product: a * (g - <g, a>), row-wise.
        inner = (grad_out * a).sum(axis=-1, keepdims=True)
        return a * (grad_out - inner)
    raise ValueError(f"unknown activation {name!r}")


# ---------------------------------------------------------------------------
# layers

@dataclass
class DenseLayer:
    """Affine layer a = act(x W + b). Weights (fan_in, fan_out), bias (fan_out,)."""

    W: np.ndarray
    b: np.ndarray
    activation: str = "identity"

    def __post_init__(self):
        self.W = np.asarray(self.W, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        if self.W.ndim != 2:
            raise ShapeError("weight matrix must be 2-D")
        if self.b.shape != (self.W.shape[1],):
            raise ShapeError("bias shape must match fan_out")
        if self.activation not in ("relu", "tanh", "sigmoid", "identity", "softmax"):
            raise ValueError(f"unknown activation {self.activation!r}")

    @classmethod
    def create(cls, fan_in: int, fan_out: int, activation: str = "identity",
               rng: np.random.Generator | None = None) -> "DenseLayer":
        """Fan-in-scaled uniform init U(-1/sqrt(fan_in), +1/sqrt(fan_in))."""
        rng = np.random.default_rng() if rng is None else rng
        bound = 1.0 / np.sqrt(fan_in)
        W = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        return cls(W=W, b=np.zeros(fan_out), activation=activation)

    @property
    def fan_in(self) -> int:
        return self.W.shape[0]

    @property
    def fan_out(self) -> int:
        return self.W.shape[1]

    def parameters(self) -> dict[str, np.ndarray]:
        return {"W": self.W, "b": self.b}

    def effective_weight(self, mode: str, rng, frozen=None):
        """The weight actually multiplied into the input. Hook for noise."""
        return self.W, None

    def forward_pass(self, x, mode, rng, frozen=None):
        w_eff, eps = self.effective_weight(mode, rng, frozen)
        z = x @ w_eff + self.b
        a = apply_activation(self.activation, z)
        return a, {"x": x, "z": z, "a": a, "w_eff": w_eff, "eps": eps}

    def backward_pass(self, cache, grad_out):
        grad_z = activation_backward(self.activation, grad_out, cache["z"], cache["a"])
        grads = {"W": cache["x"].T @ grad_z, "b": grad_z.sum(axis=0)}
        return grad_z @ cache["w_eff"].T, grads


@dataclass
class ForwardTrace:
    """Per-layer intermediates from one forward call, consumed by backward."""

    net: "Network"
    x: np.ndarray
    mode: str
    caches: list = field(repr=False)
    output: np.ndarray = field(repr=False)


class Network:
    """A stack of layers with a task tag ('regression' or 'classification').

    Classification networks emit logits; softmax is applied by the inference
    helpers, not baked into the last layer (keeps the cross-entropy path
    numerically stable).
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

    @property
    def outputs_probabilities(self) -> bool:
        """True when the last dense layer already applies softmax."""
        return self._dense[-1][1].activation == "softmax"

    def parameters(self) -> dict[str, np.ndarray]:
        """Live parameter arrays keyed 'L{index}.{name}'."""
        out: dict[str, np.ndarray] = {}
        for i, layer in enumerate(self.layers):
            if hasattr(layer, "parameters"):
                for name, arr in layer.parameters().items():
                    out[f"L{i}.{name}"] = arr
        return out

    def copy_parameters(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self.parameters().items()}

    def load_parameters(self, params: Mapping[str, np.ndarray]) -> None:
        live = self.parameters()
        if set(params) != set(live):
            raise ContractError("parameter snapshot does not match this network")
        for name, arr in params.items():
            np.copyto(live[name], arr)

    def forward(self, x, mode: str = TRAIN, rng: np.random.Generator | None = None,
                frozen_noise=None):
        """Run the stack; returns (output, ForwardTrace).

        ``frozen_noise`` is a per-layer list of pre-drawn noise (weight noise
        eps or dropout masks); used by gradient checks so finite differences
        see a smooth deterministic function.
        """
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise ShapeError(f"input must be 2-D (batch, features), got {x.ndim}-D")
        if x.shape[1] != self.fan_in:
            first = self._dense[0][0]
            raise ShapeError(
                f"layer {first} expects {self.fan_in} features, got {x.shape[1]}")
        if frozen_noise is not None and len(frozen_noise) != len(self.layers):
            raise ContractError("frozen_noise must have one entry per layer")
        h = x
        caches = []
        for i, layer in enumerate(self.layers):
            frozen = None if frozen_noise is None else frozen_noise[i]
            h, cache = layer.forward_pass(h, mode, rng, frozen=frozen)
            caches.append(cache)
        return h, ForwardTrace(net=self, x=x, mode=mode, caches=caches, output=h)

    def backward(self, trace: ForwardTrace, output_grad: np.ndarray) -> dict[str, np.ndarray]:
        """Gradients of a scalar loss given d(loss)/d(output)."""
        if trace.net is not self:
            raise ContractError("trace does not belong to this network")
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


# ---------------------------------------------------------------------------
# losses

def loss_mse(pred: np.ndarray, target: np.ndarray) -> float:
    """Squared error averaged over batch and output dimensions."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ShapeError(f"prediction {pred.shape} vs target {target.shape}")
    diff = pred - target
    return float(np.mean(diff * diff))


def loss_mse_grad(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ShapeError(f"prediction {pred.shape} vs target {target.shape}")
    return 2.0 * (pred - target) / pred.size


def _check_labels(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != logits.shape[0]:
        raise ShapeError("labels must be a 1-D int array aligned with the batch")
    if not np.issubdtype(labels.dtype, np.integer):
        raise ShapeError("labels must be integers")
    if labels.size and (labels.min() < 0 or labels.max() >= logits.shape[1]):
        raise ShapeError("label outside [0, n_classes)")
    return labels


def loss_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-likelihood of integer labels under softmax(logits).

    Computed in log space from shifted logits, so extreme logits (e.g. 1e3)
    do not overflow.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2:
        raise ShapeError("logits must be 2-D (batch, classes)")
    labels = _check_labels(logits, labels)
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1))
    picked = shifted[np.arange(logits.shape[0]), labels]
    return float(np.mean(log_norm - picked))


def loss_cross_entropy_grad(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    logits = np.asarray(logits, dtype=np.float64)
    labels = _check_labels(logits, labels)
    g = softmax(logits)
    g[np.arange(logits.shape[0]), labels] -= 1.0
    return g / logits.shape[0]


# ---------------------------------------------------------------------------
# L2 penalty (weight decay) with per-parameter-group coefficients

def _l2_terms(net: Network, lambdas) -> tuple[float, dict[str, np.ndarray]]:
    """The L2 penalty and its gradients {name: 2 lambda_g param_g}, one pass.

    ``lambdas`` is a scalar applied to every group, or a mapping from
    parameter name ('L0.W', 'L0.b', ...) to its coefficient. Noise levels
    (alpha) are never decayed: shrinking them would silently cancel the
    mechanism the model is built around.
    """
    per_group = not isinstance(lambdas, (int, float)) and isinstance(lambdas, Mapping)
    scalar = None if per_group else float(lambdas)
    total = 0.0
    grads: dict[str, np.ndarray] = {}
    for name, p in net.parameters().items():
        if name.endswith(".alpha"):
            continue
        lam = float(lambdas.get(name, 0.0)) if per_group else scalar
        if lam < 0.0:
            raise ValueError(f"negative weight decay for {name}")
        if lam != 0.0:
            total += lam * float((p * p).sum())
            grads[name] = 2.0 * lam * p
    return total, grads


def l2_penalty(net: Network, lambdas) -> float:
    """sum_g lambda_g * ||param_g||^2 over W and b groups (see _l2_terms)."""
    return _l2_terms(net, lambdas)[0]


def l2_penalty_grads(net: Network, lambdas) -> dict[str, np.ndarray]:
    return _l2_terms(net, lambdas)[1]
