"""Stochastic layers: Gaussian weight-noise injection and Bernoulli dropout.

The noisy layer perturbs its weight matrix on every forward pass,
w_eff = W + alpha * eps with eps ~ N(0, sigma_l^2), where sigma_l is the
population standard deviation of the layer's own live weights. The noise
level alpha is one scalar per layer, either a fixed constant or trained by
backprop. Bias is never perturbed.

Both mechanisms stay active in TRAIN and EVAL mode; prediction-time
stochasticity is the point. DETERMINISTIC mode switches them off.

In a workspace (repeated passes over frozen weights), a noisy layer computes
sigma_l once, when its buffers are built, and draws eps into a reused buffer.

In a member stack (see ``nn.stack_networks``) alpha, sigma_l and the drop
rate carry the leading member axis, shaped (S, 1, 1) where they are one
value per member. Each member still draws one eps per pass, shared across
its batch, from its own generator into its own slice, so a member's draws
are exactly the ones it would make alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .nn import DenseLayer, DETERMINISTIC, ShapeError, _require_same

NOISE_MODES = ("fixed", "learned")


@dataclass(frozen=True)
class NoiseSpec:
    """How a noisy layer scales its weight noise.

    mode 'fixed' keeps alpha at alpha_init; 'learned' trains it.
    alpha_penalty_lambda is the coefficient of the optional reward term
    -lambda * ||alpha||^2 added to the training loss; it is subtracted, so a
    positive lambda pushes alpha away from zero instead of collapsing it.
    """

    mode: str = "fixed"
    alpha_init: float = 0.05
    alpha_penalty_lambda: float = 0.0

    def __post_init__(self):
        if self.mode not in NOISE_MODES:
            raise ValueError(f"noise mode must be one of {NOISE_MODES}")
        if self.alpha_init < 0.0:
            raise ValueError("alpha_init must be non-negative")
        if self.alpha_penalty_lambda < 0.0:
            raise ValueError("alpha_penalty_lambda must be non-negative")


def layer_weight_std(W: np.ndarray) -> float:
    """Reference noise scale sigma_l of a weight matrix.

    Population standard deviation (N in the denominator, not N-1): a
    constant-weight layer yields exactly 0, and [[-1, 1]] yields exactly 1.
    It is the reduction np.std performs, in the same order and so equal to
    it bit for bit, without np.std's dispatch overhead. A stack of weight
    matrices (S, fan_in, fan_out) gives one value per member, shaped
    (S, 1, 1).
    """
    W = np.asarray(W, dtype=np.float64)
    if W.size == 0:
        raise ShapeError("weight matrix is empty")
    stacked, n = W.ndim == 3, W.shape[-2] * W.shape[-1]
    d = W - W.sum(axis=(-2, -1), keepdims=stacked) / n
    var = (d * d).sum(axis=(-2, -1), keepdims=stacked) / n
    return np.sqrt(var) if stacked else math.sqrt(var)


def _draw_members(rng, out: np.ndarray, method: str) -> None:
    """Fill ``out`` with the generator method ``method``: from one
    generator, or in a stack from one generator per member, each into its
    own slice out[s] (a member whose generator is None draws nothing)."""
    if isinstance(rng, np.random.Generator):
        getattr(rng, method)(out=out)
        return
    for g, part in zip(rng, out, strict=True):
        if g is not None:
            getattr(g, method)(out=part)


def sample_noise(layer: "NoisyDenseLayer", rng,
                 buffers: dict | None = None) -> np.ndarray:
    """One eps draw shaped like W with std sigma_l, shared by the whole batch.

    With workspace ``buffers`` the draw goes into buffers["eps"] and is scaled
    by the sigma_l fixed when they were built. A stack takes one generator
    per member.
    """
    if buffers is None:
        eps, sigma = np.empty(layer.W.shape), layer.weight_std()
    else:
        eps, sigma = buffers["eps"], buffers["sigma"]
    _draw_members(rng, eps, "standard_normal")
    eps *= sigma
    return eps


def alpha_gradient(weight_grad: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """Reparameterization gradient: dL/dalpha = sum(eps * dL/dw_eff).

    eps is treated as a constant of the pass; sigma_l is not differentiated
    through. The sum runs over the matrix, per member in a stack.
    """
    g = eps * weight_grad
    return np.asarray(g.sum(axis=(-2, -1), keepdims=g.ndim == 3))


@dataclass
class NoisyDenseLayer(DenseLayer):
    """Dense layer whose weights are perturbed on every live forward pass."""

    spec: NoiseSpec = NoiseSpec()
    alpha: np.ndarray = None

    def __post_init__(self):
        super().__post_init__()
        # one alpha per layer: () for a single net, (S, 1, 1) in a stack
        expected = self.W.shape[:-2] + (1, 1) * (self.W.ndim - 2)
        if self.alpha is None:
            self.alpha = np.full(expected, self.spec.alpha_init, dtype=np.float64)
        else:
            self.alpha = np.asarray(self.alpha, dtype=np.float64)
        if self.alpha.shape != expected:
            raise ShapeError(f"alpha shape {self.alpha.shape} is not the "
                             f"layer's scalar shape {expected}")

    @classmethod
    def create(cls, fan_in, fan_out, activation="identity", rng=None,
               spec: NoiseSpec = NoiseSpec()):
        base = DenseLayer.create(fan_in, fan_out, activation, rng)
        return cls(W=base.W, b=base.b, activation=activation, spec=spec)

    @classmethod
    def stack(cls, layers) -> "NoisyDenseLayer":
        """Members may differ in alpha; their specs must agree otherwise."""
        _require_same(layers, "activation")
        specs = {replace(l.spec, alpha_init=0.0) for l in layers}
        if len(specs) != 1:
            raise ShapeError("stacked members differ in their noise spec")
        base = DenseLayer.stack(layers)
        return cls(W=base.W, b=base.b, activation=base.activation,
                   spec=layers[0].spec,
                   alpha=np.array([l.alpha for l in layers]).reshape(-1, 1, 1))

    def weight_std(self) -> float:
        return layer_weight_std(self.W)

    def buffers(self, batch: int, width: int) -> dict:
        """Dense buffers plus eps, w_eff and sigma_l of the frozen weights."""
        buf = super().buffers(batch, width)
        buf.update(eps=np.empty(self.W.shape), w_eff=np.empty(self.W.shape),
                   sigma=self.weight_std())
        return buf

    def parameters(self):
        params = {"W": self.W, "b": self.b}
        if self.spec.mode == "learned":
            params["alpha"] = self.alpha
        return params

    def effective_weight(self, mode, rng, frozen=None, buffers=None):
        if frozen is not None:
            eps = frozen
        elif mode == DETERMINISTIC:
            return self.W, None
        else:
            if rng is None:
                raise ValueError("noisy forward needs an rng (or frozen noise)")
            eps = sample_noise(self, rng, buffers)
        w_eff = np.multiply(self.alpha, eps, out=(buffers or {}).get("w_eff"))
        return np.add(self.W, w_eff, out=w_eff), eps

    def backward_pass(self, cache, grad_out):
        grad_in, grads = super().backward_pass(cache, grad_out)
        if self.spec.mode == "learned":
            eps = cache["eps"]
            if eps is None:
                # deterministic pass: no noise path, alpha has zero gradient
                grads["alpha"] = np.zeros_like(self.alpha)
            else:
                grads["alpha"] = alpha_gradient(grads["W"], eps)
        return grad_in, grads


@dataclass
class DropoutLayer:
    """Inverted dropout on activations: keep with prob 1-p, scale by 1/(1-p).

    Live in TRAIN and EVAL (the MC-dropout baseline predicts with dropout
    on); identity in DETERMINISTIC mode or at p = 0, bit-exactly. In a stack
    p is (S, 1, 1); a member with p = 0 draws nothing and keeps every unit.
    """

    p: float

    def __post_init__(self):
        if not np.all((0.0 <= np.asarray(self.p)) & (np.asarray(self.p) < 1.0)):
            raise ValueError("drop probability must lie in [0, 1)")

    @classmethod
    def stack(cls, layers) -> "DropoutLayer":
        _require_same(layers)
        return cls(np.array([l.p for l in layers], dtype=np.float64).reshape(-1, 1, 1))

    def buffers(self, batch: int, width: int) -> dict:
        shape = (batch, width)
        return {"u": np.empty(shape), "keep": np.empty(shape, dtype=bool),
                "mask": np.empty(shape), "y": np.empty(shape)}

    def forward_pass(self, x, mode, rng, frozen=None, buffers=None):
        buf = buffers or {}
        if frozen is not None:
            mask = frozen
            return np.multiply(x, mask, out=buf.get("y")), {"mask": mask}
        if mode == DETERMINISTIC or not np.any(self.p):
            return x, {"mask": None}
        if rng is None:
            raise ValueError("dropout forward needs an rng (or a frozen mask)")
        p = self.p
        if np.ndim(p) == 0:
            u = rng.random(size=x.shape, out=buf.get("u"))
        else:
            # a member with p = 0 keeps u = 0 >= p: every unit, no draw
            u = np.zeros(np.broadcast_shapes(x.shape, p.shape))
            _draw_members([g if ps else None
                           for g, ps in zip(rng, p.ravel(), strict=True)],
                          u, "random")
        keep = np.greater_equal(u, p, out=buf.get("keep"))
        mask = np.divide(keep, 1.0 - p, out=buf.get("mask"))
        return np.multiply(x, mask, out=buf.get("y")), {"mask": mask}

    def backward_pass(self, cache, grad_out):
        mask = cache["mask"]
        if mask is None:
            return grad_out, {}
        return grad_out * mask, {}
