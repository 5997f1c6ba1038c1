"""Stochastic layers: Gaussian weight-noise injection and Bernoulli dropout.

The noisy layer perturbs its weight matrix on every forward pass,
w_eff = W + alpha * eps with eps ~ N(0, sigma_l^2), where sigma_l is the
population standard deviation of the layer's own live weights. The noise
level alpha is one scalar per layer, either a fixed constant or trained by
backprop. Bias is never perturbed.

Both mechanisms are live on every pass, in training and at prediction
time; prediction-time stochasticity is the point. A noise-free pass is a
twin at alpha = 0 or p = 0, which computes the plain net bit for bit on
the ordinary path (W + 0 * eps; a drawn dropout mask of exactly 1.0), or a
pass with frozen noise.

A pass that reuses a trace (repeated passes over frozen weights) draws eps
into the trace's array and scales it by the sigma_l that the trace's first
pass computed, so sigma_l is computed once per run of passes.

In a member stack (built by the one rule of ``nn.stack_networks``, whose
inverse is ``Network.take``) alpha, sigma_l and the drop rate are one value
per member, shaped (S, 1, 1); members must have equal specs, which leave
alpha_init out. Each member still draws one eps per pass, shared across its
batch, and its dropout uniforms, from its own generator into its own slice,
so a member's draws are exactly the ones it would make alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .nn import DenseLayer, ShapeError


@dataclass(frozen=True)
class NoiseSpec:
    """How a noisy layer scales its weight noise.

    mode 'fixed' keeps alpha at alpha_init; 'learned' trains it.
    alpha_penalty_lambda is the coefficient of the optional reward term
    -lambda * ||alpha||^2 that the training loss adds for a learned alpha
    (its entry of the coefficient block of ``optim.Penalty``); it is
    subtracted, so a positive lambda pushes alpha away from zero instead of
    collapsing it. At lambda = 0 the alpha gradient is left untouched. A
    fixed alpha is not a parameter, so its lambda has no effect.
    alpha_init, only where alpha starts, is left out of equality and the
    hash, so members that start from different levels can stack.
    """

    mode: str = "fixed"
    alpha_init: float = field(default=0.05, compare=False)
    alpha_penalty_lambda: float = 0.0

    def __post_init__(self):
        if self.mode not in ("fixed", "learned"):
            raise ValueError("noise mode must be 'fixed' or 'learned'")
        # written so that NaN fails too
        if not 0.0 <= self.alpha_init < math.inf:
            raise ValueError("alpha_init must be finite and >= 0")
        if not 0.0 <= self.alpha_penalty_lambda < math.inf:
            raise ValueError("alpha_penalty_lambda must be finite and >= 0")


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
    var = np.multiply(d, d, out=d).sum(axis=(-2, -1), keepdims=stacked) / n
    return np.sqrt(var) if stacked else math.sqrt(var)


def _draw_members(rng, out: np.ndarray, method: str) -> None:
    """Fill ``out`` with the generator method ``method``: from one
    generator, or in a stack from one generator per member, each into its
    own slice out[s]."""
    if isinstance(rng, np.random.Generator):
        getattr(rng, method)(out=out)
        return
    for g, part in zip(rng, out, strict=True):
        getattr(g, method)(out=part)


def sample_noise(layer: "NoisyDenseLayer", rng,
                 cache: dict | None = None) -> np.ndarray:
    """One eps draw shaped like W with std sigma_l, shared by the whole batch.

    With a layer ``cache`` from an earlier pass the draw goes into its eps
    and is scaled by its sigma_l; a cache without one records the sigma_l
    computed here. A stack takes one generator per member.
    """
    cache = {} if cache is None else cache
    if "sigma" not in cache:
        cache["sigma"] = layer.weight_std()
    eps = cache["eps"] if "eps" in cache else np.empty(layer.W.shape)
    _draw_members(rng, eps, "standard_normal")
    eps *= cache["sigma"]
    return eps


def alpha_gradient(weight_grad: np.ndarray, eps: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Reparameterization gradient: dL/dalpha = sum(eps * dL/dw_eff).

    eps is treated as a constant of the pass; sigma_l is not differentiated
    through. The sum runs over the matrix, per member in a stack, and is
    written into ``out`` when given.
    """
    g = eps * weight_grad
    return np.asarray(g.sum(axis=(-2, -1), keepdims=g.ndim == 3, out=out))


@dataclass
class NoisyDenseLayer(DenseLayer):
    """Dense layer whose weights are perturbed on every forward pass."""

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
    def create(cls, fan_in, fan_out, activation, rng,
               spec: NoiseSpec = NoiseSpec()):
        base = DenseLayer.create(fan_in, fan_out, activation, rng)
        return cls(W=base.W, b=base.b, activation=activation, spec=spec)

    def weight_std(self) -> float:
        return layer_weight_std(self.W)

    def parameters(self):
        params = {"W": self.W, "b": self.b}
        if self.spec.mode == "learned":
            params["alpha"] = self.alpha
        return params

    def effective_weight(self, rng, frozen=None, cache=None):
        """(W + alpha * eps, eps); the layer ``cache`` of an earlier pass
        lends its eps and w_eff arrays and its sigma_l."""
        cache = {} if cache is None else cache
        if frozen is not None:
            eps = frozen
        elif rng is None:
            raise ValueError("noisy forward needs an rng (or frozen noise)")
        else:
            eps = sample_noise(self, rng, cache)
        w_eff = np.multiply(self.alpha, eps, out=cache.get("w_eff"))
        return np.add(self.W, w_eff, out=w_eff), eps

    def backward_pass(self, cache, grad_out, grads):
        grad_in = super().backward_pass(cache, grad_out, grads)
        if self.spec.mode == "learned":
            alpha_gradient(grads["W"], cache["eps"], out=grads["alpha"])
        return grad_in


@dataclass
class DropoutLayer:
    """Inverted dropout on activations: keep with prob 1-p, scale by 1/(1-p).

    Live on every pass (the MC-dropout baseline predicts with dropout on).
    At p = 0 the drawn mask keeps every unit and is exactly 1.0: the
    identity, bit for bit. In a stack p is (S, 1, 1).
    """

    p: float

    def __post_init__(self):
        if not np.all((0.0 <= np.asarray(self.p)) & (np.asarray(self.p) < 1.0)):
            raise ValueError("drop probability must lie in [0, 1)")

    def forward_pass(self, x, rng, frozen=None, cache=None):
        """Returns (output, cache); like ``DenseLayer.forward_pass``."""
        cache = {} if cache is None else cache
        if frozen is not None:
            mask = frozen
        elif rng is None:
            raise ValueError("dropout forward needs an rng (or a frozen mask)")
        else:
            p = self.p
            u = (cache["u"] if "u" in cache
                 else np.empty(np.broadcast(x, p).shape))
            _draw_members(rng, u, "random")
            keep = np.greater_equal(u, p, out=cache.get("keep"))
            mask = np.divide(keep, 1.0 - p, out=cache.get("mask"))
            cache.update(u=u, keep=keep)
        y = np.multiply(x, mask, out=cache.get("y"))
        cache.update(mask=mask, y=y)
        return y, cache

    def backward_pass(self, cache, grad_out, grads):
        return grad_out * cache["mask"]
