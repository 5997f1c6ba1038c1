"""Stochastic layers: Gaussian weight-noise injection and Bernoulli dropout.

The noisy layer perturbs its weight matrix on every forward pass,
w_eff = W + alpha * eps with eps ~ N(0, sigma_l^2), where sigma_l is the
standard deviation of the layer's own weights. The noise level alpha is
either a fixed constant or a trainable parameter (one scalar per layer or
one entry per weight). Bias is never perturbed.

Both mechanisms stay active in TRAIN and EVAL mode; prediction-time
stochasticity is the point. DETERMINISTIC mode switches them off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .nn import DenseLayer, DETERMINISTIC, ShapeError

NOISE_MODES = ("fixed", "learned")
GRANULARITIES = ("scalar", "element")
SIGMA_SOURCES = ("current", "init", "constant")


@dataclass(frozen=True)
class NoiseSpec:
    """How a noisy layer draws and scales its weight noise.

    sigma_source picks the reference spread sigma_l: the live weights
    ('current', the default; noise tracks the trained scale), the weights at
    init time ('init'), or a fixed value ('constant', requires sigma_value).
    alpha_penalty_lambda is the coefficient of the optional reward term
    -lambda * ||alpha||^2 added to the training loss; it is subtracted, so a
    positive lambda pushes alpha away from zero instead of collapsing it.
    """

    mode: str = "fixed"
    granularity: str = "scalar"
    alpha_init: float = 0.05
    alpha_penalty_lambda: float = 0.0
    sigma_source: str = "current"
    sigma_value: float | None = None

    def __post_init__(self):
        if self.mode not in NOISE_MODES:
            raise ValueError(f"noise mode must be one of {NOISE_MODES}")
        if self.granularity not in GRANULARITIES:
            raise ValueError(f"granularity must be one of {GRANULARITIES}")
        if self.alpha_init < 0.0:
            raise ValueError("alpha_init must be non-negative")
        if self.alpha_penalty_lambda < 0.0:
            raise ValueError("alpha_penalty_lambda must be non-negative")
        if self.sigma_source not in SIGMA_SOURCES:
            raise ValueError(f"sigma_source must be one of {SIGMA_SOURCES}")
        if self.sigma_source == "constant":
            if self.sigma_value is None or self.sigma_value <= 0.0:
                raise ValueError("constant sigma_source requires sigma_value > 0")
        elif self.sigma_value is not None:
            raise ValueError("sigma_value only applies to the constant source")


def layer_weight_std(W: np.ndarray, spec: NoiseSpec,
                     init_std: float | None = None) -> float:
    """Reference noise scale sigma_l for a weight matrix.

    Population standard deviation (N in the denominator, not N-1): a
    constant-weight layer yields exactly 0, and [[-1, 1]] yields exactly 1.
    It is the reduction np.std performs, in the same order and so equal to
    it bit for bit, without np.std's dispatch overhead.
    """
    W = np.asarray(W, dtype=np.float64)
    if W.size == 0:
        raise ShapeError("weight matrix is empty")
    if spec.sigma_source == "constant":
        return float(spec.sigma_value)
    if spec.sigma_source == "init":
        if init_std is None:
            raise ValueError("sigma_source 'init' needs the captured init std")
        return float(init_std)
    d = W - W.sum() / W.size
    return math.sqrt((d * d).sum() / W.size)


def sample_noise(layer: "NoisyDenseLayer", rng: np.random.Generator) -> np.ndarray:
    """One eps draw shaped like W with std sigma_l, shared by the whole batch."""
    sigma = layer.weight_std()
    return sigma * rng.standard_normal(layer.W.shape)


def alpha_gradient(weight_grad: np.ndarray, eps: np.ndarray,
                   granularity: str) -> np.ndarray:
    """Reparameterization gradient: dL/dalpha = eps * dL/dw_eff.

    eps is treated as a constant of the pass; sigma_l is not differentiated
    through. Scalar granularity sums over the matrix.
    """
    g = eps * weight_grad
    if granularity == "scalar":
        return np.asarray(g.sum())
    return g


def alpha_penalty(alphas, lam: float) -> float:
    """-lam * sum ||alpha||^2: rewards larger noise, guarding against collapse."""
    if lam < 0.0:
        raise ValueError("alpha penalty coefficient must be non-negative")
    total = 0.0
    for a in alphas:
        a = np.asarray(a, dtype=np.float64)
        total += float(np.sum(a * a))
    return -lam * total


@dataclass
class NoisyDenseLayer(DenseLayer):
    """Dense layer whose weights are perturbed on every live forward pass."""

    spec: NoiseSpec = NoiseSpec()
    alpha: np.ndarray = None
    init_std: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        if self.alpha is None:
            shape = () if self.spec.granularity == "scalar" else self.W.shape
            self.alpha = np.full(shape, self.spec.alpha_init, dtype=np.float64)
        else:
            self.alpha = np.asarray(self.alpha, dtype=np.float64)
        expected = () if self.spec.granularity == "scalar" else self.W.shape
        if self.alpha.shape != expected:
            raise ShapeError(
                f"alpha shape {self.alpha.shape} does not match "
                f"granularity {self.spec.granularity!r}")

    @classmethod
    def create(cls, fan_in, fan_out, activation="identity", rng=None,
               spec: NoiseSpec = NoiseSpec()):
        base = DenseLayer.create(fan_in, fan_out, activation, rng)
        init_std = float(np.std(base.W))
        return cls(W=base.W, b=base.b, activation=activation, spec=spec,
                   alpha=None, init_std=init_std)

    def weight_std(self) -> float:
        return layer_weight_std(self.W, self.spec, init_std=self.init_std)

    def parameters(self):
        params = {"W": self.W, "b": self.b}
        if self.spec.mode == "learned":
            params["alpha"] = self.alpha
        return params

    def effective_weight(self, mode, rng, frozen=None):
        if frozen is not None:
            eps = frozen
        elif mode == DETERMINISTIC:
            return self.W, None
        else:
            if rng is None:
                raise ValueError("noisy forward needs an rng (or frozen noise)")
            eps = sample_noise(self, rng)
        return self.W + self.alpha * eps, eps

    def backward_pass(self, cache, grad_out):
        grad_in, grads = super().backward_pass(cache, grad_out)
        if self.spec.mode == "learned":
            eps = cache["eps"]
            if eps is None:
                # deterministic pass: no noise path, alpha has zero gradient
                grads["alpha"] = np.zeros_like(self.alpha)
            else:
                grads["alpha"] = alpha_gradient(grads["W"], eps,
                                                self.spec.granularity)
        return grad_in, grads


@dataclass
class DropoutLayer:
    """Inverted dropout on activations: keep with prob 1-p, scale by 1/(1-p).

    Live in TRAIN and EVAL (the MC-dropout baseline predicts with dropout
    on); identity in DETERMINISTIC mode or at p = 0, bit-exactly.
    """

    p: float

    def __post_init__(self):
        if not (0.0 <= self.p < 1.0):
            raise ValueError("drop probability must lie in [0, 1)")

    def forward_pass(self, x, mode, rng, frozen=None):
        if frozen is not None:
            mask = frozen
            return x * mask, {"mask": mask}
        if mode == DETERMINISTIC or self.p == 0.0:
            return x, {"mask": None}
        if rng is None:
            raise ValueError("dropout forward needs an rng (or a frozen mask)")
        keep = rng.random(size=x.shape) >= self.p
        mask = keep / (1.0 - self.p)
        return x * mask, {"mask": mask}

    def backward_pass(self, cache, grad_out):
        mask = cache["mask"]
        if mask is None:
            return grad_out, {}
        return grad_out * mask, {}
