"""Builders for the four model families compared throughout.

deterministic   plain MLP, no stochastic mechanism
mc_dropout      dropout on every hidden activation, live at prediction time
noise_fixed     weight noise with a constant level alpha on every dense layer
noise_learned   weight noise with alpha trained by backprop

Weight noise is scaled by sigma_l, the spread of each layer's live weights.
"""

from __future__ import annotations

import numpy as np

from .nn import DenseLayer, Network
from .noise import DropoutLayer, NoiseSpec, NoisyDenseLayer

FAMILIES = ("deterministic", "mc_dropout", "noise_fixed", "noise_learned")


def build_mlp(family: str, input_dim: int, hidden, output_dim: int,
              task: str = "regression", activation: str = "relu",
              rng: np.random.Generator | None = None,
              dropout_p: float = 0.2, noise_level: float = 0.05,
              alpha_penalty_lambda: float = 0.0) -> Network:
    """Feed-forward net [input_dim] + hidden + [output_dim].

    Hidden layers use ``activation``; the output layer is linear (logits for
    classification). Weight noise, when present, is injected into every dense
    layer including the output, never into biases, with one noise level per
    layer starting at ``noise_level``. Dropout follows each hidden
    activation; inputs are left alone so that a dropped unit perturbs the
    output by one unit's share, not one raw feature's.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown model family {family!r}")
    hidden = [int(h) for h in np.atleast_1d(hidden)]
    if not hidden:
        raise ValueError("at least one hidden layer required")
    rng = np.random.default_rng() if rng is None else rng

    noisy = family in ("noise_fixed", "noise_learned")
    spec = None
    if noisy:
        spec = NoiseSpec(
            mode="fixed" if family == "noise_fixed" else "learned",
            alpha_init=noise_level,
            alpha_penalty_lambda=alpha_penalty_lambda,
        )

    dims = [int(input_dim)] + hidden + [int(output_dim)]
    layers = []
    for i, (fi, fo) in enumerate(zip(dims, dims[1:])):
        last = i == len(dims) - 2
        act = "identity" if last else activation
        if noisy:
            layers.append(NoisyDenseLayer.create(fi, fo, act, rng, spec=spec))
        else:
            layers.append(DenseLayer.create(fi, fo, act, rng))
        if family == "mc_dropout" and not last:
            layers.append(DropoutLayer(dropout_p))
    return Network(layers, task=task)
