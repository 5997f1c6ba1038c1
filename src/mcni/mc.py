"""Monte Carlo inference: T stochastic passes and their summaries.

Each pass gets its own child stream spawned from the caller's generator, so
a fixed master seed reproduces the sample block bit-for-bit and the passes
could in principle run concurrently. Summaries reduce over the pass axis
with a sequential Welford recurrence in a fixed order; besides numerical
robustness this makes the variance of bit-identical passes exactly zero
(a two-pass mean would leave last-ulp residue).

The weights are frozen for the whole call, so sigma_l is computed once per
call, not once per pass, and the passes run in one Workspace: per-layer
buffers built once and reused by every pass. Each pass's output is copied
into the sample block, which never aliases a buffer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .nn import EVAL, Network, softmax

PROB_TOLERANCE = 1e-6


@dataclass
class PredictiveSamples:
    """T per-pass outputs, stacked (T, N, D). Classification rows are probabilities."""

    values: np.ndarray = field(repr=False)
    task: str
    lineage: tuple = ()      # spawn keys of the per-pass sub-streams

    @property
    def n_passes(self) -> int:
        return self.values.shape[0]


@dataclass
class PredictiveSummary:
    mean: np.ndarray
    variance: np.ndarray
    sigma: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


@dataclass
class ClassificationSummary:
    mean_probs: np.ndarray
    predicted: np.ndarray
    confidence: np.ndarray
    entropy: np.ndarray
    class_variance: np.ndarray


def mc_predict(net: Network, X, T: int, rng: np.random.Generator,
               mode: str = EVAL, transform=None) -> PredictiveSamples:
    """Run T independent noisy passes; stochastic mechanisms stay live in EVAL.

    ``transform(X, rng)`` optionally gives each pass its own input. A pass
    with a transform splits its stream in two, the first for the transform
    and the second for the network.
    """
    if T < 1:
        raise ValueError("need at least one Monte Carlo pass")
    X = np.asarray(X, dtype=np.float64)
    streams = rng.spawn(T)
    needs_softmax = net.task == "classification" and not net.outputs_probabilities
    outs = np.empty((T,) + (X.shape[0], net.fan_out), dtype=np.float64)
    workspace = net.workspace(X.shape[0])
    for t, stream in enumerate(streams):
        x = X
        if transform is not None:
            input_rng, stream = stream.spawn(2)
            x = transform(X, input_rng)
        out, _ = net.forward(x, mode, stream, workspace=workspace)
        if needs_softmax:
            softmax(out, out=outs[t])
        else:
            outs[t] = out
    lineage = tuple(s.bit_generator.seed_seq.spawn_key for s in streams)
    return PredictiveSamples(values=outs, task=net.task, lineage=lineage)


def welford_mean_var(values: np.ndarray):
    """Streaming mean and unbiased variance over axis 0.

    Sequential update in pass order: identical rows give exactly zero
    variance because x - m is exactly zero at every step.
    """
    values = np.asarray(values, dtype=np.float64)
    T = values.shape[0]
    if T < 2:
        raise ValueError("variance needs at least 2 passes")
    mean = np.zeros(values.shape[1:], dtype=np.float64)
    m2 = np.zeros(values.shape[1:], dtype=np.float64)
    for k in range(T):
        delta = values[k] - mean
        mean += delta / (k + 1)
        m2 += delta * (values[k] - mean)
    return mean, m2 / (T - 1)


def welford_mean(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    mean = np.zeros(values.shape[1:], dtype=np.float64)
    for k in range(values.shape[0]):
        mean += (values[k] - mean) / (k + 1)
    return mean


def summarize_regression(samples: PredictiveSamples) -> PredictiveSummary:
    """Predictive mean, unbiased variance, and mean +/- 3 sigma bounds."""
    mean, variance = welford_mean_var(samples.values)
    sigma = np.sqrt(variance)
    return PredictiveSummary(mean=mean, variance=variance, sigma=sigma,
                             lower=mean - 3.0 * sigma, upper=mean + 3.0 * sigma)


def summarize_classification(samples: PredictiveSamples) -> ClassificationSummary:
    """Mean softmax, argmax prediction, confidence, predictive entropy.

    Entropy is the entropy of the mean distribution (the passes are averaged
    first), matching how dispersion across passes is read off the averaged
    softmax output. Ties in the argmax resolve to the lowest class index.
    """
    values = samples.values
    row_sums = values.sum(axis=-1)
    if np.max(np.abs(row_sums - 1.0)) > PROB_TOLERANCE:
        raise ValueError("classification samples must be probability rows")
    mean, variance = welford_mean_var(values)
    predicted = np.argmax(mean, axis=-1)
    confidence = np.max(mean, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(mean > 0.0, mean * np.log(mean), 0.0)
    entropy = -plogp.sum(axis=-1)
    return ClassificationSummary(mean_probs=mean, predicted=predicted,
                                 confidence=confidence, entropy=entropy,
                                 class_variance=variance)
