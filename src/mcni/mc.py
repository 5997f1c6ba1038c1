"""Monte Carlo inference: T stochastic passes and their summaries.

Each pass gets its own child stream spawned from the caller's generator
(pass t gets child t), so a fixed master seed reproduces the sample block
bit-for-bit and the passes could in principle run concurrently. Pass t
spawns child t as it starts, so the call holds one pass stream at a time
and the only memory that grows with T is the (T, N, D) sample block.

Summaries reduce over the pass axis with a sequential Welford recurrence in
a fixed order; besides numerical robustness this makes the variance of
bit-identical passes exactly zero (a two-pass mean would leave last-ulp
residue).

The weights are frozen for the whole call, so each pass reuses the trace of
the pass before: it writes its intermediates into that trace's arrays, and
sigma_l is computed once per call, by the first pass, not once per pass.
Each pass's output is copied into the sample block, which never aliases a
trace array.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .nn import Network, softmax

PROB_TOLERANCE = 1e-6


@dataclass
class PredictiveSamples:
    """T per-pass outputs, stacked (T, N, D). Classification rows are probabilities."""

    values: np.ndarray = field(repr=False)
    task: str


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


def mc_predict(net: Network, X, T: int, rng: np.random.Generator, *,
               transform=None) -> PredictiveSamples:
    """Run T independent noisy passes, with every stochastic layer live.

    A classification net's logits become probability rows by softmax.
    ``transform(X, rng)`` optionally gives each pass its own input. A pass
    with a transform splits its stream in two, the first for the transform
    and the second for the network.

    Pass t runs on child t of ``rng``, which has spawned exactly T children
    afterwards; the call holds one pass stream at a time.
    """
    if isinstance(T, bool) or not isinstance(T, (int, np.integer)):
        raise TypeError(f"the pass count must be an integer, got {T!r}")
    if T < 1:
        raise ValueError("need at least one Monte Carlo pass")
    if not isinstance(rng, np.random.Generator):
        raise TypeError(f"rng must be a numpy Generator, got {rng!r}")
    X = np.asarray(X, dtype=np.float64)
    needs_softmax = net.task == "classification"
    outs = np.empty((T,) + (X.shape[0], net.fan_out), dtype=np.float64)
    trace = None
    for t in range(T):
        stream, = rng.spawn(1)
        x = X
        if transform is not None:
            input_rng, stream = stream.spawn(2)
            x = transform(X, input_rng)
        out, trace = net.forward(x, stream, reuse=trace)
        if needs_softmax:
            softmax(out, out=outs[t])
        else:
            outs[t] = out
    return PredictiveSamples(values=outs, task=net.task)


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
    if not (np.abs(row_sums - 1.0) <= PROB_TOLERANCE).all():
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
