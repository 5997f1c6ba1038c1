"""Monte Carlo inference: T stochastic passes and their summaries.

Each pass gets its own child stream of the caller's generator: pass t runs
on child n0 + t of its seed sequence, where n0 is the number of children
the sequence had spawned before the call. Afterwards the generator has
spawned exactly T more, as if the call had spawned one child per pass; so
a fixed master seed reproduces the sample block bit-for-bit.

The passes are cut into contiguous blocks whose number depends only on the
call's work, T x rows x sum(fan_in x fan_out), measured against
``_PASS_BUDGET``; a call within one budget is one block. The blocks are
tasks for ``workers.run_tasks``, so they run on one process per usable CPU
(the calling process and forked children) and come back in pass order.
``workers`` alone records how many processes ran them.
A process spawns each pass's stream from the generator as the pass starts
(a forked child from its own copy of it), after spawning and dropping the
children of any passes before its block that other processes ran. The
caller then spawns the children its generator still lacks, so that it has
spawned exactly T; a call that runs in one process spawns each child once.
A process holds one pass stream at a time, so the only memory that grows
with T is the (T, N, D) sample block. Because a block may run in a forked
worker, ``transform`` and the network run there too: their side effects
(a counter, a log line, a tracing span) do not reach the caller.

Summaries reduce over the pass axis with a sequential Welford recurrence in
a fixed order, in the calling process; besides numerical robustness this
makes the variance of bit-identical passes exactly zero (a two-pass mean
would leave last-ulp residue).

The weights are frozen for the whole call, so each pass reuses the trace of
the pass before it in the same process: it writes its intermediates into
that trace's arrays, and sigma_l is computed once per process, by its first
pass, not once per pass. Each pass's output is copied into its block, which
never aliases a trace array.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .nn import Network, softmax
from .workers import run_tasks

PROB_TOLERANCE = 1e-6
# a call's passes are cut into blocks of about this many multiply-adds of its
# dense layers, counted as T x rows x sum(fan_in x fan_out): some 3 ms of one
# CPU, so a call within one budget is one block and forks nothing. The blocks
# never change the samples.
_PASS_BUDGET = 1 << 24


@dataclass
class PredictiveSamples:
    """T per-pass outputs, stacked (T, N, D). Classification rows are probabilities."""

    values: np.ndarray = field(repr=False)


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

    Pass t runs on child n0 + t of ``rng``, which has spawned exactly T
    more children afterwards; the passes may run in forked workers, and the
    samples are the same however many ran them (see the module docstring).
    """
    if isinstance(T, bool) or not isinstance(T, (int, np.integer)):
        raise TypeError(f"the pass count must be an integer, got {T!r}")
    if T < 1:
        raise ValueError("need at least one Monte Carlo pass")
    if not isinstance(rng, np.random.Generator):
        raise TypeError(f"rng must be a numpy Generator, got {rng!r}")
    X = np.asarray(X, dtype=np.float64)
    seq = rng.bit_generator.seed_seq
    n0 = seq.n_children_spawned
    trace = None        # one per process that runs passes, reused by its blocks

    def passes(lo: int, hi: int) -> np.ndarray:
        """Passes lo .. hi - 1 as a (hi - lo, N, D) block."""
        nonlocal trace
        for _ in range(n0 + lo - seq.n_children_spawned):   # passes run elsewhere
            seq.spawn(1)
        out = np.empty((hi - lo, X.shape[0], net.fan_out), dtype=np.float64)
        for t in range(hi - lo):
            stream, = rng.spawn(1)
            x = X
            if transform is not None:
                input_rng, stream = stream.spawn(2)
                x = transform(X, input_rng)
            y, trace = net.forward(x, stream, reuse=trace)
            if net.task == "classification":
                softmax(y, out=out[t])
            else:
                out[t] = y
        return out

    work = T * X.shape[0] * sum(l.W.size for l in net.layers if hasattr(l, "W"))
    n_blocks = min(T, max(1, -(-work // _PASS_BUDGET)))
    bounds = [T * i // n_blocks for i in range(n_blocks + 1)]
    blocks = run_tasks([functools.partial(passes, lo, hi)
                        for lo, hi in zip(bounds, bounds[1:])])
    for _ in range(n0 + T - seq.n_children_spawned):   # passes only children ran
        seq.spawn(1)
    values = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
    return PredictiveSamples(values)


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
