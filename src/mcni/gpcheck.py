"""Empirical check of the weight-noise / Gaussian-process correspondence.

Two estimates of the same object are compared on a small probe set:

* kernel_mc_matrix: Monte Carlo evaluation, on every probe pair, of
  K(x, y) = E[ sigma(w.x + b) sigma(w.y + b) ] with w standard normal and
  b ~ N(0, s^2), the kernel of the limiting GP.
* wide_net_covariance: the empirical output covariance of many single-hidden-
  layer networks sampled from the matching prior (hidden weights N(0,1),
  hidden bias N(0, s^2), output weights N(0, 1/width), no output bias).

Because the output weights are drawn independently of the hidden features,
the network-output covariance equals the kernel in expectation at every
width, not only in the limit. At a fixed number of sampled networks the
convergence table therefore reports sampling deviation; width changes only
the higher moments of the outputs, i.e. how Gaussian they are, and so moves
the spread of that deviation only slightly. For the identity nonlinearity
the kernel is known in closed form (x.y + s^2), which gives an exact
reference.

Execution. correspondence_report's estimates are independent: the MC kernel
and one covariance per table width, each drawing from its own spawned
sub-stream. They run on a small thread pool, one thread per usable CPU
(``os.sched_getaffinity``) and no more than there are estimates, largest
draw first; numpy releases the GIL while it draws and computes, so the
estimates overlap. Every estimate consumes its stream in a fixed order and
reduces in a fixed order, so the report is bit-for-bit the same at any
thread count.

Each estimate draws in chunks of at most ``_CHUNK_BUDGET`` doubles into
buffers allocated once per call, in the same order and at the same chunk
sizes as allocating fresh arrays per chunk would. wide_net_covariance then
computes its hidden layer and outputs a few networks at a time, in a block
of about ``_BLOCK_BUDGET`` doubles. So one worker holds at most about 32 MB
of arrays: with 3 two-dimensional probes, the kernel of 1e6 samples peaks
at 27 MB and a width-4096 covariance at 18 MB, and a whole report on two
workers at 44 MB (tracemalloc), against 57 MB when run one estimate at a
time on fresh arrays.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .nn import apply_activation

NONLINEARITIES = ("relu", "tanh", "identity")

# chunk draws so no chunk's arrays exceed ~4e6 doubles (~32 MB); the chunk
# sizes fix which samples share an accumulation, so they are part of the result
_CHUNK_BUDGET = 4_000_000
# hidden activations of one sub-block of networks: ~256 KB, cache-sized
_BLOCK_BUDGET = 32_768


@dataclass(frozen=True)
class KernelMCConfig:
    n_samples: int = 1_000_000
    nonlinearity: str = "relu"
    bias_std: float = 1.0           # s in b ~ N(0, s^2)
    input_dim: int = 2

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be at least 1")
        if self.nonlinearity not in NONLINEARITIES:
            raise ValueError(f"nonlinearity must be one of {NONLINEARITIES}")
        if not (math.isfinite(self.bias_std) and self.bias_std >= 0.0):
            raise ValueError("bias_std must be finite and non-negative")
        if self.input_dim < 1:
            raise ValueError("input_dim must be at least 1")


@dataclass(frozen=True)
class WideNetProbe:
    width: int
    n_networks: int
    probe_inputs: tuple

    def __post_init__(self):
        if self.width < 1:
            raise ValueError("width must be at least 1")
        if self.n_networks < 1:
            raise ValueError("n_networks must be at least 1")
        if len(self.probe_inputs) < 2:
            raise ValueError("need at least 2 probe inputs")
        if not all(math.isfinite(v) for x in self.probe_inputs for v in x):
            raise ValueError("probe inputs must be finite")

    def inputs(self) -> np.ndarray:
        return np.asarray(self.probe_inputs, dtype=np.float64)


def _chunks(total: int, size: int):
    done = 0
    while done < total:
        step = min(size, total - done)
        yield step
        done += step


def _view(buf: np.ndarray, *shape: int) -> np.ndarray:
    """The leading part of a flat buffer as a C-contiguous array of shape."""
    return buf[:math.prod(shape)].reshape(shape)


def kernel_mc_matrix(probes, cfg: KernelMCConfig,
                     rng: np.random.Generator) -> np.ndarray:
    """Kernel estimate on all probe pairs with one shared draw set.

    Each unordered pair is accumulated once and mirrored, so the result is
    symmetric bit-for-bit by construction.
    """
    probes = np.asarray(probes, dtype=np.float64)
    if probes.ndim != 2 or probes.shape[1] != cfg.input_dim:
        raise ValueError(f"probes must be (P, {cfg.input_dim})")
    if not np.isfinite(probes).all():
        raise ValueError("probes must be finite")
    p, d = probes.shape
    chunk = max(1, _CHUNK_BUDGET // (d + p + 2))
    size = min(chunk, cfg.n_samples)
    w_buf, b_buf, f_buf = np.empty(size * d), np.empty(size), np.empty(p * size)
    acc = np.zeros((p, p), dtype=np.float64)
    for c in _chunks(cfg.n_samples, chunk):
        w = rng.standard_normal(out=_view(w_buf, c, d))
        feats = np.matmul(probes, w.T, out=_view(f_buf, p, c))
        b = rng.standard_normal(out=b_buf[:c])
        b *= cfg.bias_std
        feats += b
        apply_activation(cfg.nonlinearity, feats, out=feats)
        for i in range(p):
            for j in range(i, p):
                acc[i, j] += float(feats[i] @ feats[j])
    for i in range(p):
        for j in range(i + 1, p):
            acc[j, i] = acc[i, j]
    return acc / cfg.n_samples


def analytic_kernel_identity(probes, bias_std: float) -> np.ndarray:
    """Closed form for the identity nonlinearity: K(x, y) = x.y + s^2."""
    probes = np.asarray(probes, dtype=np.float64)
    return probes @ probes.T + bias_std ** 2


def wide_net_covariance(probe: WideNetProbe, cfg: KernelMCConfig,
                        rng: np.random.Generator) -> np.ndarray:
    """Empirical output covariance across prior-sampled finite networks.

    Output weights are N(0, 1/width) so the hidden sum carries the same
    1/width normalization as the kernel's MC average; the scalar outputs
    across networks then estimate the kernel on the probe set.
    """
    if probe.n_networks < 2:
        raise ValueError("covariance estimation needs at least 2 networks")
    X = probe.inputs()
    if X.shape[1] != cfg.input_dim:
        raise ValueError(f"probe inputs must be (P, {cfg.input_dim})")
    p, q = X.shape
    k = probe.width
    chunk = max(1, _CHUNK_BUDGET // (q * k + p * k + 2 * k))
    size = min(chunk, probe.n_networks)
    block = max(1, min(size, _BLOCK_BUDGET // (p * k)))
    w1_buf = np.empty(size * q * k)
    b1_buf, v_buf = np.empty(size * k), np.empty(size * k)
    h_buf = np.empty(block * p * k)
    outputs = np.empty((probe.n_networks, p), dtype=np.float64)
    done = 0
    for c in _chunks(probe.n_networks, chunk):
        w1 = rng.standard_normal(out=_view(w1_buf, c, q, k))
        b1 = rng.standard_normal(out=_view(b1_buf, c, 1, k))
        b1 *= cfg.bias_std
        v = rng.standard_normal(out=_view(v_buf, c, k))
        v /= np.sqrt(k)
        for s in range(0, c, block):
            e = min(c, s + block)
            hidden = np.einsum("pq,cqk->cpk", X, w1[s:e],
                               out=_view(h_buf, e - s, p, k))
            hidden += b1[s:e]
            apply_activation(cfg.nonlinearity, hidden, out=hidden)
            np.einsum("cpk,ck->cp", hidden, v[s:e],
                      out=outputs[done + s:done + e])
        done += c
    centered = outputs - outputs.mean(axis=0)
    cov = np.empty((p, p), dtype=np.float64)
    for i in range(p):
        for j in range(i, p):
            cij = float(centered[:, i] @ centered[:, j]) / (probe.n_networks - 1)
            cov[i, j] = cij
            cov[j, i] = cij
    return cov


def relative_deviation(covariance: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """|C - K| / (|K| + 1e-9), element-wise."""
    return np.abs(covariance - kernel) / (np.abs(kernel) + 1e-9)


def _run_concurrently(tasks: list[tuple]) -> list:
    """Call the function of each (size, function) task; results in list order.

    Tasks start largest size first on min(usable CPUs, len(tasks)) threads,
    the calling thread being one of them: on the gp_check benchmark a
    ThreadPoolExecutor, which runs every task off the calling thread, peaked
    3-8 MB higher. The first exception a task raises is re-raised once every
    thread has stopped; tasks not yet started then never start.
    """
    pending = iter(sorted(range(len(tasks)), key=lambda i: -tasks[i][0]))
    results, errors = [None] * len(tasks), []
    lock = threading.Lock()

    def work():
        while not errors:
            with lock:
                i = next(pending, None)
            if i is None:
                return
            try:
                results[i] = tasks[i][1]()
            except BaseException as exc:  # re-raised in the calling thread
                errors.append(exc)

    n_threads = min(len(os.sched_getaffinity(0)), len(tasks))
    helpers = [threading.Thread(target=work, daemon=True)
               for _ in range(n_threads - 1)]
    for t in helpers:
        t.start()
    work()
    for t in helpers:
        t.join()
    if errors:
        raise errors[0]
    return results


@dataclass
class CorrespondenceReport:
    kernel: np.ndarray = field(repr=False)
    covariance: np.ndarray = field(repr=False)
    deviation: np.ndarray = field(repr=False)
    max_rel_deviation: float = 0.0
    convergence: list[dict] = field(default_factory=list)


def correspondence_report(probe: WideNetProbe, cfg: KernelMCConfig,
                          rng: np.random.Generator,
                          widths=(64, 512, 4096)) -> CorrespondenceReport:
    """Compare wide-net covariance against the kernel across widths.

    The reference kernel is analytic for the identity nonlinearity and a
    shared-draw MC estimate otherwise. The headline numbers are taken at
    probe.width; the convergence table covers ``widths`` (plus probe.width
    if absent), each width on its own sub-stream. Every width estimates the
    same kernel without bias, so each table entry measures the sampling
    deviation of probe.n_networks networks (plus the kernel estimate's own
    error), not a distance that shrinks with width. The estimates run
    concurrently (see the module docstring); the result does not depend on
    the number of threads.
    """
    X = probe.inputs()
    q = X.shape[1]
    # (numbers drawn, task); the kernel's stream is spawned before the widths'
    tasks = []
    if cfg.nonlinearity == "identity":
        kernel = analytic_kernel_identity(X, cfg.bias_std)
    else:
        tasks.append((cfg.n_samples * (cfg.input_dim + 1),
                      partial(kernel_mc_matrix, X, cfg, rng.spawn(1)[0])))

    table_widths = sorted(set(int(w) for w in widths) | {probe.width})
    for width, stream in zip(table_widths, rng.spawn(len(table_widths))):
        tasks.append((probe.n_networks * (q + 2) * width,
                      partial(wide_net_covariance, replace(probe, width=width),
                              cfg, stream)))
    covs = _run_concurrently(tasks)
    if cfg.nonlinearity != "identity":
        kernel = covs.pop(0)

    convergence = []
    headline = None
    for width, cov in zip(table_widths, covs):
        dev = relative_deviation(cov, kernel)
        convergence.append({
            "width": width,
            "n_networks": probe.n_networks,
            "max_rel_deviation": float(dev.max()),
        })
        if width == probe.width:
            headline = (cov, dev)
    cov, dev = headline
    return CorrespondenceReport(kernel=kernel, covariance=cov, deviation=dev,
                                max_rel_deviation=float(dev.max()),
                                convergence=convergence)
