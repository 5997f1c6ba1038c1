"""Empirical check of the weight-noise / Gaussian-process correspondence.

Two estimates of the same object are compared on a small probe set:

* the kernel of the limiting GP, K(x, y) = E[ sigma(w.x + b) sigma(w.y + b) ]
  with w standard normal and b ~ N(0, s^2). It is known in closed form for
  ReLU (the arc-cosine kernel of Cho & Saul 2009, on the augmented inputs
  [x, s]) and for the identity (x.y + s^2); for tanh, kernel_mc_matrix
  estimates it by Monte Carlo on every probe pair.
* wide_net_covariance: the empirical output covariance of many single-hidden-
  layer networks sampled from the matching prior (hidden weights N(0,1),
  hidden bias N(0, s^2), output weights N(0, 1/width), no output bias).
  Given a network's hidden layer H (probes x width), its outputs H v are
  exactly N(0, H H^T / width), so they are drawn from that law: P standard
  normals per network in place of width output weights.

Because the output weights are independent of the hidden features, the
network-output covariance equals the kernel in expectation at every
width, not only in the limit. At a fixed number of sampled networks the
convergence table therefore reports sampling deviation; width changes only
the higher moments of the outputs, i.e. how Gaussian they are, and so moves
the spread of that deviation only slightly.

Execution. wide_net_covariance cuts its networks into chunks whose size
depends only on the probe shape, the width and ``_NETWORK_BUDGET``, and
draws each chunk's hidden weights, then its output normals, from its own
sub-stream (``rng.spawn``, one per chunk). A network's hidden weights and
bias are one standard-normal (q + 1, width) block w on the probes augmented
with the bias scale, [x, s], as in analytic_kernel_relu. The chunks are
tasks for ``workers.run_tasks``: they run on one process per usable CPU,
the calling process and forked children, and come back in chunk order.
The covariance is reduced from their rows in a fixed order, so the result
is bit-for-bit the same at any process count. correspondence_report runs
the widths one after another.

A chunk works through its networks a few at a time, in sub-blocks whose
hidden layers take about ``_BLOCK_BUDGET`` doubles: it draws a sub-block's
hidden weights just before it uses them and keeps only each network's
P x P Gram. The two buffers of a sub-block, its weights and its hidden
layers, are allocated once per call, before the workers fork, and are not
written until then, so each worker process fills its own copy and reuses
it for every chunk it runs. So ``_BLOCK_BUDGET`` bounds a worker's draws
as well as its hidden layers: at width 4096 with 3 two-dimensional probes
a sub-block is 2 networks, and each buffer holds 0.2 MB. The tanh kernel
draws in the calling process in chunks of at most ``_CHUNK_BUDGET``
doubles (about 27 MB for 1e6 samples and 3 two-dimensional probes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .nn import apply_activation
from .workers import run_tasks

NONLINEARITIES = ("relu", "tanh", "identity")

# kernel_mc_matrix draws in chunks of at most ~4e6 doubles (~32 MB); the chunk
# sizes fix which samples share an accumulation, so they are part of the result
_CHUNK_BUDGET = 4_000_000
# wide_net_covariance cuts its networks into chunks of ~1e6 doubles, counted
# at (q + p + 2) per network and hidden unit; the chunk sizes fix the
# sub-streams, so they are part of the result. A chunk holds one sub-block of
# networks at a time, so _BLOCK_BUDGET, not this budget, sets the memory
_NETWORK_BUDGET = 1_000_000
# hidden activations of one sub-block of networks: ~256 KB, cache-sized; the
# sub-block's (q + 1)-row weight draws take (q + 1) / p times as much
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


def _augmented(probes: np.ndarray, bias_std: float) -> np.ndarray:
    """The probes with the bias scale as one more input: rows [x, s]."""
    return np.column_stack([probes, np.full(len(probes), float(bias_std))])


def analytic_kernel_relu(probes, bias_std: float) -> np.ndarray:
    """Closed form for ReLU, the arc-cosine kernel (Cho & Saul 2009).

    w.x + b = [w, b/s].[x, s] with [w, b/s] standard normal, so on the
    augmented inputs x~ = [x, s]:
    K(x, y) = |x~| |y~| (sin t + (pi - t) cos t) / (2 pi), t the angle
    between x~ and y~. A zero-norm x~ gives exactly 0.
    """
    probes = np.asarray(probes, dtype=np.float64)
    aug = _augmented(probes, bias_std)
    norms = np.linalg.norm(aug, axis=1)
    scale = np.outer(norms, norms)
    cos = np.divide(aug @ aug.T, scale, out=np.zeros_like(scale),
                    where=scale > 0.0)
    theta = np.arccos(np.clip(cos, -1.0, 1.0, out=cos))
    return scale * (np.sin(theta) + (math.pi - theta) * cos) / (2.0 * math.pi)


def _gram_root(gram: np.ndarray) -> np.ndarray:
    """R with R R^T = gram, for each symmetric positive semi-definite
    (P, P) matrix of a stack, from its eigendecomposition. Eigenvalues
    below 0, which only rounding makes, count as 0, so a singular gram
    (fewer units than probes, a probe where every unit is dead) is exact."""
    lam, vecs = np.linalg.eigh(gram)
    np.maximum(lam, 0.0, out=lam)
    return vecs * np.sqrt(lam, out=lam)[..., None, :]


def _chunk_outputs(X: np.ndarray, width: int, cfg: KernelMCConfig,
                   rng: np.random.Generator, c: int, bufs) -> np.ndarray:
    """The (c, P) outputs of c networks drawn from rng, computed in the
    (w, hidden) buffers ``bufs`` of one sub-block each. X holds the probes
    augmented with the bias scale, [x, s], so a network's hidden layer is
    H = act(X w) with w a standard normal (q + 1, k) block. Given H its
    outputs are exactly N(0, H H^T / k), the law of H v for output weights
    v ~ N(0, 1/k), and are drawn as R z from P standard normals z,
    R R^T = H H^T / k. The sub-blocks draw their w in network order, right
    before their hidden layers, and z follows the last of them, so rng
    yields the same normals in the same order as one draw of every w."""
    w_buf, h_buf = bufs
    (p, q1), k = X.shape, width
    gram = np.empty((c, p, p), dtype=np.float64)
    block = len(h_buf) // (p * k)
    for s in range(0, c, block):
        e = min(c, s + block)
        w = rng.standard_normal(out=_view(w_buf, e - s, q1, k))
        hidden = np.matmul(X, w, out=_view(h_buf, e - s, p, k))
        apply_activation(cfg.nonlinearity, hidden, out=hidden)
        np.einsum("cpk,cqk->cpq", hidden, hidden, out=gram[s:e])
    gram /= k
    z = rng.standard_normal((c, p))
    return np.einsum("cpj,cj->cp", _gram_root(gram), z)


def wide_net_covariance(probe: WideNetProbe, cfg: KernelMCConfig,
                        rng: np.random.Generator) -> np.ndarray:
    """Empirical output covariance across prior-sampled finite networks.

    Output weights are N(0, 1/width) so the hidden sum carries the same
    1/width normalization as the kernel's MC average; the scalar outputs
    across networks then estimate the kernel on the probe set. Each
    network's outputs are drawn from their law given its hidden layer (see
    _chunk_outputs), which is the law of that sum. The networks are drawn
    in chunks, each from its own sub-stream of rng, on all usable CPUs (see
    the module docstring).
    """
    if probe.n_networks < 2:
        raise ValueError("covariance estimation needs at least 2 networks")
    X = probe.inputs()
    if X.shape[1] != cfg.input_dim:
        raise ValueError(f"probe inputs must be (P, {cfg.input_dim})")
    p, q = X.shape
    k = probe.width
    chunk = max(1, _NETWORK_BUDGET // ((q + p + 2) * k))
    block = max(1, min(chunk, probe.n_networks, _BLOCK_BUDGET // (p * k)))
    # untouched until the workers fork, so each writes its own copy
    bufs = (np.empty(block * (q + 1) * k), np.empty(block * p * k))
    aug = _augmented(X, cfg.bias_std)
    sizes = list(_chunks(probe.n_networks, chunk))
    rows = run_tasks([partial(_chunk_outputs, aug, k, cfg, stream, c, bufs)
                      for c, stream in zip(sizes, rng.spawn(len(sizes)))])
    outputs = np.concatenate(rows)
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


@dataclass
class CorrespondenceReport:
    kernel: np.ndarray = field(repr=False)
    covariance: np.ndarray = field(repr=False)
    max_rel_deviation: float = 0.0
    convergence: list[dict] = field(default_factory=list)
    kernel_source: str = "closed_form"     # or "monte_carlo"


def correspondence_report(probe: WideNetProbe, cfg: KernelMCConfig,
                          rng: np.random.Generator,
                          widths=(64, 512, 4096)) -> CorrespondenceReport:
    """Compare wide-net covariance against the kernel across widths.

    The reference kernel is in closed form for ReLU and identity and a
    shared-draw MC estimate for tanh. The headline numbers are taken at
    probe.width; the convergence table covers ``widths`` (plus probe.width
    if absent), each width on its own sub-stream, one width after another.
    Every width estimates the same kernel without bias, so each table entry
    measures the sampling deviation of probe.n_networks networks (plus, for
    tanh, the kernel estimate's own error), not a distance that shrinks with
    width. The result does not depend on the number of worker processes.
    """
    X = probe.inputs()
    source = "closed_form"
    if cfg.nonlinearity == "identity":
        kernel = analytic_kernel_identity(X, cfg.bias_std)
    elif cfg.nonlinearity == "relu":
        kernel = analytic_kernel_relu(X, cfg.bias_std)
    else:   # the kernel's stream is spawned before the widths'
        kernel = kernel_mc_matrix(X, cfg, rng.spawn(1)[0])
        source = "monte_carlo"

    table_widths = sorted(set(int(w) for w in widths) | {probe.width})
    convergence = []
    headline = None
    for width, stream in zip(table_widths, rng.spawn(len(table_widths))):
        cov = wide_net_covariance(replace(probe, width=width), cfg, stream)
        dev = relative_deviation(cov, kernel)
        convergence.append({
            "width": width,
            "n_networks": probe.n_networks,
            "max_rel_deviation": float(dev.max()),
        })
        if width == probe.width:
            headline = (cov, dev)
    cov, dev = headline
    return CorrespondenceReport(kernel=kernel, covariance=cov,
                                max_rel_deviation=float(dev.max()),
                                convergence=convergence, kernel_source=source)
