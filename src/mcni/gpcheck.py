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
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .nn import apply_activation

NONLINEARITIES = ("relu", "tanh", "identity")

# chunk draws so no intermediate exceeds ~4e6 doubles (~32 MB)
_CHUNK_BUDGET = 4_000_000


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
        if self.bias_std < 0.0:
            raise ValueError("bias_std must be non-negative")
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

    def inputs(self) -> np.ndarray:
        return np.asarray(self.probe_inputs, dtype=np.float64)


def _chunks(total: int, size: int):
    done = 0
    while done < total:
        step = min(size, total - done)
        yield step
        done += step


def kernel_mc_matrix(probes, cfg: KernelMCConfig,
                     rng: np.random.Generator) -> np.ndarray:
    """Kernel estimate on all probe pairs with one shared draw set.

    Each unordered pair is accumulated once and mirrored, so the result is
    symmetric bit-for-bit by construction.
    """
    probes = np.asarray(probes, dtype=np.float64)
    if probes.ndim != 2 or probes.shape[1] != cfg.input_dim:
        raise ValueError(f"probes must be (P, {cfg.input_dim})")
    p = probes.shape[0]
    chunk = max(1, _CHUNK_BUDGET // (cfg.input_dim + p + 2))
    acc = np.zeros((p, p), dtype=np.float64)
    for c in _chunks(cfg.n_samples, chunk):
        w = rng.standard_normal((c, cfg.input_dim))
        b = cfg.bias_std * rng.standard_normal(c)
        feats = apply_activation(cfg.nonlinearity, probes @ w.T + b)  # (P, c)
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
    outputs = np.empty((probe.n_networks, p), dtype=np.float64)
    done = 0
    for c in _chunks(probe.n_networks, chunk):
        w1 = rng.standard_normal((c, q, k))
        b1 = cfg.bias_std * rng.standard_normal((c, 1, k))
        hidden = apply_activation(cfg.nonlinearity,
                                  np.einsum("pq,cqk->cpk", X, w1) + b1)
        v = rng.standard_normal((c, k)) / np.sqrt(k)
        outputs[done:done + c] = np.einsum("cpk,ck->cp", hidden, v)
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
    error), not a distance that shrinks with width.
    """
    X = probe.inputs()
    if cfg.nonlinearity == "identity":
        kernel = analytic_kernel_identity(X, cfg.bias_std)
    else:
        kernel = kernel_mc_matrix(X, cfg, rng.spawn(1)[0])

    table_widths = sorted(set(int(w) for w in widths) | {probe.width})
    streams = rng.spawn(len(table_widths))
    convergence = []
    headline = None
    for width, stream in zip(table_widths, streams):
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
    return CorrespondenceReport(kernel=kernel, covariance=cov, deviation=dev,
                                max_rel_deviation=float(dev.max()),
                                convergence=convergence)
