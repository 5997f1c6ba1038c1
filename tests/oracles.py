"""Brute-force reference implementations used to cross-check the library.

Everything here is written independently of src/mcni: plain Python loops,
math-module scalars, and the most literal transcription of each definition.
Slow on purpose. Nothing in this file may import mcni. The GP-check
references at the end use numpy, because they must consume a numpy
Generator exactly as the library does.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np


def picp_oracle(y, lower, upper):
    inside = 0
    for yi, lo, hi in zip(y, lower, upper):
        if lo <= yi <= hi:
            inside += 1
    return inside / len(y)


def mpiw_oracle(lower, upper):
    total = 0.0
    for lo, hi in zip(lower, upper):
        total += hi - lo
    return total / len(lower)


def rmse_oracle(pred, target):
    total = 0.0
    for p, t in zip(pred, target):
        total += (p - t) ** 2
    return math.sqrt(total / len(pred))


def nll_gaussian_oracle(y, mean, sigma, sigma_floor=1e-6):
    """Per-point -log N(y | mean, sigma^2) with the same floor rule."""
    out = []
    floored = 0
    for yi, mu, s in zip(y, mean, sigma):
        if s < sigma_floor:
            s = sigma_floor
            floored += 1
        out.append(0.5 * math.log(2.0 * math.pi * s * s)
                   + (yi - mu) ** 2 / (2.0 * s * s))
    return out, floored


def msll_oracle(model_nll, baseline_nll):
    return sum(model_nll) - sum(baseline_nll)


def ece_oracle(confidences, correct, n_bins=15):
    """Equal-width bins on (0,1]; c lands in bin ceil(c*B)-1, c=0 in bin 0."""
    n = len(confidences)
    counts = [0] * n_bins
    conf_sum = [0.0] * n_bins
    acc_sum = [0.0] * n_bins
    for c, ok in zip(confidences, correct):
        idx = 0 if c == 0 else math.ceil(c * n_bins) - 1
        if idx >= n_bins:
            idx = n_bins - 1
        counts[idx] += 1
        conf_sum[idx] += c
        acc_sum[idx] += 1.0 if ok else 0.0
    total = 0.0
    for b in range(n_bins):
        if counts[b] == 0:
            continue
        gap = abs(acc_sum[b] / counts[b] - conf_sum[b] / counts[b])
        total += (counts[b] / n) * gap
    return total


def brier_oracle(probs, labels):
    """Mean over samples of the summed squared gap to the one-hot label."""
    n = len(probs)
    total = 0.0
    for row, label in zip(probs, labels):
        for k, p in enumerate(row):
            t = 1.0 if k == label else 0.0
            total += (p - t) ** 2
    return total / n


def risk_coverage_oracle(uncertainty, coverage_grid, risk_kind,
                         pred=None, target=None, correct=None):
    """(coverage, risk) pairs keeping the ceil(x*n) most-confident points.

    Ties in uncertainty keep the earlier index first, mirroring a stable sort.
    """
    n = len(uncertainty)
    order = sorted(range(n), key=lambda i: (uncertainty[i], i))
    out = []
    for x in coverage_grid:
        k = math.ceil(x * n)
        if k < 1:
            continue
        kept = order[:k]
        if risk_kind == "rmse":
            risk = rmse_oracle([pred[i] for i in kept], [target[i] for i in kept])
        elif risk_kind == "error_rate":
            risk = sum(0.0 if correct[i] else 1.0 for i in kept) / k
        elif risk_kind == "accuracy":
            risk = sum(1.0 if correct[i] else 0.0 for i in kept) / k
        else:
            raise ValueError(risk_kind)
        out.append((x, risk))
    return out


def welford_scalar(xs):
    """Textbook single-pass mean/M2 recurrence; exact for constant input."""
    mean = 0.0
    m2 = 0.0
    for i, x in enumerate(xs, start=1):
        delta = x - mean
        mean += delta / i
        m2 += delta * (x - mean)
    var = m2 / (len(xs) - 1) if len(xs) > 1 else float("nan")
    return mean, var


def softmax_oracle(row):
    m = max(row)
    exps = [math.exp(v - m) for v in row]
    z = sum(exps)
    return [e / z for e in exps]


def entropy_oracle(probs):
    total = 0.0
    for p in probs:
        if p > 0.0:
            total -= p * math.log(p)
    return total


def adam_steps_oracle(p0, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Scalar Adam trajectory for one parameter under a gradient sequence."""
    p, m, v = p0, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        mhat = m / (1.0 - beta1 ** t)
        vhat = v / (1.0 - beta2 ** t)
        p -= lr * mhat / (math.sqrt(vhat) + eps)
    return p


def spearman_oracle(xs, ys):
    """Spearman rho via average ranks and a plain Pearson on the ranks."""
    def ranks(vals):
        order = sorted(range(len(vals)), key=lambda i: vals[i])
        r = [0.0] * len(vals)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and vals[order[j + 1]] == vals[order[i]]:
                j += 1
            avg = (i + j) / 2.0 + 1.0
            for k in range(i, j + 1):
                r[order[k]] = avg
            i = j + 1
        return r

    rx, ry = ranks(xs), ranks(ys)
    n = len(xs)
    mx = sum(rx) / n
    my = sum(ry) / n
    num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    dx = math.sqrt(sum((a - mx) ** 2 for a in rx))
    dy = math.sqrt(sum((b - my) ** 2 for b in ry))
    if dx == 0.0 or dy == 0.0:
        return 0.0
    return num / (dx * dy)


def fd_gradient(f, x, h=1e-5):
    """Central finite differences of a scalar function of a flat list."""
    out = []
    for i in range(len(x)):
        hi = list(x)
        lo = list(x)
        hi[i] += h
        lo[i] -= h
        out.append((f(hi) - f(lo)) / (2.0 * h))
    return out


def grid_assignments(grid):
    """Every assignment of a {axis: values} grid, the last axis fastest."""
    out = [{}]
    for key, values in grid.items():
        out = [dict(a, **{key: v}) for a in out for v in values]
    return out


def benchmark_oracle(family_grids, seed, make_rng, evaluate_one):
    """The benchmark's grid search, one config at a time.

    ``family_grids`` maps each family to its grid. Every assignment of a
    family's grid gets the generator make_rng([seed, index]) and is scored
    alone by evaluate_one(family, assignment, rng), which returns a dict
    with at least 'val_loss'. Returns the rows (family, index, assignment,
    result) in order, and per family the row with the smallest finite
    val_loss, ties going to the smaller lr and then the earlier index.
    """
    rows, best = [], {}
    for family, grid in family_grids.items():
        family_rows = []
        for idx, assignment in enumerate(grid_assignments(grid)):
            result = evaluate_one(family, dict(assignment),
                                  make_rng([seed, idx]))
            family_rows.append((family, idx, assignment, result))
        winner = None
        for row in family_rows:
            v = row[3]["val_loss"]
            if not math.isfinite(v):
                continue
            if winner is None:
                winner = row
                continue
            w = winner[3]["val_loss"]
            if v < w or (v == w and row[2]["lr"] < winner[2]["lr"]):
                winner = row
        if winner is None:     # no finite loss: smallest lr, then first
            winner = min(family_rows, key=lambda r: (r[2]["lr"], r[1]))
        rows.extend(family_rows)
        best[family] = winner
    return rows, best


# ---------------------------------------------------------------------------
# GP check: the sequential, allocate-per-chunk estimates, kept as references
# for the buffered and concurrent library code. ``cfg`` and ``probe`` are
# read by attribute (n_samples, nonlinearity, bias_std, input_dim; width,
# n_networks, probe_inputs).

GP_CHUNK_BUDGET = 4_000_000


def _gp_activation(name, z):
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "tanh":
        return np.tanh(z)
    return z


def _gp_chunks(total, size):
    done = 0
    while done < total:
        step = min(size, total - done)
        yield step
        done += step


def kernel_mc_matrix_oracle(probes, cfg, rng):
    probes = np.asarray(probes, dtype=np.float64)
    p = probes.shape[0]
    chunk = max(1, GP_CHUNK_BUDGET // (cfg.input_dim + p + 2))
    acc = np.zeros((p, p), dtype=np.float64)
    for c in _gp_chunks(cfg.n_samples, chunk):
        w = rng.standard_normal((c, cfg.input_dim))
        b = cfg.bias_std * rng.standard_normal(c)
        feats = _gp_activation(cfg.nonlinearity, probes @ w.T + b)
        for i in range(p):
            for j in range(i, p):
                acc[i, j] += float(feats[i] @ feats[j])
    for i in range(p):
        for j in range(i + 1, p):
            acc[j, i] = acc[i, j]
    return acc / cfg.n_samples


def wide_net_covariance_oracle(probe, cfg, rng):
    X = np.asarray(probe.probe_inputs, dtype=np.float64)
    p, q = X.shape
    k = probe.width
    chunk = max(1, GP_CHUNK_BUDGET // (q * k + p * k + 2 * k))
    outputs = np.empty((probe.n_networks, p), dtype=np.float64)
    done = 0
    for c in _gp_chunks(probe.n_networks, chunk):
        w1 = rng.standard_normal((c, q, k))
        b1 = cfg.bias_std * rng.standard_normal((c, 1, k))
        hidden = _gp_activation(cfg.nonlinearity,
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


def correspondence_oracle(probe, cfg, rng, widths):
    """(kernel, headline covariance, convergence rows), one estimate at a time.

    The kernel's stream is spawned first, then one stream per table width
    in ascending width order.
    """
    X = np.asarray(probe.probe_inputs, dtype=np.float64)
    if cfg.nonlinearity == "identity":
        kernel = X @ X.T + cfg.bias_std ** 2
    else:
        kernel = kernel_mc_matrix_oracle(X, cfg, rng.spawn(1)[0])
    table_widths = sorted(set(int(w) for w in widths) | {probe.width})
    rows, headline = [], None
    for width, stream in zip(table_widths, rng.spawn(len(table_widths))):
        at_width = SimpleNamespace(width=width, n_networks=probe.n_networks,
                                   probe_inputs=probe.probe_inputs)
        cov = wide_net_covariance_oracle(at_width, cfg, stream)
        dev = np.abs(cov - kernel) / (np.abs(kernel) + 1e-9)
        rows.append({"width": width, "n_networks": probe.n_networks,
                     "max_rel_deviation": float(dev.max())})
        if width == probe.width:
            headline = cov
    return kernel, headline, rows
