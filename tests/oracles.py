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


def _pop_std(values):
    m = sum(values) / len(values)
    return math.sqrt(sum((v - m) ** 2 for v in values) / len(values))


def relu_net_predictive_oracle(x, W1, b1, alpha1, W2, b2, alpha2):
    """Closed-form predictive mean and variance of one output of a noisy
    one-hidden-layer ReLU net with a linear output, at one input row x.

    Each layer multiplies by W + alpha * sigma * eps, sigma the population
    std of W's entries and eps one standard normal per weight, shared by
    every row; biases carry no noise. Hidden unit j's pre-activation is then
    N(mu_j, s^2) with mu = x W1 + b1 and s = |alpha1| sigma1 |x|, and the
    units are independent, because their eps columns are. The moments of a
    rectified Gaussian (Frey & Hinton 1999), with a = mu / s,
        E h   = mu Phi(a) + s phi(a)
        E h^2 = (mu^2 + s^2) Phi(a) + mu s phi(a),
    and output noise independent of h give
        E f   = sum_j E h_j W2_j + b2
        Var f = sum_j W2_j^2 Var h_j + alpha2^2 sigma2^2 sum_j E h_j^2.
    W1 is fan_in rows of hidden values, b1 and W2 (one output column) hold
    one value per hidden unit, b2 is a scalar. Returns (mean, variance).
    """
    sigma1 = _pop_std([w for row in W1 for w in row])
    sigma2 = _pop_std(list(W2))
    s = abs(alpha1) * sigma1 * math.sqrt(sum(xi * xi for xi in x))
    mean, var, second_total = b2, 0.0, 0.0
    for j in range(len(b1)):
        mu = sum(x[i] * W1[i][j] for i in range(len(x))) + b1[j]
        if s == 0.0:
            eh = max(mu, 0.0)
            eh2 = eh * eh
        else:
            a = mu / s
            cdf = 0.5 * (1.0 + math.erf(a / math.sqrt(2.0)))
            pdf = math.exp(-0.5 * a * a) / math.sqrt(2.0 * math.pi)
            eh = mu * cdf + s * pdf
            eh2 = (mu * mu + s * s) * cdf + mu * s * pdf
        mean += eh * W2[j]
        var += W2[j] ** 2 * (eh2 - eh * eh)
        second_total += eh2
    return mean, var + (alpha2 * sigma2) ** 2 * second_total


def _rectified_mean(mu, s):
    """E relu(u) for u ~ N(mu, s^2)."""
    if s == 0.0:
        return max(mu, 0.0)
    a = mu / s
    return (mu * 0.5 * (1.0 + math.erf(a / math.sqrt(2.0)))
            + s * math.exp(-0.5 * a * a) / math.sqrt(2.0 * math.pi))


def _relu_product_mean(mu_x, s_x, mu_y, s_y, c, nodes):
    """E[relu(u) relu(v)] for (u, v) jointly Gaussian with means mu_x, mu_y,
    standard deviations s_x, s_y and covariance c, as one 1-D integral.

    With u = mu_x + s_x t, t standard normal, v given t is N(m, r^2),
    m = mu_y + s_y rho t and r = s_y sqrt(1 - rho^2), so
        E[relu(u) relu(v)] = int_{t > -mu_x/s_x} u E[relu(v) | t] phi(t) dt.
    The integrand is smooth on either side of m = 0 (a kink when rho = +-1),
    so the interval, cut to |t| <= 10, is split there and each piece takes a
    Gauss-Legendre rule of ``nodes`` points.
    """
    if s_x == 0.0:
        return max(mu_x, 0.0) * _rectified_mean(mu_y, s_y)
    rho = 0.0 if s_y == 0.0 else max(-1.0, min(1.0, c / (s_x * s_y)))
    r = s_y * math.sqrt(1.0 - rho * rho)
    lo = max(-mu_x / s_x, -10.0)
    hi = max(lo, 10.0)
    cuts = [lo, hi]
    if s_y * rho != 0.0 and lo < -mu_y / (s_y * rho) < hi:
        cuts.insert(1, -mu_y / (s_y * rho))
    t_nodes, weights = np.polynomial.legendre.leggauss(nodes)
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        for tn, wn in zip(t_nodes, weights):
            t = 0.5 * (b - a) * tn + 0.5 * (b + a)
            u = mu_x + s_x * t
            given = _rectified_mean(mu_y + s_y * rho * t, r)
            density = math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
            total += 0.5 * (b - a) * wn * u * given * density
    return total


def relu_net_predictive_covariance_oracle(xs, W1, b1, alpha1, W2, b2, alpha2,
                                          nodes=64):
    """Predictive covariance of one output across the input rows xs, for the
    noisy one-hidden-layer ReLU net of relu_net_predictive_oracle.

    One eps is shared by every row of a pass, so hidden unit j's
    pre-activations at rows x and y are jointly Gaussian: means mu_j(x) and
    mu_j(y), standard deviations |alpha1| sigma1 |x| and |alpha1| sigma1 |y|,
    and covariance (alpha1 sigma1)^2 x.y. The units are independent, because
    their eps columns are, and the output noise is independent of h, so
        Cov(f(x), f(y)) = sum_j W2_j^2 Cov(h_j(x), h_j(y))
                          + alpha2^2 sigma2^2 sum_j E[h_j(x) h_j(y)],
    with E h from the rectified-Gaussian mean and E[h_j(x) h_j(y)] from one
    1-D Gauss-Legendre integral (_relu_product_mean). Returns the
    len(xs) x len(xs) covariance as nested lists.
    """
    scale1 = abs(alpha1) * _pop_std([w for row in W1 for w in row])
    scale2 = abs(alpha2) * _pop_std(list(W2))
    n, units = len(xs), len(b1)
    mus = [[sum(x[i] * W1[i][j] for i in range(len(x))) + b1[j]
            for j in range(units)] for x in xs]
    stds = [scale1 * math.sqrt(sum(v * v for v in x)) for x in xs]
    cov = [[0.0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            c = scale1 * scale1 * sum(u * v for u, v in zip(xs[a], xs[b]))
            total = 0.0
            for j in range(units):
                second = _relu_product_mean(mus[a][j], stds[a], mus[b][j],
                                            stds[b], c, nodes)
                means = (_rectified_mean(mus[a][j], stds[a])
                         * _rectified_mean(mus[b][j], stds[b]))
                total += W2[j] ** 2 * (second - means) + scale2 ** 2 * second
            cov[a][b] = cov[b][a] = total
    return cov


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
# GP check: sequential, allocate-per-chunk estimates, kept as references for
# the buffered and concurrent library code. ``cfg`` and ``probe`` are read by
# attribute (n_samples, nonlinearity, bias_std, input_dim; width, n_networks,
# probe_inputs).

GP_CHUNK_BUDGET = 4_000_000      # doubles per kernel chunk
GP_NETWORK_BUDGET = 1_000_000    # doubles per covariance chunk


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


def arccos_kernel_oracle(probes, bias_std):
    """Degree-1 arc-cosine kernel on [x, s] (Cho & Saul 2009), 0 at a zero norm."""
    probes = np.asarray(probes, dtype=np.float64)
    aug = np.column_stack([probes, np.full(len(probes), float(bias_std))])
    norms = np.linalg.norm(aug, axis=1)
    outer = np.outer(norms, norms)
    K = np.zeros_like(outer)
    nz = outer > 0.0
    cos = np.clip((aug @ aug.T)[nz] / outer[nz], -1.0, 1.0)
    theta = np.arccos(cos)
    K[nz] = outer[nz] * (np.sin(theta) + (math.pi - theta) * cos) / (2.0 * math.pi)
    return K


def wide_net_covariance_oracle(probe, cfg, rng):
    """One network chunk at a time, each drawn from its own spawned stream.

    A chunk draws every network's standard-normal hidden weights w, one
    (q + 1, k) block on the augmented probes [x, s], then P standard normals
    z per network. The hidden layer is H = act([X, s] w), and the outputs
    are R z, where R = U diag(sqrt(max(lam, 0))) from the eigenvalues lam
    and eigenvectors U of H H^T / k, so R R^T = H H^T / k.
    """
    X = np.asarray(probe.probe_inputs, dtype=np.float64)
    p, q = X.shape
    k = probe.width
    aug = np.column_stack([X, np.full(p, float(cfg.bias_std))])
    chunk = max(1, GP_NETWORK_BUDGET // ((q + p + 2) * k))
    sizes = list(_gp_chunks(probe.n_networks, chunk))
    outputs = np.empty((probe.n_networks, p), dtype=np.float64)
    done = 0
    for c, stream in zip(sizes, rng.spawn(len(sizes))):
        w = stream.standard_normal((c, q + 1, k))
        z = stream.standard_normal((c, p))
        hidden = _gp_activation(cfg.nonlinearity, aug @ w)
        gram = np.einsum("cpk,cqk->cpq", hidden, hidden) / k
        for n in range(c):
            lam, vecs = np.linalg.eigh(gram[n])
            root = vecs * np.sqrt(np.maximum(lam, 0.0))
            outputs[done + n] = np.einsum("pj,j->p", root, z[n])
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

    The kernel is in closed form for relu and identity. For tanh it is
    estimated from a stream spawned first; then one stream per table width
    is spawned, in ascending width order.
    """
    X = np.asarray(probe.probe_inputs, dtype=np.float64)
    if cfg.nonlinearity == "identity":
        kernel = X @ X.T + cfg.bias_std ** 2
    elif cfg.nonlinearity == "relu":
        kernel = arccos_kernel_oracle(probe.probe_inputs, cfg.bias_std)
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
