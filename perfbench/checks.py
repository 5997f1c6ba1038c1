"""Output checks for the benchmark, written apart from the program.

Nothing here imports mcni. Each check takes what a call returned plus an
independent reference (a closed form, a least-squares fit, plain numpy
arithmetic) and returns a list of problems; an empty list means the call
passed. No check compares against a stored copy of earlier output.
"""

from __future__ import annotations

import math

import numpy as np

EPS = np.finfo(np.float64).eps

# Sampling checks fail only past Z standard errors. At Z = 6 a correct
# program fails one entry in about 5e8, so a whole benchmark campaign
# (a few thousand calls, a few dozen entries each) never sees a false alarm.
Z = 6.0

# Finite-width allowance on the covariance standard error: the fourth-moment
# term raises it by about 6 % at width 64 (the narrowest width checked).
FOURTH_MOMENT = 1.1

# A fitted family's standardized test RMSE may exceed the least-squares
# floor by at most this much. Predicting the mean gives about 1.0; a margin
# of 0.15 still means at least 97.7 % of the target variance is explained.
RMSE_MARGIN = 0.15


# ---------------------------------------------------------------------------
# fit_grid


def least_squares_floor(table: np.ndarray) -> float:
    """Standardized RMSE of the best affine fit of the last column."""
    X = np.column_stack([table[:, :-1], np.ones(len(table))])
    y = table[:, -1]
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ coef
    return float(np.sqrt(np.mean(resid ** 2)) / np.std(y))


def check_fit_grid(rows: list[dict], families: dict, floor: float,
                   n_configs: int) -> list[str]:
    """Leaderboard rows and per-family best entries of one benchmark run."""
    problems = []
    if len(rows) != n_configs:
        problems.append(f"leaderboard has {len(rows)} rows, grid has {n_configs}")
    for i, row in enumerate(rows):
        picp = float(row["test_picp"])
        mpiw = float(row["test_mpiw"])
        if not 0.0 <= picp <= 1.0:
            problems.append(f"row {i}: test_picp {picp} outside [0, 1]")
        if row["family"] == "deterministic":
            if mpiw != 0.0:
                problems.append(f"row {i}: deterministic test_mpiw {mpiw} != 0")
        elif not mpiw > 0.0:
            problems.append(f"row {i}: {row['family']} test_mpiw {mpiw} not > 0")
    expected = {row["family"] for row in rows}
    if set(families) != expected:
        problems.append(f"families {sorted(families)} != leaderboard {sorted(expected)}")
    for family, best in families.items():
        r = best.get("test_rmse")
        # below half the noise floor means the test set leaked into training
        if not (isinstance(r, float) and math.isfinite(r)
                and 0.5 * floor <= r <= floor + RMSE_MARGIN):
            problems.append(f"{family}: best test_rmse {r!r} outside "
                            f"[{0.5 * floor:.4f}, {floor + RMSE_MARGIN:.4f}]")
    return problems


def check_digest(first: str, repeat: str) -> list[str]:
    if first != repeat:
        return [f"repeating the first call's seed gave digest {repeat[:12]}, "
                f"first call gave {first[:12]}"]
    return []


# ---------------------------------------------------------------------------
# mc_predict


def check_summary(values: np.ndarray, mean: np.ndarray,
                  variance: np.ndarray) -> list[str]:
    """Summary mean and variance equal numpy's two-pass ones to rounding.

    Welford and two-pass reductions over T passes differ by a few ulps per
    step, so the tolerance is 8 T eps times the scale of the values.
    """
    values = np.asarray(values)
    T = values.shape[0]
    if mean.shape != values.shape[1:] or variance.shape != values.shape[1:]:
        return [f"summary shapes {mean.shape}, {variance.shape} do not match "
                f"samples {values.shape}"]
    scale = float(np.max(np.abs(values)))
    tol = 8.0 * T * EPS
    problems = []
    dm = float(np.max(np.abs(mean - np.mean(values, axis=0))))
    if not dm <= tol * scale:
        problems.append(f"mean differs from np.mean by {dm:.3g} "
                        f"(tolerance {tol * scale:.3g})")
    dv = float(np.max(np.abs(variance - np.var(values, axis=0, ddof=1))))
    if not dv <= tol * scale * scale:
        problems.append(f"variance differs from np.var(ddof=1) by {dv:.3g} "
                        f"(tolerance {tol * scale * scale:.3g})")
    return problems


def relu_forward(layers, X: np.ndarray) -> np.ndarray:
    """Plain numpy pass through (W, b) pairs: relu on hidden, linear output."""
    h = X
    for k, (W, b) in enumerate(layers):
        h = h @ W + b
        if k < len(layers) - 1:
            h = np.maximum(h, 0.0)
    return h


def check_zero_noise(mean: np.ndarray, variance: np.ndarray,
                     reference: np.ndarray) -> list[str]:
    """An alpha = 0 net: every pass identical, mean equals the plain pass."""
    problems = []
    if np.any(variance != 0.0):
        problems.append(f"alpha = 0 variance not exactly zero "
                        f"(max {float(np.max(np.abs(variance))):.3g})")
    tol = 1e-12 * max(1.0, float(np.max(np.abs(reference))))
    d = float(np.max(np.abs(mean - reference)))
    if not d <= tol:
        problems.append(f"alpha = 0 mean differs from a numpy pass by {d:.3g}")
    return problems


def identity_variance_bound(T: int) -> float:
    """Z standard errors of a sample variance from T Gaussian draws."""
    return Z * math.sqrt(2.0 / (T - 1))


def check_identity_variance(variance: np.ndarray, X: np.ndarray, W: np.ndarray,
                            alpha: float, T: int) -> list[str]:
    """One-layer identity noisy net: Var f(x) = alpha^2 sigma_l^2 |x|^2.

    f(x) = x (W + alpha eps) + b with eps ~ N(0, sigma_l^2) elementwise and
    sigma_l the population std of W, so x.eps ~ N(0, sigma_l^2 |x|^2).
    (T - 1) s^2 / sigma^2 is chi-square with T - 1 degrees of freedom.
    """
    expected = alpha ** 2 * np.std(W) ** 2 * np.sum(X * X, axis=1)
    ratio = np.asarray(variance)[:, 0] / expected
    bound = identity_variance_bound(T)
    worst = float(np.max(np.abs(ratio - 1.0)))
    if not worst <= bound:
        return [f"identity-net variance / alpha^2 sigma^2 |x|^2 off by "
                f"{worst:.4f} (bound {bound:.4f} at T = {T})"]
    return []


# ---------------------------------------------------------------------------
# gp_check


def arccos_kernel(probes, bias_std: float, degree: int = 1) -> np.ndarray:
    """E[relu(u)^n relu(v)^n] for u = w.x + b, v = w.y + b (Cho & Saul 2009).

    With w ~ N(0, I) and b ~ N(0, s^2), w.x + b = [w, b/s].[x, s], so the
    arc-cosine kernel applies to the augmented inputs [x, s]:
    ||x~||^n ||y~||^n J_n(theta) / (2 pi).
    """
    probes = np.asarray(probes, dtype=np.float64)
    aug = np.column_stack([probes, np.full(len(probes), float(bias_std))])
    norms = np.linalg.norm(aug, axis=1)
    cos = np.clip(aug @ aug.T / np.outer(norms, norms), -1.0, 1.0)
    theta = np.arccos(cos)
    sin = np.sin(theta)
    if degree == 1:
        J = sin + (math.pi - theta) * cos
    elif degree == 2:
        J = 3.0 * sin * cos + (math.pi - theta) * (1.0 + 2.0 * cos ** 2)
    else:
        raise ValueError("degree must be 1 or 2")
    return np.outer(norms ** degree, norms ** degree) * J / (2.0 * math.pi)


def kernel_tolerance(probes, bias_std: float, n_samples: int) -> np.ndarray:
    """Z standard errors of the n-sample Monte Carlo kernel, per entry."""
    K = arccos_kernel(probes, bias_std, 1)
    fourth = arccos_kernel(probes, bias_std, 2)
    return Z * np.sqrt((fourth - K ** 2) / n_samples)


def covariance_rel_se(K: np.ndarray, n_networks: int) -> np.ndarray:
    """sqrt(K_ii K_jj + K_ij^2) / (K_ij sqrt(n - 1)), per entry."""
    d = np.diag(K)
    return np.sqrt(np.outer(d, d) + K ** 2) / (np.abs(K) * math.sqrt(n_networks - 1))


def check_correspondence(kernel: np.ndarray, covariance: np.ndarray,
                         convergence: list[dict], probes, bias_std: float,
                         n_samples: int, n_networks: int,
                         widths) -> list[str]:
    """Monte Carlo kernel and wide-net covariances against the closed form."""
    K = arccos_kernel(probes, bias_std)
    problems = []
    if kernel.shape != K.shape or covariance.shape != K.shape:
        return [f"kernel {kernel.shape} / covariance {covariance.shape} "
                f"not {K.shape}"]
    k_tol = kernel_tolerance(probes, bias_std, n_samples)
    k_dev = np.abs(kernel - K)
    if not np.all(k_dev <= k_tol):
        problems.append(f"kernel off the arc-cosine kernel by "
                        f"{float(np.max(k_dev / K)):.4f} relative "
                        f"(tolerance {float(np.max(k_tol / K)):.4f})")
    rel_se = FOURTH_MOMENT * covariance_rel_se(K, n_networks)
    c_dev = np.abs(covariance - K) / K
    if not np.all(c_dev <= Z * rel_se + k_tol / K):
        problems.append(f"headline covariance off the arc-cosine kernel by "
                        f"{float(np.max(c_dev)):.4f} relative")
    # the convergence table measures each width against the program's own
    # Monte Carlo kernel; add that kernel's tolerance to the covariance one
    bound = float(np.max(Z * rel_se + 2.0 * k_tol / K))
    got = sorted(int(e["width"]) for e in convergence)
    if got != sorted(int(w) for w in widths):
        problems.append(f"convergence widths {got} != {sorted(widths)}")
    for entry in convergence:
        dev = float(entry["max_rel_deviation"])
        if not dev <= bound:
            problems.append(f"width {entry['width']}: deviation {dev:.4f} "
                            f"above {bound:.4f}")
    return problems
