"""Evaluation metrics: intervals, errors, likelihoods, calibration, selective risk.

Pure functions over arrays; nothing here owns state or randomness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .nn import ShapeError

RISK_KINDS = ("rmse", "error_rate", "accuracy")


def _flat(a) -> np.ndarray:
    return np.asarray(a, dtype=np.float64).ravel()


def _check_bounds(lower: np.ndarray, upper: np.ndarray) -> None:
    if lower.shape != upper.shape:
        raise ShapeError("interval bounds must share a shape")
    if np.any(lower > upper):
        raise ValueError("inverted interval: lower > upper")


def picp(y, lower, upper) -> float:
    """Fraction of targets inside their closed interval [lower, upper]."""
    y, lower, upper = _flat(y), _flat(lower), _flat(upper)
    _check_bounds(lower, upper)
    if y.shape != lower.shape:
        raise ShapeError("targets must align with the bounds")
    inside = (y >= lower) & (y <= upper)
    return float(np.mean(inside))


def mpiw(lower, upper) -> float:
    """Mean interval width."""
    lower, upper = _flat(lower), _flat(upper)
    _check_bounds(lower, upper)
    return float(np.mean(upper - lower))


def rmse(pred, y) -> float:
    pred = np.asarray(pred, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if pred.shape != y.shape:
        raise ShapeError(f"prediction {pred.shape} vs target {y.shape}")
    diff = pred - y
    return float(np.sqrt(np.mean(diff * diff)))


@dataclass
class GaussianNll:
    per_point: np.ndarray = field(repr=False)
    total: float
    n_floored: int       # points whose sigma was clamped to the floor


def nll_gaussian(y, mean, sigma, sigma_floor: float = 1e-6) -> GaussianNll:
    """Per-point 0.5*log(2*pi*sigma^2) + (y-mean)^2 / (2*sigma^2), plus the sum.

    Sigmas at or below the floor are clamped to it and counted; deterministic
    models produce sigma = 0 and would otherwise yield infinities.
    """
    y, mean, sigma = _flat(y), _flat(mean), _flat(sigma)
    if not (y.shape == mean.shape == sigma.shape):
        raise ShapeError("y, mean, sigma must align")
    if np.any(sigma < 0.0):
        raise ValueError("negative predictive std")
    floored = sigma <= sigma_floor
    s = np.where(floored, sigma_floor, sigma)
    var = s * s
    per_point = 0.5 * np.log(2.0 * np.pi * var) + (y - mean) ** 2 / (2.0 * var)
    return GaussianNll(per_point=per_point, total=float(per_point.sum()),
                       n_floored=int(floored.sum()))


def msll(model_nll, baseline_nll) -> float:
    """Difference of summed NLLs, model minus baseline.

    The baseline model scores exactly 0 against itself.
    """
    model_nll, baseline_nll = _flat(model_nll), _flat(baseline_nll)
    if model_nll.shape != baseline_nll.shape:
        raise ShapeError("model and baseline NLL vectors must align")
    return float(model_nll.sum() - baseline_nll.sum())


def ece(confidences, correct, n_bins: int = 15) -> float:
    """Expected calibration error over equal-width confidence bins.

    Bin b covers (b/B, (b+1)/B], except the first, which is closed at 0.
    Membership is ceil(c*B) - 1 with c = 0 mapped to bin 0; this fixed rule
    is the reproducibility contract for boundary values. Empty bins
    contribute nothing.
    """
    confidences = _flat(confidences)
    correct = np.asarray(correct).ravel().astype(np.float64)
    if confidences.shape != correct.shape:
        raise ShapeError("confidences must align with correctness flags")
    if n_bins < 1:
        raise ValueError("need at least one bin")
    if confidences.size == 0:
        raise ValueError("no samples")
    if not ((0.0 <= confidences) & (confidences <= 1.0)).all():
        raise ValueError("confidence outside [0, 1]")
    idx = np.ceil(confidences * n_bins).astype(np.int64) - 1
    np.clip(idx, 0, n_bins - 1, out=idx)
    n = confidences.size
    total = 0.0
    for b in range(n_bins):
        members = idx == b
        count = int(members.sum())
        if count == 0:
            continue
        acc = float(correct[members].mean())
        conf = float(confidences[members].mean())
        total += (count / n) * abs(acc - conf)
    return total


def brier(mean_probs, labels) -> float:
    """Mean over samples of the summed squared gap to the one-hot label.

    Multi-class sum convention, so the score lives in [0, 2].
    """
    p = np.asarray(mean_probs, dtype=np.float64)
    if p.ndim != 2:
        raise ShapeError("mean_probs must be 2-D (samples, classes)")
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != p.shape[0]:
        raise ShapeError("labels must align with mean_probs rows")
    if not np.issubdtype(labels.dtype, np.integer):
        raise ShapeError("labels must be integers")
    if labels.size == 0:
        raise ValueError("no samples")
    if not (np.abs(p.sum(axis=1) - 1.0) <= 1e-6).all():
        raise ValueError("probability rows must sum to 1")
    if labels.min() < 0 or labels.max() >= p.shape[1]:
        raise ShapeError("label outside [0, n_classes)")
    onehot = np.zeros_like(p)
    onehot[np.arange(p.shape[0]), labels] = 1.0
    return float(np.mean(((p - onehot) ** 2).sum(axis=1)))


@dataclass
class RiskCoverageCurve:
    coverages: np.ndarray
    risks: np.ndarray
    risk_kind: str

    @property
    def points(self) -> list[tuple[float, float]]:
        return list(zip(self.coverages.tolist(), self.risks.tolist()))


def risk_coverage(uncertainty, risk_kind: str, coverage_grid, *,
                  pred=None, target=None, correct=None) -> RiskCoverageCurve:
    """Selective risk at each coverage level.

    At coverage x the ceil(x*N) lowest-uncertainty points are retained (ties
    broken by original index) and scored: RMSE needs ``pred`` and ``target``;
    error rate and accuracy need ``correct`` booleans. Coverage 1.0 therefore
    reproduces the global metric.
    """
    uncertainty = _flat(uncertainty)
    n = uncertainty.size
    if n < 1:
        raise ValueError("no samples")
    if risk_kind not in RISK_KINDS:
        raise ValueError(f"risk_kind must be one of {RISK_KINDS}")
    grid = sorted(set(float(x) for x in coverage_grid))
    if not grid:
        raise ValueError("empty coverage grid")
    if grid[0] <= 0.0 or grid[-1] > 1.0:
        raise ValueError("coverage levels must lie in (0, 1]")
    if grid[-1] != 1.0:
        raise ValueError("coverage grid must include 1.0")

    if risk_kind == "rmse":
        if pred is None or target is None:
            raise ValueError("rmse risk needs pred and target")
        pred = np.asarray(pred, dtype=np.float64)
        target = np.asarray(target, dtype=np.float64)
        if pred.shape[0] != n or target.shape[0] != n:
            raise ShapeError("pred/target must align with uncertainty")
    else:
        if correct is None:
            raise ValueError(f"{risk_kind} risk needs correctness flags")
        correct = np.asarray(correct).ravel().astype(np.float64)
        if correct.shape[0] != n:
            raise ShapeError("correct must align with uncertainty")

    order = np.argsort(uncertainty, kind="stable")
    risks = []
    for x in grid:
        k = int(np.ceil(x * n))
        keep = order[:k]
        if risk_kind == "rmse":
            risk = rmse(pred[keep], target[keep])
        elif risk_kind == "error_rate":
            risk = 1.0 - float(correct[keep].mean())
        else:
            risk = float(correct[keep].mean())
        risks.append(risk)
    return RiskCoverageCurve(coverages=np.asarray(grid),
                             risks=np.asarray(risks), risk_kind=risk_kind)
