"""Datasets: toy heteroscedastic generator, CSV ingestion, splits, corruption.

CSV format: UTF-8, comma-separated, one header row of distinct names,
finite decimal floats. read_table is the one CSV reader: load_csv builds a
Dataset from it and the riskcov driver takes named columns from it. Floats
are written with 17 significant digits so save/load round-trips bit-exactly.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


class DataError(ValueError):
    """Unusable input data: missing file, malformed CSV, non-numeric or
    non-finite cells, a split that leaves a part empty."""


@dataclass
class Standardizer:
    """Per-column z-score transform fitted on one array, applied to others."""

    mean: np.ndarray
    std: np.ndarray
    constant_columns: np.ndarray     # flags: std was 0, forced to 1

    @classmethod
    def fit(cls, values: np.ndarray) -> "Standardizer":
        values = np.asarray(values, dtype=np.float64)
        mean = values.mean(axis=0)
        std = values.std(axis=0)
        constant = std == 0.0
        std = np.where(constant, 1.0, std)
        return cls(mean=mean, std=std, constant_columns=constant)

    def apply(self, values: np.ndarray) -> np.ndarray:
        return (np.asarray(values, dtype=np.float64) - self.mean) / self.std


@dataclass
class Dataset:
    """Features X (N, Q) with regression targets (N, D) or int labels (N,)."""

    X: np.ndarray = field(repr=False)
    Y: np.ndarray = field(repr=False)
    task: str = "regression"
    columns: list[str] | None = None

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        if self.task == "regression":
            self.Y = np.asarray(self.Y, dtype=np.float64)
            if self.Y.ndim == 1:
                self.Y = self.Y[:, None]
        else:
            self.Y = np.asarray(self.Y, dtype=np.int64)
        if self.X.ndim != 2:
            raise DataError("features must be 2-D")
        if self.X.shape[0] != self.Y.shape[0]:
            raise DataError("feature and target row counts differ")

    def __len__(self) -> int:
        return self.X.shape[0]

    def subset(self, idx) -> "Dataset":
        return Dataset(X=self.X[idx], Y=self.Y[idx], task=self.task,
                       columns=self.columns)


def toy_mean(x):
    """Noise-free mean function of the toy problem, 0.3 sin(pi x)."""
    return 0.3 * np.sin(np.pi * np.asarray(x, dtype=np.float64))


def gen_toy(n: int = 200, seed: int = 0, random_x: bool = False) -> Dataset:
    """Heteroscedastic 1-D toy set on [-2, 2].

    y = 0.3 sin(pi x) + 0.2 eta with eta ~ N(0, x^2), i.e. noise std grows
    as 0.2|x| and vanishes at the origin. x is an equispaced grid by
    default; random_x draws them uniformly instead (sorted for readability).
    """
    if n < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    if random_x:
        x = np.sort(rng.uniform(-2.0, 2.0, size=n))
    else:
        x = np.linspace(-2.0, 2.0, n)
    y = toy_mean(x) + 0.2 * np.abs(x) * rng.standard_normal(n)
    return Dataset(X=x[:, None], Y=y[:, None], task="regression",
                   columns=["x", "y"])


# ---------------------------------------------------------------------------
# CSV

def read_table(path) -> tuple[list[str], np.ndarray]:
    """Read a header-row CSV of numbers into (column names, float table).

    The one CSV reader, so every input follows the same rules: UTF-8, one
    header row of distinct names (surrounding spaces stripped), blank lines
    skipped, at least one data row, every row as wide as the header, and
    every cell a finite number. A breach raises DataError; a bad row or cell
    is named by its 1-based physical row (the header is row 1) and column.
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"no such data file: {path}")
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = [name.strip() for name in next(reader, [])]
            if not header:
                raise DataError(f"{path}: no header row")
            repeated = sorted({name for name in header if header.count(name) > 1})
            if repeated:
                raise DataError(f"{path}: repeated column names {repeated}")
            rows = []
            for line_no, cells in enumerate(reader, start=2):
                if not cells:
                    continue
                if len(cells) != len(header):
                    raise DataError(
                        f"{path}: ragged row {line_no}: {len(cells)} cells, "
                        f"expected {len(header)}")
                parsed = []
                for name, cell in zip(header, cells):
                    try:
                        value = float(cell)
                    except ValueError:
                        raise DataError(
                            f"{path}: non-numeric cell at row {line_no}, "
                            f"column {name!r}: {cell!r}") from None
                    if not math.isfinite(value):
                        raise DataError(
                            f"{path}: non-finite cell at row {line_no}, "
                            f"column {name!r}: {cell!r}")
                    parsed.append(value)
                rows.append(parsed)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if not rows:
        raise DataError(f"{path}: no data rows")
    return header, np.asarray(rows, dtype=np.float64)


def load_csv(path, target: str | int | None = None,
             task: str = "regression") -> Dataset:
    """Parse a header-row CSV (see read_table) into a Dataset.

    ``target`` picks the target column by header name or index; default is
    the last column. Classification targets must be integer-coded.
    """
    header, table = read_table(path)
    n_cols = len(header)
    if n_cols < 2:
        raise DataError(f"{path}: need at least one feature and one target column")

    if target is None:
        t_idx = n_cols - 1
    elif isinstance(target, int):
        t_idx = target
        if not (-n_cols <= t_idx < n_cols):
            raise DataError(f"{path}: target index {target} out of range")
        t_idx %= n_cols
    else:
        if target not in header:
            raise DataError(f"{path}: no column named {target!r}")
        t_idx = header.index(target)

    keep = [i for i in range(n_cols) if i != t_idx]
    X = table[:, keep]
    y = table[:, t_idx]
    columns = [header[i] for i in keep] + [header[t_idx]]
    if task == "classification":
        if np.any(y != np.round(y)):
            raise DataError(f"{path}: classification targets must be integers")
        y = y.astype(np.int64)
        if y.min() < 0:
            raise DataError(f"{path}: negative class label")
    return Dataset(X=X, Y=y, task=task, columns=columns)


def save_csv(dataset: Dataset, path) -> None:
    """Write a Dataset back to CSV; floats carry 17 significant digits."""
    path = Path(path)
    q = dataset.X.shape[1]
    if dataset.columns is not None and len(dataset.columns) == q + 1:
        header = dataset.columns
    else:
        header = [f"x{i}" for i in range(q)] + ["y"]
    lines = [",".join(header)]
    y = dataset.Y
    for i in range(len(dataset)):
        cells = [format(v, ".17g") for v in dataset.X[i]]
        if dataset.task == "classification":
            cells.append(str(int(y[i])))
        else:
            cells.extend(format(v, ".17g") for v in y[i])
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# standardization and splitting

def standardize_fit_apply(train: Dataset, *others: Dataset):
    """Z-score features (and regression targets) using train statistics only.

    Returns the transformed datasets in the same order. Constant columns
    keep std 1 and are flagged rather than dividing by zero.
    """
    if len(train) == 0:
        raise DataError("cannot standardize an empty training set")
    x_stats = Standardizer.fit(train.X)
    y_stats = Standardizer.fit(train.Y) if train.task == "regression" else None

    def transform(ds: Dataset) -> Dataset:
        y = y_stats.apply(ds.Y) if y_stats is not None else ds.Y
        return Dataset(X=x_stats.apply(ds.X), Y=y, task=ds.task,
                       columns=ds.columns)

    out = [transform(train)] + [transform(d) for d in others]
    return tuple(out)


def split(dataset: Dataset, fractions=(0.8, 0.1, 0.1), seed: int = 0):
    """Seeded permutation, then contiguous train/val/test slices.

    Every part must be non-empty: a split that leaves one empty raises
    DataError.
    """
    f = tuple(float(x) for x in fractions)
    if len(f) != 3 or any(x < 0.0 for x in f):
        raise ValueError("fractions must be three non-negative numbers")
    if abs(sum(f) - 1.0) > 1e-9:
        raise ValueError("fractions must sum to 1")
    n = len(dataset)
    perm = np.random.default_rng(seed).permutation(n)
    c1 = int(round(f[0] * n))
    c2 = int(round((f[0] + f[1]) * n))
    parts = (perm[:c1], perm[c1:c2], perm[c2:])
    for name, part in zip(("training", "validation", "test"), parts):
        if part.size == 0:
            raise DataError(f"split of {n} rows at fractions {f} leaves the "
                            f"{name} set empty")
    return tuple(dataset.subset(part) for part in parts)


def gaussian_corrupt(X, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """X + N(0, sigma^2) noise per element; sigma = 0 returns X unchanged."""
    if sigma < 0.0:
        raise ValueError("corruption std must be non-negative")
    X = np.asarray(X, dtype=np.float64)
    if sigma == 0.0:
        return X.copy()
    return X + sigma * rng.standard_normal(X.shape)
