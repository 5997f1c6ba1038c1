"""Experiment drivers behind the CLI subcommands.

Each driver only computes: it returns its named outputs (a ``(header,
rows)`` table for a CSV file, a dict for a JSON file), its headline
metrics and, where it has them, its input files and measured timings. The
``_command`` skeleton turns a driver into the public run_* function and
registers it with its config class in ``COMMANDS``. The run validates the
config before anything touches the disk, creates ``outdir``, times the run,
writes every output and then ``manifest.json`` through runio, and returns
a RunOutput that carries the manifest digest.

Commands are deterministic functions of (config, seeds): all randomness
flows from np.random.default_rng seeded with [seed, tag] pairs, and files
are written with repr-formatted floats, so reruns are byte-identical. The
digest excludes the manifest's wall-clock timings. The one data file whose
payload is a measurement, the timing benchmark's timing.csv, has its hash
recorded under those timings, outside the digest.
"""

from __future__ import annotations

import functools
import json
import math
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .data import DataError, gaussian_corrupt, gen_toy, load_csv, read_table, \
    split, standardize_fit_apply
from .gpcheck import NONLINEARITIES, KernelMCConfig, WideNetProbe, correspondence_report
from .mc import PredictiveSamples, mc_predict, summarize_classification, \
    summarize_regression
from .metrics import RISK_KINDS, mpiw, msll, nll_gaussian, picp, risk_coverage, \
    rmse
from .models import FAMILIES, build_mlp
from .nn import ACTIVATIONS
from .optim import TrainConfig, fit, grid_search
from .runio import jsonable, manifest_digest, sha256_file, write_csv, \
    write_json


class ConfigError(ValueError):
    """Invalid experiment configuration; reported before any work starts."""


@dataclass
class RunOutput:
    """What a command wrote (manifest.json last), metrics, timings, digest."""

    files: dict[str, Path]
    metrics: dict
    timings: dict[str, float]
    digest: str


@dataclass
class Computed:
    """What a driver computed, before anything is written.

    ``outputs`` maps each file name to its payload: a ``(header, rows)``
    table is written as CSV, a dict as JSON.
    """

    outputs: dict[str, tuple | dict]
    metrics: dict
    inputs: dict[str, Path] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)
    # names in outputs whose payload is a wall-clock measurement
    measured_files: tuple[str, ...] = ()


# command name -> (config class, run_* function), filled by ``_command``
COMMANDS: dict[str, tuple] = {}


def _command(command: str, config_cls):
    """The one driver skeleton: make and register a run_* command.

    The command validates the config, creates ``outdir``, times the run,
    writes and hashes each named output, then writes ``manifest.json`` and
    returns the RunOutput with its digest. A config value that holds a NaN
    or infinite float is a ConfigError, and metrics that hold one raise
    FloatingPointError, both before anything is written.
    """
    def register(driver):
        @functools.wraps(driver)
        def run(cfg) -> RunOutput:
            bad = _non_finite_paths(jsonable(config_to_dict(cfg)))
            _require(not bad, f"config values must be finite: {', '.join(bad)}")
            cfg.validate()
            _require(str(cfg.outdir).strip() != "", "outdir must not be empty")
            outdir = Path(cfg.outdir)
            outdir.mkdir(parents=True, exist_ok=True)
            t0 = time.perf_counter()
            done = driver(cfg)
            bad = _non_finite_paths(jsonable(done.metrics))
            if bad:
                raise FloatingPointError(f"{len(bad)} metrics not finite, first "
                                         f"{bad[0]}; nothing written")
            files, hashes = {}, {}
            for name, payload in done.outputs.items():
                files[name] = outdir / name
                if isinstance(payload, dict):
                    write_json(files[name], payload)
                else:
                    write_csv(files[name], *payload)
                hashes[name] = sha256_file(files[name])
            timings = {"total_s": time.perf_counter() - t0, **done.timings}
            # a measurement's hash changes on every run: keep it out of the digest
            measured = {name: hashes.pop(name) for name in done.measured_files}
            manifest = {
                "command": command,
                "config": config_to_dict(cfg),
                "inputs": {name: {"path": str(path), "sha256": sha256_file(path)}
                           for name, path in done.inputs.items()},
                "outputs": hashes,
                "results": done.metrics,
                "timings": {**timings, "outputs": measured} if measured else timings,
            }
            files["manifest.json"] = outdir / "manifest.json"
            write_json(files["manifest.json"], manifest)
            digest = manifest_digest(json.loads(files["manifest.json"].read_text()))
            return RunOutput(files, done.metrics, timings, digest)
        COMMANDS[command] = (config_cls, run)
        return run
    return register


def _non_finite_paths(value, path: str = "") -> list[str]:
    """Where a JSON-ready tree holds a NaN or infinite float."""
    if isinstance(value, dict):
        return [p for k, v in value.items()
                for p in _non_finite_paths(v, f"{path}.{k}" if path else k)]
    if isinstance(value, list):
        return [p for i, v in enumerate(value)
                for p in _non_finite_paths(v, f"{path}[{i}]")]
    return [path] if isinstance(value, float) and not math.isfinite(value) else []


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def _require_seeds(seeds: tuple[int, ...]) -> None:
    _require(len(seeds) >= 1, "at least one seed required")
    _require(len(set(seeds)) == len(seeds), f"seeds repeat: {list(seeds)}")


def _require_families(families: tuple[str, ...]) -> None:
    _require(len(families) >= 1, "at least one family required")
    unknown = set(families) - set(FAMILIES)
    _require(not unknown, f"unknown families: {sorted(unknown)}")
    _require(len(set(families)) == len(families),
             f"families repeat: {list(families)}")


def _require_net(hidden: tuple[int, ...], activation: str) -> None:
    _require(len(hidden) >= 1 and all(h >= 1 for h in hidden),
             "hidden must list at least one width, each >= 1")
    _require(activation in ACTIVATIONS,
             f"activation must be one of {ACTIVATIONS}")


def spearman_rho(xs, ys) -> float:
    """Spearman rank correlation with average ranks for ties."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("spearman_rho expects two equal-length 1-D arrays")

    def ranks(v):
        order = np.argsort(v, kind="stable")
        r = np.empty(v.size, dtype=float)
        i = 0
        while i < v.size:
            j = i
            while j + 1 < v.size and v[order[j + 1]] == v[order[i]]:
                j += 1
            r[order[i:j + 1]] = 0.5 * (i + j) + 1.0
            i = j + 1
        return r

    rx, ry = ranks(xs), ranks(ys)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = math.sqrt(float(rx @ rx) * float(ry @ ry))
    if denom == 0.0:
        return 0.0
    return float(rx @ ry) / denom


# ---------------------------------------------------------------------------
# toy


@dataclass
class ToyConfig:
    """1-D heteroscedastic regression comparison of the three noisy models."""

    outdir: str = "runs/toy"
    n_points: int = 200
    random_x: bool = False
    hidden: int = 100
    activation: str = "relu"
    lr: float = 0.005
    epochs: int = 500
    batch_size: int = 32
    passes: int = 500
    noise_level: float = 0.05
    dropout_p: float = 0.2
    alpha_penalty_lambda: float = 0.01
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)

    def validate(self) -> None:
        _require(self.n_points >= 2, "n_points must be >= 2")
        _require_net((self.hidden,), self.activation)
        _require(self.lr > 0, "lr must be > 0")
        _require(self.epochs >= 1, "epochs must be >= 1")
        _require(self.batch_size >= 1, "batch_size must be >= 1")
        _require(self.passes >= 2, "passes must be >= 2 for interval metrics")
        _require(0 <= self.dropout_p < 1, "dropout_p must be in [0, 1)")
        _require(self.noise_level >= 0, "noise_level must be >= 0")
        _require(self.alpha_penalty_lambda >= 0, "alpha_penalty_lambda must be >= 0")
        _require_seeds(self.seeds)


TOY_MODELS = ("noise_fixed", "noise_learned", "mc_dropout")


@_command("toy", ToyConfig)
def run_toy(cfg: ToyConfig) -> Computed:
    train_cfg = TrainConfig(lr=cfg.lr, max_epochs=cfg.epochs,
                            batch_size=cfg.batch_size, patience=0)
    pred_rows, int_rows = [], []
    per_model: dict[str, dict] = {m: {"per_seed": {}} for m in TOY_MODELS}

    for seed in cfg.seeds:
        ds = gen_toy(cfg.n_points, seed=seed, random_x=cfg.random_x)
        for tag, model in enumerate(TOY_MODELS):
            build_rng, fit_rng, mc_rng = np.random.default_rng([seed, tag]).spawn(3)
            # build_mlp uses only the knobs that apply to the model
            net = build_mlp(model, 1, [cfg.hidden], 1, task="regression",
                            activation=cfg.activation, rng=build_rng,
                            dropout_p=cfg.dropout_p, noise_level=cfg.noise_level,
                            alpha_penalty_lambda=cfg.alpha_penalty_lambda)
            fit(net, ds.X, ds.Y, train_cfg, rng=fit_rng)
            summ = summarize_regression(mc_predict(net, ds.X, cfg.passes, mc_rng))
            mean, sigma = summ.mean[:, 0], summ.sigma[:, 0]
            lower, upper = summ.lower[:, 0], summ.upper[:, 0]
            per_model[model]["per_seed"][str(seed)] = {
                "picp": picp(ds.Y[:, 0], lower, upper), "mpiw": mpiw(lower, upper)}
            for i in range(cfg.n_points):
                x, y = ds.X[i, 0], ds.Y[i, 0]
                pred_rows.append([seed, model, x, y, mean[i], sigma[i]])
                int_rows.append([seed, model, x, lower[i], upper[i]])

    for model in TOY_MODELS:
        stats = per_model[model]["per_seed"].values()
        per_model[model]["mean"] = {
            k: float(np.mean([s[k] for s in stats])) for k in ("picp", "mpiw")}

    fixed = per_model["noise_fixed"]["per_seed"]
    drop = per_model["mc_dropout"]["per_seed"]
    metrics: dict = {"passes": cfg.passes, "seeds": list(cfg.seeds),
                     "models": per_model,
                     "comparison": {
                         "n_seeds": len(cfg.seeds),
                         "mpiw_wins_fixed_vs_dropout": sum(
                             fixed[s]["mpiw"] < drop[s]["mpiw"] for s in fixed),
                         "picp_wins_fixed_vs_dropout": sum(
                             fixed[s]["picp"] >= drop[s]["picp"] for s in fixed),
                     }}
    return Computed({"predictions.csv": (["seed", "model", "x", "y", "mean",
                                          "sigma"], pred_rows),
                     "intervals.csv": (["seed", "model", "x", "lower", "upper"],
                                       int_rows),
                     "metrics.json": metrics}, metrics)


# ---------------------------------------------------------------------------
# benchmark


@dataclass
class BenchmarkConfig:
    """Grid-searched regression comparison of the four model families."""

    data: str = ""
    target: str | int | None = None
    outdir: str = "runs/benchmark"
    hidden: tuple[int, ...] = (50, 50)
    activation: str = "relu"
    lr_grid: tuple[float, ...] = (0.0001, 0.0005, 0.001, 0.002)
    weight_decay_grid: tuple[float, ...] = (0.1, 0.01, 0.001, 1e-4, 1e-5, 1e-9)
    dropout_grid: tuple[float, ...] = (0.001, 0.005, 0.01, 0.05, 0.1, 0.2)
    noise_grid: tuple[float, ...] = (0.001, 0.005, 0.01, 0.05, 0.1)
    alpha_init_grid: tuple[float, ...] = (0.001, 0.005, 0.01, 0.05, 0.1)
    batch_size: int = 32
    max_epochs: int = 2000
    patience: int = 3
    passes: int = 100
    val_passes: int = 1
    split_fractions: tuple[float, float, float] = (0.8, 0.1, 0.1)
    families: tuple[str, ...] = FAMILIES
    seed: int = 0

    def validate(self) -> None:
        _require(bool(self.data), "benchmark requires a dataset path (data=...)")
        _require_net(self.hidden, self.activation)
        for name in ("lr_grid", "weight_decay_grid", "dropout_grid",
                     "noise_grid", "alpha_init_grid"):
            _require(len(getattr(self, name)) >= 1, f"{name} must be non-empty")
        _require(all(lr > 0 for lr in self.lr_grid), "learning rates must be > 0")
        for name in ("weight_decay_grid", "noise_grid", "alpha_init_grid"):
            _require(all(v >= 0 for v in getattr(self, name)),
                     f"{name} entries must be >= 0")
        _require(all(0 <= p < 1 for p in self.dropout_grid),
                 "dropout_grid entries must be in [0, 1)")
        fr = self.split_fractions
        _require(len(fr) == 3 and all(0 <= f <= 1 for f in fr)
                 and abs(sum(fr) - 1.0) <= 1e-9,
                 "split_fractions must be three numbers in [0, 1] summing to 1")
        _require(self.batch_size >= 1, "batch_size must be >= 1")
        _require(self.max_epochs >= 1, "max_epochs must be >= 1")
        _require(self.patience >= 0, "patience must be >= 0")
        _require(self.passes >= 2, "passes must be >= 2 for interval metrics")
        _require(self.val_passes >= 1, "val_passes must be >= 1")
        _require_families(self.families)


LEADERBOARD_HEADER = ["family", "lr", "weight_decay", "dropout_p", "noise_level",
                      "alpha_init", "val_loss", "test_rmse", "test_nll",
                      "test_picp", "test_mpiw"]


# each family's knob: (leaderboard column, BenchmarkConfig grid, build_mlp
# keyword); the deterministic family has none
_FAMILY_KNOBS = {"mc_dropout": ("dropout_p", "dropout_grid", "dropout_p"),
                "noise_fixed": ("noise_level", "noise_grid", "noise_level"),
                "noise_learned": ("alpha_init", "alpha_init_grid", "noise_level")}


# the most configs one stacked fit trains at once: a family's grid is fitted
# in sub-stacks of this size, one after another, which bounds peak memory
_STACK_MEMBERS = 32


def _family_grid(cfg: BenchmarkConfig, family: str) -> dict:
    grid = {"lr": list(cfg.lr_grid), "weight_decay": list(cfg.weight_decay_grid)}
    if family in _FAMILY_KNOBS:
        column, grid_field, _ = _FAMILY_KNOBS[family]
        grid[column] = list(getattr(cfg, grid_field))
    return grid


@_command("benchmark", BenchmarkConfig)
def run_benchmark(cfg: BenchmarkConfig) -> Computed:
    dataset = load_csv(cfg.data, target=cfg.target, task="regression")
    train, val, test = split(dataset, cfg.split_fractions, seed=cfg.seed)
    train, val, test = standardize_fit_apply(train, val, test)

    in_dim = train.X.shape[1]
    rows = []
    best_per_family: dict[str, dict] = {}
    nll_store: dict[tuple[str, int], np.ndarray] = {}

    def score(net, result, mc_rng) -> dict:
        summ = summarize_regression(mc_predict(net, test.X, cfg.passes, mc_rng))
        y = test.Y[:, 0]
        nll = nll_gaussian(y, summ.mean[:, 0], summ.sigma[:, 0])
        return {"val_loss": result.best_val_loss,
                "test_rmse": rmse(summ.mean[:, 0], y),
                "test_nll": nll.total,
                "test_picp": picp(y, summ.lower[:, 0], summ.upper[:, 0]),
                "test_mpiw": mpiw(summ.lower[:, 0], summ.upper[:, 0]),
                "_nll_per_point": nll.per_point}

    def fit_stack(family: str, configs: list[dict], rngs: list) -> list[dict]:
        # configs of one family share an architecture: train them as one
        # stack, each with its own build, fit and prediction streams
        nets, train_cfgs, fit_rngs, mc_rngs = [], [], [], []
        for config, rng in zip(configs, rngs):
            build_rng, fit_rng, mc_rng = rng.spawn(3)
            kwargs = {}
            if family in _FAMILY_KNOBS:
                column, _, keyword = _FAMILY_KNOBS[family]
                kwargs[keyword] = config[column]
            nets.append(build_mlp(family, in_dim, list(cfg.hidden), 1,
                                  task="regression", activation=cfg.activation,
                                  rng=build_rng, **kwargs))
            train_cfgs.append(TrainConfig(
                lr=config["lr"], weight_decay=config["weight_decay"],
                max_epochs=cfg.max_epochs, batch_size=cfg.batch_size,
                patience=cfg.patience, val_passes=cfg.val_passes))
            fit_rngs.append(fit_rng)
            mc_rngs.append(mc_rng)
        results = fit(nets, train.X, train.Y, train_cfgs, val.X, val.Y,
                      rng=fit_rngs)
        return [score(net, result, mc_rng)
                for net, result, mc_rng in zip(nets, results, mc_rngs)]

    for family in cfg.families:
        def evaluate(configs: list[dict], rngs: list, family=family) -> list[dict]:
            step = _STACK_MEMBERS
            return [row for lo in range(0, len(configs), step)
                    for row in fit_stack(family, configs[lo:lo + step],
                                         rngs[lo:lo + step])]

        result = grid_search(evaluate, _family_grid(cfg, family), seed=cfg.seed)
        for row in result.rows:
            nll_store[(family, row["config_index"])] = row.pop("_nll_per_point")
            rows.append([family,
                         row["lr"], row["weight_decay"],
                         row.get("dropout_p", ""), row.get("noise_level", ""),
                         row.get("alpha_init", ""),
                         row["val_loss"], row["test_rmse"], row["test_nll"],
                         row["test_picp"], row["test_mpiw"]])
        best_per_family[family] = result.best

    metrics: dict = {"data": str(cfg.data), "passes": cfg.passes,
                     "seed": cfg.seed, "families": {}}
    baseline_nll = None
    if "mc_dropout" in best_per_family:
        b = best_per_family["mc_dropout"]
        baseline_nll = nll_store[("mc_dropout", b["config_index"])]
    for family in cfg.families:
        entry = dict(best_per_family[family])
        if baseline_nll is not None:
            own = nll_store[(family, entry["config_index"])]
            entry["msll_vs_mc_dropout"] = msll(own, baseline_nll)
        metrics["families"][family] = entry
    if "noise_fixed" in metrics["families"] and "deterministic" in metrics["families"]:
        det = metrics["families"]["deterministic"]["test_rmse"]
        fx = metrics["families"]["noise_fixed"]["test_rmse"]
        metrics["rmse_ratio_fixed_vs_deterministic"] = (
            fx / det if det > 0 else None)

    return Computed({"leaderboard.csv": (LEADERBOARD_HEADER, rows),
                     "metrics.json": metrics}, metrics,
                    inputs={"data": Path(cfg.data)})


# ---------------------------------------------------------------------------
# riskcov


@dataclass
class RiskCovConfig:
    """Selective-prediction curve from prediction and uncertainty files."""

    pred_file: str = ""
    unc_file: str = ""
    risk_kind: str = "rmse"
    coverage_grid: tuple[float, ...] = tuple(round(0.05 * k, 2) for k in range(1, 21))
    outdir: str = "runs/riskcov"

    def validate(self) -> None:
        _require(bool(self.pred_file), "riskcov requires pred_file=...")
        _require(bool(self.unc_file), "riskcov requires unc_file=...")
        _require(self.risk_kind in RISK_KINDS,
                 f"unknown risk_kind {self.risk_kind!r}")
        _require(all(0 < c <= 1 for c in self.coverage_grid)
                 and 1.0 in self.coverage_grid,
                 "coverage_grid levels must lie in (0, 1] and include 1.0")


def _columns(path, names: tuple[str, ...]) -> list[np.ndarray]:
    header, table = read_table(path)
    missing = [name for name in names if name not in header]
    if missing:
        raise DataError(f"{path}: missing required columns {missing} "
                        f"(found {header})")
    return [table[:, header.index(name)] for name in names]


@_command("riskcov", RiskCovConfig)
def run_riskcov(cfg: RiskCovConfig) -> Computed:
    pred, target = _columns(cfg.pred_file, ("pred", "target"))
    unc, = _columns(cfg.unc_file, ("uncertainty",))
    if len(pred) != len(unc):
        raise DataError(f"misaligned inputs: {cfg.pred_file} has {len(pred)} rows, "
                        f"{cfg.unc_file} has {len(unc)}")

    kwargs: dict = {}
    if cfg.risk_kind == "rmse":
        kwargs = {"pred": pred, "target": target}
    else:
        kwargs = {"correct": pred == target}
    curve = risk_coverage(unc, risk_kind=cfg.risk_kind,
                          coverage_grid=cfg.coverage_grid, **kwargs)

    metrics = {"risk_kind": cfg.risk_kind, "n_points": int(len(pred)),
               "risk_at_full_coverage": float(curve.risks[-1])}
    return Computed({"curve.csv": (["coverage", "risk"],
                                   [[c, r] for c, r in curve.points]),
                     "metrics.json": metrics}, metrics,
                    inputs={"pred_file": Path(cfg.pred_file),
                            "unc_file": Path(cfg.unc_file)})


# ---------------------------------------------------------------------------
# noise sweep


@dataclass
class SweepConfig:
    """Input-corruption sweep of a small noisy classifier."""

    outdir: str = "runs/noise_sweep"
    sigmas: tuple[float, ...] = (0.0, 0.05, 0.1, 0.2, 0.4)
    passes: int = 100
    n_eval: int = 20
    n_train: int = 240
    hidden: tuple[int, ...] = (32,)
    activation: str = "relu"
    noise_level: float = 0.05
    lr: float = 0.01
    epochs: int = 300
    batch_size: int = 32
    seeds: tuple[int, ...] = (0, 1, 2)

    def validate(self) -> None:
        _require(len(self.sigmas) >= 2, "need at least 2 sigma values")
        _require(all(s >= 0 for s in self.sigmas), "sigmas must be >= 0")
        _require(self.passes >= 2, "passes must be >= 2")
        _require(self.n_eval >= 1, "n_eval must be >= 1")
        _require(self.n_train >= 4, "n_train must be >= 4")
        _require_net(self.hidden, self.activation)
        _require(self.noise_level >= 0, "noise_level must be >= 0")
        _require(self.lr > 0, "lr must be > 0")
        _require(self.epochs >= 1, "epochs must be >= 1")
        _require(self.batch_size >= 1, "batch_size must be >= 1")
        _require_seeds(self.seeds)


def gen_blobs(n: int, seed_key, spread: float = 0.7):
    """Two 2-D Gaussian blobs at (-1,-1) and (+1,+1), balanced labels."""
    rng = np.random.default_rng(seed_key)
    labels = np.arange(n) % 2
    centers = np.where(labels[:, None] == 0, -1.0, 1.0)
    X = centers + spread * rng.standard_normal((n, 2))
    return X, labels.astype(np.int64)


def corrupted_predict(net, X, sigma: float, T: int, rng) -> PredictiveSamples:
    """T forward passes, each on a fresh Gaussian corruption of X.

    Weight noise stays active, so the predictive distribution marginalizes
    over input corruption and weight noise together. At sigma=0 every pass
    sees X bit-exactly, reducing to a clean prediction.
    """
    return mc_predict(net, X, T, rng,
                      transform=lambda X, r: gaussian_corrupt(X, sigma, r))


@_command("noise-sweep", SweepConfig)
def run_noise_sweep(cfg: SweepConfig) -> Computed:
    train_cfg = TrainConfig(lr=cfg.lr, max_epochs=cfg.epochs,
                            batch_size=cfg.batch_size, patience=0)
    rows = []
    per_seed: dict[str, dict] = {}
    for seed in cfg.seeds:
        X_train, y_train = gen_blobs(cfg.n_train, [seed, 11])
        X_eval, y_eval = gen_blobs(cfg.n_eval, [seed, 12])
        build_rng, fit_rng = np.random.default_rng([seed, 10]).spawn(2)
        net = build_mlp("noise_fixed", 2, list(cfg.hidden), 2,
                        task="classification", activation=cfg.activation,
                        rng=build_rng, noise_level=cfg.noise_level)
        fit(net, X_train, y_train, train_cfg, rng=fit_rng)

        sweep_streams = np.random.default_rng([seed, 13]).spawn(len(cfg.sigmas))
        mean_entropy = []
        for sigma, stream in zip(cfg.sigmas, sweep_streams):
            summ = summarize_classification(
                corrupted_predict(net, X_eval, sigma, cfg.passes, stream))
            mean_entropy.append(float(np.mean(summ.entropy)))
            for i in range(cfg.n_eval):
                rows.append([seed, sigma, i, int(y_eval[i]),
                             int(summ.predicted[i]), summ.entropy[i],
                             summ.mean_probs[i, 0], summ.mean_probs[i, 1]])
        rho = spearman_rho(cfg.sigmas, mean_entropy)
        per_seed[str(seed)] = {"mean_entropy_per_sigma": mean_entropy,
                               "spearman_rho": rho}

    metrics = {"sigmas": list(cfg.sigmas), "passes": cfg.passes,
               "per_seed": per_seed,
               "mean_spearman_rho": float(np.mean(
                   [v["spearman_rho"] for v in per_seed.values()]))}
    header = ["seed", "sigma", "point", "label", "predicted", "entropy",
              "mean_p0", "mean_p1"]
    return Computed({"sweep.csv": (header, rows), "metrics.json": metrics},
                    metrics)


# ---------------------------------------------------------------------------
# bench-time


@dataclass
class TimingConfig:
    """Wall-clock inference timing over repeated T-pass predictions."""

    outdir: str = "runs/bench_time"
    batch: int = 500
    input_dim: int = 10
    hidden: tuple[int, ...] = (50, 50)
    t_list: tuple[int, ...] = (1, 10, 100)
    reps: int = 10
    noise_level: float = 0.05
    dropout_p: float = 0.2
    families: tuple[str, ...] = ("deterministic", "noise_fixed", "mc_dropout")
    seed: int = 0

    def validate(self) -> None:
        _require(self.batch >= 1, "batch must be >= 1")
        _require(self.input_dim >= 1, "input_dim must be >= 1")
        _require(self.reps >= 2, "reps must be >= 2 to report a std")
        _require(all(t >= 1 for t in self.t_list), "passes must be >= 1")
        _require(len(self.t_list) >= 1, "t_list must be non-empty")
        _require(len(self.hidden) >= 1 and all(h >= 1 for h in self.hidden),
                 "hidden must list at least one width, each >= 1")
        _require(self.noise_level >= 0, "noise_level must be >= 0")
        _require(0 <= self.dropout_p < 1, "dropout_p must be in [0, 1)")
        _require_families(self.families)


def _seconds_per_prediction(net, X, T: int, reps: int, key) -> list[float]:
    """Wall-clock seconds of ``reps`` T-pass predictions, rep r seeded
    [*key, r]."""
    times = []
    for rep in range(reps):
        rng = np.random.default_rng([*key, rep])
        tic = time.perf_counter()
        mc_predict(net, X, T, rng)
        times.append(time.perf_counter() - tic)
    return times


@_command("bench-time", TimingConfig)
def run_bench_time(cfg: TimingConfig) -> Computed:
    X = np.random.default_rng([cfg.seed, 99]).standard_normal(
        (cfg.batch, cfg.input_dim))
    rows = []
    measured: dict[str, dict[str, float]] = {}
    for fam_idx, family in enumerate(cfg.families):
        net = build_mlp(family, cfg.input_dim, list(cfg.hidden), 1,
                        rng=np.random.default_rng([cfg.seed, fam_idx]),
                        noise_level=cfg.noise_level, dropout_p=cfg.dropout_p)
        t_values = (1,) if family == "deterministic" else cfg.t_list
        for T in t_values:
            times = _seconds_per_prediction(net, X, T, cfg.reps,
                                            [cfg.seed, fam_idx, T])
            mean_s = float(np.mean(times))
            std_s = float(np.std(times))
            rows.append([family, T, mean_s, std_s])
            measured[f"{family}/T={T}"] = {"mean_s": mean_s, "std_s": std_s}

    # measurements live under timings (excluded from the determinism
    # contract), keeping the manifest's results block rerun-stable
    metrics = {"batch": cfg.batch, "reps": cfg.reps,
               "families": list(cfg.families), "t_list": list(cfg.t_list)}
    return Computed(
        {"timing.csv": (["model", "passes", "mean_seconds", "std_seconds"], rows)},
        metrics, timings=measured, measured_files=("timing.csv",))


# ---------------------------------------------------------------------------
# gpcheck


@dataclass
class GpCheckConfig:
    """Wide-network covariance vs GP kernel comparison."""

    outdir: str = "runs/gpcheck"
    nonlinearity: str = "relu"
    bias_std: float = 1.0
    n_samples: int = 1_000_000
    n_networks: int = 10_000
    width: int = 4096
    widths: tuple[int, ...] = (64, 512, 4096)
    probes: tuple[tuple[float, ...], ...] = ((1.0, 0.5), (0.8, 0.6), (0.6, 1.0))
    seeds: tuple[int, ...] = (0,)

    def validate(self) -> None:
        _require(self.nonlinearity in NONLINEARITIES,
                 f"nonlinearity must be one of {NONLINEARITIES}")
        _require(self.bias_std >= 0, "bias_std must be >= 0")
        _require(self.n_samples >= 1, "n_samples must be >= 1")
        _require(self.n_networks >= 2, "n_networks must be >= 2")
        _require(len(self.widths) >= 1, "widths must be non-empty")
        _require(self.width >= 1 and all(w >= 1 for w in self.widths),
                 "widths must be >= 1")
        _require(len(self.probes) >= 2, "need at least 2 probe inputs")
        dims = {len(p) for p in self.probes}
        _require(len(dims) == 1, "probe inputs must share one dimension")
        _require_seeds(self.seeds)


@_command("gpcheck", GpCheckConfig)
def run_gpcheck(cfg: GpCheckConfig) -> Computed:
    input_dim = len(cfg.probes[0])
    rows = []
    per_seed = {}
    for seed in cfg.seeds:
        probe = WideNetProbe(width=cfg.width, n_networks=cfg.n_networks,
                             probe_inputs=cfg.probes)
        kcfg = KernelMCConfig(n_samples=cfg.n_samples,
                              nonlinearity=cfg.nonlinearity,
                              bias_std=cfg.bias_std, input_dim=input_dim)
        report = correspondence_report(probe, kcfg,
                                       np.random.default_rng([seed, 17]),
                                       widths=cfg.widths)
        for entry in report.convergence:
            rows.append([entry["width"], entry["n_networks"],
                         entry["max_rel_deviation"], seed])
        per_seed[str(seed)] = {
            "max_rel_deviation": report.max_rel_deviation,
            "convergence": report.convergence}

    # what the deviations are measured against: the same for every seed
    metrics = {"nonlinearity": cfg.nonlinearity,
               "kernel": report.kernel_source, "bias_std": cfg.bias_std,
               "width": cfg.width, "per_seed": per_seed}
    return Computed({"convergence.csv": (["width", "n_networks", "max_rel_dev",
                                          "seed"], rows),
                     "metrics.json": metrics}, metrics)


def config_to_dict(cfg) -> dict:
    """Resolved-config view for manifests; tuples become lists."""
    out = {}
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        out[f.name] = list(v) if isinstance(v, tuple) else v
    return out
