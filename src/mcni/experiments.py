"""Experiment drivers behind the CLI subcommands.

Each driver only computes: it returns its named outputs (a ``(header,
rows)`` table for a CSV file, a dict for a JSON file), its headline
metrics and, where it has them, its input files and measured timings. The
``_command`` skeleton turns a driver into the public run_* function and
registers it with its config class in ``COMMANDS``. The run validates the
config before anything touches the disk: each config class's ``validate``
holds every field to the range rule that ``_RULES`` states once for that
field name in all commands, then checks its own command's cross-field
rules. The run then creates ``outdir``, times the run, removes any old
``manifest.json``, writes every output and then ``manifest.json`` through
runio under temporary names, renames them all into place, and returns a
RunOutput that carries the manifest digest.

Commands are deterministic functions of (config, seeds): all randomness
flows from np.random.default_rng seeded with [seed, tag] pairs, and files
are written with repr-formatted floats, so reruns are byte-identical. The
digest excludes the manifest's wall-clock timings, where bench-time keeps
its measurements, and its environment block (versions, usable CPUs, worker
processes, BLAS thread variables).

The benchmark, toy and noise-sweep drivers cut their fits into independent
tasks and run them on every usable CPU in forked worker processes
(``run_tasks``). Each task draws only from its own streams and results are
kept in task order, so the outputs are the same at any CPU count. A fit's
own Monte Carlo predictions then run in its task's process; bench-time's
timed predictions and gpcheck's chunks spread over the CPUs themselves.
The manifest names the most processes any ``run_tasks`` call of the run
used: ``_command`` sets ``workers.most_processes`` to 1 before each run.
"""

from __future__ import annotations

import functools
import json
import math
import os
import platform
import secrets
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .data import DataError, gaussian_corrupt, gen_toy, load_csv, read_table, \
    split, standardize_fit_apply
from .gpcheck import NONLINEARITIES, KernelMCConfig, WideNetProbe, correspondence_report
from .mc import PredictiveSamples, mc_predict, summarize_classification, \
    summarize_regression
from .metrics import RISK_KINDS, mpiw, nll_gaussian, picp, risk_coverage, rmse
from .models import FAMILIES, build_mlp
from .nn import ACTIVATIONS
from .optim import TrainConfig, fit, grid_assignments, grid_search
from .runio import jsonable, manifest_digest, sha256_file, write_csv, \
    write_json
from . import workers


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


# command name -> (config class, run_* function), filled by ``_command``; the
# CLI gives each command a flag for every field its config class lists in FLAGS
COMMANDS: dict[str, tuple] = {}


def _command(command: str, config_cls):
    """The one driver skeleton: make and register a run_* command.

    The command validates the config, creates ``outdir``, times the run,
    removes any old ``manifest.json``, writes and hashes each named output,
    then writes ``manifest.json`` and returns the RunOutput with its digest.
    Every file is first written under a temporary name and renamed into
    place only once all of them are written: a run that fails part way
    leaves no manifest and no temporary file, and an earlier run's outputs
    as they were. A config value that holds a NaN or infinite float, or an
    ``outdir`` that cannot be made, is a ConfigError, and metrics that hold
    one raise FloatingPointError, both before anything is written.
    """
    def register(driver):
        @functools.wraps(driver)
        def run(cfg) -> RunOutput:
            config = jsonable(asdict(cfg))
            bad = _non_finite_paths(config)
            _require(not bad, f"config values must be finite: {', '.join(bad)}")
            cfg.validate()
            _require(str(cfg.outdir).strip() != "", "outdir must not be empty")
            outdir = Path(cfg.outdir)
            try:
                outdir.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise ConfigError(f"cannot create outdir {outdir}: {exc}") from None
            workers.most_processes = 1
            t0 = time.perf_counter()
            done = driver(cfg)
            bad = _non_finite_paths(jsonable(done.metrics))
            if bad:
                raise FloatingPointError(f"{len(bad)} metrics not finite, first "
                                         f"{bad[0]}; nothing written")
            # a manifest that exists lists this run's files: it comes last
            (outdir / "manifest.json").unlink(missing_ok=True)
            files = {name: outdir / name for name in [*done.outputs, "manifest.json"]}
            token = secrets.token_hex(6)
            staged = {name: outdir / f"{name}.{token}.tmp" for name in files}
            hashes = {}
            try:
                for name, payload in done.outputs.items():
                    if isinstance(payload, dict):
                        write_json(staged[name], payload)
                    else:
                        write_csv(staged[name], *payload)
                    hashes[name] = sha256_file(staged[name])
                timings = {"total_s": time.perf_counter() - t0, **done.timings}
                manifest = {
                    "command": command,
                    "config": config,
                    "inputs": {name: {"path": str(path), "sha256": sha256_file(path)}
                               for name, path in done.inputs.items()},
                    "outputs": hashes,
                    "results": done.metrics,
                    "timings": timings,
                    "environment": _environment(),
                }
                write_json(staged["manifest.json"], manifest)
                for name, path in files.items():
                    os.replace(staged[name], path)
            except BaseException:
                for path in staged.values():
                    path.unlink(missing_ok=True)
                raise
            digest = manifest_digest(json.loads(files["manifest.json"].read_text()))
            return RunOutput(files, done.metrics, timings, digest)
        COMMANDS[command] = (config_cls, run)
        return run
    return register


# the variables that set the BLAS library's thread count
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _environment() -> dict:
    """Where a run ran; like timings, the manifest digest excludes it."""
    return {"mcni": __version__, "python": platform.python_version(),
            "numpy": np.__version__, "usable_cpus": workers.usable_cpus(),
            "worker_processes": workers.most_processes,
            "blas_threads": {name: os.environ.get(name)
                             for name in _BLAS_THREAD_VARS}}


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


def _at_least(low):
    return f">= {low}", lambda v: v >= low


def _one_of(choices):
    return f"one of {choices}", lambda v: v in choices


_POSITIVE = ("> 0", lambda v: v > 0)
_DROP_RATE = ("in [0, 1)", lambda v: 0 <= v < 1)

# each field's range rule, (what it says, test), stated once for the field
# of that name in every config class; see _check_fields
_RULES = {
    "seed": _at_least(0), "seeds": _at_least(0),
    "passes": _at_least(2), "val_passes": _at_least(1), "t_list": _at_least(1),
    "epochs": _at_least(1), "max_epochs": _at_least(1), "patience": _at_least(0),
    "batch_size": _at_least(1), "batch": _at_least(1), "reps": _at_least(2),
    "n_points": _at_least(2), "n_train": _at_least(4), "n_eval": _at_least(1),
    "input_dim": _at_least(1), "hidden": _at_least(1), "width": _at_least(1),
    "widths": _at_least(1), "n_samples": _at_least(1), "n_networks": _at_least(2),
    "lr": _POSITIVE, "lr_grid": _POSITIVE,
    "noise_level": _at_least(0), "noise_grid": _at_least(0),
    "alpha_init_grid": _at_least(0), "weight_decay_grid": _at_least(0),
    "alpha_penalty_lambda": _at_least(0), "bias_std": _at_least(0),
    "sigmas": _at_least(0),
    "dropout_p": _DROP_RATE, "dropout_grid": _DROP_RATE,
    "coverage_grid": ("in (0, 1]", lambda v: 0 < v <= 1),
    "activation": _one_of(ACTIVATIONS), "families": _one_of(FAMILIES),
    "risk_kind": _one_of(RISK_KINDS), "nonlinearity": _one_of(NONLINEARITIES),
}
# the tuple fields whose entries must not repeat
_DISTINCT = ("seeds", "families", "t_list")


def _check_fields(cfg) -> None:
    """Hold each field of ``cfg`` that has a rule in ``_RULES`` to it: a
    scalar must obey it, a tuple must be non-empty and each entry obey it."""
    for f in fields(cfg):
        if f.name not in _RULES:
            continue
        rule, test = _RULES[f.name]
        value = getattr(cfg, f.name)
        values = value if isinstance(value, tuple) else (value,)
        _require(len(values) >= 1, f"{f.name} must be non-empty")
        _require(all(test(v) for v in values),
                 f"{f.name} must be {rule}, got {value!r}")
        _require(f.name not in _DISTINCT or len(set(values)) == len(values),
                 f"{f.name} repeat: {list(values)}")


def spearman_rho(xs, ys) -> float:
    """Spearman rank correlation with average ranks for ties."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("spearman_rho expects two equal-length 1-D arrays")

    def ranks(v):
        # a tie group's average rank: its last rank less half its extent
        _, inverse, counts = np.unique(v, return_inverse=True, return_counts=True)
        return (np.cumsum(counts) - (counts - 1) / 2)[inverse]

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

    FLAGS = ("seeds", "passes", "random_x")

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
        _check_fields(self)


TOY_MODELS = ("noise_fixed", "noise_learned", "mc_dropout")


@_command("toy", ToyConfig)
def run_toy(cfg: ToyConfig) -> Computed:
    train_cfg = TrainConfig(lr=cfg.lr, max_epochs=cfg.epochs,
                            batch_size=cfg.batch_size, patience=0)
    toys = {seed: gen_toy(cfg.n_points, seed=seed, random_x=cfg.random_x)
            for seed in cfg.seeds}

    def fit_one(seed: int, tag: int, model: str) -> tuple:
        ds = toys[seed]
        build_rng, fit_rng, mc_rng = np.random.default_rng([seed, tag]).spawn(3)
        # build_mlp uses only the knobs that apply to the model
        net = build_mlp(model, 1, [cfg.hidden], 1, task="regression",
                        activation=cfg.activation, rng=build_rng,
                        dropout_p=cfg.dropout_p, noise_level=cfg.noise_level,
                        alpha_penalty_lambda=cfg.alpha_penalty_lambda)
        fit(net, ds.X, ds.Y, train_cfg, rng=fit_rng)
        summ = summarize_regression(mc_predict(net, ds.X, cfg.passes, mc_rng))
        return summ.mean[:, 0], summ.sigma[:, 0], summ.lower[:, 0], summ.upper[:, 0]

    runs = [(seed, tag, model) for seed in cfg.seeds
            for tag, model in enumerate(TOY_MODELS)]
    results = workers.run_tasks([functools.partial(fit_one, *run)
                                 for run in runs])
    pred_rows, int_rows = [], []
    per_model: dict[str, dict] = {m: {"per_seed": {}} for m in TOY_MODELS}
    for (seed, _, model), (mean, sigma, lower, upper) in zip(runs, results):
        ds = toys[seed]
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

    FLAGS = ("data", "target", "seed", "passes")

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
        _check_fields(self)
        fr = self.split_fractions
        _require(len(fr) == 3 and all(0 <= f <= 1 for f in fr)
                 and abs(sum(fr) - 1.0) <= 1e-9,
                 "split_fractions must be three numbers in [0, 1] summing to 1")


LEADERBOARD_HEADER = ["family", "lr", "weight_decay", "dropout_p", "noise_level",
                      "alpha_init", "val_loss", "test_rmse", "test_nll",
                      "test_picp", "test_mpiw"]


# each family's knob: (leaderboard column, BenchmarkConfig grid, build_mlp
# keyword); the deterministic family has none
_FAMILY_KNOBS = {"mc_dropout": ("dropout_p", "dropout_grid", "dropout_p"),
                "noise_fixed": ("noise_level", "noise_grid", "noise_level"),
                "noise_learned": ("alpha_init", "alpha_init_grid", "noise_level")}


# the most configs one stacked fit trains at once: a family's grid is cut
# into sub-stacks of this size, which bounds each worker's peak memory; the
# size never depends on the CPU count, so neither do the outputs
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

    def score(net, result, mc_rng) -> dict:
        summ = summarize_regression(mc_predict(net, test.X, cfg.passes, mc_rng))
        y = test.Y[:, 0]
        return {"val_loss": result.best_val_loss,
                "test_rmse": rmse(summ.mean[:, 0], y),
                "test_nll": nll_gaussian(y, summ.mean[:, 0], summ.sigma[:, 0]).total,
                "test_picp": picp(y, summ.lower[:, 0], summ.upper[:, 0]),
                "test_mpiw": mpiw(summ.lower[:, 0], summ.upper[:, 0])}

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

    searches, tasks = [], []
    step = _STACK_MEMBERS
    for family in cfg.families:
        assignments, rngs = grid_assignments(_family_grid(cfg, family),
                                             seed=cfg.seed)
        searches.append((family, assignments))
        tasks += [functools.partial(fit_stack, family, assignments[lo:lo + step],
                                    rngs[lo:lo + step])
                  for lo in range(0, len(assignments), step)]
    stacks = workers.run_tasks(tasks)
    # the sub-stacks' score rows, in assignment order
    scores = (row for stack in stacks for row in stack)

    for family, assignments in searches:
        result = grid_search(assignments, [next(scores) for _ in assignments])
        for row in result.rows:
            rows.append([family, *(row.get(k, "") for k in LEADERBOARD_HEADER[1:])])
        best_per_family[family] = result.best

    metrics: dict = {"data": str(cfg.data), "passes": cfg.passes,
                     "seed": cfg.seed, "families": {}}
    baseline = best_per_family.get("mc_dropout")
    for family in cfg.families:
        entry = dict(best_per_family[family])
        if baseline is not None:
            # test_nll is summed per config, so this is metrics.msll of the
            # two per-point NLL vectors
            entry["msll_vs_mc_dropout"] = entry["test_nll"] - baseline["test_nll"]
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

    FLAGS = ("pred_file", "unc_file", "risk_kind")

    pred_file: str = ""
    unc_file: str = ""
    risk_kind: str = "rmse"
    coverage_grid: tuple[float, ...] = tuple(round(0.05 * k, 2) for k in range(1, 21))
    outdir: str = "runs/riskcov"

    def validate(self) -> None:
        _require(bool(self.pred_file), "riskcov requires pred_file=...")
        _require(bool(self.unc_file), "riskcov requires unc_file=...")
        _check_fields(self)
        _require(1.0 in self.coverage_grid, "coverage_grid must include 1.0")


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

    FLAGS = ("seeds", "passes")

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
        _check_fields(self)
        _require(len(self.sigmas) >= 2, "need at least 2 sigma values")


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

    def sweep_one(seed: int) -> tuple[list, dict]:
        X_train, y_train = gen_blobs(cfg.n_train, [seed, 11])
        X_eval, y_eval = gen_blobs(cfg.n_eval, [seed, 12])
        build_rng, fit_rng = np.random.default_rng([seed, 10]).spawn(2)
        net = build_mlp("noise_fixed", 2, list(cfg.hidden), 2,
                        task="classification", activation=cfg.activation,
                        rng=build_rng, noise_level=cfg.noise_level)
        fit(net, X_train, y_train, train_cfg, rng=fit_rng)

        sweep_streams = np.random.default_rng([seed, 13]).spawn(len(cfg.sigmas))
        rows, mean_entropy = [], []
        for sigma, stream in zip(cfg.sigmas, sweep_streams):
            summ = summarize_classification(
                corrupted_predict(net, X_eval, sigma, cfg.passes, stream))
            mean_entropy.append(float(np.mean(summ.entropy)))
            for i in range(cfg.n_eval):
                rows.append([seed, sigma, i, int(y_eval[i]),
                             int(summ.predicted[i]), summ.entropy[i],
                             summ.mean_probs[i, 0], summ.mean_probs[i, 1]])
        rho = spearman_rho(cfg.sigmas, mean_entropy)
        return rows, {"mean_entropy_per_sigma": mean_entropy, "spearman_rho": rho}

    results = workers.run_tasks([functools.partial(sweep_one, seed)
                                 for seed in cfg.seeds])
    rows = [row for seed_rows, _ in results for row in seed_rows]
    per_seed = {str(seed): entry for seed, (_, entry) in zip(cfg.seeds, results)}

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

    FLAGS = ("seed",)

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
        _check_fields(self)


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
    measured: dict[str, dict[str, float]] = {}
    for fam_idx, family in enumerate(cfg.families):
        net = build_mlp(family, cfg.input_dim, list(cfg.hidden), 1,
                        rng=np.random.default_rng([cfg.seed, fam_idx]),
                        noise_level=cfg.noise_level, dropout_p=cfg.dropout_p)
        t_values = (1,) if family == "deterministic" else cfg.t_list
        for T in t_values:
            times = _seconds_per_prediction(net, X, T, cfg.reps,
                                            [cfg.seed, fam_idx, T])
            measured[f"{family}/T={T}"] = {"mean_s": float(np.mean(times)),
                                           "std_s": float(np.std(times))}

    # measurements live under timings (excluded from the determinism
    # contract), keeping the manifest's results block rerun-stable
    metrics = {"batch": cfg.batch, "reps": cfg.reps,
               "families": list(cfg.families), "t_list": list(cfg.t_list)}
    return Computed({}, metrics, timings=measured)


# ---------------------------------------------------------------------------
# gpcheck


@dataclass
class GpCheckConfig:
    """Wide-network covariance vs GP kernel comparison."""

    FLAGS = ("seeds", "nonlinearity")

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
        _check_fields(self)
        _require(len(self.probes) >= 2, "need at least 2 probe inputs")
        dims = {len(p) for p in self.probes}
        _require(len(dims) == 1, "probe inputs must share one dimension")


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

