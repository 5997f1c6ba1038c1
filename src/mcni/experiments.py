"""Experiment drivers behind the CLI subcommands.

Each driver only computes: it returns its named outputs (a ``(header,
rows)`` table for a CSV file, a dict for a JSON file), its headline
metrics and, where it has them, its input files and measured timings. The
``_command`` skeleton turns a driver into the public run_* function and
registers it with its config class in ``COMMANDS``. The run validates the
config before anything touches the disk, creates ``outdir``, times the run,
removes any old ``manifest.json``, writes every output and then
``manifest.json`` through runio under temporary names, renames them all
into place, and returns a RunOutput that carries the manifest digest.

Commands are deterministic functions of (config, seeds): all randomness
flows from np.random.default_rng seeded with [seed, tag] pairs, and files
are written with repr-formatted floats, so reruns are byte-identical. The
digest excludes the manifest's wall-clock timings and its environment block
(versions, usable CPUs, worker processes, BLAS thread variables). The one
data file whose payload is a measurement, the timing benchmark's
timing.csv, has its hash recorded under those timings, outside the digest.

The benchmark, toy and noise-sweep drivers cut their fits into independent
tasks and run them on every usable CPU in forked worker processes
(``_run_tasks``). Each task draws only from its own streams and results are
kept in task order, so the outputs are the same at any CPU count.
"""

from __future__ import annotations

import fcntl
import functools
import json
import math
import os
import pickle
import platform
import secrets
import signal
import time
from dataclasses import dataclass, field, fields
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
    # worker processes the driver's fits ran on (see ``_run_tasks``)
    processes: int = 1


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
    as they were. A config value that holds a NaN or infinite float is a
    ConfigError, and metrics that hold one raise FloatingPointError, both
    before anything is written.
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
                # a measurement's hash changes on every run: keep it out of the digest
                measured = {name: hashes.pop(name) for name in done.measured_files}
                manifest = {
                    "command": command,
                    "config": config_to_dict(cfg),
                    "inputs": {name: {"path": str(path), "sha256": sha256_file(path)}
                               for name, path in done.inputs.items()},
                    "outputs": hashes,
                    "results": done.metrics,
                    "timings": ({**timings, "outputs": measured} if measured
                                else timings),
                    "environment": _environment(done.processes),
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


def _environment(processes: int) -> dict:
    """Where a run ran; like timings, the manifest digest excludes it."""
    return {"mcni": __version__, "python": platform.python_version(),
            "numpy": np.__version__, "usable_cpus": len(os.sched_getaffinity(0)),
            "worker_processes": processes,
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


def _require_seeds(seeds: tuple[int, ...]) -> None:
    _require(len(seeds) >= 1, "at least one seed required")
    _require(len(set(seeds)) == len(seeds), f"seeds repeat: {list(seeds)}")
    _require(all(s >= 0 for s in seeds), "seeds must be >= 0")


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
# worker processes


def _run_tasks(tasks: list) -> tuple[list, int]:
    """Call every task; return their results in task order and the number
    of worker processes, min(usable CPUs, len(tasks)).

    The calling process is one worker; the others are ``os.fork()``
    children. The workers share a queue: the task indices, written in order
    into a pipe before the first fork, from which each worker reads the next
    index whenever it is free (a read that small is atomic). A worker stops
    at its first exception. A child sends its results, or that exception,
    pickled through a pipe of its own and always leaves through
    ``os._exit``, so it never returns into the caller's stack nor flushes
    the caller's buffers. Every child is reaped before anything is raised;
    then the exception of the lowest-numbered failed task is raised with
    its type. A child that ends without a result (a signal, say, or the OOM
    killer) counts as a RuntimeError naming how it ended. If the caller
    itself is interrupted, the children are killed.
    """
    n = min(len(os.sched_getaffinity(0)), len(tasks))
    queue, feed = os.pipe()
    # one queue entry per task, or per block of tasks when the pipe is too
    # small to take them all without blocking
    block = max(1, -(-len(tasks) // (fcntl.fcntl(feed, fcntl.F_GETPIPE_SZ) // 4)))
    os.write(feed, b"".join(i.to_bytes(4, "little")
                            for i in range(0, len(tasks), block)))
    os.close(feed)
    pipes: dict[int, int] = {}      # child pid -> read end of its result pipe
    blobs: dict[int, bytes] = {}
    statuses: dict[int, int] = {}
    try:
        for _ in range(n - 1):
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                _child(tasks, queue, block, write_end)
            os.close(write_end)
            pipes[pid] = read_end
        shares = [_share(tasks, queue, block)]
        for pid, read_end in pipes.items():
            with open(read_end, "rb", closefd=False) as fh:
                blobs[pid] = fh.read()
    except BaseException:
        for pid in pipes:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(queue)
        for pid, read_end in pipes.items():
            os.close(read_end)
            statuses[pid] = os.waitpid(pid, 0)[1]

    for pid, blob in blobs.items():
        if blob:
            shares.append(pickle.loads(blob))
        else:
            code = os.waitstatus_to_exitcode(statuses[pid])
            how = (f"was killed by {signal.Signals(-code).name}" if code < 0
                   else f"exited with code {code}")
            shares.append(([], (math.inf, RuntimeError(
                f"worker process {pid} {how} without sending its results"))))
    results = [None] * len(tasks)
    failures = []
    for done, failure in shares:
        for index, result in done:
            results[index] = result
        if failure is not None:
            failures.append(failure)
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return results, n


def _share(tasks: list, queue: int, block: int) -> tuple[list, tuple | None]:
    """Run tasks from the queue until it is empty or one raises: the
    (index, result) pairs, and (index, exception) for the task that raised,
    if one did."""
    done = []
    while entry := os.read(queue, 4):
        start = int.from_bytes(entry, "little")
        for index in range(start, min(start + block, len(tasks))):
            try:
                done.append((index, tasks[index]()))
            except Exception as exc:
                return done, (index, exc)
    return done, None


def _child(tasks: list, queue: int, block: int, write_end: int):
    """A forked worker's whole life: run its share, send it, ``os._exit``."""
    code = 1
    try:
        share = _share(tasks, queue, block)
        try:
            blob = pickle.dumps(share)
        except Exception as exc:
            blob = pickle.dumps(([], (math.inf, RuntimeError(
                f"worker process could not send its results: {exc!r}"))))
        with open(write_end, "wb") as fh:
            fh.write(blob)
        code = 0
    finally:
        os._exit(code)


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
    results, processes = _run_tasks([functools.partial(fit_one, *run)
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
                     "metrics.json": metrics}, metrics, processes=processes)


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
        _require(self.seed >= 0, "seed must be >= 0")


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
    stacks, processes = _run_tasks(tasks)
    # the sub-stacks' score rows, in assignment order
    scores = (row for stack in stacks for row in stack)

    for family, assignments in searches:
        result = grid_search(assignments, [next(scores) for _ in assignments])
        for row in result.rows:
            rows.append([family,
                         row["lr"], row["weight_decay"],
                         row.get("dropout_p", ""), row.get("noise_level", ""),
                         row.get("alpha_init", ""),
                         row["val_loss"], row["test_rmse"], row["test_nll"],
                         row["test_picp"], row["test_mpiw"]])
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
                    inputs={"data": Path(cfg.data)}, processes=processes)


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

    results, processes = _run_tasks([functools.partial(sweep_one, seed)
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
                    metrics, processes=processes)


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
        _require(self.batch >= 1, "batch must be >= 1")
        _require(self.input_dim >= 1, "input_dim must be >= 1")
        _require(self.reps >= 2, "reps must be >= 2 to report a std")
        _require(all(t >= 1 for t in self.t_list), "passes must be >= 1")
        _require(len(self.t_list) >= 1, "t_list must be non-empty")
        _require(len(set(self.t_list)) == len(self.t_list),
                 f"t_list repeats: {list(self.t_list)}")
        _require(len(self.hidden) >= 1 and all(h >= 1 for h in self.hidden),
                 "hidden must list at least one width, each >= 1")
        _require(self.noise_level >= 0, "noise_level must be >= 0")
        _require(0 <= self.dropout_p < 1, "dropout_p must be in [0, 1)")
        _require_families(self.families)
        _require(self.seed >= 0, "seed must be >= 0")


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
