"""The three workloads: pinned inputs, one call into mcni, and its checks.

Each workload is built from the workload seed, sets itself up (inputs,
networks, independent references) and then serves identical calls. ``call``
is what gets timed; ``check`` runs after it, untimed, and returns a list of
problems. ``final_checks`` runs once per run, after the timed calls.
Functions are looked up on their modules at call time, so that the
tracer's wrappers are reached when they are installed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

import checks

DATA = "datasets/synth_regression.csv"
OUT = Path("perfbench/out")
WARMUP = 1 << 20     # call index of the warm-up call; timed calls count from 0


class Workload:
    """Defaults: a full call as warm-up, no digest, no once-per-run checks."""

    name = ""
    items_per_call = 0
    first_digest = None      # (call index, manifest digest) where there is one

    def warmup(self) -> None:
        self.call(WARMUP)

    def call(self, j: int):
        raise NotImplementedError

    def check(self, j: int, out) -> list[str]:
        raise NotImplementedError

    def final_checks(self) -> list[str]:
        return []


class FitGrid(Workload):
    """``mcni benchmark`` through ``mcni.cli.main`` on a pinned small grid."""

    name = "fit_grid"
    GRID = {"lr_grid": "0.005", "weight_decay_grid": "1e-5,1e-9",
            "dropout_grid": "0.01,0.05", "noise_grid": "0.01,0.05",
            "alpha_init_grid": "0.01,0.05"}
    SMALL_GRID = {"lr_grid": "0.005", "weight_decay_grid": "1e-5",
                  "dropout_grid": "0.01", "noise_grid": "0.01",
                  "alpha_init_grid": "0.01"}
    EPOCHS, SMALL_EPOCHS = 20, 10
    PASSES = 20
    BATCH = 32
    TRAIN_FRACTION = 0.8

    def __init__(self, seed: int, small: bool):
        import mcni.cli
        self.cli = mcni.cli
        self.seed = seed
        self.grid = self.SMALL_GRID if small else self.GRID
        self.epochs = self.SMALL_EPOCHS if small else self.EPOCHS
        self.outdir = OUT / self.name / "call"
        table = np.loadtxt(DATA, delimiter=",", skiprows=1)
        self.floor = checks.least_squares_floor(table)
        n_lr = len(self.grid["lr_grid"].split(","))
        n_wd = len(self.grid["weight_decay_grid"].split(","))
        extra = sum(len(self.grid[k].split(",")) for k in
                    ("dropout_grid", "noise_grid", "alpha_init_grid"))
        self.n_configs = n_lr * n_wd * (1 + extra)
        n_train = int(round(self.TRAIN_FRACTION * len(table)))
        self.items_per_call = (self.n_configs * self.epochs
                               * math.ceil(n_train / self.BATCH))

    def argv(self, call_seed: int, outdir: Path, epochs: int) -> list[str]:
        argv = ["benchmark", "--data", DATA, "--outdir", str(outdir),
                "--seed", str(call_seed), "--passes", str(self.PASSES),
                "--set", f"max_epochs={epochs}", "--set", "patience=0",
                "--set", f"batch_size={self.BATCH}"]
        for key, value in self.grid.items():
            argv += ["--set", f"{key}={value}"]
        return argv

    def call_seed(self, j: int) -> int:
        return 1000 * self.seed + j

    def _run(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.cli.main(argv)
        return rc, buf.getvalue()

    def warmup(self) -> None:
        # one epoch of the same grid: every code path, a fraction of the work
        outdir = OUT / self.name / "warmup"
        rc, _ = self._run(self.argv(self.call_seed(0), outdir, 1))
        if rc != 0:
            raise RuntimeError(f"warm-up benchmark run exited {rc}")
        shutil.rmtree(outdir, ignore_errors=True)

    def call(self, j: int):
        return self._run(self.argv(self.call_seed(j), self.outdir, self.epochs))

    def check(self, j: int, out) -> list[str]:
        rc, stdout = out
        if rc != 0:
            return [f"mcni benchmark exited {rc}"]
        digest = digest_of(stdout)
        if digest is None:
            return ["no manifest digest printed"]
        with open(self.outdir / "leaderboard.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        with open(self.outdir / "metrics.json") as fh:
            families = json.load(fh)["families"]
        if self.first_digest is None:
            self.first_digest = (j, digest)
        return checks.check_fit_grid(rows, families, self.floor, self.n_configs)

    def repeat_check(self, j: int, digest: str) -> list[str]:
        """Repeat call j (its seed, its outdir) and compare manifest digests."""
        rc, stdout = self.call(j)
        if rc != 0:
            return [f"repeat of call {j} exited {rc}"]
        return checks.check_digest(digest, digest_of(stdout) or "")


def digest_of(stdout: str):
    for line in stdout.splitlines():
        if line.startswith("manifest digest"):
            return line.rsplit(":", 1)[1].strip()
    return None


class McPredict(Workload):
    """``mc_predict`` + ``summarize_regression`` on one noise_fixed ReLU net."""

    name = "mc_predict"
    SHAPE = (10, (50, 50), 1)
    BATCH, T = 500, 100
    SMALL_BATCH, SMALL_T = 100, 10
    ALPHA = 0.05
    ID_ROWS, ID_T, SMALL_ID_T = 8, 20000, 2000

    def __init__(self, seed: int, small: bool):
        import mcni.mc
        import mcni.models
        import mcni.nn
        import mcni.noise
        self.mc, self.models, self.nn, self.noise = (
            mcni.mc, mcni.models, mcni.nn, mcni.noise)
        self.seed = seed
        self.batch = self.SMALL_BATCH if small else self.BATCH
        self.T = self.SMALL_T if small else self.T
        self.id_T = self.SMALL_ID_T if small else self.ID_T
        self.X = np.random.default_rng([seed, 0]).standard_normal(
            (self.batch, self.SHAPE[0]))
        self.net = self._build(self.ALPHA)
        self.items_per_call = self.T * self.batch

    def _build(self, alpha: float):
        q, hidden, d = self.SHAPE
        return self.models.build_mlp("noise_fixed", q, list(hidden), d,
                                     rng=np.random.default_rng([self.seed, 1]),
                                     noise_level=alpha)

    def call(self, j: int):
        rng = np.random.default_rng([self.seed, 2, j])
        samples = self.mc.mc_predict(self.net, self.X, self.T, rng)
        summary = self.mc.summarize_regression(samples)
        return samples.values, summary.mean, summary.variance

    def check(self, j: int, out) -> list[str]:
        return checks.check_summary(*out)

    def final_checks(self) -> list[str]:
        problems = []
        # alpha = 0 twin: same weights (same build stream), noise scaled away
        twin = self._build(0.0)
        rng = np.random.default_rng([self.seed, 3])
        summ = self.mc.summarize_regression(
            self.mc.mc_predict(twin, self.X, self.T, rng))
        layers = [(l.W, l.b) for l in twin.layers]
        problems += checks.check_zero_noise(summ.mean, summ.variance,
                                            checks.relu_forward(layers, self.X))
        # one identity noisy layer: variance has a closed form
        q = self.SHAPE[0]
        spec = self.noise.NoiseSpec(mode="fixed", alpha_init=self.ALPHA)
        layer = self.noise.NoisyDenseLayer.create(
            q, 1, "identity", np.random.default_rng([self.seed, 4]), spec=spec)
        net = self.nn.Network([layer])
        X = np.random.default_rng([self.seed, 5]).standard_normal((self.ID_ROWS, q))
        summ = self.mc.summarize_regression(
            self.mc.mc_predict(net, X, self.id_T,
                               np.random.default_rng([self.seed, 6])))
        problems += checks.check_identity_variance(summ.variance, X, layer.W,
                                                   self.ALPHA, self.id_T)
        return problems


class GpCheck(Workload):
    """``correspondence_report`` for ReLU at default probes and widths."""

    name = "gp_check"
    PROBES = ((1.0, 0.5), (0.8, 0.6), (0.6, 1.0))
    WIDTHS, SMALL_WIDTHS = (64, 512, 4096), (16, 64)
    N_NETWORKS = 1000
    N_SAMPLES, SMALL_N_SAMPLES = 1_000_000, 100_000
    BIAS_STD = 1.0

    def __init__(self, seed: int, small: bool):
        import mcni.gpcheck
        self.gp = mcni.gpcheck
        self.seed = seed
        self.widths = self.SMALL_WIDTHS if small else self.WIDTHS
        # full network count even in small mode: the covariance check's
        # standard error, and so its power, depends on it
        self.n_networks = self.N_NETWORKS
        self.n_samples = self.SMALL_N_SAMPLES if small else self.N_SAMPLES
        self.probe = self.gp.WideNetProbe(width=max(self.widths),
                                          n_networks=self.n_networks,
                                          probe_inputs=self.PROBES)
        self.cfg = self.gp.KernelMCConfig(n_samples=self.n_samples,
                                          nonlinearity="relu",
                                          bias_std=self.BIAS_STD,
                                          input_dim=len(self.PROBES[0]))
        self.items_per_call = self.n_networks * sum(self.widths)

    def call(self, j: int):
        return self.gp.correspondence_report(
            self.probe, self.cfg, np.random.default_rng([self.seed, 7, j]),
            widths=self.widths)

    def check(self, j: int, report) -> list[str]:
        return checks.check_correspondence(
            report.kernel, report.covariance, report.convergence, self.PROBES,
            self.BIAS_STD, self.n_samples, self.n_networks, self.widths)


WORKLOADS = {w.name: w for w in (FitGrid, McPredict, GpCheck)}
