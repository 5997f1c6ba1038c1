"""Experiment drivers: file layout, metrics schema, reproducibility."""

import ast
import errno
import functools
import json
import math
import os
import platform
import signal
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import mcni
import mcni.experiments
from mcni.cli import EXIT_DATA, main
from mcni.data import DataError, load_csv, split, standardize_fit_apply
from mcni.experiments import (BenchmarkConfig, ConfigError, GpCheckConfig,
                              RiskCovConfig, SweepConfig, TimingConfig,
                              ToyConfig, _family_grid,
                              corrupted_predict, gen_blobs, run_bench_time,
                              run_benchmark, run_gpcheck,
                              run_noise_sweep, run_riskcov, run_toy,
                              spearman_rho)
from mcni.mc import mc_predict, summarize_regression
from mcni.metrics import mpiw, msll, nll_gaussian, picp, rmse
from mcni.models import build_mlp
from mcni.nn import softmax
from mcni.optim import TrainConfig, fit
from mcni.runio import jsonable
from mcni import workers
from mcni.workers import run_tasks

from conftest import assert_no_child_left, fake_cpus
from oracles import benchmark_oracle, spearman_oracle


# ---------------------------------------------------------------------------
# spearman

def test_spearman_perfect_monotone():
    assert spearman_rho([1, 2, 3, 4], [10, 20, 30, 40]) == 1.0
    assert spearman_rho([1, 2, 3, 4], [5, 3, 2, 1]) == -1.0


def test_spearman_constant_input_is_zero():
    assert spearman_rho([1.0, 1.0, 1.0], [3.0, 1.0, 2.0]) == 0.0


def test_spearman_matches_oracle_with_ties():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(3, 12))
        xs = rng.integers(0, 4, size=n).astype(float)  # ties likely
        ys = rng.integers(0, 4, size=n).astype(float)
        assert spearman_rho(xs, ys) == pytest.approx(spearman_oracle(xs, ys),
                                                     abs=1e-12)


def test_spearman_shape_validation():
    with pytest.raises(ValueError):
        spearman_rho([1.0, 2.0], [1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# toy

def tiny_toy(tmp_path, **kw):
    base = dict(outdir=str(tmp_path / "toy"), n_points=8, hidden=4, epochs=3,
                passes=5, seeds=(0, 1))
    base.update(kw)
    return ToyConfig(**base)


def test_toy_run_files_and_schema(tmp_path):
    out = run_toy(tiny_toy(tmp_path))
    for name in ("predictions.csv", "intervals.csv", "metrics.json"):
        assert out.files[name].exists()

    lines = out.files["predictions.csv"].read_text().splitlines()
    assert lines[0] == "seed,model,x,y,mean,sigma"
    assert len(lines) == 1 + 8 * 3 * 2  # points x models x seeds

    metrics = json.loads(out.files["metrics.json"].read_text())
    comp = metrics["comparison"]
    assert comp["n_seeds"] == 2
    assert 0 <= comp["mpiw_wins_fixed_vs_dropout"] <= 2
    assert 0 <= comp["picp_wins_fixed_vs_dropout"] <= 2
    for model in ("noise_fixed", "noise_learned", "mc_dropout"):
        mean = metrics["models"][model]["mean"]
        assert 0.0 <= mean["picp"] <= 1.0
        assert mean["mpiw"] >= 0.0


def test_toy_rerun_is_byte_identical(tmp_path):
    a = run_toy(tiny_toy(tmp_path / "a", seeds=(0,)))
    b = run_toy(tiny_toy(tmp_path / "b", seeds=(0,)))
    assert (a.files["predictions.csv"].read_bytes()
            == b.files["predictions.csv"].read_bytes())
    assert (a.files["metrics.json"].read_bytes()
            == b.files["metrics.json"].read_bytes())


def test_toy_config_validation():
    with pytest.raises(ConfigError):
        ToyConfig(passes=0).validate()
    with pytest.raises(ConfigError):
        ToyConfig(dropout_p=1.0).validate()
    with pytest.raises(ConfigError):
        ToyConfig(seeds=()).validate()


# ---------------------------------------------------------------------------
# benchmark

def write_regression_csv(path, n=40, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 2))
    y = 1.5 * X[:, 0] - 0.7 * X[:, 1] + 0.1 * rng.normal(size=n)
    lines = ["x0,x1,y"]
    for i in range(n):
        lines.append(f"{float(X[i, 0])!r},{float(X[i, 1])!r},{float(y[i])!r}")
    path.write_text("\n".join(lines) + "\n")
    return path


def tiny_benchmark(tmp_path, **kw):
    data = write_regression_csv(tmp_path / "reg.csv")
    base = dict(data=str(data), outdir=str(tmp_path / "bench"), hidden=(4,),
                lr_grid=(0.01,), weight_decay_grid=(1e-6,),
                dropout_grid=(0.1,), noise_grid=(0.05,),
                alpha_init_grid=(0.05,), max_epochs=3, patience=0, passes=4)
    base.update(kw)
    return BenchmarkConfig(**base)


def test_benchmark_single_config_grid(tmp_path):
    out = run_benchmark(tiny_benchmark(tmp_path))
    lines = out.files["leaderboard.csv"].read_text().splitlines()
    assert lines[0].startswith("family,lr,weight_decay")
    assert len(lines) == 5  # header + one row per family
    assert [l.split(",")[0] for l in lines[1:]] == [
        "deterministic", "mc_dropout", "noise_fixed", "noise_learned"]

    fams = out.metrics["families"]
    for family, entry in fams.items():
        assert np.isfinite(entry["test_rmse"])
        assert np.isfinite(entry["msll_vs_mc_dropout"])
    assert fams["mc_dropout"]["msll_vs_mc_dropout"] == 0.0
    assert out.metrics["rmse_ratio_fixed_vs_deterministic"] > 0.0


def test_benchmark_zero_noise_reduces_to_deterministic(tmp_path):
    cfg = tiny_benchmark(tmp_path, families=("deterministic", "noise_fixed"),
                         noise_grid=(0.0,), max_epochs=5)
    out = run_benchmark(cfg)
    fams = out.metrics["families"]
    det = fams["deterministic"]["test_rmse"]
    fx = fams["noise_fixed"]["test_rmse"]
    assert abs(det - fx) < 1e-9
    assert out.metrics["rmse_ratio_fixed_vs_deterministic"] == pytest.approx(
        1.0, abs=1e-9)
    assert "msll_vs_mc_dropout" not in fams["deterministic"]


def test_benchmark_ratio_is_none_at_zero_deterministic_rmse(tmp_path,
                                                            monkeypatch):
    monkeypatch.setattr(mcni.experiments, "rmse", lambda pred, target: 0.0)
    out = run_benchmark(tiny_benchmark(
        tmp_path, families=("deterministic", "noise_fixed")))
    assert out.metrics["families"]["deterministic"]["test_rmse"] == 0.0
    assert out.metrics["rmse_ratio_fixed_vs_deterministic"] is None
    saved = json.loads(out.files["metrics.json"].read_text())
    assert saved["rmse_ratio_fixed_vs_deterministic"] is None


def test_benchmark_matches_per_config_oracle(tmp_path):
    """Each family's grid is trained as one stack; its files must equal a
    search that builds, fits and scores one config at a time."""
    cfg = tiny_benchmark(tmp_path, hidden=(5,), lr_grid=(0.05, 0.01),
                         weight_decay_grid=(1e-6, 0.0), dropout_grid=(0.1, 0.3),
                         noise_grid=(0.05, 0.2), alpha_init_grid=(0.05, 0.1),
                         max_epochs=12, patience=2, passes=6, seed=3)
    out = run_benchmark(cfg)

    data = load_csv(cfg.data, target=cfg.target, task="regression")
    train, val, test = standardize_fit_apply(
        *split(data, cfg.split_fractions, seed=cfg.seed))
    knob = {"mc_dropout": "dropout_p", "noise_fixed": "noise_level",
            "noise_learned": "alpha_init"}
    epochs = []

    def evaluate_one(family, config, rng):
        build_rng, fit_rng, mc_rng = rng.spawn(3)
        kwargs = {}
        if family == "mc_dropout":
            kwargs["dropout_p"] = config["dropout_p"]
        elif family != "deterministic":
            kwargs["noise_level"] = config[knob[family]]
        net = build_mlp(family, train.X.shape[1], list(cfg.hidden), 1,
                        rng=build_rng, **kwargs)
        tc = TrainConfig(lr=config["lr"], weight_decay=config["weight_decay"],
                         max_epochs=cfg.max_epochs, batch_size=cfg.batch_size,
                         patience=cfg.patience, val_passes=cfg.val_passes)
        result = fit(net, train.X, train.Y, tc, val.X, val.Y, rng=fit_rng)
        epochs.append(result.epochs_run)
        summ = summarize_regression(mc_predict(net, test.X, cfg.passes, mc_rng))
        y, mean, sigma = test.Y[:, 0], summ.mean[:, 0], summ.sigma[:, 0]
        nll = nll_gaussian(y, mean, sigma)
        return {"val_loss": result.best_val_loss, "test_rmse": rmse(mean, y),
                "test_nll": nll.total,
                "test_picp": picp(y, summ.lower[:, 0], summ.upper[:, 0]),
                "test_mpiw": mpiw(summ.lower[:, 0], summ.upper[:, 0]),
                "nll": nll.per_point}

    rows, best = benchmark_oracle(
        {f: _family_grid(cfg, f) for f in cfg.families}, cfg.seed,
        np.random.default_rng, evaluate_one)
    assert len(set(epochs)) > 1            # early stops compact the stacks

    lines = out.files["leaderboard.csv"].read_text().splitlines()
    expected = ["family,lr,weight_decay,dropout_p,noise_level,alpha_init,"
                "val_loss,test_rmse,test_nll,test_picp,test_mpiw"]
    for family, _, assignment, r in rows:
        cells = [family, assignment["lr"], assignment["weight_decay"]]
        cells += [assignment.get(k, "") for k in
                  ("dropout_p", "noise_level", "alpha_init")]
        cells += [r[k] for k in ("val_loss", "test_rmse", "test_nll",
                                 "test_picp", "test_mpiw")]
        expected.append(",".join(c if isinstance(c, str) else repr(float(c))
                                 for c in cells))
    assert lines == expected

    families = json.loads(out.files["metrics.json"].read_text())["families"]
    baseline = best["mc_dropout"][3]["nll"]
    assert list(families) == list(cfg.families)
    for family, (_, idx, assignment, r) in best.items():
        want = {"config_index": idx, **assignment,
                **{k: v for k, v in r.items() if k != "nll"},
                "msll_vs_mc_dropout": msll(r["nll"], baseline)}
        assert families[family] == want, family


def test_benchmark_sub_stacks_equal_one_stack(tmp_path, monkeypatch):
    """A family's grid is fitted in sub-stacks of bounded size; the files
    are byte-identical to one stack per family."""
    kw = dict(hidden=(5,), lr_grid=(0.05, 0.01, 0.02),
              weight_decay_grid=(1e-6,), dropout_grid=(0.1,),
              noise_grid=(0.05,), alpha_init_grid=(0.05,), max_epochs=8,
              patience=2, passes=5, seed=4)
    for side in ("whole", "split"):
        (tmp_path / side).mkdir()
    whole = run_benchmark(tiny_benchmark(tmp_path / "whole", **kw))

    sizes = []
    fit_stack = mcni.experiments.fit

    def counting_fit(nets, *args, **kwargs):
        sizes.append(len(nets))
        return fit_stack(nets, *args, **kwargs)

    monkeypatch.setattr(mcni.experiments, "fit", counting_fit)
    monkeypatch.setattr(mcni.experiments, "_STACK_MEMBERS", 2)
    fake_cpus(monkeypatch, 1)          # a forked worker's fits are not counted
    split_run = run_benchmark(tiny_benchmark(tmp_path / "split", **kw))
    assert sizes == [2, 1] * 4                  # three configs per family
    for name in ("leaderboard.csv", "metrics.json"):
        a = whole.files[name].read_text().replace(str(tmp_path / "whole"), "")
        b = split_run.files[name].read_text().replace(str(tmp_path / "split"), "")
        assert a == b, name


def assert_same_files_at_any_cpu_count(tmp_path, monkeypatch, run, make_cfg,
                                       names, n_tasks):
    """The run's files at 1 CPU equal those at 2 and 8, and the manifest
    names the worker processes each run used."""
    texts = {}
    for cpus in (1, 2, 8):
        fake_cpus(monkeypatch, cpus)
        (tmp_path / f"cpus{cpus}").mkdir()
        out = run(make_cfg(tmp_path / f"cpus{cpus}"))
        texts[cpus] = [out.files[name].read_text().replace(
            str(tmp_path / f"cpus{cpus}"), "") for name in names]
        env = json.loads(out.files["manifest.json"].read_text())["environment"]
        assert env["usable_cpus"] == cpus
        assert env["worker_processes"] == min(cpus, n_tasks)
    assert texts[2] == texts[1]
    assert texts[8] == texts[1]


def test_benchmark_files_equal_at_any_cpu_count(tmp_path, monkeypatch):
    # three configs per family in sub-stacks of 2: eight tasks
    monkeypatch.setattr(mcni.experiments, "_STACK_MEMBERS", 2)
    kw = dict(hidden=(5,), lr_grid=(0.05, 0.01, 0.02), max_epochs=6,
              patience=2, passes=5, seed=3)
    assert_same_files_at_any_cpu_count(
        tmp_path, monkeypatch, run_benchmark,
        lambda path: tiny_benchmark(path, **kw),
        ("leaderboard.csv", "metrics.json"), n_tasks=8)


def test_toy_files_equal_at_any_cpu_count(tmp_path, monkeypatch):
    assert_same_files_at_any_cpu_count(
        tmp_path, monkeypatch, run_toy, tiny_toy,
        ("predictions.csv", "intervals.csv", "metrics.json"), n_tasks=6)


def test_sweep_files_equal_at_any_cpu_count(tmp_path, monkeypatch):
    assert_same_files_at_any_cpu_count(
        tmp_path, monkeypatch, run_noise_sweep,
        lambda path: tiny_sweep(path, seeds=(0, 1, 2)),
        ("sweep.csv", "metrics.json"), n_tasks=3)


def test_gpcheck_files_equal_at_any_cpu_count(tmp_path, monkeypatch):
    # 1e6 // (6 * 4096) = 40 networks a chunk: three chunks at width 4096,
    # one at width 8
    assert_same_files_at_any_cpu_count(
        tmp_path, monkeypatch, run_gpcheck,
        lambda path: GpCheckConfig(outdir=str(path), n_networks=90, width=4096,
                                   widths=(8, 4096),
                                   probes=((1.0, 0.5), (0.8, 0.6))),
        ("convergence.csv", "metrics.json"), n_tasks=3)


def test_benchmark_config_validation(tmp_path):
    with pytest.raises(ConfigError):
        BenchmarkConfig(data="").validate()
    with pytest.raises(ConfigError):
        BenchmarkConfig(data="x.csv", passes=1).validate()
    with pytest.raises(ConfigError):
        BenchmarkConfig(data="x.csv", families=("svm",)).validate()
    with pytest.raises(ConfigError):
        BenchmarkConfig(data="x.csv", lr_grid=()).validate()


def test_benchmark_missing_data_file(tmp_path):
    cfg = tiny_benchmark(tmp_path)
    cfg.data = str(tmp_path / "absent.csv")
    with pytest.raises(DataError):
        run_benchmark(cfg)


# ---------------------------------------------------------------------------
# riskcov

def write_riskcov_files(tmp_path, pred, target, unc):
    pred_path = tmp_path / "pred.csv"
    unc_path = tmp_path / "unc.csv"
    pred_path.write_text("pred,target\n" + "".join(
        f"{p!r},{t!r}\n" for p, t in zip(pred, target)))
    unc_path.write_text("uncertainty\n" + "".join(f"{u!r}\n" for u in unc))
    return pred_path, unc_path


def test_riskcov_rmse_hand_case(tmp_path):
    pred_path, unc_path = write_riskcov_files(
        tmp_path, pred=[1.0, 2.0, 3.0, 4.0], target=[1.0, 2.5, 3.0, 2.0],
        unc=[0.1, 0.2, 0.3, 0.4])
    cfg = RiskCovConfig(pred_file=str(pred_path), unc_file=str(unc_path),
                        coverage_grid=(0.25, 0.5, 0.75, 1.0),
                        outdir=str(tmp_path / "rc"))
    out = run_riskcov(cfg)
    lines = out.files["curve.csv"].read_text().splitlines()
    assert lines[0] == "coverage,risk"
    risks = [float(l.split(",")[1]) for l in lines[1:]]
    expected = [0.0, np.sqrt(0.125), np.sqrt(0.25 / 3), np.sqrt(4.25 / 4)]
    assert np.allclose(risks, expected, atol=1e-12)
    assert out.metrics["risk_at_full_coverage"] == pytest.approx(expected[-1])
    assert out.metrics["n_points"] == 4


def test_manifest_environment_block(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    # a command whose chunks run on 2 processes (100 networks at width 4096
    # are 3 chunks) first: the next command's count starts again from 1
    fake_cpus(monkeypatch, 2)
    gp = run_gpcheck(GpCheckConfig(outdir=str(tmp_path / "gp"), n_networks=100,
                                   width=4096, widths=(4096,)))
    gp_env = json.loads(gp.files["manifest.json"].read_text())["environment"]
    assert gp_env["worker_processes"] == 2
    pred_path, unc_path = write_riskcov_files(
        tmp_path, pred=[1.0, 2.0], target=[1.0, 2.5], unc=[0.1, 0.2])
    out = run_riskcov(RiskCovConfig(pred_file=str(pred_path),
                                    unc_file=str(unc_path),
                                    outdir=str(tmp_path / "rc")))
    env = json.loads(out.files["manifest.json"].read_text())["environment"]
    assert env["mcni"] == mcni.__version__
    assert env["python"] == platform.python_version()
    assert env["numpy"] == np.__version__
    assert env["usable_cpus"] == len(os.sched_getaffinity(0))
    assert env["worker_processes"] == 1            # riskcov fits nothing
    assert env["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
    assert env["blas_threads"]["OMP_NUM_THREADS"] is None


def test_riskcov_error_rate_counts_mismatches(tmp_path):
    pred_path, unc_path = write_riskcov_files(
        tmp_path, pred=[1.0, 0.0, 1.0], target=[1.0, 1.0, 1.0],
        unc=[0.1, 0.5, 0.3])
    cfg = RiskCovConfig(pred_file=str(pred_path), unc_file=str(unc_path),
                        risk_kind="error_rate",
                        coverage_grid=(1 / 3, 2 / 3, 1.0),
                        outdir=str(tmp_path / "rc"))
    out = run_riskcov(cfg)
    lines = out.files["curve.csv"].read_text().splitlines()[1:]
    risks = [float(l.split(",")[1]) for l in lines]
    assert risks == pytest.approx([0.0, 0.0, 1 / 3], abs=1e-12)


def test_riskcov_misaligned_inputs(tmp_path):
    pred_path, unc_path = write_riskcov_files(
        tmp_path, pred=[1.0, 2.0], target=[1.0, 2.0], unc=[0.1, 0.2, 0.3])
    cfg = RiskCovConfig(pred_file=str(pred_path), unc_file=str(unc_path),
                        outdir=str(tmp_path / "rc"))
    with pytest.raises(DataError, match="misaligned"):
        run_riskcov(cfg)


def test_riskcov_missing_column(tmp_path):
    pred_path = tmp_path / "pred.csv"
    pred_path.write_text("prediction,target\n1.0,1.0\n")
    unc_path = tmp_path / "unc.csv"
    unc_path.write_text("uncertainty\n0.1\n")
    cfg = RiskCovConfig(pred_file=str(pred_path), unc_file=str(unc_path),
                        outdir=str(tmp_path / "rc"))
    with pytest.raises(DataError, match="pred"):
        run_riskcov(cfg)


def test_riskcov_non_numeric_cell_names_row(tmp_path):
    pred_path = tmp_path / "pred.csv"
    pred_path.write_text("pred,target\n1.0,1.0\nbad,2.0\n")
    unc_path = tmp_path / "unc.csv"
    unc_path.write_text("uncertainty\n0.1\n0.2\n")
    cfg = RiskCovConfig(pred_file=str(pred_path), unc_file=str(unc_path),
                        outdir=str(tmp_path / "rc"))
    with pytest.raises(DataError, match="row 3"):
        run_riskcov(cfg)


def test_riskcov_config_validation():
    with pytest.raises(ConfigError):
        RiskCovConfig(pred_file="", unc_file="u").validate()
    with pytest.raises(ConfigError):
        RiskCovConfig(pred_file="p", unc_file="u", risk_kind="mae").validate()


# ---------------------------------------------------------------------------
# noise sweep

def test_blobs_balanced_and_reproducible():
    X, y = gen_blobs(10, [0, 11])
    X2, y2 = gen_blobs(10, [0, 11])
    assert np.array_equal(X, X2) and np.array_equal(y, y2)
    assert y.sum() == 5
    assert X.shape == (10, 2)


def test_corrupted_predict_sigma_zero_matches_clean_passes():
    net = build_mlp("noise_fixed", 2, [4], 2, task="classification",
                    rng=np.random.default_rng(1), noise_level=0.05)
    X = np.random.default_rng(2).normal(size=(6, 2))
    got = corrupted_predict(net, X, 0.0, 4, np.random.default_rng(42))

    # same stream arithmetic, corruption skipped by hand
    expected = []
    for stream in np.random.default_rng(42).spawn(4):
        _, pass_rng = stream.spawn(2)
        out, _ = net.forward(X, rng=pass_rng)
        expected.append(softmax(out))
    assert np.array_equal(got.values, np.asarray(expected))


def test_corrupted_predict_positive_sigma_changes_passes():
    net = build_mlp("noise_fixed", 2, [4], 2, task="classification",
                    rng=np.random.default_rng(1), noise_level=0.0)
    X = np.zeros((3, 2))
    got = corrupted_predict(net, X, 1.0, 3, np.random.default_rng(5))
    assert not np.array_equal(got.values[0], got.values[1])


def tiny_sweep(tmp_path, **kw):
    base = dict(outdir=str(tmp_path / "sweep"), sigmas=(0.0, 0.5), passes=3,
                n_eval=4, n_train=16, hidden=(4,), epochs=2, seeds=(0,))
    base.update(kw)
    return SweepConfig(**base)


def test_sweep_files_and_schema(tmp_path):
    out = run_noise_sweep(tiny_sweep(tmp_path))
    lines = out.files["sweep.csv"].read_text().splitlines()
    assert lines[0] == "seed,sigma,point,label,predicted,entropy,mean_p0,mean_p1"
    assert len(lines) == 1 + 4 * 2  # points x sigmas

    seed0 = out.metrics["per_seed"]["0"]
    assert len(seed0["mean_entropy_per_sigma"]) == 2
    assert -1.0 <= seed0["spearman_rho"] <= 1.0
    assert -1.0 <= out.metrics["mean_spearman_rho"] <= 1.0


def test_sweep_rerun_is_byte_identical(tmp_path):
    a = run_noise_sweep(tiny_sweep(tmp_path / "a"))
    b = run_noise_sweep(tiny_sweep(tmp_path / "b"))
    assert a.files["sweep.csv"].read_bytes() == b.files["sweep.csv"].read_bytes()
    assert (a.files["metrics.json"].read_bytes()
            == b.files["metrics.json"].read_bytes())


def test_sweep_config_validation():
    with pytest.raises(ConfigError):
        SweepConfig(sigmas=(0.1,)).validate()
    with pytest.raises(ConfigError):
        SweepConfig(sigmas=(0.1, -0.2)).validate()
    with pytest.raises(ConfigError):
        SweepConfig(passes=1).validate()


# ---------------------------------------------------------------------------
# bench-time

def test_bench_time_rows_and_values(tmp_path):
    cfg = TimingConfig(outdir=str(tmp_path / "bt"), batch=16, input_dim=3,
                       hidden=(4,), t_list=(1, 2), reps=2)
    out = run_bench_time(cfg)
    # measurements ride in timings, keeping metrics deterministic
    assert list(out.timings) == [
        "total_s", "deterministic/T=1", "noise_fixed/T=1", "noise_fixed/T=2",
        "mc_dropout/T=1", "mc_dropout/T=2"]
    for key, measured in out.timings.items():
        if key == "total_s":
            continue
        assert list(measured) == ["mean_s", "std_s"], key
        assert all(math.isfinite(v) and v >= 0.0 for v in measured.values()), key
    assert out.metrics == {"batch": 16, "reps": 2,
                           "families": ["deterministic", "noise_fixed",
                                        "mc_dropout"],
                           "t_list": [1, 2]}


def test_bench_time_writes_its_timings_to_the_manifest_only(tmp_path):
    cfg = TimingConfig(outdir=str(tmp_path / "bt"), batch=4, input_dim=2,
                       hidden=(3,), t_list=(1, 3), reps=2)
    out = run_bench_time(cfg)
    assert list(out.files) == ["manifest.json"]
    assert sorted(p.name for p in (tmp_path / "bt").iterdir()) == ["manifest.json"]
    manifest = json.loads(out.files["manifest.json"].read_text())
    assert manifest["command"] == "bench-time"
    assert manifest["outputs"] == {}
    timings = manifest["timings"]
    assert "outputs" not in timings
    for key in ("deterministic/T=1", "noise_fixed/T=1", "noise_fixed/T=3",
                "mc_dropout/T=1", "mc_dropout/T=3"):
        # written as repr, so the manifest holds the measured values exactly
        assert timings[key] == out.timings[key], key


def test_bench_time_names_the_processes_its_passes_ran_on(tmp_path, monkeypatch):
    """At 2 CPUs, 100 passes of the default 10-50-50-1 net over 500 rows
    are several blocks, so the timed passes run on 2 processes; 10 passes
    are one block and run in the calling process."""
    fake_cpus(monkeypatch, 2)
    for t_list, processes in (((1, 10), 1), ((1, 100), 2)):
        out = run_bench_time(TimingConfig(outdir=str(tmp_path / f"bt{t_list[-1]}"),
                                          t_list=t_list, reps=2,
                                          families=("noise_fixed",)))
        env = json.loads(out.files["manifest.json"].read_text())["environment"]
        assert env["worker_processes"] == processes, t_list
        assert_no_child_left()


def test_bench_time_config_validation():
    with pytest.raises(ConfigError):
        TimingConfig(reps=1).validate()
    with pytest.raises(ConfigError):
        TimingConfig(t_list=()).validate()
    with pytest.raises(ConfigError):
        TimingConfig(families=("oracle",)).validate()


# ---------------------------------------------------------------------------
# gpcheck

def test_gpcheck_run_schema(tmp_path):
    cfg = GpCheckConfig(outdir=str(tmp_path / "gp"), n_samples=2000,
                        n_networks=50, width=16, widths=(8, 16),
                        probes=((1.0, 0.5), (0.8, 0.6)), seeds=(0, 1))
    out = run_gpcheck(cfg)
    lines = out.files["convergence.csv"].read_text().splitlines()
    assert lines[0] == "width,n_networks,max_rel_dev,seed"
    rows = [l.split(",") for l in lines[1:]]
    assert len(rows) == 4  # two widths x two seeds
    assert [(int(r[0]), int(r[3])) for r in rows] == [
        (8, 0), (16, 0), (8, 1), (16, 1)]
    for r in rows:
        assert int(r[1]) == 50
        assert float(r[2]) >= 0.0

    assert out.metrics["kernel"] == "closed_form"
    for seed in ("0", "1"):
        entry = out.metrics["per_seed"][seed]
        assert entry["max_rel_deviation"] >= 0.0
        for conv in entry["convergence"]:
            assert isinstance(conv["width"], int)
            assert isinstance(conv["max_rel_deviation"], float)


@pytest.mark.parametrize("nonlinearity,kernel", [
    ("relu", "closed_form"), ("identity", "closed_form"),
    ("tanh", "monte_carlo")])
def test_gpcheck_metrics_name_the_kernel(tmp_path, nonlinearity, kernel):
    cfg = GpCheckConfig(outdir=str(tmp_path / "gp"), nonlinearity=nonlinearity,
                        n_samples=500, n_networks=20, width=4, widths=(4,))
    out = run_gpcheck(cfg)
    assert out.metrics["kernel"] == kernel
    written = json.loads(out.files["metrics.json"].read_text())
    assert written["kernel"] == kernel


def test_gpcheck_config_validation():
    with pytest.raises(ConfigError):
        GpCheckConfig(nonlinearity="sigmoid").validate()
    with pytest.raises(ConfigError):
        GpCheckConfig(probes=((1.0,), (1.0, 0.5))).validate()
    with pytest.raises(ConfigError):
        GpCheckConfig(n_networks=1).validate()


def test_manifest_config_is_the_jsonable_config(tmp_path):
    cfg = GpCheckConfig(outdir=str(tmp_path / "gp"), n_samples=500,
                        n_networks=20, width=4, widths=(4,))
    out = run_gpcheck(cfg)
    config = json.loads(out.files["manifest.json"].read_text())["config"]
    assert config == jsonable(asdict(cfg))
    assert config["widths"] == [4] and config["n_networks"] == 20
    assert config["probes"] == [[1.0, 0.5], [0.8, 0.6], [0.6, 1.0]]


# ---------------------------------------------------------------------------
# determinism contract: every generator in the package is seeded by a caller

def unseeded_generators(package: Path) -> list[str]:
    """file:line of each default_rng() call with no seed, or a None seed."""
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            seeds = node.args + [k.value for k in node.keywords]
            if name == "default_rng" and (
                    not seeds or all(isinstance(a, ast.Constant) and a.value is None
                                     for a in seeds)):
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_no_unseeded_generator_in_package():
    package = Path(mcni.experiments.__file__).parent
    assert sorted(package.glob("*.py"))
    assert unseeded_generators(package) == []


# ---------------------------------------------------------------------------
# worker processes

def fail_with(exc):
    def task():
        raise exc
    return task


def test_run_tasks_keeps_task_order_and_leaves_no_child(monkeypatch, gate):
    fake_cpus(monkeypatch, 3)

    def task(i):
        gate.in_child()
        return i, os.getpid()

    monkeypatch.setattr(workers, "most_processes", 1)
    results = run_tasks([functools.partial(task, i) for i in range(7)])
    assert workers.most_processes == 3
    assert [i for i, _ in results] == list(range(7))
    pids = {pid for _, pid in results}
    assert len(pids - {os.getpid()}) in (1, 2)      # forked workers ran tasks
    assert_no_child_left()


@pytest.mark.parametrize("exc", [ValueError("bad value in a child"),
                                 DataError("bad data in a child")])
def test_run_tasks_raises_a_childs_exception_with_its_type(monkeypatch, gate,
                                                           exc):
    fake_cpus(monkeypatch, 2)

    def task():
        if gate.in_child():
            raise exc
        return 0

    with pytest.raises(type(exc), match="in a child") as info:
        run_tasks([task] * 3)
    assert type(info.value) is type(exc)
    assert_no_child_left()


def test_run_tasks_raises_the_lowest_failed_task(monkeypatch):
    fake_cpus(monkeypatch, 2)
    tasks = [lambda: 0, fail_with(DataError("task 1")),
             fail_with(ValueError("task 2"))]
    with pytest.raises(DataError, match="task 1"):
        run_tasks(tasks)
    assert_no_child_left()


def test_run_tasks_names_the_signal_that_killed_a_child(monkeypatch, gate):
    fake_cpus(monkeypatch, 2)

    def task():
        if gate.in_child():
            os.kill(os.getpid(), signal.SIGKILL)
        return 0

    with pytest.raises(RuntimeError, match="killed by SIGKILL"):
        run_tasks([task] * 2)
    assert_no_child_left()


def test_a_failed_fork_closes_its_result_pipe(monkeypatch):
    """At 3 CPUs the second fork raises (EAGAIN, as under a process limit):
    the call raises that error, leaves no file descriptor open and reaps
    the child that the first fork started."""
    fake_cpus(monkeypatch, 3)
    forks = []
    real_fork = os.fork

    def failing_fork():
        forks.append(None)
        if len(forks) == 2:
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return real_fork()

    monkeypatch.setattr(os, "fork", failing_fork)
    before = set(os.listdir("/proc/self/fd"))
    with pytest.raises(BlockingIOError):
        run_tasks([functools.partial(int, i) for i in range(3)])
    assert len(forks) == 2
    assert set(os.listdir("/proc/self/fd")) == before
    assert_no_child_left()


def test_child_error_keeps_its_cli_exit_code(tmp_path, monkeypatch, capsys,
                                             gate):
    def failing_fit(nets, *args, **kwargs):
        if gate.in_child():
            raise DataError("bad rows in a forked fit")
        return fit(nets, *args, **kwargs)

    fake_cpus(monkeypatch, 2)
    monkeypatch.setattr(mcni.experiments, "fit", failing_fit)
    monkeypatch.setattr(mcni.experiments, "_STACK_MEMBERS", 2)
    data = write_regression_csv(tmp_path / "reg.csv")
    argv = ["benchmark", "--data", str(data), "--outdir", str(tmp_path / "out"),
            "--set", "hidden=4", "--set", "lr_grid=0.05,0.01,0.02",
            "--set", "max_epochs=2", "--set", "passes=3"]
    assert main(argv) == EXIT_DATA
    assert "bad rows in a forked fit" in capsys.readouterr().err
    assert not (tmp_path / "out" / "manifest.json").exists()
    assert_no_child_left()


def test_nested_run_tasks_runs_in_place(monkeypatch, gate):
    """A task that calls run_tasks with 2 tasks at 2 CPUs, in the caller or
    in a forked worker, runs on 1 process and forks nothing."""
    fake_cpus(monkeypatch, 2)
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(None)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)

    def task(i):
        gate.in_child()
        before = len(forks)
        # the inner call's own count, leaving the outer call's record as it was
        outer, workers.most_processes = workers.most_processes, 1
        inner = run_tasks([functools.partial(int, i), functools.partial(int, -i)])
        used, workers.most_processes = workers.most_processes, outer
        return inner, used, len(forks) - before, os.getpid()

    monkeypatch.setattr(workers, "most_processes", 1)
    results = run_tasks([functools.partial(task, i) for i in range(4)])
    assert workers.most_processes == 2 and len(forks) == 1
    assert [r[:3] for r in results] == [([i, -i], 1, 0) for i in range(4)]
    assert {pid for *_, pid in results} - {os.getpid()}    # a child ran some
    assert_no_child_left()


def test_children_never_return_into_the_caller(tmp_path):
    # stdout is a pipe here, so the first line sits in the caller's buffer
    # while the children run; a child that left any other way than
    # os._exit would flush it a second time or print its own lines
    script = (
        "import functools, os, sys\n"
        "from mcni import workers\n"
        "sys.stdout.write('buffered\\n')\n"
        "os.sched_getaffinity = lambda pid: {0, 1, 2, 3}\n"
        "results = workers.run_tasks([functools.partial(int, i) for i in range(6)])\n"
        "sys.stdout.write(f'{results} {workers.most_processes}\\n')\n")
    src = str(Path(mcni.experiments.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60, cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert done.stdout == "buffered\n[0, 1, 2, 3, 4, 5] 4\n"
    assert done.stderr == ""
