"""Tests of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of a checkout; takes well under a minute. It runs every
workload end to end in the small-size mode, traced and untraced, and shows
that each output check fails on a planted wrong value: a variance scaled
by 1.1, a kernel with the hidden bias dropped, a covariance from a net
without hidden bias, and a digest from a different seed. It also runs the
benchmark where the program is missing, which must fail without a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
os.chdir(ROOT)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

FAILURES = []


def expect(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        FAILURES.append(what)


def bench(*argv, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    return proc


def test_small_runs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    # every metric BENCHMARK.json lists must come out of the run, and no other
    for trace, names in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
        for w in spec["workloads"]:
            proc = bench("--workload", w["name"], "--seed", "7", "--seconds",
                         "1", "--trace", trace, "--small")
            res = json.loads(proc.stdout.strip().splitlines()[-1]) \
                if proc.returncode == 0 else {}
            expect(proc.returncode == 0 and res.get("correct") is True
                   and res.get("failed") == 0 and res.get("attempted", 0) >= 1,
                   f"small {w['name']} trace={trace} runs clean "
                   f"{proc.stderr.strip()[-300:]}")
            got = res.get("metrics", {})
            expect(set(got) == {m["name"] for m in names}
                   and all(got[k]["unit"] == units[k] for k in got),
                   f"small {w['name']} trace={trace} prints every metric "
                   f"with its unit")


def test_mc_predict_checks():
    wl = workloads.McPredict(3, small=True)
    values, mean, var = wl.call(0)
    expect(not checks.check_summary(values, mean, var),
           "mc_predict summary passes as returned")
    expect(bool(checks.check_summary(values, mean, 1.1 * var)),
           "mc_predict summary fails with the variance scaled by 1.1")
    expect(bool(checks.check_summary(values, mean + 1e-9, var)),
           "mc_predict summary fails with the mean shifted by 1e-9")
    expect(not wl.final_checks(), "alpha = 0 twin and identity net pass")

    # the identity-net check at full T, on a sample variance scaled by 1.1
    T = workloads.McPredict.ID_T
    rng = np.random.default_rng(11)
    X = rng.standard_normal((8, 10))
    W = rng.standard_normal((10, 1))
    eps = np.std(W) * rng.standard_normal((T, 10, 1))
    outs = np.einsum("nq,tqd->tnd", X, W + 0.05 * eps)
    var = np.var(outs, axis=0, ddof=1)
    expect(not checks.check_identity_variance(var, X, W, 0.05, T),
           "identity-net variance passes on exact numpy draws")
    expect(bool(checks.check_identity_variance(1.1 * var, X, W, 0.05, T)),
           "identity-net variance fails scaled by 1.1")
    ref = np.zeros((4, 1))
    expect(bool(checks.check_zero_noise(ref, np.full((4, 1), 1e-30), ref)),
           "alpha = 0 check fails on a variance that is not exactly zero")


def test_gp_checks():
    wl = workloads.GpCheck(3, small=True)
    report = wl.call(0)
    expect(not wl.check(0, report), "gp_check report passes as returned")
    no_bias = checks.arccos_kernel(wl.PROBES, 0.0)
    expect(bool(checks.check_correspondence(
        no_bias, report.covariance, report.convergence, wl.PROBES,
        wl.BIAS_STD, wl.n_samples, wl.n_networks, wl.widths)),
        "gp_check fails on a kernel with the hidden bias dropped")
    cfg = wl.gp.KernelMCConfig(n_samples=wl.n_samples, nonlinearity="relu",
                               bias_std=0.0, input_dim=2)
    cov = wl.gp.wide_net_covariance(wl.probe, cfg, np.random.default_rng(5))
    problems = checks.check_correspondence(
        report.kernel, cov, [], wl.PROBES, wl.BIAS_STD, wl.n_samples,
        wl.n_networks, [])
    expect(bool(problems), "gp_check fails on a covariance from a net without "
                           "hidden bias")
    dev = float(np.max(np.abs(cov - checks.arccos_kernel(wl.PROBES, 1.0))
                       / checks.arccos_kernel(wl.PROBES, 1.0)))
    print(f"     (bias-free covariance deviates by {dev:.2f})")


def test_fit_grid_checks():
    wl = workloads.FitGrid(3, small=True)
    out = wl.call(0)
    expect(not wl.check(0, out), "fit_grid call passes as returned")
    j, digest = wl.first_digest
    expect(not wl.repeat_check(j, digest), "repeating call 0 gives its digest")
    other = workloads.digest_of(wl.call(1)[1])
    expect(bool(checks.check_digest(digest, other)),
           "digest check fails on a digest from a different seed")
    rows = [{"family": "deterministic", "test_picp": "0.5", "test_mpiw": "0.1"},
            {"family": "noise_fixed", "test_picp": "1.5", "test_mpiw": "0.0"}]
    fams = {"deterministic": {"test_rmse": 0.9}, "noise_fixed": {"test_rmse": float("nan")}}
    expect(len(checks.check_fit_grid(rows, fams, wl.floor, 3)) == 6,
           "fit_grid check flags row count, picp, both mpiw rules and both rmses")


def test_bare_checkout():
    bare = workloads.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench("--workload", "mc_predict", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=bare)
    expect(proc.returncode != 0 and "{" not in proc.stdout,
           f"bare checkout exits {proc.returncode} without a result")
    shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    test_mc_predict_checks()
    test_gp_checks()
    test_fit_grid_checks()
    test_bare_checkout()
    test_small_runs()
    print(f"{len(FAILURES)} failed")
    sys.exit(1 if FAILURES else 0)
