"""Acceptance gate: one test per release criterion, at the stated tolerance.

One clause is known-red and fails with an analysis message rather than a
weakened assertion: the toy-protocol coverage comparison (criterion 3).
Details are in its failure message.

Criterion 5 checks the ReLU wide-network covariance against the closed-form
(arc-cosine) kernel at every width of the convergence table, within a bound derived from
the estimator's sampling error. It no longer asserts that the widest net
lands closer than the narrowest on most seeds: under the sampled prior the
covariance equals the kernel at every width, so that ordering is close to a
coin flip per seed.
"""

import json
import time
from pathlib import Path

import numpy as np

from mcni.cli import EXIT_OK, main
from mcni.experiments import (BenchmarkConfig, GpCheckConfig, SweepConfig,
                              ToyConfig, run_benchmark, run_gpcheck,
                              run_noise_sweep, run_toy)
from mcni.gpcheck import (KernelMCConfig, WideNetProbe,
                          analytic_kernel_identity, kernel_mc_matrix,
                          relative_deviation, wide_net_covariance)
from mcni.mc import mc_predict, summarize_regression
from mcni.metrics import (brier, ece, mpiw, msll, nll_gaussian, picp,
                          risk_coverage, rmse)
from mcni.models import build_mlp
from mcni.nn import loss_mse, loss_mse_grad
from mcni.runio import manifest_digest

from oracles import (brier_oracle, ece_oracle, mpiw_oracle, msll_oracle,
                     nll_gaussian_oracle, picp_oracle, risk_coverage_oracle,
                     rmse_oracle)

DATASETS = Path(__file__).resolve().parent.parent / "datasets"


def test_criterion_01_gradient_exactness():
    """W, b and alpha gradients of a 5-16-3 ReLU noisy net match central
    finite differences (h=1e-5, frozen noise) within 1e-4 over 5 seeds."""
    t0 = time.perf_counter()
    h = 1e-5
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng([seed])
        net = build_mlp("noise_learned", 5, [16], 3, task="regression",
                        activation="relu", rng=rng, noise_level=0.05)
        x = rng.normal(size=(8, 5))
        y = rng.normal(size=(8, 3))
        out, trace = net.forward(x, np.random.default_rng([seed, 1]))
        eps = [c["eps"] for c in trace.caches]
        analytic = net.views(net.backward(trace, loss_mse_grad(out, y)))

        for name, arr in net.parameters().items():
            flat = arr.reshape(-1) if arr.ndim else arr.reshape(1)
            grad = analytic[name].reshape(flat.shape)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = loss_mse(net.forward(x, frozen_noise=eps)[0], y)
                flat[i] = orig - h
                down = loss_mse(net.forward(x, frozen_noise=eps)[0], y)
                flat[i] = orig
                fd = (up - down) / (2.0 * h)
                denom = max(abs(fd), abs(grad[i]), 1e-8)
                worst = max(worst, abs(fd - grad[i]) / denom)
    elapsed = time.perf_counter() - t0
    assert worst < 1e-4, f"max relative gradient error {worst:.3e}"
    assert elapsed < 10.0, f"gradient check took {elapsed:.1f}s"


def test_criterion_02_deterministic_reduction():
    """alpha=0 weight noise and p=0 dropout give 100 bit-identical passes
    with Monte Carlo variance exactly zero."""
    X = np.random.default_rng(7).normal(size=(20, 4))
    for family, kwargs in (("noise_fixed", {"noise_level": 0.0}),
                           ("mc_dropout", {"dropout_p": 0.0})):
        net = build_mlp(family, 4, [10], 1, task="regression",
                        rng=np.random.default_rng(1), **kwargs)
        samples = mc_predict(net, X, 100, np.random.default_rng(2))
        assert np.all(samples.values == samples.values[0]), family
        summ = summarize_regression(samples)
        assert np.all(summ.variance == 0.0), family


# reference values for the 1-D interval comparison; absolute results must
# land within +/-50% of these, comparisons are counted per seed
ANCHOR_PICP_FIXED = 0.625
ANCHOR_PICP_DROPOUT = 0.58
ANCHOR_MPIW_FIXED = 0.2915
ANCHOR_MPIW_DROPOUT = 0.4616


def in_band(value, anchor):
    return 0.5 * anchor <= value <= 1.5 * anchor


def test_criterion_03_toy_interval_comparison(tmp_path):
    """Default-protocol toy run (1x100 net, Adam 0.005, 500 epochs, T=500):
    fixed weight noise beats dropout on interval width in >=4/5 seeds, and
    its coverage must be at least dropout's in >=4/5 seeds."""
    t0 = time.perf_counter()
    out = run_toy(ToyConfig(outdir=str(tmp_path / "toy")))
    elapsed = time.perf_counter() - t0
    assert elapsed < 180.0, f"toy protocol took {elapsed:.0f}s"

    fixed = out.metrics["models"]["noise_fixed"]["mean"]
    drop = out.metrics["models"]["mc_dropout"]["mean"]
    assert in_band(fixed["mpiw"], ANCHOR_MPIW_FIXED), fixed
    assert in_band(drop["mpiw"], ANCHOR_MPIW_DROPOUT), drop
    assert in_band(fixed["picp"], ANCHOR_PICP_FIXED), fixed
    assert in_band(drop["picp"], ANCHOR_PICP_DROPOUT), drop

    comp = out.metrics["comparison"]
    assert comp["mpiw_wins_fixed_vs_dropout"] >= 4, comp
    assert comp["picp_wins_fixed_vs_dropout"] >= 4, (
        f"known-red clause: coverage wins {comp['picp_wins_fixed_vs_dropout']}/5. "
        f"At alpha=0.05 the per-unit weight perturbation is ~5%, vs ~50% for "
        f"dropout at p=0.2, so the noise-injection intervals come out about "
        f"half as wide (mpiw {fixed['mpiw']:.3f} vs {drop['mpiw']:.3f}); with both "
        f"mean fits comparable, coverage tracks interval width on every seed "
        f"(picp {fixed['picp']:.3f} vs {drop['picp']:.3f}). No setting of the "
        f"pinned protocol reverses this while keeping the width win.")


def test_criterion_04_metric_oracles():
    """Each uncertainty metric matches an independently written brute-force
    oracle on 100 random inputs within 1e-12; hand cases hold."""
    for case in range(100):
        rng = np.random.default_rng([40, case])
        n = int(rng.integers(2, 30))

        y = rng.normal(size=n)
        pred = y + rng.normal(size=n) * 0.5
        sigma = np.abs(rng.normal(size=n)) + 0.05
        lower, upper = pred - sigma, pred + sigma
        assert abs(picp(y, lower, upper) - picp_oracle(y, lower, upper)) < 1e-12
        assert abs(mpiw(lower, upper) - mpiw_oracle(lower, upper)) < 1e-12
        assert abs(rmse(pred, y) - rmse_oracle(pred, y)) < 1e-12

        per_point, _ = nll_gaussian_oracle(y, pred, sigma)
        got = nll_gaussian(y, pred, sigma)
        assert np.max(np.abs(got.per_point - per_point)) < 1e-12
        base = nll_gaussian(y, pred + 0.1, sigma * 1.3)
        assert abs(msll(got.per_point, base.per_point)
                   - msll_oracle(got.per_point, base.per_point)) < 1e-10

        conf = rng.random(n)
        correct = rng.random(n) < conf
        bins = int(rng.integers(1, 20))
        assert abs(ece(conf, correct, bins)
                   - ece_oracle(conf, correct, bins)) < 1e-12

        k = int(rng.integers(2, 6))
        probs = rng.dirichlet(np.ones(k), size=n)
        labels = rng.integers(0, k, size=n)
        assert abs(brier(probs, labels)
                   - brier_oracle(probs, labels)) < 1e-12

        unc = np.round(rng.random(n), 1)  # ties likely
        grid = sorted(set(np.round(rng.random(3) * 0.9 + 0.05, 3)) | {1.0})
        got_curve = risk_coverage(unc, "rmse", grid, pred=pred, target=y)
        ref = risk_coverage_oracle(unc.tolist(), grid, "rmse",
                                   pred=pred.tolist(), target=y.tolist())
        for (c_got, r_got), (c_ref, r_ref) in zip(got_curve.points, ref):
            assert c_got == c_ref and abs(r_got - r_ref) < 1e-12

    # hand cases
    assert picp(np.array([0.0, 1.0, 2.0, 3.0]), np.full(4, -0.5),
                np.full(4, 1.5)) == 0.5
    assert abs(mpiw(np.array([0.0, 0.0, 0.0]),
                    np.array([0.1, 0.2, 0.6])) - 0.3) < 1e-12
    assert rmse(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0
    sigma0 = np.sqrt(1.0 / (2.0 * np.pi))
    assert abs(nll_gaussian(np.zeros(1), np.zeros(1),
                            np.array([sigma0])).total) < 1e-15
    uniform = np.full((1, 10), 0.1)
    assert abs(brier(uniform, np.array([3])) - 0.9) < 1e-12


# Bound on the ReLU table's max relative deviation; derived from the
# sampling error of the covariance estimate, see criterion 05's docstring.
RELU_DEV_BOUND = 0.06


def test_criterion_05_gp_correspondence(tmp_path):
    """Identity activation at width 4096 matches the analytic kernel within
    3%; the zero-input ReLU kernel lands at 0.5; and every width of the ReLU
    convergence table (64, 512, 4096) stays within RELU_DEV_BOUND of the
    closed-form arc-cosine kernel on every seed.

    Bound derivation. The sampled output is f(x) = sum_k v_k h_k(x) with
    v_k ~ N(0, 1/k) independent of the hidden features h, so
    Cov(f(x), f(y)) = K(x, y) exactly at every width: the deviation is pure
    sampling error of the n-network covariance estimate. For Gaussian
    outputs the relative standard error of entry (i, j) is
    sqrt(K_ii K_jj + K_ij^2) / (K_ij sqrt(n - 1)); on the three probes
    (K_ii = 1.125, 1.0, 1.18; K_ij = 1.04-1.06) at n = 10,000 it is
    0.0141-0.0148. Width enters only through a fourth-moment term,
    (Cov(h_i^2, h_j^2) + 2 Var(h_i h_j)) / k, added to the numerator
    variance, which raises the worst entry to about 0.0156 at width 64.
    The kernel is exact, so it adds no error of its own (the 1e6-draw
    Monte Carlo kernel it replaced added about 0.0023 in quadrature).
    RELU_DEV_BOUND = 0.06 is about four standard errors of the worst entry
    (3.8 at width 64), so a correct estimator crosses it with
    negligible probability, while a wrong prior (a dropped hidden bias, a
    misscaled output layer) misses the kernel by far more.

    Which of two widths lands closer on a given seed is not asserted: both
    deviations have nearly the same spread, so that ordering is close to a
    coin flip per seed.
    """
    t0 = time.perf_counter()

    probes = ((1.0, 0.5), (0.8, 0.6), (0.6, 1.0))
    cfg = KernelMCConfig(nonlinearity="identity", bias_std=1.0, input_dim=2)
    probe = WideNetProbe(width=4096, n_networks=10_000, probe_inputs=probes)
    cov = wide_net_covariance(probe, cfg, np.random.default_rng([0, 21]))
    K = analytic_kernel_identity(np.asarray(probes), 1.0)
    identity_dev = float(relative_deviation(cov, K).max())
    assert identity_dev < 0.03, f"identity deviation {identity_dev:.4f}"

    relu_cfg = KernelMCConfig(n_samples=1_000_000, nonlinearity="relu",
                              bias_std=1.0, input_dim=1)
    k_hat = kernel_mc_matrix([[0.0], [0.0]], relu_cfg,
                             np.random.default_rng([0, 22]))[0, 1]
    assert abs(k_hat - 0.5) < 0.005, f"kernel at origin {k_hat:.5f}"

    out = run_gpcheck(GpCheckConfig(outdir=str(tmp_path / "gp"),
                                    seeds=(0, 1, 2, 3, 4)))
    devs = {}
    for seed, entry in out.metrics["per_seed"].items():
        devs[seed] = {c["width"]: c["max_rel_deviation"]
                      for c in entry["convergence"]}
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"correspondence check took {elapsed:.0f}s"
    assert len(devs) == 5, devs
    for seed, d in devs.items():
        assert sorted(d) == [64, 512, 4096], (seed, d)
        worst = max(d.values())
        assert worst < RELU_DEV_BOUND, (
            f"seed {seed}: ReLU covariance deviates {worst:.4f} from the "
            f"kernel (bound {RELU_DEV_BOUND}); per width {d}")


def test_criterion_06_benchmark_property(tmp_path):
    """Reduced 2x2 grid on the bundled synthetic regression CSV: fixed-noise
    best-config RMSE within 1.05x of the deterministic net, and its MSLL
    against the dropout baseline is finite and reported."""
    cfg = BenchmarkConfig(
        data=str(DATASETS / "synth_regression.csv"),
        outdir=str(tmp_path / "bench"),
        lr_grid=(0.001, 0.002), weight_decay_grid=(1e-9, 1e-5),
        dropout_grid=(0.05,), noise_grid=(0.01,), alpha_init_grid=(0.01,))
    out = run_benchmark(cfg)
    ratio = out.metrics["rmse_ratio_fixed_vs_deterministic"]
    assert ratio <= 1.05, f"rmse ratio {ratio:.4f}"
    msll_fixed = out.metrics["families"]["noise_fixed"]["msll_vs_mc_dropout"]
    assert np.isfinite(msll_fixed)
    reported = json.loads((tmp_path / "bench" / "metrics.json").read_text())
    assert "msll_vs_mc_dropout" in reported["families"]["noise_fixed"]


def test_criterion_07_entropy_rises_with_corruption(tmp_path):
    """Mean predictive entropy of the fixed-noise classifier increases with
    input corruption: Spearman rho >= 0.8 averaged over 3 seeds."""
    t0 = time.perf_counter()
    out = run_noise_sweep(SweepConfig(outdir=str(tmp_path / "sweep")))
    elapsed = time.perf_counter() - t0
    assert out.metrics["mean_spearman_rho"] >= 0.8, out.metrics["per_seed"]
    assert elapsed < 60.0, f"sweep took {elapsed:.0f}s"


def test_criterion_08_risk_coverage_sanity():
    """Risk at coverage 1.0 equals the global metric (1e-12); a perfectly
    ranked uncertainty ordering yields a monotone non-decreasing curve."""
    rng = np.random.default_rng(80)
    pred = rng.normal(size=60)
    target = pred + rng.normal(size=60) * 0.3
    unc = rng.random(60)
    grid = (0.25, 0.5, 0.75, 1.0)
    curve = risk_coverage(unc, risk_kind="rmse", coverage_grid=grid,
                          pred=pred, target=target)
    assert abs(curve.risks[-1] - rmse(pred, target)) < 1e-12

    correct = rng.random(60) < 0.7
    curve = risk_coverage(unc, risk_kind="error_rate", coverage_grid=grid,
                          correct=correct)
    assert abs(curve.risks[-1] - (1.0 - correct.mean())) < 1e-12

    residual = np.abs(pred - target)
    ranked = risk_coverage(residual, risk_kind="rmse",
                           coverage_grid=tuple(np.linspace(0.1, 1.0, 10)),
                           pred=pred, target=target)
    assert np.all(np.diff(ranked.risks) >= -1e-15)


def test_criterion_09_injected_noise_scale():
    """Measured std of the injected weight noise equals |alpha| * sigma_l
    within 5% over 1e5 draws, for three (alpha, weight-scale) settings."""
    for idx, (alpha, scale) in enumerate([(0.05, 1.0), (0.7, 0.3), (2.0, 4.0)]):
        rng = np.random.default_rng([90, idx])
        net = build_mlp("noise_fixed", 50, [40], 1, task="regression",
                        rng=rng, noise_level=alpha)
        layer = net.layers[0]
        layer.W *= scale
        sigma_l = layer.weight_std()

        draws = []
        noise_rng = np.random.default_rng([91, idx])
        for _ in range(50):  # 50 x (50*40) = 1e5 values
            w_eff, _ = layer.effective_weight(noise_rng)
            draws.append((w_eff - layer.W).ravel())
        measured = float(np.std(np.concatenate(draws)))
        expected = abs(alpha) * sigma_l
        assert abs(measured - expected) / expected < 0.05, (
            f"alpha={alpha}: measured {measured:.5f}, expected {expected:.5f}")


TINY_TOY = ["--set", "n_points=6", "--set", "hidden=4", "--set", "epochs=2",
            "--set", "passes=3", "--seeds", "0"]


def test_criterion_10_cli_reruns_are_byte_identical(tmp_path):
    """Every command rerun with the same config and seed writes identical
    data files; manifest digests (timings excluded) match."""
    runs = {
        "toy": ["toy", *TINY_TOY],
        "noise-sweep": ["noise-sweep", "--set", "n_train=16", "--set",
                        "n_eval=4", "--set", "epochs=2", "--set", "passes=3",
                        "--set", "hidden=4", "--set", "sigmas=0.0,0.3",
                        "--seeds", "0"],
        "gpcheck": ["gpcheck", "--set", "n_samples=2000", "--set",
                    "n_networks=60", "--set", "width=16", "--set",
                    "widths=8,16", "--seeds", "0"],
        "bench-time": ["bench-time", "--set", "batch=8", "--set",
                       "input_dim=3", "--set", "hidden=4", "--set",
                       "t_list=1,2", "--set", "reps=2"],
    }
    (tmp_path / "pred.csv").write_text(
        "pred,target\n1.0,1.0\n2.0,2.5\n3.0,3.0\n")
    (tmp_path / "unc.csv").write_text("uncertainty\n0.1\n0.3\n0.2\n")
    runs["riskcov"] = ["riskcov", "--pred-file", str(tmp_path / "pred.csv"),
                       "--unc-file", str(tmp_path / "unc.csv"),
                       "--set", "coverage_grid=0.5,1.0"]
    reg = tmp_path / "reg.csv"
    rows = ["x0,x1,y"]
    gen = np.random.default_rng(5)
    for _ in range(30):
        a, b = (float(v) for v in gen.normal(size=2))
        rows.append(f"{a!r},{b!r},{a - b!r}")
    reg.write_text("\n".join(rows) + "\n")
    runs["benchmark"] = ["benchmark", "--data", str(reg),
                         "--set", "hidden=4", "--set", "lr_grid=0.01",
                         "--set", "weight_decay_grid=1e-6",
                         "--set", "dropout_grid=0.1",
                         "--set", "noise_grid=0.05",
                         "--set", "alpha_init_grid=0.05",
                         "--set", "max_epochs=2", "--set", "passes=3"]

    for command, argv in runs.items():
        dirs = []
        for rep in ("a", "b"):
            outdir = tmp_path / command / rep
            assert main([*argv, "--outdir", str(outdir)]) == EXIT_OK, command
            dirs.append(outdir)
        first, second = dirs
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir()), command
        for name in names:
            if name == "manifest.json":  # timing fields
                continue
            assert ((first / name).read_bytes()
                    == (second / name).read_bytes()), f"{command}/{name}"
        digests = []
        for outdir in dirs:
            manifest = json.loads((outdir / "manifest.json").read_text())
            manifest["config"]["outdir"] = ""  # differs by construction
            digests.append(manifest_digest(manifest))
        assert digests[0] == digests[1], command
