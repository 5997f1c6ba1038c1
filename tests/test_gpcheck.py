"""Kernel Monte Carlo vs wide-network covariance checks."""

import sys
import threading

import numpy as np
import pytest

from mcni import gpcheck
from mcni.gpcheck import (NONLINEARITIES, KernelMCConfig, WideNetProbe,
                          analytic_kernel_identity, correspondence_report,
                          kernel_mc_matrix, relative_deviation,
                          wide_net_covariance)
from oracles import (correspondence_oracle, kernel_mc_matrix_oracle,
                     wide_net_covariance_oracle)


def cfg(**kw):
    base = dict(n_samples=1000, nonlinearity="relu", bias_std=1.0, input_dim=2)
    base.update(kw)
    return KernelMCConfig(**base)


# ---------------------------------------------------------------------------
# kernel_mc_matrix on one input pair

def kernel_pair(x, y, c, rng):
    """K(x, y) from the kernel estimate on the two-probe set {x, y}."""
    return kernel_mc_matrix([x, y], c, rng)[0, 1]


def test_relu_at_origin_with_no_bias_is_exactly_zero():
    c = cfg(bias_std=0.0, input_dim=1)
    k = kernel_pair([0.0], [0.0], c, np.random.default_rng(0))
    assert k == 0.0


def test_relu_at_origin_unit_bias_half():
    """E[relu(b)^2] for b ~ N(0,1) is the half-Gaussian second moment 1/2."""
    c = cfg(n_samples=1_000_000, bias_std=1.0, input_dim=1)
    k = kernel_pair([0.0], [0.0], c, np.random.default_rng(1))
    assert abs(k - 0.5) < 0.005


def test_kernel_symmetric_under_shared_draws():
    c = cfg(n_samples=5000)
    x, y = [1.0, 0.5], [0.8, 0.6]
    a = kernel_pair(x, y, c, np.random.default_rng(2))
    b = kernel_pair(y, x, c, np.random.default_rng(2))
    assert a == b


def test_kernel_standard_error_scales_with_sqrt_k():
    """Quadrupling the draw count should halve the estimator spread."""
    x, y = [1.0, 0.5], [0.8, 0.6]
    stds = []
    for k in (2000, 8000):
        vals = [kernel_pair(x, y, cfg(n_samples=k), np.random.default_rng([3, k, r]))
                for r in range(20)]
        stds.append(np.std(vals))
    ratio = stds[0] / stds[1]
    assert 1.4 < ratio < 2.6


def test_kernel_mc_input_validation():
    with pytest.raises(ValueError):
        kernel_mc_matrix([[1.0], [1.0, 2.0]], cfg(), np.random.default_rng(0))
    with pytest.raises(ValueError):
        kernel_mc_matrix([[1.0], [2.0]], cfg(), np.random.default_rng(0))
    with pytest.raises(ValueError):
        KernelMCConfig(n_samples=0)
    with pytest.raises(ValueError):
        KernelMCConfig(nonlinearity="sigmoid")
    with pytest.raises(ValueError):
        KernelMCConfig(bias_std=-1.0)
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="finite"):
            KernelMCConfig(bias_std=bad)
    with pytest.raises(ValueError, match="finite"):
        kernel_mc_matrix([[1.0, float("nan")], [0.5, 0.5]], cfg(),
                         np.random.default_rng(0))


def test_kernel_matrix_symmetric_and_psd():
    probes = np.array([[1.0, 0.5], [0.8, 0.6], [0.6, 1.0], [-0.4, 0.2]])
    K = kernel_mc_matrix(probes, cfg(n_samples=20_000), np.random.default_rng(4))
    assert np.array_equal(K, K.T)
    assert np.all(np.diag(K) >= 0.0)
    min_eig = float(np.linalg.eigvalsh(K).min())
    assert min_eig / np.abs(K).max() > -1e-8


# ---------------------------------------------------------------------------
# wide network covariance

def test_width_one_identity_matches_linear_kernel():
    """Identity net, no bias: cov(o(x), o(y)) = x.y at any width."""
    probe = WideNetProbe(width=1, n_networks=100_000,
                         probe_inputs=((1.0,), (0.8,)))
    c = cfg(nonlinearity="identity", bias_std=0.0, input_dim=1)
    cov = wide_net_covariance(probe, c, np.random.default_rng(5))
    assert abs(cov[0, 1] - 0.8) / 0.8 < 0.03


def test_covariance_symmetric_nonneg_diagonal():
    probe = WideNetProbe(width=32, n_networks=2000,
                         probe_inputs=((1.0, 0.5), (0.8, 0.6), (0.6, 1.0)))
    cov = wide_net_covariance(probe, cfg(), np.random.default_rng(6))
    assert np.array_equal(cov, cov.T)
    assert np.all(np.diag(cov) >= 0.0)


def test_identity_kernel_closed_form():
    probes = np.array([[1.0, 2.0], [0.5, -1.0]])
    K = analytic_kernel_identity(probes, bias_std=0.7)
    assert K[0, 0] == pytest.approx(5.0 + 0.49, abs=1e-12)
    assert K[0, 1] == pytest.approx(-1.5 + 0.49, abs=1e-12)


def test_identity_estimator_is_unbiased_at_small_width():
    # identity has no finite-width bias, so only MC noise remains
    probes = ((1.0, 0.5), (0.8, 0.6))
    probe = WideNetProbe(width=64, n_networks=20_000, probe_inputs=probes)
    c = cfg(nonlinearity="identity", bias_std=1.0)
    cov = wide_net_covariance(probe, c, np.random.default_rng(7))
    K = analytic_kernel_identity(np.asarray(probes), 1.0)
    assert relative_deviation(cov, K).max() < 0.05


def test_probe_validation():
    with pytest.raises(ValueError):
        WideNetProbe(width=0, n_networks=10, probe_inputs=((1.0,), (2.0,)))
    with pytest.raises(ValueError):
        WideNetProbe(width=4, n_networks=10, probe_inputs=((1.0,),))
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            WideNetProbe(width=4, n_networks=10, probe_inputs=((bad,), (2.0,)))
    probe = WideNetProbe(width=4, n_networks=1, probe_inputs=((1.0,), (2.0,)))
    with pytest.raises(ValueError):
        wide_net_covariance(probe, cfg(input_dim=1), np.random.default_rng(0))


# ---------------------------------------------------------------------------
# correspondence report

def test_zero_probes_zero_bias_deviation_zero():
    probe = WideNetProbe(width=16, n_networks=500,
                         probe_inputs=((0.0, 0.0), (0.0, 0.0)))
    c = cfg(nonlinearity="relu", bias_std=0.0, n_samples=100)
    report = correspondence_report(probe, c, np.random.default_rng(8),
                                   widths=(16,))
    assert np.all(report.kernel == 0.0)
    assert np.all(report.covariance == 0.0)
    assert report.max_rel_deviation == 0.0


def test_report_covers_requested_widths_plus_headline():
    probe = WideNetProbe(width=48, n_networks=800,
                         probe_inputs=((1.0, 0.5), (0.8, 0.6)))
    report = correspondence_report(probe, cfg(n_samples=2000),
                                   np.random.default_rng(9), widths=(16, 64))
    assert [row["width"] for row in report.convergence] == [16, 48, 64]
    assert all(row["n_networks"] == 800 for row in report.convergence)
    headline = [r for r in report.convergence if r["width"] == 48]
    assert headline[0]["max_rel_deviation"] == report.max_rel_deviation


def test_report_identity_uses_analytic_reference():
    probes = ((1.0, 0.5), (0.8, 0.6))
    probe = WideNetProbe(width=256, n_networks=8000, probe_inputs=probes)
    c = cfg(nonlinearity="identity", bias_std=1.0)
    report = correspondence_report(probe, c, np.random.default_rng(10),
                                   widths=(256,))
    K = analytic_kernel_identity(np.asarray(probes), 1.0)
    assert np.array_equal(report.kernel, K)
    assert report.max_rel_deviation < 0.1


def test_report_is_seed_reproducible():
    probe = WideNetProbe(width=16, n_networks=300,
                         probe_inputs=((1.0, 0.5), (0.8, 0.6)))
    a = correspondence_report(probe, cfg(), np.random.default_rng(11), widths=(16,))
    b = correspondence_report(probe, cfg(), np.random.default_rng(11), widths=(16,))
    assert np.array_equal(a.covariance, b.covariance)
    assert a.max_rel_deviation == b.max_rel_deviation


# ---------------------------------------------------------------------------
# bit-identity with the sequential estimates in tests/oracles.py

PROBES3 = ((1.0, 0.5), (0.8, 0.6), (0.6, 1.0))


@pytest.mark.parametrize("nonlinearity", NONLINEARITIES)
@pytest.mark.parametrize("n_samples", [
    1001,               # below one chunk (4e6 // 7 = 571,428 at 3 probes)
    571_428 + 12_345,   # one full chunk and a partial one
])
def test_kernel_equals_sequential_oracle(nonlinearity, n_samples):
    c = cfg(n_samples=n_samples, nonlinearity=nonlinearity, bias_std=0.7)
    got = kernel_mc_matrix(PROBES3, c, np.random.default_rng(20))
    want = kernel_mc_matrix_oracle(PROBES3, c, np.random.default_rng(20))
    assert np.array_equal(got, want)


# (width, n_networks) at 3 probes of dimension 2: chunk = 4e6 // (7 width),
# sub-block = 32768 // (3 width)
WIDE_CASES = [
    (7, 301),       # below one chunk (81,632); one sub-block of 301
    (100, 5000),    # below one chunk (5,714); sub-blocks of 109, last partial
    (1500, 1000),   # chunks 380, 380, 240; sub-blocks of 7 do not divide 380
    (4096, 300),    # chunks 139, 139, 22; sub-blocks of 2 do not divide 139
]


@pytest.mark.parametrize("nonlinearity", NONLINEARITIES)
@pytest.mark.parametrize("width,n_networks", WIDE_CASES)
def test_covariance_equals_sequential_oracle(nonlinearity, width, n_networks):
    probe = WideNetProbe(width=width, n_networks=n_networks,
                         probe_inputs=PROBES3)
    c = cfg(nonlinearity=nonlinearity, bias_std=0.7)
    got = wide_net_covariance(probe, c, np.random.default_rng(21))
    want = wide_net_covariance_oracle(probe, c, np.random.default_rng(21))
    assert np.array_equal(got, want)


def test_covariance_equals_oracle_with_three_input_dims():
    # more than two terms per hidden pre-activation, so summation order shows
    probe = WideNetProbe(width=333, n_networks=500,
                         probe_inputs=((1.0, 0.5, -0.3), (0.8, 0.6, 0.1)))
    c = cfg(input_dim=3, bias_std=0.7)
    got = wide_net_covariance(probe, c, np.random.default_rng(22))
    want = wide_net_covariance_oracle(probe, c, np.random.default_rng(22))
    assert np.array_equal(got, want)


def fake_cpus(monkeypatch, n):
    monkeypatch.setattr(gpcheck.os, "sched_getaffinity",
                        lambda pid: set(range(n)))


def assert_report_equals_oracle(probe, c, seed, widths):
    report = correspondence_report(probe, c, np.random.default_rng(seed),
                                   widths=widths)
    kernel, cov, rows = correspondence_oracle(
        probe, c, np.random.default_rng(seed), widths)
    assert np.array_equal(report.kernel, kernel)
    assert np.array_equal(report.covariance, cov)
    assert report.convergence == rows


@pytest.mark.parametrize("nonlinearity", NONLINEARITIES)
@pytest.mark.parametrize("cpus", [1, None, 8])
def test_report_equals_oracle_at_any_worker_count(monkeypatch, nonlinearity,
                                                  cpus):
    if cpus is not None:
        fake_cpus(monkeypatch, cpus)
    probe = WideNetProbe(width=96, n_networks=700, probe_inputs=PROBES3)
    c = cfg(n_samples=30_000, nonlinearity=nonlinearity)
    assert_report_equals_oracle(probe, c, 30, widths=(16, 300, 1500))


def call_with_timeout(fn, seconds=60.0):
    """fn() on a helper thread; returns (result, exception) once it ends."""
    box = {}

    def target():
        try:
            box["result"] = fn()
        except Exception as exc:
            box["error"] = exc

    t = threading.Thread(target=target, daemon=True)
    t.start()
    t.join(timeout=seconds)
    assert not t.is_alive(), "call did not finish"
    return box.get("result"), box.get("error")


def test_report_under_thread_contention(monkeypatch):
    """More workers than cores and frequent switches lose no result."""
    fake_cpus(monkeypatch, 8)
    probe = WideNetProbe(width=5, n_networks=60, probe_inputs=PROBES3)
    c = cfg(n_samples=3000)
    widths = tuple(range(1, 25))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _, error = call_with_timeout(
            lambda: assert_report_equals_oracle(probe, c, 31, widths))
    finally:
        sys.setswitchinterval(interval)
    assert error is None


@pytest.mark.parametrize("failing", ["kernel_mc_matrix", "wide_net_covariance"])
def test_task_error_reaches_caller_without_hang(monkeypatch, failing):
    real = getattr(gpcheck, failing)

    def planted(first, c, rng):
        if failing == "kernel_mc_matrix" or first.width == 64:
            raise RuntimeError(f"planted failure in {failing}")
        return real(first, c, rng)

    monkeypatch.setattr(gpcheck, failing, planted)
    fake_cpus(monkeypatch, 4)
    probe = WideNetProbe(width=16, n_networks=200, probe_inputs=PROBES3)
    threads_before = threading.active_count()
    _, error = call_with_timeout(lambda: correspondence_report(
        probe, cfg(n_samples=5000), np.random.default_rng(32),
        widths=(16, 64, 256)))
    assert isinstance(error, RuntimeError)
    assert str(error) == f"planted failure in {failing}"
    assert threading.active_count() == threads_before


def test_report_starts_the_largest_draw_first(monkeypatch):
    fake_cpus(monkeypatch, 1)
    started = []
    for name in ("kernel_mc_matrix", "wide_net_covariance"):
        def spy(first, c, rng, real=getattr(gpcheck, name), name=name):
            started.append("kernel" if name == "kernel_mc_matrix"
                           else first.width)
            return real(first, c, rng)
        monkeypatch.setattr(gpcheck, name, spy)
    probe = WideNetProbe(width=16, n_networks=100, probe_inputs=PROBES3)
    # numbers drawn: kernel 20000 * 3; width w: 100 * 4 * w
    correspondence_report(probe, cfg(n_samples=20_000),
                          np.random.default_rng(33), widths=(16, 64, 256))
    assert started == [256, "kernel", 64, 16]
