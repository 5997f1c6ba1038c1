"""Kernel Monte Carlo vs wide-network covariance checks."""

import numpy as np
import pytest

from mcni.gpcheck import (KernelMCConfig, WideNetProbe,
                          analytic_kernel_identity, correspondence_report,
                          kernel_mc_matrix, relative_deviation,
                          wide_net_covariance)


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
