"""GP kernels (closed form and Monte Carlo) vs wide-network covariance checks."""

import math
import os
import select
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

import oracles
from mcni import gpcheck
from mcni.gpcheck import (NONLINEARITIES, KernelMCConfig, WideNetProbe,
                          analytic_kernel_identity, analytic_kernel_relu,
                          correspondence_report, kernel_mc_matrix,
                          relative_deviation, wide_net_covariance)
from conftest import assert_no_child_left, fake_cpus
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
# closed-form ReLU kernel

PROBES3 = ((1.0, 0.5), (0.8, 0.6), (0.6, 1.0))


@pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
def test_relu_kernel_at_origin_is_half_the_bias_variance(s):
    K = analytic_kernel_relu([[0.0, 0.0], [1.0, 2.0]], s)
    assert K[0, 0] == pytest.approx(s * s / 2.0, rel=1e-14)


@pytest.mark.parametrize("s", [0.0, 0.7, 2.0])
def test_relu_kernel_diagonal_is_half_the_augmented_norm(s):
    probes = np.array([[1.0, 2.0], [0.5, -1.0], [-3.0, 0.25]])
    K = analytic_kernel_relu(probes, s)
    want = ((probes ** 2).sum(axis=1) + s * s) / 2.0
    assert np.allclose(np.diag(K), want, rtol=1e-14, atol=0.0)
    assert np.array_equal(K, K.T)


def test_relu_kernel_zero_norm_input_gives_exact_zero():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        K = analytic_kernel_relu([[0.0, 0.0], [0.0, 0.0]], 0.0)
        mixed = analytic_kernel_relu([[0.0, 0.0], [1.0, 2.0]], 0.0)
    assert np.all(K == 0.0)
    assert mixed[0, 0] == mixed[0, 1] == mixed[1, 0] == 0.0
    assert mixed[1, 1] == pytest.approx(2.5, rel=1e-14)
    assert np.isfinite(mixed).all()


def arccos_degree2(probes, s):
    """E[relu(u)^2 relu(v)^2] (Cho & Saul 2009, degree 2), for the MC spread."""
    aug = np.column_stack([np.asarray(probes), np.full(len(probes), s)])
    n = np.linalg.norm(aug, axis=1)
    cos = np.clip(aug @ aug.T / np.outer(n, n), -1.0, 1.0)
    t = np.arccos(cos)
    J = 3.0 * np.sin(t) * cos + (math.pi - t) * (1.0 + 2.0 * cos ** 2)
    return np.outer(n ** 2, n ** 2) * J / (2.0 * math.pi)


@pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
def test_relu_kernel_agrees_with_monte_carlo(s):
    n = 1_000_000
    K = analytic_kernel_relu(PROBES3, s)
    mc = kernel_mc_matrix(PROBES3, cfg(n_samples=n, bias_std=s),
                          np.random.default_rng([40, int(10 * s)]))
    se = np.sqrt((arccos_degree2(PROBES3, s) - K ** 2) / n)
    assert np.all(np.abs(mc - K) <= 6.0 * se), np.abs(mc - K) / se


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


def test_report_relu_uses_closed_form_reference():
    probe = WideNetProbe(width=32, n_networks=400, probe_inputs=PROBES3)
    c = cfg(bias_std=0.7)
    report = correspondence_report(probe, c, np.random.default_rng(12),
                                   widths=(32,))
    assert np.array_equal(report.kernel, analytic_kernel_relu(PROBES3, 0.7))
    assert report.kernel_source == "closed_form"
    tanh = correspondence_report(probe, cfg(nonlinearity="tanh"),
                                 np.random.default_rng(12), widths=(32,))
    assert tanh.kernel_source == "monte_carlo"


def test_report_is_seed_reproducible():
    probe = WideNetProbe(width=16, n_networks=300,
                         probe_inputs=((1.0, 0.5), (0.8, 0.6)))
    a = correspondence_report(probe, cfg(), np.random.default_rng(11), widths=(16,))
    b = correspondence_report(probe, cfg(), np.random.default_rng(11), widths=(16,))
    assert np.array_equal(a.covariance, b.covariance)
    assert a.max_rel_deviation == b.max_rel_deviation


# ---------------------------------------------------------------------------
# the output square root: given a network's (P, k) hidden layer H, its
# outputs are N(0, H H^T / k), drawn as R z with R R^T = H H^T / k


def relu_hidden(probes, bias_std, w):
    aug = np.column_stack([probes, np.full(len(probes), bias_std)])
    return np.maximum(aug @ w, 0.0)


def gram_cases():
    """(name, H H^T / k, rank-deficient) for hidden layers at 3 probes."""
    rng = np.random.default_rng(40)
    X = np.asarray(PROBES3)
    layers = [(f"width {k}", relu_hidden(X, 1.0, rng.standard_normal((3, k))),
               True) for k in (1, 2)]
    # every unit dead at the first probe: flip the columns it would fire
    aug0 = np.append(X[0], 1.0)
    w = rng.standard_normal((3, 8))
    w *= -np.sign(aug0 @ w)
    layers.append(("all-dead probe", relu_hidden(X, 1.0, w), True))
    origin = np.array([[0.0, 0.0], X[1], X[2]])
    layers.append(("origin at bias_std 0",
                   relu_hidden(origin, 0.0, rng.standard_normal((3, 8))), True))
    layers.append(("full rank", relu_hidden(X, 1.0, rng.standard_normal((3, 64))),
                   False))
    return [(name, H @ H.T / H.shape[1], singular) for name, H, singular in layers]


def test_output_root_reproduces_singular_and_full_rank_grams():
    cases = gram_cases()
    grams = np.stack([g for _, g, _ in cases])
    roots = gpcheck._gram_root(grams)
    z = np.random.default_rng(41).standard_normal((len(cases), 3))
    outputs = np.einsum("cpj,cj->cp", roots, z)
    assert np.isfinite(roots).all() and np.isfinite(outputs).all()
    for (name, gram, singular), root in zip(cases, roots):
        assert (np.linalg.matrix_rank(gram) < 3) == singular, name
        err = np.abs(root @ root.T - gram).max()
        assert err <= 1e-12 * np.abs(gram).max(), name
    # the dead probe and the origin get outputs of 0 up to rounding
    assert np.abs(outputs[2:4, 0]).max() <= 1e-12 * np.abs(outputs).max()


# ---------------------------------------------------------------------------
# bit-identity with the sequential estimates in tests/oracles.py


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


# (width, n_networks) at 3 probes of dimension 2: chunk = 1e6 // (7 width),
# sub-block = 32768 // (3 width)
WIDE_CASES = [
    (7, 301),       # below one chunk (20,408); one sub-block of 301
    (100, 5000),    # chunks of 1,428, last 716; sub-blocks of 109, last partial
    (1500, 1000),   # 10 chunks of 95, last 50; sub-blocks of 7 do not divide 95
    (4096, 300),    # 8 chunks of 34, last 28; sub-blocks of 2 do not divide 34
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
    # more than two terms per hidden pre-activation, so summation order
    # shows; chunks of 1e6 // (7 * 333) = 429 and 71
    probe = WideNetProbe(width=333, n_networks=500,
                         probe_inputs=((1.0, 0.5, -0.3), (0.8, 0.6, 0.1)))
    c = cfg(input_dim=3, bias_std=0.7)
    got = wide_net_covariance(probe, c, np.random.default_rng(22))
    want = wide_net_covariance_oracle(probe, c, np.random.default_rng(22))
    assert np.array_equal(got, want)


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
    # small chunks, so that each width runs many of them concurrently
    monkeypatch.setattr(gpcheck, "_NETWORK_BUDGET", 2000)
    monkeypatch.setattr(oracles, "GP_NETWORK_BUDGET", 2000)
    probe = WideNetProbe(width=5, n_networks=60, probe_inputs=PROBES3)
    widths = tuple(range(1, 25))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for nonlinearity in ("relu", "tanh"):
            c = cfg(n_samples=3000, nonlinearity=nonlinearity)
            _, error = call_with_timeout(
                lambda: assert_report_equals_oracle(probe, c, 31, widths))
            assert error is None
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("failing", ["kernel_mc_matrix", "wide_net_covariance"])
def test_task_error_reaches_caller_without_hang(monkeypatch, failing):
    """A failure in the tanh kernel, or in one covariance chunk in a forked
    worker, reaches the caller with its type, and no child outlives the
    call."""
    real_chunk = gpcheck._chunk_outputs
    caller = os.getpid()
    read_end, write_end = os.pipe()

    def planted_kernel(*args):
        raise RuntimeError("planted failure in kernel_mc_matrix")

    def planted_chunk(*args):
        if os.getpid() != caller:
            os.write(write_end, b"x")
            raise RuntimeError("planted failure in wide_net_covariance")
        # leave chunks for the children: wait until one has taken a chunk
        select.select([read_end], [], [], 30.0)
        return real_chunk(*args)

    if failing == "kernel_mc_matrix":
        monkeypatch.setattr(gpcheck, "kernel_mc_matrix", planted_kernel)
        probe = WideNetProbe(width=16, n_networks=200, probe_inputs=PROBES3)
        c, widths = cfg(n_samples=5000, nonlinearity="tanh"), (16, 64, 256)
    else:
        monkeypatch.setattr(gpcheck, "_chunk_outputs", planted_chunk)
        # 10 chunks of 95 networks and one of 50
        probe = WideNetProbe(width=1500, n_networks=1000, probe_inputs=PROBES3)
        c, widths = cfg(), (1500,)
    fake_cpus(monkeypatch, 4)
    try:
        with pytest.raises(RuntimeError) as info:
            correspondence_report(probe, c, np.random.default_rng(32),
                                  widths=widths)
    finally:
        os.close(read_end)
        os.close(write_end)
    assert type(info.value) is RuntimeError
    assert str(info.value) == f"planted failure in {failing}"
    assert_no_child_left()


def spy_chunks(monkeypatch):
    """Record (rows, buffers) for every covariance chunk the calling process
    runs; a forked worker records only in its own copy."""
    real = gpcheck._chunk_outputs
    runs = []

    def spy(X, width, c, rng, n, bufs):
        runs.append((n, tuple(bufs)))
        return real(X, width, c, rng, n, bufs)

    monkeypatch.setattr(gpcheck, "_chunk_outputs", spy)
    return runs


def test_covariance_chunks_start_in_stream_order_partial_last(monkeypatch):
    fake_cpus(monkeypatch, 1)
    runs = spy_chunks(monkeypatch)
    probe = WideNetProbe(width=4096, n_networks=300, probe_inputs=PROBES3)
    wide_net_covariance(probe, cfg(), np.random.default_rng(33))
    # chunk = 1e6 // (7 * 4096) = 34 networks
    assert [rows for rows, _ in runs] == [34] * 8 + [28]


def test_every_chunk_of_a_worker_reuses_its_buffers(monkeypatch):
    fake_cpus(monkeypatch, 1)
    runs = spy_chunks(monkeypatch)
    probe = WideNetProbe(width=4096, n_networks=300, probe_inputs=PROBES3)
    got = wide_net_covariance(probe, cfg(), np.random.default_rng(34))
    want = wide_net_covariance_oracle(probe, cfg(), np.random.default_rng(34))
    assert np.array_equal(got, want)
    assert len(runs) == 9
    # runs holds every buffer it saw, so equal ids are the same arrays
    assert len({tuple(map(id, bufs)) for _, bufs in runs}) == 1
    # the (q + 1, k) weights and the hidden layers of a sub-block of 2 networks
    assert [b.size for b in runs[0][1]] == [2 * 3 * 4096, 2 * 3 * 4096]


def test_draw_memory_is_bounded_by_a_sub_block_not_a_chunk(monkeypatch):
    """Each sub-block's hidden weights are drawn just before it is used,
    so a call's arrays stay near one sub-block: 2 networks at width 4096,
    not a 34-network chunk of weights (3.3 MB)."""
    fake_cpus(monkeypatch, 1)
    probe = WideNetProbe(width=4096, n_networks=300, probe_inputs=PROBES3)
    want = wide_net_covariance_oracle(probe, cfg(), np.random.default_rng(35))
    # an untraced first call, so that one-time imports and caches stay out
    # of the peak
    assert np.array_equal(
        wide_net_covariance(probe, cfg(), np.random.default_rng(35)), want)
    tracemalloc.start()
    try:
        got = wide_net_covariance(probe, cfg(), np.random.default_rng(35))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, want)
    assert peak < 1_000_000
