"""Monte Carlo pass collection and predictive summaries."""

import tracemalloc

import numpy as np
import pytest

import mcni.mc
from mcni import workers
from mcni.mc import (PredictiveSamples, mc_predict, summarize_classification,
                     summarize_regression, welford_mean_var)
from mcni.models import build_mlp
from mcni.noise import NoiseSpec, NoisyDenseLayer
from mcni.nn import ContractError, Network, ShapeError
from mcni.optim import TrainConfig, fit

from conftest import assert_no_child_left, fake_cpus
from oracles import (entropy_oracle, relu_net_predictive_covariance_oracle,
                     relu_net_predictive_oracle, welford_scalar)


def reg_samples(passes):
    values = np.asarray(passes, dtype=float).reshape(len(passes), 1, 1)
    return PredictiveSamples(values=values)


def cls_samples(rows):
    values = np.asarray(rows, dtype=float)[:, None, :]
    return PredictiveSamples(values=values)


# ---------------------------------------------------------------------------
# regression summaries

def test_two_pass_hand_summary():
    summ = summarize_regression(reg_samples([0.0, 2.0]))
    assert summ.mean[0, 0] == 1.0
    assert summ.variance[0, 0] == 2.0
    assert summ.sigma[0, 0] == np.sqrt(2.0)
    assert summ.lower[0, 0] == 1.0 - 3.0 * np.sqrt(2.0)
    assert summ.upper[0, 0] == 1.0 + 3.0 * np.sqrt(2.0)


def test_identical_passes_give_exactly_zero_variance():
    # awkward doubles on purpose; a naive two-pass variance leaves ulp dust
    row = np.array([[0.1, 0.1 + 0.2, 1.0 / 3.0]])
    values = np.repeat(row[None, :, :], 100, axis=0)
    _, var = welford_mean_var(values)
    assert np.all(var == 0.0)


def test_welford_matches_scalar_oracle():
    rng = np.random.default_rng(0)
    xs = rng.normal(size=50) * 3.0 + 1.0
    mean, var = welford_mean_var(xs.reshape(-1, 1))
    ref_mean, ref_var = welford_scalar(xs.tolist())
    assert abs(mean[0] - ref_mean) < 1e-12
    assert abs(var[0] - ref_var) < 1e-12


def test_variance_needs_two_passes():
    with pytest.raises(ValueError):
        welford_mean_var(np.ones((1, 3)))
    with pytest.raises(ValueError):
        summarize_regression(reg_samples([1.0]))


def test_interval_symmetry_and_width():
    rng = np.random.default_rng(1)
    samples = PredictiveSamples(values=rng.normal(size=(40, 7, 2)))
    summ = summarize_regression(samples)
    assert np.max(np.abs((summ.upper - summ.mean) - (summ.mean - summ.lower))) < 1e-12
    assert np.max(np.abs((summ.upper - summ.lower) - 6.0 * summ.sigma)) < 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_dispersion_grows_with_noise_level(seed):
    x = np.linspace(-1, 1, 8)[:, None]
    sigmas = []
    for alpha in (0.05, 0.25):
        net = build_mlp("noise_fixed", 1, [16], 1, noise_level=alpha,
                        rng=np.random.default_rng(seed))
        samples = mc_predict(net, x, 100, np.random.default_rng([seed, 1]))
        sigmas.append(float(summarize_regression(samples).sigma.mean()))
    assert sigmas[1] > sigmas[0]


def test_mc_variance_is_unbiased_for_known_injection():
    """Weights [[1], [-1]] have sigma_l = 1 and input (1, 0) reads the first
    one: the output is 1 + alpha*eps, so the MC variance must approach
    (alpha*sigma_l)^2."""
    layer = NoisyDenseLayer(W=np.array([[1.0], [-1.0]]), b=np.zeros(1),
                            spec=NoiseSpec(alpha_init=0.3))
    assert layer.weight_std() == 1.0
    net = Network([layer])
    samples = mc_predict(net, np.array([[1.0, 0.0]]), 100_000,
                         np.random.default_rng(2))
    _, var = welford_mean_var(samples.values)
    assert abs(var[0, 0] - 0.09) / 0.09 < 0.05


# ---------------------------------------------------------------------------
# mc_predict plumbing

def test_pass_block_is_seed_reproducible():
    net = build_mlp("noise_fixed", 2, [6], 1, rng=np.random.default_rng(3))
    x = np.random.default_rng(4).normal(size=(5, 2))
    a = mc_predict(net, x, 16, np.random.default_rng(55))
    b = mc_predict(net, x, 16, np.random.default_rng(55))
    assert np.array_equal(a.values, b.values)


def test_passes_differ_from_each_other():
    net = build_mlp("noise_fixed", 2, [6], 1, noise_level=0.2,
                    rng=np.random.default_rng(5))
    x = np.ones((3, 2))
    samples = mc_predict(net, x, 4, np.random.default_rng(6))
    assert not np.array_equal(samples.values[0], samples.values[1])


def test_classifier_passes_are_probability_rows():
    net = build_mlp("noise_fixed", 2, [8], 3, task="classification",
                    rng=np.random.default_rng(7))
    samples = mc_predict(net, np.zeros((4, 2)), 10, np.random.default_rng(8))
    sums = samples.values.sum(axis=-1)
    assert np.max(np.abs(sums - 1.0)) < 1e-12


def test_stale_mode_argument_rejected():
    """mc_predict once took a mode after the generator; it now takes only
    the keyword ``transform`` there."""
    net = build_mlp("noise_fixed", 2, [4], 1, rng=np.random.default_rng(9))
    with pytest.raises(TypeError):
        mc_predict(net, np.zeros((1, 2)), 2, np.random.default_rng(0), "eval")


def test_at_least_one_pass_required():
    net = build_mlp("deterministic", 2, [4], 1, rng=np.random.default_rng(9))
    with pytest.raises(ValueError):
        mc_predict(net, np.zeros((1, 2)), 0, np.random.default_rng(0))


@pytest.mark.parametrize("T", [True, 2.0])
def test_pass_count_must_be_an_integer(T):
    net = build_mlp("noise_fixed", 2, [4], 1, rng=np.random.default_rng(9))
    seen = []
    rng = np.random.default_rng(0)
    with pytest.raises(TypeError, match="integer"):
        mc_predict(net, np.zeros((1, 2)), T, rng,
                   transform=lambda X, r: seen.append(X) or X)
    assert seen == []                                   # no pass ran
    assert rng.bit_generator.seed_seq.n_children_spawned == 0


def test_rng_must_be_a_generator():
    net = build_mlp("noise_fixed", 2, [4], 1, rng=np.random.default_rng(9))
    seen = []
    with pytest.raises(TypeError, match="Generator"):
        mc_predict(net, np.zeros((1, 2)), 2, [np.random.default_rng(0)],
                   transform=lambda X, r: seen.append(X) or X)
    assert seen == []                                   # no pass ran


def test_pass_streams_are_consecutive_children_of_the_generator():
    """Pass t runs on child t, and the caller's generator has spawned exactly
    T children afterwards, however the streams are grouped into blocks."""
    T = 515
    net = build_mlp("noise_fixed", 2, [4], 1, rng=np.random.default_rng(12))
    rng = np.random.default_rng(13)
    mc_predict(net, np.ones((2, 2)), T, rng)
    assert rng.bit_generator.seed_seq.n_children_spawned == T
    expected = np.random.default_rng(13).spawn(T + 1)[T]
    assert np.array_equal(rng.spawn(1)[0].integers(0, 2**62, 8),
                          expected.integers(0, 2**62, 8))


def test_stream_memory_does_not_grow_with_pass_count():
    """Past the returned samples, 20,000 passes of a small net hold less than
    1 MB; spawning every stream up front held about 18 MB."""
    spec = NoiseSpec(mode="fixed", alpha_init=0.05)
    layer = NoisyDenseLayer.create(10, 1, "identity",
                                   np.random.default_rng(14), spec=spec)
    net = Network([layer])
    X = np.random.default_rng(15).standard_normal((8, 10))
    mc_predict(net, X, 2, np.random.default_rng(16))     # warm caches
    tracemalloc.start()
    try:
        samples = mc_predict(net, X, 20_000, np.random.default_rng(17))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - samples.values.nbytes < 1_000_000


# ---------------------------------------------------------------------------
# classification summaries

def test_one_hot_passes_summary():
    one_hot = [0.0, 0.0, 0.0, 1.0, 0.0]
    summ = summarize_classification(cls_samples([one_hot, one_hot, one_hot]))
    assert summ.predicted[0] == 3
    assert summ.confidence[0] == 1.0
    assert summ.entropy[0] == 0.0
    assert np.all(summ.class_variance == 0.0)


def test_two_opposite_passes_give_uniform_mean():
    summ = summarize_classification(cls_samples([[1.0, 0.0], [0.0, 1.0]]))
    assert np.array_equal(summ.mean_probs[0], [0.5, 0.5])
    assert abs(summ.entropy[0] - np.log(2.0)) < 1e-15


def test_argmax_tie_resolves_to_lowest_class():
    row = [0.4, 0.4, 0.2]
    summ = summarize_classification(cls_samples([row, row]))
    assert summ.predicted[0] == 0


def test_mean_probs_still_sum_to_one():
    rng = np.random.default_rng(10)
    logits = rng.normal(size=(30, 6, 4))
    probs = np.exp(logits)
    probs /= probs.sum(axis=-1, keepdims=True)
    summ = summarize_classification(
        PredictiveSamples(values=probs))
    assert np.max(np.abs(summ.mean_probs.sum(axis=-1) - 1.0)) < 1e-9


def test_entropy_matches_loop_oracle():
    rng = np.random.default_rng(11)
    probs = rng.dirichlet(np.ones(5), size=(8, 3))
    summ = summarize_classification(
        PredictiveSamples(values=probs))
    for i in range(3):
        ref = entropy_oracle(summ.mean_probs[i].tolist())
        assert abs(summ.entropy[i] - ref) < 1e-12


def test_non_probability_rows_rejected():
    logits = np.array([[[2.0, 1.0]], [[0.5, 0.5]]])
    with pytest.raises(ValueError):
        summarize_classification(
            PredictiveSamples(values=logits))


def test_nan_probability_row_rejected():
    """A diverged classifier's NaN rows are not probabilities."""
    rows = cls_samples([[0.25, 0.75], [np.nan, np.nan], [0.5, 0.5]])
    with pytest.raises(ValueError, match="probability rows"):
        summarize_classification(rows)


# ---------------------------------------------------------------------------
# reused traces: bit-exact against plain allocating forward passes

FAMILIES = ["deterministic", "mc_dropout", "noise_fixed", "noise_learned"]


def reference_passes(net, X, T, rng, transform=None):
    """mc_predict as a loop of plain net.forward calls over streams spawned
    all at once, each pass in a trace of its own."""
    outs = []
    for stream in rng.spawn(T):
        x = X
        if transform is not None:
            input_rng, stream = stream.spawn(2)
            x = transform(X, input_rng)
        out, _ = net.forward(x, stream)
        if net.task == "classification":
            e = np.exp(out - out.max(axis=-1, keepdims=True))
            out = e / e.sum(axis=-1, keepdims=True)
        outs.append(out)
    return np.stack(outs)


def head_net(family, activation, head, seed):
    """A regression net, or a classifier whose logits are turned into
    probability rows by mc_predict. Under the "probabilities" head the
    classifier's logits lie hundreds apart, so that its probabilities
    saturate at exactly 0 and 1 and only the shift-stabilized softmax keeps
    the rows finite."""
    task = "regression" if head == "regression" else "classification"
    net = build_mlp(family, 3, [6, 5], 1 if task == "regression" else 4,
                    task=task, activation=activation, noise_level=0.2,
                    rng=np.random.default_rng(seed))
    if head == "probabilities":
        net.layers[-1].b[:] = [0.0, 300.0, 600.0, 900.0]
    return net


@pytest.mark.parametrize("head", ["regression", "logits", "probabilities"])
@pytest.mark.parametrize("activation", ["relu", "tanh", "sigmoid"])
@pytest.mark.parametrize("family", FAMILIES)
def test_workspace_passes_equal_plain_forward(family, activation, head):
    net = head_net(family, activation, head, 20)
    X = np.random.default_rng(21).normal(size=(9, 3)) * 2.0
    for T in (1, 6):
        got = mc_predict(net, X, T, np.random.default_rng([22, T]))
        ref = reference_passes(net, X, T, np.random.default_rng([22, T]))
        assert np.array_equal(got.values, ref), T
        if head != "regression":
            assert np.max(np.abs(got.values.sum(axis=-1) - 1.0)) < 1e-12
        if head == "probabilities":
            assert np.all(got.values[..., 0] == 0.0)
            assert np.all(got.values[..., 3] == 1.0)


@pytest.mark.parametrize("head", ["regression", "logits"])
def test_many_passes_equal_plain_forward(head):
    """Hundreds of passes, each spawning its own stream, equal plain forward
    passes over streams spawned all at once, with a per-pass input transform
    too."""
    net = head_net("noise_learned", "relu", head, 23)
    X = np.random.default_rng(24).normal(size=(3, 3))
    T = 515
    transform = None
    if head == "logits":
        transform = lambda X, r: X + 0.1 * r.standard_normal(X.shape)
    got = mc_predict(net, X, T, np.random.default_rng(25), transform=transform)
    ref = reference_passes(net, X, T, np.random.default_rng(25), transform)
    assert np.array_equal(got.values, ref)


def test_sigma_l_computed_once_per_noisy_layer_per_call(monkeypatch):
    import mcni.noise
    calls = []
    original = mcni.noise.layer_weight_std

    def counting(W):
        calls.append(W.shape)
        return original(W)

    monkeypatch.setattr(mcni.noise, "layer_weight_std", counting)
    net = build_mlp("noise_fixed", 3, [6, 5], 1, rng=np.random.default_rng(27))
    mc_predict(net, np.ones((4, 3)), 20, np.random.default_rng(28))
    assert calls == [(3, 6), (6, 5), (5, 1)]


def test_second_call_leaves_first_values_unchanged():
    net = build_mlp("mc_dropout", 3, [6], 1, rng=np.random.default_rng(29))
    X = np.random.default_rng(30).normal(size=(5, 3))
    first = mc_predict(net, X, 4, np.random.default_rng(31))
    kept = first.values.copy()
    second = mc_predict(net, X, 4, np.random.default_rng(32))
    assert np.array_equal(first.values, kept)
    assert not np.array_equal(first.values, second.values)
    # every pass kept its own output, not a view of the last pass
    assert not np.array_equal(first.values[0], first.values[-1])


@pytest.mark.parametrize("family", FAMILIES)
def test_reused_trace_backward_equals_fresh_pass(family):
    """A reused trace holds its latest pass as one consistent set of arrays,
    so backward through it equals backward through a fresh pass on the same
    stream, bit for bit."""
    net = head_net(family, "tanh", "regression", 33)
    X = np.random.default_rng(34).normal(size=(4, 3))
    _, trace = net.forward(X + 1.0, np.random.default_rng(35))
    out, trace = net.forward(X, np.random.default_rng(36), reuse=trace)
    fresh_out, fresh = net.forward(X, np.random.default_rng(36))
    grad_out = np.random.default_rng(37).normal(size=out.shape)
    assert np.array_equal(out, fresh_out)
    assert np.array_equal(net.backward(trace, grad_out),
                          net.backward(fresh, grad_out))


@pytest.mark.parametrize("family", FAMILIES)
def test_reused_pass_writes_into_the_trace_arrays(family):
    """A reused pass returns the same trace and output, and every layer cache
    holds the same objects as before the pass: nothing is reallocated."""
    net = head_net(family, "sigmoid", "logits", 38)
    X = np.random.default_rng(39).normal(size=(5, 3))
    out, trace = net.forward(X, np.random.default_rng(40))
    before = [dict(cache) for cache in trace.caches]
    again, same = net.forward(X, np.random.default_rng(41), reuse=trace)
    assert same is trace and again is out
    for kept, cache in zip(before, trace.caches):
        assert cache.keys() == kept.keys()
        assert all(cache[key] is kept[key] for key in kept)


def test_reused_trace_must_fit_network_and_batch():
    net = build_mlp("noise_fixed", 3, [6], 1, rng=np.random.default_rng(35))
    other = build_mlp("noise_fixed", 3, [6], 1, rng=np.random.default_rng(35))
    _, foreign = other.forward(np.ones((4, 3)), np.random.default_rng(0))
    _, trace = net.forward(np.ones((4, 3)), np.random.default_rng(0))
    with pytest.raises(ContractError):
        net.forward(np.ones((4, 3)), np.random.default_rng(0), reuse=foreign)
    with pytest.raises(ShapeError):
        net.forward(np.ones((5, 3)), np.random.default_rng(0), reuse=trace)


# ---------------------------------------------------------------------------
# passes on worker processes

def dense_work(net) -> int:
    """Multiply-adds of one pass over one row: sum of fan_in x fan_out."""
    return sum(l.W.size for l in net.layers if hasattr(l, "W"))


@pytest.mark.parametrize("case", ["noise_fixed", "noise_learned", "mc_dropout",
                                  "classification", "transform"])
def test_samples_are_the_same_at_any_cpu_count(monkeypatch, case):
    """24 passes of a 10-50-50 net over 500 rows are 3 blocks at the default
    budget and 9 or 10 at a quarter of it. At 1, 2 and 8 CPUs the samples
    are the bytes of a loop of plain passes, and afterwards the generator
    has spawned exactly T children, its next one that of a fresh generator."""
    family = case if case in FAMILIES else "noise_fixed"
    task = "classification" if case == "classification" else "regression"
    net = build_mlp(family, 10, [50, 50], 3 if task == "classification" else 1,
                    task=task, noise_level=0.2, dropout_p=0.2,
                    rng=np.random.default_rng(42))
    X = np.random.default_rng(43).normal(size=(500, 10))
    T = 24
    transform = None
    if case == "transform":
        transform = lambda X, r: X + 0.1 * r.standard_normal(X.shape)
    ref = reference_passes(net, X, T, np.random.default_rng(44), transform)
    next_child = np.random.default_rng(44).spawn(T + 1)[T].integers(0, 2**62, 8)
    for budget in (mcni.mc._PASS_BUDGET, mcni.mc._PASS_BUDGET // 4):
        monkeypatch.setattr(mcni.mc, "_PASS_BUDGET", budget)
        blocks = -(-T * X.shape[0] * dense_work(net) // budget)
        assert blocks >= 3
        for cpus in (1, 2, 8):
            fake_cpus(monkeypatch, cpus)
            monkeypatch.setattr(workers, "most_processes", 1)
            rng = np.random.default_rng(44)
            got = mc_predict(net, X, T, rng, transform=transform)
            assert got.values.tobytes() == ref.tobytes(), (budget, cpus)
            assert workers.most_processes == min(cpus, blocks)
            assert rng.bit_generator.seed_seq.n_children_spawned == T
            assert np.array_equal(rng.spawn(1)[0].integers(0, 2**62, 8),
                                  next_child)
            assert_no_child_left()


def test_passes_start_at_the_generators_next_child(monkeypatch):
    """A generator that spawned children before the call gives the passes
    its next ones, with one pass per block on two processes."""
    monkeypatch.setattr(mcni.mc, "_PASS_BUDGET", 1)
    fake_cpus(monkeypatch, 2)
    net = build_mlp("noise_fixed", 3, [5], 1, noise_level=0.2,
                    rng=np.random.default_rng(45))
    X = np.random.default_rng(46).normal(size=(4, 3))
    rng, ref_rng = np.random.default_rng(47), np.random.default_rng(47)
    rng.spawn(3)
    ref_rng.spawn(3)
    monkeypatch.setattr(workers, "most_processes", 1)
    got = mc_predict(net, X, 7, rng)
    assert workers.most_processes == 2
    assert np.array_equal(got.values, reference_passes(net, X, 7, ref_rng))
    assert rng.bit_generator.seed_seq.n_children_spawned == 10
    assert_no_child_left()


def test_a_pass_error_in_a_forked_worker_reaches_the_caller(monkeypatch, gate):
    """A transform that raises in a forked worker (the caller's own passes
    wait until one has) fails the call with that exception's type."""
    monkeypatch.setattr(mcni.mc, "_PASS_BUDGET", 1)
    fake_cpus(monkeypatch, 2)
    net = build_mlp("noise_fixed", 3, [5], 1, rng=np.random.default_rng(48))

    def transform(X, rng):
        if gate.in_child():
            raise ValueError("bad input in a forked worker")
        return X

    with pytest.raises(ValueError, match="in a forked worker") as info:
        mc_predict(net, np.ones((2, 3)), 6, np.random.default_rng(49),
                   transform=transform)
    assert type(info.value) is ValueError
    assert_no_child_left()


def one_hidden_layer_net(which):
    """A 4-32-1 ReLU noise net: two with set biases and noise levels, and
    one trained on a smooth target."""
    if which == "trained":
        net = build_mlp("noise_fixed", 4, [32], 1, noise_level=0.2,
                        rng=np.random.default_rng(50))
        data = np.random.default_rng(51)
        X = data.normal(size=(200, 4))
        Y = np.sin(X @ np.array([[1.0], [-0.5], [0.3], [0.8]]))
        fit(net, X, Y, TrainConfig(lr=0.01, max_epochs=40, batch_size=32,
                                   patience=0), rng=np.random.default_rng(52))
        return net
    seed, alphas = {"even": (53, (0.3, 0.3)), "uneven": (54, (0.6, 0.15))}[which]
    net = build_mlp("noise_fixed", 4, [32], 1, rng=np.random.default_rng(seed))
    biases = np.random.default_rng(seed + 100)
    for layer, alpha in zip(net.layers, alphas):
        layer.alpha[...] = alpha
        layer.b[...] = biases.normal(0.0, 0.3, size=layer.b.shape)
    return net


@pytest.mark.parametrize("which", ["even", "uneven", "trained"])
def test_one_hidden_layer_predictive_matches_closed_form(which):
    """At T = 10,000 each row's sample mean and variance lie within 4.5
    standard errors of the closed form (oracles.relu_net_predictive_oracle).

    The SE of the mean is sqrt(v / T), that of the unbiased variance
    sqrt((m4 - v^2 (T - 3) / (T - 1)) / T), with v and m4 the sample
    variance and fourth central moment. Over 3 nets x 16 rows x 2
    statistics, a two-sided bound of 4.5 SE leaves a family-wise
    false-alarm rate under 7e-4 (Bonferroni, normal estimates). The call,
    10,000 passes of 16 rows through 4 x 32 + 32 weights, is two blocks,
    so it runs on two processes where two CPUs are usable.
    """
    net = one_hidden_layer_net(which)
    hidden, out = net.layers
    X = np.random.default_rng(55).normal(size=(16, 4))
    T = 10_000
    assert T * X.shape[0] * dense_work(net) > mcni.mc._PASS_BUDGET
    v = mc_predict(net, X, T, np.random.default_rng(56)).values[:, :, 0]
    mean, var = v.mean(axis=0), v.var(axis=0, ddof=1)
    m4 = ((v - mean) ** 4).mean(axis=0)
    se_mean = np.sqrt(var / T)
    se_var = np.sqrt((m4 - var ** 2 * (T - 3) / (T - 1)) / T)
    for i, x in enumerate(X):
        exact_mean, exact_var = relu_net_predictive_oracle(
            list(x), hidden.W.tolist(), hidden.b.tolist(), float(hidden.alpha),
            out.W[:, 0].tolist(), float(out.b[0]), float(out.alpha))
        assert abs(mean[i] - exact_mean) < 4.5 * se_mean[i], (i, "mean")
        assert abs(var[i] - exact_var) < 4.5 * se_var[i], (i, "variance")


def test_one_hidden_layer_predictive_covariance_across_rows_matches_closed_form():
    """One eps is shared by every row of a pass, so the predictive is a
    process over the inputs. At T = 10,000 every entry of the 5 x 5 sample
    covariance of a 3-20-1 ReLU noise_fixed net at alpha 0.3 lies within 4.5
    standard errors of the closed form
    (oracles.relu_net_predictive_covariance_oracle).

    The SE of entry (a, b) is sqrt((m22 - c^2) / T), with c the sample
    covariance and m22 the sample mean of the squared centred product. Over
    the 15 distinct entries a two-sided bound of 4.5 SE leaves a family-wise
    false-alarm rate under 1.1e-4 (Bonferroni, normal estimates). A sampler
    that draws eps per row, written here in plain numpy, has the right
    moments at each row but independent rows, and fails the bound by far.
    """
    net = build_mlp("noise_fixed", 3, [20], 1, rng=np.random.default_rng(60))
    biases = np.random.default_rng(61)
    for layer in net.layers:
        layer.alpha[...] = 0.3
        layer.b[...] = biases.normal(0.0, 0.3, size=layer.b.shape)
    hidden, out = net.layers
    X = np.random.default_rng(62).normal(size=(5, 3))
    T = 10_000
    exact = np.array(relu_net_predictive_covariance_oracle(
        X.tolist(), hidden.W.tolist(), hidden.b.tolist(), float(hidden.alpha),
        out.W[:, 0].tolist(), float(out.b[0]), float(out.alpha)))

    def max_abs_z(v):
        centred = v - v.mean(axis=0)
        cov = centred.T @ centred / (T - 1)
        m22 = (centred ** 2).T @ centred ** 2 / T
        return float(np.max(np.abs(cov - exact) / np.sqrt((m22 - cov ** 2) / T)))

    v = mc_predict(net, X, T, np.random.default_rng(63)).values[:, :, 0]
    assert max_abs_z(v) < 4.5

    per_row = np.empty((T, len(X)))
    eps = np.random.default_rng(64)
    scale1 = float(hidden.alpha) * hidden.W.std()
    scale2 = float(out.alpha) * out.W.std()
    for i, x in enumerate(X):
        W1 = hidden.W + scale1 * eps.standard_normal((T,) + hidden.W.shape)
        W2 = out.W[:, 0] + scale2 * eps.standard_normal((T, len(out.W)))
        h = np.maximum(np.einsum("i,tij->tj", x, W1) + hidden.b, 0.0)
        per_row[:, i] = np.einsum("tj,tj->t", h, W2) + out.b[0]
    assert max_abs_z(per_row) > 4 * 4.5
