"""Monte Carlo pass collection and predictive summaries."""

import numpy as np
import pytest

from mcni.mc import (PredictiveSamples, mc_predict, summarize_classification,
                     summarize_regression, welford_mean_var)
from mcni.models import build_mlp
from mcni.noise import NoiseSpec, NoisyDenseLayer
from mcni.nn import (DETERMINISTIC, EVAL, TRAIN, ContractError, Network,
                     ShapeError)

from oracles import entropy_oracle, welford_scalar


def reg_samples(passes):
    values = np.asarray(passes, dtype=float).reshape(len(passes), 1, 1)
    return PredictiveSamples(values=values, task="regression")


def cls_samples(rows):
    values = np.asarray(rows, dtype=float)[:, None, :]
    return PredictiveSamples(values=values, task="classification")


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
    samples = PredictiveSamples(values=rng.normal(size=(40, 7, 2)),
                                task="regression")
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
    assert a.lineage == b.lineage
    assert len(a.lineage) == 16


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


def test_at_least_one_pass_required():
    net = build_mlp("deterministic", 2, [4], 1, rng=np.random.default_rng(9))
    with pytest.raises(ValueError):
        mc_predict(net, np.zeros((1, 2)), 0, np.random.default_rng(0))


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
        PredictiveSamples(values=probs, task="classification"))
    assert np.max(np.abs(summ.mean_probs.sum(axis=-1) - 1.0)) < 1e-9


def test_entropy_matches_loop_oracle():
    rng = np.random.default_rng(11)
    probs = rng.dirichlet(np.ones(5), size=(8, 3))
    summ = summarize_classification(
        PredictiveSamples(values=probs, task="classification"))
    for i in range(3):
        ref = entropy_oracle(summ.mean_probs[i].tolist())
        assert abs(summ.entropy[i] - ref) < 1e-12


def test_non_probability_rows_rejected():
    logits = np.array([[[2.0, 1.0]], [[0.5, 0.5]]])
    with pytest.raises(ValueError):
        summarize_classification(
            PredictiveSamples(values=logits, task="classification"))


# ---------------------------------------------------------------------------
# workspace path: bit-exact against plain allocating forward passes

def reference_passes(net, X, T, rng, mode):
    """mc_predict as a loop of plain net.forward calls, no workspace."""
    outs = []
    for stream in rng.spawn(T):
        out, _ = net.forward(X, mode, stream)
        if net.task == "classification" and not net.outputs_probabilities:
            e = np.exp(out - out.max(axis=-1, keepdims=True))
            out = e / e.sum(axis=-1, keepdims=True)
        outs.append(out)
    return np.stack(outs)


def head_net(family, activation, head, seed):
    task = "regression" if head == "regression" else "classification"
    net = build_mlp(family, 3, [6, 5], 1 if task == "regression" else 4,
                    task=task, activation=activation, noise_level=0.2,
                    rng=np.random.default_rng(seed))
    if head == "probabilities":
        net.layers[-1].activation = "softmax"
    return net


@pytest.mark.parametrize("head", ["regression", "logits", "probabilities"])
@pytest.mark.parametrize("activation", ["relu", "tanh", "sigmoid"])
@pytest.mark.parametrize("family", ["deterministic", "mc_dropout",
                                    "noise_fixed", "noise_learned"])
def test_workspace_passes_equal_plain_forward(family, activation, head):
    net = head_net(family, activation, head, 20)
    X = np.random.default_rng(21).normal(size=(9, 3)) * 2.0
    for mode in (EVAL, DETERMINISTIC):
        for T in (1, 6):
            got = mc_predict(net, X, T, np.random.default_rng([22, T]), mode)
            ref = reference_passes(net, X, T, np.random.default_rng([22, T]),
                                   mode)
            assert np.array_equal(got.values, ref), (mode, T)


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


def test_workspace_trace_cannot_be_replayed_backward():
    net = build_mlp("noise_learned", 3, [6], 1, rng=np.random.default_rng(33))
    X = np.ones((4, 3))
    out, trace = net.forward(X, TRAIN, np.random.default_rng(34),
                             workspace=net.workspace(4))
    with pytest.raises(ContractError):
        net.backward(trace, np.ones_like(out))


def test_workspace_must_fit_network_and_batch():
    net = build_mlp("noise_fixed", 3, [6], 1, rng=np.random.default_rng(35))
    other = build_mlp("noise_fixed", 3, [6], 1, rng=np.random.default_rng(35))
    with pytest.raises(ContractError):
        net.forward(np.ones((4, 3)), EVAL, np.random.default_rng(0),
                    workspace=other.workspace(4))
    with pytest.raises(ShapeError):
        net.forward(np.ones((5, 3)), EVAL, np.random.default_rng(0),
                    workspace=net.workspace(4))
