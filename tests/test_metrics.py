"""Metric hand cases, oracle battery, and interval properties."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcni.metrics import (brier, ece, mpiw, msll, nll_gaussian, picp,
                          risk_coverage, rmse)
from mcni.nn import ShapeError

from oracles import (brier_oracle, ece_oracle, mpiw_oracle, msll_oracle,
                     nll_gaussian_oracle, picp_oracle, risk_coverage_oracle,
                     rmse_oracle)


# ---------------------------------------------------------------------------
# hand cases

def test_picp_half_covered():
    lower, upper = [0.0, 0.0], [2.0, 2.0]
    assert picp([1.0, 3.0], lower, upper) == 0.5


def test_picp_boundary_counts_as_covered():
    assert picp([2.0], [0.0], [2.0]) == 1.0
    assert picp([0.0], [0.0], [2.0]) == 1.0


def test_picp_is_nan_when_a_target_or_bound_is_nan():
    nan = float("nan")
    assert np.isnan(picp([0.0], [nan], [nan]))
    assert np.isnan(picp([0.0, 1.0], [-1.0, nan], [1.0, nan]))
    assert np.isnan(picp([nan, 1.0], [-1.0, 0.0], [1.0, 2.0]))
    assert np.isnan(picp([0.0, 1.0], [-1.0, 0.0], [1.0, nan]))
    # an infinite bound is still an interval
    assert picp([0.0, 5.0], [-np.inf, 0.0], [np.inf, 2.0]) == 0.5


def test_picp_rejects_inverted_interval():
    with pytest.raises(ValueError):
        picp([1.0], [2.0], [0.0])
    with pytest.raises(ShapeError):
        picp([1.0, 2.0], [0.0], [3.0])


def test_mpiw_hand_value():
    assert abs(mpiw([0.0, 0.0], [0.2, 0.4]) - 0.3) < 1e-12


def test_mpiw_degenerate_zero():
    assert mpiw([1.0, 2.0], [1.0, 2.0]) == 0.0


def test_rmse_hand_values():
    y = np.array([1.0, -2.0, 0.5])
    assert rmse(y, y) == 0.0
    assert abs(rmse([0.0, 0.0], [3.0, 4.0]) - np.sqrt(12.5)) < 1e-12
    with pytest.raises(ShapeError):
        rmse([1.0], [1.0, 2.0])


def test_nll_zero_at_matched_variance():
    # residual 0 and sigma^2 = 1/(2 pi) makes the log term vanish
    s = 1.0 / np.sqrt(2.0 * np.pi)
    out = nll_gaussian([1.0], [1.0], [s])
    assert abs(out.total) < 1e-15


def test_nll_unit_residual_unit_sigma():
    out = nll_gaussian([1.0], [0.0], [1.0])
    expected = 0.5 * np.log(2.0 * np.pi) + 0.5
    assert abs(out.total - expected) < 1e-12
    assert abs(out.total - 1.41894) < 1e-5


def test_nll_floors_zero_sigma():
    out = nll_gaussian([0.0, 0.0], [0.0, 0.0], [0.0, 1.0])
    assert np.all(np.isfinite(out.per_point))
    assert out.n_floored == 1


def test_nll_rejects_negative_sigma():
    with pytest.raises(ValueError):
        nll_gaussian([0.0], [0.0], [-1.0])


def test_msll_against_itself_is_zero():
    v = np.array([1.0, 2.0, -0.5])
    assert msll(v, v) == 0.0


def test_msll_summed_and_per_point_conventions():
    model = np.array([1.0, 2.0])
    base = np.array([0.5, 0.5])
    assert msll(model, base) == 2.0
    with pytest.raises(ShapeError):
        msll([1.0], [1.0, 2.0])


def test_ece_single_confident_correct_sample():
    assert ece([1.0], [True], n_bins=15) == 0.0


def test_ece_two_samples_one_bin():
    # acc 0.5 vs mean confidence 0.7
    assert abs(ece([0.8, 0.6], [True, False], n_bins=1) - 0.2) < 1e-12


def test_ece_zero_when_bins_are_calibrated():
    conf = [0.75, 0.75, 0.75, 0.75]
    correct = [True, True, True, False]
    assert ece(conf, correct, n_bins=2) == 0.0


def test_ece_bin_edges_are_right_closed():
    """Confidence exactly 1/15 shares bin 0 with smaller values; a floor
    rule would put it in bin 1 and change the result."""
    b = 15
    got = ece([1.0 / b, 0.01], [True, False], n_bins=b)
    shared_bin = abs(0.5 - (1.0 / b + 0.01) / 2.0)
    assert abs(got - shared_bin) < 1e-12


def test_ece_zero_and_one_land_in_end_bins():
    b = 15
    got = ece([0.0, 0.05], [True, True], n_bins=b)      # both in bin 0
    assert abs(got - (1.0 - 0.025)) < 1e-12
    got = ece([1.0, 0.95], [True, False], n_bins=b)     # both in bin 14
    assert abs(got - abs(0.5 - 0.975)) < 1e-12


def test_ece_validation():
    with pytest.raises(ValueError):
        ece([1.2], [True])
    with pytest.raises(ValueError):
        ece([0.5], [True], n_bins=0)
    with pytest.raises(ValueError):
        ece([], [])


def test_ece_rejects_nan_confidence():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            ece([0.5, np.nan], [1, 0])


def test_brier_rejects_nan_row():
    p = np.array([[0.25, 0.75], [np.nan, np.nan]])
    with pytest.raises(ValueError, match="sum to 1"):
        brier(p, np.array([1, 0]))


def test_brier_rejects_empty_input():
    with pytest.raises(ValueError, match="no samples"):
        brier(np.empty((0, 3)), np.empty(0, dtype=np.int64))


def test_brier_perfect_prediction():
    p = np.array([[0.0, 1.0, 0.0]])
    assert brier(p, np.array([1])) == 0.0


def test_brier_uniform_ten_classes():
    p = np.full((1, 10), 0.1)
    assert abs(brier(p, np.array([4])) - 0.9) < 1e-12


@pytest.mark.parametrize("c", [2, 3, 5, 10])
def test_brier_uniform_closed_form(c):
    p = np.full((3, c), 1.0 / c)
    labels = np.arange(3) % c
    expected = (c - 1) / c ** 2 + (1.0 - 1.0 / c) ** 2
    assert abs(brier(p, labels) - expected) < 1e-12


@pytest.mark.parametrize("labels", [np.array([1.0, 0.0]),
                                    np.array([True, False])])
def test_brier_requires_integer_labels(labels):
    # boolean labels would index as a mask and score 0.65, not 0.25
    p = np.array([[0.3, 0.7], [0.6, 0.4]])
    with pytest.raises(ShapeError, match="labels must be integers"):
        brier(p, labels)
    assert abs(brier(p, labels.astype(np.int64)) - 0.25) < 1e-12


def test_brier_rejects_unnormalized_rows():
    with pytest.raises(ValueError):
        brier(np.array([[0.5, 0.6]]), np.array([0]))


def test_risk_coverage_four_point_hand_case():
    curve = risk_coverage([0.0, 1.0, 2.0, 3.0], "rmse", [0.25, 0.5, 1.0],
                          pred=[0.0, 1.0, 2.0, 3.0], target=[0.0] * 4)
    assert curve.coverages.tolist() == [0.25, 0.5, 1.0]
    assert curve.risks[0] == 0.0
    assert abs(curve.risks[1] - np.sqrt(0.5)) < 1e-12
    assert abs(curve.risks[2] - np.sqrt(3.5)) < 1e-12


def test_risk_at_full_coverage_equals_global_metric():
    rng = np.random.default_rng(0)
    pred, target = rng.normal(size=20), rng.normal(size=20)
    unc = rng.random(20)
    curve = risk_coverage(unc, "rmse", [0.5, 1.0], pred=pred, target=target)
    assert abs(curve.risks[-1] - rmse(pred, target)) < 1e-12

    correct = rng.random(20) > 0.4
    curve = risk_coverage(unc, "error_rate", [1.0], correct=correct)
    assert abs(curve.risks[-1] - (1.0 - correct.mean())) < 1e-12


def test_perfect_ranking_gives_monotone_curve():
    rng = np.random.default_rng(1)
    errors = np.sort(np.abs(rng.normal(size=30)))
    target = np.zeros(30)
    grid = [0.1, 0.25, 0.5, 0.75, 1.0]
    curve = risk_coverage(errors, "rmse", grid, pred=errors, target=target)
    assert np.all(np.diff(curve.risks) >= 0.0)


def test_uncertainty_ties_keep_original_order():
    curve = risk_coverage([1.0, 1.0], "rmse", [0.5, 1.0],
                          pred=[0.0, 5.0], target=[0.0, 0.0])
    assert curve.risks[0] == 0.0


def test_small_coverage_still_selects_a_point():
    # ceil keeps every positive coverage non-empty
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        curve = risk_coverage([3.0, 1.0, 2.0], "rmse", [0.01, 1.0],
                              pred=[1.0, 1.0, 1.0], target=[0.0, 0.0, 0.0])
    assert len(curve.coverages) == 2


def test_risk_coverage_validation():
    with pytest.raises(ValueError):
        risk_coverage([1.0], "rmse", [0.5])              # missing 1.0
    with pytest.raises(ValueError):
        risk_coverage([1.0], "rmse", [0.0, 1.0])
    with pytest.raises(ValueError):
        risk_coverage([1.0], "rmse", [])
    with pytest.raises(ValueError):
        risk_coverage([1.0], "mae", [1.0])
    with pytest.raises(ValueError):
        risk_coverage([1.0], "rmse", [1.0])              # pred/target absent
    with pytest.raises(ValueError):
        risk_coverage([1.0], "error_rate", [1.0])        # correct absent


# ---------------------------------------------------------------------------
# oracle battery: 100 random cases per metric

N_CASES = 100
TOL = 1e-12


def test_picp_mpiw_oracle_battery():
    rng = np.random.default_rng(100)
    for _ in range(N_CASES):
        n = int(rng.integers(1, 40))
        mid = rng.normal(size=n)
        half = rng.random(n) * 2.0
        lower, upper = mid - half, mid + half
        y = rng.normal(size=n) * 2.0
        assert abs(picp(y, lower, upper)
                   - picp_oracle(y.tolist(), lower.tolist(), upper.tolist())) < TOL
        assert abs(mpiw(lower, upper)
                   - mpiw_oracle(lower.tolist(), upper.tolist())) < TOL


def test_rmse_oracle_battery():
    rng = np.random.default_rng(101)
    for _ in range(N_CASES):
        n = int(rng.integers(1, 40))
        pred, y = rng.normal(size=n), rng.normal(size=n)
        assert abs(rmse(pred, y) - rmse_oracle(pred.tolist(), y.tolist())) < TOL


def test_nll_msll_oracle_battery():
    rng = np.random.default_rng(102)
    for _ in range(N_CASES):
        n = int(rng.integers(1, 40))
        y, mean = rng.normal(size=n), rng.normal(size=n)
        sigma = rng.random(n) * 2.0        # occasionally tiny, exercising the floor
        out = nll_gaussian(y, mean, sigma)
        ref, ref_floored = nll_gaussian_oracle(y.tolist(), mean.tolist(),
                                               sigma.tolist())
        assert np.max(np.abs(out.per_point - np.asarray(ref))) < TOL
        assert out.n_floored == ref_floored
        base = rng.normal(size=n)
        assert abs(msll(out.per_point, base)
                   - msll_oracle(out.per_point.tolist(), base.tolist())) < 1e-10


def test_ece_oracle_battery():
    rng = np.random.default_rng(103)
    for _ in range(N_CASES):
        n = int(rng.integers(1, 60))
        conf = rng.random(n)
        correct = rng.random(n) > 0.5
        bins = int(rng.integers(1, 20))
        assert abs(ece(conf, correct, bins)
                   - ece_oracle(conf.tolist(), correct.tolist(), bins)) < TOL


def test_brier_oracle_battery():
    rng = np.random.default_rng(104)
    for _ in range(N_CASES):
        n = int(rng.integers(1, 30))
        c = int(rng.integers(2, 6))
        p = rng.dirichlet(np.ones(c), size=n)
        labels = rng.integers(0, c, size=n)
        assert abs(brier(p, labels)
                   - brier_oracle(p.tolist(), labels.tolist())) < TOL


def test_risk_coverage_oracle_battery():
    rng = np.random.default_rng(105)
    for _ in range(N_CASES):
        n = int(rng.integers(2, 40))
        unc = np.round(rng.random(n), 2)      # induce ties on purpose
        pred, target = rng.normal(size=n), rng.normal(size=n)
        grid = sorted(set(np.round(rng.random(3) * 0.9 + 0.05, 3)) | {1.0})
        curve = risk_coverage(unc, "rmse", grid, pred=pred, target=target)
        ref = risk_coverage_oracle(unc.tolist(), grid, "rmse",
                                   pred=pred.tolist(), target=target.tolist())
        assert len(curve.points) == len(ref)
        for (c_a, r_a), (c_b, r_b) in zip(curve.points, ref):
            assert c_a == c_b
            assert abs(r_a - r_b) < TOL

        correct = (rng.random(n) > 0.3).tolist()
        for kind in ("error_rate", "accuracy"):
            curve = risk_coverage(unc, kind, grid, correct=correct)
            ref = risk_coverage_oracle(unc.tolist(), grid, kind, correct=correct)
            for (c_a, r_a), (c_b, r_b) in zip(curve.points, ref):
                assert abs(r_a - r_b) < TOL


# ---------------------------------------------------------------------------
# interval properties

def test_widening_helps_picp_and_adds_exactly_2delta_to_mpiw():
    rng = np.random.default_rng(106)
    for delta in (0.01, 0.37, 2.5):
        n = 25
        mid = rng.normal(size=n)
        half = rng.random(n)
        lower, upper = mid - half, mid + half
        y = rng.normal(size=n) * 1.5
        p0, w0 = picp(y, lower, upper), mpiw(lower, upper)
        p1 = picp(y, lower - delta, upper + delta)
        w1 = mpiw(lower - delta, upper + delta)
        assert p1 >= p0
        assert abs(w1 - (w0 + 2.0 * delta)) < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-100, 100), min_size=1, max_size=20),
       st.floats(0.001, 10.0))
def test_picp_bounded_and_monotone_under_widening(ys, delta):
    y = np.asarray(ys)
    lower = y - 0.5
    upper = y + 0.1
    p = picp(y, lower, upper)
    assert 0.0 <= p <= 1.0
    assert picp(y, lower - delta, upper + delta) >= p


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=2, max_size=15),
       st.lists(st.floats(-50, 50), min_size=2, max_size=15))
def test_msll_antisymmetry(a, b):
    n = min(len(a), len(b))
    x, y = np.asarray(a[:n]), np.asarray(b[:n])
    assert abs(msll(x, y) + msll(y, x)) < 1e-9
