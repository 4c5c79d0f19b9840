"""Oracle tests for recovery metrics and the interpolation baseline.

The weighted RMSE is checked against an independently coded double-loop
evaluation; detection precision/recall against brute-force confusion
counts; the baseline interpolator against hand midpoints and edge-hold
rules.
"""

import numpy as np
import pytest

from tsdm.metrics import (baseline_interpolate, detection_metrics,
                          masked_rmse, weighted_rmse)


# ---------------------------------------------------------- weighted_rmse


def test_weighted_rmse_zero_when_equal():
    x = np.random.default_rng(0).standard_normal((4, 8))
    assert weighted_rmse(x, x.copy()) == 0.0


def test_weighted_rmse_single_entry():
    truth = np.zeros((4, 8))
    rec = truth.copy()
    rec[1, 3] = 0.5
    assert weighted_rmse(truth, rec) == pytest.approx(
        np.sqrt(0.25 / 32), abs=1e-15)


def test_weighted_rmse_matches_double_loop():
    rng = np.random.default_rng(1)
    truth = rng.standard_normal((4, 8))
    rec = rng.standard_normal((4, 8))
    weights = rng.random(4) + 0.1
    total = 0.0
    for m in range(4):
        for t in range(8):
            total += weights[m] * (truth[m, t] - rec[m, t]) ** 2
    expected = np.sqrt(total / 32)
    assert weighted_rmse(truth, rec, weights) == pytest.approx(expected,
                                                               rel=1e-12)


def test_weighted_rmse_unit_weights_is_plain_rmse():
    rng = np.random.default_rng(2)
    truth = rng.standard_normal((5, 7))
    rec = rng.standard_normal((5, 7))
    plain = np.sqrt(np.mean((truth - rec) ** 2))
    assert weighted_rmse(truth, rec) == pytest.approx(plain, rel=1e-12)
    assert weighted_rmse(truth, rec, np.ones(5)) == pytest.approx(plain,
                                                                  rel=1e-12)


def test_weighted_rmse_weight_scaling_identity():
    rng = np.random.default_rng(3)
    truth = rng.standard_normal((5, 7))
    rec = rng.standard_normal((5, 7))
    w = rng.random(5) + 0.1
    base = weighted_rmse(truth, rec, w)
    assert weighted_rmse(truth, rec, 4.0 * w) == pytest.approx(2.0 * base,
                                                               rel=1e-12)


def test_weighted_rmse_rejects_bad_inputs():
    with pytest.raises(ValueError):
        weighted_rmse(np.zeros((4, 8)), np.zeros((4, 7)))
    with pytest.raises(ValueError):
        weighted_rmse(np.zeros((4, 8)), np.zeros((4, 8)), np.ones(3))
    with pytest.raises(ValueError):
        weighted_rmse(np.zeros((4, 8)), np.zeros((4, 8)), -np.ones(4))


# ------------------------------------------------------------ masked_rmse


def test_masked_rmse_scores_missing_entries_only():
    truth = np.zeros((2, 4))
    rec = truth.copy()
    rec[0, 1] = 3.0  # missing entry, scored
    rec[1, 2] = 9.0  # observed entry, ignored
    mask = np.ones((2, 4))
    mask[0, 1] = 0.0
    assert masked_rmse(truth, rec, mask) == pytest.approx(3.0, abs=1e-15)


def test_masked_rmse_requires_missing_entries():
    with pytest.raises(ValueError):
        masked_rmse(np.zeros((2, 4)), np.zeros((2, 4)), np.ones((2, 4)))


# ------------------------------------------------------ detection_metrics


def test_detection_metrics_perfect():
    rng = np.random.default_rng(4)
    truth = (rng.random((6, 6)) < 0.3).astype(float)
    assert detection_metrics(truth.copy(), truth) == (1.0, 1.0)


def test_detection_metrics_no_flags_nonempty_truth():
    truth = np.zeros((3, 3))
    truth[0, 0] = 1.0
    p, r = detection_metrics(np.zeros((3, 3)), truth)
    assert p == 0.0 and r == 0.0


def test_detection_metrics_empty_conventions():
    z = np.zeros((3, 3))
    assert detection_metrics(z, z.copy()) == (1.0, 1.0)
    flagged = z.copy()
    flagged[1, 1] = 1.0
    p, r = detection_metrics(flagged, z)
    assert p == 0.0 and r == 1.0


def test_detection_metrics_matches_brute_force():
    rng = np.random.default_rng(5)
    flagged = (rng.random((10, 10)) < 0.4).astype(float)
    truth = (rng.random((10, 10)) < 0.3).astype(float)
    tp = fp = fn = 0
    for m in range(10):
        for t in range(10):
            if flagged[m, t] and truth[m, t]:
                tp += 1
            elif flagged[m, t]:
                fp += 1
            elif truth[m, t]:
                fn += 1
    p, r = detection_metrics(flagged, truth)
    assert p == pytest.approx(tp / (tp + fp), abs=1e-15)
    assert r == pytest.approx(tp / (tp + fn), abs=1e-15)


# --------------------------------------------------- baseline_interpolate


def test_baseline_no_missing_is_identity():
    x = np.random.default_rng(6).standard_normal((3, 10))
    out = baseline_interpolate(x, np.ones((3, 10)))
    assert np.array_equal(out, x)


def test_baseline_midpoint_gap():
    x = np.array([[1.0, 99.0, 3.0]])
    mask = np.array([[1.0, 0.0, 1.0]])
    out = baseline_interpolate(x, mask)
    assert out[0, 1] == pytest.approx(2.0, abs=1e-15)
    assert out[0, 0] == 1.0 and out[0, 2] == 3.0


def test_baseline_edge_hold():
    x = np.array([[99.0, 2.0, 5.0, 99.0, 99.0]])
    mask = np.array([[0.0, 1.0, 1.0, 0.0, 0.0]])
    out = baseline_interpolate(x, mask)
    assert out[0, 0] == 2.0  # held to first observed
    assert out[0, 3] == 5.0 and out[0, 4] == 5.0  # held to last observed


def test_baseline_fully_missing_channel_uses_mean_fill():
    x = np.array([[1.0, 2.0, 3.0], [99.0, 99.0, 99.0]])
    mask = np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
    out = baseline_interpolate(x, mask)
    assert np.array_equal(out[0], x[0])
    # fallback: mean over every observed entry in the window
    assert np.allclose(out[1], 2.0)


def test_baseline_fully_missing_channel_with_explicit_means():
    x = np.array([[1.0, 2.0, 3.0], [99.0, 99.0, 99.0]])
    mask = np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
    out = baseline_interpolate(x, mask, channel_means=np.array([0.0, 7.5]))
    assert np.allclose(out[1], 7.5)
