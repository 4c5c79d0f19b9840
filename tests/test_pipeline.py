"""Two-stage orchestration: branching, masks, batching, failure isolation.

Quality-threshold tests for the trained fixture live in
test_acceptance.py; these tests pin the structural contracts with the
small toy net, so they stay fast and fixture-independent.
"""

import numpy as np
import pytest

from tsdm.pipeline import (STAGE1_ONLY, STAGE1_PLUS_STAGE2, RecoveryResult,
                           TsdmConfig, WindowFailure, recover, recover_batch)
from tsdm.schedule import make_subsequence
from tsdm.stage1 import GuidanceConfig
from tsdm.stage2 import ImputeConfig

TAU = make_subsequence(100, 10)


def make_cfg(threshold=0.1, omega=1.0, R=2, seed=0):
    return TsdmConfig(
        guidance=GuidanceConfig(tau=TAU, omega=omega, seed=seed),
        impute=ImputeConfig(tau=TAU, R=R, seed=seed),
        outlier_branch_threshold=threshold,
    )


def toy_window(seed=0):
    return np.random.default_rng(seed).standard_normal((4, 16))


# ------------------------------------------------------------- TsdmConfig


def test_config_rejects_threshold_outside_unit_interval():
    with pytest.raises(ValueError):
        make_cfg(threshold=0.0)
    with pytest.raises(ValueError):
        make_cfg(threshold=1.5)
    assert make_cfg(threshold=1.0).outlier_branch_threshold == 1.0


def test_config_rejects_mismatched_step_counts():
    with pytest.raises(ValueError):
        TsdmConfig(guidance=GuidanceConfig(tau=TAU),
                   impute=ImputeConfig(tau=make_subsequence(50, 5)))


# ------------------------------------------------------------- recover


def test_recover_result_fields_and_shapes(toy_model):
    y0 = toy_window(1)
    res = recover(toy_model, y0, None, make_cfg())
    assert isinstance(res, RecoveryResult)
    assert res.x_tilde.shape == y0.shape
    assert res.outlier_mask.shape == y0.shape
    assert res.stage_taken in (STAGE1_ONLY, STAGE1_PLUS_STAGE2)
    assert 0.0 <= res.outlier_fraction <= 1.0
    assert "stage1" in res.traces


def test_branch_follows_fraction_vs_threshold(toy_model):
    y0 = toy_window(2)
    # threshold 1.0: fraction < 1 unless every single entry is flagged
    res_hi = recover(toy_model, y0, None, make_cfg(threshold=1.0))
    # 30% forced-missing mask guarantees fraction >= 0.3 >= 0.05
    mask = np.ones_like(y0)
    mask[1:3, 2:14] = 0.0
    res_lo = recover(toy_model, y0, mask, make_cfg(threshold=0.05))
    for res, threshold in ((res_hi, 1.0), (res_lo, 0.05)):
        took_stage1_only = res.stage_taken == STAGE1_ONLY
        assert took_stage1_only == (res.outlier_fraction < threshold)
    assert res_hi.stage_taken == STAGE1_ONLY
    assert res_lo.stage_taken == STAGE1_PLUS_STAGE2
    assert res_lo.outlier_fraction >= 0.3


def test_external_mask_entries_are_force_flagged(toy_model):
    y0 = toy_window(3)
    mask = np.ones_like(y0)
    mask[0, :8] = 0.0
    res = recover(toy_model, y0, mask, make_cfg())
    assert np.all(res.outlier_mask[0, :8] == 0.0)
    assert res.outlier_fraction >= 8 / y0.size


def test_nan_entries_count_as_missing(toy_model):
    y0 = toy_window(4)
    y0[2, 5:13] = np.nan
    res = recover(toy_model, y0, None, make_cfg())
    assert np.all(np.isfinite(res.x_tilde))
    assert np.all(res.outlier_mask[2, 5:13] == 0.0)
    assert res.outlier_fraction >= 8 / y0.size


def test_missing_entry_values_never_read(toy_model):
    # Same mask, same observed values: NaN sentinels vs absurd finite
    # payloads at the missing positions must give bitwise-equal output.
    mask = np.ones((4, 16))
    mask[1, 3:12] = 0.0
    mask[3, 0:6] = 0.0
    base = toy_window(5)
    y_nan = base.copy()
    y_nan[mask == 0.0] = np.nan
    y_huge = base.copy()
    y_huge[mask == 0.0] = 1e9
    res_nan = recover(toy_model, y_nan, mask, make_cfg())
    res_huge = recover(toy_model, y_huge, mask, make_cfg())
    assert np.array_equal(res_nan.x_tilde, res_huge.x_tilde)
    assert res_nan.stage_taken == res_huge.stage_taken


def test_observed_entries_scaled_passthrough_after_stage2(toy_model, sched100):
    y0 = toy_window(6)
    mask = np.ones_like(y0)
    mask[1:3, 4:12] = 0.0
    res = recover(toy_model, y0, mask, make_cfg(threshold=0.05))
    assert res.stage_taken == STAGE1_PLUS_STAGE2
    a1 = sched100.alpha_bar_at(int(TAU.tau[0]))
    obs = res.outlier_mask == 1.0
    np.testing.assert_allclose(res.x_tilde[obs], np.sqrt(a1) * y0[obs],
                               rtol=0, atol=1e-12)


def test_known_missing_entry_routes_to_stage2(toy_model):
    # One NaN is far below the branch threshold, but only stage 2
    # imputes a known-missing entry.
    y0 = toy_window(9)
    y0[2, 7] = np.nan
    res = recover(toy_model, y0, None, make_cfg(threshold=1.0))
    assert res.outlier_fraction < 1.0
    assert res.stage_taken == STAGE1_PLUS_STAGE2
    assert np.all(np.isfinite(res.x_tilde))


def test_recover_is_deterministic(toy_model):
    y0 = toy_window(7)
    r1 = recover(toy_model, y0, None, make_cfg(seed=9))
    r2 = recover(toy_model, y0, None, make_cfg(seed=9))
    assert np.array_equal(r1.x_tilde, r2.x_tilde)
    assert r1.stage_taken == r2.stage_taken
    assert r1.outlier_fraction == r2.outlier_fraction


def test_recover_validates_inputs(toy_model):
    with pytest.raises(ValueError):
        recover(toy_model, np.zeros(16), None, make_cfg())
    y0 = toy_window(8)
    with pytest.raises(ValueError):
        recover(toy_model, y0, np.ones((4, 8)), make_cfg())
    with pytest.raises(ValueError):
        recover(toy_model, y0, np.full((4, 16), 0.5), make_cfg())
    with pytest.raises(ValueError):
        recover(toy_model, y0, None, make_cfg(), norm_mean=np.zeros(4),
                norm_std=np.zeros(4))


def test_stage_errors_carry_stage_tag(toy_model):
    y0 = np.full((4, 16), 1e308)
    with pytest.raises(RuntimeError, match="stage1"):
        recover(toy_model, y0, None, make_cfg())


# ------------------------------------------------------------- recover_batch


def test_batch_of_one_matches_single_call(toy_model):
    y0 = toy_window(10)
    single = recover(toy_model, y0, None, make_cfg(seed=5))
    batch = recover_batch(toy_model, [y0], make_cfg(seed=5))
    assert np.array_equal(batch[0].x_tilde, single.x_tilde)
    assert batch[0].stage_taken == single.stage_taken


def test_batch_isolates_per_window_failures(toy_model):
    windows = [toy_window(30), toy_window(31), np.full((4, 16), 1e308),
               toy_window(32)]
    results = recover_batch(toy_model, windows, make_cfg())
    assert isinstance(results[2], WindowFailure)
    assert results[2].index == 2
    assert "stage1" in results[2].error
    for k in (0, 1, 3):
        assert isinstance(results[k], RecoveryResult)


def test_batch_failure_index_follows_input_position(toy_model):
    bad = np.full((4, 16), 1e308)
    first = recover_batch(toy_model, [bad, toy_window(33)], make_cfg())
    second = recover_batch(toy_model, [toy_window(33), bad], make_cfg())
    assert isinstance(first[0], WindowFailure) and first[0].index == 0
    assert isinstance(second[1], WindowFailure) and second[1].index == 1
    assert isinstance(first[1], RecoveryResult)
    assert isinstance(second[0], RecoveryResult)


def test_batch_validates_inputs(toy_model):
    with pytest.raises(ValueError):
        recover_batch(toy_model, [toy_window(1), np.zeros((4, 8))],
                      make_cfg())
    assert recover_batch(toy_model, [], make_cfg()) == []


def _mixed_windows():
    """Six toy windows; every other one carries a NaN block, so the batch
    splits between the two branches."""
    windows = [toy_window(40 + k) for k in range(6)]
    for w in windows[::2]:
        w[1, 3:11] = np.nan
    return windows


def test_batch_is_bitwise_one_window_recovery(toy_model):
    windows = _mixed_windows()
    batch = recover_batch(toy_model, windows, make_cfg(seed=12))
    for k, (window, res) in enumerate(zip(windows, batch)):
        alone = recover(toy_model, window, None, make_cfg(seed=12 ^ k))
        assert np.array_equal(res.x_tilde, alone.x_tilde)
        assert np.array_equal(res.outlier_mask, alone.outlier_mask)
        assert res.stage_taken == alone.stage_taken
        assert res.outlier_fraction == alone.outlier_fraction
    assert {r.stage_taken for r in batch} == {STAGE1_ONLY, STAGE1_PLUS_STAGE2}


def test_bad_window_leaves_batch_bitwise(toy_model):
    windows = _mixed_windows()
    ref = recover_batch(toy_model, windows, make_cfg(seed=12))
    windows[3] = np.full((4, 16), 1e308)
    hit = recover_batch(toy_model, windows, make_cfg(seed=12))
    assert isinstance(hit[3], WindowFailure) and hit[3].index == 3
    assert "stage1" in hit[3].error
    for k in (0, 1, 2, 4, 5):
        assert np.array_equal(hit[k].x_tilde, ref[k].x_tilde)
        assert hit[k].stage_taken == ref[k].stage_taken


# ------------------------------------------------------------- bad windows


def test_channel_count_mismatch_names_both_counts(toy_model):
    y0 = np.random.default_rng(50).standard_normal((3, 16))
    with pytest.raises(ValueError, match="3 channels but the model takes 4"):
        recover(toy_model, y0, None, make_cfg())
    # checked before the normalization stats, which are the model's size
    with pytest.raises(ValueError, match="3 channels but the model takes 4"):
        recover(toy_model, y0, None, make_cfg(), norm_mean=np.zeros(4),
                norm_std=np.ones(4))


def test_all_missing_window_is_an_error(toy_model):
    with pytest.raises(ValueError, match="no observed entries") as info:
        recover(toy_model, np.full((4, 16), np.nan), None, make_cfg())
    assert "\n" not in str(info.value)
    with pytest.raises(ValueError, match="no observed entries"):
        recover(toy_model, toy_window(51), np.zeros((4, 16)), make_cfg())


def test_all_missing_window_fails_alone_in_a_batch(toy_model):
    windows = _mixed_windows()
    windows[2] = np.full((4, 16), np.nan)
    batch = recover_batch(toy_model, windows, make_cfg(seed=12))
    assert isinstance(batch[2], WindowFailure) and batch[2].index == 2
    assert "no observed entries" in batch[2].error
    for k in (0, 1, 3, 4, 5):
        alone = recover(toy_model, windows[k], None, make_cfg(seed=12 ^ k))
        assert np.array_equal(batch[k].x_tilde, alone.x_tilde)
        assert np.array_equal(batch[k].outlier_mask, alone.outlier_mask)
        assert batch[k].stage_taken == alone.stage_taken
