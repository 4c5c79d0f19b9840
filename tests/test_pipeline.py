"""Two-stage orchestration: branching, masks, batching, failure isolation.

Quality-threshold tests for the trained fixture live in
test_acceptance.py; these tests pin the structural contracts with the
small toy net, so they stay fast and fixture-independent.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsdm import denoiser as dn
from tsdm import pipeline, sampler
from tsdm.denoiser import predict_noise
from tsdm.pipeline import (STAGE1_ONLY, STAGE1_PLUS_STAGE2, RecoveryResult,
                           TsdmConfig, WindowFailure, recover, recover_batch)
from tsdm.sampler import MAX_OBSERVED
from tsdm.schedule import make_subsequence
from tsdm.stage1 import GuidanceConfig
from tsdm.stage2 import ImputeConfig
from tsdm.threatsim import synth_dataset

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


def test_recover_refuses_a_nonbinary_mask_before_the_denoiser(
        toy_model, monkeypatch):
    calls = []
    monkeypatch.setattr(sampler, "predict_noise",
                        lambda *args: calls.append(args))
    mask = np.ones((4, 16))
    mask[2, 9] = 0.5
    with pytest.raises(ValueError, match=r"^mask must be binary \(0/1\)$"):
        recover(toy_model, toy_window(8), mask, make_cfg())
    assert calls == []


@pytest.mark.parametrize("stat, value", [
    ("norm_mean", np.nan), ("norm_mean", np.inf), ("norm_mean", -np.inf),
    ("norm_std", np.nan), ("norm_std", np.inf),
])
def test_non_finite_normalization_stats_fail_before_the_denoiser(
        toy_model, monkeypatch, stat, value):
    calls = []
    monkeypatch.setattr(sampler, "predict_noise",
                        lambda *args: calls.append(args))
    stats = {"norm_mean": np.zeros(4), "norm_std": np.ones(4)}
    stats[stat][1] = value
    message = "normalization stats must be finite per-channel, std positive"
    with pytest.raises(ValueError, match=f"^{message}$"):
        recover(toy_model, toy_window(8), None, make_cfg(), **stats)
    batch = recover_batch(toy_model, [toy_window(8), toy_window(9)],
                          make_cfg(), **stats)
    assert batch == [WindowFailure(index=0, error=message),
                     WindowFailure(index=1, error=message)]
    assert calls == []


def _model_fault(model):
    """A copy of model whose output head overflows float32 at every step."""
    bad = copy.deepcopy(model)
    bad["head.conv.b"].data += 1e200
    return bad


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_stage_errors_carry_stage_tag(toy_model, monkeypatch):
    # a model fault fails stage 1's stack, and so every window of it
    text = "stage1: denoiser: non-finite output at step 100"
    with pytest.raises(RuntimeError, match=f"^{text}$"):
        recover(_model_fault(toy_model), toy_window(1), None, make_cfg())
    windows = _mixed_windows()
    assert recover_batch(_model_fault(toy_model), windows, make_cfg()) == [
        WindowFailure(index=k, error=text) for k in range(6)]
    # a stage-2 stack that raises fails each window that branched to it;
    # the windows of stage 1 alone keep their results
    ref = recover_batch(toy_model, windows, make_cfg())

    def raising(*args, **kwargs):
        raise FloatingPointError("overflow encountered in multiply")

    monkeypatch.setattr(pipeline, "stage2_impute", raising)
    hit = recover_batch(toy_model, windows, make_cfg())
    for k, (got, want) in enumerate(zip(hit, ref)):
        if want.stage_taken == STAGE1_PLUS_STAGE2:
            assert got == WindowFailure(
                index=k, error="stage2: overflow encountered in multiply")
        else:
            assert got.x_tilde.tobytes() == want.x_tilde.tobytes()


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_a_failing_one_window_pass_runs_once(steady_fixture, monkeypatch):
    # A model fault fails the first pass, at tau = 100, so the denoiser
    # runs once; a 1e308 entry is refused before it runs at all.
    params, mean, std, spec = steady_fixture
    calls = []

    def predict(params, x, n):
        calls.append(n)
        return predict_noise(params, x, n)

    monkeypatch.setattr(sampler, "predict_noise", predict)
    y0 = np.asarray(synth_dataset(spec, 1)[0])
    with pytest.raises(RuntimeError) as failed:
        recover(_model_fault(params), y0, None, make_cfg(), mean, std)
    assert str(failed.value) == ("stage1: denoiser: non-finite output at "
                                 "step 100")
    assert calls == [100]
    calls.clear()
    y0[3, 10] = 1e308
    with pytest.raises(ValueError, match="^observed entry at channel 3, "
                       "step 10 is "):
        recover(params, y0, None, make_cfg(), mean, std)
    assert calls == []


def test_an_edit_between_two_recovers_is_seen_by_the_second(toy_model):
    # each reverse loop binds the model anew, so an in-place edit of a
    # layer weight and of a time projection weight reaches the next call
    model = copy.deepcopy(toy_model)
    y0 = toy_window(40)
    mask = np.ones((4, 16))
    mask[1, 3:9] = 0.0
    first = recover(model, y0, mask, make_cfg())
    assert first.stage_taken == STAGE1_PLUS_STAGE2
    model["mid.rb0.conv1.w"].data[0, 0, 0] += 0.5
    model["dec0.rb1.temb.b"].data[0] += 0.5
    second = recover(model, y0, mask, make_cfg())
    want = recover(copy.deepcopy(model), y0, mask, make_cfg())
    assert second.x_tilde.tobytes() == want.x_tilde.tobytes()
    assert second.x_tilde.tobytes() != first.x_tilde.tobytes()


# ------------------------------------------------------------- recover_batch


def test_batch_of_one_matches_single_call(toy_model):
    y0 = toy_window(10)
    single = recover(toy_model, y0, None, make_cfg(seed=5))
    batch = recover_batch(toy_model, [y0], make_cfg(seed=5))
    assert np.array_equal(batch[0].x_tilde, single.x_tilde)
    assert batch[0].stage_taken == single.stage_taken


def test_a_misshapen_tensor_fails_each_window_of_a_batch(toy_model,
                                                        monkeypatch):
    # the loop binds inside its first denoiser call; the bind fails, and
    # with it the stack, so each window gets its error and none escapes
    model = copy.deepcopy(toy_model)
    w = model["stem.w"].data
    model["stem.w"].data = w.reshape(w.shape[0], 1, -1)
    casts = []
    bound = dn._bound
    monkeypatch.setattr(dn, "_bound", lambda p: casts.append(p) or bound(p))
    batch = recover_batch(model, [toy_window(k) for k in range(3)],
                          make_cfg())
    message = ("parameter stem.w has shape (16, 1, 12), "
               "the config's layout has (16, 4, 3)")
    assert batch == [WindowFailure(index=k, error=message) for k in range(3)]
    assert len(casts) == 1


def _refusal(m, t, value):
    return (f"observed entry at channel {m}, step {t} is {float(value)} in "
            "normalized units, not a finite value within 1e+06")


def _recover_with_entry(model, monkeypatch, value, m=1, t=9):
    """Window 2 of a batch with its observed entry (m, t) set to value:
    within the bound it recovers; beyond it or infinite, it is refused
    before any denoiser call, alone or in the batch, whose other windows
    keep their bits."""
    windows = [toy_window(30), toy_window(31), toy_window(2), toy_window(32)]
    ref = recover_batch(model, windows, make_cfg())
    windows[2][m, t] = value
    results = recover_batch(model, windows, make_cfg())
    for k in (0, 1, 3):
        assert results[k].x_tilde.tobytes() == ref[k].x_tilde.tobytes()
    calls = []
    monkeypatch.setattr(sampler, "predict_noise",
                        lambda *args: calls.append(args) or predict_noise(
                            *args))
    if abs(value) <= MAX_OBSERVED:
        assert isinstance(results[2], RecoveryResult)
        assert np.isfinite(recover(model, windows[2], None,
                                   make_cfg(seed=2)).x_tilde).all()
        assert calls
        return
    assert results[2] == WindowFailure(index=2, error=_refusal(m, t, value))
    with pytest.raises(ValueError) as refused:
        recover(model, windows[2], None, make_cfg(seed=2))
    assert str(refused.value) == _refusal(m, t, value)
    assert calls == []


def test_batch_isolates_per_window_failures(toy_model, monkeypatch):
    _recover_with_entry(toy_model, monkeypatch, 1e308)


@pytest.mark.parametrize("value", [
    MAX_OBSERVED, -MAX_OBSERVED, np.nextafter(MAX_OBSERVED, np.inf),
    np.nextafter(-MAX_OBSERVED, -np.inf)])
def test_an_observed_entry_at_the_bound(toy_model, monkeypatch, value):
    _recover_with_entry(toy_model, monkeypatch, value)


@pytest.mark.parametrize("value", [np.inf, -np.inf])
def test_an_infinite_observed_entry_is_refused_not_imputed(
        toy_model, monkeypatch, value):
    _recover_with_entry(toy_model, monkeypatch, value, m=2, t=5)


def test_observed_mask_marks_nan_and_masked_entries_missing():
    y0 = toy_window(34)
    y0[0, 1], y0[1, 2], y0[2, 3] = np.nan, np.inf, -np.inf
    observed = np.ones((4, 16))
    observed[0, 1] = 0.0  # only the NaN: an infinity counts as observed
    assert np.array_equal(pipeline.observed_mask(y0), observed)
    known = np.ones((4, 16))
    known[3, 4] = 0.0
    observed[3, 4] = 0.0
    assert np.array_equal(pipeline.observed_mask(y0, known), observed)


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
    assert hit[3] == WindowFailure(index=3, error=_refusal(0, 0, 1e308))
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


def test_length_zero_window_names_its_length(toy_model):
    message = "T=0: a window needs at least one time step"
    with pytest.raises(ValueError) as info:
        recover(toy_model, np.zeros((4, 0)), None, make_cfg())
    assert str(info.value) == message
    batch = recover_batch(toy_model, [np.zeros((4, 0))] * 2, make_cfg())
    assert batch == [WindowFailure(index=0, error=message),
                     WindowFailure(index=1, error=message)]


# Under a norm_std of 0.5 a raw entry beyond 5e5 is beyond the bound once
# normalized, and one beyond 8.99e307 normalizes to an infinity.
_STATS = {"norm_mean": np.zeros(4), "norm_std": np.full(4, 0.5)}


@pytest.fixture(scope="module")
def clean_batch(toy_model):
    return recover_batch(toy_model, _mixed_windows(), make_cfg(seed=3),
                         **_STATS)


@settings(max_examples=12, deadline=None)
@given(st.dictionaries(st.integers(0, 5), st.tuples(
    st.sampled_from([0, 2, 3]), st.integers(0, 15),  # channel 1 has NaNs
    st.floats(min_value=5e5, max_value=1.7e308, exclude_min=True),
    st.sampled_from([1.0, -1.0]))))
def test_out_of_range_windows_fail_alone(toy_model, clean_batch, bad):
    windows = _mixed_windows()
    for k, (m, t, value, sign) in bad.items():
        windows[k][m, t] = sign * value
    results = recover_batch(toy_model, windows, make_cfg(seed=3), **_STATS)
    for k, (got, want) in enumerate(zip(results, clean_batch)):
        if k in bad:
            m, t, value, sign = bad[k]
            assert got == WindowFailure(
                index=k, error=_refusal(m, t, sign * value / 0.5))
        else:
            assert got.x_tilde.tobytes() == want.x_tilde.tobytes()
            assert got.outlier_mask.tobytes() == want.outlier_mask.tobytes()
            assert got.stage_taken == want.stage_taken
