import numpy as np
import pytest

from tsdm.threatsim import (
    AttackSpec,
    MaskSpec,
    SynthSpec,
    inject_fdia,
    make_loss_mask,
    synth_dataset,
)
from tsdm.threatsim import _CHUNK


def _sine_matrix(m=4, t=64, period=16.0, amp=1.0):
    tt = np.arange(t)
    return np.vstack([amp * np.sin(2 * np.pi * tt / period + 0.3 * c) for c in range(m)])


# ------------------------------------------------------------- validation

def test_attack_spec_rejects_bad_windows_and_channels():
    with pytest.raises(ValueError):
        AttackSpec(kind="step", channels=(0,), t_start=5, t_end=5, magnitude=1.0)
    with pytest.raises(ValueError):
        AttackSpec(kind="step", channels=(0,), t_start=-1, t_end=5, magnitude=1.0)
    with pytest.raises(ValueError):
        AttackSpec(kind="step", channels=(), t_start=0, t_end=5, magnitude=1.0)
    with pytest.raises(ValueError):
        AttackSpec(kind="sneaky", channels=(0,), t_start=0, t_end=5, magnitude=1.0)


def test_attack_rejects_out_of_range_indices():
    x = _sine_matrix(m=2, t=32)
    spec = AttackSpec(kind="step", channels=(5,), t_start=0, t_end=8, magnitude=1.0)
    with pytest.raises(ValueError):
        inject_fdia(x, spec)
    spec = AttackSpec(kind="step", channels=(0,), t_start=0, t_end=40, magnitude=1.0)
    with pytest.raises(ValueError):
        inject_fdia(x, spec)


# ------------------------------------------------------------ attack kinds

def test_step_attack_offsets_by_channel_std():
    x = _sine_matrix()
    spec = AttackSpec(kind="step", channels=(1,), t_start=10, t_end=20, magnitude=2.0)
    y, mask = inject_fdia(x, spec)
    std1 = x[1].std()
    np.testing.assert_allclose(y[1, 10:20], x[1, 10:20] + 2.0 * std1, rtol=1e-12)
    want = np.zeros_like(x, dtype=bool)
    want[1, 10:20] = True
    np.testing.assert_array_equal(mask, want)
    assert np.array_equal(y[~want], x[~want])


def test_null_attacks_leave_input_untouched():
    x = _sine_matrix()
    for kind in ("step", "ramp", "amplitude_scale"):
        spec = AttackSpec(kind=kind, channels=(0, 2), t_start=5, t_end=30, magnitude=0.0)
        y, mask = inject_fdia(x, spec)
        assert np.array_equal(y, x)
        assert not mask.any()


def test_ramp_attack_is_linear_from_zero():
    x = np.zeros((2, 40))
    x[0] = np.sin(np.arange(40) / 3.0)
    spec = AttackSpec(kind="ramp", channels=(0,), t_start=10, t_end=30, magnitude=1.5)
    y, mask = inject_fdia(x, spec)
    delta = y[0, 10:30] - x[0, 10:30]
    assert delta[0] == 0.0
    assert delta[-1] == pytest.approx(1.5 * x[0].std(), rel=1e-12)
    np.testing.assert_allclose(np.diff(delta), np.diff(delta)[0], rtol=1e-9)
    assert not mask[0, 10]  # zero offset entry is unmodified


def test_random_attack_noise_scale():
    rng = np.random.default_rng(0)
    x = rng.normal(0, 2.0, (1, 20000))
    spec = AttackSpec(kind="random", channels=(0,), t_start=0, t_end=20000,
                      magnitude=0.5, seed=7)
    y, mask = inject_fdia(x, spec)
    added = y[0] - x[0]
    assert added.std() == pytest.approx(0.5 * x[0].std(), rel=0.05)
    assert mask.mean() > 0.99


def test_replay_copies_immediately_preceding_window():
    x = np.arange(40, dtype=float).reshape(1, 40)
    spec = AttackSpec(kind="replay", channels=(0,), t_start=20, t_end=30, magnitude=0.0)
    y, mask = inject_fdia(x, spec)
    np.testing.assert_array_equal(y[0, 20:30], x[0, 10:20])
    assert mask[0, 20:30].all()
    assert not mask[0, :20].any()


def test_replay_requires_history():
    x = _sine_matrix(m=1, t=32)
    spec = AttackSpec(kind="replay", channels=(0,), t_start=5, t_end=20, magnitude=0.0)
    with pytest.raises(ValueError):
        inject_fdia(x, spec)


def test_replay_on_full_period_sine_is_identity():
    # tile one period so repeats are bit-identical, not just close
    base = np.sin(2 * np.pi * np.arange(16) / 16)
    x = np.tile(base, 4).reshape(1, 64)
    spec = AttackSpec(kind="replay", channels=(0,), t_start=32, t_end=48, magnitude=0.0)
    y, mask = inject_fdia(x, spec)
    np.testing.assert_array_equal(y, x)
    assert not mask.any()


def test_phase_shift_half_period_negates_sine():
    x = _sine_matrix(m=1, t=64, period=16.0)
    spec = AttackSpec(kind="phase_shift", channels=(0,), t_start=16, t_end=48, magnitude=0.5)
    y, _ = inject_fdia(x, spec)
    np.testing.assert_allclose(y[0, 16:48], -x[0, 16:48], atol=1e-9)
    assert np.array_equal(y[0, :16], x[0, :16])


def test_phase_shift_without_periodicity_errors():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(1, 64))
    spec = AttackSpec(kind="phase_shift", channels=(0,), t_start=0, t_end=64, magnitude=0.5)
    with pytest.raises(ValueError):
        inject_fdia(x, spec)


@pytest.mark.parametrize("std_ref", [None, np.ones(2)], ids=["own", "ref"])
def test_phase_shift_names_a_channels_missing_entries(std_ref):
    # a NaN makes every autocorrelation NaN, so no period can be found:
    # the refusal names the missing entries, not a missing peak
    x = _sine_matrix(m=2, t=64, period=16.0)
    x[1, [5, 50]] = np.nan
    spec = AttackSpec(kind="phase_shift", channels=(0, 1), t_start=16,
                      t_end=48, magnitude=0.5)
    with pytest.raises(ValueError, match=r"^phase_shift: attack channel 1 "
                                         r"has missing entries at t 5, 50$"):
        inject_fdia(x, spec, std_ref=std_ref)


def test_amplitude_scale_multiplies_segment():
    x = _sine_matrix(m=2, t=32)
    spec = AttackSpec(kind="amplitude_scale", channels=(1,), t_start=4, t_end=12, magnitude=0.5)
    y, mask = inject_fdia(x, spec)
    np.testing.assert_allclose(y[1, 4:12], 1.5 * x[1, 4:12], rtol=1e-12)
    assert mask[1, 4:12].sum() == np.count_nonzero(x[1, 4:12])


def test_external_std_reference_controls_amplitude():
    x = _sine_matrix(m=2, t=32)
    ref = np.array([4.0, 10.0])
    spec = AttackSpec(kind="step", channels=(1,), t_start=0, t_end=8, magnitude=1.0)
    y, _ = inject_fdia(x, spec, std_ref=ref)
    np.testing.assert_allclose(y[1, :8] - x[1, :8], 10.0, rtol=1e-12)


def test_mask_is_exact_diff_for_every_kind():
    x = _sine_matrix(m=3, t=64, period=16.0)
    kinds = ("step", "ramp", "random", "replay", "phase_shift", "amplitude_scale")
    for kind in kinds:
        spec = AttackSpec(kind=kind, channels=(0, 2), t_start=32, t_end=48,
                          magnitude=0.8, seed=5)
        y, mask = inject_fdia(x, spec)
        np.testing.assert_array_equal(mask, y != x)


ALL_KINDS = ("step", "ramp", "random", "replay", "phase_shift",
             "amplitude_scale")


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_mask_skips_entries_missing_before_and_after(kind):
    """NaN != NaN, so a plain diff would flag every untouched missing
    entry; channel 1 is missing over the span and never attacked."""
    x = _sine_matrix(m=3, t=64, period=16.0)
    x[1, 20:40] = np.nan
    spec = AttackSpec(kind=kind, channels=(0, 2), t_start=32, t_end=48,
                      magnitude=0.8, seed=5)
    y, mask = inject_fdia(x, spec)
    assert np.array_equal(np.isnan(y), np.isnan(x))
    assert not mask[1].any()
    finite = np.isfinite(x)
    np.testing.assert_array_equal(mask[finite], (y != x)[finite])


@pytest.mark.parametrize("kind", ("step", "ramp", "random",
                                  "amplitude_scale"))
def test_attacked_channel_keeps_nan_only_where_it_had_nan(kind):
    x = _sine_matrix(m=3, t=64, period=16.0)
    x[0, [3, 35, 40]] = np.nan
    spec = AttackSpec(kind=kind, channels=(0, 2), t_start=32, t_end=48,
                      magnitude=0.8, seed=5)
    y, mask = inject_fdia(x, spec)
    assert np.array_equal(np.isnan(y), np.isnan(x))
    np.testing.assert_array_equal(mask, np.isfinite(x) & (y != x))
    assert mask[0, 33:48][np.isfinite(x[0, 33:48])].all()
    assert not mask[0, [35, 40]].any()


@pytest.mark.parametrize("kind", ("step", "ramp", "random"))
def test_amplitude_unit_is_std_of_observed_entries(kind):
    """A channel with missing entries scales by the std of its observed
    ones; a finite channel keeps the amplitude it had, bit for bit."""
    clean = _sine_matrix(m=3, t=64, period=16.0)
    x = clean.copy()
    x[0, [3, 35, 40]] = np.nan
    spec = AttackSpec(kind=kind, channels=(0, 2), t_start=32, t_end=48,
                      magnitude=0.8, seed=5)
    y, _ = inject_fdia(x, spec)
    observed = np.isfinite(x[0])
    ref = np.array([x[0, observed].std(), 1.0, clean[2].std()])
    y_ref, _ = inject_fdia(x, spec, std_ref=ref)
    np.testing.assert_array_equal(y, y_ref)
    assert np.array_equal(y[2], inject_fdia(clean, spec)[0][2])


def test_replay_carries_missing_history_into_the_span():
    x = np.arange(40, dtype=float).reshape(1, 40)
    x[0, [12, 15, 25]] = np.nan  # t 22 turns NaN, t 25 stays NaN
    spec = AttackSpec(kind="replay", channels=(0,), t_start=20, t_end=30,
                      magnitude=0.0)
    y, mask = inject_fdia(x, spec)
    np.testing.assert_array_equal(y[0, 20:30], x[0, 10:20])
    want = np.zeros_like(mask)
    want[0, 20:30] = True
    want[0, 25] = False
    np.testing.assert_array_equal(mask, want)


@pytest.mark.parametrize("kind", ("step", "ramp", "random", "replay",
                                  "amplitude_scale"))
def test_attacked_channel_with_no_observed_entry_is_refused(kind):
    x = _sine_matrix(m=3, t=64, period=16.0)
    x[2] = np.nan
    spec = AttackSpec(kind=kind, channels=(0, 2), t_start=32, t_end=48,
                      magnitude=0.8, seed=5)
    with pytest.raises(ValueError, match="attack channel 2 has no observed "
                                         "entry"):
        inject_fdia(x, spec)
    y, mask = inject_fdia(x, spec, std_ref=np.ones(3))
    assert np.isnan(y[2]).all() and not mask[2].any()


# -------------------------------------------------------------- loss masks

def test_nm_mask_exact_fraction_full_span():
    spec = MaskSpec(kind="nonrandom_missing", target_ratio=0.3, channels=(1, 4, 7), seed=0)
    mask = make_loss_mask(10, 50, spec)
    assert mask.shape == (10, 50)
    assert set(np.unique(mask)) <= {0.0, 1.0}
    assert (1 - mask).mean() == pytest.approx(0.3, abs=0)
    assert not mask[1].any() and not mask[4].any()
    assert mask[0].all()


def test_nm_mask_partial_span_and_auto_channels():
    spec = MaskSpec(kind="nonrandom_missing", target_ratio=0.3, t_start=10, t_end=20, seed=1)
    mask = make_loss_mask(10, 40, spec)
    missing_rows = np.where((mask == 0).any(axis=1))[0]
    assert len(missing_rows) == 3  # round(0.3 * 10)
    for r in missing_rows:
        assert not mask[r, 10:20].any()
        assert mask[r, :10].all() and mask[r, 20:].all()


def test_rm_mask_mean_ratio():
    spec = MaskSpec(kind="random_missing", target_ratio=0.2, gamma_shape=2.0, seed=2)
    mask = make_loss_mask(50, 10_000, spec)
    assert (1 - mask).mean() == pytest.approx(0.2, abs=0.01)


def test_rm_mask_column_ratios_are_gamma_like():
    spec = MaskSpec(kind="random_missing", target_ratio=0.2, gamma_shape=2.0, seed=3)
    mask = make_loss_mask(200, 5000, spec)
    frac = (1 - mask).mean(axis=0)
    mom_shape = frac.mean() ** 2 / frac.var()
    assert 1.4 <= mom_shape <= 2.6


def test_mask_reproducible_and_validated():
    spec = MaskSpec(kind="random_missing", target_ratio=0.2, seed=9)
    a = make_loss_mask(8, 64, spec)
    b = make_loss_mask(8, 64, spec)
    np.testing.assert_array_equal(a, b)
    with pytest.raises(ValueError):
        MaskSpec(kind="random_missing", target_ratio=0.0)
    with pytest.raises(ValueError):
        MaskSpec(kind="random_missing", target_ratio=1.0)
    with pytest.raises(ValueError):
        MaskSpec(kind="patchy", target_ratio=0.5)



@pytest.mark.parametrize("channels, message", [
    ((1, 9), r"^NM channels \[1, 9\] outside 0..3$"),
    ((-1,), r"^NM channels \[-1\] outside 0..3$"),
    ((), "^NM channel set is empty$"),
])
def test_nm_mask_names_a_bad_channel_set(channels, message):
    spec = MaskSpec(kind="nonrandom_missing", target_ratio=0.3,
                    channels=channels)
    with pytest.raises(ValueError, match=message):
        make_loss_mask(4, 16, spec)


# ----------------------------------------------------------------- synthesis

def test_steady_windows_shape_and_determinism():
    spec = SynthSpec(mode="steady", M=8, T=64, seed=11)
    ws = synth_dataset(spec, 5)
    assert len(ws) == 5
    assert all(w.shape == (8, 64) for w in ws)
    assert all(np.isfinite(w).all() for w in ws)
    ws2 = synth_dataset(spec, 5)
    for a, b in zip(ws, ws2):
        np.testing.assert_array_equal(a, b)
    assert not np.array_equal(ws[0], ws[1])


def test_steady_day_lag_autocorrelation():
    spec = SynthSpec(mode="steady", M=6, T=256, day_period=32.0, noise_amp=0.05, seed=12)
    w = synth_dataset(spec, 1)[0]
    lag = 32
    acs = []
    for ch in w:
        z = ch - ch.mean()
        acs.append(np.dot(z[:-lag], z[lag:]) / np.dot(z, z))
    assert np.mean(acs) > 0.8


def test_transient_critical_damping_settles_monotonically():
    spec = SynthSpec(mode="transient", M=4, T=128, event_time=16, damping=1.0,
                     noise_amp=0.0, seed=13)
    w = synth_dataset(spec, 1)[0]
    post = w[:, 20:]
    for ch in post:
        d = np.diff(ch)
        assert np.all(d <= 1e-12) or np.all(d >= -1e-12)


def test_transient_underdamped_oscillates():
    spec = SynthSpec(mode="transient", M=4, T=128, event_time=16, damping=0.1,
                     noise_amp=0.0, seed=14)
    w = synth_dataset(spec, 1)[0]
    d = np.diff(w[0, 16:])
    assert np.sum(np.sign(d[:-1]) != np.sign(d[1:])) >= 3


def test_synth_spec_validation():
    with pytest.raises(ValueError):
        SynthSpec(mode="chaotic", M=4, T=64)
    with pytest.raises(ValueError):
        SynthSpec(mode="steady", M=0, T=64)


@pytest.mark.parametrize("count", [0, -5])
def test_synth_count_below_one_is_rejected(count):
    with pytest.raises(ValueError, match=f"got {count}"):
        synth_dataset(SynthSpec(mode="steady", M=4, T=16), count)


def _prior_steady_windows(spec, count, rng):
    """The one-window-at-a-time steady loop, kept as the bit reference."""
    M, T = spec.M, spec.T
    k = max(2, M // 2)
    mixing = rng.normal(0.0, 1.0, (M, k)) / np.sqrt(k)
    base = rng.uniform(-0.5, 0.5, M)
    chan_scale = rng.uniform(0.7, 1.3, M)
    t = np.arange(T)
    day = 2 * np.pi * t / spec.day_period
    week = day / 7.0
    windows = []
    for _ in range(count):
        phase = rng.uniform(0, 2 * np.pi, k)
        wphase = rng.uniform(0, 2 * np.pi, k)
        slope = rng.uniform(-spec.ramp_rate, spec.ramp_rate, k)
        level = rng.normal(0.0, 1.0, k)
        z = np.sin(day[None, :] + phase[:, None])
        z *= 1.0 + spec.week_modulation * np.sin(week[None, :] + wphase[:, None])
        z += slope[:, None] * (t[None, :] / T - 0.5)
        x = mixing @ z + spec.offset_scale * (mixing @ level)[:, None]
        x = base[:, None] + chan_scale[:, None] * x
        x += spec.noise_amp * rng.normal(0.0, 1.0, (M, T))
        windows.append(x)
    return windows


def _prior_transient_windows(spec, count, rng):
    """The one-window, one-channel-at-a-time transient loop, kept as the
    bit reference."""
    M, T = spec.M, spec.T
    level = rng.uniform(-0.5, 0.5, M)
    omega = 2 * np.pi * spec.frequency
    zeta = spec.damping
    omega_d = omega * np.sqrt(max(1.0 - zeta**2, 0.0))
    dt = np.arange(T) - spec.event_time
    after = dt >= 0
    windows = []
    for _ in range(count):
        amp = rng.uniform(0.5, 1.5, M) * rng.choice([-1.0, 1.0], M)
        phase = rng.uniform(0.2, np.pi - 0.2, M)
        x = np.broadcast_to(level[:, None], (M, T)).copy()
        envelope = np.exp(-zeta * omega * dt[after])
        for m in range(M):
            x[m, after] += amp[m] * envelope * np.sin(omega_d * dt[after] + phase[m])
        x += spec.noise_amp * rng.normal(0.0, 1.0, (M, T))
        windows.append(x)
    return windows


_PRIOR = {"steady": _prior_steady_windows, "transient": _prior_transient_windows}
_ODD_PARAMS = dict(day_period=5.0, week_modulation=0.7, ramp_rate=1.3,
                   offset_scale=0.2, noise_amp=0.4, damping=0.5,
                   frequency=0.3, event_time=3)


@pytest.mark.parametrize("mode", ["steady", "transient"])
@pytest.mark.parametrize("M,T,event_time", [(8, 64, 16), (1, 2, 1), (3, 5, 4)])
@pytest.mark.parametrize("count", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 301])
def test_chunked_synthesis_matches_per_window_loop_bit_for_bit(
        mode, M, T, event_time, count):
    spec = SynthSpec(mode=mode, M=M, T=T, event_time=event_time, seed=count)
    got = synth_dataset(spec, count)
    want = _PRIOR[mode](spec, count, np.random.default_rng(spec.seed))
    assert len(got) == count
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("mode", ["steady", "transient"])
def test_chunked_synthesis_matches_with_non_default_parameters(mode):
    spec = SynthSpec(mode=mode, M=5, T=17, seed=9, **_ODD_PARAMS)
    got = synth_dataset(spec, 2 * _CHUNK + 3)
    want = _PRIOR[mode](spec, 2 * _CHUNK + 3, np.random.default_rng(9))
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


@pytest.mark.parametrize("mode", ["steady", "transient"])
def test_each_window_owns_its_memory(mode):
    ws = synth_dataset(SynthSpec(mode=mode, M=3, T=5, event_time=2),
                       2 * _CHUNK + 1)
    assert all(w.flags.c_contiguous and w.flags.owndata for w in ws)
    for i, a in enumerate(ws):
        for b in ws[i + 1:]:
            assert not np.shares_memory(a, b)
