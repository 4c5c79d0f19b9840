"""Oracle tests for guided conditional recovery and 3-sigma outlier detection.

The guidance correction and noisy-conditioning formulas are pinned by hand
evaluations and substitution identities; the recovery loop is pinned by its
unconditional limit (omega=0 must reproduce unconditional sampling bitwise)
and by saturation/monotonicity behavior on fixed seeds.
"""

import numpy as np
import pytest

from tsdm.sampler import forward_diffuse, unconditional_sample
from tsdm.schedule import (Subsequence, VarianceSchedule, linear_schedule,
                           make_subsequence)
from tsdm.stage1 import (GuidanceConfig, OutlierReport, condition_noisy,
                         corrected_noise, detect_outliers, stage1_recover)

SCHED = linear_schedule(100)
TAU = make_subsequence(100, 10)


def _toy_sched():
    # alpha_bar = [0.9, 0.5]
    return VarianceSchedule.from_betas(np.array([0.1, 1.0 - 0.5 / 0.9]))


# ---------------------------------------------------------------- config


def test_guidance_config_defaults():
    cfg = GuidanceConfig(tau=TAU)
    assert cfg.omega == 1.0
    assert cfg.seed == 0


def test_guidance_config_rejects_negative_omega():
    with pytest.raises(ValueError):
        GuidanceConfig(tau=TAU, omega=-0.5)


# ------------------------------------------------------- condition_noisy


def test_condition_noisy_zero_prediction_scales_y0():
    rng = np.random.default_rng(0)
    y0 = rng.standard_normal((4, 16))
    i = 5
    a = SCHED.alpha_bar_at(int(TAU.tau[i - 1]))
    out = condition_noisy(y0, np.zeros_like(y0), i, SCHED, TAU)
    assert np.array_equal(out, np.sqrt(a) * y0)


def test_condition_noisy_substitution_matches_forward_diffusion():
    # If x was produced by forward-diffusing y0 with noise eps, then
    # conditioning y0 with eps_pred = eps reproduces x exactly.
    rng = np.random.default_rng(1)
    y0 = rng.standard_normal((4, 16))
    for i in (2, 6, 10):
        eps = rng.standard_normal((4, 16))
        n = int(TAU.tau[i - 1])
        x = forward_diffuse(y0, n, eps, SCHED)
        y_noisy = condition_noisy(y0, eps, i, SCHED, TAU)
        np.testing.assert_allclose(y_noisy, x, atol=1e-12)
        # ... and the guidance correction then vanishes at any omega.
        eps_pred = rng.standard_normal((4, 16))
        out = corrected_noise(eps_pred, y_noisy, x, i, 3.0, SCHED, TAU)
        np.testing.assert_allclose(out, eps_pred, atol=1e-12)


def test_condition_noisy_shape_mismatch_raises():
    with pytest.raises(ValueError):
        condition_noisy(np.zeros((4, 16)), np.zeros((4, 8)), 2, SCHED, TAU)


# ------------------------------------------------------- corrected_noise


def test_corrected_noise_omega_zero_is_identity():
    rng = np.random.default_rng(2)
    eps_pred = rng.standard_normal((4, 16))
    y = rng.standard_normal((4, 16))
    x = rng.standard_normal((4, 16))
    out = corrected_noise(eps_pred, y, x, 4, 0.0, SCHED, TAU)
    assert np.array_equal(out, eps_pred)


def test_corrected_noise_on_trajectory_is_identity():
    rng = np.random.default_rng(3)
    eps_pred = rng.standard_normal((4, 16))
    x = rng.standard_normal((4, 16))
    for omega in (0.5, 3.7):
        out = corrected_noise(eps_pred, x.copy(), x, 7, omega, SCHED, TAU)
        np.testing.assert_allclose(out, eps_pred, atol=1e-15)


def test_corrected_noise_hand_value():
    # omega=1, alpha_bar=0.5, y-x = 0.4 everywhere:
    # correction = sqrt(0.5)*0.4 = 0.2828427...
    sched = _toy_sched()
    tau = Subsequence(tau=(1, 2), n_steps=2)
    rng = np.random.default_rng(4)
    eps_pred = rng.standard_normal((2, 3))
    x = rng.standard_normal((2, 3))
    y = x + 0.4
    out = corrected_noise(eps_pred, y, x, 2, 1.0, sched, tau)
    np.testing.assert_allclose(out, eps_pred - 0.2828427124746190,
                               atol=1e-12)


def test_corrected_noise_rejects_negative_omega():
    z = np.zeros((2, 3))
    with pytest.raises(ValueError):
        corrected_noise(z, z, z, 2, -1.0, SCHED, TAU)


@pytest.mark.parametrize("omega", [np.nan, np.inf, -1.0])
def test_omega_must_be_finite_and_nonnegative(omega):
    # a NaN omega used to pass (nan < 0 is False) and fail every window
    # later as a non-finite latent
    message = "^guidance scale omega must be finite and nonnegative$"
    with pytest.raises(ValueError, match=message):
        GuidanceConfig(tau=TAU, omega=omega)
    z = np.zeros((2, 3))
    with pytest.raises(ValueError, match=message):
        corrected_noise(z, z, z, 2, omega, SCHED, TAU)


# -------------------------------------------------------- stage1_recover


def test_stage1_omega_zero_is_bitwise_unconditional(toy_model):
    y0 = np.random.default_rng(5).standard_normal((4, 16))
    cfg = GuidanceConfig(tau=TAU, omega=0.0, seed=7)
    x0p, trace = stage1_recover(toy_model, y0, cfg, SCHED)
    ref = unconditional_sample(toy_model, (4, 16), SCHED, TAU,
                               np.random.default_rng(7))
    assert np.array_equal(x0p, ref)
    assert len(trace.records) == TAU.s


def test_stage1_high_omega_saturates_to_conditioner(toy_model):
    # Strong guidance reproduces the conditioning measurements nearly
    # exactly: channelwise correlation above 0.99 on a clean window.
    y0 = np.random.default_rng(6).standard_normal((4, 16))
    cfg = GuidanceConfig(tau=TAU, omega=20.0, seed=11)
    x0p, _ = stage1_recover(toy_model, y0, cfg, SCHED)
    for m in range(4):
        r = np.corrcoef(x0p[m], y0[m])[0, 1]
        assert r > 0.99, f"channel {m} correlation {r:.4f}"


def test_stage1_omega_zero_ignores_conditioner(toy_model):
    # Unconditional limit: correlation with an independent white-noise
    # conditioner stays small.
    y0 = np.random.default_rng(8).standard_normal((4, 16))
    cfg = GuidanceConfig(tau=TAU, omega=0.0, seed=9)
    x0p, _ = stage1_recover(toy_model, y0, cfg, SCHED)
    r = np.corrcoef(x0p.ravel(), y0.ravel())[0, 1]
    assert abs(r) < 0.3


def test_stage1_monotone_guidance_pull(toy_model):
    # On a fixed seed and clean conditioner, distance to y0 is
    # non-increasing as omega grows.
    y0 = np.random.default_rng(10).standard_normal((4, 16))
    dists = []
    for omega in (0.0, 0.5, 1.0, 2.0, 5.0):
        cfg = GuidanceConfig(tau=TAU, omega=omega, seed=13)
        x0p, _ = stage1_recover(toy_model, y0, cfg, SCHED)
        dists.append(float(np.linalg.norm(x0p - y0)))
    for lo, hi in zip(dists[1:], dists[:-1]):
        assert lo <= hi + 1e-12, f"pull not monotone: {dists}"


def test_stage1_deterministic_under_seed(toy_model):
    y0 = np.random.default_rng(12).standard_normal((4, 16))
    cfg = GuidanceConfig(tau=TAU, omega=1.0, seed=21)
    a, _ = stage1_recover(toy_model, y0, cfg, SCHED)
    b, _ = stage1_recover(toy_model, y0, cfg, SCHED)
    assert np.array_equal(a, b)


def test_stage1_stack_is_bitwise_one_window_runs(toy_model):
    y0 = np.random.default_rng(14).standard_normal((3, 4, 16))
    cfg = GuidanceConfig(tau=TAU, omega=1.0, seed=5)
    stacked = stage1_recover(toy_model, y0, cfg, SCHED, seeds=[5, 8, 13])
    for b, seed in enumerate((5, 8, 13)):
        alone, trace = stage1_recover(
            toy_model, y0[b], GuidanceConfig(tau=TAU, omega=1.0, seed=seed),
            SCHED)
        assert np.array_equal(stacked[b][0], alone)
        assert ([r.sigma_bar for r in stacked[b][1].records]
                == [r.sigma_bar for r in trace.records])


def test_stage1_aborts_on_nonfinite(zeros_model):
    import copy

    bad = copy.deepcopy(zeros_model)
    bad["head.conv.b"].data += 1e200
    y0 = np.zeros((4, 16))
    cfg = GuidanceConfig(tau=TAU, omega=1.0, seed=3)
    with pytest.raises((RuntimeError, FloatingPointError)):
        stage1_recover(bad, y0, cfg, SCHED)


# -------------------------------------------------------- detect_outliers


def test_detect_outliers_identical_inputs():
    y0 = np.random.default_rng(14).standard_normal((8, 64))
    rep = detect_outliers(y0.copy(), y0)
    assert isinstance(rep, OutlierReport)
    assert rep.outlier_fraction == 0.0
    assert np.array_equal(rep.mask, np.ones((8, 64)))


def test_detect_outliers_single_spike_flags_exactly_that_entry():
    rng = np.random.default_rng(15)
    y0 = rng.standard_normal((8, 64))
    x0p = y0.copy()
    x0p[2, 10] += 10.0 * y0[2].std()
    rep = detect_outliers(x0p, y0)
    expected = np.ones((8, 64))
    expected[2, 10] = 0.0
    assert np.array_equal(rep.mask, expected)
    assert rep.outlier_fraction == pytest.approx(1.0 / (8 * 64))


def test_detect_outliers_fraction_matches_mask():
    rng = np.random.default_rng(16)
    y0 = rng.standard_normal((6, 32))
    x0p = y0 + rng.standard_normal((6, 32)) * 2.0
    rep = detect_outliers(x0p, y0)
    assert rep.outlier_fraction == pytest.approx(1.0 - rep.mask.mean(),
                                                 abs=1e-15)
    assert 0.0 <= rep.outlier_fraction <= 1.0


def test_detect_outliers_zero_variance_channel_uses_floor():
    y0 = np.zeros((3, 16))
    y0[1] = 5.0  # constant, zero std
    x0p = y0.copy()
    x0p[1, 4] += 1e-6  # above the 1e-8 threshold floor
    rep = detect_outliers(x0p, y0)
    assert rep.mask[1, 4] == 0.0
    assert rep.mask.sum() == 3 * 16 - 1


def test_detect_outliers_scale_equivariant():
    rng = np.random.default_rng(17)
    y0 = rng.standard_normal((5, 40))
    x0p = y0 + rng.standard_normal((5, 40)) * 1.5
    base = detect_outliers(x0p, y0).mask
    ys, xs = y0.copy(), x0p.copy()
    ys[3] *= 137.0
    xs[3] *= 137.0
    scaled = detect_outliers(xs, ys).mask
    assert np.array_equal(base, scaled)


def test_detect_outliers_reports_residual_std():
    rng = np.random.default_rng(18)
    y0 = rng.standard_normal((4, 32))
    x0p = y0 + rng.standard_normal((4, 32)) * 0.5
    rep = detect_outliers(x0p, y0)
    np.testing.assert_allclose(rep.residual_std,
                               (x0p - y0).std(axis=1), atol=1e-12)
