"""Oracle tests for diffusion-based masked imputation with resampling.

The three primitive updates are pinned by exact limiting cases and
Monte-Carlo moment checks; the imputation loop is pinned by its
provenance invariants: observed entries pass through exactly (scaled by
sqrt(alpha_bar at the final level)) and missing-entry values are never
read (NaN poisoning cannot change the output).
"""

import copy

import numpy as np
import pytest

from tsdm import sampler
from tsdm.schedule import linear_schedule, make_subsequence
from tsdm.stage2 import (ImputeConfig, diffuse_known, renoise_to_level,
                         stage2_impute)

SCHED = linear_schedule(100)
TAU = make_subsequence(100, 10)


# ---------------------------------------------------------------- config


def test_impute_config_defaults():
    cfg = ImputeConfig(tau=TAU)
    assert cfg.R == 2
    assert cfg.seed == 0
    assert cfg.rescale_observed is False


def test_impute_config_rejects_nonpositive_R():
    with pytest.raises(ValueError):
        ImputeConfig(tau=TAU, R=0)


@pytest.mark.parametrize("R", [2.5, 2.0])
def test_impute_config_rejects_a_non_integer_R(R):
    # a float R used to fail in recover_batch, after stage 1 had run
    with pytest.raises(ValueError, match="^resampling count R must be an "
                                         f"integer of at least 1, got {R}$"):
        ImputeConfig(tau=TAU, R=R)


# ---------------------------------------------------------- diffuse_known


def test_diffuse_known_zero_noise_scales_y0():
    rng = np.random.default_rng(0)
    y0 = rng.standard_normal((4, 16))
    i = 6
    a_prev = SCHED.alpha_bar_at(int(TAU.tau[i - 2]))
    out = diffuse_known(y0, i, SCHED, TAU, np.zeros_like(y0))
    assert np.array_equal(out, np.sqrt(a_prev) * y0)


def test_diffuse_known_requires_i_at_least_two():
    y0 = np.zeros((2, 4))
    with pytest.raises(ValueError):
        diffuse_known(y0, 1, SCHED, TAU, np.zeros_like(y0))


def test_diffuse_known_monte_carlo_variance():
    # Sample variance around sqrt(a') y0 equals 1 - a' within 5%.
    rng = np.random.default_rng(1)
    y0 = np.zeros((100, 100))
    i = 8
    a_prev = SCHED.alpha_bar_at(int(TAU.tau[i - 2]))
    out = diffuse_known(y0, i, SCHED, TAU, rng.standard_normal((100, 100)))
    assert out.var() == pytest.approx(1.0 - a_prev, rel=0.05)


def test_renoise_to_level_zero_noise_scales_by_level_ratio():
    rng = np.random.default_rng(15)
    x = rng.standard_normal((4, 16))
    i = 6
    a_cur = SCHED.alpha_bar_at(int(TAU.tau[i - 1]))
    a_prev = SCHED.alpha_bar_at(int(TAU.tau[i - 2]))
    out = renoise_to_level(x, i, SCHED, TAU, np.zeros_like(x))
    assert np.allclose(out, np.sqrt(a_cur / a_prev) * x, rtol=0, atol=0)


def test_renoise_to_level_restores_forward_marginal():
    # Diffusing x0 to tau_{i-1} and renoising to tau_i must have the same
    # first two moments as diffusing x0 straight to tau_i.
    rng = np.random.default_rng(16)
    x0 = rng.standard_normal((50, 50))
    i = 8
    a_cur = SCHED.alpha_bar_at(int(TAU.tau[i - 1]))
    a_prev = SCHED.alpha_bar_at(int(TAU.tau[i - 2]))
    d = x0.size
    total = 0.0
    draws = 200
    for _ in range(draws):
        at_prev = (np.sqrt(a_prev) * x0
                   + np.sqrt(1.0 - a_prev) * rng.standard_normal(x0.shape))
        out = renoise_to_level(at_prev, i, SCHED, TAU,
                               rng.standard_normal(x0.shape))
        total += float(np.sum(out**2))
    expected = a_cur * float(np.sum(x0**2)) + (1.0 - a_cur) * d
    assert total / draws == pytest.approx(expected, rel=0.05)


def test_renoise_to_level_matches_resample_step_at_unit_stride():
    tau_full = make_subsequence(100, 100)
    rng = np.random.default_rng(17)
    x = rng.standard_normal((4, 16))
    eps = rng.standard_normal((4, 16))
    for i in (2, 40, 100):
        a = renoise_to_level(x, i, SCHED, tau_full, eps)
        beta = SCHED.beta[int(tau_full.tau[i - 1]) - 1]
        b = np.sqrt(1.0 - beta) * x + np.sqrt(beta) * eps
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-13)


def test_renoise_to_level_requires_previous_level():
    x = np.zeros((2, 4))
    with pytest.raises(ValueError):
        renoise_to_level(x, 1, SCHED, TAU, x)


# ----------------------------------------------------------- stage2_impute


def test_stage2_all_observed_passes_through_scaled(toy_model):
    y0 = np.random.default_rng(7).standard_normal((4, 16))
    cfg = ImputeConfig(tau=TAU, seed=3)
    out = stage2_impute(toy_model, y0, np.ones((4, 16)), cfg, SCHED)
    a1 = SCHED.alpha_bar_at(int(TAU.tau[0]))
    assert np.array_equal(out, np.sqrt(a1) * y0)


def test_stage2_observed_entry_provenance(toy_model):
    rng = np.random.default_rng(8)
    y0 = rng.standard_normal((4, 16))
    mask = (rng.random((4, 16)) < 0.7).astype(np.float64)
    cfg = ImputeConfig(tau=TAU, seed=5)
    out = stage2_impute(toy_model, y0, mask, cfg, SCHED)
    a1 = SCHED.alpha_bar_at(int(TAU.tau[0]))
    obs = mask == 1.0
    assert np.array_equal(out[obs], (np.sqrt(a1) * y0)[obs])
    assert np.all(np.isfinite(out))


def test_stage2_nan_poisoning_independence(toy_model):
    # Values at missing positions are never read: replacing them with
    # NaN (or anything else) leaves the output bit-identical.
    rng = np.random.default_rng(9)
    y0 = rng.standard_normal((4, 16))
    mask = (rng.random((4, 16)) < 0.6).astype(np.float64)
    cfg = ImputeConfig(tau=TAU, seed=11)
    ref = stage2_impute(toy_model, y0, mask, cfg, SCHED)
    poisoned = y0.copy()
    poisoned[mask == 0.0] = np.nan
    out = stage2_impute(toy_model, poisoned, mask, cfg, SCHED)
    assert np.all(np.isfinite(out))
    assert np.array_equal(out, ref)


def test_stage2_deterministic_and_R_preserves_observed(toy_model):
    rng = np.random.default_rng(10)
    y0 = rng.standard_normal((4, 16))
    mask = (rng.random((4, 16)) < 0.5).astype(np.float64)
    a1 = SCHED.alpha_bar_at(int(TAU.tau[0]))
    obs = mask == 1.0
    outs = []
    for R in (1, 2, 3):
        cfg = ImputeConfig(tau=TAU, R=R, seed=13)
        out = stage2_impute(toy_model, y0, mask, cfg, SCHED)
        again = stage2_impute(toy_model, y0, mask, cfg, SCHED)
        assert np.array_equal(out, again)
        assert np.array_equal(out[obs], (np.sqrt(a1) * y0)[obs])
        outs.append(out)
    # Different R values change the generated part (resampling happened).
    assert not np.array_equal(outs[0], outs[1])


def test_stage2_rescale_observed_flag(toy_model):
    rng = np.random.default_rng(11)
    y0 = rng.standard_normal((4, 16))
    mask = (rng.random((4, 16)) < 0.5).astype(np.float64)
    base = stage2_impute(toy_model, y0, mask,
                         ImputeConfig(tau=TAU, seed=17), SCHED)
    rescaled = stage2_impute(toy_model, y0, mask,
                             ImputeConfig(tau=TAU, seed=17,
                                          rescale_observed=True), SCHED)
    obs = mask == 1.0
    np.testing.assert_allclose(rescaled[obs], y0[obs], atol=1e-12)
    assert np.array_equal(rescaled[~obs], base[~obs])


def test_stage2_shape_mismatch_raises(toy_model):
    cfg = ImputeConfig(tau=TAU)
    with pytest.raises(ValueError):
        stage2_impute(toy_model, np.zeros((4, 16)), np.zeros((4, 8)),
                      cfg, SCHED)


@pytest.mark.parametrize("shape", [(4, 16), (3, 4, 16)])
def test_stage2_refuses_a_nonbinary_mask_before_the_denoiser(
        toy_model, monkeypatch, shape):
    calls = []
    monkeypatch.setattr(sampler, "predict_noise",
                        lambda *args: calls.append(args))
    mask = np.ones(shape)
    mask.flat[-1] = 0.5
    with pytest.raises(ValueError, match=r"^mask must be binary \(0/1\)$"):
        stage2_impute(toy_model, np.zeros(shape), mask, ImputeConfig(tau=TAU),
                      SCHED)
    assert calls == []


def test_stage2_stack_is_bitwise_one_window_runs(toy_model):
    rng = np.random.default_rng(15)
    y0 = rng.standard_normal((3, 4, 16))
    mask = (rng.random((3, 4, 16)) < 0.6).astype(np.float64)
    y0[2, 0, 0] = np.inf  # an observed entry that is not finite
    mask[2, 0, 0] = 1.0
    cfg = ImputeConfig(tau=TAU, R=2, seed=6)
    stacked = stage2_impute(toy_model, y0, mask, cfg, SCHED)
    for b in range(2):
        alone = stage2_impute(toy_model, y0[b], mask[b],
                              ImputeConfig(tau=TAU, R=2, seed=6 ^ b), SCHED)
        assert np.array_equal(stacked[b], alone)
    assert isinstance(stacked[2], ValueError)


def test_stage2_aborts_on_nonfinite(zeros_model):
    bad = copy.deepcopy(zeros_model)
    bad["head.conv.b"].data += 1e200
    cfg = ImputeConfig(tau=TAU, seed=1)
    mask = np.zeros((4, 16))
    with pytest.raises((RuntimeError, FloatingPointError)):
        stage2_impute(bad, np.zeros((4, 16)), mask, cfg, SCHED)
