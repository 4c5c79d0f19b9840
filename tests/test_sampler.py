import copy
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsdm import sampler
from tsdm.denoiser import SHARD_ROWS, predict_noise
from tsdm.sampler import (
    SamplerTrace,
    capital_gamma,
    detailed_step,
    estimate_x0,
    forward_diffuse,
    improved_step,
    optimal_variance,
    unconditional_sample,
)
from tsdm.schedule import (
    Subsequence,
    VarianceSchedule,
    linear_schedule,
    make_subsequence,
)
from tsdm.stage1 import (GuidanceConfig, condition_noisy, corrected_noise,
                         stage1_recover)
from tsdm.stage2 import (ImputeConfig, diffuse_known, renoise_to_level,
                         stage2_impute)

SCHED = linear_schedule(100)
TAU = make_subsequence(100, 10)


def _toy_sched():
    # alpha_bar = [0.9, 0.5] so hand-evaluated oracles apply
    return VarianceSchedule.from_betas(np.array([0.1, 1 - 0.5 / 0.9]))


# --------------------------------------------------------- forward_diffuse

def test_forward_diffuse_anchor_and_deterministic_branch():
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal((4, 8))
    eps = rng.standard_normal((4, 8))
    np.testing.assert_array_equal(forward_diffuse(x0, 0, eps, SCHED), x0)
    a = SCHED.alpha_bar_at(40)
    np.testing.assert_allclose(forward_diffuse(x0, 40, np.zeros_like(x0), SCHED),
                               np.sqrt(a) * x0, rtol=1e-15)


def test_forward_diffuse_variance():
    rng = np.random.default_rng(1)
    n = 60
    a = SCHED.alpha_bar_at(n)
    draws = forward_diffuse(np.zeros((100, 100)), n,
                            rng.standard_normal((100, 100)), SCHED)
    assert draws.var() == pytest.approx(1 - a, rel=0.05)


def test_forward_diffuse_rejects_bad_step():
    with pytest.raises(ValueError):
        forward_diffuse(np.zeros((2, 2)), 101, np.zeros((2, 2)), SCHED)


# ------------------------------------------------------------- estimate_x0

def test_estimate_x0_inverts_forward():
    rng = np.random.default_rng(2)
    x0 = rng.standard_normal((4, 8))
    eps = rng.standard_normal((4, 8))
    x_n = forward_diffuse(x0, 77, eps, SCHED)
    np.testing.assert_allclose(estimate_x0(x_n, eps, 77, SCHED), x0, atol=1e-10)


def test_estimate_x0_zero_prediction():
    rng = np.random.default_rng(3)
    x_n = rng.standard_normal((2, 4))
    a = SCHED.alpha_bar_at(13)
    np.testing.assert_allclose(estimate_x0(x_n, np.zeros_like(x_n), 13, SCHED),
                               x_n / np.sqrt(a), rtol=1e-15)


def test_estimate_x0_exhaustive_over_subsequence():
    rng = np.random.default_rng(4)
    x0 = rng.standard_normal((4, 8))
    worst = 0.0
    for n in TAU.tau:
        eps = rng.standard_normal((4, 8))
        back = estimate_x0(forward_diffuse(x0, int(n), eps, SCHED), eps, int(n), SCHED)
        worst = max(worst, np.max(np.abs(back - x0)))
    assert worst < 1e-9


# -------------------------------------------------------- optimal_variance

def test_optimal_variance_whitened_predictor_gives_zero():
    eps = np.ones((4, 8))  # mean squared norm exactly d
    assert optimal_variance(eps, 50, SCHED) == 0.0


def test_optimal_variance_zero_predictor():
    a = SCHED.alpha_bar_at(25)
    got = optimal_variance(np.zeros((4, 8)), 25, SCHED)
    assert got == pytest.approx((1 - a) / a, rel=1e-15)


def test_optimal_variance_clamped_at_zero():
    eps = np.full((4, 8), 3.0)  # mean squared norm 9 > 1
    assert optimal_variance(eps, 50, SCHED) == 0.0


def test_optimal_variance_batch_is_expectation_over_batch():
    rng = np.random.default_rng(5)
    batch = rng.standard_normal((6, 4, 8))
    a = SCHED.alpha_bar_at(33)
    want = max((1 - a) / a * (1 - np.mean(batch**2)), 0.0)
    assert optimal_variance(batch, 33, SCHED) == pytest.approx(want, rel=1e-15)


def test_optimal_variance_gaussian_toy_posterior():
    # For x0 ~ N(0, I) the posterior variance of x0 given x_n is 1 - alpha_bar;
    # the analytic optimal predictor is eps(x) = sqrt(1 - alpha_bar) x.
    rng = np.random.default_rng(42)
    for n in (1, 10, 30, 50, 70, 90, 100):
        a = SCHED.alpha_bar_at(n)
        x_n = rng.standard_normal(100_000)
        sb2 = optimal_variance(np.sqrt(1 - a) * x_n, n, SCHED)
        assert sb2 == pytest.approx(1 - a, rel=0.03)


# ----------------------------------------------------------- capital_gamma

def test_capital_gamma_hand_value():
    sched = _toy_sched()
    tau = Subsequence(np.array([1, 2]), 2)
    got = capital_gamma(2, sched, tau)
    want = np.sqrt(0.9) - np.sqrt(0.1) * np.sqrt(0.5) / np.sqrt(0.5)
    assert got == pytest.approx(want, abs=1e-12)
    assert got == pytest.approx(0.6325, abs=5e-4)


def test_capital_gamma_requires_predecessor():
    with pytest.raises(ValueError):
        capital_gamma(1, SCHED, TAU)
    with pytest.raises(ValueError):
        capital_gamma(11, SCHED, TAU)


_Z = np.zeros((2, 4))


@pytest.mark.parametrize("call, message", [
    (lambda: capital_gamma(1, SCHED, TAU),
     "subsequence position 1 outside 2..10"),
    (lambda: detailed_step(_Z, _Z, 1, SCHED, TAU, _Z),
     "subsequence position 1 outside 2..10"),
    (lambda: improved_step(_Z, _Z, 0, SCHED, TAU, _Z),
     "subsequence position 0 outside 2..10"),
    (lambda: diffuse_known(_Z, 1, SCHED, TAU, _Z),
     "subsequence position 1 outside 2..10"),
    (lambda: renoise_to_level(_Z, 11, SCHED, TAU, _Z),
     "subsequence position 11 outside 2..10"),
    (lambda: condition_noisy(_Z, _Z, 0, SCHED, TAU),
     "subsequence position 0 outside 1..10"),
    (lambda: corrected_noise(_Z, _Z, _Z, 11, 1.0, SCHED, TAU),
     "subsequence position 11 outside 1..10"),
    (lambda: estimate_x0(_Z, _Z, 0, SCHED), "step 0 outside 1..100"),
    (lambda: optimal_variance(_Z, 101, SCHED), "step 101 outside 1..100"),
    (lambda: sampler.sigma_bar_rows(_Z[None], 0, SCHED),
     "step 0 outside 1..100"),
    (lambda: forward_diffuse(_Z, 101, _Z, SCHED), "step 101 outside 0..100"),
])
def test_out_of_range_positions_and_steps_name_their_bounds(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


# ------------------------------------------------------------ reverse steps

def test_detailed_step_hand_value():
    sched = _toy_sched()
    tau = Subsequence(np.array([1, 2]), 2)
    x = np.array([[1.0]])
    eps_pred = np.array([[0.2]])
    out = detailed_step(x, eps_pred, 2, sched, tau, np.zeros((1, 1)))
    want = (np.sqrt(0.9) / np.sqrt(0.5)) * 1.0 + (
        np.sqrt(0.1) - np.sqrt(0.9) * np.sqrt(0.5) / np.sqrt(0.5)) * 0.2
    assert out[0, 0] == pytest.approx(want, rel=1e-12)
    assert out[0, 0] == pytest.approx(1.2151, abs=5e-4)


def test_improved_equals_detailed():
    rng = np.random.default_rng(6)
    for _ in range(50):
        n_steps = int(rng.integers(5, 60))
        sched = linear_schedule(n_steps, 0.001, 0.3)
        s = int(rng.integers(2, n_steps + 1))
        tau = make_subsequence(n_steps, s)
        i = int(rng.integers(2, s + 1))
        x = rng.standard_normal((3, 6))
        eps_pred = 0.7 * rng.standard_normal((3, 6))
        eps_draw = rng.standard_normal((3, 6))
        a = improved_step(x, eps_pred, i, sched, tau, eps_draw)
        b = detailed_step(x, eps_pred, i, sched, tau, eps_draw)
        np.testing.assert_allclose(a, b, atol=1e-10)


def test_step_noise_off_is_deterministic_and_forward_consistent():
    rng = np.random.default_rng(7)
    x0 = rng.standard_normal((4, 8))
    eps = rng.standard_normal((4, 8))
    for i in range(2, TAU.s + 1):
        t_cur = int(TAU.tau[i - 1])
        t_prev = int(TAU.tau[i - 2])
        x_cur = forward_diffuse(x0, t_cur, eps, SCHED)
        out = improved_step(x_cur, eps, i, SCHED, TAU, np.zeros_like(x0))
        want = forward_diffuse(x0, t_prev, eps, SCHED)
        np.testing.assert_allclose(out, want, atol=1e-9)


def test_perfect_predictor_chain_recovers_x0():
    rng = np.random.default_rng(8)
    x0 = rng.standard_normal((4, 8))
    eps = rng.standard_normal((4, 8))
    x = forward_diffuse(x0, 100, eps, SCHED)
    for i in range(TAU.s, 1, -1):
        x = improved_step(x, eps, i, SCHED, TAU, np.zeros_like(x))
    back = estimate_x0(x, eps, int(TAU.tau[0]), SCHED)
    assert np.max(np.abs(back - x0)) < 1e-8


def test_coefficient_identity_for_every_adjacent_pair():
    for i in range(2, TAU.s + 1):
        a_prev = SCHED.alpha_bar_at(int(TAU.tau[i - 2]))
        a_cur = SCHED.alpha_bar_at(int(TAU.tau[i - 1]))
        gamma = capital_gamma(i, SCHED, TAU)
        lhs = np.sqrt(1 - a_prev) / np.sqrt(1 - a_cur) + gamma / np.sqrt(a_cur)
        rhs = np.sqrt(a_prev) / np.sqrt(a_cur)
        assert lhs == pytest.approx(rhs, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_steps=st.integers(4, 80))
def test_property_step_forms_equivalent(seed, n_steps):
    rng = np.random.default_rng(seed)
    sched = linear_schedule(n_steps, 0.002, 0.25)
    s = int(rng.integers(2, n_steps + 1))
    tau = make_subsequence(n_steps, s)
    i = int(rng.integers(2, s + 1))
    x = rng.standard_normal((2, 5))
    eps_pred = rng.standard_normal((2, 5)) * rng.uniform(0.1, 1.2)
    eps_draw = rng.standard_normal((2, 5))
    np.testing.assert_allclose(
        improved_step(x, eps_pred, i, sched, tau, eps_draw),
        detailed_step(x, eps_pred, i, sched, tau, eps_draw),
        atol=1e-10,
    )


# --------------------------------------------------- unconditional sampling

def test_unconditional_sample_deterministic(zeros_model, sched100):
    tau = make_subsequence(100, 10)
    a = unconditional_sample(zeros_model, (4, 16), sched100, tau,
                             np.random.default_rng(5))
    b = unconditional_sample(zeros_model, (4, 16), sched100, tau,
                             np.random.default_rng(5))
    np.testing.assert_array_equal(a, b)


def test_unconditional_sample_from_zero_trained_model(zeros_model, sched100):
    tau = make_subsequence(100, 10)
    x = unconditional_sample(zeros_model, (4, 16), sched100, tau,
                             np.random.default_rng(11))
    assert np.max(np.abs(x)) < 0.2


def test_unconditional_sample_trace(zeros_model, sched100):
    tau = make_subsequence(100, 10)
    x, trace = unconditional_sample(zeros_model, (4, 16), sched100, tau,
                                    np.random.default_rng(3), trace=True)
    assert isinstance(trace, SamplerTrace)
    assert len(trace.records) == tau.s
    taus = [r.tau for r in trace.records]
    assert taus == sorted(taus, reverse=True)
    assert all(r.sigma_bar >= 0 for r in trace.records)


def test_unconditional_sample_aborts_on_nonfinite(zeros_model, sched100):
    import copy

    bad = copy.deepcopy(zeros_model)
    bad["head.conv.b"].data += 1e200
    tau = make_subsequence(100, 5)
    with pytest.raises((RuntimeError, FloatingPointError)):
        unconditional_sample(bad, (4, 16), sched100, tau, np.random.default_rng(0))


@pytest.mark.parametrize("shape", [(2, 4, 16), (1, 4, 16), (64,), ()])
def test_unconditional_sample_rejects_other_shapes_up_front(
        toy_model, sched100, monkeypatch, shape):
    calls = []
    monkeypatch.setattr(sampler, "predict_noise",
                        lambda *args: calls.append(args))
    with pytest.raises(ValueError, match=r"shape must be \(M, T\)"):
        unconditional_sample(toy_model, shape, sched100, TAU,
                             np.random.default_rng(0))
    assert calls == []


def test_lockstep_isolates_a_failing_denoiser_call(toy_model, sched100,
                                                   monkeypatch):
    # The update leaves seed 13's latent at 1e300, so the next stacked
    # predict_noise overflows inside the network and raises; the pass is
    # replayed window by window, so only that window leaves and the others
    # keep their one-window bits and traces.
    tau = make_subsequence(100, 4)
    raised = []

    def predict(params, x, n):
        try:
            return predict_noise(params, x, n)
        except FloatingPointError:
            raised.append(len(x))
            raise

    monkeypatch.setattr(sampler, "predict_noise", predict)

    def run(seeds):
        rngs = [np.random.default_rng(s) for s in seeds]

        def update(rows, x, eps, sigma_bar, i, r, draw):
            if i == 1:
                return x - 0.1 * eps
            x = 0.5 * x + 0.1 * eps + sigma_bar * draw()
            if i == 3:
                x[[seeds[b] == 13 for b in rows]] = 1e300
            return x

        return sampler.reverse_lockstep(toy_model, rngs, (4, 16), sched100,
                                        tau, update, trace=True)

    with np.errstate(over="ignore"):
        stacked = run([11, 13, 17])
        assert raised == [3, 1]
        assert isinstance(stacked[1], FloatingPointError)
        for b, seed in enumerate([11, 13, 17]):
            _assert_same_outcome(stacked[b], run([seed])[0])


def test_lockstep_fails_only_the_window_whose_latent_turns_non_finite(
        toy_model, sched100):
    # The update leaves seed 13's latent NaN at i = 3, so that pass raises
    # "non-finite latent" and is replayed window by window: only that
    # window leaves, and the others keep their one-window bits and traces.
    tau = make_subsequence(100, 4)

    def run(seeds):
        rngs = [np.random.default_rng(s) for s in seeds]

        def update(rows, x, eps, sigma_bar, i, r, draw):
            if i == 1:
                return x - 0.1 * eps
            x = 0.5 * x + 0.1 * eps + sigma_bar * draw()
            if i == 3:
                x[[seeds[b] == 13 for b in rows]] = np.nan
            return x

        return sampler.reverse_lockstep(toy_model, rngs, (4, 16), sched100,
                                        tau, update, trace=True)

    stacked = run([11, 13, 17])
    assert isinstance(stacked[1], RuntimeError)
    assert str(stacked[1]) == "non-finite latent at step tau=75"
    for b, seed in enumerate([11, 13, 17]):
        _assert_same_outcome(stacked[b], run([seed])[0])
    assert [r.tau for r in stacked[0][1].records] == [100, 75, 50, 25]


@pytest.mark.parametrize("seeds", [[1, 2], [1, 2, 3, 4]])
@pytest.mark.parametrize("stage", ["stage1", "stage2"])
def test_a_seed_list_of_the_wrong_length_is_refused_up_front(
        toy_model, sched100, monkeypatch, seeds, stage):
    calls = []
    monkeypatch.setattr(sampler, "predict_noise",
                        lambda *args: calls.append(args))
    y0 = np.zeros((3, 4, 16))
    with pytest.raises(ValueError) as err:
        if stage == "stage1":
            stage1_recover(toy_model, y0, GuidanceConfig(tau=TAU), sched100,
                           seeds=seeds)
        else:
            stage2_impute(toy_model, y0, np.ones_like(y0),
                          ImputeConfig(tau=TAU), sched100, seeds=seeds)
    assert str(err.value) == f"{len(seeds)} seeds for 3 windows"
    assert calls == []


# ------------------------------------------- reverse loops against the prior
# The three loops as they were before they became updates over
# reverse_lockstep, one window at a time, kept as references: one reverse
# driver must give every window the same bits, the same trace and the same
# failure as these.


def _prior_unconditional_sample(params, shape, sched, tau, rng, trace=False):
    x = rng.standard_normal(shape)
    rec = SamplerTrace() if trace else None
    for i in range(tau.s, 1, -1):
        t0 = time.perf_counter()
        t_cur = int(tau.tau[i - 1])
        eps_pred = predict_noise(params, x, t_cur)
        eps_draw = rng.standard_normal(shape)
        x = improved_step(x, eps_pred, i, sched, tau, eps_draw)
        if not np.all(np.isfinite(x)):
            raise RuntimeError(f"non-finite latent at step tau={t_cur}")
        if rec is not None:
            sb = math.sqrt(optimal_variance(eps_pred, t_cur, sched))
            rec.add(t_cur, sb, (time.perf_counter() - t0) * 1e3)
    t0 = time.perf_counter()
    t1 = int(tau.tau[0])
    eps_pred = predict_noise(params, x, t1)
    x0 = estimate_x0(x, eps_pred, t1, sched)
    if not np.all(np.isfinite(x0)):
        raise RuntimeError(f"non-finite latent at step tau={t1}")
    if rec is not None:
        rec.add(t1, 0.0, (time.perf_counter() - t0) * 1e3)
        return x0, rec
    return x0


def _prior_stage1(params, y0, cfg, sched, rng):
    tau = cfg.tau
    x = rng.standard_normal(y0.shape)
    rec = SamplerTrace()
    for i in range(tau.s, 0, -1):
        t0 = time.perf_counter()
        t_cur = int(tau.tau[i - 1])
        eps_pred = predict_noise(params, x, t_cur)
        y_noisy = condition_noisy(y0, eps_pred, i, sched, tau)
        eps_hat = corrected_noise(eps_pred, y_noisy, x, i, cfg.omega, sched,
                                  tau)
        if i == 1:
            x = estimate_x0(x, eps_hat, t_cur, sched)
            sigma_bar = 0.0
        else:
            eps_draw = rng.standard_normal(y0.shape)
            x = improved_step(x, eps_hat, i, sched, tau, eps_draw)
            sigma_bar = math.sqrt(optimal_variance(eps_hat, t_cur, sched))
        if not np.all(np.isfinite(x)):
            raise RuntimeError(f"non-finite latent at step tau={t_cur}")
        rec.add(t_cur, sigma_bar, (time.perf_counter() - t0) * 1e3)
    return x, rec


def _prior_stage1_stack(params, y0, cfg, sched, seeds):
    return [_outcome(lambda: _prior_stage1(params, y0[b], cfg, sched,
                                           np.random.default_rng(seed)))
            for b, seed in enumerate(seeds)]


def _prior_stage2(params, y0, mask, cfg, sched, rng):
    y0 = np.where(mask == 1.0, y0, 0.0)
    tau = cfg.tau
    shape = y0.shape
    x = rng.standard_normal(shape)
    if not np.all(np.isfinite(y0)):
        raise ValueError("observed entries must be finite")
    for i in range(tau.s, 1, -1):
        t_cur = int(tau.tau[i - 1])
        for r in range(1, cfg.R + 1):
            eps_pred = predict_noise(params, x, t_cur)
            known = diffuse_known(y0, i, sched, tau,
                                  rng.standard_normal(shape))
            eps_draw = rng.standard_normal(shape)
            generated = detailed_step(x, eps_pred, i, sched, tau, eps_draw)
            x = np.where(mask == 1.0, known, generated)
            if not np.all(np.isfinite(x)):
                raise RuntimeError(f"non-finite latent at step tau={t_cur}")
            if r < cfg.R:
                x = renoise_to_level(x, i, sched, tau,
                                     rng.standard_normal(shape))
    t1 = int(tau.tau[0])
    a1 = sched.alpha_bar_at(t1)
    mu = estimate_x0(x, predict_noise(params, x, t1), t1, sched)
    known_final = y0 if cfg.rescale_observed else np.sqrt(a1) * y0
    out = np.where(mask == 1.0, known_final, mu)
    if not np.all(np.isfinite(out)):
        raise RuntimeError(f"non-finite latent at step tau={t1}")
    return out


def _prior_stage2_stack(params, y0, mask, cfg, sched, seeds):
    return [_outcome(lambda: _prior_stage2(params, y0[b], mask[b], cfg, sched,
                                           np.random.default_rng(seed)))
            for b, seed in enumerate(seeds)]


def _outcome(call):
    """What a one-window call gives: its result or the exception it raised."""
    try:
        return call()
    except Exception as e:  # noqa: BLE001 - the failure is the outcome
        return e


def _assert_same_outcome(got, want):
    """Equal bits, traces (tau and sigma_bar) and failures (type, text)."""
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        return
    assert not isinstance(got, Exception), got
    if isinstance(want, tuple):
        (got, got_trace), (want, want_trace) = got, want
        assert ([(r.tau, r.sigma_bar) for r in got_trace.records]
                == [(r.tau, r.sigma_bar) for r in want_trace.records])
    assert got.tobytes() == want.tobytes()


def _loop_windows(B, seed):
    """B windows of the toy shape; for B > 1 window 2 holds a 1e308
    entry (stage 1 overflows) and window 3 a NaN (stage 2 refuses it),
    each among observed entries, and window 4 a 40% missing mask."""
    rng = np.random.default_rng(seed)
    y0 = rng.standard_normal((B, 4, 16))
    mask = (rng.random((B, 4, 16)) > 0.3).astype(np.float64)
    if B > 1:
        mask[2:4, 1, 5] = 1.0
        y0[2, 1, 5], y0[3, 1, 5] = 1e308, np.nan
        mask[4] = (rng.random((4, 16)) > 0.4)
    return y0, mask


@pytest.mark.parametrize("s", [1, 2, 10])
@pytest.mark.parametrize("trace", [False, True])
def test_unconditional_sample_matches_prior_bits(toy_model, sched100, s,
                                                 trace):
    tau = make_subsequence(100, s)
    got = unconditional_sample(toy_model, (4, 16), sched100, tau,
                               np.random.default_rng(s), trace=trace)
    want = _prior_unconditional_sample(toy_model, (4, 16), sched100, tau,
                                       np.random.default_rng(s), trace=trace)
    _assert_same_outcome(got, want)


def test_unconditional_sample_failure_matches_prior(zeros_model, sched100):
    bad = copy.deepcopy(zeros_model)
    bad["head.conv.b"].data += 1e200
    tau = make_subsequence(100, 5)
    _assert_same_outcome(
        _outcome(lambda: unconditional_sample(bad, (4, 16), sched100, tau,
                                              np.random.default_rng(0))),
        _outcome(lambda: _prior_unconditional_sample(
            bad, (4, 16), sched100, tau, np.random.default_rng(0))))


@pytest.mark.parametrize("s", [1, 2, 10])
@pytest.mark.parametrize("omega", [0.0, 1.0])
@pytest.mark.parametrize("B", [1, 5])
def test_stage1_matches_prior_bits(toy_model, sched100, s, omega, B):
    y0, _ = _loop_windows(B, 30 + s)
    cfg = GuidanceConfig(tau=make_subsequence(100, s), omega=omega, seed=9)
    seeds = [9 ^ b for b in range(B)]
    want = _prior_stage1_stack(toy_model, y0, cfg, sched100, seeds)
    got = stage1_recover(toy_model, y0, cfg, sched100)
    assert len(got) == B
    for b in range(B):
        _assert_same_outcome(got[b], want[b])
        alone = GuidanceConfig(tau=cfg.tau, omega=omega, seed=seeds[b])
        _assert_same_outcome(
            _outcome(lambda: stage1_recover(toy_model, y0[b], alone,
                                            sched100)), want[b])
    if B > 1 and omega > 0 and s > 1:  # guidance carries the 1e308 in
        assert isinstance(got[2], FloatingPointError)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("s", [1, 2, 10])
@pytest.mark.parametrize("R", [1, 3])
@pytest.mark.parametrize("rescale", [False, True])
@pytest.mark.parametrize("B", [1, 5])
def test_stage2_matches_prior_bits(toy_model, sched100, s, R, rescale, B):
    y0, mask = _loop_windows(B, 40 + s)
    y0 = np.where(mask == 1.0, y0, np.nan)  # missing entries are never read
    cfg = ImputeConfig(tau=make_subsequence(100, s), R=R, seed=4,
                       rescale_observed=rescale)
    seeds = [4 ^ b for b in range(B)]
    want = _prior_stage2_stack(toy_model, y0, mask, cfg, sched100, seeds)
    got = stage2_impute(toy_model, y0, mask, cfg, sched100)
    assert len(got) == B
    for b in range(B):
        _assert_same_outcome(got[b], want[b])
        alone = ImputeConfig(tau=cfg.tau, R=R, seed=seeds[b],
                             rescale_observed=rescale)
        _assert_same_outcome(
            _outcome(lambda: stage2_impute(toy_model, y0[b], mask[b], alone,
                                           sched100)), want[b])
    if B > 1:
        assert isinstance(got[3], ValueError)


# ------------------------------------------------ the stacked update's parts

def test_sigma_bar_rows_is_optimal_variance_row_by_row():
    # Alone, every row gives optimal_variance's bits or its error: rows 1
    # and 3 overflow (the square, the reduce), the NaN and inf rows come
    # out NaN and clamped, the rest are plain. The rows that pass alone
    # give the same bits stacked, and the whole stack raises.
    rng = np.random.default_rng(13)
    eps = rng.standard_normal((7, 4, 16)) * rng.uniform(0.2, 1.5, (7, 1, 1))
    eps[1, 2, 3] = 1e155
    eps[3] = 1e154
    eps[4] = np.nan
    eps[5] = np.inf
    alone, errors = {}, []
    for b in range(7):
        want = _outcome(lambda: math.sqrt(optimal_variance(eps[b], 33,
                                                           SCHED)))
        got = _outcome(lambda: sampler.sigma_bar_rows(eps[b:b + 1], 33,
                                                      SCHED))
        if isinstance(want, Exception):
            _assert_same_outcome(got, want)
            errors.append(str(got))
        else:
            assert got.shape == (1, 1, 1)
            assert got.tobytes() == np.float64(want).tobytes()
            alone[b] = got
    assert errors == ["overflow encountered in square",
                      "overflow encountered in reduce"]
    col = sampler.sigma_bar_rows(eps[list(alone)], 33, SCHED)
    assert col.tobytes() == np.concatenate(list(alone.values())).tobytes()
    with pytest.raises(FloatingPointError,
                       match="overflow encountered in square"):
        sampler.sigma_bar_rows(eps, 33, SCHED)


def _sharded_windows(seed):
    """2 * SHARD_ROWS + 1 windows of the toy shape: window 2 holds a
    1e308 entry and window 20 a NaN, each among observed entries, so a
    two-shard predict_noise call has one of them in each shard."""
    B = 2 * SHARD_ROWS + 1
    rng = np.random.default_rng(seed)
    y0 = rng.standard_normal((B, 4, 16))
    mask = (rng.random((B, 4, 16)) > 0.3).astype(np.float64)
    mask[[2, 20], 1, 5] = 1.0
    y0[2, 1, 5], y0[20, 1, 5] = 1e308, np.nan
    assert 2 < B // 2 <= 20
    return y0, mask


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_sharded_stacks_match_prior_bits(toy_model, sched100):
    y0, mask = _sharded_windows(50)
    B = len(y0)
    tau = make_subsequence(100, 10)
    g = GuidanceConfig(tau=tau, omega=1.0, seed=9)
    i = ImputeConfig(tau=tau, R=2, seed=4)
    y0_missing = np.where(mask == 1.0, y0, np.nan)
    cases = [
        (stage1_recover(toy_model, y0, g, sched100),
         _prior_stage1_stack(toy_model, y0, g, sched100,
                             [9 ^ b for b in range(B)]),
         lambda b: stage1_recover(toy_model, y0[b], GuidanceConfig(
             tau=tau, omega=1.0, seed=9 ^ b), sched100)),
        (stage2_impute(toy_model, y0_missing, mask, i, sched100),
         _prior_stage2_stack(toy_model, y0_missing, mask, i, sched100,
                             [4 ^ b for b in range(B)]),
         lambda b: stage2_impute(toy_model, y0_missing[b], mask[b],
                                 ImputeConfig(tau=tau, R=2, seed=4 ^ b),
                                 sched100)),
    ]
    for got, want, alone in cases:
        assert len(got) == B
        for b in range(B):
            _assert_same_outcome(got[b], want[b])
            _assert_same_outcome(_outcome(lambda: alone(b)), want[b])
    (stage1, _, _), (stage2, _, _) = cases
    # stage 1 overflows in sigma_bar and turns the NaN window non-finite;
    # in stage 2 the 1e308 window fails inside its shard's denoiser call
    # and the NaN window up front
    assert isinstance(stage1[2], FloatingPointError)
    assert isinstance(stage1[20], RuntimeError)
    assert isinstance(stage2[2], FloatingPointError)
    assert isinstance(stage2[20], ValueError)
    assert sum(isinstance(out, Exception) for out in stage1 + stage2) == 4


def test_a_raising_pass_fails_only_the_window_that_raises_alone(
        toy_model, sched100):
    # Under over="raise" the guidance of the 1.7e308 window overflows for
    # the whole stack; the pass is replayed one window at a time on the
    # draws each took, so that window alone fails, with its own error.
    y0 = np.random.default_rng(60).standard_normal((3, 4, 16))
    y0[1, 2, 7] = 1.7e308
    cfg = GuidanceConfig(tau=make_subsequence(100, 2), omega=1e10, seed=5)
    with np.errstate(over="raise"):
        got = stage1_recover(toy_model, y0, cfg, sched100)
        want = _prior_stage1_stack(toy_model, y0, cfg, sched100,
                                   [5 ^ b for b in range(3)])
        alone = [_outcome(lambda: stage1_recover(
            toy_model, y0[b], GuidanceConfig(tau=cfg.tau, omega=1e10,
                                             seed=5 ^ b), sched100))
                 for b in range(3)]
    for b in range(3):
        _assert_same_outcome(got[b], want[b])
        _assert_same_outcome(alone[b], want[b])
    assert str(got[1]) == "overflow encountered in multiply"
    assert not isinstance(got[0], Exception)
    assert not isinstance(got[2], Exception)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("stage, bad, error", [
    ("stage1", 2, "overflow encountered in square"),
    ("stage2", 3, "observed entries must be finite")])
def test_a_failure_after_the_network_costs_no_denoiser_call(
        toy_model, sched100, monkeypatch, stage, bad, error):
    # _loop_windows' 1e308 window fails stage 1 in sigma_bar and its NaN
    # window fails stage 2 in the update, both after the stacked
    # predict_noise returned. The replay steps each window on its row of
    # that prediction, so the stack makes as many denoiser calls as it
    # does without the failing window, and the others keep their bits.
    y0, mask = _loop_windows(5, 50)
    tau = make_subsequence(100, 4)
    calls = []

    def predict(params, x, n):
        calls.append(len(x))
        return predict_noise(params, x, n)

    monkeypatch.setattr(sampler, "predict_noise", predict)

    def run(rows):
        calls.clear()
        seeds = [3 ^ b for b in rows]
        if stage == "stage1":
            out = stage1_recover(toy_model, y0[rows], GuidanceConfig(tau=tau),
                                 sched100, seeds=seeds)
        else:
            out = stage2_impute(toy_model, y0[rows], mask[rows],
                                ImputeConfig(tau=tau), sched100, seeds=seeds)
        return dict(zip(rows, out)), len(calls)

    failing, failing_calls = run(sorted([0, 1, 4, bad]))
    clean, clean_calls = run([0, 1, 4])
    assert str(failing.pop(bad)) == error
    assert failing_calls == clean_calls
    for b in clean:
        _assert_same_outcome(failing[b], clean[b])


def test_a_replayed_window_takes_its_draws_again(toy_model, sched100):
    # The pass at i = 2 raises after every window drew; in the replay the
    # windows that pass alone must step with the draws they took.
    tau = make_subsequence(100, 3)

    def run(seeds):
        rngs = [np.random.default_rng(s) for s in seeds]

        def update(rows, x, eps, sigma_bar, i, r, draw):
            noise = draw()
            if i == 2 and any(seeds[b] == 13 for b in rows):
                raise ValueError("seed 13 fails at i = 2")
            return 0.5 * x + 0.1 * eps + noise

        return sampler.reverse_lockstep(toy_model, rngs, (4, 16), sched100,
                                        tau, update)

    stacked = run([11, 13, 17])
    assert str(stacked[1]) == "seed 13 fails at i = 2"
    for b, seed in enumerate([11, 13, 17]):
        _assert_same_outcome(stacked[b], run([seed])[0])
