"""Acceptance gates: ten criteria, one test (one pass/fail line) each.

Quantitative thresholds were pinned against the committed steady-data
fixture; scripts/quality.py prints every pinned figure beside the
held-out quality table. Seed-dependent checks state their pinned seeds
inline. Wall-clock budgets from the criteria are asserted where
specified.
"""

import hashlib
import json
import time
from pathlib import Path

import numpy as np
import pytest

from clirun import run_cli
from conftest import STEADY_DCFG, STEADY_TCFG, _cache_paths
from gradcheck import central_diff, rel_err

import tsdm.tensor as tc
from tsdm.dataio import save_matrix_csv
from tsdm.denoiser import DenoiserConfig, diffusion_loss, init_params
from tsdm.metrics import baseline_interpolate
from tsdm.pipeline import TsdmConfig, recover
from tsdm.sampler import (capital_gamma, detailed_step, estimate_x0,
                          forward_diffuse, improved_step, optimal_variance)
from tsdm.schedule import linear_schedule, make_subsequence
from tsdm.stage1 import GuidanceConfig
from tsdm.stage2 import ImputeConfig, stage2_impute
from tsdm.tensor import GradTape, Tensor
from tsdm.threatsim import AttackSpec, MaskSpec, inject_fdia, make_loss_mask, \
    synth_dataset
from tsdm.bench import bench_timing

TAU10 = make_subsequence(100, 10)

# The attacked fixture: 6 of the 32 held-out windows (about 20%) carry a
# two-channel full-span step at 3 per-channel training stds.
ATTACK_CHANNELS = [(0, 3), (1, 5), (2, 6), (4, 7), (0, 5), (2, 7)]
NM_SPEC = MaskSpec(kind="nonrandom_missing", target_ratio=0.3,
                   channels=(1, 4, 6), t_start=7, t_end=58)


def pipe_cfg(omega=1.0, R=2, seed=0):
    return TsdmConfig(
        guidance=GuidanceConfig(tau=TAU10, omega=omega, seed=seed),
        impute=ImputeConfig(tau=TAU10, R=R, seed=seed))


@pytest.fixture(scope="module")
def held(steady_fixture):
    """Held-out tail of the fixture's generative draw (windows 2000..2031)."""
    return synth_dataset(steady_fixture[3], 2032)[2000:]


@pytest.fixture(scope="module")
def attack_pool(steady_fixture, held):
    """Pooled recovery/detection numbers over the attacked fixture windows."""
    params, mean, std, _ = steady_fixture
    sq_corr = sq_tsdm = 0.0
    tp = fp = fn = 0
    for k, truth in enumerate(held[:6]):
        atk = AttackSpec(kind="step", channels=ATTACK_CHANNELS[k],
                         t_start=0, t_end=64, magnitude=3.0)
        y, gt = inject_fdia(truth, atk, std_ref=std)
        res = recover(params, y, None, pipe_cfg(seed=100 + k), mean, std)
        flags = (1.0 - res.outlier_mask).astype(bool)
        sq_corr += np.sum((y - truth) ** 2)
        sq_tsdm += np.sum((res.x_tilde - truth) ** 2)
        tp += int(np.sum(flags & gt))
        fp += int(np.sum(flags & ~gt))
        fn += int(np.sum(~flags & gt))
    return {"rmse_ratio": float(np.sqrt(sq_tsdm / sq_corr)),
            "precision": tp / (tp + fp),
            "recall": tp / (tp + fn)}


# --------------------------------------------------------------- criteria


def test_criterion_01_reverse_step_forms_agree():
    """Both reverse-update forms match on 1000 random draws (1e-10) and
    the x-coefficient identity holds on every adjacent pair (1e-12)."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    for _ in range(1000):
        N = int(rng.integers(10, 101))
        sched = linear_schedule(N, float(rng.uniform(1e-5, 1e-3)),
                                float(rng.uniform(0.01, 0.08)))
        tau = make_subsequence(N, int(rng.integers(2, N + 1)))
        i = int(rng.integers(2, tau.s + 1))
        x = rng.standard_normal((3, 8))
        eps_hat = 0.7 * rng.standard_normal((3, 8))
        draw = rng.standard_normal((3, 8))
        a = improved_step(x, eps_hat, i, sched, tau, draw)
        b = detailed_step(x, eps_hat, i, sched, tau, draw)
        assert np.max(np.abs(a - b)) < 1e-10
        for j in range(2, tau.s + 1):
            a_prev = sched.alpha_bar_at(int(tau.tau[j - 2]))
            a_cur = sched.alpha_bar_at(int(tau.tau[j - 1]))
            lhs = (np.sqrt(1 - a_prev) / np.sqrt(1 - a_cur)
                   + capital_gamma(j, sched, tau) / np.sqrt(a_cur))
            assert abs(lhs - np.sqrt(a_prev / a_cur)) < 1e-12
    assert time.perf_counter() - t0 < 5.0


def test_criterion_02_optimal_variance_oracle():
    """With the analytic unit-Gaussian predictor, the closed-form variance
    returns 1-alpha_bar_n within 3% over 1e5 draws (pinned seed 0; the
    deep-n band is sensitive to the draw of mean ||eps||^2)."""
    t0 = time.perf_counter()
    sched = linear_schedule(100)
    x = np.random.default_rng(0).standard_normal(100_000)
    for n in (1, 5, 10, 25, 50, 75, 90, 100):
        a = sched.alpha_bar_at(n)
        got = optimal_variance(np.sqrt(1.0 - a) * x, n, sched)
        assert abs(got - (1.0 - a)) <= 0.03 * (1.0 - a)
    assert time.perf_counter() - t0 < 10.0


def test_criterion_03_perfect_predictor_inversion():
    """Chaining reverse steps with the true forward noise and zero draw
    noise walks x_{tau_s} back to x0 (max-abs < 1e-8)."""
    t0 = time.perf_counter()
    sched = linear_schedule(100)
    rng = np.random.default_rng(3)
    x0 = rng.standard_normal((4, 16))
    eps = rng.standard_normal((4, 16))
    x = forward_diffuse(x0, int(TAU10.tau[-1]), eps, sched)
    for i in range(TAU10.s, 1, -1):
        x = improved_step(x, eps, i, sched, TAU10, np.zeros_like(x))
    rec = estimate_x0(x, eps, int(TAU10.tau[0]), sched)
    assert np.max(np.abs(rec - x0)) < 1e-8
    assert time.perf_counter() - t0 < 1.0


def _block_grads_match_fd(build, *arrays, tol):
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    with GradTape() as tape:
        loss = build(*leaves)
    tape.backward(loss)
    for pos in range(len(arrays)):
        def f(x, pos=pos):
            args = [Tensor(a) for a in arrays]
            args[pos] = Tensor(x)
            return float(build(*args).data)

        assert rel_err(leaves[pos].grad, central_diff(f, arrays[pos].copy())) \
            < tol, f"block {build.__name__} input {pos}"


def test_criterion_04_gradient_suite():
    """Every network building block passes central differences at 1e-4;
    full-network parameter gradients of the training loss pass at 1e-3."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(9)
    x38 = rng.standard_normal((3, 8))
    w433 = rng.standard_normal((4, 3, 3)) * 0.5
    b4 = rng.standard_normal(4) * 0.1
    mixer = Tensor(rng.standard_normal((4, 8)))  # group_norm output sums
    # to zero per group, so a fixed elementwise probe keeps grads nonzero

    def conv_block(x, w, b):
        return tc.sum_all(tc.conv1d(x, w, b))

    def conv_stride2(x, w, b):
        return tc.sum_all(tc.conv1d(x, w, b, stride=2))

    def norm_block(x, g, b):
        return tc.sum_all(tc.mul(tc.group_norm(x, g, b, groups=2), mixer))

    def silu_block(x, y):
        return tc.sum_all(tc.silu(tc.mul(x, y)))

    def sqrt_block(x):
        return tc.sum_all(tc.sqrt(x))

    def matmul_block(a, b):
        return tc.sum_all(tc.matmul(a, b))

    def linear_block(w, x):
        return tc.sum_all(tc.channel_linear(w, x))

    def attn_block(x, q, k, v):
        return tc.sum_all(tc.self_attention(x, q, k, v))

    def embed_block(x, v):
        return tc.sum_all(tc.silu(tc.add_time(x, v)))

    def resize_block(x, y):
        return tc.sum_all(tc.concat_channels(tc.upsample2(x), y))

    _block_grads_match_fd(conv_block, x38, w433, b4, tol=1e-4)
    _block_grads_match_fd(conv_stride2, x38, w433, b4, tol=1e-4)
    _block_grads_match_fd(norm_block, rng.standard_normal((4, 8)),
                          rng.standard_normal(4), rng.standard_normal(4),
                          tol=1e-4)
    _block_grads_match_fd(silu_block, x38, rng.standard_normal((3, 8)),
                          tol=1e-4)
    _block_grads_match_fd(sqrt_block, rng.random((3, 8)) + 0.5, tol=1e-4)
    _block_grads_match_fd(matmul_block, rng.standard_normal((3, 4)),
                          rng.standard_normal((4, 5)), tol=1e-4)
    _block_grads_match_fd(linear_block, rng.standard_normal((4, 3)), x38,
                          tol=1e-4)
    _block_grads_match_fd(attn_block, x38, rng.standard_normal((3, 3)),
                          rng.standard_normal((3, 3)),
                          rng.standard_normal((3, 3)), tol=1e-4)
    _block_grads_match_fd(embed_block, rng.standard_normal((2, 3, 8)),
                          rng.standard_normal((3, 2)), tol=1e-4)
    _block_grads_match_fd(resize_block, x38, rng.standard_normal((3, 16)),
                          tol=1e-4)

    cfg = DenoiserConfig(channels_in=2, base_width=4, depth=1,
                         time_embed_dim=4, kernel=3)
    params = init_params(cfg, seed=3)
    for _, t in params.items():  # lift the zero-initialized output head
        t.data = t.data + 0.05 * rng.standard_normal(t.data.shape)
    sched = linear_schedule(100)
    x0 = rng.standard_normal((2, 2, 8))
    eps = rng.standard_normal((2, 2, 8))
    n_vec = np.array([3, 47])
    with GradTape() as tape:
        loss = diffusion_loss(params, x0, n_vec, eps, sched)
    tape.backward(loss)
    for name, t in params.items():
        num = central_diff(
            lambda _arr: float(diffusion_loss(params, x0, n_vec, eps,
                                              sched).data), t.data)
        assert rel_err(t.grad, num) < 1e-3, f"parameter {name}"
    assert time.perf_counter() - t0 < 60.0


def test_criterion_05_end_to_end_recovery_quality(steady_fixture,
                                                  steady_train_meta, held,
                                                  attack_pool):
    """Fixture trains within 15 min; attacked-window recovery at most half
    the corrupted-input error; NM imputation at most 0.8x the linear
    baseline (pinned seeds 100+k / 200+k)."""
    assert steady_train_meta["train_seconds"] <= 900.0
    assert attack_pool["rmse_ratio"] <= 0.5
    params, mean, std, _ = steady_fixture
    mask = make_loss_mask(8, 64, NM_SPEC)
    sq_base = sq_tsdm = 0.0
    for k, truth in enumerate(held[:6]):
        base = baseline_interpolate(truth, mask)
        res = recover(params, truth, mask, pipe_cfg(R=8, seed=200 + k),
                      mean, std)
        sel = mask == 0.0
        sq_base += np.sum((base[sel] - truth[sel]) ** 2)
        sq_tsdm += np.sum((res.x_tilde[sel] - truth[sel]) ** 2)
    assert np.sqrt(sq_tsdm / sq_base) <= 0.8


def test_criterion_06_detection_quality(attack_pool):
    """3-sigma flags on the attacked fixture reach precision and recall
    of 0.7, pooled over its windows (pinned seeds 100+k)."""
    assert attack_pool["precision"] >= 0.7
    assert attack_pool["recall"] >= 0.7


def test_criterion_07_acceleration_scaling(steady_fixture, sched100):
    """Sampling wall time at s=10 is about a tenth of s=100 (N=100)."""
    t0 = time.perf_counter()
    params = steady_fixture[0]
    rows = bench_timing(params, [(8, 64)], [10], 3, sched100, seed=0)
    ratio = {row.s: row.ratio_vs_full for row in rows}[10]
    assert 0.07 <= ratio <= 0.13
    assert time.perf_counter() - t0 < 120.0


def test_criterion_08_imputation_provenance(toy_model, sched100):
    """On 100 random mask/window pairs: observed entries come back exactly
    sqrt(alpha_bar_tau1)-scaled, and the values stored at missing entries
    (NaN vs a huge finite payload) never influence the output."""
    t0 = time.perf_counter()
    a1 = sched100.alpha_bar_at(int(TAU10.tau[0]))
    rng = np.random.default_rng(11)
    for trial in range(100):
        y0 = rng.standard_normal((4, 16))
        mask = (rng.random((4, 16)) > 0.3).astype(np.float64)
        mask.flat[int(rng.integers(0, mask.size))] = 0.0
        if not mask.any():
            mask.flat[0] = 1.0
        cfg = ImputeConfig(tau=TAU10, R=1, seed=trial)
        y_nan = np.where(mask == 1.0, y0, np.nan)
        y_big = np.where(mask == 1.0, y0, 1e9)
        out_nan = stage2_impute(toy_model, y_nan, mask, cfg, sched100)
        out_big = stage2_impute(toy_model, y_big, mask, cfg, sched100)
        obs = mask == 1.0
        assert np.allclose(out_nan[obs], np.sqrt(a1) * y0[obs],
                           rtol=0.0, atol=1e-12)
        assert np.array_equal(out_nan, out_big)
    assert time.perf_counter() - t0 < 60.0


def test_criterion_09_cli_determinism(tmp_path):
    """Rerunning every CLI command with the same config and seed leaves
    every artifact byte-identical; only the wall-clock sidecars
    (timing.txt, bench_timing.csv) are exempt, by documented design."""
    t0 = time.perf_counter()
    (tmp_path / "tiny.cfg").write_text(
        "channels = 4\nwindow = 16\nbase_width = 8\ndepth = 2\n"
        "time_embed_dim = 8\nepochs = 2\nsynth_count = 8\nn_steps = 40\n"
        "subseq_len = 5\nattack_channels = 0,2\nattack_end = 16\n"
        "mask_channels = 1,3\nmask_start = 2\nmask_end = 14\n"
        "sweep_values = 0.1,0.3\nbench_repeats = 1\nseed = 7\n")
    chain = [
        ("synth",),
        ("train", "out/windows"),
        ("attack", "out/windows/00003.csv"),
        ("mask", "out/windows/00003.csv"),
        ("recover", "out/attacked.csv", "--truth", "out/windows/00003.csv",
         "--mask", "out/loss_mask.csv"),
        ("eval", "out/windows/00003.csv", "out/recovered.csv",
         "--loss-mask", "out/loss_mask.csv"),
        ("bench",),
        ("sweep", "out/windows/00004.csv"),
    ]

    def run_chain():
        for cmd in chain:
            r = run_cli("--config", "tiny.cfg", "--out", "out", *cmd,
                        cwd=tmp_path)
            assert r.returncode == 0, (cmd, r.stderr)
        return {str(p.relative_to(tmp_path)):
                hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted((tmp_path / "out").rglob("*"))
                if p.is_file()
                and p.name not in ("timing.txt", "bench_timing.csv")}

    first = run_chain()
    second = run_chain()
    assert first == second
    assert len(first) > 10
    assert time.perf_counter() - t0 < 120.0


def test_criterion_10_hyperparameter_surface(steady_fixture, held, sched100,
                                             tmp_path):
    """The sweep command reproduces the qualitative surfaces: recovery
    error at guidance weight 1.0 is no higher than at 0.1 or at 2.0
    (pinned seed 31; 0.5, also swept, is not compared), and two
    resampling passes beat one (seed 41)."""
    checkpoint = _cache_paths("steady", STEADY_DCFG, STEADY_TCFG,
                              sched100)[0].resolve()
    save_matrix_csv(tmp_path / "truth2.csv", held[2])
    save_matrix_csv(tmp_path / "truth3.csv", held[3])

    def sweep(truth_csv, axis, values, seed):
        cfg = tmp_path / f"{axis}.cfg"
        cfg.write_text(f"checkpoint = {checkpoint}\n"
                       "attack_channels = 2,6\n"
                       f"sweep_axis = {axis}\n"
                       f"sweep_values = {values}\n"
                       f"seed = {seed}\n")
        r = run_cli("--config", cfg.name, "--out", f"out-{axis}", "sweep",
                    truth_csv, cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        rows = (tmp_path / f"out-{axis}" / "sweep.csv").read_text()
        return {float(line.split(",")[1]): (float(line.split(",")[2]),
                                            float(line.split(",")[3]))
                for line in rows.splitlines()[1:]}

    omega = sweep("truth2.csv", "omega", "0.1,0.5,1.0,2.0,5.0", seed=31)
    assert omega[1.0][0] <= omega[0.1][0]
    assert omega[1.0][0] <= omega[2.0][0]

    repeats = sweep("truth3.csv", "repeats", "1,2,3", seed=41)
    assert repeats[2.0][1] <= repeats[1.0][1]
