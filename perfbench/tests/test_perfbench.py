"""Tests of the benchmark itself, at its tiny size.

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

import checks
import run
import workloads
from tsdm import denoiser
from tsdm.pipeline import WindowFailure
from tsdm.tensor import GradTape

SPEC_PATH = run.ROOT / "BENCHMARK.json"


@pytest.fixture(scope="module")
def spec():
    return json.loads(SPEC_PATH.read_text())


@pytest.fixture(scope="module")
def fx():
    return workloads.Fixture(run.ROOT, workloads.TINY)


def run_tiny(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=300, cwd=run.ROOT)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_declared_metrics_match_benchmark_json(spec):
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert ({m["name"]: m["unit"] for m in spec["per_layer"]}
            == run.PER_LAYER_UNITS)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run_prints_every_declared_metric(spec, workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        out = run_tiny(workload, trace)
        assert set(out) == {"correct", "attempted", "failed", "metrics"}
        assert out["correct"] is True
        assert out["failed"] == 0 and out["attempted"] >= 1
        assert ({k: v["unit"] for k, v in out["metrics"].items()}
                == {m["name"]: m["unit"] for m in spec[key]})
        assert all(np.isfinite(v["value"]) for v in out["metrics"].values())


def test_bare_benchmark_directory_exits_nonzero(tmp_path):
    """Beside BENCHMARK.json alone, without the program and its fixture,
    the run fails and prints no result."""
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "BENCHMARK.json").write_text(SPEC_PATH.read_text())
    for f in run.HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "recover-clean",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


# -------------------------------------------------------------- checks


def one_round(wl):
    wl.record([op() for op in wl.ops()])
    return wl.rounds[0]


def recovered(fx, attacked):
    wl = workloads.RecoverLoop(fx, 5, workloads.TINY, attacked=attacked)
    return wl, one_round(wl)


def test_attacked_check_rejects_the_corrupted_input(fx):
    wl, res = recovered(fx, attacked=True)
    masks = [r.outlier_mask for r in res]
    outputs = [r.x_tilde for r in res]
    checks.check_attacked(wl.truths, wl.inputs, outputs, masks)
    with pytest.raises(checks.CheckFailed, match="corrupted"):
        checks.check_attacked(wl.truths, wl.inputs, wl.inputs, masks)
    nothing = [np.ones_like(m) for m in masks]
    with pytest.raises(checks.CheckFailed, match="no entry flagged"):
        checks.check_attacked(wl.truths, wl.inputs, outputs, nothing)
    # trusts the injected entries and flags exactly the clean ones
    inverted = [(y != t).astype(float) for y, t in zip(wl.inputs, wl.truths)]
    with pytest.raises(checks.CheckFailed, match="chance"):
        checks.check_attacked(wl.truths, wl.inputs, outputs, inverted)


def test_clean_check_rejects_bad_outputs(fx):
    wl, res = recovered(fx, attacked=False)
    outputs = [r.x_tilde for r in res]
    checks.check_clean(wl.truths, outputs)
    means = [np.broadcast_to(t.mean(axis=1, keepdims=True), t.shape)
             for t in wl.truths]
    with pytest.raises(checks.CheckFailed, match="channel-mean"):
        checks.check_clean(wl.truths, means)
    nan = [o.copy() for o in outputs]
    nan[0][3, 5] = np.nan
    with pytest.raises(checks.CheckFailed, match="non-finite"):
        checks.check_clean(wl.truths, nan)
    with pytest.raises(checks.CheckFailed, match="shape"):
        checks.check_clean(wl.truths, [o[:, :-1] for o in outputs])


def test_impute_check_rejects_bad_batches(fx):
    wl = workloads.ImputeBatch(fx, 5, workloads.TINY)
    res = one_round(wl)

    def check(results):
        checks.check_imputed(wl.truths, wl.inputs, results, fx.mean, fx.std,
                             wl.a1, WindowFailure)

    check(res)
    with pytest.raises(checks.CheckFailed, match="results for"):
        check(res[:-1])
    with pytest.raises(checks.CheckFailed, match="observed entries"):
        check(res[::-1])
    moved = res[0].x_tilde.copy()
    moved[0, 0] += 1e-6
    with pytest.raises(checks.CheckFailed, match="observed entries"):
        check([dataclasses.replace(res[0], x_tilde=moved)] + res[1:])
    with pytest.raises(checks.CheckFailed, match="bad output"):
        check([dataclasses.replace(res[0], x_tilde=wl.inputs[0])] + res[1:])
    with pytest.raises(checks.CheckFailed, match="linear interpolation"):
        check([dataclasses.replace(r, x_tilde=np.where(
            np.isnan(y), checks.linear_interpolate(y), r.x_tilde))
            for r, y in zip(res, wl.inputs)])
    failure = WindowFailure(index=1, error="boom")
    with pytest.raises(checks.CheckFailed, match="position 0"):
        check([failure, res[0]])


def test_gradient_check_rejects_one_perturbed_entry(fx):
    params = fx.params  # trained, so gradients reach every layer
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal((2, 8, 64))
    n_vec = np.array([3, 70])
    eps = rng.standard_normal(x0.shape)

    def loss_at():
        return float(denoiser.diffusion_loss(params, x0, n_vec, eps,
                                             fx.sched).data)

    with GradTape() as tape:
        by_id = tape.backward(denoiser.diffusion_loss(params, x0, n_vec, eps,
                                                      fx.sched))
    grads = {k: by_id[id(t)] for k, t in params.items()}
    arrays = {k: t.data for k, t in params.items()}
    entries = [("stem.w", 5), ("mid.attn.wq", 17), ("head.conv.b", 2)]
    checks.check_gradients(loss_at, arrays, grads, entries)
    bad = {k: g.copy() for k, g in grads.items()}
    bad["mid.attn.wq"].reshape(-1)[17] *= 1.01
    with pytest.raises(checks.CheckFailed, match="mid.attn.wq"):
        checks.check_gradients(loss_at, arrays, bad, entries)


def test_loss_check_rejects_a_rising_loss():
    checks.check_loss_falls([1.0, 0.9, 0.8, 0.7])
    with pytest.raises(checks.CheckFailed, match="did not fall"):
        checks.check_loss_falls([0.7, 0.8, 0.9, 1.0])
