"""Stacked predict_noise split across cores: same bits, same failures.

A stack of B rows is cut into B / SHARD_ROWS shards, halves rounded up
(two from 24 rows on), at most one per usable core; the caller runs the
first and a thread pool made for the call the others. These tests pin
that the split changes nothing a caller can see and that no shard thread
outlives its call.
"""

import copy
import multiprocessing
import sys
import threading
import time

import numpy as np
import pytest

import tsdm.denoiser as dn
from tsdm.pipeline import TsdmConfig, recover, recover_batch
from tsdm.schedule import make_subsequence
from tsdm.stage1 import GuidanceConfig
from tsdm.stage2 import ImputeConfig
from tsdm.tensor import GradTape

pytestmark = pytest.mark.skipif(
    dn._usable_cores() < 2,
    reason="one usable core: predict_noise never splits a stack")

TAU = make_subsequence(100, 10)


@pytest.fixture()
def shards(monkeypatch):
    """Record every shard a predict_noise call runs: (thread name, rows,
    errstate its layers run under, ended). Two usable cores, the count
    the shard counts below are written for, on any machine with two or
    more."""
    calls = []
    predict_rows, unet = dn._predict_rows, dn._unet
    current = threading.local()

    def spy(cfg, bound, x, time, err=None):
        entry = current.entry = {"thread": threading.current_thread().name,
                                 "rows": x.shape[0], "err": None,
                                 "ended": False}
        calls.append(entry)
        try:
            return predict_rows(cfg, bound, x, time, err)
        finally:
            entry["ended"] = True

    def layers(*args):
        current.entry["err"] = np.geterr()
        return unet(*args)

    monkeypatch.setattr(dn, "_predict_rows", spy)
    monkeypatch.setattr(dn, "_unet", layers)
    monkeypatch.setattr(dn, "_usable_cores", lambda: 2)
    return calls


def _unsharded(monkeypatch, fn):
    with monkeypatch.context() as m:
        m.setattr(dn, "_usable_cores", lambda: 1)
        return fn()


@pytest.mark.parametrize("B", [32, 33, 47])
@pytest.mark.parametrize("model", ["toy", "steady"])
def test_sharded_predict_is_bit_identical_to_single(
        toy_model, steady_fixture, shards, model, B):
    params = toy_model if model == "toy" else steady_fixture[0]
    M, T = (4, 16) if model == "toy" else (8, 64)
    rng = np.random.default_rng(B)
    xb = rng.standard_normal((B, M, T))
    stacked = dn.predict_noise(params, xb, 37)
    assert len(shards) == 2
    assert sum(c["rows"] for c in shards) == B
    assert {c["thread"] for c in shards} != {"MainThread"}
    for b in range(B):
        alone = dn.predict_noise(params, xb[b], 37)
        assert stacked[b].tobytes() == alone.tobytes()


@pytest.mark.parametrize("B, split", [(31, 2), (24, 2), (23, 1)])
def test_shard_count_rounds_rows_per_shard_half_up(toy_model, shards,
                                                   monkeypatch, B, split):
    # a 32-row stack that loses a window keeps its two shards
    xb = np.random.default_rng(B).standard_normal((B, 4, 16))
    stacked = dn.predict_noise(toy_model, xb, 37)
    assert len(shards) == split and sum(c["rows"] for c in shards) == B
    unsplit = _unsharded(monkeypatch,
                         lambda: dn.predict_noise(toy_model, xb, 37))
    assert stacked.tobytes() == unsplit.tobytes()


def test_sharded_recover_batch_is_bitwise_one_window_recovery(toy_model,
                                                              shards):
    cfg = TsdmConfig(guidance=GuidanceConfig(tau=TAU, seed=5),
                     impute=ImputeConfig(tau=TAU, R=2, seed=5))
    windows = [np.random.default_rng(60 + k).standard_normal((4, 16))
               for k in range(40)]
    for w in windows[:32]:  # 32 windows take stage 2, so it shards too
        w[2, 4:12] = np.nan
    batch = recover_batch(toy_model, windows, cfg)
    assert any(c["thread"] != "MainThread" and c["rows"] >= 16
               for c in shards)
    for k, (window, res) in enumerate(zip(windows, batch)):
        seed = 5 ^ k
        alone = recover(toy_model, window, None, TsdmConfig(
            guidance=GuidanceConfig(tau=TAU, seed=seed),
            impute=ImputeConfig(tau=TAU, R=2, seed=seed)))
        assert res.x_tilde.tobytes() == alone.x_tilde.tobytes()
        assert res.outlier_mask.tobytes() == alone.outlier_mask.tobytes()
        assert res.stage_taken == alone.stage_taken


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("bad_row", [0, 40])
def test_failing_shard_raises_after_every_shard_returns(
        toy_model, shards, monkeypatch, bad_row):
    xb = np.random.default_rng(3).standard_normal((48, 4, 16))
    xb[bad_row] = 1e300
    predict_rows = dn._predict_rows

    def slow_workers(*args):
        if threading.current_thread().name != "MainThread":
            time.sleep(0.2)  # the caller's shard fails long before this
        return predict_rows(*args)

    monkeypatch.setattr(dn, "_predict_rows", slow_workers)
    with pytest.raises(Exception) as sharded:
        dn.predict_noise(toy_model, xb, 50)
    assert len(shards) == 2 and all(c["ended"] for c in shards)
    with pytest.raises(Exception) as alone:
        _unsharded(monkeypatch, lambda: dn.predict_noise(toy_model, xb, 50))
    assert type(sharded.value) is type(alone.value) is FloatingPointError
    assert str(sharded.value) == str(alone.value)


def test_workers_run_under_the_callers_errstate(toy_model, shards,
                                                monkeypatch):
    xb = np.random.default_rng(4).standard_normal((32, 4, 16))
    xb[-1] = 1e300  # in the worker's shard
    with np.errstate(over="raise", under="ignore", invalid="warn",
                     divide="ignore"):
        caller = np.geterr()
        with pytest.raises(FloatingPointError) as sharded:
            dn.predict_noise(toy_model, xb, 50)
        with pytest.raises(FloatingPointError) as alone:
            _unsharded(monkeypatch,
                       lambda: dn.predict_noise(toy_model, xb, 50))
    assert len(shards) == 3 and all(c["err"] == caller for c in shards)
    assert "overflow" in str(alone.value)
    assert str(sharded.value) == str(alone.value)


def test_a_grad_tape_shards_and_records_only_a_cold_steps_projection(
        toy_model, shards):
    xb = np.random.default_rng(5).standard_normal((64, 4, 16))
    want = dn.predict_noise(toy_model, xb, 50).tobytes()
    model = copy.deepcopy(toy_model)
    model._step_memo = None
    with GradTape() as tape:
        cold = dn.predict_noise(model, xb, 50)
        recorded = len(tape._nodes)
        warm = dn.predict_noise(model, xb, 50)
        assert len(tape._nodes) == recorded  # a warm step records nothing
    # a cold step's projection is 25 Tensor ops: the embedding MLP's 5
    # and 2 for each of the 10 residual blocks; the layers record none
    assert recorded == 25
    assert cold.tobytes() == warm.tobytes() == want
    assert [c["rows"] for c in shards] == [32, 32] * 3
    assert {c["thread"] for c in shards[2:]} != {"MainThread"}


def _shard_threads():
    return [t.name for t in threading.enumerate()
            if t.name.startswith("tsdm-shard")]


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_no_shard_thread_outlives_its_call(toy_model, shards):
    xb = np.random.default_rng(8).standard_normal((32, 4, 16))
    dn.predict_noise(toy_model, xb, 50)
    assert _shard_threads() == []
    xb[-1] = 1e300  # in the worker's shard
    with pytest.raises(FloatingPointError):
        dn.predict_noise(toy_model, xb, 50)
    assert _shard_threads() == []
    assert len(shards) == 4
    assert sum(c["thread"].startswith("tsdm-shard") for c in shards) == 2


def test_concurrent_callers_get_their_own_bits(toy_model):
    stacks = [np.random.default_rng(70 + k).standard_normal((32, 4, 16))
              for k in range(6)]
    want = [[dn.predict_noise(toy_model, xb[b], 50).tobytes()
             for b in range(32)] for xb in stacks]
    got = [None] * len(stacks)

    def call(k):
        got[k] = [row.tobytes()
                  for row in dn.predict_noise(toy_model, stacks[k], 50)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=call, args=(k,))
                   for k in range(len(stacks))]
        for t in callers:
            t.start()
        for t in callers:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert got == want


def _predict_in_child(params, xb, conn):
    conn.send(dn.predict_noise(params, xb, 50).tobytes())


def test_forked_child_makes_sharded_calls(toy_model):
    xb = np.random.default_rng(6).standard_normal((32, 4, 16))
    want = dn.predict_noise(toy_model, xb, 50)
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_predict_in_child, args=(toy_model, xb, send))
    child.start()
    try:
        assert recv.poll(60), "sharded call in a forked child never returned"
        assert recv.recv() == want.tobytes()
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()
            child.join()
    assert child.exitcode == 0
