"""Benchmark table structure and scaling sanity on the toy net."""

import copy
import time

import numpy as np
import pytest

import tsdm.bench as bench
import tsdm.denoiser as dn
from tsdm.bench import BenchRow, bench_timing, rows_to_csv
from tsdm.sampler import unconditional_sample
from tsdm.schedule import make_subsequence


def test_full_length_reference_ratio_is_one(toy_model, sched100):
    rows = bench_timing(toy_model, [(4, 16)], [100], repeats=1,
                        sched=sched100)
    assert len(rows) == 1
    assert rows[0].s == 100
    assert rows[0].ratio_vs_full == 1.0


def test_rows_cover_requested_grid(toy_model, sched100):
    rows = bench_timing(toy_model, [(4, 16)], [5, 20], repeats=1,
                        sched=sched100)
    assert [(r.s, r.ratio_vs_full == 1.0) for r in rows] == [
        (100, True), (5, False), (20, False)]
    assert all(r.channels == 4 and r.T == 16 for r in rows)
    assert all(r.mean_ms > 0 for r in rows)


def test_shorter_subsequence_is_cheaper(toy_model, sched100):
    rows = bench_timing(toy_model, [(4, 16)], [10], repeats=2,
                        sched=sched100)
    by_s = {r.s: r for r in rows}
    assert by_s[10].mean_ms < by_s[100].mean_ms
    assert by_s[10].ratio_vs_full < 0.5


def test_window_growth_increases_cost(toy_model, sched100):
    rows = bench_timing(toy_model, [(4, 16), (4, 128)], [10], repeats=2,
                        sched=sched100)
    small = next(r for r in rows if r.T == 16 and r.s == 10)
    big = next(r for r in rows if r.T == 128 and r.s == 10)
    assert big.mean_ms > small.mean_ms


def test_timed_runs_project_no_step(toy_model, sched100, monkeypatch):
    # the warm-up visits every step, so no timed run projects a step that
    # the step memo does not hold yet
    model = copy.deepcopy(toy_model)
    model._step_memo = None
    embed, time_sampling = dn._embed, bench._time_sampling
    timing, projected = [], []

    def counting_embed(p, levels):
        if timing:
            projected.extend(levels)
        return embed(p, levels)

    def timed(*args):
        timing.append(True)
        try:
            return time_sampling(*args)
        finally:
            timing.pop()

    monkeypatch.setattr(dn, "_embed", counting_embed)
    monkeypatch.setattr(bench, "_time_sampling", timed)
    bench_timing(model, [(4, 16)], [10], repeats=1, sched=sched100)
    assert projected == []


def test_doubling_window_roughly_doubles_cost(toy_model, sched100):
    # Arithmetic dominates per-op dispatch overhead only once the window
    # is large, so the linear-conv scaling band is measured there. Best of
    # three after a warmup, since a single timing is hostage to one
    # scheduler hiccup.
    tau = make_subsequence(100, 10)

    def best_ms(T):
        best = np.inf
        for k in range(3):
            rng = np.random.default_rng(k)
            t0 = time.perf_counter()
            unconditional_sample(toy_model, (4, T), sched100, tau, rng)
            best = min(best, time.perf_counter() - t0)
        return best * 1e3

    best_ms(1024)  # warmup
    assert 1.5 <= best_ms(2048) / best_ms(1024) <= 2.7


def test_csv_rendering_shape():
    rows = [BenchRow(4, 16, 100, 12.5, 0.5, 1.0),
            BenchRow(4, 16, 10, 1.3, 0.1, 0.104)]
    text = rows_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "channels,T,s,mean_ms,std_ms,ratio_vs_full"
    assert len(lines) == 3
    assert lines[1].startswith("4,16,100,")


def test_validation_errors(toy_model, sched100):
    with pytest.raises(ValueError):
        bench_timing(toy_model, [(4, 16)], [10], repeats=0, sched=sched100)
    with pytest.raises(ValueError):
        bench_timing(toy_model, [(4, 16)], [0], repeats=1, sched=sched100)
    with pytest.raises(ValueError):
        BenchRow(4, 16, 10, -1.0, 0.0, 0.1)
