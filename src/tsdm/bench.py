"""Wall-time benchmarks for subsequence-accelerated sampling.

Times unconditional reverse-process sampling per (shape, s) and reports
each configuration's cost relative to the full-length s=N chain, which
is always timed as the reference row with ratio 1 by construction.
Timing values are measurements and vary run to run; the row structure
(shape and s columns) is deterministic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .denoiser import DenoiserParams
from .sampler import unconditional_sample
from .schedule import VarianceSchedule, make_subsequence


@dataclass(frozen=True)
class BenchRow:
    channels: int
    T: int
    s: int
    mean_ms: float
    std_ms: float
    ratio_vs_full: float

    def __post_init__(self):
        if self.mean_ms < 0 or self.std_ms < 0 or self.ratio_vs_full < 0:
            raise ValueError("timings must be nonnegative")


def _time_sampling(params: DenoiserParams, shape, sched: VarianceSchedule,
                   s: int, repeats: int, seed: int):
    tau = make_subsequence(sched.N, s)
    samples_ms = []
    for r in range(repeats):
        rng = np.random.default_rng(seed + r)
        t0 = time.perf_counter()
        unconditional_sample(params, shape, sched, tau, rng)
        samples_ms.append((time.perf_counter() - t0) * 1e3)
    return float(np.mean(samples_ms)), float(np.std(samples_ms))


def bench_timing(params: DenoiserParams, shapes, s_values, repeats: int,
                 sched: VarianceSchedule, seed: int = 0):
    """Measure sampling wall time over shapes x subsequence lengths.

    Returns a list of BenchRow. For every shape the full-length s=N
    reference is timed first and carries ratio_vs_full exactly 1.0;
    other s values report mean time relative to that reference. An
    untimed warm-up pass over all N steps comes first, so no timed run
    projects a step the model's step memo lacks.
    """
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    shapes = [(int(m), int(t)) for m, t in shapes]
    s_list = [int(s) for s in s_values]
    if any(not 1 <= s <= sched.N for s in s_list):
        raise ValueError(f"s values must lie in 1..{sched.N}")
    rows = []
    for shape in shapes:
        warm = np.random.default_rng(seed)
        unconditional_sample(params, shape, sched,
                             make_subsequence(sched.N, sched.N), warm)
        full_mean, full_std = _time_sampling(params, shape, sched, sched.N,
                                             repeats, seed)
        rows.append(BenchRow(shape[0], shape[1], sched.N, full_mean,
                             full_std, 1.0))
        for s in s_list:
            if s == sched.N:
                continue
            mean_ms, std_ms = _time_sampling(params, shape, sched, s,
                                             repeats, seed)
            rows.append(BenchRow(shape[0], shape[1], s, mean_ms, std_ms,
                                 mean_ms / full_mean))
    return rows


def rows_to_csv(rows) -> str:
    """Render BenchRows as CSV with a fixed header."""
    lines = ["channels,T,s,mean_ms,std_ms,ratio_vs_full"]
    for r in rows:
        lines.append(f"{r.channels},{r.T},{r.s},{r.mean_ms:.6g},"
                     f"{r.std_ms:.6g},{r.ratio_vs_full:.6g}")
    return "\n".join(lines) + "\n"
