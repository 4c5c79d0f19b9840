"""Recovery benchmark: run one workload against the steady fixture.

    python3 perfbench/run.py --workload recover-attack --seed 1 \
        --seconds 20 --trace 0

Run from a checkout of the repository: the program is imported from
`src/` and the checkpoint read from `tests/.cache/`. The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`. With `--trace 0` the metrics are the end-to-end
ones; with `--trace 1` every call runs untraced and then traced, and the
metrics are the per-layer ones. Spans are written to
`perfbench/out/`. Exit code 2 means the checkout lacks the program or
its fixture.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import checks
import spans
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_ms": "ms",
}
PER_LAYER_UNITS = {
    "quality.rmse_ratio": "ratio",
    "checkpoint.load_ms": "ms",
    "pipeline.recover_ms": "ms",
    "pipeline.self_ms": "ms",
    "pipeline.stage2_windows": "count",
    "stage1.recover_ms": "ms",
    "stage1.self_ms": "ms",
    "stage1.detect_ms": "ms",
    "stage1.flag_precision": "ratio",
    "stage1.flag_recall": "ratio",
    "stage2.impute_ms": "ms",
    "stage2.self_ms": "ms",
    "sampler.step_ms": "ms",
    "sampler.step_calls": "count",
    "denoiser.predict_noise_ms": "ms",
    "denoiser.predict_noise_calls": "count",
    "denoiser.batch_items": "count",
    "denoiser.ms_per_item": "ms",
    "denoiser.diffusion_loss_ms": "ms",
    "denoiser.adam_ms": "ms",
    **{f"tensor.{op}_{kind}": unit
       for op in ("conv1d", "group_norm", "silu", "self_attention", "matmul")
       for kind, unit in (("ms", "ms"), ("calls", "count"))},
    "tensor.backward_ms": "ms",
    "tensor.conv1d_gflop": "GFLOP",
    "trace.overhead_pct": "%",
    "trace.attributed_pct": "%",
    "machine.ref_ms": "ms",
}


def blas_threads():
    """OpenBLAS's thread count as NumPy's bundled library reports it."""
    import ctypes
    import numpy as np

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so")):
        fn = getattr(ctypes.CDLL(str(lib)),
                     "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return fn()
    return None


def measure(wl, seconds, tracer=None):
    """Run whole rounds: the first, then as many more as fit in `seconds`.

    Times are per operation, in ms at the reference speed: each round's
    raw times, less the reference kernel's own time, are scaled by that
    kernel timed between and inside the round's calls (speed.py). With a
    tracer, every call runs twice in a row, untraced and then traced, so
    that machine drift cancels out of the tracing overhead. Returns the
    untraced and traced times, the failures, the rounds and the kernel
    samples.
    """
    times, traced, failed, done, samples = [], [], 0, 0, []
    t0 = time.perf_counter()
    while True:
        plain_out, traced_out, raw, raw_traced = [], [], [], []
        sp = speed.Speed()
        for op in wl.ops():
            sp.sample()
            sp.install()
            inside, start = sp.inside_s, time.perf_counter()
            plain_out.append(op())
            took = time.perf_counter() - start - (sp.inside_s - inside)
            sp.uninstall()
            raw += [took / wl.items_per_call] * wl.items_per_call
            if tracer is not None:
                tracer.op = len(traced) + len(raw_traced)
                tracer.install()
                start = time.perf_counter()
                traced_out.append(op())
                took = time.perf_counter() - start
                tracer.uninstall()
                raw_traced += [took / wl.items_per_call] * wl.items_per_call
        sp.sample()
        scale = sp.scale()
        times += [1e3 * t * scale for t in raw]
        traced += [1e3 * t * scale for t in raw_traced]
        samples += sp.samples
        failed += wl.record(plain_out)
        if tracer is not None:
            failed += wl.record(traced_out)
        done += 1
        wall = time.perf_counter() - t0
        if wall * (done + 1) / done > seconds:
            return times, traced, failed, done, samples


def run(workload, seed, seconds, traced, size):
    import workloads

    make = workloads.WORKLOADS[workload]
    setup_tracer = spans.Tracer() if traced else None
    setups, sp = [], speed.Speed()
    for _ in range(SETUP_REPEATS):
        sp.sample()
        if setup_tracer:
            setup_tracer.install()
        t0 = time.perf_counter()
        fx = workloads.Fixture(ROOT, size)
        wl = make(fx, seed, size)
        setups.append(time.perf_counter() - t0)
        if setup_tracer:
            setup_tracer.uninstall()
    sp.sample()
    setup_scale = sp.scale()

    tracer = spans.Tracer() if traced else None
    times, t_times, failed, rounds, samples = measure(wl, seconds, tracer)
    attempted = len(times) + len(t_times)
    ref_ms = statistics.median(samples)
    print(f"rounds: {rounds}, operations: {attempted}; reference kernel "
          f"{ref_ms:.3f} ms, so raw times are {ref_ms / speed.REF_MS:.4f} "
          "times those reported")
    try:
        wl.check()
        correct = True
    except checks.CheckFailed as e:
        print(f"check failed: {e}", file=sys.stderr)
        correct = False

    if not traced:
        values = {
            "setup_s": statistics.median(setups) * setup_scale,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "op_ms": statistics.median(times),
        }
        units = END_TO_END
    else:
        values = spans.layer_metrics(tracer.spans, len(t_times), rounds)
        scale = speed.REF_MS / ref_ms
        for k in values:
            if PER_LAYER_UNITS[k] == "ms":
                values[k] *= scale
        values["checkpoint.load_ms"] = 1e3 * setup_scale * spans.layer_totals(
            setup_tracer.spans)["checkpoint.load"]["total_s"] / SETUP_REPEATS
        values["quality.rmse_ratio"] = wl.rmse_ratio()
        precision, recall = wl.flag_scores()
        values["stage1.flag_precision"] = precision
        values["stage1.flag_recall"] = recall
        untraced = sum(times)
        values["trace.overhead_pct"] = 100.0 * (sum(t_times) / untraced - 1)
        attributed_ms = 1e3 * scale * spans.self_seconds(tracer.spans)
        values["trace.attributed_pct"] = 100.0 * attributed_ms / untraced
        values["machine.ref_ms"] = ref_ms
        out = HERE / "out" / f"trace-{workload}-seed{seed}.jsonl.gz"
        tracer.dump(out)
        print(f"spans: {len(tracer.spans)} written to "
              f"{out.relative_to(ROOT)}")
        units = PER_LAYER_UNITS
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": values[k], "unit": u}
                        for k, u in units.items()}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["recover-clean", "recover-attack",
                             "impute-batch", "train-steps"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest inputs, for the benchmark's own tests")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "tsdm" / "__init__.py").is_file():
        print(f"error: no tsdm package under {src}", file=sys.stderr)
        return 2
    if not any(ROOT.glob("tests/.cache/steady-*.tsdm")):
        print("error: no steady fixture under tests/.cache/", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(src), str(HERE)]
    import workloads

    print(f"machine: nproc={os.cpu_count()} python={platform.python_version()}"
          f" blas_threads={blas_threads()}")
    size = workloads.TINY if args.tiny else workloads.FULL
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 size)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
