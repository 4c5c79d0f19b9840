"""In-memory span tracer that wraps the public functions of each tsdm layer.

A span records (name, start, end, parent, window, work). `work` is a
number taken from the call's arguments where one is useful: the batch
size of a `predict_noise` call, the floating-point operations of a
`conv1d` call. Each `pipeline.recover` span opens a new window id and
every span below it inherits that id; spans with no recover above them
take the operation id the benchmark sets (one per training step).

`patch` replaces every attribute of the loaded `tsdm` modules that is
the original function object, so names imported with `from .x import f`
are wrapped too; `unpatch` puts the originals back. The tracer and the
reference kernel's probe (speed.py) both use it.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from collections import defaultdict


def _batch_items(args, kwargs):
    x = args[1] if len(args) > 1 else kwargs["x"]
    return 1 if getattr(x, "ndim", 2) == 2 else x.shape[0]


def _conv1d_flop(args, kwargs):
    x, w = args[0].data, args[1].data
    stride = args[3] if len(args) > 3 else kwargs.get("stride", 1)
    batch = 1 if x.ndim == 2 else x.shape[0]
    cout, cin, k = w.shape
    t_out = (x.shape[-1] - 1) // stride + 1
    return 2.0 * batch * cout * cin * k * t_out


# (span name, module, attribute, work function)
TARGETS = [
    ("checkpoint.load", "tsdm.checkpoint", "load_checkpoint", None),
    ("pipeline.recover_batch", "tsdm.pipeline", "recover_batch", None),
    ("pipeline.recover", "tsdm.pipeline", "recover", None),
    ("stage1.recover", "tsdm.stage1", "stage1_recover", None),
    ("stage1.detect", "tsdm.stage1", "detect_outliers", None),
    ("stage2.impute", "tsdm.stage2", "stage2_impute", None),
    ("sampler.improved_step", "tsdm.sampler", "improved_step", None),
    ("sampler.detailed_step", "tsdm.sampler", "detailed_step", None),
    ("denoiser.predict_noise", "tsdm.denoiser", "predict_noise",
     _batch_items),
    ("denoiser.diffusion_loss", "tsdm.denoiser", "diffusion_loss", None),
    ("denoiser.adam", "tsdm.denoiser", "Adam.step", None),
    ("tensor.conv1d", "tsdm.tensor", "conv1d", _conv1d_flop),
    ("tensor.group_norm", "tsdm.tensor", "group_norm", None),
    ("tensor.silu", "tsdm.tensor", "silu", None),
    ("tensor.self_attention", "tsdm.tensor", "self_attention", None),
    ("tensor.matmul", "tsdm.tensor", "matmul", None),
    ("tensor.backward", "tsdm.tensor", "GradTape.backward", None),
]

def patch(modname, attr, make_wrapper):
    """Replace a function of a tsdm module by `make_wrapper(function)`
    wherever a loaded tsdm module holds it; `attr` may name a method as
    `Class.method`. Returns the (owner, name, original) entries to undo."""
    module = importlib.import_module(modname)
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(module, cls_name)
        original = cls.__dict__[meth]
        setattr(cls, meth, make_wrapper(original))
        return [(cls, meth, original)]
    original = getattr(module, attr)
    wrapped = make_wrapper(original)
    entries = []
    for key, mod in list(sys.modules.items()):
        if key == "tsdm" or key.startswith("tsdm."):
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapped)
                    entries.append((mod, name, original))
    return entries


def unpatch(entries):
    for owner, name, original in reversed(entries):
        setattr(owner, name, original)


NEW_WINDOW = "pipeline.recover"
TENSOR_OPS = ("conv1d", "group_norm", "silu", "self_attention", "matmul")

# name, start, end, parent index, window, work
NAME, START, END, PARENT, WINDOW, WORK = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = 0  # set by the benchmark for spans outside any recover
        self._stack = []
        self._windows = 0
        self._patched = []  # (owner, attribute, original)

    def _wrap(self, name, fn, work):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if name == NEW_WINDOW:
                self._windows += 1
                window = self._windows
            else:
                window = spans[parent][WINDOW] if parent >= 0 else self.op
            idx = len(spans)
            amount = work(args, kwargs) if work else 0.0
            spans.append([name, clock(), 0.0, parent, window, amount])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][END] = clock()

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for name, modname, attr, work in TARGETS:
            self._patched += patch(
                modname, attr,
                lambda fn, name=name, work=work: self._wrap(name, fn, work))

    def uninstall(self):
        unpatch(self._patched)
        self._patched = []

    def dump(self, path):
        """Write the spans as gzip-compressed JSON lines, one per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": s[NAME],
                                    "start": s[START], "end": s[END],
                                    "parent": s[PARENT], "window": s[WINDOW],
                                    "work": s[WORK]}) + "\n")


def layer_totals(spans):
    """Per span name: calls, total seconds, self seconds and summed work."""
    total = defaultdict(float)
    child = defaultdict(float)
    calls = defaultdict(int)
    work = defaultdict(float)
    for s in spans:
        d = s[END] - s[START]
        total[s[NAME]] += d
        calls[s[NAME]] += 1
        work[s[NAME]] += s[WORK]
        if s[PARENT] >= 0:
            child[s[PARENT]] += d
    self_s = defaultdict(float)
    for i, s in enumerate(spans):
        self_s[s[NAME]] += (s[END] - s[START]) - child.get(i, 0.0)
    return {name: {"calls": calls[name], "total_s": total[name],
                   "self_s": self_s[name], "work": work[name]}
            for name in calls}


def layer_metrics(spans, ops, rounds):
    """Per-layer metrics of one traced measurement of `ops` operations.

    Times and call counts are per operation (one window or one training
    step); `pipeline.stage2_windows` is per round.
    """
    lt = layer_totals(spans)

    def get(name, key):
        return lt.get(name, {}).get(key, 0.0)

    def ms(name, key="total_s"):
        return 1e3 * get(name, key) / ops

    pn_calls = get("denoiser.predict_noise", "calls")
    pn_items = get("denoiser.predict_noise", "work")
    out = {
        "pipeline.recover_ms": ms("pipeline.recover"),
        "pipeline.self_ms": ms("pipeline.recover", "self_s")
        + ms("pipeline.recover_batch", "self_s"),
        "pipeline.stage2_windows": get("stage2.impute", "calls") / rounds,
        "stage1.recover_ms": ms("stage1.recover"),
        "stage1.self_ms": ms("stage1.recover", "self_s"),
        "stage1.detect_ms": ms("stage1.detect"),
        "stage2.impute_ms": ms("stage2.impute"),
        "stage2.self_ms": ms("stage2.impute", "self_s"),
        "sampler.step_ms": ms("sampler.improved_step")
        + ms("sampler.detailed_step"),
        "sampler.step_calls": (get("sampler.improved_step", "calls")
                               + get("sampler.detailed_step", "calls")) / ops,
        "denoiser.predict_noise_ms": ms("denoiser.predict_noise"),
        "denoiser.predict_noise_calls": pn_calls / ops,
        "denoiser.batch_items": pn_items / pn_calls if pn_calls else 0.0,
        "denoiser.ms_per_item": (1e3 * get("denoiser.predict_noise", "total_s")
                                 / pn_items if pn_items else 0.0),
        "denoiser.diffusion_loss_ms": ms("denoiser.diffusion_loss"),
        "denoiser.adam_ms": ms("denoiser.adam"),
    }
    for op in TENSOR_OPS:
        out[f"tensor.{op}_ms"] = ms(f"tensor.{op}")
        out[f"tensor.{op}_calls"] = get(f"tensor.{op}", "calls") / ops
    out["tensor.backward_ms"] = ms("tensor.backward")
    out["tensor.conv1d_gflop"] = get("tensor.conv1d", "work") / 1e9 / ops
    return out


def self_seconds(spans):
    """Summed self time of every span: the wall time the layers account for."""
    return sum(v["self_s"] for v in layer_totals(spans).values())
