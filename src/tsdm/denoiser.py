"""Noise-prediction U-Net and its trainer.

Architecture: conv stem, `depth` encoder stages of two residual blocks
each followed by a stride-2 conv, a bottleneck of residual block +
self-attention + residual block, then mirrored decoder stages with
nearest-neighbor upsampling and skip concatenation. The diffusion step
index enters every residual block through a learned projection of a
sinusoidal embedding. The output conv is zero-initialized so an
untrained network predicts zero noise.

Channel widths double per stage but are capped at 2x base_width.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from . import tensor as tc
from .schedule import VarianceSchedule
from .tensor import GradTape, Tensor


@dataclass(frozen=True)
class DenoiserConfig:
    channels_in: int
    base_width: int = 16
    depth: int = 2
    time_embed_dim: int = 16
    kernel: int = 3

    def __post_init__(self):
        if self.channels_in < 1:
            raise ValueError("channels_in must be positive")
        if self.base_width < 1:
            raise ValueError("base_width must be positive")
        if self.depth < 1:
            raise ValueError("depth must be at least 1")
        if self.time_embed_dim % 2 or self.time_embed_dim < 2:
            raise ValueError("time_embed_dim must be even and positive")
        if self.kernel % 2 == 0 or self.kernel < 1:
            raise ValueError("kernel must be odd")

    def validate_window(self, T: int) -> None:
        if T % (2**self.depth):
            raise ValueError(f"T={T} not divisible by 2^depth={2**self.depth}")

    def stage_widths(self) -> list:
        return [min(self.base_width * 2**j, 2 * self.base_width)
                for j in range(self.depth + 1)]


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int
    learning_rate: float = 1e-3
    seed: int = 0
    grad_clip: float = 1.0
    shuffle: bool = True

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if self.learning_rate <= 0 or self.grad_clip <= 0:
            raise ValueError("learning_rate and grad_clip must be positive")


class DenoiserParams:
    """Ordered named tensor collection; every tensor tracks gradients."""

    def __init__(self, config: DenoiserConfig, tensors: dict):
        self.config = config
        self.tensors = dict(tensors)
        for name, t in self.tensors.items():
            if not np.all(np.isfinite(t.data)):
                raise ValueError(f"parameter {name} contains non-finite values")

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def items(self):
        return self.tensors.items()


def time_embed(n: int, dim: int) -> np.ndarray:
    """Sinusoidal step embedding: interleaved (sin, cos) pairs over
    geometrically spaced frequencies from 1 down to 1/10000."""
    if dim % 2 or dim < 2:
        raise ValueError("embedding dim must be even and positive")
    if n < 0:
        raise ValueError("step index must be nonnegative")
    half = dim // 2
    freqs = np.exp(-math.log(10000.0) * np.arange(half) / max(half - 1, 1))
    ang = n * freqs
    out = np.empty(dim)
    out[0::2] = np.sin(ang)
    out[1::2] = np.cos(ang)
    return out


def _norm_groups(channels: int) -> int:
    g = min(8, channels)
    while channels % g:
        g -= 1
    return g


def _param_specs(cfg: DenoiserConfig) -> list:
    """(name, shape, init) of every parameter, in creation order.

    `init(rng)` makes the initial values; only weights draw from rng, so
    calling the inits in this order fixes the draws of init_params.
    """
    specs = []

    def conv(name, cout, cin, k, zero=False):
        scale = 0.0 if zero else 1.0 / math.sqrt(cin * k)
        shape = (cout, cin, k)
        specs.append((f"{name}.w", shape,
                      lambda rng: rng.normal(0.0, 1.0, shape) * scale))
        specs.append((f"{name}.b", (cout,), lambda rng: np.zeros(cout)))

    def weight(name, cout, cin):
        shape = (cout, cin)
        specs.append((name, shape,
                      lambda rng: rng.normal(0.0, 1.0, shape) / math.sqrt(cin)))

    def dense(name, cout, cin):
        weight(f"{name}.w", cout, cin)
        specs.append((f"{name}.b", (cout,), lambda rng: np.zeros(cout)))

    def norm(name, c):
        specs.append((f"{name}.g", (c,), lambda rng: np.ones(c)))
        specs.append((f"{name}.b", (c,), lambda rng: np.zeros(c)))

    def resblock(name, cin, cout):
        norm(f"{name}.gn1", cin)
        conv(f"{name}.conv1", cout, cin, cfg.kernel)
        dense(f"{name}.temb", cout, cfg.time_embed_dim)
        norm(f"{name}.gn2", cout)
        conv(f"{name}.conv2", cout, cout, cfg.kernel)
        if cin != cout:
            conv(f"{name}.skip", cout, cin, 1)

    ted = cfg.time_embed_dim
    dense("temb.fc1", ted, ted)
    dense("temb.fc2", ted, ted)
    widths = cfg.stage_widths()
    conv("stem", widths[0], cfg.channels_in, cfg.kernel)
    for j in range(cfg.depth):
        resblock(f"enc{j}.rb0", widths[j], widths[j])
        resblock(f"enc{j}.rb1", widths[j], widths[j])
        conv(f"down{j}", widths[j + 1], widths[j], cfg.kernel)
    wm = widths[cfg.depth]
    resblock("mid.rb0", wm, wm)
    for p in ("wq", "wk", "wv"):
        weight(f"mid.attn.{p}", wm, wm)
    resblock("mid.rb1", wm, wm)
    for j in reversed(range(cfg.depth)):
        conv(f"up{j}", widths[j], widths[j + 1], cfg.kernel)
        resblock(f"dec{j}.rb0", 2 * widths[j], widths[j])
        resblock(f"dec{j}.rb1", widths[j], widths[j])
    norm("head.gn", widths[0])
    conv("head.conv", cfg.channels_in, widths[0], cfg.kernel, zero=True)
    return specs


def param_layout(cfg: DenoiserConfig) -> dict:
    """Name -> shape of every tensor init_params(cfg) makes, in its order,
    without drawing any weights."""
    return {name: shape for name, shape, _ in _param_specs(cfg)}


def init_params(cfg: DenoiserConfig, seed: int = 0) -> DenoiserParams:
    rng = np.random.default_rng(seed)
    return DenoiserParams(cfg, {name: Tensor(init(rng), requires_grad=True)
                                for name, _, init in _param_specs(cfg)})


def _resblock(p: DenoiserParams, name: str, x: Tensor, emb: Tensor,
              column, cin: int, cout: int) -> Tensor:
    h = tc.group_norm(x, p[f"{name}.gn1.g"], p[f"{name}.gn1.b"], _norm_groups(cin))
    h = tc.silu(h)
    h = tc.conv1d(h, p[f"{name}.conv1.w"], p[f"{name}.conv1.b"])
    tv = tc.add_bias(tc.matmul(p[f"{name}.temb.w"], emb), p[f"{name}.temb.b"])
    h = tc.add_time(h, tv, column)
    h = tc.group_norm(h, p[f"{name}.gn2.g"], p[f"{name}.gn2.b"], _norm_groups(cout))
    h = tc.silu(h)
    h = tc.conv1d(h, p[f"{name}.conv2.w"], p[f"{name}.conv2.b"])
    if cin != cout:
        x = tc.conv1d(x, p[f"{name}.skip.w"], p[f"{name}.skip.b"])
    return tc.add(h, x)


def _forward(p: DenoiserParams, x: Tensor, levels: np.ndarray,
             column=None) -> Tensor:
    """Noise prediction for the (B, M, T) stack x.

    The step embedding is projected once per entry of `levels`, and
    sample b takes level `column[b]` (default: level b). A projection
    over several columns runs as a matrix product whose bits can differ
    from the one-column product, so predict_noise projects each distinct
    step once: a window then gets the same bits in a stack as alone.
    """
    cfg = p.config
    se = np.stack([time_embed(int(n), cfg.time_embed_dim) for n in levels],
                  axis=1)
    emb = tc.add_bias(tc.matmul(p["temb.fc1.w"], Tensor(se)), p["temb.fc1.b"])
    emb = tc.silu(emb)
    emb = tc.add_bias(tc.matmul(p["temb.fc2.w"], emb), p["temb.fc2.b"])

    widths = cfg.stage_widths()
    h = tc.conv1d(x, p["stem.w"], p["stem.b"])
    skips = []
    for j in range(cfg.depth):
        h = _resblock(p, f"enc{j}.rb0", h, emb, column, widths[j], widths[j])
        h = _resblock(p, f"enc{j}.rb1", h, emb, column, widths[j], widths[j])
        skips.append(h)
        h = tc.conv1d(h, p[f"down{j}.w"], p[f"down{j}.b"], stride=2)
    wm = widths[cfg.depth]
    h = _resblock(p, "mid.rb0", h, emb, column, wm, wm)
    h = tc.add(h, tc.self_attention(h, p["mid.attn.wq"], p["mid.attn.wk"],
                                    p["mid.attn.wv"]))
    h = _resblock(p, "mid.rb1", h, emb, column, wm, wm)
    for j in reversed(range(cfg.depth)):
        h = tc.upsample2(h)
        h = tc.conv1d(h, p[f"up{j}.w"], p[f"up{j}.b"])
        h = tc.concat_channels(h, skips[j])
        h = _resblock(p, f"dec{j}.rb0", h, emb, column, 2 * widths[j], widths[j])
        h = _resblock(p, f"dec{j}.rb1", h, emb, column, widths[j], widths[j])
    h = tc.group_norm(h, p["head.gn.g"], p["head.gn.b"], _norm_groups(widths[0]))
    h = tc.silu(h)
    return tc.conv1d(h, p["head.conv.w"], p["head.conv.b"])


# Rows a shard of a stacked predict_noise call needs before the stack is
# split across cores. Measured break-even on the steady fixture, two-way
# split against one call: 2.67x the time at 2 rows a shard, 1.61x at 8,
# 1.06x at 16, 0.68x at 32; below about 16 rows a shard the GIL
# serialises numpy's per-op overhead and the threads only take turns.
SHARD_ROWS = 16

_pool = None  # ThreadPoolExecutor running every shard but the caller's
_pool_lock = threading.Lock()


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _shard_pool(workers: int) -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=workers,
                                       thread_name_prefix="tsdm-shard")
        return _pool


def _forget_pool() -> None:
    # A forked child has none of its parent's worker threads: work queued
    # on the inherited pool would never run, so the child builds its own.
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


def _predict_rows(params: DenoiserParams, x: np.ndarray, n_vec: np.ndarray,
                  err=None) -> np.ndarray:
    """_forward over the rows x, projecting each distinct step once, under
    the np.errstate `err` (a worker thread does not inherit the caller's)."""
    levels, column = np.unique(n_vec, return_inverse=True)
    with np.errstate(**(err or {})):
        return _forward(params, Tensor(x), levels, column).data


def predict_noise(params: DenoiserParams, x: np.ndarray, n) -> np.ndarray:
    """Predicted noise for x at step n; accepts (M,T) or a (B,M,T) batch.

    Off a gradient tape, a stack of at least 2 * SHARD_ROWS rows is cut
    into contiguous shards, one per usable core (at most one per
    SHARD_ROWS rows): the calling thread runs the first shard and a
    shared thread pool the others. A row gets the same bits in any stack
    or shard as alone, so the result does not depend on the split. Every
    shard has returned before this returns or raises; a failing shard
    raises its exception, the first in row order.
    """
    x = np.asarray(x, dtype=np.float64)
    squeeze = x.ndim == 2
    xb = x[None] if squeeze else x
    cfg = params.config
    if xb.ndim != 3 or xb.shape[1] != cfg.channels_in:
        raise ValueError(f"input shape {x.shape} does not match "
                         f"channels_in={cfg.channels_in}")
    cfg.validate_window(xb.shape[2])
    B = xb.shape[0]
    n_vec = np.full(B, int(n)) if np.ndim(n) == 0 else np.asarray(n)
    if n_vec.shape != (B,):
        raise ValueError("step index must be scalar or one per batch item")
    shards = 1 if tc.taping() else min(B // SHARD_ROWS, _usable_cores())
    if shards < 2:
        out = _predict_rows(params, xb, n_vec)
        return out[0] if squeeze else out
    cut = [B * s // shards for s in range(shards + 1)]
    pool = _shard_pool(_usable_cores() - 1)
    err = np.geterr()
    rest = [pool.submit(_predict_rows, params, xb[lo:hi], n_vec[lo:hi], err)
            for lo, hi in zip(cut[1:-1], cut[2:])]
    try:
        first = _predict_rows(params, xb[:cut[1]], n_vec[:cut[1]])
    finally:
        wait(rest)
    return np.concatenate([first] + [f.result() for f in rest])


def diffusion_loss(params: DenoiserParams, x0: np.ndarray, n_vec: np.ndarray,
                   eps: np.ndarray, sched: VarianceSchedule) -> Tensor:
    """Noise-prediction MSE on x_n = sqrt(a_n) x0 + sqrt(1-a_n) eps."""
    a = np.array([sched.alpha_bar_at(int(n)) for n in n_vec])[:, None, None]
    x_n = np.sqrt(a) * x0 + np.sqrt(1.0 - a) * eps
    pred = _forward(params, Tensor(x_n), n_vec)
    diff = tc.sub(pred, Tensor(eps))
    return tc.mean_all(tc.mul(diff, diff))


class Adam:
    """Adam with global-norm gradient clipping; state keyed by param name."""

    def __init__(self, params: DenoiserParams, lr: float, grad_clip: float = 1.0):
        self.params = params
        self.lr = lr
        self.grad_clip = grad_clip
        self.beta1, self.beta2, self.eps = 0.9, 0.999, 1e-8
        self.t = 0
        self.m = {k: np.zeros_like(t.data) for k, t in params.items()}
        self.v = {k: np.zeros_like(t.data) for k, t in params.items()}

    def step(self, grads: dict) -> None:
        gs = {k: grads.get(id(t), None) for k, t in self.params.items()}
        total = math.sqrt(sum(float(np.sum(g * g)) for g in gs.values()
                              if g is not None))
        factor = self.grad_clip / total if total > self.grad_clip else 1.0
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        for k, t in self.params.items():
            g = gs[k]
            if g is None:
                continue
            g = g * factor
            self.m[k] = self.beta1 * self.m[k] + (1 - self.beta1) * g
            self.v[k] = self.beta2 * self.v[k] + (1 - self.beta2) * g * g
            t.data -= self.lr * (self.m[k] / c1) / (np.sqrt(self.v[k] / c2) + self.eps)


def training_step(params: DenoiserParams, batch: np.ndarray,
                  sched: VarianceSchedule, rng: np.random.Generator,
                  opt: Adam) -> float:
    """One objective draw + Adam update; returns the step's MSE loss."""
    batch = np.asarray(batch, dtype=np.float64)
    B = batch.shape[0]
    n_vec = rng.integers(1, sched.N + 1, size=B)
    eps = rng.standard_normal(batch.shape)
    try:
        with GradTape() as tape:
            loss = diffusion_loss(params, batch, n_vec, eps, sched)
            grads = tape.backward(loss)
    except FloatingPointError as e:
        raise RuntimeError(f"non-finite loss at optimizer step {opt.t + 1}: {e}") from e
    opt.step(grads)
    return float(loss.data)


def train(dataset, dcfg: DenoiserConfig, tcfg: TrainConfig,
          sched: VarianceSchedule | None = None):
    """Full training loop over normalized windows; returns (params, loss curve)."""
    data = np.asarray(dataset, dtype=np.float64)
    if data.ndim != 3 or data.shape[0] == 0:
        raise ValueError("dataset must be a nonempty stack of (M, T) windows")
    if data.shape[1] != dcfg.channels_in:
        raise ValueError("dataset channel count does not match config")
    dcfg.validate_window(data.shape[2])
    if sched is None:
        sched = _default_schedule()
    rng = np.random.default_rng(tcfg.seed)
    params = init_params(dcfg, seed=tcfg.seed)
    opt = Adam(params, tcfg.learning_rate, tcfg.grad_clip)
    W = data.shape[0]
    curve = []
    for epoch in range(tcfg.epochs):
        # cosine decay to zero; final epochs measure the converged fit
        opt.lr = tcfg.learning_rate * 0.5 * (1 + math.cos(math.pi * epoch / tcfg.epochs))
        order = rng.permutation(W) if tcfg.shuffle else np.arange(W)
        losses = []
        for lo in range(0, W, tcfg.batch_size):
            batch = data[order[lo : lo + tcfg.batch_size]]
            loss = training_step(params, batch, sched, rng, opt)
            if loss > 1e3:
                raise RuntimeError(f"training diverged: loss {loss:.3g} "
                                   f"at step {opt.t}")
            losses.append(loss)
        curve.append(float(np.mean(losses)))
    return params, curve


def _default_schedule() -> VarianceSchedule:
    from .schedule import linear_schedule

    return linear_schedule(100)
