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

import functools
import math
import operator
import os
from concurrent.futures import ThreadPoolExecutor
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
        if T < 1:
            raise ValueError(f"T={T}: a window needs at least one time step")
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
        self._step_memo = None  # (key, memo); see _step_projections
        self._binding = None  # see _bound

    def __getstate__(self):
        # a copy's tensors hold new arrays, which the binding's views do
        # not read, so a copy (deepcopy, pickle) binds its own
        return {**self.__dict__, "_binding": None}

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


def _param_specs(cfg: DenoiserConfig) -> tuple:
    """(specs, layers) of the network.

    specs lists (name, shape, init) of every parameter, in creation
    order. `init(rng)` makes the initial values; only weights draw from
    rng, so calling the inits in this order fixes the draws of
    init_params. layers maps each kind of layer to its layers by name,
    each as the names of its tensors and its fixed arguments: a conv as
    (weight, bias, stride), a norm as (gamma, beta, groups), attention as
    its (query, key, value) projections and a residual block as (norm 1,
    conv 1, norm 2, conv 2, skip conv or None).
    """
    specs = []
    layers = {"conv": {}, "norm": {}, "attn": {}, "block": {}}

    def conv(name, cout, cin, k, zero=False, stride=1):
        scale = 0.0 if zero else 1.0 / math.sqrt(cin * k)
        shape = (cout, cin, k)
        specs.append((f"{name}.w", shape,
                      lambda rng: rng.normal(0.0, 1.0, shape) * scale))
        specs.append((f"{name}.b", (cout,), lambda rng: np.zeros(cout)))
        layers["conv"][name] = (f"{name}.w", f"{name}.b", stride)

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
        layers["norm"][name] = (f"{name}.g", f"{name}.b", _norm_groups(c))

    def resblock(name, cin, cout):
        norm(f"{name}.gn1", cin)
        conv(f"{name}.conv1", cout, cin, cfg.kernel)
        dense(f"{name}.temb", cout, cfg.time_embed_dim)
        norm(f"{name}.gn2", cout)
        conv(f"{name}.conv2", cout, cout, cfg.kernel)
        skip = None
        if cin != cout:
            skip = f"{name}.skip"
            conv(skip, cout, cin, 1)
        layers["block"][name] = (f"{name}.gn1", f"{name}.conv1",
                                 f"{name}.gn2", f"{name}.conv2", skip)

    ted = cfg.time_embed_dim
    dense("temb.fc1", ted, ted)
    dense("temb.fc2", ted, ted)
    widths = cfg.stage_widths()
    conv("stem", widths[0], cfg.channels_in, cfg.kernel)
    for j in range(cfg.depth):
        resblock(f"enc{j}.rb0", widths[j], widths[j])
        resblock(f"enc{j}.rb1", widths[j], widths[j])
        conv(f"down{j}", widths[j + 1], widths[j], cfg.kernel, stride=2)
    wm = widths[cfg.depth]
    resblock("mid.rb0", wm, wm)
    for p in ("wq", "wk", "wv"):
        weight(f"mid.attn.{p}", wm, wm)
    layers["attn"]["mid.attn"] = ("mid.attn.wq", "mid.attn.wk", "mid.attn.wv")
    resblock("mid.rb1", wm, wm)
    for j in reversed(range(cfg.depth)):
        conv(f"up{j}", widths[j], widths[j + 1], cfg.kernel)
        resblock(f"dec{j}.rb0", 2 * widths[j], widths[j])
        resblock(f"dec{j}.rb1", widths[j], widths[j])
    norm("head.gn", widths[0])
    conv("head.conv", cfg.channels_in, widths[0], cfg.kernel, zero=True)
    return specs, layers


@functools.lru_cache(maxsize=None)
def _layers(cfg: DenoiserConfig) -> dict:
    return _param_specs(cfg)[1]


def param_layout(cfg: DenoiserConfig) -> dict:
    """Name -> shape of every tensor init_params(cfg) makes, in its order,
    without drawing any weights."""
    return {name: shape for name, shape, _ in _param_specs(cfg)[0]}


def init_params(cfg: DenoiserConfig, seed: int = 0) -> DenoiserParams:
    rng = np.random.default_rng(seed)
    return DenoiserParams(cfg, {name: Tensor(init(rng), requires_grad=True)
                                for name, _, init in _param_specs(cfg)[0]})


class _TensorOps:
    """The layers of _unet as Tensor ops over `tensors` (name -> Tensor),
    looked up by name on every call: what a gradient tape records when
    the tensors require gradients."""

    def __init__(self, cfg: DenoiserConfig, tensors: dict):
        self.p = tensors
        layers = _layers(cfg)
        self.convs, self.norms = layers["conv"], layers["norm"]
        self.attns, self.blocks = layers["attn"], layers["block"]

    def conv(self, h, name):
        w, b, stride = self.convs[name]
        return tc.conv1d(h, self.p[w], self.p[b], stride=stride)

    def norm_silu_conv(self, h, norm, conv):
        g, b, groups = self.norms[norm]
        w, bias, _ = self.convs[conv]
        p = self.p
        return tc.conv1d(tc.silu(tc.group_norm(h, p[g], p[b], groups)),
                         p[w], p[bias])

    def attention(self, h, name):
        return tc.self_attention(h, *(self.p[n] for n in self.attns[name]))

    add = staticmethod(tc.add)
    add_time = staticmethod(tc.add_time)
    upsample2 = staticmethod(tc.upsample2)
    concat = staticmethod(tc.concat_channels)


@functools.lru_cache(maxsize=None)
def _bound_names(cfg: DenoiserConfig) -> tuple:
    """The tensors a binding reads: all but the step tensors, which the
    step memo covers."""
    step = _step_tensor_names(cfg)
    return tuple(k for k in param_layout(cfg) if k not in step)


class _Bound:
    """The layers of _unet as tc's array kernels over views of a
    model's arrays, each layer's fixed per-call work done once: a conv's
    (Cout, Cin*K) weight and (Cout, 1) bias views, K, padding and stride;
    a norm's group count and (C, 1) gamma and beta views; attention's
    projections; a block's layer names. Each row of a stack gets the bits
    _TensorOps gives that row alone. The layers run kernels only: just
    attention checks its results, and _predict_rows the end result; a
    failing shard replays its rows through the Tensor ops.

    `arrays` are the arrays of _bound_names(cfg), each of which must have
    its layout's shape (else a ValueError naming it); the kernels then
    need no shape check but the kernel width against the input length.
    `views` is whether every weight matrix is a view: a reshape of a
    non-contiguous array copies, and a copy misses in-place edits.
    """

    def __init__(self, cfg: DenoiserConfig, arrays: list):
        self.names, self.arrays = _bound_names(cfg), arrays
        layout = param_layout(cfg)
        a = dict(zip(self.names, arrays))
        for name, arr in a.items():
            if arr.shape != layout[name]:
                raise ValueError(f"parameter {name} has shape {arr.shape}, "
                                 f"the config's layout has {layout[name]}")
        layers = _layers(cfg)
        self.convs = {}
        for name, (w, b, stride) in layers["conv"].items():
            cout, cin, k = layout[w]
            self.convs[name] = (a[w].reshape(cout, cin * k), a[b][:, None], k,
                                (k - 1) // 2, stride)
        self.views = all(np.may_share_memory(self.convs[name][0], a[w])
                         for name, (w, _, _) in layers["conv"].items())
        self.norms = {name: (groups, a[g][:, None], a[b][:, None])
                      for name, (g, b, groups) in layers["norm"].items()}
        self.attns = {name: tuple(a[n] for n in ns)
                      for name, ns in layers["attn"].items()}
        self.blocks = layers["block"]

    def conv(self, h, name):
        return tc.conv1d_unchecked(h, *self.convs[name])

    def norm_silu_conv(self, h, norm, conv):
        w2, b2, k, pad, _ = self.convs[conv]
        h = tc.group_norm_unchecked(h, *self.norms[norm])
        return tc.silu_conv_unchecked(h, w2, b2, k, pad)

    def attention(self, h, name):
        return tc.self_attention_kernel(h, *self.attns[name])

    add = staticmethod(tc.add_unchecked)
    add_time = staticmethod(tc.add_time_unchecked)
    upsample2 = staticmethod(tc.upsample2_kernel)
    concat = staticmethod(tc.concat_channels_kernel)


_data = operator.attrgetter("data")


def _bound(p: DenoiserParams) -> _Bound:
    """p's binding, rebuilt when any bound tensor's array is not the one
    it bound (`is`, and the binding keeps the arrays, so an id cannot be
    reused). In-place edits are seen through its views. predict_noise
    calls it in the calling thread, never in a shard."""
    held = p._binding
    names = _bound_names(p.config)
    arrays = list(map(_data, map(p.tensors.__getitem__, names)))
    if (held is None or held.names is not names
            or not all(map(operator.is_, arrays, held.arrays))):
        held = _Bound(p.config, arrays)
        if held.views:
            p._binding = held
    return held


def _resblock(ops, name: str, x, time: dict):
    norm1, conv1, norm2, conv2, skip = ops.blocks[name]
    h = ops.norm_silu_conv(x, norm1, conv1)
    h = ops.add_time(h, time[name])
    h = ops.norm_silu_conv(h, norm2, conv2)
    if skip is not None:
        x = ops.conv(x, skip)
    return ops.add(h, x)


def _unet(depth: int, ops, h, time: dict):
    """The U-Net's layer order, written once, over `ops`: the Tensor ops
    (_TensorOps), which a gradient tape records, or a model's binding
    (_Bound). `time` maps each residual block to its time projection,
    (C, B) with one column per sample or (C, 1) for every sample."""
    h = ops.conv(h, "stem")
    skips = []
    for j in range(depth):
        h = _resblock(ops, f"enc{j}.rb0", h, time)
        h = _resblock(ops, f"enc{j}.rb1", h, time)
        skips.append(h)
        h = ops.conv(h, f"down{j}")
    h = _resblock(ops, "mid.rb0", h, time)
    h = ops.add(h, ops.attention(h, "mid.attn"))
    h = _resblock(ops, "mid.rb1", h, time)
    for j in reversed(range(depth)):
        h = ops.conv(ops.upsample2(h), f"up{j}")
        h = ops.concat(h, skips[j])
        h = _resblock(ops, f"dec{j}.rb0", h, time)
        h = _resblock(ops, f"dec{j}.rb1", h, time)
    return ops.norm_silu_conv(h, "head.gn", "head.conv")


@functools.lru_cache(maxsize=None)
def _step_tensor_names(cfg: DenoiserConfig) -> tuple:
    """The tensors a step's time projections are computed from: the
    embedding MLP's and every residual block's `temb.*`."""
    return tuple(k for k in param_layout(cfg)
                 if k.startswith("temb.") or ".temb." in k)


def _step_projections(p: DenoiserParams, n: int) -> dict:
    """Step n's time projections, {block name: (C, 1) projection}, from
    p's memo (step index -> projections); a step the memo lacks is
    projected alone (_embed) and stored, unless that raises.

    The memo is valid for the exact bytes of the tensors it is computed
    from, so one comparison per call empties it after any edit of them,
    in place or not (-0.0 for 0.0 included), and nothing has to empty it
    by hand.
    """
    key = b"".join([p[k].data.tobytes() for k in _step_tensor_names(p.config)])
    held = p._step_memo
    if held is None or held[0] != key:
        held = p._step_memo = (key, {})
    if n not in held[1]:
        held[1][n] = {name: tv.data for name, tv in _embed(p, [n]).items()}
    return held[1][n]


def _embed(p: DenoiserParams, levels) -> dict:
    """Each residual block's time projection of the steps `levels`, as
    Tensor ops: block name -> (C, len(levels)) projection."""
    se = np.stack([time_embed(int(n), p.config.time_embed_dim) for n in levels],
                  axis=1)
    emb = tc.add_bias(tc.matmul(p["temb.fc1.w"], Tensor(se)), p["temb.fc1.b"])
    emb = tc.silu(emb)
    emb = tc.add_bias(tc.matmul(p["temb.fc2.w"], emb), p["temb.fc2.b"])
    return {name: tc.add_bias(tc.matmul(p[f"{name}.temb.w"], emb),
                              p[f"{name}.temb.b"])
            for name in _layers(p.config)["block"]}


def _forward(p: DenoiserParams, x: Tensor, levels: np.ndarray) -> Tensor:
    """diffusion_loss's noise prediction for the (B, M, T) stack x, sample
    b at step levels[b]: the Tensor ops, all B steps projected together
    (_embed). They record on a gradient tape and give the same bits off
    one, so off-tape diffusion_loss is the function the tape
    differentiates."""
    return _unet(p.config.depth, _TensorOps(p.config, p.tensors), x,
                 _embed(p, levels))


# Rows per shard of a stacked predict_noise call: a stack of B rows runs
# in B / SHARD_ROWS shards, halves rounded up, so it splits from 24 rows.
# Two-way split against one call (steady fixture, 2 cores, four runs):
# 1.40-2.10x the time at 2 rows a shard, 0.90-1.04x at 8, 0.60-1.05x at
# 16, 0.52-0.68x at 32. A whole stage 2 (R 2, s 10), unsplit -> split,
# read medians 239 -> 263 ms on 17 rows (8.5 a shard), 437 -> 327 on 24
# and 511 -> 399 on 31: with few rows a shard the GIL serialises numpy's
# per-op overhead.
SHARD_ROWS = 16


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _predict_rows(cfg: DenoiserConfig, bound: _Bound, x: np.ndarray,
                  time: dict, err=None) -> np.ndarray:
    """_unet over the rows x on a binding, under the np.errstate `err` (a
    worker thread does not inherit the caller's), with one finite check
    of the result.

    One check suffices because every layer but attention carries a NaN or
    an infinity in any of its results on to the rows' output (0 * inf,
    inf - inf and -inf * 0 are NaN; a stride-2 conv's skipped positions
    reach the output through the skip concat); attention checks its own.
    A non-finite result, or any exception, replays the rows one at a
    time through the Tensor ops, over Tensors that wrap the binding's
    arrays and the step's projections and so never record: the first
    failing row raises what _forward raises for it alone, and a replay
    that does not raise returns the Tensor ops' rows.
    """
    with np.errstate(**(err or {})):
        try:
            out = _unet(cfg.depth, bound, x, time)
            if np.isfinite(out).all():
                return out
        except Exception:  # noqa: BLE001 - the replay raises it, or an earlier one
            pass
        ops = _TensorOps(cfg, dict(zip(bound.names, map(Tensor, bound.arrays))))
        time = {name: Tensor(v) for name, v in time.items()}
        return np.concatenate([_unet(cfg.depth, ops, Tensor(x[b : b + 1]),
                                     time).data for b in range(len(x))])


def _step_index(n) -> int:
    """predict_noise's step n as an int, or a ValueError: one finite
    integer for every row (3.0 runs as step 3; 3.7 and arrays do not)."""
    if np.ndim(n):
        raise ValueError("step index must be one integer for every row")
    if isinstance(n, (int, np.integer)):
        return int(n)
    if not float(n).is_integer():
        raise ValueError(f"step index must be an integer, got {float(n)}")
    return int(float(n))


def predict_noise(params: DenoiserParams, x: np.ndarray, n) -> np.ndarray:
    """Predicted noise for x at step n; accepts (M,T) or a (B,M,T) batch.

    n is one step for every row, as in a reverse step; anything but one
    finite integer is a ValueError before any work. In the calling
    thread, the model's binding is fetched (_bound) and step n's time
    projections are read from its memo (_step_projections): the first
    call at a step projects it, and an edit of the embedding or
    projection weights is seen on the next call. The layers then run on
    the binding and never record, on a tape or off; each row gets the
    bits _forward gives it alone. A tensor whose shape is not its
    config's is a ValueError that names it, and so is an empty stack.

    Each shard checks its result finite once, and a failing shard
    replays its rows through the Tensor ops (_predict_rows): a NaN or an
    infinity raises the FloatingPointError of the first failing row's
    first layer whose result holds one, as _forward raises it.

    A stack of B rows is cut into B / SHARD_ROWS contiguous shards,
    halves rounded up, at most one per usable core, so it splits from
    1.5 * SHARD_ROWS rows on: the calling thread runs the first shard
    and a thread pool made for this call the others, one thread each, so
    the result does not depend on the split. The pool is shut down, every shard returned and its
    thread joined, before this returns or raises; a failing shard raises
    its exception, the first in row order.
    """
    x = np.asarray(x, dtype=np.float64)
    squeeze = x.ndim == 2
    xb = x[None] if squeeze else x
    cfg = params.config
    if xb.ndim != 3 or xb.shape[1] != cfg.channels_in:
        raise ValueError(f"input shape {x.shape} does not match "
                         f"channels_in={cfg.channels_in}")
    if not len(xb):
        raise ValueError(f"input shape {x.shape} is an empty stack: "
                         "no window to predict")
    cfg.validate_window(xb.shape[2])
    n = _step_index(n)
    bound = _bound(params)
    time = _step_projections(params, n)
    B = xb.shape[0]
    shards = min((2 * B + SHARD_ROWS) // (2 * SHARD_ROWS), _usable_cores())
    if shards < 2:
        out = _predict_rows(cfg, bound, xb, time)
        return out[0] if squeeze else out
    cut = [B * s // shards for s in range(shards + 1)]
    err = np.geterr()
    with ThreadPoolExecutor(shards - 1, thread_name_prefix="tsdm-shard") as pool:
        rest = [pool.submit(_predict_rows, cfg, bound, xb[lo:hi],
                            time, err) for lo, hi in zip(cut[1:-1], cut[2:])]
        first = _predict_rows(cfg, bound, xb[:cut[1]], time)
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
            # m = beta1 m + (1 - beta1) g and v = beta2 v + (1 - beta2) g g,
            # in place and in that order
            m, v = self.m[k], self.v[k]
            m *= self.beta1
            m += (1 - self.beta1) * g
            v *= self.beta2
            d = (1 - self.beta2) * g
            d *= g
            v += d
            # lr (m / c1) / (sqrt(v / c2) + eps)
            np.divide(m, c1, out=d)
            d *= self.lr
            den = v / c2
            np.sqrt(den, out=den)
            den += self.eps
            d /= den
            t.data -= d


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
