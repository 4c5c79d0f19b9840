"""Dense float64 tensors with minimal reverse-mode automatic differentiation.

The ops are what the denoising network needs (elementwise arithmetic,
matmul, 1-D convolution, group normalization, single-head self-attention
and a few structural helpers), plus sqrt and sum_all, which serve only
acceptance criterion 4's gradient suite. Ops are pure functions over
immutable values, and each has one formula, the one a gradient tape
differentiates: it gives the same bits inside a GradTape as outside any.
When a GradTape is active and an input requires gradients, the op
appends a record to the tape. A record holds keys, not Tensors, and a
backward closure that captures only the arrays its formula reads
(conv1d's, its zero-bordered input, from which backward rebuilds the
im2col columns), so an intermediate no formula reads is freed once its
caller drops it: one B = 32 diffusion_loss and backward on the steady
fixture's architecture peaks at 39.5 MB under tracemalloc.
GradTape.backward replays the records in reverse creation order, which
is a valid topological order because every input of a node was created
before the node itself, and drops each once replayed.

The denoiser's bound model runs array kernels instead: `kernels` holds
one under the name of each Tensor op the U-Net calls (norm_silu_conv is
group_norm, silu and conv1d in a row). A kernel takes and returns numpy
arrays and never records. add, add_time, upsample2 and concat_channels
share their arithmetic with their Tensor op, and self_attention its
arithmetic, _attend (softmax is no op of its own). The conv1d,
norm_silu_conv and self_attention kernels cut numpy calls: one product
per sample, so a sample gets the same bits in a batch as alone; a result
written into the buffer the next op reads (silu into conv1d's
zero-bordered input, attention's scale and softmax into the score
array); affine steps in place. A kernel takes each parameter in the
layout its arithmetic reads (a conv weight as its (Cout, Cin*K) matrix,
from which it works out K and the padding, a bias or a norm's affine as
a (C, 1) column) and checks no shape but the kernel width against the
input length. A kernel runs in its inputs' dtype: the denoiser binds
float32 parameters, so its kernels run in float32, and conv1d's
zero-bordered input takes the weights' dtype, which casts the float64
rows the stem conv is given.

No op or kernel checks finiteness, and backward only each leaf's
gradient: a NaN or an infinity is carried on to the result, which its
caller checks once (denoiser.predict_noise, training). Attention's
softmax gives a -inf score beside a finite maximum weight 0, its IEEE
limit, but the U-Net adds attention's result to its input, so a
non-finite input reaches the output through that residual.
"""

from __future__ import annotations

import itertools
import math
from types import SimpleNamespace

import numpy as np

GN_EPS = 1e-5


class Tensor:
    """Immutable-by-convention float64 array with an autodiff flag.

    `key` is the serial number a gradient tape gives the Tensor the first
    time it records it, as an op's output or as a leaf; None before.
    """

    __slots__ = ("data", "requires_grad", "grad", "key")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.key = None

    def __getstate__(self):
        # a copy (deepcopy, pickle) is a new Tensor to every tape
        return None, {"data": self.data, "requires_grad": self.requires_grad,
                      "grad": self.grad, "key": None}

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


_TAPES: list["GradTape"] = []
_SERIALS = itertools.count()


class GradTape:
    """Ordered op records; single-owner, consumed by one backward pass.

    A record is (output key, input keys, backward closure): it holds no
    Tensor, and each closure holds only the arrays its formula reads, so
    an intermediate that no formula reads is freed as soon as its caller
    drops it. An input that takes no gradient has key None. The tape
    holds its leaves, the grad-requiring inputs it did not produce (an
    output of an earlier tape included), as Tensors in first-use order.
    """

    def __init__(self):
        self._nodes = []  # (out key, input keys, backward_fn)
        self._produced = set()  # the keys of the outputs recorded here
        self._leaves = {}  # key -> leaf Tensor, in first-use order
        self._consumed = False

    def __enter__(self):
        _TAPES.append(self)
        return self

    def __exit__(self, *exc):
        _TAPES.pop()
        return False

    def _key(self, t: Tensor):
        """t's key as an input of a record: None if t takes no gradient,
        and t held as a leaf if this tape did not produce it."""
        if not t.requires_grad:
            return None
        if t.key not in self._produced and t.key not in self._leaves:
            if t.key is None:
                t.key = next(_SERIALS)
            self._leaves[t.key] = t
        return t.key

    def backward(self, loss: Tensor):
        """Gradients of a scalar loss w.r.t. every requires_grad leaf.

        Returns a dict keyed by id(tensor); leaves untouched by the loss
        get zero gradients. Also populates each leaf's .grad. Each record
        is dropped once replayed, and with it the arrays it held. A leaf
        gradient that holds a NaN or an infinity raises FloatingPointError
        before any .grad is set.
        """
        if self._consumed:
            raise RuntimeError("tape already consumed by a previous backward")
        if loss.data.size != 1:
            raise ValueError(f"loss must be scalar, got shape {loss.data.shape}")
        self._consumed = True

        # a loss no op recorded may have key None, which no record reads
        acc = {loss.key: np.ones_like(loss.data)}
        nodes = self._nodes
        while nodes:
            out, inputs, bw = nodes.pop()
            g = acc.pop(out, None)
            if g is None:
                continue
            for key, contrib in zip(inputs, bw(g)):
                if contrib is None or key is None:
                    continue
                prev = acc.get(key)
                acc[key] = contrib if prev is None else prev + contrib

        for key in acc.keys() & self._leaves.keys():
            _guard(acc[key], "backward")
        result = {}
        for key, t in self._leaves.items():
            g = acc.get(key)
            if g is None:
                g = np.zeros_like(t.data)
            t.grad = g
            result[id(t)] = g
        self._produced, self._leaves = set(), {}
        return result


def _guard(arr: np.ndarray, op: str) -> np.ndarray:
    """arr, or FloatingPointError if it holds a NaN or an infinity."""
    if not np.isfinite(arr).all():
        raise FloatingPointError(f"{op}: non-finite values in result")
    return arr


def _record(out: Tensor, inputs: tuple, bw) -> None:
    """Record out on the active tape if any input requires gradients,
    under a new serial key."""
    if _TAPES and any(t.requires_grad for t in inputs):
        tape = _TAPES[-1]
        keys = tuple(tape._key(t) for t in inputs)
        out.requires_grad = True
        out.key = next(_SERIALS)
        tape._produced.add(out.key)
        tape._nodes.append((out.key, keys, bw))


def _same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.data.shape != b.data.shape:
        raise ValueError(f"{op}: shape mismatch {a.data.shape} vs {b.data.shape}")


# ----------------------------------------------------------------- elementwise

def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "add")
    out = Tensor(a.data + b.data)
    _record(out, (a, b), lambda g: (g, g))
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "sub")
    out = Tensor(a.data - b.data)
    _record(out, (a, b), lambda g: (g, -g))
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "mul")
    with np.errstate(all="ignore"):
        out = Tensor(a.data * b.data)
    ad, bd = a.data, b.data
    _record(out, (a, b), lambda g: (g * bd, g * ad))
    return out


def sqrt(a: Tensor) -> Tensor:
    if np.any(a.data < 0):
        raise ValueError("sqrt: negative input")
    out = Tensor(np.sqrt(a.data))
    od = out.data

    def bw(g):
        with np.errstate(divide="ignore"):
            return (g * 0.5 / od,)

    _record(out, (a,), bw)
    return out


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # numerically stable in both tails: 1/(1+e^-x) for x >= 0 and
    # e^x/(1+e^x) below, both from e = e^-|x|; the in-place steps keep
    # training's peak memory where the masked form had it. The numerator
    # max(e, [x >= 0]) is 1 or e, as a select gives, since 0 <= e <= 1,
    # and NaN stays NaN
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    s = np.maximum(e, x >= 0)
    e += 1.0
    s /= e
    return s


def silu(a: Tensor) -> Tensor:
    s = _sigmoid(a.data)
    out = Tensor(a.data * s)
    ad = a.data

    def bw(g):
        # g * (s * (1 + x * (1 - s))), in one buffer and in that order
        d = np.subtract(1.0, s)
        d *= ad
        d += 1.0
        d *= s
        d *= g
        return (d,)

    _record(out, (a,), bw)
    return out


# ------------------------------------------------------------------- linear

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError("matmul: 2-D operands required")
    if a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul: inner dims {a.data.shape} vs {b.data.shape}")
    out = Tensor(a.data @ b.data)
    ad, bd = a.data, b.data
    _record(out, (a, b), lambda g: (g @ bd.T, ad.T @ g))
    return out


def _channel_major(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """einsum("oc,...ct->...ot", w, x), bit for bit, as one contraction
    over a channel-major (C, B*T) copy of x: einsum's inner loop then
    runs over B*T entries instead of T."""
    *lead, C, T = x.shape
    xc = x.reshape(-1, C, T).transpose(1, 0, 2).reshape(C, -1)
    oc = np.einsum("oc,cn->on", w, xc).reshape(len(w), -1, T)
    return np.ascontiguousarray(oc.transpose(1, 0, 2)).reshape(*lead, len(w), T)


def channel_linear(w: Tensor, x: Tensor) -> Tensor:
    """Per-position linear map over the channel axis: (...,C,T) -> (...,Co,T)."""
    if w.data.ndim != 2 or w.data.shape[1] != x.data.shape[-2]:
        raise ValueError(f"channel_linear: {w.data.shape} vs {x.data.shape}")
    out = Tensor(_channel_major(w.data, x.data))
    wd, xd = w.data, x.data

    def bw(g):
        gb = g.reshape((-1,) + g.shape[-2:])
        xb = xd.reshape((-1,) + xd.shape[-2:])
        # the channel-major form of this contraction gives other bits
        dw = np.einsum("bot,bct->oc", gb, xb)
        return dw, _channel_major(wd.T, g)

    _record(out, (w, x), bw)
    return out


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Broadcast a length-C vector over the last axis of (...,C,T)."""
    if b.data.ndim != 1 or x.data.shape[-2] != b.data.size:
        raise ValueError(f"add_bias: {x.data.shape} vs {b.data.shape}")
    out = Tensor(x.data + b.data[:, None])
    axes = tuple(range(x.data.ndim - 2)) + (x.data.ndim - 1,)
    _record(out, (x, b), lambda g: (g, g.sum(axis=axes)))
    return out


def _add_time(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """x (B,C,T) + v.T broadcast over T: v is (C, B), or (C, 1) for every
    sample."""
    return x + v.T[:, :, None]


def add_time(x: Tensor, v: Tensor) -> Tensor:
    """Add a per-sample channel vector: x (B,C,T) + v (C,B) broadcast over
    T, sample b taking column b of v."""
    if x.data.ndim != 3 or v.data.shape != x.data.shape[1::-1]:
        raise ValueError(f"add_time: {x.data.shape} vs {v.data.shape}")
    out = Tensor(_add_time(x.data, v.data))
    _record(out, (x, v), lambda g: (g, g.sum(axis=-1).T))
    return out


# -------------------------------------------------------------------- conv1d

def _out_len(T: int, K: int, stride: int) -> int:
    """conv1d's output length T' for input length T, or its ValueError."""
    if K > T:
        raise ValueError("conv1d: kernel wider than input")
    return (T - 1) // stride + 1


def _windows(xp: np.ndarray, K: int, stride: int, Tp: int) -> np.ndarray:
    """The im2col columns of the zero-bordered input xp as a (B, Cin, K,
    T') view, without a copy: [b, c, k, t] is xp[b, c, k + stride * t].

    The view is sliding_window_view(xp, K, axis=2)[:, :, ::stride] with
    its last two axes swapped, built by one constructor call, which costs
    a twentieth of sliding_window_view's. The constructor takes xp's
    buffer, so numpy itself raises ValueError for an xp that is not
    contiguous or for a view that would read past xp's end.
    """
    B, Cin, _ = xp.shape
    s0, s1, s2 = xp.strides
    return np.ndarray((B, Cin, K, Tp), xp.dtype, xp, 0,
                      (s0, s1, s2, stride * s2))


def _conv1d_kernel(x: np.ndarray, w2: np.ndarray, b2: np.ndarray,
                   stride: int = 1, silu: bool = False) -> np.ndarray:
    """Inference conv1d of the (B, Cin, T) x, or with silu set of silu(x),
    which is written straight into the zero-bordered input: w2 is the
    (Cout, Cin*K) weight matrix, from which K and the padding follow, and
    b2 the (Cout, 1) bias. The zero-bordered input takes w2's dtype, so
    x is cast to it there: the denoiser's stem casts its float64 rows to
    float32 this way.

    One product per sample, since the bits of a single product over all
    B*T' columns can depend on B and a sample must get the same bits in a
    batch as alone.
    """
    B, Cin, T = x.shape
    K = w2.shape[1] // Cin
    P = (K - 1) // 2
    Tp = _out_len(T, K, stride)
    xp = np.zeros((B, Cin, T + 2 * P), w2.dtype)
    if silu:
        np.multiply(x, _sigmoid(x), out=xp[:, :, P : P + T])
    else:
        xp[:, :, P : P + T] = x
    cols = _windows(xp, K, stride, Tp).copy()
    od = np.matmul(w2, cols.reshape(B, -1, Tp))
    od += b2
    return od


def conv1d(x: Tensor, w: Tensor, b: Tensor | None = None, stride: int = 1) -> Tensor:
    """Same-padded 1-D convolution, (B,)C_in x T -> (B,)C_out x T'.

    Kernel length K must be odd; padding is fixed at (K-1)/2 so stride 1
    preserves T. Accepts a single matrix (C,T) or a batch (B,C,T).
    """
    squeeze = x.data.ndim == 2
    xd = x.data[None] if squeeze else x.data
    if xd.ndim != 3 or w.data.ndim != 3:
        raise ValueError(f"conv1d: bad ranks {x.data.shape}, {w.data.shape}")
    B, Cin, T = xd.shape
    Cout, Cin_w, K = w.data.shape
    if Cin_w != Cin:
        raise ValueError(f"conv1d: channel mismatch {Cin_w} vs {Cin}")
    if K % 2 == 0:
        raise ValueError("conv1d: kernel length must be odd")
    Tp = _out_len(T, K, stride)
    if b is not None and b.data.shape != (Cout,):
        raise ValueError(f"conv1d: bias shape {b.data.shape}")
    P = (K - 1) // 2
    W2 = w.data.reshape(Cout, Cin * K)
    inputs = (x, w) if b is None else (x, w, b)
    # one product over all B*T' columns; backward rebuilds them (same
    # values, so same bits) from xp, which holds a third of their entries
    xp = np.zeros((B, Cin, T + 2 * P))
    xp[:, :, P : P + T] = xd

    def columns():
        cols = np.ascontiguousarray(_windows(xp, K, stride, Tp).transpose(1, 2, 0, 3))
        return cols.reshape(Cin * K, B * Tp)

    o2 = W2 @ columns()
    od = np.ascontiguousarray(o2.reshape(Cout, B, Tp).transpose(1, 0, 2))
    if b is not None:
        od += b.data[:, None]
    out = Tensor(od[0] if squeeze else od)
    x_grad, has_bias = x.requires_grad, b is not None

    def bw(g):
        gd = g[None] if squeeze else g
        g2 = np.ascontiguousarray(gd.transpose(1, 0, 2)).reshape(Cout, B * Tp)
        dW = (g2 @ columns().T).reshape(Cout, Cin, K)
        dx = None  # the stem's input, x_n, takes no gradient
        if x_grad:
            dcols = (W2.T @ g2).reshape(Cin, K, B, Tp)
            dxp = np.zeros((B, Cin, T + 2 * P))
            for k in range(K):
                dxp[:, :, k : k + stride * Tp : stride] += dcols[:, k].transpose(1, 0, 2)
            dx = dxp[:, :, P : P + T] if P else dxp
            if squeeze:
                dx = dx[0]
        return (dx, dW, gd.sum(axis=(0, 2))) if has_bias else (dx, dW)

    _record(out, inputs, bw)
    return out


# ---------------------------------------------------------------- group_norm

def _standardize(xd: np.ndarray, groups: int):
    """Per-(sample, group) standardized copy of the (B, C, T) xd, and the
    (B*groups, 1) factors 1/sqrt(var + eps).

    The arithmetic of np.mean and np.var with one mean pass, not two. The
    reductions run over a (B*groups, C/groups*T) view: the same bits as
    reducing axes (2, 3) of (B, groups, C/groups, T), in fewer calls.
    """
    B, C, T = xd.shape
    x2 = xd.reshape(B * groups, -1)
    n = x2.shape[1]
    xh = x2 - np.add.reduce(x2, axis=1, keepdims=True) / n
    v = np.add.reduce(xh * xh, axis=1, keepdims=True) / n
    inv = 1.0 / np.sqrt(v + GN_EPS)
    xh *= inv
    return xh.reshape(B, C, T), inv


def group_norm(x: Tensor, gamma: Tensor, beta: Tensor, groups: int) -> Tensor:
    """Per-(sample,group) standardization with affine, eps added to variance."""
    squeeze = x.data.ndim == 2
    xd = x.data[None] if squeeze else x.data
    _, C, _ = xd.shape
    if C % groups:
        raise ValueError(f"group_norm: {C} channels not divisible by {groups} groups")
    if gamma.data.shape != (C,) or beta.data.shape != (C,):
        raise ValueError("group_norm: affine shape mismatch")
    xh, inv = _standardize(xd, groups)
    od = xh * gamma.data[:, None]
    od += beta.data[:, None]
    out = Tensor(od[0] if squeeze else od)
    B, C, T = xd.shape
    xh4 = xh.reshape(B, groups, C // groups, T)
    inv = inv.reshape(B, groups, 1, 1)
    gamma2 = gamma.data[:, None]

    def bw(g):
        gd = g[None] if squeeze else g
        dgamma = (gd * xh).sum(axis=(0, 2))
        dbeta = gd.sum(axis=(0, 2))
        dxh4 = (gd * gamma2).reshape(B, groups, C // groups, T)
        mean_d = dxh4.mean(axis=(2, 3), keepdims=True)
        mean_dx = (dxh4 * xh4).mean(axis=(2, 3), keepdims=True)
        # ((dxh4 - mean_d - xh4 * mean_dx) * inv), in place in dxh4
        dxh4 -= mean_d
        dxh4 -= xh4 * mean_dx
        dxh4 *= inv
        dx = dxh4.reshape(B, C, T)
        if squeeze:
            dx = dx[0]
        return dx, dgamma, dbeta

    _record(out, (x, gamma, beta), bw)
    return out


def norm_silu_conv(x: Tensor, gamma: Tensor, beta: Tensor, groups: int,
                   w: Tensor, b: Tensor) -> Tensor:
    """conv1d(silu(group_norm(x, gamma, beta, groups)), w, b): the three
    ops, each recorded as itself."""
    return conv1d(silu(group_norm(x, gamma, beta, groups)), w, b)


def _norm_silu_conv_kernel(x: np.ndarray, gamma2: np.ndarray,
                           beta2: np.ndarray, groups: int, w2: np.ndarray,
                           b2: np.ndarray) -> np.ndarray:
    """Inference norm_silu_conv of the (B, C, T) x, with (C, 1) affine
    columns and conv1d's kernel weights; nothing keeps the standardized
    values, so the affine step runs in place."""
    h, _ = _standardize(x, groups)
    h *= gamma2
    h += beta2
    return _conv1d_kernel(h, w2, b2, silu=True)


# ----------------------------------------------------------------- attention

def _softmax_rows(z: np.ndarray, out=None) -> np.ndarray:
    """Softmax over the last axis of z, into out (z itself for in place)."""
    out = np.subtract(z, z.max(axis=-1, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def _attend(q: np.ndarray, k: np.ndarray, v: np.ndarray):
    """Scaled dot-product attention of the (B, C, T) projections: the
    result and the (B, T, T) softmax weights, which the scale and the
    softmax build in place in the score array."""
    a = np.einsum("bct,bcu->btu", q, k)
    a *= 1.0 / math.sqrt(q.shape[-2])
    _softmax_rows(a, out=a)
    return np.einsum("bcu,btu->bct", v, a), a


def self_attention(x: Tensor, wq: Tensor, wk: Tensor, wv: Tensor) -> Tensor:
    """Single-head scaled dot-product attention over time positions, for
    a (C, T) matrix or a (..., C, T) stack: three channel_linear
    projections, then one recorded op over them.

    Output is the attention result only; the caller adds it residually.
    """
    *_, C, T = x.data.shape
    for w in (wq, wk, wv):
        if w.data.shape != (C, C):
            raise ValueError(f"self_attention: projection shape {w.data.shape} vs C={C}")
    q, k, v = (channel_linear(w, x) for w in (wq, wk, wv))
    qd, kd, vd = (t.data.reshape(-1, C, T) for t in (q, k, v))
    od, a = _attend(qd, kd, vd)
    x_shape = x.data.shape
    out = Tensor(od.reshape(x_shape))

    def bw(g):
        g = g.reshape(qd.shape)
        dv = np.einsum("bct,btu->bcu", g, a)
        # the softmax gradient a * (da - sum(da * a)), then the scale,
        # in place in da
        da = np.einsum("bct,bcu->btu", g, vd)
        da -= (da * a).sum(axis=-1, keepdims=True)
        da *= a
        da *= 1.0 / math.sqrt(C)
        dq = np.einsum("bcu,btu->bct", kd, da)
        dk = np.einsum("bct,btu->bcu", qd, da)
        return tuple(d.reshape(x_shape) for d in (dq, dk, dv))

    _record(out, (q, k, v), bw)
    return out


def _self_attention_kernel(x: np.ndarray, wq: np.ndarray, wk: np.ndarray,
                           wv: np.ndarray) -> np.ndarray:
    """Inference self_attention of the (B, C, T) x: the op's projections
    and arithmetic, without recording or checking. A NaN or +inf score
    gives its row all NaN; the U-Net adds the result to x, so a non-finite
    x reaches predict_noise's output check through that residual."""
    q, k, v = (_channel_major(w, x) for w in (wq, wk, wv))
    return _attend(q, k, v)[0]


# ---------------------------------------------------------------- structural

def _upsample2(x: np.ndarray) -> np.ndarray:
    return np.repeat(x, 2, axis=-1)


def upsample2(x: Tensor) -> Tensor:
    """Nearest-neighbor 2x upsampling along the last axis."""
    out = Tensor(_upsample2(x.data))
    T = x.data.shape[-1]
    _record(out, (x,), lambda g: (g.reshape(*g.shape[:-1], T, 2).sum(axis=-1),))
    return out


def _concat_channels(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.concatenate([a, b], axis=-2)


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape[:-2] != b.data.shape[:-2] or a.data.shape[-1] != b.data.shape[-1]:
        raise ValueError(f"concat_channels: {a.data.shape} vs {b.data.shape}")
    Ca = a.data.shape[-2]
    out = Tensor(_concat_channels(a.data, b.data))
    _record(out, (a, b), lambda g: (g[..., :Ca, :], g[..., Ca:, :]))
    return out


def sum_all(x: Tensor) -> Tensor:
    out = Tensor(np.array(x.data.sum()))
    shp = x.data.shape
    _record(out, (x,), lambda g: (np.broadcast_to(g, shp).copy(),))
    return out


def mean_all(x: Tensor) -> Tensor:
    n = x.data.size
    out = Tensor(np.array(x.data.mean()))
    shp = x.data.shape
    _record(out, (x,), lambda g: (np.broadcast_to(g / n, shp).copy(),))
    return out


# The array kernels, under the names of the Tensor ops they run the
# inference arithmetic of: what the denoiser's bound model calls
kernels = SimpleNamespace(
    add=np.add, add_time=_add_time, conv1d=_conv1d_kernel,
    norm_silu_conv=_norm_silu_conv_kernel,
    self_attention=_self_attention_kernel, upsample2=_upsample2,
    concat_channels=_concat_channels)
