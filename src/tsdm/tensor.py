"""Dense float64 tensors with minimal reverse-mode automatic differentiation.

The op surface is exactly what the denoising network needs: elementwise
arithmetic, matmul, 1-D convolution, group normalization, single-head
self-attention, and a few structural helpers. Ops are pure functions over
immutable values; when a GradTape is active and an input requires
gradients, the op appends a record to the tape. GradTape.backward replays
the records in reverse creation order, which is a valid topological order
because every input of a node was created before the node itself.

All results are checked finite; NaN/Inf raise FloatingPointError.
"""

from __future__ import annotations

import math

import numpy as np

GN_EPS = 1e-5


class Tensor:
    """Immutable-by-convention float64 array with an autodiff flag."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


_TAPES: list["GradTape"] = []


class GradTape:
    """Ordered op records; single-owner, consumed by one backward pass."""

    def __init__(self):
        self._nodes = []  # (out, inputs, backward_fn)
        self._consumed = False

    def __enter__(self):
        _TAPES.append(self)
        return self

    def __exit__(self, *exc):
        _TAPES.pop()
        return False

    def backward(self, loss: Tensor):
        """Gradients of a scalar loss w.r.t. every requires_grad leaf.

        Returns a dict keyed by id(tensor); leaves untouched by the loss
        get zero gradients. Also populates each leaf's .grad.
        """
        if self._consumed:
            raise RuntimeError("tape already consumed by a previous backward")
        if loss.data.size != 1:
            raise ValueError(f"loss must be scalar, got shape {loss.data.shape}")
        self._consumed = True

        produced = {id(out) for out, _, _ in self._nodes}
        leaves = {}
        for _, inputs, _ in self._nodes:
            for t in inputs:
                if t.requires_grad and id(t) not in produced:
                    leaves[id(t)] = t

        acc = {id(loss): np.ones_like(loss.data)}
        for out, inputs, bw in reversed(self._nodes):
            g = acc.pop(id(out), None)
            if g is None:
                continue
            for t, contrib in zip(inputs, bw(g)):
                if contrib is None or not t.requires_grad:
                    continue
                _guard(contrib, "backward")
                prev = acc.get(id(t))
                acc[id(t)] = contrib if prev is None else prev + contrib

        result = {}
        for tid, t in leaves.items():
            g = acc.get(tid)
            if g is None:
                g = np.zeros_like(t.data)
            t.grad = g
            result[tid] = g
        self._nodes = []
        return result


def taping() -> bool:
    """Whether a GradTape is recording."""
    return bool(_TAPES)


def _guard(arr: np.ndarray, op: str) -> None:
    if not np.isfinite(arr).all():
        raise FloatingPointError(f"{op}: non-finite values in result")


def _record(out: Tensor, inputs: tuple, bw) -> None:
    if _TAPES and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        _TAPES[-1]._nodes.append((out, inputs, bw))


def _same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.data.shape != b.data.shape:
        raise ValueError(f"{op}: shape mismatch {a.data.shape} vs {b.data.shape}")


# ----------------------------------------------------------------- elementwise

def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "add")
    out = Tensor(a.data + b.data)
    _guard(out.data, "add")
    _record(out, (a, b), lambda g: (g, g))
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "sub")
    out = Tensor(a.data - b.data)
    _guard(out.data, "sub")
    _record(out, (a, b), lambda g: (g, -g))
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "mul")
    with np.errstate(all="ignore"):
        out = Tensor(a.data * b.data)
    _guard(out.data, "mul")
    ad, bd = a.data, b.data
    _record(out, (a, b), lambda g: (g * bd, g * ad))
    return out


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out = Tensor(a.data * c)
    _guard(out.data, "scale")
    _record(out, (a,), lambda g: (g * c,))
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
    # training's peak memory where the masked form had it
    e = np.exp(-np.abs(x))
    s = np.where(x >= 0, 1.0, e)
    e += 1.0
    s /= e
    return s


def silu(a: Tensor) -> Tensor:
    s = _sigmoid(a.data)
    out = Tensor(a.data * s)
    _guard(out.data, "silu")
    ad = a.data
    _record(out, (a,), lambda g: (g * (s * (1.0 + ad * (1.0 - s))),))
    return out


# ------------------------------------------------------------------- linear

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError("matmul: 2-D operands required")
    if a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul: inner dims {a.data.shape} vs {b.data.shape}")
    if b.data.shape[1] > 1 and not (_TAPES and (a.requires_grad
                                                or b.requires_grad)):
        # Inference: one product per column of b, since the bits of one
        # product over several columns can differ from a one-column
        # product's, and a column must get the same bits with others as
        # alone. On a tape the single product stays: training keeps its
        # bits.
        out = Tensor(np.matmul(a.data, b.data.T[:, :, None])[:, :, 0].T)
    else:
        out = Tensor(a.data @ b.data)
    _guard(out.data, "matmul")
    ad, bd = a.data, b.data
    _record(out, (a, b), lambda g: (g @ bd.T, ad.T @ g))
    return out


def channel_linear(w: Tensor, x: Tensor) -> Tensor:
    """Per-position linear map over the channel axis: (...,C,T) -> (...,Co,T)."""
    if w.data.ndim != 2 or w.data.shape[1] != x.data.shape[-2]:
        raise ValueError(f"channel_linear: {w.data.shape} vs {x.data.shape}")
    out = Tensor(np.einsum("oc,...ct->...ot", w.data, x.data))
    _guard(out.data, "channel_linear")
    wd, xd = w.data, x.data

    def bw(g):
        gb = g.reshape((-1,) + g.shape[-2:])
        xb = xd.reshape((-1,) + xd.shape[-2:])
        dw = np.einsum("bot,bct->oc", gb, xb)
        dx = np.einsum("oc,...ot->...ct", wd, g)
        return dw, dx

    _record(out, (w, x), bw)
    return out


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Broadcast a length-C vector over the last axis of (...,C,T)."""
    if b.data.ndim != 1 or x.data.shape[-2] != b.data.size:
        raise ValueError(f"add_bias: {x.data.shape} vs {b.data.shape}")
    out = Tensor(x.data + b.data[:, None])
    _guard(out.data, "add_bias")
    axes = tuple(range(x.data.ndim - 2)) + (x.data.ndim - 1,)
    _record(out, (x, b), lambda g: (g, g.sum(axis=axes)))
    return out


def add_time(x: Tensor, v: Tensor, column=None) -> Tensor:
    """Add a per-sample channel vector: x (B,C,T) + v (C,U) broadcast over T.

    Sample b takes column `column[b]` of v; by default U = B and sample b
    takes column b.
    """
    if x.data.ndim != 3 or v.data.ndim != 2 or v.data.shape[0] != x.data.shape[1]:
        raise ValueError(f"add_time: {x.data.shape} vs {v.data.shape}")
    B, C, _ = x.data.shape
    U = v.data.shape[1]
    if column is None:
        if U != B:
            raise ValueError(f"add_time: {x.data.shape} vs {v.data.shape}")
        per_sample = v.data.T
    else:
        column = np.asarray(column)
        if column.shape != (B,):
            raise ValueError(f"add_time: {B} samples vs columns {column.shape}")
        per_sample = v.data.T[column]
    out = Tensor(x.data + per_sample[:, :, None])
    _guard(out.data, "add_time")

    def bw(g):
        gv = g.sum(axis=-1)
        if column is None:
            return g, gv.T
        dv = np.zeros((U, C))
        np.add.at(dv, column, gv)
        return g, dv.T

    _record(out, (x, v), bw)
    return out


# -------------------------------------------------------------------- conv1d

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
    if K > T:
        raise ValueError("conv1d: kernel wider than input")
    P = (K - 1) // 2
    if b is not None and b.data.shape != (Cout,):
        raise ValueError(f"conv1d: bias shape {b.data.shape}")

    Tp = (T - 1) // stride + 1
    # im2col: K strided slice copies of the padded input, each written
    # straight into the layout the product below reads
    xp = np.zeros((B, Cin, T + 2 * P))
    xp[:, :, P : P + T] = xd
    W2 = w.data.reshape(Cout, Cin * K)
    inputs = (x, w) if b is None else (x, w, b)
    if not (_TAPES and any(t.requires_grad for t in inputs)):
        # Inference: one product per sample, since the bits of a single
        # product over all B*T' columns can depend on B and a sample must
        # get the same bits in a batch as alone. On a tape the single
        # product stays: backward reuses its columns, and training keeps
        # its bits.
        cols = np.empty((B, Cin, K, Tp))
        for k in range(K):
            cols[:, :, k] = xp[:, :, k : k + stride * Tp : stride]
        od = np.matmul(W2, cols.reshape(B, Cin * K, Tp))
        if b is not None:
            od = od + b.data[:, None]
        out = Tensor(od[0] if squeeze else od)
        _guard(out.data, "conv1d")
        return out
    cols = np.empty((Cin, K, B, Tp))
    for k in range(K):
        cols[:, k] = xp[:, :, k : k + stride * Tp : stride].transpose(1, 0, 2)
    cols = cols.reshape(Cin * K, B * Tp)
    o2 = W2 @ cols
    od = np.ascontiguousarray(o2.reshape(Cout, B, Tp).transpose(1, 0, 2))
    if b is not None:
        od = od + b.data[:, None]
    out = Tensor(od[0] if squeeze else od)
    _guard(out.data, "conv1d")

    def bw(g):
        gd = g[None] if squeeze else g
        g2 = np.ascontiguousarray(gd.transpose(1, 0, 2)).reshape(Cout, B * Tp)
        dW = (g2 @ cols.T).reshape(w.data.shape)
        dcols = (W2.T @ g2).reshape(Cin, K, B, Tp)
        dxp = np.zeros((B, Cin, T + 2 * P))
        for k in range(K):
            dxp[:, :, k : k + stride * Tp : stride] += dcols[:, k].transpose(1, 0, 2)
        dx = dxp[:, :, P : P + T] if P else dxp
        if squeeze:
            dx = dx[0]
        db = None if b is None else gd.sum(axis=(0, 2))
        return (dx, dW, db) if b is not None else (dx, dW)

    _record(out, inputs, bw)
    return out


# ---------------------------------------------------------------- group_norm

def group_norm(x: Tensor, gamma: Tensor, beta: Tensor, groups: int) -> Tensor:
    """Per-(sample,group) standardization with affine, eps added to variance."""
    squeeze = x.data.ndim == 2
    xd = x.data[None] if squeeze else x.data
    B, C, T = xd.shape
    if C % groups:
        raise ValueError(f"group_norm: {C} channels not divisible by {groups} groups")
    if gamma.data.shape != (C,) or beta.data.shape != (C,):
        raise ValueError("group_norm: affine shape mismatch")
    x4 = xd.reshape(B, groups, C // groups, T)
    # the arithmetic of np.mean and np.var, with one mean pass, not two;
    # xh4 holds the deviations, then (in place) their standardized values
    n = x4.shape[2] * x4.shape[3]
    xh4 = x4 - x4.sum(axis=(2, 3), keepdims=True) / n
    v = (xh4 * xh4).sum(axis=(2, 3), keepdims=True) / n
    inv = 1.0 / np.sqrt(v + GN_EPS)
    xh4 *= inv
    xh = xh4.reshape(B, C, T)
    od = xh * gamma.data[:, None] + beta.data[:, None]
    out = Tensor(od[0] if squeeze else od)
    _guard(out.data, "group_norm")

    def bw(g):
        gd = g[None] if squeeze else g
        dgamma = (gd * xh).sum(axis=(0, 2))
        dbeta = gd.sum(axis=(0, 2))
        dxh4 = (gd * gamma.data[:, None]).reshape(B, groups, C // groups, T)
        mean_d = dxh4.mean(axis=(2, 3), keepdims=True)
        mean_dx = (dxh4 * xh4).mean(axis=(2, 3), keepdims=True)
        dx = ((dxh4 - mean_d - xh4 * mean_dx) * inv).reshape(B, C, T)
        if squeeze:
            dx = dx[0]
        return dx, dgamma, dbeta

    _record(out, (x, gamma, beta), bw)
    return out


# ----------------------------------------------------------------- attention

def softmax_last(z: Tensor) -> Tensor:
    zd = z.data - z.data.max(axis=-1, keepdims=True)
    e = np.exp(zd)
    yd = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(yd)
    _guard(out.data, "softmax")
    _record(out, (z,), lambda g: (yd * (g - (g * yd).sum(axis=-1, keepdims=True)),))
    return out


def attn_scores(q: Tensor, k: Tensor) -> Tensor:
    """Query-key inner products: (B,C,T),(B,C,U) -> (B,T,U)."""
    out = Tensor(np.einsum("bct,bcu->btu", q.data, k.data))
    _guard(out.data, "attn_scores")
    qd, kd = q.data, k.data
    _record(out, (q, k), lambda g: (np.einsum("bcu,btu->bct", kd, g),
                                    np.einsum("bct,btu->bcu", qd, g)))
    return out


def attn_apply(v: Tensor, a: Tensor) -> Tensor:
    """Weighted value combination: (B,C,U),(B,T,U) -> (B,C,T)."""
    out = Tensor(np.einsum("bcu,btu->bct", v.data, a.data))
    _guard(out.data, "attn_apply")
    vd, ad = v.data, a.data
    _record(out, (v, a), lambda g: (np.einsum("bct,btu->bcu", g, ad),
                                    np.einsum("bct,bcu->btu", g, vd)))
    return out


def self_attention(x: Tensor, wq: Tensor, wk: Tensor, wv: Tensor) -> Tensor:
    """Single-head scaled dot-product attention over time positions.

    Output is the attention result only; the caller adds it residually.
    """
    squeeze = x.data.ndim == 2
    if squeeze:
        x = _lift(x)
    C = x.data.shape[-2]
    for w in (wq, wk, wv):
        if w.data.shape != (C, C):
            raise ValueError(f"self_attention: projection shape {w.data.shape} vs C={C}")
    q = channel_linear(wq, x)
    k = channel_linear(wk, x)
    v = channel_linear(wv, x)
    a = softmax_last(scale(attn_scores(q, k), 1.0 / math.sqrt(C)))
    out = attn_apply(v, a)
    return _squeeze(out) if squeeze else out


def _lift(x: Tensor) -> Tensor:
    out = Tensor(x.data[None])
    _record(out, (x,), lambda g: (g[0],))
    return out


def _squeeze(x: Tensor) -> Tensor:
    out = Tensor(x.data[0])
    _record(out, (x,), lambda g: (g[None],))
    return out


# ---------------------------------------------------------------- structural

def upsample2(x: Tensor) -> Tensor:
    """Nearest-neighbor 2x upsampling along the last axis."""
    out = Tensor(np.repeat(x.data, 2, axis=-1))
    T = x.data.shape[-1]
    _record(out, (x,), lambda g: (g.reshape(*g.shape[:-1], T, 2).sum(axis=-1),))
    return out


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape[:-2] != b.data.shape[:-2] or a.data.shape[-1] != b.data.shape[-1]:
        raise ValueError(f"concat_channels: {a.data.shape} vs {b.data.shape}")
    Ca = a.data.shape[-2]
    out = Tensor(np.concatenate([a.data, b.data], axis=-2))
    _record(out, (a, b), lambda g: (g[..., :Ca, :], g[..., Ca:, :]))
    return out


def sum_all(x: Tensor) -> Tensor:
    out = Tensor(np.array(x.data.sum()))
    _guard(out.data, "sum_all")
    shp = x.data.shape
    _record(out, (x,), lambda g: (np.broadcast_to(g, shp).copy(),))
    return out


def mean_all(x: Tensor) -> Tensor:
    n = x.data.size
    out = Tensor(np.array(x.data.mean()))
    _guard(out.data, "mean_all")
    shp = x.data.shape
    _record(out, (x,), lambda g: (np.broadcast_to(g / n, shp).copy(),))
    return out
