"""Autodiff engine checks: every op against central differences, plus the
algebraic identity and purity contracts."""

import copy
import math
import pickle
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from tsdm import tensor as tc
from tsdm.tensor import GradTape, Tensor

from gradcheck import central_diff, rel_err


def _leaf(arr):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=True)


def _grad_of(build, *arrays):
    """Run build(*tensors) under a tape, return (value, grads per input)."""
    leaves = [_leaf(a) for a in arrays]
    with GradTape() as tape:
        out = build(*leaves)
        loss = tc.sum_all(out) if out.data.size > 1 else out
    grads = tape.backward(loss)
    return loss.data, [grads[id(l)] for l in leaves]


def _check_against_fd(build, *arrays, tol=1e-4):
    _, grads = _grad_of(build, *arrays)
    for pos, arr in enumerate(arrays):
        def f(x, pos=pos):
            args = [Tensor(np.asarray(a, dtype=np.float64)) for a in arrays]
            args[pos] = Tensor(x)
            out = build(*args)
            return float(np.sum(out.data))
        num = central_diff(f, np.asarray(arrays[pos], dtype=np.float64))
        assert rel_err(grads[pos], num) < tol, f"input {pos}: {rel_err(grads[pos], num)}"


# ---------------------------------------------------------------- elementwise

def test_add_values():
    out = tc.add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
    np.testing.assert_array_equal(out.data, [4.0, 6.0])


def test_add_shape_mismatch():
    with pytest.raises(ValueError):
        tc.add(Tensor(np.zeros(3)), Tensor(np.zeros(4)))


def test_sqrt_negative_domain_error():
    with pytest.raises(ValueError):
        tc.sqrt(Tensor(np.array([1.0, -0.1])))


def test_silu_grad_at_zero():
    x = _leaf(np.array([0.0]))
    with GradTape() as tape:
        loss = tc.sum_all(tc.silu(x))
    g = tape.backward(loss)[id(x)]
    assert abs(g[0] - 0.5) < 1e-12
    num = central_diff(lambda a: float(np.sum(tc.silu(Tensor(a)).data)), np.array([0.0]))
    assert abs(g[0] - num[0]) < 1e-6


def test_elementwise_grads_vs_fd():
    rng = np.random.default_rng(0)
    a = rng.uniform(-2, 2, (3, 5))
    b = rng.uniform(-2, 2, (3, 5))
    _check_against_fd(lambda x, y: tc.add(x, y), a, b)
    _check_against_fd(lambda x, y: tc.sub(x, y), a, b)
    _check_against_fd(lambda x, y: tc.mul(x, y), a, b)
    _check_against_fd(lambda x: tc.silu(x), a)
    _check_against_fd(lambda x: tc.sqrt(x), np.abs(a) + 0.5)


def test_purity_inputs_unmodified():
    rng = np.random.default_rng(1)
    a = rng.uniform(-2, 2, (4, 4))
    ta = Tensor(a.copy())
    out1 = tc.silu(ta)
    out2 = tc.silu(ta)
    assert np.array_equal(ta.data, a)
    assert np.array_equal(out1.data, out2.data)


# ------------------------------------------------------------------- matmul

def test_matmul_identity():
    x = np.arange(6, dtype=np.float64).reshape(2, 3)
    out = tc.matmul(Tensor(np.eye(2)), Tensor(x))
    np.testing.assert_allclose(out.data, x)


def test_matmul_values():
    out = tc.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
    np.testing.assert_array_equal(out.data, [[3.0], [7.0]])


def test_matmul_grads_vs_fd():
    rng = np.random.default_rng(2)
    a = rng.uniform(-2, 2, (3, 4))
    b = rng.uniform(-2, 2, (4, 2))
    _check_against_fd(lambda x, y: tc.matmul(x, y), a, b, tol=1e-5)


# -------------------------------------------------------------------- conv1d

def test_conv1d_identity_kernel():
    x = np.random.default_rng(3).uniform(-1, 1, (1, 9))
    k = np.ones((1, 1, 1))
    out = tc.conv1d(Tensor(x), Tensor(k))
    np.testing.assert_allclose(out.data, x)


def test_conv1d_box_filter():
    out = tc.conv1d(Tensor(np.array([[0.0, 1.0, 0.0]])), Tensor(np.ones((1, 1, 3))))
    np.testing.assert_allclose(out.data, [[1.0, 1.0, 1.0]])


def test_conv1d_grads_vs_fd():
    rng = np.random.default_rng(4)
    x = rng.uniform(-2, 2, (2, 8))
    k = rng.uniform(-2, 2, (3, 2, 3))
    b = rng.uniform(-2, 2, 3)
    _check_against_fd(lambda xx, kk, bb: tc.conv1d(xx, kk, bb), x, k, b, tol=1e-5)


def test_conv1d_stride2_shape_and_grads():
    rng = np.random.default_rng(5)
    x = rng.uniform(-2, 2, (1, 2, 8))
    k = rng.uniform(-2, 2, (2, 2, 3))
    out = tc.conv1d(Tensor(x), Tensor(k), stride=2)
    assert out.data.shape == (1, 2, 4)
    _check_against_fd(lambda xx, kk: tc.conv1d(xx, kk, stride=2), x, k)


def test_conv1d_kernel_wider_than_input():
    with pytest.raises(ValueError):
        tc.conv1d(Tensor(np.zeros((1, 1))), Tensor(np.zeros((1, 1, 5))))


# ---------------------------------------------------------------- group_norm

def test_group_norm_constant_input_gives_beta():
    x = np.full((4, 6), 3.14)
    gamma = np.ones(4)
    beta = np.array([1.0, -2.0, 0.5, 0.0])
    out = tc.group_norm(Tensor(x), Tensor(gamma), Tensor(beta), groups=2)
    np.testing.assert_allclose(out.data, np.broadcast_to(beta[:, None], (4, 6)), atol=1e-6)


def test_group_norm_whitens():
    rng = np.random.default_rng(6)
    x = rng.uniform(-2, 2, (4, 16))
    out = tc.group_norm(Tensor(x), Tensor(np.ones(4)), Tensor(np.zeros(4)), groups=1)
    assert abs(out.data.mean()) < 1e-9
    assert abs(out.data.var() - 1.0) < 1e-4


def test_group_norm_bad_groups():
    with pytest.raises(ValueError):
        tc.group_norm(Tensor(np.zeros((5, 4))), Tensor(np.ones(5)), Tensor(np.zeros(5)), groups=2)


def test_group_norm_grads_vs_fd():
    rng = np.random.default_rng(7)
    x = rng.uniform(-2, 2, (4, 6))
    g = rng.uniform(0.5, 1.5, 4)
    b = rng.uniform(-1, 1, 4)

    def build(xx, gg, bb):
        out = tc.group_norm(xx, gg, bb, groups=2)
        # non-uniform functional so mean-subtraction terms matter
        return tc.mul(out, Tensor(np.linspace(0.5, 1.5, 24).reshape(4, 6)))

    _check_against_fd(build, x, g, b)


# ------------------------------------------------------------ self-attention

def test_attention_single_position():
    rng = np.random.default_rng(8)
    x = rng.uniform(-1, 1, (3, 1))
    wq, wk, wv = (rng.uniform(-1, 1, (3, 3)) for _ in range(3))
    out = tc.self_attention(Tensor(x), Tensor(wq), Tensor(wk), Tensor(wv))
    np.testing.assert_allclose(out.data, wv @ x, atol=1e-12)


def test_attention_zero_logits_uniform():
    rng = np.random.default_rng(9)
    x = rng.uniform(-1, 1, (3, 5))
    wv = rng.uniform(-1, 1, (3, 3))
    out = tc.self_attention(Tensor(x), Tensor(np.zeros((3, 3))), Tensor(np.zeros((3, 3))), Tensor(wv))
    want = np.repeat((wv @ x).mean(axis=1, keepdims=True), 5, axis=1)
    np.testing.assert_allclose(out.data, want, atol=1e-12)


def test_attention_grads_vs_fd():
    rng = np.random.default_rng(10)
    x = rng.uniform(-2, 2, (4, 6))
    wq, wk, wv = (rng.uniform(-0.7, 0.7, (4, 4)) for _ in range(3))

    def build(xx, q, k, v):
        return tc.self_attention(xx, q, k, v)

    _check_against_fd(build, x, wq, wk, wv)


# ----------------------------------------------------- structural primitives

def test_structural_grads_vs_fd():
    rng = np.random.default_rng(11)
    x = rng.uniform(-2, 2, (2, 4, 6))
    y = rng.uniform(-2, 2, (2, 3, 6))
    bias = rng.uniform(-1, 1, 4)
    tv = rng.uniform(-1, 1, (4, 2))
    _check_against_fd(lambda a, b: tc.concat_channels(a, b), x, y)
    _check_against_fd(lambda a: tc.upsample2(a), x)
    _check_against_fd(lambda a, b: tc.add_bias(a, b), x, bias)
    _check_against_fd(lambda a, b: tc.add_time(a, b), x, tv)
    _check_against_fd(lambda a: tc.mean_all(a), x)


@pytest.mark.parametrize("v_shape", [(6, 2), (6, 1), (5, 3), (3, 6), (6,)])
def test_add_time_rejects_a_vector_of_another_shape(v_shape):
    # v must be (C, B): one column per sample, one row per channel
    x = Tensor(np.zeros((3, 6, 16)))
    want = f"add_time: (3, 6, 16) vs {v_shape}"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        tc.add_time(x, Tensor(np.zeros(v_shape)))


# ------------------------------------------------------------------ backward

def test_backward_sum_gives_ones():
    x = _leaf(np.zeros((2, 3)))
    with GradTape() as tape:
        loss = tc.sum_all(x)
    g = tape.backward(loss)[id(x)]
    np.testing.assert_array_equal(g, np.ones((2, 3)))


def test_backward_constant_gives_zeros():
    x, w = _leaf(np.ones((2, 2))), _leaf(np.full((2, 3), 0.5))
    with GradTape() as tape:
        tc.matmul(tc.silu(x), w)  # recorded but unconnected to the loss
        loss = Tensor(np.array(5.0), requires_grad=True)
    grads = tape.backward(loss)
    assert list(grads) == [id(x), id(w)]
    for t in (x, w):
        np.testing.assert_array_equal(grads[id(t)], np.zeros_like(t.data))


def test_backward_nonscalar_loss_rejected():
    x = _leaf(np.ones(3))
    with GradTape() as tape:
        out = tc.silu(x)
    with pytest.raises(ValueError):
        tape.backward(out)


def test_an_overflowing_gradient_trips_backward():
    # the loss a*b*c is finite; d/db = a*c is not, and no .grad is set
    a, b, c = (_leaf(np.array([v])) for v in (1e300, 1e-300, 1e300))
    with GradTape() as tape:
        loss = tc.sum_all(tc.mul(tc.mul(a, b), c))
    assert np.isfinite(loss.data)
    with np.errstate(over="ignore"), pytest.raises(
            FloatingPointError, match="^backward: non-finite values in result$"):
        tape.backward(loss)
    assert a.grad is b.grad is c.grad is None


def test_tape_consumed_once():
    x = _leaf(np.ones(3))
    with GradTape() as tape:
        loss = tc.sum_all(x)
    tape.backward(loss)
    with pytest.raises(RuntimeError):
        tape.backward(loss)


def test_backward_composed_network_vs_fd():
    rng = np.random.default_rng(12)
    x = rng.uniform(-2, 2, (2, 8))
    k = rng.uniform(-1, 1, (4, 2, 3))
    gamma = rng.uniform(0.5, 1.5, 4)
    beta = rng.uniform(-0.5, 0.5, 4)

    def build(xx, kk, gg, bb):
        h = tc.conv1d(xx, kk)
        h = tc.group_norm(h, gg, bb, groups=2)
        return tc.silu(h)

    _check_against_fd(build, x, k, gamma, beta)


def test_chain_rule_scalar_probe():
    # d/dx silu(sqrt(x))^2 at x0 equals product of the pieces
    x0 = 1.7
    x = _leaf(np.array([x0]))
    with GradTape() as tape:
        r = tc.sqrt(x)
        s = tc.silu(r)
        loss = tc.sum_all(tc.mul(s, s))
    g = tape.backward(loss)[id(x)]
    r0 = np.sqrt(x0)
    sig = 1.0 / (1.0 + np.exp(-r0))
    s0 = r0 * sig
    dsilu = sig * (1.0 + r0 * (1.0 - sig))
    want = 2.0 * s0 * dsilu * 0.5 / r0
    assert abs(g[0] - want) < 1e-12


def test_grad_accumulates_over_reuse():
    x = _leaf(np.array([2.0]))
    with GradTape() as tape:
        loss = tc.sum_all(tc.mul(x, x))
    g = tape.backward(loss)[id(x)]
    assert abs(g[0] - 4.0) < 1e-12
    # and over two ops
    x, a, b = _leaf([1.0, -3.0]), Tensor([0.25, 7.0]), Tensor([-1.5, 0.125])
    with GradTape() as tape:
        loss = tc.sum_all(tc.add(tc.mul(x, a), tc.mul(x, b)))
    g = tape.backward(loss)[id(x)]
    np.testing.assert_array_equal(g, a.data + b.data)


def test_leaves_are_keyed_by_id_in_first_use_order():
    a, b, c = _leaf([1.0, 2.0]), _leaf([3.0, -1.0]), _leaf([0.5, 4.0])
    const = Tensor([2.0, 2.0])  # takes no gradient, so is no leaf
    with GradTape() as tape:
        h = tc.mul(c, const)
        h = tc.add(tc.mul(h, a), b)
        loss = tc.sum_all(tc.mul(h, a))
    grads = tape.backward(loss)
    assert list(grads) == [id(c), id(a), id(b)]
    assert all(t.grad is grads[id(t)] for t in (a, b, c))
    assert const.grad is None and h.grad is None


def test_an_output_of_a_consumed_tape_is_a_leaf_of_the_next():
    x = _leaf([1.5, -2.0])
    with GradTape() as first:
        y = tc.mul(x, x)
        first.backward(tc.sum_all(y))
    with GradTape() as second:
        loss = tc.sum_all(tc.mul(y, y))
    grads = second.backward(loss)
    assert list(grads) == [id(y)]
    np.testing.assert_array_equal(grads[id(y)], 2.0 * y.data)
    assert y.grad is grads[id(y)]


def test_a_copy_of_a_leaf_is_a_leaf_of_its_own():
    x = _leaf([1.0, -2.0])
    with GradTape() as first:
        first.backward(tc.sum_all(x))  # x now carries a tape's key
    for y in (copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        with GradTape() as tape:
            loss = tc.sum_all(tc.add(tc.mul(x, x), y))
        grads = tape.backward(loss)
        assert list(grads) == [id(x), id(y)]
        np.testing.assert_array_equal(grads[id(x)], 2.0 * x.data)
        np.testing.assert_array_equal(grads[id(y)], np.ones(2))


def _norm_chain(keep):
    """Gradients of sum(conv1d(silu(group_norm(x + y)))) on a tape, and
    whether the .data of the add, group_norm and silu outputs is alive
    just before backward; `keep` holds those outputs until then."""
    rng = np.random.default_rng(23)
    x, y = _leaf(rng.normal(size=(2, 4, 8))), _leaf(rng.normal(size=(2, 4, 8)))
    gamma, beta = _leaf(rng.uniform(0.5, 1.5, 4)), _leaf(rng.normal(size=4))
    w, b = _leaf(rng.normal(size=(3, 4, 3))), _leaf(rng.normal(size=3))
    with GradTape() as tape:
        h = tc.add(x, y)
        refs = [weakref.ref(h.data)]
        kept = [h]
        for op in (lambda h: tc.group_norm(h, gamma, beta, 2), tc.silu):
            h = op(h)
            refs.append(weakref.ref(h.data))
            kept.append(h)
        loss = tc.sum_all(tc.conv1d(h, w, b))
        del h
        if not keep:
            del kept
        alive = [r() is not None for r in refs]
        grads = tape.backward(loss)
    return [grads[id(t)].tobytes() for t in (x, y, gamma, beta, w, b)], alive


def test_a_tape_keeps_only_the_arrays_backward_reads():
    kept, alive = _norm_chain(keep=True)
    assert alive == [True, True, True]
    grads, alive = _norm_chain(keep=False)
    # silu's backward reads its input, group_norm's output; nothing reads
    # add's output or silu's, since conv1d copies its input
    assert alive == [False, True, False]
    assert grads == kept


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["add", "mul", "silu", "sqrt", "matmul", "conv"]),
)
def test_property_fd_agreement(seed, kind):
    rng = np.random.default_rng(seed)
    if kind in ("add", "mul"):
        a, b = rng.uniform(-2, 2, (2, 2, 3)), rng.uniform(-2, 2, (2, 3))
        op = tc.add if kind == "add" else tc.mul
        _check_against_fd(lambda x, y: op(x, y), a[0], b)
    elif kind == "silu":
        _check_against_fd(lambda x: tc.silu(x), rng.uniform(-2, 2, (3, 4)))
    elif kind == "sqrt":
        _check_against_fd(lambda x: tc.sqrt(x), rng.uniform(0.1, 2, (3, 4)))
    elif kind == "matmul":
        a, b = rng.uniform(-2, 2, (2, 3)), rng.uniform(-2, 2, (3, 2))
        _check_against_fd(lambda x, y: tc.matmul(x, y), a, b, tol=1e-4)
    else:
        x = rng.uniform(-2, 2, (2, 6))
        k = rng.uniform(-1, 1, (2, 2, 3))
        _check_against_fd(lambda xx, kk: tc.conv1d(xx, kk), x, k)


# ------------------------------------------------ one formula per op (bits)
# Every op the U-Net records gives the same forward bits inside a
# GradTape, with inputs that track gradients, as outside any tape.

_RECORDED_OPS = {
    # B 3, Cin 4, Cout 5, K 5, T 9
    "conv1d": (tc.conv1d, [(3, 4, 9), (5, 4, 5), (5,)]),
    "conv1d-stride2": (lambda x, w, b: tc.conv1d(x, w, b, stride=2),
                       [(2, 6, 16), (4, 6, 3), (4,)]),
    "group_norm": (lambda x, g, b: tc.group_norm(x, g, b, 3),
                   [(3, 6, 16), (6,), (6,)]),
    "silu": (tc.silu, [(3, 6, 16)]),
    "self_attention": (tc.self_attention, [(3, 8, 16)] + [(8, 8)] * 3),
    "matmul": (tc.matmul, [(16, 16), (16, 4)]),  # 4 columns
    "add_bias": (tc.add_bias, [(3, 6, 16), (6,)]),
    "add_time": (tc.add_time, [(3, 6, 16), (6, 3)]),
}


@pytest.mark.parametrize("name", list(_RECORDED_OPS))
def test_op_gives_the_same_bits_on_and_off_a_tape(name):
    op, shapes = _RECORDED_OPS[name]
    rng = np.random.default_rng(list(name.encode()))
    arrays = [rng.standard_normal(shape) for shape in shapes]
    off = op(*[Tensor(a) for a in arrays])
    with GradTape():
        on = op(*[_leaf(a) for a in arrays])
    assert on.requires_grad and not off.requires_grad
    assert on.data.tobytes() == off.data.tobytes()


# ------------------------------------------------- reference kernels (bits)
# The forward kernels as first written: np.pad + sliding_window_view for
# conv1d, boolean-mask indexing for the sigmoid, np.mean + np.var for
# group_norm. The inference kernels (or the ops off a tape) must give the
# reference's inference bits, and the ops on a tape its output and
# gradients. Each reference returns (out, grads) for the upstream
# gradient g.

def _assert_same_bits(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _ref_conv1d(xd, wd, bd, stride, g, on_tape):
    B, Cin, T = xd.shape
    Cout, _, K = wd.shape
    P = (K - 1) // 2
    xp = np.pad(xd, ((0, 0), (0, 0), (P, P)))
    win = sliding_window_view(xp, K, axis=2)[:, :, ::stride, :]
    Tp = win.shape[2]
    W2 = wd.reshape(Cout, Cin * K)
    if not on_tape:
        cols = np.ascontiguousarray(win.transpose(0, 1, 3, 2))
        return np.matmul(W2, cols.reshape(B, Cin * K, Tp)) + bd[:, None], None
    cols = np.ascontiguousarray(win.transpose(1, 3, 0, 2)).reshape(Cin * K, B * Tp)
    o2 = W2 @ cols
    od = np.ascontiguousarray(o2.reshape(Cout, B, Tp).transpose(1, 0, 2))
    g2 = np.ascontiguousarray(g.transpose(1, 0, 2)).reshape(Cout, B * Tp)
    dW = (g2 @ cols.T).reshape(wd.shape)
    dcols = (W2.T @ g2).reshape(Cin, K, B, Tp)
    dxp = np.zeros((B, Cin, T + 2 * P))
    for k in range(K):
        dxp[:, :, k : k + stride * Tp : stride] += dcols[:, k].transpose(1, 0, 2)
    return od + bd[:, None], (dxp[:, :, P : P + T], dW, g.sum(axis=(0, 2)))


def _ref_silu(xd, g):
    pos = xd >= 0
    s = np.empty_like(xd)
    s[pos] = 1.0 / (1.0 + np.exp(-xd[pos]))
    e = np.exp(xd[~pos])
    s[~pos] = e / (1.0 + e)
    if g is None:
        return xd * s, None
    return xd * s, (g * (s * (1.0 + xd * (1.0 - s))),)


def _ref_group_norm(xd, gd_, bd, groups, g):
    B, C, T = xd.shape
    x4 = xd.reshape(B, groups, C // groups, T)
    m = x4.mean(axis=(2, 3), keepdims=True)
    v = x4.var(axis=(2, 3), keepdims=True)
    inv = 1.0 / np.sqrt(v + tc.GN_EPS)
    xh4 = (x4 - m) * inv
    xh = xh4.reshape(B, C, T)
    out = xh * gd_[:, None] + bd[:, None]
    if g is None:
        return out, None
    dxh4 = (g * gd_[:, None]).reshape(B, groups, C // groups, T)
    mean_d = dxh4.mean(axis=(2, 3), keepdims=True)
    mean_dx = (dxh4 * xh4).mean(axis=(2, 3), keepdims=True)
    dx = ((dxh4 - mean_d - xh4 * mean_dx) * inv).reshape(B, C, T)
    return out, (dx, (g * xh).sum(axis=(0, 2)), g.sum(axis=(0, 2)))


def _against_reference(op, ref, arrays, rng, kernel=None):
    """The kernel's output (by default the op's, off a tape), then the
    op's output and gradients on a tape (upstream gradient g), bit for bit
    against the reference."""
    off = (kernel(*arrays) if kernel is not None
           else op(*[Tensor(a) for a in arrays]).data)
    _assert_same_bits(off, ref(*arrays, g=None, on_tape=False)[0])
    leaves = [_leaf(a) for a in arrays]
    with GradTape() as tape:
        out = op(*leaves)
        g = rng.standard_normal(out.data.shape)
        loss = tc.sum_all(tc.mul(out, Tensor(g)))
    grads = tape.backward(loss)
    want, want_grads = ref(*arrays, g=g, on_tape=True)
    _assert_same_bits(out.data, want)
    for leaf, wg in zip(leaves, want_grads):
        _assert_same_bits(grads[id(leaf)], wg)


@pytest.mark.parametrize("K", [1, 3, 5])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("T", [9, 10])
@pytest.mark.parametrize("B", [1, 3])
def test_conv1d_matches_reference_bits(K, stride, T, B):
    rng = np.random.default_rng([K, stride, T, B])
    x = rng.uniform(-2, 2, (B, 4, T))
    w = rng.uniform(-1, 1, (5, 4, K))
    b = rng.uniform(-1, 1, 5)
    _against_reference(
        lambda xx, ww, bb: tc.conv1d(xx, ww, bb, stride=stride),
        lambda xx, ww, bb, g, on_tape: _ref_conv1d(xx, ww, bb, stride, g,
                                                   on_tape),
        (x, w, b), rng,
        kernel=lambda xx, ww, bb: tc.kernels.conv1d(
            xx, ww.reshape(5, -1), bb[:, None], stride))


def test_silu_matches_reference_bits_in_the_tails():
    rng = np.random.default_rng(13)
    x = np.concatenate([[1e300, -1e300, 800.0, -800.0, 0.0, -0.0, 1e-300],
                        rng.uniform(-30, 30, 25)]).reshape(4, 8)
    _against_reference(tc.silu, lambda xx, g, on_tape: _ref_silu(xx, g),
                       (x,), rng)


@pytest.mark.parametrize("offset,spread", [(0.0, 1.0), (1e6, 1e-3),
                                           (-3e8, 1e2), (0.0, 1e-6),
                                           (5.0, 1e7)])
def test_group_norm_matches_reference_bits(offset, spread):
    rng = np.random.default_rng(14)
    x = offset + spread * rng.standard_normal((3, 6, 16))
    gamma = rng.uniform(0.5, 1.5, 6)
    beta = rng.uniform(-1, 1, 6)
    _against_reference(
        lambda xx, gg, bb: tc.group_norm(xx, gg, bb, groups=3),
        lambda xx, gg, bb, g, on_tape: _ref_group_norm(xx, gg, bb, 3, g),
        (x, gamma, beta), rng)


# ------------------------------------------ tape kernels before in place (bits)
# The tape-path kernels as they were before their temporaries went in
# place and channel_linear went channel-major: silu's sigmoid chain and
# backward factor, group_norm's affine step and backward, conv1d's
# on-tape product, bias add and col2im backward, softmax's exp and
# normalization, and channel_linear's einsum over T. Each returns (out, grads or None) for the upstream
# gradient g; an op must match it bit for bit off and on a tape.

def _prior_silu(xd, g):
    e = np.exp(-np.abs(xd))
    s = np.where(xd >= 0, 1.0, e)
    e += 1.0
    s /= e
    if g is None:
        return xd * s, None
    return xd * s, (g * (s * (1.0 + xd * (1.0 - s))),)


def _prior_group_norm(xd, gd_, bd, groups, g):
    squeeze = xd.ndim == 2
    x3 = xd[None] if squeeze else xd
    B, C, T = x3.shape
    x4 = x3.reshape(B, groups, C // groups, T)
    n = x4.shape[2] * x4.shape[3]
    xh4 = x4 - x4.sum(axis=(2, 3), keepdims=True) / n
    v = (xh4 * xh4).sum(axis=(2, 3), keepdims=True) / n
    inv = 1.0 / np.sqrt(v + tc.GN_EPS)
    xh4 *= inv
    xh = xh4.reshape(B, C, T)
    od = xh * gd_[:, None] + bd[:, None]
    out = od[0] if squeeze else od
    if g is None:
        return out, None
    g3 = g[None] if squeeze else g
    dxh4 = (g3 * gd_[:, None]).reshape(B, groups, C // groups, T)
    mean_d = dxh4.mean(axis=(2, 3), keepdims=True)
    mean_dx = (dxh4 * xh4).mean(axis=(2, 3), keepdims=True)
    dx = ((dxh4 - mean_d - xh4 * mean_dx) * inv).reshape(B, C, T)
    return out, (dx[0] if squeeze else dx, (g3 * xh).sum(axis=(0, 2)),
                 g3.sum(axis=(0, 2)))


def _prior_conv1d_on_tape(xd, wd, bd, stride, g):
    squeeze = xd.ndim == 2
    x3 = xd[None] if squeeze else xd
    B, Cin, T = x3.shape
    Cout, _, K = wd.shape
    P = (K - 1) // 2
    Tp = (T - 1) // stride + 1
    xp = np.zeros((B, Cin, T + 2 * P))
    xp[:, :, P : P + T] = x3
    W2 = wd.reshape(Cout, Cin * K)
    cols = np.empty((Cin, K, B, Tp))
    for k in range(K):
        cols[:, k] = xp[:, :, k : k + stride * Tp : stride].transpose(1, 0, 2)
    cols = cols.reshape(Cin * K, B * Tp)
    od = np.ascontiguousarray((W2 @ cols).reshape(Cout, B, Tp).transpose(1, 0, 2))
    od = od + bd[:, None]
    g3 = g[None] if squeeze else g
    g2 = np.ascontiguousarray(g3.transpose(1, 0, 2)).reshape(Cout, B * Tp)
    dW = (g2 @ cols.T).reshape(wd.shape)
    dcols = (W2.T @ g2).reshape(Cin, K, B, Tp)
    dxp = np.zeros((B, Cin, T + 2 * P))
    for k in range(K):
        dxp[:, :, k : k + stride * Tp : stride] += dcols[:, k].transpose(1, 0, 2)
    dx = dxp[:, :, P : P + T]
    return (od[0] if squeeze else od), (dx[0] if squeeze else dx, dW,
                                        g3.sum(axis=(0, 2)))


def _prior_channel_linear(wd, xd, g):
    out = np.einsum("oc,...ct->...ot", wd, xd)
    if g is None:
        return out, None
    gb = g.reshape((-1,) + g.shape[-2:])
    xb = xd.reshape((-1,) + xd.shape[-2:])
    return out, (np.einsum("bot,bct->oc", gb, xb),
                 np.einsum("oc,...ot->...ct", wd, g))


def _prior_softmax_last(zd, g):
    zd = zd - zd.max(axis=-1, keepdims=True)
    e = np.exp(zd)
    yd = e / e.sum(axis=-1, keepdims=True)
    if g is None:
        return yd, None
    return yd, (yd * (g - (g * yd).sum(axis=-1, keepdims=True)),)


def _against_prior(op, ref, arrays, needs_grad, rng, off_tape=True):
    """Op output off a tape (unless off_tape is False), then output and
    the gradients of the inputs flagged in needs_grad on a tape, bit for
    bit against the reference."""
    if off_tape:
        _assert_same_bits(op(*[Tensor(a) for a in arrays]).data,
                          ref(*arrays, g=None)[0])
    ins = [Tensor(a, requires_grad=r) for a, r in zip(arrays, needs_grad)]
    with GradTape() as tape:
        out = op(*ins)
        g = rng.standard_normal(out.data.shape)
        loss = tc.sum_all(tc.mul(out, Tensor(g)))
    grads = tape.backward(loss)
    want, want_grads = ref(*arrays, g=g)
    _assert_same_bits(out.data, want)
    assert set(grads) == {id(t) for t in ins if t.requires_grad}
    for t, wg in zip(ins, want_grads):
        if t.requires_grad:
            _assert_same_bits(grads[id(t)], wg)


@pytest.mark.parametrize("shape,K,stride,x_grad", [
    ((1, 4, 10), 3, 1, True),   # B = 1
    ((4, 10), 3, 1, True),      # one (C, T) matrix
    ((4, 9), 5, 2, True),
    ((3, 4, 9), 3, 2, True),    # stride 2
    ((2, 4, 8), 1, 1, True),    # K = 1
    ((2, 4, 8), 1, 2, True),
    ((3, 4, 10), 3, 1, False),  # input without grad, as the stem's x_n
    ((4, 9), 5, 2, False),
])
def test_conv1d_tape_matches_prior_bits(shape, K, stride, x_grad):
    rng = np.random.default_rng([len(shape), shape[-1], K, stride, x_grad])
    x = rng.uniform(-2, 2, shape)
    w = rng.uniform(-1, 1, (5, 4, K))
    b = rng.uniform(-1, 1, 5)
    _against_prior(
        lambda xx, ww, bb: tc.conv1d(xx, ww, bb, stride=stride),
        lambda xx, ww, bb, g: _prior_conv1d_on_tape(xx, ww, bb, stride, g),
        (x, w, b), (x_grad, True, True), rng, off_tape=False)


@pytest.mark.parametrize("shape", [(1, 5, 7), (5, 7), (3, 6, 8), (2, 3, 4, 5)])
def test_silu_tape_matches_prior_bits(shape):
    rng = np.random.default_rng(list(shape))
    x = rng.uniform(-30, 30, shape)
    x.flat[:4] = (1e300, -800.0, -0.0, 1e-300)
    _against_prior(tc.silu, _prior_silu, (x,), (True,), rng)


@pytest.mark.parametrize("shape,x_grad", [((1, 6, 16), True), ((6, 16), True),
                                          ((3, 6, 10), True),
                                          ((3, 6, 10), False),
                                          ((6, 16), False)])
def test_group_norm_tape_matches_prior_bits(shape, x_grad):
    rng = np.random.default_rng([len(shape), shape[-1], x_grad])
    x = 5.0 + 3.0 * rng.standard_normal(shape)
    gamma = rng.uniform(0.5, 1.5, 6)
    beta = rng.uniform(-1, 1, 6)
    _against_prior(
        lambda xx, gg, bb: tc.group_norm(xx, gg, bb, groups=3),
        lambda xx, gg, bb, g: _prior_group_norm(xx, gg, bb, 3, g),
        (x, gamma, beta), (x_grad, True, True), rng)


@pytest.mark.parametrize("shape,grad", [
    ((32, 48, 16), (True, True)),   # the steady fixture's bottleneck
    ((1, 48, 16), (True, True)),    # B = 1
    ((48, 16), (True, True)),       # one (C, T) matrix
    ((3, 32, 4), (True, True)),     # the toy fixture's bottleneck
    ((2, 3, 7, 9), (True, True)),
    ((5, 12, 16), (True, False)),   # input without grad
    ((5, 12, 16), (False, True)),
])
def test_channel_linear_matches_prior_bits(shape, grad):
    rng = np.random.default_rng(list(shape))
    C = shape[-2]
    w = rng.standard_normal((C, C)) / np.sqrt(C)
    x = rng.standard_normal(shape)
    _against_prior(tc.channel_linear, _prior_channel_linear, (w, x), grad, rng)


# ------------------------------------------- fused norm -> silu -> conv (bits)
# The bound model's norm -> silu -> conv, the norm_silu_conv kernel, must
# give the reference conv1d's inference bits over the prior silu and
# group_norm; the norm_silu_conv op on a tape must give the prior output
# and every gradient.

def _prior_sigmoid(x):
    e = np.exp(-np.abs(x))
    s = np.where(x >= 0, 1.0, e)
    e += 1.0
    s /= e
    return s


def test_sigmoid_matches_prior_bits():
    rng = np.random.default_rng(15)
    x = np.concatenate([[np.inf, -np.inf, np.nan, 0.0, -0.0, 800.0, -800.0],
                        rng.standard_normal(57) * 40.0]).reshape(4, 16)
    _assert_same_bits(tc._sigmoid(x), _prior_sigmoid(x))


def _prior_norm_silu_conv(xd, gd_, bd, wd, cb, groups, g):
    h, _ = _prior_group_norm(xd, gd_, bd, groups, None)
    a, _ = _prior_silu(h, None)
    if g is None:
        return _ref_conv1d(a, wd, cb, 1, None, on_tape=False)[0], None
    out, (da, dw, dcb) = _prior_conv1d_on_tape(a, wd, cb, 1, g)
    _, (dh,) = _prior_silu(h, da)
    _, (dx, dgd, dbd) = _prior_group_norm(xd, gd_, bd, groups, dh)
    return out, (dx, dgd, dbd, dw, dcb)


def _fused_inputs(rng, B, C, T):
    return (3.0 + 2.0 * rng.standard_normal((B, C, T)),
            rng.uniform(0.5, 1.5, C), rng.uniform(-1, 1, C),
            rng.standard_normal((C, C, 3)) / np.sqrt(3 * C),
            rng.uniform(-1, 1, C))


def _fused_kernels(x, gamma, beta, w, b):
    """The bound model's norm -> silu -> conv at 8 groups."""
    return tc.kernels.norm_silu_conv(x, gamma[:, None], beta[:, None], 8,
                                     w.reshape(len(w), -1), b[:, None])


def _chain(x, gamma, beta, w, b):
    return tc.norm_silu_conv(x, gamma, beta, 8, w, b)


@pytest.mark.parametrize("B", [1, 16, 33])
@pytest.mark.parametrize("T", [16, 64])
@pytest.mark.parametrize("C", [16, 24, 48])
def test_norm_silu_conv_matches_prior_bits(B, T, C):
    rng = np.random.default_rng([B, T, C])
    ins = _fused_inputs(rng, B, C, T)

    def prior(xx, gg, bb, ww, cc, g):
        return _prior_norm_silu_conv(xx, gg, bb, ww, cc, 8, g)

    _assert_same_bits(_fused_kernels(*ins), prior(*ins, g=None)[0])
    _against_prior(_chain, prior, ins, (True,) * 5, rng, off_tape=False)


def _outcome(fn):
    try:
        with np.errstate(all="ignore"):
            out = fn()
            return getattr(out, "data", out).tobytes()
    except (FloatingPointError, ValueError) as e:
        return type(e), str(e)


@pytest.mark.parametrize("case", ["nan", "inf", "huge", "overflow", "affine",
                                  "kernel"])
@pytest.mark.parametrize("taped", [False, True])
def test_norm_silu_conv_fails_as_the_chain(case, taped):
    # neither checks its result finite, so a NaN or an infinity comes out
    # of both at the same entries, whether the chain records or not; a
    # misshapen parameter, which the binding rejects before any kernel
    # runs, still makes the kernels raise rather than return
    rng = np.random.default_rng(16)
    x, gamma, beta, w, b = _fused_inputs(rng, 2, 16, 16)
    if case == "nan":
        x[1, 3, 5] = np.nan
    elif case == "inf":
        x[0, 0, 0] = -np.inf
    elif case == "huge":
        x[1] *= 1e300
    elif case == "overflow":  # conv1d's own result overflows
        w *= 1e308
    elif case == "affine":
        gamma = gamma[:-1]
    else:
        w = w[:, :-1]
    ins = [Tensor(a, requires_grad=taped) for a in (x, gamma, beta, w, b)]

    def chain():
        with GradTape():
            return _chain(*ins)

    want = _outcome(chain)
    got = _outcome(lambda: _fused_kernels(x, gamma, beta, w, b))
    if case == "huge":
        assert got == _outcome(
            lambda: _prior_norm_silu_conv(x, gamma, beta, w, b, 8, None)[0])
    elif case in ("affine", "kernel"):
        assert want[0] is got[0] is ValueError
        assert want[1].startswith(("group_norm: ", "conv1d: "))
    else:
        with np.errstate(all="ignore"):
            want, got = chain().data, _fused_kernels(x, gamma, beta, w, b)
        assert not np.isfinite(want).all()
        _assert_same_bits(np.isfinite(got), np.isfinite(want))


@pytest.mark.parametrize("K, stride", [(1, 1), (3, 1), (3, 2), (5, 2)])
def test_windows_is_the_sliding_window_view(K, stride):
    xp = np.random.default_rng(17).standard_normal((3, 4, 16 + K - 1))
    want = sliding_window_view(xp, K, axis=2)[:, :, ::stride]
    got = tc._windows(xp, K, stride, (16 - 1) // stride + 1)
    assert np.shares_memory(got, xp)
    _assert_same_bits(got.copy(), want.transpose(0, 1, 3, 2).copy())


def test_windows_refuses_a_buffer_it_would_misread():
    xp = np.zeros((2, 4, 34))
    with pytest.raises(ValueError):  # not contiguous
        tc._windows(xp[:, :, ::2], 3, 1, 15)
    with pytest.raises(ValueError):  # the last window reads past the end
        tc._windows(xp, 3, 1, 33)


def _prior_self_attention(xd, wq, wk, wv, g=None):
    """The chain of ops attention once recorded: channel_linear for q, k
    and v, then scores, a scale by 1/sqrt(C), softmax and the weighted
    values, over x lifted to (B, C, T). With g, also the gradients a tape
    gave x, wq, wk and wv, x's terms summed v, then k, then q."""
    x3 = xd.reshape(-1, *xd.shape[-2:])
    q, k, v = (_prior_channel_linear(w, x3, None)[0] for w in (wq, wk, wv))
    c = 1.0 / math.sqrt(xd.shape[-2])
    z = np.einsum("bct,bcu->btu", q, k) * c
    a, _ = _prior_softmax_last(z, None)
    out = np.einsum("bcu,btu->bct", v, a).reshape(xd.shape)
    if g is None:
        return out, None
    g3 = g.reshape(x3.shape)
    dv = np.einsum("bct,btu->bcu", g3, a)
    _, (dz,) = _prior_softmax_last(z, np.einsum("bct,bcu->btu", g3, v))
    dz = dz * c
    dq = np.einsum("bcu,btu->bct", k, dz)
    dk = np.einsum("bct,btu->bcu", q, dz)
    dw, dx = [], None
    for w, d in ((wv, dv), (wk, dk), (wq, dq)):
        _, (dwi, dxi) = _prior_channel_linear(w, x3, d)
        dw.append(dwi)
        dx = dxi if dx is None else dx + dxi
    return out, (dx.reshape(xd.shape), *dw[::-1])


@pytest.mark.parametrize("shape", [(1, 48, 16), (16, 48, 16), (48, 16),
                                   (2, 16, 256)])
@pytest.mark.parametrize("taped", [False, True])
def test_self_attention_matches_prior_bits(shape, taped):
    rng = np.random.default_rng(list(shape))
    C = shape[-2]
    x = rng.standard_normal(shape)
    ws = [rng.standard_normal((C, C)) / np.sqrt(C) for _ in range(3)]
    with GradTape():
        out = tc.self_attention(Tensor(x, requires_grad=taped),
                                *[Tensor(w, requires_grad=taped) for w in ws])
    _assert_same_bits(out.data, _prior_self_attention(x, *ws)[0])


@pytest.mark.parametrize("shape", [(32, 48, 16),  # the steady bottleneck
                                   (1, 48, 16), (48, 16),
                                   (3, 32, 4),    # the toy bottleneck
                                   (32, 4), (2, 5, 7)])
def test_self_attention_gradients_match_prior_bits(shape):
    rng = np.random.default_rng([7] + list(shape))
    C = shape[-2]
    x = rng.standard_normal(shape)
    ws = [rng.standard_normal((C, C)) / np.sqrt(C) for _ in range(3)]
    _against_prior(tc.self_attention, _prior_self_attention, (x, *ws),
                   (True,) * 4, rng)


def test_attend_carries_non_finite_scores_and_never_raises():
    # C = 2, T = 4. Stack 0: query 0 is NaN, so score row 0 is. Stack 1:
    # key 0 is +inf in channel 0, so rows 0 and 2 (positive query) hold a
    # +inf score and rows 1 and 3 a -inf one beside finite scores
    q = np.array([[[np.nan, 0.5, -1.0, 2.0], [0.3, -0.6, 0.9, 0.1]],
                  [[1.0, -1.0, 0.5, -2.0], [0.7, 0.2, -0.4, 1.1]]])
    k = np.array([[[1.0, 2.0, 3.0, 4.0], [0.2, -0.1, 0.5, 0.3]],
                  [[np.inf, 1.0, 2.0, 3.0], [0.3, -0.2, 0.1, 0.4]]])
    v = np.random.default_rng(31).standard_normal((2, 2, 4))
    with np.errstate(invalid="ignore"):
        out, _ = tc._attend(q, k, v)
    assert np.isnan(out[0, :, 0]).all()
    assert np.isfinite(out[0, :, 1:]).all()
    for t in (0, 2):
        assert np.isnan(out[1, :, t]).all()
    for t in (1, 3):  # weight 0 on key 0: attention over keys 1..3
        z = q[1, :, t] @ k[1, :, 1:] / math.sqrt(2)
        w = np.exp(z - z.max())
        want = v[1, :, 1:] @ (w / w.sum())
        assert np.abs(out[1, :, t] - want).max() <= 1e-12


# ------------------------------------- off-tape results that go unchecked

# the float extremes: the largest finite magnitude, the smallest
# subnormal and both zeros
_EXTREMES = [1.79e308, -1.79e308, 5e-324, -5e-324, 0.0, -0.0]
_finite = st.one_of(st.sampled_from(_EXTREMES),
                    st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=200, deadline=None)
@given(st.lists(_finite, min_size=1, max_size=64))
def test_silu_of_finite_is_finite_and_no_larger(values):
    # why the norm_silu_conv kernel need not check silu's result
    h = np.array(values)
    y = h * tc._sigmoid(h)
    assert np.isfinite(y).all()
    assert (np.abs(y) <= np.abs(h)).all()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(_finite, min_size=6, max_size=6), min_size=1,
                max_size=6))
def test_softmax_of_finite_rows_is_finite(rows):
    # why the self_attention kernel does not check its softmax
    z = np.array(rows)
    with np.errstate(over="ignore"):  # z - max may round to -inf: exp gives 0
        y = tc._softmax_rows(z)
        y_in_place = z.copy()
        tc._softmax_rows(y_in_place, out=y_in_place)
    assert np.isfinite(y).all()
    _assert_same_bits(y_in_place, y)


@settings(max_examples=200, deadline=None)
@given(st.lists(_finite, min_size=1, max_size=64),
       st.integers(min_value=1, max_value=4096))
def test_scaled_finite_scores_stay_finite(values, C):
    # why the self_attention kernel does not check its scaled scores
    a = np.array(values)
    a *= 1.0 / math.sqrt(C)
    assert np.isfinite(a).all()
