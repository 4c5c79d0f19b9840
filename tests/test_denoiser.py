import contextlib
import copy
import math
import threading
import tracemalloc

import numpy as np
import pytest

import tsdm.denoiser as dn
import tsdm.tensor as tc
from tsdm.denoiser import (
    Adam,
    DenoiserConfig,
    DenoiserParams,
    TrainConfig,
    diffusion_loss,
    init_params,
    predict_noise,
    time_embed,
    train,
    training_step,
)
from tsdm.schedule import linear_schedule
from tsdm.tensor import GradTape, Tensor

TOY_CFG = DenoiserConfig(channels_in=4, base_width=8, depth=2,
                         time_embed_dim=8, kernel=3)


# ------------------------------------------------------------------ configs

def test_config_validation():
    with pytest.raises(ValueError):
        DenoiserConfig(channels_in=4, depth=0)
    with pytest.raises(ValueError):
        DenoiserConfig(channels_in=4, time_embed_dim=7)
    with pytest.raises(ValueError):
        DenoiserConfig(channels_in=4, kernel=4)
    with pytest.raises(ValueError):
        DenoiserConfig(channels_in=0)
    DenoiserConfig(channels_in=4, depth=2).validate_window(64)
    with pytest.raises(ValueError):
        DenoiserConfig(channels_in=4, depth=2).validate_window(66)


def test_a_zero_length_window_names_T(toy_model):
    message = "^T=0: a window needs at least one time step$"
    for x in (np.zeros((4, 0)), np.zeros((2, 4, 0))):
        with pytest.raises(ValueError, match=message):
            predict_noise(toy_model, x, 5)
    with pytest.raises(ValueError, match=message):
        train(np.zeros((3, 4, 0)), TOY_CFG, TrainConfig(epochs=1, batch_size=2))


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0, batch_size=4)
    with pytest.raises(ValueError):
        TrainConfig(epochs=1, batch_size=4, learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=1, batch_size=4, grad_clip=-1.0)


# -------------------------------------------------------------- time embed

def test_time_embed_zero_phase():
    np.testing.assert_allclose(time_embed(0, 2), [0.0, 1.0])


def test_time_embed_deterministic_and_distinct():
    np.testing.assert_array_equal(time_embed(17, 64), time_embed(17, 64))
    d = np.linalg.norm(time_embed(10, 64) - time_embed(90, 64))
    assert d > 0.1


def test_time_embed_rejects_odd_dim():
    with pytest.raises(ValueError):
        time_embed(5, 7)


# ------------------------------------------------------------ predict_noise

def test_untrained_head_predicts_zero():
    params = init_params(TOY_CFG, seed=0)
    x = np.random.default_rng(0).standard_normal((4, 16))
    np.testing.assert_array_equal(predict_noise(params, x, 50), np.zeros((4, 16)))


def test_predict_shape_contract_and_batching():
    cfg = DenoiserConfig(channels_in=8, base_width=8, depth=2,
                         time_embed_dim=8, kernel=3)
    params = init_params(cfg, seed=1)
    rng = np.random.default_rng(1)
    assert predict_noise(params, rng.standard_normal((8, 64)), 3).shape == (8, 64)
    assert predict_noise(params, rng.standard_normal((5, 8, 64)),
                         3).shape == (5, 8, 64)
    with pytest.raises(ValueError):
        predict_noise(params, rng.standard_normal((7, 64)), 3)
    with pytest.raises(ValueError):
        predict_noise(params, rng.standard_normal((8, 66)), 3)


def test_predict_noise_deterministic():
    params = init_params(TOY_CFG, seed=2)
    params["head.conv.w"].data += 0.05
    x = np.random.default_rng(3).standard_normal((4, 16))
    np.testing.assert_array_equal(predict_noise(params, x, 9),
                                  predict_noise(params, x, 9))


@pytest.mark.parametrize("B", [2, 3, 5, 8])
def test_stacked_predict_is_bit_identical_to_single(toy_model, B):
    # One step index for the whole stack, as in lockstep recovery: every
    # row must carry exactly the bits of its one-window call.
    xb = np.random.default_rng(B).standard_normal((B, 4, 16))
    for n in (1, 37, 100):
        stacked = predict_noise(toy_model, xb, n)
        for b in range(B):
            assert np.array_equal(stacked[b], predict_noise(toy_model, xb[b], n))


@pytest.mark.parametrize("n", [3.7, -0.5, np.nan, np.inf])
def test_predict_noise_rejects_a_step_that_is_not_an_integer(toy_model, n):
    model = copy.deepcopy(toy_model)
    model._step_memo = None
    x = np.zeros((1, 4, 16))
    with pytest.raises(ValueError, match="^step index must be an integer, got "):
        predict_noise(model, x, n)
    assert model._step_memo is None  # raised before any work


@pytest.mark.parametrize("n", [np.array([8]), np.array([3.0, 3.0]), [8, 9],
                               np.array([3.5]), np.array([2.0, np.nan])],
                         ids=["one", "equal-floats", "list", "fraction", "nan"])
def test_predict_noise_rejects_an_array_step(toy_model, n):
    model = copy.deepcopy(toy_model)
    model._step_memo = model._binding = None
    x = np.zeros((np.size(n), 4, 16))
    with pytest.raises(ValueError,
                       match="^step index must be one integer for every row$"):
        predict_noise(model, x, n)
    assert model._step_memo is None and model._binding is None  # no work


def test_predict_noise_rejects_an_empty_stack(toy_model):
    model = copy.deepcopy(toy_model)
    model._step_memo = model._binding = None
    with pytest.raises(ValueError, match=r"^input shape \(0, 4, 16\) is an "
                                         r"empty stack: no window to predict$"):
        predict_noise(model, np.zeros((0, 4, 16)), 5)
    assert model._step_memo is None and model._binding is None  # no work


def test_predict_noise_runs_an_integral_float_step(toy_model):
    x = np.random.default_rng(4).standard_normal((2, 4, 16))
    want = predict_noise(toy_model, x, 3)
    assert predict_noise(toy_model, x, 3.0).tobytes() == want.tobytes()


# ------------------------------------------- memoized step projections

def _copied(params):
    """A fresh model, memo cold, built from copies of params' values."""
    return DenoiserParams(params.config, {
        k: Tensor(t.data.copy(), requires_grad=True) for k, t in params.items()})


def _same(a, b):
    return a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name, edit", [
    ("temb.fc1.w", "add"),
    ("enc1.rb0.temb.b", "add"),
    ("temb.fc2.b", "negate_zero"),
    ("dec0.rb1.temb.b", "negate_zero"),
])
def test_memo_sees_an_in_place_edit(toy_model, name, edit):
    model = _copied(toy_model)
    x = np.random.default_rng(11).standard_normal((4, 16))
    if edit == "negate_zero":
        model[name].data[0] = 0.0
    before = predict_noise(model, x, 25)  # warms the memo
    held = model._step_memo
    if edit == "add":
        model[name].data[0] += 0.25
    else:  # equal values, other bytes
        model[name].data[0] = -0.0
    got = predict_noise(model, x, 25)
    assert _same(got, predict_noise(_copied(model), x, 25))
    assert model._step_memo is not held
    if edit == "add":
        assert not _same(got, before)


def test_memo_sees_an_edit_after_deepcopy(toy_model):
    model = _copied(toy_model)
    x = np.random.default_rng(12).standard_normal((4, 16))
    before = predict_noise(model, x, 60)  # warms the memo
    dup = copy.deepcopy(model)
    assert _same(predict_noise(dup, x, 60), before)
    dup["mid.rb1.temb.w"].data -= 0.125
    got = predict_noise(dup, x, 60)
    assert _same(got, predict_noise(_copied(dup), x, 60))
    assert not _same(got, before)
    assert _same(predict_noise(model, x, 60), before)  # the original is untouched


def test_overflowing_projection_raises_on_every_call(toy_model):
    model = _copied(toy_model)
    x = np.random.default_rng(14).standard_normal((4, 16))
    predict_noise(model, x, 30)  # warms the memo
    w = model["mid.rb1.temb.w"].data
    w *= 1e300
    w[0] = 1e308
    for _ in range(3):
        with np.errstate(over="ignore"):
            with pytest.raises(FloatingPointError,
                               match="^matmul: non-finite values in result$"):
                predict_noise(model, x, 30)
        assert model._step_memo[1] == {}  # never kept


def test_training_neither_reads_nor_fills_the_memo(toy_model, sched100):
    model = _copied(toy_model)
    ref = _copied(toy_model)
    x = np.random.default_rng(15).standard_normal((4, 16))
    predict_noise(model, x, 40)  # warms the memo
    key, memo = model._step_memo
    for cols in memo[40].values():  # poison it: a read would show
        cols[...] = 1e6
    batch = np.random.default_rng(16).standard_normal((8, 4, 16))
    n_vec = np.array([40, 40, 7, 7, 93, 1, 40, 2])
    eps = np.random.default_rng(17).standard_normal(batch.shape)
    losses = []
    for p in (model, ref):
        with GradTape() as tape:
            loss = diffusion_loss(p, batch, n_vec, eps, sched100)
            grads = tape.backward(loss)
        losses.append((loss.data.tobytes(),
                       [grads[id(t)].tobytes() for _, t in p.items()]))
    assert losses[0] == losses[1]
    assert model._step_memo[0] == key and model._step_memo[1] is memo
    assert list(memo) == [40]
    rng = np.random.default_rng(18)
    training_step(model, batch, sched100, rng, Adam(model, 1e-3))
    assert model._step_memo[0] == key and list(model._step_memo[1]) == [40]


# ------------------------------------------------- the bound model

def _warm(model, x, n):
    """predict_noise(model, x, n), after which model holds its binding."""
    out = predict_noise(model, x, n)
    assert model._binding is not None
    return out


def test_binding_is_kept_between_calls(toy_model):
    model = _copied(toy_model)
    x = np.random.default_rng(19).standard_normal((4, 16))
    _warm(model, x, 8)
    held = model._binding
    predict_noise(model, x, 8)
    assert model._binding is held


@pytest.mark.parametrize("name", ["enc0.rb1.conv2.w", "mid.rb0.gn1.g",
                                  "dec1.rb0.skip.w"])
@pytest.mark.parametrize("order", ["C", "F"])
def test_binding_sees_an_in_place_edit(toy_model, name, order):
    model = _copied(toy_model)
    model[name].data = np.asarray(model[name].data, order=order)
    x = np.random.default_rng(20).standard_normal((4, 16))
    before = predict_noise(model, x, 33)
    # a Fortran-ordered conv weight with K > 1 cannot be viewed as its
    # (Cout, Cin*K) matrix, so a binding of it holds a copy and is not kept
    shape = model[name].data.shape
    copied = order == "F" and len(shape) == 3 and shape[2] > 1
    assert (model._binding is None) == copied
    model[name].data[(0,) * model[name].data.ndim] += 0.5
    got = predict_noise(model, x, 33)
    assert _same(got, predict_noise(_copied(model), x, 33))
    assert not _same(got, before)


@pytest.mark.parametrize("replaced", ["array", "tensor"])
def test_binding_sees_a_replaced_array_or_tensor(toy_model, replaced):
    model = _copied(toy_model)
    x = np.random.default_rng(21).standard_normal((4, 16))
    before = _warm(model, x, 71)
    if replaced == "array":  # a new array for the same tensor
        t = model["enc1.rb1.conv1.w"]
        t.data = t.data * 1.25
    else:
        model.tensors["head.gn.b"] = Tensor(model["head.gn.b"].data + 0.5)
    got = predict_noise(model, x, 71)
    assert _same(got, predict_noise(_copied(model), x, 71))
    assert not _same(got, before)


def test_binding_sees_an_edit_after_deepcopy(toy_model):
    model = _copied(toy_model)
    x = np.random.default_rng(22).standard_normal((4, 16))
    before = _warm(model, x, 44)
    dup = copy.deepcopy(model)
    dup["up0.w"].data[0, 0, 0] -= 0.5
    got = predict_noise(dup, x, 44)
    assert _same(got, predict_noise(_copied(dup), x, 44))
    assert not _same(got, before)
    assert _same(predict_noise(model, x, 44), before)  # the original is untouched


def test_binding_names_a_misshapen_tensor(toy_model):
    model = _copied(toy_model)
    w = model["stem.w"].data
    model["stem.w"].data = w.reshape(w.shape[0], 1, -1)
    with pytest.raises(ValueError, match=r"^parameter stem\.w has shape "
                       r"\(16, 1, 12\), the config's layout has \(16, 4, 3\)$"):
        predict_noise(model, np.zeros((4, 16)), 5)


def _outcome(fn):
    try:
        return fn().tobytes()
    except Exception as e:  # noqa: BLE001 - the failure is the outcome
        return type(e), str(e)


def _taped_rows(model, x, n):
    """Each row of the stack x alone through _forward under a GradTape:
    the tape path's bits, row by row."""
    with GradTape():
        return np.stack([dn._forward(model, Tensor(x[b : b + 1]),
                                     np.array([n])).data[0]
                         for b in range(len(x))])


def _both_paths(model, x, n, edit=lambda m: None):
    """predict_noise(x, n) on the bound kernels, memo cold and then warm,
    and the tape path's rows, on a fresh copy of model changed by edit."""
    fresh = _copied(model)
    edit(fresh)
    bound = [_outcome(lambda: predict_noise(fresh, x, n)) for _ in ("cold", "warm")]
    return bound, [_outcome(lambda: _taped_rows(fresh, x, n))] * 2


@pytest.fixture(params=["toy", "zeros", "steady"])
def any_model(request):
    """Each committed fixture model and its window length."""
    if request.param == "steady":
        return request.getfixturevalue("steady_fixture")[0], 64
    return request.getfixturevalue(f"{request.param}_model"), 16


@pytest.mark.parametrize("B", [1, 5, 33])
@pytest.mark.parametrize("on_tape", [False, True])
def test_bound_path_gives_the_tensor_ops_bits(any_model, B, on_tape):
    # predict_noise never records its layers, so it gives the same bits
    # when called inside an active GradTape
    model, T = any_model
    x = np.random.default_rng([B, 0]).standard_normal(
        (B, model.config.channels_in, T))
    with GradTape() if on_tape else contextlib.nullcontext():
        bound, tensor_ops = _both_paths(model, x, 61)
    assert all(isinstance(o, bytes) for o in bound)
    assert bound == tensor_ops


def _overflow_conv(m):
    m["enc0.rb1.conv1.w"].data *= 1e308


def _nan_gamma(m):
    m["enc1.rb0.gn2.g"].data[1] = np.nan


def _overflow_attention(m):
    m["mid.attn.wq"].data *= 1e200
    m["mid.attn.wk"].data *= 1e200


# a bias near the largest double keeps each summand finite, and the sum
# of two overflows: a conv result plus its block's time projection, and
# a block's last conv plus its skip conv
def _overflow_add_time(m):
    m["enc0.rb0.conv1.b"].data[0] = 1.7e308
    m["enc0.rb0.temb.b"].data[0] = 1.7e308


def _overflow_residual(m):
    m["dec0.rb0.conv2.b"].data[0] = 1.7e308
    m["dec0.rb0.skip.b"].data[0] = 1.7e308


@pytest.mark.parametrize("B", [1, 33])
@pytest.mark.parametrize("edit, message", [
    (_overflow_conv, "conv1d: non-finite values in result"),
    (_nan_gamma, "group_norm: non-finite values in result"),
    (_overflow_attention, "attn_scores: non-finite values in result"),
    (_overflow_add_time, "add_time: non-finite values in result"),
    (_overflow_residual, "add: non-finite values in result"),
])
def test_bound_path_fails_as_the_tensor_ops(steady_fixture, B, edit, message):
    x = np.random.default_rng(23).standard_normal((B, 8, 64))
    with np.errstate(over="ignore", invalid="ignore"):
        bound, tensor_ops = _both_paths(steady_fixture[0], x, 12, edit)
    assert bound == tensor_ops == [(FloatingPointError, message)] * 2


@pytest.mark.parametrize("B", [1, 33])
def test_a_failing_warm_step_records_nothing(steady_fixture, B):
    # the replay wraps the binding's arrays in Tensors that take no
    # gradient, so a failing call records nothing on an active tape
    model = _copied(steady_fixture[0])
    _overflow_conv(model)
    x = np.random.default_rng(24).standard_normal((B, 8, 64))
    fails = pytest.raises(FloatingPointError, match="^conv1d: ")
    with np.errstate(over="ignore", invalid="ignore"), GradTape() as tape:
        with fails:
            predict_noise(model, x, 12)
        # a cold step records its projection's 25 Tensor ops alone: the
        # embedding MLP's 5 and 2 for each of the 10 residual blocks
        assert len(tape._nodes) == 25
        with fails:
            predict_noise(model, x, 12)
        assert len(tape._nodes) == 25


# ------------------------------------------ one check per predict_noise run
# predict_noise runs its layers unchecked, attention's checks apart, and
# checks the result once; a failing run is replayed row by row through
# the Tensor ops. So a NaN or an infinity that a bound kernel alone puts
# in any one layer result of any one row, alone or in a shard worker's
# rows, must never reach the caller: the replay gives the Tensor ops'
# rows.

# each bound kernel: where _Bound looks it up at call time, and its calls
# in one run. add and add_time are bound when _Bound is defined, and tc's
# Tensor ops call them too, so they are patched on _Bound
_KERNELS = {"conv1d_unchecked": (tc, "conv1d_unchecked", 7),
            "group_norm_unchecked": (tc, "group_norm_unchecked", 21),
            "silu_conv_unchecked": (tc, "silu_conv_unchecked", 21),
            "add_unchecked": (dn._Bound, "add", 11),
            "add_time_unchecked": (dn._Bound, "add_time", 10),
            "self_attention_kernel": (tc, "self_attention_kernel", 1)}


@pytest.fixture(params=["toy", "kernel1"])
def small_model(request):
    """The toy fixture, and an untrained K = 1 net whose stride-2 convs
    skip every odd position."""
    if request.param == "toy":
        return request.getfixturevalue("toy_model")
    return init_params(DenoiserConfig(channels_in=4, base_width=16, depth=2,
                                      time_embed_dim=16, kernel=1), seed=7)


def _last_rows(B):
    """Whether this thread runs the last row of a B-row stack: the caller
    alone at B = 1, a shard worker at B = 33."""
    if B > 1 and dn._usable_cores() < 2:
        pytest.skip("one usable core: predict_noise never splits a stack")
    return lambda: (B == 1) == (threading.current_thread()
                                is threading.main_thread())


@pytest.mark.parametrize("B", [1, 33])
@pytest.mark.parametrize("kernel", list(_KERNELS))
def test_a_poisoned_kernel_result_never_escapes(small_model, monkeypatch,
                                                kernel, B):
    last_rows = _last_rows(B)
    owner, name, calls = _KERNELS[kernel]
    real, unet = getattr(owner, name), dn._unet
    run, poison, seen = threading.local(), {}, []

    def counting(*args):  # each run (a replay too) counts from 0
        run.k = 0
        return unet(*args)

    def poisoned(*args):
        out = real(*args)
        if last_rows():
            seen.append(run.k)
            if run.k == poison.get("k"):  # at an odd time position
                out[-1, 0, -1] = poison["value"]
            run.k += 1
        return out

    monkeypatch.setattr(dn, "_unet", counting)
    monkeypatch.setattr(owner, name, staticmethod(poisoned)
                        if owner is dn._Bound else poisoned)
    x = np.random.default_rng(B).standard_normal((B, 4, 16))
    want = _taped_rows(small_model, x, 40).tobytes()
    assert predict_noise(small_model, x, 40).tobytes() == want
    assert seen == list(range(calls))
    for k in range(calls):
        poison.update(k=k, value=(np.nan, np.inf, -np.inf)[k % 3])
        with np.errstate(invalid="ignore"):
            assert predict_noise(small_model, x, 40).tobytes() == want


def test_a_run_that_fails_twice_raises_the_first_failure():
    # a NaN input fails the stem's check; an unchecked run gets past the
    # stem and fails later, at the first conv whose kernel is wider than
    # its input (4 steps at the second level)
    model = init_params(DenoiserConfig(channels_in=2, base_width=4, depth=2,
                                       time_embed_dim=4, kernel=5), seed=1)
    x = np.zeros((2, 8))
    with pytest.raises(ValueError, match="^conv1d: kernel wider than input$"):
        predict_noise(model, x, 3)
    x[0, 3] = np.nan
    with pytest.raises(FloatingPointError,
                       match="^conv1d: non-finite values in result$"):
        predict_noise(model, x, 3)


# -------------------------------------------------------------- objective

def test_objective_matches_manual_composition():
    sched = linear_schedule(100)
    params = init_params(TOY_CFG, seed=4)
    params["head.conv.w"].data += np.random.default_rng(4).normal(
        0, 0.1, params["head.conv.w"].data.shape)
    rng = np.random.default_rng(5)
    x0 = rng.standard_normal((2, 4, 16))
    eps = rng.standard_normal((2, 4, 16))
    n_vec = np.array([7, 93])
    loss = diffusion_loss(params, x0, n_vec, eps, sched)
    a = np.array([sched.alpha_bar_at(int(n)) for n in n_vec])[:, None, None]
    x_n = np.sqrt(a) * x0 + np.sqrt(1 - a) * eps
    pred = np.stack([predict_noise(params, x_n[b], n)
                     for b, n in enumerate(n_vec)])
    want = np.mean((eps - pred) ** 2)
    assert float(loss.data) == pytest.approx(want, rel=1e-12)


def test_loss_gives_the_same_bits_on_and_off_a_tape(toy_model):
    rng = np.random.default_rng(8)
    x0, eps = rng.standard_normal((2, 4, 4, 16))
    n_vec = np.array([1, 37, 64, 100])
    sched = linear_schedule(100)

    def run():
        pred = dn._forward(toy_model, Tensor(x0), n_vec).data
        loss = diffusion_loss(toy_model, x0, n_vec, eps, sched).data
        return pred.tobytes(), loss.tobytes()

    with GradTape():
        taped = run()
    assert run() == taped


# A tape's peak memory over one training step's loss and backward, at
# B = 32 on the steady fixture's architecture (8 channels x 64 steps,
# width 24, depth 2): 87.9 MB when every record held its op's input and
# output Tensors, 39.5 MB with records that hold only the arrays their
# gradient formulas read
TAPE_PEAK_CEILING_MB = 50.0


def test_a_training_steps_tape_stays_under_its_memory_ceiling():
    params = init_params(DenoiserConfig(8, 24, 2, 16, 3), seed=0)
    rng = np.random.default_rng(0)
    x0, eps = rng.standard_normal((2, 32, 8, 64))
    n_vec = rng.integers(1, 101, 32)
    sched = linear_schedule(100)
    tracemalloc.start()
    try:
        with GradTape() as tape:
            tape.backward(diffusion_loss(params, x0, n_vec, eps, sched))
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak < TAPE_PEAK_CEILING_MB


def test_objective_zero_noise_anchor():
    # eps = 0 with the n=0 anchor leaves x0 untouched, so the loss is
    # exactly the mean squared prediction on clean input
    sched = linear_schedule(100)
    params = init_params(TOY_CFG, seed=6)
    params["head.conv.w"].data += 0.03
    x0 = np.random.default_rng(6).standard_normal((1, 4, 16))
    loss = diffusion_loss(params, x0, np.array([0]), np.zeros((1, 4, 16)), sched)
    want = np.mean(predict_noise(params, x0, 0) ** 2)
    assert float(loss.data) == pytest.approx(want, rel=1e-12)


def test_first_step_loss_is_unit_chi_square():
    sched = linear_schedule(100)
    params = init_params(TOY_CFG, seed=42)
    opt = Adam(params, 1e-3)
    rng = np.random.default_rng(42)
    batch = rng.standard_normal((8, 4, 16))
    loss = training_step(params, batch, sched, rng, opt)
    assert 0.8 < loss < 1.2


def test_loss_halves_within_200_steps_on_steady_data():
    from tsdm.threatsim import SynthSpec, synth_dataset

    sched = linear_schedule(100)
    ws = np.asarray(synth_dataset(SynthSpec(mode="steady", M=8, T=64, seed=42), 256))
    ws = (ws - ws.mean(axis=(0, 2), keepdims=True)) / ws.std(axis=(0, 2), keepdims=True)
    cfg = DenoiserConfig(channels_in=8, base_width=16, depth=2,
                         time_embed_dim=16, kernel=3)
    params = init_params(cfg, seed=42)
    opt = Adam(params, 1e-3)
    rng = np.random.default_rng(42)
    losses = []
    for _ in range(200):
        idx = rng.integers(0, ws.shape[0], 8)
        losses.append(training_step(params, ws[idx], sched, rng, opt))
    assert np.mean(losses[-10:]) <= 0.5 * losses[0]


# ------------------------------------------------------------------- train

def test_train_single_sample_overfits():
    # Batch-replicated single window on a large-beta schedule: every
    # step inversion is well-conditioned, so this isolates memorization.
    sched = linear_schedule(10, 0.2, 0.5)
    one = np.random.default_rng(7).standard_normal((1, 4, 16))
    rep = np.repeat(one, 8, axis=0)
    cfg = DenoiserConfig(channels_in=4, base_width=16, depth=2,
                         time_embed_dim=8, kernel=3)
    tcfg = TrainConfig(epochs=1000, batch_size=8, learning_rate=1e-2, seed=7)
    _, curve = train(rep, cfg, tcfg, sched)
    assert curve[-1] < 0.01


def test_train_reproducible_and_shuffle_sensitive():
    sched = linear_schedule(20, 0.01, 0.2)
    data = np.random.default_rng(9).standard_normal((16, 4, 16))
    tcfg = TrainConfig(epochs=3, batch_size=8, learning_rate=1e-3, seed=11)
    _, c1 = train(data, TOY_CFG, tcfg, sched)
    _, c2 = train(data, TOY_CFG, tcfg, sched)
    assert c1 == c2
    tcfg_ns = TrainConfig(epochs=3, batch_size=8, learning_rate=1e-3, seed=11,
                          shuffle=False)
    _, c3 = train(data, TOY_CFG, tcfg_ns, sched)
    assert c1 != c3


def test_train_divergence_aborts():
    sched = linear_schedule(20, 0.01, 0.2)
    data = np.random.default_rng(10).standard_normal((8, 4, 16))
    tcfg = TrainConfig(epochs=5, batch_size=8, learning_rate=1e6, seed=1)
    with pytest.raises(RuntimeError):
        train(data, TOY_CFG, tcfg, sched)


def test_train_rejects_bad_dataset():
    sched = linear_schedule(10, 0.01, 0.2)
    tcfg = TrainConfig(epochs=1, batch_size=2)
    with pytest.raises(ValueError):
        train(np.zeros((0, 4, 16)), TOY_CFG, tcfg, sched)
    with pytest.raises(ValueError):
        train(np.zeros((4, 3, 16)), TOY_CFG, tcfg, sched)


def test_trained_toy_approaches_analytic_predictor(toy_model, sched100):
    rng = np.random.default_rng(999)
    for n in (10, 50, 100):
        a = sched100.alpha_bar_at(n)
        x0 = rng.standard_normal((64, 4, 16))
        eps = rng.standard_normal((64, 4, 16))
        x_n = np.sqrt(a) * x0 + np.sqrt(1 - a) * eps
        pred = predict_noise(toy_model, x_n, n)
        assert np.mean((pred - np.sqrt(1 - a) * x_n) ** 2) < 0.05


# ---------------------------------------------- Adam before in place (bits)

def _prior_adam_steps(values, grad_steps, lr, clip):
    """Adam.step as first written, with new m and v arrays every step, on
    copies of the parameter values; returns (values, m, v) per step."""
    values = {k: a.copy() for k, a in values.items()}
    m = {k: np.zeros_like(a) for k, a in values.items()}
    v = {k: np.zeros_like(a) for k, a in values.items()}
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    states = []
    for t, gs in enumerate(grad_steps, start=1):
        total = math.sqrt(sum(float(np.sum(g * g)) for g in gs.values()
                              if g is not None))
        factor = clip / total if total > clip else 1.0
        c1 = 1.0 - beta1**t
        c2 = 1.0 - beta2**t
        for k in values:
            g = gs[k]
            if g is None:
                continue
            g = g * factor
            m[k] = beta1 * m[k] + (1 - beta1) * g
            v[k] = beta2 * v[k] + (1 - beta2) * g * g
            values[k] -= lr * (m[k] / c1) / (np.sqrt(v[k] / c2) + eps)
        states.append(({k: a.copy() for k, a in values.items()},
                       {k: a.copy() for k, a in m.items()},
                       {k: a.copy() for k, a in v.items()}))
    return states


@pytest.mark.parametrize("clip", [1e-2, 1e6])  # clipping active, inactive
def test_adam_step_matches_prior_bits(clip):
    params = init_params(DenoiserConfig(channels_in=2, base_width=4, depth=1,
                                        time_embed_dim=4), seed=8)
    start = {k: t.data.copy() for k, t in params.items()}
    rng = np.random.default_rng(9)
    skipped = "head.conv.b"  # a parameter the loss did not reach
    grad_steps = [{k: None if k == skipped else
                   rng.standard_normal(a.shape) * 10.0 ** rng.integers(-4, 2)
                   for k, a in start.items()} for _ in range(5)]
    total = math.sqrt(sum(float(np.sum(g * g)) for g in grad_steps[0].values()
                          if g is not None))
    assert (total > clip) == (clip < 1.0)
    opt = Adam(params, lr=3e-3, grad_clip=clip)
    want = _prior_adam_steps(start, grad_steps, 3e-3, clip)
    for gs, (w_values, w_m, w_v) in zip(grad_steps, want):
        grads = {id(t): gs[k] for k, t in params.items()}
        kept = {k: None if g is None else g.copy() for k, g in gs.items()}
        opt.step(grads)
        for k, t in params.items():
            assert t.data.tobytes() == w_values[k].tobytes(), k
            assert opt.m[k].tobytes() == w_m[k].tobytes(), k
            assert opt.v[k].tobytes() == w_v[k].tobytes(), k
            if gs[k] is not None:  # the gradients are left as they were
                assert gs[k].tobytes() == kept[k].tobytes(), k
    assert params[skipped].data.tobytes() == start[skipped].tobytes()
