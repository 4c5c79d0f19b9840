"""Correctness checks on the program's outputs, computed outside the program.

Each check raises CheckFailed with a one-line reason. None of them uses
tsdm's own metrics or baselines: the injected-entry mask, the channel
means, the linear interpolation and the finite differences are all
computed here.
"""

from __future__ import annotations

import math

import numpy as np


class CheckFailed(Exception):
    pass


def _require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def _pooled_rmse(pairs):
    sq = n = 0
    for a, b in pairs:
        sq += float(np.sum((np.asarray(a) - np.asarray(b)) ** 2))
        n += np.size(a)
    return math.sqrt(sq / n)


def _finite_outputs(truths, outputs):
    for k, (truth, out) in enumerate(zip(truths, outputs)):
        out = np.asarray(out)
        _require(out.shape == truth.shape,
                 f"window {k}: output shape {out.shape} != {truth.shape}")
        _require(np.all(np.isfinite(out)), f"window {k}: non-finite output")


def recovery_rmse(truths, outputs):
    """Pooled RMSE of recovered windows against the truth."""
    return _pooled_rmse(zip(outputs, truths))


def _channel_means(truths):
    return [np.broadcast_to(t.mean(axis=1, keepdims=True), t.shape)
            for t in truths]


def clean_ratio(truths, outputs):
    """Recovery RMSE over that of each window's own per-channel mean."""
    return (recovery_rmse(truths, outputs)
            / recovery_rmse(truths, _channel_means(truths)))


def check_clean(truths, outputs):
    """Clean windows: finite, right shape, and closer to the truth than
    the channel-mean predictor."""
    _finite_outputs(truths, outputs)
    ratio = clean_ratio(truths, outputs)
    _require(ratio < 1.0, f"clean RMSE is {ratio:.4g}x the channel-mean "
             "predictor's")


def flag_counts(truths, inputs, trusted_masks):
    """(true pos, false pos, false neg, entries) of the flags against the
    injected-entry mask `input != truth` (NaN inputs count as injected)."""
    tp = fp = fn = n = 0
    for truth, y, trusted in zip(truths, inputs, trusted_masks):
        injected = ~(np.asarray(y) == truth)
        flagged = np.asarray(trusted) == 0.0
        tp += int(np.sum(flagged & injected))
        fp += int(np.sum(flagged & ~injected))
        fn += int(np.sum(~flagged & injected))
        n += truth.size
    return tp, fp, fn, n


def flag_scores(truths, inputs, trusted_masks):
    """(precision, recall) of the flags; 0 where nothing is flagged or
    nothing was injected."""
    tp, fp, fn, _ = flag_counts(truths, inputs, trusted_masks)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return precision, recall


def attack_ratio(truths, inputs, outputs):
    """Recovery RMSE over that of the corrupted input."""
    return recovery_rmse(truths, outputs) / recovery_rmse(truths, inputs)


def check_attacked(truths, inputs, outputs, trusted_masks):
    """Attacked windows: pooled error below the corrupted input's, and
    flags better than chance against the injected entries."""
    _finite_outputs(truths, outputs)
    ratio = attack_ratio(truths, inputs, outputs)
    _require(ratio < 1.0, f"attacked RMSE is {ratio:.4g}x the corrupted "
             "input's")
    tp, fp, fn, n = flag_counts(truths, inputs, trusted_masks)
    _require(tp + fp > 0, "no entry flagged on attacked windows")
    prevalence = (tp + fn) / n
    precision = tp / (tp + fp)
    _require(precision > prevalence, f"flag precision {precision:.3f} not "
             f"above the injected share {prevalence:.3f} (chance)")


def linear_interpolate(y):
    """Fill NaN entries per channel by linear interpolation between the
    nearest observed neighbours, holding the edge values."""
    y = np.asarray(y, dtype=np.float64)
    out = y.copy()
    t = np.arange(y.shape[1])
    for m in range(y.shape[0]):
        obs = np.isfinite(y[m])
        out[m, ~obs] = np.interp(t[~obs], t[obs], y[m, obs])
    return out


def missing_rmse(truths, inputs, outputs):
    """Pooled RMSE over the NaN (missing) entries of the inputs."""
    return _pooled_rmse((out[np.isnan(y)], truth[np.isnan(y)])
                        for truth, y, out in zip(truths, inputs, outputs))


def impute_ratio(truths, inputs, outputs):
    """Missing-entry RMSE over that of linear interpolation."""
    return (missing_rmse(truths, inputs, outputs)
            / missing_rmse(truths, inputs,
                           [linear_interpolate(y) for y in inputs]))


def check_imputed(truths, inputs, results, mean, std, a1, failure_type):
    """A recover_batch result: one entry per window, in order; trusted
    entries pinned to sqrt(a1) * y0 in normalized units; every missing
    entry flagged; missing-entry RMSE below linear interpolation."""
    _require(len(results) == len(inputs),
             f"{len(results)} results for {len(inputs)} windows")
    ok = []
    for k, (y, res) in enumerate(zip(inputs, results)):
        if isinstance(res, failure_type):
            _require(res.index == k, f"failure for window {res.index} "
                     f"returned at position {k}")
            continue
        out = np.asarray(res.x_tilde)
        _require(out.shape == y.shape and np.all(np.isfinite(out)),
                 f"window {k}: bad output")
        trusted = res.outlier_mask == 1.0
        _require(not np.any(trusted & np.isnan(y)),
                 f"window {k}: a missing entry is marked trusted")
        yn = (y - mean[:, None]) / std[:, None]
        on = (out - mean[:, None]) / std[:, None]
        err = np.max(np.abs(on[trusted] - math.sqrt(a1) * yn[trusted]),
                     initial=0.0)
        _require(err <= 1e-9, f"window {k}: observed entries off "
                 f"sqrt(alpha_bar(tau_1)) * y0 by {err:.3g}")
        ok.append(k)
    _require(ok, "every window of the batch failed")
    ratio = impute_ratio([truths[k] for k in ok], [inputs[k] for k in ok],
                         [results[k].x_tilde for k in ok])
    _require(ratio < 1.0, f"missing-entry RMSE is {ratio:.4g}x linear "
             "interpolation's")


def check_gradients(loss_at, arrays, grads, entries, h=1e-5):
    """Tape gradients against central differences of `loss_at()` on the
    sampled (name, flat index) entries; `arrays` are the live parameter
    arrays `loss_at` reads."""
    for name, idx in entries:
        arr = arrays[name].reshape(-1)
        keep = arr[idx]
        arr[idx] = keep + h
        up = loss_at()
        arr[idx] = keep - h
        down = loss_at()
        arr[idx] = keep
        num = (up - down) / (2 * h)
        got = float(grads[name].reshape(-1)[idx])
        _require(abs(got - num) <= 1e-7 + 1e-4 * abs(num),
                 f"gradient of {name}[{idx}] is {got:.6g}, central "
                 f"difference {num:.6g}")


def check_loss_falls(losses):
    """Mean training loss over the second half of the steps is below the
    first half's."""
    _require(len(losses) >= 2, "fewer than two training steps")
    half = len(losses) // 2
    first, second = np.mean(losses[:half]), np.mean(losses[half:])
    _require(np.all(np.isfinite(losses)), "non-finite training loss")
    _require(second < first, f"loss did not fall: {first:.4g} -> {second:.4g}")
