"""Diffusion forward process and accelerated reverse sampling.

The reverse update over a subsequence tau is, per adjacent pair
(tau_{i-1}, tau_i) with cumulative ratios a' = alpha_bar(tau_{i-1}) and
a = alpha_bar(tau_i):

    x' = sqrt(1-a')/sqrt(1-a) * x + Gamma * mu_bar(x) + Gamma * sigma_bar * eps

where mu_bar is the clean-signal estimate, Gamma the mixing coefficient
sqrt(a') - sqrt(1-a') sqrt(a)/sqrt(1-a), and sigma_bar^2 the closed-form
optimal variance ((1-a)/a) * (1 - E||eps_pred||^2 / d) clamped at zero.
The expectation is estimated per call from the provided prediction
(batch mean when a batch is given), or per window of a stack when the
step is handed sigma_bar_rows' column. detailed_step is the same update
expanded in (x, eps_pred, eps_draw); the two agree to rounding error.

Position i on the subsequence names the level tau_i = tau.level(i);
the final step to tau_1 is closed by estimate_x0, not another update.

reverse_lockstep is the one reverse loop: unconditional sampling, stage
1 and stage 2 each run it with their own update, a stack of windows in
lockstep with one predict_noise call and one stacked update per pass.
Each window still draws from its own generator and gets its own
sigma_bar, so it ends with the bits of a one-window run. A window fails
one way: a pass that raises anywhere (denoiser, guide, sigma_bar, update,
or a latent left non-finite) is replayed window by window, and each
window that raises alone leaves with its own error. The replay restores
each window's generator state from the start of the pass and reuses its
row of the pass's prediction when predict_noise returned, so a failure
after the network costs no extra denoiser call. That rests on two
conditions: guides and updates never write into eps, and each window has
its own generator, shared with no other window.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .denoiser import DenoiserParams, predict_noise
from .schedule import Subsequence, VarianceSchedule


@dataclass(frozen=True)
class TraceRecord:
    tau: int
    sigma_bar: float
    elapsed_ms: float


@dataclass
class SamplerTrace:
    records: list = field(default_factory=list)

    def add(self, tau: int, sigma_bar: float, elapsed_ms: float) -> None:
        self.records.append(TraceRecord(int(tau), float(sigma_bar),
                                        float(elapsed_ms)))


def forward_diffuse(x0: np.ndarray, n: int, eps: np.ndarray,
                    sched: VarianceSchedule) -> np.ndarray:
    """x_n = sqrt(alpha_bar_n) x0 + sqrt(1 - alpha_bar_n) eps; n=0 is x0."""
    x0 = np.asarray(x0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if x0.shape != eps.shape:
        raise ValueError(f"shape mismatch {x0.shape} vs {eps.shape}")
    a = sched.alpha_bar_at(n)
    return np.sqrt(a) * x0 + np.sqrt(1.0 - a) * eps


def estimate_x0(x_n: np.ndarray, eps_pred: np.ndarray, n: int,
                sched: VarianceSchedule) -> np.ndarray:
    """Clean-signal estimate (x_n - sqrt(1-a) eps_pred) / sqrt(a)."""
    x_n = np.asarray(x_n, dtype=np.float64)
    eps_pred = np.asarray(eps_pred, dtype=np.float64)
    if x_n.shape != eps_pred.shape:
        raise ValueError(f"shape mismatch {x_n.shape} vs {eps_pred.shape}")
    a = sched.alpha_bar_at(n, 1)
    return (x_n - np.sqrt(1.0 - a) * eps_pred) / np.sqrt(a)


def optimal_variance(eps_pred: np.ndarray, n: int,
                     sched: VarianceSchedule) -> float:
    """Closed-form residual variance of the clean-signal estimate.

    sigma_bar^2 = ((1-a)/a) (1 - E||eps_pred||^2 / d) with d the element
    count of one sample; the expectation is the mean over the given
    sample or batch. Clamped at zero for miscalibrated predictors.
    """
    eps_pred = np.asarray(eps_pred, dtype=np.float64)
    a = sched.alpha_bar_at(n, 1)
    with np.errstate(over="raise"):
        msq = float(np.mean(eps_pred**2))
    return max((1.0 - a) / a * (1.0 - msq), 0.0)


def sigma_bar_rows(eps: np.ndarray, n: int,
                   sched: VarianceSchedule) -> np.ndarray:
    """sqrt(optimal_variance(eps[b], n, sched)) for every row b of a
    (B, M, T) stack, as a (B, 1, 1) column, from one reduction. Raises
    where optimal_variance raises on some row: its square or their mean
    overflows, with that function's error."""
    a = sched.alpha_bar_at(n, 1)
    with np.errstate(over="raise"):
        msq = np.mean(eps**2, axis=(1, 2))
    var = np.maximum((1.0 - a) / a * (1.0 - msq), 0.0)
    return np.sqrt(var)[:, None, None]


def capital_gamma(i: int, sched: VarianceSchedule, tau: Subsequence) -> float:
    """Mixing coefficient for the jump tau_i -> tau_{i-1}; defined for i >= 2."""
    a_cur = sched.alpha_bar_at(tau.level(i, 2))
    a_prev = sched.alpha_bar_at(tau.level(i - 1))
    return math.sqrt(a_prev) - math.sqrt(1.0 - a_prev) * math.sqrt(a_cur) / math.sqrt(
        1.0 - a_cur)


def _jump(i: int, sched: VarianceSchedule, tau: Subsequence,
          eps_pred: np.ndarray, sigma_bar) -> tuple:
    """(a_prev, a_cur, Gamma, sigma_bar) of the jump tau_i -> tau_{i-1};
    the schedule guarantees a_prev > a_cur > 0. sigma_bar, a scalar or a
    (B, 1, 1) column (sigma_bar_rows), defaults to the root of eps_pred's
    optimal variance."""
    gamma = capital_gamma(i, sched, tau)
    a_prev = sched.alpha_bar_at(tau.level(i - 1))
    a_cur = sched.alpha_bar_at(tau.level(i))
    if sigma_bar is None:
        sigma_bar = math.sqrt(optimal_variance(eps_pred, tau.level(i), sched))
    return a_prev, a_cur, gamma, sigma_bar


def improved_step(x_cur: np.ndarray, eps_pred: np.ndarray, i: int,
                  sched: VarianceSchedule, tau: Subsequence,
                  eps_draw: np.ndarray, sigma_bar=None) -> np.ndarray:
    """One accelerated reverse update written through the x0 estimate;
    sigma_bar as in _jump."""
    a_prev, a_cur, gamma, sigma_bar = _jump(i, sched, tau, eps_pred, sigma_bar)
    mu = estimate_x0(x_cur, eps_pred, tau.level(i), sched)
    lead = math.sqrt(1.0 - a_prev) / math.sqrt(1.0 - a_cur)
    return lead * x_cur + gamma * mu + gamma * sigma_bar * eps_draw


def detailed_step(x_cur: np.ndarray, eps_pred: np.ndarray, i: int,
                  sched: VarianceSchedule, tau: Subsequence,
                  eps_draw: np.ndarray, sigma_bar=None) -> np.ndarray:
    """The same update expanded directly in (x, eps_pred, eps_draw)."""
    a_prev, a_cur, gamma, sigma_bar = _jump(i, sched, tau, eps_pred, sigma_bar)
    x_coef = math.sqrt(a_prev) / math.sqrt(a_cur)
    e_coef = math.sqrt(1.0 - a_prev) - math.sqrt(a_prev) * math.sqrt(
        1.0 - a_cur) / math.sqrt(a_cur)
    return x_coef * x_cur + gamma * sigma_bar * eps_draw + e_coef * eps_pred


def unconditional_sample(params: DenoiserParams, shape: tuple,
                         sched: VarianceSchedule, tau: Subsequence,
                         rng: np.random.Generator, trace: bool = False):
    """Generate an (M, T) window from pure noise down the subsequence;
    close with estimate_x0. With trace, returns (x0, SamplerTrace). Any
    other shape is a ValueError, before the first denoiser call."""
    if len(shape) != 2:
        raise ValueError(f"shape must be (M, T), got {tuple(shape)}")
    return reverse_lockstep(params, rng, shape, sched, tau, trace=trace)


def window_rngs(y0: np.ndarray, seed: int, seeds=None):
    """The generator of an (M, T) window, default_rng(seed), or the list
    of a (B, M, T) stack's, default_rng(seeds[b]) with seed ^ b by
    default. Raises ValueError unless seeds has one entry per window."""
    if y0.ndim == 2:
        return np.random.default_rng(seed)
    if seeds is None:
        seeds = [seed ^ b for b in range(len(y0))]
    if len(seeds) != len(y0):
        raise ValueError(f"{len(seeds)} seeds for {len(y0)} windows")
    return [np.random.default_rng(s) for s in seeds]


def reverse_lockstep(params: DenoiserParams, rngs, shape: tuple,
                     sched: VarianceSchedule, tau: Subsequence, update=None,
                     guide=None, R: int = 1, trace: bool = False):
    """Run the reverse process down tau for one window per generator in
    rngs, all windows in lockstep: one predict_noise call and one stacked
    update per pass.

    Window b starts from rngs[b].standard_normal(shape). It takes R
    passes at each position i = s..2 and one closing pass at i = 1. A
    pass steps the stack x of the windows still running, whose indices
    are `rows`:

        eps = predict_noise(params, x, tau_i)
        eps = guide(rows, x, eps, i)             # if a guide is given
        x = update(rows, x, eps, sigma_bar, i, r, draw)

    where sigma_bar is sigma_bar_rows' column over eps (0.0 at the
    close) and draw() a fresh stack of standard normals, row k drawn
    from rngs[rows[k]], so every window draws in the order a one-window
    run does. The default update is the improved step, closed by
    estimate_x0.

    A pass raises RuntimeError("non-finite latent at step tau=...") when
    it leaves any latent non-finite. A pass that raises anywhere is
    replayed window by window, so only the windows that fail alone leave,
    each with the exception it raises alone; a pass over one window is
    not replayed, as it already ran alone. Each replay first restores the
    window's generator to its state at the start of the pass, so it draws
    again what it took, and steps on its row of the stacked prediction
    when predict_noise returned, as predict_noise gives each row the bits
    it gives it alone; only a pass that raised inside predict_noise calls
    it again, once per window. So guides and updates must never write
    into eps, and no generator may appear twice in rngs. With trace, a
    window's result is (x0, SamplerTrace), holding its sigma_bar at each
    pass.

    Returns per window its result or the exception it failed with. A
    lone Generator for rngs is a one-window call: it returns that
    window's result and raises its failure.
    """
    one = isinstance(rngs, np.random.Generator)
    rngs = [rngs] if one else rngs
    if update is None:
        def update(rows, x, eps, sigma_bar, i, r, draw):
            if i == 1:
                return estimate_x0(x, eps, tau.level(1), sched)
            return improved_step(x, eps, i, sched, tau, draw(), sigma_bar)

    outs = {}  # window -> its result or its exception
    rows = list(range(len(rngs)))
    x = _normals(rngs, rows, shape)
    traces = [SamplerTrace() for _ in rngs]
    passes = [(i, r) for i in range(tau.s, 0, -1)
              for r in range(1, (R if i > 1 else 1) + 1)]
    for i, r in passes:
        if not rows:
            break
        t0 = time.perf_counter()
        t_cur = tau.level(i)
        states = [rngs[b].bit_generator.state for b in rows]

        def run(rows, x, eps):
            if guide is not None:
                eps = guide(rows, x, eps, i)
            col = sigma_bar_rows(eps, t_cur, sched) if i > 1 else 0.0
            x = update(rows, x, eps, col, i, r,
                       lambda: _normals(rngs, rows, shape))
            if not np.isfinite(x).all():
                raise RuntimeError(f"non-finite latent at step tau={t_cur}")
            return x, col

        eps = None
        try:
            eps = predict_noise(params, x, t_cur)
            x_new, col = run(rows, x, eps)
        except Exception as e:  # noqa: BLE001 - find the windows that fail alone
            x_new, col = np.full_like(x, np.nan), np.zeros((len(rows), 1, 1))
            if len(rows) == 1:  # a lone window has already failed alone
                outs[rows[0]] = e
            else:
                for k, b in enumerate(rows):
                    rngs[b].bit_generator.state = states[k]
                    try:
                        eps_k = (predict_noise(params, x[k:k + 1], t_cur)
                                 if eps is None else eps[k:k + 1])
                        x_new[k], col[k] = run([b], x[k:k + 1], eps_k)
                    except Exception as e:  # noqa: BLE001 - per window
                        outs[b] = e
        keep = [k for k, b in enumerate(rows) if b not in outs]
        if trace:
            elapsed_ms = (time.perf_counter() - t0) * 1e3
            sigmas = np.broadcast_to(col, (len(rows), 1, 1)).ravel()
            for k in keep:
                traces[rows[k]].add(t_cur, sigmas[k], elapsed_ms)
        rows, x = [rows[k] for k in keep], x_new[keep]
    for b, xb in zip(rows, x):
        outs[b] = (xb, traces[b]) if trace else xb
    if one and isinstance(outs[0], Exception):
        raise outs[0]
    return outs[0] if one else [outs[b] for b in range(len(rngs))]


def _normals(rngs, rows, shape) -> np.ndarray:
    """A fresh stack of standard normals, row k drawn from rngs[rows[k]]."""
    out = np.empty((len(rows),) + tuple(shape))
    for k, b in enumerate(rows):
        rngs[b].standard_normal(out=out[k])
    return out
