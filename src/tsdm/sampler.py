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
sigma_bar, so it ends with the bits of a one-window run. A pass that
raises fails the whole stack with its exception. Inputs that would make
one window fail are refused before the loop by check_observed, so a
failure inside the loop is a model fault, which fails every window
alike.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .denoiser import BoundModel, DenoiserParams, predict_noise
from .schedule import Subsequence, VarianceSchedule

# The largest magnitude of an observed entry, in normalized units (training
# stds from the channel mean); the loop overflows only from some 1e30 on.
MAX_OBSERVED = 1e6


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


def check_observed(y: np.ndarray) -> None:
    """Refuse a window or stack y (normalized, missing entries zero-filled)
    with an entry not finite or beyond MAX_OBSERVED: a ValueError naming
    its channel and time step, and window for a stack."""
    bad = np.argwhere(~(np.abs(y) <= MAX_OBSERVED))
    if len(bad):
        *window, m, t = bad[0]
        where = f"window {window[0]}, " if window else ""
        raise ValueError(
            f"observed entry at {where}channel {m}, step {t} is "
            f"{float(y[tuple(bad[0])])} in normalized units, not a finite "
            f"value within {MAX_OBSERVED:g}")


def reverse_lockstep(params: DenoiserParams, rngs, shape: tuple,
                     sched: VarianceSchedule, tau: Subsequence, update=None,
                     guide=None, R: int = 1, trace: bool = False):
    """Run the reverse process down tau for one window per generator in
    rngs, all windows in lockstep: one predict_noise call and one stacked
    update per pass.

    Window b starts from rngs[b].standard_normal(shape). It takes R
    passes at each position i = s..2 and one closing pass at i = 1. A
    pass steps the stack x of all windows:

        eps = predict_noise(model, x, tau_i)
        eps = guide(x, eps, i)  # if a guide is given
        x = update(x, eps, sigma_bar, i, r, draw)

    where sigma_bar is sigma_bar_rows' column over eps (0.0 at the
    close) and draw() a fresh stack of standard normals, row b drawn
    from rngs[b], so every window draws in the order a one-window run
    does. The default update is the improved step, closed by
    estimate_x0.

    model is params bound once for the loop (denoiser.BoundModel): its
    first predict_noise call casts the weights and takes the time
    projections of every step of tau, and every later call of the loop
    reuses them. So an edit of params made during the loop, in a guide
    or an update, is not seen until the next loop, and an edit made
    between two loops is seen by the second.

    A pass raises RuntimeError("non-finite latent at step tau=...") when
    it leaves any latent non-finite. A pass that raises anywhere fails
    the whole call with its exception. With trace, a window's result is
    (x0, SamplerTrace), holding its sigma_bar at each pass.

    Returns the list of the windows' results. A lone Generator for rngs
    is a one-window call: it returns that window's result.
    """
    one = isinstance(rngs, np.random.Generator)
    rngs = [rngs] if one else rngs
    if update is None:
        def update(x, eps, sigma_bar, i, r, draw):
            if i == 1:
                return estimate_x0(x, eps, tau.level(1), sched)
            return improved_step(x, eps, i, sched, tau, draw(), sigma_bar)

    x = _normals(rngs, shape)
    traces = [SamplerTrace() for _ in rngs]
    model = BoundModel(params, [tau.level(i) for i in range(tau.s, 0, -1)])
    for i in range(tau.s, 0, -1):
        t_cur = tau.level(i)
        for r in range(1, (R if i > 1 else 1) + 1):
            t0 = time.perf_counter()
            eps = predict_noise(model, x, t_cur)
            if guide is not None:
                eps = guide(x, eps, i)
            col = sigma_bar_rows(eps, t_cur, sched) if i > 1 else 0.0
            x = update(x, eps, col, i, r, lambda: _normals(rngs, shape))
            if not np.isfinite(x).all():
                raise RuntimeError(f"non-finite latent at step tau={t_cur}")
            if trace:
                elapsed_ms = (time.perf_counter() - t0) * 1e3
                sigmas = np.broadcast_to(col, (len(rngs), 1, 1)).ravel()
                for rec, sigma in zip(traces, sigmas):
                    rec.add(t_cur, sigma, elapsed_ms)
    outs = list(zip(x, traces)) if trace else list(x)
    return outs[0] if one else outs


def _normals(rngs, shape) -> np.ndarray:
    """A fresh stack of standard normals, row b drawn from rngs[b]."""
    out = np.empty((len(rngs),) + tuple(shape))
    for b, rng in enumerate(rngs):
        rng.standard_normal(out=out[b])
    return out
