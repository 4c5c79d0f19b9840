"""Diffusion forward process and accelerated reverse sampling.

The reverse update over a subsequence tau is, per adjacent pair
(tau_{i-1}, tau_i) with cumulative ratios a' = alpha_bar(tau_{i-1}) and
a = alpha_bar(tau_i):

    x' = sqrt(1-a')/sqrt(1-a) * x + Gamma * mu_bar(x) + Gamma * sigma_bar * eps

where mu_bar is the clean-signal estimate, Gamma the mixing coefficient
sqrt(a') - sqrt(1-a') sqrt(a)/sqrt(1-a), and sigma_bar^2 the closed-form
optimal variance ((1-a)/a) * (1 - E||eps_pred||^2 / d) clamped at zero.
The expectation is estimated per call from the provided prediction
(batch mean when a batch is given). detailed_step is the same update
expanded in (x, eps_pred, eps_draw); the two agree to rounding error.

The final step to tau_1 is closed by estimate_x0, not another update.

reverse_lockstep is the one reverse loop: unconditional sampling, stage
1 and stage 2 each run it with their own per-step update, a stack of
windows in lockstep with one predict_noise call per pass.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .denoiser import DenoiserParams, predict_noise
from .schedule import Subsequence, VarianceSchedule


@dataclass(frozen=True)
class StepCoefficients:
    a_prev: float
    a_cur: float
    gamma: float
    sigma_bar: float

    def __post_init__(self):
        if not self.a_prev > self.a_cur:
            raise ValueError("a_prev must exceed a_cur (schedule monotonicity)")
        if not math.isfinite(self.gamma):
            raise ValueError("Gamma must be finite")
        if self.sigma_bar < 0:
            raise ValueError("sigma_bar must be nonnegative")


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
    if not 1 <= n <= sched.N:
        raise ValueError(f"step {n} outside 1..{sched.N}")
    a = sched.alpha_bar_at(n)
    return (x_n - np.sqrt(1.0 - a) * eps_pred) / np.sqrt(a)


def optimal_variance(eps_pred: np.ndarray, n: int,
                     sched: VarianceSchedule) -> float:
    """Closed-form residual variance of the clean-signal estimate.

    sigma_bar^2 = ((1-a)/a) (1 - E||eps_pred||^2 / d) with d the element
    count of one sample; the expectation is the mean over the given
    sample or batch. Clamped at zero for miscalibrated predictors.
    """
    eps_pred = np.asarray(eps_pred, dtype=np.float64)
    if not 1 <= n <= sched.N:
        raise ValueError(f"step {n} outside 1..{sched.N}")
    a = sched.alpha_bar_at(n)
    with np.errstate(over="raise"):
        msq = float(np.mean(eps_pred**2))
    return max((1.0 - a) / a * (1.0 - msq), 0.0)


def capital_gamma(i: int, sched: VarianceSchedule, tau: Subsequence) -> float:
    """Mixing coefficient for the jump tau_i -> tau_{i-1}; defined for i >= 2."""
    if not 2 <= i <= tau.s:
        raise ValueError(f"subsequence position {i} outside 2..{tau.s}")
    a_prev = sched.alpha_bar_at(int(tau.tau[i - 2]))
    a_cur = sched.alpha_bar_at(int(tau.tau[i - 1]))
    return math.sqrt(a_prev) - math.sqrt(1.0 - a_prev) * math.sqrt(a_cur) / math.sqrt(
        1.0 - a_cur)


def step_coefficients(i: int, sched: VarianceSchedule, tau: Subsequence,
                      eps_pred: np.ndarray) -> StepCoefficients:
    a_prev = sched.alpha_bar_at(int(tau.tau[i - 2]))
    a_cur = sched.alpha_bar_at(int(tau.tau[i - 1]))
    return StepCoefficients(
        a_prev=a_prev,
        a_cur=a_cur,
        gamma=capital_gamma(i, sched, tau),
        sigma_bar=math.sqrt(optimal_variance(eps_pred, int(tau.tau[i - 1]), sched)),
    )


def improved_step(x_cur: np.ndarray, eps_pred: np.ndarray, i: int,
                  sched: VarianceSchedule, tau: Subsequence,
                  eps_draw: np.ndarray) -> np.ndarray:
    """One accelerated reverse update written through the x0 estimate."""
    c = step_coefficients(i, sched, tau, eps_pred)
    mu = estimate_x0(x_cur, eps_pred, int(tau.tau[i - 1]), sched)
    lead = math.sqrt(1.0 - c.a_prev) / math.sqrt(1.0 - c.a_cur)
    return lead * x_cur + c.gamma * mu + c.gamma * c.sigma_bar * eps_draw


def detailed_step(x_cur: np.ndarray, eps_pred: np.ndarray, i: int,
                  sched: VarianceSchedule, tau: Subsequence,
                  eps_draw: np.ndarray) -> np.ndarray:
    """The same update expanded directly in (x, eps_pred, eps_draw)."""
    c = step_coefficients(i, sched, tau, eps_pred)
    x_coef = math.sqrt(c.a_prev) / math.sqrt(c.a_cur)
    e_coef = math.sqrt(1.0 - c.a_prev) - math.sqrt(c.a_prev) * math.sqrt(
        1.0 - c.a_cur) / math.sqrt(c.a_cur)
    return x_coef * x_cur + c.gamma * c.sigma_bar * eps_draw + e_coef * eps_pred


def reverse_step(x: np.ndarray, eps: np.ndarray, i: int,
                 sched: VarianceSchedule, tau: Subsequence,
                 rng: np.random.Generator) -> np.ndarray:
    """Step from position i with the noise estimate eps: improved_step
    with a fresh draw from rng, or at i = 1 the closing estimate_x0."""
    if i == 1:
        return estimate_x0(x, eps, int(tau.tau[0]), sched)
    return improved_step(x, eps, i, sched, tau, rng.standard_normal(x.shape))


def unconditional_sample(params: DenoiserParams, shape: tuple,
                         sched: VarianceSchedule, tau: Subsequence,
                         rng: np.random.Generator, trace: bool = False):
    """Generate an (M, T) window from pure noise down the subsequence;
    close with estimate_x0. With trace, returns (x0, SamplerTrace). Any
    other shape is a ValueError, before the first denoiser call."""
    if len(shape) != 2:
        raise ValueError(f"shape must be (M, T), got {tuple(shape)}")

    def update(b, rng, x, eps_pred, i, r):
        return reverse_step(x, eps_pred, i, sched, tau, rng), eps_pred

    return reverse_lockstep(params, rng, shape, sched, tau, update,
                            trace=trace)


def window_rngs(y0: np.ndarray, seed: int, seeds=None):
    """The generator of an (M, T) window, default_rng(seed), or the list
    of a (B, M, T) stack's, default_rng(seeds[b]) with seed ^ b by
    default."""
    if y0.ndim == 2:
        return np.random.default_rng(seed)
    if seeds is None:
        seeds = [seed ^ b for b in range(len(y0))]
    return [np.random.default_rng(s) for s in seeds]


def reverse_lockstep(params: DenoiserParams, rngs, shape: tuple,
                     sched: VarianceSchedule, tau: Subsequence, update,
                     R: int = 1, trace: bool = False, failed=None):
    """Run the reverse process down tau for one window per generator in
    rngs, all windows in lockstep: one predict_noise call per pass.

    Window b starts from rngs[b].standard_normal(shape). It takes R
    passes at each position i = s..2 and one closing pass at i = 1,
    each x, eps = update(b, rngs[b], x, eps_pred, i, r) for r = 1..R,
    where eps_pred is the prediction at tau_i and eps the noise estimate
    the update stepped with. A latent that turns non-finite fails its
    window; so does failed[b], before the first pass. With trace, a
    window's result is (x0, SamplerTrace), whose sigma_bar is taken
    from eps (0 at the close).

    Returns per window its result or the exception it failed with. A
    lone Generator for rngs is a one-window call: it returns that
    window's result and raises its failure.
    """
    one = isinstance(rngs, np.random.Generator)
    rngs = [rngs] if one else rngs
    stack = Lockstep(np.stack([rng.standard_normal(shape) for rng in rngs]))
    for b, error in (failed or {}).items():
        stack.drop(b, error)
    traces = [SamplerTrace() for _ in rngs]
    for i in range(tau.s, 0, -1):
        t_cur = int(tau.tau[i - 1])
        for r in range(1, (R if i > 1 else 1) + 1):
            t0 = time.perf_counter()
            sigma_bar = {}

            def step(b, x, eps_pred):
                x, eps = update(b, rngs[b], x, eps_pred, i, r)
                if trace:
                    sigma_bar[b] = 0.0 if i == 1 else math.sqrt(
                        optimal_variance(eps, t_cur, sched))
                if not np.all(np.isfinite(x)):
                    raise RuntimeError(f"non-finite latent at step tau={t_cur}")
                return x

            stack.step(params, t_cur, step)
            if trace:
                elapsed_ms = (time.perf_counter() - t0) * 1e3
                for b in stack.rows:
                    traces[b].add(t_cur, sigma_bar[b], elapsed_ms)
    outs = [out if isinstance(out, Exception) or not trace
            else (out, traces[b]) for b, out in enumerate(stack.outcomes())]
    if one and isinstance(outs[0], Exception):
        raise outs[0]
    return outs[0] if one else outs


class Lockstep:
    """A (B, M, T) stack of latents stepped through the reverse process
    together, one predict_noise call per step for the whole stack.

    Each window keeps its own step math (its own noise draws, its own
    sigma_bar), and predict_noise gives a window the same bits in a
    stack as alone, so every window ends bit-identical to a one-window
    run. A window whose update raises leaves the stack, and the
    exception becomes its outcome. If the stacked denoiser call raises,
    it is rerun one window at a time, so only the windows that fail
    alone leave.
    """

    def __init__(self, x: np.ndarray):
        self.count = len(x)
        self.rows = list(range(len(x)))  # window index of each stack row
        self.x = x
        self.failed = {}  # window index -> exception

    def drop(self, b: int, error: Exception) -> None:
        """Take window b out of the stack with `error` as its outcome."""
        k = self.rows.index(b)
        del self.rows[k]
        self.x = np.delete(self.x, k, axis=0)
        self.failed[b] = error

    def step(self, params: DenoiserParams, n: int, update) -> None:
        """x[b] = update(b, x[b], eps[b]) for every window b still in the
        stack, where eps = predict_noise(params, x, n)."""
        if not self.rows:
            return
        try:
            eps = predict_noise(params, self.x, n)
        except Exception:  # noqa: BLE001 - find the windows that fail alone
            eps = [self._alone(params, k, n) for k in range(len(self.rows))]
        rows, xs = [], []
        for k, b in enumerate(self.rows):
            if b in self.failed:
                continue
            try:
                xs.append(update(b, self.x[k], eps[k]))
                rows.append(b)
            except Exception as e:  # noqa: BLE001 - isolated per window
                self.failed[b] = e
        self.rows = rows
        self.x = np.stack(xs) if xs else self.x[:0]

    def _alone(self, params, k, n):
        try:
            return predict_noise(params, self.x[k], n)
        except Exception as e:  # noqa: BLE001 - isolated per window
            self.failed[self.rows[k]] = e
            return None

    def outcomes(self) -> list:
        """Per window: its final x or the exception it failed with."""
        final = dict(zip(self.rows, self.x))
        return [self.failed[b] if b in self.failed else final[b]
                for b in range(self.count)]
