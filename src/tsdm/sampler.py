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

The final step to tau_1 is closed by estimate_x0, not another update.

reverse_lockstep is the one reverse loop: unconditional sampling, stage
1 and stage 2 each run it with their own update, a stack of windows in
lockstep with one predict_noise call and one stacked update per pass.
Each window still draws from its own generator and gets its own
sigma_bar, so it ends with the bits of a one-window run.
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
    sigma_bar: float  # or a (B, 1, 1) column, one value per window

    def __post_init__(self):
        if not self.a_prev > self.a_cur:
            raise ValueError("a_prev must exceed a_cur (schedule monotonicity)")
        if not math.isfinite(self.gamma):
            raise ValueError("Gamma must be finite")
        if np.any(self.sigma_bar < 0):
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


def sigma_bar_rows(eps: np.ndarray, n: int, sched: VarianceSchedule):
    """sqrt(optimal_variance(eps[b], n, sched)) for every row b of a
    (B, M, T) stack, as a (B, 1, 1) column, and {b: exception} for the
    rows where optimal_variance raises (NaN in the column).

    One reduction gives every row's mean square; a row whose mean
    square is not finite is recomputed alone through optimal_variance,
    so it overflows or clamps exactly as there.
    """
    if not 1 <= n <= sched.N:
        raise ValueError(f"step {n} outside 1..{sched.N}")
    a = sched.alpha_bar_at(n)
    with np.errstate(over="ignore"):
        msq = np.mean(eps**2, axis=(1, 2))
    var = np.maximum((1.0 - a) / a * (1.0 - msq), 0.0)
    failed = {}
    if not np.isfinite(msq).all():
        for b in np.flatnonzero(~np.isfinite(msq)):
            try:
                var[b] = optimal_variance(eps[b], n, sched)
            except FloatingPointError as e:
                var[b], failed[int(b)] = np.nan, e
    return np.sqrt(var)[:, None, None], failed


def capital_gamma(i: int, sched: VarianceSchedule, tau: Subsequence) -> float:
    """Mixing coefficient for the jump tau_i -> tau_{i-1}; defined for i >= 2."""
    if not 2 <= i <= tau.s:
        raise ValueError(f"subsequence position {i} outside 2..{tau.s}")
    a_prev = sched.alpha_bar_at(int(tau.tau[i - 2]))
    a_cur = sched.alpha_bar_at(int(tau.tau[i - 1]))
    return math.sqrt(a_prev) - math.sqrt(1.0 - a_prev) * math.sqrt(a_cur) / math.sqrt(
        1.0 - a_cur)


def step_coefficients(i: int, sched: VarianceSchedule, tau: Subsequence,
                      eps_pred: np.ndarray, sigma_bar=None) -> StepCoefficients:
    """The coefficients of the jump tau_i -> tau_{i-1}. sigma_bar, a
    scalar or a (B, 1, 1) column (sigma_bar_rows), defaults to the root
    of eps_pred's optimal variance."""
    a_prev = sched.alpha_bar_at(int(tau.tau[i - 2]))
    a_cur = sched.alpha_bar_at(int(tau.tau[i - 1]))
    gamma = capital_gamma(i, sched, tau)
    if sigma_bar is None:
        sigma_bar = math.sqrt(
            optimal_variance(eps_pred, int(tau.tau[i - 1]), sched))
    return StepCoefficients(a_prev=a_prev, a_cur=a_cur, gamma=gamma,
                            sigma_bar=sigma_bar)


def improved_step(x_cur: np.ndarray, eps_pred: np.ndarray, i: int,
                  sched: VarianceSchedule, tau: Subsequence,
                  eps_draw: np.ndarray, sigma_bar=None) -> np.ndarray:
    """One accelerated reverse update written through the x0 estimate;
    sigma_bar as in step_coefficients."""
    c = step_coefficients(i, sched, tau, eps_pred, sigma_bar)
    mu = estimate_x0(x_cur, eps_pred, int(tau.tau[i - 1]), sched)
    lead = math.sqrt(1.0 - c.a_prev) / math.sqrt(1.0 - c.a_cur)
    return lead * x_cur + c.gamma * mu + c.gamma * c.sigma_bar * eps_draw


def detailed_step(x_cur: np.ndarray, eps_pred: np.ndarray, i: int,
                  sched: VarianceSchedule, tau: Subsequence,
                  eps_draw: np.ndarray, sigma_bar=None) -> np.ndarray:
    """The same update expanded directly in (x, eps_pred, eps_draw)."""
    c = step_coefficients(i, sched, tau, eps_pred, sigma_bar)
    x_coef = math.sqrt(c.a_prev) / math.sqrt(c.a_cur)
    e_coef = math.sqrt(1.0 - c.a_prev) - math.sqrt(c.a_prev) * math.sqrt(
        1.0 - c.a_cur) / math.sqrt(c.a_cur)
    return x_coef * x_cur + c.gamma * c.sigma_bar * eps_draw + e_coef * eps_pred


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
    default."""
    if y0.ndim == 2:
        return np.random.default_rng(seed)
    if seeds is None:
        seeds = [seed ^ b for b in range(len(y0))]
    return [np.random.default_rng(s) for s in seeds]


def reverse_lockstep(params: DenoiserParams, rngs, shape: tuple,
                     sched: VarianceSchedule, tau: Subsequence, update=None,
                     guide=None, R: int = 1, trace: bool = False,
                     failed=None):
    """Run the reverse process down tau for one window per generator in
    rngs, all windows in lockstep: one predict_noise call and one stacked
    update per pass.

    Window b starts from rngs[b].standard_normal(shape). It takes R
    passes at each position i = s..2 and one closing pass at i = 1. A
    pass steps the stack x of the windows still running, whose indices
    are `rows`, from the prediction eps_pred at tau_i:

        eps = guide(rows, x, eps_pred, i)        # eps_pred if no guide
        x = update(rows, x, eps, sigma_bar, i, r, draw)

    where sigma_bar is sigma_bar_rows' column over eps (0.0 at the
    close) and draw() a fresh stack of standard normals, row k drawn
    from rngs[rows[k]], so every window draws in the order a one-window
    run does. The default update is the improved step, closed by
    estimate_x0.

    A window fails when its sigma_bar raises or its latent turns
    non-finite; failed[b] fails window b before the first pass. A pass
    that raises is replayed one window at a time on the draws each took,
    so only the windows that fail alone leave, each with the exception
    it raises alone. With trace, a window's result is (x0,
    SamplerTrace), holding its sigma_bar at each pass.

    Returns per window its result or the exception it failed with. A
    lone Generator for rngs is a one-window call: it returns that
    window's result and raises its failure.
    """
    one = isinstance(rngs, np.random.Generator)
    rngs = [rngs] if one else rngs
    if update is None:
        def update(rows, x, eps, sigma_bar, i, r, draw):
            if i == 1:
                return estimate_x0(x, eps, int(tau.tau[0]), sched)
            return improved_step(x, eps, i, sched, tau, draw(), sigma_bar)

    stack = Lockstep(_Normals(rngs, range(len(rngs)), shape)())
    for b, error in (failed or {}).items():
        stack.drop(b, error)
    traces = [SamplerTrace() for _ in rngs]
    for i in range(tau.s, 0, -1):
        t_cur = int(tau.tau[i - 1])
        for r in range(1, (R if i > 1 else 1) + 1):
            t0 = time.perf_counter()
            sigmas = {}  # window -> its sigma_bar at this pass, for trace

            def run(rows, x, eps_pred, draw):
                eps = eps_pred if guide is None else guide(rows, x, eps_pred,
                                                           i)
                col = 0.0
                if i > 1:
                    col, bad = sigma_bar_rows(eps, t_cur, sched)
                    if bad:  # step() replays the pass window by window
                        raise bad[min(bad)]
                    if trace:
                        sigmas.update(zip(rows, col.ravel().tolist()))
                return update(rows, x, eps, col, i, r, draw)

            def step(rows, x, eps_pred):
                draw, failed = _Normals(rngs, rows, shape), {}
                try:
                    out = run(rows, x, eps_pred, draw)
                except Exception:  # noqa: BLE001 - find the windows that fail alone
                    out = np.full_like(x, np.nan)
                    for k, b in enumerate(rows):
                        try:
                            out[k] = run([b], x[k:k + 1], eps_pred[k:k + 1],
                                         draw.replay(k))[0]
                        except Exception as e:  # noqa: BLE001 - isolated per window
                            failed[k] = e
                if not np.isfinite(out).all():
                    for k in range(len(out)):
                        if k not in failed and not np.isfinite(out[k]).all():
                            failed[k] = RuntimeError(
                                f"non-finite latent at step tau={t_cur}")
                return out, failed

            stack.advance(params, t_cur, step)
            if trace:
                elapsed_ms = (time.perf_counter() - t0) * 1e3
                for b in stack.rows:
                    traces[b].add(t_cur, sigmas.get(b, 0.0), elapsed_ms)
    outs = [out if isinstance(out, Exception) or not trace
            else (out, traces[b]) for b, out in enumerate(stack.outcomes())]
    if one and isinstance(outs[0], Exception):
        raise outs[0]
    return outs[0] if one else outs


class _Normals:
    """A pass's draw(): each call returns a fresh stack of standard
    normals, row k drawn from rngs[rows[k]]. replay(k) is the draw() of
    window rows[k] alone, which first hands back the rows it took."""

    def __init__(self, rngs, rows, shape, taken=()):
        self.rngs, self.rows, self.shape = rngs, rows, tuple(shape)
        self.ahead = list(taken)
        self.taken = []

    def __call__(self) -> np.ndarray:
        if self.ahead:
            out = self.ahead.pop(0)
        else:
            out = np.empty((len(self.rows),) + self.shape)
            for k, b in enumerate(self.rows):
                self.rngs[b].standard_normal(out=out[k])
        self.taken.append(out)
        return out

    def replay(self, k: int) -> "_Normals":
        return _Normals(self.rngs, [self.rows[k]], self.shape,
                        [out[k:k + 1] for out in self.taken])


class Lockstep:
    """A (B, M, T) stack of latents stepped through the reverse process
    together: one predict_noise call and one update per step for the
    whole stack.

    predict_noise gives a window the same bits in a stack as alone, so
    with an update that treats the rows apart every window ends
    bit-identical to a one-window run. A window the update fails leaves
    the stack, and the exception becomes its outcome. If the stacked
    denoiser call raises, it is rerun one window at a time, so only the
    windows that fail alone leave.
    """

    def __init__(self, x: np.ndarray):
        self.count = len(x)
        self.rows = list(range(len(x)))  # window index of each stack row
        self.x = x
        self.failed = {}  # window index -> exception

    def drop(self, b: int, error: Exception) -> None:
        """Take window b out of the stack with `error` as its outcome."""
        self.failed[b] = error
        self._keep([k for k, row in enumerate(self.rows) if row != b])

    def advance(self, params: DenoiserParams, n: int, update) -> None:
        """x, failed = update(rows, x, eps) over the windows `rows` still
        in the stack, where eps = predict_noise(params, x, n) and failed
        maps a stack row to the exception its window leaves with."""
        if not self.rows:
            return
        try:
            eps = predict_noise(params, self.x, n)
        except Exception:  # noqa: BLE001 - find the windows that fail alone
            eps = [self._alone(params, k, n) for k in range(len(self.rows))]
            self._keep([k for k, e in enumerate(eps) if e is not None])
            if not self.rows:
                return
            eps = np.stack([e for e in eps if e is not None])
        self.x, failed = update(self.rows, self.x, eps)
        for k, error in failed.items():
            self.failed[self.rows[k]] = error
        if failed:
            self._keep([k for k in range(len(self.rows)) if k not in failed])

    def step(self, params: DenoiserParams, n: int, update) -> None:
        """x[b] = update(b, x[b], eps[b]) for every window b still in the
        stack: an advance one window at a time, in which a window whose
        update raises leaves with that exception."""

        def each(rows, x, eps):
            xs, failed = [], {}
            for k, b in enumerate(rows):
                try:
                    xs.append(update(b, x[k], eps[k]))
                except Exception as e:  # noqa: BLE001 - isolated per window
                    xs.append(x[k])
                    failed[k] = e
            return np.stack(xs), failed

        self.advance(params, n, each)

    def _keep(self, ks: list) -> None:
        self.rows = [self.rows[k] for k in ks]
        self.x = self.x[ks]

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
