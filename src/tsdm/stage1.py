"""Guided conditional recovery and 3-sigma outlier localization (stage 1).

The reverse process is steered toward the contaminated measurements y0 by
(a) diffusing y0 to the current noise level using the model's own predicted
noise, and (b) correcting that prediction with a scaled residual:

    y_n   = sqrt(a) y0 + sqrt(1-a) eps_theta(x_n)        a = alpha_bar(n)
    eps^  = eps_theta - omega sqrt(1-a) (y_n - x_n)

The corrected noise drives the accelerated reverse update and the final
clean-signal estimate. Afterwards, entries where |x0' - y0| exceeds three
per-channel standard deviations of y0 are flagged as untrusted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .denoiser import DenoiserParams
from .sampler import (check_observed, forward_diffuse, reverse_lockstep,
                      window_rngs)
from .schedule import Subsequence, VarianceSchedule


@dataclass(frozen=True)
class GuidanceConfig:
    tau: Subsequence
    omega: float = 1.0
    seed: int = 0

    def __post_init__(self):
        _check_omega(self.omega)


def _check_omega(omega: float) -> None:
    # `not 0 <= omega < inf` also refuses a NaN, which every comparison fails
    if not 0 <= omega < np.inf:
        raise ValueError("guidance scale omega must be finite and nonnegative")


@dataclass(frozen=True)
class OutlierReport:
    mask: np.ndarray  # 1 = trusted, 0 = flagged
    residual_std: np.ndarray  # per-channel std of x0' - y0
    outlier_fraction: float


def condition_noisy(y0: np.ndarray, eps_pred: np.ndarray, i: int,
                    sched: VarianceSchedule, tau: Subsequence) -> np.ndarray:
    """Diffuse the conditioner to level tau_i reusing the predicted noise."""
    return forward_diffuse(y0, tau.level(i), eps_pred, sched)


def corrected_noise(eps_pred: np.ndarray, y_noisy: np.ndarray,
                    x_cur: np.ndarray, i: int, omega: float,
                    sched: VarianceSchedule, tau: Subsequence) -> np.ndarray:
    """Guidance-corrected noise; omega=0 returns the prediction unchanged."""
    _check_omega(omega)
    eps_pred = np.asarray(eps_pred, dtype=np.float64)
    if omega == 0.0:
        return eps_pred
    a = sched.alpha_bar_at(tau.level(i))
    return eps_pred - omega * np.sqrt(1.0 - a) * (
        np.asarray(y_noisy, dtype=np.float64) -
        np.asarray(x_cur, dtype=np.float64))


def stage1_recover(params: DenoiserParams, y0: np.ndarray,
                   cfg: GuidanceConfig, sched: VarianceSchedule,
                   seeds=None):
    """Guided reverse process from pure noise; returns (x0', trace).

    y0 is one (M, T) window or a (B, M, T) stack. A stack runs in
    lockstep (sampler.reverse_lockstep), guided and stepped as one array
    per pass; window b draws from its own
    default_rng(seeds[b]), by default cfg.seed ^ b, in the order a
    one-window call draws, so its result is bit-identical to recovering
    it alone with that seed. For a stack the result is the list of each
    window's (x0', trace), or a raise that fails the whole stack. An
    entry of y0 that sampler.check_observed refuses is its ValueError,
    before any denoiser call.
    """
    y0 = np.asarray(y0, dtype=np.float64)
    if y0.ndim not in (2, 3):
        raise ValueError(f"expected (M, T) or (B, M, T), got {y0.shape}")
    rngs = window_rngs(y0, cfg.seed, seeds)
    check_observed(y0)
    windows, tau = y0.reshape((-1,) + y0.shape[-2:]), cfg.tau

    def guide(x, eps_pred, i):
        y_noisy = condition_noisy(windows, eps_pred, i, sched, tau)
        return corrected_noise(eps_pred, y_noisy, x, i, cfg.omega, sched,
                               tau)

    return reverse_lockstep(params, rngs, y0.shape[-2:], sched, tau,
                            guide=guide, trace=True)


def detect_outliers(x0_prime: np.ndarray, y0: np.ndarray) -> OutlierReport:
    """Flag entries where |x0' - y0| exceeds 3 per-channel stds of y0.

    Zero-variance channels fall back to a 1e-8 threshold floor so any
    nonzero residual on a constant channel is flagged.
    """
    x0_prime = np.asarray(x0_prime, dtype=np.float64)
    y0 = np.asarray(y0, dtype=np.float64)
    if x0_prime.shape != y0.shape:
        raise ValueError(f"shape mismatch {x0_prime.shape} vs {y0.shape}")
    threshold = np.maximum(3.0 * y0.std(axis=1), 1e-8)
    residual = x0_prime - y0
    flags = np.abs(residual) > threshold[:, None]
    mask = 1.0 - flags.astype(np.float64)
    return OutlierReport(mask=mask,
                         residual_std=residual.std(axis=1),
                         outlier_fraction=float(flags.mean()))
