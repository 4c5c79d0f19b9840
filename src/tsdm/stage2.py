"""Diffusion-based masked imputation with resampling (stage 2).

Given trusted entries (mask=1) and entries to impute (mask=0), each
reverse step composes three updates:

    known part:  x^K = sqrt(a') y0 + sqrt(1-a') eps1        (diffuse_known)
    missing part: x^G = accelerated reverse update of x     (detailed step)
    combine:     x'  = mask * x^K + (1-mask) * x^G

and, on all but the last of R inner passes, renoises the combined latent
back to level tau_i so the next pass re-denoises it. The loop renoises
with the exact forward kernel between the two adjacent subsequence
levels, x = sqrt(a_i/a_{i-1}) x' + sqrt(1 - a_i/a_{i-1}) eps2, which
keeps repeated passes level-consistent under subsequence jumps and
reduces to RePaint's single-step form sqrt(1-beta) x' + sqrt(beta) eps2
when the subsequence stride is 1. The final estimate
pins observed entries to sqrt(alpha_bar(tau_1)) y0 and fills the rest
with the clean-signal estimate. Missing-entry values of y0 are
zero-filled up front and never read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .denoiser import DenoiserParams
from .sampler import (check_observed, detailed_step, estimate_x0,
                      forward_diffuse, reverse_lockstep, window_rngs)
from .schedule import Subsequence, VarianceSchedule


@dataclass(frozen=True)
class ImputeConfig:
    tau: Subsequence
    R: int = 2
    seed: int = 0
    rescale_observed: bool = False

    def __post_init__(self):
        if not isinstance(self.R, (int, np.integer)) or self.R < 1:
            raise ValueError(f"resampling count R must be an integer of at "
                             f"least 1, got {self.R!r}")


def diffuse_known(y0: np.ndarray, i: int, sched: VarianceSchedule,
                  tau: Subsequence, eps1: np.ndarray) -> np.ndarray:
    """Forward-diffuse the trusted data to level tau_{i-1}."""
    tau.level(i, 2)  # checks that tau_i has a predecessor
    return forward_diffuse(y0, tau.level(i - 1), eps1, sched)


def renoise_to_level(x_prev: np.ndarray, i: int, sched: VarianceSchedule,
                     tau: Subsequence, eps2: np.ndarray) -> np.ndarray:
    """Renoise from level tau_{i-1} back to tau_i with the forward kernel.

    Uses the compound ratio a_{tau_i}/a_{tau_{i-1}}, so a renoised latent
    sits at exactly the level the next denoising pass expects even when
    the subsequence jumps several schedule steps. When tau_i - tau_{i-1}
    == 1 this is sqrt(1-beta) x + sqrt(beta) eps with beta = beta(tau_i).
    """
    a_cur = sched.alpha_bar_at(tau.level(i, 2))
    a_prev = sched.alpha_bar_at(tau.level(i - 1))
    x_prev = np.asarray(x_prev, dtype=np.float64)
    eps2 = np.asarray(eps2, dtype=np.float64)
    if x_prev.shape != eps2.shape:
        raise ValueError(f"shape mismatch {x_prev.shape} vs {eps2.shape}")
    ratio = a_cur / a_prev
    return np.sqrt(ratio) * x_prev + np.sqrt(1.0 - ratio) * eps2


def stage2_impute(params: DenoiserParams, y0: np.ndarray, mask: np.ndarray,
                  cfg: ImputeConfig, sched: VarianceSchedule, seeds=None):
    """Impute mask=0 entries of y0 by masked reverse diffusion.

    y0 and mask are one (M, T) window or a (B, M, T) stack. A stack runs
    in lockstep (sampler.reverse_lockstep), stepped, masked and renoised
    as one array per pass; window b draws from its own
    default_rng(seeds[b]), by default cfg.seed ^ b, in the order a
    one-window call draws, so its result is bit-identical to imputing it
    alone with that seed. For a stack the result is the list of the
    imputed windows, or a raise that fails the whole stack. An observed
    entry that sampler.check_observed refuses is its ValueError, before
    any denoiser call.
    """
    y0 = np.asarray(y0, dtype=np.float64)
    mask = np.asarray(mask, dtype=np.float64)
    if y0.shape != mask.shape:
        raise ValueError(f"shape mismatch {y0.shape} vs {mask.shape}")
    if not np.all((mask == 0.0) | (mask == 1.0)):
        raise ValueError("mask must be binary (0/1)")
    if y0.ndim not in (2, 3):
        raise ValueError(f"expected (M, T) or (B, M, T), got {y0.shape}")
    rngs = window_rngs(y0, cfg.seed, seeds)
    shape, tau = y0.shape[-2:], cfg.tau
    # Missing entries are never read; zero-fill keeps arithmetic finite
    # even when they arrive as NaN sentinels.
    y0 = np.where(mask == 1.0, y0, 0.0)
    check_observed(y0)
    y0 = y0.reshape((-1,) + shape)
    observed = mask.reshape(y0.shape) == 1.0
    a1 = sched.alpha_bar_at(tau.level(1))

    def update(x, eps_pred, sigma_bar, i, r, draw):
        if i == 1:
            mu = estimate_x0(x, eps_pred, tau.level(1), sched)
            known = y0 if cfg.rescale_observed else np.sqrt(a1) * y0
            return np.where(observed, known, mu)
        known = diffuse_known(y0, i, sched, tau, draw())
        generated = detailed_step(x, eps_pred, i, sched, tau, draw(),
                                  sigma_bar)
        x = np.where(observed, known, generated)
        if r < cfg.R:  # keeps a non-finite x non-finite for the check
            x = renoise_to_level(x, i, sched, tau, draw())
        return x

    return reverse_lockstep(params, rngs, shape, sched, tau, update, R=cfg.R)
