"""Variance schedules and accelerated sampling subsequences.

Indices follow the 1-based convention used throughout the samplers:
step n runs from 1 to N, beta[n - 1] is the noise variance added at
step n, and alpha_bar_at(n) is the cumulative signal ratio with the
anchor alpha_bar_at(0) == 1 so single-jump updates to the clean signal
are well-defined. from_betas refuses betas whose alpha_bar is not
strictly decreasing and positive over steps 1..N, so every jump of a
subsequence has a_prev > a_cur > 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DEFAULT_BETA_START = 1e-4
DEFAULT_BETA_END = 0.05


@dataclass(frozen=True)
class VarianceSchedule:
    """Per-step noise variances and their cumulative signal ratios."""

    beta: np.ndarray
    alpha_bar: np.ndarray

    @classmethod
    def from_betas(cls, betas: np.ndarray) -> "VarianceSchedule":
        betas = np.asarray(betas, dtype=np.float64)
        if betas.ndim != 1 or betas.size < 1:
            raise ValueError("betas must be a nonempty 1-D array")
        if np.any(betas <= 0) or np.any(betas >= 1):
            raise ValueError("betas must lie strictly inside (0, 1)")
        if betas.size > 1 and np.any(np.diff(betas) <= 0):
            raise ValueError("betas must be strictly increasing")
        alpha_bar = np.cumprod(1.0 - betas)
        bad = np.flatnonzero((alpha_bar == 0)
                             | (np.diff(alpha_bar, prepend=np.inf) >= 0))
        if bad.size:
            n = int(bad[0]) + 1
            how = "reaches 0" if alpha_bar[n - 1] == 0 else "stops decreasing"
            raise ValueError(f"alpha_bar {how} at step {n} of {betas.size}")
        betas.flags.writeable = False
        alpha_bar.flags.writeable = False
        return cls(beta=betas, alpha_bar=alpha_bar)

    @property
    def N(self) -> int:
        return self.beta.size

    def alpha_bar_at(self, n: int, first: int = 0) -> float:
        if not first <= n <= self.N:
            raise ValueError(f"step {n} outside {first}..{self.N}")
        return 1.0 if n == 0 else float(self.alpha_bar[n - 1])


def linear_schedule(
    n_steps: int,
    beta_start: float = DEFAULT_BETA_START,
    beta_end: float = DEFAULT_BETA_END,
) -> VarianceSchedule:
    """Linearly spaced betas, inclusive of both endpoints; N=1 keeps start."""
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    if not 0.0 < beta_start < 1.0 or not 0.0 < beta_end < 1.0:
        raise ValueError("beta endpoints must lie in (0, 1)")
    if n_steps > 1 and beta_start >= beta_end:
        raise ValueError("beta_start must be below beta_end")
    return VarianceSchedule.from_betas(np.linspace(beta_start, beta_end, n_steps))


@dataclass(frozen=True)
class Subsequence:
    """Strictly increasing 1-based step indices ending at N; level(i)
    is the one map from a position i on the subsequence to its step."""

    tau: np.ndarray
    n_steps: int
    s: int = field(init=False)

    def __post_init__(self):
        tau = np.asarray(self.tau, dtype=np.int64)
        if tau.ndim != 1 or tau.size < 1:
            raise ValueError("tau must be a nonempty 1-D index array")
        if tau[0] < 1:
            raise ValueError("subsequence must start at or after step 1")
        if tau[-1] != self.n_steps:
            raise ValueError(f"subsequence must end at N={self.n_steps}")
        if tau.size > 1 and np.any(np.diff(tau) <= 0):
            raise ValueError("subsequence must be strictly increasing")
        tau.flags.writeable = False
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "s", int(tau.size))

    def level(self, i: int, first: int = 1) -> int:
        """tau_i for a position i in first..s (2 where i needs a predecessor)."""
        if not first <= i <= self.s:
            raise ValueError(f"subsequence position {i} outside {first}..{self.s}")
        return int(self.tau[i - 1])


def make_subsequence(n_steps: int, s: int, strategy: str = "uniform") -> Subsequence:
    """Pick s of the N steps for accelerated sampling, always keeping step N.

    "uniform" uses stride floor(N/s); "quadratic" clusters early steps near 1.
    """
    if not 1 <= s <= n_steps:
        raise ValueError(f"s must lie in 1..{n_steps}, got {s}")
    if strategy == "uniform":
        stride = n_steps // s
        tau = stride * np.arange(1, s + 1, dtype=np.int64)
        tau[-1] = n_steps
    elif strategy == "quadratic":
        tau = np.round(n_steps * (np.arange(1, s + 1) / s) ** 2).astype(np.int64)
        tau = np.maximum(tau, 1)
        tau[-1] = n_steps
        if tau.size > 1 and np.any(np.diff(tau) <= 0):
            raise ValueError("quadratic spacing collapses for this (N, s); use uniform")
    else:
        raise ValueError(f"unknown subsequence strategy {strategy!r}")
    return Subsequence(tau=tau, n_steps=n_steps)
