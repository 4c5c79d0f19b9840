"""End-to-end two-stage recovery orchestration.

Stage 1 produces a guided estimate and flags untrusted entries via the
3-sigma test; externally known missing entries (NaNs or an explicit
mask) are force-flagged on top. If the untrusted fraction stays below
the branch threshold and no entry is known missing, the stage-1
estimate is returned; otherwise stage 2 re-imputes the flagged entries
with the trusted ones pinned.

A batch runs in lockstep: one denoiser call per reverse step for every
window, each result bit-identical to the window's one-window recovery.
`recover` is a batch of one.

All model arithmetic runs in normalized units (per-channel mean/std from
the training checkpoint); outputs are denormalized.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .denoiser import DenoiserParams
from .sampler import check_observed
from .schedule import (DEFAULT_BETA_END, DEFAULT_BETA_START,
                       VarianceSchedule, linear_schedule)
from .stage1 import GuidanceConfig, detect_outliers, stage1_recover
from .stage2 import ImputeConfig, stage2_impute

STAGE1_ONLY = "stage1_only"
STAGE1_PLUS_STAGE2 = "stage1_plus_stage2"


@dataclass(frozen=True)
class TsdmConfig:
    guidance: GuidanceConfig
    impute: ImputeConfig
    outlier_branch_threshold: float = 0.1
    beta_start: float = DEFAULT_BETA_START
    beta_end: float = DEFAULT_BETA_END

    def __post_init__(self):
        if not 0.0 < self.outlier_branch_threshold <= 1.0:
            raise ValueError("outlier_branch_threshold must be in (0, 1]")
        if self.guidance.tau.n_steps != self.impute.tau.n_steps:
            raise ValueError(
                "guidance and impute subsequences disagree on total steps")

    def schedule(self) -> VarianceSchedule:
        return linear_schedule(self.guidance.tau.n_steps, self.beta_start,
                               self.beta_end)


@dataclass(frozen=True)
class RecoveryResult:
    x_tilde: np.ndarray
    outlier_mask: np.ndarray  # 1 = trusted
    stage_taken: str
    outlier_fraction: float
    traces: dict


@dataclass(frozen=True)
class WindowFailure:
    index: int
    error: str


def recover(params: DenoiserParams, y0: np.ndarray, known_mask,
            cfg: TsdmConfig, norm_mean=None, norm_std=None) -> RecoveryResult:
    """Run the two-stage recovery on one measurement window: a batch of
    one, whose failure is raised. A window with another channel count
    than the model's, a length the model cannot take, no observed entry,
    or an observed entry that sampler.check_observed refuses once
    normalized is a ValueError, raised before any denoiser call."""
    out = _recover_windows(params, [y0], [known_mask], cfg, norm_mean,
                           norm_std)[0]
    if isinstance(out, Exception):
        raise out
    return out


def recover_batch(params: DenoiserParams, windows, cfg: TsdmConfig, *,
                  norm_mean=None, norm_std=None):
    """Recover many windows; order-preserving, seeds derived seed^index.

    The windows run in lockstep: each reverse step makes one denoiser
    call on their stack, first through stage 1 and then through stage 2
    for the windows that branch. Each result is bit-identical to
    `recover` of that window alone with seeds seed^index. A window
    `recover` refuses fails alone, as a WindowFailure at its index; a
    stage that raises fails each window of its stack, tagged with the
    stage. A stacked denoiser call is split across the usable cores, a
    count taken from the process's CPU affinity (see
    denoiser.predict_noise), with the same bits.
    """
    windows = [np.asarray(w, dtype=np.float64) for w in windows]
    if windows and any(w.shape != windows[0].shape for w in windows):
        raise ValueError("windows must share one shape")
    outs = _recover_windows(params, windows, [None] * len(windows), cfg,
                            norm_mean, norm_std)
    return [WindowFailure(index=k, error=str(out))
            if isinstance(out, Exception) else out
            for k, out in enumerate(outs)]


def observed_mask(y0, known_mask=None) -> np.ndarray:
    """The float64 mask of y0's observed entries (1 = observed): an entry
    is missing where known_mask is 0 or y0 is NaN. An infinite reading
    counts as observed, so sampler.check_observed refuses it. A mask of
    another shape than y0, or not binary, is a ValueError."""
    y0 = np.asarray(y0, dtype=np.float64)
    known = 1.0
    if known_mask is not None:
        known = np.asarray(known_mask, dtype=np.float64)
        if known.shape != y0.shape:
            raise ValueError(
                f"mask shape {known.shape} does not match {y0.shape}")
        if not np.all((known == 0.0) | (known == 1.0)):
            raise ValueError("mask must be binary (0/1)")
    return np.where(np.isnan(y0), 0.0, known)


def _normalize(y0, known_mask, config, norm_mean, norm_std):
    """(normalized window, known mask, mean, std) of one input window for
    a model of DenoiserConfig `config`."""
    y0 = np.asarray(y0, dtype=np.float64)
    if y0.ndim != 2:
        raise ValueError(f"expected a channels x time matrix, got {y0.shape}")
    M, T = y0.shape
    if M != config.channels_in:
        raise ValueError(f"window has {M} channels but the model takes "
                         f"{config.channels_in}")
    config.validate_window(T)
    mean = np.zeros(M) if norm_mean is None else np.asarray(norm_mean,
                                                            dtype=np.float64)
    std = np.ones(M) if norm_std is None else np.asarray(norm_std,
                                                         dtype=np.float64)
    if (mean.shape != (M,) or std.shape != (M,) or not np.isfinite(mean).all()
            or not np.all((std > 0) & (std < np.inf))):
        raise ValueError("normalization stats must be finite per-channel, "
                         "std positive")
    known = observed_mask(y0, known_mask)
    if not known.any():
        raise ValueError("window has no observed entries: every entry is "
                         "missing")
    with np.errstate(over="ignore"):  # an overflow is refused below
        yn = (y0 - mean[:, None]) / std[:, None]
    yn = np.where(known == 1.0, yn, 0.0)  # placeholder = channel mean
    check_observed(yn)
    return yn, known, mean, std


def _tagged(stage: str, error: Exception) -> Exception:
    if not isinstance(error, (RuntimeError, FloatingPointError)):
        return error
    tagged = RuntimeError(f"{stage}: {error}")
    tagged.__cause__ = error
    return tagged


def _recover_windows(params, windows, known_masks, cfg, norm_mean,
                     norm_std) -> list:
    """Per window k, its RecoveryResult or the exception it failed with.

    Window k runs with seeds seed^k; all windows step in lockstep.
    """
    outs = [None] * len(windows)
    ready = {}
    for k, (y0, known_mask) in enumerate(zip(windows, known_masks)):
        try:
            ready[k] = _normalize(y0, known_mask, params.config, norm_mean,
                                  norm_std)
        except Exception as e:  # noqa: BLE001 - reported per window
            outs[k] = e
    if not ready:
        return outs
    sched = cfg.schedule()
    ids = list(ready)
    try:
        stage1 = stage1_recover(
            params, np.stack([ready[k][0] for k in ids]), cfg.guidance,
            sched, seeds=[cfg.guidance.seed ^ k for k in ids])
    except Exception as e:  # noqa: BLE001 - fails every window of the stack
        error = _tagged("stage1", e)
        return [error if k in ready else out for k, out in enumerate(outs)]
    branch = []
    for k, (x0p, trace1) in zip(ids, stage1):
        yn, known, mean, std = ready[k]
        mask = detect_outliers(x0p, yn).mask * known  # force-flag missing
        fraction = float(1.0 - mask.mean())
        outs[k] = RecoveryResult(
            x_tilde=x0p * std[:, None] + mean[:, None], outlier_mask=mask,
            stage_taken=STAGE1_ONLY, outlier_fraction=fraction,
            traces={"stage1": trace1})
        # stage 1 pulls the placeholders of known-missing entries toward
        # the channel mean; only stage 2 imputes them
        if fraction >= cfg.outlier_branch_threshold or not known.all():
            branch.append(k)
    if not branch:
        return outs
    try:
        stage2 = stage2_impute(
            params, np.stack([ready[k][0] for k in branch]),
            np.stack([outs[k].outlier_mask for k in branch]), cfg.impute,
            sched, seeds=[cfg.impute.seed ^ k for k in branch])
    except Exception as e:  # noqa: BLE001 - fails every window of the stack
        error = _tagged("stage2", e)
        return [error if k in branch else out for k, out in enumerate(outs)]
    for k, out in zip(branch, stage2):
        _, _, mean, std = ready[k]
        outs[k] = dataclasses.replace(
            outs[k], x_tilde=out * std[:, None] + mean[:, None],
            stage_taken=STAGE1_PLUS_STAGE2)
    return outs
