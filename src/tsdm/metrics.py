"""Recovery metrics and the linear-interpolation baseline.

Weighted RMSE is sqrt((1/(M*T)) * sum_m w_m * sum_t (x - x~)^2) with
unit weights by default. Detection quality is standard precision/recall
over binary corruption masks. The baseline imputes per channel by linear
interpolation between observed neighbors with edge hold.
"""

from __future__ import annotations

import numpy as np


def weighted_rmse(truth: np.ndarray, recovered: np.ndarray,
                  weights=None) -> float:
    """Channel-weighted RMSE; weights default to all-ones."""
    truth = np.asarray(truth, dtype=np.float64)
    recovered = np.asarray(recovered, dtype=np.float64)
    if truth.shape != recovered.shape or truth.ndim != 2:
        raise ValueError(f"shape mismatch {truth.shape} vs {recovered.shape}")
    M, T = truth.shape
    if weights is None:
        w = np.ones(M)
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (M,):
            raise ValueError(f"weights shape {w.shape}, expected ({M},)")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
    per_channel = np.sum((truth - recovered) ** 2, axis=1)
    return float(np.sqrt(np.sum(w * per_channel) / (M * T)))


def masked_rmse(truth: np.ndarray, recovered: np.ndarray,
                mask: np.ndarray) -> float:
    """Plain RMSE over missing entries only (mask=0 marks missing)."""
    truth = np.asarray(truth, dtype=np.float64)
    recovered = np.asarray(recovered, dtype=np.float64)
    mask = np.asarray(mask, dtype=np.float64)
    if not (truth.shape == recovered.shape == mask.shape):
        raise ValueError(
            f"shape mismatch {truth.shape}/{recovered.shape}/{mask.shape}")
    missing = mask == 0.0
    if not np.any(missing):
        raise ValueError("mask marks no missing entries to score")
    diff = truth[missing] - recovered[missing]
    return float(np.sqrt(np.mean(diff**2)))


def detection_metrics(flagged: np.ndarray, truth_corrupt: np.ndarray):
    """(precision, recall) of a flag mask against ground-truth corruption.

    Conventions for empty sets: no flags and no truth is a perfect (1,1);
    flags with empty truth gives recall 1 (nothing to miss); no flags
    with nonempty truth gives precision 0.
    """
    flagged = np.asarray(flagged).astype(bool)
    truth = np.asarray(truth_corrupt).astype(bool)
    if flagged.shape != truth.shape:
        raise ValueError(f"shape mismatch {flagged.shape} vs {truth.shape}")
    tp = int(np.sum(flagged & truth))
    fp = int(np.sum(flagged & ~truth))
    fn = int(np.sum(~flagged & truth))
    precision = tp / (tp + fp) if (tp + fp) else (1.0 if fn == 0 else 0.0)
    recall = tp / (tp + fn) if (tp + fn) else 1.0
    return float(precision), float(recall)


def baseline_interpolate(y0: np.ndarray, mask: np.ndarray,
                         channel_means=None) -> np.ndarray:
    """Per-channel linear interpolation of missing entries with edge hold.

    A channel with no observed point falls back to channel_means[m] when
    provided, else to the mean of all observed entries in the window.
    """
    y0 = np.asarray(y0, dtype=np.float64)
    mask = np.asarray(mask, dtype=np.float64)
    if y0.shape != mask.shape or y0.ndim != 2:
        raise ValueError(f"shape mismatch {y0.shape} vs {mask.shape}")
    M, T = y0.shape
    observed_any = y0[mask == 1.0]
    global_mean = float(observed_any.mean()) if observed_any.size else 0.0
    out = y0.copy()
    t_axis = np.arange(T)
    for m in range(M):
        obs = mask[m] == 1.0
        if not obs.any():
            if channel_means is not None:
                out[m] = float(np.asarray(channel_means)[m])
            else:
                out[m] = global_mean
            continue
        # np.interp holds edges at the first/last observed value
        out[m, ~obs] = np.interp(t_axis[~obs], t_axis[obs], y0[m, obs])
    return out
