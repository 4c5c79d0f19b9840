"""Two-stage diffusion recovery of corrupted multichannel measurement
matrices: guided denoising flags untrusted entries, then masked
imputation regenerates them with the trusted ones pinned.
"""

from .checkpoint import load_checkpoint, save_checkpoint
from .dataio import (load_mask_csv, load_matrix_csv, save_mask_csv,
                     save_matrix_csv)
from .denoiser import DenoiserConfig, DenoiserParams, TrainConfig, train
from .metrics import (baseline_interpolate, detection_metrics, masked_rmse,
                      weighted_rmse)
from .pipeline import (RecoveryResult, TsdmConfig, WindowFailure, recover,
                       recover_batch)
from .runconfig import RunConfig, load_runconfig, save_runconfig
from .schedule import VarianceSchedule, linear_schedule, make_subsequence
from .stage1 import GuidanceConfig, detect_outliers, stage1_recover
from .stage2 import ImputeConfig, stage2_impute
from .threatsim import (AttackSpec, MaskSpec, SynthSpec, inject_fdia,
                        make_loss_mask, synth_dataset)

__version__ = "0.1.0"

__all__ = [
    "AttackSpec", "DenoiserConfig", "DenoiserParams", "GuidanceConfig",
    "ImputeConfig", "MaskSpec", "RecoveryResult",
    "RunConfig", "SynthSpec", "TrainConfig", "TsdmConfig",
    "VarianceSchedule", "WindowFailure", "baseline_interpolate",
    "detect_outliers", "detection_metrics", "inject_fdia",
    "linear_schedule", "load_checkpoint", "load_mask_csv",
    "load_matrix_csv", "load_runconfig", "make_loss_mask",
    "make_subsequence", "masked_rmse", "recover", "recover_batch",
    "save_checkpoint", "save_mask_csv", "save_matrix_csv",
    "save_runconfig", "stage1_recover", "stage2_impute", "synth_dataset",
    "train", "weighted_rmse", "__version__",
]
