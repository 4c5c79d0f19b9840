"""Flat key=value run configuration shared by the CLI commands.

The document format is one `key=value` per line; blank lines and lines
starting with '#' are ignored. Every key has a default, so an empty
document is a complete configuration; unknown keys are rejected.
Integer-list values are comma-separated (empty string = empty list).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .denoiser import DenoiserConfig, TrainConfig
from .pipeline import TsdmConfig
from .schedule import VarianceSchedule, linear_schedule, make_subsequence
from .stage1 import GuidanceConfig
from .stage2 import ImputeConfig
from .threatsim import AttackSpec, MaskSpec, SynthSpec


@dataclass(frozen=True)
class RunConfig:
    """All run parameters, one field per config key.

    Schedule: n_steps (diffusion steps N), beta_start, beta_end
    (linear noise-variance ramp), subseq_len (accelerated sampling
    visits this many levels), subseq_strategy (uniform | quadratic).

    Model: channels, window (matrix dimensions), base_width, depth,
    time_embed_dim, kernel (denoiser architecture).

    Training: epochs, batch_size, learning_rate, grad_clip, shuffle,
    synth_count (training windows to generate).

    Recovery: omega (guidance scale), repeats (imputation resampling
    count R), outlier_branch_threshold (stage-2 trigger fraction),
    rescale_observed (undo the final-level scaling on observed entries).

    Attack: attack_kind, attack_channels, attack_start, attack_end,
    attack_magnitude (per-channel-std units).

    Mask: mask_kind, mask_ratio, mask_gamma_shape, mask_channels
    (empty = derive from ratio), mask_start, mask_end (-1 = full span).

    Synthesis: synth_mode, day_period, week_modulation, ramp_rate,
    offset_scale, noise_amp, event_time, damping, frequency.

    Metrics: weights (per-channel RMSE weights, empty = all ones).

    Sweep: sweep_axis (ratio | omega | repeats), sweep_values (grid
    points, empty = per-axis default grid).

    Bench: bench_repeats (timing repetitions per configuration).

    General: seed (a non-negative integer that flows into every derived
    spec), checkpoint (model file path), out_dir (artifact directory).
    """

    n_steps: int = 100
    beta_start: float = 1e-4
    beta_end: float = 0.05
    subseq_len: int = 10
    subseq_strategy: str = "uniform"

    channels: int = 8
    window: int = 64
    base_width: int = 16
    depth: int = 2
    time_embed_dim: int = 16
    kernel: int = 3

    epochs: int = 30
    batch_size: int = 32
    learning_rate: float = 2e-3
    grad_clip: float = 1.0
    shuffle: bool = True
    synth_count: int = 2000

    omega: float = 1.0
    repeats: int = 2
    outlier_branch_threshold: float = 0.1
    rescale_observed: bool = False

    attack_kind: str = "step"
    attack_channels: tuple = (0, 1)
    attack_start: int = 0
    attack_end: int = 64
    attack_magnitude: float = 3.0

    mask_kind: str = "nonrandom_missing"
    mask_ratio: float = 0.3
    mask_gamma_shape: float = 2.0
    mask_channels: tuple = ()
    mask_start: int = -1
    mask_end: int = -1

    synth_mode: str = "steady"
    day_period: float = 32.0
    week_modulation: float = 0.3
    ramp_rate: float = 0.4
    offset_scale: float = 1.6
    noise_amp: float = 0.1
    event_time: int = 16
    damping: float = 0.15
    frequency: float = 0.08

    weights: tuple = ()

    sweep_axis: str = "ratio"
    sweep_values: tuple = ()
    bench_repeats: int = 3

    seed: int = 0
    checkpoint: str = "model.tsdm"
    out_dir: str = "out"

    def __post_init__(self):
        if self.seed < 0:  # numpy's generators refuse it only later
            raise ValueError(f"bad value for seed: {self.seed!r} "
                             "(expected a non-negative integer)")


def _parse_typed(key: str, raw: str, default):
    try:
        if isinstance(default, bool):
            if raw.lower() == "true":
                return True
            if raw.lower() == "false":
                return False
            raise ValueError("expected true or false")
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return _finite(raw)
        if isinstance(default, tuple):
            if raw.strip() == "":
                return ()
            elems = [e.strip() for e in raw.split(",")]
            if key in ("weights", "sweep_values"):
                return tuple(_finite(e) for e in elems)
            return tuple(int(e) for e in elems)
        return raw
    except ValueError as e:
        raise ValueError(f"bad value for {key}: {raw!r} ({e})") from None


def _finite(raw: str) -> float:
    v = float(raw)
    if not math.isfinite(v):
        raise ValueError("not a finite number")
    return v


def _format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, tuple):
        return ",".join(map(_format_value, v))
    if isinstance(v, float):  # 12 digits when they parse back to v
        short = f"{v:.12g}"
        return short if float(short) == v else repr(v)
    return str(v)


def parse_runconfig(text: str) -> RunConfig:
    defaults = {f.name: f.default if f.default is not dataclasses.MISSING
                else f.default_factory() for f in dataclasses.fields(RunConfig)}
    values = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in defaults:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        values[key] = _parse_typed(key, raw.strip(), defaults[key])
    return RunConfig(**values)


def format_runconfig(cfg: RunConfig) -> str:
    lines = [f"{f.name}={_format_value(getattr(cfg, f.name))}"
             for f in dataclasses.fields(RunConfig)]
    return "\n".join(lines) + "\n"


def load_runconfig(path) -> RunConfig:
    with open(path) as f:
        return parse_runconfig(f.read())


def save_runconfig(path, cfg: RunConfig) -> None:
    with open(path, "w") as f:
        f.write(format_runconfig(cfg))


# ------------------------------------------------- derived configurations


def make_schedule(cfg: RunConfig) -> VarianceSchedule:
    return linear_schedule(cfg.n_steps, cfg.beta_start, cfg.beta_end)


def make_subseq(cfg: RunConfig):
    return make_subsequence(cfg.n_steps, cfg.subseq_len, cfg.subseq_strategy)


def make_denoiser_config(cfg: RunConfig) -> DenoiserConfig:
    return DenoiserConfig(channels_in=cfg.channels, base_width=cfg.base_width,
                          depth=cfg.depth, time_embed_dim=cfg.time_embed_dim,
                          kernel=cfg.kernel)


def make_train_config(cfg: RunConfig) -> TrainConfig:
    return TrainConfig(epochs=cfg.epochs, batch_size=cfg.batch_size,
                       learning_rate=cfg.learning_rate, seed=cfg.seed,
                       grad_clip=cfg.grad_clip, shuffle=cfg.shuffle)


def make_tsdm_config(cfg: RunConfig) -> TsdmConfig:
    tau = make_subseq(cfg)
    return TsdmConfig(
        guidance=GuidanceConfig(tau=tau, omega=cfg.omega, seed=cfg.seed),
        impute=ImputeConfig(tau=tau, R=cfg.repeats, seed=cfg.seed,
                            rescale_observed=cfg.rescale_observed),
        outlier_branch_threshold=cfg.outlier_branch_threshold,
        beta_start=cfg.beta_start,
        beta_end=cfg.beta_end,
    )


def make_synth_spec(cfg: RunConfig) -> SynthSpec:
    return SynthSpec(mode=cfg.synth_mode, M=cfg.channels, T=cfg.window,
                     day_period=cfg.day_period,
                     week_modulation=cfg.week_modulation,
                     ramp_rate=cfg.ramp_rate, offset_scale=cfg.offset_scale,
                     noise_amp=cfg.noise_amp, event_time=cfg.event_time,
                     damping=cfg.damping, frequency=cfg.frequency,
                     seed=cfg.seed)


def make_attack_spec(cfg: RunConfig) -> AttackSpec:
    return AttackSpec(kind=cfg.attack_kind, channels=cfg.attack_channels,
                      t_start=cfg.attack_start, t_end=cfg.attack_end,
                      magnitude=cfg.attack_magnitude, seed=cfg.seed)


def make_mask_spec(cfg: RunConfig) -> MaskSpec:
    return MaskSpec(kind=cfg.mask_kind, target_ratio=cfg.mask_ratio,
                    gamma_shape=cfg.mask_gamma_shape,
                    channels=cfg.mask_channels or None,
                    t_start=None if cfg.mask_start < 0 else cfg.mask_start,
                    t_end=None if cfg.mask_end < 0 else cfg.mask_end,
                    seed=cfg.seed)


def make_weights(cfg: RunConfig, M: int):
    if not cfg.weights:
        return None
    w = np.asarray(cfg.weights, dtype=np.float64)
    if w.shape != (M,):
        raise ValueError(f"weights has {w.size} entries, expected {M}")
    return w
