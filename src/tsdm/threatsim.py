"""Synthetic measurement data, injected false-data attacks, and loss masks.

Attack magnitudes are expressed in per-channel standard-deviation units so
one spec spans heterogeneous channels. The ground-truth corruption mask is
the exact elementwise diff between input and output, so untouched entries
are guaranteed bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ATTACK_KINDS = ("step", "ramp", "random", "replay", "phase_shift", "amplitude_scale")
MASK_KINDS = ("random_missing", "nonrandom_missing")
SYNTH_MODES = ("steady", "transient")

# autocorrelation peaks below this are treated as "no dominant period"
_PERIOD_PEAK_MIN = 0.4


@dataclass(frozen=True)
class AttackSpec:
    kind: str
    channels: tuple
    t_start: int
    t_end: int
    magnitude: float
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ATTACK_KINDS:
            raise ValueError(f"unknown attack kind {self.kind!r}")
        if len(self.channels) == 0:
            raise ValueError("attack needs at least one target channel")
        if not 0 <= self.t_start < self.t_end:
            raise ValueError(f"bad attack window [{self.t_start}, {self.t_end})")


@dataclass(frozen=True)
class MaskSpec:
    kind: str
    target_ratio: float
    gamma_shape: float = 2.0
    channels: tuple | None = None
    t_start: int | None = None
    t_end: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in MASK_KINDS:
            raise ValueError(f"unknown mask kind {self.kind!r}")
        if not 0.0 < self.target_ratio < 1.0:
            raise ValueError("target_ratio must lie strictly inside (0, 1)")
        if self.gamma_shape <= 0:
            raise ValueError("gamma_shape must be positive")


@dataclass(frozen=True)
class SynthSpec:
    mode: str
    M: int
    T: int
    day_period: float = 32.0
    week_modulation: float = 0.3
    ramp_rate: float = 0.4
    offset_scale: float = 1.6
    noise_amp: float = 0.1
    event_time: int = 16
    damping: float = 0.15
    frequency: float = 0.08
    seed: int = 0

    def __post_init__(self):
        if self.mode not in SYNTH_MODES:
            raise ValueError(f"unknown synthesis mode {self.mode!r}")
        if self.M < 1 or self.T < 2:
            raise ValueError("need M >= 1 and T >= 2")
        if self.mode == "transient" and not 0 <= self.event_time < self.T:
            raise ValueError("event_time must fall inside the window")


# ------------------------------------------------------------------ attacks

def _dominant_period(channel: np.ndarray) -> int:
    """Lag of the strongest autocorrelation local maximum; error if none."""
    z = channel - channel.mean()
    denom = float(np.dot(z, z))
    if denom <= 0:
        raise ValueError("phase_shift: constant channel has no period")
    ac = np.correlate(z, z, mode="full")[z.size - 1 :] / denom
    best_lag, best_val = 0, _PERIOD_PEAK_MIN
    for lag in range(2, z.size - 1):
        if ac[lag] > ac[lag - 1] and ac[lag] >= ac[lag + 1] and ac[lag] > best_val:
            best_lag, best_val = lag, ac[lag]
    if best_lag == 0:
        raise ValueError("phase_shift: no significant autocorrelation peak")
    return best_lag


def inject_fdia(x: np.ndarray, spec: AttackSpec, std_ref: np.ndarray | None = None):
    """Apply one attack; returns (corrupted, boolean mask of modified entries).

    std_ref optionally replaces the per-channel std of x as the amplitude
    unit (useful when stds must refer to a whole dataset, not one window);
    without it, a channel with missing (NaN) entries takes the std of its
    observed ones. An entry NaN before and after counts as unmodified.
    phase_shift refuses an attacked channel with any NaN entry, whose
    period it cannot find.
    """
    x = np.asarray(x, dtype=np.float64)
    M, T = x.shape
    if spec.t_end > T:
        raise ValueError(f"attack window end {spec.t_end} exceeds T={T}")
    for c in spec.channels:
        if not 0 <= c < M:
            raise ValueError(f"attack channel {c} outside 0..{M - 1}")
        if std_ref is None and np.isnan(x[c]).all():
            raise ValueError(f"attack channel {c} has no observed entry")
        if spec.kind == "phase_shift" and np.isnan(x[c]).any():
            # a NaN makes the channel's mean and every autocorrelation NaN
            missing = ", ".join(map(str, np.flatnonzero(np.isnan(x[c]))))
            raise ValueError(f"phase_shift: attack channel {c} has missing "
                             f"entries at t {missing}")
    if std_ref is None:
        std = x.std(axis=1)
        gaps = [c for c in spec.channels if np.isnan(std[c])]
        std[gaps] = np.nanstd(x[gaps], axis=1)
    else:
        std = np.asarray(std_ref, dtype=np.float64)
        if std.shape != (M,):
            raise ValueError(f"std_ref must have shape ({M},)")

    y = x.copy()
    ts, te = spec.t_start, spec.t_end
    seg = slice(ts, te)
    length = te - ts
    rng = np.random.default_rng(spec.seed)
    for c in spec.channels:
        if spec.kind == "step":
            y[c, seg] += spec.magnitude * std[c]
        elif spec.kind == "ramp":
            y[c, seg] += np.linspace(0.0, spec.magnitude * std[c], length)
        elif spec.kind == "random":
            y[c, seg] += rng.normal(0.0, abs(spec.magnitude) * std[c], length)
        elif spec.kind == "replay":
            if ts - length < 0:
                raise ValueError("replay: not enough history before the window")
            y[c, seg] = x[c, ts - length : ts]
        elif spec.kind == "phase_shift":
            period = _dominant_period(x[c])
            shift = int(round(spec.magnitude * period))
            y[c, seg] = np.roll(x[c, seg], shift)
        elif spec.kind == "amplitude_scale":
            y[c, seg] = x[c, seg] * (1.0 + spec.magnitude)
    return y, (y != x) & ~(np.isnan(y) & np.isnan(x))


# --------------------------------------------------------------- loss masks

def make_loss_mask(M: int, T: int, spec: MaskSpec) -> np.ndarray:
    """Observability mask (1=observed, 0=missing), float64 binary."""
    rng = np.random.default_rng(spec.seed)
    mask = np.ones((M, T))
    if spec.kind == "nonrandom_missing":
        ts = 0 if spec.t_start is None else spec.t_start
        te = T if spec.t_end is None else spec.t_end
        if not 0 <= ts < te <= T:
            raise ValueError(f"bad missing span [{ts}, {te}) for T={T}")
        if spec.channels is None:
            k = int(round(spec.target_ratio * M))
            channels = rng.choice(M, size=max(k, 1), replace=False)
        else:
            channels = np.asarray(spec.channels)
            if channels.size == 0:
                raise ValueError("NM channel set is empty")
            if channels.min() < 0 or channels.max() >= M:
                raise ValueError(f"NM channels {channels.tolist()} "
                                 f"outside 0..{M - 1}")
        mask[channels, ts:te] = 0.0
    else:
        frac = rng.gamma(spec.gamma_shape, spec.target_ratio / spec.gamma_shape, T)
        frac = np.clip(frac, 0.0, 1.0)
        for t in range(T):
            k = int(round(frac[t] * M))
            if k:
                mask[rng.choice(M, size=k, replace=False), t] = 0.0
    return mask


# ---------------------------------------------------------------- synthesis

# windows whose arithmetic runs as one stacked array operation; at M=8,
# T=64 the chunk buffers are then about 100 KB (32 windows were a little
# faster but read about 0.3 MB more peak RSS in short benchmark runs)
_CHUNK = 8


def synth_dataset(spec: SynthSpec, count: int) -> list:
    """Generate `count` measurement windows, each its own C-contiguous
    (M, T) float64 array.

    Window i is the same for every count above i: both modes draw from one
    generator seeded with spec.seed, the shared per-dataset draws first and
    then, per window in window order, steady takes 3k uniform doubles
    (phase, weekly phase, slope; k = max(2, M // 2)) and then k + M*T
    standard normals (level, noise), and transient takes a uniform, a
    choice, a uniform and a normal. Ziggurat normals use a variable number
    of generator words, so the stream cannot skip ahead: window 2000 still
    costs drawing windows 0..1999. Steady's draws stay per window while
    its arithmetic runs over up to `_CHUNK` windows at once, elementwise
    and in the per-window operation order, so each window has the bits
    that a one-window-at-a-time loop gives it; transient runs one window
    at a time. A count below 1 is a ValueError.
    """
    if count < 1:
        raise ValueError(f"synthesis count must be at least 1, got {count}")
    rng = np.random.default_rng(spec.seed)
    if spec.mode == "steady":
        return _steady_windows(spec, count, rng)
    return _transient_windows(spec, count, rng)


def _steady_windows(spec: SynthSpec, count: int, rng) -> list:
    M, T = spec.M, spec.T
    k = max(2, M // 2)
    # fixed cross-channel mixing so channels stay mutually predictable
    mixing = rng.normal(0.0, 1.0, (M, k)) / np.sqrt(k)
    base = rng.uniform(-0.5, 0.5, M)
    chan_scale = rng.uniform(0.7, 1.3, M)
    t = np.arange(T)
    day = 2 * np.pi * t / spec.day_period
    week = day / 7.0
    ramp = t / T - 0.5
    r = spec.ramp_rate
    bufs = [np.empty((_CHUNK,) + shape)
            for shape in ((3 * k,), (k + M * T,), (k, T), (k, T), (M, T))]
    windows = []
    for first in range(0, count, _CHUNK):
        n = min(_CHUNK, count - first)
        u, g, z, w, x = (buf[:n] for buf in bufs)
        for i in range(n):
            rng.random(out=u[i])
            rng.standard_normal(out=g[i])
        # rng.uniform(low, high) is low + (high - low) * u, and
        # rng.normal(0, 1) is 0.0 + 1.0 * g, where 1.0 * g is g. Each
        # in-place step below is one IEEE operation of the per-window
        # expression, in its order: a * b and a + b commute exactly.
        phase = 0.0 + (2 * np.pi - 0.0) * u[:, :k, None]
        wphase = 0.0 + (2 * np.pi - 0.0) * u[:, k : 2 * k, None]
        slope = -r + (r - -r) * u[:, 2 * k :, None]
        g += 0.0
        np.sin(np.add(day, phase, out=z), out=z)
        np.sin(np.add(week, wphase, out=w), out=w)
        w *= spec.week_modulation
        w += 1.0
        z *= w
        z += np.multiply(slope, ramp, out=w)
        np.matmul(mixing, z, out=x)
        x += spec.offset_scale * (mixing @ g[:, :k, None])
        x *= chan_scale[:, None]
        x += base[:, None]
        noise = g[:, k:].reshape(n, M, T)
        noise *= spec.noise_amp
        x += noise
        windows.extend(xi.copy() for xi in x)
    return windows


def _transient_windows(spec: SynthSpec, count: int, rng) -> list:
    M, T = spec.M, spec.T
    level = rng.uniform(-0.5, 0.5, M)
    omega = 2 * np.pi * spec.frequency
    zeta = spec.damping
    omega_d = omega * np.sqrt(max(1.0 - zeta**2, 0.0))
    dt = np.arange(T)[spec.event_time :] - spec.event_time
    envelope = np.exp(-zeta * omega * dt)
    swing = omega_d * dt
    windows = []
    for _ in range(count):
        amp = rng.uniform(0.5, 1.5, M) * rng.choice([-1.0, 1.0], M)
        phase = rng.uniform(0.2, np.pi - 0.2, M)
        noise = rng.normal(0.0, 1.0, (M, T))
        x = np.repeat(level[:, None], T, axis=1)
        x[:, spec.event_time :] += (amp[:, None] * envelope
                                    * np.sin(swing + phase[:, None]))
        x += noise * spec.noise_amp
        windows.append(x)
    return windows
