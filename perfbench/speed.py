"""A fixed reference kernel that tracks how fast the machine runs right now.

The benchmark's machine shares its cores: its speed on this kind of work
drifts by 10-40% over tens of seconds, far more than the changes the
benchmark must resolve. The kernel below does the program's kind of work
(small-array numpy calls: a sliding-window product, a normalization, a
sigmoid, a pad) with code of its own, so no change to the program moves
it. It calls no BLAS routine, so a change to BLAS threading moves the
program and not the kernel. Timing it between the program's calls and
scaling each measured time by REF_MS over its median cancels most of
the drift.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import spans

# the kernel's typical time on the machine of the reference figures, so
# scaled times read as milliseconds on that machine
REF_MS = 4.5

_rng = np.random.default_rng(0)
_W = _rng.standard_normal((24, 3))
_X = _rng.standard_normal((24, 66))
_G = _rng.standard_normal(24)


def kernel_ms():
    """Wall time of one pass of the reference kernel, in ms."""
    t0 = time.perf_counter()
    h = _X
    for _ in range(30):
        win = np.lib.stride_tricks.sliding_window_view(h, 3, axis=1)[:, :64]
        o = np.einsum("ck,ctk->ct", _W, win)
        o = (o - o.mean(axis=1, keepdims=True)) / np.sqrt(
            o.var(axis=1, keepdims=True) + 1e-5) * _G[:, None]
        o = o / (1.0 + np.exp(-o))
        h = np.pad(o, ((0, 0), (1, 1)))
    return 1e3 * (time.perf_counter() - t0)


class Speed:
    """Kernel samples taken between measured calls and, through a probe
    on `predict_noise`, inside long ones.

    The probe runs the kernel when a `predict_noise` call returns and
    PROBE_S has passed since the last sample, so a 20-second batch call
    is sampled throughout, not only at its ends. Kernel time spent inside
    a call is kept in `inside_s`, for the caller to subtract.
    """

    PROBE_S = 0.25

    def __init__(self):
        self.samples = []
        self.inside_s = 0.0
        self._last = time.perf_counter()
        self._patched = []

    def sample(self):
        self.samples.append(kernel_ms())
        self._last = time.perf_counter()
        return self.samples[-1] / 1e3

    def _probe(self, fn):
        def probed(*args, **kwargs):
            out = fn(*args, **kwargs)
            if time.perf_counter() - self._last >= self.PROBE_S:
                self.inside_s += self.sample()
            return out

        return probed

    def install(self):
        self._patched = spans.patch("tsdm.denoiser", "predict_noise",
                                    self._probe)

    def uninstall(self):
        spans.unpatch(self._patched)
        self._patched = []

    def scale(self):
        """Factor that turns a time measured here into one at REF_MS."""
        return REF_MS / statistics.median(self.samples)
