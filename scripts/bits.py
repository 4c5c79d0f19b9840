"""SHA-256 of the bits the denoiser, its trainer and the recovery give on
the committed fixtures (tests/.cache), one hash per case group and one
over all groups.

Two checkouts whose hashes agree give the same outputs bit for bit on:
- predict: predict_noise on each fixture at B 1, 5 and 33 and steps 1,
  37 and 100, memo cold then warm, and with a 2-D input; and the failure
  of a conv weight scaled by 1e308 at B 1 and 33;
- adam: two Adam training steps per fixture config (each loss and every
  parameter after each step);
- recover_batch: 17 steady windows (clean, step-attacked, with a NaN
  block, and one of 1e308) under omega 1, R 2 and under omega 0.5, R 4,
  each result or failure text;
- recover: the failure text of one 1e308 window.

A failure counts by its type and text. Run each checkout in its own
process, from its repo root:

    PYTHONPATH=src python3 scripts/bits.py
"""

import copy
import hashlib
from pathlib import Path

import numpy as np

from tsdm.checkpoint import load_checkpoint
from tsdm.denoiser import Adam, init_params, predict_noise, training_step
from tsdm.pipeline import TsdmConfig, recover, recover_batch
from tsdm.schedule import linear_schedule, make_subsequence
from tsdm.stage1 import GuidanceConfig
from tsdm.stage2 import ImputeConfig
from tsdm.threatsim import AttackSpec, SynthSpec, inject_fdia, synth_dataset

CACHE = Path(__file__).resolve().parent.parent / "tests" / ".cache"
TAGS = ("toy-gauss", "toy-zeros", "steady")
TAU = make_subsequence(100, 10)


def fixture(tag):
    """(params, mean, std) of the one committed checkpoint named tag."""
    paths = sorted(CACHE.glob(f"{tag}-*.tsdm"))
    if len(paths) != 1:
        raise SystemExit(f"expected one {tag} checkpoint in {CACHE}, "
                         f"found {len(paths)}")
    return load_checkpoint(paths[0])


def feed(h, obj):
    """Hash obj's value: arrays by dtype, shape and bytes, floats by repr,
    failures by type and text."""
    if isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, BaseException):
        h.update(f"{type(obj).__name__}: {obj}".encode())
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            feed(h, item)
    elif isinstance(obj, dict):
        for key in sorted(obj):
            feed(h, key)
            feed(h, obj[key])
    else:
        h.update(repr(obj).encode())
    h.update(b"|")


def outcome(fn):
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return fn()
    except Exception as e:  # noqa: BLE001 - the failure is the outcome
        return e


def predict_cases(models):
    out = []
    for tag, (params, _, _) in models.items():
        M = params.config.channels_in
        T = 64 if tag == "steady" else 16
        x = np.random.default_rng(list(tag.encode())).standard_normal((33, M, T))
        for n in (1, 37, 100):
            for B in (1, 5, 33):
                fresh = copy.deepcopy(params)
                fresh._step_memo = None
                out += [outcome(lambda: predict_noise(fresh, x[:B], n))
                        for _ in ("cold", "warm")]
            out.append(outcome(lambda: predict_noise(params, x[0], n)))
        bad = copy.deepcopy(params)
        bad["enc0.rb1.conv1.w"].data *= 1e308
        out += [outcome(lambda: predict_noise(bad, x[:B], 12)) for B in (1, 33)]
    return out


def adam_cases(models):
    out = []
    sched = linear_schedule(100)
    for tag, (params, _, _) in models.items():
        cfg = params.config
        T = 64 if tag == "steady" else 16
        model = init_params(cfg, seed=3)
        opt = Adam(model, 1e-3)
        rng = np.random.default_rng(5)
        for _ in range(2):
            batch = rng.standard_normal((8, cfg.channels_in, T))
            out.append(training_step(model, batch, sched, rng, opt))
            out.append({k: t.data for k, t in model.items()})
    return out


def pipeline_cfg(omega, R, seed=7):
    return TsdmConfig(guidance=GuidanceConfig(tau=TAU, omega=omega, seed=seed),
                      impute=ImputeConfig(tau=TAU, R=R, seed=seed))


def steady_windows():
    windows = [np.asarray(w) for w in synth_dataset(
        SynthSpec(mode="steady", M=8, T=64, seed=42), 2017)[2000:]]
    for k in range(4, 8):
        windows[k] = inject_fdia(windows[k], AttackSpec(
            kind="step", channels=(k % 8, (k + 3) % 8), t_start=0, t_end=64,
            magnitude=3.0, seed=k))[0]
    for k in range(8, 12):
        windows[k][k % 8, 10:30] = np.nan
    windows[12] = np.full((8, 64), 1e308)
    return windows


def recover_batch_cases(models):
    params, mean, std = models["steady"]
    out = []
    for omega, R in ((1.0, 2), (0.5, 4)):
        with np.errstate(over="ignore", invalid="ignore"):
            results = recover_batch(params, steady_windows(),
                                    pipeline_cfg(omega, R),
                                    norm_mean=mean, norm_std=std)
        for res in results:  # a RecoveryResult or a WindowFailure
            fields = dict(vars(res))
            traces = fields.pop("traces", {})  # tau and sigma_bar, not times
            out.append((fields, [[(r.tau, r.sigma_bar) for r in t.records]
                                 for t in traces.values()]))
    return out


def recover_cases(models):
    params, mean, std = models["steady"]
    return [outcome(lambda: recover(params, np.full((8, 64), 1e308), None,
                                    pipeline_cfg(1.0, 2), mean, std))]


GROUPS = {"predict": predict_cases, "adam": adam_cases,
          "recover_batch": recover_batch_cases, "recover": recover_cases}


def main():
    models = {tag: fixture(tag) for tag in TAGS}
    total = hashlib.sha256()
    for name, cases in GROUPS.items():
        h = hashlib.sha256()
        feed(h, cases(models))
        total.update(h.digest())
        print(f"{name:14s} {h.hexdigest()}")
    print(f"{'all':14s} {total.hexdigest()}")


if __name__ == "__main__":
    main()
