"""SHA-256 of the bits the denoiser, its trainer and the recovery give on
the committed fixtures (tests/.cache), one hash per case group and one
over all groups.

Two checkouts whose hashes agree give the same outputs bit for bit on:
- predict: predict_noise on each fixture at B 1, 5 and 33 and steps 1,
  37 and 100, memo cold then warm, and with a 2-D input; at B 1 and 33
  the failures of a conv weight scaled by 1e308, of a NaN norm gain in
  an encoder and in a decoder block, of attention's query and key
  weights scaled by 1e200, and of a time projection that overflows (a
  block's projection weight scaled by 1e300, one entry 1e308); twice on
  the steady fixture with a Fortran-ordered conv weight, which the
  float32 cast reads in C order; twice on one steady model with an
  in-place edit of a conv weight between the calls, which the second
  call's float32 cast must see; and on a steady stack whose last row holds a finite 1e39,
  which the float32 cast makes infinite, at B 1 and 33;
- adam: two Adam training steps per fixture config (each loss and every
  parameter after each step);
- loss: diffusion_loss on a gradient tape on each fixture at B 1 and 8,
  and on the steady fixture at training's B 32 (the loss and every
  gradient);
- recover_batch: 17 steady windows (clean, step-attacked, with a NaN
  block, and one of 1e308) under omega 1, R 2 and under omega 0.5, R 4,
  and 33 under omega 1, R 2, enough for two shards a denoiser call on 2
  or more cores, with the 1e308 window and a NaN-block window in
  different shards; each result (with its traces' tau and sigma_bar) or
  failure text;
- recover: the failure text of one 1e308 window;
- lockstep: stage1_recover and stage2_impute stacks of 6 windows on the
  steady fixture, reaching every way a window leaves a reverse pass: a
  1e308 observed entry that fails in stage 1's sigma_bar and inside
  stage 2's stacked denoiser call, a NaN observed entry that turns stage
  1's latent non-finite and fails stage 2 up front, and a guidance
  overflow under errstate(over="raise"); each result (with its trace's
  tau and sigma_bar) or failure text;
- synth: synth_dataset's windows, steady seed 42 x 2256 at (8, 64) (the
  benchmark's draw), transient seed 7 x 300 at (8, 64), and both modes
  at the odd shapes (1, 2) and (3, 5);
- cli: the acceptance suite's CLI chain (synth, train, attack, mask,
  recover, eval, bench, sweep on a tiny config) run in a temporary
  directory with relative paths, so every run writes the same manifests;
  after each command its exit code and the SHA-256 of every file under
  out/ except the wall-clock sidecars timing.txt and bench_timing.csv.

A failure counts by its type and text. The last line, all-by-type, is
one hash over all groups that counts a failure by its type alone (a
recover_batch failure, which keeps only its text, as a failure): two
checkouts whose failures differ only in text agree on it, so a change to
error messages can still show unchanged success bits. Run each checkout
in its own process, from its repo root:

    PYTHONPATH=src python3 scripts/bits.py
"""

import copy
import hashlib
import os
import tempfile
from pathlib import Path

import numpy as np

from tsdm.checkpoint import load_checkpoint
from tsdm.cli import main as tsdm_main
from tsdm.denoiser import (Adam, diffusion_loss, init_params, predict_noise,
                           training_step)
from tsdm.pipeline import TsdmConfig, recover, recover_batch
from tsdm.schedule import linear_schedule, make_subsequence
from tsdm.stage1 import GuidanceConfig, stage1_recover
from tsdm.stage2 import ImputeConfig, stage2_impute
from tsdm.tensor import GradTape
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


class FailureText(str):
    """A failure's text where a result keeps only its text."""


def feed(h, obj, by_type=False):
    """Hash obj's value: arrays by dtype, shape and bytes, floats by repr,
    failures by type and text, or by type alone."""
    if isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, BaseException):
        text = "" if by_type else f": {obj}"
        h.update(f"{type(obj).__name__}{text}".encode())
    elif isinstance(obj, FailureText) and by_type:
        h.update(b"failure")
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            feed(h, item, by_type)
    elif isinstance(obj, dict):
        for key in sorted(obj):
            feed(h, key, by_type)
            feed(h, obj[key], by_type)
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
        for edit in BAD_EDITS:
            bad = copy.deepcopy(params)
            edit(bad)
            out += [outcome(lambda: predict_noise(bad, x[:B], 12))
                    for B in (1, 33)]
    fortran = copy.deepcopy(models["steady"][0])
    w = fortran["enc0.rb1.conv1.w"]
    w.data = np.asfortranarray(w.data)
    x = np.random.default_rng(list(b"fortran")).standard_normal((5, 8, 64))
    for _ in ("cold", "warm"):
        out.append(outcome(lambda: predict_noise(fortran, x, 37)))
    edited = copy.deepcopy(models["steady"][0])
    out.append(outcome(lambda: predict_noise(edited, x, 37)))
    edited["enc0.rb1.conv1.w"].data[0, 0, 0] += 0.5
    out.append(outcome(lambda: predict_noise(edited, x, 37)))
    x = np.random.default_rng(list(b"1e39")).standard_normal((33, 8, 64))
    for B in (1, 33):
        big = x[:B].copy()
        big[-1, 3, 17] = 1e39
        out.append(outcome(lambda: predict_noise(edited, big, 37)))
    return out


def _overflow_conv(m):
    m["enc0.rb1.conv1.w"].data *= 1e308


def _nan_encoder_gain(m):
    m["enc1.rb0.gn2.g"].data[1] = np.nan


def _nan_decoder_gain(m):
    m["dec0.rb1.gn2.g"].data[1] = np.nan


def _overflow_attention(m):
    m["mid.attn.wq"].data *= 1e200
    m["mid.attn.wk"].data *= 1e200


def _overflow_projection(m):
    w = m["mid.rb1.temb.w"].data
    w *= 1e300
    w[0] = 1e308


BAD_EDITS = (_overflow_conv, _nan_encoder_gain, _nan_decoder_gain,
             _overflow_attention, _overflow_projection)


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


def loss_cases(models):
    out = []
    sched = linear_schedule(100)
    for tag, (params, _, _) in models.items():
        model = copy.deepcopy(params)
        M = model.config.channels_in
        T = 64 if tag == "steady" else 16
        rng = np.random.default_rng(list(tag.encode()) + [1])
        for B in (1, 8) + ((32,) if tag == "steady" else ()):
            x0, eps = rng.standard_normal((2, B, M, T))
            n_vec = rng.integers(1, sched.N + 1, size=B)
            with GradTape() as tape:
                loss = diffusion_loss(model, x0, n_vec, eps, sched)
                grads = tape.backward(loss)
            out.append(loss.data)
            out.append({k: grads[id(t)] for k, t in model.items()})
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


def sharded_windows():
    """33 held-out steady windows: the 1e308 window is row 2, in the
    first shard of a two-shard denoiser call, and the NaN-block window
    row 20, in the second; rows 5 and 25 are step-attacked."""
    windows = [np.asarray(w) for w in synth_dataset(
        SynthSpec(mode="steady", M=8, T=64, seed=42), 2033)[2000:]]
    for k in (5, 25):
        windows[k] = inject_fdia(windows[k], AttackSpec(
            kind="step", channels=(k % 8,), t_start=0, t_end=64,
            magnitude=3.0, seed=k))[0]
    windows[2] = np.full((8, 64), 1e308)
    windows[20][3, 10:30] = np.nan
    return windows


def recover_batch_cases(models):
    params, mean, std = models["steady"]
    out = []
    for omega, R, windows in ((1.0, 2, steady_windows()),
                              (0.5, 4, steady_windows()),
                              (1.0, 2, sharded_windows())):
        with np.errstate(over="ignore", invalid="ignore"):
            results = recover_batch(params, windows, pipeline_cfg(omega, R),
                                    norm_mean=mean, norm_std=std)
        for res in results:  # a RecoveryResult or a WindowFailure
            fields = dict(vars(res))
            if "error" in fields:
                fields["error"] = FailureText(fields["error"])
            traces = fields.pop("traces", {})  # tau and sigma_bar, not times
            out.append((fields, [[(r.tau, r.sigma_bar) for r in t.records]
                                 for t in traces.values()]))
    return out


def recover_cases(models):
    params, mean, std = models["steady"]
    return [outcome(lambda: recover(params, np.full((8, 64), 1e308), None,
                                    pipeline_cfg(1.0, 2), mean, std))]


def lockstep_cases(models):
    params, _, _ = models["steady"]
    sched = linear_schedule(100)
    rng = np.random.default_rng(18)
    y0 = rng.standard_normal((6, 8, 64))
    mask = (rng.random((6, 8, 64)) > 0.3).astype(np.float64)
    mask[5] = rng.random((8, 64)) > 0.6
    mask[[1, 3], 1, 5] = 1.0
    y0[1, 1, 5], y0[3, 1, 5] = 1e308, np.nan
    guided = rng.standard_normal((6, 8, 64))
    guided[1, 2, 7] = 1.7e308
    with np.errstate(over="ignore", invalid="ignore"):
        stacks = [
            stage1_recover(params, y0, GuidanceConfig(tau=TAU, omega=1.0,
                                                      seed=7), sched),
            stage2_impute(params, np.where(mask == 1.0, y0, np.nan), mask,
                          ImputeConfig(tau=TAU, R=2, seed=7), sched)]
    with np.errstate(over="raise"):
        stacks.append(stage1_recover(params, guided, GuidanceConfig(
            tau=make_subsequence(100, 2), omega=1e10, seed=5), sched))
    out = []
    for results in stacks:
        for res in results:  # x0, (x0', trace) or the failure
            if isinstance(res, tuple):
                res = (res[0], [(r.tau, r.sigma_bar) for r in res[1].records])
            out.append(res)
    return out


def synth_cases(models):
    specs = [(SynthSpec(mode="steady", M=8, T=64, seed=42), 2256),
             (SynthSpec(mode="transient", M=8, T=64, seed=7), 300)]
    for mode in ("steady", "transient"):
        specs += [(SynthSpec(mode=mode, M=1, T=2, event_time=1, seed=3), 40),
                  (SynthSpec(mode=mode, M=3, T=5, event_time=2, seed=1), 40)]
    return [synth_dataset(spec, count) for spec, count in specs]


CLI_CONFIG = ("channels = 4\nwindow = 16\nbase_width = 8\ndepth = 2\n"
              "time_embed_dim = 8\nepochs = 2\nsynth_count = 8\n"
              "n_steps = 40\nsubseq_len = 5\nattack_channels = 0,2\n"
              "attack_end = 16\nmask_channels = 1,3\nmask_start = 2\n"
              "mask_end = 14\nsweep_values = 0.1,0.3\nbench_repeats = 1\n"
              "seed = 7\n")
CLI_CHAIN = (
    ("synth",),
    ("train", "out/windows"),
    ("attack", "out/windows/00003.csv"),
    ("mask", "out/windows/00003.csv"),
    ("recover", "out/attacked.csv", "--truth", "out/windows/00003.csv",
     "--mask", "out/loss_mask.csv"),
    ("eval", "out/windows/00003.csv", "out/recovered.csv",
     "--loss-mask", "out/loss_mask.csv"),
    ("bench",),
    ("sweep", "out/windows/00004.csv"),
)


def cli_cases(models):
    out = []
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            Path("tiny.cfg").write_text(CLI_CONFIG)
            for cmd in CLI_CHAIN:
                code = tsdm_main(["--config", "tiny.cfg", "--out", "out",
                                  *cmd])
                out.append((cmd, code, {
                    str(p): hashlib.sha256(p.read_bytes()).hexdigest()
                    for p in sorted(Path("out").rglob("*")) if p.is_file()
                    and p.name not in ("timing.txt", "bench_timing.csv")}))
        finally:
            os.chdir(home)
    return out


GROUPS = {"predict": predict_cases, "adam": adam_cases, "loss": loss_cases,
          "recover_batch": recover_batch_cases, "recover": recover_cases,
          "lockstep": lockstep_cases, "synth": synth_cases,
          "cli": cli_cases}


def main():
    models = {tag: fixture(tag) for tag in TAGS}
    total, by_type = hashlib.sha256(), hashlib.sha256()
    for name, cases in GROUPS.items():
        out = cases(models)
        h, t = hashlib.sha256(), hashlib.sha256()
        feed(h, out)
        feed(t, out, by_type=True)
        total.update(h.digest())
        by_type.update(t.digest())
        print(f"{name:14s} {h.hexdigest()}")
    print(f"{'all':14s} {total.hexdigest()}")
    print(f"{'all-by-type':14s} {by_type.hexdigest()}")


if __name__ == "__main__":
    main()
