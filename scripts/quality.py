"""Held-out recovery quality of the committed steady fixture, then the
figures the acceptance tests pin. Nothing trains (a missing fixture is an
error), and files go to a temporary directory only.

The table runs windows 2032-2095 of the fixture's generator (trained on
0-1999; 2000-2031 are kept for calibration) through recover_batch at
omega 1, s 10, R 2 and seeds 0, 1, 2, each row's input from `corrupt`.
Then come criteria 5 and 6 on windows 2000-2005 at the tests' seeds (and
at 110+k, 120+k), criterion 5's block at R 8, and criterion 10's sweeps
through the CLI. Run from the repo root:

    PYTHONPATH=src python3 scripts/quality.py
"""

import tempfile
from pathlib import Path

import numpy as np

from tsdm.checkpoint import load_checkpoint
from tsdm.cli import main as tsdm_main
from tsdm.dataio import save_matrix_csv
from tsdm.metrics import baseline_interpolate, detection_metrics
from tsdm.pipeline import STAGE1_ONLY, TsdmConfig, recover, recover_batch
from tsdm.schedule import make_subsequence
from tsdm.stage1 import GuidanceConfig
from tsdm.stage2 import ImputeConfig
from tsdm.threatsim import (AttackSpec, MaskSpec, SynthSpec, inject_fdia,
                            make_loss_mask, synth_dataset)

CACHE = Path(__file__).resolve().parent.parent / "tests" / ".cache"
SPEC = SynthSpec(mode="steady", M=8, T=64, seed=42)
TAU = make_subsequence(100, 10)
PAIRS = [(0, 3), (1, 5), (2, 6), (4, 7), (0, 5), (2, 7)]
ATTACK_START = {"step": 0, "ramp": 16, "random": 32}
BLOCK = MaskSpec(kind="nonrandom_missing", target_ratio=0.3,
                 channels=(1, 4, 6), t_start=7, t_end=58)
FIGURES = {"error": ".3f", "precision": ".2f", "recall": ".2f",
           "flagged": ".1%", "calls": ".1f"}


def corrupt(row, k, truth, std, magnitude=3.0):
    """Window k's input for `row`, and the entries it changed (its NaNs on
    a missing row): the truth (clean); `magnitude` training stds on
    channels PAIRS[k % 6] from t ATTACK_START[row] on (AttackSpec seed 0);
    or NaN on BLOCK, or on about 5% of entries with mask seed k (sparse)."""
    if row in ATTACK_START:
        spec = AttackSpec(kind=row, channels=PAIRS[k % 6],
                          t_start=ATTACK_START[row], t_end=truth.shape[1],
                          magnitude=magnitude)
        return inject_fdia(truth, spec, std_ref=std)
    y = truth
    if row != "clean":
        spec = BLOCK if row == "block" else MaskSpec(
            kind="random_missing", target_ratio=0.05, seed=k)
        y = np.where(make_loss_mask(*truth.shape, spec) == 1.0, truth, np.nan)
    return y, np.isnan(y)


def score(model, row, truths, seeds, R=2, magnitude=3.0):
    """Figures of `row` pooled over windows: an int `seeds` runs every
    truth in one recover_batch, a {k: seed} dict truths[k] alone through
    recover. The error is sqrt(sum |x - truth|^2 / sum |ref - truth|^2):
    on the missing entries against interpolation where a window has any,
    else against the input, or the channel mean where nothing changed."""
    def config(seed):
        return TsdmConfig(guidance=GuidanceConfig(tau=TAU, seed=seed),
                          impute=ImputeConfig(tau=TAU, R=R, seed=seed))

    params, mean, std = model
    batch = isinstance(seeds, int)
    ks = range(len(truths)) if batch else list(seeds)
    ys, gts = zip(*(corrupt(row, k, truths[k], std, magnitude) for k in ks))
    results = (recover_batch(params, ys, config(seeds), norm_mean=mean,
                             norm_std=std) if batch else
               [recover(params, y, None, config(seeds[k]), mean, std)
                for k, y in zip(ks, ys)])
    sq, flags = [], []
    for k, y, gt, res in zip(ks, ys, gts, results):
        truth, missing = truths[k], np.isnan(y)
        if missing.any():
            ref, sel = baseline_interpolate(y, ~missing), missing
        else:
            ref = y if gt.any() else truth.mean(axis=1, keepdims=True)
            sel = np.ones_like(missing)
        sq.append([np.sum((v - truth)[sel] ** 2) for v in (res.x_tilde, ref)])
        flags.append(res.outlier_mask == 0.0)
    total = np.sum(sq, axis=0)
    precision, recall = detection_metrics(np.stack(flags), np.stack(gts))
    calls = [TAU.s if res.stage_taken == STAGE1_ONLY
             else TAU.s + (TAU.s - 1) * R + 1 for res in results]
    return {"error": np.sqrt(total[0] / total[1]), "precision": precision,
            "recall": recall, "flagged": np.mean(flags),
            "calls": np.mean(calls), "results": results}


def sweep(tmp, checkpoint, truth, axis, values, seed):
    """{value: error} of `tsdm sweep` on one window with attack channels
    2 and 6: the whole window's error, or the missing entries' on repeats."""
    save_matrix_csv(tmp / "truth.csv", truth)
    (tmp / "sweep.cfg").write_text(
        f"checkpoint = {checkpoint}\nattack_channels = 2,6\n"
        f"sweep_axis = {axis}\nsweep_values = {','.join(map(str, values))}\n"
        f"seed = {seed}\n")
    out = tmp / f"out-{axis}-{seed}"
    if tsdm_main(["--config", str(tmp / "sweep.cfg"), "--out", str(out),
                  "sweep", str(tmp / "truth.csv")]):
        raise SystemExit(f"tsdm sweep {axis} seed {seed} failed")
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    return {v: float(r.split(",")[3 if axis == "repeats" else 2])
            for v, r in zip(values, rows)}


def main():
    paths = sorted(CACHE.glob("steady-*.tsdm"))
    if len(paths) != 1:
        raise SystemExit(f"expected one steady-*.tsdm in {CACHE}, found "
                         f"{len(paths)}; a Tier-1 run trains it")
    checkpoint, model = paths[0], load_checkpoint(paths[0])
    windows = synth_dataset(SPEC, 2096)
    held, table = windows[2000:2032], windows[2032:]
    print("[table] windows 2032-2095; omega 1, s 10, R 2; recovery seeds 0 1"
          " 2; error vs channel mean, input, interpolation")
    for row in ("clean", *ATTACK_START, "block", "sparse"):
        figs = [score(model, row, table, seed) for seed in (0, 1, 2)]
        cells = [f"{key} " + " ".join(format(f[key], fmt) for f in figs)
                 for key, fmt in FIGURES.items()
                 if row in ATTACK_START or key not in ("precision", "recall")]
        print(f"  {row:8s}" + "  ".join(cells))

    clean = score(model, "clean", held, {0: 1})["results"][0]
    again = score(model, "clean", [clean.x_tilde], {0: 1})["results"][0]
    step5 = score(model, "step", held, {1: 2}, magnitude=5.0)["results"][0]
    print(f"[clean] stage={clean.stage_taken} fraction="
          f"{clean.outlier_fraction:.4f}\n[idempotence] fraction "
          f"{clean.outlier_fraction:.4f} -> {again.outlier_fraction:.4f}\n"
          f"[attack5] stage={step5.stage_taken} fraction="
          f"{step5.outlier_fraction:.4f}")
    for k in range(6):
        one = score(model, "step", held, {k: 100 + k})
        print(f"  [w{k}] stage={one['results'][0].stage_taken} frac="
              f"{one['flagged']:.3f} P={one['precision']:.3f} R="
              f"{one['recall']:.3f} rmse_ratio={one['error']:.3f}")
    for base in (100, 110, 120):
        pool = score(model, "step", held, {k: base + k for k in range(6)})
        print(f"[attack3 pooled seeds {base}+] rmse_tsdm/rmse_corr="
              f"{pool['error']:.4f} P={pool['precision']:.3f} "
              f"R={pool['recall']:.3f}   (caps: <=0.5, >=0.7, >=0.7)")
    for b in (200, 300, 400):
        pool = score(model, "block", held, {k: b + k for k in range(6)}, R=8)
        print(f"[nm pooled seeds {b}+] rmse_tsdm/rmse_baseline="
              f"{pool['error']:.4f}   (cap: <=0.8)")
    with tempfile.TemporaryDirectory() as tmp:
        for axis, k, values, first in (
                ("omega", 2, (0.1, 0.5, 1.0, 2.0, 5.0), 31),
                ("repeats", 3, (1, 2, 3), 41)):
            for seed in range(first, first + 3):
                g = sweep(Path(tmp), checkpoint, held[k], axis, values, seed)
                ok = (g[1.0] <= min(g[0.1], g[2.0]) if axis == "omega"
                      else g[2] <= g[1])
                print(f"[sweep {axis} seed={seed}] "
                      + " ".join(f"{v}:{e:.4f}" for v, e in g.items())
                      + ("  OK" if ok else "  BAD"))


if __name__ == "__main__":
    main()
