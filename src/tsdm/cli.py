"""Command-line harness: synthesis, corruption, training, recovery,
evaluation, timing, and hyperparameter sweeps.

Every run resolves one flat key=value config (defaults, then --config
file, then --seed/--out overrides), executes a single subcommand, and
drops its artifacts plus a reproducibility record (manifest.json and
config.resolved.txt) into the output directory. All randomness flows
from the config seed, so a rerun with the same config and inputs
reproduces every artifact byte for byte — except the wall-clock
sidecars (timing.txt, bench_timing.csv), which measure physical time
and are documented as nondeterministic.

Exit codes: 0 success, 1 usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import platform
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .bench import bench_timing, rows_to_csv
from .checkpoint import load_checkpoint, save_checkpoint
from .dataio import (load_mask_csv, load_matrix_csv, save_mask_csv,
                     save_matrix_csv)
from .denoiser import train
from .metrics import detection_metrics, masked_rmse, weighted_rmse
from .pipeline import recover
from .runconfig import (RunConfig, format_runconfig, load_runconfig,
                        make_attack_spec, make_denoiser_config,
                        make_mask_spec, make_schedule, make_synth_spec,
                        make_train_config, make_tsdm_config, make_weights)
from .threatsim import AttackSpec, inject_fdia, make_loss_mask, synth_dataset

SWEEP_DEFAULTS = {
    "ratio": (0.01, 0.05, 0.10, 0.20, 0.30, 0.40, 0.50),
    "omega": (0.1, 0.5, 1.0, 2.0, 5.0),
    "repeats": (1.0, 2.0, 3.0),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsdm",
        description="Two-stage diffusion recovery of corrupted "
                    "multichannel measurement matrices.")
    parser.add_argument("--config", metavar="PATH",
                        help="key=value config file (defaults documented "
                             "in tsdm.runconfig)")
    parser.add_argument("--seed", type=int, metavar="U64",
                        help="override the config seed")
    parser.add_argument("--out", metavar="DIR",
                        help="override the config output directory")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="COMMAND")
    for name, (_, help_, inputs, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        for dest, text in inputs.items():
            p.add_argument(dest, help=text)
        for dest, text in options.items():
            p.add_argument("--" + dest.replace("_", "-"), metavar="PATH",
                           help=text)
    return parser


def _resolve_config(args) -> RunConfig:
    cfg = load_runconfig(args.config) if args.config else RunConfig()
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if args.out is not None:
        cfg = dataclasses.replace(cfg, out_dir=args.out)
    return cfg


def _checkpoint_path(cfg: RunConfig, out: Path) -> Path:
    p = Path(cfg.checkpoint)
    return p if p.is_absolute() else out / p


def _write_manifest(out: Path, args, cfg: RunConfig) -> None:
    text = format_runconfig(cfg)
    (out / "config.resolved.txt").write_text(text)
    _, _, inputs, options = COMMANDS[args.command]
    manifest = {
        "command": args.command,
        "inputs": [getattr(args, name) for name in inputs],
        "options": {name: getattr(args, name) for name in options
                    if getattr(args, name) is not None},
        "config_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "seed": cfg.seed,
        "versions": {"python": platform.python_version(),
                     "numpy": np.__version__,
                     "tsdm": __version__},
    }
    _write_json(out / "manifest.json", manifest)


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True,
                               allow_nan=False) + "\n")


def _load_finite(path, what: str, shape=None) -> np.ndarray:
    """The `what` matrix at `path` ("truth", "recovered" or a training
    "window"): finite, and of `shape` if given. An error names the file."""
    x, _ = load_matrix_csv(path)
    if shape is not None and x.shape != shape:
        raise ValueError(f"{what} file {path} has shape {x.shape} but "
                         f"the input has {shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{what} file {path} has a non-finite entry")
    return x


# ------------------------------------------------------------- subcommands


def cmd_synth(cfg: RunConfig, args, out: Path) -> None:
    windows = synth_dataset(make_synth_spec(cfg), cfg.synth_count)
    wdir = out / "windows"
    wdir.mkdir(parents=True, exist_ok=True)
    for i, w in enumerate(windows):
        save_matrix_csv(wdir / f"{i:05d}.csv", w)


def cmd_attack(cfg: RunConfig, args, out: Path) -> None:
    x, header = load_matrix_csv(args.input)
    y, corrupt = inject_fdia(x, make_attack_spec(cfg))
    save_matrix_csv(out / "attacked.csv", y, header)
    save_mask_csv(out / "attack_truth_mask.csv", corrupt.astype(np.float64))


def cmd_mask(cfg: RunConfig, args, out: Path) -> None:
    x, header = load_matrix_csv(args.input)
    M, T = x.shape
    mask = make_loss_mask(M, T, make_mask_spec(cfg))
    save_matrix_csv(out / "masked.csv", np.where(mask == 1.0, x, np.nan),
                    header)
    save_mask_csv(out / "loss_mask.csv", mask)


def cmd_train(cfg: RunConfig, args, out: Path) -> None:
    paths = sorted(Path(args.windows_dir).glob("*.csv"))
    if not paths:
        raise ValueError(f"no window CSV files in {args.windows_dir}")
    first = _load_finite(paths[0], "window")
    data = np.stack([first] + [_load_finite(p, "window", first.shape)
                               for p in paths[1:]])
    mean = data.mean(axis=(0, 2))
    std = np.maximum(data.std(axis=(0, 2)), 1e-8)
    normed = (data - mean[:, None]) / std[:, None]
    params, curve = train(normed, make_denoiser_config(cfg),
                          make_train_config(cfg), make_schedule(cfg))
    save_checkpoint(_checkpoint_path(cfg, out), params, mean, std)
    lines = ["epoch,loss"]
    lines += [f"{i + 1},{loss:.12g}" for i, loss in enumerate(curve)]
    (out / "loss_curve.csv").write_text("\n".join(lines) + "\n")


def cmd_recover(cfg: RunConfig, args, out: Path) -> None:
    y0, header = load_matrix_csv(args.input)
    truth = _load_finite(args.truth, "truth", y0.shape) if args.truth else None
    known = load_mask_csv(args.mask) if args.mask else None
    params, mean, std = load_checkpoint(_checkpoint_path(cfg, out))
    t0 = time.perf_counter()
    res = recover(params, y0, known, make_tsdm_config(cfg), mean, std)
    runtime_ms = int(round(1000.0 * (time.perf_counter() - t0)))

    save_matrix_csv(out / "recovered.csv", res.x_tilde, header)
    save_mask_csv(out / "outlier_mask.csv", res.outlier_mask)
    report = {
        "stage_taken": res.stage_taken,
        "outlier_fraction": res.outlier_fraction,
    }
    if truth is not None:
        missing = np.ones_like(y0) if known is None else known.copy()
        missing[~np.isfinite(y0)] = 0.0
        # Empty missing set: nothing was imputed, so the error there is 0.
        m_rmse = (masked_rmse(truth, res.x_tilde, missing)
                  if np.any(missing == 0.0) else 0.0)
        corrupt = np.isfinite(y0) & (y0 != truth)
        precision, recall = detection_metrics(1.0 - res.outlier_mask, corrupt)
        weights = make_weights(cfg, y0.shape[0])
        report.update(weighted_rmse=weighted_rmse(truth, res.x_tilde, weights),
                      masked_rmse=m_rmse, detection_precision=precision,
                      detection_recall=recall)
    _write_json(out / "report.json", report)
    # Wall-clock sidecar, deliberately outside report.json so reruns stay
    # byte-identical.
    (out / "timing.txt").write_text(f"runtime_ms={runtime_ms}\n")


def cmd_eval(cfg: RunConfig, args, out: Path) -> None:
    for flag, partner in (("flagged", "corrupt"), ("corrupt", "flagged")):
        if getattr(args, flag) is not None and getattr(args, partner) is None:
            raise ValueError(f"--{flag} needs --{partner}")
    recovered = _load_finite(args.recovered, "recovered")
    truth = _load_finite(args.truth, "truth", recovered.shape)
    metrics = {"weighted_rmse": weighted_rmse(
        truth, recovered, make_weights(cfg, truth.shape[0]))}
    if args.loss_mask:
        metrics["masked_rmse"] = masked_rmse(truth, recovered,
                                             load_mask_csv(args.loss_mask))
    if args.flagged is not None:
        precision, recall = detection_metrics(load_mask_csv(args.flagged),
                                              load_mask_csv(args.corrupt))
        metrics["detection_precision"] = precision
        metrics["detection_recall"] = recall
    _write_json(out / "metrics.json", metrics)


def cmd_bench(cfg: RunConfig, args, out: Path) -> None:
    params, _, _ = load_checkpoint(_checkpoint_path(cfg, out))
    rows = bench_timing(params, [(cfg.channels, cfg.window)],
                        [cfg.subseq_len], cfg.bench_repeats,
                        make_schedule(cfg), seed=cfg.seed)
    (out / "bench_timing.csv").write_text(rows_to_csv(rows))


def _ratio_attack(cfg: RunConfig, ratio: float, M: int, T: int) -> AttackSpec:
    """Attack touching about `ratio` of all entries: the smallest channel
    count whose span still fits the window, span sized to match."""
    if not 0.0 < ratio <= 1.0:
        raise ValueError(f"modified ratio {ratio} outside (0, 1]")
    k = min(M, max(1, math.ceil(ratio * M)))
    span = min(T, max(1, round(ratio * M * T / k)))
    return AttackSpec(kind=cfg.attack_kind, channels=tuple(range(k)),
                      t_start=0, t_end=span, magnitude=cfg.attack_magnitude,
                      seed=cfg.seed)


def cmd_sweep(cfg: RunConfig, args, out: Path) -> None:
    truth = _load_finite(args.truth, "truth")
    M, T = truth.shape
    axis = cfg.sweep_axis
    if axis not in SWEEP_DEFAULTS:
        raise ValueError(f"unknown sweep_axis {axis!r}; "
                         f"expected one of {sorted(SWEEP_DEFAULTS)}")
    values = cfg.sweep_values or SWEEP_DEFAULTS[axis]
    fractional = [v for v in values if not float(v).is_integer()]
    if axis == "repeats" and fractional:
        raise ValueError(f"sweep_values for repeats must be integers, got "
                         f"{fractional[0]:.12g}")
    params, mean, std = load_checkpoint(_checkpoint_path(cfg, out))
    weights = make_weights(cfg, M)

    rows = ["axis,value,weighted_rmse,masked_rmse"]
    for value in values:
        run_cfg = cfg
        if axis == "ratio":
            y, corrupt = inject_fdia(truth, _ratio_attack(cfg, value, M, T),
                                     std_ref=std)
            known, score_mask = None, (~corrupt).astype(np.float64)
        elif axis == "omega":
            y, corrupt = inject_fdia(truth, make_attack_spec(cfg),
                                     std_ref=std)
            known, score_mask = None, (~corrupt).astype(np.float64)
            run_cfg = dataclasses.replace(cfg, omega=float(value))
        else:  # repeats
            lmask = make_loss_mask(M, T, make_mask_spec(cfg))
            y = np.where(lmask == 1.0, truth, np.nan)
            known, score_mask = lmask, lmask
            run_cfg = dataclasses.replace(cfg, repeats=int(value))
        res = recover(params, y, known, make_tsdm_config(run_cfg), mean, std)
        rows.append(f"{axis},{value:.12g},"
                    f"{weighted_rmse(truth, res.x_tilde, weights):.12g},"
                    f"{masked_rmse(truth, res.x_tilde, score_mask):.12g}")
    (out / "sweep.csv").write_text("\n".join(rows) + "\n")


# Each subcommand once: (handler, help, {input: help}, {option: help}).
# An option's flag is --name with "_" as "-", so argparse's dest is the
# key. The manifest records the inputs in this order and the options
# that were given.
COMMANDS = {
    "synth": (cmd_synth, "emit a synthetic window dataset", {}, {}),
    "attack": (cmd_attack, "inject false data into a window",
               {"input": "CSV measurement matrix to corrupt"}, {}),
    "mask": (cmd_mask, "knock out entries of a window",
             {"input": "CSV measurement matrix to mask"}, {}),
    "train": (cmd_train, "train the noise predictor",
              {"windows_dir": "directory of window CSV files"}, {}),
    "recover": (cmd_recover, "run the two-stage recovery",
                {"input": "CSV window to recover"},
                {"truth": "clean reference; adds quality metrics to the "
                          "report",
                 "mask": "observability mask CSV (1=observed)"}),
    "eval": (cmd_eval, "score a recovery against the truth",
             {"truth": "clean reference CSV", "recovered": "recovered CSV"},
             {"loss_mask": "observability mask; adds missing-entry RMSE",
              "flagged": "flag mask (1=flagged); with --corrupt adds "
                         "precision/recall",
              "corrupt": "ground-truth corruption mask (1=corrupted)"}),
    "bench": (cmd_bench, "time sampling at reduced step counts", {}, {}),
    "sweep": (cmd_sweep, "grid a hyperparameter, one CSV row per value",
              {"truth": "clean window the scenario corrupts"}, {}),
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code == 0 else 1
    try:
        cfg = _resolve_config(args)
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        COMMANDS[args.command][0](cfg, args, out)
        _write_manifest(out, args, cfg)
    except Exception as e:  # single runtime-failure boundary for the CLI
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
