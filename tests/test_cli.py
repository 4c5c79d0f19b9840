"""Command-line surface: artifacts, manifests, exit codes, determinism.

Runs the CLI as a subprocess (python -m tsdm.cli) against a tiny
synthetic setup so every subcommand stays fast; recovery-quality
assertions live in the acceptance suite, not here.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from clirun import run_cli

from tsdm.checkpoint import load_checkpoint, save_checkpoint
from tsdm.dataio import (load_mask_csv, load_matrix_csv, save_mask_csv,
                         save_matrix_csv)
from tsdm.metrics import detection_metrics

TINY = {
    "channels": 4,
    "window": 16,
    "base_width": 8,
    "depth": 2,
    "time_embed_dim": 8,
    "epochs": 2,
    "synth_count": 10,
    "n_steps": 40,
    "subseq_len": 5,
    "repeats": 2,
    "attack_channels": "0,2",
    "attack_end": 16,
    "mask_channels": "1,3",
    "mask_start": 2,
    "mask_end": 14,
    "bench_repeats": 1,
    "seed": 7,
}


def write_config(path: Path, **overrides) -> Path:
    merged = {**TINY, **overrides}
    path.write_text("".join(f"{k} = {v}\n" for k, v in merged.items()))
    return path


@pytest.fixture(scope="module")
def cli_env(tmp_path_factory):
    """One synth+train setup shared read-only by the module's tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = write_config(root / "tiny.cfg")
    for cmd in (("synth",), ("train", "base/windows")):
        r = run_cli("--config", cfg.name, "--out", "base", *cmd, cwd=root)
        assert r.returncode == 0, r.stderr
    return root


def test_synth_writes_dataset_and_manifest(cli_env):
    files = sorted((cli_env / "base" / "windows").glob("*.csv"))
    assert len(files) == TINY["synth_count"]
    x, header = load_matrix_csv(files[0])
    assert x.shape == (TINY["channels"], TINY["window"]) and header is None
    manifest = json.loads((cli_env / "base" / "manifest.json").read_text())
    resolved = (cli_env / "base" / "config.resolved.txt").read_bytes()
    assert manifest["config_sha256"] == hashlib.sha256(resolved).hexdigest()
    assert manifest["seed"] == TINY["seed"]
    assert set(manifest["versions"]) == {"python", "numpy", "tsdm"}


def test_train_writes_checkpoint_and_loss_curve(cli_env):
    assert (cli_env / "base" / "model.tsdm").exists()
    lines = (cli_env / "base" / "loss_curve.csv").read_text().splitlines()
    assert lines[0] == "epoch,loss"
    assert len(lines) == 1 + TINY["epochs"]
    losses = [float(l.split(",")[1]) for l in lines[1:]]
    assert all(np.isfinite(losses))


def test_attack_touches_exactly_the_truth_mask(cli_env):
    cfg = cli_env / "tiny.cfg"
    r = run_cli("--config", cfg.name, "--out", "atk", "attack",
                "base/windows/00003.csv", cwd=cli_env)
    assert r.returncode == 0, r.stderr
    x, _ = load_matrix_csv(cli_env / "base/windows/00003.csv")
    y, _ = load_matrix_csv(cli_env / "atk/attacked.csv")
    gt = load_mask_csv(cli_env / "atk/attack_truth_mask.csv")
    assert np.array_equal(y != x, gt == 1.0)
    assert gt[0].any() and gt[2].any() and not gt[1].any()


def test_mask_pokes_nans_exactly_at_missing_entries(cli_env):
    cfg = cli_env / "tiny.cfg"
    r = run_cli("--config", cfg.name, "--out", "msk", "mask",
                "base/windows/00003.csv", cwd=cli_env)
    assert r.returncode == 0, r.stderr
    x, _ = load_matrix_csv(cli_env / "base/windows/00003.csv")
    masked, _ = load_matrix_csv(cli_env / "msk/masked.csv")
    lm = load_mask_csv(cli_env / "msk/loss_mask.csv")
    assert np.array_equal(np.isnan(masked), lm == 0.0)
    assert np.array_equal(masked[lm == 1.0], x[lm == 1.0])


def test_attack_on_a_masked_window_flags_exactly_what_it_changed(cli_env):
    """mask, then attack its output: channel 1 is masked over t 2-13 and
    attacked, channel 3 only masked. Every NaN stays where mask put it,
    and the truth mask flags the observed entries of channels 0 and 1."""
    cfg = write_config(cli_env / "ma.cfg", attack_channels="0,1")
    for cmd in (("mask", "base/windows/00003.csv"),
                ("attack", "ma/masked.csv")):
        r = run_cli("--config", cfg.name, "--out", "ma", *cmd, cwd=cli_env)
        assert r.returncode == 0, r.stderr
    masked, _ = load_matrix_csv(cli_env / "ma/masked.csv")
    y, _ = load_matrix_csv(cli_env / "ma/attacked.csv")
    gt = load_mask_csv(cli_env / "ma/attack_truth_mask.csv") == 1.0
    observed = ~np.isnan(masked)
    assert np.array_equal(np.isnan(y), ~observed)
    assert np.array_equal(gt, observed & (y != masked))
    assert np.array_equal(gt, observed & (np.arange(4) < 2)[:, None])
    assert gt.sum() == 16 + 4


def test_phase_shift_on_a_missing_entry_is_runtime_failure(cli_env):
    x = np.sin(2 * np.pi * np.arange(16) / 4) * np.ones((4, 1))
    x[2, 5] = np.nan
    save_matrix_csv(cli_env / "gap.csv", x)
    cfg = write_config(cli_env / "ps.cfg", attack_kind="phase_shift",
                       attack_start=4, attack_end=12)
    r = run_cli("--config", cfg.name, "--out", "ps", "attack", "gap.csv",
                cwd=cli_env)
    assert r.returncode == 2
    assert r.stderr == ("error: phase_shift: attack channel 2 has missing "
                        "entries at t 5\n")
    assert not (cli_env / "ps" / "attacked.csv").exists()


def test_recover_emits_artifacts_and_metrics(cli_env):
    cfg = write_config(cli_env / "rec.cfg",
                       checkpoint=cli_env / "base/model.tsdm")
    r = run_cli("--config", cfg.name, "--out", "rec", "recover",
                "atk/attacked.csv", "--truth", "base/windows/00003.csv",
                cwd=cli_env)
    assert r.returncode == 0, r.stderr
    recovered, _ = load_matrix_csv(cli_env / "rec/recovered.csv")
    assert recovered.shape == (TINY["channels"], TINY["window"])
    assert np.all(np.isfinite(recovered))
    load_mask_csv(cli_env / "rec/outlier_mask.csv")
    report = json.loads((cli_env / "rec/report.json").read_text())
    for key in ("stage_taken", "outlier_fraction", "weighted_rmse",
                "masked_rmse", "detection_precision", "detection_recall"):
        assert key in report
    assert report["weighted_rmse"] >= 0
    # wall-clock lives in the sidecar only, never in report.json
    assert "runtime_ms" not in report
    assert (cli_env / "rec/timing.txt").read_text().startswith("runtime_ms=")


def test_recover_clean_input_reports_stage1_only(cli_env):
    cfg = write_config(cli_env / "clean.cfg",
                       checkpoint=cli_env / "base/model.tsdm",
                       outlier_branch_threshold=1.0)
    r = run_cli("--config", cfg.name, "--out", "cln", "recover",
                "base/windows/00005.csv", cwd=cli_env)
    assert r.returncode == 0, r.stderr
    report = json.loads((cli_env / "cln/report.json").read_text())
    assert report["stage_taken"] == "stage1_only"


def test_eval_matches_library_metrics(cli_env):
    cfg = cli_env / "rec.cfg"
    r = run_cli("--config", cfg.name, "--out", "ev", "eval",
                "base/windows/00003.csv", "rec/recovered.csv",
                "--flagged", "atk/attack_truth_mask.csv",
                "--corrupt", "atk/attack_truth_mask.csv", cwd=cli_env)
    assert r.returncode == 0, r.stderr
    metrics = json.loads((cli_env / "ev/metrics.json").read_text())
    report = json.loads((cli_env / "rec/report.json").read_text())
    assert metrics["weighted_rmse"] == pytest.approx(report["weighted_rmse"],
                                                     rel=1e-9)
    gt = load_mask_csv(cli_env / "atk/attack_truth_mask.csv")
    assert (metrics["detection_precision"],
            metrics["detection_recall"]) == detection_metrics(gt, gt) == (1, 1)


@pytest.mark.parametrize("given, missing", [("flagged", "corrupt"),
                                            ("corrupt", "flagged")])
def test_eval_needs_flagged_and_corrupt_together(cli_env, given, missing):
    save_mask_csv(cli_env / "ones_mask.csv",
                  np.ones((TINY["channels"], TINY["window"])))
    r = run_cli("--config", "tiny.cfg", "--out", f"pair-{given}", "eval",
                "base/windows/00003.csv", "base/windows/00004.csv",
                f"--{given}", "ones_mask.csv", cwd=cli_env)
    assert r.returncode == 2
    assert r.stderr == f"error: --{given} needs --{missing}\n"
    assert not (cli_env / f"pair-{given}" / "metrics.json").exists()


def test_bench_emits_timing_table(cli_env):
    cfg = write_config(cli_env / "bench.cfg",
                       checkpoint=cli_env / "base/model.tsdm")
    r = run_cli("--config", cfg.name, "--out", "bn", "bench", cwd=cli_env)
    assert r.returncode == 0, r.stderr
    lines = (cli_env / "bn/bench_timing.csv").read_text().splitlines()
    assert lines[0] == "channels,T,s,mean_ms,std_ms,ratio_vs_full"
    table = {int(l.split(",")[2]): float(l.split(",")[5]) for l in lines[1:]}
    assert table[TINY["n_steps"]] == 1.0
    assert 0.0 < table[TINY["subseq_len"]] < 1.0


def test_sweep_default_ratio_grid(cli_env):
    cfg = write_config(cli_env / "sw.cfg",
                       checkpoint=cli_env / "base/model.tsdm")
    r = run_cli("--config", cfg.name, "--out", "sw", "sweep",
                "base/windows/00004.csv", cwd=cli_env)
    assert r.returncode == 0, r.stderr
    lines = (cli_env / "sw/sweep.csv").read_text().splitlines()
    assert lines[0] == "axis,value,weighted_rmse,masked_rmse"
    rows = [l.split(",") for l in lines[1:]]
    assert [float(row[1]) for row in rows] == [.01, .05, .10, .20, .30, .40,
                                               .50]
    assert all(row[0] == "ratio" for row in rows)
    assert all(float(row[2]) >= 0 and float(row[3]) >= 0 for row in rows)


def test_sweep_axis_and_values_follow_config(cli_env):
    cfg = write_config(cli_env / "sw2.cfg",
                       checkpoint=cli_env / "base/model.tsdm",
                       sweep_axis="repeats", sweep_values="1,2")
    r = run_cli("--config", cfg.name, "--out", "sw2", "sweep",
                "base/windows/00004.csv", cwd=cli_env)
    assert r.returncode == 0, r.stderr
    lines = (cli_env / "sw2/sweep.csv").read_text().splitlines()
    assert len(lines) == 3
    assert [l.split(",")[:2] for l in lines[1:]] == [["repeats", "1"],
                                                     ["repeats", "2"]]


def test_sweep_refuses_nonintegral_repeats(cli_env):
    cfg = write_config(cli_env / "sw4.cfg",
                       checkpoint=cli_env / "base/model.tsdm",
                       sweep_axis="repeats", sweep_values="2,2.5,2.9")
    r = run_cli("--config", cfg.name, "--out", "x11", "sweep",
                "base/windows/00004.csv", cwd=cli_env)
    assert r.returncode == 2
    assert r.stderr.count("\n") == 1
    assert "repeats must be integers, got 2.5" in r.stderr
    assert not (cli_env / "x11" / "sweep.csv").exists()


def test_non_finite_config_value_is_runtime_failure(cli_env):
    cfg = write_config(cli_env / "nan.cfg", attack_magnitude="nan")
    r = run_cli("--config", cfg.name, "--out", "x12", "attack",
                "base/windows/00004.csv", cwd=cli_env)
    assert r.returncode == 2
    assert r.stderr.count("\n") == 1
    assert "bad value for attack_magnitude: 'nan'" in r.stderr
    assert not (cli_env / "x12").exists()


@pytest.mark.parametrize("argv", [("--seed", "-1"), ("--config", "neg.cfg")],
                         ids=["flag", "key"])
def test_negative_seed_is_runtime_failure_before_any_directory(cli_env,
                                                               argv):
    (cli_env / "neg.cfg").write_text("seed = -3\n")
    r = run_cli(*argv, "--out", "x13", "synth", cwd=cli_env)
    assert r.returncode == 2
    assert r.stderr.count("\n") == 1
    assert "bad value for seed: -" in r.stderr
    assert "expected a non-negative integer" in r.stderr
    assert not (cli_env / "x13").exists()


def test_unknown_flag_is_usage_error(cli_env):
    r = run_cli("--frobnicate", "synth", cwd=cli_env)
    assert r.returncode == 1
    assert "usage" in r.stderr.lower()


def test_missing_subcommand_is_usage_error(cli_env):
    r = run_cli(cwd=cli_env)
    assert r.returncode == 1


def test_help_exits_zero(cli_env):
    r = run_cli("--help", cwd=cli_env)
    assert r.returncode == 0 and "usage" in r.stdout.lower()


def test_missing_input_is_runtime_failure(cli_env):
    cfg = cli_env / "rec.cfg"
    r = run_cli("--config", cfg.name, "--out", "x1", "recover",
                "no-such-file.csv", cwd=cli_env)
    assert r.returncode == 2
    assert "error:" in r.stderr


def test_corrupt_checkpoint_is_runtime_failure(cli_env):
    blob = bytearray((cli_env / "base/model.tsdm").read_bytes())
    blob[-1] ^= 0x01  # a payload byte
    (cli_env / "corrupt.tsdm").write_bytes(bytes(blob))
    cfg = write_config(cli_env / "corrupt.cfg",
                       checkpoint=cli_env / "corrupt.tsdm")
    r = run_cli("--config", cfg.name, "--out", "x3", "recover",
                "base/windows/00004.csv", cwd=cli_env)
    assert r.returncode == 2
    assert r.stderr.count("\n") == 1 and "SHA-256" in r.stderr


def test_short_checkpoint_is_runtime_failure(cli_env):
    (cli_env / "short.tsdm").write_bytes(b"TSDM\x02\x00")
    cfg = write_config(cli_env / "short.cfg",
                       checkpoint=cli_env / "short.tsdm")
    r = run_cli("--config", cfg.name, "--out", "x12", "recover",
                "base/windows/00004.csv", cwd=cli_env)
    assert r.returncode == 2
    assert r.stderr.count("\n") == 1 and "short.tsdm" in r.stderr
    assert "shorter than the preamble" in r.stderr


def test_checkpoint_stats_of_another_length_are_runtime_failure(cli_env):
    params, mean, std = load_checkpoint(cli_env / "base/model.tsdm")
    save_checkpoint(cli_env / "stats3.tsdm", params, mean[:3], std)
    cfg = write_config(cli_env / "stats3.cfg",
                       checkpoint=cli_env / "stats3.tsdm")
    r = run_cli("--config", cfg.name, "--out", "x14", "recover",
                "base/windows/00004.csv", cwd=cli_env)
    assert r.returncode == 2
    assert r.stderr.count("\n") == 1
    assert ("stats3.tsdm: norm_mean has 3 entries but the config takes 4 "
            "channels") in r.stderr


def test_channel_count_mismatch_is_runtime_failure(cli_env):
    x, _ = load_matrix_csv(cli_env / "base/windows/00004.csv")
    save_matrix_csv(cli_env / "three.csv", x[:3])
    cfg = write_config(cli_env / "three.cfg",
                       checkpoint=cli_env / "base/model.tsdm")
    r = run_cli("--config", cfg.name, "--out", "x4", "recover", "three.csv",
                cwd=cli_env)
    assert r.returncode == 2
    assert r.stderr.count("\n") == 1
    assert "3 channels but the model takes 4" in r.stderr


def test_length_zero_window_is_runtime_failure(cli_env, monkeypatch,
                                               capsys):
    # A CSV cannot hold a T=0 window (its rows would be empty, and the
    # loader skips empty rows), so the loader is made to return one.
    from tsdm import cli

    cfg = write_config(cli_env / "empty.cfg",
                       checkpoint=cli_env / "base/model.tsdm")
    monkeypatch.setattr(cli, "load_matrix_csv",
                        lambda path: (np.zeros((TINY["channels"], 0)), None))
    monkeypatch.chdir(cli_env)
    code = cli.main(["--config", cfg.name, "--out", "x6", "recover",
                     "empty.csv"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: T=0: a window needs at least one time step\n")
    assert not (cli_env / "x6" / "recovered.csv").exists()


def test_all_missing_window_is_runtime_failure(cli_env):
    x, _ = load_matrix_csv(cli_env / "base/windows/00004.csv")
    save_matrix_csv(cli_env / "void.csv", np.full_like(x, np.nan))
    cfg = write_config(cli_env / "void.cfg",
                       checkpoint=cli_env / "base/model.tsdm")
    r = run_cli("--config", cfg.name, "--out", "x5", "recover", "void.csv",
                cwd=cli_env)
    assert r.returncode == 2
    assert r.stderr.count("\n") == 1 and "no observed entries" in r.stderr
    assert not (cli_env / "x5" / "recovered.csv").exists()


def _nan_truth(cli_env):
    """A copy of window 00003 with one NaN entry, as a truth file."""
    x, _ = load_matrix_csv(cli_env / "base/windows/00003.csv")
    x[1, 4] = np.nan
    save_matrix_csv(cli_env / "nan_truth.csv", x)
    return "nan_truth.csv"


def _assert_truth_refused(r, out_dir, artifact):
    assert r.returncode == 2
    assert r.stderr.count("\n") == 1 and "truth file" in r.stderr
    assert not (out_dir / artifact).exists()


def test_eval_refuses_nonfinite_truth(cli_env):
    r = run_cli("--config", "tiny.cfg", "--out", "x6", "eval",
                _nan_truth(cli_env), "base/windows/00004.csv", cwd=cli_env)
    _assert_truth_refused(r, cli_env / "x6", "metrics.json")
    assert "nan_truth.csv has a non-finite entry" in r.stderr


def test_eval_refuses_nonfinite_recovered(cli_env):
    x, _ = load_matrix_csv(cli_env / "base/windows/00003.csv")
    x[2, 5] = np.nan
    save_matrix_csv(cli_env / "nan_recovered.csv", x)
    r = run_cli("--config", "tiny.cfg", "--out", "x10", "eval",
                "base/windows/00003.csv", "nan_recovered.csv", cwd=cli_env)
    assert r.returncode == 2
    assert r.stderr.count("\n") == 1
    assert "recovered file nan_recovered.csv has a non-finite entry" \
        in r.stderr
    assert not (cli_env / "x10" / "metrics.json").exists()


def test_sweep_refuses_nonfinite_truth(cli_env):
    cfg = write_config(cli_env / "sw3.cfg",
                       checkpoint=cli_env / "base/model.tsdm")
    r = run_cli("--config", cfg.name, "--out", "x7", "sweep",
                _nan_truth(cli_env), cwd=cli_env)
    _assert_truth_refused(r, cli_env / "x7", "sweep.csv")
    assert "nan_truth.csv has a non-finite entry" in r.stderr


def test_recover_checks_truth_before_recovering(cli_env):
    cfg = write_config(cli_env / "tr.cfg",
                       checkpoint=cli_env / "base/model.tsdm")
    r = run_cli("--config", cfg.name, "--out", "x8", "recover",
                "atk/attacked.csv", "--truth", _nan_truth(cli_env),
                cwd=cli_env)
    _assert_truth_refused(r, cli_env / "x8", "recovered.csv")
    assert "nan_truth.csv has a non-finite entry" in r.stderr
    x, _ = load_matrix_csv(cli_env / "base/windows/00003.csv")
    save_matrix_csv(cli_env / "short_truth.csv", x[:, :-1])
    r = run_cli("--config", cfg.name, "--out", "x9", "recover",
                "atk/attacked.csv", "--truth", "short_truth.csv",
                cwd=cli_env)
    _assert_truth_refused(r, cli_env / "x9", "recovered.csv")
    assert "short_truth.csv has shape (4, 15) but the input has (4, 16)" \
        in r.stderr


def _train_refusal(cli_env, name, cfg="tiny.cfg", bad=None):
    """Run train into `name` on windows 00000-00002, window 00001 replaced
    by bad(x) if given; returns the run after checking that it exits 2
    with one stderr line and leaves no checkpoint."""
    wdir = cli_env / f"{name}-windows"
    wdir.mkdir()
    for i in range(3):
        x, _ = load_matrix_csv(cli_env / f"base/windows/{i:05d}.csv")
        save_matrix_csv(wdir / f"{i:05d}.csv", bad(x) if bad and i == 1 else x)
    r = run_cli("--config", cfg, "--out", name, "train", wdir.name,
                cwd=cli_env)
    assert r.returncode == 2
    assert r.stderr.count("\n") == 1
    assert not (cli_env / name / "model.tsdm").exists()
    return r


def test_train_refuses_a_nonfinite_window(cli_env):
    def nan(x):
        x[2, 5] = np.nan
        return x

    r = _train_refusal(cli_env, "t1", bad=nan)
    assert r.stderr == ("error: window file t1-windows/00001.csv has a "
                        "non-finite entry\n")


def test_train_refuses_a_window_of_another_shape(cli_env):
    r = _train_refusal(cli_env, "t2", bad=lambda x: x[:, :-1])
    assert r.stderr == ("error: window file t2-windows/00001.csv has shape "
                        "(4, 15) but the input has (4, 16)\n")


def test_train_refuses_windows_of_another_channel_count(cli_env):
    cfg = write_config(cli_env / "ch3.cfg", channels=3)
    r = _train_refusal(cli_env, "t3", cfg=cfg.name)
    assert r.stderr == ("error: dataset has 4 channels but the config "
                        "takes 3\n")


def test_train_refuses_a_schedule_whose_alpha_bar_underflows(cli_env):
    cfg = write_config(cli_env / "under.cfg", n_steps=2000, beta_end=0.99)
    r = _train_refusal(cli_env, "t4", cfg=cfg.name)
    assert r.stderr == "error: alpha_bar reaches 0 at step 1463 of 2000\n"


def test_unknown_config_key_is_runtime_failure(cli_env, tmp_path):
    bad = cli_env / "bad.cfg"
    bad.write_text("not_a_real_key = 3\n")
    r = run_cli("--config", bad.name, "--out", "x2", "synth", cwd=cli_env)
    assert r.returncode == 2
    assert "not_a_real_key" in r.stderr


@pytest.mark.parametrize("count", [0, -5])
def test_synth_count_below_one_is_runtime_failure(cli_env, count):
    cfg = write_config(cli_env / f"count{count}.cfg", synth_count=count)
    r = run_cli("--config", cfg.name, "--out", f"n{count}", "synth",
                cwd=cli_env)
    assert r.returncode == 2
    assert r.stderr.splitlines() == [
        f"error: synthesis count must be at least 1, got {count}"]
    assert not (cli_env / f"n{count}" / "windows").exists()


def test_rerun_reproduces_artifacts_byte_identically(cli_env):
    cfg = write_config(cli_env / "det.cfg",
                       checkpoint=cli_env / "base/model.tsdm")

    def run_and_hash():
        r = run_cli("--config", cfg.name, "--out", "det", "recover",
                    "atk/attacked.csv", "--truth", "base/windows/00003.csv",
                    cwd=cli_env)
        assert r.returncode == 0, r.stderr
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted((cli_env / "det").iterdir())
                if p.name != "timing.txt"}

    first, second = run_and_hash(), run_and_hash()
    assert first == second and len(first) >= 4


def test_seed_flag_overrides_config(cli_env):
    cfg = write_config(cli_env / "seed.cfg",
                       checkpoint=cli_env / "base/model.tsdm")
    outs = []
    for name, seed in (("s1", 11), ("s2", 11), ("s3", 12)):
        r = run_cli("--config", cfg.name, "--seed", seed, "--out", name,
                    "recover", "atk/attacked.csv", cwd=cli_env)
        assert r.returncode == 0, r.stderr
        outs.append((cli_env / name / "recovered.csv").read_bytes())
        manifest = json.loads((cli_env / name / "manifest.json").read_text())
        assert manifest["seed"] == seed
    assert outs[0] == outs[1] and outs[0] != outs[2]
