"""Oracle tests for the flat key=value run configuration.

Every key has a default; unknown keys are rejected; values are typed by
the field they set; text round-trips losslessly. Helper constructors
derive the schedule, model, training, corruption, and pipeline configs.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsdm.runconfig import (RunConfig, format_runconfig, load_runconfig,
                            make_attack_spec, make_denoiser_config,
                            make_mask_spec, make_schedule, make_subseq,
                            make_synth_spec, make_train_config,
                            make_tsdm_config, parse_runconfig,
                            save_runconfig)


def test_empty_text_gives_all_defaults():
    cfg = parse_runconfig("")
    assert cfg == RunConfig()
    assert cfg.n_steps == 100
    assert cfg.subseq_len == 10
    assert cfg.omega == 1.0
    assert cfg.repeats == 2
    assert cfg.seed == 0


def test_round_trip_preserves_values():
    cfg = RunConfig(n_steps=50, omega=2.5, attack_channels=(1, 5),
                    shuffle=False, checkpoint="m.tsdm")
    text = format_runconfig(cfg)
    assert parse_runconfig(text) == cfg


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(omega=_FINITE, learning_rate=_FINITE,
       weights=st.lists(_FINITE, max_size=4).map(tuple),
       sweep_values=st.lists(_FINITE, max_size=4).map(tuple))
def test_every_finite_float_round_trips(omega, learning_rate, weights,
                                        sweep_values):
    cfg = RunConfig(omega=omega, learning_rate=learning_rate,
                    weights=weights, sweep_values=sweep_values)
    back = parse_runconfig(format_runconfig(cfg))
    assert back == cfg
    for key in ("omega", "learning_rate", "weights", "sweep_values"):
        assert repr(getattr(back, key)) == repr(getattr(cfg, key))  # -0.0


def test_short_floats_keep_their_short_text():
    text = format_runconfig(RunConfig(omega=0.1, learning_rate=2e-3,
                                      weights=(1.0, 0.25)))
    assert "omega=0.1\n" in text and "learning_rate=0.002\n" in text
    assert "weights=1,0.25\n" in text and "beta_start=0.0001\n" in text


@pytest.mark.parametrize("line", ["omega=nan", "attack_magnitude=inf",
                                  "learning_rate=-inf", "mask_ratio=NaN",
                                  "weights=1,inf,1", "sweep_values=0.5,nan"])
def test_non_finite_float_rejected(line):
    key = line.partition("=")[0]
    with pytest.raises(ValueError,
                       match=f"^bad value for {key}: .*not a finite number"):
        parse_runconfig(line + "\n")


def test_unknown_key_rejected():
    with pytest.raises(ValueError, match="bogus_key"):
        parse_runconfig("bogus_key=1\n")


def test_bad_value_rejected():
    with pytest.raises(ValueError, match="n_steps"):
        parse_runconfig("n_steps=ten\n")
    with pytest.raises(ValueError, match="shuffle"):
        parse_runconfig("shuffle=maybe\n")


def test_comments_and_blanks_ignored():
    cfg = parse_runconfig("# schedule\n\nn_steps=20\n  # inline comment line\n")
    assert cfg.n_steps == 20


def test_missing_equals_rejected():
    with pytest.raises(ValueError, match="key=value"):
        parse_runconfig("n_steps 20\n")


def test_int_list_parsing():
    cfg = parse_runconfig("attack_channels=2,6\nmask_channels=\n")
    assert cfg.attack_channels == (2, 6)
    assert cfg.mask_channels == ()


def test_file_round_trip(tmp_path):
    cfg = RunConfig(epochs=3, learning_rate=5e-4)
    p = tmp_path / "run.cfg"
    save_runconfig(p, cfg)
    assert load_runconfig(p) == cfg


def test_make_schedule_and_subseq_flow_from_keys():
    cfg = parse_runconfig("n_steps=40\nbeta_start=0.001\nbeta_end=0.02\n"
                          "subseq_len=4\n")
    sched = make_schedule(cfg)
    assert sched.N == 40
    assert sched.beta[0] == pytest.approx(0.001)
    assert sched.beta[-1] == pytest.approx(0.02)
    tau = make_subseq(cfg)
    assert tau.s == 4 and tau.tau[-1] == 40


def test_make_model_and_training_configs():
    cfg = parse_runconfig("channels=4\nwindow=16\nbase_width=8\nepochs=2\n"
                          "batch_size=7\nseed=9\n")
    dcfg = make_denoiser_config(cfg)
    assert dcfg.channels_in == 4 and dcfg.base_width == 8
    tcfg = make_train_config(cfg)
    assert tcfg.epochs == 2 and tcfg.batch_size == 7 and tcfg.seed == 9


def test_make_tsdm_config_flows_seed_and_omega():
    cfg = parse_runconfig("omega=0.5\nrepeats=3\nseed=11\n"
                          "outlier_branch_threshold=0.2\n")
    pc = make_tsdm_config(cfg)
    assert pc.guidance.omega == 0.5 and pc.guidance.seed == 11
    assert pc.impute.R == 3 and pc.impute.seed == 11
    assert pc.outlier_branch_threshold == 0.2
    assert pc.schedule().N == cfg.n_steps


def test_make_corruption_specs():
    cfg = parse_runconfig("attack_kind=ramp\nattack_channels=0,2\n"
                          "attack_start=4\nattack_end=12\n"
                          "attack_magnitude=1.5\nmask_kind=random_missing\n"
                          "mask_ratio=0.2\nseed=5\n")
    atk = make_attack_spec(cfg)
    assert atk.kind == "ramp" and atk.channels == (0, 2)
    assert (atk.t_start, atk.t_end, atk.magnitude) == (4, 12, 1.5)
    assert atk.seed == 5
    msk = make_mask_spec(cfg)
    assert msk.kind == "random_missing" and msk.target_ratio == 0.2
    assert msk.channels is None and msk.t_start is None


def test_make_synth_spec():
    cfg = parse_runconfig("synth_mode=transient\nchannels=6\nwindow=32\n"
                          "event_time=10\nseed=3\n")
    spec = make_synth_spec(cfg)
    assert spec.mode == "transient" and spec.M == 6 and spec.T == 32
    assert spec.event_time == 10 and spec.seed == 3


def test_every_key_documented_and_defaulted():
    # The config docstring names every key exactly once.
    import tsdm.runconfig as rc

    doc = rc.RunConfig.__doc__
    for f in dataclasses.fields(RunConfig):
        assert f.name in doc, f"key {f.name} undocumented"


def test_negative_seed_rejected():
    with pytest.raises(ValueError, match=r"^bad value for seed: -3 "
                       r"\(expected a non-negative integer\)$"):
        parse_runconfig("seed=-3\n")
    with pytest.raises(ValueError, match="^bad value for seed: -1 "):
        RunConfig(seed=-1)
    assert parse_runconfig("seed=0\n").seed == 0
