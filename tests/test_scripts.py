"""Every script under scripts/ imports as a module, without running its
main(), so a renamed or deleted name that a script uses fails here
instead of at the script's next manual run. quality.py's corruptions and
one seed of its held-out table are checked too."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from tsdm.threatsim import MaskSpec, make_loss_mask, synth_dataset

SCRIPTS_DIR = Path(__file__).resolve().parent.parent / "scripts"
SCRIPTS = sorted(SCRIPTS_DIR.glob("*.py"))


def _load(path):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scripts_are_found():
    assert SCRIPTS


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_imports_without_running(path):
    assert callable(_load(path).main)


def test_quality_corruptions():
    """quality.py's rows change what its docstring says, with no recovery
    run: each attack exactly its pair of channels over its span, block
    and sparse NaN exactly on their masks, clean nothing."""
    quality = _load(SCRIPTS_DIR / "quality.py")
    rng = np.random.default_rng(0)
    std = np.full(8, 2.0)
    nan_share = []
    for k in range(12):
        truth = rng.standard_normal((8, 64))
        for row, start in (("step", 0), ("ramp", 16), ("random", 32)):
            y, gt = quality.corrupt(row, k, truth, std)
            expected = np.zeros((8, 64), dtype=bool)
            # a ramp rises from 0, so the first entry of its span keeps
            # its value
            expected[list(quality.PAIRS[k % 6]),
                     start + (row == "ramp"):] = True
            assert np.array_equal(y != truth, expected), (row, k)
            assert np.array_equal(gt, expected), (row, k)
            if row == "step":
                assert np.allclose((y - truth)[expected], 6.0)
        y, gt = quality.corrupt("block", k, truth, std)
        block = np.zeros((8, 64), dtype=bool)
        block[[1, 4, 6], 7:58] = True
        assert np.array_equal(np.isnan(y), block) and np.array_equal(gt, block)
        assert np.array_equal(y[~block], truth[~block])
        y, gt = quality.corrupt("sparse", k, truth, std)
        mask = make_loss_mask(8, 64, MaskSpec(kind="random_missing",
                                              target_ratio=0.05, seed=k))
        assert np.array_equal(np.isnan(y), mask == 0.0)
        assert np.array_equal(gt, mask == 0.0)
        assert np.array_equal(y[mask == 1.0], truth[mask == 1.0])
        nan_share.append(np.isnan(y).mean())
        y, gt = quality.corrupt("clean", k, truth, std)
        assert np.array_equal(y, truth) and not gt.any()
    assert 0.02 < np.mean(nan_share) < 0.07


# Ceilings on each row's error and floors on step detection: the worst
# figure over recovery seeds 0-2 when the ratchet was set, rounded outward.
ERROR_CEILINGS = {"clean": 0.70, "step": 0.58, "ramp": 0.66, "random": 0.45,
                  "block": 1.13, "sparse": 1.05}
STEP_FLOORS = {"precision": 0.70, "recall": 0.72}


@pytest.fixture(scope="module")
def quality_table(steady_fixture):
    """quality.py's score at recovery seed 0 on held-out windows
    2032-2095, one row at a time."""
    quality = _load(SCRIPTS_DIR / "quality.py")
    truths = synth_dataset(quality.SPEC, 2096)[2032:]
    return lambda row: quality.score(steady_fixture[:3], row, truths, 0)


@pytest.mark.parametrize("row", ERROR_CEILINGS)
def test_held_out_table_ratchet(quality_table, row):
    """The held-out table as a ratchet: no row's error may rise above its
    ceiling, and step detection may not fall below its floors. A change
    that improves a row lowers that row's ceiling here, in the same
    change. The block and sparse ceilings sit above 1.0: imputation there
    is worse than linear interpolation and nothing says so, which breaks
    the north star's "never worse than the trivial baseline without
    saying so" until a change brings them under 1.0."""
    figures = quality_table(row)
    assert figures["error"] <= ERROR_CEILINGS[row]
    if row == "step":
        for key, floor in STEP_FLOORS.items():
            assert figures[key] >= floor, key
