"""The benchmark's workloads: inputs made from the seed, operations, checks.

Every workload runs against the committed steady fixture
(`tests/.cache/steady-*.tsdm`: 8 channels x 64 steps, N=100). Windows
come from the seed-42 generator the fixture was trained on; recovery
workloads draw only from past index 2000, which training never saw. The
workload seed picks the windows, the attacked channels, the recovery
seeds and the training batches; it never changes the generator's seed,
which fixes the channel-mixing matrix the fixture learned.

Each workload hands the runner the callables of one round (`ops`) and
takes back their outputs (`record`); the runner times the calls. A round
repeats the same operations with the same seeds, so its outputs and the
quality figures reported from them depend on the seed only, not on how
many rounds fit in the run.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

import checks
import tsdm.checkpoint as checkpoint
import tsdm.denoiser as denoiser
import tsdm.pipeline as pipeline
from tsdm.schedule import linear_schedule, make_subsequence
from tsdm.stage1 import GuidanceConfig
from tsdm.stage2 import ImputeConfig
from tsdm.tensor import GradTape, Tensor
from tsdm.threatsim import (AttackSpec, MaskSpec, SynthSpec, inject_fdia,
                            make_loss_mask, synth_dataset)

FIXTURE_GLOB = "tests/.cache/steady-*.tsdm"
SPEC = SynthSpec(mode="steady", M=8, T=64, seed=42)
TRAIN_WINDOWS = 2000  # the fixture's training set: windows 0..1999
N_STEPS = 100
TAU = make_subsequence(N_STEPS, 10)
ATTACK_STDS = 3.0
MISSING = MaskSpec(kind="nonrandom_missing", target_ratio=0.3,
                   channels=(1, 4, 6), t_start=7, t_end=58)
LEARNING_RATE = 3e-3  # the fixture's training settings
INIT_SEED = 42


@dataclass(frozen=True)
class Size:
    held_out: int  # windows generated past index 2000
    windows: int  # windows per round of a recover loop
    batch: int  # windows per recover_batch call
    impute_R: int
    train_batch: int
    train_steps: int  # training steps per round
    grad_batch: int
    grad_entries: int


FULL = Size(held_out=256, windows=64, batch=32, impute_R=8, train_batch=32,
            train_steps=8, grad_batch=4, grad_entries=6)
TINY = Size(held_out=16, windows=2, batch=2, impute_R=8, train_batch=4,
            train_steps=8, grad_batch=2, grad_entries=2)


def tsdm_config(seed, R=2):
    """The default recovery config (omega 1, R 2) at s=10."""
    return pipeline.TsdmConfig(
        guidance=GuidanceConfig(tau=TAU, seed=seed),
        impute=ImputeConfig(tau=TAU, R=R, seed=seed))


class Fixture:
    """The loaded checkpoint and the windows drawn from its generator."""

    def __init__(self, root, size):
        paths = sorted(root.glob(FIXTURE_GLOB))
        if len(paths) != 1:
            raise FileNotFoundError(
                f"expected one checkpoint matching {FIXTURE_GLOB} under "
                f"{root}, found {len(paths)}")
        self.params, self.mean, self.std = checkpoint.load_checkpoint(
            paths[0])
        windows = synth_dataset(SPEC, TRAIN_WINDOWS + size.held_out)
        self.train = np.stack(windows[:TRAIN_WINDOWS])
        self.held = windows[TRAIN_WINDOWS:]
        self.sched = linear_schedule(N_STEPS)

    def normalize(self, x):
        return (x - self.mean[:, None]) / self.std[:, None]


class RecoverLoop:
    """One caller, one window per `pipeline.recover` call (B=1)."""

    items_per_call = 1

    def __init__(self, fx, seed, size, attacked):
        self.fx = fx
        self.attacked = attacked
        rng = np.random.default_rng([seed, 1])
        picks = rng.choice(len(fx.held), size.windows, replace=False)
        self.truths = [fx.held[i] for i in picks]
        # every channel pair in turn, in a seeded order, so the mix of
        # attacked channels is the same whatever the seed
        pairs = list(itertools.combinations(range(SPEC.M), 2))
        order = rng.permutation(len(pairs))
        self.inputs = []
        for k, truth in enumerate(self.truths):
            if attacked:
                spec = AttackSpec(kind="step",
                                  channels=pairs[order[k % len(pairs)]],
                                  t_start=0, t_end=SPEC.T,
                                  magnitude=ATTACK_STDS)
                y, _ = inject_fdia(truth, spec, std_ref=fx.std)
            else:
                y = truth.copy()
            self.inputs.append(y)
        self.cfgs = [tsdm_config(int(s)) for s in
                     rng.integers(0, 2**31, size.windows)]
        self.rounds = []
        denoiser.predict_noise(fx.params, fx.normalize(self.inputs[0]),
                               N_STEPS)  # warm-up

    def ops(self):
        return [functools.partial(self._recover, y, cfg)
                for y, cfg in zip(self.inputs, self.cfgs)]

    def _recover(self, y, cfg):
        fx = self.fx
        try:
            return pipeline.recover(fx.params, y, None, cfg, fx.mean, fx.std)
        except (RuntimeError, ValueError, FloatingPointError):
            return None

    def record(self, results):
        self.rounds.append(results)
        return sum(r is None for r in results)

    def _ok(self, results):
        keep = [k for k, r in enumerate(results) if r is not None]
        return ([self.truths[k] for k in keep], [self.inputs[k] for k in keep],
                [results[k] for k in keep])

    def check(self):
        for results in self.rounds:
            truths, inputs, res = self._ok(results)
            outputs = [r.x_tilde for r in res]
            if self.attacked:
                checks.check_attacked(truths, inputs, outputs,
                                      [r.outlier_mask for r in res])
            else:
                checks.check_clean(truths, outputs)

    def rmse_ratio(self):
        truths, inputs, res = self._ok(self.rounds[0])
        outputs = [r.x_tilde for r in res]
        if self.attacked:
            return checks.attack_ratio(truths, inputs, outputs)
        return checks.clean_ratio(truths, outputs)

    def flag_scores(self):
        truths, inputs, res = self._ok(self.rounds[0])
        return checks.flag_scores(truths, inputs,
                                  [r.outlier_mask for r in res])


class ImputeBatch:
    """`pipeline.recover_batch` over a batch of windows with a missing
    block given as NaN, at R resampling passes."""

    def __init__(self, fx, seed, size):
        self.fx = fx
        rng = np.random.default_rng([seed, 2])
        picks = rng.choice(len(fx.held), size.batch, replace=False)
        self.truths = [fx.held[i] for i in picks]
        observed = make_loss_mask(SPEC.M, SPEC.T, MISSING) == 1.0
        self.inputs = [np.where(observed, t, np.nan) for t in self.truths]
        self.cfg = tsdm_config(int(rng.integers(0, 2**31)), R=size.impute_R)
        self.items_per_call = size.batch
        self.a1 = fx.sched.alpha_bar_at(int(TAU.tau[0]))
        self.rounds = []
        warm = np.stack([fx.normalize(t) for t in self.truths])
        denoiser.predict_noise(fx.params, warm[0], N_STEPS)  # warm-up
        denoiser.predict_noise(fx.params, warm, N_STEPS)

    def ops(self):
        fx = self.fx
        return [functools.partial(pipeline.recover_batch, fx.params,
                                  self.inputs, self.cfg, norm_mean=fx.mean,
                                  norm_std=fx.std)]

    def record(self, outputs):
        (results,) = outputs
        self.rounds.append(results)
        return sum(isinstance(r, pipeline.WindowFailure) for r in results)

    def check(self):
        for results in self.rounds:
            checks.check_imputed(self.truths, self.inputs, results,
                                 self.fx.mean, self.fx.std, self.a1,
                                 pipeline.WindowFailure)

    def _ok(self):
        keep = [k for k, r in enumerate(self.rounds[0])
                if not isinstance(r, pipeline.WindowFailure)]
        return ([self.truths[k] for k in keep], [self.inputs[k] for k in keep],
                [self.rounds[0][k] for k in keep])

    def rmse_ratio(self):
        truths, inputs, res = self._ok()
        return checks.impute_ratio(truths, inputs, [r.x_tilde for r in res])

    def flag_scores(self):
        truths, inputs, res = self._ok()
        return checks.flag_scores(truths, inputs,
                                  [r.outlier_mask for r in res])


class TrainSteps:
    """Adam training steps on the fixture's architecture from init_params.

    The quality figure is the noise-prediction RMSE on a fixed held-out
    batch after the first round, over that of predicting zero noise, so
    it does not depend on run length.
    """

    items_per_call = 1

    def __init__(self, fx, seed, size):
        self.fx, self.size = fx, size
        self.data = (fx.train - fx.mean[None, :, None]) / fx.std[None, :, None]
        self.params = denoiser.init_params(fx.params.config, seed=INIT_SEED)
        self.opt = denoiser.Adam(self.params, LEARNING_RATE)
        self.rng = np.random.default_rng([seed, 3])
        eval_rng = np.random.default_rng([seed, 4])
        held = np.stack([fx.normalize(w) for w in fx.held])
        self.eval_x0 = held[eval_rng.choice(len(held), size.train_batch,
                                            replace=False)]
        self.eval_n = eval_rng.integers(1, N_STEPS + 1, size.train_batch)
        self.eval_eps = eval_rng.standard_normal(self.eval_x0.shape)
        self.grad_rng = np.random.default_rng([seed, 5])
        self.losses = []
        self.first_round = None
        # warm-up on a throwaway copy, so training starts from init_params
        spare = denoiser.init_params(fx.params.config, seed=INIT_SEED)
        with GradTape() as tape:
            tape.backward(denoiser.diffusion_loss(
                spare, self.eval_x0, self.eval_n, self.eval_eps, fx.sched))

    def ops(self):
        return [self._step] * self.size.train_steps

    def _step(self):
        batch = self.data[self.rng.choice(len(self.data),
                                          self.size.train_batch,
                                          replace=False)]
        try:
            return denoiser.training_step(self.params, batch, self.fx.sched,
                                          self.rng, self.opt)
        except RuntimeError:
            return math.nan

    def record(self, losses):
        self.losses += losses
        if self.first_round is None:
            self.first_round = {k: t.data.copy()
                                for k, t in self.params.items()}
        return sum(math.isnan(v) for v in losses)

    def _loss(self, params, x0, n_vec, eps):
        return float(denoiser.diffusion_loss(params, x0, n_vec, eps,
                                             self.fx.sched).data)

    def check(self):
        checks.check_loss_falls([v for v in self.losses if not math.isnan(v)])
        g = self.grad_rng
        x0 = self.data[g.choice(len(self.data), self.size.grad_batch,
                                replace=False)]
        n_vec = g.integers(1, N_STEPS + 1, self.size.grad_batch)
        eps = g.standard_normal(x0.shape)
        with GradTape() as tape:
            by_id = tape.backward(denoiser.diffusion_loss(
                self.params, x0, n_vec, eps, self.fx.sched))
        names = list(self.params.tensors)
        grads = {k: by_id[id(t)] for k, t in self.params.items()}
        entries = []
        for k in g.choice(len(names), self.size.grad_entries, replace=False):
            name = names[k]
            entries.append((name, int(g.integers(0, grads[name].size))))
        arrays = {k: t.data for k, t in self.params.items()}
        checks.check_gradients(lambda: self._loss(self.params, x0, n_vec, eps),
                               arrays, grads, entries)

    def rmse_ratio(self):
        params = denoiser.DenoiserParams(
            self.params.config,
            {k: Tensor(v) for k, v in self.first_round.items()})
        mse = self._loss(params, self.eval_x0, self.eval_n, self.eval_eps)
        return math.sqrt(mse / np.mean(self.eval_eps**2))

    def flag_scores(self):
        return 0.0, 0.0


WORKLOADS = {
    "recover-clean": lambda fx, seed, size: RecoverLoop(fx, seed, size,
                                                        attacked=False),
    "recover-attack": lambda fx, seed, size: RecoverLoop(fx, seed, size,
                                                         attacked=True),
    "impute-batch": ImputeBatch,
    "train-steps": TrainSteps,
}
