"""Pipeline orchestration for the two-model refinement lab.

The only latent ever handed from one model's domain to the other is a
predicted clean latent: noisy latents are meaningless under the other
schedule.  Pipelines record a stage log and exact per-model evaluation
counts; the encapsulated pipeline runs its temporal block exactly once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .diffusion import ddim_sample, predict_clean, sdedit_refine
from .errors import CapabilityError, InjectionError, ParameterError
from .models import Condition, Denoiser
from .schedule import NoiseSchedule, forward_noise
from .sfi import (
    DEEP_LAYERS,
    InjectionConfig,
    denoise_with_injection,
    injection_keys,
    invert_with_capture,
)

BLOCK_SDEDIT = "sdedit"
BLOCK_INVERSION_SFI = "inversion+sfi"


@dataclass(frozen=True)
class ModelBundle:
    """The two denoisers with their own schedules."""

    spatial: Denoiser
    temporal: Denoiser
    spatial_schedule: NoiseSchedule
    temporal_schedule: NoiseSchedule


@dataclass(frozen=True)
class PipelineConfig:
    """Hyperparameters of the pipelines; the fields are the config's
    ``pipeline`` keys, so ``PipelineConfig(**cfg["pipeline"])`` builds it.

    ``t_I`` / ``t_V`` are the noising levels on the spatial / temporal
    schedules, ``t_T2V`` the spatial timestep at which the temporal block is
    inserted, ``n_V`` how many temporal reverse steps the block runs, and
    ``rounds`` the iterated baseline's round count.  ``injection`` may be
    given as the section's JSON object.
    """

    t_I: int = 20
    t_V: int = 4
    t_T2V: int = 10
    n_V: int = 2
    block_mode: str = BLOCK_INVERSION_SFI
    injection: InjectionConfig | None = field(
        default_factory=lambda: InjectionConfig(layers=DEEP_LAYERS, gamma=0.8)
    )
    rounds: int = 2

    def __post_init__(self):
        if isinstance(self.injection, dict):
            object.__setattr__(self, "injection", InjectionConfig(**self.injection))

    def validate(self, models: ModelBundle):
        """Check every key; with a tapped temporal model, also the block's injection."""
        sched_i, sched_v = models.spatial_schedule, models.temporal_schedule
        if not 1 <= self.t_T2V <= self.t_I <= sched_i.total_steps:
            raise ParameterError(
                f"need 1 <= t_T2V <= t_I <= {sched_i.total_steps}, "
                f"got t_T2V={self.t_T2V}, t_I={self.t_I}"
            )
        if not 1 <= self.n_V <= self.t_V <= sched_v.total_steps:
            raise ParameterError(
                f"need 1 <= n_V <= t_V <= {sched_v.total_steps}, "
                f"got n_V={self.n_V}, t_V={self.t_V}"
            )
        if self.block_mode not in (BLOCK_SDEDIT, BLOCK_INVERSION_SFI):
            raise ParameterError(f"unknown block_mode {self.block_mode!r}")
        if self.rounds < 1:
            raise ParameterError(f"need rounds >= 1, got rounds={self.rounds}")
        if self.block_mode != BLOCK_INVERSION_SFI or not getattr(models.temporal, "has_taps", False):
            return
        if self.injection is None:
            raise ParameterError("block_mode inversion+sfi requires an injection config")
        unknown = sorted(set(self.injection.layers) - set(range(models.temporal.blocks)))
        if unknown:
            raise InjectionError(
                f"injection layers {unknown} outside the net's blocks 0..{models.temporal.blocks - 1}"
            )


@dataclass(frozen=True)
class PipelineResult:
    output: np.ndarray
    nfe_t2i: int
    nfe_t2v: int
    wall_time: float
    stage_log: tuple


class _Run:
    """Tracks counters, wall time, and the stage log for one pipeline run."""

    def __init__(self, models: ModelBundle):
        self.models = models
        self._start = time.perf_counter()
        self._evals0 = (models.spatial.num_evals, models.temporal.num_evals)
        self.stages: list[tuple[str, tuple[int, int]]] = []

    def log(self, name: str, t_from: int, t_to: int):
        self.stages.append((name, (t_from, t_to)))

    def finish(self, output: np.ndarray) -> PipelineResult:
        return PipelineResult(
            output=output,
            nfe_t2i=self.models.spatial.num_evals - self._evals0[0],
            nfe_t2v=self.models.temporal.num_evals - self._evals0[1],
            wall_time=time.perf_counter() - self._start,
            stage_log=tuple(self.stages),
        )


def _refine_stages(z, stages, models: ModelBundle, c, rng) -> PipelineResult:
    """One pipeline run of full-depth stages: each ``("t2i" | "t2v", t_noise)``, in
    order, noises its input to ``t_noise`` on its model's schedule and denoises to clean."""
    run = _Run(models)
    for name, t_noise in stages:
        if name == "t2i":
            model, sched = models.spatial, models.spatial_schedule
        else:
            model, sched = models.temporal, models.temporal_schedule
        _, z = sdedit_refine(z, t_noise, 0, model, c, sched, rng)
        run.log(name, t_noise, 0)
    return run.finish(z)


def _nonzero(*stages):
    return [stage for stage in stages if stage[1] > 0]


def run_t2i_only(
    z0, t_i: int, models: ModelBundle, c: Condition | None, rng: np.random.Generator
) -> PipelineResult:
    """Frame-wise refinement: noise to ``t_i`` on the spatial schedule, denoise to 0."""
    return _refine_stages(z0, [("t2i", t_i)], models, c, rng)


def run_t2v_only(
    z0, t_v: int, models: ModelBundle, c: Condition | None, rng: np.random.Generator
) -> PipelineResult:
    """Sequence-wise refinement on the temporal schedule."""
    return _refine_stages(z0, [("t2v", t_v)], models, c, rng)


def compose_vi(
    z0, t_v: int, t_i: int, models: ModelBundle, c, rng: np.random.Generator
) -> PipelineResult:
    """Temporal refinement to clean, then frame-wise refinement (zero stages omitted)."""
    return _refine_stages(z0, _nonzero(("t2v", t_v), ("t2i", t_i)), models, c, rng)


def compose_iv(
    z0, t_i: int, t_v: int, models: ModelBundle, c, rng: np.random.Generator
) -> PipelineResult:
    """Frame-wise refinement to clean, then temporal refinement (zero stages omitted)."""
    return _refine_stages(z0, _nonzero(("t2i", t_i), ("t2v", t_v)), models, c, rng)


def _temporal_block(bridge, cfg: PipelineConfig, models: ModelBundle, c, rng, run: _Run):
    """One encapsulated temporal stage acting on a clean bridge latent."""
    sched_v = models.temporal_schedule
    if cfg.block_mode == BLOCK_SDEDIT:
        _, clean = sdedit_refine(bridge, cfg.t_V, cfg.t_V - cfg.n_V, models.temporal, c, sched_v, rng)
        run.log("t2v:sdedit", cfg.t_V, cfg.t_V - cfg.n_V)
        return clean
    if not getattr(models.temporal, "has_taps", False):
        raise CapabilityError("inversion+sfi block requires a temporal model with taps")
    # The cache stores only the features the one injection walk below reads.
    keep = injection_keys(cfg.t_V, cfg.n_V, cfg.injection)
    z_tv, cache = invert_with_capture(bridge, cfg.t_V, models.temporal, c, sched_v, keep=keep)
    run.log("t2v:invert", 0, cfg.t_V)
    _, clean = denoise_with_injection(
        z_tv, cfg.t_V, cfg.n_V, models.temporal, c, sched_v, cache, cfg.injection
    )
    run.log("t2v:inject", cfg.t_V, cfg.t_V - cfg.n_V)
    return clean


def run_evs(
    z0, cfg: PipelineConfig, models: ModelBundle, c: Condition | None, seed: int
) -> PipelineResult:
    """The encapsulated pipeline: spatial refinement with one temporal block inside.

    Noise to ``t_I``; reverse spatial steps down to ``t_T2V``; hand the
    predicted clean latent to the temporal block; re-noise the block output
    to ``t_T2V`` with a fresh draw; finish the spatial reverse steps.  When
    ``t_T2V == t_I`` the leading walk is empty, and the block receives the
    one-shot spatial prediction at ``t_I`` instead, so the temporal model
    never sees the raw input.  ``seed`` keys the noise draws.
    """
    cfg.validate(models)
    rng = np.random.default_rng(np.random.SeedSequence([0x45565321, seed]))
    sched_i = models.spatial_schedule
    run = _Run(models)

    z = forward_noise(z0, cfg.t_I, rng.standard_normal(np.shape(z0)), sched_i)
    if cfg.t_T2V < cfg.t_I:
        _, bridge = ddim_sample(z, cfg.t_I, cfg.t_T2V, models.spatial, c, sched_i)
    else:
        bridge = predict_clean(z, cfg.t_I, models.spatial.evaluate(z, cfg.t_I, c), sched_i)
    run.log("t2i", cfg.t_I, cfg.t_T2V)

    block_clean = _temporal_block(bridge, cfg, models, c, rng, run)

    z = forward_noise(block_clean, cfg.t_T2V, rng.standard_normal(np.shape(z0)), sched_i)
    run.log("renoise", cfg.t_T2V, cfg.t_T2V)
    _, clean = ddim_sample(z, cfg.t_T2V, 0, models.spatial, c, sched_i)
    run.log("t2i", cfg.t_T2V, 0)
    return run.finish(clean)


def iterated_stages(rounds: int, t_i: int, t_v: int) -> list[tuple[str, int]]:
    """The iterated baseline's full-depth stages, ``(model, t_noise)`` in order.

    Stages alternate spatial-then-temporal and temporal-then-spatial rounds;
    an odd round count gets a trailing full spatial stage so the sequence
    always ends frame-refined.  A stage costs ``t_noise`` evaluations, so the
    baseline costs rounds*(t_i+t_v), plus t_i when rounds is odd.
    """
    if rounds < 1:
        raise ParameterError(f"rounds must be >= 1, got {rounds}")
    iv = _nonzero(("t2i", t_i), ("t2v", t_v))
    vi = _nonzero(("t2v", t_v), ("t2i", t_i))
    stages = [stage for r in range(rounds) for stage in (vi if r % 2 else iv)]
    if rounds % 2 == 1:
        stages.append(("t2i", t_i))
    return stages


def run_iterated_baseline(
    z0, rounds: int, t_i: int, t_v: int, models: ModelBundle, c, rng: np.random.Generator
) -> PipelineResult:
    """Full-depth alternation baseline used as the inference-cost denominator."""
    return _refine_stages(z0, iterated_stages(rounds, t_i, t_v), models, c, rng)
