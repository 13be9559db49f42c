"""Pipeline orchestration for the two-model refinement lab.

The only latent ever handed from one model's domain to the other is a
predicted clean latent: noisy latents are meaningless under the other
schedule.  Every pipeline is a plan, a list of stages that ``PLANS`` builds
from a ``PipelineConfig``; one loop, ``_refine_stages``, runs a plan and
``stage_nfe`` prices it before it runs.  A run manifest records the plan
once, so a result carries only its output and counted NFE.  The six entry
points share one signature ``(z0, p, models, c, rng)`` and are each one call
into the loop; they stay separate functions because the benchmark's tracer
wraps them by name.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .diffusion import sdedit_refine
from .errors import CapabilityError, InjectionError, ParameterError
from .models import Denoiser
from .schedule import NoiseSchedule
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
        if not self.injection.layers or not (self.injection.inject_f or self.injection.inject_kv):
            # Such a block would inject nothing and ignore gamma.
            raise ParameterError("block_mode inversion+sfi requires an injection that reads a "
                                 "feature: one or more layers, and inject_f or inject_kv true")
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


def _refine_stages(z, stages, models: ModelBundle, c, rng, injection=None) -> PipelineResult:
    """Run the plan ``stages`` on ``z``, one stage after another.

    A stage ``(name, t_noise, t_end)`` maps a clean latent to a clean latent:
    one draw noises it to ``t_noise`` on the schedule of ``name``'s model
    (``t2i`` / ``t2v``), and ``sdedit_refine`` walks down to ``t_end``.  The
    other kind, ``t2v:sfi``, inverts to ``t_noise`` and walks back with injection.
    """
    start = time.perf_counter()
    evals0 = (models.spatial.num_evals, models.temporal.num_evals)
    sched_v = models.temporal_schedule
    for name, t_noise, t_end in stages:
        if name == "t2v:sfi":
            if not getattr(models.temporal, "has_taps", False):
                raise CapabilityError("inversion+sfi block requires a temporal model with taps")
            n_v = t_noise - t_end
            # The cache stores only the features the one injection walk below reads.
            keep = injection_keys(t_noise, n_v, injection)
            z, cache = invert_with_capture(z, t_noise, models.temporal, c, sched_v, keep=keep)
            _, z = denoise_with_injection(z, t_noise, n_v, models.temporal, c, sched_v, cache, injection)
        elif name.startswith("t2i"):
            _, z = sdedit_refine(z, t_noise, t_end, models.spatial, c, models.spatial_schedule, rng)
        else:
            _, z = sdedit_refine(z, t_noise, t_end, models.temporal, c, sched_v, rng)
    return PipelineResult(
        output=z,
        nfe_t2i=models.spatial.num_evals - evals0[0],
        nfe_t2v=models.temporal.num_evals - evals0[1],
        wall_time=time.perf_counter() - start,
    )


def stage_nfe(stages) -> tuple[int, int]:
    """The ``(spatial, temporal)`` evaluations that the plan ``stages`` costs.

    A walk takes ``t_noise - t_end`` steps, and at least one; ``t2v:sfi``
    also inverts through ``t_noise`` levels.
    """
    nfe = {"t2i": 0, "t2v": 0}
    for name, t_noise, t_end in stages:
        nfe[name[:3]] += max(t_noise - t_end, 1) + (t_noise if name == "t2v:sfi" else 0)
    return nfe["t2i"], nfe["t2v"]


def _iterated_plan(p: PipelineConfig) -> list[tuple[str, int, int]]:
    """The iterated baseline's full-depth stages: spatial-then-temporal and
    temporal-then-spatial rounds alternate, and an odd round count gets a
    trailing spatial stage so the sequence always ends frame-refined.  It
    costs rounds*(t_I+t_V), plus t_I when rounds is odd (see ``stage_nfe``).
    """
    if p.rounds < 1:
        raise ParameterError(f"need rounds >= 1, got rounds={p.rounds}")
    iv = [("t2i", p.t_I, 0), ("t2v", p.t_V, 0)]
    return [stage for r in range(p.rounds) for stage in (iv[::-1] if r % 2 else iv)] + iv[:p.rounds % 2]


# Each pipeline's plan of stages, by name.  At ``t_T2V == t_I`` the leading
# stage of ``evs`` takes one step, so its block receives the one-shot spatial
# prediction at ``t_I``; its trailing spatial stage's draw re-noises the block output.
PLANS = {
    "t2i": lambda p: [("t2i", p.t_I, 0)],
    "t2v": lambda p: [("t2v", p.t_V, 0)],
    "iv": lambda p: [("t2i", p.t_I, 0), ("t2v", p.t_V, 0)],
    "vi": lambda p: [("t2v", p.t_V, 0), ("t2i", p.t_I, 0)],
    "evs": lambda p: [
        ("t2i", p.t_I, p.t_T2V),
        ("t2v:sdedit" if p.block_mode == BLOCK_SDEDIT else "t2v:sfi", p.t_V, p.t_V - p.n_V),
        ("t2i", p.t_T2V, 0),
    ],
    "iterated": _iterated_plan,
}
PIPELINES = tuple(PLANS)


def run_t2i_only(z0, p: PipelineConfig, models: ModelBundle, c: int | None,
                 rng: np.random.Generator) -> PipelineResult:
    """Frame-wise refinement: noise to ``t_I`` on the spatial schedule, denoise to 0."""
    return _refine_stages(z0, PLANS["t2i"](p), models, c, rng)


def run_t2v_only(z0, p: PipelineConfig, models: ModelBundle, c: int | None,
                 rng: np.random.Generator) -> PipelineResult:
    """Sequence-wise refinement from ``t_V`` on the temporal schedule."""
    return _refine_stages(z0, PLANS["t2v"](p), models, c, rng)


def compose_iv(z0, p: PipelineConfig, models: ModelBundle, c: int | None,
               rng: np.random.Generator) -> PipelineResult:
    """Frame-wise refinement to clean, then temporal refinement."""
    return _refine_stages(z0, PLANS["iv"](p), models, c, rng)


def compose_vi(z0, p: PipelineConfig, models: ModelBundle, c: int | None,
               rng: np.random.Generator) -> PipelineResult:
    """Temporal refinement to clean, then frame-wise refinement."""
    return _refine_stages(z0, PLANS["vi"](p), models, c, rng)


def run_evs(z0, p: PipelineConfig, models: ModelBundle, c: int | None,
            rng: np.random.Generator) -> PipelineResult:
    """The encapsulated pipeline: spatial steps from ``t_I`` down to ``t_T2V``,
    one temporal block of ``n_V`` steps from ``t_V``, then the spatial walk
    from ``t_T2V``; every key is checked first.
    """
    p.validate(models)
    return _refine_stages(z0, PLANS["evs"](p), models, c, rng, p.injection)


def run_iterated_baseline(z0, p: PipelineConfig, models: ModelBundle, c: int | None,
                          rng: np.random.Generator) -> PipelineResult:
    """Full-depth alternation baseline used as the inference-cost denominator."""
    return _refine_stages(z0, PLANS["iterated"](p), models, c, rng)
