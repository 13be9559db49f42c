"""Desk-scale lab for composing a frame-wise and a sequence-wise diffusion
denoiser in latent space: schedules, deterministic sampling and inversion,
analytic toy worlds, selective feature injection, pipeline composition,
metrics, and a reproducible benchmark harness."""

from .compose import (
    ModelBundle,
    PipelineConfig,
    PipelineResult,
    compose_iv,
    compose_vi,
    run_evs,
    run_iterated_baseline,
    run_t2i_only,
    run_t2v_only,
)
from .diffusion import RefineOutput, ddim_invert, ddim_sample, ddim_step, predict_clean, sdedit_refine
from .metrics import (
    MetricConfig,
    MetricReport,
    imaging_quality,
    motion_smoothness,
    overall_score,
    psnr,
    subject_consistency,
)
from .models import (
    AnalyticDenoiser,
    Condition,
    Denoiser,
    SpatialWorld,
    TemporalWorld,
    ToyAttentionDenoiser,
    TrainRecipe,
    default_worlds,
    gmm_posterior_eps,
    make_degraded_video,
    sample_world,
    train_toy_denoiser,
)
from .schedule import NoiseSchedule, build_linear_beta, forward_noise, strength_to_timestep
from .sfi import (
    FeatureCache,
    InjectionConfig,
    blended_attention,
    denoise_with_injection,
    invert_with_capture,
)

__version__ = "0.1.0"
