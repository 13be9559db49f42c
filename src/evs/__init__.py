"""Desk-scale lab for composing a frame-wise and a sequence-wise diffusion
denoiser in latent space: schedules, deterministic sampling and inversion,
analytic toy worlds, selective feature injection, pipeline composition,
metrics, and a reproducible benchmark harness."""

from .io import TOOL_VERSION as __version__
