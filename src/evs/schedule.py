"""Noise schedules and the closed-form forward (noising) process.

A schedule holds the cumulative signal-retention coefficients ``alpha_bar``
indexed ``0..T``, with ``alpha_bar[0] == 1`` exactly so that timestep 0 is the
identity noising level.  Two denoisers never share a schedule in this lab: the
frame-wise (spatial) model runs a long, gentle schedule and the sequence-wise
(temporal) model a short, aggressive one, which keeps their intermediate noisy
latents mutually incompatible by construction.  Their lengths and noise rates
are code (``models.SPATIAL_SCHEDULE`` and ``models.TEMPORAL_SCHEDULE``), which
``config.build_lab`` turns into the two schedules.

Video latents throughout the package are plain float64 arrays of shape
``(frames, dim)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError


def check_integer(name: str, x, least: int, most: int | float = np.inf) -> int:
    """``x`` as an int, refused unless it is an integer (not a bool) in
    ``[least, most]``: a level, a mode or a count is never rounded to another."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)) or not least <= x <= most:
        raise ParameterError(f"{name} {x!r} is not an integer in [{least}, {most}]")
    return int(x)


@dataclass(frozen=True)
class NoiseSchedule:
    """Cumulative alpha-bar coefficients for one diffusion model.

    ``alpha_bar`` has length ``total_steps + 1``; entry ``t`` scales the clean
    signal at noising level ``t``.  ``sqrt_ab`` and ``sqrt_1m_ab`` are the
    read-only tables sqrt(alpha_bar) and sqrt(1 - alpha_bar), which steps index.
    """

    total_steps: int
    alpha_bar: np.ndarray

    def __post_init__(self):
        ab = np.array(self.alpha_bar, dtype=np.float64)  # a copy: the caller's stays writable
        if self.total_steps < 1:
            raise ParameterError(f"total_steps must be >= 1, got {self.total_steps}")
        if ab.shape != (self.total_steps + 1,):
            raise ShapeError(
                f"alpha_bar must have length {self.total_steps + 1}, got {ab.shape}"
            )
        if ab[0] != 1.0:
            raise ParameterError("alpha_bar[0] must be exactly 1")
        if np.any(np.diff(ab) >= 0):
            raise ParameterError("alpha_bar must be strictly decreasing")
        if ab[-1] <= 0.0 or np.any(ab > 1.0):
            raise ParameterError("alpha_bar must lie in (0, 1]")
        tables = {"alpha_bar": ab, "sqrt_ab": np.sqrt(ab), "sqrt_1m_ab": np.sqrt(1.0 - ab)}
        for name, table in tables.items():
            table.flags.writeable = False
            object.__setattr__(self, name, table)

    def check_timestep(self, t: int, minimum: int = 0) -> int:
        """``t`` as a level of this schedule, at least ``minimum`` (see ``check_integer``)."""
        return check_integer("timestep", t, minimum, self.total_steps)


def build_linear_beta(total_steps: int, beta_start: float, beta_end: float) -> NoiseSchedule:
    """Schedule with per-step noise rates linearly spaced in [beta_start, beta_end]."""
    if total_steps < 1:
        raise ParameterError(f"total_steps must be >= 1, got {total_steps}")
    if not (0.0 < beta_start <= beta_end < 1.0):
        raise ParameterError(
            f"need 0 < beta_start <= beta_end < 1, got [{beta_start}, {beta_end}]"
        )
    betas = np.linspace(beta_start, beta_end, total_steps, dtype=np.float64)
    alpha_bar = np.concatenate([[1.0], np.cumprod(1.0 - betas)])
    return NoiseSchedule(total_steps=total_steps, alpha_bar=alpha_bar)


def forward_noise(
    z0: np.ndarray, t: int, eps: np.ndarray, sched: NoiseSchedule
) -> np.ndarray:
    """Noise a clean latent to level ``t``: sqrt(ab)*z0 + sqrt(1-ab)*eps."""
    z0 = np.asarray(z0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if z0.shape != eps.shape:
        raise ShapeError(f"latent shape {z0.shape} != noise shape {eps.shape}")
    t = sched.check_timestep(t)
    return sched.sqrt_ab[t] * z0 + sched.sqrt_1m_ab[t] * eps

