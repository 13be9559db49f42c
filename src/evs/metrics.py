"""Desk-scale video quality metrics and score aggregation.

Motion smoothness penalizes the error between each frame and the linear
interpolation of its neighbours; subject consistency is mean-centered cosine
similarity across frames; imaging quality is log-density under the sharp
spatial mixture, affinely rescaled by config constants, which every metric
requires and ``MetricConfig`` alone defaults.  The overall score
averages normalized channels whose ranges are declared up front and recorded
with every run, so aggregate numbers are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ParameterError, ShapeError
from .models import SpatialWorld, spatial_log_density

PSNR_CAP = 99.0

DEFAULT_RANGES = {
    "ms": (0.5, 1.0),
    "sc": (0.5, 1.0),
    "iq": (60.0, 100.0),
    "psnr": (0.0, 60.0),
}
# Two imaging-quality channels mirror having two frame-quality scores; a
# fidelity channel would reward refusing to refine, so it stays out of the
# default overall.
DEFAULT_OVERALL_CHANNELS = ("ms", "sc", "iq", "iq")


@dataclass(frozen=True)
class MetricConfig:
    """Constants behind the metric suite; recorded in every run manifest.

    ``psnr_peak`` is the full latent dynamic range (mode means sit at +/-1).
    """

    tau: float = 0.05
    iq_offset: float = -3000.0
    iq_scale: float = 30.0
    psnr_peak: float = 2.0
    ranges: dict = field(default_factory=lambda: dict(DEFAULT_RANGES))
    overall_channels: tuple = DEFAULT_OVERALL_CHANNELS

    def __post_init__(self):
        # The config section gives JSON lists; hold tuples like the defaults.
        object.__setattr__(self, "ranges", {k: tuple(v) for k, v in self.ranges.items()})
        object.__setattr__(self, "overall_channels", tuple(self.overall_channels))
        for name in ("tau", "iq_scale", "psnr_peak"):
            if not getattr(self, name) > 0:
                raise ParameterError(f"{name} must be positive, got {getattr(self, name)}")
        for name, bounds in self.ranges.items():
            if len(bounds) != 2 or not bounds[0] < bounds[1]:
                raise ParameterError(f"range {name} must be a pair lo < hi, got {list(bounds)}")
        if not self.overall_channels or not set(self.overall_channels) <= set(self.ranges):
            raise ParameterError(
                f"overall_channels {list(self.overall_channels)} must name one or more "
                f"channels of ranges {sorted(self.ranges)}"
            )


@dataclass(frozen=True)
class MetricReport:
    ms: float
    sc: float
    iq: float
    psnr: float
    overall: float


# The metric names, in report order: the run CSV's and manifest rows' metric columns.
METRICS = tuple(f.name for f in fields(MetricReport))


def motion_smoothness(v: np.ndarray, tau: float) -> float:
    """exp(-mean interpolation error / tau); 1 for constant or linear motion."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 2 or v.shape[0] < 3:
        raise ParameterError(f"need at least 3 frames, got shape {v.shape}")
    interp = 0.5 * (v[:-2] + v[2:])
    err = np.mean((v[1:-1] - interp) ** 2, axis=1)
    return float(np.exp(-err.mean() / tau))


def subject_consistency(v: np.ndarray) -> float:
    """Mean cosine similarity to the first frame and between neighbours; a
    frame that is zero once centred has similarity 0 to every frame."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 2 or v.shape[0] < 2:
        raise ParameterError(f"need at least 2 frames, got shape {v.shape}")
    centered = v - v.mean(axis=1, keepdims=True)
    norms = np.linalg.norm(centered, axis=1, keepdims=True)
    unit = np.divide(centered, norms, out=np.zeros_like(centered), where=norms > 0.0)
    to_first = unit[1:] @ unit[0]
    to_previous = (unit[:-1] * unit[1:]).sum(axis=1)
    return float(np.mean(0.5 * (to_first + to_previous)))


def imaging_quality(
    v: np.ndarray,
    world: SpatialWorld,
    c: int | None,
    offset: float,
    scale: float,
) -> float:
    """Mean per-frame log-density under the sharp mixture, affinely rescaled."""
    if scale <= 0:
        raise ParameterError(f"scale must be positive, got {scale}")
    logp = spatial_log_density(v, world, c)
    return float((logp.mean() - offset) / scale)


def psnr(a: np.ndarray, b: np.ndarray, peak: float) -> float:
    """10*log10(peak^2 / MSE), capped at 99 dB near-identical inputs."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch {a.shape} vs {b.shape}")
    if peak <= 0:
        raise ParameterError(f"peak must be positive, got {peak}")
    mse = float(np.mean((a - b) ** 2))
    if mse < peak**2 * 10 ** (-PSNR_CAP / 10.0):
        return PSNR_CAP
    # np.log10, not math.log10: the two differ in the last bit for some inputs.
    return 10.0 * float(np.log10(peak**2 / mse))


def normalize(x: float, lo: float, hi: float) -> float:
    if not lo < hi:
        raise ParameterError(f"need lo < hi, got ({lo}, {hi})")
    return min(max((x - lo) / (hi - lo), 0.0), 1.0)


def overall_score(values: dict, cfg: MetricConfig) -> float:
    """Mean of the declared channels after clamped range normalization."""
    parts = [normalize(values[name], *cfg.ranges[name]) for name in cfg.overall_channels]
    return sum(parts) / len(parts)


def score_video(
    output: np.ndarray,
    reference: np.ndarray,
    world: SpatialWorld,
    c: int | None,
    cfg: MetricConfig,
) -> MetricReport:
    """Full metric report for one refined video against its input."""
    values = {
        "ms": motion_smoothness(output, cfg.tau),
        "sc": subject_consistency(output),
        "iq": imaging_quality(output, world, c, cfg.iq_offset, cfg.iq_scale),
        "psnr": psnr(output, reference, cfg.psnr_peak),
    }
    return MetricReport(**values, overall=overall_score(values, cfg))
