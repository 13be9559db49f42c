"""Desk-scale video quality metrics and score aggregation.

Motion smoothness penalizes the error between each frame and the linear
interpolation of its neighbours; subject consistency is mean-centered cosine
similarity across frames; imaging quality is log-density under the sharp
spatial mixture, affinely rescaled.  The overall score averages normalized
channels over declared ranges.  Each function takes its constants as
arguments; ``score_video`` passes the module constants below, which fix the
suite's definition, so scores compare across runs.  A mean is written as a sum
over a count: that is how ``np.mean`` computes it, bit for bit, without its
wrapper's cost on these small arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import ParameterError, ShapeError
from .models import SpatialWorld, spatial_log_density

PSNR_CAP = 99.0

TAU = 0.05
IQ_OFFSET = -3000.0
IQ_SCALE = 30.0
PSNR_PEAK = 2.0  # the full latent dynamic range: mode means sit at +/-1
RANGES = {
    "ms": (0.5, 1.0),
    "sc": (0.5, 1.0),
    "iq": (60.0, 100.0),
    "psnr": (0.0, 60.0),
}
# Two imaging-quality channels mirror having two frame-quality scores; a
# fidelity channel would reward refusing to refine, so it stays out of the
# overall.
OVERALL_CHANNELS = ("ms", "sc", "iq", "iq")


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
    err = ((v[1:-1] - interp) ** 2).sum(axis=1) / v.shape[1]
    return float(np.exp(-(err.sum() / len(err)) / tau))


def subject_consistency(v: np.ndarray) -> float:
    """Mean cosine similarity to the first frame and between neighbours; a
    frame that is zero once centred has similarity 0 to every frame."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 2 or v.shape[0] < 2:
        raise ParameterError(f"need at least 2 frames, got shape {v.shape}")
    centered = v - v.sum(axis=1, keepdims=True) / v.shape[1]
    norms = np.sqrt((centered * centered).sum(axis=1, keepdims=True))
    unit = np.divide(centered, norms, out=np.zeros_like(centered), where=norms > 0.0)
    to_first = unit[1:] @ unit[0]
    to_previous = (unit[:-1] * unit[1:]).sum(axis=1)
    return float((0.5 * (to_first + to_previous)).sum() / len(to_first))


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
    return float((logp.sum() / len(logp) - offset) / scale)


def psnr(a: np.ndarray, b: np.ndarray, peak: float) -> float:
    """10*log10(peak^2 / MSE), capped at 99 dB near-identical inputs."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch {a.shape} vs {b.shape}")
    if peak <= 0:
        raise ParameterError(f"peak must be positive, got {peak}")
    mse = float(((a - b) ** 2).sum() / a.size)
    if mse < peak**2 * 10 ** (-PSNR_CAP / 10.0):
        return PSNR_CAP
    # np.log10, not math.log10: the two differ in the last bit for some inputs.
    return 10.0 * float(np.log10(peak**2 / mse))


def normalize(x: float, lo: float, hi: float) -> float:
    if not lo < hi:
        raise ParameterError(f"need lo < hi, got ({lo}, {hi})")
    return min(max((x - lo) / (hi - lo), 0.0), 1.0)


def overall_score(values: dict, ranges: dict, channels: tuple) -> float:
    """Mean of ``channels`` after clamped normalization over their ``ranges``."""
    parts = [normalize(values[name], *ranges[name]) for name in channels]
    return sum(parts) / len(parts)


def score_video(
    output: np.ndarray,
    reference: np.ndarray,
    world: SpatialWorld,
    c: int | None,
) -> MetricReport:
    """Full metric report for one refined video against its input."""
    values = {
        "ms": motion_smoothness(output, TAU),
        "sc": subject_consistency(output),
        "iq": imaging_quality(output, world, c, IQ_OFFSET, IQ_SCALE),
        "psnr": psnr(output, reference, PSNR_PEAK),
    }
    return MetricReport(**values, overall=overall_score(values, RANGES, OVERALL_CHANNELS))
