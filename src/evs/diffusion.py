"""Deterministic DDIM sampling, inversion, and the noising-denoising refiner.

All reverse steps are fully deterministic (no injected stochasticity) and walk
consecutive integer timesteps on their schedule, one denoiser evaluation per
step; the denoiser's ``num_evals`` counts them.

Descending from ``t_from`` to ``t_to`` executes steps ``t_from .. t_to+1``, so
a walk returns the pair ``(latent at t_to, clean-latent prediction of the
final executed step)``; inversion returns the latent alone.
"""

from __future__ import annotations

import numpy as np

from .errors import CapabilityError, NumericError, ParameterError
from .schedule import NoiseSchedule, forward_noise


def predict_clean(
    z_t: np.ndarray, t: int, eps_hat: np.ndarray, sched: NoiseSchedule
) -> np.ndarray:
    """One-shot clean-latent estimate from a noisy latent and predicted noise."""
    t = sched.check_timestep(t, minimum=1)
    return _descend(z_t, t, t, eps_hat, sched)[1]


def _descend(z_t, t, t_next, eps, sched):
    # One DDIM update from level t to t_next given the predicted noise; the
    # same algebra walks down (sampling) and up (inversion).
    pred_clean = (z_t - sched.sqrt_1m_ab[t] * eps) / sched.sqrt_ab[t]
    z_next = sched.sqrt_ab[t_next] * pred_clean + sched.sqrt_1m_ab[t_next] * eps
    return z_next, pred_clean


def _walk(z, steps, eps_at, sched: NoiseSchedule):
    """Apply the DDIM update over ``steps``, a sequence of ``(t, t_next)`` pairs.

    ``eps_at(z, t)`` is the noise prediction at level ``t``.  Returns the
    final latent and the clean-latent prediction of the last step.
    """
    pred_clean = None
    for t, t_next in steps:
        eps = eps_at(z, t)
        if not np.isfinite(eps).all():
            raise NumericError(f"denoiser returned non-finite output at t={t}")
        z, pred_clean = _descend(z, t, t_next, eps, sched)
    return z, pred_clean


def ddim_sample(z_from, t_from, t_to, model, c, sched: NoiseSchedule):
    """Walk consecutive reverse steps from ``t_from`` down to ``t_to``."""
    t_from = sched.check_timestep(t_from, minimum=1)
    t_to = sched.check_timestep(t_to)
    if not t_to < t_from:
        raise ParameterError(f"need t_to < t_from, got t_to={t_to}, t_from={t_from}")
    return _walk(
        z_from, [(t, t - 1) for t in range(t_from, t_to, -1)],
        lambda z, t: model.evaluate(z, t, c), sched,
    )


def ddim_invert(z0, t_target, model, c, sched: NoiseSchedule, capture=None):
    """Deterministically encode a clean latent up to noising level ``t_target``.

    Runs the reversed recurrence from level 0 upward, one denoiser evaluation
    per level.  When ``capture`` (a FeatureCache) is supplied, the model's taps
    record features under the timestep being produced, which is the key the
    matching reverse step will ask for.  Returns the latent at ``t_target``.
    """
    t_target = sched.check_timestep(t_target, minimum=1)
    if capture is not None and not getattr(model, "has_taps", False):
        raise CapabilityError("feature capture requested but model has no taps")

    def eps_at(z, t):
        if capture is None:
            return model.evaluate(z, t, c)
        return model.forward(z, t, c, capture=capture, capture_key=t + 1)

    return _walk(z0, [(t, t + 1) for t in range(t_target)], eps_at, sched)[0]


def sdedit_refine(
    z0, t_noise, t_end, model, c, sched: NoiseSchedule, rng: np.random.Generator
):
    """Noise a clean latent to ``t_noise`` with a fresh draw, then denoise to ``t_end``.

    Pulls out-of-distribution inputs toward the model's prior; the refinement
    strength is ``t_noise / total_steps``.  The walk takes at least one step:
    at ``t_end == t_noise`` it is the one step ``(t_noise, t_noise)``, whose
    clean prediction is ``predict_clean``'s.
    """
    t_noise = sched.check_timestep(t_noise, minimum=1)
    if not 0 <= t_end <= t_noise:
        raise ParameterError(f"need 0 <= t_end <= t_noise, got {t_end}, {t_noise}")
    eps = rng.standard_normal(np.shape(z0))
    z_noisy = forward_noise(z0, t_noise, eps, sched)
    steps = [(t, t - 1) for t in range(t_noise, t_end, -1)] or [(t_noise, t_noise)]
    return _walk(z_noisy, steps, lambda z, t: model.evaluate(z, t, c), sched)
