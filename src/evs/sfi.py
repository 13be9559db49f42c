"""Inversion-time feature capture and selective feature injection.

During deterministic inversion the attention denoiser's taps record one
feature set per produced timestep.  During the subsequent reverse steps those
keys/values (and with ``inject_f`` the feature map) replace the runtime ones
at configured layers, and the runtime query is blended with the recorded one,
so the recorded spatial content is preserved while everything not injected
is free to follow the model's prior.  A forward injects or captures, not both.

The cache is write-once during inversion and read-only afterwards; entries
are stored as non-writeable arrays, so injection can never alter a recording.
A cache built with ``keep`` stores only those keys: the encapsulated
pipeline's block keeps just the ``injection_keys`` its one injection walk
reads, while a cache that serves several operating points keeps everything.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .diffusion import _walk, ddim_invert
from .errors import InjectionError, ParameterError, ShapeError
from .schedule import check_integer

# Block-index convention for the 4-block toy net.
SHALLOW_LAYERS = frozenset({0, 1})
DEEP_LAYERS = frozenset({2, 3})
ALL_LAYERS = frozenset({0, 1, 2, 3})

KINDS = ("f", "Q", "K", "V")


class FeatureCache:
    """Map from (timestep, layer, kind) to recorded feature arrays.

    With ``keep`` (a set of keys) only those keys are stored; every other
    ``put`` is still checked for a duplicate and then dropped.
    """

    def __init__(self, keep=None):
        self._keep = None if keep is None else frozenset(keep)
        self._seen: set[tuple[int, int, str]] = set()
        self._entries: dict[tuple[int, int, str], np.ndarray] = {}

    def put(self, t: int, layer: int, kind: str, value: np.ndarray):
        key = (int(t), int(layer), kind)
        if key in self._seen:
            raise InjectionError(f"feature already recorded for {key}")
        self._seen.add(key)
        if self._keep is not None and key not in self._keep:
            return
        arr = np.array(value, dtype=np.float64)
        arr.flags.writeable = False
        self._entries[key] = arr

    def get(self, t: int, layer: int, kind: str) -> np.ndarray:
        try:
            return self._entries[(int(t), int(layer), kind)]
        except KeyError:
            raise InjectionError(
                f"missing inversion feature (t={t}, layer={layer}, kind={kind})"
            ) from None

    def __len__(self) -> int:
        return len(self._entries)


@dataclass(frozen=True)
class InjectionConfig:
    """Which layers receive recorded features and how strongly.

    Each configured layer takes its recorded keys/values, and ``gamma``
    blends the recorded query into the runtime one; ``inject_f`` also
    replaces the layer's feature map.  The selective operating points keep
    ``inject_f`` off: replacing both paths of a block pins its output
    entirely, so feature-map injection is reserved for the
    maximum-reconstruction extreme.
    """

    layers: frozenset[int] = field(default_factory=frozenset)
    gamma: float = 1.0
    inject_f: bool = False

    def __post_init__(self):
        object.__setattr__(self, "layers", frozenset(self.layers))
        if not 0.0 <= self.gamma <= 1.0:
            raise ParameterError(f"gamma must be in [0, 1], got {self.gamma}")


def softmax_rows(s: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, shifted by the row maximum."""
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def blended_attention(q, q_inv, k_inv, v_inv, gamma: float) -> np.ndarray:
    """Attention with recorded keys/values and a gamma-blended query.

    softmax((gamma*q_inv + (1-gamma)*q) @ k_inv^T / sqrt(d)) @ v_inv.
    """
    q, q_inv, k_inv, v_inv = (np.asarray(a, dtype=np.float64) for a in (q, q_inv, k_inv, v_inv))
    if not (q.shape == q_inv.shape == k_inv.shape == v_inv.shape):
        raise ShapeError(
            f"attention shapes disagree: {q.shape}, {q_inv.shape}, {k_inv.shape}, {v_inv.shape}"
        )
    if not 0.0 <= gamma <= 1.0:
        raise ParameterError(f"gamma must be in [0, 1], got {gamma}")
    blended = gamma * q_inv + (1.0 - gamma) * q
    return softmax_rows(blended @ k_inv.T / np.sqrt(q.shape[-1])) @ v_inv


def invert_with_capture(z0, t_target, model, c, sched, keep=None):
    """Invert while recording tap features; returns (latent, cache).

    ``keep`` limits the stored features to those keys (see ``FeatureCache``).
    """
    cache = FeatureCache(keep)
    return ddim_invert(z0, t_target, model, c, sched, capture=cache), cache


def injection_keys(t_v: int, n_v: int, cfg: InjectionConfig) -> frozenset:
    """The ``(t, layer, kind)`` keys that ``denoise_with_injection`` reads."""
    n_v = check_integer("n_v", n_v, 1, t_v)
    kinds = (("f",) if cfg.inject_f else ()) + ("Q", "K", "V")
    return frozenset(
        (t, layer, kind)
        for t in range(t_v, t_v - n_v, -1)
        for layer in cfg.layers
        for kind in kinds
    )


def denoise_with_injection(
    z_tv, t_v, n_v, model, c, sched, cache: FeatureCache, cfg: InjectionConfig
):
    """Run ``n_v`` reverse steps with feature injection at every model call.

    The cache must cover timesteps ``t_v .. t_v - n_v + 1``.  Returns the
    latent at ``t_v - n_v`` and the clean latent predicted by the final step.
    """
    t_v = sched.check_timestep(t_v, minimum=1)
    n_v = check_integer("n_v", n_v, 1, t_v)
    return _walk(
        z_tv, [(t, t - 1) for t in range(t_v, t_v - n_v, -1)],
        lambda z, t: model.forward(z, t, c, injection=(cache, cfg)), sched,
    )
