"""Denoisers and the analytic toy worlds they act on.

Two latent-space "worlds" stand in for the priors of a frame-wise and a
sequence-wise generative model.  Both are an isotropic Gaussian mixture; the
private ``_Mixture`` base holds its means, weights and width and checks them
once for both:

* ``SpatialWorld`` — every frame independently drawn from a sharp isotropic
  Gaussian mixture.  Its posterior denoiser refines frames independently and
  is the imaging-quality reference.
* ``TemporalWorld`` — the same mixture modes with blurred means, tiled across
  frames and coupled by an AR(1) correlation.  Its posterior denoiser smooths
  across frames but knows nothing about sharp detail.

Both posterior denoisers are exact (conjugate-Gaussian algebra, log-space
responsibilities), so the rest of the package can be validated against
closed forms.  A third denoiser, ``ToyAttentionDenoiser``, is a small
self-attention network over frame tokens with feature taps, used by the
inversion-feature-injection machinery.  Its layers are written once, in
``_net_body`` over a stack of videos ``(B, F, D)``: a denoiser evaluation runs
it on a one-video stack with capture or injection, and training runs it on a
batch with a gradient tape for ``_batched_backward``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ParameterError, ShapeError, TrainingError
from .schedule import NoiseSchedule, check_integer
from .sfi import ALL_LAYERS, KINDS, blended_attention, softmax_rows

# The latent shape ``(FRAMES, DIM)`` of every video the two models take.
FRAMES = 16
DIM = 64
# The two toy worlds are fixed: their mixture, widths, frame coupling and seed.
MODES = 4
SIGMA_SPATIAL = 0.1
SIGMA_TEMPORAL = 0.3
RHO = 0.95
BLUR_WIDTH = 3
WORLD_SEED = 7
# The two noise schedules as (steps, beta_start, beta_end): the frame-wise
# model's long and gentle one, the sequence-wise model's short and aggressive one.
SPATIAL_SCHEDULE = (50, 1e-4, 0.02)
TEMPORAL_SCHEDULE = (8, 1e-4, 0.1)
# The per-frame jitter that ``evs gen`` adds to a degraded input.
FLICKER_SIGMA = 0.2


# ---------------------------------------------------------------------------
# Worlds
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class _Mixture:
    """The isotropic Gaussian mixture both worlds are built on."""

    means: np.ndarray  # (modes, dim)
    weights: np.ndarray  # (modes,)
    sigma: float

    def __post_init__(self):
        object.__setattr__(self, "means", np.asarray(self.means, dtype=np.float64))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=np.float64))
        if self.means.ndim != 2:
            raise ShapeError(f"means must be (modes, dim), got {self.means.shape}")
        if self.weights.shape != (self.modes,):
            raise ShapeError("weights must have one entry per mode")
        if np.any(self.weights <= 0) or not np.isclose(self.weights.sum(), 1.0):
            raise ParameterError("weights must be positive and sum to 1")
        if self.sigma <= 0:
            raise ParameterError(f"sigma must be positive, got {self.sigma}")

    @property
    def modes(self) -> int:
        return self.means.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]


@dataclass(frozen=True, eq=False)
class SpatialWorld(_Mixture):
    """Sharp per-frame mixture; frames are statistically independent."""

    frames: int = FRAMES


# Not a SpatialWorld subclass: an isinstance check on SpatialWorld must tell
# the two worlds apart.
@dataclass(frozen=True, eq=False)
class TemporalWorld(_Mixture):
    """Blurred mixture tiled across frames with AR(1) frame correlation.

    ``means`` are the already blurred mode means.
    """

    rho: float
    frames: int = FRAMES

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 <= self.rho < 1.0:
            raise ParameterError(f"rho must be in [0, 1), got {self.rho}")
        if self.frames < 1:
            raise ParameterError("frames must be >= 1")

    @cached_property
    def correlation(self) -> np.ndarray:
        return ar1_correlation(self.frames, self.rho)

    @cached_property
    def correlation_eig(self):
        lam, u = np.linalg.eigh(self.correlation)
        return lam, u

    @cached_property
    def correlation_chol(self) -> np.ndarray:
        return np.linalg.cholesky(self.correlation)


def ar1_correlation(frames: int, rho: float) -> np.ndarray:
    """Correlation matrix C[i, j] = rho^|i-j| (positive definite for rho < 1)."""
    idx = np.arange(frames)
    return rho ** np.abs(idx[:, None] - idx[None, :])


def blur_means(means: np.ndarray, width: int = BLUR_WIDTH) -> np.ndarray:
    """Moving average along the detail axis with reflect padding."""
    if width < 1 or width % 2 == 0:
        raise ParameterError(f"blur width must be odd and >= 1, got {width}")
    pad = width // 2
    padded = np.pad(np.asarray(means, dtype=np.float64), ((0, 0), (pad, pad)), mode="reflect")
    out = np.zeros_like(np.asarray(means, dtype=np.float64))
    for k in range(width):
        out += padded[:, k : k + means.shape[1]]
    return out / width


def default_worlds() -> tuple[SpatialWorld, TemporalWorld]:
    """Build the paired worlds: same modes, blurred and frame-coupled on one side.

    Mode means are Rademacher (+/-1) patterns, so the width-``BLUR_WIDTH``
    moving average removes a large share of their high-frequency energy and
    "sharp vs blurry" is structural, not a matter of tuning.
    """
    rng = np.random.default_rng(WORLD_SEED)
    means = rng.integers(0, 2, size=(MODES, DIM)).astype(np.float64) * 2.0 - 1.0
    weights = np.full(MODES, 1.0 / MODES)
    spatial = SpatialWorld(means=means, weights=weights, sigma=SIGMA_SPATIAL)
    temporal = TemporalWorld(means=blur_means(means), weights=weights, sigma=SIGMA_TEMPORAL, rho=RHO)
    return spatial, temporal


def _mode_of(c: int | None, modes: int) -> int | None:
    """The mode a condition restricts to: the condition is a mode index, or
    None for no condition.  Anything but an integer (a bool included) in
    0..modes-1 is refused."""
    return None if c is None else check_integer("mode_id", c, 0, modes - 1)


def sample_world(world, c: int | None, seed) -> np.ndarray:
    """Draw one video latent (frames, dim) from a world's mixture.

    One mode per video, mode ``c`` or, with ``c`` None, one drawn by the
    mixture weights; the temporal world draws jointly with its AR(1) frame
    coupling.
    """
    rng = np.random.default_rng(seed)
    k = _mode_of(c, world.modes)
    if k is None:
        k = int(rng.choice(world.modes, p=world.weights))
    eta = rng.standard_normal((world.frames, world.dim))
    if isinstance(world, TemporalWorld):
        noise = world.sigma * (world.correlation_chol @ eta)
    else:
        noise = world.sigma * eta
    return world.means[k][None, :] + noise


def make_degraded_video(
    world_t: TemporalWorld, c: int | None, flicker_sigma: float, seed
) -> np.ndarray:
    """Temporal-world sample plus independent per-frame jitter (flicker)."""
    if flicker_sigma < 0:
        raise ParameterError(f"flicker_sigma must be >= 0, got {flicker_sigma}")
    rng = np.random.default_rng(seed)
    z = sample_world(world_t, c, rng)
    return z + flicker_sigma * rng.standard_normal(z.shape)


# ---------------------------------------------------------------------------
# Analytic posterior denoisers
# ---------------------------------------------------------------------------


def gmm_posterior_eps(
    z_t: np.ndarray, t: int, world, c: int | None, sched: NoiseSchedule
) -> np.ndarray:
    """Optimal noise prediction under the world's mixture prior.

    This is the posterior-mean denoiser rearranged to predict noise.  With a
    mode ``c`` it is the restricted posterior of ``_restricted_eps``;
    without one the responsibilities are computed in log space.  At level 0
    the prediction is exactly zero (the noising map is the identity there).
    """
    z_t = np.asarray(z_t, dtype=np.float64)
    t = sched.check_timestep(t)
    restrict = _mode_of(c, world.modes)
    _check_latent(z_t, world)
    if restrict is not None:
        means, gain = _restricted_tables(world, sched, t)
        return _restricted_eps(z_t, means[restrict], gain)
    if isinstance(world, SpatialWorld):
        return _spatial_mixture_eps(z_t, t, world, sched)
    return _temporal_mixture_eps(z_t, t, world, sched)


def _check_latent(z_t, world):
    """Refuse a world of neither kind, and a latent of the wrong shape for it:
    the spatial world takes any number of frames, the temporal world its own."""
    if isinstance(world, SpatialWorld):
        if z_t.ndim != 2 or z_t.shape[1] != world.dim:
            raise ShapeError(f"latent must be (frames, {world.dim}), got {z_t.shape}")
    elif isinstance(world, TemporalWorld):
        if z_t.shape != (world.frames, world.dim):
            raise ShapeError(
                f"latent must be ({world.frames}, {world.dim}), got {z_t.shape}"
            )
    else:
        raise ParameterError(f"unsupported world type {type(world).__name__}")


def _restricted_tables(world, sched: NoiseSchedule, t):
    """The restricted posterior's terms at level ``t``, an int or a slice of levels.

    Returns the scaled mode means sqrt(ab_t)*mu_k, ``(K, D)`` per level, and
    the gain that maps a residual from one of them to the noise prediction:
    sqrt(1-ab_t) / (ab_t sigma^2 + 1 - ab_t) per level in the spatial world,
    and in the temporal world the ``(F, F)`` matrix sqrt(1-ab_t) times the
    inverse of each mode's frame covariance ab_t sigma^2 C + (1-ab_t) I.
    The inverse is taken directly: built through the eigenbasis of C, the
    gain was 8x further from an extended-precision solve near level 1.
    """
    ab = sched.alpha_bar[t]
    means = np.multiply.outer(sched.sqrt_ab[t], world.means)
    if isinstance(world, SpatialWorld):
        return means, sched.sqrt_1m_ab[t] / (ab * world.sigma**2 + (1.0 - ab))
    if isinstance(world, TemporalWorld):
        cov = (np.multiply.outer(ab * world.sigma**2, world.correlation)
               + np.multiply.outer(1.0 - ab, np.eye(world.frames)))
        return means, sched.sqrt_1m_ab[t][..., None, None] * np.linalg.inv(cov)
    raise ParameterError(f"unsupported world type {type(world).__name__}")


def _restricted_eps(z_t, mean, gain):
    """The noise prediction restricted to one mode: the residual from its
    scaled mean ``mean`` times the level's ``gain`` (``_restricted_tables``),
    a scalar in the spatial world and a matrix that mixes frames in the
    temporal one."""
    resid = z_t - mean
    if gain.ndim:
        return gain @ resid
    resid *= gain
    return resid


def _spatial_mixture_eps(z_t, t, world: SpatialWorld, sched):
    ab = sched.alpha_bar[t]
    marg_var = ab * world.sigma**2 + (1.0 - ab)
    scaled_means = sched.sqrt_ab[t] * world.means  # (K, D)
    diff = z_t[:, None, :] - scaled_means[None, :, :]  # (F, K, D)
    loglik = np.log(world.weights)[None, :] - (diff**2).sum(-1) / (2.0 * marg_var)
    resp = softmax_rows(loglik)  # (F, K)
    post_mean_scaled = resp @ scaled_means  # (F, D)
    return sched.sqrt_1m_ab[t] * (z_t - post_mean_scaled) / marg_var


def _temporal_mixture_eps(z_t, t, world: TemporalWorld, sched):
    # In the eigenbasis of the frame correlation each mode's covariance is
    # diag(var); the responsibilities weight the residuals before rotating back.
    ab = sched.alpha_bar[t]
    lam, u = world.correlation_eig
    var = ab * world.sigma**2 * lam + (1.0 - ab)  # (F,) eigen-variances
    scaled_means = sched.sqrt_ab[t] * world.means  # (K, D), tiled across frames
    tilde_k = u.T @ (z_t[None, :, :] - scaled_means[:, None, :])  # (K, F, D)
    quad = ((tilde_k**2).sum(-1) / var[None, :]).sum(-1)  # (K,)
    resp = softmax_rows(np.log(world.weights) - 0.5 * quad)
    tilde = np.tensordot(resp, tilde_k, axes=1)
    return sched.sqrt_1m_ab[t] * (u @ (tilde / var[:, None]))


def spatial_log_density(v: np.ndarray, world: SpatialWorld, c: int | None = None):
    """Per-frame log density under the sharp mixture (fully normalized)."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 2 or v.shape[1] != world.dim:
        raise ShapeError(f"latent must be (frames, {world.dim}), got {v.shape}")
    const = -0.5 * world.dim * np.log(2.0 * np.pi * world.sigma**2)
    restrict = _mode_of(c, world.modes)
    if restrict is not None:
        return const - ((v - world.means[restrict]) ** 2).sum(-1) / (2.0 * world.sigma**2)
    diff = v[:, None, :] - world.means[None, :, :]
    quad = (diff**2).sum(-1) / (2.0 * world.sigma**2)
    logterms = np.log(world.weights)[None, :] - quad
    peak = logterms.max(axis=1, keepdims=True)
    return const + (peak + np.log(np.exp(logterms - peak).sum(axis=1, keepdims=True)))[:, 0]


class Denoiser:
    """Noise-prediction interface with exact evaluation counting.

    Subclasses implement ``_eps``; ``evaluate`` counts each call whose ``_eps``
    returns, so a refused call is no evaluation, and checks the output shape.
    """

    has_taps = False

    def __init__(self):
        self._evals = 0

    @property
    def num_evals(self) -> int:
        return self._evals

    def evaluate(self, z_t, t, c):
        out = self._eps(z_t, t, c)
        self._evals += 1
        if out.shape != np.shape(z_t):
            raise ShapeError(f"denoiser output {out.shape} != input {np.shape(z_t)}")
        return out

    def _eps(self, z_t, t, c):
        raise NotImplementedError


class AnalyticDenoiser(Denoiser):
    """Exact posterior denoiser for either toy world.

    It builds the restricted posterior's tables for every level once
    (``_restricted_tables``), so an evaluation with a mode ``c`` is two array
    operations: the residual from the level's scaled mode mean, times the
    level's gain.  Without a mode it evaluates ``gmm_posterior_eps``.  A
    walk evaluates it once per step, folded or not: ``evs.diffusion`` folds
    every step but the last, whose update gives the clean prediction.
    """

    def __init__(self, world, sched: NoiseSchedule):
        super().__init__()
        self.world = world
        self.sched = sched
        self._means, self._gain = _restricted_tables(world, sched, slice(None))

    def _eps(self, z_t, t, c):
        k = _mode_of(c, self.world.modes)
        if k is None:
            return gmm_posterior_eps(z_t, t, self.world, c, self.sched)
        t = self.sched.check_timestep(t)
        z_t = np.asarray(z_t, dtype=np.float64)
        _check_latent(z_t, self.world)
        return _restricted_eps(z_t, self._means[t, k], self._gain[t])


# ---------------------------------------------------------------------------
# Toy attention denoiser with feature taps
# ---------------------------------------------------------------------------

_TIME_FREQS = np.arange(1, 9, dtype=np.float64)  # 8 sin + 8 cos features
_BLOCK_PARAMS = ("w_f", "b_f", "w_q", "w_k", "w_v", "w_o", "b_o")
# The parameter values of a ``ToyAttentionDenoiser``: w_in, w_out (DIM x DIM
# each), w_time, cond_emb, b_in; b_out; and each block's weights and biases.
NET_PARAM_COUNT = (2 * DIM + 2 * len(_TIME_FREQS) + MODES + 2) * DIM + DIM + len(ALL_LAYERS) * sum(
    DIM if kind.startswith("b_") else DIM * DIM for kind in _BLOCK_PARAMS
)


def _time_features(t: int, total_steps: int) -> np.ndarray:
    u = 2.0 * np.pi * (t / total_steps)
    return np.concatenate([np.sin(_TIME_FREQS * u), np.cos(_TIME_FREQS * u)])


def _time_feature_table(total_steps: int) -> np.ndarray:
    """Row t is ``_time_features(t, total_steps)`` for t = 0..total_steps."""
    return np.stack([_time_features(t, total_steps) for t in range(total_steps + 1)])


def _net_body(model, z, tfeat, cond_idx, want_grads=False, t=None, injection=None,
              capture=None):
    """The attention net over a stack of videos ``(B, F, D)``; returns output and tape.

    Token-wise projections run as one ``(B*F, E) @ (E, G)`` matmul and the
    per-video attention products as batched ``@``.  With ``want_grads`` the
    tape holds what ``_batched_backward`` reads: every block input ``h`` and
    each block's ``q``, ``k``, ``v`` and attention weights ``a``; otherwise it
    is None.  The attention output ``a @ v`` is not taped: the backward
    recomputes it for one small batched matmul per block.  ``capture`` is a
    ``(FeatureCache, key)`` pair and ``injection`` a ``(FeatureCache,
    InjectionConfig)`` pair read at timestep ``t``; a call takes at most one
    of them, on a one-video stack, whose ``(B*F, E)`` token arrays are the
    ``(F, E)`` cache entries.  An injected layer reads its recorded Q/K/V, and
    its ``f`` too with ``inject_f``, and skips the projections they replace.
    """
    p = model.params
    scale = 1.0 / np.sqrt(model.embed)
    batch, frames, _ = z.shape
    tokens = batch * frames
    # This order keeps a one-video stack bit-identical to plain (F, D)
    # products, so recorded feature caches and outputs reproduce exactly.
    h = (
        (z.reshape(tokens, -1) @ p["w_in"]).reshape(batch, frames, -1)
        + (tfeat @ p["w_time"])[:, None, :]
        + p["cond_emb"][cond_idx][:, None, :]
        + p["b_in"]
    ).reshape(tokens, -1)
    tape = {"h": [h], "q": [], "k": [], "v": [], "a": []} if want_grads else None
    cache, cfg = injection if injection is not None else (None, None)
    for layer in range(model.blocks):
        injected = cfg is not None and layer in cfg.layers
        if injected and cfg.inject_f:
            f = cache.get(t, layer, "f")
        else:
            f = h @ p[f"w_f{layer}"] + p[f"b_f{layer}"]
        q = h @ p[f"w_q{layer}"]
        if injected:
            attn = blended_attention(
                q, cache.get(t, layer, "Q"), cache.get(t, layer, "K"), cache.get(t, layer, "V"),
                cfg.gamma,
            )
        else:
            k = h @ p[f"w_k{layer}"]
            v = h @ p[f"w_v{layer}"]
            if capture is not None:
                store, key = capture
                for kind, value in zip(KINDS, (f, q, k, v)):
                    store.put(key, layer, kind, value)
            q, k, v = (x.reshape(batch, frames, -1) for x in (q, k, v))
            a = softmax_rows((q @ k.transpose(0, 2, 1)) * scale)
            attn = (a @ v).reshape(tokens, -1)
        # Built in place: IEEE addition commutes, so these are the bits of
        # f + attn @ w_o + b_o without its two temporaries.
        h = attn @ p[f"w_o{layer}"]
        h += f
        h += p[f"b_o{layer}"]
        if want_grads:
            for name, val in (("q", q), ("k", k), ("v", v), ("a", a), ("h", h)):
                tape[name].append(val)
    out = h @ p["w_out"] + p["b_out"]
    return out.reshape(batch, frames, -1), tape


class ToyAttentionDenoiser(Denoiser):
    """Stack of single-head self-attention blocks over frame tokens.

    Each block runs two parallel paths off its input: a linear feature map
    (tap kind ``f``) and an attention path whose query/key/value projections
    are tapped as ``Q``/``K``/``V``.  The block output is
    ``f + Attn(Q, K, V) @ w_o + b_o``, so replacing all four tapped
    quantities pins the block output regardless of the block input; with
    every block injected the network output is determined entirely by the
    cache.  That property is what makes full-injection reconstruction exact
    for arbitrary (even untrained) weights.
    """

    has_taps = True
    # The shape is fixed: the latent dim (also the embedding width), the
    # blocks that ``ALL_LAYERS`` names, the temporal schedule and the worlds' modes.
    dim = embed = DIM
    blocks = len(ALL_LAYERS)
    total_steps = TEMPORAL_SCHEDULE[0]
    n_modes = MODES
    # Row t holds the time features of level t; row i + 1 of ``_cond_rows``
    # is the condition index of mode i as a one-video stack.
    time_features = _time_feature_table(total_steps)
    _cond_rows = np.arange(n_modes + 1)[:, None]

    def __init__(self, seed: int = 0):
        super().__init__()
        self.seed = seed
        rng = np.random.default_rng(seed)
        dim, embed = self.dim, self.embed

        def w(shape):
            return rng.standard_normal(shape) / np.sqrt(shape[0])

        p = {
            "w_in": w((dim, embed)),
            "w_time": w((2 * len(_TIME_FREQS), embed)),
            "cond_emb": rng.standard_normal((self.n_modes + 1, embed)) * 0.1,
            "b_in": np.zeros(embed),
            "w_out": w((embed, dim)),
            "b_out": np.zeros(dim),
        }
        for name in self.param_names()[4:-2]:  # the block parameters, drawn in this order
            p[name] = np.zeros(embed) if name.startswith("b_") else w((embed, embed))
        self.params = p

    # -- parameter plumbing (serialization keeps this order) --

    def param_names(self) -> list[str]:
        blocks = [f"{kind}{layer}" for layer in range(self.blocks) for kind in _BLOCK_PARAMS]
        return ["w_in", "w_time", "cond_emb", "b_in", *blocks, "w_out", "b_out"]

    def _cond_index(self, c: int | None) -> int:
        mode = _mode_of(c, self.n_modes)
        return 0 if mode is None else mode + 1

    def forward(self, z_t, t, c, injection=None, capture=None, capture_key=None):
        """One denoiser evaluation, optionally with capture or injection, not both.

        ``injection`` is a ``(FeatureCache, InjectionConfig)`` pair; cached
        features are looked up at the call's timestep.  ``capture`` records
        this call's tap outputs under ``capture_key`` (defaults to ``t``).
        A call counts as an evaluation once its arguments, its condition
        included, pass these checks.
        """
        z_t = np.asarray(z_t, dtype=np.float64)
        if z_t.ndim != 2 or z_t.shape[1] != self.dim:
            raise ShapeError(f"latent must be (frames, {self.dim}), got {z_t.shape}")
        t = check_integer("timestep", t, 0, self.total_steps)
        if injection is not None and capture is not None:
            raise ParameterError("a forward either captures or injects features, not both")
        cond_idx = self._cond_rows[self._cond_index(c)]
        self._evals += 1
        if capture is not None:
            capture = (capture, t if capture_key is None else capture_key)
        out, _ = _net_body(
            self, z_t[None], self.time_features[t : t + 1], cond_idx,
            t=t, injection=injection, capture=capture,
        )
        return out[0]

    def evaluate(self, z_t, t, c):
        # forward() counts the evaluation itself
        return self.forward(z_t, t, c)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


# Videos per forward when scoring the 256-video held-out set.  At 16 the
# held-out pass (both nets' stack activations and residuals) stays below a
# training step's peak; at 64 it was the process's peak.  It must not equal
# the benchmark's batch of 32: its tracer labels a forward on ``batch_size``
# videos a training step, not a held-out one.
_HELD_OUT_STACK = 16


@dataclass(frozen=True)
class TrainRecipe:
    steps: int = 3500
    lr: float = 3e-3
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.steps < 0 or not self.lr > 0 or self.batch_size < 1:
            raise ParameterError(
                f"need train.steps >= 0, train.lr > 0 and train.batch_size >= 1, got "
                f"steps={self.steps}, lr={self.lr}, batch_size={self.batch_size}"
            )


def _batched_forward(model: ToyAttentionDenoiser, z, tfeat, cond_idx, want_grads=False):
    """The training entry into ``_net_body``: a batch ``(B, F, D)``, no taps."""
    return _net_body(model, z, tfeat, cond_idx, want_grads)


def _batched_backward(model, z, tfeat, cond_idx, tape, dout):
    """Gradients of a scalar loss wrt every parameter, given d(loss)/d(output).

    Token-wise arrays are ``(B*F, E)``; a weight gradient is ``inputᵀ @ d(output)``
    over all tokens at once.  The backward reads ``tape`` and leaves it
    whole; the caller frees it with the step.  Freeing each block's entries
    as the backward passes them would lower the traced peak, but glibc's
    malloc then hands the heap's top back to the system mid-step and the
    next allocations fault those pages in again: more page faults per step
    and no lower resident peak.
    """
    p = model.params
    scale = 1.0 / np.sqrt(model.embed)
    batch, frames, _ = z.shape
    tokens = batch * frames
    grads = {}
    dout = dout.reshape(tokens, -1)
    grads["w_out"] = tape["h"][-1].T @ dout
    grads["b_out"] = dout.sum(0)
    dh = dout @ p["w_out"].T
    for layer in range(model.blocks - 1, -1, -1):
        h_in, q, k, v, a = (tape[n][layer] for n in ("h", "q", "k", "v", "a"))
        # The forward's own product, so the same bits as the attention it used.
        grads[f"w_o{layer}"] = (a @ v).reshape(tokens, -1).T @ dh
        grads[f"b_o{layer}"] = dh.sum(0)
        dattn = (dh @ p[f"w_o{layer}"].T).reshape(batch, frames, -1)
        # The residual path f passes dh through unchanged: df = dh.
        da = dattn @ v.transpose(0, 2, 1)
        dv = (a.transpose(0, 2, 1) @ dattn).reshape(tokens, -1)
        ds = a * (da - (da * a).sum(-1, keepdims=True)) * scale
        dq = (ds @ k).reshape(tokens, -1)
        dk = (ds.transpose(0, 2, 1) @ q).reshape(tokens, -1)
        grads[f"w_f{layer}"] = h_in.T @ dh
        grads[f"b_f{layer}"] = dh.sum(0)
        grads[f"w_q{layer}"] = h_in.T @ dq
        grads[f"w_k{layer}"] = h_in.T @ dk
        grads[f"w_v{layer}"] = h_in.T @ dv
        # Summed in place, in the order of
        # dh @ w_fᵀ + dq @ w_qᵀ + dk @ w_kᵀ + dv @ w_vᵀ, so the same bits.
        dh = dh @ p[f"w_f{layer}"].T
        dh += dq @ p[f"w_q{layer}"].T
        dh += dk @ p[f"w_k{layer}"].T
        dh += dv @ p[f"w_v{layer}"].T
    grads["w_in"] = z.reshape(tokens, -1).T @ dh
    dh_video = dh.reshape(batch, frames, -1).sum(1)
    grads["w_time"] = tfeat.T @ dh_video
    grads["b_in"] = dh_video.sum(0)
    grads["cond_emb"] = np.zeros_like(p["cond_emb"])
    np.add.at(grads["cond_emb"], cond_idx, dh_video)
    return grads


def _draw_training_batch(world: TemporalWorld, sched, rng, batch_size, tfeat_table):
    modes = rng.integers(0, world.modes, size=batch_size)
    eta = rng.standard_normal((batch_size, world.frames, world.dim))
    # z_t is built in place, one array plus one temporary at a time; IEEE
    # products and sums commute, so each step keeps the bits of
    # sqrt_ab*(means + sigma*(chol @ eta)) + sqrt_1m_ab*eps.
    z_t = np.einsum("fg,bgd->bfd", world.correlation_chol, eta)
    del eta
    z_t *= world.sigma
    z_t += world.means[modes][:, None, :]
    t = rng.integers(1, sched.total_steps + 1, size=batch_size)
    eps = rng.standard_normal(z_t.shape)
    z_t *= sched.sqrt_ab[t][:, None, None]
    z_t += sched.sqrt_1m_ab[t][:, None, None] * eps
    return z_t, tfeat_table[t], modes + 1, eps


def train_toy_denoiser(
    world: TemporalWorld, sched: NoiseSchedule, recipe: TrainRecipe
) -> ToyAttentionDenoiser:
    """Fit the attention denoiser to the temporal world by noise regression.

    Adam on mini-batches of (noisy latent, level, condition, target noise).
    The returned model carries a ``train_report`` dict with held-out losses.
    The 256-video held-out set is drawn after the last step, so no step holds
    it, and scored in one pass over both nets: the trained net scores
    ``final_loss``, and an untrained net of the same seed, whose weights are
    the ones training started from, scores ``initial_loss``.  The net's
    shape is fixed, so a world or schedule of another shape is refused.
    """
    if (world.dim, world.modes, sched.total_steps) != (DIM, MODES, TEMPORAL_SCHEDULE[0]):
        raise ParameterError(
            f"the net takes dim {DIM}, {MODES} modes and {TEMPORAL_SCHEDULE[0]} levels, "
            f"got {world.dim}, {world.modes} and {sched.total_steps}"
        )
    model = ToyAttentionDenoiser(recipe.seed)
    data_rng = np.random.default_rng(np.random.SeedSequence([recipe.seed, 1]))
    tfeat_table = model.time_features

    def step_grads(step):
        # The batch, tape and residual die here, before the Adam update.
        z_t, tfeat, cond_idx, eps = _draw_training_batch(
            world, sched, data_rng, recipe.batch_size, tfeat_table
        )
        out, tape = _batched_forward(model, z_t, tfeat, cond_idx, want_grads=True)
        # out becomes the residual and then d(loss)/d(out) in place, with the
        # bits of out - eps and 2 * resid / resid.size.
        out -= eps
        del eps
        loss = float(np.mean(out**2))
        if not np.isfinite(loss):
            raise TrainingError(f"training loss became non-finite at step {step}")
        out *= 2.0
        out /= out.size
        return _batched_backward(model, z_t, tfeat, cond_idx, tape, out)

    m = {k: np.zeros_like(v) for k, v in model.params.items()}
    v2 = {k: np.zeros_like(v) for k, v in model.params.items()}
    beta1, beta2, eps_adam = 0.9, 0.999, 1e-8
    # A diverging run overflows before its loss turns non-finite; the loss
    # check reports it, so numpy's warnings would only bury that line.
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, recipe.steps + 1):
            for name, g in step_grads(step).items():
                m[name] = beta1 * m[name] + (1 - beta1) * g
                v2[name] = beta2 * v2[name] + (1 - beta2) * g**2
                mhat = m[name] / (1 - beta1**step)
                vhat = v2[name] / (1 - beta2**step)
                model.params[name] -= recipe.lr * mhat / (np.sqrt(vhat) + eps_adam)
    # The Adam moments are freed before the held-out set is drawn, so the
    # two never share the process's peak.
    del m, v2

    held_rng = np.random.default_rng(np.random.SeedSequence([recipe.seed, 2]))
    z_t, tfeat, cond_idx, eps = _draw_training_batch(world, sched, held_rng, 256, tfeat_table)
    start = ToyAttentionDenoiser(recipe.seed) if recipe.steps else model
    # One pass scores both nets a stack at a time.  A stack's squared
    # residuals overwrite its own z_t and eps slots, which nothing reads
    # again, so one mean of each array keeps the bits of a one-stack loss.
    for i in range(0, len(z_t), _HELD_OUT_STACK):
        s = slice(i, i + _HELD_OUT_STACK)
        final_sq = _batched_forward(model, z_t[s], tfeat[s], cond_idx[s])[0]
        initial_sq = _batched_forward(start, z_t[s], tfeat[s], cond_idx[s])[0]
        for sq in (final_sq, initial_sq):
            sq -= eps[s]
            sq *= sq
        z_t[s], eps[s] = final_sq, initial_sq
    final, initial = float(np.mean(z_t)), float(np.mean(eps))
    if recipe.steps and not final < initial:
        raise TrainingError(
            f"training did not reduce held-out loss ({initial:.4f} -> {final:.4f})"
        )
    model.train_report = {"initial_loss": initial, "final_loss": final}
    return model
