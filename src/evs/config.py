"""Run configuration: one versioned JSON schema, one resolver, one lab builder.

The resolved config dict is the single source of truth recorded in every
manifest; ``--config``, ``--set`` and ``--seed`` are applied before resolution,
and nothing else (no environment variable) changes it.

A section's keys are the parameters of the object it builds: ``world`` goes
to ``models.default_worlds``, ``pipeline`` to ``compose.PipelineConfig``,
``metrics`` to ``MetricConfig`` and ``train`` to ``TrainRecipe``, and the last
three sections take their defaults from those classes, so each default is
written once.  ``build_lab`` builds and checks every section, so a command
that builds its lab first refuses a bad value before it writes anything.
"""

from __future__ import annotations

import copy
import json
from dataclasses import asdict, dataclass

import numpy as np

from . import models
from .compose import ModelBundle, PipelineConfig
from .errors import ConfigError
from .metrics import DEFAULT_OVERALL_CHANNELS, DEFAULT_RANGES, MetricConfig
from .models import AnalyticDenoiser, Condition, TrainRecipe
from .schedule import build_linear_beta

CONFIG_VERSION = 1
_PIPELINE = PipelineConfig()

DEFAULT_CONFIG = {
    "version": CONFIG_VERSION,
    "seed": 0,
    "frames": models.DEFAULT_FRAMES,
    "dim": models.DEFAULT_DIM,
    "world": {
        "modes": models.DEFAULT_MODES,
        "sigma_spatial": models.DEFAULT_SIGMA_SPATIAL,
        "sigma_temporal": models.DEFAULT_SIGMA_TEMPORAL,
        "rho": models.DEFAULT_RHO,
        "blur_width": models.DEFAULT_BLUR_WIDTH,
        "seed": models.DEFAULT_WORLD_SEED,
    },
    "schedule_i": {"steps": 50, "beta_start": 1e-4, "beta_end": 0.02},
    "schedule_v": {"steps": 8, "beta_start": 1e-4, "beta_end": 0.1},
    "pipeline": {
        **asdict(_PIPELINE),
        # JSON has no sets: the injection layers are a sorted list.
        "injection": {**asdict(_PIPELINE.injection), "layers": sorted(_PIPELINE.injection.layers)},
    },
    "dataset": {"count": 93, "flicker_sigma": 0.2, "styled": False, "style_scale": 8.0},
    "metrics": {
        **asdict(MetricConfig()),
        "ranges": {k: list(v) for k, v in DEFAULT_RANGES.items()},
        "overall_channels": list(DEFAULT_OVERALL_CHANNELS),
    },
    "net": {"weights": None, "seed": 0},
    "train": asdict(TrainRecipe()),
}


_JSON_NAMES = {
    dict: "an object", list: "a list", str: "a string", bool: "true or false",
    int: "an integer", float: "a number",
}


def _check_type(path: str, default, value):
    """Reject a value whose JSON type differs from the default's.

    An integer may stand for a float, a bool never for a number; ``net.weights``
    takes a nonempty file path or null, and only ``pipeline.injection`` of the sections
    takes null (no injection).  List items are checked against the default's
    first item.
    """
    if value is None:
        ok = default is None or path == "pipeline.injection"
    elif default is None:
        ok = isinstance(value, str) and value != ""
    elif isinstance(default, float) and not isinstance(value, bool):
        ok = isinstance(value, (int, float))
    else:
        ok = type(value) is type(default)
    if not ok:
        want = "a path or null" if default is None else _JSON_NAMES[type(default)]
        raise ConfigError(f"config key {path!r} must be {want}, got {value!r}")
    if isinstance(value, list) and default:
        for item in value:
            _check_type(path, default[0], item)


def _deep_merge(base: dict, override: dict, prefix: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        path = prefix + key
        if key not in base:
            raise ConfigError(f"unknown config key {path!r}")
        if isinstance(base[key], dict) and isinstance(value, dict):
            out[key] = _deep_merge(base[key], value, path + ".")
        else:
            _check_type(path, base[key], value)
            out[key] = copy.deepcopy(value)
    return out


def resolve_config(overrides: dict | None = None) -> dict:
    """Defaults merged with overrides; the version and the seeds are checked."""
    cfg = DEFAULT_CONFIG if overrides is None else _deep_merge(DEFAULT_CONFIG, overrides)
    cfg = copy.deepcopy(cfg)
    if cfg.get("version") != CONFIG_VERSION:
        raise ConfigError(f"config version {cfg.get('version')!r} not supported")
    seeds = {"seed": cfg["seed"], "world.seed": cfg["world"]["seed"],
             "net.seed": cfg["net"]["seed"], "train.seed": cfg["train"]["seed"]}
    for key, value in seeds.items():
        if value < 0:  # numpy seeds are non-negative
            raise ConfigError(f"config key {key!r} must be >= 0, got {value}")
    return cfg


def apply_set_overrides(cfg_overrides: dict, assignments: list[str]) -> dict:
    """Apply ``--set key.path=value`` pairs onto a config override dict."""
    out = copy.deepcopy(cfg_overrides)
    for assignment in assignments:
        if "=" not in assignment:
            raise ConfigError(f"--set expects key=value, got {assignment!r}")
        key, raw = assignment.split("=", 1)
        node = out
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set {key}: {part!r} is already set to {node!r}")
        try:
            node[parts[-1]] = json.loads(raw)
        except ValueError:
            node[parts[-1]] = raw
    return out


@dataclass(frozen=True)
class Lab:
    """Everything a command needs, built from one resolved config."""

    spatial_world: models.SpatialWorld
    temporal_world: models.TemporalWorld
    models: ModelBundle
    metric_config: MetricConfig
    pipeline_config: PipelineConfig
    recipe: TrainRecipe

    @property
    def sched_i(self):
        return self.models.spatial_schedule

    @property
    def sched_v(self):
        return self.models.temporal_schedule


def build_lab(cfg: dict, temporal_override=None) -> Lab:
    """Build and check every section of a resolved config; a bad value raises.

    ``temporal_override`` swaps in a different temporal denoiser (the tapped
    net), against which the pipeline section is checked.
    """
    # Every reader of a dataset refuses an empty one, so count starts at 1.
    for key, least in (("count", 1), ("flicker_sigma", 0)):
        if cfg["dataset"][key] < least:
            raise ConfigError(f"dataset.{key} must be at least {least}, got {cfg['dataset'][key]}")
    if cfg["frames"] < 3:  # motion smoothness compares three consecutive frames
        raise ConfigError(f"frames must be at least 3, got {cfg['frames']}")
    spatial_world, temporal_world = models.default_worlds(
        dim=cfg["dim"], frames=cfg["frames"], **cfg["world"]
    )
    sched_i, sched_v = (
        build_linear_beta(s["steps"], s["beta_start"], s["beta_end"])
        for s in (cfg["schedule_i"], cfg["schedule_v"])
    )
    bundle = ModelBundle(
        spatial=AnalyticDenoiser(spatial_world, sched_i),
        temporal=temporal_override or AnalyticDenoiser(temporal_world, sched_v),
        spatial_schedule=sched_i,
        temporal_schedule=sched_v,
    )
    pipeline = PipelineConfig(**cfg["pipeline"])
    pipeline.validate(bundle)
    return Lab(
        spatial_world, temporal_world, bundle, MetricConfig(**cfg["metrics"]),
        pipeline, TrainRecipe(**cfg["train"]),
    )


def item_seed(base_seed: int, index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([base_seed, index])


def item_condition(cfg: dict, index: int, style: np.ndarray | None = None) -> Condition:
    return Condition(mode_id=index % cfg["world"]["modes"], style=style)


def style_vector(cfg: dict) -> np.ndarray:
    """Fixed off-support offset used for the styled dataset."""
    rng = np.random.default_rng(np.random.SeedSequence([cfg["seed"], 0x5EED]))
    v = rng.standard_normal(cfg["dim"])
    return v / np.linalg.norm(v) * cfg["dataset"]["style_scale"]
