"""Benchmark harness behind the CLI: dataset generation, pipeline runs,
hyperparameter sweeps, the refinement-mode frontier, and report aggregation.

Every command writes a manifest that is sufficient to re-execute it
bit-identically (wall-clock values excluded).  A run manifest records its
plan once.  A plan with a ``t2v:sfi`` stage needs the tapped net, and
``load_or_init_net`` returns it with the manifest's ``weights_sha256``.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import numpy as np

from . import io as evsio
from .compose import (  # PIPELINES is read here by the CLI, the scripts and the tests
    BLOCK_INVERSION_SFI,
    PIPELINES,
    PLANS,
    PipelineConfig,
    compose_iv,
    compose_vi,
    run_evs,
    run_iterated_baseline,
    run_t2i_only,
    run_t2v_only,
    stage_nfe,
)
from .config import Lab, build_lab, resolve_config
from .errors import ConfigError, ParameterError, ShapeError, UsageError
from .metrics import METRICS, PSNR_PEAK, TAU, motion_smoothness, psnr, score_video
from .models import (
    FLICKER_SIGMA,
    MODES,
    TEMPORAL_SCHEDULE,
    ToyAttentionDenoiser,
    make_degraded_video,
    sample_world,
    train_toy_denoiser,
)
from .sfi import (
    ALL_LAYERS,
    DEEP_LAYERS,
    SHALLOW_LAYERS,
    InjectionConfig,
    denoise_with_injection,
    invert_with_capture,
)

SWEEP_AXES = ("t_T2V", "t_V", "n_V", "gamma")
# The columns of runs.csv, which are also the keys of each run manifest row.
RUN_CSV_COLUMNS = ("pipeline", "seed", *METRICS, "nfe_t2i", "nfe_t2v", "wall_time")

DATASET_MANIFEST = "dataset_manifest.json"
DATASET_LATENTS = "videos.evslat"
RUN_MANIFEST = "run_manifest.json"

# The frontier's injection operating points, by label: the selective points
# blend queries at the shallow or deep layer set; the one all-layers point is
# the full-feature reconstruction anchor.
_FRONTIER_SFI = {
    f"{name},g={gamma}": InjectionConfig(layers=layers, gamma=gamma)
    for name, layers in (("shallow", SHALLOW_LAYERS), ("deep", DEEP_LAYERS))
    for gamma in (0.0, 0.25, 0.5, 0.8, 1.0)
} | {"all,g=1.0,f": InjectionConfig(layers=ALL_LAYERS, gamma=1.0, inject_f=True)}
_DOMINANCE_GRID = 41
# The norm of the style offset of a styled dataset: far off the worlds' support.
STYLE_SCALE = 8.0


def _out_dir(path) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _dataset_record(dataset_dir) -> dict:
    """Where a command's input dataset lives and the hash of its manifest."""
    return {
        "path": str(Path(dataset_dir).resolve()),
        "manifest_sha256": evsio.file_sha256(Path(dataset_dir) / DATASET_MANIFEST),
    }


def _write_manifest(path, cfg: dict, kind: str, **fields) -> Path:
    """Write a ``kind`` manifest: the version stamps, the config and ``fields``."""
    evsio.write_json(path, {
        "manifest_version": evsio.MANIFEST_VERSION,
        "tool_version": evsio.TOOL_VERSION,
        "kind": kind,
        "config": cfg,
        **fields,
    })
    return path


# ---------------------------------------------------------------------------
# gen, and each item's mode, style and generators
# ---------------------------------------------------------------------------


def item_seed(base_seed: int, index: int) -> np.random.SeedSequence:
    """The seed of item ``index``'s video in ``gen``; ``evs`` runs key their draws from it."""
    return np.random.SeedSequence([base_seed, index])


def item_condition(index: int) -> int:
    """The mode item ``index`` is drawn from and conditioned on, ``index % MODES``."""
    return index % MODES


def style_vector(cfg: dict) -> np.ndarray:
    """Fixed off-support offset, of norm ``STYLE_SCALE``, that ``gen`` adds to
    every frame of a styled dataset."""
    rng = np.random.default_rng(np.random.SeedSequence([cfg["seed"], 0x5EED]))
    v = rng.standard_normal(cfg["dim"])
    return v / np.linalg.norm(v) * STYLE_SCALE


def _item_rng(cfg: dict, pipeline: str, index: int) -> np.random.Generator:
    """The generator of one item's noise draws; ``evs`` keys a stream of its own."""
    if pipeline == "evs":
        key = [0x45565321, int(item_seed(cfg["seed"], index).generate_state(1)[0])]
    else:
        key = [cfg["seed"], index, 7]
    return np.random.default_rng(np.random.SeedSequence(key))


def cmd_gen(cfg: dict, out_dir) -> Path:
    """Write the input dataset, degraded videos or styled off-prior ones
    (spatial-world samples plus ``style_vector``): its ``dataset.count``
    videos in one EVSLAT file, item ``i`` at position ``i``, and a manifest
    that records the file's sha256."""
    lab = build_lab(cfg)
    style = style_vector(cfg) if cfg["dataset"]["styled"] else None
    out = _out_dir(out_dir)
    videos = []
    for i in range(cfg["dataset"]["count"]):
        mode = item_condition(i)
        rng = np.random.default_rng(item_seed(cfg["seed"], i))
        videos.append(make_degraded_video(lab.temporal_world, mode, FLICKER_SIGMA, rng)
                      if style is None else sample_world(lab.spatial_world, mode, rng) + style)
    evsio.write_latents(out / DATASET_LATENTS, videos)
    return _write_manifest(
        out / DATASET_MANIFEST, cfg, "dataset",
        latents_sha256=evsio.file_sha256(out / DATASET_LATENTS),
        style=None if style is None else [float(x) for x in style],
    )


def load_dataset(dataset_dir, cfg: dict | None = None) -> tuple[dict, list[np.ndarray]]:
    """The dataset manifest and its videos, a video's item index being its
    position in the file.  The file must match the manifest's
    ``latents_sha256`` and hold one or more videos; with ``cfg``, the videos
    must have the config's ``(frames, dim)`` shape."""
    dataset_dir = Path(dataset_dir)
    manifest = evsio.read_manifest(dataset_dir / DATASET_MANIFEST, "dataset")
    path = dataset_dir / DATASET_LATENTS
    if evsio.file_sha256(path) != manifest["latents_sha256"]:
        raise ConfigError(f"{path} does not match the latents_sha256 of its dataset manifest")
    videos = evsio.read_latents(path)
    if not videos:
        raise ConfigError(f"{path} holds no video; a dataset holds one or more")
    if cfg is not None and videos[0].shape != (cfg["frames"], cfg["dim"]):
        raise ShapeError(
            f"{path} holds videos of shape {videos[0].shape}; the config's "
            f"(frames, dim) is {(cfg['frames'], cfg['dim'])}"
        )
    return manifest, videos


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def load_or_init_net(cfg: dict) -> tuple[ToyAttentionDenoiser, dict]:
    """The net at ``net.weights``, refused unless it was made for the config's
    ``dim``, the temporal schedule and the worlds' modes, and the
    ``weights_sha256`` record of that file for a manifest; else the net
    ``evs train`` starts from (``train.seed``) and an empty record."""
    fixed = {  # net field: (what it must match, value)
        "dim": ("config dim", cfg["dim"]),
        "total_steps": ("temporal schedule steps", TEMPORAL_SCHEDULE[0]),
        "n_modes": ("world modes", MODES),
    }
    path = cfg["net"]["weights"]
    if not path:
        values = {field: value for field, (_, value) in fixed.items()}
        return ToyAttentionDenoiser(**values, seed=cfg["train"]["seed"]), {}
    net = evsio.read_net(path)
    for field, (key, want) in fixed.items():
        if getattr(net, field) != want:
            raise ConfigError(f"{path}: net {field}={getattr(net, field)} but {key}={want}")
    return net, {"weights_sha256": evsio.file_sha256(path)}


def _net_for(cfg: dict, pipeline: str) -> tuple[ToyAttentionDenoiser | None, dict]:
    """``load_or_init_net`` when ``pipeline``'s plan has a ``t2v:sfi`` stage, which
    reads the net's taps; else ``(None, {})``: the analytic model, no weights."""
    plan = PLANS[pipeline](PipelineConfig(**cfg["pipeline"]))
    return load_or_init_net(cfg) if any(name == "t2v:sfi" for name, _, _ in plan) else (None, {})


def _execute(pipeline: str, lab: Lab, cfg: dict, pcfg: PipelineConfig, index, video, cond):
    """Run one pipeline on one item.  The entry point is looked up at each
    call, so a tracer that rebinds this module's names sees it."""
    entry = {"t2i": run_t2i_only, "t2v": run_t2v_only, "iv": compose_iv, "vi": compose_vi,
             "evs": run_evs, "iterated": run_iterated_baseline}[pipeline]
    return entry(video, pcfg, lab.models, cond, _item_rng(cfg, pipeline, index))


def _scored_items(pipeline: str, lab: Lab, cfg: dict, pcfg: PipelineConfig, videos):
    """Run ``pipeline`` on each item and score it, one item at a time.

    Yields ``(index, result, report)``.
    """
    for index, video in enumerate(videos):
        cond = item_condition(index)
        result = _execute(pipeline, lab, cfg, pcfg, index, video, cond)
        report = score_video(result.output, video, lab.spatial_world, cond)
        yield index, result, report


def cmd_run(pipeline: str, cfg: dict, dataset_dir, out_dir, recorded=None) -> Path:
    """Execute one pipeline over the dataset; write CSV, outputs, manifest.
    A rerun passes ``recorded``, the run's ``(path, manifest)``: the dataset
    manifest and the weights must hash as it records."""
    if pipeline not in PIPELINES:
        raise UsageError(f"unknown pipeline {pipeline!r} (choose from {', '.join(PIPELINES)})")
    net, weights = _net_for(cfg, pipeline)
    lab = build_lab(cfg, temporal_override=net)
    dataset = _dataset_record(dataset_dir)
    if recorded is not None:
        path, manifest = recorded
        if dataset["manifest_sha256"] != manifest["dataset"]["manifest_sha256"]:
            raise ConfigError(f"dataset {dataset_dir} changed since {path} was written")
        if weights.get("weights_sha256") != manifest.get("weights_sha256"):
            raise ConfigError(f"net.weights do not match the weights_sha256 in {path}")
    _, videos = load_dataset(dataset_dir, cfg)
    out = _out_dir(out_dir)

    rows = []
    items = []
    for index, result, report in _scored_items(pipeline, lab, cfg, lab.pipeline_config, videos):
        out_file = f"item_{index:04d}.out.evslat"
        evsio.write_latents(out / out_file, [result.output])
        rows.append(
            {
                "pipeline": pipeline,
                "seed": index,
                **{m: getattr(report, m) for m in METRICS},
                "nfe_t2i": result.nfe_t2i,
                "nfe_t2v": result.nfe_t2v,
                "wall_time": result.wall_time,
            }
        )
        items.append({"index": index, "output_file": out_file})
    evsio.write_metric_csv(out / "runs.csv", rows, RUN_CSV_COLUMNS)
    return _write_manifest(
        out / RUN_MANIFEST, cfg, "run",
        pipeline=pipeline,
        dataset=dataset,
        **weights,
        plan=[[name, [t_noise, t_end]] for name, t_noise, t_end in PLANS[pipeline](lab.pipeline_config)],
        csv="runs.csv",
        rows=rows,
        items=items,
    )


def _read_run(path) -> tuple[dict, dict]:
    """A run manifest and its embedded config, resolved and checked again;
    a pipeline that is not one of ``PIPELINES`` is refused."""
    manifest = evsio.read_manifest(path, "run")
    if manifest["pipeline"] not in PIPELINES:
        raise ConfigError(
            f"{path}: unknown pipeline {manifest['pipeline']!r} (choose from {', '.join(PIPELINES)})"
        )
    return manifest, resolve_config(manifest["config"])


def rerun_from_manifest(manifest_path, out_dir) -> Path:
    """Re-execute a recorded run: its embedded config, checked again, on its
    unchanged dataset and, when the run loads ``net.weights``, unchanged weights."""
    manifest, cfg = _read_run(manifest_path)
    return cmd_run(manifest["pipeline"], cfg, manifest["dataset"]["path"], out_dir,
                   recorded=(manifest_path, manifest))


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _sweep_point(base: PipelineConfig, axis: str, value, lab: Lab) -> PipelineConfig:
    """``base`` with ``axis`` set to the grid value, checked against the lab's schedules."""
    try:
        if axis != "gamma":
            if not float(value).is_integer():
                raise ParameterError(f"{axis} must be an integer")
            pcfg = replace(base, **{axis: int(value)})
        elif base.block_mode != BLOCK_INVERSION_SFI:
            # Only the injection block reads gamma; build_lab has already
            # refused one whose pipeline.injection is null or has no layers.
            raise ConfigError("sweep axis gamma needs pipeline.block_mode inversion+sfi "
                              "and a pipeline.injection with one or more layers")
        else:
            pcfg = replace(base, injection=replace(base.injection, gamma=float(value)))
        pcfg.validate(lab.models)
    except ParameterError as exc:
        raise ParameterError(f"grid point {axis}={value}: {exc}") from exc
    return pcfg


def cmd_sweep(axis: str, grid, cfg: dict, dataset_dir, out_dir) -> Path:
    """Run the encapsulated pipeline across one hyperparameter grid."""
    if axis not in SWEEP_AXES:
        raise UsageError(f"unknown sweep axis {axis!r} (choose from {', '.join(SWEEP_AXES)})")
    if not grid:
        raise ParameterError("sweep grid must be nonempty")
    _, videos = load_dataset(dataset_dir, cfg)
    # No sweep axis changes the block mode, so one lab serves every grid point.
    net, weights = _net_for(cfg, "evs")
    lab = build_lab(cfg, temporal_override=net)
    pcfgs = [_sweep_point(lab.pipeline_config, axis, value, lab) for value in grid]
    out = _out_dir(out_dir)
    point_stats = []
    for value, pcfg in zip(grid, pcfgs):
        reports = [report for _, _, report in _scored_items("evs", lab, cfg, pcfg, videos)]
        stats = {"value": value}
        for m in METRICS:
            arr = np.asarray([getattr(report, m) for report in reports])
            stats[f"{m}_mean"] = float(arr.mean())
            stats[f"{m}_stderr"] = float(arr.std(ddof=1) / np.sqrt(len(arr))) if len(arr) > 1 else 0.0
        point_stats.append(stats)

    manifest_path = _write_manifest(
        out / "sweep_manifest.json", cfg, "sweep",
        axis=axis,
        grid=list(grid),
        dataset=_dataset_record(dataset_dir),
        **weights,
        points=point_stats,
        csv="sweep.csv",
    )
    mhash = evsio.file_sha256(manifest_path)
    # Grid values are written as given (str), so 0.0 stays 0.0.
    evsio.write_metric_csv(
        out / "sweep.csv",
        [{**stats, axis: str(stats["value"])} for stats in point_stats],
        [axis] + [f"{m}_{s}" for m in METRICS for s in ("mean", "stderr")],
    )
    xs = [float(s["value"]) for s in point_stats]
    for m in METRICS:
        evsio.svg_line_plot(
            out / f"sweep_{m}.svg", f"{m} vs {axis}", axis, m, xs,
            [s[f"{m}_mean"] for s in point_stats], [s[f"{m}_stderr"] for s in point_stats], mhash,
        )
    return manifest_path


# ---------------------------------------------------------------------------
# frontier
# ---------------------------------------------------------------------------


def frontier_dominance(points_a, points_b, grid_size: int = _DOMINANCE_GRID) -> float:
    """Fraction of the shared smoothness grid where frontier A attains at
    least B's best fidelity among points at or above each smoothness level."""
    lo = max(min(m for m, _ in points_a), min(m for m, _ in points_b))
    hi = min(max(m for m, _ in points_a), max(m for m, _ in points_b))
    if hi <= lo:
        return 1.0
    # Every level lies in [lo, hi], so each frontier has a point at or above it.
    grid = np.linspace(lo, hi, grid_size)
    return sum(
        max(p for m, p in points_a if m >= level) >= max(p for m, p in points_b if m >= level)
        for level in grid
    ) / len(grid)


def cmd_frontier(cfg: dict, dataset_dir, out_dir) -> Path:
    """Sweep both temporal-block modes on styled inputs and compare frontiers.

    The noising-denoising arm uses the analytic temporal denoiser; the
    injection arm uses the tapped net at ``net.weights``, which ``evs train``
    writes; without weights the frontier is refused.  Points are (motion
    smoothness, fidelity-to-input) means.
    """
    ds_manifest, videos = load_dataset(dataset_dir, cfg)
    if ds_manifest.get("style") is None:
        raise ConfigError("frontier requires a styled dataset (gen --set dataset.styled=true)")
    lab = build_lab(cfg)
    net_file = cfg["net"]["weights"]
    if not net_file:
        raise ConfigError("frontier needs net.weights: train a net with `evs train` and pass "
                          "--set net.weights=DIR/net.evsnet")
    net, weights = load_or_init_net(cfg)
    if set(range(net.blocks)) != ALL_LAYERS:
        raise ConfigError(
            f"{net_file}: net has {net.blocks} blocks; the frontier's layer sets need {len(ALL_LAYERS)}"
        )
    out = _out_dir(out_dir)

    p = lab.pipeline_config
    # Each refined output's (smoothness, fidelity) pair, per (method, label) point.
    scores = {}
    for index, video in enumerate(videos):
        c = item_condition(index)
        outputs = {("sdedit", "t=0"): video}
        for t in range(1, lab.sched_v.total_steps + 1):
            rng = np.random.default_rng(np.random.SeedSequence([cfg["seed"], index, t]))
            outputs["sdedit", f"t={t}"] = run_t2v_only(
                video, replace(p, t_V=t), lab.models, c, rng).output
        # Each video is inverted once; its cache serves every operating point.
        z, cache = invert_with_capture(video, p.t_V, net, c, lab.sched_v)
        for label, icfg in _FRONTIER_SFI.items():
            _, outputs["sfi", label] = denoise_with_injection(
                z, p.t_V, p.t_V, net, c, lab.sched_v, cache, icfg
            )
        for key, refined in outputs.items():
            scores.setdefault(key, []).append(
                (motion_smoothness(refined, TAU), psnr(refined, video, PSNR_PEAK))
            )

    rows = []
    arms = {"sdedit": [], "sfi": []}
    for (method, label), pairs in scores.items():
        point = tuple(float(np.mean(column)) for column in zip(*pairs))
        arms[method].append(point)
        rows.append({"method": method, "param": label, "ms": point[0], "psnr": point[1]})

    dominance = frontier_dominance(arms["sfi"], arms["sdedit"])
    manifest_path = _write_manifest(
        out / "frontier_manifest.json", cfg, "frontier",
        dataset=_dataset_record(dataset_dir),
        **weights,
        rows=rows,
        dominance=dominance,
        csv="frontier.csv",
    )
    mhash = evsio.file_sha256(manifest_path)
    evsio.write_metric_csv(out / "frontier.csv", rows, ["method", "param", "ms", "psnr"])
    evsio.svg_scatter(
        out / "frontier.svg",
        f"refinement frontier (dominance {dominance:.2f})",
        "motion smoothness",
        "psnr to input (dB)",
        arms,
        mhash,
    )
    return manifest_path


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def cmd_report(manifest_paths, out_dir) -> Path:
    """Aggregate run manifests into a per-pipeline summary with speedups."""
    if not manifest_paths:
        raise UsageError("report needs at least one run manifest")
    summary, firsts = {}, {}
    for path in manifest_paths:
        manifest, cfg = _read_run(path)
        name = manifest["pipeline"]
        # A row pools one pipeline's runs: one config (seed aside), one weights file.
        weights = manifest.get("weights_sha256")
        first_path, first_cfg, first_weights = firsts.setdefault(name, (path, cfg, weights))
        if {**cfg, "seed": None} != {**first_cfg, "seed": None}:
            raise ConfigError(f"{path} and {first_path} are {name} runs with different configs")
        if weights != first_weights:
            raise ConfigError(f"{path} and {first_path} are {name} runs with different weights_sha256")
        entry = summary.setdefault(name, {m: [] for m in (*METRICS, "wall_time", "nfe_total")})
        for row in manifest["rows"]:
            for m in (*METRICS, "wall_time"):
                entry[m].append(float(row[m]))
            entry["nfe_total"].append(int(row["nfe_t2i"]) + int(row["nfe_t2v"]))
    # Every distinct config is built, so checked, before --out exists; the
    # first run's config heads the report and prices the fallback baseline.
    configs = [cfg for _, cfg, _ in firsts.values()]
    labs = [build_lab(cfg) for i, cfg in enumerate(configs) if cfg not in configs[:i]]
    base_cfg, lab = configs[0], labs[0]
    out = _out_dir(out_dir)

    if "iterated" in summary:
        baseline_nfe = float(np.mean(summary["iterated"]["nfe_total"]))
    else:
        baseline_nfe = float(sum(stage_nfe(PLANS["iterated"](lab.pipeline_config))))

    table = []
    for name in sorted(summary):
        entry = summary[name]
        nfe = float(np.mean(entry["nfe_total"]))
        table.append(
            {
                "pipeline": name,
                **{m: float(np.mean(entry[m])) for m in METRICS},
                "nfe_total": nfe,
                "wall_time": float(np.mean(entry["wall_time"])),
                "speedup": baseline_nfe / nfe if nfe else float("nan"),
            }
        )
    table.sort(key=lambda r: -r["overall"])

    manifest_path = _write_manifest(
        out / "report_manifest.json", base_cfg, "report",
        inputs=[str(Path(p).resolve()) for p in manifest_paths],
        baseline_nfe=baseline_nfe,
        table=table,
        csv="summary.csv",
    )
    mhash = evsio.file_sha256(manifest_path)
    evsio.write_metric_csv(
        out / "summary.csv", table,
        ["pipeline", *METRICS, "nfe_total", "wall_time", "speedup"],
    )
    evsio.svg_bar_chart(
        out / "summary.svg",
        "overall score by pipeline",
        "overall",
        [row["pipeline"] for row in table],
        [row["overall"] for row in table],
        mhash,
    )
    return manifest_path


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def cmd_train(cfg: dict, out_dir) -> Path:
    """Train the tapped temporal denoiser and save its weights."""
    lab = build_lab(cfg)
    out = _out_dir(out_dir)
    net = train_toy_denoiser(lab.temporal_world, lab.sched_v, lab.recipe)
    evsio.write_net(out / "net.evsnet", net)
    return _write_manifest(
        out / "train_manifest.json", cfg, "train",
        net_file="net.evsnet", train_report=net.train_report,
    )
