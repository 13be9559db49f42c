"""Benchmark harness behind the CLI: dataset generation, pipeline runs,
hyperparameter sweeps, the refinement-mode frontier, and report aggregation.

Every command writes a manifest that is sufficient to re-execute it
bit-identically (wall-clock values excluded).
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import numpy as np

from . import io as evsio
from .compose import (
    BLOCK_INVERSION_SFI,
    PipelineConfig,
    compose_iv,
    compose_vi,
    iterated_stages,
    run_evs,
    run_iterated_baseline,
    run_t2i_only,
    run_t2v_only,
)
from .config import (
    Lab,
    build_lab,
    item_condition,
    item_seed,
    resolve_config,
    style_vector,
)
from .diffusion import sdedit_refine
from .errors import ConfigError, ParameterError, UsageError
from .metrics import motion_smoothness, psnr, score_video
from .models import (
    ToyAttentionDenoiser,
    TrainRecipe,
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

PIPELINES = ("t2i", "t2v", "iv", "vi", "evs", "iterated")
SWEEP_AXES = ("t_T2V", "t_V", "n_V", "gamma")
METRICS = ("ms", "sc", "iq", "psnr", "overall")

DATASET_MANIFEST = "dataset_manifest.json"
RUN_MANIFEST = "run_manifest.json"

# Selective operating points blend queries at the named shallow/deep layer
# sets; the one all-layers row is the full-feature reconstruction anchor.
_FRONTIER_LAYER_SETS = (("shallow", SHALLOW_LAYERS), ("deep", DEEP_LAYERS))
_FRONTIER_GAMMAS = (0.0, 0.25, 0.5, 0.8, 1.0)
_DOMINANCE_GRID = 41


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


def _manifest_base(cfg: dict, kind: str) -> dict:
    return {
        "manifest_version": evsio.MANIFEST_VERSION,
        "tool_version": evsio.TOOL_VERSION,
        "kind": kind,
        "config": cfg,
    }


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def cmd_gen(cfg: dict, out_dir) -> Path:
    """Write the input dataset: degraded videos, or styled off-prior ones."""
    out = _out_dir(out_dir)
    lab = build_lab(cfg)
    styled = bool(cfg["dataset"]["styled"])
    style = style_vector(cfg) if styled else None
    items = []
    for i in range(cfg["dataset"]["count"]):
        cond = item_condition(cfg, i, style)
        rng = np.random.default_rng(item_seed(cfg["seed"], i))
        if styled:
            video = sample_world(lab.spatial_world, cond, rng)
        else:
            video = make_degraded_video(
                lab.temporal_world, cond, cfg["dataset"]["flicker_sigma"], rng
            )
        name = f"item_{i:04d}.evslat"
        evsio.write_latents(out / name, [video])
        items.append({"file": name, "index": i, "mode_id": cond.mode_id, "styled": styled})
    manifest = _manifest_base(cfg, "dataset")
    manifest["items"] = items
    manifest["style"] = None if style is None else [float(x) for x in style]
    path = out / DATASET_MANIFEST
    evsio.write_json(path, manifest)
    return path


def load_dataset(dataset_dir) -> tuple[dict, list[tuple[int, np.ndarray]]]:
    dataset_dir = Path(dataset_dir)
    manifest = evsio.read_manifest(dataset_dir / DATASET_MANIFEST, "dataset")
    videos = []
    for item in manifest["items"]:
        path = dataset_dir / item["file"]
        item_videos = evsio.read_latents(path)
        if len(item_videos) != 1:
            raise ConfigError(f"{path} holds {len(item_videos)} videos; a dataset item holds one")
        videos.append((item["index"], item_videos[0]))
    return manifest, videos


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def _pipeline_noise_rng(cfg: dict, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([cfg["seed"], index, 7]))


def _evs_item_seed(cfg: dict, index: int) -> int:
    return int(np.random.SeedSequence([cfg["seed"], index]).generate_state(1)[0])


def _temporal_model_for(cfg: dict, pcfg: PipelineConfig, pipeline: str):
    """The tapped net when the temporal block needs taps, else the analytic model."""
    if pipeline == "evs" and pcfg.block_mode == BLOCK_INVERSION_SFI:
        return load_or_init_net(cfg)
    return None


def load_or_init_net(cfg: dict) -> ToyAttentionDenoiser:
    """The net at ``net.weights``, refused unless it was made for this config;
    a fresh one from ``net.seed`` when no weights are given."""
    fixed = {  # net field: (config key, value)
        "dim": ("dim", cfg["dim"]),
        "total_steps": ("schedule_v.steps", cfg["schedule_v"]["steps"]),
        "n_modes": ("world.modes", cfg["world"]["modes"]),
    }
    path = cfg["net"]["weights"]
    if not path:
        values = {field: value for field, (_, value) in fixed.items()}
        return ToyAttentionDenoiser(**values, seed=cfg["net"]["seed"])
    net = evsio.read_net(path)
    for field, (key, want) in fixed.items():
        if getattr(net, field) != want:
            raise ConfigError(f"{path}: net {field}={getattr(net, field)} but config {key}={want}")
    return net


def _execute(pipeline: str, lab: Lab, cfg: dict, pcfg: PipelineConfig, index, video, cond,
             trajectory=None):
    """Run one pipeline on one item; ``trajectory`` collects t2i/t2v step latents."""
    rng = _pipeline_noise_rng(cfg, index)
    if pipeline == "t2i":
        return run_t2i_only(video, pcfg.t_I, lab.models, cond, rng, trajectory=trajectory)
    if pipeline == "t2v":
        return run_t2v_only(video, pcfg.t_V, lab.models, cond, rng, trajectory=trajectory)
    if pipeline == "iv":
        return compose_iv(video, pcfg.t_I, pcfg.t_V, lab.models, cond, rng)
    if pipeline == "vi":
        return compose_vi(video, pcfg.t_V, pcfg.t_I, lab.models, cond, rng)
    if pipeline == "evs":
        return run_evs(video, pcfg, lab.models, cond, _evs_item_seed(cfg, index))
    if pipeline == "iterated":
        return run_iterated_baseline(video, pcfg.rounds, pcfg.t_I, pcfg.t_V, lab.models, cond, rng)
    raise UsageError(f"unknown pipeline {pipeline!r} (choose from {', '.join(PIPELINES)})")


def _scored_items(pipeline: str, lab: Lab, cfg: dict, pcfg: PipelineConfig, videos,
                  trajectory_dir=None):
    """Run ``pipeline`` on each item and score it, one item at a time.

    Yields ``(index, result, report)``.  With ``trajectory_dir`` each item's
    t2i/t2v step latents are written there as ``item_<index>.evstrj``.
    """
    for index, video in videos:
        cond = item_condition(cfg, index)
        traj = None if trajectory_dir is None else []
        result = _execute(pipeline, lab, cfg, pcfg, index, video, cond, trajectory=traj)
        if traj is not None:
            evsio.write_trajectory(trajectory_dir / f"item_{index:04d}.evstrj", traj)
        report = score_video(result.output, video, lab.spatial_world, cond, lab.metric_config)
        yield index, result, report


def cmd_run(pipeline: str, cfg: dict, dataset_dir, out_dir, trajectories: bool = False) -> Path:
    """Execute one pipeline over the dataset; write CSV, outputs, manifest."""
    if pipeline not in PIPELINES:
        raise UsageError(f"unknown pipeline {pipeline!r} (choose from {', '.join(PIPELINES)})")
    if trajectories and pipeline not in ("t2i", "t2v"):
        raise UsageError("--trajectories is only supported for the t2i and t2v pipelines")
    out = _out_dir(out_dir)
    pcfg = PipelineConfig(**cfg["pipeline"])
    lab = build_lab(cfg, temporal_override=_temporal_model_for(cfg, pcfg, pipeline))
    pcfg.validate(lab.sched_i, lab.sched_v)
    _, videos = load_dataset(dataset_dir)

    rows = []
    row_meta = []
    items = _scored_items(pipeline, lab, cfg, pcfg, videos, out if trajectories else None)
    for index, result, report in items:
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
        row_meta.append(
            {
                "index": index,
                "output_file": out_file,
                "nfe_t2i": result.nfe_t2i,
                "nfe_t2v": result.nfe_t2v,
                "stage_log": [[name, list(span)] for name, span in result.stage_log],
            }
        )
    evsio.write_metric_csv(out / "runs.csv", rows)
    manifest = _manifest_base(cfg, "run")
    manifest.update(
        {
            "pipeline": pipeline,
            "dataset": _dataset_record(dataset_dir),
            "schedules": {
                "spatial_alpha_bar": [float(x) for x in lab.sched_i.alpha_bar],
                "temporal_alpha_bar": [float(x) for x in lab.sched_v.alpha_bar],
            },
            "csv": "runs.csv",
            "rows": rows,
            "items": row_meta,
        }
    )
    path = out / RUN_MANIFEST
    evsio.write_json(path, manifest)
    return path


def rerun_from_manifest(manifest_path, out_dir) -> Path:
    """Re-execute a recorded run: its embedded config, checked again, on its unchanged dataset."""
    manifest = evsio.read_manifest(manifest_path, "run")
    dataset = manifest["dataset"]
    if evsio.file_sha256(Path(dataset["path"]) / DATASET_MANIFEST) != dataset["manifest_sha256"]:
        raise ConfigError(f"dataset {dataset['path']} changed since {manifest_path} was written")
    cfg = resolve_config(manifest["config"], seed_env=False)
    return cmd_run(manifest["pipeline"], cfg, dataset["path"], out_dir)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def cmd_sweep(axis: str, grid, cfg: dict, dataset_dir, out_dir) -> Path:
    """Run the encapsulated pipeline across one hyperparameter grid."""
    if axis not in SWEEP_AXES:
        raise UsageError(f"unknown sweep axis {axis!r} (choose from {', '.join(SWEEP_AXES)})")
    if not grid:
        raise ParameterError("sweep grid must be nonempty")
    out = _out_dir(out_dir)
    _, videos = load_dataset(dataset_dir)
    base = PipelineConfig(**cfg["pipeline"])
    # No sweep axis changes the block mode, so one lab serves every grid point.
    lab = build_lab(cfg, temporal_override=_temporal_model_for(cfg, base, "evs"))
    point_stats = []
    for value in grid:
        try:
            if axis != "gamma":
                pcfg = replace(base, **{axis: int(value)})
            elif base.injection is None:
                raise ConfigError("sweep axis gamma needs pipeline.injection, which is null")
            else:
                pcfg = replace(base, injection=replace(base.injection, gamma=float(value)))
            pcfg.validate(lab.sched_i, lab.sched_v)
        except ParameterError as exc:
            raise ParameterError(f"grid point {axis}={value}: {exc}") from exc
        reports = [report for _, _, report in _scored_items("evs", lab, cfg, pcfg, videos)]
        stats = {"value": value}
        for m in METRICS:
            arr = np.asarray([getattr(report, m) for report in reports])
            stats[f"{m}_mean"] = float(arr.mean())
            stats[f"{m}_stderr"] = float(arr.std(ddof=1) / np.sqrt(len(arr))) if len(arr) > 1 else 0.0
        point_stats.append(stats)

    manifest = _manifest_base(cfg, "sweep")
    manifest.update(
        {
            "axis": axis,
            "grid": list(grid),
            "dataset": _dataset_record(dataset_dir),
            "points": point_stats,
            "csv": "sweep.csv",
        }
    )
    manifest_path = out / "sweep_manifest.json"
    evsio.write_json(manifest_path, manifest)
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
            out / f"sweep_{m}.svg",
            f"{m} vs {axis}",
            axis,
            m,
            {m: (xs, [s[f"{m}_mean"] for s in point_stats])},
            mhash,
            error_bars={m: [s[f"{m}_stderr"] for s in point_stats]},
        )
    return manifest_path


# ---------------------------------------------------------------------------
# frontier
# ---------------------------------------------------------------------------


def frontier_dominance(points_a, points_b, grid_size: int = _DOMINANCE_GRID) -> float:
    """Fraction of the shared smoothness grid where frontier A attains at
    least B's best fidelity among points at or above each smoothness level."""

    def best_at(points, level):
        vals = [p for m, p in points if m >= level]
        return max(vals) if vals else None

    lo = max(min(m for m, _ in points_a), min(m for m, _ in points_b))
    hi = min(max(m for m, _ in points_a), max(m for m, _ in points_b))
    if hi <= lo:
        return 1.0
    wins = 0
    grid = np.linspace(lo, hi, grid_size)
    for level in grid:
        a = best_at(points_a, level)
        b = best_at(points_b, level)
        if a is not None and (b is None or a >= b):
            wins += 1
    return wins / len(grid)


def cmd_frontier(cfg: dict, dataset_dir, out_dir) -> Path:
    """Sweep both temporal-block modes on styled inputs and compare frontiers.

    The noising-denoising arm uses the analytic temporal denoiser; the
    injection arm uses the tapped net (trained here unless weights are
    provided).  Points are (motion smoothness, fidelity-to-input) means.
    """
    out = _out_dir(out_dir)
    ds_manifest, videos = load_dataset(dataset_dir)
    if ds_manifest.get("style") is None:
        raise ConfigError("frontier requires a styled dataset (gen --styled)")
    lab = build_lab(cfg)
    mcfg = lab.metric_config

    if cfg["net"]["weights"]:
        net = load_or_init_net(cfg)
        net_file = cfg["net"]["weights"]
    else:
        net = train_toy_denoiser(lab.temporal_world, lab.sched_v, TrainRecipe(**cfg["train"]))
        net_file = "net.evsnet"
        evsio.write_net(out / net_file, net)

    t_v = cfg["pipeline"]["t_V"]
    conds = {i: item_condition(cfg, i) for i, _ in videos}

    rows = []
    sdedit_pts = []
    for t_noise in range(0, lab.sched_v.total_steps + 1):
        ms_vals, ps_vals = [], []
        for index, video in videos:
            if t_noise == 0:
                refined = video
            else:
                rng = np.random.default_rng(np.random.SeedSequence([cfg["seed"], index, t_noise]))
                refined = sdedit_refine(
                    video, t_noise, 0, lab.models.temporal, conds[index], lab.sched_v, rng
                ).predicted_clean
            ms_vals.append(motion_smoothness(refined, mcfg.tau))
            ps_vals.append(psnr(refined, video, mcfg.psnr_peak))
        point = (float(np.mean(ms_vals)), float(np.mean(ps_vals)))
        sdedit_pts.append(point)
        rows.append({"method": "sdedit", "param": f"t={t_noise}", "ms": point[0], "psnr": point[1]})

    sfi_grid = [
        (name, layers, gamma, False)
        for name, layers in _FRONTIER_LAYER_SETS
        for gamma in _FRONTIER_GAMMAS
    ] + [("all", ALL_LAYERS, 1.0, True)]
    icfgs = [
        InjectionConfig(layers=layers, gamma=gamma, inject_f=inject_f)
        for _, layers, gamma, inject_f in sfi_grid
    ]
    # Each video is inverted once; its cache serves every operating point.
    ms_vals = [[] for _ in sfi_grid]
    ps_vals = [[] for _ in sfi_grid]
    for index, video in videos:
        z, cache, _ = invert_with_capture(video, t_v, net, conds[index], lab.sched_v)
        for k, icfg in enumerate(icfgs):
            refined = denoise_with_injection(
                z, t_v, t_v, net, conds[index], lab.sched_v, cache, icfg
            ).predicted_clean
            ms_vals[k].append(motion_smoothness(refined, mcfg.tau))
            ps_vals[k].append(psnr(refined, video, mcfg.psnr_peak))
    sfi_pts = []
    for (name, _, gamma, inject_f), ms, ps in zip(sfi_grid, ms_vals, ps_vals):
        point = (float(np.mean(ms)), float(np.mean(ps)))
        sfi_pts.append(point)
        label = f"{name},g={gamma}" + (",f" if inject_f else "")
        rows.append({"method": "sfi", "param": label, "ms": point[0], "psnr": point[1]})

    dominance = frontier_dominance(sfi_pts, sdedit_pts)
    manifest = _manifest_base(cfg, "frontier")
    manifest.update(
        {
            "dataset": _dataset_record(dataset_dir),
            "net_file": str(net_file),
            "rows": rows,
            "dominance": dominance,
            "csv": "frontier.csv",
        }
    )
    manifest_path = out / "frontier_manifest.json"
    evsio.write_json(manifest_path, manifest)
    mhash = evsio.file_sha256(manifest_path)
    evsio.write_metric_csv(out / "frontier.csv", rows, ["method", "param", "ms", "psnr"])
    evsio.svg_scatter(
        out / "frontier.svg",
        f"refinement frontier (dominance {dominance:.2f})",
        "motion smoothness",
        "psnr to input (dB)",
        {"sdedit": sdedit_pts, "sfi": sfi_pts},
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
    out = _out_dir(out_dir)
    runs = []
    for path in manifest_paths:
        runs.append(evsio.read_manifest(path, "run"))

    summary = {}
    for manifest in runs:
        name = manifest["pipeline"]
        rows = manifest["rows"]
        entry = summary.setdefault(name, {m: [] for m in (*METRICS, "wall_time", "nfe_total")})
        for row in rows:
            for m in (*METRICS, "wall_time"):
                entry[m].append(float(row[m]))
            entry["nfe_total"].append(int(row["nfe_t2i"]) + int(row["nfe_t2v"]))

    base_cfg = runs[0]["config"]
    if "iterated" in summary:
        baseline_nfe = float(np.mean(summary["iterated"]["nfe_total"]))
    else:
        p = PipelineConfig(**base_cfg["pipeline"])
        baseline_nfe = float(sum(t for _, t in iterated_stages(p.rounds, p.t_I, p.t_V)))

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

    manifest = _manifest_base(base_cfg, "report")
    manifest.update(
        {
            "inputs": [str(Path(p).resolve()) for p in manifest_paths],
            "baseline_nfe": baseline_nfe,
            "table": table,
            "csv": "summary.csv",
        }
    )
    manifest_path = out / "report_manifest.json"
    evsio.write_json(manifest_path, manifest)
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
    out = _out_dir(out_dir)
    lab = build_lab(cfg)
    net = train_toy_denoiser(lab.temporal_world, lab.sched_v, TrainRecipe(**cfg["train"]))
    evsio.write_net(out / "net.evsnet", net)
    manifest = _manifest_base(cfg, "train")
    manifest.update({"net_file": "net.evsnet", "train_report": net.train_report})
    path = out / "train_manifest.json"
    evsio.write_json(path, manifest)
    return path
