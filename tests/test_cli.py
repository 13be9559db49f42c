import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import evs
from evs import io as evsio
from evs.cli import main
from evs.config import DEFAULT_CONFIG
from evs.models import ToyAttentionDenoiser


def run_cli(*argv):
    return main([str(a) for a in argv])


def _dir_bytes(path, suffix):
    return {p.name: p.read_bytes() for p in sorted(Path(path).glob(f"*{suffix}"))}


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("ds")
    assert run_cli("gen", "--out", out, "--set", "dataset.count=3") == 0
    return out


class TestGen:
    def test_default_dataset_count(self):
        assert DEFAULT_CONFIG["dataset"]["count"] == 93

    def test_single_item(self, tmp_path):
        assert run_cli("gen", "--out", tmp_path, "--set", "dataset.count=1") == 0
        assert sorted(p.name for p in tmp_path.glob("*.evslat")) == ["item_0000.evslat"]
        manifest = evsio.read_json(tmp_path / "dataset_manifest.json")
        assert len(manifest["items"]) == 1

    def test_regeneration_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli("gen", "--out", out, "--set", "dataset.count=2") == 0
        assert _dir_bytes(a, ".evslat") == _dir_bytes(b, ".evslat")
        assert (a / "dataset_manifest.json").read_bytes() == (b / "dataset_manifest.json").read_bytes()

    def test_seed_changes_content(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli("gen", "--out", a, "--set", "dataset.count=1") == 0
        assert run_cli("gen", "--out", b, "--set", "dataset.count=1", "--seed", "5") == 0
        assert _dir_bytes(a, ".evslat") != _dir_bytes(b, ".evslat")

    def test_env_seed_override(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a", tmp_path / "b"
        monkeypatch.setenv("EVS_SEED", "5")
        assert run_cli("gen", "--out", a, "--set", "dataset.count=1") == 0
        monkeypatch.delenv("EVS_SEED")
        assert run_cli("gen", "--out", b, "--set", "dataset.count=1", "--seed", "5") == 0
        assert _dir_bytes(a, ".evslat") == _dir_bytes(b, ".evslat")
        assert evsio.read_json(a / "dataset_manifest.json")["config"]["seed"] == 5


class TestRun:
    def test_t2i_rows_and_nfe(self, small_dataset, tmp_path):
        assert run_cli("run", "t2i", "--dataset", small_dataset, "--out", tmp_path) == 0
        rows = evsio.read_metric_csv(tmp_path / "runs.csv")
        assert len(rows) == 3
        assert all(int(r["nfe_t2i"]) == 20 and int(r["nfe_t2v"]) == 0 for r in rows)

    def test_evs_stage_log_has_single_temporal_group(self, small_dataset, tmp_path):
        assert run_cli(
            "run", "evs", "--dataset", small_dataset, "--out", tmp_path,
            "--set", "pipeline.block_mode=sdedit", "--set", "pipeline.injection=null",
        ) == 0
        manifest = evsio.read_json(tmp_path / "run_manifest.json")
        for item in manifest["items"]:
            temporal = [s for s in item["stage_log"] if s[0].startswith("t2v")]
            assert len(temporal) == 1

    def test_rerun_from_manifest_is_byte_identical(self, small_dataset, tmp_path):
        first = tmp_path / "first"
        again = tmp_path / "again"
        assert run_cli("run", "evs", "--dataset", small_dataset, "--out", first) == 0
        assert run_cli("run", "--from-manifest", first / "run_manifest.json", "--out", again) == 0
        assert evsio.csv_without_wall_time(first / "runs.csv") == evsio.csv_without_wall_time(again / "runs.csv")
        assert _dir_bytes(first, ".evslat") == _dir_bytes(again, ".evslat")

    def test_rerun_accepts_manifest_with_single_thread_field(self, small_dataset, tmp_path):
        first = tmp_path / "first"
        again = tmp_path / "again"
        assert run_cli("run", "t2i", "--dataset", small_dataset, "--out", first) == 0
        manifest = evsio.read_json(first / "run_manifest.json")
        manifest["single_thread"] = True
        evsio.write_json(first / "run_manifest.json", manifest)
        assert run_cli("run", "--from-manifest", first / "run_manifest.json", "--out", again) == 0
        assert _dir_bytes(first, ".evslat") == _dir_bytes(again, ".evslat")

    def test_rerun_after_dataset_change_is_config_error(self, tmp_path):
        dataset, first, again = tmp_path / "ds", tmp_path / "first", tmp_path / "again"
        assert run_cli("gen", "--out", dataset, "--set", "dataset.count=1") == 0
        assert run_cli("run", "t2i", "--dataset", dataset, "--out", first) == 0
        assert run_cli("gen", "--out", dataset, "--set", "dataset.count=1", "--seed", "5") == 0
        assert run_cli("run", "--from-manifest", first / "run_manifest.json", "--out", again) == 3
        assert not again.exists()

    def test_rerun_rechecks_manifest_config(self, small_dataset, tmp_path):
        first = tmp_path / "first"
        assert run_cli("run", "t2i", "--dataset", small_dataset, "--out", first) == 0
        manifest = evsio.read_json(first / "run_manifest.json")
        manifest["config"]["seed"] = "a"
        evsio.write_json(first / "run_manifest.json", manifest)
        again = tmp_path / "again"
        assert run_cli("run", "--from-manifest", first / "run_manifest.json", "--out", again) == 3

    def test_trajectory_dump(self, small_dataset, tmp_path):
        assert run_cli(
            "run", "t2v", "--dataset", small_dataset, "--out", tmp_path, "--trajectories"
        ) == 0
        steps = evsio.read_trajectory(tmp_path / "item_0000.evstrj")
        assert len(steps) == 4  # default temporal strength

    def test_unknown_pipeline_is_usage_error(self, small_dataset, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "t2x", "--dataset", small_dataset, "--out", tmp_path)
        assert exc.value.code == 2

    def test_run_without_pipeline_is_usage_error(self, small_dataset, tmp_path):
        assert run_cli("run", "--dataset", small_dataset, "--out", tmp_path) == 2

    def test_missing_dataset_is_io_error(self, tmp_path):
        assert run_cli("run", "t2i", "--dataset", tmp_path / "nope", "--out", tmp_path / "o") == 4

    def test_bad_config_value_is_config_error(self, small_dataset, tmp_path):
        code = run_cli(
            "run", "t2i", "--dataset", small_dataset, "--out", tmp_path,
            "--set", "pipeline.t_T2V=40",
        )
        assert code == 3

    def test_unknown_config_key_is_config_error(self, small_dataset, tmp_path):
        code = run_cli(
            "run", "t2i", "--dataset", small_dataset, "--out", tmp_path,
            "--set", "pipelines.t_I=10",
        )
        assert code == 3

    def test_config_type_mismatch_is_config_error(self, small_dataset, tmp_path):
        for assignments in (
            ["seed.x=1"], ["pipeline=5"], ["seed=1", "seed.x=1"], ['seed="a"'], ["seed=true"],
            ["world=null"], ["pipeline.injection.layers=2"], ["pipeline.t_I=20.5"],
        ):
            sets = [arg for a in assignments for arg in ("--set", a)]
            code = run_cli("run", "t2i", "--dataset", small_dataset, "--out", tmp_path, *sets)
            assert code == 3, assignments

    def test_injection_null_only_matters_to_evs(self, small_dataset, tmp_path, capsys):
        for pipeline in ("t2i", "t2v", "iv", "vi", "iterated"):
            assert run_cli(
                "run", pipeline, "--dataset", small_dataset, "--out", tmp_path / pipeline,
                "--set", "pipeline.injection=null",
            ) == 0, pipeline
        out = tmp_path / "evs"
        code = run_cli(
            "run", "evs", "--dataset", small_dataset, "--out", out,
            "--set", "pipeline.injection=null",
        )
        assert code == 3
        assert "requires an injection config" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_truncated_item_is_config_error(self, tmp_path):
        dataset = tmp_path / "ds"
        assert run_cli("gen", "--out", dataset, "--set", "dataset.count=1") == 0
        item = dataset / "item_0000.evslat"
        item.write_bytes(item.read_bytes()[:-3])
        assert run_cli("run", "t2i", "--dataset", dataset, "--out", tmp_path / "o") == 3

    @pytest.mark.parametrize(
        "spoil", ["empty_manifest", "non_utf8_manifest", "list_config", "run_manifest_as_dataset",
                  "two_videos_per_item"],
    )
    def test_unreadable_input_is_config_error(self, small_dataset, tmp_path, spoil):
        dataset = tmp_path / "ds"
        shutil.copytree(small_dataset, dataset)
        manifest = dataset / "dataset_manifest.json"
        extra = []
        if spoil == "empty_manifest":
            manifest.write_text("[]")
        elif spoil == "non_utf8_manifest":
            manifest.write_bytes(b"\xff" + manifest.read_bytes())
        elif spoil == "list_config":
            (tmp_path / "config.json").write_text("[1, 2]")
            extra = ["--config", tmp_path / "config.json"]
        elif spoil == "run_manifest_as_dataset":
            assert run_cli("run", "t2i", "--dataset", dataset, "--out", tmp_path / "run") == 0
            shutil.copy(tmp_path / "run" / "run_manifest.json", manifest)
        else:
            item = dataset / "item_0000.evslat"
            evsio.write_latents(item, evsio.read_latents(item) * 2)
        assert run_cli("run", "t2i", "--dataset", dataset, "--out", tmp_path / "o", *extra) == 3

    def test_weights_for_another_config_are_config_error(self, small_dataset, tmp_path, capsys):
        for field, value, key in (
            ("total_steps", 12, "schedule_v.steps"), ("n_modes", 2, "world.modes"), ("dim", 8, "dim"),
        ):
            weights = tmp_path / f"{field}.evsnet"
            evsio.write_net(weights, ToyAttentionDenoiser(**{field: value}))
            code = run_cli(
                "run", "evs", "--dataset", small_dataset, "--out", tmp_path / field,
                "--set", f"net.weights={weights}",
            )
            assert code == 3, field
            assert f"config {key}=" in capsys.readouterr().err

    def test_injection_layer_outside_net_is_config_error(self, small_dataset, tmp_path):
        code = run_cli(
            "run", "evs", "--dataset", small_dataset, "--out", tmp_path,
            "--set", "pipeline.injection.layers=[7]",
        )
        assert code == 3


class TestSweep:
    def test_single_point_matches_run(self, small_dataset, tmp_path):
        common = [
            "--dataset", small_dataset,
            "--set", "pipeline.block_mode=sdedit", "--set", "pipeline.injection=null",
        ]
        assert run_cli("sweep", "t_V", "--grid", "4", "--out", tmp_path / "sw", *common) == 0
        assert run_cli("run", "evs", "--out", tmp_path / "run", *common) == 0
        sweep_rows = list(Path(tmp_path / "sw" / "sweep.csv").read_text().splitlines())
        run_rows = evsio.read_metric_csv(tmp_path / "run" / "runs.csv")
        ms_mean = float(sweep_rows[1].split(",")[1])
        assert ms_mean == pytest.approx(np.mean([float(r["ms"]) for r in run_rows]), rel=1e-12)

    def test_invalid_grid_point_names_the_point(self, small_dataset, tmp_path, capsys):
        code = run_cli(
            "sweep", "t_V", "--grid", "2,9", "--dataset", small_dataset, "--out", tmp_path,
            "--set", "pipeline.block_mode=sdedit", "--set", "pipeline.injection=null",
        )
        assert code == 3
        assert "t_V=9" in capsys.readouterr().err

    def test_gamma_without_injection_is_config_error(self, small_dataset, tmp_path, capsys):
        code = run_cli(
            "sweep", "gamma", "--grid", "0.5", "--dataset", small_dataset, "--out", tmp_path,
            "--set", "pipeline.block_mode=sdedit", "--set", "pipeline.injection=null",
        )
        assert code == 3
        assert "pipeline.injection" in capsys.readouterr().err

    def test_writes_plots_per_metric(self, small_dataset, tmp_path):
        assert run_cli(
            "sweep", "n_V", "--grid", "1,2", "--dataset", small_dataset, "--out", tmp_path,
            "--set", "pipeline.block_mode=sdedit", "--set", "pipeline.injection=null",
        ) == 0
        for metric in ("ms", "sc", "iq", "psnr", "overall"):
            assert (tmp_path / f"sweep_{metric}.svg").exists()

    def test_sweep_outputs_are_byte_reproducible(self, small_dataset, tmp_path):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for out in dirs:
            assert run_cli(
                "sweep", "t_V", "--grid", "2,4", "--dataset", small_dataset, "--out", out,
                "--set", "pipeline.block_mode=sdedit", "--set", "pipeline.injection=null",
            ) == 0
        for name in ("sweep.csv", "sweep_ms.svg", "sweep_manifest.json"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


@pytest.fixture(scope="module")
def styled_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("styled")
    assert run_cli("gen", "--styled", "--out", out, "--set", "dataset.count=3") == 0
    return out


class TestFrontier:
    def test_trivial_rows_and_outputs(self, styled_dataset, tmp_path):
        assert run_cli(
            "frontier", "--dataset", styled_dataset, "--out", tmp_path,
            "--set", "train.steps=60",
        ) == 0
        manifest = evsio.read_json(tmp_path / "frontier_manifest.json")
        rows = {(r["method"], r["param"]): r for r in manifest["rows"]}
        input_ms = rows[("sdedit", "t=0")]["ms"]
        assert rows[("sdedit", "t=0")]["psnr"] == 99.0
        anchor = rows[("sfi", "all,g=1.0,f")]
        assert anchor["psnr"] == 99.0
        assert anchor["ms"] == pytest.approx(input_ms, abs=1e-6)
        assert (tmp_path / "frontier.svg").exists()
        assert (tmp_path / "net.evsnet").exists()

    def test_weights_for_another_schedule_are_config_error(self, styled_dataset, tmp_path, capsys):
        weights = tmp_path / "net.evsnet"
        evsio.write_net(weights, ToyAttentionDenoiser(total_steps=12))
        code = run_cli("frontier", "--dataset", styled_dataset, "--out", tmp_path / "o", "--net", weights)
        assert code == 3
        assert "config schedule_v.steps=8" in capsys.readouterr().err

    def test_requires_styled_dataset(self, small_dataset, tmp_path):
        code = run_cli(
            "frontier", "--dataset", small_dataset, "--out", tmp_path,
            "--set", "train.steps=10",
        )
        assert code == 3


class TestReportAndTrain:
    def test_single_manifest_aggregation(self, small_dataset, tmp_path):
        run_dir = tmp_path / "run"
        assert run_cli("run", "t2i", "--dataset", small_dataset, "--out", run_dir) == 0
        assert run_cli("report", run_dir / "run_manifest.json", "--out", tmp_path / "rep") == 0
        report = evsio.read_json(tmp_path / "rep" / "report_manifest.json")
        rows = evsio.read_metric_csv(run_dir / "runs.csv")
        entry = report["table"][0]
        assert entry["pipeline"] == "t2i"
        assert entry["ms"] == pytest.approx(np.mean([float(r["ms"]) for r in rows]), rel=1e-12)
        assert (tmp_path / "rep" / "summary.svg").exists()

    def test_default_speedup_ratio(self, small_dataset, tmp_path):
        run_dir = tmp_path / "run"
        assert run_cli("run", "evs", "--dataset", small_dataset, "--out", run_dir) == 0
        assert run_cli("report", run_dir / "run_manifest.json", "--out", tmp_path / "rep") == 0
        report = evsio.read_json(tmp_path / "rep" / "report_manifest.json")
        entry = next(r for r in report["table"] if r["pipeline"] == "evs")
        assert entry["nfe_total"] == 26
        assert entry["speedup"] == pytest.approx(48 / 26)

    def test_fallback_baseline_follows_rounds(self, small_dataset, tmp_path):
        # Without an iterated run the baseline is the iterated stages' cost:
        # rounds=3 is iv + vi + iv + a trailing t2i, 3 * (20 + 4) + 20.
        run_dir = tmp_path / "run"
        assert run_cli(
            "run", "evs", "--dataset", small_dataset, "--out", run_dir,
            "--set", "pipeline.rounds=3",
        ) == 0
        assert run_cli("report", run_dir / "run_manifest.json", "--out", tmp_path / "rep") == 0
        report = evsio.read_json(tmp_path / "rep" / "report_manifest.json")
        assert report["baseline_nfe"] == 92

    def test_report_rejects_non_run_manifest(self, small_dataset, tmp_path):
        code = run_cli("report", small_dataset / "dataset_manifest.json", "--out", tmp_path)
        assert code == 3

    def test_report_ranks_encapsulated_pipeline_first(self, tmp_path):
        ds = tmp_path / "ds"
        assert run_cli("gen", "--out", ds, "--set", "dataset.count=12") == 0
        manifests = []
        for pipeline in ("t2i", "t2v", "iv", "vi", "evs", "iterated"):
            run_dir = tmp_path / f"run_{pipeline}"
            argv = ["run", pipeline, "--dataset", ds, "--out", run_dir]
            if pipeline == "evs":
                argv += ["--set", "pipeline.block_mode=sdedit", "--set", "pipeline.injection=null"]
            assert run_cli(*argv) == 0
            manifests.append(run_dir / "run_manifest.json")
        assert run_cli("report", *manifests, "--out", tmp_path / "rep") == 0
        report = evsio.read_json(tmp_path / "rep" / "report_manifest.json")
        assert report["table"][0]["pipeline"] == "evs"
        assert report["baseline_nfe"] == 48.0

    def test_run_manifest_embeds_schedules(self, small_dataset, tmp_path):
        assert run_cli("run", "t2v", "--dataset", small_dataset, "--out", tmp_path) == 0
        manifest = evsio.read_json(tmp_path / "run_manifest.json")
        spatial = manifest["schedules"]["spatial_alpha_bar"]
        temporal = manifest["schedules"]["temporal_alpha_bar"]
        assert len(spatial) == 51 and spatial[0] == 1.0
        assert len(temporal) == 9 and temporal[0] == 1.0

    def test_train_writes_weights(self, tmp_path):
        assert run_cli("train", "--out", tmp_path, "--set", "train.steps=30") == 0
        net = evsio.read_net(tmp_path / "net.evsnet")
        assert net.blocks == 4
        manifest = evsio.read_json(tmp_path / "train_manifest.json")
        assert manifest["train_report"]["final_loss"] < manifest["train_report"]["initial_loss"]

    def test_diverged_training_is_numeric_error(self, tmp_path):
        paths = [str(Path(evs.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        proc = subprocess.run(
            [sys.executable, "-m", "evs.cli", "train", "--out", str(tmp_path),
             "--set", "train.lr=1e6", "--set", "train.steps=40"],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 5
        assert "numeric error" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert "RuntimeWarning" not in proc.stderr


class TestTracerBindings:
    """The benchmark's tracer wraps evs functions by name from outside;
    a renamed or rebound function would silently drop its spans."""

    def _traced_spans(self, tmp_path, commands):
        """Run ``commands`` in one ``benchmark/child.py`` process; return its spans."""
        root = Path(__file__).resolve().parents[1]
        paths = [str(Path(evs.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        proc = subprocess.run(
            [sys.executable, str(root / "benchmark" / "child.py"), "run", json.dumps(commands),
             str(tmp_path / "rss"), str(tmp_path / "spans.json")],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads((tmp_path / "spans.json").read_text())["spans"]

    def test_traced_evs_run_records_every_layer(self, tmp_path):
        ds = tmp_path / "ds"
        assert run_cli("gen", "--out", ds, "--set", "dataset.count=2") == 0
        commands = [["run", "evs", "--dataset", str(ds), "--out", str(tmp_path / "run")]]
        names = [span[0] for span in self._traced_spans(tmp_path, commands)]
        for name in ("compose.pipeline", "diffusion.walk", "sfi.invert", "sfi.inject",
                     "models.net_capture", "models.net_inject", "metrics.score_video"):
            assert name in names
        evals = sum(name.startswith(("models.eps_", "models.net_")) for name in names)
        rows = evsio.read_metric_csv(tmp_path / "run" / "runs.csv")
        assert evals == sum(int(r["nfe_t2i"]) + int(r["nfe_t2v"]) for r in rows)

    def test_traced_ablation_records_each_item_once(self, tmp_path):
        """The benchmark's ablation workload: six pipelines and a report in one process."""
        ds = tmp_path / "ds"
        assert run_cli("gen", "--out", ds, "--set", "dataset.count=2") == 0
        pipelines = ("t2i", "t2v", "iv", "vi", "evs", "iterated")
        commands = []
        for pipeline in pipelines:
            argv = ["run", pipeline, "--dataset", str(ds), "--out", str(tmp_path / pipeline)]
            if pipeline == "evs":
                argv += ["--set", "pipeline.block_mode=sdedit", "--set", "pipeline.injection=null"]
            commands.append(argv)
        manifests = [str(tmp_path / pipeline / "run_manifest.json") for pipeline in pipelines]
        commands.append(["report", *manifests, "--out", str(tmp_path / "report")])
        spans = self._traced_spans(tmp_path, commands)
        names = [span[0] for span in spans]
        assert "bench.cmd_report" in names
        for pipeline in pipelines:
            items = [s[4] for s in spans if s[0] == "compose.pipeline" and s[4].startswith(f"{pipeline}:")]
            assert sorted(items) == [f"{pipeline}:0", f"{pipeline}:1"]
            evals = sum(
                s[0].startswith(("models.eps_", "models.net_")) and s[4].startswith(f"{pipeline}:")
                for s in spans
            )
            rows = evsio.read_metric_csv(tmp_path / pipeline / "runs.csv")
            assert evals == sum(int(r["nfe_t2i"]) + int(r["nfe_t2v"]) for r in rows), pipeline
