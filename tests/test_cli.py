import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import evs
from evs import bench
from evs import io as evsio
from evs.cli import main
from evs.config import DEFAULT_CONFIG, build_lab
from evs.models import MODES, ToyAttentionDenoiser, sample_world


def run_cli(*argv):
    return main([str(a) for a in argv])


def _src_env():
    """The environment for a child process that imports this checkout's ``evs``."""
    paths = [str(Path(evs.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


def _dir_bytes(path, suffix):
    return {p.name: p.read_bytes() for p in sorted(Path(path).glob(f"*{suffix}"))}


# The frontier needs net.weights; a 4-block net fits its layer sets.
NET4 = ["--set", "net.weights=NET4"]
# One setting of each config section or key that became code.
DELETED_KEYS = ("world.rho=0.9", "schedule_i.beta_end=0.03", "schedule_v.steps=9",
                "dataset.style_scale=2", "dataset.flicker_sigma=0.4", "frames=8", "dim=32")


def _record_videos_sha256(dataset):
    """Record the sha256 of ``dataset``'s video file in its manifest, as ``evs gen``
    does, so an edited file reaches the checks after the sha256 check."""
    manifest = evsio.read_json(dataset / bench.DATASET_MANIFEST)
    manifest["latents_sha256"] = evsio.file_sha256(dataset / bench.DATASET_LATENTS)
    evsio.write_json(dataset / bench.DATASET_MANIFEST, manifest)


def _empty_videos(dataset):
    """Cut ``dataset``'s video file to its header, with the header's video count set to 0."""
    path = dataset / bench.DATASET_LATENTS
    header = bytearray(path.read_bytes()[:24])
    header[16:20] = bytes(4)
    path.write_bytes(bytes(header))
    _record_videos_sha256(dataset)


# Where a weights file records each shape value: (byte offset, dtype), in
# the header (dim, embed) or at the head of the payload.
_NET_FIELDS = {"dim": (8, "<u4"), "embed": (12, "<u4"), "blocks": (24, "<f8"),
               "total_steps": (32, "<f8"), "n_modes": (40, "<f8")}


def _off_shape_net(path, field, value):
    """Write the default net to ``path`` with its ``field`` patched to ``value``,
    as a net of another shape would record it."""
    evsio.write_net(path, ToyAttentionDenoiser())
    raw = bytearray(path.read_bytes())
    offset, dtype = _NET_FIELDS[field]
    patch = np.array(value, dtype=dtype).tobytes()
    raw[offset : offset + len(patch)] = patch
    path.write_bytes(bytes(raw))


def _placed(arg, places):
    """``arg`` with a place name, alone or as the value of a ``--set``, replaced by its path."""
    key, eq, value = arg.rpartition("=")
    if eq and value in places:
        return f"{key}={places[value]}"
    return places.get(arg, arg)


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
        assert sorted(p.name for p in tmp_path.glob("*.evslat")) == ["videos.evslat"]
        assert len(evsio.read_latents(tmp_path / "videos.evslat")) == 1
        manifest = evsio.read_json(tmp_path / "dataset_manifest.json")
        assert manifest["latents_sha256"] == evsio.file_sha256(tmp_path / "videos.evslat")
        assert "items" not in manifest

    def test_empty_dataset_is_config_error(self, tmp_path, capsys):
        assert run_cli("gen", "--out", tmp_path / "ds", "--set", "dataset.count=0") == 3
        assert "dataset.count must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "ds").exists()

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

    def test_main_builds_one_parser_per_process(self, tmp_path):
        from evs import cli

        parser = cli.build_parser()
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli("gen", "--out", a, "--set", "dataset.count=1", "--set", "dataset.styled=true") == 0
        assert run_cli("gen", "--out", b, "--set", "dataset.count=2") == 0
        assert cli.build_parser() is parser
        assert cli.build_parser.cache_info().misses == 1
        # The first call's --set list does not reach the second call.
        styled = [evsio.read_json(d / "dataset_manifest.json")["style"] is not None for d in (a, b)]
        assert styled == [True, False]
        assert [len(evsio.read_latents(d / "videos.evslat")) for d in (a, b)] == [1, 2]
        assert parser.parse_args(["train", "--out", "x"]).set == []

    def test_styled_videos_are_world_samples_plus_the_style(self, styled_dataset):
        """Item ``i`` of a styled dataset is a spatial-world sample of mode
        ``i % MODES`` from the item's seed, plus the style offset that
        only ``gen`` adds, bit for bit."""
        manifest = evsio.read_json(styled_dataset / bench.DATASET_MANIFEST)
        cfg = manifest["config"]
        world, style = build_lab(cfg).spatial_world, bench.style_vector(cfg)
        assert manifest["style"] == [float(x) for x in style]
        videos = evsio.read_latents(styled_dataset / bench.DATASET_LATENTS)
        assert len(videos) == 3
        for i, video in enumerate(videos):
            rng = np.random.default_rng(bench.item_seed(cfg["seed"], i))
            want = sample_world(world, i % MODES, rng) + style
            np.testing.assert_array_equal(video, want)


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
        temporal = [s for s in manifest["plan"] if s[0].startswith("t2v")]
        assert temporal == [["t2v:sdedit", [4, 2]]]
        assert manifest["items"] == [{"index": i, "output_file": f"item_{i:04d}.out.evslat"} for i in range(3)]

    def test_rerun_from_manifest_is_byte_identical(self, small_dataset, tmp_path):
        first = tmp_path / "first"
        again = tmp_path / "again"
        assert run_cli("run", "evs", "--dataset", small_dataset, "--out", first) == 0
        assert run_cli("rerun", first / "run_manifest.json", "--out", again) == 0
        assert evsio.csv_without_wall_time(first / "runs.csv") == evsio.csv_without_wall_time(again / "runs.csv")
        assert _dir_bytes(first, ".evslat") == _dir_bytes(again, ".evslat")
        manifests = [evsio.read_json(out / "run_manifest.json") for out in (first, again)]
        for manifest in manifests:
            for row in manifest["rows"]:
                del row["wall_time"]
        assert manifests[0] == manifests[1]

    def test_rerun_accepts_manifest_with_single_thread_field(self, small_dataset, tmp_path):
        first = tmp_path / "first"
        again = tmp_path / "again"
        assert run_cli("run", "t2i", "--dataset", small_dataset, "--out", first) == 0
        manifest = evsio.read_json(first / "run_manifest.json")
        manifest["single_thread"] = True
        evsio.write_json(first / "run_manifest.json", manifest)
        assert run_cli("rerun", first / "run_manifest.json", "--out", again) == 0
        assert _dir_bytes(first, ".evslat") == _dir_bytes(again, ".evslat")

    def test_rerun_after_dataset_change_is_config_error(self, tmp_path):
        dataset, first, again = tmp_path / "ds", tmp_path / "first", tmp_path / "again"
        assert run_cli("gen", "--out", dataset, "--set", "dataset.count=1") == 0
        assert run_cli("run", "t2i", "--dataset", dataset, "--out", first) == 0
        assert run_cli("gen", "--out", dataset, "--set", "dataset.count=1", "--seed", "5") == 0
        assert run_cli("rerun", first / "run_manifest.json", "--out", again) == 3
        assert not again.exists()

    @pytest.mark.parametrize("recorded, refusal", [
        (False, "does not match the latents_sha256"), (True, "changed since"),
    ], ids=["video", "video-and-sha256"])
    def test_rerun_after_video_change_is_config_error(
        self, small_dataset, tmp_path, capsys, recorded, refusal
    ):
        """The dataset manifest records its video file's sha256, so a video changed
        after the run is refused: by the file's sha256, or, when that is recorded
        again, by the manifest's."""
        dataset, first, again = tmp_path / "ds", tmp_path / "first", tmp_path / "again"
        shutil.copytree(small_dataset, dataset)
        assert run_cli("run", "t2i", "--dataset", dataset, "--out", first) == 0
        videos = evsio.read_latents(dataset / bench.DATASET_LATENTS)
        videos[1] = videos[1] + 1e-9
        evsio.write_latents(dataset / bench.DATASET_LATENTS, videos)
        if recorded:
            _record_videos_sha256(dataset)
        assert run_cli("rerun", first / "run_manifest.json", "--out", again) == 3
        assert refusal in capsys.readouterr().err
        assert not again.exists()

    def test_per_item_dataset_of_version_1_is_config_error(self, tmp_path, capsys):
        """A dataset of one file per item, from before one file held them all, is
        refused with the command that writes it again."""
        dataset = tmp_path / "ds"
        dataset.mkdir()
        evsio.write_latents(dataset / "item_0000.evslat", [np.zeros((16, 64))])
        evsio.write_json(dataset / "dataset_manifest.json", {
            "manifest_version": 1, "tool_version": "0.1.0", "kind": "dataset",
            "config": DEFAULT_CONFIG, "style": None,
            "items": [{"file": "item_0000.evslat", "index": 0, "mode_id": 0, "styled": False}],
        })
        assert run_cli("run", "t2i", "--dataset", dataset, "--out", tmp_path / "out") == 3
        assert "`evs gen`" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("extra", [
        ["--set", "pipeline.t_I=5", "--seed", "9"], ["--seed", "0"], ["--config", "CONFIG"],
        ["--dataset", "SMALL"], ["t2i", "--dataset", "SMALL"], ["t2i"],
    ], ids=["set-seed", "seed-0", "config", "dataset", "pipeline-dataset", "pipeline"])
    def test_rerun_refuses_flags_it_would_ignore(self, small_dataset, tmp_path, capsys, extra):
        """A rerun takes its pipeline, config and dataset from the manifest."""
        first = tmp_path / "first"
        assert run_cli("run", "t2i", "--dataset", small_dataset, "--out", first) == 0
        evsio.write_json(tmp_path / "config.json", {})
        places = {"SMALL": small_dataset, "CONFIG": tmp_path / "config.json"}
        again = tmp_path / "again"
        argv = ["rerun", first / "run_manifest.json", "--out", again]
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, *(places.get(a, a) for a in extra))
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not again.exists()

    def test_rerun_after_weights_change_is_config_error(self, small_dataset, tmp_path, capsys):
        """A run that loads net.weights records their sha256, and a rerun refuses other weights."""
        weights, first, again = tmp_path / "net.evsnet", tmp_path / "first", tmp_path / "again"
        evsio.write_net(weights, ToyAttentionDenoiser(seed=1))
        assert run_cli("run", "evs", "--dataset", small_dataset, "--out", first,
                       "--set", f"net.weights={weights}") == 0
        manifest = evsio.read_json(first / "run_manifest.json")
        assert manifest["weights_sha256"] == evsio.file_sha256(weights)
        assert run_cli("rerun", first / "run_manifest.json", "--out", again) == 0
        assert _dir_bytes(first, ".evslat") == _dir_bytes(again, ".evslat")
        evsio.write_net(weights, ToyAttentionDenoiser(seed=5))
        assert run_cli("rerun", first / "run_manifest.json", "--out", tmp_path / "third") == 3
        assert "net.weights do not match" in capsys.readouterr().err
        assert not (tmp_path / "third").exists()

    def test_rerun_loads_the_net_and_hashes_each_input_once(
        self, small_dataset, tmp_path, monkeypatch
    ):
        weights, first = tmp_path / "net.evsnet", tmp_path / "first"
        evsio.write_net(weights, ToyAttentionDenoiser(seed=1))
        assert run_cli("run", "evs", "--dataset", small_dataset, "--out", first,
                       "--set", f"net.weights={weights}") == 0
        loads, hashed = [], []
        load, sha256 = bench.load_or_init_net, evsio.file_sha256
        monkeypatch.setattr(bench, "load_or_init_net", lambda cfg: loads.append(cfg) or load(cfg))
        monkeypatch.setattr(evsio, "file_sha256",
                            lambda path: hashed.append(Path(path).name) or sha256(path))
        assert run_cli("rerun", first / "run_manifest.json", "--out", tmp_path / "again") == 0
        assert len(loads) == 1
        assert hashed.count(weights.name) == hashed.count(bench.DATASET_MANIFEST) == 1

    def test_relative_weights_path_is_recorded_absolute(self, small_dataset, tmp_path, monkeypatch):
        """A rerun finds weights given by a relative path from any directory."""
        (tmp_path / "w2").mkdir()
        evsio.write_net(tmp_path / "w2" / "net.evsnet", ToyAttentionDenoiser(seed=1))
        monkeypatch.chdir(tmp_path)
        assert run_cli("run", "evs", "--dataset", small_dataset, "--out", "first",
                       "--set", "net.weights=w2/net.evsnet") == 0
        manifest = evsio.read_json(tmp_path / "first" / "run_manifest.json")
        assert manifest["config"]["net"]["weights"] == str((tmp_path / "w2" / "net.evsnet").resolve())
        monkeypatch.chdir(tmp_path.parent)
        again = tmp_path / "again"
        assert run_cli("rerun", tmp_path / "first" / "run_manifest.json", "--out", again) == 0
        assert _dir_bytes(tmp_path / "first", ".evslat") == _dir_bytes(again, ".evslat")

    @pytest.mark.parametrize("argv", [
        ["run", "t2i", "--dataset", "SMALL", "--set", "net.weights=NET"],
        ["run", "evs", "--dataset", "SMALL"],
        ["run", "evs", "--dataset", "SMALL", "--set", "net.weights=NET",
         "--set", "pipeline.block_mode=sdedit", "--set", "pipeline.injection=null"],
    ], ids=["t2i-with-weights", "evs-random-init", "evs-sdedit-with-weights"])
    def test_only_a_run_that_loads_weights_records_their_hash(self, small_dataset, tmp_path, argv):
        evsio.write_net(tmp_path / "net.evsnet", ToyAttentionDenoiser())
        places = {"SMALL": small_dataset, "NET": tmp_path / "net.evsnet"}
        assert run_cli(*(_placed(a, places) for a in argv), "--out", tmp_path / "out") == 0
        assert "weights_sha256" not in evsio.read_json(tmp_path / "out" / "run_manifest.json")

    @pytest.mark.parametrize("argv", [
        ["run", "evs", "--dataset", "SMALL"],
        ["sweep", "gamma", "--grid", "0.5", "--dataset", "SMALL"],
        ["frontier", "--dataset", "STYLED"],
    ], ids=["run-evs", "sweep-gamma", "frontier"])
    def test_each_command_that_loads_weights_records_their_hash(
        self, small_dataset, styled_dataset, tmp_path, argv
    ):
        weights = tmp_path / "net.evsnet"
        evsio.write_net(weights, ToyAttentionDenoiser(seed=1))
        places = {"SMALL": small_dataset, "STYLED": styled_dataset}
        out = tmp_path / "out"
        assert run_cli(*(_placed(a, places) for a in argv), "--set", f"net.weights={weights}",
                       "--out", out) == 0
        (manifest,) = out.glob("*_manifest.json")
        assert evsio.read_json(manifest)["weights_sha256"] == evsio.file_sha256(weights)

    def test_rerun_rechecks_manifest_config(self, small_dataset, tmp_path):
        first = tmp_path / "first"
        assert run_cli("run", "t2i", "--dataset", small_dataset, "--out", first) == 0
        manifest = evsio.read_json(first / "run_manifest.json")
        manifest["config"]["seed"] = "a"
        evsio.write_json(first / "run_manifest.json", manifest)
        again = tmp_path / "again"
        assert run_cli("rerun", first / "run_manifest.json", "--out", again) == 3

    def test_trajectories_flag_is_usage_error(self, small_dataset, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "t2v", "--dataset", small_dataset, "--out", tmp_path, "--trajectories")
        assert exc.value.code == 2

    def test_unknown_pipeline_is_usage_error(self, small_dataset, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "t2x", "--dataset", small_dataset, "--out", tmp_path)
        assert exc.value.code == 2

    def test_run_without_pipeline_is_usage_error(self, small_dataset, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--dataset", small_dataset, "--out", tmp_path / "out")
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["gen", "--styled", "--set", "dataset.count=1"],
        ["frontier", "--dataset", "STYLED", "--net", "NET"],
        ["run", "--from-manifest", "MANIFEST"],
    ], ids=["gen-styled", "frontier-net", "run-from-manifest"])
    def test_removed_spellings_are_usage_errors(self, styled_dataset, tmp_path, argv):
        """Each input has one spelling: ``--set dataset.styled=true``,
        ``--set net.weights=PATH`` and ``evs rerun MANIFEST``."""
        evsio.write_net(tmp_path / "net.evsnet", ToyAttentionDenoiser())
        places = {"STYLED": styled_dataset, "NET": tmp_path / "net.evsnet",
                  "MANIFEST": tmp_path / "run_manifest.json"}
        with pytest.raises(SystemExit) as exc:
            run_cli(*(places.get(a, a) for a in argv), "--out", tmp_path / "out")
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

    def test_evs_seed_environment_variable_has_no_effect(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli("gen", "--out", a, "--set", "dataset.count=1") == 0
        for value in ("5", "-1", "x"):
            monkeypatch.setenv("EVS_SEED", value)
            assert run_cli("gen", "--out", b, "--set", "dataset.count=1") == 0
            assert _dir_bytes(a, ".evslat") == _dir_bytes(b, ".evslat")
            assert evsio.read_json(b / "dataset_manifest.json")["config"]["seed"] == 0

    def test_unknown_config_key_is_config_error(self, small_dataset, tmp_path):
        code = run_cli(
            "run", "t2i", "--dataset", small_dataset, "--out", tmp_path,
            "--set", "pipelines.t_I=10",
        )
        assert code == 3

    def test_config_type_mismatch_is_config_error(self, small_dataset, tmp_path):
        for assignments in (
            ["seed.x=1"], ["pipeline=5"], ["seed=1", "seed.x=1"], ['seed="a"'], ["seed=true"],
            ["dataset=null"], ["pipeline.injection.layers=2"], ["pipeline.t_I=20.5"],
        ):
            sets = [arg for a in assignments for arg in ("--set", a)]
            code = run_cli("run", "t2i", "--dataset", small_dataset, "--out", tmp_path, *sets)
            assert code == 3, assignments

    def test_injection_null_is_refused_by_every_pipeline(self, small_dataset, tmp_path, capsys):
        # The default block reads the injection, so every pipeline checks it.
        for pipeline in bench.PIPELINES:
            out = tmp_path / pipeline
            code = run_cli(
                "run", pipeline, "--dataset", small_dataset, "--out", out,
                "--set", "pipeline.injection=null",
            )
            assert code == 3, pipeline
            assert "requires an injection config" in capsys.readouterr().err
            assert not out.exists()

    def test_truncated_item_is_config_error(self, tmp_path, capsys):
        dataset = tmp_path / "ds"
        assert run_cli("gen", "--out", dataset, "--set", "dataset.count=1") == 0
        videos = dataset / "videos.evslat"
        videos.write_bytes(videos.read_bytes()[:-3])
        _record_videos_sha256(dataset)
        assert run_cli("run", "t2i", "--dataset", dataset, "--out", tmp_path / "o") == 3
        assert "is not whole float64 values" in capsys.readouterr().err

    def test_non_finite_item_is_config_error(self, tmp_path, capsys):
        # Only a hand-written file with its sha256 recorded holds inf or nan.
        dataset = tmp_path / "ds"
        assert run_cli("gen", "--out", dataset, "--set", "dataset.count=4") == 0
        videos = dataset / bench.DATASET_LATENTS
        items = evsio.read_latents(videos)
        items[2][5, 7], items[3][0, 0] = np.inf, np.nan
        evsio.write_latents(videos, items)
        _record_videos_sha256(dataset)
        capsys.readouterr()
        for pipeline in ("t2i", "t2v", "evs"):
            out = tmp_path / pipeline
            assert run_cli("run", pipeline, "--dataset", dataset, "--out", out) == 3, pipeline
            assert capsys.readouterr().err == (
                f"config error: {videos}: item 2 holds a value that is not finite\n")
            assert not out.exists()

    @pytest.mark.parametrize(
        "spoil", ["empty_manifest", "non_utf8_manifest", "list_config", "run_manifest_as_dataset",
                  "dataset_without_items"],
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
            _empty_videos(dataset)
        assert run_cli("run", "t2i", "--dataset", dataset, "--out", tmp_path / "o", *extra) == 3

    def test_weights_for_another_config_are_config_error(self, small_dataset, tmp_path, capsys):
        for field, value, want in (
            ("total_steps", 12, "temporal schedule steps=8"), ("n_modes", 2, "world modes=4"),
            ("dim", 8, "latent dim=64"), ("embed", 32, "embed=64"),
            ("blocks", 2, "injection blocks=4"), ("blocks", 6, "injection blocks=4"),
        ):
            weights = tmp_path / f"{field}{value}.evsnet"
            _off_shape_net(weights, field, value)
            code = run_cli(
                "run", "evs", "--dataset", small_dataset, "--out", tmp_path / f"{field}{value}",
                "--set", f"net.weights={weights}",
            )
            assert code == 3, field
            assert f"net {field}={value} but {want}" in capsys.readouterr().err

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

    @pytest.mark.parametrize("grid", ["x", "4,x", "0x4"])
    def test_grid_token_that_is_not_a_number_is_usage_error(
        self, small_dataset, tmp_path, capsys, grid
    ):
        code = run_cli("sweep", "t_V", "--grid", grid, "--dataset", small_dataset, "--out", tmp_path)
        assert code == 2
        assert "is not a number" in capsys.readouterr().err

    @pytest.mark.parametrize("axis,value", [("t_V", "2.5"), ("t_T2V", "1e-1"), ("n_V", "1.5")])
    def test_non_integer_grid_point_is_config_error(
        self, small_dataset, tmp_path, capsys, axis, value
    ):
        code = run_cli(
            "sweep", axis, "--grid", value, "--dataset", small_dataset, "--out", tmp_path,
            "--set", "pipeline.block_mode=sdedit", "--set", "pipeline.injection=null",
        )
        assert code == 3
        assert f"grid point {axis}={float(value)}: {axis} must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    def test_every_grid_point_is_checked_before_any_runs(
        self, small_dataset, tmp_path, monkeypatch, capsys
    ):
        calls = []
        execute = bench._execute

        def counted(*args, **kwargs):
            calls.append(args)
            return execute(*args, **kwargs)

        monkeypatch.setattr(bench, "_execute", counted)
        out = tmp_path / "sw"
        code = run_cli(
            "sweep", "t_V", "--grid", "2,4,9", "--dataset", small_dataset, "--out", out,
            "--set", "pipeline.block_mode=sdedit", "--set", "pipeline.injection=null",
        )
        assert code == 3
        assert "t_V=9" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    def test_gamma_grid_takes_exponent_notation(self, small_dataset, tmp_path):
        assert run_cli(
            "sweep", "gamma", "--grid", "1e-1,5e-1", "--dataset", small_dataset, "--out", tmp_path
        ) == 0
        rows = (tmp_path / "sweep.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows] == ["gamma", "0.1", "0.5"]

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
    assert run_cli("gen", "--out", out, "--set", "dataset.count=3", "--set", "dataset.styled=true") == 0
    return out


class TestFrontier:
    def test_trivial_rows_and_outputs(self, styled_dataset, tmp_path):
        # The all-layers anchor reconstructs its input for any weights.
        weights = tmp_path / "net.evsnet"
        evsio.write_net(weights, ToyAttentionDenoiser())
        out = tmp_path / "out"
        assert run_cli(
            "frontier", "--dataset", styled_dataset, "--out", out, "--set", f"net.weights={weights}",
        ) == 0
        manifest = evsio.read_json(out / "frontier_manifest.json")
        rows = {(r["method"], r["param"]): r for r in manifest["rows"]}
        input_ms = rows[("sdedit", "t=0")]["ms"]
        assert rows[("sdedit", "t=0")]["psnr"] == 99.0
        anchor = rows[("sfi", "all,g=1.0,f")]
        assert anchor["psnr"] == 99.0
        assert anchor["ms"] == pytest.approx(input_ms, abs=1e-6)
        assert sorted(p.name for p in out.iterdir()) == [
            "frontier.csv", "frontier.svg", "frontier_manifest.json",
        ]
        assert "net_file" not in manifest

    def test_frontier_without_weights_is_config_error(self, styled_dataset, tmp_path, capsys):
        assert run_cli("frontier", "--dataset", styled_dataset, "--out", tmp_path / "o") == 3
        assert "evs train" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_frontier_dominance(self):
        # Smoothness ranges that do not overlap share no grid: A is not beaten.
        assert bench.frontier_dominance([(0.1, 1.0), (0.2, 2.0)], [(0.5, 9.0), (0.6, 9.0)]) == 1.0
        # Ties count for A.
        same = [(0.5, 10.0), (0.7, 7.0), (0.9, 5.0)]
        assert bench.frontier_dominance(same, list(same)) == 1.0
        # On the grid 0.5, 0.51, ..., 0.9 A is best only at 0.5 (10 against 8);
        # above it only the 0.9 points count, and B's 6 beats A's 5.
        a, b = [(0.5, 10.0), (0.9, 5.0)], [(0.5, 8.0), (0.9, 6.0)]
        assert bench.frontier_dominance(a, b) == 1 / 41

    def test_weights_for_another_schedule_are_config_error(self, styled_dataset, tmp_path, capsys):
        weights = tmp_path / "net.evsnet"
        _off_shape_net(weights, "total_steps", 12)
        code = run_cli("frontier", "--dataset", styled_dataset, "--out", tmp_path / "o",
                       "--set", f"net.weights={weights}")
        assert code == 3
        assert "net total_steps=12 but temporal schedule steps=8" in capsys.readouterr().err


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

    def test_report_rejects_run_manifest_without_rows(self, small_dataset, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert run_cli("run", "t2i", "--dataset", small_dataset, "--out", run_dir) == 0
        payload = evsio.read_json(run_dir / "run_manifest.json")
        del payload["rows"]
        evsio.write_json(run_dir / "run_manifest.json", payload)
        assert run_cli("report", run_dir / "run_manifest.json", "--out", tmp_path / "rep") == 3
        assert "'rows'" in capsys.readouterr().err

    def test_report_rejects_run_manifest_with_no_rows(self, small_dataset, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert run_cli("run", "t2i", "--dataset", small_dataset, "--out", run_dir) == 0
        payload = evsio.read_json(run_dir / "run_manifest.json")
        payload["rows"] = []
        evsio.write_json(run_dir / "run_manifest.json", payload)
        assert run_cli("report", run_dir / "run_manifest.json", "--out", tmp_path / "rep") == 3
        err = capsys.readouterr().err
        assert "needs at least one entry in 'rows'" in err
        assert "RuntimeWarning" not in err
        assert not (tmp_path / "rep" / "summary.csv").exists()

    def test_report_rejects_row_without_metric(self, small_dataset, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert run_cli("run", "t2i", "--dataset", small_dataset, "--out", run_dir) == 0
        payload = evsio.read_json(run_dir / "run_manifest.json")
        del payload["rows"][0]["ms"]
        payload["rows"][1]["nfe_t2i"] = "20"
        evsio.write_json(run_dir / "run_manifest.json", payload)
        assert run_cli("report", run_dir / "run_manifest.json", "--out", tmp_path / "rep") == 3
        assert "row 0 needs 'ms' as a number" in capsys.readouterr().err

    def test_rerun_rejects_empty_dataset_record(self, small_dataset, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert run_cli("run", "t2i", "--dataset", small_dataset, "--out", run_dir) == 0
        payload = evsio.read_json(run_dir / "run_manifest.json")
        payload["dataset"] = {}
        evsio.write_json(run_dir / "run_manifest.json", payload)
        again = tmp_path / "again"
        assert run_cli("rerun", run_dir / "run_manifest.json", "--out", again) == 3
        assert "dataset record needs 'path' as a str" in capsys.readouterr().err
        assert not again.exists()

    @pytest.mark.parametrize("command", ["report", "rerun"])
    @pytest.mark.parametrize("keys, value", [
        (("config", "pipeline", "bogus"), 1),
        (("config", "pipeline", "t_I"), "x"),
        (("config", "pipeline", "rounds"), 0),
        (("pipeline",), "bogus"),
        # Keys that manifests written by earlier versions carry.
        (("config", "pipeline", "injection", "inject_kv"), True),
        (("config", "net", "seed"), 0),
        (("config", "metrics"), {"tau": 0.05}),
    ], ids=["unknown-key", "t_I-string", "rounds-0", "pipeline-name", "inject_kv", "net.seed",
            "metrics"])
    def test_run_manifest_is_checked_before_out(
        self, small_dataset, tmp_path, capsys, command, keys, value
    ):
        """``report`` and ``rerun`` read a run manifest one way:
        its pipeline must be known and its config must resolve and build."""
        run_dir, out = tmp_path / "run", tmp_path / "out"
        assert run_cli("run", "t2i", "--dataset", small_dataset, "--out", run_dir) == 0
        payload = evsio.read_json(run_dir / "run_manifest.json")
        node = payload
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        evsio.write_json(run_dir / "run_manifest.json", payload)
        manifest = run_dir / "run_manifest.json"
        argv = [command, manifest]
        assert run_cli(*argv, "--out", out) == 3
        err = capsys.readouterr().err
        assert "config error" in err and keys[-1] in err
        assert not out.exists()

    @pytest.mark.parametrize("setting", ["pipeline.block_mode=sdedit", "pipeline.t_I=30"])
    def test_report_refuses_one_pipeline_with_different_configs(
        self, small_dataset, tmp_path, capsys, setting
    ):
        base, other = tmp_path / "base", tmp_path / "other"
        assert run_cli("run", "evs", "--dataset", small_dataset, "--out", base) == 0
        assert run_cli("run", "evs", "--dataset", small_dataset, "--out", other, "--set", setting) == 0
        manifests = [base / "run_manifest.json", other / "run_manifest.json"]
        assert run_cli("report", *manifests, "--out", tmp_path / "rep") == 3
        assert "are evs runs with different configs" in capsys.readouterr().err
        assert not (tmp_path / "rep").exists()

    def test_report_refuses_one_pipeline_with_different_weights(self, small_dataset, tmp_path, capsys):
        """Two runs of one config and one net.weights path, with the file rewritten between them."""
        weights = tmp_path / "net.evsnet"
        manifests = []
        for seed in (1, 5):
            evsio.write_net(weights, ToyAttentionDenoiser(seed=seed))
            run_dir = tmp_path / f"run_{seed}"
            assert run_cli("run", "evs", "--dataset", small_dataset, "--out", run_dir,
                           "--set", f"net.weights={weights}") == 0
            manifests.append(run_dir / "run_manifest.json")
        assert run_cli("report", *manifests, "--out", tmp_path / "rep") == 3
        err = capsys.readouterr().err
        assert "are evs runs with different weights_sha256" in err
        assert all(str(manifest) in err for manifest in manifests)
        assert not (tmp_path / "rep").exists()

    @pytest.mark.parametrize("bad_first", [False, True], ids=["bad-last", "bad-first"])
    def test_report_checks_every_config_before_out(
        self, small_dataset, tmp_path, capsys, bad_first
    ):
        """A config out of domain is refused wherever its manifest stands."""
        good, bad = tmp_path / "good", tmp_path / "bad"
        assert run_cli("run", "t2i", "--dataset", small_dataset, "--out", good) == 0
        assert run_cli("run", "t2v", "--dataset", small_dataset, "--out", bad) == 0
        payload = evsio.read_json(bad / "run_manifest.json")
        payload["config"]["pipeline"].update(t_T2V=99, rounds=0)
        evsio.write_json(bad / "run_manifest.json", payload)
        manifests = [good / "run_manifest.json", bad / "run_manifest.json"]
        if bad_first:
            manifests.reverse()
        assert run_cli("report", *manifests, "--out", tmp_path / "rep") == 3
        assert "t_T2V=99" in capsys.readouterr().err
        assert not (tmp_path / "rep").exists()

    def test_report_pools_runs_that_differ_only_in_seed(self, small_dataset, tmp_path):
        manifests = []
        for seed in (0, 5):
            run_dir = tmp_path / f"run_{seed}"
            assert run_cli(
                "run", "evs", "--dataset", small_dataset, "--out", run_dir, "--seed", seed
            ) == 0
            manifests.append(run_dir / "run_manifest.json")
        assert run_cli("report", *manifests, "--out", tmp_path / "rep") == 0
        (entry,) = evsio.read_json(tmp_path / "rep" / "report_manifest.json")["table"]
        assert entry["nfe_total"] == 26

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

    def test_train_writes_weights(self, tmp_path):
        assert run_cli("train", "--out", tmp_path, "--set", "train.steps=30") == 0
        net = evsio.read_net(tmp_path / "net.evsnet")
        assert net.blocks == 4
        manifest = evsio.read_json(tmp_path / "train_manifest.json")
        assert manifest["train_report"]["final_loss"] < manifest["train_report"]["initial_loss"]

    def test_diverged_training_is_numeric_error(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "evs.cli", "train", "--out", str(tmp_path),
             "--set", "train.lr=1e6", "--set", "train.steps=40"],
            capture_output=True, text=True, env=_src_env(), timeout=300,
        )
        assert proc.returncode == 5
        assert "numeric error" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert "RuntimeWarning" not in proc.stderr

    # world.seed and world.modes are no config keys since the worlds became
    # code, and dim none since the latent shape did; the three cases are now
    # refused as unknown keys.
    @pytest.mark.parametrize("setting", [
        "seed=-1", "world.seed=-1", "train.seed=-1",
        "world.modes=0", "dim=0", "train.batch_size=0", "train.steps=-1",
    ])
    def test_out_of_domain_config_value_is_config_error(self, tmp_path, capsys, setting):
        assert run_cli("train", "--out", tmp_path, "--set", "train.steps=2", "--set", setting) == 3
        assert "config error" in capsys.readouterr().err


@pytest.fixture(scope="module")
def off_shape_datasets(tmp_path_factory):
    """One-item datasets whose videos are not the models' (16, 64): a plain or
    styled ``evs gen`` dataset with its video cut to ``(frames, dim)``."""
    root = tmp_path_factory.mktemp("off_shape")
    for styled in ("false", "true"):
        assert run_cli("gen", "--out", root / f"styled-{styled}", "--set", "dataset.count=1",
                       "--set", f"dataset.styled={styled}") == 0
    places = {}
    for name, styled, frames, dim in (("FRAMES8", "false", 8, 64), ("DIM32", "false", 16, 32),
                                      ("STYLED_FRAMES8", "true", 8, 64), ("FRAMES2", "false", 2, 64)):
        places[name] = root / name
        shutil.copytree(root / f"styled-{styled}", places[name])
        videos = places[name] / bench.DATASET_LATENTS
        evsio.write_latents(videos, [video[:frames, :dim] for video in evsio.read_latents(videos)])
        _record_videos_sha256(places[name])
    return places


def test_video_shape_error_names_both_shapes(off_shape_datasets, tmp_path, capsys):
    assert run_cli("run", "t2i", "--dataset", off_shape_datasets["FRAMES8"],
                   "--out", tmp_path / "out") == 3
    err = capsys.readouterr().err
    assert "(8, 64)" in err and "(16, 64)" in err


@pytest.mark.parametrize("dataset", ["FRAMES8", "DIM32"])
def test_benchmark_setup_refuses_an_off_shape_dataset(off_shape_datasets, dataset):
    """The benchmark's ``setup`` child loads a dataset as every command does,
    so it refuses videos that are not the models' shape."""
    child = Path(__file__).resolve().parents[1] / "benchmark" / "child.py"
    proc = subprocess.run(
        [sys.executable, str(child), "setup", str(off_shape_datasets[dataset]), "0"],
        capture_output=True, text=True, env=_src_env(), timeout=120,
    )
    assert proc.returncode != 0
    assert "ShapeError" in proc.stderr and "(16, 64)" in proc.stderr


@pytest.mark.parametrize("argv, code", [
    (["train", "--set", "train.lr=0"], 3),
    (["run", "t2i", "--dataset", "SMALL", "--set", "pipeline.t_T2V=40"], 3),
    (["frontier", "--dataset", "SMALL", *NET4], 3),
    (["run", "t2i", "--dataset", "MISSING"], 4),
    (["run", "t2i", "--dataset", "SMALL", "--set", "train.lr=0"], 3),
    (["gen", "--set", "pipeline.t_T2V=40"], 3),
    (["gen", "--set", "dataset.flicker_sigma=-1"], 3),
    # frames is no config key since the latent shape became code, so the three
    # frames2 cases are refused as an unknown key.
    (["gen", "--set", "frames=2"], 3),
    (["run", "t2i", "--dataset", "FRAMES2", "--set", "frames=2"], 3),
    (["sweep", "t_T2V", "--grid", "5,10", "--dataset", "FRAMES2", "--set", "frames=2"], 3),
    (["run", "evs", "--dataset", "SMALL", "--set", "net.weights="], 3),
    (["train", "--set", "pipeline.t_T2V=40"], 3),
    (["run", "evs", "--dataset", "SMALL", "--set", "pipeline.injection.layers=[7]"], 3),
    # An injection that reads no feature is refused like pipeline.injection=null.
    (["run", "evs", "--dataset", "SMALL", "--set", "pipeline.injection.layers=[]"], 3),
    # The default block's injection is checked by every command, also one that
    # never runs the block.
    *((argv, 3) for layers in ("[7]", "[]") for argv in (
        ["gen", "--set", f"pipeline.injection.layers={layers}"],
        ["train", "--set", "train.steps=2", "--set", f"pipeline.injection.layers={layers}"],
        ["run", "t2v", "--dataset", "SMALL", "--set", f"pipeline.injection.layers={layers}"],
    )),
    # inject_kv is no config key: every injected layer reads the recorded Q/K/V.
    (["run", "evs", "--dataset", "SMALL", "--set", "pipeline.injection.inject_f=true",
      "--set", "pipeline.injection.inject_kv=false"], 3),
    (["sweep", "t_V", "--grid", "2,4", "--dataset", "SMALL",
      "--set", "pipeline.injection.layers=[7]"], 3),
    (["frontier", "--dataset", "STYLED", "--set", "pipeline.t_V=99", *NET4], 3),
    # read_net refuses a net whose block count is not the 4 of ALL_LAYERS.
    (["frontier", "--dataset", "STYLED", "--set", "net.weights=NET2"], 3),
    (["frontier", "--dataset", "STYLED", "--set", "net.weights=NET6"], 3),
    *((["sweep", "gamma", "--grid", "0.0,1.0", "--dataset", "SMALL", *sets], 3) for sets in (
        ["--set", "pipeline.block_mode=sdedit"],
        ["--set", "pipeline.block_mode=sdedit", "--set", "pipeline.injection=null"],
        ["--set", "pipeline.injection.layers=[]"],
    )),
    # The latent shape, the worlds, the schedules, the flicker and the style
    # scale are code, so each of their old keys is unknown.
    *((["gen", "--set", setting], 3) for setting in DELETED_KEYS),
    # The metric constants are code in evs.metrics, so a metrics key is unknown.
    *((["run", "t2i", "--dataset", "SMALL", "--set", setting], 3) for setting in (
        "metrics.tau=0", "metrics.tau=-1", "metrics.iq_scale=0", "metrics.psnr_peak=0",
        "metrics.ranges.ms=[1,0]", "metrics.ranges.ms=[0.5]",
    )),
    # Videos whose (frames, dim) is not the models', which some pipelines never read.
    *((["run", pipeline, "--dataset", dataset], 3)
      for dataset in ("FRAMES8", "DIM32") for pipeline in bench.PIPELINES),
    (["sweep", "t_T2V", "--grid", "5,10", "--dataset", "FRAMES8"], 3),
    (["frontier", "--dataset", "STYLED_FRAMES8", *NET4], 3),
], ids=[
    "train-lr", "run-t_T2V", "frontier-plain", "run-missing-dataset", "run-train-lr",
    "gen-t_T2V", "gen-flicker", "gen-frames2", "run-frames2", "sweep-frames2", "run-empty-weights",
    "train-t_T2V", "run-evs-layers", "run-evs-no-layers",
    *(f"{command}-{name}" for name in ("layers", "no-layers") for command in ("gen", "train", "run-t2v")),
    "run-evs-inject_kv",
    "sweep-layers", "frontier-t_V",
    "frontier-2-blocks", "frontier-6-blocks",
    "gamma-sdedit", "gamma-null", "gamma-no-layers",
    "deleted-world", "deleted-schedule_i", "deleted-schedule_v", "deleted-style_scale",
    "deleted-flicker_sigma", "deleted-frames", "deleted-dim",
    "metrics-tau-0", "metrics-tau-neg", "metrics-iq_scale", "metrics-psnr_peak",
    "metrics-range-order", "metrics-range-pair",
    *(f"{name}-{pipeline}" for name in ("frames8", "dim32") for pipeline in bench.PIPELINES),
    "sweep-frames8", "frontier-frames8",
])
def test_failed_check_leaves_no_out_directory(
    small_dataset, styled_dataset, off_shape_datasets, tmp_path, argv, code
):
    """Every command checks every config section, and its grid, dataset and weights,
    before it creates ``--out``, also a section the command does not read."""
    places = {"SMALL": small_dataset, "STYLED": styled_dataset, "MISSING": tmp_path / "missing",
              **off_shape_datasets}
    for blocks in (2, 4, 6):  # the net's layers are ALL_LAYERS, 0..3, so only NET4 loads
        places[f"NET{blocks}"] = tmp_path / f"net{blocks}.evsnet"
        _off_shape_net(places[f"NET{blocks}"], "blocks", blocks)
    out = tmp_path / "out"
    assert run_cli(*(_placed(a, places) for a in argv), "--out", out) == code
    assert not out.exists()


@pytest.mark.parametrize("route", ["set", "config"])
@pytest.mark.parametrize("setting", DELETED_KEYS, ids=[s.split("=")[0] for s in DELETED_KEYS])
def test_deleted_config_key_is_unknown(tmp_path, capsys, route, setting):
    """Each config key that became code is refused as unknown, given through
    ``--set`` or ``--config``, before ``--out`` exists."""
    key, value = setting.split("=")
    if route == "set":
        args = ["--set", setting]
    else:
        config = json.loads(value)
        for part in reversed(key.split(".")):
            config = {part: config}
        (tmp_path / "config.json").write_text(json.dumps(config))
        args = ["--config", tmp_path / "config.json"]
    out = tmp_path / "out"
    assert run_cli("gen", *args, "--out", out) == 3
    assert "config error: unknown config key" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("spoil", ["changed_video", "no_video"])
@pytest.mark.parametrize("command", [
    ["run", "t2i"], ["sweep", "t_V", "--grid", "2,4"], ["frontier", *NET4],
], ids=["run", "sweep", "frontier"])
def test_spoiled_dataset_leaves_no_out_directory(styled_dataset, tmp_path, spoil, command, capsys):
    """A video file changed since ``evs gen`` recorded its sha256, or one that holds
    no video, is a config error before ``--out`` exists."""
    dataset = tmp_path / "ds"
    shutil.copytree(styled_dataset, dataset)
    videos = dataset / bench.DATASET_LATENTS
    if spoil == "changed_video":
        evsio.write_latents(videos, [v * 2 for v in evsio.read_latents(videos)])
    else:
        _empty_videos(dataset)
    weights = tmp_path / "net.evsnet"
    evsio.write_net(weights, ToyAttentionDenoiser())
    out = tmp_path / "out"
    assert run_cli(*(_placed(a, {"NET4": weights}) for a in command),
                   "--dataset", dataset, "--out", out) == 3
    assert ("does not match the latents_sha256" if spoil == "changed_video" else "holds no video"
            ) in capsys.readouterr().err
    assert not out.exists()


class TestOutputDigest:
    def test_digest_is_independent_of_the_output_path(self, tmp_path):
        """``scripts/output_digest.py`` is the byte-identity check for refactors:
        two output directories whose paths differ in length give one digest."""
        script = Path(__file__).resolve().parents[1] / "scripts" / "output_digest.py"
        outs = [tmp_path / "a", tmp_path / "a_much_longer_output_directory"]
        digests = []
        for out in outs:
            proc = subprocess.run(
                [sys.executable, str(script), "--out", str(out), "--count", "2"],
                capture_output=True, text=True, env=_src_env(), timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout.splitlines())
        assert len(digests[0]) == 74
        assert digests[0] == digests[1]
        assert not [line for line in digests[0] for out in outs if str(out) in line]

    def test_manifest_diff_prints_each_differing_path_once(self, tmp_path):
        """``scripts/manifest_diff.py`` walks the manifests of two digest output
        directories as the digest normalizes them: ``wall_time`` and the
        directory itself are no difference."""
        script = Path(__file__).resolve().parents[1] / "scripts" / "manifest_diff.py"
        a, b = tmp_path / "a", tmp_path / "b_longer"
        trees = {
            a: {"run/run_manifest.json": {
                    "config": {"seed": 0, "metrics": {"tau": 0.05}},
                    "dataset": {"path": str(a / "dataset")},
                    "rows": [{"overall": 0.5, "wall_time": 1.0}, {"overall": 0.7, "wall_time": 2.0}]},
                "report/report_manifest.json": {"table": [{"overall": 1.0}]},
                "only_a.json": {}},
            b: {"run/run_manifest.json": {
                    "config": {"seed": 0},
                    "dataset": {"path": str(b / "dataset")},
                    "rows": [{"overall": 0.5, "wall_time": 9.0}, {"overall": 0.8, "wall_time": 3.0}]},
                "report/report_manifest.json": {"table": [{"overall": 1}]}},
        }
        for root, files in trees.items():
            for name, payload in files.items():
                (root / name).parent.mkdir(parents=True, exist_ok=True)
                (root / name).write_text(json.dumps(payload))
        proc = subprocess.run([sys.executable, str(script), str(a), str(b)],
                              capture_output=True, text=True, env=_src_env(), timeout=60)
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout.splitlines() == [
            "only in A: only_a.json", "config.metrics  1", "rows[].overall  1  max rel 0.125",
            "table[].overall  1  max rel 0",
        ]
        proc = subprocess.run([sys.executable, str(script), str(a), str(a)],
                              capture_output=True, text=True, env=_src_env(), timeout=60)
        assert (proc.returncode, proc.stdout) == (0, "no differences\n")

    def test_manifest_diff_reports_magnitudes(self, tmp_path):
        """A numeric JSON path carries its largest relative difference over
        every file, and each latent file that differs its largest absolute
        difference, followed by the overall maximum over the latents."""
        script = Path(__file__).resolve().parents[1] / "scripts" / "manifest_diff.py"
        a, b = tmp_path / "a", tmp_path / "b"
        video = np.arange(12.0).reshape(3, 4)
        moved = video.copy()
        moved[2, 1] += 2.0**-40
        trees = {
            a: {"x/run_manifest.json": {"rows": [{"iq": 80.0}, {"iq": 90.0}], "n": 4},
                "y/run_manifest.json": {"rows": [{"iq": 100.0}], "name": "t2i"},
                "same.evslat": [video], "moved.evslat": [video, video], "short.evslat": [video]},
            b: {"x/run_manifest.json": {"rows": [{"iq": 80.0}, {"iq": 90.0 + 9e-12}], "n": 4},
                "y/run_manifest.json": {"rows": [{"iq": 100.0 + 2e-11}], "name": "t2v"},
                "same.evslat": [video], "moved.evslat": [video, moved],
                "short.evslat": [video, video], "only_b.evslat": [video]},
        }
        for root, files in trees.items():
            for name, payload in files.items():
                (root / name).parent.mkdir(parents=True, exist_ok=True)
                if name.endswith(".json"):
                    (root / name).write_text(json.dumps(payload))
                else:
                    evsio.write_latents(root / name, payload)
        proc = subprocess.run([sys.executable, str(script), str(a), str(b)],
                              capture_output=True, text=True, env=_src_env(), timeout=60)
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout.splitlines() == [
            "only in B: only_b.evslat", "name  1", "rows[].iq  2  max rel 2e-13",
            "moved.evslat  max abs 9.09e-13", "short.evslat  shapes (1, 3, 4) vs (2, 3, 4)",
            "latents  2 of 3 differ, max abs 9.09e-13",
        ]


class TestScripts:
    """The experiment scripts start with ``evs gen`` and run on what it writes.
    ``run_sweeps.py`` trains a net at the default 3,500 steps, so it has no test."""

    def _run(self, script, *argv):
        path = Path(__file__).resolve().parents[1] / "scripts" / script
        proc = subprocess.run([sys.executable, str(path), *map(str, argv)],
                              capture_output=True, text=True, env=_src_env(), timeout=300)
        assert proc.returncode == 0, proc.stderr

    def test_run_ablation(self, tmp_path):
        self._run("run_ablation.py", "--out", tmp_path, "--count", "2")
        summary = evsio.read_metric_csv(tmp_path / "report" / "summary.csv")
        assert sorted(row["pipeline"] for row in summary) == sorted(bench.PIPELINES)

    def test_run_frontier_with_given_weights(self, tmp_path):
        weights = tmp_path / "net.evsnet"
        evsio.write_net(weights, ToyAttentionDenoiser())
        self._run("run_frontier.py", "--out", tmp_path / "f", "--count", "2", "--net", weights)
        rows = evsio.read_metric_csv(tmp_path / "f" / "frontier" / "frontier.csv")
        # sdedit at t = 0..8 and the 11 injection operating points; no net is trained.
        assert len(rows) == 9 + 11
        assert not (tmp_path / "f" / "net").exists()


class TestTracerBindings:
    """The benchmark's tracer wraps evs functions by name from outside;
    a renamed or rebound function would silently drop its spans."""

    def _traced_spans(self, tmp_path, commands):
        """Run ``commands`` in one ``benchmark/child.py`` process; return its spans."""
        return self._traced_dump(tmp_path, commands)["spans"]

    def _traced_dump(self, tmp_path, commands):
        """Run ``commands`` in one ``benchmark/child.py`` process; return its spans and counts."""
        root = Path(__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, str(root / "benchmark" / "child.py"), "run", json.dumps(commands),
             str(tmp_path / "rss"), str(tmp_path / "spans.json")],
            capture_output=True, text=True, env=_src_env(), timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads((tmp_path / "spans.json").read_text())

    def test_traced_evs_run_records_every_layer(self, tmp_path):
        ds = tmp_path / "ds"
        assert run_cli("gen", "--out", ds, "--set", "dataset.count=2") == 0
        commands = [["run", "evs", "--dataset", str(ds), "--out", str(tmp_path / "run")]]
        dump = self._traced_dump(tmp_path, commands)
        names = [span[0] for span in dump["spans"]]
        for name in ("compose.pipeline", "diffusion.walk", "sfi.invert", "sfi.inject",
                     "models.net_capture", "models.net_inject", "metrics.score_video"):
            assert name in names
        evals = sum(name.startswith(("models.eps_", "models.net_")) for name in names)
        rows = evsio.read_metric_csv(tmp_path / "run" / "runs.csv")
        assert evals == sum(int(r["nfe_t2i"]) + int(r["nfe_t2v"]) for r in rows)
        # The benchmark's traced gate: every tap is offered to the cache (t_V=4
        # levels x 4 blocks x 4 kinds) and the walk reads n_V=2 levels x 2
        # layers x Q/K/V per item.
        assert dump["counts"]["sfi.cache.puts"] == 64 * len(rows)
        assert dump["counts"]["sfi.cache.gets"] == 12 * len(rows)

    def test_traced_train_counts_each_step_once(self, tmp_path):
        """The benchmark's traced train gate: one draw, forward and backward per
        step, and every other forward scores the held-out set."""
        dump = self._traced_dump(tmp_path, [["train", "--out", str(tmp_path / "train"),
                                             "--set", "train.steps=3"]])
        names = [span[0] for span in dump["spans"] if span[0].startswith("models.train.")]
        for part in ("draw", "forward", "backward"):
            assert names.count(f"models.train.{part}") == 3, part
        # A held-out forward on batch_size videos would count as a fourth step.
        assert set(names) == {f"models.train.{part}" for part in
                              ("loop", "draw", "forward", "backward", "held_out")}

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

    def test_each_pipeline_entry_point_is_one_span_per_item(self, tmp_path):
        """The tracer times a pipeline through its compose entry point, so each of
        the six records one ``compose.pipeline`` span per item, called from
        ``bench._execute`` and wrapping no other."""
        ds = tmp_path / "ds"
        assert run_cli("gen", "--out", ds, "--set", "dataset.count=2") == 0
        commands = [["run", p, "--dataset", str(ds), "--out", str(tmp_path / p)] for p in bench.PIPELINES]
        spans = self._traced_spans(tmp_path, commands)
        pipeline_spans = [s for s in spans if s[0] == "compose.pipeline"]
        assert sorted(s[4] for s in pipeline_spans) == sorted(
            f"{p}:{i}" for p in bench.PIPELINES for i in (0, 1)
        )
        assert all(spans[s[3]][0] == "bench.execute" for s in pipeline_spans)
