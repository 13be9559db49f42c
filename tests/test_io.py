import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evs import io as evsio
from evs.bench import RUN_CSV_COLUMNS
from evs.errors import ConfigError, ShapeError
from evs.models import ToyAttentionDenoiser


class TestBinaryFormats:
    def test_header_is_24_bytes(self, tmp_path):
        path = tmp_path / "one.evslat"
        evsio.write_latents(path, [np.zeros((2, 3))])
        raw = path.read_bytes()
        assert len(raw) == 24 + 2 * 3 * 8
        assert raw[:6] == b"EVSLAT"
        assert raw[6:8] == b"\x00\x00"

    def test_latent_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        videos = [rng.standard_normal((4, 6)) for _ in range(3)]
        path = tmp_path / "batch.evslat"
        evsio.write_latents(path, videos)
        loaded = evsio.read_latents(path)
        assert len(loaded) == 3
        for a, b in zip(videos, loaded):
            np.testing.assert_array_equal(a, b)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "weights.evsnet"
        evsio.write_net(path, ToyAttentionDenoiser())
        with pytest.raises(ConfigError, match="bad magic"):
            evsio.read_latents(path)

    def test_net_roundtrip(self, tmp_path):
        net = ToyAttentionDenoiser(seed=5)
        net.params["w_out"][0, 0] = 123.456  # ensure non-default weights persist
        path = tmp_path / "weights.evsnet"
        evsio.write_net(path, net)
        loaded = evsio.read_net(path)
        assert loaded.blocks == net.blocks
        assert loaded.total_steps == net.total_steps
        for name in net.param_names():
            np.testing.assert_array_equal(loaded.params[name], net.params[name])

    def test_truncated_latents_rejected(self, tmp_path):
        # One float64 short: whole values, but fewer than the header's count implies.
        path = tmp_path / "batch.evslat"
        evsio.write_latents(path, [np.zeros((3, 5)) for _ in range(4)])
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ConfigError, match="expected 60"):
            evsio.read_latents(path)

    @pytest.mark.parametrize("field, offset", [("frames", 8), ("dim", 12)])
    def test_zero_size_latent_header_rejected(self, tmp_path, field, offset):
        # A bare header whose frames or dim is 0 matches its empty payload for any count.
        path = tmp_path / "empty.evslat"
        evsio.write_latents(path, [np.zeros((2, 3))])
        header = bytearray(path.read_bytes()[:24])
        header[offset : offset + 4] = bytes(4)
        header[16:20] = (100_000).to_bytes(4, "little")
        path.write_bytes(bytes(header))
        with pytest.raises(ConfigError, match=f"{field}=0"):
            evsio.read_latents(path)

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
    def test_zero_size_video_not_written(self, tmp_path, shape):
        path = tmp_path / "empty.evslat"
        with pytest.raises(ShapeError):
            evsio.write_latents(path, [np.zeros(shape)])
        assert not path.exists()

    def test_truncated_net_rejected(self, tmp_path):
        path = tmp_path / "weights.evsnet"
        evsio.write_net(path, ToyAttentionDenoiser())
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(ConfigError):
            evsio.read_net(path)

    @pytest.mark.parametrize(
        "field, value",
        [(0, 3.0), (0, float("nan")), (0, 1.5), (1, 0.0), (2, float("inf")), (3, -1.0), (3, 0.5)],
    )
    def test_net_header_values_rejected(self, tmp_path, field, value):
        # The payload starts with [blocks, total_steps, n_modes, seed].
        path = tmp_path / "weights.evsnet"
        evsio.write_net(path, ToyAttentionDenoiser())
        raw = bytearray(path.read_bytes())
        raw[24 + 8 * field : 32 + 8 * field] = np.float64(value).tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(ConfigError):
            evsio.read_net(path)

    def test_write_is_deterministic(self, tmp_path):
        rng = np.random.default_rng(2)
        video = rng.standard_normal((4, 4))
        p1, p2 = tmp_path / "a.evslat", tmp_path / "b.evslat"
        evsio.write_latents(p1, [video])
        evsio.write_latents(p2, [video])
        assert p1.read_bytes() == p2.read_bytes()


class TestManifests:
    def test_version_check(self, tmp_path):
        path = tmp_path / "m.json"
        evsio.write_json(path, {"manifest_version": 99, "kind": "run"})
        with pytest.raises(ConfigError):
            evsio.read_manifest(path, "run")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            evsio.read_json(path)

    def test_json_roundtrip_preserves_floats(self, tmp_path):
        path = tmp_path / "m.json"
        value = 0.1 + 0.2  # not representable exactly; repr must round-trip
        evsio.write_json(path, {"manifest_version": 1, "x": value})
        assert evsio.read_json(path)["x"] == value


def _write_dataset_manifest(path):
    evsio.write_json(path, {
        "manifest_version": evsio.MANIFEST_VERSION, "kind": "dataset", "config": {"seed": 0},
        "latents_sha256": "0" * 64,
        "style": None,
    })


# (reader, writer of a valid file) for every binary format and the dataset manifest.
_READERS = {
    "evslat": (evsio.read_latents, lambda p: evsio.write_latents(p, [np.ones((3, 4))] * 2)),
    "evsnet": (evsio.read_net,
               lambda p: evsio.write_net(p, ToyAttentionDenoiser())),
    "manifest": (lambda p: evsio.read_manifest(p, "dataset"), _write_dataset_manifest),
}

# (how, position or appended bytes, bit); positions wrap around the file length.
# Half the positions fall in the first 64 bytes, which hold every header field
# and the net's [blocks, total_steps, n_modes, seed].
_POSITION = st.one_of(st.integers(0, 63), st.integers(0, 4096))
_DAMAGE = st.one_of(
    st.tuples(st.just("truncate"), _POSITION, st.just(0)),
    st.tuples(st.just("extend"), st.binary(min_size=1, max_size=24), st.just(0)),
    st.tuples(st.just("flip"), _POSITION, st.integers(0, 7)),
)


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("valid")
    for name, (_, write) in _READERS.items():
        write(root / name)
    return root


@pytest.mark.parametrize("fmt", sorted(_READERS))
def test_damaged_file_raises_only_config_error(valid_files, fmt):
    """Truncated, extended or bit-flipped files either read or raise ConfigError."""
    read = _READERS[fmt][0]
    raw = (valid_files / fmt).read_bytes()
    path = valid_files / f"damaged_{fmt}"

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(_DAMAGE)
    def check(damage):
        how, where, bit = damage
        data = bytearray(raw)
        if how == "truncate":
            del data[where % len(raw):]
        elif how == "extend":
            data += where
        else:
            data[where % len(raw)] ^= 1 << bit
        path.write_bytes(bytes(data))
        try:
            read(path)
        except ConfigError:
            pass

    check()


class TestCsv:
    def _rows(self):
        return [
            {
                "pipeline": "t2i", "seed": 0, "ms": 0.9, "sc": 0.8, "iq": 90.0,
                "psnr": 30.0, "overall": 0.75, "nfe_t2i": 20, "nfe_t2v": 0,
                "wall_time": 0.123,
            }
        ]

    def test_fixed_column_order(self, tmp_path):
        path = tmp_path / "rows.csv"
        evsio.write_metric_csv(path, self._rows(), RUN_CSV_COLUMNS)
        header = path.read_text().splitlines()[0]
        assert header == "pipeline,seed,ms,sc,iq,psnr,overall,nfe_t2i,nfe_t2v,wall_time"

    def test_wall_time_stripping(self, tmp_path):
        path = tmp_path / "rows.csv"
        evsio.write_metric_csv(path, self._rows(), RUN_CSV_COLUMNS)
        stripped = evsio.csv_without_wall_time(path)
        assert "wall_time" not in stripped
        assert "0.123" not in stripped
        assert "t2i" in stripped


class TestSvg:
    def test_embeds_manifest_hash_and_is_deterministic(self, tmp_path):
        points = ([1.0, 2.0, 3.0], [0.5, 0.7, 0.6], [0.1, 0.0, 0.2])
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        evsio.svg_line_plot(p1, "t", "x", "ms", *points, "cafe1234")
        evsio.svg_line_plot(p2, "t", "x", "ms", *points, "cafe1234")
        content = p1.read_text()
        assert "manifest-sha256:cafe1234" in content
        assert p1.read_bytes() == p2.read_bytes()

    def test_scatter_and_bars(self, tmp_path):
        evsio.svg_scatter(tmp_path / "s.svg", "t", "x", "y", {"a": [(0.1, 1.0), (0.2, 2.0)]}, "h")
        evsio.svg_bar_chart(tmp_path / "b.svg", "t", "y", ["p", "q"], [0.5, 0.9], "h")
        assert (tmp_path / "s.svg").read_text().startswith("<svg")
        assert "0.9" in (tmp_path / "b.svg").read_text()
