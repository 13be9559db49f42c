import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evs.errors import ParameterError, ShapeError
from evs.metrics import (
    IQ_OFFSET,
    IQ_SCALE,
    OVERALL_CHANNELS,
    PSNR_CAP,
    PSNR_PEAK,
    RANGES,
    TAU,
    imaging_quality,
    motion_smoothness,
    normalize,
    overall_score,
    psnr,
    score_video,
    subject_consistency,
)
from evs.models import sample_world, spatial_log_density


class TestMotionSmoothness:
    def test_constant_video(self):
        assert motion_smoothness(np.ones((5, 4)), 0.05) == 1.0

    def test_linear_motion(self):
        t = np.arange(6.0)[:, None]
        v = t * np.array([[1.0, -2.0, 0.5]])
        assert motion_smoothness(v, 0.05) == pytest.approx(1.0, abs=1e-12)

    def test_alternating_frames_hand_oracle(self):
        a, tau = 0.3, 0.05
        v = np.array([(-1.0) ** f * a * np.ones(4) for f in range(6)])
        # every interior frame misses its neighbour interpolation by 2a
        assert motion_smoothness(v, tau) == pytest.approx(np.exp(-4 * a * a / tau), rel=1e-12)
        assert motion_smoothness(v, tau) == pytest.approx(0.0007465858083766799, rel=1e-9)

    def test_needs_three_frames(self):
        with pytest.raises(ParameterError):
            motion_smoothness(np.ones((2, 4)), 0.05)

    @given(shift=st.floats(-5, 5), scale=st.floats(0.1, 4))
    @settings(max_examples=40, deadline=None)
    def test_shift_invariance_and_scale_covariance(self, shift, scale):
        rng = np.random.default_rng(0)
        v = rng.standard_normal((6, 5))
        tau = 0.05
        base = motion_smoothness(v, tau)
        assert motion_smoothness(v + shift, tau) == pytest.approx(base, rel=1e-9)
        assert motion_smoothness(scale * v, scale**2 * tau) == pytest.approx(base, rel=1e-9)


class TestSubjectConsistency:
    def test_identical_frames(self):
        v = np.tile(np.arange(8.0), (4, 1))
        assert subject_consistency(v) == pytest.approx(1.0)

    def test_antipodal_two_frames(self):
        f = np.array([1.0, -2.0, 3.0, 0.5])
        v = np.stack([f, -f])
        assert subject_consistency(v) == pytest.approx(-1.0)

    def test_random_frames_near_null(self):
        # Null oracle: distribution of the statistic on independent frames.
        rng = np.random.default_rng(7)
        null = [subject_consistency(rng.standard_normal((16, 64))) for _ in range(300)]
        null_sd = np.std(null)
        probe = subject_consistency(np.random.default_rng(123).standard_normal((16, 64)))
        assert abs(probe - np.mean(null)) < 3 * null_sd

    def test_zero_norm_frame_counts_as_zero_similarity(self):
        v = np.stack([np.ones(4), np.ones(4)])  # centered frames are all zero
        assert subject_consistency(v) == 0.0

    def test_matches_pairwise_cosine_definition(self):
        def cosine(a, b):
            na, nb = np.linalg.norm(a), np.linalg.norm(b)
            return 0.0 if na == 0.0 or nb == 0.0 else float(a @ b / (na * nb))

        def pairwise(v):
            c = v - v.mean(axis=1, keepdims=True)
            return float(np.mean([0.5 * (cosine(c[0], c[f]) + cosine(c[f - 1], c[f]))
                                  for f in range(1, len(c))]))

        rng = np.random.default_rng(11)
        videos = [rng.standard_normal((frames, 64)) + rng.standard_normal(64)
                  for frames in (2, 3, 16, 16, 16, 31)]
        with_flat_frame = rng.standard_normal((9, 16))
        with_flat_frame[4] = 2.5  # centred, this frame is all zero
        for v in (*videos, with_flat_frame):
            assert subject_consistency(v) == pytest.approx(pairwise(v), rel=1e-12, abs=0.0)

    def test_mean_preserving_rotation_invariance(self):
        # Rotations fixing the all-ones direction commute with per-frame
        # centering, so the score is exactly preserved.
        rng = np.random.default_rng(3)
        d = 8
        ones = np.ones(d) / np.sqrt(d)
        basis, _ = np.linalg.qr(np.column_stack([ones, rng.standard_normal((d, d - 1))]))
        sub_rot, _ = np.linalg.qr(rng.standard_normal((d - 1, d - 1)))
        rot = basis @ np.block([[np.ones((1, 1)), np.zeros((1, d - 1))],
                                [np.zeros((d - 1, 1)), sub_rot]]) @ basis.T
        v = rng.standard_normal((5, d))
        assert subject_consistency(v @ rot.T) == pytest.approx(subject_consistency(v), rel=1e-9)


class TestImagingQuality:
    def test_frame_order_invariance(self, lab):
        rng = np.random.default_rng(1)
        v = rng.standard_normal((16, 64))
        perm = rng.permutation(16)
        iq = IQ_OFFSET, IQ_SCALE
        assert imaging_quality(v, lab.spatial_world, None, *iq) == pytest.approx(
            imaging_quality(v[perm], lab.spatial_world, None, *iq)
        )

    def test_spatial_samples_beat_temporal_samples(self, lab):
        sharp, blurry = [], []
        iq = IQ_OFFSET, IQ_SCALE
        for seed in range(20):
            c = seed % 4
            sharp.append(imaging_quality(sample_world(lab.spatial_world, c, seed), lab.spatial_world, c, *iq))
            blurry.append(imaging_quality(sample_world(lab.temporal_world, c, seed), lab.spatial_world, c, *iq))
        assert np.mean(sharp) > np.mean(blurry)

    def test_scale_validation(self, lab):
        with pytest.raises(ParameterError):
            imaging_quality(np.zeros((2, 64)), lab.spatial_world, None, IQ_OFFSET, 0.0)

    @pytest.mark.parametrize("mode_id", [-1, 4])
    def test_mode_outside_the_world_is_refused(self, lab, mode_id):
        # -1 must not index the last mode; 4 is one past the default world's modes.
        with pytest.raises(ParameterError, match=rf"mode_id {mode_id} is not an integer in \[0, 3\]"):
            imaging_quality(np.zeros((2, 64)), lab.spatial_world, mode_id, IQ_OFFSET, IQ_SCALE)


class TestPsnr:
    def test_identical_inputs_hit_cap(self):
        v = np.random.default_rng(0).standard_normal((4, 4))
        assert psnr(v, v, 1.0) == PSNR_CAP

    def test_mse_equal_peak_squared_is_zero(self):
        a = np.zeros((2, 2))
        b = np.full((2, 2), 3.0)
        assert psnr(a, b, peak=3.0) == pytest.approx(0.0, abs=1e-12)

    def test_hand_case(self):
        a = np.zeros((1, 4))
        b = np.full((1, 4), 0.1)
        assert psnr(a, b, peak=1.0) == pytest.approx(20.0, abs=1e-9)

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        a, b = rng.standard_normal((2, 3, 4))
        assert psnr(a, b, 1.0) == psnr(b, a, 1.0)

    @given(bump=st.floats(0.01, 2.0))
    @settings(max_examples=30, deadline=None)
    def test_strictly_decreasing_in_mse(self, bump):
        a = np.zeros((2, 2))
        b = np.full((2, 2), 0.5)
        assert psnr(a, b * (1 + bump), 1.0) < psnr(a, b, 1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            psnr(np.zeros((2, 2)), np.zeros((2, 3)), 1.0)


class TestOverallScore:
    RANGES = {"ms": (0.0, 1.0), "sc": (0.0, 1.0), "iq": (0.0, 100.0), "psnr": (0.0, 60.0)}
    CHANNELS = ("ms", "sc", "iq", "psnr")

    def _score(self, values):
        return overall_score(values, self.RANGES, self.CHANNELS)

    def test_saturation_high(self):
        assert self._score({"ms": 1.0, "sc": 1.0, "iq": 100.0, "psnr": 60.0}) == 1.0

    def test_saturation_low(self):
        assert self._score({"ms": 0.0, "sc": 0.0, "iq": 0.0, "psnr": 0.0}) == 0.0

    def test_two_mid_two_high(self):
        assert self._score({"ms": 0.5, "sc": 0.5, "iq": 100.0, "psnr": 60.0}) == pytest.approx(0.75)

    def test_range_validation(self):
        with pytest.raises(ParameterError):
            normalize(0.5, 1.0, 1.0)

    def test_matches_numpy_mean_of_clipped_parts(self):
        # The Python-float arithmetic reproduces np.mean(np.clip(...)) bit for bit.
        rng = np.random.default_rng(0)
        for _ in range(200):
            values = {"ms": rng.uniform(0.3, 1.2), "sc": rng.uniform(0.3, 1.2),
                      "iq": rng.uniform(40.0, 120.0), "psnr": rng.uniform(-5.0, 70.0)}
            parts = [np.clip((values[n] - RANGES[n][0]) / (RANGES[n][1] - RANGES[n][0]), 0.0, 1.0)
                     for n in OVERALL_CHANNELS]
            assert overall_score(values, RANGES, OVERALL_CHANNELS) == float(np.mean(parts))

    @given(delta=st.floats(0.0, 0.5))
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_each_channel(self, delta):
        base = {"ms": 0.4, "sc": 0.4, "iq": 40.0, "psnr": 20.0}
        for name, step in (("ms", delta), ("sc", delta), ("iq", 100 * delta), ("psnr", 60 * delta)):
            bumped = dict(base)
            bumped[name] = base[name] + step
            assert self._score(bumped) >= self._score(base)


class TestScoreVideo:
    def test_report_fields(self, lab):
        c = 0
        v = sample_world(lab.spatial_world, c, 0)
        report = score_video(v, v, lab.spatial_world, c)
        assert report.psnr == PSNR_CAP
        assert 0.0 <= report.overall <= 1.0

    def test_metrics_equal_their_np_mean_formulas_bit_for_bit(self, lab):
        # The metrics write each mean as a sum over a count; these are the
        # np.mean and np.linalg.norm forms they replaced.
        def ms(v, tau):
            interp = 0.5 * (v[:-2] + v[2:])
            return float(np.exp(-np.mean((v[1:-1] - interp) ** 2, axis=1).mean() / tau))

        def sc(v):
            centered = v - v.mean(axis=1, keepdims=True)
            norms = np.linalg.norm(centered, axis=1, keepdims=True)
            unit = np.divide(centered, norms, out=np.zeros_like(centered), where=norms > 0.0)
            return float(np.mean(0.5 * (unit[1:] @ unit[0] + (unit[:-1] * unit[1:]).sum(axis=1))))

        def iq(v, c):
            logp = spatial_log_density(v, lab.spatial_world, c)
            return float((logp.mean() - IQ_OFFSET) / IQ_SCALE)

        rng = np.random.default_rng(17)
        for i in range(60):
            frames = int(rng.integers(3, 20))
            v = rng.standard_normal((frames, 64)) * rng.uniform(0.01, 3.0) + rng.uniform(-1, 1)
            ref = v + rng.standard_normal(v.shape) * rng.uniform(1e-3, 1.0)
            c = (None, 0, 1, 2, 3)[i % 5]
            assert motion_smoothness(v, TAU) == ms(v, TAU)
            assert subject_consistency(v) == sc(v)
            assert imaging_quality(v, lab.spatial_world, c, IQ_OFFSET, IQ_SCALE) == iq(v, c)
            mse = float(np.mean((v - ref) ** 2))
            assert psnr(v, ref, PSNR_PEAK) == 10.0 * float(np.log10(PSNR_PEAK**2 / mse))
