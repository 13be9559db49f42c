import hashlib
import tracemalloc

import numpy as np
import pytest

from evs import models
from evs.errors import ParameterError, ShapeError, TrainingError
from evs.metrics import IQ_OFFSET, IQ_SCALE, TAU, imaging_quality, motion_smoothness, score_video
from evs.models import (
    AnalyticDenoiser,
    SpatialWorld,
    TemporalWorld,
    ToyAttentionDenoiser,
    TrainRecipe,
    _batched_backward,
    _batched_forward,
    _draw_training_batch,
    _time_features,
    ar1_correlation,
    blur_means,
    gmm_posterior_eps,
    make_degraded_video,
    sample_world,
    spatial_log_density,
    train_toy_denoiser,
)
from evs.schedule import build_linear_beta


class TestWorlds:
    def test_default_worlds_share_modes(self, lab):
        sw, tw = lab.spatial_world, lab.temporal_world
        assert sw.modes == tw.modes == 4
        np.testing.assert_allclose(blur_means(sw.means, 3), tw.means)

    def test_weight_validation(self):
        with pytest.raises(ParameterError):
            SpatialWorld(means=np.zeros((2, 3)), weights=np.array([0.5, 0.6]), sigma=0.1)

    def test_sigma_validation(self):
        with pytest.raises(ParameterError):
            SpatialWorld(means=np.zeros((2, 3)), weights=np.array([0.5, 0.5]), sigma=0.0)

    def test_rho_validation(self):
        with pytest.raises(ParameterError):
            TemporalWorld(
                means=np.zeros((2, 3)), weights=np.array([0.5, 0.5]), sigma=0.1, rho=1.0
            )

    def test_correlation_positive_definite(self, lab):
        lam, _ = lab.temporal_world.correlation_eig
        assert np.all(lam > 0)
        np.linalg.cholesky(lab.temporal_world.correlation)

    def test_ar1_matrix_hand_values(self):
        c = ar1_correlation(3, 0.5)
        np.testing.assert_allclose(c, [[1, 0.5, 0.25], [0.5, 1, 0.5], [0.25, 0.5, 1]])

    def test_blur_hand_case(self):
        # width-3 moving average with reflect padding on one row
        row = np.array([[1.0, 2.0, 4.0, 8.0]])
        out = blur_means(row, 3)
        expected = [[(2 + 1 + 2) / 3, (1 + 2 + 4) / 3, (2 + 4 + 8) / 3, (4 + 8 + 4) / 3]]
        np.testing.assert_allclose(out, expected)

    def test_blur_width_validation(self):
        with pytest.raises(ParameterError):
            blur_means(np.zeros((1, 4)), 2)


class TestSampling:
    def test_degenerate_sigma_returns_mode_mean(self):
        world = SpatialWorld(
            means=np.array([[1.0, -2.0], [3.0, 4.0]]),
            weights=np.array([0.5, 0.5]),
            sigma=1e-300,
            frames=3,
        )
        z = sample_world(world, 1, 0)
        assert np.array_equal(z, np.tile(world.means[1], (3, 1)))

    def test_temporal_lag1_correlation(self, lab):
        rng = np.random.default_rng(42)
        c = 0
        acc = []
        for _ in range(10_000 // 10):
            for _ in range(10):
                z = sample_world(lab.temporal_world, c, rng)
                centered = z - lab.temporal_world.means[0]
                acc.append(np.mean(centered[:-1] * centered[1:]) / np.mean(centered**2))
        assert np.mean(acc) == pytest.approx(0.95, abs=0.01)

    def test_spatial_frames_independent(self, lab):
        rng = np.random.default_rng(43)
        c = 1
        acc = []
        for _ in range(2000):
            z = sample_world(lab.spatial_world, c, rng)
            centered = z - lab.spatial_world.means[1]
            acc.append(np.mean(centered[:-1] * centered[1:]) / np.mean(centered**2))
        assert abs(np.mean(acc)) < 0.01

    def test_bad_mode_id(self, lab):
        with pytest.raises(ParameterError):
            sample_world(lab.spatial_world, 7, 0)


class TestDegradation:
    def test_zero_flicker_is_pure_temporal_sample(self, lab):
        c = 2
        a = make_degraded_video(lab.temporal_world, c, 0.0, 5)
        b = sample_world(lab.temporal_world, c, 5)
        assert np.array_equal(a, b)

    def test_flicker_lowers_motion_smoothness(self, lab):
        clean, flicked = [], []
        for seed in range(20):
            c = seed % 4
            clean.append(motion_smoothness(make_degraded_video(lab.temporal_world, c, 0.0, seed), TAU))
            flicked.append(motion_smoothness(make_degraded_video(lab.temporal_world, c, 0.2, seed), TAU))
        assert np.mean(clean) > np.mean(flicked)

    def test_degraded_scores_below_spatial_samples(self, lab):
        deg, sharp = [], []
        iq = IQ_OFFSET, IQ_SCALE
        for seed in range(20):
            c = seed % 4
            degraded = make_degraded_video(lab.temporal_world, c, 0.2, seed)
            deg.append(imaging_quality(degraded, lab.spatial_world, c, *iq))
            sharp.append(imaging_quality(sample_world(lab.spatial_world, c, seed), lab.spatial_world, c, *iq))
        assert np.mean(sharp) > np.mean(deg)

    def test_negative_flicker_rejected(self, lab):
        with pytest.raises(ParameterError):
            make_degraded_video(lab.temporal_world, None, -0.1, 0)


class TestAnalyticDenoiser:
    def test_single_unit_gaussian_closed_form(self):
        world = SpatialWorld(means=np.zeros((1, 4)), weights=np.array([1.0]), sigma=1.0, frames=2)
        sched = build_linear_beta(8, 1e-2, 0.2)
        rng = np.random.default_rng(0)
        z_t = rng.standard_normal((2, 4))
        for t in (1, 4, 8):
            ab = sched.alpha_bar[t]
            out = gmm_posterior_eps(z_t, t, world, None, sched)
            np.testing.assert_allclose(out, np.sqrt(1 - ab) * z_t, atol=1e-12)

    def test_symmetric_modes_cancel(self):
        mu = np.array([1.0, -2.0, 0.5])
        world = SpatialWorld(means=np.stack([mu, -mu]), weights=np.array([0.5, 0.5]), sigma=0.3, frames=1)
        sched = build_linear_beta(8, 1e-2, 0.2)
        out = gmm_posterior_eps(np.zeros((1, 3)), 4, world, None, sched)
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_finite_at_low_noise(self, lab):
        rng = np.random.default_rng(1)
        z = rng.standard_normal((16, 64))
        for t in (0, 1):
            for world in (lab.spatial_world, lab.temporal_world):
                out = gmm_posterior_eps(z, t, world, None, lab.sched_v if world is lab.temporal_world else lab.sched_i)
                assert np.all(np.isfinite(out))
        assert np.array_equal(
            gmm_posterior_eps(z, 0, lab.spatial_world, None, lab.sched_i), np.zeros_like(z)
        )

    def test_matches_importance_sampling_oracle_at_t1(self):
        # Mixture version of the conditional-mean oracle near the
        # low-noise end, where responsibilities are sharpest.
        world = SpatialWorld(
            means=np.array([[0.8, -0.5], [-0.6, 0.7]]),
            weights=np.array([0.6, 0.4]),
            sigma=0.4,
            frames=1,
        )
        sched = build_linear_beta(8, 5e-2, 0.3)
        t = 1
        ab = sched.alpha_bar[t]
        rng = np.random.default_rng(21)
        comp = rng.choice(2, p=world.weights, size=500_000)
        draws = world.means[comp] + world.sigma * rng.standard_normal((500_000, 2))
        z_t = np.array([[0.3, 0.1]])
        logw = -((z_t[0] - np.sqrt(ab) * draws) ** 2).sum(1) / (2 * (1 - ab))
        w = np.exp(logw - logw.max())
        est_mean = (w[:, None] * draws).sum(0) / w.sum()
        eps_mc = (z_t[0] - np.sqrt(ab) * est_mean) / np.sqrt(1 - ab)
        batches = np.array_split(np.arange(len(w)), 50)
        per_batch = np.stack([
            (z_t[0] - np.sqrt(ab) * (w[b][:, None] * draws[b]).sum(0) / w[b].sum()) / np.sqrt(1 - ab)
            for b in batches
        ])
        se = per_batch.std(0, ddof=1) / np.sqrt(len(batches))
        out = gmm_posterior_eps(z_t, t, world, None, sched)
        assert np.all(np.abs(out[0] - eps_mc) <= 3 * np.maximum(se, 1e-9))

    @pytest.mark.parametrize("mode_id", [None, 1])
    @pytest.mark.parametrize("t", [1, 4, 8])
    def test_temporal_matches_dense_gaussian_oracle(self, lab, t, mode_id):
        # Each latent column is Gaussian across frames with covariance
        # ab*sigma^2*C + (1-ab)*I given the mode; solve with that dense matrix
        # instead of the eigenbasis the denoiser uses.
        world, sched = lab.temporal_world, lab.sched_v
        ab = sched.alpha_bar[t]
        cov = ab * world.sigma**2 * world.correlation + (1.0 - ab) * np.eye(world.frames)
        _, logdet = np.linalg.slogdet(cov)
        rng = np.random.default_rng(30 + t)
        shape = (world.frames, world.dim)
        between_modes = np.sqrt(ab) * 0.5 * (world.means[0] + world.means[1])
        for z_t in (rng.standard_normal(shape), between_modes + 0.3 * rng.standard_normal(shape)):
            eps_k, loglik = [], []
            for mean in world.means:
                resid = z_t - np.sqrt(ab) * mean[None, :]
                solved = np.linalg.solve(cov, resid)
                eps_k.append(np.sqrt(1.0 - ab) * solved)
                loglik.append(-0.5 * ((resid * solved).sum() + world.dim * logdet))
            if mode_id is None:
                loglik = np.log(world.weights) + np.array(loglik)
                resp = np.exp(loglik - loglik.max())
                resp /= resp.sum()
            else:
                resp = np.eye(world.modes)[mode_id]
            want = np.tensordot(resp, np.array(eps_k), axes=1)
            got = gmm_posterior_eps(z_t, t, world, mode_id, sched)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("kind", ["spatial", "temporal"])
    def test_table_path_matches_restricted_oracles_at_every_level_and_mode(self, lab, kind):
        # An evaluation with a mode reads the denoiser's per-level tables, and
        # gmm_posterior_eps builds the same terms per call.  Oracles: the
        # scalar restricted formula (spatial) and the dense solve of the test
        # above (temporal), on a far latent and one near the mode.
        world, sched = (lab.spatial_world, lab.sched_i) if kind == "spatial" else (
            lab.temporal_world, lab.sched_v)
        model = AnalyticDenoiser(world, sched)
        rng = np.random.default_rng(31)
        shape = (world.frames, world.dim)
        for t in range(sched.total_steps + 1):
            ab = sched.alpha_bar[t]
            for k in range(world.modes):
                for z_t in (rng.standard_normal(shape),
                            np.sqrt(ab) * world.means[k] + 0.3 * rng.standard_normal(shape)):
                    resid = z_t - np.sqrt(ab) * world.means[k]
                    if kind == "spatial":
                        want = np.sqrt(1.0 - ab) * resid / (ab * world.sigma**2 + (1.0 - ab))
                    else:
                        cov = ab * world.sigma**2 * world.correlation + (1.0 - ab) * np.eye(world.frames)
                        want = np.sqrt(1.0 - ab) * np.linalg.solve(cov, resid)
                    for got in (model.evaluate(z_t, t, k), gmm_posterior_eps(z_t, t, world, k, sched)):
                        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        assert model.num_evals == (sched.total_steps + 1) * world.modes * 2

    def test_conditioning_restricts_mixture(self, lab):
        rng = np.random.default_rng(3)
        z = rng.standard_normal((16, 64))
        single = SpatialWorld(
            means=lab.spatial_world.means[2:3], weights=np.array([1.0]),
            sigma=lab.spatial_world.sigma, frames=16,
        )
        a = gmm_posterior_eps(z, 10, lab.spatial_world, 2, lab.sched_i)
        b = gmm_posterior_eps(z, 10, single, None, lab.sched_i)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_spatial_frame_permutation_equivariance(self, lab):
        rng = np.random.default_rng(4)
        z = rng.standard_normal((16, 64))
        perm = rng.permutation(16)
        out = gmm_posterior_eps(z, 10, lab.spatial_world, None, lab.sched_i)
        out_perm = gmm_posterior_eps(z[perm], 10, lab.spatial_world, None, lab.sched_i)
        np.testing.assert_allclose(out_perm, out[perm], atol=1e-12)

    def test_temporal_not_frame_permutation_equivariant(self, lab):
        rng = np.random.default_rng(5)
        z = rng.standard_normal((16, 64))
        perm = np.roll(np.arange(16), 7)
        out = gmm_posterior_eps(z, 4, lab.temporal_world, None, lab.sched_v)
        out_perm = gmm_posterior_eps(z[perm], 4, lab.temporal_world, None, lab.sched_v)
        assert not np.allclose(out_perm, out[perm], atol=1e-6)

    def test_counter_and_shape(self, lab):
        model = AnalyticDenoiser(lab.spatial_world, lab.sched_i)
        z = np.zeros((16, 64))
        for _ in range(3):
            out = model.evaluate(z, 5, None)
        assert out.shape == z.shape
        assert model.num_evals == 3


class TestSpatialLogDensity:
    def test_modal_value_matches_direct_oracle(self, lab):
        world = lab.spatial_world
        frame = world.means[1][None, :]
        # direct mixture density at the mode mean
        d = world.dim
        direct = 0.0
        for k in range(world.modes):
            quad = np.sum((frame[0] - world.means[k]) ** 2) / (2 * world.sigma**2)
            direct += world.weights[k] * (2 * np.pi * world.sigma**2) ** (-d / 2) * np.exp(-quad)
        out = spatial_log_density(frame, world)
        assert out[0] == pytest.approx(np.log(direct), rel=1e-10)


class TestToyAttentionDenoiser:
    def test_output_shape_and_counter(self):
        net = ToyAttentionDenoiser(seed=1)
        z = np.random.default_rng(0).standard_normal((16, 64))
        out = net.evaluate(z, 3, 1)
        assert out.shape == z.shape
        assert net.num_evals == 1

    def test_empty_injection_equals_evaluate(self, lab):
        from evs.sfi import FeatureCache, InjectionConfig

        net = ToyAttentionDenoiser(seed=2)
        z = np.random.default_rng(1).standard_normal((16, 64))
        plain = net.evaluate(z, 4, None)
        injected = net.forward(z, 4, None, injection=(FeatureCache(), InjectionConfig()))
        assert np.array_equal(plain, injected)

    def test_single_frame_gamma_irrelevant(self, lab):
        from evs.sfi import FeatureCache, InjectionConfig

        net = ToyAttentionDenoiser(seed=3)
        z = np.random.default_rng(2).standard_normal((1, 64))
        cache = FeatureCache()
        net.forward(z, 2, None, capture=cache)
        outs = []
        for gamma in (0.1, 0.9):
            cfg = InjectionConfig(layers=frozenset(range(4)), gamma=gamma)
            outs.append(net.forward(z, 2, None, injection=(cache, cfg)))
        assert np.array_equal(outs[0], outs[1])

    def test_full_injection_reproduces_captured_output(self):
        from evs.sfi import ALL_LAYERS, FeatureCache, InjectionConfig

        net = ToyAttentionDenoiser(seed=4)
        rng = np.random.default_rng(3)
        z = rng.standard_normal((16, 64))
        cache = FeatureCache()
        captured = net.forward(z, 3, None, capture=cache, capture_key=3)
        cfg = InjectionConfig(layers=ALL_LAYERS, gamma=1.0, inject_f=True)
        other = rng.standard_normal((16, 64))
        replayed = net.forward(other, 3, None, injection=(cache, cfg))
        assert np.array_equal(captured, replayed)

    def test_forward_refuses_capture_with_injection(self):
        from evs.sfi import DEEP_LAYERS, FeatureCache, InjectionConfig

        net = ToyAttentionDenoiser(seed=6)
        z = np.random.default_rng(4).standard_normal((16, 64))
        cache = FeatureCache()
        net.forward(z, 2, None, capture=cache)
        injection = (cache, InjectionConfig(layers=DEEP_LAYERS, gamma=0.8))
        recorded = FeatureCache()
        with pytest.raises(ParameterError, match="not both"):
            net.forward(z, 2, None, injection=injection, capture=recorded)
        assert len(recorded) == 0
        assert net.num_evals == 1  # the capture; the refused call is no evaluation

    @pytest.mark.parametrize("t", [-1, 9, 2.5])
    def test_rejects_timestep_outside_schedule(self, t):
        net = ToyAttentionDenoiser(seed=5, total_steps=8)
        with pytest.raises(ParameterError, match="0..8"):
            net.forward(np.zeros((4, 64)), t, None)

    def test_accepts_both_schedule_ends(self):
        net = ToyAttentionDenoiser(seed=5, total_steps=8)
        for t in (0, 8, np.int64(4)):
            assert np.all(np.isfinite(net.forward(np.ones((4, 64)), t, None)))

    def test_rejects_bad_latent_shape(self):
        net = ToyAttentionDenoiser(seed=5)
        with pytest.raises(ShapeError):
            net.evaluate(np.zeros((4, 32)), 1, None)


@pytest.mark.parametrize("kind", ["net", "analytic", "spatial", "mode"])
def test_refused_call_is_no_evaluation(lab, kind):
    """A call refused for its latent's shape, its timestep or its mode counts
    no evaluation, so ``num_evals`` is the NFE of the calls that ran.
    ``spatial`` and ``mode`` take the analytic denoisers' restricted tables."""
    c = None
    if kind == "net":
        model = ToyAttentionDenoiser(seed=7)
    elif kind == "analytic":
        model = AnalyticDenoiser(lab.temporal_world, lab.sched_v)
    elif kind == "spatial":
        model, c = AnalyticDenoiser(lab.spatial_world, lab.sched_i), 2
    else:
        model, c = AnalyticDenoiser(lab.temporal_world, lab.sched_v), 1
    if kind in ("net", "mode"):
        for mode in (-1, 4, 7):
            with pytest.raises(ParameterError):
                model.evaluate(np.zeros((16, 64)), 2, mode)
    with pytest.raises(ShapeError):
        model.evaluate(np.zeros((16, 3)), 2, c)
    with pytest.raises(ParameterError):
        model.evaluate(np.zeros((16, 64)), 99, c)
    assert model.num_evals == 0
    model.evaluate(np.zeros((16, 64)), 2, c)
    assert model.num_evals == 1


@pytest.mark.parametrize("c", [1.5, np.float64(2.9), True, "1"], ids=["float", "float64", "bool", "str"])
def test_non_integer_condition_is_refused(lab, c):
    """A condition is a mode index, an int or a NumPy integer; anything else, a
    bool too, is refused rather than truncated to another mode, and no
    evaluation runs."""
    z = np.zeros((16, 64))
    net = ToyAttentionDenoiser(seed=7)
    denoisers = (AnalyticDenoiser(lab.spatial_world, lab.sched_i),
                 AnalyticDenoiser(lab.temporal_world, lab.sched_v), net)
    for model in denoisers:
        with pytest.raises(ParameterError):
            model.evaluate(z, 3, c)
        assert model.num_evals == 0
    with pytest.raises(ParameterError):
        net.forward(z, 3, c)
    for world in (lab.spatial_world, lab.temporal_world):
        with pytest.raises(ParameterError):
            sample_world(world, c, 0)
    with pytest.raises(ParameterError):
        score_video(z, z, lab.spatial_world, c)
    assert net.num_evals == 0


class TestTraining:
    def test_zero_steps_returns_initial_model(self, lab):
        recipe = TrainRecipe(steps=0, seed=9)
        model = train_toy_denoiser(lab.temporal_world, lab.sched_v, recipe)
        fresh = ToyAttentionDenoiser(
            dim=64, total_steps=lab.sched_v.total_steps, n_modes=4, seed=9
        )
        for name in fresh.param_names():
            np.testing.assert_array_equal(model.params[name], fresh.params[name])
        assert model.train_report["initial_loss"] == model.train_report["final_loss"]

    def test_short_training_reduces_held_out_loss(self, lab):
        recipe = TrainRecipe(steps=250, lr=3e-3, batch_size=16, seed=0)
        model = train_toy_denoiser(lab.temporal_world, lab.sched_v, recipe)
        assert model.train_report["final_loss"] < 0.5 * model.train_report["initial_loss"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises(self, lab):
        recipe = TrainRecipe(steps=40, lr=1e12, batch_size=8, seed=0)
        with pytest.raises(TrainingError):
            train_toy_denoiser(lab.temporal_world, lab.sched_v, recipe)

    @staticmethod
    def _one_stack_held_out_loss(lab, model, seed):
        """The held-out loss as one 256-video forward and one expression."""
        held_rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
        z_t, tfeat, cond_idx, eps = _draw_training_batch(
            lab.temporal_world, lab.sched_v, held_rng, 256, model.time_features
        )
        out, _ = _batched_forward(model, z_t, tfeat, cond_idx)
        return float(np.mean((out - eps) ** 2))

    @pytest.mark.parametrize("steps", [0, 3])
    def test_stacked_held_out_loss_matches_one_stack_bit_for_bit(self, lab, steps):
        model = train_toy_denoiser(lab.temporal_world, lab.sched_v, TrainRecipe(steps=steps, seed=4))
        fresh = ToyAttentionDenoiser(dim=64, total_steps=lab.sched_v.total_steps, n_modes=4, seed=4)
        report = model.train_report
        assert report["initial_loss"] == self._one_stack_held_out_loss(lab, fresh, 4)
        assert report["final_loss"] == self._one_stack_held_out_loss(lab, model, 4)

    def test_training_peak_memory_stays_within_one_step(self, lab):
        world = lab.temporal_world
        held_out_array = 256 * world.frames * world.dim * 8
        tracemalloc.start()
        try:
            train_toy_denoiser(world, lab.sched_v, TrainRecipe(steps=2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * held_out_array

    def test_no_step_holds_a_held_out_sized_block(self, lab, monkeypatch):
        world = lab.temporal_world
        held_out_array = 256 * world.frames * world.dim * 8
        largest = []

        def backward(*args):
            largest.append(max(trace.size for trace in tracemalloc.take_snapshot().traces))
            return _batched_backward(*args)

        monkeypatch.setattr(models, "_batched_backward", backward)
        tracemalloc.start()
        try:
            train_toy_denoiser(world, lab.sched_v, TrainRecipe(steps=2))
        finally:
            tracemalloc.stop()
        assert len(largest) == 2
        assert max(largest) < held_out_array

    def test_weights_after_40_steps_are_pinned(self, lab, tmp_path):
        from evs.io import write_net

        model = train_toy_denoiser(lab.temporal_world, lab.sched_v, TrainRecipe(steps=40))
        write_net(tmp_path / "net.evsnet", model)
        digest = hashlib.sha256((tmp_path / "net.evsnet").read_bytes()).hexdigest()
        assert digest == "45f6bec514fd5e2d63505fba5a596c416b3a84912f222dc8cf292e0a0a4576dc"


class TestBatchedTrainingPath:
    @staticmethod
    def _batch(net, ts, conds, seed):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((len(ts), 16, net.dim))
        tfeat = np.stack([_time_features(t, net.total_steps) for t in ts])
        cond_idx = np.array([net._cond_index(c) for c in conds])
        return z, tfeat, cond_idx

    def test_batched_forward_matches_single_video_forward(self):
        net = ToyAttentionDenoiser(seed=6)
        ts = [1, 3, 5, 8]
        conds = [None, 0, 2, 3]
        z, tfeat, cond_idx = self._batch(net, ts, conds, seed=7)
        batched, _ = _batched_forward(net, z, tfeat, cond_idx)
        for i, (t, c) in enumerate(zip(ts, conds)):
            np.testing.assert_allclose(batched[i], net.forward(z[i], t, c), rtol=0, atol=1e-12)

    def test_one_video_stack_matches_forward_bit_for_bit(self):
        from evs.sfi import ALL_LAYERS, FeatureCache, InjectionConfig

        net = ToyAttentionDenoiser(seed=11)
        rng = np.random.default_rng(12)
        # Injecting every feature each block has just recorded, at gamma 1,
        # changes no bit of the output.
        cfg = InjectionConfig(layers=ALL_LAYERS, gamma=1.0, inject_f=True)
        for frames, t, c in ((16, 3, 1), (1, 5, None)):
            z = rng.standard_normal((frames, net.dim))
            tfeat = _time_features(t, net.total_steps)[None]
            stacked, tape = _batched_forward(
                net, z[None], tfeat, np.array([net._cond_index(c)]), want_grads=True
            )
            cache = FeatureCache()
            captured = net.forward(z, t, c, capture=cache)
            injected = net.forward(z, t, c, injection=(cache, cfg))
            for out in (net.forward(z, t, c), captured, injected):
                assert np.array_equal(out, stacked[0])
            for layer in range(net.blocks):
                for kind in "QKV":
                    assert np.array_equal(cache.get(t, layer, kind), tape[kind.lower()][layer][0])

    def test_backward_matches_central_differences(self):
        net = ToyAttentionDenoiser(seed=8)
        z, tfeat, cond_idx = self._batch(
            net, [2, 4, 7], [1, None, 3], seed=9
        )
        rng = np.random.default_rng(10)
        weights = rng.standard_normal(z.shape)  # loss = sum(weights * output)

        def loss():
            out, _ = _batched_forward(net, z, tfeat, cond_idx)
            return float(np.sum(weights * out))

        _, tape = _batched_forward(net, z, tfeat, cond_idx, want_grads=True)
        grads = _batched_backward(net, z, tfeat, cond_idx, tape, weights)
        step = 1e-5
        for name in net.param_names():
            param, grad = net.params[name], grads[name]
            assert grad.shape == param.shape, name
            picks = rng.choice(param.size, size=min(5, param.size), replace=False)
            picks = np.union1d(picks, [np.argmax(np.abs(grad))])
            numeric = []
            for flat in picks:
                idx = np.unravel_index(flat, param.shape)
                saved = param[idx]
                param[idx] = saved + step
                up = loss()
                param[idx] = saved - step
                down = loss()
                param[idx] = saved
                numeric.append((up - down) / (2 * step))
            analytic = grad.ravel()[picks]
            rel = np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric)
            assert rel <= 1e-5, f"{name}: relative error {rel:.2e}"

    def test_time_feature_table_rows_match_time_features(self):
        from evs.models import _time_feature_table

        total = 8
        table = _time_feature_table(total)
        assert table.shape == (total + 1, 16)
        for t in range(total + 1):
            assert np.array_equal(table[t], _time_features(t, total))
