import numpy as np
import pytest

from evs.diffusion import _descend, ddim_invert, ddim_sample, predict_clean, sdedit_refine
from evs.errors import CapabilityError, NumericError, ParameterError
from evs.metrics import psnr
from evs.models import (
    AnalyticDenoiser,
    Denoiser,
    SpatialWorld,
    ToyAttentionDenoiser,
    sample_world,
)
from evs.schedule import NoiseSchedule, build_linear_beta, forward_noise
from evs.sfi import ALL_LAYERS, InjectionConfig, denoise_with_injection, invert_with_capture


class ConstantDenoiser(Denoiser):
    """Stub predicting one fixed value everywhere."""

    def __init__(self, value):
        super().__init__()
        self.value = value

    def _eps(self, z_t, t, c):
        return np.full_like(np.asarray(z_t, dtype=np.float64), self.value)


class NanDenoiser(Denoiser):
    def _eps(self, z_t, t, c):
        return np.full_like(np.asarray(z_t, dtype=np.float64), np.nan)


class Recorder(Denoiser):
    """Delegates to ``inner`` and keeps each call's latent, level and output."""

    def __init__(self, inner):
        super().__init__()
        self.inner = inner
        self.calls = []

    def _eps(self, z_t, t, c):
        eps = self.inner.evaluate(z_t, t, c)
        self.calls.append((z_t.copy(), t, eps))
        return eps


def single_gaussian_world(sigma=0.5, dim=8, frames=4):
    return SpatialWorld(
        means=np.zeros((1, dim)), weights=np.array([1.0]), sigma=sigma, frames=frames
    )


class TestPredictClean:
    def test_recovers_clean_latent_with_oracle_noise(self, lab):
        rng = np.random.default_rng(1)
        z0 = rng.standard_normal((4, 8))
        eps = rng.standard_normal((4, 8))
        z_t = forward_noise(z0, 20, eps, lab.sched_i)
        rec = predict_clean(z_t, 20, eps, lab.sched_i)
        assert np.max(np.abs(rec - z0)) / np.max(np.abs(z0)) < 1e-10

    def test_hand_case(self):
        sched = NoiseSchedule(total_steps=1, alpha_bar=np.array([1.0, 0.64]))
        out = predict_clean(np.array([[1.9]]), 1, np.array([[0.5]]), sched)
        assert out[0, 0] == pytest.approx(2.0, abs=1e-14)

    def test_rejects_t_zero(self, lab):
        with pytest.raises(ParameterError):
            predict_clean(np.zeros((2, 2)), 0, np.zeros((2, 2)), lab.sched_i)

    def test_matches_posterior_mean_for_single_gaussian(self):
        # Conditional-mean oracle by self-normalized importance sampling over
        # prior draws; the analytic denoiser must land within 3 SE.
        world = single_gaussian_world(sigma=0.5, dim=2, frames=1)
        sched = build_linear_beta(8, 1e-2, 0.3)
        model = AnalyticDenoiser(world, sched)
        rng = np.random.default_rng(11)
        t = 4
        ab = sched.alpha_bar[t]
        z_t = np.array([[0.7, -0.4]])
        draws = world.sigma * rng.standard_normal((1_000_000, 2))
        logw = -((z_t[0] - np.sqrt(ab) * draws) ** 2).sum(1) / (2 * (1 - ab))
        w = np.exp(logw - logw.max())
        est = (w[:, None] * draws).sum(0) / w.sum()
        batches = np.array_split(np.arange(len(w)), 50)
        per_batch = np.stack(
            [(w[b][:, None] * draws[b]).sum(0) / w[b].sum() for b in batches]
        )
        se = per_batch.std(0, ddof=1) / np.sqrt(len(batches))
        eps_hat = model.evaluate(z_t, t, None)
        post_mean = predict_clean(z_t, t, eps_hat, sched)
        assert np.all(np.abs(post_mean[0] - est) <= 3 * np.maximum(se, 1e-9))


class TestDdimStep:
    """One reverse step, taken through ``ddim_sample(z, t, t - 1, ...)``."""

    def test_endpoint_identity(self, lab):
        model = ConstantDenoiser(0.3)
        z = np.ones((2, 3))
        z_prev, pred = ddim_sample(z, 1, 0, model, None, lab.sched_i)
        assert np.array_equal(z_prev, pred)

    def test_hand_case(self):
        sched = NoiseSchedule(total_steps=2, alpha_bar=np.array([1.0, 0.81, 0.64]))
        model = ConstantDenoiser(0.5)
        z_t = np.array([[0.8 * 2.0 + 0.6 * 0.5]])  # predicted clean will be 2.0
        z_prev, pred = ddim_sample(z_t, 2, 1, model, None, sched)
        assert pred[0, 0] == pytest.approx(2.0, abs=1e-14)
        assert z_prev[0, 0] == pytest.approx(2.0179449471770337, abs=1e-12)

    def test_rejects_bad_order(self, lab):
        with pytest.raises(ParameterError):
            ddim_sample(np.zeros((1, 1)), 3, 3, ConstantDenoiser(0.0), None, lab.sched_i)

    def test_non_finite_model_output(self, lab):
        with pytest.raises(NumericError):
            ddim_sample(np.zeros((1, 1)), 5, 4, NanDenoiser(), None, lab.sched_i)

    def test_one_eval_per_step(self, lab):
        model = ConstantDenoiser(0.0)
        ddim_sample(np.zeros((1, 1)), 5, 4, model, None, lab.sched_i)
        assert model.num_evals == 1

    def test_update_matches_scalar_formula_bit_for_bit(self, lab):
        # The update indexes the schedule's square-root tables; the scalar
        # square roots it replaced are the reference, walking down and up.
        rng = np.random.default_rng(8)
        for sched in (lab.sched_i, lab.sched_v):
            for _ in range(200):
                t, t_next = rng.choice(sched.total_steps + 1, size=2, replace=False)
                z, eps = rng.standard_normal((2, 4, 6))
                ab_t, ab_n = sched.alpha_bar[t], sched.alpha_bar[t_next]
                pred = (z - np.sqrt(1.0 - ab_t) * eps) / np.sqrt(ab_t)
                z_next = np.sqrt(ab_n) * pred + np.sqrt(1.0 - ab_n) * eps
                got_next, got_pred = _descend(z, t, t_next, eps, sched)
                assert np.array_equal(got_pred, pred) and np.array_equal(got_next, z_next)


def refine_schedule(sched, factor):
    """Geometric interpolation of alpha_bar between integer levels."""
    log_ab = np.log(sched.alpha_bar)
    fine = [1.0]
    for t in range(sched.total_steps):
        for k in range(1, factor + 1):
            frac = k / factor
            fine.append(float(np.exp(log_ab[t] * (1 - frac) + log_ab[t + 1] * frac)))
    return NoiseSchedule(total_steps=sched.total_steps * factor, alpha_bar=np.array(fine))


class TestTrajectoryAgainstReferenceIntegrator:
    def test_full_reverse_matches_closed_form_flow(self):
        # Single-Gaussian prior: the exact flow scales the deviation from the
        # (scaled) mean by sigma / marginal-std.  A 10x-substep reference walk
        # must sit closer to that limit than the stride-1 walk does, and the
        # stride-1 endpoint must already be within a few percent.
        world = single_gaussian_world(sigma=0.5)
        sched = build_linear_beta(50, 1e-4, 0.02)
        t_start = 40
        ab = sched.alpha_bar[t_start]
        rng = np.random.default_rng(3)
        z_t = np.sqrt(ab) * world.means[0] + rng.standard_normal((4, 8))

        model = AnalyticDenoiser(world, sched)
        coarse, _ = ddim_sample(z_t, t_start, 0, model, None, sched)

        factor = 10
        fine_sched = refine_schedule(sched, factor)
        fine_model = AnalyticDenoiser(world, fine_sched)
        fine, _ = ddim_sample(z_t, t_start * factor, 0, fine_model, None, fine_sched)

        s_t = np.sqrt(ab * world.sigma**2 + 1 - ab)
        closed = world.means[0] + (z_t - np.sqrt(ab) * world.means[0]) * world.sigma / s_t

        scale = np.linalg.norm(closed)
        assert np.linalg.norm(fine - closed) / scale < np.linalg.norm(coarse - closed) / scale
        assert np.linalg.norm(coarse - closed) / scale < 0.03
        assert np.linalg.norm(fine - closed) / scale < 0.005


class TestDdimSample:
    def test_single_step_equals_ddim_step(self, lab):
        # One step is the DDIM update fed with one evaluation, bit for bit.
        model = AnalyticDenoiser(lab.spatial_world, lab.sched_i)
        rng = np.random.default_rng(5)
        z = rng.standard_normal((16, 64))
        z_prev, pred = ddim_sample(z, 10, 9, model, None, lab.sched_i)
        assert model.num_evals == 1
        want_prev, want_pred = _descend(z, 10, 9, model.evaluate(z, 10, None), lab.sched_i)
        assert np.array_equal(z_prev, want_prev)
        assert np.array_equal(pred, want_pred)

    def test_endpoint_identity_at_zero(self, lab):
        model = ConstantDenoiser(0.2)
        z, pred = ddim_sample(np.ones((2, 2)), 5, 0, model, None, lab.sched_i)
        assert np.array_equal(z, pred)

    @pytest.mark.parametrize("t_from,t_to", [(10, 0), (20, 10), (3, 2)])
    def test_nfe_counting(self, t_from, t_to, lab):
        model = ConstantDenoiser(0.0)
        ddim_sample(np.zeros((2, 2)), t_from, t_to, model, None, lab.sched_i)
        assert model.num_evals == t_from - t_to

    def test_rejects_bad_range(self, lab):
        with pytest.raises(ParameterError):
            ddim_sample(np.zeros((1, 1)), 5, 5, ConstantDenoiser(0.0), None, lab.sched_i)


class TestDdimInvert:
    def test_zero_denoiser_is_pure_rescaling(self, lab):
        rng = np.random.default_rng(2)
        z0 = rng.standard_normal((4, 8))
        for t in (1, 5, 20):
            model = ConstantDenoiser(0.0)
            z = ddim_invert(z0, t, model, None, lab.sched_i)
            np.testing.assert_allclose(z, np.sqrt(lab.sched_i.alpha_bar[t]) * z0, atol=1e-12)
            assert model.num_evals == t

    def test_round_trip_reconstruction(self, lab):
        # In-distribution videos, full inversion on the 50-step schedule.
        model = AnalyticDenoiser(lab.spatial_world, lab.sched_i)
        for seed in range(3):
            c = seed % 4
            z0 = sample_world(lab.spatial_world, c, seed)
            z = ddim_invert(z0, 50, model, c, lab.sched_i)
            back, _ = ddim_sample(z, 50, 0, model, c, lab.sched_i)
            assert psnr(back, z0, peak=2.0) >= 40.0

    def test_fewer_steps_reconstruct_worse(self, lab):
        # Same total noise budget, coarser walk: the short schedule must lose.
        errs = {}
        for total in (5, 50):
            sched = build_linear_beta(total, 1e-4 * 50 / total, 0.02 * 50 / total)
            model = AnalyticDenoiser(lab.spatial_world, sched)
            seed_errs = []
            for seed in range(20):
                c = seed % 4
                z0 = sample_world(lab.spatial_world, c, seed)
                z = ddim_invert(z0, total, model, c, sched)
                back, _ = ddim_sample(z, total, 0, model, c, sched)
                seed_errs.append(np.sqrt(np.mean((back - z0) ** 2)))
            errs[total] = np.mean(seed_errs)
        assert errs[5] > errs[50]

    def test_capture_requires_taps(self, lab):
        from evs.sfi import FeatureCache

        with pytest.raises(CapabilityError):
            ddim_invert(
                np.zeros((2, 2)), 3, ConstantDenoiser(0.0), None, lab.sched_i, capture=FeatureCache()
            )

    def test_rejects_t_zero_target(self, lab):
        with pytest.raises(ParameterError):
            ddim_invert(np.zeros((2, 2)), 0, ConstantDenoiser(0.0), None, lab.sched_i)


class TestSdeditRefine:
    def test_rejects_zero_noising(self, lab):
        rng = np.random.default_rng(0)
        with pytest.raises(ParameterError):
            sdedit_refine(np.zeros((2, 2)), 0, 0, ConstantDenoiser(0.0), None, lab.sched_i, rng)

    def test_minimal_refinement(self, lab):
        model = ConstantDenoiser(0.0)
        sdedit_refine(np.zeros((2, 2)), 1, 0, model, None, lab.sched_i, np.random.default_rng(0))
        assert model.num_evals == 1

    def test_default_strength_mapping(self, lab):
        # Strength 0.4 on the 50-step schedule: 20 levels, 20 evaluations.
        model = ConstantDenoiser(0.0)
        sdedit_refine(np.zeros((2, 2)), 20, 0, model, None, lab.sched_i, np.random.default_rng(1))
        assert model.num_evals == 20

    def test_contraction_matches_closed_form(self):
        # Norm-contraction toward the prior mean over 100 fresh-noise draws,
        # compared with the closed-form Gaussian flow factor.
        world = single_gaussian_world(sigma=0.5)
        sched = build_linear_beta(50, 1e-4, 0.02)
        model = AnalyticDenoiser(world, sched)
        t_noise = 20
        ab = sched.alpha_bar[t_noise]
        s_t = np.sqrt(ab * world.sigma**2 + 1 - ab)
        n = world.frames * world.means.shape[1]
        ratios, expected = [], []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            z0 = rng.standard_normal((world.frames, 8)) * 2.0
            _, clean = sdedit_refine(z0, t_noise, 0, model, None, sched, rng)
            ratios.append(np.linalg.norm(clean) / np.linalg.norm(z0))
            d0 = np.linalg.norm(z0)
            expected.append(np.sqrt(ab * d0**2 + (1 - ab) * n) / d0 * world.sigma / s_t)
        assert np.mean(ratios) == pytest.approx(np.mean(expected), rel=0.05)

    def test_deterministic_given_seed(self, lab):
        model = AnalyticDenoiser(lab.spatial_world, lab.sched_i)
        z0 = sample_world(lab.spatial_world, 0, 4)
        outs = []
        for _ in range(2):
            rng = np.random.default_rng(12345)
            outs.append(sdedit_refine(z0, 10, 0, model, 0, lab.sched_i, rng))
        (z_a, clean_a), (z_b, clean_b) = outs
        assert np.array_equal(z_a, z_b)
        assert np.array_equal(clean_a, clean_b)


def assert_within_rounding(got, want):
    # 1e-13 of the latent's scale: the random-init net's walks reach values
    # near 20, and their folded and chained ends differ by up to 6e-13.
    assert np.abs(got - want).max() <= 1e-13 * max(1.0, np.abs(want).max())


class TestFoldedWalk:
    """Every step of a walk but the last takes the folded update; a chain of
    ``_descend`` steps, the update before the fold, is the oracle."""

    @pytest.mark.parametrize("direction", ["down", "up"])
    @pytest.mark.parametrize("kind", ["analytic", "constant", "net"])
    def test_walk_matches_chain_of_descend_steps(self, lab, kind, direction):
        rng = np.random.default_rng(40)
        pairs = ((lab.sched_i, lab.spatial_world), (lab.sched_v, lab.temporal_world))
        # The net's levels are those of the temporal schedule only.
        for sched, world in pairs[1:] if kind == "net" else pairs:
            if kind == "analytic":
                model = AnalyticDenoiser(world, sched)
            elif kind == "constant":
                model = ConstantDenoiser(0.3)
            else:
                model = ToyAttentionDenoiser(seed=3)
            top = sched.total_steps
            levels = range(top, 0, -1) if direction == "down" else range(top)
            steps = [(t, t - 1) if direction == "down" else (t, t + 1) for t in levels]
            for c in (None, 1):
                z0 = rng.standard_normal((world.frames, world.dim))
                z, pred = z0, None
                for t, t_next in steps:
                    z, pred = _descend(z, t, t_next, model.evaluate(z, t, c), sched)
                recorder = Recorder(model)
                if direction == "down":
                    got, got_pred = ddim_sample(z0, top, 0, recorder, c, sched)
                    assert_within_rounding(got_pred, pred)
                else:
                    got, got_pred = ddim_invert(z0, top, recorder, c, sched), None
                assert_within_rounding(got, z)
                assert [t for _, t, _ in recorder.calls] == list(levels)
                # The last step is _descend itself, bit for bit.
                z_last, t, eps = recorder.calls[-1]
                want, want_pred = _descend(z_last, t, steps[-1][1], eps, sched)
                assert np.array_equal(got, want)
                assert got_pred is None or np.array_equal(got_pred, want_pred)


class NanAtNet(ToyAttentionDenoiser):
    """The net, except that its prediction at level ``bad`` is NaN."""

    bad = None

    def forward(self, z_t, t, c, **taps):
        eps = super().forward(z_t, t, c, **taps)
        return np.full_like(eps, np.nan) if t == self.bad else eps


class TestFiniteCheck:
    """A walk checks its returned latent and clean prediction once, at its end."""

    @pytest.mark.parametrize("walk", ["down", "invert-capture", "inject"])
    def test_nan_at_a_middle_step_is_numeric_error(self, lab, walk):
        net = NanAtNet(seed=3)
        z0 = np.random.default_rng(5).standard_normal((16, 64))
        z6, cache = invert_with_capture(z0, 6, net, 1, lab.sched_v)
        net.bad = 3
        with pytest.raises(NumericError, match=r"walk from t=\d to t=\d"):
            if walk == "down":
                ddim_sample(z6, 6, 0, net, 1, lab.sched_v)
            elif walk == "invert-capture":
                invert_with_capture(z0, 6, net, 1, lab.sched_v)
            else:
                denoise_with_injection(z6, 6, 6, net, 1, lab.sched_v, cache,
                                       InjectionConfig(layers=ALL_LAYERS))
        assert net.num_evals == 6 + 6  # the refused walk ran to its end

    def test_overflow_from_finite_predictions_is_numeric_error(self, lab):
        # Every step scales the latent by sqrt(ab_next)/sqrt(ab_t) > 1, so a
        # latent near the float64 maximum overflows though each prediction is 0.
        z = np.full((2, 3), 0.9 * np.finfo(np.float64).max)
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            ddim_sample(z, 50, 0, ConstantDenoiser(0.0), None, lab.sched_i)
