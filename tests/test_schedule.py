import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evs.errors import ParameterError, ShapeError
from evs.schedule import NoiseSchedule, build_linear_beta, forward_noise


def product_oracle(total, beta_start, beta_end):
    # Straightforward cumulative product, independent of the vectorized build.
    prod = 1.0
    for i in range(total):
        beta = beta_start + i * (beta_end - beta_start) / (total - 1)
        prod *= 1.0 - beta
    return prod


class TestBuildLinearBeta:
    def test_alpha_bar_zero_is_one(self):
        sched = build_linear_beta(50, 1e-4, 0.02)
        assert sched.alpha_bar[0] == 1.0

    def test_constant_beta_degenerate(self):
        sched = build_linear_beta(17, 0.01, 0.01)
        assert sched.alpha_bar[17] == pytest.approx((1 - 0.01) ** 17, rel=1e-12)

    def test_final_value_matches_product_oracle(self):
        sched = build_linear_beta(50, 1e-4, 0.02)
        assert sched.alpha_bar[50] == pytest.approx(0.602951597329715, rel=1e-12)
        assert sched.alpha_bar[50] == pytest.approx(product_oracle(50, 1e-4, 0.02), rel=1e-12)

    @pytest.mark.parametrize(
        "args",
        [(0, 1e-4, 0.02), (10, 0.0, 0.02), (10, 0.02, 1e-4), (10, 1e-4, 1.0), (10, -0.1, 0.5)],
    )
    def test_invalid_parameters(self, args):
        with pytest.raises(ParameterError):
            build_linear_beta(*args)

    @given(
        total=st.integers(1, 200),
        beta_start=st.floats(1e-6, 0.5),
        spread=st.floats(0.0, 0.4),
    )
    @settings(max_examples=50, deadline=None)
    def test_invariants_hold_for_any_valid_schedule(self, total, beta_start, spread):
        sched = build_linear_beta(total, beta_start, beta_start + spread)
        ab = sched.alpha_bar
        assert ab[0] == 1.0
        assert np.all(np.diff(ab) < 0)
        assert ab[-1] > 0.0 and np.all(ab <= 1.0)

    def test_defaults(self, lab):
        assert lab.sched_i.total_steps == 50
        assert lab.sched_v.total_steps == 8


class TestNoiseScheduleValidation:
    def test_rejects_nondecreasing(self):
        with pytest.raises(ParameterError):
            NoiseSchedule(total_steps=2, alpha_bar=np.array([1.0, 0.5, 0.5]))

    def test_rejects_wrong_origin(self):
        with pytest.raises(ParameterError):
            NoiseSchedule(total_steps=1, alpha_bar=np.array([0.99, 0.5]))

    def test_rejects_wrong_length(self):
        with pytest.raises(ShapeError):
            NoiseSchedule(total_steps=3, alpha_bar=np.array([1.0, 0.5]))


    def test_square_root_tables_are_exact_and_read_only(self):
        for sched in (build_linear_beta(50, 1e-4, 0.02), build_linear_beta(8, 0.05, 0.4)):
            assert np.array_equal(sched.sqrt_ab, np.sqrt(sched.alpha_bar))
            assert np.array_equal(sched.sqrt_1m_ab, np.sqrt(1.0 - sched.alpha_bar))
            for table in (sched.alpha_bar, sched.sqrt_ab, sched.sqrt_1m_ab):
                with pytest.raises(ValueError):
                    table[1] = 0.5

    def test_freezes_its_own_copy_of_alpha_bar(self):
        alpha_bar = np.array([1.0, 0.5])
        sched = NoiseSchedule(total_steps=1, alpha_bar=alpha_bar)
        alpha_bar[1] = 0.25
        assert sched.alpha_bar[1] == 0.5


class TestForwardNoise:
    def test_t_zero_is_identity(self, lab):
        rng = np.random.default_rng(0)
        z0 = rng.standard_normal((4, 8))
        eps = rng.standard_normal((4, 8))
        out = forward_noise(z0, 0, eps, lab.sched_i)
        assert np.array_equal(out, z0)

    def test_scalar_hand_case(self):
        sched = NoiseSchedule(total_steps=1, alpha_bar=np.array([1.0, 0.64]))
        out = forward_noise(np.array([[2.0]]), 1, np.array([[0.5]]), sched)
        assert out[0, 0] == pytest.approx(0.8 * 2.0 + 0.6 * 0.5, abs=1e-15)
        assert out[0, 0] == pytest.approx(1.9, abs=1e-15)

    def test_empirical_moments_match_closed_form(self, lab):
        # Sampling oracle at a single level; the full three-level check with
        # 1e5 draws lives in the acceptance suite.
        rng = np.random.default_rng(7)
        z0 = rng.standard_normal((4, 16))
        t = 20
        ab = lab.sched_i.alpha_bar[t]
        draws = np.stack(
            [forward_noise(z0, t, rng.standard_normal(z0.shape), lab.sched_i) for _ in range(4000)]
        )
        mean_err = np.linalg.norm(draws.mean(0) - np.sqrt(ab) * z0) / np.linalg.norm(np.sqrt(ab) * z0)
        assert mean_err < 0.02
        assert draws.var(0).mean() == pytest.approx(1 - ab, rel=0.05)

    def test_shape_mismatch(self, lab):
        with pytest.raises(ShapeError):
            forward_noise(np.zeros((2, 3)), 1, np.zeros((3, 2)), lab.sched_i)

    @given(a=st.floats(-2, 2), b=st.floats(-2, 2), t=st.integers(0, 50))
    @settings(max_examples=40, deadline=None)
    def test_linearity(self, a, b, t):
        sched = build_linear_beta(50, 1e-4, 0.02)
        rng = np.random.default_rng(3)
        z1, z2 = rng.standard_normal((2, 3, 4))
        e1, e2 = rng.standard_normal((2, 3, 4))
        lhs = forward_noise(a * z1 + b * z2, t, a * e1 + b * e2, sched)
        rhs = a * forward_noise(z1, t, e1, sched) + b * forward_noise(z2, t, e2, sched)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_zero_maps_to_zero(self, lab):
        z = np.zeros((2, 2))
        assert np.array_equal(forward_noise(z, 5, z, lab.sched_i), z)



@pytest.mark.parametrize("t", [2.5, True, "3", np.float64(3.9)], ids=["float", "bool", "str", "float64"])
def test_non_integer_timestep_is_refused(lab, t):
    """A timestep is an int or a NumPy integer; anything else, a bool too, is
    refused rather than truncated to another level, and no evaluation runs."""
    from evs.diffusion import ddim_sample
    from evs.models import AnalyticDenoiser

    with pytest.raises(ParameterError):
        lab.sched_i.check_timestep(t)
    model = AnalyticDenoiser(lab.spatial_world, lab.sched_i)
    z = np.zeros((16, 64))
    for c in (None, 1):
        with pytest.raises(ParameterError):
            model.evaluate(z, t, c)
        with pytest.raises(ParameterError):
            ddim_sample(z, t, 0, model, c, lab.sched_i)
    with pytest.raises(ParameterError):
        forward_noise(z, t, z, lab.sched_i)
    assert model.num_evals == 0
    assert lab.sched_i.check_timestep(np.int64(3)) == 3
