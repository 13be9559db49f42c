import math

import numpy as np
import pytest

from evs.diffusion import ddim_sample
from evs.errors import InjectionError, ParameterError, ShapeError
from evs.models import ToyAttentionDenoiser, sample_world
from evs.sfi import (
    ALL_LAYERS,
    DEEP_LAYERS,
    KINDS,
    SHALLOW_LAYERS,
    FeatureCache,
    InjectionConfig,
    blended_attention,
    denoise_with_injection,
    injection_keys,
    invert_with_capture,
)


def scalar_softmax_attention(queries, keys, values):
    """Independent oracle: per-query softmax over scalar scores (d=1)."""
    outs = []
    for q in queries:
        scores = [q * k for k in keys]
        m = max(scores)
        ws = [math.exp(s - m) for s in scores]
        z = sum(ws)
        outs.append(sum(w * v for w, v in zip(ws, values)) / z)
    return outs


class TestFeatureCache:
    def test_put_get_roundtrip(self):
        cache = FeatureCache()
        cache.put(3, 1, "Q", np.arange(6.0).reshape(2, 3))
        np.testing.assert_array_equal(cache.get(3, 1, "Q"), np.arange(6.0).reshape(2, 3))

    def test_write_once(self):
        cache = FeatureCache()
        cache.put(1, 0, "f", np.zeros(2))
        with pytest.raises(InjectionError):
            cache.put(1, 0, "f", np.ones(2))

    def test_missing_key_names_the_triple(self):
        cache = FeatureCache()
        with pytest.raises(InjectionError, match=r"t=2, layer=1, kind=V"):
            cache.get(2, 1, "V")

    def test_entries_are_read_only(self):
        cache = FeatureCache()
        cache.put(1, 0, "K", np.zeros(3))
        with pytest.raises(ValueError):
            cache.get(1, 0, "K")[0] = 5.0

    def test_keep_stores_only_the_listed_keys(self):
        cache = FeatureCache(keep={(2, 1, "K")})
        cache.put(2, 1, "K", np.ones(3))
        cache.put(2, 1, "V", np.zeros(3))
        assert len(cache) == 1
        np.testing.assert_array_equal(cache.get(2, 1, "K"), np.ones(3))
        with pytest.raises(InjectionError, match=r"kind=V"):
            cache.get(2, 1, "V")

    def test_duplicate_put_of_a_dropped_key_raises(self):
        cache = FeatureCache(keep=set())
        cache.put(1, 0, "f", np.zeros(2))
        with pytest.raises(InjectionError):
            cache.put(1, 0, "f", np.zeros(2))
        assert len(cache) == 0


class TestBlendedAttention:
    def test_gamma_one_ignores_runtime_query(self):
        rng = np.random.default_rng(0)
        q_inv, k_inv, v_inv = rng.standard_normal((3, 4, 8))
        out1 = blended_attention(rng.standard_normal((4, 8)), q_inv, k_inv, v_inv, 1.0)
        out2 = blended_attention(rng.standard_normal((4, 8)), q_inv, k_inv, v_inv, 1.0)
        assert np.array_equal(out1, out2)

    def test_single_token_returns_value(self):
        rng = np.random.default_rng(1)
        q, q_inv, k_inv, v_inv = rng.standard_normal((4, 1, 8))
        for gamma in (0.0, 0.3, 1.0):
            out = blended_attention(q, q_inv, k_inv, v_inv, gamma)
            np.testing.assert_array_equal(out, v_inv)

    def test_two_token_hand_case(self):
        q = np.array([[1.0], [0.0]])
        q_inv = np.array([[0.0], [1.0]])
        k_inv = np.array([[1.0], [2.0]])
        v_inv = np.array([[3.0], [5.0]])
        out = blended_attention(q, q_inv, k_inv, v_inv, 0.5)
        oracle = scalar_softmax_attention([0.5, 0.5], [1.0, 2.0], [3.0, 5.0])
        np.testing.assert_allclose(out[:, 0], oracle, rtol=1e-12)
        np.testing.assert_allclose(out[:, 0], [4.244918662403709] * 2, rtol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            blended_attention(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros((3, 2)), np.zeros((2, 3)), 0.5)

    def test_gamma_range(self):
        z = np.zeros((2, 2))
        with pytest.raises(ParameterError):
            blended_attention(z, z, z, z, 1.5)

    def test_config_gamma_validation(self):
        with pytest.raises(ParameterError):
            InjectionConfig(layers=ALL_LAYERS, gamma=-0.1)


class TestInvertWithCapture:
    def test_single_step_cache_size(self, lab):
        net = ToyAttentionDenoiser(seed=0)
        z0 = sample_world(lab.temporal_world, 0, 0)
        _, cache = invert_with_capture(z0, 1, net, 0, lab.sched_v)
        assert len(cache) == net.blocks * 4
        assert net.num_evals == 1

    def test_default_strength_on_short_schedule(self, lab):
        net = ToyAttentionDenoiser(seed=0)
        z0 = sample_world(lab.temporal_world, 1, 1)
        invert_with_capture(z0, 4, net, 1, lab.sched_v)
        assert net.num_evals == 4

    def test_cache_key_enumeration(self, lab):
        net = ToyAttentionDenoiser(seed=0)
        z0 = sample_world(lab.temporal_world, 2, 2)
        _, cache = invert_with_capture(z0, 3, net, 2, lab.sched_v)
        expected = {
            (t, layer, kind)
            for t in (1, 2, 3)
            for layer in range(net.blocks)
            for kind in ("f", "Q", "K", "V")
        }
        assert len(cache) == len(expected)
        for key in expected:
            cache.get(*key)


class TestInjectionKeys:
    def test_default_block_reads_twelve_features(self):
        keys = injection_keys(4, 2, InjectionConfig(layers=DEEP_LAYERS, gamma=0.8))
        assert keys == {(t, layer, kind) for t in (4, 3) for layer in (2, 3) for kind in "QKV"}

    def test_kinds_follow_the_toggles(self):
        cfg = InjectionConfig(layers=frozenset({1}), inject_f=True)
        assert injection_keys(3, 3, cfg) == {(t, 1, kind) for t in (3, 2, 1) for kind in "fQKV"}
        assert injection_keys(3, 1, InjectionConfig(layers=frozenset())) == set()

    def test_walk_reads_exactly_the_listed_keys(self, lab):
        net = ToyAttentionDenoiser(seed=3)
        c = 1
        z0 = sample_world(lab.temporal_world, c, 5)
        for cfg in (InjectionConfig(layers=DEEP_LAYERS, gamma=0.8),
                    InjectionConfig(layers=ALL_LAYERS, gamma=1.0, inject_f=True)):
            keep = injection_keys(4, 3, cfg)
            z, cache = invert_with_capture(z0, 4, net, c, lab.sched_v, keep=keep)
            assert len(cache) == len(keep)
            for key in keep:
                cache.get(*key)
            denoise_with_injection(z, 4, 3, net, c, lab.sched_v, cache, cfg)  # no cache miss


class TestDenoiseWithInjection:
    def _setup(self, lab, seed, net_seed=7, t_v=4):
        net = ToyAttentionDenoiser(seed=net_seed)
        c = seed % 4
        z0 = sample_world(lab.temporal_world, c, seed)
        z, cache = invert_with_capture(z0, t_v, net, c, lab.sched_v)
        return net, c, z0, z, cache

    def test_full_injection_reconstructs_input(self, lab):
        for seed in range(4):
            net, c, z0, z, cache = self._setup(lab, seed, net_seed=100 + seed)
            cfg = InjectionConfig(layers=ALL_LAYERS, gamma=1.0, inject_f=True)
            z_end, clean = denoise_with_injection(z, 4, 4, net, c, lab.sched_v, cache, cfg)
            rel = np.max(np.abs(clean - z0)) / np.max(np.abs(z0))
            assert rel < 1e-6
            assert np.max(np.abs(z_end - z0)) / np.max(np.abs(z0)) < 1e-6

    def test_empty_layers_equals_plain_sampling(self, lab):
        net, c, _, z, cache = self._setup(lab, 5)
        cfg = InjectionConfig(layers=frozenset(), gamma=0.5)
        evals0 = net.num_evals
        injected_z, injected_clean = denoise_with_injection(z, 4, 2, net, c, lab.sched_v, cache, cfg)
        net2 = ToyAttentionDenoiser(seed=7)
        plain_z, plain_clean = ddim_sample(z, 4, 2, net2, c, lab.sched_v)
        assert np.array_equal(injected_z, plain_z)
        assert np.array_equal(injected_clean, plain_clean)
        assert net.num_evals - evals0 == net2.num_evals == 2

    def test_cache_miss_is_reported(self, lab):
        net, c, _, z, cache = self._setup(lab, 6, t_v=2)
        cfg = InjectionConfig(layers=ALL_LAYERS, gamma=1.0)
        with pytest.raises(ParameterError):
            # n_v exceeding t_v is a parameter error, not a cache miss
            denoise_with_injection(z, 2, 3, net, c, lab.sched_v, cache, cfg)
        with pytest.raises(InjectionError, match=r"t=4"):
            denoise_with_injection(z, 4, 2, net, c, lab.sched_v, cache, cfg)

    def test_injection_leaves_cache_unchanged(self, lab):
        net, c, _, z, cache = self._setup(lab, 8)
        before = {
            (t, layer, kind): cache.get(t, layer, kind).copy()
            for t in range(1, 5) for layer in range(net.blocks) for kind in KINDS
        }
        cfg = InjectionConfig(layers=DEEP_LAYERS, gamma=0.8)
        denoise_with_injection(z, 4, 4, net, c, lab.sched_v, cache, cfg)
        assert len(cache) == len(before)
        assert all(np.array_equal(cache.get(*key), value) for key, value in before.items())

    def test_named_operating_points_differ(self, lab):
        # deep/0.8 and shallow/0.5 are distinct selective operating points
        net, c, _, z, cache = self._setup(lab, 9)
        _, deep = denoise_with_injection(
            z, 4, 4, net, c, lab.sched_v, cache, InjectionConfig(layers=DEEP_LAYERS, gamma=0.8)
        )
        _, shallow = denoise_with_injection(
            z, 4, 4, net, c, lab.sched_v, cache, InjectionConfig(layers=SHALLOW_LAYERS, gamma=0.5)
        )
        assert np.all(np.isfinite(deep))
        assert np.all(np.isfinite(shallow))
        assert not np.allclose(deep, shallow)

    def test_nfe_equals_steps(self, lab):
        net, c, _, z, cache = self._setup(lab, 10)
        evals0 = net.num_evals
        denoise_with_injection(
            z, 4, 3, net, c, lab.sched_v, cache, InjectionConfig(layers=DEEP_LAYERS, gamma=0.8)
        )
        assert net.num_evals - evals0 == 3
