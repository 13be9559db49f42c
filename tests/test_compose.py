from dataclasses import replace

import numpy as np
import pytest

from evs import compose
from evs.bench import PIPELINES, _execute
from evs.compose import (
    BLOCK_INVERSION_SFI,
    BLOCK_SDEDIT,
    PLANS,
    ModelBundle,
    PipelineConfig,
    compose_iv,
    compose_vi,
    run_evs,
    run_iterated_baseline,
    run_t2i_only,
    run_t2v_only,
    stage_nfe,
)
from evs.config import build_lab
from evs.diffusion import ddim_sample, predict_clean
from evs.errors import CapabilityError, ParameterError
from evs.metrics import IQ_OFFSET, IQ_SCALE, TAU, imaging_quality, motion_smoothness
from evs.models import AnalyticDenoiser, ToyAttentionDenoiser, make_degraded_video
from evs.schedule import forward_noise
from evs.sfi import (
    ALL_LAYERS,
    DEEP_LAYERS,
    SHALLOW_LAYERS,
    FeatureCache,
    InjectionConfig,
    denoise_with_injection,
    injection_keys,
)


@pytest.fixture()
def bundle(lab):
    # Fresh denoisers per test so eval counters start at zero.
    return ModelBundle(
        spatial=AnalyticDenoiser(lab.spatial_world, lab.sched_i),
        temporal=AnalyticDenoiser(lab.temporal_world, lab.sched_v),
        spatial_schedule=lab.sched_i,
        temporal_schedule=lab.sched_v,
    )


@pytest.fixture()
def sfi_bundle(lab):
    return ModelBundle(
        spatial=AnalyticDenoiser(lab.spatial_world, lab.sched_i),
        temporal=ToyAttentionDenoiser(seed=11),
        spatial_schedule=lab.sched_i,
        temporal_schedule=lab.sched_v,
    )


def degraded(lab, seed):
    c = seed % 4
    return make_degraded_video(lab.temporal_world, c, 0.2, 1000 + seed), c


def rng_for(*key):
    return np.random.default_rng(np.random.SeedSequence(list(key)))


# The first word of the key of an evs item's generator in ``bench._item_rng``.
EVS_KEY = 0x45565321
# The default noising levels, spelled out: t_I spatial and t_V temporal steps.
P = PipelineConfig(t_I=20, t_V=4)


SDEDIT_CFG = dict(block_mode=BLOCK_SDEDIT, injection=None)


class TestSinglePipelines:
    def test_t2i_counting_at_default_strength(self, lab, bundle):
        z0, c = degraded(lab, 0)
        result = run_t2i_only(z0, P, bundle, c, rng_for(1))
        assert result.nfe_t2i == 20
        assert result.nfe_t2v == 0
        assert bundle.spatial.num_evals == 20

    def test_t2i_rejects_zero(self, lab, bundle):
        z0, c = degraded(lab, 0)
        with pytest.raises(ParameterError):
            run_t2i_only(z0, replace(P, t_I=0), bundle, c, rng_for(1))

    def test_t2i_improves_imaging_quality(self, lab, bundle, degraded_videos):
        gains = []
        iq = IQ_OFFSET, IQ_SCALE
        for i, (z0, c) in enumerate(degraded_videos[:10]):
            out = run_t2i_only(z0, P, bundle, c, rng_for(2, i)).output
            gains.append(imaging_quality(out, lab.spatial_world, c, *iq)
                         - imaging_quality(z0, lab.spatial_world, c, *iq))
        assert np.mean(gains) > 0

    def test_t2v_counting(self, lab, bundle):
        z0, c = degraded(lab, 0)
        result = run_t2v_only(z0, P, bundle, c, rng_for(3))
        assert result.nfe_t2v == 4
        assert result.nfe_t2i == 0

    def test_t2v_improves_motion_smoothness(self, lab, bundle, degraded_videos):
        gains = []
        for i, (z0, c) in enumerate(degraded_videos[:10]):
            out = run_t2v_only(z0, P, bundle, c, rng_for(4, i)).output
            gains.append(motion_smoothness(out, TAU) - motion_smoothness(z0, TAU))
        assert np.mean(gains) > 0

    def test_t2v_output_couples_frames(self, lab, bundle):
        z0, c = degraded(lab, 0)
        perm = np.roll(np.arange(z0.shape[0]), 5)
        out = run_t2v_only(z0, P, bundle, c, rng_for(5)).output
        out_perm = run_t2v_only(z0[perm], P, bundle, c, rng_for(5)).output
        assert not np.allclose(out_perm, out[perm], atol=1e-8)


class TestBasicCompositions:
    # A stage noises to t_noise >= 1; zero-depth stages are not dropped.
    def test_vi_with_zero_spatial_stage_is_rejected(self, lab, bundle):
        z0, c = degraded(lab, 1)
        with pytest.raises(ParameterError):
            compose_vi(z0, replace(P, t_I=0), bundle, c, rng_for(6))

    def test_iv_with_zero_temporal_stage_is_rejected(self, lab, bundle):
        z0, c = degraded(lab, 1)
        with pytest.raises(ParameterError):
            compose_iv(z0, replace(P, t_V=0), bundle, c, rng_for(7))

    def test_nfe_totals(self, lab, bundle):
        z0, c = degraded(lab, 2)
        vi = compose_vi(z0, P, bundle, c, rng_for(8))
        assert vi.nfe_t2v == 4 and vi.nfe_t2i == 20
        iv = compose_iv(z0, P, bundle, c, rng_for(9))
        assert iv.nfe_t2i == 20 and iv.nfe_t2v == 4

    def test_trailing_spatial_stage_reintroduces_flicker(self, lab, bundle, degraded_videos):
        vi_ms, t2v_ms = [], []
        for i, (z0, c) in enumerate(degraded_videos[:10]):
            vi_ms.append(motion_smoothness(compose_vi(z0, P, bundle, c, rng_for(10, i)).output, TAU))
            t2v_ms.append(motion_smoothness(run_t2v_only(z0, P, bundle, c, rng_for(11, i)).output, TAU))
        assert np.mean(vi_ms) < np.mean(t2v_ms)

    def test_trailing_temporal_stage_costs_imaging_quality(self, lab, bundle, degraded_videos):
        iv_iq, vi_iq = [], []
        iq = IQ_OFFSET, IQ_SCALE
        for i, (z0, c) in enumerate(degraded_videos[:10]):
            iv_out = compose_iv(z0, P, bundle, c, rng_for(12, i)).output
            vi_out = compose_vi(z0, P, bundle, c, rng_for(12, i)).output
            iv_iq.append(imaging_quality(iv_out, lab.spatial_world, c, *iq))
            vi_iq.append(imaging_quality(vi_out, lab.spatial_world, c, *iq))
        assert np.mean(iv_iq) < np.mean(vi_iq)


class TestEncapsulatedPipeline:
    def test_default_sdedit_counting(self, lab, bundle):
        z0, c = degraded(lab, 3)
        cfg = PipelineConfig(**SDEDIT_CFG)
        result = run_evs(z0, cfg, bundle, c, rng_for(EVS_KEY, 0))
        assert result.nfe_t2i == 20
        assert result.nfe_t2v == cfg.n_V == 2
        assert bundle.spatial.num_evals == result.nfe_t2i
        assert bundle.temporal.num_evals == result.nfe_t2v

    def test_default_sfi_counting(self, lab, sfi_bundle):
        z0, c = degraded(lab, 3)
        cfg = PipelineConfig()  # inversion+sfi, deep layers, gamma 0.8
        result = run_evs(z0, cfg, sfi_bundle, c, rng_for(EVS_KEY, 0))
        assert result.nfe_t2i == 20
        assert result.nfe_t2v == cfg.t_V + cfg.n_V == 6
        assert result.nfe_t2i + result.nfe_t2v == 26

    def test_sfi_block_cache_keeps_only_injected_keys(self, lab, sfi_bundle, monkeypatch):
        puts, gets, caches = [], set(), []
        put, get, denoise = FeatureCache.put, FeatureCache.get, compose.denoise_with_injection

        def spy_put(self, t, layer, kind, value):
            puts.append((t, layer, kind))
            return put(self, t, layer, kind, value)

        def spy_get(self, t, layer, kind):
            gets.add((t, layer, kind))
            return get(self, t, layer, kind)

        def spy_denoise(*args):
            caches.append(args[6])
            return denoise(*args)

        monkeypatch.setattr(FeatureCache, "put", spy_put)
        monkeypatch.setattr(FeatureCache, "get", spy_get)
        monkeypatch.setattr(compose, "denoise_with_injection", spy_denoise)
        z0, c = degraded(lab, 3)
        cfg = PipelineConfig()
        run_evs(z0, cfg, sfi_bundle, c, rng_for(EVS_KEY, 0))
        assert len(puts) == len(set(puts)) == cfg.t_V * sfi_bundle.temporal.blocks * 4 == 64
        (cache,) = caches
        expected = injection_keys(cfg.t_V, cfg.n_V, cfg.injection)
        assert gets == expected
        assert len(cache) == len(expected) == 12
        for key in expected:
            cache.get(*key)

    @pytest.mark.parametrize("injection", [
        InjectionConfig(layers=DEEP_LAYERS, gamma=0.8),
        InjectionConfig(layers=SHALLOW_LAYERS, gamma=0.3, inject_f=True),
    ])
    def test_selective_cache_matches_keeping_every_feature(self, lab, injection, monkeypatch):
        z0, c = degraded(lab, 4)
        cfg = PipelineConfig(t_V=5, n_V=3, injection=injection)
        outs = []
        for keep_all in (False, True):
            if keep_all:
                monkeypatch.setattr(compose, "injection_keys", lambda *args: None)
            bundle = ModelBundle(
                spatial=AnalyticDenoiser(lab.spatial_world, lab.sched_i),
                temporal=ToyAttentionDenoiser(seed=11),
                spatial_schedule=lab.sched_i,
                temporal_schedule=lab.sched_v,
            )
            outs.append(run_evs(z0, cfg, bundle, c, rng_for(EVS_KEY, 2)).output)
        assert np.array_equal(outs[0], outs[1])

    def test_sfi_mode_requires_taps(self, lab, bundle):
        z0, c = degraded(lab, 3)
        with pytest.raises(CapabilityError):
            run_evs(z0, PipelineConfig(), bundle, c, rng_for(EVS_KEY, 0))

    def test_config_invariants(self):
        # Building a config checks it, dataclasses.replace included.
        for bad in (
            dict(t_T2V=0),
            dict(t_T2V=25),
            dict(t_I=60),
            dict(n_V=0),
            dict(n_V=5),
            dict(t_V=9),
            dict(block_mode="nope"),
            dict(rounds=0),
        ):
            with pytest.raises(ParameterError):
                PipelineConfig(**{**SDEDIT_CFG, **bad})
        with pytest.raises(ParameterError, match="n_V=2, t_V=1"):
            replace(PipelineConfig(), t_V=1)

    def test_single_temporal_stage(self):
        plan = PLANS["evs"](PipelineConfig(**SDEDIT_CFG))
        temporal_stages = [i for i, (name, _, _) in enumerate(plan) if name.startswith("t2v")]
        assert len(temporal_stages) == 1
        # temporal work is contiguous in the plan
        assert temporal_stages[0] == 1

    def test_stage_log_structure(self):
        # The trailing t2i stage's own draw re-noises the block output to t_T2V.
        assert PLANS["evs"](PipelineConfig()) == [("t2i", 20, 10), ("t2v:sfi", 4, 2), ("t2i", 10, 0)]

    def test_deterministic_given_seed(self, lab):
        z0, c = degraded(lab, 6)
        outs = []
        for _ in range(2):
            bundle = ModelBundle(
                spatial=AnalyticDenoiser(lab.spatial_world, lab.sched_i),
                temporal=AnalyticDenoiser(lab.temporal_world, lab.sched_v),
                spatial_schedule=lab.sched_i,
                temporal_schedule=lab.sched_v,
            )
            outs.append(run_evs(z0, PipelineConfig(**SDEDIT_CFG), bundle, c, rng_for(EVS_KEY, 77)).output)
        assert np.array_equal(outs[0], outs[1])

    def test_block_at_start_with_identity_block_matches_t2i(self, lab, sfi_bundle):
        # Inserting the block before any spatial step, with the block pinned
        # to exact reconstruction, must reduce to frame-wise refinement of the
        # one-shot spatial prediction at t_I: the first draw noises the input,
        # the second re-noises the prediction.
        z0, c = degraded(lab, 7)
        cfg = PipelineConfig(
            t_I=20, t_T2V=20, t_V=4, n_V=4,
            injection=InjectionConfig(layers=ALL_LAYERS, gamma=1.0, inject_f=True),
        )
        evs_result = run_evs(z0, cfg, sfi_bundle, c, rng_for(EVS_KEY, 5))
        rng = rng_for(EVS_KEY, 5)
        spatial, sched = AnalyticDenoiser(lab.spatial_world, lab.sched_i), lab.sched_i
        z = forward_noise(z0, 20, rng.standard_normal(z0.shape), sched)
        bridge = predict_clean(z, 20, spatial.evaluate(z, 20, c), sched)
        z = forward_noise(bridge, 20, rng.standard_normal(z0.shape), sched)
        _, plain = ddim_sample(z, 20, 0, spatial, c, sched)
        np.testing.assert_allclose(evs_result.output, plain, rtol=1e-6, atol=1e-9)
        assert evs_result.nfe_t2i == 21
        assert PLANS["evs"](cfg)[0] == ("t2i", 20, 20)


class TestHyperparameterDirections:
    """Directional effects of the block's knobs on a non-degenerate grid."""

    def _means(self, lab, degraded_videos, **kwargs):
        ms_vals, iq_vals = [], []
        for i, (z0, c) in enumerate(degraded_videos[:10]):
            bundle = ModelBundle(
                spatial=AnalyticDenoiser(lab.spatial_world, lab.sched_i),
                temporal=AnalyticDenoiser(lab.temporal_world, lab.sched_v),
                spatial_schedule=lab.sched_i,
                temporal_schedule=lab.sched_v,
            )
            cfg = PipelineConfig(block_mode=BLOCK_SDEDIT, injection=None, **kwargs)
            out = run_evs(z0, cfg, bundle, c, rng_for(EVS_KEY, i)).output
            ms_vals.append(motion_smoothness(out, TAU))
            iq_vals.append(imaging_quality(out, lab.spatial_world, c, IQ_OFFSET, IQ_SCALE))
        return np.mean(ms_vals), np.mean(iq_vals)

    def test_later_insertion_trades_smoothness_for_imaging(self, lab, degraded_videos):
        stats = [self._means(lab, degraded_videos, t_T2V=v) for v in (5, 10, 15)]
        ms, iq = zip(*stats)
        assert iq[0] < iq[1] < iq[2]
        assert ms[0] > ms[1] > ms[2]

    def test_stronger_block_trades_imaging_for_smoothness(self, lab, degraded_videos):
        stats = [self._means(lab, degraded_videos, t_V=v) for v in (2, 4, 6, 8)]
        ms, iq = zip(*stats)
        assert all(ms[i] <= ms[i + 1] for i in range(3))
        assert all(iq[i] >= iq[i + 1] for i in range(3))


class TestIteratedBaseline:
    def test_rounds_one_counting(self, lab, bundle):
        z0, c = degraded(lab, 8)
        result = run_iterated_baseline(z0, replace(P, rounds=1), bundle, c, rng_for(20))
        assert result.nfe_t2i + result.nfe_t2v == 20 + 4 + 20

    def test_rounds_two_counting(self, lab, bundle):
        z0, c = degraded(lab, 8)
        result = run_iterated_baseline(z0, replace(P, rounds=2), bundle, c, rng_for(21))
        assert result.nfe_t2i + result.nfe_t2v == 2 * (20 + 4) == 48

    def test_three_rounds_chain_the_two_compositions(self, lab, bundle):
        z0, c = degraded(lab, 8)
        result = run_iterated_baseline(z0, replace(P, rounds=3), bundle, c, rng_for(24))
        rng = rng_for(24)
        z = compose_iv(z0, P, bundle, c, rng).output
        z = compose_vi(z, P, bundle, c, rng).output
        z = compose_iv(z, P, bundle, c, rng).output
        z = run_t2i_only(z, P, bundle, c, rng).output
        assert np.array_equal(result.output, z)
        stages = PLANS["iterated"](replace(P, rounds=3))
        assert [name for name, _, _ in stages] == ["t2i", "t2v", "t2v", "t2i", "t2i", "t2v", "t2i"]
        assert result.nfe_t2i + result.nfe_t2v == 92

    def test_rounds_zero_rejected(self, lab, bundle):
        z0, c = degraded(lab, 8)
        with pytest.raises(ParameterError):
            run_iterated_baseline(z0, replace(P, rounds=0), bundle, c, rng_for(22))

    def test_speedup_ratio_vs_default_pipeline(self, lab, bundle, sfi_bundle):
        z0, c = degraded(lab, 9)
        base = run_iterated_baseline(z0, replace(P, rounds=2), bundle, c, rng_for(23))
        enc = run_evs(z0, PipelineConfig(), sfi_bundle, c, rng_for(EVS_KEY, 0))
        base_nfe = base.nfe_t2i + base.nfe_t2v
        enc_nfe = enc.nfe_t2i + enc.nfe_t2v
        assert base_nfe == 48 and enc_nfe == 26
        assert base_nfe / enc_nfe == pytest.approx(48 / 26)


@pytest.mark.parametrize("call", [
    "injection_keys", "injection_keys-t_v", "denoise_with_injection", "iterated",
])
def test_non_integer_count_is_refused_before_any_evaluation(lab, sfi_bundle, call):
    """An ``n_v``, a ``t_v`` or a round count of 2.5 is a ``ParameterError``,
    not a ``TypeError`` from ``range``, and no denoiser runs."""
    z0, c = degraded(lab, 0)
    injection = InjectionConfig(layers=DEEP_LAYERS, gamma=0.8)
    with pytest.raises(ParameterError, match="2.5"):
        if call == "injection_keys":
            injection_keys(4, 2.5, injection)
        elif call == "injection_keys-t_v":
            injection_keys(2.5, 1, injection)
        elif call == "denoise_with_injection":
            denoise_with_injection(z0, 4, 2.5, sfi_bundle.temporal, c, lab.sched_v,
                                   FeatureCache(), injection)
        else:
            run_iterated_baseline(z0, replace(P, rounds=2.5), sfi_bundle, c, rng_for(30))
    assert sfi_bundle.spatial.num_evals == sfi_bundle.temporal.num_evals == 0


class TestPlannedCost:
    """Each run's NFE is known from its plan before it runs."""

    @staticmethod
    def plan(pipeline, p):
        """The oracle: each pipeline's stages, written out apart from ``compose.PLANS``."""
        iv = [("t2i", p.t_I, 0), ("t2v", p.t_V, 0)]
        vi = [("t2v", p.t_V, 0), ("t2i", p.t_I, 0)]
        return {
            "t2i": [("t2i", p.t_I, 0)],
            "t2v": [("t2v", p.t_V, 0)],
            "iv": [("t2i", p.t_I, 0), ("t2v", p.t_V, 0)],
            "vi": [("t2v", p.t_V, 0), ("t2i", p.t_I, 0)],
            "evs": [
                ("t2i", p.t_I, p.t_T2V),
                ("t2v:sdedit" if p.block_mode == BLOCK_SDEDIT else "t2v:sfi", p.t_V, p.t_V - p.n_V),
                ("t2i", p.t_T2V, 0),
            ],
            # Rounds alternate iv and vi; an odd count ends with a full spatial stage.
            "iterated": (iv + vi) * (p.rounds // 2) + (iv + [("t2i", p.t_I, 0)]) * (p.rounds % 2),
        }[pipeline]

    def test_default_plans_cost_26_and_48(self):
        for pipeline in PIPELINES:
            assert PLANS[pipeline](PipelineConfig()) == self.plan(pipeline, PipelineConfig())
        assert stage_nfe(self.plan("evs", PipelineConfig())) == (20, 6)
        assert stage_nfe(self.plan("iterated", PipelineConfig())) == (40, 8)

    def test_plan_cost_and_log_equal_the_run(self, base_config, lab):
        # Every pipeline through the CLI's dispatch, on every legal t_T2V at the
        # default t_I, several (t_V, n_V) pairs, rounds 1..3 and both block modes.
        sfi_lab = build_lab(base_config, temporal_override=ToyAttentionDenoiser(seed=11))
        z0, c = degraded(lab, 3)
        pcfgs = [
            PipelineConfig(t_V=t_v, n_V=n_v, rounds=rounds)
            for t_v, n_v in ((1, 1), (4, 2), (4, 4), (8, 3)) for rounds in (1, 2, 3)
        ]
        cases = [(pipeline, lab, p) for pipeline in PIPELINES if pipeline != "evs" for p in pcfgs]
        for mode, mode_lab in ((BLOCK_SDEDIT, lab), (BLOCK_INVERSION_SFI, sfi_lab)):
            cases += [
                ("evs", mode_lab, PipelineConfig(t_T2V=t_t2v, t_V=p.t_V, n_V=p.n_V, block_mode=mode))
                for t_t2v in range(1, 21) for p in pcfgs if p.rounds == 1
            ]
        for pipeline, run_lab, p in cases:
            result = _execute(pipeline, run_lab, base_config, p, 0, z0, c)
            plan = self.plan(pipeline, p)
            assert PLANS[pipeline](p) == plan, (pipeline, p)
            assert (result.nfe_t2i, result.nfe_t2v) == stage_nfe(plan), (pipeline, p)
