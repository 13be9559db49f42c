"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line per
criterion.  The suite is fixed-seed and single-threaded throughout.
"""

from dataclasses import replace

import numpy as np
import pytest

from evs import io as evsio
from evs.bench import cmd_frontier, cmd_gen, cmd_run, rerun_from_manifest
from evs.compose import (
    BLOCK_SDEDIT,
    ModelBundle,
    PipelineConfig,
    compose_iv,
    compose_vi,
    run_evs,
    run_iterated_baseline,
    run_t2i_only,
    run_t2v_only,
)
from evs.config import resolve_config
from evs.diffusion import ddim_invert, ddim_sample
from evs.metrics import (
    IQ_OFFSET,
    IQ_SCALE,
    OVERALL_CHANNELS,
    PSNR_PEAK,
    RANGES,
    TAU,
    imaging_quality,
    motion_smoothness,
    overall_score,
    psnr,
    subject_consistency,
)
from evs.models import (
    AnalyticDenoiser,
    SpatialWorld,
    TemporalWorld,
    ToyAttentionDenoiser,
    TrainRecipe,
    gmm_posterior_eps,
    sample_world,
    train_toy_denoiser,
)
from evs.schedule import build_linear_beta
from evs.sfi import ALL_LAYERS, InjectionConfig, denoise_with_injection, invert_with_capture


def check(num, name, ok, detail=""):
    print(f"\n[ACCEPTANCE] criterion {num} ({name}): {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def fresh_bundle(lab):
    return ModelBundle(
        spatial=AnalyticDenoiser(lab.spatial_world, lab.sched_i),
        temporal=AnalyticDenoiser(lab.temporal_world, lab.sched_v),
        spatial_schedule=lab.sched_i,
        temporal_schedule=lab.sched_v,
    )


def rng_for(*key):
    return np.random.default_rng(np.random.SeedSequence(list(key)))


# The first word of the key of an evs item's generator in ``bench._item_rng``.
EVS_KEY = 0x45565321
# The default noising levels, spelled out: t_I spatial and t_V temporal steps.
P = PipelineConfig(t_I=20, t_V=4)


@pytest.fixture(scope="module")
def trained_net(lab):
    return train_toy_denoiser(lab.temporal_world, lab.sched_v, TrainRecipe())


# -- 1 ----------------------------------------------------------------------


def test_criterion_1_forward_process_statistics(lab):
    rng = np.random.default_rng(100)
    z0 = sample_world(lab.spatial_world, 0, rng)
    draws_total, chunk = 100_000, 5_000
    worst_mean, worst_var = 0.0, 0.0
    for t in (5, 20, 45):
        ab = lab.sched_i.alpha_bar[t]
        target = np.sqrt(ab) * z0
        acc = np.zeros_like(z0)
        acc_sq = np.zeros_like(z0)
        for _ in range(draws_total // chunk):
            eps = rng.standard_normal((chunk, *z0.shape))
            z_t = np.sqrt(ab) * z0 + np.sqrt(1 - ab) * eps
            acc += z_t.sum(0)
            acc_sq += (z_t**2).sum(0)
        mean = acc / draws_total
        var = acc_sq / draws_total - mean**2
        mean_err = np.linalg.norm(mean - target) / np.linalg.norm(target)
        var_err = abs(var.mean() - (1 - ab)) / (1 - ab)
        worst_mean = max(worst_mean, mean_err)
        worst_var = max(worst_var, var_err)
    ok = worst_mean < 0.01 and worst_var < 0.01
    check(1, "forward-process statistics", ok,
          f"(max mean err {worst_mean:.4f}, max var err {worst_var:.4f}, tol 0.01)")


# -- 2 ----------------------------------------------------------------------


def _importance_oracle(z_t, ab, draws, batches=50):
    """Self-normalized importance estimate of the posterior-mean noise with
    batch-mean standard errors."""
    flat_t = z_t.ravel()
    flat_d = draws.reshape(draws.shape[0], -1)
    logw = -((flat_t[None, :] - np.sqrt(ab) * flat_d) ** 2).sum(1) / (2 * (1 - ab))
    w = np.exp(logw - logw.max())

    def estimate(idx):
        mean = (w[idx, None] * flat_d[idx]).sum(0) / w[idx].sum()
        return (flat_t - np.sqrt(ab) * mean) / np.sqrt(1 - ab)

    full = estimate(np.arange(len(w)))
    parts = np.stack([estimate(b) for b in np.array_split(np.arange(len(w)), batches)])
    se = parts.std(0, ddof=1) / np.sqrt(batches)
    return full.reshape(z_t.shape), se.reshape(z_t.shape)


def test_criterion_2_analytic_denoiser_vs_monte_carlo(lab):
    n_draws = 1_000_000
    spatial = SpatialWorld(
        means=np.array([[0.8, -0.5], [-0.6, 0.7]]), weights=np.array([0.6, 0.4]),
        sigma=0.4, frames=1,
    )
    temporal = TemporalWorld(
        means=np.array([[0.5, -0.3], [-0.4, 0.6]]), weights=np.array([0.5, 0.5]),
        sigma=0.4, rho=0.6, frames=3,
    )
    sched = build_linear_beta(8, 5e-2, 0.3)
    worst_sigmas = 0.0
    for world, tag in ((spatial, "spatial"), (temporal, "temporal")):
        rng = np.random.default_rng(202 if tag == "spatial" else 203)
        comp = rng.choice(world.modes, p=world.weights, size=n_draws)
        eta = rng.standard_normal((n_draws, world.frames, world.dim))
        if isinstance(world, TemporalWorld):
            noise = world.sigma * np.einsum("fg,ngd->nfd", world.correlation_chol, eta)
        else:
            noise = world.sigma * eta
        draws = world.means[comp][:, None, :] + noise
        probe_rng = np.random.default_rng(55)
        probes = [
            world.means[k % world.modes][None, :].repeat(world.frames, 0)
            + 0.5 * probe_rng.standard_normal((world.frames, world.dim))
            for k in range(3)
        ]
        for t in (2, 4, 6):
            ab = sched.alpha_bar[t]
            for z_t in probes:
                mc, se = _importance_oracle(z_t, ab, draws)
                exact = gmm_posterior_eps(z_t, t, world, None, sched)
                sigmas = np.max(np.abs(exact - mc) / np.maximum(se, 1e-9))
                worst_sigmas = max(worst_sigmas, float(sigmas))
    ok = worst_sigmas <= 3.0
    check(2, "analytic denoiser vs 1e6-draw conditional-mean oracle", ok,
          f"(worst deviation {worst_sigmas:.2f} standard errors, tol 3)")


# -- 3 ----------------------------------------------------------------------


def test_criterion_3_round_trip_reconstruction(lab):
    model = AnalyticDenoiser(lab.spatial_world, lab.sched_i)
    psnrs = []
    for seed in range(20):
        c = seed % 4
        z0 = sample_world(lab.spatial_world, c, seed)
        z = ddim_invert(z0, 50, model, c, lab.sched_i)
        back, _ = ddim_sample(z, 50, 0, model, c, lab.sched_i)
        psnrs.append(psnr(back, z0, PSNR_PEAK))
    ok_psnr = min(psnrs) >= 40.0

    errs = []
    for total in (5, 10, 25, 50):
        sched = build_linear_beta(total, 1e-4 * 50 / total, 0.02 * 50 / total)
        m = AnalyticDenoiser(lab.spatial_world, sched)
        seed_errs = []
        for seed in range(20):
            c = seed % 4
            z0 = sample_world(lab.spatial_world, c, seed)
            z = ddim_invert(z0, total, m, c, sched)
            back, _ = ddim_sample(z, total, 0, m, c, sched)
            seed_errs.append(np.sqrt(np.mean((back - z0) ** 2)))
        errs.append(np.mean(seed_errs))
    ok_mono = all(errs[i] > errs[i + 1] for i in range(len(errs) - 1))
    check(3, "round-trip reconstruction", ok_psnr and ok_mono,
          f"(min psnr {min(psnrs):.1f} dB >= 40; rmse over steps {[f'{e:.4f}' for e in errs]})")


# -- 4 ----------------------------------------------------------------------


def test_criterion_4_full_injection_reconstruction(lab):
    cfg = InjectionConfig(layers=ALL_LAYERS, gamma=1.0, inject_f=True)
    worst = 0.0
    for seed in range(10):
        net = ToyAttentionDenoiser(seed=900 + seed)  # arbitrary untrained weights
        c = seed % 4
        z0 = sample_world(lab.temporal_world, c, 40 + seed)
        t_v = 4
        z, cache = invert_with_capture(z0, t_v, net, c, lab.sched_v)
        _, clean = denoise_with_injection(z, t_v, t_v, net, c, lab.sched_v, cache, cfg)
        rel = np.max(np.abs(clean - z0)) / np.max(np.abs(z0))
        worst = max(worst, float(rel))
    ok = worst <= 1e-6
    check(4, "full-injection reconstruction", ok, f"(worst rel err {worst:.2e}, tol 1e-6)")


# -- 5 ----------------------------------------------------------------------


def _pipeline_metrics(lab, outputs, cond):
    ms = motion_smoothness(outputs, TAU)
    sc = subject_consistency(outputs)
    iq = imaging_quality(outputs, lab.spatial_world, cond, IQ_OFFSET, IQ_SCALE)
    overall = overall_score({"ms": ms, "sc": sc, "iq": iq}, RANGES, OVERALL_CHANNELS)
    return ms, sc, iq, overall


def test_criterion_5_ablation_ordering(lab, degraded_videos):
    stats = {name: [] for name in ("t2i", "t2v", "iv", "vi", "evs")}
    for i, (z0, c) in enumerate(degraded_videos):
        bundle = fresh_bundle(lab)
        runs = {
            "t2i": run_t2i_only(z0, P, bundle, c, rng_for(500, i)),
            "t2v": run_t2v_only(z0, P, bundle, c, rng_for(501, i)),
            "iv": compose_iv(z0, P, bundle, c, rng_for(502, i)),
            "vi": compose_vi(z0, P, bundle, c, rng_for(503, i)),
            "evs": run_evs(z0, PipelineConfig(block_mode=BLOCK_SDEDIT, injection=None), bundle, c,
                           rng_for(EVS_KEY, i)),
        }
        for name, result in runs.items():
            stats[name].append(_pipeline_metrics(lab, result.output, c))
    means = {name: np.mean(vals, axis=0) for name, vals in stats.items()}  # ms, sc, iq, overall
    ms, iq, ov = ({n: means[n][k] for n in means} for k in (0, 2, 3))
    clauses = {
        "MS(t2v)>MS(t2i)": ms["t2v"] > ms["t2i"],
        "IQ(t2i)>IQ(t2v)": iq["t2i"] > iq["t2v"],
        "IQ(vi)>IQ(iv)": iq["vi"] > iq["iv"],
        "MS(iv)>MS(vi)": ms["iv"] > ms["vi"],
        "Overall(evs)>=max+0.01": ov["evs"] >= max(v for n, v in ov.items() if n != "evs") + 0.01,
    }
    detail = "; ".join(f"{k}: {'ok' if v else 'VIOLATED'}" for k, v in clauses.items())
    detail += f" | overall means {({n: round(v, 4) for n, v in ov.items()})}"
    check(5, "ablation ordering", all(clauses.values()), f"({detail})")


# -- 6 ----------------------------------------------------------------------


def _sweep_means(lab, degraded_videos, **cfg_kwargs):
    ms_vals, iq_vals = [], []
    for i, (z0, c) in enumerate(degraded_videos):
        bundle = fresh_bundle(lab)
        cfg = PipelineConfig(block_mode=BLOCK_SDEDIT, injection=None, **cfg_kwargs)
        out = run_evs(z0, cfg, bundle, c, rng_for(EVS_KEY, i)).output
        ms_vals.append(motion_smoothness(out, TAU))
        iq_vals.append(imaging_quality(out, lab.spatial_world, c, IQ_OFFSET, IQ_SCALE))
    return float(np.mean(ms_vals)), float(np.mean(iq_vals))


def test_criterion_6a_block_timestep_iq_trend(lab, degraded_videos):
    iqs = [_sweep_means(lab, degraded_videos, t_T2V=v)[1] for v in (5, 10, 15, 20)]
    ok = all(iqs[i] <= iqs[i + 1] for i in range(len(iqs) - 1))
    check("6a", "iq non-decreasing along t_T2V", ok,
          f"(iq means {[f'{x:.2f}' for x in iqs]} along t_T2V=5,10,15,20)")


def test_criterion_6b_block_timestep_ms_trend(lab, degraded_videos):
    mss = [_sweep_means(lab, degraded_videos, t_T2V=v)[0] for v in (5, 10, 15, 20)]
    ok = all(mss[i] >= mss[i + 1] for i in range(len(mss) - 1))
    check("6b", "ms non-increasing along t_T2V", ok,
          f"(ms means {[f'{x:.4f}' for x in mss]} along t_T2V=5,10,15,20)")


def test_criterion_6c_block_strength_ms_trend(lab, degraded_videos):
    mss = [_sweep_means(lab, degraded_videos, t_V=v)[0] for v in (2, 4, 6, 8)]
    ok = all(mss[i] <= mss[i + 1] for i in range(len(mss) - 1))
    check("6c", "ms non-decreasing along t_V", ok,
          f"(ms means {[f'{x:.4f}' for x in mss]} along t_V=2,4,6,8)")


# -- 7 ----------------------------------------------------------------------


def test_criterion_7_speedup_by_counting(lab, degraded_videos):
    z0, c = degraded_videos[0]
    bundle = fresh_bundle(lab)
    base = run_iterated_baseline(z0, replace(P, rounds=2), bundle, c, rng_for(700))
    base_nfe = base.nfe_t2i + base.nfe_t2v
    sfi_bundle = ModelBundle(
        spatial=AnalyticDenoiser(lab.spatial_world, lab.sched_i),
        temporal=ToyAttentionDenoiser(seed=0),
        spatial_schedule=lab.sched_i,
        temporal_schedule=lab.sched_v,
    )
    enc = run_evs(z0, PipelineConfig(), sfi_bundle, c, rng_for(EVS_KEY, 0))
    enc_nfe = enc.nfe_t2i + enc.nfe_t2v
    ratio = base_nfe / enc_nfe
    ok = base_nfe == 48 and enc_nfe == 26 and ratio >= 1.6
    check(7, "inference-cost speedup", ok,
          f"(baseline {base_nfe} evals / encapsulated {enc_nfe} evals = {ratio:.2f}x, need >= 1.6x)")


# -- 8 ----------------------------------------------------------------------


def test_trained_temporal_net_quality(lab, trained_net):
    report = trained_net.train_report
    assert report["final_loss"] <= 0.5 * report["initial_loss"]
    rng = np.random.default_rng(99)
    cosines = []
    for i in range(100):
        c = i % 4
        z0 = sample_world(lab.temporal_world, c, rng)
        t = lab.sched_v.total_steps // 2
        ab = lab.sched_v.alpha_bar[t]
        eps = rng.standard_normal(z0.shape)
        z_t = np.sqrt(ab) * z0 + np.sqrt(1 - ab) * eps
        e_hat = trained_net.forward(z_t, t, c)
        e_star = gmm_posterior_eps(z_t, t, lab.temporal_world, c, lab.sched_v)
        cosines.append(
            float(e_hat.ravel() @ e_star.ravel() / (np.linalg.norm(e_hat) * np.linalg.norm(e_star)))
        )
    assert np.mean(cosines) > 0.8


def test_criterion_8_frontier_dominance(lab, trained_net, tmp_path):
    cfg = resolve_config({"dataset": {"count": 10, "styled": True}})
    ds = tmp_path / "styled"
    cmd_gen(cfg, ds)
    net_path = tmp_path / "net.evsnet"
    evsio.write_net(net_path, trained_net)
    cfg["net"]["weights"] = str(net_path)
    manifest_path = cmd_frontier(cfg, ds, tmp_path / "frontier")
    dominance = evsio.read_json(manifest_path)["dominance"]
    ok = dominance >= 0.8
    check(8, "selective-injection frontier dominance", ok,
          f"(dominance {dominance:.3f} on the shared smoothness grid, need >= 0.8)")


# -- 9 ----------------------------------------------------------------------


def test_criterion_9_manifest_determinism(tmp_path):
    cfg = resolve_config({"dataset": {"count": 3}})
    ds_a, ds_b = tmp_path / "ds_a", tmp_path / "ds_b"
    cmd_gen(cfg, ds_a)
    cmd_gen(cfg, ds_b)
    gen_identical = all(
        (ds_a / p.name).read_bytes() == p.read_bytes() for p in ds_b.glob("*.evslat")
    )

    run_a = tmp_path / "run_a"
    manifest = cmd_run("evs", cfg, ds_a, run_a)
    run_b = tmp_path / "run_b"
    rerun_from_manifest(manifest, run_b)
    latents_identical = all(
        (run_a / p.name).read_bytes() == p.read_bytes() for p in run_b.glob("*.evslat")
    )
    csv_identical = (
        evsio.csv_without_wall_time(run_a / "runs.csv")
        == evsio.csv_without_wall_time(run_b / "runs.csv")
    )
    ok = gen_identical and latents_identical and csv_identical
    check(9, "manifest determinism and formats", ok,
          f"(gen identical {gen_identical}, latents identical {latents_identical}, csv identical {csv_identical})")
