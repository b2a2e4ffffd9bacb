"""Acceptance suite: one test per criterion, each printing a pass/fail line."""

import os
import time

import numpy as np
import pytest

from ptychokit import (autodiff as ad, circphase, cli, dataset, epie, losses,
                       model, physics, recon, train, verify)
from ptychokit.autodiff import Tensor


def _report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# -- 1. gradient suite -------------------------------------------------------

def test_criterion_1_gradient_suite():
    t0 = time.time()
    results = verify.run_gradcheck()
    elapsed = time.time() - t0
    failed = [(n, e, tol) for n, e, tol, ok in results if not ok]
    worst = max(e / tol for _, e, tol, _ in results)
    ok = not failed and elapsed < 120.0
    _report("gradient suite", ok,
            f"{len(results)} checks, worst err/tol {worst:.3f}, {elapsed:.1f}s"
            + (f", failed: {failed}" if failed else ""))


# -- 2. circular geometry ----------------------------------------------------

def test_criterion_2_circular_geometry():
    msgs, ok = [], True

    # antipodal value
    phi = np.random.default_rng(0).uniform(-np.pi, np.pi, (16, 16))
    c, s = np.cos(phi), np.sin(phi)
    anti = losses.circular_loss_value(c, np.cos(phi + np.pi), s, np.sin(phi + np.pi))
    ok &= abs(anti - 2.0) < 1e-6
    msgs.append(f"antipodal {anti:.8f}")

    # 2*pi*k periodicity
    worst_p = 0.0
    for k in range(-3, 4):
        shifted = phi + 2 * np.pi * k
        val = losses.circular_loss_value(c, np.cos(shifted), s, np.sin(shifted))
        worst_p = max(worst_p, abs(val))
    ok &= worst_p < 1e-6
    msgs.append(f"periodicity {worst_p:.2e}")

    # small-angle expansion
    worst_sa = 0.0
    for dphi in (0.01, 0.03, 0.05, 0.1):
        val = losses.circular_loss_value(c, np.cos(phi + dphi), s, np.sin(phi + dphi))
        excess = abs(val - dphi ** 2 / 2) - dphi ** 4 / 24
        worst_sa = max(worst_sa, excess)
    ok &= worst_sa <= 0.0
    msgs.append(f"small-angle excess {worst_sa:.2e}")

    # bounded gradient w.r.t. projected coordinates over a sweep
    worst_g = 0.0
    for dphi in np.arange(-np.pi, np.pi, 0.01):
        ct = Tensor(np.cos([dphi]).astype(np.float32), requires_grad=True)
        st = Tensor(np.sin([dphi]).astype(np.float32), requires_grad=True)
        tgt_c = Tensor(np.ones(1, np.float32))
        tgt_s = Tensor(np.zeros(1, np.float32))
        with ad.Tape() as tape:
            loss = losses.circular_loss(tgt_c, ct, tgt_s, st)
            ad.backward(tape, loss)
        mag = float(np.sqrt(ct.grad[0] ** 2 + st.grad[0] ** 2))
        worst_g = max(worst_g, mag)
    ok &= worst_g <= 1.0 + 1e-6
    msgs.append(f"max grad mag {worst_g:.8f}")

    _report("circular geometry", ok, "; ".join(msgs))


# -- 3. forward model / ePIE oracle ------------------------------------------

def test_criterion_3_epie_oracle():
    t0 = time.time()
    amp, phase = dataset.gen_object(160, 160, seed=5)
    probe = physics.make_probe()
    plan = dataset.plan_scan(rows=16, cols=16, step=8, jitter_max=3, seed=5)
    intensity, table, _ = dataset.make_dataset(amp, phase, probe, plan)
    positions = dataset.positions(table)
    state = epie.epie_reconstruct(intensity, positions, probe, iters=300, seed=0)
    err = state.error_history[-1]
    canvas = state.object_est.shape
    mask = epie.well_lit_mask(positions, probe, canvas, threshold=0.1)
    gt_p, gt_a = phase[:canvas[0], :canvas[1]], amp[:canvas[0], :canvas[1]]
    rec = epie.align_global_phase(np.angle(state.object_est), gt_p, mask)
    phase_mae = float(np.abs(circphase.wrapped_diff(gt_p, rec))[mask].mean())
    amp_mse = float(np.mean((np.abs(state.object_est) - gt_a)[mask] ** 2))
    elapsed = time.time() - t0
    ok = err < 1e-3 and amp_mse < 1e-3 and phase_mae < 0.05 and elapsed < 300.0
    _report("ePIE oracle", ok,
            f"data err {err:.2e}, amp MSE {amp_mse:.2e}, "
            f"phase MAE {phase_mae:.4f} rad, {elapsed:.1f}s")


# -- 4. SSIM oracle ----------------------------------------------------------

def _brute_ssim(x, xhat):
    half = losses.SSIM_WINDOW // 2
    ax = np.arange(-half, half + 1, dtype=np.float64)
    g = np.exp(-ax ** 2 / (2 * losses.SSIM_SIGMA ** 2))
    w = np.outer(g, g)
    w /= w.sum()
    x = np.asarray(x, np.float64)
    xhat = np.asarray(xhat, np.float64)
    vals = []
    for i in range(x.shape[0] - 2 * half):
        for j in range(x.shape[1] - 2 * half):
            a = x[i:i + 11, j:j + 11]
            b = xhat[i:i + 11, j:j + 11]
            mu1, mu2 = np.sum(w * a), np.sum(w * b)
            v1 = np.sum(w * a * a) - mu1 ** 2
            v2 = np.sum(w * b * b) - mu2 ** 2
            cov = np.sum(w * a * b) - mu1 * mu2
            vals.append((2 * mu1 * mu2 + losses.SSIM_C1) * (2 * cov + losses.SSIM_C2)
                        / ((mu1 ** 2 + mu2 ** 2 + losses.SSIM_C1)
                           * (v1 + v2 + losses.SSIM_C2)))
    return float(np.mean(vals))


def test_criterion_4_ssim_oracle():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(20):
        x = rng.uniform(0, 1, (32, 32)).astype(np.float32)
        xhat = np.clip(x + rng.normal(0, 0.2, (32, 32)), 0, 1).astype(np.float32)
        worst = max(worst, abs(losses.ssim_value(x, xhat) - _brute_ssim(x, xhat)))
    x = rng.uniform(0, 1, (32, 32)).astype(np.float32)
    self_sim = losses.ssim_value(x, x)
    a, b = 0.25, 0.6
    const = losses.ssim_value(np.full((32, 32), a), np.full((32, 32), b))
    closed = (2 * a * b + losses.SSIM_C1) / (a * a + b * b + losses.SSIM_C1)
    const_err = abs(const - closed)
    ok = worst < 1e-6 and abs(self_sim - 1.0) < 1e-6 and const_err < 1e-9
    _report("SSIM oracle", ok,
            f"brute-force gap {worst:.2e}, ssim(x,x)={self_sim:.8f}, "
            f"constant-image gap {const_err:.2e}")


# -- 5. stitching exactness --------------------------------------------------

def test_criterion_5_stitching():
    rng = np.random.default_rng(2)
    full = rng.uniform(0, 1, (72, 72))
    positions = [(y, x) for y in range(0, 41, 8) for x in range(0, 41, 8)]
    patches = [full[y:y + 32, x:x + 32] for y, x in positions]
    out, mask = recon.stitch(patches, positions, (72, 72))
    mse = float(np.mean((out[mask] - full[mask]) ** 2))

    p1 = np.full((32, 32), np.pi - 0.02)
    p2 = np.full((32, 32), -(np.pi - 0.02))
    phase, _ = recon.stitch_phase([p1, p2], [(0, 0), (0, 8)], (32, 40))
    overlap = phase[:, 8:32]
    cut_dev = float(circphase.geodesic_dist(overlap, np.pi).max())
    min_abs = float(np.abs(overlap).min())
    ok = mse < 1e-10 and cut_dev < 0.06 and min_abs > np.pi / 2
    _report("stitching exactness", ok,
            f"covered MSE {mse:.2e}, cut deviation {cut_dev:.4f} rad, "
            f"min |phase| in overlap {min_abs:.3f}")


# -- 6. spectral suite -------------------------------------------------------

def test_criterion_6_spectral():
    rng = np.random.default_rng(3)
    _, _, bands = recon.radial_psd(rng.normal(size=(64, 64)))
    sum_err = abs(sum(bands) - 100.0)
    const_bands = recon.radial_psd(np.full((48, 48), 2.5))[2]
    yy, xx = np.mgrid[0:64, 0:64]
    checker_bands = recon.radial_psd(((yy + xx) % 2).astype(float))[2]
    ok = (sum_err < 1e-6 and const_bands[0] == 100.0 and checker_bands[2] >= 99.0)
    _report("spectral suite", ok,
            f"band sum err {sum_err:.2e}, constant low {const_bands[0]:.1f}%, "
            f"checkerboard high {checker_bands[2]:.2f}%")


# -- 7. SADGS suite ----------------------------------------------------------

def test_criterion_7_sadgs():
    cfg = model.ModelConfig(n_c=4, i_sat=4095.0, alpha=0.85, g0=0.0,
                            g_l=0.001, g_h=4.0, i_max=50.0)
    rng = np.random.default_rng(4)
    x = rng.uniform(0, 500, (64, 64))
    lo, hi = model.sadgs(x, cfg)
    # pre-normalization values never exceed I_sat
    pre_max = max(float(lo.max()), float(hi.max())) * cfg.i_sat
    # monotone in the input
    xs = np.sort(x.ravel())
    lo_s, _ = model.sadgs(xs, cfg)
    _, hi_s = model.sadgs(xs, cfg)
    mono = bool(np.all(np.diff(lo_s) >= -1e-7) and np.all(np.diff(hi_s) >= -1e-7))
    # constructed I_max pixel: unclipped at g_l, clipped at g_h
    pre_lo = model.gain_factor(cfg, cfg.g_l) * cfg.i_max
    pre_hi = model.gain_factor(cfg, cfg.g_h) * cfg.i_max
    lo1, hi1 = model.sadgs(np.array([[cfg.i_max]]), cfg)
    example = (pre_lo < cfg.i_sat and pre_hi > cfg.i_sat
               and abs(float(lo1[0, 0]) - pre_lo / cfg.i_sat) < 1e-6
               and float(hi1[0, 0]) == 1.0)
    ok = pre_max <= cfg.i_sat + 1e-3 and mono and example
    _report("SADGS suite", ok,
            f"pre-norm max {pre_max:.1f} <= {cfg.i_sat}, monotone {mono}, "
            f"I_max example unclipped@g_l/clipped@g_h {example}")


# -- 8. schedule suite -------------------------------------------------------

def test_criterion_8_schedule():
    eta, half = 1e-3, 60
    lr0 = train.cyclic_lr(0, half, eta)
    peak1 = train.cyclic_lr(half, half, eta)
    peak2 = train.cyclic_lr(3 * half, half, eta)
    sched_ok = (abs(lr0 - 1e-4) < 1e-12 and abs(peak1 - 1e-3) < 1e-12
                and abs(peak2 - 5.5e-4) < 1e-12)

    # post-clip global gradient norm along a real training trajectory
    amp, phase = dataset.gen_object(100, 100, seed=6)
    probe = physics.make_probe()
    plan = dataset.plan_scan(rows=4, cols=4, step=8, jitter_max=3, seed=6)
    intensity, table, truth = dataset.make_dataset(amp, phase, probe, plan)
    mcfg = model.ModelConfig(n_c=4, i_max=train.compute_i_max(intensity), seed=0)
    params = model.init_params(mcfg)
    state = train.AdamState(params)
    tcfg = train.TrainConfig(epochs=1, batch_size=8, seed=0)
    names = sorted(params.tensors)
    worst_norm = 0.0
    for step, start in enumerate(range(0, len(intensity), 8)):
        idx = list(range(start, start + 8))
        for t in params.tensors.values():
            t.zero_grad()
        with ad.Tape() as tape:
            total, _, _ = train._batch_loss(train._stack_batch(intensity, table, truth, idx),
                                            params, mcfg, tcfg.weights)
            ad.backward(tape, total)
        grads = [params.tensors[n].grad for n in names]
        grads, _ = train.clip_grad_norm(grads, 1.0)
        post = np.sqrt(sum(float(np.sum(g.astype(np.float64) ** 2)) for g in grads))
        worst_norm = max(worst_norm, post)
        train.adam_step(params, dict(zip(names, grads)), state,
                        train.cyclic_lr(step, half, eta))
    ok = sched_ok and worst_norm <= 1.0 + 1e-6
    _report("schedule suite", ok,
            f"lr(0)={lr0:.1e}, peaks {peak1:.2e}/{peak2:.2e}, "
            f"max post-clip norm {worst_norm:.8f}")


# -- 9. ablation direction check ---------------------------------------------

def test_criterion_9_ablation_direction(tmp_path):
    t0 = time.time()
    amp, phase = dataset.gen_object(300, 170, seed=7)
    probe = physics.make_probe()
    plan = dataset.plan_scan(rows=32, cols=16, step=8, jitter_max=3, seed=7)
    intensity, table, truth = dataset.make_dataset(amp, phase, probe, plan)
    assert len(intensity) == 512
    table["split"] = dataset.split_rows(table["row"], rows=32, train_rows=26, test_rows=6,
                                        val_fraction=0.05, seed=0)
    # wrap-stress precondition: enough ground-truth pixels near the cut
    gt = truth.windows(table["y"], table["x"])[1]
    near_cut = float(np.mean(np.abs(gt) > np.pi - 0.3))
    assert near_cut >= 0.05, f"only {near_cut:.1%} of pixels near the cut"

    test_idx = np.flatnonzero(table["split"] == "test")
    wins = 0
    gaps = []
    for seed in range(5):
        maes = {}
        for variant in ("full", "scalar_phase"):
            mcfg = model.ModelConfig(n_c=8, variant=variant, seed=seed)
            tcfg = train.TrainConfig(epochs=25, batch_size=32, seed=seed)
            ckpt = tmp_path / f"{variant}_{seed}"
            train.train(intensity, table, truth, mcfg, tcfg, ckpt)
            params, best_cfg, _ = model.load_checkpoint(ckpt)
            preds = list(recon.iter_infer(intensity[test_idx], params, best_cfg))
            errs = [circphase.geodesic_dist(gt[i], p)
                    for i, (_, p) in zip(test_idx, preds)]
            maes[variant] = float(np.mean(errs))
        gaps.append(maes["scalar_phase"] - maes["full"])
        if maes["full"] < maes["scalar_phase"]:
            wins += 1
    elapsed = time.time() - t0
    ok = wins >= 4 and elapsed < 3600.0
    _report("ablation direction", ok,
            f"full beats scalar_phase in {wins}/5 seeds "
            f"(MAE gaps {['%.3f' % g for g in gaps]}), "
            f"{near_cut:.1%} pixels near cut, {elapsed / 60:.1f} min")


# -- 10. determinism ---------------------------------------------------------

def _tree_bytes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in sorted(files):
            path = os.path.join(dirpath, name)
            out[os.path.relpath(path, root)] = open(path, "rb").read()
    return out


def test_criterion_10_determinism(tmp_path):
    flags = ["--seed", "4", "--set", "rows=4", "--set", "cols=4",
             "--set", "train_rows=3", "--set", "test_rows=1",
             "--set", "object_size=100", "--set", "noise=1",
             "--set", "n_c=4", "--set", "epochs=1", "--set", "batch_size=8"]
    stages = []
    for tag in ("a", "b"):
        data = str(tmp_path / f"data_{tag}")
        run = str(tmp_path / f"run_{tag}")
        ev = str(tmp_path / f"eval_{tag}")
        assert cli.main(["simulate", "--out", data] + flags) == 0
        assert cli.main(["train", "--data", data, "--out", run] + flags) == 0
        assert cli.main(["evaluate", "--ckpt", os.path.join(run, "checkpoint"),
                         "--data", data, "--out", ev] + flags) == 0
        stages.append((_tree_bytes(data), _tree_bytes(os.path.join(run, "checkpoint")),
                       _tree_bytes(ev)))
    names = ("simulate", "train", "evaluate")
    diffs = [n for n, x, y in zip(names, stages[0], stages[1]) if x != y]
    ok = not diffs
    _report("determinism", ok,
            "bitwise-identical repeat for simulate/train/evaluate"
            + (f"; differing: {diffs}" if diffs else ""))


# -- 11. end-to-end smoke ----------------------------------------------------

def test_criterion_11_end_to_end(tmp_path):
    t0 = time.time()
    flags = ["--seed", "5", "--set", "rows=8", "--set", "cols=8",
             "--set", "train_rows=6", "--set", "test_rows=2",
             "--set", "object_size=110", "--set", "n_c=4",
             "--set", "epochs=2", "--set", "batch_size=16"]
    data, run, pred = str(tmp_path / "d"), str(tmp_path / "r"), str(tmp_path / "p")
    stitched, ev, spec = str(tmp_path / "s"), str(tmp_path / "e"), str(tmp_path / "psd")
    ckpt = os.path.join(run, "checkpoint")
    for argv in (["simulate", "--out", data],
                 ["train", "--data", data, "--out", run],
                 ["infer", "--ckpt", ckpt, "--data", data, "--out", pred],
                 ["stitch", "--pred", pred, "--out", stitched],
                 ["evaluate", "--ckpt", ckpt, "--data", data, "--out", ev],
                 ["spectrum", "--grid", os.path.join(ev, "phase_hat.ptg"),
                  "--out", spec]):
        assert cli.main(argv + flags) == 0, f"stage failed: {argv[0]}"

    # rebuild the report in-process and check its invariants
    intensity, table, truth, _, meta = dataset.load_dataset(data)
    params, mcfg, _ = model.load_checkpoint(ckpt)
    pairs = np.flatnonzero(table["split"] == "test")
    preds = list(recon.iter_infer(intensity[:][pairs], params, mcfg))
    rep = recon.report(dataset.positions(table[pairs]), preds, truth,
                       config_hash=meta["config_hash"])
    inv = []
    for kind in ("amplitude", "phase"):
        per = rep.per_sample[kind]
        inv.append(all(len(per[m]) == len(pairs) for m in recon.METRIC_NAMES))
        inv.append(bool(np.all(per["mse"] >= 0) and np.all(per["mae"] >= 0)))
        inv.append(bool(np.all(per["psnr"] <= recon.PSNR_CAP_DB)))
        inv.append(bool(np.all(np.abs(per["ssim"]) <= 1.0 + 1e-6)))
        inv.append(abs(sum(rep.bands[kind]) - 100.0) < 1e-6)
        inv.append(all(np.isfinite(v) for v in rep.stitched[kind].values()))
    elapsed = time.time() - t0
    ok = all(inv) and elapsed < 300.0
    _report("end-to-end smoke", ok,
            f"6 stages, {len(pairs)} test frames, report invariants "
            f"{sum(inv)}/{len(inv)}, {elapsed:.1f}s")
