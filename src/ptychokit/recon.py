"""Inference, weighted stitching, image metrics, and spectral analysis."""

import os
from dataclasses import dataclass

import numpy as np

from . import circphase, gridio, losses, model

PSNR_CAP_DB = 300.0
WEIGHT_FLOOR = 1e-6


@dataclass
class ReconReport:
    per_sample: dict
    stitched: dict
    bands: dict
    fields: dict  # stitched grids: amp_hat, phase_hat, amp_gt, phase_gt, mask
    config_hash: str = ""
    seed: int = 0


def infer(frames, params, cfg, batch_size=32):
    """Per-frame (amplitude, phase) predictions; deterministic.

    The default batch is the training batch: at 64 frames the widest decoder
    convs' im2col blocks outgrow the cache and a frame takes longer.
    """
    out = []
    for start in range(0, len(frames), batch_size):
        chunk = frames[start:start + batch_size]
        intensity = np.stack([f.intensity for f in chunk])[:, None]
        res = model.forward(intensity, params, cfg)
        amps = res["amp"].data[:, 0]
        if cfg.variant == "scalar_phase":
            phases = res["phase"].data[:, 0].astype(np.float64)
        else:
            phases = circphase.recover_phase(res["c_proj"].data[:, 0],
                                             res["s_proj"].data[:, 0])
        for i in range(len(chunk)):
            out.append((amps[i].copy(), phases[i].copy()))
    return out


_KERNEL_CACHE = {}


def stitch_kernel(patch, weight_floor):
    """Radially decaying weight (1 - d/d_max)^2 + floor; d_max = center-to-corner."""
    key = (patch, weight_floor)
    if key not in _KERNEL_CACHE:
        center = (patch - 1) / 2.0
        yy, xx = np.mgrid[0:patch, 0:patch]
        d = np.sqrt((yy - center) ** 2 + (xx - center) ** 2)
        d_max = np.sqrt(2.0) * center
        w = (1.0 - d / d_max) ** 2 + weight_floor
        _KERNEL_CACHE[key] = w
    return _KERNEL_CACHE[key]


def stitch(patches, positions, canvas_shape, weight_floor=WEIGHT_FLOOR):
    """Per-pixel weighted mean of overlapping patches; returns (grid, coverage mask)."""
    if not patches:
        raise ValueError("empty patch list")
    if not weight_floor >= 0:
        raise ValueError(f"weight_floor must be >= 0, got {weight_floor}")
    p = patches[0].shape[0]
    kernel = stitch_kernel(p, weight_floor)
    acc = np.zeros(canvas_shape, dtype=np.float64)
    wacc = np.zeros(canvas_shape, dtype=np.float64)
    for patch, (y, x) in zip(patches, positions):
        acc[y:y + p, x:x + p] += patch.astype(np.float64) * kernel
        wacc[y:y + p, x:x + p] += kernel
    mask = wacc > 0
    out = np.zeros(canvas_shape, dtype=np.float64)
    out[mask] = acc[mask] / wacc[mask]
    return out, mask


def stitch_phase(phase_patches, positions, canvas_shape, weight_floor=WEIGHT_FLOOR):
    """Circular-mean stitching: blend in (cos, sin) space, recover by atan2."""
    cos_p = [np.cos(np.asarray(p, dtype=np.float64)) for p in phase_patches]
    sin_p = [np.sin(np.asarray(p, dtype=np.float64)) for p in phase_patches]
    c, mask = stitch(cos_p, positions, canvas_shape, weight_floor)
    s, _ = stitch(sin_p, positions, canvas_shape, weight_floor)
    return circphase.recover_phase(c, s), mask


def _psnr(mse_val, data_range):
    if mse_val < 1e-30:
        return PSNR_CAP_DB
    return min(10.0 * np.log10(data_range ** 2 / mse_val), PSNR_CAP_DB)


def metrics(x, xhat, kind="amplitude"):
    """(mse, mae, psnr, ssim); phase errors use wrapped residuals and range 2*pi."""
    x = np.asarray(x, dtype=np.float64)
    xhat = np.asarray(xhat, dtype=np.float64)
    if x.shape != xhat.shape:
        raise ValueError(f"shape mismatch {x.shape} vs {xhat.shape}")
    if kind == "amplitude":
        err = x - xhat
        mse_val = float(np.mean(err ** 2))
        mae_val = float(np.mean(np.abs(err)))
        psnr_val = _psnr(mse_val, 1.0)
        ssim_val = losses.ssim_value(x, xhat)
    elif kind == "phase":
        res = circphase.wrapped_diff(x, xhat)
        mse_val = float(np.mean(res ** 2))
        mae_val = float(np.mean(np.abs(res)))
        psnr_val = _psnr(mse_val, 2.0 * np.pi)
        # SSIM on maps affinely rescaled from (-pi, pi] to [0, 1]
        ssim_val = losses.ssim_value((x + np.pi) / (2 * np.pi),
                                     (xhat + np.pi) / (2 * np.pi))
    else:
        raise ValueError(f"unknown kind '{kind}'")
    return mse_val, mae_val, psnr_val, ssim_val


def radial_psd(x):
    """Radially averaged PSD (mean removed) and low/mid/high band energies (%).

    Bins use integer radius with centered frequencies, clipped at Nyquist so
    corner energy folds into the Nyquist bin; band energies weight each bin by
    its radius. A spectrum with no AC energy reports (100, 0, 0).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError("radial_psd needs a square grid")
    n = x.shape[0]
    f = np.fft.fftshift(np.fft.fft2(x - x.mean()))
    psd2 = np.abs(f) ** 2
    center = n // 2
    yy, xx = np.mgrid[0:n, 0:n]
    r = np.rint(np.sqrt((yy - center) ** 2 + (xx - center) ** 2)).astype(int)
    nyq = n // 2
    r = np.minimum(r, nyq)
    counts = np.bincount(r.ravel(), minlength=nyq + 1)
    sums = np.bincount(r.ravel(), weights=psd2.ravel(), minlength=nyq + 1)
    curve = sums / np.maximum(counts, 1)

    radii = np.arange(nyq + 1)
    weighted = curve * radii
    lo = float(weighted[radii < nyq / 3.0].sum())
    mid = float(weighted[(radii >= nyq / 3.0) & (radii < 2.0 * nyq / 3.0)].sum())
    hi = float(weighted[radii >= 2.0 * nyq / 3.0].sum())
    total = lo + mid + hi
    if total <= 1e-300:
        bands = (100.0, 0.0, 0.0)
    else:
        bands = (100.0 * lo / total, 100.0 * mid / total, 100.0 * hi / total)
    return radii, curve, bands


METRIC_NAMES = ("mse", "mae", "psnr", "ssim")


def report(frames, predictions, gt_patches, weight_floor=WEIGHT_FLOOR, canvas_shape=None,
           config_hash="", seed=0):
    """Per-sample and stitched metrics plus band energies for amplitude and phase."""
    if len(predictions) != len(frames) or len(gt_patches) != len(frames):
        raise ValueError("frames, predictions, and ground truth must align")
    per = {"amplitude": {m: [] for m in METRIC_NAMES},
           "phase": {m: [] for m in METRIC_NAMES}}
    for (amp_hat, phi_hat), patch in zip(predictions, gt_patches):
        for kind, gt, pred in (("amplitude", patch.amplitude, amp_hat),
                               ("phase", patch.phase, phi_hat)):
            vals = metrics(gt, pred, kind)
            for m, v in zip(METRIC_NAMES, vals):
                per[kind][m].append(v)
    per = {k: {m: np.asarray(v) for m, v in d.items()} for k, d in per.items()}

    positions = [(f.y, f.x) for f in frames]
    if canvas_shape is None:
        p = gt_patches[0].amplitude.shape[0]
        canvas_shape = (max(y for y, _ in positions) + p,
                        max(x for _, x in positions) + p)
    at = (positions, canvas_shape, weight_floor)
    amp_hat_full, mask = stitch([a for a, _ in predictions], *at)
    phi_hat_full, _ = stitch_phase([p for _, p in predictions], *at)
    amp_gt_full, _ = stitch([p.amplitude for p in gt_patches], *at)
    phi_gt_full, _ = stitch_phase([p.phase for p in gt_patches], *at)

    ys, xs = np.where(mask)
    box = (slice(ys.min(), ys.max() + 1), slice(xs.min(), xs.max() + 1))
    stitched = {}
    for kind, gt, pred in (("amplitude", amp_gt_full, amp_hat_full),
                           ("phase", phi_gt_full, phi_hat_full)):
        vals = metrics(gt[box], pred[box], kind)
        stitched[kind] = dict(zip(METRIC_NAMES, vals))

    bands = {}
    for kind, pred in (("amplitude", amp_hat_full), ("phase", phi_hat_full)):
        crop = pred[box]
        side = min(crop.shape)
        _, _, b = radial_psd(crop[:side, :side])
        bands[kind] = b

    fields = {"amp_hat": amp_hat_full, "phase_hat": phi_hat_full,
              "amp_gt": amp_gt_full, "phase_gt": phi_gt_full, "mask": mask}
    return ReconReport(per_sample=per, stitched=stitched, bands=bands, fields=fields,
                       config_hash=config_hash, seed=seed)


def write_report(outdir, rep):
    """Text + CSV summaries, stitched fields as PTGRID, PSD curves as text."""
    os.makedirs(outdir, exist_ok=True)
    lines = [f"config_hash: {rep.config_hash}", f"seed: {rep.seed}", ""]
    csv_rows = ["metric,modality,mean,std"]
    for kind in ("amplitude", "phase"):
        lines.append(f"[{kind}] per-sample (mean +- std over {len(rep.per_sample[kind]['mse'])} frames)")
        for m in METRIC_NAMES:
            arr = rep.per_sample[kind][m]
            lines.append(f"  {m}: {arr.mean():.6g} +- {arr.std():.6g}")
            csv_rows.append(f"{m},{kind},{arr.mean():.8g},{arr.std():.8g}")
        lines.append(f"[{kind}] stitched")
        for m in METRIC_NAMES:
            v = rep.stitched[kind][m]
            lines.append(f"  {m}: {v:.6g}")
            csv_rows.append(f"stitched_{m},{kind},{v:.8g},0")
        lo, mid, hi = rep.bands[kind]
        lines.append(f"[{kind}] band energy %: low {lo:.3f}, mid {mid:.3f}, high {hi:.3f}")
        csv_rows.append(f"band_low,{kind},{lo:.8g},0")
        csv_rows.append(f"band_mid,{kind},{mid:.8g},0")
        csv_rows.append(f"band_high,{kind},{hi:.8g},0")
        lines.append("")
    with open(os.path.join(outdir, "report.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(os.path.join(outdir, "report.csv"), "w") as fh:
        fh.write("\n".join(csv_rows) + "\n")
    for name in ("amp_hat", "phase_hat", "amp_gt", "phase_gt"):
        gridio.write_grid(os.path.join(outdir, name + ".ptg"),
                          rep.fields[name].astype(np.float32))
    for kind, arr in (("amplitude", rep.fields["amp_hat"]),
                      ("phase", rep.fields["phase_hat"])):
        side = min(arr.shape)
        radii, curve, _ = radial_psd(arr[:side, :side])
        with open(os.path.join(outdir, f"psd_{kind}.txt"), "w") as fh:
            for rbin, val in zip(radii, curve):
                fh.write(f"{rbin} {val:.10g}\n")
