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
    spectra: dict  # kind -> radial_psd (radii, curve, bands) of the covered box
    fields: dict  # stitched grids: amp_hat, phase_hat, amp_gt, phase_gt, mask
    origin: tuple  # (y, x) of the fields' box; `write_field` embeds them
    config_hash: str = ""
    seed: int = 0

    @property
    def bands(self):
        return {kind: bands for kind, (_, _, bands) in self.spectra.items()}


def iter_infer(intensity, params, cfg, batch_size=32):
    """Per-frame (amplitude, phase) predictions in frame order; deterministic.

    A generator over an (N, p, p) intensity stack, or anything sliceable with a
    length, such as `dataset.IntensityFiles`: it slices `batch_size` frames and
    runs the model on them when the previous batch has been consumed, so only
    one batch of predictions is alive, and files are read one batch at a time.
    The default batch is the training batch: at 64 frames a frame takes longer
    (n_c=32, row-tap convs: 4.1-4.6 against 3.7-4.0 ms per frame on 2 cores).
    """
    for start in range(0, len(intensity), batch_size):
        res = model.forward(intensity[start:start + batch_size][:, None], params, cfg)
        amps = res["amp"].data[:, 0]
        if cfg.variant == "scalar_phase":
            phases = res["phase"].data[:, 0].astype(np.float64)
        else:
            phases = circphase.recover_phase(res["c_proj"].data[:, 0],
                                             res["s_proj"].data[:, 0])
        for i in range(len(amps)):
            yield amps[i].copy(), phases[i].copy()


def stitch_kernel(patch, weight_floor):
    """Radially decaying weight (1 - d/d_max)^2 + floor; d_max = center-to-corner."""
    center = (patch - 1) / 2.0
    yy, xx = np.mgrid[0:patch, 0:patch]
    d = np.sqrt((yy - center) ** 2 + (xx - center) ** 2)
    d_max = np.sqrt(2.0) * center
    return (1.0 - d / d_max) ** 2 + weight_floor


def _blend(items, positions, canvas_shape, weight_floor, channels):
    """Per-pixel weighted mean of k channels of overlapping p x p patches.

    `channels(item)` gives an item's k patches. Items are added one at a time
    to k float64 channel sums and one shared weight sum, and the sums are
    divided in place; uncovered pixels are 0. A `canvas_shape` canvas starts at
    (0, 0); with none the canvas is the positions' bounding box, [min y, max y +
    p) x [min x, max x + p). Returns (k mean grids, coverage mask, the canvas's
    (y, x) origin).
    """
    if not weight_floor >= 0:
        raise ValueError(f"weight_floor must be >= 0, got {weight_floor}")
    sums = weight = None
    for item, (y, x) in zip(items, positions):
        patches = channels(item)
        if weight is None:
            p = patches[0].shape[0]
            kernel = stitch_kernel(p, weight_floor)
            oy, ox = 0, 0
            if canvas_shape is None:
                oy, ox = min(y for y, _ in positions), min(x for _, x in positions)
                canvas_shape = (max(y for y, _ in positions) + p - oy,
                                max(x for _, x in positions) + p - ox)
            sums = [np.zeros(canvas_shape, dtype=np.float64) for _ in patches]
            weight = np.zeros(canvas_shape, dtype=np.float64)
        window = (slice(y - oy, y - oy + p), slice(x - ox, x - ox + p))
        for acc, patch in zip(sums, patches):
            acc[window] += patch.astype(np.float64) * kernel
        weight[window] += kernel
    if weight is None:
        raise ValueError("empty patch list")
    mask = weight > 0
    uncovered = ~mask
    for acc in sums:
        np.divide(acc, weight, out=acc, where=mask)
        acc[uncovered] = 0.0  # a zero-weight pixel may hold -0.0
    return sums, mask, (oy, ox)


def _cos_sin(phase):
    phase = np.asarray(phase, dtype=np.float64)
    return np.cos(phase), np.sin(phase)


def stitch(patches, positions, canvas_shape, weight_floor=WEIGHT_FLOOR):
    """Per-pixel weighted mean of overlapping patches; returns (grid, coverage mask).

    The weights are `stitch_kernel`'s; `patches` may be any iterable."""
    (out,), mask, _ = _blend(patches, positions, canvas_shape, weight_floor, lambda p: (p,))
    return out, mask


def stitch_phase(phase_patches, positions, canvas_shape, weight_floor=WEIGHT_FLOOR):
    """Circular-mean stitching: blend in (cos, sin) space, recover by atan2."""
    (c, s), mask, _ = _blend(phase_patches, positions, canvas_shape, weight_floor, _cos_sin)
    return circphase.recover_phase(c, s), mask


def stitch_amp_phase(pairs, positions, weight_floor=WEIGHT_FLOOR):
    """`stitch` of the amplitudes and `stitch_phase` of the phases of an iterable of
    (amplitude, phase) patches, read once, on the canvas of the positions'
    bounding box; returns (amplitude, phase, mask, the box's (y, x) origin)."""
    (amp, c, s), mask, origin = _blend(pairs, positions, None, weight_floor,
                                       lambda pair: (pair[0],) + _cos_sin(pair[1]))
    return amp, circphase.recover_phase(c, s), mask, origin


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
    yy, xx = np.ogrid[0:n, 0:n]
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


def report(positions, predictions, truth, weight_floor=WEIGHT_FLOOR, config_hash="", seed=0):
    """Per-sample and stitched metrics plus band energies for amplitude and phase.

    `predictions` is an iterable of (amplitude, phase), one per (y, x) in
    `positions`, in that order, read once: each prediction is scored against
    the `dataset.Truth` windows at its position and added to the stitch as it
    arrives, so `iter_infer` keeps one batch of predictions alive. The count is
    checked at the end. The stitched ground truth is the truth's grids on the
    stitch's box, 0 off its coverage mask: every window blends one value per
    pixel.
    """
    per = {kind: {m: [] for m in METRIC_NAMES} for kind in ("amplitude", "phase")}
    predictions = iter(predictions)

    def scored():
        count = 0
        for (y, x), (amp_hat, phi_hat) in zip(positions, predictions):
            for kind, gt, pred in zip(("amplitude", "phase"), truth.windows(y, x),
                                      (amp_hat, phi_hat)):
                for m, v in zip(METRIC_NAMES, metrics(gt, pred, kind)):
                    per[kind][m].append(v)
            count += 1
            yield amp_hat, phi_hat
        if count != len(positions) or next(predictions, None) is not None:
            raise ValueError("positions and predictions must align")

    amp_hat, phi_hat, mask, origin = stitch_amp_phase(scored(), positions, weight_floor)
    at = tuple(slice(o - t, o - t + n) for o, t, n in zip(origin, truth.origin, mask.shape))
    amp_gt, phi_gt = (np.where(mask, grid[at], 0.0) for grid in (truth.amplitude, truth.phase))
    per = {k: {m: np.asarray(v) for m, v in d.items()} for k, d in per.items()}

    ys, xs = np.where(mask)
    box = (slice(ys.min(), ys.max() + 1), slice(xs.min(), xs.max() + 1))
    stitched = {}
    for kind, gt, pred in (("amplitude", amp_gt, amp_hat), ("phase", phi_gt, phi_hat)):
        vals = metrics(gt[box], pred[box], kind)
        stitched[kind] = dict(zip(METRIC_NAMES, vals))

    side = min(sl.stop - sl.start for sl in box)  # of the box's top-left square
    spectra = {kind: radial_psd(pred[box][:side, :side])
               for kind, pred in (("amplitude", amp_hat), ("phase", phi_hat))}

    fields = {"amp_hat": amp_hat, "phase_hat": phi_hat,
              "amp_gt": amp_gt, "phase_gt": phi_gt, "mask": mask}
    return ReconReport(per_sample=per, stitched=stitched, spectra=spectra, fields=fields,
                       origin=origin, config_hash=config_hash, seed=seed)


def write_psd(path, radii, curve):
    """A PSD curve as text, one "radius value" line per bin."""
    with open(path, "w") as fh:
        for rbin, val in zip(radii, curve):
            fh.write(f"{rbin} {val:.10g}\n")


def write_field(path, field, origin):
    """A stitched field as a grid that starts at (0, 0): the field at its (y, x)
    `origin` in a float32 canvas of zeros of shape origin + field.shape (max y +
    p, max x + p). The field is rounded to float32, as `write_grid` rounds."""
    (y, x), (h, w) = origin, field.shape
    canvas = np.zeros((y + h, x + w), dtype=np.float32)
    canvas[y:, x:] = field
    gridio.write_grid(path, canvas)


def write_report(outdir, rep):
    """Text + CSV summaries, stitched fields as PTGRID, PSD curves as text."""
    os.makedirs(outdir, exist_ok=True)
    lines = [f"config_hash: {rep.config_hash}", f"seed: {rep.seed}", ""]
    csv_rows = []
    for kind in ("amplitude", "phase"):
        lines.append(f"[{kind}] per-sample (mean +- std over {len(rep.per_sample[kind]['mse'])} frames)")
        for m in METRIC_NAMES:
            arr = rep.per_sample[kind][m]
            lines.append(f"  {m}: {arr.mean():.6g} +- {arr.std():.6g}")
            csv_rows.append([m, kind, arr.mean(), arr.std()])
        lines.append(f"[{kind}] stitched")
        for m in METRIC_NAMES:
            v = rep.stitched[kind][m]
            lines.append(f"  {m}: {v:.6g}")
            csv_rows.append([f"stitched_{m}", kind, v, 0])
        lo, mid, hi = rep.bands[kind]
        lines.append(f"[{kind}] band energy %: low {lo:.3f}, mid {mid:.3f}, high {hi:.3f}")
        for band, v in zip(("low", "mid", "high"), (lo, mid, hi)):
            csv_rows.append([f"band_{band}", kind, v, 0])
        lines.append("")
    with open(os.path.join(outdir, "report.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    gridio.write_csv(os.path.join(outdir, "report.csv"), ["metric", "modality", "mean", "std"],
                     csv_rows)
    for name in ("amp_hat", "phase_hat", "amp_gt", "phase_gt"):
        write_field(os.path.join(outdir, name + ".ptg"), rep.fields[name], rep.origin)
    for kind, (radii, curve, _) in rep.spectra.items():
        write_psd(os.path.join(outdir, f"psd_{kind}.txt"), radii, curve)
