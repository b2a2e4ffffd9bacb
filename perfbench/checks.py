"""Output checks: each compares what a stage left on disk with the benchmark's
own computation (reference.py) or with a property the method must have.

A check raises CheckFailed when an output is wrong. Any other exception
means it could not run (for example because the stage before it failed).
"""

import csv
import json
import math
import os

import numpy as np

import reference as ref

F32_PI = float(np.float32(np.pi))


class CheckFailed(Exception):
    """An output differs from the independent computation."""


def expect(cond, message):
    if not cond:
        raise CheckFailed(message)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class DataDir:
    """A `simulate` output directory, read with the benchmark's own reader."""

    def __init__(self, path):
        self.path = path
        self.rows = read_csv(os.path.join(path, "manifest.csv"))
        self.positions = [(int(r["y"]), int(r["x"])) for r in self.rows]
        self.config = ref.read_config(os.path.join(path, "config.txt"))

    def indices(self, split):
        return [i for i, r in enumerate(self.rows) if r["split"] == split]

    def grids(self, key, idx):
        return np.stack([ref.read_ptgrid(os.path.join(self.path, self.rows[i][key]))
                         for i in idx])

    def object(self):
        amp = ref.read_ptgrid(os.path.join(self.path, "object_amplitude.ptg"))
        phase = ref.read_ptgrid(os.path.join(self.path, "object_phase.ptg"))
        return amp * np.exp(1j * phase)

    def probe(self):
        re_im = ref.read_ptgrid(os.path.join(self.path, "probe.ptg"))
        return re_im[..., 0] + 1j * re_im[..., 1]


class PredDir:
    """An `infer` output directory."""

    def __init__(self, path):
        self.rows = read_csv(os.path.join(path, "predictions.csv"))
        self.positions = [(int(r["y"]), int(r["x"])) for r in self.rows]
        pred = os.path.join(path, "pred")
        self.amp = np.stack([ref.read_ptgrid(os.path.join(pred, f"{int(r['index']):05d}_amp.ptg"))
                             for r in self.rows])
        self.phase = np.stack([ref.read_ptgrid(os.path.join(pred, f"{int(r['index']):05d}_phase.ptg"))
                               for r in self.rows])


def read_report(eval_dir):
    """report.csv as {(metric, modality): mean}."""
    return {(r["metric"], r["modality"]): float(r["mean"])
            for r in read_csv(os.path.join(eval_dir, "report.csv"))}


# ---------------------------------------------------------------------------
# simulate

def forward_model(data, rng, samples=16):
    """A seeded sample of frames equals |FFT(probe * object window)|^2."""
    expect(all(r["noisy"] == "0" for r in data.rows), "frames carry detector noise")
    obj, probe = data.object(), data.probe()
    idx = sorted(rng.choice(len(data.rows), size=samples, replace=False))
    got = data.grids("intensity", idx)
    for k, i in enumerate(idx):
        y, x = data.positions[i]
        want = ref.diffraction(obj, probe, y, x)
        err = np.max(np.abs(got[k] - want)) / np.max(want)
        expect(err < 1e-5, f"frame {i}: relative error {err:.3g} vs the FFT forward model")


def parseval(data):
    """Every frame's total intensity equals the exit wave's energy."""
    total = data.grids("intensity", range(len(data.rows))).sum(axis=(1, 2))
    want = ref.exit_wave_energy(data.object(), data.probe(), data.positions)
    err = np.max(np.abs(total - want) / want)
    expect(err < 1e-5, f"Parseval off by {err:.3g} (relative)")


# ---------------------------------------------------------------------------
# infer, stitch, evaluate, spectrum

def predictions(data, pred):
    """One prediction per test frame, amplitude in [0, 1], phase in (-pi, pi].

    Phases are stored as float32, where pi rounds up to F32_PI; the range
    is checked at that precision.
    """
    test = data.indices("test")
    expect(len(pred.rows) == len(test), f"{len(pred.rows)} predictions for {len(test)} test frames")
    expect(pred.positions == [data.positions[i] for i in test], "prediction positions differ")
    expect(pred.amp.min() >= 0.0 and pred.amp.max() <= 1.0,
           f"amplitude outside [0, 1]: [{pred.amp.min()}, {pred.amp.max()}]")
    expect(pred.phase.min() >= -F32_PI and pred.phase.max() <= F32_PI,
           f"phase outside (-pi, pi]: [{pred.phase.min()}, {pred.phase.max()}]")


def stitched(data, pred, stitch_dir):
    """The stitched fields equal the independent weighted and circular means to 1e-6."""
    floor = float(data.config["stitch_weight_floor"])
    amp = ref.read_ptgrid(os.path.join(stitch_dir, "stitched_amp.ptg"))
    phase = ref.read_ptgrid(os.path.join(stitch_dir, "stitched_phase.ptg"))
    coverage = ref.read_ptgrid(os.path.join(stitch_dir, "coverage.ptg"))
    p = pred.amp.shape[1]
    expect(amp.shape[0] >= max(y for y, _ in pred.positions) + p
           and amp.shape[1] >= max(x for _, x in pred.positions) + p, "canvas too small")
    want_amp, covered = ref.weighted_mean_stitch(list(pred.amp), pred.positions, amp.shape, floor)
    want_phase, _ = ref.circular_mean_stitch(list(pred.phase), pred.positions, amp.shape, floor)
    expect(np.array_equal(coverage > 0, covered), "coverage mask differs")
    err_amp = np.max(np.abs(amp - want_amp))
    err_phase = np.max(np.abs(ref.wrap(phase - want_phase)))
    expect(err_amp <= 1e-6, f"stitched amplitude off by {err_amp:.3g}")
    expect(err_phase <= 1e-6, f"stitched phase off by {err_phase:.3g}")


def _phase_unit(phi):
    """Phase maps scaled from (-pi, pi] to [0, 1], as the SSIM of phase is defined."""
    return (phi + np.pi) / (2 * np.pi)


def ssim(data, pred, eval_dir, rng, recon, samples=8):
    """Per-frame SSIM from ptychokit equals brute force on a seeded sample, and
    the evaluate report's mean SSIM equals brute force over every test frame."""
    test = data.indices("test")
    gt_amp = data.grids("amplitude", test)
    gt_phase = data.grids("phase", test)
    want_amp = ref.ssim_per_frame(gt_amp, pred.amp)
    want_phase = ref.ssim_per_frame(_phase_unit(gt_phase), _phase_unit(pred.phase))
    for k in sorted(rng.choice(len(test), size=min(samples, len(test)), replace=False)):
        got_amp = recon.metrics(gt_amp[k], pred.amp[k], "amplitude")[3]
        got_phase = recon.metrics(gt_phase[k], pred.phase[k], "phase")[3]
        expect(abs(got_amp - want_amp[k]) < 1e-9, f"frame {k}: amplitude SSIM {got_amp} != {want_amp[k]}")
        expect(abs(got_phase - want_phase[k]) < 1e-9, f"frame {k}: phase SSIM {got_phase} != {want_phase[k]}")
    report = read_report(eval_dir)
    for kind, want in (("amplitude", want_amp), ("phase", want_phase)):
        got = report[("ssim", kind)]
        expect(abs(got - want.mean()) < 1e-6, f"report {kind} SSIM {got} != {want.mean()}")


def psnr(data, pred, eval_dir):
    """Every PSNR in the report equals 10 log10(range^2 / MSE)."""
    test = data.indices("test")
    report = read_report(eval_dir)
    residuals = {"amplitude": (data.grids("amplitude", test) - pred.amp, 1.0),
                 "phase": (ref.wrap(data.grids("phase", test) - pred.phase), 2 * np.pi)}
    for kind, (res, data_range) in residuals.items():
        mse = np.mean(res ** 2, axis=(1, 2))
        want = np.mean(ref.psnr(mse, data_range))
        got = report[("psnr", kind)]
        expect(abs(got - want) <= 1e-6 * abs(want), f"report {kind} PSNR {got} != {want}")
        got = report[("stitched_psnr", kind)]
        want = ref.psnr(report[("stitched_mse", kind)], data_range)
        expect(abs(got - want) <= 1e-6 * abs(want), f"stitched {kind} PSNR {got} != {want}")


def bands(eval_dir, spectrum_dir):
    """Band energies are non-negative and sum to 100%."""
    with open(os.path.join(spectrum_dir, "bands.json")) as fh:
        b = json.load(fh)
    sets = {"spectrum": [b["low"], b["mid"], b["high"]]}
    report = read_report(eval_dir)
    for kind in ("amplitude", "phase"):
        sets[kind] = [report[(f"band_{n}", kind)] for n in ("low", "mid", "high")]
    for name, vals in sets.items():
        expect(min(vals) >= 0 and abs(sum(vals) - 100.0) < 1e-5, f"{name} bands {vals}")


def epie_converges(epie_dir):
    """The data error of the last ePIE sweep is below that of the first."""
    with open(os.path.join(epie_dir, "error_history.txt")) as fh:
        errors = [float(line) for line in fh if line.strip()]
    expect(len(errors) >= 2 and errors[-1] < errors[0], f"ePIE errors {errors}")


# ---------------------------------------------------------------------------
# train

def train_config(train_dir):
    return ref.read_config(os.path.join(train_dir, "config.txt"))


def lr_schedule(data, train_dir):
    """The lr column of loss_log.csv is the triangular-2 schedule in closed form."""
    cfg = train_config(train_dir)
    batch = int(cfg["batch_size"])
    steps_per_epoch = math.ceil(len(data.indices("train")) / batch)
    half = int(cfg["half_cycle_epochs"]) * steps_per_epoch
    eta = float(cfg["eta"])
    log = read_csv(os.path.join(train_dir, "loss_log.csv"))
    expect(len(log) == int(cfg["epochs"]) * steps_per_epoch, f"{len(log)} logged steps")
    for row in log:
        step, lr = int(row["step"]), float(row["lr"])
        want = ref.triangular2_lr(step, half, eta)
        expect(abs(lr - want) <= 1e-7 * want, f"step {step}: lr {lr} != {want}")


def loss_decreases(train_dir):
    """Mean loss over the last quarter of steps is below that over the first quarter."""
    total = [float(r["total"]) for r in read_csv(os.path.join(train_dir, "loss_log.csv"))]
    k = max(1, len(total) // 4)
    first, last = np.mean(total[:k]), np.mean(total[-k:])
    expect(last < first, f"loss rose: first {first:.6g}, last {last:.6g}")


class CheckpointBatch:
    """The trained checkpoint run on a fixed batch: the first 8 training frames."""

    def __init__(self, data, train_dir, pk, batch=8):
        idx = data.indices("train")[:batch]
        self.intensity = data.grids("intensity", idx)[:, None].astype(np.float32)
        self.a = data.grids("amplitude", idx)[:, None]
        phase = data.grids("phase", idx)[:, None]
        self.c, self.s = np.cos(phase), np.sin(phase)
        params, self.cfg, _ = pk.model.load_checkpoint(os.path.join(train_dir, "checkpoint"))
        self.out = pk.model.forward(self.intensity, params, self.cfg)


def loss_matches(train_dir, batch, pk):
    """ptychokit's composite loss on the batch equals the float64 recomputation
    from the same model outputs, to float32 tolerance: every term but the two
    SSIM ones, and the total as the paper's weighted sum of the terms.

    The SSIM terms are left out: the tape SSIM computes each window's
    variance as E[x^2] - E[x]^2 in float32, which loses about three digits
    where the target is flat (cos(phase) near 1), so it differs from the
    float64 SSIM by up to 1e-4 relative on some seeds. The total is checked
    with the program's own SSIM terms in the sum.
    """
    cfg = train_config(train_dir)
    names = ("w_b", "w_a", "w_p", "w_c", "lam_circ", "lam_g", "lam_s")
    weights = {k: float(cfg[k]) for k in names}
    o = batch.out
    T = pk.autodiff.Tensor
    got, parts = pk.losses.total_loss(
        T(batch.a), o["amp"], T(batch.c), o["c_pre"], T(batch.s), o["s_pre"],
        o["c_proj"], o["s_proj"], pk.losses.LossWeights(**weights))
    want = ref.composite_terms(batch.a, o["amp"].data, batch.c, o["c_pre"].data,
                               batch.s, o["s_pre"].data, o["c_proj"].data, o["s_proj"].data)
    for name in ("base", "grad_amp", "grad_phase", "circular", "cons"):
        err = abs(getattr(parts, name) - want[name])
        expect(err <= 1e-5 * max(1.0, abs(want[name])),
               f"{name} {getattr(parts, name)} != {want[name]} (float64)")
    want["ssim_amp"], want["ssim_phase"] = parts.ssim_amp, parts.ssim_phase
    total = ref.weighted_total(want, weights)
    err = abs(got.item() - total)
    expect(err <= 1e-5 * max(1.0, abs(total)), f"total_loss {got.item()} != {total} (float64)")


def unit_circle(batch, pk):
    """Projected outputs lie on the unit circle and recovered phases in (-pi, pi].

    The projection divides (c_pre, s_pre) by sqrt(m^2 + eps), m^2 = c_pre^2 +
    s_pre^2, so c^2 + s^2 = m^2 / (m^2 + eps) exactly: that is checked at
    every pixel to float32 tolerance, and c^2 + s^2 = 1 to 1e-5 wherever
    m^2 >= 2e-3, where eps = 1e-8 moves it by at most 5e-6.
    """
    o = batch.out
    c = o["c_proj"].data.astype(np.float64)
    s = o["s_proj"].data.astype(np.float64)
    m2 = o["c_pre"].data.astype(np.float64) ** 2 + o["s_pre"].data.astype(np.float64) ** 2
    r2 = c * c + s * s
    eps = pk.circphase.PROJECTION_EPS
    dev = np.max(np.abs(r2 - m2 / (m2 + eps)))
    expect(dev <= 1e-6, f"c^2 + s^2 differs from m^2 / (m^2 + eps) by {dev:.3g}")
    far = m2 >= 2e-3
    dev = np.max(np.abs(r2[far] - 1.0), initial=0.0)
    expect(dev <= 1e-5, f"|c^2 + s^2 - 1| up to {dev:.3g} where m^2 >= 2e-3")
    phase = pk.circphase.recover_phase(c, s)
    expect(phase.min() > -np.pi and phase.max() <= np.pi,
           f"phase outside (-pi, pi]: [{phase.min()}, {phase.max()}]")
