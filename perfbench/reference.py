"""Computations the benchmark checks ptychokit's outputs against.

Everything here is written from the definitions (the paper's formulas and the
documented file formats), not from ptychokit's code, and imports nothing from
ptychokit. Each function has a hand-worked self-test in test_reference.py.
"""

import json

import numpy as np

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_C1 = 0.01 ** 2
SSIM_C2 = 0.03 ** 2


# ---------------------------------------------------------------------------
# files

def read_ptgrid(path):
    """PTGRID v1: one JSON header line, then row-major little-endian float32."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        payload = fh.read()
    if header["magic"] != "PTGRID" or header["dtype"] != "f32le":
        raise ValueError(f"{path}: not a PTGRID f32le file")
    shape = tuple(header["shape"])
    return np.frombuffer(payload, dtype="<f4").reshape(shape).astype(np.float64)


def read_config(path):
    """`key = value` lines as written by a stage's config.txt; values kept as text."""
    values = {}
    with open(path) as fh:
        for line in fh:
            if "=" in line:
                key, value = line.split("=", 1)
                values[key.strip()] = value.strip()
    return values


# ---------------------------------------------------------------------------
# SSIM, brute force

def gaussian_window(size=SSIM_WINDOW, sigma=SSIM_SIGMA):
    """size x size Gaussian weights summing to 1."""
    half = size // 2
    w = np.empty((size, size))
    for i in range(size):
        for j in range(size):
            w[i, j] = np.exp(-((i - half) ** 2 + (j - half) ** 2) / (2.0 * sigma ** 2))
    return w / w.sum()


def ssim_per_frame(x, y, data_range=1.0):
    """Mean SSIM of each frame over every valid 11x11 window, in float64.

    x, y: (..., h, w); the result has the leading shape. Each window's
    weighted means, variances and covariance are computed directly from its
    pixels, one window position at a time (vectorised only across frames).
    """
    x = np.asarray(x, np.float64)
    y = np.asarray(y, np.float64)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch {x.shape} vs {y.shape}")
    lead = x.shape[:-2]
    x = x.reshape((-1,) + x.shape[-2:])
    y = y.reshape((-1,) + y.shape[-2:])
    k = SSIM_WINDOW
    g = gaussian_window()
    c1 = SSIM_C1 * data_range ** 2
    c2 = SSIM_C2 * data_range ** 2
    n, h, w = x.shape
    total = np.zeros(n)
    count = 0
    for i in range(h - k + 1):
        for j in range(w - k + 1):
            a = x[:, i:i + k, j:j + k]
            b = y[:, i:i + k, j:j + k]
            mu_a = np.sum(g * a, axis=(1, 2))
            mu_b = np.sum(g * b, axis=(1, 2))
            da = a - mu_a[:, None, None]
            db = b - mu_b[:, None, None]
            var_a = np.sum(g * da * da, axis=(1, 2))
            var_b = np.sum(g * db * db, axis=(1, 2))
            cov = np.sum(g * da * db, axis=(1, 2))
            total += ((2 * mu_a * mu_b + c1) * (2 * cov + c2)
                      / ((mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2)))
            count += 1
    out = (total / count).reshape(lead)
    return out if lead else float(out)


# ---------------------------------------------------------------------------
# forward model

def diffraction(obj, probe, y, x):
    """|FFT(probe * object window)|^2 with the orthonormal FFT (1/sqrt(N) each way)."""
    p = probe.shape[0]
    psi = probe * obj[y:y + p, x:x + p]
    return np.abs(np.fft.fft2(psi) / np.sqrt(psi.size)) ** 2


def exit_wave_energy(obj, probe, positions):
    """sum |probe * window|^2 per position: what Parseval says each frame sums to."""
    p = probe.shape[0]
    p2 = np.abs(probe) ** 2
    return np.array([np.sum(p2 * np.abs(obj[y:y + p, x:x + p]) ** 2) for y, x in positions])


# ---------------------------------------------------------------------------
# stitching

def stitch_weights(patch, floor):
    """(1 - d/d_max)^2 + floor, d from the patch centre, d_max centre-to-corner."""
    c = (patch - 1) / 2.0
    w = np.empty((patch, patch))
    for i in range(patch):
        for j in range(patch):
            d = np.hypot(i - c, j - c)
            w[i, j] = (1.0 - d / (np.sqrt(2.0) * c)) ** 2 + floor
    return w


def weighted_mean_stitch(patches, positions, canvas, floor):
    """Per-pixel weighted mean of the patches; (field, covered mask)."""
    p = patches[0].shape[0]
    w = stitch_weights(p, floor)
    num = np.zeros(canvas)
    den = np.zeros(canvas)
    for patch, (y, x) in zip(patches, positions):
        num[y:y + p, x:x + p] += w * patch
        den[y:y + p, x:x + p] += w
    covered = den > 0
    out = np.zeros(canvas)
    out[covered] = num[covered] / den[covered]
    return out, covered


def circular_mean_stitch(phases, positions, canvas, floor):
    """Weighted circular mean: blend unit vectors, take the angle in (-pi, pi]."""
    c, covered = weighted_mean_stitch([np.cos(p) for p in phases], positions, canvas, floor)
    s, _ = weighted_mean_stitch([np.sin(p) for p in phases], positions, canvas, floor)
    return wrap(np.arctan2(s, c)), covered


def wrap(phi):
    """Angles mapped to (-pi, pi]."""
    phi = np.asarray(phi, np.float64)
    out = np.mod(phi + np.pi, 2.0 * np.pi) - np.pi
    return np.where(out <= -np.pi, out + 2.0 * np.pi, out)


# ---------------------------------------------------------------------------
# metrics

def psnr(mse, data_range):
    return 10.0 * np.log10(data_range ** 2 / mse)


# ---------------------------------------------------------------------------
# composite loss

def _mse(x, y):
    return np.mean((x - y) ** 2)


def _grad_term(x, y):
    d = x - y
    return np.mean(np.abs(d[..., :, 1:] - d[..., :, :-1])) + np.mean(np.abs(d[..., 1:, :] - d[..., :-1, :]))


def _ssim_term(x, y):
    return 1.0 - float(np.mean(ssim_per_frame(x, y)))


def composite_terms(a, a_hat, c, c_pre, s, s_pre, c_proj, s_proj):
    """The terms of the paper's training objective in float64, named as in
    ptychokit's LossBreakdown; arrays are (..., h, w).

    base = MSE(a) + MSE(cos) + MSE(sin) on pre-projection outputs
    grad_amp = grad(a), ssim_amp = 1 - SSIM(a)
    grad_phase = grad(cos) + grad(sin), ssim_phase = 2 - SSIM(cos) - SSIM(sin)
    circular = 1 - mean(c * c_proj + s * s_proj)
    cons = mean((c_pre^2 + s_pre^2 - 1)^2)
    """
    a, a_hat, c, c_pre, s, s_pre, c_proj, s_proj = (
        np.asarray(v, np.float64) for v in (a, a_hat, c, c_pre, s, s_pre, c_proj, s_proj))
    return {
        "base": _mse(a, a_hat) + _mse(c, c_pre) + _mse(s, s_pre),
        "grad_amp": _grad_term(a, a_hat),
        "ssim_amp": _ssim_term(a, a_hat),
        "grad_phase": _grad_term(c, c_pre) + _grad_term(s, s_pre),
        "ssim_phase": _ssim_term(c, c_pre) + _ssim_term(s, s_pre),
        "circular": float(1.0 - np.mean(c * c_proj + s * s_proj)),
        "cons": float(np.mean((c_pre ** 2 + s_pre ** 2 - 1.0) ** 2)),
    }


def weighted_total(t, weights):
    """total = w_b * base + w_a * amp + w_p * phase + w_c * cons, where
    amp = lam_g * grad_amp + lam_s * ssim_amp and
    phase = lam_g * grad_phase + lam_s * ssim_phase + lam_circ * circular."""
    f = {k: float(v) for k, v in weights.items()}
    amp = f["lam_g"] * t["grad_amp"] + f["lam_s"] * t["ssim_amp"]
    phase = f["lam_g"] * t["grad_phase"] + f["lam_s"] * t["ssim_phase"] + f["lam_circ"] * t["circular"]
    return float(f["w_b"] * t["base"] + f["w_a"] * amp + f["w_p"] * phase + f["w_c"] * t["cons"])


def composite_loss(a, a_hat, c, c_pre, s, s_pre, c_proj, s_proj, weights):
    """The paper's training objective in float64: the weighted sum of the terms."""
    return weighted_total(composite_terms(a, a_hat, c, c_pre, s, s_pre, c_proj, s_proj), weights)


# ---------------------------------------------------------------------------
# learning-rate schedule

def triangular2_lr(step, half_cycle, eta):
    """Closed form: eta/10 + 0.9 eta * max(0, 1 - |step/h - 2k - 1|) / 2^k, k = step // 2h."""
    k = step // (2 * half_cycle)
    tri = max(0.0, 1.0 - abs(step / half_cycle - 2 * k - 1))
    return eta / 10.0 + 0.9 * eta * tri / 2.0 ** k
