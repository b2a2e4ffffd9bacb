"""Composite training objective: pixel fidelity, edge and structure terms,
circular geodesic loss, and unit-circle consistency. All terms are
differentiable through the autodiff module."""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_C1 = 0.01 ** 2
SSIM_C2 = 0.03 ** 2


@dataclass
class LossWeights:
    w_b: float = 1.0
    w_a: float = 1.0
    w_p: float = 1.3
    w_c: float = 0.1
    lam_circ: float = 0.6
    lam_g: float = 0.12
    lam_s: float = 0.1

    def __post_init__(self):
        for name in ("w_b", "w_a", "w_p", "w_c", "lam_circ", "lam_g", "lam_s"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass
class LossBreakdown:
    base: float
    amp: float
    phase: float
    cons: float
    circular: float
    grad_amp: float
    ssim_amp: float
    grad_phase: float
    ssim_phase: float
    total: float

    FIELDS = ("base", "amp", "phase", "cons", "circular",
              "grad_amp", "ssim_amp", "grad_phase", "ssim_phase", "total")

    def to_row(self):
        return [getattr(self, f) for f in self.FIELDS]


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float32))


def mse(x, xhat):
    x, xhat = as_tensor(x), as_tensor(xhat)
    if x.shape != xhat.shape:
        raise ValueError(f"shape mismatch {x.shape} vs {xhat.shape}")
    return ad.reduce_mean(ad.square(ad.sub(x, xhat)))


def mae(x, xhat):
    x, xhat = as_tensor(x), as_tensor(xhat)
    if x.shape != xhat.shape:
        raise ValueError(f"shape mismatch {x.shape} vs {xhat.shape}")
    return ad.reduce_mean(ad.abs_(ad.sub(x, xhat)))


def base_loss(a, a_hat, c, c_hat, s, s_hat):
    """MSE on amplitude plus both (pre-projection) circular channels."""
    return ad.add(ad.add(mse(a, a_hat), mse(c, c_hat)), mse(s, s_hat))


def grad_loss(x, xhat):
    """Mean absolute difference of forward spatial gradients, both axes."""
    x, xhat = as_tensor(x), as_tensor(xhat)
    d = ad.sub(x, xhat)
    return ad.add(ad.reduce_mean(ad.abs_(ad.diff_h(d))),
                  ad.reduce_mean(ad.abs_(ad.diff_v(d))))


_BLUR_CACHE = {}


def _blur_matrix(n):
    """((n - 10) x n) valid-mode blur by the normalised 1-D Gaussian window (11 taps).

    The 2-D window of Wang et al. is the outer product of this one, so the
    windowed mean of a grid X is B_h @ X @ B_w^T. Every row sums to 1.
    """
    if n not in _BLUR_CACHE:
        half = SSIM_WINDOW // 2
        ax = np.arange(-half, half + 1, dtype=np.float64)
        g = np.exp(-ax ** 2 / (2.0 * SSIM_SIGMA ** 2))
        g /= g.sum()
        b = np.zeros((n - 2 * half, n))
        for i in range(n - 2 * half):
            b[i, i:i + SSIM_WINDOW] = g
        _BLUR_CACHE[n] = b
    return _BLUR_CACHE[n]


def ssim_value(x, xhat):
    """Double-precision mean SSIM for plain arrays (evaluation path)."""
    x = np.asarray(x, np.float64)
    xhat = np.asarray(xhat, np.float64)
    if x.shape != xhat.shape or x.ndim != 2:
        raise ValueError(f"need matching 2-D grids, got {x.shape} vs {xhat.shape}")
    if min(x.shape) < SSIM_WINDOW:
        raise ValueError("grid smaller than SSIM window")
    bh, bw = _blur_matrix(x.shape[0]), _blur_matrix(x.shape[1])

    def blur(v):
        return bh @ v @ bw.T

    mu1, mu2 = blur(x), blur(xhat)
    var1 = blur(x * x) - mu1 ** 2
    var2 = blur(xhat * xhat) - mu2 ** 2
    cov = blur(x * xhat) - mu1 * mu2
    num = (2 * mu1 * mu2 + SSIM_C1) * (2 * cov + SSIM_C2)
    den = (mu1 ** 2 + mu2 ** 2 + SSIM_C1) * (var1 + var2 + SSIM_C2)
    return float(np.mean(num / den))


def ssim(x, xhat):
    """Mean SSIM over valid 11x11 Gaussian windows (no padding), data range 1.

    Takes H x W grids or any stack of them, blurred as a free (stack, H, W, 1)
    view. Both inputs are shifted by the per-grid mean of x before the window
    moments are taken, so a flat target does not cancel blur(x^2) - blur(x)^2
    to float32 noise; the shift leaves variances and covariance unchanged
    because the blur rows sum to 1.
    """
    x, xhat = as_tensor(x), as_tensor(xhat)
    if x.shape != xhat.shape:
        raise ValueError(f"shape mismatch {x.shape} vs {xhat.shape}")
    if x.data.ndim < 2 or min(x.shape[-2:]) < SSIM_WINDOW:
        raise ValueError(f"grid {x.shape} smaller than SSIM window")
    h, w = x.shape[-2:]
    x, xhat = ad.reshape(x, (-1, h, w, 1)), ad.reshape(xhat, (-1, h, w, 1))
    bh, bw = _blur_matrix(h), _blur_matrix(w)
    m = x.data.mean(axis=(1, 2), keepdims=True, dtype=np.float64)
    shift = Tensor(np.broadcast_to(-m, x.shape))

    def blur(t):
        return ad.separable(t, bh, bw)

    xc, xhc = ad.add(x, shift), ad.add(xhat, shift)
    mu1c, mu2c = blur(xc), blur(xhc)
    var1 = ad.sub(blur(ad.square(xc)), ad.square(mu1c))
    var2 = ad.sub(blur(ad.square(xhc)), ad.square(mu2c))
    cov = ad.sub(blur(ad.mul(xc, xhc)), ad.mul(mu1c, mu2c))
    unshift = Tensor(np.broadcast_to(m, mu1c.shape))
    mu1, mu2 = ad.add(mu1c, unshift), ad.add(mu2c, unshift)
    num = ad.mul(ad.add_const(ad.scale(ad.mul(mu1, mu2), 2.0), SSIM_C1),
                 ad.add_const(ad.scale(cov, 2.0), SSIM_C2))
    den = ad.mul(ad.add_const(ad.add(ad.square(mu1), ad.square(mu2)), SSIM_C1),
                 ad.add_const(ad.add(var1, var2), SSIM_C2))
    return ad.reduce_mean(ad.div(num, den))


def ssim_loss(x, xhat):
    return ad.add_const(ad.scale(ssim(x, xhat), -1.0), 1.0)


def circular_loss_value(c, c_hat, s, s_hat):
    """Double-precision circular loss for plain arrays (evaluation path)."""
    c = np.asarray(c, np.float64)
    s = np.asarray(s, np.float64)
    dot = np.mean(c * np.asarray(c_hat, np.float64) + s * np.asarray(s_hat, np.float64))
    return float(1.0 - dot)


def circular_loss(c, c_hat, s, s_hat):
    """Mean of 1 - cos(delta phi), via the dot product of projected coordinates."""
    c, s = as_tensor(c), as_tensor(s)
    c_hat, s_hat = as_tensor(c_hat), as_tensor(s_hat)
    dot = ad.reduce_mean(ad.add(ad.mul(c, c_hat), ad.mul(s, s_hat)))
    return ad.add_const(ad.scale(dot, -1.0), 1.0)


def consistency_loss(c_hat, s_hat):
    """Mean of (c^2 + s^2 - 1)^2 on pre-projection outputs."""
    c_hat, s_hat = as_tensor(c_hat), as_tensor(s_hat)
    dev = ad.add_const(ad.add(ad.square(c_hat), ad.square(s_hat)), -1.0)
    return ad.reduce_mean(ad.square(dev))


def total_loss(a, a_hat, c, c_hat_pre, s, s_hat_pre, c_hat_proj, s_hat_proj,
               weights=None):
    """Full composite objective; returns (scalar Tensor, LossBreakdown)."""
    weights = weights or LossWeights()
    base = base_loss(a, a_hat, c, c_hat_pre, s, s_hat_pre)

    g_amp = grad_loss(a, a_hat)
    s_amp = ssim_loss(a, a_hat)
    amp = ad.add(ad.scale(g_amp, weights.lam_g), ad.scale(s_amp, weights.lam_s))

    g_ph = ad.add(grad_loss(c, c_hat_pre), grad_loss(s, s_hat_pre))
    s_ph = ad.add(ssim_loss(c, c_hat_pre), ssim_loss(s, s_hat_pre))
    circ = circular_loss(c, c_hat_proj, s, s_hat_proj)
    phase = ad.add(ad.add(ad.scale(g_ph, weights.lam_g), ad.scale(s_ph, weights.lam_s)),
                   ad.scale(circ, weights.lam_circ))

    cons = consistency_loss(c_hat_pre, s_hat_pre)
    total = ad.add(ad.add(ad.scale(base, weights.w_b), ad.scale(amp, weights.w_a)),
                   ad.add(ad.scale(phase, weights.w_p), ad.scale(cons, weights.w_c)))

    breakdown = LossBreakdown(
        base=base.item(), amp=amp.item(), phase=phase.item(), cons=cons.item(),
        circular=circ.item(), grad_amp=g_amp.item(), ssim_amp=s_amp.item(),
        grad_phase=g_ph.item(), ssim_phase=s_ph.item(), total=total.item())
    return total, breakdown
