"""Composite training objective: pixel fidelity, edge and structure terms,
circular geodesic loss, and unit-circle consistency. All terms are
differentiable through the autodiff module.

SSIM is written once, in float64 (`_ssim_terms`): `ssim_value` scores one
grid for evaluation; the training term `ssim`, 1 - mean SSIM of a stack, is
one `autodiff.scalar_op` node with a closed-form gradient."""

import functools
import math
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
            if not 0 <= getattr(self, name) < math.inf:  # False for NaN too
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")


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


@functools.cache
def _blur_matrix(n):
    """((n - 10) x n) valid-mode blur by the normalised 1-D Gaussian window (11 taps).

    The 2-D window of Wang et al. is the outer product of this one, so the
    windowed mean of a grid X is B_h @ X @ B_w^T. Every row sums to 1.
    """
    half = SSIM_WINDOW // 2
    g = np.exp(-np.arange(-half, half + 1.0) ** 2 / (2.0 * SSIM_SIGMA ** 2))
    b = np.zeros((n - 2 * half, n))
    for i in range(n - 2 * half):
        b[i, i:i + SSIM_WINDOW] = g / g.sum()
    return b


def _blur(v, bh, bw):
    """bh @ v[m] @ bw.T for each grid of an (M, H, W) stack: a GEMM along W, then H."""
    m, h, w = v.shape
    return np.matmul(bh, (v.reshape(m * h, w) @ bw.T).reshape(m, h, -1))


def _ssim_terms(x, y):
    """SSIM of two (M, H, W) float64 stacks over the valid windows (Wang et al.
    2004) as (mu_x, mu_y, a1, a2, b1, b2), SSIM = a1 a2 / (b1 b2): a1 = 2 mu_x
    mu_y + C1, a2 = 2 cov + C2, b1 = mu_x^2 + mu_y^2 + C1, b2 = var_x + var_y + C2."""
    if min(x.shape[1:]) < SSIM_WINDOW:
        raise ValueError(f"grid {x.shape[1:]} smaller than SSIM window")
    bh, bw = _blur_matrix(x.shape[1]), _blur_matrix(x.shape[2])
    mu_x, mu_y = _blur(x, bh, bw), _blur(y, bh, bw)
    a1 = 2 * mu_x * mu_y + SSIM_C1
    a2 = 2 * (_blur(x * y, bh, bw) - mu_x * mu_y) + SSIM_C2
    b1 = mu_x ** 2 + mu_y ** 2 + SSIM_C1
    b2 = _blur(x * x, bh, bw) - mu_x ** 2 + _blur(y * y, bh, bw) - mu_y ** 2 + SSIM_C2
    return mu_x, mu_y, a1, a2, b1, b2


def ssim_value(x, xhat):
    """Double-precision mean SSIM of two 2-D grids (evaluation path)."""
    x, xhat = np.asarray(x, np.float64), np.asarray(xhat, np.float64)
    if x.shape != xhat.shape or x.ndim != 2:
        raise ValueError(f"need matching 2-D grids, got {x.shape} vs {xhat.shape}")
    _, _, a1, a2, b1, b2 = _ssim_terms(x[None], xhat[None])
    return float(np.mean(a1 * a2 / (b1 * b2)))


def ssim(x, xhat):
    """SSIM loss as one tape node: 1 - mean SSIM over valid 11x11 Gaussian windows
    (data range 1) of H x W grids or a stack, in float64 as mean(((b1 - a1) b2 +
    a1 (b2 - a2)) / (b1 b2)), precise near SSIM = 1. The target x is constant; the
    xhat gradient is Wang & Simoncelli's (2008) closed form, taken in the backward."""
    x, xhat = as_tensor(x), as_tensor(xhat)
    if x.requires_grad:
        raise ValueError("ssim takes a constant target x")
    if x.shape != xhat.shape or x.data.ndim < 2:
        raise ValueError(f"need matching grids, got {x.shape} vs {xhat.shape}")
    xs, ys = (t.data.reshape((-1,) + x.shape[-2:]).astype(np.float64) for t in (x, xhat))
    mu_x, mu_y, a1, a2, b1, b2 = _ssim_terms(xs, ys)
    den = b1 * b2

    def grad():
        # -(B^T a + x B^T b + xhat B^T c) / (number of windows), B^T the adjoint blur
        s, k = a1 * a2 / den, -1.0 / a1.size
        a = k * (2 * mu_x * (a2 - a1) / den - 2 * mu_y * s * (1 / b1 - 1 / b2))
        bh, bw = _blur_matrix(x.shape[-2]).T, _blur_matrix(x.shape[-1]).T
        g = (_blur(a, bh, bw) + xs * _blur(k * 2 * a1 / den, bh, bw)
             + ys * _blur(k * -2 * s / b2, bh, bw))
        return g.reshape(xhat.shape)

    return ad.scalar_op(xhat, np.mean(((b1 - a1) * b2 + a1 * (b2 - a2)) / den), grad)


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
    s_amp = ssim(a, a_hat)
    amp = ad.add(ad.scale(g_amp, weights.lam_g), ad.scale(s_amp, weights.lam_s))

    g_ph = ad.add(grad_loss(c, c_hat_pre), grad_loss(s, s_hat_pre))
    s_ph = ad.add(ssim(c, c_hat_pre), ssim(s, s_hat_pre))
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
