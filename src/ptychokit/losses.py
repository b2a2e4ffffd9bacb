"""Composite training objective: pixel fidelity, edge and structure terms,
circular geodesic loss, and unit-circle consistency.

Each term is one private float64 kernel that returns its value and a thunk for
its gradient in closed form, run only when a backward reaches the node.
`total_loss` is one `autodiff.scalar_op` node over the five model heads;
`mse`, `ssim` and `circular_loss` are one node over one kernel each, and
`ssim_value` and `circular_loss_value` are kernel values for evaluation. SSIM
is written once (`_ssim_terms`); its gradient is Wang & Simoncelli's (2008)."""

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


def _pair(x, xhat):
    """(x, xhat, xhat's data) for a constant x of xhat's shape, x and the data float64."""
    x, xhat = (v if isinstance(v, Tensor) else Tensor(v) for v in (x, xhat))
    if x.requires_grad:
        raise ValueError("the target takes no gradient")
    if x.shape != xhat.shape:
        raise ValueError(f"shape mismatch {x.shape} vs {xhat.shape}")
    return x.data.astype(np.float64), xhat, xhat.data.astype(np.float64)


# Kernels: float64 arrays in, (value, thunk) out; the thunk gives the gradient
# with respect to each prediction argument.

def _mse(x, y):
    """Mean (y - x)^2; y gradient 2(y - x)/n."""
    d = y - x
    return np.mean(d * d), lambda: (d * (2.0 / d.size),)


def _grad_l1(x, y):
    """Mean |forward difference| of y - x along W plus along H; the y gradient is
    the adjoint of the differences applied to their signs (subgradient 0 at 0)."""
    dh, dv = np.diff(y - x, axis=-1), np.diff(y - x, axis=-2)

    def grad():  # the adjoint of a forward difference: minus that of the zero-padded input
        return (-np.diff(np.sign(dh) / dh.size, axis=-1, prepend=0, append=0)
                - np.diff(np.sign(dv) / dv.size, axis=-2, prepend=0, append=0),)

    return np.mean(np.abs(dh)) + np.mean(np.abs(dv)), grad


def _circular(c, c_hat, s, s_hat):
    """1 - mean(c c_hat + s s_hat), the mean of 1 - cos(delta phi) on the unit
    circle; (c_hat, s_hat) gradient (-c/n, -s/n)."""
    return 1.0 - np.mean(c * c_hat + s * s_hat), lambda: (c / -c.size, s / -s.size)


def _consistency(c, s):
    """Mean (c^2 + s^2 - 1)^2; (c, s) gradient 4(c^2 + s^2 - 1)(c, s)/n."""
    dev = c * c + s * s - 1.0
    return np.mean(dev * dev), lambda: (dev * c * (4.0 / dev.size), dev * s * (4.0 / dev.size))


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
    if x.ndim != 3 or min(x.shape[1:]) < SSIM_WINDOW:
        raise ValueError(f"need grids of at least the SSIM window, got {x.shape}")
    bh, bw = _blur_matrix(x.shape[1]), _blur_matrix(x.shape[2])
    mu_x, mu_y = _blur(x, bh, bw), _blur(y, bh, bw)
    a1 = 2 * mu_x * mu_y + SSIM_C1
    a2 = 2 * (_blur(x * y, bh, bw) - mu_x * mu_y) + SSIM_C2
    b1 = mu_x ** 2 + mu_y ** 2 + SSIM_C1
    b2 = _blur(x * x, bh, bw) - mu_x ** 2 + _blur(y * y, bh, bw) - mu_y ** 2 + SSIM_C2
    return mu_x, mu_y, a1, a2, b1, b2


def _ssim(x, y):
    """1 - mean SSIM of y against x over the valid 11x11 Gaussian windows (data
    range 1) of each H x W grid, as mean(((b1 - a1) b2 + a1 (b2 - a2)) / (b1 b2)),
    precise near SSIM = 1; y gradient in Wang & Simoncelli's (2008) closed form."""
    xs, ys = (v.reshape((-1,) + v.shape[-2:]) for v in (x, y))
    mu_x, mu_y, a1, a2, b1, b2 = _ssim_terms(xs, ys)
    den = b1 * b2

    def grad():
        # -(B^T a + x B^T b + y B^T c) / (number of windows), B^T the adjoint blur
        s, k = a1 * a2 / den, -1.0 / a1.size
        a = k * (2 * mu_x * (a2 - a1) / den - 2 * mu_y * s * (1 / b1 - 1 / b2))
        bh, bw = _blur_matrix(xs.shape[1]).T, _blur_matrix(xs.shape[2]).T
        g = (_blur(a, bh, bw) + xs * _blur(k * 2 * a1 / den, bh, bw)
             + ys * _blur(k * -2 * s / b2, bh, bw))
        return (g.reshape(y.shape),)

    return np.mean(((b1 - a1) * b2 + a1 * (b2 - a2)) / den), grad


def ssim_value(x, xhat):
    """Double-precision mean SSIM of two 2-D grids (evaluation path)."""
    x, xhat = np.asarray(x, np.float64), np.asarray(xhat, np.float64)
    if x.shape != xhat.shape or x.ndim != 2:
        raise ValueError(f"need matching 2-D grids, got {x.shape} vs {xhat.shape}")
    return 1.0 - float(_ssim(x, xhat)[0])


def mse(x, xhat):
    """Mean squared error of xhat against the constant x, as one tape node."""
    x, xhat, y = _pair(x, xhat)
    return ad.scalar_op((xhat,), *_mse(x, y))


def ssim(x, xhat):
    """The SSIM loss (`_ssim`) of H x W grids or a stack, as one tape node."""
    x, xhat, y = _pair(x, xhat)
    return ad.scalar_op((xhat,), *_ssim(x, y))


def circular_loss(c, c_hat, s, s_hat):
    """The circular loss as one tape node over the projected (c_hat, s_hat)."""
    (c, c_hat, ch), (s, s_hat, sh) = _pair(c, c_hat), _pair(s, s_hat)
    return ad.scalar_op((c_hat, s_hat), *_circular(c, ch, s, sh))


def circular_loss_value(c, c_hat, s, s_hat):
    """The circular loss of plain arrays, in float64 (evaluation path)."""
    return float(_circular(*(np.asarray(v, np.float64) for v in (c, c_hat, s, s_hat)))[0])


def total_loss(a, a_hat, c, c_hat_pre, s, s_hat_pre, c_hat_proj, s_hat_proj,
               weights=None):
    """The composite objective as one tape node over the five heads (a_hat,
    c_hat_pre, s_hat_pre, c_hat_proj, s_hat_proj), every term in float64;
    returns (scalar Tensor, LossBreakdown). total = w_b base + w_a amp + w_p phase
    + w_c cons, with base the MSEs of a_hat, c_hat_pre and s_hat_pre, amp =
    lam_g grad_amp + lam_s ssim_amp and phase = lam_g grad_phase + lam_s
    ssim_phase + lam_circ circular."""
    w = weights or LossWeights()
    pairs = [_pair(x, y) for x, y in ((a, a_hat), (c, c_hat_pre), (s, s_hat_pre),
                                      (c, c_hat_proj), (s, s_hat_proj))]
    heads = tuple(p[1] for p in pairs)
    (a, _, ah), (c, _, cp), (s, _, sp), (_, _, cj), (_, _, sj) = pairs
    ssims, grads, mses = ([f(x, y) for x, y in ((a, ah), (c, cp), (s, sp))]
                          for f in (_ssim, _grad_l1, _mse))
    circ, cons = _circular(c, cj, s, sj), _consistency(cp, sp)
    chan_w = (w.w_a, w.w_p, w.w_p)  # the amplitude term, then the phase term twice
    terms = ([(w.w_b, (i,), m) for i, m in enumerate(mses)]  # (weight, heads, kernel)
             + [(k * w.lam_g, (i,), g) for i, (k, g) in enumerate(zip(chan_w, grads))]
             + [(k * w.lam_s, (i,), r) for i, (k, r) in enumerate(zip(chan_w, ssims))]
             + [(w.w_p * w.lam_circ, (3, 4), circ), (w.w_c, (1, 2), cons)])

    def grad():
        out = [np.zeros(h.shape) for h in heads]
        for k, idx, (_, thunk) in terms:
            for i, g in zip(idx, thunk()):
                out[i] += k * g
        return out

    base, g_ph, s_ph = (float(sum(r[0] for r in rs)) for rs in (mses, grads[1:], ssims[1:]))
    g_amp, s_amp, v_circ, v_cons = (float(r[0]) for r in (grads[0], ssims[0], circ, cons))
    amp = w.lam_g * g_amp + w.lam_s * s_amp
    phase = w.lam_g * g_ph + w.lam_s * s_ph + w.lam_circ * v_circ
    total = w.w_b * base + w.w_a * amp + w.w_p * phase + w.w_c * v_cons
    return ad.scalar_op(heads, total, grad), LossBreakdown(
        base, amp, phase, v_cons, v_circ, g_amp, s_amp, g_ph, s_ph, total)
