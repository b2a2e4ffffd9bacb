"""Composite training objective: pixel fidelity, edge and structure terms,
circular geodesic loss, and unit-circle consistency.

Each term is one private float64 kernel that returns its value and a thunk for
its gradient in closed form. `total_loss` is one `autodiff.closed_form` node
over the five model heads: when a tape records it, it computes the terms one at
a time, adds each term's gradient into the heads' float64 arrays and drops the
term's intermediates, so the node keeps only those arrays; without a tape no
gradient is computed. `scalar_phase_loss` is one node over the scalar_phase
variant's two heads, built from the MSE kernel; `ssim` and `circular_loss` are
one node over one kernel each, whose thunk runs when a backward reaches it, and
`ssim_value` and `circular_loss_value` are kernel values for evaluation. SSIM is
written once (`_ssim`); its gradient is Wang & Simoncelli's (2008)."""

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
    """(x's data, xhat) for a constant x of xhat's shape, as float32 and a Tensor."""
    x, xhat = (v if isinstance(v, Tensor) else Tensor(v) for v in (x, xhat))
    if x.requires_grad:
        raise ValueError("the target takes no gradient")
    if x.shape != xhat.shape:
        raise ValueError(f"shape mismatch {x.shape} vs {xhat.shape}")
    return x.data, xhat


def _f64(*arrays):
    return [np.asarray(v, np.float64) for v in arrays]


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


def _blur_matrix(n):
    """((n - 10) x n) valid-mode blur by the normalised 1-D Gaussian window (11 taps).

    The 2-D window of Wang et al. is the outer product of this one, so the
    windowed mean of a grid X is B_h @ X @ B_w^T. Every row sums to 1. Built on
    each call, in microseconds, so no field-sized matrix outlives its SSIM.
    """
    half = SSIM_WINDOW // 2
    g = np.exp(-np.arange(-half, half + 1.0) ** 2 / (2.0 * SSIM_SIGMA ** 2))
    rows = np.arange(n - 2 * half)[:, None]
    b = np.zeros((n - 2 * half, n))
    b[rows, rows + np.arange(SSIM_WINDOW)] = g / g.sum()
    return b


def _blur(v, bh, bw):
    """bh @ v[m] @ bw.T for each grid of an (M, H, W) stack: a GEMM along W, then H."""
    m, h, w = v.shape
    return np.matmul(bh, (v.reshape(m * h, w) @ bw.T).reshape(m, h, -1))


def _ssim(x, y):
    """1 - mean SSIM of y against x over the valid 11x11 Gaussian windows (data
    range 1) of each H x W grid (Wang et al. 2004), as mean(((b1 - a1) b2 + a1
    (b2 - a2)) / (b1 b2)), precise near SSIM = 1: a1 = 2 mu_x mu_y + C1, a2 = 2
    cov + C2, b1 = mu_x^2 + mu_y^2 + C1, b2 = var_x + var_y + C2; y gradient in
    Wang & Simoncelli's (2008) closed form."""
    xs, ys = (v.reshape((-1,) + v.shape[-2:]) for v in (x, y))
    if xs.ndim != 3 or min(xs.shape[1:]) < SSIM_WINDOW:
        raise ValueError(f"need grids of at least the SSIM window, got {xs.shape}")
    bh, bw = _blur_matrix(xs.shape[1]), _blur_matrix(xs.shape[2])
    mu_x, mu_y = _blur(xs, bh, bw), _blur(ys, bh, bw)
    a1 = 2 * mu_x * mu_y + SSIM_C1
    a2 = 2 * (_blur(xs * ys, bh, bw) - mu_x * mu_y) + SSIM_C2
    b1 = mu_x ** 2 + mu_y ** 2 + SSIM_C1
    b2 = _blur(xs * xs, bh, bw) - mu_x ** 2 + _blur(ys * ys, bh, bw) - mu_y ** 2 + SSIM_C2
    den = b1 * b2

    def grad():
        # -(B^T a + x B^T b + y B^T c) / (number of windows), B^T the adjoint blur
        s, k, bht, bwt = a1 * a2 / den, -1.0 / a1.size, bh.T, bw.T
        g = _blur(k * (2 * mu_x * (a2 - a1) / den - 2 * mu_y * s * (1 / b1 - 1 / b2)), bht, bwt)
        g += xs * _blur(k * 2 * a1 / den, bht, bwt)  # summed in place: the same bits, one
        g += ys * _blur(k * -2 * s / b2, bht, bwt)   # grid-sized array fewer
        return (g.reshape(y.shape),)

    return np.mean(((b1 - a1) * b2 + a1 * (b2 - a2)) / den), grad


def ssim_value(x, xhat):
    """Double-precision mean SSIM of two 2-D grids (evaluation path)."""
    x, xhat = np.asarray(x, np.float64), np.asarray(xhat, np.float64)
    if x.shape != xhat.shape or x.ndim != 2:
        raise ValueError(f"need matching 2-D grids, got {x.shape} vs {xhat.shape}")
    return 1.0 - float(_ssim(x, xhat)[0])


def ssim(x, xhat):
    """The SSIM loss (`_ssim`) of H x W grids or a stack, as one tape node."""
    x, xhat = _pair(x, xhat)
    return ad.closed_form((xhat,), *_ssim(*_f64(x, xhat.data)))


def circular_loss(c, c_hat, s, s_hat):
    """The circular loss as one tape node over the projected (c_hat, s_hat)."""
    (c, c_hat), (s, s_hat) = _pair(c, c_hat), _pair(s, s_hat)
    return ad.closed_form((c_hat, s_hat), *_circular(*_f64(c, c_hat.data, s, s_hat.data)))


def scalar_phase_loss(a, a_hat, phi, phi_hat):
    """The scalar_phase variant's objective, the MSE of a_hat plus that of the raw
    angle phi_hat, as one tape node over the two heads; returns (scalar Tensor,
    LossBreakdown) with the sum as base and total and every other field 0."""
    (a, a_hat), (phi, phi_hat) = _pair(a, a_hat), _pair(phi, phi_hat)
    v_amp, g_amp = _mse(*_f64(a, a_hat.data))
    v_phase, g_phase = _mse(*_f64(phi, phi_hat.data))
    total = float(v_amp + v_phase)
    return (ad.closed_form((a_hat, phi_hat), total, lambda: g_amp() + g_phase()),
            LossBreakdown(total, *[0.0] * 8, total))


def circular_loss_value(c, c_hat, s, s_hat):
    """The circular loss of plain arrays, in float64 (evaluation path)."""
    return float(_circular(*_f64(c, c_hat, s, s_hat))[0])


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
    heads = tuple(y for _, y in pairs)
    (a, ah), (c, cp), (s, sp), (_, cj), (_, sj) = [(x, y.data) for x, y in pairs]
    chan_w = (w.w_a, w.w_p, w.w_p)  # the amplitude term, then the phase term twice
    per_head = list(enumerate(zip(chan_w, ((a, ah), (c, cp), (s, sp)))))
    # (weight, heads, kernel, arguments), in the order the gradients are summed
    terms = ([(w.w_b, (i,), _mse, xy) for i, (_, xy) in per_head]
             + [(k * w.lam_g, (i,), _grad_l1, xy) for i, (k, xy) in per_head]
             + [(k * w.lam_s, (i,), _ssim, xy) for i, (k, xy) in per_head]
             + [(w.w_p * w.lam_circ, (3, 4), _circular, (c, cj, s, sj)),
                (w.w_c, (1, 2), _consistency, (cp, sp))])
    # On a tape, each term's gradient is added into its heads' float64 arrays as
    # soon as the term is computed, so no term's intermediates outlive it. The
    # inputs are converted per term and a head's array is made at its first term,
    # so the working set beside the tape is about one term's.
    grads = [None] * len(heads) if ad.Tape.records(heads) else None
    values = []
    for k, idx, kernel, args in terms:
        value, thunk = kernel(*_f64(*args))
        values.append(value)
        if grads is not None:
            for i, g in zip(idx, thunk()):
                if grads[i] is None:
                    grads[i] = np.zeros(g.shape)
                grads[i] += k * g
        del thunk
    mses, l1s, ssims = values[:3], values[3:6], values[6:9]
    v_circ, v_cons = float(values[9]), float(values[10])
    base, g_ph, s_ph = (float(sum(rs)) for rs in (mses, l1s[1:], ssims[1:]))
    g_amp, s_amp = float(l1s[0]), float(ssims[0])
    amp = w.lam_g * g_amp + w.lam_s * s_amp
    phase = w.lam_g * g_ph + w.lam_s * s_ph + w.lam_circ * v_circ
    total = w.w_b * base + w.w_a * amp + w.w_p * phase + w.w_c * v_cons
    return ad.closed_form(heads, total, lambda: grads), LossBreakdown(
        base, amp, phase, v_cons, v_circ, g_amp, s_amp, g_ph, s_ph, total)
