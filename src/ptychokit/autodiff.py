"""Reverse-mode autodiff over dense float32 arrays.

Storage is float32. `reduce_mean` and the conv2d bias gradient accumulate in
float64; the convolution and `separable` products run as float32 einsum/GEMM
calls. No broadcasting beyond bias-add over channels.
"""

import numpy as np


class NonFiniteError(RuntimeError):
    """Raised when a forward op produces NaN or Inf."""


class Tensor:
    """Dense real array, optionally tracked for gradients."""

    def __init__(self, data, requires_grad=False):
        self.data = np.ascontiguousarray(data, dtype=np.float32)
        self.requires_grad = bool(requires_grad)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def zero_grad(self):
        self.grad = None

    def item(self):
        return float(self.data.item())

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered op record; creation order is topological by construction."""

    _active = None

    def __init__(self):
        self.nodes = []
        self._prev = None

    def __enter__(self):
        self._prev = Tape._active
        Tape._active = self
        return self

    def __exit__(self, *exc):
        Tape._active = self._prev
        return False


def _accum(t, g):
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.asarray(g, dtype=np.float32).copy()
    else:
        t.grad += np.asarray(g, dtype=np.float32)


def _make(out_data, inputs, backward, name):
    out_data = np.asarray(out_data)
    if not np.all(np.isfinite(out_data)):
        raise NonFiniteError(f"non-finite values produced by op '{name}'")
    out = Tensor(out_data, requires_grad=any(t.requires_grad for t in inputs))
    tape = Tape._active
    if tape is not None and out.requires_grad:
        tape.nodes.append((out, backward))
    return out


def backward(tape, loss):
    """Populate .grad on every requires_grad tensor reachable from loss."""
    if loss.data.size != 1:
        raise ValueError("backward expects a scalar loss")
    loss.grad = np.ones_like(loss.data)
    for out, fn in reversed(tape.nodes):
        if out.grad is not None:
            fn(out.grad)


# ---------------------------------------------------------------------------
# elementwise ops

def add(a, b):
    out = a.data + b.data

    def bwd(g):
        _accum(a, g)
        _accum(b, g)

    return _make(out, (a, b), bwd, "add")


def sub(a, b):
    out = a.data - b.data

    def bwd(g):
        _accum(a, g)
        _accum(b, -g)

    return _make(out, (a, b), bwd, "sub")


def mul(a, b):
    out = a.data * b.data

    def bwd(g):
        _accum(a, g * b.data)
        _accum(b, g * a.data)

    return _make(out, (a, b), bwd, "mul")


def div(a, b):
    with np.errstate(divide="ignore", invalid="ignore"):
        out = a.data / b.data  # non-finite results rejected in _make

    def bwd(g):
        _accum(a, g / b.data)
        _accum(b, -g * a.data / (b.data * b.data))

    return _make(out, (a, b), bwd, "div")


def scale(a, k):
    k = float(k)
    out = a.data * k

    def bwd(g):
        _accum(a, g * k)

    return _make(out, (a,), bwd, "scale")


def add_const(a, k):
    out = a.data + float(k)

    def bwd(g):
        _accum(a, g)

    return _make(out, (a,), bwd, "add_const")


def square(a):
    out = a.data * a.data

    def bwd(g):
        _accum(a, g * (2.0 * a.data))

    return _make(out, (a,), bwd, "square")


def sqrt_eps(a, eps=1e-8):
    out = np.sqrt(a.data + eps)

    def bwd(g):
        _accum(a, g * (0.5 / out))

    return _make(out, (a,), bwd, "sqrt_eps")


def relu(a):
    mask = a.data > 0  # subgradient 0 at x == 0
    out = a.data * mask

    def bwd(g):
        _accum(a, g * mask)

    return _make(out, (a,), bwd, "relu")


def tanh(a):
    out = np.tanh(a.data)

    def bwd(g):
        _accum(a, g * (1.0 - out * out))

    return _make(out, (a,), bwd, "tanh")


def sigmoid(a):
    out = (1.0 / (1.0 + np.exp(-a.data.astype(np.float64)))).astype(np.float32)

    def bwd(g):
        _accum(a, g * out * (1.0 - out))

    return _make(out, (a,), bwd, "sigmoid")


def abs_(a):
    sign = np.sign(a.data)
    out = np.abs(a.data)

    def bwd(g):
        _accum(a, g * sign)

    return _make(out, (a,), bwd, "abs")


# ---------------------------------------------------------------------------
# structural ops

def _as_nchw(x):
    if x.ndim == 3:
        return x[None], True
    if x.ndim == 4:
        return x, False
    raise ValueError(f"expected CxHxW or NxCxHxW, got shape {x.shape}")


def concat_channels(a, b):
    xa, squeezed_a = _as_nchw(a.data)
    xb, squeezed_b = _as_nchw(b.data)
    if squeezed_a != squeezed_b or xa.shape[2:] != xb.shape[2:] or xa.shape[0] != xb.shape[0]:
        raise ValueError(f"spatial/batch mismatch {a.shape} vs {b.shape}")
    c1 = xa.shape[1]
    out = np.concatenate([xa, xb], axis=1)
    if squeezed_a:
        out = out[0]

    def bwd(g):
        g4, _ = _as_nchw(g)
        ga, gb = g4[:, :c1], g4[:, c1:]
        if squeezed_a:
            ga, gb = ga[0], gb[0]
        _accum(a, ga)
        _accum(b, gb)

    return _make(out, (a, b), bwd, "concat_channels")


def reduce_mean(x):
    if x.data.size == 0:
        raise ValueError("reduce_mean of empty tensor")
    n = x.data.size
    out = np.asarray(x.data.mean(dtype=np.float64), dtype=np.float32)

    def bwd(g):
        _accum(x, np.full_like(x.data, float(np.asarray(g).item()) / n))

    return _make(out, (x,), bwd, "reduce_mean")


def diff_h(x):
    """Forward difference along the last axis (horizontal gradient)."""
    if x.data.shape[-1] < 2:
        raise ValueError("diff_h needs W >= 2")
    out = x.data[..., 1:] - x.data[..., :-1]

    def bwd(g):
        gx = np.zeros_like(x.data)
        gx[..., 1:] += g
        gx[..., :-1] -= g
        _accum(x, gx)

    return _make(out, (x,), bwd, "diff_h")


def diff_v(x):
    """Forward difference along the second-to-last axis (vertical gradient)."""
    if x.data.shape[-2] < 2:
        raise ValueError("diff_v needs H >= 2")
    out = x.data[..., 1:, :] - x.data[..., :-1, :]

    def bwd(g):
        gx = np.zeros_like(x.data)
        gx[..., 1:, :] += g
        gx[..., :-1, :] -= g
        _accum(x, gx)

    return _make(out, (x,), bwd, "diff_v")


# ---------------------------------------------------------------------------
# conv / separable maps

def _gather_cols(xp, k, stride):
    """Strided (N, C, Ho, Wo, k, k) window view of a padded input; no copy."""
    win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
    return win[:, :, ::stride, ::stride]


def conv2d(x, w, b=None, stride=1, padding=0):
    """Direct cross-correlation (no kernel flip), zero padding."""
    x4, squeezed = _as_nchw(x.data)
    if w.data.ndim != 4 or w.data.shape[2] != w.data.shape[3]:
        raise ValueError(f"weight must be Cout x Cin x k x k, got {w.shape}")
    cout, cin, k, _ = w.data.shape
    if x4.shape[1] != cin:
        raise ValueError(f"input channels {x4.shape[1]} != weight Cin {cin}")
    if b is not None and b.data.shape != (cout,):
        raise ValueError(f"bias shape {b.shape} != ({cout},)")
    n, _, h, wd = x4.shape
    ho = (h + 2 * padding - k) // stride + 1
    wo = (wd + 2 * padding - k) // stride + 1
    if ho < 1 or wo < 1:
        raise ValueError("kernel larger than padded input")

    xp = np.pad(x4, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols = _gather_cols(xp, k, stride)
    out = np.einsum("nchwij,ocij->nohw", cols, w.data, optimize=True)
    if b is not None:
        out += b.data[None, :, None, None]
    if squeezed:
        out = out[0]
    inputs = (x, w) if b is None else (x, w, b)

    def bwd(g):
        g4, _ = _as_nchw(np.asarray(g, dtype=np.float32))
        cols2 = _gather_cols(xp, k, stride)
        dw = np.einsum("nohw,nchwij->ocij", g4, cols2, optimize=True)
        _accum(w, dw)
        if b is not None:
            _accum(b, g4.sum(axis=(0, 2, 3), dtype=np.float64))
        dcols = np.einsum("nohw,ocij->ncijhw", g4, w.data, optimize=True)
        dxp = np.zeros_like(xp)
        for i in range(k):
            for j in range(k):
                dxp[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride] += dcols[:, :, i, j]
        dx = dxp[:, :, padding:padding + h, padding:padding + wd]
        if squeezed:
            dx = dx[0]
        _accum(x, dx)

    return _make(out, inputs, bwd, "conv2d")


_UP_CACHE = {}


def _upsample_matrix(n):
    """(2n x n) bilinear matrix: src = (dst + 0.5)/2 - 0.5, clamped."""
    if n not in _UP_CACHE:
        u = np.zeros((2 * n, n), dtype=np.float32)
        for d in range(2 * n):
            s = np.clip((d + 0.5) / 2.0 - 0.5, 0.0, n - 1.0)
            i0 = int(np.floor(s))
            i1 = min(i0 + 1, n - 1)
            w = s - i0
            u[d, i0] += 1.0 - w
            u[d, i1] += w
        _UP_CACHE[n] = u
    return _UP_CACHE[n]


def separable(x, a, b):
    """A @ X @ B^T over the last two axes of x, for constant matrices a and b.

    One op for every separable linear map of a grid: bilinear upsampling and
    the valid-mode Gaussian blur of SSIM. The backward is A^T @ G @ B.
    """
    a = np.asarray(a, dtype=np.float32)
    b = np.asarray(b, dtype=np.float32)
    if a.ndim != 2 or b.ndim != 2 or x.data.shape[-2:] != (a.shape[1], b.shape[1]):
        raise ValueError(f"matrices {a.shape}, {b.shape} do not fit grids {x.shape}")
    out = np.matmul(np.matmul(a, x.data), b.T)

    def bwd(g):
        _accum(x, np.matmul(np.matmul(a.T, g), b))

    return _make(out, (x,), bwd, "separable")


def upsample_bilinear2x(x):
    return separable(x, _upsample_matrix(x.shape[-2]), _upsample_matrix(x.shape[-1]))


# ---------------------------------------------------------------------------
# gradient verification

def finite_diff_check(f, x, step=1e-3, indices=None):
    """Max relative error between analytic grad of f at x and central differences.

    f must be scalar-valued and deterministic; relative error uses
    max(1, |analytic|) in the denominator.
    """
    x.zero_grad()
    with Tape() as tape:
        y = f(x)
        backward(tape, y)
    if x.grad is None:
        raise ValueError("f does not depend on x")
    analytic = x.grad.astype(np.float64).ravel().copy()

    flat = x.data.ravel()
    if indices is None:
        indices = range(flat.size)
    worst = 0.0
    for idx in indices:
        orig = flat[idx]
        flat[idx] = orig + step
        fp = f(x).item()
        flat[idx] = orig - step
        fm = f(x).item()
        flat[idx] = orig
        numeric = (fp - fm) / (2.0 * step)
        err = abs(analytic[idx] - numeric) / max(1.0, abs(analytic[idx]))
        worst = max(worst, err)
    return worst
