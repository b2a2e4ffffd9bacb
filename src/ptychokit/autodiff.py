"""Reverse-mode autodiff over dense float32 arrays.

Storage is float32. `reduce_mean` and the conv2d bias gradient accumulate in
float64. A convolution's forward, weight gradient and input gradient are one
float32 GEMM each, with the k*k kernel taps shifted on whichever side, input
or output, has fewer channels; `separable` runs as two float32 matrix products.
Forward results must be finite (`NonFiniteError`). No broadcasting beyond
bias-add over channels.
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


# Every op computes its forward under this: _make rejects non-finite outputs,
# so numpy's overflow and invalid-value warnings would only precede that error.
_quiet = np.errstate(over="ignore", invalid="ignore", divide="ignore")


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

@_quiet
def add(a, b):
    out = a.data + b.data

    def bwd(g):
        _accum(a, g)
        _accum(b, g)

    return _make(out, (a, b), bwd, "add")


@_quiet
def sub(a, b):
    out = a.data - b.data

    def bwd(g):
        _accum(a, g)
        _accum(b, -g)

    return _make(out, (a, b), bwd, "sub")


@_quiet
def mul(a, b):
    out = a.data * b.data

    def bwd(g):
        _accum(a, g * b.data)
        _accum(b, g * a.data)

    return _make(out, (a, b), bwd, "mul")


@_quiet
def div(a, b):
    out = a.data / b.data

    def bwd(g):
        _accum(a, g / b.data)
        _accum(b, -g * a.data / (b.data * b.data))

    return _make(out, (a, b), bwd, "div")


@_quiet
def scale(a, k):
    k = float(k)
    out = a.data * k

    def bwd(g):
        _accum(a, g * k)

    return _make(out, (a,), bwd, "scale")


@_quiet
def add_const(a, k):
    out = a.data + float(k)

    def bwd(g):
        _accum(a, g)

    return _make(out, (a,), bwd, "add_const")


@_quiet
def square(a):
    out = a.data * a.data

    def bwd(g):
        _accum(a, g * (2.0 * a.data))

    return _make(out, (a,), bwd, "square")


@_quiet
def sqrt_eps(a, eps=1e-8):
    out = np.sqrt(a.data + eps)

    def bwd(g):
        _accum(a, g * (0.5 / out))

    return _make(out, (a,), bwd, "sqrt_eps")


@_quiet
def relu(a):
    mask = a.data > 0  # subgradient 0 at x == 0
    out = a.data * mask

    def bwd(g):
        _accum(a, g * mask)

    return _make(out, (a,), bwd, "relu")


@_quiet
def tanh(a):
    out = np.tanh(a.data)

    def bwd(g):
        _accum(a, g * (1.0 - out * out))

    return _make(out, (a,), bwd, "tanh")


@_quiet
def sigmoid(a):
    out = (1.0 / (1.0 + np.exp(-a.data.astype(np.float64)))).astype(np.float32)

    def bwd(g):
        _accum(a, g * out * (1.0 - out))

    return _make(out, (a,), bwd, "sigmoid")


@_quiet
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


@_quiet
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


@_quiet
def reduce_mean(x):
    if x.data.size == 0:
        raise ValueError("reduce_mean of empty tensor")
    n = x.data.size
    out = np.asarray(x.data.mean(dtype=np.float64), dtype=np.float32)

    def bwd(g):
        _accum(x, np.full_like(x.data, float(np.asarray(g).item()) / n))

    return _make(out, (x,), bwd, "reduce_mean")


@_quiet
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


@_quiet
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

def _conv_cols(xp, k, stride, ho, wo):
    """(C*k*k, Ho*Wo*N) im2col columns, rows ordered (c, i, j), of a padded
    (C, Hp, Wp, N) input. Batch innermost keeps each tap's strided copy in
    contiguous runs of N values."""
    c, n = xp.shape[0], xp.shape[3]
    cols = np.empty((c, k, k, ho, wo, n), np.float32)
    for i in range(k):
        for j in range(k):
            cols[:, i, j] = xp[:, i:i + stride * ho:stride, j:j + stride * wo:stride]
    return cols.reshape(c * k * k, -1)


def _conv_input_side(x4, w, stride, padding, ho, wo):
    """Taps gathered on the input side: Y = Wm @ cols, dW = G @ cols^T and
    dcols = Wm^T @ G, scattered back by k*k strided adds."""
    n, cin, h, wd = x4.shape
    cout, _, k, _ = w.shape
    xp = np.zeros((cin, h + 2 * padding, wd + 2 * padding, n), np.float32)
    xp[:, padding:padding + h, padding:padding + wd] = x4.transpose(1, 2, 3, 0)
    wm = w.reshape(cout, -1)
    y = wm @ _conv_cols(xp, k, stride, ho, wo)
    out = y.reshape(cout, ho, wo, n).transpose(3, 0, 1, 2)

    def grads(g4):
        gm = np.ascontiguousarray(g4.transpose(1, 2, 3, 0)).reshape(cout, -1)
        dw = (gm @ _conv_cols(xp, k, stride, ho, wo).T).reshape(w.shape)
        dcols = (wm.T @ gm).reshape(cin, k, k, ho, wo, n)
        dxp = np.zeros_like(xp)
        for i in range(k):
            for j in range(k):
                dxp[:, i:i + stride * ho:stride, j:j + stride * wo:stride] += dcols[:, i, j]
        dx = dxp[:, padding:padding + h, padding:padding + wd]
        return dx.transpose(3, 0, 1, 2), dw

    return out, grads


def _conv_output_side(x4, w, padding, ho, wo):
    """Stride 1, taps shifted on the output side: Z = Ws @ X, and Y is the sum
    of Z's k*k row blocks, each shifted by its tap offset. The backward shifts
    G once into Gs; dX = Ws^T @ Gs and dWs = Gs @ X^T."""
    n, cin, h, wd = x4.shape
    cout, _, k, _ = w.shape
    hp, wp = h + 2 * padding, wd + 2 * padding
    # (C, N, Hp, Wp): the transposes from and to NCHW move whole images
    xp = np.zeros((cin, n, hp, wp), np.float32)
    xp[:, :, padding:padding + h, padding:padding + wd] = x4.transpose(1, 0, 2, 3)
    xm = xp.reshape(cin, -1)
    size = xm.shape[1]
    # Tap (i, j) reads i*Wp + j further along the flattened grids. Shifts cross
    # into the next row or image only at positions outside the Ho x Wo output.
    offsets = [i * wp + j for i in range(k) for j in range(k)]
    valid = size - offsets[-1]
    ws = w.transpose(2, 3, 0, 1).reshape(k * k * cout, cin)
    z = (ws @ xm).reshape(k * k, cout, size)
    y = z[0]
    for t in range(1, k * k):
        y[:, :valid] += z[t, :, offsets[t]:offsets[t] + valid]
    out = y.reshape(cout, n, hp, wp)[:, :, :ho, :wo].transpose(1, 0, 2, 3)

    def grads(g4):
        gp = np.zeros((cout, n, hp, wp), np.float32)
        gp[:, :, :ho, :wo] = g4.transpose(1, 0, 2, 3)
        gm = gp.reshape(cout, size)
        gs = np.zeros((k * k, cout, size), np.float32)
        for t, off in enumerate(offsets):
            gs[t, :, off:] = gm[:, :size - off]
        gs = gs.reshape(k * k * cout, size)
        dx = (ws.T @ gs).reshape(cin, n, hp, wp)[:, :, padding:padding + h, padding:padding + wd]
        dw = (gs @ xm.T).reshape(k, k, cout, cin).transpose(2, 3, 0, 1)
        return dx.transpose(1, 0, 2, 3), dw

    return out, grads


@_quiet
def conv2d(x, w, b=None, stride=1, padding=0):
    """Direct cross-correlation (no kernel flip), zero padding.

    Forward, dW and dX are one GEMM each. The k*k taps are shifted on the
    side with fewer channels: the output side for stride-1 convs with
    C_out < C_in, the input side otherwise (measured faster at C_out == C_in).
    """
    x4, squeezed = _as_nchw(x.data)
    if w.data.ndim != 4 or w.data.shape[2] != w.data.shape[3]:
        raise ValueError(f"weight must be Cout x Cin x k x k, got {w.shape}")
    cout, cin, k, _ = w.data.shape
    if x4.shape[1] != cin:
        raise ValueError(f"input channels {x4.shape[1]} != weight Cin {cin}")
    if b is not None and b.data.shape != (cout,):
        raise ValueError(f"bias shape {b.shape} != ({cout},)")
    _, _, h, wd = x4.shape
    ho = (h + 2 * padding - k) // stride + 1
    wo = (wd + 2 * padding - k) // stride + 1
    if ho < 1 or wo < 1:
        raise ValueError("kernel larger than padded input")

    if stride == 1 and cout < cin:
        out, grads = _conv_output_side(x4, w.data, padding, ho, wo)
    else:
        out, grads = _conv_input_side(x4, w.data, stride, padding, ho, wo)
    out = np.ascontiguousarray(out)
    if b is not None:
        out += b.data[:, None, None]
    if squeezed:
        out = out[0]
    inputs = (x, w) if b is None else (x, w, b)

    def bwd(g):
        g4, _ = _as_nchw(np.asarray(g, dtype=np.float32))
        dx, dw = grads(g4)
        _accum(w, dw)
        if b is not None:
            _accum(b, g4.sum(axis=(0, 2, 3), dtype=np.float64))
        _accum(x, dx[0] if squeezed else dx)

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


@_quiet
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
