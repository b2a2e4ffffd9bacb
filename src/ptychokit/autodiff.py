"""Reverse-mode autodiff over dense float32 arrays.

Ops: elementwise `scale`, `tanh`, `sigmoid`; `transpose`, `concat_channels`,
`conv2d`, `upsample_bilinear2x`; and `closed_form`, a node over several inputs
whose value is computed off the tape and whose derivatives are given in closed
form and computed only in a backward (each loss, in float64, and the unit
projection).

Storage is float32, and the conv2d bias gradient accumulates in float64.
`conv2d`, `upsample_bilinear2x` and `concat_channels` take activations in
one layout, (C, H, W, N): channels outermost, batch innermost (a C x H x W
map is N = 1). A convolution takes one of three paths, by what it is:
- stride 1: row taps (MEC, Cho & Brand 2017). The input is copied k-fold, each
  copy shifted along W, and the k vertical taps are views of that copy handed
  to the GEMM, so the forward is k float32 GEMMs per block of output rows. The
  backward copies the output gradient G k-fold once, padded by k-1-p, and
  those taps serve both gradients: dX is the same sum with the flipped,
  transposed kernel, and dW a sum of G taps times the unexpanded input.
- stride > 1 (the encoders and the skip path): im2col columns, one float32
  GEMM per block of output rows for the output and the weight gradient, and
  each block's column gradient scattered back.
- `conv2d(..., upsample=True)` (the decoder tail): a conv of the bilinearly
  2x-upsampled input, its taps shifted on the output side and mixed at the
  input's resolution. The forward, weight gradient and input gradient are one
  GEMM each, and a tap is a flat shift of (i*Wp + j)*N over one padded buffer.
Blocks of row taps (halo rows included) and of im2col columns each take at
most CONV_BLOCK_BYTES. `conv2d(..., relu=True)` applies ReLU in the conv's
epilogue; its backward masks the output gradient in place with the output's
sign, so no pre-activation is kept. The backward of a conv whose input takes
no gradient (the network's raw intensity) computes only the weight and bias
gradients, on every path.
`upsample_bilinear2x` runs as two batched float32 matrix products. Forward
results must be finite (`NonFiniteError`). No broadcasting beyond bias-add
over channels.

The tape keeps only what a backward reads: a conv's closure holds its input,
not a padded copy (a strided conv re-pads it in the backward). `backward`
consumes the tape, popping each node and freeing its closure and its output's
gradient as it passes; afterwards only leaf tensors hold gradients. A
gradient array an op has just made is stored without a copy (`_accum`).
"""

import functools

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
    """Add g into t.grad. A first store keeps a C-contiguous g itself and copies a
    strided view (a crop of a padded map, a transpose), so a stored gradient is
    C-ordered and keeps no larger buffer alive. No op hands one array to two
    inputs, so a kept g is no other tensor's gradient."""
    if not t.requires_grad:
        return
    g = np.asarray(g, dtype=np.float32)
    if t.grad is None:
        t.grad = g if g.flags.c_contiguous else g.copy()
    else:
        t.grad += g


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
    """Populate .grad on every requires_grad leaf reachable from loss.

    Consumes the tape: each node is popped in reverse order and its output's
    gradient taken (left None) before its closure runs, so closures, their
    buffers and intermediate gradients are freed as the backward passes them.
    """
    if loss.data.size != 1:
        raise ValueError("backward expects a scalar loss")
    loss.grad = np.ones_like(loss.data)
    nodes = tape.nodes
    while nodes:
        out, fn = nodes.pop()
        g, out.grad = out.grad, None
        if g is not None:
            fn(g)


# ---------------------------------------------------------------------------
# elementwise ops

@_quiet
def scale(a, k):
    k = float(k)
    out = a.data * k

    def bwd(g):
        _accum(a, g * k)

    return _make(out, (a,), bwd, "scale")


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


# ---------------------------------------------------------------------------
# structural ops

@_quiet
def transpose(x, axes):
    """x with its axes permuted, e.g. a model head from (1, H, W, N) to N x 1 x H x W."""
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    out = x.data.transpose(axes)

    def bwd(g):
        _accum(x, g.transpose(inverse))

    return _make(out, (x,), bwd, "transpose")


@_quiet
def concat_channels(a, b):
    """Concatenation along axis 0, the channel axis of (C, H, W, N) and C x H x W maps."""
    if a.data.ndim != b.data.ndim or a.shape[1:] != b.shape[1:]:
        raise ValueError(f"spatial/batch mismatch {a.shape} vs {b.shape}")
    c1 = a.shape[0]
    out = np.concatenate([a.data, b.data], axis=0)

    def bwd(g):
        _accum(a, g[:c1])
        _accum(b, g[c1:])

    return _make(out, (a, b), bwd, "concat_channels")


@_quiet
def closed_form(inputs, value, grad_fn):
    """A node of the given value over a tuple of inputs. grad_fn() gives, per
    input, the node's derivative with respect to it, which the backward
    multiplies by the output gradient: for a scalar node an array of the input's
    shape, for a node of its inputs' shape the elementwise derivative. grad_fn
    runs only when a backward reaches the node."""
    inputs = tuple(inputs)

    def bwd(g):
        for x, gx in zip(inputs, grad_fn()):
            _accum(x, g * gx)

    return _make(np.asarray(value, np.float32), inputs, bwd, "closed_form")


# ---------------------------------------------------------------------------
# conv and upsampling, on (C, H, W, N) arrays

def _as_chwn(x, what):
    """A (C, H, W, N) view of a 4-D array, or of a C x H x W map as N = 1."""
    if x.ndim not in (3, 4):
        raise ValueError(f"{what} expects (C, H, W, N) or C x H x W, got shape {x.shape}")
    return x.reshape(*x.shape[:3], -1)


def _pad(x, padding):
    """x zero-padded by `padding` on each side of H and W."""
    c, h, w, n = x.shape
    xp = np.zeros((c, h + 2 * padding, w + 2 * padding, n), np.float32)
    xp[:, padding:padding + h, padding:padding + w] = x
    return xp


def _separable(x, a, b):
    """A along axis 1 and B along axis 2 of a (C, H, W, N) array: one batched
    GEMM per step, the W-step a single GEMM when N = 1."""
    c, h, w, n = x.shape
    y = np.matmul(a, x.reshape(c, h, w * n))
    if n == 1:
        y = y.reshape(-1, w) @ b.T
    else:
        y = np.matmul(b, y.reshape(-1, w, n))
    return y.reshape(c, a.shape[0], b.shape[0], n)


# Byte budget of one block of conv taps: a strided conv's im2col columns, or a
# stride-1 conv's row taps with their k-1 halo rows. Batch 32, conv fwd+bwd,
# medians of interleaved calls on 2 cores. im2col, against one GEMM over all
# columns: 4 MiB blocks were 3-18% faster on stride-1 3x3 convs of 16-64
# channels at 8 x 8 and 16 x 16 (before those moved to row taps), and 5% slower
# on the stride-2 5x5 encoder conv; 1 MiB blocks were up to 36% slower (more,
# thinner GEMMs). Row taps, on 3x3 convs of 16-192 input channels at 4 x 4 to
# 16 x 16: 4 MiB was within 4% of 8 and 16 MiB, while 2 MiB was up to 20% and
# 1 MiB up to 56% slower (64 -> 64 channels at 16 x 16: 28.2 against 18.0 ms).
CONV_BLOCK_BYTES = 4 << 20


def _blocks(ho, max_rows):
    """(r0, r1) blocks of equal height, at most max_rows (but at least 1), over ho rows."""
    rows = -(-ho // -(-ho // max(1, max_rows)))
    return rows, [(r0, min(r0 + rows, ho)) for r0 in range(0, ho, rows)]


def _col_blocks(xp, k, stride, ho, wo):
    """im2col columns of a padded (C, Hp, Wp, N) input, in blocks of output rows:
    yields (r0, r1, cols), cols the (C*k*k, (r1-r0)*Wo*N) columns of output rows
    r0:r1, rows ordered (c, i, j). A block takes at most CONV_BLOCK_BYTES, and
    each block overwrites the last one's buffer. Batch innermost keeps each
    tap's strided copy in contiguous runs of N values."""
    c, n = xp.shape[0], xp.shape[3]
    rows, blocks = _blocks(ho, CONV_BLOCK_BYTES // (c * k * k * wo * n * 4))
    buf = np.empty(c * k * k * rows * wo * n, np.float32)
    for r0, r1 in blocks:
        cols = buf[:c * k * k * (r1 - r0) * wo * n].reshape(c, k, k, r1 - r0, wo, n)
        for i in range(k):
            for j in range(k):
                cols[:, i, j] = xp[:, i + stride * r0:i + stride * r1:stride,
                                   j:j + stride * wo:stride]
        yield r0, r1, cols.reshape(c * k * k, -1)


def _row_blocks(x, k, pad, ho, wo):
    """Row taps of a (C, H, W, N) input zero-padded by pad, in blocks of output
    rows: yields (r0, r1, taps), taps the (C*k, (r1-r0+k-1)*Wo*N) array whose row
    (c, j) holds padded rows r0 .. r1+k-2 of channel c shifted by j along W, so
    vertical tap i is the column range from i*Wo*N, a view of uniform row
    stride. The padding is written as zeros around the copied rows (no padded
    copy of x is made); a negative pad crops, as the backward of a conv padded
    by more than k-1 asks. A block's taps, with their k-1 halo rows, take at
    most CONV_BLOCK_BYTES, and each block overwrites the last one's buffer."""
    c, h, w, n = x.shape
    rows, blocks = _blocks(ho, CONV_BLOCK_BYTES // (c * k * wo * n * 4) - (k - 1))
    buf = np.empty(c * k * (rows + k - 1) * wo * n, np.float32)
    for r0, r1 in blocks:
        taps = buf[:c * k * (r1 - r0 + k - 1) * wo * n].reshape(c, k, -1, wo, n)
        y0 = max(r0 - pad, 0)
        y1 = max(min(r1 + k - 1 - pad, h), y0)
        a0, a1 = y0 - r0 + pad, y1 - r0 + pad  # the rows of taps that x fills
        taps[:, :, :a0] = 0
        taps[:, :, a1:] = 0
        for j in range(k):
            x0 = max(j - pad, 0)
            x1 = max(min(wo + j - pad, w), x0)
            b0, b1 = x0 - j + pad, x1 - j + pad
            taps[:, j, a0:a1, :b0] = 0
            taps[:, j, a0:a1, b1:] = 0
            taps[:, j, a0:a1, b0:b1] = x[:, y0:y1, x0:x1]
        yield r0, r1, taps.reshape(c * k, -1)


def _tap_sum(wk, taps, step, out):
    """out = sum over i of wk[i] @ (the columns of taps from i*step, as many as out has)."""
    span = out.shape[1]
    np.matmul(wk[0], taps[:, :span], out=out)
    for i in range(1, len(wk)):
        out += wk[i] @ taps[:, i * step:i * step + span]


def _conv_row_taps(x, w, padding, ho, wo):
    """Stride 1, from row taps (MEC, Cho & Brand 2017): the input is copied
    k-fold along W, and the k vertical taps are views handed to the GEMM.
    Y = sum over i of W_i @ tap_i, W_i = w[:, :, i, :] as C_out x C_in*k, block
    by block of output rows. The backward builds G's row taps once, padded by
    k-1-p: dX = sum over i of Wf_i @ tap_i with the flipped, transposed kernel,
    and the G tap at row offset k-1-i times x^T, summed over blocks, is
    dW[:, :, i, ::-1]. x is not expanded again, and dX is skipped (None) when
    need_dx is False."""
    cin, h, wd, n = x.shape
    cout, _, k, _ = w.shape
    wk = np.ascontiguousarray(w.transpose(2, 0, 1, 3)).reshape(k, cout, cin * k)
    out = np.empty((cout, ho * wo * n), np.float32)
    for r0, r1, taps in _row_blocks(x, k, padding, ho, wo):
        _tap_sum(wk, taps, wo * n, out[:, r0 * wo * n:r1 * wo * n])

    def grads(g, need_dx):
        step = wd * n
        if need_dx:
            wf = np.ascontiguousarray(w[:, :, ::-1, ::-1].transpose(2, 1, 0, 3))
            wf = wf.reshape(k, cin, cout * k)
            dx = np.empty((cin, h * step), np.float32)
        acc = np.zeros((k, cout * k, cin), np.float32)
        for r0, r1, taps in _row_blocks(g, k, k - 1 - padding, h, wd):
            xb = x[:, r0:r1].reshape(cin, -1)
            for i in range(k):
                acc[k - 1 - i] += taps[:, i * step:(i + r1 - r0) * step] @ xb.T
            if need_dx:
                _tap_sum(wf, taps, step, dx[:, r0 * step:r1 * step])
        dw = acc.reshape(k, cout, k, cin).transpose(1, 3, 0, 2)[..., ::-1]
        return (dx.reshape(x.shape) if need_dx else None), dw

    return out.reshape(cout, ho, wo, n), grads


def _conv_strided(x, w, stride, padding, ho, wo):
    """Stride > 1, taps gathered by im2col, block by block of output rows:
    Y = Wm @ cols and dW = sum of G_b @ cols_b^T, and each block's
    dcols = Wm^T @ G_b is scattered back by k*k strided adds. The backward
    re-pads x rather than keeping the forward's padded copy, and skips dX
    (returning None) when need_dx is False."""
    cin, h, wd, n = x.shape
    cout, _, k, _ = w.shape
    wm = w.reshape(cout, -1)
    out = np.empty((cout, ho * wo * n), np.float32)
    for r0, r1, cols in _col_blocks(_pad(x, padding), k, stride, ho, wo):
        np.matmul(wm, cols, out=out[:, r0 * wo * n:r1 * wo * n])

    def grads(g, need_dx):
        if need_dx:
            dxp = np.zeros((cin, h + 2 * padding, wd + 2 * padding, n), np.float32)
        dw = np.zeros((cout, cin * k * k), np.float32)
        for r0, r1, cols in _col_blocks(_pad(x, padding), k, stride, ho, wo):
            gb = g[:, r0:r1].reshape(cout, -1)
            dw += gb @ cols.T
            if need_dx:  # dcols overwrites the block's columns
                dcols = np.matmul(wm.T, gb, out=cols).reshape(cin, k, k, r1 - r0, wo, n)
                for i in range(k):
                    for j in range(k):
                        dxp[:, i + stride * r0:i + stride * r1:stride,
                            j:j + stride * wo:stride] += dcols[:, i, j]
        dx = dxp[:, padding:padding + h, padding:padding + wd] if need_dx else None
        return dx, dw.reshape(w.shape)

    return out.reshape(cout, ho, wo, n), grads


def _conv_upsampled(x, w, padding, ho, wo):
    """The conv of bilinearly 2x-upsampled x, taps shifted on the output side:
    Z = Ws @ X at x's resolution (both maps are linear), its k*k*C_out maps are
    upsampled and padded, and Y is the sum of Z's k*k row blocks, each shifted
    by its tap offset. The backward shifts G once into Gs and upsamples Gs's
    adjoint back down; dX = Ws^T @ Gs and dWs = Gs @ X^T. dX is skipped (None)
    when need_dx is False."""
    cin, h, wd, n = x.shape
    cout, _, k, _ = w.shape
    ws = w.transpose(2, 3, 0, 1).reshape(k * k * cout, cin)
    a, b = _upsample_matrix(h), _upsample_matrix(wd)
    z = _pad(_separable((ws @ x.reshape(cin, -1)).reshape(-1, h, wd, n), a, b), padding)
    hp, wp = 2 * h + 2 * padding, 2 * wd + 2 * padding
    # Tap (i, j) reads (i*Wp + j)*N further along the flattened (Hp, Wp, N)
    # grids: the same image, crossing into the next row only outside Ho x Wo.
    offsets = [(i * wp + j) * n for i in range(k) for j in range(k)]
    size = hp * wp * n
    valid = size - offsets[-1]
    z = z.reshape(k * k, cout, size)
    y = z[0]
    for t in range(1, k * k):
        y[:, :valid] += z[t, :, offsets[t]:offsets[t] + valid]
    out = y.reshape(cout, hp, wp, n)[:, :ho, :wo]

    def grads(g, need_dx):
        gp = np.zeros((cout, hp, wp, n), np.float32)
        gp[:, :ho, :wo] = g
        gm = gp.reshape(cout, size)
        gs = np.zeros((k * k, cout, size), np.float32)
        for t, off in enumerate(offsets):
            gs[t, :, off:] = gm[:, :size - off]
        gs = gs.reshape(-1, hp, wp, n)[:, padding:padding + 2 * h, padding:padding + 2 * wd]
        gs = _separable(gs, a.T, b.T).reshape(k * k * cout, -1)
        dx = (ws.T @ gs).reshape(x.shape) if need_dx else None
        dw = (gs @ x.reshape(cin, -1).T).reshape(k, k, cout, cin).transpose(2, 3, 0, 1)
        return dx, dw

    return out, grads


@_quiet
def conv2d(x, w, b=None, stride=1, padding=0, upsample=False, relu=False):
    """Direct cross-correlation (no kernel flip), zero padding, of a (C, H, W, N)
    batch or one C x H x W map.

    Stride 1 runs on row taps and stride > 1 on im2col columns, both in blocks
    of output rows of at most CONV_BLOCK_BYTES. upsample=True gives
    conv2d(upsample_bilinear2x(x)) with its taps shifted on the output side and
    mixed at x's resolution (stride 1 only). relu=True applies
    y * (y > 0) after the bias add; the backward masks G with the output's
    own sign (subgradient 0 at 0), in place, so no pre-activation is kept.
    """
    x4 = _as_chwn(x.data, "conv2d")
    if w.data.ndim != 4 or w.data.shape[2] != w.data.shape[3]:
        raise ValueError(f"weight must be Cout x Cin x k x k, got {w.shape}")
    cout, cin, k, _ = w.data.shape
    if x4.shape[0] != cin:
        raise ValueError(f"input channels {x4.shape[0]} != weight Cin {cin}")
    if b is not None and b.data.shape != (cout,):
        raise ValueError(f"bias shape {b.shape} != ({cout},)")
    if upsample and stride != 1:
        raise ValueError("upsample needs stride 1")
    scale = 2 if upsample else 1
    _, h, wd, _ = x4.shape
    ho = (scale * h + 2 * padding - k) // stride + 1
    wo = (scale * wd + 2 * padding - k) // stride + 1
    if ho < 1 or wo < 1:
        raise ValueError("kernel larger than padded input")

    if upsample:
        out, grads = _conv_upsampled(x4, w.data, padding, ho, wo)
    elif stride == 1:
        out, grads = _conv_row_taps(x4, w.data, padding, ho, wo)
    else:
        out, grads = _conv_strided(x4, w.data, stride, padding, ho, wo)
    out = np.ascontiguousarray(out)
    if b is not None:
        out += b.data[:, None, None, None]
    if relu:
        out *= out > 0
    inputs = (x, w) if b is None else (x, w, b)

    def bwd(g):
        g4 = _as_chwn(np.asarray(g, dtype=np.float32), "conv2d")
        if relu:
            g4 *= out > 0
        dx, dw = grads(g4, x.requires_grad)
        _accum(w, dw)
        if b is not None:
            _accum(b, g4.sum(axis=(1, 2, 3), dtype=np.float64))
        if dx is not None:
            _accum(x, dx.reshape(x.shape))

    return _make(out.reshape(out.shape[:3] + x.shape[3:]), inputs, bwd, "conv2d")


@functools.cache
def _upsample_matrix(n):
    """(2n x n) bilinear matrix: src = (dst + 0.5)/2 - 0.5, clamped."""
    u = np.zeros((2 * n, n), dtype=np.float32)
    for d in range(2 * n):
        s = np.clip((d + 0.5) / 2.0 - 0.5, 0.0, n - 1.0)
        i0 = int(np.floor(s))
        i1 = min(i0 + 1, n - 1)
        w = s - i0
        u[d, i0] += 1.0 - w
        u[d, i1] += w
    return u


@_quiet
def upsample_bilinear2x(x):
    """Bilinear 2x upsampling of a (C, H, W, N) array or a C x H x W map:
    Y[c] = U_H @ X[c] @ U_W^T for each channel c and batch entry n, with the
    (2n x n) matrices of `_upsample_matrix`. The backward is U_H^T @ G @ U_W."""
    x4 = _as_chwn(x.data, "upsample_bilinear2x")
    a, b = _upsample_matrix(x4.shape[1]), _upsample_matrix(x4.shape[2])
    out = _separable(x4, a, b)

    def bwd(g):
        g4 = _as_chwn(np.asarray(g, dtype=np.float32), "upsample_bilinear2x")
        _accum(x, _separable(g4, a.T, b.T).reshape(x.shape))

    return _make(out.reshape(out.shape[:3] + x.shape[3:]), (x,), bwd, "upsample_bilinear2x")


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
