"""Reverse-mode autodiff over dense float32 arrays.

Ops: elementwise `scale`, `tanh`, `sigmoid`; `transpose`, `concat_channels`,
`conv2d`, `upsample_bilinear2x`; and `closed_form`, a node over several inputs
whose value is computed off the tape and whose derivatives are given in closed
form and computed only in a backward (each loss, in float64, and the unit
projection).

Storage is float32, and the conv2d bias gradient accumulates in float64.
`conv2d`, `upsample_bilinear2x` and `concat_channels` take activations in
one layout, (C, H, W, N): channels outermost, batch innermost (a C x H x W
map is N = 1). A convolution shifts its k*k kernel taps on whichever side,
input or output, has fewer channels. On the input side the im2col columns
are built in blocks of output rows, each at most CONV_BLOCK_BYTES: the
forward is one float32 GEMM per block and the weight gradient a sum of one
GEMM per block. At stride 1 the input gradient is the same blocked conv of
the output gradient padded by k-1-p, with the flipped, transposed kernel; at
stride > 1 each block's column gradient is scattered back. On the output
side the forward, weight gradient and input gradient are one GEMM each, and
a tap is a flat shift of (i*Wp + j)*N over one padded (C, Hp, Wp, N) buffer.
`conv2d(..., upsample=True)` is a conv of the bilinearly 2x-upsampled input
with its taps mixed at the input's resolution, and `conv2d(..., relu=True)`
applies ReLU in the conv's epilogue; its backward masks the output gradient
in place with the output's sign, so no pre-activation is kept.
The backward of a conv whose input takes no gradient (the network's raw
intensity) computes only the weight and bias gradients, on either tap side.
`upsample_bilinear2x` runs as two batched float32 matrix products. Forward
results must be finite (`NonFiniteError`). No broadcasting beyond bias-add
over channels.

The tape keeps only what a backward reads: a conv's closure holds its input,
not a padded copy, and re-pads it in the backward. `backward` consumes the
tape, popping each node and freeing its closure and its output's gradient as
it passes; afterwards only leaf tensors hold gradients. A gradient array an
op has just made is stored without a copy (`_accum`).
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
    """x zero-padded by `padding` on each side of H and W; a negative padding crops."""
    if padding < 0:
        return x[:, -padding:padding, -padding:padding]
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


# Byte budget of one block of im2col columns. Measured against one GEMM over all
# columns with dX scattered back (batch 32, conv fwd+bwd, medians of 40
# interleaved calls on 2 cores): 4 MiB blocks were 3-18% faster on the stride-1
# 3x3 convs of 16-64 channels at 8 x 8 and 16 x 16, equal at 128 channels at
# 4 x 4 and 5% slower on the stride-2 5x5 encoder conv; 1 MiB blocks were up to
# 36% slower (more, thinner GEMMs), and 8 MiB blocks gained at most 6% more for
# twice the buffer.
CONV_BLOCK_BYTES = 4 << 20


def _col_blocks(xp, k, stride, ho, wo):
    """im2col columns of a padded (C, Hp, Wp, N) input, in blocks of output rows:
    yields (r0, r1, cols), cols the (C*k*k, (r1-r0)*Wo*N) columns of output rows
    r0:r1, rows ordered (c, i, j). A block takes at most CONV_BLOCK_BYTES (but at
    least one output row), and each block overwrites the last one's buffer.
    Batch innermost keeps each tap's strided copy in contiguous runs of N values."""
    c, n = xp.shape[0], xp.shape[3]
    max_rows = max(1, CONV_BLOCK_BYTES // (c * k * k * wo * n * 4))
    rows = -(-ho // -(-ho // max_rows))  # equal blocks of at most max_rows
    buf = np.empty(c * k * k * rows * wo * n, np.float32)
    for r0 in range(0, ho, rows):
        r1 = min(r0 + rows, ho)
        cols = buf[:c * k * k * (r1 - r0) * wo * n].reshape(c, k, k, r1 - r0, wo, n)
        for i in range(k):
            for j in range(k):
                cols[:, i, j] = xp[:, i + stride * r0:i + stride * r1:stride,
                                   j:j + stride * wo:stride]
        yield r0, r1, cols.reshape(c * k * k, -1)


def _gathered_conv(xp, wm, k, stride, ho, wo):
    """Wm @ im2col(xp) into a (C_out, Ho, Wo, N) array, one GEMM per row block."""
    n = xp.shape[3]
    out = np.empty((wm.shape[0], ho * wo * n), np.float32)
    for r0, r1, cols in _col_blocks(xp, k, stride, ho, wo):
        np.matmul(wm, cols, out=out[:, r0 * wo * n:r1 * wo * n])
    return out.reshape(-1, ho, wo, n)


def _conv_input_side(x, w, stride, padding, ho, wo):
    """Taps gathered on the input side, block by block of output rows:
    Y = Wm @ cols and dW = sum of G_b @ cols_b^T. At stride 1, dX is the same
    gathered conv of G padded by k-1-p, with the flipped, transposed kernel; at
    stride > 1, each block's dcols = Wm^T @ G_b is scattered back by k*k strided
    adds. The backward re-pads x rather than keeping the forward's padded copy,
    and skips dX (returning None) when need_dx is False."""
    cin, h, wd, n = x.shape
    cout, _, k, _ = w.shape
    wm = w.reshape(cout, -1)
    out = _gathered_conv(_pad(x, padding), wm, k, stride, ho, wo)

    def grads(g, need_dx):
        dx = None
        scatter = need_dx and stride > 1
        if need_dx and stride == 1:
            wf = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(cin, -1)
            dx = _gathered_conv(_pad(g, k - 1 - padding), wf, k, 1, h, wd)
        elif scatter:
            dxp = np.zeros((cin, h + 2 * padding, wd + 2 * padding, n), np.float32)
        dw = np.zeros((cout, cin * k * k), np.float32)
        for r0, r1, cols in _col_blocks(_pad(x, padding), k, stride, ho, wo):
            gb = g[:, r0:r1].reshape(cout, -1)
            dw += gb @ cols.T
            if scatter:  # dcols overwrites the block's columns
                dcols = np.matmul(wm.T, gb, out=cols).reshape(cin, k, k, r1 - r0, wo, n)
                for i in range(k):
                    for j in range(k):
                        dxp[:, i + stride * r0:i + stride * r1:stride,
                            j:j + stride * wo:stride] += dcols[:, i, j]
        if scatter:
            dx = dxp[:, padding:padding + h, padding:padding + wd]
        return dx, dw.reshape(w.shape)

    return out, grads


def _conv_output_side(x, w, padding, ho, wo, upsample):
    """Stride 1, taps shifted on the output side: Z = Ws @ X, and Y is the sum
    of Z's k*k row blocks, each shifted by its tap offset. The backward shifts
    G once into Gs; dX = Ws^T @ Gs and dWs = Gs @ X^T.

    With upsample, X is the input before bilinear 2x upsampling: both maps are
    linear, so Z is taken at the input's resolution and its k*k*C_out maps are
    upsampled and padded before the shift-add (the backward upsamples Gs's
    adjoint back down). Without upsample, the backward re-pads x for dWs
    rather than keeping the forward's padded copy. dX is skipped (None) when
    need_dx is False."""
    cin, h, wd, n = x.shape
    cout, _, k, _ = w.shape
    ws = w.transpose(2, 3, 0, 1).reshape(k * k * cout, cin)
    if upsample:
        a, b = _upsample_matrix(h), _upsample_matrix(wd)
        z = _pad(_separable((ws @ x.reshape(cin, -1)).reshape(-1, h, wd, n), a, b), padding)
        h, wd = 2 * h, 2 * wd
    else:
        z = ws @ _pad(x, padding).reshape(cin, -1)
    hp, wp = h + 2 * padding, wd + 2 * padding
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
        gs = gs.reshape(-1, hp, wp, n)
        if upsample:  # the adjoint of padding and upsampling
            gs = _separable(gs[:, padding:padding + h, padding:padding + wd], a.T, b.T)
        grid = gs.shape[1:]
        gs = gs.reshape(k * k * cout, -1)
        dx = (ws.T @ gs).reshape((cin,) + grid) if need_dx else None
        if upsample:
            xm = x.reshape(cin, -1)
        else:
            if need_dx:
                dx = dx[:, padding:padding + h, padding:padding + wd]
            xm = _pad(x, padding).reshape(cin, -1)
        dw = (gs @ xm.T).reshape(k, k, cout, cin).transpose(2, 3, 0, 1)
        return dx, dw

    return out, grads


@_quiet
def conv2d(x, w, b=None, stride=1, padding=0, upsample=False, relu=False):
    """Direct cross-correlation (no kernel flip), zero padding, of a (C, H, W, N)
    batch or one C x H x W map.

    The k*k taps are shifted on the side with fewer channels: the output side
    for stride-1 convs with C_out < C_in, the input side, in blocks of output
    rows, otherwise (measured faster at C_out == C_in).
    upsample=True gives conv2d(upsample_bilinear2x(x)) with the output side's
    taps mixed at x's resolution (stride 1 only). relu=True applies
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

    if upsample or (stride == 1 and cout < cin):
        out, grads = _conv_output_side(x4, w.data, padding, ho, wo, upsample)
    else:
        out, grads = _conv_input_side(x4, w.data, stride, padding, ho, wo)
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
