import inspect

import numpy as np
import pytest

from ptychokit import autodiff as ad, verify
from ptychokit.autodiff import NonFiniteError, Tape, Tensor, backward, finite_diff_check


def wmean(y, w):
    """mean(w * y) as one closed-form node, as the gradient checks reduce."""
    w = np.asarray(w, np.float64)
    return ad.closed_form((y,), np.mean(w * y.data), lambda: (w / w.size,))


def rand(shape, seed, lo=-1.0, hi=1.0):
    return np.random.default_rng(seed).uniform(lo, hi, shape).astype(np.float32)


def test_tensor_storage_is_f32():
    t = Tensor(np.arange(4.0))
    assert t.data.dtype == np.float32
    assert t.shape == (4,)
    assert not t.requires_grad


def test_elementwise_forward_values():
    a = Tensor(rand((3, 3), 0))
    assert np.allclose(ad.scale(a, 2.5).data, 2.5 * a.data)
    assert np.allclose(ad.tanh(a).data, np.tanh(a.data))
    assert np.allclose(ad.sigmoid(a).data, 1 / (1 + np.exp(-a.data.astype(np.float64))),
                       atol=1e-7)


def test_backward_accumulates_through_reuse():
    # x feeds tanh and scale, weighted by w1 and w2: grad = (w1 (1 - tanh^2 x) + 2 w2)/n
    x = Tensor(rand((1, 4), 2), requires_grad=True)
    w = rand((2, 4), 3)
    with Tape() as tape:
        backward(tape, wmean(ad.concat_channels(ad.tanh(x), ad.scale(x, 2.0)), w))
    want = (w[0] * (1 - np.tanh(x.data.astype(np.float64)) ** 2) + 2 * w[1]) / 8
    assert np.allclose(x.grad, want, atol=1e-7)


def test_closed_form_gives_each_input_its_own_gradient():
    # a node over (a, b) whose derivative is the same array for both: each input
    # must hold its own gradient, so a later += into one leaves the other alone
    a = Tensor(rand((3, 4), 40), requires_grad=True)
    b = Tensor(rand((3, 4), 41), requires_grad=True)
    ones = np.ones(a.shape, np.float32)
    with Tape() as tape:
        a1 = ad.scale(a, 1.0)  # its backward runs last and adds into a.grad
        y = ad.closed_form((a, b), a.data + b.data, lambda: (ones, ones))
        backward(tape, wmean(ad.concat_channels(y, a1), np.ones((6, 4))))
    assert np.allclose(a.grad, 2 / 24, atol=1e-8)
    assert np.allclose(b.grad, 1 / 24, atol=1e-8)
    assert not np.shares_memory(a.grad, b.grad)


def test_backward_consumes_tape_and_keeps_leaf_grads():
    # loss = mean(w * [tanh x; y]): grad x = w1 (1 - tanh^2 x)/n, grad y = w2/n
    x = Tensor(rand((1, 3, 4), 4), requires_grad=True)
    y = Tensor(rand((1, 3, 4), 5), requires_grad=True)
    w = rand((2, 3, 4), 6)
    with Tape() as tape:
        a = ad.tanh(x)
        b = ad.concat_channels(a, y)
        loss = wmean(b, w)
        backward(tape, loss)
    assert tape.nodes == []
    assert all(t.grad is None for t in (a, b, loss))
    x64 = x.data.astype(np.float64)
    assert np.allclose(x.grad, w[:1] * (1 - np.tanh(x64) ** 2) / 24, rtol=1e-6, atol=1e-8)
    assert np.allclose(y.grad, w[1:] / 24, rtol=1e-6, atol=1e-8)


def test_backward_requires_scalar():
    x = Tensor(rand((3,), 3), requires_grad=True)
    with Tape() as tape:
        y = ad.tanh(x)
    with pytest.raises(ValueError):
        backward(tape, y)


def test_nonfinite_forward_raises():
    a = Tensor(np.array([1.0, 3e38], dtype=np.float32))
    with pytest.raises(NonFiniteError, match="'scale'"):
        ad.scale(a, 10.0)
    with pytest.raises(NonFiniteError, match="'closed_form'"):
        ad.closed_form((a,), np.array([0.0, np.nan]), lambda: (np.ones(2),))


# (stride, padding, k, C_in, C_out, bias, batched): stride-1 convs (row taps, with
# C_out above, equal to and below C_in, k of 1, 3 and 5) and strided convs (im2col
# blocks), on 6 x 7 grids; a batched input is (C, H, W, N) with N = 2. The
# upsample path has its own tests below.
CONV_CASES = [
    (1, 1, 3, 2, 3, True, False),
    (2, 1, 3, 2, 3, True, False),
    (2, 2, 5, 3, 2, False, True),
    (3, 0, 2, 2, 2, True, True),
    (1, 1, 3, 3, 3, False, True),
    (1, 1, 3, 4, 2, True, True),
    (1, 0, 3, 4, 2, False, False),
    (1, 2, 3, 4, 1, False, True),
    (1, 0, 1, 4, 2, False, True),
    (1, 3, 3, 2, 3, False, True),  # padding > k - 1: G's row taps for dX crop G
    (1, 2, 5, 3, 2, False, True),  # 4 halo rows: one-row blocks share input rows
]


def _conv_case(stride, padding, k, cin, cout, bias, batched, seed=7):
    x = Tensor(rand((cin, 6, 7, 2) if batched else (cin, 6, 7), seed), requires_grad=True)
    w = Tensor(rand((cout, cin, k, k), seed + 1), requires_grad=True)
    b = Tensor(rand((cout,), seed + 2)) if bias else None
    return x, w, b


def _conv_loop(x, w, b, stride, padding):
    """float64 direct loop over output pixels, of a (C, H, W, N) or C x H x W input."""
    x4 = np.pad(x.transpose(3, 0, 1, 2) if x.ndim == 4 else x[None],
                ((0, 0), (0, 0), (padding, padding), (padding, padding))).astype(np.float64)
    cout, _, k, _ = w.shape
    ho = (x4.shape[2] - k) // stride + 1
    wo = (x4.shape[3] - k) // stride + 1
    ref = np.zeros((x4.shape[0], cout, ho, wo))
    for o in range(cout):
        for i in range(ho):
            for j in range(wo):
                patch = x4[:, :, stride * i:stride * i + k, stride * j:stride * j + k]
                ref[:, o, i, j] = np.sum(patch * w[o].astype(np.float64), axis=(1, 2, 3))
        if b is not None:
            ref[:, o] += b[o]
    return ref.transpose(1, 2, 3, 0) if x.ndim == 4 else ref[0]


# CONV_BLOCK_BYTES values to run each conv case under: the default, and one so
# small that every block, of im2col columns or of row taps, is one output row.
# Every case has at least two output rows, so it then spans two or more blocks:
# the stride-2, k=5 case's im2col blocks share input rows, and the stride-1, k=5
# case's row-tap blocks share their 4 halo rows (in the backward, G's rows).
CONV_BUDGETS = (ad.CONV_BLOCK_BYTES, 1)


def test_conv2d_matches_direct_loop(monkeypatch):
    for budget in CONV_BUDGETS:
        monkeypatch.setattr(ad, "CONV_BLOCK_BYTES", budget)
        for case in CONV_CASES:
            stride, padding = case[:2]
            x, w, b = _conv_case(*case)
            out = ad.conv2d(x, w, b, stride=stride, padding=padding).data
            ref = _conv_loop(x.data, w.data, None if b is None else b.data, stride, padding)
            assert out.shape == ref.shape and out.shape[1] >= 2, case
            assert np.allclose(out, ref, atol=1e-5), (case, budget)


@pytest.mark.parametrize("case", [c for c in CONV_CASES if not c[5]])
def test_conv2d_backward_is_adjoint(case, monkeypatch):
    # conv is linear in x and in w: <conv(x, w), g> = <x, dx> = <w, dw>
    stride, padding = case[:2]
    for budget in CONV_BUDGETS:
        monkeypatch.setattr(ad, "CONV_BLOCK_BYTES", budget)
        x, w, _ = _conv_case(*case)
        with Tape() as tape:
            y = ad.conv2d(x, w, stride=stride, padding=padding)
            g = Tensor(rand(y.shape, 30))
            backward(tape, wmean(y, g.data))
        inner = np.sum(y.data.astype(np.float64) * g.data)
        for t in (x, w):
            dual = np.sum(t.data.astype(np.float64) * t.grad) * y.size
            assert dual == pytest.approx(inner, rel=1e-5, abs=1e-5), (case, budget)


@pytest.mark.parametrize("n_c", [4, 32])
def test_conv2d_upsample_equals_conv_of_upsampled(n_c):
    # the decoder tail: 3x3 conv to one channel of a 2*n_c-channel map upsampled
    # from 16 x 16, with the taps mixed before upsampling
    results = []
    for fused in (True, False):
        x = Tensor(rand((2 * n_c, 16, 16, 3), 40), requires_grad=True)
        w = Tensor(rand((1, 2 * n_c, 3, 3), 41), requires_grad=True)
        b = Tensor(rand((1,), 42), requires_grad=True)
        with Tape() as tape:
            if fused:
                y = ad.conv2d(x, w, b, padding=1, upsample=True)
            else:
                y = ad.conv2d(ad.upsample_bilinear2x(x), w, b, padding=1)
            g = Tensor(rand(y.shape, 43))
            backward(tape, wmean(y, g.data))
        results.append((y.data, x.grad, w.grad, b.grad))
    assert results[0][0].shape == (1, 32, 32, 3)
    for fused, plain in zip(*results):
        scale = np.abs(plain).max()
        assert np.allclose(fused, plain, rtol=0, atol=1e-5 * scale)


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float32).view(np.uint32)


# (stride, padding, upsample, C_in, C_out, input shape): the row-tap path with
# C_out > C_in and C_out < C_in, the strided path and the upsample path
RELU_CASES = [
    (1, 1, False, 2, 3, (2, 6, 7, 2)),
    (1, 1, False, 4, 2, (4, 6, 7, 2)),
    (2, 2, False, 3, 2, (3, 6, 7)),
    (1, 1, True, 4, 1, (4, 5, 6, 2)),
]


@pytest.mark.parametrize("case", RELU_CASES)
def test_conv2d_relu_epilogue_bitwise_equals_conv_then_relu(case, monkeypatch):
    # conv2d(..., relu=True) against conv2d followed by y * (y > 0), whose
    # backward masks the upstream gradient: values and gradients bit for bit
    stride, padding, up, cin, cout, xshape = case
    for budget in CONV_BUDGETS:
        monkeypatch.setattr(ad, "CONV_BLOCK_BYTES", budget)
        results = []
        for fused in (True, False):
            x = Tensor(rand(xshape, 60), requires_grad=True)
            w = Tensor(rand((cout, cin, 3, 3), 61), requires_grad=True)
            b = Tensor(rand((cout,), 62), requires_grad=True)
            with Tape() as tape:
                if fused:
                    y = ad.conv2d(x, w, b, stride, padding, up, relu=True)
                else:
                    pre = ad.conv2d(x, w, b, stride, padding, up)
                    mask = (pre.data > 0).astype(np.float32)
                    y = ad.closed_form((pre,), pre.data * mask, lambda: (mask,))
                g = Tensor(rand(y.shape, 63))
                backward(tape, wmean(y, g.data))
            results.append((y.data, x.grad, w.grad, b.grad))
        assert (results[1][0] < 0).sum() == 0 and (results[1][0] == 0).any(), case
        for fused, plain in zip(*results):
            assert np.array_equal(_bits(fused), _bits(plain)), (case, budget)


@pytest.mark.parametrize("case", RELU_CASES + [(2, 2, False, 1, 4, (1, 9, 8, 3))])
def test_conv2d_skips_input_gradient_bitwise(case, monkeypatch):
    # an input that takes no gradient, as the network's raw intensity: the
    # backward computes no dX, and dW and db are the full backward's bit for bit
    stride, padding, up, cin, cout, xshape = case
    for budget in CONV_BUDGETS:
        monkeypatch.setattr(ad, "CONV_BLOCK_BYTES", budget)
        results = []
        for needs in (True, False):
            x = Tensor(rand(xshape, 70), requires_grad=needs)
            w = Tensor(rand((cout, cin, 3, 3), 71), requires_grad=True)
            b = Tensor(rand((cout,), 72), requires_grad=True)
            with Tape() as tape:
                y = ad.conv2d(x, w, b, stride, padding, up, relu=True)
                backward(tape, wmean(y, rand(y.shape, 73)))
            assert (x.grad is not None) == needs, case
            results.append((w.grad, b.grad))
        for full, skipped in zip(*results):
            assert np.array_equal(_bits(full), _bits(skipped)), (case, budget)


def test_conv2d_validates_shapes():
    x = Tensor(rand((2, 6, 6), 10))
    with pytest.raises(ValueError):
        ad.conv2d(x, Tensor(rand((3, 2, 3, 5), 11)))  # non-square kernel
    with pytest.raises(ValueError):
        ad.conv2d(x, Tensor(rand((3, 4, 3, 3), 12)))  # channel mismatch
    with pytest.raises(ValueError):
        ad.conv2d(x, Tensor(rand((3, 2, 3, 3), 13)), Tensor(rand((4,), 14)))
    with pytest.raises(ValueError):
        ad.conv2d(Tensor(rand((2, 2, 2), 15)), Tensor(rand((1, 2, 5, 5), 16)))
    with pytest.raises(ValueError):
        ad.conv2d(x, Tensor(rand((3, 2, 3, 3), 13)), stride=2, upsample=True)


def test_concat_channels_and_grad_split():
    a = Tensor(rand((2, 3, 3), 17), requires_grad=True)
    b = Tensor(rand((1, 3, 3), 18), requires_grad=True)
    with Tape() as tape:
        backward(tape, wmean(ad.concat_channels(a, b), np.ones((3, 3, 3))))
    n = 27.0
    assert np.allclose(a.grad, 1 / n, atol=1e-7)
    assert np.allclose(b.grad, 1 / n, atol=1e-7)
    with pytest.raises(ValueError):
        ad.concat_channels(a, Tensor(rand((1, 4, 4), 19)))


def test_upsample_bilinear_exact_on_linear_ramp():
    # bilinear interpolation reproduces an affine ramp away from the borders
    n = 8
    ramp = np.add.outer(np.arange(n, dtype=np.float32), np.zeros(n, np.float32))
    out = ad.upsample_bilinear2x(Tensor(ramp[None])).data[0]
    assert out.shape == (2 * n, 2 * n)
    interior = out[1:-1, 0]
    expected = (np.arange(1, 2 * n - 1) + 0.5) / 2.0 - 0.5
    assert np.allclose(interior, expected, atol=1e-6)


def test_upsample_bilinear2x_matches_matrix_products():
    # Y[c] = U_H @ X[c] @ U_W^T on a non-square grid, for every channel and batch entry
    a, b = (ad._upsample_matrix(n).astype(np.float64) for n in (4, 5))
    x = Tensor(rand((2, 4, 5), 25))
    out = ad.upsample_bilinear2x(x).data
    ref = np.einsum("ph,nhw,qw->npq", a, x.data.astype(np.float64), b)
    assert out.shape == (2, 8, 10)
    assert np.allclose(out, ref, atol=1e-6)
    x4 = Tensor(rand((2, 4, 5, 3), 26))
    ref = np.einsum("ph,chwn,qw->cpqn", a, x4.data.astype(np.float64), b)
    assert np.allclose(ad.upsample_bilinear2x(x4).data, ref, atol=1e-6)
    with pytest.raises(ValueError):
        ad.upsample_bilinear2x(Tensor(rand((4, 5), 27)))  # no channel axis


def test_transpose_routes_gradients():
    x = Tensor(rand((2, 3, 4, 5), 27), requires_grad=True)
    g = rand((5, 2, 3, 4), 28)
    with Tape() as tape:
        y = ad.transpose(x, (3, 0, 1, 2))
        backward(tape, wmean(y, g))
    assert np.array_equal(y.data, x.data.transpose(3, 0, 1, 2))
    assert np.allclose(x.grad, g.transpose(1, 2, 3, 0) / g.size, atol=1e-9)


def test_finite_diff_check_flags_wrong_gradient():
    # an op with a deliberately broken backward must be caught
    def broken_square(t):
        out_data = t.data * t.data

        def bwd(g):
            ad._accum(t, g)  # wrong: missing factor 2x

        return ad._make(out_data, (t,), bwd, "broken")

    x = Tensor(rand((3, 3), 22) + 2.0, requires_grad=True)
    err = finite_diff_check(lambda t: wmean(broken_square(t), np.ones((3, 3))), x)
    assert err > 1e-2


def test_every_tape_op_has_a_gradient_check():
    # each public function that makes tape nodes is checked under its name
    ops = {name for name, fn in vars(ad).items()
           if inspect.isfunction(fn) and not name.startswith("_")
           and "_make(" in inspect.getsource(fn)}
    checked = {name.split("/")[0] for name, *_ in verify.run_gradcheck()}
    assert "conv2d" in ops and "closed_form" in ops
    assert ops <= checked, sorted(ops - checked)


def test_tape_nesting_restores_previous():
    with Tape() as outer:
        with Tape() as inner:
            assert Tape._active is inner
        assert Tape._active is outer
    assert Tape._active is None
