import inspect
import itertools

import numpy as np
import pytest

from ptychokit import autodiff as ad, verify
from ptychokit.autodiff import NonFiniteError, Tape, Tensor, backward, finite_diff_check


def wmean_parts(ys, ws):
    """mean(w * y) over several inputs together, as one closed-form node: a node
    with one gradient per input, as the gradient checks reduce."""
    ws = [np.asarray(w, np.float64) for w in ws]
    n = sum(w.size for w in ws)
    value = sum(np.sum(w * y.data) for y, w in zip(ys, ws)) / n
    return ad.closed_form(ys, value, lambda: tuple(w / n for w in ws))


def wmean(y, w):
    return wmean_parts((y,), (w,))


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
        backward(tape, wmean_parts((ad.tanh(x), ad.scale(x, 2.0)), (w[:1], w[1:])))
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
        backward(tape, wmean_parts((y, a1), (ones, ones)))
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
        b = ad.scale(y, 1.0)
        loss = wmean_parts((a, b), (w[:1], w[1:]))
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


def _upsampled(x):
    """The bilinear 2x upsample of a (C, H, W, N) array."""
    a, b = ad._upsample_matrix(x.shape[1]), ad._upsample_matrix(x.shape[2])
    return ad._separable(x, a, b)


def upsample(x):
    """`_upsampled` of a tensor as a tape op of its own, the adjoint being
    `_separable` with the transposed matrices: the reference for
    conv2d(..., upsample=True)."""
    a, b = ad._upsample_matrix(x.shape[1]), ad._upsample_matrix(x.shape[2])
    return ad._make(_upsampled(x.data), (x,),
                    lambda g: ad._accum(x, ad._separable(g, a.T, b.T)), "upsample")


@pytest.mark.parametrize("n_c", [4, 32])
def test_conv2d_upsample_equals_conv_of_upsampled(n_c):
    # the decoder tail: 3x3 conv to one channel of a 2*n_c-channel map upsampled
    # from 16 x 16. At n_c = 32 the taps are mixed before upsampling (the output
    # side, 9 < 64 input channels); at n_c = 4 the conv takes the input side.
    results = []
    for fused in (True, False):
        x = Tensor(rand((2 * n_c, 16, 16, 3), 40), requires_grad=True)
        w = Tensor(rand((1, 2 * n_c, 3, 3), 41), requires_grad=True)
        b = Tensor(rand((1,), 42), requires_grad=True)
        with Tape() as tape:
            if fused:
                y = ad.conv2d(x, w, b, padding=1, upsample=True)
            else:
                y = ad.conv2d(upsample(x), w, b, padding=1)
            g = Tensor(rand(y.shape, 43))
            backward(tape, wmean(y, g.data))
        results.append((y.data, x.grad, w.grad, b.grad))
    assert results[0][0].shape == (1, 32, 32, 3)
    for fused, plain in zip(*results):
        scale = np.abs(plain).max()
        assert np.allclose(fused, plain, rtol=0, atol=1e-5 * scale)


# (part channels, C_out, relu): the input side of conv2d(..., upsample=True),
# k*k*C_out >= C_in, over one map (a decoder's b3c1) and over an upsampled map
# and the skip features (its b2c1)
UPSAMPLE_INPUT_CASES = [((3,), 2, True), ((3, 2), 2, True), ((2, 3), 4, False)]


def test_conv2d_upsample_input_side_bitwise_equals_upsample_then_conv(monkeypatch):
    # values and every gradient bit for bit: the same upsampling and row taps,
    # the upsampled map made again in the backward instead of kept
    for budget, case in itertools.product(CONV_BUDGETS, UPSAMPLE_INPUT_CASES):
        chans, cout, relu = case
        monkeypatch.setattr(ad, "CONV_BLOCK_BYTES", budget)
        results = []
        for fused in (True, False):
            xs = [Tensor(rand((c,) + ((4, 5) if i == 0 else (8, 10)) + (2,), 100 + i),
                         requires_grad=True) for i, c in enumerate(chans)]
            w = Tensor(rand((cout, sum(chans), 3, 3), 110), requires_grad=True)
            b = Tensor(rand((cout,), 111), requires_grad=True)
            with Tape() as tape:
                if fused:
                    y = ad.conv2d(tuple(xs) if len(xs) > 1 else xs[0], w, b, padding=1,
                                  upsample=True, relu=relu)
                    assert len(tape.nodes) == 1
                else:
                    y = ad.conv2d(tuple([upsample(xs[0])] + xs[1:]), w, b, padding=1,
                                  relu=relu)
                backward(tape, wmean(y, rand(y.shape, 112)))
            results.append([y.data, w.grad, b.grad] + [x.grad for x in xs])
        assert results[0][0].shape == (cout, 8, 10, 2), case
        for fused, plain in zip(*results):
            assert np.array_equal(_bits(fused), _bits(plain)), (case, budget)


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float32).view(np.uint32)


# (stride, padding, upsample, C_in, C_out, input shape): the row-tap path with
# C_out > C_in and C_out < C_in, the strided path, and the upsample path on its
# input side (9 * C_out >= C_in) and its output side (9 * C_out < C_in)
RELU_CASES = [
    (1, 1, False, 2, 3, (2, 6, 7, 2)),
    (1, 1, False, 4, 2, (4, 6, 7, 2)),
    (2, 2, False, 3, 2, (3, 6, 7)),
    (1, 1, True, 4, 1, (4, 5, 6, 2)),
    (1, 1, True, 10, 1, (10, 5, 6, 2)),
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
    # a tuple of parts: stride 1, and parts of one H, W and N, the first one's
    # doubled if it is upsampled
    a, b = Tensor(rand((2, 6, 6, 2), 20)), Tensor(rand((1, 6, 6, 2), 21))
    w3 = Tensor(rand((2, 3, 3, 3), 22))
    for bad in (dict(x=(a, b), stride=2), dict(x=(a, b), upsample=True),
                dict(x=(a, Tensor(rand((1, 5, 6, 2), 23)))),   # H
                dict(x=(a, Tensor(rand((1, 6, 5, 2), 24)))),   # W
                dict(x=(a, Tensor(rand((1, 6, 6, 3), 25)))),   # N
                dict(x=(a, b, b))):                            # channels
        with pytest.raises(ValueError):
            ad.conv2d(w=w3, padding=1, **bad)


# (k, padding, part channels, relu, bias, batched): the decoders' b2c1 (upsampled
# map and skip features, 3x3), the fusion (1x1 over the encoders' features, no
# bias), a three-encoder fusion, and 3x3 over a single part
PARTS_CASES = [
    (3, 1, (3, 2), True, True, True),
    (1, 0, (4, 4), False, False, True),
    (1, 0, (2, 3, 2), False, False, True),
    (3, 1, (2, 1), True, True, False),
    (3, 1, (3,), True, True, True),
]


def test_conv2d_over_parts_bitwise_equals_conv_of_concatenation(monkeypatch):
    # values and every gradient, each part's against its channel slice of the
    # concatenated input's, bit for bit: the same row taps, built per part
    for budget, case in itertools.product(CONV_BUDGETS, PARTS_CASES):
        k, padding, chans, relu, bias, batched = case
        cin = sum(chans)
        monkeypatch.setattr(ad, "CONV_BLOCK_BYTES", budget)
        results = []
        for split in (True, False):
            xs = [Tensor(rand((c, 6, 7, 2) if batched else (c, 6, 7), 80 + i),
                         requires_grad=True) for i, c in enumerate(chans)]
            cat = Tensor(np.concatenate([x.data for x in xs]), requires_grad=True)
            w = Tensor(rand((3, cin, k, k), 90), requires_grad=True)
            b = Tensor(rand((3,), 91), requires_grad=True) if bias else None
            with Tape() as tape:
                y = ad.conv2d(tuple(xs) if split else cat, w, b, padding=padding, relu=relu)
                backward(tape, wmean(y, rand(y.shape, 92)))
            dx = [x.grad for x in xs] if split else np.split(cat.grad, np.cumsum(chans)[:-1])
            results.append([y.data, w.grad] + ([b.grad] if bias else []) + list(dx))
        assert results[0][0].shape[0] == 3, case
        for split, whole in zip(*results):
            assert np.array_equal(_bits(split), _bits(whole)), (case, budget)


def test_upsample_bilinear_exact_on_linear_ramp():
    # bilinear interpolation reproduces an affine ramp away from the borders
    n = 8
    ramp = np.add.outer(np.arange(n, dtype=np.float32), np.zeros(n, np.float32))
    out = _upsampled(ramp[None, :, :, None])[0, :, :, 0]
    assert out.shape == (2 * n, 2 * n)
    interior = out[1:-1, 0]
    expected = (np.arange(1, 2 * n - 1) + 0.5) / 2.0 - 0.5
    assert np.allclose(interior, expected, atol=1e-6)


def test_upsample_matrix_separable_matches_matrix_products():
    # Y[c] = U_H @ X[c] @ U_W^T on a non-square grid, for every channel and batch
    # entry, N = 1 (one GEMM along W) included
    a, b = (ad._upsample_matrix(n).astype(np.float64) for n in (4, 5))
    for n in (1, 3):
        x = rand((2, 4, 5, n), 25 + n)
        ref = np.einsum("ph,chwn,qw->cpqn", a, x.astype(np.float64), b)
        out = _upsampled(x)
        assert out.shape == (2, 8, 10, n)
        assert np.allclose(out, ref, atol=1e-6)


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


def test_every_tape_op_has_a_gradient_check(monkeypatch):
    # each public function that makes tape nodes is checked under its name; only
    # the names are needed, so no check runs (criterion 1 runs them all)
    monkeypatch.setattr(verify, "finite_diff_check", lambda *a, **k: 0.0)
    monkeypatch.setattr(verify, "model_gradcheck", lambda **k: [])
    ops = {name for name, fn in vars(ad).items()
           if inspect.isfunction(fn) and not name.startswith("_")
           and "_make" in inspect.unwrap(fn).__code__.co_names}
    checked = {name.split("/")[0] for name, *_ in verify.run_gradcheck()}
    assert "conv2d" in ops and "closed_form" in ops
    assert ops <= checked, sorted(ops - checked)


def test_tape_nesting_restores_previous():
    with Tape() as outer:
        with Tape() as inner:
            assert Tape._active is inner
        assert Tape._active is outer
    assert Tape._active is None
