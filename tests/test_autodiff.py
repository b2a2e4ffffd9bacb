import numpy as np
import pytest

from ptychokit import autodiff as ad
from ptychokit.autodiff import NonFiniteError, Tape, Tensor, backward, finite_diff_check


def rand(shape, seed, lo=-1.0, hi=1.0):
    return np.random.default_rng(seed).uniform(lo, hi, shape).astype(np.float32)


def test_tensor_storage_is_f32():
    t = Tensor(np.arange(4.0))
    assert t.data.dtype == np.float32
    assert t.shape == (4,)
    assert not t.requires_grad


def test_elementwise_forward_values():
    a = Tensor(rand((3, 3), 0))
    b = Tensor(rand((3, 3), 1) + 2.0)
    assert np.allclose(ad.add(a, b).data, a.data + b.data)
    assert np.allclose(ad.sub(a, b).data, a.data - b.data)
    assert np.allclose(ad.mul(a, b).data, a.data * b.data)
    assert np.allclose(ad.div(a, b).data, a.data / b.data)
    assert np.allclose(ad.square(a).data, a.data ** 2)
    assert np.allclose(ad.scale(a, 2.5).data, 2.5 * a.data)
    assert np.allclose(ad.add_const(a, 1.5).data, a.data + 1.5)
    assert np.allclose(ad.relu(a).data, np.maximum(a.data, 0))
    assert np.allclose(ad.tanh(a).data, np.tanh(a.data))
    assert np.allclose(ad.abs_(a).data, np.abs(a.data))
    assert np.allclose(ad.sigmoid(a).data, 1 / (1 + np.exp(-a.data.astype(np.float64))),
                       atol=1e-7)


def test_backward_accumulates_through_reuse():
    # loss = mean(x*x + x) -> grad = (2x + 1)/n
    x = Tensor(rand((4,), 2), requires_grad=True)
    with Tape() as tape:
        y = ad.reduce_mean(ad.add(ad.mul(x, x), x))
        backward(tape, y)
    assert np.allclose(x.grad, (2 * x.data + 1) / 4, atol=1e-6)


def test_backward_requires_scalar():
    x = Tensor(rand((3,), 3), requires_grad=True)
    with Tape() as tape:
        y = ad.square(x)
    with pytest.raises(ValueError):
        backward(tape, y)


def test_nonfinite_forward_raises():
    a = Tensor(np.array([1.0, 0.0], dtype=np.float32))
    b = Tensor(np.array([0.0, 0.0], dtype=np.float32))
    with pytest.raises(NonFiniteError):
        ad.div(a, b)


def test_conv2d_matches_direct_loop():
    x = Tensor(rand((2, 6, 6), 7))
    w = Tensor(rand((3, 2, 3, 3), 8))
    b = Tensor(rand((3,), 9))
    out = ad.conv2d(x, w, b, stride=2, padding=1).data
    xp = np.pad(x.data, ((0, 0), (1, 1), (1, 1))).astype(np.float64)
    ref = np.zeros((3, 3, 3))
    for o in range(3):
        for i in range(3):
            for j in range(3):
                patch = xp[:, 2 * i:2 * i + 3, 2 * j:2 * j + 3]
                ref[o, i, j] = np.sum(patch * w.data[o].astype(np.float64)) + b.data[o]
    assert out.shape == (3, 3, 3)
    assert np.allclose(out, ref, atol=1e-4)


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


def test_concat_channels_and_grad_split():
    a = Tensor(rand((2, 3, 3), 17), requires_grad=True)
    b = Tensor(rand((1, 3, 3), 18), requires_grad=True)
    with Tape() as tape:
        y = ad.reduce_mean(ad.concat_channels(a, b))
        backward(tape, y)
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


def test_separable_matches_matrix_products():
    a, b = rand((3, 4), 23), rand((6, 5), 24)
    x = Tensor(rand((2, 4, 5), 25))
    out = ad.separable(x, a, b).data
    ref = np.einsum("ph,nhw,qw->npq", a.astype(np.float64), x.data.astype(np.float64),
                    b.astype(np.float64))
    assert out.shape == (2, 3, 6)
    assert np.allclose(out, ref, atol=1e-5)
    with pytest.raises(ValueError):
        ad.separable(x, b, a)  # matrices do not fit the 4 x 5 grid


def test_diff_ops():
    x = Tensor(rand((4, 5), 20))
    assert np.allclose(ad.diff_h(x).data, np.diff(x.data, axis=-1))
    assert np.allclose(ad.diff_v(x).data, np.diff(x.data, axis=-2))
    with pytest.raises(ValueError):
        ad.diff_h(Tensor(rand((4, 1), 21)))


def test_reduce_mean_empty_raises():
    with pytest.raises(ValueError):
        ad.reduce_mean(Tensor(np.zeros((0, 3), np.float32)))


def test_finite_diff_check_flags_wrong_gradient():
    # an op with a deliberately broken backward must be caught
    def broken_square(t):
        out_data = t.data * t.data

        def bwd(g):
            ad._accum(t, g)  # wrong: missing factor 2x

        return ad._make(out_data, (t,), bwd, "broken")

    x = Tensor(rand((3, 3), 22) + 2.0, requires_grad=True)
    err = finite_diff_check(lambda t: ad.reduce_mean(broken_square(t)), x)
    assert err > 1e-2


def test_tape_nesting_restores_previous():
    with Tape() as outer:
        with Tape() as inner:
            assert Tape._active is inner
        assert Tape._active is outer
    assert Tape._active is None
