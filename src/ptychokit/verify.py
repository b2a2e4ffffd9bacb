"""Finite-difference verification suite for every differentiable op and loss."""

import numpy as np

from . import autodiff as ad, circphase, losses, model
from .autodiff import Tensor, finite_diff_check

OP_TOL = 1e-3
MODEL_TOL = 1e-2
STEP = 1e-3
RELU_MARGIN = 0.05  # least |pre-activation| in the ReLU checks


def _rand(shape, seed, lo=-1.0, hi=1.0):
    return np.random.default_rng(seed).uniform(lo, hi, size=shape).astype(np.float32)


def _wmean(y):
    """mean(w * y) in float64 as one node, w a fixed weight in [-1, 1) of y's
    shape: a mean keeps the checked value O(1), and a non-uniform w makes a
    misrouted gradient show."""
    w = _rand(y.shape, 0).astype(np.float64)
    return ad.closed_form((y,), np.mean(w * y.data), lambda: (w / w.size,))


def run_gradcheck(verbose=False):
    """Returns [(name, max_rel_err, tol, ok)] for the whole differentiable surface."""
    results = []

    def check(name, f, x, tol=OP_TOL, indices=None):
        err = finite_diff_check(f, x, step=STEP, indices=indices)
        results.append((name, err, tol, err < tol))
        if verbose:
            status = "pass" if err < tol else "FAIL"
            print(f"  {status}  {name}: {err:.2e} (tol {tol:g})")

    check("scale", lambda x: _wmean(ad.scale(x, -2.5)), Tensor(_rand((4, 4), 2), True))
    check("tanh", lambda x: _wmean(ad.tanh(x)), Tensor(_rand((4, 4), 10), True))
    check("sigmoid", lambda x: _wmean(ad.sigmoid(x)), Tensor(_rand((4, 4), 11), True))
    # a product node over two inputs, the second also taking a gradient
    y = Tensor(_rand((4, 4), 7) + 2.0, True)
    check("closed_form",
          lambda x: _wmean(ad.closed_form((x, y), x.data * y.data, lambda: (y.data, x.data))),
          Tensor(_rand((4, 4), 3), True))
    check("upsample_bilinear2x", lambda x: _wmean(ad.upsample_bilinear2x(x)),
          Tensor(_rand((2, 4, 4), 15), True))
    # non-square grids in a (C, H, W, N) batch: shows swapped axes
    check("upsample_bilinear2x/batch", lambda x: _wmean(ad.upsample_bilinear2x(x)),
          Tensor(_rand((2, 3, 5, 2), 38), True))
    check("transpose", lambda x: _wmean(ad.transpose(x, (3, 0, 1, 2))),
          Tensor(_rand((2, 3, 4, 5), 52), True))

    w = Tensor(_rand((3, 2, 3, 3), 16), True)
    b = Tensor(_rand((3,), 17), True)
    xin = Tensor(_rand((2, 6, 6), 18), True)
    check("conv2d/input", lambda x: _wmean(ad.conv2d(x, w, b, 1, 1)), xin)
    check("conv2d/weight", lambda _: _wmean(ad.conv2d(xin, w, b, 1, 1)), w)
    check("conv2d/bias", lambda _: _wmean(ad.conv2d(xin, w, b, 1, 1)), b)
    # the other conv shapes the model uses: strided encoder convs (im2col
    # blocks), a decoder conv with C_out < C_in (row taps, like the checks above,
    # here over a (C, H, W, N) batch), the bias-free 1x1 fusion (row taps with
    # k = 1), and the decoder tail (the upsample path: a conv of the upsampled
    # map, taps shifted on the output side and mixed before upsampling)
    for label, wshape, bias, xshape, stride, pad, up, seed in (
            ("strided", (3, 2, 5, 5), True, (2, 7, 7), 2, 2, False, 39),
            ("narrow_out", (2, 4, 3, 3), True, (4, 5, 5, 2), 1, 1, False, 42),
            ("1x1", (2, 4, 1, 1), False, (4, 3, 3), 1, 0, False, 45),
            ("upsample", (1, 4, 3, 3), True, (4, 3, 4, 2), 1, 1, True, 48)):
        wc = Tensor(_rand(wshape, seed), True)
        bc = Tensor(_rand(wshape[:1], seed + 1), True) if bias else None
        xc = Tensor(_rand(xshape, seed + 2), True)

        def conv_loss(xv, wv):  # used only within this iteration
            return _wmean(ad.conv2d(xv, wv, bc, stride, pad, up))

        check(f"conv2d/{label}/input", lambda x: conv_loss(x, wc), xc)
        check(f"conv2d/{label}/weight", lambda wv: conv_loss(xc, wv), wc)
    # conv2d with the ReLU epilogue, on two row-tap shapes: C_out > C_in and
    # C_out < C_in.
    # Inputs are multiples of 1/2, weights of 1/4 and biases odd multiples of
    # 1/16, so every pre-activation is an odd multiple of 1/16: a STEP change of
    # one input or weight cannot carry it across the kink.
    for label, wshape, xshape, seed in (("", (3, 2, 3, 3), (2, 5, 5), 55),
                                        ("narrow_out/", (2, 4, 3, 3), (4, 5, 5, 2), 58)):
        rng = np.random.default_rng(seed)
        wr = Tensor(rng.integers(-2, 3, wshape) / 4.0, True)
        br = Tensor((2 * rng.integers(-2, 2, wshape[:1]) + 1) / 16.0)
        xr = Tensor(rng.integers(-2, 3, xshape) / 2.0, True)
        pre = ad.conv2d(xr, wr, br, 1, 1).data
        margin = np.abs(pre).min()
        assert margin >= RELU_MARGIN, f"conv2d/relu/{label}: pre-activation margin {margin}"

        def relu_loss(xv, wv):  # used only within this iteration
            return _wmean(ad.conv2d(xv, wv, br, 1, 1, relu=True))

        check(f"conv2d/relu/{label}input", lambda x: relu_loss(x, wr), xr)
        check(f"conv2d/relu/{label}weight", lambda wv: relu_loss(xr, wv), wr)
    other = Tensor(_rand((2, 4, 4), 19))
    check("concat_channels", lambda x: _wmean(ad.concat_channels(x, other)),
          Tensor(_rand((1, 4, 4), 20), True))

    # the unit projection, each input with the other also taking a gradient
    c_in, s_in = (Tensor(_rand((8, 8), seed, -0.9, 0.9), True) for seed in (29, 28))
    check("unit_project/c",
          lambda x: _wmean(ad.concat_channels(*circphase.unit_project(x, s_in))), c_in)
    check("unit_project/s",
          lambda x: _wmean(ad.concat_channels(*circphase.unit_project(c_in, x))), s_in)

    # losses; the scalar_phase objective (raw angles) with respect to each head,
    # the other also taking a gradient
    a_t, phi_t = _rand((2, 1, 8, 8), 23, 0.0, 1.0), _rand((2, 1, 8, 8), 21, -3.0, 3.0)
    a_hat = Tensor(_rand((2, 1, 8, 8), 24, 0.0, 1.0), True)
    phi_hat = Tensor(_rand((2, 1, 8, 8), 22, -3.0, 3.0), True)
    check("scalar_phase_loss/a_hat",
          lambda x: losses.scalar_phase_loss(a_t, x, phi_t, phi_hat)[0], a_hat)
    check("scalar_phase_loss/phi_hat",
          lambda x: losses.scalar_phase_loss(a_t, a_hat, phi_t, x)[0], phi_hat)
    tgt12 = Tensor(_rand((12, 12), 25, 0.0, 1.0))
    check("ssim", lambda x: losses.ssim(tgt12, x), Tensor(_rand((12, 12), 26, 0.0, 1.0), True))
    # non-square grids in a stack: shows swapped blur axes or a wrong mean count
    tgt_stack = Tensor(_rand((3, 1, 12, 13), 54, 0.0, 1.0))
    check("ssim/stack", lambda x: losses.ssim(tgt_stack, x),
          Tensor(_rand((3, 1, 12, 13), 53, 0.0, 1.0), True))
    c_t, s_t = circphase.embed(_rand((8, 8), 27, -3.0, 3.0))

    # circular loss through unit projection, w.r.t. pre-projection coordinates
    s_pre_fixed = Tensor(_rand((8, 8), 28, -0.9, 0.9))

    def circ_loss_wrt_c(c_pre):
        cp, sp = circphase.unit_project(c_pre, s_pre_fixed)
        return losses.circular_loss(c_t, cp, s_t, sp)

    check("circular_loss/projection", circ_loss_wrt_c,
          Tensor(_rand((8, 8), 29, -0.9, 0.9), True))

    # total_loss w.r.t. each head, the pre-projection ones through unit_project.
    # Each head is its target plus a ramp, so the residuals' forward differences
    # (0.05 +- 0.01) stay off the L1 kink; the non-square stack would show
    # swapped blur or difference axes.
    for shape, seed in (((12, 12), 31), ((3, 1, 12, 13), 61)):
        ramp = 0.05 * np.add.outer(np.arange(shape[-2]), np.arange(shape[-1]))
        tgts = (_rand(shape, seed, 0.0, 1.0),) + circphase.embed(_rand(shape, seed + 1, -3.0, 3.0))
        pre = [Tensor(t + ramp + _rand(shape, seed + 2 + i, -0.005, 0.005))
               for i, t in enumerate(tgts)]
        heads = pre + list(circphase.unit_project(pre[1], pre[2]))

        def total(i, x):  # head i replaced by x; used only within this iteration
            h = heads[:i] + [x] + heads[i + 1:]
            if i < 3:
                h[3:] = circphase.unit_project(h[1], h[2])
            return losses.total_loss(tgts[0], h[0], tgts[1], h[1], tgts[2], h[2], *h[3:])[0]

        for i, name in enumerate(("a_hat", "c_pre", "s_pre", "c_proj", "s_proj")):
            check(f"total_loss/{name}/{'x'.join(map(str, shape))}", lambda v: total(i, v),
                  Tensor(heads[i].data.copy(), True))

    # full model: sampled weight subsets, f32 tolerance
    results.extend(model_gradcheck(verbose=verbose))
    return results


def model_gradcheck(n_c=4, n_indices=16, verbose=False):
    cfg = model.ModelConfig(n_c=n_c, i_max=1.0, seed=3)
    params = model.init_params(cfg)
    rng = np.random.default_rng(42)
    intensity = rng.uniform(0.0, 1.0, size=(32, 32)).astype(np.float32)
    phi = rng.uniform(-np.pi, np.pi, size=(32, 32)).astype(np.float32)
    c, s = circphase.embed(phi)
    a = rng.uniform(0.0, 1.0, size=(32, 32)).astype(np.float32)
    a_t = Tensor(a[None, None])
    c_t, s_t = Tensor(c[None, None]), Tensor(s[None, None])

    def full_loss(_):
        out = model.forward(intensity, params, cfg)
        total, _bd = losses.total_loss(a_t, out["amp"], c_t, out["c_pre"],
                                       s_t, out["s_pre"], out["c_proj"], out["s_proj"])
        return total

    results = []
    for pname in ("enc0_c1.w", "dec_cos_b3c2.w"):
        t = params.tensors[pname]
        idx = rng.choice(t.size, size=min(n_indices, t.size), replace=False)
        err = finite_diff_check(full_loss, t, step=STEP, indices=[int(i) for i in idx])
        results.append((f"model/{pname}", err, MODEL_TOL, err < MODEL_TOL))
    # The checks above are absolute for weight gradients far below 1; along the
    # gradient's own direction the error is relative to its norm.
    for pname in ("enc0_c1.w", "dec_cos_b3c2.w", "dec_cos_out.w"):
        err = _directional_error(full_loss, params.tensors[pname])
        results.append((f"model/{pname}/direction", err, MODEL_TOL, err < MODEL_TOL))
    if verbose:
        for name, err, tol, ok in results:
            print(f"  {'pass' if ok else 'FAIL'}  {name}: {err:.2e} (tol {tol:g})")
    return results


def _directional_error(f, x, step=STEP):
    """|‖g‖ - D| / ‖g‖, with g the analytic gradient of scalar f at x and D the
    central difference of f along g / ‖g‖."""
    x.zero_grad()
    with ad.Tape() as tape:
        ad.backward(tape, f(x))
    g = x.grad.astype(np.float64)
    norm = np.linalg.norm(g)
    u = (g / norm).astype(np.float32)
    orig = x.data.copy()
    x.data[...] = orig + np.float32(step) * u
    fp = f(x).item()
    x.data[...] = orig - np.float32(step) * u
    fm = f(x).item()
    x.data[...] = orig
    return abs((fp - fm) / (2.0 * step) - norm) / norm
