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


def run_gradcheck(verbose=False):
    """Returns [(name, max_rel_err, tol, ok)] for the whole differentiable surface."""
    results = []

    def check(name, f, x, tol=OP_TOL, indices=None):
        err = finite_diff_check(f, x, step=STEP, indices=indices)
        results.append((name, err, tol, err < tol))
        if verbose:
            status = "pass" if err < tol else "FAIL"
            print(f"  {status}  {name}: {err:.2e} (tol {tol:g})")

    y = Tensor(_rand((4, 4), 7) + 2.0)  # positive partner operand

    check("add", lambda x: ad.reduce_mean(ad.add(x, y)), Tensor(_rand((4, 4), 1), True))
    check("sub", lambda x: ad.reduce_mean(ad.sub(x, y)), Tensor(_rand((4, 4), 2), True))
    check("mul", lambda x: ad.reduce_mean(ad.mul(x, y)), Tensor(_rand((4, 4), 3), True))
    check("div", lambda x: ad.reduce_mean(ad.div(x, y)), Tensor(_rand((4, 4), 4), True))
    check("square", lambda x: ad.reduce_mean(ad.square(x)), Tensor(_rand((4, 4), 5), True))
    check("sqrt_eps", lambda x: ad.reduce_mean(ad.sqrt_eps(x)),
          Tensor(_rand((4, 4), 6, 0.2, 2.0), True))
    # keep abs inputs away from the kink
    check("abs", lambda x: ad.reduce_mean(ad.abs_(x)),
          Tensor(_rand((4, 4), 9) + np.float32(2.0), True))
    check("tanh", lambda x: ad.reduce_mean(ad.tanh(x)), Tensor(_rand((4, 4), 10), True))
    check("sigmoid", lambda x: ad.reduce_mean(ad.sigmoid(x)), Tensor(_rand((4, 4), 11), True))
    check("reduce_mean", ad.reduce_mean, Tensor(_rand((3, 3), 12), True))
    check("diff_h", lambda x: ad.reduce_mean(ad.square(ad.diff_h(x))),
          Tensor(_rand((5, 5), 13), True))
    check("diff_v", lambda x: ad.reduce_mean(ad.square(ad.diff_v(x))),
          Tensor(_rand((5, 5), 14), True))
    check("upsample_bilinear2x",
          lambda x: ad.reduce_mean(ad.square(ad.upsample_bilinear2x(x))),
          Tensor(_rand((2, 4, 4), 15), True))
    # non-square grids in a (C, H, W, N) batch: shows swapped axes
    check("upsample_bilinear2x/batch",
          lambda x: ad.reduce_mean(ad.square(ad.upsample_bilinear2x(x))),
          Tensor(_rand((2, 3, 5, 2), 38), True))
    # a fixed non-uniform weight on the result, so a wrong inverse permutation
    # shows in the gradient
    perm_w = Tensor(_rand((5, 2, 3, 4), 51))
    check("transpose",
          lambda x: ad.reduce_mean(ad.mul(ad.square(ad.transpose(x, (3, 0, 1, 2))), perm_w)),
          Tensor(_rand((2, 3, 4, 5), 52), True))

    w = Tensor(_rand((3, 2, 3, 3), 16), True)
    b = Tensor(_rand((3,), 17), True)
    xin = Tensor(_rand((2, 6, 6), 18), True)
    check("conv2d/input", lambda x: ad.reduce_mean(ad.square(ad.conv2d(x, w, b, 1, 1))), xin)
    check("conv2d/weight", lambda _: ad.reduce_mean(ad.square(ad.conv2d(xin, w, b, 1, 1))), w)
    check("conv2d/bias", lambda _: ad.reduce_mean(ad.square(ad.conv2d(xin, w, b, 1, 1))), b)
    # the other conv shapes the model uses: strided encoder convs, decoder convs
    # with C_out < C_in (taps shifted on the output side, here over a (C, H, W, N)
    # batch), the bias-free 1x1 fusion, and the decoder tail (a conv of the
    # upsampled map, taps mixed before upsampling)
    for label, wshape, bias, xshape, stride, pad, up, seed in (
            ("strided", (3, 2, 5, 5), True, (2, 7, 7), 2, 2, False, 39),
            ("narrow_out", (2, 4, 3, 3), True, (4, 5, 5, 2), 1, 1, False, 42),
            ("1x1", (2, 4, 1, 1), False, (4, 3, 3), 1, 0, False, 45),
            ("upsample", (1, 4, 3, 3), True, (4, 3, 4, 2), 1, 1, True, 48)):
        wc = Tensor(_rand(wshape, seed), True)
        bc = Tensor(_rand(wshape[:1], seed + 1), True) if bias else None
        xc = Tensor(_rand(xshape, seed + 2), True)

        def conv_loss(xv, wv):  # used only within this iteration
            return ad.reduce_mean(ad.square(ad.conv2d(xv, wv, bc, stride, pad, up)))

        check(f"conv2d/{label}/input", lambda x: conv_loss(x, wc), xc)
        check(f"conv2d/{label}/weight", lambda wv: conv_loss(xc, wv), wc)
    # conv2d with the ReLU epilogue, on an input-side and an output-side shape.
    # Inputs are multiples of 1/2, weights of 1/4 and biases odd multiples of
    # 1/16, so every pre-activation is an odd multiple of 1/16: a STEP change of
    # one input or weight cannot carry it across the kink. The result is weighed
    # linearly (a square would zero the gradient where the ReLU is off anyway).
    for label, wshape, xshape, seed in (("", (3, 2, 3, 3), (2, 5, 5), 55),
                                        ("narrow_out/", (2, 4, 3, 3), (4, 5, 5, 2), 58)):
        rng = np.random.default_rng(seed)
        wr = Tensor(rng.integers(-2, 3, wshape) / 4.0, True)
        br = Tensor((2 * rng.integers(-2, 2, wshape[:1]) + 1) / 16.0)
        xr = Tensor(rng.integers(-2, 3, xshape) / 2.0, True)
        pre = ad.conv2d(xr, wr, br, 1, 1).data
        margin = np.abs(pre).min()
        assert margin >= RELU_MARGIN, f"conv2d/relu/{label}: pre-activation margin {margin}"
        gr = Tensor(_rand(pre.shape, seed + 1))

        def relu_loss(xv, wv):  # used only within this iteration
            return ad.reduce_mean(ad.mul(ad.conv2d(xv, wv, br, 1, 1, relu=True), gr))

        check(f"conv2d/relu/{label}input", lambda x: relu_loss(x, wr), xr)
        check(f"conv2d/relu/{label}weight", lambda wv: relu_loss(xr, wv), wr)
    other = Tensor(_rand((2, 4, 4), 19))
    check("concat_channels",
          lambda x: ad.reduce_mean(ad.square(ad.concat_channels(x, other))),
          Tensor(_rand((1, 4, 4), 20), True))

    # losses
    tgt8 = Tensor(_rand((8, 8), 21, 0.0, 1.0))
    check("mse", lambda x: losses.mse(tgt8, x), Tensor(_rand((8, 8), 22, 0.0, 1.0), True))
    check("mae", lambda x: losses.mae(tgt8, x),
          Tensor(_rand((8, 8), 23, 2.0, 3.0), True))  # offset: away from zero residuals
    # ramp keeps the residual's forward differences away from the abs kink
    ramp = np.add.outer(np.arange(8), np.arange(8)).astype(np.float32)
    check("grad_loss", lambda x: losses.grad_loss(tgt8, x),
          Tensor(ramp + 0.1 * _rand((8, 8), 24), True))
    tgt12 = Tensor(_rand((12, 12), 25, 0.0, 1.0))
    check("ssim", lambda x: losses.ssim(tgt12, x), Tensor(_rand((12, 12), 26, 0.0, 1.0), True))
    # non-square grids in a stack: shows swapped blur axes or a wrong mean count
    tgt_stack = Tensor(_rand((3, 1, 12, 13), 54, 0.0, 1.0))
    check("ssim/stack", lambda x: losses.ssim(tgt_stack, x),
          Tensor(_rand((3, 1, 12, 13), 53, 0.0, 1.0), True))
    phi = _rand((8, 8), 27, -3.0, 3.0)
    cg, sg = circphase.embed(phi)
    c_t, s_t = Tensor(cg), Tensor(sg)

    # circular loss through unit projection, w.r.t. pre-projection coordinates
    s_pre_fixed = Tensor(_rand((8, 8), 28, -0.9, 0.9))

    def circ_loss_wrt_c(c_pre):
        cp, sp = circphase.unit_project(c_pre, s_pre_fixed)
        return losses.circular_loss(c_t, cp, s_t, sp)

    check("circular_loss/projection", circ_loss_wrt_c,
          Tensor(_rand((8, 8), 29, -0.9, 0.9), True))
    check("consistency_loss", lambda x: losses.consistency_loss(x, s_pre_fixed),
          Tensor(_rand((8, 8), 30, -0.9, 0.9), True))

    a12 = Tensor(_rand((12, 12), 31, 0.0, 1.0))
    phi12 = _rand((12, 12), 32, -3.0, 3.0)
    c12, s12 = (Tensor(v) for v in circphase.embed(phi12))
    s_fixed12 = Tensor(_rand((12, 12), 33, -0.9, 0.9))
    ahat12 = Tensor(_rand((12, 12), 34, 0.1, 0.9))

    def total_wrt_c(c_pre):
        cp, sp = circphase.unit_project(c_pre, s_fixed12)
        total, _ = losses.total_loss(a12, ahat12, c12, c_pre, s12, s_fixed12, cp, sp)
        return total

    check("total_loss/pre-projection", total_wrt_c,
          Tensor(_rand((12, 12), 35, -0.9, 0.9), True))

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
