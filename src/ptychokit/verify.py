"""Finite-difference verification suite for every differentiable op and loss."""

import numpy as np

from . import autodiff as ad, circphase, losses, model
from .autodiff import Tensor, finite_diff_check

OP_TOL = 1e-3
MODEL_TOL = 1e-2
STEP = 1e-3


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
    # keep relu/abs inputs away from their kinks
    check("relu", lambda x: ad.reduce_mean(ad.relu(x)),
          Tensor(_rand((4, 4), 8) + np.float32(0.5), True))
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
    sep_a, sep_b = _rand((3, 4), 36), _rand((6, 5), 37)
    check("separable", lambda x: ad.reduce_mean(ad.square(ad.separable(x, sep_a, sep_b))),
          Tensor(_rand((2, 4, 5), 38), True))

    w = Tensor(_rand((3, 2, 3, 3), 16), True)
    b = Tensor(_rand((3,), 17), True)
    xin = Tensor(_rand((2, 6, 6), 18), True)
    check("conv2d/input", lambda x: ad.reduce_mean(ad.square(ad.conv2d(x, w, b, 1, 1))), xin)
    check("conv2d/weight", lambda _: ad.reduce_mean(ad.square(ad.conv2d(xin, w, b, 1, 1))), w)
    check("conv2d/bias", lambda _: ad.reduce_mean(ad.square(ad.conv2d(xin, w, b, 1, 1))), b)
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
        ok = err < MODEL_TOL
        results.append((f"model/{pname}", err, MODEL_TOL, ok))
        if verbose:
            print(f"  {'pass' if ok else 'FAIL'}  model/{pname}: {err:.2e} (tol {MODEL_TOL:g})")
    return results
