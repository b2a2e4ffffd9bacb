import dataclasses
import importlib.util
import itertools
import os

import numpy as np
import pytest

from ptychokit import circphase, losses, model
from ptychokit.autodiff import Tape, Tensor, backward


def rand(shape, seed, lo=0.0, hi=1.0):
    return np.random.default_rng(seed).uniform(lo, hi, shape).astype(np.float32)


def brute_ssim(x, xhat):
    """Independent windowed SSIM: explicit loops over valid 11x11 windows."""
    half = losses.SSIM_WINDOW // 2
    ax = np.arange(-half, half + 1, dtype=np.float64)
    g = np.exp(-ax ** 2 / (2 * losses.SSIM_SIGMA ** 2))
    w = np.outer(g, g)
    w /= w.sum()
    x = np.asarray(x, np.float64)
    xhat = np.asarray(xhat, np.float64)
    h, wd = x.shape
    vals = []
    for i in range(h - 2 * half):
        for j in range(wd - 2 * half):
            a = x[i:i + 11, j:j + 11]
            b = xhat[i:i + 11, j:j + 11]
            mu1, mu2 = np.sum(w * a), np.sum(w * b)
            var1 = np.sum(w * a * a) - mu1 ** 2
            var2 = np.sum(w * b * b) - mu2 ** 2
            cov = np.sum(w * a * b) - mu1 * mu2
            vals.append((2 * mu1 * mu2 + losses.SSIM_C1) * (2 * cov + losses.SSIM_C2)
                        / ((mu1 ** 2 + mu2 ** 2 + losses.SSIM_C1)
                           * (var1 + var2 + losses.SSIM_C2)))
    return float(np.mean(vals))


def test_ssim_value_matches_brute_force():
    for seed in range(5):
        x = rand((20, 20), seed)
        xhat = rand((20, 20), seed + 100)
        assert losses.ssim_value(x, xhat) == pytest.approx(brute_ssim(x, xhat), abs=1e-9)


def test_ssim_autodiff_matches_value_path():
    x, xhat = rand((20, 20), 50), rand((20, 20), 51)
    assert losses.ssim(x, xhat).item() == pytest.approx(1.0 - losses.ssim_value(x, xhat),
                                                        abs=1e-5)


def test_ssim_autodiff_on_flat_target():
    # cos(phase) near 1: 1 - SSIM is small (about 7.8e-4 at noise 0.03) and
    # must keep its relative precision
    for noise, seed in itertools.product((0.05, 0.03), range(10)):
        rng = np.random.default_rng(seed)
        phi = rng.normal(0.0, 0.02, (8, 32, 32))
        c = np.cos(phi).astype(np.float32)
        c_hat = np.cos(phi + rng.normal(0.0, noise, phi.shape)).astype(np.float32)
        want = 1.0 - np.mean([losses.ssim_value(c[i], c_hat[i]) for i in range(8)])
        got = losses.ssim(c[:, None], c_hat[:, None]).item()
        assert abs(got - want) < 1e-6 * want


def test_ssim_gradient_matches_float64_difference():
    # the closed-form gradient of 1 - mean SSIM over a stack of non-square grids,
    # along a random direction, against a central difference of ssim_value
    x, y = rand((3, 1, 12, 13), 60), rand((3, 1, 12, 13), 61)
    d = np.random.default_rng(62).normal(size=y.shape)
    d /= np.linalg.norm(d)
    yt = Tensor(y, requires_grad=True)
    with Tape() as tape:
        backward(tape, losses.ssim(x, yt))
    analytic = np.sum(yt.grad.astype(np.float64) * d)

    def loss(t):
        z = y.astype(np.float64) + t * d
        return 1.0 - np.mean([losses.ssim_value(x[m, 0], z[m, 0]) for m in range(3)])

    h = 1e-4
    numeric = (loss(h) - loss(-h)) / (2 * h)
    assert abs(analytic - numeric) < 1e-7 * abs(numeric)


def test_ssim_rejects_target_with_gradient():
    with pytest.raises(ValueError):
        losses.ssim(Tensor(rand((12, 12), 63), requires_grad=True), rand((12, 12), 64))


def test_ssim_identity_and_constant():
    x = rand((16, 16), 1)
    assert losses.ssim_value(x, x) == pytest.approx(1.0, abs=1e-9)
    a, b = 0.3, 0.7
    got = losses.ssim_value(np.full((16, 16), a), np.full((16, 16), b))
    expected = (2 * a * b + losses.SSIM_C1) / (a * a + b * b + losses.SSIM_C1)
    assert got == pytest.approx(expected, abs=1e-9)


def test_ssim_too_small_raises():
    with pytest.raises(ValueError):
        losses.ssim(rand((8, 8), 2), rand((8, 8), 3))
    with pytest.raises(ValueError):
        losses.ssim_value(rand((8, 8), 2), rand((8, 8), 3))


def test_mse_values():
    x = np.array([[1.0, 2.0], [3.0, 4.0]], np.float32)
    y = np.array([[1.5, 2.0], [2.0, 4.0]], np.float32)
    assert losses.mse(x, y).item() == pytest.approx((0.25 + 1.0) / 4)
    with pytest.raises(ValueError):
        losses.mse(x, rand((3, 3), 4))


def _breakdown(a, ah, c, ch, s, sh, weights=None):
    """The LossBreakdown of plain arrays, with (ch, sh) projected for the circular term."""
    ch, sh = Tensor(ch), Tensor(sh)
    cp, sp = circphase.unit_project(ch, sh)
    return losses.total_loss(a, ah, c, ch, s, sh, cp, sp, weights)[1]


def test_grad_loss_oracle():
    x, y = rand((12, 12), 5), rand((12, 12), 6)
    d = x.astype(np.float64) - y
    expected = np.mean(np.abs(np.diff(d, axis=1))) + np.mean(np.abs(np.diff(d, axis=0)))
    c, s = rand((12, 12), 7), rand((12, 12), 8)
    assert _breakdown(x, y, c, c, s, s).grad_amp == pytest.approx(expected, rel=1e-12)
    assert _breakdown(x, x, c, c, s, s).grad_amp == 0.0


def test_circular_loss_geometry():
    # identical angles -> 0; antipodal -> 2
    phi = rand((8, 8), 7, -np.pi, np.pi)
    c, s = circphase.embed(phi)
    assert losses.circular_loss(c, c, s, s).item() == pytest.approx(0.0, abs=1e-6)
    c2, s2 = circphase.embed(phi + np.pi)
    assert losses.circular_loss(c, c2, s, s2).item() == pytest.approx(2.0, abs=1e-6)
    # the value path is the same kernel as the node
    assert losses.circular_loss_value(c, c2, s, s2) == pytest.approx(2.0, abs=1e-6)
    assert losses.circular_loss_value(c, c, s, s) == pytest.approx(0.0, abs=1e-7)
    with pytest.raises(ValueError):
        losses.circular_loss(Tensor(c, requires_grad=True), c, s, s)


def test_consistency_loss():
    phi = rand((12, 12), 8, -np.pi, np.pi)
    c, s = circphase.embed(phi)
    a = rand((12, 12), 9)
    assert _breakdown(a, a, c, c, s, s).cons == pytest.approx(0.0, abs=1e-12)
    assert _breakdown(a, a, c, 2 * c, s, 2 * s).cons == pytest.approx(9.0, abs=1e-5)


def test_base_loss_is_sum_of_mses():
    a, ah = rand((12, 12), 9), rand((12, 12), 10)
    c, ch = rand((12, 12), 11), rand((12, 12), 12)
    s, sh = rand((12, 12), 13), rand((12, 12), 14)
    expected = (losses.mse(a, ah).item() + losses.mse(c, ch).item()
                + losses.mse(s, sh).item())
    assert _breakdown(a, ah, c, ch, s, sh).base == pytest.approx(expected, rel=1e-6)


def test_total_loss_breakdown_consistency():
    w = losses.LossWeights()
    rng = np.random.default_rng(15)
    a, ah = rand((16, 16), 16), Tensor(rand((16, 16), 17))
    phi = rng.uniform(-np.pi, np.pi, (16, 16))
    c, s = circphase.embed(phi)
    ch = Tensor(rand((16, 16), 18, -0.9, 0.9))
    sh = Tensor(rand((16, 16), 19, -0.9, 0.9))
    cp, sp = circphase.unit_project(ch, sh)
    total, bd = losses.total_loss(a, ah, Tensor(c), ch, Tensor(s), sh, cp, sp, w)
    recon = (w.w_b * bd.base + w.w_a * bd.amp + w.w_p * bd.phase + w.w_c * bd.cons)
    assert total.item() == pytest.approx(recon, rel=1e-5)
    assert bd.total == pytest.approx(total.item())
    assert len(bd.to_row()) == len(losses.LossBreakdown.FIELDS)


def _reference():
    """perfbench/reference.py, the benchmark's float64 oracle, loaded read-only."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "reference.py")
    spec = importlib.util.spec_from_file_location("perfbench_reference", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _model_batch(n, n_c=8, seed=0):
    """Targets and model heads for a batch of n random frames."""
    rng = np.random.default_rng(seed)
    cfg = model.ModelConfig(n_c=n_c, i_max=1.0, seed=seed)
    out = model.forward(rng.uniform(0.0, 1.0, (n, 1, 32, 32)).astype(np.float32),
                        model.init_params(cfg), cfg)
    a = rng.uniform(0.0, 1.0, (n, 1, 32, 32)).astype(np.float32)
    c, s = circphase.embed(rng.uniform(-np.pi, np.pi, a.shape))
    return a, c, s, out


def test_total_loss_matches_float64_oracle():
    # every LossBreakdown field, both SSIM terms included, against the
    # benchmark's independent float64 objective (window-by-window SSIM)
    ref = _reference()
    a, c, s, out = _model_batch(8)
    w = losses.LossWeights()
    heads = [out[k] for k in ("amp", "c_pre", "s_pre", "c_proj", "s_proj")]
    total, bd = losses.total_loss(a, heads[0], c, heads[1], s, heads[2], heads[3], heads[4], w)
    want = ref.composite_terms(a, heads[0].data, c, heads[1].data, s, heads[2].data,
                               heads[3].data, heads[4].data)
    want["amp"] = w.lam_g * want["grad_amp"] + w.lam_s * want["ssim_amp"]
    want["phase"] = (w.lam_g * want["grad_phase"] + w.lam_s * want["ssim_phase"]
                     + w.lam_circ * want["circular"])
    want["total"] = ref.weighted_total(want, dataclasses.asdict(w))
    for field in losses.LossBreakdown.FIELDS:
        assert getattr(bd, field) == pytest.approx(want[field], rel=1e-9, abs=0), field
    assert total.item() == pytest.approx(want["total"], rel=1e-6)


def test_total_loss_is_one_tape_node_and_lazy(monkeypatch):
    # one n_c=8, batch-32 step: the model makes 52 nodes and the loss one; the
    # terms' gradient thunks run only in a backward
    calls = []

    def counted(kernel):
        def run(*args):
            value, grad = kernel(*args)
            return value, lambda: calls.append(kernel.__name__) or grad()
        return run

    for name in ("_mse", "_grad_l1", "_ssim", "_circular", "_consistency"):
        monkeypatch.setattr(losses, name, counted(getattr(losses, name)))
    a, c, s, out = _model_batch(32)
    heads = [out[k] for k in ("amp", "c_pre", "s_pre", "c_proj", "s_proj")]
    losses.total_loss(a, heads[0], c, heads[1], s, heads[2], heads[3], heads[4])
    assert calls == []
    cfg = model.ModelConfig(n_c=8, i_max=1.0, seed=0)
    params = model.init_params(cfg)
    with Tape() as tape:
        out = model.forward(rand((32, 1, 32, 32), 1), params, cfg)
        assert len(tape.nodes) == 52
        total, _ = losses.total_loss(a, out["amp"], c, out["c_pre"], s, out["s_pre"],
                                     out["c_proj"], out["s_proj"])
        assert len(tape.nodes) == 53
        backward(tape, total)
    assert sorted(calls) == sorted(["_mse"] * 3 + ["_grad_l1"] * 3 + ["_ssim"] * 3
                                   + ["_circular", "_consistency"])
    assert all(t.grad is not None for t in params.tensors.values())


def test_loss_weights_validate():
    with pytest.raises(ValueError):
        losses.LossWeights(w_p=-0.1)


def test_default_weights():
    w = losses.LossWeights()
    assert (w.w_b, w.w_a, w.w_p, w.w_c) == (1.0, 1.0, 1.3, 0.1)
    assert (w.lam_circ, w.lam_g, w.lam_s) == (0.6, 0.12, 0.1)
