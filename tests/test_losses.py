import numpy as np
import pytest

from ptychokit import autodiff as ad, circphase, losses
from ptychokit.autodiff import Tensor


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
    assert losses.ssim(x, xhat).item() == pytest.approx(losses.ssim_value(x, xhat),
                                                        abs=1e-5)


def test_ssim_autodiff_on_flat_target():
    # cos(phase) near 1: blur(x^2) - blur(x)^2 cancels in float32 unless centred
    rng = np.random.default_rng(0)
    phi = rng.normal(0.0, 0.02, (8, 32, 32))
    c = np.cos(phi).astype(np.float32)
    c_hat = np.cos(phi + rng.normal(0.0, 0.05, phi.shape)).astype(np.float32)
    want = np.mean([losses.ssim_value(c[i], c_hat[i]) for i in range(8)])
    got = losses.ssim(c[:, None], c_hat[:, None]).item()
    assert abs(got - want) < 1e-5 * (1.0 - want)


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


def test_mse_mae_values():
    x = np.array([[1.0, 2.0], [3.0, 4.0]], np.float32)
    y = np.array([[1.5, 2.0], [2.0, 4.0]], np.float32)
    assert losses.mse(x, y).item() == pytest.approx((0.25 + 1.0) / 4)
    assert losses.mae(x, y).item() == pytest.approx(1.5 / 4)
    with pytest.raises(ValueError):
        losses.mse(x, rand((3, 3), 4))


def test_grad_loss_oracle():
    x = rand((6, 6), 5)
    y = rand((6, 6), 6)
    d = x.astype(np.float64) - y
    expected = np.mean(np.abs(np.diff(d, axis=1))) + np.mean(np.abs(np.diff(d, axis=0)))
    assert losses.grad_loss(x, y).item() == pytest.approx(expected, abs=1e-6)
    assert losses.grad_loss(x, x).item() == 0.0


def test_circular_loss_geometry():
    # identical angles -> 0; antipodal -> 2
    phi = rand((8, 8), 7, -np.pi, np.pi)
    c, s = circphase.embed(phi)
    assert losses.circular_loss(c, c, s, s).item() == pytest.approx(0.0, abs=1e-6)
    c2, s2 = circphase.embed(phi + np.pi)
    assert losses.circular_loss(c, c2, s, s2).item() == pytest.approx(2.0, abs=1e-6)
    # f64 value path agrees with the autodiff path
    assert losses.circular_loss_value(c, c2, s, s2) == pytest.approx(2.0, abs=1e-6)
    assert losses.circular_loss_value(c, c, s, s) == pytest.approx(0.0, abs=1e-7)


def test_consistency_loss():
    phi = rand((8, 8), 8, -np.pi, np.pi)
    c, s = circphase.embed(phi)
    assert losses.consistency_loss(c, s).item() == pytest.approx(0.0, abs=1e-6)
    assert losses.consistency_loss(2 * c.astype(np.float32),
                                   2 * s.astype(np.float32)).item() == pytest.approx(9.0, abs=1e-4)


def test_base_loss_is_sum_of_mses():
    a, ah = rand((6, 6), 9), rand((6, 6), 10)
    c, ch = rand((6, 6), 11), rand((6, 6), 12)
    s, sh = rand((6, 6), 13), rand((6, 6), 14)
    expected = (losses.mse(a, ah).item() + losses.mse(c, ch).item()
                + losses.mse(s, sh).item())
    assert losses.base_loss(a, ah, c, ch, s, sh).item() == pytest.approx(expected, abs=1e-6)


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


def test_loss_weights_validate():
    with pytest.raises(ValueError):
        losses.LossWeights(w_p=-0.1)


def test_default_weights():
    w = losses.LossWeights()
    assert (w.w_b, w.w_a, w.w_p, w.w_c) == (1.0, 1.0, 1.3, 0.1)
    assert (w.lam_circ, w.lam_g, w.lam_s) == (0.6, 0.12, 0.1)
