"""Hand-worked cases for the benchmark's reference computations.

Run with: python3 -m pytest perfbench/test_reference.py
"""

import json

import numpy as np
import pytest

import reference as ref


def test_ssim_of_identical_frames_is_one():
    x = np.random.default_rng(0).random((2, 13, 14))
    assert np.allclose(ref.ssim_per_frame(x, x), 1.0, atol=1e-12)


def test_ssim_of_two_constant_frames():
    # constant a vs constant b: every window has zero variance, so
    # SSIM = (2ab + C1) / (a^2 + b^2 + C1) = (0.25 + 1e-4) / (0.3125 + 1e-4)
    x = np.full((12, 12), 0.5)
    y = np.full((12, 12), 0.25)
    assert ref.ssim_per_frame(x, y) == pytest.approx(0.2501 / 0.3126, rel=1e-12)


def test_ssim_single_window_by_hand():
    # one 11x11 window; x has one bright pixel at the centre, y is zero:
    # mu_x = g0, var_x = g0 (1 - g0), mu_y = var_y = cov = 0, so
    # SSIM = C1 C2 / ((g0^2 + C1)(g0 (1 - g0) + C2))
    g0 = 1.0 / np.sum(np.exp(-np.add.outer(np.arange(-5, 6) ** 2, np.arange(-5, 6) ** 2) / 4.5))
    x = np.zeros((11, 11))
    x[5, 5] = 1.0
    want = ref.SSIM_C1 * ref.SSIM_C2 / ((g0 ** 2 + ref.SSIM_C1) * (g0 * (1 - g0) + ref.SSIM_C2))
    assert ref.ssim_per_frame(x, np.zeros((11, 11))) == pytest.approx(want, rel=1e-12)


def test_gaussian_window_is_normalised_and_symmetric():
    g = ref.gaussian_window()
    assert g.sum() == pytest.approx(1.0)
    assert np.allclose(g, g.T) and np.allclose(g, g[::-1, ::-1])
    # neighbours of the centre are exp(-1/4.5) of it
    assert g[5, 6] / g[5, 5] == pytest.approx(np.exp(-1 / 4.5))


def test_diffraction_of_flat_field_is_all_dc():
    # ones(4x4): orthonormal FFT puts 16/4 = 4 at DC, so intensity 16 there
    out = ref.diffraction(np.ones((6, 6), complex), np.ones((4, 4), complex), 1, 2)
    want = np.zeros((4, 4))
    want[0, 0] = 16.0
    assert np.allclose(out, want)


def test_diffraction_of_a_point_is_flat_and_obeys_parseval():
    obj = np.zeros((4, 4), complex)
    obj[1, 2] = 2.0j
    out = ref.diffraction(obj, np.ones((4, 4)), 0, 0)
    assert np.allclose(out, 4.0 / 16)  # |2j|^2 spread over 16 bins
    assert out.sum() == pytest.approx(ref.exit_wave_energy(obj, np.ones((4, 4)), [(0, 0)])[0])


def test_stitch_weights_by_hand():
    # patch 3: centre (1,1), d_max = sqrt(2)
    w = ref.stitch_weights(3, 0.5)
    assert w[1, 1] == pytest.approx(1.5)
    assert w[0, 1] == pytest.approx((1 - 1 / np.sqrt(2)) ** 2 + 0.5)
    assert w[0, 0] == pytest.approx(0.5)


def test_weighted_mean_of_two_overlapping_patches():
    floor = 0.5
    w = ref.stitch_weights(3, floor)
    out, covered = ref.weighted_mean_stitch([np.full((3, 3), 1.0), np.full((3, 3), 4.0)],
                                            [(0, 0), (0, 1)], (3, 4), floor)
    assert covered.all()
    assert out[0, 0] == 1.0 and out[0, 3] == 4.0
    # column 1 is the first patch's centre column and the second patch's left edge
    want = (w[1, 1] * 1.0 + w[1, 0] * 4.0) / (w[1, 1] + w[1, 0])
    assert out[1, 1] == pytest.approx(want)


def test_circular_mean_stitch_goes_through_pi_not_zero():
    # pi - 0.2 and pi + 0.1 (stored as -pi + 0.1) average to pi - 0.05;
    # the arithmetic mean of the stored values would be -0.05
    a = np.full((3, 3), np.pi - 0.2)
    b = np.full((3, 3), -np.pi + 0.1)
    out, _ = ref.circular_mean_stitch([a, b], [(0, 0), (0, 0)], (3, 3), 0.5)
    assert np.allclose(out, np.pi - 0.05)


def test_wrap():
    assert ref.wrap(np.pi) == pytest.approx(np.pi)
    assert ref.wrap(-np.pi) == pytest.approx(np.pi)
    assert ref.wrap(3 * np.pi / 2) == pytest.approx(-np.pi / 2)


def test_psnr():
    assert ref.psnr(0.01, 1.0) == pytest.approx(20.0)
    assert ref.psnr((2 * np.pi) ** 2 / 1000, 2 * np.pi) == pytest.approx(30.0)


WEIGHTS = {"w_b": 1.0, "w_a": 1.0, "w_p": 1.3, "w_c": 0.1,
           "lam_circ": 0.6, "lam_g": 0.12, "lam_s": 0.1}


def _perfect(n=2, size=12, seed=0):
    phi = np.random.default_rng(seed).uniform(-np.pi, np.pi, (n, size, size))
    a = np.random.default_rng(seed + 1).random((n, size, size))
    c, s = np.cos(phi), np.sin(phi)
    return a, c, s


def test_composite_loss_of_a_perfect_prediction_is_zero():
    a, c, s = _perfect()
    assert ref.composite_loss(a, a, c, c, s, s, c, s, WEIGHTS) == pytest.approx(0.0, abs=1e-12)


def test_composite_loss_with_a_constant_amplitude_offset():
    # a = 0, a_hat = 0.1, phase perfect: base = 0.01, grad term 0,
    # SSIM = (0 + C1) / (0.01 + C1) per window, so
    # total = 0.01 + lam_s * (1 - 1e-4 / 0.0101)
    _, c, s = _perfect()
    a = np.zeros_like(c)
    total = ref.composite_loss(a, a + 0.1, c, c, s, s, c, s, WEIGHTS)
    assert total == pytest.approx(0.01 + 0.1 * (1 - 1e-4 / 0.0101), rel=1e-9)


def test_composite_loss_ring_and_circular_terms():
    # c_pre = s_pre = 0 and projections rotated by pi/2 from the truth:
    # cons = (0 - 1)^2 = 1, circ = 1 - cos(pi/2) = 1, base = mean(c^2 + s^2) = 1
    a, c, s = _perfect()
    zero = np.zeros_like(c)
    rot_c, rot_s = -s, c
    got = ref.composite_loss(a, a, c, zero, s, zero, rot_c, rot_s, WEIGHTS)
    base = np.mean(c ** 2) + np.mean(s ** 2)  # = 1
    grad = ref._grad_term(c, zero) + ref._grad_term(s, zero)
    ssim = 2 - np.mean(ref.ssim_per_frame(c, zero)) - np.mean(ref.ssim_per_frame(s, zero))
    want = base + 1.3 * (0.12 * grad + 0.1 * ssim + 0.6 * 1.0) + 0.1 * 1.0
    assert base == pytest.approx(1.0)
    assert got == pytest.approx(want, rel=1e-12)


def test_triangular2_schedule_by_hand():
    # eta = 1, half cycle 2: 0.1, 0.55, 1.0, 0.55, then the peak halves
    got = [ref.triangular2_lr(t, 2, 1.0) for t in range(9)]
    want = [0.1, 0.55, 1.0, 0.55, 0.1, 0.325, 0.55, 0.325, 0.1]
    assert np.allclose(got, want)


def test_read_ptgrid(tmp_path):
    path = tmp_path / "g.ptg"
    arr = np.arange(6, dtype="<f4").reshape(2, 3)
    header = {"magic": "PTGRID", "version": 1, "shape": [2, 3], "dtype": "f32le",
              "order": "row-major"}
    path.write_bytes(json.dumps(header).encode() + b"\n" + arr.tobytes())
    assert np.array_equal(ref.read_ptgrid(path), arr)
