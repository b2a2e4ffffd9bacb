import numpy as np
import pytest

from ptychokit import physics


def test_diffract_parseval():
    z = np.random.default_rng(1).normal(size=(3, 16, 16)) \
        + 1j * np.random.default_rng(2).normal(size=(3, 16, 16))
    intensity = physics.diffract(z)
    assert intensity.shape == (3, 16, 16) and intensity.dtype == np.float32
    assert np.allclose(intensity.sum(axis=(1, 2)), (np.abs(z) ** 2).sum(axis=(1, 2)),
                       rtol=1e-5)


def test_make_probe_geometry():
    z = physics.make_probe()
    assert z.shape == (32, 32) and z.dtype == np.complex64
    # aperture: zero outside the radius
    center = 15.5
    yy, xx = np.mgrid[0:32, 0:32]
    r = np.sqrt((yy - center) ** 2 + (xx - center) ** 2)
    assert np.all(np.abs(z[r > 13.0]) == 0)
    assert np.abs(z).max() > 0
    # fourfold symmetry about the center; quadratic-only phase is rot90 invariant
    assert np.allclose(np.abs(z), np.abs(z[::-1, :]), atol=1e-6)
    assert np.allclose(np.abs(z), np.abs(z[:, ::-1]), atol=1e-6)
    assert np.allclose(z, np.rot90(z), atol=1e-6)
    with pytest.raises(ValueError):
        physics.make_probe(radius=0.0)
    with pytest.raises(ValueError, match="probe_sigma"):
        physics.make_probe(sigma=1e-3)  # the Gaussian underflows at every pixel
    with pytest.raises(ValueError, match="zero total intensity"):
        physics.checked_probe(np.zeros((4, 4)))  # a probe read from a file


def test_exit_wave_and_diffract_oracle():
    rng = np.random.default_rng(3)
    obj = rng.uniform(0.2, 1.0, (32, 32)) * np.exp(1j * rng.uniform(-np.pi, np.pi, (32, 32)))
    probe = physics.make_probe()
    psi = physics.exit_wave(obj[None], probe)
    expected = obj * probe
    assert psi.dtype == np.complex64 and np.allclose(psi[0], expected, atol=1e-5)
    intensity = physics.diffract(psi)
    ref = np.abs(np.fft.fft2(expected, norm="ortho")) ** 2
    assert np.allclose(intensity[0], ref, atol=1e-4)
    with pytest.raises(ValueError):
        physics.exit_wave(obj[None, :16, :16], probe)


def test_diffract_flat_object_concentrates_energy():
    probe = physics.make_probe(curvature=0.0)
    flat = np.ones((1, 32, 32), complex)
    intensity = physics.diffract(physics.exit_wave(flat, probe))[0]
    # smooth apertured probe: DC bin dominates
    assert intensity.reshape(-1).argmax() == 0


def test_diffract_global_phase_invariance():
    rng = np.random.default_rng(7)
    z = rng.normal(size=(2, 32, 32)) + 1j * rng.normal(size=(2, 32, 32))
    base = physics.diffract(z)
    shifted = physics.diffract(z * np.exp(1j * 0.7))
    assert np.allclose(base, shifted, atol=1e-5)


def test_add_noise_noiseless_limit():
    rng = np.random.default_rng(8)
    clean = rng.uniform(1.0, 50.0, (32, 32))
    out = physics.add_noise(clean, peak_photons=1e12, read_sigma=0.0, seed=0)
    assert np.max(np.abs(out - clean) / clean) < 1e-3


def test_add_noise_zero_intensity():
    out = physics.add_noise(np.zeros((8, 8)), read_sigma=0.0, seed=0)
    assert np.all(out == 0.0)


def test_add_noise_poisson_statistics():
    level = 25.0
    frame = np.full((32, 32), level)
    out = physics.add_noise(frame, peak_photons=1e4, read_sigma=0.0, seed=9,
                            ref_max=level)
    # mean of 1024 Poisson(1e4) draws, rescaled: std of the mean = level/sqrt(n*1e4)
    sem = level / np.sqrt(1024 * 1e4)
    assert abs(out.mean() - level) < 3 * sem


def test_add_noise_statistics_and_determinism():
    rng = np.random.default_rng(4)
    clean = rng.uniform(0, 50, (32, 32))
    a = physics.add_noise(clean, seed=5, frame_index=7)
    b = physics.add_noise(clean, seed=5, frame_index=7)
    c = physics.add_noise(clean, seed=5, frame_index=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.all(a >= 0)
    # high photon budget: noise is small relative to signal scale
    quiet = physics.add_noise(clean, peak_photons=1e9, read_sigma=0.0, seed=1)
    assert np.abs(quiet - clean).max() < 0.5


def test_add_noise_validates():
    with pytest.raises(ValueError):
        physics.add_noise(np.ones((4, 4)), peak_photons=0.0)
    with pytest.raises(ValueError):
        physics.add_noise(-np.ones((4, 4)))
    with pytest.raises(ValueError):
        physics.add_noise(np.ones((4, 4)), read_sigma=-1.0)
