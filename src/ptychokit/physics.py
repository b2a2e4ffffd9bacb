"""Complex-field forward model: probe, exit wave, far-field intensity, detector noise.

Fields are plain numpy arrays: the probe is a (p, p) complex64 array and the
simulation works on (N, p, p) stacks of windows. FFTs use the orthonormal
convention so Parseval holds exactly (to float precision) between real and
Fourier space. Three fields are rounded to complex64, that is to float32
(re, im) pairs: the object window, the exit wave and the far field. Each
product and FFT between them runs in complex128, and the intensity
re^2 + im^2 of the rounded far field is summed in float64 and stored as
float32. Dropping any of these roundings changes the dataset bytes.
"""

import numpy as np

PROBE_SIZE = 32
PROBE_RADIUS = 13.0
PROBE_SIGMA = 10.0
PROBE_CURVATURE = 0.02

NOISE_PEAK_PHOTONS = 1e4
NOISE_READ_FRACTION = 0.01  # read sigma default, as a fraction of dataset max


def checked_probe(field):
    """`field` as a probe: a square, finite complex64 grid with non-zero intensity."""
    field = np.asarray(field, dtype=np.complex64)
    if field.ndim != 2 or field.shape[0] != field.shape[1]:
        raise ValueError(f"probe grid must be square, got shape {field.shape}")
    if not np.all(np.isfinite(field)):
        raise ValueError("non-finite probe values")
    if not np.any(field):
        raise ValueError("probe has zero total intensity")
    return field


def make_probe(size=PROBE_SIZE, radius=PROBE_RADIUS, sigma=PROBE_SIGMA,
               curvature=PROBE_CURVATURE):
    """Hard aperture x centered Gaussian amplitude, phase = curvature * r^2."""
    if size < 1:
        raise ValueError(f"need probe_size >= 1, got {size}")
    if not 0 < radius <= size / 2 * np.sqrt(2):
        raise ValueError(f"need 0 < probe_radius <= {size / 2 * np.sqrt(2):.4g} "
                         f"(probe_size {size}), got {radius}")
    if not sigma > 0:
        raise ValueError(f"need probe_sigma > 0, got {sigma}")
    center = (size - 1) / 2.0
    yy, xx = np.mgrid[0:size, 0:size]
    r2 = (yy - center) ** 2 + (xx - center) ** 2
    r = np.sqrt(r2)
    amp = (r <= radius) * np.exp(-r2 / (2.0 * sigma ** 2))
    phase = curvature * r2
    probe = (amp * np.exp(1j * phase)).astype(np.complex64)
    if not np.any(probe):  # the Gaussian underflows, or no pixel is in the aperture
        raise ValueError(f"need probe_sigma and probe_radius that leave a non-zero probe, "
                         f"got probe_sigma {sigma}, probe_radius {radius}")
    return checked_probe(probe)


def exit_wave(windows, probe):
    """Exit waves probe * window of an (N, p, p) stack of object windows.

    The windows are rounded to complex64, multiplied in complex128, and the
    product is rounded to complex64.
    """
    windows = np.asarray(windows)
    if windows.ndim != 3 or windows.shape[1:] != probe.shape:
        raise ValueError(f"windows {windows.shape} do not match probe {probe.shape}")
    w = windows.astype(np.complex64).astype(np.complex128)
    return (w * probe.astype(np.complex128)).astype(np.complex64)


def diffract(psi):
    """Far-field intensities |FFT(psi)|^2 of an (N, p, p) stack, orthonormal FFT.

    The FFT runs in complex128 and its result is rounded to complex64; the
    intensity of the rounded field is summed in float64 and cast to float32.
    """
    far = np.fft.fft2(np.asarray(psi, dtype=np.complex128), norm="ortho")
    far = far.astype(np.complex64)
    re, im = far.real.astype(np.float64), far.imag.astype(np.float64)
    return (re ** 2 + im ** 2).astype(np.float32)


def add_noise(intensity, peak_photons=NOISE_PEAK_PHOTONS, read_sigma=None,
              seed=0, frame_index=0, ref_max=None):
    """Poisson shot noise scaled to peak_photons at ref_max, plus Gaussian read noise.

    ref_max is the dataset-wide maximum intensity; defaults to the frame max.
    Deterministic per (seed, frame_index).
    """
    intensity = np.asarray(intensity, dtype=np.float64)
    if peak_photons <= 0 or np.any(intensity < 0):
        raise ValueError("peak_photons must be > 0 and intensity nonnegative")
    if ref_max is None:
        ref_max = float(intensity.max())
    if read_sigma is None:
        read_sigma = NOISE_READ_FRACTION * ref_max
    if read_sigma < 0:
        raise ValueError("read_sigma must be >= 0")
    rng = np.random.default_rng([int(seed), int(frame_index)])
    if ref_max > 0:
        photon_scale = peak_photons / ref_max
        noisy = rng.poisson(intensity * photon_scale) / photon_scale
    else:
        noisy = intensity.copy()
    if read_sigma > 0:
        noisy = noisy + rng.normal(0.0, read_sigma, size=intensity.shape)
    return np.maximum(noisy, 0.0).astype(np.float32)
