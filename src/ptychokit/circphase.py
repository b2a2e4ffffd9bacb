"""Circular phase geometry: unit-circle embedding, projection, recovery, distances.

Wrap convention is (-pi, pi] with pi mapped to itself.
"""

import numpy as np

from . import autodiff as ad

PROJECTION_EPS = 1e-8


def wrap_angle(phi):
    """Map any angle(s) to (-pi, pi]."""
    phi = np.asarray(phi, dtype=np.float64)
    return np.pi - np.mod(np.pi - phi, 2.0 * np.pi)


def embed(phase):
    """phi -> (cos phi, sin phi); result lies on the unit circle by construction."""
    phase = np.asarray(phase, dtype=np.float64)
    if not np.all(np.isfinite(phase)):
        raise ValueError("non-finite phase")
    return np.cos(phase).astype(np.float32), np.sin(phase).astype(np.float32)


def unit_project(c, s):
    """Normalize Tensors (c, s) to the unit circle in float32: (c, s) / m, with
    m = sqrt(c^2 + s^2 + PROJECTION_EPS).

    Returns two closed-form nodes (c', s'), each over (c, s), with derivatives
    dc'/dc = (1 - c'^2)/m, dc'/ds = ds'/dc = -c's'/m and ds'/ds = (1 - s'^2)/m.
    """
    mag = np.sqrt(c.data * c.data + s.data * s.data + PROJECTION_EPS)
    cp, sp = c.data / mag, s.data / mag
    return (ad.closed_form((c, s), cp, lambda: ((1 - cp * cp) / mag, -cp * sp / mag)),
            ad.closed_form((c, s), sp, lambda: (-cp * sp / mag, (1 - sp * sp) / mag)))


def recover_phase(c, s):
    """atan2 recovery to (-pi, pi]; a pixel with c = s = 0 yields 0."""
    phase = np.arctan2(np.asarray(s, dtype=np.float64), np.asarray(c, dtype=np.float64))
    return np.where(phase == -np.pi, np.pi, phase)


def wrapped_diff(phi1, phi2):
    """Signed shortest-arc difference phi1 - phi2, in (-pi, pi]."""
    return wrap_angle(np.asarray(phi1, dtype=np.float64) - np.asarray(phi2, dtype=np.float64))


def geodesic_dist(phi1, phi2):
    """Shortest-arc angular distance, in [0, pi]."""
    return np.abs(wrapped_diff(phi1, phi2))
