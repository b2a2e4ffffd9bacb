import numpy as np
import pytest

from ptychokit import circphase, losses
from ptychokit.autodiff import Tape, Tensor, backward


def test_wrap_convention():
    assert circphase.wrap_angle(np.pi) == pytest.approx(np.pi)
    assert circphase.wrap_angle(-np.pi) == pytest.approx(np.pi)
    assert circphase.wrap_angle(0.0) == 0.0
    assert circphase.wrap_angle(3 * np.pi) == pytest.approx(np.pi)
    assert circphase.wrap_angle(np.pi + 0.1) == pytest.approx(-np.pi + 0.1)
    phi = np.random.default_rng(0).uniform(-20, 20, 1000)
    w = circphase.wrap_angle(phi)
    assert np.all((w > -np.pi) & (w <= np.pi))
    assert np.allclose(np.exp(1j * w), np.exp(1j * phi), atol=1e-12)


def test_embed_recover_roundtrip():
    phi = np.random.default_rng(1).uniform(-np.pi + 1e-3, np.pi, (32, 32))
    c, s = circphase.embed(phi)
    rec = circphase.recover_phase(c, s)
    assert np.abs(circphase.wrapped_diff(phi, rec)).max() < 1e-6


def test_embed_rejects_nonfinite():
    with pytest.raises(ValueError):
        circphase.embed(np.array([0.0, np.nan]))


def test_recover_phase_degenerate_and_range():
    assert np.all(circphase.recover_phase(np.zeros(3), np.zeros(3)) == 0.0)
    # -pi maps to +pi
    assert circphase.recover_phase(np.array([-1.0]), np.array([0.0]))[0] == pytest.approx(np.pi)


def _pairs_with_small_m(seed):
    """(c, s) in [-1, 1), a quarter of the pixels with m^2 = c^2 + s^2 near 1e-3."""
    rng = np.random.default_rng(seed)
    c, s = rng.uniform(-1, 1, (2, 16, 16))
    small = rng.random((16, 16)) < 0.25
    r = np.sqrt(1e-3 * rng.uniform(0.5, 2.0, small.sum()))
    theta = rng.uniform(-np.pi, np.pi, small.sum())
    c[small], s[small] = r * np.cos(theta), r * np.sin(theta)
    return c.astype(np.float32), s.astype(np.float32)


def test_unit_project_tensor_is_the_float32_formula():
    c, s = _pairs_with_small_m(4)
    m = np.sqrt(c * c + s * s + np.float32(circphase.PROJECTION_EPS))
    assert m.dtype == np.float32
    ct, st = circphase.unit_project(Tensor(c), Tensor(s))
    assert np.array_equal((c / m).view(np.uint32), ct.data.view(np.uint32))
    assert np.array_equal((s / m).view(np.uint32), st.data.view(np.uint32))


def test_unit_project_gradient_matches_float64_jacobian():
    # through the circular loss, whose gradient is (g_c, g_s) = (-t_c, -t_s)/n on
    # (c', s'); the projection gives (g_c - c'(c'g_c + s'g_s))/m to c, and likewise
    # to s. The error is relative to the pixel's scale (|g_c| + |g_s|)/m.
    c, s = _pairs_with_small_m(5)
    t_c, t_s = np.random.default_rng(6).uniform(-1, 1, (2, 16, 16)).astype(np.float32)
    ct, st = Tensor(c, requires_grad=True), Tensor(s, requires_grad=True)
    with Tape() as tape:
        cp, sp = circphase.unit_project(ct, st)
        backward(tape, losses.circular_loss(t_c, cp, t_s, sp))
    c64, s64 = c.astype(np.float64), s.astype(np.float64)
    m = np.sqrt(c64 ** 2 + s64 ** 2 + circphase.PROJECTION_EPS)
    cp, sp = c64 / m, s64 / m
    g_c, g_s = (t.astype(np.float64) / -t.size for t in (t_c, t_s))
    radial = cp * g_c + sp * g_s
    scale = (np.abs(g_c) + np.abs(g_s)) / m
    for got, want in ((ct.grad, (g_c - cp * radial) / m), (st.grad, (g_s - sp * radial) / m)):
        err = np.abs(got - want) / scale
        assert err.max() < 1e-6


def test_unit_project_near_origin_is_finite():
    c, s = circphase.unit_project(Tensor(np.zeros(2, np.float32)), Tensor(np.zeros(2, np.float32)))
    assert np.all(np.isfinite(c.data)) and np.all(np.isfinite(s.data))


def test_geodesic_distance_properties():
    rng = np.random.default_rng(3)
    a = rng.uniform(-np.pi, np.pi, 500)
    b = rng.uniform(-np.pi, np.pi, 500)
    d = circphase.geodesic_dist(a, b)
    assert np.all((d >= 0) & (d <= np.pi))
    assert np.allclose(d, circphase.geodesic_dist(b, a))
    assert np.allclose(circphase.geodesic_dist(a, a), 0.0)
    # distance is invariant under 2*pi shifts
    assert np.allclose(d, circphase.geodesic_dist(a + 2 * np.pi, b), atol=1e-12)
    # the cut: pi - eps and -(pi - eps) are 2*eps apart, not ~2*pi
    assert circphase.geodesic_dist(np.pi - 0.01, -(np.pi - 0.01)) == pytest.approx(0.02)
