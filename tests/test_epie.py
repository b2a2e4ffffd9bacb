import tracemalloc

import numpy as np
import pytest

from ptychokit import circphase, dataset, epie, physics


def make_scan(seed=0, rows=8, cols=8, size=110, step=8, jitter=3):
    amp, phase = dataset.gen_object(size, size, seed=seed)
    probe = physics.make_probe()
    plan = dataset.plan_scan(rows=rows, cols=cols, step=step, jitter_max=jitter, seed=seed)
    intensity, table, _ = dataset.make_dataset(amp, phase, probe, plan)
    return amp, phase, probe, intensity, dataset.positions(table)


def reference_epie(intensity, positions, probe, iters, beta=0.9, seed=0):
    """ePIE visiting one position at a time, each window read right after the previous write,
    in the module's precision: complex64 canvas, probe, gain and FFTs, float32 magnitudes,
    and float64 error terms."""
    probe = probe.astype(np.complex128)
    p_field = probe.astype(np.complex64)
    p = p_field.shape[0]
    obj = np.ones((max(y for y, _ in positions) + p, max(x for _, x in positions) + p),
                  dtype=np.complex64)
    gain = (beta * np.conj(probe) / float(np.max(np.abs(probe) ** 2))).astype(np.complex64)
    sqrt_i = [np.sqrt(f.astype(np.float32)) for f in intensity]
    den = [float(np.sum(np.sqrt(f.astype(np.float64)) ** 2)) for f in intensity]
    history = []
    for sweep in range(iters):
        err_num, err_den = 0.0, 0.0
        for j in np.random.default_rng([seed, sweep]).permutation(len(positions)):
            y, x = positions[j]
            window = obj[y:y + p, x:x + p]
            psi = p_field * window
            psi_f = np.fft.fft2(psi, norm="ortho")
            err_num += float(np.sum((sqrt_i[j] - np.abs(psi_f)).astype(np.float64) ** 2))
            err_den += den[j]
            psi2 = np.fft.ifft2(epie.fourier_magnitude_project(psi_f, sqrt_i[j]), norm="ortho")
            obj[y:y + p, x:x + p] = window + gain * (psi2 - psi)
        history.append(err_num / max(err_den, 1e-300))
    return obj, history


def windows_overlap(a, b, p=physics.PROBE_SIZE):
    return abs(a[0] - b[0]) < p and abs(a[1] - b[1]) < p


@pytest.mark.parametrize("scan, runs_per_sweep", [
    (dict(seed=8), "some"),                                     # jittered, overlapping (step 8)
    (dict(seed=9, rows=6, cols=6, step=2), "one per position"),  # every window overlaps the next
    (dict(seed=10, rows=4, cols=4, size=128, step=32, jitter=0), "one"),  # no windows overlap
], ids=["step8", "step2", "step32"])
def test_run_batched_matches_one_at_a_time(scan, runs_per_sweep):
    _, _, probe, frames, positions = make_scan(**scan)
    n = len(positions)
    runs = epie._disjoint_runs([y for y, _ in positions], [x for _, x in positions],
                               list(range(n)), physics.PROBE_SIZE)
    assert {"some": 1 < len(runs) < n, "one per position": len(runs) == n,
            "one": len(runs) == 1}[runs_per_sweep]
    state = epie.epie_reconstruct(frames, positions, probe, iters=3, seed=4)
    obj, history = reference_epie(frames, positions, probe, iters=3, seed=4)
    assert state.object_est.dtype == obj.dtype == np.complex64
    assert np.array_equal(state.object_est, obj)
    assert state.error_history == history


def test_sweep_keeps_no_scan_sized_float64_array():
    # sqrt(I) is taken per run: a sweep's traced peak stays below one float32
    # stack of all intensities plus the complex128 canvas, which a float64
    # (N, p, p) stack alone would exceed
    _, _, probe, frames, positions = make_scan(seed=12, rows=20, cols=20, size=200)
    tracemalloc.start()
    try:
        state = epie.epie_reconstruct(frames, positions, probe, iters=1, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    p = physics.PROBE_SIZE
    assert len(frames) == 400
    assert peak < len(frames) * p * p * 4 + state.object_est.nbytes


def test_disjoint_runs_partition_the_order():
    rng = np.random.default_rng(11)
    positions = [tuple(int(v) for v in rng.integers(0, 120, 2)) for _ in range(200)]
    ys, xs = [y for y, _ in positions], [x for _, x in positions]
    order = rng.permutation(len(positions)).tolist()
    runs = epie._disjoint_runs(ys, xs, order, physics.PROBE_SIZE)
    assert [j for run in runs for j in run] == order
    assert 1 < len(runs) < len(order)
    for i, run in enumerate(runs):
        assert all(not windows_overlap(positions[a], positions[b])
                   for k, a in enumerate(run) for b in run[k + 1:])
        if i:
            assert any(windows_overlap(positions[run[0]], positions[b]) for b in runs[i - 1])


def test_windows_outside_canvas_rejected():
    _, _, probe, frames, positions = make_scan(seed=4, rows=2, cols=2)
    with pytest.raises(ValueError):
        epie.epie_reconstruct(frames, [(-1, 0)] + positions[1:], probe, iters=1)


def test_magnitude_projection():
    rng = np.random.default_rng(0)
    psi_f = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    target = rng.uniform(0.5, 2.0, (8, 8))
    out = epie.fourier_magnitude_project(psi_f, target)
    assert np.allclose(np.abs(out), target, atol=1e-12)
    # phases preserved
    assert np.allclose(np.angle(out), np.angle(psi_f), atol=1e-12)
    # tiny magnitudes pass through unchanged
    tiny = np.full((4, 4), 1e-15 + 0j)
    assert np.array_equal(epie.fourier_magnitude_project(tiny, np.ones((4, 4))), tiny)


def test_error_decreases_and_converges():
    _, _, probe, frames, positions = make_scan(seed=1)
    state = epie.epie_reconstruct(frames, positions, probe, iters=30, seed=0)
    assert len(state.error_history) == 30
    assert state.error_history[-1] < state.error_history[0]
    assert state.error_history[-1] < 0.05


def test_reconstruction_quality_in_well_lit_region():
    amp, phase, probe, frames, positions = make_scan(seed=2)
    state = epie.epie_reconstruct(frames, positions, probe, iters=150, seed=0)
    canvas = state.object_est.shape
    mask = epie.well_lit_mask(positions, probe, canvas, threshold=0.3)
    gt_p = phase[:canvas[0], :canvas[1]]
    rec = epie.align_global_phase(np.angle(state.object_est), gt_p, mask)
    mae = np.abs(circphase.wrapped_diff(gt_p, rec))[mask].mean()
    assert mae < 0.25
    amp_mae = np.abs(np.abs(state.object_est) - amp[:canvas[0], :canvas[1]])[mask].mean()
    assert amp_mae < 0.1


def test_deterministic():
    _, _, probe, frames, positions = make_scan(seed=3, rows=4, cols=4)
    s1 = epie.epie_reconstruct(frames, positions, probe, iters=5, seed=7)
    s2 = epie.epie_reconstruct(frames, positions, probe, iters=5, seed=7)
    assert np.array_equal(s1.object_est, s2.object_est)
    assert s1.error_history == s2.error_history


def test_beta_validation():
    _, _, probe, frames, positions = make_scan(seed=4, rows=4, cols=4)
    with pytest.raises(ValueError):
        epie.epie_reconstruct(frames, positions, probe, beta=0.0)


def test_illumination_and_mask():
    _, _, probe, frames, positions = make_scan(seed=5, rows=4, cols=4)
    canvas = (max(y for y, _ in positions) + 32, max(x for _, x in positions) + 32)
    acc = epie.illumination_map(positions, probe, canvas)
    mask = epie.well_lit_mask(positions, probe, canvas, threshold=0.1)
    assert acc.shape == canvas
    assert mask.dtype == bool
    assert 0 < mask.sum() < mask.size
    assert np.all(acc[mask] >= 0.1 * acc.max())


def test_align_global_phase_removes_offset():
    rng = np.random.default_rng(6)
    gt = rng.uniform(-np.pi, np.pi, (16, 16))
    shifted = circphase.wrap_angle(gt + 1.3)
    aligned = epie.align_global_phase(shifted, gt)
    assert np.abs(circphase.wrapped_diff(gt, aligned)).max() < 1e-6
