import tracemalloc

import numpy as np
import pytest

from ptychokit import circphase, dataset, gridio, model, recon


def test_stitch_kernel_shape_and_positivity():
    k = recon.stitch_kernel(32, 1e-6)
    assert k.shape == (32, 32)
    assert np.all(k > 0)
    assert k[15, 15] == k.max()  # peak at (near-)center
    assert k[0, 0] == pytest.approx(1e-6, abs=1e-9)  # corner hits the floor


def test_stitch_reproduces_ground_truth():
    rng = np.random.default_rng(0)
    full = rng.uniform(0, 1, (70, 70))
    positions = [(y, x) for y in range(0, 33, 8) for x in range(0, 33, 8)]
    patches = [full[y:y + 32, x:x + 32] for y, x in positions]
    out, mask = recon.stitch(patches, positions, (70, 70))
    assert np.all(mask[:64, :64])
    assert np.mean((out[mask] - full[mask]) ** 2) < 1e-10
    assert not mask[0, 69]  # pixel beyond every patch stays masked
    with pytest.raises(ValueError):
        recon.stitch([], [], (8, 8))
    for floor in (-1e-6, np.nan):
        with pytest.raises(ValueError):
            recon.stitch(patches, positions, (70, 70), weight_floor=floor)


def test_stitch_phase_across_cut():
    # two patches with phases just either side of +-pi: blended phase stays near the cut
    p1 = np.full((32, 32), np.pi - 0.02)
    p2 = np.full((32, 32), -(np.pi - 0.02))
    phase, mask = recon.stitch_phase([p1, p2], [(0, 0), (0, 8)], (32, 40))
    overlap = phase[:, 8:32]
    assert np.all(circphase.geodesic_dist(overlap, np.pi) < 0.06)
    assert np.all(np.abs(overlap) > np.pi - 0.06)  # never averages to ~0


def test_metrics_amplitude():
    rng = np.random.default_rng(1)
    x = rng.uniform(0, 1, (32, 32))
    mse, mae, psnr, ssim_v = recon.metrics(x, x, "amplitude")
    assert mse == 0.0 and mae == 0.0
    assert psnr == recon.PSNR_CAP_DB
    assert ssim_v == pytest.approx(1.0, abs=1e-6)
    noisy = x + 0.1
    mse2, mae2, psnr2, _ = recon.metrics(x, noisy, "amplitude")
    assert mse2 == pytest.approx(0.01, rel=1e-6)
    assert mae2 == pytest.approx(0.1, rel=1e-6)
    assert psnr2 == pytest.approx(20.0, abs=1e-6)  # 10*log10(1/0.01)


def test_metrics_phase_wraps():
    x = np.full((32, 32), np.pi - 0.05)
    xhat = np.full((32, 32), -(np.pi - 0.05))
    mse, mae, _, _ = recon.metrics(x, xhat, "phase")
    assert mae == pytest.approx(0.1, abs=1e-9)  # wrapped residual, not ~2*pi
    assert mse == pytest.approx(0.01, abs=1e-9)
    with pytest.raises(ValueError):
        recon.metrics(x, xhat, "intensity")
    with pytest.raises(ValueError):
        recon.metrics(x, xhat[:16], "phase")


def test_radial_psd_properties():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(64, 64))
    radii, curve, bands = recon.radial_psd(x)
    assert radii[-1] == 32
    assert len(curve) == 33
    assert sum(bands) == pytest.approx(100.0, abs=1e-9)
    assert np.all(np.asarray(bands) >= 0)
    with pytest.raises(ValueError):
        recon.radial_psd(np.zeros((8, 9)))


def test_radial_psd_constant_and_checkerboard():
    assert recon.radial_psd(np.ones((32, 32)))[2] == (100.0, 0.0, 0.0)
    yy, xx = np.mgrid[0:32, 0:32]
    checker = ((yy + xx) % 2).astype(float)
    _, _, bands = recon.radial_psd(checker)
    assert bands[2] >= 99.0


def test_radial_psd_low_frequency_image():
    yy = np.linspace(0, 2 * np.pi, 64)
    smooth = np.sin(yy)[:, None] * np.ones(64)[None, :]
    _, _, bands = recon.radial_psd(smooth)
    assert bands[0] > 95.0


def test_infer_does_not_depend_on_batch_size():
    cfg = model.ModelConfig(n_c=4, seed=3)
    params = model.init_params(cfg)
    rng = np.random.default_rng(3)
    intensity = rng.uniform(0, 50, (70, 32, 32)).astype(np.float32)
    want = list(recon.iter_infer(intensity, params, cfg, batch_size=64))
    for batch_size in (8, 32):
        got = list(recon.iter_infer(intensity, params, cfg, batch_size=batch_size))
        assert len(got) == len(want)
        for (a, phi), (a_ref, phi_ref) in zip(got, want):
            assert np.allclose(a, a_ref, rtol=0, atol=1e-6)
            assert np.abs(circphase.wrapped_diff(phi, phi_ref)).max() <= 1e-6


def _scan(n_side=20, step=2, p=32, seed=4):
    """Positions on an n_side^2 grid, their ground truth (the object as the box of
    a `dataset.Truth` at (0, 0)), and a fresh generator of slightly perturbed
    (amplitude, phase) predictions."""
    rng = np.random.default_rng(seed)
    size = (n_side - 1) * step + p
    amp = rng.uniform(0.1, 1.0, (size, size)).astype(np.float32)
    phase = rng.uniform(-np.pi, np.pi, (size, size)).astype(np.float32)
    positions = [(r * step, c * step) for r in range(n_side) for c in range(n_side)]
    truth = dataset.Truth(amp, phase, (0, 0), p)

    def predictions():
        for i, (y, x) in enumerate(positions):
            a, phi = truth.windows(y, x)
            noise = np.random.default_rng(i).normal(0.0, 0.05, (p, p))
            yield (a + noise).astype(np.float32), circphase.wrapped_diff(phi + noise, 0.0)
    return positions, truth, predictions


def test_report_streams_predictions():
    positions, gt, predictions = _scan()
    n, p = len(positions), gt.p
    canvas_bytes = (positions[-1][0] + p) * (positions[-1][1] + p) * 8
    tracemalloc.start()
    try:
        rep = recon.report(positions, predictions(), gt)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Holding every float64 phase prediction alone would take n * p^2 * 8 bytes;
    # the blends, stitched fields and spectra take some 16 canvases at most.
    assert peak < n * p * p * 8 + 16 * canvas_bytes
    want = recon.report(positions, list(predictions()), gt)
    for name, field in want.fields.items():
        assert np.array_equal(rep.fields[name], field)
    for kind in ("amplitude", "phase"):
        for m in recon.METRIC_NAMES:
            assert np.array_equal(rep.per_sample[kind][m], want.per_sample[kind][m])


def test_report_checks_prediction_count():
    positions, gt, predictions = _scan(n_side=3)
    preds = list(predictions())
    for wrong in (preds[:-1], preds + preds[:1], []):
        with pytest.raises(ValueError, match="align"):
            recon.report(positions, iter(wrong), gt)


def test_written_psd_is_that_of_the_covered_box(tmp_path):
    # frames in the lower rows only leave the canvas's top uncovered: the PSD
    # curves written are those of the covered box, from which the bands come
    positions, gt, predictions = _scan(n_side=8)
    keep = [i for i, (y, _) in enumerate(positions) if y >= 4 * 2]
    preds = list(predictions())
    rep = recon.report([positions[i] for i in keep], [preds[i] for i in keep], gt)
    recon.write_report(str(tmp_path), rep)
    assert rep.origin == (positions[keep[0]][0], 0)
    ys, xs = np.where(rep.fields["mask"])
    for kind, name in (("amplitude", "amp_hat"), ("phase", "phase_hat")):
        crop = rep.fields[name][ys.min():ys.max() + 1, xs.min():xs.max() + 1]
        side = min(crop.shape)
        radii, curve, bands = recon.radial_psd(crop[:side, :side])
        written = np.loadtxt(tmp_path / f"psd_{kind}.txt")
        assert np.array_equal(written[:, 0], radii)
        assert np.allclose(written[:, 1], curve, rtol=1e-9, atol=0)
        assert rep.bands[kind] == bands


def _part_of_scan(keep, n_side=20, step=24):
    """`_scan`'s positions, ground truth and predictions for the scan (row, col)s
    that `keep` takes."""
    positions, gt, predictions = _scan(n_side=n_side, step=step)
    kept = [i for i, (y, x) in enumerate(positions) if keep(y // step, x // step)]
    preds = list(predictions())
    return [positions[i] for i in kept], gt, [preds[i] for i in kept]


def test_report_fields_are_the_scan_box_and_written_on_the_full_canvas(tmp_path):
    positions, gt, preds = _part_of_scan(lambda row, col: row >= 15 and col >= 15)
    p = gt.p
    rep = recon.report(positions, preds, gt)
    origin = positions[0]
    full = (positions[-1][0] + p, positions[-1][1] + p)
    assert origin == (15 * 24, 15 * 24) and rep.origin == origin
    for field in rep.fields.values():
        assert field.shape == (full[0] - origin[0], full[1] - origin[1])
    recon.write_report(str(tmp_path / "rep"), rep)
    for name, pairs in (("hat", preds), ("gt", [gt.windows(y, x) for y, x in positions])):
        amp, mask = recon.stitch([a for a, _ in pairs], positions, full)
        phase, _ = recon.stitch_phase([phi for _, phi in pairs], positions, full)
        for kind, want in (("amp", amp), ("phase", phase)):
            gridio.write_grid(tmp_path / "want.ptg", want)
            written = (tmp_path / "rep" / f"{kind}_{name}.ptg").read_bytes()
            assert written == (tmp_path / "want.ptg").read_bytes()
    assert np.array_equal(rep.fields["mask"], mask[origin[0]:, origin[1]:])
    assert not mask[:origin[0]].any() and not mask[:, :origin[1]].any()


def test_report_peak_memory_scales_with_the_scan_box():
    # a scan of the last row only: each blend holds four canvases at once (three
    # channel sums and the weight), so a peak below four full canvases shows the
    # blends, the fields and the metrics work on the scan's box
    positions, gt, preds = _part_of_scan(lambda row, col: row == 19)
    p = gt.p
    canvas_bytes = (positions[-1][0] + p) * (positions[-1][1] + p) * 8
    tracemalloc.start()
    try:
        recon.report(positions, iter(preds), gt)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * canvas_bytes
