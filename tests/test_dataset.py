import tracemalloc

import numpy as np
import pytest

from ptychokit import dataset, gridio, physics


def small_plan(seed=0, rows=6, cols=6):
    return dataset.plan_scan(rows=rows, cols=cols, step=8, jitter_max=3, seed=seed)


def test_gen_object_levels_and_wrap_stress():
    amp, phase = dataset.gen_object(200, 200, seed=0)
    assert amp.shape == phase.shape == (200, 200)
    allowed = np.array(dataset.PHASE_LEVELS + (0.0,))
    for lvl in np.unique(phase):
        assert np.min(np.abs(allowed - lvl)) < 1e-6
    amp_allowed = np.array(dataset.AMP_LEVELS + (dataset.BACKGROUND_AMP,))
    for lvl in np.unique(amp):
        assert np.min(np.abs(amp_allowed - lvl)) < 1e-6
    # wrap-adjacent plateaus exist: both extreme levels present
    assert np.any(np.isclose(phase, np.pi - 0.2))
    assert np.any(np.isclose(phase, -(np.pi - 0.2)))
    with pytest.raises(ValueError):
        dataset.gen_object(32, 32)


def test_gen_object_deterministic():
    a1, p1 = dataset.gen_object(150, 150, seed=9)
    a2, p2 = dataset.gen_object(150, 150, seed=9)
    assert np.array_equal(a1, a2) and np.array_equal(p1, p2)


def test_plan_scan_jitter_bounds():
    plan = small_plan(seed=1)
    for r, c, y, x in plan.positions:
        assert abs(y - (plan.jitter_max + r * plan.step)) <= plan.jitter_max
        assert abs(x - (plan.jitter_max + c * plan.step)) <= plan.jitter_max
    assert len(plan.positions) == 36
    assert plan.required_extent() == (3 + 5 * 8 + 32 + 3,) * 2


def test_make_dataset_shapes_and_gt_alignment():
    amp, phase = dataset.gen_object(100, 100, seed=2)
    probe = physics.make_probe()
    plan = small_plan(seed=2)
    frames, patches = dataset.make_dataset(amp, phase, probe, plan)
    assert len(frames) == len(patches) == 36
    f, p = frames[7], patches[7]
    assert f.intensity.shape == (32, 32)
    assert np.array_equal(p.amplitude, amp[f.y:f.y + 32, f.x:f.x + 32])
    assert np.array_equal(p.phase, phase[f.y:f.y + 32, f.x:f.x + 32])
    assert not f.noisy


def reference_intensity(obj, probe, y, x):
    """One frame simulated alone, each field kept as float32 (re, im) between steps."""
    def f32(z):
        return z.real.astype(np.float32), z.imag.astype(np.float32)

    def c128(re, im):
        return re.astype(np.complex128) + 1j * im.astype(np.complex128)

    p = probe.shape[0]
    window = c128(*f32(obj[y:y + p, x:x + p]))
    psi = c128(*f32(window * c128(*f32(probe))))
    re, im = f32(np.fft.fft2(psi, norm="ortho"))
    return (re.astype(np.float64) ** 2 + im.astype(np.float64) ** 2).astype(np.float32)


def test_make_dataset_blocks_equal_per_frame_reference():
    plan = small_plan(seed=3, rows=17, cols=17)
    n = len(plan.positions)
    assert n > dataset.SIM_BLOCK and n % dataset.SIM_BLOCK != 0
    amp, phase = dataset.gen_object(*plan.required_extent(), seed=3)
    probe = physics.make_probe()
    frames, _ = dataset.make_dataset(amp, phase, probe, plan)
    obj = amp.astype(np.float64) * np.exp(1j * phase.astype(np.float64))
    for f in frames:
        assert np.array_equal(f.intensity, reference_intensity(obj, probe, f.y, f.x))


def test_make_dataset_peak_memory_on_the_default_plan():
    # beside the frames it returns and the complex object it cuts windows from,
    # the simulation holds one block's transients: 1.4 MB at 64 windows a
    # block, 12.5 MB at 256
    amp, phase = dataset.gen_object()
    probe = physics.make_probe()
    plan = dataset.plan_scan()
    tracemalloc.start()
    try:
        frames, _ = dataset.make_dataset(amp, phase, probe, plan)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(frames) == 3721
    assert peak < held + amp.size * 16 + 6e6


def test_make_dataset_rejects_small_object():
    amp, phase = dataset.gen_object(70, 70, seed=3)
    probe = physics.make_probe()
    with pytest.raises(ValueError):
        dataset.make_dataset(amp, phase, probe, small_plan())


def test_make_dataset_rejects_negative_position():
    # a hand-made plan bypasses plan_scan's checks; the refusal is no assert,
    # so it holds under python -O too
    amp, phase = dataset.gen_object(100, 100, seed=3)
    plan = small_plan(rows=2, cols=2)
    plan.positions[1] = (0, 1, 4, -1)
    with pytest.raises(ValueError, match="negative"):
        dataset.make_dataset(amp, phase, physics.make_probe(), plan)


def test_make_dataset_noise_deterministic():
    amp, phase = dataset.gen_object(100, 100, seed=4)
    probe = physics.make_probe()
    noise = dataset.NoiseConfig(seed=11)
    f1, _ = dataset.make_dataset(amp, phase, probe, small_plan(4), noise)
    f2, _ = dataset.make_dataset(amp, phase, probe, small_plan(4), noise)
    assert all(np.array_equal(a.intensity, b.intensity) for a, b in zip(f1, f2))
    assert all(f.noisy for f in f1)


def test_split_rows():
    amp, phase = dataset.gen_object(100, 100, seed=5)
    probe = physics.make_probe()
    frames, _ = dataset.make_dataset(amp, phase, probe, small_plan(5))
    dataset.split_rows(frames, rows=6, train_rows=4, test_rows=2,
                       val_fraction=0.25, seed=0)
    splits = {s: sum(1 for f in frames if f.split == s) for s in ("train", "val", "test")}
    assert splits["test"] == 12
    assert splits["val"] == round(0.25 * 24)
    assert splits["train"] == 24 - splits["val"]
    assert all(f.split == "test" for f in frames if f.row >= 4)
    with pytest.raises(ValueError):
        dataset.split_rows(frames, rows=6, train_rows=3, test_rows=2)


def test_save_load_roundtrip(tmp_path):
    amp, phase = dataset.gen_object(100, 100, seed=6)
    probe = physics.make_probe()
    frames, patches = dataset.make_dataset(amp, phase, probe, small_plan(6),
                                           dataset.NoiseConfig(seed=1))
    dataset.split_rows(frames, rows=6, train_rows=4, test_rows=2, seed=0)
    meta = {"config_hash": "abc123", "probe_radius": 13.0}
    dataset.save_dataset(tmp_path, frames, amp, phase, probe, meta)
    assert np.array_equal(gridio.read_grid(tmp_path / "object_amplitude.ptg"), amp)
    assert np.array_equal(gridio.read_grid(tmp_path / "object_phase.ptg"), phase)
    f2, p2, probe2, meta2 = dataset.load_dataset(tmp_path)
    assert meta2["config_hash"] == "abc123"
    assert probe2.dtype == np.complex64 and np.array_equal(probe2, probe)
    assert len(f2) == len(frames)
    for a, b in zip(frames, f2):
        assert np.array_equal(a.intensity, b.intensity)
        assert (a.row, a.col, a.y, a.x, a.noisy, a.split) == (b.row, b.col, b.y, b.x, b.noisy, b.split)
    for a, b in zip(patches, p2):
        assert np.array_equal(a.amplitude, b.amplitude)
        assert np.array_equal(a.phase, b.phase)


def saved_dataset(path, seed, noise=None):
    amp, phase = dataset.gen_object(100, 100, seed=seed)
    probe = physics.make_probe()
    frames, _ = dataset.make_dataset(amp, phase, probe, small_plan(seed), noise)
    dataset.split_rows(frames, rows=6, train_rows=4, test_rows=2, seed=0)
    dataset.save_dataset(path, frames, amp, phase, probe, {"config_hash": "abc123"})


@pytest.mark.parametrize("noise", [None, dataset.NoiseConfig(seed=2)], ids=["clean", "noisy"])
def test_load_dataset_patches_equal_stored_patch_files(tmp_path, noise):
    saved_dataset(tmp_path, 7, noise)
    frames, patches, _, _ = dataset.load_dataset(tmp_path)
    assert all(f.noisy == (noise is not None) for f in frames)
    assert len(patches) == 36
    for i, patch in enumerate(patches):
        for kind in ("amplitude", "phase"):
            stored = gridio.read_grid(tmp_path / "frames" / f"{i:05d}_{kind}.ptg")
            got = getattr(patch, kind)
            assert got.dtype == stored.dtype and got.tobytes() == stored.tobytes()


def test_load_dataset_patches_are_read_only_views(tmp_path):
    saved_dataset(tmp_path, 8)
    frames, patches, _, _ = dataset.load_dataset(tmp_path, split="test")
    a, b = patches[0], patches[1]
    assert (frames[0].row, frames[1].col) == (frames[1].row, frames[0].col + 1)
    for arr in (a.amplitude, a.phase, b.amplitude, b.phase):
        assert arr.base is not None and not arr.flags.writeable
    # horizontal neighbours overlap, so their windows share the object's memory
    assert np.shares_memory(a.amplitude, b.amplitude) and np.shares_memory(a.phase, b.phase)
    with pytest.raises(ValueError):
        a.amplitude[0, 0] = 0.0


@pytest.mark.parametrize("split", [None, "test"], ids=["all", "test"])
def test_load_dataset_keeps_the_covered_box_and_its_patches_are_the_full_grids_windows(
        tmp_path, split):
    saved_dataset(tmp_path, 10)
    frames, patches, probe, _ = dataset.load_dataset(tmp_path, split=split)
    full = {kind: gridio.read_grid(tmp_path / f"object_{kind}.ptg")
            for kind in ("amplitude", "phase")}
    p = probe.shape[0]
    for f, patch in zip(frames, patches):
        for kind, grid in full.items():
            got = getattr(patch, kind)
            assert got.tobytes() == grid[f.y:f.y + p, f.x:f.x + p].tobytes()
    box = (max(f.y for f in frames) + p - min(f.y for f in frames),
           max(f.x for f in frames) + p - min(f.x for f in frames))
    assert patches[0].amplitude.base.shape == patches[0].phase.base.shape == box
    assert box != full["amplitude"].shape


def test_streamed_frames_read_their_files_when_used(tmp_path):
    saved_dataset(tmp_path, 11)
    eager, _, _ = dataset.load_frames(tmp_path, split="test")
    streamed, _, _ = dataset.load_frames(tmp_path, split="test", stream=True)
    assert [(f.row, f.col, f.y, f.x, f.noisy, f.split) for f in streamed] == \
        [(f.row, f.col, f.y, f.x, f.noisy, f.split) for f in eager]
    assert all(np.array_equal(a.intensity, b.intensity) for a, b in zip(eager, streamed))
    # the checks of an eager load apply when a streamed frame is read
    path = tmp_path / "frames" / "00035_intensity.ptg"
    gridio.write_grid(path, -gridio.read_grid(path))
    streamed, _, _ = dataset.load_frames(tmp_path, split="test", stream=True)
    with pytest.raises(ValueError, match=f"{path}: negative intensity"):
        streamed[-1].intensity


def test_load_dataset_rejects_window_outside_object(tmp_path):
    saved_dataset(tmp_path, 9)
    manifest = tmp_path / "manifest.csv"
    lines = manifest.read_text().splitlines()
    fields = lines[1].split(",")
    fields[dataset.MANIFEST_FIELDS.index("y")] = "90"
    lines[1] = ",".join(fields)
    manifest.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="outside"):
        dataset.load_dataset(tmp_path)


def test_adjacent_windows_overlap_without_jitter():
    plan = dataset.plan_scan(rows=3, cols=3, step=8, jitter_max=0)
    (_, _, y0, x0), (_, _, y1, x1) = plan.positions[0], plan.positions[1]
    assert (y0, abs(x1 - x0)) == (0, 8)
    overlap = (32 - 8) * 32 / (32 * 32)
    assert overlap >= 0.75


def test_default_object_accommodates_default_scan():
    plan = dataset.plan_scan()
    assert max(plan.required_extent()) <= dataset.DEFAULT_OBJECT_SIZE
