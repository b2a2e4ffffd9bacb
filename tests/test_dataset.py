import re
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
    table = small_plan(seed=1)
    assert table.dtype == dataset.TABLE and len(table) == 36
    assert np.abs(table["y"] - (3 + table["row"] * 8)).max() <= 3
    assert np.abs(table["x"] - (3 + table["col"] * 8)).max() <= 3


def test_plan_scan_positions_are_pinned():
    # the jitter is drawn row by row, y before x: any other order moves these
    table = dataset.plan_scan(rows=2, cols=3, step=8, jitter_max=3, seed=5)
    assert table.tolist() == [(0, 0, 4, 5, False, "train"), (0, 1, 0, 13, False, "train"),
                              (0, 2, 3, 19, False, "train"), (1, 0, 12, 2, False, "train"),
                              (1, 1, 14, 8, False, "train"), (1, 2, 9, 18, False, "train")]


def test_make_dataset_shapes_and_gt_alignment():
    amp, phase = dataset.gen_object(100, 100, seed=2)
    probe = physics.make_probe()
    plan = small_plan(seed=2)
    intensity, table, truth = dataset.make_dataset(amp, phase, probe, plan)
    assert intensity.shape == (36, 32, 32) and intensity.dtype == np.float32
    assert table.tolist() == plan.tolist()
    y, x = table["y"][7], table["x"][7]
    a, p = truth.windows(y, x)
    assert np.array_equal(a, amp[y:y + 32, x:x + 32])
    assert np.array_equal(p, phase[y:y + 32, x:x + 32])
    stacked = truth.windows(table["y"], table["x"])
    assert stacked[0].shape == stacked[1].shape == (36, 32, 32)
    assert np.array_equal(stacked[0][7], a) and np.array_equal(stacked[1][7], p)


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
    n = len(plan)
    assert n > dataset.SIM_BLOCK and n % dataset.SIM_BLOCK != 0
    size = 16 * 8 + 32 + 2 * 3  # the largest object any seed's 17 x 17 scan needs
    amp, phase = dataset.gen_object(size, size, seed=3)
    probe = physics.make_probe()
    intensity, table, _ = dataset.make_dataset(amp, phase, probe, plan)
    obj = amp.astype(np.float64) * np.exp(1j * phase.astype(np.float64))
    for frame, (y, x) in zip(intensity, dataset.positions(table)):
        assert np.array_equal(frame, reference_intensity(obj, probe, y, x))


def test_make_dataset_peak_memory_on_the_default_plan():
    # beside the stack it returns and the complex object it cuts windows from,
    # the simulation holds one block's transients: 1.4 MB at 64 windows a
    # block, 12.5 MB at 256
    amp, phase = dataset.gen_object()
    probe = physics.make_probe()
    plan = dataset.plan_scan()
    tracemalloc.start()
    try:
        intensity, _, _ = dataset.make_dataset(amp, phase, probe, plan)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(intensity) == 3721
    assert peak < held + amp.size * 16 + 6e6


def test_make_dataset_rejects_small_object():
    amp, phase = dataset.gen_object(70, 70, seed=3)
    probe = physics.make_probe()
    with pytest.raises(ValueError, match="lies outside the 70 x 70 object"):
        dataset.make_dataset(amp, phase, probe, small_plan())


def test_make_dataset_rejects_negative_position():
    # an edited table bypasses plan_scan's checks; the refusal is no assert,
    # so it holds under python -O too
    amp, phase = dataset.gen_object(100, 100, seed=3)
    plan = small_plan(rows=2, cols=2)
    plan["x"][1] = -1
    with pytest.raises(ValueError, match=r"frame at \(\d+, -1\) lies outside"):
        dataset.make_dataset(amp, phase, physics.make_probe(), plan)


@pytest.mark.parametrize("y,x", [(4, -1), (-2, 3), (69, 4), (4, 69)],
                         ids=["negative_x", "negative_y", "beyond_y", "beyond_x"])
def test_make_and_load_dataset_refuse_a_window_outside_with_one_message(tmp_path, y, x):
    # a 32 x 32 window at (y, x) in a 100 x 100 object
    amp, phase = dataset.gen_object(100, 100, seed=3)
    probe = physics.make_probe()
    plan = small_plan(rows=2, cols=2)
    plan[["y", "x"]][3] = (y, x)
    message = f"frame at ({y}, {x}) lies outside the 100 x 100 object"
    with pytest.raises(ValueError) as made:
        dataset.make_dataset(amp, phase, probe, plan)
    assert str(made.value) == f"scan: {message}"
    # saved from a table inside the object, then given the window in the manifest
    intensity, table, _ = dataset.make_dataset(amp, phase, probe, small_plan(rows=2, cols=2))
    dataset.save_dataset(tmp_path, intensity, table, amp, phase, probe, {})
    rows = dataset.read_table(tmp_path / "manifest.csv", dataset.MANIFEST_FIELDS,
                              dataset.MANIFEST_INT_FIELDS)
    rows[3].update(y=y, x=x)
    gridio.write_csv(tmp_path / "manifest.csv", dataset.MANIFEST_FIELDS,
                     [[row[k] for k in dataset.MANIFEST_FIELDS] for row in rows])
    with pytest.raises(ValueError) as loaded:
        dataset.load_dataset(tmp_path)
    if min(y, x) < 0:  # the manifest's reader refuses a negative position first
        key = "y" if y < 0 else "x"
        assert str(loaded.value) == (f"{tmp_path / 'manifest.csv'}:5: '{key}' must be >= 0, "
                                     f"got {min(y, x)}")
    else:
        assert str(loaded.value) == f"{tmp_path}: {message}"


def test_make_dataset_noise_deterministic():
    amp, phase = dataset.gen_object(100, 100, seed=4)
    probe = physics.make_probe()
    noise = {"seed": 11}
    i1, table, _ = dataset.make_dataset(amp, phase, probe, small_plan(4), noise)
    i2, _, _ = dataset.make_dataset(amp, phase, probe, small_plan(4), noise)
    assert np.array_equal(i1, i2)
    assert table["noisy"].all()


def test_split_rows():
    frame_rows = np.repeat(np.arange(6), 6)
    split = dataset.split_rows(frame_rows, rows=6, train_rows=4, test_rows=2,
                               val_fraction=0.25, seed=0)
    splits = {s: int(np.sum(split == s)) for s in ("train", "val", "test")}
    assert splits["test"] == 12
    assert splits["val"] == round(0.25 * 24)
    assert splits["train"] == 24 - splits["val"]
    assert np.all(split[frame_rows >= 4] == "test")
    with pytest.raises(ValueError):
        dataset.split_rows(frame_rows, rows=6, train_rows=3, test_rows=2)


def test_save_load_roundtrip(tmp_path):
    amp, phase = dataset.gen_object(100, 100, seed=6)
    probe = physics.make_probe()
    intensity, table, truth = dataset.make_dataset(amp, phase, probe, small_plan(6),
                                                   {"seed": 1})
    table["split"] = dataset.split_rows(table["row"], rows=6, train_rows=4, test_rows=2, seed=0)
    meta = {"config_hash": "abc123", "probe_radius": 13.0}
    dataset.save_dataset(tmp_path, intensity, table, amp, phase, probe, meta)
    assert np.array_equal(gridio.read_grid(tmp_path / "object_amplitude.ptg"), amp)
    assert np.array_equal(gridio.read_grid(tmp_path / "object_phase.ptg"), phase)
    files, table2, truth2, probe2, meta2 = dataset.load_dataset(tmp_path)
    assert meta2["config_hash"] == "abc123"
    assert probe2.dtype == np.complex64 and np.array_equal(probe2, probe)
    assert len(files) == len(intensity)
    assert np.array_equal(files[:], intensity)
    assert table2.dtype == table.dtype and np.array_equal(table2, table)
    assert truth2.origin == truth.origin and truth2.p == truth.p
    assert np.array_equal(truth2.amplitude, truth.amplitude)
    assert np.array_equal(truth2.phase, truth.phase)


def saved_dataset(path, seed, noise=None):
    amp, phase = dataset.gen_object(100, 100, seed=seed)
    probe = physics.make_probe()
    intensity, table, _ = dataset.make_dataset(amp, phase, probe, small_plan(seed), noise)
    table["split"] = dataset.split_rows(table["row"], rows=6, train_rows=4, test_rows=2, seed=0)
    dataset.save_dataset(path, intensity, table, amp, phase, probe, {"config_hash": "abc123"})


def to_old_layout(path):
    """Move a saved dataset's amplitude and phase windows into frames/, where
    they lay before they had directories of their own, and name them so in
    the manifest."""
    for kind in ("amplitude", "phase"):
        for window in (path / kind).iterdir():
            window.rename(path / "frames" / window.name)
        (path / kind).rmdir()
    manifest = path / "manifest.csv"
    manifest.write_text(re.sub(r",(amplitude|phase)/", ",frames/", manifest.read_text()))


@pytest.mark.parametrize("noise,layout", [(None, "amplitude/"), ({"seed": 2}, "amplitude/"),
                                          (None, "frames/")],
                         ids=["clean", "noisy", "old_layout"])
def test_load_dataset_patches_equal_stored_patch_files(tmp_path, noise, layout):
    # the windows are read from the manifest's paths, which in the old layout
    # name files in frames/
    saved_dataset(tmp_path, 7, noise)
    if layout == "frames/":
        to_old_layout(tmp_path)
    _, table, truth, _, _ = dataset.load_dataset(tmp_path)
    rows = dataset.read_table(tmp_path / "manifest.csv", dataset.MANIFEST_FIELDS,
                              dataset.MANIFEST_INT_FIELDS)
    assert np.all(table["noisy"] == (noise is not None))
    assert len(table) == len(rows) == 36
    assert rows[5]["amplitude"] == f"{layout}00005_amplitude.ptg"
    stacks = truth.windows(table["y"], table["x"])
    for i, ((y, x), row) in enumerate(zip(dataset.positions(table), rows)):
        for kind, window, stack in zip(("amplitude", "phase"), truth.windows(y, x), stacks):
            stored = gridio.read_grid(tmp_path / row[kind])
            for got in (window, stack[i]):
                assert got.dtype == stored.dtype and got.tobytes() == stored.tobytes()


def test_load_dataset_patches_are_read_only_views(tmp_path):
    saved_dataset(tmp_path, 8)
    _, table, truth, _, _ = dataset.load_dataset(tmp_path, split="test")
    (r0, c0, y0, x0), (r1, c1, y1, x1) = table[["row", "col", "y", "x"]][:2].tolist()
    assert (r0, c1) == (r1, c0 + 1)
    a, b = truth.windows(y0, x0), truth.windows(y1, x1)
    for arr in a + b:
        assert arr.base is not None and not arr.flags.writeable
    # horizontal neighbours overlap, so their windows share the box's memory
    assert np.shares_memory(a[0], b[0]) and np.shares_memory(a[1], b[1])
    with pytest.raises(ValueError):
        a[0][0, 0] = 0.0


@pytest.mark.parametrize("split", [None, "test"], ids=["all", "test"])
def test_load_dataset_keeps_the_covered_box_and_its_patches_are_the_full_grids_windows(
        tmp_path, split):
    saved_dataset(tmp_path, 10)
    _, table, truth, probe, _ = dataset.load_dataset(tmp_path, split=split)
    full = {kind: gridio.read_grid(tmp_path / f"object_{kind}.ptg")
            for kind in ("amplitude", "phase")}
    p = probe.shape[0]
    for y, x in dataset.positions(table):
        for grid, got in zip(full.values(), truth.windows(y, x)):
            assert got.tobytes() == grid[y:y + p, x:x + p].tobytes()
    origin = (table["y"].min(), table["x"].min())
    box = (table["y"].max() + p - origin[0], table["x"].max() + p - origin[1])
    assert truth.origin == origin and truth.p == p
    assert truth.amplitude.shape == truth.phase.shape == box
    assert box != full["amplitude"].shape


def test_streamed_frames_read_their_files_when_used(tmp_path, monkeypatch):
    saved_dataset(tmp_path, 11)
    read = []
    real_read = gridio.read_grid
    monkeypatch.setattr(gridio, "read_grid", lambda path: read.append(path) or real_read(path))
    files, table, _, _ = dataset.load_frames(tmp_path, split="test")
    assert len(files) == len(table) == 12 and read == [str(tmp_path / "probe.ptg")]
    part = files[2:5]
    assert part.shape == (3, 32, 32) and part.dtype == np.float32
    assert read[1:] == files.paths[2:5]
    for frame, path in zip(part, read[1:]):
        assert np.array_equal(frame, real_read(path))
    # each file is checked when it is read
    path = tmp_path / "frames" / "00035_intensity.ptg"
    gridio.write_grid(path, -real_read(path))
    assert files[:-1].shape == (11, 32, 32)
    with pytest.raises(ValueError, match=f"{path}: negative intensity"):
        files[:]


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
    (y0, x0), (y1, x1) = dataset.positions(dataset.plan_scan(rows=3, cols=3, step=8,
                                                             jitter_max=0))[:2]
    assert (y0, abs(x1 - x0)) == (0, 8)
    overlap = (32 - 8) * 32 / (32 * 32)
    assert overlap >= 0.75


def test_default_object_accommodates_default_scan():
    # the bound `simulate` checks, which holds for every seed of the default scan
    size, p = dataset.DEFAULT_OBJECT_SIZE, physics.PROBE_SIZE
    side = (max(dataset.DEFAULT_ROWS, dataset.DEFAULT_COLS) - 1) * dataset.DEFAULT_STEP
    assert side + p + 2 * dataset.DEFAULT_JITTER <= size
    table = dataset.plan_scan()
    assert max(table["y"].max(), table["x"].max()) + p <= size
