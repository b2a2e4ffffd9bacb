"""Synthetic bar-target objects, scan simulation, splits, and dataset persistence."""

import csv
import io
import os
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import gridio, physics

# Smallest comfortable canvas for the 61x61 / step-8 / probe-32 plan with
# 3-pixel jitter margin on both sides (needs >= 518).
DEFAULT_OBJECT_SIZE = 520
DEFAULT_ROWS = 61
DEFAULT_COLS = 61
DEFAULT_STEP = 8
DEFAULT_JITTER = 3

AMP_LEVELS = (0.2, 0.9)
PHASE_LEVELS = (-(np.pi - 0.2), -1.2, 0.0, 1.2, np.pi - 0.2)
BACKGROUND_AMP = 0.55
BACKGROUND_PHASE = 0.0

# windows per exit_wave/diffract call. On the default plan make_dataset's traced
# peak is 23.3 MB (10^6 bytes) at 64, of which it holds 17.6 MB when it returns;
# 256 peaked at 34.4 MB, and one stack of all 3,721 windows would double the
# simulation's peak RSS. 64 is no slower than 256 (0.10 against 0.12 s)
SIM_BLOCK = 64


# A scan's table: one entry per frame, in frame order; a split is a mask of it
TABLE = np.dtype([("row", np.int64), ("col", np.int64), ("y", np.int64), ("x", np.int64),
                  ("noisy", bool), ("split", "U5")])


@dataclass
class Truth:
    """A scan's ground truth: the box of the float32 amplitude and phase grids
    that its p x p windows cover, [min y, max y + p) x [min x, max x + p)."""

    amplitude: np.ndarray
    phase: np.ndarray
    origin: tuple  # the box's (y, x) in the object
    p: int

    def windows(self, y, x):
        """The (amplitude, phase) windows at object positions (y, x): views at one
        position, (n, p, p) stacks gathered at arrays of n."""
        at = (np.subtract(y, self.origin[0]), np.subtract(x, self.origin[1]))
        return tuple(sliding_window_view(grid, (self.p, self.p))[at]
                     for grid in (self.amplitude, self.phase))


def _box(table, p):
    """(y, x) slices of the box that the table's p x p windows cover."""
    return tuple(slice(min(v, default=0), max(v, default=-p) + p)
                 for v in (table["y"].tolist(), table["x"].tolist()))


def positions(table):
    """The table's window positions, as (y, x) pairs of ints."""
    return list(zip(table["y"].tolist(), table["x"].tolist()))


def _check_inside(table, p, shape, where):
    """Refuse a table with a p x p window that is not inside an object of
    `shape`: a negative y or x would index from the object's far edge."""
    h, w = shape
    ys, xs = table["y"], table["x"]
    outside = np.flatnonzero((ys < 0) | (xs < 0) | (ys > h - p) | (xs > w - p))
    if outside.size:
        y, x = table[["y", "x"]][outside[0]].tolist()
        raise ValueError(f"{where}: frame at ({y}, {x}) lies outside the {h} x {w} object")


def gen_object(height=DEFAULT_OBJECT_SIZE, width=DEFAULT_OBJECT_SIZE, seed=0):
    """Piecewise-constant bar target with wrap-adjacent phase plateaus.

    Bar groups (3 parallel bars at several scales, both orientations) plus
    occasional split plateaus placing +(pi-0.2) and -(pi-0.2) side by side,
    so plateaus straddling the +-pi branch cut occur by construction.
    """
    if min(height, width) < 64:
        raise ValueError(f"need object_size >= 64, got {min(height, width)}")
    rng = np.random.default_rng(seed)
    amp = np.full((height, width), BACKGROUND_AMP, dtype=np.float32)
    phase = np.full((height, width), BACKGROUND_PHASE, dtype=np.float32)

    cell = 40
    widths = (4, 6, 8, 12)
    level_cycle = list(PHASE_LEVELS)
    for cy in range(0, height - cell + 1, cell):
        for cx in range(0, width - cell + 1, cell):
            a_level = AMP_LEVELS[rng.integers(0, len(AMP_LEVELS))]
            if rng.random() < 0.3:
                # wrap-stress block: two touching plateaus across the cut
                by, bx, bs = cy + 6, cx + 6, 28
                half = bs // 2
                amp[by:by + bs, bx:bx + bs] = a_level
                phase[by:by + bs, bx:bx + half] = PHASE_LEVELS[-1]
                phase[by:by + bs, bx + half:bx + bs] = PHASE_LEVELS[0]
                continue
            w = int(widths[rng.integers(0, len(widths))])
            length = min(5 * w, cell - 4)
            offset = int(rng.integers(0, len(level_cycle)))
            horizontal = rng.random() < 0.5
            for b in range(3):
                lvl = level_cycle[(offset + b) % len(level_cycle)]
                if horizontal:
                    y0 = cy + 2 + b * 2 * w
                    if y0 + w > cy + cell:
                        break
                    amp[y0:y0 + w, cx + 2:cx + 2 + length] = a_level
                    phase[y0:y0 + w, cx + 2:cx + 2 + length] = lvl
                else:
                    x0 = cx + 2 + b * 2 * w
                    if x0 + w > cx + cell:
                        break
                    amp[cy + 2:cy + 2 + length, x0:x0 + w] = a_level
                    phase[cy + 2:cy + 2 + length, x0:x0 + w] = lvl
    return amp, phase


def plan_scan(rows=DEFAULT_ROWS, cols=DEFAULT_COLS, step=DEFAULT_STEP,
              jitter_max=DEFAULT_JITTER, seed=0):
    """The scan's table, row by row: a regular grid plus integer per-axis jitter
    uniform in [-jitter_max, +jitter_max]; every frame clean and in train."""
    for key, value, least in (("rows", rows, 1), ("cols", cols, 1), ("step", step, 1),
                              ("jitter_max", jitter_max, 0)):
        if value < least:
            raise ValueError(f"need {key} >= {least}, got {value}")
    rng = np.random.default_rng(seed)
    entries = []
    for r in range(rows):
        for c in range(cols):
            jy = int(rng.integers(-jitter_max, jitter_max + 1)) if jitter_max else 0
            jx = int(rng.integers(-jitter_max, jitter_max + 1)) if jitter_max else 0
            entries.append((r, c, jitter_max + r * step + jy, jitter_max + c * step + jx,
                            False, "train"))
    return np.array(entries, dtype=TABLE)


def make_dataset(amplitude, phase, probe, table, noise=None):
    """Simulate a scan of `table`'s windows: its float32 (N, p, p) intensity stack,
    a copy of the table with `noisy` set, and its `Truth`, whose box is a view of
    the object. `noise`, if given, is a dict of `physics.add_noise`'s peak_photons,
    read_sigma and seed, applied to each frame against the scan's maximum intensity.

    Frames are simulated SIM_BLOCK windows at a time; each frame's intensity
    is bitwise the same as simulating it alone.
    """
    amplitude = np.asarray(amplitude, dtype=np.float32)
    phase = np.asarray(phase, dtype=np.float32)
    p = probe.shape[0]
    _check_inside(table, p, amplitude.shape, "scan")
    table = table.copy()
    table["noisy"] = noise is not None
    ys, xs = table["y"], table["x"]
    obj = amplitude.astype(np.float64) * np.exp(1j * phase.astype(np.float64))
    windows = sliding_window_view(obj, (p, p))  # windows[y, x] is the p x p window at (y, x)
    intensity = np.empty((len(table), p, p), dtype=np.float32)
    for start in range(0, len(table), SIM_BLOCK):
        block = slice(start, start + SIM_BLOCK)
        intensity[block] = physics.diffract(physics.exit_wave(windows[ys[block], xs[block]], probe))
    if noise is not None:
        ref_max = float(intensity.max())
        for i, clean in enumerate(intensity):
            intensity[i] = physics.add_noise(clean, **noise, frame_index=i, ref_max=ref_max)
    box = _box(table, p)
    return intensity, table, Truth(amplitude[box], phase[box], (box[0].start, box[1].start), p)


def split_rows(frame_rows, rows=DEFAULT_ROWS, train_rows=49, test_rows=12,
               val_fraction=0.05, seed=0):
    """Split labels of frames in scan rows `frame_rows`: the first train_rows rows
    -> train (minus a seeded val sample), the last test_rows rows -> test."""
    if train_rows < 1:
        raise ValueError(f"need train_rows >= 1, got {train_rows}")
    if test_rows < 0:
        raise ValueError(f"need test_rows >= 0, got {test_rows}")
    if not 0 <= val_fraction < 1:  # False for NaN too
        raise ValueError(f"need 0 <= val_fraction < 1, got {val_fraction}")
    if train_rows + test_rows != rows:
        raise ValueError(f"train_rows + test_rows != rows ({train_rows}+{test_rows} != {rows})")
    in_train = np.asarray(frame_rows) < train_rows
    labels = np.where(in_train, "train", "test")
    train_pool = np.flatnonzero(in_train)
    n_val = int(round(val_fraction * len(train_pool)))
    rng = np.random.default_rng(seed)
    labels[train_pool[rng.choice(len(train_pool), size=n_val, replace=False)]] = "val"
    return labels


# ---------------------------------------------------------------------------
# persistence

MANIFEST_FIELDS = ["index", "intensity", "amplitude", "phase", "row", "col",
                   "y", "x", "noisy", "split"]
MANIFEST_INT_FIELDS = ("index", "row", "col", "y", "x", "noisy")
SPLITS = ("train", "val", "test")
META_TYPES = {"config_hash": str, "rows": int, "cols": int, "step": int, "jitter_max": int,
              "probe_size": int, "probe_radius": float, "probe_sigma": float,
              "probe_curvature": float}


def save_dataset(outdir, intensity, table, amplitude, phase, probe, meta):
    """Object grids, probe, meta, manifest and per-frame files: each frame's
    intensity in frames/, and the object's amplitude and phase windows at its
    (y, x) in amplitude/ and phase/, which `load_dataset` cuts from the object
    grids instead of reading. The three kinds are written at the same time,
    one thread and one directory each: creating files in one directory takes
    turns in the kernel."""
    kinds = {"intensity": "frames", "amplitude": "amplitude", "phase": "phase"}
    for folder in kinds.values():
        os.makedirs(os.path.join(outdir, folder), exist_ok=True)
    gridio.write_grid(os.path.join(outdir, "object_amplitude.ptg"), amplitude)
    gridio.write_grid(os.path.join(outdir, "object_phase.ptg"), phase)
    p = intensity.shape[-1]
    names = {k: [f"{folder}/{i:05d}_{k}.ptg" for i in range(len(table))]
             for k, folder in kinds.items()}
    windows = [(slice(y, y + p), slice(x, x + p)) for y, x in positions(table)]
    grids = {"intensity": intensity, "amplitude": (amplitude[w] for w in windows),
             "phase": (phase[w] for w in windows)}
    gridio.write_grids([([os.path.join(outdir, n) for n in names[k]], grids[k])
                        for k in kinds])
    rows = [[i, *(names[k][i] for k in kinds), r, c, y, x, int(noisy), split]
            for i, (r, c, y, x, noisy, split) in enumerate(table.tolist())]
    gridio.write_csv(os.path.join(outdir, "manifest.csv"), MANIFEST_FIELDS, rows)
    gridio.write_complex_grid(os.path.join(outdir, "probe.ptg"), probe)
    gridio.write_json(os.path.join(outdir, "meta.json"), meta)


def read_table(path, fields, int_fields):
    """Rows of a UTF-8 CSV table with a split column (manifest.csv,
    predictions.csv): its header names every field in `fields`, and each row has
    them all, the `int_fields` as ints, y and x >= 0, and a known split."""
    reader = csv.DictReader(io.StringIO(gridio.read_text(path), newline=""))
    if reader.fieldnames is None:
        raise ValueError(f"{path}: empty file, no header")
    lacking = [k for k in fields if k not in reader.fieldnames]
    if lacking:
        raise ValueError(f"{path}:1: header lacks {', '.join(lacking)}")
    rows = []
    for row in reader:
        where = f"{path}:{reader.line_num}"
        if None in row:
            raise ValueError(f"{where}: more fields than the header")
        missing = [k for k in fields if not row.get(k)]
        if missing:
            raise ValueError(f"{where}: missing {', '.join(missing)}")
        for k in int_fields:
            try:
                row[k] = int(row[k])
            except ValueError:
                raise ValueError(f"{where}: '{k}' must be an integer, "
                                 f"got '{row[k]}'") from None
        for k in ("y", "x"):
            if row[k] < 0:
                raise ValueError(f"{where}: '{k}' must be >= 0, got {row[k]}")
        if row["split"] not in SPLITS:
            raise ValueError(f"{where}: split must be one of {', '.join(SPLITS)}, "
                             f"got '{row['split']}'")
        rows.append(row)
    return rows


def read_intensity(path, shape):
    """One frame's intensity file, which must have the probe's `shape` and no
    negative value; each refusal names the file."""
    intensity = gridio.read_grid(path)
    if intensity.shape != shape:
        raise ValueError(f"{path}: intensity shape {intensity.shape} is not the "
                         f"probe's {shape}")
    if np.any(intensity < 0):
        raise ValueError(f"{path}: negative intensity")
    return intensity


class IntensityFiles:
    """A stored scan's intensity files as a stack read on demand: its length is
    the frame count, and a slice reads those frames' files with
    `read_intensity` into one new float32 (n, p, p) array."""

    def __init__(self, paths, shape):
        self.paths, self.shape = paths, shape

    def __len__(self):
        return len(self.paths)

    def __getitem__(self, frames):
        paths = self.paths[frames]
        stack = np.empty((len(paths),) + self.shape, dtype=np.float32)
        for i, path in enumerate(paths):
            stack[i] = read_intensity(path, self.shape)
        return stack


def load_frames(indir, split=None):
    """The intensities, table, probe and meta of a stored scan, without the
    ground truth; with `split`, only that split's frames. The intensities are
    an `IntensityFiles`, which reads no file until sliced: `[:]` reads them all
    into one stack. Every intensity path must lie inside `indir`: each
    directory is resolved once, and a path whose last component is a symbolic
    link is resolved in full."""
    meta = gridio.read_json(os.path.join(indir, "meta.json"), META_TYPES)
    probe = physics.checked_probe(gridio.read_complex_grid(os.path.join(indir, "probe.ptg")))
    manifest = os.path.join(indir, "manifest.csv")
    root = os.path.realpath(indir)
    rows = read_table(manifest, MANIFEST_FIELDS, MANIFEST_INT_FIELDS)
    if not rows:
        raise ValueError(f"{manifest}: no frames")
    resolved = {}  # directory -> its real path
    paths, entries = [], []
    for row in rows:
        if split is not None and row["split"] != split:
            continue
        path = os.path.join(indir, row["intensity"])
        head, name = os.path.split(path)
        if name in ("", os.curdir, os.pardir) or os.path.islink(path):
            path = os.path.realpath(path)
        else:
            if head not in resolved:
                resolved[head] = os.path.realpath(head)
            path = os.path.join(resolved[head], name)
        if os.path.commonpath([root, path]) != root:
            raise ValueError(f"{manifest}: intensity path '{row['intensity']}' of frame "
                             f"{row['index']} lies outside the dataset")
        paths.append(path)
        entries.append(tuple(row[k] for k in TABLE.names))
    return IntensityFiles(paths, probe.shape), np.array(entries, dtype=TABLE), probe, meta


def load_dataset(indir, split=None):
    """`load_frames`' intensities and table, the scan's `Truth`, probe and meta.

    Each object grid is cut to the box the frames' windows cover as soon as it
    is read, so at most one whole grid is alive; the box is a read-only copy.
    """
    intensity, table, probe, meta = load_frames(indir, split)
    p, box = probe.shape[0], _box(table, probe.shape[0])
    shape, grids = None, []
    for kind in ("amplitude", "phase"):
        grid = gridio.read_grid(os.path.join(indir, f"object_{kind}.ptg"))
        if grid.ndim != 2 or grid.shape != (shape or grid.shape):
            raise ValueError(f"{indir}: object_{kind}.ptg has shape {grid.shape}")
        shape = grid.shape
        _check_inside(table, p, shape, indir)
        grids.append(grid[box].copy())
        grids[-1].flags.writeable = False
        del grid  # before the next grid is read
    return intensity, table, Truth(*grids, (box[0].start, box[1].start), p), probe, meta
