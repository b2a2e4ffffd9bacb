"""Synthetic bar-target objects, scan simulation, splits, and dataset persistence."""

import csv
import os
from dataclasses import dataclass, field

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

# windows per exit_wave/diffract call: a few MB of complex128 per block, where
# one stack of all 3,721 default windows would double the simulation's peak RSS
SIM_BLOCK = 256


@dataclass
class ScanPlan:
    rows: int
    cols: int
    step: int
    jitter_max: int
    probe_size: int
    seed: int
    positions: list = field(default_factory=list)  # (row, col, y_px, x_px)

    def required_extent(self):
        """(rows, cols) object extent needed for the jittered scan."""
        def need(n):
            return (n - 1) * self.step + self.probe_size + 2 * self.jitter_max
        return need(self.rows), need(self.cols)


@dataclass
class ObjectPatch:
    """Ground truth for one frame: float32 amplitude and phase windows."""

    amplitude: np.ndarray
    phase: np.ndarray


@dataclass
class DiffractionFrame:
    intensity: np.ndarray
    row: int
    col: int
    y: int
    x: int
    noisy: bool = False
    split: str = "train"


@dataclass
class NoiseConfig:
    peak_photons: float = physics.NOISE_PEAK_PHOTONS
    read_sigma: float = None  # None -> 1% of dataset max
    seed: int = 0


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
              jitter_max=DEFAULT_JITTER, probe_size=physics.PROBE_SIZE, seed=0):
    """Regular grid plus integer per-axis jitter uniform in [-jitter_max, +jitter_max]."""
    for key, value, least in (("rows", rows, 1), ("cols", cols, 1), ("step", step, 1),
                              ("jitter_max", jitter_max, 0)):
        if value < least:
            raise ValueError(f"need {key} >= {least}, got {value}")
    rng = np.random.default_rng(seed)
    plan = ScanPlan(rows=rows, cols=cols, step=step, jitter_max=jitter_max,
                    probe_size=probe_size, seed=seed)
    for r in range(rows):
        for c in range(cols):
            jy = int(rng.integers(-jitter_max, jitter_max + 1)) if jitter_max else 0
            jx = int(rng.integers(-jitter_max, jitter_max + 1)) if jitter_max else 0
            plan.positions.append((r, c, jitter_max + r * step + jy,
                                   jitter_max + c * step + jx))
    return plan


def make_dataset(amplitude, phase, probe, plan, noise=None):
    """Extract ground-truth windows at jittered positions and simulate frames.

    Frames are simulated SIM_BLOCK windows at a time; each frame's intensity
    is bitwise the same as simulating it alone.
    """
    amplitude = np.asarray(amplitude, dtype=np.float32)
    phase = np.asarray(phase, dtype=np.float32)
    h, w = amplitude.shape
    p = plan.probe_size
    need_h, need_w = plan.required_extent()
    if need_h > h or need_w > w:
        raise ValueError(f"scan extent {(need_h, need_w)} exceeds object {amplitude.shape}")

    obj = amplitude.astype(np.float64) * np.exp(1j * phase.astype(np.float64))
    windows = sliding_window_view(obj, (p, p))  # windows[y, x] is the p x p window at (y, x)
    ys = np.array([y for _, _, y, _ in plan.positions], dtype=np.intp)
    xs = np.array([x for _, _, _, x in plan.positions], dtype=np.intp)
    if np.any(ys < 0) or np.any(xs < 0):  # a negative index would wrap around
        raise ValueError("scan position outside the object (negative y or x)")
    clean = np.empty((len(ys), p, p), dtype=np.float32)
    for start in range(0, len(ys), SIM_BLOCK):
        block = slice(start, start + SIM_BLOCK)
        clean[block] = physics.diffract(physics.exit_wave(windows[ys[block], xs[block]], probe))
    frames = [DiffractionFrame(intensity=clean[i], row=r, col=c, y=y, x=x)
              for i, (r, c, y, x) in enumerate(plan.positions)]
    patches = [ObjectPatch(amplitude=amplitude[y:y + p, x:x + p], phase=phase[y:y + p, x:x + p])
               for (_, _, y, x) in plan.positions]

    if noise is not None:
        ref_max = float(clean.max())
        for i, frame in enumerate(frames):
            frame.intensity = physics.add_noise(
                clean[i], peak_photons=noise.peak_photons, read_sigma=noise.read_sigma,
                seed=noise.seed, frame_index=i, ref_max=ref_max)
            frame.noisy = True
    return frames, patches


def split_rows(frames, rows=DEFAULT_ROWS, train_rows=49, test_rows=12,
               val_fraction=0.05, seed=0):
    """Tag frames: first train_rows rows -> train (minus seeded val sample), last rows -> test."""
    if train_rows < 1:
        raise ValueError(f"need train_rows >= 1, got {train_rows}")
    if test_rows < 0:
        raise ValueError(f"need test_rows >= 0, got {test_rows}")
    if not 0 <= val_fraction < 1:  # False for NaN too
        raise ValueError(f"need 0 <= val_fraction < 1, got {val_fraction}")
    if train_rows + test_rows != rows:
        raise ValueError(f"train_rows + test_rows != rows ({train_rows}+{test_rows} != {rows})")
    train_pool = [i for i, f in enumerate(frames) if f.row < train_rows]
    for i, f in enumerate(frames):
        f.split = "train" if f.row < train_rows else "test"
    n_val = int(round(val_fraction * len(train_pool)))
    rng = np.random.default_rng(seed)
    for i in rng.choice(len(train_pool), size=n_val, replace=False):
        frames[train_pool[int(i)]].split = "val"
    return frames


# ---------------------------------------------------------------------------
# persistence

MANIFEST_FIELDS = ["index", "intensity", "amplitude", "phase", "row", "col",
                   "y", "x", "noisy", "split"]
MANIFEST_INT_FIELDS = ("index", "row", "col", "y", "x", "noisy")
SPLITS = ("train", "val", "test")
META_TYPES = {"config_hash": str, "rows": int, "cols": int, "step": int, "jitter_max": int,
              "probe_size": int, "probe_radius": float, "probe_sigma": float,
              "probe_curvature": float}


def save_dataset(outdir, frames, amplitude, phase, probe, meta):
    """Object grids, probe, meta, manifest and per-frame files: each frame's
    intensity and the object's amplitude and phase windows at its (y, x),
    which `load_dataset` cuts from the object grids instead of reading."""
    os.makedirs(os.path.join(outdir, "frames"), exist_ok=True)
    gridio.write_grid(os.path.join(outdir, "object_amplitude.ptg"), amplitude)
    gridio.write_grid(os.path.join(outdir, "object_phase.ptg"), phase)
    rows = []
    for i, frame in enumerate(frames):
        p = frame.intensity.shape[0]
        window = (slice(frame.y, frame.y + p), slice(frame.x, frame.x + p))
        names = {k: f"frames/{i:05d}_{k}.ptg" for k in ("intensity", "amplitude", "phase")}
        gridio.write_grid(os.path.join(outdir, names["intensity"]), frame.intensity)
        gridio.write_grid(os.path.join(outdir, names["amplitude"]), amplitude[window])
        gridio.write_grid(os.path.join(outdir, names["phase"]), phase[window])
        rows.append([i, names["intensity"], names["amplitude"], names["phase"], frame.row,
                     frame.col, frame.y, frame.x, int(frame.noisy), frame.split])
    gridio.write_csv(os.path.join(outdir, "manifest.csv"), MANIFEST_FIELDS, rows)
    gridio.write_complex_grid(os.path.join(outdir, "probe.ptg"), probe)
    gridio.write_json(os.path.join(outdir, "meta.json"), meta)


def read_table(path, fields, int_fields):
    """Rows of a CSV table with a split column (manifest.csv, predictions.csv):
    each has every field in `fields`, the `int_fields` as ints, y and x >= 0,
    and a known split."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
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


def load_frames(indir, split=None):
    """Frames, probe and meta, without the ground truth; with `split`, only that
    split's intensity files are read. Every intensity path must lie inside
    `indir`, and no intensity may be negative."""
    meta = gridio.read_json(os.path.join(indir, "meta.json"), META_TYPES)
    probe = physics.checked_probe(gridio.read_complex_grid(os.path.join(indir, "probe.ptg")))
    manifest = os.path.join(indir, "manifest.csv")
    root = os.path.realpath(indir)
    frames = []
    for row in read_table(manifest, MANIFEST_FIELDS, MANIFEST_INT_FIELDS):
        if split is not None and row["split"] != split:
            continue
        path = os.path.realpath(os.path.join(indir, row["intensity"]))
        if os.path.commonpath([root, path]) != root:
            raise ValueError(f"{manifest}: intensity path '{row['intensity']}' of frame "
                             f"{row['index']} lies outside the dataset")
        intensity = gridio.read_grid(path)
        if np.any(intensity < 0):
            raise ValueError(f"{path}: negative intensity")
        frames.append(DiffractionFrame(
            intensity=intensity, row=row["row"], col=row["col"],
            y=row["y"], x=row["x"], noisy=bool(row["noisy"]), split=row["split"]))
    return frames, probe, meta


def load_dataset(indir, split=None):
    """Frames, patches, probe and meta; with `split`, only that split's frames.

    The object grids are read once, and each frame's patch is a read-only
    view of them at its (y, x), the size of the probe.
    """
    frames, probe, meta = load_frames(indir, split)
    grids = []
    for kind in ("amplitude", "phase"):
        grid = gridio.read_grid(os.path.join(indir, f"object_{kind}.ptg"))
        if grid.ndim != 2 or (grids and grid.shape != grids[0].shape):
            raise ValueError(f"{indir}: object_{kind}.ptg has shape {grid.shape}")
        grid.flags.writeable = False
        grids.append(grid)
    (h, w), p = grids[0].shape, probe.shape[0]
    patches = []
    for f in frames:
        if not (0 <= f.y <= h - p and 0 <= f.x <= w - p):
            raise ValueError(f"{indir}: frame at ({f.y}, {f.x}) lies outside the "
                             f"{h} x {w} object")
        window = (slice(f.y, f.y + p), slice(f.x, f.x + p))
        patches.append(ObjectPatch(amplitude=grids[0][window], phase=grids[1][window]))
    return frames, patches, probe, meta
