"""PTGRID v1 file format: one JSON header line + raw little-endian f32 payload,
and the one writer of each other file kind beside the grids: CSV tables and
JSON objects, with the checked reader of the JSON objects and the reader of
UTF-8 text that the JSON, CSV and config readers share.

Complex grids are stored with a trailing dimension of extent 2 (re, im), so
writing one rounds each part to float32, the same rounding as complex64;
reading one returns a complex64 array. The probe is the one complex grid
written; the simulation rounds the object window, exit wave and far field to
complex64 as well (see `physics`).
"""

import json
import math
import os

import numpy as np

MAGIC = "PTGRID"
VERSION = 1


class GridFormatError(ValueError):
    """Malformed header, truncated payload, or shape/dtype mismatch."""


def write_grid(path, grid):
    """Write `grid` as a PTGRID file. A C-contiguous little-endian float32 array
    is written from its own buffer; any other array is converted once."""
    arr = np.ascontiguousarray(grid, dtype="<f4")
    if not np.all(np.isfinite(arr)):
        raise ValueError("refusing to write non-finite grid")
    header = {
        "magic": MAGIC,
        "version": VERSION,
        "shape": list(arr.shape),
        "dtype": "f32le",
        "order": "row-major",
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8") + b"\n")
        fh.write(arr.data)


def read_grid(path):
    """A grid file's array. The header must be a JSON object whose shape is a
    non-empty list of positive ints, and the file's size must match that shape
    before any of the payload is read."""
    with open(path, "rb") as fh:
        line = fh.readline()
        try:
            header = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise GridFormatError(f"{path}: malformed header") from exc
        if not isinstance(header, dict):
            raise GridFormatError(f"{path}: header is not a JSON object")
        if header.get("magic") != MAGIC or header.get("version") != VERSION:
            raise GridFormatError(f"{path}: bad magic/version")
        if header.get("dtype") != "f32le" or header.get("order") != "row-major":
            raise GridFormatError(f"{path}: unsupported dtype/order")
        shape = header.get("shape")
        if (not isinstance(shape, list) or not shape
                or not all(_has_type(s, int) and s > 0 for s in shape)):
            raise GridFormatError(f"{path}: bad shape {shape!r}")
        size = math.prod(shape) * 4
        found = os.fstat(fh.fileno()).st_size - len(line)
        if found != size:
            raise GridFormatError(f"{path}: payload size {found} != {size}")
        payload = fh.read(size)
    arr = np.frombuffer(payload, dtype="<f4").reshape(shape).copy()
    if not np.all(np.isfinite(arr)):
        raise GridFormatError(f"{path}: non-finite values")
    return arr


def write_complex_grid(path, grid):
    """Store a 2-D complex array as H x W x 2 (re, im)."""
    write_grid(path, np.stack([grid.real, grid.imag], axis=-1))


def read_complex_grid(path):
    """A 2-D complex64 array from an H x W x 2 (re, im) grid."""
    arr = read_grid(path)
    if arr.ndim != 3 or arr.shape[-1] != 2:
        raise GridFormatError(f"{path}: expected trailing (re, im) dimension")
    return arr.view(np.complex64)[..., 0]


def _has_type(value, want):
    """float admits int; bool, a subclass of int, is no number."""
    return (isinstance(value, (int, float) if want is float else want)
            and not isinstance(value, bool))


def check_fields(obj, types, required, what):
    """obj must be a JSON object whose keys are all in `types` and hold values of
    those types (a type or a tuple of types), with every key in `required`."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what}: expected a JSON object, got {type(obj).__name__}")
    for key, value in obj.items():
        if key not in types:
            raise ValueError(f"{what}: unknown key '{key}'")
        wants = types[key] if isinstance(types[key], tuple) else (types[key],)
        if not any(_has_type(value, t) for t in wants):
            names = " or ".join(t.__name__ for t in wants)
            raise ValueError(f"{what}: '{key}' must be {names}, got {value!r}")
    missing = [key for key in required if key not in obj]
    if missing:
        raise ValueError(f"{what}: missing {', '.join(missing)}")
    return obj


def write_csv(path, header, rows):
    """A comma-separated table with LF line ends; floats as %.8g, the rest as str."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.8g}" if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def write_json(path, obj):
    """A JSON object file, indented by 2, keys sorted."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)


def read_text(path):
    """A UTF-8 text file's contents; other bytes are one ValueError naming the path."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def read_json(path, types, required=()):
    """A JSON object file, checked with `check_fields`; malformed JSON is one
    ValueError naming the path and line."""
    try:
        obj = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}: malformed JSON: {exc.msg} "
                         f"(column {exc.colno})") from None
    return check_fields(obj, types, required, path)
