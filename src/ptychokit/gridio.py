"""PTGRID v1 file format: one JSON header line + raw little-endian f32 payload
(a 1-D grid may hold several arrays back to back: `write_parts`, `read_parts`;
many grid files are written on one thread per job: `write_grids`),
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
import threading

import numpy as np

MAGIC = "PTGRID"
VERSION = 1


class GridFormatError(ValueError):
    """Malformed header, truncated payload, or shape/dtype mismatch."""


def write_grid(path, grid):
    """Write `grid` as a PTGRID file. A C-contiguous little-endian float32 array
    is written from its own buffer; any other array is converted once."""
    _write_each([path], [grid])


def write_grids(jobs):
    """Write many grid files, each as `write_grid` writes it: a job is a list of
    paths and an iterable of as many same-shaped grids, and each job runs on a
    thread of its own, so files in different directories are created at the
    same time. Every thread is joined before the first job's error, if any, is
    raised. The threads call only this module's private helpers: a public
    function may be wrapped by a tracer that is not safe across threads."""
    # plain threads: concurrent.futures would import logging, 0.7 MB of peak RSS
    errors = [None] * len(jobs)

    def run(i, paths, grids):
        try:
            _write_each(paths, grids)
        except Exception as exc:  # raised in the caller's thread after the join
            errors[i] = exc

    threads = []
    try:
        for i, (paths, grids) in enumerate(jobs):
            thread = threading.Thread(target=run, args=(i, paths, grids))
            thread.start()
            threads.append(thread)
    finally:
        for thread in threads:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc


def write_parts(path, parts):
    """Write arrays back to back as one 1-D PTGRID grid, each as `write_grid`
    writes its array, so no concatenation is built."""
    arrs = [np.ascontiguousarray(part, dtype="<f4") for part in parts]
    _write(path, _header((sum(a.size for a in arrs),)), arrs)


def _header(shape):
    header = {
        "magic": MAGIC,
        "version": VERSION,
        "shape": list(shape),
        "dtype": "f32le",
        "order": "row-major",
    }
    return json.dumps(header).encode("utf-8") + b"\n"


def _write_each(paths, grids):
    """Write each grid to its path; the header of each shape is formatted once."""
    headers = {}
    for path, grid in zip(paths, grids, strict=True):
        arr = np.ascontiguousarray(grid, dtype="<f4")
        if arr.shape not in headers:
            headers[arr.shape] = _header(arr.shape)
        _write(path, headers[arr.shape], [arr])


def _write(path, header, arrs):
    """The header and each array from its own buffer, in one system call and
    with no Python file object, whose set-up would be most of the Python work
    of writing a small grid."""
    if not all(np.all(np.isfinite(a)) for a in arrs):
        raise ValueError(f"{path}: refusing to write non-finite grid")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        if os.writev(fd, [header, *arrs]) != len(header) + sum(a.nbytes for a in arrs):
            raise OSError(f"{path}: short write")
    finally:
        os.close(fd)


def _read_header(fh, path):
    """The shape in an open grid file's header. The header must be a JSON object
    whose shape is a non-empty list of positive ints, and the file's size must
    match that shape before any of the payload is read."""
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
    return shape


def _check_finite(arr, path):
    if not np.all(np.isfinite(arr)):
        raise GridFormatError(f"{path}: non-finite values")
    return arr


def read_grid(path):
    """A grid file's array, its header and size checked by `_read_header`, read
    from the file straight into the array."""
    with open(path, "rb") as fh:
        arr = np.empty(_read_header(fh, path), dtype="<f4")
        fh.readinto(arr)
    return _check_finite(arr, path)


def read_parts(path, shapes, source):
    """The arrays that `write_parts` wrote, one per shape in `shapes`, each read
    from the file straight into its own array. The grid must be 1-D and hold
    exactly their values; otherwise one GridFormatError names the file and
    `source`, what the shapes came from. Views of one array of the whole grid
    raised the `reconstruct` benchmark's peak RSS from 69.9-70.4 to 74.3-74.6 MB."""
    total = sum(math.prod(s) for s in shapes)
    with open(path, "rb") as fh:
        shape = _read_header(fh, path)
        if shape != [total]:
            raise GridFormatError(f"{path}: holds a grid of shape {shape}, not the "
                                  f"{total} values that {source} needs")
        arrs = []
        for s in shapes:
            arr = np.empty(s, dtype="<f4")
            fh.readinto(arr)
            arrs.append(_check_finite(arr, path))
    return arrs


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
