import json
import tracemalloc

import numpy as np
import pytest

from ptychokit import gridio


def test_roundtrip(tmp_path):
    arr = np.random.default_rng(0).normal(size=(5, 7)).astype(np.float32)
    path = tmp_path / "a.ptg"
    gridio.write_grid(path, arr)
    assert np.array_equal(gridio.read_grid(path), arr)


def test_roundtrip_3d(tmp_path):
    arr = np.random.default_rng(1).normal(size=(2, 3, 4)).astype(np.float32)
    path = tmp_path / "b.ptg"
    gridio.write_grid(path, arr)
    assert np.array_equal(gridio.read_grid(path), arr)


def test_complex_roundtrip(tmp_path):
    z = np.random.default_rng(2).normal(size=(6, 6)) + 1j * np.ones((6, 6))
    path = tmp_path / "c.ptg"
    gridio.write_complex_grid(path, z)
    back = gridio.read_complex_grid(path)
    assert back.dtype == np.complex64 and back.shape == (6, 6)
    assert np.array_equal(back, z.astype(np.complex64))
    # the payload is H x W x 2 (re, im)
    re_im = np.stack([z.real, z.imag], axis=-1).astype(np.float32)
    assert np.array_equal(gridio.read_grid(path), re_im)


def test_write_grid_writes_a_float32_array_from_its_own_buffer(tmp_path):
    # no copy of a C-contiguous float32 array: the traced peak stays below 1.1x
    # its size (the finiteness check takes a quarter); a float64 or strided
    # array is converted once, and every form writes the same bytes
    arr = np.random.default_rng(3).uniform(0, 1, (518, 518)).astype(np.float32)
    path = tmp_path / "canvas.ptg"
    tracemalloc.start()
    try:
        gridio.write_grid(path, arr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * arr.nbytes
    written = path.read_bytes()
    assert written.endswith(arr.tobytes())
    for other in (arr.astype(np.float64), np.asfortranarray(arr), arr.astype(">f4")):
        gridio.write_grid(tmp_path / "other.ptg", other)
        assert (tmp_path / "other.ptg").read_bytes() == written


def test_parts_are_written_and_read_without_a_concatenation(tmp_path):
    # write_parts writes each part from its own buffer and read_parts reads each
    # straight into its own array: the traced peaks stay below 1.5x one part on
    # write and 1.5x the parts on read (the finiteness check takes a quarter of
    # a part), where a concatenation or a read through bytes would double them
    rng = np.random.default_rng(4)
    parts = [rng.uniform(0, 1, shape).astype(np.float32) for shape in ((128, 64, 3, 3), (128,))]
    path = tmp_path / "parts.ptg"
    tracemalloc.start()
    try:
        gridio.write_parts(path, parts)
        write_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        back = gridio.read_parts(path, [p.shape for p in parts], "the test's shapes")
        read_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert write_peak < 1.5 * parts[0].nbytes
    assert read_peak < 1.5 * sum(p.nbytes for p in parts)
    assert all(np.array_equal(a, b) and b.flags.owndata for a, b in zip(parts, back))
    # the file is one 1-D grid of the parts back to back
    assert np.array_equal(gridio.read_grid(path), np.concatenate([p.ravel() for p in parts]))
    with pytest.raises(gridio.GridFormatError, match="the test's shapes"):
        gridio.read_parts(path, [parts[0].shape], "the test's shapes")
    path.write_bytes(path.read_bytes()[:-4] + np.float32(np.nan).tobytes())
    with pytest.raises(gridio.GridFormatError, match="non-finite"):
        gridio.read_parts(path, [p.shape for p in parts], "the test's shapes")
    with pytest.raises(ValueError):
        gridio.write_parts(path, [parts[0], np.array([np.nan])])


def test_rejects_nonfinite(tmp_path):
    with pytest.raises(ValueError):
        gridio.write_grid(tmp_path / "bad.ptg", np.array([[np.inf]]))
    path = tmp_path / "nan.ptg"
    gridio.write_grid(path, np.ones((2, 2), np.float32))
    path.write_bytes(path.read_bytes()[:-4] + np.float32(np.nan).tobytes())
    with pytest.raises(gridio.GridFormatError):
        gridio.read_grid(path)


def test_malformed_header(tmp_path):
    path = tmp_path / "junk.ptg"
    path.write_bytes(b"not json\n\x00\x00\x00\x00")
    with pytest.raises(gridio.GridFormatError):
        gridio.read_grid(path)


def _header(**changes):
    h = {"magic": "PTGRID", "version": 1, "shape": [2, 2], "dtype": "f32le",
         "order": "row-major", **changes}
    return json.dumps(h).encode() + b"\n"


# damage -> file bytes: a header that is no JSON object, shapes that are no
# non-empty list of positive ints, and a shape whose payload would take 4 PB
# (no payload: the size check comes before any read)
DAMAGED = {
    "header_list": b"[1, 2]\n" + bytes(16),
    "shape_string": _header(shape="32") + bytes(16),
    "shape_bool": _header(shape=[True, 4]) + bytes(16),
    "shape_float": _header(shape=[2.5, 2]) + bytes(20),
    "shape_empty": _header(shape=[]) + bytes(4),
    "shape_impossible": _header(shape=[1000000, 1000000, 1000]),
}


@pytest.mark.parametrize("damage", sorted(DAMAGED))
def test_damaged_header_is_one_format_error(tmp_path, damage):
    path = tmp_path / f"{damage}.ptg"
    path.write_bytes(DAMAGED[damage])
    with pytest.raises(gridio.GridFormatError, match=f"{damage}.ptg"):
        gridio.read_grid(path)


def test_wrong_magic(tmp_path):
    path = tmp_path / "magic.ptg"
    path.write_bytes(b'{"magic": "OTHER", "version": 1}\n')
    with pytest.raises(gridio.GridFormatError):
        gridio.read_grid(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "trunc.ptg"
    gridio.write_grid(path, np.ones((4, 4), np.float32))
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(gridio.GridFormatError):
        gridio.read_grid(path)


def test_oversized_payload(tmp_path):
    path = tmp_path / "extra.ptg"
    gridio.write_grid(path, np.ones((2, 2), np.float32))
    path.write_bytes(path.read_bytes() + b"\x00\x00\x00\x00")
    with pytest.raises(gridio.GridFormatError):
        gridio.read_grid(path)


def test_complex_requires_trailing_pair(tmp_path):
    path = tmp_path / "notc.ptg"
    gridio.write_grid(path, np.ones((4, 4), np.float32))
    with pytest.raises(gridio.GridFormatError):
        gridio.read_complex_grid(path)
