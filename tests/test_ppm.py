"""Streamed PPM decode and encode.

``read_ppm`` parses the header from a bounded prefix and reads the pixels
block by block; ``write_ppm`` stacks a grayscale plane to RGB a block of
rows at a time.  The arrays, bytes and error messages must be those of the
whole-file decoder kept here as the reference, and the memory that
``tracemalloc`` sees must stay within the output plus about one block.
"""
import os
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from raildet.ppm import GRAY_BLOCK_ROWS, HEADER_BYTES, WRITE_BLOCK_ROWS, read_ppm, write_ppm


def reference_decode(data, path, grayscale=False):
    """Decode the bytes of a whole PPM file, as ``read_ppm`` did before it
    streamed: the header is parsed over all of ``data`` and the pixels are
    a view into it.  ``path`` only names the file in messages."""
    fields = []
    pos = 0
    while len(fields) < 4 and pos < len(data):
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if pos > start:
            fields.append(data[start:pos])
    if not fields or fields[0] != b"P6":
        raise ValueError(f"{path}: not a binary PPM file (no P6 magic)")
    if len(fields) < 4 or not all(f.isdigit() and int(f) > 0 for f in fields[1:]):
        raise ValueError(f"{path}: PPM header needs positive integer width, height and maxval")
    w, h, maxval = (int(f) for f in fields[1:])
    if maxval != 255:
        raise ValueError(f"{path}: only maxval 255 is supported, got {maxval}")
    pos += 1  # single whitespace after maxval
    if len(data) - pos < w * h * 3:
        raise ValueError(
            f"{path}: truncated PPM: {w}x{h} needs {w * h * 3} pixel bytes, "
            f"found {max(len(data) - pos, 0)}"
        )
    pixels = np.frombuffer(data, dtype=np.uint8, count=w * h * 3, offset=pos)
    image = pixels.reshape(h, w, 3)
    if not grayscale:
        return image.copy()
    gray = np.empty((h, w), dtype=np.uint8)
    for top in range(0, h, 64):
        block = image[top : top + 64]
        total = block[..., 0].astype(np.uint16)
        total += block[..., 1]
        total += block[..., 2]
        total += 1
        total //= 3
        gray[top : top + 64] = total
    return gray


# 70 rows: two grayscale blocks; 1,470 pixel bytes: more than the first read
W, H = 7, 70
PIXELS = np.random.default_rng(50).integers(0, 256, W * H * 3).astype(np.uint8).tobytes()
DIMS = f"{W} {H}".encode()


def header_split_at_first_read(cut):
    """A header whose byte ``cut`` of ``\\n7 70\\n255\\n`` (``cut`` = its
    length: the first pixel byte) sits at offset ``HEADER_BYTES``, just past
    the first read, with a comment before it as padding."""
    tail = b"\n" + DIMS + b"\n255\n"
    prefix = b"P6\n#"
    return prefix + b"c" * (HEADER_BYTES - len(prefix) - cut) + tail


VALID = {
    "plain": b"P6\n" + DIMS + b"\n255\n" + PIXELS,
    "comment-longer-than-first-read": b"P6\n#" + b"c" * (3 * HEADER_BYTES) + b"\n"
    + DIMS + b"\n255\n" + PIXELS,
    "comments-between-fields": b"#top\nP6 #a\n" + DIMS.replace(b" ", b" # b\n ") + b"\n#c\n255\n"
    + PIXELS,
    "tab-and-cr-whitespace": b"P6\t" + DIMS.replace(b" ", b"\r") + b"\t\r255\t" + PIXELS,
    # the \r ends the header and the \n is the first pixel byte
    "crlf-after-maxval": b"P6\n" + DIMS + b"\n255\r\n" + PIXELS,
    "trailing-bytes": b"P6\n" + DIMS + b"\n255\n" + PIXELS + b"trailing" * 1000,
    "all-in-first-read": b"P6\n3 2\n255\n" + PIXELS[:18] + b"\n",
    **{
        f"split-at-{cut}": header_split_at_first_read(cut) + PIXELS
        for cut in range(len(b"\n" + DIMS + b"\n255\n") + 1)
    },
}

MALFORMED = {
    "empty": b"",
    "no-magic": b"P3\n" + DIMS + b"\n255\n" + PIXELS,
    "magic-only": b"P6\n",
    "bad-dimension": b"P6\n7 x\n255\n" + PIXELS,
    "zero-dimension": b"P6\n0 70\n255\n" + PIXELS,
    "maxval-65535": b"P6\n" + DIMS + b"\n65535\n" + PIXELS + PIXELS,
    "no-pixels": b"P6\n" + DIMS + b"\n255",
    "one-byte-short": b"P6\n" + DIMS + b"\n255\n" + PIXELS[:-1],
    "one-byte-short-long-comment": b"P6\n#" + b"c" * (3 * HEADER_BYTES) + b"\n" + DIMS
    + b"\n255\n" + PIXELS[:-1],
    "short-split-at-first-read": header_split_at_first_read(6) + PIXELS[:100],
}


def expected(data, path, grayscale):
    """The reference's array, or its error message."""
    try:
        return reference_decode(data, path, grayscale)
    except ValueError as e:
        return str(e)


def read_or_message(path, grayscale):
    try:
        return read_ppm(path, grayscale=grayscale)
    except ValueError as e:
        return str(e)


def assert_same(got, want):
    if isinstance(want, str):
        assert got == want
    else:
        assert isinstance(got, np.ndarray), got
        assert got.dtype == np.uint8 and got.shape == want.shape
        assert np.array_equal(got, want)


class TestDecodeEqualsWholeFile:
    @pytest.mark.parametrize("grayscale", [False, True])
    @pytest.mark.parametrize("name", VALID)
    def test_arrays(self, tmp_path, name, grayscale):
        path = tmp_path / f"{name}.ppm"
        path.write_bytes(VALID[name])
        want = reference_decode(VALID[name], path, grayscale)
        assert_same(read_ppm(path, grayscale=grayscale), want)

    @pytest.mark.parametrize("grayscale", [False, True])
    @pytest.mark.parametrize("name", MALFORMED)
    def test_messages(self, tmp_path, name, grayscale):
        path = tmp_path / f"{name}.ppm"
        path.write_bytes(MALFORMED[name])
        want = expected(MALFORMED[name], path, grayscale)
        assert isinstance(want, str)
        assert read_or_message(path, grayscale) == want


def read_through_fifo(tmp_path, data, grayscale):
    """``read_ppm`` of ``data`` fed through a named pipe, or its message."""
    fifo = tmp_path / "pipe.ppm"
    os.mkfifo(fifo)

    def feed():
        try:
            with open(fifo, "wb") as f:
                f.write(data)
        except BrokenPipeError:  # the reader stopped before the trailing bytes
            pass

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    got = read_or_message(fifo, grayscale)
    writer.join(timeout=30)
    assert not writer.is_alive()
    return got, fifo


linux_only = pytest.mark.skipif(not sys.platform.startswith("linux"), reason="FIFOs as on Linux")


@linux_only
@pytest.mark.parametrize("grayscale", [False, True])
@pytest.mark.parametrize("name", ["plain", "comment-longer-than-first-read", "trailing-bytes",
                                  "one-byte-short", "no-pixels", "no-magic"])
def test_fifo_decode_equals_whole_file(tmp_path, name, grayscale):
    # a pipe has no size to check first: a short read fails with the same
    # message, and nothing seeks
    data = {**VALID, **MALFORMED}[name]
    got, fifo = read_through_fifo(tmp_path, data, grayscale)
    assert_same(got, expected(data, fifo, grayscale))


@linux_only
@pytest.mark.parametrize("grayscale", [False, True])
def test_fifo_with_dimensions_no_array_holds(tmp_path, grayscale):
    # the allocation fails at once (no memory is touched) and the error is
    # an input error naming the file
    data = b"P6\n100000000 100000000\n255\n" + PIXELS
    got, fifo = read_through_fifo(tmp_path, data, grayscale)
    assert got == f"{fifo}: PPM of 100000000x100000000 pixels is too large to read"


class TestWriteBytes:
    @pytest.mark.parametrize("h", [1, 255, 256, 257, 600])
    def test_plane_bytes_are_the_stacked_rgb(self, tmp_path, h):
        plane = np.random.default_rng(h).integers(0, 256, (h, 9)).astype(np.uint8)
        path = tmp_path / "g.ppm"
        write_ppm(path, plane)
        rgb = np.stack((plane,) * 3, axis=-1)
        assert path.read_bytes() == b"P6\n9 %d\n255\n" % h + rgb.tobytes()

    def test_non_contiguous_inputs(self, tmp_path):
        big = np.random.default_rng(51).integers(0, 256, (600, 40, 3)).astype(np.uint8)
        for image in (big[::2, ::3], big[::3, :, 1], big[:, ::2, 0].T):
            path = tmp_path / "v.ppm"
            write_ppm(path, image)
            assert_same(read_ppm(path, grayscale=image.ndim == 2), np.ascontiguousarray(image))

    @pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0), (0, 5, 3), (5, 0, 3)])
    def test_empty_image_rejected_before_the_path_is_opened(self, tmp_path, shape):
        fresh, kept = tmp_path / "fresh.ppm", tmp_path / "kept.ppm"
        kept.write_bytes(b"old bytes")
        for path in (fresh, kept):
            with pytest.raises(ValueError, match="at least 1x1"):
                write_ppm(path, np.zeros(shape, dtype=np.uint8))
        assert not fresh.exists()
        assert kept.read_bytes() == b"old bytes"


def traced_peak(fn):
    """``fn()`` and the peak bytes ``tracemalloc`` saw above what was
    allocated when it started (numpy reports its buffers to it)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


# a raw frame larger than the canvas, as perfbench's ingest corpus has
BIG_H, BIG_W = 1400, 1330


@pytest.fixture(scope="module")
def big_rgb():
    return np.random.default_rng(52).integers(0, 256, (BIG_H, BIG_W, 3)).astype(np.uint8)


class TestMemoryBounds:
    @pytest.mark.parametrize("trailing", [0, 4_000_000])
    def test_gray_read_holds_the_plane_and_a_block(self, tmp_path, big_rgb, trailing):
        path = tmp_path / "big.ppm"
        write_ppm(path, big_rgb)
        with open(path, "ab") as f:
            f.write(bytes(trailing))
        gray, peak = traced_peak(lambda: read_ppm(path, grayscale=True))
        assert gray.shape == (BIG_H, BIG_W)
        assert peak <= gray.nbytes + 2 * GRAY_BLOCK_ROWS * BIG_W * 3, peak

    def test_rgb_read_holds_only_its_output(self, tmp_path, big_rgb):
        path = tmp_path / "big.ppm"
        write_ppm(path, big_rgb)
        rgb, peak = traced_peak(lambda: read_ppm(path))
        assert np.array_equal(rgb, big_rgb)
        assert peak <= 1.1 * rgb.nbytes, peak

    def test_plane_write_holds_one_block(self, tmp_path, big_rgb):
        plane = np.ascontiguousarray(big_rgb[..., 1])
        path = tmp_path / "plane.ppm"
        _, peak = traced_peak(lambda: write_ppm(path, plane))
        assert peak <= 1.1 * WRITE_BLOCK_ROWS * BIG_W * 3, peak
        assert Path(path).stat().st_size == len(b"P6\n1330 1400\n255\n") + plane.size * 3
