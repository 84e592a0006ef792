"""Binary PPM (P6) reading and writing.

PPM is the one mandatory image format of this artifact: trivial to parse,
byte-exact, and diffable.  Grayscale arrays are replicated across the three
channels on write; reads can either keep RGB or average down to grayscale.

Both directions stream the pixels in row blocks, so beyond the image array
itself neither holds more than one block: a read never buffers the whole
file, and a grayscale write never builds the whole RGB array.
"""
from __future__ import annotations

import ctypes
import functools
import os
import re
import stat

import numpy as np

# rows read and converted to grayscale at a time: one (64, W, 3) uint8
# block and its uint16 sum, instead of the whole file and a second
# full-size plane
GRAY_BLOCK_ROWS = 64

# rows of a grayscale plane stacked to RGB and written at a time: a 600 KB
# block for 800 columns, and four write calls for an 800 x 1000 canvas;
# 64-row blocks were no faster
WRITE_BLOCK_ROWS = 256

# bytes of the first header read; a longer header (a long comment) is read
# on in chunks that double what is held
HEADER_BYTES = 512

# header whitespace is ASCII whitespace, as bytes.isspace() has it; a
# comment runs from a '#' at the start of a field to the end of its line
_SKIP = re.compile(rb"(?:[ \t\n\r\v\f]|#[^\n]*)*")
_FIELD = re.compile(rb"[^ \t\n\r\v\f]+")


def write_ppm(path, image: np.ndarray) -> None:
    """Write a (H, W) grayscale or (H, W, 3) RGB uint8 array as binary PPM.

    An RGB array is written as it is.  A grayscale plane is stacked to RGB
    ``WRITE_BLOCK_ROWS`` rows at a time into one reused block.  An array
    with no rows or no columns, which ``read_ppm`` would reject, raises
    ``ValueError`` without touching ``path``.
    """
    image = np.asarray(image)
    if image.dtype != np.uint8:
        raise ValueError("PPM writer expects uint8 pixels")
    if not (image.ndim == 2 or (image.ndim == 3 and image.shape[2] == 3)):
        raise ValueError("image must be (H, W) or (H, W, 3)")
    h, w = image.shape[:2]
    if not (h and w):
        # checked before the path is opened, so nothing is created or truncated
        raise ValueError(f"PPM writer needs at least 1x1 pixels, got {w}x{h}")
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        if image.ndim == 3:
            f.write(np.ascontiguousarray(image))  # the pixel bytes, without a second copy
            return
        block = np.empty((min(WRITE_BLOCK_ROWS, h), w, 3), dtype=np.uint8)
        for top in range(0, h, WRITE_BLOCK_ROWS):
            rows = image[top : top + WRITE_BLOCK_ROWS]
            rgb = block[: len(rows)]
            # one channel at a time: a broadcast of rows[..., None] into
            # the block took ~5x as long
            rgb[..., 0] = rows
            rgb[..., 1] = rows
            rgb[..., 2] = rows
            f.write(rgb)


@functools.cache
def _libc() -> ctypes.CDLL | None:
    """glibc's ``malloc`` and ``free``, or None under another C library."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return None
    except (AttributeError, ValueError, OSError):
        return None
    libc = ctypes.CDLL(None)
    libc.malloc.restype = ctypes.c_void_p
    libc.malloc.argtypes = (ctypes.c_size_t,)
    libc.free.argtypes = (ctypes.c_void_p,)
    return libc


_threshold_kept = 0  # the largest size _keep_mmap_threshold has allocated


def _keep_mmap_threshold(nbytes: int) -> None:
    """Raise glibc's mmap threshold to ``nbytes``, as reading a whole file
    of that size into one buffer did, without making the pages resident.

    glibc maps a block at least as large as its mmap threshold afresh, and
    when such a block is freed it raises the threshold to the block's size
    (and the trim threshold to twice that), up to 32 MB.  The whole-file
    buffer ``read_ppm`` used to allocate so raised it to the file size,
    and the pipeline's per-image temporaries below that size were reused
    from the heap.  Without the buffer, depending on the heap's layout,
    they were mapped or trimmed and faulted in again on every image: ~700
    minor faults per oracle image and 100-400 per ingest image.  Freeing an
    untouched block raises the threshold the same way, once per new
    largest size.
    """
    global _threshold_kept
    nbytes = min(nbytes, 32 << 20)  # the most glibc raises it to (64-bit)
    libc = _libc()
    if libc is None or nbytes <= _threshold_kept:
        return
    _threshold_kept = nbytes
    libc.free(libc.malloc(nbytes))


def _header_fields(data: bytes, eof: bool) -> tuple[list[bytes], int]:
    """The first (up to four) complete header fields of ``data`` and the
    offset just past the last of them.  A field that runs to the end of
    ``data`` is complete only at end of file."""
    fields: list[bytes] = []
    pos = 0
    while len(fields) < 4:
        field = _FIELD.match(data, _SKIP.match(data, pos).end())
        if field is None or (field.end() == len(data) and not eof):
            break
        fields.append(field.group())
        pos = field.end()
    return fields, pos


def read_ppm(path, grayscale: bool = False) -> np.ndarray:
    """Read a binary PPM.  Returns (H, W, 3) uint8, or (H, W) uint8 with
    ``grayscale=True``.

    The header is parsed from its first ``HEADER_BYTES``, read on only
    while its four fields are incomplete.  The pixels go straight into the
    RGB output, or ``GRAY_BLOCK_ROWS`` rows at a time into one reused
    block for grayscale; bytes past the last pixel are never read.  Under
    glibc it first raises the allocator's mmap threshold to the image's
    byte count, as a whole-file buffer did (``_keep_mmap_threshold``).

    The grayscale value is the channel mean rounded to the nearest integer,
    computed as ``(r + g + b + 1) // 3`` in uint16 for each block.  The mean
    has fractional part 0, 1/3 or 2/3, so it never ties and this equals
    ``np.round`` of the float mean for every sum from 0 to 765.

    Raises ``ValueError`` naming ``path`` unless the file has the ``P6``
    magic, positive integer width and height, maxval 255 and at least
    width * height * 3 bytes of pixels.  A regular file's size is checked
    before any pixel array is allocated; a pipe fails the same way when
    its pixels run out.
    """
    with open(path, "rb") as f:
        data = f.read(HEADER_BYTES)
        eof = len(data) < HEADER_BYTES
        while True:
            fields, pos = _header_fields(data, eof)
            if (fields and fields[0] != b"P6") or len(fields) == 4 or eof:
                break
            more = f.read(len(data))
            eof = len(more) < len(data)
            data += more
        if not fields or fields[0] != b"P6":
            raise ValueError(f"{path}: not a binary PPM file (no P6 magic)")
        if len(fields) < 4 or not all(v.isdigit() and int(v) > 0 for v in fields[1:]):
            raise ValueError(f"{path}: PPM header needs positive integer width, height and maxval")
        w, h, maxval = (int(v) for v in fields[1:])
        if maxval != 255:
            raise ValueError(f"{path}: only maxval 255 is supported, got {maxval}")
        pos += 1  # single whitespace after maxval
        need = w * h * 3

        def truncated(found: int) -> ValueError:
            return ValueError(
                f"{path}: truncated PPM: {w}x{h} needs {need} pixel bytes, found {found}"
            )

        def empty(shape: tuple[int, ...]) -> np.ndarray:
            # only a pipe, whose size is not checked first, can get here
            # with dimensions no array holds
            try:
                return np.empty(shape, dtype=np.uint8)
            except (MemoryError, ValueError):
                raise ValueError(f"{path}: PPM of {w}x{h} pixels is too large to read") from None

        st = os.fstat(f.fileno())
        if stat.S_ISREG(st.st_mode) and st.st_size - pos < need:
            raise truncated(max(st.st_size - pos, 0))
        _keep_mmap_threshold(pos + need)
        head = memoryview(data)[pos:]  # pixel bytes the header reads took
        done = 0

        def fill(out: np.ndarray) -> None:
            """Copy the next ``out.nbytes`` pixel bytes into ``out``."""
            nonlocal head, done
            view = memoryview(out).cast("B")
            n = min(len(head), len(view))
            view[:n] = head[:n]
            head = head[n:]
            while n < len(view):
                got = f.readinto(view[n:])
                if not got:
                    raise truncated(done + n)
                n += got
            done += n

        if not grayscale:
            image = empty((h, w, 3))
            fill(image)
            return image
        gray = empty((h, w))
        block = empty((min(GRAY_BLOCK_ROWS, h), w, 3))
        sums = np.empty(block.shape[:2], dtype=np.uint16)
        for top in range(0, h, GRAY_BLOCK_ROWS):
            rgb = block[: h - top]
            total = sums[: len(rgb)]
            fill(rgb)
            np.add(rgb[..., 0], rgb[..., 1], out=total, dtype=np.uint16)
            total += rgb[..., 2]
            total += 1
            total //= 3
            gray[top : top + GRAY_BLOCK_ROWS] = total
        return gray
