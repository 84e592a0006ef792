"""Binary PPM (P6) reading and writing.

PPM is the one mandatory image format of this artifact: trivial to parse,
byte-exact, and diffable.  Grayscale arrays are replicated across the three
channels on write; reads can either keep RGB or average down to grayscale.
"""
from __future__ import annotations

import numpy as np


def write_ppm(path, image: np.ndarray) -> None:
    """Write a (H, W) grayscale or (H, W, 3) RGB uint8 array as binary PPM."""
    image = np.asarray(image)
    if image.dtype != np.uint8:
        raise ValueError("PPM writer expects uint8 pixels")
    if image.ndim == 2:
        image = np.repeat(image[:, :, None], 3, axis=2)
    if image.ndim != 3 or image.shape[2] != 3:
        raise ValueError("image must be (H, W) or (H, W, 3)")
    h, w = image.shape[:2]
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(image.tobytes())


def read_ppm(path, grayscale: bool = False) -> np.ndarray:
    """Read a binary PPM.  Returns (H, W, 3) uint8, or (H, W) uint8 with
    ``grayscale=True``.

    The grayscale value is the channel mean rounded to the nearest integer,
    computed as ``(r + g + b + 1) // 3`` in uint16.  The mean has fractional
    part 0, 1/3 or 2/3, so it never ties and this equals ``np.round`` of the
    float mean for every sum from 0 to 765.

    Raises ``ValueError`` naming ``path`` unless the file has the ``P6``
    magic, positive integer width and height, maxval 255 and at least
    width * height * 3 bytes of pixels.
    """
    with open(path, "rb") as f:
        data = f.read()
    fields: list[bytes] = []
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
    if grayscale:
        total = image[..., 0].astype(np.uint16)
        total += image[..., 1]
        total += image[..., 2]
        total += 1
        total //= 3
        return total.astype(np.uint8)
    return image.copy()
