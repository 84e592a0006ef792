"""Canvas normalization to the fixed 800x1000 input.

Every image is scaled uniformly so its height becomes 1000.  If the scaled
width exceeds 800 the image is center-cropped about the vertical midline;
if it falls short, black columns pad both sides (left pad floor of the
remainder).  Ground-truth boxes ride along through the same scale/shift and
are clipped to the canvas; boxes cropped away entirely are dropped.

The canvas is resampled ``BLOCK_ROWS`` output rows at a time, straight into
the uint8 canvas, and only in the columns that land on it, so no per-image
temporary exceeds ~1 MB whatever the input size.
"""
from __future__ import annotations

import functools

import numpy as np

from .evaluation import GroundTruthObject
from .geometry import BBox, clip
from .model import IMAGE_HEIGHT, IMAGE_WIDTH
from .voc import Annotation

# canvas rows resampled at a time.  A band of 800 columns holds the float64
# column blend of at most 64 source rows (410 KB) and, first, its widened
# upper taps of that size, then its top and bottom rows (205 KB each):
# ~0.8 MB.  A whole 1000 x 800 float64 canvas (6.4 MB) made the allocator
# hand memory back and fault it in again on every image, and 64-row bands
# held ~2 MB.
BLOCK_ROWS = 32


@functools.lru_cache(maxsize=8)
def _taps(in_n: int, out_n: int, start: int, stop: int, step: int):
    """Source taps of the output positions ``range(start, stop, step)`` when
    ``in_n`` samples are resampled to ``out_n``: the lower and upper source
    index and the weight of the upper one.  Memoised, so read-only."""
    pos = np.clip((np.arange(start, stop, step) + 0.5) * in_n / out_n - 0.5, 0, in_n - 1)
    lower = np.floor(pos).astype(int)
    taps = (lower, np.minimum(lower + 1, in_n - 1), pos - lower)
    for a in taps:
        a.setflags(write=False)
    return taps


@functools.lru_cache(maxsize=8)
def _column_window(in_w: int, out_w: int, start: int, stop: int, step: int):
    """The source columns that the output columns ``range(start, stop,
    step)`` blend, as a slice, and their column taps relative to its start.
    Memoised, so read-only."""
    x0, x1, fx = _taps(in_w, out_w, start, stop, step)
    if not x0.size:
        return slice(0, 0), x0, x1, fx
    window = slice(x0.min(), x1.max() + 1)
    x0, x1 = x0 - window.start, x1 - window.start
    x0.setflags(write=False)
    x1.setflags(write=False)
    return window, x0, x1, fx


def resize_bilinear(
    image: np.ndarray,
    out_h: int,
    out_w: int,
    cols: slice = slice(None),
    rows: slice = slice(None),
) -> np.ndarray:
    """Bilinear resampling of a 2-D plane with pixel centers aligned between
    grids.

    Returns the float64 output rows ``rows`` and columns ``cols`` (default
    all) of the resized plane, each pixel with the same bits as in the full
    resize.  The source positions come from the full ``out_h`` grid, sliced
    by ``rows``, and from the ``cols`` of the ``out_w`` grid; both, and the
    window of source columns that ``cols`` reads, are memoised, so a caller
    that asks for a few rows at a time computes them once.

    Only the source rows and columns that the requested pixels blend are
    read.  When the row taps span at most twice as many source rows as
    there are output rows, as they do for any rows of a plane at most
    twice ``out_h`` high, the span is sliced out of the column window as
    it is.  A sparser span, of a plane scaled down more, reads only the
    rows its taps name: they are marked in the span and numbered in order,
    without sorting.  Each source row read is blended across columns once,
    ``src[:, x0] * (1 - fx) + src[:, x1] * fx``, widening its taps (a uint8
    plane stays uint8 until then) to float64, which gives the same bits as
    blending a float64 copy.  The output is the row blend
    ``top * (1 - fy) + bot * fy`` of those.

    The column taps and the row taps are gathered with ``np.take``, and
    only from C-contiguous blocks: ``np.take`` first copies a strided array
    whole, and the column window of a tall plane is nearly the plane.  So
    the rows read are first copied out of the window on their own, by
    slicing the span or by indexing the window with the sparse span's
    rows.  At most the column blend and one float64 array of its size, or
    the blend and twice the output, are live at once, so asking for 32 rows
    of 800 columns at a time keeps them under ~1 MB together.

    A plane with no rows or no columns is a ``ValueError`` naming its shape.
    """
    image = np.asarray(image)
    in_h, in_w = image.shape
    if in_h < 1 or in_w < 1:
        raise ValueError(f"resize_bilinear needs at least 1x1 pixels, got a {image.shape} plane")
    y0, y1, fy = (a[rows] for a in _taps(in_h, out_h, 0, out_h, 1))
    window, x0, x1, fx = _column_window(in_w, out_w, *cols.indices(out_w))
    if not (y0.size and x0.size):
        return np.empty((y0.size, x0.size))
    first, last = y0.min(), y1.max()
    # a dense span is sliced, as marking its rows costs a band ~15 us more
    # (~10% of ingest's CPU per image); a sparse span is marked, as slicing
    # it whole held 2.4 MB above the canvas for a 4,000-row crop
    if last - first < 2 * y0.size:
        src = image[first : last + 1, window]
        y0, y1 = y0 - first, y1 - first
    else:
        # mark the tap rows in the span, then number them in order
        read = np.zeros(last - first + 1, dtype=bool)
        np.put(read, y0 - first, True)
        np.put(read, y1 - first, True)
        rank = np.cumsum(read) - 1
        src = image[first + np.flatnonzero(read), window]
        y0, y1 = np.take(rank, y0 - first), np.take(rank, y1 - first)
    src = np.ascontiguousarray(src)
    blend = np.take(src, x0, axis=1).astype(np.float64, copy=False)
    blend *= 1 - fx
    # widened, then scaled in place: a uint8 * float64 product took ~25%
    # longer through its casting loop, for the same bits
    upper = np.take(src, x1, axis=1).astype(np.float64, copy=False)
    upper *= fx
    blend += upper
    del upper
    top, bot = np.take(blend, y0, axis=0), np.take(blend, y1, axis=0)
    fy = fy[:, None]
    top *= 1 - fy
    bot *= fy
    top += bot
    return top


def preprocess(image: np.ndarray, ann: Annotation) -> tuple[np.ndarray, Annotation]:
    """Scale/crop/pad a 2-D uint8 gray plane to the 800x1000 canvas and
    transform the annotation.

    Returns a uint8 plane of exactly (IMAGE_HEIGHT, IMAGE_WIDTH) and the
    transformed annotation.  Raises ``ValueError`` for any other image type,
    such as an (H, W, 3) or float array.

    The canvas is filled ``BLOCK_ROWS`` rows at a time: each block is
    resampled with ``resize_bilinear``, rounded in place and cast into its
    band of the canvas, which gives the same bits as resampling the whole
    canvas at once while holding ~1 MB beyond the input and the canvas.
    """
    image = np.asarray(image)
    if image.ndim != 2 or image.dtype != np.uint8:
        raise ValueError(
            f"preprocess expects a 2-D uint8 gray plane, got {image.dtype} {image.shape}"
        )
    in_h, in_w = image.shape
    if in_h < 1 or in_w < 1:
        raise ValueError("image must be at least 1x1")
    th, tw = IMAGE_HEIGHT, IMAGE_WIDTH

    s = th / in_h
    w1 = int(round(s * in_w))
    w1 = max(w1, 1)

    # scaled column x lands on canvas column x + shift: the left pad, or
    # minus the left crop.  Only the columns that land are resampled.
    shift = (tw - w1) // 2 if w1 < tw else -((w1 - tw) // 2)
    lo, hi = max(0, -shift), min(w1, tw - shift)
    canvas = np.zeros((th, tw), dtype=np.uint8)
    for top in range(0, th, BLOCK_ROWS):
        rows = slice(top, top + BLOCK_ROWS)
        band = resize_bilinear(image, th, w1, slice(lo, hi), rows)
        # a blend of uint8 values lies in [0, 255] up to a few ulps above,
        # which rounding removes, so the cast needs no clip
        np.round(band, out=band)
        canvas[rows, lo + shift : hi + shift] = band

    objects = []
    for obj in ann.objects:
        b = obj.box
        moved = BBox(
            s * b.x_min + shift, s * b.y_min, s * b.x_max + shift, s * b.y_max
        )
        clipped = clip(moved, tw, th)
        if clipped.width <= 0 or clipped.height <= 0:
            continue  # cropped away entirely
        objects.append(GroundTruthObject(class_name=obj.class_name, box=clipped))

    out_ann = Annotation(
        image_filename=ann.image_filename,
        image_width=tw,
        image_height=th,
        objects=tuple(objects),
    )
    return canvas, out_ann
