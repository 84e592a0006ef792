"""Canvas normalization to the fixed 800x1000 input.

Every image is scaled uniformly so its height becomes 1000.  If the scaled
width exceeds 800 the image is center-cropped about the vertical midline;
if it falls short, black columns pad both sides (left pad floor of the
remainder).  Ground-truth boxes ride along through the same scale/shift and
are clipped to the canvas; boxes cropped away entirely are dropped.
"""
from __future__ import annotations

import numpy as np

from .evaluation import GroundTruthObject
from .geometry import BBox, clip
from .model import IMAGE_HEIGHT, IMAGE_WIDTH
from .voc import Annotation


def resize_bilinear(
    image: np.ndarray, out_h: int, out_w: int, cols: slice = slice(None)
) -> np.ndarray:
    """Bilinear resampling of a 2-D plane with pixel centers aligned between
    grids.

    Returns float64 output columns ``cols`` (default all) of the resized
    plane; each column has the same bits as in the full resize, and only
    the source columns they blend are read.  The four neighbours are
    gathered rows first from the input as it is (a uint8 plane stays uint8)
    and widen to float64 only in the blend, which gives the same bits as
    blending a float64 copy.
    """
    image = np.asarray(image)
    in_h, in_w = image.shape
    ys = np.clip((np.arange(out_h) + 0.5) * in_h / out_h - 0.5, 0, in_h - 1)
    out_x = np.arange(*cols.indices(out_w))
    xs = np.clip((out_x + 0.5) * in_w / out_w - 0.5, 0, in_w - 1)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, in_h - 1)
    x1 = np.minimum(x0 + 1, in_w - 1)
    fy = (ys - y0)[:, None]
    fx = (xs - x0)[None, :]
    if out_x.size:
        # gather from the source columns these output columns blend
        first = x0.min()
        image = image[:, first : x1.max() + 1]
        x0 -= first
        x1 -= first
    rows0, rows1 = image[y0], image[y1]
    # top * (1 - fy) + bot * fy, with top and bot the column blends of the
    # two source rows, evaluated in place to spare full-size temporaries
    top = rows0[:, x0] * (1 - fx)
    top += rows0[:, x1] * fx
    bot = rows1[:, x0] * (1 - fx)
    bot += rows1[:, x1] * fx
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
    band = resize_bilinear(image, th, w1, slice(lo, hi))
    np.round(band, out=band)
    np.clip(band, 0, 255, out=band)
    canvas = np.zeros((th, tw), dtype=np.uint8)
    canvas[:, lo + shift : hi + shift] = band

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
