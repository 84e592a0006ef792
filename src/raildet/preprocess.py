"""Canvas normalization to the fixed 800x1000 input.

Every image is scaled uniformly so its height becomes 1000.  If the scaled
width exceeds 800 the image is center-cropped about the vertical midline;
if it falls short, black columns pad both sides (left pad floor of the
remainder).  Ground-truth boxes ride along through the same scale/shift and
are clipped to the canvas; boxes cropped away entirely are dropped.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evaluation import GroundTruthObject
from .geometry import BBox, clip
from .voc import Annotation

TARGET_WIDTH = 800
TARGET_HEIGHT = 1000


@dataclass(frozen=True)
class PreprocessConfig:
    target_width: int = TARGET_WIDTH
    target_height: int = TARGET_HEIGHT
    pad_value: int = 0


def resize_bilinear(image: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resampling with pixel centers aligned between grids.

    Returns float64.  The four neighbours are gathered rows first from the
    input as it is (a uint8 image stays uint8) and widen to float64 only in
    the blend, which gives the same bits as blending a float64 copy.
    """
    image = np.asarray(image)
    in_h, in_w = image.shape[:2]
    ys = np.clip((np.arange(out_h) + 0.5) * in_h / out_h - 0.5, 0, in_h - 1)
    xs = np.clip((np.arange(out_w) + 0.5) * in_w / out_w - 0.5, 0, in_w - 1)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, in_h - 1)
    x1 = np.minimum(x0 + 1, in_w - 1)
    fy = (ys - y0)[:, None]
    fx = (xs - x0)[None, :]
    if image.ndim == 3:
        fy = fy[..., None]
        fx = fx[..., None]
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


def preprocess(
    image: np.ndarray, ann: Annotation, config: PreprocessConfig = PreprocessConfig()
) -> tuple[np.ndarray, Annotation]:
    """Scale/crop/pad to the target canvas and transform the annotation.

    Returns a uint8 image of exactly (target_height, target_width) and the
    transformed annotation.
    """
    image = np.asarray(image)
    in_h, in_w = image.shape[:2]
    if in_h < 1 or in_w < 1:
        raise ValueError("image must be at least 1x1")
    th, tw = config.target_height, config.target_width

    s = th / in_h
    w1 = int(round(s * in_w))
    w1 = max(w1, 1)
    scaled = resize_bilinear(image, th, w1)

    if w1 > tw:
        crop_left = (w1 - tw) // 2
        canvas = scaled[:, crop_left : crop_left + tw]
        shift = -float(crop_left)
    elif w1 < tw:
        pad_left = (tw - w1) // 2
        shape = (th, tw) + scaled.shape[2:]
        canvas = np.full(shape, float(config.pad_value))
        canvas[:, pad_left : pad_left + w1] = scaled
        shift = float(pad_left)
    else:
        canvas = scaled
        shift = 0.0

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
    # canvas is ours (scaled or a view of it, or the padded copy): round
    # and clip it in place
    np.round(canvas, out=canvas)
    np.clip(canvas, 0, 255, out=canvas)
    return canvas.astype(np.uint8), out_ann
