"""Axis-aligned box arithmetic: IOU, delta encoding, clipping.

Boxes live in continuous pixel coordinates with the origin at the top-left
corner, x growing rightward and y growing downward.  Edges sit at real
positions; there is no +1 inclusive-width convention anywhere in this
package.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Largest log-scale a predicted delta may apply (Fast/Faster R-CNN's
# BBOX_XFORM_CLIP): a 16-pixel anchor grows at most to the 1000-pixel canvas,
# and exp stays far from overflow.  Callers that decode network output clamp
# tw/th to it; decode itself stays the exact inverse of encode.
BBOX_XFORM_CLIP = math.log(1000.0 / 16.0)


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box (x_min, y_min, x_max, y_max) in pixel coordinates."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        for v in (self.x_min, self.y_min, self.x_max, self.y_max):
            if not math.isfinite(v):
                raise ValueError(f"non-finite box coordinate: {v}")
        if self.x_min > self.x_max or self.y_min > self.y_max:
            raise ValueError(f"inverted box: {self}")

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.x_min + self.x_max), 0.5 * (self.y_min + self.y_max))

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x_min, self.y_min, self.x_max, self.y_max)


@dataclass(frozen=True)
class BoxDelta:
    """Center/log-size offsets of a target box relative to an anchor."""

    tx: float
    ty: float
    tw: float
    th: float

    def __post_init__(self):
        for v in (self.tx, self.ty, self.tw, self.th):
            if not math.isfinite(v):
                raise ValueError(f"non-finite delta component: {v}")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.tx, self.ty, self.tw, self.th)


def area(b: BBox) -> float:
    """Area of a box; degenerate boxes have area 0."""
    return b.width * b.height


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union of two boxes.

    Returns 0 when the union has zero area (two degenerate boxes), so the
    result is always a well-defined number in [0, 1].
    """
    ix = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    iy = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    union = area(a) + area(b) - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def encode(anchor: BBox, target: BBox) -> BoxDelta:
    """Encode ``target`` relative to ``anchor`` as center/log-size offsets."""
    wa, ha = anchor.width, anchor.height
    if wa <= 0.0 or ha <= 0.0:
        raise ValueError("degenerate anchor")
    wt, ht = target.width, target.height
    if wt <= 0.0 or ht <= 0.0:
        raise ValueError("degenerate target")
    cxa, cya = anchor.center
    cxt, cyt = target.center
    return BoxDelta(
        tx=(cxt - cxa) / wa,
        ty=(cyt - cya) / ha,
        tw=math.log(wt / wa),
        th=math.log(ht / ha),
    )


def decode(anchor: BBox, delta: BoxDelta) -> BBox:
    """Apply ``delta`` to ``anchor``; exact inverse of :func:`encode`."""
    wa, ha = anchor.width, anchor.height
    if wa <= 0.0 or ha <= 0.0:
        raise ValueError("degenerate anchor")
    cxa, cya = anchor.center
    cx = cxa + delta.tx * wa
    cy = cya + delta.ty * ha
    w = wa * math.exp(delta.tw)
    h = ha * math.exp(delta.th)
    return BBox(cx - 0.5 * w, cy - 0.5 * h, cx + 0.5 * w, cy + 0.5 * h)


def clip(b: BBox, width: float, height: float) -> BBox:
    """Clamp a box to the [0, width] x [0, height] canvas."""
    if width <= 0 or height <= 0:
        raise ValueError("canvas dimensions must be positive")
    return BBox(
        min(max(b.x_min, 0.0), width),
        min(max(b.y_min, 0.0), height),
        min(max(b.x_max, 0.0), width),
        min(max(b.y_max, 0.0), height),
    )


# ---------------------------------------------------------------------------
# Array helpers.  Boxes as (N, 4) float arrays in (x_min, y_min, x_max, y_max)
# order; used by the anchor-heavy stages where per-object BBox instances would
# be too slow.
# ---------------------------------------------------------------------------

def boxes_to_array(boxes) -> np.ndarray:
    """Stack an iterable of BBox into an (N, 4) float64 array."""
    if len(boxes) == 0:
        return np.zeros((0, 4), dtype=np.float64)
    return np.array([b.as_tuple() for b in boxes], dtype=np.float64)


def area_array(boxes: np.ndarray) -> np.ndarray:
    boxes = np.asarray(boxes, dtype=np.float64)
    return (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IOU of (N, 4) against (M, 4) boxes, shape (N, M)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        return np.zeros((a.shape[0], b.shape[0]), dtype=np.float64)
    # the float expression of iou_pairs, with the temporaries reused in place
    inter = np.minimum(a[:, None, 2], b[None, :, 2])
    low = np.maximum(a[:, None, 0], b[None, :, 0])
    inter -= low
    iy = np.minimum(a[:, None, 3], b[None, :, 3])
    iy -= np.maximum(a[:, None, 1], b[None, :, 1], out=low)
    np.clip(inter, 0.0, None, out=inter)
    inter *= np.clip(iy, 0.0, None, out=iy)
    union = np.add(area_array(a)[:, None], area_array(b)[None, :], out=iy)
    union -= inter
    positive = union > 0
    np.divide(inter, union, out=inter, where=positive)
    if not positive.all():
        inter[~positive] = 0.0
    return inter


def iou_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise IOU of two equally shaped (N, 4) box arrays."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    ix = np.minimum(a[:, 2], b[:, 2]) - np.maximum(a[:, 0], b[:, 0])
    iy = np.minimum(a[:, 3], b[:, 3]) - np.maximum(a[:, 1], b[:, 1])
    inter = np.clip(ix, 0.0, None) * np.clip(iy, 0.0, None)
    union = area_array(a) + area_array(b) - inter
    out = np.zeros_like(inter)
    np.divide(inter, union, out=out, where=union > 0)
    return out


def decode_array(
    anchors: np.ndarray,
    deltas: np.ndarray,
    out: np.ndarray | None = None,
    max_log_scale: float = math.inf,
) -> np.ndarray:
    """Vectorized :func:`decode` for (N, 4) anchors and (N, 4) deltas.

    tw/th are first clamped to ``max_log_scale`` (network output passes
    ``BBOX_XFORM_CLIP``); the boxes go into ``out`` when it is given.  Each
    coordinate is :func:`decode`'s float expression (with ``np.exp`` in
    place of ``math.exp``), computed one column at a time: the result does
    not depend on how the rows are chunked, and no temporary is wider than
    one column.
    """
    anchors = np.asarray(anchors, dtype=np.float64)
    deltas = np.asarray(deltas, dtype=np.float64)
    wa = anchors[:, 2] - anchors[:, 0]
    ha = anchors[:, 3] - anchors[:, 1]
    if np.any(wa <= 0) or np.any(ha <= 0):
        raise ValueError("degenerate anchor")
    if out is None:
        out = np.empty((anchors.shape[0], 4))
    # the clamped log-scales go where the max corners will be
    for k in (2, 3):
        np.minimum(deltas[:, k], max_log_scale, out=out[:, k])
    if not all(np.isfinite(c).all() for c in (deltas[:, 0], deltas[:, 1], out[:, 2], out[:, 3])):
        raise ValueError("non-finite delta")
    for k, size in ((0, wa), (1, ha)):
        half = out[:, k + 2]
        np.exp(half, out=half)
        half *= size
        half *= 0.5
        center = anchors[:, k] + anchors[:, k + 2]
        center *= 0.5
        size *= deltas[:, k]
        center += size
        np.subtract(center, half, out=out[:, k])
        half += center
    return out


def clip_array(
    boxes: np.ndarray, width: float, height: float, out: np.ndarray | None = None
) -> np.ndarray:
    """Clamp (N, 4) boxes to the [0, width] x [0, height] canvas, into
    ``out`` when given (``out=boxes`` clips in place)."""
    if width <= 0 or height <= 0:
        raise ValueError("canvas dimensions must be positive")
    boxes = np.asarray(boxes, dtype=np.float64)
    if out is None:
        out = np.empty_like(boxes)
    for k, limit in enumerate((width, height, width, height)):
        np.clip(boxes[:, k], 0.0, limit, out=out[:, k])
    return out
