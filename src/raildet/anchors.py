"""Anchor generation: 9 base shapes tiled over a feature map.

The base shapes come from 3 scales x 3 aspect ratios (k = 9).  Tiling is a
pure translation to every cell center; anchors are not clipped here, the
proposal stage decides what to do with out-of-image boxes.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import BBox


@dataclass(frozen=True)
class AnchorConfig:
    """Scales are anchor side lengths in input pixels (area = scale^2);
    ratios are height/width; stride is input pixels per feature-map cell.

    The default scales 16/32/64 fit the 32x32-pixel fastener glyphs (the
    Faster R-CNN values 128/256/512 are for ~600-pixel images).  The oracle
    weights are built for these defaults, so changing them changes what the
    oracle detects.
    """

    scales: tuple[float, float, float] = (16.0, 32.0, 64.0)
    ratios: tuple[float, float, float] = (0.5, 1.0, 2.0)
    stride: int = 16

    def __post_init__(self):
        if len(self.scales) != 3 or len(self.ratios) != 3:
            raise ValueError("anchor config needs exactly 3 scales and 3 ratios (k = 9)")
        if any(s <= 0 for s in self.scales):
            raise ValueError("scales must be positive")
        if any(r <= 0 for r in self.ratios):
            raise ValueError("ratios must be positive")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")

    @property
    def k(self) -> int:
        return len(self.scales) * len(self.ratios)


def base_anchors(config: AnchorConfig) -> list[BBox]:
    """The k base anchors centered at the origin, scale-major order.

    For scale s and ratio r the box is (s/sqrt(r)) wide and (s*sqrt(r))
    tall, so its area is exactly s^2.
    """
    out = []
    for s in config.scales:
        for r in config.ratios:
            w = s / math.sqrt(r)
            h = s * math.sqrt(r)
            out.append(BBox(-0.5 * w, -0.5 * h, 0.5 * w, 0.5 * h))
    return out


@functools.lru_cache(maxsize=8)
def tile(config: AnchorConfig, feat_width: int, feat_height: int) -> np.ndarray:
    """Translate the base anchors to every cell center of a W x H grid.

    Returns the (W*H*k, 4) anchor array, ordered row-major over cells, then
    by base-anchor index within each cell.  Cell (i, j) has its center at
    ((i + 0.5) * stride, (j + 0.5) * stride).  Arrays are memoised per
    (config, W, H), so they are read-only.
    """
    if feat_width < 1 or feat_height < 1:
        raise ValueError("feature map dimensions must be >= 1")
    base = np.array([b.as_tuple() for b in base_anchors(config)], dtype=np.float64)
    s = float(config.stride)
    cx = (np.arange(feat_width, dtype=np.float64) + 0.5) * s
    cy = (np.arange(feat_height, dtype=np.float64) + 0.5) * s
    # shifts ordered row-major: rows (y) outer, columns (x) inner
    shift_x, shift_y = np.meshgrid(cx, cy)
    shifts = np.stack(
        [shift_x.ravel(), shift_y.ravel(), shift_x.ravel(), shift_y.ravel()], axis=1
    )
    all_anchors = (shifts[:, None, :] + base[None, :, :]).reshape(-1, 4)
    all_anchors.setflags(write=False)
    return all_anchors
