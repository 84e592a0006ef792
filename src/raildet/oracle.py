"""Hand-constructed weights that detect the synthetic fastener glyphs.

This is the desk-scale substitute for training.  The construction leans on
three facts the synthesizer guarantees:

* every glyph is a 32x32 point-symmetric motif, so the 3x3-cell window
  around the cell holding its center always contains it completely and the
  occupancy centroid sits at the box center;
* glyph brightness bands are separated by the backbone's threshold levels,
  so a class-k glyph has identical occupancy in threshold channels 0..k and
  zero in the higher ones;
* glyphs are spaced so no 48x48 window ever covers parts of two of them.

Each class owns one anchor channel.  Its objectness logit fires only when
the windowed occupancy mass at the class's own threshold level sits in a
half-pixel band around the glyph's known pixel count AND the next threshold
level is empty -- which happens exactly when the window fully contains one
glyph of that class.  The delta channel then reads the occupancy centroid
off the moment features and snaps the box onto the glyph; every other
anchor/cell combination is pushed far outside the canvas and dies at the
proposal stage's clip/min-size filter.  The second stage classifies by the
threshold-channel signature of the pooled features.
"""
from __future__ import annotations

import math

import numpy as np

from .anchors import base_anchors
from .model import (
    CHAN_OCC,
    CHAN_XMOM,
    CHAN_YMOM,
    NUM_CHANNELS,
    NUM_CLASSES,
    RPN_DIM,
    DetectHead,
    ModelWeights,
    RpnHead,
)
from .pipeline import PipelineConfig
from .synth import GLYPH_AREAS, GLYPH_SIZE
from .evaluation import CLASS_NAMES

# objectness logit at exact containment; sigma(12) ~ 0.999994
SCORE_LOGIT = 12.0
BAND_HALF_PIXELS = 0.5
SHOVE_GAIN = 1.0e5  # pushes non-matching boxes far off-canvas
CLS_GAIN = 60.0
BG_LOGIT = 1.0


def oracle_pipeline_config() -> PipelineConfig:
    """The configuration the oracle weights are built for: the defaults."""
    return PipelineConfig()


def build_oracle_weights(config: PipelineConfig = PipelineConfig()) -> ModelWeights:
    """Oracle RPN and detection heads for ``config``'s anchors, stride and
    ``roi_bins``."""
    bins = config.roi_bins
    k = config.anchors.k
    cell = config.anchors.stride * config.anchors.stride  # pixels per cell
    anchors = base_anchors(config.anchors)

    d = RPN_DIM
    conv_w = np.zeros((d, NUM_CHANNELS, 3, 3))
    conv_b = np.zeros(d)

    # intermediate channel layout: 4 per class, then 4 shared moment channels
    def ch_in(c):
        return 4 * c

    def ch_over(c):
        return 4 * c + 1

    def ch_under(c):
        return 4 * c + 2

    def ch_leak(c):
        return 4 * c + 3

    CH_SXP, CH_SXN, CH_SYP, CH_SYN = 16, 17, 18, 19

    areas = [GLYPH_AREAS[name] for name in CLASS_NAMES]
    for c, area in enumerate(areas):
        occ = CHAN_OCC[c]  # the class's own (highest lit) threshold channel
        lo = (area - BAND_HALF_PIXELS) / cell
        hi = (area + BAND_HALF_PIXELS) / cell
        conv_w[ch_in(c), occ, :, :] = 1.0
        conv_b[ch_in(c)] = -lo
        conv_w[ch_over(c), occ, :, :] = 1.0
        conv_b[ch_over(c)] = -hi
        conv_w[ch_under(c), occ, :, :] = -1.0
        conv_b[ch_under(c)] = lo
        if c + 1 < len(CHAN_OCC):
            conv_w[ch_leak(c), CHAN_OCC[c + 1], :, :] = 1.0
            conv_b[ch_leak(c)] = -BAND_HALF_PIXELS / cell

    # windowed occupancy moments about the center cell's center, in strides
    occ0 = CHAN_OCC[0]
    for di in range(3):
        for dj in range(3):
            conv_w[CH_SXP, CHAN_XMOM, di, dj] = 1.0
            conv_w[CH_SXP, occ0, di, dj] += dj - 1
            conv_w[CH_SYP, CHAN_YMOM, di, dj] = 1.0
            conv_w[CH_SYP, occ0, di, dj] += di - 1
    conv_w[CH_SXN] = -conv_w[CH_SXP]
    conv_w[CH_SYN] = -conv_w[CH_SYP]

    score_w = np.zeros((2 * k, d))
    score_b = np.zeros(2 * k)
    delta_w = np.zeros((4 * k, d))
    delta_b = np.zeros(4 * k)
    stride = float(config.anchors.stride)

    band_gain = 2.0 * SCORE_LOGIT * cell / BAND_HALF_PIXELS
    for a in range(k):
        score_b[2 * a + 1] = -SCORE_LOGIT
    for c, area in enumerate(areas):
        a = c  # anchor channel owned by this class
        wa = anchors[a].width
        ha = anchors[a].height
        score_w[2 * a + 1, ch_in(c)] = band_gain
        score_w[2 * a + 1, ch_over(c)] = -4.0 * band_gain
        score_w[2 * a + 1, ch_leak(c)] = -1.0e6

        moment_to_px = cell * stride / area  # Sx (channel units) -> centroid px
        delta_w[4 * a + 0, CH_SXP] = moment_to_px / wa
        delta_w[4 * a + 0, CH_SXN] = -moment_to_px / wa
        delta_w[4 * a + 1, CH_SYP] = moment_to_px / ha
        delta_w[4 * a + 1, CH_SYN] = -moment_to_px / ha
        delta_b[4 * a + 2] = math.log(GLYPH_SIZE / wa)
        delta_b[4 * a + 3] = math.log(GLYPH_SIZE / ha)
        for bad in (ch_under(c), ch_over(c), ch_leak(c)):
            delta_w[4 * a + 1, bad] += SHOVE_GAIN
    for a in range(len(areas), k):
        delta_b[4 * a + 1] = 1.0e4  # unused anchor channels: always shoved

    feat = bins * bins * NUM_CHANNELS
    cls_w = np.zeros((NUM_CLASSES, feat))
    cls_b = np.zeros(NUM_CLASSES)
    cls_b[0] = BG_LOGIT
    pooled_idx = np.arange(bins * bins) * NUM_CHANNELS
    for c in range(len(CLASS_NAMES)):
        cls_w[1 + c, pooled_idx + CHAN_OCC[c]] = CLS_GAIN / (bins * bins)
        if c + 1 < len(CHAN_OCC):
            cls_w[1 + c, pooled_idx + CHAN_OCC[c + 1]] = -CLS_GAIN / (bins * bins)

    return ModelWeights(
        rpn=RpnHead(
            conv_w=conv_w,
            conv_b=conv_b,
            score_w=score_w,
            score_b=score_b,
            delta_w=delta_w,
            delta_b=delta_b,
        ),
        det=DetectHead(
            cls_w=cls_w,
            cls_b=cls_b,
            reg_w=np.zeros((4 * (NUM_CLASSES - 1), feat)),
            reg_b=np.zeros(4 * (NUM_CLASSES - 1)),
        ),
    )
