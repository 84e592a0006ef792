"""Deterministic forward-pass geometry for the detection pipeline.

A tiny fixed backbone stands in for the real feature extractor (pretrained
backbones and training are out of scope): a filter bank of intensity
thresholds and within-cell position moments, average-pooled down to the
stage stride.  What matters downstream is preserved -- stride, channel
count, determinism, and non-trivial responses on the synthetic fastener
shapes.

Strides: ``BACKBONE_STRIDES`` are stage 4's 16 px/cell and stage 5's 32 px/cell
with down-sampling; the pipeline's ``anchors.stride`` picks one.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import blas
from .evaluation import CLASS_NAMES
from .geometry import BBox

IMAGE_WIDTH = 800
IMAGE_HEIGHT = 1000

# Fixed filter bank: one luminance channel, four threshold-occupancy
# channels, and two occupancy-weighted within-cell position moments.  The
# thresholds are whole numbers, so a uint8 plane compares against them
# without widening.
INTENSITY_THRESHOLDS = (100, 160, 190, 220)
CHAN_LUM = 0
CHAN_OCC = (1, 2, 3, 4)  # occupancy above each threshold, in order
CHAN_XMOM = 5
CHAN_YMOM = 6
NUM_CHANNELS = 7

NUM_CLASSES = 1 + len(CLASS_NAMES)  # background + the fastener categories

BACKBONE_STRIDES = (16, 32)  # stage 4; stage 5 with down-sampling
RPN_DIM = 256  # intermediate conv width of generated RPN heads

# RPN products below this many FLOPs (counted over the live channels) run on
# one BLAS thread.  On 2 x86-64 cores the oracle head at stride 16 (19 live
# channels, ~14 MFLOP) ran its conv in 0.39 ms on two threads and 0.45 ms on
# one, while the spinning second thread doubled the CPU time of an oracle
# image (perfbench oracle-corpus: 10.5 -> 5.6 CPU ms per image, images/s
# -1.5%).  A 256-channel head (~185 MFLOP at stride 16, ~46 at stride 32)
# keeps the caller's count: its conv took 1.58 ms on two threads and 2.33 ms
# on one, and its last bits depend on the count.  The BLAS workers are
# started before its products and stopped after them instead, so they do
# not spin through the rest of the image (perfbench dense-rois: CPU per
# image ~2x wall before).
SMALL_RPN_FLOPS = 2**25


@dataclass(frozen=True)
class FeatureMap:
    """Backbone output: (C, H, W) values plus the input-pixels-per-cell stride."""

    data: np.ndarray = field(repr=False)
    stride: int

    def __post_init__(self):
        if self.data.ndim != 3:
            raise ValueError("feature data must be (C, H, W)")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("feature values must be finite")

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]


def extract_features(image: np.ndarray, stride: int) -> FeatureMap:
    """Run the fixed filter bank and average-pool to ``stride`` px/cell, one
    of ``BACKBONE_STRIDES``.

    ``image`` is a (1000, 800) uint8 gray plane, as ``preprocess``,
    ``read_ppm(grayscale=True)`` and ``synthesize_scene`` give; anything
    else is rejected because the pipeline assumes preprocessed input.
    """
    if stride not in BACKBONE_STRIDES:
        raise ValueError(f"backbone stride must be one of {BACKBONE_STRIDES}, got {stride}")
    image = np.asarray(image)
    if image.dtype != np.uint8 or image.shape != (IMAGE_HEIGHT, IMAGE_WIDTH):
        raise ValueError(
            f"backbone expects a preprocessed 800x1000 uint8 plane, got "
            f"{image.dtype} {image.shape[::-1]}"
        )
    s = stride
    h_cells = IMAGE_HEIGHT // s
    w_cells = IMAGE_WIDTH // s
    cropped = image[: h_cells * s, : w_cells * s]
    cells = cropped.reshape(h_cells, s, w_cells, s)
    cell_area = s * s

    chans = np.empty((NUM_CHANNELS, h_cells, w_cells), dtype=np.float64)
    # Exact integer sums in the narrowest dtype that holds them (einsum wraps
    # silently), so the float division gives the bits of the float64 mean:
    # rows <= 255 s (uint16), cells <= 255 s^2 = 65,280 (uint16) or 261,120.
    lum = np.einsum("hwc->hw", cells.sum(axis=1, dtype=np.uint16),
                    dtype=np.min_scalar_type(255 * cell_area))
    chans[CHAN_LUM] = lum / cell_area / 255.0
    # Occupancy channels are cell means of 0/1 planes and the moments cell
    # means of 0/1 times multiples of 1/(2s).  Every partial sum is exact in
    # float64, so integer counts divided by the cell area give the same bits
    # as the float means, at a fraction of the memory traffic.
    pos = (np.arange(s) + 0.5 - 0.5 * s) / s  # within-cell position, in strides
    for c, t in zip(CHAN_OCC, INTENSITY_THRESHOLDS):
        occ = (cells > t).view(np.uint8)
        per_col = np.einsum("hrwc->hwc", occ)  # (h_cells, w_cells, s) <= s, uint8
        chans[c] = np.einsum("hwc->hw", per_col, dtype=np.uint16) / cell_area  # <= 1,024
        if c == CHAN_OCC[0]:
            chans[CHAN_XMOM] = (per_col @ pos) / cell_area
            chans[CHAN_YMOM] = _row_moment(occ, per_col) / cell_area
    return FeatureMap(data=chans, stride=s)


def _row_moment(occ: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Cell sums of ``occ`` weighted by row position in strides, (h, w).

    ``occ`` is the (h, s, w, s) 0/1 cell view, ``count`` its per-column sums.
    Row ``r`` weighs ``(2r + 1 - s) / (2s)``: the odd integers are summed
    exactly, as ``2 sum_r(r occ_r) - (s - 1) count``, and divided by the power
    of two ``2s`` once, so the value equals the float sum over rows.
    """
    s = occ.shape[1]
    r = np.arange(s, dtype=np.min_scalar_type(s * (s - 1) // 2))  # sum_r(r occ_r) <= 120 | 496
    acc = np.multiply(np.einsum("hrwc,r->hwc", occ, r), 2, dtype=np.int16)
    # |column sum| <= s^2 / 4, |cell sum| <= s^3 / 4 = 8,192 (int16)
    acc -= np.multiply(count, s - 1, dtype=np.int16)
    return np.einsum("hwc->hw", acc) / (2 * s)


# ---------------------------------------------------------------------------
# Heads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RpnHead:
    """3x3 intermediate conv + ReLU, then 1x1 score and delta heads.

    Score head emits 2 channels per anchor (background, foreground pairs,
    anchor-major); delta head emits 4 per anchor (tx, ty, tw, th).
    """

    conv_w: np.ndarray  # (D, C, 3, 3)
    conv_b: np.ndarray  # (D,)
    score_w: np.ndarray  # (2k, D)
    score_b: np.ndarray  # (2k,)
    delta_w: np.ndarray  # (4k, D)
    delta_b: np.ndarray  # (4k,)

    def __post_init__(self):
        d = self.conv_w.shape[0]
        if d not in (256, 512):
            raise ValueError("intermediate dimension must be 256 or 512")
        if self.conv_w.shape[2:] != (3, 3) or self.conv_b.shape != (d,):
            raise ValueError("bad intermediate conv shape")
        if self.score_w.shape[1] != d or self.delta_w.shape[1] != d:
            raise ValueError("head width must match intermediate dimension")
        if self.score_w.shape[0] % 2 or self.delta_w.shape[0] % 4:
            raise ValueError("score head needs 2k channels, delta head 4k")
        if self.score_w.shape[0] // 2 != self.delta_w.shape[0] // 4:
            raise ValueError("score and delta heads disagree on k")
        if self.score_b.shape != (self.score_w.shape[0],):
            raise ValueError("bad score bias shape")
        if self.delta_b.shape != (self.delta_w.shape[0],):
            raise ValueError("bad delta bias shape")

    @property
    def intermediate_dim(self) -> int:
        return self.conv_w.shape[0]

    @property
    def k(self) -> int:
        return self.score_w.shape[0] // 2


def conv2d_3x3(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Zero-padded 3x3 convolution: (C, H, W) x (D, C, 3, 3) -> (D, H, W)."""
    c, h, width = x.shape
    if w.shape[1] != c:
        raise ValueError(f"conv expects {w.shape[1]} input channels, got {c}")
    padded = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    windows = np.empty((3, 3, c, h, width), dtype=np.float64)
    for di in range(3):
        for dj in range(3):
            windows[di, dj] = padded[:, di : di + h, dj : dj + width]
    out = np.einsum("dcij,ijchw->dhw", w, windows, optimize=True)
    out += b[:, None, None]
    return out


def rpn_forward(fm: FeatureMap, head: RpnHead) -> tuple[np.ndarray, np.ndarray]:
    """Per-anchor objectness and deltas over the whole feature map.

    Returns ``scores`` of shape (H*W*k,) -- softmax foreground probability
    per anchor, with ``k = head.k`` -- and ``deltas`` of shape (H*W*k, 4),
    both in the row-major-cells-then-anchor order of :func:`anchors.tile`.
    Intermediate channels that can only add exact zeros are left out of
    every product (see :func:`_live_channels`).  Products smaller than
    ``SMALL_RPN_FLOPS`` run on one BLAS thread; larger ones keep the
    caller's count, and the BLAS worker threads are stopped after them
    (:func:`raildet.blas.stop_workers_after`).
    """
    if fm.channels != head.conv_w.shape[1]:
        raise ValueError("feature channels do not match the head")
    conv_w, conv_b, score_w, delta_w = head.conv_w, head.conv_b, head.score_w, head.delta_w
    live = _live_channels(head)
    if live is not None:
        conv_w, conv_b = conv_w[live], conv_b[live]
        score_w, delta_w = score_w[:, live], delta_w[:, live]
    h, w, k = fm.height, fm.width, head.k
    flops = 2 * h * w * (conv_w.size + score_w.size + delta_w.size)
    with blas.single_thread() if flops < SMALL_RPN_FLOPS else blas.stop_workers_after():
        inter = conv2d_3x3(fm.data, conv_w, conv_b)
        np.maximum(inter, 0.0, out=inter)
        flat = inter.reshape(len(conv_b), h * w)
        # biases and the stable softmax over each (background, foreground)
        # pair go in place: every copy of a head product raises the
        # per-image peak of transient memory, which the allocator may hand
        # back and fault in again
        logits = score_w @ flat
        logits += head.score_b[:, None]
        logits = logits.reshape(k, 2, h, w)
        logits -= logits.max(axis=1, keepdims=True)
        e = np.exp(logits, out=logits)
        scores = (e[:, 1] / e.sum(axis=1)).transpose(1, 2, 0).reshape(-1)
        deltas = delta_w @ flat
        deltas += head.delta_b[:, None]
    return scores, deltas.reshape(k, 4, h, w).transpose(2, 3, 0, 1).reshape(-1, 4)


def _live_channels(head: RpnHead) -> np.ndarray | None:
    """Indices of the intermediate channels that can change the RPN output,
    or None when every channel can.

    A channel whose conv weights and bias are all zero is exactly 0 after the
    ReLU, so it adds only exact zeros to the heads -- unless its score or
    delta column holds a non-finite entry, which turns the zero into NaN.
    """
    live = (
        head.conv_w.any(axis=(1, 2, 3))
        | (head.conv_b != 0)
        | ~np.isfinite(head.score_w).all(axis=0)
        | ~np.isfinite(head.delta_w).all(axis=0)
    )
    return None if live.all() else np.flatnonzero(live)


def _bin_bounds(
    origin: np.ndarray, step: np.ndarray, fm: FeatureMap, bins: int
) -> tuple[np.ndarray, np.ndarray]:
    """First and one-past-last cell of each bin, as integer arrays.

    ``origin`` and ``step`` are (..., 2, 1) ROI origins and bin sizes in
    feature cells, rows first; the bounds come out (..., 2, bins).
    """
    size = np.array([[fm.height], [fm.width]])
    p = np.arange(bins)
    lo = np.maximum(np.floor(origin + p * step), 0)
    hi = np.minimum(np.ceil(origin + (p + 1) * step), size)
    nearest = np.clip(np.floor(origin + (p + 0.5) * step), 0, size - 1)
    empty = hi <= lo
    return (np.where(empty, nearest, lo).astype(np.intp),
            np.where(empty, nearest + 1, hi).astype(np.intp))


def roi_pool(fm: FeatureMap, roi: BBox, bins: int = 7) -> np.ndarray:
    """Max-pool a ROI into a (bins, bins, C) grid.

    The ROI is given in image coordinates and projected onto the feature
    map by dividing by the stride.  Bin ``p`` spans cells
    ``floor(o + p*b)`` to ``ceil(o + (p+1)*b)``, clamped to the map; a bin
    that covers no whole cell falls back to the single nearest cell, the
    one holding ``o + (p+0.5)*b``.
    """
    s = float(fm.stride)
    x0, y0 = roi.x_min / s, roi.y_min / s
    x1, y1 = roi.x_max / s, roi.y_max / s
    if x1 <= 0 or y1 <= 0 or x0 >= fm.width or y0 >= fm.height:
        raise ValueError("roi lies entirely outside the feature map")
    if x1 <= x0 or y1 <= y0:
        raise ValueError("roi must have positive area in feature coordinates")

    # bin bounds, rows in the first line and columns in the second
    origin = np.array([[y0], [x0]])
    step = np.array([[(y1 - y0) / bins], [(x1 - x0) / bins]])
    lo, hi = _bin_bounds(origin, step, fm, bins)

    # reduceat maxes each run between consecutive indices, so interleaved
    # (lo, hi) pairs give the bin maxima at the even positions (bins may
    # overlap).  An index must lie inside the array: a bin that ends at the
    # map border needs one spare row or column past it.
    top, left = lo.min(axis=1)
    bottom, right = hi.max(axis=1)
    edges = np.stack((lo, hi), axis=2).reshape(2, -1)
    block = fm.data[:, top : bottom + 1, left : right + 1]
    if bottom == fm.height:
        block = np.concatenate((block, block[:, -1:]), axis=1)
    out = np.maximum.reduceat(block, edges[0] - top, axis=1)[:, ::2]
    if right == fm.width:
        out = np.concatenate((out, out[:, :, -1:]), axis=2)
    out = np.maximum.reduceat(out, edges[1] - left, axis=2)[:, :, ::2]
    return out.transpose(1, 2, 0).copy()


def _range_max_table(data: np.ndarray, levels_h: int, levels_w: int) -> np.ndarray:
    """2-D sparse table of a (C, H, W) map, channel-last.

    ``table[a, b, i, j]`` is the maximum over rows ``i .. i + 2**a - 1`` and
    columns ``j .. j + 2**b - 1``; entries whose window runs off the map are
    never filled.  Shape (levels_h, levels_w, H, W, C); a window must fit
    the map, so at most floor(log2 H) + 1 and floor(log2 W) + 1 levels.
    """
    _, h, w = data.shape
    table = np.empty((levels_h, levels_w, h, w, data.shape[0]), dtype=data.dtype)
    table[0, 0] = data.transpose(1, 2, 0)
    for b in range(1, levels_w):
        half, n = 1 << (b - 1), w - (1 << b) + 1
        np.maximum(table[0, b - 1, :, :n], table[0, b - 1, :, half : half + n],
                   out=table[0, b, :, :n])
    for a in range(1, levels_h):
        half, n = 1 << (a - 1), h - (1 << a) + 1
        for b in range(levels_w):
            m = w - (1 << b) + 1
            np.maximum(table[a - 1, b, :n, :m], table[a - 1, b, half : half + n, :m],
                       out=table[a, b, :n, :m])
    return table


def roi_pool_batch(fm: FeatureMap, boxes: np.ndarray, bins: int = 7) -> np.ndarray:
    """:func:`roi_pool` of every row of an (R, 4) box array: (R, bins, bins, C).

    The bin bounds are ``roi_pool``'s arithmetic over (R, 2, bins) arrays,
    so they are the same floats.  Each bin's maximum is read from a sparse
    table of range maxima over the whole map: four overlapping power-of-two
    windows cover the bin exactly, and the maximum of maxima does not depend
    on their overlap or order, so every value equals ``roi_pool``'s.
    """
    boxes = np.asarray(boxes, dtype=np.float64)
    if boxes.ndim != 2 or boxes.shape[1] != 4:
        raise ValueError(f"boxes must be (R, 4), got {boxes.shape}")
    if not np.all(np.isfinite(boxes)):
        raise ValueError("roi coordinates must be finite")
    s = float(fm.stride)
    x0, y0 = boxes[:, 0] / s, boxes[:, 1] / s
    x1, y1 = boxes[:, 2] / s, boxes[:, 3] / s
    outside = (x1 <= 0) | (y1 <= 0) | (x0 >= fm.width) | (y0 >= fm.height)
    flat = (x1 <= x0) | (y1 <= y0)
    bad = np.flatnonzero(outside | flat)
    if bad.size:  # the error roi_pool gives for the first failing ROI
        if outside[bad[0]]:
            raise ValueError("roi lies entirely outside the feature map")
        raise ValueError("roi must have positive area in feature coordinates")

    # bin bounds: (R, 2, bins), rows in the first line and columns in the second
    origin = np.stack((y0, x0), axis=1)[:, :, None]
    step = np.stack(((y1 - y0) / bins, (x1 - x0) / bins), axis=1)[:, :, None]
    lo, hi = _bin_bounds(origin, step, fm, bins)

    # a bin of length n is covered by two windows of length 2**floor(log2 n),
    # one at each end; per axis: the table level and the two window starts.
    # The table holds only the levels the longest bin of each axis reads.
    _, h, w = fm.data.shape
    floor_log2 = np.array([0] + [n.bit_length() - 1 for n in range(1, max(h, w) + 1)])
    level = floor_log2[hi - lo]
    levels_h, levels_w = (level.max(axis=(0, 2), initial=0) + 1).tolist()
    table = _range_max_table(fm.data, levels_h, levels_w)
    c = table.shape[-1]
    last = hi - (1 << level)
    row_level, col_level = level[:, 0, :, None], level[:, 1, None, :]
    base = (row_level * levels_w + col_level) * h
    rows = (lo[:, 0, :, None], last[:, 0, :, None])
    cols = (lo[:, 1, None, :], last[:, 1, None, :])
    cells = table.reshape(-1, c)
    out = None
    for r in rows:
        for q in cols:
            window = cells.take(((base + r) * w + q).reshape(-1), axis=0)
            out = window if out is None else np.maximum(out, window, out=out)
    return out.reshape(len(boxes), bins, bins, c)


@dataclass(frozen=True)
class DetectHead:
    """Linear classification/regression head over flattened pooled features.

    Classification covers background plus the four fastener categories;
    regression emits one delta per foreground class.
    """

    cls_w: np.ndarray  # (5, bins*bins*C)
    cls_b: np.ndarray  # (5,)
    reg_w: np.ndarray  # (16, bins*bins*C)
    reg_b: np.ndarray  # (16,)

    def __post_init__(self):
        if self.cls_w.shape[0] != NUM_CLASSES or self.cls_b.shape != (NUM_CLASSES,):
            raise ValueError(f"classification head must cover {NUM_CLASSES} classes")
        if self.reg_w.shape[0] != 4 * (NUM_CLASSES - 1) or self.reg_b.shape != (
            4 * (NUM_CLASSES - 1),
        ):
            raise ValueError("regression head must emit 4 deltas per foreground class")
        if self.cls_w.shape[1] != self.reg_w.shape[1]:
            raise ValueError("classification and regression disagree on input size")


def detect_forward(
    pooled: np.ndarray, head: DetectHead
) -> tuple[np.ndarray, np.ndarray]:
    """Classify and regress one pooled ROI.

    Returns ``(class_probs, deltas)``: a 5-way softmax (background first,
    then V, W300-1, WJ-7, WJ-8) and a (4, 4) array of per-foreground-class
    deltas in (tx, ty, tw, th) order.
    """
    flat = np.asarray(pooled, dtype=np.float64).reshape(-1)
    if flat.shape[0] != head.cls_w.shape[1]:
        raise ValueError(
            f"pooled feature size {flat.shape[0]} does not match head "
            f"input {head.cls_w.shape[1]}"
        )
    logits = head.cls_w @ flat + head.cls_b
    logits -= logits.max()
    e = np.exp(logits)
    probs = e / e.sum()
    deltas = (head.reg_w @ flat + head.reg_b).reshape(NUM_CLASSES - 1, 4)
    return probs, deltas


def detect_forward_batch(
    pooled: np.ndarray, head: DetectHead
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`detect_forward` of every pooled ROI in an (R, ...) stack.

    Returns (R, 5) class probabilities and (R, 4, 4) deltas, each row equal
    to ``detect_forward`` of that ROI.  The products are stacked
    matrix-vector products (``w @ flat[:, :, None]``), the same one per row
    as ``detect_forward``; an (R, F) @ (F, 5) matrix product would round
    differently in the last bit.
    """
    pooled = np.asarray(pooled, dtype=np.float64)
    width = int(np.prod(pooled.shape[1:]))
    if width != head.cls_w.shape[1]:
        raise ValueError(
            f"pooled feature size {width} does not match head input {head.cls_w.shape[1]}"
        )
    flat = pooled.reshape(len(pooled), width, 1)
    logits = (head.cls_w @ flat)[:, :, 0] + head.cls_b
    logits -= logits.max(axis=1, keepdims=True)
    e = np.exp(logits)
    probs = e / e.sum(axis=1, keepdims=True)
    deltas = ((head.reg_w @ flat)[:, :, 0] + head.reg_b).reshape(-1, NUM_CLASSES - 1, 4)
    return probs, deltas


# ---------------------------------------------------------------------------
# Batch-norm folding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BnParams:
    gamma: np.ndarray
    beta: np.ndarray
    mean: np.ndarray
    variance: np.ndarray
    epsilon: float = 1e-5

    def __post_init__(self):
        shapes = {self.gamma.shape, self.beta.shape, self.mean.shape, self.variance.shape}
        if len(shapes) != 1:
            raise ValueError("BN parameter shapes must agree")
        if np.any(self.variance < 0):
            raise ValueError("variance must be non-negative")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")


def fold_batchnorm(
    conv_w: np.ndarray, conv_b: np.ndarray, bn: BnParams
) -> tuple[np.ndarray, np.ndarray]:
    """Fuse a batch-norm (with its scale/shift) into the preceding conv.

    The folded layer satisfies folded(x) = bn(conv(x)):
    w' = w * g / sqrt(var + eps), b' = (b - mean) * g / sqrt(var + eps) + beta,
    applied per output channel.
    """
    conv_w = np.asarray(conv_w, dtype=np.float64)
    conv_b = np.asarray(conv_b, dtype=np.float64)
    if conv_w.shape[0] != bn.gamma.shape[0] or conv_b.shape != bn.gamma.shape:
        raise ValueError("channel counts of conv and BN do not match")
    scale = bn.gamma / np.sqrt(bn.variance + bn.epsilon)
    shape = (-1,) + (1,) * (conv_w.ndim - 1)
    return conv_w * scale.reshape(shape), (conv_b - bn.mean) * scale + bn.beta


def apply_batchnorm(x: np.ndarray, bn: BnParams) -> np.ndarray:
    """Reference BN over (D, H, W) activations, channel-first."""
    scale = bn.gamma / np.sqrt(bn.variance + bn.epsilon)
    return (x - bn.mean[:, None, None]) * scale[:, None, None] + bn.beta[:, None, None]


# ---------------------------------------------------------------------------
# Weight files: flat little-endian float32 binary + text sidecar with shapes
# ---------------------------------------------------------------------------

# weight-file tensor name -> (head, field, number of dimensions), in file order
WEIGHT_TENSORS = {
    "rpn.conv.weight": ("rpn", "conv_w", 4),
    "rpn.conv.bias": ("rpn", "conv_b", 1),
    "rpn.score.weight": ("rpn", "score_w", 2),
    "rpn.score.bias": ("rpn", "score_b", 1),
    "rpn.delta.weight": ("rpn", "delta_w", 2),
    "rpn.delta.bias": ("rpn", "delta_b", 1),
    "det.cls.weight": ("det", "cls_w", 2),
    "det.cls.bias": ("det", "cls_b", 1),
    "det.reg.weight": ("det", "reg_w", 2),
    "det.reg.bias": ("det", "reg_b", 1),
}


@dataclass(frozen=True)
class ModelWeights:
    rpn: RpnHead
    det: DetectHead

    def tensors(self) -> dict[str, np.ndarray]:
        return {
            name: getattr(getattr(self, head), attr)
            for name, (head, attr, _) in WEIGHT_TENSORS.items()
        }


def save_weights(weights: ModelWeights, path) -> None:
    """Write tensors as concatenated little-endian float32 plus a sidecar
    listing name and shape per line (``<name> <dim> <dim> ...``)."""
    path = Path(path)
    tensors = weights.tensors()
    with open(path, "wb") as f:
        for arr in tensors.values():
            f.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    with open(path.with_suffix(path.suffix + ".meta"), "w") as f:
        for name, arr in tensors.items():
            f.write(name + " " + " ".join(str(d) for d in arr.shape) + "\n")


def load_weights(path) -> ModelWeights:
    """Read a weight file written by :func:`save_weights`.

    A sidecar that is not one line per known tensor with a positive shape
    of the right rank, a binary whose length differs from the sidecar's
    total, or tensors the heads reject raise a ``ValueError`` naming the
    file and, where there is one, the tensor.
    """
    path = Path(path)
    data = path.read_bytes()
    meta = path.with_suffix(path.suffix + ".meta")
    try:
        lines = meta.read_text().splitlines()
    except UnicodeDecodeError as e:
        raise ValueError(f"{meta}: not a text sidecar: {e}") from None
    shapes: dict[str, tuple[int, ...]] = {}
    for line in lines:
        if not line.strip():
            continue
        name, *dims = line.split()
        if name not in WEIGHT_TENSORS:
            raise ValueError(f"{meta}: unknown tensor {name}")
        if name in shapes:
            raise ValueError(f"{meta}: tensor {name} listed twice")
        try:
            shape = tuple(int(d) for d in dims)
        except ValueError:
            shape = ()
        if len(shape) != WEIGHT_TENSORS[name][2] or min(shape) < 1:
            raise ValueError(f"{meta}: tensor {name}: bad shape {' '.join(dims)!r}")
        shapes[name] = shape
    for name in WEIGHT_TENSORS:
        if name not in shapes:
            raise ValueError(f"{meta}: tensor {name} missing")

    raw = np.frombuffer(data, dtype="<f4", count=len(data) // 4)
    fields: dict[str, dict[str, np.ndarray]] = {"rpn": {}, "det": {}}
    offset = 0
    for name, shape in shapes.items():
        n = int(np.prod(shape))
        if offset + n > raw.size:
            raise ValueError(f"{path}: tensor {name} runs past the end ({raw.size} floats)")
        head, attr, _ = WEIGHT_TENSORS[name]
        fields[head][attr] = raw[offset : offset + n].astype(np.float64).reshape(shape)
        offset += n
    if 4 * offset != len(data):
        raise ValueError(f"{path}: {len(data) - 4 * offset} bytes after the last tensor {name}")
    try:
        return ModelWeights(rpn=RpnHead(**fields["rpn"]), det=DetectHead(**fields["det"]))
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def random_weights(seed: int, k: int = 9, bins: int = 7, scale: float = 0.05) -> ModelWeights:
    """Small random weights; useful for benchmarks and plumbing tests."""
    rng = np.random.default_rng(seed)
    d = RPN_DIM
    feat = bins * bins * NUM_CHANNELS
    return ModelWeights(
        rpn=RpnHead(
            conv_w=rng.normal(0, scale, (d, NUM_CHANNELS, 3, 3)),
            conv_b=rng.normal(0, scale, (d,)),
            score_w=rng.normal(0, scale, (2 * k, d)),
            score_b=rng.normal(0, scale, (2 * k,)),
            delta_w=rng.normal(0, scale * 0.1, (4 * k, d)),
            delta_b=rng.normal(0, scale * 0.1, (4 * k,)),
        ),
        det=DetectHead(
            cls_w=rng.normal(0, scale, (NUM_CLASSES, feat)),
            cls_b=rng.normal(0, scale, (NUM_CLASSES,)),
            reg_w=rng.normal(0, scale * 0.1, (4 * (NUM_CLASSES - 1), feat)),
            reg_b=rng.normal(0, scale * 0.1, (4 * (NUM_CLASSES - 1),)),
        ),
    )
