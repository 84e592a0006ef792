"""Deterministic forward-pass geometry for the detection pipeline.

A tiny fixed backbone stands in for the real feature extractor (pretrained
backbones and training are out of scope): a filter bank of intensity
thresholds and within-cell position moments, average-pooled down to the
stage stride.  What matters downstream is preserved -- stride, channel
count, determinism, and non-trivial responses on the synthetic fastener
shapes.

Strides: stage 4 pools at 16 px/cell; stage 5 pools at 32 unless it is
configured without down-sampling, in which case it keeps the stage-4 stride
so the feature map size is unchanged.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

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

NUM_CLASSES = 5  # background + the four fastener categories


class AttachStage(enum.Enum):
    STAGE4 = "stage4"
    STAGE5 = "stage5"


@dataclass(frozen=True)
class BackboneSpec:
    attach_stage: AttachStage = AttachStage.STAGE5
    stage5_downsample: bool = False
    channels: int = NUM_CHANNELS

    def __post_init__(self):
        if self.channels != NUM_CHANNELS:
            raise ValueError(f"toy backbone always emits {NUM_CHANNELS} channels")

    @property
    def stride(self) -> int:
        if self.attach_stage is AttachStage.STAGE4:
            return 16
        return 32 if self.stage5_downsample else 16


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


def extract_features(image: np.ndarray, spec: BackboneSpec = BackboneSpec()) -> FeatureMap:
    """Run the fixed filter bank and average-pool to the stage stride.

    ``image`` is a (1000, 800) grayscale array; anything else is rejected
    because the pipeline assumes preprocessed input.  A uint8 image stays
    uint8 (its cell sums are exact integers); any other dtype is converted
    to float64.  Both give the same bits for the same pixel values.
    """
    image = np.asarray(image)
    if image.dtype != np.uint8:
        image = image.astype(np.float64, copy=False)
    if image.shape != (IMAGE_HEIGHT, IMAGE_WIDTH):
        raise ValueError(
            f"backbone expects preprocessed 800x1000 input, got {image.shape[::-1]}"
        )
    s = spec.stride
    h_cells = IMAGE_HEIGHT // s
    w_cells = IMAGE_WIDTH // s
    cropped = image[: h_cells * s, : w_cells * s]
    cells = cropped.reshape(h_cells, s, w_cells, s)
    cell_area = s * s

    chans = np.empty((NUM_CHANNELS, h_cells, w_cells), dtype=np.float64)
    if image.dtype == np.uint8:
        # exact integer cell sums (at most 32 * 32 * 255), so the float
        # division below gives the bits of the float64 mean
        lum = cells.sum(axis=1, dtype=np.uint16).sum(axis=2, dtype=np.uint32)
    else:
        lum = cells.sum(axis=(1, 3))
    chans[CHAN_LUM] = lum / cell_area / 255.0
    # Occupancy channels are cell means of 0/1 planes and the moments cell
    # means of 0/1 times multiples of 1/(2s).  Every partial sum is exact in
    # float64, so integer counts divided by the cell area give the same bits
    # as the float means, at a fraction of the memory traffic.
    pos = (np.arange(s) + 0.5 - 0.5 * s) / s  # within-cell position, in strides
    for c, t in zip(CHAN_OCC, INTENSITY_THRESHOLDS):
        occ = (cells > t).view(np.uint8)
        per_col = occ.sum(axis=1, dtype=np.uint16)  # (h_cells, w_cells, s)
        chans[c] = per_col.sum(axis=2) / cell_area
        if c == CHAN_OCC[0]:
            per_row = occ.sum(axis=3, dtype=np.uint16)  # (h_cells, s, w_cells)
            chans[CHAN_XMOM] = (per_col @ pos) / cell_area
            chans[CHAN_YMOM] = np.einsum("hsw,s->hw", per_row, pos) / cell_area
    return FeatureMap(data=chans, stride=s)


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


def rpn_forward(
    fm: FeatureMap, head: RpnHead, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-anchor objectness and deltas over the whole feature map.

    Returns ``scores`` of shape (H*W*k,) -- softmax foreground probability
    per anchor -- and ``deltas`` of shape (H*W*k, 4), both in the same
    row-major-cells-then-anchor order the anchor grid uses.
    """
    if head.k != k:
        raise ValueError(f"head built for k={head.k}, requested k={k}")
    if fm.channels != head.conv_w.shape[1]:
        raise ValueError("feature channels do not match the head")
    # in place: each (D, H, W) temporary is a fresh multi-megabyte mapping
    inter = conv2d_3x3(fm.data, head.conv_w, head.conv_b)
    np.maximum(inter, 0.0, out=inter)
    h, w = fm.height, fm.width
    flat = inter.reshape(head.intermediate_dim, -1)

    logits = (head.score_w @ flat + head.score_b[:, None]).reshape(k, 2, h, w)
    # stable softmax over the (background, foreground) pair
    m = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - m)
    fg = e[:, 1] / e.sum(axis=1)
    scores = fg.transpose(1, 2, 0).reshape(-1)

    deltas = (head.delta_w @ flat + head.delta_b[:, None]).reshape(k, 4, h, w)
    deltas = deltas.transpose(2, 3, 0, 1).reshape(-1, 4)
    return scores, deltas


def roi_pool(fm: FeatureMap, roi: BBox, bins: int = 7) -> np.ndarray:
    """Max-pool a ROI into a (bins, bins, C) grid.

    The ROI is given in image coordinates and projected onto the feature
    map by dividing by the stride.  A bin that covers no whole cell falls
    back to the single nearest cell.
    """
    s = float(fm.stride)
    x0, y0 = roi.x_min / s, roi.y_min / s
    x1, y1 = roi.x_max / s, roi.y_max / s
    if x1 <= 0 or y1 <= 0 or x0 >= fm.width or y0 >= fm.height:
        raise ValueError("roi lies entirely outside the feature map")
    if x1 <= x0 or y1 <= y0:
        raise ValueError("roi must have positive area in feature coordinates")

    out = np.empty((bins, bins, fm.channels), dtype=np.float64)
    bw = (x1 - x0) / bins
    bh = (y1 - y0) / bins
    for p in range(bins):
        r0 = int(np.floor(y0 + p * bh))
        r1 = int(np.ceil(y0 + (p + 1) * bh))
        rows = _clamp_range(r0, r1, fm.height, y0 + (p + 0.5) * bh)
        for q in range(bins):
            c0 = int(np.floor(x0 + q * bw))
            c1 = int(np.ceil(x0 + (q + 1) * bw))
            cols = _clamp_range(c0, c1, fm.width, x0 + (q + 0.5) * bw)
            out[p, q] = fm.data[:, rows[0] : rows[1], cols[0] : cols[1]].max(axis=(1, 2))
    return out


def _clamp_range(lo: int, hi: int, size: int, center: float) -> tuple[int, int]:
    lo = max(lo, 0)
    hi = min(hi, size)
    if hi <= lo:
        # empty bin: take the single nearest cell
        nearest = int(np.clip(np.floor(center), 0, size - 1))
        return nearest, nearest + 1
    return lo, hi


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
            raise ValueError("classification head must cover 5 classes")
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

@dataclass(frozen=True)
class ModelWeights:
    rpn: RpnHead
    det: DetectHead

    def tensors(self) -> dict[str, np.ndarray]:
        return {
            "rpn.conv.weight": self.rpn.conv_w,
            "rpn.conv.bias": self.rpn.conv_b,
            "rpn.score.weight": self.rpn.score_w,
            "rpn.score.bias": self.rpn.score_b,
            "rpn.delta.weight": self.rpn.delta_w,
            "rpn.delta.bias": self.rpn.delta_b,
            "det.cls.weight": self.det.cls_w,
            "det.cls.bias": self.det.cls_b,
            "det.reg.weight": self.det.reg_w,
            "det.reg.bias": self.det.reg_b,
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
    path = Path(path)
    meta = path.with_suffix(path.suffix + ".meta")
    shapes: list[tuple[str, tuple[int, ...]]] = []
    for line in meta.read_text().splitlines():
        if not line.strip():
            continue
        parts = line.split()
        shapes.append((parts[0], tuple(int(d) for d in parts[1:])))
    raw = np.fromfile(path, dtype="<f4")
    tensors: dict[str, np.ndarray] = {}
    offset = 0
    for name, shape in shapes:
        n = int(np.prod(shape)) if shape else 1
        tensors[name] = raw[offset : offset + n].astype(np.float64).reshape(shape)
        offset += n
    if offset != raw.size:
        raise ValueError(f"weight file length mismatch: {raw.size} floats, expected {offset}")
    return ModelWeights(
        rpn=RpnHead(
            conv_w=tensors["rpn.conv.weight"],
            conv_b=tensors["rpn.conv.bias"],
            score_w=tensors["rpn.score.weight"],
            score_b=tensors["rpn.score.bias"],
            delta_w=tensors["rpn.delta.weight"],
            delta_b=tensors["rpn.delta.bias"],
        ),
        det=DetectHead(
            cls_w=tensors["det.cls.weight"],
            cls_b=tensors["det.cls.bias"],
            reg_w=tensors["det.reg.weight"],
            reg_b=tensors["det.reg.bias"],
        ),
    )


def random_weights(
    seed: int, k: int = 9, bins: int = 7, intermediate_dim: int = 256, scale: float = 0.05
) -> ModelWeights:
    """Small random weights; useful for benchmarks and plumbing tests."""
    rng = np.random.default_rng(seed)
    d = intermediate_dim
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
