"""Greedy NMS and the proposal stage turning scored anchors into ROIs.

The ROI budget (``post_nms_top``) defaults to 300; running the pipeline in
reduced mode with a budget of 50 trades a little recall for per-ROI work in
the second stage.

``propose`` returns the ROIs as the arrays of a :class:`Rois`.  It ranks
the anchors by score first and decodes only as far down that ranking as NMS
reads; the ROIs are those of decoding every anchor and ranking afterwards.

NMS walks the score-sorted boxes in blocks: each block is first checked
against every box already kept, then its survivors suppress each other
greedily.  The kept set is exactly that of one-box-at-a-time greedy NMS, and
no temporary is larger than block x block.  A block holds at most twice the
boxes still to keep, so a small budget builds small IOU matrices.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .geometry import BBOX_XFORM_CLIP, BBox, clip_array, decode_array, iou_matrix

NMS_BLOCK = 256
NMS_MIN_BLOCK = 64  # smallest block once few boxes are left to keep
DECODE_CHUNK = 4096  # anchors decoded at a time
FIRST_RANKS = 512  # boxes ranked for the first NMS pass
TIE_PROBE_STRIDE = 64  # anchors per sample when looking for a long score tie


@dataclass(frozen=True)
class ScoredBox:
    box: BBox
    score: float
    source_index: int

    def __post_init__(self):
        if not math.isfinite(self.score) or not (0.0 <= self.score <= 1.0):
            raise ValueError(f"score must be finite and in [0, 1]: {self.score}")


@dataclass(frozen=True, eq=False)
class Rois:
    """The ROIs of one image, best first, as arrays: ``boxes`` (R, 4) in
    (x_min, y_min, x_max, y_max) order, objectness ``scores`` (R,) and the
    index of the anchor each box was decoded from, ``anchor_indices`` (R,).

    Iterating yields one :class:`ScoredBox` per ROI, for the I/O edges that
    print them; the pipeline reads the arrays.
    """

    boxes: np.ndarray
    scores: np.ndarray
    anchor_indices: np.ndarray

    def __len__(self) -> int:
        return len(self.scores)

    def __iter__(self) -> Iterator[ScoredBox]:
        for box, score, i in zip(
            self.boxes.tolist(), self.scores.tolist(), self.anchor_indices.tolist()
        ):
            yield ScoredBox(box=BBox(*box), score=score, source_index=i)


@dataclass(frozen=True)
class ProposalConfig:
    pre_nms_top: int = 6000
    nms_iou_threshold: float = 0.7
    post_nms_top: int = 300
    min_box_size: float = 1.0

    def __post_init__(self):
        if self.pre_nms_top < 1 or self.post_nms_top < 1:
            raise ValueError("ROI budgets must be positive")
        if self.post_nms_top > self.pre_nms_top:
            raise ValueError("post_nms_top must not exceed pre_nms_top")
        if not (0.0 < self.nms_iou_threshold < 1.0):
            raise ValueError("nms_iou_threshold must be in (0, 1)")
        # a box clipped to zero width must fail the filter: propose drops
        # the anchors that surely clip so without decoding them
        if not (self.min_box_size > 0):
            raise ValueError(f"min_box_size must be positive, got {self.min_box_size}")


def nms(boxes: list[ScoredBox], iou_threshold: float) -> list[int]:
    """Greedy non-maximum suppression.

    Repeatedly keeps the highest-scoring remaining box and discards every
    remaining box overlapping it with IOU > ``iou_threshold``.  Score ties
    break toward the lower source_index.  Returns kept source indices in
    descending score order.
    """
    if len(boxes) < 2:  # a single box is always kept
        return [int(b.source_index) for b in boxes]
    arr = np.array([b.box.as_tuple() for b in boxes], dtype=np.float64)
    scores = np.array([b.score for b in boxes], dtype=np.float64)
    src = np.array([b.source_index for b in boxes], dtype=np.int64)
    order = np.lexsort((src, -scores))
    kept = _greedy_keep(arr[order], iou_threshold)
    return [int(src[order[i]]) for i in kept]


def _greedy_keep(
    sorted_boxes: np.ndarray, iou_threshold: float, max_keep: int | None = None
) -> list[int]:
    """Greedy keep-set over boxes already sorted by priority.

    Returns positions into ``sorted_boxes``.  Each block of up to
    ``NMS_BLOCK`` boxes first loses every box that an already kept box
    suppresses; a greedy pass over the IOU matrix of the survivors decides
    the rest.  A box is only ever suppressed by a kept box, and those are
    all in earlier blocks or among the survivors, so the keep set equals
    that of the one-box-at-a-time pass whatever the block sizes;
    ``iou_matrix`` computes the same float expression per pair as ``iou``
    and ``iou_pairs``, so it is bit-identical.  Early exit at ``max_keep``
    is safe because the greedy kept-set is prefix-stable.
    """
    n = sorted_boxes.shape[0]
    kept: list[int] = []
    start = 0
    while start < n:
        size = NMS_BLOCK
        if max_keep is not None:
            size = min(size, max(NMS_MIN_BLOCK, 2 * (max_keep - len(kept))))
        cand = np.arange(start, min(start + size, n))
        start += size
        for k0 in range(0, len(kept), NMS_BLOCK):
            ious = iou_matrix(sorted_boxes[kept[k0 : k0 + NMS_BLOCK]], sorted_boxes[cand])
            cand = cand[~(ious > iou_threshold).any(axis=0)]
        over = iou_matrix(sorted_boxes[cand], sorted_boxes[cand]) > iou_threshold
        # only a box that overlaps a later candidate can suppress one
        suppresses = np.triu(over, 1).any(axis=1).tolist()
        alive = np.ones(cand.size, dtype=bool)
        for j, c in enumerate(cand.tolist()):
            if not alive[j]:
                continue
            kept.append(c)
            if max_keep is not None and len(kept) >= max_keep:
                return kept
            if suppresses[j]:
                alive[j + 1 :] &= ~over[j, j + 1 :]
    return kept


def propose(
    anchors: np.ndarray,
    scores: np.ndarray,
    deltas: np.ndarray,
    image_w: float,
    image_h: float,
    config: ProposalConfig = ProposalConfig(),
) -> Rois:
    """Rank, decode, clip, filter and NMS anchors into the image's ROIs.

    ``scores`` is (N,) objectness, ``deltas`` is (N, 4) in (tx, ty, tw, th)
    order, both aligned with the (N, 4) ``anchors`` of :func:`anchors.tile`.
    Boxes are decoded only as far down the score ranking as NMS reads (see
    :class:`_Walk`), but a delta or an anchor that cannot be decoded is an
    error wherever it ranks.
    """
    scores = np.asarray(scores, dtype=np.float64)
    deltas = np.asarray(deltas, dtype=np.float64)
    n = len(anchors)
    if scores.shape != (n,) or deltas.shape != (n, 4):
        raise ValueError(
            f"scores/deltas must match anchor count {n}: "
            f"got {scores.shape} and {deltas.shape}"
        )
    if not np.all(np.isfinite(scores)):
        raise ValueError("non-finite objectness score")

    # Greedy NMS is prefix-stable, so it first runs over the best
    # FIRST_RANKS boxes only, and over the full pre_nms_top ranking only
    # when those run out before the budget is met.
    walk = _Walk(anchors, deltas, -scores, image_w, image_h, config.min_box_size)
    first = min(FIRST_RANKS, config.pre_nms_top)
    order, boxes = walk.top(first)
    kept = _greedy_keep(boxes, config.nms_iou_threshold, max_keep=config.post_nms_top)
    if len(kept) < config.post_nms_top and len(order) == first < config.pre_nms_top:
        order, boxes = walk.top(config.pre_nms_top)
        if len(order) > first:
            kept = _greedy_keep(boxes, config.nms_iou_threshold, max_keep=config.post_nms_top)

    sel = order[kept]
    picked = scores[sel]
    if not np.all((picked >= 0.0) & (picked <= 1.0)):
        raise ValueError("objectness score outside [0, 1]")
    return Rois(boxes=boxes[kept], scores=picked, anchor_indices=sel)


class _Walk:
    """The boxes that pass the min-size filter, in (-score, anchor index)
    order, decoded only as deep into that ranking as :meth:`top` asks.

    The filter is per box and the order is total, so the first k survivors
    are those of a full decode ranked afterwards.  Each window of the
    ranking ends at the k-th smallest ``neg`` and holds every anchor below
    that value plus the lowest-indexed ones tied with it.  When a window
    ends inside a run of ties longer than itself, or would reach past half
    of the anchors, ranking it would cost more than decoding everything:
    the walk then decodes every anchor in index order, less those that
    surely clip to an empty box (:func:`_maybe_nonempty`), and ranks the
    survivors with :func:`_rank`.
    """

    def __init__(self, anchors, deltas, neg, image_w, image_h, min_size):
        self.anchors, self.deltas, self.neg = anchors, deltas, neg
        self.canvas = (image_w, image_h)
        self.min_size = min_size
        self.sorted = None  # neg, sorted once a window needs its k-th value
        self.depth = 0  # ranks decoded so far
        self.idx = np.empty(0, dtype=np.intp)  # survivors, ranked
        self.boxes = np.empty((0, 4))
        self.everything = False  # every anchor decoded, in index order

    def top(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Anchor indices and boxes of the best ``count`` survivors."""
        n = len(self.neg)
        while not self.everything and len(self.idx) < count and self.depth < n:
            end = min(n, max(count, 2 * self.depth))
            last = self._last(end)
            if last is None:
                if self.depth == 0:
                    _check_decodable_in_chunks(self.anchors, self.deltas)
                maybe = _maybe_nonempty(self.anchors, self.deltas, *self.canvas)
                boxes = _decode_clip(self.anchors[maybe], self.deltas[maybe], *self.canvas)
                keep = _passes(boxes, self.min_size)
                self.idx = maybe[keep]
                self.boxes = boxes[keep]
                self.everything = True
                break
            if self.depth == 0:  # the decode errors of the anchors never reached
                _check_decodable(self.anchors, self.deltas)
            near = np.flatnonzero(self.neg <= last)
            ranks = near[np.argsort(self.neg[near], kind="stable")[self.depth : end]]
            boxes = _decode_clip(self.anchors[ranks], self.deltas[ranks], *self.canvas)
            keep = _passes(boxes, self.min_size)
            self.idx = np.concatenate((self.idx, ranks[keep]))
            self.boxes = np.concatenate((self.boxes, boxes[keep]))
            self.depth = end
        if self.everything:
            pos = _rank(np.arange(len(self.idx)), self.neg[self.idx], count)
            return self.idx[pos], self.boxes[pos]
        return self.idx[:count], self.boxes[:count]

    def _last(self, end: int) -> float | None:
        """The ``end``-th smallest ``neg``, or None where the walk stops."""
        n = len(self.neg)
        if 2 * end > n:
            return None
        if self.sorted is None:
            # A sparse head gives most anchors one background score, and
            # the median of a strided sample lands in that run.  Whether a
            # window ends inside it takes two counts instead of a sort.
            sample = np.sort(self.neg[::TIE_PROBE_STRIDE])
            probe = sample[len(sample) // 2]
            below = np.count_nonzero(self.neg < probe)
            if below < end and np.count_nonzero(self.neg == probe) > end:
                return None
            self.sorted = np.sort(self.neg)
        last = self.sorted[end - 1]
        ties = np.searchsorted(self.sorted, last, "right") - np.searchsorted(
            self.sorted, last, "left"
        )
        return None if ties > end else last


def _decode_clip(anchors, deltas, image_w, image_h) -> np.ndarray:
    """Decode with tw/th clamped so that a huge predicted scale cannot
    overflow exp, then clip.  Decode is per box, so chunks of DECODE_CHUNK
    rows keep its temporaries small."""
    boxes = np.empty((len(anchors), 4))
    for start in range(0, len(anchors), DECODE_CHUNK):
        rows = slice(start, start + DECODE_CHUNK)
        decode_array(anchors[rows], deltas[rows], out=boxes[rows],
                     max_log_scale=BBOX_XFORM_CLIP)
    return clip_array(boxes, image_w, image_h, out=boxes)


def _passes(boxes: np.ndarray, min_size: float) -> np.ndarray:
    return (boxes[:, 2] - boxes[:, 0] >= min_size) & (boxes[:, 3] - boxes[:, 1] >= min_size)


def _check_decodable(anchors: np.ndarray, deltas: np.ndarray) -> None:
    """``decode_array``'s errors for every anchor, clamped tw/th included."""
    if np.any(anchors[:, 2] - anchors[:, 0] <= 0) or np.any(anchors[:, 3] - anchors[:, 1] <= 0):
        raise ValueError("degenerate anchor")
    # +inf tw/th is clamped to BBOX_XFORM_CLIP; NaN fails both tests
    if not np.isfinite(deltas).all() and not (
        np.isfinite(deltas[:, :2]).all() and (deltas[:, 2:] > -np.inf).all()
    ):
        raise ValueError("non-finite delta")


def _check_decodable_in_chunks(anchors: np.ndarray, deltas: np.ndarray) -> None:
    """:func:`_check_decodable`, raising the error that decoding every
    anchor DECODE_CHUNK rows at a time raises first."""
    try:
        _check_decodable(anchors, deltas)
    except ValueError:
        for start in range(0, len(anchors), DECODE_CHUNK):
            rows = slice(start, start + DECODE_CHUNK)
            _check_decodable(anchors[rows], deltas[rows])
        raise


# The widest half-size of a decoded box over its anchor size, with tw/th
# clamped to BBOX_XFORM_CLIP: 1e-9 covers the rounding of exp and of the
# products, 1e-6 more and SURELY_EMPTY_PX that of the centre's comparison.
HALF_REACH = 0.5 * math.exp(BBOX_XFORM_CLIP) * (1 + 1e-9) * (1 + 1e-6)
SURELY_EMPTY_PX = 1e-3


def _maybe_nonempty(anchors, deltas, image_w, image_h) -> np.ndarray:
    """Indices, ascending, of the anchors whose decoded and clipped box may
    have a positive width and height.

    A box whose centre lies beyond a canvas edge by more than its widest
    half-size has both corners past that edge, so the clip maps them to the
    same value: the box is empty on that axis and fails any positive
    ``min_box_size``.  The centre is ``decode_array``'s own float
    expression.  The oracle shoves its boxes off along y, so x is tested
    only on the anchors y leaves.
    """
    anchors = np.asarray(anchors, dtype=np.float64)
    maybe = np.flatnonzero(~_beyond_canvas(anchors, deltas, 1, image_h))
    return maybe[~_beyond_canvas(anchors[maybe], deltas[maybe], 0, image_w)]


def _beyond_canvas(anchors, deltas, k, limit) -> np.ndarray:
    """Rows whose box lies wholly outside [0, ``limit``] on axis ``k``
    (0: x, 1: y), by more than the rounding of the test.  NaN is never
    beyond."""
    size = anchors[:, k + 2] - anchors[:, k]
    center = anchors[:, k] + anchors[:, k + 2]
    center *= 0.5
    center += size * deltas[:, k]
    size *= HALF_REACH
    size += SURELY_EMPTY_PX
    return (center - limit > size) | (-center > size)


def _rank(idx: np.ndarray, neg: np.ndarray, top: int) -> np.ndarray:
    """The ``top`` entries of ``idx`` by ascending ``neg``, ties by position.

    Only the best ``top`` need a full sort: a partition comes first, keeping
    every entry tied with the last one.
    """
    if idx.size > top:
        near = np.nonzero(neg <= np.partition(neg, top - 1)[top - 1])[0]
        idx, neg = idx[near], neg[near]
    return idx[np.argsort(neg, kind="stable")][:top]
