"""Greedy NMS and the proposal stage turning scored anchors into ROIs.

The ROI budget (``post_nms_top``) defaults to 300; running the pipeline in
reduced mode with a budget of 50 trades a little recall for per-ROI work in
the second stage.

NMS walks the score-sorted boxes in blocks: each block is first checked
against every box already kept, then its survivors suppress each other
greedily.  The kept set is exactly that of one-box-at-a-time greedy NMS, and
no temporary is larger than block x block.  A block holds at most twice the
boxes still to keep, so a small budget builds small IOU matrices.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import BBOX_XFORM_CLIP, BBox, clip_array, decode_array, iou_matrix

NMS_BLOCK = 256
NMS_MIN_BLOCK = 64  # smallest block once few boxes are left to keep
DECODE_CHUNK = 4096  # anchors decoded at a time
FIRST_RANKS = 512  # boxes ranked for the first NMS pass


@dataclass(frozen=True)
class ScoredBox:
    box: BBox
    score: float
    source_index: int

    def __post_init__(self):
        if not math.isfinite(self.score) or not (0.0 <= self.score <= 1.0):
            raise ValueError(f"score must be finite and in [0, 1]: {self.score}")


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


def nms(boxes: list[ScoredBox], iou_threshold: float) -> list[int]:
    """Greedy non-maximum suppression.

    Repeatedly keeps the highest-scoring remaining box and discards every
    remaining box overlapping it with IOU > ``iou_threshold``.  Score ties
    break toward the lower source_index.  Returns kept source indices in
    descending score order.
    """
    if not boxes:
        return []
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
) -> list[ScoredBox]:
    """Decode, clip, filter and NMS anchors into a ranked ROI list.

    ``scores`` is (N,) objectness, ``deltas`` is (N, 4) in (tx, ty, tw, th)
    order, both aligned with the (N, 4) ``anchors`` of :func:`anchors.tile`.
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

    # tw/th are clamped so that a huge predicted scale cannot overflow exp.
    # Decode is per box, so chunks keep its temporaries small.
    boxes = np.empty((n, 4))
    for start in range(0, n, DECODE_CHUNK):
        rows = slice(start, start + DECODE_CHUNK)
        decode_array(anchors[rows], deltas[rows], out=boxes[rows],
                     max_log_scale=BBOX_XFORM_CLIP)
    clip_array(boxes, image_w, image_h, out=boxes)
    widths = boxes[:, 2] - boxes[:, 0]
    heights = boxes[:, 3] - boxes[:, 1]
    keep = (widths >= config.min_box_size) & (heights >= config.min_box_size)
    idx = np.nonzero(keep)[0]
    if idx.size == 0:
        return []

    # Rank by score, ties by anchor index.  Greedy NMS is prefix-stable, so
    # it first runs over the best FIRST_RANKS boxes only, and over the full
    # pre_nms_top ranking only when those run out before the budget is met.
    neg = -scores[idx]
    order = _rank(idx, neg, min(FIRST_RANKS, config.pre_nms_top))
    kept = _greedy_keep(boxes[order], config.nms_iou_threshold, max_keep=config.post_nms_top)
    if len(kept) < config.post_nms_top and order.size < min(idx.size, config.pre_nms_top):
        order = _rank(idx, neg, config.pre_nms_top)
        kept = _greedy_keep(boxes[order], config.nms_iou_threshold, max_keep=config.post_nms_top)

    sel = order[kept]
    return [
        ScoredBox(box=BBox(*box), score=score, source_index=i)
        for box, score, i in zip(boxes[sel].tolist(), scores[sel].tolist(), sel.tolist())
    ]


def _rank(idx: np.ndarray, neg: np.ndarray, top: int) -> np.ndarray:
    """The ``top`` entries of ``idx`` by ascending ``neg``, ties by position.

    Only the best ``top`` need a full sort: a partition comes first, keeping
    every entry tied with the last one.
    """
    if idx.size > top:
        near = np.nonzero(neg <= np.partition(neg, top - 1)[top - 1])[0]
        idx, neg = idx[near], neg[near]
    return idx[np.argsort(neg, kind="stable")][:top]
