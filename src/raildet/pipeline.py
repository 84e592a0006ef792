"""End-to-end composition: single-image detection and the OHEM round.

``detect`` chains backbone -> RPN -> proposal -> per-ROI pooling -> one
batched classification pass -> per-class NMS.  The ROIs travel between the
stages as the arrays of a :class:`~raildet.proposal.Rois`.
``ohem_simulation`` runs the read-only mining pass over a dataset and
reports which ROIs came out hardest: it pools and scores all ROIs of an
image in one batched call each, then runs one ``ohem_round`` on them.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .anchors import AnchorConfig, tile
from .evaluation import CLASS_NAMES, Detection
from .geometry import (
    BBOX_XFORM_CLIP,
    BBox,
    BoxDelta,
    boxes_to_array,
    clip,
    decode,
    encode,
    iou_matrix,
)
from .model import (
    BACKBONE_STRIDES,
    IMAGE_HEIGHT,
    FeatureMap,
    ModelWeights,
    detect_forward,
    extract_features,
    roi_pool,
    roi_pool_batch,
    rpn_forward,
)
from .ohem import OhemConfig, RoiLoss, ohem_round
from .proposal import ProposalConfig, Rois, ScoredBox, nms, propose
from .voc import Annotation


# the most feature cells a ROI can span: the map height at the finest
# backbone stride; more bins than that only repeat cells
MAX_ROI_BINS = IMAGE_HEIGHT // min(BACKBONE_STRIDES)


class PipelineError(Exception):
    """A stage failure, annotated with the stage name."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage}: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass(frozen=True)
class PipelineConfig:
    """Every setting of the pipeline; the config file format is derived from
    these fields (see :mod:`raildet.config`)."""

    # the anchor stride is also the backbone's feature stride
    anchors: AnchorConfig = AnchorConfig()
    proposal: ProposalConfig = ProposalConfig()
    ohem: OhemConfig = OhemConfig()
    score_threshold: float = 0.5
    final_nms_iou: float = 0.3
    roi_bins: int = 7
    # RCNN-stage ROI foreground threshold (RPN thresholds do not apply here)
    roi_fg_iou: float = 0.5

    def __post_init__(self):
        if not (0.0 <= self.score_threshold < 1.0):
            raise ValueError(f"score_threshold must be in [0, 1), got {self.score_threshold}")
        if not (0.0 < self.final_nms_iou < 1.0):
            raise ValueError(f"final_nms_iou must be in (0, 1), got {self.final_nms_iou}")
        if not (0.0 < self.roi_fg_iou < 1.0):
            raise ValueError(f"roi_fg_iou must be in (0, 1), got {self.roi_fg_iou}")
        if not (1 <= self.roi_bins <= MAX_ROI_BINS):
            raise ValueError(f"roi_bins must be in [1, {MAX_ROI_BINS}], got {self.roi_bins}")
        if self.anchors.stride not in BACKBONE_STRIDES:
            raise ValueError(
                f"anchor stride must be one of {BACKBONE_STRIDES}, got {self.anchors.stride}"
            )


class _stage:
    """``with _stage(name):`` re-raises any failure inside as a
    :class:`PipelineError` tagged with the stage name."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        if isinstance(exc, Exception) and not isinstance(exc, PipelineError):
            raise PipelineError(self.name, exc) from exc
        return False


def _first_stage(
    image: np.ndarray, weights: ModelWeights, config: PipelineConfig
) -> tuple[FeatureMap, Rois]:
    """Backbone -> RPN -> anchors -> proposal: the feature map and the ROIs.

    Every layer is called through its name in this module, so a caller can
    wrap or replace it there.
    """
    with _stage("backbone"):
        fm = extract_features(image, config.anchors.stride)
    with _stage("rpn"):
        scores, deltas = rpn_forward(fm, weights.rpn)
    anchors = tile(config.anchors, fm.width, fm.height)
    with _stage("proposal"):
        rois = propose(anchors, scores, deltas, image.shape[1], image.shape[0], config.proposal)
    return fm, rois


def propose_rois(
    image: np.ndarray, weights: ModelWeights, config: PipelineConfig
) -> Rois:
    """Backbone + RPN + proposal stage for one preprocessed image."""
    return _first_stage(image, weights, config)[1]


def detect(
    image: np.ndarray, weights: ModelWeights, config: PipelineConfig = PipelineConfig()
) -> list[Detection]:
    """Detect fasteners in one preprocessed 800x1000 image.

    Each ROI is pooled on its own, then one ``detect_forward`` call scores
    them all.  Candidates come in ROI order, then class order, before the
    per-class NMS.
    """
    fm, rois = _first_stage(image, weights, config)

    bins = config.roi_bins
    pooled = np.empty((len(rois), bins, bins, fm.channels))
    with _stage("roi_pool"):
        boxes = [BBox(*box) for box in rois.boxes.tolist()]
        for i, box in enumerate(boxes):
            pooled[i] = roi_pool(fm, box, bins)
    img_w, img_h = image.shape[1], image.shape[0]
    candidates: list[Detection] = []
    with _stage("rcnn"):
        probs, cls_deltas = detect_forward(pooled, weights.det)
        # "not <=" keeps a NaN probability, which Detection then rejects
        above = np.nonzero(~(probs[:, 1:] <= config.score_threshold))
        for r, ci in zip(*(a.tolist() for a in above)):
            tx, ty, tw, th = cls_deltas[r, ci].tolist()
            delta = BoxDelta(tx, ty, min(tw, BBOX_XFORM_CLIP), min(th, BBOX_XFORM_CLIP))
            box = clip(decode(boxes[r], delta), img_w, img_h)
            if box.width <= 0 or box.height <= 0:
                continue
            score = float(probs[r, 1 + ci])
            candidates.append(Detection(class_name=CLASS_NAMES[ci], box=box, score=score))

    final: list[Detection] = []
    for cls in CLASS_NAMES:
        group = [d for d in candidates if d.class_name == cls]
        scored = [
            ScoredBox(box=d.box, score=min(d.score, 1.0), source_index=i)
            for i, d in enumerate(group)
        ]
        for idx in nms(scored, config.final_nms_iou):
            final.append(group[idx])
    final.sort(key=lambda d: -d.score)
    return final


@dataclass(frozen=True)
class OhemImageResult:
    selected: list[int]
    losses: list[RoiLoss]
    roi_classes: list[int]  # per-ROI target class index (0 = background)


@dataclass(frozen=True)
class OhemSimResult:
    per_image: list[OhemImageResult] = field(default_factory=list)

    def loss_by_class(self) -> dict[int, list[float]]:
        out: dict[int, list[float]] = {}
        for img in self.per_image:
            for loss, cls in zip(img.losses, img.roi_classes):
                out.setdefault(cls, []).append(loss.total)
        return out


def ohem_simulation(
    dataset: list[tuple[np.ndarray, Annotation]],
    weights: ModelWeights,
    config: PipelineConfig = PipelineConfig(),
) -> OhemSimResult:
    """Mining round per image: propose ROIs, target them against ground
    truth (foreground above the RCNN IOU threshold), score every ROI with a
    read-only forward pass and select the hardest batch.

    The ROIs of an image are pooled and classified in one batched call each,
    and one :func:`raildet.ohem.ohem_round` scores and selects them.
    """
    results = []
    for image, ann in dataset:
        fm, rois = _first_stage(image, weights, config)
        gt_boxes = [o.box for o in ann.objects]
        gt_classes = [1 + CLASS_NAMES.index(o.class_name) for o in ann.objects]
        roi_arr = rois.boxes

        targets: list[tuple[int, BoxDelta | None]] = [(0, None)] * len(rois)
        if gt_boxes:
            ious = iou_matrix(roi_arr, boxes_to_array(gt_boxes))
            best = ious.argmax(axis=1)
            for i in np.flatnonzero(ious[np.arange(len(rois)), best] > config.roi_fg_iou):
                g = best[i]
                targets[i] = (gt_classes[g], encode(BBox(*roi_arr[i].tolist()), gt_boxes[g]))

        with _stage("roi_pool"):
            pooled = roi_pool_batch(fm, roi_arr, config.roi_bins)
        with _stage("rcnn"):
            probs, cls_deltas = detect_forward(pooled, weights.det)
        # each ROI regresses with the deltas of its likeliest foreground class
        fg = np.argmax(probs[:, 1:], axis=1)
        selected, losses = ohem_round(
            probs, cls_deltas[np.arange(len(rois)), fg], targets, config.ohem
        )
        results.append(
            OhemImageResult(selected=selected, losses=losses, roi_classes=[t[0] for t in targets])
        )
    return OhemSimResult(per_image=results)
