"""Detection/ground-truth matching and precision/recall reporting.

Matching follows the VOC convention: per class, detections in descending
score order greedily claim the best still-unmatched ground truth whose IOU
exceeds the threshold (0.75 here).  Each ground truth matches at most once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .geometry import BBox, iou

CLASS_NAMES = ("V", "W300-1", "WJ-7", "WJ-8")


@dataclass(frozen=True)
class Detection:
    class_name: str
    box: BBox
    score: float

    def __post_init__(self):
        if self.class_name not in CLASS_NAMES:
            raise ValueError(f"unknown class name: {self.class_name!r}")
        if not math.isfinite(self.score):
            raise ValueError("score must be finite")


@dataclass(frozen=True)
class GroundTruthObject:
    class_name: str
    box: BBox

    def __post_init__(self):
        if self.class_name not in CLASS_NAMES:
            raise ValueError(f"unknown class name: {self.class_name!r}")


@dataclass(frozen=True)
class EvalConfig:
    iou_threshold: float = 0.75

    def __post_init__(self):
        if not (0.0 < self.iou_threshold < 1.0):
            raise ValueError("iou_threshold must be in (0, 1)")


@dataclass(frozen=True)
class MatchResult:
    """Match outcome for one image: per-detection TP flags (aligned with the
    input order) and per-gt matched flags."""

    det_is_tp: list[bool]
    gt_matched: list[bool]


@dataclass
class ClassCounts:
    true_positive: int = 0
    false_positive: int = 0
    false_negative: int = 0

    @property
    def precision(self) -> float:
        d = self.true_positive + self.false_positive
        return 1.0 if d == 0 else self.true_positive / d

    @property
    def recall(self) -> float:
        d = self.true_positive + self.false_negative
        return 1.0 if d == 0 else self.true_positive / d


@dataclass
class EvalReport:
    per_class: dict[str, ClassCounts] = field(
        default_factory=lambda: {c: ClassCounts() for c in CLASS_NAMES}
    )

    @property
    def mean_precision(self) -> float:
        return sum(self.per_class[c].precision for c in CLASS_NAMES) / len(CLASS_NAMES)

    @property
    def mean_recall(self) -> float:
        return sum(self.per_class[c].recall for c in CLASS_NAMES) / len(CLASS_NAMES)

    def rows(self) -> list[tuple[str, float, float]]:
        """Report rows in fixed order: the four classes, then the mean."""
        out = [(c, self.per_class[c].precision, self.per_class[c].recall) for c in CLASS_NAMES]
        out.append(("mean", self.mean_precision, self.mean_recall))
        return out

    def to_text(self) -> str:
        lines = [f"{'Category':<10}{'Precision':>12}{'Recall':>12}"]
        for name, p, r in self.rows():
            lines.append(f"{name:<10}{p * 100:>11.2f}%{r * 100:>11.2f}%")
        return "\n".join(lines)

    def to_csv(self) -> str:
        lines = ["category,precision,recall"]
        for name, p, r in self.rows():
            lines.append(f"{name},{p:.6f},{r:.6f}")
        return "\n".join(lines) + "\n"


def match(
    dets: list[Detection],
    gts: list[GroundTruthObject],
    config: EvalConfig = EvalConfig(),
) -> MatchResult:
    """Greedily match one image's detections against its ground truth.

    A detection is a true positive when its IOU with some not-yet-matched
    same-class gt strictly exceeds the threshold; it takes the highest-IOU
    such gt (ties toward the lowest gt index).
    """
    det_is_tp = [False] * len(dets)
    gt_matched = [False] * len(gts)

    for cls in CLASS_NAMES:
        det_idx = [i for i, d in enumerate(dets) if d.class_name == cls]
        det_idx.sort(key=lambda i: (-dets[i].score, i))
        gt_idx = [j for j, g in enumerate(gts) if g.class_name == cls]
        for i in det_idx:
            best_j, best_iou = None, config.iou_threshold
            for j in gt_idx:
                if gt_matched[j]:
                    continue
                v = iou(dets[i].box, gts[j].box)
                if v > best_iou:
                    best_j, best_iou = j, v
            if best_j is not None:
                det_is_tp[i] = True
                gt_matched[best_j] = True
    return MatchResult(det_is_tp=det_is_tp, gt_matched=gt_matched)


def report(
    matches: list[tuple[list[Detection], list[GroundTruthObject], MatchResult]]
) -> EvalReport:
    """Aggregate per-image match results into per-class counts and means."""
    rep = EvalReport()
    for dets, gts, m in matches:
        for d, tp in zip(dets, m.det_is_tp):
            c = rep.per_class[d.class_name]
            if tp:
                c.true_positive += 1
            else:
                c.false_positive += 1
        for g, matched in zip(gts, m.gt_matched):
            if not matched:
                rep.per_class[g.class_name].false_negative += 1
    return rep


def evaluate(
    per_image: list[tuple[list[Detection], list[GroundTruthObject]]],
    config: EvalConfig = EvalConfig(),
) -> EvalReport:
    """Convenience wrapper: match every image, then aggregate."""
    return report([(d, g, match(d, g, config)) for d, g in per_image])
