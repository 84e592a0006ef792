"""Online hard example mining: per-ROI losses and top-B selection.

The mining pass is read-only: losses for every ROI come from a forward
evaluation that must not touch any model state; only the selected subset
would feed a training pass (weight updates themselves are outside this
artifact).

``roi_loss`` and ``ohem_round`` score one ROI at a time and are the
reference; ``roi_losses`` scores all ROIs of an image from their stacked
probabilities and deltas with the same result, and is what
``pipeline.ohem_simulation`` uses.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .geometry import BoxDelta

# -ln(p) is clamped here so an exactly-zero probability cannot produce an
# infinite loss and break sorting.
MAX_CLS_LOSS = 50.0


@dataclass(frozen=True)
class OhemConfig:
    batch_size: int = 256
    reg_loss_weight: float = 1.0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.reg_loss_weight < 0:
            raise ValueError("reg_loss_weight must be non-negative")


@dataclass(frozen=True)
class RoiLoss:
    roi_index: int
    cls_loss: float
    reg_loss: float
    total: float


def smooth_l1(x: float) -> float:
    ax = abs(x)
    return 0.5 * x * x if ax < 1.0 else ax - 0.5


def roi_loss(
    class_probs: Sequence[float],
    target_class: int,
    pred_delta: BoxDelta,
    target_delta: BoxDelta | None,
    config: OhemConfig = OhemConfig(),
    roi_index: int = 0,
) -> RoiLoss:
    """Multi-task loss of one ROI: cross-entropy plus smooth-L1 regression.

    ``target_class`` 0 is background; background ROIs carry no regression
    target and contribute no regression loss.
    """
    probs = np.asarray(class_probs, dtype=np.float64)
    if probs.ndim != 1 or not np.all(np.isfinite(probs)) or np.any(probs < 0):
        raise ValueError("invalid probability vector")
    if abs(float(probs.sum()) - 1.0) > 1e-6:
        raise ValueError(f"probabilities sum to {probs.sum()}, not 1")
    if not (0 <= target_class < probs.size):
        raise ValueError(f"target class {target_class} out of range")
    foreground = target_class != 0
    if foreground != (target_delta is not None):
        raise ValueError("target_delta must be present exactly for foreground ROIs")

    p = float(probs[target_class])
    cls = MAX_CLS_LOSS if p <= 0.0 else min(-math.log(p), MAX_CLS_LOSS)
    reg = 0.0
    if target_delta is not None:
        reg = sum(
            smooth_l1(a - b)
            for a, b in zip(pred_delta.as_tuple(), target_delta.as_tuple())
        )
    return RoiLoss(
        roi_index=roi_index,
        cls_loss=cls,
        reg_loss=reg,
        total=cls + config.reg_loss_weight * reg,
    )


def roi_losses(
    class_probs: np.ndarray,
    pred_deltas: np.ndarray,
    targets: Sequence[tuple[int, BoxDelta | None]],
    config: OhemConfig = OhemConfig(),
) -> list[RoiLoss]:
    """:func:`roi_loss` of R ROIs at once, equal to it row by row.

    Row ``i`` of ``class_probs`` (R, K) and ``pred_deltas`` (R, 4) is scored
    against ``targets[i] = (target_class, target_delta)``.  The checks are
    ``roi_loss``'s over whole arrays, and a non-finite predicted delta is
    rejected as ``BoxDelta`` rejects it.  Cross-entropy uses ``math.log`` and
    the smooth-L1 terms are added in tx, ty, tw, th order, as in ``roi_loss``.
    """
    probs = np.asarray(class_probs, dtype=np.float64)
    pred = np.asarray(pred_deltas, dtype=np.float64)
    n = len(targets)
    if probs.ndim != 2 or probs.shape[0] != n or pred.shape != (n, 4):
        raise ValueError(
            f"{n} targets need (R, K) probabilities and (R, 4) deltas, "
            f"got {probs.shape} and {pred.shape}"
        )
    if not np.all(np.isfinite(probs)) or np.any(probs < 0):
        raise ValueError("invalid probability vector")
    if not np.all(np.isfinite(pred)):
        raise ValueError("non-finite predicted delta")
    sums = probs.sum(axis=1)
    off = np.flatnonzero(np.abs(sums - 1.0) > 1e-6)
    if off.size:
        raise ValueError(f"probabilities sum to {sums[off[0]]}, not 1")
    classes = np.array([t[0] for t in targets], dtype=np.intp)
    out_of_range = np.flatnonzero((classes < 0) | (classes >= probs.shape[1]))
    if out_of_range.size:
        raise ValueError(f"target class {classes[out_of_range[0]]} out of range")
    foreground = np.flatnonzero(classes != 0)
    if [i for i, (_, d) in enumerate(targets) if d is not None] != foreground.tolist():
        raise ValueError("target_delta must be present exactly for foreground ROIs")

    cls = [
        MAX_CLS_LOSS if p <= 0.0 else min(-math.log(p), MAX_CLS_LOSS)
        for p in probs[np.arange(n), classes].tolist()
    ]
    reg = np.zeros(n)
    if foreground.size:
        x = pred[foreground] - [targets[i][1].as_tuple() for i in foreground]
        ax = np.abs(x)
        terms = np.where(ax < 1.0, 0.5 * x * x, ax - 0.5)
        reg[foreground] = terms[:, 0] + terms[:, 1] + terms[:, 2] + terms[:, 3]
    total = cls + config.reg_loss_weight * reg
    return [
        RoiLoss(roi_index=i, cls_loss=c, reg_loss=r, total=t)
        for i, (c, r, t) in enumerate(zip(cls, reg.tolist(), total.tolist()))
    ]


def select_hard(losses: Sequence[RoiLoss], config: OhemConfig = OhemConfig()) -> list[int]:
    """Indices of the B largest total losses, descending, ties by lower index.

    Equals the first B entries of a full stable descending sort; with fewer
    than B records, everything is returned (still sorted).
    """
    ranked = sorted(losses, key=lambda r: (-r.total, r.roi_index))
    return [r.roi_index for r in ranked[: config.batch_size]]


ForwardFn = Callable[[object], tuple[Sequence[float], BoxDelta]]


def ohem_round(
    rois: Sequence[object],
    forward_fn: ForwardFn,
    targets: Sequence[tuple[int, BoxDelta | None]],
    config: OhemConfig = OhemConfig(),
) -> tuple[list[int], list[RoiLoss]]:
    """One read-only mining round: score every ROI, pick the hardest B.

    ``forward_fn(roi)`` must be a deterministic evaluation returning
    ``(class_probs, pred_delta)`` without mutating model state; ``targets``
    pairs each ROI with ``(target_class, target_delta)``.
    """
    if len(rois) != len(targets):
        raise ValueError("rois and targets must align")
    losses = []
    for i, (roi, (tcls, tdelta)) in enumerate(zip(rois, targets)):
        probs, pred = forward_fn(roi)
        losses.append(roi_loss(probs, tcls, pred, tdelta, config, roi_index=i))
    return select_hard(losses, config), losses


def write_roi_losses(path, losses: Sequence[RoiLoss]) -> None:
    """Dump loss records as diagnostic CSV."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["roi_index", "cls_loss", "reg_loss", "total"])
        for r in losses:
            w.writerow([r.roi_index, f"{r.cls_loss:.6f}", f"{r.reg_loss:.6f}", f"{r.total:.6f}"])
