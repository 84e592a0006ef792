"""Online hard example mining: the multi-task ROI loss and top-B selection.

The mining pass is read-only: losses for every ROI come from a forward
evaluation that must not touch any model state; only the selected subset
would feed a training pass (weight updates themselves are outside this
artifact).

``ohem_round`` is one image's mining round: ``roi_loss`` scores all ROIs of
the image from their stacked probabilities and deltas, then ``select_hard``
picks the hardest B.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

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


def roi_loss(
    class_probs: np.ndarray,
    pred_deltas: np.ndarray,
    targets: Sequence[tuple[int, BoxDelta | None]],
    config: OhemConfig = OhemConfig(),
) -> list[RoiLoss]:
    """Multi-task loss of R ROIs: cross-entropy plus smooth-L1 regression.

    Row ``i`` of ``class_probs`` (R, K) and ``pred_deltas`` (R, 4) is scored
    against ``targets[i] = (target_class, target_delta)``.  Class 0 is
    background; background ROIs carry no regression target and contribute
    no regression loss.  A non-finite predicted delta is rejected as
    ``BoxDelta`` rejects it.  Cross-entropy uses ``math.log`` and the
    smooth-L1 terms are added in tx, ty, tw, th order, so each row equals
    the same loss computed for that ROI alone in Python floats.
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


def ohem_round(
    class_probs: np.ndarray,
    pred_deltas: np.ndarray,
    targets: Sequence[tuple[int, BoxDelta | None]],
    config: OhemConfig = OhemConfig(),
) -> tuple[list[int], list[RoiLoss]]:
    """One read-only mining round over an image's ROIs: :func:`roi_loss` of
    every ROI, then the hardest B by :func:`select_hard`.

    The arguments are :func:`roi_loss`'s; the probabilities and deltas come
    from a forward evaluation that must not have touched any model state.
    """
    losses = roi_loss(class_probs, pred_deltas, targets, config)
    return select_hard(losses, config), losses
