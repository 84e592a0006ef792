"""Per-ROI references of the second stage, for the tests.

The library scores all ROIs of an image at once: ``model.detect_forward``
classifies an (R, ...) stack and ``ohem.roi_loss`` and ``ohem.ohem_round``
take (R, K) probabilities and (R, 4) deltas.  These are the same layers one
ROI at a time, in plain matrix-vector products and Python floats; the
batched functions must equal them row by row, with ``==``.
"""
import math

import numpy as np

from raildet.model import NUM_CLASSES
from raildet.ohem import MAX_CLS_LOSS, OhemConfig, RoiLoss, select_hard


def detect_forward(pooled, head):
    """Class probabilities (5,) and deltas (4, 4) of one pooled ROI."""
    flat = np.asarray(pooled, dtype=np.float64).reshape(-1)
    logits = head.cls_w @ flat + head.cls_b
    logits -= logits.max()
    e = np.exp(logits)
    probs = e / e.sum()
    deltas = (head.reg_w @ flat + head.reg_b).reshape(NUM_CLASSES - 1, 4)
    return probs, deltas


def smooth_l1(x):
    ax = abs(x)
    return 0.5 * x * x if ax < 1.0 else ax - 0.5


def roi_loss(class_probs, target_class, pred_delta, target_delta, config=OhemConfig(),
             roi_index=0):
    """Cross-entropy plus smooth-L1 regression of one ROI; background
    (class 0) carries no ``target_delta`` and no regression loss."""
    p = float(class_probs[target_class])
    cls = MAX_CLS_LOSS if p <= 0.0 else min(-math.log(p), MAX_CLS_LOSS)
    reg = 0.0
    if target_delta is not None:
        reg = sum(
            smooth_l1(a - b) for a, b in zip(pred_delta.as_tuple(), target_delta.as_tuple())
        )
    return RoiLoss(roi_index=roi_index, cls_loss=cls, reg_loss=reg,
                   total=cls + config.reg_loss_weight * reg)


def ohem_round(rois, forward_fn, targets, config=OhemConfig()):
    """One mining round, one ``forward_fn(roi) -> (class_probs, pred_delta)``
    call and one :func:`roi_loss` per ROI, then ``select_hard``."""
    assert len(rois) == len(targets)
    losses = []
    for i, (roi, (tcls, tdelta)) in enumerate(zip(rois, targets)):
        probs, pred = forward_fn(roi)
        losses.append(roi_loss(probs, tcls, pred, tdelta, config, roi_index=i))
    return select_hard(losses, config), losses
