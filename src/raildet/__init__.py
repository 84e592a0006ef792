"""Two-stage rail fastener detection pipeline at desk scale."""

__version__ = "0.1.0"

from .geometry import BBox, BoxDelta, area, clip, decode, encode, iou
from .anchors import AnchorConfig, base_anchors, tile
from .assignment import AnchorAssignment, AnchorLabel, AssignmentConfig, assign
from .proposal import ProposalConfig, Rois, ScoredBox, nms, propose
from .ohem import OhemConfig, RoiLoss, select_hard
from .evaluation import (
    CLASS_NAMES,
    Detection,
    EvalConfig,
    EvalReport,
    GroundTruthObject,
    evaluate,
    match,
    report,
)
from .pipeline import PipelineConfig, detect, ohem_simulation

__all__ = [
    "BBox",
    "BoxDelta",
    "area",
    "iou",
    "encode",
    "decode",
    "clip",
    "AnchorConfig",
    "base_anchors",
    "tile",
    "AssignmentConfig",
    "AnchorAssignment",
    "AnchorLabel",
    "assign",
    "ProposalConfig",
    "Rois",
    "ScoredBox",
    "nms",
    "propose",
    "OhemConfig",
    "RoiLoss",
    "select_hard",
    "CLASS_NAMES",
    "Detection",
    "GroundTruthObject",
    "EvalConfig",
    "EvalReport",
    "match",
    "report",
    "evaluate",
    "PipelineConfig",
    "detect",
    "ohem_simulation",
]
