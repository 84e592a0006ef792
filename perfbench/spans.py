"""Spans recorded from outside the program, around the calls into each layer.

Each hook replaces a function at the name its caller looks up (a module
attribute), so ``raildet.pipeline.roi_pool`` is wrapped rather than
``raildet.model.roi_pool``: ``pipeline`` imports the name directly, and a
wrapper on ``model`` would never run.  Spans stay in memory until the run
ends.  A name that no longer exists is reported as unhooked and its metrics
read 0, so renaming a layer loses only that layer's numbers.
"""
from __future__ import annotations

import importlib
import os
import statistics
import time
from dataclasses import dataclass


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0] if args else kwargs["path"])


def _count(args, kwargs, result):
    return len(result)


def _foreground_targets(args, kwargs, result):
    targets = args[2] if len(args) > 2 else kwargs["targets"]
    return sum(1 for cls, _ in targets if cls != 0)


# (module whose namespace the caller reads, name, span name, work count per call)
HOOKS = (
    ("raildet.ppm", "read_ppm", "ppm.read", _file_bytes),
    ("raildet.ppm", "write_ppm", "ppm.write", None),
    ("raildet.voc", "parse_voc", "voc.parse", None),
    ("raildet.voc", "write_voc", "voc.write", None),
    ("raildet.preprocess", "preprocess", "preprocess.preprocess", None),
    ("raildet.dataio", "write_detections_csv", "dataio.write_csv", None),
    ("raildet.evaluation", "evaluate", "evaluation.evaluate", None),
    ("raildet.pipeline", "detect", "pipeline.detect", _count),
    ("raildet.pipeline", "ohem_simulation", "pipeline.ohem_simulation", None),
    ("raildet.pipeline", "extract_features", "model.backbone", None),
    ("raildet.pipeline", "rpn_forward", "model.rpn", None),
    ("raildet.pipeline", "tile", "anchors.tile", _count),
    ("raildet.pipeline", "propose", "proposal.propose", _count),
    ("raildet.pipeline", "roi_pool", "model.roi_pool", None),
    ("raildet.pipeline", "detect_forward", "model.rcnn", None),
    ("raildet.pipeline", "decode", "geometry.decode", None),
    ("raildet.pipeline", "nms", "proposal.final_nms", None),
    ("raildet.pipeline", "iou_matrix", "geometry.iou_matrix", None),
    ("raildet.pipeline", "ohem_round", "ohem.ohem_round", _foreground_targets),
    ("raildet.ohem", "roi_loss", "ohem.roi_loss", None),
    ("raildet.ohem", "select_hard", "ohem.select_hard", _count),
    ("raildet.oracle", "build_oracle_weights", "oracle.build_weights", None),
    ("raildet.model", "random_weights", "model.random_weights", None),
    ("raildet.model", "load_weights", "model.load_weights", None),
)

# Set-up layers: reported as the median duration of one call, in ms.
SETUP_SPANS = {
    "oracle.build_weights_ms": "oracle.build_weights",
    "model.random_weights_ms": "model.random_weights",
    "model.load_weights_ms": "model.load_weights",
}

# Per-image layer metrics: (metric, kind, span[, second span]); units and
# directions are in BENCHMARK.json.
# Kinds: "ms" total span time per image, "self_ms" the same minus child spans,
# "calls" calls per image, "count" work count per image, "us_per_call",
# and "ratio" of the first span's count to the second span's count.
LAYER_METRICS = (
    ("ppm.read_ms", "ms", "ppm.read"),
    ("ppm.read_mb", "mb", "ppm.read"),
    ("model.backbone_ms", "ms", "model.backbone"),
    ("model.backbone_calls", "calls", "model.backbone"),
    ("model.rpn_ms", "ms", "model.rpn"),
    ("anchors.tile_ms", "ms", "anchors.tile"),
    ("anchors.count", "count", "anchors.tile"),
    ("proposal.propose_ms", "ms", "proposal.propose"),
    ("proposal.rois", "count", "proposal.propose"),
    ("model.roi_pool_ms", "ms", "model.roi_pool"),
    ("model.roi_pool_calls", "calls", "model.roi_pool"),
    ("model.roi_pool_us_per_roi", "us_per_call", "model.roi_pool"),
    ("model.rcnn_ms", "ms", "model.rcnn"),
    ("model.rcnn_calls", "calls", "model.rcnn"),
    ("ohem.ohem_round_ms", "ms", "ohem.ohem_round"),
    ("ohem.ohem_round_self_ms", "self_ms", "ohem.ohem_round"),
    ("ohem.roi_loss_ms", "ms", "ohem.roi_loss"),
    ("ohem.select_hard_ms", "ms", "ohem.select_hard"),
    ("ohem.selected", "count", "ohem.select_hard"),
    ("ohem.fg_share", "ratio", "ohem.ohem_round", "proposal.propose"),
    ("geometry.iou_matrix_ms", "ms", "geometry.iou_matrix"),
    ("pipeline.detect_ms", "ms", "pipeline.detect"),
    ("pipeline.detect_self_ms", "self_ms", "pipeline.detect"),
    ("pipeline.detections", "count", "pipeline.detect"),
    ("pipeline.dets_per_roi", "ratio", "pipeline.detect", "proposal.propose"),
    ("geometry.decode_ms", "ms", "geometry.decode"),
    ("geometry.decode_calls", "calls", "geometry.decode"),
    ("proposal.final_nms_ms", "ms", "proposal.final_nms"),
    ("proposal.final_nms_calls", "calls", "proposal.final_nms"),
    ("preprocess.preprocess_ms", "ms", "preprocess.preprocess"),
    ("ppm.write_ms", "ms", "ppm.write"),
    ("voc.parse_ms", "ms", "voc.parse"),
    ("voc.write_ms", "ms", "voc.write"),
    ("dataio.write_csv_ms", "ms", "dataio.write_csv"),
    ("evaluation.evaluate_ms", "ms", "evaluation.evaluate"),
)


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    image: str
    count: float


class Tracer:
    """Installs the hooks on demand and keeps every span in memory."""

    def __init__(self, hooks=HOOKS):
        self.spans: list[Span] = []
        self.image = ""
        self.unhooked: list[str] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._wrappers = []
        for module_name, attr, span, count in hooks:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if not callable(original):
                self.unhooked.append(f"{module_name}.{attr}")
                continue
            self._wrappers.append((module, attr, original, self._wrap(span, original, count)))

    def _wrap(self, name, fn, count):
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
            n = count(args, kwargs, result) if count else 0
            self.spans.append(Span(span_id, name, start, end, parent, self.image, n))
            return result

        return traced

    def install(self) -> None:
        for module, attr, _, wrapper in self._wrappers:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._wrappers:
            setattr(module, attr, original)


def self_time(span: Span, children: list[Span]) -> float:
    """Span duration minus the part of it that its child spans cover."""
    covered = 0.0
    reach = span.start
    for c in sorted(children, key=lambda s: s.start):
        lo, hi = max(c.start, reach), min(c.end, span.end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return (span.end - span.start) - covered


def layer_metrics(spans: list[Span], images: int) -> dict[str, float]:
    """Per-image layer metrics over ``images`` traced images."""
    by_name: dict[str, list[Span]] = {}
    children: dict[int, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def total(name, f):
        return sum(f(s) for s in by_name.get(name, ()))

    out = {}
    for metric, kind, name, *other in LAYER_METRICS:
        calls = len(by_name.get(name, ()))
        if kind == "ms":
            v = total(name, lambda s: s.end - s.start) * 1e3 / images
        elif kind == "self_ms":
            v = total(name, lambda s: self_time(s, children.get(s.id, []))) * 1e3 / images
        elif kind == "mb":
            v = total(name, lambda s: s.count) / 1e6 / images
        elif kind == "calls":
            v = calls / images
        elif kind == "count":
            v = total(name, lambda s: s.count) / images
        elif kind == "us_per_call":
            v = total(name, lambda s: s.end - s.start) * 1e6 / calls if calls else 0.0
        else:  # ratio of two counts
            base = total(other[0], lambda s: s.count)
            v = total(name, lambda s: s.count) / base if calls and base else 0.0
        out[metric] = v
    return out


def setup_metrics(spans: list[Span]) -> dict[str, float]:
    """Median duration of each set-up layer's calls, 0 where it never ran."""
    out = {}
    for metric, name in SETUP_SPANS.items():
        d = [(s.end - s.start) * 1e3 for s in spans if s.name == name]
        out[metric] = statistics.median(d) if d else 0.0
    return out


def top_level_seconds(spans: list[Span]) -> float:
    return sum(s.end - s.start for s in spans if s.parent is None)
