"""The four workloads: set-up, one operation per image, and output checks.

Every call into the program goes through a module attribute
(``ppm.read_ppm``, ``pipeline.detect``, ...), so the hooks in ``spans`` see
it.  ``run`` is the timed part of an operation; ``check`` turns its payload
into an output digest and an error message (``None`` when the output is
well formed) and is not counted in the operation's latency.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

from raildet import dataio, evaluation, model, oracle, pipeline, ppm, preprocess, voc

ROI_BUDGET = 300
OHEM_BATCH = 256
CANVAS_W, CANVAS_H = 800, 1000


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()[:16]


@dataclass
class State:
    in_dir: Path
    out_dir: Path
    names: list[str]
    config: object = None
    weights: object = None
    pass_dets: dict = field(default_factory=dict)
    rois: list | None = None
    extra: dict = field(default_factory=dict)  # numbers for the run record


class Workload:
    name = ""
    images = 0  # default corpus size
    warmup = 0  # images run before the timed window and then discarded
    has_pass_op = False  # one extra operation after every pass over the corpus

    def setup(self, state: State) -> None:
        """Import-time work aside, what a fresh process does before image 1."""

    def start(self, state: State) -> None:
        """Attach output capture the checks need; runs once, after set-up."""

    def run(self, state: State, i: int):
        raise NotImplementedError

    def check(self, state: State, i: int, payload) -> tuple[str, str | None]:
        raise NotImplementedError


class _Detect(Workload):
    """read_ppm -> detect -> write_detections_csv, the path of ``raildet detect``."""

    def run(self, state, i):
        name = state.names[i]
        state.pass_dets.pop(i, None)
        image = ppm.read_ppm(state.in_dir / f"{name}.ppm", grayscale=True)
        dets = pipeline.detect(image, state.weights, state.config)
        out = state.out_dir / f"{name}.csv"
        dataio.write_detections_csv(out, [(f"{name}.ppm", d) for d in dets])
        state.pass_dets[i] = dets
        return out


class OracleCorpus(_Detect):
    name = "oracle-corpus"
    images = 48
    warmup = 15
    has_pass_op = True

    def setup(self, state):
        state.config = oracle.oracle_pipeline_config()
        state.weights = oracle.build_oracle_weights(state.config)

    def run(self, state, i):
        if i < len(state.names):
            return super().run(state, i)
        # end of a pass: parse the ground truth and evaluate, as ``raildet eval``
        per_image = []
        for j, name in enumerate(state.names):
            ann = voc.parse_voc((state.in_dir / f"{name}.xml").read_bytes())
            per_image.append((state.pass_dets.get(j, []), list(ann.objects)))
        return evaluation.evaluate(per_image, evaluation.EvalConfig(iou_threshold=0.75))

    def check(self, state, i, payload):
        if i < len(state.names):
            return _digest(payload.read_bytes()), None
        rows = payload.rows()
        state.extra["precision_iou75"] = payload.mean_precision
        state.extra["recall_iou75"] = payload.mean_recall
        bad = [f"{c} P={p:.4f} R={r:.4f}" for c, p, r in rows if p != 1.0 or r != 1.0]
        return _digest(payload.to_csv().encode()), ("; ".join(bad) or None)


class _RoiTap:
    """Keeps the last ROI list ``detect`` received from the proposal stage."""

    def __init__(self, state, original):
        self.state = state
        self.original = original

    def __call__(self, *args, **kwargs):
        self.state.rois = self.original(*args, **kwargs)
        return self.state.rois


class DenseRois(_Detect):
    name = "dense-rois"
    images = 24
    warmup = 5

    def setup(self, state):
        state.config = oracle.oracle_pipeline_config()
        state.weights = model.random_weights(
            0, k=state.config.anchors.k, bins=state.config.roi_bins
        )

    def start(self, state):
        propose = getattr(pipeline, "propose", None)
        propose = getattr(propose, "original", propose)  # one tap, however many runs
        if callable(propose):
            pipeline.propose = _RoiTap(state, propose)

    def run(self, state, i):
        state.rois = None
        return super().run(state, i)

    def check(self, state, i, payload):
        rois = state.rois
        if rois is None:
            err = "proposal stage not observable: no raildet.pipeline.propose"
            return _digest(payload.read_bytes()), err
        text = "".join(
            f"{r.score:.6f},{r.box.x_min:.6f},{r.box.y_min:.6f},"
            f"{r.box.x_max:.6f},{r.box.y_max:.6f}\n"
            for r in rois
        )
        err = None if len(rois) == ROI_BUDGET else f"{len(rois)} ROIs, expected {ROI_BUDGET}"
        return _digest(text.encode(), payload.read_bytes()), err


class OhemMining(Workload):
    """(image, annotation) pairs from disk through one mining round each."""

    name = "ohem-mining"
    images = 16
    warmup = 5

    def setup(self, state):
        state.config = oracle.oracle_pipeline_config()
        state.weights = model.load_weights(state.in_dir / "weights.bin")

    def run(self, state, i):
        name = state.names[i]
        image = ppm.read_ppm(state.in_dir / f"{name}.ppm", grayscale=True)
        ann = voc.parse_voc((state.in_dir / f"{name}.xml").read_bytes())
        return pipeline.ohem_simulation([(image, ann)], state.weights, state.config)

    def check(self, state, i, payload):
        (res,) = payload.per_image
        rois = len(res.losses)
        text = ",".join(map(str, res.selected)) + "\n" + "".join(
            f"{loss.total:.6f}\n" for loss in res.losses
        )
        err = None
        if rois != ROI_BUDGET:
            err = f"{rois} ROIs, expected {ROI_BUDGET}"
        elif len(res.selected) != min(OHEM_BATCH, rois) or len(set(res.selected)) != len(
            res.selected
        ):
            err = f"{len(res.selected)} selected of {rois} ROIs"
        return _digest(text.encode()), err


class Ingest(Workload):
    """One image at a time through the path of ``raildet preprocess``."""

    name = "ingest"
    images = 32
    warmup = 8

    def run(self, state, i):
        name = state.names[i]
        image = ppm.read_ppm(state.in_dir / f"{name}.ppm", grayscale=True)
        ann = voc.parse_voc((state.in_dir / f"{name}.xml").read_bytes())
        out_img, out_ann = preprocess.preprocess(image, ann)
        ppm.write_ppm(state.out_dir / f"{name}.ppm", out_img)
        xml = voc.write_voc(out_ann)
        (state.out_dir / f"{name}.xml").write_bytes(xml)
        return out_img, out_ann, xml

    def check(self, state, i, payload):
        out_img, out_ann, xml = payload
        err = None
        if out_img.shape != (CANVAS_H, CANVAS_W) or out_img.dtype.name != "uint8":
            err = f"output {out_img.dtype.name} {out_img.shape}, expected uint8 (1000, 800)"
        elif (out_ann.image_width, out_ann.image_height) != (CANVAS_W, CANVAS_H):
            err = f"annotation size {out_ann.image_width}x{out_ann.image_height}"
        else:
            for o in out_ann.objects:
                b = o.box
                if not (0 <= b.x_min < b.x_max <= CANVAS_W and 0 <= b.y_min < b.y_max <= CANVAS_H):
                    err = f"box {b.as_tuple()} outside the canvas"
                    break
        return _digest(out_img.tobytes(), xml), err


WORKLOADS = {w.name: w for w in (OracleCorpus(), DenseRois(), OhemMining(), Ingest())}
