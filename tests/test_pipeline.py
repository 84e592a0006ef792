import dataclasses

import numpy as np
import pytest

import per_roi
from raildet import pipeline
from raildet.config import (
    ConfigError,
    dump_config,
    load_config,
    parse_config,
    with_post_nms_top,
)
from raildet.evaluation import CLASS_NAMES, Detection, EvalConfig, evaluate
from raildet.geometry import (
    BBOX_XFORM_CLIP,
    BoxDelta,
    boxes_to_array,
    clip,
    decode,
    encode,
    iou_matrix,
)
from raildet.model import random_weights, roi_pool
from raildet.oracle import build_oracle_weights, oracle_pipeline_config
from raildet.proposal import ScoredBox, nms
from raildet.pipeline import (
    PipelineConfig,
    PipelineError,
    detect,
    ohem_simulation,
    propose_rois,
)
from raildet.synth import synthesize_scene


@pytest.fixture(scope="module")
def oracle():
    config = oracle_pipeline_config()
    return config, build_oracle_weights(config)


class TestDetect:
    def test_blank_image_zero_weights(self):
        config = oracle_pipeline_config()
        weights = random_weights(0, scale=0.0)
        out = detect(np.zeros((1000, 800), dtype=np.uint8), weights, config)
        assert out == []

    def test_oracle_matches_ground_truth(self, oracle):
        config, weights = oracle
        image, ann = synthesize_scene(1234)
        dets = detect(image, weights, config)
        rep = evaluate([(dets, list(ann.objects))], EvalConfig(iou_threshold=0.75))
        assert rep.mean_precision == 1.0
        assert rep.mean_recall == 1.0

    def test_detections_sorted_by_score(self, oracle):
        config, weights = oracle
        image, _ = synthesize_scene(5)
        dets = detect(image, weights, config)
        scores = [d.score for d in dets]
        assert scores == sorted(scores, reverse=True)

    def test_reduced_roi_budget_still_exact(self, oracle):
        config, weights = oracle
        config50 = with_post_nms_top(config, 50)
        image, ann = synthesize_scene(77)
        dets = detect(image, weights, config50)
        rep = evaluate([(dets, list(ann.objects))])
        assert rep.mean_precision == 1.0
        assert rep.mean_recall == 1.0

    def test_oracle_built_for_five_bins_is_exact(self):
        config = dataclasses.replace(oracle_pipeline_config(), roi_bins=5)
        weights = build_oracle_weights(config)
        assert weights.det.cls_w.shape[1] == 5 * 5 * 7
        per_image = []
        for seed in range(10):
            image, ann = synthesize_scene(seed)
            per_image.append((detect(image, weights, config), list(ann.objects)))
        rep = evaluate(per_image, EvalConfig(iou_threshold=0.75))
        assert rep.mean_precision == 1.0
        assert rep.mean_recall == 1.0

    def test_roi_bins_must_be_positive(self):
        with pytest.raises(ValueError):
            dataclasses.replace(oracle_pipeline_config(), roi_bins=0)

    def test_roi_bins_at_most_the_feature_map_height(self):
        # 1000 // 16 = 62 cells: the most a ROI can span at the finest stride
        assert PipelineConfig(roi_bins=62).roi_bins == pipeline.MAX_ROI_BINS == 62
        with pytest.raises(ValueError, match=r"\[1, 62\]"):
            PipelineConfig(roi_bins=63)

    def test_huge_predicted_scale_is_clamped(self, oracle):
        config, weights = oracle
        reg_b = weights.det.reg_b.copy()
        reg_b[2::4] = 800.0  # tw of every class
        reg_b[3::4] = 800.0  # th
        huge = dataclasses.replace(weights, det=dataclasses.replace(weights.det, reg_b=reg_b))
        image, _ = synthesize_scene(0)
        dets = detect(image, huge, config)
        assert dets
        for d in dets:
            assert 0 <= d.box.x_min < d.box.x_max <= image.shape[1]
            assert 0 <= d.box.y_min < d.box.y_max <= image.shape[0]

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_non_finite_decoded_box_is_an_rcnn_failure(self, oracle):
        config, weights = oracle
        reg_b = weights.det.reg_b.copy()
        reg_b[0::4] = 1e308  # tx of every class: the decoded centre overflows
        huge = dataclasses.replace(weights, det=dataclasses.replace(weights.det, reg_b=reg_b))
        with pytest.raises(PipelineError) as info:
            detect(synthesize_scene(0)[0], huge, config)
        assert info.value.stage == "rcnn"

    @pytest.mark.parametrize("stage", ["backbone", "rpn", "proposal", "roi_pool", "rcnn"])
    def test_failure_is_tagged_with_its_stage(self, oracle, monkeypatch, stage):
        config, weights = oracle
        layer = {"backbone": "extract_features", "rpn": "rpn_forward",
                 "proposal": "propose", "roi_pool": "roi_pool", "rcnn": "detect_forward"}

        def broken(*args, **kwargs):
            raise ValueError("boom")

        monkeypatch.setattr(pipeline, layer[stage], broken)
        with pytest.raises(PipelineError) as info:
            detect(synthesize_scene(0)[0], weights, config)
        assert info.value.stage == stage
        assert isinstance(info.value.cause, ValueError)

    def test_float_image_is_a_backbone_failure(self, oracle):
        config, weights = oracle
        image = synthesize_scene(0)[0].astype(np.float64)
        with pytest.raises(PipelineError) as info:
            detect(image, weights, config)
        assert info.value.stage == "backbone"
        assert "uint8" in str(info.value)


def _detect_reference(image, weights, config):
    """``detect`` with one ``roi_pool`` and one per-ROI head call per ROI,
    candidates in ROI order, then class order."""
    fm, rois = pipeline._first_stage(image, weights, config)
    candidates = []
    for roi in rois:
        probs, deltas = per_roi.detect_forward(roi_pool(fm, roi.box, config.roi_bins), weights.det)
        for ci, cls in enumerate(CLASS_NAMES):
            p = float(probs[1 + ci])
            if p <= config.score_threshold:
                continue
            tx, ty, tw, th = deltas[ci]
            delta = BoxDelta(tx, ty, min(tw, BBOX_XFORM_CLIP), min(th, BBOX_XFORM_CLIP))
            box = clip(decode(roi.box, delta), image.shape[1], image.shape[0])
            if box.width > 0 and box.height > 0:
                candidates.append(Detection(class_name=cls, box=box, score=p))
    final = []
    for cls in CLASS_NAMES:
        group = [d for d in candidates if d.class_name == cls]
        scored = [ScoredBox(box=d.box, score=d.score, source_index=i) for i, d in enumerate(group)]
        final.extend(group[i] for i in nms(scored, config.final_nms_iou))
    final.sort(key=lambda d: -d.score)
    return final


class TestBatchedDetect:
    """``detect`` pools each ROI on its own and scores them all in one
    batched head pass; the detections must equal the per-ROI path."""

    @pytest.mark.parametrize("threshold", [0.0, 0.2, 0.5])
    @pytest.mark.parametrize("seed, scale", [(0, 0.05), (1, 0.5), (2, 0.5)])
    def test_equals_per_roi_reference(self, seed, scale, threshold):
        config = parse_config(f"pipeline.score_threshold={threshold}")
        weights = random_weights(seed, scale=scale)
        image, _ = synthesize_scene(seed + 3)
        got = detect(image, weights, config)
        want = _detect_reference(image, weights, config)
        assert got == want
        if threshold < 0.5:
            assert got  # the candidate loop and the final NMS both ran

    def test_oracle_equals_per_roi_reference(self, oracle):
        config, weights = oracle
        image, _ = synthesize_scene(8)
        assert detect(image, weights, config) == _detect_reference(image, weights, config)

    def test_one_batched_head_call_per_image(self, monkeypatch):
        config = oracle_pipeline_config()
        weights = random_weights(0)
        pool_calls = 0
        head_rows = []
        original_pool, original_head = pipeline.roi_pool, pipeline.detect_forward

        def counted_pool(*args, **kwargs):
            nonlocal pool_calls
            pool_calls += 1
            return original_pool(*args, **kwargs)

        def counted_head(pooled, head):
            head_rows.append(len(pooled))
            return original_head(pooled, head)

        monkeypatch.setattr(pipeline, "roi_pool", counted_pool)
        monkeypatch.setattr(pipeline, "detect_forward", counted_head)
        images = [synthesize_scene(s)[0] for s in range(2)]
        rois = [len(propose_rois(image, weights, config)) for image in images]
        for image in images:
            detect(image, weights, config)
        # one head call per image, over all of its ROIs: none per ROI
        assert head_rows == rois == [config.proposal.post_nms_top] * 2
        assert pool_calls == sum(rois)

    def test_empty_rois_pass_through(self, oracle):
        # no anchor survives a min-size filter larger than the canvas
        config = parse_config("proposal.min_box_size=2000")
        _, weights = oracle
        image, ann = synthesize_scene(0)
        rois = propose_rois(image, weights, config)
        assert len(rois) == 0 and rois.boxes.shape == (0, 4)
        assert detect(image, weights, config) == []
        (res,) = ohem_simulation([(image, ann)], weights, config).per_image
        assert res.selected == [] and res.losses == [] and res.roi_classes == []


class TestProposeRois:
    def test_oracle_rois_cover_objects(self, oracle):
        config, weights = oracle
        image, ann = synthesize_scene(9)
        rois = propose_rois(image, weights, config)
        assert 1 <= len(rois) <= config.proposal.post_nms_top
        from raildet.geometry import iou

        for o in ann.objects:
            assert any(iou(r.box, o.box) > 0.75 for r in rois)

    def test_budget_cap(self):
        config = with_post_nms_top(oracle_pipeline_config(), 10)
        weights = random_weights(3)
        image, _ = synthesize_scene(2)
        rois = propose_rois(image, weights, config)
        assert len(rois) <= 10


def _ohem_reference(image, ann, weights, config):
    """One mining round from the public stages, the backbone run twice."""
    rois = propose_rois(image, weights, config)
    fm = pipeline.extract_features(image, config.anchors.stride)
    gts = [o.box for o in ann.objects]
    ious = iou_matrix(boxes_to_array([r.box for r in rois]), boxes_to_array(gts))
    targets = []
    for i, roi in enumerate(rois):
        g = int(np.argmax(ious[i])) if gts else 0
        if gts and ious[i, g] > config.roi_fg_iou:
            cls = 1 + CLASS_NAMES.index(ann.objects[g].class_name)
            targets.append((cls, encode(roi.box, gts[g])))
        else:
            targets.append((0, None))

    def forward(roi):
        probs, deltas = per_roi.detect_forward(roi_pool(fm, roi.box, config.roi_bins), weights.det)
        return probs, BoxDelta(*deltas[int(np.argmax(probs[1:]))])

    selected, losses = per_roi.ohem_round(rois, forward, targets, config.ohem)
    return selected, losses, [t[0] for t in targets]


class TestOhemSimulation:
    def test_one_backbone_pass_per_image(self, oracle, monkeypatch):
        config, weights = oracle
        dataset = [synthesize_scene(s) for s in range(3)]
        expected = [_ohem_reference(image, ann, weights, config) for image, ann in dataset]
        assert any(cls for _, _, classes in expected for cls in classes)

        calls = []
        original = pipeline.extract_features

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(pipeline, "extract_features", counting)
        result = ohem_simulation(dataset, weights, config)
        assert len(calls) == len(dataset)
        for img, (selected, losses, classes) in zip(result.per_image, expected):
            assert img.selected == selected
            assert img.losses == losses
            assert img.roi_classes == classes

    def test_selected_within_budget(self, oracle):
        config, weights = oracle
        dataset = [synthesize_scene(s) for s in range(3)]
        result = ohem_simulation(dataset, weights, config)
        assert len(result.per_image) == 3
        for img in result.per_image:
            assert len(img.selected) <= config.ohem.batch_size
            assert len(img.selected) <= len(img.losses)

    def test_corrupted_class_dominates_hard_set(self, oracle):
        config, weights = oracle
        # break the second stage for class V only: its ROIs stay easy to
        # propose but impossible to classify, so they come out hardest
        det = weights.det
        cls_w = det.cls_w.copy()
        cls_w[1] = 0.0
        broken = dataclasses.replace(weights, det=dataclasses.replace(det, cls_w=cls_w))
        dataset = [synthesize_scene(s) for s in range(40, 52)]
        result = ohem_simulation(dataset, broken, config)
        by_class = result.loss_by_class()
        v_losses = by_class.get(1, [])
        other = [v for c in (2, 3, 4) for v in by_class.get(c, [])]
        assert v_losses and other
        assert np.median(v_losses) > np.median(other)
        # and the selection order surfaces the corrupted class first
        for img in result.per_image:
            v_idx = [i for i, c in enumerate(img.roi_classes) if c == 1]
            if v_idx:
                assert img.selected[0] in v_idx


DEFAULT_CONFIG_TEXT = """\
anchors.scales=16.0,32.0,64.0
anchors.ratios=0.5,1.0,2.0
anchors.stride=16
proposal.pre_nms_top=6000
proposal.nms_iou_threshold=0.7
proposal.post_nms_top=300
proposal.min_box_size=1.0
ohem.batch_size=256
ohem.reg_loss_weight=1.0
pipeline.score_threshold=0.5
pipeline.final_nms_iou=0.3
pipeline.roi_bins=7
pipeline.roi_fg_iou=0.5
"""


def _default_entries():
    """(key, default value) of every config key, walked from the dataclasses."""
    cfg = PipelineConfig()
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if dataclasses.is_dataclass(value):
            for g in dataclasses.fields(value):
                yield f"{f.name}.{g.name}", getattr(value, g.name)
        else:
            yield f"pipeline.{f.name}", value


def _other_value(value):
    """A legal value of the same type that differs from ``value``."""
    if isinstance(value, int):
        return 2 * value
    if isinstance(value, float):
        return value / 2
    return tuple(2 * v for v in value)


def _as_text(value):
    if isinstance(value, tuple):
        return ",".join(repr(v) for v in value)
    return repr(value)


class TestConfigFile:
    def test_defaults(self):
        cfg = parse_config("")
        assert cfg.proposal.post_nms_top == 300
        assert cfg.anchors.k == 9
        assert cfg.score_threshold == 0.5

    def test_override(self):
        cfg = parse_config(
            "proposal.post_nms_top=50\n# comment\n\npipeline.score_threshold=0.25\n"
        )
        assert cfg.proposal.post_nms_top == 50
        assert cfg.score_threshold == 0.25

    def test_one_default_per_key(self):
        assert parse_config("") == PipelineConfig() == oracle_pipeline_config()

    def test_default_dump_is_golden(self):
        assert dump_config(PipelineConfig()) == DEFAULT_CONFIG_TEXT
        assert parse_config(DEFAULT_CONFIG_TEXT) == PipelineConfig()

    # ids name the key and its default, so adding or removing another key
    # leaves them as they are
    @pytest.mark.parametrize("key,default", [
        pytest.param(key, default, id=f"{key}-{_as_text(default)}")
        for key, default in _default_entries()
    ])
    def test_every_key_round_trips(self, key, default):
        line = f"{key}={_as_text(_other_value(default))}"
        cfg = parse_config(line)
        assert cfg != PipelineConfig()
        dumped = dump_config(cfg)
        assert line in dumped.splitlines()
        assert parse_config(dumped) == cfg

    def test_anchor_stride_sets_the_backbone_stride(self):
        cfg = parse_config("anchors.stride=32")
        fm, _ = pipeline._first_stage(synthesize_scene(0)[0], random_weights(0), cfg)
        assert fm.stride == cfg.anchors.stride == 32
        assert (fm.height, fm.width) == (31, 25)

    def test_load_config_names_the_file_on_every_error(self, tmp_path):
        path = tmp_path / "run.cfg"
        for text in ("proposal.post_nms_topp=50\n", "pipeline.roi_bins=x\n",
                     "pipeline.roi_bins=0\n", "no equals sign\n"):
            path.write_text(text)
            with pytest.raises(ConfigError, match=r"^.*run\.cfg: "):
                load_config(path)
        with pytest.raises(ConfigError, match="missing.cfg"):
            load_config(tmp_path / "missing.cfg")

    def test_repeated_key_rejected(self):
        with pytest.raises(ConfigError, match=r"proposal\.post_nms_top.* 1 and 3"):
            parse_config("proposal.post_nms_top=50\n# comment\nproposal.post_nms_top=60\n")

    @pytest.mark.parametrize(
        "line",
        [
            "anchors.scales=inf,32,64",
            "anchors.ratios=0.5,nan,2",
            "proposal.nms_iou_threshold=nan",
            "proposal.min_box_size=inf",
            "ohem.reg_loss_weight=inf",
            "pipeline.final_nms_iou=nan",
            "pipeline.score_threshold=-inf",
        ],
    )
    def test_non_finite_rejected(self, line):
        key = line.split("=")[0]
        with pytest.raises(ConfigError, match=f"bad value for {key}: not a finite number"):
            parse_config(line)

    @pytest.mark.parametrize(
        "line",
        [
            "pipeline.score_threshold=-0.1",
            "pipeline.score_threshold=1.0",
            "pipeline.final_nms_iou=0",
            "pipeline.final_nms_iou=1",
            "pipeline.roi_fg_iou=0",
            "pipeline.roi_fg_iou=1.5",
            "anchors.stride=8",
        ],
    )
    def test_out_of_range_rejected(self, line):
        with pytest.raises(ConfigError, match=line.split("=")[0].split(".")[1]):
            parse_config(line)

    def test_score_threshold_zero_allowed(self):
        assert parse_config("pipeline.score_threshold=0").score_threshold == 0.0

    @pytest.mark.parametrize(
        "line",
        [
            "eval.iou_threshold=0.75",
            "assignment.pos_iou_threshold=0.7",
            "assignment.neg_iou_threshold=0.3",
            "backbone.channels=7",
            "backbone.attach_stage=stage5",
            "backbone.stage5_downsample=true",
        ],
    )
    def test_removed_keys_rejected(self, line):
        with pytest.raises(ConfigError, match="unknown config keys: " + line.split("=")[0]):
            parse_config(line)

    def test_unknown_keys_listed_sorted(self):
        with pytest.raises(ConfigError, match="unknown config keys: a.b, z.y$"):
            parse_config("z.y=1\na.b=2")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("proposal.post_nms_topp=50")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("proposal.post_nms_top=many")

    def test_bad_line_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("post_nms_top 50")

    def test_invalid_combination_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("proposal.post_nms_top=9999")  # exceeds pre_nms_top

    def test_round_trip(self):
        cfg = parse_config("proposal.post_nms_top=50\nanchors.stride=32")
        assert parse_config(dump_config(cfg)) == cfg

    def test_with_post_nms_top(self):
        cfg = parse_config("")
        assert with_post_nms_top(cfg, 10).proposal.post_nms_top == 10


class TestBatchedOhem:
    """``ohem_simulation`` pools and scores all ROIs of an image at once; its
    result must equal the per-ROI mining round exactly."""

    @staticmethod
    def _assert_matches_reference(dataset, weights, config):
        result = ohem_simulation(dataset, weights, config)
        assert len(result.per_image) == len(dataset)
        for img, (image, ann) in zip(result.per_image, dataset):
            selected, losses, classes = _ohem_reference(image, ann, weights, config)
            assert img.selected == selected
            assert img.losses == losses
            assert img.roi_classes == classes
        return result

    def test_random_weights_300_rois(self):
        config = oracle_pipeline_config()
        dataset = [synthesize_scene(s) for s in (0, 3, 11)]
        result = self._assert_matches_reference(dataset, random_weights(0), config)
        for img in result.per_image:
            assert len(img.losses) == 300
            assert len(img.selected) == config.ohem.batch_size
        assert any(c for img in result.per_image for c in img.roi_classes)

    def test_scene_without_objects(self):
        image, ann = synthesize_scene(4)
        empty = dataclasses.replace(ann, objects=())
        result = self._assert_matches_reference([(image, empty)], random_weights(0),
                                                oracle_pipeline_config())
        assert not any(result.per_image[0].roi_classes)

    def test_stride_32_backbone(self):
        config = parse_config("anchors.stride=32")
        dataset = [synthesize_scene(s) for s in (2, 9)]
        self._assert_matches_reference(dataset, random_weights(1), config)

    @pytest.mark.parametrize("tensor", ["cls_w", "reg_w"])
    def test_nan_head_weight_raises(self, oracle, tensor):
        config, weights = oracle
        bad = getattr(weights.det, tensor).copy()
        bad[1, 3] = np.nan
        det = dataclasses.replace(weights.det, **{tensor: bad})
        broken = dataclasses.replace(weights, det=det)
        with pytest.raises(ValueError, match="invalid probability|non-finite"):
            ohem_simulation([synthesize_scene(0)], broken, config)

    def test_one_batched_pool_and_head_call_per_image(self, oracle, monkeypatch):
        config, weights = oracle
        rows = {"roi_pool_batch": [], "detect_forward": [], "ohem_round": []}

        def counted(name):
            original = getattr(pipeline, name)

            def wrapper(*args, **kwargs):
                rows[name].append(len(args[1] if name == "roi_pool_batch" else args[0]))
                return original(*args, **kwargs)

            return wrapper

        for name in rows:
            monkeypatch.setattr(pipeline, name, counted(name))

        def per_roi_pool(*args, **kwargs):
            raise AssertionError("per-ROI pool called by the mining round")

        monkeypatch.setattr(pipeline, "roi_pool", per_roi_pool)
        dataset = [synthesize_scene(s) for s in range(3)]
        rois = [len(propose_rois(image, weights, config)) for image, _ in dataset]
        ohem_simulation(dataset, weights, config)
        # one call of each per image, over all of its ROIs: none per ROI
        assert rows == {name: rois for name in rows}
        assert all(rois)

    @pytest.mark.parametrize("stage, layer", [("roi_pool", "roi_pool_batch"),
                                              ("rcnn", "detect_forward")])
    def test_failure_is_tagged_with_its_stage(self, oracle, monkeypatch, stage, layer):
        config, weights = oracle

        def broken(*args, **kwargs):
            raise ValueError("boom")

        monkeypatch.setattr(pipeline, layer, broken)
        with pytest.raises(PipelineError) as info:
            ohem_simulation([synthesize_scene(0)], weights, config)
        assert info.value.stage == stage
