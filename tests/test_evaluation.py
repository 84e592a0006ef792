import numpy as np
import pytest

from raildet.evaluation import (
    CLASS_NAMES,
    ClassCounts,
    Detection,
    EvalConfig,
    EvalReport,
    GroundTruthObject,
    evaluate,
    match,
    report,
)
from raildet.geometry import BBox


def det(cls, x0, y0, x1, y1, score=0.9):
    return Detection(class_name=cls, box=BBox(x0, y0, x1, y1), score=score)


def gt(cls, x0, y0, x1, y1):
    return GroundTruthObject(class_name=cls, box=BBox(x0, y0, x1, y1))


class TestVocabulary:
    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError):
            det("W301", 0, 0, 1, 1)
        with pytest.raises(ValueError):
            gt("background", 0, 0, 1, 1)

    def test_class_order(self):
        assert CLASS_NAMES == ("V", "W300-1", "WJ-7", "WJ-8")


class TestMatch:
    def test_exact_match_is_tp(self):
        m = match([det("V", 0, 0, 10, 10)], [gt("V", 0, 0, 10, 10)])
        assert m.det_is_tp == [True]
        assert m.gt_matched == [True]

    def test_low_iou_is_fp_and_fn(self):
        # IOU 1/3 < 0.75
        m = match([det("V", 0, 0, 10, 10)], [gt("V", 5, 0, 15, 10)])
        assert m.det_is_tp == [False]
        assert m.gt_matched == [False]

    def test_threshold_is_strict(self):
        # IOU exactly 0.75 does not count
        m = match(
            [det("V", 0, 0, 100, 75)], [gt("V", 0, 0, 100, 100)],
            EvalConfig(iou_threshold=0.75),
        )
        assert m.det_is_tp == [False]

    def test_duplicate_detections_single_match(self):
        dets = [det("V", 0, 0, 10, 10, 0.9), det("V", 0, 0.5, 10, 10.5, 0.8)]
        m = match(dets, [gt("V", 0, 0, 10, 10)])
        assert m.det_is_tp == [True, False]
        assert m.gt_matched == [True]

    def test_greedy_by_score(self):
        dets = [det("V", 0, 0.5, 10, 10.5, 0.8), det("V", 0, 0, 10, 10, 0.9)]
        m = match(dets, [gt("V", 0, 0, 10, 10)])
        assert m.det_is_tp == [False, True]

    def test_class_mismatch_never_matches(self):
        m = match([det("V", 0, 0, 10, 10)], [gt("WJ-7", 0, 0, 10, 10)])
        assert m.det_is_tp == [False]
        assert m.gt_matched == [False]


class TestCounts:
    def test_precision_recall_arithmetic(self):
        c = ClassCounts(true_positive=8, false_positive=2, false_negative=1)
        assert c.precision == 0.8
        assert abs(c.recall - 8 / 9) < 1e-12

    def test_empty_denominators(self):
        c = ClassCounts()
        assert c.precision == 1.0
        assert c.recall == 1.0


class TestReport:
    def test_perfect_detector(self):
        per_image = []
        rng = np.random.default_rng(25)
        for _ in range(10):
            gts = []
            for i in range(int(rng.integers(1, 5))):
                cls = CLASS_NAMES[int(rng.integers(4))]
                x0, y0 = rng.uniform(0, 700, 2)
                gts.append(gt(cls, x0, y0, x0 + 40, y0 + 40))
            dets = [det(g.class_name, *g.box.as_tuple()) for g in gts]
            per_image.append((dets, gts))
        rep = evaluate(per_image)
        for name, p, r in rep.rows():
            assert p == 1.0 and r == 1.0

    def test_row_order(self):
        rep = EvalReport()
        names = [row[0] for row in rep.rows()]
        assert names == ["V", "W300-1", "WJ-7", "WJ-8", "mean"]

    def test_text_and_csv_shapes(self):
        rep = EvalReport()
        text = rep.to_text()
        assert text.splitlines()[0].startswith("Category")
        assert len(text.splitlines()) == 6
        csv = rep.to_csv()
        assert csv.splitlines()[0] == "category,precision,recall"
        assert csv.splitlines()[-1].startswith("mean,")

    def test_count_conservation_random(self):
        rng = np.random.default_rng(26)
        for _ in range(100):
            dets, gts = [], []
            for _ in range(int(rng.integers(0, 8))):
                cls = CLASS_NAMES[int(rng.integers(4))]
                x0, y0 = rng.uniform(0, 200, 2)
                dets.append(det(cls, x0, y0, x0 + rng.uniform(5, 50), y0 + rng.uniform(5, 50),
                                float(rng.uniform(0, 1))))
            for _ in range(int(rng.integers(0, 6))):
                cls = CLASS_NAMES[int(rng.integers(4))]
                x0, y0 = rng.uniform(0, 200, 2)
                gts.append(gt(cls, x0, y0, x0 + rng.uniform(5, 50), y0 + rng.uniform(5, 50)))
            rep = report([(dets, gts, match(dets, gts))])
            tp = sum(c.true_positive for c in rep.per_class.values())
            fp = sum(c.false_positive for c in rep.per_class.values())
            fn = sum(c.false_negative for c in rep.per_class.values())
            assert tp + fp == len(dets)
            assert tp + fn == len(gts)

    def test_recall_monotone_in_threshold(self):
        rng = np.random.default_rng(27)
        dets, gts = [], []
        for _ in range(40):
            cls = CLASS_NAMES[int(rng.integers(4))]
            x0, y0 = rng.uniform(0, 600, 2)
            g = gt(cls, x0, y0, x0 + 40, y0 + 40)
            gts.append(g)
            jx, jy = rng.uniform(-8, 8, 2)
            dets.append(det(cls, x0 + jx, y0 + jy, x0 + 40 + jx, y0 + 40 + jy))
        last = None
        for thr in (0.3, 0.5, 0.75, 0.9):
            rep = evaluate([(dets, gts)], EvalConfig(iou_threshold=thr))
            r = rep.mean_recall
            if last is not None:
                assert r <= last + 1e-12
            last = r
