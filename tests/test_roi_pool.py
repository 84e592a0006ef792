"""The array ROI pooling against the per-bin loop it replaced."""
import dataclasses

import numpy as np
import pytest

from raildet import pipeline
from raildet.geometry import BBox, boxes_to_array
from raildet.model import FeatureMap, random_weights, roi_pool, roi_pool_batch
from raildet.oracle import build_oracle_weights, oracle_pipeline_config
from raildet.pipeline import detect, ohem_simulation
from raildet.synth import synthesize_scene


def reference_roi_pool(fm, roi, bins=7):
    """Max-pool one bin at a time: the scalar version of ``roi_pool``."""
    s = float(fm.stride)
    x0, y0 = roi.x_min / s, roi.y_min / s
    x1, y1 = roi.x_max / s, roi.y_max / s
    if x1 <= 0 or y1 <= 0 or x0 >= fm.width or y0 >= fm.height:
        raise ValueError("roi lies entirely outside the feature map")
    if x1 <= x0 or y1 <= y0:
        raise ValueError("roi must have positive area in feature coordinates")

    def clamp_range(lo, hi, size, center):
        lo = max(lo, 0)
        hi = min(hi, size)
        if hi <= lo:
            nearest = int(np.clip(np.floor(center), 0, size - 1))
            return nearest, nearest + 1
        return lo, hi

    out = np.empty((bins, bins, fm.channels), dtype=np.float64)
    bw = (x1 - x0) / bins
    bh = (y1 - y0) / bins
    for p in range(bins):
        r0 = int(np.floor(y0 + p * bh))
        r1 = int(np.ceil(y0 + (p + 1) * bh))
        rows = clamp_range(r0, r1, fm.height, y0 + (p + 0.5) * bh)
        for q in range(bins):
            c0 = int(np.floor(x0 + q * bw))
            c1 = int(np.ceil(x0 + (q + 1) * bw))
            cols = clamp_range(c0, c1, fm.width, x0 + (q + 0.5) * bw)
            out[p, q] = fm.data[:, rows[0] : rows[1], cols[0] : cols[1]].max(axis=(1, 2))
    return out


def _touches_map(fm, b):
    s = fm.stride
    return b.x_max / s > 0 and b.y_max / s > 0 and b.x_min / s < fm.width and b.y_min / s < fm.height


def _random_rois(rng, fm, n):
    """ROIs of four kinds: anywhere (partly outside the map), sub-cell
    (empty bins fall back to the nearest cell), ending exactly on the
    last row and column, and aligned to whole cells."""
    s = fm.stride
    span_x, span_y = fm.width * s, fm.height * s
    rois = []
    while len(rois) < n:
        kind = len(rois) % 4
        if kind == 0:
            x0, y0 = rng.uniform(-100, span_x), rng.uniform(-100, span_y)
            w, h = rng.uniform(0.5, 40 * s, 2)
        elif kind == 1:
            x0, y0 = rng.uniform(0, span_x), rng.uniform(0, span_y)
            w, h = rng.uniform(1e-3, s, 2)
        elif kind == 2:
            w, h = rng.uniform(1, 25 * s, 2)
            x0, y0 = span_x - w, span_y - h
        else:
            x0, y0 = s * rng.integers(-3, fm.width), s * rng.integers(-3, fm.height)
            w, h = s * rng.integers(1, 12, 2)
        box = BBox(float(x0), float(y0), float(x0 + w), float(y0 + h))
        if _touches_map(fm, box):
            rois.append(box)
    return rois


@pytest.mark.parametrize("stride", [16, 32])
@pytest.mark.parametrize("shape", [(7, 62, 50), (7, 31, 25), (3, 5, 4), (2, 1, 1)])
def test_bit_identical_to_reference(stride, shape):
    rng = np.random.default_rng(stride * 1000 + shape[1])
    fm = FeatureMap(data=rng.normal(size=shape), stride=stride)
    for roi in _random_rois(rng, fm, 60):
        for bins in range(1, 9):
            got = roi_pool(fm, roi, bins)
            want = reference_roi_pool(fm, roi, bins)
            assert got.shape == want.shape == (bins, bins, shape[0])
            assert np.array_equal(got, want), (roi, bins)


def test_edge_cases_bit_identical():
    rng = np.random.default_rng(7)
    fm = FeatureMap(data=rng.normal(size=(3, 6, 5)), stride=16)
    rois = [
        BBox(0, 0, 80, 96),  # the whole map: every axis ends on the border
        BBox(64, 80, 80, 96),  # the last cell alone
        BBox(-50, -50, 8, 8),  # mostly above and left of the map
        BBox(70, 90, 500, 500),  # mostly below and right of the map
        BBox(32, 32, 32 + 1e-9, 32 + 1e-9),  # bins collapse onto one cell edge
        BBox(16, 16, 17, 300),  # one thin column running off the bottom
    ]
    for roi in rois:
        for bins in (1, 2, 3, 7, 8):
            assert np.array_equal(roi_pool(fm, roi, bins), reference_roi_pool(fm, roi, bins))


@pytest.mark.parametrize("weights_name", ["random:0", "oracle"])
def test_pipeline_unchanged_with_reference_pooling(weights_name, monkeypatch):
    config = oracle_pipeline_config()
    if weights_name == "oracle":
        weights = build_oracle_weights(config)
    else:
        # random class scores sit near 0.2: keep every candidate
        config = dataclasses.replace(config, score_threshold=0.0)
        weights = random_weights(0)
    dataset = [synthesize_scene(s) for s in (0, 3, 11)]
    got_dets = [detect(image, weights, config) for image, _ in dataset]
    got_ohem = ohem_simulation(dataset, weights, config)

    monkeypatch.setattr(pipeline, "roi_pool", reference_roi_pool)
    want_dets = [detect(image, weights, config) for image, _ in dataset]
    want_ohem = ohem_simulation(dataset, weights, config)
    assert got_dets == want_dets
    assert got_ohem == want_ohem
    assert all(got_dets) and all(img.selected for img in got_ohem.per_image)


# ---------------------------------------------------------------------------
# roi_pool_batch: every ROI of an image in one call
# ---------------------------------------------------------------------------

def _assert_batch_matches_reference(fm, rois, bins):
    got = roi_pool_batch(fm, boxes_to_array(rois), bins)
    assert got.shape == (len(rois), bins, bins, fm.channels)
    for roi, pooled in zip(rois, got):
        assert np.array_equal(pooled, reference_roi_pool(fm, roi, bins)), (roi, bins)


@pytest.mark.parametrize("stride", [16, 32])
@pytest.mark.parametrize(
    "shape", [(7, 62, 50), (7, 31, 25), (3, 5, 4), (2, 1, 1), (3, 1, 9), (3, 9, 1)]
)
def test_batch_bit_identical_to_reference(stride, shape):
    rng = np.random.default_rng(stride * 1000 + shape[1] * 10 + shape[2])
    fm = FeatureMap(data=rng.normal(size=shape), stride=stride)
    rois = _random_rois(rng, fm, 60)
    for bins in range(1, 9):
        _assert_batch_matches_reference(fm, rois, bins)


def test_batch_edge_cases_bit_identical():
    rng = np.random.default_rng(7)
    fm = FeatureMap(data=rng.normal(size=(3, 6, 5)), stride=16)
    rois = [
        BBox(0, 0, 80, 96),
        BBox(64, 80, 80, 96),
        BBox(-50, -50, 8, 8),
        BBox(70, 90, 500, 500),
        BBox(32, 32, 32 + 1e-9, 32 + 1e-9),
        BBox(16, 16, 17, 300),
    ]
    for bins in (1, 2, 3, 7, 8):
        _assert_batch_matches_reference(fm, rois, bins)


def test_batch_equals_roi_pool_on_a_real_feature_map():
    fm = pipeline.extract_features(synthesize_scene(5)[0])
    rois = _random_rois(np.random.default_rng(5), fm, 40)
    got = roi_pool_batch(fm, boxes_to_array(rois), 7)
    for roi, pooled in zip(rois, got):
        assert np.array_equal(pooled, roi_pool(fm, roi, 7))


def test_batch_of_no_rois():
    fm = FeatureMap(data=np.ones((7, 4, 3)), stride=16)
    assert roi_pool_batch(fm, np.zeros((0, 4)), 7).shape == (0, 7, 7, 7)


@pytest.mark.parametrize(
    "bad, message",
    [
        (BBox(-40, -40, -8, -8), "outside the feature map"),
        (BBox(10, 10, 10, 40), "positive area"),
    ],
)
def test_batch_raises_what_roi_pool_raises(bad, message):
    fm = FeatureMap(data=np.ones((2, 4, 3)), stride=16)
    with pytest.raises(ValueError, match=message):
        roi_pool(fm, bad, 7)
    boxes = boxes_to_array([BBox(0, 0, 16, 16), bad, BBox(0, 0, 32, 32)])
    with pytest.raises(ValueError, match=message):
        roi_pool_batch(fm, boxes, 7)


def test_batch_reports_the_first_failing_roi():
    fm = FeatureMap(data=np.ones((2, 4, 3)), stride=16)
    boxes = boxes_to_array([BBox(10, 10, 10, 40), BBox(-40, -40, -8, -8)])
    with pytest.raises(ValueError, match="positive area"):
        roi_pool_batch(fm, boxes, 7)


@pytest.mark.parametrize("boxes", [np.zeros((3,)), np.zeros((2, 3)), np.full((1, 4), np.nan)])
def test_batch_rejects_malformed_box_arrays(boxes):
    fm = FeatureMap(data=np.ones((2, 4, 3)), stride=16)
    with pytest.raises(ValueError):
        roi_pool_batch(fm, boxes, 7)
