import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raildet.geometry import (
    BBox,
    BoxDelta,
    area,
    boxes_to_array,
    clip,
    clip_array,
    decode,
    decode_array,
    encode,
    iou,
    iou_matrix,
    iou_pairs,
)


def box(*vals):
    return BBox(*vals)


class TestBBox:
    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            BBox(10, 0, 5, 10)
        with pytest.raises(ValueError):
            BBox(0, 10, 10, 5)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            BBox(0, 0, math.inf, 10)
        with pytest.raises(ValueError):
            BBox(math.nan, 0, 1, 1)

    def test_degenerate_allowed(self):
        b = BBox(3, 3, 3, 9)
        assert b.width == 0


class TestArea:
    def test_square(self):
        assert area(box(0, 0, 10, 10)) == 100

    def test_degenerate_width(self):
        assert area(box(3, 3, 3, 9)) == 0

    def test_full_canvas(self):
        assert area(box(0, 0, 800, 1000)) == 800000


class TestIou:
    def test_identical(self):
        assert iou(box(0, 0, 10, 10), box(0, 0, 10, 10)) == 1.0

    def test_disjoint(self):
        assert iou(box(0, 0, 10, 10), box(20, 20, 30, 30)) == 0.0

    def test_quarter_overlap(self):
        # intersection 25, union 100 + 100 - 25
        v = iou(box(0, 0, 10, 10), box(5, 5, 15, 15))
        assert abs(v - 25 / 175) < 1e-12

    def test_touching_edges_is_zero(self):
        assert iou(box(0, 0, 10, 10), box(10, 0, 20, 10)) == 0.0

    def test_both_degenerate(self):
        assert iou(box(1, 1, 1, 1), box(1, 1, 1, 1)) == 0.0

    @given(
        st.lists(st.floats(-100, 100), min_size=8, max_size=8),
    )
    def test_invariants(self, vals):
        xs = sorted(vals[:2]), sorted(vals[2:4])
        ys = sorted(vals[4:6]), sorted(vals[6:8])
        a = BBox(xs[0][0], ys[0][0], xs[0][1], ys[0][1])
        b = BBox(xs[1][0], ys[1][0], xs[1][1], ys[1][1])
        v = iou(a, b)
        assert 0.0 <= v <= 1.0
        assert v == iou(b, a)


class TestEncodeDecode:
    def test_identity(self):
        d = encode(box(0, 0, 10, 10), box(0, 0, 10, 10))
        assert d.as_tuple() == (0, 0, 0, 0)

    def test_half_width_shift(self):
        d = encode(box(0, 0, 10, 10), box(5, 0, 15, 10))
        assert d.as_tuple() == (0.5, 0, 0, 0)

    def test_double_width(self):
        d = encode(box(0, 0, 10, 10), box(0, 0, 20, 10))
        assert d.tx == 0.5
        assert d.ty == 0.0
        assert abs(d.tw - math.log(2)) < 1e-15
        assert d.th == 0.0

    def test_decode_zero(self):
        a = box(2, 3, 12, 33)
        assert decode(a, BoxDelta(0, 0, 0, 0)) == a

    def test_decode_shift(self):
        out = decode(box(0, 0, 10, 10), BoxDelta(0.5, 0, 0, 0))
        assert out == box(5, 0, 15, 10)

    def test_degenerate_anchor_rejected(self):
        with pytest.raises(ValueError):
            encode(box(0, 0, 0, 10), box(0, 0, 10, 10))
        with pytest.raises(ValueError):
            decode(box(0, 0, 0, 10), BoxDelta(0, 0, 0, 0))

    def test_degenerate_target_rejected(self):
        with pytest.raises(ValueError):
            encode(box(0, 0, 10, 10), box(0, 0, 0, 10))

    def test_round_trip_random(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            a = _random_box(rng)
            t = _random_box(rng)
            out = decode(a, encode(a, t))
            assert max(abs(x - y) for x, y in zip(out.as_tuple(), t.as_tuple())) < 1e-9


class TestClip:
    def test_clamp_origin(self):
        assert clip(box(-5, -5, 10, 10), 800, 1000) == box(0, 0, 10, 10)

    def test_clamp_far_edge(self):
        assert clip(box(0, 0, 900, 1100), 800, 1000) == box(0, 0, 800, 1000)

    def test_inside_unchanged(self):
        b = box(10, 20, 700, 900)
        assert clip(b, 800, 1000) == b

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            b = _random_box(rng, lo=-2000, hi=3000)
            once = clip(b, 800, 1000)
            assert clip(once, 800, 1000) == once

    def test_bad_canvas(self):
        with pytest.raises(ValueError):
            clip(box(0, 0, 1, 1), 0, 10)


def _random_box(rng, lo=-500.0, hi=1500.0):
    x = np.sort(rng.uniform(lo, hi, 2))
    y = np.sort(rng.uniform(lo, hi, 2))
    return BBox(x[0], y[0], x[1] + 1.0, y[1] + 1.0)


class TestArrayHelpers:
    def test_iou_matrix_matches_scalar(self):
        rng = np.random.default_rng(2)
        a = [_random_box(rng) for _ in range(13)]
        b = [_random_box(rng) for _ in range(7)]
        m = iou_matrix(boxes_to_array(a), boxes_to_array(b))
        for i, ba in enumerate(a):
            for j, bb in enumerate(b):
                assert abs(m[i, j] - iou(ba, bb)) < 1e-12

    def test_iou_matrix_empty(self):
        assert iou_matrix(np.zeros((0, 4)), np.zeros((3, 4))).shape == (0, 3)

    def test_encode_decode_array_match_scalar(self):
        rng = np.random.default_rng(3)
        anchors = [_random_box(rng) for _ in range(50)]
        targets = [_random_box(rng) for _ in range(50)]
        aa, ta = boxes_to_array(anchors), boxes_to_array(targets)
        enc = np.array([encode(a, t).as_tuple() for a, t in zip(anchors, targets)])
        dec = decode_array(aa, enc)
        assert np.allclose(dec, ta, atol=1e-9)

    def test_clip_array_matches_scalar(self):
        rng = np.random.default_rng(4)
        boxes = [_random_box(rng, -900, 1900) for _ in range(40)]
        arr = clip_array(boxes_to_array(boxes), 800, 1000)
        for i, b in enumerate(boxes):
            assert tuple(arr[i]) == clip(b, 800, 1000).as_tuple()


def test_iou_matrix_equals_iou_pairs_where_the_union_is_not_positive():
    # zero-area, inverted and NaN boxes: every pair without a positive union
    # reads 0 in both forms, and every other pair has the same bits
    boxes = np.array([
        [0.0, 0.0, 10.0, 10.0], [5.0, 5.0, 5.0, 5.0], [5.0, 5.0, 5.0, 5.0],
        [8.0, 8.0, 2.0, 2.0], [np.nan, 0.0, 4.0, 4.0], [3.0, 3.0, 12.0, 9.0],
    ])
    got = iou_matrix(boxes, boxes)
    n = len(boxes)
    want = iou_pairs(np.repeat(boxes, n, axis=0), np.tile(boxes, (n, 1))).reshape(n, n)
    assert got.tobytes() == want.tobytes()
    assert not np.isnan(got).any()
