import numpy as np

from raildet.evaluation import CLASS_NAMES
from raildet.geometry import iou
from raildet.synth import (
    BRIGHTNESS_BANDS,
    GLYPH_AREAS,
    GLYPH_MASKS,
    GLYPH_SIZE,
    synthesize_scene,
)


def test_masks_are_point_symmetric():
    for name, mask in GLYPH_MASKS.items():
        assert mask.shape == (GLYPH_SIZE, GLYPH_SIZE)
        assert np.array_equal(mask, mask[::-1, ::-1]), name


def test_masks_touch_all_edges():
    for name, mask in GLYPH_MASKS.items():
        assert mask[0].any() and mask[-1].any(), name
        assert mask[:, 0].any() and mask[:, -1].any(), name


def test_areas_distinct():
    areas = list(GLYPH_AREAS.values())
    assert len(set(areas)) == len(areas)


def test_bands_disjoint_and_above_background():
    prev_hi = 100.0
    for name in CLASS_NAMES:
        lo, hi = BRIGHTNESS_BANDS[name]
        assert lo > prev_hi
        prev_hi = hi


def test_object_count_in_range():
    for seed in range(30):
        _, ann = synthesize_scene(seed)
        assert 1 <= len(ann.objects) <= 6


def test_deterministic():
    img_a, ann_a = synthesize_scene(42)
    img_b, ann_b = synthesize_scene(42)
    assert np.array_equal(img_a, img_b)
    assert ann_a == ann_b


def test_boxes_in_canvas_and_disjoint():
    for seed in range(20):
        img, ann = synthesize_scene(seed)
        assert img.shape == (1000, 800)
        assert img.dtype == np.uint8
        boxes = [o.box for o in ann.objects]
        for b in boxes:
            assert 0 <= b.x_min <= b.x_max <= 800
            assert 0 <= b.y_min <= b.y_max <= 1000
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                assert iou(boxes[i], boxes[j]) == 0.0


def test_glyphs_render_in_their_band():
    img, ann = synthesize_scene(3)
    for o in ann.objects:
        lo, hi = BRIGHTNESS_BANDS[o.class_name]
        x0, y0 = int(o.box.x_min), int(o.box.y_min)
        patch = img[y0 : y0 + GLYPH_SIZE, x0 : x0 + GLYPH_SIZE].astype(float)
        mask = GLYPH_MASKS[o.class_name]
        assert patch[mask].min() >= lo - 0.5
        assert patch[mask].max() <= hi + 0.5
        assert patch[~mask].max() < 100


def test_background_below_first_threshold():
    img, ann = synthesize_scene(8)
    cover = np.zeros(img.shape, dtype=bool)
    for o in ann.objects:
        x0, y0 = int(o.box.x_min), int(o.box.y_min)
        cover[y0 : y0 + GLYPH_SIZE, x0 : x0 + GLYPH_SIZE] = True
    assert img[~cover].max() < 100


def test_separation_allows_48px_windows():
    # no two glyph centers closer than 80 px in both axes, so no 48x48
    # window can span two glyphs
    for seed in range(20):
        _, ann = synthesize_scene(seed)
        boxes = [o.box for o in ann.objects]
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                dx = abs(boxes[i].x_min - boxes[j].x_min)
                dy = abs(boxes[i].y_min - boxes[j].y_min)
                assert dx >= 80 or dy >= 80
