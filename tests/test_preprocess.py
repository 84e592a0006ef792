import hashlib
import tracemalloc
from inspect import signature

import numpy as np
import pytest

import raildet.preprocess
from raildet.evaluation import GroundTruthObject
from raildet.geometry import BBox
from raildet.preprocess import preprocess, resize_bilinear
from raildet.synth import synthesize_scene
from raildet.voc import Annotation


def ann_with(*objects, w=100, h=100):
    return Annotation(image_filename="x.ppm", image_width=w, image_height=h, objects=objects)


def gt(x0, y0, x1, y1, cls="V"):
    return GroundTruthObject(class_name=cls, box=BBox(x0, y0, x1, y1))


def resize_reference(image, out_h, out_w, cols=slice(None)):
    """Bilinear resampling over a float64 copy with ``np.ix_`` gathers.

    Each output column is computed from its own source position alone, so
    ``cols`` (default all) picks output columns without changing their bits.
    """
    image = np.asarray(image, dtype=np.float64)
    in_h, in_w = image.shape
    ys = np.clip((np.arange(out_h) + 0.5) * in_h / out_h - 0.5, 0, in_h - 1)
    xs = np.clip((np.arange(out_w)[cols] + 0.5) * in_w / out_w - 0.5, 0, in_w - 1)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, in_h - 1)
    x1 = np.minimum(x0 + 1, in_w - 1)
    fy = (ys - y0)[:, None]
    fx = (xs - x0)[None, :]
    top = image[np.ix_(y0, x0)] * (1 - fx) + image[np.ix_(y0, x1)] * fx
    bot = image[np.ix_(y1, x0)] * (1 - fx) + image[np.ix_(y1, x1)] * fx
    return top * (1 - fy) + bot * fy


class TestResize:
    @pytest.mark.parametrize("shape", [(37, 29), (29, 37), (1, 1), (2, 3),
                                       (1, 17), (17, 1)])
    @pytest.mark.parametrize("out", [(80, 61), (13, 7), (1, 1), (1, 40)])
    def test_bit_identical_to_float_reference(self, shape, out):
        rng = np.random.default_rng(30)
        image = rng.integers(0, 256, shape).astype(np.uint8)
        expected = resize_reference(image, *out)
        for given in (image, image.astype(np.float64)):
            got = resize_bilinear(given, *out)
            assert got.dtype == np.float64
            assert np.array_equal(got, expected)

    def test_fractional_float_input_bit_identical(self):
        rng = np.random.default_rng(31)
        image = rng.uniform(0, 255, (23, 41))
        for out in ((50, 90), (9, 11)):
            assert np.array_equal(resize_bilinear(image, *out), resize_reference(image, *out))

    def test_identity(self):
        rng = np.random.default_rng(29)
        img = rng.uniform(0, 255, (20, 30))
        assert np.allclose(resize_bilinear(img, 20, 30), img)

    def test_constant_preserved(self):
        out = resize_bilinear(np.full((11, 13), 42.0), 37, 19)
        assert np.allclose(out, 42.0)

    def test_output_shape(self):
        assert resize_bilinear(np.zeros((5, 7)), 11, 3).shape == (11, 3)


class TestPreprocess:
    def test_noop_1600x2000(self):
        # height 2000 -> scale 0.5, width 1600 -> 800 exactly
        img = np.tile((np.arange(1600) % 256).astype(np.uint8), (2000, 1))
        out, _ = preprocess(img, ann_with(w=1600, h=2000))
        assert out.shape == (1000, 800)

    def test_crop_2400x2500(self):
        # scale 0.4: width 960, crop columns [80, 880)
        img = np.zeros((2500, 2400), dtype=np.uint8)
        img[:, 1200:] = 200  # right half bright
        out, out_ann = preprocess(img, ann_with(gt(0, 0, 2400, 2500), w=2400, h=2500))
        assert out.shape == (1000, 800)
        # the input midline (x=1200 -> scaled 480 -> canvas 400) stays centered
        assert out[500, 300] < 50
        assert out[500, 500] > 150
        # full-frame gt clips to the whole canvas
        assert out_ann.objects[0].box == BBox(0, 0, 800, 1000)

    def test_pad_1500x2500(self):
        # scale 0.4: width 600, pad 100 black columns each side
        img = np.full((2500, 1500), 200, dtype=np.uint8)
        out, out_ann = preprocess(img, ann_with(gt(0, 0, 100, 100), w=1500, h=2500))
        assert out.shape == (1000, 800)
        assert np.all(out[:, :100] == 0)
        assert np.all(out[:, 700:] == 0)
        assert np.all(out[:, 100:700] == 200)
        # a gt at x=0 maps to x=100
        assert out_ann.objects[0].box.x_min == 100.0

    def test_random_sizes_exact_canvas(self):
        rng = np.random.default_rng(30)
        for _ in range(50):
            w = int(rng.integers(50, 3000))
            h = int(rng.integers(50, 3000))
            img = rng.integers(0, 256, (h, w)).astype(np.uint8)
            out, _ = preprocess(img, ann_with(w=w, h=h))
            assert out.shape == (1000, 800)
            assert out.dtype == np.uint8

    def test_boxes_stay_in_canvas(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            w = int(rng.integers(100, 2500))
            h = int(rng.integers(100, 2500))
            objs = []
            for _ in range(4):
                x0, y0 = rng.uniform(0, w - 10), rng.uniform(0, h - 10)
                objs.append(gt(x0, y0, x0 + rng.uniform(1, w - x0), y0 + rng.uniform(1, h - y0)))
            img = np.zeros((h, w), dtype=np.uint8)
            _, out_ann = preprocess(img, ann_with(*objs, w=w, h=h))
            for o in out_ann.objects:
                b = o.box
                assert 0 <= b.x_min <= b.x_max <= 800
                assert 0 <= b.y_min <= b.y_max <= 1000

    def test_fully_cropped_box_dropped(self):
        # wide image: crop removes the left edge; a sliver there disappears
        img = np.zeros((1000, 8000), dtype=np.uint8)
        _, out_ann = preprocess(img, ann_with(gt(0, 0, 10, 10), w=8000, h=1000))
        assert out_ann.objects == ()

    def test_empty_image_rejected(self):
        with pytest.raises(ValueError, match="1x1"):
            preprocess(np.zeros((0, 10), dtype=np.uint8), ann_with())

    @pytest.mark.parametrize("image", [np.zeros((20, 30, 3), dtype=np.uint8),
                                       np.zeros((20, 30)), np.zeros((20, 30), dtype=np.uint16)],
                             ids=["rgb", "float64", "uint16"])
    def test_only_a_uint8_gray_plane_is_accepted(self, image):
        with pytest.raises(ValueError, match="2-D uint8 gray plane"):
            preprocess(image, ann_with(w=30, h=20))

    def test_deterministic(self):
        rng = np.random.default_rng(32)
        img = rng.integers(0, 256, (1234, 777)).astype(np.uint8)
        a, _ = preprocess(img, ann_with(w=777, h=1234))
        b, _ = preprocess(img, ann_with(w=777, h=1234))
        assert np.array_equal(a, b)


class TestCropBeforeResample:
    def test_extreme_aspect_ratio_stays_small(self):
        # scaled to 1000 x 233,333 the full resize would need ~1.9 GB
        rng = np.random.default_rng(40)
        image = rng.integers(0, 256, (3, 700)).astype(np.uint8)
        out, _ = preprocess(image, ann_with(w=700, h=3))
        assert out.shape == (1000, 800) and out.dtype == np.uint8

    @pytest.mark.parametrize("shape", [(25, 100), (30, 100), (997, 1301), (20, 17)])
    def test_crop_equals_resize_everything_then_crop(self, shape):
        rng = np.random.default_rng(41)
        image = rng.integers(0, 256, shape).astype(np.uint8)
        w1 = int(round(1000 / shape[0] * shape[1]))
        left = (w1 - 800) // 2
        full = resize_bilinear(image, 1000, w1)[:, left : left + 800]
        expected = np.clip(np.round(full), 0, 255).astype(np.uint8)
        out, _ = preprocess(image, ann_with(w=shape[1], h=shape[0]))
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("cols", [slice(0, 1), slice(5, 9), slice(30, 61), slice(60, 61),
                                      slice(None, None, 7), slice(100, 200), slice(5, 5)])
    def test_column_subset_bit_identical(self, cols):
        rng = np.random.default_rng(42)
        for image in (rng.integers(0, 256, (37, 29)).astype(np.uint8),
                      rng.uniform(0, 255, (5, 83))):
            full = resize_bilinear(image, 80, 61)
            assert np.array_equal(resize_bilinear(image, 80, 61, cols), full[:, cols])

    @pytest.mark.parametrize("rows", [slice(0, 1), slice(5, 9), slice(0, 64), slice(64, 80),
                                      slice(79, 80), slice(60, 200), slice(None, None, 7),
                                      slice(100, 200), slice(5, 5)])
    def test_row_subset_bit_identical(self, rows):
        rng = np.random.default_rng(44)
        for image in (rng.integers(0, 256, (37, 29)).astype(np.uint8),
                      rng.integers(0, 256, (250, 3)).astype(np.uint8),
                      rng.uniform(0, 255, (5, 83))):
            full = resize_bilinear(image, 80, 61)
            assert np.array_equal(resize_bilinear(image, 80, 61, rows=rows), full[rows])
            cols = slice(10, 50)
            assert np.array_equal(resize_bilinear(image, 80, 61, cols, rows), full[rows, cols])


def canvas_reference(image):
    """Resample every column the canvas shows, then pad or crop, then
    round, clip and cast to uint8."""
    h, w = image.shape
    w1 = max(int(round(1000 / h * w)), 1)
    if w1 < 800:
        left = (800 - w1) // 2
        canvas = np.zeros((1000, 800))
        canvas[:, left : left + w1] = resize_reference(image, 1000, w1)
    else:
        left = (w1 - 800) // 2
        canvas = resize_reference(image, 1000, w1, slice(left, left + 800))
    return np.clip(np.round(canvas), 0, 255).astype(np.uint8)


class TestOneCanvasPath:
    # (raw height, raw width) -> scaled width w1 and margin |800 - w1|
    @pytest.mark.parametrize("shape", [
        (100, 60),    # w1 600: pad 200, even
        (200, 121),   # w1 605: pad 195, odd
        (200, 200),   # w1 1000: crop 200, even
        (200, 201),   # w1 1005: crop 205, odd
        (200, 160),   # w1 800: exact fit
        (50, 1),      # w1 20: one source column
        (3, 700),     # w1 233,333: crop 232,533, odd
    ], ids=["pad-even", "pad-odd", "crop-even", "crop-odd", "exact", "1px-wide", "3x700"])
    def test_equals_resize_pad_or_crop_round_clip(self, shape):
        rng = np.random.default_rng(43)
        image = rng.integers(0, 256, shape).astype(np.uint8)
        out, _ = preprocess(image, ann_with(w=shape[1], h=shape[0]))
        assert out.dtype == np.uint8
        assert np.array_equal(out, canvas_reference(image))

    @pytest.mark.parametrize("shape", [(100, 60), (200, 201)], ids=["pad", "crop"])
    def test_resamples_once(self, monkeypatch, shape):
        # row blocks of one column band that tile the canvas height once:
        # no canvas row is resampled twice
        calls = []

        def counted(*args, **kwargs):
            bound = signature(resize_bilinear).bind(*args, **kwargs)
            bound.apply_defaults()
            calls.append(bound.arguments)
            return resize_bilinear(*args, **kwargs)

        monkeypatch.setattr(raildet.preprocess, "resize_bilinear", counted)
        preprocess(np.zeros(shape, dtype=np.uint8), ann_with(w=shape[1], h=shape[0]))
        assert len({(c["out_h"], c["out_w"], c["cols"].indices(c["out_w"])) for c in calls}) == 1
        covered = []
        for c in calls:
            covered.extend(range(*c["rows"].indices(c["out_h"])))
        assert sorted(covered) == list(range(1000))

    # a 1-row image scales to at least 1000 columns, so it always crops
    @pytest.mark.parametrize("shape", [
        (h, max(round(h * ratio), 1))
        for h in (1, 2, 63, 64, 65, 999, 1000, 1001, 1563, 2500, 4000)
        for ratio in ((0.6, 1.1) if h > 1 else (1,))
    ], ids=lambda shape: f"{shape[0]}x{shape[1]}")
    def test_block_edges_equal_reference(self, shape):
        rng = np.random.default_rng(45)
        image = rng.integers(0, 256, shape).astype(np.uint8)
        out, _ = preprocess(image, ann_with(w=shape[1], h=shape[0]))
        assert np.array_equal(out, canvas_reference(image))


def scaled_scene(seed, h, w):
    """Synthetic scene ``seed`` scaled to h x w by nearest neighbour."""
    scene = synthesize_scene(seed)[0]
    ys = ((np.arange(h) + 0.5) * scene.shape[0] / h).astype(int)
    xs = ((np.arange(w) + 0.5) * scene.shape[1] / w).astype(int)
    return scene[np.ix_(ys, xs)]


# one raw image of each ingest kind and the sha256 of its canvas, as the
# whole-canvas resample gave it
@pytest.mark.parametrize("seed, shape, digest", [
    (0, (1300, 1200), "2b4483a1dd3710e84d63cc8d575504693c1ed51f42fde065d21dac99d81b8631"),
    (1, (800, 720), "64ae6103bca8efbfb330c63b4a82f65be9f2ba5a1d458eef26ff02761a7f50b9"),
    (2, (1300, 800), "a7906690a0dd02dd309ad5b43ecdb19f96b630f72a03b0b014cae7e08e5a4b41"),
    (3, (800, 500), "1b74f9d08d85708af7d3ff52a1a70fb7b5e40fe028b158f8a9a51c91f9181419"),
], ids=["crop-down", "crop-up", "pad-down", "pad-up"])
def test_ingest_canvas_pinned(seed, shape, digest):
    out, _ = preprocess(scaled_scene(seed, *shape), ann_with(w=shape[1], h=shape[0]))
    assert hashlib.sha256(out.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("h, w, bound", [
    (1400, 1330, 1.2e6),
    (1400, 840, 1.2e6),
    # the tap rows of a 4,000-row raw's band are sparse in their span, and
    # the column window is a strided view of the raw: a gather on it that
    # copied the window whole would hold ~13 MB
    (4000, 3600, 1.6e6),
], ids=["crop", "pad", "crop-4000"])
def test_band_memory_stays_small(h, w, bound):
    # each band of the canvas holds its column blends and row taps, and
    # nothing of the size of the raw or of the canvas
    image = np.random.default_rng(46).integers(0, 256, (h, w)).astype(np.uint8)
    ann = ann_with(w=w, h=h)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        canvas, _ = preprocess(image, ann)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak - canvas.nbytes <= bound, peak
