import numpy as np
import pytest

from raildet.evaluation import GroundTruthObject
from raildet.geometry import BBox
from raildet.preprocess import preprocess, resize_bilinear
from raildet.voc import Annotation


def ann_with(*objects, w=100, h=100):
    return Annotation(image_filename="x.ppm", image_width=w, image_height=h, objects=objects)


def gt(x0, y0, x1, y1, cls="V"):
    return GroundTruthObject(class_name=cls, box=BBox(x0, y0, x1, y1))


def resize_reference(image, out_h, out_w):
    """Bilinear resampling over a float64 copy with ``np.ix_`` gathers."""
    image = np.asarray(image, dtype=np.float64)
    in_h, in_w = image.shape[:2]
    ys = np.clip((np.arange(out_h) + 0.5) * in_h / out_h - 0.5, 0, in_h - 1)
    xs = np.clip((np.arange(out_w) + 0.5) * in_w / out_w - 0.5, 0, in_w - 1)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, in_h - 1)
    x1 = np.minimum(x0 + 1, in_w - 1)
    fy = (ys - y0)[:, None]
    fx = (xs - x0)[None, :]
    if image.ndim == 3:
        fy = fy[..., None]
        fx = fx[..., None]
    top = image[np.ix_(y0, x0)] * (1 - fx) + image[np.ix_(y0, x1)] * fx
    bot = image[np.ix_(y1, x0)] * (1 - fx) + image[np.ix_(y1, x1)] * fx
    return top * (1 - fy) + bot * fy


class TestResize:
    @pytest.mark.parametrize("shape", [(37, 29), (37, 29, 3), (1, 1), (1, 1, 3),
                                       (1, 17), (1, 17, 3)])
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
        image = rng.uniform(0, 255, (23, 41, 3))
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
        with pytest.raises(ValueError):
            preprocess(np.zeros((0, 10)), ann_with())

    def test_deterministic(self):
        rng = np.random.default_rng(32)
        img = rng.integers(0, 256, (1234, 777)).astype(np.uint8)
        a, _ = preprocess(img, ann_with(w=777, h=1234))
        b, _ = preprocess(img, ann_with(w=777, h=1234))
        assert np.array_equal(a, b)
