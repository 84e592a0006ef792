import numpy as np
import pytest

from raildet.geometry import BBox
from raildet.synth import synthesize_scene
from raildet.model import (
    CHAN_LUM,
    CHAN_OCC,
    CHAN_XMOM,
    CHAN_YMOM,
    INTENSITY_THRESHOLDS,
    NUM_CHANNELS,
    NUM_CLASSES,
    AttachStage,
    BackboneSpec,
    BnParams,
    DetectHead,
    FeatureMap,
    apply_batchnorm,
    conv2d_3x3,
    detect_forward,
    detect_forward_batch,
    extract_features,
    fold_batchnorm,
    load_weights,
    random_weights,
    roi_pool,
    rpn_forward,
    save_weights,
)


class TestBackboneSpec:
    def test_strides(self):
        assert BackboneSpec(attach_stage=AttachStage.STAGE4).stride == 16
        assert BackboneSpec(attach_stage=AttachStage.STAGE5, stage5_downsample=True).stride == 32
        assert BackboneSpec(attach_stage=AttachStage.STAGE5, stage5_downsample=False).stride == 16


def reference_features(image, spec):
    """The filter bank as float cell means over float64 planes."""
    image = np.asarray(image, dtype=np.float64)
    s = spec.stride
    h, w = 1000 // s, 800 // s
    cropped = image[: h * s, : w * s]

    def cell_mean(plane):
        return plane.reshape(h, s, w, s).mean(axis=(1, 3))

    chans = np.empty((NUM_CHANNELS, h, w))
    chans[CHAN_LUM] = cell_mean(cropped) / 255.0
    for c, t in zip(CHAN_OCC, INTENSITY_THRESHOLDS):
        chans[c] = cell_mean((cropped > t).astype(np.float64))
    occ0 = (cropped > INTENSITY_THRESHOLDS[0]).astype(np.float64)
    wx = ((np.arange(w * s) % s) + 0.5 - 0.5 * s) / s
    wy = ((np.arange(h * s) % s) + 0.5 - 0.5 * s) / s
    chans[CHAN_XMOM] = cell_mean(occ0 * wx[None, :])
    chans[CHAN_YMOM] = cell_mean(occ0 * wy[:, None])
    return chans


class TestExtractFeatures:
    @pytest.mark.parametrize("stage5_downsample", [False, True])
    def test_bit_identical_to_float_reference(self, stage5_downsample):
        spec = BackboneSpec(stage5_downsample=stage5_downsample)
        rng = np.random.default_rng(21)
        images = [synthesize_scene(seed)[0] for seed in (0, 7)]
        images.append(rng.uniform(0, 255, (1000, 800)))
        images.append(rng.integers(0, 256, (1000, 800)).astype(np.uint8))
        images.append(np.full((1000, 800), 255, dtype=np.uint8))
        # fractions at and around every threshold
        images.append(rng.choice([99.5, 100.0, 100.25, 159.999, 160.0, 190.5, 220.0, 220.01],
                                 size=(1000, 800)))
        for image in images:
            expected = reference_features(image, spec)
            # a uint8 image and its float64 copy take different paths
            for given in (image, image.astype(np.float64)):
                assert np.array_equal(extract_features(given, spec).data, expected)

    def test_rejects_wrong_size(self):
        with pytest.raises(ValueError, match="800x1000"):
            extract_features(np.zeros((500, 400)))

    def test_constant_image_constant_channels(self):
        fm = extract_features(np.full((1000, 800), 120.0))
        for c in range(NUM_CHANNELS):
            assert np.allclose(fm.data[c], fm.data[c].flat[0])
        assert np.allclose(fm.data[CHAN_LUM], 120.0 / 255.0)
        assert np.allclose(fm.data[CHAN_OCC[0]], 1.0)  # 120 > 100
        assert np.allclose(fm.data[CHAN_OCC[1]], 0.0)  # 120 <= 160

    def test_stage4_shape(self):
        fm = extract_features(np.zeros((1000, 800)), BackboneSpec(attach_stage=AttachStage.STAGE4))
        assert (fm.height, fm.width) == (62, 50)
        assert fm.stride == 16

    def test_stage5_no_downsample_matches_stage4(self):
        fm = extract_features(
            np.zeros((1000, 800)),
            BackboneSpec(attach_stage=AttachStage.STAGE5, stage5_downsample=False),
        )
        assert (fm.height, fm.width) == (62, 50)

    def test_stage5_downsample_halves(self):
        fm = extract_features(
            np.zeros((1000, 800)),
            BackboneSpec(attach_stage=AttachStage.STAGE5, stage5_downsample=True),
        )
        assert (fm.height, fm.width) == (31, 25)
        assert fm.stride == 32

    def test_occupancy_fraction(self):
        img = np.zeros((1000, 800))
        img[:8, :16] = 200.0  # half of the top-left 16x16 cell
        fm = extract_features(img)
        assert abs(fm.data[CHAN_OCC[0], 0, 0] - 0.5) < 1e-12
        assert abs(fm.data[CHAN_OCC[2], 0, 0] - 0.5) < 1e-12
        assert fm.data[CHAN_OCC[3], 0, 0] == 0.0


class TestConv:
    def test_identity_kernel(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(3, 6, 5))
        w = np.zeros((3, 3, 3, 3))
        for d in range(3):
            w[d, d, 1, 1] = 1.0
        out = conv2d_3x3(x, w, np.zeros(3))
        assert np.allclose(out, x)

    def test_linearity(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(2, 4, 4))
        w = rng.normal(size=(5, 2, 3, 3))
        b = rng.normal(size=5)
        a = conv2d_3x3(2 * x, w, np.zeros(5))
        assert np.allclose(a, 2 * conv2d_3x3(x, w, np.zeros(5)))
        assert np.allclose(conv2d_3x3(x, w, b), conv2d_3x3(x, w, np.zeros(5)) + b[:, None, None])

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(2, 5, 6))
        w = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        out = conv2d_3x3(x, w, b)
        padded = np.pad(x, ((0, 0), (1, 1), (1, 1)))
        for d in range(3):
            for i in range(5):
                for j in range(6):
                    ref = (w[d] * padded[:, i : i + 3, j : j + 3]).sum() + b[d]
                    assert abs(out[d, i, j] - ref) < 1e-9


class TestRpnForward:
    def _fm(self, h=4, w=5):
        rng = np.random.default_rng(16)
        return FeatureMap(data=rng.normal(size=(NUM_CHANNELS, h, w)), stride=16)

    def test_zero_weights_give_half_scores(self):
        weights = random_weights(0, scale=0.0)
        fm = self._fm()
        scores, deltas = rpn_forward(fm, weights.rpn, 9)
        assert scores.shape == (4 * 5 * 9,)
        assert deltas.shape == (4 * 5 * 9, 4)
        assert np.allclose(scores, 0.5)
        assert np.allclose(deltas, 0.0)

    def test_scores_in_unit_interval(self):
        weights = random_weights(17, scale=0.5)
        scores, _ = rpn_forward(self._fm(), weights.rpn, 9)
        assert np.all(scores >= 0) and np.all(scores <= 1)

    def test_k_mismatch(self):
        weights = random_weights(0)
        with pytest.raises(ValueError):
            rpn_forward(self._fm(), weights.rpn, 3)

    def test_grid_order_matches_anchors(self):
        # zero conv + per-anchor score bias: every cell carries the same
        # per-anchor pattern, and flattening follows cells-then-anchor order
        weights = random_weights(0, scale=0.0)
        rpn = weights.rpn
        bias = np.zeros(18)
        bias[2 * 3 + 1] = 5.0  # anchor 3 foreground
        import dataclasses

        rpn = dataclasses.replace(rpn, score_b=bias)
        scores, _ = rpn_forward(self._fm(), rpn, 9)
        per_cell = scores.reshape(-1, 9)
        assert np.all(per_cell[:, 3] > 0.99)
        assert np.allclose(per_cell[:, [0, 1, 2, 4, 5, 6, 7, 8]], 0.5)


class TestRoiPool:
    def test_uniform_map(self):
        fm = FeatureMap(data=np.full((2, 10, 10), 3.0), stride=16)
        out = roi_pool(fm, BBox(10, 10, 100, 120), bins=7)
        assert out.shape == (7, 7, 2)
        assert np.all(out == 3.0)

    def test_single_cell_roi(self):
        data = np.arange(100, dtype=float).reshape(1, 10, 10)
        fm = FeatureMap(data=data, stride=16)
        out = roi_pool(fm, BBox(32, 48, 48, 64), bins=7)  # cell (row 3, col 2)
        assert np.all(out == data[0, 3, 2])

    def test_2x2_partition(self):
        data = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 2, 2)
        fm = FeatureMap(data=data, stride=16)
        out = roi_pool(fm, BBox(0, 0, 32, 32), bins=2)
        assert np.allclose(out[:, :, 0], [[1, 2], [3, 4]])

    def test_outside_rejected(self):
        fm = FeatureMap(data=np.zeros((1, 10, 10)), stride=16)
        with pytest.raises(ValueError):
            roi_pool(fm, BBox(200, 200, 300, 300))

    def test_max_semantics(self):
        data = np.zeros((1, 4, 4))
        data[0, 1, 1] = 9.0
        fm = FeatureMap(data=data, stride=16)
        out = roi_pool(fm, BBox(0, 0, 64, 64), bins=1)
        assert out[0, 0, 0] == 9.0


class TestDetectForward:
    def _head(self, seed=18, scale=0.05):
        return random_weights(seed, scale=scale).det

    def test_zero_weights_uniform(self):
        head = random_weights(0, scale=0.0).det
        probs, deltas = detect_forward(np.zeros((7, 7, NUM_CHANNELS)), head)
        assert np.allclose(probs, 0.2)
        assert np.allclose(deltas, 0.0)
        assert deltas.shape == (4, 4)

    def test_probs_sum_to_one(self):
        rng = np.random.default_rng(19)
        for seed in range(20):
            head = self._head(seed, scale=0.5)
            probs, _ = detect_forward(rng.normal(size=(7, 7, NUM_CHANNELS)), head)
            assert abs(probs.sum() - 1.0) < 1e-6

    def test_hand_set_weights_pick_class(self):
        head = random_weights(0, scale=0.0).det
        import dataclasses

        cls_b = np.zeros(NUM_CLASSES)
        cls_b[1] = 4.0  # class V
        head = dataclasses.replace(head, cls_b=cls_b)
        probs, _ = detect_forward(np.zeros((7, 7, NUM_CHANNELS)), head)
        assert int(np.argmax(probs)) == 1

    def test_size_mismatch(self):
        head = self._head()
        with pytest.raises(ValueError):
            detect_forward(np.zeros((3, 3, NUM_CHANNELS)), head)


class TestBatchNormFolding:
    def test_identity_bn(self):
        rng = np.random.default_rng(20)
        w = rng.normal(size=(4, 2, 3, 3))
        b = rng.normal(size=4)
        bn = BnParams(
            gamma=np.ones(4), beta=np.zeros(4), mean=np.zeros(4),
            variance=np.ones(4), epsilon=1e-12,
        )
        fw, fb = fold_batchnorm(w, b, bn)
        assert np.allclose(fw, w, atol=1e-9)
        assert np.allclose(fb, b, atol=1e-9)

    def test_gamma_two_doubles(self):
        w = np.ones((2, 1, 3, 3))
        b = np.array([1.0, 2.0])
        bn = BnParams(
            gamma=np.full(2, 2.0), beta=np.zeros(2), mean=np.zeros(2),
            variance=np.ones(2), epsilon=1e-12,
        )
        fw, fb = fold_batchnorm(w, b, bn)
        assert np.allclose(fw, 2.0, atol=1e-9)
        assert np.allclose(fb, 2 * b, atol=1e-9)

    def test_folded_equals_unfused(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            d, c = int(rng.integers(1, 6)), int(rng.integers(1, 4))
            w = rng.normal(size=(d, c, 3, 3))
            b = rng.normal(size=d)
            bn = BnParams(
                gamma=rng.uniform(0.5, 2.0, d),
                beta=rng.normal(size=d),
                mean=rng.normal(size=d),
                variance=rng.uniform(0.1, 3.0, d),
            )
            x = rng.normal(size=(c, 5, 5))
            fused = conv2d_3x3(x, *fold_batchnorm(w, b, bn))
            ref = apply_batchnorm(conv2d_3x3(x, w, b), bn)
            assert np.max(np.abs(fused - ref)) <= 1e-6 * max(1.0, np.max(np.abs(ref)))

    def test_shape_mismatch(self):
        bn = BnParams(gamma=np.ones(3), beta=np.zeros(3), mean=np.zeros(3), variance=np.ones(3))
        with pytest.raises(ValueError):
            fold_batchnorm(np.ones((4, 1, 3, 3)), np.ones(4), bn)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            BnParams(gamma=np.ones(2), beta=np.zeros(2), mean=np.zeros(2),
                     variance=np.array([1.0, -0.5]))


class TestWeightFiles:
    def test_round_trip(self, tmp_path):
        weights = random_weights(22)
        path = tmp_path / "w.bin"
        save_weights(weights, path)
        loaded = load_weights(path)
        for name, arr in weights.tensors().items():
            assert np.allclose(loaded.tensors()[name], arr, atol=1e-6), name

    def test_sidecar_lists_shapes(self, tmp_path):
        weights = random_weights(23)
        path = tmp_path / "w.bin"
        save_weights(weights, path)
        meta = (tmp_path / "w.bin.meta").read_text()
        assert "rpn.conv.weight 256 7 3 3" in meta
        assert "det.cls.bias 5" in meta

    def test_truncated_file_rejected(self, tmp_path):
        weights = random_weights(24)
        path = tmp_path / "w.bin"
        save_weights(weights, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(Exception):
            load_weights(path)


class TestBadWeightFiles:
    @pytest.fixture
    def files(self, tmp_path):
        path = tmp_path / "w.bin"
        save_weights(random_weights(25), path)
        meta = tmp_path / "w.bin.meta"
        return path, meta, meta.read_text().splitlines()

    def _rejected(self, path, named, *needles):
        """Loading ``path`` fails with a message naming the file ``named``."""
        with pytest.raises(ValueError) as info:
            load_weights(path)
        for needle in (str(named),) + needles:
            assert needle in str(info.value)

    def test_missing_tensor(self, files):
        path, meta, lines = files
        meta.write_text("\n".join(lines[:-1]) + "\n")
        self._rejected(path, meta, "det.reg.bias", "missing")

    def test_unknown_tensor(self, files):
        path, meta, lines = files
        meta.write_text("\n".join(lines + ["det.extra.bias 3"]) + "\n")
        self._rejected(path, meta, "det.extra.bias")

    def test_duplicated_tensor(self, files):
        path, meta, lines = files
        meta.write_text("\n".join(lines + [lines[1]]) + "\n")
        self._rejected(path, meta, "rpn.conv.bias", "twice")

    @pytest.mark.parametrize("shape", ["", "5 x", "5 0", "343", "5 343 1", "-5 343"])
    def test_bad_shape_line(self, files, shape):
        path, meta, lines = files
        lines = [f"det.cls.weight {shape}" if ln.startswith("det.cls.weight") else ln
                 for ln in lines]
        meta.write_text("\n".join(lines) + "\n")
        self._rejected(path, meta, "det.cls.weight")

    @pytest.mark.parametrize("extra", [4, 2])
    def test_binary_too_long(self, files, extra):
        path, _, _ = files
        path.write_bytes(path.read_bytes() + b"\0" * extra)
        self._rejected(path, path, f"{extra} bytes after", "det.reg.bias")

    def test_shape_the_head_rejects(self, files):
        path, meta, lines = files
        # same float count, but a 128-wide intermediate layer
        lines = [ln.replace("256 7 3 3", "128 14 3 3") for ln in lines]
        meta.write_text("\n".join(lines) + "\n")
        self._rejected(path, path, "intermediate dimension")


class TestDetectForwardBatch:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rows_equal_detect_forward(self, seed):
        head = random_weights(seed).det
        rng = np.random.default_rng(seed)
        pooled = rng.normal(size=(300, 7, 7, NUM_CHANNELS)) * rng.uniform(0.1, 20)
        probs, deltas = detect_forward_batch(pooled, head)
        assert probs.shape == (300, NUM_CLASSES)
        assert deltas.shape == (300, NUM_CLASSES - 1, 4)
        for row, p, d in zip(pooled, probs, deltas):
            want_p, want_d = detect_forward(row, head)
            assert np.array_equal(p, want_p)
            assert np.array_equal(d, want_d)

    def test_no_rois(self):
        probs, deltas = detect_forward_batch(np.zeros((0, 7, 7, NUM_CHANNELS)),
                                             random_weights(0).det)
        assert probs.shape == (0, NUM_CLASSES) and deltas.shape == (0, NUM_CLASSES - 1, 4)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not match head"):
            detect_forward_batch(np.zeros((2, 3, 3, NUM_CHANNELS)), random_weights(0).det)
