import numpy as np
import pytest

from raildet.dataio import (
    DatasetSplit,
    read_detections_csv,
    read_split_manifest,
    split,
    write_detections_csv,
    write_split_manifest,
)
from raildet.evaluation import Detection
from raildet.geometry import BBox
from raildet.ppm import read_ppm, write_ppm


class TestPpm:
    def test_gray_round_trip(self, tmp_path):
        rng = np.random.default_rng(33)
        img = rng.integers(0, 256, (11, 7)).astype(np.uint8)
        path = tmp_path / "img.ppm"
        write_ppm(path, img)
        assert np.array_equal(read_ppm(path, grayscale=True), img)

    def test_rgb_round_trip(self, tmp_path):
        rng = np.random.default_rng(34)
        img = rng.integers(0, 256, (5, 6, 3)).astype(np.uint8)
        path = tmp_path / "img.ppm"
        write_ppm(path, img)
        assert np.array_equal(read_ppm(path), img)

    def test_header_comments(self, tmp_path):
        path = tmp_path / "c.ppm"
        pixels = bytes(range(12))
        path.write_bytes(b"P6\n# a comment\n2 2\n255\n" + pixels)
        img = read_ppm(path)
        assert img.shape == (2, 2, 3)
        assert img[0, 0, 0] == 0

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P3\n1 1\n255\n0 0 0\n")
        with pytest.raises(ValueError):
            read_ppm(path)

    @pytest.mark.parametrize("r", [0, 1, 2, 128, 254, 255])
    def test_gray_decode_is_rounded_channel_mean(self, tmp_path, r):
        # every (g, b) pair for this r: g down the rows, b across the columns
        g, b = np.meshgrid(np.arange(256), np.arange(256), indexing="ij")
        rgb = np.stack([np.full_like(g, r), g, b], axis=2).astype(np.uint8)
        path = tmp_path / "all.ppm"
        write_ppm(path, rgb)
        expected = np.round(rgb.mean(axis=2)).astype(np.uint8)
        got = read_ppm(path, grayscale=True)
        assert got.dtype == np.uint8
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize(
        "data",
        [
            b"",
            b"P6\n",
            b"P6\n2 2\n",
            b"P6\n2 2\n255",
            b"P6\n2 x\n255\n" + bytes(12),
            b"P6\n-2 2\n255\n" + bytes(12),
            b"P6\n+2 2\n255\n" + bytes(12),
            b"P6\n0 2\n255\n",
            b"P6\n2 2\n65535\n" + bytes(24),
            b"P6\n2 2\n255\n" + bytes(11),
        ],
    )
    def test_malformed_file_names_the_path(self, tmp_path, data):
        path = tmp_path / "broken.ppm"
        path.write_bytes(data)
        for grayscale in (False, True):
            with pytest.raises(ValueError, match="broken.ppm"):
                read_ppm(path, grayscale=grayscale)

    def test_rejects_wrong_dtype(self, tmp_path):
        with pytest.raises(ValueError):
            write_ppm(tmp_path / "x.ppm", np.zeros((2, 2), dtype=np.float64))


class TestSplit:
    def test_3_to_1(self):
        ds = split(list(range(4)), seed=0)
        assert len(ds.train) == 3
        assert len(ds.val) == 1

    def test_100_items(self):
        ds = split([f"i{i}" for i in range(100)], seed=1)
        assert len(ds.train) == 75
        assert len(ds.val) == 25

    def test_deterministic(self):
        items = [f"img_{i}" for i in range(40)]
        assert split(items, seed=9) == split(items, seed=9)

    def test_partition(self):
        items = [f"img_{i}" for i in range(41)]
        ds = split(items, seed=2)
        assert sorted(ds.train + ds.val) == sorted(items)

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            DatasetSplit(train=("a", "b"), val=("b",))

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            split([1, 2], train_fraction=1.0)

    def test_manifest_round_trip(self, tmp_path):
        ds = split([f"img_{i}.ppm" for i in range(10)], seed=3)
        path = tmp_path / "split.txt"
        write_split_manifest(path, ds)
        assert read_split_manifest(path) == ds

    def test_manifest_rejects_unknown_section(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("[test]\nimg.ppm\n")
        with pytest.raises(ValueError):
            read_split_manifest(path)

    def test_manifest_rejects_headerless_entry(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("img.ppm\n")
        with pytest.raises(ValueError):
            read_split_manifest(path)


class TestDetectionsCsv:
    def test_round_trip(self, tmp_path):
        rows = [
            ("a.ppm", Detection("V", BBox(1.5, 2.25, 30, 40), 0.875)),
            ("b.ppm", Detection("WJ-8", BBox(0, 0, 32, 32), 1.0)),
        ]
        path = tmp_path / "dets.csv"
        write_detections_csv(path, rows)
        out = read_detections_csv(path)
        assert out == rows

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("image,label,score\n")
        with pytest.raises(ValueError):
            read_detections_csv(path)

    def test_empty_file_ok(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_detections_csv(path, [])
        assert read_detections_csv(path) == []
