import numpy as np
import pytest

from raildet.dataio import read_detections_csv, write_detections_csv
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

    @pytest.mark.parametrize("text, where", [
        ("image,label,score\n", "line 1"),
        ("image,class,score,xmin,ymin,xmax,ymax\na.ppm,V,0.5,1,2\n", "line 2"),
        ("image,class,score,xmin,ymin,xmax,ymax\na.ppm,V,nan,1,2,3,4\n", "line 2"),
        ("image,class,score,xmin,ymin,xmax,ymax\na.ppm,V,0.5,1,2,3,4\na.ppm,Q,0.5,1,2,3,4\n",
         "line 3"),
    ])
    def test_errors_name_the_file_and_line(self, tmp_path, text, where):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"bad.csv: {where}: "):
            read_detections_csv(path)

    def test_non_utf8_is_value_error(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("image,class,score,xmin,ymin,xmax,ymax\ncaf\xe9.ppm,V,0.5,1,2,3,4\n"
                         .encode("latin-1"))
        with pytest.raises(ValueError, match="latin1.csv: line"):
            read_detections_csv(path)

    def test_empty_file_ok(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_detections_csv(path, [])
        assert read_detections_csv(path) == []


def whole_plane_gray(rgb):
    """Grayscale decode over the whole plane at once, one uint16 sum."""
    total = rgb[..., 0].astype(np.uint16)
    total += rgb[..., 1]
    total += rgb[..., 2]
    total += 1
    total //= 3
    return total.astype(np.uint8)


class TestPpmRowBlocks:
    @pytest.mark.parametrize("w, h", [(5, 1), (5, 63), (5, 64), (5, 65), (9, 1000),
                                      (3, 700), (7, 3)])
    def test_equals_whole_plane_decode(self, tmp_path, w, h):
        rng = np.random.default_rng(w * 10000 + h)
        rgb = rng.integers(0, 256, (h, w, 3)).astype(np.uint8)
        rgb[0, 0] = 255  # the largest sum, 765
        path = tmp_path / "img.ppm"
        write_ppm(path, rgb)
        got = read_ppm(path, grayscale=True)
        assert got.shape == (h, w) and got.dtype == np.uint8
        assert np.array_equal(got, whole_plane_gray(rgb))
        assert np.array_equal(read_ppm(path), rgb)
