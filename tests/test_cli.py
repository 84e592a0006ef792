import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import raildet
from raildet.cli import RENDER_COLORS, build_parser, main
from raildet.dataio import read_detections_csv, read_split_manifest
from raildet.evaluation import Detection, EvalConfig
from raildet.geometry import BBox
from raildet.model import random_weights, save_weights
from raildet.pipeline import PipelineConfig
from raildet.ppm import read_ppm, write_ppm
from raildet.dataio import write_detections_csv


def run(*argv):
    return main(list(argv))


def run_process(*argv, env=None):
    """Run the CLI in a fresh interpreter, with ``env`` added to the
    environment: (exit code, stderr)."""
    src = str(Path(raildet.__file__).resolve().parents[1])
    env = dict(os.environ, **(env or {}), PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    proc = subprocess.run([sys.executable, "-m", "raildet.cli", *argv],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stderr


def assert_one_line_error(stderr, *needles):
    assert "Traceback" not in stderr
    lines = stderr.strip().splitlines()
    assert len(lines) == 1, stderr
    for needle in needles:
        assert needle in lines[0]


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("scenes")
    assert run("synth", "--out", str(out), "--count", "3", "--seed", "100") == 0
    return out


class TestSynth:
    def test_outputs_and_manifest(self, scene_dir):
        ppms = sorted(p.name for p in scene_dir.glob("*.ppm"))
        assert ppms == ["scene_000100.ppm", "scene_000101.ppm", "scene_000102.ppm"]
        assert len(list(scene_dir.glob("*.xml"))) == 3
        ds = read_split_manifest(scene_dir / "split.txt")
        assert sorted(ds.train + ds.val) == ppms
        assert (scene_dir / "manifest.txt").exists()

    def test_deterministic(self, scene_dir, tmp_path):
        again = tmp_path / "again"
        assert run("synth", "--out", str(again), "--count", "3", "--seed", "100") == 0
        for name in ("scene_000100.ppm", "scene_000100.xml", "split.txt"):
            assert (again / name).read_bytes() == (scene_dir / name).read_bytes()

    def test_count_zero(self, tmp_path):
        out = tmp_path / "empty"
        assert run("synth", "--out", str(out), "--count", "0") == 0
        ds = read_split_manifest(out / "split.txt")
        assert ds.train == () and ds.val == ()


class TestPreprocess:
    def test_roundtrips_preprocessed_scenes(self, scene_dir, tmp_path):
        out = tmp_path / "prep"
        assert run("preprocess", "--in", str(scene_dir), "--out", str(out)) == 0
        for p in out.glob("*.ppm"):
            assert read_ppm(p, grayscale=True).shape == (1000, 800)
        assert len(list(out.glob("*.ppm"))) == 3

    def test_missing_dir(self, tmp_path):
        assert run("preprocess", "--in", str(tmp_path / "nope"), "--out", str(tmp_path / "o")) == 1

    def test_empty_dir(self, tmp_path, capsys):
        src = tmp_path / "src"
        src.mkdir()
        assert run("preprocess", "--in", str(src), "--out", str(tmp_path / "o")) == 0
        assert "0 images processed" in capsys.readouterr().err

    def test_corrupt_xml_named(self, scene_dir, tmp_path, capsys):
        src = tmp_path / "src"
        src.mkdir()
        name = "scene_000100"
        (src / f"{name}.ppm").write_bytes((scene_dir / f"{name}.ppm").read_bytes())
        (src / f"{name}.xml").write_bytes(b"<annotation><broken")
        assert run("preprocess", "--in", str(src), "--out", str(tmp_path / "o")) == 1
        assert name in capsys.readouterr().err

    def test_keep_going(self, scene_dir, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        for name in ("scene_000100", "scene_000101"):
            (src / f"{name}.ppm").write_bytes((scene_dir / f"{name}.ppm").read_bytes())
            (src / f"{name}.xml").write_bytes((scene_dir / f"{name}.xml").read_bytes())
        (src / "scene_000100.xml").write_bytes(b"<annotation><broken")
        out = tmp_path / "o"
        assert run("preprocess", "--in", str(src), "--out", str(out), "--keep-going") == 1
        assert (out / "scene_000101.ppm").exists()


class TestDetectEval:
    def test_detect_then_eval_perfect(self, scene_dir, tmp_path, capsys):
        dets = tmp_path / "dets.csv"
        assert run("detect", "--images", str(scene_dir), "--out", str(dets)) == 0
        rows = read_detections_csv(dets)
        assert rows
        assert run("eval", "--dets", str(dets), "--gt", str(scene_dir)) == 0
        out = capsys.readouterr().out
        assert "mean" in out
        assert out.count("100.00%") == 10

    def test_eval_csv_twin(self, scene_dir, tmp_path):
        dets = tmp_path / "dets.csv"
        run("detect", "--images", str(scene_dir), "--out", str(dets))
        csv_out = tmp_path / "report.csv"
        assert run("eval", "--dets", str(dets), "--gt", str(scene_dir),
                   "--csv", str(csv_out)) == 0
        lines = csv_out.read_text().splitlines()
        assert lines[0] == "category,precision,recall"
        assert lines[-1] == "mean,1.000000,1.000000"

    def test_eval_empty_detections(self, scene_dir, tmp_path, capsys):
        dets = tmp_path / "none.csv"
        write_detections_csv(dets, [])
        assert run("eval", "--dets", str(dets), "--gt", str(scene_dir)) == 0
        out = capsys.readouterr().out
        mean = out.splitlines()[-1].split()
        assert mean[1] == "100.00%"  # vacuous precision
        assert mean[2] == "0.00%"  # nothing recalled

    def test_eval_unknown_image_rejected(self, scene_dir, tmp_path):
        dets = tmp_path / "bad.csv"
        write_detections_csv(
            dets, [("nonexistent.ppm", Detection("V", BBox(0, 0, 10, 10), 0.9))]
        )
        assert run("eval", "--dets", str(dets), "--gt", str(scene_dir)) == 1

    def test_detect_keeps_synth_manifest(self, tmp_path):
        scenes = tmp_path / "scenes"
        assert run("synth", "--out", str(scenes), "--count", "1") == 0
        synth_manifest = (scenes / "manifest.txt").read_text()
        assert "command=synth" in synth_manifest
        assert run("detect", "--images", str(scenes), "--out", str(scenes / "dets.csv")) == 0
        assert (scenes / "manifest.txt").read_text() == synth_manifest
        assert "command=detect" in (scenes / "dets.manifest.txt").read_text()

    def test_detect_missing_image(self, tmp_path):
        assert run("detect", "--image", str(tmp_path / "gone.ppm"),
                   "--out", str(tmp_path / "d.csv")) == 1


@pytest.fixture(scope="module")
def bad_images(scene_dir, tmp_path_factory):
    """Malformed and wrong-size images next to one good scene."""
    out = tmp_path_factory.mktemp("bad")
    good = (scene_dir / "scene_000100.ppm").read_bytes()
    (out / "truncated.ppm").write_bytes(good[:1000])
    (out / "magic_only.ppm").write_bytes(b"P6\n")
    write_ppm(out / "small.ppm", np.zeros((80, 100), dtype=np.uint8))
    return out


class TestBadInput:
    @pytest.mark.parametrize("command", ["detect", "propose"])
    @pytest.mark.parametrize("name", ["truncated.ppm", "magic_only.ppm"])
    def test_malformed_ppm_exit_1(self, bad_images, tmp_path, command, name):
        argv = [command, "--image", str(bad_images / name), "--out", str(tmp_path / "o.csv")]
        rc, err = run_process(*argv)
        assert rc == 1
        assert_one_line_error(err, name)

    @pytest.mark.parametrize("command", ["detect", "propose"])
    def test_wrong_size_image_names_file_and_stage(self, bad_images, tmp_path, command):
        rc, err = run_process(command, "--image", str(bad_images / "small.ppm"),
                              "--out", str(tmp_path / "o.csv"))
        assert rc == 1
        assert_one_line_error(err, "small.ppm", "stage backbone")

    def test_render_malformed_ppm_exit_1(self, bad_images, tmp_path):
        dets = tmp_path / "none.csv"
        write_detections_csv(dets, [])
        rc, err = run_process("render", "--image", str(bad_images / "truncated.ppm"),
                              "--dets", str(dets), "--out", str(tmp_path / "o.ppm"))
        assert rc == 1
        assert_one_line_error(err, "truncated.ppm")

    def test_preprocess_keep_going_skips_malformed_ppm(self, scene_dir, bad_images, tmp_path,
                                                       capsys):
        src = tmp_path / "src"
        src.mkdir()
        for name in ("scene_000100", "truncated"):
            (src / f"{name}.xml").write_bytes((scene_dir / "scene_000100.xml").read_bytes())
        (src / "scene_000100.ppm").write_bytes((scene_dir / "scene_000100.ppm").read_bytes())
        (src / "truncated.ppm").write_bytes((bad_images / "truncated.ppm").read_bytes())
        out = tmp_path / "o"
        assert run("preprocess", "--in", str(src), "--out", str(out), "--keep-going") == 1
        assert (out / "scene_000100.ppm").exists()
        assert not (out / "truncated.ppm").exists()
        assert "truncated.ppm: FAILED" in capsys.readouterr().err

    @staticmethod
    def _nan_xmin_scenes(scene_dir, dest):
        """scene_000100 with its first xmin set to nan, and a good scene_000101."""
        dest.mkdir()
        for name in ("scene_000100", "scene_000101"):
            for ext in (".ppm", ".xml"):
                (dest / f"{name}{ext}").write_bytes((scene_dir / f"{name}{ext}").read_bytes())
        xml = dest / "scene_000100.xml"
        xml.write_bytes(re.sub(rb"<xmin>[^<]*<", b"<xmin>nan<", xml.read_bytes(), count=1))
        return dest

    def test_eval_nan_coordinate_exit_1(self, scene_dir, tmp_path):
        gt = self._nan_xmin_scenes(scene_dir, tmp_path / "gt")
        dets = tmp_path / "none.csv"
        write_detections_csv(dets, [])
        rc, err = run_process("eval", "--dets", str(dets), "--gt", str(gt))
        assert rc == 1
        assert_one_line_error(err, "scene_000100.xml", "xmin", "finite")

    @pytest.mark.parametrize("keep_going", [[], ["--keep-going"]])
    def test_preprocess_nan_coordinate_exit_1(self, scene_dir, tmp_path, keep_going):
        src = self._nan_xmin_scenes(scene_dir, tmp_path / "src")
        out = tmp_path / "o"
        rc, err = run_process("preprocess", "--in", str(src), "--out", str(out), *keep_going)
        assert rc == 1
        assert "Traceback" not in err
        named = [ln for ln in err.splitlines() if ".xml" in ln]
        assert len(named) == 1
        assert "scene_000100.xml" in named[0] and "finite" in named[0]
        if keep_going:
            assert "FAILED" in named[0]
            assert (out / "scene_000101.ppm").exists()
        else:
            assert len(err.strip().splitlines()) == 1

    def test_preprocess_stops_at_the_first_failure(self, tmp_path):
        src, out = tmp_path / "src", tmp_path / "o"
        assert run("synth", "--out", str(src), "--count", "6", "--seed", "0") == 0
        xml = src / "scene_000000.xml"
        xml.write_bytes(re.sub(rb"<xmin>[^<]*<", b"<xmin>nan<", xml.read_bytes(), count=1))
        rc, err = run_process("preprocess", "--in", str(src), "--out", str(out),
                              env={"DETPIPE_THREADS": "1"})
        assert rc == 1
        assert_one_line_error(err, "scene_000000.xml", "finite")
        # the one worker may already hold the next image; the rest are cancelled
        assert len(list(out.glob("*.ppm"))) <= 1
        assert not (out / "manifest.txt").exists()

    @pytest.mark.parametrize("iou", ["1.5", "0", "-0.2"])
    def test_eval_iou_out_of_range_is_config_error(self, scene_dir, iou):
        rc, err = run_process("eval", "--dets", str(scene_dir / "missing.csv"),
                              "--gt", str(scene_dir), "--iou", iou)
        assert rc == 2
        assert_one_line_error(err, "--iou", "config error")


class TestPropose:
    def test_writes_rois(self, scene_dir, tmp_path):
        out = tmp_path / "rois.csv"
        img = next(iter(sorted(scene_dir.glob("*.ppm"))))
        assert run("propose", "--image", str(img), "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "image,class,score,xmin,ymin,xmax,ymax"
        assert all(",roi," in ln for ln in lines[1:])
        assert len(lines) > 1


class TestConfigHandling:
    def test_bad_config_exit_2(self, scene_dir, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("proposal.post_nms_topp=50\n")
        assert run("detect", "--images", str(scene_dir), "--config", str(cfg),
                   "--out", str(tmp_path / "d.csv")) == 2

    def test_config_respected(self, scene_dir, tmp_path, capsys):
        cfg = tmp_path / "small.cfg"
        cfg.write_text("proposal.post_nms_top=50\n")
        img = next(iter(sorted(scene_dir.glob("*.ppm"))))
        out = tmp_path / "rois.csv"
        assert run("propose", "--image", str(img), "--config", str(cfg),
                   "--out", str(out)) == 0
        assert len(out.read_text().splitlines()) <= 51

    def test_show_config(self, capsys):
        assert run("show-config") == 0
        assert "proposal.post_nms_top=300" in capsys.readouterr().out

    def test_roi_bins_beyond_the_feature_map_is_config_error(self, tmp_path):
        cfg = tmp_path / "bins.cfg"
        cfg.write_text("pipeline.roi_bins=100000\n")
        rc, err = run_process("show-config", "--config", str(cfg))
        assert rc == 2
        assert_one_line_error(err, "config error", "bins.cfg", "roi_bins", "62", "100000")

    def test_non_finite_scale_is_one_line_config_error(self, scene_dir, tmp_path):
        cfg = tmp_path / "inf.cfg"
        cfg.write_text("anchors.scales=inf,32,64\n")
        rc, err = run_process("detect", "--images", str(scene_dir), "--config", str(cfg),
                              "--out", str(tmp_path / "d.csv"))
        assert rc == 2
        assert_one_line_error(err, "config error", "anchors.scales")


@pytest.fixture(scope="module")
def stride32(tmp_path_factory):
    """20 scenes from seed 0 and a config that sets ``anchors.stride=32``."""
    out = tmp_path_factory.mktemp("stride32")
    assert run("synth", "--out", str(out / "scenes"), "--count", "20", "--seed", "0") == 0
    (out / "s32.cfg").write_text("anchors.stride=32\n")
    return out


class TestStride32:
    """Stage 5 with down-sampling: the outputs at stride 32 are pinned."""

    def test_oracle_detections(self, stride32):
        dets = stride32 / "dets.csv"
        assert run("detect", "--images", str(stride32 / "scenes"), "--config",
                   str(stride32 / "s32.cfg"), "--out", str(dets)) == 0
        assert len(dets.read_text().splitlines()) == 69
        assert hashlib.sha256(dets.read_bytes()).hexdigest() == (
            "fc7cd1c9134bc7aa846fdeb8e499fbdfd869197a708a9feadac38ab949117b40")

    def test_random_proposals(self, stride32):
        rois = stride32 / "rois.csv"
        assert run("propose", "--image", str(stride32 / "scenes" / "scene_000000.ppm"),
                   "--weights", "random:0", "--config", str(stride32 / "s32.cfg"),
                   "--out", str(rois)) == 0
        assert len(rois.read_text().splitlines()) == 301
        assert hashlib.sha256(rois.read_bytes()).hexdigest() == (
            "f71278338fa3fc74ae210804d8824bc44226050d8d00cb5e266b1581a583a5c8")


class TestBench:
    def test_two_budgets(self, capsys):
        assert run("bench", "--rois", "300,50", "--repeat", "2") == 0
        out = capsys.readouterr().out
        assert "300" in out and "50" in out
        ratio = float(out.splitlines()[-1].split()[-1].rstrip("x"))
        assert ratio > 1.0

    def test_prints_median_cpu_ms(self, capsys):
        assert run("bench", "--rois", "300,50", "--repeat", "3") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["rois", "median_ms", "iqr_ms", "cpu_ms"]
        for line in lines[1:3]:
            assert float(line.split()[3]) > 0, line

    def test_single_repeat_iqr_na(self, capsys):
        assert run("bench", "--rois", "100", "--repeat", "1") == 0
        assert "n/a" in capsys.readouterr().out

    def test_non_positive_repeat_is_config_error(self, capsys):
        assert run("bench", "--rois", "10", "--repeat", "0") == 2
        err = capsys.readouterr().err
        assert "--repeat" in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("rois", ["300,x", "2.5", "0", "-50", "", "7000"])
    def test_bad_rois_is_config_error(self, rois, capsys):
        assert run("bench", "--rois", rois, "--repeat", "1") == 2
        err = capsys.readouterr().err
        assert "--rois" in err and len(err.strip().splitlines()) == 1


class TestRender:
    def _one_scene(self, scene_dir):
        return next(iter(sorted(scene_dir.glob("*.ppm"))))

    def test_zero_detections_identity(self, scene_dir, tmp_path):
        img = self._one_scene(scene_dir)
        dets = tmp_path / "none.csv"
        write_detections_csv(dets, [])
        out = tmp_path / "out.ppm"
        assert run("render", "--image", str(img), "--dets", str(dets),
                   "--out", str(out)) == 0
        assert out.read_bytes() == img.read_bytes()

    def test_single_detection_recolors_edges_only(self, scene_dir, tmp_path):
        img = self._one_scene(scene_dir)
        dets = tmp_path / "one.csv"
        write_detections_csv(
            dets, [(img.name, Detection("V", BBox(100, 100, 132, 132), 0.9))]
        )
        out = tmp_path / "out.ppm"
        assert run("render", "--image", str(img), "--dets", str(dets),
                   "--out", str(out)) == 0
        before = read_ppm(img)
        after = read_ppm(out)
        diff = np.any(before != after, axis=2)
        ys, xs = np.nonzero(diff)
        assert ys.size > 0
        assert set(np.unique(ys)) <= set(range(100, 132))
        assert set(np.unique(xs)) <= set(range(100, 132))
        # every changed pixel lies on one of the four box edges
        on_edge = (ys == 100) | (ys == 131) | (xs == 100) | (xs == 131)
        assert np.all(on_edge)

    def test_out_of_bounds_detection(self, scene_dir, tmp_path):
        img = self._one_scene(scene_dir)
        dets = tmp_path / "oob.csv"
        write_detections_csv(
            dets, [(img.name, Detection("V", BBox(700, 900, 900, 1100), 0.9))]
        )
        assert run("render", "--image", str(img), "--dets", str(dets),
                   "--out", str(tmp_path / "o.ppm")) == 1

    def test_missing_image(self, tmp_path):
        dets = tmp_path / "d.csv"
        write_detections_csv(dets, [])
        assert run("render", "--image", str(tmp_path / "gone.ppm"),
                   "--dets", str(dets), "--out", str(tmp_path / "o.ppm")) == 1


class TestMakeWeights:
    def test_oracle_file_round_trips(self, scene_dir, tmp_path):
        w = tmp_path / "w.bin"
        assert run("make-weights", "--mode", "oracle", "--out", str(w)) == 0
        img = next(iter(sorted(scene_dir.glob("*.ppm"))))
        dets = tmp_path / "dets.csv"
        assert run("detect", "--image", str(img), "--weights", str(w),
                   "--out", str(dets)) == 0
        assert read_detections_csv(dets)

    def test_missing_weights_file(self, scene_dir, tmp_path):
        img = next(iter(sorted(scene_dir.glob("*.ppm"))))
        assert run("detect", "--image", str(img), "--weights",
                   str(tmp_path / "none.bin"), "--out", str(tmp_path / "d.csv")) == 1


@pytest.fixture(scope="module")
def weight_file(tmp_path_factory):
    """A 7-bin oracle weight file and its sidecar lines."""
    out = tmp_path_factory.mktemp("weights") / "w.bin"
    assert run("make-weights", "--mode", "oracle", "--out", str(out)) == 0
    return out, (out.parent / "w.bin.meta").read_text().splitlines()


class TestBadWeights:
    def _copy(self, weight_file, tmp_path, lines=None, data=None):
        src, src_lines = weight_file
        path = tmp_path / "w.bin"
        path.write_bytes(src.read_bytes() if data is None else data)
        (tmp_path / "w.bin.meta").write_text(
            "\n".join(src_lines if lines is None else lines) + "\n")
        return path

    def _detect(self, scene_dir, tmp_path, weights, *extra):
        img = scene_dir / "scene_000100.ppm"
        return run_process("detect", "--image", str(img), "--weights", str(weights),
                           "--out", str(tmp_path / "d.csv"), *extra)

    def test_sidecar_without_a_tensor_exit_1(self, scene_dir, weight_file, tmp_path):
        lines = [ln for ln in weight_file[1] if not ln.startswith("det.reg.bias")]
        rc, err = self._detect(scene_dir, tmp_path, self._copy(weight_file, tmp_path, lines))
        assert rc == 1
        assert_one_line_error(err, "w.bin.meta", "det.reg.bias")

    @pytest.mark.parametrize("cut", [4, 2])
    def test_length_mismatch_exit_1(self, scene_dir, weight_file, tmp_path, cut):
        data = weight_file[0].read_bytes()[:-cut]
        rc, err = self._detect(scene_dir, tmp_path, self._copy(weight_file, tmp_path, data=data))
        assert rc == 1
        assert_one_line_error(err, "w.bin", "det.reg.bias")

    def test_missing_binary_is_named(self, scene_dir, tmp_path):
        rc, err = self._detect(scene_dir, tmp_path, tmp_path / "nope.bin")
        assert rc == 1
        assert_one_line_error(err, "nope.bin")
        assert ".meta" not in err

    def test_missing_sidecar_is_named(self, scene_dir, weight_file, tmp_path):
        path = tmp_path / "w.bin"
        path.write_bytes(weight_file[0].read_bytes())
        rc, err = self._detect(scene_dir, tmp_path, path)
        assert rc == 1
        assert_one_line_error(err, "w.bin.meta")

    def test_trailing_data_exit_1(self, scene_dir, weight_file, tmp_path):
        data = weight_file[0].read_bytes() + b"\0" * 8
        rc, err = self._detect(scene_dir, tmp_path, self._copy(weight_file, tmp_path, data=data))
        assert rc == 1
        assert_one_line_error(err, "w.bin", "8 bytes after")

    def test_head_wider_than_roi_bins_is_config_error(self, weight_file, tmp_path):
        cfg = tmp_path / "bins5.cfg"
        cfg.write_text("pipeline.roi_bins=5\n")
        # the image does not exist: the check comes before any image is read
        rc, err = run_process("detect", "--image", str(tmp_path / "none.ppm"), "--weights",
                              str(weight_file[0]), "--config", str(cfg),
                              "--out", str(tmp_path / "d.csv"))
        assert rc == 2
        assert_one_line_error(err, "config error", "roi_bins=5", "175", "343")

    def test_head_for_another_anchor_count_is_config_error(self, scene_dir, tmp_path):
        path = tmp_path / "k3.bin"
        save_weights(random_weights(0, k=3), path)
        rc, err = run_process("detect", "--images", str(scene_dir), "--weights", str(path),
                              "--out", str(tmp_path / "d.csv"))
        assert rc == 2
        # blamed on the weight file, before any image is read
        assert_one_line_error(err, "config error", "k3.bin", "k=3", "k=9")
        assert "scene_" not in err

    def test_random_seed_not_an_integer_is_config_error(self, tmp_path):
        rc, err = run_process("detect", "--image", str(tmp_path / "none.ppm"),
                              "--weights", "random:x", "--out", str(tmp_path / "d.csv"))
        assert rc == 2
        assert_one_line_error(err, "config error", "random:x")

    def test_oracle_at_five_bins_detects(self, scene_dir, tmp_path, capsys):
        cfg = tmp_path / "bins5.cfg"
        cfg.write_text("pipeline.roi_bins=5\n")
        dets = tmp_path / "d.csv"
        assert run("detect", "--images", str(scene_dir), "--config", str(cfg),
                   "--out", str(dets)) == 0
        assert run("eval", "--dets", str(dets), "--gt", str(scene_dir)) == 0
        assert capsys.readouterr().out.count("100.00%") == 10


class TestCliFaults:
    """Bad options and malformed files end in one stderr line, never a
    traceback, in a fresh interpreter."""

    def test_eval_defaults_come_from_the_config_dataclasses(self):
        args = build_parser().parse_args(["eval", "--dets", "d.csv", "--gt", "g"])
        assert args.iou == EvalConfig().iou_threshold
        assert args.score_threshold == PipelineConfig().score_threshold

    @pytest.mark.parametrize("threshold", ["nan", "1.5", "1", "-0.1"])
    def test_eval_score_threshold_out_of_range_is_config_error(self, scene_dir, threshold):
        rc, err = run_process("eval", "--dets", str(scene_dir / "missing.csv"),
                              "--gt", str(scene_dir), "--score-threshold", threshold)
        assert rc == 2
        assert_one_line_error(err, "config error", "--score-threshold")

    def test_eval_score_threshold_zero_is_legal(self, scene_dir, tmp_path):
        dets = tmp_path / "none.csv"
        write_detections_csv(dets, [])
        assert run("eval", "--dets", str(dets), "--gt", str(scene_dir),
                   "--score-threshold", "0") == 0

    @pytest.mark.parametrize("text", ["a,b\n", "", "image,class,score,xmin,ymin,xmax,ymax\n"
                                      "x.ppm,V,0.9,10,10,5,5\n"])
    def test_render_bad_detections_csv_is_input_error(self, scene_dir, tmp_path, text):
        dets = tmp_path / "bad.csv"
        dets.write_text(text)
        img = next(iter(sorted(scene_dir.glob("*.ppm"))))
        rc, err = run_process("render", "--image", str(img), "--dets", str(dets),
                              "--out", str(tmp_path / "o.ppm"))
        assert rc == 1
        assert_one_line_error(err, "bad.csv")
        assert not (tmp_path / "o.ppm").exists()

    @pytest.mark.parametrize("command", ["show-config", "detect"])
    def test_non_utf8_config_is_config_error(self, scene_dir, tmp_path, command):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes("# caf\xe9\nproposal.post_nms_top=50\n".encode("latin-1"))
        argv = [command, "--config", str(cfg)]
        if command == "detect":
            argv += ["--images", str(scene_dir), "--out", str(tmp_path / "d.csv")]
        rc, err = run_process(*argv)
        assert rc == 2
        assert_one_line_error(err, "config error", "latin1.cfg")

    def test_synth_negative_count_is_config_error(self, tmp_path):
        out = tmp_path / "neg"
        rc, err = run_process("synth", "--out", str(out), "--count", "-1")
        assert rc == 2
        assert_one_line_error(err, "config error", "--count")
        assert not out.exists()

    # a box whose min edge rounds onto the last column or row, as detect can
    # emit after clipping, is outlined on that column or row
    @pytest.mark.parametrize("box, edge", [
        ((799.6, 10, 800, 20), np.s_[10:20, 799]),
        ((10, 999.7, 20, 1000), np.s_[999, 10:20]),
    ])
    def test_render_box_on_the_border(self, scene_dir, tmp_path, box, edge):
        img = next(iter(sorted(scene_dir.glob("*.ppm"))))
        dets = tmp_path / "border.csv"
        write_detections_csv(dets, [(img.name, Detection("V", BBox(*box), 0.9))])
        out = tmp_path / "o.ppm"
        rc, err = run_process("render", "--image", str(img), "--dets", str(dets),
                              "--out", str(out))
        assert rc == 0, err
        assert np.all(read_ppm(out)[edge] == RENDER_COLORS["V"])

    # a sub-pixel box whose max edge rounds to 0 is outlined on column or
    # row 0, not on the far edge of the image
    @pytest.mark.parametrize("box, edge", [
        ((0.2, 10, 0.4, 20), np.s_[10:20, 0:1]),
        ((10, 0.1, 20, 0.3), np.s_[0:1, 10:20]),
    ])
    def test_render_sub_pixel_box_at_the_origin(self, tmp_path, box, edge):
        img = tmp_path / "a.ppm"
        write_ppm(img, np.full((40, 80, 3), 7, dtype=np.uint8))
        dets = tmp_path / "tiny.csv"
        write_detections_csv(dets, [(img.name, Detection("V", BBox(*box), 0.9))])
        out = tmp_path / "o.ppm"
        rc, err = run_process("render", "--image", str(img), "--dets", str(dets),
                              "--out", str(out))
        assert rc == 0, err
        painted = np.any(read_ppm(out) != 7, axis=2)
        assert np.all(painted[edge])
        assert painted.sum() == painted[edge].size

    @pytest.mark.parametrize("sources", [[], ["--image", "x.ppm", "--images", "."]])
    def test_detect_takes_exactly_one_image_source(self, tmp_path, sources):
        rc, err = run_process("detect", *sources, "--out", str(tmp_path / "d.csv"))
        assert rc == 2
        assert "Traceback" not in err
        assert "--image" in err.strip().splitlines()[-1]

    @pytest.mark.parametrize("command", ["synth", "preprocess"])
    def test_config_is_not_an_option_of(self, scene_dir, tmp_path, command):
        out = tmp_path / "out"
        argv = ["--count", "1"] if command == "synth" else ["--in", str(scene_dir)]
        rc, err = run_process(command, *argv, "--out", str(out), "--config", "x")
        assert rc == 2
        assert "Traceback" not in err
        assert "--config" in err.strip().splitlines()[-1]
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["abc", "0", "-3", "2.5"])
    def test_bad_thread_count_is_config_error(self, scene_dir, tmp_path, threads):
        out = tmp_path / "out"
        rc, err = run_process("preprocess", "--in", str(scene_dir), "--out", str(out),
                              env={"DETPIPE_THREADS": threads})
        assert rc == 2
        assert_one_line_error(err, "config error", "DETPIPE_THREADS", repr(threads))
        assert not out.exists()

    def test_one_thread_is_legal(self, scene_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("DETPIPE_THREADS", "1")
        assert run("preprocess", "--in", str(scene_dir), "--out", str(tmp_path / "o")) == 0

    @pytest.mark.parametrize("command", ["propose", "detect"])
    @pytest.mark.parametrize("kind", ["empty", "directory"])
    def test_image_that_is_not_a_file_is_input_error(self, tmp_path, command, kind):
        image = "" if kind == "empty" else str(tmp_path)
        out = tmp_path / "out.csv"
        rc, err = run_process(command, "--image", image, "--weights", "random:0",
                              "--out", str(out))
        assert rc == 1
        assert_one_line_error(err, "--image", repr(image))
        assert not out.exists()


class TestNegativeSeeds:
    """numpy's generators reject negative seeds; the CLI turns each into one
    config-error line that names the flag, in a fresh interpreter."""

    @pytest.mark.parametrize("argv, flag", [
        (["synth", "--count", "1", "--seed", "-1"], "--seed"),
        (["bench", "--seed", "-1", "--repeat", "1"], "--seed"),
        (["make-weights", "--mode", "random", "--seed", "-5"], "--seed"),
        (["detect", "--weights", "random:-1"], "--weights random:-1"),
        (["propose", "--weights", "random:-1"], "--weights random:-1"),
        (["bench", "--weights", "random:-1", "--repeat", "1"], "--weights random:-1"),
    ])
    def test_negative_seed_is_config_error(self, scene_dir, tmp_path, argv, flag):
        out = tmp_path / "out"
        command = argv[0]
        if command in ("synth", "make-weights", "detect"):
            argv = argv + ["--out", str(out)]
        if command in ("detect", "propose"):
            argv = argv + ["--image", str(next(iter(sorted(scene_dir.glob("*.ppm")))))]
        rc, err = run_process(*argv)
        assert rc == 2
        assert_one_line_error(err, "config error", flag, "negative")
        assert not out.exists()

    def test_seed_zero_is_legal(self, tmp_path):
        assert run("make-weights", "--mode", "random", "--seed", "0",
                   "--out", str(tmp_path / "w.bin")) == 0
