"""Malformed input files through ``cli.main``, in-process.

Each example mutates one valid file (a PPM image, a VOC annotation, a
detections CSV, a config file, or a weight file and its sidecar) and runs
one command that reads it, with every other file valid.  The mutations are
ones that no reader may accept: truncation, bytes that are never UTF-8,
swapped fields and non-finite numbers.  Every run must end in exit 1 or 2
with exactly one stderr line that names the mutated file, and no traceback.
``synth --count`` is not fuzzed: a large count writes that many scenes.
"""
import contextlib
import io
import os
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from raildet.cli import main
from raildet.config import dump_config
from raildet.dataio import write_detections_csv
from raildet.evaluation import Detection
from raildet.pipeline import PipelineConfig
from raildet.voc import parse_voc

SCENE = "scene_000003"
PPM_HEADER = b"P6\n800 1000\n255\n"
# 0xF8-0xFF start no UTF-8 sequence, and none of them is whitespace in Latin-1
NOT_UTF8 = st.integers(0xF8, 0xFF).map(lambda b: bytes([b]))
NON_FINITE = st.sampled_from(["nan", "NaN", "inf", "-inf", "1e999"])

# the file each kind mutates; an error about the sidecar may name either
# file of the weight pair
FILES = {
    "ppm": f"{SCENE}.ppm",
    "voc": f"{SCENE}.xml",
    "csv": "dets.csv",
    "config": "run.cfg",
    "weights": "w.bin",
    "sidecar": "w.bin.meta",
}
COMMANDS = {
    "detect": ["detect", "--image", f"{{d}}/{SCENE}.ppm", "--weights", "{d}/w.bin",
               "--config", "{d}/run.cfg", "--out", "{d}/out.csv"],
    "propose": ["propose", "--image", f"{{d}}/{SCENE}.ppm", "--weights", "{d}/w.bin",
                "--config", "{d}/run.cfg", "--out", "{d}/rois.csv"],
    "render": ["render", "--image", f"{{d}}/{SCENE}.ppm", "--dets", "{d}/dets.csv",
               "--out", "{d}/vis.ppm"],
    "eval": ["eval", "--dets", "{d}/dets.csv", "--gt", "{d}"],
    "preprocess": ["preprocess", "--in", "{d}", "--out", "{d}/prepped"],
    "show-config": ["show-config", "--config", "{d}/run.cfg"],
    "bench": ["bench", "--config", "{d}/run.cfg", "--weights", "{d}/w.bin", "--rois", "10",
              "--repeat", "1"],
}
CASES = [
    ("ppm", "detect"), ("ppm", "propose"), ("ppm", "render"), ("ppm", "preprocess"),
    ("voc", "eval"), ("voc", "preprocess"),
    ("csv", "eval"), ("csv", "render"),
    ("config", "detect"), ("config", "propose"), ("config", "show-config"), ("config", "bench"),
    ("weights", "detect"), ("weights", "propose"), ("weights", "bench"),
    ("sidecar", "detect"), ("sidecar", "bench"),
]


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """A directory with one valid file of each kind; every command in
    COMMANDS exits 0 on it."""
    d = tmp_path_factory.mktemp("valid")
    with contextlib.redirect_stderr(io.StringIO()):
        assert main(["synth", "--out", str(d), "--count", "1", "--seed", "3"]) == 0
        assert main(["make-weights", "--out", str(d / "w.bin")]) == 0
    (d / "manifest.txt").unlink()
    ann = parse_voc((d / f"{SCENE}.xml").read_bytes())
    write_detections_csv(d / "dets.csv", [(f"{SCENE}.ppm", Detection(o.class_name, o.box, 0.9))
                                          for o in ann.objects])
    (d / "run.cfg").write_text(dump_config(PipelineConfig()))
    return d


def run(argv, d: Path) -> tuple[int, str]:
    """``main`` on ``argv`` with ``{d}`` filled in: (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main([a.format(d=d) for a in argv])
    return rc, err.getvalue()


@pytest.mark.parametrize("command", COMMANDS)
def test_valid_files_pass(valid, tmp_path, command):
    for p in valid.iterdir():
        os.link(p, tmp_path / p.name)
    rc, err = run(COMMANDS[command], tmp_path)
    assert rc == 0, err


def _cut(draw, data: bytes, stop: int) -> bytes:
    return data[: draw(st.integers(0, stop))]


def _put(draw, data: bytes) -> bytes:
    """One byte replaced by a byte that is never UTF-8."""
    i = draw(st.integers(0, len(data) - 1))
    return data[:i] + draw(NOT_UTF8) + data[i + 1 :]


def _sub(draw, data: bytes, pattern: bytes, replace) -> bytes:
    """One match of ``pattern`` replaced by ``replace(match)``."""
    m = draw(st.sampled_from(list(re.finditer(pattern, data))))
    return data[: m.start()] + replace(m) + data[m.end() :]


def _ppm(draw, data: bytes) -> bytes:
    assert data.startswith(PPM_HEADER)
    pixels = data[len(PPM_HEADER):]
    how = draw(st.sampled_from(["truncate", "magic", "not_utf8", "swap", "non_finite"]))
    if how == "truncate":  # in the header as often as in the pixels
        return data[: draw(st.integers(0, len(PPM_HEADER)) | st.integers(0, len(data) - 1))]
    if how == "magic":  # the magic or maxval bytes, flipped
        i = draw(st.sampled_from([0, 1, 12, 13, 14]))
        return data[:i] + bytes([data[i] ^ draw(st.integers(1, 255))]) + data[i + 1 :]
    if how == "not_utf8":
        return _put(draw, PPM_HEADER) + pixels
    if how == "swap":  # maxval with the width or the height
        return draw(st.sampled_from([b"P6\n255 1000\n800\n", b"P6\n800 255\n1000\n"])) + pixels
    x = draw(NON_FINITE)
    header = draw(st.sampled_from([f"P6\n{x} 1000\n255\n", f"P6\n800 {x}\n255\n"]))
    return header.encode() + pixels


def _voc(draw, data: bytes) -> bytes:
    how = draw(st.sampled_from(["truncate", "not_utf8", "swap", "name", "non_finite"]))
    if how == "truncate":  # the root element is left open
        return _cut(draw, data, len(data.rstrip()) - 1)
    if how == "not_utf8":
        return _put(draw, data)
    if how == "swap":  # min and max of one box: glyphs are 32 px wide
        lo, hi = draw(st.sampled_from([(b"xmin", b"xmax"), (b"ymin", b"ymax")]))

        def swap(box):
            a, b = (re.search(b"<%s>([^<]*)<" % tag, box[0])[1] for tag in (lo, hi))
            return box[0].replace(b"<%s>%s<" % (lo, a), b"<%s>%s<" % (lo, b)).replace(
                b"<%s>%s<" % (hi, b), b"<%s>%s<" % (hi, a))

        return _sub(draw, data, rb"(?s)<bndbox>.*?</bndbox>", swap)
    if how == "name":  # a class name where a number belongs
        return _sub(draw, data, rb"<(width|height|xmin|ymin|xmax|ymax)>[^<]*<",
                    lambda m: b"<%s>V<" % m[1])
    return _sub(draw, data, rb"<(width|height|xmin|ymin|xmax|ymax)>[^<]*<",
                lambda m: b"<%s>%s<" % (m[1], draw(NON_FINITE).encode()))


def _csv(draw, data: bytes) -> bytes:
    header_end = data.index(b"\r\n")
    how = draw(st.sampled_from(["truncate", "not_utf8", "swap", "non_finite"]))
    if how == "truncate":  # inside the header, or a row left with under 7 fields
        def short(n):
            line = data[:n].rsplit(b"\n", 1)[-1]
            return n < header_end or (line.strip() != b"" and line.count(b",") < 6)

        return data[: draw(st.integers(0, len(data) - 1).filter(short))]
    if how == "not_utf8":
        return _put(draw, data)
    lines = data.split(b"\r\n")
    i = draw(st.integers(1, len(lines) - 2))  # a row: not the header, not the end
    fields = lines[i].split(b",")
    if how == "swap":  # xmin with xmax, ymin with ymax, or the class with the score
        a, b = draw(st.sampled_from([(3, 5), (4, 6), (1, 2)]))
        fields[a], fields[b] = fields[b], fields[a]
    else:
        fields[draw(st.integers(2, 6))] = draw(NON_FINITE).encode()
    lines[i] = b",".join(fields)
    return b"\r\n".join(lines)


def _config(draw, data: bytes) -> bytes:
    lines = data.decode().splitlines(keepends=True)
    i = draw(st.integers(0, len(lines) - 1))
    key, value = lines[i].rstrip("\n").split("=")
    how = draw(st.sampled_from(["truncate", "not_utf8", "swap", "twice", "non_finite"]))
    if how == "truncate":  # a key without its "="
        return "".join(lines[:i]).encode() + key[: draw(st.integers(1, len(key)))].encode()
    if how == "not_utf8":
        return _put(draw, data)
    if how == "swap":
        lines[i] = f"{value}={key}\n"
    elif how == "twice":
        lines.insert(draw(st.integers(0, len(lines))), lines[i])
    else:
        lines[i] = f"{key}={draw(NON_FINITE)}\n"
    return "".join(lines).encode()


def _weights(draw, data: bytes) -> bytes:
    if draw(st.booleans()):
        return _cut(draw, data, len(data) - 1)
    return data + b"\0" * draw(st.integers(1, 16))


def _sidecar(draw, data: bytes) -> bytes:
    how = draw(st.sampled_from(["truncate", "not_utf8", "swap", "non_finite"]))
    if how == "truncate":
        return _cut(draw, data, len(data.rstrip()) - 1)
    if how == "not_utf8":
        return _put(draw, data)
    lines = data.decode().splitlines()
    if how == "swap":  # two unequal dimensions of one tensor
        i = draw(st.sampled_from([i for i, ln in enumerate(lines) if len(set(ln.split()[1:])) > 1]))
        name, *dims = lines[i].split()
        a, b = draw(st.sampled_from([(a, b) for a in range(len(dims)) for b in range(a)
                                     if dims[a] != dims[b]]))
        dims[a], dims[b] = dims[b], dims[a]
    else:
        i = draw(st.integers(0, len(lines) - 1))
        name, *dims = lines[i].split()
        dims[draw(st.integers(0, len(dims) - 1))] = draw(NON_FINITE)
    lines[i] = " ".join([name, *dims])
    return ("\n".join(lines) + "\n").encode()


MUTATE = {"ppm": _ppm, "voc": _voc, "csv": _csv, "config": _config,
          "weights": _weights, "sidecar": _sidecar}


@pytest.mark.parametrize("kind, command", CASES)
@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_malformed_file_is_one_error_line(valid, kind, command, data):
    name = FILES[kind]
    mutated = MUTATE[kind](data.draw, (valid / name).read_bytes())
    with tempfile.TemporaryDirectory(dir=valid.parent) as tmp:
        work = Path(tmp)
        for p in valid.iterdir():
            if p.name != name:
                os.link(p, work / p.name)
        (work / name).write_bytes(mutated)
        rc, err = run(COMMANDS[command], work)
    assert rc in (1, 2), err
    assert len(err.splitlines()) == 1, err
    assert "Traceback" not in err
    assert ("w.bin" if kind in ("weights", "sidecar") else name) in err, err
