"""Per-image transient memory stays inside the allocator's reused heap.

A stage that allocates large temporaries per image can make glibc return
the top of its heap to the OS after each image and fault it in again on the
next one: decoding all 27,900 anchors at once with full-size temporaries
cost ~1,600 minor page faults per oracle image, with no change in any
output.  The loop runs in a fresh interpreter, because the allocator's trim
threshold follows the largest block the process has freed so far, and the
test process frees far larger ones than ``raildet detect`` does.  The same
holds for ingest: resampling a whole 1000 x 800 float64 canvas at once cost
~1,900 minor page faults per image from read to write.
"""
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import raildet
from raildet.ppm import write_ppm
from raildet.synth import synthesize_scene

SCENES = 10
MAX_MEDIAN_FAULTS = 200

LOOP = """
import json, resource, sys
from pathlib import Path
from raildet.dataio import write_detections_csv
from raildet.oracle import build_oracle_weights, oracle_pipeline_config
from raildet.pipeline import detect
from raildet.ppm import read_ppm

folder = Path(sys.argv[1])
paths = sorted(folder.glob("*.ppm"))
config = oracle_pipeline_config()
weights = build_oracle_weights(config)

def one(path):
    dets = detect(read_ppm(path, grayscale=True), weights, config)
    write_detections_csv(folder / "dets.csv", [(path.name, d) for d in dets])

for path in paths:  # warm: lazy set-up and the heap's high-water mark
    one(path)
faults = []
for path in paths:
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    one(path)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


INGEST_LOOP = """
import json, resource, sys
from pathlib import Path
from raildet.ppm import read_ppm, write_ppm
from raildet.preprocess import preprocess
from raildet.voc import Annotation

folder = Path(sys.argv[1])
paths = sorted(folder.glob("raw_*.ppm"))

def one(path):
    image = read_ppm(path, grayscale=True)
    h, w = image.shape
    canvas, _ = preprocess(image, Annotation(path.name, w, h, ()))
    write_ppm(folder / "out.ppm", canvas)

for path in paths:  # warm: lazy set-up and the heap's high-water mark
    one(path)
faults = []
for path in paths:
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    one(path)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""

# raw (height, width) of the ingest kinds: crop-down, crop-up, pad-down and
# pad-up (width/height above 0.8 crops, heights above 1000 downscale)
INGEST_SHAPES = ((1300, 1200), (800, 720), (1300, 800), (800, 500))


def run_fresh(loop, folder):
    src = str(Path(raildet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    proc = subprocess.run([sys.executable, "-c", loop, str(folder)],
                          capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout)


@pytest.mark.skipif(sys.platform != "linux", reason="minor fault counts as glibc reports them")
def test_oracle_detect_loop_reuses_its_memory(tmp_path):
    for seed in range(SCENES):
        write_ppm(tmp_path / f"scene_{seed:06d}.ppm", synthesize_scene(seed)[0])
    faults = run_fresh(LOOP, tmp_path)
    assert len(faults) == SCENES
    assert statistics.median(faults) < MAX_MEDIAN_FAULTS, faults


@pytest.mark.skipif(sys.platform != "linux", reason="minor fault counts as glibc reports them")
def test_ingest_loop_reuses_its_memory(tmp_path):
    # raw RGB scenes, nearest-neighbour scaled to each kind, two of each
    for i in range(2 * len(INGEST_SHAPES)):
        h, w = INGEST_SHAPES[i % len(INGEST_SHAPES)]
        scene = synthesize_scene(i)[0]
        ys = ((np.arange(h) + 0.5) * scene.shape[0] / h).astype(int)
        xs = ((np.arange(w) + 0.5) * scene.shape[1] / w).astype(int)
        gray = scene[np.ix_(ys, xs)]
        rgb = np.stack([gray, gray // 2, 255 - gray], axis=2)
        write_ppm(tmp_path / f"raw_{i:02d}.ppm", rgb)
    faults = run_fresh(INGEST_LOOP, tmp_path)
    assert len(faults) == 2 * len(INGEST_SHAPES)
    assert statistics.median(faults) < MAX_MEDIAN_FAULTS, faults


THRESHOLD_LOOP = """
import json, resource, sys
import numpy as np
from raildet.ppm import read_ppm

read_ppm(sys.argv[1], grayscale=True)

def faults_of_temporary():
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    np.ones(3_000_000, dtype=np.uint8)  # touched, then freed
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

faults_of_temporary()  # the heap grows to hold it once
print(json.dumps([faults_of_temporary() for _ in range(5)]))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="glibc's dynamic mmap threshold")
def test_read_keeps_the_mmap_threshold_of_a_whole_file_read(tmp_path):
    # reading a 5.6 MB PPM once raises glibc's mmap threshold past it, as
    # the whole-file buffer did, so a 3 MB temporary afterwards is reused
    # from the heap rather than mapped and faulted in (~730 faults) each time
    path = tmp_path / "big.ppm"
    write_ppm(path, np.zeros((1400, 1330, 3), dtype=np.uint8))
    faults = run_fresh(THRESHOLD_LOOP, path)
    assert max(faults) < 50, faults
