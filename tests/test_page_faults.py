"""Per-image transient memory stays inside the allocator's reused heap.

A stage that allocates large temporaries per image can make glibc return
the top of its heap to the OS after each image and fault it in again on the
next one: decoding all 27,900 anchors at once with full-size temporaries
cost ~1,600 minor page faults per oracle image, with no change in any
output.  The loop runs in a fresh interpreter, because the allocator's trim
threshold follows the largest block the process has freed so far, and the
test process frees far larger ones than ``raildet detect`` does.
"""
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

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


@pytest.mark.skipif(sys.platform != "linux", reason="minor fault counts as glibc reports them")
def test_oracle_detect_loop_reuses_its_memory(tmp_path):
    for seed in range(SCENES):
        write_ppm(tmp_path / f"scene_{seed:06d}.ppm", synthesize_scene(seed)[0])
    src = str(Path(raildet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    proc = subprocess.run([sys.executable, "-c", LOOP, str(tmp_path)],
                          capture_output=True, text=True, env=env, check=True)
    faults = json.loads(proc.stdout)
    assert len(faults) == SCENES
    assert statistics.median(faults) < MAX_MEDIAN_FAULTS, faults
