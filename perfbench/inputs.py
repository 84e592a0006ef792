"""Seeded input generation, run as its own process before anything is timed.

    python3 perfbench/inputs.py SRC_DIR WORKLOAD SEED IMAGES OUT_DIR

writes the workload's PPM images, VOC annotations and (for ``ohem-mining``)
a weight file into OUT_DIR, plus ``manifest.json`` listing each image with
its raw size.  The same seed gives byte-identical files.  Running it in a
separate process keeps its memory out of the benchmark's peak RSS.
"""
from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

WORKLOAD_INDEX = {"oracle-corpus": 0, "dense-rois": 1, "ohem-mining": 2, "ingest": 3}

# Raw sizes for ingest: (height range, width/height range).  A width/height
# above 0.8 scales wider than the 800 canvas and takes the crop branch,
# below it the pad branch; heights above 1000 downscale, below it upscale.
INGEST_KINDS = (
    ("crop-down", (1100, 1400), (0.85, 1.0)),
    ("crop-up", (650, 900), (0.85, 1.0)),
    ("pad-down", (1100, 1400), (0.55, 0.72)),
    ("pad-up", (650, 900), (0.55, 0.72)),
)


def generate(workload: str, seed: int, images: int, out_dir: Path) -> list[dict]:
    from raildet import model, ppm, synth, voc
    from raildet.geometry import BBox

    rng = np.random.default_rng(np.random.SeedSequence([seed, WORKLOAD_INDEX[workload]]))
    scene_seeds = rng.integers(0, 2**31 - 1, size=images)
    out_dir.mkdir(parents=True, exist_ok=True)
    items = []
    for i, scene_seed in enumerate(scene_seeds):
        name = f"img_{i:04d}"
        image, ann = synth.synthesize_scene(int(scene_seed))
        kind = "scene"
        if workload == "ingest":
            kind, (h_lo, h_hi), (r_lo, r_hi) = INGEST_KINDS[i % len(INGEST_KINDS)]
            h = int(rng.integers(h_lo, h_hi + 1))
            w = int(round(h * rng.uniform(r_lo, r_hi)))
            sy, sx = h / image.shape[0], w / image.shape[1]
            ys = ((np.arange(h) + 0.5) / sy).astype(int)
            xs = ((np.arange(w) + 0.5) / sx).astype(int)
            gray = image[np.ix_(ys, xs)].astype(np.int16)
            tint = int(rng.integers(1, 6))
            image = np.clip(np.stack([gray + tint, gray, gray - tint], axis=2), 0, 255)
            image = image.astype(np.uint8)
            objects = tuple(
                dataclasses.replace(
                    o,
                    box=BBox(o.box.x_min * sx, o.box.y_min * sy, o.box.x_max * sx, o.box.y_max * sy),
                )
                for o in ann.objects
            )
            ann = dataclasses.replace(ann, image_width=w, image_height=h, objects=objects)
        ann = dataclasses.replace(ann, image_filename=f"{name}.ppm")
        ppm.write_ppm(out_dir / f"{name}.ppm", image)
        (out_dir / f"{name}.xml").write_bytes(voc.write_voc(ann))
        items.append(
            {"name": name, "scene_seed": int(scene_seed), "kind": kind,
             "raw_size": [image.shape[1], image.shape[0]], "objects": len(ann.objects)}
        )
    if workload == "ohem-mining":
        # the checkpoint a mining pass would load: random:0 stored as float32
        model.save_weights(model.random_weights(0), out_dir / "weights.bin")
    (out_dir / "manifest.json").write_text(json.dumps(items))
    return items


if __name__ == "__main__":
    src, workload, seed, images, out_dir = sys.argv[1:6]
    sys.path.insert(0, src)
    generate(workload, int(seed), int(images), Path(out_dir))
