"""Operator command line: preprocess, synth, propose, detect, eval, bench, render.

Exit codes: 0 success, 1 input error, 2 configuration error.  ``main`` alone
maps a failure to its exit code and one stderr line: a ``ConfigError`` (a
bad option, environment value or config file) exits 2; an input failure, one
of ``INPUT_ERRORS`` (``ValueError``, which includes ``UnicodeDecodeError``,
``OSError``, ``VocError`` and ``PipelineError``), exits 1.  Each reader
names its file in its own error, so the commands catch nothing to add it;
only ``detect`` and ``propose`` add the image's name to a stage failure.
``bench --check`` and ``preprocess --keep-going`` return 1 as a result: a
latency that is not monotone, or a count of failed images.  Logs go to
stderr, data to files or stdout.  Every command that writes an output
directory drops a run manifest next to its outputs; ``detect`` names its
manifest after its CSV (``dets.csv`` -> ``dets.manifest.txt``).
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import os
import statistics
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, dump_config, load_config, with_post_nms_top
from .dataio import DETECTIONS_HEADER, read_detections_csv, write_detections_csv
from .evaluation import CLASS_NAMES, EvalConfig, evaluate
from .model import NUM_CHANNELS, load_weights, random_weights, save_weights
from .oracle import build_oracle_weights
from .pipeline import PipelineConfig, PipelineError, detect, propose_rois
from .ppm import read_ppm, write_ppm
from .preprocess import preprocess
from .synth import synthesize_scene
from .voc import VocError, read_voc, write_voc

# what a command's input can raise: each exits 1 (see the module docstring)
INPUT_ERRORS = (ValueError, OSError, VocError, PipelineError)


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _worker_count() -> int:
    raw = os.environ.get("DETPIPE_THREADS", "")
    try:
        count = int(raw) if raw else 4
    except ValueError:
        count = 0
    if count < 1:
        raise ConfigError(f"DETPIPE_THREADS must be a positive integer, got {raw!r}")
    return count


@dataclasses.dataclass
class RunManifest:
    command: str
    config: str
    inputs: str
    outputs: str
    seed: int | None
    timestamp: str
    version: str = __version__

    def write(self, path: Path) -> None:
        fields = dataclasses.asdict(self).items()
        path.write_text("".join(f"{k}={'' if v is None else v}\n" for k, v in fields))


def _manifest(args, command: str, inputs: str, outputs: str, seed: int | None = None) -> RunManifest:
    return RunManifest(
        command=command,
        config=getattr(args, "config", "") or "",
        inputs=inputs,
        outputs=outputs,
        seed=seed,
        timestamp=time.strftime("%Y-%m-%dT%H:%M:%S"),
    )


def _seed(seed: int, flag: str) -> int:
    """``seed`` if numpy's generators take it: they reject negative seeds."""
    if seed < 0:
        raise ConfigError(f"{flag}: the seed must not be negative, got {seed}")
    return seed


def _load_pipeline_config(args) -> PipelineConfig:
    if getattr(args, "config", None):
        return load_config(args.config)
    return PipelineConfig()


def _load_model(args, config: PipelineConfig):
    spec = getattr(args, "weights", None)
    if spec in (None, "", "oracle"):
        return build_oracle_weights(config)
    if spec.startswith("random:"):
        try:
            seed = int(spec.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"--weights {spec!r}: the seed must be an integer") from None
        return random_weights(_seed(seed, f"--weights {spec}"), k=config.anchors.k,
                              bins=config.roi_bins)
    weights = load_weights(spec)
    if weights.rpn.k != config.anchors.k:
        raise ConfigError(
            f"the RPN head in {spec} scores k={weights.rpn.k} anchors per cell, but "
            f"the anchor config tiles k={config.anchors.k}"
        )
    width = config.roi_bins ** 2 * NUM_CHANNELS
    if weights.det.cls_w.shape[1] != width:
        raise ConfigError(
            f"pipeline.roi_bins={config.roi_bins} pools {width} features, but the "
            f"detection head in {spec} takes {weights.det.cls_w.shape[1]}"
        )
    return weights


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_preprocess(args) -> int:
    workers = _worker_count()
    in_dir = Path(args.in_dir)
    images = _listing(in_dir, "*.ppm", "--in")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    failures = []

    def one(img_path: Path):
        xml_path = img_path.with_suffix(".xml")
        ann = read_voc(xml_path, lenient=args.lenient)
        image = read_ppm(img_path, grayscale=True)
        out_img, out_ann = preprocess(image, ann)
        write_ppm(out_dir / img_path.name, out_img)
        (out_dir / xml_path.name).write_bytes(write_voc(out_ann))
        return img_path.name, image.shape

    # the first failure without --keep-going cancels the images still queued
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        futures = [(p, pool.submit(one, p)) for p in images]
        for path, fut in futures:
            try:
                name, shape = fut.result()
                _log(f"preprocess {name}: {shape[1]}x{shape[0]} -> 800x1000")
            except INPUT_ERRORS as e:
                if not args.keep_going:
                    raise
                failures.append(path.name)
                _log(f"preprocess {path.name}: FAILED ({e})")
    finally:
        pool.shutdown(cancel_futures=True)

    _manifest(args, "preprocess", str(in_dir), str(out_dir)).write(out_dir / "manifest.txt")
    _log(f"{len(images) - len(failures)} images processed")
    return 1 if failures else 0


def cmd_synth(args) -> int:
    if args.count < 0:
        raise ConfigError(f"--count must not be negative, got {args.count}")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i in range(args.count):
        image, ann = synthesize_scene(args.seed + i)
        name = f"scene_{args.seed + i:06d}"
        write_ppm(out_dir / f"{name}.ppm", image)
        ann = dataclasses.replace(ann, image_filename=f"{name}.ppm")
        (out_dir / f"{name}.xml").write_bytes(write_voc(ann))
        _log(f"synth {name}.ppm: {len(ann.objects)} objects")
    _manifest(args, "synth", "-", str(out_dir), seed=args.seed).write(out_dir / "manifest.txt")
    return 0


def cmd_propose(args) -> int:
    config = _load_pipeline_config(args)
    weights = _load_model(args, config)
    (path,) = _image_paths(args)
    image = read_ppm(path, grayscale=True)
    name = path.name
    try:
        rois = propose_rois(image, weights, config)
    except PipelineError as e:
        e.args = (f"{path}: {e}",)  # the stage cannot know the image
        raise
    out = io.StringIO()
    rows = csv.writer(out, lineterminator="\n")  # quotes a name that holds a comma
    rows.writerow(DETECTIONS_HEADER)
    rows.writerows([name, "roi", *(f"{v:.6f}" for v in (r.score, *r.box.as_tuple()))] for r in rois)
    _write_or_print(args.out, out.getvalue())
    _log(f"{len(rois)} proposals")
    return 0


def cmd_detect(args) -> int:
    config = _load_pipeline_config(args)
    weights = _load_model(args, config)
    paths = _image_paths(args)
    rows = []
    for p in paths:
        image = read_ppm(p, grayscale=True)
        try:
            dets = detect(image, weights, config)
        except PipelineError as e:
            e.args = (f"{p}: {e}",)  # the stage cannot know the image
            raise
        rows.extend((p.name, d) for d in dets)
        _log(f"detect {p.name}: {len(dets)} detections")
    write_detections_csv(args.out, rows)
    _manifest(args, "detect", ";".join(str(p) for p in paths), args.out).write(
        Path(args.out).with_suffix(".manifest.txt")
    )
    return 0


def cmd_eval(args) -> int:
    try:
        eval_config = EvalConfig(iou_threshold=args.iou)
    except ValueError as e:
        raise ConfigError(f"--iou {args.iou}: {e}") from None
    try:
        PipelineConfig(score_threshold=args.score_threshold)
    except ValueError as e:
        raise ConfigError(f"--score-threshold {args.score_threshold}: {e}") from None
    xml_paths = _listing(args.gt, "*.xml", "--gt")
    det_rows = read_detections_csv(args.dets)

    by_image: dict[str, list] = {}
    for image, det in det_rows:
        if det.score >= args.score_threshold:
            by_image.setdefault(image, []).append(det)

    per_image = []
    for xml_path in xml_paths:
        ann = read_voc(xml_path)
        key = ann.image_filename or xml_path.with_suffix(".ppm").name
        per_image.append((by_image.pop(key, []), list(ann.objects)))
    for image, dets in by_image.items():
        if dets:
            raise ValueError(f"{args.dets}: detections reference unknown image: {image}")

    rep = evaluate(per_image, eval_config)
    print(rep.to_text())
    if args.csv:
        Path(args.csv).write_text(rep.to_csv())
    return 0


def cmd_bench(args) -> int:
    config = _load_pipeline_config(args)
    if args.repeat < 1:
        raise ConfigError(f"--repeat must be a positive integer, got {args.repeat}")
    try:
        cfgs = [with_post_nms_top(config, int(b)) for b in args.rois.split(",")]
    except ValueError as e:
        raise ConfigError(f"--rois {args.rois!r}: {e}") from None
    budgets = [cfg.proposal.post_nms_top for cfg in cfgs]
    repeated = next((b for i, b in enumerate(budgets) if b in budgets[:i]), None)
    if repeated is not None:
        raise ConfigError(f"--rois {args.rois!r}: budget {repeated} is given twice")
    weights = _load_model(args, config)
    image, _ = synthesize_scene(args.seed)

    medians = []
    # cpu_ms is process CPU time, all threads: above median_ms when BLAS
    # threads run during the call
    print(f"{'rois':>6} {'median_ms':>10} {'iqr_ms':>8} {'cpu_ms':>8}")
    for budget, cfg in zip(budgets, cfgs):
        times, cpus = [], []
        for _ in range(args.repeat):
            c0, t0 = time.process_time(), time.perf_counter()
            detect(image, weights, cfg)
            times.append((time.perf_counter() - t0) * 1000.0)
            cpus.append((time.process_time() - c0) * 1000.0)
        med = statistics.median(times)
        if len(times) >= 4:
            q = statistics.quantiles(times, n=4)
            iqr = f"{q[2] - q[0]:8.2f}"
        else:
            iqr = "     n/a"
        medians.append(med)
        print(f"{budget:>6} {med:>10.2f} {iqr} {statistics.median(cpus):>8.2f}")
    if len(medians) >= 2:
        print(f"speedup {budgets[0]} -> {budgets[-1]}: {medians[0] / medians[-1]:.2f}x")
    if args.check:
        ordered = sorted(range(len(budgets)), key=lambda i: -budgets[i])
        meds = [medians[i] for i in ordered]
        if any(a <= b for a, b in zip(meds, meds[1:])):
            _log("latency not monotone in ROI budget")
            return 1
    return 0


# class name -> box outline RGB
RENDER_COLORS = {
    "V": (255, 80, 80),
    "W300-1": (80, 220, 80),
    "WJ-7": (90, 140, 255),
    "WJ-8": (250, 210, 60),
}

_FONT = {
    "V": ["101", "101", "101", "101", "010"],
    "W": ["101", "101", "101", "111", "101"],
    "J": ["111", "001", "001", "101", "010"],
    "0": ["111", "101", "101", "101", "111"],
    "1": ["010", "110", "010", "010", "111"],
    "3": ["111", "001", "011", "001", "111"],
    "7": ["111", "001", "010", "010", "010"],
    "8": ["111", "101", "111", "101", "111"],
    "-": ["000", "000", "111", "000", "000"],
}


def cmd_render(args) -> int:
    image = read_ppm(args.image)
    h, w = image.shape[:2]
    rows = [d for name, d in read_detections_csv(args.dets) if name == Path(args.image).name]
    for det in rows:
        b = det.box
        if b.x_min < 0 or b.y_min < 0 or b.x_max > w or b.y_max > h:
            raise ValueError(f"{args.dets}: detection outside image bounds: {b.as_tuple()}")
        color = RENDER_COLORS[det.class_name]
        x0 = min(int(round(b.x_min)), w - 1)
        y0 = min(int(round(b.y_min)), h - 1)
        # a sub-pixel box would end at -1, which indexes the far edge
        x1 = max(min(int(round(b.x_max)) - 1, w - 1), x0)
        y1 = max(min(int(round(b.y_max)) - 1, h - 1), y0)
        image[y0, x0 : x1 + 1] = color
        image[y1, x0 : x1 + 1] = color
        image[y0 : y1 + 1, x0] = color
        image[y0 : y1 + 1, x1] = color
        if args.labels:
            _stamp_label(image, det.class_name, x0, y0 - 7, color)
    write_ppm(args.out, image)
    _log(f"rendered {len(rows)} detections")
    return 0


def _stamp_label(image: np.ndarray, text: str, x: int, y: int, color) -> None:
    h, w = image.shape[:2]
    for ch in text:
        glyph = _FONT.get(ch)
        if glyph is None:
            x += 4
            continue
        for r, line in enumerate(glyph):
            for c, bit in enumerate(line):
                if bit == "1" and 0 <= y + r < h and 0 <= x + c < w:
                    image[y + r, x + c] = color
        x += 4


def cmd_make_weights(args) -> int:
    config = _load_pipeline_config(args)
    if args.mode == "oracle":
        weights = build_oracle_weights(config)
    else:
        weights = random_weights(args.seed, k=config.anchors.k, bins=config.roi_bins)
    save_weights(weights, args.out)
    _log(f"wrote {args.out} ({args.mode})")
    return 0


def cmd_show_config(args) -> int:
    print(dump_config(_load_pipeline_config(args)), end="")
    return 0


# ---------------------------------------------------------------------------
# helpers and argument wiring
# ---------------------------------------------------------------------------

def _listing(directory, pattern: str, flag: str) -> list[Path]:
    """The files in ``directory`` that match ``pattern``, sorted."""
    d = Path(directory)
    if not d.is_dir():  # a glob of a missing directory is empty
        raise NotADirectoryError(f"{flag} {str(directory)!r}: no such directory")
    return sorted(d.glob(pattern))


def _image_paths(args) -> list[Path]:
    """The images named by ``--image`` (propose, detect) or ``--images``."""
    if args.image is not None:
        p = Path(args.image)
        if not p.is_file():  # Path("") is the working directory
            raise FileNotFoundError(f"--image {args.image!r}: no such image file")
        return [p]
    return _listing(args.images, "*.ppm", "--images")


def _write_or_print(path, text: str) -> None:
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="raildet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="normalize images+annotations to 800x1000")
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--out", dest="out_dir", required=True)
    p.add_argument("--keep-going", action="store_true")
    p.add_argument("--lenient", action="store_true")
    p.set_defaults(fn=cmd_preprocess)

    p = sub.add_parser("synth", help="generate synthetic fastener scenes")
    p.add_argument("--out", dest="out_dir", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("propose", help="dump ROIs for one image")
    p.add_argument("--image", required=True)
    p.add_argument("--weights", default="oracle")
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_propose)

    p = sub.add_parser("detect", help="run detection, write detections CSV")
    images = p.add_mutually_exclusive_group(required=True)
    images.add_argument("--image")
    images.add_argument("--images")
    p.add_argument("--weights", default="oracle")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_detect)

    p = sub.add_parser("eval", help="precision/recall against VOC ground truth")
    p.add_argument("--dets", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--iou", type=float, default=EvalConfig().iou_threshold)
    p.add_argument("--score-threshold", type=float, default=PipelineConfig().score_threshold)
    p.add_argument("--csv", default=None)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("bench", help="median detect latency and CPU time per ROI budget")
    p.add_argument("--config", default=None)
    p.add_argument("--weights", default="random:0")
    p.add_argument("--rois", default="300,50")
    p.add_argument("--repeat", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--check", action="store_true")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("render", help="draw detections onto an image")
    p.add_argument("--image", required=True)
    p.add_argument("--dets", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--labels", action="store_true")
    p.set_defaults(fn=cmd_render)

    p = sub.add_parser("make-weights", help="write an oracle or random weight file")
    p.add_argument("--mode", choices=("oracle", "random"), default="oracle")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_make_weights)

    p = sub.add_parser("show-config", help="print the effective configuration")
    p.add_argument("--config", default=None)
    p.set_defaults(fn=cmd_show_config)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "seed"):
            _seed(args.seed, "--seed")
        return args.fn(args)
    except ConfigError as e:
        _log(f"config error: {e}")
        return 2
    except INPUT_ERRORS as e:
        _log(f"error: {e}")
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
