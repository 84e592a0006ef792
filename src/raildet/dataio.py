"""Dataset splitting and the small text file formats of the pipeline."""
from __future__ import annotations

import csv
import random
from dataclasses import dataclass
from typing import Sequence

from .evaluation import Detection
from .geometry import BBox


@dataclass(frozen=True)
class DatasetSplit:
    train: tuple
    val: tuple

    def __post_init__(self):
        overlap = set(self.train) & set(self.val)
        if overlap:
            raise ValueError(f"train/val overlap: {sorted(overlap)[:3]}")


def split(items: Sequence, seed: int = 0, train_fraction: float = 0.75) -> DatasetSplit:
    """Deterministic shuffled 3:1 train/val split (exact when divisible by 4)."""
    if not (0.0 < train_fraction < 1.0):
        raise ValueError("train_fraction must be in (0, 1)")
    shuffled = list(items)
    random.Random(seed).shuffle(shuffled)
    n_train = round(len(shuffled) * train_fraction)
    return DatasetSplit(train=tuple(shuffled[:n_train]), val=tuple(shuffled[n_train:]))


def write_split_manifest(path, ds: DatasetSplit) -> None:
    """Sections "[train]" and "[val]", one filename per line."""
    with open(path, "w") as f:
        f.write("[train]\n")
        for name in ds.train:
            f.write(f"{name}\n")
        f.write("[val]\n")
        for name in ds.val:
            f.write(f"{name}\n")


def read_split_manifest(path) -> DatasetSplit:
    sections = {"train": [], "val": []}
    current = None
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                current = line[1:-1]
                if current not in sections:
                    raise ValueError(f"unknown split section: {line}")
            elif current is None:
                raise ValueError("manifest entries must follow a section header")
            else:
                sections[current].append(line)
    return DatasetSplit(train=tuple(sections["train"]), val=tuple(sections["val"]))


DETECTIONS_HEADER = ["image", "class", "score", "xmin", "ymin", "xmax", "ymax"]


def write_detections_csv(path, rows: Sequence[tuple[str, Detection]]) -> None:
    """One row per detection, 6-decimal fixed precision."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(DETECTIONS_HEADER)
        for image, det in rows:
            b = det.box
            w.writerow(
                [
                    image,
                    det.class_name,
                    f"{det.score:.6f}",
                    f"{b.x_min:.6f}",
                    f"{b.y_min:.6f}",
                    f"{b.x_max:.6f}",
                    f"{b.y_max:.6f}",
                ]
            )


def read_detections_csv(path) -> list[tuple[str, Detection]]:
    """Rows written by :func:`write_detections_csv`.  A bad header, a row of
    the wrong length, an invalid detection or text that is not UTF-8 raise a
    ``ValueError`` naming ``path`` and the line."""
    out = []
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        try:
            header = next(reader, None)
            if header != DETECTIONS_HEADER:
                raise ValueError(f"unexpected detections header: {header}")
            for row in reader:
                if not row:
                    continue
                image, cls, score, x0, y0, x1, y1 = row
                box = BBox(float(x0), float(y0), float(x1), float(y1))
                out.append((image, Detection(class_name=cls, box=box, score=float(score))))
        except (ValueError, csv.Error) as e:
            raise ValueError(f"{path}: line {reader.line_num}: {e}") from None
    return out
