"""The detections CSV: the pipeline's output, read back by ``eval`` and ``render``."""
from __future__ import annotations

import csv
from typing import Sequence

from .evaluation import Detection
from .geometry import BBox


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
