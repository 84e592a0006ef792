"""Synthetic fastener scenes with pixel-exact ground truth.

Each scene is an 800x1000 grayscale image: a dark rail-bed texture plus 1-6
bright fastener glyphs.  Every class has a distinct 32x32 point-symmetric
motif (X-cross, frame, plus-cross, diamond) and renders in its own
brightness band, well separated from the background and from the other
bands.  Placement keeps glyphs apart by a margin wide enough that no 48x48
window ever sees two of them, which the template-matched demo weights rely
on.
"""
from __future__ import annotations

import numpy as np

from .evaluation import CLASS_NAMES, GroundTruthObject
from .geometry import BBox
from .model import IMAGE_HEIGHT, IMAGE_WIDTH
from .voc import Annotation

GLYPH_SIZE = 32
MAX_OBJECTS = 6
# glyphs stay inside the region the stride-16 feature map covers, with a
# one-cell margin
MARGIN = 16
BOTTOM_MARGIN = 48
# dilating each bbox by this much must keep all pairs disjoint; 24 px
# guarantees no 48x48 detection window spans two glyphs
SEPARATION = 24
NOISE_AMPLITUDE = 4.0

# Per-class brightness bands (min, max), separated by the backbone's
# threshold levels 160/190/220; background stays below 100.
BRIGHTNESS_BANDS = {
    "V": (132.0, 153.0),
    "W300-1": (167.0, 183.0),
    "WJ-7": (197.0, 213.0),
    "WJ-8": (227.0, 248.0),
}


def _point_symmetric(mask: np.ndarray) -> np.ndarray:
    """Force exact 180-degree rotational symmetry (keeps the centroid at
    the bbox center, which the demo weights' moment decoding assumes)."""
    return mask | mask[::-1, ::-1]


def glyph_masks() -> dict[str, np.ndarray]:
    """One 32x32 boolean motif per class, each touching all four edges."""
    n = GLYPH_SIZE
    u, v = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
    c = (n - 1) / 2.0
    masks = {
        # X-cross
        "V": (np.abs(u - v) <= 3.5) | (np.abs(u + v - (n - 1)) <= 3.5),
        # hollow frame
        "W300-1": ~((u >= 7) & (u < n - 7) & (v >= 7) & (v < n - 7)),
        # plus-cross
        "WJ-7": (np.abs(u - c) <= 4.0) | (np.abs(v - c) <= 4.0),
        # filled diamond
        "WJ-8": (np.abs(u - c) + np.abs(v - c)) <= (n - 1) / 2.0 + 0.5,
    }
    return {k: _point_symmetric(m.astype(bool)) for k, m in masks.items()}


GLYPH_MASKS = glyph_masks()
GLYPH_AREAS = {k: int(m.sum()) for k, m in GLYPH_MASKS.items()}


def synthesize_scene(seed: int) -> tuple[np.ndarray, Annotation]:
    """Render one deterministic scene; returns (uint8 image, annotation)."""
    rng = np.random.default_rng(seed)
    w, h = IMAGE_WIDTH, IMAGE_HEIGHT
    img = _rail_background(rng, w, h)

    n_objects = int(rng.integers(1, MAX_OBJECTS + 1))
    placed: list[tuple[int, int]] = []
    objects: list[GroundTruthObject] = []
    g = GLYPH_SIZE
    for _ in range(n_objects):
        for _attempt in range(500):
            x0 = int(rng.integers(MARGIN, w - g - MARGIN + 1))
            y0 = int(rng.integers(MARGIN, h - g - BOTTOM_MARGIN + 1))
            sep = g + 2 * SEPARATION
            if all(abs(x0 - px) >= sep or abs(y0 - py) >= sep for px, py in placed):
                break
        else:
            continue  # no room left; emit fewer objects
        placed.append((x0, y0))
        cls = CLASS_NAMES[int(rng.integers(len(CLASS_NAMES)))]
        lo, hi = BRIGHTNESS_BANDS[cls]
        base = rng.uniform(lo + NOISE_AMPLITUDE, hi - NOISE_AMPLITUDE)
        mask = GLYPH_MASKS[cls]
        noise = rng.uniform(-NOISE_AMPLITUDE, NOISE_AMPLITUDE, mask.shape)
        patch = img[y0 : y0 + g, x0 : x0 + g]
        patch[mask] = np.clip(base + noise, lo, hi)[mask]
        objects.append(
            GroundTruthObject(class_name=cls, box=BBox(x0, y0, x0 + g, y0 + g))
        )

    ann = Annotation(
        image_filename=f"scene_{seed:06d}.ppm",
        image_width=w,
        image_height=h,
        objects=tuple(objects),
    )
    return np.clip(np.round(img), 0, 255).astype(np.uint8), ann


def _rail_background(rng: np.random.Generator, w: int, h: int) -> np.ndarray:
    """Dark rail-bed: ballast base, two vertical rails, periodic sleepers.
    Everything stays below the lowest occupancy threshold (100)."""
    img = np.full((h, w), 35.0)
    ys = np.arange(h)
    for x_rail in (int(w * 0.35), int(w * 0.62)):
        img[:, x_rail : x_rail + 18] = 62.0
        img[:, x_rail - 3 : x_rail] = 48.0
    sleeper_period = 140
    for y0 in range(20, h, sleeper_period):
        img[y0 : y0 + 34, :] = np.maximum(img[y0 : y0 + 34, :], 50.0)
    img += rng.uniform(-NOISE_AMPLITUDE, NOISE_AMPLITUDE, (h, w))
    img += 6.0 * np.sin(ys / 37.0)[:, None]
    return np.clip(img, 0.0, 90.0)
