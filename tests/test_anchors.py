import numpy as np
import pytest

from raildet.anchors import AnchorConfig, base_anchors, tile


def test_default_k_is_9():
    assert AnchorConfig().k == 9


def test_config_validation():
    with pytest.raises(ValueError):
        AnchorConfig(scales=(16.0, 32.0))
    with pytest.raises(ValueError):
        AnchorConfig(ratios=(0.5, 1.0))
    with pytest.raises(ValueError):
        AnchorConfig(scales=(0.0, 32.0, 64.0))
    with pytest.raises(ValueError):
        AnchorConfig(stride=0)


def test_unit_ratio_single_shape():
    # degenerate check through the standard config: the (s=16, r=1) base
    # anchor is the centered 16x16 square
    cfg = AnchorConfig(scales=(16.0, 16.0, 16.0), ratios=(1.0, 1.0, 1.0))
    for b in base_anchors(cfg):
        assert b.as_tuple() == (-8.0, -8.0, 8.0, 8.0)


def test_ratio_4_shape():
    cfg = AnchorConfig(scales=(16.0, 32.0, 64.0), ratios=(4.0, 1.0, 2.0))
    b = base_anchors(cfg)[0]  # scale 16, ratio 4
    assert abs(b.width - 8.0) < 1e-12
    assert abs(b.height - 32.0) < 1e-12


def test_areas_preserved():
    cfg = AnchorConfig(scales=(128.0, 256.0, 512.0), ratios=(0.5, 1.0, 2.0))
    anchors = base_anchors(cfg)
    assert len(anchors) == 9
    for i, b in enumerate(anchors):
        s = cfg.scales[i // 3]
        assert abs(b.width * b.height - s * s) < 1e-6


def test_scale_major_order():
    cfg = AnchorConfig(scales=(16.0, 32.0, 64.0), ratios=(0.5, 1.0, 2.0))
    anchors = base_anchors(cfg)
    areas = [b.width * b.height for b in anchors]
    assert np.allclose(areas, [256] * 3 + [1024] * 3 + [4096] * 3)


def test_tile_count_50x62():
    grid = tile(AnchorConfig(), 50, 62)
    assert len(grid) == 50 * 62 * 9 == 27900


def test_tile_count_random_sizes():
    rng = np.random.default_rng(5)
    cfg = AnchorConfig()
    for _ in range(20):
        w = int(rng.integers(1, 40))
        h = int(rng.integers(1, 40))
        assert len(tile(cfg, w, h)) == w * h * 9


def test_single_cell_is_translated_base():
    cfg = AnchorConfig(scales=(16.0, 32.0, 64.0), ratios=(0.5, 1.0, 2.0), stride=16)
    grid = tile(cfg, 1, 1)
    base = np.array([b.as_tuple() for b in base_anchors(cfg)])
    assert np.allclose(grid, base + np.array([8.0, 8.0, 8.0, 8.0]))


def test_shared_center_per_cell():
    grid = tile(AnchorConfig(), 4, 3)
    arr = grid.reshape(3, 4, 9, 4)
    cx = 0.5 * (arr[..., 0] + arr[..., 2])
    cy = 0.5 * (arr[..., 1] + arr[..., 3])
    assert np.allclose(cx, cx[..., :1])
    assert np.allclose(cy, cy[..., :1])
    # row-major layout: cell (row j, col i) center at ((i+.5)s, (j+.5)s)
    assert cx[0, 1, 0] == 1.5 * 16
    assert cy[2, 0, 0] == 2.5 * 16


def test_tile_rejects_empty_grid():
    with pytest.raises(ValueError):
        tile(AnchorConfig(), 0, 5)


def test_tile_is_memoised_and_read_only():
    cfg = AnchorConfig()
    grid = tile(cfg, 50, 62)
    assert tile(cfg, 50, 62) is grid
    assert type(grid) is np.ndarray and grid.shape == (50 * 62 * 9, 4)
    assert not grid.flags.writeable
    with pytest.raises(ValueError):
        grid[0, 0] = 1.0
    fresh = tile.__wrapped__(cfg, 50, 62)
    assert fresh is not grid
    assert np.array_equal(grid, fresh)
