import contextlib
import zlib
from unittest import mock

import numpy as np
import pytest

from raildet import proposal
from raildet.anchors import AnchorConfig, tile
from raildet.geometry import BBOX_XFORM_CLIP, BBox, clip_array, decode_array, iou
from raildet.model import extract_features, random_weights, rpn_forward
from raildet.oracle import build_oracle_weights
from raildet.pipeline import PipelineConfig
from raildet.proposal import ProposalConfig, ScoredBox, _greedy_keep, nms, propose
from raildet.synth import synthesize_scene


def brute_force_nms(boxes, iou_threshold):
    """Reference greedy NMS over the full IOU matrix, O(n^2)."""
    order = sorted(range(len(boxes)), key=lambda i: (-boxes[i].score, boxes[i].source_index))
    kept, removed = [], set()
    for i in order:
        if i in removed:
            continue
        kept.append(boxes[i].source_index)
        for j in order:
            if j not in removed and j != i:
                if iou(boxes[i].box, boxes[j].box) > iou_threshold:
                    removed.add(j)
        removed.add(i)
    return kept


def sb(x0, y0, x1, y1, score, idx):
    return ScoredBox(box=BBox(x0, y0, x1, y1), score=score, source_index=idx)


def test_duplicate_suppression():
    boxes = [sb(0, 0, 10, 10, 0.9, 0), sb(0, 0, 10, 10, 0.8, 1)]
    assert nms(boxes, 0.5) == [0]


def test_disjoint_kept():
    boxes = [sb(0, 0, 10, 10, 0.9, 0), sb(50, 50, 60, 60, 0.8, 1)]
    assert nms(boxes, 0.5) == [0, 1]


def test_empty():
    assert nms([], 0.5) == []


@pytest.mark.parametrize("thr", [0.0, 0.5])
def test_single_box_is_kept(thr):
    kept = nms([sb(3, 4, 3.5, 90, 0.0, 7)], thr)
    assert kept == [7] and type(kept[0]) is int


def test_tie_breaks_by_source_index():
    boxes = [sb(0, 0, 10, 10, 0.9, 5), sb(0, 0, 10, 10, 0.9, 2)]
    assert nms(boxes, 0.5) == [2]


def test_matches_brute_force_random():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 21))
        boxes = []
        for i in range(n):
            x = np.sort(rng.uniform(0, 100, 2))
            y = np.sort(rng.uniform(0, 100, 2))
            boxes.append(
                sb(x[0], y[0], x[1] + 1, y[1] + 1, float(rng.uniform(0, 1)), i)
            )
        thr = float(rng.uniform(0.2, 0.8))
        assert nms(boxes, thr) == brute_force_nms(boxes, thr)


def test_score_invariance_under_monotone_transform():
    rng = np.random.default_rng(8)
    boxes = []
    for i in range(15):
        x = np.sort(rng.uniform(0, 60, 2))
        y = np.sort(rng.uniform(0, 60, 2))
        boxes.append(sb(x[0], y[0], x[1] + 1, y[1] + 1, float(rng.uniform(0.1, 0.9)), i))
    squashed = [
        ScoredBox(box=b.box, score=b.score**2, source_index=b.source_index) for b in boxes
    ]
    assert nms(boxes, 0.5) == nms(squashed, 0.5)


class TestProposalConfig:
    def test_defaults(self):
        cfg = ProposalConfig()
        assert cfg.post_nms_top == 300
        assert cfg.pre_nms_top == 6000
        assert cfg.nms_iou_threshold == 0.7

    def test_validation(self):
        with pytest.raises(ValueError):
            ProposalConfig(post_nms_top=0)
        with pytest.raises(ValueError):
            ProposalConfig(pre_nms_top=10, post_nms_top=20)
        with pytest.raises(ValueError):
            ProposalConfig(nms_iou_threshold=1.0)

    # a box clipped to zero width must fail the min-size filter
    @pytest.mark.parametrize("value", [0.0, -1.0, np.nan, -np.inf])
    def test_min_box_size_must_be_positive(self, value):
        with pytest.raises(ValueError, match="min_box_size must be positive"):
            ProposalConfig(min_box_size=value)


class TestPropose:
    def _grid(self):
        return tile(AnchorConfig(scales=(16.0, 32.0, 64.0), ratios=(0.5, 1.0, 2.0)), 10, 10)

    def test_six_disjoint_winners(self):
        grid = self._grid()
        n = len(grid)
        scores = np.zeros(n)
        deltas = np.zeros((n, 4))
        # six 16x16 anchors (base index 4 is scale 16, ratio 1) on cells far
        # enough apart to stay disjoint
        chosen = []
        for cell in (0, 3, 6, 30, 33, 36):
            chosen.append(cell * 9 + 4)
        for i in chosen:
            scores[i] = 1.0
        out = list(propose(grid, scores, deltas, 160, 160))
        assert [r.source_index for r in out[:6]] == sorted(chosen)
        assert all(r.score == 1.0 for r in out[:6])

    def test_budget_respected(self):
        grid = self._grid()
        rng = np.random.default_rng(9)
        scores = rng.uniform(0, 1, len(grid))
        deltas = np.zeros((len(grid), 4))
        cfg = ProposalConfig(post_nms_top=5)
        out = propose(grid, scores, deltas, 160, 160, cfg)
        assert len(out) <= 5

    def test_budget_prefix_stable(self):
        grid = self._grid()
        rng = np.random.default_rng(10)
        scores = rng.uniform(0, 1, len(grid))
        deltas = rng.normal(0, 0.1, (len(grid), 4))
        full = propose(grid, scores, deltas, 160, 160, ProposalConfig(post_nms_top=300))
        small = propose(grid, scores, deltas, 160, 160, ProposalConfig(post_nms_top=50))
        assert [r.source_index for r in small] == [r.source_index for r in full][: len(small)]

    def test_pre_nms_top_keeps_rank_order_through_ties(self):
        grid = self._grid()
        rng = np.random.default_rng(12)
        scores = rng.choice([0.2, 0.5, 0.8], len(grid))  # ties straddle the cut
        deltas = np.zeros((len(grid), 4))
        for top in (1, 50, 299, 300, 301):
            cfg = ProposalConfig(pre_nms_top=top, post_nms_top=top, nms_iou_threshold=0.99)
            out = propose(grid, scores, deltas, 160, 160, cfg)
            # no two anchors coincide, so nothing is suppressed at IOU 0.99
            expected = np.lexsort((np.arange(len(grid)), -scores))[:top]
            assert [r.source_index for r in out] == expected.tolist()

    def test_min_size_filter(self):
        grid = self._grid()
        n = len(grid)
        scores = np.ones(n)
        deltas = np.zeros((n, 4))
        deltas[:, 2] = -10.0  # shrink widths to ~0
        assert list(propose(grid, scores, deltas, 160, 160)) == []

    def test_boxes_clipped_to_canvas(self):
        grid = self._grid()
        rng = np.random.default_rng(11)
        scores = rng.uniform(0, 1, len(grid))
        deltas = rng.normal(0, 0.3, (len(grid), 4))
        for r in propose(grid, scores, deltas, 160, 160):
            b = r.box
            assert 0 <= b.x_min <= b.x_max <= 160
            assert 0 <= b.y_min <= b.y_max <= 160

    def test_shape_mismatch_rejected(self):
        grid = self._grid()
        with pytest.raises(ValueError):
            propose(grid, np.zeros(3), np.zeros((3, 4)), 160, 160)

    @pytest.mark.parametrize("bad", [[7], slice(None)])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_scores_rejected(self, bad, value):
        grid = self._grid()
        scores = np.full(len(grid), 0.5)
        scores[bad] = value
        deltas = np.zeros((len(grid), 4))
        # pre_nms_top below the anchor count takes the partition path, where
        # NaN would otherwise drop out of the ranking without an error
        cfg = ProposalConfig(pre_nms_top=100, post_nms_top=50)
        with pytest.raises(ValueError, match="non-finite"):
            propose(grid, scores, deltas, 160, 160, cfg)

    def test_huge_predicted_scale_is_clamped(self):
        grid = self._grid()
        i = 55 * 9 + 1  # the 16x16 anchor at cell (5, 5), center (88, 88)
        scores = np.zeros(len(grid))
        scores[i] = 1.0
        deltas = np.zeros((len(grid), 4))
        deltas[i] = (0.0, 0.0, 800.0, 800.0)
        top = list(propose(grid, scores, deltas, 2000, 2000))[0]
        assert top.source_index == i
        # tw = th = log(1000/16): the anchor grows to 1000x1000 around its
        # center, then the canvas clips the negative corner
        assert top.box.x_min == 0.0 and top.box.y_min == 0.0
        assert top.box.x_max == pytest.approx(588.0)
        assert top.box.y_max == pytest.approx(588.0)


def _block_edge_boxes(n, seed):
    """Crowded boxes with tied scores and exact duplicates spread over the
    whole order, so suppression crosses every block edge."""
    rng = np.random.default_rng(seed)
    xy = rng.uniform(0, 400, (n, 2))
    wh = rng.uniform(10, 80, (n, 2))
    arr = np.concatenate([xy, xy + wh], axis=1)
    scores = rng.choice(np.linspace(0.1, 0.9, 9), n)
    dup = rng.choice(n, n // 8, replace=False)
    src = rng.integers(0, n, dup.size)
    arr[dup] = arr[src]
    scores[dup[::2]] = scores[src[::2]]  # half of the duplicates also tie on score
    return [sb(*arr[i], float(scores[i]), i) for i in range(n)]


@pytest.mark.parametrize("n", [255, 256, 257, 1000])
def test_nms_matches_brute_force_across_blocks(n):
    boxes = _block_edge_boxes(n, n)
    for thr in (0.3, 0.7):
        assert nms(boxes, thr) == brute_force_nms(boxes, thr)


@pytest.mark.parametrize("n", [255, 256, 257, 1000])
def test_greedy_keep_matches_brute_force_with_early_exit(n):
    boxes = _block_edge_boxes(n, n + 1)
    # equal scores leave the oracle ordering by source index, i.e. by position
    tied = [ScoredBox(box=b.box, score=0.5, source_index=b.source_index) for b in boxes]
    arr = np.array([b.box.as_tuple() for b in boxes])
    full = brute_force_nms(tied, 0.5)
    assert _greedy_keep(arr, 0.5) == full
    for k in (1, 2, len(full) // 2, len(full) - 1, len(full), len(full) + 1):
        if k >= 1:
            assert _greedy_keep(arr, 0.5, max_keep=k) == full[:k]


def test_exact_duplicates_across_block_edge():
    # the same box at positions 0, 255, 256 and 511: only the first survives
    arr = np.array([[1000.0 + 3 * i, 0.0, 1002.0 + 3 * i, 2.0] for i in range(600)])
    for pos in (255, 256, 511):
        arr[pos] = arr[0]
    kept = _greedy_keep(arr, 0.5)
    assert kept == [i for i in range(600) if i not in (255, 256, 511)]


def unchunked_propose(grid, scores, deltas, image_w, image_h, config=ProposalConfig()):
    """``propose`` decoding and clipping every anchor in one pass."""
    clamped = np.minimum(deltas, [np.inf, np.inf, BBOX_XFORM_CLIP, BBOX_XFORM_CLIP])
    boxes = clip_array(decode_array(grid, clamped), image_w, image_h)
    keep = ((boxes[:, 2] - boxes[:, 0] >= config.min_box_size)
            & (boxes[:, 3] - boxes[:, 1] >= config.min_box_size))
    idx = np.nonzero(keep)[0]
    idx = idx[np.lexsort((idx, -scores[idx]))][: config.pre_nms_top]
    kept = _greedy_keep(boxes[idx], config.nms_iou_threshold, max_keep=config.post_nms_top)
    return [ScoredBox(BBox(*boxes[idx[p]]), float(scores[idx[p]]), int(idx[p])) for p in kept]


class TestChunkedDecode:
    def _inputs(self, seed, w, h):
        grid = tile(AnchorConfig(), w, h)
        rng = np.random.default_rng(seed)
        scores = rng.choice(np.linspace(0.05, 0.95, 19), len(grid))
        deltas = rng.normal(0, 0.5, (len(grid), 4))
        deltas[::7, 2:] = 40.0  # past the clamp
        deltas[::11, :2] = 90.0  # shoved off the canvas
        return grid, scores, deltas

    @pytest.mark.parametrize("seed", [0, 1])
    def test_full_map_equals_unchunked(self, seed):
        grid, scores, deltas = self._inputs(seed, 50, 62)
        assert len(grid) % proposal.DECODE_CHUNK != 0
        for config in (ProposalConfig(), ProposalConfig(post_nms_top=10, pre_nms_top=500)):
            assert (list(propose(grid, scores, deltas, 800, 1000, config))
                    == unchunked_propose(grid, scores, deltas, 800, 1000, config))

    @pytest.mark.parametrize("chunk", [1, 7, 90, 4096])
    def test_any_chunk_size_equals_unchunked(self, monkeypatch, chunk):
        grid, scores, deltas = self._inputs(2, 5, 4)  # 180 anchors
        monkeypatch.setattr(proposal, "DECODE_CHUNK", chunk)
        assert (list(propose(grid, scores, deltas, 80, 64))
                == unchunked_propose(grid, scores, deltas, 80, 64))

    def test_non_finite_delta_in_a_later_chunk_raises(self, monkeypatch):
        grid, scores, deltas = self._inputs(3, 5, 4)
        deltas[170, 0] = np.nan
        monkeypatch.setattr(proposal, "DECODE_CHUNK", 16)
        with pytest.raises(ValueError, match="non-finite delta"):
            propose(grid, scores, deltas, 80, 64)


# ---------------------------------------------------------------------------
# The lean decode, the ranking window and budget-sized NMS blocks
# ---------------------------------------------------------------------------

def reference_decode_clip(anchors, deltas, width, height):
    """Clamp, decode and clip with one full-size temporary per step: the
    float expressions ``decode_array`` and ``clip_array`` must reproduce."""
    deltas = np.minimum(deltas, [np.inf, np.inf, BBOX_XFORM_CLIP, BBOX_XFORM_CLIP])
    wa = anchors[:, 2] - anchors[:, 0]
    ha = anchors[:, 3] - anchors[:, 1]
    cx = 0.5 * (anchors[:, 0] + anchors[:, 2]) + deltas[:, 0] * wa
    cy = 0.5 * (anchors[:, 1] + anchors[:, 3]) + deltas[:, 1] * ha
    w = wa * np.exp(deltas[:, 2])
    h = ha * np.exp(deltas[:, 3])
    boxes = np.stack([cx - 0.5 * w, cy - 0.5 * h, cx + 0.5 * w, cy + 0.5 * h], axis=1)
    boxes[:, 0::2] = np.clip(boxes[:, 0::2], 0.0, width)
    boxes[:, 1::2] = np.clip(boxes[:, 1::2], 0.0, height)
    return boxes


class TestLeanDecode:
    def _inputs(self, n, seed):
        rng = np.random.default_rng(seed)
        xy = rng.uniform(-100, 900, (n, 2))
        anchors = np.concatenate([xy, xy + rng.uniform(8, 128, (n, 2))], axis=1)
        deltas = rng.normal(0, 0.5, (n, 4))
        deltas[::5, 2:] = rng.uniform(5, 60, (len(deltas[::5]), 2))  # past the clamp
        deltas[::7, :2] = rng.choice([-90.0, 90.0], (len(deltas[::7]), 2))  # off the canvas
        deltas[::3, 2:] = rng.uniform(-12, -4, (len(deltas[::3]), 2))  # below min_box_size
        return anchors, deltas

    @pytest.mark.parametrize("n", [1, 37, proposal.DECODE_CHUNK + 1, 2 * proposal.DECODE_CHUNK + 37])
    def test_chunked_in_place_equals_reference(self, n):
        anchors, deltas = self._inputs(n, n)
        boxes = np.empty((n, 4))
        for start in range(0, n, proposal.DECODE_CHUNK):
            rows = slice(start, start + proposal.DECODE_CHUNK)
            decode_array(anchors[rows], deltas[rows], out=boxes[rows],
                         max_log_scale=BBOX_XFORM_CLIP)
        clip_array(boxes, 800, 1000, out=boxes)
        want = reference_decode_clip(anchors, deltas, 800, 1000)
        assert np.array_equal(boxes, want)
        assert (boxes[:, 2] - boxes[:, 0] < 1.0).any()  # some fall to the filter

    def test_new_arrays_equal_reference(self):
        anchors, deltas = self._inputs(500, 3)
        clamped = np.minimum(deltas, [np.inf, np.inf, BBOX_XFORM_CLIP, BBOX_XFORM_CLIP])
        got = clip_array(decode_array(anchors, clamped), 800, 1000)
        assert np.array_equal(got, reference_decode_clip(anchors, deltas, 800, 1000))

    @pytest.mark.parametrize("column, value, raises", [
        (0, np.inf, True), (1, -np.inf, True), (2, np.nan, True), (3, -np.inf, True),
        (2, np.inf, False),  # clamped to BBOX_XFORM_CLIP first
    ])
    def test_non_finite_clamped_delta_raises(self, column, value, raises):
        anchors, deltas = self._inputs(50, 4)
        deltas[40, column] = value
        call = lambda: decode_array(anchors, deltas, max_log_scale=BBOX_XFORM_CLIP)  # noqa: E731
        if raises:
            with pytest.raises(ValueError, match="non-finite delta"):
                call()
        else:
            assert np.isfinite(call()).all()

    def test_degenerate_anchor_raises(self):
        anchors, deltas = self._inputs(50, 5)
        anchors[30, 3] = anchors[30, 1]
        with pytest.raises(ValueError, match="degenerate anchor"):
            decode_array(anchors, deltas, out=np.empty((50, 4)))


def _full_grid_inputs(seed, levels=19, spread=0.5):
    grid = tile(AnchorConfig(), 50, 62)
    rng = np.random.default_rng(seed)
    scores = rng.choice(np.linspace(0.05, 0.95, levels), len(grid))
    deltas = rng.normal(0, spread, (len(grid), 4))
    deltas[::9, 2:] = 40.0
    return grid, scores, deltas


class TestRankingWindow:
    """``propose`` ranks FIRST_RANKS boxes first; it must equal the full
    ranking of ``unchunked_propose`` whichever pass ends NMS."""

    def test_oracle_like_score_tie(self):
        grid = tile(AnchorConfig(), 50, 62)
        rng = np.random.default_rng(20)
        scores = np.full(len(grid), 0.25)
        scores[rng.choice(len(grid), len(grid) - 27_873, replace=False)] = rng.uniform(0.5, 1, 27)
        assert np.count_nonzero(scores == 0.25) == 27_873
        deltas = rng.normal(0, 0.2, (len(grid), 4))
        for config in (ProposalConfig(), ProposalConfig(post_nms_top=50, pre_nms_top=600)):
            assert (list(propose(grid, scores, deltas, 800, 1000, config))
                    == unchunked_propose(grid, scores, deltas, 800, 1000, config))

    @pytest.mark.parametrize("pre", [1, 10, 100, proposal.FIRST_RANKS - 1])
    def test_pre_nms_top_below_the_window(self, pre):
        grid, scores, deltas = _full_grid_inputs(21, levels=3)
        config = ProposalConfig(pre_nms_top=pre, post_nms_top=min(pre, 50))
        assert (list(propose(grid, scores, deltas, 800, 1000, config))
                == unchunked_propose(grid, scores, deltas, 800, 1000, config))

    @pytest.mark.parametrize("budget", [1, 10, 50, 300])
    def test_budgets(self, budget):
        grid, scores, deltas = _full_grid_inputs(22)
        config = ProposalConfig(post_nms_top=budget)
        got = list(propose(grid, scores, deltas, 800, 1000, config))
        assert got == unchunked_propose(grid, scores, deltas, 800, 1000, config)
        assert len(got) == budget

    @pytest.mark.parametrize("first", [1, 8, 64])
    def test_second_pass_over_pre_nms_top(self, monkeypatch, first):
        grid, scores, deltas = _full_grid_inputs(23, spread=0.05)
        config = ProposalConfig(nms_iou_threshold=0.3, pre_nms_top=2000, post_nms_top=200)
        want = unchunked_propose(grid, scores, deltas, 800, 1000, config)
        calls = []

        def counted(boxes, *args, **kwargs):
            calls.append(len(boxes))
            return _greedy_keep(boxes, *args, **kwargs)

        monkeypatch.setattr(proposal, "FIRST_RANKS", first)
        monkeypatch.setattr(proposal, "_greedy_keep", counted)
        assert list(propose(grid, scores, deltas, 800, 1000, config)) == want
        assert calls == [first, config.pre_nms_top]  # the window ran out first


@pytest.mark.parametrize("n", [63, 64, 65, 600])
@pytest.mark.parametrize("max_keep", [1, 10, 50, 300])
def test_budget_sized_blocks_match_brute_force(n, max_keep):
    boxes = _block_edge_boxes(n, 2 * n + max_keep)
    tied = [ScoredBox(box=b.box, score=0.5, source_index=b.source_index) for b in boxes]
    arr = np.array([b.box.as_tuple() for b in boxes])
    for thr in (0.3, 0.7):
        assert _greedy_keep(arr, thr, max_keep=max_keep) == brute_force_nms(tied, thr)[:max_keep]


# ---------------------------------------------------------------------------
# The rank-first walk and the Rois record
# ---------------------------------------------------------------------------

class TestRankFirstWalk:
    """``propose`` decodes only as far down the score ranking as NMS reads;
    the ROIs must equal those of ``unchunked_propose`` on either path."""

    def _distinct(self, seed, spread=0.3):
        grid = tile(AnchorConfig(), 50, 62)
        rng = np.random.default_rng(seed)
        return grid, rng.uniform(0, 1, len(grid)), rng.normal(0, spread, (len(grid), 4))

    def _decoded_rows(self, monkeypatch):
        rows = []
        original = proposal._decode_clip

        def counted(anchors, *args):
            rows.append(len(anchors))
            return original(anchors, *args)

        monkeypatch.setattr(proposal, "_decode_clip", counted)
        return rows

    @pytest.mark.parametrize("budget", [1, 10, 50, 300])
    def test_distinct_scores_decode_a_prefix(self, monkeypatch, budget):
        grid, scores, deltas = self._distinct(30)
        config = ProposalConfig(post_nms_top=budget)
        want = unchunked_propose(grid, scores, deltas, 800, 1000, config)
        rows = self._decoded_rows(monkeypatch)
        got = propose(grid, scores, deltas, 800, 1000, config)
        assert list(got) == want
        assert sum(rows) < len(grid) // 2

    def test_top_ranked_boxes_fail_the_filter(self, monkeypatch):
        grid, scores, deltas = self._distinct(31)
        ranked = np.argsort(-scores, kind="stable")
        deltas[ranked[:1500:2], 2] = -12.0  # half of the best 1,500 shrink below min size
        deltas[ranked[1500:2600], 3] = -12.0  # and every box of the next 1,100
        config = ProposalConfig(pre_nms_top=3000, nms_iou_threshold=0.3)
        want = unchunked_propose(grid, scores, deltas, 800, 1000, config)
        rows = self._decoded_rows(monkeypatch)
        assert list(propose(grid, scores, deltas, 800, 1000, config)) == want
        assert len(rows) > 1 and sum(rows) < len(grid)  # the walk went on past one window

    @pytest.mark.parametrize("run", [100, proposal.FIRST_RANKS, proposal.FIRST_RANKS + 1, 3000])
    def test_tie_across_the_window_end(self, monkeypatch, run):
        grid, scores, deltas = self._distinct(32)
        ranked = np.argsort(-scores, kind="stable")
        scores[ranked[400 : 400 + run]] = scores[ranked[400]]  # a tie from rank 400 on
        rows = self._decoded_rows(monkeypatch)
        for config in (ProposalConfig(), ProposalConfig(pre_nms_top=2000, post_nms_top=10),
                       ProposalConfig(nms_iou_threshold=0.1)):
            assert (list(propose(grid, scores, deltas, 800, 1000, config))
                    == unchunked_propose(grid, scores, deltas, 800, 1000, config))
        # a tie longer than the first window sends it to the full decode
        assert (rows[0] == len(grid)) == (run > proposal.FIRST_RANKS)

    def test_background_tie_decodes_every_anchor_once(self, monkeypatch):
        grid = tile(AnchorConfig(), 50, 62)
        rng = np.random.default_rng(33)
        scores = np.full(len(grid), 1e-9)
        scores[rng.choice(len(grid), 200, replace=False)] = 1e-12  # below the run
        scores[rng.choice(len(grid), 6, replace=False)] = 1.0
        deltas = rng.normal(0, 0.2, (len(grid), 4))
        rows = self._decoded_rows(monkeypatch)
        got = propose(grid, scores, deltas, 800, 1000)
        assert list(got) == unchunked_propose(grid, scores, deltas, 800, 1000)
        assert rows == [len(grid)]

    @pytest.mark.parametrize("column", [0, 1, 2, 3])
    def test_nan_delta_past_the_walk_raises(self, monkeypatch, column):
        grid, scores, deltas = self._distinct(34)
        last = int(np.argmin(scores))  # ranked last, never decoded by the walk
        deltas[last, column] = np.nan
        rows = self._decoded_rows(monkeypatch)
        with pytest.raises(ValueError, match="non-finite delta"):
            propose(grid, scores, deltas, 800, 1000)
        assert rows == []  # raised before any decode

    def test_infinite_log_scale_past_the_walk_is_clamped(self):
        grid, scores, deltas = self._distinct(35)
        deltas[int(np.argmin(scores)), 2:] = np.inf
        assert len(propose(grid, scores, deltas, 800, 1000)) == 300
        deltas[int(np.argmin(scores)), 3] = -np.inf
        with pytest.raises(ValueError, match="non-finite delta"):
            propose(grid, scores, deltas, 800, 1000)

    def test_degenerate_anchor_past_the_walk_raises(self):
        grid, scores, deltas = self._distinct(36)
        grid = grid.copy()  # tile's arrays are memoised and read-only
        last = int(np.argmin(scores))
        grid[last, 2] = grid[last, 0]
        with pytest.raises(ValueError, match="degenerate anchor"):
            propose(grid, scores, deltas, 800, 1000)

    def test_rois_arrays_and_iteration(self):
        grid, scores, deltas = self._distinct(37)
        rois = propose(grid, scores, deltas, 800, 1000, ProposalConfig(post_nms_top=50))
        assert isinstance(rois, proposal.Rois)
        assert rois.boxes.shape == (50, 4) and rois.scores.shape == (50,)
        assert rois.anchor_indices.dtype.kind == "i"
        assert np.array_equal(rois.scores, scores[rois.anchor_indices])
        listed = list(rois)
        assert [r.source_index for r in listed] == rois.anchor_indices.tolist()
        assert [r.box.as_tuple() for r in listed] == [tuple(b) for b in rois.boxes.tolist()]

    def test_no_survivor_is_an_empty_rois(self):
        grid, scores, deltas = self._distinct(38)
        rois = propose(grid, scores, deltas, 800, 1000, ProposalConfig(min_box_size=2000.0))
        assert len(rois) == 0 and list(rois) == []
        assert rois.boxes.shape == (0, 4)

    def test_score_outside_unit_interval_raises(self):
        grid, scores, deltas = self._distinct(39)
        scores[int(np.argmax(scores))] = 1.5
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            propose(grid, scores, deltas, 800, 1000)


# ---------------------------------------------------------------------------
# The surely-empty cut in the walk's decode-everything fallback
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def decoding_every_anchor():
    """The walk's fallback without the surely-empty cut, as a reference: it
    decodes every anchor in index order, and ``decode_array`` raises, chunk
    by chunk, the errors of the anchors and deltas."""
    with mock.patch.object(proposal, "_maybe_nonempty",
                           lambda anchors, *_: np.arange(len(anchors))), \
            mock.patch.object(proposal, "_check_decodable_in_chunks", lambda *_: None):
        yield


def reference_propose(*args):
    with decoding_every_anchor():
        return propose(*args)


def assert_same_rois(got, want):
    for name in ("boxes", "scores", "anchor_indices"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


CANVAS = (800, 1000)
OFFSETS_PX = (-3.0, -0.5, -1e-3, 0.0, 1e-3, 0.5, 3.0)


def _shoved(stride, axis, side, offset, mode, seed):
    """An oracle-like map: every anchor but six ties at one background score,
    and each of those has its decoded centre on ``axis`` ``offset`` px
    beyond the half-size of its widest clamped box past the ``side`` edge
    (negative: inside it).  ``mode`` sets tw/th to ``BBOX_XFORM_CLIP``
    ("clip", also "touching") or to values below it with some at ``+inf``
    ("mixed"); "touching" translates every anchor to touch the canvas edge
    it is shoved past."""
    grid = tile(AnchorConfig(stride=stride), CANVAS[0] // stride, CANVAS[1] // stride).copy()
    n = len(grid)
    rng = np.random.default_rng(seed)
    k, limit = axis, CANVAS[axis]
    if mode == "touching":
        shift = (limit - grid[:, k + 2]) if side == "far" else -grid[:, k]
        grid[:, k] += shift
        grid[:, k + 2] += shift
    scores = np.full(n, 0.02)
    hits = rng.choice(n, 6, replace=False)
    scores[hits] = rng.uniform(0.9, 1.0, 6)
    deltas = rng.normal(0, 0.2, (n, 4))
    if mode == "mixed":
        deltas[:, 2:] = rng.uniform(-4.0, BBOX_XFORM_CLIP, (n, 2))
        deltas[::5, 2] = np.inf
        deltas[::7, 3] = np.inf
    else:
        deltas[:, 2:] = BBOX_XFORM_CLIP
    size = grid[:, k + 2] - grid[:, k]
    center = 0.5 * (grid[:, k] + grid[:, k + 2])
    reach = 0.5 * size * np.exp(BBOX_XFORM_CLIP)
    target = limit + reach + offset if side == "far" else -reach - offset
    shoved = np.ones(n, dtype=bool)
    shoved[hits] = False
    deltas[shoved, k] = ((target - center) / size)[shoved]
    return grid, scores, deltas, hits


class TestSurelyEmptyCut:
    """Where the walk decodes every anchor it first drops those whose box
    surely clips to nothing; the ROIs must equal those of decoding every
    anchor, and every decode error must stay where it was."""

    def _decoded_rows(self):
        rows = []
        original = proposal._decode_clip

        def counted(anchors, *args):
            rows.append(len(anchors))
            return original(anchors, *args)

        return rows, mock.patch.object(proposal, "_decode_clip", counted)

    # a tiny min_box_size keeps the boxes that end 1e-3 px inside the edge
    @pytest.mark.parametrize("min_size", [1.0, 1e-4])
    @pytest.mark.parametrize("mode", ["clip", "mixed", "touching"])
    @pytest.mark.parametrize("offset", OFFSETS_PX)
    @pytest.mark.parametrize("side", ["near", "far"])
    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("budget", [300, 50, 10])
    @pytest.mark.parametrize("stride", [16, 32])
    def test_equals_decoding_every_anchor(self, stride, budget, axis, side, offset, mode,
                                          min_size):
        seed = zlib.crc32(repr((stride, budget, axis, side, offset, mode, min_size)).encode())
        grid, scores, deltas, hits = _shoved(stride, axis, side, offset, mode, seed)
        config = ProposalConfig(post_nms_top=budget, min_box_size=min_size)
        args = (grid, scores, deltas, *CANVAS, config)
        rows, counting = self._decoded_rows()
        with counting:
            got = propose(*args)
        assert_same_rois(got, reference_propose(*args))
        assert list(got) == unchunked_propose(*args)
        if offset >= 0.5:  # well past the margin: only the six boxes on the canvas decode
            assert rows == [len(hits)]
        if offset <= -0.5:  # inside the bound: the shoved boxes are decoded
            assert rows == [len(grid)]

    @pytest.fixture(scope="class")
    def pipeline_inputs(self):
        """Anchors, scores and deltas of real heads on scenes 0-3 (oracle)
        and scene 0 (random:0/1/2), at strides 16 and 32."""
        inputs = {}
        for stride in (16, 32):
            config = PipelineConfig(anchors=AnchorConfig(stride=stride))
            heads = [("oracle", build_oracle_weights(config), 4)]
            heads += [(f"random:{s}", random_weights(s), 1) for s in (0, 1, 2)]
            for name, weights, scenes in heads:
                for scene in range(scenes):
                    image, _ = synthesize_scene(scene)
                    fm = extract_features(image, stride)
                    scores, deltas = rpn_forward(fm, weights.rpn)
                    grid = tile(config.anchors, fm.width, fm.height)
                    inputs[name, stride, scene] = (grid, scores, deltas, image.shape[1],
                                                   image.shape[0])
        return inputs

    @pytest.mark.parametrize("budget", [300, 50, 10])
    @pytest.mark.parametrize("stride", [16, 32])
    @pytest.mark.parametrize("head, scene", [("oracle", s) for s in range(4)]
                             + [(f"random:{s}", 0) for s in (0, 1, 2)])
    def test_pipeline_heads(self, pipeline_inputs, head, scene, stride, budget):
        args = (*pipeline_inputs[head, stride, scene], ProposalConfig(post_nms_top=budget))
        rows, counting = self._decoded_rows()
        with counting:
            got = propose(*args)
        assert_same_rois(got, reference_propose(*args))
        if head == "oracle":  # the oracle shoves all but a few boxes off the canvas
            assert len(rows) == 1 and len(got) <= rows[0] < 100

    def _dropped(self):
        """An oracle-like map at stride 16 and the index of an anchor in
        each decode chunk that the cut drops."""
        grid, scores, deltas, hits = _shoved(16, 1, "far", 3.0, "clip", 40)
        chunk = proposal.DECODE_CHUNK
        dropped = [i for i in range(0, len(grid), chunk) if i not in hits]
        assert len(dropped) == -(-len(grid) // chunk)
        assert not np.isin(dropped, proposal._maybe_nonempty(grid, deltas, *CANVAS)).any()
        return grid, scores, deltas, dropped

    @pytest.mark.parametrize("column, value", [(0, np.nan), (1, np.inf), (2, np.nan),
                                               (3, -np.inf)])
    def test_non_finite_delta_on_a_dropped_anchor_raises(self, column, value):
        grid, scores, deltas, dropped = self._dropped()
        deltas[dropped[3], column] = value
        with pytest.raises(ValueError, match="non-finite delta"):
            propose(grid, scores, deltas, *CANVAS)

    def test_degenerate_dropped_anchor_raises(self):
        grid, scores, deltas, dropped = self._dropped()
        grid[dropped[3], 3] = grid[dropped[3], 1]
        with pytest.raises(ValueError, match="degenerate anchor"):
            propose(grid, scores, deltas, *CANVAS)

    @pytest.mark.parametrize("nan_chunk, degenerate_chunk", [(0, 3), (3, 0), (2, 2), (6, 5)])
    def test_errors_keep_their_order(self, nan_chunk, degenerate_chunk):
        grid, scores, deltas, dropped = self._dropped()
        deltas[dropped[nan_chunk], 1] = np.nan
        grid[dropped[degenerate_chunk], 2] = grid[dropped[degenerate_chunk], 0] - 1.0
        with pytest.raises(ValueError) as want:
            reference_propose(grid, scores, deltas, *CANVAS)
        assert str(want.value) == ("non-finite delta" if nan_chunk < degenerate_chunk
                                   else "degenerate anchor")
        with pytest.raises(ValueError, match=str(want.value)):
            propose(grid, scores, deltas, *CANVAS)
