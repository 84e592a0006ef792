import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from raildet.geometry import BoxDelta
from raildet.ohem import (
    MAX_CLS_LOSS,
    OhemConfig,
    RoiLoss,
    ohem_round,
    roi_loss,
    roi_losses,
    select_hard,
    smooth_l1,
    write_roi_losses,
)

ZERO = BoxDelta(0, 0, 0, 0)


class TestSmoothL1:
    def test_quadratic_branch(self):
        assert smooth_l1(0.5) == 0.125
        assert smooth_l1(-0.5) == 0.125

    def test_linear_branch(self):
        assert smooth_l1(2.0) == 1.5
        assert smooth_l1(-3.0) == 2.5

    def test_continuous_at_one(self):
        assert abs(smooth_l1(1.0) - 0.5) < 1e-12


class TestRoiLoss:
    def test_perfect_prediction(self):
        out = roi_loss([0.0, 1.0, 0.0, 0.0, 0.0], 1, ZERO, ZERO)
        assert out.total == 0.0

    def test_background_cls_only(self):
        out = roi_loss([math.exp(-1), 1 - math.exp(-1), 0, 0, 0], 0, ZERO, None)
        assert abs(out.cls_loss - 1.0) < 1e-12
        assert out.reg_loss == 0.0
        assert abs(out.total - 1.0) < 1e-12

    def test_foreground_reg(self):
        probs = [0.0, 1.0, 0.0, 0.0, 0.0]
        target = BoxDelta(0.5, 0.5, 0.5, 0.5)
        out = roi_loss(probs, 1, ZERO, target)
        assert abs(out.reg_loss - 0.5) < 1e-12  # 4 * (0.5^2 / 2)

    def test_zero_probability_clamped(self):
        out = roi_loss([1.0, 0.0, 0.0, 0.0, 0.0], 1, ZERO, ZERO)
        assert out.cls_loss == MAX_CLS_LOSS

    def test_reg_weight(self):
        probs = [0.0, 1.0, 0.0, 0.0, 0.0]
        target = BoxDelta(0.5, 0, 0, 0)
        out = roi_loss(probs, 1, ZERO, target, OhemConfig(reg_loss_weight=2.0))
        assert abs(out.total - 0.25) < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            roi_loss([0.5, 0.6], 0, ZERO, None)  # does not sum to 1
        with pytest.raises(ValueError):
            roi_loss([0.5, 0.5], 3, ZERO, ZERO)  # class out of range
        with pytest.raises(ValueError):
            roi_loss([0.5, 0.5], 1, ZERO, None)  # foreground needs target
        with pytest.raises(ValueError):
            roi_loss([0.5, 0.5], 0, ZERO, ZERO)  # background carries none


def make_losses(values):
    return [RoiLoss(i, v, 0.0, v) for i, v in enumerate(values)]


class TestSelectHard:
    def test_top2(self):
        assert select_hard(make_losses([0.9, 0.1, 0.5]), OhemConfig(batch_size=2)) == [0, 2]

    def test_exactly_b_from_300(self):
        rng = np.random.default_rng(12)
        losses = make_losses(rng.uniform(0, 5, 300))
        out = select_hard(losses, OhemConfig(batch_size=256))
        assert len(out) == 256
        oracle = sorted(losses, key=lambda r: (-r.total, r.roi_index))
        assert out == [r.roi_index for r in oracle[:256]]

    def test_fewer_than_b(self):
        out = select_hard(make_losses([0.1, 0.9, 0.4]), OhemConfig(batch_size=256))
        assert out == [1, 2, 0]

    def test_ties_break_by_index(self):
        out = select_hard(make_losses([1.0, 1.0, 1.0]), OhemConfig(batch_size=2))
        assert out == [0, 1]

    @given(st.lists(st.floats(0, 100), min_size=1, max_size=40),
           st.floats(0.001, 1000))
    def test_scaling_invariance(self, values, scale):
        a = select_hard(make_losses(values), OhemConfig(batch_size=8))
        b = select_hard(make_losses([v * scale for v in values]), OhemConfig(batch_size=8))
        assert a == b

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OhemConfig(batch_size=0)
        with pytest.raises(ValueError):
            OhemConfig(reg_loss_weight=-1.0)


class TestOhemRound:
    def test_perfect_oracle_tie_break_order(self):
        rois = list(range(10))
        targets = [(1, ZERO)] * 10

        def forward(roi):
            return [0.0, 1.0, 0.0, 0.0, 0.0], ZERO

        selected, losses = ohem_round(rois, forward, targets, OhemConfig(batch_size=4))
        assert selected == [0, 1, 2, 3]
        assert all(l.total == 0.0 for l in losses)

    def test_corrupted_roi_ranked_first(self):
        rois = list(range(20))
        targets = [(1, ZERO)] * 20
        targets[13] = (2, ZERO)  # wrong class for this one

        def forward(roi):
            return [0.0, 0.999, 0.001, 0.0, 0.0], ZERO

        selected, _ = ohem_round(rois, forward, targets, OhemConfig(batch_size=5))
        assert selected[0] == 13

    def test_alignment_required(self):
        with pytest.raises(ValueError):
            ohem_round([1, 2], lambda r: ([1.0], ZERO), [(0, None)])

    def test_forward_is_read_only(self):
        calls = []

        def forward(roi):
            calls.append(roi)
            return [1.0, 0.0], ZERO

        selected, losses = ohem_round([7, 8], forward, [(0, None), (0, None)])
        assert calls == [7, 8]
        assert len(losses) == 2


def test_write_roi_losses(tmp_path):
    path = tmp_path / "losses.csv"
    write_roi_losses(path, make_losses([0.5, 1.25]))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "roi_index,cls_loss,reg_loss,total"
    assert lines[1].startswith("0,0.500000")
    assert len(lines) == 3


class TestRoiLosses:
    @staticmethod
    def _batch(seed, n=200):
        rng = np.random.default_rng(seed)
        logits = rng.normal(scale=4.0, size=(n, 5))
        logits[0] = [0.0, -800.0, -800.0, -800.0, -800.0]  # p = 1 for background
        logits[1] = [800.0, -800.0, 0.0, 0.0, 0.0]  # foreground p underflows to 0
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs = e / e.sum(axis=1, keepdims=True)
        pred = rng.normal(scale=1.5, size=(n, 4))
        classes = rng.choice(5, size=n, p=[0.7, 0.1, 0.1, 0.05, 0.05])
        classes[0], classes[1] = 0, 2
        targets = [
            (int(c), BoxDelta(*rng.normal(scale=1.5, size=4)) if c else None) for c in classes
        ]
        return probs, pred, targets

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("weight", [1.0, 0.5, 0.0])
    def test_equals_roi_loss_row_by_row(self, seed, weight):
        config = OhemConfig(reg_loss_weight=weight)
        probs, pred, targets = self._batch(seed)
        got = roi_losses(probs, pred, targets, config)
        want = [
            roi_loss(p, c, BoxDelta(*d), t, config, roi_index=i)
            for i, (p, d, (c, t)) in enumerate(zip(probs, pred, targets))
        ]
        assert got == want
        assert got[1].cls_loss == MAX_CLS_LOSS
        assert any(r.reg_loss > 0 for r in got)

    def test_no_rois(self):
        assert roi_losses(np.zeros((0, 5)), np.zeros((0, 4)), []) == []

    def _raises(self, probs, pred, targets, match):
        with pytest.raises(ValueError, match=match):
            roi_losses(probs, pred, targets)

    def test_nan_probability_rejected(self):
        probs, pred, targets = self._batch(3)
        probs[17, 2] = np.nan
        self._raises(probs, pred, targets, "invalid probability")

    def test_negative_probability_rejected(self):
        probs, pred, targets = self._batch(3)
        probs[5] = [1.5, -0.5, 0.0, 0.0, 0.0]
        self._raises(probs, pred, targets, "invalid probability")

    def test_probabilities_must_sum_to_one(self):
        probs, pred, targets = self._batch(3)
        probs[9] *= 0.5
        self._raises(probs, pred, targets, "sum to")

    @pytest.mark.parametrize("cls", [5, -1])
    def test_class_out_of_range_rejected(self, cls):
        probs, pred, targets = self._batch(3)
        targets[4] = (cls, ZERO)
        self._raises(probs, pred, targets, "out of range")

    def test_foreground_without_delta_rejected(self):
        probs, pred, targets = self._batch(3)
        targets[4] = (1, None)
        self._raises(probs, pred, targets, "exactly for foreground")

    def test_background_with_delta_rejected(self):
        probs, pred, targets = self._batch(3)
        targets[0] = (0, ZERO)
        self._raises(probs, pred, targets, "exactly for foreground")

    def test_non_finite_predicted_delta_rejected(self):
        probs, pred, targets = self._batch(3)
        pred[7, 3] = np.inf
        self._raises(probs, pred, targets, "non-finite")

    def test_shapes_must_align(self):
        probs, pred, targets = self._batch(3)
        self._raises(probs, pred, targets[:-1], "targets need")
        self._raises(probs, pred[:, :3], targets, "targets need")
