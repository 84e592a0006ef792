import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import per_roi
from raildet.geometry import BoxDelta
from raildet.ohem import (
    MAX_CLS_LOSS,
    OhemConfig,
    RoiLoss,
    ohem_round,
    roi_loss,
    select_hard,
)

ZERO = BoxDelta(0, 0, 0, 0)
SURE_V = [0.0, 1.0, 0.0, 0.0, 0.0]  # class V with probability 1


def one_row(class_probs, target_class, pred_delta, target_delta, config=OhemConfig()):
    """:func:`roi_loss` of a single ROI."""
    (out,) = roi_loss([class_probs], [pred_delta.as_tuple()], [(target_class, target_delta)],
                      config)
    return out


class TestSmoothL1:
    """The regression term of one foreground ROI whose tx is off by x."""

    @staticmethod
    def _reg(x):
        return one_row(SURE_V, 1, BoxDelta(x, 0, 0, 0), ZERO).reg_loss

    def test_quadratic_branch(self):
        assert self._reg(0.5) == 0.125
        assert self._reg(-0.5) == 0.125

    def test_linear_branch(self):
        assert self._reg(2.0) == 1.5
        assert self._reg(-3.0) == 2.5

    def test_continuous_at_one(self):
        assert abs(self._reg(1.0) - 0.5) < 1e-12


class TestRoiLoss:
    def test_perfect_prediction(self):
        out = one_row(SURE_V, 1, ZERO, ZERO)
        assert out.total == 0.0

    def test_background_cls_only(self):
        out = one_row([math.exp(-1), 1 - math.exp(-1), 0, 0, 0], 0, ZERO, None)
        assert abs(out.cls_loss - 1.0) < 1e-12
        assert out.reg_loss == 0.0
        assert abs(out.total - 1.0) < 1e-12

    def test_foreground_reg(self):
        target = BoxDelta(0.5, 0.5, 0.5, 0.5)
        out = one_row(SURE_V, 1, ZERO, target)
        assert abs(out.reg_loss - 0.5) < 1e-12  # 4 * (0.5^2 / 2)

    def test_zero_probability_clamped(self):
        out = one_row([1.0, 0.0, 0.0, 0.0, 0.0], 1, ZERO, ZERO)
        assert out.cls_loss == MAX_CLS_LOSS

    def test_reg_weight(self):
        target = BoxDelta(0.5, 0, 0, 0)
        out = one_row(SURE_V, 1, ZERO, target, OhemConfig(reg_loss_weight=2.0))
        assert abs(out.total - 0.25) < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError, match="sum to"):
            one_row([0.5, 0.6], 0, ZERO, None)
        with pytest.raises(ValueError, match="out of range"):
            one_row([0.5, 0.5], 3, ZERO, ZERO)
        with pytest.raises(ValueError, match="exactly for foreground"):
            one_row([0.5, 0.5], 1, ZERO, None)  # foreground needs target
        with pytest.raises(ValueError, match="exactly for foreground"):
            one_row([0.5, 0.5], 0, ZERO, ZERO)  # background carries none


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

    # scaling by a power of two is exact while every product stays normal,
    # so it keeps the order and the ties of the losses; any other scale can
    # round two losses onto one value or underflow them to 0
    @given(st.lists(st.just(0.0) | st.floats(1e-300, 100), min_size=1, max_size=40),
           st.integers(-10, 10))
    def test_scaling_invariance(self, values, exponent):
        scale = 2.0 ** exponent
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
        probs = np.tile(SURE_V, (10, 1))
        targets = [(1, ZERO)] * 10
        selected, losses = ohem_round(probs, np.zeros((10, 4)), targets, OhemConfig(batch_size=4))
        assert selected == [0, 1, 2, 3]
        assert all(l.total == 0.0 for l in losses)

    def test_corrupted_roi_ranked_first(self):
        probs = np.tile([0.0, 0.999, 0.001, 0.0, 0.0], (20, 1))
        targets = [(1, ZERO)] * 20
        targets[13] = (2, ZERO)  # wrong class for this one
        selected, _ = ohem_round(probs, np.zeros((20, 4)), targets, OhemConfig(batch_size=5))
        assert selected[0] == 13

    def test_alignment_required(self):
        with pytest.raises(ValueError, match="targets need"):
            ohem_round(np.ones((2, 1)), np.zeros((2, 4)), [(0, None)])

    def test_inputs_are_read_only(self):
        probs = np.array([[1.0, 0.0], [0.25, 0.75]])
        pred = np.arange(8.0).reshape(2, 4)
        for a in (probs, pred):
            a.setflags(write=False)
        selected, losses = ohem_round(probs, pred, [(0, None), (1, ZERO)])
        assert selected == [1, 0]
        assert len(losses) == 2

    def test_is_roi_loss_then_select_hard(self):
        config = OhemConfig(batch_size=17, reg_loss_weight=0.5)
        probs, pred, targets = TestRoiLosses._batch(4)
        losses = roi_loss(probs, pred, targets, config)
        assert ohem_round(probs, pred, targets, config) == (select_hard(losses, config), losses)


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
        got = roi_loss(probs, pred, targets, config)
        want = [
            per_roi.roi_loss(p, c, BoxDelta(*d), t, config, roi_index=i)
            for i, (p, d, (c, t)) in enumerate(zip(probs, pred, targets))
        ]
        assert got == want
        assert got[1].cls_loss == MAX_CLS_LOSS
        assert any(r.reg_loss > 0 for r in got)

    def test_no_rois(self):
        assert roi_loss(np.zeros((0, 5)), np.zeros((0, 4)), []) == []

    def _raises(self, probs, pred, targets, match):
        with pytest.raises(ValueError, match=match):
            roi_loss(probs, pred, targets)

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
