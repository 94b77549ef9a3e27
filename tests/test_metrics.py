import csv
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import confusion_loop
from rainunet.metrics import (ConfusionCounts, LeadTimeCurve, MetricsReport,
                              binarize, confusion, evaluate_masks,
                              lead_time_iou, metrics_from_confusion,
                              write_lead_time_csv,
                              write_metrics_csv)


class TestBinarize:
    def test_boundary_is_positive(self):
        out = binarize(np.array([0.4, 0.5, 0.6]), 0.5)
        assert out.tolist() == [0, 1, 1]

    def test_all_boundary(self):
        assert binarize(np.full(3, 0.5), 0.5).tolist() == [1, 1, 1]

    def test_threshold_range_checked(self):
        with pytest.raises(ValueError):
            binarize(np.array([0.5]), 0.0)
        with pytest.raises(ValueError):
            binarize(np.array([0.5]), 1.0)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(0, 1), min_size=1, max_size=30),
           st.floats(0.01, 0.99))
    def test_idempotent(self, probs, threshold):
        arr = np.array(probs)
        once = binarize(arr, threshold)
        assert np.array_equal(binarize(once, threshold), once)


class TestConfusion:
    def test_perfect(self):
        m = np.array([1, 0, 1, 1], dtype=np.uint8)
        c = confusion(m, m)
        assert (c.fp, c.fn) == (0, 0) and c.tp == 3 and c.tn == 1

    def test_inverted(self):
        gt = np.array([1, 0, 1, 0], dtype=np.uint8)
        c = confusion(1 - gt, gt)
        assert (c.tp, c.tn) == (0, 0) and c.fp == 2 and c.fn == 2

    def test_mixed_case_matches_loop_oracle(self):
        pred = np.array([1, 1, 0, 0], dtype=np.uint8)
        gt = np.array([1, 0, 1, 0], dtype=np.uint8)
        c = confusion(pred, gt)
        assert (c.tp, c.fp, c.fn, c.tn) == confusion_loop(pred, gt) == (1, 1, 1, 1)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 60))
    def test_random_matches_loop_oracle(self, seed, n):
        rng = np.random.default_rng(seed)
        pred = (rng.random(n) < 0.5).astype(np.uint8)
        gt = (rng.random(n) < 0.5).astype(np.uint8)
        c = confusion(pred, gt)
        assert (c.tp, c.fp, c.fn, c.tn) == confusion_loop(pred, gt)

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            confusion(np.array([2]), np.array([1]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            confusion(np.zeros(3, dtype=np.uint8), np.zeros(4, dtype=np.uint8))

    def test_total_invariant(self):
        c = confusion(np.array([1, 0, 1], dtype=np.uint8), np.array([0, 0, 1], dtype=np.uint8))
        assert c.total == 3


class TestMetricsFromConfusion:
    def test_hand_case(self):
        r = metrics_from_confusion(ConfusionCounts(1, 1, 1, 1))
        assert r.iou == pytest.approx(1 / 3)
        assert (r.precision, r.recall, r.accuracy, r.f1) == (0.5, 0.5, 0.5, 0.5)
        assert r.degenerate == ()

    def test_perfect_prediction(self):
        r = metrics_from_confusion(ConfusionCounts(10, 0, 0, 0))
        assert (r.iou, r.precision, r.recall, r.accuracy, r.f1) == (1, 1, 1, 1, 1)

    def test_all_negative_degenerate(self):
        r = metrics_from_confusion(ConfusionCounts(0, 0, 0, 9))
        assert (r.iou, r.precision, r.recall, r.f1) == (0, 0, 0, 0)
        assert r.accuracy == 1.0
        assert set(r.degenerate) == {"iou", "precision", "recall", "f1"}

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 500), st.integers(0, 500), st.integers(0, 500), st.integers(0, 500))
    def test_f1_iou_identity_and_orderings(self, tp, fp, fn, tn):
        r = metrics_from_confusion(ConfusionCounts(tp, fp, fn, tn))
        if tp + fp + fn > 0:
            iou = Fraction(tp, tp + fp + fn)
            assert Fraction(2 * tp, 2 * tp + fp + fn) == 2 * iou / (1 + iou)
            assert r.iou <= r.f1 + 1e-12
        if tp + fp > 0 and tp + fn > 0:
            assert r.iou <= min(r.precision, r.recall) + 1e-12

    def test_pixel_permutation_invariance(self):
        rng = np.random.default_rng(3)
        pred = (rng.random(64) < 0.5).astype(np.uint8)
        gt = (rng.random(64) < 0.5).astype(np.uint8)
        perm = rng.permutation(64)
        a = evaluate_masks(pred, gt)
        b = evaluate_masks(pred[perm].reshape(8, 8), gt[perm].reshape(8, 8))
        assert a == b


class TestLeadTime:
    def test_perfect_curve(self):
        rng = np.random.default_rng(5)
        gt = (rng.random((3, 8, 4, 4)) < 0.5).astype(np.uint8)
        gt[:, :, 0, 0] = 1  # at least one positive per lead
        curve = lead_time_iou(gt, gt)
        assert np.array_equal(curve.iou_per_lead, np.ones(8))
        assert not curve.degenerate.any()

    def test_single_sequence_matches_per_frame_oracle(self):
        rng = np.random.default_rng(6)
        pred = (rng.random((1, 6, 5, 5)) < 0.5).astype(np.uint8)
        gt = (rng.random((1, 6, 5, 5)) < 0.5).astype(np.uint8)
        curve = lead_time_iou(pred, gt)
        for k in range(6):
            tp, fp, fn, _ = confusion_loop(pred[0, k], gt[0, k])
            want = tp / (tp + fp + fn) if tp + fp + fn else 0.0
            assert curve.iou_per_lead[k] == pytest.approx(want)

    def test_counts_pool_additively_across_sequences(self):
        rng = np.random.default_rng(7)
        pred = (rng.random((4, 3, 6, 6)) < 0.5).astype(np.uint8)
        gt = (rng.random((4, 3, 6, 6)) < 0.5).astype(np.uint8)
        for k in range(3):
            pooled = confusion(pred[:, k], gt[:, k])
            summed = ConfusionCounts(0, 0, 0, 0)
            for s in range(4):
                summed = summed + confusion(pred[s, k], gt[s, k])
            assert pooled == summed

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            lead_time_iou(np.zeros((1, 2, 2, 2)), np.zeros((1, 3, 2, 2)))


class TestCsv:
    def test_metrics_csv_schema(self, tmp_path):
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, metrics_from_confusion(ConfusionCounts(1, 1, 1, 1)))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "metric,value,degenerate"
        assert len(lines) == 1 + len(MetricsReport.METRIC_NAMES)
        assert lines[1].startswith("iou,0.3333333333,0")

    def test_lead_time_csv_roundtrip(self, tmp_path):
        path = tmp_path / "leadtime.csv"
        curve = LeadTimeCurve(np.linspace(0, 1, 32), np.zeros(32, dtype=bool))
        write_lead_time_csv(path, curve)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "lead_index,lead_minutes,iou"
        assert len(lines) == 33
        assert lines[1].split(",")[:2] == ["1", "15"]
        with open(path, newline="") as fh:
            ious = [float(row[2]) for row in list(csv.reader(fh))[1:]]
        assert np.allclose(ious, curve.iou_per_lead)
