"""Binary segmentation metrics and lead-time IoU curves.

Counts are pooled over every pixel first (micro-averaging), then the scores
are derived, so counts are additive across sequences and frames. Any 0/0
score is reported as 0 with the metric listed in the degenerate set.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np


def _as_array(x) -> np.ndarray:
    return np.asarray(getattr(x, "data", x))


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(self.tp + other.tp, self.fp + other.fp,
                               self.fn + other.fn, self.tn + other.tn)


@dataclass(frozen=True)
class MetricsReport:
    iou: float
    precision: float
    recall: float
    accuracy: float
    f1: float
    counts: ConfusionCounts
    degenerate: tuple[str, ...] = ()

    METRIC_NAMES = ("iou", "precision", "recall", "accuracy", "f1")


@dataclass(frozen=True)
class LeadTimeCurve:
    iou_per_lead: np.ndarray          # one IoU per future frame
    degenerate: np.ndarray            # bool, True where IoU was 0/0
    minutes_per_step: int = 15


def binarize(probs, threshold: float = 0.5) -> np.ndarray:
    """Threshold probabilities to a uint8 mask; p >= threshold maps to 1."""
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    return (_as_array(probs) >= threshold).astype(np.uint8)


def _check_binary(arr, name):
    if not np.isin(arr, (0, 1)).all():
        raise ValueError(f"{name} is not binary")


def confusion(pred, gt) -> ConfusionCounts:
    pred = _as_array(pred)
    gt = _as_array(gt)
    if pred.shape != gt.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {gt.shape}")
    _check_binary(pred, "pred")
    _check_binary(gt, "gt")
    p = pred.astype(bool)
    g = gt.astype(bool)
    return ConfusionCounts(
        tp=int(np.count_nonzero(p & g)),
        fp=int(np.count_nonzero(p & ~g)),
        fn=int(np.count_nonzero(~p & g)),
        tn=int(np.count_nonzero(~p & ~g)),
    )


def _ratio(num: int, den: int, name: str, degenerate: list[str]) -> float:
    if den == 0:
        degenerate.append(name)
        return 0.0
    return num / den


def metrics_from_confusion(c: ConfusionCounts) -> MetricsReport:
    degenerate: list[str] = []
    return MetricsReport(
        iou=_ratio(c.tp, c.tp + c.fp + c.fn, "iou", degenerate),
        precision=_ratio(c.tp, c.tp + c.fp, "precision", degenerate),
        recall=_ratio(c.tp, c.tp + c.fn, "recall", degenerate),
        accuracy=_ratio(c.tp + c.tn, c.total, "accuracy", degenerate),
        f1=_ratio(2 * c.tp, 2 * c.tp + c.fp + c.fn, "f1", degenerate),
        counts=c,
        degenerate=tuple(degenerate),
    )


def evaluate_masks(pred, gt) -> MetricsReport:
    return metrics_from_confusion(confusion(pred, gt))


def lead_time_iou(pred, gt) -> LeadTimeCurve:
    """IoU per future frame, counts pooled across all sequences. Expects
    (S, L, H, W) binary stacks with the lead axis second."""
    pred = _as_array(pred)
    gt = _as_array(gt)
    if pred.shape != gt.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {gt.shape}")
    if pred.ndim != 4:
        raise ValueError(f"expected (S, L, H, W), got {pred.shape}")
    reports = [evaluate_masks(pred[:, k], gt[:, k]) for k in range(pred.shape[1])]
    return LeadTimeCurve(iou_per_lead=np.array([r.iou for r in reports], dtype=float),
                         degenerate=np.array(["iou" in r.degenerate for r in reports], dtype=bool))


# ---------------------------------------------------------------------------
# CSV emission: stable headers, one record per line, C locale formatting


def write_metrics_csv(path, report: MetricsReport) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["metric", "value", "degenerate"])
        for name in MetricsReport.METRIC_NAMES:
            w.writerow([name, f"{getattr(report, name):.10g}",
                        int(name in report.degenerate)])


def write_lead_time_csv(path, curve: LeadTimeCurve) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["lead_index", "lead_minutes", "iou"])
        for k, iou in enumerate(curve.iou_per_lead, start=1):
            w.writerow([k, k * curve.minutes_per_step, f"{iou:.10g}"])

