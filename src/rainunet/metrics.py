"""Binary segmentation metrics and lead-time IoU curves.

Counts are pooled over every pixel first (micro-averaging), then the scores
are derived, so counts are additive across sequences and frames. Any 0/0
score is reported as 0 with the metric listed in the degenerate set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import write_csv


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


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


# minutes between a movie's frames, and so between lead times: the 15-minute grid
MINUTES_PER_STEP = 15


@dataclass(frozen=True)
class LeadTimeCurve:
    iou_per_lead: np.ndarray          # one IoU per future frame, 0 where it was 0/0


def binarize(probs, threshold: float = 0.5) -> np.ndarray:
    """Threshold probabilities to a uint8 mask; p >= threshold maps to 1."""
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    return (probs >= threshold).astype(np.uint8)


def is_binary(arr) -> bool:
    """Whether every element of ``arr`` is 0 or 1, checked by its dtype:
    nothing for bool, the extremes for integers, exact comparisons else."""
    if arr.dtype == bool or arr.size == 0:
        return True
    if arr.dtype.kind in "ui":
        return bool(arr.max() <= 1 and (arr.dtype.kind == "u" or arr.min() >= 0))
    return bool(np.logical_or(arr == 0, arr == 1).all())


def _binary_pair(pred, gt):
    if pred.shape != gt.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {gt.shape}")
    for arr, name in ((pred, "pred"), (gt, "gt")):
        if not is_binary(arr):
            raise ValueError(f"{name} is not binary")
    return pred, gt


def _positives(pred, gt, axis=None):
    """The true, predicted and actual positives of two binary arrays,
    counted over ``axis``."""
    tp = np.count_nonzero(np.logical_and(pred, gt), axis=axis)
    return tp, np.count_nonzero(pred, axis=axis), np.count_nonzero(gt, axis=axis)


def confusion(pred, gt) -> ConfusionCounts:
    pred, gt = _binary_pair(pred, gt)
    tp, pp, ap = map(int, _positives(pred, gt))
    return ConfusionCounts(tp=tp, fp=pp - tp, fn=ap - tp, tn=pred.size - pp - ap + tp)


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
    (S, L, H, W) binary stacks with the lead axis second. A lead's IoU is
    that of :func:`evaluate_masks` on its frames, 0 where it is 0/0."""
    pred, gt = _binary_pair(pred, gt)
    if pred.ndim != 4:
        raise ValueError(f"expected (S, L, H, W), got {pred.shape}")
    tp, pp, ap = _positives(pred, gt, axis=(0, 2, 3))
    union = pp + ap - tp  # tp + fp + fn
    return LeadTimeCurve(iou_per_lead=tp / np.where(union == 0, 1, union))


# ---------------------------------------------------------------------------
# CSV emission: stable headers, one record per line, C locale formatting


def write_metrics_csv(path, report: MetricsReport) -> None:
    write_csv(path, ["metric", "value", "degenerate"],
              ([name, f"{getattr(report, name):.10g}", int(name in report.degenerate)]
               for name in MetricsReport.METRIC_NAMES))


def write_lead_time_csv(path, curve: LeadTimeCurve) -> None:
    write_csv(path, ["lead_index", "lead_minutes", "iou"],
              ([k, k * MINUTES_PER_STEP, f"{iou:.10g}"]
               for k, iou in enumerate(curve.iou_per_lead, start=1)))
