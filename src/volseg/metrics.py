"""Overlap metrics and the batch Dice loss with class-presence averaging.

The per-case Dice coefficient is 2|y ∩ ŷ| / (|y| + |ŷ|). The aggregated
variant pools voxel counts over a whole set of cases into one global
ratio, which stays informative when individual ground truths are empty.
The training loss is one minus the soft aggregated Dice per class,
averaged over only the classes present in the batch ground truth
(background included); its analytic gradient is provided for optimizer
integrations. Undefined metric values (empty denominator) are reported
as NaN.
"""

import math
from dataclasses import dataclass

import numpy as np

from .volume import CLASS_NAMES, LabelMask

FOREGROUND_CLASSES = tuple(range(1, len(CLASS_NAMES)))


def _check_pair(truth: np.ndarray, pred: np.ndarray):
    truth = np.asarray(truth)
    pred = np.asarray(pred)
    if truth.shape != pred.shape:
        raise ValueError(f"mask shapes differ: {truth.shape} vs {pred.shape}")
    return tuple(m if m.dtype == bool else m != 0 for m in (truth, pred))


def _overlap(truth: np.ndarray, pred: np.ndarray) -> tuple[int, int, int]:
    """(TP, |truth|, |pred|) of one binary pair."""
    t, p = _check_pair(truth, pred)
    return int(np.count_nonzero(t & p)), int(np.count_nonzero(t)), int(np.count_nonzero(p))


def _dice(tp: int, n_truth: int, n_pred: int) -> float:
    denom = n_truth + n_pred
    return 1.0 if denom == 0 else 2.0 * tp / denom


def _pooled_dice(counts) -> float:
    """Aggregated Dice of per-case (TP, |truth|, |pred|) counts."""
    return _dice(*(sum(column) for column in zip(*counts)))


def _fraction(tp: int, n: int) -> float:
    return math.nan if n == 0 else tp / n


def dsc(truth: np.ndarray, pred: np.ndarray) -> float:
    """Dice similarity coefficient of one binary pair; 1.0 when both are empty."""
    return _dice(*_overlap(truth, pred))


def dsc_agg(pairs) -> float:
    """Aggregated Dice over (truth, pred) pairs: one ratio of pooled counts."""
    counts = [_overlap(truth, pred) for truth, pred in pairs]
    if not counts:
        raise ValueError("dsc_agg needs at least one pair")
    return _pooled_dice(counts)


def precision(truth: np.ndarray, pred: np.ndarray) -> float:
    """TP / (TP + FP); NaN when the prediction is empty."""
    tp, _, n_pred = _overlap(truth, pred)
    return _fraction(tp, n_pred)


def recall(truth: np.ndarray, pred: np.ndarray) -> float:
    """TP / (TP + FN); NaN when the ground truth is empty."""
    tp, n_truth, _ = _overlap(truth, pred)
    return _fraction(tp, n_truth)


# ---------------------------------------------------------------------------
# training loss
# ---------------------------------------------------------------------------

def _check_batch(batch_truth: np.ndarray, batch_prob: np.ndarray):
    # kept at their own dtype: the class sums accumulate in float64 without
    # a float64 copy of either tensor
    batch_truth = np.asarray(batch_truth)
    batch_prob = np.asarray(batch_prob)
    if batch_truth.shape != batch_prob.shape or batch_truth.ndim != 5:
        raise ValueError(
            f"expected matching (N, C, X, Y, Z) tensors, got {batch_truth.shape} and {batch_prob.shape}"
        )
    return batch_truth, batch_prob


def _class_sums(batch_truth, batch_prob):
    s_y = np.einsum("ncxyz->c", batch_truth, dtype=np.float64)
    s_p = np.einsum("ncxyz->c", batch_prob, dtype=np.float64)
    inter = np.einsum("ncxyz,ncxyz->c", batch_truth, batch_prob, dtype=np.float64)
    present = s_y > 0
    if not present.any():
        raise ValueError("no class present in the batch ground truth")
    return s_y, s_p, inter, present


def dice_loss(batch_truth: np.ndarray, batch_prob: np.ndarray) -> float:
    """Batch Dice loss averaged over the classes present in the truth.

    Inputs of any real dtype are summed in float64 without being copied.
    """
    s_y, s_p, inter, present = _class_sums(*_check_batch(batch_truth, batch_prob))
    losses = 1.0 - 2.0 * inter[present] / (s_y[present] + s_p[present])
    return float(losses.mean())


def dice_loss_grad(batch_truth: np.ndarray, batch_prob: np.ndarray) -> np.ndarray:
    """d(dice_loss)/d(batch_prob) as float64, exactly zero on channels of absent classes."""
    batch_truth, batch_prob = _check_batch(batch_truth, batch_prob)
    s_y, s_p, inter, present = _class_sums(batch_truth, batch_prob)
    n_present = int(present.sum())
    grad = np.zeros(batch_prob.shape, dtype=np.float64)
    for c in np.nonzero(present)[0]:
        # -2 (y denom - inter) / (denom^2 n), written straight into the slice
        denom = s_y[c] + s_p[c]
        np.multiply(batch_truth[:, c], np.float64(-2.0 / (denom * n_present)), out=grad[:, c])
        grad[:, c] += np.float64(2.0 * inter[c] / (denom**2 * n_present))
    return grad


# ---------------------------------------------------------------------------
# evaluation over a case set
# ---------------------------------------------------------------------------

@dataclass
class EvaluationRecord:
    patient_id: str
    class_id: int
    dsc: float        # NaN when undefined (both masks empty never occurs here)
    precision: float  # NaN when the prediction is empty
    recall: float     # NaN when the ground truth is empty
    truth_empty: bool


@dataclass
class EvaluationResult:
    per_class_agg: dict[int, float]  # class id -> aggregated Dice
    mean_agg: float
    records: list[EvaluationRecord]


def evaluate_set(truths, preds, ids=None) -> EvaluationResult:
    """Aggregated Dice per foreground class plus per-case records.

    TP, |truth| and |pred| are counted once per case and class; every
    record and the aggregated Dice are ratios of those integers.
    """
    truths = list(truths)
    preds = list(preds)
    if len(truths) != len(preds) or not truths:
        raise ValueError(f"need equal non-empty lists, got {len(truths)} truths and {len(preds)} preds")
    if ids is None:
        ids = [f"case{i:03d}" for i in range(len(truths))]
    elif len(ids) != len(truths):
        raise ValueError("ids list does not match the number of cases")

    def labels(mask):
        return mask.labels if isinstance(mask, LabelMask) else np.asarray(mask)

    per_class = {}
    records = []
    for c in FOREGROUND_CLASSES:
        counts = [_overlap(labels(t) == c, labels(p) == c) for t, p in zip(truths, preds)]
        per_class[c] = _pooled_dice(counts)
        for pid, (tp, n_truth, n_pred) in zip(ids, counts):
            records.append(EvaluationRecord(
                patient_id=pid,
                class_id=c,
                dsc=_dice(tp, n_truth, n_pred),
                precision=_fraction(tp, n_pred),
                recall=_fraction(tp, n_truth),
                truth_empty=n_truth == 0,
            ))
    mean_agg = float(np.mean([per_class[c] for c in FOREGROUND_CLASSES]))
    return EvaluationResult(per_class, mean_agg, records)
