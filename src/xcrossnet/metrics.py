"""Evaluation metrics: rank-based AUC with tie handling, clamped logloss."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError

PRED_CLAMP = 1e-7  # predictions are clamped to [eps, 1-eps] inside the loss only

# Rows per forward pass in predict_dataset. One chunk's activations and
# cache are alive at a time: a 14.6 MB peak for 512 rows at the Criteo
# shapes (tracemalloc), over half of it the product stage's transient U.
PREDICT_CHUNK = 512


@dataclass
class EvalReport:
    auc: float | None  # None when only one class is present
    logloss: float
    n_pos: int
    n_neg: int


def logloss(preds, labels) -> float:
    """Mean binary cross-entropy with clamped predictions: finite for finite
    predictions, NaN if one is NaN (fit names the step from that NaN)."""
    preds = np.asarray(preds, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if preds.ndim != 1 or preds.shape != labels.shape:
        raise ValueError(f"preds {preds.shape} vs labels {labels.shape}")
    if preds.shape[0] == 0:
        raise DataError("logloss of an empty prediction vector")
    p = np.clip(preds, PRED_CLAMP, 1.0 - PRED_CLAMP)
    terms = labels * np.log(p) + (1.0 - labels) * np.log1p(-p)
    return float(-np.mean(terms))


def average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values all receive the mean of their rank span."""
    # -0.0 ties with 0.0, and NaNs, which sort last, tie with each other
    _, group, counts = np.unique(np.asarray(values, dtype=np.float64), return_inverse=True,
                                 return_counts=True)
    ends = np.cumsum(counts)
    return (ends - (counts - 1) / 2.0)[group]  # mean of ranks end-count+1 .. end


def auc(preds, labels) -> float | None:
    """Probability a random positive outranks a random negative (Mann-Whitney),
    or None when the labels hold only one class.

    Computed from average ranks, so ties contribute half credit, matching
    the pairwise definition exactly.
    """
    preds = np.asarray(preds, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if preds.shape != labels.shape or preds.ndim != 1:
        raise ValueError(f"preds {preds.shape} and labels {labels.shape} must be "
                         "equal-length vectors")
    if np.isnan(preds).any():  # a NaN would rank above every number
        raise NumericError(f"auc: the prediction for row {np.argmax(np.isnan(preds)) + 1} is NaN")
    pos = labels == 1.0
    n_pos = int(np.count_nonzero(pos))
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    ranks = average_ranks(preds)
    pos_rank_sum = float(np.sum(ranks[pos]))
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def predict_dataset(model, dataset, row_offset: int = 0) -> np.ndarray:
    """Forward the whole dataset (read-only) in chunks of PREDICT_CHUNK rows,
    in instance order, one chunk's cache alive at a time. NumericError names
    the first row whose prediction is not finite, counting from row_offset + 1."""
    n = len(dataset)
    preds = np.empty(n)
    with np.errstate(over="ignore", invalid="ignore"):  # the isfinite check reports it
        for start in range(0, n, PREDICT_CHUNK):
            rows = slice(start, start + PREDICT_CHUNK)
            preds[rows] = model.forward(dataset.subset(rows))[0]
    finite = np.isfinite(preds)
    if not finite.all():
        first = int(np.argmin(finite))
        raise NumericError(f"the prediction for row {row_offset + first + 1} is "
                           f"{preds[first]}, not finite")
    return preds


def evaluate(preds, labels) -> EvalReport:
    n_pos = int(np.count_nonzero(np.asarray(labels) == 1.0))
    return EvalReport(auc(preds, labels), logloss(preds, labels), n_pos, len(labels) - n_pos)
