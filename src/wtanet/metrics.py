"""Evaluation metrics for regression and classification runs."""

from __future__ import annotations

import numpy as np


def _paired(predictions, targets, dtype=np.float64) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(predictions, dtype=dtype)
    t = np.asarray(targets, dtype=dtype)
    if p.shape != t.shape:
        raise ValueError(f"length mismatch: predictions {p.shape} vs targets {t.shape}")
    if p.size == 0:
        raise ValueError("empty metric inputs")
    return p, t


def rmse(predictions, targets) -> float:
    p, t = _paired(predictions, targets)
    err = p - t
    return float(np.sqrt(np.mean(err * err)))


def mae(predictions, targets) -> float:
    p, t = _paired(predictions, targets)
    return float(np.mean(np.abs(p - t)))


def nrmse(predictions, targets) -> float:
    """RMSE divided by the standard deviation of the targets."""
    _, t = _paired(predictions, targets)
    std = float(np.std(t))
    if std == 0.0:
        raise ValueError("nrmse undefined for constant targets (zero variance)")
    return rmse(predictions, targets) / std


def accuracy(predictions, targets) -> float:
    p, t = _paired(predictions, targets, None)
    return float(np.mean(p == t))


def confusion_matrix(predictions, targets, n_classes: int) -> np.ndarray:
    """Counts indexed [true class, predicted class]; rows sum to per-class counts."""
    p, t = _paired(predictions, targets, np.int64)
    counts = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(counts, (t, p), 1)
    return counts
