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


def _finite(name: str, value) -> float:
    if not np.isfinite(value):  # finite inputs whose errors or spread overflow
        raise ValueError(f"non-finite {name}: the targets or outputs are too large")
    return float(value)


def rmse(predictions, targets) -> float:
    p, t = _paired(predictions, targets)
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite("rmse", np.sqrt(np.mean(np.square(p - t))))


def mae(predictions, targets) -> float:
    p, t = _paired(predictions, targets)
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite("mae", np.mean(np.abs(p - t)))


def nrmse(predictions, targets) -> float:
    """RMSE divided by the standard deviation of the targets."""
    with np.errstate(over="ignore", invalid="ignore"):
        std = _finite("target std", np.std(_paired(predictions, targets)[1]))
    if std == 0.0:
        raise ValueError("nrmse undefined for constant targets (zero variance)")
    return _finite("nrmse", rmse(predictions, targets) / std)


def accuracy(predictions, targets) -> float:
    p, t = _paired(predictions, targets, None)
    return float(np.mean(p == t))


def confusion_matrix(predictions, targets, n_classes: int) -> np.ndarray:
    """Counts indexed [true class, predicted class]; rows sum to per-class counts."""
    p, t = _paired(predictions, targets, np.int64)
    counts = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(counts, (t, p), 1)
    return counts
