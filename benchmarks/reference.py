"""Reference winner-take-all forward and output checks, written apart from wtanet.

Nothing here imports the program.  The forward follows the documented
model: inputs are min-max normalized with the *training* file's
per-feature (min, max), constant features map to 0.0; the expansion is
the raw components, then for each component the harmonics 1..K as
sin(pi*h*x) followed by cos(pi*h*x), then a constant 1 when biased; the
winner is the unit with the largest excitation v_j . p, ties going to
the smallest index; the output is the winner's (v_j - w_j) . p through
the output activation (regression) or the winner's class label
(classification).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

# Two excitations closer than this (relative) are a tie within rounding:
# the program and the reference may then pick different winners.
TIE_RTOL = 1e-9
# Agreement required between a program output and the reference output.
VALUE_RTOL = 1e-9


@dataclass(frozen=True)
class RefModel:
    """The fields of a saved model JSON that the forward needs."""

    input_dim: int
    order: int
    include_bias: bool
    v: np.ndarray            # (M, m) excitatory weights
    w: np.ndarray            # (M, m) inhibitory weights
    mode: str
    activation: str
    class_of_unit: tuple[int, ...] | None
    class_names: tuple[str, ...] | None


def model_from_doc(doc: dict) -> RefModel:
    spec = doc["spec"]
    units = doc["units"]
    class_of_unit = doc.get("class_of_unit")
    class_names = doc.get("class_names")
    return RefModel(
        input_dim=int(spec["input_dim"]),
        order=int(spec["order"]),
        include_bias=bool(spec.get("include_bias", True)),
        v=np.array([u["v"] for u in units], dtype=np.float64),
        w=np.array([u["w"] for u in units], dtype=np.float64),
        mode=doc["mode"],
        activation=doc.get("output_activation", "identity"),
        class_of_unit=tuple(class_of_unit) if class_of_unit is not None else None,
        class_names=tuple(class_names) if class_names is not None else None,
    )


def load_model(path) -> RefModel:
    with open(path, encoding="utf-8") as fh:
        return model_from_doc(json.load(fh))


def normalize(raw, lo, hi) -> np.ndarray:
    """Min-max normalize rows of ``raw`` by the training (lo, hi) per feature."""
    raw = np.asarray(raw, dtype=np.float64)
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    span = hi - lo
    constant = span == 0
    out = (raw - lo) / np.where(constant, 1.0, span)
    out[:, constant] = 0.0
    return out


def expand(x, order: int, include_bias: bool) -> np.ndarray:
    """Expanded patterns of normalized rows ``x`` (N, n)."""
    x = np.asarray(x, dtype=np.float64)
    columns = [x[:, i] for i in range(x.shape[1])]
    for i in range(x.shape[1]):
        for h in range(1, order + 1):
            columns.append(np.sin(math.pi * h * x[:, i]))
            columns.append(np.cos(math.pi * h * x[:, i]))
    if include_bias:
        columns.append(np.ones(x.shape[0]))
    return np.column_stack(columns)


def _logistic(r: np.ndarray) -> np.ndarray:
    out = np.empty_like(r)
    pos = r >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-r[pos]))
    e = np.exp(r[~pos])
    out[~pos] = e / (1.0 + e)
    return out


@dataclass(frozen=True)
class RefOutput:
    winners: np.ndarray      # (N,) winning unit per row
    values: np.ndarray       # (N,) float responses, or object array of labels
    tie: np.ndarray          # (N,) rows whose top two excitations tie within rounding


def forward(model: RefModel, x_norm) -> RefOutput:
    """Winner and output for every normalized row."""
    x_norm = np.asarray(x_norm, dtype=np.float64)
    if x_norm.ndim != 2 or x_norm.shape[1] != model.input_dim:
        raise ValueError(f"expected rows of {model.input_dim} features, got {x_norm.shape}")
    p = expand(x_norm, model.order, model.include_bias)
    excitation = p @ model.v.T
    n_rows, n_units = excitation.shape
    # strict '>' scan keeps the smallest index among equal maxima
    winners = np.zeros(n_rows, dtype=np.int64)
    best = excitation[:, 0].copy()
    for j in range(1, n_units):
        better = excitation[:, j] > best
        winners[better] = j
        best[better] = excitation[better, j]
    if n_units > 1:
        top_two = np.sort(excitation, axis=1)[:, -2:]
        gap = top_two[:, 1] - top_two[:, 0]
        tie = gap <= TIE_RTOL * np.maximum(1.0, np.abs(top_two[:, 1]))
    else:
        tie = np.zeros(n_rows, dtype=bool)
    if model.mode == "classification":
        classes = np.asarray(model.class_of_unit)[winners]
        if model.class_names is not None:
            values = np.array([model.class_names[c] for c in classes], dtype=object)
        else:
            values = np.array([str(c) for c in classes], dtype=object)
        return RefOutput(winners, values, tie)
    diff = model.v[winners] - model.w[winners]
    response = np.einsum("ij,ij->i", diff, p)
    if model.activation == "logistic":
        response = _logistic(response)
    elif model.activation != "identity":
        raise ValueError(f"unknown activation {model.activation!r}")
    return RefOutput(winners, response, tie)


def close(got: float, want: float, rtol: float = VALUE_RTOL) -> bool:
    return abs(got - want) <= rtol * max(1.0, abs(want))


def compare_outputs(got, ref: RefOutput) -> str | None:
    """None when every non-tied row agrees; else the first disagreement."""
    if len(got) != len(ref.values):
        return f"{len(got)} outputs for {len(ref.values)} rows"
    for i, (g, want) in enumerate(zip(got, ref.values.tolist())):
        if ref.tie[i]:
            continue
        if isinstance(want, str):
            ok = g == want
        else:
            try:
                ok = close(float(g), want)
            except ValueError:
                ok = False
        if not ok:
            return f"row {i + 1}: program gave {g!r}, reference {want!r}"
    return None


def read_last_column(path) -> list[str]:
    """The last cell of every row of a CSV file (the predict output column)."""
    with open(path, newline="", encoding="utf-8") as fh:
        return [row[-1] for row in csv.reader(fh) if row]


def regression_scores(outputs, targets) -> dict:
    """RMSE, MAE and (targets not constant) NRMSE = RMSE / population std."""
    err = np.asarray(outputs, dtype=np.float64) - np.asarray(targets, dtype=np.float64)
    scores = {"rmse": math.sqrt(float(np.mean(err * err))),
              "mae": float(np.mean(np.abs(err)))}
    std = float(np.std(targets))
    if std > 0:
        scores["nrmse"] = scores["rmse"] / std
    return scores


def compare_scores(doc: dict, want: dict, rtol: float = VALUE_RTOL) -> str | None:
    """None when ``doc`` reports every score in ``want`` within ``rtol``."""
    for key, value in want.items():
        if key not in doc:
            return f"missing {key}"
        if not close(float(doc[key]), value, rtol):
            return f"{key}: program gave {doc[key]!r}, reference {value!r}"
    return None


def best_non_decreasing(trace_path) -> str | None:
    """None when the trace CSV's ``best`` column never decreases."""
    with open(trace_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    best = [float(r["best"]) for r in rows]
    for g in range(1, len(best)):
        if best[g] < best[g - 1]:
            return f"best fitness fell at generation {g}: {best[g - 1]!r} -> {best[g]!r}"
    return None
