"""Single-layer competitive model with excitatory/inhibitory unit pairs.

M units compete over the expanded input pattern.  Each unit holds an
excitatory weight vector ``v`` (drives the competition) and an
inhibitory weight vector ``w`` (damps the elicited response).  A hard
winner-take-all step picks the unit with the largest excitatory
activation; the winner's excitatory-minus-inhibitory response becomes
the output (regression) or selects the unit's class label
(classification).  Models are immutable after construction.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Literal

import numpy as np

from .data import CLASSIFICATION, REGRESSION
from .expansion import ExpansionSpec, expand_batch, expansion_dim
from .schema import parse, read_json

MODEL_FORMAT_VERSION = 2

IDENTITY = "identity"
LOGISTIC = "logistic"
_ACTIVATIONS = (IDENTITY, LOGISTIC)


def logistic(x) -> np.ndarray:
    """Numerically stable elementwise logistic function."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def apply_activation(name: str, r):
    if name == IDENTITY:
        return r
    if name == LOGISTIC:
        return logistic(r)
    raise ValueError(f"unknown activation {name!r}; expected one of {_ACTIVATIONS}")


class WtaModel:
    """Immutable winner-take-all model over an expanded input pattern.

    Args:
        spec: input expansion shape.
        excitatory: (M, m) matrix, row j is unit j's excitatory weights.
        inhibitory: (M, m) matrix, row j is unit j's inhibitory weights.
        mode: "regression" or "classification".
        output_activation: "identity" or "logistic" (regression only).
        class_of_unit: class label per unit (classification only).
        class_names: optional original label strings, index = dense label.
        normalization: (n, 2) per-feature (min, max) of the training data,
            which serving applies to raw inputs; None when unknown
            (format-version-1 files), and serving then normalizes each
            file by its own range.
    """

    def __init__(self, spec: ExpansionSpec, excitatory, inhibitory,
                 *, mode: str = REGRESSION, output_activation: str = IDENTITY,
                 class_of_unit=None, class_names=None, normalization=None):
        excitatory = np.array(excitatory, dtype=np.float64, copy=True)
        inhibitory = np.array(inhibitory, dtype=np.float64, copy=True)
        m = expansion_dim(spec)
        if excitatory.ndim != 2 or excitatory.shape[1] != m:
            raise ValueError(
                f"excitatory weights must have shape (M, {m}), "
                f"got {excitatory.shape}"
            )
        if inhibitory.shape != excitatory.shape:
            raise ValueError(
                f"inhibitory shape {inhibitory.shape} does not match "
                f"excitatory {excitatory.shape}"
            )
        if excitatory.shape[0] < 1:
            raise ValueError("model needs at least one unit")
        if not (np.isfinite(excitatory).all() and np.isfinite(inhibitory).all()):
            raise ValueError("model weights must be finite")
        if mode not in (REGRESSION, CLASSIFICATION):
            raise ValueError(f"unknown mode {mode!r}")
        if output_activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {output_activation!r}")
        if mode == CLASSIFICATION:
            if class_of_unit is None:
                raise ValueError("classification mode requires class_of_unit")
            class_of_unit = tuple(int(c) for c in class_of_unit)
            if len(class_of_unit) != excitatory.shape[0]:
                raise ValueError(
                    f"class_of_unit length {len(class_of_unit)} does not match "
                    f"{excitatory.shape[0]} units"
                )
            if min(class_of_unit) < 0 or (class_names is not None
                                          and max(class_of_unit) >= len(class_names)):
                raise ValueError("class_of_unit labels must be non-negative and index "
                                 f"class_names, got {list(class_of_unit)}")
        elif class_of_unit is not None:
            raise ValueError("class_of_unit is meaningful in classification mode only")
        if normalization is not None:
            normalization = np.array(normalization, dtype=np.float64, copy=True)
            if normalization.shape != (spec.input_dim, 2) \
                    or not np.isfinite(normalization).all():
                raise ValueError(
                    f"normalization must be finite with shape ({spec.input_dim}, 2), "
                    f"got {normalization.shape}"
                )
            normalization.setflags(write=False)

        excitatory.setflags(write=False)
        inhibitory.setflags(write=False)
        self.spec = spec
        self.excitatory = excitatory
        self.inhibitory = inhibitory
        self.mode = mode
        self.output_activation = output_activation
        self.class_of_unit = class_of_unit
        self.class_names = tuple(class_names) if class_names is not None else None
        self.normalization = normalization

    @property
    def n_units(self) -> int:
        return self.excitatory.shape[0]


def predict(model: WtaModel, inputs) -> tuple[np.ndarray, np.ndarray]:
    """Winning unit and output for every row of normalized ``inputs`` (N, n).

    Each row's expanded pattern p is scored by every unit's excitatory
    weights; the winner (ties to the smallest index) responds with its
    excitatory activation minus its inhibitory one, passed through the
    output activation.  In classification mode the output is the
    winner's class label instead.  Like the GA fitness, a row whose
    output (classification: any excitation) is not finite is an error,
    reported with the index of the first such row.
    """
    patterns = expand_batch(model.spec, inputs)[:, :, np.newaxis]
    # A stacked matmul runs one matrix-vector product per row, so a row's
    # bits never depend on the rest of the batch.  FitnessEvaluator runs a
    # GEMM per block of chromosomes instead: its bits fix every GA
    # trajectory, and at N=7000, m=8, M=4 it is about 12x faster than this
    # form.
    with np.errstate(over="ignore", invalid="ignore"):
        excitation = (model.excitatory @ patterns)[:, :, 0]
        winners = np.argmax(excitation, axis=1)
        if model.mode == CLASSIFICATION:
            outputs = np.asarray(model.class_of_unit)[winners]
            finite = np.isfinite(excitation).all(axis=1)
        else:
            inhibition = model.inhibitory[winners][:, np.newaxis, :] @ patterns
            response = excitation[np.arange(len(winners)), winners] - inhibition[:, 0, 0]
            outputs = apply_activation(model.output_activation, response)
            finite = np.isfinite(outputs)
    bad = np.flatnonzero(~finite)
    if bad.size:
        raise ValueError(f"non-finite output at row {int(bad[0])}")
    return winners, outputs


def model_to_dict(model: WtaModel) -> dict:
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "spec": asdict(model.spec),
        "mode": model.mode,
        "output_activation": model.output_activation,
        "units": [
            {"v": model.excitatory[j].tolist(), "w": model.inhibitory[j].tolist()}
            for j in range(model.n_units)
        ],
        "normalization": None if model.normalization is None
        else model.normalization.tolist(),
    }
    if model.class_of_unit is not None:
        doc["class_of_unit"] = list(model.class_of_unit)
    if model.class_names is not None:
        doc["class_names"] = list(model.class_names)
    return doc


@dataclass(frozen=True)
class UnitWeights:
    v: list  # checked by _unit_weights
    w: list


@dataclass(frozen=True)
class ModelFile:
    """A model file's keys, parsed strictly; version 1 has no normalization."""

    format_version: Literal[1, 2]
    spec: ExpansionSpec
    mode: Literal["regression", "classification"]
    output_activation: Literal["identity", "logistic"]
    units: tuple[UnitWeights, ...]
    normalization: tuple[tuple[float, float], ...] | None = None
    class_of_unit: tuple[int, ...] | None = None
    class_names: tuple[str, ...] | None = None


def model_from_dict(doc) -> WtaModel:
    """Model from its JSON document."""
    model = parse(ModelFile, doc, "model")
    return WtaModel(model.spec, _unit_weights(model.units, "v"), _unit_weights(model.units, "w"),
                    mode=model.mode, output_activation=model.output_activation,
                    class_of_unit=model.class_of_unit, class_names=model.class_names,
                    normalization=model.normalization)


def _unit_weights(units: tuple[UnitWeights, ...], key: str) -> np.ndarray:
    """(M, m) matrix of every unit's ``key`` weights, in one numpy conversion."""
    rows = [getattr(unit, key) for unit in units]
    for j, row in enumerate(rows):
        if not set(map(type, row)) <= {int, float}:
            raise ValueError(f"model.units[{j}].{key} must hold numbers only")
    try:
        return np.array(rows, dtype=np.float64)
    except (ValueError, OverflowError):  # ragged, or an int beyond float range
        raise ValueError(f"model.units[*].{key} must be equally long lists of "
                         "finite numbers") from None


def save_model(model: WtaModel, path) -> None:
    """Write the model as JSON; floats keep full round-trip precision."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path) -> WtaModel:
    return model_from_dict(read_json(path, "model file"))
