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

from dataclasses import asdict, dataclass
from typing import Literal

import numpy as np

from .data import CLASSIFICATION, REGRESSION
from .expansion import ExpansionSpec, expand_batch, expansion_dim
from .schema import parse, read_json, write_json

MODEL_FORMAT_VERSION = 2

IDENTITY = "identity"
LOGISTIC = "logistic"


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
    """``r`` through the output activation ``name`` (checked by ModelShape)."""
    return logistic(r) if name == LOGISTIC else r


@dataclass(frozen=True)
class ModelShape:
    """A model's layout: everything but its weights and serving metadata.

    The one check of output activation and unit classes.  A shape is a
    classification shape exactly when it has ``class_of_unit``, one
    class label per unit, and then takes the identity activation.

    Args:
        spec: input expansion shape.
        n_units: M, the number of competing units.
        output_activation: "identity" or "logistic" (regression only).
        class_of_unit: class label per unit (classification only).
    """

    spec: ExpansionSpec
    n_units: int
    output_activation: str = IDENTITY
    class_of_unit: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.n_units < 1:
            raise ValueError(f"n_units must be >= 1, got {self.n_units}")
        if self.output_activation not in (IDENTITY, LOGISTIC):
            raise ValueError(f"unknown activation {self.output_activation!r}")
        if self.class_of_unit is None:
            return
        if self.output_activation != IDENTITY:
            raise ValueError("classification models take no output activation")
        if len(self.class_of_unit) != self.n_units:
            raise ValueError(
                f"class_of_unit length {len(self.class_of_unit)} does not "
                f"match n_units {self.n_units}"
            )

    @property
    def mode(self) -> str:
        return REGRESSION if self.class_of_unit is None else CLASSIFICATION

    @property
    def pattern_dim(self) -> int:
        return expansion_dim(self.spec)

    @property
    def n_genes(self) -> int:
        return 2 * self.n_units * self.pattern_dim

    @classmethod
    def for_classification(cls, spec: ExpansionSpec, n_classes: int,
                           units_per_class: int = 1) -> "ModelShape":
        """Units assigned to classes round-robin: unit j carries j % C."""
        if n_classes < 1 or units_per_class < 1:
            raise ValueError("n_classes and units_per_class must be >= 1")
        n_units = n_classes * units_per_class
        return cls(
            spec=spec,
            n_units=n_units,
            class_of_unit=tuple(j % n_classes for j in range(n_units)),
        )


class WtaModel:
    """Immutable winner-take-all model: a :class:`ModelShape` plus weights.

    Args:
        shape: the model's layout, checked by ModelShape itself.
        excitatory: (M, m) matrix, row j is unit j's excitatory weights.
        inhibitory: (M, m) matrix, row j is unit j's inhibitory weights.
        class_names: original label strings, index = dense label
            (classification only; a saved classifier needs them).
        normalization: (n, 2) per-feature (min, max) of the training data,
            which serving applies to raw inputs (a saved model needs it).
    """

    def __init__(self, shape: ModelShape, excitatory, inhibitory,
                 *, class_names=None, normalization=None):
        excitatory = np.array(excitatory, dtype=np.float64, copy=True)
        inhibitory = np.array(inhibitory, dtype=np.float64, copy=True)
        expected = (shape.n_units, shape.pattern_dim)
        for name, weights in (("excitatory", excitatory), ("inhibitory", inhibitory)):
            if weights.shape != expected:
                raise ValueError(f"{name} weights must have shape {expected}, "
                                 f"got {weights.shape}")
        if not (np.isfinite(excitatory).all() and np.isfinite(inhibitory).all()):
            raise ValueError("model weights must be finite")
        if class_names is not None and shape.mode != CLASSIFICATION:
            raise ValueError("class_names are meaningful in classification mode only")
        labels = shape.class_of_unit
        if labels is not None and (min(labels) < 0 or (
                class_names is not None and max(labels) >= len(class_names))):
            raise ValueError("class_of_unit labels must be non-negative and index "
                             f"class_names, got {list(labels)}")
        if normalization is not None:
            normalization = np.array(normalization, dtype=np.float64, copy=True)
            if normalization.shape != (shape.spec.input_dim, 2) \
                    or not np.isfinite(normalization).all() \
                    or (normalization[:, 0] > normalization[:, 1]).any():
                raise ValueError(
                    f"normalization must be finite (min, max) pairs with min <= max "
                    f"and shape ({shape.spec.input_dim}, 2), got {normalization.tolist()}"
                )
            normalization.setflags(write=False)

        excitatory.setflags(write=False)
        inhibitory.setflags(write=False)
        self.shape = shape
        self.excitatory = excitatory
        self.inhibitory = inhibitory
        self.class_names = tuple(class_names) if class_names is not None else None
        self.normalization = normalization


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
    patterns = expand_batch(model.shape.spec, inputs)[:, :, np.newaxis]
    # A stacked matmul runs one matrix-vector product per row, so a row's
    # bits never depend on the rest of the batch.  FitnessEvaluator runs a
    # GEMM per block of chromosomes instead: its bits fix every GA
    # trajectory, and at N=7000, m=8, M=4 it is about 12x faster than this
    # form.
    with np.errstate(over="ignore", invalid="ignore"):
        excitation = (model.excitatory @ patterns)[:, :, 0]
        winners = np.argmax(excitation, axis=1)
        if model.shape.mode == CLASSIFICATION:
            outputs = np.asarray(model.shape.class_of_unit)[winners]
            finite = np.isfinite(excitation).all(axis=1)
        else:
            inhibition = model.inhibitory[winners][:, np.newaxis, :] @ patterns
            response = excitation[np.arange(len(winners)), winners] - inhibition[:, 0, 0]
            outputs = apply_activation(model.shape.output_activation, response)
            finite = np.isfinite(outputs)
    bad = np.flatnonzero(~finite)
    if bad.size:
        raise ValueError(f"non-finite output at row {int(bad[0])}")
    return winners, outputs


def model_to_dict(model: WtaModel) -> dict:
    """The model's JSON document, which needs the serving metadata of a saved model."""
    if model.normalization is None:
        raise ValueError("a saved model needs its training normalization")
    if model.shape.mode == CLASSIFICATION and model.class_names is None:
        raise ValueError("a saved classifier needs its class_names")
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "spec": asdict(model.shape.spec),
        "mode": model.shape.mode,
        "output_activation": model.shape.output_activation,
        "units": [
            {"v": model.excitatory[j].tolist(), "w": model.inhibitory[j].tolist()}
            for j in range(model.shape.n_units)
        ],
        "normalization": model.normalization.tolist(),
    }
    if model.shape.mode == CLASSIFICATION:
        doc["class_of_unit"] = list(model.shape.class_of_unit)
        doc["class_names"] = list(model.class_names)
    return doc


@dataclass(frozen=True)
class UnitWeights:
    v: list  # checked by _unit_weights
    w: list


@dataclass(frozen=True)
class ModelFile:
    """A model file's keys, parsed strictly; a classifier's also needs its class keys."""

    format_version: Literal[2]
    spec: ExpansionSpec
    mode: Literal["regression", "classification"]
    output_activation: Literal["identity", "logistic"]
    units: tuple[UnitWeights, ...]
    normalization: tuple[tuple[float, float], ...]
    class_of_unit: tuple[int, ...] | None = None
    class_names: tuple[str, ...] | None = None


def model_from_dict(doc) -> WtaModel:
    """Model from its JSON document."""
    model = parse(ModelFile, doc, "model")
    if (model.mode == CLASSIFICATION) != (model.class_of_unit is not None):
        raise ValueError("missing key model.class_of_unit" if model.class_of_unit is None
                         else "model.class_of_unit is for classification models only")
    shape = ModelShape(model.spec, len(model.units), model.output_activation,
                       model.class_of_unit)
    if shape.mode == CLASSIFICATION and model.class_names is None:
        raise ValueError("missing key model.class_names")
    return WtaModel(shape, _unit_weights(model.units, "v"), _unit_weights(model.units, "w"),
                    class_names=model.class_names, normalization=model.normalization)


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
    # the dict is made before the file opens, so a refused model leaves no file
    write_json(path, model_to_dict(model))


def load_model(path) -> WtaModel:
    return model_from_dict(read_json(path, "model file"))
