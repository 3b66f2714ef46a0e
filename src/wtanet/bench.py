"""Experiment orchestration: configs, oracle, metrics reports, density check.

A run is fully determined by its config file, including one funnel seed;
phase seeds are derived from it by fixed offsets (data generation
seed+1, splitting seed+2, evolution seed+3).  Reports carry a stable
content digest of the resolved config, so they are self-identifying.
The caller, not the config, names the directory a run writes into.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from typing import Literal

import numpy as np

from .data import (
    CLASSIFICATION,
    NOISE_CONSTANT,
    REGRESSION,
    Dataset,
    SplitSpec,
    gen_function,
    gen_mackey_glass,
    load_csv,
    load_series_csv,
    split_dataset,
    window_series,
)
from .expansion import ExpansionSpec, expand_batch
from .ga import GaConfig, ModelShape, TrainTrace, train, trace_to_csv
from .metrics import accuracy, confusion_matrix, mae, nrmse, rmse
from .model import IDENTITY, WtaModel, predict, save_model
from .schema import parse, write_json

DATA_SEED_OFFSET = 1
SPLIT_SEED_OFFSET = 2
GA_SEED_OFFSET = 3

# the files a run writes into its output directory
REPORT_FILE = "report.json"
MODEL_FILE = "model.json"
TRACE_FILE = "trace.csv"
DENSITY_FILE = "density.json"


class PhaseError(RuntimeError):
    """Error from a named experiment phase; ``message`` may be an exception."""

    def __init__(self, phase: str, message):
        super().__init__(f"[{phase}] {message}")
        self.phase = phase
        self.message = str(message)


@contextmanager
def _phase(name: str, errors=(ValueError,)):
    """Raise the ``errors`` of the block, or a failed allocation, as a PhaseError of ``name``."""
    try:
        yield
    except (*errors, MemoryError) as exc:
        raise PhaseError(name, exc) from exc


class DatasetSource:
    """The dataset section: one source class per kind, picked by its keys.

    Every source has ``load(mode, seed)``; ``mode`` is the model's mode
    and ``seed`` drives the generators.
    """

    @staticmethod
    def section_class(doc: dict, where: str) -> type:
        if "generator" in doc:
            if doc["generator"] == "mackey_glass":
                return MackeyGlassSource
            return FunctionSource
        if "series" in doc:
            return SeriesCsvSource
        if "path" in doc:
            return CsvSource
        raise ValueError(f"{where} section needs either 'path' or 'generator'")


@dataclass(frozen=True)
class CsvSource(DatasetSource):
    """Feature columns and one target column of a CSV file."""

    path: str
    target_column: int = -1
    header: bool = False

    def load(self, mode: str, seed: int) -> Dataset:
        return load_csv(self.path, target_column=self.target_column,
                        mode=mode, header=self.header)


@dataclass(frozen=True)
class SeriesCsvSource(DatasetSource):
    """One numeric column of a CSV file, windowed into a regression set."""

    path: str
    series: Literal[True]
    window: int
    column: int = 0
    header: bool = False
    horizon: int = 1

    def load(self, mode: str, seed: int) -> Dataset:
        series = load_series_csv(self.path, column=self.column, header=self.header)
        return window_series(series, self.window, self.horizon,
                             provenance=f"csv:{self.path}")


@dataclass(frozen=True)
class Noise:
    sigma: float
    kind: Literal["constant", "linear"] = NOISE_CONSTANT


@dataclass(frozen=True)
class FunctionSource(DatasetSource):
    """Samples of the f1 or f2 benchmark function, optionally noisy."""

    generator: Literal["f1", "f2"]
    n_samples: int
    noise: Noise | None = None

    def load(self, mode: str, seed: int) -> Dataset:
        noise = {} if self.noise is None else {"sigma": self.noise.sigma,
                                               "noise": self.noise.kind}
        return gen_function(self.generator, self.n_samples, seed, **noise)


@dataclass(frozen=True)
class MackeyGlassSource(DatasetSource):
    """The Mackey-Glass series, windowed into a regression set."""

    generator: Literal["mackey_glass"]
    length: int
    window: int
    horizon: int = 1
    tau: int = 17
    beta: float = 0.2
    gamma: float = 0.1
    exponent: float = 10.0
    dt: float = 1.0
    initial: float = 1.2

    def load(self, mode: str, seed: int) -> Dataset:
        series = gen_mackey_glass(
            self.length, tau=self.tau, beta=self.beta, gamma=self.gamma,
            exponent=self.exponent, dt=self.dt, initial=self.initial,
        )
        return window_series(
            series, self.window, self.horizon,
            provenance=f"generator:mackey_glass(length={self.length})",
        )


@dataclass(frozen=True)
class Expansion:
    order: int
    include_bias: bool = True


@dataclass(frozen=True)
class Model:
    """The model section: regression takes ``units``, classification ``units_per_class``."""

    mode: Literal["regression", "classification"] = REGRESSION
    units: int | None = None
    units_per_class: int | None = None
    activation: Literal["identity", "logistic"] = IDENTITY

    def __post_init__(self) -> None:
        size, other = ("units", "units_per_class") if self.mode == REGRESSION \
            else ("units_per_class", "units")
        if getattr(self, other) is not None:
            raise ValueError(f"{other} does not apply to {self.mode} models")
        if getattr(self, size) is None:
            raise ValueError(f"{self.mode} model section requires '{size}'")
        if self.mode == CLASSIFICATION and self.activation != IDENTITY:
            raise ValueError("classification models take no output activation")

    def shape(self, expansion: Expansion, dataset: Dataset) -> ModelShape:
        """The model shape over ``dataset``'s features and classes."""
        spec = ExpansionSpec(input_dim=dataset.n_features, order=expansion.order,
                             include_bias=expansion.include_bias)
        if self.mode == REGRESSION:
            return ModelShape(spec=spec, n_units=self.units,
                              output_activation=self.activation)
        return ModelShape.for_classification(spec, dataset.n_classes,
                                             self.units_per_class)


@dataclass(frozen=True)
class Density:
    """The ``density`` command's orders, GA seeds and tolerance."""

    k_values: tuple[int, ...]
    seeds: tuple[int, ...]
    slack: float = 0.02

    def __post_init__(self) -> None:
        k = self.k_values
        if not k or any(b <= a for a, b in zip(k, k[1:])):
            raise ValueError(f"k_values must be strictly increasing, got {list(k)}")
        if k[0] < 0:
            raise ValueError(f"k_values must be non-negative, got {list(k)}")
        if len(self.seeds) < 3:
            raise ValueError(f"need at least 3 seeds, got {len(self.seeds)}")
        if min(self.seeds) < 0:
            raise ValueError(f"seeds must be non-negative, got {list(self.seeds)}")
        if len(set(self.seeds)) < len(self.seeds):
            raise ValueError(f"seeds must not repeat, got {list(self.seeds)}")
        if self.slack < 0:
            raise ValueError(f"slack must be non-negative, got {self.slack}")


@dataclass(frozen=True)
class RunConfig:
    """A run config, parsed strictly: each section is a typed dataclass.

    The fields are the schema (see :mod:`wtanet.schema`): unknown keys,
    missing keys and wrong JSON types are errors.  ``seed`` is the run's
    one seed.
    """

    dataset: DatasetSource
    expansion: Expansion
    model: Model
    ga: GaConfig = GaConfig()
    split: SplitSpec = SplitSpec()
    seed: int = 0
    task: str = ""
    format_version: Literal[1] = 1
    density: Density | None = None

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.density is not None and self.model.mode != REGRESSION:
            raise ValueError("the density section needs a regression model")
        if self.model.mode == CLASSIFICATION and not isinstance(self.dataset, CsvSource):
            raise ValueError("classification needs a CSV dataset with a class column")

    @classmethod
    def from_dict(cls, doc) -> "RunConfig":
        return parse(cls, doc)


def config_digest(config: RunConfig) -> str:
    """Stable content hash of the resolved configuration.

    Defaults are filled in, so leaving a key out and giving its default
    hash alike; the ``density`` section is left out.
    """
    resolved = asdict(config)
    del resolved["density"]
    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class EvalReport:
    """Metrics bundle plus provenance for one experiment run."""

    task: str
    mode: str
    metrics: dict
    confusion: list | None
    seed: int
    config_digest: str
    wall_time_s: float
    provenance: str
    training: dict


@dataclass
class ExperimentResult:
    report: EvalReport
    model: WtaModel
    trace: TrainTrace
    train_data: Dataset
    test_data: Dataset
    outputs: np.ndarray


@dataclass(frozen=True)
class OracleFit:
    """Least-squares fit of the basis-expansion linear model.

    This is the best any single-unit model with identity activation can
    achieve in-sample, so it lower-bounds GA training RMSE.
    """

    weights: np.ndarray
    rmse: float
    rank: int
    rank_deficient: bool


def least_squares_oracle(dataset: Dataset, spec: ExpansionSpec) -> OracleFit:
    """Solve the expanded-basis linear regression by stable least squares.

    Rank-deficient design matrices are solved in the minimum-norm sense
    and flagged.  Requires more samples than basis columns.
    """
    if dataset.mode != REGRESSION:
        raise ValueError("least_squares_oracle requires a regression dataset")
    design = expand_batch(spec, dataset.inputs)
    rows, cols = design.shape
    if rows <= cols:
        raise ValueError(
            f"design matrix needs more rows than columns, got {rows}x{cols}"
        )
    weights, _, rank, _ = np.linalg.lstsq(design, dataset.targets, rcond=None)
    residual = design @ weights - dataset.targets
    fit_rmse = float(np.sqrt(np.mean(residual * residual)))
    return OracleFit(
        weights=weights,
        rmse=fit_rmse,
        rank=int(rank),
        rank_deficient=int(rank) < cols,
    )


def _model_labels(model: WtaModel, data: Dataset) -> np.ndarray:
    # the file's first-appearance label ids, in the model's label order
    position = {name: i for i, name in enumerate(model.class_names)}
    unknown = [n for n in data.label_names if n not in position]
    if unknown:
        raise ValueError(f"labels {unknown} are not known to the model")
    return np.array([position[name] for name in data.label_names])[data.targets]


def _evaluate_model(model: WtaModel, data: Dataset) -> tuple[dict, list | None, np.ndarray]:
    """Scores of the model on ``data``: metrics, confusion and the outputs."""
    _, outputs = predict(model, data.inputs)
    if model.shape.mode == CLASSIFICATION:
        targets = _model_labels(model, data)
        metrics = {"accuracy": accuracy(outputs, targets)}
        confusion = confusion_matrix(outputs, targets, len(model.class_names)).tolist()
        return metrics, confusion, outputs
    # outputs and targets are finite, but their errors or spread may overflow
    with np.errstate(over="ignore", invalid="ignore"):
        metrics = {"rmse": rmse(outputs, data.targets), "mae": mae(outputs, data.targets)}
        std = float(np.std(data.targets))
        if std > 0.0:
            metrics["nrmse"] = nrmse(outputs, data.targets)
    for name, value in [*metrics.items(), ("target std", std)]:
        if not np.isfinite(value):
            raise ValueError(f"non-finite {name}: the targets or outputs are too large")
    return metrics, None, outputs


def load_dataset(config: RunConfig) -> Dataset:
    """The run's whole dataset; a generator draws from seed + DATA_SEED_OFFSET."""
    return config.dataset.load(config.model.mode, config.seed + DATA_SEED_OFFSET)


def run_experiment(config: RunConfig, *, out_dir: str | None = None) -> ExperimentResult:
    """Run one experiment end to end: data, split, training, evaluation.

    Given an ``out_dir``, writes the report JSON, model JSON and trace
    CSV into it.  Everything except wall time is a pure function of the
    config, so reruns produce byte-identical artifacts.
    """
    t0 = time.perf_counter()
    digest = config_digest(config)

    with _phase("data", (OSError, ValueError)):
        dataset = load_dataset(config)

    with _phase("split"):
        train_data, test_data = split_dataset(
            dataset, config.split, config.seed + SPLIT_SEED_OFFSET
        )

    with _phase("train"):
        shape = config.model.shape(config.expansion, dataset)
        trace = train(shape, train_data, config.ga, config.seed + GA_SEED_OFFSET)

    model = WtaModel(shape, trace.model.excitatory, trace.model.inhibitory,
                     class_names=dataset.label_names, normalization=dataset.normalization)

    with _phase("evaluate"):
        metrics, confusion, outputs = _evaluate_model(model, test_data)

    if shape.mode == REGRESSION:
        train_quality = {
            "train_rmse": float(np.sqrt(max(0.0, -trace.best_fitness_value)))
        }
    else:
        train_quality = {"train_error_rate": float(-trace.best_fitness_value)}
    train_quality.update(
        generations_run=trace.generations_run,
        stopped_early=trace.stopped_early,
        best_generation=trace.best_generation,
    )

    report = EvalReport(
        task=config.task,
        mode=shape.mode,
        metrics=metrics,
        confusion=confusion,
        seed=config.seed,
        config_digest=digest,
        wall_time_s=time.perf_counter() - t0,
        provenance=dataset.provenance,
        training=train_quality,
    )

    if out_dir is not None:
        with _phase("write", (OSError,)):
            os.makedirs(out_dir, exist_ok=True)
            write_json(os.path.join(out_dir, REPORT_FILE), asdict(report))
            save_model(model, os.path.join(out_dir, MODEL_FILE))
            trace_to_csv(trace, os.path.join(out_dir, TRACE_FILE))

    return ExperimentResult(
        report=report,
        model=model,
        trace=trace,
        train_data=train_data,
        test_data=test_data,
        outputs=outputs,
    )


@dataclass
class DensityReport:
    """Best attainable fit per expansion order, for the growth check."""

    k_values: list[int]
    ga_rmse: list[float]
    oracle_rmse: list[float]
    seeds: list[int]
    slack: float
    non_increasing: bool


def _non_increasing(values, slack: float) -> bool:
    return all(b <= a + slack for a, b in zip(values, values[1:]))


def density_check(dataset: Dataset, density: Density, model: Model,
                  expansion: Expansion, ga_config: GaConfig) -> DensityReport:
    """Check that a richer basis never hurts the best attainable fit.

    For each order in ``density.k_values`` (the shape ``train`` builds
    from ``model`` and ``expansion`` at that order) the min-over-seeds final
    training RMSE is recorded; the report states whether that sequence
    is non-increasing within ``density.slack``.  The least-squares
    oracle sequence (nested bases) is exactly non-increasing.
    """
    if dataset.mode != REGRESSION:
        raise ValueError("density_check requires a regression dataset")

    ga_rmse = []
    oracle_rmse = []
    for k in density.k_values:
        shape = model.shape(replace(expansion, order=k), dataset)
        # min-over-seeds RMSE == max-over-seeds fitness (fitness is -MSE)
        best_fitness = max(
            train(shape, dataset, ga_config, seed).best_fitness_value
            for seed in density.seeds
        )
        ga_rmse.append(float(np.sqrt(max(0.0, -best_fitness))))
        oracle_rmse.append(least_squares_oracle(dataset, shape.spec).rmse)

    return DensityReport(
        k_values=list(density.k_values),
        ga_rmse=ga_rmse,
        oracle_rmse=oracle_rmse,
        seeds=list(density.seeds),
        slack=density.slack,
        non_increasing=_non_increasing(ga_rmse, density.slack),
    )


def run_density(config: RunConfig, out_dir: str) -> tuple[DensityReport, str]:
    """Run the config's density check and write it into ``out_dir``.

    Returns the report and the path of its file.

    Its phases are those of :func:`run_experiment`: data, train and write.
    """
    if config.density is None:
        raise PhaseError("config", "config is missing the 'density' section")
    with _phase("data", (OSError, ValueError)):
        dataset = load_dataset(config)
    with _phase("train"):
        report = density_check(dataset, config.density, config.model,
                               config.expansion, config.ga)
    path = os.path.join(out_dir, DENSITY_FILE)
    with _phase("write", (OSError,)):
        os.makedirs(out_dir, exist_ok=True)
        write_json(path, asdict(report))
    return report, path
