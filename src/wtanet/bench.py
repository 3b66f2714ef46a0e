"""Experiment orchestration: configs, oracle, metrics reports, density check.

A run is fully determined by its config file, including one funnel seed;
phase seeds are derived from it by fixed offsets (data generation
seed+1, splitting seed+2, evolution seed+3).  Reports carry a stable
content digest of the resolved config, so they are self-identifying.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import data as datamod
from .data import (
    CLASSIFICATION,
    REGRESSION,
    Dataset,
    SplitSpec,
    gen_function,
    gen_mackey_glass,
    gen_noisy,
    load_csv,
    load_series_csv,
    split_dataset,
    window_series,
)
from .expansion import ExpansionSpec, expand_batch
from .ga import GaConfig, ModelShape, TrainTrace, train, trace_to_csv
from .metrics import accuracy, confusion_matrix, mae, nrmse, rmse
from .model import IDENTITY, WtaModel, predict, save_model

CONFIG_FORMAT_VERSION = 1

DATA_SEED_OFFSET = 1
SPLIT_SEED_OFFSET = 2
GA_SEED_OFFSET = 3


class PhaseError(RuntimeError):
    """Error from a named experiment phase."""

    def __init__(self, phase: str, message: str):
        super().__init__(f"[{phase}] {message}")
        self.phase = phase
        self.message = message


def _phase_wrap(phase: str, exc: Exception) -> PhaseError:
    return PhaseError(phase, str(exc))


# every key a run config may hold, per section ("" is the top level)
_CONFIG_KEYS = {
    "": {"format_version", "task", "dataset", "expansion", "model", "ga",
         "split", "seed", "output", "density"},
    "dataset": {"path", "target_column", "header", "series", "column",
                "generator", "n_samples", "noise", "length", "window",
                "horizon", "tau", "beta", "gamma", "exponent", "dt", "initial"},
    "expansion": {"order", "include_bias"},
    "model": {"mode", "units", "units_per_class", "activation"},
    # the run seed is the single funnel: no section takes a seed of its own
    "split": {"train_fraction", "stratified"},
    "ga": {f.name for f in fields(GaConfig)} - {"seed"},
}


def _reject_unknown_keys(doc: dict) -> None:
    for section, known in _CONFIG_KEYS.items():
        keys = doc if not section else doc.get(section, {})
        unknown = sorted(set(keys) - known)
        if unknown:
            prefix = f"{section}." if section else ""
            raise ValueError(f"unknown key {prefix}{unknown[0]}")


@dataclass(frozen=True)
class RunConfig:
    """Parsed and validated run configuration.

    ``dataset`` selects either a CSV source ({"path", "target_column",
    "header"} plus {"series", "column", "window", "horizon"} for scalar
    series) or a generator ({"generator": "f1"|"f2", "n_samples",
    optional "noise": {"kind", "sigma"}} or {"generator":
    "mackey_glass", "length", "window", "horizon"}).
    """

    dataset: dict
    expansion: dict
    model: dict
    ga: GaConfig
    split: SplitSpec
    seed: int = 0
    task: str = ""
    output: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        version = doc.get("format_version", CONFIG_FORMAT_VERSION)
        if version != CONFIG_FORMAT_VERSION:
            raise ValueError(f"unsupported config format_version {version!r}")
        _reject_unknown_keys(doc)
        for key in ("dataset", "expansion", "model"):
            if key not in doc:
                raise ValueError(f"config is missing the {key!r} section")
        model = dict(doc["model"])
        mode = model.get("mode", REGRESSION)
        if mode not in (REGRESSION, CLASSIFICATION):
            raise ValueError(f"unknown model mode {mode!r}")
        model.setdefault("activation", IDENTITY)
        if mode == REGRESSION and "units" not in model:
            raise ValueError("regression model section requires 'units'")
        if mode == CLASSIFICATION and "units" not in model \
                and "units_per_class" not in model:
            raise ValueError(
                "classification model section requires 'units' or 'units_per_class'"
            )
        expansion = dict(doc["expansion"])
        if "order" not in expansion:
            raise ValueError("expansion section requires 'order'")
        expansion.setdefault("include_bias", True)
        return cls(
            dataset=dict(doc["dataset"]),
            expansion=expansion,
            model=model,
            ga=GaConfig.from_dict(dict(doc.get("ga", {}))),
            split=SplitSpec.from_dict(dict(doc.get("split", {}))),
            seed=int(doc.get("seed", 0)),
            task=str(doc.get("task", "")),
            output=dict(doc.get("output", {})),
        )

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def with_seed(self, seed: int) -> "RunConfig":
        return RunConfig(
            dataset=self.dataset, expansion=self.expansion, model=self.model,
            ga=self.ga, split=self.split, seed=seed, task=self.task,
            output=self.output,
        )

    def to_canonical_dict(self) -> dict:
        ga = self.ga.to_dict()
        ga.pop("seed")
        split = self.split.to_dict()
        split.pop("seed")
        return {
            "format_version": CONFIG_FORMAT_VERSION,
            "task": self.task,
            "dataset": self.dataset,
            "expansion": self.expansion,
            "model": self.model,
            "ga": ga,
            "split": split,
            "seed": self.seed,
        }


def config_digest(config: RunConfig) -> str:
    """Stable content hash of the resolved configuration."""
    canonical = json.dumps(
        config.to_canonical_dict(), sort_keys=True, separators=(",", ":")
    )
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

    def to_dict(self) -> dict:
        return {
            "task": self.task,
            "mode": self.mode,
            "metrics": self.metrics,
            "confusion": self.confusion,
            "seed": self.seed,
            "config_digest": self.config_digest,
            "wall_time_s": self.wall_time_s,
            "provenance": self.provenance,
            "training": self.training,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


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


def _resolve_dataset(cfg: RunConfig) -> Dataset:
    d = cfg.dataset
    mode = cfg.model.get("mode", REGRESSION)
    data_seed = cfg.seed + DATA_SEED_OFFSET
    if "path" in d:
        if d.get("series"):
            series = load_series_csv(
                d["path"],
                column=int(d.get("column", 0)),
                header=bool(d.get("header", False)),
            )
            return window_series(
                series,
                int(d["window"]),
                int(d.get("horizon", 1)),
                provenance=f"csv:{d['path']}",
            )
        return load_csv(
            d["path"],
            target_column=int(d.get("target_column", -1)),
            mode=mode,
            header=bool(d.get("header", False)),
        )
    if "generator" in d:
        which = d["generator"]
        if which in (datamod.GENERATOR_F1, datamod.GENERATOR_F2):
            n_samples = int(d["n_samples"])
            noise = d.get("noise")
            if noise:
                return gen_noisy(
                    which,
                    float(noise["sigma"]),
                    n_samples,
                    data_seed,
                    noise=noise.get("kind", datamod.NOISE_CONSTANT),
                )
            return gen_function(which, n_samples, data_seed)
        if which == "mackey_glass":
            series = gen_mackey_glass(
                int(d["length"]),
                tau=int(d.get("tau", 17)),
                beta=float(d.get("beta", 0.2)),
                gamma=float(d.get("gamma", 0.1)),
                exponent=float(d.get("exponent", 10.0)),
                dt=float(d.get("dt", 1.0)),
                initial=float(d.get("initial", 1.2)),
            )
            return window_series(
                series,
                int(d["window"]),
                int(d.get("horizon", 1)),
                provenance=f"generator:mackey_glass(length={d['length']})",
            )
        raise ValueError(f"unknown generator {which!r}")
    raise ValueError("dataset section needs either 'path' or 'generator'")


def _resolve_shape(cfg: RunConfig, dataset: Dataset) -> ModelShape:
    spec = ExpansionSpec(
        input_dim=dataset.n_features,
        order=int(cfg.expansion["order"]),
        include_bias=bool(cfg.expansion.get("include_bias", True)),
    )
    mode = cfg.model.get("mode", REGRESSION)
    activation = cfg.model.get("activation", IDENTITY)
    if mode == CLASSIFICATION:
        n_classes = dataset.n_classes
        if "units_per_class" in cfg.model:
            per_class = int(cfg.model["units_per_class"])
        else:
            units = int(cfg.model["units"])
            if units % n_classes:
                raise ValueError(
                    f"units={units} is not divisible by {n_classes} classes"
                )
            per_class = units // n_classes
        shape = ModelShape.for_classification(spec, n_classes, per_class)
        if "units" in cfg.model and shape.n_units != int(cfg.model["units"]):
            raise ValueError(
                f"model units {cfg.model['units']} inconsistent with "
                f"units_per_class {per_class} over {n_classes} classes"
            )
        return shape
    return ModelShape(
        spec=spec,
        n_units=int(cfg.model["units"]),
        mode=REGRESSION,
        output_activation=activation,
    )


def _model_labels(model: WtaModel, data: Dataset) -> np.ndarray:
    # the file's first-appearance label ids, in the model's label order
    if model.class_names is None or data.label_names is None:
        return data.targets
    position = {name: i for i, name in enumerate(model.class_names)}
    unknown = [n for n in data.label_names if n not in position]
    if unknown:
        raise ValueError(f"labels {unknown} are not known to the model")
    return np.array([position[name] for name in data.label_names])[data.targets]


def _evaluate_model(model: WtaModel, data: Dataset) -> tuple[dict, list | None, np.ndarray]:
    """Scores of the model on ``data``: metrics, confusion and the outputs."""
    _, outputs = predict(model, data.inputs)
    if model.mode == CLASSIFICATION:
        targets = _model_labels(model, data)
        n_classes = len(model.class_names) if model.class_names is not None else None
        metrics = {"accuracy": accuracy(outputs, targets)}
        confusion = confusion_matrix(outputs, targets, n_classes=n_classes).tolist()
        return metrics, confusion, outputs
    metrics = {
        "rmse": rmse(outputs, data.targets),
        "mae": mae(outputs, data.targets),
    }
    if float(np.std(data.targets)) > 0.0:
        metrics["nrmse"] = nrmse(outputs, data.targets)
    return metrics, None, outputs


def run_experiment(config: RunConfig, *, out_dir: str | None = None,
                   write: bool = True) -> ExperimentResult:
    """Run one experiment end to end: data, split, training, evaluation.

    Writes the report JSON, model JSON and trace CSV under the config's
    output section (``out_dir`` overrides the directory; ``write=False``
    skips files).  Everything except wall time is a pure function of the
    config, so reruns produce byte-identical artifacts.
    """
    t0 = time.perf_counter()
    digest = config_digest(config)

    try:
        dataset = _resolve_dataset(config)
    except (OSError, ValueError) as exc:
        raise _phase_wrap("data", exc) from exc

    try:
        split = SplitSpec(
            train_fraction=config.split.train_fraction,
            stratified=config.split.stratified,
            seed=config.seed + SPLIT_SEED_OFFSET,
        )
        train_data, test_data = split_dataset(dataset, split)
    except ValueError as exc:
        raise _phase_wrap("split", exc) from exc

    try:
        shape = _resolve_shape(config, dataset)
        ga_config = config.ga.with_seed(config.seed + GA_SEED_OFFSET)
        trace = train(shape, train_data, ga_config)
    except ValueError as exc:
        raise _phase_wrap("train", exc) from exc

    model = WtaModel(
        trace.model.spec, trace.model.excitatory, trace.model.inhibitory,
        mode=shape.mode, output_activation=shape.output_activation,
        class_of_unit=shape.class_of_unit, class_names=dataset.label_names,
        normalization=dataset.normalization,
    )

    try:
        metrics, confusion, outputs = _evaluate_model(model, test_data)
    except ValueError as exc:
        raise _phase_wrap("evaluate", exc) from exc

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

    if write:
        try:
            out = dict(config.output)
            directory = out_dir if out_dir is not None else out.get("dir", ".")
            os.makedirs(directory, exist_ok=True)
            report_path = os.path.join(directory, out.get("report", "report.json"))
            model_path = os.path.join(directory, out.get("model", "model.json"))
            trace_path = os.path.join(directory, out.get("trace", "trace.csv"))
            with open(report_path, "w", encoding="utf-8") as fh:
                fh.write(report.to_json())
            save_model(model, model_path)
            trace_to_csv(trace, trace_path)
        except OSError as exc:
            raise _phase_wrap("write", exc) from exc

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
    oracle_rmse: list[float] | None
    seeds: list[int]
    slack: float
    non_increasing: bool

    def to_dict(self) -> dict:
        return {
            "k_values": self.k_values,
            "ga_rmse": self.ga_rmse,
            "oracle_rmse": self.oracle_rmse,
            "seeds": self.seeds,
            "slack": self.slack,
            "non_increasing": self.non_increasing,
        }


def _non_increasing(values, slack: float) -> bool:
    return all(b <= a + slack for a, b in zip(values, values[1:]))


def density_check(dataset: Dataset, k_values, n_units: int,
                  ga_config: GaConfig, seeds, *, slack: float = 0.02,
                  include_oracle: bool = True) -> DensityReport:
    """Check that a richer basis never hurts the best attainable fit.

    For each expansion order the min-over-seeds final training RMSE is
    recorded; the report states whether that sequence is non-increasing
    within ``slack``.  The least-squares oracle sequence (nested bases)
    is exactly non-increasing and is included for reference.
    """
    k_values = [int(k) for k in k_values]
    if any(b <= a for a, b in zip(k_values, k_values[1:])) or not k_values:
        raise ValueError(f"k_values must be strictly increasing, got {k_values}")
    seeds = [int(s) for s in seeds]
    if len(seeds) < 3:
        raise ValueError(f"need at least 3 seeds, got {len(seeds)}")
    if dataset.mode != REGRESSION:
        raise ValueError("density_check requires a regression dataset")

    ga_rmse = []
    oracle_rmse = [] if include_oracle else None
    for k in k_values:
        spec = ExpansionSpec(input_dim=dataset.n_features, order=k)
        shape = ModelShape(spec=spec, n_units=n_units, mode=REGRESSION)
        # min-over-seeds RMSE == max-over-seeds fitness (fitness is -MSE)
        best_fitness = max(
            train(shape, dataset, ga_config.with_seed(seed)).best_fitness_value
            for seed in seeds
        )
        ga_rmse.append(float(np.sqrt(max(0.0, -best_fitness))))
        if include_oracle:
            oracle_rmse.append(least_squares_oracle(dataset, spec).rmse)

    return DensityReport(
        k_values=k_values,
        ga_rmse=ga_rmse,
        oracle_rmse=oracle_rmse,
        seeds=seeds,
        slack=slack,
        non_increasing=_non_increasing(ga_rmse, slack),
    )
