"""The run pipeline: which phases a run has and which files it writes.

``run_experiment`` and ``run_density`` raise a phase's failure as a
:class:`PhaseError` named after the phase.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass, replace

import numpy as np

from .config import (
    GA_SEED_OFFSET,
    SPLIT_SEED_OFFSET,
    Density,
    Expansion,
    Model,
    RunConfig,
    config_digest,
    load_dataset,
)
from .data import REGRESSION, Dataset, split_dataset
from .expansion import ExpansionSpec, expand_batch
from .ga import GaConfig, TrainTrace, train, trace_to_csv
from .metrics import rmse
from .model import WtaModel, evaluate, save_model
from .schema import write_json

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
    return OracleFit(
        weights=weights,
        rmse=rmse(design @ weights, dataset.targets),
        rank=int(rank),
        rank_deficient=int(rank) < cols,
    )


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
        metrics, confusion, outputs = evaluate(model, test_data)

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
            # each write pops its own path, so after a failed one this lists
            # the files not reached, which may hold an earlier run's bytes
            unreached = [os.path.join(out_dir, name)
                         for name in (TRACE_FILE, MODEL_FILE, REPORT_FILE)]
            try:
                write_json(unreached.pop(), asdict(report))
                save_model(model, unreached.pop())
                trace_to_csv(trace, unreached.pop())
            except OSError:
                for path in unreached:
                    with suppress(OSError):  # the write's own error is the one reported
                        os.remove(path)
                raise

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
