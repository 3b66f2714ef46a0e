"""Real-coded genetic algorithm over the full model weight set.

A chromosome is a flat float64 vector holding every excitatory row and
then every inhibitory row, unit-major, so ``decode(encode(model))``
reproduces the model bit-exactly.  One generation copies the elites
unchanged and fills the remainder with tournament-selected parents,
BLX-alpha crossover and per-gene Gaussian mutation with a decaying
sigma.

Random draws come from a single seeded PCG64 generator in a fixed,
member-major order: for each offspring slot, the two tournaments, the
crossover coin, the BLX uniforms (only when crossover fires), the
per-gene mutation coins, and finally one standard normal per mutated
gene in ascending gene order.  Fitness evaluation consumes no
randomness.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .data import CLASSIFICATION, REGRESSION, Dataset
from .expansion import ExpansionSpec, expand_batch, expansion_dim
from .model import IDENTITY, LOGISTIC, WtaModel, apply_activation

WORST_FITNESS = float("-inf")  # sentinel for non-finite predictions


@dataclass(frozen=True)
class ModelShape:
    """Everything needed to decode a chromosome into a model."""

    spec: ExpansionSpec
    n_units: int
    mode: str = REGRESSION
    output_activation: str = IDENTITY
    class_of_unit: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.n_units < 1:
            raise ValueError(f"n_units must be >= 1, got {self.n_units}")
        if self.mode not in (REGRESSION, CLASSIFICATION):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.output_activation not in (IDENTITY, LOGISTIC):
            raise ValueError(f"unknown activation {self.output_activation!r}")
        if self.mode == CLASSIFICATION:
            if self.class_of_unit is None:
                raise ValueError("classification shape requires class_of_unit")
            if len(self.class_of_unit) != self.n_units:
                raise ValueError(
                    f"class_of_unit length {len(self.class_of_unit)} does not "
                    f"match n_units {self.n_units}"
                )

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
            mode=CLASSIFICATION,
            class_of_unit=tuple(j % n_classes for j in range(n_units)),
        )


@dataclass(frozen=True)
class GaConfig:
    """Hyperparameters of the evolutionary search.

    ``mutation_rate=None`` resolves to 1/chromosome-length at run time.
    """

    population_size: int = 60
    generations: int = 200
    tournament_size: int = 3
    crossover_rate: float = 0.9
    blx_alpha: float = 0.5
    mutation_rate: float | None = None
    mutation_sigma_initial: float = 0.3
    sigma_decay: float = 0.995
    elitism_count: int = 2
    init_weight_range: tuple[float, float] = (-1.0, 1.0)
    seed: int = 0
    fitness_stagnation_patience: int = 50

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise ValueError(f"population_size must be >= 2, got {self.population_size}")
        if self.generations < 0:
            raise ValueError(f"generations must be >= 0, got {self.generations}")
        if self.tournament_size < 1:
            raise ValueError(f"tournament_size must be >= 1, got {self.tournament_size}")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ValueError(f"crossover_rate must be in [0, 1], got {self.crossover_rate}")
        if self.mutation_rate is not None and not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError(f"mutation_rate must be in [0, 1], got {self.mutation_rate}")
        if self.blx_alpha < 0:
            raise ValueError(f"blx_alpha must be >= 0, got {self.blx_alpha}")
        if self.mutation_sigma_initial < 0:
            raise ValueError("mutation_sigma_initial must be >= 0")
        if not 0.0 < self.sigma_decay <= 1.0:
            raise ValueError(f"sigma_decay must be in (0, 1], got {self.sigma_decay}")
        if not 0 <= self.elitism_count < self.population_size:
            raise ValueError(
                f"elitism_count must be in [0, population_size), got {self.elitism_count}"
            )
        lo, hi = self.init_weight_range
        if not lo < hi:
            raise ValueError(f"init_weight_range must be (lo, hi) with lo < hi, got {self.init_weight_range}")
        if self.fitness_stagnation_patience < 1:
            raise ValueError("fitness_stagnation_patience must be >= 1")

    def resolved_mutation_rate(self, n_genes: int) -> float:
        return self.mutation_rate if self.mutation_rate is not None else 1.0 / n_genes

    def to_dict(self) -> dict:
        return {
            "population_size": self.population_size,
            "generations": self.generations,
            "tournament_size": self.tournament_size,
            "crossover_rate": self.crossover_rate,
            "blx_alpha": self.blx_alpha,
            "mutation_rate": self.mutation_rate,
            "mutation_sigma_initial": self.mutation_sigma_initial,
            "sigma_decay": self.sigma_decay,
            "elitism_count": self.elitism_count,
            "init_weight_range": list(self.init_weight_range),
            "seed": self.seed,
            "fitness_stagnation_patience": self.fitness_stagnation_patience,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GaConfig":
        kwargs = dict(d)
        if "init_weight_range" in kwargs:
            lo, hi = kwargs["init_weight_range"]
            kwargs["init_weight_range"] = (float(lo), float(hi))
        return cls(**kwargs)

    def with_seed(self, seed: int) -> "GaConfig":
        return replace(self, seed=seed)


def encode(model: WtaModel) -> np.ndarray:
    """Flatten all weights: v rows of units 0..M-1, then the w rows."""
    return np.concatenate(
        [model.excitatory.ravel(), model.inhibitory.ravel()]
    )


def decode(genes, shape: ModelShape) -> WtaModel:
    """Inverse of :func:`encode` for the given shape."""
    genes = np.asarray(genes, dtype=np.float64)
    if genes.ndim != 1 or genes.size != shape.n_genes:
        raise ValueError(
            f"chromosome length mismatch: expected {shape.n_genes}, "
            f"got {genes.size}"
        )
    m = shape.pattern_dim
    half = shape.n_units * m
    return WtaModel(
        shape.spec,
        genes[:half].reshape(shape.n_units, m),
        genes[half:].reshape(shape.n_units, m),
        mode=shape.mode,
        output_activation=shape.output_activation,
        class_of_unit=shape.class_of_unit,
    )


class FitnessEvaluator:
    """Pure fitness function over a fixed dataset and model shape.

    The expanded design matrix is precomputed once; each call scores a
    chromosome with two matrix products and a row-wise argmax.  Returns
    -MSE for regression, -(error rate) for classification; a non-finite
    output (classification: any non-finite excitation) yields the
    worst-fitness sentinel instead of raising.
    """

    def __init__(self, dataset: Dataset, shape: ModelShape):
        if dataset.mode != shape.mode:
            raise ValueError(
                f"dataset mode {dataset.mode!r} does not match shape mode "
                f"{shape.mode!r}"
            )
        if dataset.n_features != shape.spec.input_dim:
            raise ValueError(
                f"dataset has {dataset.n_features} features, expansion expects "
                f"{shape.spec.input_dim}"
            )
        self.shape = shape
        self.design = expand_batch(shape.spec, dataset.inputs)
        self.targets = dataset.targets
        if shape.mode == CLASSIFICATION:
            classes = np.asarray(shape.class_of_unit, dtype=np.int64)
            missing = set(np.unique(dataset.targets)) - set(classes.tolist())
            if missing:
                raise ValueError(
                    f"classes {sorted(missing)} in the data are carried by no unit"
                )
            self._unit_classes = classes
        self._rows = np.arange(dataset.n_samples)

    def __call__(self, genes) -> float:
        genes = np.asarray(genes, dtype=np.float64)
        if genes.size != self.shape.n_genes:
            raise ValueError(
                f"chromosome length mismatch: expected {self.shape.n_genes}, "
                f"got {genes.size}"
            )
        m = self.shape.pattern_dim
        half = self.shape.n_units * m
        v = genes[:half].reshape(self.shape.n_units, m)
        w = genes[half:].reshape(self.shape.n_units, m)
        # overflow to inf is tolerated here and mapped to the worst-fitness
        # sentinel instead of raising
        with np.errstate(over="ignore", invalid="ignore"):
            excitation = self.design @ v.T
            winners = np.argmax(excitation, axis=1)
            if self.shape.mode == CLASSIFICATION:
                if not np.isfinite(excitation).all():
                    return WORST_FITNESS
                predicted = self._unit_classes[winners]
                return -float(np.mean(predicted != self.targets))
            inhibition = self.design @ w.T
            responses = (
                excitation[self._rows, winners] - inhibition[self._rows, winners]
            )
            outputs = apply_activation(self.shape.output_activation, responses)
        if not np.all(np.isfinite(outputs)):
            return WORST_FITNESS
        err = outputs - self.targets
        return -float(np.mean(err * err))


def _evaluate_population(population, evaluator) -> np.ndarray:
    return np.array([evaluator(genes) for genes in population], dtype=np.float64)


def _ranked_indices(fits: np.ndarray) -> np.ndarray:
    # stable sort on -fitness: equal fitness ranks by smaller index
    return np.argsort(-fits, kind="stable")


def _tournament(fits: np.ndarray, rng: np.random.Generator, size: int) -> int:
    contestants = rng.integers(0, fits.size, size=size)
    return int(contestants[np.argmax(fits[contestants])])


def _make_offspring(population: np.ndarray, fits: np.ndarray,
                    config: GaConfig, rng: np.random.Generator,
                    sigma: float) -> np.ndarray:
    n_genes = population.shape[1]
    p1 = _tournament(fits, rng, config.tournament_size)
    p2 = _tournament(fits, rng, config.tournament_size)
    if rng.random() < config.crossover_rate:
        g1, g2 = population[p1], population[p2]
        lo = np.minimum(g1, g2)
        hi = np.maximum(g1, g2)
        span = hi - lo
        u = rng.random(n_genes)
        child = lo - config.blx_alpha * span + u * (1.0 + 2.0 * config.blx_alpha) * span
    else:
        better = p1 if fits[p1] >= fits[p2] else p2
        child = population[better].copy()
    rate = config.resolved_mutation_rate(n_genes)
    mask = rng.random(n_genes) < rate
    n_mut = int(mask.sum())
    if n_mut:
        child[mask] += sigma * rng.standard_normal(n_mut)
    return child


def _next_population(population: np.ndarray, fits: np.ndarray,
                     config: GaConfig, rng: np.random.Generator,
                     sigma: float) -> np.ndarray:
    order = _ranked_indices(fits)
    next_pop = np.empty_like(population)
    elites = config.elitism_count
    next_pop[:elites] = population[order[:elites]]
    for slot in range(elites, config.population_size):
        next_pop[slot] = _make_offspring(population, fits, config, rng, sigma)
    return next_pop


def evolve_generation(population, evaluator, config: GaConfig,
                      rng: np.random.Generator, *,
                      sigma: float | None = None) -> np.ndarray:
    """Produce the next generation from the current one.

    ``evaluator`` is any callable mapping a chromosome to a fitness
    (typically a :class:`FitnessEvaluator`).  ``sigma`` is the current
    mutation scale; it defaults to the configured initial value.
    """
    population = np.asarray(population, dtype=np.float64)
    if population.ndim != 2 or population.shape[0] != config.population_size:
        raise ValueError(
            f"population must have shape ({config.population_size}, n_genes), "
            f"got {population.shape}"
        )
    if sigma is None:
        sigma = config.mutation_sigma_initial
    fits = _evaluate_population(population, evaluator)
    return _next_population(population, fits, config, rng, sigma)


@dataclass
class TrainTrace:
    """Per-generation statistics plus the best model found.

    ``best_fitness`` is non-decreasing (elites are carried unchanged).
    """

    best_fitness: list[float]
    mean_fitness: list[float]
    best_genes: np.ndarray
    best_fitness_value: float
    best_generation: int
    model: WtaModel
    seed: int
    wall_time_s: float
    generations_run: int
    stopped_early: bool
    snapshots: list[tuple[int, np.ndarray]] = field(default_factory=list)


def train(shape: ModelShape, dataset: Dataset, config: GaConfig,
          *, snapshot_every: int = 0) -> TrainTrace:
    """Evolve a population of chromosomes against the training data.

    Runs for ``config.generations`` generations or until the best-ever
    fitness has not strictly improved for
    ``config.fitness_stagnation_patience`` consecutive generations.
    The whole run is a pure function of (shape, dataset, config); with
    ``generations=0`` it returns the best member of the random initial
    population with an empty trace.

    Args:
        shape: model shape to optimize.
        dataset: training portion (splitting happens upstream).
        config: GA hyperparameters including the seed.
        snapshot_every: record the best chromosome every this many
            generations (0 disables snapshots).

    Returns:
        A :class:`TrainTrace` with the decoded best-ever model.
    """
    t0 = time.perf_counter()
    evaluator = FitnessEvaluator(dataset, shape)
    rng = np.random.default_rng(config.seed)
    lo, hi = config.init_weight_range
    population = rng.uniform(lo, hi, size=(config.population_size, shape.n_genes))

    fits = _evaluate_population(population, evaluator)
    best_idx = int(np.argmax(fits))
    best_value = float(fits[best_idx])
    best_genes = population[best_idx].copy()
    best_generation = -1  # found in the initial population

    best_trace: list[float] = []
    mean_trace: list[float] = []
    snapshots: list[tuple[int, np.ndarray]] = []
    stalled = 0
    stopped_early = False
    generations_run = 0
    sigma = config.mutation_sigma_initial

    for gen in range(config.generations):
        population = _next_population(population, fits, config, rng, sigma)
        sigma *= config.sigma_decay
        fits = _evaluate_population(population, evaluator)
        generations_run = gen + 1

        gen_best = int(np.argmax(fits))
        best_trace.append(float(fits[gen_best]))
        mean_trace.append(float(np.mean(fits)))
        if fits[gen_best] > best_value:
            best_value = float(fits[gen_best])
            best_genes = population[gen_best].copy()
            best_generation = gen
            stalled = 0
        else:
            stalled += 1
        if snapshot_every and (gen + 1) % snapshot_every == 0:
            snapshots.append((gen, best_genes.copy()))
        if stalled >= config.fitness_stagnation_patience:
            stopped_early = True
            break

    return TrainTrace(
        best_fitness=best_trace,
        mean_fitness=mean_trace,
        best_genes=best_genes,
        best_fitness_value=best_value,
        best_generation=best_generation,
        model=decode(best_genes, shape),
        seed=config.seed,
        wall_time_s=time.perf_counter() - t0,
        generations_run=generations_run,
        stopped_early=stopped_early,
        snapshots=snapshots,
    )


def trace_to_csv(trace: TrainTrace, path) -> None:
    """Write the per-generation trace as ``generation,best,mean`` CSV."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("generation,best,mean\n")
        for gen, (best, mean) in enumerate(
            zip(trace.best_fitness, trace.mean_fitness)
        ):
            fh.write(f"{gen},{best!r},{mean!r}\n")
