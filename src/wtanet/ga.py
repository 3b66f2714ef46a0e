"""Real-coded genetic algorithm over the full model weight set.

A chromosome is a flat float64 vector holding every excitatory row and
then every inhibitory row, unit-major, so ``decode(encode(model))``
reproduces the model bit-exactly.  One generation copies the elites
unchanged and fills the remainder with tournament-selected parents,
BLX-alpha crossover and per-gene Gaussian mutation with a decaying
sigma.

A training run is a pure function of (shape, dataset, config, seed);
the seed is an argument of :func:`train`, not a field of the config.
Random draws come from a single seeded PCG64 generator in a fixed,
generation-major order.  With C offspring slots and G genes, each
generation makes five draws: the contestants of every child's two
tournaments as one (C, 2, tournament_size) integer array, C crossover
coins, a (C, G) array of mutation coins, a (C, G) array of BLX uniforms
(drawn for every child, used only where crossover fires), and one
standard normal per mutated gene in row-major order.  Fitness
evaluation consumes no randomness.

Tournaments, crossover and mutation run as whole-array operations.
Fitness is scored in population blocks, and a chromosome whose fitness
is already known (an elite, or an unmutated child equal to a parent) is
not scored again.  A block holds as many chromosomes as keep its
product, an (M*block, m) by (m, N) GEMM, at or under 10^6 multiply-adds,
and at least one.  Past that size OpenBLAS (0.3.31, measured on two
cores) leaves its small-matrix kernel for packed GEMM, which is slower
at these skinny shapes and rounds some fitness values differently.
Its rows go unit first, then chromosome, so each unit's activations
over a block are one contiguous run, and the winner's inhibition is
gathered at winner * block * N + np.arange(block * N).  Each worker
writes its blocks' products into one buffer of its own, made with the
evaluator and reused by every block: fresh products per block fault in
every page they touch.

Where this process may run on two CPUs or more and each block's
elementwise passes cover at least 20,000 elements (block * N),
:func:`train` makes one helper thread for that training and shuts it
down when the training returns or raises.  The helper scores blocks 1,
3, 5, ... of a call of two blocks or more while the calling thread
scores blocks 0, 2, 4, ...; numpy releases the GIL inside each pass.
Timed on two cores, trainings at the c08 shape (4 x 7000 a pass) and at
N of 12,000 to 20,000 gained, while c07's (11 x 1047) and serving's
set-up training (23 x 700) lost to the hand-off.  A chromosome's
fitness does not depend on its block or on the thread that scores it.

Reruns are bit-identical, on one BLAS thread or several and on one CPU
or two.  Byte identity with older versions is not promised: the draw
order changed from member-major to generation-major, and the block
product may round differently.
"""

from __future__ import annotations

import os
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .data import CLASSIFICATION, Dataset
from .expansion import expand_batch
from .model import ModelShape, WtaModel, apply_activation

WORST_FITNESS = float("-inf")  # sentinel for non-finite predictions

# the most multiply-adds one block's fitness product may make (see the
# module docstring): 4 chromosomes a block at the c08 shape, 11 at c07's
_BLOCK_MULTIPLY_ADDS = 10**6

# the fewest elements, block * N, in one pass of a block for which a
# training makes a helper (see the module docstring)
_HELPER_MIN_PASS = 20_000


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
        if not (lo < hi and np.isfinite(hi - lo)):  # rng.uniform refuses an infinite width
            raise ValueError("init_weight_range must be (lo, hi) with lo < hi and a finite "
                             f"hi - lo, got {self.init_weight_range}")
        if self.fitness_stagnation_patience < 1:
            raise ValueError("fitness_stagnation_patience must be >= 1")

    def resolved_mutation_rate(self, n_genes: int) -> float:
        return self.mutation_rate if self.mutation_rate is not None else 1.0 / n_genes


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
    return WtaModel(shape, *genes.reshape(2, shape.n_units, shape.pattern_dim))


class FitnessEvaluator:
    """Pure fitness function over a fixed dataset and model shape.

    The expanded design matrix is precomputed once, transposed to
    (m, N).  A call scores a (P, n_genes) population and returns its P
    fitness values; any other shape is an error, so a single chromosome
    is scored as a one-row population.  Chromosomes are scored in
    blocks, with one matrix product per block and weight set, and the
    winner is the unit with the largest excitation, ties to the smallest
    index.  Winners are held as the smallest unsigned code that fits the
    unit count (one byte up to 256 units), and the index that gathers
    the winner's inhibition is computed in intp.  Returns -MSE for
    regression, -(error rate) for classification; a non-finite output
    (classification: any non-finite excitation) yields the worst-fitness
    sentinel instead of raising.

    A call scores serially unless it is handed ``helper``, an executor
    with one worker (:func:`train` makes it); then a call with two
    blocks or more hands blocks 1, 3, 5, ... to it and scores blocks 0,
    2, 4, ... itself, and returns, or raises, only once the helper is
    done.  Each worker has its own (M*block, N) product buffer, made with
    the evaluator, and both read the gather offsets; a block writes the
    leading rows of its worker's buffer, and a page no block writes is
    never touched.  One call at a time: an evaluator is not safe to call
    from two threads at once.
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
        # (m, N) and C-contiguous: the GEMM then reads it without a transpose
        self._design_t = np.ascontiguousarray(
            expand_batch(shape.spec, dataset.inputs).T
        )
        self.targets = dataset.targets
        if shape.mode == CLASSIFICATION:
            classes = np.asarray(shape.class_of_unit, dtype=np.int64)
            missing = set(np.unique(dataset.targets).tolist()) - set(classes.tolist())
            if missing:
                raise ValueError(
                    f"classes {sorted(missing)} in the data are carried by no unit"
                )
            self._unit_classes = classes
        # the smallest unsigned type that holds every unit index
        self._code = np.min_scalar_type(shape.n_units - 1).type
        n = dataset.n_samples
        self._block = max(1, _BLOCK_MULTIPLY_ADDS // (shape.n_units * shape.pattern_dim * n))
        # a block's product buffer per worker (0: the calling thread, 1: the helper)
        self._products = [np.empty((self._block * shape.n_units, n)) for _ in range(2)]
        if shape.mode != CLASSIFICATION:
            # flat index of unit 0's activation per (chromosome, sample) in the
            # (M, block, N) product; the winner's sits winner * block * N on
            self._offsets = np.arange(self._block * n).reshape(self._block, n)

    def __call__(self, population, helper=None) -> np.ndarray:
        population = np.asarray(population, dtype=np.float64)
        if population.ndim != 2 or population.shape[1] != self.shape.n_genes:
            raise ValueError(f"expected a (P, {self.shape.n_genes}) population, "
                             f"got shape {population.shape}")
        fits = np.empty(len(population))
        starts = range(0, len(population), self._block)
        if helper is None or len(starts) < 2:
            self._score_blocks(population, fits, starts, 0)
        else:
            future = helper.submit(self._score_blocks, population, fits, starts[1::2], 1)
            try:
                self._score_blocks(population, fits, starts[::2], 0)
            finally:
                # the helper writes fits and its buffers until it is done;
                # exception() waits for that, result() raises its error
                future.exception()
            future.result()
        return fits

    def _score_blocks(self, population: np.ndarray, fits: np.ndarray, starts,
                      worker: int) -> None:
        """Score the blocks of ``population`` that begin at ``starts`` into ``fits``."""
        # overflow to inf is tolerated here and mapped to the worst-fitness
        # sentinel instead of raising; errstate is per thread, so each
        # worker enters its own
        with np.errstate(over="ignore", invalid="ignore"):
            for start in starts:
                stop = start + self._block
                fits[start:stop] = self._score_block(population[start:stop], worker)

    def _score_block(self, genes: np.ndarray, worker: int) -> np.ndarray:
        n_units = self.shape.n_units
        n_samples = self._design_t.shape[1]
        half = n_units * self.shape.pattern_dim
        product = self._products[worker]
        excitation = self._activations(genes[:, :half], product)
        top = excitation[0]
        winner = np.zeros(top.shape, dtype=self._code)
        for j in range(1, n_units):
            # strict, so ties stay with the lower index; arithmetic in place
            # of np.where, whose branches mispredict on mixed winners and
            # made the cost depend on the population; the mask times a code,
            # not an int, stays one byte a sample instead of eight
            winner = np.maximum(winner, (excitation[j] > top) * self._code(j))
            # a NaN excitation propagates into top, as argmax would pick it
            top = np.maximum(top, excitation[j])
        if self.shape.mode == CLASSIFICATION:
            finite = np.isfinite(excitation).all(axis=(0, 2))
            # np.count_nonzero's own sum, without its wrapper
            wrong = np.add.reduce(self._unit_classes.take(winner) != self.targets,
                                  axis=1, dtype=np.intp) / n_samples
            return np.where(finite, -wrong, WORST_FITNESS)
        if n_units == 1:
            top = top.copy()  # a view of the product, which the next GEMM overwrites
        # top and the winners are all that is left of the excitation
        inhibition = self._activations(genes[:, half:], product).reshape(-1)
        # intp before the product: numpy 1.x value-based casting would keep
        # a small code times block * N in 16 bits, which wraps past 65,535
        index = np.multiply(winner, top.size, dtype=np.intp)
        index += self._offsets[:len(genes)]
        err = apply_activation(self.shape.output_activation, top - inhibition[index])
        err -= self.targets
        err *= err
        # the pairwise sum and the division of np.mean, without its wrapper;
        # a non-finite output, or a finite one whose square overflows, makes
        # mse non-finite (+inf, so -mse is the sentinel, or NaN)
        mse = np.add.reduce(err, axis=1) / n_samples
        return np.where(np.isfinite(mse), -mse, WORST_FITNESS)

    def _activations(self, weights: np.ndarray, buf: np.ndarray) -> np.ndarray:
        """(M, block, N) activations of the units' weight rows over the design.

        One GEMM of the (M*block, m) rows, stacked unit first, then
        chromosome, into the leading rows of ``buf``, a worker's product
        buffer; the result is a view of it, valid until ``buf`` is
        written again.  Unit j's activations of the block fill
        [j * block * N, (j + 1) * block * N) of it, flat.  Excitatory
        and inhibitory rows go in separate products, one after the other
        into the same buffer: classification needs only the first, and
        with one product of both the Mackey-Glass shape (m=21) no longer
        reproduced the trajectories of the per-chromosome kernel bit for
        bit.
        """
        n_chromosomes, n_units = weights.shape[0], self.shape.n_units
        rows = weights.reshape(n_chromosomes, n_units, -1).transpose(1, 0, 2)
        rows = np.ascontiguousarray(rows).reshape(-1, self.shape.pattern_dim)
        out = np.matmul(rows, self._design_t, out=buf[:len(rows)])
        return out.reshape(n_units, n_chromosomes, -1)


def _next_population(population: np.ndarray, fits: np.ndarray,
                     config: GaConfig, rng: np.random.Generator,
                     sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """The next generation and the fitness already known for each slot.

    A generation makes five whole-array draws, in the order of the
    stream contract: every child's two tournaments, the crossover
    coins, the mutation coins, the BLX uniforms (drawn for every child,
    used for the crossed ones) and one standard normal per mutated gene
    in row-major order.  A slot's fitness is known when it holds an
    elite, or a child with no mutated gene that equals a parent: a copy
    of the better parent (an uncrossed child, so not compared), or the
    blend of two equal parents.  Every other slot reads NaN (a fitness
    is never NaN) and must be scored.
    """
    size, n_genes = population.shape
    elites = config.elitism_count
    n_children = config.population_size - elites
    rate = config.resolved_mutation_rate(n_genes)
    contestants = rng.integers(0, size, (n_children, 2, config.tournament_size), np.int64)
    crossed = rng.random(n_children) < config.crossover_rate
    mutated = rng.random((n_children, n_genes)) < rate
    blend = rng.random((n_children, n_genes))
    mutated_at = mutated.reshape(-1).nonzero()[0]
    normals = rng.standard_normal(mutated_at.size)

    # each tournament goes to its first contestant of highest fitness
    picks = np.argmax(fits[contestants], axis=2).ravel()
    picks += np.arange(0, contestants.size, config.tournament_size)
    p1, p2 = contestants.ravel()[picks].reshape(n_children, 2).T
    better = np.where(fits[p1] >= fits[p2], p1, p2)

    # elites, then children, in one array ("wrap": take without the
    # buffering of its bounds check; every index is in range)
    order = np.argsort(-fits, kind="stable")  # equal fitness: smaller index first
    next_population = np.empty((config.population_size, n_genes))
    population.take(order[:elites], axis=0, out=next_population[:elites], mode="wrap")
    children = next_population[elites:]
    population.take(better, axis=0, out=children, mode="wrap")
    # BLX-alpha in place on the crossed rows: (lo - alpha*span) + (u*(1 + 2 alpha))*span
    cross = np.flatnonzero(crossed)
    g1, g2 = population[p1[cross]], population[p2[cross]]
    lo = np.minimum(g1, g2)
    span = np.maximum(g1, g2) - lo
    u = blend[cross] * (1.0 + 2.0 * config.blx_alpha)
    u *= span
    span *= config.blx_alpha
    lo -= span
    lo += u
    children[cross] = lo
    children.reshape(-1)[mutated_at] += sigma * normals

    known = np.full(config.population_size, np.nan)
    known[:elites] = fits[order[:elites]]
    same = ~mutated.any(axis=1)
    same[cross] &= (lo == g1).all(axis=1)  # lo: the crossed children before mutation
    parent = np.where(crossed, p1, better)
    known[elites:][same] = fits[parent[same]]
    return next_population, known


@dataclass
class TrainTrace:
    """Per-generation statistics plus the best model found.

    ``best_fitness`` is non-decreasing: elites are carried unchanged,
    with their fitness.
    """

    best_fitness: list[float]
    mean_fitness: list[float]
    best_fitness_value: float
    best_generation: int
    model: WtaModel
    stopped_early: bool

    @property
    def generations_run(self) -> int:
        return len(self.best_fitness)


def train(shape: ModelShape, dataset: Dataset, config: GaConfig,
          seed: int) -> TrainTrace:
    """Evolve a population of chromosomes against the training data.

    Runs for ``config.generations`` generations or until the best-ever
    fitness has not strictly improved for
    ``config.fitness_stagnation_patience`` consecutive generations.
    The whole run is a pure function of (shape, dataset, config, seed);
    with ``generations=0`` it returns the best member of the random
    initial population with an empty trace.

    Args:
        shape: model shape to optimize.
        dataset: training portion (splitting happens upstream).
        config: GA hyperparameters.
        seed: seed of the run's one PCG64 generator.

    Returns:
        A :class:`TrainTrace` with the decoded best-ever model.

    Raises:
        ValueError: when no chromosome had a finite fitness.
    """
    evaluator = FitnessEvaluator(dataset, shape)
    helper = None
    if evaluator._block * dataset.n_samples >= _HELPER_MIN_PASS:
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
        if cpus >= 2:
            # imported here, so that importing wtanet does not load it
            from concurrent.futures import ThreadPoolExecutor
            helper = ThreadPoolExecutor(1, thread_name_prefix="wtanet-fitness")
    rng = np.random.default_rng(seed)
    lo, hi = config.init_weight_range
    population = rng.uniform(lo, hi, size=(config.population_size, shape.n_genes))

    with helper or nullcontext():  # leaving shuts the helper down, on return or raise
        fits = evaluator(population, helper=helper)
        best_idx = int(np.argmax(fits))
        best_value = float(fits[best_idx])
        best_chromosome = population[best_idx].copy()
        best_generation = -1  # found in the initial population

        best_trace: list[float] = []
        mean_trace: list[float] = []
        stalled = 0
        stopped_early = False
        sigma = config.mutation_sigma_initial

        for gen in range(config.generations):
            population, fits = _next_population(population, fits, config, rng, sigma)
            sigma *= config.sigma_decay
            unknown = np.isnan(fits)
            if unknown.any():
                fits[unknown] = evaluator(population[unknown], helper=helper)

            gen_best = int(np.argmax(fits))
            best_trace.append(float(fits[gen_best]))
            mean_trace.append(float(np.mean(fits)))
            if fits[gen_best] > best_value:
                best_value = float(fits[gen_best])
                best_chromosome = population[gen_best].copy()
                best_generation = gen
                stalled = 0
            else:
                stalled += 1
            if stalled >= config.fitness_stagnation_patience:
                stopped_early = True
                break

    if best_value == WORST_FITNESS:
        raise ValueError("no chromosome has a finite fitness on the training data")
    return TrainTrace(
        best_fitness=best_trace,
        mean_fitness=mean_trace,
        best_fitness_value=best_value,
        best_generation=best_generation,
        model=decode(best_chromosome, shape),
        stopped_early=stopped_early,
    )


def trace_to_csv(trace: TrainTrace, path) -> None:
    """Write the per-generation trace as ``generation,best,mean`` CSV."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("generation,best,mean\n")
        for gen, (best, mean) in enumerate(
            zip(trace.best_fitness, trace.mean_fitness)
        ):
            fh.write(f"{gen},{best!r},{mean!r}\n")
