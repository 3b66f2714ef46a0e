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
product, a (block*M, m) by (m, N) GEMM, at or under 10^6 multiply-adds,
and at least one.  Past that size OpenBLAS (0.3.31, measured on two
cores) leaves its small-matrix kernel for packed GEMM, which is slower
at these skinny shapes and rounds some fitness values differently.
Each worker writes its blocks' products into one buffer of its own,
allocated on first use and reused by every later block: fresh products
per block fault in every page they touch.

Where this process may run on two CPUs or more, one helper thread
scores blocks 1, 3, 5, ... of a call while the calling thread scores
blocks 0, 2, 4, ...; numpy releases the GIL inside each pass.  It does
so only when a call has two blocks or more and each block's
elementwise passes cover at least 20,000 elements (block * N).  Timed
on two cores, trainings at the c08 shape (4 x 7000 a pass) and at N of
12,000 to 20,000 gained, while c07's (11 x 1047) and serving's set-up
training (23 x 700) lost to the hand-off.  A chromosome's fitness does
not depend on its block or on the thread that scores it.

Reruns are bit-identical, on one BLAS thread or several and on one CPU
or two.  Trajectories, model files and traces equal those of the
one-byte winner codes before the multiply-add block rule, and theirs
equal those of the intp winners before them; byte identity with older
versions is not promised: the draw order changed from member-major to
generation-major, and the block product may round differently.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from .data import CLASSIFICATION, Dataset
from .expansion import expand_batch
from .model import ModelShape, WtaModel, apply_activation

WORST_FITNESS = float("-inf")  # sentinel for non-finite predictions

# the most multiply-adds one block's fitness product may make (see the
# module docstring): 4 chromosomes a block at the c08 shape, 11 at c07's
_BLOCK_MULTIPLY_ADDS = 10**6

# the fewest elements, block * N, in one pass of a block for which a call
# hands every other block to the helper (see the module docstring)
_HELPER_MIN_PASS = 20_000


def _make_helper() -> None:
    """Set ``_HELPER``: one worker thread, started on first use; none on one CPU.

    Run again in a forked child, which inherits the executor but not its
    thread, and would queue blocks that no thread ever scores.
    """
    global _HELPER
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    _HELPER = ThreadPoolExecutor(1, thread_name_prefix="wtanet-fitness") if cpus >= 2 else None


_HELPER: ThreadPoolExecutor | None = None
_make_helper()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_make_helper)


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
        if not lo < hi:
            raise ValueError(f"init_weight_range must be (lo, hi) with lo < hi, got {self.init_weight_range}")
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
    (m, N).  A call scores chromosomes of shape ``(..., n_genes)`` and
    returns fitness of shape ``(...)``; a single 1-D chromosome gets a
    Python float.  Chromosomes are scored in blocks, with one matrix
    product per block and weight set, and the winner is the unit with
    the largest excitation, ties to the smallest index.  Winners are
    held as the smallest unsigned code that fits the unit count (one
    byte up to 256 units), and the index that gathers the winner's
    inhibition is computed in intp.  Returns -MSE for regression,
    -(error rate) for classification; a non-finite output
    (classification: any non-finite excitation) yields the
    worst-fitness sentinel instead of raising.

    A call with two blocks or more whose passes cover at least
    ``_HELPER_MIN_PASS`` elements (block * N) hands blocks 1, 3, 5, ...
    to the module's helper thread, where there is one, and scores
    blocks 0, 2, 4, ... itself; it returns, or raises, only once the
    helper is done.  Each of the two workers has its own product buffer
    and gather offsets, sized by the largest block it has scored, so
    the helper's exist only where it has run.  One call at a time: an
    evaluator is not safe to call from two threads at once.
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
            missing = set(np.unique(dataset.targets)) - set(classes.tolist())
            if missing:
                raise ValueError(
                    f"classes {sorted(missing)} in the data are carried by no unit"
                )
            self._unit_classes = classes
        # the smallest unsigned type that holds every unit index
        self._code = np.min_scalar_type(shape.n_units - 1).type
        self._block = max(1, _BLOCK_MULTIPLY_ADDS
                          // (shape.n_units * shape.pattern_dim * dataset.n_samples))
        # per worker (0: the calling thread, 1: the helper): the chromosomes
        # its buffers hold, its product buffer and its gather offsets
        self._spaces = [(0, None, None), (0, None, None)]

    def __call__(self, genes):
        genes = np.asarray(genes, dtype=np.float64)
        n_genes = self.shape.n_genes
        if genes.shape[-1:] != (n_genes,):
            raise ValueError(
                f"chromosome length mismatch: expected {n_genes}, "
                f"got shape {genes.shape}"
            )
        flat = genes.reshape(-1, n_genes)
        fits = np.empty(flat.shape[0])
        starts = range(0, flat.shape[0], self._block)
        helper = _HELPER
        if (helper is None or len(starts) < 2
                or self._block * self._design_t.shape[1] < _HELPER_MIN_PASS):
            self._score_blocks(flat, fits, starts, 0)
        else:
            future = helper.submit(self._score_blocks, flat, fits, starts[1::2], 1)
            try:
                self._score_blocks(flat, fits, starts[::2], 0)
            finally:
                # the helper writes fits and its buffers until it is done
                wait((future,))
            future.result()
        if genes.ndim == 1:
            return float(fits[0])
        return fits.reshape(genes.shape[:-1])

    def _score_blocks(self, flat: np.ndarray, fits: np.ndarray, starts,
                      worker: int) -> None:
        """Score the blocks of ``flat`` that begin at ``starts`` into ``fits``."""
        # overflow to inf is tolerated here and mapped to the worst-fitness
        # sentinel instead of raising; errstate is per thread, so each
        # worker enters its own
        with np.errstate(over="ignore", invalid="ignore"):
            for start in starts:
                stop = start + self._block
                fits[start:stop] = self._score_block(flat[start:stop], worker)

    def _workspace(self, worker: int, rows: int):
        """``worker``'s product buffer and gather offsets for ``rows`` chromosomes.

        Allocated when a block first needs them and grown when a later
        block has more rows, so a worker that never runs holds nothing.
        """
        capacity, product, offsets = self._spaces[worker]
        if capacity < rows:
            n_units, n = self.shape.n_units, self._design_t.shape[1]
            product = np.empty((rows * n_units, n))
            if self.shape.mode != CLASSIFICATION:
                # flat index of unit 0's activation per (chromosome, sample)
                # in a (rows, M, N) array; the winner's sits winner * N on
                offsets = np.arange(rows)[:, np.newaxis] * (n_units * n) + np.arange(n)
            self._spaces[worker] = (rows, product, offsets)
        return product, offsets

    def _score_block(self, genes: np.ndarray, worker: int) -> np.ndarray:
        n_units = self.shape.n_units
        n_samples = self._design_t.shape[1]
        half = n_units * self.shape.pattern_dim
        product, offsets = self._workspace(worker, len(genes))
        excitation = self._activations(genes[:, :half], product)
        top = excitation[:, 0]
        winner = np.zeros(top.shape, dtype=self._code)
        for j in range(1, n_units):
            # strict, so ties stay with the lower index; arithmetic in place
            # of np.where, whose branches mispredict on mixed winners and
            # made the cost depend on the population; the mask times a code,
            # not an int, stays one byte a sample instead of eight
            winner = np.maximum(winner, (excitation[:, j] > top) * self._code(j))
            # a NaN excitation propagates into top, as argmax would pick it
            top = np.maximum(top, excitation[:, j])
        if self.shape.mode == CLASSIFICATION:
            finite = np.isfinite(excitation).all(axis=(1, 2))
            wrong = np.count_nonzero(
                self._unit_classes[winner] != self.targets, axis=1
            ) / n_samples
            return np.where(finite, -wrong, WORST_FITNESS)
        if n_units == 1:
            top = top.copy()  # a view of the product, which the next GEMM overwrites
        # top and the winners are all that is left of the excitation
        inhibition = self._activations(genes[:, half:], product).reshape(-1)
        # intp before the product: numpy 1.x value-based casting would keep
        # a small code times N in 16 bits, which wraps past 65,535
        index = np.multiply(winner, n_samples, dtype=np.intp)
        index += offsets[:len(genes)]
        err = apply_activation(self.shape.output_activation, top - inhibition[index])
        err -= self.targets
        err *= err
        # the pairwise sum and the division of np.mean, without its wrapper;
        # a non-finite output, or a finite one whose square overflows, makes
        # mse non-finite (+inf, so -mse is the sentinel, or NaN)
        mse = np.add.reduce(err, axis=1) / n_samples
        return np.where(np.isfinite(mse), -mse, WORST_FITNESS)

    def _activations(self, weights: np.ndarray, buf: np.ndarray) -> np.ndarray:
        """(block, M, N) activations of the units' weight rows over the design.

        One GEMM of the stacked (block*M, m) rows into the leading rows
        of ``buf``, a worker's product buffer; the result is a view of
        it, valid until ``buf`` is written again.  A full block's GEMM
        makes at most 10^6 multiply-adds, within OpenBLAS's small-matrix
        kernel (see the module docstring for why).  Excitatory and
        inhibitory rows go in separate products, one after the other
        into the same buffer: classification needs only the first, and
        with one product of both the Mackey-Glass shape (m=21) no longer
        reproduced the trajectories of the per-chromosome kernel bit for
        bit.
        """
        n_chromosomes = weights.shape[0]
        rows = np.ascontiguousarray(weights).reshape(-1, self.shape.pattern_dim)
        out = np.matmul(rows, self._design_t, out=buf[:len(rows)])
        return out.reshape(n_chromosomes, self.shape.n_units, -1)


def _ranked_indices(fits: np.ndarray) -> np.ndarray:
    # stable sort on -fitness: equal fitness ranks by smaller index
    return np.argsort(-fits, kind="stable")


def _next_population(population: np.ndarray, fits: np.ndarray,
                     config: GaConfig, rng: np.random.Generator,
                     sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """The next generation and the fitness already known for each slot.

    A generation makes five whole-array draws, in the order of the
    stream contract: every child's two tournaments, the crossover
    coins, the mutation coins, the BLX uniforms (drawn for every child,
    used for the crossed ones) and one standard normal per mutated gene
    in row-major order.  A slot's fitness is known when it holds an
    elite, or a child with no mutated gene that equals a parent: a
    clone of the better parent, or the blend of two equal parents.
    Every other slot reads NaN (a fitness is never NaN) and must be
    scored.
    """
    size, n_genes = population.shape
    elites = config.elitism_count
    n_children = config.population_size - elites
    rate = config.resolved_mutation_rate(n_genes)
    contestants = rng.integers(
        0, size, (n_children, 2, config.tournament_size), np.int64
    )
    crossed = rng.random(n_children) < config.crossover_rate
    mutated = rng.random((n_children, n_genes)) < rate
    blend = rng.random((n_children, n_genes))
    normals = rng.standard_normal(np.count_nonzero(mutated))

    # each tournament goes to its first contestant of highest fitness
    picks = np.argmax(fits[contestants], axis=2)[..., np.newaxis]
    p1, p2 = np.take_along_axis(contestants, picks, axis=2)[..., 0].T
    better = np.where(fits[p1] >= fits[p2], p1, p2)
    children = population[better]
    g1, g2 = population[p1[crossed]], population[p2[crossed]]
    lo = np.minimum(g1, g2)
    span = np.maximum(g1, g2) - lo
    children[crossed] = (
        lo - config.blx_alpha * span
        + blend[crossed] * (1.0 + 2.0 * config.blx_alpha) * span
    )
    children[mutated] += sigma * normals

    order = _ranked_indices(fits)
    known = np.full(size, np.nan)
    known[:elites] = fits[order[:elites]]
    parent = np.where(crossed, p1, better)
    same = ~mutated.any(axis=1) & (children == population[parent]).all(axis=1)
    known[elites:][same] = fits[parent[same]]
    return np.concatenate([population[order[:elites]], children]), known


@dataclass
class TrainTrace:
    """Per-generation statistics plus the best model found.

    ``best_fitness`` is non-decreasing: elites are carried unchanged,
    with their fitness.
    """

    best_fitness: list[float]
    mean_fitness: list[float]
    best_genes: np.ndarray
    best_fitness_value: float
    best_generation: int
    model: WtaModel
    generations_run: int
    stopped_early: bool


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
    """
    evaluator = FitnessEvaluator(dataset, shape)
    rng = np.random.default_rng(seed)
    lo, hi = config.init_weight_range
    population = rng.uniform(lo, hi, size=(config.population_size, shape.n_genes))

    fits = evaluator(population)
    best_idx = int(np.argmax(fits))
    best_value = float(fits[best_idx])
    best_genes = population[best_idx].copy()
    best_generation = -1  # found in the initial population

    best_trace: list[float] = []
    mean_trace: list[float] = []
    stalled = 0
    stopped_early = False
    generations_run = 0
    sigma = config.mutation_sigma_initial

    for gen in range(config.generations):
        population, fits = _next_population(population, fits, config, rng, sigma)
        sigma *= config.sigma_decay
        unknown = np.isnan(fits)
        if unknown.any():
            fits[unknown] = evaluator(population[unknown])
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
        generations_run=generations_run,
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
