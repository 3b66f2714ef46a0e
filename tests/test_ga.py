import concurrent.futures
import math
import os
import re
import select
import subprocess
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from wtanet import (
    Dataset,
    ExpansionSpec,
    FitnessEvaluator,
    GaConfig,
    ModelShape,
    WtaModel,
    decode,
    encode,
    expand_batch,
    gen_function,
    train,
)
from wtanet import ga
from wtanet.ga import _next_population
from wtanet.model import apply_activation


def tiny_dataset(seed=0, n=20):
    return gen_function("f1", n, seed=seed)


def tiny_shape(order=1, n_units=2):
    return ModelShape(spec=ExpansionSpec(input_dim=1, order=order), n_units=n_units)


def reference_fitness(dataset, shape, genes):
    """Per-chromosome fitness: one product per weight matrix, argmax winner."""
    design = expand_batch(shape.spec, dataset.inputs)
    m, n_units = shape.pattern_dim, shape.n_units
    v = genes[:n_units * m].reshape(n_units, m)
    w = genes[n_units * m:].reshape(n_units, m)
    rows = np.arange(dataset.n_samples)
    with np.errstate(over="ignore", invalid="ignore"):
        excitation = design @ v.T
        winners = np.argmax(excitation, axis=1)
        if shape.mode == "classification":
            if not np.isfinite(excitation).all():
                return -np.inf
            predicted = np.asarray(shape.class_of_unit)[winners]
            return -float(np.mean(predicted != dataset.targets))
        inhibition = design @ w.T
        outputs = apply_activation(
            shape.output_activation,
            excitation[rows, winners] - inhibition[rows, winners],
        )
    if not np.all(np.isfinite(outputs)):
        return -np.inf
    return -float(np.mean((outputs - dataset.targets) ** 2))


def edge_population(kind, size, n=60, seed=45):
    """A dataset, a shape and ``size`` chromosomes with ties and overflows.

    Rows 0-5 tie units: the last with unit 0, then units 1 and 2.
    Row 1's outputs square past the float range, row 4's excitations
    overflow, and the last row has a NaN weight.
    """
    rng = np.random.default_rng(seed)
    spec = ExpansionSpec(input_dim=2, order=1)
    x = rng.uniform(0, 1, size=(n, 2))
    norm = np.tile([0.0, 1.0], (2, 1))
    if kind == 3:
        shape = ModelShape.for_classification(spec, 3, units_per_class=2)
        ds = Dataset(inputs=x, targets=rng.integers(0, 3, size=n),
                     normalization=norm, provenance="test", label_names=("a", "b", "c"))
    else:
        shape = ModelShape(spec=spec, n_units=4, output_activation=kind)
        ds = Dataset(inputs=x, targets=rng.normal(size=n),
                     normalization=norm, provenance="test")
    m, half = shape.pattern_dim, shape.n_units * shape.pattern_dim
    population = rng.uniform(-2, 2, size=(size, shape.n_genes))
    population[:3, half - m:half] = population[:3, :m]
    population[3:6, 2 * m:3 * m] = population[3:6, m:2 * m]
    population[1] *= 1e160
    population[4] = np.copysign(1e308, population[4])
    population[-1, m] = np.nan
    return ds, shape, population


def blocks_of(count, ds, shape, monkeypatch):
    """Make evaluators built from here on score ``count`` chromosomes a block."""
    work = shape.n_units * shape.pattern_dim * ds.n_samples
    monkeypatch.setattr(ga, "_BLOCK_MULTIPLY_ADDS", count * work)


class Counted(ThreadPoolExecutor):
    """An executor that counts its submits."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.submitted = 0

    def submit(self, *args, **kwargs):
        self.submitted += 1
        return super().submit(*args, **kwargs)


@pytest.fixture
def helper():
    """An executor with one worker, for a test to hand to evaluator calls."""
    with Counted(1) as pool:
        yield pool


def helpers_on(monkeypatch):
    """Make every training from here on make a helper, on any host."""
    monkeypatch.setattr(ga, "_HELPER_MIN_PASS", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def counted_executors(monkeypatch):
    """The executors trainings make from here on, each counting its submits."""
    made = []

    class Made(Counted):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Made)
    return made


def helper_threads():
    return [t for t in threading.enumerate() if t.name.startswith("wtanet-fitness")]


def trace_bytes(trace):
    """A training's best genes and per-generation fitness, as bytes."""
    fitness = np.array(trace.best_fitness + trace.mean_fitness + [trace.best_fitness_value])
    return encode(trace.model).tobytes() + fitness.tobytes()


def reference_next_population(population, fits, config, rng, sigma):
    """Generation-major draws, then a child-by-child loop: the GA's stream contract.

    Returns the next population and the fitness known for each slot:
    the elites' own, and a child's parent's (its first if crossed, its
    better if not) exactly when no gene mutated and the child equals
    that parent bit for bit; NaN everywhere else.
    """
    size, n_genes = population.shape
    elites = config.elitism_count
    n_children = config.population_size - elites
    rate = config.resolved_mutation_rate(n_genes)
    contestants = rng.integers(
        0, size, (n_children, 2, config.tournament_size), np.int64
    )
    crossover_coins = rng.random(n_children)
    mutation_coins = rng.random((n_children, n_genes))
    uniforms = rng.random((n_children, n_genes))
    normals = iter(rng.standard_normal(int(np.sum(mutation_coins < rate))))

    order = np.argsort(-fits, kind="stable")
    next_pop = np.empty_like(population)
    next_pop[:elites] = population[order[:elites]]
    known = np.full(size, np.nan)
    known[:elites] = fits[order[:elites]]
    for k in range(n_children):
        p1, p2 = (int(c[np.argmax(fits[c])]) for c in contestants[k])
        if crossover_coins[k] < config.crossover_rate:
            parent = p1
            g1, g2 = population[p1], population[p2]
            lo, hi = np.minimum(g1, g2), np.maximum(g1, g2)
            span = hi - lo
            child = (lo - config.blx_alpha * span
                     + uniforms[k] * (1.0 + 2.0 * config.blx_alpha) * span)
        else:
            parent = p1 if fits[p1] >= fits[p2] else p2
            child = population[parent].copy()
        mutated = False
        for g in range(n_genes):  # row-major: one normal per mutated gene
            if mutation_coins[k, g] < rate:
                child[g] += sigma * next(normals)
                mutated = True
        next_pop[elites + k] = child
        if not mutated and child.tobytes() == population[parent].tobytes():
            known[elites + k] = fits[parent]
    return next_pop, known


class TestEncodeDecode:
    def test_gene_order_by_definition(self):
        spec = ExpansionSpec(input_dim=1, order=0)
        model = WtaModel(ModelShape(spec, 1), [[1.0, 2.0]], [[3.0, 4.0]])
        np.testing.assert_array_equal(encode(model), [1, 2, 3, 4])

    def test_round_trip_bit_identical(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            shape = ModelShape(
                spec=ExpansionSpec(
                    input_dim=int(rng.integers(1, 4)),
                    order=int(rng.integers(0, 4)),
                ),
                n_units=int(rng.integers(1, 5)),
            )
            genes = rng.uniform(-2, 2, size=shape.n_genes)
            back = encode(decode(genes, shape))
            assert back.tobytes() == genes.tobytes()

    def test_wrong_length_rejected(self):
        shape = ModelShape(
            spec=ExpansionSpec(input_dim=1, order=0, include_bias=False),
            n_units=1,
        )
        with pytest.raises(ValueError, match="expected 2"):
            decode(np.zeros(5), shape)


class TestFitness:
    def test_all_zero_chromosome_scores_negative_mean_square(self):
        ds = tiny_dataset()
        shape = tiny_shape()
        [value] = FitnessEvaluator(ds, shape)(np.zeros((1, shape.n_genes)))
        assert value == -float(np.mean(ds.targets ** 2))

    def test_perfect_predictor_scores_zero(self):
        # with K=0 and no bias the model is y = (v - w) * x; fit y = 2x
        spec = ExpansionSpec(input_dim=1, order=0, include_bias=False)
        shape = ModelShape(spec=spec, n_units=1)
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 1, size=(30, 1))
        from wtanet import Dataset
        ds = Dataset(
            inputs=x, targets=2.0 * x[:, 0],
            normalization=np.array([[0.0, 1.0]]), provenance="test",
        )
        assert FitnessEvaluator(ds, shape)(np.array([[2.0, 0.0]]))[0] == 0.0

    def test_matches_hand_looped_mse(self):
        rng = np.random.default_rng(2)
        ds = tiny_dataset(seed=3, n=20)
        shape = tiny_shape(order=2, n_units=3)
        genes = rng.uniform(-1, 1, size=shape.n_genes)
        model = decode(genes, shape)
        total = 0.0
        for i in range(ds.n_samples):
            p = expand_batch(shape.spec, [ds.inputs[i]])[0]
            excitations = [float(np.dot(model.excitatory[j], p)) for j in range(3)]
            winner = excitations.index(max(excitations))
            out = excitations[winner] - float(np.dot(model.inhibitory[winner], p))
            total += (out - float(ds.targets[i])) ** 2
        [value] = FitnessEvaluator(ds, shape)(genes[None])
        assert value == pytest.approx(-total / 20, rel=1e-12)

    def test_classification_error_rate(self):
        rng = np.random.default_rng(3)
        from wtanet import Dataset
        x = rng.uniform(0, 1, size=(40, 2))
        y = (x[:, 0] > 0.5).astype(int)
        ds = Dataset(
            inputs=x, targets=y,
            normalization=np.array([[0.0, 1.0], [0.0, 1.0]]),
            provenance="test", label_names=("lo", "hi"),
        )
        spec = ExpansionSpec(input_dim=2, order=0)
        shape = ModelShape.for_classification(spec, n_classes=2)
        evaluator = FitnessEvaluator(ds, shape)
        genes = rng.uniform(-1, 1, size=shape.n_genes)
        model = decode(genes, shape)
        wrong = 0
        for i in range(ds.n_samples):
            p = expand_batch(spec, [ds.inputs[i]])[0]
            winner = int(np.argmax(model.excitatory @ p))
            if shape.class_of_unit[winner] != y[i]:
                wrong += 1
        assert evaluator(genes[None])[0] == -wrong / 40

    def test_non_finite_prediction_gets_worst_sentinel(self):
        ds = tiny_dataset()
        shape = tiny_shape(order=0)
        genes = np.full(shape.n_genes, 1e308)  # finite genes, overflowing dot
        assert FitnessEvaluator(ds, shape)(genes[None])[0] == -np.inf

    def test_non_finite_excitation_gets_worst_sentinel_in_classification(self):
        from wtanet import Dataset
        ds = Dataset(
            inputs=[[0.2], [0.9]], targets=[0, 1],
            normalization=[[0.0, 1.0]], provenance="test", label_names=("a", "b"),
        )
        shape = ModelShape.for_classification(
            ExpansionSpec(input_dim=1, order=0), n_classes=2
        )
        # every excitation overflows; the error rate would read 0.5
        genes = np.full(shape.n_genes, 1.5e308)
        assert FitnessEvaluator(ds, shape)(genes[None])[0] == -np.inf

    def test_population_kernel_matches_per_chromosome_reference(self):
        rng = np.random.default_rng(40)
        cases = [  # (input_dim, order, units, n_samples, activation or classes)
            (1, 3, 4, 70, "identity"),
            (2, 2, 1, 50, "identity"),
            (1, 1, 3, 1, "identity"),
            (3, 3, 5, 300, "logistic"),  # 21 chromosomes per block
            (5, 4, 2, 40, "identity"),   # m = 46
            (4, 1, 6, 105, 3),           # 3 classes, 2 units each
            (2, 0, 1, 1, 1),
            (1, 1, 300, 20, "identity"),  # two-byte winner codes
            (1, 1, 5, 17_000, "identity"),  # winner * N passes 65,535
        ]
        for input_dim, order, n_units, n, kind in cases:
            size = 50 if n < 10_000 else 6
            spec = ExpansionSpec(input_dim=input_dim, order=order)
            x = rng.uniform(0, 1, size=(n, input_dim))
            norm = np.tile([0.0, 1.0], (input_dim, 1))
            if isinstance(kind, int):
                shape = ModelShape.for_classification(
                    spec, kind, units_per_class=n_units // kind
                )
                ds = Dataset(inputs=x, targets=rng.integers(0, kind, size=n),
                             normalization=norm, provenance="test",
                             label_names=tuple("abc"[:kind]))
            else:
                shape = ModelShape(spec=spec, n_units=n_units,
                                   output_activation=kind)
                ds = Dataset(inputs=x, targets=rng.normal(size=n),
                             normalization=norm, provenance="test")
            population = rng.uniform(-2, 2, size=(size, shape.n_genes))
            # exact excitation ties in half the population: the lower unit wins
            m = shape.pattern_dim
            last = (shape.n_units - 1) * m
            population[:size // 2, last:last + m] = population[:size // 2, :m]
            got = FitnessEvaluator(ds, shape)(population)
            want = [reference_fitness(ds, shape, genes) for genes in population]
            assert got.shape == (size,)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("kind", ["identity", "logistic", 3])
    def test_kernel_is_bit_identical_to_argmax_and_mean(self, kind):
        # the same products as the kernel, block by block, then the plain
        # formulation: argmax winner, its excitation minus its inhibition,
        # np.mean of the squared error; == on every bit, not a tolerance
        rng = np.random.default_rng(43)
        spec = ExpansionSpec(input_dim=2, order=2)
        x = rng.uniform(0, 1, size=(90, 2))
        norm = np.tile([0.0, 1.0], (2, 1))
        if kind == 3:
            shape = ModelShape.for_classification(spec, 3, units_per_class=2)
            ds = Dataset(inputs=x, targets=rng.integers(0, 3, size=90),
                         normalization=norm, provenance="test", label_names=("a", "b", "c"))
        else:
            shape = ModelShape(spec=spec, n_units=5, output_activation=kind)
            ds = Dataset(inputs=x, targets=rng.normal(size=90),
                         normalization=norm, provenance="test")
        m, n_units = shape.pattern_dim, shape.n_units
        half = n_units * m
        population = rng.uniform(-2, 2, size=(40, shape.n_genes))
        # exact ties of the last unit with unit 0, and of units 1 and 2
        population[:10, half - m:half] = population[:10, :m]
        population[10:20, 2 * m:3 * m] = population[10:20, m:2 * m]
        population[20] *= 1e160  # finite outputs whose squares overflow
        population[21] = np.copysign(1e308, population[21])  # overflowing dots
        population[22, m] = np.nan
        evaluator = FitnessEvaluator(ds, shape)
        got = evaluator(population)

        want = []
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, len(population), evaluator._block):
                genes = population[start:start + evaluator._block]
                # _activations is (M, block, N); the plain formulation reads (block, M, N)
                excitation = evaluator._activations(
                    genes[:, :half], np.empty((len(genes) * n_units, 90))).transpose(1, 0, 2)
                winners = np.argmax(excitation, axis=1)[:, np.newaxis]
                if kind == 3:
                    finite = np.isfinite(excitation).all(axis=(1, 2))
                    predicted = np.asarray(shape.class_of_unit)[winners[:, 0]]
                    wrong = np.mean(predicted != ds.targets, axis=1)
                    want.append(np.where(finite, -wrong, -np.inf))
                    continue
                inhibition = evaluator._activations(
                    genes[:, half:], np.empty((len(genes) * n_units, 90))).transpose(1, 0, 2)
                outputs = apply_activation(
                    kind,
                    np.take_along_axis(excitation, winners, axis=1)[:, 0]
                    - np.take_along_axis(inhibition, winners, axis=1)[:, 0],
                )
                mse = np.mean((outputs - ds.targets) ** 2, axis=1)
                want.append(np.where(np.isfinite(outputs).all(axis=1), -mse, -np.inf))
        want = np.concatenate(want)
        assert got.tobytes() == want.tobytes()
        assert np.isfinite(got[:20]).all()
        if kind == "identity":  # the logistic saturates where this overflows
            assert (got[20:23] == -np.inf).all()

    @pytest.mark.parametrize("kind", ["identity", "logistic", 3])
    def test_reused_buffers_and_short_blocks_match_lone_scoring(self, kind, monkeypatch):
        # one evaluator with blocks of 3: two full blocks and a short one,
        # then a lone chromosome, then the first population again; each
        # result equals, byte for byte, a fresh evaluator's on that
        # chromosome alone, so no block reads what an earlier one left
        rng = np.random.default_rng(44)
        spec = ExpansionSpec(input_dim=2, order=1)
        x = rng.uniform(0, 1, size=(60, 2))
        norm = np.tile([0.0, 1.0], (2, 1))
        if kind == 3:
            shape = ModelShape.for_classification(spec, 3, units_per_class=2)
            ds = Dataset(inputs=x, targets=rng.integers(0, 3, size=60),
                         normalization=norm, provenance="test", label_names=("a", "b", "c"))
        else:
            shape = ModelShape(spec=spec, n_units=4, output_activation=kind)
            ds = Dataset(inputs=x, targets=rng.normal(size=60),
                         normalization=norm, provenance="test")
        work = shape.n_units * shape.pattern_dim * ds.n_samples
        monkeypatch.setattr(ga, "_BLOCK_MULTIPLY_ADDS", 3 * work + work // 2)
        evaluator = FitnessEvaluator(ds, shape)
        assert evaluator._block == 3
        population = rng.uniform(-2, 2, size=(8, shape.n_genes))
        lone = rng.uniform(-2, 2, size=shape.n_genes)
        monkeypatch.undo()

        def alone(genes):
            return FitnessEvaluator(ds, shape)(genes[None]).tobytes()

        want = b"".join(alone(genes) for genes in population)
        assert evaluator(population).tobytes() == want
        assert evaluator(lone[None]).tobytes() == alone(lone)
        assert evaluator(population).tobytes() == want

    @pytest.mark.parametrize("kind", ["identity", "logistic", 3])
    def test_helper_scoring_equals_serial_scoring(self, kind, helper, monkeypatch):
        # blocks of 3 over 11 chromosomes: the caller scores rows 0-2 and
        # 6-8, the helper rows 3-5 and the short block 9-10, so each
        # worker has tie rows, an overflow and the helper the NaN
        ds, shape, population = edge_population(kind, 11)
        blocks_of(3, ds, shape, monkeypatch)
        evaluator = FitnessEvaluator(ds, shape)
        got = evaluator(population, helper=helper)
        assert helper.submitted == 1  # the call handed blocks off
        want = FitnessEvaluator(ds, shape)(population)
        assert got.tobytes() == want.tobytes()
        assert got[-1] == -np.inf

    def test_helper_blocks_overflow_to_the_sentinel_without_a_warning(self, helper,
                                                                      monkeypatch):
        # errstate is per thread: a helper that did not enter its own would
        # warn on these overflows, and the filter makes that warning raise
        ds, shape, population = edge_population("identity", 6)
        population[[0, 2, 3]] *= 1e160  # rows 1, 4 and 5 overflow or are NaN already
        blocks_of(1, ds, shape, monkeypatch)
        evaluator = FitnessEvaluator(ds, shape)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = evaluator(population, helper=helper)
        assert helper.submitted == 1
        assert (got == -np.inf).all()

    @pytest.mark.parametrize("failing", [0, 1])
    def test_a_failing_block_raises_only_after_the_other_worker_is_done(
            self, failing, helper, monkeypatch):
        ds, shape, population = edge_population("identity", 6)
        blocks_of(1, ds, shape, monkeypatch)
        evaluator = FitnessEvaluator(ds, shape)
        score, done = evaluator._score_block, []

        def scored(genes, worker):
            if worker == failing:
                raise RuntimeError("block failed")
            time.sleep(0.02)
            done.append(worker)
            return score(genes, worker)

        monkeypatch.setattr(evaluator, "_score_block", scored)
        with pytest.raises(RuntimeError, match="block failed"):
            evaluator(population, helper=helper)
        assert done == [1 - failing] * 3

    def test_concurrent_callers_share_the_helper(self, helper, monkeypatch):
        # more calling threads than cores, switching as often as possible;
        # each result must equal its serial scoring bit for bit
        ds, shape, population = edge_population("identity", 8)
        blocks_of(1, ds, shape, monkeypatch)
        want = FitnessEvaluator(ds, shape)(population).tobytes()
        results = []

        def caller():
            evaluator = FitnessEvaluator(ds, shape)
            results.extend(evaluator(population, helper=helper).tobytes()
                           for _ in range(10))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [want] * 40

    def test_train_makes_a_helper_only_past_the_gate_on_two_cpus(self, monkeypatch):
        # short passes or one CPU: no helper; long passes on two CPUs: one,
        # which scores blocks and is shut down by the time train returns;
        # all three trainings give the same bits
        ds, shape = tiny_dataset(), tiny_shape()
        blocks_of(3, ds, shape, monkeypatch)
        made = counted_executors(monkeypatch)
        config = GaConfig(population_size=12, generations=5)
        runs = []
        for gate, cpus in [(math.inf, {0, 1}), (0, {0}), (0, {0, 1})]:
            monkeypatch.setattr(ga, "_HELPER_MIN_PASS", gate)
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus,
                                raising=False)
            runs.append(trace_bytes(train(shape, ds, config, 3)))
            assert len(made) == (1 if gate == 0 and len(cpus) == 2 else 0)
        assert made[0].submitted > 0
        with pytest.raises(RuntimeError):
            made[0].submit(int)  # shut down
        assert runs[1] == runs[0] and runs[2] == runs[0]

    def test_no_helper_thread_outlives_a_training(self, monkeypatch):
        ds, shape = tiny_dataset(), tiny_shape()
        blocks_of(3, ds, shape, monkeypatch)
        helpers_on(monkeypatch)
        made = counted_executors(monkeypatch)
        config = GaConfig(population_size=12, generations=3)
        train(shape, ds, config, 0)
        assert made[0].submitted > 0 and not helper_threads()

        def failing(*args):
            raise RuntimeError("offspring failed")

        # the initial population is scored, with the helper, before the raise
        monkeypatch.setattr(ga, "_next_population", failing)
        with pytest.raises(RuntimeError, match="offspring failed"):
            train(shape, ds, config, 0)
        assert len(made) == 2 and made[1].submitted > 0
        assert not helper_threads()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_scores_with_a_helper_of_its_own(self, monkeypatch):
        # the child of a process that has trained with a helper inherits
        # no executor, and its own training makes one and gives the same bits
        ds, shape = tiny_dataset(), tiny_shape()
        blocks_of(3, ds, shape, monkeypatch)
        helpers_on(monkeypatch)
        made = counted_executors(monkeypatch)
        config = GaConfig(population_size=12, generations=5)
        want = trace_bytes(train(shape, ds, config, 1))
        assert len(made) == 1
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:  # the child: train, report, exit without pytest's teardown
            try:
                got = trace_bytes(train(shape, ds, config, 1))
                os.write(write_end, got if len(made) == 2 else b"no helper")
            finally:
                os._exit(0)
        os.close(write_end)
        try:
            ready, _, _ = select.select([read_end], [], [], 60)
            got = os.read(read_end, len(want) + 1) if ready else b""
        finally:
            os.close(read_end)
            if not ready:
                os.kill(pid, 9)
            os.waitpid(pid, 0)
        assert got == want

    def test_two_trainings_in_two_threads_give_the_serial_models(self, monkeypatch):
        ds, shape = tiny_dataset(), tiny_shape()
        blocks_of(3, ds, shape, monkeypatch)
        config = GaConfig(population_size=12, generations=10)
        want = [trace_bytes(train(shape, ds, config, seed)) for seed in (0, 1)]
        helpers_on(monkeypatch)
        made = counted_executors(monkeypatch)
        got = [None, None]

        def run(seed):
            got[seed] = trace_bytes(train(shape, ds, config, seed))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(seed,)) for seed in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(made) == 2 and all(pool.submitted > 0 for pool in made)
        assert got == want

    def test_importing_the_cli_leaves_the_helper_unmade(self):
        # a fresh process: concurrent.futures (and the logging it pulls
        # in) is imported only by a training that makes a helper
        src = os.path.dirname(os.path.dirname(os.path.abspath(ga.__file__)))
        code = "import sys, wtanet.cli; sys.exit('concurrent.futures' in sys.modules)"
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, timeout=60)
        assert run.returncode == 0, run.stderr or "concurrent.futures was imported"

    def test_buffers_are_made_with_the_evaluator(self, helper):
        # each worker's buffer holds a whole block from construction on, and
        # calls of one row, one block and several blocks reuse the same arrays
        ds = tiny_dataset(n=30)
        shape = tiny_shape(order=0, n_units=1)
        evaluator = FitnessEvaluator(ds, shape)
        block = evaluator._block
        assert block == 16_666
        products, offsets = list(evaluator._products), evaluator._offsets
        assert [product.shape for product in products] == [(block, 30)] * 2
        # unit 0's activations of the (M, block, N) product, flat
        assert offsets.shape == (block, 30)
        assert (offsets.ravel() == np.arange(block * 30)).all()
        genes = np.random.default_rng(46).uniform(-1, 1, size=(3 * block + 1, shape.n_genes))
        first = evaluator(genes[:block])
        assert evaluator(genes[:1]).tobytes() == first[:1].tobytes()
        assert evaluator(genes, helper=helper)[:block].tobytes() == first.tobytes()
        assert helper.submitted == 1
        assert all(a is b for a, b in zip(evaluator._products, products, strict=True))
        assert evaluator._offsets is offsets

    def test_only_populations_are_scored(self):
        ds = tiny_dataset()
        shape = tiny_shape(order=1, n_units=3)
        evaluator = FitnessEvaluator(ds, shape)
        genes = np.random.default_rng(41).uniform(-1, 1, size=(2, 3, shape.n_genes))
        assert evaluator(genes[1]).shape == (3,)
        expected = rf"expected a \(P, {shape.n_genes}\) population, got shape"
        for refused in (genes, genes[1, 2], np.zeros((4, shape.n_genes + 1))):
            with pytest.raises(ValueError, match=expected):
                evaluator(refused)

    def test_nan_excitation_of_a_later_unit_gets_worst_sentinel(self):
        # argmax lets the NaN unit win, so every output is NaN; a plain
        # strict-greater chain would skip the NaN and score unit 0 alone
        ds = tiny_dataset()
        shape = tiny_shape(order=1, n_units=2)
        genes = np.random.default_rng(42).uniform(-1, 1, size=shape.n_genes)
        genes[shape.pattern_dim] = np.nan  # unit 1, first excitatory weight
        assert reference_fitness(ds, shape, genes) == -np.inf
        assert FitnessEvaluator(ds, shape)(genes[None])[0] == -np.inf


class TestEvolveGeneration:
    def test_blx_child_genes_stay_in_extended_interval(self):
        # parents 0 and 1 with alpha 0.5 bound children to [-0.5, 1.5]
        config = GaConfig(
            population_size=2, crossover_rate=1.0, blx_alpha=0.5,
            mutation_rate=0.0, elitism_count=0, tournament_size=1,
        )
        population = np.array([[0.0] * 8, [1.0] * 8])
        rng = np.random.default_rng(0)
        for _ in range(200):
            children, _ = _next_population(
                population, np.zeros(2), config, rng, config.mutation_sigma_initial
            )
            assert np.all(children >= -0.5) and np.all(children <= 1.5)

    def test_no_crossover_no_mutation_yields_clones(self):
        rng_pop = np.random.default_rng(4)
        population = rng_pop.uniform(-1, 1, size=(6, 4))
        config = GaConfig(
            population_size=6, crossover_rate=0.0, mutation_rate=0.5,
            mutation_sigma_initial=0.0, elitism_count=0,
        )
        children, _ = _next_population(
            population, np.arange(6.0), config, np.random.default_rng(1), 0.0
        )
        existing = {genes.tobytes() for genes in population}
        for child in children:
            assert child.tobytes() in existing

    def test_same_seed_same_next_population(self):
        rng_pop = np.random.default_rng(5)
        population = rng_pop.uniform(-1, 1, size=(8, 6))
        config = GaConfig(population_size=8, elitism_count=2)
        fits = -np.sum(population ** 2, axis=1)
        sigma = config.mutation_sigma_initial
        a, _ = _next_population(population, fits, config, np.random.default_rng(7), sigma)
        b, _ = _next_population(population, fits, config, np.random.default_rng(7), sigma)
        assert a.tobytes() == b.tobytes()

    def test_elites_survive_unchanged(self):
        rng_pop = np.random.default_rng(6)
        population = rng_pop.uniform(-1, 1, size=(10, 4))
        fits = -np.sum(population ** 2, axis=1)
        best_two = population[np.argsort(-fits, kind="stable")[:2]]
        config = GaConfig(population_size=10, elitism_count=2)
        children, _ = _next_population(
            population, fits, config, np.random.default_rng(8),
            config.mutation_sigma_initial,
        )
        assert children[0].tobytes() == best_two[0].tobytes()
        assert children[1].tobytes() == best_two[1].tobytes()

    @pytest.mark.parametrize("settings", [
        pytest.param({"crossover_rate": 0.0}, id="0.0"),
        pytest.param({"crossover_rate": 0.5}, id="0.5"),
        pytest.param({"crossover_rate": 1.0}, id="1.0"),
        pytest.param({"elitism_count": 0}, id="elitism-0"),
        pytest.param({"tournament_size": 1}, id="tournament-1"),
        pytest.param({"blx_alpha": 0.0}, id="alpha-0"),
        pytest.param({"mutation_rate": 0.0}, id="mutation-0"),
        pytest.param({"mutation_rate": 1.0}, id="mutation-1"),
    ])
    def test_matches_generation_major_reference(self, settings):
        rng_pop = np.random.default_rng(9)
        population = rng_pop.uniform(-1, 1, size=(12, 7))
        # rounded fitness makes tournament and better-parent ties common
        evaluator = lambda pop: -np.round(np.sum(pop ** 2, axis=1), 1)
        config = GaConfig(**{
            "population_size": 12, "elitism_count": 2, "tournament_size": 3,
            "crossover_rate": 0.5, "mutation_rate": 0.3, **settings,
        })
        known_children = 0
        for gen_seed in range(5):
            a, b = np.random.default_rng(gen_seed), np.random.default_rng(gen_seed)
            fits = evaluator(population)
            got, known = _next_population(population, fits, config, a, 0.2)
            want, want_known = reference_next_population(population, fits, config, b, 0.2)
            assert got.tobytes() == want.tobytes()
            assert known.tobytes() == want_known.tobytes()
            assert a.random() == b.random()  # the stream stays in step
            known_children += np.count_nonzero(~np.isnan(known[config.elitism_count:]))
            population = got
        # every setting but certain mutation leaves some child's fitness known
        assert (known_children == 0) == (config.mutation_rate == 1.0)


class TestTrain:
    def test_zero_generations_returns_initial_best(self):
        ds = tiny_dataset()
        shape = tiny_shape()
        config = GaConfig(population_size=10, generations=0)
        trace = train(shape, ds, config, 42)
        assert trace.best_fitness == [] and trace.mean_fitness == []
        assert trace.generations_run == 0
        assert trace.best_generation == -1
        # reproduce the draw: best of the random initial population
        rng = np.random.default_rng(42)
        population = rng.uniform(-1, 1, size=(10, shape.n_genes))
        evaluator = FitnessEvaluator(ds, shape)
        fits = [evaluator(g[None])[0] for g in population]
        assert trace.best_fitness_value == max(fits)

    def test_fixed_seed_reproduces_model_bit_exactly(self):
        ds = tiny_dataset(seed=9, n=30)
        shape = tiny_shape(order=2, n_units=2)
        config = GaConfig(population_size=12, generations=15)
        a = train(shape, ds, config, 7)
        b = train(shape, ds, config, 7)
        assert encode(a.model).tobytes() == encode(b.model).tobytes()
        assert a.best_fitness == b.best_fitness
        assert a.model.excitatory.tobytes() == b.model.excitatory.tobytes()

    def test_elitism_makes_best_fitness_non_decreasing(self):
        ds = tiny_dataset(seed=11, n=25)
        shape = tiny_shape(order=1, n_units=2)
        config = GaConfig(population_size=10, generations=40)
        trace = train(shape, ds, config, 5)
        diffs = np.diff(trace.best_fitness)
        assert np.all(diffs >= 0)

    def test_stagnation_stops_early(self):
        ds = tiny_dataset(seed=12, n=15)
        shape = tiny_shape(order=0, n_units=1)
        config = GaConfig(
            population_size=8, generations=500,
            fitness_stagnation_patience=5, mutation_sigma_initial=0.0,
            crossover_rate=0.0, mutation_rate=0.0,
        )
        trace = train(shape, ds, config, 1)
        # pure cloning cannot improve, so patience cuts the run short
        assert trace.stopped_early
        assert trace.generations_run <= 10

    def test_training_improves_over_initial_population(self):
        ds = gen_function("f1", 60, seed=13, sigma=0.05)
        shape = ModelShape(spec=ExpansionSpec(input_dim=1, order=2), n_units=2)
        config = GaConfig(population_size=30, generations=60)
        trace = train(shape, ds, config, 2)
        assert trace.best_fitness[-1] > trace.best_fitness[0]
        assert trace.best_fitness_value >= -0.05

    def test_known_chromosomes_are_not_rescored(self, monkeypatch):
        # elites, unmutated clones and blends of equal parents keep the
        # fitness already known; everything else is scored exactly once
        scored = []
        score = FitnessEvaluator.__call__

        def counting(self, genes, helper=None):
            scored.extend(g.tobytes() for g in np.atleast_2d(genes))
            return score(self, genes, helper)

        monkeypatch.setattr(FitnessEvaluator, "__call__", counting)
        ds = gen_function("f1", 100, seed=0, sigma=0.1)
        shape = ModelShape(spec=ExpansionSpec(input_dim=1, order=3), n_units=4)
        trace = train(shape, ds, GaConfig(), 0)
        assert len(scored) == 11_098
        assert len(set(scored)) == len(scored)
        assert trace.best_fitness_value == -0.015584593073989435
        assert np.all(np.diff(trace.best_fitness) >= 0)

    def test_empty_dataset_impossible_but_mode_mismatch_rejected(self):
        ds = tiny_dataset()
        spec = ExpansionSpec(input_dim=1, order=1)
        clf_shape = ModelShape.for_classification(spec, n_classes=2)
        with pytest.raises(ValueError, match="mode"):
            train(clf_shape, ds, GaConfig(population_size=4, generations=1), 0)

    def test_no_finite_fitness_is_refused(self):
        # every squared error past 1e308 overflows, so every fitness is the sentinel
        x = np.linspace(0.0, 1.0, 10)[:, None]
        ds = Dataset(inputs=x, targets=np.tile([1e308, -1e308], 5),
                     normalization=[[0.0, 1.0]], provenance="test")
        with pytest.raises(ValueError, match="no chromosome has a finite fitness"):
            train(tiny_shape(), ds, GaConfig(population_size=4, generations=3), 0)

    @pytest.mark.parametrize("dataset, shape, message", [
        (tiny_dataset(), ModelShape(ExpansionSpec(input_dim=2, order=1), 2),
         "dataset has 1 features, expansion expects 2"),
        (Dataset(inputs=[[0.0], [0.5], [1.0]], targets=[0, 1, 2],
                 normalization=[[0.0, 1.0]], provenance="test", label_names=("a", "b", "c")),
         ModelShape.for_classification(ExpansionSpec(input_dim=1, order=1), 2),
         "classes [2] in the data are carried by no unit"),
    ], ids=["feature-count", "class-without-unit"])
    def test_evaluator_refuses_a_dataset_the_shape_cannot_score(self, dataset, shape,
                                                                 message):
        with pytest.raises(ValueError, match=re.escape(message)):
            FitnessEvaluator(dataset, shape)


class TestGaConfigValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            GaConfig(population_size=1)
        with pytest.raises(ValueError):
            GaConfig(elitism_count=60, population_size=60)
        with pytest.raises(ValueError):
            GaConfig(crossover_rate=1.5)
        with pytest.raises(ValueError):
            GaConfig(sigma_decay=0.0)
