"""Per-layer spans, taken from outside the program by wrapping its public functions.

Each entry of ``LAYERS`` names a function (or a method) of a wtanet
module.  ``Tracer.install`` replaces it with a timing wrapper in its own
module and at every other wtanet module that bound the same object with
``from ... import``, so calls through either name are seen;
``Tracer.uninstall`` puts the originals back.  A function that no longer
exists is listed in ``Tracer.absent`` and its metrics read 0.

Spans nest through a stack.  A span's self time is its duration minus
the durations of the spans directly inside it.  Spans are folded into
per-name totals as they close, so memory does not grow with the number
of calls (a 20k-row request makes 40k spans).
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass

import numpy as np


def _rows_of_dataset(args, result) -> int:
    return int(result.n_samples)


def _rows_of_batch(args, result) -> int:
    return len(args[1])


# (span name, module, attribute, rows counter or None)
LAYERS = [
    ("ga.fitness", "wtanet.ga", "FitnessEvaluator.__call__", None),
    ("ga.evaluator_init", "wtanet.ga", "FitnessEvaluator.__init__", None),
    ("ga.train", "wtanet.ga", "train", None),
    ("ga.trace_to_csv", "wtanet.ga", "trace_to_csv", None),
    ("expansion.expand_batch", "wtanet.expansion", "expand_batch", None),
    ("expansion.expand", "wtanet.expansion", "expand", None),
    ("model.forward", "wtanet.model", "forward", None),
    ("model.predict_batch", "wtanet.model", "predict_batch", _rows_of_batch),
    ("model.load_model", "wtanet.model", "load_model", None),
    ("model.save_model", "wtanet.model", "save_model", None),
    ("data.load_csv", "wtanet.data", "load_csv", _rows_of_dataset),
    ("data.read_csv_matrix", "wtanet.data", "read_csv_matrix", None),
    ("data.split_dataset", "wtanet.data", "split_dataset", None),
    ("metrics", "wtanet.metrics", "rmse", None),
    ("metrics", "wtanet.metrics", "mae", None),
    ("metrics", "wtanet.metrics", "nrmse", None),
    ("metrics", "wtanet.metrics", "accuracy", None),
    ("metrics", "wtanet.metrics", "confusion_matrix", None),
    ("bench.run_experiment", "wtanet.bench", "run_experiment", None),
    ("cli.main", "wtanet.cli", "main", None),
]


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0     # spans not nested in a span of the same name
    self_s: float = 0.0
    rows: int = 0


class Tracer:
    """Installs the wrappers and accumulates span statistics."""

    def __init__(self):
        self.stats: dict[str, SpanStats] = {name: SpanStats() for name, *_ in LAYERS}
        self.absent: list[str] = []
        self._stack: list[list] = []      # [name, time of spans directly inside]
        self._patches: list[tuple[object, str, object]] = []
        self._chromosomes: set[int] = set()
        self.distinct_chromosomes = 0

    def _wrap(self, name: str, fn, rows_of):
        stats = self.stats[name]
        stack = self._stack
        counts_chromosomes = name == "ga.fitness"
        starts_evaluator = name == "ga.evaluator_init"

        def traced(*args, **kwargs):
            nested = any(frame[0] == name for frame in stack)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                stack.pop()
                stats.calls += 1
                stats.self_s += elapsed - frame[1]
                if not nested:
                    stats.total_s += elapsed
            # bookkeeping below is charged to no layer
            t1 = time.perf_counter()
            if counts_chromosomes:
                self._chromosomes.add(hash(np.asarray(args[1]).tobytes()))
            elif starts_evaluator:
                self._close_evaluator()
            if rows_of is not None:
                stats.rows += rows_of(args, result)
            if stack:
                stack[-1][1] += elapsed + (time.perf_counter() - t1)
            return result

        traced.__wrapped__ = fn
        return traced

    def _close_evaluator(self) -> None:
        # distinct chromosomes are counted per evaluator, i.e. per training run
        self.distinct_chromosomes += len(self._chromosomes)
        self._chromosomes.clear()

    def install(self) -> None:
        program = [m for n, m in sys.modules.items()
                   if n == "wtanet" or n.startswith("wtanet.")]
        for name, module_name, attr, rows_of in LAYERS:
            try:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                label = f"{module_name}.{attr}"
                if label not in self.absent:
                    self.absent.append(label)
                continue
            wrapper = self._wrap(name, original, rows_of)
            self._patch(owner, leaf, wrapper)
            if path:
                continue  # a method is looked up on its class only
            for module in program:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)
        self._close_evaluator()

    def layer_metrics(self, rounds: int, overhead_s: float) -> dict:
        """Per-layer figures per round of the workload, with their units."""
        s = self.stats
        r = max(rounds, 1)

        def per_round(x):
            return x / r

        def rate(count, seconds):
            return count / seconds if seconds > 0 else 0.0

        fit = s["ga.fitness"]
        values = {
            "ga.fitness.calls": (per_round(fit.calls), "count"),
            "ga.fitness.s": (per_round(fit.total_s), "s"),
            "ga.fitness.us_per_call": (1e6 * fit.total_s / fit.calls if fit.calls else 0.0, "us"),
            "ga.fitness.distinct_ratio": (
                self.distinct_chromosomes / fit.calls if fit.calls else 0.0, "ratio"),
            "ga.train.self_s": (per_round(s["ga.train"].self_s), "s"),
            "ga.evaluator_init.s": (per_round(s["ga.evaluator_init"].total_s), "s"),
            "ga.trace_to_csv.s": (per_round(s["ga.trace_to_csv"].total_s), "s"),
            "expansion.expand_batch.s": (per_round(s["expansion.expand_batch"].total_s), "s"),
            "expansion.expand.calls": (per_round(s["expansion.expand"].calls), "count"),
            "expansion.expand.s": (per_round(s["expansion.expand"].total_s), "s"),
            "model.forward.calls": (per_round(s["model.forward"].calls), "count"),
            "model.predict_batch.s": (per_round(s["model.predict_batch"].total_s), "s"),
            "model.predict_batch.rows_per_s": (
                rate(s["model.predict_batch"].rows, s["model.predict_batch"].total_s), "1/s"),
            "model.load_model.s": (per_round(s["model.load_model"].total_s), "s"),
            "model.save_model.s": (per_round(s["model.save_model"].total_s), "s"),
            "data.load_csv.s": (per_round(s["data.load_csv"].total_s), "s"),
            "data.load_csv.rows_per_s": (
                rate(s["data.load_csv"].rows, s["data.load_csv"].total_s), "1/s"),
            "data.read_csv_matrix.s": (per_round(s["data.read_csv_matrix"].total_s), "s"),
            "data.split_dataset.s": (per_round(s["data.split_dataset"].total_s), "s"),
            "metrics.s": (per_round(s["metrics"].total_s), "s"),
            "bench.run_experiment.self_s": (per_round(s["bench.run_experiment"].self_s), "s"),
            "cli.main.self_s": (per_round(s["cli.main"].self_s), "s"),
            "trace.overhead_s": (overhead_s, "s"),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
