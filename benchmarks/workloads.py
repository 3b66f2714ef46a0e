"""The workloads: seeded inputs, the operations of one round, their checks.

A workload writes every input file itself, from numpy generators seeded
with the run seed, and hands the program only CSV files and configs.
One operation is one ``wtanet`` command.  A round is a fixed list of
operations; a run repeats whole rounds, so the work of a run is whole
multiples of a round and the share of failed operations never depends
on the run's length.

Every operation is checked against the reference forward in
``reference.py`` or against a property the method must have, never
against a stored copy of an earlier output.
"""

from __future__ import annotations

import io
import json
import math
import statistics
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref


@dataclass
class Op:
    """One command and the check of its outputs (None when they are right)."""

    kind: str
    argv: list[str]
    rows: int                           # rows pushed through the WTA forward
    check: Callable[[str], str | None]  # given the command's stdout


@dataclass
class OpResult:
    kind: str
    seconds: float
    rows: int
    error: str | None


def run_op(main, op: Op) -> OpResult:
    """Call the program's ``main`` in-process, time it, then check the outputs."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = main(op.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # the run must go on and count the failure
            code, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
    if error is None and code != 0:
        lines = err.getvalue().strip().splitlines()
        error = f"exit {code}: {lines[-1] if lines else ''}"
    if error is None:
        try:
            error = op.check(out.getvalue())
        except (OSError, ValueError, KeyError, TypeError) as exc:
            error = f"unreadable output: {type(exc).__name__}: {exc}"
    return OpResult(op.kind, seconds, op.rows, error)


def _write_rows(path: Path, rows) -> None:
    path.write_text("".join(",".join(r) + "\n" for r in rows), encoding="utf-8")


def _fmt(values) -> list[str]:
    return [repr(float(v)) for v in values]


def _train_count(n: int, fraction: float) -> int:
    # the program's split: round half up, at least one row on each side
    return min(max(math.floor(fraction * n + 0.5), 1), n - 1)


class Workload:
    """Set-up, the operations of one round, and run-level checks."""

    name = ""
    setup_repeats = 5
    # operation kinds that fail on every input today because of a known
    # program fault; a failure of any other kind makes the run incorrect
    known_failing: tuple[str, ...] = ()

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed

    def setup(self, main) -> None:
        raise NotImplementedError

    def round_ops(self) -> list[Op]:
        raise NotImplementedError

    def quality(self) -> tuple[bool, dict]:
        """Whether the run's outputs meet the workload's bounds, and the figures."""
        raise NotImplementedError

    def _rng(self, stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream])

    def _require(self, main, op: Op) -> None:
        result = run_op(main, op)
        if result.error is not None:
            raise RuntimeError(f"set-up command {op.argv} failed: {result.error}")


# --- training workloads -----------------------------------------------------

class Training(Workload):
    """Whole ``wtanet train`` runs, one per run seed, on one benchmark-written CSV.

    A round trains once on each of ``op_seeds_per_round`` run seeds.
    Patience equals the generation count, so the work of an operation is
    fixed by its config.  Each saved model is scored by the reference
    forward on a held-out file from the same generator; those figures,
    one per run seed, decide ``quality``.
    """

    generations = 0
    population = 60
    op_seeds_per_round = 0
    train_fraction = 0.7
    n_rows = 0

    def __init__(self, work: Path, seed: int):
        super().__init__(work, seed)
        # model bytes of each run seed's first training in this run
        self._first_model: dict[int, bytes] = {}
        # (report's training section, held-out figure) of each run seed
        self.scores: dict[int, tuple[dict, float]] = {}

    def write_inputs(self) -> None:
        """Write ``data.csv``; set ``lo``, ``hi`` and the held-out rows."""
        raise NotImplementedError

    def score(self, model: ref.RefModel) -> float:
        """The held-out figure of one saved model."""
        raise NotImplementedError

    def section(self) -> dict:
        """The config's dataset, expansion, model and split sections."""
        raise NotImplementedError

    def _config(self, generations: int) -> dict:
        return {
            "task": f"bench-{self.name}",
            **self.section(),
            "ga": {"population_size": self.population, "generations": generations,
                   "fitness_stagnation_patience": generations},
        }

    def setup(self, main) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        self.write_inputs()
        for label, gens in (("config", self.generations), ("warmup", 1)):
            (self.work / f"{label}.json").write_text(json.dumps(self._config(gens), indent=2),
                                                   encoding="utf-8")
        # one short training run pays first-call costs before timing starts
        self._require(main, Op("warmup", self._train_argv(self.seed, "warmup"), 0,
                               lambda out: None))

    def _train_argv(self, run_seed: int, label: str = "config") -> list[str]:
        out_dir = self.work / "runs" / f"{label}-{run_seed}"
        return ["--seed", str(run_seed), "--out-dir", str(out_dir),
                "train", str(self.work / f"{label}.json")]

    def n_train(self) -> int:
        return _train_count(self.n_rows, self.train_fraction)

    def round_ops(self) -> list[Op]:
        nominal = self.n_train() * self.population * (self.generations + 1)
        base = self.op_seeds_per_round * self.seed
        return [
            Op("train", self._train_argv(base + i), nominal, self._checker(base + i))
            for i in range(self.op_seeds_per_round)
        ]

    def _checker(self, run_seed: int):
        out_dir = self.work / "runs" / f"config-{run_seed}"

        def check(stdout: str) -> str | None:
            report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
            run = report["training"]["generations_run"]
            if run != self.generations:
                return f"generations_run {run}, configured {self.generations}"
            problem = ref.best_non_decreasing(out_dir / "trace.csv")
            if problem:
                return problem
            model_bytes = (out_dir / "model.json").read_bytes()
            first = self._first_model.setdefault(run_seed, model_bytes)
            if model_bytes != first:
                return f"seed {run_seed}: model differs from the run's first training"
            if run_seed not in self.scores:
                model = ref.model_from_doc(json.loads(model_bytes))
                self.scores[run_seed] = (report["training"], self.score(model))
            return None

        return check


class TrainIris(Training):
    """c04 shape: 150-row Iris-format CSV, 3 string classes, M=6, K=1, pop 60.

    N_train is 105, so the offspring and selection step does most of the work.
    """

    name = "train-iris"
    setup_repeats = 15   # a set-up takes about 30 ms
    generations = 200
    op_seeds_per_round = 5
    n_rows = 150
    holdout_per_class = 500
    bound = 0.90   # c04: median test accuracy over the seeds

    # Iris-like clusters (cm scales, first class apart, the other two close)
    means = np.array([[5.0, 3.4, 1.5, 0.2], [5.9, 2.8, 4.3, 1.3], [6.6, 3.0, 5.6, 2.0]])
    stds = np.array([[0.35, 0.38, 0.17, 0.10], [0.52, 0.31, 0.47, 0.20],
                     [0.64, 0.32, 0.55, 0.27]])
    names = ("setosa-like", "versicolor-like", "virginica-like")

    def _draw(self, rng, per_class: int) -> tuple[list[list[str]], np.ndarray, list[str]]:
        rows, labels = [], []
        for c, name in enumerate(self.names):
            for r in rng.normal(self.means[c], self.stds[c], size=(per_class, 4)):
                rows.append([f"{v:.2f}" for v in r])
                labels.append(name)
        order = rng.permutation(len(rows))
        rows = [rows[i] for i in order]
        labels = [labels[i] for i in order]
        raw = np.array([[float(c) for c in r] for r in rows])
        return rows, raw, labels

    def write_inputs(self) -> None:
        rows, raw, labels = self._draw(self._rng(1), self.n_rows // len(self.names))
        _write_rows(self.work / "data.csv", [r + [l] for r, l in zip(rows, labels)])
        self.lo, self.hi = raw.min(axis=0), raw.max(axis=0)
        _, self.holdout_raw, holdout_labels = self._draw(self._rng(2), self.holdout_per_class)
        self.holdout_labels = np.array(holdout_labels, dtype=object)

    def section(self) -> dict:
        return {
            "dataset": {"path": str(self.work / "data.csv"), "target_column": -1},
            "expansion": {"order": 1},
            "model": {"mode": "classification", "units_per_class": 2},
            "split": {"train_fraction": self.train_fraction, "stratified": True},
        }

    def n_train(self) -> int:
        # stratified: the split is made per class
        per_class = self.n_rows // len(self.names)
        return len(self.names) * _train_count(per_class, self.train_fraction)

    def score(self, model: ref.RefModel) -> float:
        out = ref.forward(model, ref.normalize(self.holdout_raw, self.lo, self.hi))
        return float(np.mean(out.values == self.holdout_labels))

    def quality(self) -> tuple[bool, dict]:
        accs = [acc for _, acc in self.scores.values()]
        median = statistics.median(accs) if accs else float("nan")
        return median >= self.bound, {
            "holdout_accuracy_median": median, "holdout_accuracy_min": min(accs, default=None),
            "bound": f"median >= {self.bound}"}


class TrainNoise10k(Training):
    """c08 shape: 10,000 rows of sin(2 pi x) + N(0, 0.1^2), K=3, M=4, pop 60.

    N_train is 7000, so the fitness kernel does most of the work.  At 100
    generations a single GA seed sometimes stops short of the c08 bound,
    so the bound is applied, as in the program's own multi-seed studies,
    to the round's model with the lowest training RMSE.
    """

    name = "train-noise-10k"
    setup_repeats = 9    # a set-up takes about 0.25 s
    generations = 100
    op_seeds_per_round = 3
    n_rows = 10_000
    holdout_rows = 2_000
    sigma = 0.1
    bounds = (0.08, 0.13)   # c08: held-out residual std of the best-trained seed

    def _draw(self, rng, n: int) -> tuple[np.ndarray, np.ndarray]:
        x = rng.uniform(0.0, 1.0, n)
        return x, np.sin(2.0 * np.pi * x) + rng.normal(0.0, self.sigma, n)

    def write_inputs(self) -> None:
        x, y = self._draw(self._rng(1), self.n_rows)
        cells = [_fmt([v]) for v in x]
        _write_rows(self.work / "data.csv", [c + _fmt([t]) for c, t in zip(cells, y)])
        x = np.array([float(c[0]) for c in cells])   # as the program reads them
        self.lo, self.hi = x.min(keepdims=True), x.max(keepdims=True)
        x_out, self.holdout_targets = self._draw(self._rng(2), self.holdout_rows)
        self.holdout_raw = x_out[:, None]

    def section(self) -> dict:
        return {
            "dataset": {"path": str(self.work / "data.csv"), "target_column": -1},
            "expansion": {"order": 3},
            "model": {"mode": "regression", "units": 4},
            "split": {"train_fraction": self.train_fraction},
        }

    def score(self, model: ref.RefModel) -> float:
        out = ref.forward(model, ref.normalize(self.holdout_raw, self.lo, self.hi))
        return float(np.std(self.holdout_targets - out.values))

    def quality(self) -> tuple[bool, dict]:
        if not self.scores:
            return False, {}
        stds = [std for _, std in self.scores.values()]
        best = min(self.scores.values(), key=lambda s: s[0]["train_rmse"])[1]
        lo, hi = self.bounds
        return lo <= best <= hi, {
            "holdout_residual_std_of_best_trained": best,
            "holdout_residual_std_range": [min(stds), max(stds)],
            "bound": f"{lo} <= std of the lowest train_rmse seed <= {hi}"}


# --- serving workload -------------------------------------------------------

class ServeMixed(Workload):
    """Single-row and 20k-row predict/eval requests against one trained f2 model.

    The model and the single-row requests are the same for every seed:
    single-row ``predict`` fails on every row today (each file is
    normalized by its own range), and keeping its inputs apart from the
    seed keeps that failure a fixed share of the run.  The seed draws the
    20k-row files and where the two large requests sit in the round.
    """

    name = "serve-mixed"
    known_failing = ("predict-1",)   # per-file normalization, see the class doc
    train_rows = 1000
    model_generations = 40
    batch_rows = 20_000
    single_requests = 100

    @staticmethod
    def _f2(x: np.ndarray) -> np.ndarray:
        return x[:, 0] * x[:, 1] + np.sin(np.pi * x[:, 0])

    def _within_range(self, rng, n: int) -> np.ndarray:
        return self.lo + rng.uniform(0.0, 1.0, (n, 2)) * (self.hi - self.lo)

    def setup(self, main) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        fixed = np.random.default_rng([0, 10])   # not the run seed, see above
        x = fixed.uniform(0.0, 1.0, (self.train_rows, 2))
        train_cells = [_fmt(r) for r in x]
        _write_rows(self.work / "f2.csv",
                    [c + _fmt([y]) for c, y in zip(train_cells, self._f2(x))])
        # the program reads back exactly these floats
        x = np.array([[float(v) for v in c] for c in train_cells])
        self.lo, self.hi = x.min(axis=0), x.max(axis=0)
        config = {
            "task": "bench-serve-model",
            "dataset": {"path": str(self.work / "f2.csv"), "target_column": -1},
            "expansion": {"order": 3},
            "model": {"mode": "regression", "units": 4},
            "ga": {"population_size": 60, "generations": self.model_generations,
                   "fitness_stagnation_patience": self.model_generations},
            "split": {"train_fraction": 0.7},
        }
        (self.work / "serve-config.json").write_text(json.dumps(config), encoding="utf-8")
        self.model_path = self.work / "model" / "model.json"
        self._require(main, Op("train", ["--seed", "0", "--out-dir",
                                         str(self.model_path.parent), "train",
                                         str(self.work / "serve-config.json")],
                               0, lambda out: None))
        model = ref.load_model(self.model_path)

        singles = self._within_range(np.random.default_rng([0, 11]), self.single_requests)
        self.singles = []
        for i, row in enumerate(singles):
            path = self.work / "single" / f"{i:03d}.csv"
            path.parent.mkdir(exist_ok=True)
            _write_rows(path, [_fmt(row)])
            want = ref.forward(model, ref.normalize(row[None, :], self.lo, self.hi))
            self.singles.append((path, want))

        # the training min and max rows make each batch file's own range
        # equal to the training range, so batch answers do not depend on
        # the per-file normalization fault
        rng = self._rng(3)
        batches = {}
        for kind in ("predict", "eval"):
            xb = self._within_range(rng, self.batch_rows)
            at_lo, at_hi = rng.choice(self.batch_rows, size=2, replace=False)
            xb[at_lo], xb[at_hi] = self.lo, self.hi
            batches[kind] = xb
        # eval reports scores over all rows, so no row of its file may tie
        # within rounding; tied rows (never the pinned ones) are drawn again
        xb = batches["eval"]
        for _ in range(100):
            tied = ref.forward(model, ref.normalize(xb, self.lo, self.hi)).tie
            tied[[at_lo, at_hi]] = False
            if not tied.any():
                break
            xb[tied] = self._within_range(rng, int(tied.sum()))
        self.batch_predict = self.work / "batch-predict.csv"
        _write_rows(self.batch_predict, [_fmt(r) for r in batches["predict"]])
        self.batch_predict_want = ref.forward(
            model, ref.normalize(batches["predict"], self.lo, self.hi))
        self.batch_eval = self.work / "batch-eval.csv"
        targets = self._f2(batches["eval"])
        _write_rows(self.batch_eval,
                    [_fmt(r) + _fmt([t]) for r, t in zip(batches["eval"], targets)])
        got = ref.forward(model, ref.normalize(batches["eval"], self.lo, self.hi))
        self.eval_tie_free = not got.tie.any()
        if not self.eval_tie_free:
            print(f"info eval_check_skipped {int(got.tie.sum())} tied rows in the eval file")
        self.batch_eval_want = ref.regression_scores(got.values, targets)
        slots = self.single_requests + 2
        self.order = rng.permutation(slots)   # position of each request in the round
        # first call of the predict path before timing starts
        path, _ = self.singles[0]
        self._require(main, Op("warmup", self._predict_argv(path, self.work / "warm.csv"),
                               0, lambda out: None))

    def _predict_argv(self, data: Path, output: Path) -> list[str]:
        return ["predict", str(self.model_path), str(data), "-o", str(output)]

    def round_ops(self) -> list[Op]:
        single_out = self.work / "single-out.csv"
        batch_out = self.work / "batch-out.csv"

        def single_check(want):
            return lambda out: ref.compare_outputs(ref.read_last_column(single_out), want)

        def eval_check(out: str) -> str | None:
            if not self.eval_tie_free:
                return None  # a tied row may legitimately change the scores
            return ref.compare_scores(json.loads(out), self.batch_eval_want)

        requests = [Op("predict-1", self._predict_argv(path, single_out), 1,
                       single_check(want)) for path, want in self.singles]
        requests.append(Op("predict-20k", self._predict_argv(self.batch_predict, batch_out),
                           self.batch_rows,
                           lambda out: ref.compare_outputs(ref.read_last_column(batch_out),
                                                           self.batch_predict_want)))
        requests.append(Op("eval-20k", ["eval", str(self.model_path), str(self.batch_eval)],
                           self.batch_rows, eval_check))
        return [requests[i] for i in self.order]

    def quality(self) -> tuple[bool, dict]:
        # the served model's held-out scores, by the reference forward
        return True, {"batch_eval_reference": self.batch_eval_want}


WORKLOADS = {w.name: w for w in (TrainIris, TrainNoise10k, ServeMixed)}
