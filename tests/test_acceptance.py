"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
line per criterion.  Budgets are wall-clock seconds on a laptop-class
machine.
"""

import itertools
import time

import numpy as np

from wtanet import (
    ExpansionSpec,
    GaConfig,
    ModelShape,
    RunConfig,
    decode,
    encode,
    gen_function,
    kwta,
    least_squares_oracle,
    run_experiment,
    solve_box_lp,
    solve_ksum_lp,
    solve_simplex_lp,
    train,
    window_series,
    wta,
)

from conftest import write_iris_like_csv


def verdict(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def run_config(doc, **kwargs):
    return run_experiment(RunConfig.from_dict(doc), **kwargs)


def test_c01_curve_fitting_f1():
    """f1, 100 samples, K=3, M=4, GA defaults, 3 seeds: best test RMSE <= 0.05."""
    budget_s = 60.0
    results, times = [], []
    for seed in (0, 1, 2):
        t0 = time.perf_counter()
        res = run_config({
            "dataset": {"generator": "f1", "n_samples": 100},
            "expansion": {"order": 3},
            "model": {"units": 4, "mode": "regression"},
            "split": {"train_fraction": 0.7},
            "seed": seed,
        })
        times.append(time.perf_counter() - t0)
        results.append(res.report.metrics["rmse"])
    best = min(results)
    ok = best <= 0.05 and max(times) <= budget_s
    verdict(
        "criterion 1 (curve fitting)",
        ok,
        f"best test RMSE {best:.4f} <= 0.05; "
        f"max runtime {max(times):.1f}s <= {budget_s:.0f}s",
    )


def test_c02_oracle_dominance_and_proximity():
    """GA training RMSE within [oracle, 1.10*oracle] on noisy f1, M=1, K=3.

    The proximity factor needs a nonzero oracle floor, so the dataset
    carries constant sigma=0.1 noise; on noiseless f1 the oracle RMSE is
    ~1e-16 and no stochastic search could sit within 10% of it.
    """
    dataset = gen_function("f1", 100, seed=1001, sigma=0.1)
    spec = ExpansionSpec(input_dim=1, order=3)
    oracle = least_squares_oracle(dataset, spec)
    shape = ModelShape(spec=spec, n_units=1)
    ratios = []
    dominance_ok = True
    for seed in range(5):
        trace = train(shape, dataset, GaConfig(), seed)
        ga_rmse = float(np.sqrt(-trace.best_fitness_value))
        dominance_ok &= ga_rmse >= oracle.rmse - 1e-9
        ratios.append(ga_rmse / oracle.rmse)
    best_ratio = min(ratios)
    ok = dominance_ok and best_ratio <= 1.10
    verdict(
        "criterion 2 (oracle dominance/proximity)",
        ok,
        f"oracle RMSE {oracle.rmse:.4f}; every seed >= oracle: {dominance_ok}; "
        f"best ratio {best_ratio:.4f} <= 1.10 (5 seeds)",
    )


def test_c03_representability_at_order_two():
    """Least-squares oracle on noiseless f1 with K=2 is exact (<= 1e-9)."""
    dataset = gen_function("f1", 200, seed=2002)
    fit = least_squares_oracle(dataset, ExpansionSpec(input_dim=1, order=2))
    ok = fit.rmse <= 1e-9
    verdict(
        "criterion 3 (representability)",
        ok,
        f"oracle RMSE {fit.rmse:.2e} <= 1e-9 at order 2",
    )


def test_c04_classification_iris_format(tmp_path):
    """Iris-format CSV, 70/30 stratified, M=6 (2/class), K=1, 5 seeds."""
    budget_s = 120.0
    csv_path = write_iris_like_csv(tmp_path / "iris_like.csv")
    accs, times = [], []
    for seed in range(5):
        t0 = time.perf_counter()
        res = run_config({
            "dataset": {"path": str(csv_path), "target_column": -1},
            "expansion": {"order": 1},
            "model": {"mode": "classification", "units_per_class": 2},
            "split": {"train_fraction": 0.7, "stratified": True},
            "seed": seed,
        })
        times.append(time.perf_counter() - t0)
        accs.append(res.report.metrics["accuracy"])
    median = float(np.median(accs))
    ok = median >= 0.90 and max(times) <= budget_s
    verdict(
        "criterion 4 (classification)",
        ok,
        f"median test accuracy {median:.4f} >= 0.90 over 5 seeds; "
        f"max runtime {max(times):.1f}s <= {budget_s:.0f}s",
    )


def test_c05_k_selector_against_sort_oracle():
    """1000 random instances with n <= 64 match the sort oracle exactly."""
    rng = np.random.default_rng(55)
    instances = []
    for _ in range(1000):
        n = int(rng.integers(1, 65))
        if rng.random() < 0.5:
            x = rng.integers(0, 8, size=n).astype(float)  # tie-heavy
        else:
            x = rng.uniform(-10, 10, size=n)
        instances.append((x, int(rng.integers(1, n + 1))))

    t0 = time.perf_counter()
    exact = 0
    for x, k in instances:
        winners = list(kwta(x, k).winners)
        oracle = [
            i for i, _ in sorted(enumerate(x), key=lambda p: (-p[1], p[0]))[:k]
        ]
        exact += winners == oracle
    elapsed = time.perf_counter() - t0
    ok = exact == 1000 and elapsed < 1.0
    verdict(
        "criterion 5 (k-selector)",
        ok,
        f"{exact}/1000 exact matches vs sort oracle in {elapsed:.3f}s < 1s",
    )


def test_c06_lp_against_enumeration_oracles():
    """Simplex/box instances match vertex/corner enumeration; ksum matches C(n,k)."""
    rng = np.random.default_rng(66)

    simplex_ok = 0
    for _ in range(1000):
        c = rng.uniform(-5, 5, size=int(rng.integers(1, 30)))
        sol = solve_simplex_lp(c)
        simplex_ok += sol.objective == max(float(v) for v in c)

    box_ok = 0
    for _ in range(1000):
        n = int(rng.integers(1, 20))
        lower = rng.uniform(-4, 0, size=n)
        upper = lower + rng.uniform(0, 4, size=n)
        c = rng.uniform(-3, 3, size=n)
        sol = solve_box_lp(c, lower, upper)
        corner = np.where(c * upper > c * lower, upper, lower)
        box_ok += sol.objective == float(np.dot(c, corner))

    ksum_ok = 0
    for _ in range(200):
        n = int(rng.integers(2, 13))
        c = rng.uniform(-3, 3, size=n)
        k = int(rng.integers(1, n + 1))
        sol = solve_ksum_lp(c, k)
        best = -np.inf
        for support in itertools.combinations(range(n), k):
            x = np.zeros(n)
            x[list(support)] = 1.0
            best = max(best, float(np.dot(c, x)))
        ksum_ok += sol.objective == best

    ok = simplex_ok == 1000 and box_ok == 1000 and ksum_ok == 200
    verdict(
        "criterion 6 (linear programs)",
        ok,
        f"simplex {simplex_ok}/1000, box {box_ok}/1000, ksum {ksum_ok}/200 exact",
    )


def test_c07_mackey_glass_prediction():
    """MG series (1500, w=4, h=1), K=2, M=4: best test NRMSE <= 0.35, 3 seeds."""
    budget_s = 120.0
    nrmses, times = [], []
    for seed in (0, 1, 2):
        t0 = time.perf_counter()
        res = run_config({
            "dataset": {"generator": "mackey_glass", "length": 1500,
                        "window": 4, "horizon": 1},
            "expansion": {"order": 2},
            "model": {"units": 4, "mode": "regression"},
            "ga": {"population_size": 100, "generations": 600,
                   "fitness_stagnation_patience": 150},
            "split": {"train_fraction": 0.7},
            "seed": seed,
        })
        times.append(time.perf_counter() - t0)
        nrmses.append(res.report.metrics["nrmse"])
    best = min(nrmses)
    ok = best <= 0.35 and max(times) <= budget_s
    verdict(
        "criterion 7 (series prediction)",
        ok,
        f"best test NRMSE {best:.4f} <= 0.35; "
        f"max runtime {max(times):.1f}s <= {budget_s:.0f}s",
    )


def test_c08_noise_studies():
    """Constant noise recovers its sigma; heteroscedastic residuals grow with x."""
    res = run_config({
        "dataset": {"generator": "f1", "n_samples": 10_000,
                    "noise": {"kind": "constant", "sigma": 0.1}},
        "expansion": {"order": 3},
        "model": {"units": 4, "mode": "regression"},
        "split": {"train_fraction": 0.7},
        "seed": 8,
    })
    constant_std = float(np.std(res.test_data.targets - res.outputs))

    res_h = run_config({
        "dataset": {"generator": "f1", "n_samples": 10_000,
                    "noise": {"kind": "linear", "sigma": 0.3}},
        "expansion": {"order": 3},
        "model": {"units": 4, "mode": "regression"},
        "split": {"train_fraction": 0.7},
        "seed": 8,
    })
    x = res_h.test_data.inputs[:, 0]
    residuals = res_h.test_data.targets - res_h.outputs
    bin_stds = [
        float(np.std(residuals[(x >= lo) & (x < hi)]))
        for lo, hi in ((0.0, 1 / 3), (1 / 3, 2 / 3), (2 / 3, 1.01))
    ]
    increasing = bin_stds[0] < bin_stds[1] < bin_stds[2]

    ok = 0.08 <= constant_std <= 0.13 and increasing
    verdict(
        "criterion 8 (noise studies)",
        ok,
        f"constant-noise residual std {constant_std:.4f} in [0.08, 0.13]; "
        f"heteroscedastic bin stds {[f'{s:.3f}' for s in bin_stds]} increasing",
    )


def test_c09_determinism_suite(tmp_path):
    """Identical config -> bit-identical model files, metrics and traces."""
    doc = {
        "dataset": {"generator": "f1", "n_samples": 60},
        "expansion": {"order": 2},
        "model": {"units": 3, "mode": "regression"},
        "ga": {"population_size": 20, "generations": 25},
        "split": {"train_fraction": 0.7},
        "seed": 99,
    }
    config = RunConfig.from_dict(doc)
    a = run_experiment(config, out_dir=tmp_path / "a")
    b = run_experiment(config, out_dir=tmp_path / "b")

    models_equal = (
        (tmp_path / "a/model.json").read_bytes()
        == (tmp_path / "b/model.json").read_bytes()
    )
    metrics_equal = a.report.metrics == b.report.metrics
    traces_equal = (
        (tmp_path / "a/trace.csv").read_bytes()
        == (tmp_path / "b/trace.csv").read_bytes()
    )
    ok = models_equal and metrics_equal and traces_equal
    verdict(
        "criterion 9 (determinism)",
        ok,
        f"model files identical: {models_equal}; metrics identical: "
        f"{metrics_equal}; traces identical: {traces_equal} (two runs)",
    )


def test_c10_invariant_suite():
    """Randomized property checks, >= 1000 cases per invariant."""
    rng = np.random.default_rng(1010)

    wta_cases = 0
    for _ in range(1000):
        x = rng.uniform(-5, 5, size=int(rng.integers(2, 40)))
        shift = float(rng.uniform(-50, 50))
        scale = float(rng.uniform(0.01, 20))
        base = wta(x)
        wta_cases += base == wta(x + shift) == wta(x * scale)

    nesting_cases = 0
    for _ in range(1000):
        n = int(rng.integers(2, 40))
        x = rng.uniform(-1, 1, size=n)
        k = int(rng.integers(1, n))
        nesting_cases += set(kwta(x, k).winners) < set(kwta(x, k + 1).winners)

    # elitism monotonicity: 100 consecutive-generation pairs per run, 10 runs
    monotone_cases = 0
    for run in range(10):
        dataset = gen_function("f1", 25, seed=run, sigma=0.1)
        shape = ModelShape(
            spec=ExpansionSpec(input_dim=1, order=int(rng.integers(0, 3))),
            n_units=int(rng.integers(1, 4)),
        )
        config = GaConfig(
            population_size=10, generations=101,
            fitness_stagnation_patience=10_000,
        )
        trace = train(shape, dataset, config, run)
        pairs = zip(trace.best_fitness, trace.best_fitness[1:])
        monotone_cases += sum(b >= a for a, b in pairs)

    roundtrip_cases = 0
    for _ in range(1000):
        shape = ModelShape(
            spec=ExpansionSpec(
                input_dim=int(rng.integers(1, 4)),
                order=int(rng.integers(0, 4)),
                include_bias=bool(rng.integers(0, 2)),
            ),
            n_units=int(rng.integers(1, 5)),
        )
        genes = rng.uniform(-3, 3, size=shape.n_genes)
        roundtrip_cases += encode(decode(genes, shape)).tobytes() == genes.tobytes()

    inversion_cases = 0
    for _ in range(1000):
        length = int(rng.integers(8, 40))
        w = int(rng.integers(1, 5))
        series = rng.uniform(-100, 100, size=length)
        ds = window_series(series, w, 1)
        raw = np.stack([series[i:i + w] for i in range(ds.n_samples)])
        inversion_cases += bool(
            np.allclose(ds.denormalized_inputs(), raw, rtol=1e-12, atol=1e-12)
            and ds.inputs.min() >= 0.0
            and ds.inputs.max() <= 1.0
        )

    ok = (
        wta_cases == 1000
        and nesting_cases == 1000
        and monotone_cases == 1000
        and roundtrip_cases == 1000
        and inversion_cases == 1000
    )
    verdict(
        "criterion 10 (invariant suite)",
        ok,
        f"wta invariance {wta_cases}/1000, kwta nesting {nesting_cases}/1000, "
        f"elitism monotonicity {monotone_cases}/1000, encode/decode "
        f"{roundtrip_cases}/1000, normalization inversion {inversion_cases}/1000",
    )
