import json
from dataclasses import asdict, replace

import numpy as np
import pytest

from wtanet import (
    Dataset,
    Density,
    Expansion,
    ExpansionSpec,
    GaConfig,
    Model,
    PhaseError,
    RunConfig,
    config_digest,
    density_check,
    gen_function,
    least_squares_oracle,
    run_experiment,
)


def linear_dataset(n=50, slope=2.0, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, size=(n, 1))
    return Dataset(
        inputs=x,
        targets=slope * x[:, 0],
        normalization=np.array([[0.0, 1.0]]),
        provenance="test:linear",
    )


class TestLeastSquaresOracle:
    def test_recovers_exact_linear_target(self):
        ds = linear_dataset()
        fit = least_squares_oracle(ds, ExpansionSpec(input_dim=1, order=0))
        assert fit.rmse <= 1e-9
        assert fit.weights[0] == pytest.approx(2.0, abs=1e-9)   # slope
        assert fit.weights[1] == pytest.approx(0.0, abs=1e-9)   # intercept
        assert not fit.rank_deficient

    def test_sin_2pi_exact_at_order_two(self):
        # sin(2*pi*x) is the k=2 harmonic, so the order-2 basis nails it
        ds = gen_function("f1", 200, seed=1)
        fit = least_squares_oracle(ds, ExpansionSpec(input_dim=1, order=2))
        assert fit.rmse <= 1e-9

    def test_order_one_basis_cannot_represent_f1_exactly(self):
        # the k=1 harmonics approximate but cannot span sin(2*pi*x)
        ds = gen_function("f1", 200, seed=2)
        fit = least_squares_oracle(ds, ExpansionSpec(input_dim=1, order=1))
        assert fit.rmse > 1e-6

    def test_noise_floor_matches_sigma(self):
        # residual-equals-noise statistics oracle
        ds = gen_function("f1", 10_000, seed=3, sigma=0.1)
        fit = least_squares_oracle(ds, ExpansionSpec(input_dim=1, order=2))
        assert 0.095 <= fit.rmse <= 0.105

    def test_rank_deficient_design_is_flagged(self):
        # a constant feature normalizes to an all-zero column
        rng = np.random.default_rng(4)
        x = np.column_stack([rng.uniform(0, 1, 40), np.zeros(40)])
        ds = Dataset(
            inputs=x, targets=x[:, 0],
            normalization=np.array([[0.0, 1.0], [5.0, 5.0]]),
            provenance="test:constant-col",
        )
        fit = least_squares_oracle(ds, ExpansionSpec(input_dim=2, order=0))
        assert fit.rank_deficient
        assert fit.rmse <= 1e-9

    def test_needs_more_rows_than_columns(self):
        ds = linear_dataset(n=5)
        with pytest.raises(ValueError, match="more rows than columns"):
            least_squares_oracle(ds, ExpansionSpec(input_dim=1, order=3))

    def test_rejects_classification(self):
        ds = linear_dataset()
        clf = Dataset(
            inputs=ds.inputs, targets=np.zeros(ds.n_samples, dtype=int),
            normalization=ds.normalization,
            provenance="test", label_names=("a",),
        )
        with pytest.raises(ValueError, match="regression"):
            least_squares_oracle(clf, ExpansionSpec(input_dim=1, order=0))


def small_config(seed=0, **overrides):
    doc = {
        "task": "unit-test",
        "dataset": {"generator": "f1", "n_samples": 60},
        "expansion": {"order": 2},
        "model": {"units": 2, "mode": "regression"},
        "ga": {"population_size": 10, "generations": 5},
        "split": {"train_fraction": 0.7},
        "seed": seed,
    }
    doc.update(overrides)
    return RunConfig.from_dict(doc)


class TestRunExperiment:
    def test_zero_generations_still_reports(self):
        config = small_config(ga={"population_size": 8, "generations": 0})
        result = run_experiment(config)
        assert "rmse" in result.report.metrics
        assert result.report.training["generations_run"] == 0

    def test_no_out_dir_writes_no_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run_experiment(small_config())
        assert list(tmp_path.iterdir()) == []

    def test_rerun_identical_except_wall_time(self, tmp_path):
        config = small_config(seed=5)
        a = run_experiment(config, out_dir=tmp_path / "a")
        b = run_experiment(config, out_dir=tmp_path / "b")
        da, db = asdict(a.report), asdict(b.report)
        da.pop("wall_time_s"), db.pop("wall_time_s")
        assert da == db
        assert (tmp_path / "a/model.json").read_bytes() == \
            (tmp_path / "b/model.json").read_bytes()
        assert (tmp_path / "a/trace.csv").read_bytes() == \
            (tmp_path / "b/trace.csv").read_bytes()
        ra = json.loads((tmp_path / "a/report.json").read_text())
        rb = json.loads((tmp_path / "b/report.json").read_text())
        ra.pop("wall_time_s"), rb.pop("wall_time_s")
        assert ra == rb

    def test_report_files_written(self, tmp_path):
        config = small_config()
        run_experiment(config, out_dir=tmp_path)
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "model.json").exists()
        header = (tmp_path / "trace.csv").read_text().splitlines()[0]
        assert header == "generation,best,mean"

    def test_classification_run(self, iris_like_csv, tmp_path):
        config = RunConfig.from_dict({
            "dataset": {"path": str(iris_like_csv), "target_column": -1},
            "expansion": {"order": 1},
            "model": {"mode": "classification", "units_per_class": 1},
            "ga": {"population_size": 12, "generations": 10},
            "split": {"train_fraction": 0.7, "stratified": True},
            "seed": 2,
        })
        result = run_experiment(config, out_dir=tmp_path)
        report = result.report
        assert 0.0 <= report.metrics["accuracy"] <= 1.0
        confusion = np.array(report.confusion)
        # rows are true classes, so row sums equal the per-class test counts
        np.testing.assert_array_equal(
            confusion.sum(axis=1),
            np.bincount(result.test_data.targets, minlength=3),
        )
        assert report.metrics["accuracy"] == confusion.trace() / confusion.sum()
        assert result.model.class_names == result.test_data.label_names

    def test_oracle_lower_bounds_single_unit_training(self):
        # the in-sample optimum bounds any identity-activation model fit
        config = small_config(
            seed=8,
            dataset={"generator": "f1", "n_samples": 80,
                     "noise": {"kind": "constant", "sigma": 0.1}},
            model={"units": 1, "mode": "regression"},
            ga={"population_size": 20, "generations": 30},
        )
        result = run_experiment(config)
        oracle = least_squares_oracle(
            result.train_data, ExpansionSpec(input_dim=1, order=2)
        )
        assert result.report.training["train_rmse"] >= oracle.rmse - 1e-9

    def test_phase_error_names_data_phase(self):
        config = small_config(dataset={"path": "/nonexistent/x.csv"})
        with pytest.raises(PhaseError, match=r"\[data\]"):
            run_experiment(config)

    def test_phase_error_names_train_phase(self):
        config = small_config(model={"units": 0, "mode": "regression"})
        with pytest.raises(PhaseError, match=r"\[train\]"):
            run_experiment(config)


class TestConfigDigest:
    def test_key_order_does_not_matter(self):
        a = RunConfig.from_dict(json.loads(
            '{"dataset": {"generator": "f1", "n_samples": 60},'
            ' "expansion": {"order": 2}, "model": {"units": 2, "mode": "regression"},'
            ' "seed": 1}'
        ))
        b = RunConfig.from_dict(json.loads(
            '{"seed": 1, "model": {"mode": "regression", "units": 2},'
            ' "expansion": {"order": 2},'
            ' "dataset": {"n_samples": 60, "generator": "f1"}}'
        ))
        assert config_digest(a) == config_digest(b)

    @pytest.mark.parametrize("bare, explicit", [
        ({"model": {"units": 2}}, {"model": {"units": 2, "mode": "regression"}}),
        ({"dataset": {"generator": "mackey_glass", "length": 200, "window": 4}},
         {"dataset": {"generator": "mackey_glass", "length": 200, "window": 4,
                      "horizon": 1}}),
        ({"ga": {"crossover_rate": 1}}, {"ga": {"crossover_rate": 1.0}}),
    ], ids=["model-mode", "mackey-glass-horizon", "int-for-float"])
    def test_defaults_and_explicit_values_hash_alike(self, bare, explicit):
        # the digest covers the resolved config, defaults filled in
        assert config_digest(small_config(**bare)) == \
            config_digest(small_config(**explicit))

    def test_any_change_changes_digest(self):
        base = small_config(seed=0)
        assert config_digest(base) != config_digest(replace(base, seed=1))

    def test_missing_sections_rejected(self):
        with pytest.raises(ValueError, match="dataset"):
            RunConfig.from_dict({"expansion": {"order": 1}, "model": {"units": 1}})


class TestDensityCheck:
    def test_oracle_sequence_exactly_non_increasing(self):
        ds = gen_function("f1", 120, seed=6)
        report = density_check(
            ds, Density(k_values=(0, 1, 2), seeds=(0, 1, 2)), Model(units=1),
            Expansion(order=0), GaConfig(population_size=6, generations=2),
        )
        oracle = report.oracle_rmse
        # nested bases make the oracle sequence strictly drop here
        assert all(b < a for a, b in zip(oracle, oracle[1:]))
        # representable exactly from order 2 on
        assert oracle[2] <= 1e-9
        assert oracle[1] > 1e-6

    def test_ga_variant_non_increasing_within_slack(self):
        # full-run check: a richer basis never hurts the best-of-seeds fit
        ds = gen_function("f1", 100, seed=5)
        report = density_check(
            ds, Density(k_values=(1, 2, 4), seeds=(0, 1, 2, 3, 4)), Model(units=4),
            Expansion(order=1), GaConfig(generations=300, fitness_stagnation_patience=100),
        )
        assert report.non_increasing
        assert all(
            b <= a + report.slack
            for a, b in zip(report.ga_rmse, report.ga_rmse[1:])
        )

    def test_rejects_classification(self):
        ds = linear_dataset()
        clf = Dataset(inputs=ds.inputs, targets=np.zeros(ds.n_samples, dtype=int),
                      normalization=ds.normalization, provenance="test", label_names=("a",))
        with pytest.raises(ValueError, match="^density_check requires a regression dataset$"):
            density_check(clf, Density(k_values=(0, 1), seeds=(0, 1, 2)),
                          Model(units=1), Expansion(order=0), GaConfig())

    def test_requires_increasing_orders_and_three_seeds(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Density(k_values=(2, 1), seeds=(0, 1, 2))
        with pytest.raises(ValueError, match="3 seeds"):
            Density(k_values=(0, 1), seeds=(0, 1))
