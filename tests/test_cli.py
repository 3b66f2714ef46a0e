import copy
import csv
import errno
import io
import json
import math
import os
import re
import shutil
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from wtanet import (
    ExpansionSpec,
    ModelShape,
    SplitSpec,
    WtaModel,
    load_csv,
    load_model,
    mae,
    model_to_dict,
    predict,
    rmse,
    save_model,
    split_dataset,
)
from wtanet import cli
from wtanet.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, **overrides):
    doc = {
        "task": "cli-test",
        "dataset": {"generator": "f1", "n_samples": 50},
        "expansion": {"order": 2},
        "model": {"units": 2, "mode": "regression"},
        "ga": {"population_size": 8, "generations": 4},
        "split": {"train_fraction": 0.7},
        "seed": 3,
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


class TestTrainCommand:
    def test_writes_artifacts_and_reports_metrics(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out_dir = tmp_path / "out"
        code, out, err = run_cli(capsys, "--out-dir", str(out_dir), "train", str(config))
        assert code == 0
        assert "rmse=" in out
        assert (out_dir / "report.json").exists()
        assert (out_dir / "model.json").exists()
        assert (out_dir / "trace.csv").exists()

    def test_out_dir_flag_overrides(self, tmp_path, capsys, monkeypatch):
        config = write_config(tmp_path)
        monkeypatch.chdir(tmp_path)
        other = tmp_path / "elsewhere"
        code, _, _ = run_cli(capsys, "--out-dir", str(other), "train", str(config))
        assert code == 0
        assert (other / "report.json").exists()
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("command, written", [("train", "report.json"),
                                                  ("density", "density.json")])
    def test_out_dir_defaults_to_working_directory(self, tmp_path, capsys, monkeypatch,
                                                   command, written):
        config = write_config(tmp_path, ga={"population_size": 8, "generations": 2},
                              density={"k_values": [0, 1], "seeds": [0, 1, 2]})
        monkeypatch.chdir(tmp_path)
        code, _, _ = run_cli(capsys, command, str(config))
        assert code == 0
        assert (tmp_path / written).exists()

    def test_seed_flag_overrides_config(self, tmp_path, capsys):
        config = write_config(tmp_path)
        run_cli(capsys, "--out-dir", str(tmp_path / "s3"), "train", str(config))
        run_cli(capsys, "--seed", "9", "--out-dir", str(tmp_path / "s9"),
                "train", str(config))
        a = json.loads((tmp_path / "s3" / "report.json").read_text())
        b = json.loads((tmp_path / "s9" / "report.json").read_text())
        assert a["seed"] == 3 and b["seed"] == 9
        assert a["config_digest"] != b["config_digest"]

    def test_missing_config_fails_with_io_category(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "train", str(tmp_path / "nope.json"))
        assert code == 1
        assert err.startswith("error:io:")

    def test_bad_json_fails_with_config_category(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "train", str(path))
        assert code == 1
        assert err.startswith("error:config:")

    @pytest.mark.parametrize("section, key", [
        ("", "sede"),
        ("model", "activaton"),
        ("expansion", "ordr"),
        ("split", "train_frac"),
        ("dataset", "n_sample"),
        ("split", "seed"),  # the top-level seed is the only one
        ("ga", "seed"),
        ("", "output"),  # --out-dir names the directory
        ("density", "slak"),
        ("dataset.noise", "knd"),
        ("dataset", "window"),  # a key of another source
    ])
    def test_unknown_config_key_rejected(self, tmp_path, capsys, section, key):
        path = write_config(
            tmp_path,
            dataset={"generator": "f1", "n_samples": 50,
                     "noise": {"kind": "constant", "sigma": 0.1}},
            density={"k_values": [0, 1], "seeds": [0, 1, 2]},
        )
        doc = json.loads(path.read_text())
        target = doc
        for name in filter(None, section.split(".")):
            target = target[name]
        target[key] = 1
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "--out-dir", str(tmp_path / "out"), "train",
                                 str(path))
        name = f"{section}.{key}" if section else key
        assert code == 1
        assert err == f"error:config: unknown key {name}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, change", [
        ("train", {"expansion": {"order": 2, "include_bias": "false"}}),
        ("train", {"expansion": {"order": 2.7}}),
        ("train", {"model": {"units": "2"}}),
        ("train", {"seed": 1.5}),
        ("train", {"ga": {"init_weight_range": [1]}}),
        ("train", None),  # the whole document is a list
        ("density", {"density": {"k_values": [0, 1]}}),
        ("density", {"model": {"mode": "classification", "units_per_class": 1},
                     "density": {"k_values": [0, 1], "seeds": [0, 1, 2]}}),
    ], ids=["include_bias-string", "order-float", "units-string", "seed-float",
            "weight-range-short", "top-level-list", "density-no-seeds",
            "density-classification"])
    def test_wrong_type_rejected(self, tmp_path, capsys, command, change):
        path = write_config(tmp_path, **(change or {}))
        if change is None:
            path.write_text(f"[{path.read_text()}]")
        code, out, err = run_cli(capsys, "--out-dir", str(tmp_path / "out"), command,
                                 str(path))
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("error:config: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, change, flags, message", [
        ("train", {"seed": -2}, [], "seed must be non-negative, got -2"),
        ("train", {}, ["--seed", "-5"], "seed must be non-negative, got -5"),
        ("density", {"density": {"k_values": [0, 1], "seeds": [0, 1]}}, [],
         "need at least 3 seeds, got 2"),
        ("density", {"density": {"k_values": [1, 1], "seeds": [0, 1, 2]}}, [],
         "k_values must be strictly increasing, got [1, 1]"),
        ("density", {"density": {"k_values": [0, 1], "seeds": [0, -1, 2]}}, [],
         "seeds must be non-negative, got [0, -1, 2]"),
        ("density", {"density": {"k_values": [0, 1], "seeds": [0, 0, 0]}}, [],
         "seeds must not repeat, got [0, 0, 0]"),
        ("density", {"density": {"k_values": [-1, 0], "seeds": [0, 1, 2]}}, [],
         "k_values must be non-negative, got [-1, 0]"),
        ("density", {"density": {"k_values": [0, 1], "seeds": [0, 1, 2], "slack": -1}}, [],
         "slack must be non-negative, got -1.0"),
        ("train", {"model": {"mode": "classification", "units_per_class": 2}}, [],
         "classification needs a CSV dataset with a class column"),
        ("train", {"model": {"mode": "classification", "units": 2}}, [],
         "units does not apply to classification models"),
        ("train", {"model": {"units": 2, "units_per_class": 1}}, [],
         "units_per_class does not apply to regression models"),
        ("train", {"model": {"mode": "classification", "units_per_class": 2,
                             "activation": "logistic"}}, [],
         "classification models take no output activation"),
        ("density", {}, [], "config is missing the 'density' section"),
        ("train", {"ga": {"generations": -1}}, [], "generations must be >= 0, got -1"),
        ("train", {"ga": {"tournament_size": 0}}, [], "tournament_size must be >= 1, got 0"),
        ("train", {"ga": {"mutation_rate": 1.5}}, [], "mutation_rate must be in [0, 1], got 1.5"),
        ("train", {"ga": {"mutation_rate": -0.1}}, [],
         "mutation_rate must be in [0, 1], got -0.1"),
        ("train", {"ga": {"blx_alpha": -0.5}}, [], "blx_alpha must be >= 0, got -0.5"),
        ("train", {"ga": {"mutation_sigma_initial": -1}}, [],
         "mutation_sigma_initial must be >= 0"),
        ("train", {"ga": {"init_weight_range": [1, 1]}}, [],
         "init_weight_range must be (lo, hi) with lo < hi and a finite hi - lo, got (1.0, 1.0)"),
        # rng.uniform would raise OverflowError on this width
        ("train", {"ga": {"init_weight_range": [-1e308, 1e308]}}, [],
         "init_weight_range must be (lo, hi) with lo < hi and a finite hi - lo, "
         "got (-1e+308, 1e+308)"),
        ("train", {"ga": {"fitness_stagnation_patience": 0}}, [],
         "fitness_stagnation_patience must be >= 1"),
    ], ids=["seed-negative", "seed-flag-negative", "density-two-seeds",
            "density-orders-repeat", "density-seed-negative", "density-seeds-repeat",
            "density-order-negative", "density-slack-negative",
            "classification-generator", "classification-units",
            "regression-units-per-class", "classification-activation", "density-no-section",
            "generations-negative", "tournament-empty", "mutation-rate-above-one",
            "mutation-rate-negative", "blx-alpha-negative", "mutation-sigma-negative",
            "weight-range-empty", "weight-range-overflows", "patience-zero"])
    def test_invalid_value_rejected(self, tmp_path, capsys, command, change,
                                    flags, message):
        path = write_config(tmp_path, **change)
        code, out, err = run_cli(capsys, *flags, "--out-dir", str(tmp_path / "out"),
                                 command, str(path))
        assert code == 1
        assert err == f"error:config: {message}\n"
        assert not (tmp_path / "out").exists()


# a small valid f1 config, and what fuzzing may put into it
FUZZ_BASE = {
    "task": "fuzz",
    "dataset": {"generator": "f1", "n_samples": 12},
    "expansion": {"order": 1},
    "model": {"units": 2},
    "ga": {"population_size": 4, "generations": 2},
    "split": {"train_fraction": 0.5},
    "seed": 0,
}
FUZZ_KEYS = sorted(
    set(FUZZ_BASE) | {k for v in FUZZ_BASE.values() if isinstance(v, dict) for k in v}
    | {"mode", "units_per_class", "activation", "include_bias", "noise", "sigma",
       "kind", "window", "path", "series", "stratified", "elitism_count",
       "init_weight_range", "mutation_rate", "density", "format_version",
       "bogus"}
)
# small magnitudes only: a mutated size must not make a large run
FUZZ_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 12),
    st.floats(-3, 12, allow_nan=False), st.just(float("nan")),
    st.sampled_from(["f1", "f2", "mackey_glass", "regression", "classification",
                     "logistic", "constant", "false", "2", ""]),
    st.lists(st.integers(-2, 3), max_size=3), st.builds(dict),
)


def mutate(data, doc, keys, values):
    """Retype, delete or add one to three keys of ``doc`` or of an object in it."""
    for _ in range(data.draw(st.integers(1, 3))):
        objects = [doc] + [o for v in doc.values()
                           for o in (v if isinstance(v, list) else [v])
                           if isinstance(o, dict)]
        target = data.draw(st.sampled_from(objects))
        action = data.draw(st.sampled_from(["retype", "retype", "delete", "add"]))
        if action == "add" or not target:
            target[data.draw(st.sampled_from(keys))] = data.draw(values)
        elif action == "delete":
            del target[data.draw(st.sampled_from(sorted(target)))]
        else:
            target[data.draw(st.sampled_from(sorted(target)))] = data.draw(values)


FUZZ_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None,
                         suppress_health_check=[HealthCheck.function_scoped_fixture])


@FUZZ_SETTINGS
@given(data=st.data())
def test_fuzzed_config_runs_or_fails_with_one_error_line(tmp_path, capsys, data):
    doc = copy.deepcopy(FUZZ_BASE)
    mutate(data, doc, FUZZ_KEYS, FUZZ_VALUES)
    work = tempfile.mkdtemp(dir=tmp_path)
    path = f"{work}/config.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    code, _, err = run_cli(capsys, "--quiet", "--out-dir", f"{work}/out", "train", path)
    if code != 0:
        assert code == 1
        assert re.fullmatch(r"error:[a-z]+: [^\n]*\n", err), err


# model and instance files may also hold lists of any JSON scalar, and
# an int no float can hold
FILE_FUZZ_VALUES = st.one_of(
    FUZZ_VALUES, st.just(10 ** 400),
    st.lists(st.one_of(st.floats(), st.integers(), st.booleans(), st.none(),
                       st.text(max_size=2)), max_size=4),
    st.lists(st.lists(st.floats(-3, 3), min_size=1, max_size=3), max_size=3),
)
FUZZ_MODEL = model_to_dict(WtaModel(
    ModelShape(ExpansionSpec(input_dim=1, order=1), 2, class_of_unit=[0, 1]),
    [[1.0, 0.5, -0.5, 0.0], [-1.0, 0.2, 0.1, 0.3]], np.zeros((2, 4)),
    class_names=["a", "b"], normalization=[[0.0, 1.0]],
))
FUZZ_MODEL_KEYS = sorted(set(FUZZ_MODEL) | set(FUZZ_MODEL["spec"]) | {"v", "w", "bogus"})


@FUZZ_SETTINGS
@given(data=st.data())
def test_fuzzed_model_file_serves_or_fails_with_one_error_line(tmp_path, capsys, data):
    doc = copy.deepcopy(FUZZ_MODEL)
    mutate(data, doc, FUZZ_MODEL_KEYS, FILE_FUZZ_VALUES)
    work = tempfile.mkdtemp(dir=tmp_path)
    with open(f"{work}/model.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    with open(f"{work}/data.csv", "w", encoding="utf-8") as fh:
        fh.write("0.2,a\n0.7,b\n")
    command = data.draw(st.sampled_from([
        ["eval"], ["predict", "--target-column", "-1", "-o", f"{work}/pred.csv"]]))
    code, _, err = run_cli(capsys, command[0], f"{work}/model.json",
                           f"{work}/data.csv", *command[1:])
    assert (code, err) == (0, "") or (
        code == 1 and re.fullmatch(r"error:data: [^\n]*\n", err)), err


FUZZ_INSTANCES = {
    ("kselect",): {"x": [3, 1, 2], "k": 2},
    ("lp", "--form", "simplex"): {"c": [3, 1, 2]},
    ("lp", "--form", "ksum"): {"c": [3, 1, 2], "k": 2},
    ("lp", "--form", "box"): {"c": [1, -2], "lower": [0, 0], "upper": [3, 5]},
}


@FUZZ_SETTINGS
@given(data=st.data())
def test_fuzzed_instance_runs_or_fails_with_one_error_line(tmp_path, capsys, data):
    command = data.draw(st.sampled_from(sorted(FUZZ_INSTANCES)))
    doc = copy.deepcopy(FUZZ_INSTANCES[command])
    mutate(data, doc, ["bogus", "c", "k", "lower", "upper", "x"], FILE_FUZZ_VALUES)
    if data.draw(st.integers(0, 9)) == 0:
        doc = data.draw(FILE_FUZZ_VALUES)
    flags = data.draw(st.sampled_from([[], ["--k", "0"], ["--k", "1"], ["--k", "3"]]))
    path = f"{tempfile.mkdtemp(dir=tmp_path)}/instance.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    code, _, err = run_cli(capsys, command[0], path, *command[1:], *flags)
    assert (code, err) == (0, "") or (
        code == 1 and re.fullmatch(r"error:data: [^\n]*\n", err)), err


# what fuzzing may put into a data or instance CSV cell; the long cell
# exceeds the csv module's field limit (131,072 characters)
CSV_FUZZ_CELLS = st.sampled_from(["", "a", "nan", "inf", "1e400", "1,5", "7" * 200_000])


def mutate_csv(data, rows):
    """Drop, duplicate or replace one to three cells, add a header or empty the file."""
    for _ in range(data.draw(st.integers(1, 3))):
        cells = [(r, c) for r, row in enumerate(rows) for c in range(len(row))]
        action = data.draw(st.sampled_from(["drop", "duplicate", "replace", "replace",
                                            "header"]))
        if action == "header" or not cells:
            rows.insert(0, [f"h{c}" for c in range(len(rows[0]) if rows else 2)])
        else:
            r, c = data.draw(st.sampled_from(cells))
            if action == "drop":
                del rows[r][c]
            elif action == "duplicate":
                rows[r].insert(c, rows[r][c])
            else:
                rows[r][c] = data.draw(CSV_FUZZ_CELLS)
    if data.draw(st.integers(0, 9)) == 0:
        rows.clear()


def write_rows(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def no_constant(name):
    raise ValueError(f"{name} is not JSON")


FUZZ_CSV_MODELS = {
    "regression": model_to_dict(WtaModel(
        ModelShape(ExpansionSpec(input_dim=1, order=1), 2),
        [[1.0, 0.5, -0.5, 0.0], [-1.0, 0.2, 0.1, 0.3]], np.zeros((2, 4)),
        normalization=[[0.0, 1.0]],
    )),
    "classification": FUZZ_MODEL,
}


@FUZZ_SETTINGS
@given(data=st.data())
def test_fuzzed_data_csv_serves_or_fails_with_one_error_line(tmp_path, capsys, data):
    mode = data.draw(st.sampled_from(sorted(FUZZ_CSV_MODELS)))
    labels = ["a", "b"] * 4 if mode == "classification" else ["0.3", "-0.2"] * 4
    rows = [[repr(x / 8), y] for x, y in enumerate(labels)]
    mutate_csv(data, rows)
    work = tempfile.mkdtemp(dir=tmp_path)
    write_rows(f"{work}/data.csv", rows)
    with open(f"{work}/model.json", "w", encoding="utf-8") as fh:
        json.dump(FUZZ_CSV_MODELS[mode], fh)
    with open(f"{work}/config.json", "w", encoding="utf-8") as fh:
        json.dump({**FUZZ_BASE, "dataset": {"path": f"{work}/data.csv"},
                   "model": {"mode": mode, **({"units": 2} if mode == "regression"
                                              else {"units_per_class": 1})}}, fh)
    for argv in (["--out-dir", f"{work}/out", "train", f"{work}/config.json"],
                 ["eval", f"{work}/model.json", f"{work}/data.csv"],
                 ["predict", f"{work}/model.json", f"{work}/data.csv",
                  "--target-column", "-1", "-o", f"{work}/pred.csv"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(capsys, "--quiet", *argv)
        if code == 0:
            assert err == ""
            if argv[0] == "eval":
                json.loads(out, parse_constant=no_constant)
        else:
            assert code == 1
            assert re.fullmatch(r"error:[a-z]+: [^\n]*\n", err), err


FUZZ_CSV_INSTANCES = {
    ("kselect", "--k", "2"): [["3", "1", "2"]],
    ("lp", "--form", "simplex"): [["3"], ["1"], ["2"]],
    ("lp", "--form", "ksum", "--k", "2"): [["3", "1", "2"]],
    ("lp", "--form", "box"): [["1", "-2"], ["0", "0"], ["3", "5"]],
}


@FUZZ_SETTINGS
@given(data=st.data())
def test_fuzzed_instance_csv_runs_or_fails_with_one_error_line(tmp_path, capsys, data):
    command = data.draw(st.sampled_from(sorted(FUZZ_CSV_INSTANCES)))
    rows = copy.deepcopy(FUZZ_CSV_INSTANCES[command])
    mutate_csv(data, rows)
    path = f"{tempfile.mkdtemp(dir=tmp_path)}/instance.csv"
    write_rows(path, rows)
    code, out, err = run_cli(capsys, command[0], path, *command[1:])
    if code == 0:
        assert err == ""
        json.loads(out, parse_constant=no_constant)
    else:
        assert code == 1 and re.fullmatch(r"error:data: [^\n]*\n", err), err


class TestSynthEvalPredict:
    def test_synth_then_eval_then_predict(self, tmp_path, capsys):
        data_csv = tmp_path / "f1.csv"
        code, _, _ = run_cli(
            capsys, "--seed", "4", "synth", "f1", str(data_csv), "--n", "60"
        )
        assert code == 0

        config = write_config(
            tmp_path,
            dataset={"path": str(data_csv), "target_column": -1},
        )
        run_cli(capsys, "--out-dir", str(tmp_path / "out"), "train", str(config))
        model_path = tmp_path / "out" / "model.json"

        code, out, _ = run_cli(capsys, "eval", str(model_path), str(data_csv))
        assert code == 0
        doc = json.loads(out)
        assert "rmse" in doc and doc["rmse"] >= 0

        pred_csv = tmp_path / "pred.csv"
        code, _, _ = run_cli(
            capsys, "predict", str(model_path), str(data_csv),
            "--target-column", "-1", "-o", str(pred_csv),
        )
        assert code == 0
        rows = [line.split(",") for line in pred_csv.read_text().splitlines()]
        assert len(rows) == 60
        assert all(len(row) == 2 for row in rows)  # one feature + prediction

    def test_synth_mackey_glass_series(self, tmp_path, capsys):
        path = tmp_path / "mg.csv"
        code, _, _ = run_cli(capsys, "synth", "mackey-glass", str(path),
                             "--length", "100")
        assert code == 0
        values = [float(line) for line in path.read_text().splitlines()]
        assert len(values) == 100
        assert values[0] == 1.2

    def test_synth_noise_flags_conflict(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "synth", "f1", str(tmp_path / "x.csv"),
            "--noise", "0.1", "--noise-slope", "0.2",
        )
        assert code == 1
        assert err.startswith("error:data:")

    @pytest.mark.parametrize("flag", ["--noise", "--noise-slope"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_synth_non_finite_noise_fails_with_one_error_line(self, tmp_path, capsys,
                                                              flag, value):
        path = tmp_path / "x.csv"
        code, out, err = run_cli(capsys, "synth", "f1", str(path), flag, value)
        assert (code, out) == (1, "")
        assert err == f"error:data: sigma must be finite and >= 0, got {value}\n"
        assert not path.exists()

    @pytest.mark.parametrize("generator, flag", [
        ("mackey-glass", "--n"),
        ("mackey-glass", "--noise"),
        ("mackey-glass", "--noise-slope"),
        ("f1", "--length"),
    ])
    def test_synth_flag_of_another_generator_fails(self, tmp_path, capsys,
                                                   generator, flag):
        path = tmp_path / "x.csv"
        code, out, err = run_cli(capsys, "synth", generator, str(path), flag, "5")
        assert (code, out) == (1, "")
        assert err == f"error:data: {flag} does not apply to the {generator} generator\n"
        assert not path.exists()

class TestSelectCommands:
    def test_kselect_json_instance(self, tmp_path, capsys):
        instance = tmp_path / "inst.json"
        instance.write_text(json.dumps({"x": [3, 1, 4, 1, 5], "k": 2}))
        code, out, _ = run_cli(capsys, "kselect", str(instance))
        assert code == 0
        doc = json.loads(out)
        assert doc["winners"] == [4, 2]
        assert doc["values"] == [5.0, 4.0]

    def test_kselect_csv_with_flag(self, tmp_path, capsys):
        instance = tmp_path / "inst.csv"
        instance.write_text("0.2,0.9,0.5\n")
        code, out, _ = run_cli(capsys, "kselect", str(instance), "--k", "1")
        assert code == 0
        assert json.loads(out)["winners"] == [1]

    def test_kselect_missing_k_fails(self, tmp_path, capsys):
        instance = tmp_path / "inst.csv"
        instance.write_text("1,2,3\n")
        code, _, err = run_cli(capsys, "kselect", str(instance))
        assert code == 1
        assert err.startswith("error:data:")

    @pytest.mark.parametrize("k", [1.7, 2.0, True, "2"],
                             ids=["fraction", "float", "bool", "string"])
    @pytest.mark.parametrize("command", [["kselect"], ["lp", "--form", "ksum"]],
                             ids=["kselect", "lp-ksum"])
    def test_non_integer_k_fails(self, tmp_path, capsys, command, k):
        instance = tmp_path / "inst.json"
        instance.write_text(json.dumps({"x": [3, 1, 2], "k": k}))
        code, out, err = run_cli(capsys, command[0], str(instance), *command[1:])
        assert code == 1 and out == ""
        assert err == f"error:data: k must be an int, got {json.dumps(k)}\n"

    @pytest.mark.parametrize("command, name, text, message", [
        (["kselect"], "inst.json", '{"k": 2}', "missing key x"),
        (["kselect"], "inst.json", "5", "the top level must be an object, got 5"),
        (["kselect"], "inst.json", '{"x": [1, "2", 3], "k": 1}',
         'x[1] must be a finite number, got "2"'),
        (["kselect"], "inst.json", '{"x": [true, 2], "k": 1}',
         "x[0] must be a finite number, got true"),
        (["kselect"], "inst.json", '{"x": [1, 2], "k": 1, "kk": 2}', "unknown key kk"),
        (["kselect"], "inst.json", '{"x": [1, 2]',
         "instance file {path} is not valid JSON: Expecting ',' delimiter: "
         "line 1 column 13 (char 12)"),
        (["kselect", "--k", "1"], "inst.csv", "1,2\n3,4\n",
         "instance file {path} must hold one row or column (x), got 2 rows"),
        (["kselect", "--k", "1"], "inst.csv", "1,a,3\n",
         "unparseable cell at row 1, column 2: 'a'"),
        (["lp", "--form", "ksum"], "inst.json", '{"x": [1, 2], "k": 1}', "unknown key x"),
        (["lp", "--form", "simplex"], "inst.json", '{"c": [1, 2], "k": 1}',
         "unknown key k"),
        (["lp", "--form", "box"], "inst.json", '{"c": [1, 2], "lower": [0, 0]}',
         "missing key upper"),
        (["lp", "--form", "box"], "inst.csv", "1,-2\n0,0\n",
         "instance file {path} must hold 3 rows (c, lower, upper), got 2 rows"),
        (["lp", "--form", "simplex", "--k", "5"], "inst.json", '{"c": [1, 2]}',
         "unknown key k"),
        (["lp", "--form", "box", "--k", "1"], "inst.csv", "1,-2\n0,0\n3,5\n",
         "unknown key k"),
    ], ids=["no-x", "number", "x-string", "x-bool", "unknown-key", "truncated",
            "csv-square", "csv-cell", "lp-x-alias", "simplex-k", "box-no-upper",
            "box-csv-two-rows", "simplex-flag-k", "box-csv-flag-k"])
    def test_malformed_instance_fails_with_one_error_line(
            self, tmp_path, capsys, command, name, text, message):
        instance = tmp_path / name
        instance.write_text(text)
        code, out, err = run_cli(capsys, command[0], str(instance), *command[1:])
        assert code == 1 and out == ""
        assert err == f"error:data: {message.format(path=instance)}\n"

    def test_lp_simplex(self, tmp_path, capsys):
        instance = tmp_path / "c.csv"
        instance.write_text("0.1,0.7,0.2\n")
        code, out, _ = run_cli(capsys, "lp", str(instance), "--form", "simplex")
        assert code == 0
        doc = json.loads(out)
        assert doc["x"] == [0.0, 1.0, 0.0]
        assert doc["objective"] == 0.7
        assert doc["certificate"] == "simplex"

    def test_lp_ksum(self, tmp_path, capsys):
        instance = tmp_path / "c.json"
        instance.write_text(json.dumps({"c": [3, 1, 4, 1, 5], "k": 2}))
        code, out, _ = run_cli(capsys, "lp", str(instance), "--form", "ksum")
        assert code == 0
        assert json.loads(out)["objective"] == 9.0

    def test_lp_box_csv_rows(self, tmp_path, capsys):
        instance = tmp_path / "box.csv"
        instance.write_text("1,-2\n0,0\n3,5\n")
        code, out, _ = run_cli(capsys, "lp", str(instance), "--form", "box")
        assert code == 0
        doc = json.loads(out)
        assert doc["x"] == [3.0, 0.0]
        assert doc["objective"] == 3.0

    def test_lp_box_json(self, tmp_path, capsys):
        instance = tmp_path / "box.json"
        instance.write_text(json.dumps(
            {"c": [1, -2], "lower": [0, 0], "upper": [3, 5]}
        ))
        code, out, _ = run_cli(capsys, "lp", str(instance), "--form", "box")
        assert code == 0
        assert json.loads(out)["objective"] == 3.0


class TestDensityCommand:
    def test_density_writes_report(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            ga={"population_size": 8, "generations": 3},
            density={"k_values": [0, 1, 2], "seeds": [0, 1, 2]},
        )
        code, out, _ = run_cli(
            capsys, "--out-dir", str(tmp_path / "dens"), "density", str(config)
        )
        assert code == 0
        doc = json.loads((tmp_path / "dens" / "density.json").read_text())
        assert doc["k_values"] == [0, 1, 2]
        assert len(doc["ga_rmse"]) == 3
        assert all(b <= a for a, b in zip(doc["oracle_rmse"], doc["oracle_rmse"][1:]))

    @pytest.mark.parametrize("change, field", [
        ({"expansion": {"order": 2, "include_bias": False}}, "oracle_rmse"),
        ({"model": {"units": 2, "activation": "logistic"}}, "ga_rmse"),
    ], ids=["no-bias", "logistic"])
    def test_density_trains_the_shape_train_would(self, tmp_path, capsys, change, field):
        reports = []
        for name, extra in (("default", {}), ("changed", change)):
            config = write_config(
                tmp_path, ga={"population_size": 8, "generations": 3},
                density={"k_values": [1, 2], "seeds": [0, 1, 2]}, **extra,
            )
            code, _, _ = run_cli(capsys, "--out-dir", str(tmp_path / name),
                                 "density", str(config))
            assert code == 0
            reports.append(json.loads((tmp_path / name / "density.json").read_text()))
        assert reports[0][field] != reports[1][field]


@pytest.mark.parametrize("command", ["train", "density"])
@pytest.mark.parametrize("fault, category", [
    ("missing-csv", "data"),
    ("zero-units", "train"),
    ("out-dir-is-a-file", "write"),
])
def test_train_and_density_name_the_same_phase(tmp_path, capsys, command, fault,
                                               category):
    change = {
        "missing-csv": {"dataset": {"path": str(tmp_path / "missing.csv")}},
        "zero-units": {"model": {"units": 0}},
        "out-dir-is-a-file": {},
    }[fault]
    config = write_config(tmp_path, ga={"population_size": 8, "generations": 2},
                          density={"k_values": [0, 1], "seeds": [0, 1, 2]}, **change)
    out_dir = tmp_path / "taken"
    if fault == "out-dir-is-a-file":
        out_dir.write_text("")
    code, _, err = run_cli(capsys, "--out-dir", str(out_dir), command, str(config))
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith(f"error:{category}: ")


class TestRefusedAllocation:
    """An allocation the host refuses is one error line in its phase, not a traceback.

    Every size here is above the 128 TiB x86-64 user address space, so it
    fails at once whatever the host's overcommit setting.
    """

    @pytest.mark.parametrize("change, category", [
        ({"ga": {"population_size": 10**15, "generations": 1}}, "train"),  # 114 PiB
        ({"dataset": {"generator": "f1", "n_samples": 10**15}}, "data"),  # 7 PiB
    ], ids=["population", "generator"])
    def test_train_fails_in_its_phase(self, tmp_path, capsys, change, category):
        config = write_config(tmp_path, **change)
        code, out, err = run_cli(capsys, "--out-dir", str(tmp_path / "out"), "train",
                                 str(config))
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and err.startswith(f"error:{category}: Unable to allocate")
        assert not (tmp_path / "out").exists()

    def test_synth_fails_with_a_data_error(self, tmp_path, capsys):
        output = tmp_path / "big.csv"
        code, out, err = run_cli(capsys, "synth", "f1", str(output), "--n", str(10**15))
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and err.startswith("error:data: Unable to allocate")
        assert not output.exists()


class TestClassificationCli:
    def test_train_eval_predict_with_labels(self, tmp_path, capsys, iris_like_csv):
        config = write_config(
            tmp_path,
            dataset={"path": str(iris_like_csv), "target_column": -1},
            model={"mode": "classification", "units_per_class": 1},
            ga={"population_size": 10, "generations": 8},
            split={"train_fraction": 0.7, "stratified": True},
        )
        code, _, _ = run_cli(capsys, "--out-dir", str(tmp_path / "out"), "train",
                             str(config))
        assert code == 0
        model_path = tmp_path / "out" / "model.json"

        code, out, _ = run_cli(capsys, "eval", str(model_path), str(iris_like_csv))
        assert code == 0
        doc = json.loads(out)
        assert "accuracy" in doc and len(doc["confusion"]) == 3

        pred_csv = tmp_path / "pred.csv"
        code, _, _ = run_cli(
            capsys, "predict", str(model_path), str(iris_like_csv),
            "--target-column", "-1", "-o", str(pred_csv),
        )
        assert code == 0
        first = pred_csv.read_text().splitlines()[0].split(",")
        assert len(first) == 5  # 4 features + predicted label
        assert first[-1].endswith("-like")


def read_cells(path):
    return [line.split(",") for line in path.read_text().splitlines()]


@pytest.fixture(scope="module")
def f1_model(tmp_path_factory):
    """The c01 shape (f1, 100 samples, K=3, M=4, GA defaults) at seed 0."""
    tmp_path = tmp_path_factory.mktemp("f1_model")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "dataset": {"generator": "f1", "n_samples": 100},
        "expansion": {"order": 3},
        "model": {"units": 4, "mode": "regression"},
        "split": {"train_fraction": 0.7},
        "seed": 0,
    }))
    assert main(["--quiet", "--out-dir", str(tmp_path / "out"), "train", str(config)]) == 0
    return tmp_path / "out" / "model.json"


class TestServingNormalization:
    def test_one_row_predict_uses_training_ranges(self, tmp_path, capsys, f1_model):
        one = tmp_path / "one.csv"
        one.write_text("0.83\n")
        many = tmp_path / "many.csv"
        many.write_text("0.1\n0.83\n0.5\n0.97\n")
        for name in ("one", "many"):
            code, _, err = run_cli(
                capsys, "predict", str(f1_model), str(tmp_path / f"{name}.csv"),
                "-o", str(tmp_path / f"{name}-out.csv"),
            )
            assert code == 0 and err == ""
        single = read_cells(tmp_path / "one-out.csv")[0]
        within = read_cells(tmp_path / "many-out.csv")[1]
        assert single == within
        expected = predict(load_model(f1_model), [[0.83]])[1][0]
        assert float(single[-1]) == expected
        # the model's value near sin(2*pi*0.83), not the forward at x=0
        assert abs(expected - math.sin(2 * math.pi * 0.83)) < 0.1

    def test_eval_of_subset_matches_rows_in_full_file(self, tmp_path, capsys, f1_model):
        full = tmp_path / "full.csv"
        run_cli(capsys, "--seed", "5", "synth", "f1", str(full), "--n", "40")
        rows = read_cells(full)
        subset = tmp_path / "subset.csv"
        subset.write_text("".join(",".join(r) + "\n" for r in rows[10:20]))

        code, out, _ = run_cli(capsys, "eval", str(f1_model), str(subset))
        assert code == 0
        scores = json.loads(out)

        predicted = tmp_path / "pred.csv"
        run_cli(capsys, "predict", str(f1_model), str(full),
                "--target-column", "-1", "-o", str(predicted))
        outputs = [float(r[-1]) for r in read_cells(predicted)[10:20]]
        targets = [float(r[-1]) for r in rows[10:20]]
        assert scores["rmse"] == rmse(outputs, targets)
        assert scores["mae"] == mae(outputs, targets)


class TestNonFiniteOutputs:
    @pytest.fixture
    def overflowing_model(self, tmp_path):
        path = tmp_path / "huge.json"
        save_model(WtaModel(
            ModelShape(ExpansionSpec(input_dim=1, order=0), 1),
            [[1e308, 0.0]], [[-1e308, 0.0]],
            normalization=[[0.0, 1.0]],
        ), path)
        return path

    def test_eval_reports_data_error(self, tmp_path, capsys, overflowing_model):
        data = tmp_path / "data.csv"
        data.write_text("0.0,1.0\n1.0,2.0\n")
        code, out, err = run_cli(capsys, "eval", str(overflowing_model), str(data))
        assert code == 1 and out == ""
        assert err == "error:data: non-finite output at row 1\n"

    def test_predict_reports_data_error_and_writes_nothing(
            self, tmp_path, capsys, overflowing_model):
        data = tmp_path / "data.csv"
        data.write_text("1.0\n")
        output = tmp_path / "pred.csv"
        code, _, err = run_cli(capsys, "predict", str(overflowing_model),
                               str(data), "-o", str(output))
        assert code == 1
        assert err == "error:data: non-finite output at row 0\n"
        assert not output.exists()

    @pytest.mark.parametrize("case, message", [
        ("noise-overflows", "error:data: regression targets must be finite, got -?inf"),
        ("series-overflows",
         "error:train: no chromosome has a finite fitness on the training data"),
        ("training-errors-overflow",
         "error:train: no chromosome has a finite fitness on the training data"),
        ("test-errors-overflow",
         "error:evaluate: non-finite rmse: the targets or outputs are too large"),
        ("eval-errors-overflow",
         "error:data: non-finite rmse: the targets or outputs are too large"),
    ], ids=["noise-overflows", "series-overflows", "training-errors-overflow",
            "test-errors-overflow", "eval-errors-overflow"])
    def test_overflow_fails_with_one_error_line(self, tmp_path, capsys, f1_model, case,
                                                message):
        # finite inputs whose targets or errors overflow: no Infinity or NaN
        # is reported and no RuntimeWarning escapes (the filter raises them)
        data, out_dir = tmp_path / "data.csv", tmp_path / "out"
        x = np.linspace(0.0, 1.0, 40)
        y = np.tile([1e308, -1e308], 20) if case == "training-errors-overflow" \
            else np.sin(2 * np.pi * x)

        def write_data():
            data.write_text("".join(f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), y.tolist())))

        write_data()
        if case == "test-errors-overflow":
            # one test row's error squares past inf; the split seed is the config's 3 plus 2
            _, test = split_dataset(load_csv(data, mode="regression"), SplitSpec(), 5)
            y[y.tolist().index(test.targets[0])] = 1e200
            write_data()
        dataset = {
            "noise-overflows": {"generator": "f1", "n_samples": 50, "noise": {"sigma": 1e308}},
            # x ** 10 overflows at every step of the series
            "series-overflows": {"generator": "mackey_glass", "length": 100, "window": 4,
                                 "initial": 1e300},
        }.get(case, {"path": str(data)})
        argv = ["--out-dir", str(out_dir), "train", str(write_config(tmp_path, dataset=dataset))]
        if case == "eval-errors-overflow":
            data.write_text("0.2,1e200\n0.6,0.5\n")
            argv = ["eval", str(f1_model), str(data)]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert re.fullmatch(message + "\n", err)
        assert not out_dir.exists()


def without_wall_time(path) -> list[str]:
    """The lines of a report JSON other than its one ``wall_time_s`` line."""
    return [line for line in path.read_text().splitlines() if '"wall_time_s":' not in line]


class TestOutputsOverwritten:
    """Each output file is written over the one already at its path."""

    def test_one_row_predict_over_a_20k_row_one(self, tmp_path, capsys, f1_model):
        many, one = tmp_path / "many.csv", tmp_path / "one.csv"
        many.write_text("".join(f"{x!r}\n" for x in np.linspace(0.0, 1.0, 20_000).tolist()))
        one.write_text("0.5\n")
        out, fresh = tmp_path / "out.csv", tmp_path / "fresh.csv"
        for data, path in ((many, out), (one, out), (one, fresh)):
            assert main(["--quiet", "predict", str(f1_model), str(data), "-o", str(path)]) == 0
        assert out.read_bytes() == fresh.read_bytes()

    def test_synth_without_header_over_one_with_it(self, tmp_path, capsys):
        out, fresh = tmp_path / "out.csv", tmp_path / "fresh.csv"
        for path, flags in ((out, ["--csv-header"]), (out, []), (fresh, [])):
            assert main(["--quiet", "synth", "f1", str(path), "--n", "5", *flags]) == 0
        assert out.read_bytes() == fresh.read_bytes()

    def test_train_into_the_out_dir_of_a_longer_run(self, tmp_path, capsys):
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        longer = write_config(tmp_path, model={"units": 3, "mode": "regression"},
                              ga={"population_size": 8, "generations": 12})
        assert main(["--quiet", "--out-dir", str(out), "train", str(longer)]) == 0
        sizes = {name: (out / name).stat().st_size for name in ("model.json", "trace.csv")}
        config = write_config(tmp_path)
        for path in (out, fresh):
            assert main(["--quiet", "--out-dir", str(path), "train", str(config)]) == 0
        for name, size in sizes.items():
            assert (out / name).read_bytes() == (fresh / name).read_bytes(), name
            assert size > (fresh / name).stat().st_size, name
        assert without_wall_time(out / "report.json") == \
            without_wall_time(fresh / "report.json")

    @pytest.fixture
    def full_disk(self, monkeypatch):
        """``os.write`` lands the first 10 bytes, then the disk is full."""
        real_write = os.write
        calls = []

        def write(fd, data):
            calls.append(fd)
            if len(calls) == 1:
                return real_write(fd, data[:10])
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        monkeypatch.setattr(os, "write", write)
        return calls

    def test_predict_onto_a_full_disk_leaves_an_empty_file(self, tmp_path, capsys, f1_model,
                                                           full_disk):
        data, out = tmp_path / "one.csv", tmp_path / "out.csv"
        data.write_text("0.25\n0.5\n0.75\n")
        out.write_text("an older and longer output\n" * 10)
        code, stdout, err = run_cli(capsys, "predict", str(f1_model), str(data), "-o", str(out))
        assert (code, stdout) == (1, "")
        assert err == "error:io: [Errno 28] No space left on device\n"
        assert len(full_disk) == 2 and out.read_bytes() == b""

    def test_train_onto_a_full_disk_leaves_an_empty_file(self, tmp_path, capsys, full_disk):
        config, out = write_config(tmp_path), tmp_path / "out"
        code, stdout, err = run_cli(capsys, "--out-dir", str(out), "train", str(config))
        assert (code, stdout) == (1, "")
        assert err == "error:write: [Errno 28] No space left on device\n"
        assert [path.name for path in out.iterdir()] == ["report.json"]
        assert (out / "report.json").read_bytes() == b""

    def test_read_only_output_fails_with_io_category(self, tmp_path, capsys, f1_model,
                                                     monkeypatch):
        shutil.copy(f1_model, tmp_path / "model.json")
        (tmp_path / "one.csv").write_text("0.5\n")
        out = tmp_path / "out.csv"
        out.write_text("old\n")
        out.chmod(0o444)
        monkeypatch.chdir(tmp_path)
        argv = ["predict", "model.json", "one.csv", "-o", "out.csv"]
        # a first run as this user loads every module predict needs
        assert main(["--quiet", *argv[:-1], "warm.csv"]) == 0
        euid = os.geteuid()
        if euid == 0:
            # root writes through any mode bits, so the check runs as nobody
            tmp_path.chmod(0o755)
            os.seteuid(65534)
        try:
            code, stdout, err = run_cli(capsys, *argv)
        finally:
            os.seteuid(euid)
        assert (code, stdout) == (1, "")
        assert err == "error:io: [Errno 13] Permission denied: 'out.csv'\n"
        assert out.read_text() == "old\n"


class TestSeriesCsv:
    @pytest.mark.parametrize("header", [False, True])
    def test_series_csv_trains_as_the_generator(self, tmp_path, capsys, header):
        # a recorded series enters through the series source, and gives the
        # model and trace of the generator config with the same series
        series = tmp_path / "mg.csv"
        flags = ["--csv-header"] if header else []
        assert run_cli(capsys, "synth", "mackey-glass", str(series), "--length", "600",
                       *flags)[0] == 0
        sources = {
            "file": {"path": str(series), "series": True, "window": 6, "header": header},
            "generator": {"generator": "mackey_glass", "length": 600, "window": 6},
        }
        files = {}
        for name, dataset in sources.items():
            work = tmp_path / name
            work.mkdir()
            config = write_config(work, dataset=dataset, model={"units": 3},
                                  ga={"population_size": 8, "generations": 20})
            assert run_cli(capsys, "--out-dir", str(work), "train", str(config))[0] == 0
            files[name] = [(work / f).read_bytes() for f in ("model.json", "trace.csv")]
        assert files["file"] == files["generator"]


class TestNonFiniteCells:
    def test_train_on_nan_target_fails(self, tmp_path, capsys):
        data = tmp_path / "f1.csv"
        run_cli(capsys, "synth", "f1", str(data), "--n", "20")
        lines = data.read_text().splitlines()
        lines[4] = lines[4].split(",")[0] + ",nan"
        data.write_text("\n".join(lines) + "\n")
        config = write_config(tmp_path, dataset={"path": str(data)})
        code, _, err = run_cli(capsys, "--out-dir", str(tmp_path / "out"), "train",
                               str(config))
        assert code == 1
        assert err == "error:data: non-finite cell at row 5, column 2: 'nan'\n"
        assert not (tmp_path / "out").exists()

    def test_eval_of_inf_target_fails(self, tmp_path, capsys, f1_model):
        data = tmp_path / "data.csv"
        data.write_text("0.2,0.9\n0.6,inf\n")
        code, out, err = run_cli(capsys, "eval", str(f1_model), str(data))
        assert (code, out) == (1, "")
        assert err == "error:data: non-finite cell at row 2, column 2: 'inf'\n"

    def test_eval_of_digit_grouped_target_fails(self, tmp_path, capsys, f1_model):
        # float() reads '1_0' as 10.0
        data = tmp_path / "data.csv"
        data.write_text("0.2,0.9\n0.6,1_0\n")
        code, out, err = run_cli(capsys, "eval", str(f1_model), str(data))
        assert (code, out) == (1, "")
        assert err == "error:data: unparseable cell at row 2, column 2: '1_0'\n"

    @pytest.mark.parametrize("command", ["train", "eval", "predict"])
    def test_cell_over_the_csv_field_limit_fails_with_one_error_line(
            self, tmp_path, capsys, f1_model, command):
        data = tmp_path / "data.csv"
        data.write_text("0.2,0.9\n0.6," + "1" * 200_000 + "\n")
        argv = {
            "train": ["--out-dir", str(tmp_path / "out"), "train",
                      str(write_config(tmp_path, dataset={"path": str(data)}))],
            "eval": ["eval", str(f1_model), str(data)],
            "predict": ["predict", str(f1_model), str(data),
                        "-o", str(tmp_path / "pred.csv")],
        }[command]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == (f"error:data: malformed CSV {data}: "
                       "field larger than field limit (131072)\n")


class ClosedPipe(io.StringIO):
    """A stdout whose reader has gone, as behind `wtanet eval ... | head -1`."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


class TestClosedStdout:
    def test_eval_into_a_closed_pipe_exits_1_without_an_error_line(
            self, tmp_path, capsys, monkeypatch, f1_model):
        data = tmp_path / "data.csv"
        data.write_text("0.2,0.9\n0.6,-0.5\n")
        with monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", ClosedPipe())
            code = main(["eval", str(f1_model), str(data)])
            replaced = sys.stdout
        replaced.close()
        assert code == 1
        assert capsys.readouterr().err == ""
        # the interpreter's flush at exit goes to devnull, not the pipe
        assert replaced.name == os.devnull


class TestCsvText:
    def test_eval_reads_a_csv_with_a_byte_order_mark(self, tmp_path, capsys, f1_model):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(b"0.2,0.9\n0.6,-0.5\n")
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        code, out, err = run_cli(capsys, "eval", str(f1_model), str(marked))
        assert (code, err) == (0, "")
        assert (code, out, err) == run_cli(capsys, "eval", str(f1_model), str(plain))

    def test_csv_that_is_not_utf8_fails_with_one_error_line(self, tmp_path, capsys, f1_model):
        data = tmp_path / "data.csv"
        data.write_bytes(b"0.2,0.9\n0.6,\xff\n")
        code, out, err = run_cli(capsys, "eval", str(f1_model), str(data))
        assert (code, out) == (1, "")
        assert err.startswith(f"error:data: malformed CSV {data}: ")
        assert err.count("\n") == 1 and "0xff" in err

    def test_predict_writes_class_names_as_csv_writer_would(self, tmp_path, capsys):
        names = ["a,b", 'say "hi"', ""]
        model = tmp_path / "model.json"
        # x=0 wins unit 1 (1 - 2x), x=1 unit 0 (2x - 1), x=0.5 unit 2 (0.5)
        save_model(WtaModel(
            ModelShape(ExpansionSpec(input_dim=1, order=0), 3, class_of_unit=[0, 1, 2]),
            [[2.0, -1.0], [-2.0, 1.0], [0.0, 0.5]], np.zeros((3, 2)),
            class_names=names, normalization=[[0.0, 1.0]],
        ), model)
        data = tmp_path / "data.csv"
        data.write_text("0.0\n1.0\n0.5\n")
        output = tmp_path / "pred.csv"
        code, _, err = run_cli(capsys, "predict", str(model), str(data), "-o", str(output))
        assert (code, err) == (0, "")
        expected = io.StringIO(newline="")
        csv.writer(expected).writerows([["0.0", names[1]], ["1.0", names[0]],
                                        ["0.5", names[2]]])
        assert output.read_bytes() == expected.getvalue().encode("utf-8")
        assert output.read_bytes() == b'0.0,"say ""hi"""\r\n1.0,"a,b"\r\n0.5,\r\n'


class TestJsonText:
    """Config, model and instance files: a byte-order mark is read past, and
    bytes that are not UTF-8 fail in the file's own error category, naming it."""

    def test_train_reads_a_config_with_a_byte_order_mark(self, tmp_path, capsys):
        for name in ("plain", "marked"):
            (tmp_path / name).mkdir()
            config = write_config(tmp_path / name)
            config.write_bytes(b"\xef\xbb\xbf" * (name == "marked") + config.read_bytes())
            code, _, err = run_cli(capsys, "--quiet", "--out-dir", str(tmp_path / name / "out"),
                                   "train", str(config))
            assert (code, err) == (0, "")
        assert ((tmp_path / "marked/out/model.json").read_bytes()
                == (tmp_path / "plain/out/model.json").read_bytes())

    def test_eval_reads_a_model_with_a_byte_order_mark(self, tmp_path, capsys, f1_model):
        marked = tmp_path / "model.json"
        marked.write_bytes(b"\xef\xbb\xbf" + f1_model.read_bytes())
        data = tmp_path / "data.csv"
        data.write_text("0.2,0.9\n0.6,-0.5\n")
        code, out, err = run_cli(capsys, "eval", str(marked), str(data))
        assert (code, err) == (0, "")
        assert (code, out, err) == run_cli(capsys, "eval", str(f1_model), str(data))

    def test_kselect_reads_an_instance_with_a_byte_order_mark(self, tmp_path, capsys):
        instance = tmp_path / "inst.json"
        instance.write_bytes(b'\xef\xbb\xbf{"x": [3, 1, 4, 1, 5], "k": 2}')
        code, out, err = run_cli(capsys, "kselect", str(instance))
        assert (code, err) == (0, "")
        assert json.loads(out)["winners"] == [4, 2]

    @pytest.mark.parametrize("what", ["config", "model", "instance"])
    def test_json_that_is_not_utf8_fails_with_one_error_line(
            self, tmp_path, capsys, f1_model, what):
        path = tmp_path / f"{what}.json"
        data = tmp_path / "data.csv"
        data.write_text("0.5,1.0\n")
        text, argv, category = {
            "config": (write_config(tmp_path).read_bytes(),
                       ["--out-dir", str(tmp_path / "out"), "train", str(path)], "config"),
            "model": (f1_model.read_bytes(), ["eval", str(path), str(data)], "data"),
            "instance": (b'{"x": [3, 1, 2], "k": 2}', ["kselect", str(path)], "data"),
        }[what]
        path.write_bytes(text[:4] + b"\xff" + text[4:])
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"error:{category}: {what} file {path} is not UTF-8: ")
        assert err.count("\n") == 1 and "0xff" in err

    @pytest.mark.parametrize("what, key", [
        ("config", "model"), ("config", "units"), ("model", "mode"), ("instance", "k"),
    ])
    def test_json_with_a_duplicate_key_fails_with_one_error_line(
            self, tmp_path, capsys, f1_model, what, key):
        # json keeps a repeated key's last value; these files refuse it, at any depth
        path = tmp_path / f"{what}.json"
        data = tmp_path / "data.csv"
        data.write_text("0.5,1.0\n")
        out_dir = tmp_path / "out"
        text, argv, category = {
            "config": (write_config(tmp_path).read_text(),
                       ["--out-dir", str(out_dir), "train", str(path)], "config"),
            "model": (f1_model.read_text(), ["eval", str(path), str(data)], "data"),
            "instance": ('{"x": [3, 1, 2], "k": 2}', ["kselect", str(path)], "data"),
        }[what]
        if key == "units":
            text = text.replace('"units": 2', '"units": 2, "units": 3')
        else:
            text = text.replace("{", f'{{"{key}": 1, ', 1)
        path.write_text(text)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"error:{category}: {what} file {path} has a duplicate key '{key}'\n"
        assert not out_dir.exists()


def model_file_text(*drop, **changes):
    """A valid one-unit model file, less the keys ``drop``, with ``changes``."""
    doc = model_to_dict(WtaModel(
        ModelShape(ExpansionSpec(input_dim=1, order=0), 1), [[1.0, 0.0]], [[0.5, 0.0]],
        normalization=[[0.0, 1.0]],
    ))
    doc.update(changes)
    for key in drop:
        del doc[key]
    return json.dumps(doc)


# two units of the one-unit model below, to hang class keys on
CLASSIFIER = {"mode": "classification",
              "units": [{"v": [1.0, 0.0], "w": [0.5, 0.0]}] * 2}


@pytest.mark.parametrize("command", ["eval", "predict"])
@pytest.mark.parametrize("text, message", [
    ("[1, 2]", "model must be an object, got a list"),
    ('"model"', 'model must be an object, got "model"'),
    ('{"format_version": 2, "mode": "regression"',
     "model file {path} is not valid JSON: Expecting ',' delimiter: "
     "line 1 column 43 (char 42)"),
    (model_file_text("units"), "missing key model.units"),
    (model_file_text("mode"), "missing key model.mode"),
    (model_file_text("spec"), "missing key model.spec"),
    (model_file_text("output_activation"), "missing key model.output_activation"),
    (model_file_text(units=[{"w": [0.5, 0.0]}]), "missing key model.units[0].v"),
    (model_file_text(units=[{"v": [1.0, 0.0]}]), "missing key model.units[0].w"),
    (model_file_text(units=5), "model.units must be a list, got 5"),
    (model_file_text(units=[5]), "model.units[0] must be an object, got 5"),
    (model_file_text(units=[{"v": {"a": 1}, "w": [0.5, 0.0]}]),
     "model.units[0].v must be a list, got an object"),
    (model_file_text(format_version=True),
     "model.format_version must be one of 2, got true"),
    # a version-1 file has no normalization
    (model_file_text("normalization", format_version=1),
     "model.format_version must be one of 2, got 1"),
    (model_file_text(normalization=None), "model.normalization must be a list, got null"),
    (model_file_text("normalization"), "missing key model.normalization"),
    (model_file_text(**CLASSIFIER, class_of_unit=[0, 1]), "missing key model.class_names"),
    (model_file_text(normalization=[[1.0, 0.0]]),
     "normalization must be finite (min, max) pairs with min <= max and shape (1, 2), "
     "got [[1.0, 0.0]]"),
    (model_file_text(**CLASSIFIER, class_of_unit=[0.7, 1.2]),
     "model.class_of_unit[0] must be an int, got 0.7"),
    (model_file_text(**CLASSIFIER, class_of_unit=["0", "1"]),
     'model.class_of_unit[0] must be an int, got "0"'),
    (model_file_text(**CLASSIFIER, class_of_unit=5),
     "model.class_of_unit must be a list, got 5"),
    (model_file_text(**CLASSIFIER, class_of_unit=[0, 1], class_names="ab"),
     'model.class_names must be a list, got "ab"'),
    (model_file_text(**CLASSIFIER, class_of_unit=[0, 1], class_names=[1, 2]),
     "model.class_names[0] must be a string, got 1"),
    (model_file_text(**CLASSIFIER, class_of_unit=[0, 1], class_names=5),
     "model.class_names must be a list, got 5"),
    (model_file_text(**CLASSIFIER, class_of_unit=[0, 2], class_names=["a", "b"]),
     "class_of_unit labels must be non-negative and index class_names, got [0, 2]"),
    (model_file_text(normalization=[["0", "1"]]),
     'model.normalization[0][0] must be a finite number, got "0"'),
    (model_file_text(normalization=[[False, True]]),
     "model.normalization[0][0] must be a finite number, got false"),
    (model_file_text(bogus=1), "unknown key model.bogus"),
    (model_file_text(units=[{"v": [1.0, 0.0], "w": [0.5, 0.0], "b": 0}]),
     "unknown key model.units[0].b"),
    (model_file_text(units=[{"v": ["1.0", "0"], "w": [0.5, 0.0]}]),
     "model.units[0].v must hold numbers only"),
    (model_file_text(units=[{"v": [1.0, False], "w": [0.5, 0.0]}]),
     "model.units[0].v must hold numbers only"),
    (model_file_text(units=[{"v": [1.0, 0.0], "w": [0.5, 0.0]},
                            {"v": [1.0], "w": [0.5, 0.0]}]),
     "model.units[*].v must be equally long lists of finite numbers"),
    (model_file_text(class_names=["a"]),
     "class_names are meaningful in classification mode only"),
    (model_file_text(**CLASSIFIER, class_of_unit=[0, 1], output_activation="logistic"),
     "classification models take no output activation"),
    # the mode key and class_of_unit must agree
    (model_file_text(class_of_unit=[0]),
     "model.class_of_unit is for classification models only"),
    (model_file_text(**CLASSIFIER, class_names=["a", "b"]), "missing key model.class_of_unit"),
    (model_file_text().replace('"v": ', '"v": [0.0, 0.0], "v": ', 1),
     "model file {path} has a duplicate key 'v'"),
], ids=["list", "string", "truncated", "no-units", "no-mode", "no-spec",
        "no-output-activation", "unit-no-v", "unit-no-w", "units-number",
        "unit-number", "v-object", "version-bool", "version-1", "normalization-null",
        "no-normalization", "classifier-no-names", "normalization-reversed",
        "class-fraction", "class-string",
        "class-number", "names-string", "names-numbers", "names-number",
        "class-out-of-range", "normalization-strings", "normalization-bools",
        "unknown-key", "unit-unknown-key", "weight-strings", "weight-bool",
        "weights-ragged", "regression-names", "classifier-logistic",
        "regression-classes", "classifier-no-classes", "duplicate-key"])
def test_model_file_not_an_object_fails_with_one_error_line(
        tmp_path, capsys, command, text, message):
    model = tmp_path / "model.json"
    model.write_text(text)
    data = tmp_path / "data.csv"
    data.write_text("0.5,1.0\n")
    extra = ["-o", str(tmp_path / "pred.csv")] if command == "predict" else []
    code, _, err = run_cli(capsys, command, str(model), str(data), *extra)
    assert code == 1
    assert err == f"error:data: {message.format(path=model)}\n"


@pytest.mark.parametrize("flag, command", [
    ("--seed", "eval"), ("--seed", "predict"), ("--seed", "kselect"), ("--seed", "lp"),
    ("--out-dir", "eval"), ("--out-dir", "predict"), ("--out-dir", "synth"),
    ("--out-dir", "kselect"), ("--out-dir", "lp"),
])
def test_global_flag_the_command_does_not_read_fails(tmp_path, capsys, flag, command):
    model = tmp_path / "model.json"
    save_model(WtaModel(
        ModelShape(ExpansionSpec(input_dim=1, order=1), 1), [[1.0, 0.0, 0.0, 0.0]],
        [[0.5, 0.0, 0.0, 0.0]], normalization=[[0.0, 1.0]],
    ), model)
    data = tmp_path / "data.csv"
    data.write_text("0.25,0.5\n0.75,0.1\n")
    instance = tmp_path / "inst.json"
    instance.write_text(json.dumps({"x": [3, 1, 2], "k": 2}))
    lp = tmp_path / "lp.json"
    lp.write_text(json.dumps({"c": [3, 1, 2]}))
    argv = {
        "eval": ["eval", str(model), str(data)],
        "predict": ["predict", str(model), str(data), "--target-column", "-1",
                    "-o", str(tmp_path / "pred.csv")],
        "synth": ["synth", "f1", str(tmp_path / "f1.csv"), "--n", "5"],
        "kselect": ["kselect", str(instance)],
        "lp": ["lp", str(lp), "--form", "simplex"],
    }[command]
    before = sorted(tmp_path.iterdir())
    value = "3" if flag == "--seed" else str(tmp_path / "elsewhere")
    code, out, err = run_cli(capsys, flag, value, *argv)
    assert (code, out) == (1, "")
    assert err == f"error:data: {flag} does not apply to the {command} command\n"
    assert sorted(tmp_path.iterdir()) == before
    assert run_cli(capsys, "--quiet", *argv)[0] == 0


def test_repeated_main_calls_share_one_parser_and_keep_no_state(tmp_path, capsys):
    model = tmp_path / "model.json"
    save_model(WtaModel(
        ModelShape(ExpansionSpec(input_dim=1, order=1), 1), [[1.0, 0.0, 0.0, 0.0]],
        [[0.5, 0.0, 0.0, 0.0]], normalization=[[0.0, 1.0]],
    ), model)
    two = tmp_path / "two.csv"
    two.write_text("0.25,9\n0.75,9\n")
    one = tmp_path / "one.csv"
    one.write_text("0.25\n0.75\n")
    dropped, kept = tmp_path / "dropped.csv", tmp_path / "kept.csv"
    seeded, unseeded = tmp_path / "seeded.csv", tmp_path / "unseeded.csv"

    code, out, err = run_cli(capsys, "--quiet", "--seed", "5", "synth", "f1", str(seeded),
                             "--n", "3")
    assert (code, out, err) == (0, "", "")
    code, out, err = run_cli(capsys, "synth", "f1", str(unseeded), "--n", "3")
    assert (code, out, err) == (0, f"wrote 3 rows to {unseeded}\n", "")
    assert seeded.read_bytes() != unseeded.read_bytes()

    code, out, err = run_cli(capsys, "--quiet", "predict", str(model),
                             str(two), "--target-column", "1", "-o", str(dropped))
    assert (code, out, err) == (0, "", "")
    code, out, err = run_cli(capsys, "predict", str(model), str(one), "-o", str(kept))
    assert (code, out, err) == (0, f"wrote 2 predictions to {kept}\n", "")
    assert read_cells(kept) == read_cells(dropped)
    assert [len(row) for row in read_cells(kept)] == [2, 2]

    with pytest.raises(SystemExit) as exc:
        main(["predict", str(model)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: wtanet")

    instance = tmp_path / "inst.json"
    instance.write_text(json.dumps({"x": [3, 1, 2], "k": 2}))
    code, out, err = run_cli(capsys, "kselect", str(instance))
    assert (code, err) == (0, "")
    assert json.loads(out)["winners"] == [0, 2]
    assert cli._build_parser() is cli._build_parser()
