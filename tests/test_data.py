import ast
import csv
import io
import math
import os
import re
import stat
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wtanet import (
    Dataset,
    SplitSpec,
    dataset_to_csv,
    gen_function,
    gen_mackey_glass,
    load_csv,
    load_features,
    load_series_csv,
    normalize,
    series_to_csv,
    split_dataset,
    window_series,
)
from wtanet.data import write_csv
from wtanet.schema import write_text

SRC = Path(__file__).resolve().parent.parent / "src" / "wtanet"


class TestLoadCsv:
    def test_minmax_normalization(self, tmp_path):
        path = tmp_path / "three.csv"
        path.write_text("2,1\n4,2\n6,3\n")
        ds = load_csv(path, target_column=-1, mode="regression")
        np.testing.assert_array_equal(ds.inputs[:, 0], [0.0, 0.5, 1.0])
        np.testing.assert_array_equal(ds.targets, [1, 2, 3])

    def test_given_normalization_replaces_own_range(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("4,7,1\n")
        ds = load_csv(path, target_column=-1, mode="regression",
                      normalization=[[2.0, 6.0], [7.0, 7.0]])
        # a constant training feature maps to 0.0 whatever the value
        np.testing.assert_array_equal(ds.inputs, [[0.5, 0.0]])
        np.testing.assert_array_equal(ds.normalization, [[2.0, 6.0], [7.0, 7.0]])

    def test_normalization_width_checked(self):
        with pytest.raises(ValueError, match="2 features"):
            normalize(np.zeros((3, 2)), [[0.0, 1.0]])

    def test_load_features_keeps_cells_and_drops_target(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text("1.50,x,3\n2.50,y,5\n")
        with pytest.raises(ValueError, match="row 1, column 2"):
            load_features(path, normalization=[[0.0, 1.0]] * 3)
        cells, inputs = load_features(path, drop_column=1,
                                      normalization=[[1.0, 3.0], [3.0, 7.0]])
        assert cells == [("1.50", "2.50"), ("3", "5")]
        np.testing.assert_array_equal(inputs, [[0.25, 0.0], [0.75, 0.5]])

    def test_digit_grouped_number_rejected_but_label_kept(self, tmp_path):
        path = tmp_path / "grouped.csv"
        path.write_text("1,a_b\n2_0,c\n")
        with pytest.raises(ValueError, match=r"unparseable cell at row 2, column 1: '2_0'"):
            load_csv(path, target_column=-1, mode="classification")
        path.write_text("1,a_b\n2,c\n")
        ds = load_csv(path, target_column=-1, mode="classification")
        assert ds.label_names == ("a_b", "c")

    @pytest.mark.parametrize("cell", ["１２", "٣", "\xa012"],
                             ids=["fullwidth", "arabic-indic", "no-break-space"])
    def test_non_ascii_number_rejected(self, tmp_path, cell):
        # float() reads each of these as a number ('１２' is 12.0)
        path = tmp_path / "wide.csv"
        path.write_text(f"1,2\n3,{cell}\n", encoding="utf-8")
        message = f"unparseable cell at row 2, column 2: {cell!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_csv(path, target_column=-1, mode="regression")

    def test_ascii_spaces_and_plus_sign_accepted_and_labels_may_be_non_ascii(self, tmp_path):
        path = tmp_path / "spaced.csv"
        path.write_text(" 1 ,+2,é\n\t3,+4.5 ,ü\n", encoding="utf-8")
        ds = load_csv(path, target_column=-1, mode="classification",
                      normalization=[[0.0, 4.0], [0.0, 5.0]])
        np.testing.assert_array_equal(ds.inputs, [[0.25, 0.4], [0.75, 0.9]])
        assert ds.label_names == ("é", "ü")

    def test_labels_dense_in_first_appearance_order(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("1,b\n2,a\n3,b\n")
        ds = load_csv(path, target_column=-1, mode="classification")
        np.testing.assert_array_equal(ds.targets, [0, 1, 0])
        assert ds.label_names == ("b", "a")

    def test_iris_format_shape(self, iris_like_csv):
        ds = load_csv(iris_like_csv, target_column=-1, mode="classification")
        assert ds.n_samples == 150
        assert ds.n_features == 4
        assert ds.n_classes == 3

    def test_unparseable_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,oops\n")
        with pytest.raises(ValueError, match="row 2, column 2"):
            load_csv(path, target_column=0, mode="regression")

    def test_non_finite_series_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("1.0\n2.0\nnan\n4.0\n")
        with pytest.raises(ValueError, match="non-finite cell at row 3, column 1: 'nan'"):
            load_series_csv(path)

    def test_constant_feature_flagged_and_zeroed(self, tmp_path):
        path = tmp_path / "const.csv"
        path.write_text("5,1,10\n5,2,20\n5,3,30\n")
        ds = load_csv(path, target_column=-1, mode="regression")
        np.testing.assert_array_equal(ds.inputs[:, 0], [0.0, 0.0, 0.0])
        assert "constant" in ds.provenance

    def test_header_row_skipped(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("a,b\n1,2\n3,4\n")
        ds = load_csv(path, target_column=-1, mode="regression", header=True)
        assert ds.n_samples == 2

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="no data rows"):
            load_csv(path, target_column=-1, mode="regression")


class TestNormalizationInversion:
    def test_roundtrip_within_tolerance(self, tmp_path):
        rng = np.random.default_rng(10)
        for trial in range(50):
            raw = rng.uniform(-100, 100, size=(20, 3))
            path = tmp_path / f"n{trial}.csv"
            lines = [",".join(repr(float(v)) for v in row) + ",0\n" for row in raw]
            path.write_text("".join(lines))
            ds = load_csv(path, target_column=-1, mode="regression")
            recovered = ds.denormalized_inputs()
            np.testing.assert_allclose(recovered, raw, rtol=1e-12)
            assert ds.inputs.min() >= 0.0 and ds.inputs.max() <= 1.0


class TestSplit:
    def test_seven_three(self):
        ds = gen_function("f1", 10, seed=0)
        train, test = split_dataset(ds, SplitSpec(train_fraction=0.7), 0)
        assert train.n_samples == 7 and test.n_samples == 3

    def test_stratified_balance(self, tmp_path):
        path = tmp_path / "two.csv"
        rng = np.random.default_rng(11)
        lines = []
        for c in ("p", "q"):
            for _ in range(50):
                lines.append(f"{rng.uniform():.6f},{c}\n")
        path.write_text("".join(lines))
        ds = load_csv(path, target_column=-1, mode="classification")
        train, _ = split_dataset(ds, SplitSpec(train_fraction=0.7), 1)
        counts = np.bincount(train.targets, minlength=2)
        np.testing.assert_array_equal(counts, [35, 35])

    def test_partition_property(self):
        rng = np.random.default_rng(12)
        for trial in range(50):
            n = int(rng.integers(4, 60))
            ds = gen_function("f1", n, seed=trial)
            frac = float(rng.uniform(0.2, 0.8))
            train, test = split_dataset(ds, SplitSpec(train_fraction=frac), trial)
            assert train.n_samples + test.n_samples == n
            joined = np.concatenate([train.targets, test.targets])
            assert sorted(joined.tolist()) == sorted(ds.targets.tolist())

    def test_same_seed_same_partition(self):
        ds = gen_function("f2", 40, seed=3)
        spec = SplitSpec(train_fraction=0.6)
        a_train, a_test = split_dataset(ds, spec, 9)
        b_train, b_test = split_dataset(ds, spec, 9)
        assert a_train.inputs.tobytes() == b_train.inputs.tobytes()
        assert a_test.inputs.tobytes() == b_test.inputs.tobytes()

    def test_singleton_class_rejected(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("0.1,a\n0.2,a\n0.3,rare\n")
        ds = load_csv(path, target_column=-1, mode="classification")
        with pytest.raises(ValueError, match="rare"):
            split_dataset(ds, SplitSpec(train_fraction=0.7), 0)


class TestWindowSeries:
    def test_small_example(self):
        ds = window_series([1, 2, 3, 4, 5], 2, 1)
        assert ds.n_samples == 3
        np.testing.assert_allclose(
            ds.denormalized_inputs(), [[1, 2], [2, 3], [3, 4]], rtol=1e-12
        )
        np.testing.assert_array_equal(ds.targets, [3, 4, 5])

    def test_single_sample_edge(self):
        series = np.arange(10.0)
        ds = window_series(series, 9, 1)
        assert ds.n_samples == 1

    def test_count_formula_property(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            length = int(rng.integers(5, 200))
            w = int(rng.integers(1, length - 1))
            h = int(rng.integers(1, length - w + 1))
            series = rng.uniform(size=length)
            assert window_series(series, w, h).n_samples == length - w - h + 1

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="at least 6"):
            window_series([1, 2, 3], 4, 2)

    def test_mackey_glass_count(self):
        series = gen_mackey_glass(500)
        assert window_series(series, 4, 1).n_samples == 496


class TestGenerators:
    def test_f1_analytic_points(self):
        ds = gen_function("f1", 100, seed=0)
        x = ds.inputs[:, 0]
        np.testing.assert_array_equal(ds.targets, np.sin(2 * np.pi * x))

    def test_f2_analytic_points(self):
        ds = gen_function("f2", 100, seed=0)
        expected = ds.inputs[:, 0] * ds.inputs[:, 1] + np.sin(np.pi * ds.inputs[:, 0])
        np.testing.assert_array_equal(ds.targets, expected)

    def test_f1_mean_near_zero(self):
        # Monte-Carlo oracle: the integral of sin(2*pi*x) over [0,1] is 0
        ds = gen_function("f1", 100_000, seed=77)
        assert abs(float(np.mean(ds.targets))) <= 0.01

    def test_zero_noise_identical_to_clean(self):
        clean = gen_function("f1", 50, seed=21)
        noisy = gen_function("f1", 50, seed=21, sigma=0.0)
        assert clean.inputs.tobytes() == noisy.inputs.tobytes()
        assert clean.targets.tobytes() == noisy.targets.tobytes()

    def test_constant_noise_residual_std(self):
        ds = gen_function("f1", 10_000, seed=5, sigma=0.1)
        clean = np.sin(2 * np.pi * ds.inputs[:, 0])
        std = float(np.std(ds.targets - clean))
        assert 0.095 <= std <= 0.105

    def test_heteroscedastic_noise_vanishes_at_origin(self):
        ds = gen_function("f1", 5000, seed=6, sigma=0.5, noise="linear")
        clean = np.sin(2 * np.pi * ds.inputs[:, 0])
        resid = np.abs(ds.targets - clean)
        # deviation is bounded by slope * x * |eps|; near zero it collapses
        near = resid[ds.inputs[:, 0] < 0.01]
        assert near.size > 0 and float(near.max()) < 0.02

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError, match="sigma"):
            gen_function("f1", 10, seed=0, sigma=-0.1)

    @pytest.mark.parametrize("noise", ["constant", "linear"])
    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_non_finite_sigma_rejected(self, sigma, noise):
        with pytest.raises(ValueError, match="sigma must be finite and >= 0"):
            gen_function("f1", 10, seed=0, sigma=sigma, noise=noise)

    @pytest.mark.parametrize("noise, message", [
        ("linear", "'linear' noise needs a sigma"),
        ("gaussian", "noise must be 'constant' or 'linear', got 'gaussian'"),
    ])
    def test_noise_kind_without_sigma_rejected(self, noise, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            gen_function("f1", 10, seed=0, noise=noise)

    @pytest.mark.parametrize("kwargs, provenance", [
        ({}, "generator:f2(n_samples=12,seed=4)"),
        ({"sigma": 0.0}, "generator:f2+noise:constant(sigma=0.0,n_samples=12,seed=4)"),
        ({"sigma": 0.5, "noise": "linear"},
         "generator:f2+noise:linear(sigma=0.5,n_samples=12,seed=4)"),
    ], ids=["noiseless", "sigma-zero", "linear"])
    def test_provenance_names_the_noise(self, kwargs, provenance):
        assert gen_function("f2", 12, seed=4, **kwargs).provenance == provenance

    def test_determinism(self):
        a = gen_function("f2", 30, seed=9, sigma=0.2)
        b = gen_function("f2", 30, seed=9, sigma=0.2)
        assert a.targets.tobytes() == b.targets.tobytes()


class TestMackeyGlass:
    def test_initial_plateau(self):
        series = gen_mackey_glass(100)
        np.testing.assert_array_equal(series[:17], np.full(17, 1.2))

    def test_bit_identical_reruns(self):
        assert gen_mackey_glass(300).tobytes() == gen_mackey_glass(300).tobytes()

    def test_tail_oscillates(self):
        series = gen_mackey_glass(2000)
        assert float(np.std(series[-1000:])) > 0.1

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            gen_mackey_glass(10)

    @pytest.mark.parametrize("tau", [0, -2])
    def test_delay_below_one_rejected(self, tau):
        # tau 0 read unset memory, a negative tau indexed past the end
        with pytest.raises(ValueError, match="tau must be >= 1"):
            gen_mackey_glass(20, tau=tau)


class TestCsvRoundTrip:
    def test_regression_dataset_round_trip(self, tmp_path):
        ds = gen_function("f2", 25, seed=14, sigma=0.05)
        path = tmp_path / "out.csv"
        dataset_to_csv(ds, path)
        back = load_csv(path, target_column=-1, mode="regression")
        np.testing.assert_allclose(
            back.denormalized_inputs(), ds.denormalized_inputs(), rtol=1e-12
        )
        np.testing.assert_array_equal(back.targets, ds.targets)

    def test_classification_dataset_round_trip(self, tmp_path):
        # the class column holds the label names, and loads back to the same ids
        rng = np.random.default_rng(15)
        raw = rng.uniform(-2.0, 3.0, size=(12, 2))
        ds = Dataset(inputs=normalize(raw, [[-2.0, 3.0]] * 2), targets=[0, 1, 2, 1] * 3,
                     normalization=[[-2.0, 3.0]] * 2, provenance="test",
                     label_names=("setosa", "versicolor", "virginica"))
        path = tmp_path / "out.csv"
        dataset_to_csv(ds, path, header=True)
        lines = path.read_text().splitlines()
        assert [line.rsplit(",", 1)[1] for line in lines[:5]] == [
            "target", "setosa", "versicolor", "virginica", "versicolor"]
        back = load_csv(path, mode="classification", header=True)
        assert back.label_names == ds.label_names
        np.testing.assert_array_equal(back.targets, ds.targets)
        np.testing.assert_allclose(back.denormalized_inputs(), raw, rtol=1e-12)

    def test_series_round_trip(self, tmp_path):
        series = gen_mackey_glass(120)
        path = tmp_path / "series.csv"
        series_to_csv(series, path)
        back = load_series_csv(path)
        assert back.tobytes() == series.tobytes()


# cells csv.writer quotes (",", '"', "\r", "\n"), non-ASCII text and empty cells
CSV_CELLS = st.one_of(
    st.just(""),
    st.text(alphabet=[",", '"', "\r", "\n", " ", "a", "1", "\u00e9", "\u2028", "\U0001f600"],
            max_size=5),
    st.text(max_size=5),
)


@st.composite
def csv_table(draw):
    width = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(CSV_CELLS, min_size=width, max_size=width), max_size=6))
    header = draw(st.none() | st.lists(CSV_CELLS, min_size=width, max_size=width))
    return width, rows, header


class TestWriteCsv:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(table=csv_table())
    def test_bytes_equal_csv_writer(self, table):
        width, rows, header = table
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        if header is not None:
            writer.writerow(header)
        writer.writerows(rows)
        columns = [[row[c] for row in rows] for c in range(width)]
        with tempfile.TemporaryDirectory() as work:
            path = os.path.join(work, "out.csv")
            write_csv(path, columns, header)
            with open(path, "rb") as fh:
                assert fh.read() == expected.getvalue().encode("utf-8")

    def test_lone_empty_cell_is_quoted_and_others_are_bare(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, [["", "x"]])
        assert path.read_bytes() == b'""\r\nx\r\n'
        write_csv(path, [["", "x"], ["", ""]], header=["", "h"])
        assert path.read_bytes() == b",h\r\n,\r\nx,\r\n"

    def test_columns_of_unequal_length_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="equally long"):
            write_csv(tmp_path / "out.csv", [["1", "2"], ["3"]])


def file_writes(source: str, name: str) -> list[str]:
    """The calls in ``source`` (the module file ``name``) that open a file to write.

    Those are ``os.open`` outside ``schema.write_text``, and ``open`` with
    a mode that writes (or one that is not a literal), except the
    ``open(os.devnull, "w")`` that stands in for a closed stdout.
    """
    found = []
    for top in ast.parse(source, name).body:
        where = getattr(top, "name", None)
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = ast.unparse(node.func)
            if func == "os.open" and (name, where) != ("schema.py", "write_text"):
                found.append(f"{name}:{node.lineno}: {ast.unparse(node)}")
            elif func == "open" and node.args and ast.unparse(node.args[0]) != "os.devnull":
                mode = node.args[1] if len(node.args) > 1 else next(
                    (k.value for k in node.keywords if k.arg == "mode"), ast.Constant("r"))
                if not isinstance(mode, ast.Constant) or set(str(mode.value)) & set("wax+"):
                    found.append(f"{name}:{node.lineno}: {ast.unparse(node)}")
    return found


class TestWriteText:
    def test_package_writes_files_only_through_write_text(self):
        found = [hit for path in sorted(SRC.glob("*.py"))
                 for hit in file_writes(path.read_text(encoding="utf-8"), path.name)]
        assert found == []

    def test_guard_finds_other_writers(self):
        source = ('def save(p, m):\n    open(p, "w")\n    open(p, mode="ab")\n'
                  '    open(p, m)\n    open(p, "r+")\n    os.open(p, 1)\n    open(p)\n'
                  '    open(os.devnull, "w")\n')
        assert [hit.split(":")[1] for hit in file_writes(source, "schema.py")] == \
            ["2", "3", "4", "5", "6"]

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_new_file_has_the_mode_of_open_for_writing(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            with open(tmp_path / "by-open", "w"):
                pass
            write_text(tmp_path / "by-write-text", "x\n")
        finally:
            os.umask(old)
        modes = [stat.S_IMODE(os.stat(tmp_path / name).st_mode)
                 for name in ("by-open", "by-write-text")]
        assert modes == [0o666 & ~umask] * 2

    def test_shorter_text_over_longer_is_cut_to_length(self, tmp_path):
        path = tmp_path / "out.txt"
        write_text(path, "a longer first text\n")
        write_text(path, "é\n")
        assert path.read_bytes() == "é\n".encode("utf-8")


def regression_set(n_samples=2, **kwargs):
    """A one-feature regression Dataset of ``n_samples`` rows; ``kwargs`` replace fields."""
    fields = dict(inputs=np.linspace(0.0, 1.0, n_samples)[:, None],
                  targets=np.arange(n_samples, dtype=float), normalization=[[0.0, 1.0]],
                  provenance="test")
    return Dataset(**{**fields, **kwargs})


class TestRefusals:
    @pytest.mark.parametrize("call, message", [
        (lambda: split_dataset(gen_function("f1", 10, 0), SplitSpec(stratified=True), 0),
         "stratified split requires a classification dataset"),
        (lambda: split_dataset(regression_set(1), SplitSpec(), 0),
         "need at least 2 samples to split"),
        (lambda: window_series(np.arange(10.0), 0), "window and horizon must be >= 1, got 0, 1"),
        (lambda: window_series(np.arange(10.0), 2, 0),
         "window and horizon must be >= 1, got 2, 0"),
        (lambda: window_series(np.zeros((5, 2)), 2), "series must be 1-D, got shape (5, 2)"),
        (lambda: gen_function("f1", 1, 0), "n_samples must be >= 2, got 1"),
        (lambda: gen_function("f3", 10, 0), "unknown generator 'f3'; expected 'f1' or 'f2'"),
        # the noise overflows to inf, with no RuntimeWarning
        (lambda: gen_function("f1", 10, 0, sigma=1e308), "regression targets must be finite"),
        (lambda: regression_set(inputs=[0.1, 0.2]), "inputs must be 2-D, got shape (2,)"),
        (lambda: regression_set(normalization=[[0.0, 1.0]] * 2),
         "normalization must have shape (1, 2), got (2, 2)"),
        (lambda: regression_set(targets=[0.5, -np.inf]),
         "regression targets must be finite, got -inf"),
        (lambda: load_csv("unread.csv", mode="ranking"),
         "mode must be one of ('regression', 'classification'), got 'ranking'"),
    ], ids=["split-stratified-regression", "split-one-sample", "window-zero", "horizon-zero",
            "window-2d-series", "generator-one-sample", "generator-unknown",
            "generator-noise-overflows", "dataset-1d-inputs", "dataset-normalization-shape",
            "dataset-infinite-target", "load-csv-unknown-mode"])
    def test_refused(self, call, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            call()


class TestDatasetInvariants:
    def test_arrays_are_frozen(self):
        ds = gen_function("f1", 10, seed=0)
        with pytest.raises(ValueError):
            ds.inputs[0, 0] = 99.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            Dataset(
                inputs=np.zeros((0, 1)),
                targets=np.zeros(0),
                normalization=np.array([[0.0, 1.0]]),
                provenance="test",
            )

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            Dataset(
                inputs=np.zeros((3, 1)),
                targets=np.zeros(2),
                normalization=np.array([[0.0, 1.0]]),
                provenance="test",
            )

    def test_mode_follows_label_names(self):
        regression = gen_function("f1", 4, seed=0)
        assert regression.mode == "regression"
        with pytest.raises(ValueError, match="classification datasets only"):
            regression.n_classes
        classes = Dataset(inputs=np.zeros((4, 1)), targets=[0, 1, 1, 0],
                          normalization=[[0.0, 1.0]], provenance="test",
                          label_names=("a", "b", "c"))
        assert classes.mode == "classification" and classes.n_classes == 3
        assert classes.targets.dtype == np.int64

    @pytest.mark.parametrize("targets", [[0, 0, 1, 1, 2, 2], [0, 0, 1, 1, -1, -1]])
    def test_labels_must_index_label_names(self, targets):
        # label 2 (or -1) names no class, and a stratified split would
        # quietly drop its rows
        with pytest.raises(ValueError, match=r"index label_names \(0\.\.1\)"):
            Dataset(inputs=np.zeros((6, 1)), targets=targets,
                    normalization=[[0.0, 1.0]], provenance="test",
                    label_names=("a", "b"))

    @pytest.mark.parametrize("targets, bad", [([0.7, 1.9, 0.2, 1.0], "0.7"),
                                              ([0, 1, float("nan"), 1], "nan")],
                             ids=["fractional", "nan"])
    def test_labels_must_be_integers(self, targets, bad):
        # an int64 cast would truncate 0.7 to label 0 without a word
        with pytest.raises(ValueError, match=f"class labels must be integers, got {bad}$"):
            Dataset(inputs=[[0], [1], [0.5], [0.2]], targets=targets,
                    normalization=[[0.0, 1.0]], provenance="test",
                    label_names=("a", "b"))


# the csv.reader and float() reading that every loader must match, bulk path or not
def _reference_columns(path, header):
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ValueError(f"malformed CSV {path}: {exc}") from None
    try:
        rows = [row for row in csv.reader(io.StringIO(text, newline="")) if row]
    except csv.Error as exc:
        raise ValueError(f"malformed CSV {path}: {exc}") from None
    rows = rows[1:] if header else rows
    if not rows:
        raise ValueError(f"no data rows in {path}")
    for r, row in enumerate(rows):
        if len(row) != len(rows[0]):
            raise ValueError(f"ragged CSV: row {r + 1} has {len(row)} cells, "
                             f"expected {len(rows[0])}")
    return list(zip(*rows))


def _reference_index(width, column, name):
    index = column if column >= 0 else width + column
    if not 0 <= index < width:
        raise ValueError(f"{name} {column} out of range for {width} columns")
    return index


def _reference_numbers(columns, picks):
    rows = list(zip(*(columns[c] for c in picks)))
    for r, row in enumerate(rows):
        for j, cell in enumerate(row):
            try:
                float(cell)
            except ValueError:
                cell = None
            if cell is None or "_" in cell or not cell.isascii():
                raise ValueError(f"unparseable cell at row {r + 1}, column {picks[j] + 1}: "
                                 f"{row[j]!r}")
    for r, row in enumerate(rows):
        for j, cell in enumerate(row):
            if not math.isfinite(float(cell)):
                raise ValueError(f"non-finite cell at row {r + 1}, column {picks[j] + 1}: "
                                 f"{cell!r}")
    return np.array([[float(cell) for cell in row] for row in rows]).reshape(-1, len(picks))


def _features(width, drop):
    features = [c for c in range(width) if c != drop]
    if not features:
        raise ValueError("no feature columns left after removing the target")
    return features


def _reference_load(path, header, kind, column):
    """What ``kind`` of loader returns for the file, as bytes and cells."""
    columns = _reference_columns(path, header)
    width = len(columns)
    if kind == "series":
        return _reference_numbers(columns, [_reference_index(width, column, "column")]).tobytes()
    if kind == "features":
        drop = None if column is None else _reference_index(width, column, "target_column")
        features = _features(width, drop)
        return (_reference_numbers(columns, features).tobytes(),
                [columns[c] for c in features])
    target = _reference_index(width, column, "target_column")
    raw = _reference_numbers(columns, _features(width, target))
    # a file's own feature ranges; min and max pick between 0.0 and -0.0 by the layout
    ranges = np.column_stack([raw.min(axis=0), raw.max(axis=0)]).tobytes()
    if kind == "regression":
        return raw.tobytes(), ranges, _reference_numbers(columns, [target]).tobytes()
    labels = {}
    ids = [labels.setdefault(cell.strip(), len(labels)) for cell in columns[target]]
    return raw.tobytes(), ranges, np.array(ids).tobytes(), tuple(labels)


def _load(path, header, kind, column):
    """The same from the package; identity normalization keeps the raw bits."""
    try:
        width = len(_reference_columns(path, header))
    except ValueError:
        width = 1
    identity = [[0.0, 1.0]] * width
    if kind == "series":
        return load_series_csv(path, column=column, header=header).tobytes()
    if kind == "features":
        cells, inputs = load_features(path, normalization=identity[:width - (column is not None)],
                                      drop_column=column, header=header)
        return inputs.tobytes(), cells
    ds = load_csv(path, target_column=column, mode=kind, header=header,
                  normalization=identity[:width - 1])
    ranges = load_csv(path, target_column=column, mode=kind, header=header).normalization
    if kind == "regression":
        return ds.inputs.tobytes(), ranges.tobytes(), ds.targets.tobytes()
    return ds.inputs.tobytes(), ranges.tobytes(), ds.targets.tobytes(), ds.label_names


def _outcome(load, *args):
    try:
        return load(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


NUMBER_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["+.5", "1.", "-0", "0.0", "-0.00", "5E+3", "4.9e-324", "1e-400", " 3 ", "\t-2\t",
                     "\x0b1", "0.1000000000000000055511151231257827"]),
)
# what a numeric cell may not be, or what csv.reader reads differently from a split
ODD_CELLS = st.one_of(
    st.text(alphabet=[*"0123456789.e+-", " ", "\t", "\x0b", "_", "\uff11", "\u00a0",
                      '"', ","], max_size=4),
    st.sampled_from(["nan", "inf", "", " ", '"1"', '"1,5"', '"2"3']),
)
NON_FINITE_CELLS = st.sampled_from(["nan", "-inf", "1e400", " Infinity"])
# class labels: plain, quoted, or not ASCII
LABEL_CELLS = [st.sampled_from(["a", " b ", "1"]),
               st.sampled_from(["a", '"c"', '"d,e"', '"f""g"']),
               st.sampled_from(["a", "\u00e9"])]
ENDS = st.sampled_from(["\n", "\r\n", "\r"])


def _one_in(draw, n):
    return draw(st.integers(1, n)) == 2  # not 1: hypothesis favours the bounds


@st.composite
def csv_file(draw):
    """The bytes of a CSV file that is mostly numbers, and how to read it."""
    kind = draw(st.sampled_from(["regression", "classification", "features", "series"]))
    width = draw(st.integers(1 if kind in ("features", "series") or _one_in(draw, 10) else 2, 4))
    if kind == "series" or not _one_in(draw, 10):
        column = draw(st.integers(-width, width - 1))
    else:
        column = draw(st.sampled_from([-width - 1, width]))
    cells = draw(st.sampled_from([NUMBER_CELLS, NUMBER_CELLS, NUMBER_CELLS,
                                  NUMBER_CELLS | ODD_CELLS, NUMBER_CELLS | NON_FINITE_CELLS]))
    row = st.lists(cells, min_size=width, max_size=width)
    if kind == "classification" and -width <= column < width:
        row = st.tuples(row, draw(st.sampled_from(LABEL_CELLS))).map(lambda r: [*r[0][:column % width], r[1],
                                                    *r[0][column % width + 1:]])
    rows = draw(st.lists(row, min_size=1, max_size=8))
    if _one_in(draw, 6):  # one row a cell wider or narrower
        r = draw(st.integers(0, len(rows) - 1))
        rows[r] = rows[r][:-1] if draw(st.booleans()) else [*rows[r], draw(NUMBER_CELLS)]
    lines = [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):  # blank and whitespace-only lines
        blank = draw(st.sampled_from([" ", "\t"])) if _one_in(draw, 5) else ""
        lines.insert(draw(st.integers(0, len(lines))), blank)
    header = draw(st.booleans())
    if header:
        lines.insert(0, ",".join(draw(st.sampled_from(["x", "1"])) for _ in range(width)))
    if _one_in(draw, 20):  # a cell over csv.field_size_limit()
        lines[-1] += "," + "0" * csv.field_size_limit() + "1"
    text = "".join(line + draw(ENDS) for line in lines[:-1]) + lines[-1] + \
        draw(st.sampled_from(["", "\n", "\r\n"]))
    data = draw(st.sampled_from([b"", b"\xef\xbb\xbf"])) + text.encode("utf-8")
    if _one_in(draw, 8):  # invalid UTF-8 or a NUL
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\x00", b"\xc3"])) + data[at:]
    if kind == "features" and draw(st.booleans()):
        column = None
    return data, header, kind, column


class TestBulkParse:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(case=csv_file())
    def test_loaders_equal_csv_reader_and_float(self, case):
        data, header, kind, column = case
        with tempfile.TemporaryDirectory() as work:
            path = os.path.join(work, "data.csv")
            with open(path, "wb") as fh:
                fh.write(data)
            assert _outcome(_load, path, header, kind, column) == \
                _outcome(_reference_load, path, header, kind, column)

    @pytest.mark.parametrize("text, kind, column", [
        ("1,2\n3,4,5\n", "series", 0),
        ("1,2,3\n4,5\n", "series", 1),
        ("1,a\n2,b,3\n", "classification", 1),
        ("1,2,3\n4,5,6,7\n", "features", 2),
        ("1,2,3\n4,5\n", "features", 2),
        ('1,2\n3,"4"\n', "features", None),
        ('1,"a"\n2,b\n', "classification", -1),
        ("1,2\r3,4\r\n\r\n5,\x0b6\n", "regression", 0),
        # from 9 rows on, min and max over columns break 0.0/-0.0 ties by the layout
        ("-0.0,1,a\n" + "1,1,b\n" * 7 + "0.0,1,a\n", "classification", -1),
        # numpy strips \x1c-\x1f around a number, float() refuses them
        ("0.5,\x1c1\n0.2,2\n", "regression", -1),
        ("1\x1f,2\n", "features", None),
        # csv.reader refuses any NUL before Python 3.11
        ("1,a\x00\n2,b\n", "classification", -1),
    ], ids=["series-wider", "series-narrower", "labels-wider", "features-wider",
            "features-narrower", "quoted-number", "quoted-label", "line-ends",
            "signed-zero-ranges", "separator-in-target", "separator-in-feature",
            "nul-in-label"])
    def test_edge_files(self, tmp_path, text, kind, column):
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        assert _outcome(_load, path, False, kind, column) == \
            _outcome(_reference_load, path, False, kind, column)
