import csv
import io
import math
import os
import re
import tempfile

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
