import numpy as np
import pytest

from wtanet import accuracy, confusion_matrix, mae, nrmse, rmse


class TestRegressionMetrics:
    def test_perfect_predictions(self):
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert mae([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_hand_value(self):
        # sqrt((3^2 + 4^2) / 2) = sqrt(12.5)
        assert rmse([0, 0], [3, 4]) == np.sqrt(12.5)
        assert rmse([0, 0], [3, 4]) == pytest.approx(3.535533905932738, abs=1e-15)

    def test_loop_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(1, 50))
            p = rng.uniform(-5, 5, size=n)
            t = rng.uniform(-5, 5, size=n)
            sq = sum((float(a) - float(b)) ** 2 for a, b in zip(p, t)) / n
            ab = sum(abs(float(a) - float(b)) for a, b in zip(p, t)) / n
            assert rmse(p, t) == pytest.approx(np.sqrt(sq), rel=1e-12)
            assert mae(p, t) == pytest.approx(ab, rel=1e-12)

    def test_nrmse_scales_by_target_std(self):
        rng = np.random.default_rng(1)
        p = rng.uniform(size=30)
        t = rng.uniform(size=30)
        assert nrmse(p, t) == pytest.approx(rmse(p, t) / float(np.std(t)), rel=1e-12)

    def test_nrmse_rejects_constant_targets(self):
        with pytest.raises(ValueError, match="constant"):
            nrmse([1.0, 2.0], [3.0, 3.0])

    def test_length_mismatch_and_empty_rejected(self):
        with pytest.raises(ValueError):
            rmse([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            rmse([], [])

    @pytest.mark.parametrize("metric, predictions, targets, name", [
        (rmse, [1e200, 0.0], [0.0, 0.0], "rmse"),        # the square overflows
        (mae, [1e308, 0.0], [-1e308, 0.0], "mae"),       # the difference overflows
        (nrmse, [0.0, 0.0], [1e200, -1e200], "target std"),
        (nrmse, [1e150, 1e150], [0.0, 2e-160], "nrmse"),  # the quotient overflows
    ], ids=["rmse", "mae", "nrmse-target-std", "nrmse-quotient"])
    def test_overflow_of_finite_inputs_raises(self, metric, predictions, targets, name):
        # no RuntimeWarning escapes either: the test filter raises them
        with pytest.raises(ValueError, match=f"^non-finite {name}: "
                                             "the targets or outputs are too large$"):
            metric(predictions, targets)


class TestClassificationMetrics:
    def test_perfect_accuracy(self):
        assert accuracy([0, 1, 2], [0, 1, 2]) == 1.0

    def test_accuracy_fraction(self):
        assert accuracy([0, 1, 1, 0], [0, 1, 0, 1]) == 0.5

    def test_confusion_rows_are_true_classes(self):
        counts = confusion_matrix([0, 0, 1], [0, 1, 1], n_classes=2)
        np.testing.assert_array_equal(counts, [[1, 0], [1, 1]])

    def test_confusion_row_sums_equal_class_counts(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(1, 60))
            c = int(rng.integers(2, 5))
            t = rng.integers(0, c, size=n)
            p = rng.integers(0, c, size=n)
            counts = confusion_matrix(p, t, n_classes=c)
            np.testing.assert_array_equal(
                counts.sum(axis=1), np.bincount(t, minlength=c)
            )
            assert accuracy(p, t) == counts.trace() / n

    def test_confusion_equals_per_row_count(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 60))
            c = int(rng.integers(2, 5))
            t = rng.integers(0, c, size=n)
            p = rng.integers(0, c, size=n)
            expected = np.zeros((c, c), dtype=np.int64)
            for true, pred in zip(t, p):
                expected[true, pred] += 1
            np.testing.assert_array_equal(confusion_matrix(p, t, n_classes=c), expected)

    def test_confusion_label_out_of_range_rejected(self):
        with pytest.raises(IndexError):
            confusion_matrix([0, 3], [0, 1], n_classes=2)
