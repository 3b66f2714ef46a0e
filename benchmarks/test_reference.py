"""Tests of the benchmark's reference forward and of its operation accounting.

Run from the repository root: ``python3 -m pytest benchmarks``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import reference as ref
from workloads import Op, run_op


def _model(v, w, *, order, input_dim=1, mode="regression", class_of_unit=None,
           class_names=None, activation="identity"):
    return ref.model_from_doc({
        "spec": {"input_dim": input_dim, "order": order, "include_bias": True},
        "units": [{"v": vj, "w": wj} for vj, wj in zip(v, w)],
        "mode": mode,
        "output_activation": activation,
        "class_of_unit": class_of_unit,
        "class_names": class_names,
    })


def test_expansion_order_raw_then_sin_cos_per_harmonic_then_bias():
    p = ref.expand(np.array([[0.25, 0.5]]), order=2, include_bias=True)[0]
    s = math.sqrt(0.5)
    want = [0.25, 0.5,
            s, s, 1.0, 0.0,          # x1: sin, cos at h=1, then h=2
            1.0, 0.0, 0.0, -1.0,     # x2
            1.0]
    np.testing.assert_allclose(p, want, atol=1e-15)


def test_one_unit_response_is_v_minus_w_dot_p():
    # x = 0.5, order 1: p = [0.5, sin(pi/2), cos(pi/2), 1] = [0.5, 1, 0, 1]
    model = _model([[1.0, 2.0, 3.0, 4.0]], [[0.5, 0.0, 0.0, 1.0]], order=1)
    out = ref.forward(model, [[0.5]])
    assert out.winners.tolist() == [0]
    # (1-0.5)*0.5 + (2-0)*1 + (3-0)*0 + (4-1)*1 = 5.25
    assert out.values[0] == pytest.approx(5.25, abs=1e-12)
    assert not out.tie[0]


def test_two_units_winner_by_excitation_then_its_own_response():
    # order 0: p = [x, 1]; excitations x and 1 - x
    model = _model([[1.0, 0.0], [-1.0, 1.0]], [[0.0, 0.0], [0.0, 0.5]], order=0)
    out = ref.forward(model, [[0.25], [0.75]])
    assert out.winners.tolist() == [1, 0]
    # row 1: unit 1, (-1)(0.25) + (1 - 0.5)(1) = 0.25; row 2: unit 0, 0.75
    np.testing.assert_allclose(out.values, [0.25, 0.75], atol=1e-15)
    assert not out.tie.any()


def test_tie_goes_to_smallest_index_and_is_flagged():
    model = _model([[1.0, 0.0], [-1.0, 1.0]], [[0.0, 0.0], [0.0, 0.5]], order=0)
    out = ref.forward(model, [[0.5]])
    assert out.winners.tolist() == [0]
    assert out.values[0] == pytest.approx(0.5)
    assert out.tie.tolist() == [True]


def test_classification_returns_class_name_of_winner():
    model = _model([[1.0, 0.0], [-1.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]], order=0,
                   mode="classification", class_of_unit=[1, 0],
                   class_names=["a", "b"])
    assert ref.forward(model, [[0.9], [0.1]]).values.tolist() == ["b", "a"]


def test_training_normalization_is_applied_not_the_rows_own_range():
    lo, hi = np.array([2.0, -1.0]), np.array([4.0, 1.0])
    np.testing.assert_allclose(ref.normalize([[3.0, 1.0]], lo, hi), [[0.5, 1.0]])
    # a constant training feature maps to 0.0
    np.testing.assert_allclose(ref.normalize([[3.0, 7.0]], lo, [4.0, -1.0]), [[0.5, 0.0]])


def test_tied_rows_are_excused_others_compared():
    model = _model([[1.0, 0.0], [-1.0, 1.0]], [[0.0, 0.0], [0.0, 0.5]], order=0)
    want = ref.forward(model, [[0.5], [0.25]])
    assert ref.compare_outputs(["123.0", "0.25"], want) is None
    assert ref.compare_outputs(["0.5", "0.2500001"], want).startswith("row 2")


def test_one_wrong_prediction_in_an_output_file_fails_its_operation(tmp_path):
    model = _model([[1.0, 0.0], [-1.0, 1.0]], [[0.0, 0.0], [0.0, 0.5]], order=0)
    rows = np.array([[0.1], [0.3], [0.7], [0.9]])
    want = ref.forward(model, rows)
    out_file = tmp_path / "predictions.csv"

    def fake_predict(values):
        def main(argv):
            out_file.write_text("".join(f"{x[0]!r},{v!r}\n" for x, v in zip(rows, values)))
            return 0
        return main

    op = Op("predict", [], len(rows),
            lambda stdout: ref.compare_outputs(ref.read_last_column(out_file), want))
    right = [float(v) for v in want.values]
    assert run_op(fake_predict(right), op).error is None
    wrong = list(right)
    wrong[2] += 1e-6
    result = run_op(fake_predict(wrong), op)
    assert result.error is not None and result.error.startswith("row 3")


def test_nonzero_exit_and_exceptions_fail_the_operation():
    op = Op("predict", [], 1, lambda stdout: None)
    assert run_op(lambda argv: 1, op).error.startswith("exit 1")

    def boom(argv):
        raise RuntimeError("crash")
    assert "crash" in run_op(boom, op).error


def test_eval_scores_are_checked():
    outputs, targets = np.array([1.0, 2.0, 4.0]), np.array([1.0, 3.0, 3.0])
    want = ref.regression_scores(outputs, targets)
    assert want["rmse"] == pytest.approx(math.sqrt(2 / 3))
    assert want["mae"] == pytest.approx(2 / 3)
    assert want["nrmse"] == pytest.approx(math.sqrt(2 / 3) / np.std(targets))
    assert ref.compare_scores(dict(want), want) is None
    assert ref.compare_scores({**want, "mae": 0.6}, want).startswith("mae")


def test_trace_best_column_must_not_decrease(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("generation,best,mean\n0,-0.5,-1\n1,-0.4,-1\n2,-0.4,-1\n")
    assert ref.best_non_decreasing(path) is None
    path.write_text("generation,best,mean\n0,-0.5,-1\n1,-0.6,-1\n")
    assert "generation 1" in ref.best_non_decreasing(path)
