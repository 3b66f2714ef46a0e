import json

import numpy as np
import pytest

from wtanet import (
    ExpansionSpec,
    ModelShape,
    WtaModel,
    expand_batch,
    load_model,
    model_from_dict,
    model_to_dict,
    predict,
    save_model,
)


def raw_passthrough_spec(n):
    return ExpansionSpec(input_dim=n, order=0, include_bias=False)


def predict_one(model, s):
    """Winner, excitations and output of one raw row."""
    winners, outputs = predict(model, [s])
    pattern = expand_batch(model.shape.spec, [s])[0]
    return int(winners[0]), model.excitatory @ pattern, outputs[0]


def random_model(rng, n=2, order=2, n_units=3, output_activation="identity",
                 normalization=None):
    spec = ExpansionSpec(input_dim=n, order=order)
    m = n * (2 * order + 1) + 1
    return WtaModel(
        ModelShape(spec, n_units, output_activation=output_activation),
        rng.uniform(-1, 1, size=(n_units, m)),
        rng.uniform(-1, 1, size=(n_units, m)),
        normalization=[[0.0, 1.0]] * n if normalization is None else normalization,
    )


class TestForward:
    def test_hand_worked_example(self):
        spec = raw_passthrough_spec(2)
        model = WtaModel(ModelShape(spec, 2), [[1, 0], [0, 1]], np.zeros((2, 2)))
        winner, excitation, output = predict_one(model, [0.2, 0.9])
        np.testing.assert_array_equal(excitation, [0.2, 0.9])
        assert winner == 1
        assert output == 0.9

    def test_tie_breaks_to_smallest_index(self):
        spec = raw_passthrough_spec(2)
        model = WtaModel(ModelShape(spec, 2), [[1, 1], [1, 1]], np.zeros((2, 2)))
        assert predict(model, [[0.3, 0.4]])[0][0] == 0

    def test_inhibition_subtracts_from_winner(self):
        spec = raw_passthrough_spec(1)
        model = WtaModel(ModelShape(spec, 1), [[2.0]], [[0.5]])
        assert predict(model, [[1.0]])[1][0] == 1.5

    def test_logistic_activation(self):
        spec = raw_passthrough_spec(1)
        model = WtaModel(ModelShape(spec, 1, output_activation="logistic"),
                         [[0.0]], [[0.0]])
        assert predict(model, [[5.0]])[1][0] == 0.5

    def test_classification_outputs_winner_class(self):
        spec = raw_passthrough_spec(2)
        model = WtaModel(
            ModelShape(spec, 2, class_of_unit=[4, 9]),
            [[1, 0], [0, 1]], np.zeros((2, 2)),
        )
        assert predict(model, [[0.1, 0.8], [0.8, 0.1]])[1].tolist() == [9, 4]

    def test_dimension_mismatch_names_dims(self):
        rng = np.random.default_rng(0)
        model = random_model(rng, n=3)
        with pytest.raises(ValueError, match=r"\(\*, 3\)"):
            predict(model, [[0.1, 0.2]])

    def test_purity_bit_identical(self):
        rng = np.random.default_rng(1)
        model = random_model(rng)
        inputs = rng.uniform(0, 1, size=(10, 2))
        a = predict(model, inputs)
        b = predict(model, inputs)
        assert a[0].tobytes() == b[0].tobytes()
        assert a[1].tobytes() == b[1].tobytes()

    def test_non_finite_output_names_first_row(self):
        spec = raw_passthrough_spec(1)
        model = WtaModel(ModelShape(spec, 1), [[1e308]], [[-1e308]])
        with pytest.raises(ValueError, match="non-finite output at row 1"):
            predict(model, [[0.0], [1.0], [1.0]])

    def test_non_finite_excitation_rejected_in_classification(self):
        spec = raw_passthrough_spec(1)
        model = WtaModel(ModelShape(spec, 2, class_of_unit=[0, 1]),
                         [[1e308], [-1e308]], np.zeros((2, 1)))
        with pytest.raises(ValueError, match="non-finite output at row 0"):
            predict(model, [[2.0]])


class TestCompetitionInvariances:
    def test_scaling_excitatory_weights_keeps_winner(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            model = random_model(rng, n_units=int(rng.integers(1, 6)))
            s = rng.uniform(0, 1, size=(1, 2))
            base = predict(model, s)[0].tolist()
            c = float(rng.uniform(0.01, 20))
            scaled = WtaModel(
                model.shape, model.excitatory * c, model.inhibitory,
            )
            assert predict(scaled, s)[0].tolist() == base

    def test_perturbing_losers_leaves_prediction_unchanged(self):
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 200:
            model = random_model(rng, n_units=4)
            s = rng.uniform(0, 1, size=2)
            winner, excitation, output = predict_one(model, s)
            loser = int(rng.integers(0, 4))
            if loser == winner:
                continue
            p = expand_batch(model.shape.spec, [s])[0]
            v = model.excitatory.copy()
            w = model.inhibitory.copy()
            v[loser] += rng.uniform(-0.5, 0.5, size=v.shape[1])
            w[loser] = rng.uniform(-1, 1, size=w.shape[1])
            if float(v[loser] @ p) >= float(excitation[winner]):
                continue  # perturbation must keep the loser strictly below
            perturbed = predict_one(WtaModel(model.shape, v, w), s)
            assert perturbed[0] == winner
            assert perturbed[2] == output
            checked += 1

    def test_single_unit_reduces_to_affine_in_basis(self):
        rng = np.random.default_rng(4)
        spec = ExpansionSpec(input_dim=1, order=0)
        for _ in range(100):
            v = rng.uniform(-1, 1, size=(1, 2))
            w = rng.uniform(-1, 1, size=(1, 2))
            model = WtaModel(ModelShape(spec, 1), v, w)
            s = rng.uniform(0, 1, size=(1, 1))
            # K=0 expansion plus one linear unit is plain affine regression
            expected = (v[0, 0] - w[0, 0]) * s[0, 0] + (v[0, 1] - w[0, 1])
            assert predict(model, s)[1][0] == pytest.approx(expected, abs=1e-12)


class TestPredictBatch:
    def test_empty_sequence(self):
        rng = np.random.default_rng(5)
        winners, outputs = predict(random_model(rng), np.empty((0, 2)))
        assert winners.shape == outputs.shape == (0,)

    def test_singleton_matches_forward(self):
        rng = np.random.default_rng(6)
        model = random_model(rng)
        s = rng.uniform(0, 1, size=2)
        winner, excitation, output = predict_one(model, s)
        # the per-row definition: argmax of v.p, then (v - w).p of the winner
        p = expand_batch(model.shape.spec, [s])[0]
        assert winner == int(np.argmax(excitation))
        assert output == excitation[winner] - model.inhibitory[winner] @ p

    def test_batch_equals_loop(self):
        rng = np.random.default_rng(7)
        for activation in ("identity", "logistic"):
            model = random_model(rng, output_activation=activation)
            inputs = rng.uniform(0, 1, size=(100, 2))
            winners, outputs = predict(model, inputs)
            for i in range(100):
                one = predict(model, inputs[i:i + 1])
                assert one[0][0] == winners[i]
                assert one[1][0] == outputs[i]

    def test_first_invalid_input_aborts_with_index(self):
        rng = np.random.default_rng(8)
        model = random_model(rng)
        inputs = [np.array([0.1, 0.2]), np.array([np.nan, 0.2])]
        with pytest.raises(ValueError, match="row 1"):
            predict(model, inputs)


class TestModelValidation:
    def test_unit_weight_lengths_must_match_spec(self):
        spec = ExpansionSpec(input_dim=2, order=1)
        with pytest.raises(ValueError, match=r"\(2, 7\)"):
            WtaModel(ModelShape(spec, 2), np.zeros((2, 5)), np.zeros((2, 5)))

    def test_classification_requires_unit_classes(self):
        # a shape is a classifier exactly when it has class_of_unit, so the
        # model file's mode key is what must agree with it
        spec = raw_passthrough_spec(2)
        assert ModelShape(spec, 2).mode == "regression"
        assert ModelShape(spec, 2, class_of_unit=(0, 1)).mode == "classification"
        doc = model_to_dict(WtaModel(ModelShape(spec, 2, class_of_unit=(0, 1)),
                                     np.eye(2), np.zeros((2, 2)), class_names=["a", "b"],
                                     normalization=[[0.0, 1.0]] * 2))
        del doc["class_of_unit"]
        with pytest.raises(ValueError, match="^missing key model.class_of_unit$"):
            model_from_dict(doc)
        doc.update(mode="regression", class_of_unit=[0, 1])
        del doc["class_names"]
        with pytest.raises(ValueError, match="class_of_unit is for classification models only"):
            model_from_dict(doc)

    def test_non_finite_weights_rejected(self):
        spec = raw_passthrough_spec(1)
        with pytest.raises(ValueError, match="finite"):
            WtaModel(ModelShape(spec, 1), [[np.inf]], [[0.0]])

    def test_units_view(self):
        # the model JSON lists unit j as row j of both weight matrices
        rng = np.random.default_rng(9)
        model = random_model(rng, n_units=2)
        units = model_to_dict(model)["units"]
        assert len(units) == 2
        assert units[1]["v"] == model.excitatory[1].tolist()
        assert units[1]["w"] == model.inhibitory[1].tolist()

    def test_normalization_shape_checked(self):
        spec = raw_passthrough_spec(2)
        with pytest.raises(ValueError, match=r"\(2, 2\)"):
            WtaModel(ModelShape(spec, 1), np.zeros((1, 2)), np.zeros((1, 2)),
                     normalization=[[0.0, 1.0]])

    def test_normalization_pairs_must_not_be_reversed(self):
        # min == max is a constant training feature, which serving maps to 0.0
        spec = raw_passthrough_spec(2)
        model = WtaModel(ModelShape(spec, 1), np.zeros((1, 2)), np.zeros((1, 2)),
                         normalization=[[0.5, 0.5], [0.0, 1.0]])
        assert model.normalization.tolist() == [[0.5, 0.5], [0.0, 1.0]]
        with pytest.raises(ValueError, match="min <= max"):
            WtaModel(ModelShape(spec, 1), np.zeros((1, 2)), np.zeros((1, 2)),
                     normalization=[[0.0, 1.0], [1.0, 0.0]])


class TestSerialization:
    def test_round_trip_reproduces_forward_bit_exactly(self, tmp_path):
        rng = np.random.default_rng(10)
        model = random_model(rng, n=2, order=3, n_units=4)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        inputs = rng.uniform(0, 1, size=(50, 2))
        a = predict(model, inputs)
        b = predict(loaded, inputs)
        assert a[0].tobytes() == b[0].tobytes()
        assert a[1].tobytes() == b[1].tobytes()

    def test_classification_round_trip_keeps_labels(self, tmp_path):
        spec = raw_passthrough_spec(2)
        model = WtaModel(
            ModelShape(spec, 2, class_of_unit=[0, 1]),
            [[1, 0], [0, 1]], np.zeros((2, 2)),
            class_names=["cat", "dog"], normalization=[[0.0, 1.0], [2.0, 5.0]],
        )
        path = tmp_path / "clf.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.shape.class_of_unit == (0, 1)
        assert loaded.class_names == ("cat", "dog")

    def test_save_is_byte_stable(self, tmp_path):
        rng = np.random.default_rng(11)
        model = random_model(rng)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_model(model, p1)
        save_model(model, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_format_version_checked(self):
        doc = model_to_dict(WtaModel(
            ModelShape(raw_passthrough_spec(1), 1), [[1.0]], [[0.0]],
            normalization=[[0.0, 1.0]],
        ))
        doc["format_version"] = 99
        with pytest.raises(ValueError, match="format_version"):
            model_from_dict(doc)

    @pytest.mark.parametrize("key, value", [("include_bias", "false"), ("order", 2.5)])
    def test_spec_is_parsed_strictly(self, key, value):
        # bool("false") is True and int(2.5) is 2: neither may load
        doc = model_to_dict(random_model(np.random.default_rng(14)))
        doc["spec"][key] = value
        with pytest.raises(ValueError, match=f"spec.{key} must be"):
            model_from_dict(doc)

    def test_dict_round_trip_is_exact(self):
        rng = np.random.default_rng(12)
        model = random_model(rng, normalization=[[-0.3, 2.1], [1e-3, 7.0]])
        clone = model_from_dict(json.loads(json.dumps(model_to_dict(model))))
        assert clone.excitatory.tobytes() == model.excitatory.tobytes()
        assert clone.inhibitory.tobytes() == model.inhibitory.tobytes()
        assert clone.normalization.tobytes() == model.normalization.tobytes()

    def test_save_refuses_a_model_without_serving_metadata(self, tmp_path):
        # the reader rejects such a file, so the writer must not make one
        path = tmp_path / "model.json"
        with pytest.raises(ValueError, match="normalization"):
            save_model(WtaModel(ModelShape(raw_passthrough_spec(1), 1), [[1.0]], [[0.0]]),
                       path)
        with pytest.raises(ValueError, match="class_names"):
            save_model(WtaModel(
                ModelShape(raw_passthrough_spec(1), 2, class_of_unit=[0, 1]),
                [[1.0], [0.5]], np.zeros((2, 1)), normalization=[[0.0, 1.0]],
            ), path)
        assert not path.exists()
