import numpy as np
import pytest

from wtanet import ExpansionSpec, expand_batch, expansion_dim


class TestExpansionDim:
    def test_identity_plus_bias(self):
        assert expansion_dim(ExpansionSpec(input_dim=1, order=0)) == 2

    def test_two_inputs_two_harmonics(self):
        assert expansion_dim(ExpansionSpec(input_dim=2, order=2)) == 11

    def test_no_bias(self):
        spec = ExpansionSpec(input_dim=3, order=1, include_bias=False)
        assert expansion_dim(spec) == 9

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ExpansionSpec(input_dim=0, order=1)
        with pytest.raises(ValueError):
            ExpansionSpec(input_dim=1, order=-1)


class TestExpand:
    def test_identity_case(self):
        out = expand_batch(ExpansionSpec(input_dim=1, order=0), [[0.5]])[0]
        np.testing.assert_array_equal(out, [0.5, 1.0])

    def test_single_harmonic_ordering(self):
        # raw, sin(pi/2), cos(pi/2), bias
        out = expand_batch(ExpansionSpec(input_dim=1, order=1), [[0.5]])[0]
        np.testing.assert_allclose(out, [0.5, 1.0, 0.0, 1.0], atol=1e-15)

    def test_two_inputs_at_zero(self):
        out = expand_batch(ExpansionSpec(input_dim=2, order=1), [[0.0, 0.0]])[0]
        np.testing.assert_array_equal(out, [0, 0, 0, 1, 0, 1, 1])

    def test_determinism_bit_identical(self):
        spec = ExpansionSpec(input_dim=3, order=4)
        s = np.array([0.12, 0.98, 0.4])
        a = expand_batch(spec, [s])[0]
        b = expand_batch(spec, [s])[0]
        assert a.tobytes() == b.tobytes()

    def test_dimension_consistency_property(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            k = int(rng.integers(0, 5))
            bias = bool(rng.integers(0, 2))
            spec = ExpansionSpec(input_dim=n, order=k, include_bias=bias)
            s = rng.uniform(-2, 2, size=n)
            assert expand_batch(spec, [s])[0].shape[0] == expansion_dim(spec)

    def test_harmonics_bounded_on_unit_box(self):
        rng = np.random.default_rng(43)
        spec = ExpansionSpec(input_dim=4, order=3)
        for _ in range(100):
            s = rng.uniform(-1, 1, size=4)
            out = expand_batch(spec, [s])[0]
            harmonics = out[4:-1]
            assert np.all(harmonics >= -1.0) and np.all(harmonics <= 1.0)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match=r"expected \(\*, 2\), got \(1, 1\)"):
            expand_batch(ExpansionSpec(input_dim=2, order=0), [[1.0]])

    def test_rejects_non_finite_naming_index(self):
        with pytest.raises(ValueError, match="row 0, index 1"):
            expand_batch(ExpansionSpec(input_dim=3, order=0), [[0.0, np.nan, 0.2]])


class TestExpandBatch:
    def test_rejects_non_finite_naming_row(self):
        spec = ExpansionSpec(input_dim=2, order=1)
        x = np.ones((3, 2))
        x[2, 0] = np.inf
        with pytest.raises(ValueError, match="row 2"):
            expand_batch(spec, x)
