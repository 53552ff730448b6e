import numpy as np
import pytest

from mechindep import (
    FeatureSpec,
    ValidationError,
    build_outcome_features,
    build_treatment_features,
    outcome_spec,
    treatment_spec,
)


def brute_force_treatment(X, degree, intercept=True):
    """Independent oracle: explicit per-row, per-power loops."""
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    rows = []
    for i in range(n):
        row = [1.0] if intercept else []
        for p in range(1, degree + 1):
            for j in range(d):
                row.append(X[i, j] ** p)
        rows.append(row)
    return np.asarray(rows)


def brute_force_outcome(X, A, degree, intercept=True, interactions=False, square=False):
    X = np.asarray(X, dtype=float)
    A = np.asarray(A, dtype=float)
    base = brute_force_treatment(X, degree, intercept)
    cols = [base, A[:, None]]
    if interactions:
        cols.append(A[:, None] * X)
    if square:
        cols.append((A**2)[:, None])
    return np.hstack(cols)


class TestTreatmentFeatures:
    def test_single_point_degree2(self):
        out = build_treatment_features([[2.0]], treatment_spec(2))
        np.testing.assert_array_equal(out, [[1.0, 2.0, 4.0]])

    def test_identity_case_degree1(self):
        out = build_treatment_features([[1.0, 3.0]], treatment_spec(1))
        np.testing.assert_array_equal(out, [[1.0, 1.0, 3.0]])

    def test_degree3_power_table(self):
        # Frozen from the brute-force power table.
        out = build_treatment_features([[2.0], [-1.0]], treatment_spec(3))
        expected = [[1.0, 2.0, 4.0, 8.0], [1.0, -1.0, 1.0, -1.0]]
        np.testing.assert_array_equal(out, expected)
        np.testing.assert_array_equal(out, brute_force_treatment([[2], [-1]], 3))

    def test_matches_brute_force_on_random_inputs(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            n, d, p = rng.integers(1, 8), rng.integers(1, 5), rng.integers(1, 6)
            X = rng.normal(size=(n, d))
            spec = treatment_spec(int(p), include_intercept=bool(rng.integers(2)))
            got = build_treatment_features(X, spec)
            np.testing.assert_allclose(
                got, brute_force_treatment(X, int(p), spec.include_intercept)
            )

    def test_squares_are_x_times_x_and_higher_powers_keep_their_bits(self):
        # Squares are the correctly rounded X * X; degrees >= 3 keep the bits
        # of the broadcast array-exponent power that built every degree
        # before, which is their oracle here.
        rng = np.random.default_rng(43)
        X = rng.normal(scale=3.0, size=(400, 5))
        degree = 10
        got = build_treatment_features(X, treatment_spec(degree, include_intercept=False))
        got = got.reshape(len(X), degree, X.shape[1])
        broadcast = X[:, None, :] ** np.arange(1, degree + 1, dtype=float)[None, :, None]
        np.testing.assert_array_equal(got[:, 0], X)
        np.testing.assert_array_equal(got[:, 1], X * X)
        np.testing.assert_array_equal(got[:, 2:], broadcast[:, 2:])

    def test_empty_input_rejected(self):
        with pytest.raises(ValidationError):
            build_treatment_features(np.empty((0, 2)), treatment_spec(1))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            build_treatment_features([[np.nan]], treatment_spec(1))

    def test_wrong_spec_kind_rejected(self):
        with pytest.raises(ValidationError):
            build_treatment_features([[1.0]], outcome_spec(1))


class TestOutcomeFeatures:
    def test_full_working_model_row(self):
        out = build_outcome_features(
            [[3.0]], [2.0], outcome_spec(1, interactions=True, square=True)
        )
        np.testing.assert_array_equal(out, [[1.0, 3.0, 2.0, 6.0, 4.0]])

    def test_zero_case(self):
        out = build_outcome_features(
            [[0.0]], [0.0], outcome_spec(1, interactions=True, square=True)
        )
        np.testing.assert_array_equal(out, [[1.0, 0.0, 0.0, 0.0, 0.0]])

    def test_two_covariates_no_square(self):
        out = build_outcome_features([[1.0, 2.0]], [3.0], outcome_spec(1, interactions=True))
        np.testing.assert_array_equal(out, [[1.0, 1.0, 2.0, 3.0, 3.0, 6.0]])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            build_outcome_features([[1.0], [2.0]], [1.0], outcome_spec(1))

    def test_zero_treatment_pads_treatment_block(self):
        # With A = 0 the outcome design equals the treatment design plus
        # all-zero columns for every treatment-derived feature.
        rng = np.random.default_rng(3)
        X = rng.normal(size=(7, 3))
        spec_t = treatment_spec(2)
        spec_o = outcome_spec(2, interactions=True, square=True)
        out = build_outcome_features(X, np.zeros(7), spec_o)
        z = spec_t.output_dim(3)
        np.testing.assert_array_equal(out[:, :z], build_treatment_features(X, spec_t))
        np.testing.assert_array_equal(out[:, z:], np.zeros((7, out.shape[1] - z)))


class TestSpecContract:
    def test_treatment_spec_cannot_reference_treatment(self):
        with pytest.raises(ValidationError):
            FeatureSpec("treatment_psi", include_treatment_interactions=True)
        with pytest.raises(ValidationError):
            FeatureSpec("treatment_psi", include_treatment_square=True)

    def test_degree_must_be_positive(self):
        with pytest.raises(ValidationError):
            treatment_spec(0)

    @pytest.mark.parametrize("d", [1, 3, 7, 20])
    @pytest.mark.parametrize("p", [1, 2, 5, 10])
    def test_output_dim_closed_form(self, d, p):
        rng = np.random.default_rng(d * 100 + p)
        X = rng.normal(size=(3, d))
        A = rng.normal(size=3)
        assert build_treatment_features(X, treatment_spec(p)).shape[1] == 1 + d * p
        assert treatment_spec(p).output_dim(d) == 1 + d * p
        for interactions in (False, True):
            for square in (False, True):
                spec = outcome_spec(p, interactions=interactions, square=square)
                expected = 1 + d * p + 1 + (d if interactions else 0) + (1 if square else 0)
                assert spec.output_dim(d) == expected
                assert build_outcome_features(X, A, spec).shape[1] == expected

    def test_row_permutation_commutes(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(10, 2))
        A = rng.normal(size=10)
        perm = rng.permutation(10)
        spec_t = treatment_spec(3)
        spec_o = outcome_spec(3, interactions=True, square=True)
        np.testing.assert_array_equal(
            build_treatment_features(X, spec_t)[perm],
            build_treatment_features(X[perm], spec_t),
        )
        np.testing.assert_array_equal(
            build_outcome_features(X, A, spec_o)[perm],
            build_outcome_features(X[perm], A[perm], spec_o),
        )
