import numpy as np
import pytest

from mechindep import (
    EnvironmentBlock,
    MultiEnvDataset,
    PolynomialConfig,
    RankDeficientError,
    ValidationError,
    build_outcome_features,
    build_treatment_features,
    fit_mechanisms,
    generate_polynomial,
    least_squares_fit,
    outcome_spec,
    treatment_spec,
)
from mechindep.estimation import _build_design, _design_layout


class TestLeastSquaresFit:
    def test_exact_linear_fit(self):
        beta = least_squares_fit([[1, 1], [1, 2], [1, 3]], [2, 4, 6])
        np.testing.assert_allclose(beta, [0.0, 2.0], atol=1e-12)

    def test_normal_equations_hand_solve(self):
        # D'D = [[2,1],[1,2]], D't = [4,5] -> b = [1, 2]
        beta = least_squares_fit([[1, 0], [0, 1], [1, 1]], [1, 2, 3])
        np.testing.assert_allclose(beta, [1.0, 2.0], atol=1e-12)

    def test_residuals_orthogonal_to_design(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n, m = 40, 5
            D = rng.normal(size=(n, m))
            t = rng.normal(size=n)
            beta = least_squares_fit(D, t)
            resid = t - D @ beta
            for j in range(m):
                bound = 1e-8 * np.linalg.norm(D[:, j]) * np.linalg.norm(resid)
                assert abs(D[:, j] @ resid) <= max(bound, 1e-12)

    def test_row_reorder_invariance(self):
        rng = np.random.default_rng(1)
        D = rng.normal(size=(30, 4))
        t = rng.normal(size=30)
        perm = rng.permutation(30)
        np.testing.assert_allclose(
            least_squares_fit(D, t), least_squares_fit(D[perm], t[perm]), atol=1e-10
        )

    def test_rank_deficiency_reports_columns(self):
        D = np.array([[1.0, 2.0, 2.0], [1.0, 0.0, 0.0], [1.0, 1.0, 1.0], [1.0, 3.0, 3.0]])
        with pytest.raises(RankDeficientError) as err:
            least_squares_fit(D, [1.0, 2.0, 3.0, 4.0])
        assert err.value.deficient_columns  # names a dependent subset
        assert set(err.value.deficient_columns) <= {1, 2}

    def test_underdetermined_rejected_without_ridge(self):
        with pytest.raises(ValidationError):
            least_squares_fit([[1.0, 2.0]], [1.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            least_squares_fit([[1.0], [2.0]], [1.0, 2.0, 3.0])

    def test_nonfinite_target_rejected(self):
        with pytest.raises(ValidationError):
            least_squares_fit([[1.0], [2.0]], [1.0, np.inf])


def exact_mechanism_dataset(n_envs=2, n=20, seed=0):
    """Noiseless mechanisms: A has independent variation, Y = 3 + X + 2A exactly."""
    rng = np.random.default_rng(seed)
    blocks = []
    for s in range(n_envs):
        X = rng.normal(size=n)
        A = 1.0 + 2.0 * X + rng.normal(size=n)
        Y = 3.0 + X + 2.0 * A
        blocks.append(EnvironmentBlock(f"e{s}", X[:, None], A, Y))
    return MultiEnvDataset(tuple(blocks))


class TestFitMechanisms:
    def test_noiseless_outcome_recovery(self):
        # Exact interpolation: the outcome model recovers [3, 1, 2] with
        # zeros for the unused interaction/square columns, per environment.
        ds = exact_mechanism_dataset()
        est = fit_mechanisms(
            ds, treatment_spec(1), outcome_spec(1, interactions=True, square=True)
        )
        for s in range(ds.n_envs):
            np.testing.assert_allclose(est.gammas[s], [3.0, 1.0, 2.0, 0.0, 0.0], atol=1e-8)

    def test_exact_treatment_recovery(self):
        # Exact A = 1 + 2X: the treatment model recovers [1, 2] per
        # environment. (The same exactness makes the outcome design
        # singular, which fit_mechanisms reports rather than hides.)
        rng = np.random.default_rng(1)
        blocks = []
        for s in range(2):
            X = rng.normal(size=20)
            A = 1.0 + 2.0 * X
            Y = 3.0 + X + 2.0 * A
            blocks.append(EnvironmentBlock(f"e{s}", X[:, None], A, Y))
        ds = MultiEnvDataset(tuple(blocks))
        from mechindep import build_treatment_features, least_squares_fit

        for block in ds.blocks:
            psi = build_treatment_features(block.X, treatment_spec(1))
            np.testing.assert_allclose(
                least_squares_fit(psi, block.A), [1.0, 2.0], atol=1e-9
            )
        with pytest.raises(RankDeficientError):
            fit_mechanisms(ds, treatment_spec(1), outcome_spec(1))

    def test_dimension_precondition(self):
        # K=2, n_s=3, d=1, degree-2 outcome spec with interactions+square: z' = 5 >= 3
        rng = np.random.default_rng(5)
        blocks = tuple(
            EnvironmentBlock(f"e{s}", rng.normal(size=(3, 1)), rng.normal(size=3), rng.normal(size=3))
            for s in range(2)
        )
        ds = MultiEnvDataset(blocks)
        with pytest.raises(ValidationError):
            fit_mechanisms(
                ds, treatment_spec(2), outcome_spec(2, interactions=True, square=True)
            )

    def test_large_sample_consistency_improves(self):
        # Light version of the oracle-consistency property; the full-scale
        # check lives in the acceptance suite.
        from mechindep import LinearExampleConfig, generate_linear_example, lemma1_closed_form
        from mechindep import oracle_params_from_env

        errors = {}
        for n in (2000, 80000):
            config = LinearExampleConfig(n_envs=2, n_per_env=n).confounded()
            ds, truth = generate_linear_example(config, np.random.default_rng(123))
            est = fit_mechanisms(
                ds, treatment_spec(1), outcome_spec(1, interactions=True, square=True)
            )
            worst = 0.0
            for s in range(ds.n_envs):
                omega, gamma = lemma1_closed_form(
                    oracle_params_from_env(config, truth.env_params[s])
                )
                worst = max(
                    worst,
                    np.linalg.norm(est.omegas[s] - omega) / np.linalg.norm(omega),
                    np.linalg.norm(est.gammas[s] - gamma) / np.linalg.norm(gamma),
                )
            errors[n] = worst
        assert errors[80000] < errors[2000]


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestDesignLayout:
    """The column positions that the bootstrap's augmented Grams rely on."""

    @pytest.fixture(scope="class")
    def dataset(self):
        return generate_polynomial(PolynomialConfig(3, 40, 2, 2), np.random.default_rng(30))[0]

    def assert_columns(self, dataset, psi, phi, layout):
        z = psi.output_dim(dataset.d)
        for block in dataset.blocks:
            U = _build_design(block, psi, phi, layout)
            assert U.shape[1] == layout.y_col + 1
            np.testing.assert_array_equal(bits(U[:, :z]), bits(build_treatment_features(block.X, psi)))
            phi_cols = build_outcome_features(block.X, block.A, phi)
            np.testing.assert_array_equal(bits(U[:, layout.phi]), bits(phi_cols))
            np.testing.assert_array_equal(bits(U[:, layout.a_col]), bits(block.A))
            np.testing.assert_array_equal(bits(U[:, layout.y_col]), bits(block.Y))

    @pytest.mark.parametrize("degree", [1, 2, 3])
    @pytest.mark.parametrize("intercept", [True, False])
    @pytest.mark.parametrize("interactions", [True, False])
    @pytest.mark.parametrize("square", [True, False])
    def test_shared_specs_lead_with_psi_then_a(self, dataset, degree, intercept, interactions, square):
        # U = [phi | Y]: its first z columns are psi and column z is A, so
        # [psi | A] is the leading block of [phi | Y].
        psi = treatment_spec(degree, include_intercept=intercept)
        phi = outcome_spec(degree, intercept, interactions, square)
        layout = _design_layout(dataset, psi, phi)
        z = psi.output_dim(dataset.d)
        assert layout.psi == slice(z) and layout.phi == slice(0, phi.output_dim(dataset.d))
        assert layout.a_col == z and layout.y_col == layout.phi.stop
        self.assert_columns(dataset, psi, phi, layout)

    @pytest.mark.parametrize(
        "psi,phi",
        [
            (treatment_spec(2, include_intercept=False), outcome_spec(1)),
            (treatment_spec(1), outcome_spec(2, interactions=True)),
            (treatment_spec(3), outcome_spec(3, include_intercept=False, square=True)),
        ],
    )
    def test_split_specs_are_psi_phi_then_y(self, dataset, psi, phi):
        # U = [psi | phi | Y], with A after phi's intercept and powers.
        layout = _design_layout(dataset, psi, phi)
        z, z_out = psi.output_dim(dataset.d), phi.output_dim(dataset.d)
        assert layout.psi == slice(z) and layout.phi == slice(z, z + z_out)
        assert layout.a_col == z + phi.include_intercept + dataset.d * phi.degree
        assert layout.y_col == z + z_out
        self.assert_columns(dataset, psi, phi, layout)
