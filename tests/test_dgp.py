import dataclasses

import numpy as np
import pytest

from mechindep import (
    LinearExampleConfig,
    OracleParams,
    PolynomialConfig,
    ValidationError,
    build_outcome_features,
    fit_mechanisms,
    frobenius_statistic,
    generate_linear_example,
    generate_polynomial,
    lemma1_closed_form,
    oracle_params_from_env,
    outcome_spec,
    treatment_spec,
)


class TestLinearExampleGenerator:
    def test_shapes(self):
        config = LinearExampleConfig(n_envs=3, n_per_env=10)
        ds, truth = generate_linear_example(config, np.random.default_rng(0))
        assert ds.n_envs == 3
        assert all(b.X.shape == (10, 1) for b in ds.blocks)
        assert truth.confounded is False

    def test_deterministic_given_seed(self):
        config = LinearExampleConfig(n_envs=4, n_per_env=25, varying=frozenset({"alpha0"}))
        a, ta = generate_linear_example(config, np.random.default_rng(7))
        b, tb = generate_linear_example(config, np.random.default_rng(7))
        for ba, bb in zip(a.blocks, b.blocks):
            np.testing.assert_array_equal(ba.X, bb.X)
            np.testing.assert_array_equal(ba.A, bb.A)
            np.testing.assert_array_equal(ba.Y, bb.Y)
        assert ta.env_params == tb.env_params

    def test_confounded_mean_of_treatment(self):
        # E[A] = alpha0 + alpha_x * mu_x + alpha_u * mu_u = 0.5 + 1/3 + 0.25
        config = LinearExampleConfig(n_envs=2, n_per_env=500_000).confounded()
        ds, truth = generate_linear_example(config, np.random.default_rng(13))
        pooled = np.concatenate([b.A for b in ds.blocks])
        assert truth.confounded is True
        assert pooled.mean() == pytest.approx(0.5 + 1.0 / 3.0 + 0.25, abs=5e-3)

    def test_unconfounded_branch_noise_independence(self):
        config = LinearExampleConfig(n_envs=2, n_per_env=200_000)
        ds, truth = generate_linear_example(config, np.random.default_rng(17))
        assert truth.confounded is False
        block = ds.blocks[0]
        # residualize A and Y on the well-specified designs; residual
        # correlation vanishes without a confounder
        psi = np.column_stack([np.ones(block.n), block.X[:, 0]])
        phi = np.column_stack(
            [np.ones(block.n), block.X[:, 0], block.A, block.A * block.X[:, 0]]
        )
        ra = block.A - psi @ np.linalg.lstsq(psi, block.A, rcond=None)[0]
        ry = block.Y - phi @ np.linalg.lstsq(phi, block.Y, rcond=None)[0]
        corr = float(ra @ ry / (np.linalg.norm(ra) * np.linalg.norm(ry)))
        assert abs(corr) < 0.01

    def test_varying_redraws_parameters_within_range(self):
        config = LinearExampleConfig(
            n_envs=50, n_per_env=2, varying=frozenset({"alpha0", "mu_u"})
        )
        _, truth = generate_linear_example(config, np.random.default_rng(19))
        alpha0 = [p["alpha0"] for p in truth.env_params]
        assert len(set(alpha0)) == 50
        assert all(0.1 <= v <= 3.0 for v in alpha0)
        assert all(p["beta0"] == 0.5 for p in truth.env_params)

    def test_unknown_varying_name_rejected(self):
        with pytest.raises(ValidationError):
            LinearExampleConfig(n_envs=2, n_per_env=5, varying=frozenset({"sigma_q"}))


class TestPolynomialGenerator:
    def test_feature_dimension_example(self):
        # d=2, p=2: treatment feature dimension z = 1 + 2*2 = 5
        assert treatment_spec(2).output_dim(2) == 5

    def test_shapes_and_truth(self):
        config = PolynomialConfig(4, 30, n_covariates=3, degree=2, confounded=True)
        ds, truth = generate_polynomial(config, np.random.default_rng(0))
        assert ds.n_envs == 4 and ds.d == 3
        assert truth.confounded is True

    def test_deterministic_given_seed(self):
        config = PolynomialConfig(3, 20, degree=2)
        a, _ = generate_polynomial(config, np.random.default_rng(5))
        b, _ = generate_polynomial(config, np.random.default_rng(5))
        for ba, bb in zip(a.blocks, b.blocks):
            np.testing.assert_array_equal(ba.Y, bb.Y)

    def test_residual_std_matches_noise_scale(self):
        # Pooled residual std of a well-specified outcome fit ~ noise_std.
        config = PolynomialConfig(2, 100_000, n_covariates=1, degree=2)
        ds, _ = generate_polynomial(config, np.random.default_rng(23))
        phi = outcome_spec(2)
        est = fit_mechanisms(ds, treatment_spec(2), phi)
        resid_vars = []
        for block, gamma in zip(ds.blocks, est.gammas):
            resid = block.Y - build_outcome_features(block.X, block.A, phi) @ gamma
            resid_vars.append(resid @ resid / (block.n - gamma.size))
        assert np.sqrt(np.mean(resid_vars)) == pytest.approx(0.5, rel=0.02)

    def test_beta_intercept_switch(self):
        fixed = PolynomialConfig(5, 3, resample_beta_intercept=False)
        _, truth = generate_polynomial(fixed, np.random.default_rng(3))
        assert all(p["beta0"] == 1.0 for p in truth.env_params)
        resampled = PolynomialConfig(5, 3, resample_beta_intercept=True)
        _, truth2 = generate_polynomial(resampled, np.random.default_rng(3))
        assert len({p["beta0"] for p in truth2.env_params}) == 5


DEFAULT_ORACLE = OracleParams(
    alpha0=0.5,
    alpha_x=1.0 / 3.0,
    alpha_u=0.25,
    mu_u=1.0,
    sigma_u=1.0,
    sigma_a=np.sqrt(0.125),
    beta=(0.5, 1.0 / 3.0, 0.5, 1.0 / 3.0),
    beta_u=0.25,
    beta_au=0.25,
)


class TestLemma1Oracle:
    def test_hand_substitution(self):
        params = OracleParams(
            alpha0=0.0,
            alpha_x=1.0,
            alpha_u=1.0,
            mu_u=0.0,
            sigma_u=1.0,
            sigma_a=1.0,
            beta=(0.0, 0.0, 0.0, 0.0),
            beta_u=1.0,
            beta_au=0.0,
        )
        omega, gamma = lemma1_closed_form(params)
        np.testing.assert_allclose(omega, [0.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(gamma, [0.0, -0.5, 0.5, 0.0, 0.0], atol=1e-15)

    def test_zero_outcome_confounding_gives_plain_beta(self):
        params = dataclasses.replace(DEFAULT_ORACLE, beta_u=0.0, beta_au=0.0)
        omega, gamma = lemma1_closed_form(params)
        np.testing.assert_allclose(gamma, [*params.beta, 0.0], atol=1e-15)
        np.testing.assert_allclose(omega, [0.5 + 0.25, 1.0 / 3.0], atol=1e-15)

    def test_alpha_u_zero_rejected(self):
        with pytest.raises(ValidationError):
            lemma1_closed_form(dataclasses.replace(DEFAULT_ORACLE, alpha_u=0.0))

    def test_monte_carlo_regression_oracle(self):
        # Fits on 5e5 samples reproduce the closed form within 2%.
        config = LinearExampleConfig(n_envs=2, n_per_env=500_000).confounded()
        ds, truth = generate_linear_example(config, np.random.default_rng(29))
        est = fit_mechanisms(
            ds, treatment_spec(1), outcome_spec(1, interactions=True, square=True)
        )
        for s in range(2):
            omega, gamma = lemma1_closed_form(
                oracle_params_from_env(config, truth.env_params[s])
            )
            assert np.linalg.norm(est.omegas[s] - omega) <= 0.02 * np.linalg.norm(omega)
            assert np.linalg.norm(est.gammas[s] - gamma) <= 0.02 * np.linalg.norm(gamma)

    def test_large_alpha_u_limits(self):
        # As alpha_u grows, delta -> 1/sigma_u^2 and the A^2 entry
        # beta_au * delta * sigma_u^2 / alpha_u -> 0, monotonically along a grid.
        last_entries = []
        for au in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 64.0):
            params = dataclasses.replace(DEFAULT_ORACLE, alpha_u=au)
            _, gamma = lemma1_closed_form(params)
            last_entries.append(abs(gamma[-1]))
        assert all(a >= b for a, b in zip(last_entries, last_entries[1:]))
        assert last_entries[-1] < 0.01


class TestOracleLevelSelectivity:
    def test_outcome_side_variation_keeps_omega_constant(self):
        # Confounder present, only beta-side parameters vary: oracle omegas
        # are constant in s, so the exact population statistic is 0.
        rng = np.random.default_rng(37)
        omegas, gammas = [], []
        for _ in range(1000):
            params = dataclasses.replace(
                DEFAULT_ORACLE,
                beta=(rng.uniform(0.1, 3.0), 1 / 3, rng.uniform(0.1, 3.0), 1 / 3),
                beta_u=rng.uniform(0.1, 3.0),
            )
            omega, gamma = lemma1_closed_form(params)
            omegas.append(omega)
            gammas.append(gamma)
        omegas = np.asarray(omegas)
        assert np.ptp(omegas, axis=0).max() == 0.0
        assert frobenius_statistic(omegas, np.asarray(gammas)) == pytest.approx(0.0, abs=1e-12)

    def test_treatment_side_variation_creates_dependence(self):
        rng = np.random.default_rng(41)
        for name in ("alpha0", "alpha_x", "alpha_u", "mu_u"):
            omegas, gammas = [], []
            for _ in range(1000):
                params = dataclasses.replace(
                    DEFAULT_ORACLE, **{name: rng.uniform(0.1, 3.0)}
                )
                omega, gamma = lemma1_closed_form(params)
                omegas.append(omega)
                gammas.append(gamma)
            stat = frobenius_statistic(np.asarray(omegas), np.asarray(gammas))
            assert stat > 0.01, name
