import numpy as np
import pytest

from mechindep import (
    EnvironmentBlock,
    MultiEnvDataset,
    PolynomialConfig,
    RankDeficientError,
    ValidationError,
    build_outcome_features,
    generate_polynomial,
    outcome_spec,
    transportability_test,
)


def linear_dataset(K, n, seed, beta_shift=None, mechanism="shared"):
    """Gaussian linear data; mechanisms shared or shifted across environments."""
    rng = np.random.default_rng(seed)
    blocks = []
    for s in range(K):
        X = rng.normal(size=n)
        A = 0.5 * X + rng.normal(size=n)
        intercept = 1.0 if mechanism == "shared" else float(rng.normal())
        Y = intercept + 0.7 * X + 0.3 * A + rng.normal(size=n)
        if beta_shift is not None:
            Y = Y + beta_shift * s * X
        blocks.append(EnvironmentBlock(f"e{s}", X[:, None], A, Y))
    return MultiEnvDataset(tuple(blocks))


class TestTransportabilityTest:
    def test_null_rate_matches_f_exactness(self):
        # Shared Gaussian linear mechanism: the partial F-test is exact, so
        # the rejection rate sits within 3 binomial SEs of alpha.
        alpha, trials = 0.05, 1000
        phi = outcome_spec(1)
        rejects = 0
        for t in range(trials):
            ds = linear_dataset(3, 30, seed=t)
            rejects += transportability_test(ds, phi, alpha=alpha).reject
        rate = rejects / trials
        band = 3.0 * np.sqrt(alpha * (1 - alpha) / trials)
        assert abs(rate - alpha) <= band

    def test_duplicated_environment_no_rejection(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=80)
        A = X + rng.normal(size=80)
        Y = 1.0 + X + A + rng.normal(size=80)
        ds = MultiEnvDataset(
            (
                EnvironmentBlock("a", X[:, None], A, Y),
                EnvironmentBlock("b", X[:, None], A, Y),
            )
        )
        res = transportability_test(ds, outcome_spec(1))
        assert res.statistic == pytest.approx(0.0, abs=1e-8)
        assert res.p_value > 0.99
        assert not res.reject

    def test_k2_carries_no_permutation_warning(self):
        # An analytic F-test draws no permutations at K = 2 or any other K.
        assert transportability_test(linear_dataset(2, 40, seed=3), outcome_spec(1)).warnings == ()

    def test_detects_intercept_shift(self):
        ds = linear_dataset(5, 200, seed=21, mechanism="per_env")
        assert transportability_test(ds, outcome_spec(1)).reject

    def test_environment_relabeling_invariance(self):
        ds = linear_dataset(4, 50, seed=31, mechanism="per_env")
        relabeled = MultiEnvDataset(
            tuple(
                EnvironmentBlock(f"renamed_{i}", b.X, b.A, b.Y)
                for i, b in enumerate(reversed(ds.blocks))
            )
        )
        a = transportability_test(ds, outcome_spec(1))
        b = transportability_test(relabeled, outcome_spec(1))
        assert a.statistic == pytest.approx(b.statistic, rel=1e-9)

    @pytest.mark.parametrize("degree", [1, 2])
    def test_statistic_matches_nested_model_f(self, degree):
        # The partial F of pooled against per-environment fits, each residual
        # sum of squares from its own np.linalg.lstsq.
        config = PolynomialConfig(5, 60, n_covariates=2, degree=2, confounded=True)
        ds, _ = generate_polynomial(config, np.random.default_rng(8))
        phi = outcome_spec(degree)
        feats = [build_outcome_features(b.X, b.A, phi) for b in ds.blocks]

        def rss(design, target):
            resid = target - design @ np.linalg.lstsq(design, target, rcond=None)[0]
            return resid @ resid

        rss_pooled = rss(np.vstack(feats), np.concatenate([b.Y for b in ds.blocks]))
        rss_full = sum(rss(f, b.Y) for f, b in zip(feats, ds.blocks))
        K, z_out, n = ds.n_envs, feats[0].shape[1], sum(ds.sizes)
        want = ((rss_pooled - rss_full) / ((K - 1) * z_out)) / (rss_full / (n - K * z_out))
        got = transportability_test(ds, phi).statistic
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_result_contract(self):
        ds = linear_dataset(3, 60, seed=41)
        res = transportability_test(ds, outcome_spec(1), alpha=0.1)
        assert res.method == "transportability"
        assert res.resamples_M == 0
        assert res.null_samples is None
        assert res.reject == (res.statistic > res.threshold)
        # threshold is the F critical value at alpha
        from mechindep import f_survival

        K, z = 3, 3
        d1 = K * z - z
        d2 = sum(ds.sizes) - K * z
        assert f_survival(res.threshold, d1, d2) == pytest.approx(0.1, abs=1e-8)

    def test_insufficient_pooled_sample_rejected(self):
        # K=3, z'=3: full-interaction dimension 9; pooled n=9 is not > 10.
        ds = linear_dataset(3, 3, seed=51)
        with pytest.raises(ValidationError):
            transportability_test(ds, outcome_spec(1))

    def test_rank_deficiency_propagates(self):
        rng = np.random.default_rng(61)
        blocks = []
        for s in range(2):
            X = np.ones((30, 1))  # constant covariate: collinear with intercept
            A = rng.normal(size=30)
            Y = rng.normal(size=30)
            blocks.append(EnvironmentBlock(f"e{s}", X, A, Y))
        with pytest.raises(RankDeficientError):
            transportability_test(MultiEnvDataset(tuple(blocks)), outcome_spec(1))
