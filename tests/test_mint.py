import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import mechindep as mi
from mechindep import (
    EnvironmentBlock,
    KernelSpec,
    MultiEnvDataset,
    PolynomialConfig,
    ValidationError,
    build_outcome_features,
    build_treatment_features,
    calibrate_threshold,
    fit_mechanisms,
    frobenius_statistic,
    generate_polynomial,
    kernel_mint_test,
    mint_test,
    outcome_spec,
    permutation_test,
    treatment_spec,
)
from mechindep import features as features_module
from mechindep import kernel as kernel_module
from mechindep import mint as mint_module
from mechindep.harness import resolve_feature_specs
from mechindep.mint import SMALL_K_WARNING


def brute_force_statistic(omegas, gammas):
    """Independent oracle: direct triple loop over the definition."""
    omegas = np.asarray(omegas, dtype=float)
    gammas = np.asarray(gammas, dtype=float)
    K = omegas.shape[0]
    om = omegas.mean(axis=0)
    gm = gammas.mean(axis=0)
    total = 0.0
    for i in range(omegas.shape[1]):
        for j in range(gammas.shape[1]):
            inner = sum(
                (omegas[s, i] - om[i]) * (gammas[s, j] - gm[j]) for s in range(K)
            )
            total += inner**2
    return np.sqrt(total) / K


class TestFrobeniusStatistic:
    def test_two_env_example(self):
        assert frobenius_statistic([[1.0], [3.0]], [[2.0], [6.0]]) == 2.0

    def test_identical_rows_give_zero(self):
        rng = np.random.default_rng(0)
        gammas = rng.normal(size=(4, 3))
        assert frobenius_statistic(np.ones((4, 2)), gammas) == 0.0

    def test_three_env_example(self):
        got = frobenius_statistic([[0.0], [1.0], [2.0]], [[2.0], [1.0], [0.0]])
        assert got == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            K = int(rng.integers(2, 9))
            omegas = rng.normal(size=(K, int(rng.integers(1, 5))))
            gammas = rng.normal(size=(K, int(rng.integers(1, 6))))
            assert frobenius_statistic(omegas, gammas) == pytest.approx(
                brute_force_statistic(omegas, gammas), rel=1e-12
            )

    def test_simultaneous_row_reordering_invariance(self):
        rng = np.random.default_rng(2)
        omegas = rng.normal(size=(6, 3))
        gammas = rng.normal(size=(6, 4))
        perm = rng.permutation(6)
        assert frobenius_statistic(omegas[perm], gammas[perm]) == pytest.approx(
            frobenius_statistic(omegas, gammas), rel=1e-12
        )

    def test_bilinear_scaling(self):
        rng = np.random.default_rng(3)
        omegas = rng.normal(size=(5, 2))
        gammas = rng.normal(size=(5, 3))
        base = frobenius_statistic(omegas, gammas)
        for c in (-3.0, 0.5, 7.0):
            assert frobenius_statistic(c * omegas, gammas) == pytest.approx(
                abs(c) * base, rel=1e-10
            )
            assert frobenius_statistic(omegas, c * gammas) == pytest.approx(
                abs(c) * base, rel=1e-10
            )

    def test_gram_trace_bridge_identity(self):
        # (1/K) sqrt(tr((H Gw H)(H Gg H))) with Gw = omegas @ omegas.T.
        rng = np.random.default_rng(4)
        for _ in range(100):
            K = int(rng.integers(2, 21))
            omegas = rng.normal(size=(K, int(rng.integers(1, 7))))
            gammas = rng.normal(size=(K, int(rng.integers(1, 7))))
            H = np.eye(K) - np.ones((K, K)) / K
            gw = H @ (omegas @ omegas.T) @ H
            gg = H @ (gammas @ gammas.T) @ H
            bridge = np.sqrt(max(np.trace(gw @ gg), 0.0)) / K
            assert frobenius_statistic(omegas, gammas) == pytest.approx(
                bridge, abs=1e-10, rel=1e-10
            )

    def test_batched_statistic_matches_the_einsum_form(self):
        # The cross-covariance is one batched GEMM; the einsum contraction it
        # replaced is the oracle, up to the order of the sums over K. The
        # outcome side is one per draw or one (K, z') matrix for all draws.
        rng = np.random.default_rng(47)
        for _ in range(20):
            M, K = int(rng.integers(1, 40)), int(rng.integers(2, 60))
            omegas = rng.normal(size=(M, K, int(rng.integers(1, 13))))
            gammas = rng.normal(size=(M, K, int(rng.integers(1, 13))))
            shared = gammas[0]
            oc = omegas - omegas.mean(axis=1, keepdims=True)
            for outcome, expanded in ((gammas, gammas), (shared, np.stack([shared] * M))):
                gc = expanded - expanded.mean(axis=1, keepdims=True)
                cross = np.einsum("mki,mkj->mij", oc, gc)
                want = np.sqrt(np.einsum("mij,mij->m", cross, cross)) / K
                got = mint_module._batched_statistic(omegas, outcome)
                np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)

    def test_single_environment_rejected(self):
        with pytest.raises(ValidationError):
            frobenius_statistic([[1.0]], [[1.0]])

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            frobenius_statistic([[1.0], [2.0]], [[1.0], [2.0], [3.0]])


class TestCalibrateThreshold:
    def test_decile_example(self):
        samples = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
        assert calibrate_threshold(samples, 0.2) == pytest.approx(0.8)

    def test_degenerate_samples(self):
        assert calibrate_threshold([3.5] * 7, 0.05) == 3.5
        assert calibrate_threshold([3.5] * 7, 0.9) == 3.5

    def test_extreme_alpha_takes_max(self):
        samples = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
        assert calibrate_threshold(samples, 0.05) == pytest.approx(1.0)

    def test_definition_holds_on_random_samples(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            samples = rng.normal(size=int(rng.integers(1, 200))) ** 2
            alpha = float(rng.uniform(0.01, 0.5))
            t = calibrate_threshold(samples, alpha)
            M = samples.shape[0]
            assert np.count_nonzero(samples > t) <= alpha * M + 1e-9
            # smallest such observed value: anything strictly below t fails
            below = samples[samples < t]
            if below.size:
                t_prev = below.max()
                assert np.count_nonzero(samples > t_prev) > alpha * M

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            calibrate_threshold([], 0.05)


def integer_dataset():
    """Three environments of 61 rows of small integers, and specs with 15 products per row."""
    rng = np.random.default_rng(12)
    blocks = tuple(
        EnvironmentBlock(
            f"e{s}",
            rng.integers(-3, 4, size=(61, 1)).astype(float),
            rng.integers(-3, 4, size=61).astype(float),
            rng.integers(-3, 4, size=61).astype(float),
        )
        for s in range(3)
    )
    return MultiEnvDataset(blocks), treatment_spec(1), outcome_spec(1, interactions=True)


def make_dataset(K=4, n=60, seed=0, confounded=False):
    from mechindep import PolynomialConfig, generate_polynomial

    config = PolynomialConfig(K, n, 1, 1, confounded=confounded)
    return generate_polynomial(config, np.random.default_rng(seed))[0]


def bootstrap_refits(ds, psi, phi, M, rng):
    """The (M, K, z) and (M, K, z') bootstrap refits of mint_test's pass."""
    return mint_module._fits_and_refits(ds, psi, phi, M, rng)[2:]


def one_bootstrap_refit(ds, psi, phi, seed):
    """One bootstrap refit of both models: (K, z) and (K, z') arrays."""
    omegas, gammas = bootstrap_refits(ds, psi, phi, 1, np.random.default_rng(seed))
    return omegas[0], gammas[0]


class TestBootstrapRefit:
    def test_deterministic_given_stream(self):
        ds = make_dataset()
        psi, phi = treatment_spec(1), outcome_spec(1)
        a = one_bootstrap_refit(ds, psi, phi, 99)
        b = one_bootstrap_refit(ds, psi, phi, 99)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_exact_interpolation_is_resampling_invariant(self):
        # Noiseless mechanisms: every full-rank resample refit reproduces the
        # full-data coefficients exactly.
        rng = np.random.default_rng(7)
        blocks = []
        for s in range(3):
            X = rng.normal(size=50)
            A = 1.0 + 2.0 * X + rng.normal(size=50)
            Y = 3.0 + X + 2.0 * A
            blocks.append(EnvironmentBlock(f"e{s}", X[:, None], A, Y))
        ds = MultiEnvDataset(tuple(blocks))
        psi, phi = treatment_spec(1), outcome_spec(1)
        full = fit_mechanisms(ds, psi, phi)
        for seed in range(5):
            _, gammas = one_bootstrap_refit(ds, psi, phi, seed)
            np.testing.assert_allclose(gammas, full.gammas, atol=1e-8)

    def test_single_row_environments_fail_precondition(self):
        rng = np.random.default_rng(8)
        blocks = tuple(
            EnvironmentBlock(f"e{s}", rng.normal(size=(1, 1)), rng.normal(size=1), rng.normal(size=1))
            for s in range(3)
        )
        ds = MultiEnvDataset(blocks)
        with pytest.raises(ValidationError):
            one_bootstrap_refit(ds, treatment_spec(1), outcome_spec(1), 0)

    def test_duplicate_heavy_resample_survives_via_jitter(self):
        # Three-row environments make rank-deficient resamples likely (all
        # draws hitting one row); the trace-scaled jitter must absorb them.
        rng = np.random.default_rng(9)
        blocks = tuple(
            EnvironmentBlock(
                f"e{s}", rng.normal(size=(3, 1)), rng.normal(size=3), rng.normal(size=3)
            )
            for s in range(4)
        )
        ds = MultiEnvDataset(blocks)
        psi = treatment_spec(1, include_intercept=False)
        phi = outcome_spec(1, include_intercept=False)
        for seed in range(20):
            omegas, gammas = one_bootstrap_refit(ds, psi, phi, seed)
            assert np.all(np.isfinite(omegas))
            assert np.all(np.isfinite(gammas))


def resampled_lstsq(dataset, psi_spec, phi_spec, M, seed):
    """Oracle for the batched bootstrap: lstsq on materialized resampled rows."""
    rng = np.random.default_rng(seed)
    omegas = np.empty((M, dataset.n_envs, psi_spec.output_dim(dataset.d)))
    gammas = np.empty((M, dataset.n_envs, phi_spec.output_dim(dataset.d)))
    for s, block in enumerate(dataset.blocks):
        idx = rng.integers(0, block.n, size=(M, block.n))
        psi = build_treatment_features(block.X, psi_spec)
        phi = build_outcome_features(block.X, block.A, phi_spec)
        for m in range(M):
            counts = np.bincount(idx[m], minlength=block.n)
            rows = np.repeat(np.arange(block.n), counts)
            omegas[m, s] = np.linalg.lstsq(psi[rows], block.A[rows], rcond=None)[0]
            gammas[m, s] = np.linalg.lstsq(phi[rows], block.Y[rows], rcond=None)[0]
    return omegas, gammas


LSTSQ_SPECS = [
    (treatment_spec(1), outcome_spec(1, interactions=True, square=True)),
    (treatment_spec(2), outcome_spec(1)),
    (treatment_spec(1, include_intercept=False), outcome_spec(1)),
    (treatment_spec(2), outcome_spec(3, include_intercept=False)),
]


class TestBatchedBootstrapFits:
    def test_chunked_draws_match_one_chunk(self, monkeypatch):
        # Small-integer data make every Gram entry an exact integer, so the
        # fits are bit-identical whatever the chunking. At odd n, chunks of 3
        # rows counted 2 rows at a time leave ragged ends at M = 20, and W
        # (15 products per row) is gathered in row blocks of 8.
        ds, psi, phi = integer_dataset()
        one = bootstrap_refits(ds, psi, phi, 20, np.random.default_rng(4))
        monkeypatch.setattr(mint_module, "_CHUNK_ELEMENTS", 3 * 61 + 5)
        monkeypatch.setattr(mint_module, "_BINCOUNT_ELEMENTS", 2 * 61)
        chunked = bootstrap_refits(ds, psi, phi, 20, np.random.default_rng(4))
        np.testing.assert_array_equal(chunked[0], one[0])
        np.testing.assert_array_equal(chunked[1], one[1])

    @pytest.mark.parametrize("chunk", [61, 3 * 61 + 5, 7 * 61 + 60, 20 * 61])
    def test_inner_blocks_match_one_block_on_integer_data(self, monkeypatch, chunk):
        # Blocks of 16 rows split n = 61 into three full blocks and a tail of
        # 13; exact integer sums give the one-block, one-chunk bits whatever
        # the chunk (1, 3, 7 or all 20 resamples).
        ds, psi, phi = integer_dataset()
        one = bootstrap_refits(ds, psi, phi, 20, np.random.default_rng(4))
        monkeypatch.setattr(mint_module, "_INNER_ROWS", 16)
        monkeypatch.setattr(mint_module, "_CHUNK_ELEMENTS", chunk)
        blocked = bootstrap_refits(ds, psi, phi, 20, np.random.default_rng(4))
        np.testing.assert_array_equal(blocked[0], one[0])
        np.testing.assert_array_equal(blocked[1], one[1])

    def test_real_refits_do_not_depend_on_the_chunk(self, monkeypatch):
        # At n > _INNER_ROWS every product sums fixed blocks of rows, so
        # chunks of 109 resamples give the bits of one chunk of all 400. One
        # product over all 600 rows gave other bits for other row counts.
        config = mi.LinearExampleConfig(n_envs=2, n_per_env=600, varying=frozenset({"alpha0"}))
        ds, _ = mi.generate_linear_example(config.confounded(), np.random.default_rng(3))
        psi, phi = resolve_feature_specs("linear_example", config, {})
        one = bootstrap_refits(ds, psi, phi, 400, np.random.default_rng(5))
        monkeypatch.setattr(mint_module, "_CHUNK_ELEMENTS", 1 << 16)
        chunked = bootstrap_refits(ds, psi, phi, 400, np.random.default_rng(5))
        assert chunked[0].tobytes() == one[0].tobytes()
        assert chunked[1].tobytes() == one[1].tobytes()

    @pytest.mark.parametrize("psi,phi", LSTSQ_SPECS)
    def test_matches_lstsq_on_resampled_rows(self, psi, phi, monkeypatch):
        from mechindep import PolynomialConfig, generate_polynomial

        config = PolynomialConfig(3, 41, 2, 2, confounded=True)
        ds = generate_polynomial(config, np.random.default_rng(13))[0]
        monkeypatch.setattr(mint_module, "_CHUNK_ELEMENTS", 7 * 41)
        monkeypatch.setattr(mint_module, "_BINCOUNT_ELEMENTS", 3 * 41)
        omegas, gammas = bootstrap_refits(ds, psi, phi, 16, np.random.default_rng(5))
        want_omegas, want_gammas = resampled_lstsq(ds, psi, phi, 16, 5)
        np.testing.assert_allclose(omegas, want_omegas, rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(gammas, want_gammas, rtol=1e-8, atol=1e-10)

    @pytest.mark.parametrize("psi,phi", LSTSQ_SPECS)
    def test_inner_blocks_match_lstsq_on_resampled_rows(self, psi, phi, monkeypatch):
        # Blocks of 16 rows: two full blocks and a tail of 9 at n = 41.
        monkeypatch.setattr(mint_module, "_INNER_ROWS", 16)
        self.test_matches_lstsq_on_resampled_rows(psi, phi, monkeypatch)

    def test_int32_draws_follow_the_int64_stream(self):
        # The bootstrap draws row indices as int32, one bincount group of rows
        # at a time; that must consume the generator as one int64 (M, n) draw does.
        for n, M, rows in ((7, 10, 3), (101, 13, 4), (2, 9, 9)):
            ref = np.random.default_rng(6)
            got = np.random.default_rng(6)
            want = ref.integers(0, n, size=(M, n))
            parts = [
                got.integers(0, n, size=(min(rows, M - i), n), dtype=np.int32)
                for i in range(0, M, rows)
            ]
            np.testing.assert_array_equal(np.vstack(parts), want)
            assert ref.integers(0, 2**40) == got.integers(0, 2**40)

    def test_peak_memory_does_not_grow_with_M(self):
        # Resample counts are drawn in bounded chunks, so M only adds the
        # O(M * K * p^2) moments and statistics, far below 8 MB here.
        ds = make_dataset(K=2, n=20_000, seed=14)
        psi, phi = treatment_spec(1), outcome_spec(1)

        def peak(M):
            tracemalloc.start()
            try:
                mint_test(ds, psi, phi, M=M, seed=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(800) - peak(100) < 8 * 2**20

    def test_peak_memory_of_a_tall_call(self):
        # K = 2 environments of 10,000 rows, M = 500: W (21 products per row)
        # takes 1.6 MiB and the counts chunk 2 MiB; one bincount group's
        # indices and counts and the block products add about 0.5 MiB. A
        # chunk of 2^19 counts with all its int32 indices drawn at once took
        # 9.9 MiB.
        config = mi.LinearExampleConfig(n_envs=2, n_per_env=10_000, varying=frozenset({"alpha0"}))
        ds, _ = mi.generate_linear_example(config, np.random.default_rng(15))
        psi, phi = resolve_feature_specs("linear_example", config, {})
        tracemalloc.start()
        try:
            mint_test(ds, psi, phi, M=500, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6.5 * 2**20, peak / 2**20

    def test_peak_memory_is_about_one_column_product_matrix(self):
        # W holds the n * P column products of U = [phi | Y]: p = 13 columns
        # at degree 10 and d = 1, so P = 91. W is gathered in bounded row
        # blocks and each environment's W is freed before the next is built,
        # so the peak is one W plus the chunk buffers; a second (n, P) array
        # gives ~2.3x.
        n = 50_000
        ds = make_dataset(K=2, n=n, seed=14)
        phi = outcome_spec(10)
        p = phi.output_dim(ds.d) + 1
        w_bytes = n * (p * (p + 1) // 2) * 8
        tracemalloc.start()
        try:
            mint_test(ds, treatment_spec(10), phi, M=20, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.75 * w_bytes, peak / w_bytes


SPLIT_SPECS = (treatment_spec(2, include_intercept=False), outcome_spec(1))


class TestOnePass:
    @pytest.mark.parametrize(
        "psi,phi,builds_per_env",
        [(treatment_spec(2), outcome_spec(2, interactions=True), 1), (*SPLIT_SPECS, 2)],
    )
    def test_features_are_built_once_per_environment(self, monkeypatch, psi, phi, builds_per_env):
        # Shared specs build phi only (psi is its leading columns); split
        # specs build each map once. Each build makes one power block.
        ds = make_dataset(K=5, n=80, seed=3)  # the generator builds features too
        calls = []
        power_block = features_module._power_block

        def counted(X, degree):
            calls.append(degree)
            return power_block(X, degree)

        monkeypatch.setattr(features_module, "_power_block", counted)
        mint_test(ds, psi, phi, M=20, seed=1)
        assert len(calls) == builds_per_env * ds.n_envs

    @pytest.mark.parametrize(
        "psi,phi", [(treatment_spec(2), outcome_spec(2, square=True)), SPLIT_SPECS]
    )
    def test_statistic_is_that_of_fit_mechanisms(self, psi, phi):
        # The golden file's split-spec data: psi is not a prefix of phi.
        config = PolynomialConfig(6, 300, 2, 2, confounded=True)
        ds = generate_polynomial(config, np.random.default_rng(17))[0]
        fit = fit_mechanisms(ds, psi, phi)
        res = mint_test(ds, psi, phi, M=50, seed=17)
        assert res.statistic == frobenius_statistic(fit.omegas, fit.gammas)

    def test_split_specs_form_only_the_factored_triangles(self, monkeypatch):
        # W holds the lower triangles of the Grams of [psi | A] and [phi | Y],
        # and no psi x phi product, which no Gram reads.
        ds = generate_polynomial(PolynomialConfig(2, 300, 2, 2), np.random.default_rng(17))[0]
        widths = []
        resampled_moments = mint_module._resampled_moments

        def recorded(rng, W, *buffers):
            widths.append(W.shape[1])
            return resampled_moments(rng, W, *buffers)

        monkeypatch.setattr(mint_module, "_resampled_moments", recorded)
        psi, phi = SPLIT_SPECS
        mint_test(ds, psi, phi, M=20, seed=17)
        z, z_out = psi.output_dim(ds.d), phi.output_dim(ds.d)
        assert widths == [(z + 1) * (z + 2) // 2 + (z_out + 1) * (z_out + 2) // 2] * ds.n_envs
        assert widths[0] == 30

    @pytest.mark.parametrize(
        "psi,phi,match",
        [
            # Shared degree and intercept: psi is never built on its own.
            (outcome_spec(1), outcome_spec(1), "expected a treatment_psi spec"),
            (outcome_spec(1, interactions=True), outcome_spec(1), "treatment_psi"),
            (treatment_spec(1), treatment_spec(1), "expected an outcome_phi spec"),
            (outcome_spec(2), outcome_spec(1), "treatment_psi"),
        ],
    )
    @pytest.mark.parametrize("bootstrap", [True, False])
    def test_spec_of_the_wrong_kind_rejected(self, psi, phi, match, bootstrap):
        ds = make_dataset(K=3, n=40, seed=2)
        with pytest.raises(ValidationError, match=match):
            mint_test(ds, psi, phi, M=5, use_bootstrap=bootstrap)
        with pytest.raises(ValidationError, match=match):
            fit_mechanisms(ds, psi, phi)


def augmented_fits(design, targets):
    """``_augmented_fits`` on the Grams of the (M, n, q) augmented designs.

    The Grams are packed as ``_fits_and_refits`` packs them: row m of the (M,
    P) moments holds Gram m's lower triangle, row by row. Returns the (M, k) fits.
    """
    M, _, q = design.shape
    packed = (design.transpose(0, 2, 1) @ design)[(slice(None), *np.tril_indices(q))]
    # A buffer larger than the Grams, as split specs pass for [psi | A].
    fits = mint_module._augmented_fits(packed, targets, np.empty((q + 2, q + 2, M)))
    return [x.T for x in fits]


def first_low_pivots(design):
    """Each system's first low pivot, as ``_cholesky_fits`` reports it."""
    fac = np.ascontiguousarray(np.moveaxis(design.transpose(0, 2, 1) @ design, 0, -1))
    return mint_module._cholesky_fits(fac, ())[1]


def ridged_solve(design, k, jitter, ridged=True):
    """Reference (M, k) fits of column k on columns :k, ridged as documented:
    ``jitter * mean(diag)`` of the k feature entries added to their diagonal."""
    X, t = design[:, :, :k], design[:, :, k]
    gram = X.transpose(0, 2, 1) @ X
    lam = jitter * np.einsum("mii->m", gram) / k
    gram = gram + np.where(ridged, lam, 0.0)[:, None, None] * np.eye(k)
    return np.linalg.solve(gram, np.einsum("mni,mn->mi", X, t)[:, :, None])[:, :, 0]


class TestAugmentedFits:
    def test_matches_numpy_solve_on_well_conditioned_systems(self):
        # One factor of the Gram of [X | a | V | y] fits a on X and y on
        # [X | a | V], as shared specs fit both models.
        rng = np.random.default_rng(20)
        for m, M in ((1, 5), (4, 50), (12, 200)):
            design = rng.normal(size=(M, 3 * m + 6, m + 3))
            fits = augmented_fits(design, (m, m + 2))
            for k, got in zip((m, m + 2), fits):
                want = ridged_solve(design, k, 0.0, ridged=False)
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_flags_exactly_the_singular_systems_and_jitters_them(self, monkeypatch):
        # Regular designs interleaved with designs of a duplicated and of a
        # zero feature column; the singular ones are solved as G + lambda I
        # with lambda = ridge_jitter * mean(diag(G)). G + lambda I has
        # condition ~1 / ridge_jitter, so a larger ridge than mint's 1e-8
        # keeps the reference solution accurate well beyond rtol.
        rng = np.random.default_rng(21)
        m, M, jitter = 6, 30, 1e-6
        design = rng.normal(size=(M, 40, m + 1))
        design[1::3, :, 4] = design[1::3, :, 1]
        design[2::3, :, 3] = 0.0
        singular = np.arange(M) % 3 != 0
        np.testing.assert_array_equal(first_low_pivots(design), np.tile([m, 4, 3], M // 3))
        monkeypatch.setattr(mint_module, "_RIDGE_JITTER", jitter)
        (got,) = augmented_fits(design, (m,))
        assert np.all(np.isfinite(got))
        want = ridged_solve(design, m, jitter, singular)
        np.testing.assert_allclose(got[~singular], want[~singular], rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(got[singular], want[singular], rtol=1e-8, atol=0.0)

    def test_target_in_the_span_of_its_features_is_an_exact_fit(self):
        # A zero residual is the target's pivot, which is never screened:
        # the fit is not ridged, so it recovers the coefficients exactly.
        rng = np.random.default_rng(22)
        m, M = 5, 40
        X = rng.normal(size=(M, 30, m))
        beta = rng.normal(size=(M, m))
        design = np.concatenate([X, np.einsum("mni,mi->mn", X, beta)[:, :, None]], axis=2)
        np.testing.assert_array_equal(first_low_pivots(design), m)
        (got,) = augmented_fits(design, (m,))
        np.testing.assert_allclose(got, beta, rtol=1e-10, atol=1e-12)

    def test_low_pivot_at_the_shared_target_ridges_only_the_outcome_model(self, monkeypatch):
        # Every 2nd system has a in the span of X: its only low pivot is at
        # a's column z, so the treatment fit (a on X) is the unridged solve
        # and only the outcome fit (y on [X | a]) gets the ridge.
        rng = np.random.default_rng(23)
        z, M, jitter = 4, 20, 1e-6
        design = rng.normal(size=(M, 30, z + 2))
        design[::2, :, z] = design[::2, :, :z] @ rng.normal(size=z)
        in_span = np.arange(M) % 2 == 0
        np.testing.assert_array_equal(first_low_pivots(design), np.where(in_span, z, z + 1))
        monkeypatch.setattr(mint_module, "_RIDGE_JITTER", jitter)
        treatment, outcome = augmented_fits(design, (z, z + 1))
        np.testing.assert_allclose(
            treatment, ridged_solve(design, z, 0.0, ridged=False), rtol=1e-10, atol=1e-12
        )
        want = ridged_solve(design, z + 1, jitter, in_span)
        np.testing.assert_allclose(outcome[~in_span], want[~in_span], rtol=1e-12, atol=0.0)
        # The ridge splits a's share among a and X, leaving a's coefficient
        # ~1e-3 of the others, so it is checked relative to the largest one.
        err = np.abs(outcome[in_span] - want[in_span]).max(axis=1)
        assert np.all(err <= 1e-8 * np.abs(want[in_span]).max(axis=1))

    def test_low_pivot_before_the_shared_target_ridges_both_models(self, monkeypatch):
        # A zero feature column before z: each model is refit from its own
        # leading block with its own mean-diagonal ridge.
        rng = np.random.default_rng(24)
        z, M, jitter = 4, 20, 1e-6
        design = rng.normal(size=(M, 30, z + 2))
        design[::2, :, 1] = 0.0
        low = np.arange(M) % 2 == 0
        np.testing.assert_array_equal(first_low_pivots(design), np.where(low, 1, z + 1))
        monkeypatch.setattr(mint_module, "_RIDGE_JITTER", jitter)
        for k, got in zip((z, z + 1), augmented_fits(design, (z, z + 1))):
            want = ridged_solve(design, k, jitter, low)
            np.testing.assert_allclose(got[~low], want[~low], rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(got[low], want[low], rtol=1e-8, atol=0.0)

    def test_singleton_x_resamples_are_jittered(self):
        # x takes 11 values, one of them once, so about a third of the
        # resamples miss it and their degree-10 designs are exactly singular.
        # Solved without the ridge, such resamples push the null maximum to
        # thousands of times its median.
        rng = np.random.default_rng(0)
        x = np.repeat(np.linspace(-1.0, 1.0, 11), [10] * 9 + [9, 1])
        blocks = []
        for s in range(4):
            a = np.sin(x) + 0.3 * rng.normal(size=100)
            y = a + x**2 + 0.3 * rng.normal(size=100)
            blocks.append(EnvironmentBlock(f"e{s}", x[:, None], a, y))
        ds = MultiEnvDataset(tuple(blocks))
        res = mint_test(ds, treatment_spec(10), outcome_spec(10), M=1000, seed=0)
        assert res.null_samples.max() <= 100 * np.median(res.null_samples)


class TestMintTest:
    def test_bit_identical_given_seed(self):
        ds = make_dataset(confounded=True)
        psi, phi = treatment_spec(1), outcome_spec(1)
        a = mint_test(ds, psi, phi, M=200, seed=31)
        b = mint_test(ds, psi, phi, M=200, seed=31)
        assert a.statistic == b.statistic
        assert a.threshold == b.threshold
        assert a.p_value == b.p_value
        np.testing.assert_array_equal(a.null_samples, b.null_samples)

    def test_provenance_fields(self):
        ds = make_dataset()
        res = mint_test(ds, treatment_spec(1), outcome_spec(1), alpha=0.1, M=150, seed=5)
        assert res.method == "mint"
        assert res.alpha == 0.1
        assert res.resamples_M == 150
        assert res.seed == 5
        assert res.null_samples.shape == (150,)
        assert res.reject == (res.statistic > res.threshold)
        expected_p = (1 + np.count_nonzero(res.null_samples >= res.statistic)) / 151
        assert res.p_value == pytest.approx(expected_p, abs=1e-15)

    def test_no_bootstrap_method_label(self):
        ds = make_dataset()
        res = mint_test(ds, treatment_spec(1), outcome_spec(1), M=100, seed=1, use_bootstrap=False)
        assert res.method == "mint_no_bootstrap"

    def test_constant_mechanisms_never_reject(self):
        # Identical noiseless mechanisms across environments: T = 0 can
        # never exceed a non-negative threshold under the strict rule.
        rng = np.random.default_rng(10)
        X = rng.normal(size=50)
        A = 1.0 + 2.0 * X + rng.normal(size=50)
        Y = 3.0 + X + 2.0 * A
        blocks = tuple(
            EnvironmentBlock(f"e{s}", X[:, None], A, Y) for s in range(3)
        )
        ds = MultiEnvDataset(blocks)
        res = mint_test(ds, treatment_spec(1), outcome_spec(1), M=100, seed=2)
        assert res.statistic == pytest.approx(0.0, abs=1e-10)
        assert not res.reject

    def test_k2_attaches_warning(self):
        ds = make_dataset(K=2)
        res = mint_test(ds, treatment_spec(1), outcome_spec(1), M=50, seed=3)
        assert SMALL_K_WARNING in res.warnings
        res5 = mint_test(make_dataset(K=5), treatment_spec(1), outcome_spec(1), M=50, seed=3)
        assert res5.warnings == ()


@pytest.fixture
def calls(monkeypatch):
    """The three resampling tests, each failing if it starts work."""
    def no_work(*args):
        raise AssertionError("work started before the arguments were checked")

    monkeypatch.setattr(mint_module, "_design_layout", no_work)
    monkeypatch.setattr(mint_module, "_batched_statistic", no_work)
    monkeypatch.setattr(kernel_module, "_parameter_grams", no_work)
    ds = make_dataset()
    return {
        "mint": lambda **kw: mint_test(ds, treatment_spec(1), outcome_spec(1), **kw),
        "permutation": lambda **kw: permutation_test(np.ones((3, 1)), np.ones((3, 1)), **kw),
        "kernel": lambda **kw: kernel_mint_test(ds, KernelSpec(), KernelSpec(), **kw),
    }


@pytest.mark.parametrize("test", ["mint", "permutation", "kernel"])
def test_negative_seed_rejected_before_any_work(calls, test):
    # A bad level too: no test may compute a null statistic before the
    # level is checked.
    with pytest.raises(ValidationError, match=r"^seed must be >= 0, got -1$"):
        calls[test](seed=-1)
    with pytest.raises(ValidationError, match=r"^alpha must lie in \(0, 1\), got 1.5$"):
        calls[test](alpha=1.5)


@pytest.mark.parametrize(
    "entry",
    ["result", "calibrate", "mint", "permutation", "kernel", "transportability", "f_critical"],
)
@pytest.mark.parametrize("alpha", ["0.05", None, True])
def test_non_real_alpha_rejected(calls, entry, alpha):
    # The type is checked before `0.0 < alpha`, which raises a bare TypeError
    # for a string or None; a bool is no level.
    ds = make_dataset()
    entries = {
        **calls,
        "result": lambda **kw: mi.TestResult(1.0, 2.0, 0.5, False, resamples_M=9, seed=0,
                                             method="mint", **kw),
        "calibrate": lambda **kw: calibrate_threshold([1.0, 2.0], **kw),
        "transportability": lambda **kw: mi.transportability_test(ds, outcome_spec(1), **kw),
        "f_critical": lambda **kw: mi.f_critical_value(d1=2, d2=10, **kw),
    }
    with pytest.raises(ValidationError, match=rf"^alpha must be a real number, got {alpha!r}$"):
        entries[entry](alpha=alpha)


@pytest.mark.parametrize("test", ["mint", "permutation", "kernel"])
@pytest.mark.parametrize(
    "name,value", [("seed", True), ("seed", 1.0), ("M", 10.0), ("M", False), ("M", "10")]
)
def test_non_integer_draws_rejected_before_any_work(calls, test, name, value):
    # A bool seed used to run and be recorded as true; a float M failed in numpy.
    with pytest.raises(ValidationError, match=rf"^{name} must be an integer, got {value!r}$"):
        calls[test](**{name: value})


def test_numpy_integer_draws_accepted():
    omegas, gammas = np.random.default_rng(4).normal(size=(2, 5, 2))
    want = permutation_test(omegas, gammas, M=30, seed=3)
    got = permutation_test(omegas, gammas, M=np.int64(30), seed=np.uint32(3))
    np.testing.assert_array_equal(got.null_samples, want.null_samples)


class TestPermutationCalibration:
    def test_equals_mint_test_without_bootstrap(self):
        ds = make_dataset(K=8, n=200, seed=3, confounded=True)
        psi, phi = treatment_spec(1), outcome_spec(1)
        fit = fit_mechanisms(ds, psi, phi)
        a = permutation_test(fit.omegas, fit.gammas, alpha=0.1, M=200, seed=3)
        b = mint_test(ds, psi, phi, alpha=0.1, M=200, seed=3, use_bootstrap=False)
        assert (a.statistic, a.threshold, a.p_value, a.method) == (
            b.statistic, b.threshold, b.p_value, b.method
        )
        assert a.null_samples.tobytes() == b.null_samples.tobytes()

    @pytest.mark.parametrize("seed", [54, 59, 295])
    def test_identity_draws_equal_the_statistic_at_k3(self, seed):
        # With K=3 no permuted draw can fall below the statistic in exact
        # arithmetic, so the test cannot reject; these seeds rejected when
        # the statistic was computed apart from the null draws and an
        # identity draw rounded 1 ulp below it.
        ds, _ = generate_polynomial(PolynomialConfig(3, 50), np.random.default_rng(seed))
        res = mint_test(
            ds, treatment_spec(1), outcome_spec(1), M=200, seed=seed, use_bootstrap=False
        )
        assert np.count_nonzero(res.null_samples == res.statistic) > 0
        assert not res.reject

    @pytest.mark.parametrize("per_draw", [False, True], ids=["shared", "per_draw"])
    def test_blocked_null_draws_equal_one_batch(self, monkeypatch, per_draw):
        # 100 // (K * max(z, z')) = 4 draws a block, the last of M = 30 partial.
        M, K = 30, 6
        rng = np.random.default_rng(32)
        shape = (M, K) if per_draw else (K,)
        treatment, outcome = rng.normal(size=shape + (3,)), rng.normal(size=shape + (4,))
        perms = mint_module._random_permutations(np.random.SeedSequence(1), M, K)
        rows = (np.arange(M)[:, None], perms) if per_draw else perms
        want = mint_module._batched_statistic(treatment[rows], outcome)
        monkeypatch.setattr(mint_module, "_NULL_ELEMENTS", 100)
        res = mint_module._permutation_result(0.5, treatment, outcome, perms, 0.05, 0, "mint")
        assert res.null_samples.tobytes() == want.tobytes()

    def test_peak_memory_does_not_grow_with_M(self):
        # Null draws in blocks: from M = 1,000 to 8,000 the peak grows by the
        # (M, K) permutations and M null samples (and copies of those), far
        # below one batch of (M, K, z) gathered rows, 64 MB at M = 8,000.
        K, z = 50, 20
        rng = np.random.default_rng(33)
        omegas, gammas = rng.normal(size=(K, z)), rng.normal(size=(K, z))

        def peak(M):
            tracemalloc.start()
            try:
                permutation_test(omegas, gammas, M=M, seed=3)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(8000) - peak(1000) < 7000 * (K * 8 + 8) + 2**20

    def test_type_one_error_near_alpha_on_direct_draws(self):
        # Parameters drawn i.i.d. from independent distributions, no
        # estimation step: rejection rate within 3 binomial SEs of alpha.
        alpha, trials, M, K = 0.05, 1000, 200, 8
        rng = np.random.default_rng(123)
        rejects = 0
        for t in range(trials):
            omegas = rng.normal(size=(K, 2))
            gammas = rng.normal(size=(K, 3))
            res = permutation_test(omegas, gammas, alpha=alpha, M=M, seed=t)
            rejects += res.reject
        rate = rejects / trials
        band = 3.0 * np.sqrt(alpha * (1 - alpha) / trials)
        assert abs(rate - alpha) <= band


# One fixed call at n > 256 rows per environment, run in a child process.
THREAD_CALLS = {
    "mint": """
config = mi.LinearExampleConfig(n_envs=3, n_per_env=1000, varying=frozenset({"alpha0"}))
ds, _ = mi.generate_linear_example(config, np.random.default_rng(3))
res = mi.mint_test(ds, *resolve_feature_specs("linear_example", config, {}), M=200, seed=3)
""",
    "kernel": """
ds, _ = mi.generate_polynomial(mi.PolynomialConfig(4, 200), np.random.default_rng(3))
res = mi.kernel_mint_test(ds, mi.KernelSpec(), mi.KernelSpec(), M=200, seed=3)
""",
    # Split specs: W holds two Grams' triangles; golden split_specs_poly_n300's shape.
    "split": """
config = mi.PolynomialConfig(3, 300, 2, 2, confounded=True)
ds, _ = mi.generate_polynomial(config, np.random.default_rng(3))
psi, phi = mi.treatment_spec(2, include_intercept=False), mi.outcome_spec(1)
res = mi.mint_test(ds, psi, phi, M=200, seed=3)
""",
}


def null_samples_hash(test, blas_threads):
    """SHA-256 of the null samples of ``THREAD_CALLS[test]`` in a child with that many OpenBLAS threads."""
    code = (
        "import hashlib\nimport numpy as np\nimport mechindep as mi\n"
        "from mechindep.harness import resolve_feature_specs\n" + THREAD_CALLS[test]
        + "print(hashlib.sha256(res.null_samples.tobytes()).hexdigest())\n"
    )
    src = str(Path(mint_module.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
        timeout=600,
    )
    return done.stdout.strip()


# OpenBLAS runs at most one thread per available CPU, so on one CPU the two
# settings are the same run and prove nothing.
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@pytest.mark.parametrize(
    "test",
    [
        "mint",
        "split",
        pytest.param("kernel", marks=pytest.mark.xfail(
            CPUS >= 2, strict=True, reason="ROADMAP item 5: _stable_dual solve")),
    ],
)
def test_bits_do_not_depend_on_blas_threads(test):
    assert null_samples_hash(test, 1) == null_samples_hash(test, 2)
