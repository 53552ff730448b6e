import tracemalloc

import numpy as np
import pytest

from mechindep import (
    EnvironmentBlock,
    KernelSpec,
    MultiEnvDataset,
    NumericalError,
    PolynomialConfig,
    ValidationError,
    frobenius_statistic,
    generate_polynomial,
    gram,
    kernel_mint_test,
    kernel_statistic,
    least_squares_fit,
    resolve_bandwidth,
)
from mechindep import kernel as kernel_module
from mechindep.kernel import (
    _BANDWIDTH_MAX_ROWS,
    _BANDWIDTH_SEED,
    EXPERIMENTAL_WARNING,
    _parameter_factors,
    _parameter_grams,
    _stable_dual,
)
from mechindep.mint import SMALL_K_WARNING

LINEAR = KernelSpec(kind="linear", ridge_lambda=1e-8)


def random_dataset(rng, K=4, n=40, d=2):
    """Full-rank dataset; ``n`` is one size for all environments or one each."""
    blocks = []
    for s, n_s in enumerate(np.broadcast_to(n, K)):
        X = rng.normal(size=(n_s, d))
        A = X @ rng.normal(size=d) + rng.normal(size=n_s)
        Y = X @ rng.normal(size=d) + 0.5 * A + rng.normal(size=n_s)
        blocks.append(EnvironmentBlock(f"e{s}", X, A, Y))
    return MultiEnvDataset(tuple(blocks))


def explicit_statistic(dataset):
    """Oracle: explicit least-squares coefficients on raw X and [X, A]."""
    omegas, gammas = [], []
    for b in dataset.blocks:
        omegas.append(least_squares_fit(b.X, b.A))
        gammas.append(least_squares_fit(np.column_stack([b.X, b.A]), b.Y))
    return frobenius_statistic(np.asarray(omegas), np.asarray(gammas))


class TestKernelSpec:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "cubic"},
            {"bandwidth": "wide"},
            {"bandwidth": 0.0},
            {"bandwidth": -1.0},
            {"bandwidth": np.inf},
            {"bandwidth": np.nan},
            {"bandwidth": 1e-300},  # 2 * bandwidth**2 underflows to 0
            {"bandwidth": 1e-154},  # 2 * bandwidth**2 is subnormal
            {"bandwidth": 1e154},  # 2 * bandwidth**2 overflows
            {"bandwidth": True},
            {"kind": "linear", "bandwidth": 2.0},  # a linear kernel reads none
            {"kind": "linear", "bandwidth": "median_heuristic"},
            {"ridge_lambda": 0.0},
            {"ridge_lambda": np.inf},
            {"ridge_lambda": np.nan},
        ],
    )
    def test_invalid_spec_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            KernelSpec(**kwargs)

    @pytest.mark.parametrize("bandwidth", [1.1e-154, 9e153, 2])
    def test_bandwidth_with_normal_divisor_accepted(self, bandwidth):
        assert KernelSpec(bandwidth=bandwidth).bandwidth == bandwidth

    def test_unset_bandwidth_is_the_median_heuristic_for_rbf_only(self):
        rows = np.random.default_rng(3).normal(size=(40, 2))
        assert KernelSpec().bandwidth is None
        explicit = resolve_bandwidth(KernelSpec(bandwidth="median_heuristic"), rows)
        assert resolve_bandwidth(KernelSpec(), rows) == explicit
        assert resolve_bandwidth(KernelSpec(kind="linear"), rows) == KernelSpec(kind="linear")


class TestGram:
    def test_linear_example(self):
        X = np.array([[1.0], [2.0]])
        np.testing.assert_array_equal(
            gram(X, X, LINEAR), [[1.0, 2.0], [2.0, 4.0]]
        )

    def test_rbf_unit_diagonal(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(5, 3))
        G = gram(X, X, KernelSpec(kind="rbf", bandwidth=1.3))
        np.testing.assert_allclose(np.diag(G), np.ones(5), atol=1e-15)

    def test_rbf_at_one_bandwidth_distance(self):
        b = 0.7
        spec = KernelSpec(kind="rbf", bandwidth=b)
        u = np.array([[0.0]])
        v = np.array([[b]])
        assert gram(u, v, spec)[0, 0] == pytest.approx(np.exp(-0.5), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            gram(np.ones((2, 2)), np.ones((2, 3)), LINEAR)

    def test_unresolved_bandwidth_rejected(self):
        with pytest.raises(ValidationError):
            gram(np.ones((2, 2)), np.ones((2, 2)), KernelSpec(kind="rbf"))

    def test_psd_with_tolerance(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(30, 2))
        for spec in (LINEAR, KernelSpec(kind="rbf", bandwidth=0.9)):
            G = gram(X, X, spec)
            np.testing.assert_allclose(G, G.T, atol=1e-12)
            assert np.linalg.eigvalsh(G).min() >= -1e-10 * max(np.abs(G).max(), 1.0)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_rbf_matches_explicit_differences(self, d):
        rng = np.random.default_rng(20 + d)
        Xa, Xb = rng.normal(size=(37, d)), rng.normal(size=(23, d))
        h = 0.8
        G = gram(Xa, Xb, KernelSpec(kind="rbf", bandwidth=h))
        want = np.exp(-((Xa[:, None] - Xb[None]) ** 2).sum(-1) / (2 * h**2))
        np.testing.assert_allclose(G, want, rtol=1e-12, atol=0.0)
        assert G.min() >= 0.0 and G.max() <= 1.0

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_rbf_self_gram_diagonal(self, d):
        # The exponent of entry (i, i) is z . z - |z|^2 / 2 - |z|^2 / 2, a
        # d + 2 term dot product whose terms sum to 2 |z|^2 in magnitude. At
        # d = 1 both z . z and |z|^2 are one rounded product, so it is exactly
        # 0. At d >= 2 BLAS may fuse the additions of z . z, which the
        # separately summed norm does not, so the exponent is a rounding error
        # within the dot product's bound (d + 2) * eps * 2 |z|^2, and never
        # positive after the clip.
        rng = np.random.default_rng(30 + d)
        X = rng.normal(size=(200, d)) * 3.0
        h = 0.7
        diag = np.diag(gram(X, X, KernelSpec(kind="rbf", bandwidth=h)))
        assert diag.max() <= 1.0
        if d == 1:
            np.testing.assert_array_equal(diag, 1.0)
        else:
            bound = (d + 2) * np.finfo(float).eps * 2 * np.sum((X / h) ** 2, axis=1)
            assert np.all(1.0 - diag <= bound)

    def test_linear_is_the_plain_product(self):
        rng = np.random.default_rng(16)
        Xa, Xb = rng.normal(size=(31, 3)), rng.normal(size=(17, 3))
        np.testing.assert_array_equal(gram(Xa, Xb, LINEAR), Xa @ Xb.T)
        np.testing.assert_array_equal(gram(Xa, Xa, LINEAR), Xa @ Xa.T)

    def test_median_heuristic_resolution_deterministic(self):
        rng = np.random.default_rng(2)
        rows = rng.normal(size=(2000, 2))
        a = resolve_bandwidth(KernelSpec(kind="rbf"), rows)
        b = resolve_bandwidth(KernelSpec(kind="rbf"), rows)
        assert a.bandwidth == b.bandwidth
        assert a.bandwidth > 0


def reference_bandwidth(rows):
    """Median of the positive strict-upper-triangle distances, taken as
    ``np.median`` of all their square roots, with each squared distance summed
    over explicit differences, ``sum_k (a_k - b_k)^2``, in the order of k."""
    if len(rows) > _BANDWIDTH_MAX_ROWS:
        keep = np.random.default_rng(_BANDWIDTH_SEED).choice(
            len(rows), size=_BANDWIDTH_MAX_ROWS, replace=False
        )
        rows = rows[np.sort(keep)]
    sq = sum((rows[:, None, k] - rows[None, :, k]) ** 2 for k in range(rows.shape[1]))
    dists = np.sqrt(sq[np.triu_indices(len(rows), 1)])
    positive = dists[dists > 0]
    return float(np.median(positive)) if positive.size else 1.0, positive.size


class TestMedianHeuristic:
    # (rows, copies of row 0, parity of the positive-distance count). The
    # copies' distances are exactly 0 and dropped, as the parity shows; past
    # _BANDWIDTH_MAX_ROWS rows the subsample path runs.
    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize(
        "n, copies, parity",
        [(5, 0, 0), (6, 0, 1), (200, 50, 1), (200, 52, 0), (1500, 0, 0), (1500, 301, 1)],
    )
    def test_equals_median_of_all_distances(self, d, n, copies, parity):
        rows = np.random.default_rng(40 + d).normal(size=(n, d))
        rows[1:copies] = rows[0]
        want, count = reference_bandwidth(rows)
        assert count % 2 == parity
        assert resolve_bandwidth(KernelSpec(), rows).bandwidth == want

    @pytest.mark.parametrize("d", [3, 48])
    def test_coincident_rows_are_left_out(self, d):
        # 400 rows drawn from two distinct rows (about 40,000 equal pairs)
        # plus 5 others: only the about 41,800 pairs of unequal rows count.
        # Explicit differences give equal rows exactly 0 at any d, also at
        # d = 48, where the residue bound of |a|^2 + |b|^2 - 2 a.b, about
        # d * eps * (|a|^2 + |b|^2), passes 32 * eps * (|a|^2 + |b|^2).
        rng = np.random.default_rng(5)
        base = 3 * rng.normal(size=(2, d))
        pick = rng.integers(0, 2, 400)
        rows = np.vstack([base[pick], rng.normal(size=(5, d))])
        want, count = reference_bandwidth(rows)
        ones = np.count_nonzero(pick)
        assert count == ones * (400 - ones) + 5 * 400 + 10
        assert resolve_bandwidth(KernelSpec(), rows).bandwidth == want

    def test_peak_memory_is_about_the_packed_triangle(self):
        # The pairs above the diagonal go straight into one packed buffer of
        # n (n - 1) / 2 floats; an n x n matrix of squared distances beside it
        # would be 3x.
        n = _BANDWIDTH_MAX_ROWS
        rows = np.random.default_rng(6).normal(size=(n, 2))
        tracemalloc.start()
        try:
            resolve_bandwidth(KernelSpec(), rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * (n * (n - 1) // 2) * 8

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_rows_give_unit_bandwidth(self, n):
        assert resolve_bandwidth(KernelSpec(), np.zeros((n, 2))).bandwidth == 1.0

    @pytest.mark.parametrize("d", [1, 3])
    def test_identical_rows_give_unit_bandwidth(self, d):
        rows = np.full((7, d), 3.2)
        assert reference_bandwidth(rows) == (1.0, 0)
        assert resolve_bandwidth(KernelSpec(), rows).bandwidth == 1.0


class TestKernelDual:
    def test_scalar_example(self):
        # (1 + 1*1) c = 2
        np.testing.assert_allclose(
            _stable_dual(np.array([[1.0]]), np.array([2.0]), 1.0), [1.0]
        )

    def test_large_lambda_decay(self):
        # Full-rank Gram: the null-space projection leaves the target whole.
        rng = np.random.default_rng(3)
        X = rng.normal(size=(20, 30))
        G = X @ X.T
        t = rng.normal(size=20)
        for lam in (1e2, 1e4, 1e6):
            c = _stable_dual(G, t, lam)
            assert np.linalg.norm(c) == pytest.approx(
                np.linalg.norm(t) / (20 * lam), rel=0.05
            )

    def test_primal_dual_equivalence(self):
        # Linear-kernel dual mapped to the primal equals explicit ridge with
        # the matching n*lambda penalty, solved as the augmented least-squares
        # system [X; sqrt(n*lambda) I] b = [t; 0].
        rng = np.random.default_rng(4)
        X = rng.normal(size=(30, 3))
        t = rng.normal(size=30)
        lam = 0.05
        c = _stable_dual(X @ X.T, t, lam)
        primal_from_dual = X.T @ c
        explicit = np.linalg.lstsq(
            np.vstack([X, np.sqrt(30 * lam) * np.eye(3)]),
            np.concatenate([t, np.zeros(3)]),
            rcond=None,
        )[0]
        np.testing.assert_allclose(primal_from_dual, explicit, atol=1e-8)

    def test_small_ridge_dual_leaves_the_null_space_out(self):
        # Linear kernel at lambda = 1e-8: n * lambda is far below 1e-6 * tr(G),
        # so the dual comes from the eigh branch and has no component in G's
        # numerical null space. A direct solve would give it a
        # ||t_null|| / (n * lambda) one.
        rng = np.random.default_rng(14)
        X = rng.normal(size=(40, 2))
        G = X @ X.T
        t = rng.normal(size=40)
        c = _stable_dual(G, t, 1e-8)
        w, V = np.linalg.eigh(G)
        null = V[:, w <= 40 * np.finfo(float).eps * w[-1]]
        assert null.shape[1] == 38
        assert np.linalg.norm(null.T @ c) <= 1e-10 * np.linalg.norm(c)

    def test_direct_branch_is_one_solve(self):
        # n * lambda >= 1e-6 * tr(G): the dual is the plain solve, bit for bit.
        rng = np.random.default_rng(16)
        X = rng.normal(size=(50, 2))
        G = gram(X, X, KernelSpec(bandwidth=1.0))
        t = rng.normal(size=50)
        want = np.linalg.solve(G + 50 * 1e-3 * np.eye(50), t)
        assert np.array_equal(_stable_dual(G, t, 1e-3), want)

    def test_indefinite_gram_below_the_gate_raises(self):
        # n * lambda = 2e-9 < 1e-6 * tr(G): eigh rejects G.
        with pytest.raises(NumericalError, match="not positive semi-definite"):
            _stable_dual(np.diag([2.0, -1.0]), np.array([1.0, 2.0]), 1e-9)

    def test_psd_screen_is_relative_to_the_gram(self):
        # At entries of order 1e-12 an absolute screen would let the negative
        # eigenvalue through, clip it and return [5e11, 0].
        t = np.array([1.0, 2.0])
        with pytest.raises(NumericalError, match="not positive semi-definite"):
            _stable_dual(np.diag([2e-12, -1e-12]), t, 1e-20)
        np.testing.assert_allclose(
            _stable_dual(np.diag([2e-12, 0.0]), t, 1e-20), [1.0 / (2e-12 + 2e-20), 0.0]
        )


class TestKernelStatistic:
    def test_matches_explicit_features_linear_kernel(self):
        rng = np.random.default_rng(5)
        ds = random_dataset(rng)
        got = kernel_statistic(ds, LINEAR, LINEAR)
        want = explicit_statistic(ds)
        assert got == pytest.approx(want, rel=1e-6)

    def test_identical_environments_give_zero(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(25, 2))
        A = rng.normal(size=25)
        Y = rng.normal(size=25)
        ds = MultiEnvDataset(
            tuple(EnvironmentBlock(f"e{s}", X, A, Y) for s in range(4))
        )
        assert kernel_statistic(ds, LINEAR, LINEAR) == pytest.approx(0.0, abs=1e-10)

    def test_outcome_scaling_bilinearity(self):
        rng = np.random.default_rng(7)
        ds = random_dataset(rng)
        base = kernel_statistic(ds, LINEAR, LINEAR)
        for c in (2.0, -3.0):
            scaled = MultiEnvDataset(
                tuple(
                    EnvironmentBlock(b.env_id, b.X, b.A, c * b.Y) for b in ds.blocks
                )
            )
            assert kernel_statistic(scaled, LINEAR, LINEAR) == pytest.approx(
                abs(c) * base, rel=1e-9
            )

    def test_environment_relabeling_invariance(self):
        rng = np.random.default_rng(8)
        ds = random_dataset(rng)
        shuffled = MultiEnvDataset(tuple(reversed(
            [EnvironmentBlock(f"r{i}", b.X, b.A, b.Y) for i, b in enumerate(ds.blocks)]
        )))
        assert kernel_statistic(shuffled, LINEAR, LINEAR) == pytest.approx(
            kernel_statistic(ds, LINEAR, LINEAR), rel=1e-9
        )

    def test_unequal_sizes_match_explicit_features(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            ds = random_dataset(rng, n=rng.integers(30, 61, size=4))
            assert len(set(ds.sizes)) > 1
            got = kernel_statistic(ds, LINEAR, LINEAR)
            assert got == pytest.approx(explicit_statistic(ds), rel=1e-6)

    def test_rbf_matches_eigh_reference(self):
        # Reference: public gram and an eigh-projected dual per environment.
        # The Cholesky branch keeps the tiny-eigenvalue directions that the
        # projection drops, which moves the results only far below 1e-6.
        rng = np.random.default_rng(15)
        ds = random_dataset(rng, K=5, n=200, d=2)
        spec = KernelSpec()

        def reference_gram(inputs, targets):
            resolved = resolve_bandwidth(spec, np.vstack(inputs))
            duals = []
            for X, t in zip(inputs, targets):
                w, V = np.linalg.eigh(gram(X, X, resolved))
                keep = w > len(t) * np.finfo(float).eps * w[-1]
                basis = V[:, keep]
                duals.append(basis @ ((basis.T @ t) / (w[keep] + len(t) * spec.ridge_lambda)))
            return np.array([
                [cs @ gram(Xs, Xt, resolved) @ ct for Xt, ct in zip(inputs, duals)]
                for Xs, cs in zip(inputs, duals)
            ])

        blocks = ds.blocks
        want_w = reference_gram([b.X for b in blocks], [b.A for b in blocks])
        want_g = reference_gram(
            [np.column_stack([b.X, b.A]) for b in blocks], [b.Y for b in blocks]
        )
        got_w, got_g = _parameter_grams(ds, spec, spec)
        for got, want in ((got_w, want_w), (got_g, want_g)):
            assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()
        H = np.eye(5) - np.ones((5, 5)) / 5
        want_t = np.sqrt(np.trace(H @ want_w @ H @ H @ want_g @ H)) / 5
        assert kernel_statistic(ds, spec, spec) == pytest.approx(want_t, rel=1e-6)

    def test_rbf_self_blocks_of_the_duals_have_a_unit_diagonal(self, monkeypatch):
        # k(x, x) = 1 exactly in every self-block that feeds a dual, also
        # at d = 2, where the fused GEMM can leave an entry 1 ulp below 1.
        ds = random_dataset(np.random.default_rng(18), K=5, n=200, d=2)
        seen = []

        def stable_dual(G, target, lam):
            seen.append(np.count_nonzero(np.diag(G) != 1.0))
            return _stable_dual(G, target, lam)

        monkeypatch.setattr(kernel_module, "_stable_dual", stable_dual)
        _parameter_grams(ds, KernelSpec(), KernelSpec())
        assert seen == [0] * 10

    def test_rbf_runs_with_median_heuristic(self):
        rng = np.random.default_rng(10)
        ds = random_dataset(rng, K=3, n=30, d=1)
        spec = KernelSpec(kind="rbf", ridge_lambda=1e-3)
        value = kernel_statistic(ds, spec, spec)
        assert np.isfinite(value) and value >= 0.0


class TestKernelMintTest:
    def test_calibration_under_independent_mechanisms(self):
        # Environments drawn with independent treatment/outcome mechanisms:
        # rejection rate stays near alpha.
        alpha, trials = 0.05, 200
        rejects = 0
        for t in range(trials):
            rng = np.random.default_rng([51, t])
            blocks = []
            for s in range(6):
                X = rng.normal(size=(25, 1))
                A = rng.normal() * X[:, 0] + rng.normal(size=25)
                Y = rng.normal() * X[:, 0] + rng.normal() * A + rng.normal(size=25)
                blocks.append(EnvironmentBlock(f"e{s}", X, A, Y))
            res = kernel_mint_test(
                MultiEnvDataset(tuple(blocks)), LINEAR, LINEAR, alpha=alpha, M=200, seed=t
            )
            rejects += res.reject
        rate = rejects / trials
        band = 3.0 * np.sqrt(alpha * (1 - alpha) / trials)
        assert rate <= alpha + band

    def test_deterministic_and_flagged_experimental(self):
        rng = np.random.default_rng(12)
        ds = random_dataset(rng, K=3)
        a = kernel_mint_test(ds, LINEAR, LINEAR, M=100, seed=9)
        b = kernel_mint_test(ds, LINEAR, LINEAR, M=100, seed=9)
        assert a.statistic == b.statistic and a.threshold == b.threshold
        assert EXPERIMENTAL_WARNING in a.warnings
        assert a.method == "kernel_mint"

    def test_null_draws_match_the_gram_trace_form(self):
        # Oracle: the Gram-trace form on the permuted treatment Gram,
        # sqrt(tr(H Gw[pi, pi] H . H Gg H)) / K, at the kernel-rbf benchmark's
        # per-environment shape, with the permutations of the kernel test's
        # stream, SeedSequence(seed).
        ds, _ = generate_polynomial(PolynomialConfig(25, 200), np.random.default_rng(20))
        M, seed = 200, 21
        res = kernel_mint_test(ds, KernelSpec(), KernelSpec(), M=M, seed=seed)
        Gw, Gg = _parameter_grams(ds, KernelSpec(), KernelSpec())
        K = len(Gw)
        H = np.eye(K) - 1.0 / K
        centred_g = H @ Gg @ H

        def trace_form(pi):
            return np.sqrt(np.trace(H @ Gw[np.ix_(pi, pi)] @ H @ centred_g)) / K

        perms = np.random.default_rng(np.random.SeedSequence(seed)).permuted(
            np.tile(np.arange(K), (M, 1)), axis=1
        )
        assert res.statistic == pytest.approx(trace_form(np.arange(K)), rel=1e-12, abs=0.0)
        want = [trace_form(pi) for pi in perms]
        np.testing.assert_allclose(res.null_samples, want, rtol=1e-12, atol=0.0)

    def test_zero_parameter_gram_gives_zero(self):
        # A treatment that is zero everywhere has zero duals: its parameter
        # Gram has no positive eigenvalue, its factor no column, and the
        # statistic and every null draw are 0.
        rng = np.random.default_rng(22)
        ds = random_dataset(rng, K=5)
        zero = MultiEnvDataset(tuple(
            EnvironmentBlock(b.env_id, b.X, np.zeros_like(b.A), b.Y) for b in ds.blocks
        ))
        for spec in (LINEAR, KernelSpec()):
            Fw, Fg = _parameter_factors(zero, spec, spec)
            assert Fw.shape == (5, 0) and Fg.shape[0] == 5
            assert kernel_statistic(zero, spec, spec) == 0.0
            res = kernel_mint_test(zero, spec, spec, M=50, seed=3)
            assert res.statistic == 0.0 and not res.null_samples.any()
            assert not res.reject and res.p_value == 1.0

    def test_no_cholesky_on_the_kernel_path(self, monkeypatch):
        # Each dual is one factorization, solve or eigh.
        ds = random_dataset(np.random.default_rng(17), K=4, n=30)

        def cholesky(*args, **kwargs):
            raise AssertionError("np.linalg.cholesky called")

        monkeypatch.setattr(np.linalg, "cholesky", cholesky)
        for spec in (LINEAR, KernelSpec(), KernelSpec(kind="linear")):
            kernel_mint_test(ds, spec, spec, M=20, seed=0)

    def test_peak_memory_does_not_grow_with_M(self):
        # Null draws in blocks: from M = 1,000 to 8,000 the peak grows by the
        # (M, K) permutations and M null samples (and copies of those), far
        # below one batch of (M, K, K) gathered factor rows.
        K = 50
        ds = random_dataset(np.random.default_rng(19), K=K, n=20, d=1)

        def peak(M):
            tracemalloc.start()
            try:
                kernel_mint_test(ds, KernelSpec(), KernelSpec(), M=M, seed=2)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(8000) - peak(1000) < 7000 * (K * 8 + 8) + 2**20

    def test_k2_boundary_warns_and_runs(self):
        rng = np.random.default_rng(13)
        ds = random_dataset(rng, K=2)
        res = kernel_mint_test(ds, LINEAR, LINEAR, M=50, seed=1)
        assert SMALL_K_WARNING in res.warnings
