"""Mechanism-independence falsification test.

Stage one fits the treatment and outcome working models separately in every
environment. Stage two tests whether the fitted parameter vectors co-vary
across environments, using the scaled Frobenius norm of their empirical
cross-covariance as the statistic. The rejection threshold is calibrated by
re-estimating on within-environment bootstrap resamples and randomly
permuting the environment index of the treatment-side parameters, which
breaks any pairing while preserving estimation noise. One permutation core,
``_permutation_result``, draws the null statistics and calibrates all three
resampling tests: this one, ``permutation_test`` and the kernel variant.

One pass over the environments (``_fits_and_refits``) fits both models on
each environment's design and refits them on its bootstrap resamples by the
normal equations weighted by the resample multiplicity counts: one product,
summed over fixed 256-row blocks, packs each Gram's lower triangle for all M
resamples, and one Cholesky factor of the Gram of ``[X | t]``, the R of its
QR (Golub & Van Loan, *Matrix Computations*, 5.3), fits every model on
leading columns of the design. Its rank screen is the pivoted-Cholesky
criterion (LAPACK ``?pstrf``; Higham, *Accuracy and Stability of Numerical
Algorithms*, ch. 10); the README gives the sweep behind ``_PIVOT_TOL``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .dataset import MultiEnvDataset, as_float_matrix, as_float_vector, check_alpha
from .errors import ValidationError
from .estimation import _build_design, _design_layout, _full_fit, fit_mechanisms
from .features import FeatureSpec

METHOD_MINT = "mint"
METHOD_MINT_NO_BOOTSTRAP = "mint_no_bootstrap"
METHOD_TRANSPORTABILITY = "transportability"
METHOD_KERNEL_MINT = "kernel_mint"

SMALL_K_WARNING = (
    "K=2: only two distinct environment permutations exist; "
    "the calibrated threshold carries essentially no power"
)

_RIDGE_JITTER = 1e-8
_PIVOT_TOL = 1e-10


@dataclass(frozen=True)
class TestResult:
    """Outcome of one falsification test, with full provenance.

    ``reject`` is true exactly when ``statistic > threshold`` (strict). When
    ``null_samples`` is retained, ``p_value`` equals the add-one Monte Carlo
    estimate ``(1 + #{T_m >= statistic}) / (M + 1)``.

    ``resamples_M`` is 0 for analytic tests that draw no resamples.
    """

    statistic: float
    threshold: float
    p_value: float
    reject: bool
    alpha: float
    resamples_M: int
    seed: int
    method: str
    null_samples: np.ndarray | None = None
    warnings: tuple[str, ...] = field(default=())

    def __post_init__(self):
        check_alpha(self.alpha)
        if not 0.0 < self.p_value <= 1.0:
            raise ValidationError(f"p_value must lie in (0, 1], got {self.p_value}")
        if self.statistic < 0 or self.threshold < 0:
            raise ValidationError("statistic and threshold must be non-negative")
        if self.reject != (self.statistic > self.threshold):
            raise ValidationError("reject flag inconsistent with statistic/threshold")
        if self.null_samples is not None:
            samples = np.array(np.asarray(self.null_samples, dtype=float))
            samples.setflags(write=False)
            object.__setattr__(self, "null_samples", samples)
        object.__setattr__(self, "warnings", tuple(self.warnings))


def frobenius_statistic(omegas, gammas) -> float:
    """Scaled Frobenius norm of the across-environment cross-covariance.

    With K environment rows, returns
    ``(1/K) * sqrt(sum_ij [sum_s (omega_si - mean_i)(gamma_sj - mean_j)]^2)``,
    which is zero exactly when the centered parameter matrices have
    orthogonal column spans.
    """
    omegas = as_float_matrix(omegas, "omegas")
    gammas = as_float_matrix(gammas, "gammas")
    K = omegas.shape[0]
    if gammas.shape[0] != K:
        raise ValidationError(
            f"omegas and gammas disagree on K: {K} vs {gammas.shape[0]}"
        )
    if K < 2:
        raise ValidationError(f"need at least 2 environments, got {K}")
    # The null draws' computation, so an identity permutation reproduces
    # the statistic bit for bit.
    return float(_batched_statistic(omegas[None], gammas)[0])


def _batched_statistic(omegas: np.ndarray, gammas: np.ndarray) -> np.ndarray:
    # omegas (M, K, z), gammas (M, K, z') or one (K, z') for all draws,
    # centred once -> (M,) statistics.
    K = omegas.shape[1]
    oc = omegas - omegas.mean(axis=1, keepdims=True)
    gc = gammas - gammas.mean(axis=-2, keepdims=True)
    cross = np.matmul(oc.transpose(0, 2, 1), gc)
    return np.sqrt(np.einsum("mij,mij->m", cross, cross)) / K


def calibrate_threshold(null_samples, alpha: float) -> float:
    """Smallest observed null value t with ``#{T_m > t} / M <= alpha``.

    Equals the ``ceil((1 - alpha) * M)``-th ascending order statistic of the
    null samples; ties are resolved by sorted position.
    """
    samples = as_float_vector(null_samples, "null_samples")
    M = samples.shape[0]
    if M < 1:
        raise ValidationError("null_samples must be non-empty")
    check_alpha(alpha)
    ordered = np.sort(samples)
    # Guard the float ceil against representation error, then verify directly.
    idx = max(1, math.ceil(M * (1.0 - alpha) - 1e-9))
    while idx <= M:
        t = ordered[idx - 1]
        if np.count_nonzero(samples > t) <= alpha * M + 1e-9:
            return float(t)
        idx += 1
    return float(ordered[-1])


def _cholesky_fits(fac: np.ndarray, targets) -> tuple[list, np.ndarray]:
    """Fit column k on columns :k of the (q, q, M) Grams in ``fac``, for each k in ``targets``.

    Scales the lower triangles to unit diagonal and factors them in place:
    pivot j is the squared distance of column j from the span of those
    before it, and row k holds the forward-substituted right-hand side, so a
    fit is ``D^-1 L[:k, :k]^-T (s_k L[k, :k])`` (``D``, ``s``: the scales).
    Also returns each system's first pivot at or below ``_PIVOT_TOL``, else
    q - 1; such pivots are set to 1 to stay finite. The last is not formed.
    """
    idx = np.arange(len(fac))
    scale = np.sqrt(np.clip(fac[idx, idx], 0.0, None))
    scale[scale == 0.0] = 1.0
    first_low = np.full(fac.shape[2], len(fac) - 1)
    for j in idx:
        fac[j, : j + 1] /= scale[j] * scale[: j + 1]
    for j in idx[:-1]:  # left-looking: column j from the finished columns before it
        fac[j:, j] -= np.einsum("ikm,km->im", fac[j:, :j], fac[j, :j])
        low = fac[j, j] <= _PIVOT_TOL
        first_low[low & (first_low > j)] = j
        fac[j, j] = np.sqrt(np.where(low, 1.0, fac[j, j]))
        fac[j + 1 :, j] /= fac[j, j]
    fits = []
    for k in targets:
        x = fac[k, :k] * scale[k]
        for j in reversed(range(k)):  # back substitution, L' x = y
            x[j] -= np.einsum("km,km->m", fac[j + 1 : k, j], x[j + 1 :])
            x[j] /= fac[j, j]
        fits.append(x / scale[:k])
    return fits, first_low


def _augmented_fits(packed: np.ndarray, targets, fac: np.ndarray) -> list:
    """:func:`_cholesky_fits` in the buffer ``fac`` of the M Grams whose lower triangles, row by
    row, are the rows of the (M, q(q + 1)/2) ``packed``. A model with a low pivot before its
    target k is refit alone from its (k + 1) block, a prefix, its k diagonal entries raised by
    ``_RIDGE_JITTER * mean``; a target in its features' span is a perfect fit, not a deficiency."""
    q = math.isqrt(2 * packed.shape[1])
    fac = fac[:q, :q]
    fac[np.tril_indices(q)] = packed.T
    fits, first_low = _cholesky_fits(fac, targets)
    for k, x in zip(targets, fits):
        ridged = first_low < k
        if np.any(ridged):
            sub = np.empty((k + 1, k + 1, np.count_nonzero(ridged)))
            sub[np.tril_indices(k + 1)] = packed[ridged, : (k + 1) * (k + 2) // 2].T
            diag = np.arange(k)
            lam = _RIDGE_JITTER * sub[diag, diag].mean(axis=0)
            sub[diag, diag] += np.where(lam > 0.0, lam, np.finfo(float).tiny)
            x[:, ridged] = _cholesky_fits(sub, (k,))[0][0]
    return fits


# Rows of one bootstrap chunk hold about this many resample counts, so the
# chunk buffers take a few MB whatever M is.
_CHUNK_ELEMENTS = 1 << 18
# Blocks of about this many elements stay in cache: the counts of one
# bincount call and one row block of W. One bincount over a whole chunk ran
# ~3x slower at n = 10,000 on a 2-vCPU Xeon (AVX-512, OpenBLAS 0.3.31).
_BINCOUNT_ELEMENTS = 1 << 15
# The moment products sum over blocks of this many rows of W, so no product's
# inner dimension, and no sum's order, depends on the chunk or on BLAS threads.
_INNER_ROWS = 256
# Null draws are computed in blocks of about this many gathered parameter
# entries, so the gathered, centred and cross arrays stay small whatever M is.
_NULL_ELEMENTS = 1 << 15


def _chunk_rows(M: int, n: int) -> int:
    """Resamples of ``n`` rows in one bootstrap chunk."""
    return max(1, min(M, _CHUNK_ELEMENTS // n))


def _resampled_moments(
    rng: np.random.Generator, W: np.ndarray, out: np.ndarray, buffer: np.ndarray,
    products: np.ndarray,
) -> None:
    """Write ``counts @ W`` for ``len(out)`` bootstrap resamples of the rows of ``W``.

    Resample ``m`` draws ``n`` row indices with replacement; ``counts[m]``
    holds each row's multiplicity. Resamples are drawn in chunks of rows, so
    only one chunk of counts exists at a time, in the first
    ``_chunk_rows(M, n) * n`` elements of the flat ``buffer``; its indices
    are drawn one bincount group at a time, which consumes the stream exactly
    as one ``(M, n)`` draw would. A chunk's product over the last 1 to
    ``_INNER_ROWS`` rows of ``W`` (all of them if ``n <= _INNER_ROWS``) goes
    to ``out``, plus the block-order sum of its products over the blocks of
    ``_INNER_ROWS`` rows before them, stacked in the flat ``products``.
    """
    (M, P), n = out.shape, len(W)
    rows = _chunk_rows(M, n)
    group = max(1, min(rows, _BINCOUNT_ELEMENTS // n))
    offsets = (np.arange(group, dtype=np.int32) * n)[:, None]
    counts = buffer[: rows * n].reshape(rows, n)
    nb = (n - 1) // _INNER_ROWS
    full = nb * _INNER_ROWS
    stack = products[: nb * rows * P].reshape(nb, rows, P)
    blocks = W[:full].reshape(nb, _INNER_ROWS, P)
    for start in range(0, M, rows):
        r = min(rows, M - start)
        for g0 in range(0, r, group):
            g = min(group, r - g0)
            # int32 draws consume the generator exactly as int64 draws do.
            idx = rng.integers(0, n, size=(g, n), dtype=np.int32)
            idx += offsets[:g]
            counts[g0 : g0 + g].reshape(-1)[:] = np.bincount(idx.reshape(-1), minlength=g * n)
        chunk = counts[:r]
        np.matmul(chunk[:, full:], W[full:], out=out[start : start + r])
        if nb:
            np.matmul(chunk[:, :full].reshape(r, nb, _INNER_ROWS).transpose(1, 0, 2), blocks,
                      out=stack[:, :r])
            out[start : start + r] += np.add.reduce(stack[:, :r], axis=0)


def _fits_and_refits(
    dataset: MultiEnvDataset, psi_spec: FeatureSpec, phi_spec: FeatureSpec, M: int,
    rng: np.random.Generator,
):
    """Full-data fits and all M bootstrap refits, one environment at a time.

    Returns the (K, z) and (K, z') full-data fits, as :func:`fit_mechanisms`
    gives them, then the (M, K, z) and (M, K, z') refits. Every Gram entry is
    a column of one (M, P) moment matrix, which :func:`_resampled_moments`
    gives from the column products ``U_i * U_j`` of the design in ``W``: each
    factored Gram's lower triangle, row by row. Shared specs factor the Gram
    of ``U = [phi | Y]``, whose leading block is that of ``[psi | A]``, once
    for both models; split specs factor the two and form no psi x phi product.
    """
    psi, phi, a, y = layout = _design_layout(dataset, psi_spec, phi_spec)
    K, z, z_out = dataset.n_envs, psi.stop, phi.stop - phi.start
    shared = [(np.r_[phi, y], [z, z_out])]  # [psi | A] is the leading block
    groups = [(np.r_[psi, a], [z]), (np.r_[phi, y], [z_out])] if phi.start else shared
    il, jl = np.hstack([c[np.vstack(np.tril_indices(len(c)))] for c, _ in groups])
    ends = np.cumsum([len(c) * (len(c) + 1) // 2 for c, _ in groups])[:-1]
    omegas, gammas = np.empty((K, z)), np.empty((K, z_out))
    refits = np.empty((M, K, z)), np.empty((M, K, z_out))
    # A row block of W of about _BINCOUNT_ELEMENTS bounds the gather's temporary.
    rows = max(1, _BINCOUNT_ELEMENTS // il.size)
    # The moment and factor buffers have one shape in every environment, and
    # the counts and block-product buffers hold any environment's chunk:
    # allocated once (per environment, they doubled mint-flex's and
    # mint-tall's page faults) and freed on return, before the permutation stage.
    moments = np.empty((M, il.size))
    q = max(len(c) for c, _ in groups)  # the largest Gram factored; y + 1 if shared
    fac = np.empty((q, q, M))
    chunks = [(_chunk_rows(M, n), n) for n in dataset.sizes]
    counts = np.empty(max(r * n for r, n in chunks))
    products = np.empty(max(r * ((n - 1) // _INNER_ROWS) for r, n in chunks) * il.size)
    for s, block in enumerate(dataset.blocks):
        U = _build_design(block, psi_spec, phi_spec, layout)
        omegas[s], gammas[s] = _full_fit(U, layout)
        W = np.empty((len(U), il.size))
        for r in range(0, len(U), rows):  # "clip" skips take's buffered copy
            np.take(U[r : r + rows], il, axis=1, out=W[r : r + rows], mode="clip")
            W[r : r + rows] *= U[r : r + rows, jl]
        del U
        _resampled_moments(rng, W, moments, counts, products)
        del W  # freed before the next environment's U and W are built
        packed = zip(np.split(moments, ends, axis=1), groups)
        fits = [_augmented_fits(p, ks, fac) for p, (_, ks) in packed]
        for refit, x in zip(refits, sum(fits, [])):
            refit[:, s, :] = x.T
    return omegas, gammas, *refits


def _check_draws(M: int, seed: int, alpha: float) -> None:
    """Reject a null-draw count, seed or level before any work is done."""
    for name, value in (("M", M), ("seed", seed)):  # a bool is Integral, but no count
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValidationError(f"{name} must be an integer, got {value!r}")
    if M < 1:
        raise ValidationError(f"M must be >= 1, got {M}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    check_alpha(alpha)


def _random_permutations(seed: np.random.SeedSequence, M: int, K: int) -> np.ndarray:
    """(M, K) uniform permutations of the environment indices."""
    perms = np.tile(np.arange(K), (M, 1))
    np.random.default_rng(seed).permuted(perms, axis=1, out=perms)
    return perms


def _mint_permutations(seed: int, M: int, K: int) -> np.ndarray:
    # The second child of SeedSequence(seed); the bootstrap draws from the first.
    return _random_permutations(np.random.SeedSequence(seed).spawn(2)[1], M, K)


def _permutation_result(
    statistic: float, treatment: np.ndarray, outcome: np.ndarray, perms: np.ndarray,
    alpha: float, seed: int, method: str, warnings: tuple[str, ...] = (),
) -> TestResult:
    """Calibrate ``statistic`` on null draws whose treatment-side rows are permuted.

    Either side is one (K, z) matrix shared by all M draws or (M, K, z), one
    per draw; draw m permutes the treatment rows by ``perms[m]``. The draws
    are computed in blocks of about ``_NULL_ELEMENTS`` gathered entries, each
    draw exactly as in one batch of all M. Shared by every resampling test:
    the threshold, the add-one Monte Carlo p-value and the K=2 warning,
    appended to ``warnings``, follow from the null draws.
    """
    M, K = perms.shape
    step = max(1, _NULL_ELEMENTS // (K * max(treatment.shape[-1], outcome.shape[-1], 1)))
    null_samples = np.empty(M)
    for m in range(0, M, step):
        block = perms[m : m + step]
        rows = block if treatment.ndim == 2 else (np.arange(m, m + len(block))[:, None], block)
        side = outcome if outcome.ndim == 2 else outcome[m : m + step]
        null_samples[m : m + step] = _batched_statistic(treatment[rows], side)
    threshold = calibrate_threshold(null_samples, alpha)
    # Add-one Monte Carlo estimate; never exactly zero.
    exceed = np.count_nonzero(null_samples >= statistic)
    return TestResult(
        statistic=statistic,
        threshold=threshold,
        p_value=float((1 + exceed) / (M + 1)),
        reject=statistic > threshold,
        alpha=alpha,
        resamples_M=M,
        seed=seed,
        method=method,
        null_samples=null_samples,
        warnings=warnings + ((SMALL_K_WARNING,) if K == 2 else ()),
    )


def permutation_test(
    omegas,
    gammas,
    alpha: float = 0.05,
    M: int = 1000,
    seed: int = 0,
) -> TestResult:
    """Permutation independence test on already-estimated parameter matrices.

    Draws ``M`` uniform permutations of the environment indices, applies each
    to the treatment-side rows only, and compares the observed statistic with
    the permuted null. This is the no-bootstrap calibration; identity
    permutations drawn by chance are kept. The permutations come from
    ``mint_test``'s permutation stream, so on a full-data fit this returns
    ``mint_test(..., use_bootstrap=False)`` for the same seed.
    """
    _check_draws(M, seed, alpha)
    omegas = as_float_matrix(omegas, "omegas")
    gammas = as_float_matrix(gammas, "gammas")
    statistic = frobenius_statistic(omegas, gammas)
    perms = _mint_permutations(seed, M, len(omegas))
    return _permutation_result(
        statistic, omegas, gammas, perms, alpha, seed, METHOD_MINT_NO_BOOTSTRAP
    )


def mint_test(
    dataset: MultiEnvDataset,
    psi_spec: FeatureSpec,
    phi_spec: FeatureSpec,
    alpha: float = 0.05,
    M: int = 1000,
    seed: int = 0,
    use_bootstrap: bool = True,
) -> TestResult:
    """Two-stage falsification test for mechanism independence.

    Stage one fits both working models on the full data and evaluates the
    cross-covariance statistic. Stage two builds ``M`` null draws: with
    ``use_bootstrap`` each draw refits on fresh within-environment resamples
    (otherwise it is :func:`permutation_test` on the full-data fit) and the
    treatment-side rows are randomly permuted. The threshold is the empirical
    ``(1 - alpha)`` null quantile; rejection requires a strictly larger
    observed statistic.

    The bootstrap resampling and the permutations consume two separately
    derived random streams, so the two randomizations are independent. The
    result is fixed bit for bit by ``seed``, at one BLAS thread as at two.
    """
    _check_draws(M, seed, alpha)
    if not use_bootstrap:
        fit = fit_mechanisms(dataset, psi_spec, phi_spec)
        return permutation_test(fit.omegas, fit.gammas, alpha, M, seed)
    boot_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[0])
    omegas, gammas, omegas_b, gammas_b = _fits_and_refits(dataset, psi_spec, phi_spec, M, boot_rng)
    statistic = frobenius_statistic(omegas, gammas)
    perms = _mint_permutations(seed, M, dataset.n_envs)
    return _permutation_result(statistic, omegas_b, gammas_b, perms, alpha, seed, METHOD_MINT)
