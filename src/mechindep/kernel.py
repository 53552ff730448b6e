"""Implicit-feature variant of the mechanism-independence test.

Instead of explicit polynomial features, the working models are kernel ridge
regressions: dual coefficients solve ``(G + n*lambda*I) c = target`` on the
environment's Gram matrix, with one factorization. When
``n*lambda >= 1e-6 * tr(G)`` the system is well conditioned and
``np.linalg.solve`` solves it directly. Otherwise ``eigh`` solves it with G's
numerical null space projected out: at a tiny ridge (a linear kernel at
``lambda = 1e-8``, as in acceptance criterion 9) a direct solve would give
the dual a ``||target|| / (n*lambda)`` null-space component whose rounding
noise the Gram contractions amplify. Parameter inner products across
environments are then available through cross-Gram matrices,
``omega_s . omega_t = c_s' k(X_s, X_t) c_t``. Each K x K parameter Gram is
factored once, ``G = F F'`` with ``F = V[:, w > 0] * sqrt(w[w > 0])`` from
its ``eigh``, so row s of F stands for environment s's parameter: the
explicit-feature statistic on the rows of ``Fw`` and ``Fg`` is the
Gram-trace form

    T = (1/K) * sqrt(tr((H Gw H) (H Gg H))),   H = I - ones/K,

and permuting the rows of ``Fw`` permutes the rows and columns of ``Gw``.
Calibration is permutation-only, through the explicit-feature test's
permutation core; no bootstrap analogue is defined for dual solutions, so
results carry an "experimental" warning.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dataset import MultiEnvDataset, as_float_matrix, is_real
from .errors import NumericalError, ValidationError
from .mint import (
    METHOD_KERNEL_MINT,
    TestResult,
    _check_draws,
    _permutation_result,
    _random_permutations,
    frobenius_statistic,
)

MEDIAN_HEURISTIC = "median_heuristic"
_BANDWIDTH_MAX_ROWS = 1000
_BANDWIDTH_SEED = 0
# Equal d-vectors a, b leave |a|^2 + |b|^2 - 2 a.b a rounding residue of at
# most about d * eps * (|a|^2 + |b|^2): the norms and the dot product are each
# within d * eps / 2 relative. Up to 32 times eps that is taken for coincident
# rows, which covers every d <= 32; a distance that small cannot be told from
# a residue. At the kernel-rbf benchmark's shape distinct pairs stay >= 1421.
_COINCIDENT_EPS = 32 * np.finfo(float).eps

EXPERIMENTAL_WARNING = (
    "kernel test calibration is permutation-only (no bootstrap refits) "
    "and is experimental"
)


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family, bandwidth, and ridge strength for one working model.

    ``bandwidth`` is either a positive finite number, with
    ``2 * bandwidth**2`` a normal float, or the string
    ``"median_heuristic"``, resolved against data by
    :func:`resolve_bandwidth`. Only RBF reads it: a linear kernel keeps the
    default and rejects a number. The dual system uses ``n * ridge_lambda``
    (sample-size scaled); the explicit-feature least-squares fits take no
    ridge.
    """

    kind: str = "rbf"  # "linear" | "rbf"
    bandwidth: float | str = MEDIAN_HEURISTIC
    ridge_lambda: float = 1e-3

    def __post_init__(self):
        if self.kind not in ("linear", "rbf"):
            raise ValidationError(f"unknown kernel kind {self.kind!r}")
        if isinstance(self.bandwidth, str):
            if self.bandwidth != MEDIAN_HEURISTIC:
                raise ValidationError(f"unknown bandwidth rule {self.bandwidth!r}")
        elif self.kind == "linear":
            raise ValidationError(f"a linear kernel takes no bandwidth, got {self.bandwidth!r}")
        else:
            # gram divides by 2 * bandwidth**2, which must neither overflow
            # nor underflow.
            with np.errstate(over="ignore", under="ignore"):
                ok = is_real(self.bandwidth) and self.bandwidth > 0 and (
                    np.finfo(float).tiny <= 2.0 * np.float64(self.bandwidth) ** 2 < np.inf
                )
            if not ok:
                raise ValidationError(
                    "bandwidth must be a finite number > 0 with 2 * bandwidth**2 a "
                    f"normal float, got {self.bandwidth!r}"
                )
        if not (is_real(self.ridge_lambda) and 0 < self.ridge_lambda < np.inf):
            raise ValidationError(f"ridge_lambda must be > 0 and finite, got {self.ridge_lambda}")


def resolve_bandwidth(spec: KernelSpec, rows: np.ndarray) -> KernelSpec:
    """Replace a median-heuristic bandwidth with the median pairwise distance.

    At most ``_BANDWIDTH_MAX_ROWS`` rows enter the pairwise computation; a
    larger input is subsampled without replacement from a stream seeded with
    ``_BANDWIDTH_SEED``, so the resolution is deterministic. The positive
    squared distances above the diagonal, gathered row by row, are
    partitioned once, and only the one or two middle values are square-rooted
    and averaged as ``np.median`` averages them: ``sqrt`` is monotone and
    correctly rounded, so this is the median distance bit for bit.
    Coincident rows, and pairs within their rounding residue
    (``_COINCIDENT_EPS``), are left out; if all coincide, the bandwidth is 1.
    """
    if spec.kind == "linear" or not isinstance(spec.bandwidth, str):
        return spec
    rows = as_float_matrix(rows, "rows")
    n = rows.shape[0]
    if n > _BANDWIDTH_MAX_ROWS:
        rng = np.random.default_rng(_BANDWIDTH_SEED)
        keep = rng.choice(n, size=_BANDWIDTH_MAX_ROWS, replace=False)
        rows = rows[np.sort(keep)]
    norms = np.sum(rows * rows, axis=1)
    sq = norms[:, None] + norms[None, :]
    sq -= 2.0 * (rows @ rows.T)
    # Zero coincident pairs' residues, in the rows with a pair under the
    # largest norms' bound; the diagonal is outside the gather.
    np.fill_diagonal(sq, np.inf)
    bound = _COINCIDENT_EPS * 2.0 * norms.max(initial=0.0)
    near = np.flatnonzero(sq.min(axis=1, initial=np.inf) <= bound)
    block = sq[near]
    block[block <= _COINCIDENT_EPS * (norms[near, None] + norms)] = 0.0
    sq[near] = block
    upper = np.concatenate([np.empty(0)] + [sq[i, i + 1 :] for i in range(len(sq) - 1)])
    positive = upper[upper > 0]
    if not positive.size:
        return replace(spec, bandwidth=1.0)
    k = positive.size // 2
    positive.partition(k)  # an even count's lower middle is the largest before k
    lower = positive[k] if positive.size % 2 else positive[:k].max()
    bandwidth = (np.sqrt(lower) + np.sqrt(positive[k])) / 2
    return replace(spec, bandwidth=float(bandwidth))


def _kernel_rows(X: np.ndarray, spec: KernelSpec) -> tuple:
    """Left and right factors whose product :func:`_kernel_block` turns into
    the kernel block: ``X`` and ``X`` for the linear kernel. For RBF, with
    ``Z = X / bandwidth``, the left factor is ``[Z, -|z|^2 / 2, -1]`` and the
    right factor ``[Z, 1, |z|^2 / 2]``, computed once per input."""
    if spec.kind == "linear":
        return X, X
    Z = X / spec.bandwidth
    half = 0.5 * np.sum(Z * Z, axis=1)[:, None]
    ones = np.ones_like(half)
    return np.hstack([Z, -half, -ones]), np.hstack([Z, ones, half])


def _kernel_block(a: tuple, b: tuple, spec: KernelSpec) -> np.ndarray:
    # For RBF, left_a @ right_b.T = z_a . z_b - |z_a|^2 / 2 - |z_b|^2 / 2, the
    # exponent of exp(-||u - v||^2 / (2 h^2)), from one GEMM. Products with
    # +-1 are exact, so where BLAS sums the inner dimension in order, each
    # norm term is one rounded subtraction, as after a plain product. The
    # exponent is clipped at 0 as the squared distance is clipped at 0, then
    # exponentiated in place.
    out = a[0] @ b[1].T
    if spec.kind == "linear":
        return out
    np.minimum(out, 0.0, out=out)
    return np.exp(out, out=out)


def gram(Xa, Xb, spec: KernelSpec) -> np.ndarray:
    """Kernel matrix with entry (i, j) = k(row i of Xa, row j of Xb).

    The linear kernel is the dot product; the RBF kernel is
    ``exp(-||u - v||^2 / (2 * bandwidth^2))`` and requires a resolved
    (numeric) bandwidth.
    """
    Xa = as_float_matrix(Xa, "Xa")
    Xb = as_float_matrix(Xb, "Xb")
    if Xa.shape[1] != Xb.shape[1]:
        raise ValidationError(
            f"row dimension mismatch: {Xa.shape[1]} vs {Xb.shape[1]}"
        )
    if spec.kind == "rbf" and isinstance(spec.bandwidth, str):
        raise ValidationError(
            "rbf bandwidth is unresolved; call resolve_bandwidth first"
        )
    return _kernel_block(_kernel_rows(Xa, spec), _kernel_rows(Xb, spec), spec)


# tr(G) >= lambda_max(G), so n * lambda >= this fraction of tr(G) keeps
# cond(G + n*lambda*I) * eps below about 2e-10.
_DIRECT_RIDGE_FRACTION = 1e-6


def _stable_dual(G: np.ndarray, target: np.ndarray, lam: float) -> np.ndarray:
    """Dual coefficients solving ``(G + n*lam*I) c = target``.

    G is a kernel self-block, PSD up to rounding far below any ridge with
    ``n * lam >= 1e-6 * tr(G)``; such a system is well conditioned and
    ``np.linalg.solve`` solves it directly. Otherwise ``eigh`` solves it on
    G's numerical range. Directions with (numerically) zero Gram eigenvalue
    contribute nothing to any parameter inner product, but at small lambda
    they carry a ``||target|| / (n * lam)`` component whose rounding noise
    the Gram contractions would amplify. A linear kernel at ``lam = 1e-8``
    (acceptance criterion 9) takes this branch, which raises
    :class:`NumericalError` for a G that is not positive semi-definite
    relative to its largest eigenvalue magnitude.
    """
    n = G.shape[0]
    ridge = n * lam
    if ridge >= _DIRECT_RIDGE_FRACTION * np.trace(G):
        A = G.copy()
        A[np.diag_indices(n)] += ridge
        return np.linalg.solve(A, target)
    w, V = np.linalg.eigh(G)
    if w[0] < -1e-10 * max(abs(w[0]), abs(w[-1])):
        raise NumericalError(
            f"Gram matrix is not positive semi-definite (min eigenvalue {w[0]:.3e})"
        )
    w = np.clip(w, 0.0, None)
    keep = w > n * np.finfo(float).eps * w[-1]
    basis = V[:, keep]
    return basis @ ((basis.T @ target) / (w[keep] + ridge))


def _model_gram(inputs: list, targets: list, spec: KernelSpec) -> np.ndarray:
    """K x K inner products of one working model's implicit parameters.

    The bandwidth is resolved on the pooled inputs; environments may differ
    in size, so each cross-Gram is n_s x n_t. Each environment's own Gram
    serves both its dual and ``G[s, s]``; the K diagonal Grams are not kept.
    """
    spec = resolve_bandwidth(spec, np.vstack(inputs))
    rows = [_kernel_rows(X, spec) for X in inputs]
    K = len(inputs)
    G = np.empty((K, K))
    duals = []
    for s in range(K):
        block = _kernel_block(rows[s], rows[s], spec)
        duals.append(_stable_dual(block, targets[s], spec.ridge_lambda))
        G[s, s] = duals[s] @ block @ duals[s]
    for s in range(K):
        for t in range(s + 1, K):
            G[s, t] = G[t, s] = duals[s] @ _kernel_block(rows[s], rows[t], spec) @ duals[t]
    return G


def _parameter_grams(
    dataset: MultiEnvDataset, k_spec: KernelSpec, h_spec: KernelSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Parameter Grams of the treatment model on ``X`` and the outcome model
    on ``[X, A]``."""
    blocks = dataset.blocks
    Gw = _model_gram([b.X for b in blocks], [b.A for b in blocks], k_spec)
    Gg = _model_gram([np.column_stack([b.X, b.A]) for b in blocks], [b.Y for b in blocks], h_spec)
    return Gw, Gg


def _parameter_factors(
    dataset: MultiEnvDataset, k_spec: KernelSpec, h_spec: KernelSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Row factors ``F``, ``F F' = G``, of both parameter Grams, from the
    eigenpairs of positive eigenvalue; a zero Gram has no column."""
    factors = []
    for G in _parameter_grams(dataset, k_spec, h_spec):
        w, V = np.linalg.eigh(G)
        factors.append(V[:, w > 0] * np.sqrt(w[w > 0]))
    return tuple(factors)


def kernel_statistic(
    dataset: MultiEnvDataset, k_spec: KernelSpec, h_spec: KernelSpec
) -> float:
    """Cross-covariance statistic computed entirely from Gram matrices.

    It is the explicit-feature statistic on the rows of the parameter
    Grams' factors. With linear kernels and vanishing ridge this equals the
    explicit-feature statistic built from least-squares coefficients on raw
    ``X`` and ``[X, A]`` designs.
    """
    return frobenius_statistic(*_parameter_factors(dataset, k_spec, h_spec))


def kernel_mint_test(
    dataset: MultiEnvDataset,
    k_spec: KernelSpec,
    h_spec: KernelSpec,
    alpha: float = 0.05,
    M: int = 1000,
    seed: int = 0,
) -> TestResult:
    """Permutation-calibrated independence test on the kernel statistic.

    The null draws permute the environment index set on the treatment side:
    the rows of its parameter Gram's factor, which is the simultaneous
    row/column permutation of that Gram. The permutations come from
    ``SeedSequence(seed)``; threshold and p-value follow the
    explicit-feature test. The result is fixed bit for bit by ``seed`` at a
    given BLAS thread count.
    """
    _check_draws(M, seed, alpha)
    Fw, Fg = _parameter_factors(dataset, k_spec, h_spec)
    perms = _random_permutations(np.random.SeedSequence(seed), M, dataset.n_envs)
    return _permutation_result(
        frobenius_statistic(Fw, Fg), Fw, Fg, perms, alpha, seed, METHOD_KERNEL_MINT,
        warnings=(EXPERIMENTAL_WARNING,),
    )
