"""Per-environment least-squares fits of the two working models.

The solver is factorization based (SVD via ``lstsq``), never an explicit
normal-equation inverse, with rank tolerance ``max(n, m) * eps * sigma_max``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dataset import MultiEnvDataset, _readonly, as_float_matrix, as_float_vector
from .errors import RankDeficientError, ValidationError
from .features import OUTCOME, TREATMENT, FeatureSpec
from .features import build_outcome_features, build_treatment_features

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class MechanismEstimates:
    """Fitted mechanism parameters for every environment.

    Row ``s`` of ``omegas`` holds the treatment-model coefficients of
    environment ``s``; row ``s`` of ``gammas`` the outcome-model coefficients.
    """

    omegas: np.ndarray  # (K, z)
    gammas: np.ndarray  # (K, z')
    env_ids: tuple[str, ...]

    def __post_init__(self):
        omegas = as_float_matrix(self.omegas, "omegas")
        gammas = as_float_matrix(self.gammas, "gammas")
        if omegas.shape[0] != gammas.shape[0]:
            raise ValidationError(
                f"omegas and gammas disagree on K: {omegas.shape[0]} vs {gammas.shape[0]}"
            )
        if len(self.env_ids) != omegas.shape[0]:
            raise ValidationError("env_ids length must equal K")
        object.__setattr__(self, "omegas", _readonly(np.array(omegas)))
        object.__setattr__(self, "gammas", _readonly(np.array(gammas)))
        object.__setattr__(self, "env_ids", tuple(self.env_ids))


def _find_deficient_columns(design: np.ndarray, rank: int) -> tuple[int, ...]:
    # Pivoted QR: the pivots beyond the numerical rank form a column subset
    # dependent on the preceding ones. scipy.linalg is imported here, on the
    # error path only: at module top it made `import mechindep, mechindep.cli`
    # take 0.41-0.53 s and 57 MB max RSS instead of 0.16-0.23 s and 30 MB
    # (2-vCPU VM), and raised every benchmark workload's peak RSS by ~21 MB.
    import scipy.linalg

    _, _, piv = scipy.linalg.qr(design, mode="economic", pivoting=True)
    return tuple(sorted(int(j) for j in piv[rank:]))


def _lstsq_full_rank(design: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Coefficients minimizing ``||design b - target||``, via SVD.

    Raises RankDeficientError, naming a deficient column subset, when the
    design is numerically rank deficient. Unlike :func:`least_squares_fit` it
    does not check ``n > m``: a design with too few rows fails on its rank.
    """
    n, m = design.shape
    rcond = max(n, m) * _EPS
    beta, _, rank, _ = np.linalg.lstsq(design, target, rcond=rcond)
    if rank < m:
        cols = _find_deficient_columns(design, rank)
        raise RankDeficientError(
            f"design matrix is rank deficient (rank {rank} < {m} columns); "
            f"dependent column subset: {list(cols)}",
            deficient_columns=cols,
        )
    return beta


def least_squares_fit(design, target) -> np.ndarray:
    """Least-squares coefficients of ``target`` on ``design``.

    Parameters
    ----------
    design : array-like, shape (n, m)
        Must have more rows than columns and full column rank.
    target : array-like, shape (n,)

    Returns
    -------
    ndarray, shape (m,)

    Raises
    ------
    RankDeficientError
        If the design is numerically rank deficient; the error reports a
        deficient column subset.
    """
    design = as_float_matrix(design, "design")
    target = as_float_vector(target, "target")
    n, m = design.shape
    if target.shape[0] != n:
        raise ValidationError(
            f"design and target disagree on sample size: {n} vs {target.shape[0]}"
        )
    if n <= m:
        raise ValidationError(f"least-squares fit needs n > m, got n={n}, m={m}")
    return _lstsq_full_rank(design, target)


class _DesignLayout(NamedTuple):
    """Columns of each model's features and targets in an environment's design."""

    psi: slice
    phi: slice
    a_col: int
    y_col: int


def _design_layout(dataset: MultiEnvDataset, psi_spec: FeatureSpec, phi_spec: FeatureSpec):
    """The layout of every environment's design ``U = [psi | phi | Y]``.

    When both specs share degree and intercept, psi is the leading columns of
    phi and is not stored twice: ``U = [phi | Y]``. ``A`` is a phi column.
    Each spec must be of its model's kind, and both feature dimensions must be
    below the smallest sample size.
    """
    if psi_spec.kind != TREATMENT:
        raise ValidationError(f"expected a treatment_psi spec, got {psi_spec.kind!r}")
    if phi_spec.kind != OUTCOME:
        raise ValidationError(f"expected an outcome_phi spec, got {phi_spec.kind!r}")
    z, z_out = psi_spec.output_dim(dataset.d), phi_spec.output_dim(dataset.d)
    if max(z, z_out) >= dataset.min_size:
        raise ValidationError(
            f"feature dimensions (z={z}, z'={z_out}) must be below the smallest "
            f"environment sample size ({dataset.min_size})"
        )
    shared = (psi_spec.degree, psi_spec.include_intercept) == (
        phi_spec.degree,
        phi_spec.include_intercept,
    )
    lead = 0 if shared else z
    a_col = lead + int(phi_spec.include_intercept) + dataset.d * phi_spec.degree
    return _DesignLayout(slice(z), slice(lead, lead + z_out), a_col, lead + z_out)


def _build_design(block, psi_spec: FeatureSpec, phi_spec: FeatureSpec, layout: _DesignLayout):
    """One environment's design ``U``, each feature map built once."""
    cols = [build_outcome_features(block.X, block.A, phi_spec), block.Y[:, None]]
    if layout.phi.start:
        cols.insert(0, build_treatment_features(block.X, psi_spec))
    return np.hstack(cols)


def _full_fit(U: np.ndarray, layout: _DesignLayout):
    """Coefficients of the treatment, then the outcome model, on one design ``U``."""
    return (
        _lstsq_full_rank(U[:, layout.psi], U[:, layout.a_col]),
        _lstsq_full_rank(U[:, layout.phi], U[:, layout.y_col]),
    )


def fit_mechanisms(
    dataset: MultiEnvDataset,
    psi_spec: FeatureSpec,
    phi_spec: FeatureSpec,
) -> MechanismEstimates:
    """Fit both working models separately in every environment.

    For each environment ``s``, the treatment coefficients regress ``A_s`` on
    ``build_treatment_features(X_s)`` and the outcome coefficients regress
    ``Y_s`` on ``build_outcome_features(X_s, A_s)``. Only coefficients are kept.

    Raises
    ------
    ValidationError
        If a feature dimension reaches the smallest environment sample size.
    RankDeficientError
        Propagated from a singular per-environment design.
    """
    layout = _design_layout(dataset, psi_spec, phi_spec)
    omegas = np.empty((dataset.n_envs, layout.psi.stop))
    gammas = np.empty((dataset.n_envs, layout.phi.stop - layout.phi.start))
    for s, block in enumerate(dataset.blocks):
        U = _build_design(block, psi_spec, phi_spec, layout)
        omegas[s], gammas[s] = _full_fit(U, layout)
    return MechanismEstimates(omegas, gammas, dataset.env_ids)
