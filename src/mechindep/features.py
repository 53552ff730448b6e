"""Design matrices for the treatment and outcome working models.

Both working models are linear in a fixed polynomial feature basis. The
treatment basis is built from covariates only; the outcome basis appends the
treatment column and, optionally, treatment-covariate interactions and a
squared-treatment column.

Column order is fixed so coefficient positions are stable everywhere:

* treatment: ``[1 | X_1..X_d | X_1^2..X_d^2 | ... | X_1^p..X_d^p]``
* outcome:   ``[treatment columns | A | A*X_1..A*X_d (optional) | A^2 (optional)]``

Powers are per coordinate; no cross-covariate products are generated. Each
degree is one scalar-exponent ``np.power``: squares are the correctly rounded
``X * X``, higher powers one C ``pow`` per entry (no running product, whose
rounding errors reach several ulp by degree 10).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import as_float_matrix, as_float_vector
from .errors import ValidationError

TREATMENT = "treatment_psi"
OUTCOME = "outcome_phi"


@dataclass(frozen=True)
class FeatureSpec:
    """Declarative description of a polynomial feature map.

    Parameters
    ----------
    kind : {"treatment_psi", "outcome_phi"}
        Which working model the map feeds. Treatment maps never reference
        the treatment variable, so the interaction/square flags are only
        legal on outcome maps.
    degree : int
        Highest per-coordinate covariate power, >= 1.
    include_intercept : bool
        Prepend a constant column. The intercept is an ordinary feature
        column, never special-cased by the solver.
    include_treatment_interactions : bool
        Outcome maps only: append ``A*X_j`` columns.
    include_treatment_square : bool
        Outcome maps only: append an ``A^2`` column.
    """

    kind: str
    degree: int = 1
    include_intercept: bool = True
    include_treatment_interactions: bool = False
    include_treatment_square: bool = False

    def __post_init__(self):
        if self.kind not in (TREATMENT, OUTCOME):
            raise ValidationError(f"unknown feature kind {self.kind!r}")
        if self.degree < 1:
            raise ValidationError(f"degree must be >= 1, got {self.degree}")
        if self.kind == TREATMENT and (
            self.include_treatment_interactions or self.include_treatment_square
        ):
            raise ValidationError("treatment feature maps cannot reference A")

    def output_dim(self, d: int) -> int:
        """Number of feature columns produced for covariate dimension ``d``."""
        if d < 1:
            raise ValidationError(f"covariate dimension must be >= 1, got {d}")
        z = int(self.include_intercept) + d * self.degree
        if self.kind == OUTCOME:
            z += 1  # the A column is always present
            if self.include_treatment_interactions:
                z += d
            if self.include_treatment_square:
                z += 1
        return z


def treatment_spec(degree: int = 1, include_intercept: bool = True) -> FeatureSpec:
    """Convenience constructor for a treatment feature map."""
    return FeatureSpec(TREATMENT, degree=degree, include_intercept=include_intercept)


def outcome_spec(
    degree: int = 1,
    include_intercept: bool = True,
    interactions: bool = False,
    square: bool = False,
) -> FeatureSpec:
    """Convenience constructor for an outcome feature map."""
    return FeatureSpec(
        OUTCOME,
        degree=degree,
        include_intercept=include_intercept,
        include_treatment_interactions=interactions,
        include_treatment_square=square,
    )


def _power_block(X: np.ndarray, degree: int) -> np.ndarray:
    # (n, degree*d): X^1 columns, then X^2 columns, ..., then X^degree.
    n, d = X.shape
    block = np.empty((n, degree, d))
    for k in range(1, degree + 1):
        np.power(X, float(k), out=block[:, k - 1])
    return block.reshape(n, degree * d)


def build_treatment_features(X, spec: FeatureSpec) -> np.ndarray:
    """Expand covariates into the treatment working-model design matrix.

    Parameters
    ----------
    X : array-like, shape (n, d)
        Covariates; must be non-empty and finite.
    spec : FeatureSpec
        Must have ``kind == "treatment_psi"``.

    Returns
    -------
    ndarray, shape (n, z)
        ``z = include_intercept + d * degree`` columns in the documented order.
    """
    if spec.kind != TREATMENT:
        raise ValidationError(f"expected a treatment_psi spec, got {spec.kind!r}")
    X = as_float_matrix(X, "X")
    if X.shape[0] < 1 or X.shape[1] < 1:
        raise ValidationError(f"X must be non-empty, got shape {X.shape}")
    cols = [_power_block(X, spec.degree)]
    if spec.include_intercept:
        cols.insert(0, np.ones((X.shape[0], 1)))
    return np.hstack(cols)


def build_outcome_features(X, A, spec: FeatureSpec) -> np.ndarray:
    """Expand covariates and treatment into the outcome design matrix.

    Column order: intercept (optional), covariate powers as in
    :func:`build_treatment_features`, the treatment column ``A``, then
    ``A*X_j`` interactions and ``A^2`` when the spec enables them.
    """
    if spec.kind != OUTCOME:
        raise ValidationError(f"expected an outcome_phi spec, got {spec.kind!r}")
    X = as_float_matrix(X, "X")
    A = as_float_vector(A, "A")
    if X.shape[0] < 1 or X.shape[1] < 1:
        raise ValidationError(f"X must be non-empty, got shape {X.shape}")
    if A.shape[0] != X.shape[0]:
        raise ValidationError(
            f"X and A disagree on sample size: {X.shape[0]} vs {A.shape[0]}"
        )
    cols = [_power_block(X, spec.degree), A[:, None]]
    if spec.include_intercept:
        cols.insert(0, np.ones((X.shape[0], 1)))
    if spec.include_treatment_interactions:
        cols.append(A[:, None] * X)
    if spec.include_treatment_square:
        cols.append((A**2)[:, None])
    return np.hstack(cols)
