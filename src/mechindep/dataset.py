"""Containers for multi-environment observational data.

A dataset is an ordered collection of environment blocks, each holding a
covariate matrix ``X`` (n_s rows, d columns), a continuous treatment vector
``A`` and a continuous outcome vector ``Y``. Blocks share the covariate
dimension ``d`` but may differ in sample size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def is_real(value) -> bool:
    """True for an int or float scalar (Python or NumPy) that is not a bool."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def check_alpha(alpha) -> None:
    """Raise ValidationError unless the level ``alpha`` is a real number in (0, 1)."""
    if not is_real(alpha):
        raise ValidationError(f"alpha must be a real number, got {alpha!r}")
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must lie in (0, 1), got {alpha}")


def as_float_matrix(x, name: str) -> np.ndarray:
    """Coerce to a finite 2-d float array, raising ValidationError otherwise."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 2:
        raise ValidationError(f"{name} must be a 2-d array, got ndim={arr.ndim}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    return arr


def as_float_vector(x, name: str) -> np.ndarray:
    """Coerce to a finite 1-d float array, raising ValidationError otherwise."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be a 1-d array, got ndim={arr.ndim}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    return arr


def _check_environments(ids: list, dims: list) -> None:
    """At least two environments, one covariate dimension ``d`` and distinct ids."""
    if len(ids) < 2:
        raise ValidationError(f"need at least 2 environments, got {len(ids)}")
    for env_id, d in zip(ids[1:], dims[1:]):
        if d != dims[0]:
            raise ValidationError(f"environment {env_id!r} has d={d}, expected {dims[0]}")
    if len(set(ids)) != len(ids):
        raise ValidationError(f"environment ids are not distinct: {ids}")


@dataclass(frozen=True)
class EnvironmentBlock:
    """Observations collected from a single environment.

    Parameters
    ----------
    env_id : str
        Opaque environment label; must be unique within a dataset.
    X : ndarray, shape (n, d)
        Covariates.
    A : ndarray, shape (n,)
        Continuous treatment.
    Y : ndarray, shape (n,)
        Continuous outcome.
    """

    env_id: str
    X: np.ndarray
    A: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        X = as_float_matrix(self.X, f"X[{self.env_id}]")
        A = as_float_vector(self.A, f"A[{self.env_id}]")
        Y = as_float_vector(self.Y, f"Y[{self.env_id}]")
        n = X.shape[0]
        if n < 1:
            raise ValidationError(f"environment {self.env_id!r} is empty")
        if A.shape[0] != n or Y.shape[0] != n:
            raise ValidationError(
                f"environment {self.env_id!r}: row counts differ "
                f"(X: {n}, A: {A.shape[0]}, Y: {Y.shape[0]})"
            )
        object.__setattr__(self, "X", _readonly(np.array(X)))
        object.__setattr__(self, "A", _readonly(np.array(A)))
        object.__setattr__(self, "Y", _readonly(np.array(Y)))

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class MultiEnvDataset:
    """Immutable ordered collection of environment blocks with shared ``d``.

    At least two environments are required; environment labels must be
    distinct.
    """

    blocks: tuple[EnvironmentBlock, ...]

    def __post_init__(self):
        blocks = tuple(self.blocks)
        _check_environments([b.env_id for b in blocks], [b.d for b in blocks])
        object.__setattr__(self, "blocks", blocks)

    @property
    def n_envs(self) -> int:
        return len(self.blocks)

    @property
    def d(self) -> int:
        return self.blocks[0].d

    @property
    def env_ids(self) -> tuple[str, ...]:
        return tuple(b.env_id for b in self.blocks)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(b.n for b in self.blocks)

    @property
    def min_size(self) -> int:
        return min(self.sizes)


@dataclass(frozen=True)
class CovariatePanel:
    """Covariate-only blocks (no treatment/outcome), used to seed the
    semi-synthetic pipeline from a real covariate file."""

    blocks: tuple[tuple[str, np.ndarray], ...]

    def __post_init__(self):
        blocks = []
        for env_id, X in self.blocks:
            X = as_float_matrix(X, f"X[{env_id}]")
            if X.shape[0] < 1:
                raise ValidationError(f"environment {env_id!r} is empty")
            blocks.append((env_id, _readonly(np.array(X))))
        _check_environments([env_id for env_id, _ in blocks], [X.shape[1] for _, X in blocks])
        object.__setattr__(self, "blocks", tuple(blocks))

    @property
    def d(self) -> int:
        return self.blocks[0][1].shape[1]
