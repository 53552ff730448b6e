"""Transportability-based falsification baseline and shared test utilities.

The baseline checks the testable implication that the outcome is independent
of the environment label given covariates and treatment. For a K-level label
under a Gaussian linear working model this is scored with a nested-model
partial F-test: the restricted model pools all environments, the full model
gives every environment its own coefficient vector.

Also here: the Fisher / Tippett p-value combiners.
"""

from __future__ import annotations

import math

import numpy as np

from .dataset import MultiEnvDataset, as_float_vector, check_alpha
from .errors import ValidationError
from .estimation import _lstsq_full_rank
from .features import FeatureSpec, build_outcome_features
from .mint import METHOD_TRANSPORTABILITY, TestResult
from .special import chi2_survival, f_critical_value, f_survival

_P_FLOOR = np.finfo(float).tiny  # keep reported p-values inside (0, 1]


def _p_values(p_values) -> np.ndarray:
    values = as_float_vector(p_values, "p-values")
    if not values.size:
        raise ValidationError("p-values must be non-empty")
    outside = values[(values < 0.0) | (values > 1.0)]
    if outside.size:
        raise ValidationError(f"p-values must lie in [0, 1], got {outside[0]}")
    return values


def combine_fisher(p_values) -> float:
    """Fisher combination: chi-square survival of ``-2 * sum(log p)`` on 2k dof."""
    values = _p_values(p_values)
    if any(v == 0.0 for v in values):
        raise ValidationError(
            "Fisher combination needs p-values in (0, 1]; got an exact zero "
            "(log-statistic underflows)"
        )
    stat = -2.0 * sum(math.log(v) for v in values)
    return chi2_survival(stat, 2 * len(values))


def combine_tippett(p_values) -> float:
    """Tippett combination: ``1 - (1 - min p)^k``."""
    values = _p_values(p_values)
    k = len(values)
    return float(1.0 - (1.0 - min(values)) ** k)


def _rss(design: np.ndarray, target: np.ndarray) -> float:
    """Residual sum of squares of the least-squares fit of ``target`` on ``design``."""
    resid = target - design @ _lstsq_full_rank(design, target)
    return float(resid @ resid)


def transportability_test(
    dataset: MultiEnvDataset,
    phi_spec: FeatureSpec,
    alpha: float = 0.05,
) -> TestResult:
    """Nested-model F-test of outcome-mechanism invariance across environments.

    Restricted model: the pooled outcome regressed on the outcome features.
    Full model: per-environment coefficient vectors, which decompose into
    separate fits. Rejecting indicates the conditional outcome law
    differs across environments, which falsifies unconfoundedness and
    transportability jointly.

    Returns a :class:`TestResult` with the F statistic, the critical value at
    ``alpha`` as the threshold, and the analytic p-value; ``resamples_M`` is 0
    because no resampling is involved.
    """
    check_alpha(alpha)
    K = dataset.n_envs
    feature_blocks = [build_outcome_features(b.X, b.A, phi_spec) for b in dataset.blocks]
    pooled, y = np.vstack(feature_blocks), np.concatenate([b.Y for b in dataset.blocks])
    n, z_out = pooled.shape
    df_full = K * z_out
    if n <= df_full + 1:
        raise ValidationError(
            f"pooled sample size {n} must exceed the full-model dimension "
            f"{df_full} plus one"
        )

    rss_restricted = _rss(pooled, y)
    rss_full = sum(_rss(feats, block.Y) for block, feats in zip(dataset.blocks, feature_blocks))
    delta_df = df_full - z_out
    denom_df = n - df_full
    numerator = max(rss_restricted - rss_full, 0.0) / delta_df
    denominator = rss_full / denom_df
    if denominator == 0.0:
        # Noiseless full fit: infinite evidence if pooling costs anything.
        statistic = np.inf if numerator > 0.0 else 0.0
    else:
        statistic = numerator / denominator
    p_value = max(f_survival(statistic, delta_df, denom_df), _P_FLOOR)
    threshold = f_critical_value(alpha, delta_df, denom_df)
    return TestResult(
        statistic=float(statistic),
        threshold=float(threshold),
        p_value=float(p_value),
        reject=statistic > threshold,
        alpha=alpha,
        resamples_M=0,
        seed=0,
        method=METHOD_TRANSPORTABILITY,
        null_samples=None,
    )
