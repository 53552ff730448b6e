"""Synthetic data generators and analytical oracles.

Two generators are provided. The linear-example generator produces a single
covariate, a treatment that is linear in the covariate and in an unmeasured
Gaussian variable ``U``, and an outcome with main and interaction effects of
the treatment plus confounding through ``U``; any named parameter can be
redrawn uniformly per environment. The polynomial generator produces
``d``-dimensional Gaussian covariates with per-environment means, treatment
and outcome that are linear in a per-coordinate polynomial basis, and an
optional additive unmeasured confounder.

For the confounded linear example (``alpha_u != 0``) the population
regression coefficients of the well-specified working models are available
in closed form, which gives an exact oracle for the estimation stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .dataset import EnvironmentBlock, MultiEnvDataset
from .errors import ValidationError
from .features import build_treatment_features, treatment_spec

# Parameter names that may be redrawn per environment in the linear example,
# per the uniform-overrule convention.
VARYING_PARAMETER_NAMES = (
    "alpha0",
    "alpha_x",
    "alpha_u",
    "beta0",
    "beta_x",
    "beta_a",
    "beta_ax",
    "beta_u",
    "beta_au",
    "mu_x",
    "mu_u",
)

# The linear example's reference setting of the varying parameters other than
# the confounder path coefficients, which are config fields.
_LINEAR_REFERENCE = {
    "alpha0": 0.5, "alpha_x": 1.0 / 3.0, "beta0": 0.5, "beta_x": 1.0 / 3.0,
    "beta_a": 0.5, "beta_ax": 1.0 / 3.0, "mu_x": 1.0, "mu_u": 1.0,
}

# Fixed constants of the linear example: covariate and confounder standard
# deviation, noise variance of treatment and outcome, the range a varied
# parameter is redrawn from, and the confounder path coefficient.
_LINEAR_SIGMA = 1.0
_LINEAR_NOISE_VAR = 0.125
_VARYING_RANGE = (0.1, 3.0)
_CONFOUNDING_STRENGTH = 0.25

# Fixed constants of the polynomial generator, also used by the
# semi-synthetic pipeline for its noise.
_COVARIATE_DIAG = 2.0
_COVARIATE_OFFDIAG = 0.1
_ENV_MEAN_STD = 0.5  # prior variance 1/4
_CONFOUNDER_STD = math.sqrt(2.0)
_NOISE_STD = 0.5


@dataclass(frozen=True)
class GroundTruth:
    """Labels that travel with a generated dataset so experiment harnesses can
    score falsification rates without re-deriving the truth."""

    confounded: bool
    env_params: tuple[dict, ...] = ()


@dataclass(frozen=True)
class LinearExampleConfig:
    """Parameterization of the linear-example generator.

    The reference setting is fixed: treatment coefficients ``[1/2, 1/3]``,
    outcome coefficients ``[1/2, 1/3, 1/2, 1/3]``, unit covariate and
    confounder means, unit covariate and confounder variance, and both noise
    variances ``1/8``. The confounder path coefficients (``alpha_u``,
    ``beta_u``, ``beta_au``) are ``1/4`` when confounding is on and 0
    otherwise; use :meth:`confounded`.

    Every name in ``varying`` is redrawn per environment, uniformly from
    [0.1, 3.0].
    """

    n_envs: int
    n_per_env: int
    alpha_u: float = 0.0
    beta_u: float = 0.0
    beta_au: float = 0.0
    varying: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.n_envs < 2:
            raise ValidationError(f"need at least 2 environments, got {self.n_envs}")
        if self.n_per_env < 1:
            raise ValidationError(f"need at least 1 sample, got {self.n_per_env}")
        varying = frozenset(self.varying)
        unknown = varying - set(VARYING_PARAMETER_NAMES)
        if unknown:
            raise ValidationError(
                f"unknown varying parameter names: {sorted(unknown)}; "
                f"allowed: {list(VARYING_PARAMETER_NAMES)}"
            )
        object.__setattr__(self, "varying", varying)

    def confounded(self) -> "LinearExampleConfig":
        """Copy with the confounder path coefficients set to 1/4."""
        s = _CONFOUNDING_STRENGTH
        return replace(self, alpha_u=s, beta_u=s, beta_au=s)


def _is_confounded(params: dict) -> bool:
    return params["alpha_u"] != 0.0 and (
        params["beta_u"] != 0.0 or params["beta_au"] != 0.0
    )


def generate_linear_example(
    config: LinearExampleConfig, rng: np.random.Generator
) -> tuple[MultiEnvDataset, GroundTruth]:
    """Draw a multi-environment dataset from the linear-example process.

    Per environment, the varied parameters are redrawn first (in sorted name
    order), then the covariate, the unmeasured variable, and the two noise
    vectors, in that order, so output is reproducible from the stream state.
    """
    base = dict(_LINEAR_REFERENCE, alpha_u=config.alpha_u, beta_u=config.beta_u,
                beta_au=config.beta_au)
    lo, hi = _VARYING_RANGE
    blocks = []
    env_params = []
    for s in range(config.n_envs):
        params = dict(base)
        for name in sorted(config.varying):
            params[name] = float(rng.uniform(lo, hi))
        n = config.n_per_env
        X = rng.normal(params["mu_x"], _LINEAR_SIGMA, size=n)
        U = rng.normal(params["mu_u"], _LINEAR_SIGMA, size=n)
        eps_a = rng.normal(0.0, math.sqrt(_LINEAR_NOISE_VAR), size=n)
        eps_y = rng.normal(0.0, math.sqrt(_LINEAR_NOISE_VAR), size=n)
        A = params["alpha0"] + params["alpha_x"] * X + params["alpha_u"] * U + eps_a
        Y = (
            params["beta0"]
            + params["beta_x"] * X
            + params["beta_a"] * A
            + params["beta_ax"] * A * X
            + (params["beta_u"] + A * params["beta_au"]) * U
            + eps_y
        )
        blocks.append(EnvironmentBlock(f"env{s}", X[:, None], A, Y))
        env_params.append(params)
    confounded = all(_is_confounded(p) for p in env_params)
    return MultiEnvDataset(tuple(blocks)), GroundTruth(confounded, tuple(env_params))


@dataclass(frozen=True)
class PolynomialConfig:
    """Parameterization of the polynomial-basis generator.

    Covariates are Gaussian with a per-environment mean (prior variance 1/4
    per coordinate) and a fixed covariance with diagonal 2 and off-diagonal
    0.1, scaled by ``1/sqrt(d)``. Treatment slopes are drawn once, uniformly
    from {-1, +1}; outcome slopes (including the treatment coefficient) are
    1. Intercepts are standard normal and redrawn per environment; redrawing
    the outcome intercept (which breaks transportability) can be switched off
    with ``resample_beta_intercept=False``, fixing it at 1. Treatment and
    outcome noise is Gaussian with standard deviation 1/2. The optional
    confounder is Gaussian with variance 2 around a per-environment standard
    normal mean and is added to the treatment before the outcome is generated
    from the observed treatment, then added to the outcome. These scales are
    fixed.
    """

    n_envs: int
    n_per_env: int
    n_covariates: int = 1
    degree: int = 1
    confounded: bool = False
    resample_beta_intercept: bool = True

    def __post_init__(self):
        if self.n_envs < 2:
            raise ValidationError(f"need at least 2 environments, got {self.n_envs}")
        if self.n_per_env < 1:
            raise ValidationError(f"need at least 1 sample, got {self.n_per_env}")
        if self.n_covariates < 1:
            raise ValidationError(f"need d >= 1, got {self.n_covariates}")
        if self.degree < 1:
            raise ValidationError(f"need degree >= 1, got {self.degree}")


def _covariate_cholesky(d: int) -> np.ndarray:
    cov = np.full((d, d), _COVARIATE_OFFDIAG)
    np.fill_diagonal(cov, _COVARIATE_DIAG)
    return np.linalg.cholesky(cov / math.sqrt(d))


def generate_polynomial(
    config: PolynomialConfig, rng: np.random.Generator
) -> tuple[MultiEnvDataset, GroundTruth]:
    """Draw a multi-environment dataset from the polynomial-basis process.

    Draw order: treatment slopes once; then per environment the treatment
    intercept, the outcome intercept (when resampled), the covariate mean,
    the covariates, treatment noise, the confounder mean and draws (when
    confounded), and outcome noise.
    """
    d, p, n = config.n_covariates, config.degree, config.n_per_env
    slope_alpha = rng.choice(np.array([-1.0, 1.0]), size=d * p)
    slope_beta = np.ones(d * p)
    chol = _covariate_cholesky(d)
    power_spec = treatment_spec(degree=p, include_intercept=False)
    blocks = []
    env_params = []
    for s in range(config.n_envs):
        alpha0 = float(rng.normal(0.0, 1.0))
        beta0 = float(rng.normal(0.0, 1.0)) if config.resample_beta_intercept else 1.0
        mu_x = rng.normal(0.0, _ENV_MEAN_STD, size=d)
        X = mu_x + rng.standard_normal((n, d)) @ chol.T
        powers = build_treatment_features(X, power_spec)
        A = alpha0 + powers @ slope_alpha + rng.normal(0.0, _NOISE_STD, size=n)
        record = {"alpha0": alpha0, "beta0": beta0}
        if config.confounded:
            mu_u = float(rng.normal(0.0, 1.0))
            U = rng.normal(mu_u, _CONFOUNDER_STD, size=n)
            A = A + U
            record["mu_u"] = mu_u
        Y = beta0 + powers @ slope_beta + A + rng.normal(0.0, _NOISE_STD, size=n)
        if config.confounded:
            Y = Y + U
        blocks.append(EnvironmentBlock(f"env{s}", X, A, Y))
        env_params.append(record)
    return MultiEnvDataset(tuple(blocks)), GroundTruth(config.confounded, tuple(env_params))


@dataclass(frozen=True)
class OracleParams:
    """Per-environment parameters entering the closed-form oracles."""

    alpha0: float
    alpha_x: float
    alpha_u: float
    mu_u: float
    sigma_u: float
    sigma_a: float  # treatment noise standard deviation
    beta: tuple[float, float, float, float]  # (beta0, beta_x, beta_a, beta_ax)
    beta_u: float
    beta_au: float

    def __post_init__(self):
        if self.sigma_u <= 0 or self.sigma_a <= 0:
            raise ValidationError("sigma_u and sigma_a must be > 0")
        if len(self.beta) != 4:
            raise ValidationError(f"beta must have 4 entries, got {len(self.beta)}")
        object.__setattr__(self, "beta", tuple(float(b) for b in self.beta))


def oracle_params_from_env(config: LinearExampleConfig, params: dict) -> OracleParams:
    """Build oracle parameters from one environment's drawn parameter dict.

    ``config`` is the generating config; the confounder and treatment-noise
    scales the oracle needs are fixed constants of the linear example.
    """
    return OracleParams(
        alpha0=params["alpha0"],
        alpha_x=params["alpha_x"],
        alpha_u=params["alpha_u"],
        mu_u=params["mu_u"],
        sigma_u=_LINEAR_SIGMA,
        sigma_a=math.sqrt(_LINEAR_NOISE_VAR),
        beta=(params["beta0"], params["beta_x"], params["beta_a"], params["beta_ax"]),
        beta_u=params["beta_u"],
        beta_au=params["beta_au"],
    )


def lemma1_closed_form(params: OracleParams) -> tuple[np.ndarray, np.ndarray]:
    """Population working-model coefficients under the confounded linear example.

    Returns ``(omega, gamma)`` for the treatment model on ``[1, X]`` and the
    outcome model on ``[1, X, A, AX, A^2]``. Requires ``alpha_u != 0``: the
    formula divides by it.
    """
    if params.alpha_u == 0.0:
        raise ValidationError("alpha_u must be nonzero: the closed form divides by it")
    a0, ax, au = params.alpha0, params.alpha_x, params.alpha_u
    su2 = params.sigma_u**2
    ratio2 = (params.sigma_a / au) ** 2
    delta = 1.0 / (su2 + ratio2)
    shared = a0 * su2 / au - params.mu_u * ratio2
    correction = delta * np.array(
        [
            -params.beta_u * shared,
            -params.beta_u * ax * su2 / au,
            params.beta_u * su2 / au - params.beta_au * shared,
            -params.beta_au * ax * su2 / au,
            params.beta_au * su2 / au,
        ]
    )
    omega = np.array([a0 + au * params.mu_u, ax])
    gamma = np.array([*params.beta, 0.0]) + correction
    return omega, gamma
