"""Distribution tails behind the analytic tests, as thin ``scipy.special`` wrappers.

The resampling tests need no special functions. Only the transportability
F-test and the Fisher p-value combiner do: the F and chi-square survival
functions and the F critical value. The wrappers add argument checks that
raise :class:`ValidationError`.

The critical value inverts the regularized incomplete beta function,
``x = betaincinv(d2/2, d1/2, alpha)`` and ``t = (d2/d1) (1/x - 1)``, rather
than calling ``fdtri(d1, d2, 1 - alpha)``: forming ``1 - alpha`` loses the
relative accuracy of a small alpha (round-trip error ~5e-9 at alpha = 1e-8),
while the beta form stays near 1e-13.
"""

from __future__ import annotations

from .dataset import check_alpha
from .errors import ValidationError

# Each wrapper imports scipy.special itself: the import adds ~24 MB of
# resident memory and 0.2-0.3 s, which the resampling tests never need.


def _check_dof(*dofs: int) -> None:
    if min(dofs) < 1:
        raise ValidationError(f"degrees of freedom must be positive, got {dofs}")


def f_survival(F: float, d1: int, d2: int) -> float:
    """Upper-tail probability of the F(d1, d2) distribution at ``F``."""
    _check_dof(d1, d2)
    if F < 0:
        raise ValidationError(f"F statistic must be >= 0, got {F}")
    from scipy.special import fdtrc

    return float(fdtrc(d1, d2, F))


def f_critical_value(alpha: float, d1: int, d2: int) -> float:
    """Value t with ``f_survival(t, d1, d2) == alpha``."""
    check_alpha(alpha)
    _check_dof(d1, d2)
    from scipy.special import betaincinv

    x = float(betaincinv(d2 / 2.0, d1 / 2.0, alpha))
    return (d2 / d1) * (1.0 / x - 1.0)


def chi2_survival(x: float, k: int) -> float:
    """Upper-tail probability of the chi-square distribution with ``k`` dof."""
    _check_dof(k)
    if x < 0:
        raise ValidationError(f"chi-square statistic must be >= 0, got {x}")
    from scipy.special import chdtrc

    return float(chdtrc(k, x))
