import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special

from mechindep import (
    ValidationError,
    chi2_survival,
    combine_fisher,
    combine_tippett,
    f_critical_value,
    f_survival,
)


def f_density(x, d1, d2):
    log_pdf = (
        0.5 * d1 * math.log(d1 / d2)
        + (0.5 * d1 - 1.0) * math.log(x)
        - 0.5 * (d1 + d2) * math.log(1.0 + d1 * x / d2)
        - scipy.special.betaln(0.5 * d1, 0.5 * d2)
    )
    return math.exp(log_pdf)


def chi2_density(x, k):
    log_pdf = (0.5 * k - 1.0) * math.log(x) - 0.5 * x - scipy.special.gammaln(0.5 * k) - 0.5 * k * math.log(2.0)
    return math.exp(log_pdf)


class TestFSurvival:
    def test_zero_statistic(self):
        assert f_survival(0.0, 3, 7) == 1.0

    def test_symmetry_at_one(self):
        for k in (1, 2, 5, 20):
            assert f_survival(1.0, k, k) == pytest.approx(0.5, abs=1e-10)

    def test_against_quadrature(self):
        # Lower-tail mass by adaptive quadrature is an independent oracle.
        cdf, _ = scipy.integrate.quad(f_density, 0, 4.0, args=(2, 10))
        assert f_survival(4.0, 2, 10) == pytest.approx(1.0 - cdf, abs=1e-6)

    def test_matches_scipy_high_accuracy(self):
        for F in (0.1, 0.5, 1.0, 2.5, 7.0, 30.0):
            for d1, d2 in ((1, 1), (2, 10), (5, 5), (10, 3), (7, 20), (40, 100)):
                ref = float(scipy.special.betainc(d2 / 2, d1 / 2, d2 / (d2 + d1 * F)))
                assert f_survival(F, d1, d2) == pytest.approx(ref, abs=1e-10)

    def test_large_degrees_of_freedom(self):
        # Pooled transportability tests reach dof in the thousands.
        for F in (0.8, 1.0, 1.2):
            mine = f_survival(F, 147, 4850)
            ref = float(scipy.special.betainc(4850 / 2, 147 / 2, 4850 / (4850 + 147 * F)))
            assert mine == pytest.approx(ref, abs=1e-10)

    def test_monotone_in_statistic(self):
        grid = np.linspace(0.0, 20.0, 41)
        values = [f_survival(x, 4, 9) for x in grid]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            f_survival(-0.5, 2, 2)

    def test_critical_value_round_trip(self):
        # Relative to alpha: inverting at 1 - alpha (fdtri) loses the small
        # alphas, ~5e-9 relative at 1e-8 and ~2e-5 at 1e-12.
        for alpha in (1e-12, 1e-8, 0.01, 0.05, 0.2):
            for d1, d2 in ((3, 10), (20, 200)):
                crit = f_critical_value(alpha, d1, d2)
                assert f_survival(crit, d1, d2) == pytest.approx(alpha, rel=1e-9, abs=0.0)

    def test_invalid_arguments_rejected(self):
        for call in (
            lambda: f_survival(1.0, 0, 5),
            lambda: f_critical_value(0.0, 2, 5),
            lambda: f_critical_value(1.0, 2, 5),
            lambda: f_critical_value(0.05, 2, 0),
            lambda: chi2_survival(-1.0, 3),
            lambda: chi2_survival(1.0, 0),
        ):
            with pytest.raises(ValidationError):
                call()


class TestChi2Survival:
    def test_zero(self):
        assert chi2_survival(0.0, 4) == 1.0

    def test_tail_limit(self):
        assert chi2_survival(1e6, 4) == pytest.approx(0.0, abs=1e-12)

    def test_exponential_closed_form(self):
        # k=2 reduces to exp(-x/2).
        assert chi2_survival(2.0, 2) == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_against_quadrature(self):
        cdf, _ = scipy.integrate.quad(chi2_density, 0, 5.0, args=(3,))
        assert chi2_survival(5.0, 3) == pytest.approx(1.0 - cdf, abs=1e-6)

    def test_matches_scipy_high_accuracy(self):
        for x in (0.01, 0.5, 1.0, 3.0, 10.0, 80.0):
            for k in (1, 2, 3, 10, 50, 200):
                assert chi2_survival(x, k) == pytest.approx(
                    float(scipy.special.gammaincc(k / 2, x / 2)), abs=1e-10
                )

    def test_monotone_in_statistic(self):
        grid = np.linspace(0.0, 30.0, 61)
        values = [chi2_survival(x, 6) for x in grid]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestCombiners:
    def test_fisher_all_ones(self):
        assert combine_fisher((1.0, 1.0, 1.0)) == pytest.approx(1.0, abs=1e-12)

    def test_fisher_single_value_is_identity(self):
        assert combine_fisher((0.1,)) == pytest.approx(0.1, abs=1e-10)

    def test_fisher_two_values_chi2_oracle(self):
        stat = -2.0 * (math.log(0.05) + math.log(0.05))
        assert stat == pytest.approx(11.9829, abs=1e-4)
        # k=4 closed form: (1 + x/2) * exp(-x/2)
        expected = (1.0 + stat / 2.0) * math.exp(-stat / 2.0)
        assert combine_fisher([0.05, 0.05]) == pytest.approx(expected, abs=1e-12)

    def test_fisher_rejects_zero(self):
        with pytest.raises(ValidationError):
            combine_fisher([0.0, 0.5])

    def test_tippett_examples(self):
        assert combine_tippett([0.5, 0.5]) == pytest.approx(0.75, abs=1e-15)
        # Closed form 1 - (1 - min p)^k: all p = 1 carries no evidence,
        # so the combined p-value is 1.
        assert combine_tippett([1.0, 1.0, 1.0]) == 1.0
        assert combine_tippett([0.01]) == pytest.approx(0.01, abs=1e-15)

    def test_tippett_range_and_monotonicity(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            p = rng.uniform(0.0, 1.0, size=rng.integers(1, 6))
            out = combine_tippett(p)
            assert 0.0 <= out <= 1.0
            bumped = np.minimum(p + rng.uniform(0.0, 1.0 - p.max() if p.max() < 1 else 0.0), 1.0)
            assert combine_tippett(bumped) >= out - 1e-12
