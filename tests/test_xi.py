import pytest
from mpmath import mp, mpf

from zkconst.xi import (
    xi_deriv_at_one,
    xi_deriv_at_zero,
    xi_deriv_recurrence,
    xi_table,
)


@pytest.fixture(scope="module")
def xi_bell(ctx30, chain30):
    return xi_table(10, chain30["sigmas"], ctx30)


class TestBellRoute:
    def test_first_derivative_is_half_sigma1(self, ctx30, chain30, xi_bell):
        with mp.workdps(60):
            assert abs(xi_bell.mpf(1) - chain30["sigmas"].mpf(1) / 2) < mpf("1e-35")
            assert abs(xi_bell.mpf(1) - chain30["lambdas"].mpf(1) / 2) < mpf(10) ** (
                -(ctx30.digits - 5)
            )

    def test_second_derivative_lambda_expansion(self, ctx30, chain30, xi_bell):
        lam = chain30["lambdas"]
        with mp.workdps(60):
            l1, l2 = lam.mpf(1), lam.mpf(2)
            expected = (l1**2 + l2 - 2 * l1) / 2
            assert abs(xi_bell.mpf(2) - expected) < mpf(10) ** (-(ctx30.digits - 5))

    def test_third_derivative_lambda_expansion(self, ctx30, chain30, xi_bell):
        lam = chain30["lambdas"]
        with mp.workdps(60):
            l1, l2, l3 = lam.mpf(1), lam.mpf(2), lam.mpf(3)
            expected = (l1**3 + 3 * l1 * (l2 - 2 * l1) + 6 * l1 - 6 * l2 + 2 * l3) / 2
            assert abs(xi_bell.mpf(3) - expected) < mpf(10) ** (-(ctx30.digits - 5))

    def test_positivity(self, xi_bell):
        for n in range(1, 11):
            assert xi_bell.mpf(n) > 0, f"xi^({n})(1)"

    def test_implication_arithmetic(self, ctx30, chain30, xi_bell):
        # 2 xi''(1) = lambda_2 - lambda_1 (2 - lambda_1), the bridge from
        # second-derivative positivity to the lambda_2 lower bound
        lam = chain30["lambdas"]
        with mp.workdps(60):
            l1, l2 = lam.mpf(1), lam.mpf(2)
            assert abs(2 * xi_bell.mpf(2) - (l2 - l1 * (2 - l1))) < mpf(10) ** (
                -(ctx30.digits - 5)
            )
            assert l2 > l1 * (2 - l1)
            assert l2 > l1

    def test_bad_inputs(self, ctx30, chain30):
        with pytest.raises(ValueError):
            xi_deriv_at_one(0, chain30["sigmas"], ctx30)
        with pytest.raises(ValueError):
            xi_deriv_at_one(14, chain30["sigmas"], ctx30)
        with pytest.raises(ValueError):
            xi_deriv_at_one(2, chain30["etas"], ctx30)


class TestRecurrenceRoute:
    def test_matches_bell_route(self, ctx30, chain30, xi_bell):
        rec = xi_deriv_recurrence(8, chain30["sigmas"], ctx30)
        tol = mpf(10) ** (-(ctx30.digits - 5))
        with mp.workdps(60):
            for n in range(1, 9):
                assert abs(rec.mpf(n) - xi_bell.mpf(n)) < tol, f"n={n}"

    def test_n2_entry_matches_lambda_form(self, ctx30, chain30):
        rec = xi_deriv_recurrence(2, chain30["sigmas"], ctx30)
        lam = chain30["lambdas"]
        with mp.workdps(60):
            l1, l2 = lam.mpf(1), lam.mpf(2)
            expected = l2 / 2 - l1 + l1**2 / 2
            assert abs(rec.mpf(2) - expected) < mpf(10) ** (-(ctx30.digits - 5))

    def test_all_entries_positive(self, ctx30, chain30):
        rec = xi_deriv_recurrence(10, chain30["sigmas"], ctx30)
        for n in range(1, 11):
            assert rec.mpf(n) > 0

    def test_insufficient_sigmas(self, ctx30, chain30):
        with pytest.raises(ValueError):
            xi_deriv_recurrence(14, chain30["sigmas"], ctx30)


class TestReflection:
    def test_sign_bookkeeping_is_exact(self, xi_bell):
        for n in range(1, 11):
            at_zero = xi_deriv_at_zero(n, xi_bell)
            expected = xi_bell.mpf(n) if n % 2 == 0 else -xi_bell.mpf(n)
            assert at_zero == expected  # exact, not approximate

    def test_requires_xi_table(self, chain30):
        with pytest.raises(ValueError):
            xi_deriv_at_zero(1, chain30["sigmas"])
