import pytest
from mpmath import mp, mpf

from exact import exact
from zkconst import xi
from zkconst.chain import table
from zkconst.li_keiper import binomial_alternating_transform, lambda_table
from zkconst.precision import extra_digits
from zkconst.stieltjes import Binary, ConstantTable
from zkconst.xi import xi_deriv_recurrence, xi_table


@pytest.fixture(scope="module")
def sigmas(ctx30):
    """sigma_1..sigma_12, the most the xi1 family's cap of 12 allows."""
    return table("sigma", 12, ctx30)


@pytest.fixture(scope="module")
def xi_bell(ctx30, sigmas):
    return xi_table(sigmas)


class TestBellRoute:
    def test_first_derivative_is_half_sigma1(self, ctx30, chain30, sigmas, xi_bell):
        with mp.workdps(60):
            assert abs(exact(xi_bell[1]) - exact(sigmas[1]) / 2) < mpf("1e-35")
            assert abs(exact(xi_bell[1]) - exact(chain30["lambdas"][1]) / 2) < mpf(10) ** (
                -(ctx30.digits - 5)
            )

    def test_second_derivative_lambda_expansion(self, ctx30, chain30, xi_bell):
        lam = chain30["lambdas"]
        with mp.workdps(60):
            l1, l2 = exact(lam[1]), exact(lam[2])
            expected = (l1**2 + l2 - 2 * l1) / 2
            assert abs(exact(xi_bell[2]) - expected) < mpf(10) ** (-(ctx30.digits - 5))

    def test_third_derivative_lambda_expansion(self, ctx30, chain30, xi_bell):
        lam = chain30["lambdas"]
        with mp.workdps(60):
            l1, l2, l3 = exact(lam[1]), exact(lam[2]), exact(lam[3])
            expected = (l1**3 + 3 * l1 * (l2 - 2 * l1) + 6 * l1 - 6 * l2 + 2 * l3) / 2
            assert abs(exact(xi_bell[3]) - expected) < mpf(10) ** (-(ctx30.digits - 5))

    def test_positivity(self, xi_bell):
        for n in range(1, 11):
            assert exact(xi_bell[n]) > 0, f"xi^({n})(1)"

    def test_implication_arithmetic(self, ctx30, chain30, xi_bell):
        # 2 xi''(1) = lambda_2 - lambda_1 (2 - lambda_1), the bridge from
        # second-derivative positivity to the lambda_2 lower bound
        lam = chain30["lambdas"]
        with mp.workdps(60):
            l1, l2 = exact(lam[1]), exact(lam[2])
            assert abs(2 * exact(xi_bell[2]) - (l2 - l1 * (2 - l1))) < mpf(10) ** (
                -(ctx30.digits - 5)
            )
            assert l2 > l1 * (2 - l1)
            assert l2 > l1

    def test_bad_inputs(self, ctx30, chain30):
        with pytest.raises(ValueError, match="sigma table, got eta"):
            xi_table(chain30["etas"])

    @pytest.mark.parametrize("route", [xi_table, xi_deriv_recurrence])
    def test_sigma_table_past_the_cap_rejected(self, route, ctx30, monkeypatch):
        # no route vouches for xi^(n)(1) past the xi1 cap of 12, and the
        # cap is checked before any entry: no working precision is set and
        # no Bell recurrence runs
        def computed(*args):
            raise AssertionError("an entry was computed past the cap")

        sigmas = table("sigma", 20, ctx30)
        monkeypatch.setattr(xi, "bell_recurrence_values", computed)
        monkeypatch.setattr(xi, "workdps", computed)
        with pytest.raises(ValueError, match=r"last index of a xi1 table must lie in \[1, 12\]"):
            route(sigmas)


class TestRecurrenceRoute:
    def test_matches_bell_route(self, ctx30, sigmas, xi_bell):
        rec = xi_deriv_recurrence(sigmas)
        tol = mpf(10) ** (-(ctx30.digits - 5))
        with mp.workdps(60):
            for n in range(1, 9):
                assert abs(exact(rec[n]) - exact(xi_bell[n])) < tol, f"n={n}"

    def test_n2_entry_matches_lambda_form(self, ctx30, chain30, sigmas):
        rec = xi_deriv_recurrence(sigmas)
        lam = chain30["lambdas"]
        with mp.workdps(60):
            l1, l2 = exact(lam[1]), exact(lam[2])
            expected = l2 / 2 - l1 + l1**2 / 2
            assert abs(exact(rec[2]) - expected) < mpf(10) ** (-(ctx30.digits - 5))

    def test_all_entries_positive(self, ctx30, sigmas):
        rec = xi_deriv_recurrence(sigmas)
        assert rec.max_n == sigmas.max_n
        for n in range(1, 11):
            assert exact(rec[n]) > 0

    def test_insufficient_sigmas(self, ctx30, chain30):
        # the map reads every entry of its table, so only a table of another
        # kind, which holds no sigma_n at all, falls short
        with pytest.raises(ValueError, match="sigma table, got lambda"):
            xi_deriv_recurrence(chain30["lambdas"])



def test_user_mpf_sigmas_map_as_their_binaries_do(ctx30):
    # README's way in: a sigma table of mpf values a user typed, and the
    # same values as exact Binary, give the same lambda and xi tables bit
    # for bit, and the lambda table is its formula taken in mpf arithmetic
    with mp.workdps(ctx30.working_dps):
        typed = [mpf("0.0230957") / k for k in range(1, 13)]
    mine = ConstantTable.of("sigma", typed, "typed", ctx30)
    exact = ConstantTable.of("sigma", [Binary.of(v) for v in typed], "typed", ctx30)
    for step in (lambda_table, xi_table):
        assert [v._mpf_ for v in step(mine).values] == [
            v._mpf_ for v in step(exact).values], step.__name__
    with mp.workdps(ctx30.working_dps + extra_digits("step")):
        want = [-t for t in binomial_alternating_transform([0, *typed])[1:]]
    assert [v._mpf_ for v in lambda_table(mine).values] == [v._mpf_ for v in want]
