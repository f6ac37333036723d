import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from exact import exact
from oracles import FROZEN, lambda_from_sigma_differences
from zkconst import li_keiper
from zkconst.li_keiper import (
    binomial_alternating_transform,
    g_derivs_at_one,
    g_derivs_at_one_via_eta,
    lambda_closed,
    lambda_table,
    lambda_via_coffey,
    lambda_via_eta_psi,
    positivity_report,
    recurrence_residual_3_13,
)
from zkconst.chain import table
from zkconst.precision import PrecisionContext
from zkconst.reports import default_tol
from zkconst.stieltjes import ConstantTable
from zkconst.verify import run_suite


class TestClosedForms:
    def test_lambda1_approximate_value(self, ctx30):
        lam1 = lambda_closed(1, ctx30)
        assert abs(float(lam1) - 0.023) < 5e-4
        assert mp.nstr(lam1, 20).startswith("0.0230957")

    def test_lambda1_fifty_digit_value(self):
        ctx = PrecisionContext(digits=50)
        lam1 = lambda_closed(1, ctx)
        with mp.workdps(70):
            assert abs(lam1 - mpf(FROZEN["lambda_1"])) < mpf("1e-44")

    def test_lambda2_fifty_digit_value(self):
        ctx = PrecisionContext(digits=50)
        lam2 = lambda_closed(2, ctx)
        with mp.workdps(70):
            assert abs(lam2 - mpf(FROZEN["lambda_2"])) < mpf("1e-44")

    def test_no_closed_form_elsewhere(self, ctx30):
        for bad in (0, 3, -1):
            with pytest.raises(ValueError):
                lambda_closed(bad, ctx30)


class TestSigmaRoute:
    def test_r1_is_sigma1(self, ctx30, chain30):
        lam = exact(lambda_table(chain30["sigmas"])[1])
        with mp.workdps(60):
            assert abs(lam - exact(chain30["sigmas"][1])) < mpf("1e-35")

    def test_r2_expands_to_2sigma1_minus_sigma2(self, ctx30, chain30):
        s = chain30["sigmas"]
        lam = exact(lambda_table(s)[2])
        with mp.workdps(60):
            assert abs(lam - (2 * exact(s[1]) - exact(s[2]))) < mpf("1e-35")

    def test_r2_agrees_with_closed(self, ctx30, chain30):
        lam = exact(lambda_table(chain30["sigmas"])[2])
        with mp.workdps(60):
            diff = abs(lam - lambda_closed(2, ctx30))
            assert diff < mpf(10) ** (-(ctx30.digits - 5))

    def test_bad_index_and_insufficient_table(self, ctx30, chain30):
        # the table has no index argument and maps every sigma_r it is
        # given, so only a table of another kind falls short
        assert lambda_table(chain30["sigmas"]).max_n == chain30["sigmas"].max_n
        with pytest.raises(ValueError, match="sigma table, got eta"):
            lambda_table(chain30["etas"])


class TestEtaPsiRoute:
    def test_r1_is_pure_linear_term(self, ctx30, chain30):
        lam = exact(lambda_via_eta_psi(chain30["etas"])[1])
        with mp.workdps(60):
            diff = abs(lam - exact(lambda_closed(1, ctx30)))
            assert diff < mpf(10) ** (-(ctx30.digits - 5))

    def test_r2_agrees_with_closed(self, ctx30, chain30):
        lam = exact(lambda_via_eta_psi(chain30["etas"])[2])
        with mp.workdps(60):
            diff = abs(lam - exact(lambda_closed(2, ctx30)))
            assert diff < mpf(10) ** (-(ctx30.digits - 5))

    def test_agrees_with_sigma_route_to_r10(self, ctx30, chain30):
        tol = mpf(10) ** (-(ctx30.digits - 5))
        eta_psi = lambda_via_eta_psi(chain30["etas"])
        with mp.workdps(60):
            for r in range(1, 11):
                a = exact(eta_psi[r])
                b = exact(chain30["lambdas"][r])
                assert abs(a - b) < tol, f"r={r}"

    def test_maps_eta_to_m_to_lambda_to_m_plus_1(self, ctx30, chain30):
        # eta_0 .. eta_13 gives lambda_1 .. lambda_14 under the table's
        # context; eta to the cap would give a lambda_21 past its cap
        eta_psi = lambda_via_eta_psi(chain30["etas"])
        assert (eta_psi.kind, eta_psi.max_n, eta_psi.ctx) == ("lambda", 14, ctx30)
        assert set(eta_psi.methods) == {li_keiper.LAMBDA_ETA_PSI_TAG}
        for route in (lambda_via_eta_psi, lambda_via_coffey):
            with pytest.raises(ValueError, match=r"last index of a lambda table must lie in \[1, 20\]"):
                route(table("eta", 20, ctx30))


class TestCoffeyRoute:
    def test_r3_and_r10_cross_routes(self, ctx30, chain30):
        tol = mpf(10) ** (-(ctx30.digits - 5))
        coffey, eta_psi = lambda_via_coffey(chain30["etas"]), lambda_via_eta_psi(chain30["etas"])
        with mp.workdps(60):
            for r in (2, 3, 10):
                a = exact(coffey[r])
                assert abs(a - exact(chain30["lambdas"][r])) < tol
                b = exact(eta_psi[r])
                assert abs(a - b) < tol

    def test_entry_one_is_sigma1(self, ctx30, chain30):
        # entry 1 reduces to lambda_1's one expression, which sigma_1 is
        coffey = lambda_via_coffey(chain30["etas"])
        with mp.workdps(60):
            diff = abs(exact(coffey[1]) - exact(chain30["sigmas"][1]))
            assert diff <= exact(default_tol(ctx30))

    @pytest.mark.parametrize("digits", [10, 30])
    def test_an_offset_in_the_sum_fails_verify(self, digits, monkeypatch):
        # the route off by a constant, as a wrong additive term leaves it: a
        # constant fitted to lambda_2's closed form would absorb it
        via_coffey = li_keiper.lambda_via_coffey

        def offset(etas):
            lambdas = via_coffey(etas)
            return ConstantTable("lambda", [exact(v) + 1 for v in lambdas.values],
                                 lambdas.methods, lambdas.ctx)

        monkeypatch.setattr(li_keiper, "lambda_via_coffey", offset)
        failed = {r.identity for r in run_suite("lambda", PrecisionContext(digits))
                  if not r.passed}
        assert failed == {
            "lambda-closed-vs-coffey-r2",
            *(f"lambda-{route}-vs-coffey-r{r}" for route in ("sigma", "eta-psi")
              for r in range(2, 13)),
        }


class TestGDerivatives:
    def test_particular_values(self, ctx30, chain30):
        lam = chain30["lambdas"]
        with mp.workdps(60):
            l1, l2, l3 = exact(lam[1]), exact(lam[2]), exact(lam[3])
            cases = {
                0: l1,
                1: l2 - 2 * l1,
                2: 6 * l1 - 6 * l2 + 2 * l3,
            }
            for r, expected in cases.items():
                got = exact(g_derivs_at_one(lam)[r])
                assert abs(got - expected) < mpf("1e-35"), f"r={r}"

    def test_two_routes_agree(self, ctx30, chain30):
        tol = mpf(10) ** (-(ctx30.digits - 5))
        g, g_eta = g_derivs_at_one(chain30["lambdas"]), g_derivs_at_one_via_eta(chain30["etas"])
        with mp.workdps(60):
            for r in range(9):
                assert abs(exact(g[r]) - exact(g_eta[r])) < tol, f"r={r}"

    def test_insufficient_lambdas(self, ctx30, chain30):
        # lambda_1 .. lambda_13 reach g^(12)(1), eta_0 .. eta_13 g^(13)(1),
        # and a table of another kind is refused
        assert len(g_derivs_at_one(chain30["lambdas"])) == 13
        assert len(g_derivs_at_one_via_eta(chain30["etas"])) == 14
        with pytest.raises(ValueError, match="needs a lambda table, got eta"):
            g_derivs_at_one(chain30["etas"])
        with pytest.raises(ValueError, match="needs an eta table, got lambda"):
            g_derivs_at_one_via_eta(chain30["lambdas"])


class TestMasterRecurrence:
    def test_residuals_up_to_six(self, ctx30, chain30):
        tol = exact(default_tol(ctx30))
        residuals = recurrence_residual_3_13(chain30["gammas"], chain30["lambdas"])
        for n in range(7):
            assert residuals[n] < tol, f"n={n}: {residuals[n]}"

    def test_lambda2_perturbation_moves_residual_linearly(self, ctx30, chain30):
        # the n = 0 identity is linear in lambda_2 with unit coefficient
        lam = chain30["lambdas"]
        with mp.workdps(60):
            values = list(lam.values)
            values[1] = exact(lam[2]) + mpf("1e-3")
            bumped = ConstantTable("lambda", values, "perturbed", ctx30)
        res = exact(recurrence_residual_3_13(chain30["gammas"], bumped)[0])
        with mp.workdps(60):
            assert abs(res - mpf("1e-3")) < mpf("1e-9")

    def test_insufficient_tables(self, ctx30, chain30):
        # index n reads gamma to n + 1 and lambda to n + 2, so the residuals
        # stop where the shorter table does, and n = 0 needs gamma_1 and lambda_2
        gammas, lambdas = chain30["gammas"], chain30["lambdas"]
        assert len(recurrence_residual_3_13(gammas, lambdas)) == 12
        assert len(recurrence_residual_3_13(table("gamma", 5, ctx30), lambdas)) == 5
        with pytest.raises(ValueError, match="needs gamma entries up to 1"):
            recurrence_residual_3_13(table("gamma", 0, ctx30), lambdas)
        with pytest.raises(ValueError, match="needs lambda entries up to 2"):
            recurrence_residual_3_13(gammas, table("lambda", 1, ctx30))

    def test_tables_at_two_contexts_are_refused(self, ctx30):
        # each table computes under its own context, and the residual reads
        # two: no one context of the two would be right for both
        with pytest.raises(ValueError, match="two tables at one context"):
            recurrence_residual_3_13(table("gamma", 5, ctx30),
                                     table("lambda", 5, PrecisionContext(60)))

    @pytest.mark.parametrize("sign", ["(+1)", "(-2)"])
    def test_a_sign_mutant_of_the_rhs_fails_verify_at_10_digits(self, sign, monkeypatch):
        # the paper's (-1)^n (n+1)! weight with its sign base changed: the
        # lambda suite's residuals must catch it even at the fewest digits
        source = Path(li_keiper.__file__).read_text()
        original = "(-1) ** n * math.factorial(n + 1)"
        assert source.count(original) == 1
        mutant = source.replace(original, f"{sign} ** n * math.factorial(n + 1)")
        namespace = {"__name__": "zkconst.li_keiper_mutant", "__package__": "zkconst"}
        exec(compile(mutant, li_keiper.__file__, "exec"), namespace)
        monkeypatch.setattr(li_keiper, "recurrence_residual_3_13",
                            namespace["recurrence_residual_3_13"])
        reports = run_suite("lambda", PrecisionContext(10))
        assert any(not r.passed for r in reports)


class TestCombinatorialHelpers:
    def test_binomial_inversion_is_involution(self):
        rng = random.Random(4242)
        for _ in range(120):
            length = rng.randint(1, 12)
            seq = [rng.randint(-50, 50) for _ in range(length)]
            assert binomial_alternating_transform(
                binomial_alternating_transform(seq)
            ) == seq

    @pytest.mark.parametrize("p", list(range(1, 9)))
    def test_factorial_conversion_identity(self, p):
        # k(k-1)...(k-p+1) = (-1)^p sum_j (p!/j!) C(p-1,j-1) (-1)^j k(k+1)...(k+j-1)
        for k in range(1, 21):
            lhs = math.perm(k, p)
            rhs = (-1) ** p * sum(
                Fraction(math.factorial(p), math.factorial(j))
                * math.comb(p - 1, j - 1)
                * (-1) ** j
                * math.perm(k + j - 1, j)
                for j in range(1, p + 1)
            )
            assert lhs == rhs

    def test_a_faulty_transform_fails_the_check_and_moves_lambda(
        self, monkeypatch, ctx30, chain30
    ):
        # the involution check must vouch for the sum the lambda table uses:
        # with the sign dropped, the check fails and every lambda_r moves
        def unsigned(seq):
            return [
                sum(math.comb(n, k) * seq[k] for k in range(n + 1))
                for n in range(len(seq))
            ]

        before = lambda_table(chain30["sigmas"]).values
        monkeypatch.setattr(li_keiper, "binomial_alternating_transform", unsigned)
        after = lambda_table(chain30["sigmas"]).values
        assert all(a != b for a, b in zip(after, before))
        (check,) = [
            r for r in run_suite("lambda", ctx30) if r.identity == "eq-3.27-involution"
        ]
        assert not check.passed


class TestPositivityReport:
    def test_structure_and_verdicts(self, ctx30):
        reports = positivity_report(15, ctx30)
        names = [r.identity for r in reports]
        assert names.count("eq-3.17") == 1
        assert names.count("eq-3.18") == 1
        assert names.count("li-lambda3-positive") == 1
        assert sum(1 for n in names if n.startswith("li-positivity-n")) == 15
        assert all(r.passed for r in reports)
        assert all(r.method_tags for r in reports)

    @pytest.mark.parametrize("digits", [10, 60])
    def test_li_check_and_verify_share_the_lambda2_bounds(self, digits):
        # one function writes eq-3.17 and eq-3.18 for both; only li-check
        # tags eq-3.17 with xi2-positivity
        ctx = PrecisionContext(digits)

        def bounds(reports):
            return {r.identity: r for r in reports if r.identity in ("eq-3.17", "eq-3.18")}

        li_check, verify = bounds(positivity_report(1, ctx)), bounds(run_suite("xi", ctx))
        assert set(li_check) == set(verify) == {"eq-3.17", "eq-3.18"}
        for name, r in li_check.items():
            assert (r.lhs, r.rhs, r.abs_err) == (verify[name].lhs, verify[name].rhs,
                                                 verify[name].abs_err)
        assert li_check["eq-3.17"].method_tags == ("sigma-3.29", "xi2-positivity")
        assert verify["eq-3.17"].method_tags == li_check["eq-3.18"].method_tags == ("sigma-3.29",)

    def test_small_max_n_still_reports_lambda3(self, ctx30):
        reports = positivity_report(1, ctx30)
        names = [r.identity for r in reports]
        assert "li-lambda3-positive" in names
        assert all(r.passed for r in reports)

    def test_pass_iff_abs_err_within_tol(self, ctx30):
        for r in positivity_report(5, ctx30):
            with mp.workdps(50):
                assert r.passed == (mpf(r.abs_err) <= mpf(r.tol))


def _exact(x) -> Fraction:
    sign, man, exp, _ = x._mpf_  # an mpf's or a Binary's
    return (-1) ** sign * Fraction(man) * Fraction(2) ** exp


# (mantissa, exponent) of an mpf carrying up to 200 bits, well past the
# working precision of a 10-digit context
WIDE_MPF = st.tuples(st.integers(-(2**200), 2**200), st.integers(-230, -170))


class TestTransformProperties:
    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(st.one_of(
        st.lists(st.integers(-(10**30), 10**30), max_size=40),
        st.lists(st.fractions(-100, 100, max_denominator=50), max_size=40),
    ))
    def test_transform_is_an_involution(self, seq):
        assert binomial_alternating_transform(binomial_alternating_transform(seq)) == seq

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(st.lists(WIDE_MPF, min_size=1, max_size=20), st.integers(10, 60))
    def test_lambda_table_matches_the_difference_oracle(self, pairs, digits):
        ctx = PrecisionContext(digits=digits)
        with mp.workprec(256):
            sigmas = [mp.ldexp(mp.mpf(man), exp) for man, exp in pairs]
        drawn = ConstantTable("sigma", sigmas, "drawn", ctx)
        got = lambda_table(drawn).values
        rationals = [_exact(s) for s in sigmas]
        want = lambda_from_sigma_differences(rationals)
        unit = Fraction(1, 10**ctx.working_dps)
        for r in range(1, len(sigmas) + 1):
            scale = sum(math.comb(r, j) * abs(rationals[j - 1]) for j in range(1, r + 1))
            assert abs(_exact(got[r - 1]) - want[r - 1]) <= unit * scale, f"r={r}"


class TestTransformAccuracy:
    @pytest.mark.parametrize("digits", [10, 30, 60])
    @pytest.mark.parametrize("kind", ["sigma", "lambda"])
    def test_mpf_transform_is_within_a_unit_of_the_exact_one(self, kind, digits):
        # sigma -> lambda and lambda -> sigma at the cap, at the step row the
        # lambda table runs at, against the exact transform of the same mpfs
        ctx = PrecisionContext(digits=digits)
        values = [0, *map(exact, table(kind, 20, ctx).values)]
        with mp.workdps(ctx.dps("step")):
            got = binomial_alternating_transform(values)
        rationals = [Fraction(0), *(_exact(v) for v in values[1:])]
        unit = Fraction(1, 10**ctx.working_dps)
        assert got[0] == 0
        for i, value in enumerate(got[1:], 1):
            want = sum(math.comb(i, j) * (-1) ** j * rationals[j] for j in range(i + 1))
            assert abs(_exact(value) - want) <= unit * max(1, abs(want)), f"i={i}"
