import pytest
from mpmath import mp, mpf

from exact import exact
from zkconst.chain import table
from zkconst.eta_sigma import (
    eta_from_gamma,
    eta_from_gamma_coffey,
    gamma_from_eta,
    sigma_table,
)
from zkconst.kernel import zeta_int_mpf
from zkconst.li_keiper import lambda_closed
from zkconst.precision import PrecisionContext
from zkconst.stieltjes import ConstantTable


class TestEtaRecurrence:
    def test_eta0_is_minus_gamma(self, ctx30, chain30):
        with mp.workdps(60):
            diff = abs(exact(chain30["etas"][0]) + exact(chain30["gammas"][0]))
            assert diff < mpf(10) ** (-(ctx30.digits - 5))

    def test_eta1_closed_form(self, ctx30, chain30):
        g0 = exact(chain30["gammas"][0])
        g1 = exact(chain30["gammas"][1])
        with mp.workdps(60):
            diff = abs(exact(chain30["etas"][1]) - (g0**2 + 2 * g1))
            assert diff < mpf(10) ** (-(ctx30.digits - 5))

    def test_eta2_relation(self, ctx30, chain30):
        g = chain30["gammas"]
        with mp.workdps(60):
            g0, g1, g2 = exact(g[0]), exact(g[1]), exact(g[2])
            lhs = 3 * g2
            rhs = -2 * g0**3 - 6 * g0 * g1 - 2 * exact(chain30["etas"][2])
            assert abs(lhs - rhs) < mpf(10) ** (-(ctx30.digits - 5))

    def test_both_recurrences_agree(self, ctx30, chain30):
        alt = eta_from_gamma_coffey(chain30["gammas"])
        with mp.workdps(60):
            for n in range(14):
                diff = abs(exact(chain30["etas"][n]) - exact(alt[n]))
                assert diff < mpf(10) ** (-(ctx30.digits - 3))

    def test_sign_alternation(self, chain30):
        etas = chain30["etas"]
        assert exact(etas[0]) < 0
        for n in range(1, 13):
            assert (-1) ** (n + 1) * exact(etas[n]) > 0, f"eta_{n} sign"

    def test_nonnegativity_consequence(self, chain30):
        g = chain30["gammas"]
        assert 2 * exact(g[1]) + exact(g[0]) ** 2 >= 0

    def test_insufficient_gammas_rejected(self, ctx30, chain30):
        # the map reads every entry of its table, so only a table of another
        # kind, which holds no gamma_n at all, falls short
        for step in (eta_from_gamma, eta_from_gamma_coffey):
            with pytest.raises(ValueError, match="gamma table, got eta"):
                step(chain30["etas"])


class TestGammaFromEta:
    def test_n0_recovers_gamma(self, ctx30, chain30):
        back = gamma_from_eta(chain30["etas"])
        with mp.workdps(60):
            diff = abs(exact(back[0]) - exact(chain30["gammas"][0]))
            assert diff < mpf(10) ** (-(ctx30.digits - 5))

    def test_n1_bell_identity(self, ctx30, chain30):
        # -2 gamma_1 = gamma^2 - eta_1
        g = chain30["gammas"]
        e = chain30["etas"]
        with mp.workdps(60):
            lhs = -2 * exact(g[1])
            rhs = exact(g[0]) ** 2 - exact(e[1])
            assert abs(lhs - rhs) < mpf(10) ** (-(ctx30.digits - 5))

    def test_round_trip_identity(self, ctx30, chain30):
        back = gamma_from_eta(chain30["etas"])
        tol = mpf(10) ** (-(ctx30.digits - 5))
        assert back.max_n == chain30["etas"].max_n
        with mp.workdps(60):
            for n in range(9):
                assert abs(exact(back[n]) - exact(chain30["gammas"][n])) < tol

    def test_insufficient_etas_rejected(self, ctx30, chain30):
        # as for eta_from_gamma: only a table of another kind falls short
        with pytest.raises(ValueError, match="eta table, got gamma"):
            gamma_from_eta(chain30["gammas"])


class TestSigma:
    def test_sigma1_is_lambda1(self, ctx30, chain30):
        s1 = exact(sigma_table(chain30["etas"])[1])
        with mp.workdps(60):
            diff = abs(s1 - lambda_closed(1, ctx30))
            assert diff < mpf(10) ** (-(ctx30.digits - 5))

    def test_sigma2_formula_and_cross_route(self, ctx30, chain30):
        # sigma_2 = eta_1 - (3/4) zeta(2) + 1, cross-checked through
        # lambda_2 = 2 sigma_1 - sigma_2 against the lambda_2 closed form
        etas = chain30["etas"]
        s1, s2 = map(exact, sigma_table(etas).values[:2])
        with mp.workdps(60):
            direct = exact(etas[1]) - mpf(3) / 4 * exact(zeta_int_mpf(2, ctx30)) + 1
            assert abs(s2 - direct) < mpf(10) ** (-(ctx30.digits - 5))
            lam2 = 2 * s1 - s2
            assert abs(lam2 - exact(lambda_closed(2, ctx30))) < mpf(10) ** (
                -(ctx30.digits - 5)
            )

    def test_sigma1_squared_exceeds_sigma2(self, ctx30, chain30):
        s = chain30["sigmas"]
        assert exact(s[1]) ** 2 > exact(s[2])

    def test_table_tags_and_indices(self, ctx30, chain30):
        s = chain30["sigmas"]
        rows = list(s.rows())
        assert [n for n, _, _ in rows] == list(range(1, 14))
        assert rows[0][2] == "closed-2.13"
        assert all(method == "eta-zeta-s4" for _, _, method in rows[1:])

    def test_eta_0_to_m_gives_sigma_1_to_m_plus_1(self, ctx30, chain30):
        etas = chain30["etas"]
        assert sigma_table(etas).max_n == etas.max_n + 1
        only_eta0 = ConstantTable("eta", etas.values[:1], "t", ctx30)
        sigmas = sigma_table(only_eta0)
        assert (sigmas.start, sigmas.values, sigmas.methods) == (
            1, (chain30["sigmas"][1],), ("closed-2.13",))

    def test_insufficient_etas_rejected(self, ctx30, chain30):
        # only a table of another kind falls short
        with pytest.raises(ValueError, match="eta table, got gamma"):
            sigma_table(chain30["gammas"])

    @pytest.mark.parametrize("digits", [10, 30, 60])
    def test_cancellation_keeps_its_digits(self, digits):
        # sigma_(n+1) cancels O(1) terms down to |sigma_14| ~ 1.4e-16; the
        # sigma budget row keeps the rounding of that cancellation below the
        # printed digits, so up to sigma_14 they are those of a wide-guard
        # reference (sigma_15..20 wait on the gamma truncation)
        def printed(ctx):
            return [mp.nstr(v, digits, strip_zeros=False) for v in table("sigma", 14, ctx).values]

        wide = PrecisionContext(digits, guard_digits=30)
        assert printed(PrecisionContext(digits)) == printed(wide)
