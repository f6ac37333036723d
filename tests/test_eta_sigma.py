import pytest
from mpmath import mp, mpf

from zkconst.eta_sigma import (
    eta_from_gamma,
    eta_from_gamma_coffey,
    gamma_from_eta,
    sigma_from_eta,
    sigma_table,
)
from zkconst.kernel import zeta_int_mpf
from zkconst.li_keiper import lambda_closed


class TestEtaRecurrence:
    def test_eta0_is_minus_gamma(self, ctx30, chain30):
        with mp.workdps(60):
            diff = abs(chain30["etas"].mpf(0) + chain30["gammas"].mpf(0))
            assert diff < mpf(10) ** (-(ctx30.digits - 5))

    def test_eta1_closed_form(self, ctx30, chain30):
        g0 = chain30["gammas"].mpf(0)
        g1 = chain30["gammas"].mpf(1)
        with mp.workdps(60):
            diff = abs(chain30["etas"].mpf(1) - (g0**2 + 2 * g1))
            assert diff < mpf(10) ** (-(ctx30.digits - 5))

    def test_eta2_relation(self, ctx30, chain30):
        g = chain30["gammas"]
        with mp.workdps(60):
            lhs = 3 * g.mpf(2)
            rhs = -2 * g.mpf(0) ** 3 - 6 * g.mpf(0) * g.mpf(1) - 2 * chain30["etas"].mpf(2)
            assert abs(lhs - rhs) < mpf(10) ** (-(ctx30.digits - 5))

    def test_both_recurrences_agree(self, ctx30, chain30):
        alt = eta_from_gamma_coffey(13, chain30["gammas"], ctx30)
        with mp.workdps(60):
            for n in range(14):
                diff = abs(chain30["etas"].mpf(n) - alt.mpf(n))
                assert diff < mpf(10) ** (-(ctx30.digits - 3))

    def test_sign_alternation(self, chain30):
        etas = chain30["etas"]
        assert etas.mpf(0) < 0
        for n in range(1, 13):
            assert (-1) ** (n + 1) * etas.mpf(n) > 0, f"eta_{n} sign"

    def test_nonnegativity_consequence(self, chain30):
        g = chain30["gammas"]
        assert 2 * g.mpf(1) + g.mpf(0) ** 2 >= 0

    def test_insufficient_gammas_rejected(self, ctx30, chain30):
        with pytest.raises(ValueError):
            eta_from_gamma(14, chain30["gammas"], ctx30)
        with pytest.raises(ValueError):
            eta_from_gamma(2, chain30["etas"], ctx30)  # wrong kind


class TestGammaFromEta:
    def test_n0_recovers_gamma(self, ctx30, chain30):
        back = gamma_from_eta(0, chain30["etas"], ctx30)
        with mp.workdps(60):
            diff = abs(back.mpf(0) - chain30["gammas"].mpf(0))
            assert diff < mpf(10) ** (-(ctx30.digits - 5))

    def test_n1_bell_identity(self, ctx30, chain30):
        # -2 gamma_1 = gamma^2 - eta_1
        g = chain30["gammas"]
        e = chain30["etas"]
        with mp.workdps(60):
            lhs = -2 * g.mpf(1)
            rhs = g.mpf(0) ** 2 - e.mpf(1)
            assert abs(lhs - rhs) < mpf(10) ** (-(ctx30.digits - 5))

    def test_round_trip_identity(self, ctx30, chain30):
        back = gamma_from_eta(8, chain30["etas"], ctx30)
        tol = mpf(10) ** (-(ctx30.digits - 5))
        with mp.workdps(60):
            for n in range(9):
                assert abs(back.mpf(n) - chain30["gammas"].mpf(n)) < tol

    def test_insufficient_etas_rejected(self, ctx30, chain30):
        with pytest.raises(ValueError):
            gamma_from_eta(14, chain30["etas"], ctx30)


class TestSigma:
    def test_sigma1_is_lambda1(self, ctx30, chain30):
        s1 = sigma_from_eta(1, chain30["etas"], ctx30)
        with mp.workdps(60):
            diff = abs(s1 - lambda_closed(1, ctx30))
            assert diff < mpf(10) ** (-(ctx30.digits - 5))

    def test_sigma2_formula_and_cross_route(self, ctx30, chain30):
        # sigma_2 = eta_1 - (3/4) zeta(2) + 1, cross-checked through
        # lambda_2 = 2 sigma_1 - sigma_2 against the lambda_2 closed form
        etas = chain30["etas"]
        s1 = sigma_from_eta(1, etas, ctx30)
        s2 = sigma_from_eta(2, etas, ctx30)
        with mp.workdps(60):
            direct = etas.mpf(1) - mpf(3) / 4 * zeta_int_mpf(2, ctx30) + 1
            assert abs(s2 - direct) < mpf(10) ** (-(ctx30.digits - 5))
            lam2 = 2 * s1 - s2
            assert abs(lam2 - lambda_closed(2, ctx30)) < mpf(10) ** (
                -(ctx30.digits - 5)
            )

    def test_sigma1_squared_exceeds_sigma2(self, ctx30, chain30):
        s = chain30["sigmas"]
        assert s.mpf(1) ** 2 > s.mpf(2)

    def test_table_tags_and_indices(self, ctx30, chain30):
        s = chain30["sigmas"]
        rows = list(s)
        assert [n for n, _, _ in rows] == list(range(1, 14))
        assert rows[0][2] == "closed-2.13"
        assert all(method == "eta-zeta-s4" for _, _, method in rows[1:])

    def test_nonpositive_index_rejected(self, ctx30, chain30):
        for bad in (0, -2):
            with pytest.raises(ValueError):
                sigma_from_eta(bad, chain30["etas"], ctx30)

    def test_insufficient_etas_rejected(self, ctx30, chain30):
        with pytest.raises(ValueError):
            sigma_from_eta(15, chain30["etas"], ctx30)
        with pytest.raises(ValueError):
            sigma_table(15, chain30["etas"], ctx30)
