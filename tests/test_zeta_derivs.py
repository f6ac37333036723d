import pytest
from mpmath import mp, mpf

from exact import exact
from oracles import FROZEN
from zkconst import zeta_derivs
from zkconst.chain import table
from zkconst.kernel import zeta_int_mpf
from zkconst.precision import FAMILIES, PrecisionContext
from zkconst.stieltjes import ConstantTable
from zkconst.zeta_derivs import (
    L_derivs_at_zero,
    _apostol_weights,
    _cos_weight,
    gamma_derivs_at_one_mpf,
    gamma_from_zeta_derivs,
    zeta_derivs_at_zero,
    zeta_derivs_log_chain,
)


@pytest.fixture(scope="module")
def zeta_tables(ctx30, chain30):
    apostol = zeta_derivs_at_zero(table("gamma", 7, ctx30))
    log_chain = zeta_derivs_log_chain(table("eta", 7, ctx30))
    return apostol, log_chain


class TestGammaDerivatives:
    def test_order_zero_is_one(self, ctx30):
        assert gamma_derivs_at_one_mpf(0, ctx30) == 1

    def test_first_three_closed_forms(self, ctx30, chain30):
        g0 = exact(chain30["gammas"][0])
        with mp.workdps(60):
            z2 = exact(zeta_int_mpf(2, ctx30))
            z3 = exact(zeta_int_mpf(3, ctx30))
            expected = {
                1: -g0,
                2: z2 + g0**2,
                3: -(2 * z3 + 3 * g0 * z2 + g0**3),
            }
            for m, want in expected.items():
                got = gamma_derivs_at_one_mpf(m, ctx30)
                assert abs(got - want) < mpf(10) ** (-(ctx30.digits - 5)), f"m={m}"

    def test_negative_order_rejected(self, ctx30):
        with pytest.raises(ValueError):
            gamma_derivs_at_one_mpf(-1, ctx30)

    def test_repeat_call_returns_the_same_value(self, ctx30):
        assert gamma_derivs_at_one_mpf(4, ctx30) == gamma_derivs_at_one_mpf(4, ctx30)


class TestLDerivatives:
    def test_first_derivative_at_zero(self, ctx30, chain30):
        v = exact(L_derivs_at_zero(chain30["etas"])[0])
        with mp.workdps(60):
            assert abs(v - (mp.log(2 * mp.pi) - 1)) < mpf(10) ** (
                -(ctx30.digits - 3)
            )

    def test_second_derivative_at_zero(self, ctx30, chain30):
        v = exact(L_derivs_at_zero(chain30["etas"])[1])
        with mp.workdps(60):
            expected = exact(zeta_int_mpf(2, ctx30)) / 2 - exact(chain30["etas"][1]) - 1
            assert abs(v - expected) < mpf(10) ** (-(ctx30.digits - 5))

    def test_cross_check_against_zeta_second_derivative(
        self, ctx30, chain30, zeta_tables
    ):
        # L''(0) = -2 zeta''(0) - log^2(2 pi) - 1
        apostol, _ = zeta_tables
        v = exact(L_derivs_at_zero(chain30["etas"])[1])
        with mp.workdps(60):
            expected = -2 * exact(apostol[2]) - mp.log(2 * mp.pi) ** 2 - 1
            assert abs(v - expected) < mpf(10) ** (-(ctx30.digits - 5))

    def test_insufficient_etas(self, ctx30, chain30):
        # eta_0 .. eta_13 reach L^(14)(0), and a table of another kind is refused
        assert len(L_derivs_at_zero(chain30["etas"])) == 14
        with pytest.raises(ValueError, match="needs an eta table, got gamma"):
            L_derivs_at_zero(chain30["gammas"])


class TestZetaDerivativesAtZero:
    def test_entry_zero_is_minus_half(self, zeta_tables):
        apostol, log_chain = zeta_tables
        assert float(exact(apostol[0])) == -0.5
        assert float(exact(log_chain[0])) == -0.5

    def test_first_derivative_both_routes(self, ctx30, zeta_tables):
        with mp.workdps(60):
            expected = -mp.log(2 * mp.pi) / 2
            for table in zeta_tables:
                assert abs(exact(table[1]) - expected) < mpf(10) ** (
                    -(ctx30.digits - 3)
                )
                assert abs(exact(table[1]) - mpf(FROZEN["zeta_deriv1_at_0"])) < mpf(
                    "1e-40"
                )

    def test_second_derivative_value_and_formula(self, ctx30, chain30, zeta_tables):
        g = chain30["gammas"]
        with mp.workdps(60):
            via_formula = (
                exact(g[1])
                + exact(g[0]) ** 2 / 2
                - mp.pi**2 / 24
                - mp.log(2 * mp.pi) ** 2 / 2
            )
            for table in zeta_tables:
                assert abs(exact(table[2]) - via_formula) < mpf(10) ** (
                    -(ctx30.digits - 5)
                )
                assert abs(exact(table[2]) - mpf(FROZEN["zeta_deriv2_at_0"])) < mpf(
                    "1e-40"
                )

    def test_second_derivative_eta_route_equivalence(self, ctx30, chain30):
        # gamma_1 + gamma^2/2 - pi^2/24 - ... equals eta_1/2 - zeta(2)/4 - ...
        # after eta_1 = gamma^2 + 2 gamma_1
        g = chain30["gammas"]
        e = chain30["etas"]
        with mp.workdps(60):
            z2 = exact(zeta_int_mpf(2, ctx30))
            log2pi2 = mp.log(2 * mp.pi) ** 2
            a = exact(g[1]) + exact(g[0]) ** 2 / 2 - mp.pi**2 / 24 - log2pi2 / 2
            b = exact(e[1]) / 2 - z2 / 4 - log2pi2 / 2
            assert abs(a - b) < mpf(10) ** (-(ctx30.digits - 5))

    def test_routes_agree_entrywise(self, ctx30, zeta_tables):
        apostol, log_chain = zeta_tables
        tol = mpf(10) ** (-(ctx30.digits - 6))
        with mp.workdps(60):
            for n in range(9):
                assert abs(exact(apostol[n]) - exact(log_chain[n])) < tol, f"n={n}"

    def test_route_and_cap_validation(self, ctx30, chain30):
        with pytest.raises(ValueError):
            zeta_derivs_at_zero(chain30["gammas"])  # reaches zeta^(14)(0)
        with pytest.raises(ValueError):
            zeta_derivs_at_zero(None)  # missing table

    @pytest.mark.parametrize("route, kind", [(zeta_derivs_at_zero, "gamma"),
                                             (zeta_derivs_log_chain, "eta")])
    def test_a_table_one_past_the_cap_is_refused(self, route, kind, ctx30, monkeypatch):
        # a table to the cap would give zeta^(cap+1)(0), one past the
        # weights, and the cap is checked before any entry: no working
        # precision is set and no Bell recurrence runs
        def computed(*args):
            raise AssertionError("an entry was computed past the cap")

        cap = FAMILIES["zeta0"][1]
        route(table(kind, cap - 1, ctx30))
        to_cap = table(kind, cap, ctx30)
        monkeypatch.setattr(zeta_derivs, "bell_recurrence_values", computed)
        monkeypatch.setattr(zeta_derivs, "workdps", computed)
        with pytest.raises(ValueError, match=r"^the last index of a zeta0 table must lie in \[0, 10\]$"):
            route(to_cap)


class TestForwardMap:
    def test_reproduces_gamma_sequence(self, ctx30, chain30, zeta_tables):
        _, log_chain = zeta_tables
        tol = mpf(10) ** (-(ctx30.digits - 6))
        forward = gamma_from_zeta_derivs(log_chain)
        with mp.workdps(60):
            for n in range(1, 9):
                got = exact(forward[n - 1])
                assert abs(got - exact(chain30["gammas"][n - 1])) < tol, f"n={n}"

    def test_inverse_then_forward_is_identity(self, ctx30, chain30, zeta_tables):
        apostol, _ = zeta_tables
        tol = mpf(10) ** (-(ctx30.digits - 6))
        forward = gamma_from_zeta_derivs(apostol)
        with mp.workdps(60):
            for n in range(1, 9):
                got = exact(forward[n - 1])
                assert abs(got - exact(chain30["gammas"][n - 1])) < tol

    def test_n1_constant_cancellation(self, ctx30, chain30, zeta_tables):
        # log(2 pi) + gamma + 2 zeta'(0) must collapse to gamma
        _, log_chain = zeta_tables
        g0 = exact(chain30["gammas"][0])
        with mp.workdps(60):
            lhs = mp.log(2 * mp.pi) + g0 + 2 * exact(log_chain[1])
            assert abs(lhs - g0) < mpf(10) ** (-(ctx30.digits - 3))

    def test_insufficient_table(self, ctx30, zeta_tables):
        # zeta^(0..8)(0) gives gamma_0 .. gamma_7, tagged forward-5.5; a
        # table to 0 gives no gamma, and one of another kind is refused
        apostol, _ = zeta_tables
        forward = gamma_from_zeta_derivs(apostol)
        assert (forward.kind, forward.max_n, forward.ctx) == ("gamma", 7, ctx30)
        assert set(forward.methods) == {"forward-5.5"}
        with pytest.raises(ValueError, match="needs zeta0 entries up to 1, table stops at 0"):
            gamma_from_zeta_derivs(table("zeta0", 0, ctx30))
        with pytest.raises(ValueError, match="needs a zeta0 table, got gamma"):
            gamma_from_zeta_derivs(table("gamma", 3, ctx30))

    def test_an_index_past_the_cap_is_refused(self, ctx30):
        # no zeta0 table reaches zeta^(11)(0), so the forward map of a table
        # to the cap stops at gamma_9; the weights stop at the cap
        cap = FAMILIES["zeta0"][1]
        with pytest.raises(ValueError, match=r"last index of a zeta0 table must lie in \[0, 10\]"):
            ConstantTable("zeta0", [mpf(-1) / 2] * (cap + 2), "hand-built", ctx30)
        to_cap = ConstantTable("zeta0", [mpf(-1) / 2] * (cap + 1), "hand-built", ctx30)
        assert gamma_from_zeta_derivs(to_cap).max_n == cap - 1


class TestCosineWeights:
    def test_odd_orders_vanish_identically(self):
        with mp.workdps(50):
            pi_val = +mp.pi
            for m in range(1, 16, 2):
                assert _cos_weight(m, pi_val) is None

    def test_even_orders_match_numeric_cosine(self):
        with mp.workdps(50):
            pi_val = +mp.pi
            for m in range(0, 16, 2):
                w = _cos_weight(m, pi_val)
                numeric = (pi_val / 2) ** m * mp.cos(m * pi_val / 2)
                assert abs(w - numeric) < mpf("1e-40")


class TestApostolWeights:
    @pytest.mark.parametrize("digits", [10, 30, 60])
    def test_weights_match_mpmath_derivatives(self, digits):
        # a_m = A^(m)(0) for A(s) = 2 (2 pi)^-s Gamma(1+s) cos(pi s/2), against
        # mpmath's numerical derivatives of A taken at 120 digits
        ctx = PrecisionContext(digits)
        weights = _apostol_weights(ctx)
        assert len(weights) == FAMILIES["zeta0"][1] + 1
        assert weights[0] == 2
        with mp.workdps(120):
            def big_a(s):
                return 2 * (2 * mp.pi) ** -s * mp.gamma(1 + s) * mp.cos(mp.pi * s / 2)

            for m, want in enumerate(mp.diffs(big_a, 0, 10)):
                got = weights[m]
                assert abs(got - want) <= mpf(10) ** -(digits + 10) * abs(want), f"m={m}"
