import pytest
from mpmath import mp, mpf

from oracles import FROZEN, brute_zeta
from zkconst import kernel
from zkconst.kernel import polygamma_three_halves_mpf, zeta_int_mpf
from zkconst.precision import PrecisionContext


class TestZetaInt:
    def test_zeta2_is_pi_squared_over_six(self, ctx30):
        z = zeta_int_mpf(2, ctx30)
        with mp.workdps(60):
            assert abs(z - mp.pi**2 / 6) < mpf(10) ** (-ctx30.digits)

    def test_zeta2_against_brute_oracle(self, ctx30):
        z = zeta_int_mpf(2, ctx30)
        with mp.workdps(60):
            assert abs(z - mpf(FROZEN["zeta_2_brute"])) < mpf("1e-12")
        assert mp.nstr(z, 11).startswith("1.6449340668")

    def test_zeta3_against_brute_oracle(self, ctx30):
        z = zeta_int_mpf(3, ctx30)
        with mp.workdps(60):
            assert abs(z - mpf(FROZEN["zeta_3_brute"])) < mpf("1e-18")
        assert mp.nstr(z, 20).startswith("1.2020569031")

    def test_brute_oracle_self_consistency(self):
        # the frozen strings really are what the oracle produces
        with mp.workdps(50):
            assert abs(brute_zeta(2, 25) - mpf(FROZEN["zeta_2_brute"])) < mpf("1e-15")
            assert abs(brute_zeta(3, 25) - mpf(FROZEN["zeta_3_brute"])) < mpf("1e-19")

    @pytest.mark.parametrize("bad", [1, 0, -3])
    def test_pole_and_divergence_rejected(self, bad, ctx30):
        with pytest.raises(ValueError):
            zeta_int_mpf(bad, ctx30)

    def test_strictly_decreasing_to_one(self, ctx30):
        values = [zeta_int_mpf(n, ctx30) for n in range(2, 32)]
        for a, b in zip(values, values[1:]):
            assert a > b > 1

    def test_precision_escalation(self):
        lo = PrecisionContext(digits=30)
        hi = PrecisionContext(digits=50)
        with mp.workdps(70):
            diff = abs(zeta_int_mpf(7, lo) - zeta_int_mpf(7, hi))
            assert diff < mpf(10) ** (-(30 - 2))

    def test_one_weight_row_serves_every_zeta_at_a_context(self):
        kernel._zeta_int_raw.cache_clear()
        kernel._crvz_weights.cache_clear()
        ctx = PrecisionContext(digits=37)
        for n in range(2, 21):
            zeta_int_mpf(n, ctx)
        assert kernel._crvz_weights.cache_info().misses == 1


class TestPolygammaThreeHalves:
    def test_order_zero_closed_form(self, ctx30):
        v = polygamma_three_halves_mpf(0, ctx30)
        with mp.workdps(60):
            assert abs(v - mpf(FROZEN["psi_three_halves"])) < mpf("1e-40")

    def test_order_one_is_3zeta2_minus_4(self, ctx30):
        v = polygamma_three_halves_mpf(1, ctx30)
        with mp.workdps(60):
            expect = 3 * zeta_int_mpf(2, ctx30) - 4
            assert abs(v - expect) < mpf(10) ** (-ctx30.working_dps + 2)
            assert abs(v - mpf(FROZEN["psi1_three_halves"])) < mpf("1e-40")

    def test_sign_alternation_up_to_20(self, ctx30):
        for n in range(1, 21):
            v = polygamma_three_halves_mpf(n, ctx30)
            assert (-1) ** (n + 1) * v > 0, f"sign wrong at n={n}"

    def test_negative_order_rejected(self, ctx30):
        with pytest.raises(ValueError):
            polygamma_three_halves_mpf(-1, ctx30)

    def test_precision_escalation(self):
        lo = PrecisionContext(digits=30)
        hi = PrecisionContext(digits=50)
        with mp.workdps(70):
            for n in (0, 5, 15):
                diff = abs(
                    polygamma_three_halves_mpf(n, lo)
                    - polygamma_three_halves_mpf(n, hi)
                )
                scale = max(1, abs(polygamma_three_halves_mpf(n, hi)))
                assert diff / scale < mpf(10) ** (-(30 - 2))
