import math
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from exact import exact
from memos import clear_package_memos
from oracles import FROZEN, brute_zeta
from zkconst import kernel
from zkconst.kernel import polygamma_three_halves_mpf, zeta_int_mpf
from zkconst.precision import (
    FAMILIES, MAX_DIGITS, MIN_DIGITS, MIN_GUARD, PrecisionContext, extra_digits,
)
from zkconst.reports import default_tol
from zkconst.stieltjes import Binary, workdps
from zkconst.verify import run_suite

# every dps a weight row is built at for digits 10..60 and guard_digits up to
# 60: working_dps plus the zeta_atom row (25, as wide as sigma and
# psi_three_halves at n = 20)
ROW_DPS = range(MIN_DIGITS + MIN_GUARD, MAX_DIGITS + 60 + extra_digits("zeta_atom") + 1)


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
            diff = abs(exact(zeta_int_mpf(7, lo)) - exact(zeta_int_mpf(7, hi)))
            assert diff < mpf(10) ** (-(30 - 2))

    def test_one_weight_row_serves_every_zeta_at_a_context(self):
        kernel._crvz_weights.cache_clear()
        ctx = PrecisionContext(digits=37)
        for n in range(2, 21):
            zeta_int_mpf(n, ctx)
        assert kernel._crvz_weights.cache_info().misses == 1
        # sigma, lambda, psi^(n)(3/2), Gamma^(m)(1), L^(n)(0) and the suite
        # sides all read zeta(k) at the one precision of their context
        for digits in (10, 30, 60):
            clear_package_memos()
            run_suite("all", PrecisionContext(digits=digits))
            assert kernel._crvz_weights.cache_info().currsize == 1, f"digits={digits}"

    def test_the_zeta_atom_row_covers_every_reader_at_its_cap(self):
        # a reader whose own row outgrew zeta_atom would compute with a
        # zeta(k) less precise than the rest of its step
        readers = {
            "sigma": extra_digits("sigma"),
            "psi_three_halves": extra_digits("psi_three_halves", FAMILIES["eta"][1]),
            "gamma_deriv": extra_digits("gamma_deriv", FAMILIES["zeta0"][1]),
            "step": extra_digits("step"),
            "elementary_side": extra_digits("elementary_side"),
        }
        atom = extra_digits("zeta_atom")
        assert {name: row for name, row in readers.items() if row > atom} == {}

    @pytest.mark.parametrize("digits", [10, 30, 60])
    def test_within_the_zeta_int_row_of_mp_zeta(self, digits):
        ctx = PrecisionContext(digits=digits)
        promised = ctx.working_dps + extra_digits("zeta_atom") + extra_digits("zeta_int")
        bound = mpf(10) ** -promised
        for k in range(2, 41):
            z = zeta_int_mpf(k, ctx)
            with mp.workdps(promised + 10):
                exact = mp.zeta(k)
                assert abs(z - exact) / exact < bound, f"k={k}"


# every working dps from the smallest context's up to past the widest row
ATOM_DPS = range(MIN_DIGITS + MIN_GUARD, 201)


class TestAtomsAreMpmaths:
    """The kernel's atoms are computed on the standard library; each must
    have, bit for bit, the mpf that mpmath gives at the same precision."""

    def test_pi_and_logs(self):
        for dps in ATOM_DPS:
            with mp.workdps(dps):
                want = +mp.pi, mp.log(2), mp.log(mp.pi), mp.log(2 * mp.pi)
            got = kernel.atoms(dps)
            assert got._fields == ("pi", "log2", "log_pi", "log_2pi")
            assert [x._mpf_ for x in got] == [x._mpf_ for x in want], f"dps={dps}"

    def test_default_tolerances(self):
        # the power default_tol takes at every exponent a run may ask for;
        # default_tol itself refuses exponents past ctx.digits
        for dps in ATOM_DPS:
            ctx = PrecisionContext(MIN_DIGITS, dps - MIN_DIGITS)
            with mp.workdps(dps + extra_digits("report")):
                want = [mpf(10) ** -e for e in range(1, MAX_DIGITS + 1)]
            with workdps(dps + extra_digits("report")):
                got = [Binary(10) ** -e for e in range(1, MAX_DIGITS + 1)]
            assert [x._mpf_ for x in got] == [x._mpf_ for x in want], f"dps={dps}"
            tols = [default_tol(ctx, e) for e in range(1, ctx.digits + 1)]
            assert tols == got[:ctx.digits], f"dps={dps}"

    def test_zeta_is_the_crvz_quotient_in_mpf(self):
        # the same integer sum, its quotient taken as one mpf division
        for dps in ATOM_DPS:
            row = kernel._crvz_weights(dps)
            for k in range(2, 41):
                acc = sum((c << row.shift) // j**k for j, c in enumerate(row.weights, 1))
                half = 1 << (k - 1)
                with mp.workdps(row.working_dps):
                    want = mp.ldexp(acc * half, -row.shift) / (row.d * (half - 1))
                assert row.zeta(k)._mpf_ == want._mpf_, f"dps={dps} k={k}"

    def test_a_lower_n_restarts_the_terms_to_the_same_bits(self):
        # the row computes each zeta(n) once, in index order, whatever order
        # they are read in: every value keeps the bits of a fresh row read in
        # rising n
        order = (9, 2, 21, 3, 3, 14, 2, 40)
        for dps in (10, 47, 105):
            fresh = kernel._CrvzWeights(dps)
            want = [fresh.zeta(n) for n in range(2, 41)]
            row = kernel._CrvzWeights(dps)
            for n in order:
                assert row.zeta(n)._mpf_ == want[n - 2]._mpf_, f"dps={dps} n={n}"
            assert row.values == want


class TestCrvzWeights:
    """The weights are exact integers: checked at every N a row reaches."""

    def test_d_is_the_closed_form(self):
        for dps in ROW_DPS:
            row = kernel._CrvzWeights(dps)
            nterms = len(row.weights)
            with mp.workdps(2 * nterms):
                root = mp.sqrt(8)
                d = ((3 + root) ** nterms + (3 - root) ** nterms) / 2
                assert type(row.d) is int and abs(d - row.d) < 1, f"N={nterms}"
            # d bounds both the truncation and the N floors of the sum
            assert row.d > 10**row.working_dps

    def test_weights_are_the_recurrence_and_the_closed_form(self):
        for dps in ROW_DPS:
            row = kernel._CrvzWeights(dps)
            nterms = len(row.weights)
            b, c, c_closed = Fraction(-1), Fraction(-row.d), Fraction(-row.d)
            for k, weight in enumerate(row.weights):
                closed_b = Fraction((-1) ** (k + 1) * nterms * math.comb(nterms + k, 2 * k)
                                    * 4**k, nterms + k)
                c, c_closed = b - c, closed_b - c_closed
                assert type(weight) is int and weight == c == c_closed, f"N={nterms} k={k}"
                b = (k + nterms) * (k - nterms) * b / ((k + Fraction(1, 2)) * (k + 1))


class TestPolygammaThreeHalves:
    def test_order_zero_closed_form(self, ctx30):
        v = polygamma_three_halves_mpf(0, ctx30)
        with mp.workdps(60):
            assert abs(v - mpf(FROZEN["psi_three_halves"])) < mpf("1e-40")

    def test_order_one_is_3zeta2_minus_4(self, ctx30):
        v = polygamma_three_halves_mpf(1, ctx30)
        with mp.workdps(60):
            expect = 3 * exact(zeta_int_mpf(2, ctx30)) - 4
            assert abs(v - expect) < mpf(10) ** (-ctx30.working_dps + 2)
            assert abs(v - mpf(FROZEN["psi1_three_halves"])) < mpf("1e-40")

    def test_sign_alternation_up_to_20(self, ctx30):
        for n in range(1, 21):
            v = exact(polygamma_three_halves_mpf(n, ctx30))
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
                    exact(polygamma_three_halves_mpf(n, lo))
                    - exact(polygamma_three_halves_mpf(n, hi))
                )
                scale = max(1, abs(exact(polygamma_three_halves_mpf(n, hi))))
                assert diff / scale < mpf(10) ** (-(30 - 2))
